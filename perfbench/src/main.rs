//! The repository's benchmark: `cluster fit` and `cluster serve` at paper
//! scale. See README.md in this directory for the workloads and metrics.
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1
//! ```
//!
//! prints, as its last stdout line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.

mod fit;
mod gen;
mod host;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

pub const WORKLOADS: [&str; 3] = [
    "fit-categorical",
    "fit-mixed-minibatch",
    "serve-categorical",
];

/// End-to-end metrics (`--trace 0`), in output order, with their units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("work_s", "s"),
    ("cost_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`) with their units. Every workload prints
/// all of them; a layer that does no work on a workload reads 0.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("categorical.ingest_s", "s"),
    ("categorical.dict_values", "count"),
    ("kmodes.init_s", "s"),
    ("core.full_pass_s", "s"),
    ("core.full_pass_evals", "count"),
    ("minhash.hash_s", "s"),
    ("minhash.index_build_s", "s"),
    ("minhash.index_drop_s", "s"),
    ("minhash.index_buckets", "count"),
    ("minhash.index_max_bucket", "count"),
    ("core.iterations", "count"),
    ("core.assign_pass_s", "s"),
    ("core.candidates_per_item", "count"),
    ("core.shortlist_frac", "ratio"),
    ("core.skipped_frac", "ratio"),
    ("core.moves", "count"),
    ("kmodes.update_s", "s"),
    ("core.cost_s", "s"),
    ("core.minibatch.refresh_s", "s"),
    ("core.minibatch.assign_s", "s"),
    ("core.minibatch.absorb_s", "s"),
    ("core.minibatch.final_pass_s", "s"),
    ("core.minibatch.candidates_per_item", "count"),
    ("core.minibatch.fallbacks", "count"),
    ("lshclust.facade_s", "s"),
    ("lshclust.load_s", "s"),
    ("serde_json.parse_p50_us", "us"),
    ("lshclust.encode_p50_us", "us"),
    ("lshclust.predict_p50_us", "us"),
    ("lshclust.serve.handle_line_p50_us", "us"),
    ("lshclust.serve.wait_p50_us", "us"),
    ("lshclust.serve.wait_p99_us", "us"),
    ("lshclust.serve.cache_hit_frac", "ratio"),
    ("lshclust.serve.queue_max", "count"),
    ("lshclust.socket_p50_us", "us"),
    ("serve.closed_rps", "1/s"),
    ("serve.low_p50_ms", "ms"),
    ("serve.low_p99_ms", "ms"),
    ("serve.high_p50_ms", "ms"),
    ("serve.high_p99_ms", "ms"),
    ("serve.reload_s", "s"),
    ("harness.gen_late_p99_ms", "ms"),
    ("harness.trace_overhead_frac", "ratio"),
];

/// What one run measured, before it is rendered.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Set when a check of the program's output failed.
    pub wrong: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Counts one checked operation; `ok == false` records `what` failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.wrong.len() < 20 {
                self.wrong.push(what());
            }
        }
    }
}

/// A JSON number with all its digits (non-finite values become `null`).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.to_owned()),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes an integer")?),
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// A fresh per-run directory under the checkout, removed when dropped.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    fn new(args: &Args) -> std::io::Result<Self> {
        let dir = Path::new(".bench_work").join(format!(
            "{}-{}-{}",
            args.workload,
            args.seed,
            std::process::id()
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Where a traced run writes its spans (kept after the run).
pub fn spans_path(args: &Args) -> PathBuf {
    let dir = Path::new(".bench_trace");
    let _ = std::fs::create_dir_all(dir);
    dir.join(format!("{}-{}.ndjson", args.workload, args.seed))
}

/// Prints each layer's self time, and their sum against the root spans.
pub fn report_self_times(tracer: &trace::Tracer) {
    let by_name = tracer.self_time_by_name();
    let roots: f64 = tracer
        .spans()
        .iter()
        .filter(|s| s.parent.is_none())
        .map(trace::Span::secs)
        .sum();
    let total: f64 = by_name.values().sum();
    for (name, t) in &by_name {
        eprintln!("# self {name:<40} {t:>10.4}s");
    }
    eprintln!("# self-time sum {total:.4}s over root spans {roots:.4}s");
}

fn render(outcome: &Outcome, trace: bool) -> String {
    let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = outcome.metrics.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_num(v)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failed == 0 && outcome.wrong.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    )
}

fn run(args: &Args) -> Result<Outcome, String> {
    let load_before = host::loadavg();
    let work = WorkDir::new(args).map_err(|e| format!("work dir: {e}"))?;
    let outcome = match args.workload.as_str() {
        "serve-categorical" => serve::run(args, &work.0)?,
        _ => fit::run(args, &work.0)?,
    };
    eprintln!(
        "# host {{\"nproc\":{},\"load_before\":{},\"load_after\":{},\"commit\":\"{}\",\"seed\":{},\"workload\":\"{}\",\"trace\":{}}}",
        host::nproc(),
        json_num(load_before),
        json_num(host::loadavg()),
        host::commit(),
        args.seed,
        args.workload,
        args.trace
    );
    for w in &outcome.wrong {
        eprintln!("# wrong: {w}");
    }
    Ok(outcome)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // The fitting process: a child of the benchmark, so that its peak RSS
    // holds only what the program under test allocated.
    if argv.first().map(String::as_str) == Some("unit") {
        return match fit::unit_main(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench unit: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            println!("{}", render(&outcome, args.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` uses only letters, digits, `_`, `.` and `-` (and starts
    /// with a letter or digit).
    fn valid_metric_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_use_only_the_allowed_characters() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_metric_name(name), "{name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
        }
        assert!(!valid_metric_name("bad name"));
        assert!(!valid_metric_name("_leading"));
        assert!(!valid_metric_name("p99/ms"));
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        all.sort_unstable();
        let n = all.len();
        all.dedup();
        assert_eq!(all.len(), n, "metric names are used once");
    }

    #[test]
    fn benchmark_json_lists_the_metrics_this_program_prints() {
        let spec = serde_json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(|v| v.as_array())
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|x| x.as_str()).unwrap().to_owned();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |names: &[(&str, &str)]| -> Vec<(String, String)> {
            names
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = spec
            .get("workloads")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|x| x.as_str()).unwrap().to_owned())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn result_line_carries_every_metric_of_the_mode() {
        let mut o = Outcome::default();
        o.metrics.insert("setup_s", 1.25);
        o.check(true, String::new);
        let line = render(&o, false);
        let v = serde_json::parse(&line).unwrap();
        assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(true));
        let metrics = v.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        let traced = serde_json::parse(&render(&o, true)).unwrap();
        assert_eq!(
            traced.get("metrics").unwrap().as_object().unwrap().len(),
            PER_LAYER.len()
        );
        o.check(false, || "x".into());
        assert!(render(&o, false).starts_with("{\"correct\":false"));
    }

    #[test]
    fn args_parse_the_command_line_flags() {
        let argv: Vec<String> = "--workload fit-categorical --seed 7 --seconds 12 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&argv).unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12, true));
        let bad: Vec<String> = vec!["--workload".into(), "nope".into()];
        assert!(parse_args(&bad).is_err());
    }
}
