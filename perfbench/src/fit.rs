//! The two fit workloads. The benchmark process generates the input file;
//! a child process (`perfbench unit …`) encodes it and fits, so that the
//! child's peak RSS is the program's alone.

use crate::stats::median;
use crate::trace::Tracer;
use crate::{gen, host, json_num, Args, Outcome};
use lshclust::{ClusterRun, ClusterSpec, Clusterer, Fit, Lsh};
use lshclust_categorical::io::read_csv;
use lshclust_categorical::{AttrId, ClusterId, Dataset, DatasetBuilder};
use lshclust_core::framework::{AcceleratedRun, ActivitySet, CentroidModel, ShortlistProvider};
use lshclust_core::mhkmodes::{KModesModel, MhKModes, MhKModesConfig, MinHashProvider};
use lshclust_core::mhkprototypes::KPrototypesModel;
use lshclust_core::minibatch::{minibatch_mh_kprototypes, MiniBatchParams, UnionBands};
use lshclust_core::parallel::{
    assign_full_parallel, hash_band_keys_parallel, parallel_fit, SyncShortlistProvider,
};
use lshclust_kmodes::init::{initial_modes, InitMethod};
use lshclust_kmodes::kmeans::NumericDataset;
use lshclust_kmodes::kprototypes::{suggest_gamma, MixedDataset};
use lshclust_kmodes::modes::Modes;
use lshclust_kmodes::stats::RunSummary;
use lshclust_minhash::index::{IndexStats, LshIndexBuilder, ShortlistScratch};
use lshclust_minhash::Banding;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The paper's §IV-A shape at the ROADMAP's scale.
const N_ITEMS: usize = 100_000;
const K: usize = 1_000;
const N_ATTRS: usize = 100;
const DOMAIN: u32 = 40_000;
/// Numeric columns of the mixed workload.
const DIMS: usize = 16;
/// Threads of every fit: the host's two cores. Single-threaded timings on
/// this class of host swing by 2x within one process.
const THREADS: usize = 2;
/// Encodings per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Timed fits per run: at least this many, more while `--seconds` lasts.
const MIN_FITS: usize = 2;
const MAX_FITS: usize = 9;
/// Traced runs time the core call, the facade and the traced
/// decomposition this many times each.
const PAIRED_ROUNDS: usize = 2;

fn categorical_spec() -> ClusterSpec {
    ClusterSpec::new(K)
        .lsh(Lsh::MinHash { bands: 20, rows: 5 })
        .threads(THREADS)
}

fn mixed_spec() -> ClusterSpec {
    ClusterSpec::new(K)
        .lsh(Lsh::Union {
            bands: 20,
            rows: 5,
            sim_bands: 8,
            sim_rows: 16,
        })
        .fit(Fit::MiniBatch {
            batch_size: 1024,
            n_steps: 200,
            refresh_every: 8,
        })
        .threads(THREADS)
}

/// Benchmark side: writes the input, runs the fitting child, relays what it
/// measured.
pub fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let mixed = args.workload == "fit-mixed-minibatch";
    let csv = dir.join("input.csv");
    let t = Instant::now();
    let planted = {
        let data = gen::datgen(N_ITEMS, K, N_ATTRS, DOMAIN, args.seed);
        gen::write_csv(&csv, &data, 0..N_ITEMS, if mixed { DIMS } else { 0 })
            .map_err(|e| format!("writing {}: {e}", csv.display()))?;
        if mixed {
            gen::planted_mixed_cost(&data, &gen::numeric_columns(&data, DIMS), K)
        } else {
            gen::planted_cost(&data, K)
        }
    };
    eprintln!(
        "# generated {} in {:.2}s",
        csv.display(),
        t.elapsed().as_secs_f64()
    );
    let spans = crate::spans_path(args);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let child = Command::new(exe)
        .arg("unit")
        .arg(&args.workload)
        .arg(&csv)
        .arg(args.seconds.to_string())
        .arg(if args.trace { "1" } else { "0" })
        .arg(&spans)
        .arg(planted.to_string())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawning the fitting process: {e}"))?;
    let output = child
        .wait_with_output()
        .map_err(|e| format!("fitting process: {e}"))?;
    if !output.status.success() {
        return Err(format!("fitting process failed: {}", output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let line = text
        .lines()
        .last()
        .ok_or("fitting process printed nothing")?;
    let v = serde_json::parse(line).map_err(|e| format!("fitting process output: {e}"))?;
    let mut out = Outcome {
        attempted: v.get("attempted").and_then(|x| x.as_u64()).unwrap_or(0),
        failed: v.get("failed").and_then(|x| x.as_u64()).unwrap_or(0),
        ..Outcome::default()
    };
    for w in v.get("wrong").and_then(|w| w.as_array()).unwrap_or(&[]) {
        out.wrong.push(w.as_str().unwrap_or("?").to_owned());
    }
    let metrics = v.get("metrics").and_then(|m| m.as_object()).unwrap_or(&[]);
    for (name, _) in crate::END_TO_END.iter().chain(crate::PER_LAYER.iter()) {
        if let Some(x) = metrics
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, x)| x.as_f64())
        {
            out.metrics.insert(name, x);
        }
    }
    Ok(out)
}

/// Child side: `unit <workload> <csv> <seconds> <trace> <spans> <planted>`.
pub fn unit_main(argv: &[String]) -> Result<(), String> {
    let [workload, csv, seconds, trace, spans, planted] = argv else {
        return Err("usage: unit <workload> <csv> <seconds> <trace> <spans> <planted>".into());
    };
    let seconds: u64 = seconds.parse().map_err(|_| "bad seconds")?;
    let planted: f64 = planted.parse().map_err(|_| "bad planted cost")?;
    let budget = Duration::from_secs(seconds);
    let trace = trace == "1";
    let csv = Path::new(csv);
    let mut tracer = Tracer::new();
    let out = match (workload.as_str(), trace) {
        ("fit-categorical", false) => categorical_untraced(csv, budget, planted)?,
        ("fit-categorical", true) => categorical_traced(csv, &mut tracer)?,
        ("fit-mixed-minibatch", false) => mixed_untraced(csv, budget, planted)?,
        ("fit-mixed-minibatch", true) => mixed_traced(csv, &mut tracer)?,
        (other, _) => return Err(format!("no fit workload {other}")),
    };
    if trace {
        crate::report_self_times(&tracer);
        tracer
            .write_ndjson(Path::new(spans))
            .map_err(|e| format!("writing spans: {e}"))?;
    }
    let wrong: Vec<String> = out.wrong.iter().map(|w| format!("{w:?}")).collect();
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", json_num(*v)))
        .collect();
    println!(
        "{{\"attempted\":{},\"failed\":{},\"wrong\":[{}],\"metrics\":{{{}}}}}",
        out.attempted,
        out.failed,
        wrong.join(","),
        metrics.join(",")
    );
    Ok(())
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn self_peak_rss() -> f64 {
    host::peak_rss_mb("self").unwrap_or(f64::NAN)
}

/// Runs `encode` [`SETUP_REPS`] times, returning the last result and every
/// wall time (each also recorded as an ingest span when tracing).
fn encode_reps<T>(
    mut tracer: Option<&mut Tracer>,
    mut encode: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        let value = encode()?;
        let end = Instant::now();
        times.push(secs(end - t));
        if let Some(tr) = tracer.as_deref_mut() {
            tr.add("categorical.ingest", t, end, None, None);
        }
        last = Some(value);
    }
    Ok((last.expect("SETUP_REPS > 0"), times))
}

fn read_categorical(csv: &Path) -> Result<Dataset, String> {
    let file = std::fs::File::open(csv).map_err(|e| format!("{}: {e}", csv.display()))?;
    read_csv(BufReader::with_capacity(1 << 20, file)).map_err(|e| e.to_string())
}

/// Encodes the mixed CSV through the public builders: string cells through
/// `DatasetBuilder`, numeric cells into a `NumericDataset`.
fn read_mixed(csv: &Path) -> Result<(Dataset, NumericDataset), String> {
    let file = std::fs::File::open(csv).map_err(|e| format!("{}: {e}", csv.display()))?;
    let mut lines = BufReader::with_capacity(1 << 20, file).lines();
    let header = lines
        .next()
        .ok_or("empty input")?
        .map_err(|e| e.to_string())?;
    let names: Vec<String> = header
        .split(',')
        .filter(|c| c.starts_with('a'))
        .map(String::from)
        .collect();
    let m = names.len();
    let dims = header.split(',').count() - m;
    let mut builder = DatasetBuilder::new(names);
    let mut numeric = Vec::with_capacity(N_ITEMS * dims);
    for line in lines {
        let line = line.map_err(|e| e.to_string())?;
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != m + dims {
            return Err(format!("ragged row: {} fields", fields.len()));
        }
        builder
            .push_str_row(&fields[..m], None)
            .map_err(|e| e.to_string())?;
        for f in &fields[m..] {
            numeric.push(f.parse::<f64>().map_err(|e| format!("{f}: {e}"))?);
        }
    }
    Ok((builder.finish(), NumericDataset::new(dims, numeric)))
}

fn dict_values(data: &Dataset) -> usize {
    let schema = data.schema();
    (0..schema.n_attrs())
        .map(|a| schema.dictionary(AttrId(a as u32)).len())
        .sum()
}

/// The exact categorical cost of a run's returned state, recomputed from
/// its assignments and modes.
fn categorical_cost(data: &Dataset, run: &ClusterRun) -> Option<u64> {
    let modes = run.centroids.modes()?;
    Some(lshclust_kmodes::cost::total_cost(
        data,
        modes,
        &run.assignments,
    ))
}

fn mixed_cost(data: &MixedDataset<'_>, run: &ClusterRun) -> Option<u64> {
    let prototypes = run.centroids.prototypes()?.clone();
    let gamma = run.model.gamma()?;
    Some(KPrototypesModel::new(data, prototypes, gamma).total_cost(&run.assignments) as u64)
}

/// Checks a fit against its own recomputed cost and against the run's
/// first fit (fits are deterministic).
fn check_fit(
    out: &mut Outcome,
    run: &ClusterRun,
    recomputed: Option<u64>,
    reference: Option<&ClusterRun>,
) {
    let best = run.summary.best_cost();
    out.check(best.is_some() && best == recomputed, || {
        format!("fit_cost {best:?} differs from the recomputed cost {recomputed:?}")
    });
    if let Some(r) = reference {
        out.check(
            r.assignments == run.assignments && r.summary.best_cost() == best,
            || "a repeated fit returned a different state".to_owned(),
        );
    }
}

/// Warm-up fit, then timed fits until `budget` is used (at least
/// [`MIN_FITS`]).
fn timed_fits(
    out: &mut Outcome,
    budget: Duration,
    fit: impl Fn() -> ClusterRun,
    cost: impl Fn(&ClusterRun) -> Option<u64>,
) -> (ClusterRun, Vec<f64>) {
    let reference = fit();
    check_fit(out, &reference, cost(&reference), None);
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < MIN_FITS || (start.elapsed() < budget && times.len() < MAX_FITS) {
        let t = Instant::now();
        let run = std::hint::black_box(fit());
        times.push(secs(t.elapsed()));
        check_fit(out, &run, cost(&run), Some(&reference));
    }
    eprintln!(
        "# fits (s): {times:?}; {} iterations",
        reference.summary.n_iterations()
    );
    (reference, times)
}

fn finish_untraced(out: &mut Outcome, setup: &[f64], fits: &[f64], run: &ClusterRun, planted: f64) {
    eprintln!("# setup (s): {setup:?}");
    let cost = run.summary.best_cost().unwrap_or(0) as f64;
    eprintln!("# fit cost {cost}, planted partition cost {planted}");
    out.metrics
        .insert("setup_s", median(setup).unwrap_or(f64::NAN));
    out.metrics
        .insert("work_s", median(fits).unwrap_or(f64::NAN));
    out.metrics.insert("cost_ratio", cost / planted);
    out.metrics.insert("peak_rss_mb", self_peak_rss());
}

fn categorical_untraced(csv: &Path, budget: Duration, planted: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (data, setup) = encode_reps(None, || read_categorical(csv))?;
    let clusterer = Clusterer::new(categorical_spec());
    let fit = || clusterer.fit(&data).expect("categorical fit");
    let (reference, fits) = timed_fits(&mut out, budget, fit, |r| categorical_cost(&data, r));
    finish_untraced(&mut out, &setup, &fits, &reference, planted);
    Ok(out)
}

fn mixed_untraced(csv: &Path, budget: Duration, planted: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let ((cat, num), setup) = encode_reps(None, || read_mixed(csv))?;
    let data = MixedDataset::new(&cat, &num);
    let clusterer = Clusterer::new(mixed_spec());
    let fit = || clusterer.fit(&data).expect("mixed fit");
    let (reference, fits) = timed_fits(&mut out, budget, fit, |r| mixed_cost(&data, r));
    finish_untraced(&mut out, &setup, &fits, &reference, planted);
    Ok(out)
}

// ---- traced decompositions -------------------------------------------------

/// Delegates to the wrapped model, timing centroid updates and cost
/// evaluations (the per-item distance calls are too fine to span).
struct TimedModel<'a> {
    inner: KModesModel<'a>,
    log: Mutex<Vec<(&'static str, Instant, Instant)>>,
}

impl TimedModel<'_> {
    fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let end = Instant::now();
        self.log
            .lock()
            .expect("span log is never poisoned")
            .push((name, t, end));
        out
    }
}

impl CentroidModel for TimedModel<'_> {
    type Snapshot = <KModesModel<'static> as CentroidModel>::Snapshot;

    fn k(&self) -> usize {
        self.inner.k()
    }
    fn n_items(&self) -> usize {
        self.inner.n_items()
    }
    fn best_full(&self, item: u32) -> (ClusterId, f64) {
        self.inner.best_full(item)
    }
    fn best_among(&self, item: u32, candidates: &[ClusterId]) -> Option<(ClusterId, f64)> {
        self.inner.best_among(item, candidates)
    }
    fn update_centroids(&mut self, assignments: &[ClusterId]) -> ActivitySet {
        let t = Instant::now();
        let out = self.inner.update_centroids(assignments);
        let log = self.log.get_mut().expect("span log is never poisoned");
        log.push(("kmodes.update", t, Instant::now()));
        out
    }
    fn update_centroids_parallel(
        &mut self,
        assignments: &[ClusterId],
        threads: usize,
    ) -> ActivitySet {
        let t = Instant::now();
        let out = self.inner.update_centroids_parallel(assignments, threads);
        let log = self.log.get_mut().expect("span log is never poisoned");
        log.push(("kmodes.update", t, Instant::now()));
        out
    }
    fn snapshot_centroids(&self) -> Self::Snapshot {
        self.inner.snapshot_centroids()
    }
    fn restore_centroids(&mut self, snapshot: Self::Snapshot) {
        self.inner.restore_centroids(snapshot)
    }
    fn total_cost(&self, assignments: &[ClusterId]) -> f64 {
        self.timed("core.cost", || self.inner.total_cost(assignments))
    }
}

/// Query and candidate counts, summed over every worker's scratch.
#[derive(Default)]
struct Counts {
    queries: AtomicU64,
    candidates: AtomicU64,
}

/// A worker's scratch plus its private counts, flushed once when the
/// engine drops it at the end of a pass.
struct CountingScratch {
    inner: ShortlistScratch,
    queries: u64,
    candidates: u64,
    sink: Arc<Counts>,
}

impl Drop for CountingScratch {
    fn drop(&mut self) {
        self.sink.queries.fetch_add(self.queries, Ordering::Relaxed);
        self.sink
            .candidates
            .fetch_add(self.candidates, Ordering::Relaxed);
    }
}

/// Delegates to the MinHash provider, counting shortlist queries and the
/// candidates they return.
struct CountingProvider {
    inner: MinHashProvider,
    counts: Arc<Counts>,
}

impl ShortlistProvider for CountingProvider {
    fn shortlist(&mut self, item: u32, out: &mut Vec<ClusterId>) {
        self.inner.shortlist(item, out);
        self.counts.queries.fetch_add(1, Ordering::Relaxed);
        self.counts
            .candidates
            .fetch_add(out.len() as u64, Ordering::Relaxed);
    }
    fn record_assignment(&mut self, item: u32, cluster: ClusterId) {
        self.inner.record_assignment(item, cluster)
    }
}

impl SyncShortlistProvider for CountingProvider {
    type Scratch = CountingScratch;

    fn make_scratch(&self) -> CountingScratch {
        CountingScratch {
            inner: self.inner.make_scratch(),
            queries: 0,
            candidates: 0,
            sink: Arc::clone(&self.counts),
        }
    }
    fn shortlist_into(&self, item: u32, scratch: &mut CountingScratch, out: &mut Vec<ClusterId>) {
        self.inner.shortlist_into(item, &mut scratch.inner, out);
        scratch.queries += 1;
        scratch.candidates += out.len() as u64;
    }
}

/// The facade's lowering of `categorical_spec()` onto the core estimator.
fn core_config(spec: &ClusterSpec) -> MhKModesConfig {
    let Lsh::MinHash { bands, rows } = spec.lsh else {
        unreachable!("the categorical workload uses MinHash");
    };
    MhKModesConfig {
        k: spec.k,
        banding: Banding::new(bands, rows),
        stop: spec.stop,
        init: InitMethod::RandomItems,
        seed: spec.seed,
        query_mode: spec.query_mode.into(),
        include_self: spec.include_self,
        threads: spec.threads.max(1),
        closures: spec.closures,
        interleaved: spec.interleaved,
    }
}

/// Times one call; the result is dropped by the caller, outside the timing.
fn wall<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = std::hint::black_box(f());
    (out, secs(t.elapsed()))
}

/// Walls of the untraced core call, the facade fit and the traced
/// decomposition, interleaved round by round so drift hits all three alike.
#[derive(Default)]
struct Walls {
    core: Vec<f64>,
    traced: Vec<f64>,
    /// Per call: wall time minus the run's own reported total time (set-up
    /// plus iterations), i.e. the time spent outside the fit's timers.
    core_outside: Vec<f64>,
    facade_outside: Vec<f64>,
}

impl Walls {
    fn untraced(&mut self, core: (f64, &RunSummary), facade: (f64, &RunSummary)) {
        self.core.push(core.0);
        self.core_outside.push(core.0 - secs(core.1.total_time()));
        self.facade_outside
            .push(facade.0 - secs(facade.1.total_time()));
    }

    /// Records the facade's own time and the traced-vs-untraced gap. The
    /// facade's time is taken within each call (its wall minus the run's
    /// reported time, less the same for the bare core call), so it does not
    /// drown in the run-to-run noise of two separate fits.
    fn report(&self, out: &mut Outcome) {
        let med = |v: &[f64]| median(v).expect("PAIRED_ROUNDS > 0");
        eprintln!(
            "# core {:?}, traced {:?}; outside the fit's timers: core {:?}, facade {:?}",
            self.core, self.traced, self.core_outside, self.facade_outside
        );
        out.metrics.insert(
            "lshclust.facade_s",
            med(&self.facade_outside) - med(&self.core_outside),
        );
        out.metrics.insert(
            "harness.trace_overhead_frac",
            med(&self.traced) / med(&self.core) - 1.0,
        );
    }
}

/// What one traced categorical decomposition produced.
struct Decomposed {
    run: AcceleratedRun,
    modes: Modes,
    index_stats: IndexStats,
    full_pass_evals: usize,
    queries: u64,
    candidates: u64,
    root: usize,
    parallel_fit: usize,
}

/// `MhKModes::fit_from`, step by step, each step a span under a `fit` root.
fn decompose_categorical(data: &Dataset, cfg: &MhKModesConfig, tracer: &mut Tracer) -> Decomposed {
    let threads = cfg.threads;
    let root = tracer.begin("fit");
    let root_start = Instant::now();
    let modes = tracer.time("kmodes.init", || {
        initial_modes(data, cfg.k, cfg.init, cfg.seed)
    });
    let mut assignments = vec![ClusterId(0); data.n_items()];
    let mut model = KModesModel::new(data, modes);
    let full = tracer.time("core.full_pass", || {
        assign_full_parallel(&model, &mut assignments, threads)
    });
    tracer.time("kmodes.update", || {
        model.update_centroids_parallel(&assignments, threads)
    });
    // The item index is seeded apart from initialisation, as the estimator
    // does.
    let builder = LshIndexBuilder::new(cfg.banding)
        .seed(cfg.seed ^ 0x4d48_4b4d)
        .mode(cfg.query_mode);
    let keys = tracer.time("minhash.hash", || {
        hash_band_keys_parallel(&builder, data, threads)
    });
    let index = tracer.time("minhash.index_build", || {
        builder.build_from_band_keys(keys, &assignments)
    });
    let index_stats = index.stats();
    let counts = Arc::new(Counts::default());
    let mut provider = CountingProvider {
        inner: MinHashProvider::new(index, cfg.k, cfg.include_self),
        counts: Arc::clone(&counts),
    };
    let mut model = TimedModel {
        inner: model,
        log: Mutex::new(Vec::new()),
    };
    let setup = root_start.elapsed();
    let pf = tracer.begin("core.parallel_fit");
    let run = parallel_fit(
        &mut model,
        &mut provider,
        assignments,
        setup,
        &cfg.stop,
        threads,
        cfg.closures,
        cfg.interleaved,
    );
    tracer.end(pf);
    // The estimator frees its index before returning; so does this.
    tracer.time("minhash.index_drop", || drop(provider));
    let log = model.log.into_inner().expect("span log is never poisoned");
    let modes = model.inner.into_modes();
    tracer.end(root);
    for (name, s, e) in log {
        tracer.add(name, s, e, Some(pf), None);
    }
    Decomposed {
        run,
        modes,
        index_stats,
        full_pass_evals: full.shortlist_total,
        queries: counts.queries.load(Ordering::Relaxed),
        candidates: counts.candidates.load(Ordering::Relaxed),
        root,
        parallel_fit: pf,
    }
}

fn categorical_traced(csv: &Path, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (data, ingest) = encode_reps(Some(tracer), || read_categorical(csv))?;
    out.metrics
        .insert("categorical.ingest_s", median(&ingest).unwrap_or(f64::NAN));
    out.metrics
        .insert("categorical.dict_values", dict_values(&data) as f64);
    let spec = categorical_spec();
    let clusterer = Clusterer::new(spec.clone());
    // Warm-up; also the reference every decomposition must reproduce.
    let reference = clusterer.fit(&data).expect("categorical fit");
    check_fit(
        &mut out,
        &reference,
        categorical_cost(&data, &reference),
        None,
    );
    let cfg = core_config(&spec);
    let mut walls = Walls::default();
    let mut last = None;
    for round in 0..PAIRED_ROUNDS {
        let (bare, core_s) = wall(|| MhKModes::new(cfg.clone()).fit(&data));
        let (facade, facade_s) = wall(|| clusterer.fit(&data).expect("categorical fit"));
        walls.untraced((core_s, &bare.summary), (facade_s, &facade.summary));
        drop((bare, facade));
        // Only the last round's spans are kept.
        let mut scratch = Tracer::new();
        let tr = if round + 1 == PAIRED_ROUNDS {
            &mut *tracer
        } else {
            &mut scratch
        };
        let d = decompose_categorical(&data, &cfg, tr);
        walls.traced.push(tr.spans()[d.root].secs());
        let same = d.run.assignments == reference.assignments
            && Some(&d.modes) == reference.centroids.modes()
            && d.run.summary.best_cost() == reference.summary.best_cost();
        out.check(same, || {
            "the traced decomposition differs from Clusterer::fit".to_owned()
        });
        last = Some(d);
    }
    walls.report(&mut out);
    let d = last.expect("PAIRED_ROUNDS > 0");

    let self_times = tracer.self_times();
    let n = data.n_items() as f64;
    let summary = &d.run.summary;
    let iterations = summary.n_iterations();
    let per_item = if d.queries > 0 {
        d.candidates as f64 / d.queries as f64
    } else {
        0.0
    };
    let moves: usize = summary.iterations.iter().map(|s| s.moves).sum();
    let m = &mut out.metrics;
    m.insert("kmodes.init_s", tracer.total("kmodes.init"));
    m.insert("core.full_pass_s", tracer.total("core.full_pass"));
    m.insert("core.full_pass_evals", d.full_pass_evals as f64);
    m.insert("minhash.hash_s", tracer.total("minhash.hash"));
    m.insert("minhash.index_build_s", tracer.total("minhash.index_build"));
    m.insert("minhash.index_drop_s", tracer.total("minhash.index_drop"));
    m.insert("minhash.index_buckets", d.index_stats.n_buckets as f64);
    m.insert(
        "minhash.index_max_bucket",
        d.index_stats.largest_bucket as f64,
    );
    m.insert("core.iterations", iterations as f64);
    m.insert("core.assign_pass_s", self_times[d.parallel_fit]);
    m.insert("core.candidates_per_item", per_item);
    m.insert("core.shortlist_frac", per_item / cfg.k as f64);
    m.insert(
        "core.skipped_frac",
        summary.total_skipped() as f64 / (n * iterations.max(1) as f64),
    );
    m.insert("core.moves", moves as f64);
    m.insert("kmodes.update_s", tracer.total("kmodes.update"));
    m.insert("core.cost_s", tracer.total("core.cost"));
    Ok(out)
}

fn mixed_traced(csv: &Path, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let ((cat, num), ingest) = encode_reps(Some(tracer), || read_mixed(csv))?;
    out.metrics
        .insert("categorical.ingest_s", median(&ingest).unwrap_or(f64::NAN));
    out.metrics
        .insert("categorical.dict_values", dict_values(&cat) as f64);
    let data = MixedDataset::new(&cat, &num);
    let spec = mixed_spec();
    let clusterer = Clusterer::new(spec.clone());
    let reference = clusterer.fit(&data).expect("mixed fit");
    check_fit(&mut out, &reference, mixed_cost(&data, &reference), None);

    // The facade's lowering: γ from Huang's heuristic, the union banding,
    // the spec's mini-batch schedule.
    let Fit::MiniBatch {
        batch_size,
        n_steps,
        refresh_every,
    } = spec.fit
    else {
        unreachable!("the mixed workload is mini-batch");
    };
    let Lsh::Union {
        bands,
        rows,
        sim_bands,
        sim_rows,
    } = spec.lsh
    else {
        unreachable!("the mixed workload uses the union scheme");
    };
    let params = MiniBatchParams {
        batch_size,
        n_steps,
        refresh_every,
        closures: spec.closures,
    };
    let lsh = UnionBands {
        banding: Banding::new(bands, rows),
        sim_bands,
        sim_rows,
    };
    let core = || {
        let gamma = suggest_gamma(&num);
        minibatch_mh_kprototypes(&data, spec.k, gamma, spec.seed, Some(lsh), &params, THREADS)
    };
    let mut walls = Walls::default();
    let mut last = None;
    for round in 0..PAIRED_ROUNDS {
        let (bare, core_s) = wall(core);
        let (facade, facade_s) = wall(|| clusterer.fit(&data).expect("mixed fit"));
        walls.untraced((core_s, &bare.summary), (facade_s, &facade.summary));
        drop((bare, facade));
        let mut scratch = Tracer::new();
        let tr = if round + 1 == PAIRED_ROUNDS {
            &mut *tracer
        } else {
            &mut scratch
        };
        let root = tr.begin("fit");
        let result = tr.time("core.minibatch", core);
        tr.end(root);
        walls.traced.push(tr.spans()[root].secs());
        let same = result.assignments == reference.assignments
            && Some(&result.prototypes) == reference.centroids.prototypes()
            && result.summary.best_cost() == reference.summary.best_cost();
        out.check(same, || {
            "the traced mini-batch call differs from Clusterer::fit".to_owned()
        });
        last = Some(result);
    }
    walls.report(&mut out);
    let result = last.expect("PAIRED_ROUNDS > 0");

    // Program-reported phases (the engine's own `MiniBatchProfile`); the
    // last summary row is the final full assignment pass.
    let p = result.profile;
    let steps = &result.summary.iterations;
    let (final_pass, batch_steps) = steps.split_last().expect("a mini-batch run has steps");
    let cand =
        batch_steps.iter().map(|s| s.avg_candidates).sum::<f64>() / batch_steps.len().max(1) as f64;
    let phases = secs(p.refresh) + secs(p.assign) + secs(p.absorb) + secs(final_pass.duration);
    eprintln!(
        "# program-reported phases cover {:.1}% of the core.minibatch span",
        100.0 * phases / tracer.total("core.minibatch")
    );
    let m = &mut out.metrics;
    m.insert("core.minibatch.refresh_s", secs(p.refresh));
    m.insert("core.minibatch.assign_s", secs(p.assign));
    m.insert("core.minibatch.absorb_s", secs(p.absorb));
    m.insert("core.minibatch.final_pass_s", secs(final_pass.duration));
    m.insert("core.minibatch.candidates_per_item", cand);
    m.insert("core.minibatch.fallbacks", p.fallbacks as f64);
    Ok(out)
}
