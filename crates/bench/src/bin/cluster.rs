//! `cluster` — command-line clustering over CSV files, through the unified
//! `lshclust` facade, with a train/serve split:
//!
//! ```text
//! cluster fit       --input data.csv --k 1000 --model model.json [options]
//! cluster predict   --model model.json --input new.csv [--output out.csv] [--threads N]
//! cluster inspect   --model model.json
//! cluster serve     --model model.json [--listen ADDR] [--allow-remote-shutdown]
//!                   [--workers N] [--max-batch N] [--flush-us N] [--fixed-flush]
//!                   [--queue-depth N] [--deadline-ms N] [--hot-keys N] [--threads N]
//!                   [--stats-every N]
//! cluster dedup     --input data.csv --threshold T [--bands B] [--rows R]
//!                   [--seed N] [--threads N] [--output FILE] [--ndjson]
//! cluster join      --input data.csv --threshold T [--max-pairs N] [--bands B]
//!                   [--rows R] [--seed N] [--threads N] [--output FILE] [--ndjson]
//! cluster hierarchy --model model.json [--bands B --rows R] [--sim-bands B]
//!                   [--sim-rows R] [--seed N] [--threads N] [--output FILE] [--ndjson]
//! cluster artifact  ls|verify|gc --dir DIR [--max-bytes N]
//! cluster shard-worker
//! ```
//!
//! `fit` trains and (optionally) saves a `FittedModel` artifact; `predict`
//! loads one and assigns unseen rows — values are re-encoded under the
//! model's training schema, so the CSV needs the same columns but may
//! contain new category values (they match nothing); `inspect` summarises a
//! saved artifact without touching any data (envelope version, content
//! hash, and byte size included — it understands both the v1 JSON and the
//! v2 binary envelope).
//!
//! `fit --cache-dir DIR` routes the fit through a content-addressed
//! `ArtifactStore`: refitting an identical `(spec, dataset)` pair is a
//! cache hit that decodes the stored model instead of fitting. `cluster
//! artifact` manages such a store: `ls` lists entries, `verify` re-hashes
//! every entry (non-zero exit if any is corrupt), `gc --max-bytes N`
//! evicts oldest-modified entries until the store fits the cap.
//!
//! `serve` runs a long-lived `ModelServer` daemon speaking newline-delimited
//! JSON over stdin/stdout — or, with `--listen ADDR`, over a socket that
//! accepts many concurrent clients (`host:port` for TCP; a filesystem path
//! for a Unix-domain socket). One request object per line:
//!
//! ```text
//!   {"predict": {"row": ["red", "large"]}, "id": 7}    categorical (strings)
//!   {"predict": {"point": [0.5, 1.5]}}                 numeric
//!   {"predict": {"row": [...], "point": [...]}}        mixed
//!   {"predict": {...}, "deadline_ms": 5}               per-request deadline (0 = none)
//!   {"reload": "model.json"}                           hot reload (control line)
//!   {"stats": true}                                    server introspection
//!   {"shutdown": true}                                 drain + exit (EOF works too)
//! ```
//!
//! `shutdown` stops the whole daemon, so a `--listen` address that is not
//! loopback refuses it (answering `err`) unless `--allow-remote-shutdown`
//! is given — an exposed TCP listener must not hand every network peer an
//! unauthenticated kill switch. Stdin, Unix-socket, and loopback fronts
//! always honor it.
//!
//! and one response per line, in request order: `{"id": 7, "ok": {"cluster":
//! 3, "generation": 0}}` or `{"id": 7, "err": "..."}`. `reload` swaps the
//! model without dropping queued requests — the control-line equivalent of a
//! SIGHUP — and bumps the `generation` every response carries (which also
//! invalidates the server's hot-key prediction cache; size it with
//! `--hot-keys N`, 0 to disable). `--deadline-ms N` sets the default
//! per-request deadline; requests still queued when it lapses resolve
//! `err` without being scored. `--fixed-flush` pins the coalescing window
//! to `--flush-us` instead of the default load-adaptive window. The
//! protocol itself lives in `lshclust::serve::proto`; the socket front in
//! `lshclust::serve::socket`.
//!
//! `--stats-every N` additionally pushes the `{"stats"}` payload as an
//! unsolicited NDJSON line after every N predict requests, so dashboards
//! tail the stream instead of polling; off by default (`0`).
//!
//! `dedup` and `join` run the similarity workloads of `lshclust::sim` over a
//! categorical CSV: MinHash bucket collisions nominate candidate pairs and
//! the exact matching distance verifies each one against `--threshold`, so
//! every emitted pair is a true pair (precision 1.0 by construction — the
//! index can only *miss* pairs). `dedup` groups the verified pairs into
//! duplicate components; `join` emits all pairs closest-first (capped by
//! `--max-pairs`). Both write `a,b,distance` CSV (`--output`, default
//! stdout) or, with `--ndjson`, the full report as one JSON line.
//! `hierarchy` merges a fitted model's k centroids bottom-up into a
//! dendrogram (`merge,a,b,height` CSV or JSON) — exact full pair search by
//! default, LSH-shortlisted when `--bands` is given. All three are
//! byte-identical at any `--threads` count.
//!
//! `shard-worker` turns the process into one shard of a partitioned fit: a
//! blocking NDJSON loop over stdin/stdout speaking the partial-update
//! protocol of `lshclust::shard` (see `docs/ARCHITECTURE.md § Sharded
//! fitting`). It is spawned by a coordinating `cluster fit --shards S
//! --worker-cmd "cluster shard-worker"` — one process per shard — and never
//! invoked by hand.
//!
//! Shared `fit` options:
//!
//! ```text
//!   --input FILE      input CSV (header; optional trailing __label column)
//!   --output FILE     write per-item cluster ids as CSV (default: stdout summary only)
//!   --k N             number of clusters (required unless --spec sets it)
//!   --bands B         LSH bands (default 20; 0 = run the exact baseline)
//!   --rows R          LSH rows per band (default 5)
//!   --max-iter N      iteration cap (default 100)
//!   --seed N          random seed (default 0)
//!   --threads N       assignment threads (default 1 = paper-faithful serial;
//!                     > 1 = Jacobi parallel passes, all families; 0 clamps to 1)
//!   --batch-size N    switch to mini-batch fitting with N items per step
//!                     (default 256 when omitted but another mini-batch flag
//!                     is present)
//!   --steps N         mini-batch steps (default: 10·k/batch, min 50)
//!   --refresh-every N rebuild the centroid shortlist index every N steps
//!                     (default 8; only useful with LSH). Any of these three
//!                     flags switches the fit discipline to mini-batch.
//!   --shards N        partition the fit across N shards (byte-identical to
//!                     --shards 1 at --threads > 1; requires LSH)
//!   --no-closures     disable cluster-closure incremental re-assignment and
//!                     re-evaluate every item each pass (results are
//!                     byte-identical either way; this is the escape hatch)
//!   --worker-cmd CMD  run each shard in its own process spawned from CMD
//!                     (typically "cluster shard-worker"); in-process without
//!   --spec FILE       read a full ClusterSpec as JSON (overrides the flags above)
//!   --warm-start FILE resume fitting from a saved model's centroids
//!   --model FILE      save the trained model artifact (v1 JSON by default)
//!   --v2              write --model as the v2 flat binary envelope instead
//!   --cache-dir DIR   fit through the content-addressed artifact store at DIR
//!                     (identical spec+dataset refits become cache hits)
//!   --dump-spec       print the effective spec as JSON and exit
//!   --json FILE       write the run report (RunReport) as JSON
//!   --quiet           suppress per-iteration progress
//! ```
//!
//! Invoking with flags directly (`cluster --input … --k …`) still works and
//! behaves as `fit`.

use lshclust::{ClusterSpec, Clusterer, Fit, FittedModel, Lsh, RunSummary, Sim, SimSpec};
use lshclust_categorical::io::read_csv;
use lshclust_categorical::{AttrId, Dataset, ValueId, NOT_PRESENT};
use lshclust_metrics::{normalized_mutual_information, purity};
use std::io::Write;
use std::process::ExitCode;

struct FitArgs {
    input: String,
    output: Option<String>,
    k: Option<usize>,
    bands: u32,
    rows: u32,
    max_iter: usize,
    seed: u64,
    threads: usize,
    batch_size: Option<usize>,
    steps: Option<usize>,
    refresh_every: Option<usize>,
    shards: Option<usize>,
    /// Disable cluster-closure incremental re-assignment (`--no-closures`).
    no_closures: bool,
    worker_cmd: Option<String>,
    spec_file: Option<String>,
    warm_start: Option<String>,
    model: Option<String>,
    /// Write `--model` as the v2 flat binary envelope instead of v1 JSON.
    v2: bool,
    /// Root of a content-addressed `ArtifactStore` to fit through.
    cache_dir: Option<String>,
    dump_spec: bool,
    json: Option<String>,
    quiet: bool,
}

/// `cluster artifact` — management verbs over an `ArtifactStore` root.
enum ArtifactCmd {
    Ls,
    Verify,
    Gc { max_bytes: u64 },
}

struct ArtifactArgs {
    dir: String,
    cmd: ArtifactCmd,
}

struct PredictArgs {
    model: String,
    input: String,
    output: Option<String>,
    /// Overrides the model's serving thread count for this batch.
    threads: Option<usize>,
    quiet: bool,
}

struct ServeArgs {
    model: String,
    /// Pool/queue shape; flags overlay `ServerConfig::default()` so the CLI
    /// and the library can never drift apart on defaults.
    config: lshclust::ServerConfig,
    /// Overrides the model's per-batch fan-out thread count (applied to the
    /// initial load *and* re-applied on every hot reload).
    threads: Option<usize>,
    /// Socket to listen on (`host:port` for TCP, a path for Unix domain);
    /// absent = the single-client stdin/stdout loop.
    listen: Option<String>,
    /// Honor `{"shutdown": true}` even on a non-loopback TCP listener.
    /// Off by default: an exposed listener must not give every peer on the
    /// network an unauthenticated kill switch.
    allow_remote_shutdown: bool,
    /// Push the `{"stats"}` payload as an unsolicited NDJSON line after
    /// every N predict requests (0 = off, the default).
    stats_every: u64,
}

/// Shared grammar of `cluster dedup` and `cluster join` (the only
/// difference: `--max-pairs` is join-only).
struct SimArgs {
    input: String,
    threshold: f64,
    bands: u32,
    rows: u32,
    seed: u64,
    threads: usize,
    /// Join output cap (rejected by `dedup`).
    max_pairs: Option<usize>,
    /// Pairs CSV destination; absent = stdout.
    output: Option<String>,
    /// Emit the full report as one JSON line instead of CSV.
    ndjson: bool,
    quiet: bool,
}

struct HierarchyArgs {
    model: String,
    /// `0` (the default) selects the exact full pair search; any other
    /// value shortlists each merge step through the model's LSH family.
    bands: u32,
    rows: u32,
    /// SimHash half of the union scheme for mixed models.
    sim_bands: u32,
    sim_rows: u32,
    seed: u64,
    threads: usize,
    output: Option<String>,
    ndjson: bool,
}

enum Command {
    Fit(Box<FitArgs>),
    Predict(PredictArgs),
    Inspect { model: String },
    Serve(ServeArgs),
    Dedup(SimArgs),
    Join(SimArgs),
    Hierarchy(HierarchyArgs),
    Artifact(ArtifactArgs),
    ShardWorker,
}

const USAGE: &str = "usage:\n  cluster fit --input data.csv --k N [--model model.json [--v2]] [--cache-dir DIR] [--shards N [--worker-cmd CMD]] [options]\n  cluster predict --model model.json --input new.csv [--output out.csv] [--threads N]\n  cluster inspect --model model.json\n  cluster serve --model model.json [--listen ADDR] [--allow-remote-shutdown] [--workers N] [--max-batch N] [--flush-us N] [--fixed-flush] [--queue-depth N] [--deadline-ms N] [--hot-keys N] [--threads N] [--stats-every N]\n    ({\"shutdown\": true} is refused on non-loopback TCP listeners unless --allow-remote-shutdown is given)\n  cluster dedup --input data.csv --threshold T [--bands B] [--rows R] [--seed N] [--threads N] [--output FILE] [--ndjson]\n  cluster join --input data.csv --threshold T [--max-pairs N] [--bands B] [--rows R] [--seed N] [--threads N] [--output FILE] [--ndjson]\n  cluster hierarchy --model model.json [--bands B --rows R] [--sim-bands B] [--sim-rows R] [--seed N] [--threads N] [--output FILE] [--ndjson]\n  cluster artifact ls|verify|gc --dir DIR [--max-bytes N]\n  cluster shard-worker";

fn parse_sim(flags: impl IntoIterator<Item = String>, join: bool) -> Result<SimArgs, String> {
    let mut argv = flags.into_iter();
    let mut args = SimArgs {
        input: String::new(),
        threshold: f64::NAN,
        bands: 16,
        rows: 2,
        seed: 0,
        threads: 1,
        max_pairs: None,
        output: None,
        ndjson: false,
        quiet: false,
    };
    fn parse<T: std::str::FromStr>(name: &str, v: String) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        v.parse().map_err(|e| format!("{name}: {e}"))
    }
    let mut input = None;
    let mut threshold = None;
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--input" => input = Some(value("--input")?),
            "--threshold" => threshold = Some(parse("--threshold", value("--threshold")?)?),
            "--bands" => args.bands = parse("--bands", value("--bands")?)?,
            "--rows" => args.rows = parse("--rows", value("--rows")?)?,
            "--seed" => args.seed = parse("--seed", value("--seed")?)?,
            "--threads" => args.threads = parse("--threads", value("--threads")?)?,
            "--max-pairs" if join => {
                args.max_pairs = Some(parse("--max-pairs", value("--max-pairs")?)?)
            }
            "--output" => args.output = Some(value("--output")?),
            "--ndjson" => args.ndjson = true,
            "--quiet" => args.quiet = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    args.input = input.ok_or("--input is required")?;
    args.threshold = threshold.ok_or("--threshold is required")?;
    if args.threshold.is_nan() || args.threshold < 0.0 {
        return Err("--threshold must be a non-negative number".to_owned());
    }
    if args.bands == 0 {
        return Err("--bands 0 has no candidate source; dedup/join need LSH".to_owned());
    }
    args.threads = args.threads.max(1);
    Ok(args)
}

fn parse_hierarchy(flags: impl IntoIterator<Item = String>) -> Result<HierarchyArgs, String> {
    let mut argv = flags.into_iter();
    let mut args = HierarchyArgs {
        model: String::new(),
        bands: 0,
        rows: 2,
        sim_bands: 8,
        sim_rows: 8,
        seed: 0,
        threads: 1,
        output: None,
        ndjson: false,
    };
    fn parse<T: std::str::FromStr>(name: &str, v: String) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        v.parse().map_err(|e| format!("{name}: {e}"))
    }
    let mut model = None;
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--model" => model = Some(value("--model")?),
            "--bands" => args.bands = parse("--bands", value("--bands")?)?,
            "--rows" => args.rows = parse("--rows", value("--rows")?)?,
            "--sim-bands" => args.sim_bands = parse("--sim-bands", value("--sim-bands")?)?,
            "--sim-rows" => args.sim_rows = parse("--sim-rows", value("--sim-rows")?)?,
            "--seed" => args.seed = parse("--seed", value("--seed")?)?,
            "--threads" => args.threads = parse("--threads", value("--threads")?)?,
            "--output" => args.output = Some(value("--output")?),
            "--ndjson" => args.ndjson = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    args.model = model.ok_or("--model is required")?;
    args.threads = args.threads.max(1);
    Ok(args)
}

fn parse_artifact(flags: impl IntoIterator<Item = String>) -> Result<ArtifactArgs, String> {
    let mut argv = flags.into_iter();
    let verb = argv.next().ok_or("artifact needs a verb: ls, verify, gc")?;
    let mut dir = None;
    let mut max_bytes = None;
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--dir" => dir = Some(value("--dir")?),
            "--max-bytes" => {
                max_bytes = Some(
                    value("--max-bytes")?
                        .parse()
                        .map_err(|e| format!("--max-bytes: {e}"))?,
                )
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let cmd = match verb.as_str() {
        "ls" => ArtifactCmd::Ls,
        "verify" => ArtifactCmd::Verify,
        "gc" => ArtifactCmd::Gc {
            max_bytes: max_bytes.ok_or("gc requires --max-bytes")?,
        },
        other => return Err(format!("unknown artifact verb `{other}`")),
    };
    if !matches!(cmd, ArtifactCmd::Gc { .. }) && max_bytes.is_some() {
        return Err("--max-bytes only applies to gc".to_owned());
    }
    Ok(ArtifactArgs {
        dir: dir.ok_or("--dir is required")?,
        cmd,
    })
}

fn parse_predict(flags: impl IntoIterator<Item = String>) -> Result<PredictArgs, String> {
    let mut argv = flags.into_iter();
    let mut model = None;
    let mut input = None;
    let mut output = None;
    let mut threads = None;
    let mut quiet = false;
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--model" => model = Some(value("--model")?),
            "--input" => input = Some(value("--input")?),
            "--output" => output = Some(value("--output")?),
            "--threads" => {
                threads = Some(
                    value("--threads")?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?,
                )
            }
            "--quiet" => quiet = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(PredictArgs {
        model: model.ok_or("--model is required")?,
        input: input.ok_or("--input is required")?,
        output,
        threads,
        quiet,
    })
}

fn parse_serve(flags: impl IntoIterator<Item = String>) -> Result<ServeArgs, String> {
    let mut argv = flags.into_iter();
    let mut args = ServeArgs {
        model: String::new(),
        config: lshclust::ServerConfig::default(),
        threads: None,
        listen: None,
        allow_remote_shutdown: false,
        stats_every: 0,
    };
    fn parse<T: std::str::FromStr>(name: &str, v: String) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        v.parse().map_err(|e| format!("{name}: {e}"))
    }
    let mut model = None;
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--model" => model = Some(value("--model")?),
            "--workers" => {
                args.config.workers = parse("--workers", value("--workers")?)?;
            }
            "--max-batch" => {
                args.config.max_batch = parse("--max-batch", value("--max-batch")?)?;
            }
            "--flush-us" => {
                let us: u64 = parse("--flush-us", value("--flush-us")?)?;
                args.config.flush_latency = std::time::Duration::from_micros(us);
            }
            "--queue-depth" => {
                args.config.queue_depth = parse("--queue-depth", value("--queue-depth")?)?;
            }
            "--deadline-ms" => {
                // Same convention as the protocol's `deadline_ms`: 0 = none.
                let ms: u64 = parse("--deadline-ms", value("--deadline-ms")?)?;
                args.config.default_deadline =
                    (ms > 0).then(|| std::time::Duration::from_millis(ms));
            }
            "--fixed-flush" => args.config.adaptive_flush = false,
            "--hot-keys" => {
                args.config.hot_keys = parse("--hot-keys", value("--hot-keys")?)?;
            }
            "--listen" => args.listen = Some(value("--listen")?),
            "--allow-remote-shutdown" => args.allow_remote_shutdown = true,
            "--stats-every" => {
                args.stats_every = parse("--stats-every", value("--stats-every")?)?;
            }
            "--threads" => args.threads = Some(parse("--threads", value("--threads")?)?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    args.model = model.ok_or("--model is required")?;
    Ok(args)
}

fn parse_command() -> Result<Command, String> {
    let mut argv = std::env::args();
    let _ = argv.next(); // program name
    match argv.next().as_deref() {
        Some("fit") => Ok(Command::Fit(Box::new(parse_fit(argv)?))),
        Some("predict") => Ok(Command::Predict(parse_predict(argv)?)),
        Some("serve") => Ok(Command::Serve(parse_serve(argv)?)),
        Some("dedup") => Ok(Command::Dedup(parse_sim(argv, false)?)),
        Some("join") => Ok(Command::Join(parse_sim(argv, true)?)),
        Some("hierarchy") => Ok(Command::Hierarchy(parse_hierarchy(argv)?)),
        Some("artifact") => Ok(Command::Artifact(parse_artifact(argv)?)),
        Some("shard-worker") => match argv.next() {
            None => Ok(Command::ShardWorker),
            Some(other) => Err(format!("shard-worker takes no arguments, got {other}")),
        },
        Some("inspect") => {
            let mut model = None;
            while let Some(arg) = argv.next() {
                match arg.as_str() {
                    "--model" => model = argv.next(),
                    other => return Err(format!("unknown argument {other}")),
                }
            }
            Ok(Command::Inspect {
                model: model.ok_or("--model is required")?,
            })
        }
        // Legacy invocation: bare flags behave as `fit`.
        Some(flag) if flag.starts_with("--") => {
            let flags = std::iter::once(flag.to_owned()).chain(argv);
            parse_fit(flags).map(|args| Command::Fit(Box::new(args)))
        }
        Some(other) => Err(format!("unknown command `{other}`")),
        None => Err("no command given".to_owned()),
    }
}

/// Parses the `fit` grammar over any flag stream (subcommand or legacy).
fn parse_fit(flags: impl IntoIterator<Item = String>) -> Result<FitArgs, String> {
    let mut it = flags.into_iter();
    let mut args = FitArgs {
        input: String::new(),
        output: None,
        k: None,
        bands: 20,
        rows: 5,
        max_iter: 100,
        seed: 0,
        threads: 1,
        batch_size: None,
        steps: None,
        refresh_every: None,
        shards: None,
        no_closures: false,
        worker_cmd: None,
        spec_file: None,
        warm_start: None,
        model: None,
        v2: false,
        cache_dir: None,
        dump_spec: false,
        json: None,
        quiet: false,
    };
    let mut input = None;
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--input" => input = Some(value("--input")?),
            "--output" => args.output = Some(value("--output")?),
            "--k" => args.k = Some(value("--k")?.parse().map_err(|e| format!("--k: {e}"))?),
            "--bands" => {
                args.bands = value("--bands")?
                    .parse()
                    .map_err(|e| format!("--bands: {e}"))?
            }
            "--rows" => {
                args.rows = value("--rows")?
                    .parse()
                    .map_err(|e| format!("--rows: {e}"))?
            }
            "--max-iter" => {
                args.max_iter = value("--max-iter")?
                    .parse()
                    .map_err(|e| format!("--max-iter: {e}"))?
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--threads" => {
                args.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--batch-size" => {
                args.batch_size = Some(
                    value("--batch-size")?
                        .parse()
                        .map_err(|e| format!("--batch-size: {e}"))?,
                )
            }
            "--steps" => {
                args.steps = Some(
                    value("--steps")?
                        .parse()
                        .map_err(|e| format!("--steps: {e}"))?,
                )
            }
            "--refresh-every" => {
                args.refresh_every = Some(
                    value("--refresh-every")?
                        .parse()
                        .map_err(|e| format!("--refresh-every: {e}"))?,
                )
            }
            "--shards" => {
                args.shards = Some(
                    value("--shards")?
                        .parse()
                        .map_err(|e| format!("--shards: {e}"))?,
                )
            }
            "--no-closures" => args.no_closures = true,
            "--worker-cmd" => args.worker_cmd = Some(value("--worker-cmd")?),
            "--spec" => args.spec_file = Some(value("--spec")?),
            "--warm-start" => args.warm_start = Some(value("--warm-start")?),
            "--model" => args.model = Some(value("--model")?),
            "--v2" => args.v2 = true,
            "--cache-dir" => args.cache_dir = Some(value("--cache-dir")?),
            "--dump-spec" => args.dump_spec = true,
            "--json" => args.json = Some(value("--json")?),
            "--quiet" => args.quiet = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(input) = input {
        args.input = input;
    } else if !args.dump_spec {
        return Err("--input is required".to_owned());
    }
    args.threads = args.threads.max(1);
    Ok(args)
}

/// The effective spec: either `--spec FILE` JSON verbatim, or assembled from
/// the individual flags (`--bands 0` selects the exact baseline).
fn build_spec(args: &FitArgs) -> Result<ClusterSpec, String> {
    if let Some(path) = &args.spec_file {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let mut spec: ClusterSpec =
            serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
        // An explicit --shards flag overrides the file, like nothing else
        // does: the smoke workflow runs one committed spec at several shard
        // counts. --no-closures gets the same treatment — it is the runtime
        // escape hatch and must work against committed specs.
        if let Some(shards) = args.shards {
            spec = spec.shards(shards);
        }
        if args.no_closures {
            spec = spec.closures(false);
        }
        return Ok(spec);
    }
    let k = args.k.ok_or("--k is required (or provide --spec)")?;
    let lsh = if args.bands == 0 {
        Lsh::None
    } else {
        Lsh::MinHash {
            bands: args.bands,
            rows: args.rows,
        }
    };
    let mut spec = ClusterSpec::new(k)
        .lsh(lsh)
        .seed(args.seed)
        .threads(args.threads)
        .shards(args.shards.unwrap_or(1))
        .closures(!args.no_closures)
        .max_iterations(args.max_iter);
    // Any mini-batch flag flips the fit discipline; unset knobs fall back
    // to the batch-256 default and the 10·k/batch step heuristic.
    if args.batch_size.is_some() || args.steps.is_some() || args.refresh_every.is_some() {
        let batch_size = args.batch_size.unwrap_or(256);
        let Fit::MiniBatch { n_steps, .. } = Fit::mini_batch(k, batch_size) else {
            unreachable!("Fit::mini_batch builds the MiniBatch variant");
        };
        spec = spec.fit(Fit::MiniBatch {
            batch_size,
            n_steps: args.steps.unwrap_or(n_steps),
            refresh_every: args.refresh_every.unwrap_or(8),
        });
    }
    Ok(spec)
}

fn report(summary: &RunSummary, n_items: usize, quiet: bool) {
    if !quiet {
        for s in &summary.iterations {
            eprintln!(
                "iter {:>3}: {:>8.3}s  {:>8} moves  avg shortlist {:>10.2}  cost {}  skipped {:>5.1}%",
                s.iteration,
                s.duration.as_secs_f64(),
                s.moves,
                s.avg_candidates,
                s.cost,
                s.skipped_items as f64 / n_items.max(1) as f64 * 100.0,
            );
        }
    }
    eprintln!(
        "{} iterations, converged: {}, setup {:.3}s, total {:.3}s",
        summary.n_iterations(),
        summary.converged,
        summary.setup.as_secs_f64(),
        summary.total_time().as_secs_f64()
    );
}

fn load_csv(path: &str) -> Result<Dataset, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    read_csv(std::io::BufReader::new(file)).map_err(|e| format!("{path}: {e}"))
}

fn write_assignments(path: &str, assignments: &[u32]) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    let mut out = std::io::BufWriter::new(file);
    let io = |e: std::io::Error| format!("cannot write {path}: {e}");
    writeln!(out, "item,cluster").map_err(io)?;
    for (i, c) in assignments.iter().enumerate() {
        writeln!(out, "{i},{c}").map_err(io)?;
    }
    out.flush().map_err(io)?;
    eprintln!("wrote {} assignments to {path}", assignments.len());
    Ok(())
}

fn score_against_labels(assignments: &[u32], dataset: &Dataset) {
    if let Some(labels) = dataset.labels() {
        eprintln!(
            "purity {:.4}  nmi {:.4}  (against the __label column)",
            purity(assignments, labels),
            normalized_mutual_information(assignments, labels)
        );
    }
}

fn run_fit(args: FitArgs) -> Result<(), String> {
    let spec = build_spec(&args)?;
    if args.dump_spec {
        println!(
            "{}",
            serde_json::to_string_pretty(&spec).expect("spec serializes")
        );
        return Ok(());
    }
    let dataset = load_csv(&args.input)?;
    eprintln!(
        "{}: {} items x {} attrs{}",
        args.input,
        dataset.n_items(),
        dataset.n_attrs(),
        if dataset.labels().is_some() {
            " (labelled)"
        } else {
            ""
        }
    );
    eprintln!(
        "running {}{} (k={}, seed={}{}) ...",
        match spec.lsh {
            Lsh::None => "K-Modes (full search)".to_owned(),
            Lsh::MinHash { bands, rows } => format!("MH-K-Modes ({bands}b{rows}r)"),
            other => format!("Lsh::{}", other.name()),
        },
        match spec.fit {
            Fit::Full => String::new(),
            Fit::MiniBatch {
                batch_size,
                n_steps,
                ..
            } => format!(", mini-batch {n_steps}x{batch_size}"),
        },
        spec.k,
        spec.seed,
        if args.warm_start.is_some() {
            ", warm start"
        } else {
            ""
        },
    );
    if spec.shards > 1 {
        eprintln!(
            "sharded fit: {} shards, {}",
            spec.shards,
            match &args.worker_cmd {
                Some(cmd) => format!("one `{cmd}` process each"),
                None => "in-process".to_owned(),
            }
        );
    }

    let (model, assignments, run) = match &args.cache_dir {
        Some(dir) => {
            if args.warm_start.is_some() || args.worker_cmd.is_some() {
                return Err(
                    "--cache-dir cannot be combined with --warm-start or --worker-cmd".to_owned(),
                );
            }
            let store = lshclust::ArtifactStore::open(dir).map_err(|e| e.to_string())?;
            let cached = store
                .fit_or_get(&spec, &dataset)
                .map_err(|e| e.to_string())?;
            if cached.hit {
                eprintln!("artifact cache hit: model served from {dir} without fitting");
            } else {
                eprintln!("artifact cache miss: fitted and stored in {dir}");
                report(
                    &cached.run.as_ref().expect("a miss carries the run").summary,
                    dataset.n_items(),
                    args.quiet,
                );
            }
            // Assignments come from the cached model's predict path on hit
            // AND miss: a converged fit's labels can break ties differently
            // from predict, and the same command must write the same
            // --output file whether or not the store already had the model.
            let assignments: Vec<u32> = cached
                .model
                .predict(&dataset)
                .map_err(|e| e.to_string())?
                .into_iter()
                .map(|c| c.0)
                .collect();
            (cached.model, assignments, cached.run)
        }
        None => {
            let mut clusterer = match &args.warm_start {
                Some(path) => {
                    let model = FittedModel::load(path).map_err(|e| format!("{path}: {e}"))?;
                    spec.warm_start(&model)
                }
                None => Clusterer::new(spec),
            };
            if let Some(cmd) = &args.worker_cmd {
                clusterer = clusterer.worker_cmd(cmd.clone());
            }
            let run = clusterer.fit(&dataset).map_err(|e| e.to_string())?;
            report(&run.summary, dataset.n_items(), args.quiet);
            let assignments = run.labels();
            let model = run.model.clone();
            (model, assignments, Some(run))
        }
    };
    score_against_labels(&assignments, &dataset);

    if let Some(path) = &args.model {
        if args.v2 {
            model.save_v2(path).map_err(|e| e.to_string())?;
        } else {
            model.save(path).map_err(|e| e.to_string())?;
        }
        eprintln!(
            "wrote model artifact ({}, k={}, {}) to {path}",
            model.modality(),
            model.k(),
            if args.v2 { "v2 binary" } else { "v1 JSON" },
        );
    }
    if let Some(path) = &args.json {
        match &run {
            Some(run) => {
                let text = serde_json::to_string_pretty(&run.report()).expect("report serializes");
                std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
                eprintln!("wrote run report to {path}");
            }
            None => eprintln!("cache hit skipped the fit, so there is no run report for --json"),
        }
    }
    if let Some(path) = &args.output {
        write_assignments(path, &assignments)?;
    }
    Ok(())
}

fn run_artifact(args: ArtifactArgs) -> Result<(), String> {
    let store = lshclust::ArtifactStore::open(&args.dir).map_err(|e| e.to_string())?;
    match args.cmd {
        ArtifactCmd::Ls => {
            let mut entries = store.entries().map_err(|e| e.to_string())?;
            entries.sort_by(|a, b| a.path.cmp(&b.path));
            let total: u64 = entries.iter().map(|e| e.bytes).sum();
            for entry in &entries {
                println!(
                    "{:>12}  {:<8}  {}",
                    entry.bytes,
                    entry.kind,
                    entry.path.display()
                );
            }
            eprintln!("{} entries, {} bytes total", entries.len(), total);
            Ok(())
        }
        ArtifactCmd::Verify => {
            let report = store.verify().map_err(|e| e.to_string())?;
            for path in &report.corrupt {
                eprintln!("corrupt: {}", path.display());
            }
            eprintln!("{} ok, {} corrupt", report.ok, report.corrupt.len());
            if report.corrupt.is_empty() {
                Ok(())
            } else {
                Err(format!(
                    "{} corrupt entr{} in {}",
                    report.corrupt.len(),
                    if report.corrupt.len() == 1 {
                        "y"
                    } else {
                        "ies"
                    },
                    args.dir
                ))
            }
        }
        ArtifactCmd::Gc { max_bytes } => {
            let report = store.gc(max_bytes).map_err(|e| e.to_string())?;
            eprintln!(
                "kept {}, evicted {}, reclaimed {} bytes",
                report.kept, report.evicted, report.reclaimed_bytes
            );
            Ok(())
        }
    }
}

fn run_predict(args: PredictArgs) -> Result<(), String> {
    let mut model = FittedModel::load(&args.model).map_err(|e| format!("{}: {e}", args.model))?;
    if let Some(threads) = args.threads {
        model.set_threads(threads);
    }
    eprintln!(
        "{}: {} model, k={}, lsh {}{}",
        args.model,
        model.modality(),
        model.k(),
        model.spec().lsh.name(),
        if model.has_index() {
            " (shortlisted)"
        } else {
            " (full search)"
        },
    );
    let dataset = load_csv(&args.input)?;
    let t = std::time::Instant::now();
    // The CSV was interned under its own dictionaries; translate its ids to
    // the *model's* training schema so they align. Both dictionaries are
    // frozen, so one per-attribute id→id table (unseen values map to
    // NOT_PRESENT and match no centroid value) translates every cell with a
    // single index — no per-row string round-trips. The translated batch
    // then goes through the batched predict path: one scratch per thread,
    // fanned over the model's configured thread count. The batch holds the
    // model's own schema, so its encoding check is a pointer comparison.
    let schema = std::sync::Arc::clone(
        model
            .shared_schema()
            .ok_or_else(|| format!("{} models cannot serve CSV rows", model.modality()))?,
    );
    if schema.n_attrs() != dataset.n_attrs() {
        return Err(format!(
            "{} has {} attributes, model expects {}",
            args.input,
            dataset.n_attrs(),
            schema.n_attrs()
        ));
    }
    let tables: Vec<Vec<ValueId>> = (0..schema.n_attrs())
        .map(|a| {
            let attr = AttrId(a as u32);
            let model_dict = schema.dictionary(attr);
            dataset
                .schema()
                .dictionary(attr)
                .iter()
                .map(|(_, name)| model_dict.get(name).unwrap_or(NOT_PRESENT))
                .collect()
        })
        .collect();
    let mut values = Vec::with_capacity(dataset.n_items() * dataset.n_attrs());
    for i in 0..dataset.n_items() {
        for (table, &v) in tables.iter().zip(dataset.row(i)) {
            values.push(if v == NOT_PRESENT {
                NOT_PRESENT
            } else {
                table[v.idx()]
            });
        }
    }
    let batch = Dataset::from_parts(schema, values, None);
    let assignments: Vec<u32> = model
        .predict(&batch)
        .map_err(|e| e.to_string())?
        .into_iter()
        .map(|c| c.0)
        .collect();
    let elapsed = t.elapsed();
    if !args.quiet {
        eprintln!(
            "assigned {} items in {:.3}s ({:.0} items/s)",
            assignments.len(),
            elapsed.as_secs_f64(),
            assignments.len() as f64 / elapsed.as_secs_f64().max(1e-9),
        );
    }
    score_against_labels(&assignments, &dataset);
    if let Some(path) = &args.output {
        write_assignments(path, &assignments)?;
    }
    Ok(())
}

fn run_inspect(path: &str) -> Result<(), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let version = FittedModel::sniff_version(&bytes);
    let model = FittedModel::from_bytes(&bytes).map_err(|e| format!("{path}: {e}"))?;
    let spec = model.spec();
    println!("artifact:  {path}");
    println!(
        "format:    {} v{} ({})",
        lshclust::MODEL_FORMAT,
        version.expect("a loadable model sniffs a version"),
        if version == Some(lshclust::MODEL_VERSION_V2) {
            "flat binary"
        } else {
            "JSON"
        }
    );
    println!("bytes:     {}", bytes.len());
    println!(
        "content:   {:016x} (fnv1a-64)",
        lshclust::artifact::content_hash(&bytes)
    );
    println!("modality:  {}", model.modality());
    println!("clusters:  {}", model.k());
    match (model.schema(), model.dim()) {
        (Some(schema), Some(dim)) => println!("shape:     {} attrs + {dim} dims", schema.n_attrs()),
        (Some(schema), None) => println!("shape:     {} attrs", schema.n_attrs()),
        (None, Some(dim)) => println!("shape:     {dim} dims"),
        (None, None) => {}
    }
    println!(
        "lsh:       {} ({})",
        spec.lsh.name(),
        if model.has_index() {
            "centroid index active"
        } else {
            "full-search serving"
        }
    );
    if let Some(gamma) = model.gamma() {
        println!("gamma:     {gamma}");
    }
    println!(
        "closures:  {}",
        if spec.closures {
            "on (incremental re-assignment)"
        } else {
            "off (exhaustive passes)"
        }
    );
    println!("seed:      {}", spec.seed);
    println!(
        "spec:      {}",
        serde_json::to_string(spec).expect("spec serializes")
    );
    Ok(())
}

// ---- similarity workloads: dedup / join / hierarchy ------------------------

/// Renders command output to `--output FILE` or stdout.
fn emit(path: Option<&String>, text: &str) -> Result<(), String> {
    match path {
        Some(path) => std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}")),
        None => {
            print!("{text}");
            std::io::stdout()
                .flush()
                .map_err(|e| format!("stdout: {e}"))
        }
    }
}

fn pairs_csv(pairs: &[lshclust::PairRecord]) -> String {
    let mut out = String::from("a,b,distance\n");
    for p in pairs {
        out.push_str(&format!("{},{},{}\n", p.a, p.b, p.distance));
    }
    out
}

fn sim_spec(args: &SimArgs) -> SimSpec {
    let mut spec = SimSpec::new(args.threshold)
        .lsh(Lsh::MinHash {
            bands: args.bands,
            rows: args.rows,
        })
        .seed(args.seed)
        .threads(args.threads);
    if let Some(cap) = args.max_pairs {
        spec = spec.max_pairs(cap);
    }
    spec
}

fn run_dedup(args: SimArgs) -> Result<(), String> {
    let dataset = load_csv(&args.input)?;
    let report = Sim::new(sim_spec(&args))
        .dedup(&dataset)
        .map_err(|e| e.to_string())?;
    if !args.quiet {
        let all = report.n_items * report.n_items.saturating_sub(1) / 2;
        eprintln!(
            "{}: {} items, {} candidate pairs (of {} total), {} verified <= {}, {} duplicates",
            args.input,
            report.n_items,
            report.candidate_pairs,
            all,
            report.pairs.len(),
            report.threshold,
            report.n_duplicates,
        );
    }
    let text = if args.ndjson {
        let mut line = serde_json::to_string(&report).expect("report serializes");
        line.push('\n');
        line
    } else {
        pairs_csv(&report.pairs)
    };
    emit(args.output.as_ref(), &text)
}

fn run_join(args: SimArgs) -> Result<(), String> {
    let dataset = load_csv(&args.input)?;
    let report = Sim::new(sim_spec(&args))
        .join(&dataset)
        .map_err(|e| e.to_string())?;
    if !args.quiet {
        eprintln!(
            "{}: {} items, {} candidate pairs, {} matched <= {}, emitting {}{}",
            args.input,
            report.n_items,
            report.candidate_pairs,
            report.matched,
            report.threshold,
            report.pairs.len(),
            if report.capped { " (capped)" } else { "" },
        );
    }
    let text = if args.ndjson {
        let mut line = serde_json::to_string(&report).expect("report serializes");
        line.push('\n');
        line
    } else {
        pairs_csv(&report.pairs)
    };
    emit(args.output.as_ref(), &text)
}

fn run_hierarchy(args: HierarchyArgs) -> Result<(), String> {
    let model = FittedModel::load(&args.model).map_err(|e| format!("{}: {e}", args.model))?;
    // `--bands 0` (the default) is the exact full pair search; otherwise the
    // scheme family follows the model's modality.
    let lsh = if args.bands == 0 {
        Lsh::None
    } else {
        match model.modality() {
            "categorical" => Lsh::MinHash {
                bands: args.bands,
                rows: args.rows,
            },
            "numeric" => Lsh::SimHash {
                bands: args.bands,
                rows: args.rows,
            },
            _ => Lsh::Union {
                bands: args.bands,
                rows: args.rows,
                sim_bands: args.sim_bands,
                sim_rows: args.sim_rows,
            },
        }
    };
    let spec = SimSpec::new(0.0)
        .lsh(lsh)
        .seed(args.seed)
        .threads(args.threads);
    let dendro = Sim::new(spec)
        .hierarchy(&model)
        .map_err(|e| e.to_string())?;
    eprintln!(
        "{}: {} model, {} leaves, {} merges ({}), {} shortlist-fallback steps",
        args.model,
        model.modality(),
        dendro.k,
        dendro.merges.len(),
        if args.bands == 0 {
            "exact full search".to_owned()
        } else {
            format!("shortlisted, {} bands", args.bands)
        },
        dendro.fallback_steps,
    );
    let text = if args.ndjson {
        let mut line = serde_json::to_string(&dendro).expect("dendrogram serializes");
        line.push('\n');
        line
    } else {
        let mut out = String::from("merge,a,b,height\n");
        for (i, m) in dendro.merges.iter().enumerate() {
            out.push_str(&format!("{},{},{},{}\n", i, m.a, m.b, m.height));
        }
        out
    };
    emit(args.output.as_ref(), &text)
}

// ---- serve: the NDJSON daemon over a ModelServer ---------------------------
//
// The protocol itself (line parsing, deadline field, ordered replies) lives
// in `lshclust::serve::proto`; the multi-client socket front in
// `lshclust::serve::socket`. This binary only wires stdin/stdout or a
// listener to them.

/// Writer waits are capped (`PredictTicket::wait_deadline`) so a wedged
/// worker pool becomes an error line instead of a daemon that can never be
/// shut down.
const SERVE_WAIT_CAP: std::time::Duration = std::time::Duration::from_secs(30);

fn run_serve(args: ServeArgs) -> Result<(), String> {
    use lshclust::serve::proto::{render_reply, LineOutcome, ProtoEngine};
    use std::io::{BufRead, Write as _};

    let mut model = FittedModel::load(&args.model).map_err(|e| format!("{}: {e}", args.model))?;
    if let Some(threads) = args.threads {
        model.set_threads(threads);
    }
    let config = args.config;
    eprintln!(
        "serving {} model (k={}) from {}: {} workers, batches of up to {} ({}us {} flush), queue {}, hot-keys {}",
        model.modality(),
        model.k(),
        args.model,
        config.workers,
        config.max_batch,
        config.flush_latency.as_micros(),
        if config.adaptive_flush {
            "adaptive"
        } else {
            "fixed"
        },
        config.queue_depth,
        config.hot_keys,
    );
    let server = std::sync::Arc::new(lshclust::ModelServer::start(model, config));
    let engine = ProtoEngine::new(std::sync::Arc::clone(&server), args.threads)
        .stats_every(args.stats_every);

    if let Some(listen) = &args.listen {
        let options = lshclust::SocketOptions::default().wait_cap(SERVE_WAIT_CAP);
        // A path (anything with a separator) means Unix domain; otherwise
        // it parses as host:port TCP.
        let socket = if listen.contains('/') {
            #[cfg(unix)]
            {
                lshclust::SocketServer::bind_unix(std::path::Path::new(listen), engine, options)
            }
            #[cfg(not(unix))]
            {
                return Err(format!(
                    "{listen}: unix-domain sockets are not available on this platform"
                ));
            }
        } else {
            // A non-loopback TCP listener is reachable by untrusted peers;
            // unless the operator opted in, refuse the protocol's shutdown
            // request there — otherwise any client could kill the daemon.
            use std::net::ToSocketAddrs as _;
            let remote_exposed = listen
                .to_socket_addrs()
                .map(|mut addrs| addrs.any(|a| !a.ip().is_loopback()))
                .unwrap_or(false);
            let engine = if remote_exposed && !args.allow_remote_shutdown {
                eprintln!(
                    "serve: {listen} is not loopback; {{\"shutdown\"}} requests will be refused \
                     (pass --allow-remote-shutdown to accept them)"
                );
                engine.allow_shutdown(false)
            } else {
                engine
            };
            lshclust::SocketServer::bind_tcp(listen, engine, options)
        }
        .map_err(|e| format!("{listen}: {e}"))?;
        // One write: stderr is unbuffered, so `eprintln!` would emit the
        // address in pieces, and a client polling the log for this line
        // could read it without its port.
        let listening = match socket.local_addr() {
            Some(addr) => format!("serve: listening on {addr}\n"),
            None => format!("serve: listening on {listen}\n"),
        };
        let _ = std::io::stderr().write_all(listening.as_bytes());
        let report = socket.wait();
        if let Ok(server) = std::sync::Arc::try_unwrap(server) {
            server.shutdown();
        }
        eprintln!(
            "serve: drained and shut down ({} connections, {} lines, {}/{} tickets resolved)",
            report.connections, report.lines, report.tickets.resolved, report.tickets.submitted,
        );
        return Ok(());
    }

    // stdin front: one printer thread keeps responses in request order —
    // tickets resolve FIFO, control lines ride the same channel.
    let (tx, rx) = std::sync::mpsc::channel();
    let printer = std::thread::spawn(move || {
        let stdout = std::io::stdout();
        for item in rx {
            let line = render_reply(item, SERVE_WAIT_CAP);
            let mut out = stdout.lock();
            let _ = writeln!(out, "{line}");
            let _ = out.flush();
        }
    });

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| format!("stdin: {e}"))?;
        match engine.handle_line(&line) {
            LineOutcome::Ignore => {}
            LineOutcome::Reply(out) => {
                let _ = tx.send(out);
                // Periodic stats push (`--stats-every`): ordered through the
                // same printer so it lands between responses, rendered when
                // the printer reaches it.
                if let Some(stats) = engine.take_due_stats() {
                    let _ = tx.send(stats);
                }
            }
            LineOutcome::Shutdown(out) => {
                let _ = tx.send(out);
                break;
            }
        }
    }
    drop(tx);
    let _ = printer.join();
    drop(engine);
    if let Ok(server) = std::sync::Arc::try_unwrap(server) {
        server.shutdown();
    }
    eprintln!("serve: drained and shut down");
    Ok(())
}

fn main() -> ExitCode {
    let command = match parse_command() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match command {
        Command::Fit(args) => run_fit(*args),
        Command::Predict(args) => run_predict(args),
        Command::Inspect { model } => run_inspect(&model),
        Command::Serve(args) => run_serve(args),
        Command::Dedup(args) => run_dedup(args),
        Command::Join(args) => run_join(args),
        Command::Hierarchy(args) => run_hierarchy(args),
        Command::Artifact(args) => run_artifact(args),
        Command::ShardWorker => {
            let stdin = std::io::stdin();
            lshclust::shard::run_worker(stdin.lock(), std::io::stdout())
                .map_err(|e| format!("shard-worker: {e}"))
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn fit_threads_flag_reaches_the_spec() {
        let args = parse_fit(flags(&["--input", "x.csv", "--k", "10", "--threads", "6"])).unwrap();
        assert_eq!(args.threads, 6);
        let spec = build_spec(&args).unwrap();
        assert_eq!(spec.threads, 6);
    }

    #[test]
    fn fit_threads_zero_clamps_to_serial() {
        let args = parse_fit(flags(&["--input", "x.csv", "--k", "10", "--threads", "0"])).unwrap();
        assert_eq!(args.threads, 1, "--threads 0 is documented as serial");
        assert_eq!(build_spec(&args).unwrap().threads, 1);
    }

    #[test]
    fn dump_spec_json_carries_threads_and_round_trips_through_spec_flag() {
        // `--dump-spec` prints exactly `build_spec(..)` as JSON; feeding that
        // JSON back through `--spec` must reproduce the spec, threads
        // included — the fit/predict thread plumbing round-trips.
        let args = parse_fit(flags(&[
            "--input",
            "x.csv",
            "--k",
            "7",
            "--bands",
            "12",
            "--rows",
            "2",
            "--threads",
            "4",
        ]))
        .unwrap();
        let spec = build_spec(&args).unwrap();
        let json = serde_json::to_string_pretty(&spec).expect("spec serializes");
        assert!(json.contains("\"threads\": 4"), "dump-spec output: {json}");

        // Per-process path: concurrent test runs sharing a temp dir must not
        // race on the spec file.
        let dir =
            std::env::temp_dir().join(format!("lshclust-cluster-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spec.json");
        std::fs::write(&path, &json).unwrap();
        let from_file = parse_fit(flags(&[
            "--input",
            "x.csv",
            "--spec",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        let restored = build_spec(&from_file).unwrap();
        assert_eq!(restored, spec);
        assert_eq!(restored.threads, 4);
    }

    #[test]
    fn minibatch_flags_flip_the_fit_discipline() {
        // No flags → Full.
        let args = parse_fit(flags(&["--input", "x.csv", "--k", "100"])).unwrap();
        assert_eq!(build_spec(&args).unwrap().fit, Fit::Full);

        // --batch-size alone derives the step heuristic from the batch.
        let args = parse_fit(flags(&[
            "--input",
            "x.csv",
            "--k",
            "100",
            "--batch-size",
            "10",
        ]))
        .unwrap();
        assert_eq!(
            build_spec(&args).unwrap().fit,
            Fit::MiniBatch {
                batch_size: 10,
                n_steps: 100, // 10·100/10
                refresh_every: 8,
            }
        );

        // --refresh-every alone also flips the discipline (the flag only
        // exists for mini-batch; dropping it silently would be a lie).
        let args = parse_fit(flags(&[
            "--input",
            "x.csv",
            "--k",
            "100",
            "--refresh-every",
            "4",
        ]))
        .unwrap();
        assert_eq!(
            build_spec(&args).unwrap().fit,
            Fit::MiniBatch {
                batch_size: 256,
                n_steps: 50, // 10·100/256 floored at 50
                refresh_every: 4,
            }
        );

        // --steps alone keeps the default batch of 256.
        let args = parse_fit(flags(&["--input", "x.csv", "--k", "100", "--steps", "33"])).unwrap();
        assert_eq!(
            build_spec(&args).unwrap().fit,
            Fit::MiniBatch {
                batch_size: 256,
                n_steps: 33,
                refresh_every: 8,
            }
        );

        // All three knobs explicit.
        let args = parse_fit(flags(&[
            "--input",
            "x.csv",
            "--k",
            "100",
            "--batch-size",
            "64",
            "--steps",
            "20",
            "--refresh-every",
            "5",
        ]))
        .unwrap();
        let spec = build_spec(&args).unwrap();
        assert_eq!(
            spec.fit,
            Fit::MiniBatch {
                batch_size: 64,
                n_steps: 20,
                refresh_every: 5,
            }
        );
        // And the discipline round-trips through --spec JSON.
        let json = serde_json::to_string(&spec).unwrap();
        let back: ClusterSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn shard_flags_reach_the_spec_and_override_spec_files() {
        // Flag-assembled specs default to unsharded.
        let args = parse_fit(flags(&["--input", "x.csv", "--k", "10"])).unwrap();
        assert_eq!(build_spec(&args).unwrap().shards, 1);

        let args = parse_fit(flags(&[
            "--input",
            "x.csv",
            "--k",
            "10",
            "--shards",
            "4",
            "--worker-cmd",
            "cluster shard-worker",
        ]))
        .unwrap();
        assert_eq!(args.worker_cmd.as_deref(), Some("cluster shard-worker"));
        let spec = build_spec(&args).unwrap();
        assert_eq!(spec.shards, 4);

        // --shards overrides a --spec file, so one committed spec can run at
        // several shard counts.
        let dir = std::env::temp_dir().join(format!(
            "lshclust-cluster-cli-shards-test-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spec.json");
        std::fs::write(&path, serde_json::to_string(&spec).unwrap()).unwrap();
        let from_file = parse_fit(flags(&[
            "--input",
            "x.csv",
            "--spec",
            path.to_str().unwrap(),
            "--shards",
            "2",
        ]))
        .unwrap();
        assert_eq!(build_spec(&from_file).unwrap().shards, 2);
    }

    #[test]
    fn no_closures_flag_reaches_the_spec_and_overrides_spec_files() {
        // Flag-assembled specs default closures on.
        let args = parse_fit(flags(&["--input", "x.csv", "--k", "10"])).unwrap();
        assert!(build_spec(&args).unwrap().closures);

        let args = parse_fit(flags(&["--input", "x.csv", "--k", "10", "--no-closures"])).unwrap();
        let spec = build_spec(&args).unwrap();
        assert!(!spec.closures);

        // --no-closures overrides a --spec file: the escape hatch must work
        // against committed specs without editing them.
        let dir = std::env::temp_dir().join(format!(
            "lshclust-cluster-cli-closures-test-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spec.json");
        let on_disk = ClusterSpec::new(10).closures(true);
        std::fs::write(&path, serde_json::to_string(&on_disk).unwrap()).unwrap();
        let from_file = parse_fit(flags(&[
            "--input",
            "x.csv",
            "--spec",
            path.to_str().unwrap(),
            "--no-closures",
        ]))
        .unwrap();
        assert!(!build_spec(&from_file).unwrap().closures);
        // Without the flag the file's setting stands.
        let from_file = parse_fit(flags(&[
            "--input",
            "x.csv",
            "--spec",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(build_spec(&from_file).unwrap().closures);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_flags_overlay_the_library_defaults() {
        let args = parse_serve(flags(&["--model", "m.json"])).unwrap();
        assert_eq!(args.config, lshclust::ServerConfig::default());
        assert_eq!(args.threads, None);
        assert_eq!(args.listen, None);
        let args = parse_serve(flags(&[
            "--model",
            "m.json",
            "--workers",
            "3",
            "--flush-us",
            "50",
            "--threads",
            "2",
        ]))
        .unwrap();
        assert_eq!(args.config.workers, 3);
        assert_eq!(args.config.flush_latency.as_micros(), 50);
        assert_eq!(
            args.config.max_batch,
            lshclust::ServerConfig::default().max_batch
        );
        assert_eq!(args.threads, Some(2));
    }

    #[test]
    fn serve_hardening_flags_parse() {
        let args = parse_serve(flags(&[
            "--model",
            "m.json",
            "--listen",
            "127.0.0.1:7777",
            "--deadline-ms",
            "250",
            "--fixed-flush",
            "--hot-keys",
            "512",
        ]))
        .unwrap();
        assert_eq!(args.listen.as_deref(), Some("127.0.0.1:7777"));
        assert_eq!(
            args.config.default_deadline,
            Some(std::time::Duration::from_millis(250))
        );
        assert!(!args.config.adaptive_flush);
        assert_eq!(args.config.hot_keys, 512);
        // Remote shutdown stays opt-in; the stats push stays off.
        assert!(!args.allow_remote_shutdown);
        assert_eq!(args.stats_every, 0);
        let pushing = parse_serve(flags(&["--model", "m.json", "--stats-every", "100"])).unwrap();
        assert_eq!(pushing.stats_every, 100);
        let opted = parse_serve(flags(&[
            "--model",
            "m.json",
            "--listen",
            "0.0.0.0:7777",
            "--allow-remote-shutdown",
        ]))
        .unwrap();
        assert!(opted.allow_remote_shutdown);

        // --deadline-ms 0 pins "no deadline", mirroring the wire field.
        let unbounded = parse_serve(flags(&["--model", "m.json", "--deadline-ms", "0"])).unwrap();
        assert_eq!(unbounded.config.default_deadline, None);
    }

    #[test]
    fn submit_with_backpressure_serves_a_pipe_larger_than_the_queue() {
        use lshclust::{Clusterer, DatasetBuilder};
        let mut b = DatasetBuilder::anonymous(2);
        for row in [["a", "b"], ["a", "c"], ["x", "y"], ["x", "z"]] {
            b.push_str_row(&row, None).unwrap();
        }
        let ds = b.finish();
        let run = Clusterer::new(ClusterSpec::new(2).seed(1))
            .fit(&ds)
            .unwrap();
        // A queue far smaller than the request stream: with backpressure the
        // single producer blocks instead of shedding, so everything serves.
        let server = lshclust::ModelServer::start(
            run.model.clone(),
            lshclust::ServerConfig::default()
                .workers(1)
                .max_batch(2)
                .queue_depth(2),
        );
        let tickets: Vec<_> = (0..100)
            .map(|i| {
                let row = ds.row(i % 4).to_vec();
                lshclust::serve::proto::submit_with_backpressure(|| server.submit_row(row.clone()))
                    .unwrap()
            })
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            let served = t.wait().unwrap();
            assert_eq!(served.cluster, run.assignments[i % 4]);
        }
        server.shutdown();
    }

    #[test]
    fn fit_persistence_flags_parse() {
        let args = parse_fit(flags(&[
            "--input",
            "x.csv",
            "--k",
            "10",
            "--model",
            "m.bin",
            "--v2",
            "--cache-dir",
            "/tmp/store",
        ]))
        .unwrap();
        assert!(args.v2);
        assert_eq!(args.cache_dir.as_deref(), Some("/tmp/store"));
        assert_eq!(args.model.as_deref(), Some("m.bin"));

        let plain = parse_fit(flags(&["--input", "x.csv", "--k", "10"])).unwrap();
        assert!(!plain.v2, "v1 JSON stays the pinned default");
        assert_eq!(plain.cache_dir, None);
    }

    #[test]
    fn artifact_verbs_parse() {
        let ls = parse_artifact(flags(&["ls", "--dir", "/tmp/store"])).unwrap();
        assert!(matches!(ls.cmd, ArtifactCmd::Ls));
        assert_eq!(ls.dir, "/tmp/store");

        let verify = parse_artifact(flags(&["verify", "--dir", "d"])).unwrap();
        assert!(matches!(verify.cmd, ArtifactCmd::Verify));

        let gc = parse_artifact(flags(&["gc", "--dir", "d", "--max-bytes", "4096"])).unwrap();
        assert!(matches!(gc.cmd, ArtifactCmd::Gc { max_bytes: 4096 }));

        assert!(parse_artifact(flags(&["gc", "--dir", "d"])).is_err());
        assert!(parse_artifact(flags(&["ls", "--dir", "d", "--max-bytes", "1"])).is_err());
        assert!(parse_artifact(flags(&["frob", "--dir", "d"])).is_err());
    }

    #[test]
    fn sim_flags_parse_and_validate() {
        let args = parse_sim(
            flags(&[
                "--input",
                "x.csv",
                "--threshold",
                "1.5",
                "--bands",
                "24",
                "--rows",
                "1",
                "--seed",
                "9",
                "--threads",
                "4",
            ]),
            false,
        )
        .unwrap();
        assert_eq!(args.threshold, 1.5);
        assert_eq!((args.bands, args.rows), (24, 1));
        assert_eq!(args.seed, 9);
        assert_eq!(args.threads, 4);
        assert_eq!(args.max_pairs, None);

        // --max-pairs is join-only.
        let join = parse_sim(
            flags(&["--input", "x.csv", "--threshold", "1", "--max-pairs", "10"]),
            true,
        )
        .unwrap();
        assert_eq!(join.max_pairs, Some(10));
        assert!(parse_sim(
            flags(&["--input", "x.csv", "--threshold", "1", "--max-pairs", "10"]),
            false,
        )
        .is_err());

        // --threshold is required and must be a non-negative number.
        assert!(parse_sim(flags(&["--input", "x.csv"]), false).is_err());
        assert!(parse_sim(flags(&["--input", "x.csv", "--threshold", "-1"]), false).is_err());
        assert!(parse_sim(flags(&["--input", "x.csv", "--threshold", "NaN"]), false).is_err());
        // --bands 0 has no candidate source.
        assert!(parse_sim(
            flags(&["--input", "x.csv", "--threshold", "1", "--bands", "0"]),
            false,
        )
        .is_err());
    }

    #[test]
    fn hierarchy_flags_default_to_exact_search() {
        let args = parse_hierarchy(flags(&["--model", "m.json"])).unwrap();
        assert_eq!(args.bands, 0, "--bands 0 = exact full pair search");
        assert_eq!(args.threads, 1);
        let args = parse_hierarchy(flags(&[
            "--model",
            "m.json",
            "--bands",
            "12",
            "--rows",
            "1",
            "--sim-bands",
            "6",
            "--sim-rows",
            "4",
            "--threads",
            "3",
        ]))
        .unwrap();
        assert_eq!((args.bands, args.rows), (12, 1));
        assert_eq!((args.sim_bands, args.sim_rows), (6, 4));
        assert_eq!(args.threads, 3);
        assert!(
            parse_hierarchy(flags(&["--bands", "4"])).is_err(),
            "--model is required"
        );
    }

    #[test]
    fn predict_accepts_a_threads_override() {
        let args = parse_predict(flags(&[
            "--model",
            "m.json",
            "--input",
            "x.csv",
            "--threads",
            "8",
        ]))
        .unwrap();
        assert_eq!(args.threads, Some(8));
        let no_override = parse_predict(flags(&["--model", "m.json", "--input", "x.csv"])).unwrap();
        assert_eq!(no_override.threads, None);
    }
}
