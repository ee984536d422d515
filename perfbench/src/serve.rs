//! The serving workload: a k = 1,000 categorical model served by the real
//! `cluster serve --listen 127.0.0.1:0`, driven by one load generator of at
//! most two threads and two connections.

use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{gen, host, Args, Outcome};
use lshclust::serve::proto::{render_reply, LineOutcome, Outgoing, ProtoEngine};
use lshclust::{ClusterSpec, Clusterer, FittedModel, Lsh, ModelServer, ServerConfig};
use lshclust_categorical::io::read_csv;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TRAIN_ROWS: usize = 50_000;
const POOL_ROWS: usize = 20_000;
const K: usize = 1_000;
const N_ATTRS: usize = 100;
/// Value domain per attribute: small enough that the v2 envelope (whose
/// schema is JSON) loads in about a second.
const DOMAIN: u32 = 500;
/// Daemon start-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Requests in flight in the closed loop.
const WINDOW: usize = 32;
/// `work_s` is the closed loop's wall time per this many requests.
const WORK_REQUESTS: f64 = 1_000.0;
const LOW_RPS: f64 = 1_000.0;
const HIGH_RPS: f64 = 4_000.0;
/// A `{"reload"}` is sent this often during the open-loop phases, the
/// first one this far into them.
const RELOAD_EVERY: f64 = 10.0;
const FIRST_RELOAD: f64 = 1.0;
/// Traced runs also poll `{"stats"}` this often for the queue depth.
const STATS_EVERY: Duration = Duration::from_millis(50);
/// A generator whose sends ran later than this at the p99 did not offer
/// the intended load; the run is reported invalid.
const MAX_GEN_LATE_P99_MS: f64 = 20.0;
/// Rows timed call by call for the parse / encode / predict spans.
const MICRO_ROWS: usize = 4_000;
const REPLY_CAP: Duration = Duration::from_secs(30);

/// Everything generated and derived before the timed phases.
struct Inputs {
    model: PathBuf,
    /// The pool's rows as strings, and as rendered request lines.
    rows: Vec<Vec<String>>,
    lines: Vec<Vec<u8>>,
    /// `FittedModel::predict_str_row` on the same artifact, per pool row.
    expected: Vec<u32>,
    /// The served model's fit cost over its planted partition's cost.
    cost_ratio: f64,
}

fn prepare(args: &Args, dir: &Path, out: &mut Outcome) -> Result<Inputs, String> {
    let t = Instant::now();
    let data = gen::datgen(TRAIN_ROWS + POOL_ROWS, K, N_ATTRS, DOMAIN, args.seed);
    let csv = dir.join("train.csv");
    gen::write_csv(&csv, &data, 0..TRAIN_ROWS, 0).map_err(|e| format!("train csv: {e}"))?;
    let lines: Vec<Vec<u8>> = (TRAIN_ROWS..TRAIN_ROWS + POOL_ROWS)
        .map(|i| gen::request_line(&data, i))
        .collect();
    let rows: Vec<Vec<String>> = (TRAIN_ROWS..TRAIN_ROWS + POOL_ROWS)
        .map(|i| data.row(i).iter().map(|v| gen::cat_value(v.0)).collect())
        .collect();
    let planted = gen::planted_cost(&gen::head(&data, TRAIN_ROWS), K);
    drop(data);

    // The served model, fitted by the code under test (untimed).
    let file = std::fs::File::open(&csv).map_err(|e| e.to_string())?;
    let train = read_csv(BufReader::new(file)).map_err(|e| e.to_string())?;
    let spec = ClusterSpec::new(K)
        .lsh(Lsh::MinHash { bands: 20, rows: 5 })
        .threads(2);
    let run = Clusterer::new(spec)
        .fit(&train)
        .map_err(|e| format!("fit: {e}"))?;
    let modes = run
        .centroids
        .modes()
        .ok_or("categorical fit without modes")?;
    let recomputed = lshclust_kmodes::cost::total_cost(&train, modes, &run.assignments);
    let cost = run.summary.best_cost().unwrap_or(0);
    eprintln!("# served model's fit cost {cost}, planted partition cost {planted}");
    out.check(cost == recomputed, || {
        format!("served model's fit_cost {cost} differs from the recomputed {recomputed}")
    });
    let model = dir.join("model.bin");
    run.model
        .save_v2(&model)
        .map_err(|e| format!("saving the model: {e}"))?;
    drop((run, train));

    let served = FittedModel::load(&model).map_err(|e| format!("loading the model: {e}"))?;
    let expected = rows
        .iter()
        .map(|r| {
            let cells: Vec<&str> = r.iter().map(String::as_str).collect();
            served.predict_str_row(&cells).map(|c| c.0)
        })
        .collect::<Result<Vec<u32>, _>>()
        .map_err(|e| format!("predict_str_row: {e}"))?;
    eprintln!(
        "# prepared the served model ({} bytes) in {:.2}s",
        std::fs::metadata(&model).map_or(0, |m| m.len()),
        t.elapsed().as_secs_f64()
    );
    Ok(Inputs {
        model,
        rows,
        lines,
        expected,
        cost_ratio: cost as f64 / planted as f64,
    })
}

/// The cluster id in a predict reply, `None` for an error reply.
fn reply_cluster(line: &str) -> Option<u32> {
    let at = line.find("\"cluster\":")? + "\"cluster\":".len();
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Starts `cluster serve` on an ephemeral loopback port; its stderr goes
    /// to `log`, which is polled for the bound address.
    fn spawn(model: &Path, log: &Path) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let bin = exe.with_file_name("cluster");
        let stderr = std::fs::File::create(log).map_err(|e| e.to_string())?;
        let child = Command::new(&bin)
            .arg("serve")
            .arg("--model")
            .arg(model)
            .args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("{}: {e}", bin.display()))?;
        let mut daemon = Self {
            child,
            addr: String::new(),
        };
        let deadline = Instant::now() + REPLY_CAP;
        loop {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            if let Some(addr) = text
                .lines()
                .find_map(|l| l.strip_prefix("serve: listening on "))
            {
                daemon.addr = addr.trim().to_owned();
                return Ok(daemon);
            }
            if !matches!(daemon.child.try_wait(), Ok(None)) || Instant::now() > deadline {
                return Err(format!("the daemon did not start listening: {text}"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn connect(&self) -> Result<TcpStream, String> {
        let s = TcpStream::connect(&self.addr).map_err(|e| format!("{}: {e}", self.addr))?;
        // The generator's own Nagle delay must not add to the server's.
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(s)
    }

    /// Sends `{"shutdown"}` on `control` and waits for the process to end.
    fn shutdown(mut self, control: &mut TcpStream) -> Result<(), String> {
        let _ = control.write_all(b"{\"shutdown\":true}\n");
        let status = host::wait_or_kill(&mut self.child, Duration::from_secs(20))
            .map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("the daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Spawns the daemon and waits for its first correct reply; returns the
/// daemon, its data connection (with a reader) and the elapsed time.
fn start_daemon(
    inputs: &Inputs,
    log: &Path,
    out: &mut Outcome,
) -> Result<(Daemon, TcpStream, BufReader<TcpStream>, f64), String> {
    let t = Instant::now();
    let daemon = Daemon::spawn(&inputs.model, log)?;
    let mut conn = daemon.connect()?;
    let mut reader = BufReader::new(conn.try_clone().map_err(|e| e.to_string())?);
    conn.write_all(&inputs.lines[0])
        .map_err(|e| e.to_string())?;
    let mut reply = String::new();
    reader.read_line(&mut reply).map_err(|e| e.to_string())?;
    let elapsed = t.elapsed().as_secs_f64();
    let got = reply_cluster(&reply);
    out.check(got == Some(inputs.expected[0]), || {
        format!(
            "first reply {reply:?}, expected cluster {}",
            inputs.expected[0]
        )
    });
    Ok((daemon, conn, reader, elapsed))
}

/// One open-loop request: when it is due (seconds after the phase start)
/// and which pool row it asks for.
#[derive(Clone, Copy)]
struct Due {
    at: f64,
    key: u32,
    high: bool,
}

fn open_loop_schedule(seed: u64, low_s: f64, high_s: f64) -> Vec<Due> {
    let n_low = (LOW_RPS * low_s) as usize;
    let n_high = (HIGH_RPS * high_s) as usize;
    let keys = gen::zipf_keys(POOL_ROWS, n_low + n_high, seed);
    keys.into_iter()
        .enumerate()
        .map(|(j, key)| {
            let high = j >= n_low;
            let at = if high {
                low_s + (j - n_low) as f64 / HIGH_RPS
            } else {
                j as f64 / LOW_RPS
            };
            Due { at, key, high }
        })
        .collect()
}

/// Waits until `t0 + at`; returns how late the caller is, in seconds.
fn wait_until(t0: Instant, at: f64) -> f64 {
    let due = t0 + Duration::from_secs_f64(at);
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
    Instant::now().saturating_duration_since(due).as_secs_f64()
}

/// What the daemon phases measured.
#[derive(Default)]
struct DaemonRun {
    closed_rps: f64,
    low_ms: Vec<f64>,
    high_ms: Vec<f64>,
    late_ms: Vec<f64>,
    reload_s: Vec<f64>,
    queue_max: u64,
    cache_hits: u64,
    cache_misses: u64,
}

/// The closed loop: `WINDOW` requests in flight over uniformly walked pool
/// rows, for `secs` seconds (then the window drains).
fn closed_loop(
    inputs: &Inputs,
    conn: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    secs: f64,
    out: &mut Outcome,
    run: &mut DaemonRun,
) -> Result<(), String> {
    let pool = inputs.lines.len();
    let mut next = 1usize; // row 0 answered the setup probe
    let mut in_flight = std::collections::VecDeque::new();
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(secs);
    let mut done = 0usize;
    let mut reply = String::new();
    loop {
        while in_flight.len() < WINDOW && Instant::now() < stop {
            let key = next % pool;
            next += 1;
            conn.write_all(&inputs.lines[key])
                .map_err(|e| format!("closed loop send: {e}"))?;
            in_flight.push_back(key);
        }
        let Some(key) = in_flight.pop_front() else {
            break;
        };
        reply.clear();
        reader
            .read_line(&mut reply)
            .map_err(|e| format!("closed loop read: {e}"))?;
        done += 1;
        let want = inputs.expected[key];
        out.check(reply_cluster(&reply) == Some(want), || {
            format!("closed loop: {reply:?} for row {key}, expected {want}")
        });
    }
    run.closed_rps = done as f64 / start.elapsed().as_secs_f64();
    Ok(())
}

/// A control-connection request awaiting its reply.
enum Pending {
    Reload(Instant),
    Stats,
}

/// The open-loop phases. The calling thread sends on schedule (and runs
/// the control connection); one more thread reads the replies.
#[allow(clippy::too_many_arguments)]
fn open_loop(
    inputs: &Inputs,
    conn: &mut TcpStream,
    reader: BufReader<TcpStream>,
    control: &mut TcpStream,
    schedule: &[Due],
    poll_stats: bool,
    out: &mut Outcome,
    run: &mut DaemonRun,
) -> Result<(), String> {
    let model_path = inputs.model.to_str().ok_or("model path is not UTF-8")?;
    let reload_line = format!("{{\"reload\":\"{model_path}\"}}\n");
    control.set_nonblocking(true).map_err(|e| e.to_string())?;
    let phase_s = schedule.last().map_or(0.0, |d| d.at);
    let t0 = Instant::now();
    let (late, control_log, receiver) = std::thread::scope(|s| {
        let receiver = s.spawn(move || {
            let mut reader = reader;
            let mut latencies = Vec::with_capacity(schedule.len());
            let mut wrong = Vec::new();
            let mut reply = String::new();
            for (j, due) in schedule.iter().enumerate() {
                reply.clear();
                if reader.read_line(&mut reply).unwrap_or(0) == 0 {
                    wrong.push(format!("open loop: connection closed at request {j}"));
                    break;
                }
                let now = t0.elapsed().as_secs_f64();
                latencies.push((now - due.at) * 1e3);
                let want = inputs.expected[due.key as usize];
                if reply_cluster(&reply) != Some(want) {
                    wrong.push(format!("open loop: {reply:?}, expected {want}"));
                }
            }
            (latencies, wrong)
        });

        let mut late = Vec::with_capacity(schedule.len());
        let mut pending = std::collections::VecDeque::new();
        let mut control_log: Vec<Result<(f64, String), String>> = Vec::new();
        let mut buf = Vec::new();
        let mut next_reload = FIRST_RELOAD;
        let mut next_stats = 0.0;
        let mut chunk = [0u8; 4096];
        let mut send_error = None;
        for due in schedule {
            late.push(wait_until(t0, due.at) * 1e3);
            if let Err(e) = conn.write_all(&inputs.lines[due.key as usize]) {
                send_error = Some(format!("open loop send: {e}"));
                break;
            }
            let now_s = t0.elapsed().as_secs_f64();
            if now_s >= next_reload && next_reload < phase_s {
                next_reload += RELOAD_EVERY;
                if control.write_all(reload_line.as_bytes()).is_ok() {
                    pending.push_back(Pending::Reload(Instant::now()));
                }
            }
            if poll_stats && now_s >= next_stats {
                next_stats = now_s + STATS_EVERY.as_secs_f64();
                if control.write_all(b"{\"stats\":true}\n").is_ok() {
                    pending.push_back(Pending::Stats);
                }
            }
            drain_control(
                control,
                &mut chunk,
                &mut buf,
                &mut pending,
                &mut control_log,
            );
        }
        // Replies still owed on the control connection.
        let deadline = Instant::now() + REPLY_CAP;
        while !pending.is_empty() && Instant::now() < deadline {
            drain_control(
                control,
                &mut chunk,
                &mut buf,
                &mut pending,
                &mut control_log,
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        if !pending.is_empty() {
            control_log.push(Err("control replies missing".into()));
        }
        if let Some(e) = send_error {
            control_log.push(Err(e));
        }
        (late, control_log, receiver.join())
    });
    control.set_nonblocking(false).map_err(|e| e.to_string())?;
    let (latencies, wrong) = receiver.map_err(|_| "reply reader panicked")?;
    for (j, due) in schedule.iter().enumerate() {
        match latencies.get(j) {
            Some(&ms) if due.high => run.high_ms.push(ms),
            Some(&ms) => run.low_ms.push(ms),
            None => {}
        }
    }
    out.attempted += schedule.len() as u64;
    out.failed += (schedule.len() - latencies.len()) as u64 + wrong.len() as u64;
    out.wrong.extend(wrong.into_iter().take(5));
    for entry in control_log {
        match entry {
            Ok((took, line)) if line.contains("\"reloaded\":true") => {
                out.check(true, String::new);
                run.reload_s.push(took);
            }
            Ok((_, line)) if line.contains("\"queue\":") => {
                let q = serde_json::parse(line.trim())
                    .ok()
                    .and_then(|v| v.get("ok")?.get("queue")?.as_u64());
                run.queue_max = run.queue_max.max(q.unwrap_or(0));
            }
            Ok((_, line)) => out.check(false, || format!("control reply {line:?}")),
            Err(e) => out.check(false, || e),
        }
    }
    run.late_ms = late;
    Ok(())
}

/// Reads whatever the non-blocking control connection has; each complete
/// line answers the oldest pending request (replies are in order).
fn drain_control(
    control: &mut TcpStream,
    chunk: &mut [u8],
    buf: &mut Vec<u8>,
    pending: &mut std::collections::VecDeque<Pending>,
    log: &mut Vec<Result<(f64, String), String>>,
) {
    loop {
        match control.read(chunk) {
            Ok(0) => {
                log.push(Err("control connection closed".into()));
                pending.clear();
                return;
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => {
                log.push(Err(format!("control read: {e}")));
                pending.clear();
                return;
            }
        }
    }
    while let Some(nl) = buf.iter().position(|&b| b == b'\n') {
        let line: Vec<u8> = buf.drain(..=nl).collect();
        let line = String::from_utf8_lossy(&line).into_owned();
        match pending.pop_front() {
            Some(Pending::Reload(sent)) => log.push(Ok((sent.elapsed().as_secs_f64(), line))),
            Some(Pending::Stats) => log.push(Ok((0.0, line))),
            None => log.push(Err(format!("unsolicited control line {line:?}"))),
        }
    }
}

/// Blocking request/reply on the control connection.
fn control_call(control: &mut TcpStream, line: &[u8]) -> Result<String, String> {
    control.write_all(line).map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(control.try_clone().map_err(|e| e.to_string())?);
    let mut reply = String::new();
    reader.read_line(&mut reply).map_err(|e| e.to_string())?;
    Ok(reply)
}

/// Phase lengths for a run of `seconds`: 40 % closed loop, 30 % each
/// open-loop rate.
fn phases(seconds: u64) -> (f64, f64, f64) {
    let s = seconds as f64;
    (0.4 * s, 0.3 * s, 0.3 * s)
}

pub fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let inputs = prepare(args, dir, &mut out)?;
    let (closed_s, low_s, high_s) = phases(args.seconds);
    let schedule = open_loop_schedule(args.seed, low_s, high_s);

    // Set-up: spawn to first correct reply, several times; the last daemon
    // stays up for the traffic phases.
    let mut setup = Vec::new();
    let mut live = None;
    for rep in 0..SETUP_REPS {
        let log = dir.join(format!("daemon-{rep}.log"));
        let (daemon, conn, reader, elapsed) = start_daemon(&inputs, &log, &mut out)?;
        setup.push(elapsed);
        if rep + 1 < SETUP_REPS {
            let mut conn = conn;
            daemon.shutdown(&mut conn)?;
        } else {
            live = Some((daemon, conn, reader));
        }
    }
    eprintln!("# setup (s): {setup:?}");
    let (daemon, mut conn, mut reader) = live.expect("SETUP_REPS > 0");
    let mut control = daemon.connect()?;
    let mut d = DaemonRun::default();
    closed_loop(&inputs, &mut conn, &mut reader, closed_s, &mut out, &mut d)?;
    open_loop(
        &inputs,
        &mut conn,
        reader,
        &mut control,
        &schedule,
        args.trace,
        &mut out,
        &mut d,
    )?;

    // Drained: every accepted request must have been answered.
    let stats = control_call(&mut control, b"{\"stats\":true}\n")?;
    let v = serde_json::parse(stats.trim()).map_err(|e| format!("stats reply: {e}"))?;
    let field = |name: &str| v.get("ok").and_then(|o| o.get(name)?.as_u64());
    let (submitted, resolved) = (field("submitted"), field("resolved"));
    out.check(submitted.is_some() && submitted == resolved, || {
        format!("after the drain submitted {submitted:?} != resolved {resolved:?}")
    });
    d.cache_hits = field("cache_hits").unwrap_or(0);
    d.cache_misses = field("cache_misses").unwrap_or(0);
    let rss = host::peak_rss_mb(&daemon.child.id().to_string()).unwrap_or(f64::NAN);
    drop(conn);
    daemon.shutdown(&mut control)?;

    let late_p99 = percentile(&d.late_ms, 99.0).unwrap_or(f64::NAN);
    out.check(late_p99 <= MAX_GEN_LATE_P99_MS, || {
        format!("the generator fell behind: send lateness p99 {late_p99:.2} ms")
    });
    let pct = |v: &[f64], p| percentile(v, p).unwrap_or(f64::NAN);
    eprintln!(
        "# closed {:.1} rps; low p50/p99 {:.3}/{:.3} ms; high p50/p99 {:.3}/{:.3} ms; reloads {:?}; late p99 {late_p99:.3} ms; cache {}/{}",
        d.closed_rps,
        pct(&d.low_ms, 50.0),
        pct(&d.low_ms, 99.0),
        pct(&d.high_ms, 50.0),
        pct(&d.high_ms, 99.0),
        d.reload_s,
        d.cache_hits,
        d.cache_hits + d.cache_misses,
    );
    if args.trace {
        let mut tracer = Tracer::new();
        traced(&inputs, &schedule, &d, &mut tracer, &mut out)?;
        crate::report_self_times(&tracer);
        tracer
            .write_ndjson(&crate::spans_path(args))
            .map_err(|e| format!("writing spans: {e}"))?;
        let m = &mut out.metrics;
        m.insert("serve.closed_rps", d.closed_rps);
        m.insert("serve.low_p50_ms", pct(&d.low_ms, 50.0));
        m.insert("serve.low_p99_ms", pct(&d.low_ms, 99.0));
        m.insert("serve.high_p50_ms", pct(&d.high_ms, 50.0));
        m.insert("serve.high_p99_ms", pct(&d.high_ms, 99.0));
        m.insert("serve.reload_s", median(&d.reload_s).unwrap_or(f64::NAN));
        m.insert("harness.gen_late_p99_ms", late_p99);
        m.insert(
            "lshclust.serve.cache_hit_frac",
            d.cache_hits as f64 / (d.cache_hits + d.cache_misses).max(1) as f64,
        );
        m.insert("lshclust.serve.queue_max", d.queue_max as f64);
    } else {
        let m = &mut out.metrics;
        m.insert("setup_s", median(&setup).unwrap_or(f64::NAN));
        m.insert("work_s", WORK_REQUESTS / d.closed_rps);
        m.insert("cost_ratio", inputs.cost_ratio);
        m.insert("peak_rss_mb", rss);
    }
    Ok(out)
}

/// Replays `schedule` in-process: `ProtoEngine::handle_line` on the
/// calling thread at each due time, the returned tickets resolved in order
/// on one more thread (as a socket connection's writer does). Returns, per
/// request, when `handle_line` began and returned and when the reply was
/// rendered, in seconds after the phase start.
fn replay(
    engine: &ProtoEngine,
    inputs: &Inputs,
    schedule: &[Due],
    out: &mut Outcome,
) -> Result<Vec<(f64, f64, f64)>, String> {
    let texts: Vec<&str> = inputs
        .lines
        .iter()
        .map(|l| std::str::from_utf8(l).expect("rendered requests are UTF-8"))
        .collect();
    let (tx, rx) = std::sync::mpsc::channel::<(usize, f64, f64, Outgoing)>();
    let t0 = Instant::now();
    let (handled, wrong) = std::thread::scope(|s| {
        let waiter = s.spawn(move || {
            let mut handled = vec![(0.0, 0.0, 0.0); schedule.len()];
            let mut wrong = Vec::new();
            for (j, start, end, reply) in rx {
                let line = render_reply(reply, REPLY_CAP);
                let done = t0.elapsed().as_secs_f64();
                handled[j] = (start, end, done);
                let want = inputs.expected[schedule[j].key as usize];
                if reply_cluster(&line) != Some(want) {
                    wrong.push(format!("in-process: {line:?}, expected {want}"));
                }
            }
            (handled, wrong)
        });
        for (j, due) in schedule.iter().enumerate() {
            wait_until(t0, due.at);
            let start = t0.elapsed().as_secs_f64();
            let outcome = engine.handle_line(texts[due.key as usize]);
            let end = t0.elapsed().as_secs_f64();
            let reply = match outcome {
                LineOutcome::Reply(o) | LineOutcome::Shutdown(o) => o,
                LineOutcome::Ignore => Outgoing::Line(String::new()),
            };
            if tx.send((j, start, end, reply)).is_err() {
                break;
            }
        }
        drop(tx);
        waiter.join()
    })
    .map_err(|_| "ticket waiter panicked")?;
    out.attempted += schedule.len() as u64;
    out.failed += wrong.len() as u64;
    out.wrong.extend(wrong.into_iter().take(5));
    Ok(handled)
}

fn p50_us(values: &[f64]) -> f64 {
    percentile(values, 50.0).unwrap_or(f64::NAN) * 1e6
}

/// The traced half of a serving run: the artifact loaded in-process, the
/// same schedule replayed through the protocol engine, and the row-level
/// calls timed one by one.
fn traced(
    inputs: &Inputs,
    schedule: &[Due],
    daemon: &DaemonRun,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut loads = Vec::new();
    let mut model = None;
    for _ in 0..SETUP_REPS {
        drop(model.take());
        let t = Instant::now();
        let m = FittedModel::load(&inputs.model).map_err(|e| e.to_string())?;
        tracer.add("lshclust.load", t, Instant::now(), None, None);
        loads.push(t.elapsed().as_secs_f64());
        model = Some(m);
    }
    out.metrics
        .insert("lshclust.load_s", median(&loads).unwrap_or(f64::NAN));
    let model = model.expect("SETUP_REPS > 0");

    // Row-level calls on the same rows, each its own span.
    let mut parse = Vec::new();
    let mut encode = Vec::new();
    let mut predict = Vec::new();
    for (i, row) in inputs.rows.iter().take(MICRO_ROWS).enumerate() {
        let text = std::str::from_utf8(&inputs.lines[i]).expect("UTF-8");
        let req = Some(i as u64);
        let t = Instant::now();
        let parsed = serde_json::parse(text.trim());
        let t1 = Instant::now();
        let cells: Vec<&str> = row.iter().map(String::as_str).collect();
        let t2 = Instant::now();
        let encoded = model.encode_row(&cells);
        let t3 = Instant::now();
        let got = encoded.as_ref().ok().map(|e| model.predict_one(e));
        let t4 = Instant::now();
        tracer.add("serde_json.parse", t, t1, None, req);
        tracer.add("lshclust.encode_row", t2, t3, None, req);
        tracer.add("lshclust.predict_one", t3, t4, None, req);
        parse.push((t1 - t).as_secs_f64());
        encode.push((t3 - t2).as_secs_f64());
        predict.push((t4 - t3).as_secs_f64());
        let ok = parsed.is_ok() && matches!(got, Some(Ok(c)) if c.0 == inputs.expected[i]);
        out.check(ok, || format!("row {i}: parse/encode/predict disagree"));
    }
    let m = &mut out.metrics;
    m.insert("serde_json.parse_p50_us", p50_us(&parse));
    m.insert("lshclust.encode_p50_us", p50_us(&encode));
    m.insert("lshclust.predict_p50_us", p50_us(&predict));

    // The daemon's schedule, replayed through the protocol engine: first
    // keeping only each request's end-to-end time, then again recording a
    // span per layer call; the difference is the tracing overhead.
    let server = Arc::new(ModelServer::start(model, ServerConfig::default()));
    let engine = ProtoEngine::new(Arc::clone(&server), None);
    // The high-rate phase on its own, shifted to start at once.
    let shift = schedule.iter().find(|d| d.high).map_or(0.0, |d| d.at);
    let high: Vec<Due> = schedule
        .iter()
        .filter(|d| d.high)
        .map(|d| Due {
            at: d.at - shift,
            ..*d
        })
        .collect();
    let untraced: Vec<f64> = replay(&engine, inputs, &high, out)?
        .iter()
        .zip(&high)
        .map(|(&(_, _, done), d)| done - d.at)
        .collect();
    let traced_run = replay(&engine, inputs, schedule, out)?;
    let base = Instant::now();
    let at = |s: f64| base + Duration::from_secs_f64(s);
    let mut handle = Vec::new();
    let mut wait = Vec::new();
    let mut low_e2e = Vec::new();
    let mut high_e2e = Vec::new();
    for (j, (&(start, end, done), due)) in traced_run.iter().zip(schedule).enumerate() {
        let req = Some(j as u64);
        let root = tracer.add("lshclust.serve.request", at(due.at), at(done), None, req);
        tracer.add(
            "lshclust.serve.handle_line",
            at(start),
            at(end),
            Some(root),
            req,
        );
        tracer.add("lshclust.serve.wait", at(end), at(done), Some(root), req);
        handle.push(end - start);
        wait.push(done - end);
        if due.high {
            high_e2e.push(done - due.at);
        } else {
            low_e2e.push(done - due.at);
        }
    }
    drop(engine);
    if let Ok(server) = Arc::try_unwrap(server) {
        server.shutdown();
    }
    let m = &mut out.metrics;
    m.insert("lshclust.serve.handle_line_p50_us", p50_us(&handle));
    m.insert("lshclust.serve.wait_p50_us", p50_us(&wait));
    m.insert(
        "lshclust.serve.wait_p99_us",
        percentile(&wait, 99.0).unwrap_or(f64::NAN) * 1e6,
    );
    let daemon_low_us = percentile(&daemon.low_ms, 50.0).unwrap_or(f64::NAN) * 1e3;
    m.insert("lshclust.socket_p50_us", daemon_low_us - p50_us(&low_e2e));
    m.insert(
        "harness.trace_overhead_frac",
        p50_us(&high_e2e) / p50_us(&untraced) - 1.0,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_cluster_reads_ok_replies_only() {
        assert_eq!(
            reply_cluster(r#"{"ok":{"cluster":417,"generation":2}}"#),
            Some(417)
        );
        assert_eq!(reply_cluster(r#"{"err":"queue full"}"#), None);
    }

    #[test]
    fn schedule_is_deterministic_and_paced() {
        let a = open_loop_schedule(4, 2.0, 1.0);
        let b = open_loop_schedule(4, 2.0, 1.0);
        assert_eq!(a.len(), 2_000 + 4_000);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.key == y.key && x.at == y.at));
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        assert_eq!(a.iter().filter(|d| d.high).count(), 4_000);
        assert!((a[2_001].at - a[2_000].at - 1.0 / HIGH_RPS).abs() < 1e-12);
    }

    #[test]
    fn same_seed_gives_a_byte_identical_model_artifact() {
        let artifact = |seed| {
            let data = gen::datgen(400, 8, 12, 30, seed);
            let dir = std::env::temp_dir().join(format!(
                "perfbench-model-{}-{seed}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            std::fs::create_dir_all(&dir).unwrap();
            let csv = dir.join("t.csv");
            gen::write_csv(&csv, &data, 0..400, 0).unwrap();
            let train = read_csv(BufReader::new(std::fs::File::open(&csv).unwrap())).unwrap();
            let spec = ClusterSpec::new(8)
                .lsh(Lsh::MinHash { bands: 20, rows: 5 })
                .threads(2);
            let bytes = Clusterer::new(spec).fit(&train).unwrap().model.to_bytes();
            std::fs::remove_dir_all(&dir).unwrap();
            bytes
        };
        assert_eq!(artifact(3), artifact(3));
        assert_ne!(artifact(3), artifact(4));
    }
}
