//! **Multi-process sharding** — the NDJSON transport over
//! [`lshclust_core::shard`]'s partial-update protocol.
//!
//! The coordinator side ([`RemoteTransport`]) spawns one worker process per
//! shard and speaks one JSON object per line over each worker's
//! stdin/stdout — the same framing the `cluster serve` loop uses. The
//! worker side ([`run_worker`]) is a blocking read-eval-print loop over
//! [`ShardRequest`]s; the `cluster shard-worker` CLI mode is a thin wrapper
//! around it. [`handle_line`] is the per-line step, exposed so tests can
//! drive the exact serialized protocol without spawning processes.
//!
//! A round-trip writes **all** shard requests before reading **any** reply
//! (requests fit in pipe buffers long before a worker needs its next one,
//! and every worker computes before replying), so the shards genuinely run
//! concurrently and the exchange cannot deadlock.
//!
//! ## Wire schema
//!
//! Requests (coordinator → worker), externally tagged:
//!
//! ```json
//! {"Init": {"k": 3, "threads": 2, "gamma": 0.0, "categorical": {...}, "numeric": null}}
//! {"AssignFull": {"centroids": {"Modes": {...}}}}
//! {"Pass": {"centroids": {"Modes": {...}}, "digests": [{"entries": [...]}]}}
//! "Shutdown"
//! ```
//!
//! Replies (worker → coordinator):
//!
//! ```json
//! "Ready"
//! {"Update": {"assignments": [...], "moves": 4, "shortlist_total": 120,
//!             "digests": [{"entries": [...]}], "sketch": {...}}}
//! "Done"
//! {"Error": {"message": "..."}}
//! ```
//!
//! The full field-level schema is documented in
//! `docs/ARCHITECTURE.md § Sharded fitting`.

use lshclust_core::shard::{ShardError, ShardReply, ShardRequest, ShardTransport, ShardWorker};
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

/// One worker process per shard, spoken to over NDJSON pipes.
///
/// The worker command is split on whitespace (`"cluster shard-worker"` →
/// program `cluster`, argument `shard-worker`); each worker inherits the
/// coordinator's stderr so failures stay visible. Dropping the transport
/// sends `"Shutdown"` to every surviving worker and reaps the processes.
pub struct RemoteTransport {
    workers: Vec<RemoteWorker>,
}

struct RemoteWorker {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl RemoteTransport {
    /// Spawns `n_shards` worker processes from `worker_cmd`.
    pub fn spawn(worker_cmd: &str, n_shards: usize) -> Result<Self, ShardError> {
        let mut parts = worker_cmd.split_whitespace();
        let program = parts
            .next()
            .ok_or_else(|| ShardError("empty worker command".into()))?;
        let args: Vec<&str> = parts.collect();
        let mut workers = Vec::with_capacity(n_shards.max(1));
        for shard in 0..n_shards.max(1) {
            let mut child = Command::new(program)
                .args(&args)
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| {
                    ShardError(format!("cannot spawn worker {shard} (`{worker_cmd}`): {e}"))
                })?;
            let stdin = child.stdin.take().expect("piped stdin");
            let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
            workers.push(RemoteWorker {
                child,
                stdin,
                stdout,
            });
        }
        Ok(Self { workers })
    }
}

impl ShardTransport for RemoteTransport {
    fn n_shards(&self) -> usize {
        self.workers.len()
    }

    fn roundtrip(&mut self, requests: Vec<ShardRequest>) -> Result<Vec<ShardReply>, ShardError> {
        if requests.len() != self.workers.len() {
            return Err(ShardError(format!(
                "{} requests for {} shards",
                requests.len(),
                self.workers.len()
            )));
        }
        // Write phase: every shard gets its request before any reply is
        // awaited, so all workers compute concurrently.
        for (shard, (worker, request)) in self.workers.iter_mut().zip(&requests).enumerate() {
            let line = serde_json::to_string(request)
                .map_err(|e| ShardError(format!("cannot encode request: {}", e.0)))?;
            writeln!(worker.stdin, "{line}")
                .and_then(|()| worker.stdin.flush())
                .map_err(|e| ShardError(format!("cannot write to worker {shard}: {e}")))?;
        }
        // Read phase: replies in shard order.
        let mut replies = Vec::with_capacity(self.workers.len());
        for (shard, worker) in self.workers.iter_mut().enumerate() {
            let mut line = String::new();
            let n = worker
                .stdout
                .read_line(&mut line)
                .map_err(|e| ShardError(format!("cannot read from worker {shard}: {e}")))?;
            if n == 0 {
                return Err(ShardError(format!("worker {shard} exited mid-protocol")));
            }
            let reply: ShardReply = serde_json::from_str(line.trim())
                .map_err(|e| ShardError(format!("worker {shard} sent invalid reply: {}", e.0)))?;
            replies.push(reply);
        }
        Ok(replies)
    }
}

impl Drop for RemoteTransport {
    fn drop(&mut self) {
        for worker in &mut self.workers {
            // Best-effort shutdown; a worker that already died is fine.
            if let Ok(line) = serde_json::to_string(&ShardRequest::Shutdown) {
                let _ = writeln!(worker.stdin, "{line}");
                let _ = worker.stdin.flush();
            }
        }
        for worker in &mut self.workers {
            let _ = worker.child.wait();
        }
    }
}

/// Serves one request line against the worker slot, returning the reply
/// line (without trailing newline). `Init` fills the slot; `Shutdown`
/// clears it and returns `"Done"`; malformed JSON becomes an `Error` reply
/// rather than killing the worker. Exposed so tests can loop the exact
/// wire protocol back without processes.
pub fn handle_line(slot: &mut Option<ShardWorker>, line: &str) -> String {
    serve_line(slot, line).0
}

/// [`handle_line`], also telling whether the line was `Shutdown` — from the
/// one parse of the line.
fn serve_line(slot: &mut Option<ShardWorker>, line: &str) -> (String, bool) {
    let request = serde_json::from_str::<ShardRequest>(line);
    let shutdown = matches!(request, Ok(ShardRequest::Shutdown));
    let reply = match request {
        Ok(ShardRequest::Init(init)) => match ShardWorker::new(init) {
            Ok(worker) => {
                *slot = Some(worker);
                ShardReply::Ready
            }
            Err(e) => ShardReply::Error { message: e.0 },
        },
        Ok(ShardRequest::Shutdown) => {
            *slot = None;
            ShardReply::Done
        }
        Ok(request) => match slot {
            Some(worker) => worker.handle(request),
            None => ShardReply::Error {
                message: "request before init".to_owned(),
            },
        },
        Err(e) => ShardReply::Error {
            message: format!("invalid request: {}", e.0),
        },
    };
    let line = serde_json::to_string(&reply).unwrap_or_else(|e| {
        format!(
            "{{\"Error\":{{\"message\":\"cannot encode reply: {}\"}}}}",
            e.0
        )
    });
    (line, shutdown)
}

/// The worker loop behind `cluster shard-worker`: reads one NDJSON request
/// per line, replies one line, exits on `"Shutdown"` or EOF. Each line is
/// parsed once.
pub fn run_worker(reader: impl BufRead, mut writer: impl Write) -> std::io::Result<()> {
    let mut slot: Option<ShardWorker> = None;
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let (reply, shutting_down) = serve_line(&mut slot, line.trim());
        writeln!(writer, "{reply}")?;
        writer.flush()?;
        if shutting_down {
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_line_enforces_init_first_and_survives_garbage() {
        let mut slot = None;
        let reply = handle_line(&mut slot, "{not json");
        assert!(reply.contains("Error"), "{reply}");
        let shutdown = serde_json::to_string(&ShardRequest::Shutdown).unwrap();
        assert_eq!(handle_line(&mut slot, &shutdown), "\"Done\"");
    }

    #[test]
    fn run_worker_replies_line_per_line_and_stops_on_shutdown() {
        let shutdown = serde_json::to_string(&ShardRequest::Shutdown).unwrap();
        let input = format!("\n{shutdown}\nignored-after-shutdown\n");
        let mut out = Vec::new();
        run_worker(input.as_bytes(), &mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), "\"Done\"\n");
    }
}
