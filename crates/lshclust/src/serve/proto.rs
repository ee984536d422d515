//! The NDJSON serving protocol, transport-agnostic.
//!
//! One request per line, one response per line, in request order:
//!
//! ```text
//! → {"predict": {"row": ["a","b"]}, "id": 1}
//! ← {"id": 1, "ok": {"cluster": 0, "generation": 0}}
//! → {"predict": {"point": [0.5]}, "deadline_ms": 5}
//! ← {"ok": {"cluster": 1, "generation": 0}}          (or {"err": "request deadline passed …"})
//! → {"reload": "model.bin", "id": "r1"}
//! ← {"id": "r1", "ok": {"reloaded": true, "generation": 1}}
//! → {"stats": true}
//! ← {"ok": {"generation": 1, "queue": 0, …, "cache_hits": 42, …}}
//! → {"shutdown": true}
//! ← {"ok": {"shutdown": true}}
//! ```
//!
//! The same [`ProtoEngine`] drives both fronts: the single-client stdin
//! daemon (`cluster serve`) and every connection of the socket transport
//! ([`super::socket`]). Keeping it here — instead of inside the CLI — is
//! what lets the fault-injection tests speak the real protocol against a
//! real in-process server.
//!
//! Deadline field semantics (`deadline_ms`, top level, next to `id`):
//! **absent** → the server's [`ServerConfig::default_deadline`]; **`0`** →
//! explicitly unbounded (pinned by test); **`n`** → `n` milliseconds from
//! submission. Legacy clients that never send the field keep working
//! unchanged.
//!
//! `{"shutdown": true}` stops the whole server, so fronts exposed to
//! untrusted peers can refuse it ([`ProtoEngine::allow_shutdown`]): the
//! request then answers with `err` and serving continues. The CLI keeps
//! shutdown enabled for stdin, Unix sockets, and loopback TCP, and
//! requires `--allow-remote-shutdown` for anything else.

use super::{ModelServer, PackedRow, Payload, PredictTicket, ServeError, ServerConfig};
use crate::model::FittedModel;
use serde::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Renders `v` as one NDJSON line (no trailing newline).
fn json_line(v: Value) -> String {
    struct OutValue(Value);
    impl serde::Serialize for OutValue {
        fn to_value(&self) -> Value {
            self.0.clone()
        }
    }
    serde_json::to_string(&OutValue(v)).expect("response serializes")
}

/// Renders a success response: `{"id": …, "ok": {fields…}}` (the `id` is
/// echoed only when the request carried one).
pub fn ok_response(id: Option<&Value>, fields: Vec<(String, Value)>) -> String {
    let mut entries = Vec::new();
    if let Some(id) = id {
        entries.push(("id".to_owned(), id.clone()));
    }
    entries.push(("ok".to_owned(), Value::Object(fields)));
    json_line(Value::Object(entries))
}

/// Renders a failure response: `{"id": …, "err": "message"}`.
pub fn err_response(id: Option<&Value>, message: &str) -> String {
    let mut entries = Vec::new();
    if let Some(id) = id {
        entries.push(("id".to_owned(), id.clone()));
    }
    entries.push(("err".to_owned(), Value::String(message.to_owned())));
    json_line(Value::Object(entries))
}

fn parse_str_row(v: &Value) -> Result<PackedRow, String> {
    let cells = v
        .as_array()
        .ok_or("`row` must be an array of strings")?
        .iter()
        .map(|s| {
            s.as_str()
                .ok_or_else(|| "`row` must be an array of strings".to_owned())
        })
        .collect::<Result<Vec<&str>, _>>()?;
    Ok(PackedRow::new(&cells))
}

fn parse_point(v: &Value) -> Result<Vec<f64>, String> {
    v.as_array()
        .ok_or("`point` must be an array of numbers")?
        .iter()
        .map(|x| {
            x.as_f64()
                .ok_or_else(|| "`point` must be an array of numbers".to_owned())
        })
        .collect()
}

/// A parsed `deadline_ms` field (see the [module docs](self) for the
/// wire-level semantics).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeadlineSpec {
    /// Field absent: use [`ServerConfig::default_deadline`].
    Default,
    /// `deadline_ms: 0`: explicitly unbounded, overriding any default.
    Unbounded,
    /// `deadline_ms: n` (n > 0): expire `n` milliseconds after submission.
    After(Duration),
}

impl DeadlineSpec {
    /// Reads the top-level `deadline_ms` field of a request line.
    pub fn parse(request: &Value) -> Result<Self, String> {
        match request.get("deadline_ms") {
            None => Ok(DeadlineSpec::Default),
            Some(v) => match v.as_u64() {
                Some(0) => Ok(DeadlineSpec::Unbounded),
                Some(ms) => Ok(DeadlineSpec::After(Duration::from_millis(ms))),
                None => Err("`deadline_ms` must be a non-negative integer".to_owned()),
            },
        }
    }

    /// The concrete per-request deadline under `config`.
    pub fn resolve(self, config: &ServerConfig) -> Option<Duration> {
        match self {
            DeadlineSpec::Default => config.default_deadline,
            DeadlineSpec::Unbounded => None,
            DeadlineSpec::After(d) => Some(d),
        }
    }
}

/// Retries a submission while the queue is full. A protocol front has one
/// producer per connection — blocking it *is* the backpressure: piped batch
/// input larger than `queue_depth` gets served in full instead of being
/// load-shed with thousands of `QueueFull` errors (load shedding is for
/// many independent callers; a pipe should just slow down).
pub fn submit_with_backpressure(
    mut submit: impl FnMut() -> Result<PredictTicket, ServeError>,
) -> Result<PredictTicket, String> {
    loop {
        match submit() {
            Ok(ticket) => return Ok(ticket),
            Err(ServeError::QueueFull) => {
                std::thread::sleep(Duration::from_micros(200));
            }
            Err(e) => return Err(e.to_string()),
        }
    }
}

/// Submits one `predict` payload; string rows — categorical and the
/// categorical part of mixed requests — go through the server's serve-time
/// encoding, so hot reloads apply to requests already queued.
pub fn submit_predict(
    server: &ModelServer,
    predict: &Value,
    deadline: Option<Duration>,
) -> Result<PredictTicket, String> {
    let payload = match (predict.get("row"), predict.get("point")) {
        (Some(row), None) => Payload::StrRow(parse_str_row(row)?),
        (None, Some(point)) => Payload::Point(parse_point(point)?),
        // Serve-time encoding (like the row-only path): the categorical
        // part is interpreted under the schema of the model snapshot that
        // answers, so a reload can never mix schemas.
        (Some(row), Some(point)) => Payload::StrMixed(parse_str_row(row)?, parse_point(point)?),
        (None, None) => {
            return Err("predict needs `row` (strings) and/or `point` (numbers)".to_owned())
        }
    };
    // A refused payload comes back and is queued again, never copied.
    let mut refused = Some(payload);
    submit_with_backpressure(|| {
        let payload = refused.take().expect("a refused payload is handed back");
        server
            .submit_or_return(payload, deadline)
            .map_err(|(e, payload)| {
                refused = Some(payload);
                e
            })
    })
}

/// One ordered reply slot: a ticket still being served, a `{"stats"}`
/// reply or push still to be rendered, or an already-rendered control line.
/// Writer loops render these FIFO so responses leave in request order even
/// though workers finish out of order.
pub enum Outgoing {
    /// A pending prediction; render with [`render_reply`].
    Ticket {
        /// The request's `id`, echoed into the response.
        id: Option<Value>,
        /// The waitable half of the submitted request.
        ticket: PredictTicket,
    },
    /// A `{"stats": true}` reply. It is rendered when the writer reaches
    /// it, so its counters include every reply written before it.
    Stats {
        /// The request's `id`, echoed into the response.
        id: Option<Value>,
        /// The server whose counters the reply reports.
        server: Arc<ModelServer>,
    },
    /// The periodic `{"stats": {…}}` push ([`ProtoEngine::stats_every`]),
    /// rendered like [`Outgoing::Stats`] when the writer reaches it.
    StatsPush(Arc<ModelServer>),
    /// A response that is already a complete line.
    Line(String),
}

/// Resolves one [`Outgoing`] into its response line. Ticket waits are
/// bounded by `wait_cap` ([`PredictTicket::wait_deadline`]) so a wedged
/// worker pool turns into an error response instead of a writer blocked
/// forever. Deadline-skipped requests render as `err` lines like any other
/// serve failure.
pub fn render_reply(out: Outgoing, wait_cap: Duration) -> String {
    match out {
        Outgoing::Ticket { id, ticket } => match ticket.wait_deadline(wait_cap) {
            Some(Ok(p)) => ok_response(
                id.as_ref(),
                vec![
                    ("cluster".to_owned(), serde_json::to_value(&p.cluster.0)),
                    ("generation".to_owned(), serde_json::to_value(&p.generation)),
                ],
            ),
            Some(Err(e)) => err_response(id.as_ref(), &e.to_string()),
            None => err_response(
                id.as_ref(),
                &format!(
                    "no reply within {}ms (serving stalled)",
                    wait_cap.as_millis()
                ),
            ),
        },
        Outgoing::Stats { id, server } => ok_response(id.as_ref(), stats_fields(&server)),
        Outgoing::StatsPush(server) => json_line(Value::Object(vec![(
            "stats".to_owned(),
            Value::Object(stats_fields(&server)),
        )])),
        Outgoing::Line(line) => line,
    }
}

/// What a protocol line asks the front to do next.
pub enum LineOutcome {
    /// Enqueue this reply and keep reading.
    Reply(Outgoing),
    /// Enqueue this reply, then begin shutdown (a `{"shutdown": true}`
    /// request).
    Shutdown(Outgoing),
    /// Nothing to do (blank line).
    Ignore,
}

/// The transport-agnostic request handler: parses one NDJSON line and turns
/// it into an ordered reply. Clone-cheap (`Arc` inside); the socket
/// transport hands one to every connection.
#[derive(Clone)]
pub struct ProtoEngine {
    server: Arc<ModelServer>,
    /// Operator `--threads` override, re-applied on every reload so the
    /// artifact's own `spec.threads` can't silently take over.
    threads_override: Option<usize>,
    /// Whether `{"shutdown": true}` is honored on this front. `true` for
    /// trusted fronts (stdin, Unix socket, loopback TCP); the CLI sets
    /// `false` for non-loopback TCP listeners unless the operator passes
    /// `--allow-remote-shutdown`, so exposing `--listen` to a network
    /// does not hand every peer an unauthenticated kill switch.
    allow_shutdown: bool,
    /// Push an unsolicited `{"stats": {…}}` line after every N predict
    /// requests (`0` = off, the default). Fronts poll
    /// [`Self::take_due_stats`] after each handled line.
    stats_every: u64,
    /// Predict requests handled, shared across clones so every connection
    /// of a socket front counts toward the same cadence.
    predicts: Arc<AtomicU64>,
    /// Highest cadence milestone already pushed — what makes each push
    /// fire exactly once even when connections race.
    stats_pushed: Arc<AtomicU64>,
}

impl ProtoEngine {
    /// Wraps `server`; `threads_override` is re-applied to reloaded models.
    /// Shutdown requests are honored by default ([`Self::allow_shutdown`]).
    pub fn new(server: Arc<ModelServer>, threads_override: Option<usize>) -> Self {
        Self {
            server,
            threads_override,
            allow_shutdown: true,
            stats_every: 0,
            predicts: Arc::new(AtomicU64::new(0)),
            stats_pushed: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Sets whether `{"shutdown": true}` stops the server on this front;
    /// when disabled the request is answered with an `err` line and serving
    /// continues (stop the daemon from a trusted front or by signal).
    pub fn allow_shutdown(mut self, allow: bool) -> Self {
        self.allow_shutdown = allow;
        self
    }

    /// Enables the periodic stats push: after every `n` predict requests
    /// the next [`Self::take_due_stats`] call returns the slot of an
    /// unsolicited `{"stats": {…}}` line for the front to enqueue, so
    /// dashboards tail the response stream instead of polling
    /// `{"stats": true}`. `0` (the default) disables the push.
    pub fn stats_every(mut self, n: u64) -> Self {
        self.stats_every = n;
        self
    }

    /// The reply slot of the unsolicited `{"stats": {…}}` line when the
    /// periodic push has just come due, `None` otherwise. Fronts call this
    /// after each handled line and enqueue the slot behind its reply; it is
    /// rendered when the writer reaches it ([`render_reply`]), so its
    /// counters include every reply written before it. The milestone
    /// bookkeeping guarantees one push per cadence point across all clones
    /// of this engine.
    pub fn take_due_stats(&self) -> Option<Outgoing> {
        if self.stats_every == 0 {
            return None;
        }
        let milestone = self.predicts.load(Ordering::Relaxed) / self.stats_every * self.stats_every;
        if milestone == 0 {
            return None;
        }
        let prev = self.stats_pushed.fetch_max(milestone, Ordering::Relaxed);
        (prev < milestone).then(|| Outgoing::StatsPush(Arc::clone(&self.server)))
    }

    /// The served model server.
    pub fn server(&self) -> &Arc<ModelServer> {
        &self.server
    }

    /// Handles one raw protocol line.
    pub fn handle_line(&self, line: &str) -> LineOutcome {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return LineOutcome::Ignore;
        }
        let value = match serde_json::parse(trimmed) {
            Ok(v) => v,
            Err(e) => {
                return LineOutcome::Reply(Outgoing::Line(err_response(
                    None,
                    &format!("bad JSON: {e}"),
                )));
            }
        };
        let id = value.get("id").cloned();
        if let Some(predict) = value.get("predict") {
            self.predicts.fetch_add(1, Ordering::Relaxed);
            let submitted = DeadlineSpec::parse(&value)
                .map(|spec| spec.resolve(self.server.config()))
                .and_then(|deadline| submit_predict(&self.server, predict, deadline));
            LineOutcome::Reply(match submitted {
                Ok(ticket) => Outgoing::Ticket { id, ticket },
                Err(e) => Outgoing::Line(err_response(id.as_ref(), &e)),
            })
        } else if let Some(reload) = value.get("reload") {
            LineOutcome::Reply(Outgoing::Line(self.handle_reload(id.as_ref(), reload)))
        } else if value.get("stats").is_some() {
            LineOutcome::Reply(Outgoing::Stats {
                id,
                server: Arc::clone(&self.server),
            })
        } else if value.get("shutdown").is_some() {
            if self.allow_shutdown {
                LineOutcome::Shutdown(Outgoing::Line(ok_response(
                    id.as_ref(),
                    vec![("shutdown".to_owned(), Value::Bool(true))],
                )))
            } else {
                LineOutcome::Reply(Outgoing::Line(err_response(
                    id.as_ref(),
                    "shutdown is disabled on this listener (serve with --allow-remote-shutdown to enable)",
                )))
            }
        } else {
            LineOutcome::Reply(Outgoing::Line(err_response(
                id.as_ref(),
                "unknown request: expected `predict`, `reload`, `stats`, or `shutdown`",
            )))
        }
    }

    fn handle_reload(&self, id: Option<&Value>, reload: &Value) -> String {
        match reload.as_str() {
            // `load` sniffs the envelope, so `{"reload": path}` accepts v1
            // JSON and v2 binary artifacts alike — the v2 decode copies the
            // index instead of re-hashing it, keeping the pre-swap pause
            // short. Parse/validate completes before the handle's write
            // lock is touched, and the generation bump invalidates the
            // hot-key cache as a side effect.
            Some(path) => FittedModel::load(path)
                .map_err(|e| format!("{path}: {e}"))
                .map(|mut model| {
                    if let Some(threads) = self.threads_override {
                        model.set_threads(threads);
                    }
                    self.server.handle().reload(model)
                })
                .map_or_else(
                    |e| err_response(id, &e),
                    |generation| {
                        ok_response(
                            id,
                            vec![
                                ("reloaded".to_owned(), Value::Bool(true)),
                                ("generation".to_owned(), serde_json::to_value(&generation)),
                            ],
                        )
                    },
                ),
            None => err_response(id, "reload takes a model artifact path string"),
        }
    }
}

/// The introspection payload shared by `{"stats": true}` responses and the
/// periodic push.
fn stats_fields(server: &ModelServer) -> Vec<(String, Value)> {
    let model = server.model();
    let cache = server.hot_key_stats();
    let tickets = server.ticket_stats();
    vec![
        (
            "generation".to_owned(),
            serde_json::to_value(&server.generation()),
        ),
        (
            "queue".to_owned(),
            serde_json::to_value(&server.queue_len()),
        ),
        (
            "modality".to_owned(),
            Value::String(model.modality().to_owned()),
        ),
        ("k".to_owned(), serde_json::to_value(&model.k())),
        (
            "workers".to_owned(),
            serde_json::to_value(&server.config().workers),
        ),
        (
            "max_batch".to_owned(),
            serde_json::to_value(&server.config().max_batch),
        ),
        ("cache_hits".to_owned(), serde_json::to_value(&cache.hits)),
        (
            "cache_misses".to_owned(),
            serde_json::to_value(&cache.misses),
        ),
        (
            "cache_entries".to_owned(),
            serde_json::to_value(&cache.entries),
        ),
        (
            "submitted".to_owned(),
            serde_json::to_value(&tickets.submitted),
        ),
        (
            "resolved".to_owned(),
            serde_json::to_value(&tickets.resolved),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterSpec, Clusterer, Lsh, NumericDataset};

    fn engine() -> ProtoEngine {
        let data = NumericDataset::new(1, vec![0.0, 0.2, 0.4, 9.0, 9.2, 9.4]);
        let spec = ClusterSpec::new(2).lsh(Lsh::SimHash { bands: 8, rows: 2 });
        let run = Clusterer::new(spec).fit(&data).unwrap();
        let server = Arc::new(ModelServer::start(
            run.model,
            ServerConfig::default().workers(1),
        ));
        ProtoEngine::new(server, None)
    }

    fn reply_line(engine: &ProtoEngine, line: &str) -> String {
        match engine.handle_line(line) {
            LineOutcome::Reply(out) | LineOutcome::Shutdown(out) => {
                render_reply(out, Duration::from_secs(10))
            }
            LineOutcome::Ignore => panic!("expected a reply for {line:?}"),
        }
    }

    #[test]
    fn predict_reload_stats_shutdown_round_trip() {
        let engine = engine();
        let ok = reply_line(&engine, r#"{"predict": {"point": [0.1]}, "id": 7}"#);
        assert!(ok.contains(r#""id":7"#) && ok.contains("cluster"), "{ok}");
        let stats = reply_line(&engine, r#"{"stats": true}"#);
        for field in ["cache_hits", "submitted", "resolved", "queue"] {
            assert!(stats.contains(field), "missing {field}: {stats}");
        }
        assert!(matches!(
            engine.handle_line(r#"{"shutdown": true}"#),
            LineOutcome::Shutdown(_)
        ));
        assert!(matches!(engine.handle_line("   "), LineOutcome::Ignore));
    }

    #[test]
    fn malformed_lines_answer_with_err_not_panic() {
        let engine = engine();
        for bad in [
            "{not json",
            r#"{"predict": {}}"#,
            r#"{"predict": {"row": [1]}}"#,
            r#"{"predict": {"point": ["x"]}}"#,
            r#"{"frobnicate": 1}"#,
            r#"{"reload": 42}"#,
            r#"{"predict": {"point": [0.1]}, "deadline_ms": -3}"#,
            r#"{"predict": {"point": [0.1]}, "deadline_ms": "soon"}"#,
        ] {
            let reply = reply_line(&engine, bad);
            assert!(reply.contains(r#""err""#), "{bad} => {reply}");
        }
    }

    #[test]
    fn shutdown_can_be_disallowed_per_front() {
        let engine = engine().allow_shutdown(false);
        let reply = reply_line(&engine, r#"{"shutdown": true, "id": 3}"#);
        assert!(
            reply.contains(r#""err""#) && reply.contains("disabled"),
            "{reply}"
        );
        // The refusal answers without stopping: predicts still serve.
        let ok = reply_line(&engine, r#"{"predict": {"point": [0.1]}}"#);
        assert!(ok.contains("cluster"), "{ok}");
        // Re-enabling restores the normal shutdown outcome.
        let engine = engine.allow_shutdown(true);
        assert!(matches!(
            engine.handle_line(r#"{"shutdown": true}"#),
            LineOutcome::Shutdown(_)
        ));
    }

    /// The due stats push, rendered as a writer renders it.
    fn due_stats(engine: &ProtoEngine) -> Option<String> {
        engine
            .take_due_stats()
            .map(|out| render_reply(out, Duration::from_secs(10)))
    }

    #[test]
    fn stats_push_fires_once_per_cadence_point_and_is_off_by_default() {
        // Off by default: no push no matter how many predicts.
        let silent = engine();
        let _ = reply_line(&silent, r#"{"predict": {"point": [0.1]}}"#);
        assert_eq!(due_stats(&silent), None);

        let pushing = engine().stats_every(2);
        let _ = reply_line(&pushing, r#"{"predict": {"point": [0.1]}}"#);
        assert_eq!(due_stats(&pushing), None, "1 of 2 predicts");
        let _ = reply_line(&pushing, r#"{"predict": {"point": [9.1]}}"#);
        let push = due_stats(&pushing).expect("2nd predict comes due");
        // Unsolicited shape: {"stats": {…}} — distinguishable from the
        // {"ok": {…}} reply to an explicit {"stats": true} request.
        assert!(push.starts_with(r#"{"stats":"#), "{push}");
        for field in ["queue", "submitted", "resolved", "cache_hits"] {
            assert!(push.contains(field), "missing {field}: {push}");
        }
        // The milestone is consumed: a re-poll (or a racing clone) stays
        // quiet until the next cadence point …
        assert_eq!(due_stats(&pushing), None);
        assert_eq!(due_stats(&pushing.clone()), None);
        let _ = reply_line(&pushing, r#"{"predict": {"point": [0.1]}}"#);
        assert_eq!(due_stats(&pushing), None, "3 of 4 predicts");
        // … and a clone shares the counter (socket connections all feed the
        // same cadence).
        let _ = reply_line(&pushing.clone(), r#"{"predict": {"point": [9.1]}}"#);
        assert!(pushing.take_due_stats().is_some(), "4th predict comes due");

        // Control lines do not count as requests.
        let counting = engine();
        let counting = counting.stats_every(1);
        let _ = reply_line(&counting, r#"{"stats": true}"#);
        assert_eq!(due_stats(&counting), None);
    }

    #[test]
    fn stats_push_counts_every_reply_written_before_it() {
        let engine = engine().stats_every(3);
        let mut slots = Vec::new();
        for point in ["0.1", "9.1", "0.2"] {
            match engine.handle_line(&format!(r#"{{"predict": {{"point": [{point}]}}}}"#)) {
                LineOutcome::Reply(out) => slots.push(out),
                _ => panic!("a predict is answered"),
            }
        }
        // The push is enqueued when the third predict is read, before any
        // reply is written, and rendered only when the writer reaches it.
        slots.push(engine.take_due_stats().expect("3rd predict comes due"));
        let lines: Vec<String> = slots
            .into_iter()
            .map(|out| render_reply(out, Duration::from_secs(10)))
            .collect();
        let push = &lines[3];
        assert!(push.starts_with(r#"{"stats":"#), "{push}");
        assert!(push.contains(r#""submitted":3,"resolved":3"#), "{push}");
    }

    #[test]
    fn deadline_field_semantics_are_absent_default_zero_unbounded() {
        let absent = serde_json::parse(r#"{"predict": {"point": [0.1]}}"#).unwrap();
        assert_eq!(DeadlineSpec::parse(&absent).unwrap(), DeadlineSpec::Default);
        let zero = serde_json::parse(r#"{"deadline_ms": 0}"#).unwrap();
        assert_eq!(DeadlineSpec::parse(&zero).unwrap(), DeadlineSpec::Unbounded);
        let five = serde_json::parse(r#"{"deadline_ms": 5}"#).unwrap();
        assert_eq!(
            DeadlineSpec::parse(&five).unwrap(),
            DeadlineSpec::After(Duration::from_millis(5))
        );

        // Resolution against a config default: absent inherits, 0 pins off.
        let config = ServerConfig::default().default_deadline(Some(Duration::from_millis(50)));
        assert_eq!(
            DeadlineSpec::Default.resolve(&config),
            Some(Duration::from_millis(50))
        );
        assert_eq!(DeadlineSpec::Unbounded.resolve(&config), None);
        assert_eq!(
            DeadlineSpec::After(Duration::from_millis(5)).resolve(&config),
            Some(Duration::from_millis(5))
        );
    }
}
