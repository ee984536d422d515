//! The long-lived serving layer: [`ModelServer`] — a worker pool over a
//! hot-swappable [`FittedModel`], fed by a micro-batching request queue.
//!
//! [`FittedModel::predict`] is a synchronous library call: its throughput is
//! bounded by whatever batch one caller happens to hold. A service front has
//! the opposite shape — **many** concurrent callers, each holding a *single*
//! row — and serving each row as its own call wastes the batch machinery
//! (thread fan-out, scratch reuse) the predict path already has. The server
//! closes that gap:
//!
//! * callers submit single requests ([`ModelServer::submit_row`] and
//!   friends) and get back a [`PredictTicket`] to wait on — an
//!   `async`-shaped API built on the offline shims (std threads + channels,
//!   no tokio);
//! * requests land in a bounded [`MicroBatchQueue`] whose consumers pop
//!   **coalesced batches**: the first request opens a short
//!   [`ServerConfig::flush_latency`] window in which concurrent callers'
//!   requests merge, up to [`ServerConfig::max_batch`];
//! * each worker serves its batch against an atomic **snapshot** of the
//!   current model, fanned over the model's `spec.threads` with one reused
//!   scratch per thread — the same shortlisted assignment core as
//!   `FittedModel::predict`, so a served answer is byte-identical to the
//!   library call;
//! * the model behind the server **hot reloads** ([`ModelServer::reload`] /
//!   [`ModelHandle::reload`]): the swap is one generation bump plus an
//!   `Arc` store, in-flight batches finish on the snapshot they started
//!   with, and every [`Prediction`] carries the generation that served it;
//! * [`ModelServer::shutdown`] closes intake (further submits fail with
//!   [`ServeError::ShutDown`]), drains every queued request, and joins the
//!   workers — no ticket is ever left hanging.
//!
//! ```
//! use lshclust::serve::{ModelServer, ServerConfig};
//! use lshclust::{ClusterSpec, Clusterer, Lsh, NumericDataset};
//!
//! let data = NumericDataset::new(1, vec![0.0, 0.2, 0.4, 9.0, 9.2, 9.4]);
//! let spec = ClusterSpec::new(2).lsh(Lsh::SimHash { bands: 8, rows: 2 });
//! let run = Clusterer::new(spec).fit(&data).unwrap();
//!
//! let server = ModelServer::start(run.model.clone(), ServerConfig::default());
//! let ticket = server.submit_point(vec![0.1]).unwrap();   // async-style
//! let prediction = ticket.wait().unwrap();
//! assert_eq!(prediction.cluster, run.assignments[0]);
//! assert_eq!(prediction.generation, 0);                    // initial model
//! server.shutdown();                                       // drains + joins
//! ```

pub mod proto;
pub mod socket;

use crate::model::{FittedModel, ModelError};
use lshclust_categorical::{ClusterId, ValueId};
use lshclust_core::centroid_index::IndexScratch;
use lshclust_core::parallel::{chunked_map, AdaptiveWindow, MicroBatchQueue, QueuePushError};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Shape of a [`ModelServer`]'s worker pool and micro-batching queue.
///
/// All counts clamp to at least 1 at [`ModelServer::start`] (the workspace's
/// `threads(0)` boundary rule) except [`Self::hot_keys`], where 0 genuinely
/// means "no cache". `max_batch: 1` or a zero `flush_latency` disables
/// coalescing: every request is served as its own batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServerConfig {
    /// Worker threads popping batches from the queue.
    pub workers: usize,
    /// Most requests coalesced into one batch.
    pub max_batch: usize,
    /// How long the first request of a batch waits for company before the
    /// batch is flushed to a worker. With [`Self::adaptive_flush`] on (the
    /// default) this is the **ceiling** of a load-scaled window; off, it is
    /// the fixed window every batch waits.
    pub flush_latency: Duration,
    /// Most requests pending in the queue; submissions beyond it fail fast
    /// with [`ServeError::QueueFull`] instead of blocking the caller.
    pub queue_depth: usize,
    /// Deadline applied to requests submitted without their own: a request
    /// older than this when a worker reaches it resolves
    /// [`ServeError::DeadlineExceeded`] instead of being scored. `None`
    /// (the default) means requests wait as long as it takes.
    pub default_deadline: Option<Duration>,
    /// Scale the coalescing window with observed load (each worker's
    /// [`AdaptiveWindow`]): near-zero latency when the queue is shallow,
    /// growing toward [`Self::flush_latency`] under sustained load. `false`
    /// is the fixed-window escape hatch (the pre-adaptive behaviour).
    pub adaptive_flush: bool,
    /// Capacity (entries) of the generation-keyed hot-key prediction cache;
    /// `0` disables it. Identical requests recur heavily under skewed
    /// (Zipfian) traffic, and a cache hit skips the shortlist probe and
    /// scoring entirely while returning — by exact-payload construction —
    /// the same answer the uncached path would.
    pub hot_keys: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            max_batch: 64,
            flush_latency: Duration::from_micros(200),
            queue_depth: 1024,
            default_deadline: None,
            adaptive_flush: true,
            hot_keys: 1024,
        }
    }
}

impl ServerConfig {
    /// Sets the worker count (`0` clamps to 1).
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Sets the coalescing cap (`0` clamps to 1 = no coalescing).
    pub fn max_batch(mut self, n: usize) -> Self {
        self.max_batch = n.max(1);
        self
    }

    /// Sets the coalescing window (zero = flush immediately).
    pub fn flush_latency(mut self, latency: Duration) -> Self {
        self.flush_latency = latency;
        self
    }

    /// Sets the queue bound (`0` clamps to 1).
    pub fn queue_depth(mut self, n: usize) -> Self {
        self.queue_depth = n.max(1);
        self
    }

    /// Sets the default per-request deadline (`None` = unbounded).
    pub fn default_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.default_deadline = deadline;
        self
    }

    /// Turns load-adaptive flush latency on or off (`false` = the fixed
    /// window escape hatch).
    pub fn adaptive_flush(mut self, adaptive: bool) -> Self {
        self.adaptive_flush = adaptive;
        self
    }

    /// Sets the hot-key cache capacity (`0` disables the cache).
    pub fn hot_keys(mut self, entries: usize) -> Self {
        self.hot_keys = entries;
        self
    }

    fn normalized(mut self) -> Self {
        self.workers = self.workers.max(1);
        self.max_batch = self.max_batch.max(1);
        self.queue_depth = self.queue_depth.max(1);
        self
    }
}

/// Why a serving request failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The request queue is at `queue_depth`; the server is shedding load.
    QueueFull,
    /// The server was shut down; no further requests are accepted.
    ShutDown,
    /// The model rejected the request (wrong modality, wrong shape, …).
    Model(ModelError),
    /// The serving side went away without answering (a worker panicked).
    Disconnected,
    /// The request's deadline passed before a worker reached it; it was
    /// skipped, not scored.
    DeadlineExceeded,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::QueueFull => write!(f, "request queue is full (load shed)"),
            ServeError::ShutDown => write!(f, "server is shut down"),
            ServeError::Model(e) => write!(f, "model rejected the request: {e}"),
            ServeError::Disconnected => write!(f, "serving side disconnected without a reply"),
            ServeError::DeadlineExceeded => write!(f, "request deadline passed before serving"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for ServeError {
    fn from(e: ModelError) -> Self {
        ServeError::Model(e)
    }
}

/// A served assignment: the chosen cluster plus the **generation** of the
/// model that produced it (0 for the model the server started with, bumped
/// by every reload) — so callers can tell pre- and post-reload answers
/// apart.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Prediction {
    /// The assigned cluster.
    pub cluster: ClusterId,
    /// Generation of the model snapshot that served this request.
    pub generation: u64,
}

/// One request's payload. String rows stay raw until serving time so they
/// are encoded under the schema of the model snapshot that actually answers
/// them (which may be newer than the one live at submit time).
#[derive(Clone)]
enum Payload {
    Row(Vec<ValueId>),
    Point(Vec<f64>),
    Mixed(Vec<ValueId>, Vec<f64>),
    StrRow(PackedRow),
    StrMixed(PackedRow, Vec<f64>),
}

/// A string row in one buffer: the cells' text back to back, plus the end
/// offset of each cell. Packed once where the row enters the server, it
/// moves unchanged through the queue into the hot-key cache. The offsets
/// are part of the row's identity: `["ab","c"]` and `["a","bc"]` share
/// their text but are different rows.
#[derive(Clone, PartialEq, Eq)]
struct PackedRow {
    text: String,
    ends: Vec<usize>,
}

impl PackedRow {
    fn new(cells: &[&str]) -> Self {
        let mut row = Self {
            text: String::with_capacity(cells.iter().map(|c| c.len()).sum()),
            ends: Vec::with_capacity(cells.len()),
        };
        for cell in cells {
            row.text.push_str(cell);
            row.ends.push(row.text.len());
        }
        row
    }

    fn cells(&self) -> Vec<&str> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(start, &end)| &self.text[start..end])
            .collect()
    }
}

struct Request {
    payload: Payload,
    /// Absolute point past which this request must not be scored; `None`
    /// waits forever. Resolved at submit time from the per-request override
    /// or [`ServerConfig::default_deadline`].
    deadline: Option<Instant>,
    reply: mpsc::Sender<Result<Prediction, ServeError>>,
}

/// The waitable half of a submitted request.
///
/// Obtained from the `submit_*` methods; [`Self::wait`] blocks until a
/// worker has served the request (shutdown drains the queue, so every
/// ticket issued before shutdown resolves).
#[must_use = "a ticket resolves to the prediction; drop it and the answer is lost"]
pub struct PredictTicket {
    rx: mpsc::Receiver<Result<Prediction, ServeError>>,
}

impl PredictTicket {
    /// Blocks until the request is served.
    pub fn wait(self) -> Result<Prediction, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Disconnected))
    }

    /// Non-blocking poll: `None` while the request is still in flight. A
    /// request that can no longer be answered (its serving side went away)
    /// resolves to `Some(Err(ServeError::Disconnected))` rather than
    /// pretending to be in flight forever.
    pub fn try_wait(&self) -> Option<Result<Prediction, ServeError>> {
        match self.rx.try_recv() {
            Ok(result) => Some(result),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServeError::Disconnected)),
        }
    }

    /// Blocks at most `timeout` for the request to be served; `None` means
    /// it is still in flight (the ticket stays waitable). A dead serving
    /// side resolves to `Some(Err(ServeError::Disconnected))` — this is the
    /// variant CLI writer loops use so a wedged worker pool can never block
    /// a caller forever.
    pub fn wait_deadline(&self, timeout: Duration) -> Option<Result<Prediction, ServeError>> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => Some(result),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(ServeError::Disconnected)),
        }
    }
}

struct Current {
    generation: u64,
    model: Arc<FittedModel>,
}

/// A shared, atomically swappable reference to the model being served.
///
/// Cloning the handle is cheap (one `Arc`); every clone sees the same
/// current model. [`Self::reload`] swaps it for all holders at once —
/// workers snapshot per batch, so in-flight batches finish on the model
/// they started with while the very next batch sees the new one. This is
/// the hot-reload primitive behind [`ModelServer::reload`], exposed
/// separately so a control plane (e.g. the `cluster serve` stdin loop) can
/// swap models without holding the server itself.
#[derive(Clone)]
pub struct ModelHandle {
    current: Arc<RwLock<Current>>,
}

impl ModelHandle {
    /// Wraps `model` as generation 0.
    pub fn new(model: FittedModel) -> Self {
        Self {
            current: Arc::new(RwLock::new(Current {
                generation: 0,
                model: Arc::new(model),
            })),
        }
    }

    /// The current generation (0 until the first reload).
    pub fn generation(&self) -> u64 {
        self.current.read().expect("model lock").generation
    }

    /// A snapshot of the current model — stays valid (and unchanged) across
    /// concurrent reloads.
    pub fn model(&self) -> Arc<FittedModel> {
        self.snapshot().1
    }

    fn snapshot(&self) -> (u64, Arc<FittedModel>) {
        let current = self.current.read().expect("model lock");
        (current.generation, Arc::clone(&current.model))
    }

    /// Atomically swaps in `model` and returns the new generation. Requests
    /// already being served finish against their snapshot; requests served
    /// after the swap see `model`.
    pub fn reload(&self, model: FittedModel) -> u64 {
        let mut current = self.current.write().expect("model lock");
        current.generation += 1;
        current.model = Arc::new(model);
        current.generation
    }

    /// [`Self::reload`] from a serialized model envelope (the versioned JSON
    /// of [`FittedModel::to_json`]); the envelope is parsed and validated
    /// **in full before the write lock is taken**, so a bad artifact can
    /// never take down a healthy server — the generation only moves when a
    /// complete, valid model is ready to swap in.
    pub fn reload_from_json(&self, json: &str) -> Result<u64, ModelError> {
        let model = FittedModel::from_json(json)?;
        Ok(self.reload(model))
    }

    /// [`Self::reload`] from serialized envelope bytes, sniffing v1 JSON vs
    /// the v2 binary format ([`FittedModel::from_bytes`]). Same guarantee as
    /// [`Self::reload_from_json`]: decode fails ⇒ no swap, no generation
    /// bump. The v2 path is the one to reach for under load — its decode
    /// copies the index's flat band-key buffers instead of re-hashing every
    /// centroid, so the pause before the swap shrinks with it.
    pub fn reload_from_bytes(&self, bytes: &[u8]) -> Result<u64, ModelError> {
        let model = FittedModel::from_bytes(bytes)?;
        Ok(self.reload(model))
    }

    /// [`Self::reload_from_bytes`] straight from a file path (either
    /// envelope format). Read or decode fails ⇒ no swap, no generation bump.
    pub fn reload_from_path<P: AsRef<std::path::Path>>(&self, path: P) -> Result<u64, ModelError> {
        let model = FittedModel::load(path)?;
        Ok(self.reload(model))
    }
}

/// Observable counters of the hot-key cache (see
/// [`ModelServer::hot_key_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HotKeyStats {
    /// Requests answered straight from the cache (no shortlist probe, no
    /// scoring).
    pub hits: u64,
    /// Requests that went through the full predict path (including every
    /// request when the cache is disabled).
    pub misses: u64,
    /// Entries currently cached.
    pub entries: usize,
}

/// Ticket accounting (see [`ModelServer::ticket_stats`]): with the server
/// drained, `submitted == resolved` — anything else means an orphaned
/// ticket, which the fault-injection suite treats as a hard failure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TicketStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests replied to (served, failed, deadline-skipped, or failed by
    /// a panicking worker — every accepted request ends up here).
    pub resolved: u64,
}

/// Exact-query memo from payload to cluster, keyed by model generation.
///
/// **Why exact payloads and not just band signatures:** two distinct rows
/// can share a band signature yet have different nearest centroids, so a
/// signature-keyed map could serve the wrong cluster. Keying by the full
/// payload (hash + stored-copy equality check, `f64` compared by bits)
/// makes a hit *by construction* return exactly what the uncached path
/// computed for that payload on this generation — byte-identical answers.
///
/// **Invalidation:** every entry belongs to the generation recorded in the
/// guarded state. A lookup or insert under a *newer* generation wipes the
/// map first; one under an *older* generation (an in-flight batch racing a
/// reload) is refused so stale answers can never be cached or served.
///
/// String payloads are cached too: encoding is deterministic under a fixed
/// schema, and the generation guard pins the schema.
struct HotKeyCache {
    capacity: usize,
    state: Mutex<HotKeyState>,
    hits: AtomicU64,
    misses: AtomicU64,
}

struct HotKeyState {
    generation: u64,
    map: HashMap<u64, (Payload, ClusterId)>,
}

impl HotKeyCache {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            state: Mutex::new(HotKeyState {
                generation: 0,
                map: HashMap::new(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Aligns `state` to `generation`; `false` means the caller runs on an
    /// older snapshot than the cache has seen and must not touch the map.
    fn align(state: &mut HotKeyState, generation: u64) -> bool {
        if state.generation < generation {
            state.map.clear();
            state.generation = generation;
        }
        state.generation == generation
    }

    fn lookup(&self, generation: u64, payload: &Payload) -> Option<ClusterId> {
        if self.capacity == 0 {
            return None;
        }
        let key = payload_key(payload);
        let mut state = self.state.lock().expect("hot-key lock");
        let hit = if Self::align(&mut state, generation) {
            match state.map.get(&key) {
                Some((stored, cluster)) if payload_eq(stored, payload) => Some(*cluster),
                _ => None,
            }
        } else {
            None
        };
        drop(state);
        match hit {
            Some(cluster) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(cluster)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    #[cfg(test)]
    fn insert(&self, generation: u64, payload: &Payload, cluster: ClusterId) {
        self.store(generation, payload.clone(), cluster);
    }

    /// Caches `payload`'s answer, taking the payload itself as the stored
    /// copy.
    fn store(&self, generation: u64, payload: Payload, cluster: ClusterId) {
        if self.capacity == 0 {
            return;
        }
        let key = payload_key(&payload);
        let mut state = self.state.lock().expect("hot-key lock");
        if !Self::align(&mut state, generation) {
            return; // older snapshot than the cache: never poison it
        }
        if state.map.len() >= self.capacity && !state.map.contains_key(&key) {
            // Wholesale reset at capacity: hot keys repopulate in a few
            // requests, and it keeps the map allocation bounded without
            // tracking recency.
            state.map.clear();
        }
        state.map.insert(key, (payload, cluster));
    }

    fn stats(&self) -> HotKeyStats {
        HotKeyStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.state.lock().expect("hot-key lock").map.len(),
        }
    }
}

/// FNV-1a over the payload's modality tag and content (`f64` by bit
/// pattern, matching [`payload_eq`]).
fn payload_key(payload: &Payload) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    struct Fnv(u64);
    impl Fnv {
        fn word(&mut self, word: u64) {
            for byte in word.to_le_bytes() {
                self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(PRIME);
            }
        }
        fn row(&mut self, row: &PackedRow) {
            for &byte in row.text.as_bytes() {
                self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(PRIME);
            }
            row.ends.iter().for_each(|&end| self.word(end as u64));
            self.word(row.ends.len() as u64);
        }
    }
    let mut h = Fnv(OFFSET);
    match payload {
        Payload::Row(row) => {
            h.word(1);
            row.iter().for_each(|v| h.word(u64::from(v.0)));
        }
        Payload::Point(point) => {
            h.word(2);
            point.iter().for_each(|x| h.word(x.to_bits()));
        }
        Payload::Mixed(row, point) => {
            h.word(3);
            row.iter().for_each(|v| h.word(u64::from(v.0)));
            h.word(row.len() as u64);
            point.iter().for_each(|x| h.word(x.to_bits()));
        }
        Payload::StrRow(row) => {
            h.word(4);
            h.row(row);
        }
        Payload::StrMixed(row, point) => {
            h.word(5);
            h.row(row);
            point.iter().for_each(|x| h.word(x.to_bits()));
        }
    }
    h.0
}

/// Exact payload equality with `f64` compared by bit pattern (`NaN`s with
/// identical bits are "the same request"; `0.0 != -0.0` — stricter than
/// `==`, which is the safe direction for a cache key).
fn payload_eq(a: &Payload, b: &Payload) -> bool {
    fn bits_eq(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }
    match (a, b) {
        (Payload::Row(a), Payload::Row(b)) => a == b,
        (Payload::Point(a), Payload::Point(b)) => bits_eq(a, b),
        (Payload::Mixed(ar, ap), Payload::Mixed(br, bp)) => ar == br && bits_eq(ap, bp),
        (Payload::StrRow(a), Payload::StrRow(b)) => a == b,
        (Payload::StrMixed(ar, ap), Payload::StrMixed(br, bp)) => ar == br && bits_eq(ap, bp),
        _ => false,
    }
}

/// The long-lived serving front over a [`FittedModel`]: a worker pool fed by
/// a micro-batching request queue, with atomic hot reload and graceful
/// draining shutdown. See the [module docs](self) for the full lifecycle.
pub struct ModelServer {
    handle: ModelHandle,
    queue: Arc<MicroBatchQueue<Request>>,
    workers: Vec<JoinHandle<()>>,
    config: ServerConfig,
    cache: Arc<HotKeyCache>,
    submitted: AtomicU64,
    resolved: Arc<AtomicU64>,
}

impl ModelServer {
    /// Spawns `config.workers` worker threads serving `model`.
    pub fn start(model: FittedModel, config: ServerConfig) -> Self {
        let config = config.normalized();
        let handle = ModelHandle::new(model);
        let queue = Arc::new(MicroBatchQueue::new(config.queue_depth));
        let cache = Arc::new(HotKeyCache::new(config.hot_keys));
        let resolved = Arc::new(AtomicU64::new(0));
        let workers = (0..config.workers)
            .map(|_| {
                let queue = Arc::clone(&queue);
                let handle = handle.clone();
                let cache = Arc::clone(&cache);
                let resolved = Arc::clone(&resolved);
                std::thread::spawn(move || worker_loop(&queue, &handle, &cache, &resolved, config))
            })
            .collect();
        Self {
            handle,
            queue,
            workers,
            config,
            cache,
            submitted: AtomicU64::new(0),
            resolved,
        }
    }

    /// The normalized configuration in effect.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// A clone of the server's [`ModelHandle`] (for control planes that
    /// reload or inspect the model without owning the server).
    pub fn handle(&self) -> ModelHandle {
        self.handle.clone()
    }

    /// The current model generation.
    pub fn generation(&self) -> u64 {
        self.handle.generation()
    }

    /// A snapshot of the model currently being served.
    pub fn model(&self) -> Arc<FittedModel> {
        self.handle.model()
    }

    /// Hot-reloads the served model without draining in-flight requests;
    /// returns the new generation. See [`ModelHandle::reload`].
    pub fn reload(&self, model: FittedModel) -> u64 {
        self.handle.reload(model)
    }

    /// Requests currently pending in the queue (monitoring; racy by nature).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Hit/miss/occupancy counters of the hot-key cache (all zero when
    /// `hot_keys: 0`; `misses` still counts served requests).
    pub fn hot_key_stats(&self) -> HotKeyStats {
        self.cache.stats()
    }

    /// Submitted-vs-resolved ticket counters. After a drain (shutdown or
    /// `close_intake` + quiesce) the two must be equal; the fault-injection
    /// suite asserts exactly that to prove no injected fault leaks tickets.
    pub fn ticket_stats(&self) -> TicketStats {
        // `submitted` is counted before a request becomes visible to
        // workers (see submit()), and `resolved` is loaded first here, so a
        // snapshot can at worst under-report resolved — it can never show
        // resolved > submitted.
        let resolved = self.resolved.load(Ordering::Acquire);
        TicketStats {
            submitted: self.submitted.load(Ordering::Acquire),
            resolved,
        }
    }

    fn submit(
        &self,
        payload: Payload,
        deadline: Option<Duration>,
    ) -> Result<PredictTicket, ServeError> {
        self.submit_or_return(payload, deadline).map_err(|(e, _)| e)
    }

    /// [`Self::submit`] that hands a refused payload back with the error, so
    /// a caller that retries moves it again instead of copying it.
    fn submit_or_return(
        &self,
        payload: Payload,
        deadline: Option<Duration>,
    ) -> Result<PredictTicket, (ServeError, Payload)> {
        let deadline = deadline.map(|d| Instant::now() + d);
        let (reply, rx) = mpsc::channel();
        // Count before the push: a worker can pop and resolve the request
        // the instant it lands in the queue, and its submission must already
        // be visible by then (`resolved > submitted` must never be
        // observable). Rejected pushes undo the count.
        self.submitted.fetch_add(1, Ordering::Release);
        match self.queue.push(Request {
            payload,
            deadline,
            reply,
        }) {
            Ok(()) => Ok(PredictTicket { rx }),
            Err(QueuePushError::Full(request)) => {
                self.submitted.fetch_sub(1, Ordering::Release);
                Err((ServeError::QueueFull, request.payload))
            }
            Err(QueuePushError::Closed(request)) => {
                self.submitted.fetch_sub(1, Ordering::Release);
                Err((ServeError::ShutDown, request.payload))
            }
        }
    }

    /// Submits one encoded categorical row (values under the model's
    /// training schema).
    pub fn submit_row(&self, row: Vec<ValueId>) -> Result<PredictTicket, ServeError> {
        self.submit(Payload::Row(row), self.config.default_deadline)
    }

    /// [`Self::submit_row`] with an explicit deadline (`None` = wait
    /// forever), overriding [`ServerConfig::default_deadline`].
    pub fn submit_row_deadline(
        &self,
        row: Vec<ValueId>,
        deadline: Option<Duration>,
    ) -> Result<PredictTicket, ServeError> {
        self.submit(Payload::Row(row), deadline)
    }

    /// Submits one numeric point.
    pub fn submit_point(&self, point: Vec<f64>) -> Result<PredictTicket, ServeError> {
        self.submit(Payload::Point(point), self.config.default_deadline)
    }

    /// [`Self::submit_point`] with an explicit deadline (`None` = wait
    /// forever), overriding [`ServerConfig::default_deadline`].
    pub fn submit_point_deadline(
        &self,
        point: Vec<f64>,
        deadline: Option<Duration>,
    ) -> Result<PredictTicket, ServeError> {
        self.submit(Payload::Point(point), deadline)
    }

    /// Submits one mixed item (encoded categorical part + numeric part).
    pub fn submit_mixed(
        &self,
        row: Vec<ValueId>,
        point: Vec<f64>,
    ) -> Result<PredictTicket, ServeError> {
        self.submit(Payload::Mixed(row, point), self.config.default_deadline)
    }

    /// [`Self::submit_mixed`] with an explicit deadline (`None` = wait
    /// forever), overriding [`ServerConfig::default_deadline`].
    pub fn submit_mixed_deadline(
        &self,
        row: Vec<ValueId>,
        point: Vec<f64>,
        deadline: Option<Duration>,
    ) -> Result<PredictTicket, ServeError> {
        self.submit(Payload::Mixed(row, point), deadline)
    }

    /// Submits one raw string row; it is encoded at **serving** time under
    /// the schema of whichever model snapshot answers it, so reloads apply
    /// to queued string rows too.
    pub fn submit_str_row(&self, row: &[&str]) -> Result<PredictTicket, ServeError> {
        self.submit_str_row_deadline(row, self.config.default_deadline)
    }

    /// [`Self::submit_str_row`] with an explicit deadline (`None` = wait
    /// forever), overriding [`ServerConfig::default_deadline`].
    pub fn submit_str_row_deadline(
        &self,
        row: &[&str],
        deadline: Option<Duration>,
    ) -> Result<PredictTicket, ServeError> {
        self.submit(Payload::StrRow(PackedRow::new(row)), deadline)
    }

    /// Submits one raw string row plus a numeric part (mixed models); like
    /// [`Self::submit_str_row`], the categorical part is encoded at
    /// **serving** time under the schema of whichever model snapshot answers
    /// it, so hot reloads apply to queued mixed requests too.
    pub fn submit_str_mixed(
        &self,
        row: &[&str],
        point: Vec<f64>,
    ) -> Result<PredictTicket, ServeError> {
        self.submit_str_mixed_deadline(row, point, self.config.default_deadline)
    }

    /// [`Self::submit_str_mixed`] with an explicit deadline (`None` = wait
    /// forever), overriding [`ServerConfig::default_deadline`].
    pub fn submit_str_mixed_deadline(
        &self,
        row: &[&str],
        point: Vec<f64>,
        deadline: Option<Duration>,
    ) -> Result<PredictTicket, ServeError> {
        self.submit(Payload::StrMixed(PackedRow::new(row), point), deadline)
    }

    /// Submit-and-wait convenience for [`Self::submit_row`].
    pub fn predict_row(&self, row: Vec<ValueId>) -> Result<Prediction, ServeError> {
        self.submit_row(row)?.wait()
    }

    /// Submit-and-wait convenience for [`Self::submit_point`].
    pub fn predict_point(&self, point: Vec<f64>) -> Result<Prediction, ServeError> {
        self.submit_point(point)?.wait()
    }

    /// Submit-and-wait convenience for [`Self::submit_mixed`].
    pub fn predict_mixed(
        &self,
        row: Vec<ValueId>,
        point: Vec<f64>,
    ) -> Result<Prediction, ServeError> {
        self.submit_mixed(row, point)?.wait()
    }

    /// Submit-and-wait convenience for [`Self::submit_str_row`].
    pub fn predict_str_row(&self, row: &[&str]) -> Result<Prediction, ServeError> {
        self.submit_str_row(row)?.wait()
    }

    /// Submit-and-wait convenience for [`Self::submit_str_mixed`].
    pub fn predict_str_mixed(
        &self,
        row: &[&str],
        point: Vec<f64>,
    ) -> Result<Prediction, ServeError> {
        self.submit_str_mixed(row, point)?.wait()
    }

    /// Lame-duck mode: closes intake **without** consuming the server —
    /// further submits fail with [`ServeError::ShutDown`] while
    /// already-accepted requests keep draining. The first half of
    /// [`Self::shutdown`], useful when a daemon wants to refuse new work
    /// before its final drain.
    pub fn close_intake(&self) {
        self.queue.close();
    }

    /// Graceful shutdown: closes intake (further submits fail with
    /// [`ServeError::ShutDown`]), lets the workers **drain every queued
    /// request**, and joins them. Dropping the server does the same, so a
    /// ticket issued before shutdown always resolves.
    pub fn shutdown(self) {
        // Drop runs the close-drain-join sequence.
    }
}

impl Drop for ModelServer {
    fn drop(&mut self) {
        self.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Below this batch size a worker serves inline with its cached scratch;
/// spawning `spec.threads` scoped workers costs tens of microseconds, which
/// only amortizes over batches with real work in them.
const FAN_OUT_MIN_BATCH: usize = 17;

/// How a single popped request resolved inside a batch.
#[derive(Clone)]
enum Served {
    /// Served through the full predict path (cacheable on success).
    Scored(Result<ClusterId, ModelError>),
    /// Answered from the hot-key cache (already known correct for this
    /// generation; re-inserting would be a wasted lock).
    CacheHit(ClusterId),
    /// Deadline already passed at pop time: skipped, not scored.
    Expired,
}

/// One worker: pop a coalesced batch, snapshot the model, serve it — inline
/// with a reused worker-local scratch for small batches, fanned over the
/// model's `spec.threads` (one scratch per thread) for large ones — and
/// reply per request. Expired requests are skipped (never scored), cache
/// hits skip scoring, and fresh scored answers populate the cache. A panic
/// while serving fails that batch's tickets with
/// [`ServeError::Disconnected`] and keeps the worker alive, so requests
/// still in the queue are never orphaned. Exits when the queue is closed
/// and drained.
fn worker_loop(
    queue: &MicroBatchQueue<Request>,
    handle: &ModelHandle,
    cache: &HotKeyCache,
    resolved: &AtomicU64,
    config: ServerConfig,
) {
    let mut batch: Vec<Request> = Vec::new();
    // Worker-local scratch reused across batches, keyed by the generation it
    // was built against (a reload can change k, schema, even modality).
    let mut cached: Option<(u64, IndexScratch)> = None;
    // Per-worker flush-window controller: each worker sees its own share of
    // the load, which is exactly the signal its window should follow.
    let mut window = AdaptiveWindow::new();
    loop {
        let flush = if config.adaptive_flush {
            window.window(config.flush_latency)
        } else {
            config.flush_latency
        };
        if !queue.pop_batch(&mut batch, config.max_batch, flush) {
            break;
        }
        window.observe(batch.len(), config.max_batch);
        let now = Instant::now();
        let (generation, model) = handle.snapshot();
        let threads = model.spec().threads;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if threads > 1 && batch.len() >= FAN_OUT_MIN_BATCH {
                chunked_map(
                    batch.len(),
                    threads,
                    || model.scratch(),
                    |i, scratch| {
                        Some(serve_request(
                            &model,
                            cache,
                            generation,
                            now,
                            &batch[i as usize],
                            scratch,
                        ))
                    },
                )
                .into_iter()
                .map(|slot| slot.expect("chunked_map fills every slot"))
                .collect::<Vec<_>>()
            } else {
                let scratch = match &mut cached {
                    Some((cached_generation, scratch)) if *cached_generation == generation => {
                        scratch
                    }
                    slot => {
                        *slot = Some((generation, model.scratch()));
                        &mut slot.as_mut().expect("just set").1
                    }
                };
                batch
                    .iter()
                    .map(|request| serve_request(&model, cache, generation, now, request, scratch))
                    .collect()
            }
        }));
        match outcome {
            Ok(results) => {
                for (request, served) in batch.drain(..).zip(results) {
                    let reply = match served {
                        Served::Scored(Ok(cluster)) => {
                            cache.store(generation, request.payload, cluster);
                            Ok(Prediction {
                                cluster,
                                generation,
                            })
                        }
                        Served::CacheHit(cluster) => Ok(Prediction {
                            cluster,
                            generation,
                        }),
                        Served::Scored(Err(e)) => Err(ServeError::Model(e)),
                        Served::Expired => Err(ServeError::DeadlineExceeded),
                    };
                    resolved.fetch_add(1, Ordering::Release);
                    // The caller may have dropped its ticket; its business.
                    let _ = request.reply.send(reply);
                }
            }
            Err(_) => {
                // Serving this batch panicked (a model-internals bug): fail
                // these tickets explicitly, drop the possibly-corrupt
                // cached scratch, and keep the worker alive — otherwise
                // requests still in the queue would hang forever.
                cached = None;
                for request in batch.drain(..) {
                    resolved.fetch_add(1, Ordering::Release);
                    let _ = request.reply.send(Err(ServeError::Disconnected));
                }
            }
        }
    }
}

/// Serves one popped request: deadline check first (an expired request must
/// not burn scoring work), then the hot-key cache, then the full predict
/// path.
fn serve_request(
    model: &FittedModel,
    cache: &HotKeyCache,
    generation: u64,
    now: Instant,
    request: &Request,
    scratch: &mut IndexScratch,
) -> Served {
    if request.deadline.is_some_and(|deadline| deadline <= now) {
        return Served::Expired;
    }
    if let Some(cluster) = cache.lookup(generation, &request.payload) {
        return Served::CacheHit(cluster);
    }
    Served::Scored(serve_one(model, &request.payload, scratch))
}

fn serve_one(
    model: &FittedModel,
    payload: &Payload,
    scratch: &mut IndexScratch,
) -> Result<ClusterId, ModelError> {
    let encode = |row: &PackedRow| model.encode_row(&row.cells());
    match payload {
        Payload::Row(row) => model.assign(Some(row), None, scratch),
        Payload::Point(point) => model.assign(None, Some(point), scratch),
        Payload::Mixed(row, point) => model.assign(Some(row), Some(point), scratch),
        Payload::StrRow(row) => model.assign(Some(&encode(row)?), None, scratch),
        Payload::StrMixed(row, point) => model.assign(Some(&encode(row)?), Some(point), scratch),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterSpec, Clusterer, DatasetBuilder, Lsh, NumericDataset};

    fn categorical_model(seed: u64) -> (crate::ClusterRun, crate::Dataset) {
        let mut b = DatasetBuilder::anonymous(3);
        for row in [
            ["a", "b", "c"],
            ["a", "b", "d"],
            ["a", "b", "e"],
            ["x", "y", "z"],
            ["x", "y", "w"],
            ["x", "y", "v"],
        ] {
            b.push_str_row(&row, None).unwrap();
        }
        let ds = b.finish();
        let spec = ClusterSpec::new(2)
            .lsh(Lsh::MinHash { bands: 8, rows: 2 })
            .seed(seed);
        let run = Clusterer::new(spec).fit(&ds).unwrap();
        (run, ds)
    }

    #[test]
    fn served_rows_match_the_library_predict() {
        let (run, ds) = categorical_model(1);
        let server = ModelServer::start(run.model.clone(), ServerConfig::default());
        for i in 0..ds.n_items() {
            let served = server.predict_row(ds.row(i).to_vec()).unwrap();
            assert_eq!(served.cluster, run.model.predict_one(ds.row(i)).unwrap());
            assert_eq!(served.generation, 0);
        }
        server.shutdown();
    }

    #[test]
    fn str_rows_and_modality_errors_round_trip() {
        let (run, _) = categorical_model(2);
        let server = ModelServer::start(run.model.clone(), ServerConfig::default());
        let served = server.predict_str_row(&["a", "b", "q"]).unwrap();
        assert_eq!(
            served.cluster,
            run.model.predict_str_row(&["a", "b", "q"]).unwrap()
        );
        // Wrong modality surfaces through the ticket as a typed error.
        match server.predict_point(vec![1.0]) {
            Err(ServeError::Model(ModelError::WrongModality { .. })) => {}
            other => panic!("expected WrongModality, got {other:?}"),
        }
        // Wrong arity too.
        match server.predict_str_row(&["a"]) {
            Err(ServeError::Model(ModelError::ShapeMismatch { .. })) => {}
            other => panic!("expected ShapeMismatch, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn reload_bumps_generation_and_swaps_answers() {
        let data = NumericDataset::new(1, vec![0.0, 0.1, 9.0, 9.1]);
        let spec = ClusterSpec::new(2).lsh(Lsh::SimHash { bands: 8, rows: 2 });
        let run = Clusterer::new(spec.clone()).fit(&data).unwrap();
        let server = ModelServer::start(run.model.clone(), ServerConfig::default());
        let before = server.predict_point(vec![0.05]).unwrap();
        assert_eq!(before.generation, 0);

        // Retrain on shifted data and hot-swap.
        let shifted = NumericDataset::new(1, vec![100.0, 100.1, 900.0, 900.1]);
        let refit = Clusterer::new(spec).fit(&shifted).unwrap();
        assert_eq!(server.reload(refit.model.clone()), 1);
        let after = server.predict_point(vec![100.05]).unwrap();
        assert_eq!(after.generation, 1);
        assert_eq!(after.cluster, refit.model.predict_point(&[100.05]).unwrap());
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_every_submitted_ticket() {
        let (run, ds) = categorical_model(3);
        let server = ModelServer::start(
            run.model.clone(),
            // One worker and a generous window so tickets are still queued
            // when shutdown lands.
            ServerConfig::default()
                .workers(1)
                .max_batch(64)
                .flush_latency(Duration::from_millis(50)),
        );
        let tickets: Vec<_> = (0..ds.n_items())
            .map(|i| server.submit_row(ds.row(i).to_vec()).unwrap())
            .collect();
        server.shutdown();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let served = ticket.wait().expect("drained on shutdown");
            assert_eq!(served.cluster, run.assignments[i]);
        }
    }

    #[test]
    fn try_wait_reports_disconnection_instead_of_pending_forever() {
        // A ticket whose serving side vanished (worker panic) must resolve
        // to Disconnected on poll, not look in-flight forever.
        let (reply, rx) = mpsc::channel::<Result<Prediction, ServeError>>();
        let ticket = PredictTicket { rx };
        assert_eq!(ticket.try_wait(), None, "in flight while the sender lives");
        drop(reply);
        assert_eq!(ticket.try_wait(), Some(Err(ServeError::Disconnected)));
    }

    #[test]
    fn config_clamps_zeroes_like_every_other_boundary() {
        let config = ServerConfig::default()
            .workers(0)
            .max_batch(0)
            .queue_depth(0);
        assert_eq!(
            (config.workers, config.max_batch, config.queue_depth),
            (1, 1, 1)
        );
        let (run, _) = categorical_model(4);
        let server = ModelServer::start(
            run.model,
            ServerConfig {
                workers: 0,
                max_batch: 0,
                flush_latency: Duration::ZERO,
                queue_depth: 0,
                default_deadline: None,
                adaptive_flush: true,
                hot_keys: 0,
            },
        );
        assert_eq!(server.config().workers, 1);
        assert_eq!(server.config().max_batch, 1);
        assert_eq!(server.config().queue_depth, 1);
        assert_eq!(server.config().hot_keys, 0, "0 means disabled, not 1");
        server.shutdown();
    }

    #[test]
    fn hot_key_cache_serves_repeats_without_rescoring() {
        let (run, ds) = categorical_model(5);
        let server = ModelServer::start(
            run.model.clone(),
            ServerConfig::default().workers(1).hot_keys(64),
        );
        let row = ds.row(0).to_vec();
        let first = server.predict_row(row.clone()).unwrap();
        let second = server.predict_row(row.clone()).unwrap();
        assert_eq!(first, second);
        let stats = server.hot_key_stats();
        assert!(stats.hits >= 1, "repeat request should hit: {stats:?}");
        assert!(stats.entries >= 1);
        server.shutdown();
    }

    #[test]
    fn hot_key_cache_refuses_stale_generations() {
        let cache = HotKeyCache::new(8);
        let payload = Payload::Point(vec![1.0, 2.0]);
        cache.insert(0, &payload, ClusterId(3));
        assert_eq!(cache.lookup(0, &payload), Some(ClusterId(3)));
        // A newer generation wipes the map on first contact …
        assert_eq!(cache.lookup(1, &payload), None);
        // … and an older (in-flight pre-reload) snapshot can neither read
        // nor poison it.
        assert_eq!(cache.lookup(0, &payload), None);
        cache.insert(0, &payload, ClusterId(9));
        assert_eq!(cache.lookup(1, &payload), None);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn hot_key_cache_distinguishes_colliding_payload_kinds() {
        // Same numbers, different modality/value paths must never alias.
        let a = Payload::Point(vec![1.0]);
        let b = Payload::Mixed(vec![], vec![1.0]);
        assert!(!payload_eq(&a, &b));
        let cache = HotKeyCache::new(8);
        cache.insert(0, &a, ClusterId(1));
        assert_eq!(cache.lookup(0, &b), None);
        // -0.0 and 0.0 compare equal as f64 but are different bit patterns;
        // the cache must treat them as distinct keys (stricter is safe).
        let zero = Payload::Point(vec![0.0]);
        let negzero = Payload::Point(vec![-0.0]);
        cache.insert(0, &zero, ClusterId(2));
        assert!(!payload_eq(&zero, &negzero));
    }

    #[test]
    fn hot_key_cache_capacity_resets_wholesale() {
        let cache = HotKeyCache::new(2);
        cache.insert(0, &Payload::Point(vec![1.0]), ClusterId(1));
        cache.insert(0, &Payload::Point(vec![2.0]), ClusterId(2));
        assert_eq!(cache.stats().entries, 2);
        // Third distinct key clears the map and inserts itself.
        cache.insert(0, &Payload::Point(vec![3.0]), ClusterId(3));
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(
            cache.lookup(0, &Payload::Point(vec![3.0])),
            Some(ClusterId(3))
        );
    }

    #[test]
    fn packed_rows_with_the_same_text_but_other_cells_never_share_an_entry() {
        let ab_c = PackedRow::new(&["ab", "c"]);
        let a_bc = PackedRow::new(&["a", "bc"]);
        assert_eq!(ab_c.text, a_bc.text);
        assert_eq!(ab_c.cells(), ["ab", "c"]);
        assert_eq!(a_bc.cells(), ["a", "bc"]);
        let payloads = [
            Payload::StrRow(ab_c.clone()),
            Payload::StrRow(a_bc.clone()),
            Payload::StrMixed(ab_c, vec![1.0]),
            Payload::StrMixed(a_bc, vec![1.0]),
        ];
        for (i, a) in payloads.iter().enumerate() {
            for (j, b) in payloads.iter().enumerate() {
                assert_eq!(payload_eq(a, b), i == j, "{i} vs {j}");
                assert_eq!(payload_key(a) == payload_key(b), i == j, "{i} vs {j}");
            }
        }
        let cache = HotKeyCache::new(8);
        cache.insert(0, &payloads[0], ClusterId(1));
        assert_eq!(cache.lookup(0, &payloads[1]), None);
        cache.insert(0, &payloads[1], ClusterId(2));
        assert_eq!(cache.lookup(0, &payloads[0]), Some(ClusterId(1)));
        assert_eq!(cache.lookup(0, &payloads[1]), Some(ClusterId(2)));
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn expired_on_arrival_requests_resolve_deadline_exceeded() {
        let (run, ds) = categorical_model(6);
        let server = ModelServer::start(
            run.model.clone(),
            // A long flush window guarantees the deadline lapses while the
            // request is still queued.
            ServerConfig::default()
                .workers(1)
                .flush_latency(Duration::from_millis(80))
                .adaptive_flush(false),
        );
        let ticket = server
            .submit_row_deadline(ds.row(0).to_vec(), Some(Duration::from_millis(1)))
            .unwrap();
        assert_eq!(ticket.wait(), Err(ServeError::DeadlineExceeded));
        // The skip is per-request: an undeadlined submit still serves.
        assert!(server.predict_row(ds.row(0).to_vec()).is_ok());
        // Both tickets have been waited on, so both are resolved — the
        // deadline skip still counts as a resolution, never a leak.
        let stats = server.ticket_stats();
        assert_eq!((stats.submitted, stats.resolved), (2, 2));
        server.shutdown();
    }

    #[test]
    fn ticket_stats_balance_after_drain() {
        let (run, ds) = categorical_model(7);
        let server = ModelServer::start(run.model, ServerConfig::default().workers(2));
        let tickets: Vec<_> = (0..ds.n_items())
            .map(|i| server.submit_row(ds.row(i).to_vec()).unwrap())
            .collect();
        for ticket in tickets {
            ticket.wait().unwrap();
        }
        let stats = server.ticket_stats();
        assert_eq!(stats.submitted, ds.n_items() as u64);
        assert_eq!(stats.resolved, stats.submitted, "no orphaned tickets");
        server.shutdown();
    }

    #[test]
    fn wait_deadline_times_out_then_still_resolves() {
        let (run, ds) = categorical_model(8);
        let server = ModelServer::start(
            run.model.clone(),
            ServerConfig::default()
                .workers(1)
                .flush_latency(Duration::from_millis(60))
                .adaptive_flush(false),
        );
        let ticket = server.submit_row(ds.row(0).to_vec()).unwrap();
        // First poll lands inside the coalescing window: still in flight.
        assert_eq!(ticket.wait_deadline(Duration::from_millis(1)), None);
        // A bounded wait long past the window must resolve.
        let served = ticket
            .wait_deadline(Duration::from_secs(10))
            .expect("resolves after the flush window")
            .expect("healthy serve");
        assert_eq!(served.cluster, run.assignments[0]);
        server.shutdown();
    }
}
