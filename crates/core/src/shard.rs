//! **Sharded fitting** — the accelerated full fit with its scoring spread
//! over shards that hold the rows, written once for every modality
//! ([`shard_fit`] over [`Modality`]).
//!
//! A [`ShardPlan`] partitions the items into `S` contiguous ranges, and each
//! shard holds only its range's rows. The coordinator runs the unsharded
//! Jacobi fit ([`crate::modality::fit_full`] at `threads > 1`) step for
//! step: it hashes every item into the one item index, keeps the closure
//! cache and its skip test, computes every shortlist, records every move in
//! the index, and computes every centroid update and every cost. Only the
//! best-cluster searches go to the shards:
//!
//! ```text
//!   coordinator                                shard workers (× S)
//!   ───────────                                ───────────────────
//!   Init: each range's rows            ──────▶ hold the rows
//!   AssignFull: centroids              ──────▶ full search over every local item
//!   centroid update, item index        ◀──────  one cluster per local item
//!   each pass: skip scan, shortlists
//!   Pass: centroids, listed items      ──────▶ best of each listed item's
//!         and their candidate lists            candidates
//!   index moves, centroid update, cost ◀──────  one cluster per listed item
//! ```
//!
//! A sharded fit is therefore **byte-identical** to the unsharded Jacobi
//! fit at equal seeds, for any shard count and any thread count, by
//! construction: the coordinator runs the same code, and a shard answers a
//! listed item with the same `best_among` kernel over the same centroids and
//! the same candidate list, in the same order, that the unsharded pass
//! scores in place. An item with an empty shortlist keeps its cluster on the
//! coordinator, as it does unsharded, and is not sent; a round with nothing
//! to score is not sent at all.
//!
//! Everything here is transport-agnostic: [`InProcessTransport`] drives
//! [`ShardWorker`]s in-process, and `lshclust::shard` adds the NDJSON
//! multi-process transport over the same [`ShardRequest`]/[`ShardReply`]
//! types. Capacity comes from the worker processes, each of which holds
//! only its rows.

use crate::framework::{self, AssignOutcome, CentroidModel, Refresh, ShortlistCache};
use crate::mhkmodes::{MhKModesConfig, MhKModesResult};
use crate::modality::{item_index, FitParams, FitResult, Modality};
use crate::parallel::{self, SyncShortlistProvider};
use lshclust_categorical::{ClusterId, Dataset, Schema, ValueId};
use lshclust_kmodes::kmeans::NumericDataset;
use lshclust_kmodes::kprototypes::{MixedDataset, Prototypes};
use lshclust_kmodes::modes::Modes;
use serde::{Deserialize, Error as SerdeError, Serialize, Value};
use std::fmt;
use std::ops::Range;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// A sharded fit failed: a worker reported an error, a transport broke, or a
/// reply violated the protocol. The message carries the failing shard and
/// cause; `lshclust` surfaces it as `SpecError::ShardFailure`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardError(pub String);

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard: {}", self.0)
    }
}

impl std::error::Error for ShardError {}

// ---------------------------------------------------------------------------
// Partitioning
// ---------------------------------------------------------------------------

/// The item partition: `n_items` dealt into `n_shards` contiguous ranges of
/// `ceil(n / S)` items (the last range is shorter; ranges past the items are
/// empty — a plan tolerates more shards than items).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    n_items: usize,
    n_shards: usize,
    chunk: usize,
}

impl ShardPlan {
    /// Plans `n_items` over `n_shards` (clamped to at least 1).
    pub fn new(n_items: usize, n_shards: usize) -> Self {
        let n_shards = n_shards.max(1);
        Self {
            n_items,
            n_shards,
            chunk: n_items.div_ceil(n_shards).max(1),
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// Item range owned by `shard` (possibly empty).
    pub fn range(&self, shard: usize) -> Range<usize> {
        assert!(shard < self.n_shards, "shard {shard} out of range");
        let lo = (shard * self.chunk).min(self.n_items);
        let hi = (lo + self.chunk).min(self.n_items);
        lo..hi
    }

    /// The shard whose range holds `item`.
    fn shard_of(&self, item: usize) -> usize {
        item / self.chunk
    }
}

// ---------------------------------------------------------------------------
// Protocol types
// ---------------------------------------------------------------------------

/// A shard's categorical rows.
#[derive(Clone, Debug, PartialEq)]
pub struct CatShardInit {
    /// Attribute count (local items = `values.len() / n_attrs`).
    pub n_attrs: usize,
    /// Local rows, item-major.
    pub values: Vec<ValueId>,
}

serde::impl_serde_struct!(CatShardInit { n_attrs, values });

/// A shard's numeric rows.
#[derive(Clone, Debug, PartialEq)]
pub struct NumShardInit {
    /// Vector dimensionality.
    pub dim: usize,
    /// Local rows, item-major (`local_items × dim`).
    pub values: Vec<f64>,
}

serde::impl_serde_struct!(NumShardInit { dim, values });

/// The `Init` payload: the shard's rows — categorical only, numeric only,
/// or both for mixed data — and the parameters of its scoring.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardInit {
    /// Cluster count.
    pub k: usize,
    /// Worker-local scoring threads.
    pub threads: usize,
    /// K-Prototypes mixing weight (ignored unless mixed).
    pub gamma: f64,
    /// Categorical side (present for categorical and mixed fits).
    pub categorical: Option<CatShardInit>,
    /// Numeric side (present for numeric and mixed fits).
    pub numeric: Option<NumShardInit>,
}

serde::impl_serde_struct!(ShardInit {
    k,
    threads,
    gamma,
    categorical,
    numeric
});

/// The centroids sent with every scoring round.
#[derive(Clone, Debug, PartialEq)]
pub enum CentroidSet {
    /// Categorical modes.
    Modes(Modes),
    /// Numeric centroids, row-major `k × dim`.
    Means {
        /// Cluster count.
        k: usize,
        /// Dimensionality.
        dim: usize,
        /// The centroid matrix.
        values: Vec<f64>,
    },
    /// Mixed prototypes.
    Prototypes(Prototypes),
}

// External tagging, serde-style, matching the spec enums.
impl Serialize for CentroidSet {
    fn to_value(&self) -> Value {
        match self {
            CentroidSet::Modes(m) => Value::Object(vec![("Modes".to_owned(), m.to_value())]),
            CentroidSet::Means { k, dim, values } => Value::Object(vec![(
                "Means".to_owned(),
                Value::Object(vec![
                    ("k".to_owned(), k.to_value()),
                    ("dim".to_owned(), dim.to_value()),
                    ("values".to_owned(), values.to_value()),
                ]),
            )]),
            CentroidSet::Prototypes(p) => {
                Value::Object(vec![("Prototypes".to_owned(), p.to_value())])
            }
        }
    }
}

impl Deserialize for CentroidSet {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        match variant(v, "CentroidSet")? {
            ("Modes", body) => Ok(CentroidSet::Modes(Modes::from_value(body)?)),
            ("Means", body) => {
                let fields = fields(body, "CentroidSet::Means")?;
                Ok(CentroidSet::Means {
                    k: serde::field(fields, "k", "CentroidSet::Means")?,
                    dim: serde::field(fields, "dim", "CentroidSet::Means")?,
                    values: serde::field(fields, "values", "CentroidSet::Means")?,
                })
            }
            ("Prototypes", body) => Ok(CentroidSet::Prototypes(Prototypes::from_value(body)?)),
            (other, _) => Err(SerdeError(format!("unknown CentroidSet variant `{other}`"))),
        }
    }
}

/// The tag and body of an externally tagged variant: a unit variant is a
/// bare string (its own body), any other a single-entry object.
fn variant<'v>(v: &'v Value, what: &str) -> Result<(&'v str, &'v Value), SerdeError> {
    match (v.as_str(), v.as_object()) {
        (Some(tag), _) => Ok((tag, v)),
        (_, Some([(tag, body)])) => Ok((tag, body)),
        _ => Err(SerdeError::expected("variant", what)),
    }
}

/// The fields of a struct variant's body.
fn fields<'v>(body: &'v Value, what: &str) -> Result<&'v [(String, Value)], SerdeError> {
    body.as_object()
        .ok_or_else(|| SerdeError::expected("object", what))
}

/// Coordinator → worker messages (one NDJSON line each on the multi-process
/// transport).
#[derive(Clone, Debug, PartialEq)]
pub enum ShardRequest {
    /// Hand the worker its item range's rows and scoring parameters.
    Init(ShardInit),
    /// Full-search every local item against the centroids (the set-up pass,
    /// before the item index exists); answered with one cluster per local
    /// item.
    AssignFull {
        /// The current centroids.
        centroids: CentroidSet,
    },
    /// Score the listed items, each among its own candidate clusters;
    /// answered with one cluster per listed item.
    Pass {
        /// The current centroids.
        centroids: CentroidSet,
        /// Local ids of the items to score.
        items: Vec<u32>,
        /// `ends[i]` is where item `i`'s list ends in `candidates`; it
        /// starts where item `i - 1`'s ends (item 0's at 0). Every list is
        /// non-empty.
        ends: Vec<usize>,
        /// The items' candidate lists, back to back.
        candidates: Vec<ClusterId>,
    },
    /// Terminate (multi-process workers exit their loop).
    Shutdown,
}

/// The body of a struct variant in the externally tagged wire form.
fn tagged(tag: &str, fields: Vec<(&str, Value)>) -> Value {
    Value::Object(vec![(
        tag.to_owned(),
        Value::Object(
            fields
                .into_iter()
                .map(|(name, value)| (name.to_owned(), value))
                .collect(),
        ),
    )])
}

impl Serialize for ShardRequest {
    fn to_value(&self) -> Value {
        match self {
            ShardRequest::Init(init) => Value::Object(vec![("Init".to_owned(), init.to_value())]),
            ShardRequest::AssignFull { centroids } => {
                tagged("AssignFull", vec![("centroids", centroids.to_value())])
            }
            ShardRequest::Pass {
                centroids,
                items,
                ends,
                candidates,
            } => tagged(
                "Pass",
                vec![
                    ("centroids", centroids.to_value()),
                    ("items", items.to_value()),
                    ("ends", ends.to_value()),
                    ("candidates", candidates.to_value()),
                ],
            ),
            ShardRequest::Shutdown => Value::String("Shutdown".to_owned()),
        }
    }
}

impl Deserialize for ShardRequest {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        match variant(v, "ShardRequest")? {
            ("Shutdown", _) => Ok(ShardRequest::Shutdown),
            ("Init", body) => Ok(ShardRequest::Init(ShardInit::from_value(body)?)),
            ("AssignFull", body) => {
                let fields = fields(body, "ShardRequest::AssignFull")?;
                Ok(ShardRequest::AssignFull {
                    centroids: serde::field(fields, "centroids", "ShardRequest::AssignFull")?,
                })
            }
            ("Pass", body) => {
                let fields = fields(body, "ShardRequest::Pass")?;
                Ok(ShardRequest::Pass {
                    centroids: serde::field(fields, "centroids", "ShardRequest::Pass")?,
                    items: serde::field(fields, "items", "ShardRequest::Pass")?,
                    ends: serde::field(fields, "ends", "ShardRequest::Pass")?,
                    candidates: serde::field(fields, "candidates", "ShardRequest::Pass")?,
                })
            }
            (other, _) => Err(SerdeError(format!(
                "unknown ShardRequest variant `{other}`"
            ))),
        }
    }
}

/// Worker → coordinator messages.
#[derive(Clone, Debug, PartialEq)]
pub enum ShardReply {
    /// `Init` accepted.
    Ready,
    /// A scoring round's result.
    Update {
        /// The best cluster of each scored item, in request order: every
        /// local item for `AssignFull`, every listed item for `Pass`.
        assignments: Vec<ClusterId>,
    },
    /// `Shutdown` acknowledged; the worker is exiting.
    Done,
    /// The worker could not serve the request.
    Error {
        /// What went wrong.
        message: String,
    },
}

impl Serialize for ShardReply {
    fn to_value(&self) -> Value {
        match self {
            ShardReply::Ready => Value::String("Ready".to_owned()),
            ShardReply::Update { assignments } => {
                tagged("Update", vec![("assignments", assignments.to_value())])
            }
            ShardReply::Done => Value::String("Done".to_owned()),
            ShardReply::Error { message } => tagged("Error", vec![("message", message.to_value())]),
        }
    }
}

impl Deserialize for ShardReply {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        match variant(v, "ShardReply")? {
            ("Ready", _) => Ok(ShardReply::Ready),
            ("Done", _) => Ok(ShardReply::Done),
            ("Update", body) => Ok(ShardReply::Update {
                assignments: serde::field(
                    fields(body, "ShardReply::Update")?,
                    "assignments",
                    "ShardReply::Update",
                )?,
            }),
            ("Error", body) => Ok(ShardReply::Error {
                message: serde::field(
                    fields(body, "ShardReply::Error")?,
                    "message",
                    "ShardReply::Error",
                )?,
            }),
            (other, _) => Err(SerdeError(format!("unknown ShardReply variant `{other}`"))),
        }
    }
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

/// One shard: its rows and the parameters of its scoring. It keeps no fit
/// state between requests. Serves [`ShardRequest`]s; the same type backs
/// both [`InProcessTransport`] and the NDJSON worker loop in
/// `lshclust::shard`.
pub struct ShardWorker {
    categorical: Option<Dataset>,
    numeric: Option<NumericDataset>,
    n_items: usize,
    k: usize,
    threads: usize,
    gamma: f64,
}

/// The item count of `len` item-major values, `width` (named `field`) per
/// item.
fn row_count(side: &str, field: &str, width: usize, len: usize) -> Result<usize, ShardError> {
    if width == 0 {
        return Err(ShardError(format!("{side} init with zero {field}")));
    }
    if !len.is_multiple_of(width) {
        return Err(ShardError(format!(
            "{side} values ({len}) are not a multiple of {field} ({width})"
        )));
    }
    Ok(len / width)
}

impl ShardWorker {
    /// Builds a worker from an `Init` payload, validating shapes.
    pub fn new(init: ShardInit) -> Result<Self, ShardError> {
        if init.k == 0 {
            return Err(ShardError("k must be positive".into()));
        }
        let cat_items = init
            .categorical
            .as_ref()
            .map(|c| row_count("categorical", "n_attrs", c.n_attrs, c.values.len()))
            .transpose()?;
        let num_items = init
            .numeric
            .as_ref()
            .map(|s| row_count("numeric", "dim", s.dim, s.values.len()))
            .transpose()?;
        let n_items = match (cat_items, num_items) {
            (Some(c), Some(s)) if c != s => {
                return Err(ShardError(format!(
                    "categorical items ({c}) disagree with numeric items ({s})"
                )))
            }
            (Some(n), _) | (None, Some(n)) => n,
            (None, None) => return Err(ShardError("init carries no modality".into())),
        };
        // An anonymous schema suffices: the distance kernels only read raw
        // `ValueId`s, and hashing happens on the coordinator.
        Ok(Self {
            categorical: init
                .categorical
                .map(|c| Dataset::from_parts(Schema::anonymous(c.n_attrs), c.values, None)),
            numeric: init.numeric.map(|s| NumericDataset::new(s.dim, s.values)),
            n_items,
            k: init.k,
            threads: init.threads.max(1),
            gamma: init.gamma,
        })
    }

    /// Local item count.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Serves one request. Errors come back as [`ShardReply::Error`] so the
    /// protocol stays uniform across transports; a failed request leaves
    /// the worker as it was.
    pub fn handle(&self, request: ShardRequest) -> ShardReply {
        let result = match request {
            ShardRequest::Init(_) => Err(ShardError("worker already initialised".into())),
            ShardRequest::AssignFull { centroids } => self.score(centroids, None),
            ShardRequest::Pass {
                centroids,
                items,
                ends,
                candidates,
            } => self
                .check_lists(&items, &ends, &candidates)
                .and_then(|()| self.score(centroids, Some((&items, &ends, &candidates)))),
            ShardRequest::Shutdown => return ShardReply::Done,
        };
        match result {
            Ok(assignments) => ShardReply::Update { assignments },
            Err(e) => ShardReply::Error { message: e.0 },
        }
    }

    /// Validates a `Pass`'s lists: local items, one non-empty list each,
    /// clusters below `k`.
    fn check_lists(
        &self,
        items: &[u32],
        ends: &[usize],
        candidates: &[ClusterId],
    ) -> Result<(), ShardError> {
        let n = self.n_items();
        if let Some(item) = items.iter().find(|&&item| item as usize >= n) {
            return Err(ShardError(format!(
                "item {item} is out of range for {n} local items"
            )));
        }
        if ends.len() != items.len() {
            return Err(ShardError(format!(
                "{} list ends for {} items",
                ends.len(),
                items.len()
            )));
        }
        let mut start = 0;
        for (i, &end) in ends.iter().enumerate() {
            if end <= start || end > candidates.len() {
                return Err(ShardError(format!(
                    "list {i} ends at {end} after starting at {start} in {} candidates",
                    candidates.len()
                )));
            }
            start = end;
        }
        if start != candidates.len() {
            return Err(ShardError(format!(
                "lists end at {start} of {} candidates",
                candidates.len()
            )));
        }
        if let Some(c) = candidates.iter().find(|c| c.idx() >= self.k) {
            return Err(ShardError(format!(
                "cluster {} is out of range for k = {}",
                c.0, self.k
            )));
        }
        Ok(())
    }

    fn score(
        &self,
        centroids: CentroidSet,
        lists: Option<(&[u32], &[usize], &[ClusterId])>,
    ) -> Result<Vec<ClusterId>, ShardError> {
        match (&self.categorical, &self.numeric) {
            (Some(cat), None) => self.score_on(cat, centroids, lists),
            (None, Some(num)) => self.score_on(num, centroids, lists),
            (Some(cat), Some(num)) => self.score_on(&MixedDataset::new(cat, num), centroids, lists),
            (None, None) => unreachable!("a worker holds at least one modality"),
        }
    }

    /// The best cluster of every local item over all `k` centroids, or, with
    /// `lists`, of each listed item among its candidates (lists validated).
    fn score_on<D: Modality>(
        &self,
        data: &D,
        centroids: CentroidSet,
        lists: Option<(&[u32], &[usize], &[ClusterId])>,
    ) -> Result<Vec<ClusterId>, ShardError> {
        let model = data.model(data.receive(centroids, self.k)?, self.gamma);
        let Some((items, ends, candidates)) = lists else {
            let mut assignments = vec![ClusterId(0); data.n_items()];
            parallel::assign_full_parallel(&model, &mut assignments, self.threads);
            return Ok(assignments);
        };
        let best = parallel::chunked_map(
            items.len(),
            self.threads,
            || (),
            |i, _| {
                let i = i as usize;
                let start = if i == 0 { 0 } else { ends[i - 1] };
                let list = &candidates[start..ends[i]];
                let (best, _) = model
                    .best_among(items[i], list)
                    .expect("lists are non-empty");
                best.0
            },
        );
        Ok(best.into_iter().map(ClusterId).collect())
    }
}

// ---------------------------------------------------------------------------
// Transports
// ---------------------------------------------------------------------------

/// How the coordinator reaches its shards: one request per shard out, one
/// reply per shard back, in shard order. `lshclust::shard` implements this
/// over child processes speaking NDJSON; [`InProcessTransport`] implements
/// it directly over [`ShardWorker`]s.
pub trait ShardTransport {
    /// Number of shards this transport serves.
    fn n_shards(&self) -> usize;

    /// Delivers `requests[i]` to shard `i` and collects the replies in
    /// shard order. `requests.len()` must equal [`Self::n_shards`].
    fn roundtrip(&mut self, requests: Vec<ShardRequest>) -> Result<Vec<ShardReply>, ShardError>;
}

/// Shards as plain structs in the coordinator's process — no serialization,
/// no processes; the default transport behind `ClusterSpec::shards(s)`.
pub struct InProcessTransport {
    workers: Vec<Option<ShardWorker>>,
}

impl InProcessTransport {
    /// A transport with `n_shards` uninitialised worker slots.
    pub fn new(n_shards: usize) -> Self {
        Self {
            workers: (0..n_shards.max(1)).map(|_| None).collect(),
        }
    }
}

impl ShardTransport for InProcessTransport {
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
        Ok(requests
            .into_iter()
            .zip(&mut self.workers)
            .map(|(request, slot)| match request {
                ShardRequest::Init(init) => match ShardWorker::new(init) {
                    Ok(worker) => {
                        *slot = Some(worker);
                        ShardReply::Ready
                    }
                    Err(e) => ShardReply::Error { message: e.0 },
                },
                other => match slot {
                    Some(worker) => worker.handle(other),
                    None => ShardReply::Error {
                        message: "request before init".to_owned(),
                    },
                },
            })
            .collect())
    }
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

fn expect_ready(replies: Vec<ShardReply>) -> Result<(), ShardError> {
    for (shard, reply) in replies.into_iter().enumerate() {
        match reply {
            ShardReply::Ready => {}
            ShardReply::Error { message } => {
                return Err(ShardError(format!("shard {shard} init failed: {message}")))
            }
            other => {
                return Err(ShardError(format!(
                    "shard {shard} replied {other:?} to init"
                )))
            }
        }
    }
    Ok(())
}

/// A scoring reply's clusters, checked against the `want` items scored and
/// against `k`.
fn expect_update(
    shard: usize,
    reply: ShardReply,
    want: usize,
    k: usize,
) -> Result<Vec<ClusterId>, ShardError> {
    match reply {
        ShardReply::Update { assignments } if assignments.len() != want => {
            Err(ShardError(format!(
                "shard {shard} returned {} assignments for {want} items",
                assignments.len()
            )))
        }
        ShardReply::Update { assignments } => match assignments.iter().find(|c| c.idx() >= k) {
            Some(c) => Err(ShardError(format!(
                "shard {shard} returned cluster {} for k = {k}",
                c.0
            ))),
            None => Ok(assignments),
        },
        ShardReply::Error { message } => {
            Err(ShardError(format!("shard {shard} failed: {message}")))
        }
        other => Err(ShardError(format!(
            "shard {shard} replied {other:?} to a scoring round"
        ))),
    }
}

/// Sends each shard its listed items — the `items` re-evaluated this pass
/// whose cached shortlist is not empty — with their shortlists, and writes
/// each listed item's best candidate into `assignments`. Sends nothing when
/// no item is listed.
fn score_on_shards(
    transport: &mut dyn ShardTransport,
    plan: &ShardPlan,
    centroids: impl FnOnce() -> CentroidSet,
    cache: &ShortlistCache,
    items: &[u32],
    k: usize,
    assignments: &mut [ClusterId],
) -> Result<(), ShardError> {
    let mut listed: Vec<Vec<u32>> = vec![Vec::new(); plan.n_shards()];
    for &item in items {
        if !cache.list(item).is_empty() {
            listed[plan.shard_of(item as usize)].push(item);
        }
    }
    if listed.iter().all(Vec::is_empty) {
        return Ok(());
    }
    let centroids = centroids();
    let requests = listed
        .iter()
        .enumerate()
        .map(|(shard, items)| {
            let first = plan.range(shard).start as u32;
            let mut ends = Vec::with_capacity(items.len());
            let mut candidates = Vec::new();
            for &item in items {
                candidates.extend_from_slice(cache.list(item));
                ends.push(candidates.len());
            }
            ShardRequest::Pass {
                centroids: centroids.clone(),
                items: items.iter().map(|&item| item - first).collect(),
                ends,
                candidates,
            }
        })
        .collect();
    let replies = transport.roundtrip(requests)?;
    for (shard, (reply, items)) in replies.into_iter().zip(&listed).enumerate() {
        let best = expect_update(shard, reply, items.len(), k)?;
        for (&item, c) in items.iter().zip(best) {
            assignments[item as usize] = c;
        }
    }
    Ok(())
}

/// The sharded accelerated full fit, written once for every modality:
/// [`crate::modality::fit_full`] at `threads > 1`, with its full pass and
/// every `best_among` search run on the shards (see the
/// [module docs](self)). Byte-identical to that fit with the same config
/// and centroids, for any shard count; `index_stats` are the coordinator's
/// item index's.
pub fn shard_fit<D: Modality>(
    data: &D,
    cfg: &FitParams,
    centroids: D::Centroids,
    setup_start: Instant,
    transport: &mut dyn ShardTransport,
) -> Result<FitResult<D::Centroids>, ShardError> {
    let n = data.n_items();
    let plan = ShardPlan::new(n, transport.n_shards());
    let inits = (0..plan.n_shards())
        .map(|shard| {
            let range = plan.range(shard);
            ShardRequest::Init(ShardInit {
                k: cfg.k,
                threads: cfg.threads,
                gamma: cfg.gamma,
                categorical: data.categorical().map(|rows| CatShardInit {
                    n_attrs: rows.n_attrs(),
                    values: flatten_cat_rows(rows, range.clone()),
                }),
                numeric: data.numeric().map(|points| NumShardInit {
                    dim: points.dim(),
                    values: flatten_num_rows(points, range.clone()),
                }),
            })
        })
        .collect();
    expect_ready(transport.roundtrip(inits)?)?;

    let mut model = data.model(centroids, cfg.gamma);
    assert_eq!(
        model.k(),
        cfg.k,
        "initial centroids disagree with configured k"
    );
    // Set-up: the full pass on the shards, then `fit_full`'s refresh and
    // item index.
    let full = data.broadcast(model.snapshot_centroids());
    let replies = transport.roundtrip(
        (0..plan.n_shards())
            .map(|_| ShardRequest::AssignFull {
                centroids: full.clone(),
            })
            .collect(),
    )?;
    let mut assignments = Vec::with_capacity(n);
    for (shard, reply) in replies.into_iter().enumerate() {
        assignments.extend(expect_update(shard, reply, plan.range(shard).len(), cfg.k)?);
    }
    let threads = cfg.threads.max(1);
    model.update_centroids_parallel(&assignments, threads);
    let (mut provider, index_stats) = item_index(data, cfg, &assignments);
    let setup = setup_start.elapsed();

    // The Jacobi pass of `parallel::parallel_fit`, with its scoring sent to
    // the shards.
    let mut cache = ShortlistCache::new(n);
    let mut failure = None;
    let run = framework::drive(
        &mut model,
        assignments,
        setup,
        &cfg.stop,
        |model, assignments, activity| {
            if failure.is_some() {
                return AssignOutcome::default();
            }
            let Refresh {
                items,
                entries,
                mut shortlist_total,
                skipped,
            } = cache.refresh(cfg.closures.then_some(activity));
            parallel::map_refreshed(
                &items,
                entries,
                threads,
                cfg.interleaved,
                || provider.make_scratch(),
                |item, out, scratch| provider.shortlist_into(item, scratch, out),
            );
            shortlist_total += items
                .iter()
                .map(|&item| cache.list(item).len())
                .sum::<usize>();
            let mut new_assignments = assignments.clone();
            match score_on_shards(
                transport,
                &plan,
                || data.broadcast(model.snapshot_centroids()),
                &cache,
                &items,
                cfg.k,
                &mut new_assignments,
            ) {
                Ok(()) => AssignOutcome {
                    moves: parallel::apply_moves(&mut provider, assignments, new_assignments),
                    shortlist_total,
                    skipped,
                },
                Err(e) => {
                    failure = Some(e);
                    AssignOutcome::default()
                }
            }
        },
        |model, assignments| model.update_centroids_parallel(assignments, threads),
    );
    if let Some(e) = failure {
        return Err(e);
    }
    Ok(FitResult {
        assignments: run.assignments,
        centroids: D::centroids(model),
        summary: run.summary,
        index_stats,
    })
}

/// Sharded MH-K-Modes from explicit initial modes — [`shard_fit`] over a
/// categorical dataset, byte-identical to
/// [`crate::mhkmodes::MhKModes::fit_from`] at `threads > 1` with the same
/// config and modes.
pub fn shard_mh_kmodes_from(
    dataset: &Dataset,
    cfg: &MhKModesConfig,
    modes: Modes,
    setup_start: Instant,
    transport: &mut dyn ShardTransport,
) -> Result<MhKModesResult, ShardError> {
    shard_fit(dataset, &cfg.lower(), modes, setup_start, transport).map(MhKModesResult::from)
}

fn flatten_cat_rows(dataset: &Dataset, range: Range<usize>) -> Vec<ValueId> {
    let mut values = Vec::with_capacity(range.len() * dataset.n_attrs());
    for item in range {
        values.extend_from_slice(dataset.row(item));
    }
    values
}

fn flatten_num_rows(data: &NumericDataset, range: Range<usize>) -> Vec<f64> {
    let mut values = Vec::with_capacity(range.len() * data.dim());
    for item in range {
        values.extend_from_slice(data.row(item));
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centroid_index::IndexScheme;
    use crate::framework::StopPolicy;
    use crate::mhkmodes::MhKModes;
    use crate::modality::fit_full;
    use lshclust_categorical::DatasetBuilder;
    use lshclust_kmodes::init::{initial_modes, InitMethod};
    use lshclust_kmodes::kmeans::{kmeans_initial_centroids, KMeansInit};
    use lshclust_minhash::Banding;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::collections::BTreeMap;

    fn blob_dataset(groups: usize, per_group: usize, n_attrs: usize) -> Dataset {
        let mut b = DatasetBuilder::anonymous(n_attrs);
        for g in 0..groups {
            for i in 0..per_group {
                let row: Vec<String> = (0..n_attrs)
                    .map(|a| {
                        if a == n_attrs - 1 {
                            format!("g{g}i{i}")
                        } else {
                            format!("g{g}a{a}")
                        }
                    })
                    .collect();
                let refs: Vec<&str> = row.iter().map(String::as_str).collect();
                b.push_str_row(&refs, Some(g as u32)).unwrap();
            }
        }
        b.finish()
    }

    fn blob_numeric(groups: usize, per_group: usize) -> NumericDataset {
        let mut data = Vec::new();
        for g in 0..groups {
            let angle = g as f64 / groups as f64 * std::f64::consts::TAU;
            let (cx, cy) = (10.0 * angle.cos(), 10.0 * angle.sin());
            for i in 0..per_group {
                data.extend_from_slice(&[
                    cx + (i as f64 * 0.37).sin() * 0.3,
                    cy + (i as f64 * 0.71).cos() * 0.3,
                ]);
            }
        }
        NumericDataset::new(2, data)
    }

    #[test]
    fn plan_covers_all_items_without_overlap() {
        for (n, s) in [(10, 1), (10, 3), (10, 4), (3, 8), (0, 2), (1, 1)] {
            let plan = ShardPlan::new(n, s);
            let mut seen = Vec::new();
            for shard in 0..plan.n_shards() {
                for item in plan.range(shard) {
                    assert_eq!(plan.shard_of(item), shard, "n={n} s={s}");
                    seen.push(item);
                }
            }
            assert_eq!(seen, (0..n).collect::<Vec<_>>(), "n={n} s={s}");
        }
    }

    #[test]
    fn in_process_sharded_kmodes_is_byte_identical() {
        let dataset = blob_dataset(3, 10, 4);
        let cfg = MhKModesConfig::new(3, Banding::new(8, 2))
            .seed(11)
            .threads(2);
        let start = Instant::now();
        let modes = initial_modes(&dataset, cfg.k, cfg.init, cfg.seed);
        let unsharded = MhKModes::new(cfg.clone()).fit_from(&dataset, modes.clone(), start);
        for shards in [1usize, 2, 4, 7] {
            let mut transport = InProcessTransport::new(shards);
            let sharded = shard_mh_kmodes_from(
                &dataset,
                &cfg,
                modes.clone(),
                Instant::now(),
                &mut transport,
            )
            .unwrap();
            assert_eq!(
                sharded.assignments, unsharded.assignments,
                "{shards} shards"
            );
            assert_eq!(
                sharded.modes.values(),
                unsharded.modes.values(),
                "{shards} shards"
            );
            assert_eq!(
                sharded.index_stats, unsharded.index_stats,
                "{shards} shards"
            );
            assert_eq!(
                sharded.summary.iterations.len(),
                unsharded.summary.iterations.len()
            );
            for (a, b) in sharded
                .summary
                .iterations
                .iter()
                .zip(&unsharded.summary.iterations)
            {
                assert_eq!((a.moves, a.cost), (b.moves, b.cost));
                assert_eq!(a.avg_candidates, b.avg_candidates);
                assert_eq!(a.skipped_items, b.skipped_items);
            }
        }
    }

    #[test]
    fn in_process_sharded_kmeans_is_byte_identical() {
        let data = blob_numeric(4, 8);
        let scheme = IndexScheme {
            minhash: None,
            simhash: Some((12, 3)),
        };
        let cfg = FitParams {
            threads: 2,
            ..FitParams::new(4, scheme, 3)
        };
        let start = Instant::now();
        let centroids = kmeans_initial_centroids(&data, cfg.k, KMeansInit::RandomItems, cfg.seed);
        let unsharded = fit_full(&data, &cfg, centroids.clone(), start);
        for shards in [2usize, 3] {
            let mut transport = InProcessTransport::new(shards);
            let sharded = shard_fit(
                &data,
                &cfg,
                centroids.clone(),
                Instant::now(),
                &mut transport,
            )
            .unwrap();
            assert_eq!(sharded.assignments, unsharded.assignments);
            assert_eq!(sharded.centroids, unsharded.centroids);
            assert_eq!(sharded.index_stats, unsharded.index_stats);
        }
    }

    #[test]
    fn protocol_types_round_trip_through_values() {
        let reply = ShardReply::Update {
            assignments: vec![ClusterId(0), ClusterId(2)],
        };
        assert_eq!(ShardReply::from_value(&reply.to_value()).unwrap(), reply);
        let request = ShardRequest::Pass {
            centroids: CentroidSet::Means {
                k: 1,
                dim: 2,
                values: vec![0.1 + 0.2, -7.5],
            },
            items: vec![0, 3],
            ends: vec![1, 3],
            candidates: vec![ClusterId(0), ClusterId(0), ClusterId(2)],
        };
        assert_eq!(
            ShardRequest::from_value(&request.to_value()).unwrap(),
            request
        );
        let init = ShardRequest::Init(ShardInit {
            k: 2,
            threads: 1,
            gamma: 0.5,
            categorical: Some(CatShardInit {
                n_attrs: 1,
                values: vec![ValueId(4), ValueId(u32::MAX)],
            }),
            numeric: Some(NumShardInit {
                dim: 1,
                values: vec![1.5, -0.25],
            }),
        });
        assert_eq!(ShardRequest::from_value(&init.to_value()).unwrap(), init);
        assert_eq!(
            ShardRequest::from_value(&ShardRequest::Shutdown.to_value()).unwrap(),
            ShardRequest::Shutdown
        );
        assert_eq!(
            ShardReply::from_value(&ShardReply::Done.to_value()).unwrap(),
            ShardReply::Done
        );
    }

    #[test]
    fn worker_errors_are_replies_not_panics() {
        let mut transport = InProcessTransport::new(2);
        // Wrong request count.
        assert!(transport.roundtrip(vec![ShardRequest::Shutdown]).is_err());
        // Request before init.
        let pass = || ShardRequest::Pass {
            centroids: CentroidSet::Means {
                k: 1,
                dim: 1,
                values: vec![0.0],
            },
            items: vec![0],
            ends: vec![1],
            candidates: vec![ClusterId(0)],
        };
        let replies = transport.roundtrip(vec![pass(), pass()]).unwrap();
        assert!(matches!(&replies[0], ShardReply::Error { .. }));
    }

    /// One `Pass` round as the shards saw it: each listed item, by its
    /// global id, with its candidate list.
    type Round = BTreeMap<u32, Vec<ClusterId>>;

    /// In-process shards that record what the coordinator sends them.
    struct Recorder {
        inner: InProcessTransport,
        plan: ShardPlan,
        inits: Vec<ShardInit>,
        passes: Vec<Round>,
    }

    impl Recorder {
        fn new(n_items: usize, n_shards: usize) -> Self {
            Self {
                inner: InProcessTransport::new(n_shards),
                plan: ShardPlan::new(n_items, n_shards),
                inits: Vec::new(),
                passes: Vec::new(),
            }
        }
    }

    impl ShardTransport for Recorder {
        fn n_shards(&self) -> usize {
            self.inner.n_shards()
        }

        fn roundtrip(
            &mut self,
            requests: Vec<ShardRequest>,
        ) -> Result<Vec<ShardReply>, ShardError> {
            let mut round = Round::new();
            for (shard, request) in requests.iter().enumerate() {
                match request {
                    ShardRequest::Init(init) => self.inits.push(init.clone()),
                    ShardRequest::Pass {
                        items,
                        ends,
                        candidates,
                        ..
                    } => {
                        let first = self.plan.range(shard).start as u32;
                        let mut start = 0;
                        for (&item, &end) in items.iter().zip(ends) {
                            round.insert(first + item, candidates[start..end].to_vec());
                            start = end;
                        }
                        assert_eq!(start, candidates.len(), "no candidate outside a list");
                    }
                    _ => {}
                }
            }
            if matches!(requests[0], ShardRequest::Pass { .. }) {
                self.passes.push(round);
            }
            self.inner.roundtrip(requests)
        }
    }

    /// Fits `data` over `shards` with closures on and off, and checks what
    /// went over the wire: rows only at `Init`; a `Pass` round per
    /// iteration that re-evaluated an item and none for the others; each
    /// round listing exactly the re-evaluated items, with the candidate
    /// lists of the closure-free run, whose lists add up to its shortlist
    /// total.
    fn check_traffic<D: Modality>(data: &D, cfg: FitParams, centroids: D::Centroids, shards: usize)
    where
        D::Centroids: PartialEq + fmt::Debug,
    {
        let n = data.n_items();
        let mut runs = Vec::new();
        for closures in [false, true] {
            let cfg = FitParams {
                closures,
                ..cfg.clone()
            };
            let mut recorder = Recorder::new(n, shards);
            let fit =
                shard_fit(data, &cfg, centroids.clone(), Instant::now(), &mut recorder).unwrap();
            let unsharded = fit_full(data, &cfg, centroids.clone(), Instant::now());
            assert_eq!(fit.assignments, unsharded.assignments);
            assert_eq!(fit.centroids, unsharded.centroids);

            // Init carries the rows of each range and nothing else.
            assert_eq!(recorder.inits.len(), shards);
            for (shard, init) in recorder.inits.iter().enumerate() {
                let range = recorder.plan.range(shard);
                let Value::Object(fields) = init.to_value() else {
                    panic!("Init is an object");
                };
                let keys: Vec<&str> = fields.iter().map(|(key, _)| key.as_str()).collect();
                assert_eq!(keys, ["k", "threads", "gamma", "categorical", "numeric"]);
                if let Some(rows) = data.categorical() {
                    let side = init.categorical.as_ref().expect("categorical rows");
                    assert_eq!(side.values, flatten_cat_rows(rows, range.clone()));
                }
                if let Some(points) = data.numeric() {
                    let side = init.numeric.as_ref().expect("numeric rows");
                    assert_eq!(side.values, flatten_num_rows(points, range.clone()));
                }
            }

            // One round per iteration with an item to re-evaluate, listing
            // exactly those items.
            let iterations = &fit.summary.iterations;
            let busy: Vec<_> = iterations.iter().filter(|s| s.skipped_items < n).collect();
            assert_eq!(recorder.passes.len(), busy.len(), "closures {closures}");
            for (round, stats) in recorder.passes.iter().zip(&busy) {
                assert_eq!(round.len(), n - stats.skipped_items, "closures {closures}");
                assert!(round.values().all(|list| !list.is_empty()));
            }
            if !closures {
                assert!(iterations.iter().all(|s| s.skipped_items == 0));
                for (round, stats) in recorder.passes.iter().zip(iterations) {
                    let total: usize = round.values().map(Vec::len).sum();
                    assert_eq!(total as f64 / n as f64, stats.avg_candidates);
                }
            } else {
                assert!(
                    busy.len() < iterations.len(),
                    "an idle iteration sends no round"
                );
                assert!(busy.iter().any(|s| s.skipped_items > 0));
            }
            runs.push((iterations.clone(), recorder.passes));
        }
        // The closure run's rounds list the closure-free run's candidate
        // lists, pass for pass.
        let [(off_stats, off_rounds), (on_stats, on_rounds)] = <[_; 2]>::try_from(runs).unwrap();
        assert_eq!(off_stats.len(), on_stats.len());
        let mut on_rounds = on_rounds.into_iter();
        for (stats, off_round) in on_stats.iter().zip(off_rounds) {
            if stats.skipped_items == n {
                continue;
            }
            let on_round = on_rounds.next().expect("a round per busy iteration");
            for (item, list) in &on_round {
                assert_eq!(Some(list), off_round.get(item), "item {item}");
            }
        }
    }

    /// Runs to the cap without stopping, so that late iterations skip every
    /// item.
    fn no_stop(k: usize, scheme: IndexScheme, seed: u64) -> FitParams {
        FitParams {
            threads: 2,
            stop: StopPolicy {
                max_iterations: 8,
                stop_on_no_moves: false,
                stop_on_cost_increase: false,
            },
            ..FitParams::new(k, scheme, seed)
        }
    }

    /// `groups × per_group` rows whose cells keep their group's value with
    /// probability 0.6 and draw one of five others otherwise, so that the
    /// fit takes several passes and later passes touch few clusters.
    fn noisy_groups(groups: usize, per_group: usize, seed: u64) -> (Dataset, NumericDataset) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = DatasetBuilder::anonymous(6);
        let mut points = Vec::new();
        for g in 0..groups {
            for _ in 0..per_group {
                let row: Vec<String> = (0..6)
                    .map(|a| match rng.random_range(0..10) {
                        0..6 => format!("g{g}a{a}"),
                        other => format!("n{other}a{a}"),
                    })
                    .collect();
                let refs: Vec<&str> = row.iter().map(String::as_str).collect();
                b.push_str_row(&refs, None).unwrap();
                points.extend([
                    g as f64 + rng.random_range(-0.8..0.8),
                    rng.random_range(-1.0..1.0),
                ]);
            }
        }
        (b.finish(), NumericDataset::new(2, points))
    }

    #[test]
    fn categorical_passes_send_only_what_the_closures_leave() {
        let (data, _) = noisy_groups(6, 12, 3);
        let scheme = IndexScheme {
            minhash: Some(Banding::new(8, 2)),
            simhash: None,
        };
        let modes = initial_modes(&data, 6, InitMethod::RandomItems, 5);
        check_traffic(&data, no_stop(6, scheme, 5), modes, 3);
    }

    #[test]
    fn mixed_passes_send_only_what_the_closures_leave() {
        let (cat, num) = noisy_groups(6, 12, 4);
        let data = MixedDataset::new(&cat, &num);
        let scheme = IndexScheme {
            minhash: Some(Banding::new(8, 2)),
            simhash: Some((6, 3)),
        };
        let prototypes = Prototypes::from_items(&data, &[0, 5, 10, 15, 20, 25]);
        let cfg = FitParams {
            gamma: 0.5,
            ..no_stop(6, scheme, 7)
        };
        check_traffic(&data, cfg, prototypes, 2);
    }

    /// A corruption of a scoring reply.
    type Rewrite = fn(&mut Vec<ClusterId>);

    /// In-process shards whose `round`-th scoring reply is rewritten.
    struct Tamper {
        inner: InProcessTransport,
        round: usize,
        rounds: usize,
        rewrite: Rewrite,
    }

    impl ShardTransport for Tamper {
        fn n_shards(&self) -> usize {
            self.inner.n_shards()
        }

        fn roundtrip(
            &mut self,
            requests: Vec<ShardRequest>,
        ) -> Result<Vec<ShardReply>, ShardError> {
            let scoring = !matches!(requests[0], ShardRequest::Init(_));
            let mut replies = self.inner.roundtrip(requests)?;
            if scoring {
                if self.rounds == self.round {
                    if let ShardReply::Update { assignments } = &mut replies[0] {
                        (self.rewrite)(assignments);
                    }
                }
                self.rounds += 1;
            }
            Ok(replies)
        }
    }

    #[test]
    fn bad_replies_are_typed_errors() {
        let dataset = blob_dataset(3, 10, 4);
        let cfg = MhKModesConfig::new(3, Banding::new(8, 2))
            .seed(11)
            .threads(2);
        let modes = initial_modes(&dataset, cfg.k, cfg.init, cfg.seed);
        let rewrites: [(Rewrite, &str); 3] = [
            (
                |a| {
                    a.pop();
                },
                "assignments for",
            ),
            (|a| a.push(ClusterId(0)), "assignments for"),
            (|a| a[0] = ClusterId(3), "cluster 3 for k = 3"),
        ];
        // Round 0 is the set-up pass, round 1 the first shortlisted one.
        for round in [0, 1] {
            for (rewrite, want) in rewrites {
                let mut transport = Tamper {
                    inner: InProcessTransport::new(2),
                    round,
                    rounds: 0,
                    rewrite,
                };
                let err = shard_mh_kmodes_from(
                    &dataset,
                    &cfg,
                    modes.clone(),
                    Instant::now(),
                    &mut transport,
                )
                .expect_err("a typed error");
                assert!(err.0.contains(want), "round {round}: {err}");
            }
        }
    }
}
