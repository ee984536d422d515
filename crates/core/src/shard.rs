//! **Sharded fitting** — the coordinator/worker decomposition of the
//! accelerated full fit, written once for every modality ([`shard_fit`]
//! over [`Modality`]).
//!
//! The items (and with them the LSH bucket fills) are partitioned into `S`
//! contiguous ranges by a [`ShardPlan`]. Each shard owns its range's rows
//! plus its *own* [`LshIndex`] per hash family (MinHash keys, SimHash keys,
//! or both for mixed data) built only over its items' band keys, and runs
//! the existing Jacobi assignment locally through the
//! [`SyncShortlistProvider`] seam. The coordinator owns the centroid model
//! and runs the **same** `framework::drive` loop as the unsharded paths;
//! each iteration is one round-trip:
//!
//! ```text
//!   coordinator                         shard workers (× S)
//!   ───────────                         ───────────────────
//!   centroids + merged digests  ──────▶ local Jacobi pass over own items
//!   merged digests ← sum/union ◀──────  assignments + key digest + sketch
//!   centroid update (sketch / replay)
//! ```
//!
//! Two pieces make the sharded fit **byte-identical** to the unsharded fit
//! at equal seeds, for any shard count and any thread count:
//!
//! 1. **Merged key digests.** A shard's local index only sees collisions
//!    among its own items, but the unsharded shortlist is a global set. So
//!    every pass, each worker digests its index — per `(band, key)` bucket:
//!    the item count and the distinct cluster references — and the
//!    coordinator merges the digests into a global `(band, key) → clusters`
//!    map that is redistributed with the next pass. A worker shortlists an
//!    item by looking its own band keys up in the *merged* maps of every
//!    family, which yields exactly the global candidate **set**; all three
//!    `best_among` kernels are shortlist-order-insensitive, so set equality
//!    suffices.
//! 2. **Coordinator-side updates.** Workers emit per-cluster partial
//!    statistics ([`ModeSketch`] value counts for the categorical modes)
//!    and the coordinator feeds the merged statistics through the same
//!    argmax the serial kernel uses. Numeric means are *replayed* by the
//!    coordinator over the full data instead of summed from partial sums:
//!    f64 addition is non-associative, so partial-sum merging would differ
//!    from the serial sum in the last bits. The replay iterates members in
//!    ascending item order — exactly the serial kernel's order — keeping
//!    the update bit-identical.
//!
//! Hashing stays on the coordinator: MinHash keys depend on the global
//! schema and SimHash keys on the *global* centring mean, so the
//! coordinator hashes every item once (the same parallel kernels the
//! unsharded builds use) and deals each shard its items' key slices.
//! Workers never hash; their local `Dataset`s use an anonymous schema
//! (the distance and mode kernels never consult it).
//!
//! The sharded pass is always the Jacobi pass (shards cannot see each
//! other's intra-pass moves), so a sharded fit reproduces the unsharded
//! fit at `threads > 1` — `lshclust` dispatches accordingly.
//!
//! Everything here is transport-agnostic: [`InProcessTransport`] drives
//! [`ShardWorker`]s in-process, and `lshclust::shard` adds the NDJSON
//! multi-process transport over the same [`ShardRequest`]/[`ShardReply`]
//! types.

use crate::framework::{
    self, ActivitySet, AssignOutcome, CentroidModel, ShortlistCache, ShortlistProvider,
};
use crate::mhkmodes::{MhKModesConfig, MhKModesResult};
use crate::modality::{combined_stats, FitParams, FitResult, ItemKeys, Modality};
use crate::parallel::{self, SyncShortlistProvider};
use lshclust_categorical::{ClusterId, Dataset, Schema, ValueId};
use lshclust_kmodes::kmeans::NumericDataset;
use lshclust_kmodes::kprototypes::{MixedDataset, Prototypes};
use lshclust_kmodes::modes::{group_by_cluster, Modes};
use lshclust_minhash::hashfn::{FastMap, FastSet};
use lshclust_minhash::index::{IndexParams, IndexStats, LshIndex, LshIndexBuilder};
use lshclust_minhash::Banding;
use serde::{Deserialize, Error as SerdeError, Serialize, Value};
use std::cell::RefCell;
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
}

// ---------------------------------------------------------------------------
// Key digests: the global shortlist state exchanged between passes
// ---------------------------------------------------------------------------

/// One `(band, key)` bucket's summary: how many items fill it and which
/// distinct clusters they currently reference (sorted, deduplicated).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DigestEntry {
    /// Band index.
    pub band: u32,
    /// Band key (bucket identity within the band).
    pub key: u64,
    /// Items in the bucket (summed across shards after a merge).
    pub items: u64,
    /// Distinct cluster references of the bucket's items, ascending.
    pub clusters: Vec<ClusterId>,
}

serde::impl_serde_struct!(DigestEntry {
    band,
    key,
    items,
    clusters
});

impl DigestEntry {
    fn of(band: usize, key: u64, members: &[u32], cluster_of: impl Fn(u32) -> ClusterId) -> Self {
        let mut clusters: Vec<ClusterId> = members.iter().map(|&i| cluster_of(i)).collect();
        clusters.sort_unstable();
        clusters.dedup();
        Self {
            band: band as u32,
            key,
            items: members.len() as u64,
            clusters,
        }
    }
}

/// A whole index's bucket summary, canonically sorted by `(band, key)` —
/// what each shard emits after a pass and what the coordinator merges and
/// redistributes. The merged digest of the per-shard indexes describes
/// exactly the buckets of the unsharded index over the same keys.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KeyDigest {
    /// Bucket summaries, ascending by `(band, key)`.
    pub entries: Vec<DigestEntry>,
}

serde::impl_serde_struct!(KeyDigest { entries });

impl KeyDigest {
    fn canonical(mut entries: Vec<DigestEntry>) -> Self {
        entries.sort_unstable_by_key(|e| (e.band, e.key));
        Self { entries }
    }

    /// Digests an item index (MinHash or SimHash keys): one entry per
    /// filled bucket, with the current cluster references.
    pub fn of_lsh(index: &LshIndex) -> Self {
        let mut entries = Vec::new();
        index.for_each_bucket(|band, key, members| {
            entries.push(DigestEntry::of(band, key, members, |i| index.cluster_of(i)));
        });
        Self::canonical(entries)
    }

    /// Merges per-shard digests: equal `(band, key)` entries sum their item
    /// counts and union their cluster sets. Shards partition the items, so
    /// the merge equals the digest of the unsharded index.
    pub fn merged(shards: impl IntoIterator<Item = KeyDigest>) -> Self {
        let mut entries: Vec<DigestEntry> = shards.into_iter().flat_map(|d| d.entries).collect();
        entries.sort_unstable_by_key(|e| (e.band, e.key));
        let mut out: Vec<DigestEntry> = Vec::new();
        for e in entries {
            match out.last_mut() {
                Some(last) if last.band == e.band && last.key == e.key => {
                    last.items += e.items;
                    last.clusters.extend(e.clusters);
                    last.clusters.sort_unstable();
                    last.clusters.dedup();
                }
                _ => out.push(e),
            }
        }
        Self { entries: out }
    }

    /// Reconstructs the unsharded index's bucket statistics from the merged
    /// digest (each entry is one bucket; its `items` is the fill).
    pub fn stats(&self, n_items: usize, n_bands: u32) -> IndexStats {
        let mut total_entries = 0usize;
        let mut largest_bucket = 0usize;
        for e in &self.entries {
            total_entries += e.items as usize;
            largest_bucket = largest_bucket.max(e.items as usize);
        }
        IndexStats {
            n_items,
            n_bands,
            n_buckets: self.entries.len(),
            total_entries,
            largest_bucket,
        }
    }
}

/// A shard-local [`SyncShortlistProvider`] over the **merged global**
/// digests, one per hash family: shortlisting a local item looks its
/// precomputed band keys up in the per-band `(key → clusters)` maps built
/// from each digest, yielding the same candidate set the unsharded index
/// would (the digest's cluster sets are global; a mixed item's set is the
/// union over both families). `record_assignment` is a no-op — under the
/// Jacobi pass the digests are frozen for the whole pass and rebuilt
/// wholesale afterwards, which is exactly when the unsharded pass's
/// recorded moves become visible.
pub struct DigestShortlistProvider<'a> {
    families: Vec<DigestFamily<'a>>,
    seen: FastSet<u32>,
}

struct DigestFamily<'a> {
    band_keys: &'a [u64],
    n_bands: usize,
    lookup: Vec<FastMap<u64, Vec<ClusterId>>>,
}

impl<'a> DigestShortlistProvider<'a> {
    /// Builds the per-band lookups from merged digests, one
    /// `(digest, bands, band_keys)` per family with the shard's local
    /// item-major keys (`local_items × bands`) of that family.
    pub fn new<'d>(families: impl IntoIterator<Item = (&'d KeyDigest, usize, &'a [u64])>) -> Self {
        let families = families
            .into_iter()
            .map(|(digest, n_bands, band_keys)| {
                assert!(
                    band_keys.len().is_multiple_of(n_bands.max(1)),
                    "band-key buffer is not item-major n_items × bands"
                );
                let mut lookup: Vec<FastMap<u64, Vec<ClusterId>>> =
                    (0..n_bands).map(|_| FastMap::default()).collect();
                for e in &digest.entries {
                    if let Some(map) = lookup.get_mut(e.band as usize) {
                        map.insert(e.key, e.clusters.clone());
                    }
                }
                DigestFamily {
                    band_keys,
                    n_bands,
                    lookup,
                }
            })
            .collect();
        Self {
            families,
            seen: FastSet::default(),
        }
    }

    fn query(&self, item: u32, seen: &mut FastSet<u32>, out: &mut Vec<ClusterId>) {
        out.clear();
        seen.clear();
        for family in &self.families {
            let start = item as usize * family.n_bands;
            for (band, map) in family.lookup.iter().enumerate() {
                let key = family.band_keys[start + band];
                if let Some(clusters) = map.get(&key) {
                    for &c in clusters {
                        if seen.insert(c.0) {
                            out.push(c);
                        }
                    }
                }
            }
        }
    }
}

impl ShortlistProvider for DigestShortlistProvider<'_> {
    fn shortlist(&mut self, item: u32, out: &mut Vec<ClusterId>) {
        let mut seen = std::mem::take(&mut self.seen);
        self.query(item, &mut seen, out);
        self.seen = seen;
    }

    fn record_assignment(&mut self, _item: u32, _cluster: ClusterId) {
        // Frozen for the pass; the worker rebuilds the digest afterwards.
    }
}

impl SyncShortlistProvider for DigestShortlistProvider<'_> {
    type Scratch = FastSet<u32>;

    fn make_scratch(&self) -> FastSet<u32> {
        FastSet::default()
    }

    fn shortlist_into(&self, item: u32, scratch: &mut FastSet<u32>, out: &mut Vec<ClusterId>) {
        self.query(item, scratch, out);
    }
}

// ---------------------------------------------------------------------------
// Mode sketches: partial categorical statistics
// ---------------------------------------------------------------------------

/// One attribute value's occurrence count within a cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ValueCount {
    /// The raw attribute value (`ValueId` bits; `NOT_PRESENT` counts too,
    /// exactly as the serial mode kernel counts it).
    pub value: u32,
    /// Occurrences among the cluster's members.
    pub count: u64,
}

serde::impl_serde_struct!(ValueCount { value, count });

/// Per-cluster categorical statistics of one shard's assignment state: for
/// every `(cluster, attribute)` cell, the value-occurrence counts (sorted
/// by value), plus the member count per cluster. Merging the shards'VALUE
/// sketches and taking the per-cell argmax reproduces the serial mode
/// update — the argmax (highest count, ties to the smallest value) has a
/// unique winner, so the result is independent of merge order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModeSketch {
    /// Cluster count.
    pub k: usize,
    /// Attribute count.
    pub n_attrs: usize,
    /// Members per cluster (summed across shards after a merge).
    pub members: Vec<u64>,
    /// `k × n_attrs` cells, cluster-major; each cell's counts are ascending
    /// by value.
    pub counts: Vec<Vec<ValueCount>>,
}

serde::impl_serde_struct!(ModeSketch {
    k,
    n_attrs,
    members,
    counts
});

impl ModeSketch {
    /// Counts a shard's local items into per-cluster value statistics.
    pub fn from_assignments(dataset: &Dataset, assignments: &[ClusterId], k: usize) -> Self {
        assert_eq!(assignments.len(), dataset.n_items());
        let n_attrs = dataset.n_attrs();
        let groups = group_by_cluster(assignments, k);
        let mut members = vec![0u64; k];
        let mut counts: Vec<Vec<ValueCount>> = vec![Vec::new(); k * n_attrs];
        for c in 0..k {
            let m = groups.members(c);
            members[c] = m.len() as u64;
            for attr in 0..n_attrs {
                let cell = &mut counts[c * n_attrs + attr];
                for &i in m {
                    let v = dataset.row(i as usize)[attr].0;
                    match cell.iter_mut().find(|vc| vc.value == v) {
                        Some(vc) => vc.count += 1,
                        None => cell.push(ValueCount { value: v, count: 1 }),
                    }
                }
                cell.sort_unstable_by_key(|vc| vc.value);
            }
        }
        Self {
            k,
            n_attrs,
            members,
            counts,
        }
    }

    /// Adds another shard's statistics (merge-join per cell).
    pub fn merge(&mut self, other: &ModeSketch) -> Result<(), ShardError> {
        if self.k != other.k || self.n_attrs != other.n_attrs {
            return Err(ShardError(format!(
                "sketch shape mismatch: {}×{} vs {}×{}",
                self.k, self.n_attrs, other.k, other.n_attrs
            )));
        }
        for (m, &o) in self.members.iter_mut().zip(&other.members) {
            *m += o;
        }
        for (cell, other_cell) in self.counts.iter_mut().zip(&other.counts) {
            let mine = std::mem::take(cell);
            let (mut a, mut b) = (mine.into_iter().peekable(), other_cell.iter().peekable());
            loop {
                match (a.peek(), b.peek()) {
                    (Some(x), Some(y)) if x.value == y.value => {
                        let mut vc = a.next().expect("peeked");
                        vc.count += b.next().expect("peeked").count;
                        cell.push(vc);
                    }
                    (Some(x), Some(y)) if x.value < y.value => cell.push(a.next().expect("peeked")),
                    (Some(_), Some(_)) | (None, Some(_)) => {
                        cell.push(*b.next().expect("peeked"));
                    }
                    (Some(_), None) => cell.push(a.next().expect("peeked")),
                    (None, None) => break,
                }
            }
        }
        Ok(())
    }

    /// Applies the merged statistics as the new modes: per cell, the value
    /// with the highest count (ties to the smallest value — the serial
    /// kernel's exact tie-break); clusters with no members keep their mode.
    pub fn apply(&self, modes: &mut Modes) {
        assert_eq!(modes.k(), self.k, "sketch k disagrees with modes");
        assert_eq!(modes.n_attrs(), self.n_attrs, "sketch arity disagrees");
        let mut mode = Vec::with_capacity(self.n_attrs);
        for c in 0..self.k {
            if self.members[c] == 0 {
                continue;
            }
            mode.clear();
            for attr in 0..self.n_attrs {
                let cell = &self.counts[c * self.n_attrs + attr];
                // Cells are ascending by value, so strict `>` keeps the
                // smallest value among tied counts.
                let mut best = cell[0];
                for &vc in &cell[1..] {
                    if vc.count > best.count {
                        best = vc;
                    }
                }
                mode.push(ValueId(best.value));
            }
            modes.set_mode(ClusterId(c as u32), &mode);
        }
    }
}

// ---------------------------------------------------------------------------
// Protocol types
// ---------------------------------------------------------------------------

/// Per-shard categorical setup: local rows plus precomputed MinHash keys.
#[derive(Clone, Debug, PartialEq)]
pub struct CatShardInit {
    /// Attribute count (local items = `values.len() / n_attrs`).
    pub n_attrs: usize,
    /// Local rows, item-major.
    pub values: Vec<ValueId>,
    /// MinHash index parameters (banding, seed, query mode) — the worker
    /// rebuilds its local index from these plus the keys.
    pub params: IndexParams,
    /// Local items' band keys, item-major (`local_items × bands`), hashed
    /// by the coordinator against the global schema.
    pub band_keys: Vec<u64>,
}

serde::impl_serde_struct!(CatShardInit {
    n_attrs,
    values,
    params,
    band_keys
});

/// Per-shard numeric setup: local rows plus precomputed SimHash keys.
#[derive(Clone, Debug, PartialEq)]
pub struct NumShardInit {
    /// Vector dimensionality.
    pub dim: usize,
    /// Local rows, item-major (`local_items × dim`).
    pub values: Vec<f64>,
    /// SimHash bands.
    pub bands: u32,
    /// SimHash bits per band.
    pub rows: u32,
    /// Hyperplane seed (already salted by the coordinator).
    pub seed: u64,
    /// The **global** centring mean the coordinator hashed against.
    pub mean: Vec<f64>,
    /// Local items' band keys, item-major (`local_items × bands`).
    pub band_keys: Vec<u64>,
}

serde::impl_serde_struct!(NumShardInit {
    dim,
    values,
    bands,
    rows,
    seed,
    mean,
    band_keys
});

/// The `Init` payload: which modality the worker serves (categorical-only,
/// numeric-only, or both = mixed) plus the shared fit parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardInit {
    /// Cluster count.
    pub k: usize,
    /// Worker-local assignment threads.
    pub threads: usize,
    /// K-Prototypes mixing weight (ignored unless mixed).
    pub gamma: f64,
    /// Cluster-closure incremental assignment: workers skip items whose
    /// cached shortlist touches no broadcast-active cluster.
    pub closures: bool,
    /// Categorical side (present for categorical and mixed fits).
    pub categorical: Option<CatShardInit>,
    /// Numeric side (present for numeric and mixed fits).
    pub numeric: Option<NumShardInit>,
}

serde::impl_serde_struct!(ShardInit {
    k,
    threads,
    gamma,
    closures,
    categorical,
    numeric
});

/// The centroids broadcast with every assignment round.
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
        let entries = v
            .as_object()
            .ok_or_else(|| SerdeError::expected("object", "CentroidSet"))?;
        let [(tag, body)] = entries else {
            return Err(SerdeError::expected("single-variant object", "CentroidSet"));
        };
        match tag.as_str() {
            "Modes" => Ok(CentroidSet::Modes(Modes::from_value(body)?)),
            "Means" => {
                let fields = body
                    .as_object()
                    .ok_or_else(|| SerdeError::expected("object", "CentroidSet::Means"))?;
                Ok(CentroidSet::Means {
                    k: serde::field(fields, "k", "CentroidSet::Means")?,
                    dim: serde::field(fields, "dim", "CentroidSet::Means")?,
                    values: serde::field(fields, "values", "CentroidSet::Means")?,
                })
            }
            "Prototypes" => Ok(CentroidSet::Prototypes(Prototypes::from_value(body)?)),
            other => Err(SerdeError(format!("unknown CentroidSet variant `{other}`"))),
        }
    }
}

/// What a shard sends back after an assignment round.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardUpdate {
    /// New assignments of the shard's items, range-local order.
    pub assignments: Vec<ClusterId>,
    /// Items that changed cluster (vs the shard's previous state).
    pub moves: u64,
    /// Summed shortlist sizes over the shard's items.
    pub shortlist_total: u64,
    /// Items whose re-evaluation the cluster-closure active set skipped
    /// (`0` with closures off and on full-assignment rounds).
    pub skipped: u64,
    /// Fresh digests of the shard's indexes (one per index; mixed fits
    /// carry `[minhash, simhash]`).
    pub digests: Vec<KeyDigest>,
    /// Categorical statistics (present when the fit has a categorical side).
    pub sketch: Option<ModeSketch>,
}

serde::impl_serde_struct!(ShardUpdate {
    assignments,
    moves,
    shortlist_total,
    skipped,
    digests,
    sketch
});

/// Coordinator → worker messages (one NDJSON line each on the multi-process
/// transport).
#[derive(Clone, Debug, PartialEq)]
pub enum ShardRequest {
    /// Hand the worker its item range's data and parameters.
    Init(ShardInit),
    /// Full-search-assign every local item against the broadcast centroids
    /// (the setup pass before any index exists), then build the local
    /// index(es) and digest them.
    AssignFull {
        /// The current global centroids.
        centroids: CentroidSet,
    },
    /// One shortlisted Jacobi pass over the local items against the merged
    /// global digests.
    Pass {
        /// The current global centroids.
        centroids: CentroidSet,
        /// Merged digests, one per index (`[minhash]`, `[simhash]`, or
        /// `[minhash, simhash]` for mixed).
        digests: Vec<KeyDigest>,
        /// The **global** active clusters for this pass (ascending ids):
        /// clusters whose centroid changed in the last update, plus both
        /// endpoints of every move in the previous pass. Workers with
        /// closures enabled skip items whose cached shortlist avoids all of
        /// them; ignored otherwise.
        active: Vec<u32>,
    },
    /// Terminate (multi-process workers exit their loop).
    Shutdown,
}

impl Serialize for ShardRequest {
    fn to_value(&self) -> Value {
        match self {
            ShardRequest::Init(init) => Value::Object(vec![("Init".to_owned(), init.to_value())]),
            ShardRequest::AssignFull { centroids } => Value::Object(vec![(
                "AssignFull".to_owned(),
                Value::Object(vec![("centroids".to_owned(), centroids.to_value())]),
            )]),
            ShardRequest::Pass {
                centroids,
                digests,
                active,
            } => Value::Object(vec![(
                "Pass".to_owned(),
                Value::Object(vec![
                    ("centroids".to_owned(), centroids.to_value()),
                    ("digests".to_owned(), digests.to_value()),
                    ("active".to_owned(), active.to_value()),
                ]),
            )]),
            ShardRequest::Shutdown => Value::String("Shutdown".to_owned()),
        }
    }
}

impl Deserialize for ShardRequest {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        if let Some("Shutdown") = v.as_str() {
            return Ok(ShardRequest::Shutdown);
        }
        let entries = v
            .as_object()
            .ok_or_else(|| SerdeError::expected("object", "ShardRequest"))?;
        let [(tag, body)] = entries else {
            return Err(SerdeError::expected(
                "single-variant object",
                "ShardRequest",
            ));
        };
        match tag.as_str() {
            "Init" => Ok(ShardRequest::Init(ShardInit::from_value(body)?)),
            "AssignFull" => {
                let fields = body
                    .as_object()
                    .ok_or_else(|| SerdeError::expected("object", "ShardRequest::AssignFull"))?;
                Ok(ShardRequest::AssignFull {
                    centroids: serde::field(fields, "centroids", "ShardRequest::AssignFull")?,
                })
            }
            "Pass" => {
                let fields = body
                    .as_object()
                    .ok_or_else(|| SerdeError::expected("object", "ShardRequest::Pass"))?;
                Ok(ShardRequest::Pass {
                    centroids: serde::field(fields, "centroids", "ShardRequest::Pass")?,
                    digests: serde::field(fields, "digests", "ShardRequest::Pass")?,
                    active: serde::field(fields, "active", "ShardRequest::Pass")?,
                })
            }
            other => Err(SerdeError(format!(
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
    /// An assignment round's result.
    Update(ShardUpdate),
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
            ShardReply::Update(u) => Value::Object(vec![("Update".to_owned(), u.to_value())]),
            ShardReply::Done => Value::String("Done".to_owned()),
            ShardReply::Error { message } => Value::Object(vec![(
                "Error".to_owned(),
                Value::Object(vec![("message".to_owned(), message.to_value())]),
            )]),
        }
    }
}

impl Deserialize for ShardReply {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        match v.as_str() {
            Some("Ready") => return Ok(ShardReply::Ready),
            Some("Done") => return Ok(ShardReply::Done),
            Some(other) => return Err(SerdeError(format!("unknown ShardReply variant `{other}`"))),
            None => {}
        }
        let entries = v
            .as_object()
            .ok_or_else(|| SerdeError::expected("object", "ShardReply"))?;
        let [(tag, body)] = entries else {
            return Err(SerdeError::expected("single-variant object", "ShardReply"));
        };
        match tag.as_str() {
            "Update" => Ok(ShardReply::Update(ShardUpdate::from_value(body)?)),
            "Error" => {
                let fields = body
                    .as_object()
                    .ok_or_else(|| SerdeError::expected("object", "ShardReply::Error"))?;
                Ok(ShardReply::Error {
                    message: serde::field(fields, "message", "ShardReply::Error")?,
                })
            }
            other => Err(SerdeError(format!("unknown ShardReply variant `{other}`"))),
        }
    }
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

/// One hash family of a shard: its items' band keys, hashed by the
/// coordinator, and — after the first full assignment — the local index
/// filled from them. The worker never hashes.
struct ShardIndex {
    builder: LshIndexBuilder,
    band_keys: Vec<u64>,
    index: Option<LshIndex>,
}

impl ShardIndex {
    fn new(builder: LshIndexBuilder, band_keys: Vec<u64>, n: usize) -> Result<Self, ShardError> {
        let n_bands = builder.params().banding.bands() as usize;
        if band_keys.len() != n * n_bands {
            return Err(ShardError(format!(
                "band keys ({}) disagree with {n} items × {n_bands} bands",
                band_keys.len()
            )));
        }
        Ok(Self {
            builder,
            band_keys,
            index: None,
        })
    }

    fn n_bands(&self) -> usize {
        self.builder.params().banding.bands() as usize
    }

    fn digest(&self) -> KeyDigest {
        KeyDigest::of_lsh(self.index.as_ref().expect("index built"))
    }
}

/// The categorical rows of an `Init` and their MinHash family.
fn categorical_side(init: CatShardInit) -> Result<(Dataset, ShardIndex), ShardError> {
    if init.n_attrs == 0 {
        return Err(ShardError("categorical init with zero attributes".into()));
    }
    if !init.values.len().is_multiple_of(init.n_attrs) {
        return Err(ShardError(format!(
            "categorical values ({}) are not a multiple of n_attrs ({})",
            init.values.len(),
            init.n_attrs
        )));
    }
    let n = init.values.len() / init.n_attrs;
    let index = ShardIndex::new(LshIndexBuilder::from_params(init.params), init.band_keys, n)?;
    // An anonymous schema suffices: the distance/mode kernels only read
    // raw `ValueId`s, and hashing already happened on the coordinator.
    let dataset = Dataset::from_parts(Schema::anonymous(init.n_attrs), init.values, None);
    Ok((dataset, index))
}

/// The numeric rows of an `Init` and their SimHash family.
fn numeric_side(init: NumShardInit) -> Result<(NumericDataset, ShardIndex), ShardError> {
    if init.dim == 0 {
        return Err(ShardError("numeric init with zero dimensions".into()));
    }
    if !init.values.len().is_multiple_of(init.dim) {
        return Err(ShardError(format!(
            "numeric values ({}) are not a multiple of dim ({})",
            init.values.len(),
            init.dim
        )));
    }
    if init.bands == 0 || init.rows == 0 {
        return Err(ShardError(format!(
            "numeric banding {}×{} is not positive",
            init.bands, init.rows
        )));
    }
    if init.mean.len() != init.dim {
        return Err(ShardError("centring mean disagrees with dim".into()));
    }
    let n = init.values.len() / init.dim;
    let builder = LshIndexBuilder::new(Banding::new(init.bands, init.rows)).seed(init.seed);
    let index = ShardIndex::new(builder, init.band_keys, n)?;
    Ok((NumericDataset::new(init.dim, init.values), index))
}

/// One shard's in-process state: its rows, one local index per hash family
/// (MinHash first), and its current local assignments. Serves
/// [`ShardRequest`]s; the same type backs both [`InProcessTransport`] and
/// the NDJSON worker loop in `lshclust::shard`.
pub struct ShardWorker {
    categorical: Option<Dataset>,
    numeric: Option<NumericDataset>,
    state: ShardState,
}

/// A worker's fit state beside its rows.
struct ShardState {
    k: usize,
    threads: usize,
    gamma: f64,
    closures: bool,
    indexes: Vec<ShardIndex>,
    assignments: Vec<ClusterId>,
    /// Per-item cached shortlists for the cluster-closure skip; reset on
    /// every `AssignFull` (the indexes it reads are rebuilt there).
    cache: ShortlistCache,
}

impl ShardWorker {
    /// Builds a worker from an `Init` payload, validating shapes.
    pub fn new(init: ShardInit) -> Result<Self, ShardError> {
        if init.k == 0 {
            return Err(ShardError("k must be positive".into()));
        }
        let (categorical, minhash) = init.categorical.map(categorical_side).transpose()?.unzip();
        let (numeric, simhash) = init.numeric.map(numeric_side).transpose()?.unzip();
        let n = match (&categorical, &numeric) {
            (Some(c), Some(s)) => {
                if c.n_items() != s.n_items() {
                    return Err(ShardError(format!(
                        "categorical items ({}) disagree with numeric items ({})",
                        c.n_items(),
                        s.n_items()
                    )));
                }
                c.n_items()
            }
            (Some(c), None) => c.n_items(),
            (None, Some(s)) => s.n_items(),
            (None, None) => return Err(ShardError("init carries no modality".into())),
        };
        Ok(Self {
            categorical,
            numeric,
            state: ShardState {
                k: init.k,
                threads: init.threads.max(1),
                gamma: init.gamma,
                closures: init.closures,
                indexes: minhash.into_iter().chain(simhash).collect(),
                assignments: vec![ClusterId(0); n],
                cache: ShortlistCache::new(n),
            },
        })
    }

    /// Local item count.
    pub fn n_items(&self) -> usize {
        self.state.assignments.len()
    }

    /// Serves one request. Errors come back as [`ShardReply::Error`] so the
    /// protocol stays uniform across transports.
    pub fn handle(&mut self, request: ShardRequest) -> ShardReply {
        let result = match request {
            ShardRequest::Init(_) => Err(ShardError("worker already initialised".into())),
            ShardRequest::AssignFull { centroids } => self.round(centroids, None),
            ShardRequest::Pass {
                centroids,
                digests,
                active,
            } => self.round(centroids, Some((&digests, &active))),
            ShardRequest::Shutdown => return ShardReply::Done,
        };
        match result {
            Ok(update) => ShardReply::Update(update),
            Err(e) => ShardReply::Error { message: e.0 },
        }
    }

    fn round(
        &mut self,
        centroids: CentroidSet,
        pass: Option<(&[KeyDigest], &[u32])>,
    ) -> Result<ShardUpdate, ShardError> {
        let state = &mut self.state;
        match (&self.categorical, &self.numeric) {
            (Some(cat), None) => state.round(cat, centroids, pass),
            (None, Some(num)) => state.round(num, centroids, pass),
            (Some(cat), Some(num)) => state.round(&MixedDataset::new(cat, num), centroids, pass),
            (None, None) => unreachable!("a worker holds at least one modality"),
        }
    }
}

impl ShardState {
    /// One assignment round over this shard's items: a full assignment
    /// against the broadcast centroids that then fills the local indexes
    /// (`pass` is `None`), or one shortlisted Jacobi pass against the
    /// merged digests and the global active clusters.
    fn round<D: Modality>(
        &mut self,
        data: &D,
        centroids: CentroidSet,
        pass: Option<(&[KeyDigest], &[u32])>,
    ) -> Result<ShardUpdate, ShardError> {
        let model = data.model(data.receive(centroids, self.k)?, self.gamma);
        let (moves, shortlist_total, skipped) = match pass {
            None => {
                parallel::assign_full_parallel(&model, &mut self.assignments, self.threads);
                for side in &mut self.indexes {
                    side.index = Some(
                        side.builder
                            .build_from_band_keys(side.band_keys.clone(), &self.assignments),
                    );
                }
                // The indexes the cached shortlists were read from no
                // longer exist.
                self.cache.invalidate_all();
                (0, 0, 0)
            }
            Some((digests, active)) => {
                if digests.len() != self.indexes.len() {
                    return Err(ShardError(format!(
                        "pass expects {} digests, got {}",
                        self.indexes.len(),
                        digests.len()
                    )));
                }
                if self.indexes.iter().any(|side| side.index.is_none()) {
                    return Err(ShardError("pass before assign_full".into()));
                }
                let provider = DigestShortlistProvider::new(
                    digests
                        .iter()
                        .zip(&self.indexes)
                        .map(|(digest, side)| (digest, side.n_bands(), &side.band_keys[..])),
                );
                // With closures on, items whose cached shortlist avoids
                // every broadcast-active cluster keep their assignment
                // without a digest query — the same skip rule, against the
                // same global activity, as the unsharded engine, so the
                // pass stays byte-identical. The cache lives next to the
                // per-shard indexes: shard-local items, global cluster ids.
                let (new_assignments, shortlist_total, skipped) = if self.closures {
                    parallel::jacobi_assign_closures(
                        &model,
                        &provider,
                        &self.assignments,
                        &ActivitySet::from_clusters(self.k, active),
                        &mut self.cache,
                        self.threads,
                        true,
                    )
                } else {
                    let (a, total) = parallel::jacobi_assign_interleaved(
                        &model,
                        &provider,
                        &self.assignments,
                        self.threads,
                    );
                    (a, total, 0)
                };
                let moves = self
                    .assignments
                    .iter()
                    .zip(&new_assignments)
                    .filter(|(old, new)| old != new)
                    .count();
                self.assignments = new_assignments;
                for side in &mut self.indexes {
                    side.index
                        .as_mut()
                        .expect("checked above")
                        .set_all_clusters(&self.assignments);
                }
                (moves, shortlist_total, skipped)
            }
        };
        Ok(ShardUpdate {
            assignments: self.assignments.clone(),
            moves: moves as u64,
            shortlist_total: shortlist_total as u64,
            skipped: skipped as u64,
            digests: self.indexes.iter().map(ShardIndex::digest).collect(),
            sketch: data
                .categorical()
                .map(|dataset| ModeSketch::from_assignments(dataset, &self.assignments, self.k)),
        })
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
// Coordinators
// ---------------------------------------------------------------------------

struct DriveState {
    digests: Vec<KeyDigest>,
    sketch: Option<ModeSketch>,
    error: Option<ShardError>,
}

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

fn expect_updates(
    replies: Vec<ShardReply>,
    n_digests: usize,
) -> Result<Vec<ShardUpdate>, ShardError> {
    replies
        .into_iter()
        .enumerate()
        .map(|(shard, reply)| match reply {
            ShardReply::Update(u) if u.digests.len() == n_digests => Ok(u),
            ShardReply::Update(u) => Err(ShardError(format!(
                "shard {shard} returned {} digests, expected {n_digests}",
                u.digests.len()
            ))),
            ShardReply::Error { message } => {
                Err(ShardError(format!("shard {shard} failed: {message}")))
            }
            other => Err(ShardError(format!(
                "shard {shard} replied {other:?} to an assignment round"
            ))),
        })
        .collect()
}

fn splice_updates(
    plan: &ShardPlan,
    updates: &[ShardUpdate],
    assignments: &mut [ClusterId],
) -> Result<AssignOutcome, ShardError> {
    let mut moves = 0usize;
    let mut shortlist_total = 0usize;
    let mut skipped = 0usize;
    for (shard, u) in updates.iter().enumerate() {
        let range = plan.range(shard);
        if u.assignments.len() != range.len() {
            return Err(ShardError(format!(
                "shard {shard} returned {} assignments for {} items",
                u.assignments.len(),
                range.len()
            )));
        }
        assignments[range].copy_from_slice(&u.assignments);
        moves += u.moves as usize;
        shortlist_total += u.shortlist_total as usize;
        skipped += u.skipped as usize;
    }
    Ok(AssignOutcome {
        moves,
        shortlist_total,
        skipped,
    })
}

fn merged_digests(updates: &[ShardUpdate], n_digests: usize) -> Vec<KeyDigest> {
    (0..n_digests)
        .map(|slot| KeyDigest::merged(updates.iter().map(|u| u.digests[slot].clone())))
        .collect()
}

fn merged_sketch(updates: &[ShardUpdate]) -> Result<ModeSketch, ShardError> {
    let mut iter = updates.iter();
    let mut acc = iter
        .next()
        .and_then(|u| u.sketch.clone())
        .ok_or_else(|| ShardError("categorical update carries no sketch".into()))?;
    for u in iter {
        let sketch = u
            .sketch
            .as_ref()
            .ok_or_else(|| ShardError("categorical update carries no sketch".into()))?;
        acc.merge(sketch)?;
    }
    Ok(acc)
}

fn broadcast(n: usize, make: impl Fn() -> ShardRequest) -> Vec<ShardRequest> {
    (0..n).map(|_| make()).collect()
}

/// One assignment round through the transport: broadcast, validate, splice,
/// and merge — shared by the setup round and every drive pass.
fn exchange(
    transport: &mut dyn ShardTransport,
    plan: &ShardPlan,
    requests: Vec<ShardRequest>,
    n_digests: usize,
    want_sketch: bool,
    assignments: &mut [ClusterId],
) -> Result<(AssignOutcome, Vec<KeyDigest>, Option<ModeSketch>), ShardError> {
    let updates = expect_updates(transport.roundtrip(requests)?, n_digests)?;
    let outcome = splice_updates(plan, &updates, assignments)?;
    let digests = merged_digests(&updates, n_digests);
    let sketch = want_sketch.then(|| merged_sketch(&updates)).transpose()?;
    Ok((outcome, digests, sketch))
}

/// The sharded accelerated full fit, written once for every modality:
/// byte-identical to [`crate::modality::fit_full`] at `threads > 1` with the same config and
/// centroids, for any shard count. The digest-based shortlist always
/// includes an item's own bucket, so `cfg.include_self` is not read.
/// `index_stats` is reconstructed from the merged initial digests and
/// equals the unsharded item index's.
pub fn shard_fit<D: Modality>(
    data: &D,
    cfg: &FitParams,
    centroids: D::Centroids,
    setup_start: Instant,
    transport: &mut dyn ShardTransport,
) -> Result<FitResult<D::Centroids>, ShardError> {
    let n = data.n_items();
    let plan = ShardPlan::new(n, transport.n_shards());
    let keys = ItemKeys::hash(data, cfg);
    let family_bands: Vec<u32> = keys
        .families()
        .map(|family| family.builder.params().banding.bands())
        .collect();
    let inits = (0..plan.n_shards())
        .map(|shard| {
            let range = plan.range(shard);
            ShardRequest::Init(ShardInit {
                k: cfg.k,
                threads: cfg.threads,
                gamma: cfg.gamma,
                closures: cfg.closures,
                categorical: data.categorical().zip(keys.minhash.as_ref()).map(
                    |(dataset, family)| CatShardInit {
                        n_attrs: dataset.n_attrs(),
                        values: flatten_cat_rows(dataset, range.clone()),
                        params: family.builder.params(),
                        band_keys: family.items(range.clone()).to_vec(),
                    },
                ),
                numeric: data.numeric().zip(keys.simhash.as_ref()).map(
                    |(points, (family, mean))| {
                        let params = family.builder.params();
                        NumShardInit {
                            dim: points.dim(),
                            values: flatten_num_rows(points, range.clone()),
                            bands: params.banding.bands(),
                            rows: params.banding.rows(),
                            seed: params.seed,
                            mean: mean.clone(),
                            band_keys: family.items(range.clone()).to_vec(),
                        }
                    },
                ),
            })
        })
        .collect();
    drop(keys);
    expect_ready(transport.roundtrip(inits)?)?;

    let n_digests = family_bands.len();
    let want_sketch = data.categorical().is_some();
    let mut model = data.model(centroids, cfg.gamma);
    assert_eq!(
        model.k(),
        cfg.k,
        "initial centroids disagree with configured k"
    );
    let mut assignments = vec![ClusterId(0); n];
    // Setup: distributed full assignment against the initial centroids,
    // local index builds, then the coordinator-side refresh — mirroring the
    // unsharded fit's setup phase step for step.
    let requests = broadcast(plan.n_shards(), || ShardRequest::AssignFull {
        centroids: data.broadcast(model.snapshot_centroids()),
    });
    let (_, digests, sketch) = exchange(
        transport,
        &plan,
        requests,
        n_digests,
        want_sketch,
        &mut assignments,
    )?;
    D::merged_update(&mut model, sketch.as_ref(), &assignments, cfg.threads);
    let index_stats = combined_stats(
        digests
            .iter()
            .zip(&family_bands)
            .map(|(digest, &bands)| digest.stats(n, bands)),
    );
    let setup = setup_start.elapsed();

    let state = RefCell::new(DriveState {
        digests,
        sketch: None,
        error: None,
    });
    let state = &state;
    let threads = cfg.threads;
    let run = framework::drive(
        &mut model,
        assignments,
        setup,
        &cfg.stop,
        |model, assignments, activity| {
            let mut st = state.borrow_mut();
            if st.error.is_some() {
                return AssignOutcome::default();
            }
            let requests = broadcast(plan.n_shards(), || ShardRequest::Pass {
                centroids: data.broadcast(model.snapshot_centroids()),
                digests: st.digests.clone(),
                active: activity.to_clusters(),
            });
            match exchange(
                transport,
                &plan,
                requests,
                n_digests,
                want_sketch,
                assignments,
            ) {
                Ok((outcome, digests, sketch)) => {
                    st.digests = digests;
                    st.sketch = sketch;
                    outcome
                }
                Err(e) => {
                    st.error = Some(e);
                    AssignOutcome::default()
                }
            }
        },
        |model, assignments| {
            // The merged statistics replay the exact update the unsharded
            // fit computes, so the activity matches its update's too.
            let mut st = state.borrow_mut();
            if st.error.is_some() {
                return ActivitySet::none(model.k());
            }
            let sketch = st.sketch.take();
            D::merged_update(model, sketch.as_ref(), assignments, threads)
        },
    );
    if let Some(e) = state.borrow_mut().error.take() {
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
    use crate::mhkmodes::{KModesModel, MhKModes, MinHashProvider};
    use lshclust_categorical::DatasetBuilder;
    use lshclust_kmodes::init::{initial_modes, InitMethod};
    use lshclust_minhash::Banding;

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
                seen.extend(plan.range(shard));
            }
            assert_eq!(seen, (0..n).collect::<Vec<_>>(), "n={n} s={s}");
        }
    }

    #[test]
    fn merged_shard_digests_match_the_unsharded_index() {
        let dataset = blob_dataset(3, 7, 4);
        let n = dataset.n_items();
        let builder = LshIndexBuilder::new(Banding::new(8, 2)).seed(17);
        let keys = parallel::hash_band_keys_parallel(&builder, &dataset, 1);
        let assignments: Vec<ClusterId> = (0..n).map(|i| ClusterId((i % 3) as u32)).collect();
        let global = builder.build_from_band_keys(keys.clone(), &assignments);

        let plan = ShardPlan::new(n, 3);
        let n_bands = 8usize;
        let shard_digests: Vec<KeyDigest> = (0..plan.n_shards())
            .map(|shard| {
                let r = plan.range(shard);
                let local = builder.build_from_band_keys(
                    keys[r.start * n_bands..r.end * n_bands].to_vec(),
                    &assignments[r],
                );
                KeyDigest::of_lsh(&local)
            })
            .collect();
        let merged = KeyDigest::merged(shard_digests);
        assert_eq!(merged, KeyDigest::of_lsh(&global));
        assert_eq!(merged.stats(n, 8), global.stats());

        // The digest provider's candidate set equals the index shortlist's.
        let provider = DigestShortlistProvider::new([(&merged, n_bands, &keys[..])]);
        let mut index_provider = MinHashProvider::new(global, 3, true);
        let mut scratch = provider.make_scratch();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for item in 0..n as u32 {
            provider.shortlist_into(item, &mut scratch, &mut got);
            index_provider.shortlist(item, &mut want);
            got.sort_unstable();
            want.sort_unstable();
            want.dedup();
            assert_eq!(got, want, "item {item}");
        }
    }

    #[test]
    fn merged_sketch_reproduces_the_serial_mode_update() {
        let dataset = blob_dataset(4, 6, 3);
        let n = dataset.n_items();
        let k = 4;
        let assignments: Vec<ClusterId> = (0..n).map(|i| ClusterId(((i * 7) % k) as u32)).collect();

        let plan = ShardPlan::new(n, 3);
        let mut merged: Option<ModeSketch> = None;
        for shard in 0..plan.n_shards() {
            let r = plan.range(shard);
            let local = Dataset::from_parts(
                Schema::anonymous(dataset.n_attrs()),
                flatten_cat_rows(&dataset, r.clone()),
                None,
            );
            let sketch = ModeSketch::from_assignments(&local, &assignments[r], k);
            match &mut merged {
                Some(acc) => acc.merge(&sketch).unwrap(),
                None => merged = Some(sketch),
            }
        }
        let merged = merged.unwrap();

        let initial = initial_modes(&dataset, k, InitMethod::RandomItems, 5);
        let mut from_sketch = initial.clone();
        merged.apply(&mut from_sketch);
        let mut model = KModesModel::new(&dataset, initial);
        model.update_centroids(&assignments);
        assert_eq!(from_sketch.values(), model.modes().values());
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
            }
        }
    }

    #[test]
    fn in_process_sharded_kmeans_is_byte_identical() {
        use crate::centroid_index::IndexScheme;
        use crate::modality::fit_full;
        use lshclust_kmodes::kmeans::{kmeans_initial_centroids, KMeansInit};
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
        let update = ShardUpdate {
            assignments: vec![ClusterId(0), ClusterId(2)],
            moves: 1,
            shortlist_total: 9,
            skipped: 4,
            digests: vec![KeyDigest {
                entries: vec![DigestEntry {
                    band: 3,
                    key: u64::MAX - 5,
                    items: 2,
                    clusters: vec![ClusterId(0), ClusterId(2)],
                }],
            }],
            sketch: Some(ModeSketch {
                k: 1,
                n_attrs: 1,
                members: vec![2],
                counts: vec![vec![ValueCount { value: 7, count: 2 }]],
            }),
        };
        let reply = ShardReply::Update(update.clone());
        let back = ShardReply::from_value(&reply.to_value()).unwrap();
        assert_eq!(back, reply);

        let request = ShardRequest::Pass {
            centroids: CentroidSet::Means {
                k: 1,
                dim: 2,
                values: vec![0.1 + 0.2, -7.5],
            },
            digests: update.digests.clone(),
            active: vec![0],
        };
        let back = ShardRequest::from_value(&request.to_value()).unwrap();
        assert_eq!(back, request);
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
        let replies = transport
            .roundtrip(broadcast(2, || ShardRequest::Pass {
                centroids: CentroidSet::Means {
                    k: 1,
                    dim: 1,
                    values: vec![0.0],
                },
                digests: vec![KeyDigest::default()],
                active: vec![0],
            }))
            .unwrap();
        assert!(matches!(&replies[0], ShardReply::Error { .. }));
    }
}
