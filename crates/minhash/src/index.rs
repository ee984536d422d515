//! The LSH index of Algorithm 2.
//!
//! The index is built **once** after the initial assignment pass: every item
//! is MinHashed, its signature is split into bands, and the item id is
//! appended to one bucket per band. Each bucket entry carries (indirectly) a
//! *cluster reference* — here a flat `cluster_of: Vec<ClusterId>` array — so
//! that a query can turn colliding items into a shortlist of candidate
//! clusters. Moving an item between clusters is the O(1)
//! [`LshIndex::set_cluster`] store the paper highlights ("a fast operation as
//! we merely update the item's cluster that is stored via a reference").
//!
//! Because signatures never change, an item's colliding-item set is static;
//! [`QueryMode::Precomputed`] materialises it per item (CSR layout) at build
//! time, while [`QueryMode::ScanBuckets`] re-scans the buckets on every query
//! exactly as the paper's Algorithm 2 describes. Both return identical
//! shortlists (`tests/index_props.rs`).

use crate::banding::Banding;
use crate::hashfn::{FastMap, MixHashFamily};
use crate::signature::SignatureGenerator;
use lshclust_categorical::{ClusterId, Dataset, PresentElements, Schema, ValueId};

/// How shortlist queries locate colliding items.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum QueryMode {
    /// Walk the item's `b` buckets on every query (paper-faithful).
    #[default]
    ScanBuckets,
    /// Use a per-item candidate list precomputed at build time
    /// (memory-for-time trade; identical results).
    Precomputed,
}

serde::impl_serde_unit_enum!(QueryMode {
    ScanBuckets,
    Precomputed
});

/// The construction parameters of an [`LshIndex`]. Hashing is fully
/// deterministic in these three fields, so an index rebuilt from equal
/// parameters over equal rows answers every query identically.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexParams {
    /// Banding scheme (`b` bands × `r` rows).
    pub banding: Banding,
    /// Hash-family seed.
    pub seed: u64,
    /// Query mode.
    pub mode: QueryMode,
}

/// Configuration for [`LshIndex`] construction.
#[derive(Clone, Debug)]
pub struct LshIndexBuilder {
    banding: Banding,
    seed: u64,
    mode: QueryMode,
}

impl LshIndexBuilder {
    /// Starts a builder for the given banding scheme.
    pub fn new(banding: Banding) -> Self {
        Self {
            banding,
            seed: 0,
            mode: QueryMode::default(),
        }
    }

    /// Sets the hash-family seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the query mode (default [`QueryMode::ScanBuckets`]).
    pub fn mode(mut self, mode: QueryMode) -> Self {
        self.mode = mode;
        self
    }

    /// The builder's parameters.
    pub fn params(&self) -> IndexParams {
        IndexParams {
            banding: self.banding,
            seed: self.seed,
            mode: self.mode,
        }
    }

    /// Hashes every item of `dataset` and builds the index. `initial`
    /// supplies the cluster reference stored for each item (Algorithm 2
    /// stores "a reference to the cluster that the item has been assigned to
    /// by K-Modes").
    pub fn build(&self, dataset: &Dataset, initial: &[ClusterId]) -> LshIndex {
        self.build_rows(dataset.schema(), dataset.rows(), initial)
    }

    /// Like [`Self::build`], but over raw value rows under an explicit
    /// schema — the constructor serving paths use to index things that are
    /// not a `Dataset` (most importantly, a trained model's *centroids*).
    pub fn build_rows<'r>(
        &self,
        schema: &Schema,
        rows: impl IntoIterator<Item = &'r [ValueId]>,
        initial: &[ClusterId],
    ) -> LshIndex {
        let banding = self.banding;
        let n_bands = banding.bands() as usize;

        let family = MixHashFamily::new(banding.signature_len(), self.seed);
        let generator = SignatureGenerator::new(family);

        // Pass 1: signatures → band keys (flattened item-major). Dataset
        // rows come from an exact-size iterator, so the hint preallocates
        // the full buffer on the fit path.
        let rows = rows.into_iter();
        let mut band_keys = Vec::with_capacity(rows.size_hint().0.saturating_mul(n_bands));
        let mut sig = Vec::with_capacity(banding.signature_len());
        let mut keys = Vec::with_capacity(n_bands);
        for row in rows {
            generator.signature_into(PresentElements::new(schema, row), &mut sig);
            banding.band_keys_into(&sig, &mut keys);
            band_keys.extend_from_slice(&keys);
        }
        self.build_from_band_keys(band_keys, initial)
    }

    /// Builds the index from **precomputed** item band keys (item-major,
    /// `n_items × bands`, hashed with this builder's banding and seed — see
    /// `SignatureGenerator`/`Banding::band_keys_into`). This is the bucket
    /// fill of [`Self::build_rows`] on its own: callers that can hash items
    /// in parallel (the setup phase of `lshclust_core::parallel`) compute
    /// the keys themselves and feed them here, and because the bucket fill
    /// walks items in ascending order either way, the resulting index is
    /// **byte-identical** to a serial [`Self::build_rows`] over the same
    /// rows.
    pub fn build_from_band_keys(&self, band_keys: Vec<u64>, initial: &[ClusterId]) -> LshIndex {
        let banding = self.banding;
        let n_bands = banding.bands() as usize;
        assert!(
            band_keys.len().is_multiple_of(n_bands.max(1)),
            "band-key buffer is not item-major n_items × bands"
        );
        let n_items = band_keys.len() / n_bands.max(1);
        assert_eq!(
            initial.len(),
            n_items,
            "one initial cluster per item required"
        );
        assert!(n_items < EMPTY as usize, "index exceeds u32 items");

        // Pass 2: fill the bucket maps band by band, items ascending.
        let buckets: Vec<BandBuckets> = (0..n_bands)
            .map(|band| {
                let mut map = BandBuckets::default();
                for (item, keys) in band_keys.chunks_exact(n_bands).enumerate() {
                    insert(&mut map, keys[band], item as u32);
                }
                map
            })
            .collect();

        let mut index = LshIndex {
            banding,
            band_keys,
            buckets,
            cluster_of: initial.to_vec(),
            candidates: None,
            candidate_offsets: None,
        };
        if self.mode == QueryMode::Precomputed {
            index.precompute_candidates();
        }
        index
    }

    /// Builds a **centroid index**: each row is one centroid, indexed under
    /// its own [`ClusterId`] (row `i` → cluster `i`). A shortlist query then
    /// returns exactly the candidate clusters whose centroids collide with
    /// the query — the frozen serving structure of a trained model.
    pub fn build_centroids<'r>(
        &self,
        schema: &Schema,
        centroids: impl IntoIterator<Item = &'r [ValueId]>,
        k: usize,
    ) -> LshIndex {
        let identity: Vec<ClusterId> = (0..k as u32).map(ClusterId).collect();
        self.build_rows(schema, centroids, &identity)
    }
}

/// The MinHash/LSH index with per-item cluster references.
#[derive(Clone)]
pub struct LshIndex {
    banding: Banding,
    /// `n_items × b` band keys, item-major.
    band_keys: Vec<u64>,
    /// One bucket map per band: band key → colliding item ids.
    buckets: Vec<BandBuckets>,
    /// Current cluster reference per item (mutated by [`Self::set_cluster`]).
    cluster_of: Vec<ClusterId>,
    /// CSR candidate lists when [`QueryMode::Precomputed`] is active.
    candidates: Option<Vec<u32>>,
    candidate_offsets: Option<Vec<usize>>,
}

impl LshIndex {
    /// The banding scheme the index was built with.
    pub fn banding(&self) -> Banding {
        self.banding
    }

    /// The flat item-major band-key buffer (`n_items × bands`) the index was
    /// built from. This **is** the index's serialized form: feeding the
    /// buffer back through [`LshIndexBuilder::build_from_band_keys`] refills
    /// the buckets byte-identically without re-hashing a single row — the
    /// copy-instead-of-hash load path of `lshclust`'s v2 binary model
    /// envelope.
    pub fn band_keys(&self) -> &[u64] {
        &self.band_keys
    }

    /// Number of indexed items.
    pub fn n_items(&self) -> usize {
        self.cluster_of.len()
    }

    /// Current cluster reference of `item`.
    #[inline]
    pub fn cluster_of(&self, item: u32) -> ClusterId {
        self.cluster_of[item as usize]
    }

    /// Updates the cluster reference of `item` — the paper's O(1) index
    /// maintenance after a move.
    #[inline]
    pub fn set_cluster(&mut self, item: u32, cluster: ClusterId) {
        self.cluster_of[item as usize] = cluster;
    }

    /// Every item's current cluster reference, in item order.
    pub fn clusters(&self) -> &[ClusterId] {
        &self.cluster_of
    }

    /// Appends one item — hashed by the caller with this index's banding and
    /// seed — to its band buckets, referencing `cluster`, and returns its id:
    /// the growing index of a streaming clusterer. A precomputed index
    /// cannot grow, since its candidate lists are built once.
    pub fn push(&mut self, band_keys: &[u64], cluster: ClusterId) -> u32 {
        assert_eq!(
            band_keys.len(),
            self.banding.bands() as usize,
            "item band keys disagree with the index banding"
        );
        assert!(self.candidates.is_none(), "a precomputed index cannot grow");
        let item = u32::try_from(self.n_items())
            .ok()
            .filter(|&item| item != EMPTY)
            .expect("index exceeds u32 items");
        for (map, &key) in self.buckets.iter_mut().zip(band_keys) {
            insert(map, key, item);
        }
        self.band_keys.extend_from_slice(band_keys);
        self.cluster_of.push(cluster);
        item
    }

    /// Materialises per-item candidate lists (switches to
    /// [`QueryMode::Precomputed`] behaviour).
    pub fn precompute_candidates(&mut self) {
        if self.candidates.is_some() {
            return;
        }
        let n_items = self.n_items();
        let mut scratch = ItemScratch::new(n_items);
        let mut flat = Vec::new();
        let mut offsets = Vec::with_capacity(n_items + 1);
        offsets.push(0usize);
        for item in 0..n_items as u32 {
            scratch.begin();
            self.for_each_colliding_item_scan(item, |other| {
                if scratch.mark(other) {
                    flat.push(other);
                }
            });
            offsets.push(flat.len());
        }
        flat.shrink_to_fit();
        self.candidates = Some(flat);
        self.candidate_offsets = Some(offsets);
    }

    /// Calls `f` for every item sharing at least one band bucket with `item`
    /// (including `item` itself, possibly multiple times in scan mode).
    #[inline]
    fn for_each_colliding_item_scan<F: FnMut(u32)>(&self, item: u32, mut f: F) {
        let n_bands = self.banding.bands() as usize;
        let keys = &self.band_keys[item as usize * n_bands..(item as usize + 1) * n_bands];
        for (band, key) in keys.iter().enumerate() {
            if let Some(bucket) = self.buckets[band].get(key) {
                for &other in bucket.members() {
                    f(other);
                }
            }
        }
    }

    /// Calls `f` exactly once per distinct colliding item.
    pub fn for_each_candidate_item<F: FnMut(u32)>(
        &self,
        item: u32,
        scratch: &mut ItemScratch,
        mut f: F,
    ) {
        if let (Some(flat), Some(offsets)) = (&self.candidates, &self.candidate_offsets) {
            let range = offsets[item as usize]..offsets[item as usize + 1];
            for &other in &flat[range] {
                f(other);
            }
        } else {
            scratch.begin();
            self.for_each_colliding_item_scan(item, |other| {
                if scratch.mark(other) {
                    f(other);
                }
            });
        }
    }

    /// Builds the candidate-cluster shortlist for `item` (Algorithm 2 lines
    /// 10–12): the set of clusters currently containing any colliding item.
    ///
    /// The result is appended to `shortlist.clusters` (cleared first). Since
    /// `item` collides with itself, its current cluster is always present —
    /// unless `exclude_self` is set (used by the error-bound experiments to
    /// measure how much work self-collision does).
    pub fn shortlist(&self, item: u32, scratch: &mut ShortlistScratch, exclude_self: bool) {
        scratch.clusters.clear();
        scratch.items.begin();
        scratch.begin_clusters();
        if let (Some(flat), Some(offsets)) = (&self.candidates, &self.candidate_offsets) {
            let range = offsets[item as usize]..offsets[item as usize + 1];
            for &other in &flat[range] {
                if exclude_self && other == item {
                    continue;
                }
                let c = self.cluster_of[other as usize];
                if scratch.mark_cluster(c) {
                    scratch.clusters.push(c);
                }
            }
        } else {
            // Scan mode dedups items on the fly; clusters are deduped by the
            // cluster stamp regardless.
            self.for_each_colliding_item_scan(item, |other| {
                if exclude_self && other == item {
                    return;
                }
                if scratch.items.mark(other) {
                    let c = self.cluster_of[other as usize];
                    if scratch.mark_cluster(c) {
                        scratch.clusters.push(c);
                    }
                }
            });
        }
    }

    /// Builds the candidate-cluster shortlist for an **external query** whose
    /// band keys were computed by the caller (same banding, same hash
    /// family). This is the serving-time entry point: unseen items are
    /// MinHashed outside the index and probed against the frozen buckets.
    ///
    /// The result lands in `scratch.clusters` (cleared first), exactly as
    /// with [`Self::shortlist`].
    pub fn shortlist_for_band_keys(&self, band_keys: &[u64], scratch: &mut ShortlistScratch) {
        assert_eq!(
            band_keys.len(),
            self.banding.bands() as usize,
            "query band keys disagree with the index banding"
        );
        scratch.clusters.clear();
        scratch.items.begin();
        scratch.begin_clusters();
        for (band, key) in band_keys.iter().enumerate() {
            if let Some(bucket) = self.buckets[band].get(key) {
                for &other in bucket.members() {
                    if scratch.items.mark(other) {
                        let c = self.cluster_of[other as usize];
                        if scratch.mark_cluster(c) {
                            scratch.clusters.push(c);
                        }
                    }
                }
            }
        }
    }

    /// The members of band `band`'s bucket `key`, ascending (empty when no
    /// item hashed there).
    #[inline]
    pub fn bucket(&self, band: usize, key: u64) -> &[u32] {
        self.buckets[band].get(&key).map_or(&[], Bucket::members)
    }

    /// Index-level statistics (bucket counts and fill), for diagnostics.
    pub fn stats(&self) -> IndexStats {
        let mut n_buckets = 0usize;
        let mut largest = 0usize;
        let mut total_entries = 0usize;
        for map in &self.buckets {
            n_buckets += map.len();
            for bucket in map.values() {
                let len = bucket.members().len();
                largest = largest.max(len);
                total_entries += len;
            }
        }
        IndexStats {
            n_items: self.n_items(),
            n_bands: self.banding.bands(),
            n_buckets,
            total_entries,
            largest_bucket: largest,
        }
    }

    /// Creates a cluster-shortlist scratch sized for `n_clusters` clusters.
    pub fn make_scratch(&self, n_clusters: usize) -> ShortlistScratch {
        ShortlistScratch::new(self.n_items(), n_clusters)
    }
}

/// One band's buckets: band key → members.
type BandBuckets = FastMap<u64, Bucket>;

/// Appends `item` to band bucket `key`, creating the bucket on first use.
fn insert(map: &mut BandBuckets, key: u64, item: u32) {
    map.entry(key)
        .and_modify(|bucket| bucket.push(item))
        .or_insert_with(|| Bucket::new(item));
}

/// Members an inline bucket holds before it moves to the heap.
const INLINE: usize = 4;
/// The free-slot marker of an inline bucket (never an item id: an index
/// holds fewer than `u32::MAX` items).
const EMPTY: u32 = u32::MAX;

/// One bucket's member item ids, ascending. Most buckets of a fine banding
/// hold one item (1.79 M buckets for 2 M entries at the paper's scale), so
/// up to [`INLINE`] members are kept in place, free slots marked [`EMPTY`],
/// and only larger buckets allocate. The enum is no larger than a
/// `Vec<u32>`.
#[derive(Clone, Debug)]
enum Bucket {
    Inline([u32; INLINE]),
    Heap(Vec<u32>),
}

impl Bucket {
    fn new(item: u32) -> Self {
        let mut ids = [EMPTY; INLINE];
        ids[0] = item;
        Bucket::Inline(ids)
    }

    /// Appends an item larger than every member.
    fn push(&mut self, item: u32) {
        match self {
            Bucket::Inline(ids) => match ids.iter().position(|&id| id == EMPTY) {
                Some(free) => ids[free] = item,
                None => {
                    let mut members = Vec::with_capacity(2 * INLINE);
                    members.extend_from_slice(ids);
                    members.push(item);
                    *self = Bucket::Heap(members);
                }
            },
            Bucket::Heap(members) => members.push(item),
        }
    }

    #[inline]
    fn members(&self) -> &[u32] {
        match self {
            Bucket::Inline(ids) => &ids[..ids.iter().filter(|&&id| id != EMPTY).count()],
            Bucket::Heap(members) => members,
        }
    }
}

/// Bucket-level statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexStats {
    /// Items indexed.
    pub n_items: usize,
    /// Bands in the scheme.
    pub n_bands: u32,
    /// Total non-empty buckets across all bands.
    pub n_buckets: usize,
    /// Total bucket entries (= items × bands).
    pub total_entries: usize,
    /// Size of the largest bucket.
    pub largest_bucket: usize,
}

serde::impl_serde_struct!(IndexStats {
    n_items,
    n_bands,
    n_buckets,
    total_entries,
    largest_bucket
});

/// Generation-stamped "seen items" set; O(1) reset between queries.
pub struct ItemScratch {
    stamps: Vec<u32>,
    generation: u32,
}

impl ItemScratch {
    /// Creates scratch space for `n_items` items.
    pub fn new(n_items: usize) -> Self {
        Self {
            stamps: vec![0; n_items],
            generation: 0,
        }
    }

    /// Starts a new query (invalidates previous marks).
    #[inline]
    pub fn begin(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Extremely rare wrap-around: hard reset to stay sound.
            self.stamps.fill(0);
            self.generation = 1;
        }
    }

    /// Marks `item`; returns `true` iff it was not yet marked this query.
    #[inline]
    pub fn mark(&mut self, item: u32) -> bool {
        let slot = &mut self.stamps[item as usize];
        if *slot == self.generation {
            false
        } else {
            *slot = self.generation;
            true
        }
    }
}

/// Scratch space for shortlist queries: item marks, cluster marks and the
/// output shortlist buffer.
pub struct ShortlistScratch {
    items: ItemScratch,
    cluster_stamps: Vec<u32>,
    cluster_generation: u32,
    /// The shortlist produced by the latest [`LshIndex::shortlist`] call.
    pub clusters: Vec<ClusterId>,
}

impl ShortlistScratch {
    /// Creates scratch for `n_items` items and `n_clusters` clusters.
    pub fn new(n_items: usize, n_clusters: usize) -> Self {
        Self {
            items: ItemScratch::new(n_items),
            cluster_stamps: vec![0; n_clusters],
            cluster_generation: 0,
            clusters: Vec::new(),
        }
    }

    /// Grows the scratch to serve `n_items` items and `n_clusters` clusters
    /// — the queries of an index that grew since the scratch was made.
    pub fn grow(&mut self, n_items: usize, n_clusters: usize) {
        if self.items.stamps.len() < n_items {
            self.items.stamps.resize(n_items, 0);
        }
        if self.cluster_stamps.len() < n_clusters {
            self.cluster_stamps.resize(n_clusters, 0);
        }
    }

    #[inline]
    fn begin_clusters(&mut self) {
        self.cluster_generation = self.cluster_generation.wrapping_add(1);
        if self.cluster_generation == 0 {
            self.cluster_stamps.fill(0);
            self.cluster_generation = 1;
        }
    }

    #[inline]
    fn mark_cluster(&mut self, c: ClusterId) -> bool {
        let slot = &mut self.cluster_stamps[c.idx()];
        if *slot == self.cluster_generation {
            false
        } else {
            *slot = self.cluster_generation;
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lshclust_categorical::DatasetBuilder;
    use std::collections::BTreeMap;

    /// Three near-duplicate items and one far item.
    fn dataset() -> Dataset {
        let mut b = DatasetBuilder::anonymous(8);
        b.push_str_row(&["a", "b", "c", "d", "e", "f", "g", "h"], None)
            .unwrap();
        b.push_str_row(&["a", "b", "c", "d", "e", "f", "g", "X"], None)
            .unwrap();
        b.push_str_row(&["a", "b", "c", "d", "e", "f", "Y", "h"], None)
            .unwrap();
        b.push_str_row(&["p", "q", "r", "s", "t", "u", "v", "w"], None)
            .unwrap();
        b.finish()
    }

    fn clusters(xs: &[u32]) -> Vec<ClusterId> {
        xs.iter().map(|&x| ClusterId(x)).collect()
    }

    fn build(mode: QueryMode) -> LshIndex {
        LshIndexBuilder::new(Banding::new(16, 2))
            .seed(7)
            .mode(mode)
            .build(&dataset(), &clusters(&[0, 1, 2, 3]))
    }

    #[test]
    fn self_cluster_always_in_shortlist() {
        let index = build(QueryMode::ScanBuckets);
        let mut scratch = index.make_scratch(4);
        for item in 0..4 {
            index.shortlist(item, &mut scratch, false);
            assert!(
                scratch.clusters.contains(&index.cluster_of(item)),
                "item {item} shortlist {:?} misses own cluster",
                scratch.clusters
            );
        }
    }

    #[test]
    fn similar_items_shortlist_each_other() {
        let index = build(QueryMode::ScanBuckets);
        let mut scratch = index.make_scratch(4);
        index.shortlist(0, &mut scratch, false);
        // Items 1 and 2 are 7/8 identical to item 0 → Jaccard ≈ 0.78; with
        // 16 bands of 2 rows P[collide] ≈ 1 − (1 − 0.6)^16 ≈ 1.
        assert!(scratch.clusters.contains(&ClusterId(1)));
        assert!(scratch.clusters.contains(&ClusterId(2)));
    }

    #[test]
    fn dissimilar_item_rarely_shortlisted() {
        let index = build(QueryMode::ScanBuckets);
        let mut scratch = index.make_scratch(4);
        index.shortlist(0, &mut scratch, false);
        assert!(
            !scratch.clusters.contains(&ClusterId(3)),
            "disjoint item collided: {:?}",
            scratch.clusters
        );
    }

    #[test]
    fn precomputed_and_scan_agree() {
        let scan = build(QueryMode::ScanBuckets);
        let pre = build(QueryMode::Precomputed);
        let mut s1 = scan.make_scratch(4);
        let mut s2 = pre.make_scratch(4);
        for item in 0..4 {
            scan.shortlist(item, &mut s1, false);
            pre.shortlist(item, &mut s2, false);
            let mut a = s1.clusters.clone();
            let mut b = s2.clusters.clone();
            a.sort();
            b.sort();
            assert_eq!(a, b, "modes disagree on item {item}");
        }
    }

    #[test]
    fn exclude_self_drops_own_cluster_for_isolated_item() {
        let index = build(QueryMode::ScanBuckets);
        let mut scratch = index.make_scratch(4);
        // Item 3 collides with nothing else.
        index.shortlist(3, &mut scratch, true);
        assert!(scratch.clusters.is_empty(), "got {:?}", scratch.clusters);
    }

    #[test]
    fn set_cluster_updates_shortlists() {
        let mut index = build(QueryMode::ScanBuckets);
        let mut scratch = index.make_scratch(5);
        index.set_cluster(1, ClusterId(4));
        assert_eq!(index.cluster_of(1), ClusterId(4));
        index.shortlist(0, &mut scratch, false);
        assert!(scratch.clusters.contains(&ClusterId(4)));
        assert!(!scratch.clusters.contains(&ClusterId(1)));
    }

    #[test]
    fn shortlist_has_no_duplicates() {
        // Items in the same cluster collide in many bands; the cluster must
        // still appear once.
        let index = LshIndexBuilder::new(Banding::new(16, 2))
            .seed(7)
            .build(&dataset(), &clusters(&[0, 0, 0, 0]));
        let mut scratch = index.make_scratch(1);
        index.shortlist(0, &mut scratch, false);
        assert_eq!(scratch.clusters, vec![ClusterId(0)]);
    }

    #[test]
    fn candidate_count_includes_self() {
        let index = build(QueryMode::ScanBuckets);
        let mut scratch = ItemScratch::new(4);
        let count = |item, scratch: &mut ItemScratch| {
            let mut n = 0;
            index.for_each_candidate_item(item, scratch, |_| n += 1);
            n
        };
        assert_eq!(count(3, &mut scratch), 1); // only itself
        assert!(count(0, &mut scratch) >= 3);
    }

    #[test]
    fn stats_account_for_all_entries() {
        let index = build(QueryMode::ScanBuckets);
        let stats = index.stats();
        assert_eq!(stats.n_items, 4);
        assert_eq!(stats.n_bands, 16);
        assert_eq!(stats.total_entries, 4 * 16);
        assert!(stats.largest_bucket >= 1);
        assert!(stats.n_buckets <= stats.total_entries);
    }

    #[test]
    fn external_band_keys_reproduce_internal_shortlists() {
        // Hash item 0's row externally (same schema, seed, banding) and probe
        // with shortlist_for_band_keys: the shortlist must match the
        // by-item-id query exactly.
        use crate::hashfn::MixHashFamily;
        use crate::signature::SignatureGenerator;
        let ds = dataset();
        let banding = Banding::new(16, 2);
        let index = LshIndexBuilder::new(banding)
            .seed(7)
            .build(&ds, &clusters(&[0, 1, 2, 3]));
        let generator = SignatureGenerator::new(MixHashFamily::new(banding.signature_len(), 7));
        let mut s1 = index.make_scratch(4);
        let mut s2 = index.make_scratch(4);
        for item in 0..4usize {
            let sig = generator.signature(PresentElements::of_item(&ds, item));
            let keys = banding.band_keys(&sig);
            index.shortlist_for_band_keys(&keys, &mut s1);
            index.shortlist(item as u32, &mut s2, false);
            let (mut a, mut b) = (s1.clusters.clone(), s2.clusters.clone());
            a.sort();
            b.sort();
            assert_eq!(a, b, "item {item}");
        }
    }

    #[test]
    fn build_from_band_keys_is_byte_identical_to_build_rows() {
        use crate::hashfn::MixHashFamily;
        use crate::signature::SignatureGenerator;
        let ds = dataset();
        let banding = Banding::new(12, 2);
        let initial = clusters(&[0, 1, 2, 3]);
        let builder = LshIndexBuilder::new(banding).seed(5);
        let serial = builder.build(&ds, &initial);
        // Hash externally (any order/parallelism would do — keys are
        // per-item) and feed the bucket fill directly.
        let generator = SignatureGenerator::new(MixHashFamily::new(banding.signature_len(), 5));
        let mut band_keys = Vec::new();
        for item in 0..ds.n_items() {
            let sig = generator.signature(PresentElements::of_item(&ds, item));
            band_keys.extend_from_slice(&banding.band_keys(&sig));
        }
        let fed = builder.build_from_band_keys(band_keys, &initial);
        assert_eq!(fed.band_keys, serial.band_keys);
        assert_eq!(fed.stats(), serial.stats());
        let mut s1 = serial.make_scratch(4);
        let mut s2 = fed.make_scratch(4);
        for item in 0..4u32 {
            serial.shortlist(item, &mut s1, false);
            fed.shortlist(item, &mut s2, false);
            assert_eq!(s1.clusters, s2.clusters, "item {item}");
        }
    }

    #[test]
    fn centroid_index_shortlists_identity_clusters() {
        let ds = dataset();
        let index = LshIndexBuilder::new(Banding::new(16, 2))
            .seed(7)
            .build_centroids(ds.schema(), ds.rows(), ds.n_items());
        for item in 0..4u32 {
            assert_eq!(index.cluster_of(item), ClusterId(item));
        }
        let mut scratch = index.make_scratch(4);
        index.shortlist(0, &mut scratch, false);
        assert!(scratch.clusters.contains(&ClusterId(0)));
        assert!(scratch.clusters.contains(&ClusterId(1)));
    }

    #[test]
    fn item_scratch_generation_reset() {
        let mut s = ItemScratch::new(3);
        s.begin();
        assert!(s.mark(1));
        assert!(!s.mark(1));
        s.begin();
        assert!(s.mark(1), "mark must reset across generations");
    }

    #[test]
    fn empty_dataset_index() {
        let b = DatasetBuilder::anonymous(2);
        let ds = b.finish();
        let index = LshIndexBuilder::new(Banding::new(4, 1)).build(&ds, &[]);
        assert_eq!(index.n_items(), 0);
        assert_eq!(index.stats().total_entries, 0);
    }

    #[test]
    fn builder_rejects_wrong_initial_length() {
        let ds = dataset();
        let result = std::panic::catch_unwind(|| {
            LshIndexBuilder::new(Banding::new(2, 1)).build(&ds, &clusters(&[0]))
        });
        assert!(result.is_err());
    }

    #[test]
    fn a_bucket_is_the_size_of_a_vec() {
        assert_eq!(
            std::mem::size_of::<Bucket>(),
            std::mem::size_of::<Vec<u32>>()
        );
    }

    /// Shortlist by the letter of Algorithm 2 over sorted reference buckets:
    /// bands in order, members ascending, items and then clusters deduped
    /// in first-seen order.
    fn reference_shortlist(
        buckets: &[BTreeMap<u64, Vec<u32>>],
        keys: &[u64],
        cluster_of: &[ClusterId],
        item: u32,
        exclude_self: bool,
    ) -> Vec<ClusterId> {
        let bands = buckets.len();
        let mut items = Vec::new();
        let mut out = Vec::new();
        for (band, map) in buckets.iter().enumerate() {
            let key = keys[item as usize * bands + band];
            for &other in map.get(&key).map_or(&[][..], Vec::as_slice) {
                if (exclude_self && other == item) || items.contains(&other) {
                    continue;
                }
                items.push(other);
                let c = cluster_of[other as usize];
                if !out.contains(&c) {
                    out.push(c);
                }
            }
        }
        out
    }

    #[test]
    fn buckets_of_one_to_nine_members_match_a_sorted_map() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        const BANDS: usize = 3;
        // Per band, one bucket of each size 1..=9: 45 items, dealt out in a
        // shuffled order so that a bucket's members are not contiguous.
        const N: usize = 45;
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut keys = vec![0u64; N * BANDS];
            for band in 0..BANDS {
                let mut deal: Vec<u64> = (0..9u64)
                    .flat_map(|size| std::iter::repeat_n(size, size as usize + 1))
                    .map(|size| (band as u64 * 16 + size).wrapping_mul(0x9e37_79b9_7f4a_7c15))
                    .collect();
                for i in (1..deal.len()).rev() {
                    deal.swap(i, rng.random_range(0..=i));
                }
                for (item, key) in deal.into_iter().enumerate() {
                    keys[item * BANDS + band] = key;
                }
            }
            let mut cluster_of: Vec<ClusterId> = (0..N as u32).map(|i| ClusterId(i % 7)).collect();
            let mut reference = vec![BTreeMap::<u64, Vec<u32>>::new(); BANDS];
            for (item, item_keys) in keys.chunks_exact(BANDS).enumerate() {
                for (map, &key) in reference.iter_mut().zip(item_keys) {
                    map.entry(key).or_default().push(item as u32);
                }
            }
            // Half the items built, the rest pushed: buckets cross the
            // inline capacity in both.
            let builder = LshIndexBuilder::new(Banding::new(BANDS as u32, 1));
            let half = N / 2;
            let mut grown =
                builder.build_from_band_keys(keys[..half * BANDS].to_vec(), &cluster_of[..half]);
            for item in half..N {
                let id = grown.push(&keys[item * BANDS..(item + 1) * BANDS], cluster_of[item]);
                assert_eq!(id as usize, item);
            }
            let whole = builder.build_from_band_keys(keys.clone(), &cluster_of);
            let precomputed = builder
                .clone()
                .mode(QueryMode::Precomputed)
                .build_from_band_keys(keys.clone(), &cluster_of);
            let sizes: Vec<usize> = reference
                .iter()
                .flat_map(|map| map.values().map(Vec::len))
                .collect();
            let want_stats = IndexStats {
                n_items: N,
                n_bands: BANDS as u32,
                n_buckets: sizes.len(),
                total_entries: N * BANDS,
                largest_bucket: 9,
            };
            for (name, index) in [("grown", &grown), ("whole", &whole)] {
                assert_eq!(index.stats(), want_stats, "{name}");
                for (band, map) in reference.iter().enumerate() {
                    for (&key, members) in map {
                        assert_eq!(index.bucket(band, key), &members[..], "{name}");
                    }
                    assert!(index.bucket(band, 1).is_empty());
                }
            }
            // Shortlists, before and after moving every third item.
            for round in 0..2 {
                if round == 1 {
                    for item in (0..N as u32).step_by(3) {
                        let c = ClusterId(rng.random_range(0..7));
                        cluster_of[item as usize] = c;
                        grown.set_cluster(item, c);
                    }
                }
                let mut scratch = grown.make_scratch(7);
                let mut pre_scratch = precomputed.make_scratch(7);
                for item in 0..N as u32 {
                    for exclude_self in [false, true] {
                        let want =
                            reference_shortlist(&reference, &keys, &cluster_of, item, exclude_self);
                        grown.shortlist(item, &mut scratch, exclude_self);
                        assert_eq!(scratch.clusters, want, "item {item}");
                        if round == 0 {
                            precomputed.shortlist(item, &mut pre_scratch, exclude_self);
                            assert_eq!(pre_scratch.clusters, want, "precomputed item {item}");
                        }
                    }
                    let item_keys = &keys[item as usize * BANDS..(item as usize + 1) * BANDS];
                    grown.shortlist_for_band_keys(item_keys, &mut scratch);
                    assert_eq!(
                        scratch.clusters,
                        reference_shortlist(&reference, &keys, &cluster_of, item, false)
                    );
                }
            }
        }
    }
}
