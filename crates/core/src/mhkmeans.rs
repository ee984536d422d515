//! The further-work extension: LSH-accelerated **K-Means** for numeric data.
//!
//! The paper closes by proposing to extend the framework "to work with not
//! only categorical data, but numeric data". This module does exactly that by
//! swapping the two pluggable pieces of [`crate::framework`]:
//!
//! * the [`CentroidModel`] becomes K-Means (squared-Euclidean distances,
//!   mean centroids) over a [`NumericDataset`],
//! * the [`ShortlistProvider`] becomes a [`SimHashIndex`] — random-hyperplane
//!   LSH, whose collision probability is monotone in cosine similarity.
//!
//! The driver, instrumentation, and convergence logic are *identical* to
//! MH-K-Modes, which is the point: the framework is algorithm-agnostic.

use crate::framework::{self, ActivitySet, CentroidModel, ShortlistProvider, StopPolicy};
use lshclust_categorical::ClusterId;
use lshclust_kmodes::kmeans::{kmeans_initial_centroids, sq_euclidean, KMeansInit, NumericDataset};
use lshclust_kmodes::modes::group_by_cluster;
use lshclust_kmodes::stats::RunSummary;
use lshclust_minhash::hashfn::{FastMap, FastSet};
use lshclust_minhash::simhash::SimHash;
use std::time::Instant;

/// The K-Means instantiation of [`CentroidModel`].
pub struct KMeansModel<'a> {
    data: &'a NumericDataset,
    centroids: Vec<f64>,
    k: usize,
}

impl<'a> KMeansModel<'a> {
    /// Wraps a dataset and initial centroids (`k × dim`, row-major).
    pub fn new(data: &'a NumericDataset, centroids: Vec<f64>, k: usize) -> Self {
        assert_eq!(centroids.len(), k * data.dim());
        Self { data, centroids, k }
    }

    /// The current centroids.
    pub fn centroids(&self) -> &[f64] {
        &self.centroids
    }

    /// The wrapped dataset (at its own lifetime; see
    /// `KModesModel::dataset_ref`).
    pub(crate) fn data_ref(&self) -> &'a NumericDataset {
        self.data
    }

    /// Mutable access to the centroid matrix (mini-batch nudges).
    pub(crate) fn centroids_mut(&mut self) -> &mut [f64] {
        &mut self.centroids
    }

    #[inline]
    fn centroid(&self, c: usize) -> &[f64] {
        &self.centroids[c * self.data.dim()..(c + 1) * self.data.dim()]
    }
}

impl CentroidModel for KMeansModel<'_> {
    type Snapshot = Vec<f64>;

    fn snapshot_centroids(&self) -> Vec<f64> {
        self.centroids.clone()
    }

    fn restore_centroids(&mut self, snapshot: Vec<f64>) {
        self.centroids = snapshot;
    }

    fn k(&self) -> usize {
        self.k
    }

    fn n_items(&self) -> usize {
        self.data.n_items()
    }

    fn best_full(&self, item: u32) -> (ClusterId, f64) {
        let row = self.data.row(item as usize);
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for c in 0..self.k {
            let d = sq_euclidean(row, self.centroid(c));
            if d < best_d {
                best_d = d;
                best = c;
            }
        }
        (ClusterId(best as u32), best_d)
    }

    fn best_among(&self, item: u32, candidates: &[ClusterId]) -> Option<(ClusterId, f64)> {
        let row = self.data.row(item as usize);
        let mut best: Option<(ClusterId, f64)> = None;
        for &c in candidates {
            let d = sq_euclidean(row, self.centroid(c.idx()));
            let replace = match best {
                None => true,
                Some((bc, bd)) => d < bd || (d == bd && c < bc),
            };
            if replace {
                best = Some((c, d));
            }
        }
        best
    }

    fn update_centroids(&mut self, assignments: &[ClusterId]) -> ActivitySet {
        let dim = self.data.dim();
        let mut sums = vec![0.0f64; self.k * dim];
        let mut counts = vec![0u32; self.k];
        for (i, &c) in assignments.iter().enumerate() {
            counts[c.idx()] += 1;
            for (s, &x) in sums[c.idx() * dim..(c.idx() + 1) * dim]
                .iter_mut()
                .zip(self.data.row(i))
            {
                *s += x;
            }
        }
        let mut activity = ActivitySet::none(self.k);
        for c in 0..self.k {
            if counts[c] == 0 {
                continue; // empty cluster keeps its centroid
            }
            for d in 0..dim {
                let new = sums[c * dim + d] / f64::from(counts[c]);
                // Bit-level comparison: the activity set must flag any change
                // the distance kernel could observe (±0.0 compares equal but
                // behaves identically in arithmetic, so `!=` suffices).
                if self.centroids[c * dim + d] != new {
                    activity.mark(ClusterId(c as u32));
                }
                self.centroids[c * dim + d] = new;
            }
        }
        activity
    }

    fn update_centroids_parallel(
        &mut self,
        assignments: &[ClusterId],
        threads: usize,
    ) -> ActivitySet {
        if threads <= 1 {
            return self.update_centroids(assignments);
        }
        // Cluster-by-cluster means. Each cluster's member sums accumulate in
        // ascending item order — the same addition sequence per accumulator
        // as the serial item-order loop — so the result is bit-identical to
        // the serial update at any thread count.
        let dim = self.data.dim();
        let k = self.k;
        let groups = group_by_cluster(assignments, k);
        let data = self.data;
        let new_means: Vec<Option<Vec<f64>>> = crate::parallel::chunked_map(
            k,
            threads,
            || (),
            |c, _| {
                let members = groups.members(c as usize);
                if members.is_empty() {
                    return None; // empty cluster keeps its centroid
                }
                let mut sum = vec![0.0f64; dim];
                for &i in members {
                    for (s, &x) in sum.iter_mut().zip(data.row(i as usize)) {
                        *s += x;
                    }
                }
                for s in &mut sum {
                    *s /= members.len() as f64;
                }
                Some(sum)
            },
        );
        let mut activity = ActivitySet::none(k);
        for (c, mean) in new_means.iter().enumerate() {
            if let Some(mean) = mean {
                if self.centroids[c * dim..(c + 1) * dim] != mean[..] {
                    activity.mark(ClusterId(c as u32));
                }
                self.centroids[c * dim..(c + 1) * dim].copy_from_slice(mean);
            }
        }
        activity
    }

    fn total_cost(&self, assignments: &[ClusterId]) -> f64 {
        assignments
            .iter()
            .enumerate()
            .map(|(i, &c)| sq_euclidean(self.data.row(i), self.centroid(c.idx())))
            .sum()
    }
}

/// SimHash LSH index over numeric items, with per-item cluster references —
/// the numeric twin of `lshclust_minhash::LshIndex`.
///
/// The hyperplane family and the centring vector are retained so unseen
/// query vectors can be hashed into the same bucket universe
/// ([`Self::shortlist_for_vector_with`], the SimHash side of
/// [`crate::centroid_index::CentroidIndex`]).
#[derive(Clone)]
pub struct SimHashIndex {
    /// `n_items × bands` band keys, item-major.
    band_keys: Vec<u64>,
    buckets: Vec<FastMap<u64, Vec<u32>>>,
    cluster_of: Vec<ClusterId>,
    bands: u32,
    rows: u32,
    /// The hyperplane family used at build time (needed to hash queries).
    sim: SimHash,
    /// The mean vector subtracted before hashing (see [`Self::build`]).
    mean: Vec<f64>,
}

impl SimHashIndex {
    /// Hashes every vector with `n_bits = bands × rows` hyperplanes and
    /// buckets the band keys.
    ///
    /// Vectors are **mean-centred** before hashing: random-hyperplane LSH
    /// discriminates by *angle from the origin*, and un-centred data (e.g.
    /// all-positive features) collapses into a narrow cone where everything
    /// collides. Centring puts the hyperplane pencil through the data
    /// centroid, spreading angles over the full sphere.
    pub fn build(
        data: &NumericDataset,
        bands: u32,
        rows: u32,
        seed: u64,
        initial: &[ClusterId],
    ) -> Self {
        Self::build_parallel(data, bands, rows, seed, initial, 1)
    }

    /// Like [`Self::build`], with the per-item hashing (centring, signature,
    /// band keys) fanned over `threads` workers. The centring mean is summed
    /// serially (float addition order matters) and the bucket fill walks
    /// items in ascending order, so the result is **byte-identical** to the
    /// serial build at any thread count.
    pub fn build_parallel(
        data: &NumericDataset,
        bands: u32,
        rows: u32,
        seed: u64,
        initial: &[ClusterId],
        threads: usize,
    ) -> Self {
        assert_eq!(initial.len(), data.n_items());
        let (band_keys, mean) = Self::hash_band_keys(data, bands, rows, seed, threads);
        Self::from_band_keys(data.dim(), bands, rows, seed, mean, band_keys, initial)
    }

    /// The hashing half of [`Self::build_parallel`] on its own: the serial
    /// centring mean over **all** items (float addition order matters) and
    /// every item's band keys, item-major (`n_items × bands`), fanned over
    /// `threads` workers. Feeding the buffer back through
    /// [`Self::from_band_keys`] is byte-identical to [`Self::build`]; the
    /// shard coordinator (`crate::shard`) uses the same buffer to deal each
    /// shard its items' keys, so every shard hashes against the **global**
    /// mean.
    pub fn hash_band_keys(
        data: &NumericDataset,
        bands: u32,
        rows: u32,
        seed: u64,
        threads: usize,
    ) -> (Vec<u64>, Vec<f64>) {
        let n_bits = bands as usize * rows as usize;
        let dim = data.dim();
        let sim = SimHash::new(n_bits, dim, seed);
        let n = data.n_items();
        let mut mean = vec![0.0f64; dim];
        for item in 0..n {
            for (m, &x) in mean.iter_mut().zip(data.row(item)) {
                *m += x;
            }
        }
        if n > 0 {
            for m in &mut mean {
                *m /= n as f64;
            }
        }
        // Per-item hashing fills the flat item-major key buffer directly —
        // one contiguous slice per worker, no per-item allocation — through
        // the shared chunking scaffold (inline at `threads <= 1`).
        let n_bands = bands as usize;
        let mut band_keys = vec![0u64; n * n_bands];
        crate::parallel::fill_chunks(&mut band_keys, n, n_bands, threads, |start, slice| {
            let mut centred = vec![0.0f64; dim];
            let mut sig = Vec::new();
            let mut keys = Vec::new();
            for (offset, out) in slice.chunks_mut(n_bands).enumerate() {
                for ((c, &x), m) in centred.iter_mut().zip(data.row(start + offset)).zip(&mean) {
                    *c = x - m;
                }
                sim.signature_into(&centred, &mut sig);
                sim.band_keys_into(&sig, bands, rows, &mut keys);
                out.copy_from_slice(&keys);
            }
        });
        (band_keys, mean)
    }

    /// Builds the index from **precomputed** band keys and centring mean —
    /// the bucket fill of [`Self::build_parallel`] on its own. Because the
    /// fill walks items in ascending order either way, the resulting index
    /// is byte-identical to a full build over the same vectors. Shard
    /// workers use this to own a local index over only their items' keys.
    pub fn from_band_keys(
        dim: usize,
        bands: u32,
        rows: u32,
        seed: u64,
        mean: Vec<f64>,
        band_keys: Vec<u64>,
        initial: &[ClusterId],
    ) -> Self {
        let n_bands = (bands as usize).max(1);
        assert!(
            band_keys.len().is_multiple_of(n_bands),
            "band-key buffer is not item-major n_items × bands"
        );
        let n = band_keys.len() / n_bands;
        assert_eq!(initial.len(), n, "one initial cluster per item required");
        let sim = SimHash::new(bands as usize * rows as usize, dim, seed);
        let n_bands = bands as usize;
        // Bucket fill stays serial in item order (byte-identical index).
        let mut buckets: Vec<FastMap<u64, Vec<u32>>> =
            (0..n_bands).map(|_| FastMap::default()).collect();
        for item in 0..n {
            for (band, bucket) in buckets.iter_mut().enumerate() {
                let key = band_keys[item * n_bands + band];
                bucket.entry(key).or_default().push(item as u32);
            }
        }
        Self {
            band_keys,
            buckets,
            cluster_of: initial.to_vec(),
            bands,
            rows,
            sim,
            mean,
        }
    }

    /// The flat item-major band-key buffer (`n_items × bands`) the index was
    /// built from. Together with [`Self::mean`] this is the index's
    /// serialized form: [`Self::from_band_keys`] refills the buckets from it
    /// byte-identically without redoing a single hyperplane projection — the
    /// copy-instead-of-hash load path of `lshclust`'s v2 binary model
    /// envelope.
    pub fn band_keys(&self) -> &[u64] {
        &self.band_keys
    }

    /// The centring mean subtracted before hashing (see [`Self::build`]).
    /// Persisted alongside [`Self::band_keys`] so a reloaded index centres
    /// queries exactly as the original did.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Current cluster reference of `item`.
    pub fn cluster_of(&self, item: u32) -> ClusterId {
        self.cluster_of[item as usize]
    }

    /// O(1) cluster-reference update.
    pub fn set_cluster(&mut self, item: u32, cluster: ClusterId) {
        self.cluster_of[item as usize] = cluster;
    }

    /// Overwrites all cluster references at once (used by shard workers
    /// after a fresh local assignment pass).
    pub fn set_all_clusters(&mut self, clusters: &[ClusterId]) {
        assert_eq!(clusters.len(), self.cluster_of.len());
        self.cluster_of.copy_from_slice(clusters);
    }

    /// Calls `f` once per bucket: `(band, band key, member item ids)`.
    /// Members appear in ascending item order; the bucket order within a
    /// band is unspecified. The raw view shard workers digest into per-key
    /// cluster sets (`crate::shard`).
    pub fn for_each_bucket<F: FnMut(usize, u64, &[u32])>(&self, mut f: F) {
        for (band, map) in self.buckets.iter().enumerate() {
            for (&key, members) in map {
                f(band, key, members);
            }
        }
    }

    /// Collects the distinct clusters of items colliding with `item`.
    pub fn shortlist_into(&self, item: u32, out: &mut Vec<ClusterId>, seen: &mut FastSet<u32>) {
        let b = self.bands as usize;
        let keys = &self.band_keys[item as usize * b..(item as usize + 1) * b];
        self.shortlist_for_keys(keys, out, seen);
    }

    /// Collects the distinct clusters of indexed items colliding with an
    /// **unseen vector**: the vector is centred with the index's stored mean,
    /// hashed by the same hyperplane family, and its band buckets are probed
    /// — the query of a [`crate::centroid_index::CentroidIndex`], with
    /// reused hashing buffers.
    pub fn shortlist_for_vector_with(
        &self,
        v: &[f64],
        scratch: &mut VectorQueryScratch,
        out: &mut Vec<ClusterId>,
        seen: &mut FastSet<u32>,
    ) {
        scratch.centred.clear();
        scratch
            .centred
            .extend(v.iter().zip(&self.mean).map(|(x, m)| x - m));
        self.sim.signature_into(&scratch.centred, &mut scratch.sig);
        self.sim
            .band_keys_into(&scratch.sig, self.bands, self.rows, &mut scratch.keys);
        self.shortlist_for_keys(&scratch.keys, out, seen);
    }

    fn shortlist_for_keys(&self, keys: &[u64], out: &mut Vec<ClusterId>, seen: &mut FastSet<u32>) {
        out.clear();
        seen.clear();
        for (band, key) in keys.iter().enumerate() {
            if let Some(members) = self.buckets[band].get(key) {
                for &other in members {
                    let c = self.cluster_of[other as usize];
                    if seen.insert(c.0) {
                        out.push(c);
                    }
                }
            }
        }
    }
}

/// Reusable hashing buffers for [`SimHashIndex::shortlist_for_vector_with`].
#[derive(Default)]
pub struct VectorQueryScratch {
    centred: Vec<f64>,
    sig: Vec<u64>,
    keys: Vec<u64>,
}

/// [`ShortlistProvider`] wrapper around [`SimHashIndex`].
pub struct SimHashProvider {
    index: SimHashIndex,
    seen: FastSet<u32>,
}

impl SimHashProvider {
    /// Wraps a built index.
    pub fn new(index: SimHashIndex) -> Self {
        Self {
            index,
            seen: FastSet::default(),
        }
    }
}

impl ShortlistProvider for SimHashProvider {
    fn shortlist(&mut self, item: u32, out: &mut Vec<ClusterId>) {
        // `shortlist_into` clears `out` itself, so the candidates land in the
        // caller's buffer directly — no intermediate copy.
        self.index.shortlist_into(item, out, &mut self.seen);
    }

    fn record_assignment(&mut self, item: u32, cluster: ClusterId) {
        self.index.set_cluster(item, cluster);
    }
}

impl crate::parallel::SyncShortlistProvider for SimHashProvider {
    type Scratch = FastSet<u32>;

    fn make_scratch(&self) -> FastSet<u32> {
        FastSet::default()
    }

    fn shortlist_into(&self, item: u32, seen: &mut FastSet<u32>, out: &mut Vec<ClusterId>) {
        self.index.shortlist_into(item, out, seen);
    }
}

/// Configuration for MH-K-Means.
#[derive(Clone, Debug)]
pub struct MhKMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// SimHash bands.
    pub bands: u32,
    /// Bits per band.
    pub rows: u32,
    /// Iteration policy (cap + stop criteria).
    pub stop: StopPolicy,
    /// Seeding strategy.
    pub init: KMeansInit,
    /// RNG seed (centroids and hyperplanes).
    pub seed: u64,
    /// Assignment-pass threads. `1` (and the clamped `0`) keeps the serial
    /// Gauss–Seidel pass; `> 1` runs the Jacobi parallel engine of
    /// [`crate::parallel`].
    pub threads: usize,
    /// Cluster-closure incremental assignment (byte-identical results;
    /// `false` is the escape hatch).
    pub closures: bool,
    /// Interleaved parallel chunk scheduling (identical results).
    pub interleaved: bool,
}

impl MhKMeansConfig {
    /// Defaults: 100-iteration cap, random-item init, serial assignment.
    pub fn new(k: usize, bands: u32, rows: u32) -> Self {
        Self {
            k,
            bands,
            rows,
            stop: StopPolicy::default(),
            init: KMeansInit::RandomItems,
            seed: 0,
            threads: 1,
            closures: true,
            interleaved: false,
        }
    }

    /// Sets the number of assignment threads (`0` clamps to `1`).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Enables/disables cluster-closure incremental assignment.
    pub fn closures(mut self, yes: bool) -> Self {
        self.closures = yes;
        self
    }

    /// Selects interleaved vs contiguous parallel chunk scheduling.
    pub fn interleaved(mut self, yes: bool) -> Self {
        self.interleaved = yes;
        self
    }
}

/// Result of an MH-K-Means run.
#[derive(Clone, Debug)]
pub struct MhKMeansResult {
    /// Final cluster per item.
    pub assignments: Vec<ClusterId>,
    /// Final centroids (`k × dim`).
    pub centroids: Vec<f64>,
    /// Instrumentation.
    pub summary: RunSummary,
}

/// Runs LSH-accelerated K-Means.
pub fn mh_kmeans(data: &NumericDataset, config: &MhKMeansConfig) -> MhKMeansResult {
    let setup_start = Instant::now();
    let centroids = kmeans_initial_centroids(data, config.k, config.init, config.seed);
    mh_kmeans_from(data, config, centroids, setup_start)
}

/// Runs LSH-accelerated K-Means from explicit initial centroids (`k × dim`,
/// row-major) — the warm-start path used by `lshclust`'s
/// `ClusterSpec::warm_start`. `setup_start` should be the instant
/// initialisation began so setup time is complete.
pub fn mh_kmeans_from(
    data: &NumericDataset,
    config: &MhKMeansConfig,
    centroids: Vec<f64>,
    setup_start: Instant,
) -> MhKMeansResult {
    let mut model = KMeansModel::new(data, centroids, config.k);
    // Initial full assignment, mirroring MH-K-Modes step 2 — fanned over
    // `config.threads` like the index hashing below (both byte-identical to
    // their serial forms).
    let mut assignments = vec![ClusterId(0); data.n_items()];
    crate::parallel::assign_full_parallel(&model, &mut assignments, config.threads);
    model.update_centroids_parallel(&assignments, config.threads);
    let index = SimHashIndex::build_parallel(
        data,
        config.bands,
        config.rows,
        config.seed,
        &assignments,
        config.threads,
    );
    let mut provider = SimHashProvider::new(index);
    let setup = setup_start.elapsed();
    let run = if config.threads <= 1 {
        framework::fit(
            &mut model,
            &mut provider,
            assignments,
            setup,
            &config.stop,
            config.closures,
        )
    } else {
        crate::parallel::parallel_fit(
            &mut model,
            &mut provider,
            assignments,
            setup,
            &config.stop,
            config.threads,
            config.closures,
            config.interleaved,
        )
    };
    MhKMeansResult {
        assignments: run.assignments,
        centroids: model.centroids.clone(),
        summary: run.summary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `groups` Gaussian-ish blobs on a circle of radius 10.
    fn blob_data(groups: usize, per_group: usize) -> NumericDataset {
        let mut data = Vec::new();
        for g in 0..groups {
            let angle = g as f64 / groups as f64 * std::f64::consts::TAU;
            let (cx, cy) = (10.0 * angle.cos(), 10.0 * angle.sin());
            for i in 0..per_group {
                // Small deterministic jitter.
                let jx = (i as f64 * 0.37).sin() * 0.3;
                let jy = (i as f64 * 0.71).cos() * 0.3;
                data.extend_from_slice(&[cx + jx, cy + jy]);
            }
        }
        NumericDataset::new(2, data)
    }

    #[test]
    fn recovers_blobs() {
        let data = blob_data(4, 8);
        let cfg = MhKMeansConfig::new(4, 12, 3);
        let result = mh_kmeans(&data, &cfg);
        assert!(result.summary.converged);
        for g in 0..4 {
            let first = result.assignments[g * 8];
            for i in 0..8 {
                assert_eq!(result.assignments[g * 8 + i], first, "blob {g} split");
            }
        }
    }

    #[test]
    fn shortlist_below_k() {
        let data = blob_data(6, 6);
        let cfg = MhKMeansConfig::new(6, 8, 4);
        let result = mh_kmeans(&data, &cfg);
        let last = result.summary.iterations.last().unwrap();
        assert!(last.avg_candidates < 6.0, "avg {}", last.avg_candidates);
    }

    #[test]
    fn deterministic() {
        let data = blob_data(3, 5);
        let cfg = MhKMeansConfig::new(3, 8, 2);
        let a = mh_kmeans(&data, &cfg);
        let b = mh_kmeans(&data, &cfg);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.centroids, b.centroids);
    }

    #[test]
    fn simhash_index_cluster_refs() {
        let data = blob_data(2, 3);
        let initial: Vec<ClusterId> = (0..6).map(|i| ClusterId(i / 3)).collect();
        let mut index = SimHashIndex::build(&data, 4, 2, 0, &initial);
        assert_eq!(index.cluster_of(4), ClusterId(1));
        index.set_cluster(4, ClusterId(0));
        assert_eq!(index.cluster_of(4), ClusterId(0));
    }

    #[test]
    fn shortlist_contains_own_cluster() {
        let data = blob_data(2, 4);
        let initial: Vec<ClusterId> = (0..8).map(|i| ClusterId(i / 4)).collect();
        let index = SimHashIndex::build(&data, 6, 2, 1, &initial);
        let mut out = Vec::new();
        let mut seen = FastSet::default();
        for item in 0..8u32 {
            index.shortlist_into(item, &mut out, &mut seen);
            assert!(
                out.contains(&index.cluster_of(item)),
                "item {item}: {out:?}"
            );
        }
    }

    #[test]
    fn kmeans_model_full_vs_among_consistency() {
        let data = blob_data(3, 4);
        let centroids = kmeans_initial_centroids(&data, 3, KMeansInit::RandomItems, 5);
        let model = KMeansModel::new(&data, centroids, 3);
        let all: Vec<ClusterId> = (0..3).map(ClusterId).collect();
        for item in 0..12u32 {
            let full = model.best_full(item);
            let among = model.best_among(item, &all).unwrap();
            assert_eq!(full.0, among.0);
            assert!((full.1 - among.1).abs() < 1e-12);
        }
    }

    #[test]
    fn inertia_comparable_to_exact_kmeans() {
        use lshclust_kmodes::kmeans::{kmeans, KMeansConfig};
        let data = blob_data(4, 10);
        let exact = kmeans(&data, &KMeansConfig::new(4));
        let accel = mh_kmeans(&data, &MhKMeansConfig::new(4, 16, 2));
        let accel_inertia = {
            let model = KMeansModel::new(&data, accel.centroids.clone(), 4);
            model.total_cost(&accel.assignments)
        };
        // Allow slack: different init draw order; blobs are so separated
        // both should land near the optimum.
        assert!(
            accel_inertia <= exact.inertia * 1.5 + 1.0,
            "accelerated inertia {accel_inertia} vs exact {}",
            exact.inertia
        );
    }
}
