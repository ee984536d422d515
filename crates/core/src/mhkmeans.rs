//! The further-work extension: LSH-accelerated **K-Means** for numeric data.
//!
//! The paper closes by proposing to extend the framework "to work with not
//! only categorical data, but numeric data". This module does exactly that by
//! swapping the two pluggable pieces of [`crate::framework`]:
//!
//! * the [`CentroidModel`] becomes K-Means (squared-Euclidean distances,
//!   mean centroids) over a [`NumericDataset`],
//! * the item index hashes with [`SimHashIndex`] — random-hyperplane LSH,
//!   whose collision probability is monotone in cosine similarity — into
//!   the same bucket store as MinHash keys.
//!
//! The driver, instrumentation, and convergence logic are *identical* to
//! MH-K-Modes ([`crate::modality::fit_full`]), which is the point: the
//! framework is algorithm-agnostic.

use crate::centroid_index::IndexScheme;
use crate::framework::{ActivitySet, CentroidModel, RecomputedFrom, StopPolicy};
use crate::modality::{fit_full, FitParams};
use lshclust_categorical::ClusterId;
use lshclust_kmodes::kmeans::{
    kmeans_initial_centroids, member_mean, sq_euclidean, KMeansInit, NumericDataset,
};
use lshclust_kmodes::stats::RunSummary;
use lshclust_minhash::index::LshIndexBuilder;
use lshclust_minhash::simhash::SimHash;
use lshclust_minhash::Banding;
use std::time::Instant;

/// The K-Means instantiation of [`CentroidModel`].
pub struct KMeansModel<'a> {
    data: &'a NumericDataset,
    centroids: Vec<f64>,
    k: usize,
    recomputed: RecomputedFrom,
}

impl<'a> KMeansModel<'a> {
    /// Wraps a dataset and initial centroids (`k × dim`, row-major).
    pub fn new(data: &'a NumericDataset, centroids: Vec<f64>, k: usize) -> Self {
        assert_eq!(centroids.len(), k * data.dim());
        Self {
            data,
            centroids,
            k,
            recomputed: RecomputedFrom::default(),
        }
    }

    /// The current centroids.
    pub fn centroids(&self) -> &[f64] {
        &self.centroids
    }

    /// Consumes the model, returning the centroids.
    pub fn into_centroids(self) -> Vec<f64> {
        self.centroids
    }

    /// The wrapped dataset (at its own lifetime; see
    /// `KModesModel::dataset_ref`).
    pub(crate) fn data_ref(&self) -> &'a NumericDataset {
        self.data
    }

    /// Mutable access to the centroid matrix (mini-batch nudges); the next
    /// update recomputes every cluster.
    pub(crate) fn centroids_mut(&mut self) -> &mut [f64] {
        self.recomputed.forget();
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
        self.recomputed.forget();
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
        self.update_centroids_parallel(assignments, 1)
    }

    fn update_centroids_parallel(
        &mut self,
        assignments: &[ClusterId],
        threads: usize,
    ) -> ActivitySet {
        let data = self.data;
        let dim = data.dim();
        let centroids = &mut self.centroids;
        self.recomputed.update(
            assignments,
            self.k,
            threads,
            || (),
            |members, _| member_mean(data, members),
            |c, mean| {
                let slot = &mut centroids[c.idx() * dim..(c.idx() + 1) * dim];
                // `!=` flags any change the distance kernel could observe
                // (±0.0 compare equal but behave identically in arithmetic).
                let changed = *slot != mean[..];
                slot.copy_from_slice(&mean);
                changed
            },
        )
    }

    fn total_cost(&self, assignments: &[ClusterId]) -> f64 {
        assignments
            .iter()
            .enumerate()
            .map(|(i, &c)| sq_euclidean(self.data.row(i), self.centroid(c.idx())))
            .sum()
    }
}

/// The SimHash hashing of an LSH index over numeric vectors: the
/// random-hyperplane family and the centring mean. The buckets are an
/// [`LshIndex`](lshclust_minhash::index::LshIndex) filled from the band
/// keys this hashes, exactly as MinHash
/// keys fill one ([`Self::builder`]); the family is kept so that unseen
/// query vectors hash into the same bucket universe ([`Self::keys_into`],
/// the SimHash side of [`crate::centroid_index::CentroidIndex`]).
#[derive(Clone)]
pub struct SimHashIndex {
    sim: SimHash,
    /// The mean vector subtracted before hashing (see [`Self::new`]).
    mean: Vec<f64>,
    bands: u32,
    rows: u32,
}

impl SimHashIndex {
    /// The family for `data`: `bands × rows` hyperplanes drawn from `seed`,
    /// centred on the mean of all items (summed serially, since float
    /// addition order matters).
    ///
    /// Vectors are **mean-centred** before hashing: random-hyperplane LSH
    /// discriminates by *angle from the origin*, and un-centred data (e.g.
    /// all-positive features) collapses into a narrow cone where everything
    /// collides. Centring puts the hyperplane pencil through the data
    /// centroid, spreading angles over the full sphere.
    pub fn new(data: &NumericDataset, bands: u32, rows: u32, seed: u64) -> Self {
        let n = data.n_items();
        let mut mean = vec![0.0f64; data.dim()];
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
        Self::with_mean(bands, rows, seed, mean)
    }

    /// The family around a given centring mean (a stored index's): the
    /// hyperplanes regenerate from `seed`, so queries hash as they did when
    /// the index was built.
    pub fn with_mean(bands: u32, rows: u32, seed: u64, mean: Vec<f64>) -> Self {
        Self {
            sim: SimHash::new(bands as usize * rows as usize, mean.len(), seed),
            mean,
            bands,
            rows,
        }
    }

    /// The centring mean subtracted before hashing; a stored index keeps it
    /// next to its band keys so a reloaded index centres queries the same way.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// The builder that fills an item index from this family's band keys.
    pub fn builder(&self) -> LshIndexBuilder {
        LshIndexBuilder::new(Banding::new(self.bands, self.rows))
    }

    /// Every item's band keys, item-major (`n_items × bands`), hashed over
    /// `threads` workers — byte-identical at any thread count, since each
    /// item's keys depend only on the item and the family.
    pub fn band_keys(&self, data: &NumericDataset, threads: usize) -> Vec<u64> {
        let n = data.n_items();
        let n_bands = self.bands as usize;
        // Per-item hashing fills the flat item-major key buffer directly —
        // one contiguous slice per worker, no per-item allocation.
        let mut band_keys = vec![0u64; n * n_bands];
        crate::parallel::fill_chunks(&mut band_keys, n, n_bands, threads, |start, slice| {
            let mut scratch = VectorQueryScratch::default();
            for (offset, out) in slice.chunks_mut(n_bands).enumerate() {
                out.copy_from_slice(self.keys_into(data.row(start + offset), &mut scratch));
            }
        });
        band_keys
    }

    /// Hashes one vector — centred with the stored mean — into its band
    /// keys, reusing `scratch`'s buffers.
    pub fn keys_into<'s>(&self, v: &[f64], scratch: &'s mut VectorQueryScratch) -> &'s [u64] {
        scratch.centred.clear();
        scratch
            .centred
            .extend(v.iter().zip(&self.mean).map(|(x, m)| x - m));
        self.sim.signature_into(&scratch.centred, &mut scratch.sig);
        self.sim
            .band_keys_into(&scratch.sig, self.bands, self.rows, &mut scratch.keys);
        &scratch.keys
    }
}

/// Reusable hashing buffers for [`SimHashIndex::keys_into`].
#[derive(Default)]
pub struct VectorQueryScratch {
    centred: Vec<f64>,
    sig: Vec<u64>,
    keys: Vec<u64>,
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

/// Runs LSH-accelerated K-Means: the accelerated full fit of
/// [`fit_full`] over SimHash keys.
pub fn mh_kmeans(data: &NumericDataset, config: &MhKMeansConfig) -> MhKMeansResult {
    let setup_start = Instant::now();
    let centroids = kmeans_initial_centroids(data, config.k, config.init, config.seed);
    let scheme = IndexScheme {
        minhash: None,
        simhash: Some((config.bands, config.rows)),
    };
    let fit = fit_full(
        data,
        &FitParams {
            stop: config.stop,
            threads: config.threads,
            closures: config.closures,
            interleaved: config.interleaved,
            ..FitParams::new(config.k, scheme, config.seed)
        },
        centroids,
        setup_start,
    );
    MhKMeansResult {
        assignments: fit.assignments,
        centroids: fit.centroids,
        summary: fit.summary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lshclust_minhash::index::LshIndex;

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

    /// An item index over `data`'s SimHash keys.
    fn simhash_index(
        data: &NumericDataset,
        bands: u32,
        rows: u32,
        seed: u64,
        initial: &[ClusterId],
    ) -> LshIndex {
        let family = SimHashIndex::new(data, bands, rows, seed);
        family
            .builder()
            .build_from_band_keys(family.band_keys(data, 1), initial)
    }

    #[test]
    fn simhash_index_cluster_refs() {
        let data = blob_data(2, 3);
        let initial: Vec<ClusterId> = (0..6).map(|i| ClusterId(i / 3)).collect();
        let mut index = simhash_index(&data, 4, 2, 0, &initial);
        assert_eq!(index.cluster_of(4), ClusterId(1));
        index.set_cluster(4, ClusterId(0));
        assert_eq!(index.cluster_of(4), ClusterId(0));
    }

    #[test]
    fn shortlist_contains_own_cluster() {
        let data = blob_data(2, 4);
        let initial: Vec<ClusterId> = (0..8).map(|i| ClusterId(i / 4)).collect();
        let index = simhash_index(&data, 6, 2, 1, &initial);
        let mut scratch = index.make_scratch(2);
        for item in 0..8u32 {
            index.shortlist(item, &mut scratch, false);
            assert!(
                scratch.clusters.contains(&index.cluster_of(item)),
                "item {item}: {:?}",
                scratch.clusters
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
