//! **MH-K-Modes** — the paper's instantiation of the framework (§III-B,
//! Algorithm 2): K-Modes accelerated with a MinHash LSH index.
//!
//! The run proceeds exactly as the paper describes:
//!
//! 1. select `k` initial modes (shared with the baseline via the same seed),
//! 2. one *full* assignment pass over all `k` clusters,
//! 3. MinHash every item into the LSH index, storing a cluster reference per
//!    item (this plus step 2 is the "initial extra step" the paper counts in
//!    total time),
//! 4. iterate: shortlist → restricted assignment → O(1) reference update on
//!    every move → mode recomputation, until no item moves or the cost stops
//!    improving.
//!
//! Steps 2–4 are [`crate::modality::fit_full`], the full fit every modality
//! shares; this module holds the K-Modes model and the MinHash provider.

use crate::centroid_index::IndexScheme;
use crate::framework::{ActivitySet, CentroidModel, ShortlistProvider, StopPolicy};
use crate::modality::{fit_full, FitParams, FitResult};
use lshclust_categorical::{ClusterId, Dataset, ValueId};
use lshclust_kmodes::assign::{best_cluster_among, best_cluster_full};
use lshclust_kmodes::cost::total_cost;
use lshclust_kmodes::init::{initial_modes, InitMethod};
use lshclust_kmodes::modes::{group_by_cluster, Modes};
use lshclust_kmodes::stats::RunSummary;
use lshclust_minhash::index::{IndexStats, LshIndex, ShortlistScratch};
use lshclust_minhash::{Banding, QueryMode};
use std::time::Instant;

/// Configuration for an MH-K-Modes run.
#[derive(Clone, Debug)]
pub struct MhKModesConfig {
    /// Number of clusters `k`.
    pub k: usize,
    /// LSH banding scheme (`b` bands × `r` rows; the paper sweeps
    /// 1b1r / 20b2r / 20b5r / 50b5r).
    pub banding: Banding,
    /// Iteration policy for the shortlisted phase (cap + stop criteria).
    pub stop: StopPolicy,
    /// Centroid initialisation (defaults to the paper's random selection).
    pub init: InitMethod,
    /// Seed driving initialisation *and* the MinHash family.
    pub seed: u64,
    /// Bucket scan vs precomputed candidate lists (identical results).
    pub query_mode: QueryMode,
    /// Whether the item's own index entry may contribute its current cluster
    /// to the shortlist (`true` is Algorithm 2's behaviour; `false` exists
    /// for the self-collision ablation).
    pub include_self: bool,
    /// Assignment-pass threads. `1` reproduces the paper's single-threaded
    /// setup; `> 1` uses the Jacobi-style parallel pass of [`crate::parallel`].
    pub threads: usize,
    /// Cluster-closure incremental assignment: skip re-evaluating items whose
    /// cached shortlist touches no active cluster. Byte-identical results
    /// either way; `false` is the `--no-closures` escape hatch.
    pub closures: bool,
    /// Interleaved (round-robin) chunk scheduling for the parallel assignment
    /// pass instead of contiguous chunks. Identical results.
    pub interleaved: bool,
}

impl MhKModesConfig {
    /// Defaults mirroring the paper's setup.
    pub fn new(k: usize, banding: Banding) -> Self {
        Self {
            k,
            banding,
            stop: StopPolicy::default(),
            init: InitMethod::RandomItems,
            seed: 0,
            query_mode: QueryMode::ScanBuckets,
            include_self: true,
            threads: 1,
            closures: true,
            interleaved: false,
        }
    }

    /// Sets the iteration cap (shorthand for adjusting [`Self::stop`]).
    pub fn max_iterations(mut self, n: usize) -> Self {
        self.stop.max_iterations = n;
        self
    }

    /// Sets the full iteration policy.
    pub fn stop(mut self, stop: StopPolicy) -> Self {
        self.stop = stop;
        self
    }

    /// Sets the initialisation method.
    pub fn init(mut self, init: InitMethod) -> Self {
        self.init = init;
        self
    }

    /// Sets the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the index query mode.
    pub fn query_mode(mut self, mode: QueryMode) -> Self {
        self.query_mode = mode;
        self
    }

    /// Enables/disables self-collision (ablation).
    pub fn include_self(mut self, yes: bool) -> Self {
        self.include_self = yes;
        self
    }

    /// Sets the number of assignment threads. `0` is normalised to `1`
    /// (serial) — the documented clamp shared with
    /// `lshclust::ClusterSpec::threads`.
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

    /// This config as the modality-generic fits read it.
    pub(crate) fn lower(&self) -> FitParams {
        let scheme = IndexScheme {
            minhash: Some(self.banding),
            simhash: None,
        };
        FitParams {
            stop: self.stop,
            query_mode: self.query_mode,
            include_self: self.include_self,
            threads: self.threads,
            closures: self.closures,
            interleaved: self.interleaved,
            ..FitParams::new(self.k, scheme, self.seed)
        }
    }
}

/// The K-Modes instantiation of [`CentroidModel`].
///
/// Borrowing the dataset and owning the modes, it delegates to the exact same
/// assignment kernels as the full-search baseline so that the shortlist is
/// the *only* difference between the two algorithms.
pub struct KModesModel<'a> {
    dataset: &'a Dataset,
    modes: Modes,
}

impl<'a> KModesModel<'a> {
    /// Wraps a dataset and initial modes.
    pub fn new(dataset: &'a Dataset, modes: Modes) -> Self {
        assert_eq!(dataset.n_attrs(), modes.n_attrs());
        Self { dataset, modes }
    }

    /// The current modes.
    pub fn modes(&self) -> &Modes {
        &self.modes
    }

    /// Consumes the model, returning the modes.
    pub fn into_modes(self) -> Modes {
        self.modes
    }

    /// The wrapped dataset (returned at the dataset's own lifetime, not the
    /// borrow's, so callers can hold a row across a centroid mutation).
    pub(crate) fn dataset_ref(&self) -> &'a Dataset {
        self.dataset
    }

    /// Mutable access to the modes (mini-batch nudges).
    pub(crate) fn modes_mut(&mut self) -> &mut Modes {
        &mut self.modes
    }
}

impl CentroidModel for KModesModel<'_> {
    type Snapshot = Modes;

    fn snapshot_centroids(&self) -> Modes {
        self.modes.clone()
    }

    fn restore_centroids(&mut self, snapshot: Modes) {
        self.modes = snapshot;
    }

    fn k(&self) -> usize {
        self.modes.k()
    }

    fn n_items(&self) -> usize {
        self.dataset.n_items()
    }

    fn best_full(&self, item: u32) -> (ClusterId, f64) {
        let (c, d) = best_cluster_full(self.dataset.row(item as usize), &self.modes);
        (c, f64::from(d))
    }

    fn best_among(&self, item: u32, candidates: &[ClusterId]) -> Option<(ClusterId, f64)> {
        best_cluster_among(self.dataset.row(item as usize), &self.modes, candidates)
            .map(|(c, d)| (c, f64::from(d)))
    }

    fn update_centroids(&mut self, assignments: &[ClusterId]) -> ActivitySet {
        let old = self.modes.clone();
        self.modes.recompute(self.dataset, assignments);
        let mut activity = ActivitySet::none(self.k());
        for c in 0..self.k() {
            if self.modes.mode(c) != old.mode(c) {
                activity.mark(ClusterId(c as u32));
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
        // Cluster-by-cluster recomputation through the same kernel as the
        // serial path — bit-identical at any thread count.
        let k = self.k();
        let groups = group_by_cluster(assignments, k);
        let dataset = self.dataset;
        let new_modes: Vec<Option<Vec<ValueId>>> = crate::parallel::chunked_map(
            k,
            threads,
            Vec::new,
            |c, counts: &mut Vec<(ValueId, u32)>| {
                let members = groups.members(c as usize);
                if members.is_empty() {
                    return None; // keep previous mode
                }
                let mut mode = Vec::with_capacity(dataset.n_attrs());
                Modes::mode_of_members(dataset, members, counts, &mut mode);
                Some(mode)
            },
        );
        let mut activity = ActivitySet::none(k);
        for (c, mode) in new_modes.iter().enumerate() {
            if let Some(mode) = mode {
                if self.modes.mode(c) != mode.as_slice() {
                    activity.mark(ClusterId(c as u32));
                }
                self.modes.set_mode(ClusterId(c as u32), mode);
            }
        }
        activity
    }

    fn total_cost(&self, assignments: &[ClusterId]) -> f64 {
        total_cost(self.dataset, &self.modes, assignments) as f64
    }
}

/// The [`ShortlistProvider`] over one [`LshIndex`] — MinHash keys in the
/// paper's instantiation, SimHash keys for numeric items.
pub struct MinHashProvider {
    index: LshIndex,
    scratch: ShortlistScratch,
    n_clusters: usize,
    include_self: bool,
}

impl MinHashProvider {
    /// Wraps a built index. `n_clusters` sizes the dedup scratch.
    pub fn new(index: LshIndex, n_clusters: usize, include_self: bool) -> Self {
        let scratch = index.make_scratch(n_clusters);
        Self {
            index,
            scratch,
            n_clusters,
            include_self,
        }
    }

    /// Read access to the wrapped index.
    pub fn index(&self) -> &LshIndex {
        &self.index
    }
}

impl ShortlistProvider for MinHashProvider {
    fn shortlist(&mut self, item: u32, out: &mut Vec<ClusterId>) {
        self.index
            .shortlist(item, &mut self.scratch, !self.include_self);
        out.clear();
        out.extend_from_slice(&self.scratch.clusters);
    }

    fn record_assignment(&mut self, item: u32, cluster: ClusterId) {
        self.index.set_cluster(item, cluster);
    }
}

impl crate::parallel::SyncShortlistProvider for MinHashProvider {
    type Scratch = ShortlistScratch;

    fn make_scratch(&self) -> ShortlistScratch {
        self.index.make_scratch(self.n_clusters)
    }

    fn shortlist_into(&self, item: u32, scratch: &mut ShortlistScratch, out: &mut Vec<ClusterId>) {
        self.index.shortlist(item, scratch, !self.include_self);
        out.clear();
        out.extend_from_slice(&scratch.clusters);
    }
}

/// The MH-K-Modes estimator.
#[derive(Clone, Debug)]
pub struct MhKModes {
    config: MhKModesConfig,
}

/// Result of an MH-K-Modes run.
#[derive(Clone, Debug)]
pub struct MhKModesResult {
    /// Final cluster per item.
    pub assignments: Vec<ClusterId>,
    /// Final modes.
    pub modes: Modes,
    /// Instrumentation: setup covers initial assignment + index build;
    /// iterations cover the shortlisted passes.
    pub summary: RunSummary,
    /// Bucket statistics of the LSH index.
    pub index_stats: IndexStats,
}

impl From<FitResult<Modes>> for MhKModesResult {
    fn from(fit: FitResult<Modes>) -> Self {
        Self {
            assignments: fit.assignments,
            modes: fit.centroids,
            summary: fit.summary,
            index_stats: fit.index_stats,
        }
    }
}

impl MhKModes {
    /// Creates an estimator from a configuration.
    pub fn new(config: MhKModesConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MhKModesConfig {
        &self.config
    }

    /// Runs MH-K-Modes on `dataset`.
    pub fn fit(&self, dataset: &Dataset) -> MhKModesResult {
        let cfg = &self.config;
        let setup_start = Instant::now();
        let modes = initial_modes(dataset, cfg.k, cfg.init, cfg.seed);
        self.fit_from(dataset, modes, setup_start)
    }

    /// Runs MH-K-Modes from explicit initial modes: the accelerated full
    /// fit of [`fit_full`] over MinHash keys. `setup_start` should be the
    /// instant initialisation began, so that setup time is complete.
    pub fn fit_from(
        &self,
        dataset: &Dataset,
        modes: Modes,
        setup_start: Instant,
    ) -> MhKModesResult {
        fit_full(dataset, &self.config.lower(), modes, setup_start).into()
    }
}

/// Convenience: run baseline K-Modes and MH-K-Modes from identical initial
/// centroids (the paper's controlled comparison) and return both results.
pub fn paired_run(
    dataset: &Dataset,
    k: usize,
    banding: Banding,
    seed: u64,
    max_iterations: usize,
) -> (lshclust_kmodes::KModesResult, MhKModesResult) {
    let init_start = Instant::now();
    let modes = initial_modes(dataset, k, InitMethod::RandomItems, seed);
    let init_time = init_start.elapsed();

    let baseline = lshclust_kmodes::KModes::new(
        lshclust_kmodes::KModesConfig::new(k)
            .seed(seed)
            .max_iterations(max_iterations),
    )
    .fit_from(dataset, modes.clone(), init_time);

    let mh_start = Instant::now();
    let mh = MhKModes::new(
        MhKModesConfig::new(k, banding)
            .seed(seed)
            .max_iterations(max_iterations),
    )
    .fit_from(dataset, modes, mh_start);

    (baseline, mh)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lshclust_categorical::DatasetBuilder;

    /// `groups` blobs of `per_group` items over `n_attrs` attributes; items
    /// in a blob share all but one attribute value.
    fn blob_dataset(groups: usize, per_group: usize, n_attrs: usize) -> Dataset {
        let mut b = DatasetBuilder::anonymous(n_attrs);
        for g in 0..groups {
            for i in 0..per_group {
                let row: Vec<String> = (0..n_attrs)
                    .map(|a| {
                        if a == n_attrs - 1 {
                            format!("g{g}-noise{i}")
                        } else {
                            format!("g{g}-a{a}")
                        }
                    })
                    .collect();
                let refs: Vec<&str> = row.iter().map(String::as_str).collect();
                b.push_str_row(&refs, Some(g as u32)).unwrap();
            }
        }
        b.finish()
    }

    #[test]
    fn recovers_obvious_blobs() {
        let ds = blob_dataset(4, 6, 8);
        let cfg = MhKModesConfig::new(4, Banding::new(16, 2)).seed(3);
        let result = MhKModes::new(cfg).fit(&ds);
        assert!(result.summary.converged);
        // Every blob is pure: items of the same blob share a cluster.
        let labels = ds.labels().unwrap();
        for i in 0..ds.n_items() {
            for j in 0..ds.n_items() {
                if labels[i] == labels[j] {
                    assert_eq!(result.assignments[i], result.assignments[j]);
                }
            }
        }
    }

    #[test]
    fn shortlist_is_much_smaller_than_k() {
        let ds = blob_dataset(8, 5, 10);
        let cfg = MhKModesConfig::new(8, Banding::new(10, 3)).seed(1);
        let result = MhKModes::new(cfg).fit(&ds);
        for s in &result.summary.iterations {
            assert!(
                s.avg_candidates < 8.0,
                "avg shortlist {} not below k=8",
                s.avg_candidates
            );
        }
    }

    #[test]
    fn agrees_with_baseline_on_well_separated_data() {
        let ds = blob_dataset(5, 6, 10);
        let (baseline, mh) = paired_run(&ds, 5, Banding::new(16, 2), 7, 50);
        // Same partition (cluster ids may permute — compare co-membership).
        for i in 0..ds.n_items() {
            for j in (i + 1)..ds.n_items() {
                let same_base = baseline.assignments[i] == baseline.assignments[j];
                let same_mh = mh.assignments[i] == mh.assignments[j];
                assert_eq!(same_base, same_mh, "items {i},{j} co-membership differs");
            }
        }
    }

    #[test]
    fn self_collision_keeps_shortlist_nonempty() {
        let ds = blob_dataset(3, 4, 6);
        let cfg = MhKModesConfig::new(3, Banding::new(4, 2)).seed(5);
        let result = MhKModes::new(cfg).fit(&ds);
        for s in &result.summary.iterations {
            assert!(
                s.avg_candidates >= 1.0,
                "shortlist dipped below 1: {}",
                s.avg_candidates
            );
        }
    }

    #[test]
    fn exclude_self_ablation_still_runs() {
        let ds = blob_dataset(3, 4, 6);
        let cfg = MhKModesConfig::new(3, Banding::new(4, 2))
            .seed(5)
            .include_self(false);
        let result = MhKModes::new(cfg).fit(&ds);
        assert!(result.summary.n_iterations() >= 1);
    }

    #[test]
    fn query_modes_produce_identical_clusterings() {
        let ds = blob_dataset(4, 5, 8);
        let scan = MhKModes::new(
            MhKModesConfig::new(4, Banding::new(8, 2))
                .seed(2)
                .query_mode(QueryMode::ScanBuckets),
        )
        .fit(&ds);
        let pre = MhKModes::new(
            MhKModesConfig::new(4, Banding::new(8, 2))
                .seed(2)
                .query_mode(QueryMode::Precomputed),
        )
        .fit(&ds);
        assert_eq!(scan.assignments, pre.assignments);
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = blob_dataset(4, 5, 8);
        let cfg = MhKModesConfig::new(4, Banding::new(8, 2)).seed(11);
        let a = MhKModes::new(cfg.clone()).fit(&ds);
        let b = MhKModes::new(cfg).fit(&ds);
        assert_eq!(a.assignments, b.assignments);
    }

    #[test]
    fn index_stats_are_populated() {
        let ds = blob_dataset(2, 5, 6);
        let cfg = MhKModesConfig::new(2, Banding::new(6, 2)).seed(0);
        let result = MhKModes::new(cfg).fit(&ds);
        assert_eq!(result.index_stats.n_items, 10);
        assert_eq!(result.index_stats.total_entries, 10 * 6);
    }

    #[test]
    fn paired_run_shares_initialisation() {
        // With banding so aggressive every pair collides, MH must match the
        // baseline exactly (same init, same tie-breaks, full shortlists).
        let ds = blob_dataset(3, 4, 6);
        let (baseline, mh) = paired_run(&ds, 3, Banding::new(64, 1), 9, 50);
        assert_eq!(baseline.assignments, mh.assignments);
        assert_eq!(
            baseline.summary.final_cost(),
            mh.summary.iterations.last().map(|s| s.cost)
        );
    }

    #[test]
    fn max_iterations_zero_shortlist_phase() {
        let ds = blob_dataset(2, 3, 5);
        let cfg = MhKModesConfig::new(2, Banding::new(4, 1))
            .max_iterations(1)
            .seed(1);
        let result = MhKModes::new(cfg).fit(&ds);
        assert_eq!(result.summary.n_iterations(), 1);
    }
}
