//! **One fit pipeline across modalities.** The paper's framework is one
//! shortlisted assignment loop in which only the centroid model and the
//! hash family change (§III), and its further work runs the same loop on
//! numeric and mixed data. [`Modality`] states once what differs between
//! the three inputs — a categorical [`Dataset`], a [`NumericDataset`] and a
//! [`MixedDataset`]: the centroid type, the centroid model, the item index
//! with its seed salts, and the centroids the sharded coordinator sends its
//! shards. Each pipeline is written once against it: the accelerated full
//! fit ([`fit_full`]), the mini-batch fit
//! ([`crate::minibatch::minibatch_fit`]) and the sharded fit with its
//! worker scoring ([`crate::shard::shard_fit`]).
//!
//! Every item index is the same pipeline too: hash each item into band
//! keys — MinHash over the categorical part, SimHash over the numeric part
//! — and fill an [`LshIndex`] from the keys. A mixed item carries both
//! families; its shortlist is their union, MinHash candidates first.

use crate::centroid_index::{IndexScheme, Salts};
use crate::framework::{self, CentroidModel, StopPolicy};
use crate::mhkmeans::{KMeansModel, SimHashIndex};
use crate::mhkmodes::{KModesModel, MinHashProvider};
use crate::mhkprototypes::{KPrototypesModel, UnionProvider};
use crate::minibatch::MiniBatchModel;
use crate::parallel::{self, hash_band_keys_parallel, SyncShortlistProvider};
use crate::shard::{CentroidSet, ShardError};
use lshclust_categorical::{ClusterId, Dataset};
use lshclust_kmodes::kmeans::NumericDataset;
use lshclust_kmodes::kprototypes::{MixedDataset, Prototypes};
use lshclust_kmodes::modes::Modes;
use lshclust_kmodes::stats::RunSummary;
use lshclust_minhash::index::{IndexStats, LshIndex, LshIndexBuilder};
use lshclust_minhash::QueryMode;
use std::time::Instant;

/// What differs between the input modalities; see the [module docs](self).
pub trait Modality: Sync {
    /// The centroids: [`Modes`], a row-major `k × dim` mean matrix, or
    /// [`Prototypes`].
    type Centroids: Clone + Send + Sync;
    /// The centroid model over this input; its snapshots are centroids.
    type Model<'a>: MiniBatchModel + CentroidModel<Snapshot = Self::Centroids> + Sync
    where
        Self: 'a;
    /// The shortlist provider over the fit-time item index.
    type Provider: SyncShortlistProvider;
    /// The item index's seed salts, one per family: items are hashed with
    /// `seed ^ salt`, apart from the initialisation's draws.
    const ITEM_SALTS: Salts;

    /// Items in the input.
    fn n_items(&self) -> usize;

    /// The categorical part, MinHashed by the LSH indexes.
    fn categorical(&self) -> Option<&Dataset>;

    /// The numeric part, SimHashed by the LSH indexes.
    fn numeric(&self) -> Option<&NumericDataset>;

    /// Wraps `centroids` in the centroid model; `gamma` weighs the numeric
    /// part of a mixed distance and is ignored elsewhere.
    fn model(&self, centroids: Self::Centroids, gamma: f64) -> Self::Model<'_>;

    /// The model's centroids.
    fn centroids(model: Self::Model<'_>) -> Self::Centroids;

    /// The provider over the item index: one [`LshIndex`] per family of
    /// the scheme, MinHash first.
    fn provider(indexes: Vec<LshIndex>, k: usize, include_self: bool) -> Self::Provider;

    /// The centroids as the sharded coordinator sends them to its shards.
    fn broadcast(&self, centroids: Self::Centroids) -> CentroidSet;

    /// A shard worker's reading of a broadcast: its centroids, if the set
    /// has this modality and this input's shape at `k` clusters.
    fn receive(&self, set: CentroidSet, k: usize) -> Result<Self::Centroids, ShardError>;
}

/// The one index of a single-family modality.
fn only(mut indexes: Vec<LshIndex>) -> LshIndex {
    assert_eq!(indexes.len(), 1, "a single-family item index");
    indexes.pop().expect("one index")
}

impl Modality for Dataset {
    type Centroids = Modes;
    type Model<'a> = KModesModel<'a>;
    type Provider = MinHashProvider;
    // "MHKM"; the SimHash salt is unused.
    const ITEM_SALTS: Salts = Salts {
        minhash: 0x4d48_4b4d,
        simhash: 0,
    };

    fn n_items(&self) -> usize {
        Dataset::n_items(self)
    }

    fn categorical(&self) -> Option<&Dataset> {
        Some(self)
    }

    fn numeric(&self) -> Option<&NumericDataset> {
        None
    }

    fn model(&self, modes: Modes, _gamma: f64) -> KModesModel<'_> {
        KModesModel::new(self, modes)
    }

    fn centroids(model: KModesModel<'_>) -> Modes {
        model.into_modes()
    }

    fn provider(indexes: Vec<LshIndex>, k: usize, include_self: bool) -> MinHashProvider {
        MinHashProvider::new(only(indexes), k, include_self)
    }

    fn broadcast(&self, modes: Modes) -> CentroidSet {
        CentroidSet::Modes(modes)
    }

    fn receive(&self, set: CentroidSet, k: usize) -> Result<Modes, ShardError> {
        let CentroidSet::Modes(modes) = set else {
            return Err(modality_mismatch());
        };
        if modes.k() != k || modes.n_attrs() != self.n_attrs() {
            return Err(ShardError(format!(
                "modes {}×{} disagree with shard {k}×{}",
                modes.k(),
                modes.n_attrs(),
                self.n_attrs()
            )));
        }
        Ok(modes)
    }
}

impl Modality for NumericDataset {
    type Centroids = Vec<f64>;
    type Model<'a> = KMeansModel<'a>;
    type Provider = MinHashProvider;
    // The numeric item index hashes with the spec's seed as it is.
    const ITEM_SALTS: Salts = Salts {
        minhash: 0,
        simhash: 0,
    };

    fn n_items(&self) -> usize {
        NumericDataset::n_items(self)
    }

    fn categorical(&self) -> Option<&Dataset> {
        None
    }

    fn numeric(&self) -> Option<&NumericDataset> {
        Some(self)
    }

    fn model(&self, centroids: Vec<f64>, _gamma: f64) -> KMeansModel<'_> {
        let k = centroids.len() / self.dim();
        KMeansModel::new(self, centroids, k)
    }

    fn centroids(model: KMeansModel<'_>) -> Vec<f64> {
        model.into_centroids()
    }

    fn provider(indexes: Vec<LshIndex>, k: usize, include_self: bool) -> MinHashProvider {
        MinHashProvider::new(only(indexes), k, include_self)
    }

    fn broadcast(&self, centroids: Vec<f64>) -> CentroidSet {
        CentroidSet::Means {
            k: centroids.len() / self.dim(),
            dim: self.dim(),
            values: centroids,
        }
    }

    fn receive(&self, set: CentroidSet, want_k: usize) -> Result<Vec<f64>, ShardError> {
        let CentroidSet::Means { k, dim, values } = set else {
            return Err(modality_mismatch());
        };
        if k != want_k || dim != self.dim() || values.len() != k * dim {
            return Err(ShardError(format!(
                "means {k}×{dim} ({} values) disagree with shard {want_k}×{}",
                values.len(),
                self.dim()
            )));
        }
        Ok(values)
    }
}

impl<'m> Modality for MixedDataset<'m> {
    type Centroids = Prototypes;
    type Model<'a>
        = KPrototypesModel<'a>
    where
        Self: 'a;
    type Provider = UnionProvider<MinHashProvider, MinHashProvider>;
    // "mhkp" / "shkp".
    const ITEM_SALTS: Salts = Salts {
        minhash: 0x6d68_6b70,
        simhash: 0x7368_6b70,
    };

    fn n_items(&self) -> usize {
        MixedDataset::n_items(self)
    }

    fn categorical(&self) -> Option<&Dataset> {
        Some(self.categorical)
    }

    fn numeric(&self) -> Option<&NumericDataset> {
        Some(self.numeric)
    }

    fn model(&self, prototypes: Prototypes, gamma: f64) -> KPrototypesModel<'_> {
        KPrototypesModel::new(self, prototypes, gamma)
    }

    fn centroids(model: KPrototypesModel<'_>) -> Prototypes {
        model.into_prototypes()
    }

    fn provider(indexes: Vec<LshIndex>, k: usize, include_self: bool) -> Self::Provider {
        let [minhash, simhash] = <[LshIndex; 2]>::try_from(indexes)
            .ok()
            .expect("a MinHash and a SimHash item index");
        UnionProvider::new(
            MinHashProvider::new(minhash, k, include_self),
            MinHashProvider::new(simhash, k, include_self),
        )
    }

    fn broadcast(&self, prototypes: Prototypes) -> CentroidSet {
        CentroidSet::Prototypes(prototypes)
    }

    fn receive(&self, set: CentroidSet, k: usize) -> Result<Prototypes, ShardError> {
        let CentroidSet::Prototypes(prototypes) = set else {
            return Err(modality_mismatch());
        };
        if prototypes.k() != k
            || prototypes.modes.n_attrs() != self.categorical.n_attrs()
            || prototypes.dim() != self.numeric.dim()
        {
            return Err(ShardError("prototypes disagree with shard shape".into()));
        }
        Ok(prototypes)
    }
}

fn modality_mismatch() -> ShardError {
    ShardError("centroid set disagrees with modality".into())
}

/// Everything an accelerated fit reads besides the input and its initial
/// centroids — the per-family configs and the facade's spec lower onto it.
#[derive(Clone, Debug)]
pub struct FitParams {
    /// Number of clusters `k`.
    pub k: usize,
    /// The item index's hash families; a family applies where the input
    /// has its part.
    pub scheme: IndexScheme,
    /// Iteration policy of the shortlisted loop.
    pub stop: StopPolicy,
    /// Seed of the hash families (salted per modality).
    pub seed: u64,
    /// Bucket scan vs precomputed candidate lists (identical results).
    pub query_mode: QueryMode,
    /// Whether an item's own index entry contributes its current cluster
    /// to its shortlist (`false` is the self-collision ablation).
    pub include_self: bool,
    /// Assignment threads: `1` runs the serial Gauss–Seidel loop, more the
    /// Jacobi engine of [`crate::parallel`].
    pub threads: usize,
    /// Cluster-closure incremental assignment (identical results).
    pub closures: bool,
    /// Interleaved parallel chunk scheduling (identical results).
    pub interleaved: bool,
    /// Mixing weight γ of a mixed distance (ignored elsewhere).
    pub gamma: f64,
}

impl FitParams {
    /// The per-family configs' defaults: 100-iteration cap, bucket scans,
    /// self-collision on, one thread, closures on, contiguous chunks, γ 0.
    pub fn new(k: usize, scheme: IndexScheme, seed: u64) -> Self {
        Self {
            k,
            scheme,
            stop: StopPolicy::default(),
            seed,
            query_mode: QueryMode::ScanBuckets,
            include_self: true,
            threads: 1,
            closures: true,
            interleaved: false,
            gamma: 0.0,
        }
    }
}

/// Result of an accelerated fit.
#[derive(Clone, Debug)]
pub struct FitResult<C> {
    /// Final cluster per item.
    pub assignments: Vec<ClusterId>,
    /// Final centroids.
    pub centroids: C,
    /// Instrumentation: setup covers the initial pass, the refresh and the
    /// item index; iterations cover the shortlisted passes.
    pub summary: RunSummary,
    /// Bucket statistics of the item index, over all its families.
    pub index_stats: IndexStats,
}

/// The item index of a fit: every item of `data` hashed with each family
/// of `cfg.scheme` that has a part in it, seeded with
/// `cfg.seed ^ D::ITEM_SALTS` and fanned over `cfg.threads` (byte-identical
/// at any thread count), its bucket entries referencing the item's cluster
/// in `assignments`. Returns the shortlist provider over it and its bucket
/// statistics.
pub(crate) fn item_index<D: Modality>(
    data: &D,
    cfg: &FitParams,
    assignments: &[ClusterId],
) -> (D::Provider, IndexStats) {
    let minhash = cfg
        .scheme
        .minhash
        .zip(data.categorical())
        .map(|(banding, rows)| {
            let builder = LshIndexBuilder::new(banding)
                .seed(cfg.seed ^ D::ITEM_SALTS.minhash)
                .mode(cfg.query_mode);
            let keys = hash_band_keys_parallel(&builder, rows, cfg.threads);
            builder.build_from_band_keys(keys, assignments)
        });
    let simhash = cfg
        .scheme
        .simhash
        .zip(data.numeric())
        .map(|((bands, rows), points)| {
            let seed = cfg.seed ^ D::ITEM_SALTS.simhash;
            let family = SimHashIndex::new(points, bands, rows, seed);
            let keys = family.band_keys(points, cfg.threads);
            family
                .builder()
                .seed(seed)
                .mode(cfg.query_mode)
                .build_from_band_keys(keys, assignments)
        });
    let indexes: Vec<LshIndex> = minhash.into_iter().chain(simhash).collect();
    let stats = combined_stats(indexes.iter().map(LshIndex::stats));
    (D::provider(indexes, cfg.k, cfg.include_self), stats)
}

/// Bucket statistics over every family of an item index, as if one index
/// held all of their bands.
fn combined_stats(stats: impl IntoIterator<Item = IndexStats>) -> IndexStats {
    stats
        .into_iter()
        .reduce(|a, b| IndexStats {
            n_items: a.n_items,
            n_bands: a.n_bands + b.n_bands,
            n_buckets: a.n_buckets + b.n_buckets,
            total_entries: a.total_entries + b.total_entries,
            largest_bucket: a.largest_bucket.max(b.largest_bucket),
        })
        .expect("an item index has at least one family")
}

/// The accelerated full fit, written once (the paper's Algorithm 2 for any
/// modality):
///
/// 1. one *full* assignment pass over all `k` centroids, fanned over
///    `cfg.threads` (byte-identical to the serial pass);
/// 2. one centroid refresh, so the first shortlisted pass works against
///    up-to-date centroids (the tail of a baseline iteration);
/// 3. the item index: every item hashed by each family, its bucket entries
///    referencing the cluster the item was just assigned to;
/// 4. shortlisted iterations — the serial Gauss–Seidel loop at one thread,
///    the Jacobi engine otherwise.
///
/// Steps 1–3 are the "initial extra step" the paper counts in total time:
/// `setup_start` should be the instant initialisation began. Panics when
/// `cfg.scheme` has no family the input has a part for (the facade runs
/// the exact baseline instead).
pub fn fit_full<D: Modality>(
    data: &D,
    cfg: &FitParams,
    centroids: D::Centroids,
    setup_start: Instant,
) -> FitResult<D::Centroids> {
    let mut model = data.model(centroids, cfg.gamma);
    assert_eq!(
        model.k(),
        cfg.k,
        "initial centroids disagree with configured k"
    );
    let mut assignments = vec![ClusterId(0); data.n_items()];
    parallel::assign_full_parallel(&model, &mut assignments, cfg.threads);
    model.update_centroids_parallel(&assignments, cfg.threads);
    let (mut provider, index_stats) = item_index(data, cfg, &assignments);
    let setup = setup_start.elapsed();
    let run = if cfg.threads <= 1 {
        framework::fit(
            &mut model,
            &mut provider,
            assignments,
            setup,
            &cfg.stop,
            cfg.closures,
        )
    } else {
        parallel::parallel_fit(
            &mut model,
            &mut provider,
            assignments,
            setup,
            &cfg.stop,
            cfg.threads,
            cfg.closures,
            cfg.interleaved,
        )
    };
    FitResult {
        assignments: run.assignments,
        centroids: D::centroids(model),
        summary: run.summary,
        index_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minibatch::MiniBatchModel;
    use lshclust_categorical::{Schema, ValueId};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::fmt::Debug;

    const N: usize = 60;
    const K: usize = 6;
    const ITEMS: [u32; K] = [0, 1, 2, 3, 4, 5];

    /// Three-value domains, so that modes tie and flip often.
    fn categorical(seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let values = (0..N * 4)
            .map(|_| ValueId(rng.random_range(0..3u32)))
            .collect();
        Dataset::from_parts(Schema::anonymous(4), values, None)
    }

    fn numeric(seed: u64) -> NumericDataset {
        let mut rng = StdRng::seed_from_u64(seed);
        NumericDataset::new(3, (0..N * 3).map(|_| rng.random_range(-2.0..2.0)).collect())
    }

    fn means(data: &NumericDataset) -> Vec<f64> {
        ITEMS
            .iter()
            .flat_map(|&i| data.row(i as usize).to_vec())
            .collect()
    }

    /// Drives a model through random assignment vectors — clusters emptied
    /// and refilled, rollbacks, nudges, unchanged passes — updating at
    /// `threads`, and checks every update against a fresh model's full
    /// recompute from the same centroids, serially.
    fn touched_update_is_a_full_recompute<D: Modality>(data: &D, initial: D::Centroids, seed: u64)
    where
        D::Centroids: PartialEq + Debug,
    {
        for threads in [1, 2] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut model = data.model(initial.clone(), 0.5);
            let mut sketch = model.make_sketch();
            let mut assignments: Vec<ClusterId> =
                (0..N).map(|i| ClusterId((i % K) as u32)).collect();
            let mut saved = None;
            let cluster = |rng: &mut StdRng| ClusterId(rng.random_range(0..K as u32));
            for step in 0..80 {
                match rng.random_range(0..8) {
                    0 => {
                        let (from, to) = (cluster(&mut rng), cluster(&mut rng));
                        for a in assignments.iter_mut().filter(|a| **a == from) {
                            *a = to;
                        }
                    }
                    1 => {
                        let c = cluster(&mut rng);
                        let start = rng.random_range(0..N);
                        assignments[start..(start + 12).min(N)].fill(c);
                    }
                    2 => {
                        if let Some(snapshot) = saved.take() {
                            model.restore_centroids(snapshot);
                        }
                    }
                    3 => {
                        let item = rng.random_range(0..N as u32);
                        let c = cluster(&mut rng);
                        model.absorb(&mut sketch, item, c);
                    }
                    4 => {}
                    _ => {
                        for _ in 0..rng.random_range(1..4) {
                            let i = rng.random_range(0..N);
                            assignments[i] = cluster(&mut rng);
                        }
                    }
                }
                if rng.random_range(0..4) == 0 {
                    saved = Some(model.snapshot_centroids());
                }
                let mut fresh = data.model(model.snapshot_centroids(), 0.5);
                let want = fresh.update_centroids(&assignments);
                let got = model.update_centroids_parallel(&assignments, threads);
                assert_eq!(got, want, "threads {threads}, step {step}: activity");
                assert_eq!(
                    model.snapshot_centroids(),
                    fresh.snapshot_centroids(),
                    "threads {threads}, step {step}: centroids"
                );
            }
        }
    }

    #[test]
    fn touched_mode_update_is_a_full_recompute() {
        for seed in 0..4 {
            let data = categorical(seed);
            let modes = Modes::from_items(&data, &ITEMS);
            touched_update_is_a_full_recompute(&data, modes, seed);
        }
    }

    #[test]
    fn touched_mean_update_is_a_full_recompute() {
        for seed in 0..4 {
            let data = numeric(seed);
            touched_update_is_a_full_recompute(&data, means(&data), seed);
        }
    }

    #[test]
    fn touched_prototype_update_is_a_full_recompute() {
        for seed in 0..4 {
            let (cat, num) = (categorical(seed), numeric(seed + 100));
            let data = MixedDataset::new(&cat, &num);
            let prototypes = Prototypes::from_items(&data, &ITEMS);
            touched_update_is_a_full_recompute(&data, prototypes, seed);
        }
    }
}
