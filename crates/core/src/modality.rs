//! **One fit pipeline across modalities.** The paper's framework is one
//! shortlisted assignment loop in which only the centroid model and the
//! hash family change (§III), and its further work runs the same loop on
//! numeric and mixed data. [`Modality`] states once what differs between
//! the three inputs — a categorical [`Dataset`], a [`NumericDataset`] and a
//! [`MixedDataset`]: the centroid type, the centroid model, the item index
//! with its seed salts, and what the sharded coordinator broadcasts and
//! merges. Each pipeline is written once against it: the accelerated full
//! fit ([`fit_full`]), the mini-batch fit
//! ([`crate::minibatch::minibatch_fit`]) and the sharded coordinator with
//! its worker pass ([`crate::shard::shard_fit`]).
//!
//! Every item index is the same pipeline too: hash each item into band
//! keys — MinHash over the categorical part, SimHash over the numeric part
//! — and fill an [`LshIndex`] from the keys. A mixed item carries both
//! families; its shortlist is their union, MinHash candidates first.

use crate::centroid_index::{IndexScheme, Salts};
use crate::framework::{self, ActivitySet, CentroidModel, StopPolicy};
use crate::mhkmeans::{KMeansModel, SimHashIndex};
use crate::mhkmodes::{KModesModel, MinHashProvider};
use crate::mhkprototypes::{KPrototypesModel, UnionProvider};
use crate::minibatch::MiniBatchModel;
use crate::parallel::{self, hash_band_keys_parallel, SyncShortlistProvider};
use crate::shard::{CentroidSet, ModeSketch, ShardError};
use lshclust_categorical::{ClusterId, Dataset};
use lshclust_kmodes::kmeans::NumericDataset;
use lshclust_kmodes::kprototypes::{MixedDataset, Prototypes};
use lshclust_kmodes::modes::{group_by_cluster, Modes};
use lshclust_kmodes::stats::RunSummary;
use lshclust_minhash::index::{IndexStats, LshIndex, LshIndexBuilder};
use lshclust_minhash::QueryMode;
use std::ops::Range;
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

    /// The centroids as the sharded coordinator broadcasts them.
    fn broadcast(&self, centroids: Self::Centroids) -> CentroidSet;

    /// A shard worker's reading of a broadcast: its centroids, if the set
    /// has this modality and this input's shape at `k` clusters.
    fn receive(&self, set: CentroidSet, k: usize) -> Result<Self::Centroids, ShardError>;

    /// The coordinator's centroid update after a sharded pass: modes from
    /// the merged [`ModeSketch`], means replayed over the full input in
    /// ascending member order. Either way the result is bit-identical to
    /// the unsharded update, and so is the returned activity.
    fn merged_update(
        model: &mut Self::Model<'_>,
        sketch: Option<&ModeSketch>,
        assignments: &[ClusterId],
        threads: usize,
    ) -> ActivitySet;
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

    fn merged_update(
        model: &mut KModesModel<'_>,
        sketch: Option<&ModeSketch>,
        _assignments: &[ClusterId],
        _threads: usize,
    ) -> ActivitySet {
        let old = model.modes().clone();
        sketch
            .expect("categorical updates carry a sketch")
            .apply(model.modes_mut());
        let mut activity = ActivitySet::none(old.k());
        for c in 0..old.k() {
            if model.modes().mode(c) != old.mode(c) {
                activity.mark(ClusterId(c as u32));
            }
        }
        activity
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

    fn merged_update(
        model: &mut KMeansModel<'_>,
        _sketch: Option<&ModeSketch>,
        assignments: &[ClusterId],
        threads: usize,
    ) -> ActivitySet {
        // Partial f64 sums merged across shards would drift from the serial
        // sum in the last bits; the replay is the unsharded kernel itself.
        model.update_centroids_parallel(assignments, threads)
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

    fn merged_update(
        model: &mut KPrototypesModel<'_>,
        sketch: Option<&ModeSketch>,
        assignments: &[ClusterId],
        _threads: usize,
    ) -> ActivitySet {
        let data = model.data_ref();
        let k = model.k();
        let groups = group_by_cluster(assignments, k);
        let prototypes = model.prototypes_mut();
        let dim = prototypes.dim();
        let old = prototypes.clone();
        sketch
            .expect("mixed updates carry a sketch")
            .apply(&mut prototypes.modes);
        let mut mean = vec![0.0f64; dim];
        for c in 0..k {
            let members = groups.members(c);
            if members.is_empty() {
                continue; // keep previous mean
            }
            mean.iter_mut().for_each(|s| *s = 0.0);
            for &i in members {
                for (s, &x) in mean.iter_mut().zip(data.numeric.row(i as usize)) {
                    *s += x;
                }
            }
            for s in &mut mean {
                *s /= members.len() as f64;
            }
            prototypes.means[c * dim..(c + 1) * dim].copy_from_slice(&mean);
        }
        let mut activity = ActivitySet::none(k);
        for c in 0..k {
            if prototypes.modes.mode(c) != old.modes.mode(c)
                || prototypes.means[c * dim..(c + 1) * dim] != old.means[c * dim..(c + 1) * dim]
            {
                activity.mark(ClusterId(c as u32));
            }
        }
        activity
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

/// One hash family's item band keys (item-major, `n_items × bands`) and
/// the builder whose banding, salted seed and query mode fill an item
/// index from them.
pub(crate) struct FamilyKeys {
    /// Fills the family's [`LshIndex`].
    pub(crate) builder: LshIndexBuilder,
    /// The items' band keys.
    pub(crate) keys: Vec<u64>,
}

impl FamilyKeys {
    /// The keys of the items in `range`.
    pub(crate) fn items(&self, range: Range<usize>) -> &[u64] {
        let bands = self.builder.params().banding.bands() as usize;
        &self.keys[range.start * bands..range.end * bands]
    }
}

/// The item band keys of every family of a scheme that has a part in the
/// input — what the item index is filled from, and what the sharded
/// coordinator deals out to its shards.
pub(crate) struct ItemKeys {
    /// MinHash keys of the categorical part.
    pub(crate) minhash: Option<FamilyKeys>,
    /// SimHash keys of the numeric part, with the centring mean they were
    /// hashed against.
    pub(crate) simhash: Option<(FamilyKeys, Vec<f64>)>,
}

impl ItemKeys {
    /// Hashes every item of `data` with each family of `cfg.scheme` that
    /// has a part in it, seeded with `cfg.seed ^ D::ITEM_SALTS`; hashing
    /// fans over `cfg.threads` and is byte-identical at any thread count.
    pub(crate) fn hash<D: Modality>(data: &D, cfg: &FitParams) -> Self {
        let minhash = cfg
            .scheme
            .minhash
            .zip(data.categorical())
            .map(|(banding, rows)| {
                let builder = LshIndexBuilder::new(banding)
                    .seed(cfg.seed ^ D::ITEM_SALTS.minhash)
                    .mode(cfg.query_mode);
                let keys = hash_band_keys_parallel(&builder, rows, cfg.threads);
                FamilyKeys { builder, keys }
            });
        let simhash = cfg
            .scheme
            .simhash
            .zip(data.numeric())
            .map(|((bands, rows), points)| {
                let seed = cfg.seed ^ D::ITEM_SALTS.simhash;
                let family = SimHashIndex::new(points, bands, rows, seed);
                let builder = family.builder().seed(seed).mode(cfg.query_mode);
                let keys = family.band_keys(points, cfg.threads);
                (FamilyKeys { builder, keys }, family.mean().to_vec())
            });
        Self { minhash, simhash }
    }

    /// The families in index order: MinHash first, then SimHash.
    pub(crate) fn families(&self) -> impl Iterator<Item = &FamilyKeys> {
        self.minhash
            .iter()
            .chain(self.simhash.iter().map(|(family, _)| family))
    }

    /// Fills one item index per family, every item referencing its cluster
    /// in `assignments`.
    pub(crate) fn into_indexes(self, assignments: &[ClusterId]) -> Vec<LshIndex> {
        let simhash = self.simhash.map(|(family, _)| family);
        self.minhash
            .into_iter()
            .chain(simhash)
            .map(|family| {
                family
                    .builder
                    .build_from_band_keys(family.keys, assignments)
            })
            .collect()
    }
}

/// Bucket statistics over every family of an item index, as if one index
/// held all of their bands.
pub(crate) fn combined_stats(stats: impl IntoIterator<Item = IndexStats>) -> IndexStats {
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
    let indexes = ItemKeys::hash(data, cfg).into_indexes(&assignments);
    let index_stats = combined_stats(indexes.iter().map(LshIndex::stats));
    let mut provider = D::provider(indexes, cfg.k, cfg.include_self);
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
