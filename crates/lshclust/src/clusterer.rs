//! The unified entry point: [`Clusterer`] dispatches a [`ClusterSpec`] over
//! the input modality and lowers it onto one implementation per discipline.
//!
//! The dispatch is written once, generically over core's [`Modality`]
//! trait: shards, mini-batch, the accelerated full fit or the exact
//! baseline, warm or cold. A modality adds only what the facade must know
//! about it (`FitInput`). Lowering is *exact*: at equal seeds, a
//! facade run is byte-identical to the corresponding per-family entry point
//! (`MhKModes::fit`, `KModes::fit`, `mh_kmeans`, `mh_kprototypes`,
//! `kmeans`, `kprototypes`) — pinned by `tests/equivalence.rs`.
//!
//! Every fit also produces the serving artifact: the returned
//! [`ClusterRun`] owns a [`FittedModel`] (centroids + a frozen LSH index
//! over them) ready for `predict`, `save`, and
//! [`ClusterSpec::warm_start`].

use crate::model::FittedModel;
use crate::run::{Centroids, ClusterRun};
use crate::spec::{
    categorical_init, check_finite, numeric_init, ClusterSpec, Fit, Init, Lsh, SpecError,
};
use lshclust_categorical::{ClusterId, Dataset, Schema};
use lshclust_core::centroid_index::IndexScheme;
use lshclust_core::minibatch::{minibatch_fit, MiniBatchParams};
use lshclust_core::modality::{fit_full, FitParams, Modality};
use lshclust_core::shard::{shard_fit, InProcessTransport, ShardError, ShardTransport};
use lshclust_core::streaming::{StreamingConfig, StreamingMhKModes};
use lshclust_kmodes::init::{initial_modes, sample_distinct_items, InitMethod};
use lshclust_kmodes::kmeans::{
    kmeans_from, kmeans_initial_centroids, KMeansConfig, KMeansInit, NumericDataset,
};
use lshclust_kmodes::kprototypes::{
    kprototypes_from, suggest_gamma, KPrototypesConfig, MixedDataset, Prototypes,
};
use lshclust_kmodes::modes::Modes;
use lshclust_kmodes::stats::{IterationStats, RunSummary};
use lshclust_kmodes::{KModes, KModesConfig};
use lshclust_minhash::Banding;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Runs a [`ClusterSpec`] against any supported input modality.
#[derive(Clone, Debug)]
pub struct Clusterer {
    spec: ClusterSpec,
    /// Warm-start source: refits resume from this model's centroids.
    warm: Option<FittedModel>,
    /// Multi-process sharding: the command spawned per shard when
    /// `spec.shards > 1` (e.g. `"cluster shard-worker"`). `None` runs
    /// shards in-process.
    worker_cmd: Option<String>,
}

impl Clusterer {
    /// Wraps a spec (cold start: centroids come from the spec's `init`).
    pub fn new(spec: ClusterSpec) -> Self {
        Self {
            spec,
            warm: None,
            worker_cmd: None,
        }
    }

    /// Wraps a spec with a warm-start model; `fit` resumes from the model's
    /// centroids instead of re-initialising. Usually reached through
    /// [`ClusterSpec::warm_start`].
    pub fn warm_start(spec: ClusterSpec, model: &FittedModel) -> Self {
        Self {
            spec,
            warm: Some(model.clone()),
            worker_cmd: None,
        }
    }

    /// Runs each shard of a `spec.shards > 1` fit in its own worker
    /// *process* spawned from `cmd` (whitespace-split; typically
    /// `"cluster shard-worker"`), speaking the NDJSON scoring protocol of
    /// [`crate::shard`]. Each worker holds only its rows, which is where
    /// sharding buys capacity; without this, shards run in-process.
    /// Ignored at `shards <= 1`.
    pub fn worker_cmd(mut self, cmd: impl Into<String>) -> Self {
        self.worker_cmd = Some(cmd.into());
        self
    }

    /// The spec in use.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Clusters `input` — a categorical [`Dataset`], a [`NumericDataset`],
    /// or a [`MixedDataset`] — according to the spec.
    pub fn fit<I: Input>(&self, input: I) -> Result<ClusterRun, SpecError> {
        input.fit_spec(&self.spec, self.warm.as_ref(), self.worker_cmd.as_deref())
    }

    /// Builds the streaming inserter for items under `schema`, configured
    /// from the spec's [`Lsh::MinHash`] scheme, seed, and
    /// [`crate::StreamOptions`]. `k` is ignored: the stream discovers its
    /// cluster count. Any other LSH scheme — including `Lsh::None` —
    /// returns [`SpecError::UnsupportedLsh`]: streaming is categorical-only
    /// and *requires* the growing MinHash index (there is no full-search
    /// streaming baseline to fall back to).
    pub fn streaming(&self, schema: Schema) -> Result<StreamingMhKModes, SpecError> {
        let spec = &self.spec;
        // The inserter's index grows item by item; there is no partitioned
        // variant of it.
        if spec.shards > 1 {
            return Err(SpecError::ShardsUnsupported { what: "streaming" });
        }
        // The inserter is inherently online — it has no batch fit loop a
        // mini-batch schedule could govern. Reject instead of silently
        // ignoring the discipline.
        if spec.fit != Fit::Full {
            return Err(SpecError::UnsupportedFit {
                modality: "streaming",
                fit: spec.fit.name(),
            });
        }
        let Lsh::MinHash { bands, rows } = spec.lsh else {
            return Err(SpecError::UnsupportedLsh {
                modality: "streaming",
                lsh: spec.lsh.name(),
            });
        };
        let mut config = StreamingConfig::new(Banding::new(bands, rows), schema.n_attrs());
        config.seed = spec.seed;
        config.threads = spec.threads.max(1);
        if let Some(threshold) = spec.stream.distance_threshold {
            config.distance_threshold = threshold;
        }
        config.max_clusters = spec.stream.max_clusters;
        Ok(StreamingMhKModes::new(config, schema))
    }
}

/// An input modality the [`Clusterer`] can dispatch over. Implemented for
/// `&Dataset` (categorical), `&NumericDataset`, and `&MixedDataset`.
pub trait Input {
    /// Runs `spec` on this input; `warm` optionally supplies the trained
    /// model whose centroids seed the refit, `worker_cmd` the per-shard
    /// process command for `spec.shards > 1` (in-process shards when
    /// `None`).
    fn fit_spec(
        self,
        spec: &ClusterSpec,
        warm: Option<&FittedModel>,
        worker_cmd: Option<&str>,
    ) -> Result<ClusterRun, SpecError>;
}

/// What the facade adds per modality to core's [`Modality`]: its name, its
/// initialisation strategies, its warm-start source, its exact baseline and
/// its served model. Everything else is dispatched once, generically.
trait FitInput: Modality {
    /// Modality name for error messages.
    const NAME: &'static str;
    /// The modality's initialisation strategy.
    type Init: Copy;

    /// The spec's strategy, if it applies to this modality.
    fn init(init: Init) -> Result<Self::Init, SpecError>;

    /// Draws the initial centroids.
    fn initial(&self, k: usize, init: Self::Init, seed: u64) -> Self::Centroids;

    /// A warm-start model's centroids and γ, checked against this input and
    /// the spec's `k`.
    fn warm(
        &self,
        model: &FittedModel,
        k: usize,
    ) -> Result<(Self::Centroids, Option<f64>), SpecError>;

    /// The mixing weight γ; only mixed inputs weigh a numeric part.
    fn gamma(&self, _spec: Option<f64>, _warm: Option<f64>) -> f64 {
        0.0
    }

    /// The full-search baseline of the family (`Lsh::None`).
    fn exact(
        &self,
        spec: &ClusterSpec,
        centroids: Self::Centroids,
        gamma: f64,
        setup_start: Instant,
    ) -> (Vec<ClusterId>, Self::Centroids, RunSummary);

    /// The served model over the final centroids, and the run's view of them.
    fn served(
        &self,
        spec: ClusterSpec,
        centroids: Self::Centroids,
        gamma: f64,
    ) -> (FittedModel, Centroids);
}

impl<D: FitInput> Input for &D {
    fn fit_spec(
        self,
        spec: &ClusterSpec,
        warm: Option<&FittedModel>,
        worker_cmd: Option<&str>,
    ) -> Result<ClusterRun, SpecError> {
        // One validated boundary, before any work or worker spawn.
        check_k(spec.k, self.n_items())?;
        spec.lsh.check_banding()?;
        if let Some(points) = self.numeric() {
            check_finite(points)?;
        }
        let init = D::init(spec.init)?;
        let warm = warm.map(|model| self.warm(model, spec.k)).transpose()?;
        let gamma = self.gamma(spec.gamma, warm.as_ref().and_then(|&(_, g)| g));
        if spec.shards > 1 {
            check_shardable(spec)?;
        }
        let scheme = scheme_for(self, spec.lsh)?;
        let setup_start = Instant::now();
        let centroids = match warm {
            Some((centroids, _)) => centroids,
            None => self.initial(spec.k, init, spec.seed),
        };
        let cfg = FitParams {
            k: spec.k,
            scheme: scheme.unwrap_or_default(),
            stop: spec.stop,
            seed: spec.seed,
            query_mode: spec.query_mode.into(),
            include_self: spec.include_self,
            threads: spec.threads.max(1),
            closures: spec.closures,
            interleaved: spec.interleaved,
            gamma,
        };
        let (assignments, centroids, summary, index_stats) = if spec.shards > 1 {
            let fit = run_sharded(spec, worker_cmd, |transport| {
                shard_fit(self, &cfg, centroids, setup_start, transport)
            })?;
            (
                fit.assignments,
                fit.centroids,
                fit.summary,
                Some(fit.index_stats),
            )
        } else if let Some(params) = minibatch_params(spec) {
            let fit = minibatch_fit(self, &cfg, &params, centroids, setup_start);
            (fit.assignments, fit.centroids, fit.summary, None)
        } else if scheme.is_some() {
            let fit = fit_full(self, &cfg, centroids, setup_start);
            (
                fit.assignments,
                fit.centroids,
                fit.summary,
                Some(fit.index_stats),
            )
        } else {
            let (assignments, centroids, summary) = self.exact(spec, centroids, gamma, setup_start);
            (assignments, centroids, summary, None)
        };
        let (model, centroids) = self.served(spec.clone(), centroids, gamma);
        Ok(ClusterRun {
            assignments,
            centroids,
            summary,
            index_stats,
            model,
        })
    }
}

fn check_k(k: usize, n_items: usize) -> Result<(), SpecError> {
    if k == 0 || k > n_items {
        return Err(SpecError::InvalidK { k, n_items });
    }
    Ok(())
}

/// Gate-keeps the spec combinations the sharded coordinator does not cover;
/// called only at `spec.shards > 1`.
fn check_shardable(spec: &ClusterSpec) -> Result<(), SpecError> {
    if spec.fit != Fit::Full {
        return Err(SpecError::ShardsUnsupported {
            what: "Fit::MiniBatch",
        });
    }
    if spec.lsh == Lsh::None {
        return Err(SpecError::ShardsUnsupported {
            what: "the exact baselines (Lsh::None)",
        });
    }
    // A typed rejection, pinned by `tests/shard.rs`, although the sharded
    // coordinator now shortlists with the unsharded provider and could
    // serve the ablation.
    if !spec.include_self {
        return Err(SpecError::ShardsUnsupported {
            what: "the include_self = false ablation",
        });
    }
    Ok(())
}

/// The item-index scheme of `lsh` on `data`, `None` for the exact baseline.
/// A scheme applies when its families are exactly the input's parts:
/// MinHash for categorical, SimHash for numeric, both for mixed data.
fn scheme_for<D: FitInput>(data: &D, lsh: Lsh) -> Result<Option<IndexScheme>, SpecError> {
    if lsh == Lsh::None {
        return Ok(None);
    }
    let (has_modes, has_means) = (data.categorical().is_some(), data.numeric().is_some());
    let (minhash, simhash) = lsh.families();
    if minhash.is_some() != has_modes || simhash.is_some() != has_means {
        return Err(SpecError::UnsupportedLsh {
            modality: D::NAME,
            lsh: lsh.name(),
        });
    }
    Ok(Some(lsh.index_scheme(has_modes, has_means)))
}

/// Runs a sharded coordinator against the configured transport: worker
/// processes when a command is set, in-process shards otherwise.
fn run_sharded<R>(
    spec: &ClusterSpec,
    worker_cmd: Option<&str>,
    coordinate: impl FnOnce(&mut dyn ShardTransport) -> Result<R, ShardError>,
) -> Result<R, SpecError> {
    let shard_failure = |e: ShardError| SpecError::ShardFailure { message: e.0 };
    match worker_cmd {
        Some(cmd) => {
            let mut transport =
                crate::shard::RemoteTransport::spawn(cmd, spec.shards).map_err(shard_failure)?;
            coordinate(&mut transport).map_err(shard_failure)
        }
        None => coordinate(&mut InProcessTransport::new(spec.shards)).map_err(shard_failure),
    }
}

/// The mini-batch schedule of a spec, when one is requested.
fn minibatch_params(spec: &ClusterSpec) -> Option<MiniBatchParams> {
    match spec.fit {
        Fit::Full => None,
        Fit::MiniBatch {
            batch_size,
            n_steps,
            refresh_every,
        } => Some(MiniBatchParams {
            batch_size,
            n_steps,
            refresh_every,
            closures: spec.closures,
        }),
    }
}

fn warm_mismatch(expected: String, got: String) -> SpecError {
    SpecError::WarmStartMismatch { expected, got }
}

/// The warm-start error for a model of another modality.
fn wrong_modality<D: FitInput>(model: &FittedModel) -> SpecError {
    warm_mismatch(
        format!("a {} model", D::NAME),
        format!("a {} model", model.modality()),
    )
}

fn check_warm_k(k: usize, got: usize) -> Result<(), SpecError> {
    if got != k {
        return Err(warm_mismatch(format!("k={k}"), format!("k={got}")));
    }
    Ok(())
}

impl FitInput for Dataset {
    const NAME: &'static str = "categorical";
    type Init = InitMethod;

    fn init(init: Init) -> Result<InitMethod, SpecError> {
        categorical_init(init, Self::NAME)
    }

    fn initial(&self, k: usize, init: InitMethod, seed: u64) -> Modes {
        initial_modes(self, k, init, seed)
    }

    fn warm(&self, model: &FittedModel, k: usize) -> Result<(Modes, Option<f64>), SpecError> {
        let modes = model
            .warm_modes()
            .ok_or_else(|| wrong_modality::<Self>(model))?;
        check_warm_k(k, modes.k())?;
        if modes.n_attrs() != self.n_attrs() {
            return Err(warm_mismatch(
                format!("{} attributes", self.n_attrs()),
                format!("{} attributes", modes.n_attrs()),
            ));
        }
        Ok((modes.clone(), None))
    }

    fn exact(
        &self,
        spec: &ClusterSpec,
        modes: Modes,
        _gamma: f64,
        setup_start: Instant,
    ) -> (Vec<ClusterId>, Modes, RunSummary) {
        // The exact baseline honours the iteration cap; its loop has the
        // no-move / cost-stagnation criteria built in.
        let config = KModesConfig::new(spec.k)
            .seed(spec.seed)
            .max_iterations(spec.stop.max_iterations);
        let result = KModes::new(config).fit_from(self, modes, setup_start.elapsed());
        (result.assignments, result.modes, result.summary)
    }

    fn served(&self, spec: ClusterSpec, modes: Modes, _gamma: f64) -> (FittedModel, Centroids) {
        let model = FittedModel::categorical(spec, Arc::clone(self.shared_schema()), modes.clone());
        (model, Centroids::Modes(modes))
    }
}

impl FitInput for NumericDataset {
    const NAME: &'static str = "numeric";
    type Init = KMeansInit;

    fn init(init: Init) -> Result<KMeansInit, SpecError> {
        numeric_init(init, Self::NAME)
    }

    fn initial(&self, k: usize, init: KMeansInit, seed: u64) -> Vec<f64> {
        kmeans_initial_centroids(self, k, init, seed)
    }

    fn warm(&self, model: &FittedModel, k: usize) -> Result<(Vec<f64>, Option<f64>), SpecError> {
        let (dim, centroids) = model
            .warm_means()
            .ok_or_else(|| wrong_modality::<Self>(model))?;
        check_warm_k(k, centroids.len() / dim)?;
        if dim != self.dim() {
            return Err(warm_mismatch(
                format!("{} dimensions", self.dim()),
                format!("{dim} dimensions"),
            ));
        }
        Ok((centroids.to_vec(), None))
    }

    fn exact(
        &self,
        spec: &ClusterSpec,
        centroids: Vec<f64>,
        _gamma: f64,
        setup_start: Instant,
    ) -> (Vec<ClusterId>, Vec<f64>, RunSummary) {
        let config = KMeansConfig {
            max_iterations: spec.stop.max_iterations,
            seed: spec.seed,
            ..KMeansConfig::new(spec.k)
        };
        let result = kmeans_from(self, &config, centroids, setup_start);
        let summary = aggregate_summary(
            result.n_iterations,
            result.converged,
            result.elapsed,
            spec.k,
            result.inertia,
        );
        let assignments = result.assignments.into_iter().map(ClusterId).collect();
        (assignments, result.centroids, summary)
    }

    fn served(&self, spec: ClusterSpec, values: Vec<f64>, _gamma: f64) -> (FittedModel, Centroids) {
        let dim = self.dim();
        let model = FittedModel::numeric(spec, dim, values.clone());
        (model, Centroids::Means { dim, values })
    }
}

impl FitInput for MixedDataset<'_> {
    const NAME: &'static str = "mixed";
    /// Both K-Prototypes paths draw initial items directly; only the
    /// paper's random selection applies.
    type Init = ();

    fn init(init: Init) -> Result<(), SpecError> {
        if init != Init::RandomItems {
            return Err(SpecError::UnsupportedInit {
                modality: Self::NAME,
                init: init.name(),
            });
        }
        Ok(())
    }

    fn initial(&self, k: usize, _init: (), seed: u64) -> Prototypes {
        Prototypes::from_items(self, &sample_distinct_items(self.n_items(), k, seed))
    }

    fn warm(&self, model: &FittedModel, k: usize) -> Result<(Prototypes, Option<f64>), SpecError> {
        let (prototypes, gamma) = model
            .warm_prototypes()
            .ok_or_else(|| wrong_modality::<Self>(model))?;
        check_warm_k(k, prototypes.k())?;
        let shape = |n_attrs: usize, dim: usize| format!("{n_attrs} attributes × {dim} dimensions");
        let want = shape(self.categorical.n_attrs(), self.numeric.dim());
        let got = shape(prototypes.modes.n_attrs(), prototypes.dim());
        if got != want {
            return Err(warm_mismatch(want, got));
        }
        Ok((prototypes, Some(gamma)))
    }

    /// γ precedence: explicit spec value, else the warm model's resolved
    /// weight (refit continuity), else Huang's heuristic on this data.
    fn gamma(&self, spec: Option<f64>, warm: Option<f64>) -> f64 {
        spec.or(warm).unwrap_or_else(|| suggest_gamma(self.numeric))
    }

    fn exact(
        &self,
        spec: &ClusterSpec,
        prototypes: Prototypes,
        gamma: f64,
        setup_start: Instant,
    ) -> (Vec<ClusterId>, Prototypes, RunSummary) {
        let config = KPrototypesConfig {
            max_iterations: spec.stop.max_iterations,
            seed: spec.seed,
            ..KPrototypesConfig::new(spec.k, gamma)
        };
        let result = kprototypes_from(self, &config, prototypes, setup_start);
        let summary = aggregate_summary(
            result.n_iterations,
            result.converged,
            result.elapsed,
            spec.k,
            result.cost,
        );
        (result.assignments, result.prototypes, summary)
    }

    fn served(
        &self,
        spec: ClusterSpec,
        prototypes: Prototypes,
        gamma: f64,
    ) -> (FittedModel, Centroids) {
        let schema = Arc::clone(self.categorical.shared_schema());
        let model = FittedModel::mixed(spec, schema, &prototypes, gamma);
        (model, Centroids::Prototypes(prototypes))
    }
}

/// Wraps a legacy totals-only result (`kmeans`, `kprototypes`) in the shared
/// summary shape: one aggregate iteration row carrying the final cost.
fn aggregate_summary(
    n_iterations: usize,
    converged: bool,
    elapsed: Duration,
    k: usize,
    cost: f64,
) -> RunSummary {
    RunSummary {
        iterations: vec![IterationStats {
            iteration: n_iterations,
            duration: elapsed,
            moves: 0,
            avg_candidates: k as f64,
            cost: cost.round() as u64,
            skipped_items: 0,
            active_clusters: 0,
        }],
        converged,
        setup: Duration::ZERO,
    }
}
