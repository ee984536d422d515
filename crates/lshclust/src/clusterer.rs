//! The unified entry point: [`Clusterer`] dispatches a [`ClusterSpec`] over
//! the input modality and lowers it onto the per-algorithm internals.
//!
//! Lowering is *exact*: at equal seeds, a facade run is byte-identical to
//! the corresponding legacy entry point (`MhKModes::fit`, `KModes::fit`,
//! `mh_kmeans`, `mh_kprototypes`, `kmeans`, `kprototypes`) — pinned by
//! `tests/equivalence.rs`.
//!
//! Every fit also produces the serving artifact: the returned
//! [`ClusterRun`] owns a [`FittedModel`] (centroids + a frozen LSH index
//! over them) ready for `predict`, `save`, and
//! [`ClusterSpec::warm_start`].

use crate::model::FittedModel;
use crate::run::{Centroids, ClusterRun};
use crate::spec::{categorical_init, numeric_init, ClusterSpec, Fit, Lsh, SpecError};
use lshclust_categorical::{ClusterId, Dataset, Schema};
use lshclust_core::mhkmeans::{mh_kmeans, mh_kmeans_from, MhKMeansConfig};
use lshclust_core::mhkmodes::{MhKModes, MhKModesConfig};
use lshclust_core::mhkprototypes::{mh_kprototypes, mh_kprototypes_from, MhKPrototypesConfig};
use lshclust_core::minibatch::{
    minibatch_mh_kmeans, minibatch_mh_kmeans_from, minibatch_mh_kmodes, minibatch_mh_kmodes_from,
    minibatch_mh_kprototypes, minibatch_mh_kprototypes_from, MiniBatchParams, UnionBands,
};
use lshclust_core::shard::{
    shard_mh_kmeans_from, shard_mh_kmodes_from, shard_mh_kprototypes_from, InProcessTransport,
    ShardError, ShardTransport,
};
use lshclust_core::streaming::{StreamingConfig, StreamingMhKModes};
use lshclust_kmodes::init::{initial_modes, sample_distinct_items};
use lshclust_kmodes::kmeans::{
    kmeans, kmeans_from, kmeans_initial_centroids, KMeansConfig, NumericDataset,
};
use lshclust_kmodes::kprototypes::{
    kprototypes, kprototypes_from, suggest_gamma, KPrototypesConfig, MixedDataset, Prototypes,
};
use lshclust_kmodes::modes::Modes;
use lshclust_kmodes::stats::{IterationStats, RunSummary};
use lshclust_kmodes::{KModes, KModesConfig, UpdateRule};
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
    /// `"cluster shard-worker"`), speaking the NDJSON partial-update
    /// protocol of [`crate::shard`]. Without this, shards run in-process.
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
    Ok(())
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

fn warm_mismatch(expected: String, got: String) -> SpecError {
    SpecError::WarmStartMismatch { expected, got }
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

/// Validates a warm-start model against a categorical input and clones its
/// modes as the refit's initial centroids.
fn categorical_warm(
    model: &FittedModel,
    spec: &ClusterSpec,
    dataset: &Dataset,
) -> Result<Modes, SpecError> {
    let modes = model.warm_modes().ok_or_else(|| {
        warm_mismatch(
            "a categorical model".to_owned(),
            format!("a {} model", model.modality()),
        )
    })?;
    if modes.k() != spec.k {
        return Err(warm_mismatch(
            format!("k={}", spec.k),
            format!("k={}", modes.k()),
        ));
    }
    if modes.n_attrs() != dataset.n_attrs() {
        return Err(warm_mismatch(
            format!("{} attributes", dataset.n_attrs()),
            format!("{} attributes", modes.n_attrs()),
        ));
    }
    Ok(modes.clone())
}

/// Validates a warm-start model against a numeric input and clones its
/// centroid matrix.
fn numeric_warm(
    model: &FittedModel,
    spec: &ClusterSpec,
    data: &NumericDataset,
) -> Result<Vec<f64>, SpecError> {
    let (dim, centroids) = model.warm_means().ok_or_else(|| {
        warm_mismatch(
            "a numeric model".to_owned(),
            format!("a {} model", model.modality()),
        )
    })?;
    if centroids.len() / dim != spec.k {
        return Err(warm_mismatch(
            format!("k={}", spec.k),
            format!("k={}", centroids.len() / dim),
        ));
    }
    if dim != data.dim() {
        return Err(warm_mismatch(
            format!("{} dimensions", data.dim()),
            format!("{dim} dimensions"),
        ));
    }
    Ok(centroids.to_vec())
}

/// Validates a warm-start model against a mixed input and rebuilds its
/// prototypes (returning the model's resolved γ as well).
fn mixed_warm(
    model: &FittedModel,
    spec: &ClusterSpec,
    data: &MixedDataset<'_>,
) -> Result<(Prototypes, f64), SpecError> {
    let (prototypes, gamma) = model.warm_prototypes().ok_or_else(|| {
        warm_mismatch(
            "a mixed model".to_owned(),
            format!("a {} model", model.modality()),
        )
    })?;
    if prototypes.k() != spec.k {
        return Err(warm_mismatch(
            format!("k={}", spec.k),
            format!("k={}", prototypes.k()),
        ));
    }
    if prototypes.modes.n_attrs() != data.categorical.n_attrs()
        || prototypes.dim() != data.numeric.dim()
    {
        return Err(warm_mismatch(
            format!(
                "{} attributes × {} dimensions",
                data.categorical.n_attrs(),
                data.numeric.dim()
            ),
            format!(
                "{} attributes × {} dimensions",
                prototypes.modes.n_attrs(),
                prototypes.dim()
            ),
        ));
    }
    Ok((prototypes, gamma))
}

impl Input for &Dataset {
    fn fit_spec(
        self,
        spec: &ClusterSpec,
        warm: Option<&FittedModel>,
        worker_cmd: Option<&str>,
    ) -> Result<ClusterRun, SpecError> {
        check_k(spec.k, self.n_items())?;
        let init = categorical_init(spec.init, "categorical")?;
        let warm_modes = warm
            .map(|model| categorical_warm(model, spec, self))
            .transpose()?;
        if spec.shards > 1 {
            check_shardable(spec)?;
            // The digest-based shortlist always includes an item's own
            // bucket (the paper's Algorithm 2 behaviour); the ablation has
            // no sharded equivalent.
            if !spec.include_self {
                return Err(SpecError::ShardsUnsupported {
                    what: "the include_self = false ablation",
                });
            }
            let Lsh::MinHash { bands, rows } = spec.lsh else {
                return Err(SpecError::UnsupportedLsh {
                    modality: "categorical",
                    lsh: spec.lsh.name(),
                });
            };
            let config = MhKModesConfig {
                k: spec.k,
                banding: Banding::new(bands, rows),
                stop: spec.stop,
                init,
                seed: spec.seed,
                query_mode: spec.query_mode.into(),
                include_self: true,
                threads: spec.threads.max(1),
                closures: spec.closures,
                interleaved: spec.interleaved,
            };
            let setup_start = Instant::now();
            let modes = match warm_modes {
                Some(modes) => modes,
                None => initial_modes(self, config.k, config.init, config.seed),
            };
            let result = run_sharded(spec, worker_cmd, |transport| {
                shard_mh_kmodes_from(self, &config, modes, setup_start, transport)
            })?;
            let model = FittedModel::categorical(
                spec.clone(),
                Arc::clone(self.shared_schema()),
                result.modes.clone(),
            );
            return Ok(ClusterRun {
                assignments: result.assignments,
                centroids: Centroids::Modes(result.modes),
                summary: result.summary,
                index_stats: Some(result.index_stats),
                model,
            });
        }
        if let Some(params) = minibatch_params(spec) {
            let lsh = match spec.lsh {
                Lsh::None => None,
                Lsh::MinHash { bands, rows } => Some(Banding::new(bands, rows)),
                other => {
                    return Err(SpecError::UnsupportedLsh {
                        modality: "categorical",
                        lsh: other.name(),
                    })
                }
            };
            let threads = spec.threads.max(1);
            let result = match warm_modes {
                Some(modes) => minibatch_mh_kmodes_from(
                    self,
                    spec.seed,
                    lsh,
                    &params,
                    threads,
                    modes,
                    Instant::now(),
                ),
                None => minibatch_mh_kmodes(self, spec.k, init, spec.seed, lsh, &params, threads),
            };
            let model = FittedModel::categorical(
                spec.clone(),
                Arc::clone(self.shared_schema()),
                result.modes.clone(),
            );
            return Ok(ClusterRun {
                assignments: result.assignments,
                centroids: Centroids::Modes(result.modes),
                summary: result.summary,
                index_stats: None,
                model,
            });
        }
        match spec.lsh {
            Lsh::None => {
                // The exact baseline honours the iteration cap; its loop has
                // the no-move / cost-stagnation criteria built in.
                let config = KModesConfig {
                    k: spec.k,
                    max_iterations: spec.stop.max_iterations,
                    init,
                    seed: spec.seed,
                    update: UpdateRule::Batch,
                };
                let estimator = KModes::new(config);
                let result = match warm_modes {
                    Some(modes) => estimator.fit_from(self, modes, Duration::ZERO),
                    None => estimator.fit(self),
                };
                let model = FittedModel::categorical(
                    spec.clone(),
                    Arc::clone(self.shared_schema()),
                    result.modes.clone(),
                );
                Ok(ClusterRun {
                    assignments: result.assignments,
                    centroids: Centroids::Modes(result.modes),
                    summary: result.summary,
                    index_stats: None,
                    model,
                })
            }
            Lsh::MinHash { bands, rows } => {
                let config = MhKModesConfig {
                    k: spec.k,
                    banding: Banding::new(bands, rows),
                    stop: spec.stop,
                    init,
                    seed: spec.seed,
                    query_mode: spec.query_mode.into(),
                    include_self: spec.include_self,
                    threads: spec.threads.max(1),
                    closures: spec.closures,
                    interleaved: spec.interleaved,
                };
                let estimator = MhKModes::new(config);
                let result = match warm_modes {
                    Some(modes) => estimator.fit_from(self, modes, Instant::now()),
                    None => estimator.fit(self),
                };
                let model = FittedModel::categorical(
                    spec.clone(),
                    Arc::clone(self.shared_schema()),
                    result.modes.clone(),
                );
                Ok(ClusterRun {
                    assignments: result.assignments,
                    centroids: Centroids::Modes(result.modes),
                    summary: result.summary,
                    index_stats: Some(result.index_stats),
                    model,
                })
            }
            other => Err(SpecError::UnsupportedLsh {
                modality: "categorical",
                lsh: other.name(),
            }),
        }
    }
}

impl Input for &NumericDataset {
    fn fit_spec(
        self,
        spec: &ClusterSpec,
        warm: Option<&FittedModel>,
        worker_cmd: Option<&str>,
    ) -> Result<ClusterRun, SpecError> {
        check_k(spec.k, self.n_items())?;
        let init = numeric_init(spec.init, "numeric")?;
        let warm_centroids = warm
            .map(|model| numeric_warm(model, spec, self))
            .transpose()?;
        if spec.shards > 1 {
            check_shardable(spec)?;
            let Lsh::SimHash { bands, rows } = spec.lsh else {
                return Err(SpecError::UnsupportedLsh {
                    modality: "numeric",
                    lsh: spec.lsh.name(),
                });
            };
            let config = MhKMeansConfig {
                k: spec.k,
                bands,
                rows,
                stop: spec.stop,
                init,
                seed: spec.seed,
                threads: spec.threads.max(1),
                closures: spec.closures,
                interleaved: spec.interleaved,
            };
            let setup_start = Instant::now();
            let centroids = match warm_centroids {
                Some(centroids) => centroids,
                None => kmeans_initial_centroids(self, config.k, config.init, config.seed),
            };
            let result = run_sharded(spec, worker_cmd, |transport| {
                shard_mh_kmeans_from(self, &config, centroids, setup_start, transport)
            })?;
            let model = FittedModel::numeric(spec.clone(), self.dim(), result.centroids.clone());
            return Ok(ClusterRun {
                assignments: result.assignments,
                centroids: Centroids::Means {
                    dim: self.dim(),
                    values: result.centroids,
                },
                summary: result.summary,
                index_stats: None,
                model,
            });
        }
        if let Some(params) = minibatch_params(spec) {
            let lsh = match spec.lsh {
                Lsh::None => None,
                Lsh::SimHash { bands, rows } => Some((bands, rows)),
                other => {
                    return Err(SpecError::UnsupportedLsh {
                        modality: "numeric",
                        lsh: other.name(),
                    })
                }
            };
            let threads = spec.threads.max(1);
            let result = match warm_centroids {
                Some(centroids) => minibatch_mh_kmeans_from(
                    self,
                    spec.k,
                    spec.seed,
                    lsh,
                    &params,
                    threads,
                    centroids,
                    Instant::now(),
                ),
                None => minibatch_mh_kmeans(self, spec.k, init, spec.seed, lsh, &params, threads),
            };
            let dim = self.dim();
            let model = FittedModel::numeric(spec.clone(), dim, result.centroids.clone());
            return Ok(ClusterRun {
                assignments: result.assignments,
                centroids: Centroids::Means {
                    dim,
                    values: result.centroids,
                },
                summary: result.summary,
                index_stats: None,
                model,
            });
        }
        match spec.lsh {
            Lsh::None => {
                let config = KMeansConfig {
                    k: spec.k,
                    max_iterations: spec.stop.max_iterations,
                    init,
                    seed: spec.seed,
                    tolerance: 1e-9,
                };
                let result = match warm_centroids {
                    Some(centroids) => kmeans_from(self, &config, centroids, Instant::now()),
                    None => kmeans(self, &config),
                };
                let dim = self.dim();
                let model = FittedModel::numeric(spec.clone(), dim, result.centroids.clone());
                Ok(ClusterRun {
                    assignments: result.assignments.into_iter().map(ClusterId).collect(),
                    centroids: Centroids::Means {
                        dim,
                        values: result.centroids,
                    },
                    summary: aggregate_summary(
                        result.n_iterations,
                        result.converged,
                        result.elapsed,
                        spec.k,
                        result.inertia,
                    ),
                    index_stats: None,
                    model,
                })
            }
            Lsh::SimHash { bands, rows } => {
                let config = MhKMeansConfig {
                    k: spec.k,
                    bands,
                    rows,
                    stop: spec.stop,
                    init,
                    seed: spec.seed,
                    threads: spec.threads.max(1),
                    closures: spec.closures,
                    interleaved: spec.interleaved,
                };
                let result = match warm_centroids {
                    Some(centroids) => mh_kmeans_from(self, &config, centroids, Instant::now()),
                    None => mh_kmeans(self, &config),
                };
                let model =
                    FittedModel::numeric(spec.clone(), self.dim(), result.centroids.clone());
                Ok(ClusterRun {
                    assignments: result.assignments,
                    centroids: Centroids::Means {
                        dim: self.dim(),
                        values: result.centroids,
                    },
                    summary: result.summary,
                    index_stats: None,
                    model,
                })
            }
            other => Err(SpecError::UnsupportedLsh {
                modality: "numeric",
                lsh: other.name(),
            }),
        }
    }
}

impl Input for &MixedDataset<'_> {
    fn fit_spec(
        self,
        spec: &ClusterSpec,
        warm: Option<&FittedModel>,
        worker_cmd: Option<&str>,
    ) -> Result<ClusterRun, SpecError> {
        check_k(spec.k, self.n_items())?;
        // Both K-Prototypes paths draw initial items directly; only the
        // paper's random selection applies.
        if spec.init != crate::spec::Init::RandomItems {
            return Err(SpecError::UnsupportedInit {
                modality: "mixed",
                init: spec.init.name(),
            });
        }
        let warm_prototypes = warm
            .map(|model| mixed_warm(model, spec, self))
            .transpose()?;
        // γ precedence: explicit spec value, else the warm model's resolved
        // weight (refit continuity), else Huang's heuristic on this data.
        let gamma = spec
            .gamma
            .or(warm_prototypes.as_ref().map(|(_, g)| *g))
            .unwrap_or_else(|| suggest_gamma(self.numeric));
        if spec.shards > 1 {
            check_shardable(spec)?;
            let Lsh::Union {
                bands,
                rows,
                sim_bands,
                sim_rows,
            } = spec.lsh
            else {
                return Err(SpecError::UnsupportedLsh {
                    modality: "mixed",
                    lsh: spec.lsh.name(),
                });
            };
            let config = MhKPrototypesConfig {
                k: spec.k,
                gamma,
                banding: Banding::new(bands, rows),
                sim_bands,
                sim_rows,
                stop: spec.stop,
                seed: spec.seed,
                threads: spec.threads.max(1),
                closures: spec.closures,
                interleaved: spec.interleaved,
            };
            let setup_start = Instant::now();
            let prototypes = match warm_prototypes {
                Some((prototypes, _)) => prototypes,
                None => {
                    let items = sample_distinct_items(self.n_items(), config.k, config.seed);
                    Prototypes::from_items(self, &items)
                }
            };
            let result = run_sharded(spec, worker_cmd, |transport| {
                shard_mh_kprototypes_from(self, &config, prototypes, setup_start, transport)
            })?;
            let model = FittedModel::mixed(
                spec.clone(),
                Arc::clone(self.categorical.shared_schema()),
                &result.prototypes,
                gamma,
            );
            return Ok(ClusterRun {
                assignments: result.assignments,
                centroids: Centroids::Prototypes(result.prototypes),
                summary: result.summary,
                index_stats: None,
                model,
            });
        }
        if let Some(params) = minibatch_params(spec) {
            let lsh = match spec.lsh {
                Lsh::None => None,
                Lsh::Union {
                    bands,
                    rows,
                    sim_bands,
                    sim_rows,
                } => Some(UnionBands {
                    banding: Banding::new(bands, rows),
                    sim_bands,
                    sim_rows,
                }),
                other => {
                    return Err(SpecError::UnsupportedLsh {
                        modality: "mixed",
                        lsh: other.name(),
                    })
                }
            };
            let threads = spec.threads.max(1);
            let result = match warm_prototypes {
                Some((prototypes, _)) => minibatch_mh_kprototypes_from(
                    self,
                    gamma,
                    spec.seed,
                    lsh,
                    &params,
                    threads,
                    prototypes,
                    Instant::now(),
                ),
                None => {
                    minibatch_mh_kprototypes(self, spec.k, gamma, spec.seed, lsh, &params, threads)
                }
            };
            let model = FittedModel::mixed(
                spec.clone(),
                Arc::clone(self.categorical.shared_schema()),
                &result.prototypes,
                gamma,
            );
            return Ok(ClusterRun {
                assignments: result.assignments,
                centroids: Centroids::Prototypes(result.prototypes),
                summary: result.summary,
                index_stats: None,
                model,
            });
        }
        match spec.lsh {
            Lsh::None => {
                let config = KPrototypesConfig {
                    k: spec.k,
                    gamma,
                    max_iterations: spec.stop.max_iterations,
                    seed: spec.seed,
                };
                let result = match warm_prototypes {
                    Some((prototypes, _)) => {
                        kprototypes_from(self, &config, prototypes, Instant::now())
                    }
                    None => kprototypes(self, &config),
                };
                let model = FittedModel::mixed(
                    spec.clone(),
                    Arc::clone(self.categorical.shared_schema()),
                    &result.prototypes,
                    gamma,
                );
                Ok(ClusterRun {
                    assignments: result.assignments,
                    centroids: Centroids::Prototypes(result.prototypes),
                    summary: aggregate_summary(
                        result.n_iterations,
                        result.converged,
                        result.elapsed,
                        spec.k,
                        result.cost,
                    ),
                    index_stats: None,
                    model,
                })
            }
            Lsh::Union {
                bands,
                rows,
                sim_bands,
                sim_rows,
            } => {
                let config = MhKPrototypesConfig {
                    k: spec.k,
                    gamma,
                    banding: Banding::new(bands, rows),
                    sim_bands,
                    sim_rows,
                    stop: spec.stop,
                    seed: spec.seed,
                    threads: spec.threads.max(1),
                    closures: spec.closures,
                    interleaved: spec.interleaved,
                };
                let result = match warm_prototypes {
                    Some((prototypes, _)) => {
                        mh_kprototypes_from(self, &config, prototypes, Instant::now())
                    }
                    None => mh_kprototypes(self, &config),
                };
                let model = FittedModel::mixed(
                    spec.clone(),
                    Arc::clone(self.categorical.shared_schema()),
                    &result.prototypes,
                    gamma,
                );
                Ok(ClusterRun {
                    assignments: result.assignments,
                    centroids: Centroids::Prototypes(result.prototypes),
                    summary: result.summary,
                    index_stats: None,
                    model,
                })
            }
            other => Err(SpecError::UnsupportedLsh {
                modality: "mixed",
                lsh: other.name(),
            }),
        }
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
