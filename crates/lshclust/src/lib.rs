//! **lshclust** — the unified front door to the whole workspace.
//!
//! The paper presents LSH-shortlisted assignment as a *general framework*
//! over centroid-based clustering. This crate makes that generality real at
//! the API level: one [`ClusterSpec`] describes any run — `k`, the LSH scheme
//! ([`Lsh`]), initialisation, seed, query mode, threading, and a
//! [`StopPolicy`] — one [`Clusterer`] dispatches it over the input modality
//! (categorical [`Dataset`], numeric [`NumericDataset`], mixed
//! [`MixedDataset`], or a streaming inserter), and one [`ClusterRun`] carries
//! every result (assignments, centroid views, [`RunSummary`], index stats).
//!
//! All spec and summary types serialize to JSON through `serde_json`, so
//! configurations and run reports round-trip for the bench harness and any
//! future service layer.
//!
//! # Train / serve split
//!
//! Every run also owns a [`FittedModel`] — frozen centroids plus an LSH
//! index built *over the centroids* — so a fit is not a terminal report but
//! a servable artifact: [`FittedModel::predict`] assigns unseen batches
//! (multi-threaded, shortlist-accelerated, full-search fallback),
//! [`FittedModel::save`]/[`FittedModel::load`] round-trip the model through
//! versioned envelopes (v1 JSON by default; [`FittedModel::save_v2`] writes
//! the flat binary envelope whose load path copies the index instead of
//! re-hashing it), [`ArtifactStore`] caches fitted models content-addressed
//! by `(spec, dataset)` so identical refits are cache hits, and
//! [`ClusterSpec::warm_start`] resumes a refit from served centroids instead
//! of re-initialising:
//!
//! ```
//! use lshclust::{ClusterSpec, Clusterer, Lsh, NumericDataset};
//!
//! let data = NumericDataset::new(1, vec![0.0, 0.1, 0.2, 9.0, 9.1, 9.2]);
//! let spec = ClusterSpec::new(2).lsh(Lsh::SimHash { bands: 8, rows: 2 });
//! let run = Clusterer::new(spec.clone()).fit(&data).unwrap();
//!
//! // Serve: persist, reload, answer queries; training batch reproduces
//! // the converged run's assignments.
//! let model = lshclust::FittedModel::from_json(&run.model.to_json()).unwrap();
//! assert_eq!(model.predict(&data).unwrap(), run.assignments);
//! assert_eq!(model.predict_point(&[8.9]).unwrap(), run.assignments[3]);
//!
//! // Warm start: the refit resumes from the served centroids.
//! let refit = spec.warm_start(&model).fit(&data).unwrap();
//! assert_eq!(refit.assignments, run.assignments);
//! ```
//!
//! # Categorical (MH-K-Modes)
//!
//! ```
//! use lshclust::{ClusterSpec, Clusterer, DatasetBuilder, Lsh};
//!
//! let mut b = DatasetBuilder::anonymous(3);
//! for row in [["a", "b", "c"], ["a", "b", "d"], ["a", "b", "e"],
//!             ["x", "y", "z"], ["x", "y", "w"], ["x", "y", "v"]] {
//!     b.push_str_row(&row, None).unwrap();
//! }
//! let dataset = b.finish();
//!
//! let spec = ClusterSpec::new(2).lsh(Lsh::MinHash { bands: 8, rows: 2 }).seed(1);
//! let run = Clusterer::new(spec).fit(&dataset).unwrap();
//! assert_eq!(run.assignments[0], run.assignments[1]);
//! assert_ne!(run.assignments[0], run.assignments[3]);
//! ```
//!
//! # Numeric (SimHash-accelerated K-Means)
//!
//! ```
//! use lshclust::{ClusterSpec, Clusterer, Lsh, NumericDataset};
//!
//! let data = NumericDataset::new(1, vec![0.0, 0.1, 0.2, 9.0, 9.1, 9.2]);
//! let spec = ClusterSpec::new(2).lsh(Lsh::SimHash { bands: 8, rows: 2 });
//! let run = Clusterer::new(spec).fit(&data).unwrap();
//! assert_eq!(run.assignments.len(), 6);
//! ```
//!
//! # Exact baselines
//!
//! [`Lsh::None`] runs the full-search baseline of the same family — same
//! seed, same initial centroids — so accelerated and exact runs compare
//! apples to apples:
//!
//! ```
//! use lshclust::{ClusterSpec, Clusterer, DatasetBuilder};
//!
//! let mut b = DatasetBuilder::anonymous(2);
//! for row in [["a", "b"], ["a", "c"], ["x", "y"], ["x", "z"]] {
//!     b.push_str_row(&row, None).unwrap();
//! }
//! let dataset = b.finish();
//! let run = Clusterer::new(ClusterSpec::new(2).seed(7)).fit(&dataset).unwrap();
//! assert!(run.summary.converged);
//! ```
//!
//! # Specs round-trip as JSON
//!
//! ```
//! use lshclust::{ClusterSpec, Lsh};
//!
//! let spec = ClusterSpec::new(100).lsh(Lsh::MinHash { bands: 20, rows: 5 }).seed(42);
//! let json = serde_json::to_string(&spec).unwrap();
//! let back: ClusterSpec = serde_json::from_str(&json).unwrap();
//! assert_eq!(back, spec);
//! ```
//!
//! # Mini-batch fits
//!
//! [`Fit::MiniBatch`] switches from full passes to Sculley-style sampled
//! steps — shortlisted through an LSH index over the *centroids* when the
//! spec carries a scheme — with byte-identical results at any thread count:
//!
//! ```
//! use lshclust::{ClusterSpec, Clusterer, Fit, Lsh, NumericDataset};
//!
//! let data = NumericDataset::new(1, vec![0.0, 0.1, 0.2, 9.0, 9.1, 9.2]);
//! let spec = ClusterSpec::new(2)
//!     .lsh(Lsh::SimHash { bands: 4, rows: 4 })
//!     .fit(Fit::MiniBatch { batch_size: 4, n_steps: 20, refresh_every: 5 });
//! let run = Clusterer::new(spec).fit(&data).unwrap();
//! assert_eq!(run.assignments.len(), 6);
//! ```
//!
//! The facade lowers every spec onto one implementation per discipline in
//! `lshclust-core` (`modality::fit_full`, `minibatch::minibatch_fit`,
//! `shard::shard_fit`), written once over the `Modality` trait. The
//! per-algorithm configs (`MhKModesConfig`, `KModesConfig`,
//! `MhKMeansConfig`, …) remain available as thin lowerings onto the same
//! functions, but new code should start here. The workspace-level picture — crate graph, data flow, the
//! fit-discipline matrix, and the model envelope schema — is documented in
//! `docs/ARCHITECTURE.md` at the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
mod clusterer;
mod envelope;
mod model;
mod run;
pub mod serve;
pub mod shard;
pub mod sim;
mod spec;

pub use artifact::{ArtifactError, ArtifactKey, ArtifactStore, CachedFit};
pub use clusterer::{Clusterer, Input};
pub use model::{
    FittedModel, ModelError, PredictInput, MODEL_FORMAT, MODEL_VERSION, MODEL_VERSION_V2,
};
pub use run::{Centroids, ClusterRun, RunReport};
pub use serve::proto::ProtoEngine;
pub use serve::socket::{SocketOptions, SocketReport, SocketServer};
pub use serve::{
    HotKeyStats, ModelHandle, ModelServer, PredictTicket, Prediction, ServeError, ServerConfig,
    TicketStats,
};
pub use sim::{DedupReport, Dendrogram, JoinReport, Merge, PairRecord, Sim, SimInput, SimSpec};
pub use spec::{ClusterSpec, Fit, Init, Lsh, Query, SpecError, StreamOptions};

// The one iteration policy shared by every family.
pub use lshclust_core::framework::StopPolicy;

// Streaming front door (configured through `Clusterer::streaming`).
pub use lshclust_core::streaming::{InsertOutcome, StreamingMhKModes};

// Data substrate re-exports so `use lshclust::*` is a complete toolkit.
pub use lshclust_categorical::{ClusterId, Dataset, DatasetBuilder, Schema, ValueId};
pub use lshclust_kmodes::kmeans::NumericDataset;
pub use lshclust_kmodes::kprototypes::{suggest_gamma, MixedDataset};
pub use lshclust_kmodes::stats::{IterationStats, RunSummary};
pub use lshclust_minhash::index::IndexStats;
