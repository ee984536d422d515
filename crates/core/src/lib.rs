//! **lshclust-core** — the primary contribution of McConville et al. (ICDE
//! 2016): a general framework that accelerates centroid-based clustering by
//! using a locality-sensitive-hashing index over the *items* to shortlist
//! candidate *clusters* during the assignment step.
//!
//! # Layers
//!
//! * [`framework`] — the algorithm-agnostic core: a [`CentroidModel`] (any
//!   clusterer that assigns an item to its most similar centroid) plus a
//!   [`ShortlistProvider`] (any index that can turn an item into a small set
//!   of candidate clusters) are driven to convergence by [`framework::fit`].
//! * [`mhkmodes`] — the paper's instantiation **MH-K-Modes**: K-Modes +
//!   MinHash banding (Algorithm 2), including the initial full assignment
//!   pass, index construction, per-iteration instrumentation and the O(1)
//!   cluster-reference maintenance.
//! * [`mhkmeans`] / [`mhkprototypes`] / [`streaming`] — the further-work
//!   extensions: K-Means + SimHash for numeric data, K-Prototypes with a
//!   MinHash∪SimHash union index for mixed data, and a one-pass streaming
//!   clusterer over a growing index.
//! * [`error_bound`] — empirical verification of the §III-C error bound:
//!   measures how often the shortlist actually misses the true best cluster.
//! * [`parallel`] — an opt-in crossbeam-based parallel assignment pass (the
//!   paper's implementation is single-threaded; this shows the framework's
//!   gains are orthogonal to thread-level parallelism).
//! * [`centroid_index`] — the one LSH index over the *centroids* (MinHash
//!   over modes, SimHash over means, or both), shared by serving,
//!   mini-batch fitting and the centroid-linkage hierarchy.
//! * [`minibatch`] — Sculley-style mini-batch fitting composed with the
//!   shortlist: sampled batches are assigned through a periodically
//!   refreshed [`centroid_index`], for all three modalities (the facade's
//!   `Fit::MiniBatch` discipline).
//! * [`sim`] — the similarity-workloads candidate core: bucket-collision
//!   candidate pairs over the same flat band-key buffers, exact-verified by
//!   the modality's distance kernel (dedup / self-join in `lshclust::sim`).
//!
//! # Quickstart
//!
//! **Start with the `lshclust` facade crate** — one `ClusterSpec`, one
//! `Clusterer`, one `ClusterRun` across all four algorithm families:
//!
//! ```text
//! use lshclust::{ClusterSpec, Clusterer, Lsh};
//!
//! let spec = ClusterSpec::new(2).lsh(Lsh::MinHash { bands: 8, rows: 2 }).seed(1);
//! let run = Clusterer::new(spec).fit(&dataset)?;
//! ```
//!
//! The per-algorithm configs below (`MhKModesConfig`, `MhKMeansConfig`,
//! `MhKPrototypesConfig`) are the thin internals the facade lowers onto.
//! They remain public for controlled experiments that need capabilities the
//! facade deliberately does not expose (e.g. `fit_from` with explicitly
//! shared initial modes, as the bench harness uses), but new code should go
//! through the facade; expect these types to narrow over time.
//!
//! ```
//! use lshclust_categorical::DatasetBuilder;
//! use lshclust_core::mhkmodes::{MhKModes, MhKModesConfig};
//! use lshclust_minhash::Banding;
//!
//! // Six items, two obvious groups — driven through the internal layer.
//! let mut b = DatasetBuilder::anonymous(3);
//! for row in [["a", "b", "c"], ["a", "b", "d"], ["a", "b", "e"],
//!             ["x", "y", "z"], ["x", "y", "w"], ["x", "y", "v"]] {
//!     b.push_str_row(&row, None).unwrap();
//! }
//! let dataset = b.finish();
//!
//! let config = MhKModesConfig::new(2, Banding::new(8, 2)).seed(1);
//! let result = MhKModes::new(config).fit(&dataset);
//! assert_eq!(result.assignments[0], result.assignments[1]);
//! assert_ne!(result.assignments[0], result.assignments[3]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod canopy;
pub mod centroid_index;
pub mod error_bound;
pub mod framework;
pub mod mhkmeans;
pub mod mhkmodes;
pub mod mhkprototypes;
pub mod minibatch;
pub mod parallel;
pub mod shard;
pub mod sim;
pub mod streaming;

pub use framework::{
    assign_full, assign_once, AcceleratedRun, AssignOutcome, CentroidModel, ShortlistProvider,
    StopPolicy,
};
pub use mhkmodes::{MhKModes, MhKModesConfig, MhKModesResult};
