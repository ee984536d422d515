//! Full-search centroid-based clustering baselines: **K-Modes** (categorical,
//! the algorithm the paper accelerates) and **K-Means** (numeric, for the
//! further-work extension).
//!
//! The K-Modes implementation follows §III-A1 of the paper:
//!
//! 1. select `k` initial modes ([`init`]),
//! 2. assign every item to the cluster with the smallest matching
//!    dissimilarity ([`assign`]),
//! 3. recompute each cluster's mode — the per-attribute most frequent
//!    category among its members ([`modes`]),
//! 4. repeat 2–3 until no item moves, the cost stops improving, or an
//!    iteration cap is hit ([`kmodes`]).
//!
//! Everything here performs the *full* `k`-way search per item; the
//! `lshclust-core` crate layers the paper's LSH shortlist on top of the same
//! primitives, so any speed difference between the two is attributable to the
//! shortlist alone.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assign;
pub mod cost;
pub mod init;
pub mod kmeans;
pub mod kmodes;
pub mod kprototypes;
pub mod minibatch;
pub mod modes;
pub mod stats;

pub use init::InitMethod;
pub use kmodes::{KModes, KModesConfig, KModesResult, UpdateRule};
pub use modes::Modes;
pub use stats::IterationStats;
