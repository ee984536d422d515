//! MinHash signatures, LSH banding, the bucket index with cluster references,
//! and the analytic probability model of the paper (§III-A2 – §III-D).
//!
//! The crate provides everything "hashing" in the workspace:
//!
//! * [`hashfn`] — a seeded 64-bit hash family and a fast `HashMap` hasher for
//!   bucket tables,
//! * [`signature`] — Algorithm 1 (`SIGGEN`) plus Jaccard estimation from
//!   signatures,
//! * [`banding`] — the `b` bands × `r` rows scheme and band-bucket keys,
//! * [`index`] — the LSH index of Algorithm 2: buckets of items per band, a
//!   mutable cluster reference per item, candidate-cluster shortlist queries,
//! * [`probability`] — `1 − (1 − s^r)^b`, the cluster-hit probability of
//!   Tables I–II, the §III-C error bound, and an `(r, b)` parameter advisor,
//! * [`simhash`] — the random-hyperplane (cosine) LSH family for the numeric
//!   further-work extension.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod banding;
pub mod hashfn;
pub mod index;
pub mod probability;
pub mod signature;
pub mod simhash;

pub use banding::Banding;
pub use hashfn::{FastMap, FastSet, HashFamily, MixHashFamily};
pub use index::{LshIndex, LshIndexBuilder, QueryMode};
pub use probability::LshParams;
pub use signature::{estimate_jaccard, SignatureGenerator};
