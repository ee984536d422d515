//! External clustering-quality metrics.
//!
//! The paper evaluates with **cluster purity** (Figs. 8, 9e); this crate also
//! provides normalised mutual information and the adjusted Rand index for the
//! `experiments` harness's extended analyses (`docs/RESULTS.md`). All
//! metrics compare a predicted
//! cluster id per item against a ground-truth class per item and are
//! algorithm-agnostic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ari;
pub mod contingency;
pub mod nmi;
pub mod purity;

pub use ari::adjusted_rand_index;
pub use contingency::Contingency;
pub use nmi::normalized_mutual_information;
pub use purity::purity;
