//! Synthetic dataset generators.
//!
//! Two generators substitute for resources the paper used but that are not
//! obtainable:
//!
//! * [`datgen`] re-implements the generative process of the `datgen` tool
//!   (datasetgenerator.com, now defunct) exactly as §IV-A describes it:
//!   a 40 000-value category domain, one conjunctive rule per cluster binding
//!   40–80% of the attributes to fixed values, remaining attributes free.
//! * [`corpus`] synthesises a Yahoo!-Answers-like topic-labelled question
//!   corpus (per-topic Zipfian keyword vocabularies over a shared background
//!   vocabulary, with optional user mislabel noise) for the real-data
//!   pipeline of §IV-B, whose original corpus is proprietary.
//!
//! Both are fully deterministic given their seed, per the workspace
//! determinism policy (docs/ARCHITECTURE.md § Determinism).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod datgen;
pub mod zipf;

pub use corpus::{CorpusConfig, Question, SyntheticCorpus};
pub use datgen::{generate, DatgenConfig};
