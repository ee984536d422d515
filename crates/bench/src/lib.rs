//! Experiment harness: everything needed to regenerate the paper's tables
//! and figures, driven by the `experiments` binary.
//!
//! * [`scale`] — the paper's dataset shapes and the `--scale` machinery that
//!   shrinks them for laptop runs while preserving the n : k : m ratios,
//! * [`synthetic`] — paired baseline/MH-K-Modes runs on datgen data
//!   (Figs. 2–8),
//! * [`textexp`] — the Yahoo!-Answers-like TF-IDF pipeline runs
//!   (Figs. 9–10),
//! * [`figures`] — rendering each table/figure as aligned text + CSV,
//! * [`ablate`] -- design-choice ablations and the LSH-vs-canopy-vs-mini-batch comparison,
//! * [`table`] — a tiny fixed-width table printer.
//!
//! The experiment modules drive the *internal* per-algorithm configs
//! (`MhKModesConfig`, `KModesConfig`, …) rather than the `lshclust` facade
//! on purpose: the paper's controlled comparisons share one set of initial
//! modes across baseline and accelerated runs (`fit_from`), which the facade
//! deliberately does not expose. The user-facing `cluster` binary goes
//! through the facade (`ClusterSpec` / `Clusterer`), including JSON spec
//! input (`--spec`) and JSON run reports (`--json`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablate;
pub mod figures;
pub mod scale;
pub mod synthetic;
pub mod table;
pub mod textexp;
