//! The full-search K-Modes driver (§III-A1).

use crate::assign::{assign_all_full, best_cluster_full};
use crate::cost::total_cost;
use crate::init::{initial_modes, InitMethod};
use crate::modes::{group_by_cluster, Modes, ValueCounts};
use crate::stats::{IterationStats, RunSummary};
use lshclust_categorical::{ClusterId, Dataset};
use std::time::Instant;

/// When modes are refreshed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum UpdateRule {
    /// Lloyd-style: assign *all* items, then recompute all modes — the
    /// paper's iteration structure (its figures count moves per full pass).
    #[default]
    Batch,
    /// Huang's original online rule: recompute the two affected clusters'
    /// modes immediately after each move. Converges in fewer passes on small
    /// data but each pass costs more; kept for the ablation study.
    Online,
}

/// Configuration for a K-Modes run.
#[derive(Clone, Debug)]
pub struct KModesConfig {
    /// Number of clusters `k`.
    pub k: usize,
    /// Iteration cap (the paper caps Fig. 10 at 10 iterations).
    pub max_iterations: usize,
    /// Centroid initialisation strategy.
    pub init: InitMethod,
    /// Seed for initialisation randomness.
    pub seed: u64,
    /// Mode refresh rule.
    pub update: UpdateRule,
}

impl KModesConfig {
    /// Reasonable defaults: random init, batch updates, 100-iteration cap.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            max_iterations: 100,
            init: InitMethod::RandomItems,
            seed: 0,
            update: UpdateRule::Batch,
        }
    }

    /// Sets the iteration cap.
    pub fn max_iterations(mut self, n: usize) -> Self {
        self.max_iterations = n;
        self
    }

    /// Sets the initialisation method.
    pub fn init(mut self, init: InitMethod) -> Self {
        self.init = init;
        self
    }

    /// Sets the random seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the mode refresh rule.
    pub fn update(mut self, update: UpdateRule) -> Self {
        self.update = update;
        self
    }
}

/// The K-Modes estimator.
#[derive(Clone, Debug)]
pub struct KModes {
    config: KModesConfig,
}

/// Result of a K-Modes run.
#[derive(Clone, Debug)]
pub struct KModesResult {
    /// Final cluster per item.
    pub assignments: Vec<ClusterId>,
    /// Final modes.
    pub modes: Modes,
    /// Instrumentation.
    pub summary: RunSummary,
}

impl KModes {
    /// Creates an estimator from a configuration.
    pub fn new(config: KModesConfig) -> Self {
        Self { config }
    }

    /// Convenience constructor with defaults.
    pub fn with_k(k: usize) -> Self {
        Self::new(KModesConfig::new(k))
    }

    /// The configuration in use.
    pub fn config(&self) -> &KModesConfig {
        &self.config
    }

    /// Runs K-Modes to convergence (no moves), cost stagnation, or the
    /// iteration cap.
    pub fn fit(&self, dataset: &Dataset) -> KModesResult {
        let cfg = &self.config;
        let setup_start = Instant::now();
        let modes = initial_modes(dataset, cfg.k, cfg.init, cfg.seed);
        let setup = setup_start.elapsed();
        self.fit_from(dataset, modes, setup)
    }

    /// Runs K-Modes from explicit initial modes (used by experiments that
    /// must share initialisation with MH-K-Modes). `setup` is added to the
    /// run summary's setup time.
    pub fn fit_from(
        &self,
        dataset: &Dataset,
        mut modes: Modes,
        setup: std::time::Duration,
    ) -> KModesResult {
        let cfg = &self.config;
        assert_eq!(modes.k(), cfg.k, "initial modes disagree with configured k");
        let n = dataset.n_items();
        let mut assignments = vec![ClusterId(0); n];
        // Initial full assignment (step 2 of the paper's summary). This is
        // counted as iteration 1, mirroring how the paper's per-iteration
        // plots start.
        let mut iterations = Vec::new();
        let mut converged = false;
        let mut prev_cost = u64::MAX;
        for iteration in 1..=cfg.max_iterations {
            let t = Instant::now();
            let moves = match cfg.update {
                UpdateRule::Batch => {
                    let moves = assign_all_full(dataset, &modes, &mut assignments);
                    modes.recompute(dataset, &assignments);
                    moves
                }
                UpdateRule::Online => {
                    online_pass(dataset, &mut modes, &mut assignments, iteration == 1)
                }
            };
            let cost = total_cost(dataset, &modes, &assignments);
            iterations.push(IterationStats {
                iteration,
                duration: t.elapsed(),
                moves,
                avg_candidates: cfg.k as f64,
                cost,
                skipped_items: 0,
                active_clusters: 0,
            });
            // Convergence tests (paper: "no item has changed cluster, or the
            // cost has minimised"). The first pass moves everything from the
            // zero-initialised assignment, so only later passes can converge.
            if iteration > 1 && moves == 0 {
                converged = true;
                break;
            }
            if iteration > 1 && cost >= prev_cost {
                converged = true;
                break;
            }
            prev_cost = cost;
        }
        KModesResult {
            assignments,
            modes,
            summary: RunSummary {
                iterations,
                converged,
                setup,
            },
        }
    }
}

/// One online pass: items are assigned in order and the source/target modes
/// are refreshed right away.
fn online_pass(
    dataset: &Dataset,
    modes: &mut Modes,
    assignments: &mut [ClusterId],
    first_pass: bool,
) -> usize {
    let mut moves = 0;
    let mut counts = ValueCounts::default();
    let mut mode = Vec::with_capacity(dataset.n_attrs());
    for item in 0..dataset.n_items() {
        let (best, _) = best_cluster_full(dataset.row(item), modes);
        let current = assignments[item];
        if best != current || first_pass {
            assignments[item] = best;
            moves += 1;
            // Refresh both affected modes from their member sets.
            let groups = group_by_cluster(assignments, modes.k());
            let affected = if first_pass {
                &[best][..]
            } else {
                &[best, current]
            };
            for &c in affected {
                let members = groups.members(c.idx());
                if !members.is_empty() {
                    Modes::mode_of_members(dataset, members, &mut counts, &mut mode);
                    modes.set_mode(c, &mode);
                }
            }
        }
    }
    moves
}

#[cfg(test)]
mod tests {
    use super::*;
    use lshclust_categorical::DatasetBuilder;

    /// Two obvious groups of three near-identical items each.
    fn two_blob_dataset() -> Dataset {
        let mut b = DatasetBuilder::anonymous(4);
        b.push_str_row(&["a", "b", "c", "d"], Some(0)).unwrap();
        b.push_str_row(&["a", "b", "c", "e"], Some(0)).unwrap();
        b.push_str_row(&["a", "b", "c", "f"], Some(0)).unwrap();
        b.push_str_row(&["w", "x", "y", "z"], Some(1)).unwrap();
        b.push_str_row(&["w", "x", "y", "q"], Some(1)).unwrap();
        b.push_str_row(&["w", "x", "y", "r"], Some(1)).unwrap();
        b.finish()
    }

    #[test]
    fn separates_two_blobs() {
        let ds = two_blob_dataset();
        let result = KModes::with_k(2).fit(&ds);
        assert!(result.summary.converged);
        // All items of a blob share a cluster, and the blobs differ.
        let a = result.assignments[0];
        assert_eq!(result.assignments[1], a);
        assert_eq!(result.assignments[2], a);
        let b = result.assignments[3];
        assert_eq!(result.assignments[4], b);
        assert_eq!(result.assignments[5], b);
        assert_ne!(a, b);
    }

    #[test]
    fn cost_is_monotone_nonincreasing_across_iterations() {
        let ds = two_blob_dataset();
        let result = KModes::new(KModesConfig::new(3).seed(5)).fit(&ds);
        let costs: Vec<u64> = result.summary.iterations.iter().map(|s| s.cost).collect();
        for w in costs.windows(2) {
            assert!(w[1] <= w[0], "cost increased: {costs:?}");
        }
    }

    #[test]
    fn converged_run_ends_with_zero_moves() {
        let ds = two_blob_dataset();
        let result = KModes::with_k(2).fit(&ds);
        assert_eq!(result.summary.iterations.last().unwrap().moves, 0);
    }

    #[test]
    fn respects_iteration_cap() {
        let ds = two_blob_dataset();
        let result = KModes::new(KModesConfig::new(2).max_iterations(1)).fit(&ds);
        assert_eq!(result.summary.n_iterations(), 1);
        assert!(!result.summary.converged);
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = two_blob_dataset();
        let r1 = KModes::new(KModesConfig::new(2).seed(9)).fit(&ds);
        let r2 = KModes::new(KModesConfig::new(2).seed(9)).fit(&ds);
        assert_eq!(r1.assignments, r2.assignments);
        assert_eq!(r1.modes, r2.modes);
    }

    #[test]
    fn avg_candidates_equals_k_for_baseline() {
        let ds = two_blob_dataset();
        let result = KModes::with_k(2).fit(&ds);
        for s in &result.summary.iterations {
            assert_eq!(s.avg_candidates, 2.0);
        }
    }

    #[test]
    fn fit_from_uses_supplied_modes() {
        let ds = two_blob_dataset();
        let modes = Modes::from_items(&ds, &[0, 3]);
        let result = KModes::with_k(2).fit_from(&ds, modes, std::time::Duration::ZERO);
        assert!(result.summary.converged);
        assert_eq!(result.summary.n_iterations(), 2); // assign + verify pass
        assert_eq!(result.summary.final_cost(), Some(4));
    }

    #[test]
    fn online_update_also_separates_blobs() {
        let ds = two_blob_dataset();
        let cfg = KModesConfig::new(2).update(UpdateRule::Online).seed(1);
        let result = KModes::new(cfg).fit(&ds);
        let a = result.assignments[0];
        let b = result.assignments[3];
        assert_ne!(a, b);
        assert_eq!(result.assignments[1], a);
        assert_eq!(result.assignments[4], b);
    }

    #[test]
    fn k_equals_n_gives_zero_cost() {
        let ds = two_blob_dataset();
        let result = KModes::with_k(6).fit(&ds);
        assert_eq!(result.summary.final_cost(), Some(0));
    }

    #[test]
    fn single_cluster_mode_is_majority_vector() {
        let ds = two_blob_dataset();
        let result = KModes::with_k(1).fit(&ds);
        assert!(result.assignments.iter().all(|&c| c == ClusterId(0)));
        // Mode per attribute is some majority value; cost is the sum of
        // mismatches which must be ≤ n_items * n_attrs.
        let cost = result.summary.final_cost().unwrap();
        assert!(cost <= 24);
    }

    #[test]
    #[should_panic(expected = "disagree with configured k")]
    fn fit_from_validates_k() {
        let ds = two_blob_dataset();
        let modes = Modes::from_items(&ds, &[0]);
        let _ = KModes::with_k(2).fit_from(&ds, modes, std::time::Duration::ZERO);
    }
}
