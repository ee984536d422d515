//! Per-iteration instrumentation shared by the baseline and the accelerated
//! algorithm — exactly the series the paper plots (time per iteration,
//! moves, average number of clusters searched).

use serde::{Deserialize, Error as SerdeError, Serialize, Value};
use std::time::Duration;

/// Measurements of one clustering iteration.
#[derive(Clone, Debug, PartialEq)]
pub struct IterationStats {
    /// 1-based iteration number.
    pub iteration: usize,
    /// Wall-clock time of the iteration (assignment + mode update).
    pub duration: Duration,
    /// Items that changed cluster this iteration (Figs. 2c, 3d, 4b, 9c, 10d).
    pub moves: usize,
    /// Mean number of candidate clusters searched per item (Figs. 2b, 3c,
    /// 4a, 5b, 9b, 10c). Equals `k` for the full-search baseline.
    pub avg_candidates: f64,
    /// Objective `P(W, Q)` after the iteration.
    pub cost: u64,
    /// Items whose re-evaluation was skipped by the cluster-closure active
    /// set (their cached shortlist touched no active cluster, so their
    /// assignment provably could not change). `0` for full-search baselines,
    /// closure-disabled runs, and summaries recorded before the counter
    /// existed.
    pub skipped_items: usize,
    /// Clusters considered *active* going into this iteration's assignment
    /// pass (centroid changed, or an endpoint of a move, in the previous
    /// iteration). Equals `k` on the first iteration and `0` in summaries
    /// recorded before the counter existed.
    pub active_clusters: usize,
}

// Hand-written (not `impl_serde_struct!`) for one reason: the late-added
// closure counters (`skipped_items`, `active_clusters`) must default to 0
// when absent, so every summary JSON written before they existed — saved
// model envelopes included — still parses.
impl Serialize for IterationStats {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("iteration".to_owned(), self.iteration.to_value()),
            ("duration".to_owned(), self.duration.to_value()),
            ("moves".to_owned(), self.moves.to_value()),
            ("avg_candidates".to_owned(), self.avg_candidates.to_value()),
            ("cost".to_owned(), self.cost.to_value()),
            ("skipped_items".to_owned(), self.skipped_items.to_value()),
            (
                "active_clusters".to_owned(),
                self.active_clusters.to_value(),
            ),
        ])
    }
}

impl Deserialize for IterationStats {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        let entries = v
            .as_object()
            .ok_or_else(|| SerdeError::expected("object", "IterationStats"))?;
        let optional = |key: &str| -> Result<usize, SerdeError> {
            match entries.iter().find(|(k, _)| k == key) {
                Some((_, value)) => usize::from_value(value)
                    .map_err(|e| SerdeError(format!("field `{key}` of IterationStats: {}", e.0))),
                None => Ok(0), // pre-closure summary JSON
            }
        };
        Ok(Self {
            iteration: serde::field(entries, "iteration", "IterationStats")?,
            duration: serde::field(entries, "duration", "IterationStats")?,
            moves: serde::field(entries, "moves", "IterationStats")?,
            avg_candidates: serde::field(entries, "avg_candidates", "IterationStats")?,
            cost: serde::field(entries, "cost", "IterationStats")?,
            skipped_items: optional("skipped_items")?,
            active_clusters: optional("active_clusters")?,
        })
    }
}

/// Summary of a finished clustering run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSummary {
    /// Per-iteration measurements in order.
    pub iterations: Vec<IterationStats>,
    /// Whether the run stopped because no item moved (vs hitting the cap or
    /// a cost increase).
    pub converged: bool,
    /// One-off setup time before the first iteration (for MH-K-Modes this is
    /// the initial assignment pass plus index construction; the paper counts
    /// it in the total, Fig. 7).
    pub setup: Duration,
}

serde::impl_serde_struct!(RunSummary {
    iterations,
    converged,
    setup
});

impl RunSummary {
    /// Number of iterations executed.
    pub fn n_iterations(&self) -> usize {
        self.iterations.len()
    }

    /// Total wall-clock time including setup (the paper's Fig. 7/9d/10b).
    pub fn total_time(&self) -> Duration {
        self.setup + self.iterations.iter().map(|s| s.duration).sum::<Duration>()
    }

    /// Cost of the **last recorded pass**, or `None` before any iteration
    /// ran. When a run stopped because the final pass made the cost
    /// strictly worse, that pass stays in the record but its state was
    /// rolled back — the returned assignments/centroids then carry
    /// [`Self::best_cost`], not this value.
    pub fn final_cost(&self) -> Option<u64> {
        self.iterations.last().map(|s| s.cost)
    }

    /// Minimum cost over the recorded iterations. When the driver runs with
    /// cost-increase rollback armed (`stop_on_cost_increase`, the default),
    /// this is the cost of the state the run returned, and it equals
    /// [`Self::final_cost`] unless the stopping pass was rolled back. With
    /// that criterion disabled the trajectory may oscillate below the final
    /// state, and the returned state's cost is [`Self::final_cost`].
    pub fn best_cost(&self) -> Option<u64> {
        self.iterations.iter().map(|s| s.cost).min()
    }

    /// Total items skipped by the cluster-closure active set across all
    /// iterations (`0` for runs without closures or pre-closure summaries).
    pub fn total_skipped(&self) -> usize {
        self.iterations.iter().map(|s| s.skipped_items).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iter(i: usize, ms: u64, moves: usize, cost: u64) -> IterationStats {
        IterationStats {
            iteration: i,
            duration: Duration::from_millis(ms),
            moves,
            avg_candidates: 10.0,
            cost,
            skipped_items: 0,
            active_clusters: 0,
        }
    }

    #[test]
    fn totals_include_setup() {
        let run = RunSummary {
            iterations: vec![iter(1, 100, 5, 50), iter(2, 80, 0, 40)],
            converged: true,
            setup: Duration::from_millis(20),
        };
        assert_eq!(run.n_iterations(), 2);
        assert_eq!(run.total_time(), Duration::from_millis(200));
        assert_eq!(run.final_cost(), Some(40));
    }

    #[test]
    fn empty_run() {
        let run = RunSummary {
            iterations: vec![],
            converged: false,
            setup: Duration::ZERO,
        };
        assert_eq!(run.total_time(), Duration::ZERO);
        assert_eq!(run.final_cost(), None);
        assert_eq!(run.best_cost(), None);
    }

    #[test]
    fn iteration_stats_round_trip_with_closure_counters() {
        let mut s = iter(3, 12, 7, 99);
        s.skipped_items = 41;
        s.active_clusters = 5;
        let json = serde_json::to_string(&s).unwrap();
        let back: IterationStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn legacy_iteration_stats_json_parses_with_zero_closure_counters() {
        // Summaries (and model envelopes embedding them) serialized before
        // the closure counters existed must keep loading; the missing fields
        // default to 0 instead of erroring.
        let mut s = iter(2, 5, 3, 77);
        s.skipped_items = 9;
        s.active_clusters = 4;
        let json = serde_json::to_string(&s).unwrap();
        let legacy = json.replace(",\"skipped_items\":9,\"active_clusters\":4", "");
        assert!(
            !legacy.contains("skipped_items") && !legacy.contains("active_clusters"),
            "surgery failed: {legacy}"
        );
        let back: IterationStats = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.skipped_items, 0);
        assert_eq!(back.active_clusters, 0);
        assert_eq!(back.iteration, 2);
        assert_eq!(back.cost, 77);

        let summary = RunSummary {
            iterations: vec![back],
            converged: true,
            setup: Duration::ZERO,
        };
        assert_eq!(summary.total_skipped(), 0);
    }

    #[test]
    fn total_skipped_sums_iterations() {
        let mut a = iter(1, 10, 5, 50);
        a.skipped_items = 10;
        let mut b = iter(2, 10, 0, 40);
        b.skipped_items = 32;
        let run = RunSummary {
            iterations: vec![a, b],
            converged: true,
            setup: Duration::ZERO,
        };
        assert_eq!(run.total_skipped(), 42);
    }

    #[test]
    fn best_cost_diverges_from_final_cost_on_a_rolled_back_stop() {
        // Trajectory 50 → 40 → 45: the driver rolled the last pass back, so
        // the returned state carries 40 while the record's last entry is 45.
        let run = RunSummary {
            iterations: vec![iter(1, 10, 5, 50), iter(2, 10, 3, 40), iter(3, 10, 2, 45)],
            converged: true,
            setup: Duration::ZERO,
        };
        assert_eq!(run.final_cost(), Some(45));
        assert_eq!(run.best_cost(), Some(40));
    }
}
