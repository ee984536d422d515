//! K-Prototypes: centroid-based clustering of **mixed** categorical +
//! numeric data (Huang 1998, the same paper that introduced K-Modes).
//!
//! The paper's further-work section asks for the framework to cover
//! "not only categorical data, but numeric data, or combinations of both";
//! this is the full-search baseline for the "combinations" case. Distance is
//!
//! `d(X, P) = d_matching(X_cat, P_mode) + γ · d²_euclidean(X_num, P_mean)`
//!
//! with prototypes carrying a mode for the categorical part and a mean for
//! the numeric part. `γ` balances the two scales (Huang suggests a value
//! around the average numeric variance).

use crate::kmeans::{member_mean, sq_euclidean, NumericDataset};
use crate::modes::{group_by_cluster, Modes};
use lshclust_categorical::dissimilarity::matching;
use lshclust_categorical::{ClusterId, Dataset};
use std::time::Instant;

/// A mixed dataset: aligned categorical and numeric parts (row `i` of each
/// describes the same item).
pub struct MixedDataset<'a> {
    /// Categorical columns.
    pub categorical: &'a Dataset,
    /// Numeric columns.
    pub numeric: &'a NumericDataset,
}

impl<'a> MixedDataset<'a> {
    /// Pairs the two parts; they must have equal row counts.
    pub fn new(categorical: &'a Dataset, numeric: &'a NumericDataset) -> Self {
        assert_eq!(
            categorical.n_items(),
            numeric.n_items(),
            "categorical and numeric parts must align"
        );
        Self {
            categorical,
            numeric,
        }
    }

    /// Number of items.
    pub fn n_items(&self) -> usize {
        self.categorical.n_items()
    }
}

/// Cluster prototypes: modes for the categorical part, means for the numeric.
#[derive(Clone, Debug, PartialEq)]
pub struct Prototypes {
    /// Categorical modes (`k × n_cat_attrs`).
    pub modes: Modes,
    /// Numeric means (`k × dim`, row-major).
    pub means: Vec<f64>,
    dim: usize,
}

impl Prototypes {
    /// Assembles prototypes from their parts: categorical modes plus a flat
    /// `k × dim` numeric mean matrix. Panics on shape mismatch.
    pub fn from_parts(modes: Modes, means: Vec<f64>, dim: usize) -> Self {
        assert_eq!(
            means.len(),
            modes.k() * dim,
            "prototype mean buffer shape mismatch"
        );
        Self { modes, means, dim }
    }

    /// Numeric dimensionality of each prototype mean.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Initialises prototypes from `k` sampled items.
    pub fn from_items(data: &MixedDataset<'_>, items: &[u32]) -> Self {
        let modes = Modes::from_items(data.categorical, items);
        let dim = data.numeric.dim();
        let mut means = Vec::with_capacity(items.len() * dim);
        for &i in items {
            means.extend_from_slice(data.numeric.row(i as usize));
        }
        Self { modes, means, dim }
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.modes.k()
    }

    /// Numeric mean of cluster `c`.
    #[inline]
    pub fn mean(&self, c: usize) -> &[f64] {
        &self.means[c * self.dim..(c + 1) * self.dim]
    }

    /// Mixed distance of item `item` to prototype `c`.
    #[inline]
    pub fn distance(&self, data: &MixedDataset<'_>, item: usize, c: usize, gamma: f64) -> f64 {
        let cat = f64::from(matching(data.categorical.row(item), self.modes.mode(c)));
        let num = sq_euclidean(data.numeric.row(item), self.mean(c));
        cat + gamma * num
    }

    /// Recomputes all prototypes from assignments (empty clusters keep their
    /// previous prototype, per the workspace policy).
    pub fn recompute(&mut self, data: &MixedDataset<'_>, assignments: &[ClusterId]) {
        self.modes.recompute(data.categorical, assignments);
        let k = self.k();
        let dim = self.dim;
        let groups = group_by_cluster(assignments, k);
        for c in 0..k {
            let members = groups.members(c);
            if !members.is_empty() {
                let mean = member_mean(data.numeric, members);
                self.means[c * dim..(c + 1) * dim].copy_from_slice(&mean);
            }
        }
    }
}

// `{"modes": {...}, "dim": 2, "means": [...]}` — the modes carry their own
// shape; `dim` validates the mean matrix.
impl serde::Serialize for Prototypes {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("modes".to_owned(), serde::Serialize::to_value(&self.modes)),
            ("dim".to_owned(), serde::Serialize::to_value(&self.dim)),
            ("means".to_owned(), serde::Serialize::to_value(&self.means)),
        ])
    }
}

impl serde::Deserialize for Prototypes {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let entries = v
            .as_object()
            .ok_or_else(|| serde::Error::expected("object", "Prototypes"))?;
        let modes: Modes = serde::field(entries, "modes", "Prototypes")?;
        let dim: usize = serde::field(entries, "dim", "Prototypes")?;
        let means: Vec<f64> = serde::field(entries, "means", "Prototypes")?;
        if means.len() != modes.k() * dim {
            return Err(serde::Error(format!(
                "Prototypes mean buffer holds {} values, expected k×dim = {}",
                means.len(),
                modes.k() * dim
            )));
        }
        Ok(Prototypes::from_parts(modes, means, dim))
    }
}

/// Suggests `γ` as the mean per-dimension variance of the numeric part
/// (Huang's heuristic): one categorical mismatch then "costs" about one
/// standard-unit of numeric spread.
pub fn suggest_gamma(numeric: &NumericDataset) -> f64 {
    let (n, dim) = (numeric.n_items(), numeric.dim());
    if n < 2 {
        return 1.0;
    }
    let mut mean = vec![0.0f64; dim];
    for i in 0..n {
        for (m, &x) in mean.iter_mut().zip(numeric.row(i)) {
            *m += x;
        }
    }
    for m in &mut mean {
        *m /= n as f64;
    }
    let mut var = 0.0f64;
    for i in 0..n {
        for (m, &x) in mean.iter().zip(numeric.row(i)) {
            var += (x - m) * (x - m);
        }
    }
    let v = var / (n as f64 * dim as f64);
    if v > 0.0 {
        1.0 / v
    } else {
        1.0
    }
}

/// Configuration for a K-Prototypes run.
#[derive(Clone, Debug)]
pub struct KPrototypesConfig {
    /// Number of clusters.
    pub k: usize,
    /// Mixing weight γ (see [`suggest_gamma`]).
    pub gamma: f64,
    /// Iteration cap.
    pub max_iterations: usize,
    /// Seed for prototype initialisation.
    pub seed: u64,
}

impl KPrototypesConfig {
    /// Defaults: 100-iteration cap.
    pub fn new(k: usize, gamma: f64) -> Self {
        Self {
            k,
            gamma,
            max_iterations: 100,
            seed: 0,
        }
    }
}

/// Result of a K-Prototypes run.
#[derive(Clone, Debug)]
pub struct KPrototypesResult {
    /// Final cluster per item.
    pub assignments: Vec<ClusterId>,
    /// Final prototypes.
    pub prototypes: Prototypes,
    /// Iterations executed.
    pub n_iterations: usize,
    /// Whether a zero-move pass was reached.
    pub converged: bool,
    /// Final mixed cost.
    pub cost: f64,
    /// Wall-clock time.
    pub elapsed: std::time::Duration,
}

/// Runs full-search K-Prototypes.
pub fn kprototypes(data: &MixedDataset<'_>, config: &KPrototypesConfig) -> KPrototypesResult {
    let start = Instant::now();
    let picks = crate::init::sample_distinct_items(data.n_items(), config.k, config.seed);
    let prototypes = Prototypes::from_items(data, &picks);
    kprototypes_from(data, config, prototypes, start)
}

/// Runs K-Prototypes from explicit initial prototypes.
pub fn kprototypes_from(
    data: &MixedDataset<'_>,
    config: &KPrototypesConfig,
    mut prototypes: Prototypes,
    start: Instant,
) -> KPrototypesResult {
    assert_eq!(prototypes.k(), config.k);
    let n = data.n_items();
    let mut assignments = vec![ClusterId(0); n];
    let mut converged = false;
    let mut n_iterations = 0;
    let mut prev_cost = f64::INFINITY;
    for iteration in 1..=config.max_iterations {
        n_iterations = iteration;
        let mut moves = 0usize;
        for (item, slot) in assignments.iter_mut().enumerate() {
            let mut best = ClusterId(0);
            let mut best_d = f64::INFINITY;
            for c in 0..config.k {
                let d = prototypes.distance(data, item, c, config.gamma);
                if d < best_d {
                    best_d = d;
                    best = ClusterId(c as u32);
                }
            }
            if best != *slot {
                moves += 1;
                *slot = best;
            }
        }
        prototypes.recompute(data, &assignments);
        let cost: f64 = assignments
            .iter()
            .enumerate()
            .map(|(i, &c)| prototypes.distance(data, i, c.idx(), config.gamma))
            .sum();
        if iteration > 1 && (moves == 0 || cost >= prev_cost) {
            converged = true;
            prev_cost = cost.min(prev_cost);
            break;
        }
        prev_cost = cost;
    }
    KPrototypesResult {
        assignments,
        prototypes,
        n_iterations,
        converged,
        cost: prev_cost,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lshclust_categorical::DatasetBuilder;

    /// Two groups separated in *both* modalities.
    fn mixed_fixture() -> (Dataset, NumericDataset) {
        let mut b = DatasetBuilder::anonymous(3);
        let mut numeric = Vec::new();
        for g in 0..2 {
            for i in 0..6 {
                let cat: Vec<String> = (0..3)
                    .map(|a| {
                        if a == 2 {
                            format!("g{g}n{i}")
                        } else {
                            format!("g{g}a{a}")
                        }
                    })
                    .collect();
                let refs: Vec<&str> = cat.iter().map(String::as_str).collect();
                b.push_str_row(&refs, Some(g as u32)).unwrap();
                let base = g as f64 * 10.0;
                numeric.extend_from_slice(&[base + 0.1 * i as f64, base - 0.1 * i as f64]);
            }
        }
        (b.finish(), NumericDataset::new(2, numeric))
    }

    #[test]
    fn separates_mixed_blobs() {
        let (cat, num) = mixed_fixture();
        let data = MixedDataset::new(&cat, &num);
        let gamma = suggest_gamma(&num);
        let result = kprototypes(&data, &KPrototypesConfig::new(2, gamma));
        assert!(result.converged);
        let a = result.assignments[0];
        let b = result.assignments[6];
        assert_ne!(a, b);
        assert!(result.assignments[..6].iter().all(|&c| c == a));
        assert!(result.assignments[6..].iter().all(|&c| c == b));
    }

    #[test]
    fn numeric_part_breaks_categorical_ties() {
        // Categorical parts identical; only the numeric part separates.
        let mut b = DatasetBuilder::anonymous(1);
        for _ in 0..8 {
            b.push_str_row(&["same"], None).unwrap();
        }
        let cat = b.finish();
        let numeric = NumericDataset::new(1, vec![0.0, 0.1, 0.2, 0.3, 9.0, 9.1, 9.2, 9.3]);
        let data = MixedDataset::new(&cat, &numeric);
        let result = kprototypes(&data, &KPrototypesConfig::new(2, 1.0));
        assert_ne!(result.assignments[0], result.assignments[7]);
        assert_eq!(result.assignments[0], result.assignments[3]);
    }

    #[test]
    fn categorical_part_breaks_numeric_ties() {
        let mut b = DatasetBuilder::anonymous(2);
        for i in 0..8 {
            let g = if i < 4 { "x" } else { "y" };
            b.push_str_row(&[g, g], None).unwrap();
        }
        let cat = b.finish();
        let numeric = NumericDataset::new(1, vec![1.0; 8]);
        let data = MixedDataset::new(&cat, &numeric);
        // Seed 1 draws one initial item from each categorical group; picks
        // from the same group make both prototypes identical, so every item
        // ties and the split can never happen.
        let mut config = KPrototypesConfig::new(2, 1.0);
        config.seed = 1;
        let result = kprototypes(&data, &config);
        assert_ne!(result.assignments[0], result.assignments[4]);
    }

    #[test]
    fn gamma_zero_ignores_numeric() {
        let (cat, _) = mixed_fixture();
        // Numeric part actively misleading: same for all items except noise.
        let numeric = NumericDataset::new(1, (0..12).map(|i| (i % 3) as f64 * 100.0).collect());
        let data = MixedDataset::new(&cat, &numeric);
        let result = kprototypes(&data, &KPrototypesConfig::new(2, 0.0));
        // With γ=0 the categorical structure must dominate.
        assert_eq!(result.assignments[0], result.assignments[5]);
        assert_ne!(result.assignments[0], result.assignments[6]);
    }

    #[test]
    fn suggest_gamma_is_inverse_variance() {
        let numeric = NumericDataset::new(1, vec![0.0, 2.0]); // var = 1
        let g = suggest_gamma(&numeric);
        assert!((g - 1.0).abs() < 1e-12);
        // Tighter data → larger gamma (numeric differences mean more).
        let tight = NumericDataset::new(1, vec![0.0, 0.2]);
        assert!(suggest_gamma(&tight) > g);
    }

    #[test]
    fn cost_non_increasing() {
        let (cat, num) = mixed_fixture();
        let data = MixedDataset::new(&cat, &num);
        let result = kprototypes(&data, &KPrototypesConfig::new(3, suggest_gamma(&num)));
        assert!(result.cost.is_finite());
        assert!(result.converged);
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn mismatched_parts_rejected() {
        let (cat, _) = mixed_fixture();
        let numeric = NumericDataset::new(1, vec![1.0]);
        let _ = MixedDataset::new(&cat, &numeric);
    }
}
