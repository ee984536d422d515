//! Full-search K-Means on dense `f64` vectors.
//!
//! The paper's framework targets "centroid-based clustering algorithms that
//! assign an object to the most similar cluster" in general; K-Means is the
//! canonical numeric member of that family and anchors the further-work
//! extension (`lshclust-core::mhkmeans` accelerates this implementation with
//! SimHash).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

/// A dense numeric dataset: `n × dim`, row-major.
#[derive(Clone, Debug)]
pub struct NumericDataset {
    dim: usize,
    data: Vec<f64>,
}

impl NumericDataset {
    /// Wraps a flat buffer. Panics if `data.len()` is not a multiple of `dim`.
    pub fn new(dim: usize, data: Vec<f64>) -> Self {
        assert!(dim > 0);
        assert_eq!(data.len() % dim, 0, "buffer is not a whole number of rows");
        Self { dim, data }
    }

    /// Number of vectors.
    pub fn n_items(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }
}

/// Squared Euclidean distance.
#[inline]
pub fn sq_euclidean(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// The mean of the rows `members` of `data`, summed in the given order.
/// Every centroid update passes its members ascending, so a mean's bits
/// depend only on the member list.
pub fn member_mean(data: &NumericDataset, members: &[u32]) -> Vec<f64> {
    let mut mean = vec![0.0f64; data.dim()];
    for &i in members {
        for (s, &x) in mean.iter_mut().zip(data.row(i as usize)) {
            *s += x;
        }
    }
    for s in &mut mean {
        *s /= members.len() as f64;
    }
    mean
}

/// K-Means initialisation strategies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum KMeansInit {
    /// `k` distinct random items.
    #[default]
    RandomItems,
    /// k-means++ seeding (D² weighting).
    PlusPlus,
}

/// Configuration for K-Means.
#[derive(Clone, Debug)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Iteration cap.
    pub max_iterations: usize,
    /// Seeding strategy.
    pub init: KMeansInit,
    /// RNG seed.
    pub seed: u64,
    /// Stop when total centroid movement falls below this.
    pub tolerance: f64,
}

impl KMeansConfig {
    /// Defaults: random init, 100 iterations, tolerance 1e-9.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            max_iterations: 100,
            init: KMeansInit::default(),
            seed: 0,
            tolerance: 1e-9,
        }
    }
}

/// Result of a K-Means run.
#[derive(Clone, Debug)]
pub struct KMeansResult {
    /// Cluster per item.
    pub assignments: Vec<u32>,
    /// `k × dim` centroids, row-major.
    pub centroids: Vec<f64>,
    /// Iterations executed.
    pub n_iterations: usize,
    /// Whether the movement tolerance was reached (vs the iteration cap).
    pub converged: bool,
    /// Final within-cluster sum of squares.
    pub inertia: f64,
    /// Total wall-clock time.
    pub elapsed: std::time::Duration,
}

/// Computes the `k` initial centroids.
pub fn kmeans_initial_centroids(
    data: &NumericDataset,
    k: usize,
    init: KMeansInit,
    seed: u64,
) -> Vec<f64> {
    assert!(k > 0 && k <= data.n_items());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6b6d_6561_6e73);
    match init {
        KMeansInit::RandomItems => {
            let picks = crate::init::sample_distinct_items(data.n_items(), k, seed);
            picks
                .iter()
                .flat_map(|&i| data.row(i as usize).to_vec())
                .collect()
        }
        KMeansInit::PlusPlus => {
            let n = data.n_items();
            let mut centroids: Vec<f64> = Vec::with_capacity(k * data.dim());
            let first = rng.random_range(0..n);
            centroids.extend_from_slice(data.row(first));
            let mut d2: Vec<f64> = (0..n)
                .map(|i| sq_euclidean(data.row(i), data.row(first)))
                .collect();
            for _ in 1..k {
                let total: f64 = d2.iter().sum();
                let pick = if total <= 0.0 {
                    rng.random_range(0..n)
                } else {
                    let mut t = rng.random_range(0.0..total);
                    let mut chosen = n - 1;
                    for (i, &w) in d2.iter().enumerate() {
                        if t < w {
                            chosen = i;
                            break;
                        }
                        t -= w;
                    }
                    chosen
                };
                let row = data.row(pick).to_vec();
                for (i, slot) in d2.iter_mut().enumerate() {
                    *slot = slot.min(sq_euclidean(data.row(i), &row));
                }
                centroids.extend_from_slice(&row);
            }
            centroids
        }
    }
}

/// Runs Lloyd's algorithm to convergence.
pub fn kmeans(data: &NumericDataset, config: &KMeansConfig) -> KMeansResult {
    let start = Instant::now();
    let centroids = kmeans_initial_centroids(data, config.k, config.init, config.seed);
    kmeans_from(data, config, centroids, start)
}

/// Runs Lloyd's algorithm from explicit centroids.
pub fn kmeans_from(
    data: &NumericDataset,
    config: &KMeansConfig,
    mut centroids: Vec<f64>,
    start: Instant,
) -> KMeansResult {
    let (n, dim, k) = (data.n_items(), data.dim(), config.k);
    assert_eq!(centroids.len(), k * dim);
    let mut assignments = vec![0u32; n];
    let mut converged = false;
    let mut n_iterations = 0;
    for _ in 0..config.max_iterations {
        n_iterations += 1;
        // Assignment.
        for (i, slot) in assignments.iter_mut().enumerate() {
            let row = data.row(i);
            let mut best = 0u32;
            let mut best_d = f64::INFINITY;
            for c in 0..k {
                let d = sq_euclidean(row, &centroids[c * dim..(c + 1) * dim]);
                if d < best_d {
                    best_d = d;
                    best = c as u32;
                }
            }
            *slot = best;
        }
        // Update.
        let mut sums = vec![0.0f64; k * dim];
        let mut counts = vec![0u32; k];
        for (i, &a) in assignments.iter().enumerate() {
            let c = a as usize;
            counts[c] += 1;
            for (s, &x) in sums[c * dim..(c + 1) * dim].iter_mut().zip(data.row(i)) {
                *s += x;
            }
        }
        let mut movement = 0.0;
        for c in 0..k {
            if counts[c] == 0 {
                continue; // empty cluster keeps its centroid
            }
            for d in 0..dim {
                let new = sums[c * dim + d] / f64::from(counts[c]);
                let old = centroids[c * dim + d];
                movement += (new - old) * (new - old);
                centroids[c * dim + d] = new;
            }
        }
        if movement <= config.tolerance {
            converged = true;
            break;
        }
    }
    let inertia = (0..n)
        .map(|i| {
            let c = assignments[i] as usize;
            sq_euclidean(data.row(i), &centroids[c * dim..(c + 1) * dim])
        })
        .sum();
    KMeansResult {
        assignments,
        centroids,
        n_iterations,
        converged,
        inertia,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> NumericDataset {
        // Two tight 2-D blobs around (0,0) and (10,10).
        let mut data = Vec::new();
        for i in 0..10 {
            data.extend_from_slice(&[0.1 * f64::from(i), -0.1 * f64::from(i)]);
        }
        for i in 0..10 {
            data.extend_from_slice(&[10.0 + 0.1 * f64::from(i), 10.0 - 0.1 * f64::from(i)]);
        }
        NumericDataset::new(2, data)
    }

    #[test]
    fn dataset_shape() {
        let d = blobs();
        assert_eq!(d.n_items(), 20);
        assert_eq!(d.dim(), 2);
        assert_eq!(d.row(0).len(), 2);
    }

    #[test]
    fn separates_blobs() {
        // Seed 1 draws the two initial items from different blobs; random
        // init that doubles up inside one blob cannot split them apart.
        let mut config = KMeansConfig::new(2);
        config.seed = 1;
        let result = kmeans(&blobs(), &config);
        assert!(result.converged);
        let first = result.assignments[0];
        assert!(result.assignments[..10].iter().all(|&c| c == first));
        let second = result.assignments[10];
        assert!(result.assignments[10..].iter().all(|&c| c == second));
        assert_ne!(first, second);
        assert!(result.inertia < 10.0);
    }

    #[test]
    fn plus_plus_also_separates() {
        let mut cfg = KMeansConfig::new(2);
        cfg.init = KMeansInit::PlusPlus;
        let result = kmeans(&blobs(), &cfg);
        assert_ne!(result.assignments[0], result.assignments[19]);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = KMeansConfig::new(2);
        let a = kmeans(&blobs(), &cfg);
        let b = kmeans(&blobs(), &cfg);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.centroids, b.centroids);
    }

    #[test]
    fn inertia_zero_when_k_equals_n() {
        let d = NumericDataset::new(1, vec![1.0, 5.0, 9.0]);
        let result = kmeans(&d, &KMeansConfig::new(3));
        assert!(result.inertia < 1e-12);
    }

    #[test]
    fn respects_iteration_cap() {
        let mut cfg = KMeansConfig::new(2);
        cfg.max_iterations = 1;
        let result = kmeans(&blobs(), &cfg);
        assert_eq!(result.n_iterations, 1);
    }

    #[test]
    fn sq_euclidean_basics() {
        assert_eq!(sq_euclidean(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(sq_euclidean(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "whole number of rows")]
    fn dataset_validates_shape() {
        let _ = NumericDataset::new(2, vec![1.0, 2.0, 3.0]);
    }
}
