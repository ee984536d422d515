//! Zipf-distributed sampling over a finite support.
//!
//! Word frequencies in the synthetic corpus follow a Zipf law, the standard
//! model for natural-language token frequencies. Implemented with a
//! precomputed cumulative table and binary search (`O(log n)` per draw)
//! instead of pulling in `rand_distr`: the workspace builds offline, on
//! shims of its few dependencies (README.md § Offline dependency shims).

use rand::rngs::StdRng;
use rand::RngExt;

/// Sampler for `P(rank = i) ∝ 1 / (i + 1)^exponent`, ranks `0..n`.
#[derive(Clone, Debug)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Builds the cumulative table for `n` ranks with the given exponent.
    ///
    /// Panics if `n` is zero or the exponent is not finite.
    pub fn new(n: usize, exponent: f64) -> Self {
        assert!(n > 0, "support must be non-empty");
        assert!(exponent.is_finite(), "exponent must be finite");
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(exponent);
            cumulative.push(acc);
        }
        // Normalise so the final entry is exactly 1.0.
        let total = acc;
        for c in &mut cumulative {
            *c /= total;
        }
        if let Some(last) = cumulative.last_mut() {
            *last = 1.0;
        }
        Self { cumulative }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Whether the support is empty (never true — kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Draws one rank in `0..len()`.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.random_range(0.0..1.0);
        // partition_point returns the first index whose cumulative ≥ u.
        self.cumulative
            .partition_point(|&c| c < u)
            .min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn ranks_in_range() {
        let z = Zipf::new(10, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 10);
        }
    }

    #[test]
    fn rank_zero_dominates() {
        let z = Zipf::new(50, 1.2);
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = [0usize; 50];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(
            counts[0] > counts[1],
            "rank 0 not most frequent: {counts:?}"
        );
        assert!(counts[1] > counts[10], "frequency not decaying");
        // Rough shape: with exponent 1.2 rank 0 should take > 15% of mass.
        assert!(counts[0] > 3000);
    }

    #[test]
    fn exponent_zero_is_uniform() {
        let z = Zipf::new(4, 0.0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0usize; 4];
        for _ in 0..40_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!(
                (c as f64 - 10_000.0).abs() < 600.0,
                "not uniform: {counts:?}"
            );
        }
    }

    #[test]
    fn singleton_support() {
        let z = Zipf::new(1, 2.0);
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(z.sample(&mut rng), 0);
        assert_eq!(z.len(), 1);
        assert!(!z.is_empty());
    }

    #[test]
    #[should_panic(expected = "support must be non-empty")]
    fn zero_support_rejected() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let z = Zipf::new(20, 1.0);
        let a: Vec<usize> = (0..10)
            .scan(StdRng::seed_from_u64(7), |rng, _| Some(z.sample(rng)))
            .collect();
        let b: Vec<usize> = (0..10)
            .scan(StdRng::seed_from_u64(7), |rng, _| Some(z.sample(rng)))
            .collect();
        assert_eq!(a, b);
    }
}
