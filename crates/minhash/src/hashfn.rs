//! Seeded hash families and a fast `HashMap` hasher.
//!
//! The paper simulates random row permutations with hash functions
//! (§III-A2: "the random permutations of the matrix can be simulated by the
//! use of n randomly chosen hash functions"). [`MixHashFamily`] does so with
//! a strong 64-bit finalising mixer (splitmix64-style) applied to
//! `x ^ seed_i`: cheap to construct, one multiply chain per evaluation.
//!
//! Bucket tables use [`FastMap`]/[`FastSet`], `std` hash containers with the
//! multiplicative [`FxHasher64`] (the perf-guide "alternative hashers" advice,
//! implemented here instead of pulling a dependency).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A family of `n` seeded hash functions `u64 → u64`.
///
/// `eval(i, x)` must be deterministic in `(seed, i, x)` so that signatures are
/// reproducible across runs and processes.
pub trait HashFamily {
    /// Number of functions in the family.
    fn len(&self) -> usize;

    /// Whether the family is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Evaluates function `i` on element key `x`.
    fn eval(&self, i: usize, x: u64) -> u64;
}

/// splitmix64 finaliser: a full-avalanche 64-bit mixer.
#[inline(always)]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Mixer-based family: `h_i(x) = mix64(x ^ s_i)` with independent random
/// 64-bit seeds `s_i`.
#[derive(Clone, Debug)]
pub struct MixHashFamily {
    seeds: Vec<u64>,
}

impl MixHashFamily {
    /// Creates `n` functions derived deterministically from `seed`.
    pub fn new(n: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6d69_7868_6173_6866); // "mixhashf"
        let seeds = (0..n).map(|_| rng.next_u64()).collect();
        Self { seeds }
    }
}

impl HashFamily for MixHashFamily {
    #[inline]
    fn len(&self) -> usize {
        self.seeds.len()
    }

    #[inline(always)]
    fn eval(&self, i: usize, x: u64) -> u64 {
        mix64(x ^ self.seeds[i])
    }
}

/// Fx-style multiplicative hasher: very fast for the integer keys used by the
/// bucket tables. Not HashDoS-resistant — fine for internal indices.
#[derive(Default)]
pub struct FxHasher64 {
    state: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher64 {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.state = (self.state.rotate_left(5) ^ u64::from(i)).wrapping_mul(FX_SEED);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.state = (self.state.rotate_left(5) ^ u64::from(i)).wrapping_mul(FX_SEED);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.state = (self.state.rotate_left(5) ^ i).wrapping_mul(FX_SEED);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

/// `HashMap` keyed with [`FxHasher64`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher64>>;
/// `HashSet` keyed with [`FxHasher64`].
pub type FastSet<K> = HashSet<K, BuildHasherDefault<FxHasher64>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_avalanches() {
        // Flipping one input bit should flip roughly half the output bits.
        let a = mix64(0x1234_5678);
        let b = mix64(0x1234_5679);
        let flipped = (a ^ b).count_ones();
        assert!((16..=48).contains(&flipped), "only {flipped} bits flipped");
    }

    #[test]
    fn mix_family_is_deterministic() {
        let f1 = MixHashFamily::new(4, 42);
        let f2 = MixHashFamily::new(4, 42);
        for i in 0..4 {
            assert_eq!(f1.eval(i, 999), f2.eval(i, 999));
        }
    }

    #[test]
    fn mix_family_differs_across_seeds_and_indices() {
        let f1 = MixHashFamily::new(2, 1);
        let f2 = MixHashFamily::new(2, 2);
        assert_ne!(f1.eval(0, 7), f2.eval(0, 7));
        assert_ne!(f1.eval(0, 7), f1.eval(1, 7));
    }

    /// Empirical uniformity check: min-hash ranks should be near-uniform.
    #[test]
    fn family_minimum_is_unbiased() {
        let f = MixHashFamily::new(64, 7);
        // Over 64 functions, each of 8 elements should "win" (be the min)
        // roughly 64/8 = 8 times.
        let elements: Vec<u64> = (0..8).map(|i| 1000 + i * 17).collect();
        let mut wins = [0usize; 8];
        for i in 0..f.len() {
            let (argmin, _) = elements
                .iter()
                .enumerate()
                .map(|(j, &e)| (j, f.eval(i, e)))
                .min_by_key(|&(_, h)| h)
                .unwrap();
            wins[argmin] += 1;
        }
        // Loose bound: no element should win more than half the time.
        assert!(wins.iter().all(|&w| w <= 32), "biased wins: {wins:?}");
    }

    #[test]
    fn fx_hasher_spreads_u64_keys() {
        let build = BuildHasherDefault::<FxHasher64>::default();
        let mut set = HashSet::new();
        for k in 0u64..1000 {
            let mut h = std::hash::BuildHasher::build_hasher(&build);
            h.write_u64(k);
            set.insert(h.finish());
        }
        assert_eq!(set.len(), 1000, "fx hasher collided on sequential keys");
    }

    #[test]
    fn fast_map_works_as_hashmap() {
        let mut m: FastMap<u64, u32> = FastMap::default();
        m.insert(10, 1);
        m.insert(20, 2);
        assert_eq!(m.get(&10), Some(&1));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn empty_families() {
        assert!(MixHashFamily::new(0, 0).is_empty());
    }
}
