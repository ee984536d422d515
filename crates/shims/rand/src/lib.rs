//! Workspace-local stand-in for the `rand` crate.
//!
//! The build environment has no registry access, so this crate provides the
//! (small) slice of the `rand` API the workspace actually uses, with fully
//! deterministic behaviour: [`rngs::StdRng`] is xoshiro256++ seeded through
//! SplitMix64, so every seed maps to one reproducible stream on every
//! platform — exactly the property the workspace's determinism policy needs.
//!
//! Surface provided: `SeedableRng::seed_from_u64`, `Rng::{next_u64, fill}`,
//! and `RngExt::random_range` over integer and `f64` ranges.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Seedable construction (the only entry point the workspace uses).
pub trait SeedableRng: Sized {
    /// Creates a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// The raw generator interface.
pub trait Rng {
    /// Next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;
}

/// Range sampling extensions (blanket-implemented for every [`Rng`]).
pub trait RngExt: Rng {
    /// Samples uniformly from `range`. Panics on an empty range.
    fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }
}

impl<T: Rng> RngExt for T {}

/// A range that knows how to draw a uniform sample from itself.
pub trait SampleRange<T> {
    /// Draws one sample.
    fn sample_from<R: Rng>(self, rng: &mut R) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: Rng>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let span = (self.end as u128 - self.start as u128) as u64;
                self.start + (uniform_u64(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: Rng>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample from empty range");
                let span = hi as u128 - lo as u128 + 1;
                if span > u64::MAX as u128 {
                    return lo.wrapping_add(rng.next_u64() as $t);
                }
                lo + (uniform_u64(rng, span as u64) as $t)
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize);

macro_rules! impl_signed_range {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: Rng>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                ((self.start as i128) + uniform_u64(rng, span) as i128) as $t
            }
        }
    )*};
}

impl_signed_range!(i32 => u32, i64 => u64, isize => usize);

impl SampleRange<f64> for Range<f64> {
    fn sample_from<R: Rng>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample from empty range");
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.start + (self.end - self.start) * unit
    }
}

impl SampleRange<f32> for Range<f32> {
    fn sample_from<R: Rng>(self, rng: &mut R) -> f32 {
        assert!(self.start < self.end, "cannot sample from empty range");
        let unit = (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32);
        self.start + (self.end - self.start) * unit
    }
}

/// Uniform draw from `[0, span)` by widening multiply (Lemire reduction,
/// without the rejection step — the bias is < 2⁻⁶⁴·span, irrelevant here).
#[inline]
fn uniform_u64<R: Rng>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    (((rng.next_u64() as u128) * (span as u128)) >> 64) as u64
}

/// Concrete generators.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// xoshiro256++ seeded via SplitMix64 — deterministic, fast, and good
    /// enough statistically for initialisation sampling and hash seeding.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let mut next = || {
                sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            Self {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl Rng for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngExt, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(StdRng::seed_from_u64(7).next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let x: usize = rng.random_range(3..17);
            assert!((3..17).contains(&x));
            let y: u32 = rng.random_range(0..=5);
            assert!(y <= 5);
            let f: f64 = rng.random_range(-1.0..1.0);
            assert!((-1.0..1.0).contains(&f));
        }
    }

    #[test]
    fn range_covers_all_values() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[rng.random_range(0..4usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
