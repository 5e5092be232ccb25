//! Offline stand-in for the subset of the `rand` crate this workspace uses.
//!
//! The build environment has no access to crates.io, so this local crate
//! provides the exact API surface the workspace consumes — [`Rng`],
//! [`SeedableRng`], [`rngs::StdRng`], `gen` of an `f64`, `gen_bool`,
//! `gen_range` over integer and float ranges — backed by a xoshiro256++ generator seeded via
//! splitmix64 (the same construction the real `rand_chacha`-free small-rng
//! stacks use). Determinism contract matches the workspace's needs: equal
//! seeds give identical streams on every platform.

use std::ops::{Range, RangeInclusive};

/// Low-level source of random 64-bit words (mirror of `rand_core::RngCore`).
pub trait RngCore {
    /// Next raw 64-bit word.
    fn next_u64(&mut self) -> u64;
}

/// Seedable constructor (mirror of `rand_core::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types samplable from the uniform "standard" distribution.
pub trait StandardSample: Sized {
    /// Draw one value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for f64 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges usable with [`Rng::gen_range`] (mirror of `rand::distributions::uniform::SampleRange`).
pub trait SampleRange<T> {
    /// Draw one value uniformly from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let span = (self.end - self.start) as u64;
                self.start + (reduce(rng.next_u64(), span) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty inclusive range in gen_range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + (reduce(rng.next_u64(), span + 1) as $t)
            }
        }
    )*};
}

impl_int_range!(u8, u32, u64, usize);

impl SampleRange<f64> for Range<f64> {
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range in gen_range");
        self.start + f64::sample(rng) * (self.end - self.start)
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty inclusive range in gen_range");
        lo + f64::sample(rng) * (hi - lo)
    }
}

/// Map a uniform 64-bit word into `[0, span)` (Lemire-style multiply-shift;
/// the residual bias over a 64-bit word is far below anything the synthetic
/// workloads could observe).
#[inline]
fn reduce(word: u64, span: u64) -> u64 {
    ((u128::from(word) * u128::from(span)) >> 64) as u64
}

/// High-level sampling methods (mirror of `rand::Rng`).
pub trait Rng: RngCore {
    /// Draw a value of type `T` from the standard distribution.
    #[inline]
    fn gen<T: StandardSample>(&mut self) -> T {
        T::sample(self)
    }

    /// Bernoulli draw with probability `p` of `true`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p), "gen_bool p out of range: {p}");
        f64::sample(self) < p
    }

    /// Uniform draw from an integer or float range.
    #[inline]
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample_from(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Named generators (mirror of `rand::rngs`).
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic xoshiro256++ generator standing in for `rand::rngs::StdRng`.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl StdRng {
        #[inline]
        fn rotl(x: u64, k: u32) -> u64 {
            x.rotate_left(k)
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // splitmix64 expansion, the canonical xoshiro seeding routine.
            let mut sm = seed;
            let mut next = || {
                sm = sm.wrapping_add(0x9e3779b97f4a7c15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let result = Self::rotl(self.s[0].wrapping_add(self.s[3]), 23).wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = Self::rotl(self.s[3], 45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn equal_seeds_equal_streams() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn unit_float_in_range() {
        let mut r = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let u: f64 = r.gen();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut r = StdRng::seed_from_u64(4);
        for _ in 0..10_000 {
            let x = r.gen_range(3u32..17);
            assert!((3..17).contains(&x));
            let y = r.gen_range(5usize..=9);
            assert!((5..=9).contains(&y));
            let f = r.gen_range(-1.0f64..1.0);
            assert!((-1.0..1.0).contains(&f));
        }
    }

    #[test]
    fn gen_bool_probability_is_plausible() {
        let mut r = StdRng::seed_from_u64(5);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.3)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.3).abs() < 0.01, "frac {frac}");
    }

    #[test]
    fn uniformity_over_buckets() {
        let mut r = StdRng::seed_from_u64(6);
        let mut buckets = [0u32; 10];
        for _ in 0..100_000 {
            buckets[r.gen_range(0usize..10)] += 1;
        }
        for &b in &buckets {
            assert!((8_000..12_000).contains(&b), "bucket {b}");
        }
    }

    #[test]
    fn generic_unsized_rng_usable() {
        fn sample_dyn(rng: &mut (impl super::RngCore + ?Sized)) -> f64 {
            rng.gen()
        }
        let mut r = StdRng::seed_from_u64(8);
        let v = sample_dyn(&mut r);
        assert!((0.0..1.0).contains(&v));
    }
}
