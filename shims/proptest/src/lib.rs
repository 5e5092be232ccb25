//! Offline stand-in for the subset of the `proptest` crate this workspace
//! uses.
//!
//! The build environment has no access to crates.io, so this local crate
//! re-implements the pieces the workspace's property tests consume: the
//! [`proptest!`] macro, `prop_assert!`/`prop_assert_eq!`, range/tuple
//! strategies, [`collection::vec`], [`option::of`], [`any`] over `u8`
//! and `bool`, and [`ProptestConfig::with_cases`].
//!
//! Semantics: each generated test runs `cases` random samples seeded
//! deterministically from the test name and case index (no shrinking —
//! failures report the panic from the failing case directly). That keeps
//! the tests reproducible across runs and platforms, which is what the
//! workspace relies on.

use std::ops::{Range, RangeInclusive};

pub use rand::rngs::StdRng;
pub use rand::SeedableRng;
use rand::{Rng as _, RngCore as _};

/// Runner configuration (mirror of `proptest::test_runner::Config`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// A source of random values of an associated type.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draw one value.
    fn sample(&self, rng: &mut StdRng) -> Self::Value;
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u32, u64, usize, f64);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn sample(&self, rng: &mut StdRng) -> Self::Value {
                #[allow(non_snake_case, reason = "the tuple's type parameters name its fields")]
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);

/// Types with a canonical full-domain strategy (mirror of `Arbitrary`).
pub trait Arbitrary: Sized {
    /// Draw one value from the type's full domain.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut StdRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for u8 {
    fn arbitrary(rng: &mut StdRng) -> u8 {
        rng.next_u64() as u8
    }
}

/// Full-domain strategy for `T` (mirror of `proptest::arbitrary::any`).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Strategy returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

/// Size bound for collection strategies (mirror of `SizeRange`).
#[derive(Debug, Clone)]
pub struct SizeRange {
    lo: usize,
    hi: usize,
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            lo: r.start,
            hi: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        SizeRange {
            lo: *r.start(),
            hi: *r.end(),
        }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n }
    }
}

impl SizeRange {
    fn sample(&self, rng: &mut StdRng) -> usize {
        rng.gen_range(self.lo..=self.hi)
    }
}

/// Collection strategies (mirror of `proptest::collection`).
pub mod collection {
    use super::{SizeRange, StdRng, Strategy};

    /// `Vec` of values from `element`, length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = self.size.sample(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Option strategies (mirror of `proptest::option`).
pub mod option {
    use super::{StdRng, Strategy};
    use rand::Rng as _;

    /// `Option<T>`: `None` one quarter of the time (the real crate's default
    /// weighting is also biased toward `Some`).
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// Strategy returned by [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn sample(&self, rng: &mut StdRng) -> Option<S::Value> {
            if rng.gen_bool(0.25) {
                None
            } else {
                Some(self.inner.sample(rng))
            }
        }
    }
}

/// Everything the workspace's tests import.
pub mod prelude {
    pub use crate::{any, prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy};
}

/// Deterministic per-test seed: FNV-1a over the test's name.
pub fn seed_for(name: &str, case: u64) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h ^ case.wrapping_mul(0x9e3779b97f4a7c15)
}

/// Property assertion: panics with context on failure.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond);
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*);
    };
}

/// Property equality assertion: panics with context on failure.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        assert_eq!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_eq!($a, $b, $($fmt)*);
    };
}

/// The property-test macro: each contained `fn name(arg in strategy, ...)`
/// becomes a `#[test]` running `cases` deterministic random samples.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$attr:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$attr])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            for case in 0..config.cases {
                let mut __rng = <$crate::StdRng as $crate::SeedableRng>::seed_from_u64(
                    $crate::seed_for(concat!(module_path!(), "::", stringify!($name)), case as u64),
                );
                $(let $arg = $crate::Strategy::sample(&($strat), &mut __rng);)+
                $body
            }
        }
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u32..10, y in 0.0f64..=1.0, z in 1usize..4) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((0.0..=1.0).contains(&y));
            prop_assert!((1..4).contains(&z));
        }

        #[test]
        fn vec_of_tuples_sized(v in crate::collection::vec((0u8..4, 0u32..40), 1..30)) {
            prop_assert!(!v.is_empty() && v.len() < 30);
            for (a, b) in v {
                prop_assert!(a < 4 && b < 40);
            }
        }

        #[test]
        fn option_of_samples_the_inner_strategy(o in crate::option::of((0u8..4, any::<bool>()))) {
            prop_assert!(o.is_none_or(|(a, _)| a < 4));
        }
    }

    #[test]
    fn seeds_are_stable_and_name_dependent() {
        assert_eq!(super::seed_for("a", 0), super::seed_for("a", 0));
        assert_ne!(super::seed_for("a", 0), super::seed_for("b", 0));
        assert_ne!(super::seed_for("a", 0), super::seed_for("a", 1));
    }
}
