//! Offline drop-in subset of the [proptest](https://crates.io/crates/proptest)
//! property-testing API.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors the small slice of proptest it actually uses:
//! deterministic pseudo-random generation of test inputs from composable
//! [`Strategy`] values, the [`proptest!`] test-harness macro, and the
//! `prop_assert*` assertion macros. Shrinking of failing inputs is
//! intentionally not implemented — on failure the panic message reports the
//! case number and per-run seed so a failure reproduces exactly.

#![warn(missing_docs)]

use std::cell::RefCell;
use std::ops::{Range, RangeInclusive};

/// Deterministic splitmix64 generator driving all strategies.
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "below(0) is meaningless");
        // Multiply-shift reduction; bias is irrelevant for test generation.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// A recipe for generating values of one type.
///
/// This mirrors proptest's `Strategy` trait with generation only (no
/// shrink tree): a strategy is anything that can produce a `Value` from
/// the deterministic [`TestRng`].
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f` (proptest's `prop_map`).
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
#[derive(Clone, Debug)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Types with a canonical "any value" strategy (proptest's `Arbitrary`).
pub trait Arbitrary: Sized {
    /// Generates an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_ints {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
arbitrary_ints!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy generating any value of `T` (see [`any`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for an unconstrained value of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

macro_rules! range_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + rng.below(span) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi - lo) as u64 + 1;
                lo + rng.below(span) as $t
            }
        }
    )*};
}
range_strategies!(u8, u16, u32, u64, usize);

macro_rules! tuple_strategies {
    ($(($($s:ident $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}
tuple_strategies! {
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
}

/// A bounded size specification for collection strategies.
#[derive(Clone, Debug)]
pub struct SizeRange {
    lo: usize,
    hi: usize, // inclusive
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> SizeRange {
        SizeRange { lo: n, hi: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> SizeRange {
        assert!(r.start < r.end, "empty collection size range");
        SizeRange {
            lo: r.start,
            hi: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> SizeRange {
        assert!(r.start() <= r.end(), "empty collection size range");
        SizeRange {
            lo: *r.start(),
            hi: *r.end(),
        }
    }
}

impl SizeRange {
    fn sample(&self, rng: &mut TestRng) -> usize {
        self.lo + rng.below((self.hi - self.lo) as u64 + 1) as usize
    }
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{SizeRange, Strategy, TestRng};
    use std::collections::BTreeSet;

    /// Strategy for `Vec<T>` with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy for `BTreeSet<T>` with a target size drawn from `size`.
    ///
    /// As in proptest, duplicate elements are retried a bounded number of
    /// times, so the resulting set may be smaller than the sampled target
    /// when the element domain is nearly exhausted.
    pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy returned by [`vec()`].
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.sample(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Strategy returned by [`btree_set`].
    #[derive(Clone, Debug)]
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let target = self.size.sample(rng);
            let mut out = BTreeSet::new();
            let mut attempts = 0usize;
            while out.len() < target && attempts < target * 16 + 16 {
                out.insert(self.element.generate(rng));
                attempts += 1;
            }
            out
        }
    }
}

/// Configuration for a [`proptest!`] block.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// A configuration running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

thread_local! {
    static CURRENT_CASE: RefCell<Option<(u64, u32)>> = const { RefCell::new(None) };
}

/// Runs one property under the harness; used by the [`proptest!`] macro.
///
/// Not part of the public proptest API — do not call directly.
#[doc(hidden)]
pub fn run_property(name: &str, config: &ProptestConfig, mut case: impl FnMut(&mut TestRng)) {
    // Stable per-property seed: FNV-1a of the property name.
    let mut seed: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        seed ^= b as u64;
        seed = seed.wrapping_mul(0x0000_0100_0000_01b3);
    }
    for i in 0..config.cases {
        let case_seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1));
        CURRENT_CASE.with(|c| *c.borrow_mut() = Some((case_seed, i)));
        let mut rng = TestRng::new(case_seed);
        case(&mut rng);
    }
    CURRENT_CASE.with(|c| *c.borrow_mut() = None);
}

/// Formats failure context (case number and seed) for `prop_assert*`.
#[doc(hidden)]
pub fn failure_context() -> String {
    CURRENT_CASE.with(|c| match *c.borrow() {
        Some((seed, i)) => format!(" [case {i}, seed {seed:#x}]"),
        None => String::new(),
    })
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// item expands to a `#[test]` that runs the body over generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Expansion helper for [`proptest!`]; not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            $crate::run_property(stringify!($name), &config, |rng| {
                $(let $arg = $crate::Strategy::generate(&($strat), rng);)+
                // A Result-returning closure so property bodies may use
                // `return Ok(());` for early exit, as with real proptest.
                let body = move || -> ::core::result::Result<(), ::std::string::String> {
                    $body
                    ::core::result::Result::Ok(())
                };
                if let ::core::result::Result::Err(e) = body() {
                    panic!("property failed: {}{}", e, $crate::failure_context());
                }
            });
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

/// Asserts a condition inside a property, reporting the failing case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond, "property failed: {}{}", stringify!($cond), $crate::failure_context())
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, "{}{}", format!($($fmt)*), $crate::failure_context())
    };
}

/// Asserts equality inside a property, reporting the failing case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {
        assert_eq!($a, $b, "property failed{}", $crate::failure_context())
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_eq!($a, $b, "{}{}", format!($($fmt)*), $crate::failure_context())
    };
}

/// Asserts inequality inside a property, reporting the failing case.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {
        assert_ne!($a, $b, "property failed{}", $crate::failure_context())
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_ne!($a, $b, "{}{}", format!($($fmt)*), $crate::failure_context())
    };
}

/// The common imports of a proptest test module.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary, ProptestConfig,
        Strategy,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn ranges_stay_in_bounds(a in 3usize..9, b in 1u32..=4, c in any::<bool>()) {
            prop_assert!((3..9).contains(&a));
            prop_assert!((1..=4).contains(&b));
            let _ = c;
        }

        #[test]
        fn collections_respect_sizes(
            v in crate::collection::vec(0u64..10, 2..5),
            s in crate::collection::btree_set(0u32..100, 1..=3),
        ) {
            prop_assert!(v.len() >= 2 && v.len() < 5);
            prop_assert!(v.iter().all(|&x| x < 10));
            prop_assert!(!s.is_empty() && s.len() <= 3);
        }
    }

    #[test]
    fn determinism_across_runs() {
        let mut r1 = crate::TestRng::new(42);
        let mut r2 = crate::TestRng::new(42);
        for _ in 0..100 {
            assert_eq!(r1.next_u64(), r2.next_u64());
        }
    }

    #[test]
    fn prop_map_applies() {
        let strat = (0u32..10).prop_map(|x| x * 2);
        let mut rng = crate::TestRng::new(7);
        for _ in 0..50 {
            let v = strat.generate(&mut rng);
            assert!(v % 2 == 0 && v < 20);
        }
    }
}
