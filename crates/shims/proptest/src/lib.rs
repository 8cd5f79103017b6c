//! Offline shim for the `proptest` crate.
//!
//! Implements the subset of the proptest 1.x API used by this workspace's
//! property tests: range / `any` / `Just` / collection strategies, the
//! `prop_map` / `prop_recursive` combinators, and the `proptest!`,
//! `prop_compose!`, `prop_oneof!`, `prop_assert*!`, `prop_assume!` macros.
//!
//! Differences from the real crate, deliberate for an offline shim:
//! - no shrinking: a failing case panics with the assertion message, and the
//!   deterministic per-test RNG makes every failure reproducible;
//! - string strategies approximate the regex (`"\\PC{0,120}"`-style patterns
//!   honour the repetition count and draw printable characters);
//! - rejection via `prop_assume!` retries the case, with a cap to keep
//!   heavily-filtered tests from spinning forever.

use std::rc::Rc;

pub mod test_runner {
    use std::hash::{Hash, Hasher};

    /// Deterministic per-test random source (splitmix64).
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds the generator from the fully-qualified test name so each
        /// test sees a stable, independent stream.
        pub fn from_name(name: &str) -> TestRng {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            name.hash(&mut h);
            TestRng {
                state: h.finish() | 1,
            }
        }

        /// Next 64 uniformly random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform f64 in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// Uniform u64 in `[0, n)`; `n` must be non-zero.
        pub fn below(&mut self, n: u64) -> u64 {
            debug_assert!(n > 0);
            let zone = u64::MAX - (u64::MAX - n + 1) % n;
            loop {
                let v = self.next_u64();
                if v <= zone {
                    return v % n;
                }
            }
        }
    }

    /// Why a test case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// The case was vetoed by `prop_assume!`; it is retried.
        Reject(String),
        /// An assertion failed; the test panics with this message.
        Fail(String),
    }

    /// Runner configuration (`proptest::test_runner::Config` subset).
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of successful cases required per test.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    impl ProptestConfig {
        /// Configuration requiring `cases` successful cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    /// Drives one property test: draws cases until `cases` succeed,
    /// retrying rejected cases (bounded) and panicking on failure.
    pub fn run_cases(
        config: &ProptestConfig,
        name: &str,
        mut case: impl FnMut(&mut TestRng) -> Result<(), TestCaseError>,
    ) {
        let mut rng = TestRng::from_name(name);
        let mut passed = 0u32;
        let mut attempts = 0u64;
        let max_attempts = (config.cases as u64).saturating_mul(20).max(1000);
        while passed < config.cases {
            attempts += 1;
            match case(&mut rng) {
                Ok(()) => passed += 1,
                Err(TestCaseError::Reject(why)) => {
                    if attempts >= max_attempts {
                        panic!(
                            "{name}: too many prop_assume! rejections \
                             ({passed}/{} cases passed; last: {why})",
                            config.cases
                        );
                    }
                }
                Err(TestCaseError::Fail(msg)) => {
                    panic!("{name}: property failed after {passed} passing cases\n{msg}")
                }
            }
        }
    }
}

use test_runner::TestRng;

/// A generator of values of type `Self::Value`.
///
/// Unlike the real crate there is no value tree / shrinking; a strategy is
/// just a cloneable recipe for drawing one value from a [`TestRng`].
pub trait Strategy: Clone {
    /// The type of value produced.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Value) -> U,
    {
        Map {
            inner: self,
            f: Rc::new(f),
        }
    }

    /// Builds recursive values: `recurse` receives a strategy for the
    /// current level and returns the strategy for the next. Leaves and
    /// branches are mixed evenly at every level, up to `depth` levels.
    fn prop_recursive<F, S>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: 'static,
        Self::Value: 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> S,
        S: Strategy<Value = Self::Value> + 'static,
    {
        let mut current = self.clone().boxed();
        for _ in 0..depth {
            let leaf = self.clone().boxed();
            let branch = recurse(current).boxed();
            current = BoxedStrategy::from_fn(move |rng| {
                if rng.next_u64() & 1 == 0 {
                    leaf.generate(rng)
                } else {
                    branch.generate(rng)
                }
            });
        }
        current
    }

    /// Erases the strategy type.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: 'static,
        Self::Value: 'static,
    {
        let this = self;
        BoxedStrategy::from_fn(move |rng| this.generate(rng))
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<T> {
    gen_fn: Rc<dyn Fn(&mut TestRng) -> T>,
}

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy {
            gen_fn: Rc::clone(&self.gen_fn),
        }
    }
}

impl<T> BoxedStrategy<T> {
    /// Wraps a drawing function as a strategy.
    pub fn from_fn(f: impl Fn(&mut TestRng) -> T + 'static) -> Self {
        BoxedStrategy { gen_fn: Rc::new(f) }
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        (self.gen_fn)(rng)
    }
}

/// `prop_map` adapter.
pub struct Map<S, F> {
    inner: S,
    f: Rc<F>,
}

impl<S: Clone, F> Clone for Map<S, F> {
    fn clone(&self) -> Self {
        Map {
            inner: self.inner.clone(),
            f: Rc::clone(&self.f),
        }
    }
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

/// Strategy that always yields a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between same-valued strategies (`prop_oneof!` backend).
pub struct OneOf<T> {
    arms: Rc<[BoxedStrategy<T>]>,
}

impl<T> Clone for OneOf<T> {
    fn clone(&self) -> Self {
        OneOf {
            arms: Rc::clone(&self.arms),
        }
    }
}

impl<T> OneOf<T> {
    /// Builds from the already-boxed arms; must be non-empty.
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        OneOf { arms: arms.into() }
    }
}

impl<T> Strategy for OneOf<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.arms.len() as u64) as usize;
        self.arms[i].generate(rng)
    }
}

// ---- Range strategies ----------------------------------------------------

impl Strategy for std::ops::Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty f64 range strategy");
        let v = self.start + rng.unit_f64() * (self.end - self.start);
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty integer range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }

        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty integer range strategy");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + rng.below(span + 1) as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(i8, i16, i32, i64, isize, u8, u16, u32, usize);

// u64 ranges need widening through u128 instead of i128.
impl Strategy for std::ops::Range<u64> {
    type Value = u64;

    fn generate(&self, rng: &mut TestRng) -> u64 {
        assert!(self.start < self.end, "empty integer range strategy");
        self.start + rng.below(self.end - self.start)
    }
}

impl Strategy for std::ops::RangeInclusive<u64> {
    type Value = u64;

    fn generate(&self, rng: &mut TestRng) -> u64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty integer range strategy");
        if hi - lo == u64::MAX {
            return rng.next_u64();
        }
        lo + rng.below(hi - lo + 1)
    }
}

// ---- `any::<T>()` --------------------------------------------------------

/// Types with a canonical full-domain strategy.
pub trait Arbitrary: Sized {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

arbitrary_int!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Mostly finite values across magnitudes, with occasional specials.
        match rng.below(16) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => 0.0,
            _ => {
                let mag = (rng.unit_f64() * 600.0 - 300.0).exp2();
                if rng.next_u64() & 1 == 0 {
                    mag
                } else {
                    -mag
                }
            }
        }
    }
}

impl Arbitrary for f32 {
    fn arbitrary(rng: &mut TestRng) -> f32 {
        f64::arbitrary(rng) as f32
    }
}

/// Strategy produced by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T> Clone for Any<T> {
    fn clone(&self) -> Self {
        Any(std::marker::PhantomData)
    }
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Full-domain strategy for `T` (`proptest::arbitrary::any` subset).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

// ---- String pattern strategies -------------------------------------------

/// A `&str` used as a strategy is treated as a loose regex: a trailing
/// `{lo,hi}` repetition is honoured and characters are drawn from the
/// printable range (the workspace only uses `"\\PC{0,120}"`-style patterns
/// as fuzz input, so character-class fidelity is not required).
impl Strategy for &'static str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let (lo, hi) = parse_repetition(self).unwrap_or((0, 64));
        let len = lo + rng.below((hi - lo + 1) as u64) as usize;
        let mut out = String::with_capacity(len);
        for _ in 0..len {
            // ~1 in 8 characters from beyond ASCII to exercise multi-byte
            // handling; the rest printable ASCII.
            let c = if rng.below(8) == 0 {
                char::from_u32(0xA1 + rng.below(0x2000) as u32).unwrap_or('\u{00E9}')
            } else {
                (0x20 + rng.below(0x5F) as u8) as char
            };
            out.push(c);
        }
        out
    }
}

fn parse_repetition(pattern: &str) -> Option<(usize, usize)> {
    let body = pattern.strip_suffix('}')?;
    let brace = body.rfind('{')?;
    let (lo, hi) = body[brace + 1..].split_once(',')?;
    let lo = lo.trim().parse().ok()?;
    let hi = hi.trim().parse().ok()?;
    (lo <= hi).then_some((lo, hi))
}

// ---- Collections ---------------------------------------------------------

/// Collection strategies (`proptest::collection` subset).
pub mod collection {
    use super::{Strategy, TestRng};

    /// Vec strategy with uniformly drawn length.
    pub struct VecStrategy<S> {
        element: S,
        lo: usize,
        hi_excl: usize,
    }

    impl<S: Clone> Clone for VecStrategy<S> {
        fn clone(&self) -> Self {
            VecStrategy {
                element: self.element.clone(),
                lo: self.lo,
                hi_excl: self.hi_excl,
            }
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.lo + rng.below((self.hi_excl - self.lo) as u64) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Vectors of `element` with length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: std::ops::Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty vec size range");
        VecStrategy {
            element,
            lo: size.start,
            hi_excl: size.end,
        }
    }
}

// ---- Macros --------------------------------------------------------------

/// Declares property tests (subset of `proptest::proptest!`).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr)
      $(
        $(#[$meta:meta])*
        fn $name:ident ( $($field:ident in $strat:expr),+ $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                $crate::test_runner::run_cases(
                    &config,
                    concat!(module_path!(), "::", stringify!($name)),
                    |__shim_rng| {
                        $(let $field = $crate::Strategy::generate(&($strat), __shim_rng);)+
                        $body
                        Ok(())
                    },
                );
            }
        )*
    };
}

/// Defines a function returning a composed strategy
/// (subset of `proptest::prop_compose!`).
#[macro_export]
macro_rules! prop_compose {
    (
        $(#[$meta:meta])*
        $vis:vis fn $name:ident ( $($arg:ident : $argty:ty),* $(,)? )
                 ( $($field:ident in $strat:expr),+ $(,)? )
                 -> $ret:ty $body:block
    ) => {
        $(#[$meta])*
        $vis fn $name($($arg: $argty),*) -> $crate::BoxedStrategy<$ret> {
            $(let $field = $crate::Strategy::boxed($strat);)+
            $crate::BoxedStrategy::from_fn(move |__shim_rng| {
                $(let $field = $crate::Strategy::generate(&$field, __shim_rng);)+
                $body
            })
        }
    };
}

/// Uniform choice among strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("prop_assert failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::Fail(format!(
                "{} at {}:{}",
                format_args!($($fmt)+),
                file!(),
                line!()
            )));
        }
    };
}

/// Fails the current case unless the operands compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "prop_assert_eq failed: `{}` == `{}`\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            __l,
            __r
        );
    }};
}

/// Fails the current case if the operands compare equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l != *__r,
            "prop_assert_ne failed: `{}` != `{}`\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            __l
        );
    }};
}

/// Rejects (retries) the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::Reject(
                concat!("assume failed: ", stringify!($cond)).to_string(),
            ));
        }
    };
}

/// One-stop imports mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_compose, prop_oneof,
        proptest, Arbitrary, BoxedStrategy, Just, Strategy,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    prop_compose! {
        fn pair()(a in 0i32..10, b in 0i32..10) -> (i32, i32) {
            (a, b)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_in_bounds(x in 1usize..7, y in -1i32..=1, f in 0.0..500.0f64) {
            prop_assert!((1..7).contains(&x));
            prop_assert!((-1..=1).contains(&y));
            prop_assert!((0.0..500.0).contains(&f));
        }

        #[test]
        fn vec_lengths(v in crate::collection::vec(0i64..5, 2..9)) {
            prop_assert!(v.len() >= 2 && v.len() < 9);
            prop_assert!(v.iter().all(|&x| (0..5).contains(&x)));
        }

        #[test]
        fn composed_and_oneof(p in pair(), pick in prop_oneof![Just(1i32), Just(2i32)]) {
            prop_assert!((0..10).contains(&p.0));
            prop_assert_ne!(pick, 3);
            prop_assert_eq!(pick == 1 || pick == 2, true);
        }

        #[test]
        fn string_pattern_len(s in "\\PC{0,120}") {
            prop_assert!(s.chars().count() <= 120);
        }

        #[test]
        fn assume_retries(n in 0i32..100) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }
    }

    #[test]
    fn recursive_terminates() {
        #[derive(Clone, Debug)]
        enum Tree {
            Leaf(i32),
            Node(Vec<Tree>),
        }
        let strat = (0i32..10)
            .prop_map(Tree::Leaf)
            .boxed()
            .prop_recursive(3, 24, 4, |inner| {
                crate::collection::vec(inner, 0..4).prop_map(Tree::Node)
            });
        // Node levels above the leaves; every leaf and fan-out is in range.
        fn depth(t: &Tree) -> u32 {
            match t {
                Tree::Leaf(v) => {
                    assert!((0..10).contains(v));
                    0
                }
                Tree::Node(kids) => {
                    assert!(kids.len() < 4);
                    1 + kids.iter().map(depth).max().unwrap_or(0)
                }
            }
        }
        let mut rng = crate::test_runner::TestRng::from_name("recursive_terminates");
        let deepest = (0..200)
            .map(|_| depth(&strat.generate(&mut rng)))
            .max()
            .unwrap();
        assert!((1..=3).contains(&deepest), "depth {deepest} outside 1..=3");
    }

    #[test]
    #[should_panic(expected = "property failed")]
    fn failing_assert_panics() {
        let config = ProptestConfig::with_cases(4);
        crate::test_runner::run_cases(&config, "failing_assert_panics", |_rng| {
            prop_assert_eq!(1 + 1, 3);
            Ok(())
        });
    }
}
