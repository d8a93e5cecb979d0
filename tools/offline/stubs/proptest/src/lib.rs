//! Offline stand-in for `proptest` 1.x, covering what this repository's
//! tests use: range / tuple / `Just` / `any` / `collection::vec` strategies,
//! `prop_map` / `prop_flat_map` / `boxed`, `prop_oneof!`, the `prop_assert*`
//! family and the `proptest!` test macro with an optional
//! `#![proptest_config(..)]`.
//!
//! Cases are drawn from a splitmix64 stream seeded by the test's name and the
//! case number, so a run repeats exactly. There is no shrinking and no
//! failure persistence: a failing case panics with its number.

pub mod test_runner {
    /// The `ProptestConfig` of the real crate, as far as tests set it.
    #[derive(Debug, Clone)]
    pub struct Config {
        pub cases: u32,
        pub failure_persistence: Option<()>,
    }

    impl Default for Config {
        fn default() -> Self {
            Self { cases: 256, failure_persistence: None }
        }
    }

    /// Why a case stopped: an assertion failed, or `prop_assume!` skipped it.
    #[derive(Debug)]
    pub enum TestCaseError {
        Fail(String),
        Reject,
    }

    /// splitmix64.
    pub struct TestRng(pub u64);

    impl TestRng {
        pub fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `0..n` (`n > 0`).
        pub fn below(&mut self, n: u64) -> u64 {
            ((self.next_u64() as u128 * n as u128) >> 64) as u64
        }

        /// Uniform in `[0, 1)`.
        pub fn unit(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    /// Run `case` `cfg.cases` times; panic on the first failing one.
    pub fn run_cases(
        cfg: &Config,
        name: &str,
        mut case: impl FnMut(&mut TestRng) -> Result<(), TestCaseError>,
    ) {
        // FNV-1a of the test name keeps the streams of two tests apart.
        let seed = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        for i in 0..cfg.cases as u64 {
            let mut rng = TestRng(seed ^ i.wrapping_mul(0xa076_1d64_78bd_642f));
            if let Err(TestCaseError::Fail(msg)) = case(&mut rng) {
                panic!("{name}: case {i} of {} failed: {msg}", cfg.cases);
            }
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for random values.
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map(self, f)
        }

        fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap(self, f)
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(self))
        }
    }

    pub struct BoxedStrategy<T>(Box<dyn Strategy<Value = T>>);

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.generate(rng)
        }
    }

    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    pub struct Map<S, F>(S, F);

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.1)(self.0.generate(rng))
        }
    }

    pub struct FlatMap<S, F>(S, F);

    impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
        type Value = T::Value;
        fn generate(&self, rng: &mut TestRng) -> T::Value {
            (self.1)(self.0.generate(rng)).generate(rng)
        }
    }

    /// One of several strategies, picked uniformly (`prop_oneof!`).
    pub struct Union<T>(pub Vec<BoxedStrategy<T>>);

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0[rng.below(self.0.len() as u64) as usize].generate(rng)
        }
    }

    macro_rules! int_ranges {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start() <= self.end(), "empty range strategy");
                    let span = (*self.end() as i128 - *self.start() as i128) as u64;
                    let step = if span == u64::MAX { rng.next_u64() } else { rng.below(span + 1) };
                    (*self.start() as i128 + step as i128) as $t
                }
            }
        )*};
    }
    int_ranges!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! float_ranges {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let v = self.start + (self.end - self.start) * rng.unit() as $t;
                    if v < self.end { v } else { self.start }
                }
            }
        )*};
    }
    float_ranges!(f32, f64);

    macro_rules! tuples {
        ($(($($s:ident $i:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$i.generate(rng),)+)
                }
            }
        )*};
    }
    tuples! {
        (A 0)
        (A 0, B 1)
        (A 0, B 1, C 2)
        (A 0, B 1, C 2, D 3)
        (A 0, B 1, C 2, D 3, E 4)
        (A 0, B 1, C 2, D 3, E 4, F 5)
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    pub trait Arbitrary {
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

    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Inclusive length bounds of a generated collection.
    pub struct SizeRange(usize, usize);

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange(n, n)
        }
    }
    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange(r.start, r.end - 1)
        }
    }
    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange(*r.start(), *r.end())
        }
    }

    pub struct VecStrategy<S>(S, SizeRange);

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let SizeRange(lo, hi) = self.1;
            let len = lo + rng.below((hi - lo + 1) as u64) as usize;
            (0..len).map(|_| self.0.generate(rng)).collect()
        }
    }

    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy(element, size.into())
    }
}

pub mod prelude {
    pub use crate as prop;
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::test_runner::TestCaseError;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::Union(vec![$($crate::strategy::Strategy::boxed($s)),+])
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(*a == *b, "{} != {}: {:?} vs {:?}", stringify!($a), stringify!($b), a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(*a == *b, "{:?} != {:?}: {}", a, b, format!($($fmt)+));
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(*a != *b, "{} == {}: {:?}", stringify!($a), stringify!($b), a);
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(*a != *b, "{:?} == {:?}: {}", a, b, format!($($fmt)+));
    }};
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($fmt:tt)*)?) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::test_runner::Config::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strategy:expr),* $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::test_runner::Config = $cfg;
            $crate::test_runner::run_cases(&cfg, stringify!($name), |rng| {
                $(let $arg = $crate::strategy::Strategy::generate(&$strategy, rng);)*
                let case = || -> Result<(), $crate::test_runner::TestCaseError> {
                    $body
                    Ok(())
                };
                case()
            });
        }
    )*};
}
