//! Offline stand-in for the `proptest` crate.
//!
//! The build container cannot reach crates.io, so this in-tree crate
//! shadows `proptest` with the subset of its API the workspace uses:
//! the [`proptest!`] macro, the [`Strategy`] trait with `prop_map` /
//! `prop_filter` / `prop_filter_map`, integer-range and tuple strategies,
//! [`prop::collection::vec`], [`prop::bool::ANY`], and the
//! `prop_assert*` macros.
//!
//! Differences from the real crate, deliberately accepted:
//!
//! * **No shrinking.** A failing case reports the exact generated inputs
//!   (they are printed in the panic message and reproducible — see below),
//!   but no minimization pass runs.
//! * **Determinism instead of entropy.** Case `i` of test `t` is generated
//!   from a seed derived from `(t, i)`, so a failure reproduces exactly on
//!   re-run — there is no `PROPTEST_` environment handling and no
//!   regressions file.
//!
//! Neither difference weakens the tests as *checks*; they only make
//! failures slightly less convenient to debug than upstream proptest.

use std::fmt;

pub mod strategy;

pub use strategy::{Just, Strategy};

/// Deterministic per-test RNG handed to strategies.
pub struct TestRng(rand::rngs::SmallRng);

impl TestRng {
    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        use rand::RngCore;
        self.0.next_u64()
    }

    /// A uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        use rand::Rng;
        self.0.gen_f64()
    }

    /// A uniform index in `[0, n)`; `n` must be positive.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        use rand::Rng;
        self.0.gen_range(0..n)
    }
}

/// Builds the deterministic RNG for case `case` of test `name`.
pub fn test_rng(name: &str, case: u32) -> TestRng {
    use rand::SeedableRng;
    // FNV-1a over the test name, mixed with the case index.
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    TestRng(rand::rngs::SmallRng::seed_from_u64(
        h ^ ((case as u64).wrapping_mul(0x9e3779b97f4a7c15)),
    ))
}

/// Per-`proptest!`-block configuration.
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of random cases per test function.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// How many times a case is re-drawn when a `prop_filter`/`prop_filter_map`
/// or a `prop_assume!` rejects, before the harness gives up.
pub const MAX_REJECTS: u32 = 10_000;

/// Why a case body did not succeed.
pub enum TestCaseError {
    /// `prop_assume!` rejected the inputs: redraw, don't fail.
    Reject,
    /// A `prop_assert*` failed.
    Fail(String),
}

/// Runs the generate-with-retries loop for one case (`salt` differentiates
/// redraws after `prop_assume!` rejections). Panics (failing the test) when
/// the strategies reject every draw.
pub fn generate_case<S: Strategy>(strat: &S, name: &str, case: u32, salt: u32) -> S::Value {
    for attempt in 0..MAX_REJECTS {
        let mut rng = test_rng(
            name,
            case.wrapping_add(salt.wrapping_mul(0x85eb))
                .wrapping_add(attempt.wrapping_mul(0x9e37)),
        );
        if let Some(v) = strat.generate(&mut rng) {
            return v;
        }
    }
    panic!("{name}: strategy rejected {MAX_REJECTS} consecutive draws (case {case})");
}

/// Debug-formats the failing inputs for the panic message.
pub fn format_inputs(parts: &[(&str, &dyn fmt::Debug)]) -> String {
    parts
        .iter()
        .map(|(n, v)| format!("{n} = {v:?}"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// The `prop::` namespace (`prop::collection::vec`, `prop::bool::ANY`).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        pub use crate::strategy::{vec, SizeRange, VecStrategy};
    }
    /// Boolean strategies.
    pub mod bool {
        /// Either boolean, uniformly.
        pub const ANY: crate::strategy::BoolAny = crate::strategy::BoolAny;
    }
    /// Numeric strategies (ranges implement `Strategy` directly).
    pub mod num {}
}

/// Everything a test file needs.
pub mod prelude {
    pub use crate::prop;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Just, ProptestConfig,
        Strategy,
    };
}

/// Defines property tests.
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn my_prop(x in 0usize..10, v in prop::collection::vec(0..100u32, 3)) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!{ ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident ( $( $arg:ident in $strat:expr ),* $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let strategies = ( $( $strat, )* );
            'cases: for case in 0..config.cases {
                let mut rejects = 0u32;
                loop {
                    let ( $( $arg, )* ) =
                        $crate::generate_case(&strategies, stringify!($name), case, rejects);
                    let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    match outcome {
                        ::std::result::Result::Ok(()) => continue 'cases,
                        ::std::result::Result::Err($crate::TestCaseError::Reject) => {
                            rejects += 1;
                            if rejects > $crate::MAX_REJECTS {
                                panic!(
                                    "{}: prop_assume! rejected {} consecutive draws (case {case})",
                                    stringify!($name), $crate::MAX_REJECTS,
                                );
                            }
                        }
                        ::std::result::Result::Err($crate::TestCaseError::Fail(msg)) => {
                            panic!(
                                "proptest case {case} of {} failed: {msg}\ninputs: {}",
                                stringify!($name),
                                $crate::format_inputs(&[ $( (stringify!($arg), &$arg as &dyn ::std::fmt::Debug), )* ]),
                            );
                        }
                    }
                }
            }
        }
        $crate::__proptest_fns!{ ($cfg) $($rest)* }
    };
}

/// Asserts a condition inside a [`proptest!`] body (fails the case,
/// reporting the generated inputs).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(
                format!("assertion failed: {}", stringify!($cond))));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        if !(a == b) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(
                format!("assertion failed: {a:?} == {b:?}")));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if !(a == b) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    }};
}

/// Rejects the current case without failing it (the harness redraws).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

/// Asserts inequality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        if a == b {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {a:?} != {b:?}"
            )));
        }
    }};
}
