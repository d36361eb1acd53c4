//! The [`Strategy`] trait and the combinators/primitive strategies the
//! workspace uses.

use crate::TestRng;

/// A recipe for generating random values.
///
/// `generate` returns `None` when a filter rejects the draw; the harness
/// retries the whole case with a fresh RNG stream (bounded by
/// [`crate::MAX_REJECTS`]).
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value, or `None` on filter rejection.
    fn generate(&self, rng: &mut TestRng) -> Option<Self::Value>;

    /// Transforms generated values.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Rejects values failing the predicate (`reason` is documentation).
    fn prop_filter<F>(self, reason: impl Into<String>, f: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        let _ = reason.into();
        Filter { inner: self, f }
    }

    /// Combined filter + map: `None` rejects the draw.
    fn prop_filter_map<O, F>(self, reason: impl Into<String>, f: F) -> FilterMap<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> Option<O>,
    {
        let _ = reason.into();
        FilterMap { inner: self, f }
    }
}

/// Every reference to a strategy is a strategy.
impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Option<Self::Value> {
        (**self).generate(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> Option<O> {
        self.inner.generate(rng).map(&self.f)
    }
}

/// See [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
        self.inner.generate(rng).filter(|v| (self.f)(v))
    }
}

/// See [`Strategy::prop_filter_map`].
pub struct FilterMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> Option<O>> Strategy for FilterMap<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> Option<O> {
        self.inner.generate(rng).and_then(&self.f)
    }
}

/// Always produces a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> Option<T> {
        Some(self.0.clone())
    }
}

/// Uniform booleans (`prop::bool::ANY`).
#[derive(Clone, Copy, Debug)]
pub struct BoolAny;

impl Strategy for BoolAny {
    type Value = bool;
    fn generate(&self, rng: &mut TestRng) -> Option<bool> {
        Some(rng.next_u64() & 1 == 1)
    }
}

macro_rules! int_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> Option<$t> {
                debug_assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let draw = ((rng.next_u64() as u128) % span) as i128;
                Some((self.start as i128 + draw) as $t)
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> Option<$t> {
                let (lo, hi) = (*self.start(), *self.end());
                debug_assert!(lo <= hi, "empty inclusive range strategy");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let draw = ((rng.next_u64() as u128) % span) as i128;
                Some((lo as i128 + draw) as $t)
            }
        }
    )*};
}

int_strategies!(usize, u64, u32, u16, u8, i64, i32, i16, i8);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> Option<f64> {
        debug_assert!(self.start < self.end, "empty f64 range strategy");
        let v = self.start + (self.end - self.start) * rng.next_f64();
        Some(if v >= self.end { self.start } else { v })
    }
}

macro_rules! tuple_strategies {
    ($(($($s:ident $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Option<Self::Value> {
                Some(($(self.$idx.generate(rng)?,)+))
            }
        }
    )*};
}

tuple_strategies! {
    (A 0)
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
    (A 0, B 1, C 2, D 3, E 4)
    (A 0, B 1, C 2, D 3, E 4, F 5)
    (A 0, B 1, C 2, D 3, E 4, F 5, G 6)
    (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7)
}

/// A collection size: fixed or ranged.
#[derive(Clone, Debug)]
pub struct SizeRange {
    lo: usize,
    hi_inclusive: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        Self {
            lo: n,
            hi_inclusive: n,
        }
    }
}

impl From<std::ops::Range<usize>> for SizeRange {
    fn from(r: std::ops::Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        Self {
            lo: r.start,
            hi_inclusive: r.end - 1,
        }
    }
}

impl From<std::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: std::ops::RangeInclusive<usize>) -> Self {
        Self {
            lo: *r.start(),
            hi_inclusive: *r.end(),
        }
    }
}

/// `prop::collection::vec(element, size)`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// See [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Option<Vec<S::Value>> {
        let n = if self.size.lo == self.size.hi_inclusive {
            self.size.lo
        } else {
            self.size.lo + rng.index(self.size.hi_inclusive - self.size.lo + 1)
        };
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.element.generate(rng)?);
        }
        Some(out)
    }
}
