//! Owned points in `R^d`.

use std::fmt;
use std::ops::{Deref, Index};

/// An owned point in `R^d`.
///
/// A thin wrapper over `Box<[f64]>` that keeps the dimensionality explicit
/// and dereferences to a slice, so all free functions taking `&[f64]`
/// (e.g. [`crate::metric::dist`]) accept it directly.
#[derive(Clone, PartialEq)]
pub struct Point {
    coords: Box<[f64]>,
}

impl Point {
    /// Creates a point from any coordinate container.
    ///
    /// # Panics
    /// Panics if `coords` is empty: zero-dimensional points are never
    /// meaningful in this workspace and allowing them would push degenerate
    /// checks into every caller.
    pub fn new(coords: impl Into<Vec<f64>>) -> Self {
        let coords: Vec<f64> = coords.into();
        assert!(!coords.is_empty(), "Point must have at least one dimension");
        Self {
            coords: coords.into_boxed_slice(),
        }
    }

    /// The origin of `R^d`.
    pub fn origin(dim: usize) -> Self {
        Self::new(vec![0.0; dim])
    }

    /// Dimensionality `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.coords.len()
    }

    /// Coordinates as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.coords
    }

    /// Consumes the point and returns its coordinates.
    pub fn into_vec(self) -> Vec<f64> {
        self.coords.into_vec()
    }

    /// Returns `true` if all coordinates are finite.
    pub fn is_finite(&self) -> bool {
        self.coords.iter().all(|c| c.is_finite())
    }
}

impl Deref for Point {
    type Target = [f64];
    #[inline]
    fn deref(&self) -> &[f64] {
        &self.coords
    }
}

impl Index<usize> for Point {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        &self.coords[i]
    }
}

impl From<Vec<f64>> for Point {
    fn from(v: Vec<f64>) -> Self {
        Self::new(v)
    }
}

impl From<&[f64]> for Point {
    fn from(v: &[f64]) -> Self {
        Self::new(v.to_vec())
    }
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Point{:?}", self.coords)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let p = Point::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(p.dim(), 3);
        assert_eq!(p[1], 2.0);
        assert_eq!(p.as_slice(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn origin_is_all_zero() {
        let p = Point::origin(4);
        assert_eq!(p.as_slice(), &[0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn zero_dim_rejected() {
        let _ = Point::new(Vec::new());
    }

    #[test]
    fn deref_allows_slice_ops() {
        let p = Point::new(vec![0.5, 0.25]);
        let sum: f64 = p.iter().sum();
        assert_eq!(sum, 0.75);
    }

    #[test]
    fn finite_detection() {
        assert!(Point::new(vec![1.0, 2.0]).is_finite());
        assert!(!Point::new(vec![f64::NAN]).is_finite());
        assert!(!Point::new(vec![f64::INFINITY, 0.0]).is_finite());
    }

    #[test]
    fn into_vec_round_trips() {
        let v = vec![0.1, 0.2, 0.3];
        assert_eq!(Point::new(v.clone()).into_vec(), v);
    }
}
