//! Minimum bounding hyper-rectangles (MBRs).
//!
//! MBRs serve three roles in this workspace: directory / leaf regions in the
//! R\*-tree and X-tree, the approximations of NN-cells (Definition 3 of the
//! paper), and the slabs of the MBR decomposition (Definition 5).

use crate::point::Point;
use crate::EPS;
use std::fmt;

/// MINDIST²: squared Euclidean distance from `p` to the closest point of
/// the box `[lo, hi]` (zero if `p` is inside). This is the one MINDIST
/// formula of the workspace: [`Mbr::min_dist_sq`] and the tree's inline
/// node bounds both call it.
///
/// Per dimension the gap is `max(lo − p, p − hi, 0)`, which compiles to
/// two `max` instructions instead of a data-dependent three-way branch
/// (during a traversal the query sits below, inside or above each bound
/// in no predictable pattern). For `lo ≤ hi` and finite inputs it equals
/// the branchy `if p < lo { lo − p } else if p > hi { p − hi } else { 0 }`
/// bit for bit: at most one of the two differences is positive, and a
/// zero gap squares to `+0.0` whatever its sign. The squares are summed
/// in dimension order.
#[inline]
pub fn min_dist_sq(lo: &[f64], hi: &[f64], p: &[f64]) -> f64 {
    debug_assert_eq!(p.len(), lo.len());
    debug_assert_eq!(p.len(), hi.len());
    let mut s = 0.0;
    for ((&l, &h), &x) in lo.iter().zip(hi).zip(p) {
        let d = (l - x).max(x - h).max(0.0);
        s += d * d;
    }
    s
}

/// An axis-aligned hyper-rectangle `[lo₁,hi₁] × … × [lo_d,hi_d]`.
///
/// Invariant: `lo.len() == hi.len()` and `loᵢ ≤ hiᵢ` for all `i` (enforced by
/// constructors; degenerate zero-extent boxes are allowed — a point's MBR is
/// a point).
#[derive(Clone, PartialEq)]
pub struct Mbr {
    lo: Box<[f64]>,
    hi: Box<[f64]>,
}

impl Mbr {
    /// Creates an MBR from explicit bounds.
    ///
    /// # Panics
    /// Panics if the bounds have different lengths, are empty, or are
    /// inverted beyond [`EPS`] (tiny inversions from LP round-off are
    /// snapped shut).
    pub fn new(lo: impl Into<Vec<f64>>, hi: impl Into<Vec<f64>>) -> Self {
        let lo: Vec<f64> = lo.into();
        let mut hi: Vec<f64> = hi.into();
        assert_eq!(lo.len(), hi.len(), "bound dimensionality mismatch");
        assert!(!lo.is_empty(), "Mbr must have at least one dimension");
        for i in 0..lo.len() {
            assert!(
                hi[i] >= lo[i] - EPS,
                "inverted bounds in dim {i}: [{}, {}]",
                lo[i],
                hi[i]
            );
            if hi[i] < lo[i] {
                hi[i] = lo[i];
            }
        }
        Self {
            lo: lo.into_boxed_slice(),
            hi: hi.into_boxed_slice(),
        }
    }

    /// The degenerate MBR covering exactly one point.
    pub fn from_point(p: &[f64]) -> Self {
        Self::new(p.to_vec(), p.to_vec())
    }

    /// The tightest MBR covering all `points`.
    ///
    /// Returns `None` when `points` is empty.
    pub fn from_points<'a, I>(points: I) -> Option<Self>
    where
        I: IntoIterator<Item = &'a Point>,
    {
        let mut iter = points.into_iter();
        let first = iter.next()?;
        let mut mbr = Self::from_point(first);
        for p in iter {
            mbr.expand_to_point(p);
        }
        Some(mbr)
    }

    /// The tightest MBR covering all rectangles in `mbrs`.
    ///
    /// Returns `None` when `mbrs` is empty.
    pub fn union_all<'a, I>(mbrs: I) -> Option<Self>
    where
        I: IntoIterator<Item = &'a Mbr>,
    {
        let mut iter = mbrs.into_iter();
        let mut acc = iter.next()?.clone();
        for m in iter {
            acc.union_assign(m);
        }
        Some(acc)
    }

    /// Dimensionality `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Lower bounds.
    #[inline]
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// Upper bounds.
    #[inline]
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }

    /// Extent `hiᵢ − loᵢ` of dimension `i`.
    #[inline]
    pub fn extent(&self, i: usize) -> f64 {
        self.hi[i] - self.lo[i]
    }

    /// Center point.
    pub fn center(&self) -> Point {
        Point::new(
            self.lo
                .iter()
                .zip(self.hi.iter())
                .map(|(l, h)| 0.5 * (l + h))
                .collect::<Vec<_>>(),
        )
    }

    /// Product of extents. Zero for degenerate boxes.
    pub fn volume(&self) -> f64 {
        self.lo
            .iter()
            .zip(self.hi.iter())
            .map(|(l, h)| h - l)
            .product()
    }

    /// Sum of extents (the R\*-tree "margin" surrogate for surface area).
    pub fn margin(&self) -> f64 {
        self.lo.iter().zip(self.hi.iter()).map(|(l, h)| h - l).sum()
    }

    /// Closed containment test for a point.
    pub fn contains_point(&self, p: &[f64]) -> bool {
        debug_assert_eq!(p.len(), self.dim());
        self.lo
            .iter()
            .zip(self.hi.iter())
            .zip(p.iter())
            .all(|((l, h), x)| *l - EPS <= *x && *x <= *h + EPS)
    }

    /// Returns `true` if `other` lies entirely inside `self` (closed).
    pub fn contains_mbr(&self, other: &Mbr) -> bool {
        debug_assert_eq!(self.dim(), other.dim());
        (0..self.dim()).all(|i| self.lo[i] - EPS <= other.lo[i] && other.hi[i] <= self.hi[i] + EPS)
    }

    /// Closed intersection test.
    pub fn intersects(&self, other: &Mbr) -> bool {
        debug_assert_eq!(self.dim(), other.dim());
        (0..self.dim()).all(|i| self.lo[i] <= other.hi[i] + EPS && other.lo[i] <= self.hi[i] + EPS)
    }

    /// Volume of the intersection with `other` (zero if disjoint).
    pub fn overlap_volume(&self, other: &Mbr) -> f64 {
        debug_assert_eq!(self.dim(), other.dim());
        let mut v = 1.0;
        for i in 0..self.dim() {
            let lo = self.lo[i].max(other.lo[i]);
            let hi = self.hi[i].min(other.hi[i]);
            if hi <= lo {
                return 0.0;
            }
            v *= hi - lo;
        }
        v
    }

    /// The intersection box, or `None` if the boxes are disjoint (open test:
    /// touching boxes intersect in a degenerate box).
    pub fn intersection(&self, other: &Mbr) -> Option<Mbr> {
        debug_assert_eq!(self.dim(), other.dim());
        let mut lo = Vec::with_capacity(self.dim());
        let mut hi = Vec::with_capacity(self.dim());
        for i in 0..self.dim() {
            let l = self.lo[i].max(other.lo[i]);
            let h = self.hi[i].min(other.hi[i]);
            if h < l - EPS {
                return None;
            }
            lo.push(l);
            hi.push(h.max(l));
        }
        Some(Mbr::new(lo, hi))
    }

    /// Grows `self` to cover `p`.
    pub fn expand_to_point(&mut self, p: &[f64]) {
        debug_assert_eq!(p.len(), self.dim());
        for i in 0..p.len() {
            if p[i] < self.lo[i] {
                self.lo[i] = p[i];
            }
            if p[i] > self.hi[i] {
                self.hi[i] = p[i];
            }
        }
    }

    /// Grows `self` to cover `other`.
    pub fn union_assign(&mut self, other: &Mbr) {
        debug_assert_eq!(self.dim(), other.dim());
        for i in 0..self.dim() {
            if other.lo[i] < self.lo[i] {
                self.lo[i] = other.lo[i];
            }
            if other.hi[i] > self.hi[i] {
                self.hi[i] = other.hi[i];
            }
        }
    }

    /// The union box of `self` and `other`.
    pub fn union(&self, other: &Mbr) -> Mbr {
        let mut u = self.clone();
        u.union_assign(other);
        u
    }

    /// Volume increase needed to cover `other` (the R\*-tree ChooseSubtree
    /// criterion).
    pub fn enlargement(&self, other: &Mbr) -> f64 {
        self.union(other).volume() - self.volume()
    }

    /// MINDIST²: squared Euclidean distance from `p` to the closest point of
    /// the box (zero if `p` is inside). Used for best-first NN search; see
    /// the free function [`min_dist_sq`].
    #[inline]
    pub fn min_dist_sq(&self, p: &[f64]) -> f64 {
        debug_assert_eq!(p.len(), self.dim());
        min_dist_sq(&self.lo, &self.hi, p)
    }

    /// MINMAXDIST² of Roussopoulos et al. (RKV95): the smallest upper bound
    /// on the distance from `p` to the nearest *object inside* the box,
    /// assuming the box is minimal (touches an object on every face).
    pub fn minmax_dist_sq(&self, p: &[f64]) -> f64 {
        debug_assert_eq!(p.len(), self.dim());
        let d = self.dim();
        // rmᵢ: the near face coordinate; rMᵢ: the far corner coordinate.
        let mut total_max = 0.0;
        let mut rm = vec![0.0; d];
        let mut rmax = vec![0.0; d];
        for i in 0..d {
            let mid = 0.5 * (self.lo[i] + self.hi[i]);
            rm[i] = if p[i] <= mid { self.lo[i] } else { self.hi[i] };
            rmax[i] = if p[i] >= mid { self.lo[i] } else { self.hi[i] };
            let dm = p[i] - rmax[i];
            total_max += dm * dm;
        }
        let mut best = f64::INFINITY;
        for k in 0..d {
            let dmax = p[k] - rmax[k];
            let dmin = p[k] - rm[k];
            let v = total_max - dmax * dmax + dmin * dmin;
            if v < best {
                best = v;
            }
        }
        best
    }

    /// Squared distance from `p` to the farthest corner of the box.
    pub fn max_dist_sq(&self, p: &[f64]) -> f64 {
        debug_assert_eq!(p.len(), self.dim());
        let mut s = 0.0;
        for i in 0..p.len() {
            let d = (p[i] - self.lo[i]).abs().max((p[i] - self.hi[i]).abs());
            s += d * d;
        }
        s
    }

    /// Returns `true` if the sphere `(center, radius)` intersects the box.
    pub fn intersects_sphere(&self, center: &[f64], radius: f64) -> bool {
        self.min_dist_sq(center) <= radius * radius + EPS
    }

    /// Splits the box into two at coordinate `at` of dimension `dim`.
    ///
    /// Returns `None` if `at` is outside the open extent of that dimension.
    pub fn split_at(&self, dim: usize, at: f64) -> Option<(Mbr, Mbr)> {
        if at <= self.lo[dim] || at >= self.hi[dim] {
            return None;
        }
        let mut left = self.clone();
        let mut right = self.clone();
        left.hi[dim] = at;
        right.lo[dim] = at;
        Some((left, right))
    }
}

impl fmt::Debug for Mbr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Mbr[")?;
        for i in 0..self.dim() {
            if i > 0 {
                write!(f, " × ")?;
            }
            write!(f, "[{:.4},{:.4}]", self.lo[i], self.hi[i])?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit2() -> Mbr {
        Mbr::new(vec![0.0, 0.0], vec![1.0, 1.0])
    }

    #[test]
    fn volume_margin_center() {
        let m = Mbr::new(vec![0.0, 0.0], vec![2.0, 3.0]);
        assert_eq!(m.volume(), 6.0);
        assert_eq!(m.margin(), 5.0);
        assert_eq!(m.center().as_slice(), &[1.0, 1.5]);
    }

    #[test]
    fn containment_and_intersection() {
        let m = unit2();
        assert!(m.contains_point(&[0.5, 0.5]));
        assert!(m.contains_point(&[0.0, 1.0])); // closed
        assert!(!m.contains_point(&[1.5, 0.5]));
        let n = Mbr::new(vec![0.5, 0.5], vec![2.0, 2.0]);
        assert!(m.intersects(&n));
        assert!((m.overlap_volume(&n) - 0.25).abs() < 1e-12);
        let far = Mbr::new(vec![2.0, 2.0], vec![3.0, 3.0]);
        assert_eq!(m.overlap_volume(&far), 0.0);
        assert!(m.intersection(&far).is_none());
    }

    #[test]
    fn touching_boxes_intersect_with_zero_overlap() {
        let a = Mbr::new(vec![0.0], vec![1.0]);
        let b = Mbr::new(vec![1.0], vec![2.0]);
        assert!(a.intersects(&b));
        assert_eq!(a.overlap_volume(&b), 0.0);
        let i = a.intersection(&b).unwrap();
        assert_eq!(i.volume(), 0.0);
    }

    #[test]
    fn union_and_enlargement() {
        let a = Mbr::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let b = Mbr::new(vec![2.0, 0.0], vec![3.0, 1.0]);
        let u = a.union(&b);
        assert_eq!(u.lo(), &[0.0, 0.0]);
        assert_eq!(u.hi(), &[3.0, 1.0]);
        assert_eq!(a.enlargement(&b), 2.0);
    }

    #[test]
    fn from_points_covers_all() {
        let pts = vec![
            Point::new(vec![0.2, 0.8]),
            Point::new(vec![0.6, 0.1]),
            Point::new(vec![0.4, 0.5]),
        ];
        let m = Mbr::from_points(&pts).unwrap();
        assert_eq!(m.lo(), &[0.2, 0.1]);
        assert_eq!(m.hi(), &[0.6, 0.8]);
        for p in &pts {
            assert!(m.contains_point(p));
        }
        assert!(Mbr::from_points(std::iter::empty()).is_none());
    }

    #[test]
    fn min_dist_inside_is_zero_outside_positive() {
        let m = unit2();
        assert_eq!(m.min_dist_sq(&[0.5, 0.5]), 0.0);
        assert!((m.min_dist_sq(&[2.0, 0.5]) - 1.0).abs() < 1e-12);
        // diagonal corner distance
        assert!((m.min_dist_sq(&[2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn minmax_dist_bounds_mindist_and_maxdist() {
        let m = Mbr::new(vec![0.2, 0.3], vec![0.7, 0.9]);
        let q = [0.0, 0.0];
        let mind = m.min_dist_sq(&q);
        let mm = m.minmax_dist_sq(&q);
        let maxd = m.max_dist_sq(&q);
        assert!(mind <= mm + 1e-12);
        assert!(mm <= maxd + 1e-12);
    }

    #[test]
    fn minmax_dist_degenerate_box_equals_point_distance() {
        let m = Mbr::from_point(&[0.5, 0.5]);
        let q = [0.0, 0.0];
        assert!((m.minmax_dist_sq(&q) - 0.5).abs() < 1e-12);
        assert!((m.min_dist_sq(&q) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sphere_intersection() {
        let m = unit2();
        assert!(m.intersects_sphere(&[1.5, 0.5], 0.6));
        assert!(!m.intersects_sphere(&[1.5, 0.5], 0.4));
        assert!(m.intersects_sphere(&[0.5, 0.5], 0.01)); // center inside
    }

    #[test]
    fn split_at_partitions_volume() {
        let m = unit2();
        let (l, r) = m.split_at(0, 0.3).unwrap();
        assert!((l.volume() + r.volume() - m.volume()).abs() < 1e-12);
        assert_eq!(l.hi()[0], 0.3);
        assert_eq!(r.lo()[0], 0.3);
        assert!(m.split_at(0, 0.0).is_none());
        assert!(m.split_at(0, 1.0).is_none());
    }

    #[test]
    fn union_all_matches_pairwise() {
        let ms = vec![
            Mbr::new(vec![0.0], vec![0.2]),
            Mbr::new(vec![0.5], vec![0.9]),
            Mbr::new(vec![0.1], vec![0.4]),
        ];
        let u = Mbr::union_all(&ms).unwrap();
        assert_eq!(u.lo(), &[0.0]);
        assert_eq!(u.hi(), &[0.9]);
    }

    #[test]
    #[should_panic(expected = "inverted bounds")]
    fn inverted_bounds_rejected() {
        let _ = Mbr::new(vec![1.0], vec![0.0]);
    }

    #[test]
    fn tiny_inversion_snapped() {
        let m = Mbr::new(vec![1.0], vec![1.0 - 1e-12]);
        assert!(m.hi()[0] >= m.lo()[0]);
    }
}
