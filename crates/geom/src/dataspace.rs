//! The bounded data space that clips every NN-cell.
//!
//! The paper assumes Voronoi cells are "bounded by the data space (DS)"; all
//! LPs carry the data-space box constraints so unbounded Voronoi cells (of
//! hull points) still produce finite MBRs.

use crate::mbr::Mbr;

/// A box-shaped data space, by default the unit cube `[0,1]^d`.
#[derive(Clone, Debug, PartialEq)]
pub struct DataSpace {
    bounds: Mbr,
}

impl DataSpace {
    /// The unit cube `[0,1]^d`.
    pub fn unit(dim: usize) -> Self {
        assert!(dim > 0, "data space needs at least one dimension");
        Self {
            bounds: Mbr::new(vec![0.0; dim], vec![1.0; dim]),
        }
    }

    /// Dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.bounds.dim()
    }

    /// The bounding box.
    #[inline]
    pub fn bounds(&self) -> &Mbr {
        &self.bounds
    }

    /// Lower bound of dimension `i`.
    #[inline]
    pub fn lo(&self, i: usize) -> f64 {
        self.bounds.lo()[i]
    }

    /// Upper bound of dimension `i`.
    #[inline]
    pub fn hi(&self, i: usize) -> f64 {
        self.bounds.hi()[i]
    }

    /// Volume of the data space.
    pub fn volume(&self) -> f64 {
        self.bounds.volume()
    }

    /// Whether `p` lies in the data space (closed).
    pub fn contains(&self, p: &[f64]) -> bool {
        self.bounds.contains_point(p)
    }

    /// Clamps `p` into the data space, coordinate-wise.
    pub fn clamp(&self, p: &mut [f64]) {
        for i in 0..p.len() {
            p[i] = p[i].clamp(self.lo(i), self.hi(i));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_cube_basics() {
        let ds = DataSpace::unit(3);
        assert_eq!(ds.dim(), 3);
        assert_eq!(ds.volume(), 1.0);
        assert!(ds.contains(&[0.0, 0.5, 1.0]));
        assert!(!ds.contains(&[1.1, 0.5, 0.5]));
    }

    #[test]
    fn clamp_pulls_points_inside() {
        let ds = DataSpace::unit(2);
        let mut p = [1.5, -0.3];
        ds.clamp(&mut p);
        assert_eq!(p, [1.0, 0.0]);
        assert!(ds.contains(&p));
    }
}
