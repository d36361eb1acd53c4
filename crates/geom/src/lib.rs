//! Geometry substrate for the `nncell` workspace.
//!
//! Everything in the NN-cell pipeline speaks this crate's vocabulary:
//!
//! * [`Point`] — an owned point in `R^d`,
//! * [`Mbr`] — a minimum bounding hyper-rectangle with the volume / margin /
//!   overlap / MINDIST / MINMAXDIST machinery that R\*-trees, X-trees and the
//!   NN-cell approximations need,
//! * [`Halfspace`] — a linear constraint `a·x ≤ b`, in particular the
//!   perpendicular bisector halfspaces that bound Voronoi cells,
//! * [`DataSpace`] — the bounded data space (default `[0,1]^d`) that clips
//!   every NN-cell,
//! * [`metric`] — distance functions (Euclidean and weighted Euclidean; only
//!   (weighted) L2 yields *linear* bisectors, which the LP formulation needs).
//!
//! The crate is dependency-free and `f64` throughout.

// Indexed loops over parallel coordinate arrays are the house style in this
// numeric code; iterator-zip rewrites obscure the math.
#![allow(clippy::needless_range_loop)]

pub mod dataspace;
pub mod halfspace;
pub mod mbr;
pub mod metric;
pub mod point;
pub mod polygon;

pub use dataspace::DataSpace;
pub use halfspace::Halfspace;
pub use mbr::{min_dist_sq, Mbr};
pub use metric::{dist, dist_sq, weighted_dist_sq, Euclidean, Metric, WeightedEuclidean};
pub use point::Point;
pub use polygon::{voronoi_cell_2d, ConvexPolygon};

/// Relative/absolute tolerance used by geometric predicates across the
/// workspace. Chosen large enough to absorb simplex round-off on unit-box
/// coordinates and small enough not to merge distinct Voronoi vertices at
/// realistic database sizes.
pub const EPS: f64 = 1e-9;

/// Returns `true` when `a` and `b` are equal up to [`EPS`] (absolute, suited
/// to unit-box coordinates).
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPS
}
