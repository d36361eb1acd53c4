//! The NN-cells of Berchtold, Ertl, Keim, Kriegel & Seidl, *"Fast Nearest
//! Neighbor Search in High-dimensional Space"*, ICDE 1998, built on demand
//! from a serving index.
//!
//! The paper **precomputes the solution space**: every database point's
//! first-order Voronoi cell (*NN-cell*) is approximated by its minimum
//! bounding rectangle (computed by `2·d` linear programs over bisector
//! halfspaces) and the rectangles are stored in an X-tree. A
//! nearest-neighbor query is then a **point query** on that index plus a
//! distance check — and because every approximation is a *superset* of the
//! true cell, the result is **exact** (no false dismissals; Lemmas 1 and 2
//! of the paper, enforced here by property tests).
//!
//! Serving does not read the cells: `nncell_core::NnCellIndex` answers
//! every query by best-first search over its point X-tree and runs no LP.
//! This crate holds the paper's structure for its experiments — the
//! figure benches, the quality metrics and the tests of its lemmas. Its
//! settings (strategy, constraint pool, solver, decomposition, threads,
//! seed) are read from the index's `nncell_core::BuildConfig`, and its
//! LP counters fill a `nncell_core::BuildStats`.
//!
//! * [`NnCells`] — the paper's cells: build, §3.5 maintenance and its
//!   point query,
//! * the constraint-selection strategies (*Correct*, *Point*, *Sphere*,
//!   *NN-Direction* and the exactness-preserving *CorrectPruned*) that
//!   `nncell_core::Strategy` names,
//! * [`decompose`] — the MBR decomposition of section 3 (splitting each cell
//!   along its most oblique dimensions to cut approximation overlap),
//! * [`quality`] — the paper's overlap and quality-to-performance metrics.

// Indexed loops over parallel coordinate arrays are the house style in this
// numeric code; iterator-zip rewrites obscure the math.
#![allow(clippy::needless_range_loop)]
// Library code must degrade, not panic (LP fallback chain); tests may
// unwrap freely.
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod cells;
pub mod decompose;
pub mod quality;
mod strategy;

pub use cells::{CellApprox, IntegrityReport, NnCells};
pub use quality::{
    average_overlap, expected_candidates, measured_candidates, quality_to_performance,
};
