//! Approximation-quality metrics (figures 4b, 5 and 13 of the paper).
//!
//! The paper measures an approximation set by its **overlap**, "which
//! directly corresponds to the query performance": how many extra candidate
//! cells a point query returns on average. For a uniformly random query
//! point, the expected number of candidate approximations is — by linearity
//! of expectation — `Σᵢ vol(Apprᵢ) / vol(DS)`, so we define
//!
//! ```text
//! overlap = Σᵢ vol(Apprᵢ) / vol(DS) − 1
//! ```
//!
//! which is `0` for the perfect (regular-grid) case where approximations
//! tile the space, and grows as approximations inflate. The
//! quality-to-performance ratio of figure 5 divides quality
//! (`1 / (1 + overlap)`) by the approximation time.

use crate::cells::{CellApprox, NnCells, PIECE_BITS};
use nncell_geom::Metric;

/// Expected number of candidate approximations a uniformly random point
/// query returns: `Σ vol(pieces) / vol(DS)` (unit data space ⇒ the plain
/// volume sum).
pub fn expected_candidates(cells: &[CellApprox]) -> f64 {
    cells.iter().map(CellApprox::volume).sum()
}

/// The paper's overlap measure: expected *extra* candidates per query,
/// `expected_candidates − 1`, clamped at zero.
pub fn average_overlap(cells: &[CellApprox]) -> f64 {
    (expected_candidates(cells) - 1.0).max(0.0)
}

/// Figure 5's quality-to-performance ratio: quality `1/(1+overlap)` per
/// second of approximation time. Higher is better.
pub fn quality_to_performance(overlap: f64, seconds: f64) -> f64 {
    assert!(seconds > 0.0, "time must be positive");
    1.0 / ((1.0 + overlap) * seconds)
}

/// Empirical candidate count: the mean number of **live candidate cells**
/// a point query of the cell tree returns over `queries`. This measures
/// the approximation quality itself (the quantity `expected_candidates`
/// predicts — it converges there for uniform queries), independent of the
/// query engine, whose `candidates` stat reports the evaluation work of
/// its point-tree traversal.
pub fn measured_candidates<M: Metric>(cells: &NnCells<M>, queries: &[Vec<f64>]) -> f64 {
    if queries.is_empty() {
        return 0.0;
    }
    let mut stack = Vec::new();
    let mut hits = Vec::new();
    let mut total = 0usize;
    for q in queries {
        cells.tree().point_query_with(q, &mut stack, &mut hits);
        // Several pieces of one decomposed cell count once; removed cells
        // have no pieces in the tree.
        let mut pids: Vec<usize> = hits.iter().map(|&h| (h >> PIECE_BITS) as usize).collect();
        pids.sort_unstable();
        pids.dedup();
        total += pids.len();
    }
    total as f64 / queries.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use nncell_geom::Mbr;

    fn cell(vol_per_dim: f64, d: usize) -> CellApprox {
        CellApprox {
            pieces: vec![Mbr::new(vec![0.0; d], vec![vol_per_dim; d])],
        }
    }

    #[test]
    fn perfect_tiling_has_zero_overlap() {
        // Four quarter cells tile the unit square.
        let cells: Vec<CellApprox> = (0..4).map(|_| cell(0.5, 2)).collect();
        assert!((expected_candidates(&cells) - 1.0).abs() < 1e-12);
        assert_eq!(average_overlap(&cells), 0.0);
    }

    #[test]
    fn inflated_cells_overlap() {
        // Four cells each covering the whole space: every query hits all 4.
        let cells: Vec<CellApprox> = (0..4).map(|_| cell(1.0, 2)).collect();
        assert!((expected_candidates(&cells) - 4.0).abs() < 1e-12);
        assert!((average_overlap(&cells) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn qpr_orders_algorithms_sensibly() {
        // Same quality, faster build → better ratio.
        assert!(quality_to_performance(1.0, 1.0) > quality_to_performance(1.0, 2.0));
        // Same time, less overlap → better ratio.
        assert!(quality_to_performance(0.5, 1.0) > quality_to_performance(2.0, 1.0));
    }

    #[test]
    fn decomposed_pieces_counted_by_total_volume() {
        let c = CellApprox {
            pieces: vec![
                Mbr::new(vec![0.0, 0.0], vec![0.5, 0.5]),
                Mbr::new(vec![0.5, 0.0], vec![1.0, 0.5]),
            ],
        };
        assert!((c.volume() - 0.5).abs() < 1e-12);
        assert!((expected_candidates(&[c]) - 0.5).abs() < 1e-12);
    }
}
