//! MBR decomposition of NN-cells (section 3 of the paper).
//!
//! In high dimensions the MBR of an *oblique* (slanted) cell wastes volume,
//! so approximations overlap heavily. Definition 5 decomposes each cell
//! along its `d'` most oblique dimensions into `n₁ ≥ … ≥ n_{d'}` equal slabs
//! of the MBR extent (`k = Πnᵢ` pieces, `k ≤ ~10` in practice); each piece's
//! MBR is the same extent LP with two extra slab constraints. Pieces whose
//! slab misses the cell are dropped (they cover nothing). The union of piece
//! MBRs still covers the cell, so exactness is preserved (Lemma 2).
//!
//! **Obliqueness heuristic.** The paper's "maximum of all shortest
//! diagonals" is not specified further ("many algorithms could be used"), so
//! we score each dimension by the *trial-split volume reduction on the
//! cell's face-touching vertices*: the `2·d` LP optimizers are actual points
//! of the cell touching each MBR face; splitting that vertex set at the MBR
//! midpoint of a dimension and summing the two sub-boxes' volumes measures
//! how much a real split along that dimension would gain — directly
//! optimizing the quantity Definition 4 minimizes, at zero extra LP cost.

use nncell_geom::{Halfspace, Mbr, Metric};
use nncell_lp::{CellLpStats, CellSolve, VoronoiLp};

/// Factorizes the piece budget `k` into descending slab counts
/// `n₁ ≥ n₂ ≥ …` with `Πnᵢ ≤ k` (prime factorization, largest first), as the
/// paper prescribes ("the number of partitions … is also decreasing").
///
/// ```
/// use nncell_cells::decompose::plan_partitions;
/// assert!(plan_partitions(1).is_empty());   // no decomposition
/// assert_eq!(plan_partitions(8), vec![2, 2, 2]);
/// assert_eq!(plan_partitions(10), vec![5, 2]);
/// ```
pub fn plan_partitions(k: usize) -> Vec<usize> {
    let mut k = k.max(1);
    let mut factors = Vec::new();
    let mut f = 2usize;
    while f * f <= k {
        while k.is_multiple_of(f) {
            factors.push(f);
            k /= f;
        }
        f += 1;
    }
    if k > 1 {
        factors.push(k);
    }
    factors.sort_unstable_by(|a, b| b.cmp(a));
    factors
}

/// Scores every dimension's obliqueness from the cell's face-touching
/// vertices; higher = more volume saved by splitting there.
///
/// The cell is convex, so for every pair of vertices straddling a trial
/// split plane, the segment's crossing point lies in the cell too; the
/// crossing points are added to both sides before boxing. Without them a
/// long axis-aligned cell (which gains nothing from splitting) would score
/// falsely high.
pub fn obliqueness_scores(mbr: &Mbr, vertices: &[Vec<f64>]) -> Vec<f64> {
    let d = mbr.dim();
    let mut scores = vec![0.0; d];
    if vertices.is_empty() {
        return scores;
    }
    let parent_vol = vertex_box_volume(vertices.iter());
    for (dim, score) in scores.iter_mut().enumerate() {
        let mid = 0.5 * (mbr.lo()[dim] + mbr.hi()[dim]);
        let (left, right): (Vec<&Vec<f64>>, Vec<&Vec<f64>>) =
            vertices.iter().partition(|v| v[dim] <= mid);
        // Segment-plane crossings (convexity ⇒ inside the cell).
        let mut crossings: Vec<Vec<f64>> = Vec::new();
        for a in &left {
            for b in &right {
                let t = (mid - a[dim]) / (b[dim] - a[dim]);
                if t.is_finite() {
                    crossings.push((0..d).map(|i| a[i] + t * (b[i] - a[i])).collect());
                }
            }
        }
        let lv = vertex_box_volume(left.iter().copied().chain(crossings.iter()));
        let rv = vertex_box_volume(right.iter().copied().chain(crossings.iter()));
        *score = (parent_vol - (lv + rv)).max(0.0);
    }
    scores
}

/// Volume of the bounding box of an iterator of points (0 when empty).
fn vertex_box_volume<'a, I>(vertices: I) -> f64
where
    I: Iterator<Item = &'a Vec<f64>>,
{
    let mut lo: Option<Vec<f64>> = None;
    let mut hi: Option<Vec<f64>> = None;
    for v in vertices {
        match (&mut lo, &mut hi) {
            (Some(l), Some(h)) => {
                for i in 0..v.len() {
                    l[i] = l[i].min(v[i]);
                    h[i] = h[i].max(v[i]);
                }
            }
            _ => {
                lo = Some(v.clone());
                hi = Some(v.clone());
            }
        }
    }
    match (lo, hi) {
        (Some(l), Some(h)) => l.iter().zip(h.iter()).map(|(a, b)| b - a).product(),
        _ => 0.0,
    }
}

/// Decomposes a solved cell into at most `max_pieces` MBRs (Definition 5).
///
/// `constraints` are the cell's bisectors; `solve` is the plain (exact-MBR)
/// solution whose vertices drive the obliqueness scores. Returns the piece
/// MBRs and the extra LP work done. Infallible: per-piece LP trouble rides
/// the fallback chain inside [`VoronoiLp::extents`]; an infeasible slab
/// (the slab misses the cell) is simply dropped.
pub fn decompose_cell<M: Metric>(
    vlp: &VoronoiLp<M>,
    constraints: &[Halfspace],
    solve: &CellSolve,
    max_pieces: usize,
    seed: u64,
) -> (Vec<Mbr>, CellLpStats) {
    let plan = plan_partitions(max_pieces);
    let d = solve.mbr.dim();
    let mut stats = CellLpStats::default();
    if plan.is_empty() || plan.len() > d {
        return (vec![solve.mbr.clone()], stats);
    }

    // Rank dimensions by obliqueness; assign the largest slab count to the
    // most oblique dimension.
    let scores = obliqueness_scores(&solve.mbr, &solve.vertices);
    let mut order: Vec<usize> = (0..d).collect();
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
    let dims: Vec<usize> = order[..plan.len()].to_vec();

    // Nothing to gain (e.g. a degenerate vertex set): keep the plain MBR.
    if scores[dims[0]] <= 0.0 {
        return (vec![solve.mbr.clone()], stats);
    }

    // Enumerate the slab grid.
    let mut pieces = Vec::new();
    let mut idx = vec![0usize; dims.len()];
    loop {
        let mut cons = constraints.to_vec();
        for (j, (&dim, &n)) in dims.iter().zip(plan.iter()).enumerate() {
            let l = solve.mbr.lo()[dim];
            let h = solve.mbr.hi()[dim];
            let step = (h - l) / n as f64;
            let a = l + idx[j] as f64 * step;
            let b = l + (idx[j] + 1) as f64 * step;
            // a ≤ x_dim (as −x ≤ −a) and x_dim ≤ b.
            let mut lo_n = vec![0.0; d];
            lo_n[dim] = -1.0;
            cons.push(Halfspace::new(lo_n, -a));
            let mut hi_n = vec![0.0; d];
            hi_n[dim] = 1.0;
            cons.push(Halfspace::new(hi_n, b));
        }
        if let Some(piece) = vlp.extents(&cons, seed ^ hash_idx(&idx)) {
            stats.merge(piece.stats);
            pieces.push(piece.mbr);
        } else {
            stats.lp_calls += 1; // infeasible probe still did work
        }
        // Advance the slab index (odometer).
        let mut j = 0;
        loop {
            if j == dims.len() {
                // Odometer wrapped: done. Keep the decomposition only when
                // it actually saves volume (the vertex proxy can be
                // optimistic; the LP pieces are the ground truth).
                let total: f64 = pieces.iter().map(Mbr::volume).sum();
                let pieces = if pieces.is_empty() || total >= 0.98 * solve.mbr.volume() {
                    vec![solve.mbr.clone()]
                } else {
                    pieces
                };
                return (pieces, stats);
            }
            idx[j] += 1;
            if idx[j] < plan[j] {
                break;
            }
            idx[j] = 0;
            j += 1;
        }
    }
}

fn hash_idx(idx: &[usize]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &i in idx {
        h ^= i as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use nncell_geom::{DataSpace, Euclidean};
    use nncell_lp::SolverKind;

    #[test]
    fn partition_plans() {
        assert!(plan_partitions(1).is_empty());
        assert_eq!(plan_partitions(2), vec![2]);
        assert_eq!(plan_partitions(4), vec![2, 2]);
        assert_eq!(plan_partitions(8), vec![2, 2, 2]);
        assert_eq!(plan_partitions(9), vec![3, 3]);
        assert_eq!(plan_partitions(10), vec![5, 2]);
        assert_eq!(plan_partitions(6), vec![3, 2]);
    }

    #[test]
    fn oblique_cell_scores_higher_in_slant_dimension() {
        // Vertices of a diagonal strip in 2-D: long in both axes but thin.
        let mbr = Mbr::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let vertices = vec![
            vec![0.0, 0.05],
            vec![0.95, 1.0],
            vec![0.05, 0.0],
            vec![1.0, 0.95],
        ];
        let s = obliqueness_scores(&mbr, &vertices);
        assert!(s[0] > 0.0 && s[1] > 0.0, "diagonal strip gains from split");
        // An axis-aligned bar gains nothing from splitting along its length.
        let bar_vertices = vec![
            vec![0.0, 0.45],
            vec![1.0, 0.45],
            vec![0.0, 0.55],
            vec![1.0, 0.55],
        ];
        let s2 = obliqueness_scores(&mbr, &bar_vertices);
        assert!(s2[0] <= 1e-12, "bar split along x saves nothing: {}", s2[0]);
    }

    #[test]
    fn decomposition_covers_cell_and_reduces_volume() {
        // Diagonal points: p's cell is the slanted half below x+y=1.
        let vlp = VoronoiLp::new(Euclidean, DataSpace::unit(2), SolverKind::Simplex);
        let p = [0.3, 0.3];
        let q = [0.7, 0.7];
        let cons = vlp.bisectors(&p, [&q[..]]);
        let solve = vlp.extents(&cons, 0).unwrap();
        let plain_vol = solve.mbr.volume();
        let (pieces, _) = decompose_cell(&vlp, &cons, &solve, 4, 0);
        assert!(pieces.len() >= 2, "diagonal cell should decompose");
        let total: f64 = pieces.iter().map(|m| m.volume()).sum();
        assert!(
            total < plain_vol - 1e-9,
            "decomposition must reduce volume: {total} vs {plain_vol}"
        );
        // Coverage: sampled points of the cell lie in some piece.
        for k in 0..100 {
            let x = k as f64 / 99.0;
            for l in 0..100 {
                let y = l as f64 / 99.0;
                let in_cell = x + y <= 1.0;
                if in_cell {
                    assert!(
                        pieces.iter().any(|m| m.contains_point(&[x, y])),
                        "({x},{y}) in cell but uncovered"
                    );
                }
            }
        }
    }

    #[test]
    fn single_piece_budget_returns_plain_mbr() {
        let vlp = VoronoiLp::new(Euclidean, DataSpace::unit(2), SolverKind::Simplex);
        let p = [0.2, 0.5];
        let cons = vlp.bisectors(&p, [&[0.8, 0.5][..]]);
        let solve = vlp.extents(&cons, 0).unwrap();
        let (pieces, stats) = decompose_cell(&vlp, &cons, &solve, 1, 0);
        assert_eq!(pieces.len(), 1);
        assert_eq!(stats.lp_calls, 0);
        assert_eq!(pieces[0], solve.mbr);
    }

    #[test]
    fn axis_aligned_cell_skips_decomposition() {
        // Two points differing only in x: the bisector is axis-aligned, the
        // MBR is exact, decomposition gains nothing and must be skipped.
        let vlp = VoronoiLp::new(Euclidean, DataSpace::unit(2), SolverKind::Simplex);
        let p = [0.25, 0.5];
        let cons = vlp.bisectors(&p, [&[0.75, 0.5][..]]);
        let solve = vlp.extents(&cons, 0).unwrap();
        let (pieces, _) = decompose_cell(&vlp, &cons, &solve, 4, 0);
        assert_eq!(pieces.len(), 1, "axis-aligned cell must not decompose");
    }
}
