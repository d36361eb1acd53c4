//! Property tests of the linear-scan oracle itself: the one-pass bounded
//! `linear_scan_knn` must return exactly what a collect–stable-sort–
//! truncate over all n distances returns — same ids, same distance bits,
//! same order — for every k around the edges (0, 1, 3, n − 1, n, n + 3),
//! on lattice data that mass-produces distance ties, with duplicate
//! points, an empty slice, and one point whose coordinate is NaN (of
//! either sign) or ±∞.

use nncell_core::{linear_scan_knn, QueryResult};
use nncell_geom::{dist_sq, Point};
use proptest::prelude::*;

/// The scan as it was before the bounded pass: every distance, stably
/// sorted by `total_cmp`, truncated to k. Ids enter the sort ascending,
/// so ties keep the lower id first.
fn sort_all_reference(points: &[Point], q: &[f64], k: usize) -> Vec<QueryResult> {
    let mut all: Vec<QueryResult> = points
        .iter()
        .enumerate()
        .map(|(i, p)| QueryResult {
            id: i,
            dist: dist_sq(q, p).sqrt(),
        })
        .collect();
    all.sort_by(|a, b| a.dist.total_cmp(&b.dist));
    all.truncate(k);
    all
}

/// Lattice coordinate: a coarse grid, so many points lie at exactly the
/// same distance from a query and the id tie-break decides the order.
fn lattice_coord() -> impl Strategy<Value = f64> {
    (0..=4u32).prop_map(|v| v as f64 / 4.0)
}

/// The coordinate that makes one point non-finite.
const ODD_COORDS: [f64; 4] = [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

fn assert_same(got: &[QueryResult], want: &[QueryResult], k: usize) {
    assert_eq!(got.len(), want.len(), "k = {k}: result count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.id, w.id, "k = {k}: id at rank {i}");
        assert_eq!(
            g.dist.to_bits(),
            w.dist.to_bits(),
            "k = {k}: distance bits at rank {i} (id {})",
            g.id
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bounded_scan_matches_sort_all_on_every_edge_k(
        d in 1usize..5,
        rows in prop::collection::vec(prop::collection::vec(lattice_coord(), 4), 0..40),
        odd_at in 0usize..40,
        odd_axis in 0usize..4,
        odd_pick in 0usize..=ODD_COORDS.len(),
        queries in prop::collection::vec(prop::collection::vec(lattice_coord(), 4), 3),
    ) {
        let mut pts: Vec<Point> = rows.iter().map(|r| Point::new(&r[..d])).collect();
        // Mostly one point with a NaN or infinite coordinate, at a
        // random position in the slice; `odd_pick` past the table adds none.
        if let Some(&odd) = ODD_COORDS.get(odd_pick) {
            let mut c = vec![0.5; d];
            c[odd_axis % d] = odd;
            pts.insert(odd_at.min(pts.len()), Point::new(c));
        }
        let n = pts.len();
        for q in &queries {
            let q = &q[..d];
            for k in [0, 1, 3, n.saturating_sub(1), n, n + 3] {
                let got = linear_scan_knn(&pts, q, k);
                assert_same(&got, &sort_all_reference(&pts, q, k), k);
            }
        }
    }
}

#[test]
fn an_empty_slice_or_k_zero_returns_nothing() {
    let pts = vec![Point::new(vec![0.0, 1.0]), Point::new(vec![f64::NAN, 0.0])];
    for k in [0, 1, 3] {
        assert!(linear_scan_knn(&[], &[0.5, 0.5], k).is_empty(), "k = {k}");
    }
    assert!(linear_scan_knn(&pts, &[0.5, 0.5], 0).is_empty());
}
