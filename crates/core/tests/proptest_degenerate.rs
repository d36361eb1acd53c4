//! Property tests for degenerate inputs: geometry that breaks naive LP
//! pipelines (collinear sites, constant coordinates, one dimension) and
//! inputs the validation layer must handle (exact duplicates). In every
//! case the index either returns a typed error or agrees with a linear
//! scan — never a panic, never a wrong answer. The index runs no LP; the
//! same geometry through the cells' LPs is checked in
//! `crates/cells/tests/proptest_degenerate.rs`.

use nncell_core::{
    linear_scan_nn, BuildConfig, BuildError, InputPolicy, NnCellIndex, Query, QueryEngine,
    Strategy as BuildStrategy,
};
use nncell_geom::{dist_sq, Point};
use proptest::prelude::*;

/// NN through the typed engine, with the removed shim's `Option` shape.
fn nn(idx: &NnCellIndex, q: &[f64]) -> Option<nncell_core::QueryResult> {
    QueryEngine::sequential(idx)
        .execute(&Query::nn(q))
        .ok()
        .map(|r| r.best)
}

fn coord() -> impl Strategy<Value = f64> {
    (0..=1000u32).prop_map(|v| v as f64 / 1000.0)
}

/// Distinct scalars in `[0,1]`, at least `min` of them.
fn distinct_scalars(min: usize, max: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(coord(), min..max).prop_filter_map("distinct scalars", move |mut v| {
        v.sort_by(f64::total_cmp);
        v.dedup();
        (v.len() >= min).then_some(v)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// d = 1: every bisector is a single split coordinate; cells are
    /// intervals. The smallest interesting dimensionality must work.
    #[test]
    fn one_dimensional_inputs_agree_with_scan(
        xs in distinct_scalars(2, 25),
        queries in prop::collection::vec(coord(), 8),
        strat_pick in 0usize..4,
    ) {
        let pts: Vec<Point> = xs.iter().map(|&x| Point::new(vec![x])).collect();
        let strategy = BuildStrategy::ALL[strat_pick];
        let index = NnCellIndex::build(pts.clone(), BuildConfig::builder().strategy(strategy).seed(5).build()).unwrap();
        for &q in &queries {
            let got = nn(&index, &[q]).unwrap();
            let want = linear_scan_nn(&pts, &[q]).unwrap();
            prop_assert!(
                (got.dist - want.dist).abs() < 1e-9,
                "{strategy:?} d=1 inexact at {q}"
            );
        }
    }

    /// Collinear sites: all bisectors are parallel, so every Voronoi cell
    /// is an unbounded slab that only the data-space bounds close. The LP
    /// must not report these as unbounded failures.
    #[test]
    fn collinear_points_agree_with_scan(
        ts in distinct_scalars(2, 20),
        queries in prop::collection::vec(prop::collection::vec(coord(), 3), 8),
        decompose in prop::bool::ANY,
    ) {
        // Points on the segment (0.1,0.2,0.3) → (0.9,0.8,0.6).
        let a = [0.1, 0.2, 0.3];
        let b = [0.9, 0.8, 0.6];
        let pts: Vec<Point> = ts
            .iter()
            .map(|&t| Point::new((0..3).map(|i| a[i] + t * (b[i] - a[i])).collect::<Vec<_>>()))
            .collect();
        let mut cfg = BuildConfig::builder().strategy(BuildStrategy::Sphere).seed(6);
        if decompose {
            cfg = cfg.decompose_pieces(3);
        }
        let cfg = cfg.build();
        let index = NnCellIndex::build(pts.clone(), cfg).unwrap();
        for q in &queries {
            let got = nn(&index, q).unwrap();
            let want = linear_scan_nn(&pts, q).unwrap();
            prop_assert!(
                (got.dist - want.dist).abs() < 1e-9,
                "collinear inexact at {q:?}"
            );
        }
    }

    /// A coordinate shared by every point: all bisectors are parallel to
    /// that axis, so each cell spans the full data space along it.
    #[test]
    fn constant_coordinate_agrees_with_scan(
        xy in prop::collection::vec((coord(), coord()), 3..20),
        queries in prop::collection::vec(prop::collection::vec(coord(), 3), 8),
        strat_pick in 0usize..4,
    ) {
        let mut pts: Vec<Point> = xy
            .iter()
            .map(|&(x, y)| Point::new(vec![x, 0.5, y]))
            .collect();
        pts.sort_by(|p, q| p.as_slice()[0]
            .total_cmp(&q.as_slice()[0])
            .then(p.as_slice()[2].total_cmp(&q.as_slice()[2])));
        pts.dedup_by(|p, q| dist_sq(p, q) <= 1e-12);
        prop_assume!(pts.len() >= 2);
        let strategy = BuildStrategy::ALL[strat_pick];
        let index = NnCellIndex::build(pts.clone(), BuildConfig::builder().strategy(strategy).seed(8).build()).unwrap();
        for q in &queries {
            let got = nn(&index, q).unwrap();
            let want = linear_scan_nn(&pts, q).unwrap();
            prop_assert!(
                (got.dist - want.dist).abs() < 1e-9,
                "{strategy:?} constant-coordinate inexact at {q:?}"
            );
        }
    }

    /// Exact duplicates: rejected with a typed error under the default
    /// policy, silently dropped under `Skip` — and the skipping build still
    /// answers exactly.
    #[test]
    fn duplicates_reject_or_skip_exactly(
        xy in prop::collection::vec((coord(), coord()), 3..15),
        dup_picks in prop::collection::vec(0usize..15, 1..5),
        queries in prop::collection::vec(prop::collection::vec(coord(), 2), 6),
    ) {
        let mut base: Vec<Point> = xy.iter().map(|&(x, y)| Point::new(vec![x, y])).collect();
        base.sort_by(|p, q| p.as_slice()[0]
            .total_cmp(&q.as_slice()[0])
            .then(p.as_slice()[1].total_cmp(&q.as_slice()[1])));
        base.dedup_by(|p, q| p.as_slice() == q.as_slice());
        prop_assume!(base.len() >= 2);
        let mut with_dups = base.clone();
        let mut n_dups = 0usize;
        for &k in &dup_picks {
            with_dups.push(base[k % base.len()].clone());
            n_dups += 1;
        }

        // Default policy: typed rejection naming the duplicate.
        match NnCellIndex::build(with_dups.clone(), BuildConfig::builder().strategy(BuildStrategy::Sphere).build()) {
            Err(BuildError::DuplicatePoint { id, of }) => {
                prop_assert!(id >= base.len() && of < id);
                prop_assert_eq!(
                    with_dups[id].as_slice(),
                    with_dups[of].as_slice()
                );
            }
            Err(other) => prop_assert!(false, "expected DuplicatePoint, got {other}"),
            Ok(_) => prop_assert!(false, "duplicate input accepted under Reject policy"),
        }

        // Skip policy: duplicates recorded and dropped, result exact.
        let index = NnCellIndex::build(
            with_dups,
            BuildConfig::builder().strategy(BuildStrategy::Sphere).input_policy(InputPolicy::Skip).build(),
        )
        .unwrap();
        prop_assert_eq!(index.build_stats().skipped_points, n_dups);
        prop_assert_eq!(index.len(), base.len());
        for q in &queries {
            let got = nn(&index, q).unwrap();
            let want = linear_scan_nn(&base, q).unwrap();
            prop_assert!(
                (got.dist - want.dist).abs() < 1e-9,
                "skip-policy inexact at {q:?}"
            );
        }
    }
}
