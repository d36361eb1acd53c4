//! Property-based tests of the paper's two lemmas: on the NN-cells under
//! every construction setting and under dynamic updates, and on the point
//! index that serves queries.

use nncell_core::{
    linear_scan_nn, BuildConfig, ConstraintPool, NnCellIndex, NnCells, Query, QueryEngine,
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

fn point_set(d: usize, min: usize, max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(prop::collection::vec(coord(), d), min..max).prop_filter_map(
        "distinct points",
        |pts| {
            for (i, p) in pts.iter().enumerate() {
                for q in pts.iter().skip(i + 1) {
                    if dist_sq(p, q) <= 1e-9 {
                        return None;
                    }
                }
            }
            Some(pts.into_iter().map(Point::new).collect())
        },
    )
}

/// The checks of `lemma2_cells_stay_exact_under_updates` for one state.
fn check_cells(
    index: &NnCellIndex,
    cells: &NnCells,
    live: &[(usize, Point)],
    queries: &[Vec<f64>],
    what: &str,
) -> Result<(), proptest::TestCaseError> {
    let reference: Vec<Point> = live.iter().map(|(_, p)| p.clone()).collect();
    for q in queries {
        let want = linear_scan_nn(&reference, q).unwrap();
        let winner = live[want.id].0;
        let got = cells.nn(index, q).unwrap();
        prop_assert_eq!(got.id, winner, "{}: wrong id at {:?}", what, q);
        prop_assert_eq!(got.dist.to_bits(), want.dist.to_bits(), "{}: distance bits at {:?}", what, q);
        let cell = cells.cell(winner).unwrap();
        prop_assert!(
            cell.pieces.iter().any(|m| m.contains_point(q)),
            "{}: cell {} does not contain {:?}",
            what,
            winner,
            q
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every strategy, both constraint pools and both decomposition
    /// settings, each followed by random inserts and removals mirrored into
    /// the cells. After every step the paper's query is bit-identical to a
    /// scan of the live points — id (ties go to the lower id) and distance
    /// bits — and the scan winner's cell contains the query (Lemmas 1/2).
    #[test]
    fn lemma2_cells_stay_exact_under_updates(
        initial in point_set(3, 4, 24),
        extra in point_set(3, 1, 8),
        del_pick in prop::collection::vec(0usize..24, 0..8),
        queries in prop::collection::vec(prop::collection::vec(coord(), 3), 6),
    ) {
        let strategies = [
            BuildStrategy::Correct,
            BuildStrategy::CorrectPruned,
            BuildStrategy::Point,
            BuildStrategy::Sphere,
            BuildStrategy::NnDirection,
        ];
        for strategy in strategies {
            for pooled in [false, true] {
                for pieces in [1usize, 3] {
                    let mut cfg = BuildConfig::builder()
                        .strategy(strategy)
                        .decompose_pieces(pieces)
                        .seed(17);
                    if pooled {
                        cfg = cfg.constraint_pool(ConstraintPool::ApproxKnn { k: 4 });
                    }
                    let what = format!("{strategy:?} pooled={pooled} pieces={pieces}");
                    let mut index = NnCellIndex::build(initial.clone(), cfg.build()).unwrap();
                    let mut cells = NnCells::build(&index);
                    // Ascending ids, so scan positions break ties like ids.
                    let mut live: Vec<(usize, Point)> =
                        initial.iter().cloned().enumerate().collect();
                    check_cells(&index, &cells, &live, &queries, &what)?;
                    for (step, p) in extra.iter().enumerate() {
                        // Skip exact duplicates of anything live.
                        if live.iter().any(|(_, q)| dist_sq(p, q) <= 1e-9) {
                            continue;
                        }
                        let id = index.insert(p.clone()).unwrap();
                        cells.insert(&index, id);
                        live.push((id, p.clone()));
                        check_cells(&index, &cells, &live, &queries, &what)?;
                        if let Some(&k) = del_pick.get(step) {
                            let (victim, _) = live.remove(k % live.len());
                            prop_assert!(index.remove(victim));
                            cells.remove(&index, victim);
                            check_cells(&index, &cells, &live, &queries, &what)?;
                        }
                    }
                    prop_assert_eq!(index.build_stats().lp.lp_calls, 0);
                }
            }
        }
    }

    #[test]
    fn lemma1_heuristics_contain_correct(
        pts in point_set(2, 3, 20),
        strat_pick in 0usize..3,
    ) {
        let heuristic = [BuildStrategy::Point, BuildStrategy::Sphere, BuildStrategy::NnDirection][strat_pick];
        let cells_of = |strategy| {
            let index = NnCellIndex::build(pts.clone(), BuildConfig::builder().strategy(strategy).build()).unwrap();
            NnCells::build(&index)
        };
        let (correct, approx) = (cells_of(BuildStrategy::Correct), cells_of(heuristic));
        for i in 0..pts.len() {
            let exact = &correct.cell(i).unwrap().pieces[0];
            let loose = &approx.cell(i).unwrap().pieces[0];
            prop_assert!(
                loose.contains_mbr(exact),
                "{heuristic:?} violates Lemma 1 on cell {i}: {loose:?} !⊇ {exact:?}"
            );
        }
    }

    #[test]
    fn dynamic_insert_remove_exact(
        initial in point_set(2, 4, 20),
        extra in point_set(2, 1, 8),
        del_pick in prop::collection::vec(0usize..20, 0..6),
        queries in prop::collection::vec(prop::collection::vec(coord(), 2), 6),
    ) {
        let mut index = NnCellIndex::build(
            initial.clone(),
            BuildConfig::builder().strategy(BuildStrategy::Sphere).seed(23).build(),
        )
        .unwrap();
        let mut live: Vec<(usize, Point)> =
            initial.iter().cloned().enumerate().collect();
        // Interleave inserts and removals.
        for (step, p) in extra.iter().enumerate() {
            // Skip exact duplicates of anything live (distinctness assumption).
            if live.iter().any(|(_, q)| dist_sq(p, q) <= 1e-9) {
                continue;
            }
            let id = index.insert(p.clone()).unwrap();
            live.push((id, p.clone()));
            if let Some(&k) = del_pick.get(step) {
                if !live.is_empty() {
                    let pos = k % live.len();
                    let (victim, _) = live[pos];
                    prop_assert!(index.remove(victim));
                    live.remove(pos);
                }
            }
        }
        let reference: Vec<Point> = live.iter().map(|(_, p)| p.clone()).collect();
        for q in &queries {
            match (nn(&index, q), linear_scan_nn(&reference, q)) {
                (Some(got), Some(want)) => prop_assert!(
                    (got.dist - want.dist).abs() < 1e-9,
                    "dynamic mix inexact at {q:?}"
                ),
                (None, None) => {}
                (a, b) => prop_assert!(false, "emptiness disagreement: {a:?} vs {b:?}"),
            }
        }
    }
}
