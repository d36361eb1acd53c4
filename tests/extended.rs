//! Extended integration tests: persistence, kNN, weighted metrics, CLI-less
//! end-to-end flows, and failure paths.

use nncell::core::{
    linear_scan_knn, linear_scan_nn, BuildConfig, BuildError, InputPolicy, NnCellIndex, NnCells,
    PersistError, Query, QueryEngine, Strategy,
};
use nncell::data::{FourierGenerator, Generator, UniformGenerator};
use nncell::geom::{Metric, Point, WeightedEuclidean};

/// NN through the typed engine, with the removed shim's `Option` shape.
fn nn<M: Metric>(idx: &NnCellIndex<M>, q: &[f64]) -> Option<nncell::core::QueryResult> {
    QueryEngine::sequential(idx)
        .execute(&Query::nn(q))
        .ok()
        .map(|r| r.best)
}

/// k-NN through the typed engine; empty on any query error.
fn knn<M: Metric>(idx: &NnCellIndex<M>, q: &[f64], k: usize) -> Vec<nncell::core::QueryResult> {
    QueryEngine::sequential(idx)
        .execute(&Query::knn(q, k))
        .map(|r| r.into_results())
        .unwrap_or_default()
}

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("nncell_it_{name}_{}", std::process::id()))
}

#[test]
fn persistence_roundtrip_preserves_exactness_and_updates() {
    let gen = UniformGenerator::new(4);
    let points = gen.generate(300, 700);
    let index = NnCellIndex::build(
        points.clone(),
        BuildConfig::builder().strategy(Strategy::Sphere)
            .decompose_pieces(4)
            .seed(7).build(),
    )
    .unwrap();
    let path = tmp("roundtrip");
    index.save(&path).unwrap();
    let mut loaded = NnCellIndex::load(&path).unwrap();
    std::fs::remove_file(&path).ok();

    // Identical answers without any LP rerun.
    let mut all = points.clone();
    for q in gen.generate(60, 701) {
        let got = nn(&loaded, &q).unwrap();
        let want = linear_scan_nn(&all, &q).unwrap();
        assert_eq!(got.id, want.id);
    }
    // And the loaded index remains dynamic.
    for p in gen.generate(40, 702) {
        loaded.insert(p.clone()).unwrap();
        all.push(p);
    }
    for q in gen.generate(30, 703) {
        let got = nn(&loaded, &q).unwrap();
        let want = linear_scan_nn(&all, &q).unwrap();
        assert!((got.dist - want.dist).abs() < 1e-9);
    }
}

#[test]
fn knn_results_match_scan_ordering() {
    let gen = FourierGenerator::new(6);
    let points = gen.generate(400, 800);
    let index =
        NnCellIndex::build(points.clone(), BuildConfig::builder().strategy(Strategy::NnDirection).build()).unwrap();
    for q in gen.generate(20, 801) {
        let got = knn(&index, &q, 7);
        let want = linear_scan_knn(&points, &q, 7);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want.iter()) {
            assert!((g.dist - w.dist).abs() < 1e-9, "knn ordering mismatch");
        }
    }
}

#[test]
fn weighted_metric_pipeline_with_decomposition() {
    let metric = WeightedEuclidean::new(vec![5.0, 1.0, 0.2]);
    let points = UniformGenerator::new(3).generate(250, 900);
    let index = NnCellIndex::build_with_metric(
        points.clone(),
        BuildConfig::builder().strategy(Strategy::CorrectPruned).decompose_pieces(4).build(),
        metric.clone(),
    )
    .unwrap();
    for q in UniformGenerator::new(3).generate(60, 901) {
        let got = nn(&index, &q).unwrap();
        let want = points
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                metric
                    .dist_sq(&q, a)
                    .partial_cmp(&metric.dist_sq(&q, b))
                    .unwrap()
            })
            .map(|(i, _)| i)
            .unwrap();
        assert_eq!(got.id, want);
    }
}

#[test]
fn corrupted_index_files_are_rejected_not_mislaoded() {
    let points = UniformGenerator::new(2).generate(50, 1000);
    let index = NnCellIndex::build(points, BuildConfig::builder().strategy(Strategy::Point).build()).unwrap();
    let path = tmp("corrupt");
    index.save(&path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    // Flip a byte inside the piece payload region.
    let k = bytes.len() - 9;
    bytes[k] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();
    match NnCellIndex::load(&path) {
        // Either the corruption is caught structurally ...
        Err(PersistError::Corrupt(_)) => {}
        // ... or it only altered box geometry, which the loader cannot
        // semantically validate; both are acceptable, silent UB is not.
        Ok(_) => {}
        Err(e) => panic!("unexpected error kind: {e}"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn duplicate_points_do_not_break_exactness() {
    // The paper assumes distinct points; the implementation enforces that
    // assumption with a typed error by default and, under `Skip`, drops the
    // duplicates without losing exactness.
    let mut points = UniformGenerator::new(3).generate(80, 1100);
    points.push(points[10].clone());
    points.push(points[10].clone());
    match NnCellIndex::build(points.clone(), BuildConfig::builder().strategy(Strategy::Sphere).build()) {
        Err(BuildError::DuplicatePoint { id: 80, of: 10 }) => {}
        Err(other) => panic!("expected DuplicatePoint {{ id: 80, of: 10 }}, got {other}"),
        Ok(_) => panic!("duplicate input accepted under the default Reject policy"),
    }
    let index = NnCellIndex::build(
        points.clone(),
        BuildConfig::builder().strategy(Strategy::Sphere).input_policy(InputPolicy::Skip).build(),
    )
    .unwrap();
    assert_eq!(index.build_stats().skipped_points, 2);
    for q in UniformGenerator::new(3).generate(40, 1101) {
        let got = nn(&index, &q).unwrap();
        let want = linear_scan_nn(&points, &q).unwrap();
        assert!(
            (got.dist - want.dist).abs() < 1e-9,
            "duplicates broke exactness"
        );
    }
}

#[test]
fn single_point_database() {
    let index = NnCellIndex::build(
        vec![Point::new(vec![0.3, 0.7])],
        BuildConfig::builder().strategy(Strategy::Correct).build(),
    )
    .unwrap();
    let r = nn(&index, &[0.9, 0.1]).unwrap();
    assert_eq!(r.id, 0);
    // The lone cell must be the whole data space.
    let cells = NnCells::build(&index);
    let cell = cells.cell(0).unwrap();
    assert!((cell.volume() - 1.0).abs() < 1e-9);
}

#[test]
fn malformed_queries_return_none_not_panic() {
    let index = NnCellIndex::build(
        vec![Point::new(vec![0.3, 0.7]), Point::new(vec![0.6, 0.1])],
        BuildConfig::builder().strategy(Strategy::Correct).build(),
    )
    .unwrap();
    // Wrong dimension, NaN, and infinity have no meaningful answer; the
    // panic-free contract maps them to "no result".
    assert!(nn(&index, &[0.5]).is_none());
    assert!(nn(&index, &[0.5, f64::NAN]).is_none());
    assert!(nn(&index, &[f64::INFINITY, 0.5]).is_none());
    assert!(knn(&index, &[0.5], 3).is_empty());
    // A well-formed query still works.
    assert!(nn(&index, &[0.5, 0.5]).is_some());
}
