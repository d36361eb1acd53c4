//! Cross-crate integration tests: full pipelines from generator to query.

use nncell::cells::{average_overlap, NnCells};
use nncell::core::{
    linear_scan_nn, BuildConfig, NnCellIndex, Query, QueryEngine, QueryScratch, Strategy,
};
use nncell::data::{
    ClusteredGenerator, FourierGenerator, Generator, GridGenerator, SparseGenerator,
    UniformGenerator,
};
use nncell::geom::Point;
use nncell::index::{LinearScan, RStarTree, XTree};
use std::time::{Duration, Instant};

/// NN through the typed engine, with the removed shim's `Option` shape.
fn nn(idx: &NnCellIndex, q: &[f64]) -> Option<nncell::core::QueryResult> {
    QueryEngine::sequential(idx)
        .execute(&Query::nn(q))
        .ok()
        .map(|r| r.best)
}

fn queries(gen: &dyn Generator, n: usize, seed: u64) -> Vec<Vec<f64>> {
    gen.generate(n, seed)
        .into_iter()
        .map(Point::into_vec)
        .collect()
}

fn assert_index_exact(index: &NnCellIndex, points: &[Point], qs: &[Vec<f64>], label: &str) {
    for q in qs {
        let got = nn(index, q).expect("non-empty index");
        let want = linear_scan_nn(points, q).unwrap();
        assert!(
            (got.dist - want.dist).abs() < 1e-9,
            "{label}: inexact at q={q:?} ({} vs {})",
            got.dist,
            want.dist
        );
    }
}

#[test]
fn uniform_pipeline_all_strategies() {
    let gen = UniformGenerator::new(6);
    let points = gen.generate(400, 100);
    let qs = queries(&gen, 80, 101);
    for strategy in [
        Strategy::CorrectPruned,
        Strategy::Point,
        Strategy::Sphere,
        Strategy::NnDirection,
    ] {
        let index = NnCellIndex::build(
            points.clone(),
            BuildConfig::builder().strategy(strategy).build(),
        )
        .unwrap();
        assert_index_exact(&index, &points, &qs, strategy.name());
    }
}

#[test]
fn fourier_pipeline_with_decomposition() {
    let gen = FourierGenerator::new(8);
    let points = gen.generate(500, 200);
    let qs = queries(&gen, 60, 201);
    let index = NnCellIndex::build(
        points.clone(),
        BuildConfig::builder()
            .strategy(Strategy::Sphere)
            .decompose_pieces(4)
            .build(),
    )
    .unwrap();
    assert_index_exact(&index, &points, &qs, "fourier+decomp");
}

#[test]
fn clustered_pipeline_nn_direction() {
    let gen = ClusteredGenerator::new(5, 4, 0.04);
    let points = gen.generate(400, 300);
    let qs = queries(&UniformGenerator::new(5), 60, 301);
    let index = NnCellIndex::build(
        points.clone(),
        BuildConfig::builder()
            .strategy(Strategy::NnDirection)
            .build(),
    )
    .unwrap();
    assert_index_exact(&index, &points, &qs, "clustered");
}

#[test]
fn sparse_data_has_worse_overlap_than_grid() {
    // The paper's best case (grid) vs worst case (sparse): overlap ordering
    // must hold (figure 2).
    let n = 64;
    let overlap = |pts: Vec<Point>| {
        let index = NnCellIndex::build(
            pts,
            BuildConfig::builder().strategy(Strategy::Correct).build(),
        )
        .unwrap();
        average_overlap(NnCells::build(&index).cells())
    };
    let grid_overlap = overlap(GridGenerator::new(2).generate(n, 0));
    let sparse_overlap = overlap(SparseGenerator::new(2).generate(n, 1));
    assert!(
        grid_overlap < 1e-6,
        "grid approximations tile exactly: {grid_overlap}"
    );
    assert!(
        sparse_overlap > grid_overlap + 0.5,
        "sparse must overlap far more: {sparse_overlap} vs {grid_overlap}"
    );
}

#[test]
fn all_engines_agree_on_fourier_workload() {
    let dim = 8;
    let gen = FourierGenerator::new(dim);
    let points = gen.generate(600, 400);
    let qs = queries(&gen, 50, 401);

    let nncell = NnCellIndex::build(
        points.clone(),
        BuildConfig::builder().strategy(Strategy::Sphere).build(),
    )
    .unwrap();
    let mut xtree = XTree::for_points(dim);
    let mut rstar = RStarTree::for_points(dim);
    let mut scan = LinearScan::new(dim);
    for (i, p) in points.iter().enumerate() {
        xtree.insert_point(p, i as u64);
        rstar.insert_point(p, i as u64);
        scan.insert(p, i as u64);
    }
    for q in &qs {
        let a = nn(&nncell, q).unwrap();
        let b = xtree.nearest_neighbor(q).unwrap();
        let c = rstar.nearest_neighbor(q).unwrap();
        let d = scan.nearest_neighbor(q).unwrap();
        assert_eq!(a.id, d.id as usize, "nncell vs scan");
        assert_eq!(b.id, d.id, "xtree vs scan");
        assert_eq!(c.id, d.id, "rstar vs scan");
    }
}

#[test]
fn nncell_beats_tree_nn_on_search_time_high_dim() {
    // The index's query engine — a MINDIST-ordered best-first traversal of
    // its point X-tree that evaluates each streamed leaf in one pass —
    // beats the R*-tree's NN search in total search time at d = 12, and
    // stays selective. (The page-access standing depends on database
    // scale — the paper ran 100k points; see EXPERIMENTS.md.) Both arms are
    // timed alike: the queries are built once, the engine reuses one warm
    // scratch, and each arm's best of 5 rounds is compared, the arm that
    // goes first alternating, so one stalled round decides nothing.
    let dim = 12;
    let n = 2_000;
    let rounds = 5;
    let gen = UniformGenerator::new(dim);
    let points = gen.generate(n, 500);
    let qs = queries(&gen, 200, 501);

    let nncell = NnCellIndex::build(
        points.clone(),
        BuildConfig::builder()
            .strategy(Strategy::CorrectPruned)
            .build(),
    )
    .unwrap();
    let mut rstar = RStarTree::for_points(dim);
    for (i, p) in points.iter().enumerate() {
        rstar.insert_point(p, i as u64);
    }

    let engine = QueryEngine::sequential(&nncell);
    let nn_queries: Vec<Query> = qs.iter().map(|q| Query::nn(q.clone())).collect();
    let mut scratch = QueryScratch::new();
    // One round of the engine: its time, answers and summed candidates.
    let mut engine_round = || {
        let mut candidates = 0usize;
        let t0 = Instant::now();
        let ids: Vec<usize> = nn_queries
            .iter()
            .map(|q| {
                let r = engine.execute_with(&mut scratch, q).unwrap();
                candidates += r.stats.candidates;
                r.best.id
            })
            .collect();
        (t0.elapsed(), ids, candidates)
    };
    let rstar_round = || {
        let t0 = Instant::now();
        let ids: Vec<usize> = qs
            .iter()
            .map(|q| rstar.nearest_neighbor(q).unwrap().id as usize)
            .collect();
        (t0.elapsed(), ids)
    };
    let (mut t_engine, mut t_rstar) = (Duration::MAX, Duration::MAX);
    let mut total_candidates = 0;
    for round in 0..rounds {
        let (e, r) = if round % 2 == 0 {
            let e = engine_round();
            (e, rstar_round())
        } else {
            let r = rstar_round();
            (engine_round(), r)
        };
        assert_eq!(e.1, r.1, "both engines are exact");
        t_engine = t_engine.min(e.0);
        t_rstar = t_rstar.min(r.0);
        total_candidates = e.2;
    }

    // Selectivity: the point query inspects a fraction of the database.
    assert!(
        total_candidates < qs.len() * n / 2,
        "point query must stay selective: {} candidates/query at N={n}",
        total_candidates / qs.len()
    );
    assert!(
        t_engine < t_rstar,
        "the point X-tree's best-first search ({t_engine:?}) should beat the R*-tree's \
         NN search ({t_rstar:?}) at d={dim}, best of {rounds} rounds each"
    );
}

#[test]
fn grow_shrink_grow_lifecycle() {
    let gen = UniformGenerator::new(3);
    let mut reference: Vec<(usize, Point)> = Vec::new();
    let mut index = NnCellIndex::new(3, BuildConfig::builder().strategy(Strategy::Sphere).build());

    // Grow.
    for (next, p) in gen.generate(150, 600).into_iter().enumerate() {
        let id = index.insert(p.clone()).unwrap();
        assert_eq!(id, next);
        reference.push((id, p));
    }
    // Shrink.
    for k in (0..reference.len()).step_by(3).rev() {
        let (id, _) = reference[k];
        assert!(index.remove(id));
        reference.remove(k);
    }
    // Grow again.
    for p in gen.generate(60, 601) {
        let id = index.insert(p.clone()).unwrap();
        reference.push((id, p));
    }
    assert_eq!(index.len(), reference.len());

    let live: Vec<Point> = reference.iter().map(|(_, p)| p.clone()).collect();
    for q in queries(&gen, 60, 602) {
        let got = nn(&index, &q).unwrap();
        let want = linear_scan_nn(&live, &q).unwrap();
        assert!((got.dist - want.dist).abs() < 1e-9, "lifecycle inexact");
    }
}
