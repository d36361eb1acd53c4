//! Microbenchmarks: the primitive operations under the figures.
//!
//! Originally a criterion harness; rewritten on a hand-rolled timing loop
//! so the workspace builds without network access to crates.io. Each
//! benchmark warms up, then reports the median of `SAMPLES` timed batches.

use nncell_bench::env_usize;
use nncell_core::{BuildConfig, NnCellIndex, NnCells, Strategy};
use nncell_data::{Generator, UniformGenerator};
use nncell_geom::{DataSpace, Euclidean, Mbr};
use nncell_index::{RStarTree, XTree};
use nncell_lp::{SolverKind, VoronoiLp};
use std::time::Instant;

const SAMPLES: usize = 15;

/// Times `f` (run `batch` times per sample) and prints the median
/// per-iteration latency.
fn bench<T>(name: &str, batch: usize, mut f: impl FnMut() -> T) {
    // Warm-up.
    for _ in 0..batch.min(16) {
        std::hint::black_box(f());
    }
    let mut per_iter: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            t.elapsed().as_secs_f64() / batch as f64
        })
        .collect();
    per_iter.sort_by(f64::total_cmp);
    let median = per_iter[per_iter.len() / 2];
    println!("{name:<42} {:>12.3} µs/iter", median * 1e6);
}

fn bench_lp() {
    let d = 8;
    let points = UniformGenerator::new(d).generate(200, 1);
    let vlp_s = VoronoiLp::new(Euclidean, DataSpace::unit(d), SolverKind::Simplex);
    let vlp_z = VoronoiLp::new(Euclidean, DataSpace::unit(d), SolverKind::Seidel);
    let rivals: Vec<&[f64]> = points[1..].iter().map(|p| p.as_slice()).collect();
    let cons = vlp_s.bisectors(&points[0], rivals.iter().copied());

    bench("lp_cell_extents_d8_m199/simplex", 4, || {
        vlp_s.extents(&cons, 7).unwrap()
    });
    bench("lp_cell_extents_d8_m199/seidel", 4, || {
        vlp_z.extents(&cons, 7).unwrap()
    });
}

fn bench_tree_ops() {
    let d = 8;
    let n = env_usize("NNCELL_N", 2_000);
    let points = UniformGenerator::new(d).generate(n, 2);
    let queries = UniformGenerator::new(d).generate(64, 3);

    let mut rstar = RStarTree::for_points(d);
    let mut xtree = XTree::for_points(d);
    for (i, p) in points.iter().enumerate() {
        rstar.insert_point(p, i as u64);
        xtree.insert_point(p, i as u64);
    }

    let mut k = 0;
    bench("tree_nn_query_d8/rstar_branch_bound", 64, || {
        k = (k + 1) % queries.len();
        rstar.nearest_neighbor(&queries[k]).unwrap()
    });
    let mut k = 0;
    bench("tree_nn_query_d8/xtree_best_first", 64, || {
        k = (k + 1) % queries.len();
        xtree.nearest_neighbor(&queries[k]).unwrap()
    });

    let fresh = UniformGenerator::new(d).generate(256, 4);
    bench("tree_insert_d8/rstar_insert_256", 1, || {
        let mut t = RStarTree::for_points(d);
        for (i, p) in fresh.iter().enumerate() {
            t.insert(Mbr::from_point(p), i as u64);
        }
        t
    });
}

fn bench_nncell_query() {
    let d = 8;
    let points = UniformGenerator::new(d).generate(2_000, 5);
    let queries = UniformGenerator::new(d).generate(64, 6);
    let index = NnCellIndex::build(
        points,
        BuildConfig::builder().strategy(Strategy::NnDirection).seed(10).build(),
    )
    .expect("build");
    let cells = NnCells::build(&index);

    let mut k = 0;
    bench("nncell_point_query_d8_n2000", 64, || {
        k = (k + 1) % queries.len();
        cells.nn(&index, &queries[k]).unwrap()
    });
}

fn bench_cell_build() {
    let d = 8;
    let points = UniformGenerator::new(d).generate(300, 7);
    for strategy in [Strategy::Sphere, Strategy::NnDirection] {
        bench(&format!("cell_index_build_d8_n300/{}", strategy.name()), 1, || {
            let cfg = BuildConfig::builder().strategy(strategy).seed(11).build();
            NnCells::build(&NnCellIndex::build(points.clone(), cfg).unwrap())
        });
    }
}

fn main() {
    bench_lp();
    bench_tree_ops();
    bench_nncell_query();
    bench_cell_build();
}
