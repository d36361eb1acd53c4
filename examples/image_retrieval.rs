//! Content-based retrieval scenario from the paper's introduction:
//! similarity search over feature vectors of multimedia objects.
//!
//! We simulate a database of 8-dimensional Fourier shape descriptors (the
//! paper's real workload), then compare three exact engines on the same
//! queries: the index's best-first engine, a classic X-tree NN search, and
//! a linear scan — reporting latency and simulated page accesses for each.
//!
//! ```sh
//! cargo run --release --example image_retrieval
//! ```

use nncell::core::{BuildConfig, NnCellIndex, Query, Strategy};
use nncell::data::{FourierGenerator, Generator};
use nncell::index::{LinearScan, XTree};
use std::time::Instant;

fn main() {
    let dim = 8;
    let n = 4_000;
    let n_queries = 200;

    println!("simulated image database: {n} Fourier shape descriptors (d={dim})");
    let points = FourierGenerator::new(dim).generate(n, 1);
    // Queries: perturbed database objects — "find images similar to this one".
    let queries: Vec<Vec<f64>> = FourierGenerator::new(dim)
        .generate(n_queries, 2)
        .into_iter()
        .map(|p| p.into_vec())
        .collect();

    // Engine 1: the index and its batch engine.
    let t0 = Instant::now();
    let nncell = NnCellIndex::build(
        points.clone(),
        BuildConfig::builder().strategy(Strategy::Sphere).decompose_pieces(4).build(),
    )
    .expect("build failed");
    println!("index built in {:.3}s", t0.elapsed().as_secs_f64());

    // Engine 2: X-tree over the raw points.
    let mut xtree = XTree::for_points(dim);
    for (i, p) in points.iter().enumerate() {
        xtree.insert_point(p, i as u64);
    }

    // Engine 3: linear scan.
    let mut scan = LinearScan::new(dim);
    for (i, p) in points.iter().enumerate() {
        scan.insert(p, i as u64);
    }

    // Run the workload on all three engines. The index goes through its
    // batch engine — one warm scratch per worker thread.
    let batch: Vec<Query> = queries.iter().map(|q| Query::nn(q.clone())).collect();
    nncell.reset_stats();
    let t = Instant::now();
    let nncell_res: Vec<usize> = nncell
        .engine()
        .batch(&batch)
        .into_iter()
        .map(|r| r.expect("well-formed query").best.id)
        .collect();
    let nncell_time = t.elapsed().as_secs_f64();
    let nncell_io = nncell.point_tree_stats();

    xtree.reset_stats();
    let t = Instant::now();
    let xtree_res: Vec<usize> = queries
        .iter()
        .map(|q| xtree.nearest_neighbor(q).unwrap().id as usize)
        .collect();
    let xtree_time = t.elapsed().as_secs_f64();
    let xtree_io = xtree.stats();

    scan.reset_stats();
    let t = Instant::now();
    let scan_res: Vec<usize> = queries
        .iter()
        .map(|q| scan.nearest_neighbor(q).unwrap().id as usize)
        .collect();
    let scan_time = t.elapsed().as_secs_f64();
    let scan_io = scan.stats();

    assert_eq!(nncell_res, scan_res, "the index must be exact");
    assert_eq!(xtree_res, scan_res, "X-tree must be exact");

    println!("\n{n_queries} similarity queries, all three engines exact:\n");
    println!(
        "{:<12} {:>12} {:>16} {:>14}",
        "engine", "total time", "page reads", "reads/query"
    );
    for (name, time, reads) in [
        ("index", nncell_time, nncell_io.page_reads),
        ("X-tree", xtree_time, xtree_io.page_reads),
        ("scan", scan_time, scan_io.page_reads),
    ] {
        println!(
            "{:<12} {:>10.4}s {:>16} {:>14.1}",
            name,
            time,
            reads,
            reads as f64 / n_queries as f64
        );
    }
}
