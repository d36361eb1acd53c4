//! Quickstart: build an index, run exact NN queries through the typed query
//! engine, inspect per-query costs, then build the paper's NN-cells.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use nncell::core::{linear_scan_nn, NnCells};
use nncell::data::{Generator, UniformGenerator};
use nncell::prelude::*;

fn main() {
    let dim = 8;
    let n = 2_000;

    println!("generating {n} uniform points in [0,1]^{dim} ...");
    let points = UniformGenerator::new(dim).generate(n, 42);

    println!("building the index ...");
    let index = NnCellIndex::build(points.clone(), BuildConfig::builder().strategy(Strategy::Sphere).build())
        .expect("build failed");
    println!("  built in {:.3}s (one STR bulk load)", index.build_stats().seconds);

    // The engine is the query API: typed errors in, responses with
    // per-query stats out.
    let engine = index.engine();
    let queries: Vec<Query> = UniformGenerator::new(dim)
        .generate(5, 7)
        .iter()
        .map(|p| Query::nn(p.as_slice()))
        .collect();
    for (q, resp) in queries.iter().zip(engine.batch(&queries)) {
        let resp = resp.expect("well-formed query on a non-empty index");
        // Exactness check against a linear scan.
        let scan = linear_scan_nn(&points, q.point()).unwrap();
        assert_eq!(resp.best.id, scan.id, "the result must equal the scan");
        println!(
            "  query {:?}... -> point #{} at distance {:.4} \
             ({} candidates, {} pages)",
            &q.point()[..3.min(dim)],
            resp.best.id,
            resp.best.dist,
            resp.stats.candidates,
            resp.stats.pages
        );
    }

    println!("all answers verified against a linear scan.");

    // k-NN rides the same engine; malformed queries are typed errors, not
    // silent empties.
    let top3 = engine
        .execute(&Query::knn(queries[0].point().to_vec(), 3))
        .expect("well-formed query");
    println!(
        "top-3 of the first query: {:?}",
        top3.iter().map(|r| r.id).collect::<Vec<_>>()
    );
    let err = engine.execute(&Query::nn(vec![0.5])).unwrap_err();
    println!("a 1-d query on an {dim}-d index is rejected: {err}");

    // The paper's structure: one MBR per NN-cell from 2·d LPs, queried by
    // a point query plus a distance check — exact, as Lemma 2 promises.
    let cells = NnCells::build(&index);
    let bs = cells.build_stats();
    println!(
        "NN-cells built in {:.2}s — {} LPs over {} constraints, {} cell pieces",
        bs.seconds,
        bs.lp.lp_calls,
        bs.lp.constraints,
        cells.total_pieces()
    );
    let q = queries[1].point();
    assert_eq!(cells.nn(&index, q), linear_scan_nn(&points, q));

    // Save and reload the index.
    let path = std::env::temp_dir().join("quickstart.nncell");
    index.save(&path).expect("save");
    let reloaded = NnCellIndex::load(&path).expect("load");
    std::fs::remove_file(&path).ok();
    let q = &queries[0];
    assert_eq!(
        reloaded.engine().execute(q).unwrap().best.id,
        engine.execute(q).unwrap().best.id
    );
    println!("index round-tripped through disk ({} points).", reloaded.len());
}
