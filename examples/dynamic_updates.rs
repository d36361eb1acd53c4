//! Dynamic maintenance: the precomputed solution space supports inserts and
//! removals (section 2 of the paper, citing Roos's dynamic Voronoi
//! diagrams for the delete case) — and with the write-ahead log the
//! updates survive a crash, demonstrated at the end by dropping a durable
//! index without a checkpoint and recovering it.
//!
//! ```sh
//! cargo run --release --example dynamic_updates
//! ```

use nncell::core::{
    linear_scan_nn, BuildConfig, DurableIndex, NnCellIndex, NnCells, Query, Strategy,
};
use nncell::data::{ClusteredGenerator, Generator, UniformGenerator};
use nncell::geom::Point;

fn main() {
    let dim = 4;
    let initial = UniformGenerator::new(dim).generate(500, 10);
    let arrivals = ClusteredGenerator::new(dim, 3, 0.05).generate(200, 11);
    let queries: Vec<Vec<f64>> = UniformGenerator::new(dim)
        .generate(100, 12)
        .into_iter()
        .map(Point::into_vec)
        .collect();

    println!("initial build: {} points", initial.len());
    let mut index = NnCellIndex::build(
        initial.clone(),
        BuildConfig::builder().strategy(Strategy::Sphere).seed(5).build(),
    )
    .expect("build");
    // The paper's cells follow every update of the index (§3.5).
    let mut cells = NnCells::build(&index);
    let mut reference: Vec<Point> = initial;

    println!("inserting {} clustered arrivals ...", arrivals.len());
    for p in arrivals {
        let id = index.insert(p.clone()).expect("insert");
        cells.insert(&index, id);
        reference.push(p);
    }
    verify(&index, &reference, &queries, "after inserts");

    println!("removing every fifth point ...");
    let doomed: Vec<usize> = (0..reference.len()).step_by(5).collect();
    for &id in &doomed {
        assert!(index.remove(id));
        cells.remove(&index, id);
    }
    let survivors: Vec<Point> = reference
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 5 != 0)
        .map(|(_, p)| p.clone())
        .collect();
    // Query answers must now match a scan over the survivors only.
    let engine = index.engine();
    for q in &queries {
        let got = engine.execute(&Query::nn(q.clone())).unwrap().best;
        let want = linear_scan_nn(&survivors, q).unwrap();
        assert!(
            (got.dist - want.dist).abs() < 1e-9,
            "stale answer after delete at q={q:?}"
        );
        assert_eq!(cells.nn(&index, q), Some(got), "stale cell after delete at q={q:?}");
    }
    println!(
        "after removals: {} live points, all {} queries exact",
        index.len(),
        queries.len()
    );

    let bs = cells.build_stats();
    println!(
        "lifetime LP work of the cells: {} solves over {} constraints",
        bs.lp.lp_calls, bs.lp.constraints
    );

    // ---- Durability: the same updates, journaled, survive a crash. ----
    //
    // Hand the built index to a WAL-backed directory, apply more updates
    // (each fsynced to the journal before it is acknowledged), then
    // simulate a crash by dropping the handle WITHOUT a checkpoint or
    // close. Reopening replays the journal and every query answer is
    // unchanged.
    let dir = std::env::temp_dir().join(format!("nncell_dynamic_wal_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    println!("\nopening WAL-backed index at {} ...", dir.display());
    let mut durable = DurableIndex::create(&dir, index).expect("create durable dir");

    let late_arrivals = UniformGenerator::new(dim).generate(40, 13);
    let first_new_id = durable.points().len();
    for p in &late_arrivals {
        durable.insert(p.clone()).expect("journaled insert");
    }
    assert!(durable.remove(first_new_id).expect("journaled remove"));
    let expected: Vec<(usize, Option<Point>)> = (0..durable.points().len())
        .map(|i| (i, durable.is_live(i).then(|| durable.points()[i].clone())))
        .collect();
    let expected_answers: Vec<Option<usize>> = queries
        .iter()
        .map(|q| durable.query(&Query::nn(q.clone())).ok().map(|r| r.best.id))
        .collect();
    println!(
        "journaled {} updates ({} records pending replay) — crashing without checkpoint",
        late_arrivals.len() + 1,
        durable.wal_records()
    );
    drop(durable); // the crash: no checkpoint, no close

    let recovered = DurableIndex::open(&dir).expect("recover");
    println!(
        "recovered generation {}: {} records replayed, {} live points",
        recovered.recovery().generation,
        recovered.recovery().replayed,
        recovered.len()
    );
    for (i, slot) in &expected {
        match slot {
            Some(p) => assert!(
                recovered.is_live(*i) && recovered.points()[*i].as_slice() == p.as_slice(),
                "point #{i} lost in the crash"
            ),
            None => assert!(!recovered.is_live(*i), "removed point #{i} resurrected"),
        }
    }
    for (q, want) in queries.iter().zip(&expected_answers) {
        let got = recovered
            .query(&Query::nn(q.clone()))
            .ok()
            .map(|r| r.best.id);
        assert_eq!(&got, want, "query answer changed across the crash at q={q:?}");
    }
    println!(
        "all {} queries answer identically after recovery",
        queries.len()
    );
    recovered.close().expect("clean shutdown");
    std::fs::remove_dir_all(&dir).ok();
}

fn verify(index: &NnCellIndex, reference: &[Point], queries: &[Vec<f64>], label: &str) {
    let batch: Vec<Query> = queries.iter().map(|q| Query::nn(q.clone())).collect();
    for (q, got) in queries.iter().zip(index.engine().batch(&batch)) {
        let got = got.expect("well-formed query").best;
        let want = linear_scan_nn(reference, q).unwrap();
        assert_eq!(got.id, want.id, "{label}: mismatch at q={q:?}");
    }
    println!(
        "{label}: {} points, all {} queries exact",
        index.len(),
        queries.len()
    );
}
