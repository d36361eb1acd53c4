//! End-to-end observability checks: with a registry attached, every counter
//! and histogram in the snapshot agrees with the ground truth the engine and
//! index already report (`QueryResponse` stats, the live-point count, the
//! recovery report) — the registry is a mirror, never a second opinion.

use nncell_core::{
    BuildConfig, NnCellIndex, NnCells, Query, QueryScratch, QueryStats, Registry, ShardedIndex,
    Strategy,
};
use nncell_geom::Point;
use std::sync::Arc;

fn grid(n: usize) -> Vec<Point> {
    (0..n)
        .map(|i| {
            Point::new(vec![
                ((i * 37) % n) as f64 / n as f64 + 0.003,
                ((i * 113) % n) as f64 / n as f64 + 0.003,
            ])
        })
        .collect()
}

fn cfg() -> BuildConfig {
    BuildConfig::builder().strategy(Strategy::Sphere).seed(11).build()
}

#[test]
fn registry_counters_agree_with_engine_and_index() {
    let mut index = NnCellIndex::build(grid(120), cfg()).unwrap();
    let registry = Registry::new();
    index.attach_metrics(registry.clone());
    // Attaching twice is a harmless no-op.
    index.attach_metrics(registry.clone());

    // Mixed workload: in-space queries, a k-NN, an out-of-space query
    // (the traversal answers it; no fallback), a k ≥ len exact-scan
    // fallback and three malformed queries, the first on a cold scratch.
    let queries = vec![
        Query::nn([f64::NAN, 0.5]),
        Query::nn([0.21, 0.34]),
        Query::nn([0.91, 0.13]),
        Query::knn(vec![0.4, 0.6], 5),
        Query::nn([2.5, 2.5]),
        Query::knn(vec![0.7, 0.2], 120), // k ≥ len → exact-scan fallback
        Query::nn([f64::NAN, 0.2]),
        Query::knn(vec![0.1, 0.2, 0.3], 2), // dim mismatch
    ];
    let engine = index.engine().with_threads(1);
    let mut scratch = QueryScratch::new();
    let results: Vec<_> = queries
        .iter()
        .map(|q| engine.execute_with(&mut scratch, q))
        .collect();

    let ok: Vec<_> = results.iter().filter_map(|r| r.as_ref().ok()).collect();
    let errors = results.iter().filter(|r| r.is_err()).count() as u64;
    let fallbacks = ok.iter().filter(|r| r.stats.fallback).count() as u64;
    assert_eq!(fallbacks, 1, "only the k ≥ len query falls back");
    let total_candidates: u64 = ok.iter().map(|r| r.stats.candidates as u64).sum();
    let total_pages: u64 = ok.iter().map(|r| r.stats.pages).sum();

    let snap = registry.snapshot();
    assert_eq!(
        snap.counter("nncell_queries_total"),
        Some(queries.len() as u64)
    );
    assert_eq!(snap.counter("nncell_query_errors_total"), Some(errors));
    assert_eq!(snap.counter("nncell_query_fallback_total"), Some(fallbacks));
    let latency = snap.histogram("nncell_query_latency_ns").unwrap();
    assert_eq!(latency.count(), ok.len() as u64);
    assert!(latency.sum > 0);
    let candidates = snap.histogram("nncell_query_candidates").unwrap();
    assert_eq!(candidates.count(), ok.len() as u64);
    assert_eq!(candidates.sum, total_candidates);
    let pages = snap.histogram("nncell_query_pages").unwrap();
    assert_eq!(pages.sum, total_pages);
    // Each serving traversal bills the point tree once, with the page
    // count it reports, and a build reads no page: before any update, the
    // tree's read counters equal the summed per-query page counts.
    assert_eq!(
        snap.counter("nncell_point_tree_page_reads_total"),
        Some(pages.sum)
    );
    assert_eq!(index.point_tree_stats().page_reads, total_pages);

    // Structural gauges match the accessors; the index runs no LP, so no
    // LP family is registered.
    assert_eq!(snap.gauge("nncell_live_points"), Some(index.len() as i64));
    assert_eq!(snap.counter("nncell_lp_calls_total"), None);

    // Dynamic updates keep the gauge in sync.
    let id = index.insert(Point::new(vec![0.511, 0.377])).unwrap();
    index.remove(id);
    let snap = registry.snapshot();
    assert_eq!(snap.gauge("nncell_live_points"), Some(index.len() as i64));

    // The tree counters mirror the cost trackers' lifetime totals (reads
    // happened during the queries above).
    assert!(snap.counter("nncell_point_tree_page_reads_total").unwrap() > 0);

    // Both render targets name every metric.
    let prom = snap.to_prometheus();
    let json = snap.to_json();
    for name in [
        "nncell_queries_total",
        "nncell_query_latency_ns",
        "nncell_live_points",
        "nncell_point_tree_page_reads_total",
    ] {
        assert!(prom.contains(name), "prometheus output missing {name}");
        assert!(json.contains(name), "json output missing {name}");
    }
}

/// A sharded query is one unit of work, recorded once: the unlabeled
/// query series count the workload, the work histograms sum to the
/// responses' totals, and only what differs per shard — its point tree's
/// page reads and its live points — carries a `shard` label. Attaching
/// binds the published shards in place, copying none.
#[test]
fn a_sharded_query_is_counted_once() {
    const S: usize = 3;
    let index = ShardedIndex::build(grid(90), S, cfg()).unwrap();
    let before: Vec<_> = (0..S).map(|i| index.shard(i)).collect();
    let registry = Registry::new();
    index.attach_metrics(registry.clone());
    for (i, shard) in before.iter().enumerate() {
        assert!(
            Arc::ptr_eq(shard, &index.shard(i)),
            "attaching copied shard {i}"
        );
    }
    let queries = [
        Query::nn([0.21, 0.34]),
        Query::knn(vec![0.4, 0.6], 5),
        Query::radius([0.5, 0.5], 0.2),
        Query::knn(vec![0.7, 0.2], 90), // k ≥ len → exact-scan fallback
        Query::nn([f64::NAN, 0.2]),
        Query::knn(vec![0.1, 0.2, 0.3], 2), // dim mismatch
    ];
    let results: Vec<_> = queries.iter().map(|q| index.query(q)).collect();
    let ok: Vec<_> = results.iter().filter_map(|r| r.as_ref().ok()).collect();
    let errors = results.iter().filter(|r| r.is_err()).count() as u64;
    let fallbacks = ok.iter().filter(|r| r.stats.fallback).count() as u64;
    assert_eq!((errors, fallbacks), (2, 1));

    let snap = registry.snapshot();
    assert_eq!(
        snap.counter("nncell_queries_total"),
        Some(queries.len() as u64)
    );
    assert_eq!(snap.counter("nncell_query_errors_total"), Some(errors));
    assert_eq!(snap.counter("nncell_query_fallback_total"), Some(fallbacks));
    let latency = snap.histogram("nncell_query_latency_ns").unwrap();
    assert_eq!(latency.count(), ok.len() as u64);
    assert_eq!(
        snap.sum_counters("nncell_queries_total"),
        Some(queries.len() as u64)
    );
    for i in 0..S {
        assert_eq!(
            snap.counter(&format!("nncell_queries_total{{shard=\"{i}\"}}")),
            None
        );
    }

    let total = |f: fn(&QueryStats) -> u64| ok.iter().map(|r| f(&r.stats)).sum::<u64>();
    let pages = total(|s| s.pages);
    for (name, want) in [
        ("nncell_query_candidates", total(|s| s.candidates as u64)),
        ("nncell_query_pages", pages),
        ("nncell_query_nodes_pruned", total(|s| s.nodes_pruned)),
        (
            "nncell_query_candidates_examined",
            total(|s| s.candidates_examined as u64),
        ),
        (
            "nncell_query_candidates_aborted",
            total(|s| s.candidates_aborted_early as u64),
        ),
    ] {
        assert_eq!(snap.histogram(name).unwrap().sum, want, "{name}");
    }
    // Each tree bills its own pages; the build read none.
    let page_reads: u64 = (0..S)
        .map(|i| {
            snap.counter(&format!(
                "nncell_point_tree_page_reads_total{{shard=\"{i}\"}}"
            ))
            .unwrap()
        })
        .sum();
    assert_eq!(page_reads, pages);

    // Each shard's gauge reads its published index, before and after a
    // fold publishes the writes.
    let gauges_match_shards = || {
        let snap = registry.snapshot();
        for i in 0..S {
            assert_eq!(
                snap.gauge(&format!("nncell_live_points{{shard=\"{i}\"}}")),
                Some(index.shard(i).len() as i64),
                "shard {i}"
            );
        }
    };
    gauges_match_shards();
    for p in [[0.1234, 0.5678], [0.8765, 0.4321], [0.2468, 0.1357]] {
        index.insert(Point::new(p.to_vec())).unwrap();
    }
    assert!(index.remove(4).unwrap());
    gauges_match_shards();
    index.flush().unwrap();
    gauges_match_shards();
    assert_eq!(
        index.shard(1).len(),
        30,
        "shard 1 took an insert and a remove"
    );
    assert_eq!(index.shard(0).len(), 31);
}

#[test]
fn engine_without_metrics_records_nothing() {
    let mut index = NnCellIndex::build(grid(60), cfg()).unwrap();
    let registry = Registry::new();
    index.attach_metrics(registry.clone());
    let engine = index.engine().with_threads(1).without_metrics();
    engine.execute(&Query::nn([0.3, 0.4])).unwrap();
    assert_eq!(registry.snapshot().counter("nncell_queries_total"), Some(0));
}

#[test]
fn slow_query_ring_captures_over_threshold_queries() {
    let mut index = NnCellIndex::build(grid(60), cfg()).unwrap();
    let registry = Registry::new();
    index.attach_metrics(registry.clone());
    let slow = Arc::clone(index.metrics().unwrap().engine().slow_log());
    slow.set_threshold_ns(0); // capture everything
    let engine = index.engine().with_threads(1);
    engine.execute(&Query::knn(vec![0.42, 0.17], 3)).unwrap();
    engine.execute(&Query::nn([0.8, 0.8])).unwrap();
    assert_eq!(slow.total_seen(), 2);
    let entries = slow.drain();
    assert_eq!(entries.len(), 2);
    assert_eq!(entries[0].k, 3);
    assert_eq!(entries[0].point, vec![0.42, 0.17]);
    assert!(entries[0].candidates > 0);
    // Errors never reach the ring.
    assert!(engine.execute(&Query::nn([f64::NAN, 0.0])).is_err());
    assert_eq!(slow.total_seen(), 2);
}

#[test]
fn durable_stack_reports_wal_and_rotation_counters() {
    let dir = std::env::temp_dir().join(format!(
        "nncell-metrics-durable-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let d = ShardedIndex::open_durable(&dir, 2, 1, cfg()).unwrap();
    let registry = Registry::new();
    d.attach_metrics(registry.clone());
    for i in 0..6 {
        d.insert(Point::new(vec![
            (i as f64 + 0.5) / 7.0,
            ((i * 3 % 7) as f64 + 0.5) / 7.0,
        ]))
        .unwrap();
    }
    d.remove(0).unwrap();
    let snap = registry.snapshot();
    assert_eq!(snap.counter("nncell_wal_appends_total"), Some(7));
    assert_eq!(snap.counter("nncell_wal_fsyncs_total"), Some(7));
    assert_eq!(snap.counter("nncell_wal_replayed_total"), Some(0));
    assert_eq!(snap.counter("nncell_snapshot_rotations_total"), Some(0));

    // Checkpoint rotates the WAL; the fresh writer stays instrumented.
    d.checkpoint().unwrap();
    d.insert(Point::new(vec![0.93, 0.61])).unwrap();
    let snap = registry.snapshot();
    assert_eq!(snap.counter("nncell_snapshot_rotations_total"), Some(1));
    assert_eq!(snap.counter("nncell_wal_appends_total"), Some(8));
    drop(d);

    // Reopen: the replay counters are seeded from the recovery report.
    let d = ShardedIndex::open(&dir).unwrap();
    let registry = Registry::new();
    d.attach_metrics(registry.clone());
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter("nncell_wal_replayed_total"),
        Some(d.recovery()[0].replayed as u64)
    );
    assert_eq!(snap.counter("nncell_wal_replay_dropped_total"), Some(0));
    assert_eq!(snap.gauge("nncell_live_points"), Some(d.len() as i64));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn build_profile_times_every_phase() {
    let index = NnCellIndex::build(
        grid(80),
        BuildConfig::builder().strategy(Strategy::Sphere)
            .seed(3)
            .threads(2).build(),
    )
    .unwrap();
    // The index itself is one STR bulk load; the LP phases belong to the
    // cells built from it.
    let own = index.build_stats().profile;
    assert_eq!(own.bulk_load.calls, 1);
    assert_eq!((own.lp_solve.calls, own.batches), (0, 0));
    let profile = NnCells::build(&index).build_stats().profile;
    assert_eq!(profile.constraint_selection.calls, 80);
    assert_eq!(profile.lp_solve.calls, 80);
    assert!(profile.lp_solve.nanos > 0);
    assert_eq!(profile.decomposition.calls, 0); // decomposition off
    assert_eq!(profile.bulk_load.calls, 1);
    assert_eq!(profile.batches, 2);
    assert!(profile.batch_max_nanos <= profile.batch_total_nanos);
    assert!(profile.batch_max_nanos > 0);
}
