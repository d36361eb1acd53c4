//! At small scale, one seed gives identical inputs and identical
//! per-layer counts across runs, and another seed gives other inputs.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use nncell_perfbench::inputs::{self, Data};
use nncell_perfbench::{run, Params, Workload};

/// Per-layer metrics that are counts of work, not times.
const COUNTS: &[&str] = &[
    "build.lp_calls",
    "engine.candidates_per_query",
    "engine.examined_per_query",
    "index.pages_per_query",
    "index.nodes_pruned_per_query",
    "shard.examined_per_query",
    "engine.aborted_share",
    "tail.candidates_per_query",
    "tail.depth_mean",
    "wal.appends_per_ack",
    "wal.fsyncs_per_ack",
    "wal.bytes_per_user_byte",
    "fold.lp_calls_per_record",
    "fold.refreshes_per_record",
    "server.connects_per_request",
    "server.retries_per_request",
    "server.response_bytes",
];

fn small(w: Workload) -> Params {
    Params {
        n: 300,
        d: 4,
        pool: 64,
        setups: 1,
        check_every: 2,
        streams: if w == Workload::Ingest { 2 } else { 0 },
        stream_writes: if w == Workload::Ingest { 80 } else { 0 },
        ..w.params(0.05)
    }
}

#[test]
fn inputs_follow_the_seed() {
    for data in [Data::Uniform, Data::Fourier] {
        let a = inputs::points_and_queries(data, 4, 100, 10, 7);
        let b = inputs::points_and_queries(data, 4, 100, 10, 7);
        let c = inputs::points_and_queries(data, 4, 100, 10, 8);
        assert_eq!(a, b, "{data:?}: same seed, same inputs");
        assert_ne!(a.0, c.0, "{data:?}: another seed, other points");
        assert_ne!(a.1, c.1, "{data:?}: another seed, other queries");
    }
    assert_eq!(
        inputs::fresh_points(4, 20, 7),
        inputs::fresh_points(4, 20, 7)
    );
    assert_ne!(
        inputs::fresh_points(4, 20, 7),
        inputs::fresh_points(4, 20, 8)
    );
}

// One test runs every workload in turn: the tracer is process-wide, so
// traced runs must not overlap.
#[test]
fn same_seed_repeats_every_count() {
    for w in Workload::ALL {
        let p = small(w);
        let first = run(&p, 7, true).expect("first run");
        let second = run(&p, 7, true).expect("second run");
        for o in [&first, &second] {
            assert_eq!(o.tally.failed, 0, "{w:?}: {:?}", o.tally.first_failure);
            assert!(o.tally.checked > 0, "{w:?}: no answer was checked");
        }
        for name in COUNTS {
            assert_eq!(
                first.per_layer.get(name),
                second.per_layer.get(name),
                "{w:?}: {name} differs between same-seed runs"
            );
        }
        assert!(first.per_layer.get("build.lp_calls") > 0.0);
        assert!(first.per_layer.get("engine.examined_per_query") > 0.0);
    }
}
