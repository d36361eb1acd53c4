//! Proves the engine's steady-state allocation contract with a counting
//! global allocator: once a worker's [`nncell_core::QueryScratch`] is warm,
//! `execute_with` performs **zero** heap allocations for `k = 1` queries and
//! exactly one (the response's `rest` vector) for `k > 1` — and the same
//! holds with a **live metrics registry attached**, slow-query ring armed at
//! threshold 0 (every query takes the ring's copy path). Because the query
//! path is threaded with tracing span sites, this is also the proof that
//! tracing with sampling off (the default) allocates nothing.
//!
//! A second test pins the memtable tail's read cost: one
//! `ShardedIndex::query` allocates the same number of times at tail depth
//! 10 and at tail depth 1000 — a read shares the tail, never copies it.
//! Its twin pins the write side: with no read in flight, an insert into a
//! deep tail changes the published tail view in place, and validation
//! and the duplicate probe reuse the index's space and the writer's
//! scratch, so an insert allocates at most twice at any depth. A durable
//! insert journals the very record it queues, so it copies no point.
//! Another pins what a warm `ShardedIndex::query` allocates at S = 2 with
//! a registry attached: only the response, never the read state, the
//! query's scratch (the calling thread keeps it warm) or its recording.
//!
//! A third pins the fold's copy count by bytes: folding a one-record
//! batch allocates less than 1.5 clones of the shard's index, because
//! the published snapshot is the shard's only copy. Its twin pins a
//! 64-record fold by count: the fold re-applies acked inserts without a
//! second duplicate probe. The one-record fold's test also pins the bytes
//! of one clone of its shard at 60% of what a clone allocated while the
//! index kept a row-major copy of every point beside its leaves. A fourth
//! pins the clone itself by count: the coordinates live only in the point
//! tree's leaf blocks and its slot column is one array, so cloning a shard
//! allocates per tree page, not per point. The last pins build and load
//! by count: both bulk-load the point tree straight from flat rows, so
//! neither allocates per point. The linear-scan oracle is
//! pinned too: one `linear_scan_knn` call allocates once, its answer,
//! sized `min(k, n)`, never a buffer of all n distances.
//!
//! The counter is gated by a thread-local flag, so only the thread that
//! opened the gate counts: the surrounding test harness, index
//! construction and the other test in this binary do not pollute it.

use nncell_core::{
    linear_scan_knn, BuildConfig, FaultSchedule, FaultVfs, NnCellIndex, Query, QueryScratch,
    Registry, ShardedIndex, Strategy,
};
use nncell_geom::Point;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation of `bytes` new bytes when this thread's gate is
/// open.
fn tick(bytes: usize) {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tick(layout.size());
        unsafe { System.alloc(layout) }
    }

    /// A growing realloc counts the bytes it adds, a shrinking one none.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tick(new_size.saturating_sub(layout.size()));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` with this thread's counter open and returns how many
/// allocations it made and how many bytes they allocated.
fn measure(f: impl FnOnce()) -> (u64, u64) {
    ALLOCS.with(|n| n.set(0));
    BYTES.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

/// How many allocations `f` made on this thread.
fn count_allocs(f: impl FnOnce()) -> u64 {
    measure(f).0
}

#[test]
fn warm_scratch_queries_do_not_allocate() {
    let pts: Vec<Point> = (0..400)
        .map(|i| {
            Point::new(vec![
                ((i * 37) % 400) as f64 / 400.0 + 0.001,
                ((i * 113) % 400) as f64 / 400.0 + 0.001,
                ((i * 59) % 400) as f64 / 400.0 + 0.001,
            ])
        })
        .collect();
    let mut index = NnCellIndex::build(
        pts,
        BuildConfig::builder()
            .strategy(Strategy::CorrectPruned)
            .seed(7)
            .build(),
    )
    .unwrap();
    let nn_queries: Vec<Query> = (0..64)
        .map(|i| {
            Query::nn(vec![
                ((i * 7) % 64) as f64 / 64.0 + 0.004,
                ((i * 19) % 64) as f64 / 64.0 + 0.004,
                ((i * 31) % 64) as f64 / 64.0 + 0.004,
            ])
        })
        .collect();
    let knn_queries: Vec<Query> = nn_queries
        .iter()
        .map(|q| Query::knn(q.point().to_vec(), 5))
        .collect();

    // The engine's query path carries tracing span sites (engine.query,
    // knn growth, MINDIST rank). With sampling disabled — the default
    // this test runs under — every site must stay an inert thread-local
    // flag read, so the zero-alloc assertions below are also the
    // tracing-off overhead proof.
    assert_eq!(
        nncell_obs::trace::sampling(),
        0,
        "tracing must be disabled for the zero-alloc contract"
    );

    let mut scratch = QueryScratch::new();
    {
        let engine = index.engine().with_threads(1);
        // Warm-up pass: buffers grow to their high-water mark.
        for q in nn_queries.iter().chain(&knn_queries) {
            engine.execute_with(&mut scratch, q).unwrap();
        }

        // Steady state, k = 1: zero heap allocations.
        let allocs = count_allocs(|| {
            for q in &nn_queries {
                let r = engine.execute_with(&mut scratch, q).unwrap();
                assert!(r.rest.is_empty());
                std::hint::black_box(&r);
            }
        });
        assert_eq!(
            allocs,
            0,
            "k=1 steady state must not allocate ({allocs} allocations over {} queries)",
            nn_queries.len()
        );

        // Steady state, k > 1: exactly the response's `rest` vector per query.
        let allocs = count_allocs(|| {
            for q in &knn_queries {
                let r = engine.execute_with(&mut scratch, q).unwrap();
                assert_eq!(r.len(), 5);
                std::hint::black_box(&r);
            }
        });
        assert!(
            allocs <= knn_queries.len() as u64,
            "k>1 steady state allocates at most the `rest` vector per query \
             ({allocs} allocations over {} queries)",
            knn_queries.len()
        );
    }

    // Same contract with a live registry: latency/candidate/page recording
    // is relaxed atomics, and the slow-query ring (armed at threshold 0 so
    // *every* query takes the capture path) copies into preallocated slots.
    let registry = Registry::new();
    index.attach_metrics(registry.clone());
    let metrics_engine = index.engine().with_threads(1);
    index
        .metrics()
        .expect("registry just attached")
        .engine()
        .slow_log()
        .set_threshold_ns(0);
    // One warm-up pass through the instrumented path (first recording of a
    // histogram bucket touches no heap either, but keep symmetry).
    for q in &nn_queries {
        metrics_engine.execute_with(&mut scratch, q).unwrap();
    }
    let allocs = count_allocs(|| {
        for q in &nn_queries {
            let r = metrics_engine.execute_with(&mut scratch, q).unwrap();
            assert!(r.rest.is_empty());
            std::hint::black_box(&r);
        }
    });
    assert_eq!(
        allocs,
        0,
        "k=1 steady state with a live registry and armed slow-query ring \
         must not allocate ({allocs} allocations over {} queries)",
        nn_queries.len()
    );
    // The recording actually happened: counters saw every instrumented query.
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter("nncell_queries_total"),
        Some(2 * nn_queries.len() as u64)
    );
    let slow = index
        .metrics()
        .expect("registry attached")
        .engine()
        .slow_log();
    assert_eq!(slow.total_seen(), 2 * nn_queries.len() as u64);
    assert!(!slow.drain().is_empty());
}

#[test]
fn a_read_allocates_the_same_at_any_tail_depth() {
    // Index points fill [0, 0.4]³; tail inserts sit in [0.6, 1]³, beyond
    // every page's MINDIST from the query at the origin, so the traversal
    // (and its heap growth) is the same at both depths and only the tail
    // could make the counts differ.
    let grid = |i: usize, lo: f64| {
        Point::new(vec![
            lo + 0.4 * ((i % 10) as f64 / 10.0),
            lo + 0.4 * (((i / 10) % 10) as f64 / 10.0),
            lo + 0.4 * ((i / 100) as f64 / 10.0),
        ])
    };
    let idx = ShardedIndex::build(
        (0..400).map(|i| grid(i, 0.0)).collect(),
        1,
        BuildConfig::builder()
            .strategy(Strategy::Sphere)
            .seed(7)
            .build(),
    )
    .unwrap();
    let q = Query::knn(vec![0.0, 0.0, 0.0], 5);
    let mut counts = Vec::new();
    let mut inserted = 0;
    for depth in [10, 1000] {
        while inserted < depth {
            idx.insert(grid(inserted, 0.6)).unwrap();
            inserted += 1;
        }
        assert_eq!(idx.tail_depth(), depth);
        // Warm: the first read after a write may still share a view the
        // write replaced; every read below sees the same one.
        let want = idx.query(&q).unwrap();
        assert_eq!(want.stats.tail, depth);
        let allocs = count_allocs(|| {
            let r = idx.query(&q).unwrap();
            assert_eq!(r.len(), 5);
            std::hint::black_box(&r);
        });
        counts.push(allocs);
    }
    assert_eq!(
        counts[0], counts[1],
        "a read must not copy the tail (allocations at depth 10 vs 1000)"
    );
}

#[test]
fn a_write_without_a_reader_does_not_copy_the_tail() {
    let point = |i: usize| {
        Point::new(vec![
            (i % 40) as f64 / 40.0,
            ((i / 40) % 40) as f64 / 40.0,
            (i / 1600) as f64 / 40.0,
        ])
    };
    let idx = ShardedIndex::build(
        (0..400).map(point).collect(),
        1,
        BuildConfig::builder()
            .strategy(Strategy::Sphere)
            .seed(7)
            .build(),
    )
    .unwrap();
    let insert_64 = |from: usize| {
        let pts: Vec<Point> = (from..from + 64).map(point).collect();
        count_allocs(|| {
            for p in pts {
                idx.insert(p).unwrap();
            }
        })
    };
    let shallow = insert_64(400);
    for i in 464..1400 {
        idx.insert(point(i)).unwrap();
    }
    assert_eq!(idx.tail_depth(), 1000);
    let deep = insert_64(1400);
    assert_eq!(idx.tail_depth(), 1000 + 64);
    // Per insert: the point's copy in the tail view and the op lists'
    // amortized growth. The validation reads the index's stored unit
    // space and the duplicate probe walks with the writer's warm scratch,
    // so neither allocates; a copy of the tail would cost about 1000.
    for (depth, allocs) in [(64, shallow), (1000, deep)] {
        assert!(
            allocs <= 2 * 64,
            "64 inserts at tail depth {depth} made {allocs} allocations, more than 2 each"
        );
    }
}

#[test]
fn a_durable_insert_journals_the_record_it_queues() {
    let point = |i: usize| {
        Point::new(vec![
            (i % 40) as f64 / 40.0,
            ((i / 40) % 40) as f64 / 40.0,
            (i / 1600) as f64 / 40.0,
        ])
    };
    let vfs = std::sync::Arc::new(FaultVfs::new(FaultSchedule::none(1)));
    let idx = ShardedIndex::build(
        (0..400).map(point).collect(),
        1,
        BuildConfig::builder()
            .strategy(Strategy::Sphere)
            .seed(7)
            .build(),
    )
    .unwrap()
    .into_durable_with_vfs(vfs, std::path::Path::new("/db"))
    .unwrap();
    // Warm-up: the journal's file and the thread's trace state exist
    // before the measurement.
    for i in 400..410 {
        idx.insert(point(i)).unwrap();
    }
    let pts: Vec<Point> = (410..474).map(point).collect();
    let allocs = count_allocs(|| {
        for p in pts {
            idx.insert(p).unwrap();
        }
    });
    // Only amortized growth: the tail's and the in-memory file's. The ack builds the insert's record
    // once, journals it by reference and queues that same record, so it
    // copies no point, and the journal encodes each frame into the
    // writer's one reused buffer: 12 allocations here, where a fresh
    // payload and frame buffer per ack made 204, and journaling a copy
    // and queueing the point in a second shape made 268.
    assert!(
        allocs <= 12,
        "64 durable inserts made {allocs} allocations: does the ack copy the point, or frame it in a fresh buffer, again?"
    );
}

#[test]
fn a_fold_clones_the_shard_once() {
    // One n = 4000, d = 8 shard; its coordinates are distinct by
    // construction (the first one is the point's index).
    let point = |i: usize| {
        Point::new(
            (0..8)
                .map(|j| ((i * (2 * j + 1) * 7919 + j) % 4001) as f64 / 4001.0)
                .collect::<Vec<_>>(),
        )
    };
    let idx = ShardedIndex::build(
        (0..4000).map(point).collect(),
        1,
        BuildConfig::builder()
            .strategy(Strategy::Sphere)
            .seed(7)
            .build(),
    )
    .unwrap();
    // Warm-up fold: thread-local state the fold path touches (the trace
    // recorder among it) initializes once, outside the measurement.
    idx.insert(Point::new(vec![0.5; 8])).unwrap();
    assert_eq!(idx.fold_once().unwrap(), 1);
    let (_, clone_bytes) = measure(|| {
        std::hint::black_box(idx.shard(0).as_ref().clone());
    });
    // The point tree's leaves are the only store of the points: one
    // clone of this shard allocated 577,805 bytes while the index also
    // kept a row-major copy of every point (256 kB here) and a liveness
    // mask, and about 334 kB once the leaves and their slot column are
    // the only store.
    assert!(
        clone_bytes * 5 <= 577_805 * 3,
        "one clone of the shard allocated {clone_bytes} bytes, more than 60% of the \
         577,805 a clone allocated with a row copy of every point: is a second store back?"
    );
    idx.insert(Point::new(vec![0.25; 8])).unwrap();
    let (_, fold_bytes) = measure(|| {
        assert_eq!(idx.fold_once().unwrap(), 1);
    });
    assert!(
        2 * fold_bytes < 3 * clone_bytes,
        "a one-record fold allocated {fold_bytes} bytes, more than 1.5 clones of the \
         shard ({clone_bytes} bytes each): the shard is copied more than once"
    );
}

#[test]
fn a_fold_runs_no_duplicate_probe() {
    // The shard of `a_fold_clones_the_shard_once`: n = 4000, d = 8.
    let point = |i: usize| {
        Point::new(
            (0..8)
                .map(|j| ((i * (2 * j + 1) * 7919 + j) % 4001) as f64 / 4001.0)
                .collect::<Vec<_>>(),
        )
    };
    let idx = ShardedIndex::build(
        (0..4000).map(point).collect(),
        1,
        BuildConfig::builder()
            .strategy(Strategy::Sphere)
            .seed(7)
            .build(),
    )
    .unwrap();
    // Warm-up fold, as above.
    idx.insert(Point::new(vec![0.5; 8])).unwrap();
    assert_eq!(idx.fold_once().unwrap(), 1);
    for i in 0..64 {
        let p = Point::new(vec![(i as f64 + 0.5) / 64.0; 8]);
        idx.insert(p).unwrap();
    }
    // The clone allocates per tree page and the 64 inserts per split
    // page: 1028 allocations. Each insert was validated when it was
    // acked, so the fold runs no duplicate probe; re-running the probe
    // costs about 5 allocations per record (1426 in all).
    let allocs = count_allocs(|| {
        assert_eq!(idx.fold_once().unwrap(), 64);
    });
    assert!(
        allocs <= 1100,
        "a 64-record fold made {allocs} allocations: is the fold probing for duplicates again?"
    );
}

#[test]
fn a_shard_clone_makes_no_per_point_allocation() {
    // The shard of `a_fold_clones_the_shard_once`: n = 4000, d = 8.
    const N: u64 = 4000;
    let point = |i: usize| {
        Point::new(
            (0..8)
                .map(|j| ((i * (2 * j + 1) * 7919 + j) % 4001) as f64 / 4001.0)
                .collect::<Vec<_>>(),
        )
    };
    let idx = ShardedIndex::build(
        (0..N as usize).map(point).collect(),
        1,
        BuildConfig::builder()
            .strategy(Strategy::Sphere)
            .seed(7)
            .build(),
    )
    .unwrap();
    let shard = idx.shard(0);
    let allocs = count_allocs(|| {
        std::hint::black_box(shard.as_ref().clone());
    });
    assert!(
        allocs < N / 4,
        "cloning a {N}-point shard made {allocs} allocations: a per-point copy is back"
    );
}

/// Distinct points of `[0, 1]^8`: the first coordinate is the point's
/// index over `n + 1`.
fn distinct_points(n: usize) -> Vec<Point> {
    (0..n)
        .map(|i| {
            Point::new(
                (0..8)
                    .map(|j| ((i * (2 * j + 1) * 7919 + j) % (n + 1)) as f64 / (n + 1) as f64)
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

#[test]
fn a_warm_sharded_query_allocates_only_its_response() {
    let idx = ShardedIndex::build(distinct_points(4000), 2, BuildConfig::default()).unwrap();
    // Recording into the one query bundle, slow ring armed at threshold
    // 0 (every query takes its copy path), allocates nothing either.
    let registry = Registry::new();
    idx.attach_metrics(registry.clone());
    idx.slow_log()
        .expect("registry just attached")
        .set_threshold_ns(0);
    let queries: Vec<Vec<f64>> = distinct_points(64)
        .iter()
        .map(|p| p.as_slice().iter().map(|c| c * 0.9 + 0.05).collect())
        .collect();
    for k in [1usize, 10] {
        let qs: Vec<Query> = queries.iter().map(|q| Query::knn(q.clone(), k)).collect();
        // Warm-up: this thread's scratch grows to its high-water mark.
        for q in &qs {
            idx.query(q).unwrap();
        }
        let allocs = count_allocs(|| {
            for q in &qs {
                let r = idx.query(q).unwrap();
                assert_eq!(r.len(), k);
                std::hint::black_box(&r);
            }
        });
        // Per read: the response's `rest` for k > 1, nothing else — the
        // read state is one `Arc` clone and the scratch is warm.
        let per_query = u64::from(k > 1);
        assert_eq!(
            allocs,
            per_query * qs.len() as u64,
            "k = {k}: {allocs} allocations over {} warm reads",
            qs.len()
        );
    }
    let queries_total = registry.snapshot().counter("nncell_queries_total");
    assert_eq!(
        queries_total,
        Some(4 * queries.len() as u64),
        "each read counted once"
    );
}

#[test]
fn build_and_load_make_no_per_point_allocation() {
    const N: usize = 4000;
    let cfg = BuildConfig::builder()
        .strategy(Strategy::Sphere)
        .seed(7)
        .build();
    let points = distinct_points(N);
    let mut built = None;
    let build_allocs = count_allocs(|| {
        built = Some(NnCellIndex::build(points, cfg).unwrap());
    });
    let idx = built.unwrap();
    assert_eq!(idx.len(), N);
    assert!(
        build_allocs < (N / 4) as u64,
        "building {N} points made {build_allocs} allocations: a per-point copy is back"
    );
    let vfs = FaultVfs::new(FaultSchedule::none(1));
    let path = std::path::Path::new("alloc.nncell");
    idx.save_with_vfs(&vfs, path).unwrap();
    let mut loaded = None;
    let load_allocs = count_allocs(|| {
        loaded = Some(NnCellIndex::load_with_vfs(&vfs, path).unwrap());
    });
    let loaded = loaded.unwrap();
    assert_eq!(loaded.slots(), idx.slots());
    assert!((0..N).all(|id| loaded.row(id) == idx.row(id)));
    assert!(
        load_allocs < (N / 4) as u64,
        "loading {N} points made {load_allocs} allocations: a per-point copy is back"
    );
}

#[test]
fn a_scan_allocates_its_answer_only() {
    let pts = distinct_points(2000);
    let q = vec![0.5; 8];
    for k in [1usize, 10, 1999, 2000, 2003] {
        let keep = k.min(pts.len());
        let mut got = Vec::new();
        let allocs = count_allocs(|| got = linear_scan_knn(&pts, &q, k));
        assert_eq!(allocs, 1, "k = {k}: one scan made {allocs} allocations");
        assert_eq!(got.len(), keep, "k = {k}");
        assert_eq!(
            got.capacity(),
            keep,
            "k = {k}: the answer holds capacity for {} results, not min(k, n) = {keep}",
            got.capacity()
        );
    }
    let allocs = count_allocs(|| {
        std::hint::black_box(linear_scan_knn(&pts, &q, 0));
        std::hint::black_box(linear_scan_knn(&[], &q, 10));
    });
    assert_eq!(allocs, 0, "an empty answer allocates nothing");
}
