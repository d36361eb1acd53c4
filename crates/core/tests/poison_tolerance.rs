//! Panic isolation at the serving layer: a reader thread that panics
//! mid-query must not take the index down with it. The copy-on-write
//! protocol makes this structural — readers hold the [`SnapshotCell`]
//! slot lock only for an `Arc` refcount bump, never across the query —
//! so a panicking reader cannot poison the slot, and the single writer's
//! mutex takes over poison rather than propagating it. These tests pin
//! that behaviour end-to-end through the public `ShardedIndex` API,
//! mirroring what the HTTP server's per-request `catch_unwind` relies
//! on: request N panics, requests N+1.. (reads *and* writes) still work.
//!
//! [`SnapshotCell`]: nncell_core::snapshot::SnapshotCell

use nncell_core::{BuildConfig, Query, ShardedIndex, Strategy};
use nncell_geom::Point;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

fn cfg() -> BuildConfig {
    BuildConfig::builder()
        .strategy(Strategy::Sphere)
        .seed(11)
        .build()
}

fn grid(n: usize, dim: usize) -> Vec<Point> {
    (0..n)
        .map(|i| {
            Point::new(
                (0..dim)
                    .map(|j| ((i * 31 + j * 7) % 97) as f64 / 97.0)
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

/// A reader panics after its query completes (mid-request, from the
/// server's point of view). Later reads on other threads and the single
/// writer must be completely unaffected — same answers, writes visible.
#[test]
fn reader_panic_mid_query_leaves_index_serving() {
    let idx = Arc::new(ShardedIndex::build(grid(40, 3), 3, cfg()).unwrap());
    let probe = Query::nn(vec![0.4, 0.5, 0.6]);
    let before = idx.query(&probe).unwrap().best;

    // Several readers die mid-flight, holding loaded snapshots at the
    // moment of the panic.
    for t in 0..4 {
        let idx = Arc::clone(&idx);
        let probe = probe.clone();
        let died = std::thread::spawn(move || {
            catch_unwind(AssertUnwindSafe(|| {
                let r = idx.query(&probe).unwrap();
                panic!(
                    "reader {t} dies mid-request holding result id {}",
                    r.best.id
                );
            }))
        })
        .join()
        .expect("catch_unwind contains the panic");
        assert!(died.is_err(), "reader {t} was supposed to panic");
    }

    // Reads still serve the same answer bit-for-bit.
    let after = idx.query(&probe).unwrap().best;
    assert_eq!(before.id, after.id);
    assert_eq!(
        before.dist.to_bits(),
        after.dist.to_bits(),
        "answers must not drift after reader panics"
    );

    // The single writer still makes progress and its write is visible.
    let target = vec![0.4, 0.5, 0.6];
    let id = idx.insert(Point::new(target.clone())).unwrap();
    let hit = idx.query(&Query::nn(target)).unwrap().best;
    assert_eq!(
        hit.id, id,
        "post-panic insert must win an exact-match query"
    );
    assert!(hit.dist < 1e-12);
}

/// Readers panicking *concurrently* with a writer: the writer finishes
/// every insert and the final index answers exactly.
#[test]
fn concurrent_reader_panics_do_not_block_the_writer() {
    let idx = Arc::new(ShardedIndex::build(grid(20, 2), 2, cfg()).unwrap());
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

    std::thread::scope(|s| {
        for _ in 0..2 {
            let idx = Arc::clone(&idx);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let _ = catch_unwind(AssertUnwindSafe(|| {
                        let r = idx.query(&Query::nn(vec![0.3, 0.8])).unwrap();
                        panic!("die holding id {}", r.best.id);
                    }));
                }
            });
        }
        for i in 0..30 {
            let p = Point::new(vec![(i as f64) / 30.0, 0.5]);
            idx.insert(p)
                .expect("writer must not be wedged by reader panics");
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });

    assert_eq!(idx.len(), 50);
    // Exactness survives: the nearest inserted point wins.
    let hit = idx.query(&Query::nn(vec![10.0 / 30.0, 0.5])).unwrap().best;
    assert!(hit.dist < 1e-12, "inserted point must be found exactly");
}
