//! Degraded-mode chaos for the memtable write path: a folder whose every
//! fold panics (injected via [`FoldConfig::fault_fold_panic`]) must not
//! affect write acks or query exactness — the tail absorbs writes, the
//! linear-scan merge keeps answers exact, and the degradation is visible
//! through [`ShardedIndex::fold_status`], `/readyz`-facing accessors, and
//! the `nncell_fold_*` metric family. Clearing the fault must drain the
//! tail and clear the degraded flag without restarting anything.

use nncell_core::{
    linear_scan_knn, BuildConfig, DurableError, FoldConfig, Query, Registry, ShardedIndex, Strategy,
};
use nncell_geom::Point;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const DIM: usize = 2;
const SHARDS: usize = 2;

fn cfg() -> BuildConfig {
    BuildConfig::builder()
        .strategy(Strategy::Sphere)
        .seed(11)
        .build()
}

fn pt(i: usize) -> Point {
    Point::new(vec![
        ((i * 37 + 11) % 199) as f64 / 199.0,
        ((i * 53 + 29) % 211) as f64 / 211.0,
    ])
}

/// Every query must agree with a linear scan over `live` (Lemma 1 with
/// the tail merged in).
fn assert_exact(idx: &ShardedIndex, live: &[(usize, Point)], tag: &str) {
    let points: Vec<Point> = live.iter().map(|(_, p)| p.clone()).collect();
    for probe in 0..8 {
        let q: Vec<f64> = (0..DIM)
            .map(|j| ((probe * 31 + j * 17) % 100) as f64 / 100.0)
            .collect();
        let k = 1 + probe % 4;
        let got = idx.query(&Query::knn(q.clone(), k));
        let want = linear_scan_knn(&points, &q, k);
        if want.is_empty() {
            assert!(got.is_err(), "{tag}: empty live set must not answer");
            continue;
        }
        let got = got.unwrap_or_else(|e| panic!("{tag}: query failed: {e}"));
        let got_dists: Vec<f64> = got.iter().map(|r| r.dist).collect();
        let want_dists: Vec<f64> = want.iter().map(|r| r.dist).collect();
        assert_eq!(
            got_dists.len(),
            want_dists.len(),
            "{tag}: probe {probe} returned {got_dists:?}, scan found {want_dists:?}"
        );
        for (g, w) in got_dists.iter().zip(&want_dists) {
            assert!(
                (g - w).abs() < 1e-9,
                "{tag}: probe {probe} returned {got_dists:?}, scan found {want_dists:?}"
            );
        }
    }
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The headline chaos scenario: panicking folder, live traffic, degraded
/// visibility, recovery without restart.
#[test]
fn panicking_folder_degrades_gracefully_and_recovers() {
    let chaos = Arc::new(AtomicBool::new(true));
    let idx = ShardedIndex::build((0..24).map(pt).collect(), SHARDS, cfg())
        .expect("seed build")
        .with_memtable(FoldConfig {
            tail_max: 1024,
            poll_interval: Duration::from_millis(1),
            retry_base: Duration::from_millis(1),
            retry_cap: Duration::from_millis(5),
            degrade_after: 3,
            fault_fold_panic: Some(Arc::clone(&chaos)),
        });
    let registry = Arc::new(Registry::new());
    idx.attach_metrics(Arc::clone(&registry));
    let mut live: Vec<(usize, Point)> = (0..24).map(|i| (i, pt(i))).collect();

    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| idx.run_folder(&stop));

        // Writes keep acking while every fold panics, and the acks are
        // O(1) in the structural sense: no snapshot publish happens, so
        // the published shard views keep their pre-write lengths.
        let snap_lens: Vec<usize> = (0..SHARDS).map(|i| idx.shard(i).len()).collect();
        for i in 24..60 {
            let id = idx
                .insert(pt(i))
                .expect("acks must survive a broken folder");
            live.push((id, pt(i)));
        }
        let removed_id = live.remove(3).0;
        assert!(idx.remove(removed_id).expect("remove acks too"));
        assert_eq!(
            (0..SHARDS).map(|i| idx.shard(i).len()).sum::<usize>(),
            snap_lens.iter().sum::<usize>(),
            "broken folder ⇒ no publishes ⇒ snapshots untouched (the ack \
             path did no index work)"
        );

        // Queries stay exact against a linear scan, tail included.
        assert_exact(&idx, &live, "degraded");
        assert_eq!(idx.len(), live.len(), "len() counts the tail");

        // Degradation is visible: status, accessor, and metric family.
        wait_until("degraded flag", || idx.is_degraded());
        let st = idx.fold_status();
        assert!(st.degraded);
        assert!(st.failures >= 3, "status: {st:?}");
        assert_eq!(st.folds, 0, "no fold can have succeeded: {st:?}");
        assert!(st.tail_depth >= 37, "every write is still unfolded: {st:?}");
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("nncell_fold_degraded"), Some(1));
        assert!(snap.counter("nncell_fold_failures_total").unwrap_or(0) >= 3);
        assert_eq!(snap.counter("nncell_fold_total"), Some(0));
        assert!(snap.gauge("nncell_tail_depth").unwrap_or(0) >= 37);

        // Clear the fault: the supervised loop drains the tail and the
        // degraded flag clears — no restart, no lost write.
        chaos.store(false, Ordering::Release);
        wait_until("tail drain", || idx.tail_depth() == 0 && !idx.is_degraded());
        stop.store(true, Ordering::Release);
    });

    // Everything folded into the cells; answers unchanged.
    assert_exact(&idx, &live, "recovered");
    assert_eq!(
        (0..SHARDS).map(|i| idx.shard(i).len()).sum::<usize>(),
        live.len(),
        "drained tail ⇒ snapshots now hold every live point"
    );
    let st = idx.fold_status();
    assert!(st.folds >= 1 && st.folded_records >= 37, "status: {st:?}");
    let snap = registry.snapshot();
    assert_eq!(snap.gauge("nncell_fold_degraded"), Some(0));
    assert_eq!(snap.gauge("nncell_tail_depth"), Some(0));
    assert!(snap.counter("nncell_fold_records_total").unwrap_or(0) >= 37);
    assert!(
        snap.histogram("nncell_fold_latency_ns")
            .map(|h| h.count())
            .unwrap_or(0)
            >= 1
    );
}

/// The tail high-watermark refuses writes with a typed, retryable error
/// and counts them — the index never buffers unboundedly, no matter how
/// long the folder stays broken.
#[test]
fn tail_high_watermark_sheds_writes_until_a_fold_drains_it() {
    let idx = ShardedIndex::new(DIM, SHARDS, cfg()).with_memtable(FoldConfig {
        tail_max: 4,
        ..FoldConfig::default()
    });
    let registry = Arc::new(Registry::new());
    idx.attach_metrics(Arc::clone(&registry));

    for i in 0..4 {
        idx.insert(pt(i)).expect("below the watermark");
    }
    match idx.insert(pt(4)) {
        Err(DurableError::Backpressure { tail, max }) => {
            assert_eq!((tail, max), (4, 4));
        }
        other => panic!("expected backpressure, got {other:?}"),
    }
    // Removes are journaled tail ops too — same watermark.
    assert!(matches!(
        idx.remove(0),
        Err(DurableError::Backpressure { .. })
    ));
    let snap = registry.snapshot();
    assert_eq!(snap.counter("nncell_tail_backpressure_total"), Some(2));

    // One fold drains the tail and writes flow again.
    assert_eq!(idx.fold_once().expect("no chaos"), 4);
    idx.insert(pt(4)).expect("drained tail accepts writes");
    assert_eq!(idx.len(), 5);
}

/// Interleaved writes, folds, and removes stay exact and agree with
/// `len()` — including queries answered purely from the tail (empty
/// snapshots) and shards emptied by tail tombstones.
#[test]
fn folds_interleaved_with_writes_keep_answers_exact() {
    let idx = ShardedIndex::new(DIM, SHARDS, cfg()).with_memtable(FoldConfig::default());
    let mut live: Vec<(usize, Point)> = Vec::new();

    // Purely-from-tail answers (nothing folded yet).
    for i in 0..5 {
        let id = idx.insert(pt(i)).expect("insert");
        live.push((id, pt(i)));
    }
    assert_exact(&idx, &live, "tail-only");

    for step in 0..30 {
        let i = 5 + step;
        let id = idx.insert(pt(i)).expect("insert");
        live.push((id, pt(i)));
        if step % 3 == 1 {
            let victim = live.remove((step * 7) % live.len()).0;
            assert!(idx.remove(victim).expect("remove"), "victim was live");
        }
        if step % 4 == 3 {
            idx.fold_once().expect("fold");
        }
        assert_eq!(idx.len(), live.len(), "step {step}");
    }
    assert_exact(&idx, &live, "interleaved");

    // Tombstone every point: queries must report an empty index even
    // though the snapshots still hold folded points.
    for (id, _) in live.drain(..) {
        assert!(idx.remove(id).expect("remove all"));
    }
    assert_eq!(idx.len(), 0);
    assert!(idx.query(&Query::nn(vec![0.5, 0.5])).is_err());

    // Duplicate policy survives the tail: a point folded in, removed in
    // the tail, then reinserted is not a duplicate of its dead self.
    let id = idx.insert(pt(0)).expect("reinsert after tail tombstone");
    assert!(idx.insert(pt(0)).is_err(), "live duplicate still rejected");
    assert!(idx.remove(id).expect("cleanup"));
}

/// Radius queries must merge the unindexed tail exactly like k-NN: tail
/// inserts inside the ball appear, tail tombstones disappear, and the
/// union is ranked by `(distance, id)` with no truncation.
#[test]
fn radius_queries_merge_the_unindexed_tail() {
    let idx = ShardedIndex::new(DIM, SHARDS, cfg()).with_memtable(FoldConfig {
        // No folder thread: everything stays in the tail for the whole
        // test, so every answer exercises the merge path.
        ..FoldConfig::default()
    });
    let mut live: Vec<(usize, Point)> = Vec::new();
    for i in 0..25 {
        let p = pt(i);
        let id = idx.insert(p.clone()).expect("tail ack");
        live.push((id, p));
    }
    let victim = live.remove(7).0;
    assert!(idx.remove(victim).expect("tail tombstone"));
    assert!(idx.tail_depth() > 0, "operations must still be unfolded");

    let points: Vec<Point> = live.iter().map(|(_, p)| p.clone()).collect();
    for probe in 0..6 {
        let q: Vec<f64> = (0..DIM)
            .map(|j| ((probe * 41 + j * 13) % 100) as f64 / 100.0)
            .collect();
        let r = 0.05 + 0.15 * probe as f64;
        let mut want = linear_scan_knn(&points, &q, points.len());
        want.retain(|x| x.dist <= r);
        let got = idx.query(&Query::radius(q.clone(), r));
        if want.is_empty() {
            assert!(got.is_err(), "probe {probe}: empty ball must be typed");
            continue;
        }
        let got = got.unwrap_or_else(|e| panic!("probe {probe}: {e}"));
        assert_eq!(got.len(), want.len(), "probe {probe}: ball size");
        let got_d: Vec<f64> = got.iter().map(|x| x.dist).collect();
        let want_d: Vec<f64> = want.iter().map(|x| x.dist).collect();
        for (g, w) in got_d.iter().zip(&want_d) {
            assert!(
                (g - w).abs() < 1e-9,
                "probe {probe}: {got_d:?} vs {want_d:?}"
            );
        }
        assert!(
            !got.iter().any(|x| x.id == victim),
            "probe {probe}: tombstoned id resurfaced in the ball"
        );
    }
    // Fold everything and re-check: indexed answers agree with the merge.
    idx.flush().expect("fold");
    assert_eq!(idx.tail_depth(), 0);
    let resp = idx
        .query(&Query::radius(vec![0.5, 0.5], 0.4))
        .expect("ball");
    let mut want = linear_scan_knn(&points, &[0.5, 0.5], points.len());
    want.retain(|x| x.dist <= 0.4);
    assert_eq!(resp.len(), want.len(), "post-fold ball size");
}
