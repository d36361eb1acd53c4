//! The headline durability proof: kill the process at **every** syscall of
//! a randomized insert/remove/checkpoint workload and demand that recovery
//! always produces a prefix-consistent index.
//!
//! Protocol. The workload runs once fault-free against the deterministic
//! in-memory [`FaultVfs`] to count its syscalls `T`. It is then re-run `T`
//! times, crashing at syscall `k` for every `k < T`; each crashed file
//! system is materialized into its post-crash survivor (unsynced bytes
//! torn to a seeded prefix, unsynced directory entries gone) and recovered
//! with [`ShardedIndex::open_durable_with_vfs`], the one durable write
//! path. The recovered index must
//!
//! 1. open without error or panic,
//! 2. hold exactly the state after some *prefix* of the workload — at
//!    least every acknowledged operation (no lost updates, no resurrected
//!    removals), at most one unacknowledged in-flight operation whose WAL
//!    record reached the disk before the crash,
//! 3. answer every probe query identically to a linear scan over its own
//!    live points (Lemma 1 exactness survives recovery).
//!
//! The fault schedule seed is fixed for reproducibility and overridable
//! via `NNCELL_FAULT_SEED` (ci.sh pins it; set it locally to explore other
//! tear patterns).

use nncell::core::durable::DurableError;
use nncell::core::vfs::{FaultSchedule, FaultVfs, Vfs};
use nncell::core::{
    linear_scan_nn, BuildConfig, FoldConfig, NnCellIndex, Query, ShardedIndex, Strategy,
};
use nncell::geom::Point;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::sync::Arc;

const DIM: usize = 2;

fn fault_seed() -> u64 {
    std::env::var("NNCELL_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xD15C_C0DE)
}

fn cfg() -> BuildConfig {
    BuildConfig::builder()
        .strategy(Strategy::Sphere)
        .seed(7)
        .build()
}

#[derive(Clone, Debug)]
enum Op {
    Insert(Point),
    Remove(usize),
    Checkpoint,
}

/// A fixed random workload: mostly inserts, a mix of removes (live ids,
/// already-dead ids, ids never assigned), occasional checkpoints.
fn workload(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut assigned = 0usize;
    let mut ops = Vec::with_capacity(len);
    for _ in 0..len {
        let roll = rng.gen_f64();
        if roll < 0.55 || assigned == 0 {
            let coords: Vec<f64> = (0..DIM).map(|_| rng.gen_f64()).collect();
            ops.push(Op::Insert(Point::new(coords)));
            assigned += 1;
        } else if roll < 0.85 {
            // +2 so some removes target ids that were never assigned.
            ops.push(Op::Remove(rng.gen_range(0..assigned + 2)));
        } else {
            ops.push(Op::Checkpoint);
        }
    }
    ops
}

/// Logical index states after each op prefix: slot `i` of a state is the
/// point with global id `i`, `None` once removed. Mirrors
/// [`ShardedIndex`] semantics exactly (global ids are assigned by
/// insertion order; removes of non-live ids are no-ops; checkpoints
/// change nothing).
fn model_states(ops: &[Op]) -> Vec<Vec<Option<Point>>> {
    let mut state: Vec<Option<Point>> = Vec::new();
    let mut states = vec![state.clone()];
    for op in ops {
        match op {
            Op::Insert(p) => state.push(Some(p.clone())),
            Op::Remove(id) => {
                if *id < state.len() {
                    state[*id] = None;
                }
            }
            Op::Checkpoint => {}
        }
        states.push(state.clone());
    }
    states
}

fn states_equal(a: &[Option<Point>], b: &[Option<Point>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Some(p), Some(q)) => p.as_slice() == q.as_slice(),
            (None, None) => true,
            _ => false,
        })
}

// ---------------------------------------------------------------------
// The sweep over the sharded durable layout: crash points land inside
// per-shard WAL appends, per-shard checkpoints, and the top-level
// "sharded S" manifest write.

/// Runs the workload against a sharded durable directory of `shards`
/// shards until completion or the first crash-induced error; returns how
/// many ops were acknowledged (`Ok`). The final `close` is attempted but
/// not counted — it changes no logical state. Writes stay in the memtable
/// tail until `close` folds them, so every checkpoint re-journals the
/// tail; the memtable sweep below interleaves folds.
fn run_sharded_workload(vfs: Arc<dyn Vfs>, dir: &Path, ops: &[Op], shards: usize) -> usize {
    let s = match ShardedIndex::open_durable_with_vfs(Arc::clone(&vfs), dir, DIM, shards, cfg()) {
        Ok(s) => s,
        Err(_) => return 0,
    };
    let mut acked = 0usize;
    for op in ops {
        let ok = match op {
            Op::Insert(p) => match s.insert(p.clone()) {
                Ok(_) => true,
                Err(DurableError::Invalid(e)) => {
                    panic!("workload points are valid by construction: {e}")
                }
                Err(DurableError::Backpressure { .. }) => {
                    panic!("tail_max is far above the workload length")
                }
                Err(DurableError::Persist(_)) => false,
            },
            Op::Remove(id) => s.remove(*id).is_ok(),
            Op::Checkpoint => s.checkpoint().is_ok(),
        };
        if !ok {
            return acked;
        }
        acked += 1;
    }
    let _ = s.close();
    acked
}

/// Global live slots of a sharded index: slot `g` holds the point with
/// global id `g`, found in its shard by [`ShardedIndex::locate`]. Every
/// id below the shards' total slot count must be placed, so the view
/// also checks that recovery kept the ids dense.
fn sharded_live_slots(idx: &ShardedIndex) -> Vec<Option<Point>> {
    let handles: Vec<_> = (0..idx.num_shards()).map(|i| idx.shard(i)).collect();
    let total: usize = handles.iter().map(|h| h.rows().len()).sum();
    (0..total)
        .map(|g| {
            let (shard, local) = idx
                .locate(g)
                .expect("every id below the slot total is placed");
            let h = &handles[shard];
            let row = h.rows().nth(local).expect("a located slot exists");
            h.is_live(local).then(|| Point::new(row.to_vec()))
        })
        .collect()
}

fn assert_sharded_queries_exact(idx: &ShardedIndex, tag: &str) {
    let live: Vec<Point> = sharded_live_slots(idx).into_iter().flatten().collect();
    for k in 0..12 {
        let q: Vec<f64> = (0..DIM)
            .map(|j| ((k * 17 + j * 29) % 100) as f64 / 100.0)
            .collect();
        let got = idx.query(&Query::nn(q.clone())).ok().map(|r| r.best);
        match (got, linear_scan_nn(&live, &q)) {
            (Some(got), Some(want)) => assert!(
                (got.dist - want.dist).abs() < 1e-9,
                "{tag}: query {q:?} returned dist {} but scan found {}",
                got.dist,
                want.dist
            ),
            (None, None) => {}
            (got, want) => panic!("{tag}: query {q:?} disagreement: {got:?} vs {want:?}"),
        }
    }
}

/// Kill-at-every-syscall over the sharded layout at `shards` shards:
/// per-shard WALs journal independently but acks still serialize through
/// the single writer, so recovery must land on the state after the acked
/// prefix (possibly plus one in-flight op) — crashing between one shard's
/// WAL fsync and the manifest write must neither resurrect a shard's old
/// generation into the global answer nor lose an acked op in another
/// shard. Recovery opens through the same manifest-first path operators
/// use, so a torn manifest write would fail loudly here.
fn sweep_sharded(shards: usize, seed: u64, dir: &Path) {
    let ops = workload(seed, 18);
    let states = model_states(&ops);

    // Fault-free baseline: count syscalls, check the final state.
    let clean = FaultVfs::new(FaultSchedule::none(seed));
    let acked = run_sharded_workload(Arc::new(clean.clone()), dir, &ops, shards);
    assert_eq!(
        acked,
        ops.len(),
        "S={shards}: fault-free run must acknowledge every op"
    );
    let total_ops = clean.ops();
    assert!(!clean.crashed());
    assert!(
        total_ops >= 60,
        "S={shards}: sharded workload shrank to {total_ops} syscalls — the sweep no longer \
         proves much"
    );
    let reopened = ShardedIndex::open_durable_with_vfs(
        Arc::new(clean.survivor(FaultSchedule::none(seed))),
        dir,
        DIM,
        shards,
        cfg(),
    )
    .expect("clean reopen");
    assert!(
        states_equal(&sharded_live_slots(&reopened), &states[ops.len()]),
        "S={shards}: fault-free run must end in the full-workload state"
    );

    // Crash at every syscall.
    for k in 0..total_ops {
        let fault = FaultVfs::new(FaultSchedule::crash_at(seed, k));
        let acked = run_sharded_workload(Arc::new(fault.clone()), dir, &ops, shards);
        assert!(
            fault.crashed(),
            "S={shards}: crash point {k} < {total_ops} must have fired"
        );

        let survivor = fault.survivor(FaultSchedule::none(seed.wrapping_add(k)));
        let recovered =
            ShardedIndex::open_durable_with_vfs(Arc::new(survivor), dir, DIM, shards, cfg())
                .unwrap_or_else(|e| {
                    panic!("S={shards}: crash point {k}: sharded recovery failed: {e}")
                });

        // The manifest can never claim a shard layout that does not
        // exist on disk (manifest-last ordering): recovery reopened all
        // S shards or it would have errored above.
        assert_eq!(recovered.num_shards(), shards, "crash point {k}");
        assert_eq!(recovered.recovery().len(), shards, "crash point {k}");

        // Prefix consistency across the *global* id space: no shard
        // resurrection (a removed point reappearing from a stale shard
        // generation) and no lost acked op in any shard.
        let got = sharded_live_slots(&recovered);
        let lo = &states[acked];
        let hi = &states[(acked + 1).min(ops.len())];
        assert!(
            states_equal(&got, lo) || states_equal(&got, hi),
            "S={shards}: crash point {k}: recovered sharded state matches neither the \
             state after the {acked} acknowledged ops nor one in-flight op beyond it\n\
             recovered: {} slots, expected {} or {} slots",
            got.len(),
            lo.len(),
            hi.len()
        );
        assert_sharded_queries_exact(&recovered, &format!("S={shards}: crash point {k}"));
    }
}

/// The sweep at one shard (a single durable shard directory under the
/// sharded manifest) and at two.
#[test]
fn every_crash_point_recovers_a_prefix_consistent_sharded_index() {
    let seed = fault_seed().wrapping_mul(5);
    sweep_sharded(1, seed, Path::new("/sharded-db-1"));
    sweep_sharded(2, seed, Path::new("/sharded-db-2"));
}

// ---------------------------------------------------------------------
// The sweep over the memtable write path: acks are journal-only (O(1)),
// folds interleave with the workload, and checkpoints re-journal the
// unfolded tail into the fresh WAL. Crash points now land inside
// tail-aware checkpoints and around folds — the fold/checkpoint
// interleavings of the LSM design.

const SHARDS: usize = 2;

/// Runs the workload against a memtable-enabled sharded durable index,
/// folding synchronously every third op (deterministic interleaving).
/// Folding is asserted to make **zero** syscalls — the property that
/// makes fold crash-consistency trivial: disk state never depends on
/// fold progress, so recovery is pure WAL replay and can neither lose
/// an acked write to a crashed fold nor double-apply a folded one.
fn run_sharded_memtable_workload(fault: &FaultVfs, dir: &Path, ops: &[Op]) -> usize {
    let vfs: Arc<dyn Vfs> = Arc::new(fault.clone());
    let s = match ShardedIndex::open_durable_with_vfs(Arc::clone(&vfs), dir, DIM, SHARDS, cfg()) {
        Ok(s) => s,
        Err(_) => return 0,
    };
    let s = s.with_memtable(FoldConfig {
        tail_max: 1 << 20,
        ..FoldConfig::default()
    });
    let mut acked = 0usize;
    for (i, op) in ops.iter().enumerate() {
        let ok = match op {
            Op::Insert(p) => match s.insert(p.clone()) {
                Ok(_) => true,
                Err(DurableError::Invalid(e)) => {
                    panic!("workload points are valid by construction: {e}")
                }
                Err(DurableError::Backpressure { .. }) => {
                    panic!("tail_max is far above the workload length")
                }
                Err(DurableError::Persist(_)) => false,
            },
            Op::Remove(id) => s.remove(*id).is_ok(),
            Op::Checkpoint => s.checkpoint().is_ok(),
        };
        if !ok {
            return acked;
        }
        acked += 1;
        if i % 3 == 2 {
            let before = fault.ops();
            s.fold_once()
                .expect("no chaos configured — folds cannot fail");
            assert_eq!(fault.ops(), before, "folding must make zero syscalls");
        }
    }
    let _ = s.close();
    acked
}

/// Kill-at-every-syscall over the memtable write path. Recovery opens
/// the directory by plain per-shard WAL replay: the
/// WAL alone must reconstruct snapshot + tail, whatever mix of folded and
/// unfolded state the crash interrupted.
#[test]
fn every_crash_point_recovers_the_memtable_write_path() {
    let seed = fault_seed().wrapping_mul(11);
    let dir = Path::new("/memtable-db");
    let ops = workload(seed, 18);
    let states = model_states(&ops);

    // Fault-free baseline: count syscalls, check the final state.
    let clean = FaultVfs::new(FaultSchedule::none(seed));
    let acked = run_sharded_memtable_workload(&clean, dir, &ops);
    assert_eq!(acked, ops.len(), "fault-free run must acknowledge every op");
    let total_ops = clean.ops();
    assert!(!clean.crashed());
    assert!(
        total_ops >= 60,
        "memtable workload shrank to {total_ops} syscalls — the sweep no longer proves much"
    );
    let reopened = ShardedIndex::open_durable_with_vfs(
        Arc::new(clean.survivor(FaultSchedule::none(seed))),
        dir,
        DIM,
        SHARDS,
        cfg(),
    )
    .expect("clean reopen");
    assert!(
        states_equal(&sharded_live_slots(&reopened), &states[ops.len()]),
        "fault-free run must end in the full-workload state"
    );

    // Crash at every syscall.
    for k in 0..total_ops {
        let fault = FaultVfs::new(FaultSchedule::crash_at(seed, k));
        let acked = run_sharded_memtable_workload(&fault, dir, &ops);
        assert!(
            fault.crashed(),
            "crash point {k} < {total_ops} must have fired"
        );

        let survivor = fault.survivor(FaultSchedule::none(seed.wrapping_add(k)));
        let recovered =
            ShardedIndex::open_durable_with_vfs(Arc::new(survivor), dir, DIM, SHARDS, cfg())
                .unwrap_or_else(|e| panic!("crash point {k}: memtable recovery failed: {e}"));

        // Prefix consistency, bit-identical points: every acked write
        // survives (journal-before-ack), nothing double-applies (folds
        // never touch disk), at most one in-flight op beyond the acks.
        let got = sharded_live_slots(&recovered);
        let lo = &states[acked];
        let hi = &states[(acked + 1).min(ops.len())];
        assert!(
            states_equal(&got, lo) || states_equal(&got, hi),
            "crash point {k}: recovered memtable state matches neither the state \
             after the {acked} acknowledged ops nor one in-flight op beyond it\n\
             recovered: {} slots, expected {} or {} slots",
            got.len(),
            lo.len(),
            hi.len()
        );
        assert_sharded_queries_exact(&recovered, &format!("memtable crash point {k}"));
    }
}

/// A failed journal fsync leaves the record, and the global id it carries,
/// in that shard's WAL, where a restart that keeps the page cache replays
/// it. Until a checkpoint rotates the record out, no insert may be acked,
/// not even one routed to the other shard: it would carry the same id, and
/// the restarted directory would hold that id twice and refuse to open.
#[test]
fn a_failed_journal_fsync_holds_every_insert_until_a_checkpoint() {
    let seed = fault_seed().wrapping_mul(5);
    let dir = Path::new("/db-poisoned");
    // Two clusters far apart on axis 0: the median plane puts one in each
    // shard, and `pa`, `pb` land one in each.
    let pts: Vec<Point> = (0..40)
        .map(|i| {
            let x = if i % 2 == 0 { 0.1 } else { 0.7 } + i as f64 * 0.004;
            Point::new(vec![x, 0.3 + (i % 7) as f64 * 0.05])
        })
        .collect();
    let n = pts.len();
    let (pa, pb) = (
        Point::new(vec![0.1234, 0.4321]),
        Point::new(vec![0.7654, 0.4567]),
    );
    let durable = |vfs: &FaultVfs| {
        ShardedIndex::build(pts.clone(), 2, cfg())
            .expect("distinct points build")
            .into_durable_with_vfs(Arc::new(vfs.clone()), dir)
            .expect("a fresh directory")
    };
    let reopen = |vfs: &FaultVfs| {
        ShardedIndex::open_durable_with_vfs(Arc::new(vfs.clone()), dir, DIM, 2, cfg())
            .expect("the directory reopens")
    };

    // Fault-free: find the op index of `pa`'s journal fsync (an append is
    // a write and an fsync) and check that the two points part.
    let clean = FaultVfs::new(FaultSchedule::none(seed));
    let idx = durable(&clean);
    let before = clean.ops();
    let (ga, gb) = (
        idx.insert(pa.clone()).unwrap(),
        idx.insert(pb.clone()).unwrap(),
    );
    assert_eq!(
        clean.ops() - before,
        4,
        "two appends of one write and one fsync each"
    );
    let (sa, sb) = (idx.locate(ga).unwrap().0, idx.locate(gb).unwrap().0);
    assert_ne!(sa, sb, "the two points route to different shards");
    let schedule = FaultSchedule {
        seed,
        fail_sync_ops: vec![before + 1],
        ..FaultSchedule::default()
    };

    // Restart without a checkpoint: `pa`'s unacked record is replayed as
    // id n, and nothing else took that id.
    let fault = FaultVfs::new(schedule.clone());
    let idx = durable(&fault);
    assert_eq!(fault.ops(), before, "the build replays op for op");
    assert!(matches!(
        idx.insert(pa.clone()),
        Err(DurableError::Persist(_))
    ));
    assert!(
        matches!(idx.insert(pb.clone()), Err(DurableError::Persist(_))),
        "an insert routed to a healthy shard is refused while another's journal is poisoned"
    );
    drop(idx);
    let back = reopen(&fault);
    assert_eq!(back.len(), n + 1, "the in-flight record replays");
    assert_eq!(back.locate(n).map(|(s, _)| s), Some(sa));
    assert_sharded_queries_exact(&back, "restart after a failed fsync");

    // A checkpoint rotates the failed record out; inserts resume at id n.
    let fault = FaultVfs::new(schedule);
    let idx = durable(&fault);
    assert!(idx.insert(pa.clone()).is_err());
    idx.checkpoint()
        .expect("a checkpoint rotates the poisoned journal");
    assert_eq!(idx.insert(pb.clone()).unwrap(), n);
    drop(idx);
    let back = reopen(&fault);
    assert_eq!(back.len(), n + 1);
    assert_eq!(back.locate(n).map(|(s, _)| s), Some(sb));
    let nearest = back.query(&Query::nn(pa.into_vec())).unwrap().best;
    assert!(nearest.dist > 0.0, "the failed insert is gone");
    assert_sharded_queries_exact(&back, "restart after a checkpoint");
}

/// Snapshot saves are atomic under crashes too: killing `save_with_vfs` at
/// every syscall leaves either the intact old file or the intact new file,
/// never a torn hybrid (satellite of the same protocol, exercised through
/// the public persistence API rather than the WAL layer).
#[test]
fn snapshot_save_is_crash_atomic() {
    let seed = fault_seed().wrapping_mul(3);
    let old_pts: Vec<Point> = (0..12)
        .map(|i| {
            Point::new(vec![
                i as f64 / 13.0 + 0.01,
                (i * 7 % 13) as f64 / 13.0 + 0.01,
            ])
        })
        .collect();
    let new_pts: Vec<Point> = (0..20)
        .map(|i| {
            Point::new(vec![
                (i * 5 % 21) as f64 / 21.0 + 0.01,
                i as f64 / 21.0 + 0.01,
            ])
        })
        .collect();
    let old_index = NnCellIndex::build(old_pts.clone(), cfg()).expect("build old");
    let new_index = NnCellIndex::build(new_pts.clone(), cfg()).expect("build new");
    let path = Path::new("/snap/index.nncell");

    // Count syscalls of the overwrite.
    let clean = FaultVfs::new(FaultSchedule::none(seed));
    old_index.save_with_vfs(&clean, path).expect("seed save");
    let before = clean.ops();
    new_index.save_with_vfs(&clean, path).expect("overwrite");
    let total = clean.ops() - before;

    for k in 0..total {
        let fault = FaultVfs::new(FaultSchedule::none(seed));
        old_index.save_with_vfs(&fault, path).expect("seed save");
        let crash_op = fault.ops() + k;
        // Re-arm with a crash inside the overwrite only.
        let fault = {
            let armed = FaultVfs::new(FaultSchedule::crash_at(seed, crash_op));
            old_index.save_with_vfs(&armed, path).expect("seed save");
            armed
        };
        let res = new_index.save_with_vfs(&fault, path);
        assert!(res.is_err(), "crash at overwrite op {k} must surface");

        let survivor = fault.survivor(FaultSchedule::none(seed.wrapping_add(k)));
        let loaded = NnCellIndex::load_with_vfs(&survivor, path)
            .unwrap_or_else(|e| panic!("crash at overwrite op {k}: load failed: {e}"));
        let n = loaded.len();
        assert!(
            n == old_pts.len() || n == new_pts.len(),
            "crash at overwrite op {k}: torn snapshot with {n} points"
        );
    }
}
