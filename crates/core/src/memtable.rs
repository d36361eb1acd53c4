//! The unindexed memtable tail of the LSM-style write path.
//!
//! Every [`crate::ShardedIndex`] write takes this path: an insert or
//! remove journals to the shard's WAL, lands in a small
//! in-memory tail of raw operations, and is acknowledged — no point-tree
//! update, no snapshot clone on the ack path. A supervised background
//! *folder* ([`crate::ShardedIndex::run_folder`]) later applies the tail
//! to the shard's index off the write path and publishes the folded
//! index together with the tail view that is left.
//!
//! Exactness is preserved by construction (a covering-superset argument):
//! a query's k-NN kernel traverses the published index, skipping
//! tombstoned ids, then scans the tail's live inserts under the k-th-best
//! bound the traversal ended with. Every live point is either in the
//! index or in the tail and every tombstone is applied, so the answer
//! equals a linear scan over the true live set.
//! The operations (`Memtable`) live under the writer lock; readers see
//! them through the query-side view (`TailSnapshot`) that every write
//! and fold publishes in the index's one read state, shared by `Arc`, so
//! a read never copies the tail.
//!
//! Durability never depends on the folder: folding performs **zero**
//! syscalls (the WAL already holds every tail record, fsynced before the
//! ack), so a crash at any point recovers by plain WAL replay and a
//! broken folder degrades service latency, never correctness.

use crate::wal::WalRecord;
use nncell_geom::Point;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

/// One journaled-but-unfolded operation. `local` is the shard-local slot
/// the operation targets; for inserts it is the slot the point will
/// occupy once folded — fixed at ack time so folding in ack order is
/// bit-identical to WAL replay — and `global` the id it was acked under.
#[derive(Clone, Debug)]
pub(crate) enum TailOp {
    Insert {
        local: usize,
        global: usize,
        point: Point,
    },
    Remove {
        local: usize,
    },
}

/// Per-shard memtable: operations in ack order, split into the batch a
/// fold is (or was) working on (`frozen`) and everything acked since
/// (`active`). It lives under the writer lock; the query-side view of
/// both is the shard's published `TailSnapshot`, which the writer
/// changes with every push.
#[derive(Debug, Default)]
pub(crate) struct Memtable {
    frozen: Vec<TailOp>,
    active: Vec<TailOp>,
}

impl Memtable {
    pub(crate) fn len(&self) -> usize {
        self.frozen.len() + self.active.len()
    }

    /// Appends an acked operation.
    pub(crate) fn push(&mut self, op: TailOp) {
        self.active.push(op);
    }

    /// Moves the active ops into the frozen batch (merging with any
    /// leftovers of a failed fold) and returns a copy for the folder to
    /// apply off-lock.
    pub(crate) fn freeze(&mut self) -> Vec<TailOp> {
        self.frozen.append(&mut self.active);
        self.frozen.clone()
    }

    /// Discards the frozen batch once a fold has indexed it and returns
    /// the view of the ops acked since the freeze: the tail view to
    /// publish with the folded index.
    pub(crate) fn clear_frozen(&mut self) -> TailSnapshot {
        self.frozen.clear();
        let mut view = TailSnapshot::default();
        for op in &self.active {
            view.apply(op);
        }
        view
    }

    /// The unfolded tail as WAL records in ack order — exactly the suffix
    /// a checkpoint must re-journal into its fresh log so replay
    /// reconstructs the published snapshot + tail.
    pub(crate) fn wal_records(&self) -> Vec<WalRecord> {
        self.frozen
            .iter()
            .chain(&self.active)
            .map(|op| match op {
                TailOp::Insert { global, point, .. } => WalRecord::InsertAt {
                    id: *global as u64,
                    point: point.clone(),
                },
                TailOp::Remove { local } => WalRecord::Remove(*local as u64),
            })
            .collect()
    }
}

/// The query-side view of one shard's memtable tail, published with the
/// shard's index in the sharded index's read state and answered together
/// with it by the fan-out's engine, which scans its inserts after the
/// walk, with the leaf kernel, and skips its tombstones during the walk.
/// A read takes it by `Arc` (a refcount bump), so it never copies the
/// tail; a write changes it in place unless a reader still holds it
/// ([`Arc::make_mut`]).
#[derive(Clone, Debug, Default)]
pub(crate) struct TailSnapshot {
    /// Live unfolded inserts in ack order — which is ascending slot
    /// order and ascending global-id order, since a shard assigns slots
    /// and the index assigns global ids in ack order.
    pub(crate) inserts: TailInserts,
    /// Slots tombstoned by unfolded removes, ascending and distinct
    /// (targets may live in the published snapshot *or* have been tail
    /// inserts, which a tombstone drops from `inserts`).
    pub(crate) removed: Vec<usize>,
}

/// Inserts per chunk of [`TailInserts`]'s coordinate store: one
/// dimension-major block, evaluated by one call of the leaf kernel.
pub(crate) const TAIL_CHUNK: usize = 64;

/// The live unfolded inserts of a tail view as three parallel columns:
/// a query's scan reads the coordinates contiguously and touches an id
/// only for a candidate within its bound, and a write copies no point.
///
/// The coordinates are stored like a point-tree leaf, so the query
/// engine evaluates a tail insert with the leaf kernel: in ack order,
/// in chunks of [`TAIL_CHUNK`] inserts, each chunk dimension-major —
/// coordinate `j` of insert `c·64 + l` sits at `c·64·d + j·64 + l`. The
/// lanes of the last chunk past `len` are padding (zero): the kernel
/// computes them and the scan ignores them.
#[derive(Clone, Debug, Default)]
pub(crate) struct TailInserts {
    /// Dimension-major chunks of [`TAIL_CHUNK`] inserts each.
    cols: Vec<f64>,
    /// The slot each insert will occupy once folded.
    locals: Vec<usize>,
    /// The global id each insert was acked under.
    globals: Vec<usize>,
}

impl TailInserts {
    pub(crate) fn len(&self) -> usize {
        self.locals.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.locals.is_empty()
    }

    /// The dimension of the inserts (0 while there are none).
    fn dim(&self) -> usize {
        self.cols.len() / (self.len().div_ceil(TAIL_CHUNK) * TAIL_CHUNK).max(1)
    }

    /// The inserts in ack order, one chunk at a time: its dimension-major
    /// block of [`TAIL_CHUNK`] lanes and the global ids of its inserts,
    /// which are as many as the lanes that hold one.
    pub(crate) fn chunks(&self) -> impl Iterator<Item = (&[f64], &[usize])> {
        let block = (TAIL_CHUNK * self.dim()).max(1);
        self.cols
            .chunks_exact(block)
            .zip(self.globals.chunks(TAIL_CHUNK))
    }

    fn push(&mut self, local: usize, global: usize, point: &[f64]) {
        let (i, d) = (self.len(), point.len());
        if i % TAIL_CHUNK == 0 {
            self.cols.resize(self.cols.len() + TAIL_CHUNK * d, 0.0);
        }
        let base = (i / TAIL_CHUNK) * TAIL_CHUNK * d + i % TAIL_CHUNK;
        for (j, &x) in point.iter().enumerate() {
            self.cols[base + j * TAIL_CHUNK] = x;
        }
        self.locals.push(local);
        self.globals.push(global);
    }

    /// Drops insert `at`: every later insert moves down one slot, lane 0
    /// of a chunk into the last lane of the chunk before, and a chunk
    /// left empty is freed.
    fn remove(&mut self, at: usize) {
        let d = self.dim();
        let block = TAIL_CHUNK * d;
        let mut lane = at % TAIL_CHUNK;
        for base in (at / TAIL_CHUNK * block..self.cols.len()).step_by(block) {
            for col in (base..base + block).step_by(TAIL_CHUNK) {
                self.cols
                    .copy_within(col + lane + 1..col + TAIL_CHUNK, col + lane);
                let next = self.cols.get(col + block).copied().unwrap_or(0.0);
                self.cols[col + TAIL_CHUNK - 1] = next;
            }
            lane = 0;
        }
        self.locals.remove(at);
        self.globals.remove(at);
        self.cols.truncate(self.len().div_ceil(TAIL_CHUNK) * block);
    }
}

impl TailSnapshot {
    /// No live inserts and no tombstones — merging this is a no-op.
    pub(crate) fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.removed.is_empty()
    }

    /// Applies one acked operation: an insert joins `inserts`, a remove
    /// tombstones its slot.
    pub(crate) fn apply(&mut self, op: &TailOp) {
        match op {
            TailOp::Insert {
                local,
                global,
                point,
            } => self.inserts.push(*local, *global, point.as_slice()),
            TailOp::Remove { local } => self.push_remove(*local),
        }
    }

    /// Whether an unfolded tombstone targets `local` (a binary search).
    pub(crate) fn is_removed(&self, local: usize) -> bool {
        self.removed.binary_search(&local).is_ok()
    }

    /// Whether the tail holds a live insert for `local` (a binary search).
    pub(crate) fn has_live_insert(&self, local: usize) -> bool {
        self.inserts.locals.binary_search(&local).is_ok()
    }

    /// The slot of the live tail insert acked under global id `global`
    /// (a binary search).
    pub(crate) fn slot_of(&self, global: usize) -> Option<usize> {
        let at = self.inserts.globals.binary_search(&global).ok()?;
        Some(self.inserts.locals[at])
    }

    /// The global id of a live tail insert equal to `p` coordinate by
    /// coordinate (`==`, so −0.0 equals +0.0), mirroring the index's
    /// duplicate policy.
    pub(crate) fn find_live_duplicate(&self, p: &Point) -> Option<usize> {
        let p = p.as_slice();
        self.inserts.chunks().find_map(|(block, globals)| {
            let same =
                |l: usize| (p.iter().enumerate()).all(|(j, &x)| block[j * TAIL_CHUNK + l] == x);
            (0..globals.len()).find(|&l| same(l)).map(|l| globals[l])
        })
    }

    /// Tombstones `local`: a live tail insert for it leaves `inserts`,
    /// and the slot joins the sorted tombstone list.
    fn push_remove(&mut self, local: usize) {
        if let Ok(at) = self.inserts.locals.binary_search(&local) {
            self.inserts.remove(at);
        }
        if let Err(at) = self.removed.binary_search(&local) {
            self.removed.insert(at, local);
        }
    }
}

/// Tuning and fault knobs for the memtable tier, passed to
/// [`crate::ShardedIndex::with_memtable`].
#[derive(Clone, Debug)]
pub struct FoldConfig {
    /// High-watermark on unfolded operations across all shards; writes
    /// beyond it are refused with [`crate::durable::DurableError::Backpressure`]
    /// (surfaced as HTTP 429 + `Retry-After` by the server), bounding
    /// memory and tail-scan cost no matter how broken the folder is.
    pub tail_max: usize,
    /// How long an idle folder sleeps between checks for new tail work.
    pub poll_interval: Duration,
    /// First retry delay after a failed fold.
    pub retry_base: Duration,
    /// Cap on the exponential fold-retry backoff.
    pub retry_cap: Duration,
    /// Consecutive fold failures before the index reports itself
    /// degraded (`/readyz` body, `nncell_fold_degraded` gauge). Writes
    /// and exact queries continue either way.
    pub degrade_after: u32,
    /// Chaos hook: while the flag is `true`, every fold attempt panics
    /// inside the folder (exercising the supervision path end-to-end).
    pub fault_fold_panic: Option<Arc<AtomicBool>>,
}

impl Default for FoldConfig {
    fn default() -> Self {
        Self {
            tail_max: 4096,
            poll_interval: Duration::from_millis(20),
            retry_base: Duration::from_millis(50),
            retry_cap: Duration::from_secs(5),
            degrade_after: 3,
            fault_fold_panic: None,
        }
    }
}

/// A point-in-time view of the folder's health, from
/// [`crate::ShardedIndex::fold_status`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FoldStatus {
    /// Journaled-but-unfolded operations across all shards.
    pub tail_depth: usize,
    /// Whether `degrade_after` consecutive folds have failed.
    pub degraded: bool,
    /// Current consecutive fold-failure streak.
    pub consecutive_failures: u32,
    /// Successful folds since open.
    pub folds: u64,
    /// Operations folded into the shard indexes since open.
    pub folded_records: u64,
    /// Failed (panicked) folds since open.
    pub failures: u64,
}

/// Why a fold attempt did not publish.
#[derive(Debug)]
pub enum FoldError {
    /// The fold closure panicked (a bug, poisoned data, injected chaos);
    /// the batch stays frozen in the tail and will be retried.
    Panicked {
        /// Shard whose fold panicked.
        shard: usize,
    },
}

impl std::fmt::Display for FoldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FoldError::Panicked { shard } => {
                write!(f, "fold of shard {shard} panicked; batch kept for retry")
            }
        }
    }
}

impl std::error::Error for FoldError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(x: f64) -> Point {
        Point::new(vec![x, 1.0 - x])
    }

    /// An insert into slot `local` under global id `10 + local`.
    fn ins(local: usize, x: f64) -> TailOp {
        TailOp::Insert {
            local,
            global: 10 + local,
            point: pt(x),
        }
    }

    /// A memtable and its view, kept in step as the writer keeps them.
    #[derive(Default)]
    struct Tail {
        mem: Memtable,
        view: TailSnapshot,
    }

    impl Tail {
        fn push(&mut self, op: TailOp) {
            self.view.apply(&op);
            self.mem.push(op);
        }
    }

    #[test]
    fn pushes_freeze_and_clear_track_membership() {
        let mut t = Tail::default();
        t.push(ins(0, 0.1));
        t.push(ins(1, 0.2));
        t.push(TailOp::Remove { local: 0 });
        assert_eq!(t.mem.len(), 3);
        assert!(t.view.is_removed(0));
        assert!(t.view.has_live_insert(1));
        assert!(!t.view.has_live_insert(0), "tombstoned tail insert is dead");
        assert_eq!(t.view.find_live_duplicate(&pt(0.2)), Some(11));
        assert_eq!((t.view.slot_of(11), t.view.slot_of(10)), (Some(1), None));
        assert_eq!(t.view.find_live_duplicate(&pt(0.1)), None);

        let batch = t.mem.freeze();
        assert_eq!(batch.len(), 3);
        // Ops acked mid-fold land in the next batch but stay visible.
        t.push(TailOp::Remove { local: 1 });
        assert!(t.view.is_removed(1));
        assert!(t.view.inserts.is_empty());
        assert_eq!(t.view.removed, vec![0, 1]);

        let view = t.mem.clear_frozen();
        assert_eq!(t.mem.len(), 1, "only the post-freeze remove is left");
        assert!(!view.is_removed(0), "folded tombstone left the view");
        assert!(view.is_removed(1), "unfolded tombstone stays");
    }

    #[test]
    fn tombstones_stay_sorted_for_binary_search() {
        let mut t = Tail::default();
        for local in [7, 2, 9, 4] {
            t.push(TailOp::Remove { local });
        }
        t.push(ins(10, 0.3));
        t.push(TailOp::Remove { local: 10 });
        assert_eq!(t.view.removed, vec![2, 4, 7, 9, 10]);
        assert!(t.view.inserts.is_empty());
    }

    #[test]
    fn failed_fold_batches_merge_in_ack_order() {
        let mut m = Memtable::default();
        m.push(ins(0, 0.1));
        let first = m.freeze();
        assert_eq!(first.len(), 1);
        // The fold fails; more ops arrive; the refreeze must replay the
        // old batch before the new ops.
        m.push(ins(1, 0.2));
        let second = m.freeze();
        assert_eq!(second.len(), 2);
        assert!(matches!(&second[0], TailOp::Insert { local: 0, .. }));
        assert!(matches!(&second[1], TailOp::Insert { local: 1, .. }));
    }

    /// Each live insert of `t` as `(local, global, coordinates)`,
    /// gathered from its dimension-major chunks.
    fn gather(t: &TailInserts) -> Vec<(usize, usize, Vec<f64>)> {
        let d = t.dim();
        assert_eq!(t.cols.len(), t.len().div_ceil(TAIL_CHUNK) * TAIL_CHUNK * d);
        let mut out = Vec::new();
        for (block, globals) in t.chunks() {
            for (l, &g) in globals.iter().enumerate() {
                let row = (0..d).map(|j| block[j * TAIL_CHUNK + l]).collect();
                out.push((t.locals[out.len()], g, row));
            }
        }
        assert_eq!(out.len(), t.len());
        out
    }

    #[test]
    fn dimension_major_chunks_match_a_row_model_across_removes() {
        // Insert 100 has a +0.0 coordinate, in the second chunk.
        let row = |i: usize| {
            let x = if i == 100 {
                0.0
            } else {
                0.5 + i as f64 / 1000.0
            };
            vec![x, i as f64, 1.0 - i as f64]
        };
        let mut view = TailSnapshot::default();
        let mut model: Vec<(usize, usize, Vec<f64>)> = Vec::new();
        for i in 0..130 {
            let op = TailOp::Insert {
                local: i,
                global: 1000 + i,
                point: Point::new(row(i)),
            };
            view.apply(&op);
            model.push((i, 1000 + i, row(i)));
            assert_eq!(gather(&view.inserts), model, "after push {i}");
        }
        // The last insert, positions 0, 63 and 64 (the lanes on either
        // side of the chunk boundary), and one inside the second chunk.
        for pos in [129, 0, 63, 64, 90] {
            let (local, global, _) = model.remove(pos);
            view.apply(&TailOp::Remove { local });
            assert_eq!(
                gather(&view.inserts),
                model,
                "after removing position {pos}"
            );
            let gone = Point::new(row(global - 1000));
            assert_eq!(view.find_live_duplicate(&gone), None);
        }
        for (_, global, coords) in &model {
            let p = Point::new(coords.clone());
            assert_eq!(view.find_live_duplicate(&p), Some(*global));
        }
        let negative_zero = Point::new(vec![-0.0, 100.0, -99.0]);
        assert_eq!(view.find_live_duplicate(&negative_zero), Some(1100));
        // Removing every insert frees every chunk.
        while let Some((local, ..)) = model.pop() {
            view.apply(&TailOp::Remove { local });
            assert_eq!(gather(&view.inserts), model);
        }
        assert!(view.inserts.cols.is_empty());
    }

    #[test]
    fn wal_records_mirror_the_unfolded_suffix() {
        let mut m = Memtable::default();
        m.push(ins(3, 0.4));
        m.push(TailOp::Remove { local: 2 });
        let recs = m.wal_records();
        assert_eq!(recs.len(), 2);
        assert!(matches!(
            &recs[0],
            WalRecord::InsertAt { id: 13, point } if point.as_slice() == pt(0.4).as_slice()
        ));
        assert!(matches!(recs[1], WalRecord::Remove(2)));
    }
}
