//! The unindexed memtable tail of the LSM-style write path.
//!
//! With a memtable enabled ([`crate::ShardedIndex::with_memtable`]), an
//! insert or remove journals to the shard's WAL, lands in a small
//! in-memory tail of raw operations, and is acknowledged — no point-tree
//! update, no snapshot clone on the ack path. A supervised background
//! *folder* ([`crate::ShardedIndex::run_folder`]) later applies the tail
//! to the shard's index off the write path and publishes the
//! result through the copy-on-write [`crate::SnapshotCell`] swap.
//!
//! Exactness is preserved by construction (a covering-superset argument):
//! a query answers from the published index *plus* a
//! linear scan of the tail, minus any tail tombstones. The tail is a
//! superset merge — every live point is either in the snapshot or in the
//! tail, every tombstone is applied — so the merged answer equals a
//! linear scan over the true live set.
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
/// bit-identical to WAL replay.
#[derive(Clone, Debug)]
pub(crate) enum TailOp {
    Insert { local: usize, point: Point },
    Remove { local: usize },
}

/// Per-shard memtable: operations in ack order, split into the batch a
/// fold is (or was) working on (`frozen`) and everything acked since
/// (`active`). `removed` mirrors every unfolded tombstone for O(tail)
/// membership checks. All access happens under the owning shard's tail
/// mutex; holds are O(1) pushes or O(tail) clones — never a tree update.
#[derive(Debug, Default)]
pub(crate) struct Memtable {
    frozen: Vec<TailOp>,
    active: Vec<TailOp>,
    removed: Vec<usize>,
}

impl Memtable {
    pub(crate) fn len(&self) -> usize {
        self.frozen.len() + self.active.len()
    }

    pub(crate) fn push_insert(&mut self, local: usize, point: Point) {
        self.active.push(TailOp::Insert { local, point });
    }

    pub(crate) fn push_remove(&mut self, local: usize) {
        self.active.push(TailOp::Remove { local });
        self.removed.push(local);
    }

    /// Whether an unfolded tombstone targets `local`.
    pub(crate) fn is_removed(&self, local: usize) -> bool {
        self.removed.contains(&local)
    }

    /// Whether the tail holds a live (not tombstoned) insert for `local`.
    pub(crate) fn has_live_insert(&self, local: usize) -> bool {
        !self.is_removed(local)
            && self.ops().any(|op| matches!(op, TailOp::Insert { local: l, .. } if *l == local))
    }

    /// The slot of a live tail insert with exactly these coordinates
    /// (bit-identical, mirroring the index's duplicate policy).
    pub(crate) fn find_live_duplicate(&self, p: &Point) -> Option<usize> {
        self.ops().find_map(|op| match op {
            TailOp::Insert { local, point }
                if point.as_slice() == p.as_slice() && !self.is_removed(*local) =>
            {
                Some(*local)
            }
            _ => None,
        })
    }

    fn ops(&self) -> impl Iterator<Item = &TailOp> {
        self.frozen.iter().chain(self.active.iter())
    }

    /// Count of live (not tombstoned) tail inserts.
    pub(crate) fn live_inserts(&self) -> usize {
        self.ops()
            .filter(|op| matches!(op, TailOp::Insert { local, .. } if !self.is_removed(*local)))
            .count()
    }

    /// Slots tombstoned by unfolded removes.
    pub(crate) fn removed_ids(&self) -> &[usize] {
        &self.removed
    }

    /// Moves the active ops into the frozen batch (merging with any
    /// leftovers of a failed fold) and returns a copy for the folder to
    /// apply off-lock.
    pub(crate) fn freeze(&mut self) -> Vec<TailOp> {
        self.frozen.append(&mut self.active);
        self.frozen.clone()
    }

    /// Discards the frozen batch after a successful fold published it,
    /// dropping its tombstones from the membership mirror.
    pub(crate) fn clear_frozen(&mut self) {
        // A live point is tombstoned at most once, so every id occurs at
        // most once in `removed` and a retain-by-membership is exact.
        let folded: Vec<usize> = self
            .frozen
            .iter()
            .filter_map(|op| match op {
                TailOp::Remove { local } => Some(*local),
                TailOp::Insert { .. } => None,
            })
            .collect();
        self.removed.retain(|id| !folded.contains(id));
        self.frozen.clear();
    }

    /// An owned, immutable view for query-side merging: live tail inserts
    /// in ack order plus every unfolded tombstone.
    pub(crate) fn snapshot(&self) -> TailSnapshot {
        let inserts = self
            .ops()
            .filter_map(|op| match op {
                TailOp::Insert { local, point } if !self.is_removed(*local) => {
                    Some((*local, point.clone()))
                }
                _ => None,
            })
            .collect();
        TailSnapshot::new(inserts, self.removed.clone())
    }

    /// The unfolded tail as WAL records in ack order — exactly the suffix
    /// a checkpoint must re-journal into its fresh log so replay
    /// reconstructs master + tail.
    pub(crate) fn wal_records(&self) -> Vec<WalRecord> {
        self.ops()
            .map(|op| match op {
                TailOp::Insert { point, .. } => WalRecord::Insert(point.clone()),
                TailOp::Remove { local } => WalRecord::Remove(*local as u64),
            })
            .collect()
    }
}

/// An immutable copy of one shard's memtable tail, merged into answers by
/// [`crate::QueryEngine::with_tail`]. Cheap to take (a bounded clone under
/// the tail mutex) and safe to scan off-lock: writers never wait on a
/// query holding one.
#[derive(Clone, Debug, Default)]
pub struct TailSnapshot {
    /// Live unfolded inserts as `(local slot, point)`, ack order.
    pub(crate) inserts: Vec<(usize, Point)>,
    /// Slots tombstoned by unfolded removes (targets may live in the
    /// published snapshot *or* in `inserts`' originating tail).
    pub(crate) removed: Vec<usize>,
}

impl TailSnapshot {
    /// A tail view from raw parts (primarily for tests; production views
    /// come from the memtable under its shard lock).
    pub fn new(inserts: Vec<(usize, Point)>, removed: Vec<usize>) -> Self {
        Self { inserts, removed }
    }

    /// No live inserts and no tombstones — merging this is a no-op.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.removed.is_empty()
    }

    /// Live unfolded inserts.
    pub fn live(&self) -> usize {
        self.inserts.len()
    }

    /// Unfolded tombstones.
    pub fn tombstones(&self) -> usize {
        self.removed.len()
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

    #[test]
    fn pushes_freeze_and_clear_track_membership() {
        let mut m = Memtable::default();
        m.push_insert(0, pt(0.1));
        m.push_insert(1, pt(0.2));
        m.push_remove(0);
        assert_eq!(m.len(), 3);
        assert!(m.is_removed(0));
        assert!(m.has_live_insert(1));
        assert!(!m.has_live_insert(0), "tombstoned tail insert is dead");
        assert_eq!(m.find_live_duplicate(&pt(0.2)), Some(1));
        assert_eq!(m.find_live_duplicate(&pt(0.1)), None);

        let batch = m.freeze();
        assert_eq!(batch.len(), 3);
        // Ops acked mid-fold land in the next batch but stay visible.
        m.push_remove(1);
        assert!(m.is_removed(1));
        let snap = m.snapshot();
        assert_eq!(snap.live(), 0);
        assert_eq!(snap.tombstones(), 2);

        m.clear_frozen();
        assert_eq!(m.len(), 1, "only the post-freeze remove is left");
        assert!(!m.is_removed(0), "folded tombstone left the mirror");
        assert!(m.is_removed(1), "unfolded tombstone stays");
    }

    #[test]
    fn failed_fold_batches_merge_in_ack_order() {
        let mut m = Memtable::default();
        m.push_insert(0, pt(0.1));
        let first = m.freeze();
        assert_eq!(first.len(), 1);
        // The fold fails; more ops arrive; the refreeze must replay the
        // old batch before the new ops.
        m.push_insert(1, pt(0.2));
        let second = m.freeze();
        assert_eq!(second.len(), 2);
        assert!(matches!(&second[0], TailOp::Insert { local: 0, .. }));
        assert!(matches!(&second[1], TailOp::Insert { local: 1, .. }));
    }

    #[test]
    fn wal_records_mirror_the_unfolded_suffix() {
        let mut m = Memtable::default();
        m.push_insert(3, pt(0.4));
        m.push_remove(2);
        let recs = m.wal_records();
        assert_eq!(recs.len(), 2);
        assert!(matches!(&recs[0], WalRecord::Insert(p) if p.as_slice() == pt(0.4).as_slice()));
        assert!(matches!(recs[1], WalRecord::Remove(2)));
    }
}
