//! The unindexed memtable tail of the LSM-style write path.
//!
//! Every [`crate::ShardedIndex`] write takes this path: an insert or
//! remove journals to the shard's WAL, lands in a small
//! in-memory tail of raw operations, and is acknowledged — no point-tree
//! update, no snapshot clone on the ack path. A supervised background
//! *folder* ([`crate::ShardedIndex::run_folder`]) later applies the tail
//! to the shard's index off the write path and publishes the
//! result through the copy-on-write [`crate::SnapshotCell`] swap.
//!
//! Exactness is preserved by construction (a covering-superset argument):
//! a query's k-NN kernel first scans the tail's live inserts, then
//! traverses the published index, skipping tombstoned ids. Every live
//! point is either in the snapshot or in the tail and every tombstone is
//! applied, so the answer equals a linear scan over the true live set.
//! The memtable keeps that query-side view ([`TailSnapshot`]) current on
//! every push and shares it by `Arc`, so a read never copies the tail.
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
/// (`active`), plus the query-side `view` of both, kept current on every
/// push. All access happens under the owning shard's tail mutex; holds
/// are pushes, an `Arc` clone, or (once per fold) a view rebuild — never
/// a tree update.
#[derive(Debug, Default)]
pub(crate) struct Memtable {
    frozen: Vec<TailOp>,
    active: Vec<TailOp>,
    /// Live inserts and sorted tombstones of `frozen` + `active`. Shared
    /// with readers by `Arc` clone; a push copies it only while a reader
    /// still holds the previous version ([`Arc::make_mut`]).
    view: Arc<TailSnapshot>,
}

impl Memtable {
    pub(crate) fn len(&self) -> usize {
        self.frozen.len() + self.active.len()
    }

    pub(crate) fn push_insert(&mut self, local: usize, point: Point) {
        Arc::make_mut(&mut self.view)
            .inserts
            .push((local, point.clone()));
        self.active.push(TailOp::Insert { local, point });
    }

    pub(crate) fn push_remove(&mut self, local: usize) {
        Arc::make_mut(&mut self.view).push_remove(local);
        self.active.push(TailOp::Remove { local });
    }

    /// The current query-side view, for membership checks under the lock.
    pub(crate) fn view(&self) -> &TailSnapshot {
        &self.view
    }

    /// The current query-side view, shared: an `Arc` clone, O(1) in the
    /// tail's size. Later pushes never change a view already handed out.
    pub(crate) fn snapshot(&self) -> Arc<TailSnapshot> {
        Arc::clone(&self.view)
    }

    /// Moves the active ops into the frozen batch (merging with any
    /// leftovers of a failed fold) and returns a copy for the folder to
    /// apply off-lock.
    pub(crate) fn freeze(&mut self) -> Vec<TailOp> {
        self.frozen.append(&mut self.active);
        self.frozen.clone()
    }

    /// Discards the frozen batch after a successful fold published it and
    /// rebuilds the view from the ops acked since the freeze.
    pub(crate) fn clear_frozen(&mut self) {
        self.frozen.clear();
        let mut view = TailSnapshot::default();
        for op in &self.active {
            match op {
                TailOp::Insert { local, point } => view.inserts.push((*local, point.clone())),
                TailOp::Remove { local } => view.push_remove(*local),
            }
        }
        self.view = Arc::new(view);
    }

    /// The unfolded tail as WAL records in ack order — exactly the suffix
    /// a checkpoint must re-journal into its fresh log so replay
    /// reconstructs the published snapshot + tail.
    pub(crate) fn wal_records(&self) -> Vec<WalRecord> {
        self.frozen
            .iter()
            .chain(&self.active)
            .map(|op| match op {
                TailOp::Insert { point, .. } => WalRecord::Insert(point.clone()),
                TailOp::Remove { local } => WalRecord::Remove(*local as u64),
            })
            .collect()
    }
}

/// An immutable view of one shard's memtable tail, answered together with
/// the shard's snapshot by [`crate::QueryEngine::with_tail`]. The memtable
/// shares its current view by `Arc` (taking one is a refcount bump under
/// the tail mutex) and keeps it current on every push, so a read never
/// copies the tail and writers never wait on a query holding one.
#[derive(Clone, Debug, Default)]
pub struct TailSnapshot {
    /// Live unfolded inserts as `(local slot, point)`, ack order — which
    /// is ascending slot order, since a shard assigns slots in ack order.
    pub(crate) inserts: Vec<(usize, Point)>,
    /// Slots tombstoned by unfolded removes, ascending and distinct
    /// (targets may live in the published snapshot *or* have been tail
    /// inserts, which a tombstone drops from `inserts`).
    pub(crate) removed: Vec<usize>,
}

impl TailSnapshot {
    /// A tail view from raw parts (primarily for tests; production views
    /// come from the memtable under its shard lock). `inserts` are taken
    /// as live; `removed` may come in any order.
    pub fn new(inserts: Vec<(usize, Point)>, removed: Vec<usize>) -> Self {
        let mut removed = removed;
        removed.sort_unstable();
        removed.dedup();
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

    /// Whether an unfolded tombstone targets `local` (a binary search).
    pub(crate) fn is_removed(&self, local: usize) -> bool {
        self.removed.binary_search(&local).is_ok()
    }

    /// Whether the tail holds a live insert for `local` (a binary search).
    pub(crate) fn has_live_insert(&self, local: usize) -> bool {
        self.inserts
            .binary_search_by_key(&local, |(l, _)| *l)
            .is_ok()
    }

    /// The slot of a live tail insert with exactly these coordinates
    /// (bit-identical, mirroring the index's duplicate policy).
    pub(crate) fn find_live_duplicate(&self, p: &Point) -> Option<usize> {
        self.inserts
            .iter()
            .find(|(_, point)| point.as_slice() == p.as_slice())
            .map(|(local, _)| *local)
    }

    /// Tombstones `local`: a live tail insert for it leaves `inserts`,
    /// and the slot joins the sorted tombstone list.
    fn push_remove(&mut self, local: usize) {
        if let Ok(at) = self.inserts.binary_search_by_key(&local, |(l, _)| *l) {
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

    #[test]
    fn pushes_freeze_and_clear_track_membership() {
        let mut m = Memtable::default();
        m.push_insert(0, pt(0.1));
        m.push_insert(1, pt(0.2));
        m.push_remove(0);
        assert_eq!(m.len(), 3);
        assert!(m.view().is_removed(0));
        assert!(m.view().has_live_insert(1));
        assert!(
            !m.view().has_live_insert(0),
            "tombstoned tail insert is dead"
        );
        assert_eq!(m.view().find_live_duplicate(&pt(0.2)), Some(1));
        assert_eq!(m.view().find_live_duplicate(&pt(0.1)), None);

        let batch = m.freeze();
        assert_eq!(batch.len(), 3);
        // Ops acked mid-fold land in the next batch but stay visible.
        m.push_remove(1);
        assert!(m.view().is_removed(1));
        let snap = m.snapshot();
        assert_eq!(snap.live(), 0);
        assert_eq!(snap.tombstones(), 2);

        m.clear_frozen();
        assert_eq!(m.len(), 1, "only the post-freeze remove is left");
        assert!(!m.view().is_removed(0), "folded tombstone left the view");
        assert!(m.view().is_removed(1), "unfolded tombstone stays");
    }

    #[test]
    fn tombstones_stay_sorted_for_binary_search() {
        let mut m = Memtable::default();
        for local in [7, 2, 9, 4] {
            m.push_remove(local);
        }
        m.push_insert(10, pt(0.3));
        m.push_remove(10);
        assert_eq!(m.view().removed, vec![2, 4, 7, 9, 10]);
        assert_eq!(m.view().live(), 0);
        assert_eq!(
            TailSnapshot::new(Vec::new(), vec![5, 1, 5, 3]).removed,
            vec![1, 3, 5],
            "raw parts are sorted and deduplicated"
        );
    }

    #[test]
    fn snapshots_share_the_view_until_the_next_write() {
        let mut m = Memtable::default();
        m.push_insert(0, pt(0.1));
        let a = m.snapshot();
        let b = m.snapshot();
        assert!(Arc::ptr_eq(&a, &b), "no write between: one shared view");
        drop(b);
        m.push_insert(1, pt(0.2));
        let c = m.snapshot();
        assert!(!Arc::ptr_eq(&a, &c), "a write under a held view copies it");
        drop(a);
        drop(c);
        // No reader holds the view: the push appends in place.
        let before = Arc::as_ptr(&m.view);
        m.push_remove(0);
        assert_eq!(Arc::as_ptr(&m.view), before);
    }

    #[test]
    fn a_held_view_is_unchanged_by_later_writes() {
        let mut m = Memtable::default();
        m.push_insert(0, pt(0.1));
        m.push_remove(5);
        let held = m.snapshot();
        m.push_insert(1, pt(0.2));
        m.push_remove(0);
        m.freeze();
        m.clear_frozen();
        assert_eq!(held.inserts.len(), 1);
        assert_eq!(held.inserts[0].0, 0);
        assert_eq!(held.inserts[0].1.as_slice(), pt(0.1).as_slice());
        assert_eq!(held.removed, vec![5]);
        assert_eq!(m.view().live(), 0, "the live view moved on");
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
