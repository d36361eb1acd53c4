//! Sharded concurrent serving layer: S independent [`NnCellIndex`] shards
//! behind one exact query surface.
//!
//! # Partitioning and exactness
//!
//! Points are partitioned **round-robin** by global id: global id `g`
//! lives in shard `g % S` at local id `g / S` (so `global = local·S +
//! shard`, a bijection). Each shard returns its exact local k nearest
//! neighbors (its best-first search is exact over the shard's points),
//! and the k smallest of the union — merged by `(distance, global id)` —
//! are exactly the unsharded answer, tie ordering included. The id mapping
//! preserves order: within a shard, ascending local id means ascending
//! global id, so per-shard `(dist, local id)` ordering merges into the
//! global `(dist, global id)` ordering without re-sorting.
//!
//! # Concurrency: copy-on-write snapshots, single-writer log
//!
//! Each shard is wrapped in a [`SnapshotCell`]: readers
//! ([`ShardedIndex::query`] / [`ShardedIndex::batch`], `&self`) load the
//! current immutable snapshot `Arc` and run entirely on it. Writers
//! ([`ShardedIndex::insert`] / [`ShardedIndex::remove`], also `&self`)
//! serialize on one writer mutex, apply the mutation to the shard's
//! authoritative *master* index (journaling through the shard's WAL
//! first in durable mode), then **publish** a fresh clone. Readers never
//! block on a write and never observe a half-applied mutation; a query
//! overlapping a publish simply answers from the version it loaded.
//!
//! # Durable layout
//!
//! ```text
//! dir/CURRENT        "sharded <S>"      (atomically written manifest)
//! dir/shard-0/       a full PR-2 durable directory (CURRENT, snapshot.G, wal.G)
//! dir/shard-1/       …
//! ```
//!
//! The top-level `CURRENT` only records the shard count (written once at
//! initialization via the same `write_atomic` tmp+fsync+rename path);
//! each shard directory keeps its own generation machinery, so crash
//! recovery is per-shard WAL replay. Round-robin assignment makes the
//! global id watermark recoverable: acknowledged inserts are a prefix of
//! the global id sequence, so `next_global` is the sum of per-shard slot
//! counts.

use crate::config::BuildConfig;
use crate::durable::{DurableError, RecoveryReport};
use crate::cells::BuildStats;
use crate::index::{validate_build_inputs, validate_point, BuildError, NnCellIndex, QueryResult};
use crate::memtable::{FoldConfig, FoldError, FoldStatus, Memtable, TailOp, TailSnapshot};
use crate::metrics::FoldMetrics;
use crate::persist::PersistError;
use crate::query::{Query, QueryError, QueryKind, QueryResponse, QueryStats};
use crate::snapshot::SnapshotCell;
use crate::vfs::{write_atomic, StdVfs, Vfs};
use crate::wal::WalRecord;
use nncell_geom::{DataSpace, Euclidean, Point};
use nncell_obs::Registry;
use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// File name of the plain (non-durable) sharded directory manifest.
const PLAIN_MANIFEST: &str = "MANIFEST";
/// Magic of the plain manifest: `nncell-sharded <S>`.
const PLAIN_MAGIC: &str = "nncell-sharded";
/// Magic of the durable `CURRENT` manifest: `sharded <S>`. Deliberately
/// not a number, so a plain [`crate::DurableIndex::open`] on a sharded
/// directory fails with a typed corrupt-manifest error instead of
/// misreading it as a generation.
const DURABLE_MAGIC: &str = "sharded";

/// The authoritative (writer-side) copy of one shard.
enum ShardWriter {
    /// In-memory shard.
    Mem(NnCellIndex<Euclidean>),
    /// Crash-consistent shard: journal-before-apply through its own WAL.
    Durable(crate::durable::DurableIndex),
}

impl ShardWriter {
    fn index(&self) -> &NnCellIndex<Euclidean> {
        match self {
            ShardWriter::Mem(idx) => idx,
            ShardWriter::Durable(d) => d.index(),
        }
    }
}

/// Writer-side state, guarded by the single writer mutex.
struct Writer {
    shards: Vec<ShardWriter>,
    /// The next unassigned global id. Round-robin: acknowledged ids are
    /// exactly `0..next_global`.
    next_global: usize,
}

/// Memtable-tier state ([`ShardedIndex::with_memtable`]): per-shard
/// unindexed tails plus folder supervision bookkeeping.
///
/// Lock order everywhere: `fold_lock` → writer mutex → tail mutexes.
/// Queries take only tail mutexes (for a bounded snapshot clone), writers
/// take writer → tail with O(1)/O(tail) holds, and the folder's
/// point-tree updates happen with **no** lock held — only its freeze and
/// publish steps touch the mutexes, both O(tail) at worst.
struct TailState {
    cfg: FoldConfig,
    tails: Vec<Mutex<Memtable>>,
    /// Serializes folds, flushes, checkpoints, and metric attachment so a
    /// snapshot publish can never interleave with a generation rotation
    /// or another fold.
    fold_lock: Mutex<()>,
    /// Unfolded operations across all shards (the backpressure input).
    depth: AtomicUsize,
    degraded: AtomicBool,
    consecutive_failures: AtomicU32,
    folds: AtomicU64,
    folded_records: AtomicU64,
    failures: AtomicU64,
    metrics: Mutex<Option<FoldMetrics>>,
}

impl TailState {
    fn new(cfg: FoldConfig, shards: usize) -> Self {
        Self {
            cfg,
            tails: (0..shards).map(|_| Mutex::new(Memtable::default())).collect(),
            fold_lock: Mutex::new(()),
            depth: AtomicUsize::new(0),
            degraded: AtomicBool::new(false),
            consecutive_failures: AtomicU32::new(0),
            folds: AtomicU64::new(0),
            folded_records: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            metrics: Mutex::new(None),
        }
    }

    fn with_metrics(&self, f: impl FnOnce(&FoldMetrics)) {
        let guard = match self.metrics.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        if let Some(m) = guard.as_ref() {
            f(m);
        }
    }

    fn add_depth(&self, n: usize) {
        let now = self.depth.fetch_add(n, Ordering::AcqRel) + n;
        self.with_metrics(|m| m.tail_depth.set(now as i64));
    }

    fn sub_depth(&self, n: usize) {
        let now = self.depth.fetch_sub(n, Ordering::AcqRel).saturating_sub(n);
        self.with_metrics(|m| m.tail_depth.set(now as i64));
    }

    fn count_backpressure(&self) {
        self.with_metrics(|m| m.backpressure.inc());
    }

    fn record_failure(&self) {
        self.failures.fetch_add(1, Ordering::AcqRel);
        let streak = self.consecutive_failures.fetch_add(1, Ordering::AcqRel) + 1;
        self.with_metrics(|m| m.failures.inc());
        if streak >= self.cfg.degrade_after && !self.degraded.swap(true, Ordering::AcqRel) {
            self.with_metrics(|m| m.degraded.set(1));
        }
    }

    fn record_success(&self, records: usize, elapsed: Duration) {
        self.consecutive_failures.store(0, Ordering::Release);
        if self.degraded.swap(false, Ordering::AcqRel) {
            self.with_metrics(|m| m.degraded.set(0));
        }
        self.folds.fetch_add(1, Ordering::AcqRel);
        self.folded_records.fetch_add(records as u64, Ordering::AcqRel);
        self.with_metrics(|m| {
            m.folds.inc();
            m.folded_records.add(records as u64);
            m.latency_ns.record_duration(elapsed);
        });
    }
}

/// Poison-tolerant lock on a shard's memtable. Every critical section is
/// a handful of `Vec` pushes or a bounded clone — state stays consistent
/// even if a recording site panicked while holding the guard.
fn lock_mem(m: &Mutex<Memtable>) -> MutexGuard<'_, Memtable> {
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// Poison-tolerant lock on the (state-free) fold serialization mutex.
fn lock_fold(m: &Mutex<()>) -> MutexGuard<'_, ()> {
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// Sleeps for `dur` in small slices, returning early once `stop` is set —
/// keeps folder backoffs (up to the configured cap) from delaying
/// shutdown.
fn sleep_interruptible(stop: &AtomicBool, dur: Duration) {
    let mut left = dur;
    while !stop.load(Ordering::Acquire) && !left.is_zero() {
        let nap = left.min(Duration::from_millis(10));
        std::thread::sleep(nap);
        left = left.saturating_sub(nap);
    }
}

/// S independent point-index shards behind one exact, concurrently servable
/// query API. See the module docs for the partitioning and snapshot
/// protocol. Built over the Euclidean metric (the durable layer's
/// contract).
///
/// All methods take `&self`: queries run on copy-on-write snapshots,
/// updates serialize on an internal single-writer lock — share a
/// `ShardedIndex` (or an `Arc` of one) across threads freely.
pub struct ShardedIndex {
    dim: usize,
    cfg: BuildConfig,
    /// Published read snapshots, one cell per shard.
    snaps: Vec<SnapshotCell<NnCellIndex<Euclidean>>>,
    writer: Mutex<Writer>,
    /// Wall-clock seconds of the initial sharded build (0 for loads).
    build_seconds: f64,
    /// Points dropped by the global input validation under
    /// [`crate::InputPolicy::Skip`].
    skipped_points: usize,
    /// Merged queries answered (in any shard) by the exact scan fallback.
    fallback_queries: AtomicU64,
    /// Per-shard recovery reports from a durable open (empty otherwise).
    recovery: Vec<RecoveryReport>,
    durable: bool,
    /// Memtable tier ([`Self::with_memtable`]); `None` keeps the original
    /// synchronous apply-then-publish write path.
    tail: Option<TailState>,
}

impl ShardedIndex {
    // ------------------------------------------------------------------
    // construction
    // ------------------------------------------------------------------

    /// Builds a sharded index over `points`: global input validation
    /// (identical to [`NnCellIndex::build`], including
    /// [`crate::InputPolicy`] handling and error ids), round-robin
    /// partitioning, then one [`NnCellIndex::build`] per shard — each
    /// running in its own thread.
    ///
    /// # Errors
    /// The same [`BuildError`] contract as the unsharded build, with ids
    /// referring to positions in the global input.
    pub fn build(points: Vec<Point>, shards: usize, cfg: BuildConfig) -> Result<Self, BuildError> {
        assert!(shards >= 1, "need at least one shard");
        let Some(first) = points.first() else {
            return Err(BuildError::EmptyDatabase);
        };
        let dim = first.dim();
        let start = Instant::now();
        let (accepted, skipped) = validate_build_inputs(points, dim, cfg.input_policy)?;
        let next_global = accepted.len();
        let mut parts: Vec<Vec<Point>> = (0..shards)
            .map(|_| Vec::with_capacity(accepted.len() / shards + 1))
            .collect();
        for (g, p) in accepted.into_iter().enumerate() {
            parts[g % shards].push(p);
        }
        let built: Vec<Result<NnCellIndex<Euclidean>, BuildError>> = std::thread::scope(|s| {
            let handles: Vec<_> = parts
                .into_iter()
                .map(|part| {
                    let cfg = cfg.clone();
                    s.spawn(move || {
                        if part.is_empty() {
                            Ok(NnCellIndex::new(dim, cfg))
                        } else {
                            NnCellIndex::build(part, cfg)
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard build worker panicked"))
                .collect()
        });
        let mut masters = Vec::with_capacity(shards);
        for r in built {
            masters.push(ShardWriter::Mem(r?));
        }
        Ok(Self::assemble(
            dim,
            cfg,
            masters,
            next_global,
            start.elapsed().as_secs_f64(),
            skipped,
            Vec::new(),
            false,
        ))
    }

    /// An empty sharded index of dimensionality `dim`, grown via
    /// [`Self::insert`].
    pub fn new(dim: usize, shards: usize, cfg: BuildConfig) -> Self {
        assert!(shards >= 1, "need at least one shard");
        let masters = (0..shards)
            .map(|_| ShardWriter::Mem(NnCellIndex::new(dim, cfg.clone())))
            .collect();
        Self::assemble(dim, cfg, masters, 0, 0.0, 0, Vec::new(), false)
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        dim: usize,
        cfg: BuildConfig,
        masters: Vec<ShardWriter>,
        next_global: usize,
        build_seconds: f64,
        skipped_points: usize,
        recovery: Vec<RecoveryReport>,
        durable: bool,
    ) -> Self {
        let snaps = masters
            .iter()
            .map(|m| SnapshotCell::new(m.index().clone()))
            .collect();
        Self {
            dim,
            cfg,
            snaps,
            writer: Mutex::new(Writer {
                shards: masters,
                next_global,
            }),
            build_seconds,
            skipped_points,
            fallback_queries: AtomicU64::new(0),
            recovery,
            durable,
            tail: None,
        }
    }

    /// Enables the LSM-style memtable write path: inserts and removes
    /// journal (in durable mode), land in a small unindexed per-shard
    /// tail, and acknowledge in O(1) — no point-tree update, no snapshot
    /// clone on the ack path. Queries stay exact by merging the tail via
    /// linear scan; a supervised folder ([`Self::run_folder`] or explicit
    /// [`Self::fold_once`] / [`Self::flush`] calls) applies the tail to
    /// the shard indexes off the write path.
    ///
    /// Call at construction time, before the index is shared.
    ///
    /// # Panics
    /// Panics if a memtable is already enabled.
    #[must_use]
    pub fn with_memtable(mut self, cfg: FoldConfig) -> Self {
        assert!(self.tail.is_none(), "memtable already enabled");
        let shards = self.num_shards();
        self.tail = Some(TailState::new(cfg, shards));
        self
    }

    /// Whether the memtable write path is enabled.
    pub fn memtable_enabled(&self) -> bool {
        self.tail.is_some()
    }

    /// Journaled-but-unfolded operations across all shards (0 without a
    /// memtable).
    pub fn tail_depth(&self) -> usize {
        self.tail
            .as_ref()
            .map_or(0, |t| t.depth.load(Ordering::Acquire))
    }

    /// Whether the folder has failed [`FoldConfig::degrade_after`]
    /// consecutive times. Writes keep landing in the tail (up to the
    /// high-watermark) and queries stay exact while degraded.
    pub fn is_degraded(&self) -> bool {
        self.tail
            .as_ref()
            .is_some_and(|t| t.degraded.load(Ordering::Acquire))
    }

    /// A point-in-time view of the folder's health (all zeros without a
    /// memtable).
    pub fn fold_status(&self) -> FoldStatus {
        let Some(ts) = &self.tail else {
            return FoldStatus::default();
        };
        FoldStatus {
            tail_depth: ts.depth.load(Ordering::Acquire),
            degraded: ts.degraded.load(Ordering::Acquire),
            consecutive_failures: ts.consecutive_failures.load(Ordering::Acquire),
            folds: ts.folds.load(Ordering::Acquire),
            folded_records: ts.folded_records.load(Ordering::Acquire),
            failures: ts.failures.load(Ordering::Acquire),
        }
    }

    /// The memtable configuration, when enabled.
    pub fn fold_config(&self) -> Option<&FoldConfig> {
        self.tail.as_ref().map(|t| &t.cfg)
    }

    /// The writer lock. A poisoned lock is taken over: masters are only
    /// mutated through `insert`/`remove`, whose underlying operations
    /// keep the index consistent on failure.
    fn lock_writer(&self) -> MutexGuard<'_, Writer> {
        match self.writer.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    // ------------------------------------------------------------------
    // accessors
    // ------------------------------------------------------------------

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.snaps.len()
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The build configuration shards were built with.
    pub fn config(&self) -> &BuildConfig {
        &self.cfg
    }

    /// Total live points across all shards. Without a memtable this reads
    /// the current snapshots; with one it counts against the masters plus
    /// the unfolded tails (under the writer lock, so acked writes are
    /// always reflected even before they fold).
    pub fn len(&self) -> usize {
        let Some(ts) = &self.tail else {
            return self.snaps.iter().map(|c| c.load().len()).sum();
        };
        let w = self.lock_writer();
        let mut total = 0usize;
        for (i, sw) in w.shards.iter().enumerate() {
            let master = sw.index();
            let m = lock_mem(&ts.tails[i]);
            let master_dead = m
                .removed_ids()
                .iter()
                .filter(|&&local| master.is_live(local))
                .count();
            total += master.len() + m.live_inserts() - master_dead;
        }
        total
    }

    /// Whether no shard holds a live point.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether updates are journaled through per-shard WALs.
    pub fn is_durable(&self) -> bool {
        self.durable
    }

    /// The current published snapshot of shard `i` (a stable read-only
    /// view; concurrent writes publish new versions without affecting it).
    ///
    /// # Panics
    /// Panics if `i >= num_shards()`.
    pub fn shard(&self, i: usize) -> Arc<NnCellIndex<Euclidean>> {
        self.snaps[i].load()
    }

    /// Aggregated construction counters: `seconds` is the wall clock of the
    /// initial sharded build, `skipped_points` comes from the global input
    /// validation, and the point trees' bulk-load phases are summed over
    /// the shards. The LP fields read 0: shards run no LP (see
    /// [`BuildStats`]).
    pub fn build_stats(&self) -> BuildStats {
        let mut agg = BuildStats {
            seconds: self.build_seconds,
            skipped_points: self.skipped_points,
            ..BuildStats::default()
        };
        for cell in &self.snaps {
            let s = *cell.load().build_stats();
            agg.skipped_points += s.skipped_points;
            agg.profile.bulk_load.nanos += s.profile.bulk_load.nanos;
            agg.profile.bulk_load.calls += s.profile.bulk_load.calls;
        }
        agg
    }

    /// Merged queries (via [`Self::query`] / [`Self::batch`]) in which any
    /// shard answered by the exact scan fallback. Note that a shard can
    /// legitimately fall back where the unsharded index would not — e.g.
    /// `k ≥` that shard's live count — so this is an upper bound on what
    /// the equivalent unsharded index would report.
    pub fn fallback_queries(&self) -> u64 {
        self.fallback_queries.load(Ordering::Relaxed)
    }

    /// Per-shard scan-fallback counters summed across the current
    /// snapshots (each shard counts exactly like an unsharded index).
    pub fn shard_fallback_queries(&self) -> u64 {
        self.snaps.iter().map(|c| c.load().fallback_queries()).sum()
    }

    /// Per-shard recovery reports from a durable open; empty for
    /// in-memory indexes.
    pub fn recovery(&self) -> &[RecoveryReport] {
        &self.recovery
    }

    /// Records sitting in the shards' active WALs (0 when not durable).
    pub fn wal_records(&self) -> u64 {
        let w = self.lock_writer();
        w.shards
            .iter()
            .map(|s| match s {
                ShardWriter::Mem(_) => 0,
                ShardWriter::Durable(d) => d.wal_records(),
            })
            .sum()
    }

    /// Attaches a metrics registry: every shard's engine, gauge, and tree
    /// series is registered under a `shard="<i>"` label (the WAL family
    /// stays unlabeled, shared as whole-index totals — see
    /// [`NnCellIndex::attach_metrics_labeled`]). New snapshots are
    /// published so concurrent readers start recording immediately.
    /// Idempotent per shard.
    pub fn attach_metrics(&self, registry: Arc<Registry>) {
        // Fold lock first (the global lock order): a fold publishing
        // between our store and its own would otherwise clobber the
        // metrics-attached snapshots with pre-attach clones.
        let _fold = self.tail.as_ref().map(|ts| lock_fold(&ts.fold_lock));
        let mut w = self.lock_writer();
        for (i, sw) in w.shards.iter_mut().enumerate() {
            let tag = i.to_string();
            let labels: [(&str, &str); 1] = [("shard", tag.as_str())];
            match sw {
                ShardWriter::Mem(idx) => {
                    idx.attach_metrics_labeled(Arc::clone(&registry), &labels);
                }
                ShardWriter::Durable(d) => {
                    d.attach_metrics_labeled(Arc::clone(&registry), &labels);
                }
            }
            self.snaps[i].store(Arc::new(sw.index().clone()));
        }
        if let Some(ts) = &self.tail {
            let mut slot = match ts.metrics.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            if slot.is_none() {
                let fm = FoldMetrics::register(&registry);
                // Seed with the pre-attach totals so registry values are
                // correct even when the registry arrives late.
                fm.tail_depth.set(ts.depth.load(Ordering::Acquire) as i64);
                fm.degraded
                    .set(i64::from(ts.degraded.load(Ordering::Acquire)));
                fm.folds.add(ts.folds.load(Ordering::Acquire));
                fm.folded_records.add(ts.folded_records.load(Ordering::Acquire));
                fm.failures.add(ts.failures.load(Ordering::Acquire));
                *slot = Some(fm);
            }
        }
    }

    // ------------------------------------------------------------------
    // id mapping
    // ------------------------------------------------------------------

    /// `(shard, local id)` of a global id.
    fn locate(&self, global: usize) -> (usize, usize) {
        let s = self.num_shards();
        (global % s, global / s)
    }

    /// Global id of `(shard, local id)`.
    fn global_of(&self, shard: usize, local: usize) -> usize {
        local * self.num_shards() + shard
    }

    // ------------------------------------------------------------------
    // queries
    // ------------------------------------------------------------------

    /// The same validation [`crate::QueryEngine::execute`] applies, in the
    /// same precedence order, so a sharded index rejects malformed input
    /// identically to an unsharded one.
    fn validate_query(&self, q: &Query) -> Result<(), QueryError> {
        let p = q.point();
        if p.len() != self.dim {
            return Err(QueryError::DimMismatch {
                expected: self.dim,
                got: p.len(),
            });
        }
        if p.iter().any(|c| !c.is_finite()) {
            return Err(QueryError::NonFiniteQuery);
        }
        match q.kind() {
            QueryKind::Nearest { k: 0 } => Err(QueryError::ZeroK),
            QueryKind::Radius { radius } if !radius.is_finite() || radius < 0.0 => {
                Err(QueryError::InvalidRadius)
            }
            _ => Ok(()),
        }
    }

    /// Executes one typed query: fan out to every non-empty shard on its
    /// current snapshot, merge the per-shard answers by
    /// `(distance, global id)`. Exact, including tie ordering (see the
    /// module docs). Candidate and page counts are summed across shards;
    /// `fallback` is set if any shard fell back to its exact scan.
    ///
    /// # Errors
    /// The [`QueryError`] contract of [`crate::QueryEngine::execute`].
    pub fn query(&self, q: &Query) -> Result<QueryResponse, QueryError> {
        self.query_with_deadline(q, None)
    }

    /// [`Self::query`] under an optional time budget: the deadline is
    /// threaded into every per-shard engine (equivalent to stamping
    /// [`Query::with_deadline`] on the request, without cloning it per
    /// shard), so a budget that runs out mid-fan-out surfaces as
    /// [`QueryError::DeadlineExceeded`] instead of finishing the
    /// remaining shards.
    ///
    /// # Errors
    /// The [`QueryError`] contract of [`Self::query`], plus
    /// [`QueryError::DeadlineExceeded`].
    pub fn query_with_deadline(
        &self,
        q: &Query,
        deadline: Option<Instant>,
    ) -> Result<QueryResponse, QueryError> {
        self.validate_query(q)?;
        // Tails first, snapshots second: an operation folded between the
        // two reads then appears in *both* views and is deduplicated by id
        // at merge time; reading in the other order could miss it in both.
        let tails = self.tail_snapshots();
        let snaps: Vec<Arc<NnCellIndex<Euclidean>>> =
            self.snaps.iter().map(SnapshotCell::load).collect();
        let mut per: Vec<(usize, QueryResponse)> = Vec::with_capacity(snaps.len());
        let mut radius_empty = false;
        for (i, snap) in snaps.iter().enumerate() {
            let tail_i = tails.as_ref().map(|t| &t[i]).filter(|t| !t.is_empty());
            if snap.is_empty() && tail_i.is_none() {
                continue;
            }
            // Sequential per shard: one query has no intra-shard
            // parallelism to exploit, and the fan-out itself is the
            // concurrency story (batch() adds the thread pool).
            let mut engine =
                crate::engine::QueryEngine::sequential(snap).with_deadline_opt(deadline);
            if let Some(t) = tail_i {
                engine = engine.with_tail(t);
            }
            // One child span per shard consulted; the engine's own spans
            // nest underneath it, so a trace shows the full fan-out.
            let mut span = nncell_obs::trace::child("shard.query");
            span.arg("shard", i as u64);
            match engine.execute(q) {
                Ok(r) => per.push((i, r)),
                // Every point of this shard is tombstoned in the tail:
                // the shard contributes nothing, which is not a failure
                // of the fan-out.
                Err(QueryError::EmptyIndex) => continue,
                // This shard's slice of the ball is empty; others may
                // still contribute.
                Err(QueryError::EmptyRadius) => {
                    radius_empty = true;
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
        if per.is_empty() {
            // Shards were consulted but every ball slice came back empty:
            // the radius error, not the empty-index one.
            return Err(if radius_empty {
                QueryError::EmptyRadius
            } else {
                QueryError::EmptyIndex
            });
        }
        Ok(self.merge(q.k(), per))
    }

    /// Bounded-clone views of every shard's unfolded tail (`None` without
    /// a memtable). Each clone is taken under its shard's tail mutex; the
    /// combined view may straddle a concurrent ack, which is fine — a
    /// query is only promised the writes acked before it started.
    fn tail_snapshots(&self) -> Option<Vec<TailSnapshot>> {
        self.tail
            .as_ref()
            .map(|ts| ts.tails.iter().map(|m| lock_mem(m).snapshot()).collect())
    }

    /// Executes a batch of typed queries: each non-empty shard runs the
    /// whole batch through its own [`crate::QueryEngine::batch`] thread
    /// pool on its current snapshot, then per-query answers are merged as
    /// in [`Self::query`]. Results come back in input order with the
    /// engine's per-query error contract.
    pub fn batch(&self, queries: &[Query]) -> Vec<Result<QueryResponse, QueryError>> {
        self.batch_with_deadline(queries, None)
    }

    /// [`Self::batch`] under an optional time budget: every shard engine
    /// checks the deadline between the queries of the batch (and inside the
    /// k-NN candidate loop), so queries past the budget come back as
    /// per-query [`QueryError::DeadlineExceeded`] results while answers
    /// already computed are kept.
    pub fn batch_with_deadline(
        &self,
        queries: &[Query],
        deadline: Option<Instant>,
    ) -> Vec<Result<QueryResponse, QueryError>> {
        // Tails before snapshots — same dedup-by-id rationale as
        // query_with_deadline.
        let tails = self.tail_snapshots();
        let snaps: Vec<Arc<NnCellIndex<Euclidean>>> =
            self.snaps.iter().map(SnapshotCell::load).collect();
        let shard_results: Vec<(usize, Vec<Result<QueryResponse, QueryError>>)> = snaps
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                let tail_i = tails.as_ref().map(|t| &t[i]).filter(|t| !t.is_empty());
                if s.is_empty() && tail_i.is_none() {
                    return None;
                }
                let mut engine = s.engine().with_deadline_opt(deadline);
                if let Some(t) = tail_i {
                    engine = engine.with_tail(t);
                }
                Some((i, engine.batch(queries)))
            })
            .collect();
        queries
            .iter()
            .enumerate()
            .map(|(qi, q)| {
                self.validate_query(q)?;
                let mut per: Vec<(usize, QueryResponse)> =
                    Vec::with_capacity(shard_results.len());
                let mut radius_empty = false;
                for (shard, results) in &shard_results {
                    match &results[qi] {
                        Ok(r) => per.push((*shard, r.clone())),
                        // A shard whose live set the tail has fully
                        // tombstoned contributes nothing — not a failure.
                        Err(QueryError::EmptyIndex) => continue,
                        // An empty ball slice in one shard; others may
                        // still contribute.
                        Err(QueryError::EmptyRadius) => {
                            radius_empty = true;
                            continue;
                        }
                        Err(e) => return Err(*e),
                    }
                }
                if per.is_empty() {
                    return Err(if radius_empty {
                        QueryError::EmptyRadius
                    } else {
                        QueryError::EmptyIndex
                    });
                }
                Ok(self.merge(q.k(), per))
            })
            .collect()
    }

    /// k-way merge of per-shard answers via a small binary heap keyed by
    /// `(distance, global id)` — each shard's list is already sorted, so
    /// the heap holds one head per shard and pops `k` times.
    fn merge(&self, k: usize, per: Vec<(usize, QueryResponse)>) -> QueryResponse {
        debug_assert!(!per.is_empty(), "merge of zero non-empty shards");
        let mut stats = QueryStats::default();
        let mut lists: Vec<(usize, Vec<QueryResult>)> = Vec::with_capacity(per.len());
        for (shard, resp) in per {
            stats.candidates += resp.stats.candidates;
            stats.pages += resp.stats.pages;
            stats.tail += resp.stats.tail;
            stats.fallback |= resp.stats.fallback;
            stats.nodes_pruned += resp.stats.nodes_pruned;
            stats.candidates_examined += resp.stats.candidates_examined;
            stats.candidates_aborted_early += resp.stats.candidates_aborted_early;
            lists.push((shard, resp.into_results()));
        }
        if stats.fallback {
            self.fallback_queries.fetch_add(1, Ordering::Relaxed);
        }

        /// Heap entry: the current head of one shard's sorted list.
        struct Head {
            dist: f64,
            gid: usize,
            slot: usize,
            pos: usize,
        }
        impl PartialEq for Head {
            fn eq(&self, other: &Self) -> bool {
                self.cmp(other) == CmpOrdering::Equal
            }
        }
        impl Eq for Head {}
        impl Ord for Head {
            fn cmp(&self, other: &Self) -> CmpOrdering {
                // Min-heap via Reverse at the push sites; ascending
                // (dist, global id) — the unsharded ranking order.
                self.dist
                    .total_cmp(&other.dist)
                    .then_with(|| self.gid.cmp(&other.gid))
            }
        }
        impl PartialOrd for Head {
            fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
                Some(self.cmp(other))
            }
        }

        let mut heap: BinaryHeap<std::cmp::Reverse<Head>> =
            BinaryHeap::with_capacity(lists.len());
        for (slot, (shard, list)) in lists.iter().enumerate() {
            if let Some(r) = list.first() {
                heap.push(std::cmp::Reverse(Head {
                    dist: r.dist,
                    gid: self.global_of(*shard, r.id),
                    slot,
                    pos: 0,
                }));
            }
        }
        let mut merged: Vec<QueryResult> = Vec::with_capacity(k.min(64));
        while merged.len() < k {
            let Some(std::cmp::Reverse(head)) = heap.pop() else {
                break;
            };
            merged.push(QueryResult {
                id: head.gid,
                dist: head.dist,
            });
            let (shard, list) = &lists[head.slot];
            if let Some(r) = list.get(head.pos + 1) {
                heap.push(std::cmp::Reverse(Head {
                    dist: r.dist,
                    gid: self.global_of(*shard, r.id),
                    slot: head.slot,
                    pos: head.pos + 1,
                }));
            }
        }
        let best = merged[0];
        let rest = merged[1..].to_vec();
        QueryResponse { best, rest, stats }
    }

    // ------------------------------------------------------------------
    // updates (single writer, copy-on-write publish)
    // ------------------------------------------------------------------

    /// Inserts a point: assign the next global id, validate (including a
    /// cross-shard exact-duplicate check), then either apply to the owning
    /// shard's master and publish a fresh snapshot (synchronous mode), or
    /// journal and land in the shard's memtable tail (memtable mode —
    /// O(1) ack, the folder indexes it later). Returns the global id.
    /// Readers are never blocked; queries started before the publish
    /// answer from the previous version (plus, in memtable mode, the
    /// tail merge).
    ///
    /// # Errors
    /// [`DurableError::Invalid`] with the same [`BuildError`] variants an
    /// unsharded insert rejects (ids are global);
    /// [`DurableError::Persist`] when a durable shard's journal write
    /// fails; [`DurableError::Backpressure`] when the memtable tail is at
    /// its high-watermark — nothing is applied or published in any case.
    pub fn insert(&self, p: Point) -> Result<usize, DurableError> {
        let mut w = self.lock_writer();
        let g = w.next_global;
        validate_point(&p, g, self.dim, &DataSpace::unit(self.dim))
            .map_err(DurableError::Invalid)?;
        if let Some(ts) = &self.tail {
            return self.insert_memtable(ts, &mut w, g, p);
        }
        // Cross-shard duplicate check against the masters (the
        // authoritative state — snapshots may trail by the publish gap).
        for (si, sw) in w.shards.iter().enumerate() {
            if let Some(local) = sw.index().find_live_duplicate(&p) {
                return Err(DurableError::Invalid(BuildError::DuplicatePoint {
                    id: g,
                    of: self.global_of(si, local),
                }));
            }
        }
        let (shard, expected_local) = self.locate(g);
        let local = match &mut w.shards[shard] {
            ShardWriter::Mem(idx) => idx.insert(p).map_err(DurableError::Invalid)?,
            ShardWriter::Durable(d) => d.insert(p)?,
        };
        debug_assert_eq!(local, expected_local, "round-robin id mapping out of sync");
        self.snaps[shard].store(Arc::new(w.shards[shard].index().clone()));
        w.next_global += 1;
        Ok(self.global_of(shard, local))
    }

    /// The memtable ack path: duplicate check against masters *and* tails,
    /// backpressure check, journal, tail push. No point-tree update, no
    /// snapshot clone — the writer-lock hold is O(log n) (the duplicate probe)
    /// plus an O(1) push, so ack latency is independent of index size.
    fn insert_memtable(
        &self,
        ts: &TailState,
        w: &mut Writer,
        g: usize,
        p: Point,
    ) -> Result<usize, DurableError> {
        for (si, sw) in w.shards.iter().enumerate() {
            let m = lock_mem(&ts.tails[si]);
            if let Some(local) = sw.index().find_live_duplicate(&p) {
                // A master duplicate tombstoned in the tail is dead.
                if !m.is_removed(local) {
                    return Err(DurableError::Invalid(BuildError::DuplicatePoint {
                        id: g,
                        of: self.global_of(si, local),
                    }));
                }
            }
            if let Some(local) = m.find_live_duplicate(&p) {
                return Err(DurableError::Invalid(BuildError::DuplicatePoint {
                    id: g,
                    of: self.global_of(si, local),
                }));
            }
        }
        let depth = ts.depth.load(Ordering::Acquire);
        if depth >= ts.cfg.tail_max {
            ts.count_backpressure();
            return Err(DurableError::Backpressure {
                tail: depth,
                max: ts.cfg.tail_max,
            });
        }
        let (shard, local) = self.locate(g);
        if let ShardWriter::Durable(d) = &mut w.shards[shard] {
            // Journal-first: the fsync happens here, before the ack. A
            // failure leaves the tail untouched.
            d.journal(&WalRecord::Insert(p.clone()))?;
        }
        lock_mem(&ts.tails[shard]).push_insert(local, p);
        ts.add_depth(1);
        w.next_global += 1;
        Ok(self.global_of(shard, local))
    }

    /// Removes the point with global id `global`. Returns `false` when no
    /// such point is live (never-assigned ids included). On `true`, in
    /// synchronous mode the owning shard republished its snapshot
    /// (journal-first in durable mode); in memtable mode a tombstone
    /// landed in the shard's tail (journal-first) and queries stop
    /// returning the point immediately.
    ///
    /// # Errors
    /// Journal I/O failures in durable mode, or
    /// [`DurableError::Backpressure`] at the memtable high-watermark;
    /// nothing applied on error.
    pub fn remove(&self, global: usize) -> Result<bool, DurableError> {
        let mut w = self.lock_writer();
        if global >= w.next_global {
            return Ok(false);
        }
        let (shard, local) = self.locate(global);
        if let Some(ts) = &self.tail {
            let live = {
                let m = lock_mem(&ts.tails[shard]);
                (w.shards[shard].index().is_live(local) && !m.is_removed(local))
                    || m.has_live_insert(local)
            };
            if !live {
                return Ok(false);
            }
            let depth = ts.depth.load(Ordering::Acquire);
            if depth >= ts.cfg.tail_max {
                ts.count_backpressure();
                return Err(DurableError::Backpressure {
                    tail: depth,
                    max: ts.cfg.tail_max,
                });
            }
            if let ShardWriter::Durable(d) = &mut w.shards[shard] {
                d.journal(&WalRecord::Remove(local as u64))?;
            }
            lock_mem(&ts.tails[shard]).push_remove(local);
            ts.add_depth(1);
            return Ok(true);
        }
        let removed = match &mut w.shards[shard] {
            ShardWriter::Mem(idx) => idx.remove(local),
            ShardWriter::Durable(d) => d.remove(local).map_err(DurableError::Persist)?,
        };
        if removed {
            self.snaps[shard].store(Arc::new(w.shards[shard].index().clone()));
        }
        Ok(removed)
    }

    // ------------------------------------------------------------------
    // folding (memtable → shard indexes, off the write path)
    // ------------------------------------------------------------------

    /// Folds every shard's frozen-plus-active tail into its index (one
    /// point-tree insert or delete per operation) and publishes the
    /// results. Returns the number of operations folded (0 without a
    /// memtable or with empty tails). The tree updates run with no lock
    /// held; only the freeze and publish steps touch the mutexes.
    ///
    /// # Errors
    /// [`FoldError::Panicked`] when a shard's fold panicked (the batch
    /// stays frozen and merges into the next attempt; shards folded
    /// before the failing one stay folded).
    pub fn fold_once(&self) -> Result<usize, FoldError> {
        let Some(ts) = &self.tail else {
            return Ok(0);
        };
        let _fold = lock_fold(&ts.fold_lock);
        let mut total = 0usize;
        for shard in 0..self.num_shards() {
            total += self.fold_shard(ts, shard)?;
        }
        Ok(total)
    }

    /// Folds one shard's tail: freeze the batch, deep-clone the published
    /// snapshot, re-apply the batch in ack order off-lock (under
    /// `catch_unwind` — a panicking fold, injected or organic, keeps the
    /// batch for retry and never corrupts the index), then publish master
    /// and snapshot under the writer lock. Folding performs **zero**
    /// syscalls: the WAL already holds every record, so crash recovery
    /// never depends on fold progress and a fold can never double-apply
    /// into durable state.
    fn fold_shard(&self, ts: &TailState, shard: usize) -> Result<usize, FoldError> {
        let batch = lock_mem(&ts.tails[shard]).freeze();
        if batch.is_empty() {
            return Ok(0);
        }
        // Root span on the folder thread (head-sampled like any other
        // root); manual folds under a traced request nest as children.
        let mut span = nncell_obs::trace::root("fold.shard");
        span.arg("shard", shard as u64);
        span.arg("records", batch.len() as u64);
        let start = Instant::now();
        // Invariant (memtable mode): the published snapshot equals the
        // master — both only change under fold_lock + writer lock, which
        // we hold / will take. Cloning the snapshot instead of the master
        // keeps the writer lock free during the expensive apply.
        let base = self.snaps[shard].load();
        let chaos = ts.cfg.fault_fold_panic.clone();
        let folded = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            assert!(
                !chaos.as_ref().is_some_and(|f| f.load(Ordering::Acquire)),
                "injected fold fault"
            );
            let mut idx = (*base).clone();
            for op in &batch {
                match op {
                    TailOp::Insert { local, point } => {
                        // Re-applying a journaled op in ack order against
                        // exactly the state it was validated on must
                        // succeed; a failure here is a logic bug, and
                        // surfacing it as a caught panic degrades service
                        // instead of corrupting the index.
                        let got = idx.insert(point.clone()).unwrap_or_else(|e| {
                            panic!("fold re-apply of acked insert failed: {e}")
                        });
                        assert_eq!(got, *local, "fold slot diverged from ack-time slot");
                    }
                    TailOp::Remove { local } => {
                        idx.remove(*local);
                    }
                }
            }
            idx
        }));
        let folded = match folded {
            Ok(idx) => idx,
            Err(_) => {
                ts.record_failure();
                return Err(FoldError::Panicked { shard });
            }
        };
        let records = batch.len();
        let master_copy = folded.clone();
        {
            let mut w = self.lock_writer();
            match &mut w.shards[shard] {
                ShardWriter::Mem(idx) => *idx = master_copy,
                ShardWriter::Durable(d) => d.replace_index(master_copy),
            }
            self.snaps[shard].store(Arc::new(folded));
            lock_mem(&ts.tails[shard]).clear_frozen();
            ts.sub_depth(records);
        }
        ts.record_success(records, start.elapsed());
        Ok(records)
    }

    /// Folds until the tail is empty (used by clean shutdown and the CLI
    /// `flush` subcommand). Returns the total operations folded.
    ///
    /// # Errors
    /// [`FoldError`] from the first failing fold.
    pub fn flush(&self) -> Result<usize, FoldError> {
        let mut total = 0usize;
        loop {
            if self.tail_depth() == 0 {
                return Ok(total);
            }
            total += self.fold_once()?;
        }
    }

    /// The supervised folder loop: fold whenever the tail is non-empty,
    /// sleep [`FoldConfig::poll_interval`] when idle, back off
    /// exponentially (capped at [`FoldConfig::retry_cap`]) after a failed
    /// fold. Returns promptly once `stop` is set. Run it from a dedicated
    /// thread with a shared `Arc<ShardedIndex>`; a no-op without a
    /// memtable. All failure accounting (consecutive-failure streaks, the
    /// degraded flag, `nncell_fold_*` metrics) happens inside
    /// [`Self::fold_once`], so manual folds and the loop agree.
    pub fn run_folder(&self, stop: &AtomicBool) {
        let Some(ts) = &self.tail else {
            return;
        };
        let mut backoff = ts.cfg.retry_base;
        while !stop.load(Ordering::Acquire) {
            if ts.depth.load(Ordering::Acquire) == 0 {
                sleep_interruptible(stop, ts.cfg.poll_interval);
                continue;
            }
            match self.fold_once() {
                Ok(_) => backoff = ts.cfg.retry_base,
                Err(_) => {
                    sleep_interruptible(stop, backoff);
                    backoff = (backoff * 2).min(ts.cfg.retry_cap);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // persistence
    // ------------------------------------------------------------------

    /// Saves every shard master plus a manifest into `dir`
    /// (`MANIFEST` + `shard-<i>.nncell`, all through the atomic write
    /// path). Point-in-time consistent: the writer lock is held across
    /// the save.
    ///
    /// # Errors
    /// I/O failures of the underlying writes.
    pub fn save(&self, dir: impl AsRef<Path>) -> Result<(), PersistError> {
        self.save_with_vfs(&StdVfs, dir.as_ref())
    }

    /// [`Self::save`] through an explicit [`Vfs`].
    ///
    /// # Errors
    /// See [`Self::save`].
    pub fn save_with_vfs(&self, vfs: &dyn Vfs, dir: &Path) -> Result<(), PersistError> {
        // With a memtable the masters trail the acked state by the tail;
        // fold everything in first so the saved files hold every ack.
        // Fold lock before writer lock (the global order); the tail-empty
        // check happens *under* the writer lock, so no write can sneak in
        // between the final fold and the save.
        let _fold = self.tail.as_ref().map(|ts| lock_fold(&ts.fold_lock));
        let w = loop {
            let w = self.lock_writer();
            // Authoritative emptiness check under the writer lock (reads
            // the tails themselves, not the depth counter).
            let drained = self.tail.as_ref().is_none_or(|ts| {
                ts.tails.iter().all(|m| lock_mem(m).len() == 0)
            });
            if drained {
                break w;
            }
            drop(w);
            if let Some(ts) = &self.tail {
                for shard in 0..self.num_shards() {
                    self.fold_shard(ts, shard).map_err(|e| {
                        PersistError::Corrupt(format!("memtable flush before save failed: {e}"))
                    })?;
                }
            }
        };
        vfs.create_dir_all(dir)?;
        for (i, sw) in w.shards.iter().enumerate() {
            sw.index()
                .save_with_vfs(vfs, &dir.join(format!("shard-{i}.nncell")))?;
        }
        // Manifest last: a crash mid-save leaves either the old manifest
        // (old index intact) or no manifest (load fails typed), never a
        // manifest pointing at missing shard files.
        write_atomic(
            vfs,
            &dir.join(PLAIN_MANIFEST),
            format!("{PLAIN_MAGIC} {}\n", w.shards.len()).as_bytes(),
        )?;
        Ok(())
    }

    /// Loads a directory written by [`Self::save`].
    ///
    /// # Errors
    /// I/O failures, a missing or corrupt manifest, or shard files that
    /// disagree on dimensionality.
    pub fn load(dir: impl AsRef<Path>) -> Result<Self, PersistError> {
        Self::load_with_vfs(&StdVfs, dir.as_ref())
    }

    /// [`Self::load`] through an explicit [`Vfs`].
    ///
    /// # Errors
    /// See [`Self::load`].
    pub fn load_with_vfs(vfs: &dyn Vfs, dir: &Path) -> Result<Self, PersistError> {
        let text = manifest_text(vfs.read(&dir.join(PLAIN_MANIFEST))?)?;
        let shards = parse_manifest(&text, PLAIN_MAGIC).ok_or_else(|| {
            PersistError::Corrupt(format!("sharded manifest holds {text:?}"))
        })?;
        let mut masters = Vec::with_capacity(shards);
        let mut next_global = 0usize;
        for i in 0..shards {
            let idx =
                NnCellIndex::load_with_vfs(vfs, &dir.join(format!("shard-{i}.nncell")))?;
            next_global += idx.points().len();
            masters.push(ShardWriter::Mem(idx));
        }
        let (dim, cfg) = check_shard_agreement(&masters)?;
        Ok(Self::assemble(
            dim,
            cfg,
            masters,
            next_global,
            0.0,
            0,
            Vec::new(),
            false,
        ))
    }

    /// Opens (or initializes) a crash-consistent sharded index: a
    /// top-level `CURRENT` manifest recording the shard count, one full
    /// durable directory (`shard-<i>/`) per shard. On open, each shard
    /// recovers independently (snapshot load + WAL replay; see
    /// [`Self::recovery`]); `shards` must match the manifest.
    ///
    /// # Errors
    /// I/O failures, a corrupt manifest, or a shard-count/dimensionality
    /// mismatch with an existing directory.
    pub fn open_durable(
        dir: impl AsRef<Path>,
        dim: usize,
        shards: usize,
        cfg: BuildConfig,
    ) -> Result<Self, PersistError> {
        Self::open_durable_with_vfs(Arc::new(StdVfs), dir.as_ref(), dim, shards, cfg)
    }

    /// [`Self::open_durable`] through an explicit [`Vfs`].
    ///
    /// # Errors
    /// See [`Self::open_durable`].
    pub fn open_durable_with_vfs(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        dim: usize,
        shards: usize,
        cfg: BuildConfig,
    ) -> Result<Self, PersistError> {
        assert!(shards >= 1, "need at least one shard");
        vfs.create_dir_all(dir)?;
        let manifest = dir.join("CURRENT");
        let shard_count = if vfs.exists(&manifest) {
            let text = manifest_text(vfs.read(&manifest)?)?;
            let stored = parse_manifest(&text, DURABLE_MAGIC).ok_or_else(|| {
                PersistError::Corrupt(format!(
                    "sharded CURRENT holds {text:?} (expected `{DURABLE_MAGIC} <count>`)"
                ))
            })?;
            if stored != shards {
                return Err(PersistError::Corrupt(format!(
                    "directory {dir:?} is sharded {stored} ways, caller expected {shards}"
                )));
            }
            stored
        } else {
            write_atomic(
                vfs.as_ref(),
                &manifest,
                format!("{DURABLE_MAGIC} {shards}\n").as_bytes(),
            )?;
            shards
        };
        let mut masters = Vec::with_capacity(shard_count);
        let mut recovery = Vec::with_capacity(shard_count);
        let mut next_global = 0usize;
        for i in 0..shard_count {
            let d = NnCellIndex::open_durable_with_vfs(
                Arc::clone(&vfs),
                &dir.join(format!("shard-{i}")),
                dim,
                cfg.clone(),
            )?;
            recovery.push(d.recovery().clone());
            next_global += d.index().points().len();
            masters.push(ShardWriter::Durable(d));
        }
        let (dim, cfg) = check_shard_agreement(&masters)?;
        Ok(Self::assemble(
            dim,
            cfg,
            masters,
            next_global,
            0.0,
            0,
            recovery,
            true,
        ))
    }

    /// Opens an **existing** durable sharded directory, taking the shard
    /// count from the top-level `CURRENT` manifest and dimensionality and
    /// configuration from the shards' committed generations — the
    /// counterpart of [`crate::DurableIndex::open`] for directories the
    /// CLI auto-detects via [`Self::manifest_shards`].
    ///
    /// # Errors
    /// I/O failures, a missing or corrupt manifest, no committed shard
    /// generations, or shards that disagree on dimensionality.
    pub fn open_durable_existing(dir: impl AsRef<Path>) -> Result<Self, PersistError> {
        Self::open_durable_existing_with_vfs(Arc::new(StdVfs), dir.as_ref())
    }

    /// [`Self::open_durable_existing`] through an explicit [`Vfs`].
    ///
    /// # Errors
    /// See [`Self::open_durable_existing`].
    pub fn open_durable_existing_with_vfs(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
    ) -> Result<Self, PersistError> {
        let text = manifest_text(vfs.read(&dir.join("CURRENT"))?)?;
        let shards = parse_manifest(&text, DURABLE_MAGIC).ok_or_else(|| {
            PersistError::Corrupt(format!(
                "sharded CURRENT holds {text:?} (expected `{DURABLE_MAGIC} <count>`)"
            ))
        })?;
        let mut masters = Vec::with_capacity(shards);
        let mut recovery = Vec::with_capacity(shards);
        let mut next_global = 0usize;
        for i in 0..shards {
            let d = crate::durable::DurableIndex::open_with_vfs(
                Arc::clone(&vfs),
                &dir.join(format!("shard-{i}")),
            )?;
            recovery.push(d.recovery().clone());
            next_global += d.index().points().len();
            masters.push(ShardWriter::Durable(d));
        }
        let (dim, cfg) = check_shard_agreement(&masters)?;
        Ok(Self::assemble(
            dim,
            cfg,
            masters,
            next_global,
            0.0,
            0,
            recovery,
            true,
        ))
    }

    /// Converts an in-memory sharded index into a crash-consistent one:
    /// each shard master becomes the generation-0 snapshot of its own
    /// durable directory (`dir/shard-<i>/`) and the top-level `CURRENT`
    /// records the shard count. Build stats carry over; subsequent
    /// updates journal through the per-shard WALs.
    ///
    /// # Errors
    /// I/O failures, an already-initialized target directory, or calling
    /// this on an index that is already durable.
    pub fn into_durable(self, dir: impl AsRef<Path>) -> Result<Self, PersistError> {
        self.into_durable_with_vfs(Arc::new(StdVfs), dir.as_ref())
    }

    /// [`Self::into_durable`] through an explicit [`Vfs`].
    ///
    /// # Errors
    /// See [`Self::into_durable`].
    pub fn into_durable_with_vfs(
        self,
        vfs: Arc<dyn Vfs>,
        dir: &Path,
    ) -> Result<Self, PersistError> {
        if self.durable {
            return Err(PersistError::Corrupt(
                "index is already durable; open it in place instead".into(),
            ));
        }
        // Fold any unindexed tail into the masters first: we own `self`
        // exclusively here, so the tail is quiescent after the flush. The
        // memtable (with its configuration) carries over to the durable
        // index.
        if self.tail.is_some() {
            self.flush().map_err(|e| {
                PersistError::Corrupt(format!("memtable flush before conversion failed: {e}"))
            })?;
        }
        let tail_cfg = self.tail.as_ref().map(|t| t.cfg.clone());
        let w = match self.writer.into_inner() {
            Ok(w) => w,
            Err(p) => p.into_inner(),
        };
        vfs.create_dir_all(dir)?;
        let shards = w.shards.len();
        let mut masters = Vec::with_capacity(shards);
        for (i, sw) in w.shards.into_iter().enumerate() {
            let ShardWriter::Mem(idx) = sw else {
                unreachable!("non-durable index holds only Mem shards");
            };
            masters.push(ShardWriter::Durable(crate::durable::DurableIndex::create_with_vfs(
                Arc::clone(&vfs),
                &dir.join(format!("shard-{i}")),
                idx,
            )?));
        }
        // Manifest last, as in save(): a crash mid-conversion leaves no
        // CURRENT, so the half-written directory fails typed on open.
        write_atomic(
            vfs.as_ref(),
            &dir.join("CURRENT"),
            format!("{DURABLE_MAGIC} {shards}\n").as_bytes(),
        )?;
        let out = Self::assemble(
            self.dim,
            self.cfg,
            masters,
            w.next_global,
            self.build_seconds,
            self.skipped_points,
            Vec::new(),
            true,
        );
        Ok(match tail_cfg {
            Some(cfg) => out.with_memtable(cfg),
            None => out,
        })
    }

    /// The shard count recorded in a sharded directory's manifest — plain
    /// ([`Self::save`]) or durable ([`Self::open_durable`]) — or `None`
    /// when `dir` holds neither. How the CLI auto-detects sharded layouts.
    pub fn manifest_shards(dir: impl AsRef<Path>) -> Option<usize> {
        let dir = dir.as_ref();
        let try_file = |name: &str, magic: &str| -> Option<usize> {
            let text = String::from_utf8(std::fs::read(dir.join(name)).ok()?).ok()?;
            parse_manifest(&text, magic)
        };
        try_file("CURRENT", DURABLE_MAGIC).or_else(|| try_file(PLAIN_MANIFEST, PLAIN_MAGIC))
    }

    /// Checkpoints every durable shard (snapshot + fresh WAL + `CURRENT`
    /// flip, per shard). A no-op for in-memory indexes.
    ///
    /// In memtable mode the fresh WAL is seeded with the shard's unfolded
    /// tail (one batched fsync) before the `CURRENT` flip, preserving the
    /// invariant *disk snapshot + disk WAL ≡ master + tail*: a checkpoint
    /// taken while the folder is behind (or broken) still recovers every
    /// acked write, and because folding performs no syscalls, nothing can
    /// double-apply.
    ///
    /// # Errors
    /// I/O failures; already-checkpointed shards stay checkpointed, the
    /// failing shard keeps its previous generation intact.
    pub fn checkpoint(&self) -> Result<(), PersistError> {
        // Fold lock first: a checkpoint interleaved with an in-flight
        // fold could otherwise snapshot a master missing the frozen batch
        // while seeding the WAL without it either.
        let _fold = self.tail.as_ref().map(|ts| lock_fold(&ts.fold_lock));
        let mut w = self.lock_writer();
        for (i, sw) in w.shards.iter_mut().enumerate() {
            if let ShardWriter::Durable(d) = sw {
                let tail_recs = match &self.tail {
                    Some(ts) => lock_mem(&ts.tails[i]).wal_records(),
                    None => Vec::new(),
                };
                d.checkpoint_with_tail(&tail_recs)?;
            }
        }
        Ok(())
    }

    /// Checkpoints every durable shard and consumes the handle — the
    /// clean-shutdown path leaving zero replay debt (in memtable mode:
    /// zero debt when the final flush folds everything; a tail stranded
    /// by a broken folder is re-journaled by the tail-aware checkpoint
    /// and replayed on the next open).
    ///
    /// # Errors
    /// See [`Self::checkpoint`].
    pub fn close(self) -> Result<(), PersistError> {
        if self.tail.is_some() {
            // Best-effort fold: a degraded folder must not block
            // shutdown, and the tail-aware checkpoint below preserves
            // whatever stays unfolded.
            let _ = self.flush();
            self.checkpoint()?;
            // Not d.close(): that would checkpoint again with an empty
            // tail, discarding any unfolded acked writes.
            return Ok(());
        }
        let w = match self.writer.into_inner() {
            Ok(w) => w,
            Err(p) => p.into_inner(),
        };
        for sw in w.shards {
            if let ShardWriter::Durable(d) = sw {
                d.close()?;
            }
        }
        Ok(())
    }
}

/// UTF-8-decodes a manifest file.
fn manifest_text(bytes: Vec<u8>) -> Result<String, PersistError> {
    String::from_utf8(bytes)
        .map_err(|_| PersistError::Corrupt("sharded manifest is not UTF-8".into()))
}

/// Parses `"<magic> <count>"`, requiring `count >= 1`.
fn parse_manifest(text: &str, magic: &str) -> Option<usize> {
    let rest = text.trim().strip_prefix(magic)?;
    let count: usize = rest.trim().parse().ok()?;
    (count >= 1).then_some(count)
}

/// Every shard must agree on dimensionality and configuration; returns
/// the common `(dim, cfg)`.
fn check_shard_agreement(masters: &[ShardWriter]) -> Result<(usize, BuildConfig), PersistError> {
    let first = masters
        .first()
        .ok_or_else(|| PersistError::Corrupt("sharded manifest names zero shards".into()))?
        .index();
    let dim = first.dim();
    for (i, sw) in masters.iter().enumerate().skip(1) {
        if sw.index().dim() != dim {
            return Err(PersistError::Corrupt(format!(
                "shard {i} is {}-dimensional, shard 0 is {dim}-dimensional",
                sw.index().dim()
            )));
        }
    }
    Ok((dim, first.config().clone()))
}
