//! Sharded concurrent serving layer: S independent [`NnCellIndex`] shards
//! behind one exact query surface.
//!
//! # Partitioning and exactness
//!
//! Points are partitioned **round-robin** by global id: global id `g`
//! lives in shard `g % S` at local id `g / S` (so `global = local·S +
//! shard`, a bijection). A k-NN query is **one** search over the whole
//! index: a [`QueryEngine`] over the forest of every shard's point tree
//! runs one MINDIST-ordered best-first traversal through one queue and
//! feeds one running k-best keyed by `(distance, global id)`. The bound
//! that prunes every shard is the global k-th distance, so no point that
//! could tie or beat it is skipped in any shard, and ties break by global
//! id exactly as in the unsharded ranking. Each shard's tail inserts seed
//! the k-best, its tombstones and liveness mask filter its own points,
//! and the duplicate check compares global ids. A radius query maps each
//! shard's hits to global ids and sorts the union once. `DESIGN.md`
//! §12.1 has the exactness argument.
//!
//! # Concurrency: copy-on-write snapshots, journaled memtable
//!
//! Each shard is wrapped in a [`SnapshotCell`]: readers
//! ([`ShardedIndex::query`] / [`ShardedIndex::batch`], `&self`) load the
//! current immutable snapshot `Arc` plus the shard's shared view of its
//! unfolded memtable tail (another `Arc`, kept current by every write)
//! and run entirely on those. Writers
//! ([`ShardedIndex::insert`] / [`ShardedIndex::remove`], also `&self`)
//! serialize on one writer mutex, journal through the shard's WAL (in
//! durable mode), push the operation onto the shard's memtable tail and
//! acknowledge — O(1), no tree update, no snapshot clone. The folder
//! ([`ShardedIndex::run_folder`], [`ShardedIndex::fold_once`],
//! [`ShardedIndex::flush`]) clones the shard's snapshot off the write
//! path, applies the tail to the clone and **publishes** it. The
//! published snapshot is the only copy of a shard's index: the writer
//! reads it (under its lock, where it cannot change) for duplicate and
//! liveness checks, saves and checkpoints. Readers never block on a write
//! and never observe a half-applied mutation; a query overlapping a
//! publish simply answers from the version it loaded.
//!
//! # On-disk layouts
//!
//! [`ShardedIndex::open`] detects four layouts; each is S ≥ 1 shards:
//!
//! ```text
//! FILE                     one index file (NnCellIndex::save)        1 in-memory shard
//! dir/MANIFEST             "nncell-sharded <S>" + dir/shard-<i>.nncell  S in-memory shards
//! dir/CURRENT = "<G>"      one durable shard directory (older)       1 durable shard
//! dir/CURRENT = "sharded S" + dir/shard-<i>/ (durable directories)    S durable shards
//! ```
//!
//! New durable directories are always the sharded kind
//! ([`ShardedIndex::open_durable`], [`ShardedIndex::into_durable`]). The
//! top-level `CURRENT` only records the shard count (written via the same
//! `write_atomic` tmp+fsync+rename path); each shard directory keeps its
//! own generation machinery (see [`crate::durable`]), so crash recovery is
//! per-shard WAL replay.
//! Round-robin assignment makes the global id watermark recoverable:
//! acknowledged inserts are a prefix of the global id sequence, so
//! `next_global` is the sum of per-shard slot counts.

use crate::config::BuildConfig;
use crate::durable::{DurableError, RecoveryReport, ShardLog};
use crate::cells::BuildStats;
use crate::engine::{available_threads, QueryEngine, Shard};
use crate::index::{validate_build_inputs, validate_point, BuildError, NnCellIndex};
use crate::memtable::{FoldConfig, FoldError, FoldStatus, Memtable, TailOp, TailSnapshot};
use crate::metrics::FoldMetrics;
use crate::persist::PersistError;
use crate::query::{Query, QueryError, QueryResponse};
use crate::snapshot::SnapshotCell;
use crate::vfs::{write_atomic, StdVfs, Vfs};
use crate::wal::WalRecord;
use nncell_geom::{DataSpace, Euclidean, Point};
use nncell_obs::Registry;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// File name of the plain (non-durable) sharded directory manifest.
const PLAIN_MANIFEST: &str = "MANIFEST";
/// Magic of the plain manifest: `nncell-sharded <S>`.
const PLAIN_MAGIC: &str = "nncell-sharded";
/// File name of the durable commit pointer, top-level and per shard.
const CURRENT: &str = "CURRENT";
/// Magic of the durable `CURRENT` manifest: `sharded <S>`. Deliberately
/// not a number, so opening a sharded directory as one shard directory
/// fails with a typed corrupt-manifest error instead of misreading it as
/// a generation.
const DURABLE_MAGIC: &str = "sharded";

/// Writer-side state, guarded by the single writer mutex. The shard
/// indexes themselves live only in the published snapshots.
struct Writer {
    /// One log per shard when the index is durable, none otherwise.
    logs: Vec<ShardLog>,
    /// The next unassigned global id. Round-robin: acknowledged ids are
    /// exactly `0..next_global`.
    next_global: usize,
}

/// Memtable state: per-shard unindexed tails plus folder supervision
/// bookkeeping.
///
/// Lock order everywhere: `fold_lock` → writer mutex → tail mutexes.
/// Queries take only tail mutexes (for an `Arc` clone of the tail view),
/// writers take writer → tail with O(1)/O(tail) holds, and the folder's
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

    /// Refuses a write while the tail is at its high-watermark.
    fn admit(&self) -> Result<(), DurableError> {
        let depth = self.depth.load(Ordering::Acquire);
        if depth >= self.cfg.tail_max {
            self.with_metrics(|m| m.backpressure.inc());
            return Err(DurableError::Backpressure {
                tail: depth,
                max: self.cfg.tail_max,
            });
        }
        Ok(())
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
/// a handful of `Vec` pushes, an `Arc` clone, or a bounded rebuild —
/// state stays consistent even if a recording site panicked while
/// holding the guard.
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

/// One shard a read consults: its published snapshot and, when
/// non-empty, the shared view of its unfolded tail.
type ShardView = (usize, Arc<NnCellIndex<Euclidean>>, Option<Arc<TailSnapshot>>);

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
    /// Queries answered by the exact scan fallback.
    fallback_queries: AtomicU64,
    /// Per-shard recovery reports of durable shards (empty otherwise).
    recovery: Vec<RecoveryReport>,
    /// The journaled memtable every write lands in.
    tail: TailState,
}

impl ShardedIndex {
    // ------------------------------------------------------------------
    // construction
    // ------------------------------------------------------------------

    /// Builds a sharded index over `points`: one global input validation
    /// (identical to [`NnCellIndex::build`], including
    /// [`crate::InputPolicy`] handling and error ids), round-robin
    /// partitioning of the validated rows, then one STR bulk load per
    /// shard — each running in its own thread.
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
        let (rows, skipped) = validate_build_inputs(points, dim, cfg.input_policy)?;
        let next_global = rows.len() / dim;
        let mut parts: Vec<Vec<f64>> = (0..shards)
            .map(|_| Vec::with_capacity((next_global / shards + 1) * dim))
            .collect();
        for (g, row) in rows.chunks_exact(dim).enumerate() {
            parts[g % shards].extend_from_slice(row);
        }
        let indexes: Vec<NnCellIndex<Euclidean>> = std::thread::scope(|s| {
            let handles: Vec<_> = parts
                .into_iter()
                .map(|part| {
                    let cfg = cfg.clone();
                    s.spawn(move || {
                        let alive = vec![true; part.len() / dim];
                        NnCellIndex::from_rows(dim, cfg, Euclidean, part, alive)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard build worker panicked"))
                .collect()
        });
        Ok(Self::assemble(
            dim,
            cfg,
            indexes,
            Vec::new(),
            next_global,
            start.elapsed().as_secs_f64(),
            skipped,
        ))
    }

    /// An empty sharded index of dimensionality `dim`, grown via
    /// [`Self::insert`].
    pub fn new(dim: usize, shards: usize, cfg: BuildConfig) -> Self {
        assert!(shards >= 1, "need at least one shard");
        let indexes = (0..shards)
            .map(|_| NnCellIndex::new(dim, cfg.clone()))
            .collect();
        Self::assemble(dim, cfg, indexes, Vec::new(), 0, 0.0, 0)
    }

    /// Publishes each shard index as its first snapshot (moved, not
    /// copied). `logs` holds one log per shard for a durable index and is
    /// empty otherwise; the recovery reports come from the logs. The
    /// memtable starts empty with the default [`FoldConfig`].
    fn assemble(
        dim: usize,
        cfg: BuildConfig,
        indexes: Vec<NnCellIndex<Euclidean>>,
        logs: Vec<ShardLog>,
        next_global: usize,
        build_seconds: f64,
        skipped_points: usize,
    ) -> Self {
        let tail = TailState::new(FoldConfig::default(), indexes.len());
        Self {
            dim,
            cfg,
            snaps: indexes.into_iter().map(SnapshotCell::new).collect(),
            recovery: logs.iter().map(|l| l.recovery().clone()).collect(),
            writer: Mutex::new(Writer { logs, next_global }),
            build_seconds,
            skipped_points,
            fallback_queries: AtomicU64::new(0),
            tail,
        }
    }

    /// Wraps shards opened from disk: they must agree on dimensionality,
    /// and the global id watermark is the sum of their slot counts.
    fn from_shards(
        indexes: Vec<NnCellIndex<Euclidean>>,
        logs: Vec<ShardLog>,
    ) -> Result<Self, PersistError> {
        let (dim, cfg) = check_shard_agreement(&indexes)?;
        let next_global = indexes.iter().map(|idx| idx.rows().len()).sum();
        Ok(Self::assemble(dim, cfg, indexes, logs, next_global, 0.0, 0))
    }

    /// Replaces the memtable's [`FoldConfig`] (high-watermark, folder
    /// pacing, fault hooks); an index starts with
    /// [`FoldConfig::default`]. Every write goes through the memtable:
    /// inserts and removes journal (in durable mode), land in a small
    /// unindexed per-shard tail, and acknowledge in O(1). Queries stay
    /// exact by scanning the tail's live inserts ahead of the index
    /// traversal and skipping its tombstones; the folder
    /// ([`Self::run_folder`], or explicit [`Self::fold_once`] /
    /// [`Self::flush`] calls) applies the tail to the shard indexes.
    ///
    /// Call at construction time, before the index is shared.
    #[must_use]
    pub fn with_memtable(mut self, cfg: FoldConfig) -> Self {
        self.tail.cfg = cfg;
        self
    }

    /// Journaled-but-unfolded operations across all shards.
    pub fn tail_depth(&self) -> usize {
        self.tail.depth.load(Ordering::Acquire)
    }

    /// Whether the folder has failed [`FoldConfig::degrade_after`]
    /// consecutive times. Writes keep landing in the tail (up to the
    /// high-watermark) and queries stay exact while degraded.
    pub fn is_degraded(&self) -> bool {
        self.tail.degraded.load(Ordering::Acquire)
    }

    /// A point-in-time view of the folder's health.
    pub fn fold_status(&self) -> FoldStatus {
        let ts = &self.tail;
        FoldStatus {
            tail_depth: ts.depth.load(Ordering::Acquire),
            degraded: ts.degraded.load(Ordering::Acquire),
            consecutive_failures: ts.consecutive_failures.load(Ordering::Acquire),
            folds: ts.folds.load(Ordering::Acquire),
            folded_records: ts.folded_records.load(Ordering::Acquire),
            failures: ts.failures.load(Ordering::Acquire),
        }
    }

    /// The memtable configuration.
    pub fn fold_config(&self) -> &FoldConfig {
        &self.tail.cfg
    }

    /// The writer lock. A poisoned lock is taken over: it guards only the
    /// id watermark and the shard logs, and every critical section leaves
    /// them consistent before it can panic.
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

    /// Total live points across all shards, counted against the
    /// snapshots plus the unfolded tails (under the writer lock, so acked
    /// writes are always reflected even before they fold).
    pub fn len(&self) -> usize {
        let _w = self.lock_writer();
        let mut total = 0usize;
        for (cell, mem) in self.snaps.iter().zip(&self.tail.tails) {
            let snap = cell.load();
            let m = lock_mem(mem);
            let view = m.view();
            let snap_dead = view
                .removed
                .iter()
                .filter(|&&local| snap.is_live(local))
                .count();
            total += snap.len() + view.live() - snap_dead;
        }
        total
    }

    /// Whether no shard holds a live point.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether updates are journaled through per-shard WALs.
    pub fn is_durable(&self) -> bool {
        !self.recovery.is_empty()
    }

    /// The current published snapshot of shard `i` (a stable read-only
    /// view; concurrent folds publish new versions without affecting it).
    /// Writes still in the memtable tail are not in it until they fold.
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

    /// Queries (via [`Self::query`] / [`Self::batch`]) answered by the
    /// exact scan fallback — exactly those the equivalent unsharded index
    /// would answer by scan: no unfolded tail and `k ≥` the total live
    /// count.
    pub fn fallback_queries(&self) -> u64 {
        self.fallback_queries.load(Ordering::Relaxed)
    }

    /// Per-shard scan-fallback counters summed across the current
    /// snapshots (a fallback counts once in every shard it scans).
    pub fn shard_fallback_queries(&self) -> u64 {
        self.snaps.iter().map(|c| c.load().fallback_queries()).sum()
    }

    /// Per-shard recovery reports of durable shards; empty for in-memory
    /// indexes.
    pub fn recovery(&self) -> &[RecoveryReport] {
        &self.recovery
    }

    /// Records sitting in the shards' active WALs (0 when not durable).
    pub fn wal_records(&self) -> u64 {
        self.lock_writer()
            .logs
            .iter()
            .map(ShardLog::wal_records)
            .sum()
    }

    /// Attaches a metrics registry: every shard's engine, gauge, and tree
    /// series is registered under a `shard="<i>"` label when there is more
    /// than one shard, unlabeled otherwise (the WAL family stays
    /// unlabeled, shared as whole-index totals — see
    /// [`NnCellIndex::attach_metrics_labeled`]), plus the `nncell_fold_*` /
    /// `nncell_tail_*` memtable family. New snapshots are published so
    /// concurrent readers start recording immediately. Idempotent per
    /// shard.
    pub fn attach_metrics(&self, registry: Arc<Registry>) {
        // Fold lock first (the global lock order): a fold publishing
        // between our store and its own would otherwise clobber the
        // metrics-attached snapshots with pre-attach clones.
        let _fold = lock_fold(&self.tail.fold_lock);
        let mut w = self.lock_writer();
        let labeled = self.num_shards() > 1;
        for (i, cell) in self.snaps.iter().enumerate() {
            let tag = i.to_string();
            let shard_label = [("shard", tag.as_str())];
            let labels: &[(&str, &str)] = if labeled { &shard_label } else { &[] };
            let snap = cell.load();
            if snap.metrics().is_some() {
                continue;
            }
            let mut idx = (*snap).clone();
            idx.attach_metrics_labeled(Arc::clone(&registry), labels);
            cell.store(Arc::new(idx));
        }
        for log in &mut w.logs {
            log.attach_metrics(&registry);
        }
        let ts = &self.tail;
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

    /// Executes one typed query: one best-first traversal over every
    /// non-empty shard's current snapshot, feeding one running k-best
    /// keyed by `(distance, global id)`. Exact, including tie ordering
    /// (see the module docs). Candidate and page counts are summed across
    /// shards; `fallback` is set when the answer came from the exact scan.
    ///
    /// # Errors
    /// The [`QueryError`] contract of [`crate::QueryEngine::execute`].
    pub fn query(&self, q: &Query) -> Result<QueryResponse, QueryError> {
        self.query_with_deadline(q, None)
    }

    /// [`Self::query`] under an optional time budget: the deadline is
    /// threaded into the fan-out's engine (equivalent to stamping
    /// [`Query::with_deadline`] on the request, without cloning it), so a
    /// budget that runs out mid-traversal surfaces as
    /// [`QueryError::DeadlineExceeded`].
    ///
    /// # Errors
    /// The [`QueryError`] contract of [`Self::query`], plus
    /// [`QueryError::DeadlineExceeded`].
    pub fn query_with_deadline(
        &self,
        q: &Query,
        deadline: Option<Instant>,
    ) -> Result<QueryResponse, QueryError> {
        let views = self.read_views();
        // One span for the whole fan-out; the engine's own spans nest
        // underneath it.
        let mut span = nncell_obs::trace::child("shard.query");
        span.arg("shards", views.len() as u64);
        let result = self.engine(&views).with_deadline_opt(deadline).execute(q);
        self.count_fallback(&result);
        result
    }

    /// The shards a read consults, each with its published snapshot and
    /// the shared view of its unfolded tail (an `Arc` clone under the
    /// shard's tail mutex, O(1) in the tail's size); shards with neither
    /// points nor tail operations are skipped. Per shard the tail view is
    /// taken first and the snapshot loaded second: an insert folded
    /// between the two reads then appears on *both* sides and the k-NN
    /// kernel skips its second copy by id; reading in the other order
    /// could miss it on both. The combined view may straddle a
    /// concurrent ack, which is fine — a query is only promised the
    /// writes acked before it started.
    fn read_views(&self) -> Vec<ShardView> {
        self.tail
            .tails
            .iter()
            .zip(&self.snaps)
            .enumerate()
            .filter_map(|(i, (mem, cell))| {
                let tail = lock_mem(mem).snapshot();
                let snap = cell.load();
                let tail = (!tail.is_empty()).then_some(tail);
                (!snap.is_empty() || tail.is_some()).then_some((i, snap, tail))
            })
            .collect()
    }

    /// The fan-out's engine over `views`: one forest of shard point trees
    /// under the round-robin id mapping. Sequential; batches widen it.
    fn engine<'v>(&self, views: &'v [ShardView]) -> QueryEngine<'v, Euclidean> {
        let shards = views
            .iter()
            .map(|(i, snap, tail)| Shard::new(*i, snap, tail.as_deref()))
            .collect();
        QueryEngine::fan_out(self.dim, self.num_shards(), shards)
    }

    /// Counts an answer that came from the exact scan fallback.
    fn count_fallback(&self, result: &Result<QueryResponse, QueryError>) {
        if result.as_ref().is_ok_and(|r| r.stats.fallback) {
            self.fallback_queries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Executes a batch of typed queries: every query runs the fan-out's
    /// one-forest traversal of [`Self::query`] over the shards' current
    /// snapshots, spread over the engine's worker pool (every hardware
    /// thread). Results come back in input order with the engine's
    /// per-query error contract.
    pub fn batch(&self, queries: &[Query]) -> Vec<Result<QueryResponse, QueryError>> {
        self.batch_with_deadline(queries, None)
    }

    /// [`Self::batch`] under an optional time budget: the engine checks the
    /// deadline between the queries of the batch (and inside the k-NN
    /// candidate loop), so queries past the budget come back as per-query
    /// [`QueryError::DeadlineExceeded`] results while answers already
    /// computed are kept.
    pub fn batch_with_deadline(
        &self,
        queries: &[Query],
        deadline: Option<Instant>,
    ) -> Vec<Result<QueryResponse, QueryError>> {
        let views = self.read_views();
        let results = self
            .engine(&views)
            .with_threads(available_threads())
            .with_deadline_opt(deadline)
            .batch(queries);
        for r in &results {
            self.count_fallback(r);
        }
        results
    }

    // ------------------------------------------------------------------
    // updates (single writer, journaled memtable tail)
    // ------------------------------------------------------------------

    /// Inserts a point: assign the next global id, validate (including a
    /// cross-shard exact-duplicate check against snapshots *and* tails),
    /// check backpressure, journal (durable mode) and push onto the owning
    /// shard's memtable tail. Returns the global id. No point-tree update,
    /// no snapshot clone — the writer-lock hold is O(log n) (the duplicate
    /// probe) plus an O(1) push, so ack latency is independent of index
    /// size. Queries see the point immediately through the tail view; the
    /// folder indexes it later.
    ///
    /// # Errors
    /// [`DurableError::Invalid`] with the same [`BuildError`] variants an
    /// unsharded insert rejects (ids are global);
    /// [`DurableError::Persist`] when a durable shard's journal write
    /// fails; [`DurableError::Backpressure`] when the memtable tail is at
    /// its high-watermark — nothing is journaled or acked in any case.
    pub fn insert(&self, p: Point) -> Result<usize, DurableError> {
        let mut w = self.lock_writer();
        let g = w.next_global;
        validate_point(&p, g, self.dim, &DataSpace::unit(self.dim))
            .map_err(DurableError::Invalid)?;
        for (si, (cell, mem)) in self.snaps.iter().zip(&self.tail.tails).enumerate() {
            let m = lock_mem(mem);
            let view = m.view();
            // A snapshot duplicate tombstoned in the tail is dead.
            let dup = cell
                .load()
                .find_live_duplicate(&p)
                .filter(|&local| !view.is_removed(local))
                .or_else(|| view.find_live_duplicate(&p));
            if let Some(local) = dup {
                return Err(DurableError::Invalid(BuildError::DuplicatePoint {
                    id: g,
                    of: self.global_of(si, local),
                }));
            }
        }
        self.tail.admit()?;
        let (shard, local) = self.locate(g);
        if let Some(log) = w.logs.get_mut(shard) {
            // Journal-first: the fsync happens here, before the ack. A
            // failure leaves the tail untouched.
            log.journal(&WalRecord::Insert(p.clone()))?;
        }
        lock_mem(&self.tail.tails[shard]).push_insert(local, p);
        self.tail.add_depth(1);
        w.next_global += 1;
        Ok(self.global_of(shard, local))
    }

    /// Removes the point with global id `global`. Returns `false` when no
    /// such point is live (never-assigned ids included). On `true`, a
    /// tombstone landed in the owning shard's tail (journal-first in
    /// durable mode) and queries stop returning the point immediately.
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
        let live = {
            let m = lock_mem(&self.tail.tails[shard]);
            let view = m.view();
            (self.snaps[shard].load().is_live(local) && !view.is_removed(local))
                || view.has_live_insert(local)
        };
        if !live {
            return Ok(false);
        }
        self.tail.admit()?;
        if let Some(log) = w.logs.get_mut(shard) {
            log.journal(&WalRecord::Remove(local as u64))?;
        }
        lock_mem(&self.tail.tails[shard]).push_remove(local);
        self.tail.add_depth(1);
        Ok(true)
    }

    // ------------------------------------------------------------------
    // folding (memtable → shard indexes, off the write path)
    // ------------------------------------------------------------------

    /// Folds every shard's frozen-plus-active tail into its index (one
    /// point-tree insert or delete per operation) and publishes the
    /// results. Returns the number of operations folded (0 with empty
    /// tails). The tree updates run with no lock held; only the freeze
    /// and publish steps touch the mutexes.
    ///
    /// # Errors
    /// [`FoldError::Panicked`] when a shard's fold panicked (the batch
    /// stays frozen and merges into the next attempt; shards folded
    /// before the failing one stay folded).
    pub fn fold_once(&self) -> Result<usize, FoldError> {
        let _fold = lock_fold(&self.tail.fold_lock);
        let mut total = 0usize;
        for shard in 0..self.num_shards() {
            total += self.fold_shard(shard)?;
        }
        Ok(total)
    }

    /// Folds one shard's tail: freeze the batch, deep-clone the published
    /// snapshot (the fold's only copy), re-apply the batch in ack order
    /// off-lock (under `catch_unwind` — a panicking fold, injected or
    /// organic, keeps the batch for retry and never corrupts the index),
    /// then publish the result under the writer lock. Folding performs **zero**
    /// syscalls: the WAL already holds every record, so crash recovery
    /// never depends on fold progress and a fold can never double-apply
    /// into durable state. Callers hold the fold lock.
    fn fold_shard(&self, shard: usize) -> Result<usize, FoldError> {
        let ts = &self.tail;
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
        // The snapshot only changes under fold_lock, which we hold, so the
        // clone below is of the state the frozen batch was acked against.
        // Cloning off the writer lock keeps writes flowing during the
        // expensive apply.
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
        {
            // Publish and drop the frozen batch in one writer-lock critical
            // section: the writer never sees the batch in both the
            // snapshot and the tail, or in neither.
            let _w = self.lock_writer();
            self.snaps[shard].store(Arc::new(folded));
            lock_mem(&ts.tails[shard]).clear_frozen();
            ts.sub_depth(records);
        }
        ts.record_success(records, start.elapsed());
        Ok(records)
    }

    /// Folds until the tail is empty (used by clean shutdown and before
    /// saves). Returns the total operations folded.
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
    /// thread with a shared `Arc<ShardedIndex>`. All failure accounting
    /// (consecutive-failure streaks, the degraded flag, `nncell_fold_*`
    /// metrics) happens inside [`Self::fold_once`], so manual folds and
    /// the loop agree.
    pub fn run_folder(&self, stop: &AtomicBool) {
        let cfg = &self.tail.cfg;
        let mut backoff = cfg.retry_base;
        while !stop.load(Ordering::Acquire) {
            if self.tail_depth() == 0 {
                sleep_interruptible(stop, cfg.poll_interval);
                continue;
            }
            match self.fold_once() {
                Ok(_) => backoff = cfg.retry_base,
                Err(_) => {
                    sleep_interruptible(stop, backoff);
                    backoff = (backoff * 2).min(cfg.retry_cap);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // persistence
    // ------------------------------------------------------------------

    /// Saves every shard snapshot plus a manifest into `dir`
    /// (`MANIFEST` + `shard-<i>.nncell`, all through the atomic write
    /// path). Point-in-time consistent: the tail is folded in first and
    /// the writer lock is held across the save.
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
        // The snapshots trail the acked state by the tail; fold everything
        // in first so the saved files hold every ack. Fold lock before
        // writer lock (the global order); the tail-empty check happens
        // *under* the writer lock, so no write can sneak in between the
        // final fold and the save.
        let _fold = lock_fold(&self.tail.fold_lock);
        let _w = loop {
            let w = self.lock_writer();
            // Authoritative emptiness check under the writer lock (reads
            // the tails themselves, not the depth counter).
            if self.tail.tails.iter().all(|m| lock_mem(m).len() == 0) {
                break w;
            }
            drop(w);
            for shard in 0..self.num_shards() {
                self.fold_shard(shard).map_err(|e| {
                    PersistError::Corrupt(format!("memtable flush before save failed: {e}"))
                })?;
            }
        };
        vfs.create_dir_all(dir)?;
        for (i, cell) in self.snaps.iter().enumerate() {
            cell.load()
                .save_with_vfs(vfs, &dir.join(format!("shard-{i}.nncell")))?;
        }
        // Manifest last: a crash mid-save leaves either the old manifest
        // (old index intact) or no manifest (load fails typed), never a
        // manifest pointing at missing shard files.
        write_atomic(
            vfs,
            &dir.join(PLAIN_MANIFEST),
            format!("{PLAIN_MAGIC} {}\n", self.num_shards()).as_bytes(),
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
        let shards = read_manifest(vfs, &dir.join(PLAIN_MANIFEST), PLAIN_MAGIC)?;
        let indexes = (0..shards)
            .map(|i| NnCellIndex::load_with_vfs(vfs, &dir.join(format!("shard-{i}.nncell"))))
            .collect::<Result<Vec<_>, _>>()?;
        Self::from_shards(indexes, Vec::new())
    }

    /// Opens any on-disk layout (see the module docs): a single index
    /// file as one in-memory shard, a [`Self::save`] directory as its
    /// shards, an unsharded durable directory (`CURRENT` holds a
    /// generation) as one durable shard rooted at that directory — so its
    /// layout stays as it is — and a sharded durable directory as its
    /// durable shards, each recovering by WAL replay (see
    /// [`Self::recovery`]).
    ///
    /// # Errors
    /// I/O failures, a missing, corrupt or damaged file or manifest, or
    /// shards that disagree on dimensionality.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, PersistError> {
        let path = path.as_ref();
        let vfs: Arc<dyn Vfs> = Arc::new(StdVfs);
        if vfs.exists(&path.join(PLAIN_MANIFEST)) {
            return Self::load_with_vfs(vfs.as_ref(), path);
        }
        let current = path.join(CURRENT);
        if !vfs.exists(&current) {
            let idx = NnCellIndex::load_with_vfs(vfs.as_ref(), path)?;
            return Self::from_shards(vec![idx], Vec::new());
        }
        let text = manifest_text(vfs.read(&current)?)?;
        let dirs: Vec<PathBuf> = match parse_manifest(&text, DURABLE_MAGIC) {
            Some(shards) => (0..shards).map(|i| shard_dir(path, i)).collect(),
            None => vec![path.to_path_buf()],
        };
        let (logs, indexes) = dirs
            .iter()
            .map(|d| ShardLog::open(Arc::clone(&vfs), d))
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .unzip();
        Self::from_shards(indexes, logs)
    }

    /// Opens (or initializes) a crash-consistent sharded index: a
    /// top-level `CURRENT` manifest recording the shard count, one full
    /// durable directory (`shard-<i>/`) per shard. On open, each shard
    /// recovers independently (snapshot load + WAL replay; see
    /// [`Self::recovery`]); `shards` must match the manifest. A shard
    /// directory an interrupted initialization left without a committed
    /// generation starts empty.
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
        let manifest = dir.join(CURRENT);
        if vfs.exists(&manifest) {
            let stored = read_manifest(vfs.as_ref(), &manifest, DURABLE_MAGIC)?;
            if stored != shards {
                return Err(PersistError::Corrupt(format!(
                    "directory {dir:?} is sharded {stored} ways, caller expected {shards}"
                )));
            }
        } else {
            write_atomic(
                vfs.as_ref(),
                &manifest,
                format!("{DURABLE_MAGIC} {shards}\n").as_bytes(),
            )?;
        }
        let (logs, indexes) = (0..shards)
            .map(|i| {
                ShardLog::open_or_create(Arc::clone(&vfs), &shard_dir(dir, i), dim, cfg.clone())
            })
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .unzip();
        Self::from_shards(indexes, logs)
    }

    /// Converts an in-memory sharded index into a crash-consistent one:
    /// the tail is folded in, then each shard's published snapshot is
    /// written as the generation-0 snapshot of its own durable directory
    /// (`dir/shard-<i>/`) and the top-level `CURRENT` records the shard
    /// count. The published snapshots stay as they are, and build stats,
    /// the memtable and its configuration carry over; subsequent updates
    /// journal through the per-shard WALs.
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
        mut self,
        vfs: Arc<dyn Vfs>,
        dir: &Path,
    ) -> Result<Self, PersistError> {
        if self.is_durable() {
            return Err(PersistError::Corrupt(
                "index is already durable; open it in place instead".into(),
            ));
        }
        // We own `self` exclusively here, so the tail is quiescent after
        // the flush.
        self.flush().map_err(|e| {
            PersistError::Corrupt(format!("memtable flush before conversion failed: {e}"))
        })?;
        vfs.create_dir_all(dir)?;
        let logs = self
            .snaps
            .iter()
            .enumerate()
            .map(|(i, cell)| ShardLog::create(Arc::clone(&vfs), &shard_dir(dir, i), &cell.load()))
            .collect::<Result<Vec<_>, _>>()?;
        // Manifest last, as in save(): a crash mid-conversion leaves no
        // CURRENT, so the half-written directory fails typed on open.
        write_atomic(
            vfs.as_ref(),
            &dir.join(CURRENT),
            format!("{DURABLE_MAGIC} {}\n", self.num_shards()).as_bytes(),
        )?;
        self.recovery = logs.iter().map(|l| l.recovery().clone()).collect();
        let w = match self.writer.get_mut() {
            Ok(w) => w,
            Err(p) => p.into_inner(),
        };
        w.logs = logs;
        Ok(self)
    }

    /// Checkpoints every durable shard (snapshot + fresh WAL + `CURRENT`
    /// flip, per shard). A no-op for in-memory indexes.
    ///
    /// The fresh WAL is seeded with the shard's unfolded tail (one
    /// batched fsync) before the `CURRENT` flip, preserving the invariant
    /// *disk snapshot + disk WAL ≡ published snapshot + tail*: a checkpoint taken
    /// while the folder is behind (or broken) still recovers every acked
    /// write, and because folding performs no syscalls, nothing can
    /// double-apply.
    ///
    /// # Errors
    /// I/O failures; already-checkpointed shards stay checkpointed, the
    /// failing shard keeps its previous generation intact.
    pub fn checkpoint(&self) -> Result<(), PersistError> {
        // Fold lock first: a checkpoint interleaved with an in-flight
        // fold could otherwise snapshot an index missing the frozen batch
        // while seeding the WAL without it either.
        let _fold = lock_fold(&self.tail.fold_lock);
        let mut w = self.lock_writer();
        for (i, log) in w.logs.iter_mut().enumerate() {
            let tail_recs = lock_mem(&self.tail.tails[i]).wal_records();
            log.checkpoint_with_tail(&self.snaps[i].load(), &tail_recs)?;
        }
        Ok(())
    }

    /// Folds the tail and checkpoints every durable shard, consuming the
    /// handle — the clean-shutdown path leaving zero replay debt when the
    /// final flush folds everything (a tail stranded by a broken folder
    /// is re-journaled by the tail-aware checkpoint and replayed on the
    /// next open).
    ///
    /// # Errors
    /// See [`Self::checkpoint`].
    pub fn close(self) -> Result<(), PersistError> {
        // Best-effort fold: a degraded folder must not block shutdown.
        let _ = self.flush();
        self.checkpoint()
    }
}

/// Directory of durable shard `i` under a sharded durable directory.
fn shard_dir(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("shard-{i}"))
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

/// Reads the shard count out of the manifest at `path`.
fn read_manifest(vfs: &dyn Vfs, path: &Path, magic: &str) -> Result<usize, PersistError> {
    let text = manifest_text(vfs.read(path)?)?;
    parse_manifest(&text, magic).ok_or_else(|| {
        PersistError::Corrupt(format!(
            "sharded manifest {path:?} holds {text:?} (expected `{magic} <count>`)"
        ))
    })
}

/// Every shard must agree on dimensionality and configuration; returns
/// the common `(dim, cfg)`.
fn check_shard_agreement(
    indexes: &[NnCellIndex<Euclidean>],
) -> Result<(usize, BuildConfig), PersistError> {
    let first = indexes
        .first()
        .ok_or_else(|| PersistError::Corrupt("sharded manifest names zero shards".into()))?;
    let dim = first.dim();
    for (i, idx) in indexes.iter().enumerate().skip(1) {
        if idx.dim() != dim {
            return Err(PersistError::Corrupt(format!(
                "shard {i} is {}-dimensional, shard 0 is {dim}-dimensional",
                idx.dim()
            )));
        }
    }
    Ok((dim, first.config().clone()))
}
