//! Sharded concurrent serving layer: S independent [`NnCellIndex`] shards
//! behind one exact query surface.
//!
//! # Partitioning and exactness
//!
//! Each shard owns a region of space. The build splits the validated
//! points by S − 1 recursive median planes, each on the widest dimension
//! of the points it splits (a kd split; ties on the plane break by global
//! id), so the shards' trees barely overlap and the forest reads like one
//! tree with a kd top level. Global ids stay input positions and then ack
//! order: a shard keeps the global id of each of its slots in an id
//! column, published with its index, and takes its slots in ascending
//! global-id order. An insert goes to the shard whose published point
//! tree has the root entry nearest to the point by MINDIST (0 when the
//! point lies inside one; a leaf root counts as the box of its points),
//! ties to the shard with the fewest live points, then the lowest index.
//! The rule stores no planes, so it works the same on empty shards and on
//! the round-robin layouts older releases wrote (global id `g` in shard
//! `g % S` at slot `g / S`), which still open as they are.
//!
//! A k-NN query is **one** search over the whole index: a [`QueryEngine`]
//! over the forest of every shard's point tree runs one MINDIST-ordered
//! best-first traversal through one queue and feeds one running k-best
//! keyed by `(distance, global id)`. The bound that prunes every shard is
//! the global k-th distance, so no point that could tie or beat it is
//! skipped in any shard, wherever it lives, and ties break by global id
//! exactly as in the unsharded ranking. Each shard's tombstones filter
//! its own points during the walk; after the walk, each shard's unfolded
//! tail inserts are scanned under the walk's k-th-best bound, through the
//! same leaf kernel, and only those within it are offered to the k-best.
//! A radius query maps each shard's hits to global ids and sorts the
//! union once.
//! `DESIGN.md` §12.1 has the exactness argument.
//!
//! The routing rule cannot rebalance: skewed inserts grow one shard (the
//! per-shard `nncell_live_points` gauge shows it). Nor does it make
//! regions: an index grown from empty has empty trees until a fold and
//! then root boxes that each cover the whole space, so every shard ties
//! and its inserts are dealt round the shards. Only a build splits by
//! space.
//!
//! # Concurrency: one published read state, journaled memtable
//!
//! The index publishes one read state in a [`SnapshotCell`]: for every
//! shard, its index `Arc`, its id column and the view of its unfolded
//! memtable tail (another `Arc`). Readers ([`ShardedIndex::query`] /
//! [`ShardedIndex::batch`], `&self`) load it once — one lock, one `Arc`
//! clone — and run entirely on it. Writers ([`ShardedIndex::insert`] /
//! [`ShardedIndex::remove`], also `&self`) serialize on one writer mutex,
//! journal one WAL record (in durable mode), push that same record onto
//! the shard's memtable and publish the new tail view, then
//! acknowledge — O(1), no tree update, no index clone. The state changes
//! in place unless a reader still holds it, so a tail is copied only
//! under a concurrent read. The folder ([`ShardedIndex::run_folder`],
//! [`ShardedIndex::fold_once`], [`ShardedIndex::flush`]) clones the
//! shard's index off the write path, applies the tail to the clone and
//! **publishes** it together with the tail view that is left, in one
//! update: no read sees a point in both, or in neither. The published
//! index is the only copy of a shard's index: the writer reads the state
//! (under its lock, where it cannot change) for duplicate and liveness
//! checks, saves and checkpoints. Readers never block on a write and
//! never observe a half-applied mutation; a query overlapping a publish
//! simply answers from the version it loaded.
//!
//! Lock order everywhere: `fold_lock` → writer mutex → state slot. A
//! read takes only the slot, for an `Arc` clone; a write holds it for an
//! O(1) push (O(tail) when a reader holds the state), and the folder's
//! point-tree updates happen with **no** lock held.
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
//!
//! Every shard file carries its id column (`NNCELL03`) and every insert
//! record its global id, so recovery rebuilds each shard's ids as it
//! rebuilds its points. A file or record of an older release has none and
//! takes the round-robin rule. Every assigned id occupies one slot, so the
//! slots of all shards carry exactly the ids `0..n` (checked on open) and
//! the next insert gets `n`.

use crate::config::BuildConfig;
use crate::durable::{apply_record, DurableError, RecoveryReport, ShardLog};
use crate::engine::{available_threads, QueryEngine, QueryScratch, Shard};
use crate::index::{validate_build_inputs, validate_point, BuildError, BuildStats, NnCellIndex};
use crate::memtable::{FoldConfig, FoldError, FoldStatus, Memtable};
use crate::metrics::{EngineMetrics, FoldMetrics, ShardedMetrics};
use crate::persist::{PersistError, RoundRobin};
use crate::query::{Query, QueryError, QueryResponse};
use crate::snapshot::SnapshotCell;
use crate::vfs::{write_atomic, StdVfs, Vfs};
use crate::wal::WalRecord;
use nncell_geom::{Euclidean, Point};
use nncell_index::{BestFirstScratch, TreeMetrics};
use nncell_obs::{Registry, SlowQueryLog};
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

thread_local! {
    /// The calling thread's query scratch, kept warm across
    /// [`ShardedIndex::query`] calls so a read does not regrow its queue,
    /// k-best and kernel buffer from empty.
    static SCRATCH: RefCell<QueryScratch> = RefCell::new(QueryScratch::new());
}

/// The most a thread's warm scratch keeps after a query. An ordinary
/// read needs a few KiB (a k-best, a queue of pages, one leaf's
/// distances); a query that outgrew this (a radius covering most of the
/// index, a very large k) frees its buffers instead of pinning them for
/// the thread's lifetime.
const SCRATCH_KEEP_BYTES: usize = 64 << 10;

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
/// indexes and tail views themselves live only in the published state.
struct Writer {
    /// One log per shard when the index is durable, none otherwise.
    logs: Vec<ShardLog>,
    /// The next unassigned global id: acknowledged ids are exactly
    /// `0..next_global`, each in one slot of one shard.
    next_global: usize,
    /// Each shard's slot count, unfolded inserts included: the slot its
    /// next insert takes.
    slots: Vec<usize>,
    /// Each shard's unfolded records in ack order.
    tails: Vec<Memtable>,
    /// The insert duplicate probe's traversal scratch, kept warm across
    /// inserts.
    probe: BestFirstScratch,
}

/// Memtable configuration plus folder supervision bookkeeping.
struct TailState {
    cfg: FoldConfig,
    /// Serializes folds, flushes, checkpoints, and metric attachment so an
    /// index publish can never interleave with a generation rotation,
    /// another fold or the binding of the shards' tree metrics.
    fold_lock: Mutex<()>,
    /// Unfolded operations across all shards (the backpressure input).
    depth: AtomicUsize,
    degraded: AtomicBool,
    consecutive_failures: AtomicU32,
    folds: AtomicU64,
    folded_records: AtomicU64,
    failures: AtomicU64,
}

impl TailState {
    fn new(cfg: FoldConfig) -> Self {
        Self {
            cfg,
            fold_lock: Mutex::new(()),
            depth: AtomicUsize::new(0),
            degraded: AtomicBool::new(false),
            consecutive_failures: AtomicU32::new(0),
            folds: AtomicU64::new(0),
            folded_records: AtomicU64::new(0),
            failures: AtomicU64::new(0),
        }
    }

    // Each recording method takes the fold family, `None` until a
    // registry is attached. Every call runs under the writer lock or the
    // fold lock, which `ShardedIndex::attach_metrics` holds while it
    // seeds the family, so no update falls between seeding and binding.

    fn add_depth(&self, n: usize, fm: Option<&FoldMetrics>) {
        let now = self.depth.fetch_add(n, Ordering::AcqRel) + n;
        if let Some(m) = fm {
            m.tail_depth.set(now as i64);
        }
    }

    fn sub_depth(&self, n: usize, fm: Option<&FoldMetrics>) {
        let now = self.depth.fetch_sub(n, Ordering::AcqRel).saturating_sub(n);
        if let Some(m) = fm {
            m.tail_depth.set(now as i64);
        }
    }

    /// Refuses a write while the tail is at its high-watermark.
    fn admit(&self, fm: Option<&FoldMetrics>) -> Result<(), DurableError> {
        let depth = self.depth.load(Ordering::Acquire);
        if depth >= self.cfg.tail_max {
            if let Some(m) = fm {
                m.backpressure.inc();
            }
            return Err(DurableError::Backpressure {
                tail: depth,
                max: self.cfg.tail_max,
            });
        }
        Ok(())
    }

    fn record_failure(&self, fm: Option<&FoldMetrics>) {
        self.failures.fetch_add(1, Ordering::AcqRel);
        let streak = self.consecutive_failures.fetch_add(1, Ordering::AcqRel) + 1;
        let degrades =
            streak >= self.cfg.degrade_after && !self.degraded.swap(true, Ordering::AcqRel);
        if let Some(m) = fm {
            m.failures.inc();
            if degrades {
                m.degraded.set(1);
            }
        }
    }

    fn record_success(&self, records: usize, elapsed: Duration, fm: Option<&FoldMetrics>) {
        self.consecutive_failures.store(0, Ordering::Release);
        let recovers = self.degraded.swap(false, Ordering::AcqRel);
        self.folds.fetch_add(1, Ordering::AcqRel);
        self.folded_records
            .fetch_add(records as u64, Ordering::AcqRel);
        if let Some(m) = fm {
            if recovers {
                m.degraded.set(0);
            }
            m.folds.inc();
            m.folded_records.add(records as u64);
            m.latency_ns.record_duration(elapsed);
        }
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
/// query API. See the module docs for the partitioning and publication
/// protocol. Built over the Euclidean metric (the durable layer's
/// contract).
///
/// All methods take `&self`: queries run on the copy-on-write published
/// state, updates serialize on an internal single-writer lock — share a
/// `ShardedIndex` (or an `Arc` of one) across threads freely.
pub struct ShardedIndex {
    dim: usize,
    cfg: BuildConfig,
    /// The shard count `S`.
    shards: usize,
    /// The published read state: every shard's index and tail view,
    /// changed only under the writer lock.
    state: SnapshotCell<Vec<Shard>>,
    writer: Mutex<Writer>,
    /// Wall-clock seconds of the initial sharded build (0 for loads).
    build_seconds: f64,
    /// Points dropped by the global input validation under
    /// [`crate::InputPolicy::Skip`].
    skipped_points: usize,
    /// Per-shard recovery reports of durable shards (empty otherwise).
    recovery: Vec<RecoveryReport>,
    /// The journaled memtable every write lands in.
    tail: TailState,
    /// Registry handles, set once by [`Self::attach_metrics`].
    metrics: OnceLock<ShardedMetrics>,
}

impl ShardedIndex {
    // ------------------------------------------------------------------
    // construction
    // ------------------------------------------------------------------

    /// Builds a sharded index over `points`: one global input validation
    /// (identical to [`NnCellIndex::build`], including
    /// [`crate::InputPolicy`] handling and error ids), a kd split of the
    /// validated rows into one region per shard (see the module docs),
    /// then one STR bulk load per shard — each running in its own thread.
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
        let parts = kd_split(&rows, dim, shards);
        drop(rows);
        let built: Vec<(NnCellIndex<Euclidean>, Vec<usize>)> = std::thread::scope(|s| {
            let handles: Vec<_> = parts
                .into_iter()
                .map(|(part, ids)| {
                    let cfg = cfg.clone();
                    s.spawn(move || {
                        let alive = vec![true; ids.len()];
                        (
                            NnCellIndex::from_rows(dim, cfg, Euclidean, part, alive),
                            ids,
                        )
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
            built,
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
        let empty = (0..shards)
            .map(|_| (NnCellIndex::new(dim, cfg.clone()), Vec::new()))
            .collect();
        Self::assemble(dim, cfg, empty, Vec::new(), 0, 0.0, 0)
    }

    /// Publishes each shard index and its id column, with an empty tail,
    /// as the first read state (moved, not copied). `logs` holds one log
    /// per shard for a durable index and is empty otherwise; the recovery
    /// reports come from the logs. The memtable starts empty with the
    /// default [`FoldConfig`].
    fn assemble(
        dim: usize,
        cfg: BuildConfig,
        shards: Vec<(NnCellIndex<Euclidean>, Vec<usize>)>,
        logs: Vec<ShardLog>,
        next_global: usize,
        build_seconds: f64,
        skipped_points: usize,
    ) -> Self {
        let slots = shards.iter().map(|(_, ids)| ids.len()).collect();
        let state: Vec<Shard> = shards
            .into_iter()
            .map(|(idx, ids)| Shard {
                index: Arc::new(idx),
                ids: Arc::new(ids),
                tail: Arc::default(),
            })
            .collect();
        let shards = state.len();
        Self {
            dim,
            cfg,
            shards,
            state: SnapshotCell::new(state),
            recovery: logs.iter().map(|l| l.recovery().clone()).collect(),
            writer: Mutex::new(Writer {
                logs,
                next_global,
                slots,
                tails: (0..shards).map(|_| Memtable::default()).collect(),
                probe: BestFirstScratch::new(),
            }),
            build_seconds,
            skipped_points,
            tail: TailState::new(FoldConfig::default()),
            metrics: OnceLock::new(),
        }
    }

    /// Wraps shards opened from disk, each with its id column: they must
    /// agree on dimensionality, and their slots must carry the global ids
    /// `0..n` once each, ascending within a shard; the next insert then
    /// gets `n`.
    fn from_shards(
        shards: Vec<(NnCellIndex<Euclidean>, Vec<usize>)>,
        logs: Vec<ShardLog>,
    ) -> Result<Self, PersistError> {
        let (dim, cfg) = check_shard_agreement(&shards)?;
        let next_global = check_ids(&shards)?;
        Ok(Self::assemble(dim, cfg, shards, logs, next_global, 0.0, 0))
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
    /// id watermark, the shard logs and the memtables' records, and every
    /// critical section leaves them consistent before it can panic.
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
        self.shards
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The build configuration shards were built with.
    pub fn config(&self) -> &BuildConfig {
        &self.cfg
    }

    /// Total live points across all shards, counted against the published
    /// indexes plus the unfolded tails (every acked write is in the
    /// published state before it is acknowledged).
    pub fn len(&self) -> usize {
        self.state.load().iter().map(live_points).sum()
    }

    /// Whether no shard holds a live point.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether updates are journaled through per-shard WALs.
    pub fn is_durable(&self) -> bool {
        !self.recovery.is_empty()
    }

    /// The current published index of shard `i` (a stable read-only
    /// view; concurrent folds publish new versions without affecting it).
    /// Writes still in the memtable tail are not in it until they fold.
    /// Its slots are local ids; [`Self::locate`] maps a global id to one.
    ///
    /// # Panics
    /// Panics if `i >= num_shards()`.
    pub fn shard(&self, i: usize) -> Arc<NnCellIndex<Euclidean>> {
        Arc::clone(&self.state.load()[i].index)
    }

    /// Where global id `global` lives: its shard and the local slot it
    /// holds there, as of the current published state. `Some` for an id
    /// in a shard's published index, live or removed, and for a live
    /// insert still in a memtable tail (its slot once folded); `None`
    /// for an id never assigned or inserted and removed before a fold.
    pub fn locate(&self, global: usize) -> Option<(usize, usize)> {
        locate_in(&self.state.load(), global)
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
        for shard in self.state.load().iter() {
            let s = *shard.index.build_stats();
            agg.skipped_points += s.skipped_points;
            agg.profile.bulk_load.nanos += s.profile.bulk_load.nanos;
            agg.profile.bulk_load.calls += s.profile.bulk_load.calls;
        }
        agg
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

    /// Attaches a metrics registry. A query is one unit of work, so it is
    /// recorded once, in one unlabeled query bundle (`nncell_queries_total`,
    /// the latency and work histograms, the slow-query ring — see
    /// [`Self::slow_log`]). What differs per shard — its point tree's cost
    /// counters and its `nncell_live_points` gauge — is registered under
    /// a `shard="<i>"` label when there is more than one shard, unlabeled
    /// otherwise. The WAL family and the `nncell_fold_*` / `nncell_tail_*`
    /// memtable family are unlabeled whole-index totals. Each shard's
    /// point tree is bound through the published index, so nothing is
    /// cloned or republished; its live-point gauge is set here and
    /// whenever a fold publishes the shard. The first registry wins; a
    /// later call is a no-op.
    pub fn attach_metrics(&self, registry: Arc<Registry>) {
        // Fold lock, then writer lock (the global lock order): every fold
        // family update and every shard publish runs under one of them,
        // so none falls between the seeding below and the handles being
        // set, and no fold clones a shard whose tree is not yet bound.
        let _fold = lock_fold(&self.tail.fold_lock);
        let mut w = self.lock_writer();
        if self.metrics.get().is_some() {
            return;
        }
        let labeled = self.num_shards() > 1;
        let mut live_points = Vec::with_capacity(self.num_shards());
        for (i, shard) in self.state.load().iter().enumerate() {
            let tag = i.to_string();
            let shard_label = [("shard", tag.as_str())];
            let labels: &[(&str, &str)] = if labeled { &shard_label } else { &[] };
            let tree = TreeMetrics::register_labeled(&registry, "point_tree", labels);
            shard.index.point_tree().bind_metrics(tree);
            let l = nncell_obs::format_labels(labels);
            let gauge = registry.gauge(&format!("nncell_live_points{l}"));
            gauge.set(shard.index.len() as i64);
            live_points.push(gauge);
        }
        for log in &mut w.logs {
            log.attach_metrics(&registry);
        }
        let ts = &self.tail;
        let fold = FoldMetrics::register(&registry);
        // Seed with the pre-attach totals so registry values are correct
        // even when the registry arrives late.
        fold.tail_depth.set(ts.depth.load(Ordering::Acquire) as i64);
        fold.degraded
            .set(i64::from(ts.degraded.load(Ordering::Acquire)));
        fold.folds.add(ts.folds.load(Ordering::Acquire));
        fold.folded_records
            .add(ts.folded_records.load(Ordering::Acquire));
        fold.failures.add(ts.failures.load(Ordering::Acquire));
        let _ = self.metrics.set(ShardedMetrics {
            engine: EngineMetrics::register(&registry, self.dim),
            fold,
            live_points,
        });
    }

    /// The slow-query ring of the query series, once a registry is
    /// attached: one ring for the whole index.
    pub fn slow_log(&self) -> Option<&Arc<SlowQueryLog>> {
        self.engine_metrics().map(EngineMetrics::slow_log)
    }

    /// The query bundle every fan-out records into (`None` without a
    /// registry).
    fn engine_metrics(&self) -> Option<&EngineMetrics> {
        self.metrics.get().map(|m| &m.engine)
    }

    /// The fold family (`None` without a registry).
    fn fold_metrics(&self) -> Option<&FoldMetrics> {
        self.metrics.get().map(|m| &m.fold)
    }

    // ------------------------------------------------------------------
    // queries
    // ------------------------------------------------------------------

    /// Executes one typed query: one best-first traversal over every
    /// shard of the published read state, feeding one running k-best
    /// keyed by `(distance, global id)`. Exact, including tie ordering
    /// (see the module docs). Candidate and page counts are summed across
    /// shards.
    /// The query runs on the calling thread's warm scratch (one per
    /// thread, reused by every later call on it). A budget stamped on the
    /// query ([`Query::with_deadline`]) that runs out surfaces as
    /// [`QueryError::DeadlineExceeded`].
    ///
    /// # Errors
    /// The [`QueryError`] contract of [`crate::QueryEngine::execute`].
    pub fn query(&self, q: &Query) -> Result<QueryResponse, QueryError> {
        let state = self.state.load();
        // One span for the whole fan-out; the engine's own spans nest
        // underneath it.
        let mut span = nncell_obs::trace::child("shard.query");
        span.arg("shards", state.len() as u64);
        let engine = QueryEngine::fan_out(self.dim, &state, self.engine_metrics());
        // The thread's warm scratch; a cold one if it is already in use
        // on this thread or gone (thread teardown).
        let warm = SCRATCH.try_with(|cell| {
            let mut scratch = cell.try_borrow_mut().ok()?;
            let result = engine.execute_with(&mut scratch, q);
            scratch.trim(SCRATCH_KEEP_BYTES);
            Some(result)
        });
        match warm {
            Ok(Some(result)) => result,
            _ => engine.execute(q),
        }
    }

    /// Executes a batch of typed queries: every query runs the fan-out's
    /// one-forest traversal of [`Self::query`] over the published read
    /// state, spread over the engine's worker pool (every hardware
    /// thread). Results come back in input order with the engine's
    /// per-query error contract: a query whose stamped budget
    /// ([`Query::with_deadline`]) runs out answers
    /// [`QueryError::DeadlineExceeded`], while answers already computed
    /// are kept.
    pub fn batch(&self, queries: &[Query]) -> Vec<Result<QueryResponse, QueryError>> {
        let state = self.state.load();
        QueryEngine::fan_out(self.dim, &state, self.engine_metrics())
            .with_threads(available_threads())
            .batch(queries)
    }

    // ------------------------------------------------------------------
    // updates (single writer, journaled memtable tail)
    // ------------------------------------------------------------------

    /// Inserts a point: assign the next global id, validate (including a
    /// cross-shard exact-duplicate check against indexes *and* tails),
    /// route it to a shard (the nearest root entry; see the module docs),
    /// check backpressure, journal (durable mode) and push onto that
    /// shard's memtable tail. Returns the global id. No point-tree update,
    /// no index clone — the writer-lock hold is O(log n) (the duplicate
    /// probe) plus an O(1) push, so ack latency is independent of index
    /// size. Queries see the point immediately through the tail view; the
    /// folder indexes it later.
    ///
    /// # Errors
    /// [`DurableError::Invalid`] with the same [`BuildError`] variants an
    /// unsharded insert rejects (ids are global);
    /// [`DurableError::Persist`] when a durable shard's journal write
    /// fails, and for every insert after that until [`Self::checkpoint`]
    /// rotates the failed journal; [`DurableError::Backpressure`] when the
    /// memtable tail is at its high-watermark — nothing is journaled or
    /// acked in any case.
    pub fn insert(&self, p: Point) -> Result<usize, DurableError> {
        let mut w = self.lock_writer();
        let g = w.next_global;
        let shard = {
            // The state changes only under the writer lock, so this load
            // is current; it is dropped before the push, which then
            // changes the state in place unless a reader holds it.
            let state = self.state.load();
            validate_point(&p, g, self.dim, state[0].index.space())
                .map_err(DurableError::Invalid)?;
            for s in state.iter() {
                // An indexed duplicate tombstoned in the tail is dead.
                let dup = s
                    .index
                    .find_live_duplicate(&p, &mut w.probe)
                    .filter(|&local| !s.tail.is_removed(local))
                    .map(|local| s.ids[local])
                    .or_else(|| s.tail.find_live_duplicate(&p));
                if let Some(of) = dup {
                    return Err(DurableError::Invalid(BuildError::DuplicatePoint {
                        id: g,
                        of,
                    }));
                }
            }
            route(&state, p.as_slice())
        };
        self.tail.admit(self.fold_metrics())?;
        // A failed append may leave its record, id `g` included, in that
        // shard's journal, where a restart replays it. Until a checkpoint
        // rotates the record out, `g` must not be acked in another shard,
        // so every insert waits for every shard's log.
        for log in &w.logs {
            log.check_writable()?;
        }
        let rec = WalRecord::InsertAt {
            id: g as u64,
            point: p,
        };
        self.push(&mut w, shard, rec)?;
        w.slots[shard] += 1;
        w.next_global += 1;
        Ok(g)
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
        let (shard, local, live) = {
            let state = self.state.load();
            let Some((shard, local)) = locate_in(&state, global) else {
                return Ok(false);
            };
            let s = &state[shard];
            let live = (s.index.is_live(local) && !s.tail.is_removed(local))
                || s.tail.has_live_insert(local);
            (shard, local, live)
        };
        if !live {
            return Ok(false);
        }
        self.tail.admit(self.fold_metrics())?;
        self.push(&mut w, shard, WalRecord::Remove(local as u64))?;
        Ok(true)
    }

    /// Journals `rec` to `shard`'s log (durable mode; a failure leaves
    /// the tail untouched), lands that same record in the shard's
    /// memtable and publishes the shard's new tail view. No reader
    /// holding the state: the view changes in place; otherwise the
    /// shard's tail is copied once.
    fn push(&self, w: &mut Writer, shard: usize, rec: WalRecord) -> Result<(), DurableError> {
        if let Some(log) = w.logs.get_mut(shard) {
            // Journal-first: the fsync happens here, before the ack.
            log.journal(&rec)?;
        }
        let (slot, rule) = (w.slots[shard], self.rule(shard));
        self.state
            .update(|state| Arc::make_mut(&mut state[shard].tail).apply(&rec, slot, rule));
        w.tails[shard].records.push(rec);
        self.tail.add_depth(1, self.fold_metrics());
        Ok(())
    }

    /// The global-id rule an older release's records of `shard` follow.
    fn rule(&self, shard: usize) -> RoundRobin {
        RoundRobin {
            shard,
            shards: self.shards,
        }
    }

    // ------------------------------------------------------------------
    // folding (memtable → shard indexes, off the write path)
    // ------------------------------------------------------------------

    /// Folds every shard's frozen-plus-active tail into its index (one
    /// point-tree insert or delete per record) and publishes the
    /// results. Returns the number of records folded (0 with empty
    /// tails). The tree updates run with no lock held; only the freeze
    /// and publish steps take the writer lock.
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
    /// index (the fold's only copy) and its id column, re-apply the batch
    /// in ack order off-lock, through the function WAL replay applies a
    /// record with (under `catch_unwind` — a panicking fold,
    /// injected or organic, keeps the batch for retry and never corrupts
    /// the index), then publish the result and the tail view left after
    /// it in one update under the writer lock. Folding performs **zero**
    /// syscalls: the WAL already holds every record, so crash recovery
    /// never depends on fold progress and a fold can never double-apply
    /// into durable state. Callers hold the fold lock.
    fn fold_shard(&self, shard: usize) -> Result<usize, FoldError> {
        let (ts, rule) = (&self.tail, self.rule(shard));
        let (batch, slots) = {
            let mut w = self.lock_writer();
            (w.tails[shard].freeze(), w.slots[shard])
        };
        if batch.is_empty() {
            return Ok(0);
        }
        // Root span on the folder thread (head-sampled like any other
        // root); manual folds under a traced request nest as children.
        let mut span = nncell_obs::trace::root("fold.shard");
        span.arg("shard", shard as u64);
        span.arg("records", batch.len() as u64);
        let start = Instant::now();
        // A shard's index only changes under fold_lock, which we hold, so
        // the clone below is of the index the frozen batch was acked
        // against. Cloning off the writer lock keeps writes flowing during
        // the expensive apply.
        let base = self.state.load()[shard].clone();
        let chaos = ts.cfg.fault_fold_panic.clone();
        let folded = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            assert!(
                !chaos.as_ref().is_some_and(|f| f.load(Ordering::Acquire)),
                "injected fold fault"
            );
            let mut idx = (*base.index).clone();
            let mut ids = Vec::with_capacity(base.ids.len() + batch.len());
            ids.extend_from_slice(&base.ids);
            for rec in &batch {
                // The ack validated each record against exactly the state
                // it is re-applied to here, in ack order, so no second
                // duplicate probe runs.
                apply_record(&mut idx, &mut ids, rec, rule);
            }
            // Each insert was acked in the shard's next slot. A slot count
            // that differs is a logic bug; a caught panic degrades service
            // instead of corrupting the index.
            assert_eq!(
                idx.slots(),
                slots,
                "fold slots diverged from ack-time slots"
            );
            (idx, ids)
        }));
        let (folded, ids) = match folded {
            Ok(done) => done,
            Err(_) => {
                ts.record_failure(self.fold_metrics());
                return Err(FoldError::Panicked { shard });
            }
        };
        let records = batch.len();
        {
            // Publish the folded index and the tail view without the batch
            // in one update: neither a reader nor the writer ever sees the
            // batch in both, or in neither.
            let mut w = self.lock_writer();
            let tail = Arc::new(w.tails[shard].clear_frozen(folded.slots(), rule));
            if let Some(m) = self.metrics.get() {
                m.live_points[shard].set(folded.len() as i64);
            }
            let (index, ids) = (Arc::new(folded), Arc::new(ids));
            self.state
                .update(|state| state[shard] = Shard { index, ids, tail });
            ts.sub_depth(records, self.fold_metrics());
        }
        ts.record_success(records, start.elapsed(), self.fold_metrics());
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

    /// Saves every shard index plus a manifest into `dir`
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
        // The indexes trail the acked state by the tail; fold everything
        // in first so the saved files hold every ack. Fold lock before
        // writer lock (the global order); the tail-empty check happens
        // *under* the writer lock, so no write can sneak in between the
        // final fold and the save.
        let _fold = lock_fold(&self.tail.fold_lock);
        let _w = loop {
            let w = self.lock_writer();
            // Authoritative emptiness check under the writer lock (reads
            // the tails themselves, not the depth counter).
            if w.tails.iter().all(|m| m.records.is_empty()) {
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
        for (i, shard) in self.state.load().iter().enumerate() {
            shard
                .index
                .save_shard(&shard.ids, vfs, &dir.join(format!("shard-{i}.nncell")))?;
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
        let loaded = (0..shards)
            .map(|shard| {
                let path = dir.join(format!("shard-{shard}.nncell"));
                NnCellIndex::load_shard(vfs, &path, RoundRobin { shard, shards })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Self::from_shards(loaded, Vec::new())
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
            let one = NnCellIndex::load_shard(vfs.as_ref(), path, RoundRobin::ONE)?;
            return Self::from_shards(vec![one], Vec::new());
        }
        let text = manifest_text(vfs.read(&current)?)?;
        let dirs: Vec<PathBuf> = match parse_manifest(&text, DURABLE_MAGIC) {
            Some(shards) => (0..shards).map(|i| shard_dir(path, i)).collect(),
            None => vec![path.to_path_buf()],
        };
        let shards = dirs.len();
        let (logs, loaded) = dirs
            .iter()
            .enumerate()
            .map(|(shard, d)| {
                let (log, index, ids) =
                    ShardLog::open(Arc::clone(&vfs), d, RoundRobin { shard, shards })?;
                Ok((log, (index, ids)))
            })
            .collect::<Result<Vec<_>, PersistError>>()?
            .into_iter()
            .unzip();
        Self::from_shards(loaded, logs)
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
        let (logs, loaded) = (0..shards)
            .map(|shard| {
                let rule = RoundRobin { shard, shards };
                let d = shard_dir(dir, shard);
                let (log, index, ids) =
                    ShardLog::open_or_create(Arc::clone(&vfs), &d, dim, cfg.clone(), rule)?;
                Ok((log, (index, ids)))
            })
            .collect::<Result<Vec<_>, PersistError>>()?
            .into_iter()
            .unzip();
        Self::from_shards(loaded, logs)
    }

    /// Converts an in-memory sharded index into a crash-consistent one:
    /// the tail is folded in, then each shard's published index is
    /// written as the generation-0 snapshot of its own durable directory
    /// (`dir/shard-<i>/`) and the top-level `CURRENT` records the shard
    /// count. The published indexes stay as they are, and build stats,
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
            .state
            .load()
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                ShardLog::create(
                    Arc::clone(&vfs),
                    &shard_dir(dir, i),
                    &shard.index,
                    &shard.ids,
                )
            })
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
    /// *disk snapshot + disk WAL ≡ published index + tail*: a checkpoint taken
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
        let Writer { logs, tails, .. } = &mut *w;
        let state = self.state.load();
        for ((log, tail), shard) in logs.iter_mut().zip(tails.iter()).zip(state.iter()) {
            log.checkpoint_with_tail(&shard.index, &shard.ids, &tail.records)?;
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
    shards: &[(NnCellIndex<Euclidean>, Vec<usize>)],
) -> Result<(usize, BuildConfig), PersistError> {
    let (first, _) = shards
        .first()
        .ok_or_else(|| PersistError::Corrupt("sharded manifest names zero shards".into()))?;
    let dim = first.dim();
    for (i, (idx, _)) in shards.iter().enumerate().skip(1) {
        if idx.dim() != dim {
            return Err(PersistError::Corrupt(format!(
                "shard {i} is {}-dimensional, shard 0 is {dim}-dimensional",
                idx.dim()
            )));
        }
    }
    Ok((dim, first.config().clone()))
}

/// The shards' slots must carry the global ids `0..n` once each,
/// ascending within a shard (the order `locate` searches and slots are
/// assigned in); returns `n`, the next id to assign.
fn check_ids(shards: &[(NnCellIndex<Euclidean>, Vec<usize>)]) -> Result<usize, PersistError> {
    let n: usize = shards.iter().map(|(_, ids)| ids.len()).sum();
    let mut seen = vec![false; n];
    for (i, (_, ids)) in shards.iter().enumerate() {
        for (l, &g) in ids.iter().enumerate() {
            let ascending = l == 0 || ids[l - 1] < g;
            if !ascending || g >= n || std::mem::replace(&mut seen[g], true) {
                return Err(PersistError::Corrupt(format!(
                    "shard {i} slot {l} holds global id {g}: the {n} slots of all shards must \
                     carry the ids 0..{n} once each, ascending within a shard"
                )));
            }
        }
    }
    Ok(n)
}

/// Live points of one shard: its index's, plus its tail's live inserts,
/// minus the indexed points its tail tombstones.
fn live_points(s: &Shard) -> usize {
    let dead = s.tail.removed.iter().filter(|&&l| s.index.is_live(l));
    s.index.len() + s.tail.inserts.len() - dead.count()
}

/// `(shard, local slot)` of global id `global` in a published state: a
/// binary search of each shard's id column, then of its tail's live
/// inserts (both ascend by global id).
fn locate_in(state: &[Shard], global: usize) -> Option<(usize, usize)> {
    state.iter().enumerate().find_map(|(i, s)| {
        let local = s.ids.binary_search(&global).ok();
        Some((i, local.or_else(|| s.tail.slot_of(global))?))
    })
}

/// The shard an insert of `p` goes to: the one whose published point tree
/// has the root entry nearest to `p` by MINDIST (0 when `p` lies inside
/// one, ∞ for an empty tree), ties to the fewest live points, then the
/// lowest index. It reads the published trees only, allocates nothing and
/// never affects an answer: the forest traversal prunes every shard by
/// the same global bound.
fn route(state: &[Shard], p: &[f64]) -> usize {
    if state.len() == 1 {
        return 0;
    }
    let dist = |s: &Shard| s.index.point_tree().root_min_dist_sq(p);
    let mut best = (0, dist(&state[0]));
    for (i, s) in state.iter().enumerate().skip(1) {
        let d = dist(s);
        if d < best.1 || (d == best.1 && live_points(s) < live_points(&state[best.0])) {
            best = (i, d);
        }
    }
    best.0
}

/// Deals the validated rows (row `g` is global id `g`) to `shards` shards
/// by a kd split: S − 1 recursive median planes, each on the widest
/// dimension of the rows it splits. Returns each shard's rows and their
/// global ids, ascending.
fn kd_split(rows: &[f64], dim: usize, shards: usize) -> Vec<(Vec<f64>, Vec<usize>)> {
    let n = rows.len() / dim;
    let mut order: Vec<usize> = (0..n).collect();
    let mut owner = vec![0usize; n];
    split(rows, dim, &mut order, 0, shards, &mut owner);
    let mut parts: Vec<(Vec<f64>, Vec<usize>)> = (0..shards)
        .map(|_| {
            (
                Vec::with_capacity((n / shards + 1) * dim),
                Vec::with_capacity(n / shards + 1),
            )
        })
        .collect();
    for (g, row) in rows.chunks_exact(dim).enumerate() {
        let (part, ids) = &mut parts[owner[g]];
        part.extend_from_slice(row);
        ids.push(g);
    }
    parts
}

/// Assigns the rows `ids` to the `shards` shards numbered from `first`:
/// the plane at rank `len · ⌊S/2⌋ / S` on the widest dimension sends the
/// lower rows (by coordinate, ties by global id) to the first `⌊S/2⌋`
/// shards and the rest to the others. A selection, not a sort: O(n·d)
/// per level.
fn split(
    rows: &[f64],
    dim: usize,
    ids: &mut [usize],
    first: usize,
    shards: usize,
    owner: &mut [usize],
) {
    if shards == 1 {
        for &g in ids.iter() {
            owner[g] = first;
        }
        return;
    }
    let left = shards / 2;
    let at = ids.len() * left / shards;
    if at > 0 {
        let axis = widest_axis(rows, dim, ids);
        let key = |g: usize| rows[g * dim + axis];
        ids.select_nth_unstable_by(at, |&a, &b| key(a).total_cmp(&key(b)).then(a.cmp(&b)));
    }
    let (lo, hi) = ids.split_at_mut(at);
    split(rows, dim, lo, first, left, owner);
    split(rows, dim, hi, first + left, shards - left, owner);
}

/// The dimension along which the rows `ids` spread widest (the lowest
/// such dimension on a tie).
fn widest_axis(rows: &[f64], dim: usize, ids: &[usize]) -> usize {
    let mut lo = vec![f64::INFINITY; dim];
    let mut hi = vec![f64::NEG_INFINITY; dim];
    for &g in ids {
        for (j, &c) in rows[g * dim..(g + 1) * dim].iter().enumerate() {
            lo[j] = lo[j].min(c);
            hi[j] = hi[j].max(c);
        }
    }
    let mut best = 0;
    for j in 1..dim {
        if hi[j] - lo[j] > hi[best] - lo[best] {
            best = j;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{FaultSchedule, FaultVfs};
    use crate::wal::WAL_MAGIC;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// A checkpoint re-journals the memtable's records as the acks wrote
    /// them. After a fold, a failed fold and more acks, the fresh WAL
    /// after its magic is byte for byte the frames the acks of the
    /// unfolded records appended, which end the old WAL.
    #[test]
    fn a_checkpoint_rejournals_the_unfolded_acks_byte_for_byte() {
        let vfs: Arc<dyn Vfs> = Arc::new(FaultVfs::new(FaultSchedule::none(1)));
        let dir = Path::new("/db");
        let fault = Arc::new(AtomicBool::new(false));
        let idx = ShardedIndex::open_durable_with_vfs(
            Arc::clone(&vfs),
            dir,
            2,
            1,
            BuildConfig::default(),
        )
        .unwrap()
        .with_memtable(FoldConfig {
            fault_fold_panic: Some(Arc::clone(&fault)),
            ..FoldConfig::default()
        });
        let pt = |i: usize| Point::new(vec![(i as f64 + 0.5) / 32.0, 1.0 - i as f64 / 64.0]);
        for i in 0..10 {
            idx.insert(pt(i)).unwrap();
        }
        assert!(idx.remove(3).unwrap());
        assert_eq!(idx.fold_once().unwrap(), 11);
        let old_wal = dir.join("shard-0/wal.0.log");
        let folded = vfs.read(&old_wal).unwrap().len();

        // A batch a failed fold froze, then records acked after it.
        for i in 10..14 {
            idx.insert(pt(i)).unwrap();
        }
        assert!(idx.remove(5).unwrap(), "a folded point");
        assert!(idx.remove(11).unwrap(), "a tail insert");
        fault.store(true, Ordering::Release);
        assert!(idx.fold_once().is_err());
        fault.store(false, Ordering::Release);
        idx.insert(pt(14)).unwrap();
        assert!(idx.remove(0).unwrap());
        let old = vfs.read(&old_wal).unwrap();

        idx.checkpoint().unwrap();
        let new = vfs.read(&dir.join("shard-0/wal.1.log")).unwrap();
        assert_eq!(&new[..WAL_MAGIC.len()], WAL_MAGIC);
        assert_eq!(new[WAL_MAGIC.len()..], old[folded..]);
        assert_eq!(idx.wal_records(), 8);
    }

    /// Inserts into a built index keep its kd regions: a point goes to the
    /// shard whose rows' bounding box holds it. Dealing inserts by live
    /// count would send three in four of them elsewhere at S = 4.
    #[test]
    fn inserts_route_to_the_shard_whose_region_holds_them() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut pt = move || Point::new(vec![rng.gen::<f64>(), rng.gen::<f64>()]);
        let idx = ShardedIndex::build((0..2000).map(|_| pt()).collect(), 4, BuildConfig::default())
            .unwrap();
        let boxes: Vec<Vec<(f64, f64)>> = (0..4)
            .map(|i| {
                let h = idx.shard(i);
                (0..2)
                    .map(|j| {
                        (0..h.slots())
                            .filter_map(|l| h.row(l))
                            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), r| {
                                (lo.min(r[j]), hi.max(r[j]))
                            })
                    })
                    .collect()
            })
            .collect();
        let (mut held, mut kept) = (0, 0);
        for i in 0..600 {
            let p = pt();
            let holders: Vec<usize> = (0..4)
                .filter(|&s| {
                    (boxes[s].iter().zip(p.as_slice())).all(|(&(lo, hi), &x)| lo <= x && x <= hi)
                })
                .collect();
            let g = idx.insert(p).unwrap();
            if let [only] = holders[..] {
                held += 1;
                kept += usize::from(idx.locate(g).unwrap().0 == only);
            }
            if i % 100 == 99 {
                idx.flush().unwrap();
            }
        }
        assert!(held > 500, "{held} of 600 points lie in exactly one region");
        assert!(
            kept * 100 >= held * 95,
            "{kept} of {held} points kept their region"
        );
    }
}
