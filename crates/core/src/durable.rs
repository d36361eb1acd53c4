//! Crash-consistent persistence of one shard: WAL + atomic snapshot
//! rotation.
//!
//! A shard log lives in a directory, which is at every instant fully
//! described by three kinds of file:
//!
//! ```text
//! dir/CURRENT            — ASCII generation number G; the commit pointer
//! dir/snapshot.G.nncell  — checksummed NNCELL03 snapshot of generation G
//! dir/wal.G.log          — WAL of updates acknowledged on top of snapshot G
//! ```
//!
//! The log holds no index. [`crate::ShardedIndex`] owns each shard's
//! index and its id column (the global id of every slot) as its published
//! snapshot and hands both to the log whenever a generation is written.
//!
//! **Update protocol** ([`crate::ShardedIndex::insert`] / `remove`):
//! validate → journal the record to `wal.G.log` and fsync → push it onto
//! the shard's memtable tail → acknowledge. The folder applies the tail to
//! the published snapshot later and touches no file. An acknowledged
//! update is therefore always durable; an unacknowledged one may or may
//! not survive a crash (both outcomes are consistent).
//!
//! **Checkpoint protocol** ([`crate::ShardedIndex::checkpoint`]): write
//! `snapshot.G+1` of the published snapshot (tmp + fsync + rename + dir
//! sync), create `wal.G+1` holding the unfolded tail (fsynced, dir
//! synced), then *commit* by atomically rewriting `CURRENT` to `G+1`, and
//! finally delete the generation-`G` files. The `CURRENT` rename is the
//! single commit point: a crash strictly before it recovers generation `G`
//! (whose snapshot and WAL are untouched — nothing is deleted until after
//! the commit), a crash after it recovers `G+1`. There is no interleaving
//! in which a removed point can be resurrected or an acknowledged update
//! lost — the crash-recovery property test in `tests/crash_recovery.rs`
//! kills the process at every syscall of a randomized workload and checks
//! exactly that, plus exactness of every query against a linear scan over
//! the recovered point set.
//!
//! **Recovery** ([`crate::ShardedIndex::open`] /
//! [`crate::ShardedIndex::open_durable`]): read `CURRENT`, load the
//! snapshot it names, replay the WAL prefix (a torn or corrupt tail is
//! dropped — it can only hold unacknowledged bytes), and, if the tail was
//! dirty, immediately rotate to a fresh generation so new appends never
//! land after damaged bytes. Stale files from older generations or
//! interrupted checkpoints are swept up.

use crate::config::BuildConfig;
use crate::index::{BuildError, NnCellIndex};
use crate::persist::{PersistError, RoundRobin};
use crate::vfs::{write_atomic, Vfs};
use crate::wal::{read_wal, WalRecord, WalTail, WalWriter};
use nncell_geom::Euclidean;
use nncell_index::BestFirstScratch;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Failures of durable updates: either the update itself is invalid, or
/// the journal could not be made durable.
#[derive(Debug)]
pub enum DurableError {
    /// The point failed the validation [`NnCellIndex::validate_insert`]
    /// applies; nothing was journaled and nothing changed.
    Invalid(BuildError),
    /// Journaling failed (I/O or a poisoned WAL); nothing reached the
    /// memtable tail — the update is not acknowledged.
    Persist(PersistError),
    /// The memtable tail is at its high-watermark (the background folder
    /// is behind or degraded). Nothing was journaled; the write is safe to
    /// retry after a backoff. The serving layer maps it to HTTP 429 +
    /// `Retry-After`.
    Backpressure {
        /// Unfolded tail operations at rejection time.
        tail: usize,
        /// The configured high-watermark ([`crate::FoldConfig::tail_max`]).
        max: usize,
    },
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Invalid(e) => write!(f, "invalid update: {e}"),
            DurableError::Persist(e) => write!(f, "journaling failed: {e}"),
            DurableError::Backpressure { tail, max } => write!(
                f,
                "write backpressure: memtable tail at {tail}/{max} unfolded operations; \
                 retry after a backoff"
            ),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<BuildError> for DurableError {
    fn from(e: BuildError) -> Self {
        DurableError::Invalid(e)
    }
}

impl From<PersistError> for DurableError {
    fn from(e: PersistError) -> Self {
        DurableError::Persist(e)
    }
}

/// What recovery found when the directory was opened.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// Generation the shard recovered *from* (what `CURRENT` named).
    pub generation: u64,
    /// WAL records replayed successfully.
    pub replayed: usize,
    /// Records whose replay was a no-op (e.g. a remove of an id that a
    /// deterministically failing insert never produced). Always 0 for WALs
    /// written by this crate.
    pub skipped: usize,
    /// Condition of the WAL tail.
    pub wal_tail: WalTail,
    /// Whether recovery rotated to a fresh generation because the tail was
    /// dirty (new appends must never follow damaged bytes).
    pub rotated: bool,
    /// Whether the directory was empty and a fresh generation 0 was
    /// initialized.
    pub initialized: bool,
}

/// The persistence of one durable shard: its directory, the active WAL
/// and generation, and what recovery found. See the module docs for the
/// protocol.
pub(crate) struct ShardLog {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    wal: WalWriter,
    generation: u64,
    recovery: RecoveryReport,
    metrics: Option<DurableMetrics>,
}

/// Registry handles kept by the durability layer itself. The WAL handles
/// are retained so every rotation's fresh [`WalWriter`] can be re-bound.
struct DurableMetrics {
    wal: crate::wal::WalMetrics,
    /// `nncell_snapshot_rotations_total` — checkpoints plus the dirty-tail
    /// rotation recovery may perform at open.
    snapshot_rotations: Arc<nncell_obs::Counter>,
}

fn current_path(dir: &Path) -> PathBuf {
    dir.join("CURRENT")
}

fn snapshot_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("snapshot.{generation}.nncell"))
}

fn wal_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("wal.{generation}.log"))
}

/// The generation a file name belongs to, if it is a generation file.
fn file_generation(name: &str) -> Option<u64> {
    if let Some(rest) = name.strip_prefix("snapshot.") {
        return rest.strip_suffix(".nncell")?.parse().ok();
    }
    if let Some(rest) = name.strip_prefix("wal.") {
        return rest.strip_suffix(".log")?.parse().ok();
    }
    None
}

/// Writes the complete on-disk state of `generation` (`index` and its id
/// column `ids`) and commits it by atomically rewriting `CURRENT`.
/// Returns the open WAL writer. `tail` holds journaled records not yet in
/// `index`; they are re-journaled (one
/// batched fsync) into the fresh WAL *before* the `CURRENT` flip, so
/// replay of the committed generation reconstructs index + tail. The
/// `CURRENT` rewrite is the commit point; a crash anywhere earlier leaves
/// the previous generation fully intact.
fn commit_generation(
    vfs: &Arc<dyn Vfs>,
    dir: &Path,
    index: &NnCellIndex<Euclidean>,
    ids: &[usize],
    generation: u64,
    tail: &[WalRecord],
) -> Result<WalWriter, PersistError> {
    index.save_shard(ids, vfs.as_ref(), &snapshot_path(dir, generation))?;
    let mut wal = WalWriter::create(vfs.as_ref(), &wal_path(dir, generation))?;
    wal.append_batch(tail)?;
    vfs.sync_dir(dir)?;
    write_atomic(
        vfs.as_ref(),
        &current_path(dir),
        format!("{generation}\n").as_bytes(),
    )?;
    Ok(wal)
}

/// Best-effort sweep of files no generation references: older snapshots
/// and WALs, and `.tmp` leftovers of interrupted atomic writes. Failures
/// are ignored — stale files are harmless and retried next open.
fn sweep_stale(vfs: &Arc<dyn Vfs>, dir: &Path, keep: u64) {
    let Ok(entries) = vfs.list_dir(dir) else {
        return;
    };
    for path in entries {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let stale = name.ends_with(".tmp") || file_generation(name).is_some_and(|g| g != keep);
        if stale {
            let _ = vfs.remove_file(&path);
        }
    }
}

/// Applies one journaled record to a shard's `index` and id column `ids`,
/// for WAL replay and the fold alike; returns whether it changed
/// anything. An insert takes the next slot, and an older release's
/// `Insert` the global id `rule` gives, without a duplicate probe: the
/// ack or the replay validated it.
pub(crate) fn apply_record(
    index: &mut NnCellIndex<Euclidean>,
    ids: &mut Vec<usize>,
    rec: &WalRecord,
    rule: RoundRobin,
) -> bool {
    let (point, global) = match rec {
        WalRecord::Insert(p) => (p, None),
        WalRecord::InsertAt { id, point } => (point, Some(*id as usize)),
        WalRecord::Remove(local) => return index.remove(*local as usize),
    };
    let slot = index.insert_validated(point.as_slice());
    ids.push(global.unwrap_or_else(|| rule.global(slot)));
    true
}

impl ShardLog {
    /// Opens the shard directory `dir`, or initializes it with an empty
    /// index of dimensionality `dim` configured by `cfg` when it holds no
    /// committed generation. Returns the log, the recovered index and its
    /// id column (see [`Self::open`] for `rule`); an existing directory
    /// must be `dim`-dimensional.
    ///
    /// # Errors
    /// I/O failures, a corrupt snapshot or `CURRENT`, or a dimensionality
    /// mismatch between `dim` and an existing directory.
    pub(crate) fn open_or_create(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        dim: usize,
        cfg: BuildConfig,
        rule: RoundRobin,
    ) -> Result<(Self, NnCellIndex<Euclidean>, Vec<usize>), PersistError> {
        vfs.create_dir_all(dir)?;
        if !vfs.exists(&current_path(dir)) {
            let index = NnCellIndex::new(dim, cfg);
            return Ok((Self::create(vfs, dir, &index, &[])?, index, Vec::new()));
        }
        let (log, index, ids) = Self::open(vfs, dir, rule)?;
        if index.dim() != dim {
            return Err(PersistError::Corrupt(format!(
                "durable shard at {dir:?} is {}-dimensional, caller expected {dim}",
                index.dim()
            )));
        }
        Ok((log, index, ids))
    }

    /// Initializes `dir` with `index` and its id column `ids` as the
    /// generation-0 snapshot (empty WAL). Fails if the directory already
    /// holds a committed generation.
    ///
    /// # Errors
    /// I/O failures, or an already-initialized directory.
    pub(crate) fn create(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        index: &NnCellIndex<Euclidean>,
        ids: &[usize],
    ) -> Result<Self, PersistError> {
        vfs.create_dir_all(dir)?;
        if vfs.exists(&current_path(dir)) {
            return Err(PersistError::Corrupt(format!(
                "directory {dir:?} already holds a durable index"
            )));
        }
        let generation = 0;
        let wal = commit_generation(&vfs, dir, index, ids, generation, &[])?;
        sweep_stale(&vfs, dir, generation);
        Ok(ShardLog {
            vfs,
            dir: dir.to_path_buf(),
            wal,
            generation,
            recovery: RecoveryReport {
                generation,
                replayed: 0,
                skipped: 0,
                wal_tail: WalTail::Clean,
                rotated: false,
                initialized: true,
            },
            metrics: None,
        })
    }

    /// Recovers an existing shard directory (the committed generation is
    /// the sole authority on dimensionality and configuration): loads the
    /// snapshot `CURRENT` names and replays its WAL into it. Returns the
    /// log, the recovered index and its id column. A snapshot without an
    /// id column and an `Insert` record without an id (both written by
    /// older releases) take their global ids from `rule`.
    ///
    /// # Errors
    /// I/O failures, no committed generation, or a corrupt snapshot.
    pub(crate) fn open(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        rule: RoundRobin,
    ) -> Result<(Self, NnCellIndex<Euclidean>, Vec<usize>), PersistError> {
        let bytes = vfs.read(&current_path(dir))?;
        let text = std::str::from_utf8(&bytes)
            .map_err(|_| PersistError::Corrupt("CURRENT is not UTF-8".into()))?;
        let generation: u64 = text.trim().parse().map_err(|_| {
            PersistError::Corrupt(format!("CURRENT holds {text:?}, not a generation"))
        })?;

        let (mut index, mut ids) =
            NnCellIndex::load_shard(vfs.as_ref(), &snapshot_path(dir, generation), rule)?;
        let replay = read_wal(vfs.as_ref(), &wal_path(dir, generation))?;
        let records = replay.records.len();
        let (mut replayed, mut skipped) = (0usize, 0usize);
        let mut probe = BestFirstScratch::new();
        for rec in replay.records {
            // The WAL is input from outside the program: an insert is
            // checked like any other insert before it is applied.
            let valid = match &rec {
                WalRecord::Insert(p) | WalRecord::InsertAt { point: p, .. } => {
                    index.validate_insert_with(p, &mut probe).is_ok()
                }
                WalRecord::Remove(_) => true,
            };
            if valid && apply_record(&mut index, &mut ids, &rec, rule) {
                replayed += 1;
            } else {
                // Deterministic no-op: replay reproduces exactly what the
                // original (failed) application did, keeping states equal.
                skipped += 1;
            }
        }

        let (wal, active_generation, rotated) = if replay.tail == WalTail::Clean {
            let wal =
                WalWriter::open_append(vfs.as_ref(), &wal_path(dir, generation), records as u64)?;
            (wal, generation, false)
        } else {
            // Damaged tail: never append after it. Rotate to a fresh
            // generation built from the recovered in-memory state.
            let next = generation + 1;
            let wal = commit_generation(&vfs, dir, &index, &ids, next, &[])?;
            (wal, next, true)
        };
        sweep_stale(&vfs, dir, active_generation);
        let log = ShardLog {
            vfs,
            dir: dir.to_path_buf(),
            wal,
            generation: active_generation,
            recovery: RecoveryReport {
                generation,
                replayed,
                skipped,
                wal_tail: replay.tail,
                rotated,
                initialized: false,
            },
            metrics: None,
        };
        Ok((log, index, ids))
    }

    /// Attaches a metrics registry: WAL append/fsync counters, replay
    /// counters seeded from this log's [`RecoveryReport`], and a
    /// snapshot-rotation counter. The series are unlabeled — shards of one
    /// sharded index share them as whole-index totals. Idempotent.
    pub(crate) fn attach_metrics(&mut self, registry: &nncell_obs::Registry) {
        if self.metrics.is_some() {
            return;
        }
        let wal_metrics = crate::wal::WalMetrics::register(registry);
        self.wal.set_metrics(wal_metrics.clone());
        // Recovery already happened; publish what it found.
        registry
            .counter("nncell_wal_replayed_total")
            .add(self.recovery.replayed as u64);
        let dropped =
            self.recovery.skipped as u64 + u64::from(self.recovery.wal_tail != WalTail::Clean);
        registry
            .counter("nncell_wal_replay_dropped_total")
            .add(dropped);
        let snapshot_rotations = registry.counter("nncell_snapshot_rotations_total");
        snapshot_rotations.add(u64::from(self.recovery.rotated));
        self.metrics = Some(DurableMetrics {
            wal: wal_metrics,
            snapshot_rotations,
        });
    }

    /// What recovery found when this log was opened.
    pub(crate) fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Records sitting in the active WAL (replayed + appended since the
    /// last checkpoint) — the replay debt a crash right now would incur.
    pub(crate) fn wal_records(&self) -> u64 {
        self.wal.records()
    }

    /// Journals one record durably (WAL append + fsync). The caller acks
    /// only after this returns and keeps the journaled suffix and its
    /// memtable tail in lockstep.
    ///
    /// # Errors
    /// Journal I/O failures; nothing is acknowledged.
    pub(crate) fn journal(&mut self, rec: &WalRecord) -> Result<(), PersistError> {
        self.wal.append(rec)
    }

    /// `Ok` while this log accepts appends; the poisoned-writer error once
    /// an append failed and until a checkpoint rotates the log.
    pub(crate) fn check_writable(&self) -> Result<(), PersistError> {
        self.wal.check_writable()
    }

    /// Rotates to a fresh generation: `index` and its id column `ids`
    /// become its snapshot, `tail` (the journaled records not yet folded
    /// into `index`) is re-journaled
    /// into its WAL before the commit flip, and the old files are swept.
    /// Replay debt after the rotation is exactly `tail.len()` records;
    /// also the only way out of a poisoned WAL.
    ///
    /// # Errors
    /// I/O failures. On error the previous generation remains committed
    /// and intact; the log stays usable (the checkpoint can be retried).
    pub(crate) fn checkpoint_with_tail(
        &mut self,
        index: &NnCellIndex<Euclidean>,
        ids: &[usize],
        tail: &[WalRecord],
    ) -> Result<(), PersistError> {
        let next = self.generation + 1;
        self.wal = commit_generation(&self.vfs, &self.dir, index, ids, next, tail)?;
        if let Some(m) = &self.metrics {
            self.wal.set_metrics(m.wal.clone());
            m.snapshot_rotations.inc();
        }
        self.generation = next;
        sweep_stale(&self.vfs, &self.dir, next);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Strategy;
    use crate::scan::linear_scan_nn;
    use crate::vfs::{FaultSchedule, FaultVfs, StdVfs};
    use nncell_geom::Point;

    /// Every shard directory here is a lone shard: slot `l` is global `l`.
    const ONE: RoundRobin = RoundRobin::ONE;

    fn cfg() -> BuildConfig {
        BuildConfig::builder()
            .strategy(Strategy::Sphere)
            .seed(3)
            .build()
    }

    fn grid_point(i: usize) -> Point {
        // Distinct points on a 100×100 lattice, away from the boundary.
        Point::new(vec![
            (i % 97) as f64 / 100.0 + 0.005,
            (i / 97 % 97) as f64 / 100.0 + 0.005,
        ])
    }

    fn mem_vfs() -> (Arc<dyn Vfs>, PathBuf) {
        let fault = FaultVfs::new(FaultSchedule::none(11));
        (Arc::new(fault), PathBuf::from("/db"))
    }

    /// The insert of grid point `i` under global id `i`.
    fn ins(i: usize) -> WalRecord {
        WalRecord::InsertAt {
            id: i as u64,
            point: grid_point(i),
        }
    }

    /// Journals `rec` and applies it to `idx` and its id column `ids` — a
    /// write followed by the fold that applies it.
    fn write(
        log: &mut ShardLog,
        idx: &mut NnCellIndex<Euclidean>,
        ids: &mut Vec<usize>,
        rec: WalRecord,
    ) {
        log.journal(&rec).unwrap();
        assert!(apply_record(idx, ids, &rec, ONE));
    }

    /// Queries of the recovered index agree with a scan over its points.
    fn assert_self_consistent(idx: &NnCellIndex<Euclidean>) {
        let live: Vec<Point> = (0..idx.slots())
            .filter_map(|i| idx.row(i))
            .map(Point::new)
            .collect();
        for k in 0..30 {
            let q = vec![(k as f64 * 7.3) % 1.0, (k as f64 * 3.7) % 1.0];
            let got = crate::engine::QueryEngine::sequential(idx)
                .execute(&crate::query::Query::nn(q.clone()))
                .ok()
                .map(|r| r.best);
            match (got, linear_scan_nn(&live, &q)) {
                (Some(got), Some(want)) => {
                    assert!((got.dist - want.dist).abs() < 1e-9, "q={q:?}")
                }
                (None, None) => {}
                (got, want) => panic!("q={q:?}: {got:?} vs {want:?}"),
            }
        }
    }

    #[test]
    fn drop_without_checkpoint_recovers_every_journaled_record() {
        let (vfs, dir) = mem_vfs();
        let (mut log, mut idx, mut ids) =
            ShardLog::open_or_create(Arc::clone(&vfs), &dir, 2, cfg(), ONE).unwrap();
        assert!(log.recovery().initialized);
        for i in 0..20 {
            write(&mut log, &mut idx, &mut ids, ins(i));
        }
        write(&mut log, &mut idx, &mut ids, WalRecord::Remove(3));
        write(&mut log, &mut idx, &mut ids, WalRecord::Remove(11));
        assert_eq!(log.wal_records(), 22);
        drop(log); // crash: no checkpoint

        let (log, idx, ids) =
            ShardLog::open_or_create(Arc::clone(&vfs), &dir, 2, cfg(), ONE).unwrap();
        let rec = log.recovery();
        assert!(!rec.initialized);
        assert_eq!(rec.replayed, 22);
        assert_eq!(rec.skipped, 0);
        assert_eq!(rec.wal_tail, WalTail::Clean);
        assert_eq!(idx.len(), 18);
        assert_eq!(
            ids,
            (0..20).collect::<Vec<_>>(),
            "replay rebuilds the id column"
        );
        assert!(!idx.is_live(3) && !idx.is_live(11));
        assert_self_consistent(&idx);
    }

    #[test]
    fn checkpoint_rotates_generation_and_sweeps_old_files() {
        let (vfs, dir) = mem_vfs();
        let (mut log, mut idx, mut ids) =
            ShardLog::open_or_create(Arc::clone(&vfs), &dir, 2, cfg(), ONE).unwrap();
        for i in 0..10 {
            write(&mut log, &mut idx, &mut ids, ins(i));
        }
        log.checkpoint_with_tail(&idx, &ids, &[]).unwrap();
        assert_eq!(log.generation, 1);
        assert_eq!(log.wal_records(), 0);
        // Generation-0 files were swept; generation-1 files exist.
        assert!(!vfs.exists(&snapshot_path(&dir, 0)));
        assert!(!vfs.exists(&wal_path(&dir, 0)));
        assert!(vfs.exists(&snapshot_path(&dir, 1)));

        write(&mut log, &mut idx, &mut ids, ins(10));
        drop(log);
        let (mut log, idx, ids) = ShardLog::open(Arc::clone(&vfs), &dir, ONE).unwrap();
        assert_eq!(log.recovery().generation, 1);
        assert_eq!(
            log.recovery().replayed,
            1,
            "only post-checkpoint records replay"
        );
        assert_eq!(idx.len(), 11);
        assert_self_consistent(&idx);

        // A checkpoint carrying an unfolded tail re-journals it: the
        // snapshot is the index as given, replay adds the tail.
        let tail = [ins(11), WalRecord::Remove(0)];
        log.checkpoint_with_tail(&idx, &ids, &tail).unwrap();
        assert_eq!(log.generation, 2);
        assert_eq!(log.wal_records(), 2);
        drop(log);
        let (log, idx, _) = ShardLog::open(Arc::clone(&vfs), &dir, ONE).unwrap();
        assert_eq!(log.recovery().generation, 2);
        assert_eq!(log.recovery().replayed, 2);
        assert_eq!(idx.len(), 11);
        assert!(!idx.is_live(0) && idx.is_live(11));
        assert_self_consistent(&idx);
    }

    #[test]
    fn damaged_wal_tail_is_dropped_and_generation_rotated() {
        let (vfs, dir) = mem_vfs();
        let (mut log, mut idx, mut ids) =
            ShardLog::open_or_create(Arc::clone(&vfs), &dir, 2, cfg(), ONE).unwrap();
        for i in 0..6 {
            write(&mut log, &mut idx, &mut ids, ins(i));
        }
        let generation = log.generation;
        drop(log);
        // Stomp garbage after the acknowledged records — a torn in-flight
        // append a crash left behind.
        let wal_file = wal_path(&dir, generation);
        let mut f = vfs.open_append(&wal_file).unwrap();
        f.write_all(&[0xAB, 0xCD, 0xEF]).unwrap();
        f.sync().unwrap();
        drop(f);

        let (log, idx, _) = ShardLog::open(Arc::clone(&vfs), &dir, ONE).unwrap();
        assert_eq!(log.recovery().replayed, 6);
        assert!(matches!(log.recovery().wal_tail, WalTail::Truncated { .. }));
        assert!(log.recovery().rotated);
        assert_eq!(log.generation, generation + 1);
        assert_eq!(idx.len(), 6);
        // The rotated state is clean: reopening replays nothing.
        drop(log);
        let (log, idx, _) = ShardLog::open(Arc::clone(&vfs), &dir, ONE).unwrap();
        assert_eq!(log.recovery().wal_tail, WalTail::Clean);
        assert_eq!(log.recovery().replayed, 0);
        assert_eq!(idx.len(), 6);
    }

    #[test]
    fn create_from_built_index_and_reopen() {
        let (vfs, dir) = mem_vfs();
        let pts: Vec<Point> = (0..25).map(grid_point).collect();
        let built = NnCellIndex::build(pts, cfg()).unwrap();
        let ids: Vec<usize> = (0..25).collect();
        drop(ShardLog::create(Arc::clone(&vfs), &dir, &built, &ids).unwrap());
        // A second create on the same directory must refuse.
        let again = NnCellIndex::build(vec![grid_point(0)], cfg()).unwrap();
        assert!(matches!(
            ShardLog::create(Arc::clone(&vfs), &dir, &again, &[0]),
            Err(PersistError::Corrupt(_))
        ));
        let (_log, idx, _) = ShardLog::open(Arc::clone(&vfs), &dir, ONE).unwrap();
        assert_eq!(idx.len(), 25);
        assert_self_consistent(&idx);
    }

    #[test]
    fn dimension_mismatch_on_open_is_typed() {
        let (vfs, dir) = mem_vfs();
        drop(ShardLog::open_or_create(Arc::clone(&vfs), &dir, 2, cfg(), ONE).unwrap());
        assert!(matches!(
            ShardLog::open_or_create(Arc::clone(&vfs), &dir, 3, cfg(), ONE),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn std_vfs_full_cycle_on_real_files() {
        let dir = std::env::temp_dir().join(format!("nncell_durable_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let vfs: Arc<dyn Vfs> = Arc::new(StdVfs);
        let (mut log, mut idx, mut ids) =
            ShardLog::open_or_create(Arc::clone(&vfs), &dir, 2, cfg(), ONE).unwrap();
        for i in 0..12 {
            write(&mut log, &mut idx, &mut ids, ins(i));
        }
        write(&mut log, &mut idx, &mut ids, WalRecord::Remove(5));
        log.checkpoint_with_tail(&idx, &ids, &[]).unwrap();
        write(&mut log, &mut idx, &mut ids, ins(12));
        drop(log); // crash after one post-checkpoint insert

        let (mut log, idx, ids) =
            ShardLog::open_or_create(Arc::clone(&vfs), &dir, 2, cfg(), ONE).unwrap();
        assert_eq!(idx.len(), 12);
        assert!(!idx.is_live(5));
        assert_eq!(log.recovery().replayed, 1);
        assert_self_consistent(&idx);
        log.checkpoint_with_tail(&idx, &ids, &[]).unwrap();
        drop(log);
        let (log, idx, _) = ShardLog::open(vfs, &dir, ONE).unwrap();
        assert_eq!(
            log.recovery().replayed,
            0,
            "a checkpoint leaves no replay debt"
        );
        assert_eq!(idx.len(), 12);
        std::fs::remove_dir_all(&dir).ok();
    }
}
