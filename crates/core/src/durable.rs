//! Crash-consistent dynamic index: WAL + atomic snapshot rotation.
//!
//! A [`DurableIndex`] lives in a directory and is, at every instant, fully
//! described by three kinds of file:
//!
//! ```text
//! dir/CURRENT            — ASCII generation number G; the commit pointer
//! dir/snapshot.G.nncell  — checksummed NNCELL02 snapshot of generation G
//! dir/wal.G.log          — WAL of updates applied on top of snapshot G
//! ```
//!
//! **Update protocol** (`insert` / `remove`): validate → journal the record
//! to `wal.G.log` and fsync → apply to the in-memory index → acknowledge.
//! An acknowledged update is therefore always durable; an unacknowledged
//! one may or may not survive a crash (both outcomes are consistent).
//!
//! **Checkpoint protocol** ([`DurableIndex::checkpoint`]): write
//! `snapshot.G+1` (tmp + fsync + rename + dir sync), create an empty
//! `wal.G+1` (fsynced, dir synced), then *commit* by atomically rewriting
//! `CURRENT` to `G+1`, and finally delete the generation-`G` files. The
//! `CURRENT` rename is the single commit point: a crash strictly before it
//! recovers generation `G` (whose snapshot and WAL are untouched — nothing
//! is deleted until after the commit), a crash after it recovers `G+1`.
//! There is no interleaving in which a removed point can be resurrected or
//! an acknowledged update lost — the crash-recovery property test in
//! `tests/crash_recovery.rs` kills the process at every syscall of a
//! randomized workload and checks exactly that, plus exactness of
//! every query against a linear scan over the recovered point set.
//!
//! **Recovery** ([`NnCellIndex::open_durable`] / [`DurableIndex::open`]):
//! read `CURRENT`, load the snapshot it names, replay the WAL prefix (a
//! torn or corrupt tail is dropped — it can only hold unacknowledged
//! bytes), and, if the tail was dirty, immediately rotate to a fresh
//! generation so new appends never land after damaged bytes. Stale files
//! from older generations or interrupted checkpoints are swept up.

use crate::config::BuildConfig;
use crate::index::{BuildError, NnCellIndex};
use crate::persist::PersistError;
use crate::vfs::{write_atomic, StdVfs, Vfs};
use crate::wal::{read_wal, WalRecord, WalTail, WalWriter};
use nncell_geom::{Euclidean, Point};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Failures of durable updates: either the update itself is invalid, or
/// the journal could not be made durable.
#[derive(Debug)]
pub enum DurableError {
    /// The point failed [`NnCellIndex::validate_insert`]-style validation;
    /// nothing was journaled and nothing changed.
    Invalid(BuildError),
    /// Journaling failed (I/O or a poisoned WAL); the in-memory index was
    /// **not** mutated — the update is not acknowledged.
    Persist(PersistError),
    /// The memtable tail is at its high-watermark (the background folder
    /// is behind or degraded). Nothing was journaled; the write is safe to
    /// retry after a backoff. Only [`crate::ShardedIndex`] writes, which
    /// all go through the memtable, return this; the serving
    /// layer maps it to HTTP 429 + `Retry-After`.
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
    /// Generation the index recovered *from* (what `CURRENT` named).
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

/// A crash-consistent [`NnCellIndex`]: queries via `Deref`, updates
/// journaled through the WAL, durability advanced by
/// [`Self::checkpoint`]. See the module docs for the protocol.
pub struct DurableIndex {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    index: NnCellIndex<Euclidean>,
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

impl std::ops::Deref for DurableIndex {
    type Target = NnCellIndex<Euclidean>;

    /// Read-only access to the underlying index (queries, stats). Updates
    /// must go through [`Self::insert`] / [`Self::remove`] so they hit the
    /// journal first — which is why there is no `DerefMut`.
    fn deref(&self) -> &Self::Target {
        &self.index
    }
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

/// Writes the complete on-disk state of `generation` (snapshot + empty
/// WAL) and commits it by atomically rewriting `CURRENT`. Returns the open
/// WAL writer. The `CURRENT` rewrite is the commit point; a crash anywhere
/// earlier leaves the previous generation fully intact.
fn commit_generation(
    vfs: &Arc<dyn Vfs>,
    dir: &Path,
    index: &NnCellIndex<Euclidean>,
    generation: u64,
) -> Result<WalWriter, PersistError> {
    commit_generation_with_tail(vfs, dir, index, generation, &[])
}

/// [`commit_generation`] with a journaled-but-unapplied suffix: `tail`
/// records are re-journaled (one batched fsync) into the fresh WAL
/// *before* the `CURRENT` flip, so replay of the committed generation
/// reconstructs snapshot + tail. The memtable checkpoint path uses this
/// to rotate generations without synchronously folding the tail — an
/// acked write stays durable even while the folder is broken.
fn commit_generation_with_tail(
    vfs: &Arc<dyn Vfs>,
    dir: &Path,
    index: &NnCellIndex<Euclidean>,
    generation: u64,
    tail: &[WalRecord],
) -> Result<WalWriter, PersistError> {
    index.save_with_vfs(vfs.as_ref(), &snapshot_path(dir, generation))?;
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

impl NnCellIndex<Euclidean> {
    /// Opens (or initializes) a crash-consistent index in `dir` with the
    /// production file system. When the directory holds no committed
    /// generation, an empty index of dimensionality `dim` configured by
    /// `cfg` is created; otherwise the committed snapshot is loaded, the
    /// WAL replayed, and `dim`/`cfg` must agree with what is stored.
    ///
    /// # Errors
    /// I/O failures, a corrupt snapshot or `CURRENT`, or a dimensionality
    /// mismatch between `dim` and an existing directory.
    pub fn open_durable(
        dir: impl AsRef<Path>,
        dim: usize,
        cfg: BuildConfig,
    ) -> Result<DurableIndex, PersistError> {
        Self::open_durable_with_vfs(Arc::new(StdVfs), dir.as_ref(), dim, cfg)
    }

    /// [`Self::open_durable`] through an explicit [`Vfs`] — the entry
    /// point the fault-injection tests drive.
    ///
    /// # Errors
    /// See [`Self::open_durable`].
    pub fn open_durable_with_vfs(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        dim: usize,
        cfg: BuildConfig,
    ) -> Result<DurableIndex, PersistError> {
        vfs.create_dir_all(dir)?;
        if vfs.exists(&current_path(dir)) {
            let opened = DurableIndex::open_with_vfs(vfs, dir)?;
            if opened.index.dim() != dim {
                return Err(PersistError::Corrupt(format!(
                    "durable index at {dir:?} is {}-dimensional, caller expected {dim}",
                    opened.index.dim()
                )));
            }
            Ok(opened)
        } else {
            DurableIndex::create_with_vfs(vfs, dir, NnCellIndex::new(dim, cfg))
        }
    }
}

impl DurableIndex {
    /// Initializes `dir` with `index` as the generation-0 snapshot (empty
    /// WAL) using the production file system. Fails if the directory
    /// already holds a committed index.
    ///
    /// # Errors
    /// I/O failures, or an already-initialized directory.
    pub fn create(dir: impl AsRef<Path>, index: NnCellIndex<Euclidean>) -> Result<Self, PersistError> {
        Self::create_with_vfs(Arc::new(StdVfs), dir.as_ref(), index)
    }

    /// [`Self::create`] through an explicit [`Vfs`].
    ///
    /// # Errors
    /// See [`Self::create`].
    pub fn create_with_vfs(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        index: NnCellIndex<Euclidean>,
    ) -> Result<Self, PersistError> {
        vfs.create_dir_all(dir)?;
        if vfs.exists(&current_path(dir)) {
            return Err(PersistError::Corrupt(format!(
                "directory {dir:?} already holds a durable index"
            )));
        }
        let generation = 0;
        let wal = commit_generation(&vfs, dir, &index, generation)?;
        sweep_stale(&vfs, dir, generation);
        Ok(DurableIndex {
            vfs,
            dir: dir.to_path_buf(),
            index,
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

    /// Opens an existing durable index (the committed generation is the
    /// sole authority on dimensionality and configuration) with the
    /// production file system.
    ///
    /// # Errors
    /// I/O failures, no committed generation, or a corrupt snapshot.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, PersistError> {
        Self::open_with_vfs(Arc::new(StdVfs), dir.as_ref())
    }

    /// [`Self::open`] through an explicit [`Vfs`].
    ///
    /// # Errors
    /// See [`Self::open`].
    pub fn open_with_vfs(vfs: Arc<dyn Vfs>, dir: &Path) -> Result<Self, PersistError> {
        let bytes = vfs.read(&current_path(dir))?;
        let text = std::str::from_utf8(&bytes)
            .map_err(|_| PersistError::Corrupt("CURRENT is not UTF-8".into()))?;
        let generation: u64 = text
            .trim()
            .parse()
            .map_err(|_| PersistError::Corrupt(format!("CURRENT holds {text:?}, not a generation")))?;

        let mut index =
            NnCellIndex::load_with_vfs(vfs.as_ref(), &snapshot_path(dir, generation))?;
        let replay = read_wal(vfs.as_ref(), &wal_path(dir, generation))?;
        let mut replayed = 0usize;
        let mut skipped = 0usize;
        for rec in &replay.records {
            let applied = match rec {
                WalRecord::Insert(p) => index.insert(p.clone()).is_ok(),
                WalRecord::Remove(id) => index.remove(*id as usize),
            };
            if applied {
                replayed += 1;
            } else {
                // Deterministic no-op: replay reproduces exactly what the
                // original (failed) application did, keeping states equal.
                skipped += 1;
            }
        }

        let (wal, active_generation, rotated) = if replay.tail == WalTail::Clean {
            let wal = WalWriter::open_append(
                vfs.as_ref(),
                &wal_path(dir, generation),
                replay.records.len() as u64,
            )?;
            (wal, generation, false)
        } else {
            // Damaged tail: never append after it. Rotate to a fresh
            // generation built from the recovered in-memory state.
            let next = generation + 1;
            let wal = commit_generation(&vfs, dir, &index, next)?;
            (wal, next, true)
        };
        sweep_stale(&vfs, dir, active_generation);
        Ok(DurableIndex {
            vfs,
            dir: dir.to_path_buf(),
            index,
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
        })
    }

    /// Attaches a metrics registry to the whole durable stack: the index
    /// and engine metrics (see [`NnCellIndex::attach_metrics`]) plus WAL
    /// append/fsync counters, replay counters seeded from this handle's
    /// [`RecoveryReport`], and a snapshot-rotation counter. Idempotent.
    pub fn attach_metrics(&mut self, registry: Arc<nncell_obs::Registry>) {
        self.attach_metrics_labeled(registry, &[]);
    }

    /// Like [`Self::attach_metrics`] but the index/engine/tree series carry
    /// the given label set (e.g. `shard="1"`). The WAL and rotation
    /// counters stay unlabeled — shards of one sharded index share them as
    /// whole-stack totals.
    pub fn attach_metrics_labeled(
        &mut self,
        registry: Arc<nncell_obs::Registry>,
        labels: &[(&str, &str)],
    ) {
        if self.metrics.is_some() {
            return;
        }
        self.index
            .attach_metrics_labeled(Arc::clone(&registry), labels);
        let wal_metrics = crate::wal::WalMetrics::register(&registry);
        self.wal.set_metrics(wal_metrics.clone());
        // Recovery already happened; publish what it found.
        registry
            .counter("nncell_wal_replayed_total")
            .add(self.recovery.replayed as u64);
        let dropped = self.recovery.skipped as u64
            + u64::from(self.recovery.wal_tail != WalTail::Clean);
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

    /// What recovery found when this handle was opened.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// The committed generation this handle currently appends to.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Records sitting in the active WAL (replayed + appended since the
    /// last checkpoint) — the replay debt a crash right now would incur.
    pub fn wal_records(&self) -> u64 {
        self.wal.records()
    }

    /// Read-only access to the in-memory index (also available through
    /// `Deref`).
    pub fn index(&self) -> &NnCellIndex<Euclidean> {
        &self.index
    }

    /// Executes one typed query against the in-memory index, with the same
    /// [`QueryError`] contract as [`crate::QueryEngine::execute`] — a
    /// durable handle rejects malformed input identically to a plain one.
    ///
    /// # Errors
    /// The [`QueryError`] variants of [`crate::QueryEngine::execute`].
    pub fn query(&self, q: &crate::Query) -> Result<crate::QueryResponse, crate::QueryError> {
        self.index.engine().execute(q)
    }

    /// Executes a batch of typed queries across the engine's thread pool
    /// (see [`crate::QueryEngine::batch`]). Durability is orthogonal:
    /// queries never touch the WAL.
    pub fn batch(
        &self,
        queries: &[crate::Query],
    ) -> Vec<Result<crate::QueryResponse, crate::QueryError>> {
        self.index.engine().batch(queries)
    }

    /// Journals and applies a point insertion. On `Ok`, the update is on
    /// stable storage (WAL fsynced) — a crash at any later instant
    /// recovers it. Returns the new point's id.
    ///
    /// # Errors
    /// [`DurableError::Invalid`] for points [`NnCellIndex::insert`] would
    /// reject (nothing journaled, nothing changed);
    /// [`DurableError::Persist`] when the journal write fails (in-memory
    /// index untouched; the update is not acknowledged).
    pub fn insert(&mut self, p: Point) -> Result<usize, DurableError> {
        self.index.validate_insert(&p)?;
        self.wal.append(&WalRecord::Insert(p.clone()))?;
        Ok(self.index.insert(p)?)
    }

    /// Journals and applies a removal. `Ok(false)` (id not live) journals
    /// nothing. On `Ok(true)`, the removal is on stable storage.
    ///
    /// # Errors
    /// Journal I/O failures; the in-memory index is untouched on error.
    pub fn remove(&mut self, id: usize) -> Result<bool, PersistError> {
        if !self.index.is_live(id) {
            return Ok(false);
        }
        self.wal.append(&WalRecord::Remove(id as u64))?;
        Ok(self.index.remove(id))
    }

    /// Rotates to a fresh generation: snapshot the in-memory index, start
    /// an empty WAL, commit via `CURRENT`, sweep the old files. Shrinks
    /// recovery replay to zero; also the only way out of a poisoned WAL.
    ///
    /// # Errors
    /// I/O failures. On error the previous generation remains committed
    /// and intact; the handle stays usable (checkpoint can be retried).
    pub fn checkpoint(&mut self) -> Result<(), PersistError> {
        self.checkpoint_with_tail(&[])
    }

    /// [`Self::checkpoint`] carrying a journaled-but-unapplied memtable
    /// tail: the fresh generation's snapshot is the in-memory index as-is
    /// and `tail` is re-journaled into the fresh WAL before the commit
    /// flip, so the rotation preserves every acked-but-unfolded write
    /// without doing any folding itself. Replay debt after the rotation
    /// is exactly `tail.len()` records.
    ///
    /// # Errors
    /// See [`Self::checkpoint`].
    pub fn checkpoint_with_tail(&mut self, tail: &[WalRecord]) -> Result<(), PersistError> {
        let next = self.generation + 1;
        let wal = commit_generation_with_tail(&self.vfs, &self.dir, &self.index, next, tail)?;
        self.wal = wal;
        if let Some(m) = &self.metrics {
            self.wal.set_metrics(m.wal.clone());
            m.snapshot_rotations.inc();
        }
        self.generation = next;
        sweep_stale(&self.vfs, &self.dir, next);
        Ok(())
    }

    /// Journals one record durably **without applying it** — the
    /// memtable write path: the record lands in the WAL (fsynced) and in
    /// the in-memory tail; the background folder applies it to the index
    /// later. Callers own the invariant that the journaled suffix and the
    /// tail stay in lockstep.
    ///
    /// # Errors
    /// Journal I/O failures; nothing is acknowledged.
    pub(crate) fn journal(&mut self, rec: &WalRecord) -> Result<(), PersistError> {
        self.wal.append(rec)
    }

    /// Replaces the in-memory index with a folded version (same logical
    /// state as replaying the journaled suffix on top of the old one).
    /// Purely in-memory: the disk state is untouched, so crash recovery
    /// is unaffected by when — or whether — folds happen.
    pub(crate) fn replace_index(&mut self, index: NnCellIndex<Euclidean>) {
        self.index = index;
    }

    /// Checkpoints and consumes the handle — the clean-shutdown path that
    /// leaves zero replay debt. (Dropping without `close` is the *crash*
    /// path: safe, but recovery will replay the WAL.)
    ///
    /// # Errors
    /// See [`Self::checkpoint`].
    pub fn close(mut self) -> Result<(), PersistError> {
        self.checkpoint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Strategy;
    use crate::scan::linear_scan_nn;
    use crate::vfs::{FaultSchedule, FaultVfs};

    fn cfg() -> BuildConfig {
        BuildConfig::builder().strategy(Strategy::Sphere).seed(3).build()
    }

    fn grid_point(i: usize) -> Point {
        // Distinct points on a 100×100 lattice, away from the boundary.
        Point::new(vec![
            (i % 97) as f64 / 100.0 + 0.005,
            (i / 97 % 97) as f64 / 100.0 + 0.005,
        ])
    }

    fn mem_vfs() -> (Arc<dyn Vfs>, FaultVfs, PathBuf) {
        let fault = FaultVfs::new(FaultSchedule::none(11));
        (Arc::new(fault.clone()), fault, PathBuf::from("/db"))
    }

    /// Queries of the recovered index agree with a scan over its points.
    fn assert_self_consistent(idx: &NnCellIndex<Euclidean>) {
        let live: Vec<Point> = (0..idx.points().len())
            .filter(|&i| idx.is_live(i))
            .map(|i| idx.points()[i].clone())
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
    fn typed_queries_behave_like_a_plain_engine() {
        use crate::query::{Query, QueryError};
        let (vfs, _fault, dir) = mem_vfs();
        let mut d = NnCellIndex::open_durable_with_vfs(Arc::clone(&vfs), &dir, 2, cfg()).unwrap();
        // Empty index: typed, not silent.
        assert_eq!(
            d.query(&Query::nn([0.5, 0.5])).unwrap_err(),
            QueryError::EmptyIndex
        );
        for i in 0..12 {
            d.insert(grid_point(i)).unwrap();
        }
        // Malformed input gets the same variants as QueryEngine::execute.
        assert_eq!(
            d.query(&Query::nn([0.5])).unwrap_err(),
            QueryError::DimMismatch {
                expected: 2,
                got: 1
            }
        );
        assert_eq!(
            d.query(&Query::nn([f64::NAN, 0.5])).unwrap_err(),
            QueryError::NonFiniteQuery
        );
        assert_eq!(
            d.query(&Query::knn([0.5, 0.5], 0)).unwrap_err(),
            QueryError::ZeroK
        );
        // Well-formed queries agree with the engine over the same index.
        let want = d.index().engine().execute(&Query::knn([0.31, 0.22], 3)).unwrap();
        let got = d.query(&Query::knn([0.31, 0.22], 3)).unwrap();
        assert_eq!(got, want);
        let batch = d.batch(&[Query::nn([0.31, 0.22]), Query::nn([0.9, 0.1])]);
        assert_eq!(batch.len(), 2);
        for r in batch {
            r.unwrap();
        }
    }

    #[test]
    fn drop_without_checkpoint_recovers_every_acknowledged_update() {
        let (vfs, _fault, dir) = mem_vfs();
        let mut d =
            NnCellIndex::open_durable_with_vfs(Arc::clone(&vfs), &dir, 2, cfg()).unwrap();
        assert!(d.recovery().initialized);
        for i in 0..20 {
            d.insert(grid_point(i)).unwrap();
        }
        assert!(d.remove(3).unwrap());
        assert!(d.remove(11).unwrap());
        assert!(!d.remove(3).unwrap(), "double remove journals nothing");
        assert_eq!(d.wal_records(), 22);
        drop(d); // crash: no checkpoint, no close

        let d = NnCellIndex::open_durable_with_vfs(Arc::clone(&vfs), &dir, 2, cfg()).unwrap();
        let rec = d.recovery();
        assert!(!rec.initialized);
        assert_eq!(rec.replayed, 22);
        assert_eq!(rec.skipped, 0);
        assert_eq!(rec.wal_tail, WalTail::Clean);
        assert_eq!(d.len(), 18);
        assert!(!d.is_live(3) && !d.is_live(11));
        assert_self_consistent(&d);
    }

    #[test]
    fn checkpoint_rotates_generation_and_clears_replay_debt() {
        let (vfs, _fault, dir) = mem_vfs();
        let mut d =
            NnCellIndex::open_durable_with_vfs(Arc::clone(&vfs), &dir, 2, cfg()).unwrap();
        for i in 0..10 {
            d.insert(grid_point(i)).unwrap();
        }
        d.checkpoint().unwrap();
        assert_eq!(d.generation(), 1);
        assert_eq!(d.wal_records(), 0);
        // Generation-0 files were swept; generation-1 files exist.
        assert!(!vfs.exists(&snapshot_path(&dir, 0)));
        assert!(!vfs.exists(&wal_path(&dir, 0)));
        assert!(vfs.exists(&snapshot_path(&dir, 1)));

        d.insert(grid_point(10)).unwrap();
        drop(d);
        let d = NnCellIndex::open_durable_with_vfs(Arc::clone(&vfs), &dir, 2, cfg()).unwrap();
        assert_eq!(d.recovery().generation, 1);
        assert_eq!(d.recovery().replayed, 1, "only post-checkpoint records replay");
        assert_eq!(d.len(), 11);
        assert_self_consistent(&d);
    }

    #[test]
    fn close_leaves_zero_replay_debt() {
        let (vfs, _fault, dir) = mem_vfs();
        let mut d =
            NnCellIndex::open_durable_with_vfs(Arc::clone(&vfs), &dir, 2, cfg()).unwrap();
        for i in 0..8 {
            d.insert(grid_point(i)).unwrap();
        }
        d.close().unwrap();
        let d = NnCellIndex::open_durable_with_vfs(Arc::clone(&vfs), &dir, 2, cfg()).unwrap();
        assert_eq!(d.recovery().replayed, 0);
        assert_eq!(d.len(), 8);
    }

    #[test]
    fn damaged_wal_tail_is_dropped_and_generation_rotated() {
        let (vfs, _fault, dir) = mem_vfs();
        let mut d =
            NnCellIndex::open_durable_with_vfs(Arc::clone(&vfs), &dir, 2, cfg()).unwrap();
        for i in 0..6 {
            d.insert(grid_point(i)).unwrap();
        }
        let generation = d.generation();
        drop(d);
        // Stomp garbage after the acknowledged records — a torn in-flight
        // append a crash left behind.
        let wal_file = wal_path(&dir, generation);
        let mut f = vfs.open_append(&wal_file).unwrap();
        f.write_all(&[0xAB, 0xCD, 0xEF]).unwrap();
        f.sync().unwrap();
        drop(f);

        let d = NnCellIndex::open_durable_with_vfs(Arc::clone(&vfs), &dir, 2, cfg()).unwrap();
        assert_eq!(d.recovery().replayed, 6);
        assert!(matches!(d.recovery().wal_tail, WalTail::Truncated { .. }));
        assert!(d.recovery().rotated);
        assert_eq!(d.generation(), generation + 1);
        assert_eq!(d.len(), 6);
        // The rotated state is clean: reopening replays nothing.
        drop(d);
        let d = NnCellIndex::open_durable_with_vfs(Arc::clone(&vfs), &dir, 2, cfg()).unwrap();
        assert_eq!(d.recovery().wal_tail, WalTail::Clean);
        assert_eq!(d.recovery().replayed, 0);
        assert_eq!(d.len(), 6);
    }

    #[test]
    fn invalid_inserts_journal_nothing() {
        let (vfs, _fault, dir) = mem_vfs();
        let mut d =
            NnCellIndex::open_durable_with_vfs(Arc::clone(&vfs), &dir, 2, cfg()).unwrap();
        d.insert(grid_point(0)).unwrap();
        let before = d.wal_records();
        assert!(matches!(
            d.insert(grid_point(0)),
            Err(DurableError::Invalid(BuildError::DuplicatePoint { .. }))
        ));
        assert!(matches!(
            d.insert(Point::new(vec![f64::NAN, 0.5])),
            Err(DurableError::Invalid(BuildError::NonFinitePoint { .. }))
        ));
        assert!(matches!(
            d.insert(Point::new(vec![0.5])),
            Err(DurableError::Invalid(BuildError::DimensionMismatch { .. }))
        ));
        assert_eq!(d.wal_records(), before, "rejected updates must not reach the WAL");
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn create_from_built_index_and_reopen() {
        let (vfs, _fault, dir) = mem_vfs();
        let pts: Vec<Point> = (0..25).map(grid_point).collect();
        let built = NnCellIndex::build(pts, cfg()).unwrap();
        let d = DurableIndex::create_with_vfs(Arc::clone(&vfs), &dir, built).unwrap();
        assert_eq!(d.len(), 25);
        drop(d);
        // A second create on the same directory must refuse.
        let again = NnCellIndex::build(vec![grid_point(0)], cfg());
        assert!(matches!(
            DurableIndex::create_with_vfs(Arc::clone(&vfs), &dir, again.unwrap()),
            Err(PersistError::Corrupt(_))
        ));
        let d = DurableIndex::open_with_vfs(Arc::clone(&vfs), &dir).unwrap();
        assert_eq!(d.len(), 25);
        assert_self_consistent(&d);
    }

    #[test]
    fn dimension_mismatch_on_open_is_typed() {
        let (vfs, _fault, dir) = mem_vfs();
        let d = NnCellIndex::open_durable_with_vfs(Arc::clone(&vfs), &dir, 2, cfg()).unwrap();
        drop(d);
        assert!(matches!(
            NnCellIndex::open_durable_with_vfs(Arc::clone(&vfs), &dir, 3, cfg()),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn std_vfs_full_cycle_on_real_files() {
        let dir = std::env::temp_dir().join(format!("nncell_durable_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut d = NnCellIndex::open_durable(&dir, 2, cfg()).unwrap();
        for i in 0..12 {
            d.insert(grid_point(i)).unwrap();
        }
        assert!(d.remove(5).unwrap());
        d.checkpoint().unwrap();
        d.insert(grid_point(12)).unwrap();
        drop(d); // crash after one post-checkpoint insert

        let d = NnCellIndex::open_durable(&dir, 2, cfg()).unwrap();
        assert_eq!(d.len(), 12);
        assert!(!d.is_live(5));
        assert_eq!(d.recovery().replayed, 1);
        assert_self_consistent(&d);
        d.close().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
