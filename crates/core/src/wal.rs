//! Write-ahead log for dynamic index updates.
//!
//! Every [`crate::ShardedIndex::insert`] / `remove` on a durable index is
//! journaled here — and fsynced — *before* it reaches the memtable tail,
//! so an update that was acknowledged to the caller can always be
//! replayed after a crash.
//!
//! **Format `NNWAL001`**: an 8-byte magic followed by self-delimiting
//! records, each framed as
//!
//! ```text
//! [len: u32 le] [crc: u32 le] [payload: len bytes]
//! ```
//!
//! where `crc` is CRC32 (IEEE) over the payload. Payloads are typed by
//! their first byte: `3` = insert under a global id (`id: u64`, `dim:
//! u32`, then `dim` little-endian `f64` coordinates), `2` = remove (the
//! shard-local slot, `id: u64`). Type `1` is the insert older releases
//! wrote (`dim: u32` and the coordinates, no id; the global id follows
//! from the round-robin rule of their layouts): it is still replayed,
//! never written.
//!
//! **Recovery** ([`read_wal`]) is *prefix replay*: records are decoded in
//! order until the first frame that is truncated (a torn final append) or
//! fails its CRC (a torn or corrupted append). The damaged tail is
//! *dropped* — reported in [`WalTail`], never applied, never a panic. This
//! is safe because appends are fsynced before they are acknowledged: a
//! damaged frame can only be an update nobody was told succeeded (or
//! genuine disk corruption, where fail-soft prefix recovery is the best
//! available outcome and the checksum guarantees we never apply garbage).
//!
//! A CRC-*valid* frame that decodes to nonsense (unknown type, impossible
//! sizes) is not crash damage — the writer itself misbehaved — and fails
//! the whole replay with a typed [`PersistError::Corrupt`].

use crate::persist::{crc32, PersistError};
use crate::vfs::{Vfs, VfsFile};
use nncell_geom::Point;
use std::path::Path;

/// Magic prefix of a WAL file.
pub(crate) const WAL_MAGIC: &[u8; 8] = b"NNWAL001";

/// Largest accepted record payload: one point at the format's maximum
/// dimensionality (`2^16`), with headroom. Anything larger is corruption —
/// rejected *before* any allocation.
const MAX_RECORD_LEN: usize = 1 + 4 + 8 * (1 << 16) + 64;

/// One journaled update.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// A point insertion as older releases journaled it: its slot is
    /// implied by replay order and its global id by the round-robin rule
    /// of their layouts. Recovery replays it; the index journals
    /// [`WalRecord::InsertAt`] instead.
    Insert(Point),
    /// A point insertion under its global id (its slot is implied by
    /// replay order).
    InsertAt {
        /// The point's global id.
        id: u64,
        /// The point.
        point: Point,
    },
    /// A removal of the point in this shard-local slot.
    Remove(u64),
}

const OP_INSERT: u8 = 1;
const OP_REMOVE: u8 = 2;
const OP_INSERT_AT: u8 = 3;

impl WalRecord {
    /// Appends the payload (without the frame) to `out`.
    fn encode_into(&self, out: &mut Vec<u8>) {
        let put_point = |out: &mut Vec<u8>, p: &Point| {
            out.extend_from_slice(&(p.dim() as u32).to_le_bytes());
            for &c in p.as_slice() {
                out.extend_from_slice(&c.to_le_bytes());
            }
        };
        match self {
            WalRecord::Insert(p) => {
                out.push(OP_INSERT);
                put_point(out, p);
            }
            WalRecord::InsertAt { id, point } => {
                out.push(OP_INSERT_AT);
                out.extend_from_slice(&id.to_le_bytes());
                put_point(out, point);
            }
            WalRecord::Remove(id) => {
                out.push(OP_REMOVE);
                out.extend_from_slice(&id.to_le_bytes());
            }
        }
    }

    /// Parses a CRC-verified payload. Errors here mean a *writer* bug or
    /// adversarial file, not crash damage — see the module docs.
    fn decode(payload: &[u8]) -> Result<WalRecord, PersistError> {
        let corrupt = |msg: &str| PersistError::Corrupt(format!("WAL record: {msg}"));
        let (&op, rest) = payload
            .split_first()
            .ok_or_else(|| corrupt("empty payload"))?;
        let u64_at =
            |b: &[u8]| u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]);
        // `dim: u32` and the coordinates.
        let point = |rest: &[u8]| {
            if rest.len() < 4 {
                return Err(corrupt("insert record too short for dimensionality"));
            }
            let dim = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
            let coords = &rest[4..];
            if dim == 0 || dim > 1 << 16 || coords.len() != 8 * dim {
                return Err(corrupt("insert record size disagrees with dimensionality"));
            }
            let coords: Vec<f64> = coords
                .chunks_exact(8)
                .map(|c| f64::from_bits(u64_at(c)))
                .collect();
            Ok(Point::new(coords))
        };
        match op {
            OP_INSERT => Ok(WalRecord::Insert(point(rest)?)),
            OP_INSERT_AT => {
                if rest.len() < 8 {
                    return Err(corrupt("insert record too short for its id"));
                }
                Ok(WalRecord::InsertAt {
                    id: u64_at(rest),
                    point: point(&rest[8..])?,
                })
            }
            OP_REMOVE => {
                if rest.len() != 8 {
                    return Err(corrupt("remove record has wrong size"));
                }
                Ok(WalRecord::Remove(u64_at(rest)))
            }
            other => Err(corrupt(&format!("unknown record type {other}"))),
        }
    }
}

/// How replay left the end of the log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalTail {
    /// Every byte decoded into a record.
    Clean,
    /// The final frame stopped mid-bytes (torn append); dropped.
    Truncated {
        /// File offset of the dropped partial frame.
        offset: u64,
    },
    /// A frame failed its CRC; it and everything after it were dropped.
    Corrupt {
        /// File offset of the first bad frame.
        offset: u64,
    },
}

/// The decoded prefix of a WAL plus how its tail looked.
#[derive(Clone, Debug)]
pub struct WalReplay {
    /// Records in append order.
    pub records: Vec<WalRecord>,
    /// Tail condition (anything but [`WalTail::Clean`] means bytes were
    /// dropped — only ever unacknowledged bytes, per the fsync contract).
    pub tail: WalTail,
}

/// Reads and decodes a WAL file.
///
/// # Errors
/// I/O failures, a missing/garbled magic, or a CRC-valid record whose
/// payload is structurally impossible. Torn/corrupt *tails* are not errors:
/// they come back as [`WalTail`] with the surviving prefix.
pub fn read_wal(vfs: &dyn Vfs, path: &Path) -> Result<WalReplay, PersistError> {
    let bytes = vfs.read(path)?;
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(PersistError::Corrupt(format!(
            "bad WAL magic (expected {WAL_MAGIC:?})"
        )));
    }
    let mut records = Vec::new();
    let mut pos = WAL_MAGIC.len();
    let tail = loop {
        if pos == bytes.len() {
            break WalTail::Clean;
        }
        if bytes.len() - pos < 8 {
            break WalTail::Truncated { offset: pos as u64 };
        }
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
            as usize;
        let stored_crc = u32::from_le_bytes([
            bytes[pos + 4],
            bytes[pos + 5],
            bytes[pos + 6],
            bytes[pos + 7],
        ]);
        if len == 0 || len > MAX_RECORD_LEN {
            // A frame this shape was never written; treat as a corrupt
            // tail (a torn length field looks exactly like this).
            break WalTail::Corrupt { offset: pos as u64 };
        }
        if bytes.len() - pos - 8 < len {
            break WalTail::Truncated { offset: pos as u64 };
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        if crc32(payload) != stored_crc {
            break WalTail::Corrupt { offset: pos as u64 };
        }
        records.push(WalRecord::decode(payload)?);
        pos += 8 + len;
    };
    Ok(WalReplay { records, tail })
}

/// Append handle over an open WAL file.
///
/// After any append or sync error the writer is **poisoned**: the file may
/// hold bytes that were neither acknowledged nor rolled back, so further
/// appends are refused until [`crate::ShardedIndex::checkpoint`] rotates
/// to a fresh log. (The failed update never reached the memtable tail, so
/// the published snapshot plus the tail the next generation is written
/// from never hold it.)
pub struct WalWriter {
    file: Box<dyn VfsFile>,
    records: u64,
    poisoned: bool,
    metrics: Option<WalMetrics>,
    /// The frames of one journal call, reused by the next (see
    /// [`Self::journal`]).
    frames: Vec<u8>,
}

/// The frame buffer a [`WalWriter`] keeps between journal calls; one that
/// grew past this (a checkpoint re-journaling a long tail) is freed.
const FRAMES_KEEP_BYTES: usize = 1 << 16;

/// Registry handles for the write-ahead log (attached via
/// [`crate::ShardedIndex::attach_metrics`]).
#[derive(Clone)]
pub struct WalMetrics {
    /// `nncell_wal_appends_total` — records acknowledged durable.
    pub(crate) appends: std::sync::Arc<nncell_obs::Counter>,
    /// `nncell_wal_fsyncs_total` — fsyncs issued by the log (one per
    /// acknowledged append under the fsync-before-ack contract).
    pub(crate) fsyncs: std::sync::Arc<nncell_obs::Counter>,
}

impl WalMetrics {
    /// Resolves (or creates) the WAL counters in `registry`.
    pub fn register(registry: &nncell_obs::Registry) -> Self {
        Self {
            appends: registry.counter("nncell_wal_appends_total"),
            fsyncs: registry.counter("nncell_wal_fsyncs_total"),
        }
    }
}

impl WalWriter {
    /// Creates a fresh WAL at `path` (magic written and fsynced).
    ///
    /// # Errors
    /// I/O failures. The *name* is durable only after the caller syncs the
    /// directory, which the shard log ([`crate::durable`]) does before
    /// committing any generation pointing at this file.
    pub fn create(vfs: &dyn Vfs, path: &Path) -> Result<WalWriter, PersistError> {
        let mut file = vfs.create(path)?;
        file.write_all(WAL_MAGIC)?;
        file.sync()?;
        Ok(WalWriter {
            file,
            records: 0,
            poisoned: false,
            metrics: None,
            frames: Vec::new(),
        })
    }

    /// Opens an existing WAL whose readable prefix holds `records` records,
    /// for appending.
    ///
    /// # Errors
    /// I/O failures.
    pub fn open_append(
        vfs: &dyn Vfs,
        path: &Path,
        records: u64,
    ) -> Result<WalWriter, PersistError> {
        Ok(WalWriter {
            file: vfs.open_append(path)?,
            records,
            poisoned: false,
            metrics: None,
            frames: Vec::new(),
        })
    }

    /// Attaches registry counters; appends and fsyncs record from now on.
    pub fn set_metrics(&mut self, metrics: WalMetrics) {
        self.metrics = Some(metrics);
    }

    /// Journals one record durably: frame, append, fsync. Returns only
    /// after the bytes are on stable storage — the caller may then apply
    /// the update and acknowledge it.
    ///
    /// # Errors
    /// I/O (including injected fsync) failures. On error the writer
    /// poisons itself; see the type docs.
    pub fn append(&mut self, rec: &WalRecord) -> Result<(), PersistError> {
        self.journal("wal.append", std::slice::from_ref(rec))
    }

    /// Journals a batch of records with a **single** fsync covering all of
    /// them — the checkpoint path uses this to re-journal an unfolded
    /// memtable tail into a fresh log without paying one fsync per record.
    /// The batch is durable as a whole: on error nothing in it may be
    /// treated as acknowledged, and the writer poisons itself exactly as
    /// [`WalWriter::append`] does.
    ///
    /// # Errors
    /// I/O (including injected fsync) failures; the writer is poisoned.
    pub fn append_batch(&mut self, recs: &[WalRecord]) -> Result<(), PersistError> {
        if recs.is_empty() {
            return Ok(());
        }
        self.journal("wal.append_batch", recs)
    }

    /// Frames `recs`, writes the frames and fsyncs once, under a span
    /// named `span` (it covers frame + write + fsync and nests under the
    /// request span when the acking thread is inside a sampled trace).
    /// A poisoned writer refuses; a failed write or fsync poisons it.
    fn journal(&mut self, span: &'static str, recs: &[WalRecord]) -> Result<(), PersistError> {
        self.check_writable()?;
        let mut span = nncell_obs::trace::child(span);
        // Each record is encoded in place behind an 8-byte header, which
        // then takes its payload's length and CRC.
        let frames = &mut self.frames;
        frames.clear();
        for rec in recs {
            let head = frames.len();
            frames.extend_from_slice(&[0; 8]);
            rec.encode_into(frames);
            let payload = &frames[head + 8..];
            let (len, crc) = (payload.len() as u32, crc32(payload));
            frames[head..head + 4].copy_from_slice(&len.to_le_bytes());
            frames[head + 4..head + 8].copy_from_slice(&crc.to_le_bytes());
        }
        span.arg("records", recs.len() as u64);
        span.arg("bytes", frames.len() as u64);
        let res = self.file.write_all(frames).and_then(|()| self.file.sync());
        if frames.capacity() > FRAMES_KEEP_BYTES {
            *frames = Vec::new();
        }
        match res {
            Ok(()) => {
                self.records += recs.len() as u64;
                if let Some(m) = &self.metrics {
                    m.appends.add(recs.len() as u64);
                    m.fsyncs.inc();
                }
                Ok(())
            }
            Err(e) => {
                self.poisoned = true;
                Err(PersistError::Io(e))
            }
        }
    }

    /// Records acknowledged through this writer (including the replayed
    /// prefix it was opened with).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Whether an append failure has poisoned this writer.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// The error a poisoned writer refuses every append with; `Ok` while
    /// the writer is usable.
    pub(crate) fn check_writable(&self) -> Result<(), PersistError> {
        if self.poisoned {
            return Err(PersistError::Corrupt(
                "WAL writer poisoned by an earlier append failure; checkpoint to rotate".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{FaultSchedule, FaultVfs, StdVfs};
    use std::path::PathBuf;

    fn mem() -> (FaultVfs, PathBuf) {
        (FaultVfs::new(FaultSchedule::none(1)), PathBuf::from("/wal"))
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Insert(Point::new(vec![0.25, 0.75])),
            WalRecord::Remove(0),
            WalRecord::InsertAt {
                id: 7,
                point: Point::new(vec![0.5, 0.125]),
            },
            WalRecord::Insert(Point::new(vec![0.875, 0.625])),
            WalRecord::Remove(2),
        ]
    }

    #[test]
    fn roundtrip_preserves_records_in_order() {
        let (vfs, path) = mem();
        let mut w = WalWriter::create(&vfs, &path).unwrap();
        for r in sample_records() {
            w.append(&r).unwrap();
        }
        assert_eq!(w.records(), 5);
        let replay = read_wal(&vfs, &path).unwrap();
        assert_eq!(replay.tail, WalTail::Clean);
        assert_eq!(replay.records, sample_records());
    }

    #[test]
    fn append_batch_is_byte_identical_to_one_by_one_appends() {
        let (vfs, path) = mem();
        let mut one = WalWriter::create(&vfs, &path).unwrap();
        for r in sample_records() {
            one.append(&r).unwrap();
        }
        let per_record = vfs.read(&path).unwrap();

        let vfs2 = FaultVfs::new(FaultSchedule::none(2));
        let mut batch = WalWriter::create(&vfs2, &path).unwrap();
        batch.append_batch(&sample_records()).unwrap();
        assert_eq!(batch.records(), 5);
        assert_eq!(vfs2.read(&path).unwrap(), per_record);
        let replay = read_wal(&vfs2, &path).unwrap();
        assert_eq!(replay.tail, WalTail::Clean);
        assert_eq!(replay.records, sample_records());
        // Empty batches are free and never touch the file.
        batch.append_batch(&[]).unwrap();
        assert_eq!(batch.records(), 5);
    }

    #[test]
    fn truncated_tail_is_dropped_with_report() {
        let (vfs, path) = mem();
        let mut w = WalWriter::create(&vfs, &path).unwrap();
        for r in sample_records() {
            w.append(&r).unwrap();
        }
        let full = vfs.read(&path).unwrap();
        // Frame boundaries: only there may a truncated file read back as a
        // clean (shorter) log.
        let mut boundaries = vec![WAL_MAGIC.len()];
        let mut pos = WAL_MAGIC.len();
        while pos < full.len() {
            let len = u32::from_le_bytes([full[pos], full[pos + 1], full[pos + 2], full[pos + 3]])
                as usize;
            pos += 8 + len;
            boundaries.push(pos);
        }
        // Every proper prefix must replay to a record prefix, never panic.
        for keep in 0..full.len() {
            let vfs2 = FaultVfs::new(FaultSchedule::none(2));
            let mut f = vfs2.create(&path).unwrap();
            f.write_all(&full[..keep]).unwrap();
            drop(f);
            match read_wal(&vfs2, &path) {
                Ok(replay) => {
                    assert!(replay.records.len() <= 5);
                    assert_eq!(
                        replay.records,
                        sample_records()[..replay.records.len()],
                        "prefix at keep={keep}"
                    );
                    if replay.tail == WalTail::Clean {
                        assert!(
                            boundaries.contains(&keep),
                            "keep={keep} lost bytes silently"
                        );
                    }
                }
                Err(PersistError::Corrupt(_)) => assert!(keep < 8, "magic-only failures"),
                Err(PersistError::Io(e)) => panic!("unexpected io error: {e}"),
            }
        }
    }

    #[test]
    fn bitflips_never_panic_and_never_fabricate_records() {
        let (vfs, path) = mem();
        let mut w = WalWriter::create(&vfs, &path).unwrap();
        for r in sample_records() {
            w.append(&r).unwrap();
        }
        let full = vfs.read(&path).unwrap();
        for pos in 0..full.len() {
            for bit in [0u8, 3, 7] {
                let mut mutated = full.clone();
                mutated[pos] ^= 1 << bit;
                let vfs2 = FaultVfs::new(FaultSchedule::none(3));
                let mut f = vfs2.create(&path).unwrap();
                f.write_all(&mutated).unwrap();
                drop(f);
                match read_wal(&vfs2, &path) {
                    Ok(replay) => {
                        // Only a clean prefix may survive — every surviving
                        // record must be one we actually wrote.
                        assert_eq!(
                            replay.records,
                            sample_records()[..replay.records.len()],
                            "byte {pos} bit {bit}"
                        );
                    }
                    Err(PersistError::Corrupt(_)) => {}
                    Err(PersistError::Io(e)) => panic!("unexpected io error: {e}"),
                }
            }
        }
    }

    #[test]
    fn oversized_length_field_rejected_before_allocation() {
        let (vfs, path) = mem();
        let mut f = vfs.create(&path).unwrap();
        f.write_all(WAL_MAGIC).unwrap();
        f.write_all(&u32::MAX.to_le_bytes()).unwrap(); // absurd len
        f.write_all(&0u32.to_le_bytes()).unwrap();
        drop(f);
        let replay = read_wal(&vfs, &path).unwrap();
        assert!(replay.records.is_empty());
        assert!(matches!(replay.tail, WalTail::Corrupt { offset: 8 }));
    }

    #[test]
    fn crc_valid_garbage_payload_is_a_typed_error() {
        let (vfs, path) = mem();
        let mut f = vfs.create(&path).unwrap();
        f.write_all(WAL_MAGIC).unwrap();
        let payload = [9u8, 1, 2, 3]; // unknown op, correct CRC
        f.write_all(&(payload.len() as u32).to_le_bytes()).unwrap();
        f.write_all(&crate::persist::crc32(&payload).to_le_bytes())
            .unwrap();
        f.write_all(&payload).unwrap();
        drop(f);
        assert!(matches!(
            read_wal(&vfs, &path),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn poisoned_writer_refuses_appends_after_fsync_failure() {
        let path = PathBuf::from("/wal");
        // Find the op index of the first append's fsync: create(1) +
        // write magic(1) + sync(1) => append's write is op 3, sync op 4.
        let vfs = FaultVfs::new(FaultSchedule {
            seed: 9,
            fail_sync_ops: vec![4],
            ..FaultSchedule::default()
        });
        let mut w = WalWriter::create(&vfs, &path).unwrap();
        let rec = WalRecord::Remove(7);
        let err = w.append(&rec).unwrap_err();
        assert!(matches!(err, PersistError::Io(_)));
        assert!(w.is_poisoned());
        // Even though later fsyncs would succeed, the writer refuses: the
        // unacknowledged bytes on disk must not be extended.
        assert!(matches!(w.append(&rec), Err(PersistError::Corrupt(_))));
        assert_eq!(w.records(), 0);
    }

    #[test]
    fn std_vfs_wal_roundtrips_on_real_files() {
        let dir = std::env::temp_dir().join(format!("nncell_wal_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&StdVfs, &path).unwrap();
        for r in sample_records() {
            w.append(&r).unwrap();
        }
        drop(w);
        let replay = read_wal(&StdVfs, &path).unwrap();
        assert_eq!(replay.tail, WalTail::Clean);
        assert_eq!(replay.records, sample_records());
        std::fs::remove_dir_all(&dir).ok();
    }
}
