//! Index persistence.
//!
//! An index is its configuration, its points and their liveness. A save
//! gathers each live slot's row from its point-tree leaf, in slot order,
//! and writes a dead slot as a fixed placeholder row (all zeros) with
//! liveness 0: the index keeps no coordinates of a removed point. On load
//! the rows decode into one buffer, the live ones are STR bulk-loaded into
//! the point X-tree exactly as a build does — so a freshly built index and
//! its saved copy read the same pages — and the buffer is dropped, with
//! the rows of dead slots unread.
//!
//! **Format `NNCELL02`** ([`NnCellIndex::save`]): an 8-byte magic, the
//! payload, and a CRC32 (IEEE) trailer over everything before it.
//! [`NnCellIndex::load`] verifies the checksum before parsing, so a bit
//! flip anywhere in the file is a typed [`PersistError::Corrupt`] — never
//! a panic, and never a silently wrong index. **Format `NNCELL01`**
//! (legacy, no checksum) is still readable; structural validation alone
//! guards those files. Both end with one NN-cell piece list per point.
//! `save` writes every list empty; `load` still reads and bounds-checks
//! the lists of files that carry pieces, then drops them — nothing on the
//! serving path reads cells, and [`crate::NnCells::build`] recomputes
//! them on demand.
//!
//! **Format `NNCELL03`** (a shard of a [`crate::ShardedIndex`]): the same
//! checksummed header and points, then one global id per slot (`u64`) in
//! place of the piece lists. A shard file of the
//! two older formats carries no ids; its slots are numbered by the
//! round-robin rule of the layouts that wrote them (`RoundRobin`).
//!
//! Every size field read from disk is validated against the actual number
//! of bytes present *before* any allocation, so a corrupted count cannot
//! trigger an out-of-memory abort either.
//!
//! Only the Euclidean index is persistable: the metric is not serialized.

use crate::cells::MAX_PIECES;
use crate::config::{BuildConfig, SolverKind, Strategy};
use crate::index::NnCellIndex;
use crate::vfs::{write_atomic, StdVfs, Vfs};
use nncell_geom::Euclidean;
use std::io;
use std::path::Path;

const MAGIC_V3: &[u8; 8] = b"NNCELL03";
const MAGIC_V2: &[u8; 8] = b"NNCELL02";
const MAGIC_V1: &[u8; 8] = b"NNCELL01";

/// The global ids of a shard written before shard files carried an id
/// column: sharded layouts then dealt global id `g` to shard `g % S` at
/// slot `g / S`, so slot `l` of shard `shard` is global `l·shards +
/// shard` (the identity for one shard).
#[derive(Clone, Copy, Debug)]
pub(crate) struct RoundRobin {
    pub(crate) shard: usize,
    pub(crate) shards: usize,
}

impl RoundRobin {
    /// The rule of a lone shard: slot `l` is global `l`.
    pub(crate) const ONE: RoundRobin = RoundRobin {
        shard: 0,
        shards: 1,
    };

    /// The global id of slot `local`.
    pub(crate) fn global(self, local: usize) -> usize {
        local * self.shards + self.shard
    }
}

/// Failures of [`NnCellIndex::save`] / [`NnCellIndex::load`].
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not a (compatible) NN-cell index dump.
    Corrupt(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "I/O error: {e}"),
            PersistError::Corrupt(msg) => write!(f, "corrupt index file: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

fn corrupt(msg: impl Into<String>) -> PersistError {
    PersistError::Corrupt(msg.into())
}

// ----------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected, polynomial 0xEDB88320)
// ----------------------------------------------------------------------

const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC32 of `bytes` (IEEE; matches zlib's `crc32(0, ...)`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ----------------------------------------------------------------------
// bounded slice reader
// ----------------------------------------------------------------------

/// Cursor over the in-memory payload; every read is bounds-checked and a
/// short read is a typed corruption error, never a panic.
struct SliceReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> SliceReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(corrupt("truncated file"));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, PersistError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, PersistError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.u64()?))
    }
}

impl NnCellIndex<Euclidean> {
    /// Writes the index (configuration, points, liveness) to `path` in the
    /// checksummed `NNCELL02` format, with an empty piece list per point.
    ///
    /// The write is **crash-safe**: the bytes go to a fsynced sibling
    /// `.tmp` file that is renamed over `path` (then the directory is
    /// synced). A crash at any instant leaves either the previous file or
    /// the complete new one — a plain `save` can no longer destroy the
    /// last good snapshot.
    ///
    /// # Errors
    /// I/O failures only; the format always fits the data.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        self.save_with_vfs(&StdVfs, path.as_ref())
    }

    /// [`Self::save`] through an explicit [`Vfs`] (fault injection, tests).
    ///
    /// # Errors
    /// I/O failures only.
    pub fn save_with_vfs(&self, vfs: &dyn Vfs, path: &Path) -> Result<(), PersistError> {
        self.write_file(vfs, path, MAGIC_V2, |out| {
            for _ in 0..self.slots() {
                put_u32(out, 0);
            }
        })
    }

    /// Writes a shard's index and its id column (`ids[l]` is the global
    /// id of slot `l`) to `path` in the `NNCELL03` format, through the
    /// same crash-safe atomic write as [`Self::save`].
    pub(crate) fn save_shard(
        &self,
        ids: &[usize],
        vfs: &dyn Vfs,
        path: &Path,
    ) -> Result<(), PersistError> {
        debug_assert_eq!(ids.len(), self.slots(), "one id per slot");
        self.write_file(vfs, path, MAGIC_V3, |out| {
            for &g in ids {
                put_u64(out, g as u64);
            }
        })
    }

    /// Writes `magic`, the header and points, the per-slot section
    /// `slots` appends, and the checksum trailer.
    fn write_file(
        &self,
        vfs: &dyn Vfs,
        path: &Path,
        magic: &[u8; 8],
        slots: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), PersistError> {
        let mut bytes = Vec::with_capacity(64 + self.slots() * (self.dim() * 8 + 9));
        bytes.extend_from_slice(magic);
        self.write_points(&mut bytes);
        slots(&mut bytes);
        let crc = crc32(&bytes[..]);
        bytes.extend_from_slice(&crc.to_le_bytes());
        write_atomic(vfs, path, &bytes)?;
        Ok(())
    }

    /// Serializes the header and every slot's liveness and row into `out`
    /// (infallible: the sink is a `Vec`), the rows as
    /// [`NnCellIndex::rows`] gives them.
    fn write_points(&self, out: &mut Vec<u8>) {
        let cfg = self.config();
        put_u32(out, self.dim() as u32);
        out.push(strategy_tag(cfg.strategy));
        out.push(solver_tag(cfg.solver));
        out.push(cfg.refine_on_insert as u8);
        out.push(0); // reserved
        put_u32(out, cfg.decompose_pieces.unwrap_or(0) as u32);
        put_f64(out, cfg.sphere_radius.unwrap_or(f64::NAN));
        put_u64(out, cfg.seed);
        put_u32(out, cfg.block_size as u32);

        put_u64(out, self.slots() as u64);
        for (id, row) in self.rows().enumerate() {
            out.push(self.is_live(id) as u8);
            for c in row {
                put_f64(out, c);
            }
        }
    }

    /// Reads an index previously written by [`Self::save`] (`NNCELL02`,
    /// checksum-verified), by older releases (`NNCELL01`, structural
    /// validation only) or as a shard of a sharded index (`NNCELL03`,
    /// whose id column is validated and dropped: the slots are the ids).
    /// Stored cell pieces are validated and dropped; the live points are
    /// STR bulk-loaded into a fresh point tree, as in
    /// [`NnCellIndex::build`].
    ///
    /// # Errors
    /// I/O failures, a bad magic/version, a checksum mismatch, or
    /// structural corruption. Never panics on hostile input.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, PersistError> {
        Self::load_with_vfs(&StdVfs, path.as_ref())
    }

    /// [`Self::load`] through an explicit [`Vfs`] (fault injection, tests).
    ///
    /// # Errors
    /// See [`Self::load`].
    pub fn load_with_vfs(vfs: &dyn Vfs, path: &Path) -> Result<Self, PersistError> {
        Ok(read_file(vfs, path)?.0)
    }

    /// Reads a shard written by [`Self::save_shard`], or any file
    /// [`Self::load`] reads, with its id column: the stored one, or
    /// `rule`'s numbering for a file without one.
    ///
    /// # Errors
    /// See [`Self::load`].
    pub(crate) fn load_shard(
        vfs: &dyn Vfs,
        path: &Path,
        rule: RoundRobin,
    ) -> Result<(Self, Vec<usize>), PersistError> {
        let (index, ids) = read_file(vfs, path)?;
        let ids = ids.unwrap_or_else(|| (0..index.slots()).map(|l| rule.global(l)).collect());
        Ok((index, ids))
    }
}

/// Reads and checks a file of any format: the index, and the id column
/// of an `NNCELL03` file.
fn read_file(
    vfs: &dyn Vfs,
    path: &Path,
) -> Result<(NnCellIndex<Euclidean>, Option<Vec<usize>>), PersistError> {
    let bytes = vfs.read(path)?;
    if bytes.len() < 8 {
        return Err(corrupt("file too short for header"));
    }
    let magic = &bytes[..8];
    let payload = if magic == MAGIC_V2 || magic == MAGIC_V3 {
        if bytes.len() < 12 {
            return Err(corrupt("file too short for checksum trailer"));
        }
        let body = &bytes[..bytes.len() - 4];
        let stored = u32::from_le_bytes([
            bytes[bytes.len() - 4],
            bytes[bytes.len() - 3],
            bytes[bytes.len() - 2],
            bytes[bytes.len() - 1],
        ]);
        let actual = crc32(body);
        if stored != actual {
            return Err(corrupt(format!(
                "checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"
            )));
        }
        &body[8..]
    } else if magic == MAGIC_V1 {
        &bytes[8..]
    } else {
        return Err(corrupt(format!(
            "bad magic {magic:?} (expected {MAGIC_V3:?}, {MAGIC_V2:?} or {MAGIC_V1:?})"
        )));
    };
    let mut r = SliceReader::new(payload);
    let (dim, cfg, rows, alive) = parse_points(&mut r)?;
    let ids = if magic == MAGIC_V3 {
        Some(parse_ids(&mut r, alive.len())?)
    } else {
        skip_pieces(&mut r, alive.len(), dim)?;
        None
    };
    if r.remaining() != 0 {
        return Err(corrupt("trailing bytes after index payload"));
    }
    Ok((
        NnCellIndex::from_rows(dim, cfg, Euclidean, rows, alive),
        ids,
    ))
}

/// The header and points of every format: dimensionality, configuration,
/// row-major coordinates and liveness.
type Points = (usize, BuildConfig, Vec<f64>, Vec<bool>);

/// Parses the header and the points with full structural validation:
/// every count is checked against the bytes actually present before any
/// allocation, every float invariant is checked before any constructor that
/// would assert.
fn parse_points(r: &mut SliceReader<'_>) -> Result<Points, PersistError> {
    let dim = r.u32()? as usize;
    if dim == 0 || dim > 1 << 16 {
        return Err(corrupt(format!("implausible dimensionality {dim}")));
    }
    let strategy = strategy_from_tag(r.u8()?)?;
    let solver = solver_from_tag(r.u8()?)?;
    let refine = r.u8()? != 0;
    let _reserved = r.u8()?;
    let pieces_budget = r.u32()? as usize;
    if pieces_budget > MAX_PIECES {
        return Err(corrupt(format!(
            "decomposition budget {pieces_budget} exceeds the format limit {MAX_PIECES}"
        )));
    }
    let radius = r.f64()?;
    if radius.is_finite() && radius <= 0.0 {
        return Err(corrupt(format!("non-positive sphere radius {radius}")));
    }
    let seed = r.u64()?;
    let block_size = r.u32()? as usize;
    if !(128..=1 << 26).contains(&block_size) {
        return Err(corrupt(format!("implausible block size {block_size}")));
    }

    // The constraint pool is a build/refine-time concern and is not
    // persisted; recovered indexes refine with the exhaustive pool.
    let mut builder = BuildConfig::builder()
        .strategy(strategy)
        .solver(solver)
        .seed(seed)
        .block_size(block_size)
        .refine_on_insert(refine);
    if pieces_budget > 0 {
        builder = builder.decompose_pieces(pieces_budget);
    }
    if radius.is_finite() {
        builder = builder.sphere_radius(radius);
    }
    let cfg = builder.build();

    let n = r.u64()? as usize;
    // Each point occupies 1 + 8·dim bytes; a count the remaining bytes
    // cannot hold is corruption, caught *before* any `with_capacity`.
    let point_bytes = 1 + 8 * dim;
    if n > r.remaining() / point_bytes {
        return Err(corrupt(format!(
            "point count {n} exceeds the bytes present"
        )));
    }
    let mut alive = Vec::with_capacity(n);
    let mut rows = Vec::with_capacity(n * dim);
    for _ in 0..n {
        alive.push(r.u8()? != 0);
        for _ in 0..dim {
            let c = r.f64()?;
            if !c.is_finite() {
                return Err(corrupt("non-finite coordinate"));
            }
            rows.push(c);
        }
    }
    Ok((dim, cfg, rows, alive))
}

/// Reads past the `n` piece lists of an `NNCELL01`/`02` file,
/// bounds-checked like every other field, and drops them.
fn skip_pieces(r: &mut SliceReader<'_>, n: usize, dim: usize) -> Result<(), PersistError> {
    for id in 0..n {
        let k = r.u32()? as usize;
        if k > MAX_PIECES {
            return Err(corrupt(format!("implausible piece count {k}")));
        }
        if k > r.remaining() / (16 * dim) {
            return Err(corrupt(format!(
                "piece count {k} exceeds the bytes present"
            )));
        }
        for _ in 0..k {
            let lo: Vec<f64> = (0..dim).map(|_| r.f64()).collect::<Result<_, _>>()?;
            let hi: Vec<f64> = (0..dim).map(|_| r.f64()).collect::<Result<_, _>>()?;
            // Saved boxes are always normalized (`hi ≥ lo`), so anything
            // inverted at all is corruption.
            if lo
                .iter()
                .zip(&hi)
                .any(|(l, h)| !(l.is_finite() && h.is_finite()) || h < l)
            {
                return Err(corrupt(format!("invalid piece bounds for point {id}")));
            }
        }
    }
    Ok(())
}

/// Reads the `n` global ids of an `NNCELL03` file. Whether they are the
/// ids a shard may hold is checked with its sibling shards', on open.
fn parse_ids(r: &mut SliceReader<'_>, n: usize) -> Result<Vec<usize>, PersistError> {
    if n > r.remaining() / 8 {
        return Err(corrupt(format!(
            "id column of {n} slots exceeds the bytes present"
        )));
    }
    (0..n)
        .map(|_| usize::try_from(r.u64()?).map_err(|_| corrupt("global id out of range")))
        .collect()
}

fn strategy_tag(s: Strategy) -> u8 {
    match s {
        Strategy::Correct => 0,
        Strategy::CorrectPruned => 1,
        Strategy::Point => 2,
        Strategy::Sphere => 3,
        Strategy::NnDirection => 4,
    }
}

fn strategy_from_tag(t: u8) -> Result<Strategy, PersistError> {
    Ok(match t {
        0 => Strategy::Correct,
        1 => Strategy::CorrectPruned,
        2 => Strategy::Point,
        3 => Strategy::Sphere,
        4 => Strategy::NnDirection,
        _ => return Err(corrupt(format!("unknown strategy tag {t}"))),
    })
}

fn solver_tag(s: SolverKind) -> u8 {
    match s {
        SolverKind::Simplex => 0,
        SolverKind::Seidel => 1,
        SolverKind::Auto => 2,
        SolverKind::DualSimplex => 3,
        SolverKind::ActiveSet => 4,
    }
}

fn solver_from_tag(t: u8) -> Result<SolverKind, PersistError> {
    Ok(match t {
        0 => SolverKind::Simplex,
        1 => SolverKind::Seidel,
        2 => SolverKind::Auto,
        3 => SolverKind::DualSimplex,
        4 => SolverKind::ActiveSet,
        _ => return Err(corrupt(format!("unknown solver tag {t}"))),
    })
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::QueryEngine;
    use crate::query::Query;
    use nncell_geom::Point;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// NN through the typed engine, with the old shim's `Option` shape.
    fn nn(idx: &NnCellIndex, q: &[f64]) -> Option<crate::index::QueryResult> {
        QueryEngine::sequential(idx)
            .execute(&Query::nn(q))
            .ok()
            .map(|r| r.best)
    }

    fn uniform(n: usize, d: usize, seed: u64) -> Vec<Point> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new((0..d).map(|_| rng.gen_range(0.0..1.0)).collect::<Vec<_>>()))
            .collect()
    }

    /// Whether `a` and `b` have the same slots, each with the same
    /// liveness and row.
    fn same_slots(a: &NnCellIndex, b: &NnCellIndex) -> bool {
        a.slots() == b.slots() && (0..a.slots()).all(|id| a.row(id) == b.row(id))
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("nncell_persist_{name}_{}", std::process::id()));
        p
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Rewrites a freshly saved file in the parent format: the same header
    /// and points followed by the NN-cell piece lists of `cells`, under the
    /// v2 magic with a recomputed checksum, or the v1 magic without one.
    fn with_pieces(saved: &[u8], n: usize, cells: &crate::NnCells, v2: bool) -> Vec<u8> {
        let mut out = saved[..saved.len() - 4 - 4 * n].to_vec();
        for id in 0..n {
            let pieces = cells.cell(id).map_or(&[][..], |c| &c.pieces[..]);
            put_u32(&mut out, pieces.len() as u32);
            for m in pieces {
                for &c in m.lo().iter().chain(m.hi()) {
                    put_f64(&mut out, c);
                }
            }
        }
        if v2 {
            let crc = crc32(&out);
            out.extend_from_slice(&crc.to_le_bytes());
        } else {
            out[..8].copy_from_slice(MAGIC_V1);
        }
        out
    }

    #[test]
    fn roundtrip_preserves_points_and_answers() {
        let pts = uniform(60, 3, 1);
        let mut idx = NnCellIndex::build(
            pts.clone(),
            BuildConfig::builder()
                .strategy(Strategy::Sphere)
                .decompose_pieces(4)
                .seed(7)
                .build(),
        )
        .unwrap();
        assert!(idx.remove(5));
        let path = tmp("roundtrip");
        idx.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let loaded = NnCellIndex::load(&path).unwrap();
        std::fs::remove_file(&path).ok();

        // Header, points with liveness, one empty piece list per point.
        assert_eq!(bytes.len(), 8 + 32 + 8 + 60 * (1 + 8 * 3) + 60 * 4 + 4);
        // The removed slot keeps no coordinates: liveness 0, a zero row.
        let slot5 = 8 + 32 + 8 + 5 * (1 + 8 * 3);
        assert!(bytes[slot5..slot5 + 1 + 8 * 3].iter().all(|&b| b == 0));
        assert_eq!(loaded.len(), 59);
        assert_eq!(loaded.dim(), idx.dim());
        assert_eq!(loaded.config().strategy, Strategy::Sphere);
        assert_eq!(loaded.config().decompose_pieces, Some(4));
        assert!(same_slots(&loaded, &idx));
        assert!(!loaded.is_live(5));
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..40 {
            let q: Vec<f64> = (0..3).map(|_| rng.gen_range(0.0..1.0)).collect();
            assert_eq!(nn(&loaded, &q), nn(&idx, &q));
        }
    }

    #[test]
    fn parent_format_files_with_pieces_still_load() {
        let pts = uniform(30, 2, 11);
        let idx = NnCellIndex::build(
            pts.clone(),
            BuildConfig::builder()
                .strategy(Strategy::Point)
                .decompose_pieces(3)
                .build(),
        )
        .unwrap();
        let cells = crate::NnCells::build(&idx);
        let path = tmp("legacy");
        idx.save(&path).unwrap();
        let saved = std::fs::read(&path).unwrap();
        for v2 in [true, false] {
            std::fs::write(&path, with_pieces(&saved, 30, &cells, v2)).unwrap();
            let loaded = NnCellIndex::load(&path).unwrap();
            assert!(same_slots(&loaded, &idx));
            assert_eq!(loaded.len(), idx.len());
        }
        // The legacy format has no checksum, so structural checks on the
        // piece lists are its only guard: an inverted box and an
        // implausible piece count are both typed corruption.
        let mut bytes = with_pieces(&saved, 30, &cells, false);
        let first_piece = 8 + 32 + 8 + 30 * 17 + 4;
        bytes[first_piece..first_piece + 8].copy_from_slice(&2.0f64.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            NnCellIndex::load(&path),
            Err(PersistError::Corrupt(_))
        ));
        let mut bytes = with_pieces(&saved, 30, &cells, false);
        bytes[first_piece - 4..first_piece].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            NnCellIndex::load(&path),
            Err(PersistError::Corrupt(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flips_anywhere_are_detected() {
        let pts = uniform(20, 2, 12);
        let idx = NnCellIndex::build(
            pts,
            BuildConfig::builder().strategy(Strategy::Point).build(),
        )
        .unwrap();
        let path = tmp("bitflip");
        idx.save(&path).unwrap();
        let original = std::fs::read(&path).unwrap();
        // Flip one bit at a stride of positions covering header, points,
        // pieces, and the trailer itself.
        for pos in (0..original.len()).step_by(7) {
            let mut mutated = original.clone();
            mutated[pos] ^= 0x10;
            std::fs::write(&path, &mutated).unwrap();
            match NnCellIndex::load(&path) {
                Err(PersistError::Corrupt(_)) => {}
                Err(PersistError::Io(e)) => panic!("unexpected I/O error: {e}"),
                Ok(_) => panic!("bit flip at byte {pos} went undetected"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn roundtrip_with_dead_slots() {
        let pts = uniform(40, 2, 2);
        let mut idx = NnCellIndex::build(
            pts.clone(),
            BuildConfig::builder()
                .strategy(Strategy::NnDirection)
                .build(),
        )
        .unwrap();
        assert!(idx.remove(5));
        assert!(idx.remove(17));
        let path = tmp("dead");
        idx.save(&path).unwrap();
        let loaded = NnCellIndex::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.len(), 38);
        assert!(!loaded.is_live(5));
        assert!(!loaded.is_live(17));
        assert!(loaded.is_live(6));
        // Removed points never returned.
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..30 {
            let q: Vec<f64> = (0..2).map(|_| rng.gen_range(0.0..1.0)).collect();
            let got = nn(&loaded, &q).unwrap();
            assert!(got.id != 5 && got.id != 17);
        }
    }

    #[test]
    fn loaded_index_supports_updates() {
        let pts = uniform(30, 2, 4);
        let idx = NnCellIndex::build(
            pts.clone(),
            BuildConfig::builder().strategy(Strategy::Sphere).build(),
        )
        .unwrap();
        let path = tmp("updates");
        idx.save(&path).unwrap();
        let mut loaded = NnCellIndex::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let new_id = loaded.insert(Point::new(vec![0.123, 0.456])).unwrap();
        assert_eq!(new_id, 30);
        let got = nn(&loaded, &[0.123, 0.456]).unwrap();
        assert_eq!(got.id, new_id);
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        let path = tmp("garbage");
        std::fs::write(&path, b"definitely not an index").unwrap();
        assert!(matches!(
            NnCellIndex::load(&path),
            Err(PersistError::Corrupt(_))
        ));

        // Valid prefix, truncated payload.
        let pts = uniform(20, 2, 5);
        let idx = NnCellIndex::build(
            pts,
            BuildConfig::builder().strategy(Strategy::Point).build(),
        )
        .unwrap();
        idx.save(&path).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(matches!(
            NnCellIndex::load(&path),
            Err(PersistError::Corrupt(_))
        ));

        // Trailing garbage.
        let mut extended = full.clone();
        extended.extend_from_slice(b"xx");
        std::fs::write(&path, &extended).unwrap();
        assert!(matches!(
            NnCellIndex::load(&path),
            Err(PersistError::Corrupt(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shard_files_carry_their_ids_and_older_files_take_the_round_robin_rule() {
        let mut idx = NnCellIndex::build(uniform(30, 2, 13), BuildConfig::default()).unwrap();
        assert!(idx.remove(4));
        let ids: Vec<usize> = (0..30).map(|l| 3 * l + 7).collect();
        let vfs = crate::vfs::FaultVfs::new(crate::vfs::FaultSchedule::none(1));
        let (v3, v2) = (Path::new("shard.nncell"), Path::new("index.nncell"));
        idx.save_shard(&ids, &vfs, v3).unwrap();
        idx.save_with_vfs(&vfs, v2).unwrap();
        let rule = RoundRobin {
            shard: 1,
            shards: 4,
        };
        let (loaded, got) = NnCellIndex::load_shard(&vfs, v3, rule).unwrap();
        assert_eq!(got, ids, "the stored column wins over the rule");
        assert!(same_slots(&loaded, &idx));
        assert!(!loaded.is_live(4));
        let (_, got) = NnCellIndex::load_shard(&vfs, v2, rule).unwrap();
        assert_eq!(got, (0..30).map(|l| 4 * l + 1).collect::<Vec<_>>());
        // A plain load reads a shard file as an index of its slots.
        let plain = NnCellIndex::load_with_vfs(&vfs, v3).unwrap();
        assert!(same_slots(&plain, &idx));
        // The id column is checksummed like every other byte.
        let bytes = vfs.read(v3).unwrap();
        assert_eq!(bytes.len(), 8 + 32 + 8 + 30 * (1 + 8 * 2) + 30 * 8 + 4);
        let mut flipped = bytes.clone();
        flipped[bytes.len() - 20] ^= 1;
        write_atomic(&vfs, v3, &flipped).unwrap();
        assert!(matches!(
            NnCellIndex::load_shard(&vfs, v3, rule),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            NnCellIndex::load("/nonexistent/nncell.idx"),
            Err(PersistError::Io(_))
        ));
    }
}
