//! End-to-end robustness: a saved index file subjected to hundreds of
//! random corruptions must never panic the loader and must never produce
//! an index that silently disagrees with the original.

use nncell::core::vfs::StdVfs;
use nncell::core::wal::{read_wal, WalRecord, WalTail, WalWriter};
use nncell::core::{
    linear_scan_nn, BuildConfig, NnCellIndex, NnCells, PersistError, Query, QueryEngine, Strategy,
};
use nncell::data::{Generator, UniformGenerator};
use nncell::geom::Point;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// NN through the typed engine, with the removed shim's `Option` shape.
fn nn(idx: &NnCellIndex, q: &[f64]) -> Option<nncell::core::QueryResult> {
    QueryEngine::sequential(idx)
        .execute(&Query::nn(q))
        .ok()
        .map(|r| r.best)
}

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("nncell_robust_{name}_{}", std::process::id()));
    p
}

/// 100+ mutated and truncated files: every load either returns a typed
/// error or an index that answers a fixed query set identically to the
/// original. (With the `NNCELL02` checksum the expected outcome is
/// `PersistError::Corrupt` for every mutation; the agreement check is the
/// safety net that makes the property meaningful even if a mutation were
/// to slip past.)
#[test]
fn corrupted_index_files_never_panic_and_never_disagree() {
    let dim = 4;
    let gen = UniformGenerator::new(dim);
    let points = gen.generate(150, 900);
    let index = NnCellIndex::build(
        points.clone(),
        BuildConfig::builder().strategy(Strategy::Sphere).decompose_pieces(3).build(),
    )
    .unwrap();
    let queries: Vec<Vec<f64>> = gen
        .generate(40, 901)
        .into_iter()
        .map(nncell::geom::Point::into_vec)
        .collect();
    let expected: Vec<usize> = queries
        .iter()
        .map(|q| nn(&index, q).unwrap().id)
        .collect();

    let path = tmp("fuzz");
    index.save(&path).unwrap();
    let original = std::fs::read(&path).unwrap();
    let mut rng = SmallRng::seed_from_u64(902);
    let mut corrupt_count = 0usize;
    let mut survived = 0usize;

    let mut check = |bytes: &[u8], what: &str| {
        std::fs::write(&path, bytes).unwrap();
        match NnCellIndex::load(&path) {
            Err(PersistError::Corrupt(_)) => corrupt_count += 1,
            Err(PersistError::Io(e)) => panic!("{what}: unexpected I/O error {e}"),
            Ok(loaded) => {
                // A mutation that loads must be semantically harmless.
                for (q, &want) in queries.iter().zip(&expected) {
                    let got = nn(&loaded, q).unwrap();
                    let scan = linear_scan_nn(&points, q).unwrap();
                    assert_eq!(got.id, want, "{what}: loaded index disagrees at {q:?}");
                    assert!(
                        (got.dist - scan.dist).abs() < 1e-9,
                        "{what}: loaded index inexact at {q:?}"
                    );
                }
                survived += 1;
            }
        }
    };

    // 100 single-bit flips at random positions.
    for i in 0..100 {
        let pos = rng.gen_range(0..original.len());
        let bit = 1u8 << rng.gen_range(0..8u32);
        let mut mutated = original.clone();
        mutated[pos] ^= bit;
        check(&mutated, &format!("bit flip #{i} at byte {pos}"));
    }
    // 40 truncations, spread over the whole file.
    for i in 0..40 {
        let keep = rng.gen_range(0..original.len());
        check(&original[..keep], &format!("truncation #{i} to {keep} bytes"));
    }
    // 30 random-byte stomps of 1–16 consecutive bytes.
    for i in 0..30 {
        let start = rng.gen_range(0..original.len());
        let len = rng.gen_range(1..=16usize).min(original.len() - start);
        let mut mutated = original.clone();
        for b in &mut mutated[start..start + len] {
            *b = rng.gen_range(0..=255u32) as u8;
        }
        check(&mutated, &format!("stomp #{i} at {start}+{len}"));
    }
    std::fs::remove_file(&path).ok();

    // All 170 mutations were exercised; with the checksum in place every
    // one of them should have been flagged.
    assert_eq!(corrupt_count + survived, 170);
    assert_eq!(
        survived, 0,
        "checksum should catch every mutation of a v2 file"
    );
}

/// The same fuzz treatment for WAL files: bit flips, truncations, and
/// mid-record stomps. Every mutated log must either fail with a typed
/// `PersistError` (magic damage) or replay to a clean **prefix** of the
/// original record sequence with the damage reported in the tail — never a
/// panic, never a record that was not written, never a reordering.
#[test]
fn corrupted_wal_files_replay_clean_prefixes_or_fail_typed() {
    let vfs = StdVfs;
    let path = tmp("wal_fuzz");

    // A WAL holding a recognizable insert/remove mix.
    let records: Vec<WalRecord> = (0..24)
        .map(|i| {
            if i % 5 == 3 {
                WalRecord::Remove(i as u64 / 2)
            } else {
                WalRecord::Insert(Point::new(vec![
                    i as f64 / 24.0,
                    (i * 7 % 24) as f64 / 24.0,
                    (i * 13 % 24) as f64 / 24.0,
                ]))
            }
        })
        .collect();
    {
        let mut w = WalWriter::create(&vfs, &path).unwrap();
        for r in &records {
            w.append(r).unwrap();
        }
    }
    let original = std::fs::read(&path).unwrap();
    let mut rng = SmallRng::seed_from_u64(920);
    let mut typed_errors = 0usize;
    let mut dirty_tails = 0usize;
    let mut clean_replays = 0usize;

    let mut check = |bytes: &[u8], what: &str| {
        std::fs::write(&path, bytes).unwrap();
        match read_wal(&vfs, &path) {
            Err(PersistError::Corrupt(_)) => typed_errors += 1,
            Err(PersistError::Io(e)) => panic!("{what}: unexpected I/O error {e}"),
            Ok(replay) => {
                assert!(
                    replay.records.len() <= records.len(),
                    "{what}: replay invented records"
                );
                assert_eq!(
                    replay.records,
                    records[..replay.records.len()],
                    "{what}: replay is not a prefix of what was written"
                );
                match replay.tail {
                    WalTail::Clean => {
                        // Only an undamaged log (or one truncated exactly at
                        // a frame boundary) may read back clean.
                        clean_replays += 1;
                    }
                    WalTail::Truncated { .. } | WalTail::Corrupt { .. } => dirty_tails += 1,
                }
            }
        }
    };

    // 100 single-bit flips.
    for i in 0..100 {
        let pos = rng.gen_range(0..original.len());
        let bit = 1u8 << rng.gen_range(0..8u32);
        let mut mutated = original.clone();
        mutated[pos] ^= bit;
        check(&mutated, &format!("bit flip #{i} at byte {pos}"));
    }
    // 40 truncations.
    for i in 0..40 {
        let keep = rng.gen_range(0..original.len());
        check(&original[..keep], &format!("truncation #{i} to {keep} bytes"));
    }
    // 30 mid-record stomps of 1–16 consecutive bytes.
    for i in 0..30 {
        let start = rng.gen_range(0..original.len());
        let len = rng.gen_range(1..=16usize).min(original.len() - start);
        let mut mutated = original.clone();
        for b in &mut mutated[start..start + len] {
            *b = rng.gen_range(0..=255u32) as u8;
        }
        check(&mutated, &format!("stomp #{i} at {start}+{len}"));
    }
    std::fs::remove_file(&path).ok();

    assert_eq!(typed_errors + dirty_tails + clean_replays, 170);
    // The magic is 8 of ~1000 bytes, so the vast majority of mutations must
    // land in frames and be caught by the per-record CRC as dirty tails.
    assert!(
        dirty_tails >= 100,
        "only {dirty_tails} dirty tails — the CRC framing is not doing its job"
    );
}

/// The unmutated file still loads and agrees — guards against the fuzz
/// setup itself being vacuous.
#[test]
fn pristine_file_roundtrips_exactly() {
    let dim = 4;
    let gen = UniformGenerator::new(dim);
    let points = gen.generate(120, 910);
    let index = NnCellIndex::build(points.clone(), BuildConfig::builder().strategy(Strategy::Point).build()).unwrap();
    let path = tmp("pristine");
    index.save(&path).unwrap();
    let loaded = NnCellIndex::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(NnCells::build(&loaded).verify_integrity(&loaded).is_ok());
    for q in gen.generate(40, 911) {
        let q = q.into_vec();
        assert_eq!(
            nn(&loaded, &q).unwrap().id,
            nn(&index, &q).unwrap().id
        );
    }
}

/// Files written by earlier releases end with one NN-cell piece list per
/// point. Both the checksummed `NNCELL02` and the legacy `NNCELL01` form
/// still load and answer like the index they were saved from, and every
/// bit flip of the `NNCELL02` form is still a typed corruption.
#[test]
fn parent_format_files_with_pieces_load_and_reject_corruption() {
    let dim = 4;
    let gen = UniformGenerator::new(dim);
    let points = gen.generate(150, 930);
    let index = NnCellIndex::build(
        points.clone(),
        BuildConfig::builder().strategy(Strategy::Sphere).decompose_pieces(3).build(),
    )
    .unwrap();
    let cells = NnCells::build(&index);
    let path = tmp("parent_format");
    index.save(&path).unwrap();
    let saved = std::fs::read(&path).unwrap();
    // Drop the trailer and the empty piece lists, then write the pieces.
    let mut v1 = saved[..saved.len() - 4 - 4 * points.len()].to_vec();
    v1[..8].copy_from_slice(b"NNCELL01");
    for id in 0..points.len() {
        let pieces = &cells.cell(id).unwrap().pieces;
        v1.extend_from_slice(&(pieces.len() as u32).to_le_bytes());
        for m in pieces {
            for c in m.lo().iter().chain(m.hi()) {
                v1.extend_from_slice(&c.to_le_bytes());
            }
        }
    }
    let mut v2 = v1.clone();
    v2[..8].copy_from_slice(b"NNCELL02");
    let crc = nncell::core::persist::crc32(&v2);
    v2.extend_from_slice(&crc.to_le_bytes());

    let queries = gen.generate(40, 931);
    for bytes in [&v1, &v2] {
        std::fs::write(&path, bytes).unwrap();
        let loaded = NnCellIndex::load(&path).unwrap();
        assert_eq!(loaded.points(), index.points());
        for q in &queries {
            assert_eq!(nn(&loaded, q.as_slice()), nn(&index, q.as_slice()));
        }
    }
    let mut rng = SmallRng::seed_from_u64(932);
    for i in 0..100 {
        let pos = rng.gen_range(0..v2.len());
        let mut mutated = v2.clone();
        mutated[pos] ^= 1u8 << rng.gen_range(0..8u32);
        std::fs::write(&path, &mutated).unwrap();
        assert!(
            matches!(NnCellIndex::load(&path), Err(PersistError::Corrupt(_))),
            "bit flip #{i} at byte {pos} went undetected"
        );
    }
    std::fs::remove_file(&path).ok();
}
