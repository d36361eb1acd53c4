//! The point tree's leaves are an index's only store of its points, so
//! persistence reads each slot's row from them. Two properties pin that:
//!
//! - a built index saves, in both the plain (`NNCELL02`) and the shard
//!   (`NNCELL03`) format, byte for byte the file the row-buffer layout
//!   saved (the hashes below were recorded from that layout);
//! - a sharded durable index taken through inserts, removes, a fold, a
//!   checkpoint and more journaled updates reopens — through
//!   `ShardedIndex::open` and `ShardedIndex::open_durable` — answering
//!   every k-NN query with the ids and distance bits of
//!   `linear_scan_knn` over its live points, each live slot holding its
//!   point's row and each removed slot reloading dead.

use nncell_core::{
    linear_scan_knn, BuildConfig, FaultSchedule, FaultVfs, NnCellIndex, Query, ShardedIndex, Vfs,
};
use nncell_geom::Point;
use std::path::Path;

const DIM: usize = 5;

/// Point `i`: distinct for every `i` below 10 007 (the first coordinate
/// is `i` over 10 007).
fn point(i: usize) -> Point {
    Point::new(
        (0..DIM)
            .map(|j| ((i * (2 * j + 1) * 7919 + j * 13) % 10_007) as f64 / 10_007.0)
            .collect::<Vec<_>>(),
    )
}

fn cfg() -> BuildConfig {
    BuildConfig::builder().seed(3).block_size(512).build()
}

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn a_built_index_saves_the_bytes_the_row_buffer_layout_saved() {
    let vfs = FaultVfs::new(FaultSchedule::none(1));
    let idx = NnCellIndex::build((0..600).map(point).collect(), cfg()).unwrap();
    let path = Path::new("pinned.nncell");
    idx.save_with_vfs(&vfs, path).unwrap();
    let bytes = vfs.read(path).unwrap();
    assert_eq!(&bytes[..8], b"NNCELL02");
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        (PLAIN_LEN, PLAIN_FNV),
        "the saved bytes of a built index changed"
    );

    let sharded = ShardedIndex::build((0..600).map(point).collect(), 2, cfg()).unwrap();
    let dir = Path::new("pinned-shards");
    sharded.save_with_vfs(&vfs, dir).unwrap();
    for (i, &want) in SHARD_FNV.iter().enumerate() {
        let bytes = vfs.read(&dir.join(format!("shard-{i}.nncell"))).unwrap();
        assert_eq!(&bytes[..8], b"NNCELL03");
        assert_eq!(fnv1a(&bytes), want, "the saved bytes of shard {i} changed");
    }
}

/// Length and FNV-1a hash of the pinned `NNCELL02` file.
const PLAIN_LEN: usize = 27_052;
const PLAIN_FNV: u64 = 0x93f1_ad86_5841_c455;
/// FNV-1a hashes of the pinned sharded save's two `NNCELL03` files.
const SHARD_FNV: [u64; 2] = [0xc86d_0513_bb1f_50bc, 0xff56_aad3_7561_c192];

/// Every k-NN answer of `idx` (k = 1, 4, the live count and beyond it)
/// at a grid of probes equals `linear_scan_knn` over `live`, ids and
/// distance bits. Then, with the memtable tail folded, every id in `live`
/// sits live in its slot with its point's row, and every id in `removed`
/// that has a slot (an insert removed before any fold has none) sits
/// dead in it.
fn assert_exact(idx: &ShardedIndex, live: &[usize], removed: &[usize], ctx: &str) {
    assert_eq!(idx.len(), live.len(), "{ctx}");
    let points: Vec<Point> = live.iter().map(|&g| point(g)).collect();
    for p in 0..40 {
        let q: Vec<f64> = (0..DIM)
            .map(|j| ((p * 37 + j * 11) % 41) as f64 / 40.0)
            .collect();
        for k in [1, 4, live.len(), live.len() + 3] {
            let got: Vec<(usize, u64)> = idx
                .query(&Query::knn(q.clone(), k))
                .unwrap()
                .iter()
                .map(|r| (r.id, r.dist.to_bits()))
                .collect();
            let want: Vec<(usize, u64)> = linear_scan_knn(&points, &q, k)
                .iter()
                .map(|r| (live[r.id], r.dist.to_bits()))
                .collect();
            assert_eq!(got, want, "{ctx}: k = {k} at {q:?}");
        }
    }
    idx.flush().unwrap();
    for &g in live {
        let (shard, local) = idx.locate(g).expect("a live id is placed");
        let shard = idx.shard(shard);
        assert_eq!(shard.row(local), Some(point(g).into_vec()), "{ctx}: id {g}");
    }
    let mut dead = 0;
    for &g in removed {
        let Some((shard, local)) = idx.locate(g) else {
            continue;
        };
        let shard = idx.shard(shard);
        assert!(local < shard.slots(), "{ctx}: id {g}");
        assert!(!shard.is_live(local), "{ctx}: removed id {g} is live");
        assert_eq!(shard.row(local), None, "{ctx}: id {g}");
        dead += 1;
    }
    assert!(
        dead * 2 > removed.len(),
        "{ctx}: {dead} of {} removed ids have a slot",
        removed.len()
    );
}

#[test]
fn a_churned_sharded_index_reopens_exact_with_its_dead_slots_dead() {
    let dir = std::env::temp_dir().join(format!("nncell_slot_store_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let built = ShardedIndex::build((0..400).map(point).collect(), 2, cfg()).unwrap();
    let idx = built.into_durable(&dir).unwrap();
    let mut live: Vec<usize> = (0..400).collect();
    let mut removed = Vec::new();
    let mut churn = |idx: &ShardedIndex, from: usize, to: usize| {
        for i in from..to {
            assert_eq!(idx.insert(point(i)).unwrap(), i);
            live.push(i);
            // Remove an older point: a built slot or an earlier insert.
            let victim = live.remove((i * 7) % (live.len() - 1));
            assert!(idx.remove(victim).unwrap());
            removed.push(victim);
        }
    };
    churn(&idx, 400, 460);
    assert!(idx.flush().unwrap() > 0, "the fold applies the churn");
    churn(&idx, 460, 490);
    idx.checkpoint().unwrap();
    // Journaled after the checkpoint: replayed on reopen.
    churn(&idx, 490, 520);
    live.sort_unstable();
    removed.sort_unstable();
    assert_exact(&idx, &live, &removed, "before reopening");
    drop(idx);

    let reopened = ShardedIndex::open(&dir).unwrap();
    assert_exact(&reopened, &live, &removed, "open");
    drop(reopened);
    let durable = ShardedIndex::open_durable(&dir, DIM, 2, cfg()).unwrap();
    assert_exact(&durable, &live, &removed, "open_durable");
    // A second checkpoint writes the dead slots again; they reload dead.
    durable.checkpoint().unwrap();
    drop(durable);
    let again = ShardedIndex::open(&dir).unwrap();
    assert_exact(&again, &live, &removed, "checkpointed twice");
    drop(again);
    std::fs::remove_dir_all(&dir).ok();
}
