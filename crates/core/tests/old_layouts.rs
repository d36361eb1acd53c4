//! Sharded layouts written before shard files carried an id column still
//! open as they are. The two fixtures under `tests/fixtures/` were written
//! by the round-robin release, which dealt global id `g` to shard `g % S`
//! at slot `g / S`:
//!
//! - `rr2-plain`: a `MANIFEST` directory (S = 2, `NNCELL02` shard files):
//!   points 0..24 built, ids 3 and 10 removed, points 24 and 25 inserted,
//!   then saved;
//! - `rr2-durable`: a durable directory (S = 2): points 0..24 built and
//!   converted, then points 24..27 inserted and ids 7, 25 and 0 removed
//!   without a checkpoint, so every update is an id-less `Insert` or a
//!   `Remove` record in a shard's WAL.
//!
//! Point `i` is [`point`]`(i)`. Each layout must open under the
//! round-robin ids, answer every query with the ids and distance bits of a
//! linear scan over its live points, give the next insert the next dense
//! id, and answer the same after a checkpoint (or save) and a reopen.

use nncell_core::{Query, QueryResponse, ShardedIndex};
use nncell_geom::{dist_sq, Point};
use std::path::{Path, PathBuf};

/// Point `i` of both fixtures.
fn point(i: usize) -> Point {
    Point::new(vec![
        ((i * 37) % 101) as f64 / 101.0 + 0.003,
        ((i * 61) % 103) as f64 / 103.0 + 0.002,
        ((i * 17) % 107) as f64 / 107.0 + 0.001,
    ])
}

/// A fresh copy of fixture `name` (opening a durable directory rewrites
/// it, and the committed copy must stay as the old release wrote it).
fn copy_fixture(name: &str) -> PathBuf {
    fn copy(from: &Path, to: &Path) {
        std::fs::create_dir_all(to).unwrap();
        for entry in std::fs::read_dir(from).unwrap() {
            let path = entry.unwrap().path();
            let target = to.join(path.file_name().unwrap());
            if path.is_dir() {
                copy(&path, &target);
            } else {
                std::fs::copy(&path, &target).unwrap();
            }
        }
    }
    let from = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let to = std::env::temp_dir().join(format!("nncell_old_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&to).ok();
    copy(&from, &to);
    to
}

/// `(id, distance bits)` of the live points within `radius` of `q` (all
/// of them for `radius = ∞`), ranked by `(distance, id)`, at most `k`.
fn scan(live: &[usize], q: &[f64], k: usize, radius: f64) -> Vec<(usize, u64)> {
    let mut all: Vec<(f64, usize)> = live
        .iter()
        .map(|&g| (dist_sq(q, &point(g)).sqrt(), g))
        .filter(|(d, _)| *d <= radius)
        .collect();
    all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    all.into_iter()
        .take(k)
        .map(|(d, g)| (g, d.to_bits()))
        .collect()
}

fn bits(r: &QueryResponse) -> Vec<(usize, u64)> {
    r.iter().map(|x| (x.id, x.dist.to_bits())).collect()
}

/// Every probe's k-NN (k = 1, 3, the live count and beyond it) and
/// radius answer equals the scan over `live`.
fn assert_answers(idx: &ShardedIndex, live: &[usize], ctx: &str) {
    assert_eq!(idx.len(), live.len(), "{ctx}");
    let probes = (0..30)
        .map(|i| point(i).into_vec())
        .chain((0..20).map(|i| vec![(i % 5) as f64 / 4.0, (i / 5) as f64 / 3.0, 0.5]));
    for q in probes {
        for k in [1, 3, live.len(), live.len() + 2] {
            let got = idx.query(&Query::knn(q.clone(), k)).unwrap();
            assert_eq!(
                bits(&got),
                scan(live, &q, k, f64::INFINITY),
                "{ctx}: k = {k} at {q:?}"
            );
        }
        let want = scan(live, &q, usize::MAX, 0.3);
        match idx.query(&Query::radius(q.clone(), 0.3)) {
            Ok(got) => assert_eq!(bits(&got), want, "{ctx}: radius at {q:?}"),
            Err(_) => assert!(want.is_empty(), "{ctx}: radius at {q:?}"),
        }
    }
}

/// Opens the copied layout, checks the round-robin placement of every
/// assigned id and the answers, inserts one point, and returns the index
/// with its live ids.
fn open_and_check(
    dir: &Path,
    slots: usize,
    mut live: Vec<usize>,
    ctx: &str,
) -> (ShardedIndex, Vec<usize>) {
    let idx = ShardedIndex::open(dir).unwrap();
    assert_eq!(idx.num_shards(), 2, "{ctx}");
    for g in 0..slots {
        assert_eq!(
            idx.locate(g),
            Some((g % 2, g / 2)),
            "{ctx}: id {g} under the round-robin rule"
        );
        let (shard, local) = (g % 2, g / 2);
        let stored = idx.shard(shard);
        assert!(local < stored.slots(), "{ctx}: id {g} has its slot");
        // A removed point's coordinates are not kept.
        let want = live.contains(&g).then(|| point(g).into_vec());
        assert_eq!(stored.row(local), want, "{ctx}: id {g}");
        assert_eq!(stored.is_live(local), live.contains(&g), "{ctx}: id {g}");
    }
    assert_eq!(idx.locate(slots), None, "{ctx}");
    assert_answers(&idx, &live, ctx);
    assert_eq!(
        idx.insert(point(slots)).unwrap(),
        slots,
        "{ctx}: the next dense id"
    );
    live.push(slots);
    assert_answers(&idx, &live, &format!("{ctx}, after an insert"));
    (idx, live)
}

#[test]
fn a_round_robin_manifest_directory_opens_and_answers_exactly() {
    let dir = copy_fixture("rr2-plain");
    for i in 0..2 {
        let bytes = std::fs::read(dir.join(format!("shard-{i}.nncell"))).unwrap();
        assert_eq!(
            &bytes[..8],
            b"NNCELL02",
            "the fixture predates the id column"
        );
    }
    let live: Vec<usize> = (0..26).filter(|g| ![3, 10].contains(g)).collect();
    let (idx, live) = open_and_check(&dir, 26, live, "rr2-plain");
    // Saved again, the shards carry their ids and reopen the same.
    let saved = dir.join("resaved");
    idx.save(&saved).unwrap();
    drop(idx);
    let reopened = ShardedIndex::open(&saved).unwrap();
    assert_answers(&reopened, &live, "rr2-plain, saved and reopened");
    assert_eq!(reopened.insert(point(27)).unwrap(), 27);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_round_robin_durable_directory_replays_and_answers_exactly() {
    let dir = copy_fixture("rr2-durable");
    let live: Vec<usize> = (0..27).filter(|g| ![0, 7, 25].contains(g)).collect();
    let (idx, live) = open_and_check(&dir, 27, live, "rr2-durable");
    assert_eq!(
        idx.recovery().iter().map(|r| r.replayed).sum::<usize>(),
        6,
        "every un-checkpointed record replays"
    );
    // The checkpoint writes the shards with their ids and re-journals
    // the unfolded insert under its global id.
    idx.checkpoint().unwrap();
    drop(idx);
    let reopened = ShardedIndex::open(&dir).unwrap();
    assert_eq!(
        reopened
            .recovery()
            .iter()
            .map(|r| r.replayed)
            .sum::<usize>(),
        1
    );
    assert_answers(&reopened, &live, "rr2-durable, checkpointed and reopened");
    assert_eq!(reopened.insert(point(28)).unwrap(), 28);
    std::fs::remove_dir_all(&dir).ok();
}
