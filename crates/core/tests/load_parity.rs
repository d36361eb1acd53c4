//! A loaded index reads like the one saved: build, load and durable
//! recovery all STR bulk-load the same validated rows, so a freshly built
//! index and every copy of it taken from disk walk the same point trees.
//! Their answers are bit-identical, and so is the work each query does:
//! pages read, subtrees pruned and points evaluated.

use nncell_core::{BuildConfig, Query, QueryResponse, ShardedIndex};
use nncell_geom::Point;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

const N: usize = 2000;
const DIM: usize = 8;
const K: usize = 10;

fn uniform(n: usize, seed: u64) -> Vec<Point> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            Point::new(
                (0..DIM)
                    .map(|_| rng.gen_range(0.0..1.0))
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

fn build(shards: usize) -> ShardedIndex {
    ShardedIndex::build(uniform(N, 5), shards, BuildConfig::default()).unwrap()
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("nncell_load_parity_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One query's answer as `(id, distance bits)` plus the counters the
/// traversal reports: pages, pruned subtrees, evaluated points.
type Reading = (Vec<(usize, u64)>, u64, u64, usize);

fn run(idx: &ShardedIndex, queries: &[Query]) -> Vec<Reading> {
    queries
        .iter()
        .map(|q| {
            let r: QueryResponse = idx.query(q).unwrap();
            let answer = r.iter().map(|n| (n.id, n.dist.to_bits())).collect();
            (
                answer,
                r.stats.pages,
                r.stats.nodes_pruned,
                r.stats.candidates_examined,
            )
        })
        .collect()
}

/// Panics at the first query whose reading differs from the built index's.
fn assert_reads_like(got: &[Reading], want: &[Reading], how: &str) {
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g, w, "{how}: query {i} (answer, pages, pruned, evaluated)");
    }
}

#[test]
fn a_loaded_index_reads_like_the_one_saved() {
    let queries: Vec<Query> = uniform(100, 9)
        .into_iter()
        .map(|p| Query::knn(p.into_vec(), K))
        .collect();
    for shards in [1, 2] {
        let built = build(shards);
        let want = run(&built, &queries);

        let dir = scratch_dir(&format!("plain{shards}"));
        built.save(&dir).unwrap();
        let loaded = ShardedIndex::load(&dir).unwrap();
        assert_reads_like(
            &run(&loaded, &queries),
            &want,
            &format!("S={shards}: save → load"),
        );
        let opened = ShardedIndex::open(&dir).unwrap();
        assert_reads_like(
            &run(&opened, &queries),
            &want,
            &format!("S={shards}: save → open"),
        );
        if shards == 1 {
            let file = dir.join("one.nncell");
            built.shard(0).save(&file).unwrap();
            let opened = ShardedIndex::open(&file).unwrap();
            assert_reads_like(&run(&opened, &queries), &want, "S=1: file save → open");
        }
        std::fs::remove_dir_all(&dir).ok();

        let dir = scratch_dir(&format!("durable{shards}"));
        build(shards).into_durable(&dir).unwrap();
        let recovered = ShardedIndex::open(&dir).unwrap();
        assert!(recovered.recovery().iter().all(|r| r.replayed == 0));
        assert_reads_like(
            &run(&recovered, &queries),
            &want,
            &format!("S={shards}: into_durable → open"),
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
