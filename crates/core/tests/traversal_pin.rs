//! Pins the k-NN traversal's work on one fixed-seed index.
//!
//! Run shard by shard (one `QueryEngine` per shard snapshot, each its
//! own one-tree traversal), the summed page reads, pruned subtrees and
//! distance evaluations of a few hundred queries must equal constants
//! recorded before the read path's kernel and MINDIST went branch-free:
//! a change to how a candidate is evaluated or how a box's MINDIST is
//! computed must leave the traversal itself — which pages it reads,
//! which it prunes, which points it streams — exactly as it was.
//!
//! The sharded index answers the same queries with one traversal over
//! both shards' trees under one k-best. Its counts are pinned to their
//! own constants, and per query it may read no more pages and evaluate no
//! more points than the two shards do on their own: the global k-th
//! distance is never looser than a shard's own.

use nncell_core::{BuildConfig, Query, QueryEngine, QueryStats, ShardedIndex};
use nncell_data::{Generator, UniformGenerator};

fn checked(s: QueryStats) -> QueryStats {
    assert!(!s.fallback);
    assert_eq!(
        s.candidates_examined,
        s.candidates + s.candidates_aborted_early
    );
    s
}

#[test]
fn knn_traversal_counts_match_the_recorded_constants() {
    const DIM: usize = 8;
    let points = UniformGenerator::new(DIM).generate(4000, 17);
    let idx = ShardedIndex::build(points, 2, BuildConfig::default()).unwrap();
    let shards: Vec<_> = (0..idx.num_shards()).map(|i| idx.shard(i)).collect();
    let queries = UniformGenerator::new(DIM).generate(300, 18);
    let (mut pages, mut pruned, mut examined) = (0u64, 0u64, 0usize);
    let (mut f_pages, mut f_pruned, mut f_examined) = (0u64, 0u64, 0usize);
    for q in &queries {
        let query = Query::knn(q.as_slice(), 10);
        let (mut q_pages, mut q_examined) = (0u64, 0usize);
        for snap in &shards {
            let r = QueryEngine::sequential(snap).execute(&query).unwrap();
            assert_eq!(r.len(), 10);
            let s = checked(r.stats);
            q_pages += s.pages;
            q_examined += s.candidates_examined;
            pruned += s.nodes_pruned;
        }
        pages += q_pages;
        examined += q_examined;

        let r = idx.query(&query).unwrap();
        assert_eq!(r.len(), 10);
        let s = checked(r.stats);
        assert!(
            s.pages <= q_pages,
            "forest read more pages than the shards: {q:?}"
        );
        assert!(
            s.candidates_examined <= q_examined,
            "forest evaluated more points than the shards: {q:?}"
        );
        f_pages += s.pages;
        f_pruned += s.nodes_pruned;
        f_examined += s.candidates_examined;
    }
    assert_eq!(
        (pages, pruned, examined),
        (22_182, 17_506, 602_750),
        "per-shard (pages, nodes_pruned, candidates_examined) over 300 k=10 queries"
    );
    assert_eq!(
        (f_pages, f_pruned, f_examined),
        (17_812, 19_588, 470_719),
        "one-forest (pages, nodes_pruned, candidates_examined) over 300 k=10 queries"
    );
}

/// The radius kernel reads exactly the pages whose MBR meets the query
/// ball: the summed pages of 300 radius-0.5 queries on the sharded index
/// must equal the constant recorded while the kernel gathered through a
/// per-shard sphere query, and so must the number of points returned.
#[test]
fn radius_kernel_pages_match_the_recorded_constant() {
    const DIM: usize = 8;
    let points = UniformGenerator::new(DIM).generate(4000, 17);
    let idx = ShardedIndex::build(points, 2, BuildConfig::default()).unwrap();
    let queries = UniformGenerator::new(DIM).generate(300, 18);
    let (mut pages, mut hits) = (0u64, 0usize);
    for q in &queries {
        match idx.query(&Query::radius(q.as_slice(), 0.5)) {
            Ok(r) => {
                let s = checked(r.stats);
                pages += s.pages;
                hits += r.len();
            }
            Err(e) => panic!("radius query at {q:?}: {e}"),
        }
    }
    assert_eq!(
        (pages, hits),
        (21_840, 6230),
        "(pages, points returned) over 300 radius-0.5 queries"
    );
}
