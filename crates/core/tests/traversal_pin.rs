//! Pins the k-NN traversal's work on one fixed-seed index: the summed
//! page reads, pruned subtrees and distance evaluations of a few hundred
//! queries must equal constants recorded before the read path's kernel
//! and MINDIST went branch-free. A change to how a candidate is evaluated
//! or how a box's MINDIST is computed must leave the traversal itself —
//! which pages it reads, which it prunes, which points it streams —
//! exactly as it was.

use nncell_core::{BuildConfig, Query, ShardedIndex};
use nncell_data::{Generator, UniformGenerator};

#[test]
fn knn_traversal_counts_match_the_recorded_constants() {
    const DIM: usize = 8;
    let points = UniformGenerator::new(DIM).generate(4000, 17);
    let idx = ShardedIndex::build(points, 2, BuildConfig::default()).unwrap();
    let queries = UniformGenerator::new(DIM).generate(300, 18);
    let (mut pages, mut pruned, mut examined) = (0u64, 0u64, 0usize);
    for q in &queries {
        let r = idx.query(&Query::knn(q.as_slice(), 10)).unwrap();
        assert_eq!(r.len(), 10);
        let s = r.stats;
        assert!(!s.fallback);
        assert_eq!(
            s.candidates_examined,
            s.candidates + s.candidates_aborted_early
        );
        pages += s.pages;
        pruned += s.nodes_pruned;
        examined += s.candidates_examined;
    }
    assert_eq!(
        (pages, pruned, examined),
        (22_182, 17_506, 602_750),
        "(pages, nodes_pruned, candidates_examined) over 300 k=10 queries"
    );
}
