//! Exactness of the sub-quadratic build path and the radius query.
//!
//! The approximate-neighbor constraint pool drops rivals from the LP, and
//! Lemma 1 says dropping rivals only *grows* cells — so pool-built NN-cells
//! are still a covering and must answer every query **bit-identically** to
//! exhaustive-built ones (the answers are properties of the point set, not
//! of the cell approximations). These properties pin that down for
//! static builds, for build-then-insert with the incremental re-solve
//! rule, and for the new radius query against a linear scan.

use nncell_cells::NnCells;
use nncell_core::{
    linear_scan_knn, BuildConfig, ConstraintPool, NnCellIndex, Query, QueryEngine, QueryError,
    ShardedIndex, Strategy as BuildStrategy,
};
use nncell_geom::{dist_sq, Point};
use proptest::prelude::*;

fn coord() -> impl Strategy<Value = f64> {
    (0..=1000u32).prop_map(|v| v as f64 / 1000.0)
}

fn point_set(d: usize, min: usize, max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(prop::collection::vec(coord(), d), min..max).prop_filter_map(
        "distinct points",
        |pts| {
            for (i, p) in pts.iter().enumerate() {
                for q in pts.iter().skip(i + 1) {
                    if dist_sq(p, q) <= 1e-9 {
                        return None;
                    }
                }
            }
            Some(pts.into_iter().map(Point::new).collect())
        },
    )
}

fn exhaustive_cfg() -> BuildConfig {
    BuildConfig::builder()
        .strategy(BuildStrategy::NnDirection)
        .seed(11)
        .build()
}

fn pooled_cfg(k: usize) -> BuildConfig {
    BuildConfig::builder()
        .strategy(BuildStrategy::NnDirection)
        .constraint_pool(ConstraintPool::ApproxKnn { k })
        .seed(11)
        .build()
}

/// Both builds must answer the cell query and a spread of engine `knn`
/// queries with the same ids and bit-equal distances.
fn assert_answer_parity(
    (a, cells_a): (&NnCellIndex, &NnCells),
    (b, cells_b): (&NnCellIndex, &NnCells),
    queries: &[Vec<f64>],
    tag: &str,
) {
    let ea = QueryEngine::sequential(a);
    let eb = QueryEngine::sequential(b);
    let n = a.len();
    for q in queries {
        let (na, nb) = (cells_a.nn(a, q).unwrap(), cells_b.nn(b, q).unwrap());
        assert_eq!(
            (na.id, na.dist.to_bits()),
            (nb.id, nb.dist.to_bits()),
            "{tag}: q={q:?} cell answers diverged"
        );
        for k in [1usize, 2, (n / 2).max(1), n] {
            let ra = ea.execute(&Query::knn(q.clone(), k));
            let rb = eb.execute(&Query::knn(q.clone(), k));
            let (ra, rb) = match (ra, rb) {
                (Ok(ra), Ok(rb)) => (ra, rb),
                (ra, rb) => panic!("{tag}: k={k} q={q:?}: {ra:?} vs {rb:?}"),
            };
            let ids_a: Vec<(usize, u64)> = ra.iter().map(|r| (r.id, r.dist.to_bits())).collect();
            let ids_b: Vec<(usize, u64)> = rb.iter().map(|r| (r.id, r.dist.to_bits())).collect();
            assert_eq!(ids_a, ids_b, "{tag}: k={k} q={q:?} answers diverged");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Static build, d = 2: pool-built ≡ exhaustive-built.
    #[test]
    fn pool_build_matches_exhaustive_d2(
        pts in point_set(2, 8, 40),
        queries in prop::collection::vec(prop::collection::vec(coord(), 2), 6),
        k in 2usize..12,
    ) {
        let ex = NnCellIndex::build(pts.clone(), exhaustive_cfg()).unwrap();
        let po = NnCellIndex::build(pts.clone(), pooled_cfg(k)).unwrap();
        let (cex, cpo) = (NnCells::build(&ex), NnCells::build(&po));
        assert_answer_parity((&ex, &cex), (&po, &cpo), &queries, "static d=2");
    }

    /// Static build, d = 8 (where the pool floors and the degeneracy
    /// fallback do real work).
    #[test]
    fn pool_build_matches_exhaustive_d8(
        pts in point_set(8, 20, 40),
        queries in prop::collection::vec(prop::collection::vec(coord(), 8), 4),
        k in 2usize..8,
    ) {
        let ex = NnCellIndex::build(pts.clone(), exhaustive_cfg()).unwrap();
        let po = NnCellIndex::build(pts.clone(), pooled_cfg(k)).unwrap();
        let (cex, cpo) = (NnCells::build(&ex), NnCells::build(&po));
        assert_answer_parity((&ex, &cex), (&po, &cpo), &queries, "static d=8");
    }

    /// Build half, insert the rest one by one: the pooled insert path
    /// (pooled cell compute + the bisector-cut incremental re-solve rule)
    /// must land on the same answers as the exhaustive dynamic path.
    #[test]
    fn pooled_insert_matches_exhaustive_insert(
        pts in point_set(2, 10, 30),
        queries in prop::collection::vec(prop::collection::vec(coord(), 2), 6),
    ) {
        let split = pts.len() / 2;
        let (base, rest) = pts.split_at(split);
        let mut ex = NnCellIndex::build(base.to_vec(), exhaustive_cfg()).unwrap();
        let mut po = NnCellIndex::build(base.to_vec(), pooled_cfg(4)).unwrap();
        let (mut cex, mut cpo) = (NnCells::build(&ex), NnCells::build(&po));
        for p in rest {
            let id = ex.insert(p.clone()).unwrap();
            cex.insert(&ex, id);
            let id = po.insert(p.clone()).unwrap();
            cpo.insert(&po, id);
        }
        assert_answer_parity((&ex, &cex), (&po, &cpo), &queries, "build-then-insert");
    }

    /// `Query::radius` against a linear scan, on pool-built unsharded and
    /// sharded surfaces: same ids, bit-equal distances, ascending
    /// `(dist, id)`; an empty ball is the typed `EmptyRadius`.
    #[test]
    fn radius_matches_linear_scan(
        pts in point_set(3, 5, 40),
        centers in prop::collection::vec(prop::collection::vec(coord(), 3), 4),
        r_milli in 0u32..900,
    ) {
        let r = r_milli as f64 / 1000.0;
        let idx = NnCellIndex::build(pts.clone(), pooled_cfg(6)).unwrap();
        let engine = QueryEngine::sequential(&idx);
        let sharded = ShardedIndex::build(pts.clone(), 3, pooled_cfg(6)).unwrap();
        for c in &centers {
            let mut want = linear_scan_knn(&pts, c, pts.len());
            want.retain(|x| x.dist <= r);
            let got = engine.execute(&Query::radius(c.clone(), r));
            let got_sharded = sharded.query(&Query::radius(c.clone(), r));
            if want.is_empty() {
                prop_assert_eq!(got.unwrap_err(), QueryError::EmptyRadius);
                prop_assert_eq!(got_sharded.unwrap_err(), QueryError::EmptyRadius);
                continue;
            }
            let want_ids: Vec<(usize, u64)> =
                want.iter().map(|x| (x.id, x.dist.to_bits())).collect();
            let got_ids: Vec<(usize, u64)> = got
                .unwrap()
                .iter()
                .map(|x| (x.id, x.dist.to_bits()))
                .collect();
            prop_assert_eq!(&want_ids, &got_ids, "unsharded ball at {:?} r={}", c, r);
            let shard_ids: Vec<(usize, u64)> = got_sharded
                .unwrap()
                .iter()
                .map(|x| (x.id, x.dist.to_bits()))
                .collect();
            prop_assert_eq!(&want_ids, &shard_ids, "sharded ball at {:?} r={}", c, r);
        }
    }
}
