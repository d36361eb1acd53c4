//! Memtable-tail parity: with writes sitting unfolded in the shards'
//! tails, every k-NN and radius answer must be bit-identical (ids and
//! distance bits, tie order included) to a linear scan of the live set.
//!
//! Inserts and removes interleave, removes hit both folded points and
//! unfolded tail inserts, and an occasional `fold_once` moves the tail
//! into the shard indexes, so answers come from every mix of snapshot and
//! tail. Coordinates sit on a coarse lattice so ties are common. Every
//! answer's counters must also add up: each evaluated point, indexed or
//! in the tail, is examined once and is either within the bound or beyond
//! it.

use nncell_core::{
    BuildConfig, DurableError, Query, QueryError, QueryResponse, ShardedIndex,
    Strategy as BuildStrategy,
};
use nncell_geom::{dist_sq, Point};
use proptest::prelude::*;
use proptest::TestCaseError;
use std::collections::BTreeMap;

/// Coarse lattice coordinate: 5 levels per axis ⇒ frequent exact ties.
fn coarse_coord() -> impl Strategy<Value = f64> {
    (0..=4u32).prop_map(|v| v as f64 / 4.0)
}

/// `(global id, distance bits)` of the live points within `radius` of `q`
/// (all of them when `radius` is `None`), ranked by `(distance, id)`,
/// at most `k`.
fn scan(
    live: &BTreeMap<usize, Point>,
    q: &[f64],
    k: usize,
    radius: Option<f64>,
) -> Vec<(usize, u64)> {
    let mut all: Vec<(usize, f64)> = live
        .iter()
        .map(|(&id, p)| (id, dist_sq(q, p).sqrt()))
        .filter(|&(_, d)| radius.is_none_or(|r| d <= r))
        .collect();
    all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    all.into_iter()
        .take(k)
        .map(|(id, d)| (id, d.to_bits()))
        .collect()
}

fn bits(r: &QueryResponse) -> Vec<(usize, u64)> {
    r.iter().map(|x| (x.id, x.dist.to_bits())).collect()
}

/// Every evaluation is counted once as examined, and then exactly once as
/// within the bound (`candidates`) or beyond it.
fn counters_add_up(r: &QueryResponse, what: &str, ctx: &str) -> Result<(), TestCaseError> {
    let s = r.stats;
    prop_assert_eq!(
        s.candidates_examined,
        s.candidates + s.candidates_aborted_early,
        "{} counters: {}",
        what,
        ctx
    );
    Ok(())
}

/// Checks one k-NN and one radius query against the scan of `live`.
fn check(
    idx: &ShardedIndex,
    live: &BTreeMap<usize, Point>,
    q: &[f64],
    k: usize,
    radius: f64,
    ctx: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(idx.len(), live.len(), "len: {}", ctx);
    match idx.query(&Query::knn(q, k)) {
        Ok(r) => {
            prop_assert_eq!(bits(&r), scan(live, q, k, None), "knn k={}: {}", k, ctx);
            counters_add_up(&r, "knn", ctx)?;
        }
        Err(e) => {
            prop_assert_eq!(e, QueryError::EmptyIndex, "knn: {}", ctx);
            prop_assert!(live.is_empty(), "knn failed on a live set: {}", ctx);
        }
    }
    let want = scan(live, q, usize::MAX, Some(radius));
    match idx.query(&Query::radius(q, radius)) {
        Ok(r) => {
            prop_assert_eq!(bits(&r), want, "radius {}: {}", radius, ctx);
            counters_add_up(&r, "radius", ctx)?;
        }
        Err(e) => {
            prop_assert!(
                matches!(e, QueryError::EmptyRadius | QueryError::EmptyIndex),
                "radius error {:?}: {}",
                e,
                ctx
            );
            prop_assert!(
                want.is_empty(),
                "radius failed on a non-empty ball: {}",
                ctx
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tail_answers_match_a_linear_scan_of_the_live_set(
        base in prop::collection::vec(prop::collection::vec(coarse_coord(), 3), 1..20),
        shards in 1usize..=3,
        // (kind, point, pick, k draw, query, radius draw) per step.
        ops in prop::collection::vec(
            (
                0..12u32,
                prop::collection::vec(coarse_coord(), 3),
                0..1000usize,
                0..1000usize,
                prop::collection::vec(coarse_coord(), 3),
                0..4usize,
            ),
            1..40,
        ),
    ) {
        // Distinct base points; the build rejects duplicates.
        let mut base_pts: Vec<Point> = Vec::new();
        for c in &base {
            let p = Point::new(c.clone());
            if !base_pts.iter().any(|b| b.as_slice() == p.as_slice()) {
                base_pts.push(p);
            }
        }
        let cfg = BuildConfig::builder().strategy(BuildStrategy::Sphere).seed(3).build();
        let idx = ShardedIndex::build(base_pts.clone(), shards, cfg).unwrap();
        let mut live: BTreeMap<usize, Point> = base_pts.into_iter().enumerate().collect();
        let mut next_id = live.len();
        for (step, (kind, coords, pick, k_draw, q, r_draw)) in ops.iter().enumerate() {
            let ctx = format!("S={shards} step {step} tail={}", idx.tail_depth());
            match kind {
                // Insert: a live duplicate is refused, anything else acks
                // under the next global id.
                0..=5 => {
                    let p = Point::new(coords.clone());
                    let dup = live.values().any(|l| l.as_slice() == p.as_slice());
                    match idx.insert(p.clone()) {
                        Ok(id) => {
                            prop_assert!(!dup, "duplicate accepted: {}", ctx);
                            prop_assert_eq!(id, next_id, "{}", ctx);
                            next_id += 1;
                            live.insert(id, p);
                        }
                        Err(DurableError::Invalid(_)) => {
                            prop_assert!(dup, "fresh point refused: {}", ctx);
                        }
                        Err(e) => return Err(TestCaseError::Fail(format!("insert: {e}: {ctx}"))),
                    }
                }
                // Remove a live id: older ids are mostly folded, newer
                // ones mostly unfolded tail inserts.
                6..=9 if !live.is_empty() => {
                    let id = *live.keys().nth(pick % live.len()).unwrap();
                    prop_assert!(idx.remove(id).unwrap(), "live id {} not removed: {}", id, ctx);
                    prop_assert!(!idx.remove(id).unwrap(), "id {} removed twice: {}", id, ctx);
                    live.remove(&id);
                }
                10 => {
                    idx.fold_once().unwrap();
                }
                _ => {}
            }
            let k = 1 + k_draw % (live.len() + 2);
            let radius = [0.0, 0.25, 0.5, 2.0][*r_draw];
            check(&idx, &live, q, k, radius, &ctx)?;
        }
        idx.flush().unwrap();
        prop_assert_eq!(idx.tail_depth(), 0);
        let q = [0.5, 0.5, 0.5];
        check(&idx, &live, &q, live.len() + 2, 0.5, "after flush")?;
    }
}
