//! Property-based tests of the tree core: after arbitrary insert/delete
//! sequences, queries must match brute force and structural invariants must
//! hold, for both split policies.

use nncell_geom::{dist_sq, Mbr};
use nncell_index::{bulk_load_rows, SplitPolicy, Tree, TreeConfig};
use proptest::prelude::*;

fn coord() -> impl Strategy<Value = f64> {
    (0..=1000u32).prop_map(|v| v as f64 / 1000.0)
}

fn points(d: usize, max: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(coord(), d), 1..max)
}

fn build(policy: SplitPolicy, d: usize, pts: &[Vec<f64>]) -> Tree {
    let cfg = match policy {
        SplitPolicy::RStar => TreeConfig::rstar(d),
        SplitPolicy::XTree => TreeConfig::xtree(d),
    }
    .with_point_leaves(true)
    .with_block_size(256); // tiny pages → real tree depth at test sizes
    let mut t = Tree::new(cfg);
    for (i, p) in pts.iter().enumerate() {
        t.insert(Mbr::from_point(p), i as u64);
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn nn_matches_scan(pts in points(3, 80), q in prop::collection::vec(coord(), 3)) {
        for policy in [SplitPolicy::RStar, SplitPolicy::XTree] {
            let t = build(policy, 3, &pts);
            t.validate();
            let scan = (0..pts.len())
                .min_by(|&a, &b| dist_sq(&q, &pts[a]).partial_cmp(&dist_sq(&q, &pts[b])).unwrap())
                .unwrap();
            let bf = t.nn_best_first(&q).unwrap();
            let bb = t.nn_branch_bound(&q).unwrap();
            let scan_d = dist_sq(&q, &pts[scan]).sqrt();
            prop_assert!((bf.dist - scan_d).abs() < 1e-9, "{policy:?} best-first distance");
            prop_assert!((bb.dist - scan_d).abs() < 1e-9, "{policy:?} branch-bound distance");
        }
    }

    #[test]
    fn window_query_matches_scan(pts in points(2, 100), a in prop::collection::vec(coord(), 2), b in prop::collection::vec(coord(), 2)) {
        let lo: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x.min(*y)).collect();
        let hi: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x.max(*y)).collect();
        let w = Mbr::new(lo, hi);
        for policy in [SplitPolicy::RStar, SplitPolicy::XTree] {
            let t = build(policy, 2, &pts);
            let mut got = t.window_query(&w);
            got.sort_unstable();
            let mut want: Vec<u64> = pts
                .iter()
                .enumerate()
                .filter(|(_, p)| w.contains_point(p))
                .map(|(i, _)| i as u64)
                .collect();
            want.sort_unstable();
            prop_assert_eq!(got, want, "{:?}", policy);
        }
    }

    #[test]
    fn interleaved_insert_delete_consistent(
        pts in points(2, 60),
        dels in prop::collection::vec(0usize..60, 0..30),
    ) {
        for policy in [SplitPolicy::RStar, SplitPolicy::XTree] {
            let mut t = build(policy, 2, &pts);
            let mut live: Vec<bool> = vec![true; pts.len()];
            for &k in &dels {
                let id = k % pts.len();
                let expect = live[id];
                let did = t.delete(&Mbr::from_point(&pts[id]), id as u64);
                prop_assert_eq!(did, expect, "{:?}: delete({}) mismatch", policy, id);
                live[id] = false;
            }
            t.validate();
            // Every live point findable, every dead point gone.
            for (i, p) in pts.iter().enumerate() {
                let hits = t.point_query(p);
                prop_assert_eq!(hits.contains(&(i as u64)), live[i], "{:?}: point {}", policy, i);
            }
            // NN over survivors still exact.
            if live.iter().any(|l| *l) {
                let q = [0.31, 0.62];
                let scan = (0..pts.len())
                    .filter(|&i| live[i])
                    .min_by(|&a, &b| dist_sq(&q, &pts[a]).partial_cmp(&dist_sq(&q, &pts[b])).unwrap())
                    .unwrap();
                let nn = t.nn_best_first(&q).unwrap();
                prop_assert!((nn.dist - dist_sq(&q, &pts[scan]).sqrt()).abs() < 1e-9);
            } else {
                prop_assert!(t.nn_best_first(&[0.5, 0.5]).is_none());
            }
        }
    }

    #[test]
    fn box_inserts_point_query_matches_scan(
        boxes in prop::collection::vec((prop::collection::vec(coord(), 2), prop::collection::vec(coord(), 2)), 1..60),
        q in prop::collection::vec(coord(), 2),
    ) {
        let mbrs: Vec<Mbr> = boxes
            .iter()
            .map(|(a, b)| {
                let lo: Vec<f64> = a.iter().zip(b).map(|(x, y)| x.min(*y)).collect();
                let hi: Vec<f64> = a.iter().zip(b).map(|(x, y)| x.max(*y)).collect();
                Mbr::new(lo, hi)
            })
            .collect();
        let mut t = Tree::new(TreeConfig::xtree(2).with_block_size(256));
        for (i, m) in mbrs.iter().enumerate() {
            t.insert(m.clone(), i as u64);
        }
        t.validate();
        let mut got = t.point_query(&q);
        got.sort_unstable();
        let mut want: Vec<u64> = mbrs
            .iter()
            .enumerate()
            .filter(|(_, m)| m.contains_point(&q))
            .map(|(i, _)| i as u64)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// Random inserts and removes — on an insert-built tree and on an STR
    /// bulk load — split leaves, reinsert entries (R*) and dissolve
    /// underfull nodes; after every step `validate` checks each point
    /// leaf's dimension-major block against its items and its parent
    /// entry, and the tree holds exactly the live points.
    #[test]
    fn point_leaf_blocks_stay_valid_under_random_updates(
        seed_pts in points(3, 40),
        ops in prop::collection::vec((0u32..3, prop::collection::vec(coord(), 3)), 1..120),
    ) {
        for policy in [SplitPolicy::RStar, SplitPolicy::XTree] {
            let cfg = match policy {
                SplitPolicy::RStar => TreeConfig::rstar(3),
                SplitPolicy::XTree => TreeConfig::xtree(3),
            }
            .with_point_leaves(true)
            .with_block_size(256);
            let rows: Vec<f64> = seed_pts.iter().flatten().copied().collect();
            let ids: Vec<u64> = (0..seed_pts.len() as u64).collect();
            for bulk in [false, true] {
                let mut pts: Vec<Vec<f64>> = seed_pts.clone();
                let mut live = vec![true; pts.len()];
                let mut t = if bulk {
                    bulk_load_rows(cfg.clone(), &rows, &ids, 0.9)
                } else {
                    build(policy, 3, &pts)
                };
                t.validate();
                for (op, p) in &ops {
                    if *op == 0 || !live.iter().any(|l| *l) {
                        t.insert(Mbr::from_point(p), pts.len() as u64);
                        pts.push(p.clone());
                        live.push(true);
                    } else {
                        // Remove the live point after a position drawn from `p`.
                        let from = (p[0] * 1000.0) as usize % pts.len();
                        let id = (0..pts.len())
                            .map(|i| (from + i) % pts.len())
                            .find(|&i| live[i])
                            .unwrap();
                        prop_assert!(t.delete(&Mbr::from_point(&pts[id]), id as u64));
                        live[id] = false;
                    }
                    t.validate();
                }
                let mut got: Vec<(u64, Vec<f64>)> =
                    t.items().into_iter().map(|(id, m)| (id, m.lo().to_vec())).collect();
                got.sort_by_key(|(id, _)| *id);
                let want: Vec<(u64, Vec<f64>)> = (0..pts.len())
                    .filter(|&i| live[i])
                    .map(|i| (i as u64, pts[i].clone()))
                    .collect();
                prop_assert_eq!(got, want, "{:?}, bulk {}", policy, bulk);
            }
        }
    }
}
