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
    /// bulk load whose liveness mask leaves every third slot dead — split
    /// leaves, reinsert entries (R*) and dissolve
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
            let alive: Vec<bool> = (0..seed_pts.len()).map(|i| i % 3 != 1).collect();
            for bulk in [false, true] {
                let mut pts: Vec<Vec<f64>> = seed_pts.clone();
                let mut live = if bulk { alive.clone() } else { vec![true; pts.len()] };
                let mut t = if bulk {
                    bulk_load_rows(cfg.clone(), &rows, &alive, 0.9)
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

/// Dimensionality of the slot-column property: at 256 B pages a point
/// leaf holds 5 entries (an underfull one keeps 1, which the condense
/// step reinserts) and a directory node 3, whose splits overlap enough to
/// grow supernodes.
const SLOT_DIM: usize = 3;

/// What one run of the slot-column property saw happen to the tree.
#[derive(Debug, Default)]
struct Seen {
    supernode: bool,
    condensed: bool,
    root_shrank: bool,
}

/// One step of the slot-column property: runs `step` on `t`, notes the
/// structural events it caused, then checks `validate` and every slot's
/// liveness and gathered row against `model`, bit for bit.
fn slot_step(
    t: &mut Tree,
    model: &[Option<Vec<f64>>],
    seen: &mut Seen,
    step: impl FnOnce(&mut Tree),
) -> Result<(), proptest::TestCaseError> {
    let (nodes, height) = (t.num_nodes(), t.height());
    step(t);
    seen.supernode |= t.max_span() > 1;
    seen.root_shrank |= t.height() < height;
    seen.condensed |= t.num_nodes() < nodes && t.height() == height;
    t.validate();
    prop_assert_eq!(t.slots(), model.len());
    let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let mut row = Vec::new();
    for (id, want) in model.iter().enumerate() {
        let held = t.gather(id as u64, &mut row);
        prop_assert_eq!(held, want.is_some(), "liveness of slot {}", id);
        prop_assert_eq!(t.holds(id as u64), held, "holds() of slot {}", id);
        if let Some(want) = want {
            prop_assert_eq!(bits(&row), bits(want), "row of slot {}", id);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random point inserts and deletes on a point-leaf X-tree with 256 B
    /// pages keep the slot column exact. Each case grows the tree to a
    /// few hundred uniform points, with a delete after every fourth insert, then
    /// deletes all but three, re-inserting every eighth deleted point
    /// under a new slot. After every step `validate` checks the column
    /// against the leaves, and every slot's liveness and gathered row
    /// match a model, bit for bit. Each case must see leaf splits, a
    /// directory supernode, a node dissolved by the condense step with
    /// its entries reinserted, and a root shrink.
    #[test]
    fn slot_column_follows_every_point_through_splits_and_condense(
        pts in prop::collection::vec(prop::collection::vec(coord(), SLOT_DIM), 200..300),
        picks in prop::collection::vec(0usize..1 << 20, 600),
    ) {
        let mut cfg = TreeConfig::xtree(SLOT_DIM).with_point_leaves(true).with_block_size(256);
        // A directory split must halve the node without any overlap, so
        // overflowing directories of uniform points often become
        // supernodes instead.
        cfg.max_overlap = 0.0;
        cfg.min_fanout = 0.5;
        let mut t = Tree::new(cfg);
        let mut model: Vec<Option<Vec<f64>>> = Vec::new();
        let mut seen = Seen::default();
        let mut picks = picks.iter().copied().cycle();
        // The live slot `pick` lands on, scanning up from it.
        let live_at = |model: &[Option<Vec<f64>>], pick: usize| {
            (0..model.len())
                .map(|i| (pick + i) % model.len())
                .find(|&i| model[i].is_some())
                .expect("a live slot")
        };
        for (i, p) in pts.iter().enumerate() {
            let id = model.len() as u64;
            model.push(Some(p.clone()));
            slot_step(&mut t, &model, &mut seen, |t| t.insert(Mbr::from_point(p), id))?;
            if i % 4 == 3 {
                let id = live_at(&model, picks.next().unwrap());
                let p = model[id].take().unwrap();
                slot_step(&mut t, &model, &mut seen, |t| {
                    assert!(t.delete(&Mbr::from_point(&p), id as u64));
                })?;
            }
        }
        let mut deleted = 0usize;
        while t.len() > 3 {
            let id = live_at(&model, picks.next().unwrap());
            let p = model[id].take().unwrap();
            slot_step(&mut t, &model, &mut seen, |t| {
                assert!(t.delete(&Mbr::from_point(&p), id as u64));
            })?;
            deleted += 1;
            if deleted.is_multiple_of(8) {
                let id = model.len() as u64;
                model.push(Some(p.clone()));
                slot_step(&mut t, &model, &mut seen, |t| t.insert(Mbr::from_point(&p), id))?;
            }
        }
        prop_assert!(t.splits() > 0, "no leaf split");
        prop_assert!(seen.supernode && seen.condensed && seen.root_shrank, "{:?}", seen);
    }
}
