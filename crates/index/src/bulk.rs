//! Sort-Tile-Recursive (STR) bulk loading.
//!
//! Building a tree by repeated insertion costs `O(N log N)` page touches and
//! produces overlap that queries pay for forever. STR packing (Leutenegger
//! et al., ICDE 1997 — contemporary with the paper) sorts the entries into
//! `⌈N/c⌉^(1/d)` vertical slices per dimension, recursively, and emits fully
//! packed, near-overlap-free leaves bottom-up. Both tree flavours accept the
//! result; the overflow policy only matters for later dynamic inserts.

use crate::config::TreeConfig;
use crate::node::{BoxRef, ItemId, PageId};
use crate::tree::Tree;
use nncell_geom::Mbr;

/// Bulk-loads `items` into a fresh tree with STR packing.
///
/// `fill` in `(0,1]` is the target node-fill fraction (1.0 = fully packed;
/// the R\*-tree literature recommends ~0.7 for update-heavy workloads so
/// early inserts don't split every touched node). Each packed group is
/// written straight into its node's bounds and payload arrays.
///
/// # Panics
/// Panics on an empty `items` slice, mismatched dimensionality, a box item
/// for a point-leaf configuration, or a `fill` outside `(0,1]`.
pub fn bulk_load(cfg: TreeConfig, items: Vec<(Mbr, ItemId)>, fill: f64) -> Tree {
    assert!(!items.is_empty(), "bulk_load needs at least one item");
    assert!(fill > 0.0 && fill <= 1.0, "fill must be in (0,1]");
    let dim = cfg.dim;
    for (m, _) in &items {
        assert_eq!(m.dim(), dim, "item dimensionality mismatch");
        assert!(
            !cfg.leaf_stores_points || m.lo() == m.hi(),
            "a point-leaf tree indexes points, not boxes"
        );
    }

    let mut tree = Tree::new(cfg.clone());
    let leaf_cap = ((cfg.max_leaf_entries() as f64 * fill) as usize).max(1);
    let dir_cap = ((cfg.max_dir_entries() as f64 * fill) as usize).max(2);

    // Level 0 packs the items into leaves; every upper level packs the
    // (box, page) pairs of the level below until one root remains.
    let mut level_nodes = pack_level(&mut tree, 0, str_pack(items, dim, leaf_cap));
    let mut level = 1u32;
    while level_nodes.len() > 1 {
        level_nodes = pack_level(&mut tree, level, str_pack(level_nodes, dim, dir_cap));
        level += 1;
    }
    let (_, root) = level_nodes.pop().expect("exactly one root");
    tree.adopt_root(PageId(root as u32));
    tree
}

/// Writes each group into a fresh node at `level`; returns each node's
/// bounding box and page id (as a directory payload).
fn pack_level(tree: &mut Tree, level: u32, groups: Vec<Vec<(Mbr, u64)>>) -> Vec<(Mbr, u64)> {
    groups
        .into_iter()
        .map(|group| {
            let mut node = tree.empty_node(level);
            for (m, payload) in &group {
                node.push(BoxRef::of(m), *payload);
            }
            let mbr = node.mbr().expect("non-empty group");
            (mbr, tree.adopt_node(node).0 as u64)
        })
        .collect()
}

/// Recursive STR tiling: slice along the first dimension into
/// `⌈(N/c)^(1/d)⌉` runs by center coordinate, recurse on the remaining
/// dimensions, emit runs of ≤ `cap` entries.
fn str_pack(mut entries: Vec<(Mbr, u64)>, dims_left: usize, cap: usize) -> Vec<Vec<(Mbr, u64)>> {
    let n = entries.len();
    if n <= cap {
        return vec![entries];
    }
    if dims_left <= 1 {
        sort_by_center(&mut entries, 0);
        return chunks(entries, cap);
    }
    let n_groups = (n as f64 / cap as f64).ceil();
    let slices = n_groups.powf(1.0 / dims_left as f64).ceil() as usize;
    let axis = entries[0].0.dim() - dims_left;
    sort_by_center(&mut entries, axis);
    let per_slice = n.div_ceil(slices.max(1));
    let mut out = Vec::new();
    while !entries.is_empty() {
        let take = per_slice.min(entries.len());
        let rest = entries.split_off(take);
        let slice = std::mem::replace(&mut entries, rest);
        out.extend(str_pack_inner(slice, dims_left - 1, cap, axis + 1));
    }
    out
}

/// Inner recursion keeps slicing along successive axes.
fn str_pack_inner(
    mut entries: Vec<(Mbr, u64)>,
    dims_left: usize,
    cap: usize,
    axis: usize,
) -> Vec<Vec<(Mbr, u64)>> {
    let n = entries.len();
    if n <= cap {
        return vec![entries];
    }
    if dims_left == 0 || axis >= entries[0].0.dim() {
        return chunks(entries, cap);
    }
    let n_groups = (n as f64 / cap as f64).ceil();
    let slices = n_groups.powf(1.0 / dims_left as f64).ceil() as usize;
    sort_by_center(&mut entries, axis);
    let per_slice = n.div_ceil(slices.max(1));
    let mut out = Vec::new();
    while !entries.is_empty() {
        let take = per_slice.min(entries.len());
        let rest = entries.split_off(take);
        let slice = std::mem::replace(&mut entries, rest);
        out.extend(str_pack_inner(slice, dims_left - 1, cap, axis + 1));
    }
    out
}

/// Consecutive runs of at most `cap` entries, in order.
fn chunks(entries: Vec<(Mbr, u64)>, cap: usize) -> Vec<Vec<(Mbr, u64)>> {
    let mut out = Vec::with_capacity(entries.len().div_ceil(cap));
    let mut it = entries.into_iter().peekable();
    while it.peek().is_some() {
        out.push(it.by_ref().take(cap).collect());
    }
    out
}

fn sort_by_center(entries: &mut [(Mbr, u64)], axis: usize) {
    entries.sort_by(|a, b| {
        let ca = a.0.lo()[axis] + a.0.hi()[axis];
        let cb = b.0.lo()[axis] + b.0.hi()[axis];
        ca.total_cmp(&cb)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use nncell_geom::dist_sq;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn points(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..d).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect()
    }

    fn items(pts: &[Vec<f64>]) -> Vec<(Mbr, ItemId)> {
        pts.iter()
            .enumerate()
            .map(|(i, p)| (Mbr::from_point(p), i as ItemId))
            .collect()
    }

    #[test]
    fn bulk_load_preserves_all_items_and_invariants() {
        let pts = points(777, 3, 1);
        let cfg = TreeConfig::xtree(3)
            .with_point_leaves(true)
            .with_block_size(512);
        let t = bulk_load(cfg, items(&pts), 1.0);
        assert_eq!(t.len(), 777);
        t.validate();
        for (i, p) in pts.iter().enumerate() {
            assert!(t.point_query(p).contains(&(i as u64)), "lost item {i}");
        }
    }

    #[test]
    fn bulk_loaded_nn_matches_scan() {
        let pts = points(400, 4, 2);
        let cfg = TreeConfig::rstar(4).with_point_leaves(true);
        let t = bulk_load(cfg, items(&pts), 0.7);
        let qs = points(40, 4, 3);
        for q in &qs {
            let scan = (0..pts.len())
                .min_by(|&a, &b| {
                    dist_sq(q, &pts[a])
                        .partial_cmp(&dist_sq(q, &pts[b]))
                        .unwrap()
                })
                .unwrap();
            assert_eq!(t.nn_best_first(q).unwrap().id, scan as u64);
        }
    }

    #[test]
    fn bulk_load_reads_fewer_pages_than_insert_build() {
        let pts = points(1500, 6, 4);
        let cfg = TreeConfig::rstar(6)
            .with_point_leaves(true)
            .with_block_size(512);
        let bulk = bulk_load(cfg.clone(), items(&pts), 1.0);
        let mut incr = Tree::new(cfg);
        for (i, p) in pts.iter().enumerate() {
            incr.insert(Mbr::from_point(p), i as u64);
        }
        // Packed trees occupy fewer pages ...
        assert!(bulk.total_pages() <= incr.total_pages());
        // ... and window queries touch fewer of them.
        bulk.reset_stats();
        incr.reset_stats();
        let w = Mbr::new(vec![0.2; 6], vec![0.5; 6]);
        let a = bulk.window_query(&w);
        let b = incr.window_query(&w);
        assert_eq!(
            {
                let mut a = a;
                a.sort_unstable();
                a
            },
            {
                let mut b = b;
                b.sort_unstable();
                b
            }
        );
        assert!(
            bulk.stats().page_reads <= incr.stats().page_reads,
            "packed tree must not read more pages ({} vs {})",
            bulk.stats().page_reads,
            incr.stats().page_reads
        );
    }

    #[test]
    fn bulk_load_supports_dynamic_inserts_afterwards() {
        let pts = points(300, 2, 5);
        let cfg = TreeConfig::xtree(2)
            .with_point_leaves(true)
            .with_block_size(512);
        let mut t = bulk_load(cfg, items(&pts), 0.7);
        let extra = points(100, 2, 6);
        for (i, p) in extra.iter().enumerate() {
            t.insert(Mbr::from_point(p), (300 + i) as u64);
        }
        t.validate();
        assert_eq!(t.len(), 400);
        for (i, p) in extra.iter().enumerate() {
            assert!(t.point_query(p).contains(&((300 + i) as u64)));
        }
    }

    #[test]
    fn single_item_bulk_load() {
        let cfg = TreeConfig::rstar(2).with_point_leaves(true);
        let t = bulk_load(cfg, vec![(Mbr::from_point(&[0.5, 0.5]), 9)], 1.0);
        assert_eq!(t.len(), 1);
        assert_eq!(t.height(), 1);
        assert_eq!(t.nn_best_first(&[0.0, 0.0]).unwrap().id, 9);
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn empty_bulk_load_rejected() {
        let _ = bulk_load(TreeConfig::rstar(2), vec![], 1.0);
    }
}
