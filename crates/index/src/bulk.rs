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
use std::ops::Range;

/// Bulk-loads box `items` into a fresh box-leaf tree with STR packing.
///
/// `fill` in `(0,1]` is the target node-fill fraction (1.0 = fully packed;
/// the R\*-tree literature recommends ~0.7 for update-heavy workloads so
/// early inserts don't split every touched node). Each packed group is
/// written straight into its node's coordinate and payload arrays. Point
/// leaves load through [`bulk_load_rows`].
///
/// # Panics
/// Panics on an empty `items` slice, mismatched dimensionality, a
/// point-leaf configuration, or a `fill` outside `(0,1]`.
pub fn bulk_load(cfg: TreeConfig, items: Vec<(Mbr, ItemId)>, fill: f64) -> Tree {
    assert!(!items.is_empty(), "bulk_load needs at least one item");
    assert!(
        !cfg.leaf_stores_points,
        "point leaves load through bulk_load_rows"
    );
    let dim = cfg.dim;
    for (m, _) in &items {
        assert_eq!(m.dim(), dim, "item dimensionality mismatch");
    }
    let (leaf_cap, dir_cap) = capacities(&cfg, fill);
    let mut tree = Tree::new(cfg);
    let mut items = items;
    let tiles = str_tiles(&mut items, dim, leaf_cap, box_center);
    let leaves = pack_boxes(&mut tree, 0, &items, tiles);
    pack_directory(tree, leaves, dir_cap)
}

/// Bulk-loads the points `ids` of a row-major point set into a fresh
/// point-leaf tree with STR packing: point `id` is
/// `rows[id·d..(id+1)·d]`, and the rows of ids not listed (removed slots)
/// are never read. The packing sorts the ids by the same keys
/// [`bulk_load`] sorts a point's box by (ties keep the order of `ids`)
/// and writes each leaf's dimension-major block straight from the rows,
/// so no point is copied into a box of its own.
///
/// # Panics
/// Panics on empty `ids`, `rows` not holding `d` values per point, an id
/// past the last row, a box-leaf configuration, or a `fill` outside
/// `(0,1]`.
pub fn bulk_load_rows(cfg: TreeConfig, rows: &[f64], ids: &[ItemId], fill: f64) -> Tree {
    assert!(!ids.is_empty(), "bulk_load needs at least one item");
    assert!(cfg.leaf_stores_points, "rows load into point leaves");
    let dim = cfg.dim;
    assert_eq!(rows.len() % dim, 0, "item dimensionality mismatch");
    let (leaf_cap, dir_cap) = capacities(&cfg, fill);
    let mut tree = Tree::new(cfg);
    let point = |id: ItemId| &rows[id as usize * dim..(id as usize + 1) * dim];
    let mut order = ids.to_vec();
    // A point's box center key is `x + x`, as `box_center` keys `lo + hi`.
    let tiles = str_tiles(&mut order, dim, leaf_cap, |&id, axis| {
        let x = point(id)[axis];
        x + x
    });
    let leaves = tiles
        .into_iter()
        .map(|tile| {
            let mut node = tree.empty_node(0);
            node.set_points(order[tile].iter().map(|&id| (point(id), id)));
            adopt(&mut tree, node)
        })
        .collect();
    pack_directory(tree, leaves, dir_cap)
}

/// Entries per leaf and per directory node at fill fraction `fill`.
fn capacities(cfg: &TreeConfig, fill: f64) -> (usize, usize) {
    assert!(fill > 0.0 && fill <= 1.0, "fill must be in (0,1]");
    let leaf_cap = ((cfg.max_leaf_entries() as f64 * fill) as usize).max(1);
    let dir_cap = ((cfg.max_dir_entries() as f64 * fill) as usize).max(2);
    (leaf_cap, dir_cap)
}

/// Packs the `(box, page)` pairs of each level into the level above until
/// one root remains, and installs it.
fn pack_directory(mut tree: Tree, mut level_nodes: Vec<(Mbr, u64)>, dir_cap: usize) -> Tree {
    let dim = tree.config().dim;
    let mut level = 1u32;
    while level_nodes.len() > 1 {
        let tiles = str_tiles(&mut level_nodes, dim, dir_cap, box_center);
        level_nodes = pack_boxes(&mut tree, level, &level_nodes, tiles);
        level += 1;
    }
    let (_, root) = level_nodes.pop().expect("exactly one root");
    tree.adopt_root(PageId(root as u32));
    tree
}

/// Writes each tile of `entries` into a fresh node at `level`; returns
/// each node's bounding box and page id (as a directory payload).
fn pack_boxes(
    tree: &mut Tree,
    level: u32,
    entries: &[(Mbr, u64)],
    tiles: Vec<Range<usize>>,
) -> Vec<(Mbr, u64)> {
    tiles
        .into_iter()
        .map(|tile| {
            let mut node = tree.empty_node(level);
            for (m, payload) in &entries[tile] {
                node.push(BoxRef::of(m), *payload);
            }
            adopt(tree, node)
        })
        .collect()
}

/// Installs a packed node; returns its box and page id.
fn adopt(tree: &mut Tree, node: crate::node::Node) -> (Mbr, u64) {
    let mbr = node.mbr().expect("non-empty tile");
    (mbr, tree.adopt_node(node).0 as u64)
}

/// The STR sort key of a box along `axis`: its center, doubled.
fn box_center(e: &(Mbr, u64), axis: usize) -> f64 {
    e.0.lo()[axis] + e.0.hi()[axis]
}

/// Sort-Tile-Recursive tiling of `entries` in place: slice along the
/// first dimension into `⌈(N/c)^(1/d)⌉` runs by `key`, recurse on the
/// remaining dimensions, and return the runs of ≤ `cap` entries as ranges
/// of the reordered slice, in order.
fn str_tiles<T>(
    entries: &mut [T],
    dim: usize,
    cap: usize,
    key: impl Fn(&T, usize) -> f64,
) -> Vec<Range<usize>> {
    let mut out = Vec::with_capacity(entries.len().div_ceil(cap));
    if dim <= 1 && entries.len() > cap {
        sort_by_axis(entries, 0, &key);
        push_chunks(0, entries.len(), cap, &mut out);
    } else {
        tile(entries, 0, dim, cap, 0, dim, &key, &mut out);
    }
    out
}

/// One level of the STR recursion over `entries`, which start at
/// `offset` of the whole slice: slice along `axis`, then recurse along
/// the next one with one dimension fewer left.
#[allow(clippy::too_many_arguments)]
fn tile<T>(
    entries: &mut [T],
    offset: usize,
    dims_left: usize,
    cap: usize,
    axis: usize,
    dim: usize,
    key: &impl Fn(&T, usize) -> f64,
    out: &mut Vec<Range<usize>>,
) {
    let n = entries.len();
    if n <= cap {
        out.push(offset..offset + n);
        return;
    }
    if dims_left == 0 || axis >= dim {
        push_chunks(offset, n, cap, out);
        return;
    }
    let n_groups = (n as f64 / cap as f64).ceil();
    let slices = n_groups.powf(1.0 / dims_left as f64).ceil() as usize;
    sort_by_axis(entries, axis, key);
    let per_slice = n.div_ceil(slices.max(1));
    for (s, slice) in entries.chunks_mut(per_slice).enumerate() {
        let at = offset + s * per_slice;
        tile(slice, at, dims_left - 1, cap, axis + 1, dim, key, out);
    }
}

/// Consecutive runs of at most `cap` of the `n` entries at `offset`.
fn push_chunks(offset: usize, n: usize, cap: usize, out: &mut Vec<Range<usize>>) {
    out.extend(
        (0..n)
            .step_by(cap)
            .map(|s| offset + s..offset + (s + cap).min(n)),
    );
}

/// A stable sort by `key` along `axis`.
fn sort_by_axis<T>(entries: &mut [T], axis: usize, key: &impl Fn(&T, usize) -> f64) {
    entries.sort_by(|a, b| key(a, axis).total_cmp(&key(b, axis)));
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

    /// The row-major rows of `pts` and their ids, `0..n`.
    fn rows(pts: &[Vec<f64>]) -> (Vec<f64>, Vec<ItemId>) {
        (pts.concat(), (0..pts.len() as ItemId).collect())
    }

    #[test]
    fn bulk_load_preserves_all_items_and_invariants() {
        let pts = points(777, 3, 1);
        let cfg = TreeConfig::xtree(3)
            .with_point_leaves(true)
            .with_block_size(512);
        let (rows, ids) = rows(&pts);
        let t = bulk_load_rows(cfg, &rows, &ids, 1.0);
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
        let (rows, ids) = rows(&pts);
        let t = bulk_load_rows(cfg, &rows, &ids, 0.7);
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
        let (rows, ids) = rows(&pts);
        let bulk = bulk_load_rows(cfg.clone(), &rows, &ids, 1.0);
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
        let (rows, ids) = rows(&pts);
        let mut t = bulk_load_rows(cfg, &rows, &ids, 0.7);
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
        let mut rows = vec![0.0; 20];
        rows[18..].copy_from_slice(&[0.5, 0.5]);
        let t = bulk_load_rows(cfg, &rows, &[9], 1.0);
        assert_eq!(t.len(), 1);
        assert_eq!(t.height(), 1);
        assert_eq!(t.nn_best_first(&[0.0, 0.0]).unwrap().id, 9);
    }

    #[test]
    fn bulk_load_rows_reads_only_the_listed_ids() {
        let pts = points(300, 3, 7);
        let (rows, _) = rows(&pts);
        let even: Vec<ItemId> = (0..300).step_by(2).collect();
        let cfg = TreeConfig::xtree(3)
            .with_point_leaves(true)
            .with_block_size(512);
        let t = bulk_load_rows(cfg, &rows, &even, 0.9);
        assert_eq!(t.len(), 150);
        t.validate();
        for (i, p) in pts.iter().enumerate() {
            let found = t.point_query(p).contains(&(i as ItemId));
            assert_eq!(found, i % 2 == 0, "item {i}");
        }
    }

    #[test]
    fn box_bulk_load_preserves_all_items_and_invariants() {
        let pts = points(500, 3, 8);
        let items: Vec<(Mbr, ItemId)> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let hi: Vec<f64> = p.iter().map(|x| x + 0.01).collect();
                (Mbr::new(p.clone(), hi), i as ItemId)
            })
            .collect();
        let t = bulk_load(TreeConfig::rstar(3).with_block_size(512), items, 0.9);
        assert_eq!(t.len(), 500);
        t.validate();
        for (i, p) in pts.iter().enumerate() {
            assert!(t.point_query(p).contains(&(i as ItemId)), "lost item {i}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn empty_bulk_load_rejected() {
        let _ = bulk_load(TreeConfig::rstar(2), vec![], 1.0);
    }

    #[test]
    #[should_panic(expected = "load through bulk_load_rows")]
    fn bulk_load_rejects_point_leaves() {
        let cfg = TreeConfig::rstar(2).with_point_leaves(true);
        let _ = bulk_load(cfg, vec![(Mbr::from_point(&[0.5, 0.5]), 0)], 1.0);
    }
}
