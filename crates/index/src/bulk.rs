//! Sort-Tile-Recursive (STR) bulk loading.
//!
//! Building a tree by repeated insertion costs `O(N log N)` page touches and
//! produces overlap that queries pay for forever. STR packing (Leutenegger
//! et al., ICDE 1997 — contemporary with the paper) cuts the entries into
//! `⌈N/c⌉^(1/d)` vertical slices per dimension, recursively, and emits fully
//! packed, near-overlap-free leaves bottom-up. Both tree flavours accept the
//! result; the overflow policy only matters for later dynamic inserts.
//!
//! Each level cuts its slices by selection (`select_nth_unstable` per cut,
//! O(n log slices)), and only each emitted tile of ≤ c is sorted, in the
//! order a stable sort per axis leaves: the level's axis key, the earlier
//! axes' keys from last to first, then input position. It permutes
//! `(f32 key, u32 position)` pairs, re-keyed per level, not the entries;
//! rounding keeps the order (`x < y` ⇒ `x as f32 ≤ y as f32`), so only a
//! tie of the pairs reads the exact keys.

use crate::config::TreeConfig;
use crate::node::{BoxRef, ItemId, PageId};
use crate::tree::Tree;
use nncell_geom::Mbr;
use std::cmp::Ordering;
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
    let leaves = pack_boxes(&mut tree, 0, &items, leaf_cap);
    pack_directory(tree, leaves, dir_cap)
}

/// Bulk-loads the live points of a row-major point set into a fresh
/// point-leaf tree with STR packing: slot `id` is
/// `rows[id·d..(id+1)·d]`, it is live when `alive[id]`, and the rows of
/// dead slots (removed points) are never read. The packing orders the
/// live slots by the same keys [`bulk_load`] orders a point's box by
/// (ties keep slot order) and writes each leaf's dimension-major block
/// straight from the rows, so no point is copied into a box of its own.
/// The tree's slot column spans every row: [`Tree::slots`] is
/// `alive.len()`, and a dead slot is one the tree does not hold. No live
/// slot gives an empty tree with those slots.
///
/// # Panics
/// Panics on `rows` not holding `d` values per slot of `alive`, a
/// box-leaf configuration, or a `fill` outside `(0,1]`.
pub fn bulk_load_rows(cfg: TreeConfig, rows: &[f64], alive: &[bool], fill: f64) -> Tree {
    assert!(cfg.leaf_stores_points, "rows load into point leaves");
    let dim = cfg.dim;
    assert_eq!(rows.len(), alive.len() * dim, "one row of d per slot");
    let (leaf_cap, dir_cap) = capacities(&cfg, fill);
    let mut tree = Tree::new(cfg);
    tree.grow_slots(alive.len());
    let n = alive.iter().filter(|&&live| live).count();
    if n == 0 {
        return tree;
    }
    let live = (0..alive.len()).filter(|&id| alive[id]);
    let point = |id: usize| &rows[id * dim..(id + 1) * dim];
    // A point's box center key is `x + x`, as a box's is `lo + hi`.
    let (order, tiles) = str_tiles(n, live, dim, leaf_cap, |id, axis| {
        let x = point(id)[axis];
        x + x
    });
    let leaves = tiles
        .into_iter()
        .map(|tile| {
            let mut node = tree.empty_node(0);
            node.set_points(
                order[tile]
                    .iter()
                    .map(|&(_, id)| (point(id as usize), ItemId::from(id))),
            );
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
    let mut level = 1u32;
    while level_nodes.len() > 1 {
        level_nodes = pack_boxes(&mut tree, level, &level_nodes, dir_cap);
        level += 1;
    }
    let (_, root) = level_nodes.pop().expect("exactly one root");
    tree.adopt_root(PageId(root as u32));
    tree
}

/// Tiles the `(box, payload)` `entries` by STR on their box centers and
/// writes each tile of at most `cap` into a fresh node at `level`;
/// returns each node's bounding box and page id (as a directory payload).
fn pack_boxes(tree: &mut Tree, level: u32, entries: &[(Mbr, u64)], cap: usize) -> Vec<(Mbr, u64)> {
    let dim = tree.config().dim;
    let n = entries.len();
    let (order, tiles) = str_tiles(n, 0..n, dim, cap, |at, axis| {
        let m = &entries[at].0;
        m.lo()[axis] + m.hi()[axis]
    });
    tiles
        .into_iter()
        .map(|tile| {
            let mut node = tree.empty_node(level);
            for &(_, at) in &order[tile] {
                let (m, payload) = &entries[at as usize];
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

/// STR tiling of the `n` entries at ascending `positions`, keyed
/// `key(position, axis)`: returns their positions in tile order (each
/// beside its last rounded key) and the tiles of ≤ `cap` as ranges of it,
/// in order.
fn str_tiles(
    n: usize,
    positions: impl Iterator<Item = usize>,
    dim: usize,
    cap: usize,
    key: impl Fn(usize, usize) -> f64,
) -> (Vec<(f32, u32)>, Vec<Range<usize>>) {
    let position = |at: usize| u32::try_from(at).expect("STR tiles positions below u32::MAX");
    let mut order: Vec<(f32, u32)> = Vec::with_capacity(n);
    order.extend(positions.map(|at| (0.0, position(at))));
    let mut out = Vec::with_capacity(order.len().div_ceil(cap));
    if order.len() <= cap {
        out.push(0..order.len());
    } else {
        tile(&mut order, 0, 0, dim.max(1), cap, &key, &mut out);
    }
    (order, out)
}

/// One STR level over the `> cap` entries of `order`, at `offset` of the
/// whole: key them along `axis`, cut `⌈(N/c)^(1/dims_left)⌉` slices (runs
/// of `cap` in one dimension) by rank, and recurse into each slice along
/// the next axis, or sort and emit it if it fits a node or `axis` is last.
fn tile(
    order: &mut [(f32, u32)],
    offset: usize,
    axis: usize,
    dim: usize,
    cap: usize,
    key: &impl Fn(usize, usize) -> f64,
    out: &mut Vec<Range<usize>>,
) {
    let n = order.len();
    let per = if dim == 1 {
        cap
    } else {
        let n_groups = (n as f64 / cap as f64).ceil();
        let slices = n_groups.powf(1.0 / (dim - axis) as f64).ceil() as usize;
        n.div_ceil(slices.max(1))
    };
    for e in order.iter_mut() {
        e.0 = key(e.1 as usize, axis) as f32;
    }
    let cmp = |a: &(f32, u32), b: &(f32, u32)| {
        a.0.total_cmp(&b.0)
            .then_with(|| str_order(key, axis, a.1 as usize, b.1 as usize))
    };
    select_runs(order, per, &cmp);
    for (s, run) in order.chunks_mut(per).enumerate() {
        let start = offset + s * per;
        if run.len() > cap && axis + 1 < dim {
            tile(run, start, axis + 1, dim, cap, key, out);
        } else {
            run.sort_unstable_by(cmp);
            for s in (0..run.len()).step_by(cap) {
                out.push(start + s..start + (s + cap).min(run.len()));
            }
        }
    }
}

/// Reorders `order` so each consecutive run of `per` holds the next `per`
/// entries by `cmp`, unordered within: O(n log(n/per)) comparisons.
fn select_runs<T>(order: &mut [T], per: usize, cmp: &impl Fn(&T, &T) -> Ordering) {
    let runs = order.len().div_ceil(per);
    if runs < 2 {
        return;
    }
    let cut = runs / 2 * per;
    order.select_nth_unstable_by(cut, cmp);
    let (lo, hi) = order.split_at_mut(cut);
    select_runs(lo, per, cmp);
    select_runs(hi, per, cmp);
}

/// The STR order at the level of `axis` of the entries at positions `a`
/// and `b`: their keys from `axis` back to the first axis, then positions.
fn str_order(key: &impl Fn(usize, usize) -> f64, axis: usize, a: usize, b: usize) -> Ordering {
    (0..=axis)
        .rev()
        .map(|j| key(a, j).total_cmp(&key(b, j)))
        .find(|o| o.is_ne())
        .unwrap_or_else(|| a.cmp(&b))
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

    /// The row-major rows of `pts` and their liveness, all live.
    fn rows(pts: &[Vec<f64>]) -> (Vec<f64>, Vec<bool>) {
        (pts.concat(), vec![true; pts.len()])
    }

    #[test]
    fn bulk_load_preserves_all_items_and_invariants() {
        let pts = points(777, 3, 1);
        let cfg = TreeConfig::xtree(3)
            .with_point_leaves(true)
            .with_block_size(512);
        let (rows, alive) = rows(&pts);
        let t = bulk_load_rows(cfg, &rows, &alive, 1.0);
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
        let (rows, alive) = rows(&pts);
        let t = bulk_load_rows(cfg, &rows, &alive, 0.7);
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
        let (rows, alive) = rows(&pts);
        let bulk = bulk_load_rows(cfg.clone(), &rows, &alive, 1.0);
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
        let (rows, alive) = rows(&pts);
        let mut t = bulk_load_rows(cfg, &rows, &alive, 0.7);
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
        let mut alive = [false; 10];
        alive[9] = true;
        let t = bulk_load_rows(cfg, &rows, &alive, 1.0);
        assert_eq!(t.len(), 1);
        assert_eq!(t.height(), 1);
        assert_eq!(t.nn_best_first(&[0.0, 0.0]).unwrap().id, 9);
    }

    #[test]
    fn bulk_load_rows_reads_only_the_live_slots() {
        let pts = points(300, 3, 7);
        let (rows, _) = rows(&pts);
        let even: Vec<bool> = (0..300).map(|i| i % 2 == 0).collect();
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

    /// The sorting STR the selection replaced, kept as the oracle of its
    /// tiles: stable-sort each slice by `key` along its axis, cut it into
    /// `⌈(N/c)^(1/d)⌉` runs and recurse, all on the entries in place.
    fn sorted_str_tiles<T>(
        entries: &mut [T],
        dim: usize,
        cap: usize,
        key: impl Fn(&T, usize) -> f64,
    ) -> Vec<Range<usize>> {
        let mut out = Vec::new();
        if dim <= 1 && entries.len() > cap {
            sort_by_axis(entries, 0, &key);
            push_chunks(0, entries.len(), cap, &mut out);
        } else {
            sorted_tile(entries, 0, dim, cap, 0, &key, &mut out);
        }
        out
    }

    fn sorted_tile<T>(
        entries: &mut [T],
        offset: usize,
        dims_left: usize,
        cap: usize,
        axis: usize,
        key: &impl Fn(&T, usize) -> f64,
        out: &mut Vec<Range<usize>>,
    ) {
        let n = entries.len();
        if n <= cap {
            out.push(offset..offset + n);
            return;
        }
        if dims_left == 0 {
            push_chunks(offset, n, cap, out);
            return;
        }
        let n_groups = (n as f64 / cap as f64).ceil();
        let slices = n_groups.powf(1.0 / dims_left as f64).ceil() as usize;
        sort_by_axis(entries, axis, key);
        let per_slice = n.div_ceil(slices.max(1));
        for (s, slice) in entries.chunks_mut(per_slice).enumerate() {
            let at = offset + s * per_slice;
            sorted_tile(slice, at, dims_left - 1, cap, axis + 1, key, out);
        }
    }

    fn push_chunks(offset: usize, n: usize, cap: usize, out: &mut Vec<Range<usize>>) {
        out.extend(
            (0..n)
                .step_by(cap)
                .map(|s| offset + s..offset + (s + cap).min(n)),
        );
    }

    fn sort_by_axis<T>(entries: &mut [T], axis: usize, key: &impl Fn(&T, usize) -> f64) {
        entries.sort_by(|a, b| key(a, axis).total_cmp(&key(b, axis)));
    }

    /// `n` rows of `d` coordinates of `kind` 0: uniform in `[0, 1)`; 1: on
    /// the 4 values `{¼, ½, ¾, 1}` per axis, so most keys tie; 2: those
    /// values moved by less than an `f32` step, so most rounded keys tie
    /// and the exact keys differ.
    fn test_rows(n: usize, d: usize, kind: u32, rng: &mut SmallRng) -> Vec<f64> {
        (0..n * d)
            .map(|_| match kind {
                0 => rng.gen_range(0.0..1.0),
                _ => {
                    let x = f64::from(rng.gen_range(0..4u32)) / 4.0 + 0.25;
                    x + f64::from(kind - 1) * rng.gen_range(0.0..1e-9)
                }
            })
            .collect()
    }

    /// The largest number of slices any level of the STR recursion cuts
    /// `n` entries into.
    fn widest_cut(n: usize, dim: usize, cap: usize) -> usize {
        if n <= cap || dim <= 1 {
            return n.div_ceil(cap);
        }
        let slices = ((n as f64 / cap as f64).ceil())
            .powf(1.0 / dim as f64)
            .ceil() as usize;
        slices.max(widest_cut(n.div_ceil(slices), dim - 1, cap))
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The selection tiles as the sorting STR did: the same ranges,
        /// and the same entries in the same order, for the point loader's
        /// keys over every other slot and the box loader's over boxes in
        /// shuffled order.
        #[test]
        fn selection_tiles_match_sorting_str(
            d in 1usize..=9,
            cap in 2usize..=64,
            n in 1usize..=3000,
            kind in 0u32..3,
            seed in 0u64..u64::MAX,
        ) {
            use rand::seq::SliceRandom;
            let mut rng = SmallRng::seed_from_u64(seed);
            // Every other slot of twice as many rows: the point loader's
            // positions are the live slots themselves.
            let rows = test_rows(2 * n, d, kind, &mut rng);
            let mut ids: Vec<ItemId> = (0..2 * n as ItemId).step_by(2).collect();
            let coord = |id: ItemId, axis: usize| rows[id as usize * d + axis];

            let (order, tiles) = str_tiles(n, (0..2 * n).step_by(2), d, cap, |id, axis| {
                let x = coord(id as ItemId, axis);
                x + x
            });
            let mut want = ids.clone();
            let want_tiles = sorted_str_tiles(&mut want, d, cap, |&id, axis| {
                let x = coord(id, axis);
                x + x
            });
            let got: Vec<ItemId> = order.iter().map(|&(_, id)| ItemId::from(id)).collect();
            prop_assert_eq!(&tiles, &want_tiles, "point tiles, d = {}, cap = {}, n = {}", d, cap, n);
            prop_assert_eq!(&got, &want, "point order, d = {}, cap = {}, n = {}", d, cap, n);

            // Boxes of lattice widths in shuffled order, so box centers tie
            // as well.
            ids.shuffle(&mut rng);
            let items: Vec<(Mbr, u64)> = ids
                .iter()
                .map(|&id| {
                    let lo: Vec<f64> = (0..d).map(|j| coord(id, j)).collect();
                    let hi: Vec<f64> = lo.iter().map(|x| x + f64::from(id as u32 % 3) / 8.0).collect();
                    (Mbr::new(lo, hi), id)
                })
                .collect();
            let (order, tiles) = str_tiles(n, 0..n, d, cap, |at, axis| {
                let m = &items[at].0;
                m.lo()[axis] + m.hi()[axis]
            });
            let mut want = items.clone();
            let want_tiles =
                sorted_str_tiles(&mut want, d, cap, |e, axis| e.0.lo()[axis] + e.0.hi()[axis]);
            let got: Vec<u64> = order.iter().map(|&(_, at)| items[at as usize].1).collect();
            let want: Vec<u64> = want.iter().map(|e| e.1).collect();
            prop_assert_eq!(&tiles, &want_tiles, "box tiles, d = {}, cap = {}, n = {}", d, cap, n);
            prop_assert_eq!(&got, &want, "box order, d = {}, cap = {}, n = {}", d, cap, n);
        }
    }

    /// The sizes the property above draws reach levels cut into more than
    /// two slices in every dimensionality it draws.
    #[test]
    fn the_tiling_property_reaches_wide_cuts() {
        for d in 1..=9 {
            assert!(widest_cut(3000, d, 2) > 2, "d = {d}");
        }
    }
}
