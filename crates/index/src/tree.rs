//! The tree core shared by the R\*-tree and the X-tree.
//!
//! Both structures are height-balanced MBR trees over a page arena; they
//! differ only in overflow treatment (see [`SplitPolicy`]):
//!
//! * **R\*** — forced reinsertion of the 30% outermost entries (once per
//!   level per insertion), then the topological (margin-driven) split of
//!   \[BKSS 90\].
//! * **X-tree** — topological split; if the resulting directory overlap
//!   exceeds `max_overlap`, an overlap-minimal split along a split-history
//!   dimension; if that would be unbalanced, no split at all: the node grows
//!   into a **supernode** spanning one more disk page \[BKK 96\].
//!
//! Nodes store their entries structure-of-arrays (see the `node` module):
//! one coordinate array and one payload array per node. Directory nodes
//! and box leaves keep row-major `lo ‖ hi` rows; a point leaf keeps each
//! point's coordinates once, in a dimension-major block (column `j` of an
//! `m`-entry leaf at `j·m..(j+1)·m`). The serving traversal hands that
//! block to its caller whole; every other walker gathers a point from its
//! columns and keeps its arithmetic and counts.
//!
//! Five walkers read a tree. One region walk answers every box query (the
//! point, window, sphere and page queries and [`Tree::point_query_with`]);
//! [`Tree::knn_best_first`] / [`Tree::approx_knn`], [`Tree::nn_branch_bound`]
//! and the halfspace NN are the paper's NN searches; and
//! [`Tree::best_first_stream_with`] is the one serving traversal, behind
//! every k-NN, radius and duplicate probe of the serving index.
//!
//! A point-leaf tree also keeps a **slot column**, one `u32` per item id
//! (ids are dense slots from 0): the page of the leaf holding the item,
//! or `NO_LEAF`. It is written only where a leaf entry lands or leaves,
//! and lets [`Tree::holds`] and [`Tree::gather`] answer liveness and a
//! point's row from the leaves, the only store of each point.
//!
//! Cost accounting has two regimes. The paper's walkers bill every node
//! touch to the `CostTracker` as it happens — a supernode costs its page
//! span, and the optional LRU page cache turns re-touches into hits — and
//! every distance/heap operation as a CPU op, so benches can report the
//! same two cost axes as the paper's figures 9 / 12. The serving
//! traversal counts pages and CPU ops in locals and bills each tree's
//! tracker once per traversal, without consulting the cache, so concurrent
//! queries do not contend on the tracker's shared counters.

use crate::config::{SplitPolicy, TreeConfig};
use crate::cost::{CostTracker, IoStats};
use crate::node::{BoxRef, Entry, ItemId, Node, PageId, Payload};
use nncell_geom::{dist_sq, min_dist_sq, Mbr};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Structural diagnostics of a tree (see [`Tree::structure_stats`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StructureStats {
    /// Mean node fill factor in `(0, 1]`.
    pub avg_fill: f64,
    /// Mean pairwise sibling-MBR overlap fraction in `[0, 1]`.
    pub avg_sibling_overlap: f64,
}

/// A nearest-neighbor answer: item id plus (true, non-squared) distance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Neighbor {
    /// The indexed item.
    pub id: ItemId,
    /// Euclidean distance from the query to the item's MBR (exact point
    /// distance when leaves store points).
    pub dist: f64,
}

/// The slot-column value of a slot no leaf holds (never inserted, or
/// deleted).
const NO_LEAF: u32 = u32::MAX;

/// Height-balanced MBR tree over a simulated page arena.
///
/// Use the [`crate::RStarTree`] / [`crate::XTree`] wrappers for a
/// policy-labelled API; this type is the shared engine.
///
/// `Clone` deep-copies the page arena (two arrays per node, no per-entry
/// allocation); the cost tracker's counter values are carried over and any
/// bound registry metrics stay shared (see `CostTracker`).
#[derive(Clone)]
pub struct Tree {
    cfg: TreeConfig,
    nodes: Vec<Option<Node>>,
    free: Vec<PageId>,
    root: PageId,
    len: usize,
    /// The slot column of a point-leaf tree: `leaf_of[id]` is the page of
    /// the leaf holding item `id`, `NO_LEAF` for none. Empty in a box-leaf
    /// tree.
    leaf_of: Vec<u32>,
    cost: CostTracker,
}

/// A tree is the forest member of itself, so a traversal takes `&[&Tree]`
/// as readily as a slice of anything that holds a tree.
impl AsRef<Tree> for Tree {
    fn as_ref(&self) -> &Tree {
        self
    }
}

impl Tree {
    /// An empty tree.
    pub fn new(cfg: TreeConfig) -> Self {
        let mut t = Self {
            cfg,
            nodes: Vec::new(),
            free: Vec::new(),
            root: PageId(0),
            len: 0,
            leaf_of: Vec::new(),
            cost: CostTracker::default(),
        };
        let root = t.empty_node(0);
        t.root = t.alloc(root);
        t
    }

    /// The configuration this tree was built with.
    pub fn config(&self) -> &TreeConfig {
        &self.cfg
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of slots of a point-leaf tree: one past the highest item id
    /// it was loaded with or ever held, held now or not (0 for a box-leaf
    /// tree).
    pub fn slots(&self) -> usize {
        self.leaf_of.len()
    }

    /// Whether a point-leaf tree holds item `id` (`false` for a box-leaf
    /// tree). O(1): one read of the slot column.
    pub fn holds(&self, id: ItemId) -> bool {
        self.leaf_page(id).is_some()
    }

    /// Writes item `id`'s point into `out`, gathered from the columns of
    /// the leaf the slot column names (O(m + d) for an `m`-entry leaf),
    /// and returns `true`; `false`, with `out` untouched, when the tree
    /// does not hold `id`. Bills no page and no CPU op.
    pub fn gather(&self, id: ItemId, out: &mut Vec<f64>) -> bool {
        let Some(page) = self.leaf_page(id) else {
            return false;
        };
        let leaf = self.node(page);
        let i = leaf
            .payloads()
            .iter()
            .position(|&item| item == id)
            .expect("the slot column names the leaf holding the item");
        leaf.gather(i, out);
        true
    }

    /// The leaf holding item `id`, by the slot column.
    #[inline]
    fn leaf_page(&self, id: ItemId) -> Option<PageId> {
        let page = *self.leaf_of.get(usize::try_from(id).ok()?)?;
        (page != NO_LEAF).then_some(PageId(page))
    }

    /// Records in the slot column that leaf `page` holds item `id`,
    /// growing the column to `id + 1` slots when `id` is new.
    fn place(&mut self, id: ItemId, page: PageId) {
        let slot = id as usize;
        self.grow_slots(slot + 1);
        self.leaf_of[slot] = page.0;
    }

    /// Records that leaf `page` holds each of its items.
    fn place_leaf(&mut self, page: PageId) {
        for i in 0..self.node(page).len() {
            let id = self.node(page).item(i);
            self.place(id, page);
        }
    }

    /// Grows the slot column of a point-leaf tree to `slots` slots, each
    /// `NO_LEAF` until a leaf holding it is adopted or written.
    pub(crate) fn grow_slots(&mut self, slots: usize) {
        debug_assert!(self.cfg.leaf_stores_points);
        if slots > self.leaf_of.len() {
            self.leaf_of.resize(slots, NO_LEAF);
        }
    }

    /// Tree height (1 for a single leaf root).
    pub fn height(&self) -> u32 {
        self.node(self.root).level + 1
    }

    /// Number of live nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_some()).count()
    }

    /// Total simulated pages occupied (counts supernode spans).
    pub fn total_pages(&self) -> u64 {
        self.nodes.iter().flatten().map(|n| n.span as u64).sum()
    }

    /// Largest supernode span in the tree (1 = no supernodes).
    pub fn max_span(&self) -> u32 {
        self.nodes
            .iter()
            .flatten()
            .map(|n| n.span)
            .max()
            .unwrap_or(1)
    }

    /// MINDIST² from `q` to the nearest box of the root node, 0 when `q`
    /// lies inside one: the root's entry boxes when it is internal, the
    /// bounding box of its points when it is a point leaf, so trees of
    /// every height are measured alike. `∞` for an empty tree. Reads only
    /// the root, allocates nothing and bills no page.
    pub fn root_min_dist_sq(&self, q: &[f64]) -> f64 {
        let n = self.node(self.root);
        if n.is_empty() {
            return f64::INFINITY;
        }
        if !n.stores_points() {
            return (0..n.len())
                .map(|i| n.rect(i).min_dist_sq(q))
                .fold(f64::INFINITY, f64::min);
        }
        let mut sum = 0.0;
        for (j, &x) in q.iter().enumerate() {
            let (lo, hi) = (0..n.len())
                .map(|i| n.coord(i, j))
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), c| {
                    (lo.min(c), hi.max(c))
                });
            let gap = (lo - x).max(x - hi).max(0.0);
            sum += gap * gap;
        }
        sum
    }

    /// Accumulated cost counters.
    pub fn stats(&self) -> IoStats {
        self.cost.stats()
    }

    /// Structure diagnostics: average node fill (entries / capacity) and
    /// the average pairwise overlap fraction among directory siblings
    /// (`vol(a∩b)/min(vol a, vol b)`, 0 for overlap-free directories).
    pub fn structure_stats(&self) -> StructureStats {
        let mut fill_sum = 0.0;
        let mut nodes = 0usize;
        let mut overlap_sum = 0.0;
        let mut overlap_pairs = 0usize;
        for n in self.nodes.iter().flatten() {
            if n.is_empty() {
                continue;
            }
            fill_sum += n.len() as f64 / self.capacity(n) as f64;
            nodes += 1;
            if !n.is_leaf() {
                for i in 0..n.len() {
                    for j in (i + 1)..n.len() {
                        let a = n.rect(i);
                        let b = n.rect(j);
                        let denom = a.volume().min(b.volume());
                        if denom > 0.0 {
                            overlap_sum += a.overlap_volume(b) / denom;
                            overlap_pairs += 1;
                        }
                    }
                }
            }
        }
        StructureStats {
            avg_fill: if nodes > 0 {
                fill_sum / nodes as f64
            } else {
                0.0
            },
            avg_sibling_overlap: if overlap_pairs > 0 {
                overlap_sum / overlap_pairs as f64
            } else {
                0.0
            },
        }
    }

    /// Resets the cost counters (snapshot-and-swap: a reset racing a
    /// concurrent query batch never loses events — see
    /// `CostTracker::reset`).
    pub fn reset_stats(&self) {
        self.cost.reset();
    }

    /// Mirrors this tree's cost counters (page reads/writes, cache hits,
    /// splits) into registry metrics from now on, seeding the counters
    /// with the lifetime totals so far. Binds at most once.
    pub fn bind_metrics(&self, metrics: crate::TreeMetrics) {
        self.cost.bind_metrics(metrics);
    }

    /// Lifetime node-split count (never reset).
    pub fn splits(&self) -> u64 {
        self.cost.splits()
    }

    // ------------------------------------------------------------------
    // arena
    // ------------------------------------------------------------------

    /// An empty node at `level` with this tree's row layout.
    pub(crate) fn empty_node(&self, level: u32) -> Node {
        Node::new(
            level,
            self.cfg.dim,
            level == 0 && self.cfg.leaf_stores_points,
        )
    }

    fn alloc(&mut self, node: Node) -> PageId {
        if let Some(id) = self.free.pop() {
            self.nodes[id.0 as usize] = Some(node);
            id
        } else {
            self.nodes.push(Some(node));
            PageId((self.nodes.len() - 1) as u32)
        }
    }

    fn dealloc(&mut self, id: PageId) {
        self.nodes[id.0 as usize] = None;
        self.free.push(id);
    }

    #[inline]
    fn node(&self, id: PageId) -> &Node {
        self.nodes[id.0 as usize].as_ref().expect("dangling PageId")
    }

    #[inline]
    fn node_mut(&mut self, id: PageId) -> &mut Node {
        self.nodes[id.0 as usize].as_mut().expect("dangling PageId")
    }

    /// Bills one read access to `id` (cache-aware when enabled).
    #[inline]
    fn touch(&self, id: PageId) {
        self.cost.access(id.0 as u64, self.node(id).span as u64);
    }

    /// Enables a simulated LRU page cache of `pages` pages (0 disables).
    /// The paper grants every structure "the same amount of cache"; benches
    /// use this to level the I/O comparison. The serving traversal
    /// ([`Self::best_first_stream_with`]) does not consult it.
    pub fn enable_cache(&self, pages: usize) {
        self.cost.set_cache(pages);
    }

    fn capacity(&self, node: &Node) -> usize {
        let per_page = if node.is_leaf() {
            self.cfg.max_leaf_entries()
        } else {
            self.cfg.max_dir_entries()
        };
        per_page * node.span as usize
    }

    fn overflowing(&self, id: PageId) -> bool {
        let n = self.node(id);
        n.len() > self.capacity(n)
    }

    /// Bulk-loader plumbing: installs a fully built node into the arena.
    pub(crate) fn adopt_node(&mut self, node: Node) -> PageId {
        debug_assert!(node.len() <= self.capacity(&node));
        self.cost.write(node.span as u64);
        let points = node.stores_points();
        let page = self.alloc(node);
        if points {
            self.place_leaf(page);
        }
        page
    }

    /// Bulk-loader plumbing: replaces the (empty) root with a packed
    /// subtree and recounts the items.
    pub(crate) fn adopt_root(&mut self, root: PageId) {
        let old = self.root;
        self.root = root;
        if old != root {
            let stale = self.node(old).is_empty();
            debug_assert!(stale, "adopt_root over a non-empty root");
            if stale {
                self.dealloc(old);
            }
        }
        self.len = self.leaf_entry_count();
    }

    /// Number of leaf entries reachable from the root.
    fn leaf_entry_count(&self) -> usize {
        let mut count = 0;
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            let n = self.node(id);
            if n.is_leaf() {
                count += n.len();
            } else {
                stack.extend((0..n.len()).map(|i| n.child(i)));
            }
        }
        count
    }

    // ------------------------------------------------------------------
    // insertion
    // ------------------------------------------------------------------

    /// Inserts an item with bounding box `mbr`. In a point-leaf tree `id`
    /// is a slot: ids are dense from 0, and a new id grows the slot column
    /// to `id + 1` entries.
    ///
    /// # Panics
    /// Panics on a dimensionality mismatch, and when a point-leaf tree
    /// (`TreeConfig::with_point_leaves(true)`) is given a box that is not a
    /// single point or an id past its slot count ([`Self::slots`]).
    pub fn insert(&mut self, mbr: Mbr, id: ItemId) {
        assert_eq!(mbr.dim(), self.cfg.dim, "dimensionality mismatch");
        if self.cfg.leaf_stores_points {
            assert!(
                mbr.lo() == mbr.hi(),
                "a point-leaf tree indexes points, not boxes"
            );
            assert!(
                id <= self.leaf_of.len() as u64,
                "point-leaf ids are dense slots: id {id} is past slot count {}",
                self.leaf_of.len()
            );
        }
        self.len += 1;
        let mut reinserted: u64 = 0;
        self.insert_at_level(Entry::item(mbr, id), 0, &mut reinserted);
    }

    fn insert_at_level(&mut self, entry: Entry, level: u32, reinserted: &mut u64) {
        let path = self.choose_path(BoxRef::of(&entry.mbr), level);
        let target = *path.last().expect("path never empty");
        self.node_mut(target).push_entry(&entry);
        if let (true, Payload::Item(id)) = (self.cfg.leaf_stores_points, entry.payload) {
            self.place(id, target);
        }
        self.cost.write(self.node(target).span as u64);
        self.propagate_mbr(&path);
        self.resolve_overflow(&path, reinserted);
    }

    /// Root-to-`level` descent choosing the insertion subtree (R\* criteria).
    fn choose_path(&self, b: BoxRef<'_>, level: u32) -> Vec<PageId> {
        let mut path = vec![self.root];
        let mut cur = self.root;
        self.touch(cur);
        while self.node(cur).level > level {
            let n = self.node(cur);
            let idx = if n.level == 1 {
                // children are leaves: minimize overlap enlargement
                self.pick_min_overlap_enlargement(n, b)
            } else {
                self.pick_min_area_enlargement(n, b)
            };
            cur = n.child(idx);
            self.touch(cur);
            path.push(cur);
        }
        path
    }

    fn pick_min_area_enlargement(&self, n: &Node, b: BoxRef<'_>) -> usize {
        let mut best = 0usize;
        let mut best_enl = f64::INFINITY;
        let mut best_area = f64::INFINITY;
        for i in 0..n.len() {
            let e = n.rect(i);
            let enl = e.enlargement(b);
            let area = e.volume();
            if enl < best_enl - 1e-15 || (enl <= best_enl + 1e-15 && area < best_area) {
                best = i;
                best_enl = enl;
                best_area = area;
            }
        }
        best
    }

    fn pick_min_overlap_enlargement(&self, n: &Node, b: BoxRef<'_>) -> usize {
        // R* optimization: with many entries (supernodes!), restrict the
        // quadratic overlap check to the 32 candidates with least area
        // enlargement.
        const CANDIDATE_CAP: usize = 32;
        let len = n.len();
        // Each entry's area enlargement, computed once.
        let mut order: Vec<(f64, usize)> =
            (0..len).map(|i| (n.rect(i).enlargement(b), i)).collect();
        if len > CANDIDATE_CAP {
            order.sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap_or(Ordering::Equal));
            order.truncate(CANDIDATE_CAP);
        }
        let d = self.cfg.dim;
        let mut grown_row = vec![0.0; 2 * d];
        let mut best = order[0].1;
        let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for &(enlargement, i) in &order {
            let e = n.rect(i);
            e.union_into(b, &mut grown_row);
            let (lo, hi) = grown_row.split_at(d);
            let grown = BoxRef { lo, hi };
            let mut overlap_before = 0.0;
            let mut overlap_after = 0.0;
            for j in 0..len {
                if i == j {
                    continue;
                }
                let f = n.rect(j);
                overlap_before += e.overlap_volume(f);
                overlap_after += grown.overlap_volume(f);
            }
            self.cost.cpu(len as u64);
            let key = (overlap_after - overlap_before, enlargement, e.volume());
            if key < best_key {
                best = i;
                best_key = key;
            }
        }
        best
    }

    /// Recomputes the parent-entry MBRs exactly along `path` (bottom-up).
    fn propagate_mbr(&mut self, path: &[PageId]) {
        for i in (1..path.len()).rev() {
            let child = path[i];
            let parent = path[i - 1];
            let child_mbr = self.node(child).mbr().expect("child not empty");
            let p = self.node_mut(parent);
            let idx = p.child_index(child).expect("child entry present in parent");
            p.set_rect(idx, &child_mbr);
        }
    }

    /// Handles overflow of the last node on `path`, cascading upward.
    fn resolve_overflow(&mut self, path: &[PageId], reinserted: &mut u64) {
        let id = *path.last().expect("overflow path is never empty");
        if !self.overflowing(id) {
            return;
        }
        let level = self.node(id).level;
        let is_root = id == self.root;

        // R*: forced reinsertion, once per level per insertion.
        if self.cfg.policy == SplitPolicy::RStar
            && !is_root
            && level < 64
            && *reinserted & (1 << level) == 0
        {
            *reinserted |= 1 << level;
            self.forced_reinsert(path, reinserted);
            return;
        }

        // X-tree overflow cascade for directory nodes.
        if self.cfg.policy == SplitPolicy::XTree && !self.node(id).is_leaf() {
            if let Some((a, b, dim)) = self.try_xtree_split(id) {
                self.apply_split(path, a, b, dim, reinserted);
            } else {
                // Supernode: absorb the overflow in one more page.
                let n = self.node_mut(id);
                n.span += 1;
                self.cost.write(self.node(id).span as u64);
            }
            return;
        }

        // Topological split (R* always; X-tree leaves).
        let entries = self.node_mut(id).take_entries();
        let leaf = self.node(id).is_leaf();
        let (a, b, dim) = self.rstar_split(entries, leaf);
        self.apply_split(path, a, b, dim, reinserted);
    }

    /// Installs a computed split of the last node on `path` and cascades.
    fn apply_split(
        &mut self,
        path: &[PageId],
        a: Vec<Entry>,
        b: Vec<Entry>,
        dim: usize,
        reinserted: &mut u64,
    ) {
        let id = *path.last().expect("split path is never empty");
        self.cost.split();
        let level = self.node(id).level;
        let per_page = if level == 0 {
            self.cfg.max_leaf_entries()
        } else {
            self.cfg.max_dir_entries()
        };
        let span_for = |len: usize| len.div_ceil(per_page).max(1) as u32;

        let hist = self.node(id).split_history;
        {
            let n = self.node_mut(id);
            n.span = span_for(a.len());
            n.set_entries(a);
        }
        let mut sibling = self.empty_node(level);
        sibling.span = span_for(b.len());
        sibling.split_history = hist;
        sibling.set_entries(b);
        let sib_mbr = sibling.mbr().expect("split side not empty");
        let points = sibling.stores_points();
        let sib_id = self.alloc(sibling);
        if points {
            // The entries that stay in `id` already map to it.
            self.place_leaf(sib_id);
        }
        let node_mbr = self.node(id).mbr().expect("split side not empty");
        self.cost
            .write(self.node(id).span as u64 + self.node(sib_id).span as u64);

        if id == self.root {
            let mut new_root = self.empty_node(level + 1);
            new_root.record_split(dim);
            new_root.push_child(&node_mbr, id);
            new_root.push_child(&sib_mbr, sib_id);
            self.root = self.alloc(new_root);
            self.cost.write(1);
            return;
        }

        let parent = path[path.len() - 2];
        {
            let p = self.node_mut(parent);
            p.record_split(dim);
            let idx = p.child_index(id).expect("split child present in parent");
            p.set_rect(idx, &node_mbr);
            p.push_child(&sib_mbr, sib_id);
        }
        self.cost.write(self.node(parent).span as u64);
        self.resolve_overflow(&path[..path.len() - 1], reinserted);
    }

    /// R\* forced reinsertion of the `reinsert_fraction` outermost entries.
    fn forced_reinsert(&mut self, path: &[PageId], reinserted: &mut u64) {
        let id = *path.last().expect("reinsert path is never empty");
        let level = self.node(id).level;
        let center = self.node(id).mbr().expect("non-empty").center();
        let frac = self.cfg.reinsert_fraction;
        let mut entries = self.node_mut(id).take_entries();
        // Sort by center distance, farthest last; split off the tail.
        entries.sort_by(|x, y| {
            let dx = dist_sq(&x.mbr.center(), &center);
            let dy = dist_sq(&y.mbr.center(), &center);
            dx.partial_cmp(&dy).unwrap_or(Ordering::Equal)
        });
        let total = entries.len();
        let p = ((total as f64 * frac) as usize).clamp(1, total - 1);
        let evicted: Vec<Entry> = entries.split_off(total - p);
        self.node_mut(id).set_entries(entries);
        self.cost.cpu(total as u64);
        self.propagate_mbr(path);
        // Close reinsert: nearest-to-center first.
        for e in evicted {
            self.insert_at_level(e, level, reinserted);
        }
    }

    // ------------------------------------------------------------------
    // splits
    // ------------------------------------------------------------------

    /// The R\*-tree topological split: choose the axis with minimum margin
    /// sum over all distributions, then the distribution with minimum
    /// overlap (ties: minimum total area). Returns `(left, right, axis)`.
    fn rstar_split(&self, mut entries: Vec<Entry>, leaf: bool) -> (Vec<Entry>, Vec<Entry>, usize) {
        let d = self.cfg.dim;
        let total = entries.len();
        let per_page = if leaf {
            self.cfg.max_leaf_entries()
        } else {
            self.cfg.max_dir_entries()
        };
        let m = ((per_page as f64 * 0.4) as usize).clamp(1, total / 2);

        let mut best_axis = 0usize;
        let mut best_margin = f64::INFINITY;
        for axis in 0..d {
            let mut margin = 0.0;
            for by_hi in [false, true] {
                sort_entries(&mut entries, axis, by_hi);
                let (prefix, suffix) = prefix_suffix_unions(&entries);
                for k in m..=(total - m) {
                    margin += prefix[k - 1].margin() + suffix[k].margin();
                }
            }
            self.cost.cpu(total as u64);
            if margin < best_margin {
                best_margin = margin;
                best_axis = axis;
            }
        }

        let mut best: Option<(bool, usize, f64, f64)> = None;
        for by_hi in [false, true] {
            sort_entries(&mut entries, best_axis, by_hi);
            let (prefix, suffix) = prefix_suffix_unions(&entries);
            for k in m..=(total - m) {
                let left = &prefix[k - 1];
                let right = &suffix[k];
                let overlap = left.overlap_volume(right);
                let area = left.volume() + right.volume();
                let better = match &best {
                    None => true,
                    Some((_, _, o, a)) => {
                        overlap < o - 1e-15 || (overlap <= o + 1e-15 && area < *a)
                    }
                };
                if better {
                    best = Some((by_hi, k, overlap, area));
                }
            }
        }
        let (by_hi, k, _, _) = best.expect("at least one distribution");
        sort_entries(&mut entries, best_axis, by_hi);
        let right = entries.split_off(k);
        (entries, right, best_axis)
    }

    /// X-tree directory split: topological first; if too much overlap, an
    /// overlap-minimal split along a split-history dimension; `None` means
    /// "make a supernode".
    fn try_xtree_split(&mut self, id: PageId) -> Option<(Vec<Entry>, Vec<Entry>, usize)> {
        let entries = self.node_mut(id).take_entries();
        let total = entries.len();
        let min_side = ((total as f64 * self.cfg.min_fanout) as usize).max(1);

        // 1. Topological split.
        let (a, b, dim) = self.rstar_split(entries, false);
        if rel_overlap(&a, &b) <= self.cfg.max_overlap && a.len() >= min_side && b.len() >= min_side
        {
            return Some((a, b, dim));
        }
        let mut entries = a;
        entries.extend(b);

        // 2. Overlap-minimal split: try split-history dimensions first, then
        // every dimension, keeping the best balanced distribution.
        let hist: Vec<usize> = self.node(id).history_dims().collect();
        let candidate_dims: Vec<usize> = if hist.is_empty() {
            (0..self.cfg.dim).collect()
        } else {
            let mut v = hist.clone();
            v.extend((0..self.cfg.dim).filter(|dd| !hist.contains(dd)));
            v
        };
        let mut best: Option<(usize, usize, f64)> = None; // (dim, k, overlap)
        for &dim in &candidate_dims {
            sort_entries(&mut entries, dim, false);
            let (prefix, suffix) = prefix_suffix_unions(&entries);
            for k in min_side..=(total - min_side) {
                let left = &prefix[k - 1];
                let right = &suffix[k];
                let union_v = left.union(right).volume();
                let ov = if union_v > 0.0 {
                    left.overlap_volume(right) / union_v
                } else {
                    0.0
                };
                if best.is_none_or(|(_, _, bo)| ov < bo) {
                    best = Some((dim, k, ov));
                }
            }
            self.cost.cpu(total as u64);
        }
        if let Some((dim, k, ov)) = best {
            if ov <= self.cfg.max_overlap {
                sort_entries(&mut entries, dim, false);
                let right = entries.split_off(k);
                return Some((entries, right, dim));
            }
        }

        // 3. Give up: restore entries; caller makes a supernode.
        self.node_mut(id).set_entries(entries);
        None
    }

    // ------------------------------------------------------------------
    // deletion
    // ------------------------------------------------------------------

    /// Removes the item `id` whose entry MBR equals `mbr`.
    ///
    /// Returns `false` when no such entry exists. Underflowing nodes are
    /// dissolved and their entries reinserted (the R-tree condense step).
    pub fn delete(&mut self, mbr: &Mbr, id: ItemId) -> bool {
        let target = BoxRef::of(mbr);
        let Some(path) = self.find_leaf(self.root, target, id, &mut Vec::new()) else {
            return false;
        };
        let leaf = *path.last().expect("find_leaf returns a non-empty path");
        {
            let n = self.node_mut(leaf);
            let idx = n
                .item_index(id, target)
                .expect("find_leaf returned a leaf containing the entry");
            n.swap_remove(idx);
        }
        if self.cfg.leaf_stores_points {
            self.leaf_of[id as usize] = NO_LEAF;
        }
        self.cost.write(self.node(leaf).span as u64);
        self.len -= 1;
        self.condense(path);
        true
    }

    fn find_leaf(
        &self,
        cur: PageId,
        target: BoxRef<'_>,
        id: ItemId,
        path: &mut Vec<PageId>,
    ) -> Option<Vec<PageId>> {
        self.touch(cur);
        path.push(cur);
        let n = self.node(cur);
        if n.is_leaf() {
            if n.item_index(id, target).is_some() {
                return Some(path.clone());
            }
        } else {
            for i in 0..n.len() {
                if n.rect(i).contains(target) {
                    if let Some(p) = self.find_leaf(n.child(i), target, id, path) {
                        return Some(p);
                    }
                }
            }
        }
        path.pop();
        None
    }

    fn condense(&mut self, mut path: Vec<PageId>) {
        let mut orphans: Vec<(u32, Entry)> = Vec::new();
        while path.len() > 1 {
            let id = path.pop().expect("condense path has at least two nodes");
            let parent = *path.last().expect("condense path has at least two nodes");
            let n = self.node(id);
            let min = self.cfg.min_entries(n.is_leaf());
            if n.len() < min {
                let level = n.level;
                let taken = self.node_mut(id).take_entries();
                orphans.extend(taken.into_iter().map(|e| (level, e)));
                let p = self.node_mut(parent);
                let idx = p.child_index(id).expect("child present");
                p.swap_remove(idx);
                self.dealloc(id);
            } else {
                // Shrink supernode span if the entries now fit fewer pages.
                let per_page = if n.is_leaf() {
                    self.cfg.max_leaf_entries()
                } else {
                    self.cfg.max_dir_entries()
                };
                let need = n.len().div_ceil(per_page).max(1) as u32;
                if need < n.span {
                    self.node_mut(id).span = need;
                }
                // Tighten the parent entry MBR.
                let child_mbr = self.node(id).mbr();
                let p = self.node_mut(parent);
                let idx = p.child_index(id).expect("child present");
                match child_mbr {
                    Some(m) => p.set_rect(idx, &m),
                    None => {
                        p.swap_remove(idx);
                        self.dealloc(id);
                    }
                }
            }
            self.cost.write(self.node(parent).span as u64);
        }
        // Shrink the root: a directory root with one child hands over.
        loop {
            let r = self.node(self.root);
            if !r.is_leaf() && r.len() == 1 {
                let child = r.child(0);
                let old = self.root;
                self.root = child;
                self.dealloc(old);
            } else {
                break;
            }
        }
        // Reinsert orphans at their original levels.
        let mut reinserted: u64 = u64::MAX; // no forced reinsertion here
        for (level, e) in orphans {
            let root_level = self.node(self.root).level;
            if level > root_level {
                // The tree shrank below the orphan's level; reinsert its
                // descendants instead (rare, only after mass deletions).
                self.reinsert_subtree(e, &mut reinserted);
            } else {
                self.insert_at_level(e, level, &mut reinserted);
            }
        }
    }

    fn reinsert_subtree(&mut self, e: Entry, reinserted: &mut u64) {
        match e.payload {
            Payload::Item(_) => {
                self.insert_at_level(e, 0, reinserted);
            }
            Payload::Child(cid) => {
                let entries = self.node_mut(cid).take_entries();
                let level = self.node(cid).level;
                self.dealloc(cid);
                for sub in entries {
                    let root_level = self.node(self.root).level;
                    if level > root_level {
                        self.reinsert_subtree(sub, reinserted);
                    } else {
                        self.insert_at_level(sub, level, reinserted);
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // queries
    // ------------------------------------------------------------------

    /// All items whose MBR contains the query point.
    pub fn point_query(&self, q: &[f64]) -> Vec<ItemId> {
        let mut out = Vec::new();
        self.point_query_with(q, &mut Vec::new(), &mut out);
        out
    }

    /// [`Self::point_query`] with caller-provided buffers: the traversal
    /// stack and the output vector are cleared and reused, so a warmed-up
    /// caller pays **zero heap allocations** per query on a box-leaf tree
    /// (a point-leaf tree gathers its leaf entries into one buffer per
    /// call). Returns the number
    /// of simulated pages touched (supernodes count their span) — the
    /// per-query page cost, independent of the shared counters.
    pub fn point_query_with(
        &self,
        q: &[f64],
        stack: &mut Vec<PageId>,
        out: &mut Vec<ItemId>,
    ) -> u64 {
        let contains = |b: BoxRef<'_>| b.contains_point(q);
        self.region_walk(stack, out, contains, contains)
    }

    /// All items whose MBR intersects the query window.
    pub fn window_query(&self, window: &Mbr) -> Vec<ItemId> {
        let meets = |b: BoxRef<'_>| b.intersects(BoxRef::of(window));
        self.region_items(meets, meets)
    }

    /// All items whose MBR intersects the sphere `(center, radius)`.
    pub fn sphere_query(&self, center: &[f64], radius: f64) -> Vec<ItemId> {
        let meets = |b: BoxRef<'_>| b.intersects_sphere(center, radius);
        self.region_items(meets, meets)
    }

    /// All items stored in leaf *pages* whose region contains `q` — the
    /// paper's **Point** candidate strategy ("all points of which the
    /// rectangle in the index contains the point").
    pub fn page_point_query(&self, q: &[f64]) -> Vec<ItemId> {
        self.region_items(|b| b.contains_point(q), |_| true)
    }

    /// All items stored in leaf pages whose region intersects the sphere —
    /// the paper's **Sphere** candidate strategy.
    pub fn page_sphere_query(&self, center: &[f64], radius: f64) -> Vec<ItemId> {
        self.region_items(|b| b.intersects_sphere(center, radius), |_| true)
    }

    /// [`Self::region_walk`] into fresh buffers.
    fn region_items(
        &self,
        descend: impl Fn(BoxRef<'_>) -> bool,
        keep: impl Fn(BoxRef<'_>) -> bool,
    ) -> Vec<ItemId> {
        let mut out = Vec::new();
        self.region_walk(&mut Vec::new(), &mut out, descend, keep);
        out
    }

    /// The one region walk behind every box query: a depth-first descent
    /// into each child whose box passes `descend`, returning (in `out`,
    /// cleared first) each leaf item whose box passes `keep`. Children are
    /// pushed in reverse so they pop in entry order: nodes are visited,
    /// billed (`touch`, one CPU op per entry) and their items returned in
    /// exactly the order of a recursive preorder walk, which is what the
    /// LRU cache's hit counts depend on. Returns the pages touched.
    fn region_walk(
        &self,
        stack: &mut Vec<PageId>,
        out: &mut Vec<ItemId>,
        descend: impl Fn(BoxRef<'_>) -> bool,
        keep: impl Fn(BoxRef<'_>) -> bool,
    ) -> u64 {
        stack.clear();
        out.clear();
        stack.push(self.root);
        // A point leaf's entries are gathered here; box trees never grow it.
        let mut buf = Vec::new();
        let mut pages = 0u64;
        while let Some(id) = stack.pop() {
            self.touch(id);
            let n = self.node(id);
            pages += n.span as u64;
            self.cost.cpu(n.len() as u64);
            if n.is_leaf() {
                for i in 0..n.len() {
                    if keep(n.entry_box(i, &mut buf)) {
                        out.push(n.item(i));
                    }
                }
            } else {
                let children = (0..n.len()).rev().filter(|&i| descend(n.rect(i)));
                stack.extend(children.map(|i| n.child(i)));
            }
        }
        pages
    }

    /// Nearest item restricted to the open axis halfspace
    /// `sign·(x[dim] − q[dim]) > 0` — the directional NN of the paper's
    /// **NN-Direction** strategy (2·d of these per cell).
    pub fn nn_in_halfspace(&self, q: &[f64], dim: usize, positive: bool) -> Option<Neighbor> {
        let in_halfspace = |b: BoxRef<'_>| {
            if positive {
                b.hi[dim] > q[dim]
            } else {
                b.lo[dim] < q[dim]
            }
        };
        #[derive(PartialEq)]
        struct It {
            key: f64,
            target: Result<PageId, (ItemId, f64)>,
        }
        impl Eq for It {}
        impl PartialOrd for It {
            fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
                Some(self.cmp(o))
            }
        }
        impl Ord for It {
            fn cmp(&self, o: &Self) -> Ordering {
                o.key.partial_cmp(&self.key).unwrap_or(Ordering::Equal)
            }
        }
        let mut heap: BinaryHeap<It> = BinaryHeap::new();
        let mut buf = Vec::new();
        heap.push(It {
            key: 0.0,
            target: Ok(self.root),
        });
        while let Some(it) = heap.pop() {
            self.cost.cpu(1);
            match it.target {
                Err((id, d2)) => {
                    return Some(Neighbor {
                        id,
                        dist: d2.sqrt(),
                    })
                }
                Ok(page) => {
                    self.touch(page);
                    let n = self.node(page);
                    self.cost.cpu(n.len() as u64);
                    for i in 0..n.len() {
                        let b = n.entry_box(i, &mut buf);
                        if !in_halfspace(b) {
                            continue;
                        }
                        let d2 = b.min_dist_sq(q);
                        heap.push(It {
                            key: d2,
                            target: if n.is_leaf() {
                                Err((n.item(i), d2))
                            } else {
                                Ok(n.child(i))
                            },
                        });
                    }
                }
            }
        }
        None
    }

    /// MINDIST-ordered best-first traversal of a **forest** of trees that
    /// streams leaf items to the caller while the caller shrinks one
    /// pruning bound shared by every tree — the serving index's one read
    /// path (see `DESIGN.md` §17). A k-NN query shrinks the bound to its
    /// running k-th best; a radius query holds it at its ball's squared
    /// radius, which reads exactly the pages that meet the ball; a
    /// duplicate probe holds it at 0, which reads only the pages whose box
    /// contains the probe. A single tree is the forest of one
    /// (`Tree::best_first_stream_with(&[&tree], …)`); a sharded index
    /// passes every shard (each reads as its tree through `AsRef`), so
    /// each shard is pruned by the global running bound rather than by
    /// its own (`DESIGN.md` §12.1).
    ///
    /// Pages of every tree share one priority queue and are expanded in
    /// ascending `MINDIST(q, MBR)` order \[HS 95\]. When a leaf is
    /// expanded, `visit(tree, items, block)` is called once with the whole
    /// leaf: `tree` is the index of the leaf's tree in `forest`, `items`
    /// its item ids in entry order and `block` its coordinates — in a
    /// point-leaf tree the dimension-major block, whose column `j`
    /// (coordinate `j` of every point) is `block[j·m..(j+1)·m]` for
    /// `m = items.len()`; in a box-leaf tree one `lo ‖ hi` row of `2·d`
    /// values per item. The traversal computes no per-item distances; the
    /// caller owns item evaluation (typically one exact distance per point,
    /// one lane per point across the columns) and returns the pruning
    /// bound after the leaf as a *squared* distance in the trees'
    /// Euclidean geometry:
    ///
    /// * `f64::INFINITY` — no bound yet; nothing is pruned.
    /// * any non-negative value `b²` — directory entries and queued pages
    ///   with `MINDIST² > b²` are pruned (strict: equality is expanded, so
    ///   ties on the bound are never lost).
    /// * any negative value — abort the whole traversal (deadline hit, or
    ///   the probe found what it was looking for); remaining queued pages
    ///   are counted as pruned and the walk stops.
    ///
    /// `D` is the trees' dimension as a compile-time constant, which
    /// unrolls the directory MINDIST; `D = 0` reads it at run time. Both
    /// compute the same `min_dist_sq` bit for bit.
    ///
    /// Exactness: the bound may only *shrink* over the traversal (the
    /// caller's running best can only improve), every skipped subtree had
    /// `MINDIST² > b²` against a bound that was already valid, and
    /// `MINDIST` lower-bounds the distance to anything inside the MBR —
    /// so no item of any tree within the final bound is ever missed. The
    /// traversal terminates early once the closest queued page is beyond
    /// the bound (a min-heap pop ordering makes that a global statement,
    /// across all trees).
    ///
    /// Returns the page count (supernodes bill their span), the number
    /// of subtrees pruned before their node was ever read and the number
    /// of items streamed (every entry of every leaf handed to `visit`),
    /// summed over the forest. Only pages and CPU ops are kept per tree:
    /// each tree's are billed to its own cost tracker once, at the end,
    /// without consulting the page cache. The heap lives in the caller's
    /// [`BestFirstScratch`]; a warmed-up scratch makes the traversal
    /// allocation-free.
    pub fn best_first_stream_with<const D: usize, F>(
        forest: &[impl AsRef<Tree>],
        q: &[f64],
        scratch: &mut BestFirstScratch,
        mut visit: F,
    ) -> TraversalStats
    where
        F: FnMut(usize, &[ItemId], &[f64]) -> f64,
    {
        debug_assert!(D == 0 || q.len() == D, "D is the query's dimension");
        let BestFirstScratch { heap, tally } = scratch;
        heap.clear();
        tally.clear();
        tally.resize(forest.len(), TreeTally::default());
        for (t, tree) in forest.iter().map(AsRef::as_ref).enumerate() {
            if tree.len > 0 {
                heap.push(PageSlot {
                    key: 0.0,
                    tree: u32::try_from(t).expect("a forest holds fewer than 2^32 trees"),
                    page: tree.root,
                });
            }
        }
        let mut total = TraversalStats::default();
        let mut bound = f64::INFINITY;
        while let Some(slot) = heap.pop() {
            let t = slot.tree as usize;
            tally[t].ops += 1;
            if slot.key > bound {
                // Min-heap: every page still queued, in any tree, is at
                // least this far out, so the whole frontier is pruned in
                // one step.
                total.nodes_pruned += 1 + heap.len() as u64;
                break;
            }
            let tree = forest[t].as_ref();
            let n = tree.node(slot.page);
            let tt = &mut tally[t];
            tt.pages += n.span as u64;
            tt.ops += n.len() as u64;
            if n.is_leaf() {
                total.items += n.len() as u64;
                bound = visit(t, n.payloads(), n.bounds());
                if bound < 0.0 {
                    total.nodes_pruned += heap.len() as u64;
                    break;
                }
            } else {
                // A constant `D` fixes every slice length below, so the
                // MINDIST loop unrolls.
                let d = if D == 0 { tree.cfg.dim } else { D };
                let q = &q[..d];
                for (row, &child) in n.bounds().chunks_exact(2 * d).zip(n.payloads()) {
                    let (lo, hi) = row.split_at(d);
                    let d2 = min_dist_sq(lo, hi, q);
                    if d2 > bound {
                        total.nodes_pruned += 1;
                        continue;
                    }
                    heap.push(PageSlot {
                        key: d2,
                        tree: slot.tree,
                        page: PageId(child as u32),
                    });
                }
            }
        }
        for (tree, tt) in forest.iter().map(AsRef::as_ref).zip(tally.iter()) {
            if tt.ops > 0 {
                tree.cost.read(tt.pages);
                tree.cost.cpu(tt.ops);
            }
            total.pages += tt.pages;
        }
        total
    }

    /// Best-first (priority-queue) nearest-neighbor search \[HS 95\].
    pub fn nn_best_first(&self, q: &[f64]) -> Option<Neighbor> {
        self.knn_best_first(q, 1).into_iter().next()
    }

    /// Best-first k-nearest-neighbor search.
    pub fn knn_best_first(&self, q: &[f64], k: usize) -> Vec<Neighbor> {
        self.approx_knn(q, k, usize::MAX).0
    }

    /// Budgeted best-first k-nearest-neighbor probe.
    ///
    /// Identical to [`Self::knn_best_first`] while the page budget lasts;
    /// once `page_budget` node expansions have been spent, no further pages
    /// are opened and the best already-discovered items are drained instead.
    /// The second return value is `true` iff the result is **provably
    /// exact** — the search terminated the way the exact algorithm does
    /// (k items popped before any closer page, or the whole queue drained)
    /// without ever skipping a page.
    ///
    /// With `page_budget == usize::MAX` this *is* the exact search. The
    /// probe is deterministic for a given tree shape, which the NN-cell
    /// build relies on (parallel and sequential builds must agree).
    pub fn approx_knn(&self, q: &[f64], k: usize, page_budget: usize) -> (Vec<Neighbor>, bool) {
        #[derive(PartialEq)]
        struct Item {
            key: f64,
            target: Result<PageId, (ItemId, f64)>,
        }
        impl Eq for Item {}
        impl PartialOrd for Item {
            fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
                Some(self.cmp(o))
            }
        }
        impl Ord for Item {
            fn cmp(&self, o: &Self) -> Ordering {
                // min-heap by key
                o.key.partial_cmp(&self.key).unwrap_or(Ordering::Equal)
            }
        }

        let mut out = Vec::new();
        if self.len == 0 || k == 0 {
            return (out, true);
        }
        let mut heap: BinaryHeap<Item> = BinaryHeap::new();
        let mut buf = Vec::new();
        heap.push(Item {
            key: 0.0,
            target: Ok(self.root),
        });
        // Upper bound: the k-th best item distance seen so far (max-heap of
        // item keys). Entries beyond it can never reach the result.
        let mut kth: BinaryHeap<OrderedF64> = BinaryHeap::new();
        let bound = |kth: &BinaryHeap<OrderedF64>| {
            if kth.len() == k {
                kth.peek().map(|b| b.0).unwrap_or(f64::INFINITY)
            } else {
                f64::INFINITY
            }
        };
        let mut pages_left = page_budget;
        let mut skipped_page = false;
        while let Some(it) = heap.pop() {
            self.cost.cpu(1);
            match it.target {
                Err((id, d2)) => {
                    out.push(Neighbor {
                        id,
                        dist: d2.sqrt(),
                    });
                    if out.len() == k {
                        break;
                    }
                }
                Ok(page) => {
                    if pages_left == 0 {
                        // Budget spent: drop the page (and with it
                        // exactness) and keep draining discovered items.
                        skipped_page = true;
                        continue;
                    }
                    pages_left -= 1;
                    self.touch(page);
                    let n = self.node(page);
                    self.cost.cpu(n.len() as u64);
                    for i in 0..n.len() {
                        let d2 = n.entry_box(i, &mut buf).min_dist_sq(q);
                        if d2 > bound(&kth) {
                            continue;
                        }
                        if n.is_leaf() {
                            if kth.len() == k {
                                kth.pop();
                            }
                            kth.push(OrderedF64(d2));
                            heap.push(Item {
                                key: d2,
                                target: Err((n.item(i), d2)),
                            });
                        } else {
                            heap.push(Item {
                                key: d2,
                                target: Ok(n.child(i)),
                            });
                        }
                    }
                }
            }
        }
        (out, !skipped_page)
    }

    /// Branch-and-bound depth-first nearest-neighbor search \[RKV 95\], with
    /// MINDIST ordering and MINDIST/MINMAXDIST pruning.
    pub fn nn_branch_bound(&self, q: &[f64]) -> Option<Neighbor> {
        if self.len == 0 {
            return None;
        }
        let mut best: Option<(ItemId, f64)> = None;
        self.nn_bb_rec(self.root, q, &mut best, &mut Vec::new());
        best.map(|(id, d2)| Neighbor {
            id,
            dist: d2.sqrt(),
        })
    }

    /// One node of [`Self::nn_branch_bound`]; `buf` holds a point leaf's
    /// gathered entry.
    fn nn_bb_rec(
        &self,
        id: PageId,
        q: &[f64],
        best: &mut Option<(ItemId, f64)>,
        buf: &mut Vec<f64>,
    ) {
        self.touch(id);
        let n = self.node(id);
        self.cost.cpu(n.len() as u64);
        if n.is_leaf() {
            for i in 0..n.len() {
                let d2 = n.entry_box(i, buf).min_dist_sq(q);
                if best.is_none_or(|(_, b)| d2 < b) {
                    *best = Some((n.item(i), d2));
                }
            }
            return;
        }
        // Active branch list ordered by MINDIST; prune with MINMAXDIST.
        let mut abl: Vec<(f64, f64, PageId)> = (0..n.len())
            .map(|i| {
                let b = n.rect(i);
                (b.min_dist_sq(q), b.minmax_dist_sq(q), n.child(i))
            })
            .collect();
        self.cost.cpu(2 * abl.len() as u64);
        abl.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(Ordering::Equal));
        // Downward prune: an MBR whose MINDIST exceeds a sibling's
        // MINMAXDIST cannot contain the NN.
        let min_minmax = abl.iter().map(|t| t.1).fold(f64::INFINITY, f64::min);
        for (mind, _, child) in abl {
            if mind > min_minmax + 1e-12 {
                continue;
            }
            if let Some((_, b)) = best {
                if mind >= *b {
                    continue;
                }
            }
            self.nn_bb_rec(child, q, best, buf);
        }
    }

    // ------------------------------------------------------------------
    // introspection / validation
    // ------------------------------------------------------------------

    /// Iterates over every leaf entry (id, MBR).
    pub fn items(&self) -> Vec<(ItemId, Mbr)> {
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        let mut buf = Vec::new();
        while let Some(id) = stack.pop() {
            let n = self.node(id);
            for i in 0..n.len() {
                if n.is_leaf() {
                    out.push((n.item(i), n.entry_box(i, &mut buf).to_mbr()));
                } else {
                    stack.push(n.child(i));
                }
            }
        }
        out
    }

    /// Structural invariant check for tests: levels descend by one, entry
    /// counts fit page spans, every node has its level's layout and its
    /// coordinate array holds one `lo ‖ hi` row per entry (`2·d` values)
    /// or, in a point leaf, one point per item (`d` values, dimension-major),
    /// directory rows contain their children's entries and are their exact
    /// unions, a point leaf's parent entry is bit for bit the minimum and
    /// maximum of each of its block's columns, and the slot column maps
    /// every item of a point leaf to that leaf and holds no other item.
    ///
    /// # Panics
    /// Panics with a description of the violated invariant.
    pub fn validate(&self) {
        self.validate_rec(self.root, None);
        assert_eq!(
            self.leaf_entry_count(),
            self.len,
            "len() disagrees with leaf entry count"
        );
        // Every item of a point leaf maps to that leaf (checked per leaf),
        // so as many mapped slots as items make the column exact; a
        // box-leaf tree maps none.
        let held = self.leaf_of.iter().filter(|&&p| p != NO_LEAF).count();
        let want = if self.cfg.leaf_stores_points {
            self.len
        } else {
            0
        };
        assert_eq!(held, want, "the slot column maps {held} slots");
    }

    fn validate_rec(&self, id: PageId, expected: Option<BoxRef<'_>>) {
        let n = self.node(id);
        assert!(
            n.len() <= self.capacity(n),
            "node {id:?} over capacity: {} > {}",
            n.len(),
            self.capacity(n)
        );
        let d = self.cfg.dim;
        let points = n.is_leaf() && self.cfg.leaf_stores_points;
        assert_eq!(
            n.stores_points(),
            points,
            "node {id:?} has the wrong layout"
        );
        let width = if points { d } else { 2 * d };
        assert_eq!(
            n.bounds().len(),
            n.len() * width,
            "node {id:?}: coordinate array does not hold {width} values per entry"
        );
        if let Some(exp) = expected {
            let actual = n.mbr().expect("non-root node must be non-empty");
            for i in 0..d {
                assert!(
                    (exp.lo[i] - actual.lo()[i]).abs() < 1e-9
                        && (exp.hi[i] - actual.hi()[i]).abs() < 1e-9,
                    "parent entry MBR not tight for node {id:?}"
                );
            }
            let mut buf = Vec::new();
            for j in 0..n.len() {
                let r = n.entry_box(j, &mut buf);
                assert!(
                    (0..d).all(|i| exp.lo[i] <= r.lo[i] && r.hi[i] <= exp.hi[i]),
                    "parent entry of node {id:?} does not contain entry {j}"
                );
            }
            if points {
                for (i, col) in n.bounds().chunks_exact(n.len()).enumerate() {
                    let lo = col.iter().copied().fold(f64::INFINITY, f64::min);
                    let hi = col.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    assert!(
                        lo == exp.lo[i] && hi == exp.hi[i],
                        "point leaf {id:?}: column {i} spans [{lo}, {hi}], its parent \
                         entry [{}, {}]",
                        exp.lo[i],
                        exp.hi[i]
                    );
                }
            }
        }
        if points {
            for &item in n.payloads() {
                assert_eq!(
                    self.leaf_of.get(item as usize).copied(),
                    Some(id.0),
                    "slot {item} does not map to its leaf {id:?}"
                );
            }
        }
        if !n.is_leaf() {
            for i in 0..n.len() {
                let c = self.node(n.child(i));
                assert_eq!(c.level + 1, n.level, "level mismatch under {id:?}");
                self.validate_rec(n.child(i), Some(n.rect(i)));
            }
        }
    }
}

/// Counters of one [`Tree::best_first_stream_with`] traversal, summed
/// over its forest.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraversalStats {
    /// Simulated pages read (supernodes bill their span).
    pub pages: u64,
    /// Subtrees pruned by the caller's bound before their node was read:
    /// directory entries never queued plus queued pages discarded after
    /// the bound shrank below their MINDIST.
    pub nodes_pruned: u64,
    /// Leaf entries handed to the caller's `visit`.
    pub items: u64,
}

/// Reusable priority-queue scratch for [`Tree::best_first_stream_with`].
/// The heap and the per-tree cost tallies grow to a high-water mark and
/// are then reused allocation-free; one scratch must not be shared
/// between threads.
#[derive(Default)]
pub struct BestFirstScratch {
    heap: BinaryHeap<PageSlot>,
    tally: Vec<TreeTally>,
}

impl BestFirstScratch {
    /// A fresh (cold) scratch; the heap is allocated lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes the queue and the per-tree tallies hold (their capacities).
    pub fn retained_bytes(&self) -> usize {
        self.heap.capacity() * std::mem::size_of::<PageSlot>()
            + self.tally.capacity() * std::mem::size_of::<TreeTally>()
    }
}

/// One tree's cost during a forest traversal, billed to its cost tracker
/// at the end.
#[derive(Clone, Copy, Default)]
struct TreeTally {
    pages: u64,
    ops: u64,
}

/// One queued page of the best-first traversal, min-ordered by MINDIST²
/// (16 bytes: the key, the page's tree in the forest, the page).
#[derive(PartialEq)]
struct PageSlot {
    key: f64,
    tree: u32,
    page: PageId,
}

impl Eq for PageSlot {}

impl PartialOrd for PageSlot {
    fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
        Some(self.cmp(o))
    }
}

impl Ord for PageSlot {
    fn cmp(&self, o: &Self) -> Ordering {
        // Min-heap by key inside std's max-heap. The tree does not take
        // part: equal keys pop in the heap's own order, exactly as in a
        // one-tree traversal.
        o.key.partial_cmp(&self.key).unwrap_or(Ordering::Equal)
    }
}

/// Total-ordered f64 for the kth-best bound heap (max-heap by value).
#[derive(PartialEq)]
struct OrderedF64(f64);

impl Eq for OrderedF64 {}

impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
        Some(self.cmp(o))
    }
}

impl Ord for OrderedF64 {
    fn cmp(&self, o: &Self) -> Ordering {
        self.0.partial_cmp(&o.0).unwrap_or(Ordering::Equal)
    }
}

/// Incremental split-evaluation helper: `prefix[i]` is the union of
/// `entries[0..=i]`, `suffix[i]` the union of `entries[i..]`. Turns the
/// per-distribution union cost from `O(M·d)` into `O(d)` — essential once
/// X-tree supernodes make `M` large.
fn prefix_suffix_unions(entries: &[Entry]) -> (Vec<Mbr>, Vec<Mbr>) {
    let n = entries.len();
    let mut prefix = Vec::with_capacity(n);
    let mut acc = entries[0].mbr.clone();
    prefix.push(acc.clone());
    for e in &entries[1..] {
        acc.union_assign(&e.mbr);
        prefix.push(acc.clone());
    }
    let mut suffix = vec![entries[n - 1].mbr.clone(); n];
    for i in (0..n - 1).rev() {
        let mut m = entries[i].mbr.clone();
        m.union_assign(&suffix[i + 1]);
        suffix[i] = m;
    }
    (prefix, suffix)
}

/// Sorts entries by MBR lower (or upper) bound along `axis`.
fn sort_entries(entries: &mut [Entry], axis: usize, by_hi: bool) {
    entries.sort_by(|a, b| {
        let (x, y) = if by_hi {
            (a.mbr.hi()[axis], b.mbr.hi()[axis])
        } else {
            (a.mbr.lo()[axis], b.mbr.lo()[axis])
        };
        x.partial_cmp(&y).unwrap_or(Ordering::Equal)
    });
}

/// Relative overlap of two entry groups: `vol(A∩B) / vol(A∪B)`.
fn rel_overlap(a: &[Entry], b: &[Entry]) -> f64 {
    let ma = Mbr::union_all(a.iter().map(|e| &e.mbr)).expect("non-empty");
    let mb = Mbr::union_all(b.iter().map(|e| &e.mbr)).expect("non-empty");
    let u = ma.union(&mb).volume();
    if u <= 0.0 {
        return 0.0;
    }
    ma.overlap_volume(&mb) / u
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn points(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..d).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect()
    }

    /// `(id, point)` for every entry of a streamed point leaf, gathered
    /// from its dimension-major block.
    fn leaf_points<'a>(
        ids: &'a [ItemId],
        block: &'a [f64],
    ) -> impl Iterator<Item = (ItemId, Vec<f64>)> + 'a {
        let m = ids.len();
        let d = block.len() / m;
        ids.iter()
            .enumerate()
            .map(move |(i, &id)| (id, (0..d).map(|j| block[j * m + i]).collect()))
    }

    /// `pick_min_overlap_enlargement` as it was, computing each
    /// enlargement inside the sort's comparator and again for the key.
    fn pick_by_comparator(n: &Node, b: BoxRef<'_>, d: usize) -> usize {
        let len = n.len();
        let mut order: Vec<usize> = (0..len).collect();
        if len > 32 {
            order.sort_by(|&x, &y| {
                let ex = n.rect(x).enlargement(b);
                let ey = n.rect(y).enlargement(b);
                ex.partial_cmp(&ey).unwrap_or(Ordering::Equal)
            });
            order.truncate(32);
        }
        let mut grown_row = vec![0.0; 2 * d];
        let mut best = order[0];
        let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for &i in &order {
            let e = n.rect(i);
            e.union_into(b, &mut grown_row);
            let (lo, hi) = grown_row.split_at(d);
            let grown = BoxRef { lo, hi };
            let (mut before, mut after) = (0.0, 0.0);
            for j in (0..len).filter(|&j| j != i) {
                before += e.overlap_volume(n.rect(j));
                after += grown.overlap_volume(n.rect(j));
            }
            let key = (after - before, e.enlargement(b), e.volume());
            if key < best_key {
                best = i;
                best_key = key;
            }
        }
        best
    }

    #[test]
    fn min_overlap_choice_matches_the_comparator_it_replaced() {
        const D: usize = 4;
        let tree = Tree::new(TreeConfig::rstar(D));
        let mut rng = SmallRng::seed_from_u64(31);
        // Lattice boxes, so enlargements, overlaps and volumes tie often.
        let mut on_lattice = |steps: u32| -> Vec<f64> {
            (0..D)
                .map(|_| f64::from(rng.gen_range(0..steps)) / 4.0)
                .collect()
        };
        let mut ties = 0;
        for round in 0..200 {
            let len = 33 + round % 60;
            let mut node = tree.empty_node(1);
            for c in 0..len {
                let lo = on_lattice(3);
                let hi: Vec<f64> = lo.iter().zip(on_lattice(3)).map(|(l, w)| l + w).collect();
                node.push(BoxRef::of(&Mbr::new(lo, hi)), c as u64);
            }
            let p = on_lattice(4);
            let b = BoxRef { lo: &p, hi: &p };
            let want = pick_by_comparator(&node, b, D);
            assert_eq!(
                tree.pick_min_overlap_enlargement(&node, b),
                want,
                "round {round}"
            );
            let least = (0..len)
                .map(|i| node.rect(i).enlargement(b))
                .fold(f64::INFINITY, f64::min);
            ties += usize::from(
                (0..len)
                    .filter(|&i| node.rect(i).enlargement(b) == least)
                    .count()
                    > 1,
            );
        }
        assert!(ties > 50, "only {ties} rounds tie on the least enlargement");
    }

    fn build(policy: SplitPolicy, pts: &[Vec<f64>]) -> Tree {
        let d = pts[0].len();
        let cfg = match policy {
            SplitPolicy::RStar => TreeConfig::rstar(d),
            SplitPolicy::XTree => TreeConfig::xtree(d),
        }
        .with_point_leaves(true)
        .with_block_size(512); // small pages → deep trees even in tests
        let mut t = Tree::new(cfg);
        for (i, p) in pts.iter().enumerate() {
            t.insert(Mbr::from_point(p), i as ItemId);
        }
        t
    }

    #[test]
    fn empty_tree_queries() {
        let t = Tree::new(TreeConfig::rstar(2));
        assert!(t.is_empty());
        assert!(t.point_query(&[0.5, 0.5]).is_empty());
        assert!(t.nn_best_first(&[0.5, 0.5]).is_none());
        assert!(t.nn_branch_bound(&[0.5, 0.5]).is_none());
        assert!(t.knn_best_first(&[0.5, 0.5], 3).is_empty());
    }

    /// A leaf root and an internal root are both measured by box MINDIST:
    /// 0 anywhere inside the box, not only at a point.
    #[test]
    fn root_min_dist_is_box_mindist_at_any_height() {
        let empty = Tree::new(TreeConfig::xtree(2).with_point_leaves(true));
        assert_eq!(empty.root_min_dist_sq(&[0.5, 0.5]), f64::INFINITY);

        let leaf = build(SplitPolicy::XTree, &[vec![0.2, 0.2], vec![0.4, 0.6]]);
        assert_eq!(leaf.height(), 1);
        assert_eq!(
            leaf.root_min_dist_sq(&[0.3, 0.4]),
            0.0,
            "between the points"
        );
        let d = leaf.root_min_dist_sq(&[0.5, 0.1]);
        assert!((d - (0.1f64.powi(2) + 0.1f64.powi(2))).abs() < 1e-15, "{d}");

        let pts = points(600, 2, 3);
        let deep = build(SplitPolicy::XTree, &pts);
        assert!(deep.height() > 1);
        assert_eq!(deep.root_min_dist_sq(&pts[7]), 0.0);
        let d = deep.root_min_dist_sq(&[2.0, 0.5]);
        assert!((1.0..1.21).contains(&d), "{d}");
    }

    #[test]
    fn approx_knn_unbounded_is_exact_and_flags_budgeted_runs() {
        let pts = points(600, 6, 9);
        let t = build(SplitPolicy::XTree, &pts);
        let queries = points(25, 6, 10);
        for q in &queries {
            let exact = t.knn_best_first(q, 8);
            let (unbounded, proven) = t.approx_knn(q, 8, usize::MAX);
            assert!(proven, "unbounded probe must prove exactness");
            assert_eq!(
                exact.iter().map(|n| n.id).collect::<Vec<_>>(),
                unbounded.iter().map(|n| n.id).collect::<Vec<_>>()
            );
            // A starved probe still returns *something* it discovered,
            // sorted ascending, and admits it may be inexact.
            let (starved, starved_proven) = t.approx_knn(q, 8, 1);
            assert!(!starved_proven || starved.len() == 8);
            for w in starved.windows(2) {
                assert!(w[0].dist <= w[1].dist + 1e-12);
            }
            for n in &starved {
                assert!((dist_sq(q, &pts[n.id as usize]).sqrt() - n.dist).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn best_first_stream_matches_scan_and_prunes() {
        for policy in [SplitPolicy::RStar, SplitPolicy::XTree] {
            let pts = points(600, 6, 11);
            let t = build(policy, &pts);
            let queries = points(40, 6, 12);
            let mut scratch = BestFirstScratch::new();
            let mut any_pruned = false;
            for q in &queries {
                // Caller-side exact 1-NN: evaluate every streamed item,
                // shrink the bound to the best squared distance seen.
                let mut best: Option<(ItemId, f64)> = None;
                let mut visited = 0usize;
                let stats = Tree::best_first_stream_with::<0, _>(
                    &[&t],
                    q,
                    &mut scratch,
                    |_, ids, block| {
                        for (id, p) in leaf_points(ids, block) {
                            visited += 1;
                            assert_eq!(p, pts[id as usize], "the block holds the point");
                            let d2 = dist_sq(q, &p);
                            if best.is_none_or(|(_, b)| d2 < b) {
                                best = Some((id, d2));
                            }
                        }
                        best.map(|(_, b)| b).unwrap_or(f64::INFINITY)
                    },
                );
                let scan = (0..pts.len())
                    .min_by(|&a, &b| {
                        dist_sq(q, &pts[a])
                            .partial_cmp(&dist_sq(q, &pts[b]))
                            .unwrap()
                    })
                    .unwrap();
                assert_eq!(best.unwrap().0, scan as ItemId, "{policy:?}");
                assert!(stats.pages > 0);
                assert!(
                    visited < pts.len(),
                    "{policy:?}: MINDIST ordering should not visit every point"
                );
                any_pruned |= stats.nodes_pruned > 0;
            }
            assert!(any_pruned, "{policy:?}: bound never pruned a subtree");
        }
    }

    #[test]
    fn best_first_stream_negative_bound_aborts() {
        let pts = points(300, 4, 13);
        let t = build(SplitPolicy::XTree, &pts);
        let mut scratch = BestFirstScratch::new();
        let (mut leaves, mut streamed) = (0usize, 0usize);
        let stats =
            Tree::best_first_stream_with::<4, _>(&[&t], &pts[0], &mut scratch, |_, ids, _| {
                leaves += 1;
                streamed += ids.len();
                f64::NEG_INFINITY
            });
        // One leaf expanded and handed over whole, then the walk stops.
        assert_eq!(leaves, 1);
        assert_eq!(stats.items as usize, streamed);
        assert!(stats.pages < t.total_pages());
    }

    #[test]
    fn a_forest_streams_under_one_bound_and_bills_each_tree() {
        // Three trees over a round-robin split of one point set (the last
        // one empty), searched as one forest for the exact 1-NN.
        let pts = points(900, 5, 17);
        let parts: Vec<Vec<Vec<f64>>> = (0..2)
            .map(|s| pts.iter().skip(s).step_by(2).cloned().collect())
            .collect();
        let trees: Vec<Tree> = parts
            .iter()
            .map(|p| build(SplitPolicy::XTree, p))
            .chain(std::iter::once(Tree::new(
                TreeConfig::xtree(5).with_point_leaves(true),
            )))
            .collect();
        let forest: Vec<&Tree> = trees.iter().collect();
        let mut scratch = BestFirstScratch::new();
        for q in points(30, 5, 18) {
            for t in &trees {
                t.reset_stats();
            }
            let mut best: Option<(usize, f64)> = None;
            let mut visited = 0usize;
            let stats =
                Tree::best_first_stream_with::<5, _>(&forest, &q, &mut scratch, |t, ids, block| {
                    for (id, p) in leaf_points(ids, block) {
                        visited += 1;
                        assert_eq!(p, parts[t][id as usize], "point of tree {t}");
                        let global = id as usize * 2 + t;
                        let d2 = dist_sq(&q, &p);
                        if best.is_none_or(|(g, b)| (d2, global) < (b, g)) {
                            best = Some((global, d2));
                        }
                    }
                    best.map_or(f64::INFINITY, |(_, b)| b)
                });
            let scan = (0..pts.len())
                .min_by(|&a, &b| dist_sq(&q, &pts[a]).total_cmp(&dist_sq(&q, &pts[b])))
                .unwrap();
            assert_eq!(best.unwrap().0, scan);
            assert!(visited < pts.len(), "one bound prunes the whole forest");
            assert_eq!(
                trees[2].stats().page_reads,
                0,
                "an empty tree is never read"
            );
            assert_eq!(
                stats.items as usize, visited,
                "every streamed item is counted"
            );
            assert_eq!(
                trees.iter().map(|t| t.stats().page_reads).sum::<u64>(),
                stats.pages,
                "each tree bills its own pages"
            );
            assert!(trees[..2].iter().all(|t| t.stats().page_reads > 0));
        }
    }

    #[test]
    fn rstar_invariants_after_bulk_inserts() {
        let pts = points(500, 4, 1);
        let t = build(SplitPolicy::RStar, &pts);
        assert_eq!(t.len(), 500);
        assert!(t.height() >= 2);
        t.validate();
    }

    #[test]
    fn xtree_invariants_after_bulk_inserts() {
        let pts = points(500, 8, 2);
        let t = build(SplitPolicy::XTree, &pts);
        assert_eq!(t.len(), 500);
        t.validate();
    }

    #[test]
    fn point_query_finds_every_inserted_point() {
        for policy in [SplitPolicy::RStar, SplitPolicy::XTree] {
            let pts = points(300, 3, 3);
            let t = build(policy, &pts);
            for (i, p) in pts.iter().enumerate() {
                let hits = t.point_query(p);
                assert!(hits.contains(&(i as ItemId)), "{policy:?}: lost point {i}");
            }
        }
    }

    #[test]
    fn nn_matches_linear_scan_both_algorithms() {
        for policy in [SplitPolicy::RStar, SplitPolicy::XTree] {
            let pts = points(400, 5, 4);
            let t = build(policy, &pts);
            let queries = points(50, 5, 5);
            for q in &queries {
                let scan = (0..pts.len())
                    .min_by(|&a, &b| {
                        dist_sq(q, &pts[a])
                            .partial_cmp(&dist_sq(q, &pts[b]))
                            .unwrap()
                    })
                    .unwrap();
                let bf = t.nn_best_first(q).unwrap();
                let bb = t.nn_branch_bound(q).unwrap();
                assert_eq!(bf.id, scan as ItemId, "{policy:?} best-first");
                assert_eq!(bb.id, scan as ItemId, "{policy:?} branch-bound");
                assert!((bf.dist - dist_sq(q, &pts[scan]).sqrt()).abs() < 1e-9);
                assert!((bb.dist - bf.dist).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn knn_is_sorted_and_matches_scan() {
        let pts = points(200, 3, 6);
        let t = build(SplitPolicy::RStar, &pts);
        let q = [0.4, 0.6, 0.5];
        let k = 10;
        let got = t.knn_best_first(&q, k);
        assert_eq!(got.len(), k);
        for w in got.windows(2) {
            assert!(w[0].dist <= w[1].dist + 1e-12);
        }
        let mut scan: Vec<(usize, f64)> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| (i, dist_sq(&q, p)))
            .collect();
        scan.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        for (n, (i, d2)) in got.iter().zip(scan.iter()) {
            assert_eq!(n.id, *i as ItemId);
            assert!((n.dist - d2.sqrt()).abs() < 1e-9);
        }
    }

    #[test]
    fn window_and_sphere_queries_match_scan() {
        let pts = points(300, 2, 7);
        let t = build(SplitPolicy::XTree, &pts);
        let w = Mbr::new(vec![0.2, 0.3], vec![0.5, 0.7]);
        let mut got = t.window_query(&w);
        got.sort_unstable();
        let mut want: Vec<ItemId> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| w.contains_point(p))
            .map(|(i, _)| i as ItemId)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);

        let c = [0.5, 0.5];
        let r = 0.2;
        let mut got = t.sphere_query(&c, r);
        got.sort_unstable();
        let mut want: Vec<ItemId> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| dist_sq(&c, p) <= r * r + 1e-12)
            .map(|(i, _)| i as ItemId)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn delete_then_queries_stay_exact() {
        let pts = points(250, 3, 8);
        let mut t = build(SplitPolicy::RStar, &pts);
        // Delete every third point.
        for (i, p) in pts.iter().enumerate() {
            if i % 3 == 0 {
                assert!(t.delete(&Mbr::from_point(p), i as ItemId), "delete {i}");
            }
        }
        t.validate();
        assert_eq!(t.len(), pts.len() - pts.len().div_ceil(3));
        // Deleted points gone, others findable.
        for (i, p) in pts.iter().enumerate() {
            let hits = t.point_query(p);
            if i % 3 == 0 {
                assert!(!hits.contains(&(i as ItemId)));
            } else {
                assert!(hits.contains(&(i as ItemId)));
            }
        }
        // NN still exact vs scan of the survivors.
        let survivors: Vec<usize> = (0..pts.len()).filter(|i| i % 3 != 0).collect();
        let q = [0.3, 0.3, 0.3];
        let scan = survivors
            .iter()
            .copied()
            .min_by(|&a, &b| {
                dist_sq(&q, &pts[a])
                    .partial_cmp(&dist_sq(&q, &pts[b]))
                    .unwrap()
            })
            .unwrap();
        assert_eq!(t.nn_best_first(&q).unwrap().id, scan as ItemId);
    }

    #[test]
    fn delete_missing_returns_false() {
        let pts = points(50, 2, 9);
        let mut t = build(SplitPolicy::RStar, &pts);
        assert!(!t.delete(&Mbr::from_point(&[0.123, 0.456]), 999));
        assert_eq!(t.len(), 50);
    }

    #[test]
    fn delete_everything_leaves_empty_tree() {
        let pts = points(120, 2, 10);
        let mut t = build(SplitPolicy::XTree, &pts);
        for (i, p) in pts.iter().enumerate() {
            assert!(t.delete(&Mbr::from_point(p), i as ItemId));
        }
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        assert!(t.nn_best_first(&[0.5, 0.5]).is_none());
    }

    #[test]
    fn xtree_generates_supernodes_on_high_overlap_load() {
        // Boxes spanning most of the space in all but one dimension create
        // unsplittable directories → supernodes.
        let mut rng = SmallRng::seed_from_u64(11);
        let d = 8;
        let cfg = TreeConfig::xtree(d).with_block_size(512);
        let mut t = Tree::new(cfg);
        for i in 0..400u64 {
            let lo: Vec<f64> = (0..d).map(|_| rng.gen_range(0.0..0.2)).collect();
            let hi: Vec<f64> = lo.iter().map(|l| l + rng.gen_range(0.6..0.8)).collect();
            t.insert(Mbr::new(lo, hi), i);
        }
        t.validate();
        assert!(
            t.max_span() > 1,
            "expected supernodes under pathological overlap"
        );
    }

    #[test]
    fn structure_stats_in_range_and_bulk_beats_incremental_overlap() {
        let pts = points(600, 4, 31);
        let t = build(SplitPolicy::RStar, &pts);
        let s = t.structure_stats();
        assert!(s.avg_fill > 0.2 && s.avg_fill <= 1.0, "fill {:?}", s);
        assert!((0.0..=1.0).contains(&s.avg_sibling_overlap));
        // STR-packed trees must show lower directory overlap.
        let packed = crate::bulk::bulk_load_rows(
            TreeConfig::rstar(4)
                .with_point_leaves(true)
                .with_block_size(512),
            &pts.concat(),
            &vec![true; pts.len()],
            1.0,
        );
        let sp = packed.structure_stats();
        assert!((0.0..=1.0).contains(&sp.avg_sibling_overlap));
        // Packing wins on space utilization (overlap is the R*-insert
        // path's strength: forced reinsertion actively minimizes it, while
        // plain STR center-tiling does not).
        assert!(sp.avg_fill >= s.avg_fill, "packed trees are fuller");
        assert!(packed.total_pages() <= t.total_pages());
    }

    #[test]
    fn lru_cache_reduces_reads_on_repeated_queries() {
        let pts = points(400, 4, 30);
        let t = build(SplitPolicy::RStar, &pts);
        let q = [0.5; 4];
        // Cold, no cache.
        t.reset_stats();
        let _ = t.nn_best_first(&q);
        let cold = t.stats().page_reads;
        // Warm cache big enough for the whole tree.
        t.enable_cache(t.total_pages() as usize + 8);
        t.reset_stats();
        let _ = t.nn_best_first(&q); // populates
        let _ = t.nn_best_first(&q); // fully cached
        let s = t.stats();
        assert!(s.cache_hits > 0, "second run must hit the cache");
        assert!(
            s.page_reads <= cold,
            "two cached runs must not read more than one cold run"
        );
        // Answers are unaffected by caching.
        t.enable_cache(0);
        let a = t.nn_best_first(&q).unwrap();
        t.enable_cache(4);
        let b = t.nn_best_first(&q).unwrap();
        assert_eq!(a.id, b.id);
    }

    #[test]
    fn page_accesses_counted_per_query() {
        let pts = points(400, 4, 12);
        let t = build(SplitPolicy::RStar, &pts);
        t.reset_stats();
        let _ = t.nn_best_first(&[0.5; 4]);
        let s = t.stats();
        assert!(s.page_reads > 0, "NN query must touch pages");
        assert!(s.cpu_ops > 0);
        t.reset_stats();
        assert_eq!(t.stats(), IoStats::default());
    }

    #[test]
    fn serving_traversals_bill_their_own_page_counts_and_skip_the_cache() {
        let pts = points(500, 4, 15);
        let t = build(SplitPolicy::XTree, &pts);
        // A cache big enough for the whole tree would turn every re-touch
        // into a hit; the serving traversals must not consult it.
        t.enable_cache(t.total_pages() as usize + 8);
        let mut scratch = BestFirstScratch::new();
        t.reset_stats();
        let mut pages = 0;
        for q in points(20, 4, 16) {
            let mut best = f64::INFINITY;
            pages +=
                Tree::best_first_stream_with::<0, _>(&[&t], &q, &mut scratch, |_, ids, block| {
                    for (_, p) in leaf_points(ids, block) {
                        best = best.min(dist_sq(&q, &p));
                    }
                    best
                })
                .pages;
            // A constant bound: the radius kernel's ball of radius 0.1.
            pages +=
                Tree::best_first_stream_with::<4, _>(&[&t], &q, &mut scratch, |_, _, _| 0.01).pages;
        }
        let s = t.stats();
        assert_eq!(s.page_reads, pages, "one read per page, billed once");
        assert_eq!(s.cache_hits, 0, "serving traversals skip the cache");
        assert!(s.cpu_ops > 0);
    }

    #[test]
    fn page_queries_return_supersets() {
        let pts = points(300, 3, 20);
        let t = build(SplitPolicy::XTree, &pts);
        let q = [0.5, 0.5, 0.5];
        let nn = t.nn_best_first(&q).unwrap();
        // A data point's own leaf page always contains it.
        let own = t.page_point_query(&pts[17]);
        assert!(own.contains(&17));
        // Sphere page query with radius >= nn dist must contain the NN.
        let sp = t.page_sphere_query(&q, nn.dist + 1e-9);
        assert!(sp.contains(&nn.id));
        // Sphere page query is monotone in the radius.
        let small = t.page_sphere_query(&q, 0.05).len();
        let large = t.page_sphere_query(&q, 0.4).len();
        assert!(small <= large);
    }

    #[test]
    fn halfspace_nn_matches_filtered_scan() {
        let pts = points(250, 4, 21);
        let t = build(SplitPolicy::RStar, &pts);
        let q = [0.5, 0.4, 0.6, 0.5];
        for dim in 0..4 {
            for positive in [true, false] {
                let got = t.nn_in_halfspace(&q, dim, positive);
                let want = pts
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| {
                        if positive {
                            p[dim] > q[dim]
                        } else {
                            p[dim] < q[dim]
                        }
                    })
                    .min_by(|(_, a), (_, b)| dist_sq(&q, a).partial_cmp(&dist_sq(&q, b)).unwrap())
                    .map(|(i, _)| i as ItemId);
                assert_eq!(got.map(|n| n.id), want, "dim {dim} positive {positive}");
            }
        }
    }

    #[test]
    fn halfspace_nn_none_when_empty_side() {
        let mut t = Tree::new(TreeConfig::rstar(2).with_point_leaves(true));
        t.insert(Mbr::from_point(&[0.2, 0.2]), 0);
        assert!(t.nn_in_halfspace(&[0.5, 0.5], 0, true).is_none());
        assert!(t.nn_in_halfspace(&[0.5, 0.5], 0, false).is_some());
    }

    #[test]
    fn mbr_items_roundtrip() {
        let pts = points(100, 3, 13);
        let t = build(SplitPolicy::RStar, &pts);
        let mut items = t.items();
        items.sort_by_key(|(id, _)| *id);
        assert_eq!(items.len(), 100);
        for (i, (id, m)) in items.iter().enumerate() {
            assert_eq!(*id, i as ItemId);
            assert!(m.contains_point(&pts[i]));
        }
    }

    #[test]
    fn box_items_supported() {
        // The NN-cell index stores boxes, not points.
        let mut rng = SmallRng::seed_from_u64(14);
        let cfg = TreeConfig::xtree(3).with_block_size(512);
        let mut t = Tree::new(cfg);
        let mut boxes = Vec::new();
        for i in 0..200u64 {
            let lo: Vec<f64> = (0..3).map(|_| rng.gen_range(0.0..0.8)).collect();
            let hi: Vec<f64> = lo.iter().map(|l| l + rng.gen_range(0.01..0.2)).collect();
            let m = Mbr::new(lo, hi);
            t.insert(m.clone(), i);
            boxes.push(m);
        }
        t.validate();
        let q = [0.4, 0.4, 0.4];
        let mut got = t.point_query(&q);
        got.sort_unstable();
        let mut want: Vec<ItemId> = boxes
            .iter()
            .enumerate()
            .filter(|(_, m)| m.contains_point(&q))
            .map(|(i, _)| i as ItemId)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }
}
