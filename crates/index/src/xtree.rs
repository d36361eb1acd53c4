//! The X-tree wrapper \[BKK 96\].

use crate::config::TreeConfig;
use crate::cost::IoStats;
use crate::node::ItemId;
use crate::tree::{Neighbor, Tree};
use nncell_geom::Mbr;
use std::ops::Deref;

/// An X-tree: the tree core with the topological → overlap-minimal →
/// supernode overflow cascade, keeping the directory as overlap-free as the
/// data permits.
///
/// Dereferences to [`Tree`], so every query of the core is available. For
/// nearest-neighbor candidate gathering prefer the streaming MINDIST-ordered
/// traversal ([`Tree::best_first_stream_with`]) over the point/sphere batch
/// queries: it expands pages best-first and lets the caller's shrinking
/// distance bound prune whole subtrees before they are ever read.
#[derive(Clone)]
pub struct XTree {
    inner: Tree,
}

impl XTree {
    /// An empty X-tree over `dim`-dimensional boxes (4 KB pages).
    pub fn new(dim: usize) -> Self {
        Self::with_config(TreeConfig::xtree(dim))
    }

    /// An empty X-tree for indexing bare data points.
    pub fn for_points(dim: usize) -> Self {
        Self::with_config(TreeConfig::xtree(dim).with_point_leaves(true))
    }

    /// An empty X-tree with an explicit configuration.
    ///
    /// # Panics
    /// Panics if the configuration's policy is not
    /// [`crate::SplitPolicy::XTree`].
    pub fn with_config(cfg: TreeConfig) -> Self {
        assert_eq!(
            cfg.policy,
            crate::SplitPolicy::XTree,
            "XTree requires the XTree policy"
        );
        Self {
            inner: Tree::new(cfg),
        }
    }

    /// An X-tree bulk-loaded with STR packing (see [`crate::bulk_load`]).
    /// Later dynamic inserts go through the usual X-tree overflow cascade.
    ///
    /// # Panics
    /// Panics if the configuration's policy is not
    /// [`crate::SplitPolicy::XTree`], on an empty `items` slice, mismatched
    /// dimensionality, a point-leaf configuration (see
    /// [`Self::bulk_load_rows`]), or a `fill` outside `(0,1]`.
    pub fn bulk_load(cfg: TreeConfig, items: Vec<(Mbr, ItemId)>, fill: f64) -> Self {
        assert_eq!(
            cfg.policy,
            crate::SplitPolicy::XTree,
            "XTree requires the XTree policy"
        );
        Self {
            inner: crate::bulk::bulk_load(cfg, items, fill),
        }
    }

    /// An X-tree with point leaves bulk-loaded from row-major points (see
    /// [`crate::bulk_load_rows`]): slot `id` is `rows[id·d..(id+1)·d]`, and
    /// it is loaded when `alive[id]`.
    ///
    /// # Panics
    /// As [`crate::bulk_load_rows`], and if the configuration's policy is
    /// not [`crate::SplitPolicy::XTree`].
    pub fn bulk_load_rows(cfg: TreeConfig, rows: &[f64], alive: &[bool], fill: f64) -> Self {
        assert_eq!(
            cfg.policy,
            crate::SplitPolicy::XTree,
            "XTree requires the XTree policy"
        );
        Self {
            inner: crate::bulk::bulk_load_rows(cfg, rows, alive, fill),
        }
    }

    /// Inserts an item.
    pub fn insert(&mut self, mbr: Mbr, id: ItemId) {
        self.inner.insert(mbr, id);
    }

    /// Inserts a bare point.
    pub fn insert_point(&mut self, p: &[f64], id: ItemId) {
        self.inner.insert(Mbr::from_point(p), id);
    }

    /// Deletes an item; returns `false` if absent.
    pub fn delete(&mut self, mbr: &Mbr, id: ItemId) -> bool {
        self.inner.delete(mbr, id)
    }

    /// Nearest neighbor via best-first search \[HS 95\] (the X-tree NN
    /// algorithm the paper benchmarks against).
    pub fn nearest_neighbor(&self, q: &[f64]) -> Option<Neighbor> {
        self.inner.nn_best_first(q)
    }

    /// Cost counters.
    pub fn stats(&self) -> IoStats {
        self.inner.stats()
    }
}

impl Deref for XTree {
    type Target = Tree;
    fn deref(&self) -> &Tree {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapper_builds_and_queries() {
        let mut t = XTree::for_points(3);
        for i in 0..50u64 {
            let v = i as f64 / 50.0;
            t.insert_point(&[v, 1.0 - v, 0.5], i);
        }
        assert_eq!(t.len(), 50);
        let nn = t.nearest_neighbor(&[0.0, 1.0, 0.5]).unwrap();
        assert_eq!(nn.id, 0);
        t.validate();
    }

    #[test]
    #[should_panic(expected = "dense slots")]
    fn a_point_id_past_the_slot_count_is_rejected() {
        let mut t = XTree::for_points(2);
        t.insert_point(&[0.1, 0.2], 0);
        t.insert_point(&[0.3, 0.4], 2);
    }

    #[test]
    #[should_panic(expected = "requires the XTree policy")]
    fn wrong_policy_rejected() {
        let _ = XTree::with_config(TreeConfig::rstar(2));
    }

    #[test]
    #[should_panic(expected = "requires the XTree policy")]
    fn bulk_load_rejects_wrong_policy() {
        let _ = XTree::bulk_load(
            TreeConfig::rstar(2),
            vec![(Mbr::from_point(&[0.1, 0.2]), 0)],
            1.0,
        );
    }

    #[test]
    fn bulk_loaded_xtree_queries_and_grows() {
        let pts: Vec<Vec<f64>> = (0..400)
            .map(|i| {
                let v = i as f64 / 400.0;
                vec![v, (v * 13.0).fract(), (v * 29.0).fract()]
            })
            .collect();
        let cfg = TreeConfig::xtree(3).with_point_leaves(true);
        let mut t = XTree::bulk_load_rows(cfg, &pts.concat(), &[true; 400], 0.9);
        assert_eq!(t.len(), 400);
        t.validate();
        for (i, p) in pts.iter().enumerate().step_by(37) {
            assert!(t.point_query(p).contains(&(i as ItemId)));
        }
        // Dynamic inserts after bulk load go through the X-tree cascade.
        t.insert_point(&[0.123, 0.456, 0.789], 400);
        assert_eq!(t.len(), 401);
        t.validate();
        let (nn, proven) = t.approx_knn(&[0.123, 0.456, 0.789], 1, usize::MAX);
        assert!(proven);
        assert_eq!(nn[0].id, 400);
    }

    #[test]
    fn buffered_queries_match_allocating_queries() {
        let mut t = XTree::new(2);
        for i in 0..200u64 {
            let x = (i % 20) as f64 / 20.0;
            let y = (i / 20) as f64 / 10.0;
            t.insert(Mbr::new(vec![x, y], vec![x + 0.08, y + 0.12]), i);
        }
        let mut stack = Vec::new();
        let mut out = Vec::new();
        for q in [[0.31, 0.55], [0.0, 0.0], [0.99, 0.99], [0.5, 0.21]] {
            let mut a = t.point_query(&q);
            let pages = t.point_query_with(&q, &mut stack, &mut out);
            let mut b = out.clone();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "point query mismatch at {q:?}");
            assert!(pages >= 1, "at least the root is touched");
        }
    }
}
