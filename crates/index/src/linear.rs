//! Sequential-scan baseline with the same cost model as the trees.
//!
//! \[BBKK 97\] (the cost-model paper motivating the NN-cell approach) shows
//! index-based NN search degenerating toward a scan in high dimensions; this
//! baseline makes that asymptote measurable: a scan reads
//! `⌈N · entry_size / block_size⌉` pages and does `N` distance computations.

use crate::cost::{CostTracker, IoStats};
use crate::node::ItemId;
use crate::tree::Neighbor;
use nncell_geom::dist_sq;

/// A flat file of points scanned sequentially.
pub struct LinearScan {
    dim: usize,
    block_size: usize,
    points: Vec<Vec<f64>>,
    ids: Vec<ItemId>,
    cost: CostTracker,
}

impl LinearScan {
    /// An empty scan file over `dim`-dimensional points (4 KB blocks).
    pub fn new(dim: usize) -> Self {
        Self::with_block_size(dim, 4096)
    }

    /// An empty scan file with an explicit block size.
    pub fn with_block_size(dim: usize, block_size: usize) -> Self {
        Self {
            dim,
            block_size,
            points: Vec::new(),
            ids: Vec::new(),
            cost: CostTracker::default(),
        }
    }

    /// Appends a point.
    pub fn insert(&mut self, p: &[f64], id: ItemId) {
        assert_eq!(p.len(), self.dim);
        self.points.push(p.to_vec());
        self.ids.push(id);
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Pages a full scan reads.
    pub fn scan_pages(&self) -> u64 {
        let entry = self.dim * 8 + 8;
        let per_page = (self.block_size / entry).max(1);
        (self.points.len() as u64).div_ceil(per_page as u64)
    }

    /// Exact NN by scanning everything.
    pub fn nearest_neighbor(&self, q: &[f64]) -> Option<Neighbor> {
        if self.points.is_empty() {
            return None;
        }
        self.cost.read(self.scan_pages());
        self.cost.cpu(self.points.len() as u64);
        let (mut best_i, mut best_d) = (0usize, f64::INFINITY);
        for (i, p) in self.points.iter().enumerate() {
            let d2 = dist_sq(q, p);
            if d2 < best_d {
                best_d = d2;
                best_i = i;
            }
        }
        Some(Neighbor {
            id: self.ids[best_i],
            dist: best_d.sqrt(),
        })
    }

    /// Cost counters.
    pub fn stats(&self) -> IoStats {
        self.cost.stats()
    }

    /// Resets the cost counters.
    pub fn reset_stats(&self) {
        self.cost.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_finds_nn_and_counts_pages() {
        let mut s = LinearScan::with_block_size(2, 256);
        for i in 0..100u64 {
            let v = i as f64 / 100.0;
            s.insert(&[v, v], i);
        }
        let nn = s.nearest_neighbor(&[0.304, 0.304]).unwrap();
        assert_eq!(nn.id, 30);
        let st = s.stats();
        // entry = 24 bytes, 10 per 256B page, 100 points → 10 pages
        assert_eq!(st.page_reads, 10);
        assert_eq!(st.cpu_ops, 100);
    }

    #[test]
    fn empty_scan() {
        let s = LinearScan::new(4);
        assert!(s.nearest_neighbor(&[0.0; 4]).is_none());
        assert!(s.is_empty());
    }
}
