//! Linear-scan reference answers (ground truth for tests and benches).
//!
//! Every index answer in this crate is checked against these scans, so
//! they share no code with the engine's k-best (`offer`, `rank_key`):
//! both compute each distance as `dist_sq(q, p).sqrt()`, and each orders
//! its results by its own code.
//!
//! [`linear_scan_knn`] is one pass that keeps only the `k` best seen so
//! far in a bounded max-heap: O(n log k) time and O(k) memory, so a
//! caller that keeps many answers holds k results each, not n distances.

use crate::index::QueryResult;
use nncell_geom::{dist_sq, Point};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Exact nearest neighbor by scanning `points`. `None` when empty.
pub fn linear_scan_nn(points: &[Point], q: &[f64]) -> Option<QueryResult> {
    let mut best_i = None;
    let mut best_d2 = f64::INFINITY;
    for (i, p) in points.iter().enumerate() {
        let d2 = dist_sq(q, p);
        if d2 < best_d2 {
            best_d2 = d2;
            best_i = Some(i);
        }
    }
    best_i.map(|id| QueryResult {
        id,
        dist: best_d2.sqrt(),
    })
}

/// A scan result ordered by `(dist.total_cmp, id)`, so the heap's top is
/// the worst result it holds.
struct Ranked(QueryResult);

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            .dist
            .total_cmp(&other.0.dist)
            .then(self.0.id.cmp(&other.0.id))
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ranked {}

/// Exact k-nearest neighbors by scanning: the `min(k, n)` points first in
/// `(total_cmp(dist), id)` order, ascending, where `id` is the position
/// in `points`. `total_cmp` ranks every distance, NaN included (by its
/// sign bit: after +∞ or before every number), so a point with a
/// non-finite coordinate has a fixed place in the answer.
///
/// One pass over `points` with a max-heap of at most `min(k, n)`
/// entries: a point enters only by replacing the heap's worst. O(n log k)
/// time; the one allocation is the returned `Vec`, whose capacity is
/// `min(k, n)`. `k = 0` or no points returns an empty `Vec` without
/// allocating.
pub fn linear_scan_knn(points: &[Point], q: &[f64], k: usize) -> Vec<QueryResult> {
    let keep = k.min(points.len());
    if keep == 0 {
        return Vec::new();
    }
    let mut best = BinaryHeap::with_capacity(keep);
    for (id, p) in points.iter().enumerate() {
        let r = Ranked(QueryResult {
            id,
            dist: dist_sq(q, p).sqrt(),
        });
        if best.len() < keep {
            best.push(r);
        } else if let Some(mut worst) = best.peek_mut() {
            if r < *worst {
                *worst = r;
            }
        }
    }
    // Same size and alignment, so the collect reuses the heap's buffer.
    best.into_sorted_vec().into_iter().map(|r| r.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_nn_picks_closest() {
        let pts = vec![
            Point::new(vec![0.0, 0.0]),
            Point::new(vec![0.5, 0.5]),
            Point::new(vec![1.0, 1.0]),
        ];
        let r = linear_scan_nn(&pts, &[0.6, 0.6]).unwrap();
        assert_eq!(r.id, 1);
        assert!((r.dist - (0.02f64).sqrt()).abs() < 1e-12);
        assert!(linear_scan_nn(&[], &[0.0]).is_none());
    }

    #[test]
    fn scan_knn_sorted() {
        let pts: Vec<Point> = (0..5).map(|i| Point::new(vec![i as f64])).collect();
        let r = linear_scan_knn(&pts, &[2.2], 3);
        let ids: Vec<usize> = r.iter().map(|x| x.id).collect();
        assert_eq!(ids, vec![2, 3, 1]);
    }
}
