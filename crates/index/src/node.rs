//! Nodes of the tree core: entries stored structure-of-arrays.
//!
//! A [`Node`] keeps its entries in two parallel arrays and allocates nothing
//! per entry:
//!
//! * one row-major `Vec<f64>` of bounds. A row is `lo ‖ hi` (stride `2·d`)
//!   in directory nodes and in box leaves. A point leaf
//!   (`TreeConfig::with_point_leaves(true)`) stores each point's `d`
//!   coordinates once (stride `d`), so its `lo` and `hi` are the same slice;
//! * one `Vec<u64>` of payloads: item ids in a leaf, child page ids in a
//!   directory node (the node's level says which).
//!
//! [`BoxRef`] reads one row as a box. Its measures and predicates evaluate
//! the same per-dimension formulas, in the same order, as their [`Mbr`]
//! namesakes, so every MINDIST, enlargement and overlap the tree computes
//! is bit-identical to the boxed layout's.
//!
//! Owned [`Entry`] values (an [`Mbr`] plus a [`Payload`]) exist only as the
//! transient currency of the overflow paths: a split, a forced
//! reinsertion or the condense step takes a node's entries out, runs its
//! algorithm on them and writes the result back.

use nncell_geom::{Mbr, EPS};

/// Identifier of a node slot in the tree's page arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PageId(pub u32);

/// Identifier of an indexed item (a data point or an NN-cell piece).
pub type ItemId = u64;

/// What an owned entry points at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Payload {
    /// A child node (directory entry).
    Child(PageId),
    /// An indexed item (leaf entry).
    Item(ItemId),
}

impl Payload {
    /// The payload as a node stores it.
    fn raw(self) -> u64 {
        match self {
            Payload::Child(id) => id.0 as u64,
            Payload::Item(id) => id,
        }
    }
}

/// One node slot taken out of its node: a bounding box plus its payload.
#[derive(Clone, Debug)]
pub(crate) struct Entry {
    /// Bounding box of the child subtree or of the item.
    pub(crate) mbr: Mbr,
    /// Child pointer or item id.
    pub(crate) payload: Payload,
}

impl Entry {
    /// A leaf entry for an item.
    pub(crate) fn item(mbr: Mbr, id: ItemId) -> Self {
        Self {
            mbr,
            payload: Payload::Item(id),
        }
    }
}

/// A borrowed box: one row of a node, or the bounds of an [`Mbr`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct BoxRef<'a> {
    pub(crate) lo: &'a [f64],
    pub(crate) hi: &'a [f64],
}

impl<'a> BoxRef<'a> {
    /// The bounds of `m`.
    #[inline]
    pub(crate) fn of(m: &'a Mbr) -> Self {
        Self {
            lo: m.lo(),
            hi: m.hi(),
        }
    }

    /// An owned copy.
    pub(crate) fn to_mbr(self) -> Mbr {
        Mbr::new(self.lo.to_vec(), self.hi.to_vec())
    }

    /// [`Mbr::volume`].
    pub(crate) fn volume(self) -> f64 {
        self.lo
            .iter()
            .zip(self.hi.iter())
            .map(|(l, h)| h - l)
            .product()
    }

    /// [`Mbr::contains_point`].
    #[inline]
    pub(crate) fn contains_point(self, p: &[f64]) -> bool {
        debug_assert_eq!(p.len(), self.lo.len());
        self.lo
            .iter()
            .zip(self.hi.iter())
            .zip(p.iter())
            .all(|((l, h), x)| *l - EPS <= *x && *x <= *h + EPS)
    }

    /// [`Mbr::contains_mbr`].
    pub(crate) fn contains(self, other: BoxRef<'_>) -> bool {
        debug_assert_eq!(self.lo.len(), other.lo.len());
        (0..self.lo.len())
            .all(|i| self.lo[i] - EPS <= other.lo[i] && other.hi[i] <= self.hi[i] + EPS)
    }

    /// [`Mbr::intersects`].
    pub(crate) fn intersects(self, other: BoxRef<'_>) -> bool {
        debug_assert_eq!(self.lo.len(), other.lo.len());
        (0..self.lo.len())
            .all(|i| self.lo[i] <= other.hi[i] + EPS && other.lo[i] <= self.hi[i] + EPS)
    }

    /// [`Mbr::overlap_volume`].
    pub(crate) fn overlap_volume(self, other: BoxRef<'_>) -> f64 {
        debug_assert_eq!(self.lo.len(), other.lo.len());
        let mut v = 1.0;
        for i in 0..self.lo.len() {
            let lo = self.lo[i].max(other.lo[i]);
            let hi = self.hi[i].min(other.hi[i]);
            if hi <= lo {
                return 0.0;
            }
            v *= hi - lo;
        }
        v
    }

    /// Writes the union of `self` and `other` into `out` as `lo ‖ hi`
    /// ([`Mbr::union`]'s per-dimension rule).
    pub(crate) fn union_into(self, other: BoxRef<'_>, out: &mut [f64]) {
        let d = self.lo.len();
        debug_assert_eq!(out.len(), 2 * d);
        for i in 0..d {
            out[i] = if other.lo[i] < self.lo[i] {
                other.lo[i]
            } else {
                self.lo[i]
            };
            out[d + i] = if other.hi[i] > self.hi[i] {
                other.hi[i]
            } else {
                self.hi[i]
            };
        }
    }

    /// [`Mbr::enlargement`]: the volume of the union minus own volume.
    pub(crate) fn enlargement(self, other: BoxRef<'_>) -> f64 {
        let grown: f64 = (0..self.lo.len())
            .map(|i| {
                let lo = if other.lo[i] < self.lo[i] {
                    other.lo[i]
                } else {
                    self.lo[i]
                };
                let hi = if other.hi[i] > self.hi[i] {
                    other.hi[i]
                } else {
                    self.hi[i]
                };
                hi - lo
            })
            .product();
        grown - self.volume()
    }

    /// [`Mbr::min_dist_sq`] (MINDIST²), by the one shared formula
    /// [`nncell_geom::min_dist_sq`].
    #[inline]
    pub(crate) fn min_dist_sq(self, p: &[f64]) -> f64 {
        nncell_geom::min_dist_sq(self.lo, self.hi, p)
    }

    /// [`Mbr::minmax_dist_sq`] (MINMAXDIST² of \[RKV 95\]).
    pub(crate) fn minmax_dist_sq(self, p: &[f64]) -> f64 {
        debug_assert_eq!(p.len(), self.lo.len());
        // rmᵢ: the near face coordinate; rMᵢ: the far corner coordinate.
        let rm = |i: usize| {
            if p[i] <= 0.5 * (self.lo[i] + self.hi[i]) {
                self.lo[i]
            } else {
                self.hi[i]
            }
        };
        let rmax = |i: usize| {
            if p[i] >= 0.5 * (self.lo[i] + self.hi[i]) {
                self.lo[i]
            } else {
                self.hi[i]
            }
        };
        let mut total_max = 0.0;
        for (i, x) in p.iter().enumerate() {
            let dm = x - rmax(i);
            total_max += dm * dm;
        }
        let mut best = f64::INFINITY;
        for (k, x) in p.iter().enumerate() {
            let dmax = x - rmax(k);
            let dmin = x - rm(k);
            let v = total_max - dmax * dmax + dmin * dmin;
            if v < best {
                best = v;
            }
        }
        best
    }

    /// [`Mbr::intersects_sphere`].
    #[inline]
    pub(crate) fn intersects_sphere(self, center: &[f64], radius: f64) -> bool {
        self.min_dist_sq(center) <= radius * radius + EPS
    }
}

/// A tree node. `level == 0` means leaf. `span` is the number of disk pages
/// the node occupies (1 for ordinary nodes, >1 for X-tree supernodes).
#[derive(Clone, Debug)]
pub(crate) struct Node {
    /// Height above the leaves (0 = leaf).
    pub(crate) level: u32,
    /// Page span; touching the node costs `span` page accesses.
    pub(crate) span: u32,
    /// Bitmask of the dimensions along which this node's entries were ever
    /// split (the X-tree split history; meaningful for directory nodes).
    pub(crate) split_history: u64,
    /// Dimensionality `d`.
    dim: usize,
    /// Values per row: `d` for a point leaf, `2·d` otherwise.
    stride: usize,
    /// Row-major entry bounds, `len() × stride` values.
    bounds: Vec<f64>,
    /// Item ids (leaf) or child page ids (directory), one per row.
    payloads: Vec<u64>,
}

impl Node {
    /// An empty node at `level`; `point_rows` selects the point-leaf layout.
    pub(crate) fn new(level: u32, dim: usize, point_rows: bool) -> Self {
        debug_assert!(!point_rows || level == 0, "only leaves store points");
        Self {
            level,
            span: 1,
            split_history: 0,
            dim,
            stride: if point_rows { dim } else { 2 * dim },
            bounds: Vec::new(),
            payloads: Vec::new(),
        }
    }

    /// Whether this is a leaf.
    #[inline]
    pub(crate) fn is_leaf(&self) -> bool {
        self.level == 0
    }

    /// Number of entries.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.payloads.len()
    }

    /// Whether the node holds no entries.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.payloads.is_empty()
    }

    /// Values per row (`d` for a point leaf, `2·d` otherwise).
    pub(crate) fn stride(&self) -> usize {
        self.stride
    }

    /// The raw row-major bounds array.
    pub(crate) fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// `(row, payload)` for every entry, in entry order.
    #[inline]
    pub(crate) fn rows(&self) -> impl Iterator<Item = (&[f64], u64)> {
        self.bounds
            .chunks_exact(self.stride)
            .zip(self.payloads.iter().copied())
    }

    /// Entry `i`'s bounds as a box.
    #[inline]
    pub(crate) fn rect(&self, i: usize) -> BoxRef<'_> {
        let row = &self.bounds[i * self.stride..(i + 1) * self.stride];
        if self.stride == self.dim {
            BoxRef { lo: row, hi: row }
        } else {
            let (lo, hi) = row.split_at(self.dim);
            BoxRef { lo, hi }
        }
    }

    /// Item id of leaf entry `i`.
    #[inline]
    pub(crate) fn item(&self, i: usize) -> ItemId {
        debug_assert!(self.is_leaf(), "directory entry treated as leaf entry");
        self.payloads[i]
    }

    /// Item ids of a leaf, in entry order.
    pub(crate) fn items(&self) -> &[ItemId] {
        debug_assert!(self.is_leaf(), "directory entries treated as leaf entries");
        &self.payloads
    }

    /// Child page of directory entry `i`.
    #[inline]
    pub(crate) fn child(&self, i: usize) -> PageId {
        debug_assert!(!self.is_leaf(), "leaf entry treated as directory entry");
        PageId(self.payloads[i] as u32)
    }

    /// Index of the directory entry pointing at `child`.
    pub(crate) fn child_index(&self, child: PageId) -> Option<usize> {
        debug_assert!(!self.is_leaf(), "leaf searched for a child page");
        self.payloads.iter().position(|&p| p == child.0 as u64)
    }

    /// Index of the leaf entry holding item `id` with exactly the bounds `b`.
    pub(crate) fn item_index(&self, id: ItemId, b: BoxRef<'_>) -> Option<usize> {
        (0..self.len()).find(|&i| self.payloads[i] == id && self.rect(i) == b)
    }

    /// Appends an entry with bounds `b`. A point leaf keeps `b.lo` only.
    pub(crate) fn push(&mut self, b: BoxRef<'_>, payload: u64) {
        debug_assert_eq!(b.lo.len(), self.dim);
        self.bounds.extend_from_slice(b.lo);
        if self.stride == self.dim {
            debug_assert_eq!(b.lo, b.hi, "a point leaf stores points, not boxes");
        } else {
            self.bounds.extend_from_slice(b.hi);
        }
        self.payloads.push(payload);
    }

    /// Appends a directory entry for `child` bounded by `m`.
    pub(crate) fn push_child(&mut self, m: &Mbr, child: PageId) {
        debug_assert!(!self.is_leaf());
        self.push(BoxRef::of(m), child.0 as u64);
    }

    /// Appends an owned entry.
    pub(crate) fn push_entry(&mut self, e: &Entry) {
        debug_assert_eq!(
            self.is_leaf(),
            matches!(e.payload, Payload::Item(_)),
            "entry kind does not match node level"
        );
        self.push(BoxRef::of(&e.mbr), e.payload.raw());
    }

    /// Overwrites entry `i`'s bounds with `m` (a directory entry's
    /// child box after the child changed).
    pub(crate) fn set_rect(&mut self, i: usize, m: &Mbr) {
        debug_assert!(!self.is_leaf());
        let row = &mut self.bounds[i * self.stride..(i + 1) * self.stride];
        let (lo, hi) = row.split_at_mut(self.dim);
        lo.copy_from_slice(m.lo());
        hi.copy_from_slice(m.hi());
    }

    /// Removes entry `i`; the last entry takes its place.
    pub(crate) fn swap_remove(&mut self, i: usize) {
        let last = self.len() - 1;
        if i != last {
            let s = self.stride;
            self.bounds.copy_within(last * s..(last + 1) * s, i * s);
        }
        self.bounds.truncate(last * self.stride);
        self.payloads.swap_remove(i);
    }

    /// Takes every entry out as owned values, leaving the node empty.
    pub(crate) fn take_entries(&mut self) -> Vec<Entry> {
        let leaf = self.is_leaf();
        let out = (0..self.len())
            .map(|i| Entry {
                mbr: self.rect(i).to_mbr(),
                payload: if leaf {
                    Payload::Item(self.payloads[i])
                } else {
                    Payload::Child(PageId(self.payloads[i] as u32))
                },
            })
            .collect();
        self.bounds.clear();
        self.payloads.clear();
        out
    }

    /// Replaces the node's entries with `entries`, in order.
    pub(crate) fn set_entries(&mut self, entries: Vec<Entry>) {
        self.bounds.clear();
        self.payloads.clear();
        self.bounds.reserve(entries.len() * self.stride);
        self.payloads.reserve(entries.len());
        for e in &entries {
            self.push_entry(e);
        }
    }

    /// Tight bounding box over the entries (`None` when empty), built with
    /// [`Mbr::union_all`]'s per-dimension rule.
    pub(crate) fn mbr(&self) -> Option<Mbr> {
        if self.is_empty() {
            return None;
        }
        let first = self.rect(0);
        let mut lo = first.lo.to_vec();
        let mut hi = first.hi.to_vec();
        for i in 1..self.len() {
            let r = self.rect(i);
            for k in 0..self.dim {
                if r.lo[k] < lo[k] {
                    lo[k] = r.lo[k];
                }
                if r.hi[k] > hi[k] {
                    hi[k] = r.hi[k];
                }
            }
        }
        Some(Mbr::new(lo, hi))
    }

    /// Records that entries of this node were split along `dim`.
    pub(crate) fn record_split(&mut self, dim: usize) {
        if dim < 64 {
            self.split_history |= 1 << dim;
        }
    }

    /// Dimensions recorded in the split history.
    pub(crate) fn history_dims(&self) -> impl Iterator<Item = usize> + '_ {
        (0..64usize).filter(|d| self.split_history & (1 << d) != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_box(rng: &mut SmallRng, d: usize) -> Mbr {
        let lo: Vec<f64> = (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let hi: Vec<f64> = lo.iter().map(|l| l + rng.gen_range(0.0..0.7)).collect();
        Mbr::new(lo, hi)
    }

    #[test]
    fn box_ref_matches_mbr_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(7);
        for d in [1, 2, 5, 8] {
            for _ in 0..300 {
                let a = random_box(&mut rng, d);
                let b = random_box(&mut rng, d);
                let p: Vec<f64> = (0..d).map(|_| rng.gen_range(-1.5..1.5)).collect();
                let (ra, rb) = (BoxRef::of(&a), BoxRef::of(&b));
                assert_eq!(ra.volume().to_bits(), a.volume().to_bits());
                assert_eq!(ra.enlargement(rb).to_bits(), a.enlargement(&b).to_bits());
                assert_eq!(
                    ra.overlap_volume(rb).to_bits(),
                    a.overlap_volume(&b).to_bits()
                );
                assert_eq!(
                    ra.minmax_dist_sq(&p).to_bits(),
                    a.minmax_dist_sq(&p).to_bits()
                );
                assert_eq!(ra.contains_point(&p), a.contains_point(&p));
                assert_eq!(ra.contains(rb), a.contains_mbr(&b));
                assert_eq!(ra.intersects(rb), a.intersects(&b));
                assert_eq!(ra.intersects_sphere(&p, 0.3), a.intersects_sphere(&p, 0.3));
                let mut u = vec![0.0; 2 * d];
                ra.union_into(rb, &mut u);
                let want = a.union(&b);
                assert_eq!(&u[..d], want.lo());
                assert_eq!(&u[d..], want.hi());
            }
        }
    }

    #[test]
    fn rows_roundtrip_through_entries() {
        let mut n = Node::new(0, 2, false);
        assert!(n.mbr().is_none());
        n.push_entry(&Entry::item(Mbr::new(vec![0.1, 0.2], vec![0.3, 0.4]), 1));
        n.push_entry(&Entry::item(Mbr::new(vec![0.5, 0.0], vec![0.9, 0.1]), 2));
        assert_eq!(n.bounds().len(), 2 * n.stride());
        let m = n.mbr().unwrap();
        assert_eq!(m.lo(), &[0.1, 0.0]);
        assert_eq!(m.hi(), &[0.9, 0.4]);
        let taken = n.take_entries();
        assert!(n.is_empty() && n.bounds().is_empty());
        assert_eq!(taken[1].payload, Payload::Item(2));
        n.set_entries(taken);
        assert_eq!(n.item(0), 1);
        assert_eq!(n.rect(1).lo, &[0.5, 0.0]);
    }

    #[test]
    fn point_rows_store_coordinates_once() {
        let mut n = Node::new(0, 3, true);
        for (i, p) in [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.8, 0.9]]
            .iter()
            .enumerate()
        {
            n.push_entry(&Entry::item(Mbr::from_point(p), i as u64));
        }
        assert_eq!(n.stride(), 3);
        assert_eq!(n.bounds().len(), 9);
        assert_eq!(n.rect(1).lo, n.rect(1).hi);
        n.swap_remove(0);
        assert_eq!(n.items(), &[2, 1]);
        assert_eq!(n.rect(0).lo, &[0.7, 0.8, 0.9]);
        assert_eq!(
            n.item_index(1, BoxRef::of(&Mbr::from_point(&[0.4, 0.5, 0.6]))),
            Some(1)
        );
    }

    #[test]
    fn directory_rows_track_children() {
        let mut n = Node::new(1, 1, false);
        n.push_child(&Mbr::new(vec![0.0], vec![0.5]), PageId(4));
        n.push_child(&Mbr::new(vec![0.5], vec![1.0]), PageId(9));
        assert_eq!(n.child(1), PageId(9));
        assert_eq!(n.child_index(PageId(4)), Some(0));
        n.set_rect(0, &Mbr::new(vec![0.1], vec![0.2]));
        assert_eq!(n.rect(0).hi, &[0.2]);
    }

    #[test]
    fn split_history_bits() {
        let mut n = Node::new(1, 2, false);
        n.record_split(0);
        n.record_split(5);
        n.record_split(5);
        let dims: Vec<usize> = n.history_dims().collect();
        assert_eq!(dims, vec![0, 5]);
    }
}
