//! Distance functions.
//!
//! The NN-cell construction requires Voronoi bisectors to be *linear*, which
//! holds for the Euclidean metric and, more generally, for any
//! positive-diagonal weighted Euclidean metric. Both are provided behind the
//! [`Metric`] trait so indexes and the NN-cell pipeline can be instantiated
//! with either.

/// Squared Euclidean distance between two coordinate slices.
///
/// This is the **single** L2 kernel of the workspace: the linear scan, the
/// NN-cell query shims, and the batch [`query engine`](../index.html) all
/// route through it, so distances are bit-identical across every execution
/// path. Four independent accumulators break the sequential floating-point
/// reduction dependency, letting LLVM auto-vectorize the loop; the
/// accumulator combination order is fixed, so results are deterministic.
///
/// # Panics
/// Panics (debug builds) if the slices have different lengths.
#[inline]
pub fn dist_sq(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f64; 4];
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    for (x, y) in (&mut ca).zip(&mut cb) {
        let d0 = x[0] - y[0];
        let d1 = x[1] - y[1];
        let d2 = x[2] - y[2];
        let d3 = x[3] - y[3];
        acc[0] += d0 * d0;
        acc[1] += d1 * d1;
        acc[2] += d2 * d2;
        acc[3] += d3 * d3;
    }
    let mut tail = 0.0;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        let d = x - y;
        tail += d * d;
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + tail
}

/// Points one lane block of [`lanes_sq`] evaluates together.
const LANES: usize = 8;

/// The lane-per-point form of [`dist_sq`] (`weights` empty) and of
/// [`weighted_dist_sq`] (`weights` of length `d`): writes the squared
/// distance from `q` to each of the `m = out.len()` points of `block`,
/// a dimension-major block whose column `j` (coordinate `j` of every
/// point, in point order) is `block[j·m..(j+1)·m]`.
///
/// Every lane performs its scalar kernel's operations in its order —
/// `q − point`, four accumulators over the chunks of 4 dimensions, a
/// tail, then `((a0 + a1) + (a2 + a3)) + tail`; the weighted term is
/// `(w·t)·t` — so each result is bit-identical to the scalar kernel's.
/// Only the loop order changes: the lanes of a block advance through the
/// dimensions together, which lets the compiler vectorize across points.
///
/// `D` is the dimension as a compile-time constant (every loop over the
/// dimensions unrolls); `D = 0` reads it from `q.len()` at run time.
#[inline(always)]
fn lanes_sq<const D: usize>(weights: &[f64], q: &[f64], block: &[f64], out: &mut [f64]) {
    let d = if D == 0 { q.len() } else { D };
    let m = out.len();
    debug_assert_eq!(q.len(), d);
    debug_assert_eq!(block.len(), d * m);
    debug_assert!(weights.is_empty() || weights.len() == d);
    let q = &q[..d];
    if m < LANES {
        lane_block::<D>(weights, q, block, m, 0, m, out);
        return;
    }
    let mut base = 0;
    while base + LANES < m {
        lane_block::<D>(weights, q, block, m, base, LANES, out);
        base += LANES;
    }
    // The last full block ends at `m`; it may overlap the one before it,
    // whose lanes it recomputes to the same bits.
    lane_block::<D>(weights, q, block, m, m - LANES, LANES, out);
}

/// Lanes `base..base + width` (`width ≤ LANES`) of [`lanes_sq`].
#[inline(always)]
fn lane_block<const D: usize>(
    weights: &[f64],
    q: &[f64],
    block: &[f64],
    m: usize,
    base: usize,
    width: usize,
    out: &mut [f64],
) {
    // Adds lane `l`'s term of dimension `j` to `acc[l]`, for every lane.
    let add = |acc: &mut [f64; LANES], j: usize| {
        let col = &block[j * m + base..j * m + base + width];
        let (qj, wj) = (q[j], weights.get(j).copied());
        for (a, &x) in acc.iter_mut().zip(col) {
            let t = qj - x;
            *a += match wj {
                Some(w) => w * t * t,
                None => t * t,
            };
        }
    };
    let d = q.len();
    let (mut a0, mut a1, mut a2, mut a3) = ([0.0; LANES], [0.0; LANES], [0.0; LANES], [0.0; LANES]);
    let mut tail = [0.0; LANES];
    for c in 0..d / 4 {
        add(&mut a0, 4 * c);
        add(&mut a1, 4 * c + 1);
        add(&mut a2, 4 * c + 2);
        add(&mut a3, 4 * c + 3);
    }
    for j in d / 4 * 4..d {
        add(&mut tail, j);
    }
    for (l, o) in out[base..base + width].iter_mut().enumerate() {
        *o = ((a0[l] + a1[l]) + (a2[l] + a3[l])) + tail[l];
    }
}

/// Euclidean distance between two coordinate slices.
#[inline]
pub fn dist(a: &[f64], b: &[f64]) -> f64 {
    dist_sq(a, b).sqrt()
}

/// A distance function whose perpendicular bisectors are hyperplanes.
///
/// This is the class of metrics the NN-cell linear-programming formulation
/// supports: `d(x,p) ≤ d(x,q)` must reduce to one linear constraint on `x`.
/// Implementations provide the quadratic form pieces; the bisector itself is
/// assembled in `nncell-lp`.
pub trait Metric: Clone + Send + Sync + 'static {
    /// Squared distance. Implementations must be non-negative and symmetric.
    fn dist_sq(&self, a: &[f64], b: &[f64]) -> f64;

    /// [`Self::dist_sq`]`(q, point)` for every point of a dimension-major
    /// block, one lane per point: `out[i]` is bit-identical to
    /// `self.dist_sq(q, p_i)`, where point `i`'s coordinate `j` is
    /// `block[j·m + i]` and `m = out.len()`. `D` is the dimension as a
    /// compile-time constant, or 0 to read it from `q.len()`.
    fn dist_sq_lanes<const D: usize>(&self, q: &[f64], block: &[f64], out: &mut [f64]);

    /// Distance (defaults to `sqrt(dist_sq)`).
    fn dist(&self, a: &[f64], b: &[f64]) -> f64 {
        self.dist_sq(a, b).sqrt()
    }

    /// The diagonal weight of dimension `i` in the metric's quadratic form.
    ///
    /// The bisector of `p`,`q` under `Σ wᵢ(xᵢ-pᵢ)² ≤ Σ wᵢ(xᵢ-qᵢ)²` is
    /// `Σ 2wᵢ(qᵢ-pᵢ)·xᵢ ≤ Σ wᵢ(qᵢ²-pᵢ²)`, so the weights fully determine the
    /// linear constraint.
    fn weight(&self, i: usize) -> f64;
}

/// The standard Euclidean (L2) metric.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Euclidean;

impl Metric for Euclidean {
    #[inline]
    fn dist_sq(&self, a: &[f64], b: &[f64]) -> f64 {
        dist_sq(a, b)
    }

    #[inline]
    fn dist_sq_lanes<const D: usize>(&self, q: &[f64], block: &[f64], out: &mut [f64]) {
        lanes_sq::<D>(&[], q, block, out);
    }

    #[inline]
    fn weight(&self, _i: usize) -> f64 {
        1.0
    }
}

/// A diagonally weighted Euclidean metric `d(a,b)² = Σ wᵢ (aᵢ-bᵢ)²`.
///
/// Useful for user-adaptable similarity search where feature dimensions have
/// different importances; bisectors stay linear so the whole NN-cell pipeline
/// works unchanged.
#[derive(Clone, Debug, PartialEq)]
pub struct WeightedEuclidean {
    weights: std::sync::Arc<[f64]>,
}

impl WeightedEuclidean {
    /// Creates a weighted metric.
    ///
    /// # Panics
    /// Panics if any weight is non-positive or non-finite — such a "metric"
    /// would not be a metric and would produce unbounded Voronoi cells.
    pub fn new(weights: impl Into<Vec<f64>>) -> Self {
        let weights: Vec<f64> = weights.into();
        assert!(
            weights.iter().all(|w| w.is_finite() && *w > 0.0),
            "weights must be finite and positive"
        );
        Self {
            weights: weights.into(),
        }
    }

    /// The weight vector.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

/// Squared weighted-L2 distance `Σ wᵢ (aᵢ-bᵢ)²` — the weighted sibling of
/// [`dist_sq`], with the same 4-accumulator auto-vectorizable shape and the
/// same deterministic combination order.
#[inline]
pub fn weighted_dist_sq(w: &[f64], a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), w.len());
    let mut acc = [0.0f64; 4];
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    let mut cw = w.chunks_exact(4);
    for ((x, y), w) in (&mut ca).zip(&mut cb).zip(&mut cw) {
        let d0 = x[0] - y[0];
        let d1 = x[1] - y[1];
        let d2 = x[2] - y[2];
        let d3 = x[3] - y[3];
        acc[0] += w[0] * d0 * d0;
        acc[1] += w[1] * d1 * d1;
        acc[2] += w[2] * d2 * d2;
        acc[3] += w[3] * d3 * d3;
    }
    let mut tail = 0.0;
    for ((x, y), w) in ca
        .remainder()
        .iter()
        .zip(cb.remainder())
        .zip(cw.remainder())
    {
        let d = x - y;
        tail += w * d * d;
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + tail
}

impl Metric for WeightedEuclidean {
    #[inline]
    fn dist_sq(&self, a: &[f64], b: &[f64]) -> f64 {
        weighted_dist_sq(&self.weights, a, b)
    }

    #[inline]
    fn dist_sq_lanes<const D: usize>(&self, q: &[f64], block: &[f64], out: &mut [f64]) {
        lanes_sq::<D>(&self.weights, q, block, out);
    }

    #[inline]
    fn weight(&self, i: usize) -> f64 {
        self.weights[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_basics() {
        assert_eq!(dist(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(dist_sq(&[1.0], &[4.0]), 9.0);
        assert_eq!(Euclidean.dist(&[0.0], &[2.0]), 2.0);
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_diagonal() {
        let a = [0.2, 0.9, 0.4];
        let b = [0.7, 0.1, 0.3];
        assert_eq!(dist_sq(&a, &b), dist_sq(&b, &a));
        assert_eq!(dist_sq(&a, &a), 0.0);
    }

    #[test]
    fn weighted_matches_manual() {
        let m = WeightedEuclidean::new(vec![2.0, 0.5]);
        // 2*(1-0)^2 + 0.5*(0-2)^2 = 2 + 2 = 4
        assert_eq!(m.dist_sq(&[1.0, 0.0], &[0.0, 2.0]), 4.0);
        assert_eq!(m.dist(&[1.0, 0.0], &[0.0, 2.0]), 2.0);
    }

    #[test]
    fn weighted_with_unit_weights_equals_euclidean() {
        let m = WeightedEuclidean::new(vec![1.0; 3]);
        let a = [0.1, 0.5, 0.9];
        let b = [0.3, 0.2, 0.8];
        assert!((m.dist_sq(&a, &b) - dist_sq(&a, &b)).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn weighted_rejects_zero_weight() {
        let _ = WeightedEuclidean::new(vec![1.0, 0.0]);
    }

    #[test]
    fn kernel_matches_naive_summation_for_all_lengths() {
        // Exercise every remainder length (0..4) and a long vector; the
        // unrolled kernel must agree with the naive loop to within the
        // rounding slack of a reassociated sum.
        for d in [1usize, 2, 3, 4, 5, 7, 8, 13, 16, 33, 100] {
            let a: Vec<f64> = (0..d).map(|i| (i as f64 * 0.37).sin()).collect();
            let b: Vec<f64> = (0..d).map(|i| (i as f64 * 0.73).cos()).collect();
            let w: Vec<f64> = (0..d).map(|i| 0.5 + (i % 5) as f64).collect();
            let naive: f64 = a
                .iter()
                .zip(&b)
                .map(|(x, y)| {
                    let d = x - y;
                    d * d
                })
                .sum();
            let naive_w: f64 = a
                .iter()
                .zip(&b)
                .zip(&w)
                .map(|((x, y), w)| {
                    let d = x - y;
                    w * d * d
                })
                .sum();
            assert!(
                (dist_sq(&a, &b) - naive).abs() <= 1e-12 * naive.max(1.0),
                "d={d}"
            );
            assert!(
                (weighted_dist_sq(&w, &a, &b) - naive_w).abs() <= 1e-12 * naive_w.max(1.0),
                "d={d}"
            );
            // Determinism: bit-identical on repeat calls.
            assert_eq!(dist_sq(&a, &b).to_bits(), dist_sq(&a, &b).to_bits());
            let m = WeightedEuclidean::new(w.clone());
            assert_eq!(
                m.dist_sq(&a, &b).to_bits(),
                weighted_dist_sq(&w, &a, &b).to_bits()
            );
        }
    }

    #[test]
    fn triangle_inequality_spot_checks() {
        let pts = [
            vec![0.0, 0.0],
            vec![1.0, 0.3],
            vec![0.4, 0.8],
            vec![0.9, 0.9],
        ];
        for a in &pts {
            for b in &pts {
                for c in &pts {
                    assert!(dist(a, b) + dist(b, c) >= dist(a, c) - 1e-12);
                }
            }
        }
    }
}
