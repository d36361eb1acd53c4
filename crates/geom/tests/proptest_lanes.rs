//! The lane-per-point kernel (`Metric::dist_sq_lanes`) against the scalar
//! kernels it stands in for: bit for bit, for both metrics, at every
//! dimension the query engine compiles a kernel for (d = 8, also through
//! the run-time `D = 0` path) and through `D = 0` at every d from 1 to 17
//! and from 31 to 33, for every lane count from 1 to the largest point
//! leaf of a 4 KB page, over coordinates that include ±0.0, ±1e300 (whose
//! squares overflow to ∞) and subnormals.

use nncell_geom::{dist_sq, weighted_dist_sq, Euclidean, Metric, WeightedEuclidean};
use proptest::prelude::*;
use proptest::TestCaseError;

/// Dimensions the engine dispatches to a constant-`D` kernel.
const DISPATCHED: [usize; 1] = [8];

/// Dimensions checked through the run-time kernel (`D = 0`): one, two
/// and three chunks of 4 with every tail length, and past 32.
fn runtime_dims() -> impl Iterator<Item = usize> {
    (1..=17).chain(31..=33)
}

/// Entries of the largest point leaf of a 4 KB page at dimension `d`
/// (`TreeConfig::max_leaf_entries`: a 32-byte header, `8·d + 8` bytes per
/// point entry).
fn largest_leaf(d: usize) -> usize {
    ((4096 - 32) / (8 * d + 8)).max(2)
}

/// One coordinate: an ordinary value in [−1, 1], or one of the values
/// whose arithmetic is easiest to get subtly wrong.
fn coord() -> impl Strategy<Value = f64> {
    (0u32..10, -1.0f64..1.0).prop_map(|(kind, u)| match kind {
        0 => 0.0,
        1 => -0.0,
        2 => 1e300,
        3 => -1e300,
        4 => f64::from_bits(1 + (u.abs() * 1e15) as u64), // subnormal
        5 => -f64::from_bits(1 + (u.abs() * 1e15) as u64),
        6 => f64::MIN_POSITIVE * u,
        _ => u,
    })
}

/// A positive, finite weight, tiny to large.
fn weight() -> impl Strategy<Value = f64> {
    (0u32..4, 0.0f64..1.0).prop_map(|(kind, u)| match kind {
        0 => f64::from_bits(1 + (u * 1e15) as u64), // subnormal
        1 => 1e200 * (u + 0.5),
        _ => u + 1e-3,
    })
}

/// The dimension-major block of `points` (`m` rows of `d`).
fn block_of(points: &[Vec<f64>], d: usize) -> Vec<f64> {
    (0..d)
        .flat_map(|j| points.iter().map(move |p| p[j]))
        .collect()
}

/// Checks both metrics' lane kernels compiled for `D` against the scalar
/// kernels, at dimension `d`, for every lane count up to the largest leaf.
fn check<const D: usize>(d: usize, pool: &[f64], weights: &[f64]) -> Result<(), TestCaseError> {
    let q: Vec<f64> = pool[..d].to_vec();
    let w: Vec<f64> = (0..d).map(|j| weights[j % weights.len()]).collect();
    let weighted = WeightedEuclidean::new(w.clone());
    for m in 1..=largest_leaf(d) {
        let points: Vec<Vec<f64>> = (0..m)
            .map(|i| {
                (0..d)
                    .map(|j| pool[(d + i * d + j * 7) % pool.len()])
                    .collect()
            })
            .collect();
        let block = block_of(&points, d);
        let mut out = vec![f64::NAN; m];
        Euclidean.dist_sq_lanes::<D>(&q, &block, &mut out);
        for (i, p) in points.iter().enumerate() {
            prop_assert_eq!(
                out[i].to_bits(),
                dist_sq(&q, p).to_bits(),
                "Euclidean, D = {}, d = {}, m = {}, lane {}",
                D,
                d,
                m,
                i
            );
        }
        weighted.dist_sq_lanes::<D>(&q, &block, &mut out);
        for (i, p) in points.iter().enumerate() {
            prop_assert_eq!(
                out[i].to_bits(),
                weighted_dist_sq(&w, &q, p).to_bits(),
                "weighted, D = {}, d = {}, m = {}, lane {}",
                D,
                d,
                m,
                i
            );
        }
    }
    Ok(())
}

/// [`check`] through the kernel the engine would compile for `d`.
fn check_dispatched(d: usize, pool: &[f64], weights: &[f64]) -> Result<(), TestCaseError> {
    match d {
        8 => check::<8>(d, pool, weights),
        _ => unreachable!("{d} is not dispatched"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lane_kernel_is_bit_identical_to_the_scalar_kernels(
        pool in prop::collection::vec(coord(), 97..400),
        weights in prop::collection::vec(weight(), 1..40),
    ) {
        for d in DISPATCHED {
            check_dispatched(d, &pool, &weights)?;
        }
        for d in runtime_dims() {
            check::<0>(d, &pool, &weights)?;
        }
    }
}
