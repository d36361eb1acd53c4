//! Workload inputs, all derived from the run seed.

use nncell_core::{BuildConfig, ConstraintPool, QueryResponse, Strategy};
use nncell_data::{FourierGenerator, Generator, UniformGenerator};
use nncell_geom::Point;

use crate::measure::derive_seed;

/// Which data generator a workload uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Data {
    /// iid uniform in the unit cube.
    Uniform,
    /// DFT features of perturbed signal families (the paper's Fourier
    /// data), rescaled to the unit cube.
    Fourier,
}

impl Data {
    pub fn name(self) -> &'static str {
        match self {
            Data::Uniform => "uniform",
            Data::Fourier => "fourier",
        }
    }
}

/// `n` data points and `queries` query points from the same distribution.
/// Both come from one generator call, so Fourier queries share the data's
/// signal families and unit-cube rescaling.
pub fn points_and_queries(
    data: Data,
    d: usize,
    n: usize,
    queries: usize,
    seed: u64,
) -> (Vec<Point>, Vec<Vec<f64>>) {
    let s = derive_seed(seed, 1);
    let mut all = match data {
        Data::Uniform => UniformGenerator::new(d).generate(n + queries, s),
        Data::Fourier => FourierGenerator::new(d).generate(n + queries, s),
    };
    let qs = all.split_off(n).into_iter().map(Point::into_vec).collect();
    (all, qs)
}

/// Points the ingest workload inserts, independent of the base data.
pub fn fresh_points(d: usize, count: usize, seed: u64) -> Vec<Point> {
    UniformGenerator::new(d).generate(count, derive_seed(seed, 2))
}

/// The build configuration every workload uses: the CLI's default
/// strategy with the recommended approximate constraint pool.
pub fn build_config(d: usize) -> BuildConfig {
    BuildConfig::builder()
        .strategy(Strategy::CorrectPruned)
        .constraint_pool(ConstraintPool::ApproxKnn {
            k: ConstraintPool::recommended_k(d),
        })
        .build()
}

/// An answer as `(id, distance bits)` pairs, for bit-identical comparison.
pub fn answer_bits(resp: &QueryResponse) -> Vec<(usize, u64)> {
    resp.iter().map(|r| (r.id, r.dist.to_bits())).collect()
}

/// The exact answer by linear scan over `points`, whose positions are the
/// ids, ordered by `(distance, id)` like the index orders it.
pub fn scan_answer(points: &[Point], q: &[f64], k: usize) -> Vec<(usize, u64)> {
    let mut got: Vec<(usize, f64)> = nncell_core::linear_scan_knn(points, q, k)
        .into_iter()
        .map(|r| (r.id, r.dist))
        .collect();
    got.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    got.into_iter().map(|(id, d)| (id, d.to_bits())).collect()
}

/// Query bodies for `POST /query`. Coordinates use Rust's shortest
/// round-trip formatting, so the server parses the exact query point.
pub fn query_body(q: &[f64], k: usize) -> Vec<u8> {
    let coords: Vec<String> = q.iter().map(|c| format!("{c}")).collect();
    format!("{{\"point\":[{}],\"k\":{k}}}", coords.join(",")).into_bytes()
}
