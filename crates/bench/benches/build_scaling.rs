//! Build-time scaling of the pooled (sub-quadratic) NN-cell construction
//! path versus the exhaustive paths it replaces, written as JSON for CI
//! trend tracking (`BENCH_build_scaling.json`). Each build is the point
//! index's STR load plus [`NnCells::build`]; nearly all of it is the
//! cells'.
//!
//! Three series:
//!
//! * **pooled** — `ConstraintPool::ApproxKnn` with the recommended `k`:
//!   STR bulk load, one bounded approximate-kNN probe per point, 2·d LPs
//!   over ~k constraints. Measured at every `n` in the ladder.
//! * **exhaustive** — the same `NnDirection` strategy with the full
//!   per-cell rival gather (an O(n) scan per cell). Measured up to
//!   `NNCELL_EXHAUSTIVE_CAP` (default 32 000), then extrapolated by the
//!   power law fitted to the measured pairs — the super-linear growth is
//!   exactly what makes measuring it at 128 000 impractical.
//! * **all-pairs** — `CorrectPruned`, the original construction this PR's
//!   pool replaces outright: every point contributes a bisector candidate
//!   to every cell. Measured at the calibration sizes only, then
//!   extrapolated by its fitted power law. The calibration range matters:
//!   below n ≈ 1000 the per-cell LP has not yet entered its
//!   linear-in-constraints regime and the fitted exponent comes out far
//!   too shallow (n^1.4 from 300/600 vs the ~n^1.9 measured between 2000
//!   and 4000), which *understates* the baseline's true paper-scale cost
//!   — hence the `1000,2000,4000` default.
//!
//! The headline ratios compare the pooled build against the **all-pairs**
//! baseline it replaces: `speedup_32k` divides the fitted all-pairs time
//! by the *measured* pooled time at n = 32 000, and `speedup_100k` is the
//! paper-scale claim from both fits at n = 100 000. The JSON records the
//! raw points and both fits so either number can be re-derived, plus
//! `speedup_vs_exhaustive` — the fully measured pooled-vs-`NnDirection`
//! ratio at the largest size both were run (a much weaker baseline: its
//! per-cell gather is an O(n) scan but its LPs stay small, so it trails
//! the pool by a constant-ish factor rather than an exponent). Every
//! pooled build is parity-checked against a linear scan on a probe set
//! before its time is accepted.
//!
//! Env overrides: `NNCELL_BUILD_NS` (comma list, default
//! `8000,32000,128000`), `NNCELL_DIM` (default 8), `NNCELL_THREADS`,
//! `NNCELL_EXHAUSTIVE_CAP`, `NNCELL_ALLPAIRS_NS` (default
//! `1000,2000,4000`), `NNCELL_BENCH_OUT`.

use nncell_bench::{env_usize, timed};
use nncell_core::{linear_scan_nn, BuildConfig, ConstraintPool, NnCellIndex, NnCells, Strategy};
use nncell_data::{Generator, UniformGenerator};

fn env_usize_list(name: &str, default: &[usize]) -> Vec<usize> {
    std::env::var(name)
        .ok()
        .map(|v| {
            v.split(',')
                .filter_map(|s| s.trim().parse().ok())
                .collect::<Vec<usize>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| default.to_vec())
}

/// Least-squares power-law fit `t = a·n^b` over measured `(n, seconds)`
/// pairs, in log space.
fn fit_power_law(points: &[(usize, f64)]) -> (f64, f64) {
    assert!(points.len() >= 2, "need two sizes to fit a power law");
    let logs: Vec<(f64, f64)> = points
        .iter()
        .map(|&(n, t)| ((n as f64).ln(), t.max(1e-9).ln()))
        .collect();
    let n = logs.len() as f64;
    let (sx, sy): (f64, f64) = logs.iter().fold((0.0, 0.0), |a, p| (a.0 + p.0, a.1 + p.1));
    let (sxx, sxy): (f64, f64) = logs
        .iter()
        .fold((0.0, 0.0), |a, p| (a.0 + p.0 * p.0, a.1 + p.0 * p.1));
    let b = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    let a = ((sy - b * sx) / n).exp();
    (a, b)
}

fn predict(a: f64, b: f64, n: usize) -> f64 {
    a * (n as f64).powf(b)
}

fn build(points: Vec<nncell_geom::Point>, cfg: BuildConfig) -> ((NnCellIndex, NnCells), f64) {
    timed(|| {
        let idx = NnCellIndex::build(points, cfg).expect("build");
        let cells = NnCells::build(&idx);
        (idx, cells)
    })
}

/// Exactness spot check: the pooled cells must agree with a linear scan.
fn assert_exact((idx, cells): &(NnCellIndex, NnCells), pts: &[nncell_geom::Point], d: usize) {
    let probes = UniformGenerator::new(d).generate(64, 99);
    for q in &probes {
        let got = cells.nn(idx, q.as_slice()).expect("probe");
        let want = linear_scan_nn(pts, q.as_slice()).expect("non-empty");
        assert!(
            (got.dist - want.dist).abs() < 1e-9,
            "pooled build lost exactness: {} vs {}",
            got.dist,
            want.dist
        );
    }
}

fn main() {
    let sizes = env_usize_list("NNCELL_BUILD_NS", &[8_000, 32_000, 128_000]);
    let d = env_usize("NNCELL_DIM", 8);
    let threads = env_usize("NNCELL_THREADS", 1);
    let exhaustive_cap = env_usize("NNCELL_EXHAUSTIVE_CAP", 32_000);
    let allpairs_sizes = env_usize_list("NNCELL_ALLPAIRS_NS", &[1_000, 2_000, 4_000]);
    let out = std::env::var("NNCELL_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_build_scaling.json").to_string()
    });
    let k = ConstraintPool::recommended_k(d);
    println!("# Build scaling (d={d}, pool k={k}, {threads} thread(s))");

    let pooled_cfg = || {
        BuildConfig::builder()
            .strategy(Strategy::NnDirection)
            .constraint_pool(ConstraintPool::ApproxKnn { k })
            .seed(7)
            .threads(threads)
            .build()
    };
    let exhaustive_cfg = || {
        BuildConfig::builder()
            .strategy(Strategy::NnDirection)
            .seed(7)
            .threads(threads)
            .build()
    };
    let allpairs_cfg = || {
        BuildConfig::builder()
            .strategy(Strategy::CorrectPruned)
            .seed(7)
            .threads(threads)
            .build()
    };

    // All-pairs calibration (small n only; it is the quadratic baseline).
    let mut allpairs: Vec<(usize, f64)> = Vec::new();
    for &n in &allpairs_sizes {
        let pts = UniformGenerator::new(d).generate(n, 7);
        let (_, s) = build(pts, allpairs_cfg());
        println!("all-pairs n={n}: {s:.2}s");
        allpairs.push((n, s));
    }
    let (ap_a, ap_b) = fit_power_law(&allpairs);
    println!("all-pairs fit: t ≈ {ap_a:.3e}·n^{ap_b:.2}");

    // The ladder: pooled everywhere, exhaustive while affordable.
    let mut rows: Vec<String> = Vec::new();
    let mut pooled_pts: Vec<(usize, f64)> = Vec::new();
    let mut exhaustive_pts: Vec<(usize, f64)> = Vec::new();
    for &n in &sizes {
        let pts = UniformGenerator::new(d).generate(n, 7);
        let (built, pooled_s) = build(pts.clone(), pooled_cfg());
        assert_exact(&built, &pts, d);
        let fell_back = built.1.build_stats().pool_fallback_cells;
        pooled_pts.push((n, pooled_s));
        let (exhaustive_s, measured) = if n <= exhaustive_cap {
            let (_, s) = build(pts, exhaustive_cfg());
            exhaustive_pts.push((n, s));
            (s, true)
        } else {
            let (a, b) = fit_power_law(&exhaustive_pts);
            (predict(a, b, n), false)
        };
        println!(
            "n={n}: pooled {pooled_s:.2}s ({fell_back} fallback cells) — exhaustive \
             {exhaustive_s:.2}s{} — {:.1}x",
            if measured { "" } else { " (extrapolated)" },
            exhaustive_s / pooled_s
        );
        rows.push(format!(
            "    {{\"n\": {n}, \"pooled_seconds\": {pooled_s:.3}, \
             \"exhaustive_seconds\": {exhaustive_s:.3}, \
             \"exhaustive_measured\": {measured}, \
             \"pool_fallback_cells\": {fell_back}}}"
        ));
    }

    // Headline ratios, both against the all-pairs baseline the pool
    // replaces: speedup_32k divides the fitted all-pairs time by the
    // *measured* pooled time at the largest ladder size ≤ 32 000;
    // speedup_100k is fitted-vs-fitted at paper scale. The measured
    // pooled-vs-NnDirection ratio rides along as a secondary number.
    let &(n_meas, ex_meas) = exhaustive_pts.last().expect("one measured exhaustive size");
    let pooled_at_meas = pooled_pts
        .iter()
        .find(|&&(n, _)| n == n_meas)
        .map(|&(_, s)| s)
        .expect("pooled measured at the same size");
    let speedup_vs_exhaustive = ex_meas / pooled_at_meas;
    let &(n_32k, pooled_32k) = pooled_pts
        .iter()
        .filter(|&&(n, _)| n <= 32_000)
        .next_back()
        .expect("one pooled size at or below 32k");
    let speedup_32k = predict(ap_a, ap_b, n_32k) / pooled_32k;
    let (po_a, po_b) = fit_power_law(&pooled_pts);
    let n_claim = 100_000;
    let speedup_100k = predict(ap_a, ap_b, n_claim) / predict(po_a, po_b, n_claim);
    println!(
        "all-pairs vs pooled at n={n_32k}: {speedup_32k:.0}x — at n={n_claim} (fitted): \
         {speedup_100k:.0}x — vs exhaustive NnDirection at n={n_meas} (measured): \
         {speedup_vs_exhaustive:.1}x"
    );

    let json = format!(
        "{{\n  \"dim\": {d},\n  \"pool_k\": {k},\n  \"threads\": {threads},\n  \
         \"sizes\": [\n{}\n  ],\n  \
         \"allpairs_fit\": {{\"a\": {ap_a:.6e}, \"b\": {ap_b:.4}}},\n  \
         \"pooled_fit\": {{\"a\": {po_a:.6e}, \"b\": {po_b:.4}}},\n  \
         \"speedup_32k_n\": {n_32k},\n  \
         \"speedup_32k\": {speedup_32k:.2},\n  \
         \"speedup_100k\": {speedup_100k:.2},\n  \
         \"exhaustive_measured_n\": {n_meas},\n  \
         \"speedup_vs_exhaustive\": {speedup_vs_exhaustive:.2}\n}}\n",
        rows.join(",\n")
    );
    std::fs::write(&out, json).expect("write bench json");
    println!("wrote {out}");
}
