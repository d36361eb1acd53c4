//! Throughput smoke for the [`nncell_core::QueryEngine`]: sequential vs
//! parallel batch QPS on one fixed-seed workload, written as JSON for CI
//! trend tracking (`BENCH_query_engine.json`).
//!
//! `build_seconds` times the serving index (an STR bulk load);
//! `cell_build_seconds` times [`nncell_cells::NnCells::build`] on the same
//! points and configuration — the pooled NN-cell construction path that
//! the CI build-time gate guards.
//!
//! Defaults match the CI gate — 100 000 uniform points, d = 16, 10 000
//! queries — and scale with the usual env overrides (`NNCELL_N`,
//! `NNCELL_QUERIES`, `NNCELL_DIM`, `NNCELL_THREADS`, plus
//! `NNCELL_BENCH_OUT` for the JSON path). The parallel pass must be
//! bit-identical to the sequential pass; the bench exits non-zero if not.
//!
//! A third sequential pass runs with a live metrics registry attached to
//! measure observability overhead (`seq_qps_metrics` / `metrics_overhead`
//! in the JSON). That pass must also be bit-identical — instrumentation
//! may cost nanoseconds, never answers.
//!
//! Every timed pass runs twice and reports the *minimum* elapsed time:
//! at CI smoke scale a single pass lasts well under a second, so one
//! scheduler preemption or page-cache miss lands entirely in the
//! numerator and once inflated the measured metrics overhead to double
//! digits (the in-process microbenches in `crates/obs` put the true
//! per-record cost at tens of nanoseconds). The min of two runs discards
//! such one-off stalls while leaving real regressions visible.
//!
//! Two more rows measure the paper's regime, high dimension: the same
//! `N` uniform points at d = 16 and d = 32, answered sequentially for a
//! fifth of the queries (k = 1), with their sequential q/s and their mean
//! evaluations per query (`mean_examined`, the count ci.sh gates); the
//! bench fails unless every answer matches a linear scan bit for bit.
//! They sit in `high_d` after the main row's fields, one row per line, so
//! the main row's `seq_qps` stays the first in the file.
//!
//! The overhead A/B itself is additionally **interleaved**: with the
//! registry attached, the control arm (same engine, recording disabled
//! via `without_metrics`) and the instrumented arm alternate for several
//! rounds and each reports its per-round minimum. Measuring the control
//! arm once, minutes earlier in process life, let allocator and cache
//! drift masquerade as recording cost — that is what once inflated the
//! reported overhead to 8%.

use nncell_bench::{env_usize, provenance_json, timed};
use nncell_cells::NnCells;
use nncell_core::{
    linear_scan_nn, BuildConfig, ConstraintPool, NnCellIndex, Query, Registry, Strategy,
};
use nncell_data::{Generator, UniformGenerator};

/// Dimensions of the high-dimension rows.
const HIGH_DIMS: [usize; 2] = [16, 32];

/// One high-dimension row: `n` uniform points at dimension `d`, `n_q`
/// k = 1 queries answered sequentially (best of two passes) and asserted
/// bit-identical to a linear scan. Returns the row as one JSON object on
/// one line.
fn high_d_row(n: usize, d: usize, n_q: usize) -> String {
    let points = UniformGenerator::new(d).generate(n, 7);
    let index = NnCellIndex::build(points.clone(), BuildConfig::default()).expect("build");
    let queries: Vec<Query> = UniformGenerator::new(d)
        .generate(n_q, 8)
        .iter()
        .map(|p| Query::nn(p.as_slice()))
        .collect();
    let engine = index.engine().with_threads(1);
    engine.batch(&queries[..n_q.min(128)]);
    let (answers, seq_s) = best_of_two(|| engine.batch(&queries));
    for (r, q) in answers.iter().zip(&queries) {
        let want = linear_scan_nn(&points, q.point()).expect("non-empty");
        assert!(
            r.as_ref()
                .is_ok_and(|r| (r.best.id, r.best.dist.to_bits()) == (want.id, want.dist.to_bits())),
            "d = {d}: an answer differs from the linear scan"
        );
    }
    let examined: usize = answers
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .map(|r| r.stats.candidates_examined)
        .sum();
    let seq_qps = n_q as f64 / seq_s;
    let mean_examined = examined as f64 / n_q as f64;
    println!(
        "d = {d}: {seq_qps:.0} q/s sequential, {mean_examined:.1} of {n} points examined per query"
    );
    format!("{{\"dim\": {d}, \"seq_qps\": {seq_qps:.2}, \"mean_examined\": {mean_examined:.4}}}")
}

/// Runs `f` twice and keeps the faster elapsed time (the result is
/// asserted identical across passes by the callers' determinism checks,
/// so returning the second value loses nothing).
fn best_of_two<T, F: FnMut() -> T>(mut f: F) -> (T, f64) {
    let (_, first_s) = timed(&mut f);
    let (v, second_s) = timed(&mut f);
    (v, first_s.min(second_s))
}

fn main() {
    let n = env_usize("NNCELL_N", 100_000);
    let d = env_usize("NNCELL_DIM", 16);
    let n_q = env_usize("NNCELL_QUERIES", 10_000);
    let default_threads = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1);
    let threads = env_usize("NNCELL_THREADS", default_threads.min(8));
    // Cargo runs benches with the package directory as cwd; anchor the
    // default output at the workspace root so CI always finds it there.
    let out = std::env::var("NNCELL_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_query_engine.json").to_string()
    });
    println!("# Query-engine throughput (N={n}, d={d}, {n_q} queries, {threads} threads)");

    let points = UniformGenerator::new(d).generate(n, 7);
    let (mut index, build_s) = timed(|| {
        NnCellIndex::build(
            points,
            BuildConfig::builder()
                .strategy(Strategy::NnDirection)
                .constraint_pool(ConstraintPool::ApproxKnn {
                    k: ConstraintPool::recommended_k(d),
                })
                .seed(7)
                .threads(threads)
                .build(),
        )
        .expect("build")
    });
    let (cells, cell_build_s) = timed(|| NnCells::build(&index));
    println!(
        "built in {build_s:.3}s ({} points); cells in {cell_build_s:.1}s ({} pieces)",
        index.len(),
        cells.total_pieces()
    );
    drop(cells);

    let queries: Vec<Query> = UniformGenerator::new(d)
        .generate(n_q, 8)
        .iter()
        .map(|p| Query::nn(p.as_slice()))
        .collect();

    let engine_seq = index.engine().with_threads(1);
    let engine_par = index.engine().with_threads(threads);
    // One untimed warm-up pass each, so page-cache state and allocator
    // high-water marks do not favor whichever runs second.
    engine_seq.batch(&queries[..n_q.min(512)]);
    engine_par.batch(&queries[..n_q.min(512)]);

    let (seq, seq_s) = best_of_two(|| engine_seq.batch(&queries));
    let (par, par_s) = best_of_two(|| engine_par.batch(&queries));
    assert_eq!(seq, par, "parallel batch diverged from sequential");

    // Overhead A/B: same sequential workload with a live registry
    // attached (latency/candidate/page/pruning histograms recording on
    // every query) against a control engine on the *same* index with
    // recording disabled. The two arms alternate — control, instrumented,
    // control, … — so allocator state, page cache, and CPU clocks drift
    // identically for both, and each arm keeps its fastest round.
    let registry = Registry::new();
    index.attach_metrics(registry.clone());
    let engine_ctl = index.engine().with_threads(1).without_metrics();
    let engine_obs = index.engine().with_threads(1);
    engine_ctl.batch(&queries[..n_q.min(512)]);
    engine_obs.batch(&queries[..n_q.min(512)]);
    let mut ctl_s = f64::INFINITY;
    let mut obs_s = f64::INFINITY;
    let mut obs = Vec::new();
    for round in 0..4 {
        // Alternate which arm goes first so neither systematically
        // inherits the warmer caches of a same-round predecessor.
        if round % 2 == 0 {
            let (_, s) = timed(|| engine_ctl.batch(&queries));
            ctl_s = ctl_s.min(s);
            let (v, s) = timed(|| engine_obs.batch(&queries));
            obs_s = obs_s.min(s);
            obs = v;
        } else {
            let (v, s) = timed(|| engine_obs.batch(&queries));
            obs_s = obs_s.min(s);
            obs = v;
            let (_, s) = timed(|| engine_ctl.batch(&queries));
            ctl_s = ctl_s.min(s);
        }
    }
    assert_eq!(seq, obs, "metrics-attached batch diverged from sequential");
    let recorded = registry.snapshot().counter("nncell_queries_total");
    assert!(
        recorded >= Some(n_q as u64),
        "registry missed queries: {recorded:?} < {n_q}"
    );

    let answered = seq.iter().filter(|r| r.is_ok()).count();
    let stats = || seq.iter().filter_map(|r| r.as_ref().ok()).map(|r| &r.stats);
    let cands: usize = stats().map(|s| s.candidates).sum();
    let examined: usize = stats().map(|s| s.candidates_examined).sum();
    let aborted: usize = stats().map(|s| s.candidates_aborted_early).sum();
    let pruned: u64 = stats().map(|s| s.nodes_pruned).sum();
    let seq_qps = n_q as f64 / seq_s;
    let par_qps = n_q as f64 / par_s;
    let obs_qps = n_q as f64 / obs_s;
    // Overhead of the instrumented arm relative to its interleaved
    // control arm; reported (not asserted) because even per-round minima
    // carry some machine noise.
    let metrics_overhead = obs_s / ctl_s.max(f64::MIN_POSITIVE) - 1.0;
    let per_q = |total: f64| total / answered.max(1) as f64;
    let mean_cands = per_q(cands as f64);
    let mean_examined = per_q(examined as f64);
    let mean_aborted = per_q(aborted as f64);
    let mean_pruned = per_q(pruned as f64);
    println!(
        "sequential: {seq_qps:.0} q/s — parallel ({threads} threads): {par_qps:.0} q/s \
         ({:.2}x) — {mean_cands:.1} candidates/query within the bound \
         ({mean_examined:.1} examined, {mean_aborted:.1} beyond the bound, \
         {mean_pruned:.1} subtrees pruned)",
        par_qps / seq_qps
    );
    println!(
        "with metrics: {obs_qps:.0} q/s ({:+.1}% vs interleaved control)",
        metrics_overhead * 100.0
    );

    let high_d_queries = (n_q / 5).max(1);
    println!("# High dimension (N={n}, {high_d_queries} queries, k = 1, sequential)");
    let high_d: Vec<String> = HIGH_DIMS
        .iter()
        .map(|&hd| high_d_row(n, hd, high_d_queries))
        .collect();

    let json = format!(
        "{{\n  {},\n  \"n\": {n},\n  \"dim\": {d},\n  \"queries\": {n_q},\n  \
         \"threads\": {threads},\n  \"build_seconds\": {build_s:.4},\n  \
         \"cell_build_seconds\": {cell_build_s:.2},\n  \
         \"seq_qps\": {seq_qps:.2},\n  \"par_qps\": {par_qps:.2},\n  \
         \"seq_qps_metrics\": {obs_qps:.2},\n  \"metrics_overhead\": {metrics_overhead:.4},\n  \
         \"speedup\": {:.4},\n  \"mean_candidates\": {mean_cands:.4},\n  \
         \"mean_examined\": {mean_examined:.4},\n  \"mean_aborted_early\": {mean_aborted:.4},\n  \
         \"mean_nodes_pruned\": {mean_pruned:.4},\n  \
         \"bit_identical\": true,\n  \
         \"high_d_queries\": {high_d_queries},\n  \"high_d\": [\n    {}\n  ]\n}}\n",
        provenance_json(),
        par_qps / seq_qps,
        high_d.join(",\n    ")
    );
    std::fs::write(&out, json).expect("write bench json");
    println!("wrote {out}");
}
