//! Ablation: decomposition depth vs candidate count vs cost — the
//! experiment behind the engine's cost-model default for
//! `decompose_pieces`.
//!
//! Sweeps `decompose_pieces ∈ {1, 2, 4, 8}` on one fixed-seed workload
//! and reports, per depth: the cells' build time
//! ([`nncell_core::NnCells::build`]), cell-tree candidates per point
//! query (the paper's overlap-driven number, via
//! [`nncell_core::measured_candidates`]), and the query engine's
//! throughput and per-query evaluation work.
//!
//! What the sweep shows — and why the default is **no decomposition**:
//! deeper decomposition does cut cell-tree candidates (fig. 13's claim,
//! reproduced here), but it multiplies build time, and since the engine
//! moved to the MINDIST-ordered traversal of the *point* tree its QPS and
//! examined-candidate counts are independent of cell decomposition.
//! Paying a multi-× build slowdown for a metric the serving path no
//! longer reads is a bad trade, so `BuildConfig` leaves
//! `decompose_pieces` unset unless the caller explicitly wants tighter
//! cell approximations (e.g. for figure-13-style quality studies).
//!
//! Smoke-scale defaults (overridable via `NNCELL_N`, `NNCELL_DIM`,
//! `NNCELL_QUERIES`, `NNCELL_PIECES_SWEEP`, `NNCELL_BENCH_OUT`); the
//! JSON lands in `BENCH_ablation_decompose.json` for CI trend tracking.

use nncell_bench::{as_queries, env_usize, print_table, timed};
use nncell_core::{
    measured_candidates, BuildConfig, ConstraintPool, NnCellIndex, NnCells, Query, Strategy,
};
use nncell_data::{Generator, UniformGenerator};

fn main() {
    let n = env_usize("NNCELL_N", 2000);
    let d = env_usize("NNCELL_DIM", 8);
    let n_q = env_usize("NNCELL_QUERIES", 1000);
    let sweep: Vec<usize> = std::env::var("NNCELL_PIECES_SWEEP")
        .map(|s| {
            s.split(',')
                .map(|v| v.trim().parse().expect("piece count"))
                .collect()
        })
        .unwrap_or_else(|_| vec![1, 2, 4, 8]);
    let out = std::env::var("NNCELL_BENCH_OUT").unwrap_or_else(|_| {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_ablation_decompose.json"
        )
        .to_string()
    });
    println!("# Ablation — decomposition depth (N={n}, d={d}, {n_q} queries)");

    let points = UniformGenerator::new(d).generate(n, 7);
    let raw_queries = as_queries(UniformGenerator::new(d).generate(n_q, 8));
    let queries: Vec<Query> = raw_queries.iter().map(|q| Query::nn(q.clone())).collect();

    let mut rows = Vec::new();
    let mut entries = Vec::new();
    let mut baseline: Option<Vec<_>> = None;
    for &pieces in &sweep {
        let mut cfg = BuildConfig::builder()
            .strategy(Strategy::NnDirection)
            .constraint_pool(ConstraintPool::ApproxKnn {
                k: ConstraintPool::recommended_k(d),
            })
            .seed(7);
        if pieces > 1 {
            cfg = cfg.decompose_pieces(pieces);
        }
        let index = NnCellIndex::build(points.clone(), cfg.build()).unwrap();
        let (cells, build_s) = timed(|| NnCells::build(&index));

        let cell_cands = measured_candidates(&cells, &raw_queries);
        let engine = index.engine().with_threads(1);
        engine.batch(&queries[..n_q.min(256)]); // warm the scratch
        let (resp, query_s) = timed(|| engine.batch(&queries));
        let answered = resp.iter().filter(|r| r.is_ok()).count().max(1);
        let examined: usize = resp
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .map(|r| r.stats.candidates_examined)
            .sum();
        let qps = n_q as f64 / query_s;
        let mean_examined = examined as f64 / answered as f64;

        // Decomposition must not change answers: same traversal, same
        // points, bit-identical to the undecomposed run.
        match &baseline {
            None => baseline = Some(resp),
            Some(base) => assert_eq!(
                *base, resp,
                "pieces={pieces} diverged from the undecomposed answers"
            ),
        }

        rows.push(vec![
            pieces.to_string(),
            format!("{build_s:.2}s"),
            format!("{cell_cands:.1}"),
            format!("{qps:.0}"),
            format!("{mean_examined:.1}"),
        ]);
        entries.push(format!(
            "    {{\"pieces\": {pieces}, \"build_seconds\": {build_s:.3}, \
             \"cell_candidates\": {cell_cands:.4}, \"qps\": {qps:.2}, \
             \"mean_examined\": {mean_examined:.4}}}"
        ));
    }

    print_table(
        "Decomposition depth: build cost vs cell candidates vs engine work",
        &[
            "pieces",
            "build",
            "cell cands/query",
            "engine q/s",
            "examined/query",
        ],
        &rows,
    );
    println!(
        "\ncost-model conclusion: decomposition shrinks *cell-tree* candidates but \
         multiplies build time, while the engine's point-tree traversal (QPS, \
         examined) is unaffected — so the default stays decompose_pieces = unset."
    );

    let json = format!(
        "{{\n  \"n\": {n},\n  \"dim\": {d},\n  \"queries\": {n_q},\n  \"sweep\": [\n{}\n  ],\n  \
         \"default\": \"no decomposition — build cost scales with pieces while \
         engine throughput does not benefit\"\n}}\n",
        entries.join(",\n")
    );
    std::fs::write(&out, json).expect("write bench json");
    println!("wrote {out}");
}
