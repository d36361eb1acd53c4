//! Sharded serving-layer throughput: build time and batch QPS at shard
//! counts S ∈ {1, 2, 4} on one fixed-seed workload, written as JSON for
//! CI trend tracking (`BENCH_sharded.json`).
//!
//! Each S is timed over [`PASSES`] passes of the whole query set (median,
//! min and max QPS are reported), so one scheduler stall cannot set the
//! figure. Each S also records the work of one query, averaged over the
//! query set: distance evaluations (`mean_examined`) and page reads
//! (`mean_pages`). These counts do not depend on the host, so ci.sh
//! gates on them.
//!
//! Every sharded pass is asserted bit-identical to the S = 1 pass — the
//! sharded index's exactness contract (same ids, same distance bits, same
//! ranking) is load-bearing for this bench, not just for the proptests.
//!
//! Defaults are sized for real hardware; CI runs a smoke scale via the
//! usual env overrides (`NNCELL_N`, `NNCELL_DIM`, `NNCELL_QUERIES`,
//! `NNCELL_SHARD_COUNTS` as a comma list, `NNCELL_BENCH_OUT` for the JSON
//! path).

use nncell_bench::{env_usize, provenance_json, timed};
use nncell_core::{BuildConfig, Query, QueryResponse, ShardedIndex, Strategy};
use nncell_data::{Generator, UniformGenerator};

/// Timed passes of the whole query set per shard count.
const PASSES: usize = 5;

fn shard_counts() -> Vec<usize> {
    match std::env::var("NNCELL_SHARD_COUNTS") {
        Ok(s) => s
            .split(',')
            .map(|t| t.trim().parse().expect("NNCELL_SHARD_COUNTS holds counts"))
            .collect(),
        Err(_) => vec![1, 2, 4],
    }
}

fn assert_bit_identical(
    a: &[Result<QueryResponse, nncell_core::QueryError>],
    b: &[Result<QueryResponse, nncell_core::QueryError>],
    s: usize,
) {
    assert_eq!(a.len(), b.len());
    for (i, (ra, rb)) in a.iter().zip(b).enumerate() {
        let (ra, rb) = (
            ra.as_ref().expect("query ok"),
            rb.as_ref().expect("query ok"),
        );
        let va: Vec<_> = ra.iter().collect();
        let vb: Vec<_> = rb.iter().collect();
        assert_eq!(va.len(), vb.len(), "S={s} query {i}");
        for (x, y) in va.iter().zip(&vb) {
            assert_eq!(x.id, y.id, "S={s} query {i}");
            assert_eq!(x.dist.to_bits(), y.dist.to_bits(), "S={s} query {i}");
        }
    }
}

fn main() {
    let n = env_usize("NNCELL_N", 40_000);
    let d = env_usize("NNCELL_DIM", 16);
    let n_q = env_usize("NNCELL_QUERIES", 4_000);
    let counts = shard_counts();
    let out = std::env::var("NNCELL_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sharded.json").to_string()
    });
    println!(
        "# Sharded serving layer (N={n}, d={d}, {n_q} queries, {PASSES} passes, S={counts:?})"
    );

    let points = UniformGenerator::new(d).generate(n, 7);
    let queries: Vec<Query> = UniformGenerator::new(d)
        .generate(n_q, 8)
        .iter()
        .map(|p| Query::nn(p.as_slice()))
        .collect();

    let mut baseline: Option<Vec<Result<QueryResponse, nncell_core::QueryError>>> = None;
    let mut rows = Vec::new();
    for &s in &counts {
        let cfg = BuildConfig::builder()
            .strategy(Strategy::NnDirection)
            .seed(7)
            .build();
        let (index, build_s) =
            timed(|| ShardedIndex::build(points.clone(), s, cfg).expect("sharded build"));
        index.batch(&queries[..n_q.min(256)]); // warm-up
        let mut qps = Vec::with_capacity(PASSES);
        let mut results = Vec::new();
        for _ in 0..PASSES {
            let (r, q_s) = timed(|| index.batch(&queries));
            qps.push(n_q as f64 / q_s);
            results = r;
        }
        qps.sort_by(f64::total_cmp);
        let (median, min, max) = (qps[PASSES / 2], qps[0], qps[PASSES - 1]);
        let mean = |f: &dyn Fn(&QueryResponse) -> f64| {
            results
                .iter()
                .map(|r| f(r.as_ref().expect("query ok")))
                .sum::<f64>()
                / n_q as f64
        };
        let examined = mean(&|r| r.stats.candidates_examined as f64);
        let pages = mean(&|r| r.stats.pages as f64);
        match &baseline {
            Some(base) => assert_bit_identical(base, &results, s),
            None => baseline = Some(results),
        }
        println!(
            "S={s}: built in {build_s:.2}s, {median:.0} q/s (min {min:.0}, max {max:.0}; \
             exact), {examined:.1} evaluations and {pages:.1} pages per query"
        );
        rows.push(format!(
            "    {{\"shards\": {s}, \"mean_examined\": {examined:.2}, \"mean_pages\": {pages:.2}, \
             \"build_seconds\": {build_s:.3}, \"qps\": {median:.2}, \"qps_min\": {min:.2}, \
             \"qps_max\": {max:.2}}}"
        ));
    }

    let json = format!(
        "{{\n  {},\n  \"n\": {n},\n  \"dim\": {d},\n  \"queries\": {n_q},\n  \"passes\": {PASSES},\n  \
         \"runs\": [\n{}\n  ],\n  \"bit_identical\": true\n}}\n",
        provenance_json(),
        rows.join(",\n")
    );
    std::fs::write(&out, json).expect("write bench json");
    println!("wrote {out}");
}
