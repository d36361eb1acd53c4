//! Mixed read/write throughput for the LSM-style write path, written as
//! JSON for CI trend tracking (`BENCH_mixed.json`).
//!
//! The headline claim under test: with the journaled memtable tail, an
//! insert/remove ack does **O(1)** work — append to the tail, no
//! point-tree update, no snapshot publish — so ack latency is independent
//! of index size.
//!
//! For each database size (default n ∈ {2 000, 8 000, 32 000}; override
//! with `NNCELL_MIXED_NS=a,b,c`):
//!
//! 1. build a 2-shard in-memory index;
//! 2. **storm**: a timed run of mixed writes (7/8 inserts, 1/8 removes)
//!    with interleaved k-NN reads — acks land in the tail, reads merge
//!    the tail by linear scan;
//! 3. **exactness**: a probe set is answered with the tail still
//!    unfolded, the tail is flushed into the shards, and the same probes
//!    must answer *bit-identically* (snapshot + tail − tombstones is
//!    exact);
//! 4. the bench asserts the ack p99 at the largest `n` stays within 10x
//!    of the smallest `n` (with a 50 µs noise floor) — a generous bound
//!    that still catches any O(n) work leaking back into the ack path.
//!
//! `fold_records_per_s` is the drain rate of the one `flush` that folds
//! the storm's tail into the shards.
//!
//! Env overrides: `NNCELL_MIXED_NS`, `NNCELL_MIXED_OPS` (storm size),
//! `NNCELL_DIM`, `NNCELL_BENCH_OUT`.

use nncell_bench::{env_dims, env_usize, provenance_json, timed};
use nncell_core::{BuildConfig, FoldConfig, Query, ShardedIndex, Strategy};
use nncell_data::{Generator, UniformGenerator};
use nncell_geom::Point;
use std::time::Instant;

const SHARDS: usize = 2;

fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() as f64 - 1.0) * p).round() as usize;
    sorted_ns[idx] as f64 / 1e3
}

/// One mixed storm against `idx`: `ops` writes (every 8th a remove of an
/// id inserted earlier in the storm, the rest inserts of fresh points),
/// with a timed k=3 read every 4th op. Returns (ack p99 µs, read p99 µs).
fn storm(idx: &ShardedIndex, fresh: &[Point], probes: &[Vec<f64>]) -> (f64, f64) {
    let mut acks: Vec<u64> = Vec::with_capacity(fresh.len());
    let mut reads: Vec<u64> = Vec::with_capacity(fresh.len() / 4 + 1);
    let mut inserted: Vec<usize> = Vec::with_capacity(fresh.len());
    for (i, p) in fresh.iter().enumerate() {
        let t0 = Instant::now();
        if i % 8 == 7 {
            // Remove an id this storm inserted (never the seed set, so
            // repeated passes stay independent).
            let victim = inserted.swap_remove((i * 5) % inserted.len());
            assert!(idx.remove(victim).expect("remove ack"), "victim was live");
        } else {
            let id = idx.insert(p.clone()).expect("insert ack");
            inserted.push(id);
        }
        acks.push(t0.elapsed().as_nanos() as u64);
        if i % 4 == 3 {
            let q = &probes[(i / 4) % probes.len()];
            let t0 = Instant::now();
            idx.query(&Query::knn(q.clone(), 3)).expect("read");
            reads.push(t0.elapsed().as_nanos() as u64);
        }
    }
    acks.sort_unstable();
    reads.sort_unstable();
    (percentile_us(&acks, 0.99), percentile_us(&reads, 0.99))
}

fn main() {
    let sizes = env_dims("NNCELL_MIXED_NS", &[2_000, 8_000, 32_000]);
    let ops = env_usize("NNCELL_MIXED_OPS", 400);
    let d = env_usize("NNCELL_DIM", 4);
    let out = std::env::var("NNCELL_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_mixed.json").to_string()
    });
    let threads = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1)
        .min(8);
    println!("# Mixed read/write (sizes {sizes:?}, d={d}, {ops} ops/storm, {SHARDS} shards)");

    let probes: Vec<Vec<f64>> = UniformGenerator::new(d)
        .generate(64, 9)
        .iter()
        .map(|p| p.as_slice().to_vec())
        .collect();

    let mut rows = Vec::new();
    let mut memtable_p99s: Vec<(usize, f64)> = Vec::new();
    for &n in &sizes {
        let seed_pts = UniformGenerator::new(d).generate(n, 7);
        // Fresh points for the storm, disjoint from the seed set
        // (coordinates are continuous uniform; duplicate rejection is a
        // non-issue at these scales).
        let fresh = UniformGenerator::new(d).generate(ops, 8 + n as u64);
        let cfg = BuildConfig::builder()
            .strategy(Strategy::Sphere)
            .seed(7)
            .threads(threads)
            .build();
        let (idx, build_s) = timed(|| {
            ShardedIndex::build(seed_pts, SHARDS, cfg)
                .expect("seed build")
                .with_memtable(FoldConfig {
                    tail_max: 4 * ops.max(1),
                    ..FoldConfig::default()
                })
        });
        println!("n={n}: built in {build_s:.3}s");

        let (mem_ack_p99, tail_read_p99) = storm(&idx, &fresh, &probes);
        let tail_depth = idx.tail_depth();
        assert!(tail_depth > 0, "storm must leave unfolded tail ops");

        // Exactness across the fold boundary: tail-merged answers must
        // be bit-identical to the folded answers.
        let before: Vec<Vec<(usize, u64)>> = probes
            .iter()
            .map(|q| {
                idx.query(&Query::knn(q.clone(), 3))
                    .expect("probe (tail)")
                    .iter()
                    .map(|r| (r.id, r.dist.to_bits()))
                    .collect()
            })
            .collect();
        let (folded, fold_s) = timed(|| idx.flush().expect("flush"));
        assert_eq!(idx.tail_depth(), 0, "flush must drain the tail");
        let mut folded_reads: Vec<u64> = Vec::new();
        for (q, want) in probes.iter().zip(&before) {
            let t0 = Instant::now();
            let got: Vec<(usize, u64)> = idx
                .query(&Query::knn(q.clone(), 3))
                .expect("probe (folded)")
                .iter()
                .map(|r| (r.id, r.dist.to_bits()))
                .collect();
            folded_reads.push(t0.elapsed().as_nanos() as u64);
            assert_eq!(&got, want, "fold changed an answer (n={n})");
        }
        folded_reads.sort_unstable();
        let folded_read_p99 = percentile_us(&folded_reads, 0.99);
        let fold_rate = folded as f64 / fold_s.max(f64::MIN_POSITIVE);

        println!(
            "n={n}: ack p99 {mem_ack_p99:.1} µs — read p99 tail-merged \
             {tail_read_p99:.1} µs, folded {folded_read_p99:.1} µs — fold {folded} recs \
             @ {fold_rate:.1}/s"
        );
        memtable_p99s.push((n, mem_ack_p99));
        rows.push(format!(
            "    {{\n      \"n\": {n},\n      \
             \"memtable_insert_p99_us\": {mem_ack_p99:.2},\n      \
             \"tail_read_p99_us\": {tail_read_p99:.2},\n      \
             \"folded_read_p99_us\": {folded_read_p99:.2},\n      \
             \"tail_depth_at_flush\": {tail_depth},\n      \
             \"fold_records_per_s\": {fold_rate:.1},\n      \
             \"build_seconds\": {build_s:.4}\n    }}"
        ));
    }

    // The O(1)-ack assertion: p99 at the largest size within 10x of the
    // smallest (50 µs floor so micro-timings don't trip it).
    let (n_min, p99_min) = memtable_p99s[0];
    let (n_max, p99_max) = memtable_p99s[memtable_p99s.len() - 1];
    let bound = 10.0 * p99_min.max(50.0);
    assert!(
        p99_max <= bound,
        "memtable ack p99 grew with index size: {p99_max:.1} µs at n={n_max} vs \
         {p99_min:.1} µs at n={n_min} (bound {bound:.1} µs) — O(1) ack contract broken"
    );
    println!(
        "memtable ack p99 flat: {p99_min:.1} µs at n={n_min} → {p99_max:.1} µs at n={n_max} \
         (bound {bound:.1} µs)"
    );

    let json = format!(
        "{{\n  {},\n  \"dim\": {d},\n  \"shards\": {SHARDS},\n  \"ops_per_storm\": {ops},\n  \
         \"sizes\": [\n{}\n  ],\n  \"memtable_ack_p99_flat\": true\n}}\n",
        provenance_json(),
        rows.join(",\n")
    );
    std::fs::write(&out, json).expect("write bench json");
    println!("wrote {out}");
}
