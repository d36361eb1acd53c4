//! `knn_inproc`: kNN through `ShardedIndex::query` in the caller's
//! thread. No server and no memtable tail, so traversal, the distance
//! kernel and the shard fan-out do all the work.

use std::time::Instant;

use nncell_core::{Query, ShardedIndex};

use crate::measure::{self, memory_mb, nanos, secs};
use crate::spans::SpanLog;
use crate::{inputs, Metrics, Outcome, Params, Tally};

pub fn run(p: &Params, seed: u64, traced: bool) -> Result<Outcome, String> {
    let (points, queries) = inputs::points_and_queries(p.data, p.d, p.n, p.pool, seed);
    let cfg = inputs::build_config(p.d);
    let mut setup_s = Vec::with_capacity(p.setups);
    let mut idx = None;
    for _ in 0..p.setups {
        drop(idx.take());
        let input = points.clone();
        let t = Instant::now();
        let built =
            ShardedIndex::build(input, p.shards, cfg.clone()).map_err(|e| format!("build: {e}"))?;
        setup_s.push(secs(t));
        idx = Some(built);
    }
    let idx = idx.ok_or("no set-up ran")?;
    let rss_after_setup = memory_mb().1;

    let qs: Vec<Query> = queries.iter().map(|q| Query::knn(q.clone(), p.k)).collect();
    // Global ids are positions in the build input, so a scan over the
    // input is the oracle.
    let expected: Vec<Option<Vec<(usize, u64)>>> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| (i % p.check_every == 0).then(|| inputs::scan_answer(&points, q, p.k)))
        .collect();

    let mut tally = Tally::default();
    let read = |i: usize, tally: &mut Tally| -> Option<u64> {
        tally.attempted += 1;
        let t = Instant::now();
        let r = idx.query(&qs[i]);
        let ns = nanos(t);
        match crate::response_bits(&r) {
            Ok(got) => {
                if let Some(want) = &expected[i] {
                    tally.check(&got, want, "knn_inproc read vs linear scan");
                }
                Some(ns)
            }
            Err(e) => {
                tally.fail(|| e);
                None
            }
        }
    };
    let reads = crate::closed_loop(p.pool, p.seconds, |i| read(i, &mut tally));

    let mut end_to_end = Metrics::default();
    end_to_end.set("setup_s", measure::median(&setup_s));
    crate::read_metrics(&mut end_to_end, &reads);

    let mut per_layer = Metrics::default();
    let mut chrome_trace = None;
    if traced {
        crate::build_layers(&mut per_layer, &idx);
        per_layer.set("mem.rss_after_setup_mb", rss_after_setup);
        per_layer.set("read.samples", reads.samples() as f64);

        let (sharded, summed, sums) = crate::fanout_probe(&idx, &qs);
        let engine_sum = measure::p50_us(&summed);
        per_layer.set("shard.engine_sum_us", engine_sum);
        per_layer.set(
            "shard.fanout_overhead_us",
            measure::p50_us(&sharded) - engine_sum,
        );

        let mut spans = SpanLog::start();
        let (on, off) = crate::traced_passes(qs.len(), "bench.read", &mut spans, |i, _| {
            read(i, &mut tally)
        });
        per_layer.set("trace.overhead_share", on / off - 1.0);
        per_layer.set("shard.query_us", spans.p50_us("shard.query"));
        let dist = crate::dist_ns(&points, &queries);
        sums.set_layers(&mut per_layer, p.k, spans.p50_us("engine.query"), dist);
        chrome_trace = Some(spans.chrome_json());
    }
    end_to_end.set("peak_rss_mb", memory_mb().0);
    Ok(Outcome {
        tally,
        end_to_end,
        per_layer,
        chrome_trace,
    })
}
