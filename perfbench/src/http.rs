//! `knn_http`: kNN over HTTP/1.1 against an in-process `Server` with one
//! worker, configured as `serve` configures it (memtable on, metrics
//! registry attached). No writes. The same queries answered in-process
//! give both the expected answers and the in-process latency the server
//! overhead is measured against.

use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nncell_core::{FoldConfig, PersistError, Query, Registry, ShardedIndex};
use nncell_server::{ServeIndex, Server, ServerConfig, ServerHandle};

use crate::client::{parse_results, Client};
use crate::measure::{self, memory_mb, nanos, secs};
use crate::spans::SpanLog;
use crate::{inputs, Metrics, Outcome, Params, StatsSum, Tally};

struct Running {
    addr: String,
    handle: ServerHandle,
    join: JoinHandle<Result<(), PersistError>>,
}

impl Running {
    fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        self.join
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server shutdown: {e}"))
    }
}

/// Binds and starts a server over `idx`; returns once `/readyz` answers.
fn start(idx: ShardedIndex, registry: std::sync::Arc<Registry>) -> Result<Running, String> {
    let cfg = ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    };
    let server =
        Server::bind(cfg, ServeIndex::Sharded(idx), registry).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().to_string();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    let mut client = Client::new(addr.clone());
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(r) = client.request("GET", "/readyz", b"", None) {
            if r.status == 200 {
                break;
            }
        }
        if Instant::now() > deadline {
            let running = Running { addr, handle, join };
            let _ = running.stop();
            return Err("server never became ready".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(Running { addr, handle, join })
}

pub fn run(p: &Params, seed: u64, traced: bool) -> Result<Outcome, String> {
    let (points, queries) = inputs::points_and_queries(p.data, p.d, p.n, p.pool, seed);
    let cfg = inputs::build_config(p.d);
    let qs: Vec<Query> = queries.iter().map(|q| Query::knn(q.clone(), p.k)).collect();
    let bodies: Vec<Vec<u8>> = queries.iter().map(|q| inputs::query_body(q, p.k)).collect();
    let mut tally = Tally::default();
    let mut per_layer = Metrics::default();

    let mut setup_s = Vec::with_capacity(p.setups);
    let mut ready_s = Vec::with_capacity(p.setups);
    let mut server: Option<Running> = None;
    let mut expected: Vec<Vec<(usize, u64)>> = Vec::new();
    let mut inproc_p50 = 0.0;
    let mut counts: Option<(StatsSum, f64)> = None;
    for s in 0..p.setups {
        if let Some(running) = server.take() {
            running.stop()?;
        }
        let input = points.clone();
        let t = Instant::now();
        let idx = ShardedIndex::build(input, p.shards, cfg.clone())
            .map_err(|e| format!("build: {e}"))?
            .with_memtable(FoldConfig::default());
        let registry = Registry::new();
        idx.attach_metrics(registry.clone());
        let built_s = secs(t);
        if s + 1 == p.setups {
            // Outside the set-up time: the in-process answers and latency
            // of every query, on the index about to be served.
            if traced {
                crate::build_layers(&mut per_layer, &idx);
            }
            expected.clear();
            for (i, q) in qs.iter().enumerate() {
                let got = crate::response_bits(&idx.query(q))?;
                if i % p.check_every == 0 {
                    let want = inputs::scan_answer(&points, &queries[i], p.k);
                    tally.check(&got, &want, "knn_http in-process answer vs linear scan");
                }
                expected.push(got);
            }
            let (sharded, summed, sums) = crate::fanout_probe(&idx, &qs);
            inproc_p50 = measure::p50_us(&sharded);
            if traced {
                let engine_sum = measure::p50_us(&summed);
                per_layer.set("shard.engine_sum_us", engine_sum);
                per_layer.set("shard.fanout_overhead_us", inproc_p50 - engine_sum);
                // The layers are set once the server-side spans give
                // engine.query_us.
                counts = Some((sums, crate::dist_ns(&points, &queries)));
            }
        }
        let t = Instant::now();
        server = Some(start(idx, registry)?);
        let r = secs(t);
        ready_s.push(r);
        setup_s.push(built_s + r);
    }
    let running = server.ok_or("no set-up ran")?;
    let rss_after_setup = memory_mb().1;

    let mut client = Client::new(running.addr.clone());
    // Bytes of untraced responses only: traced ones carry a traceparent
    // header, and every untraced pass covers the pool once, so the mean
    // does not depend on how many passes fit in the run.
    let (mut bytes, mut sized) = (0u64, 0u64);
    let mut request = |i: usize, tally: &mut Tally, traceparent: Option<&str>| -> Option<u64> {
        tally.attempted += 1;
        let t = Instant::now();
        let r = client.request("POST", "/query", &bodies[i], traceparent);
        let ns = nanos(t);
        match r {
            Ok(reply) if reply.status == 200 => {
                if traceparent.is_none() {
                    bytes += reply.bytes as u64;
                    sized += 1;
                }
                match parse_results(&reply.body) {
                    Some(got) => {
                        tally.check(&got, &expected[i], "knn_http answer vs in-process answer");
                        Some(ns)
                    }
                    None => {
                        tally.fail(|| "unparsable /query response".into());
                        None
                    }
                }
            }
            Ok(reply) => {
                tally.fail(|| format!("/query answered HTTP {}", reply.status));
                None
            }
            Err(e) => {
                tally.fail(|| format!("/query transport error: {e}"));
                None
            }
        }
    };
    let reads = crate::closed_loop(p.pool, p.seconds, |i| request(i, &mut tally, None));

    let mut end_to_end = Metrics::default();
    end_to_end.set("setup_s", measure::median(&setup_s));
    crate::read_metrics(&mut end_to_end, &reads);

    let mut chrome_trace = None;
    if traced {
        per_layer.set("setup.server_ready_s", measure::median(&ready_s));
        per_layer.set("mem.rss_after_setup_mb", rss_after_setup);
        per_layer.set("read.samples", reads.samples() as f64);

        let mut spans = SpanLog::start();
        let (on, off) =
            crate::traced_passes(bodies.len(), "bench.http_request", &mut spans, |i, tp| {
                request(i, &mut tally, tp.as_deref())
            });
        per_layer.set("trace.overhead_share", on / off - 1.0);
        // Both medians are plain medians of untraced, unpinned passes.
        per_layer.set("server.overhead_us", off - inproc_p50);
        for (metric, span) in [
            ("server.queue_wait_us", "server.queue_wait"),
            ("server.read_us", "server.read"),
            ("server.parse_us", "server.parse"),
            ("server.handle_us", "server.handle"),
            ("server.serialize_us", "server.serialize"),
            ("shard.query_us", "shard.query"),
        ] {
            per_layer.set(metric, spans.p50_us(span));
        }
        if let Some((sums, dist)) = &counts {
            sums.set_layers(&mut per_layer, p.k, spans.p50_us("engine.query"), *dist);
        }
        chrome_trace = Some(spans.chrome_json());
    }
    let requests = tally.attempted;
    let (connects, connect_ns) = (client.connects, std::mem::take(&mut client.connect_ns));
    running.stop()?;
    if traced {
        per_layer.set("server.connect_us", measure::p50_us(&connect_ns));
        per_layer.set(
            "server.connects_per_request",
            connects as f64 / requests.max(1) as f64,
        );
        per_layer.set(
            "server.retries_per_request",
            client.retries as f64 / requests.max(1) as f64,
        );
        per_layer.set("server.response_bytes", bytes as f64 / sized.max(1) as f64);
    }
    end_to_end.set("peak_rss_mb", memory_mb().0);
    Ok(Outcome {
        tally,
        end_to_end,
        per_layer,
        chrome_trace,
    })
}
