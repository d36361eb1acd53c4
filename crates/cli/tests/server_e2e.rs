//! Subprocess robustness E2E for `nncell serve`: the three headline
//! fault-tolerance claims, exercised against the *real binary* over a
//! real TCP socket (the in-process tests in `crates/server` cover the
//! same machinery without process boundaries or signals).
//!
//! 1. **Admission control**: a mixed read/write storm at well over
//!    queue capacity is shed with `429 Retry-After` — no deadlock, no
//!    unbounded queueing — and the server keeps answering afterwards.
//! 2. **Crash safety**: `kill -9` in the middle of a write storm, then
//!    reopen the durable directory in-process. Every acknowledged
//!    insert must be there with bit-identical coordinates, and the
//!    recovered index must answer queries bit-identically to a fresh
//!    in-process engine replaying the recovered writes.
//! 3. **Graceful shutdown**: SIGTERM drains in-flight requests, prints
//!    the drain banner, and leaves *zero replay debt* — reopening
//!    replays no WAL records because the drain ended in a checkpoint.

use nncell_core::{BuildConfig, Query, ShardedIndex, Strategy};
use nncell_geom::Point;
use nncell_server::Client;
use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const DIM: usize = 2;
const SHARDS: usize = 2;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nncell_server_e2e_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cfg() -> BuildConfig {
    // Must match what `serve` uses for a fresh `--wal` directory.
    BuildConfig::builder()
        .strategy(Strategy::CorrectPruned)
        .build()
}

/// A running `nncell serve` subprocess: the parsed listen address plus
/// a captured stdout transcript (drained by a thread so the child can
/// never block on a full pipe).
struct ServerProc {
    child: Child,
    addr: String,
    stdout: Arc<Mutex<String>>,
}

impl ServerProc {
    fn spawn(args: &[&str]) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_nncell"))
            .arg("serve")
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn nncell serve");
        let out = child.stdout.take().expect("piped stdout");
        let mut reader = std::io::BufReader::new(out);
        let mut addr = None;
        let mut line = String::new();
        let deadline = Instant::now() + Duration::from_secs(60);
        while Instant::now() < deadline {
            line.clear();
            let n = reader.read_line(&mut line).expect("read server stdout");
            assert!(n > 0, "server exited before announcing its address");
            if let Some(rest) = line.trim().strip_prefix("listening on ") {
                addr = Some(rest.to_string());
                break;
            }
        }
        let addr = addr.expect("server never printed `listening on`");
        let stdout = Arc::new(Mutex::new(String::new()));
        let sink = Arc::clone(&stdout);
        std::thread::spawn(move || {
            let mut line = String::new();
            while reader.read_line(&mut line).map(|n| n > 0).unwrap_or(false) {
                if let Ok(mut s) = sink.lock() {
                    s.push_str(&line);
                }
                line.clear();
            }
        });
        Self {
            child,
            addr,
            stdout,
        }
    }

    fn client(&self) -> Client {
        let mut c = Client::new(self.addr.clone());
        c.max_attempts = 1;
        c
    }

    fn transcript(&self) -> String {
        match self.stdout.lock() {
            Ok(s) => s.clone(),
            Err(p) => p.into_inner().clone(),
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn point_for(i: usize) -> Vec<f64> {
    vec![
        ((i * 37) % 101) as f64 / 101.0,
        ((i * 61 + 13) % 103) as f64 / 103.0,
    ]
}

fn insert_body(coords: &[f64]) -> String {
    let nums: Vec<String> = coords.iter().map(|c| format!("{c}")).collect();
    format!("{{\"point\":[{}]}}", nums.join(","))
}

/// Parses `{"id":N}` out of a 200 insert response.
fn acked_id(body: &str) -> usize {
    let digits: String = body
        .chars()
        .skip_while(|c| !c.is_ascii_digit())
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("insert response carries an id")
}

/// Admission control under a storm at far past queue capacity: some
/// requests are shed with `429 Retry-After`, nothing deadlocks, and the
/// server still answers cleanly once the storm passes.
#[test]
fn storm_past_capacity_sheds_429_and_recovers() {
    let wal = tmp("storm");
    let srv = ServerProc::spawn(&[
        "--wal",
        wal.to_str().unwrap(),
        "--dim",
        "2",
        "--shards",
        "2",
        "--addr",
        "127.0.0.1:0",
        "--threads",
        "1",
        "--queue-depth",
        "2",
        "--deadline-ms",
        "10000",
    ]);

    // Seed a point so reads have something to hit.
    let c = srv.client();
    assert_eq!(
        c.post("/insert", &insert_body(&point_for(0)))
            .unwrap()
            .status,
        200
    );

    // 2x capacity and then some: 16 concurrent mixed read/write clients
    // against 1 worker + 2 queue slots. Raw clients, no retry — we want
    // to *see* the sheds.
    let outcomes: Vec<(u16, bool)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..16)
            .map(|i| {
                let client = srv.client();
                s.spawn(move || {
                    let r = if i % 4 == 0 {
                        client.post("/insert", &insert_body(&point_for(100 + i)))
                    } else {
                        client.post("/query", "{\"point\":[0.5,0.5]}")
                    };
                    match r {
                        Ok(resp) => {
                            let retry_after = resp.header("retry-after").is_some();
                            (resp.status, retry_after)
                        }
                        Err(_) => (0, false),
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let ok = outcomes.iter().filter(|(s, _)| *s == 200).count();
    let shed = outcomes.iter().filter(|(s, _)| *s == 429).count();
    assert!(ok >= 1, "some requests must get through: {outcomes:?}");
    for (status, retry_after) in &outcomes {
        if *status == 429 {
            assert!(retry_after, "every 429 must carry Retry-After");
        }
    }
    // With 16 against 1+2 capacity, the kernel accept backlog can soak
    // a few, but a majority being answered 200 with zero sheds would
    // mean admission control never engaged.
    assert!(
        shed >= 1,
        "a 16-way storm against capacity 3 must shed: {outcomes:?}"
    );

    // The storm passed; the server is healthy and still serving.
    let after = c.post("/query", "{\"point\":[0.5,0.5]}").unwrap();
    assert_eq!(after.status, 200, "server must serve after the storm");
    let health = c.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    let _ = std::fs::remove_dir_all(&wal);
}

/// `kill -9` mid-write-storm, then recover: every acknowledged insert
/// is present bit-for-bit, and the recovered index answers queries
/// bit-identically to an in-process engine replaying the same writes.
#[test]
fn kill_nine_mid_storm_recovers_acked_writes_bit_identical() {
    let wal = tmp("kill9");
    let mut srv = ServerProc::spawn(&[
        "--wal",
        wal.to_str().unwrap(),
        "--dim",
        "2",
        "--shards",
        "2",
        "--addr",
        "127.0.0.1:0",
        "--threads",
        "2",
    ]);

    // Write storm: 4 threads hammer inserts, recording (id, coords) for
    // every *acknowledged* (200) write. SIGKILL lands mid-storm.
    let acked = Arc::new(Mutex::new(Vec::<(usize, Vec<f64>)>::new()));
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let client = srv.client();
                let acked = Arc::clone(&acked);
                s.spawn(move || {
                    for i in 0..200 {
                        let coords = point_for(t * 1000 + i);
                        match client.post("/insert", &insert_body(&coords)) {
                            Ok(resp) if resp.status == 200 => {
                                let id = acked_id(&resp.text());
                                acked.lock().unwrap().push((id, coords));
                            }
                            // Shed, refused, or the process is gone.
                            Ok(_) | Err(_) => {
                                if client.get("/healthz").is_err() {
                                    break;
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        // Let the storm make progress, then pull the plug. SIGKILL: no
        // drain, no checkpoint, no atexit — whatever the WAL acked is
        // all the recovery gets.
        std::thread::sleep(Duration::from_millis(300));
        srv.child.kill().expect("SIGKILL the server");
        let _ = srv.child.wait();
        for h in handles {
            h.join().unwrap();
        }
    });

    let mut acked = match acked.lock() {
        Ok(g) => g.clone(),
        Err(p) => p.into_inner().clone(),
    };
    acked.sort_by_key(|(id, _)| *id);
    assert!(
        acked.len() >= 8,
        "storm only acked {} writes before the kill — too few to prove anything",
        acked.len()
    );

    // Recover in-process. Every acked id must be live with identical
    // bits; ids beyond the acked set are allowed (in-flight at SIGKILL,
    // acked to no one) but must be contiguous assignments, not garbage.
    let recovered =
        ShardedIndex::open_durable(&wal, DIM, SHARDS, cfg()).expect("recovery after SIGKILL");
    for (id, coords) in &acked {
        let (shard, local) = recovered.locate(*id).expect("acked insert id placed");
        let shard = recovered.shard(shard);
        assert!(
            shard.is_live(local),
            "acked insert id {id} lost by SIGKILL recovery"
        );
        let got = shard.rows().nth(local).expect("acked slot");
        assert_eq!(
            got,
            &coords[..],
            "acked insert id {id} recovered with different bits"
        );
    }

    // Bit-identical serving: replay the *recovered* state into a fresh
    // in-process engine (same shard count, same build config) and
    // compare answers bit-for-bit across a probe grid.
    let replay = ShardedIndex::new(DIM, SHARDS, cfg());
    let total: usize = (0..SHARDS).map(|i| recovered.shard(i).rows().len()).sum();
    for g in 0..total {
        let (shard, local) = recovered
            .locate(g)
            .expect("ids below the slot total are placed");
        let shard = recovered.shard(shard);
        // Replay inserts in global id order; re-remove is impossible
        // here (the storm never removes), so every slot is live.
        assert!(shard.is_live(local), "insert-only storm left a dead slot");
        let id = replay
            .insert(Point::new(shard.rows().nth(local).expect("slot").to_vec()))
            .expect("in-memory replay insert");
        assert_eq!(id, g, "replay must assign the same global ids");
    }
    for probe in 0..20 {
        let q = Query::knn(point_for(probe * 7 + 3), 3);
        let a = recovered.query(&q).expect("recovered query");
        let b = replay.query(&q).expect("replay query");
        let a_ids: Vec<_> = a.iter().map(|r| (r.id, r.dist.to_bits())).collect();
        let b_ids: Vec<_> = b.iter().map(|r| (r.id, r.dist.to_bits())).collect();
        assert_eq!(
            a_ids, b_ids,
            "recovered index diverged from in-process replay on probe {probe}"
        );
    }
    let _ = std::fs::remove_dir_all(&wal);
}

/// SIGTERM drains and checkpoints: the process exits cleanly with the
/// drain banner, and reopening replays zero WAL records.
#[test]
fn sigterm_drains_checkpoints_and_leaves_zero_replay_debt() {
    let wal = tmp("sigterm");
    let mut srv = ServerProc::spawn(&[
        "--wal",
        wal.to_str().unwrap(),
        "--dim",
        "2",
        "--shards",
        "2",
        "--addr",
        "127.0.0.1:0",
        "--threads",
        "2",
    ]);

    let c = srv.client();
    let mut expect = Vec::new();
    for i in 0..12 {
        let coords = point_for(i);
        let r = c.post("/insert", &insert_body(&coords)).unwrap();
        assert_eq!(r.status, 200);
        expect.push((acked_id(&r.text()), coords));
    }

    // SIGTERM, not SIGKILL: the server must drain and checkpoint.
    let term = Command::new("kill")
        .arg("-TERM")
        .arg(srv.child.id().to_string())
        .status()
        .expect("send SIGTERM");
    assert!(term.success());
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(st) = srv.child.try_wait().expect("wait for server") {
            break st;
        }
        assert!(
            Instant::now() < deadline,
            "server did not exit within 60s of SIGTERM"
        );
        std::thread::sleep(Duration::from_millis(25));
    };
    assert!(status.success(), "graceful shutdown must exit 0: {status}");
    assert!(
        srv.transcript().contains("drained and checkpointed; bye"),
        "missing drain banner in:\n{}",
        srv.transcript()
    );

    // Zero replay debt: the drain ended in a checkpoint, so recovery
    // replays nothing and every acked insert is in the snapshot.
    let reopened = ShardedIndex::open_durable(&wal, DIM, SHARDS, cfg())
        .expect("reopen after graceful shutdown");
    for report in reopened.recovery() {
        assert_eq!(
            report.replayed, 0,
            "graceful shutdown left WAL records to replay: {report:?}"
        );
    }
    assert_eq!(reopened.len(), expect.len());
    for (id, coords) in &expect {
        let (shard, local) = reopened.locate(*id).expect("acked insert id placed");
        assert_eq!(
            reopened.shard(shard).row(local).as_deref(),
            Some(&coords[..])
        );
    }
    // And the points actually serve.
    let hit = reopened
        .query(&Query::nn(expect[5].1.clone()))
        .unwrap()
        .best;
    assert_eq!(hit.id, expect[5].0);
    assert!(hit.dist < 1e-12);
    let _ = std::fs::remove_dir_all(&wal);
}

/// End-to-end trace propagation through the real binary: a client-sent
/// sampled `traceparent` forces recording server-side (sampling is off
/// by default), the response echoes the same trace id, and
/// `GET /debug/trace` exports the nested server → shard → engine and
/// WAL span tree as Chrome trace-event JSON.
#[test]
fn traceparent_round_trips_and_debug_trace_exports_the_tree() {
    use nncell_obs::trace;
    use nncell_obs::SpanContext;

    let wal = tmp("trace");
    let srv = ServerProc::spawn(&[
        "--wal",
        wal.to_str().unwrap(),
        "--dim",
        "2",
        "--shards",
        "2",
        "--addr",
        "127.0.0.1:0",
        "--threads",
        "2",
    ]);
    let client = srv.client();

    // Seed some untraced points so the query has work to do.
    for i in 0..12 {
        let r = client
            .post("/insert", &insert_body(&point_for(i)))
            .expect("seed insert");
        assert_eq!(r.status, 200);
    }

    // Traced requests: the std-only client forwards the calling
    // thread's sampled context as a `traceparent` header automatically.
    const TRACE: u128 = 0xe2e0_0000_0000_0000_0000_0000_0000_0001;
    trace::init();
    let (query_resp, insert_resp) = {
        let _root = trace::root_from(
            "e2e.client",
            Some(SpanContext {
                trace: TRACE,
                span: 0x42,
                sampled: true,
            }),
        );
        let q = client
            .post("/query", "{\"point\":[0.4,0.6],\"k\":3}")
            .expect("traced query");
        let i = client
            .post("/insert", &insert_body(&[0.11, 0.22]))
            .expect("traced insert");
        (q, i)
    };
    assert_eq!(query_resp.status, 200);
    assert_eq!(insert_resp.status, 200);

    // The response echoes the continued trace: same trace id, a
    // server-minted span id, sampled flag intact.
    for resp in [&query_resp, &insert_resp] {
        let echoed = resp
            .header("traceparent")
            .expect("server echoes traceparent on traced requests");
        let ctx = SpanContext::parse_traceparent(echoed).expect("well-formed traceparent");
        assert_eq!(
            ctx.trace, TRACE,
            "trace id unchanged through the round trip"
        );
        assert!(ctx.sampled);
    }

    let export = client.get("/debug/trace?last=50").expect("debug trace");
    assert_eq!(export.status, 200);
    let body = export.text();
    assert!(
        body.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["),
        "not Chrome trace-event JSON:\n{body}"
    );
    assert_eq!(body.matches('{').count(), body.matches('}').count());

    // Only the events of our trace (the seed inserts were unsampled and
    // must not appear — sampling is off by default).
    let hex = format!("{TRACE:032x}");
    let events: Vec<&str> = body.lines().filter(|l| l.contains("\"name\"")).collect();
    assert!(
        events.iter().all(|l| l.contains(&hex)),
        "unsampled request leaked into the flight recorder:\n{body}"
    );

    // The full nested tree is there: request lifecycle, shard fan-out,
    // engine work, and the WAL append of the traced insert.
    for name in [
        "server.request",
        "server.queue_wait",
        "server.parse",
        "server.handle",
        "server.serialize",
        "server.write",
        "shard.query",
        "engine.query",
        "wal.append",
    ] {
        assert!(
            events
                .iter()
                .any(|l| l.contains(&format!("\"name\":\"{name}\""))),
            "span {name} missing from export:\n{body}"
        );
    }

    // Spot-check the nesting: one shard.query span covers the whole
    // two-shard fan-out and parents the engine.query, and it hangs off a
    // server.handle span.
    let field = |line: &str, key: &str| -> String {
        let tag = format!("\"{key}\":\"");
        let start = line.find(&tag).map(|i| i + tag.len()).unwrap_or(0);
        line[start..].chars().take_while(|c| *c != '"').collect()
    };
    let span_of = |name: &str| -> Vec<String> {
        events
            .iter()
            .filter(|l| l.contains(&format!("\"name\":\"{name}\"")))
            .map(|l| field(l, "span"))
            .collect()
    };
    let handle_spans = span_of("server.handle");
    let shard_events: Vec<&&str> = events
        .iter()
        .filter(|l| l.contains("\"name\":\"shard.query\""))
        .collect();
    assert_eq!(shard_events.len(), 1, "one span per fan-out:\n{body}");
    assert!(
        shard_events[0].contains("\"shards\":2"),
        "the fan-out span names both shards:\n{body}"
    );
    for ev in &shard_events {
        assert!(
            handle_spans.contains(&field(ev, "parent")),
            "shard span not parented by server.handle:\n{body}"
        );
    }
    let shard_spans = span_of("shard.query");
    for ev in events
        .iter()
        .filter(|l| l.contains("\"name\":\"engine.query\""))
    {
        assert!(
            shard_spans.contains(&field(ev, "parent")),
            "engine span not parented by a shard span:\n{body}"
        );
    }

    let _ = std::fs::remove_dir_all(&wal);
}
