//! In-process end-to-end tests for the serving layer: protocol
//! round-trips, admission control, deadlines, panic isolation, and
//! graceful drain — everything that doesn't need a separate OS process
//! (the subprocess `kill -9` storm lives in the CLI's E2E suite, where
//! the binary is available).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use nncell_core::{BuildConfig, Query, Registry, ShardedIndex, Strategy};
use nncell_geom::Point;
use nncell_server::{Client, ServeIndex, Server, ServerConfig, ServerHandle};

fn cfg() -> BuildConfig {
    BuildConfig::builder()
        .strategy(Strategy::Sphere)
        .seed(7)
        .build()
}

/// Deterministic pseudo-random points (xorshift — `rand` stays a
/// dev-dep of other crates, this suite needs nothing fancier).
fn points(n: usize, dim: usize, mut seed: u64) -> Vec<Point> {
    (0..n)
        .map(|_| {
            let coords: Vec<f64> = (0..dim)
                .map(|_| {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    (seed % 10_000) as f64 / 10_000.0
                })
                .collect();
            Point::new(coords)
        })
        .collect()
}

struct Running {
    handle: ServerHandle,
    addr: String,
    join: std::thread::JoinHandle<Result<(), nncell_core::PersistError>>,
}

impl Running {
    fn client(&self) -> Client {
        let mut c = Client::new(self.addr.clone());
        c.max_attempts = 1;
        c
    }

    fn stop(self) {
        self.handle.shutdown();
        self.join
            .join()
            .expect("server thread")
            .expect("clean shutdown");
    }
}

fn spawn(mut config: ServerConfig, index: ServeIndex) -> Running {
    config.addr = String::from("127.0.0.1:0");
    let server = Server::bind(config, index, Registry::new()).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    // Wait for readiness (workers up).
    let c = Client::new(addr.clone());
    for _ in 0..100 {
        if matches!(c.get("/readyz"), Ok(r) if r.status == 200) {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    Running { handle, addr, join }
}

fn sharded_index(n: usize, dim: usize) -> (ShardedIndex, Vec<Point>) {
    let pts = points(n, dim, 0x5eed);
    let idx = ShardedIndex::build(pts.clone(), 2, cfg()).expect("build");
    (idx, pts)
}

#[test]
fn query_round_trip_matches_in_process_engine() {
    let (idx, pts) = sharded_index(60, 3);
    let reference = ShardedIndex::build(pts, 2, cfg()).expect("build");
    let srv = spawn(ServerConfig::default(), ServeIndex::Sharded(idx));
    let client = srv.client();

    for (qi, q) in points(20, 3, 0xabcd).iter().enumerate() {
        let k = 1 + qi % 5;
        let body = format!(
            "{{\"point\":[{}],\"k\":{k}}}",
            q.as_slice()
                .iter()
                .map(f64::to_string)
                .collect::<Vec<_>>()
                .join(",")
        );
        let resp = client.post("/query", &body).expect("post");
        assert_eq!(resp.status, 200, "{}", resp.text());
        let parsed = nncell_server::json::parse(&resp.text()).expect("json");
        let results = parsed
            .get("results")
            .and_then(|v| v.as_arr().map(<[_]>::to_vec))
            .expect("results array");
        let want = reference
            .query(&Query::knn(q.as_slice().to_vec(), k))
            .expect("reference query");
        let want: Vec<_> = want.iter().collect();
        assert_eq!(results.len(), want.len());
        for (got, want) in results.iter().zip(want) {
            assert_eq!(
                got.get("id").and_then(|v| v.as_usize()),
                Some(want.id),
                "id mismatch"
            );
            let dist = got.get("dist").and_then(|v| v.as_f64()).expect("dist");
            // Bit-identical: same engine, same arithmetic, JSON round-trips
            // f64 exactly through shortest-round-trip formatting.
            assert_eq!(
                dist.to_bits(),
                want.dist.to_bits(),
                "dist not bit-identical"
            );
        }
    }
    srv.stop();
}

#[test]
fn writes_are_visible_and_read_only_mode_refuses() {
    // A durable index takes writes.
    let dir = std::env::temp_dir().join(format!("nncell_srv_writes_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let (idx, _) = sharded_index(30, 2);
    let idx = idx.into_durable(&dir).expect("durable");
    let srv = spawn(ServerConfig::default(), ServeIndex::Sharded(idx));
    let client = srv.client();

    let r = client
        .post("/insert", "{\"point\":[0.001,0.002]}")
        .expect("insert");
    assert_eq!(r.status, 200, "{}", r.text());
    let id = nncell_server::json::parse(&r.text())
        .expect("json")
        .get("id")
        .and_then(|v| v.as_usize())
        .expect("id");

    let r = client
        .post("/query", "{\"point\":[0.001,0.002]}")
        .expect("query");
    assert!(r.text().contains(&format!("\"id\":{id}")), "{}", r.text());

    let r = client
        .post("/remove", &format!("{{\"id\":{id}}}"))
        .expect("remove");
    assert!(r.text().contains("\"removed\":true"), "{}", r.text());
    let r = client
        .post("/remove", &format!("{{\"id\":{id}}}"))
        .expect("re-remove");
    assert!(r.text().contains("\"removed\":false"), "{}", r.text());
    srv.stop();

    std::fs::remove_dir_all(&dir).ok();

    // An in-memory index is served read-only: its writes would not
    // survive a restart.
    let (idx, _) = sharded_index(20, 2);
    let srv = spawn(ServerConfig::default(), ServeIndex::Sharded(idx));
    let client = srv.client();
    let r = client
        .post("/insert", "{\"point\":[0.5,0.5]}")
        .expect("insert");
    assert_eq!(r.status, 403, "{}", r.text());
    assert!(r.text().contains("read_only"));
    let r = client.post("/remove", "{\"id\":0}").expect("remove");
    assert_eq!(r.status, 403, "{}", r.text());
    let r = client
        .post("/query", "{\"point\":[0.5,0.5]}")
        .expect("query");
    assert_eq!(r.status, 200);
    srv.stop();
}

#[test]
fn batch_mixes_successes_and_errors() {
    let (idx, _) = sharded_index(40, 2);
    let srv = spawn(ServerConfig::default(), ServeIndex::Sharded(idx));
    let client = srv.client();
    let r = client
        .post(
            "/batch",
            "{\"queries\":[{\"point\":[0.5,0.5],\"k\":2},{\"point\":[0.1],\"k\":1},{\"point\":[0.9,0.9],\"k\":0}]}",
        )
        .expect("batch");
    assert_eq!(r.status, 200, "{}", r.text());
    let parsed = nncell_server::json::parse(&r.text()).expect("json");
    let results = parsed
        .get("results")
        .and_then(|v| v.as_arr().map(<[_]>::to_vec))
        .expect("arr");
    assert_eq!(results.len(), 3);
    assert!(results[0].get("results").is_some(), "first should succeed");
    assert!(
        results[1].get("error").is_some(),
        "dim mismatch should error"
    );
    assert!(results[2].get("error").is_some(), "k=0 should error");
    srv.stop();
}

#[test]
fn protocol_errors_are_typed() {
    let (idx, _) = sharded_index(20, 2);
    let srv = spawn(ServerConfig::default(), ServeIndex::Sharded(idx));
    let client = srv.client();

    let r = client.get("/nope").expect("404");
    assert_eq!(r.status, 404);
    let r = client.request("DELETE", "/query", b"").expect("405");
    assert_eq!(r.status, 405);
    let r = client.post("/query", "{not json").expect("bad json");
    assert_eq!(r.status, 400);
    assert!(r.text().contains("body_not_json"), "{}", r.text());
    let r = client
        .post("/query", "{\"point\":[0.1,0.2,0.3]}")
        .expect("dim");
    assert_eq!(r.status, 400);
    let r = client
        .post("/query", "{\"point\":[0.1,0.2],\"k\":0}")
        .expect("zero k");
    assert_eq!(r.status, 400);
    let r = client.post("/query", "{\"k\":1}").expect("missing point");
    assert_eq!(r.status, 400);
    // Chaos endpoints are 404 unless enabled.
    let r = client.post("/admin/panic", "").expect("chaos off");
    assert_eq!(r.status, 404);
    srv.stop();
}

#[test]
fn health_ready_and_metrics_exposition() {
    let (idx, _) = sharded_index(20, 2);
    let srv = spawn(ServerConfig::default(), ServeIndex::Sharded(idx));
    let client = srv.client();

    assert_eq!(client.get("/healthz").expect("healthz").status, 200);
    assert_eq!(client.get("/readyz").expect("readyz").status, 200);

    client
        .post("/query", "{\"point\":[0.5,0.5]}")
        .expect("query");
    let r = client.get("/metrics").expect("metrics");
    assert_eq!(r.status, 200);
    assert_eq!(r.header("content-type"), Some("text/plain; version=0.0.4"));
    let text = r.text();
    assert!(text.contains("# HELP nncell_http_requests_total"), "{text}");
    assert!(
        text.contains("# TYPE nncell_http_requests_total counter"),
        "{text}"
    );
    assert!(
        text.contains("nncell_http_requests_total{route=\"/query\",code=\"200\"}"),
        "{text}"
    );
    assert!(
        text.contains("# TYPE nncell_http_request_latency_ns histogram"),
        "{text}"
    );
    assert!(text.contains("nncell_http_queue_depth"), "{text}");
    assert!(text.contains("nncell_http_retry_after_seconds 1"), "{text}");
    srv.stop();
}

#[test]
fn overload_sheds_with_retry_after_and_retry_client_recovers() {
    let (idx, _) = sharded_index(20, 2);
    let srv = spawn(
        ServerConfig {
            threads: 1,
            queue_depth: 1,
            chaos: true,
            ..ServerConfig::default()
        },
        ServeIndex::Sharded(idx),
    );
    let addr = srv.addr.clone();

    // Pin the single worker, then fill the queue slot.
    let pin = std::thread::spawn({
        let addr = addr.clone();
        move || {
            let mut c = Client::new(addr);
            c.max_attempts = 1;
            c.post("/admin/sleep", "{\"ms\":600}")
                .expect("sleep")
                .status
        }
    });
    std::thread::sleep(Duration::from_millis(150));
    let fill = std::thread::spawn({
        let addr = addr.clone();
        move || {
            let mut c = Client::new(addr);
            c.max_attempts = 1;
            c.post("/admin/sleep", "{\"ms\":10}").expect("fill").status
        }
    });
    std::thread::sleep(Duration::from_millis(100));

    // Worker busy + queue full: this must shed, immediately.
    let client = srv.client();
    let r = client
        .post("/query", "{\"point\":[0.5,0.5]}")
        .expect("shed");
    assert_eq!(r.status, 429, "{}", r.text());
    assert_eq!(r.header("retry-after"), Some("1"));
    assert!(r.text().contains("overloaded"));
    assert!(srv.handle.sheds() >= 1);

    // A retrying client waits out the backlog and succeeds.
    let mut retry = Client::new(addr);
    retry.max_attempts = 8;
    retry.base_backoff = Duration::from_millis(100);
    let r = retry
        .request_with_retry("POST", "/query", b"{\"point\":[0.5,0.5]}")
        .expect("retry should eventually land");
    assert_eq!(r.status, 200, "{}", r.text());

    assert_eq!(pin.join().expect("pin"), 200);
    assert_eq!(fill.join().expect("fill"), 200);
    srv.stop();
}

#[test]
fn stale_queued_requests_answer_deadline_exceeded() {
    let (idx, _) = sharded_index(20, 2);
    let srv = spawn(
        ServerConfig {
            threads: 1,
            queue_depth: 8,
            chaos: true,
            deadline: Duration::from_millis(50),
            ..ServerConfig::default()
        },
        ServeIndex::Sharded(idx),
    );
    let addr = srv.addr.clone();

    // Worker busy for 400ms; the query admitted behind it outlives its
    // 50ms budget in the queue and must answer 503, not a stale 200.
    let pin = std::thread::spawn({
        let addr = addr.clone();
        move || {
            let mut c = Client::new(addr);
            c.max_attempts = 1;
            c.post("/admin/sleep", "{\"ms\":400}")
                .expect("sleep")
                .status
        }
    });
    std::thread::sleep(Duration::from_millis(100));
    let client = srv.client();
    let r = client
        .post("/query", "{\"point\":[0.5,0.5]}")
        .expect("query");
    assert_eq!(r.status, 503, "{}", r.text());
    assert!(r.text().contains("deadline_exceeded"), "{}", r.text());
    assert_eq!(pin.join().expect("pin"), 200);

    let m = client.get("/metrics").expect("metrics").text();
    assert!(
        m.contains("nncell_http_deadline_exceeded_total 1")
            || m.contains("nncell_http_deadline_exceeded_total 2"),
        "{m}"
    );
    srv.stop();
}

#[test]
fn panic_is_isolated_to_the_request() {
    let (idx, _) = sharded_index(20, 2);
    let srv = spawn(
        ServerConfig {
            threads: 2,
            chaos: true,
            ..ServerConfig::default()
        },
        ServeIndex::Sharded(idx),
    );
    let client = srv.client();

    for _ in 0..3 {
        let r = client.post("/admin/panic", "").expect("panic route");
        assert_eq!(r.status, 500, "{}", r.text());
        assert!(r.text().contains("panic"), "{}", r.text());
    }
    // The pool survived: queries still work on every worker.
    for _ in 0..4 {
        let r = client
            .post("/query", "{\"point\":[0.5,0.5]}")
            .expect("query");
        assert_eq!(r.status, 200, "{}", r.text());
    }
    let m = client.get("/metrics").expect("metrics").text();
    assert!(m.contains("nncell_http_panics_total 3"), "{m}");
    srv.stop();
}

#[test]
fn graceful_drain_finishes_inflight_and_checkpoints() {
    let dir = std::env::temp_dir().join(format!("nncell_srv_drain_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let idx = ShardedIndex::build(points(30, 2, 11), 2, cfg())
        .expect("build")
        .into_durable(&dir)
        .expect("durable");
    let srv = spawn(
        ServerConfig {
            threads: 2,
            chaos: true,
            ..ServerConfig::default()
        },
        ServeIndex::Sharded(idx),
    );
    let addr = srv.addr.clone();
    let client = srv.client();

    // Journal a write, then park one worker in a long request.
    let r = client
        .post("/insert", "{\"point\":[0.123,0.456]}")
        .expect("insert");
    assert_eq!(r.status, 200, "{}", r.text());
    let slow = std::thread::spawn({
        let addr = addr.clone();
        move || {
            let mut c = Client::new(addr);
            c.max_attempts = 1;
            c.post("/admin/sleep", "{\"ms\":400}")
                .expect("sleep")
                .status
        }
    });
    std::thread::sleep(Duration::from_millis(100));

    // Shutdown while the sleep is in flight: it must still answer 200.
    let r = client.post("/admin/shutdown", "").expect("shutdown");
    assert_eq!(r.status, 200, "{}", r.text());
    assert_eq!(
        slow.join().expect("slow"),
        200,
        "in-flight request was dropped"
    );
    srv.join
        .join()
        .expect("server thread")
        .expect("clean shutdown");

    // The final checkpoint left zero replay debt: reopening replays no
    // WAL records and the acked insert is present.
    let reopened = ShardedIndex::open_durable(&dir, 2, 2, cfg()).expect("reopen");
    assert_eq!(reopened.wal_records(), 0, "drain must end in a checkpoint");
    assert_eq!(reopened.len(), 31);
    let got = reopened
        .query(&Query::nn(vec![0.123, 0.456]))
        .expect("query");
    assert!(
        got.best.dist < 1e-12,
        "inserted point must survive shutdown"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn slow_request_ring_captures_over_threshold_requests() {
    let (idx, _) = sharded_index(20, 2);
    let srv = spawn(
        ServerConfig {
            slow_ms: 0, // record everything
            ..ServerConfig::default()
        },
        ServeIndex::Sharded(idx),
    );
    let client = srv.client();
    client
        .post("/query", "{\"point\":[0.25,0.75],\"k\":2}")
        .expect("query");
    // The ring captured the request with its query point attached.
    let mut tries = 0;
    let entries = loop {
        let e = srv.handle.slow_requests();
        if !e.is_empty() || tries > 50 {
            break e;
        }
        tries += 1;
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(!entries.is_empty());
    assert!(entries
        .iter()
        .any(|e| e.point == vec![0.25, 0.75] && e.k == 2));
    srv.stop();
}

// ---------------------------------------------------------------------
// Keep-alive and shedding over raw sockets: these pin down connection
// handling that `Client` (one `Connection: close` request per socket)
// never exercises.

/// A raw client socket plus the bytes it has read past the last
/// response.
struct Raw {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// One response as read off a [`Raw`] socket.
struct RawResponse {
    status: u16,
    head: String,
    body: String,
}

impl RawResponse {
    /// Whether the response tells the client the server closes.
    fn closes(&self) -> bool {
        self.head
            .to_ascii_lowercase()
            .contains("\r\nconnection: close\r\n")
    }
}

impl Raw {
    fn connect(addr: &str) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        Raw {
            stream,
            buf: Vec::new(),
        }
    }

    fn send(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("send");
    }

    fn fill(&mut self) -> usize {
        let mut chunk = [0u8; 4096];
        let n = self.stream.read(&mut chunk).expect("read");
        self.buf.extend_from_slice(&chunk[..n]);
        n
    }

    /// Reads one `Content-Length`-framed response.
    fn response(&mut self) -> RawResponse {
        let head_end = loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i;
            }
            assert!(self.fill() > 0, "connection closed before a response");
        };
        let head = String::from_utf8(self.buf[..head_end + 2].to_vec()).expect("utf-8 head");
        let len: usize = head
            .lines()
            .find_map(|l| {
                let (n, v) = l.split_once(':')?;
                n.eq_ignore_ascii_case("content-length")
                    .then(|| v.trim().parse().expect("content-length"))
            })
            .expect("Content-Length header");
        let end = head_end + 4 + len;
        while self.buf.len() < end {
            assert!(self.fill() > 0, "connection closed mid-body");
        }
        let body = String::from_utf8(self.buf[head_end + 4..end].to_vec()).expect("utf-8 body");
        self.buf.drain(..end);
        let status = head[9..12].parse().expect("status code");
        RawResponse { status, head, body }
    }

    /// Whether the server closed the connection cleanly: the next read
    /// is end of stream, not data and not a reset.
    fn sees_clean_eof(&mut self) -> bool {
        self.buf.is_empty() && matches!(self.stream.read(&mut [0u8; 64]), Ok(0))
    }
}

/// A `POST /query` request for `point` (k = 3) with extra header lines.
fn query_request(point: &str, version: &str, extra_headers: &str) -> String {
    let body = format!("{{\"point\":[{point}],\"k\":3}}");
    format!(
        "POST /query {version}\r\nHost: t\r\nContent-Length: {}\r\n{extra_headers}\r\n{body}",
        body.len()
    )
}

/// The body `Client`, one request per connection, gets for `point`.
fn closed_connection_answer(srv: &Running, point: &str) -> String {
    let r = srv
        .client()
        .post("/query", &format!("{{\"point\":[{point}],\"k\":3}}"))
        .expect("query");
    assert_eq!(r.status, 200, "{}", r.text());
    r.text()
}

/// Polls until the server thread has returned, for at most `limit`.
fn joins_within(srv: Running, limit: Duration) -> bool {
    let t0 = std::time::Instant::now();
    while !srv.join.is_finished() {
        if t0.elapsed() > limit {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    srv.join
        .join()
        .expect("server thread")
        .expect("clean shutdown");
    true
}

#[test]
fn keep_alive_serves_two_requests_on_one_socket() {
    let (idx, _) = sharded_index(60, 2);
    let srv = spawn(ServerConfig::default(), ServeIndex::Sharded(idx));
    let want = [
        closed_connection_answer(&srv, "0.25,0.5"),
        closed_connection_answer(&srv, "0.75,0.125"),
    ];
    let served = srv.handle.served();

    let mut raw = Raw::connect(&srv.addr);
    for (point, want) in ["0.25,0.5", "0.75,0.125"].iter().zip(&want) {
        raw.send(query_request(point, "HTTP/1.1", "").as_bytes());
        let r = raw.response();
        assert_eq!(r.status, 200, "{}", r.body);
        assert!(!r.closes(), "{}", r.head);
        assert_eq!(&r.body, want);
    }
    // Requests are counted, not connections; the idle kept-alive
    // connection is not an executing request. The worker counts a
    // request once it has finished it, just after writing the response,
    // so wait for the count.
    let t0 = std::time::Instant::now();
    while srv.handle.served() < served + 2 && t0.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(srv.handle.served(), served + 2);
    let m = srv.client().get("/metrics").expect("metrics").text();
    assert!(
        m.contains("nncell_http_requests_total{route=\"/query\",code=\"200\"} 4"),
        "{m}"
    );
    assert!(m.contains("nncell_http_inflight 1\n"), "{m}");
    drop(raw);
    srv.stop();
}

#[test]
fn pipelined_requests_in_one_write_get_both_answers() {
    let (idx, _) = sharded_index(60, 2);
    let srv = spawn(ServerConfig::default(), ServeIndex::Sharded(idx));
    let want = [
        closed_connection_answer(&srv, "0.1,0.9"),
        closed_connection_answer(&srv, "0.6,0.3"),
    ];
    let mut raw = Raw::connect(&srv.addr);
    let both = query_request("0.1,0.9", "HTTP/1.1", "") + &query_request("0.6,0.3", "HTTP/1.1", "");
    raw.send(both.as_bytes());
    for want in &want {
        let r = raw.response();
        assert_eq!(r.status, 200, "{}", r.body);
        assert_eq!(&r.body, want);
    }
    drop(raw);
    srv.stop();
}

#[test]
fn connection_close_and_http10_close_after_one_response() {
    let (idx, _) = sharded_index(20, 2);
    let srv = spawn(ServerConfig::default(), ServeIndex::Sharded(idx));
    for (version, header) in [("HTTP/1.1", "Connection: close\r\n"), ("HTTP/1.0", "")] {
        let mut raw = Raw::connect(&srv.addr);
        raw.send(query_request("0.5,0.5", version, header).as_bytes());
        let r = raw.response();
        assert_eq!(r.status, 200, "{version}: {}", r.body);
        assert!(r.closes(), "{version}: {}", r.head);
        assert!(raw.sees_clean_eof(), "{version}: connection left open");
    }
    srv.stop();
}

#[test]
fn error_response_closes_the_connection() {
    let (idx, _) = sharded_index(20, 2);
    let srv = spawn(ServerConfig::default(), ServeIndex::Sharded(idx));
    let mut raw = Raw::connect(&srv.addr);
    raw.send(b"POST /query HTTP/1.1\r\nContent-Length: 9\r\n\r\n{not json");
    let r = raw.response();
    assert_eq!(r.status, 400, "{}", r.body);
    assert!(r.closes(), "{}", r.head);
    assert!(raw.sees_clean_eof(), "connection left open after a 4xx");
    srv.stop();
}

#[test]
fn idle_kept_alive_connection_yields_to_a_queued_one() {
    let (idx, _) = sharded_index(20, 2);
    let srv = spawn(
        ServerConfig {
            threads: 1,
            ..ServerConfig::default()
        },
        ServeIndex::Sharded(idx),
    );
    let mut idle = Raw::connect(&srv.addr);
    idle.send(query_request("0.5,0.5", "HTTP/1.1", "").as_bytes());
    let r = idle.response();
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(!r.closes(), "{}", r.head);

    // The only worker holds the idle connection; a second connection
    // must still be served promptly.
    let t0 = std::time::Instant::now();
    let r = srv.client().get("/healthz").expect("healthz");
    let waited = t0.elapsed();
    assert_eq!(r.status, 200);
    assert!(waited < Duration::from_millis(100), "queued for {waited:?}");
    assert!(idle.sees_clean_eof(), "the idle connection was not closed");
    srv.stop();
}

#[test]
fn shutdown_with_an_idle_kept_alive_connection_returns_promptly() {
    let (idx, _) = sharded_index(20, 2);
    let srv = spawn(ServerConfig::default(), ServeIndex::Sharded(idx));
    let mut idle = Raw::connect(&srv.addr);
    idle.send(query_request("0.5,0.5", "HTTP/1.1", "").as_bytes());
    let r = idle.response();
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(!r.closes(), "{}", r.head);

    srv.handle.shutdown();
    assert!(
        joins_within(srv, Duration::from_secs(1)),
        "shutdown waited on an idle connection"
    );
    assert!(
        idle.sees_clean_eof(),
        "the idle connection was not closed cleanly"
    );
}

#[test]
fn shed_connection_reads_a_body_sent_after_the_head() {
    let (idx, _) = sharded_index(20, 2);
    // Queue depth 0: every connection is shed by the accept thread.
    let config = ServerConfig {
        addr: String::from("127.0.0.1:0"),
        queue_depth: 0,
        ..ServerConfig::default()
    };
    let server = Server::bind(config, ServeIndex::Sharded(idx), Registry::new()).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());

    // A client that writes head and body separately. The head is longer
    // than one 4 KiB read, so a server that answers after a single
    // read() closes with unread bytes, and the kernel resets the
    // connection instead of closing it.
    let body = "{\"point\":[0.5,0.5]}";
    let head = format!(
        "POST /query HTTP/1.1\r\nX-Pad: {}\r\nContent-Length: {}\r\n\r\n",
        "p".repeat(5000),
        body.len()
    );
    let mut raw = Raw::connect(&addr);
    raw.send(head.as_bytes());
    std::thread::sleep(Duration::from_millis(10));
    raw.send(body.as_bytes());
    let r = raw.response();
    assert_eq!(r.status, 429, "{}", r.body);
    assert!(r.head.contains("Retry-After: 1\r\n"), "{}", r.head);
    assert!(r.body.contains("overloaded"), "{}", r.body);
    assert!(raw.sees_clean_eof(), "shed connection was reset");
    assert_eq!(handle.sheds(), 1);

    handle.shutdown();
    join.join().expect("server thread").expect("clean shutdown");
}
