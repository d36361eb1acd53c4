//! The fault-tolerant serving layer: a fixed worker pool behind a
//! bounded admission queue, per-request deadlines, panic isolation, and
//! a graceful drain that ends in a final WAL checkpoint.
//!
//! # Request lifecycle
//!
//! ```text
//! accept ──► admission queue (bounded) ──► worker ──► response ──► close
//!    │              │ full                 ▲    │ panic    │ 2xx, keep-alive
//!    │              ▼                      │    ▼          ▼
//!    │         429 Retry-After             │  500       idle ──► close (a connection
//!    ▼                                     │             │       queued, drain,
//! shutdown flag set: stop accepting,       └─────────────┘       idle timeout)
//! drain queue + in-flight,              next request's first byte
//! final checkpoint, exit
//! ```
//!
//! A worker keeps a connection after a 2xx response to an HTTP/1.1
//! client that did not ask to close it, and serves its next request
//! when the first byte arrives. While the connection is idle the worker
//! looks every few milliseconds at the admission queue: another
//! connection waiting there makes it close the idle one and take the
//! queued one, so a kept connection never holds a worker that queued
//! work needs, and shedding still happens only at accept time. Draining
//! and `io_timeout` of idleness close it too.
//!
//! The deadline clock of a connection's first request starts at
//! **admission**, not at dequeue: time a request spends queued counts
//! against its budget, so a backed-up server sheds stale work with
//! `503` instead of computing answers nobody is waiting for anymore. A
//! follow-on request on a kept connection never queues; its clock
//! starts at its first byte.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use nncell_core::{
    DurableError, PersistError, Query, QueryError, QueryResponse, Registry, ShardedIndex,
    SlowQueryLog, SLOW_QUERY_CAPACITY,
};
use nncell_geom::Point;

use crate::http::{self, Request};
use crate::json::{self, Json};

/// Tunables for [`Server`]. `Default` is sized for tests and small
/// deployments; the CLI maps `--threads/--queue-depth/--deadline-ms`
/// onto the corresponding fields.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`"127.0.0.1:0"` picks a free port; read it back
    /// via [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads executing requests.
    pub threads: usize,
    /// Admission-queue capacity. Connections beyond
    /// `threads`-in-flight + this many queued are shed with `429`.
    pub queue_depth: usize,
    /// Per-request budget, measured from admission. Spent budget means
    /// `503 deadline_exceeded` — checked before parsing, before query
    /// execution, and between candidate batches inside the engine.
    pub deadline: Duration,
    /// Seconds advertised in the `Retry-After` header on `429`.
    pub retry_after_secs: u64,
    /// Socket read/write timeout (slow-loris guard; the effective read
    /// limit is the smaller of this and the remaining deadline), and how
    /// long a kept-alive connection may sit idle before it is closed.
    pub io_timeout: Duration,
    /// Latency threshold for the slow-request ring, in milliseconds.
    pub slow_ms: u64,
    /// Enables the `/admin/panic` and `/admin/sleep` chaos endpoints
    /// used by robustness tests. Off by default.
    pub chaos: bool,
    /// Head-sampling rate for request tracing: every `trace_sample`-th
    /// request records a full span tree into the flight recorder
    /// (`GET /debug/trace`). 0 disables sampling — the hot path then
    /// pays one relaxed atomic load — but an incoming `traceparent`
    /// header with the sampled flag still forces its request to record.
    pub trace_sample: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: String::from("127.0.0.1:0"),
            threads: 4,
            queue_depth: 64,
            deadline: Duration::from_secs(2),
            retry_after_secs: 1,
            io_timeout: Duration::from_secs(10),
            slow_ms: 100,
            chaos: false,
            trace_sample: 0,
        }
    }
}

/// The index handed to [`Server::bind`]: every layout opens as a
/// [`ShardedIndex`] (see [`ShardedIndex::open`]). Reads never block each
/// other or a write; writes serialize on the index's single writer and
/// land in its journaled memtable, which a supervised folder thread folds
/// into the shards. A durable index takes writes; an in-memory one is
/// served read-only (`/insert` and `/remove` answer `403 read_only`),
/// since its writes would not survive a restart.
pub enum ServeIndex {
    /// Lock-free snapshot reads, single-writer memtable updates.
    Sharded(ShardedIndex),
}

enum WriteError {
    ReadOnly,
    Durable(DurableError),
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// Registers `# HELP` text for every HTTP metric family. Called by
/// [`Server::bind`]; exposed so the golden `/metrics` test renders the
/// exact same exposition without running a server.
pub fn describe_http_metrics(registry: &Registry) {
    registry.describe(
        "nncell_http_requests_total",
        "HTTP requests completed, by route and status code.",
    );
    registry.describe(
        "nncell_http_shed_total",
        "Connections shed with 429 because the admission queue was full.",
    );
    registry.describe(
        "nncell_http_queue_depth",
        "Connections currently waiting in the admission queue.",
    );
    registry.describe(
        "nncell_http_inflight",
        "Requests currently executing on worker threads.",
    );
    registry.describe(
        "nncell_http_panics_total",
        "Request handlers that panicked and were isolated (pool survived).",
    );
    registry.describe(
        "nncell_http_deadline_exceeded_total",
        "Requests that ran out of budget and answered 503 deadline_exceeded.",
    );
    registry.describe(
        "nncell_http_request_latency_ns",
        "End-to-end request latency (admission, or first byte on a kept-alive connection, to response written).",
    );
    registry.describe(
        "nncell_http_retry_after_seconds",
        "Configured Retry-After value advertised on 429 responses.",
    );
    // The tracing counter family lives in nncell-obs; described here so
    // /metrics carries its HELP text whether or not a span has flushed.
    nncell_obs::TraceMetrics::describe(registry);
}

/// Pre-created metric handles (hot-path metrics avoid the registry
/// lock; the per-route/per-code counters go through it, which is fine
/// at HTTP rates).
struct HttpMetrics {
    registry: Arc<Registry>,
    shed: Arc<nncell_obs::Counter>,
    queue_depth: Arc<nncell_obs::Gauge>,
    inflight: Arc<nncell_obs::Gauge>,
    panics: Arc<nncell_obs::Counter>,
    deadline: Arc<nncell_obs::Counter>,
    latency: Arc<nncell_obs::Histogram>,
}

impl HttpMetrics {
    fn new(registry: Arc<Registry>, retry_after_secs: u64) -> Self {
        describe_http_metrics(&registry);
        registry
            .gauge("nncell_http_retry_after_seconds")
            .set(i64::try_from(retry_after_secs).unwrap_or(i64::MAX));
        Self {
            shed: registry.counter("nncell_http_shed_total"),
            queue_depth: registry.gauge("nncell_http_queue_depth"),
            inflight: registry.gauge("nncell_http_inflight"),
            panics: registry.counter("nncell_http_panics_total"),
            deadline: registry.counter("nncell_http_deadline_exceeded_total"),
            latency: registry.histogram("nncell_http_request_latency_ns"),
            registry,
        }
    }

    fn count_request(&self, route: &str, status: u16) {
        let labels = nncell_obs::format_labels(&[("route", route), ("code", &status.to_string())]);
        self.registry
            .counter(&format!("nncell_http_requests_total{labels}"))
            .inc();
    }
}

/// One admitted connection waiting for a worker.
struct Admitted {
    stream: TcpStream,
    /// When the connection was admitted — the deadline epoch of its
    /// first request.
    at: Instant,
}

struct Shared {
    cfg: ServerConfig,
    index: ShardedIndex,
    metrics: HttpMetrics,
    slowlog: SlowQueryLog,
    queue: Mutex<VecDeque<Admitted>>,
    queue_cv: Condvar,
    /// Set once: stop accepting, drain, exit.
    draining: AtomicBool,
    /// `/readyz` gate — true once workers are up.
    ready: AtomicBool,
    /// Where the listener actually lives (for the shutdown self-wake).
    local_addr: SocketAddr,
    /// Requests fully processed (responses written), for drain asserts;
    /// a kept-alive connection counts once per request.
    served: AtomicU64,
}

/// A cloneable handle for poking a running [`Server`]: graceful
/// shutdown, queue stats, slow-request drain.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Begins graceful shutdown: stop accepting, drain the queue and
    /// in-flight requests, checkpoint, return from [`Server::run`].
    /// Idempotent.
    pub fn shutdown(&self) {
        if self.shared.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared.queue_cv.notify_all();
        // Wake the blocking accept() with a throwaway connection.
        let _ = TcpStream::connect(self.shared.local_addr);
    }

    /// Current admission-queue depth.
    pub fn queue_depth(&self) -> usize {
        lock(&self.shared.queue).len()
    }

    /// Total connections shed with `429` so far.
    pub fn sheds(&self) -> u64 {
        self.shared.metrics.shed.get()
    }

    /// Total requests fully served (response written), counting every
    /// request of a kept-alive connection.
    pub fn served(&self) -> u64 {
        self.shared.served.load(Ordering::SeqCst)
    }

    /// Drains the slow-request ring (entries over `slow_ms`).
    pub fn slow_requests(&self) -> Vec<nncell_obs::SlowQueryEntry> {
        self.shared.slowlog.drain()
    }
}

/// The server: bind, then [`run`](Server::run) until a shutdown signal
/// or [`ServerHandle::shutdown`] drains it.
pub struct Server {
    shared: Arc<Shared>,
    listener: TcpListener,
}

impl Server {
    /// Binds the listener and prepares shared state. The index starts
    /// serving only once [`Server::run`] is called.
    pub fn bind(
        cfg: ServerConfig,
        index: ServeIndex,
        registry: Arc<Registry>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        // Initialise the trace clock before the first request is
        // admitted (admission Instants must map onto it), wire the
        // sampling knob, and point the tracer's counters at this
        // registry.
        nncell_obs::trace::init();
        nncell_obs::trace::set_sampling(cfg.trace_sample);
        nncell_obs::trace::attach_metrics(&registry);
        let metrics = HttpMetrics::new(registry, cfg.retry_after_secs);
        let ServeIndex::Sharded(index) = index;
        let slowlog = SlowQueryLog::new(SLOW_QUERY_CAPACITY, index.dim());
        slowlog.set_threshold_ns(cfg.slow_ms.saturating_mul(1_000_000));
        let shared = Arc::new(Shared {
            cfg,
            index,
            metrics,
            slowlog,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            draining: AtomicBool::new(false),
            ready: AtomicBool::new(false),
            local_addr,
            served: AtomicU64::new(0),
        });
        Ok(Self { shared, listener })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// The index being served (read-only; banners and introspection).
    pub fn index(&self) -> &ShardedIndex {
        &self.shared.index
    }

    /// A handle usable from other threads while `run` blocks.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serves until graceful shutdown completes: accept → admit →
    /// workers; on shutdown, drains every admitted request, joins the
    /// pool, and writes the final checkpoint. Returns the checkpoint
    /// result — queries have no durability debt, so this is the only
    /// fallible step of a clean exit.
    pub fn run(self) -> Result<(), PersistError> {
        let shared = self.shared;
        let mut workers = Vec::with_capacity(shared.cfg.threads.max(1));
        for i in 0..shared.cfg.threads.max(1) {
            let s = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("nncell-http-{i}"))
                    .spawn(move || worker_loop(&s))
                    .map_err(PersistError::Io)?,
            );
        }
        // Watch for the process-level signal flag (SIGTERM/SIGINT set it
        // from the async-signal-safe handler; this thread turns it into
        // a graceful drain).
        {
            let s = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(String::from("nncell-http-signals"))
                .spawn(move || loop {
                    if s.draining.load(Ordering::SeqCst) {
                        return;
                    }
                    if SIGNAL_FLAG.load(Ordering::SeqCst) {
                        ServerHandle { shared: s }.shutdown();
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(25));
                })
                .map_err(PersistError::Io)?;
        }
        // Supervised folder: folds the memtable tail into the shards off
        // the write path until the drain flag (doubling as its stop
        // signal) is set. Panics inside a fold are caught by fold_once
        // itself; the loop only paces retries.
        let folder = {
            let s = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(String::from("nncell-folder"))
                .spawn(move || s.index.run_folder(&s.draining))
                .map_err(PersistError::Io)?
        };
        shared.ready.store(true, Ordering::SeqCst);

        loop {
            let (stream, _) = match self.listener.accept() {
                Ok(x) => x,
                Err(_) if shared.draining.load(Ordering::SeqCst) => break,
                Err(_) => continue,
            };
            if shared.draining.load(Ordering::SeqCst) {
                // Includes the self-wake connection from shutdown();
                // real stragglers get a best-effort 503.
                shed_connection(&shared, stream, 503, "shutting_down");
                break;
            }
            admit(&shared, stream);
        }

        // Drain: workers finish the queue (the condvar loop exits once
        // the queue is empty and draining is set), then exit.
        shared.ready.store(false, Ordering::SeqCst);
        shared.queue_cv.notify_all();
        for w in workers {
            let _ = w.join();
        }
        let _ = folder.join();
        // The clean-shutdown checkpoint: fold the tail (best-effort — the
        // tail-aware checkpoint re-journals whatever a broken folder left
        // behind), then rotate every WAL so the next open replays
        // nothing. A no-op for in-memory indexes.
        let _ = shared.index.flush();
        shared.index.checkpoint()
    }
}

/// How long the accept thread spends, in total, reading a shed
/// connection's request before it answers.
const SHED_DRAIN: Duration = Duration::from_millis(50);

/// Write timeout for the answer to a shed connection.
const SHED_WRITE_TIMEOUT: Duration = Duration::from_millis(250);

/// How often the worker of an idle kept-alive connection looks at the
/// admission queue and the drain flag.
const IDLE_POLL: Duration = Duration::from_millis(5);

/// Admission control: under the cap the connection is queued; over it,
/// the accept thread itself writes `429 Retry-After` (with a short
/// write timeout so a dead client cannot stall accepts) and closes.
fn admit(shared: &Arc<Shared>, stream: TcpStream) {
    let mut q = lock(&shared.queue);
    if q.len() >= shared.cfg.queue_depth {
        drop(q);
        shared.metrics.shed.inc();
        shared.metrics.count_request("(shed)", 429);
        shed_connection(shared, stream, 429, "overloaded");
        return;
    }
    q.push_back(Admitted {
        stream,
        at: Instant::now(),
    });
    let depth = q.len();
    drop(q);
    set_gauge(&shared.metrics.queue_depth, depth);
    shared.queue_cv.notify_one();
}

fn shed_connection(shared: &Arc<Shared>, stream: TcpStream, status: u16, code: &str) {
    let Ok(mut conn) = http::Connection::new(stream, SHED_WRITE_TIMEOUT) else {
        return;
    };
    // Read the whole request, head and `Content-Length` body, before
    // answering: closing a socket with unread data makes the kernel send
    // RST, which can discard the 429/503 before the client reads it. A
    // client that writes head and body separately has its body arrive
    // after the head, so one read() is not enough. One total limit bounds
    // the drain, so a slow client cannot stall accepts.
    let _ = conn.read_request(SHED_DRAIN);
    let mut headers = Vec::new();
    if status == 429 {
        headers.push(format!("Retry-After: {}", shared.cfg.retry_after_secs));
    }
    let body = format!("{{\"error\":\"{code}\"}}");
    let _ = conn.write_response(status, "application/json", &headers, body.as_bytes(), false);
}

fn set_gauge(g: &nncell_obs::Gauge, v: usize) {
    g.set(i64::try_from(v).unwrap_or(i64::MAX));
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let admitted = {
            let mut q = lock(&shared.queue);
            loop {
                if let Some(a) = q.pop_front() {
                    set_gauge(&shared.metrics.queue_depth, q.len());
                    break a;
                }
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                q = match shared.queue_cv.wait(q) {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
            }
        };
        serve_connection(shared, admitted);
    }
}

/// A fully-formed response ready to write.
struct Reply {
    status: u16,
    content_type: &'static str,
    headers: Vec<String>,
    body: Vec<u8>,
    /// Route label for metrics (static so panics can't corrupt it).
    route: &'static str,
    /// Query point for the slow-request ring, when the request had one.
    slow_point: Vec<f64>,
    slow_k: usize,
    /// Trace context of the request's root span, when it was sampled:
    /// echoed as a response `traceparent` header and stamped onto any
    /// slow-log entry this request trips.
    trace: Option<nncell_obs::SpanContext>,
}

fn json_reply(status: u16, route: &'static str, body: String) -> Reply {
    Reply {
        status,
        content_type: "application/json",
        headers: Vec::new(),
        body: body.into_bytes(),
        route,
        slow_point: Vec::new(),
        slow_k: 0,
        trace: None,
    }
}

fn error_reply(status: u16, route: &'static str, code: &str) -> Reply {
    json_reply(
        status,
        route,
        format!("{{\"error\":\"{}\"}}", json::escape(code)),
    )
}

/// Serves an admitted connection's requests in turn until one of them
/// closes it (see [`keep_open`] and [`await_request`]).
fn serve_connection(shared: &Arc<Shared>, admitted: Admitted) {
    let Admitted { stream, mut at } = admitted;
    let Ok(mut conn) = http::Connection::new(stream, shared.cfg.io_timeout) else {
        return;
    };
    loop {
        shared.metrics.inflight.add(1);
        let keep = serve_request(shared, &mut conn, at);
        shared.metrics.inflight.add(-1);
        shared.served.fetch_add(1, Ordering::SeqCst);
        if !keep {
            return;
        }
        match await_request(shared, &mut conn) {
            Some(first_byte) => at = first_byte,
            None => return,
        }
    }
}

/// Whether a connection stays open after answering `req` with `status`:
/// only after a 2xx to a client that allows it, while the server is not
/// draining and no other connection waits for a worker.
fn keep_open(shared: &Shared, req: &Request, status: u16) -> bool {
    req.keep_alive
        && (200..300).contains(&status)
        && !shared.draining.load(Ordering::SeqCst)
        && lock(&shared.queue).is_empty()
}

/// Waits on an idle kept-alive connection for the first byte of its next
/// request and returns that instant, which starts the request's deadline
/// clock. `None` closes the connection: the client closed it, the server
/// is draining, another connection waits in the admission queue, or it
/// has been idle for `io_timeout`.
fn await_request(shared: &Shared, conn: &mut http::Connection) -> Option<Instant> {
    let idle_since = Instant::now();
    loop {
        match conn.await_request(IDLE_POLL) {
            Ok(true) => return Some(Instant::now()),
            Ok(false) => {}
            Err(_) => return None,
        }
        if shared.draining.load(Ordering::SeqCst)
            || !lock(&shared.queue).is_empty()
            || idle_since.elapsed() >= shared.cfg.io_timeout
        {
            return None;
        }
    }
}

/// Reads, dispatches, and answers one request whose deadline clock
/// started at `at`; returns whether the connection stays open. The
/// handler runs under `catch_unwind`: a panicking request answers
/// `500 panic` and the worker thread survives to take the next one.
fn serve_request(shared: &Arc<Shared>, conn: &mut http::Connection, at: Instant) -> bool {
    let deadline = at + shared.cfg.deadline;
    let dequeued = Instant::now();
    // Always read the request, even with the budget already spent: an
    // unread request in the socket buffer turns close() into RST and the
    // client never sees the 503. The floor keeps an already-arrived
    // request readable; a genuinely slow sender still times out.
    let remaining = deadline.saturating_duration_since(dequeued);
    let read_to = shared
        .cfg
        .io_timeout
        .min(remaining.max(Duration::from_millis(25)));
    let req = match conn.read_request(read_to) {
        Ok(r) => r,
        Err(e) => {
            let reply = match e {
                http::RecvError::TooLarge(_) => error_reply(413, "(read)", "too_large"),
                http::RecvError::BadRequest(_) => error_reply(400, "(read)", "bad_request"),
                // Read timeout or peer reset; if the budget is gone this
                // is the deadline firing at the transport layer.
                http::RecvError::Io(_) if Instant::now() >= deadline => {
                    error_reply(503, "(read)", "deadline_exceeded")
                }
                http::RecvError::Io(_) => error_reply(400, "(read)", "read_failed"),
            };
            respond(shared, conn, at, &reply, false);
            return false;
        }
    };
    let read_done = Instant::now();
    // Root span for the whole request, backdated to its deadline epoch
    // so the retroactive queue-wait child nests inside it. An incoming
    // `traceparent` continues the upstream trace (and its sampled flag
    // forces recording even with local sampling off); otherwise the
    // head-sampling decision is one relaxed atomic load.
    let upstream = req
        .traceparent
        .as_deref()
        .and_then(nncell_obs::SpanContext::parse_traceparent);
    let at_ns = nncell_obs::trace::instant_ns(at);
    let mut root = nncell_obs::trace::root_from_at("server.request", upstream, Some(at_ns));
    // Admission-to-now over budget: shed stale work before computing.
    let mut reply = if read_done >= deadline {
        error_reply(503, "(expired)", "deadline_exceeded")
    } else {
        match catch_unwind(AssertUnwindSafe(|| route(shared, &req, deadline))) {
            Ok(r) => r,
            Err(_) => {
                shared.metrics.panics.inc();
                error_reply(500, "(panic)", "panic")
            }
        }
    };
    if let Some(ctx) = root.context() {
        nncell_obs::trace::span_at(
            "server.queue_wait",
            at_ns,
            nncell_obs::trace::instant_ns(dequeued),
        );
        nncell_obs::trace::span_at(
            "server.read",
            nncell_obs::trace::instant_ns(dequeued),
            nncell_obs::trace::instant_ns(read_done),
        );
        root.arg("status", u64::from(reply.status));
        // Propagate the trace identity back to the caller.
        reply
            .headers
            .push(format!("traceparent: {}", ctx.to_traceparent()));
        reply.trace = Some(ctx);
    }
    let keep = keep_open(shared, &req, reply.status);
    respond(shared, conn, at, &reply, keep) && keep
}

/// Writes `reply` and records it in the metrics and the slow-request
/// ring; returns whether the write succeeded.
fn respond(
    shared: &Shared,
    conn: &mut http::Connection,
    at: Instant,
    reply: &Reply,
    keep_alive: bool,
) -> bool {
    if reply.status == 503 {
        shared.metrics.deadline.inc();
    }
    let written = {
        let _span = nncell_obs::trace::child("server.write");
        conn.write_response(
            reply.status,
            reply.content_type,
            &reply.headers,
            &reply.body,
            keep_alive,
        )
        .is_ok()
    };
    let latency_ns = u64::try_from(at.elapsed().as_nanos()).unwrap_or(u64::MAX);
    shared.metrics.latency.record(latency_ns);
    shared.metrics.count_request(reply.route, reply.status);
    // Slow-request exemplar: a traced request that trips the ring
    // carries its trace id, linking the entry to its span timeline.
    shared.slowlog.record(
        latency_ns,
        &reply.slow_point,
        reply.slow_k,
        0,
        0,
        reply.trace.map_or(0, |c| c.trace),
    );
    written
}

fn route(shared: &Arc<Shared>, req: &Request, deadline: Instant) -> Reply {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => json_reply(200, "/healthz", String::from("{\"ok\":true}")),
        ("GET", "/readyz") => {
            if shared.ready.load(Ordering::SeqCst) && !shared.draining.load(Ordering::SeqCst) {
                // Degraded-but-serving is still ready (writes land in the
                // tail, queries stay exact); the body carries the folder
                // health so probes and operators can see it.
                let st = shared.index.fold_status();
                let body = if st.degraded {
                    format!(
                        "{{\"ready\":true,\"degraded\":true,\"tail_depth\":{},\"fold_failures\":{}}}",
                        st.tail_depth, st.failures
                    )
                } else {
                    String::from("{\"ready\":true}")
                };
                json_reply(200, "/readyz", body)
            } else {
                error_reply(503, "/readyz", "not_ready")
            }
        }
        ("GET", "/metrics") => {
            let text = shared.metrics.registry.snapshot().to_prometheus();
            Reply {
                status: 200,
                content_type: "text/plain; version=0.0.4",
                headers: Vec::new(),
                body: text.into_bytes(),
                route: "/metrics",
                slow_point: Vec::new(),
                slow_k: 0,
                trace: None,
            }
        }
        ("GET", p) if p == "/debug/trace" || p.starts_with("/debug/trace?") => {
            // `?last=N` bounds the export to the N most recent traces
            // (default 16). The body is Chrome trace-event JSON, directly
            // loadable in chrome://tracing or Perfetto.
            let last = p
                .split_once('?')
                .map(|(_, qs)| qs)
                .and_then(|qs| qs.split('&').find_map(|kv| kv.strip_prefix("last=")))
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(16);
            let spans = nncell_obs::trace::flight().last_traces(last);
            json_reply(200, "/debug/trace", nncell_obs::chrome_trace_json(&spans))
        }
        ("POST", "/query") => handle_query(shared, &req.body, deadline),
        ("POST", "/batch") => handle_batch(shared, &req.body, deadline),
        ("POST", "/insert") => handle_insert(shared, &req.body),
        ("POST", "/remove") => handle_remove(shared, &req.body),
        ("POST", "/admin/shutdown") => {
            // Trigger the drain from a worker thread: the response for
            // *this* request is still written (we are in-flight, and
            // in-flight requests drain).
            ServerHandle {
                shared: Arc::clone(shared),
            }
            .shutdown();
            json_reply(200, "/admin/shutdown", String::from("{\"draining\":true}"))
        }
        ("POST", "/admin/panic") if shared.cfg.chaos => {
            panic!("chaos endpoint: deliberate handler panic");
        }
        ("POST", "/admin/sleep") if shared.cfg.chaos => {
            let ms = json::parse(&String::from_utf8_lossy(&req.body))
                .ok()
                .and_then(|v| v.get("ms").and_then(Json::as_usize))
                .unwrap_or(0)
                .min(5_000);
            std::thread::sleep(Duration::from_millis(ms as u64));
            json_reply(200, "/admin/sleep", format!("{{\"slept_ms\":{ms}}}"))
        }
        ("GET" | "POST", _) => error_reply(404, "(unknown)", "not_found"),
        _ => error_reply(405, "(unknown)", "method_not_allowed"),
    }
}

/// Parses `{"point": [...], "k": n}` (k defaults to 1) into a query that
/// carries the request's `deadline`.
fn parse_query(v: &Json, deadline: Instant) -> Result<Query, &'static str> {
    let point = v
        .get("point")
        .and_then(Json::as_f64_vec)
        .ok_or("point must be an array of numbers")?;
    let k = match v.get("k") {
        None => 1,
        Some(k) => k.as_usize().ok_or("k must be a non-negative integer")?,
    };
    Ok(Query::knn(point, k).with_deadline(deadline))
}

// The Err is a ready-to-send error Reply, moved once straight to the
// response writer — never threaded through a deep call chain, so its
// size (past clippy's 128-byte bar since Reply carries a trace context)
// costs nothing.
#[allow(clippy::result_large_err)]
fn body_json(body: &[u8]) -> Result<Json, Reply> {
    let text =
        std::str::from_utf8(body).map_err(|_| error_reply(400, "(body)", "body_not_utf8"))?;
    json::parse(text).map_err(|_| error_reply(400, "(body)", "body_not_json"))
}

/// The `/query` response body: the ranked results, then the stats.
fn render_response(resp: &QueryResponse) -> String {
    let mut out = String::with_capacity(160 + 48 * resp.len());
    render_response_into(&mut out, resp);
    out
}

/// Appends [`render_response`]'s body to `out`, writing every number in
/// place (no intermediate `String` per result).
fn render_response_into(out: &mut String, resp: &QueryResponse) {
    out.push_str("{\"results\":[");
    for (i, r) in resp.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"id\":{},\"dist\":", r.id);
        json::push_num(out, r.dist);
        out.push('}');
    }
    let _ = write!(
        out,
        "],\"stats\":{{\"candidates\":{},\"pages\":{},\
         \"nodes_pruned\":{},\"examined\":{},\"aborted_early\":{}}}}}",
        resp.stats.candidates,
        resp.stats.pages,
        resp.stats.nodes_pruned,
        resp.stats.candidates_examined,
        resp.stats.candidates_aborted_early
    );
}

fn query_error_reply(route: &'static str, e: QueryError) -> Reply {
    match e {
        QueryError::DeadlineExceeded => error_reply(503, route, "deadline_exceeded"),
        QueryError::EmptyIndex => error_reply(404, route, "empty_index"),
        other => error_reply(400, route, &other.to_string()),
    }
}

fn handle_query(shared: &Arc<Shared>, body: &[u8], deadline: Instant) -> Reply {
    let parse_span = nncell_obs::trace::child("server.parse");
    let v = match body_json(body) {
        Ok(v) => v,
        Err(r) => return r,
    };
    let q = match parse_query(&v, deadline) {
        Ok(q) => q,
        Err(w) => return error_reply(400, "/query", w),
    };
    drop(parse_span);
    let handled = {
        let _span = nncell_obs::trace::child("server.handle");
        shared.index.query(&q)
    };
    let mut reply = match handled {
        Ok(resp) => {
            let _span = nncell_obs::trace::child("server.serialize");
            json_reply(200, "/query", render_response(&resp))
        }
        Err(e) => query_error_reply("/query", e),
    };
    reply.slow_point = q.point().to_vec();
    reply.slow_k = q.k();
    reply
}

fn handle_batch(shared: &Arc<Shared>, body: &[u8], deadline: Instant) -> Reply {
    let v = match body_json(body) {
        Ok(v) => v,
        Err(r) => return r,
    };
    let Some(items) = v.get("queries").and_then(Json::as_arr) else {
        return error_reply(400, "/batch", "queries must be an array");
    };
    let mut queries = Vec::with_capacity(items.len());
    for item in items {
        match parse_query(item, deadline) {
            Ok(q) => queries.push(q),
            Err(w) => return error_reply(400, "/batch", w),
        }
    }
    let results = {
        let mut span = nncell_obs::trace::child("server.handle");
        span.arg("queries", queries.len() as u64);
        shared.index.batch(&queries)
    };
    let _span = nncell_obs::trace::child("server.serialize");
    let mut out = String::from("{\"results\":[");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match r {
            Ok(resp) => render_response_into(&mut out, resp),
            Err(e) => {
                out.push_str(&format!(
                    "{{\"error\":\"{}\"}}",
                    json::escape(&e.to_string())
                ));
            }
        }
    }
    out.push_str("]}");
    json_reply(200, "/batch", out)
}

fn handle_insert(shared: &Arc<Shared>, body: &[u8]) -> Reply {
    let v = match body_json(body) {
        Ok(v) => v,
        Err(r) => return r,
    };
    let Some(coords) = v.get("point").and_then(Json::as_f64_vec) else {
        return error_reply(400, "/insert", "point must be an array of numbers");
    };
    let inserted = {
        // The WAL append/fsync span nests under this one.
        let _span = nncell_obs::trace::child("server.handle");
        writable(shared).and_then(|s| s.insert(Point::new(coords)).map_err(WriteError::Durable))
    };
    match inserted {
        Ok(id) => json_reply(200, "/insert", format!("{{\"id\":{id}}}")),
        Err(e) => write_error_reply(shared, "/insert", e),
    }
}

/// The write target, refused exactly when the index is not durable.
fn writable(shared: &Shared) -> Result<&ShardedIndex, WriteError> {
    if shared.index.is_durable() {
        Ok(&shared.index)
    } else {
        Err(WriteError::ReadOnly)
    }
}

/// Maps a write failure to HTTP. Backpressure (memtable tail at its
/// high-watermark) is the one retryable case: `429` plus the same
/// `Retry-After` contract as admission-queue shedding, so well-behaved
/// clients back off instead of hammering a folder that is behind.
fn write_error_reply(shared: &Arc<Shared>, route: &'static str, e: WriteError) -> Reply {
    match e {
        WriteError::ReadOnly => error_reply(403, route, "read_only"),
        WriteError::Durable(DurableError::Invalid(e)) => error_reply(400, route, &e.to_string()),
        WriteError::Durable(DurableError::Backpressure { .. }) => {
            let mut r = error_reply(429, route, "write_backpressure");
            r.headers
                .push(format!("Retry-After: {}", shared.cfg.retry_after_secs));
            r
        }
        WriteError::Durable(DurableError::Persist(e)) => error_reply(500, route, &e.to_string()),
    }
}

fn handle_remove(shared: &Arc<Shared>, body: &[u8]) -> Reply {
    let v = match body_json(body) {
        Ok(v) => v,
        Err(r) => return r,
    };
    let Some(id) = v.get("id").and_then(Json::as_usize) else {
        return error_reply(400, "/remove", "id must be a non-negative integer");
    };
    let removed = {
        let _span = nncell_obs::trace::child("server.handle");
        writable(shared).and_then(|s| s.remove(id).map_err(WriteError::Durable))
    };
    match removed {
        Ok(removed) => json_reply(200, "/remove", format!("{{\"removed\":{removed}}}")),
        Err(e) => write_error_reply(shared, "/remove", e),
    }
}

// ---------------------------------------------------------------------
// Signal handling (std-only: glibc's `signal` is already linked in).

static SIGNAL_FLAG: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    // Only async-signal-safe work here: one atomic store. The watcher
    // thread inside `Server::run` converts it into a graceful drain.
    SIGNAL_FLAG.store(true, Ordering::SeqCst);
}

/// Installs SIGINT/SIGTERM handlers that request a graceful drain of
/// every running [`Server`] in this process. Call once before
/// [`Server::run`]. Safe to call multiple times.
pub fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `signal` with a handler that only performs an atomic
    // store is async-signal-safe; both signal numbers are valid.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nncell_core::{QueryResult, QueryStats};

    /// The body as it was rendered before numbers were written in place:
    /// one `format!` and one number string per result.
    fn reference_render(resp: &QueryResponse) -> String {
        let num = |n: f64| {
            if n.is_finite() {
                format!("{n}")
            } else {
                String::from("null")
            }
        };
        let mut out = String::from("{\"results\":[");
        for (i, r) in resp.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"id\":{},\"dist\":{}}}", r.id, num(r.dist)));
        }
        out.push_str(&format!(
            "],\"stats\":{{\"candidates\":{},\"pages\":{},\
             \"nodes_pruned\":{},\"examined\":{},\"aborted_early\":{}}}}}",
            resp.stats.candidates,
            resp.stats.pages,
            resp.stats.nodes_pruned,
            resp.stats.candidates_examined,
            resp.stats.candidates_aborted_early
        ));
        out
    }

    #[test]
    fn response_bytes_are_unchanged() {
        let mut stats = QueryStats::default();
        stats.candidates = 12;
        stats.pages = 7;
        stats.nodes_pruned = 5;
        stats.candidates_examined = 20;
        stats.candidates_aborted_early = 8;
        let at = |id: usize, dist: f64| QueryResult { id, dist };
        let resp = QueryResponse {
            best: at(3, 0.5),
            rest: vec![
                at(17, 1.0 / 3.0),
                at(8, 2.0),
                at(4, 1e-4),
                at(9, f64::INFINITY),
                at(11, f64::NAN),
            ],
            stats,
        };
        let body = render_response(&resp);
        assert_eq!(
            body,
            "{\"results\":[{\"id\":3,\"dist\":0.5},{\"id\":17,\"dist\":0.3333333333333333},\
             {\"id\":8,\"dist\":2},{\"id\":4,\"dist\":0.0001},{\"id\":9,\"dist\":null},\
             {\"id\":11,\"dist\":null}],\"stats\":{\"candidates\":12,\"pages\":7,\
             \"nodes_pruned\":5,\"examined\":20,\"aborted_early\":8}}"
        );
        assert_eq!(body, reference_render(&resp));
        let single = QueryResponse {
            best: at(0, 0.123_456_789_012_345_67),
            rest: Vec::new(),
            stats: QueryStats::default(),
        };
        assert_eq!(render_response(&single), reference_render(&single));
    }

    #[test]
    fn request_counters_reach_metrics() {
        let registry = Registry::new();
        let m = HttpMetrics::new(Arc::clone(&registry), 1);
        m.count_request("/query", 200);
        m.count_request("/query", 200);
        m.count_request("(shed)", 429);
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("nncell_http_requests_total{route=\"/query\",code=\"200\"}"),
            Some(2)
        );
        let text = snap.to_prometheus();
        for line in [
            "nncell_http_requests_total{route=\"/query\",code=\"200\"} 2",
            "nncell_http_requests_total{route=\"(shed)\",code=\"429\"} 1",
        ] {
            assert!(
                text.lines().any(|l| l == line),
                "{line} missing from:\n{text}"
            );
        }
    }
}
