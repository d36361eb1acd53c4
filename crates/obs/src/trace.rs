//! Request tracing: spans with parent/child nesting, head-based
//! sampling, and a lock-free thread-local span buffer.
//!
//! Design constraints, in order:
//!
//! 1. **Disabled must be free.** With sampling off (`set_sampling(0)`)
//!    and no upstream `traceparent` forcing a trace, starting a root
//!    span costs one relaxed atomic load and child spans cost one
//!    thread-local flag read. No allocation, no lock, no timestamp.
//!    The counting-allocator test and the ci.sh QPS gate hold this to
//!    the contract.
//! 2. **Recording never blocks the request path on a global lock.**
//!    Finished spans are pushed onto a thread-local `Vec` and the whole
//!    batch is drained into the [`crate::FlightRecorder`] ring in one
//!    mutex take when the root span (or an adopted context) ends.
//! 3. **Span records are allocation-free.** Names and arg keys are
//!    `&'static str`; args are a fixed-size inline array; timestamps
//!    are nanoseconds since a process-wide epoch `Instant`.
//!
//! The tracer is a process-wide singleton: the WAL, LP solver, and
//! folder worker sit too deep in the stack to plumb a handle through
//! every signature, and the flight recorder is an "always-on black box"
//! by design — there is exactly one per process, like the panic hook.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::flight::FlightRecorder;
use crate::metrics::Counter;
use crate::registry::Registry;
use std::sync::Arc;

/// Maximum number of `(key, value)` pairs a span can carry inline.
pub const SPAN_MAX_ARGS: usize = 2;

/// One finished span. Plain data, no heap pointers: safe to copy into
/// the preallocated flight-recorder ring without allocating.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Trace this span belongs to (W3C: 16 bytes, never zero).
    pub trace: u128,
    /// Span id (W3C: 8 bytes, never zero).
    pub span: u64,
    /// Parent span id; zero for the root span of a trace.
    pub parent: u64,
    /// Operation name, e.g. `"server.request"` or `"wal.append"`.
    pub name: &'static str,
    /// Start, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the process trace epoch (`>= start_ns`).
    pub end_ns: u64,
    /// Small integer id of the recording thread (stable per thread).
    pub tid: u64,
    /// Inline key/value annotations; only the first `nargs` are live.
    pub args: [(&'static str, u64); SPAN_MAX_ARGS],
    /// Number of live entries in `args`.
    pub nargs: u8,
}

impl SpanRecord {
    /// Builds a record by hand — used by tests and the golden-file
    /// fixture; production records come out of [`SpanGuard`].
    pub fn new(
        trace: u128,
        span: u64,
        parent: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        tid: u64,
    ) -> Self {
        SpanRecord {
            trace,
            span,
            parent,
            name,
            start_ns,
            end_ns,
            tid,
            args: [("", 0); SPAN_MAX_ARGS],
            nargs: 0,
        }
    }

    /// Appends an inline annotation, silently dropping it when the
    /// fixed arg slots are full (bounded memory beats completeness in
    /// a flight recorder).
    pub fn with_arg(mut self, key: &'static str, value: u64) -> Self {
        if (self.nargs as usize) < SPAN_MAX_ARGS {
            self.args[self.nargs as usize] = (key, value);
            self.nargs += 1;
        }
        self
    }

    /// Live annotations, in insertion order.
    pub fn live_args(&self) -> &[(&'static str, u64)] {
        &self.args[..self.nargs as usize]
    }
}

/// Propagatable identity of an in-flight trace: what crosses thread
/// and process boundaries (W3C `traceparent`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanContext {
    pub trace: u128,
    pub span: u64,
    pub sampled: bool,
}

impl SpanContext {
    /// Renders the W3C `traceparent` header value:
    /// `00-<32 hex trace>-<16 hex span>-<2 hex flags>`.
    pub fn to_traceparent(&self) -> String {
        let flags = if self.sampled { 1u8 } else { 0u8 };
        format!("00-{:032x}-{:016x}-{:02x}", self.trace, self.span, flags)
    }

    /// Parses a W3C `traceparent` header value. Returns `None` for
    /// malformed input, the forbidden version `ff`, or all-zero ids
    /// (both invalid per spec). Future versions (`01`..) are accepted
    /// as long as the first four fields parse, per the spec's
    /// forward-compatibility rule.
    pub fn parse_traceparent(value: &str) -> Option<SpanContext> {
        let mut parts = value.trim().splitn(4, '-');
        let version = parts.next()?;
        let trace_hex = parts.next()?;
        let span_hex = parts.next()?;
        let flags_hex = parts.next()?;
        if version.len() != 2 || version.eq_ignore_ascii_case("ff") {
            return None;
        }
        u8::from_str_radix(version, 16).ok()?;
        if trace_hex.len() != 32 || span_hex.len() != 16 {
            return None;
        }
        // Version 00 allows nothing after flags; later versions may
        // append `-extra`, so only take the leading two hex digits.
        let flags_hex = flags_hex.get(..2)?;
        let trace = u128::from_str_radix(trace_hex, 16).ok()?;
        let span = u64::from_str_radix(span_hex, 16).ok()?;
        let flags = u8::from_str_radix(flags_hex, 16).ok()?;
        if trace == 0 || span == 0 {
            return None;
        }
        Some(SpanContext {
            trace,
            span,
            sampled: flags & 1 == 1,
        })
    }
}

/// Counters for the `nncell_trace_*` family; attach with
/// [`attach_metrics`] so span flushes feed a live [`Registry`].
#[derive(Clone)]
pub struct TraceMetrics {
    spans: Arc<Counter>,
    traces: Arc<Counter>,
    dropped: Arc<Counter>,
}

impl TraceMetrics {
    /// Registers the trace counter family (with HELP text) on `r`.
    pub fn register(r: &Registry) -> Self {
        Self::describe(r);
        TraceMetrics {
            spans: r.counter("nncell_trace_spans_total"),
            traces: r.counter("nncell_trace_traces_total"),
            dropped: r.counter("nncell_trace_dropped_spans_total"),
        }
    }

    /// HELP text only — lets exporters describe the family without
    /// creating series (the golden-metrics fixture uses this).
    pub fn describe(r: &Registry) {
        r.describe(
            "nncell_trace_spans_total",
            "Finished spans flushed into the flight recorder.",
        );
        r.describe(
            "nncell_trace_traces_total",
            "Sampled traces completed (root span finished).",
        );
        r.describe(
            "nncell_trace_dropped_spans_total",
            "Spans evicted from the flight-recorder ring before export.",
        );
    }
}

/// Process-wide tracer state. Everything the hot path touches is an
/// atomic; the flight ring and metrics handle sit behind their own
/// locks and are only taken at flush time.
struct Tracer {
    flight: FlightRecorder,
    metrics: Mutex<Option<TraceMetrics>>,
    /// Head-sampling rate: record every Nth root. 0 = disabled.
    sample_every: AtomicU64,
    /// Root-span counter driving the `% sample_every` decision.
    sample_counter: AtomicU64,
    /// Span-id allocator (never hands out 0).
    next_span: AtomicU64,
    /// Trace-id allocator, mixed with a per-process seed.
    next_trace: AtomicU64,
    trace_seed: u128,
    epoch: Instant,
}

static TRACER: OnceLock<Tracer> = OnceLock::new();

/// Default flight-recorder capacity in spans. At 96 bytes per
/// [`SpanRecord`] slot this bounds the ring under 1 MiB, preallocated
/// once — same discipline as the slow-query ring.
pub const FLIGHT_CAPACITY: usize = 8192;

fn tracer() -> &'static Tracer {
    TRACER.get_or_init(|| {
        // Seed trace ids with wall-clock nanos so two processes started
        // back to back don't collide; uniqueness, not secrecy, is the goal.
        let seed = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0x6e6e63656c6c); // "nncell" if the clock is broken
        Tracer {
            flight: FlightRecorder::new(FLIGHT_CAPACITY),
            metrics: Mutex::new(None),
            sample_every: AtomicU64::new(0),
            sample_counter: AtomicU64::new(0),
            next_span: AtomicU64::new(1),
            next_trace: AtomicU64::new(1),
            trace_seed: seed,
            epoch: Instant::now(),
        }
    })
}

/// Forces tracer (and epoch) initialisation. Call early — e.g. when a
/// server binds — so admission timestamps taken before the first
/// sampled request still map into the trace clock.
pub fn init() {
    let _ = tracer();
}

/// Nanoseconds since the process trace epoch.
pub fn now_ns() -> u64 {
    tracer().epoch.elapsed().as_nanos() as u64
}

/// Maps an `Instant` captured elsewhere (e.g. at admission, before any
/// tracing decision) onto the trace clock. Saturates to 0 for instants
/// that predate tracer initialisation — call [`init`] at startup to
/// avoid that.
pub fn instant_ns(t: Instant) -> u64 {
    t.saturating_duration_since(tracer().epoch).as_nanos() as u64
}

/// Sets the head-sampling rate: record every `every`-th root span.
/// `0` disables sampling (upstream `traceparent` sampled flags still
/// force individual traces). `1` records everything.
pub fn set_sampling(every: u64) {
    tracer().sample_every.store(every, Ordering::Relaxed);
}

/// Current head-sampling rate (0 = disabled).
pub fn sampling() -> u64 {
    tracer().sample_every.load(Ordering::Relaxed)
}

/// The process flight recorder: every sampled span ends up here.
pub fn flight() -> &'static FlightRecorder {
    &tracer().flight
}

/// Attaches trace counters to a registry; replaces any previous handle
/// (latest registry wins, matching the slow-log metrics discipline).
pub fn attach_metrics(r: &Registry) {
    let handle = TraceMetrics::register(r);
    let mut slot = match tracer().metrics.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    *slot = Some(handle);
}

// ---------------------------------------------------------------------
// Thread-local recording state
// ---------------------------------------------------------------------

struct ThreadState {
    trace: Cell<u128>,
    parent: Cell<u64>,
    sampled: Cell<bool>,
    depth: Cell<u32>,
    tid: Cell<u64>,
    buf: RefCell<Vec<SpanRecord>>,
}

thread_local! {
    static THREAD: ThreadState = const {
        ThreadState {
            trace: Cell::new(0),
            parent: Cell::new(0),
            sampled: Cell::new(false),
            depth: Cell::new(0),
            tid: Cell::new(0),
            buf: RefCell::new(Vec::new()),
        }
    };
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

fn thread_id(state: &ThreadState) -> u64 {
    let tid = state.tid.get();
    if tid != 0 {
        return tid;
    }
    let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    state.tid.set(tid);
    tid
}

fn next_span_id() -> u64 {
    // fetch_add from 1 never yields 0 before u64 wrap (~584 years of
    // continuous allocation at 1 GHz); treat wrap as unreachable.
    tracer().next_span.fetch_add(1, Ordering::Relaxed)
}

fn next_trace_id() -> u128 {
    let t = tracer();
    let n = t.next_trace.fetch_add(1, Ordering::Relaxed) as u128;
    // splitmix64-style finalizer over (seed, counter) — cheap, well
    // spread, and never all-zero thanks to the `| 1`.
    let mut z = t.trace_seed ^ (n << 64 | n);
    z ^= z >> 61;
    z = z.wrapping_mul(0x9e37_79b9_7f4a_7c15_85eb_ca6b_27d4_eb2f);
    z ^= z >> 59;
    z | 1
}

/// Identity of the innermost active span on this thread, or `None`
/// when the thread is not inside a sampled trace. This is what goes
/// into an outgoing `traceparent` header or a cross-thread [`adopt`].
pub fn current() -> Option<SpanContext> {
    THREAD.with(|s| {
        if s.sampled.get() {
            Some(SpanContext {
                trace: s.trace.get(),
                span: s.parent.get(),
                sampled: true,
            })
        } else {
            None
        }
    })
}

/// Trace id of the active trace on this thread, or 0. Cheap enough to
/// call unconditionally when stamping slow-query exemplars.
pub fn current_trace_id() -> u128 {
    THREAD.with(|s| if s.sampled.get() { s.trace.get() } else { 0 })
}

fn flush_thread(state: &ThreadState, root_finished: bool) {
    let mut buf = state.buf.borrow_mut();
    if buf.is_empty() {
        return;
    }
    let t = tracer();
    let evicted = t.flight.record_batch(&buf);
    let metrics = match t.metrics.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    if let Some(m) = metrics.as_ref() {
        m.spans.add(buf.len() as u64);
        if root_finished {
            m.traces.inc();
        }
        if evicted > 0 {
            m.dropped.add(evicted as u64);
        }
    }
    buf.clear();
}

// ---------------------------------------------------------------------
// Span guards
// ---------------------------------------------------------------------

/// RAII handle for an in-flight span. Created by [`root`],
/// [`root_from`], [`force_root`], or [`child`]; the span's interval
/// closes when the guard drops. Inert guards (unsampled) are
/// zero-cost at drop.
pub struct SpanGuard {
    name: &'static str,
    span: u64,
    saved_parent: u64,
    start_ns: u64,
    args: [(&'static str, u64); SPAN_MAX_ARGS],
    nargs: u8,
    active: bool,
    is_root: bool,
}

impl SpanGuard {
    fn inert() -> Self {
        SpanGuard {
            name: "",
            span: 0,
            saved_parent: 0,
            start_ns: 0,
            args: [("", 0); SPAN_MAX_ARGS],
            nargs: 0,
            active: false,
            is_root: false,
        }
    }

    /// Whether this guard is recording (i.e. the trace is sampled).
    pub fn is_recording(&self) -> bool {
        self.active
    }

    /// Attaches an inline annotation; no-op on inert guards or when
    /// the fixed arg slots are full.
    pub fn arg(&mut self, key: &'static str, value: u64) {
        if self.active && (self.nargs as usize) < SPAN_MAX_ARGS {
            self.args[self.nargs as usize] = (key, value);
            self.nargs += 1;
        }
    }

    /// Context for propagating this span across a boundary (header or
    /// worker thread); `None` when inert.
    pub fn context(&self) -> Option<SpanContext> {
        if self.active {
            THREAD.with(|s| {
                Some(SpanContext {
                    trace: s.trace.get(),
                    span: self.span,
                    sampled: true,
                })
            })
        } else {
            None
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end_ns = now_ns();
        THREAD.with(|s| {
            let rec = SpanRecord {
                trace: s.trace.get(),
                span: self.span,
                parent: self.saved_parent,
                name: self.name,
                start_ns: self.start_ns,
                end_ns,
                tid: thread_id(s),
                args: self.args,
                nargs: self.nargs,
            };
            // borrow_mut cannot collide: guards only touch the buffer
            // from Drop/span_at, never reentrantly.
            s.buf.borrow_mut().push(rec);
            s.parent.set(self.saved_parent);
            let depth = s.depth.get().saturating_sub(1);
            s.depth.set(depth);
            if depth == 0 {
                flush_thread(s, self.is_root);
                s.sampled.set(false);
                s.trace.set(0);
                s.parent.set(0);
            }
        });
    }
}

fn activate_root(name: &'static str, trace: u128, parent: u64, start_ns: u64) -> SpanGuard {
    THREAD.with(|s| {
        let span = next_span_id();
        s.trace.set(trace);
        s.sampled.set(true);
        let saved_parent = parent;
        s.parent.set(span);
        s.depth.set(s.depth.get() + 1);
        SpanGuard {
            name,
            span,
            saved_parent,
            start_ns,
            args: [("", 0); SPAN_MAX_ARGS],
            nargs: 0,
            active: true,
            is_root: true,
        }
    })
}

/// Starts a root span, subject to head sampling. With sampling
/// disabled this is a single relaxed atomic load. Nested calls on an
/// already-sampled thread degrade gracefully to child spans.
pub fn root(name: &'static str) -> SpanGuard {
    root_from_at(name, None, None)
}

/// Starts a root span honouring an upstream [`SpanContext`] (e.g. a
/// parsed `traceparent`): the upstream trace id is adopted and its
/// sampled flag forces recording even when local sampling is disabled
/// — that is what makes `curl -H traceparent:…-01` a usable on-demand
/// tracing switch. `start_ns` backdates the span (e.g. to admission
/// time) so retroactive children like queue-wait still nest inside it.
pub fn root_from_at(
    name: &'static str,
    upstream: Option<SpanContext>,
    start_ns: Option<u64>,
) -> SpanGuard {
    // A "root" started inside an active trace (e.g. the engine called
    // both directly and under a server request) is just a child.
    if THREAD.with(|s| s.sampled.get()) {
        return child(name);
    }
    let forced = upstream.map(|u| u.sampled).unwrap_or(false);
    if !forced {
        let every = tracer().sample_every.load(Ordering::Relaxed);
        if every == 0 {
            return SpanGuard::inert();
        }
        let n = tracer().sample_counter.fetch_add(1, Ordering::Relaxed);
        if !n.is_multiple_of(every) {
            return SpanGuard::inert();
        }
    }
    let (trace, parent) = match upstream {
        Some(u) => (u.trace, u.span),
        None => (next_trace_id(), 0),
    };
    let start = start_ns.unwrap_or_else(now_ns);
    activate_root(name, trace, parent, start)
}

/// [`root_from_at`] with `start_ns = now`.
pub fn root_from(name: &'static str, upstream: Option<SpanContext>) -> SpanGuard {
    root_from_at(name, upstream, None)
}

/// Starts a root span unconditionally, bypassing the sampling
/// decision. For tests and the CLI `trace` subcommand.
pub fn force_root(name: &'static str) -> SpanGuard {
    if THREAD.with(|s| s.sampled.get()) {
        return child(name);
    }
    activate_root(name, next_trace_id(), 0, now_ns())
}

/// Starts a child of the innermost active span on this thread. Inert
/// (one thread-local flag read) when the thread is not tracing.
pub fn child(name: &'static str) -> SpanGuard {
    THREAD.with(|s| {
        if !s.sampled.get() {
            return SpanGuard::inert();
        }
        let span = next_span_id();
        let saved_parent = s.parent.get();
        s.parent.set(span);
        s.depth.set(s.depth.get() + 1);
        SpanGuard {
            name,
            span,
            saved_parent,
            start_ns: now_ns(),
            args: [("", 0); SPAN_MAX_ARGS],
            nargs: 0,
            active: true,
            is_root: false,
        }
    })
}

/// Records a retroactive leaf span over `[start_ns, end_ns]` as a
/// child of the innermost active span — used for intervals measured
/// before the trace existed, like admission-queue wait. No-op when the
/// thread is not tracing.
pub fn span_at(name: &'static str, start_ns: u64, end_ns: u64) {
    THREAD.with(|s| {
        if !s.sampled.get() {
            return;
        }
        let rec = SpanRecord {
            trace: s.trace.get(),
            span: next_span_id(),
            parent: s.parent.get(),
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            tid: thread_id(s),
            args: [("", 0); SPAN_MAX_ARGS],
            nargs: 0,
        };
        s.buf.borrow_mut().push(rec);
    });
}

/// RAII guard restoring a thread's pre-[`adopt`] trace state.
pub struct AdoptGuard {
    active: bool,
}

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        THREAD.with(|s| {
            // Workers flush their own buffer: the parent root may
            // finish on another thread and can't see this one's spans.
            flush_thread(s, false);
            s.sampled.set(false);
            s.trace.set(0);
            s.parent.set(0);
            s.depth.set(0);
        });
    }
}

/// Adopts a sampled context on the current thread so spans created
/// here become children of `ctx.span` — the cross-thread propagation
/// primitive for batch workers and the folder. Pass `current()` from
/// the spawning thread. `None` or an unsampled context is a no-op.
pub fn adopt(ctx: Option<SpanContext>) -> AdoptGuard {
    let Some(ctx) = ctx.filter(|c| c.sampled) else {
        return AdoptGuard { active: false };
    };
    THREAD.with(|s| {
        if s.sampled.get() {
            // Already tracing on this thread; don't clobber.
            return AdoptGuard { active: false };
        }
        s.trace.set(ctx.trace);
        s.parent.set(ctx.span);
        s.sampled.set(true);
        // Hold one virtual depth frame: child guards then bottom out at
        // depth 1, not 0, so their Drop never tears down the adopted
        // context between spans — only AdoptGuard::drop does.
        s.depth.set(1);
        AdoptGuard { active: true }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traceparent_round_trip() {
        let ctx = SpanContext {
            trace: 0x0123_4567_89ab_cdef_0123_4567_89ab_cdef,
            span: 0xfedc_ba98_7654_3210,
            sampled: true,
        };
        let header = ctx.to_traceparent();
        assert_eq!(
            header,
            "00-0123456789abcdef0123456789abcdef-fedcba9876543210-01"
        );
        assert_eq!(SpanContext::parse_traceparent(&header), Some(ctx));
    }

    #[test]
    fn traceparent_rejects_malformed() {
        for bad in [
            "",
            "00",
            "00-1234-5678-01",
            // all-zero trace id
            "00-00000000000000000000000000000000-fedcba9876543210-01",
            // all-zero span id
            "00-0123456789abcdef0123456789abcdef-0000000000000000-01",
            // forbidden version
            "ff-0123456789abcdef0123456789abcdef-fedcba9876543210-01",
            // non-hex
            "00-0123456789abcdef0123456789abcdeg-fedcba9876543210-01",
        ] {
            assert_eq!(SpanContext::parse_traceparent(bad), None, "{bad:?}");
        }
        // Unsampled flag parses with sampled = false.
        let ctx = SpanContext::parse_traceparent(
            "00-0123456789abcdef0123456789abcdef-fedcba9876543210-00",
        )
        .expect("valid header");
        assert!(!ctx.sampled);
    }

    #[test]
    fn disabled_sampling_yields_inert_guards() {
        set_sampling(0);
        let g = root("test.root");
        assert!(!g.is_recording());
        assert!(current().is_none());
        assert_eq!(current_trace_id(), 0);
        drop(g);
        let c = child("test.child");
        assert!(!c.is_recording());
    }

    #[test]
    fn forced_root_records_nested_spans() {
        set_sampling(0);
        let trace_id;
        {
            let mut root = force_root("test.request");
            root.arg("k", 5);
            trace_id = current_trace_id();
            assert_ne!(trace_id, 0);
            {
                let _child = child("test.inner");
                assert_eq!(current_trace_id(), trace_id);
            }
        }
        // After the root drops the thread is clean again.
        assert_eq!(current_trace_id(), 0);
        let spans: Vec<SpanRecord> = flight()
            .snapshot()
            .into_iter()
            .filter(|s| s.trace == trace_id)
            .collect();
        assert_eq!(spans.len(), 2);
        let root_rec = spans
            .iter()
            .find(|s| s.name == "test.request")
            .expect("root span present");
        let child_rec = spans
            .iter()
            .find(|s| s.name == "test.inner")
            .expect("child span present");
        assert_eq!(root_rec.parent, 0);
        assert_eq!(child_rec.parent, root_rec.span);
        assert!(child_rec.start_ns >= root_rec.start_ns);
        assert!(child_rec.end_ns <= root_rec.end_ns);
        assert_eq!(root_rec.live_args(), &[("k", 5)]);
    }

    #[test]
    fn upstream_sampled_traceparent_forces_recording() {
        set_sampling(0);
        let upstream = SpanContext {
            trace: 0xabcdef,
            span: 0x1234,
            sampled: true,
        };
        {
            let g = root_from("test.forced", Some(upstream));
            assert!(g.is_recording());
            assert_eq!(current_trace_id(), 0xabcdef);
        }
        let spans: Vec<SpanRecord> = flight()
            .snapshot()
            .into_iter()
            .filter(|s| s.trace == 0xabcdef && s.name == "test.forced")
            .collect();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].parent, 0x1234);
    }

    #[test]
    fn unsampled_upstream_does_not_force() {
        set_sampling(0);
        let upstream = SpanContext {
            trace: 0xabcd,
            span: 0x99,
            sampled: false,
        };
        let g = root_from("test.unsampled", Some(upstream));
        assert!(!g.is_recording());
    }

    #[test]
    fn adopt_propagates_across_threads() {
        set_sampling(0);
        let mut seen = 0u128;
        let trace_id;
        {
            let _root = force_root("test.fanout");
            trace_id = current_trace_id();
            let ctx = current();
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let _adopt = adopt(ctx);
                    let _w = child("test.worker");
                    seen = current_trace_id();
                });
            });
        }
        assert_eq!(seen, trace_id, "worker thread saw the adopted trace id");
        let worker: Vec<SpanRecord> = flight()
            .snapshot()
            .into_iter()
            .filter(|s| s.trace == trace_id && s.name == "test.worker")
            .collect();
        assert_eq!(worker.len(), 1);
    }

    #[test]
    fn span_at_records_retroactive_child() {
        set_sampling(0);
        let trace_id;
        {
            let _root = force_root("test.root_at");
            trace_id = current_trace_id();
            span_at("test.retro", 10, 20);
        }
        let retro: Vec<SpanRecord> = flight()
            .snapshot()
            .into_iter()
            .filter(|s| s.trace == trace_id && s.name == "test.retro")
            .collect();
        assert_eq!(retro.len(), 1);
        assert_eq!((retro[0].start_ns, retro[0].end_ns), (10, 20));
    }
}
