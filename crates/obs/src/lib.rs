//! Zero-dependency observability primitives for the nncell workspace.
//!
//! The crate provides four building blocks, all safe to share across
//! threads and all allocation-free on their recording paths:
//!
//! * [`Counter`] — a monotonic `u64` counter (relaxed atomics).
//! * [`Gauge`] — a signed instantaneous value (relaxed atomics).
//! * [`Histogram`] — a log2-bucketed distribution (65 fixed buckets
//!   covering the whole `u64` range) with an atomic per-bucket count,
//!   running sum, and max; percentiles are computed from a
//!   [`HistogramSnapshot`] by nearest-rank walk and are exact to within
//!   one bucket.
//! * [`SlowQueryLog`] — a fixed-capacity ring buffer of slow-query
//!   records with a lock-free threshold fast path and preallocated
//!   entry slots, so recording a slow query never heap-allocates.
//! * [`trace`] + [`FlightRecorder`] — request tracing: head-sampled
//!   spans with parent/child nesting, buffered per thread and drained
//!   into a fixed-capacity flight-recorder ring, exportable as Chrome
//!   trace-event JSON ([`chrome_trace_json`]). Disabled sampling costs
//!   one relaxed atomic load per root and one thread-local read per
//!   child span.
//!
//! Handles are obtained from a [`Registry`], which owns the name →
//! metric map behind a single mutex that is touched only at
//! registration and snapshot time — never on the hot path. A
//! [`Snapshot`] is a point-in-time copy that renders to
//! Prometheus-style text ([`Snapshot::to_prometheus`]) and to JSON
//! ([`Snapshot::to_json`]) without any serialization dependency.
//!
//! Everything is panic-free by design: registering a name under a
//! conflicting metric kind returns a fresh detached handle instead of
//! panicking, so instrumentation can never take down the data path.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod flight;
mod metrics;
mod registry;
mod slowlog;
pub mod trace;

pub use flight::{chrome_trace_json, FlightRecorder};
pub use metrics::{
    bucket_index, bucket_upper_bound, Counter, Gauge, Histogram, HistogramSnapshot, BUCKETS,
};
pub use registry::{escape_label_value, format_labels, MetricSnapshot, Registry, Snapshot};
pub use slowlog::{SlowQueryEntry, SlowQueryLog};
pub use trace::{SpanContext, SpanGuard, SpanRecord, TraceMetrics};
