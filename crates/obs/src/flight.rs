//! Always-on flight recorder: a fixed-capacity ring of finished spans,
//! plus the Chrome trace-event JSON export that makes it loadable in
//! `chrome://tracing` / Perfetto.
//!
//! Same discipline as the slow-query ring in `slowlog.rs`: every slot
//! is preallocated at construction, recording overwrites the oldest
//! entry, and the mutex is poison-tolerant — a panicking exporter
//! thread must never wedge the request path. Unlike the slow-query
//! ring the flight recorder is written in batches (one whole trace's
//! spans per lock take, see `trace::flush_thread`), so the lock is
//! taken once per sampled request, not once per span.

use std::fmt::Write as _;
use std::sync::Mutex;

use crate::trace::SpanRecord;

/// Fixed-capacity span ring. Construction preallocates every slot;
/// recording and export never allocate ring storage.
pub struct FlightRecorder {
    inner: Mutex<Ring>,
}

struct Ring {
    slots: Vec<SpanRecord>,
    /// Index of the oldest slot once the ring has wrapped.
    head: usize,
    /// Live slot count (`<= slots.capacity()` forever).
    len: usize,
    capacity: usize,
}

impl FlightRecorder {
    /// Creates a recorder holding at most `capacity` spans (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            inner: Mutex::new(Ring {
                slots: Vec::with_capacity(capacity),
                head: 0,
                len: 0,
                capacity,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Ring> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Copies a batch of spans into the ring, overwriting the oldest
    /// entries when full. Returns how many previously-recorded spans
    /// were evicted to make room.
    pub fn record_batch(&self, spans: &[SpanRecord]) -> usize {
        if spans.is_empty() {
            return 0;
        }
        let mut ring = self.lock();
        // A batch larger than the ring keeps only its newest suffix.
        let skip = spans.len().saturating_sub(ring.capacity);
        let mut evicted = skip;
        for &rec in &spans[skip..] {
            if ring.len < ring.capacity {
                ring.slots.push(rec);
                ring.len += 1;
            } else {
                let head = ring.head;
                ring.slots[head] = rec;
                ring.head = (head + 1) % ring.capacity;
                evicted += 1;
            }
        }
        evicted
    }

    /// Copies out every recorded span, oldest first, without clearing.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let ring = self.lock();
        let mut out = Vec::with_capacity(ring.len);
        for i in 0..ring.len {
            out.push(ring.slots[(ring.head + i) % ring.capacity]);
        }
        out
    }

    /// Spans belonging to the most recent `n` distinct traces (by
    /// flush order), oldest span first. `n = 0` returns nothing.
    pub fn last_traces(&self, n: usize) -> Vec<SpanRecord> {
        let all = self.snapshot();
        if n == 0 {
            return Vec::new();
        }
        // Walk newest → oldest collecting distinct trace ids.
        let mut keep: Vec<u128> = Vec::new();
        for rec in all.iter().rev() {
            if !keep.contains(&rec.trace) {
                if keep.len() == n {
                    break;
                }
                keep.push(rec.trace);
            }
        }
        all.into_iter()
            .filter(|r| keep.contains(&r.trace))
            .collect()
    }

    /// Number of spans currently held.
    pub fn len(&self) -> usize {
        self.lock().len
    }

    /// Whether the ring holds no spans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum span count (fixed at construction).
    pub fn capacity(&self) -> usize {
        self.lock().capacity
    }

    /// Discards every recorded span (test isolation; capacity and
    /// preallocated storage are retained).
    pub fn clear(&self) {
        let mut ring = self.lock();
        ring.head = 0;
        ring.len = 0;
        ring.slots.clear();
    }
}

/// Microseconds with fixed 3-decimal precision from a nanosecond
/// count — Chrome trace-event timestamps are float µs, and emitting a
/// stable decimal keeps the golden file deterministic.
fn fmt_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Renders spans as Chrome trace-event JSON (the `traceEvents` array
/// format), loadable by `chrome://tracing` and Perfetto. Each span
/// becomes one complete (`"ph":"X"`) event; trace/span/parent ids and
/// inline args are carried in `args` so timelines stay greppable.
pub fn chrome_trace_json(spans: &[SpanRecord]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"cat\":\"nncell\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":1,\"tid\":{},\"args\":{{\"trace\":\"{:032x}\",\"span\":\"{:016x}\",\
             \"parent\":\"{:016x}\"",
            crate::registry::json_escape(s.name),
            fmt_us(s.start_ns),
            fmt_us(s.end_ns.saturating_sub(s.start_ns)),
            s.tid,
            s.trace,
            s.span,
            s.parent,
        );
        for (key, value) in s.live_args() {
            let _ = write!(out, ",\"{}\":{}", crate::registry::json_escape(key), value);
        }
        out.push_str("}}");
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(trace: u128, span: u64, start: u64) -> SpanRecord {
        SpanRecord::new(trace, span, 0, "t", start, start + 10, 1)
    }

    #[test]
    fn ring_overwrites_oldest_and_reports_evictions() {
        let f = FlightRecorder::new(4);
        assert_eq!(f.record_batch(&[rec(1, 1, 0), rec(1, 2, 10)]), 0);
        assert_eq!(f.record_batch(&[rec(2, 3, 20), rec(2, 4, 30)]), 0);
        assert_eq!(f.len(), 4);
        // Fifth span evicts the oldest.
        assert_eq!(f.record_batch(&[rec(3, 5, 40)]), 1);
        let spans = f.snapshot();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].span, 2, "oldest surviving span");
        assert_eq!(spans[3].span, 5, "newest span last");
    }

    #[test]
    fn oversized_batch_keeps_newest_suffix() {
        let f = FlightRecorder::new(2);
        let batch: Vec<SpanRecord> = (0..5).map(|i| rec(9, i + 1, i * 10)).collect();
        assert_eq!(f.record_batch(&batch), 3);
        let spans = f.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].span, spans[1].span), (4, 5));
    }

    #[test]
    fn last_traces_selects_newest_distinct_traces() {
        let f = FlightRecorder::new(16);
        f.record_batch(&[rec(1, 1, 0), rec(1, 2, 5)]);
        f.record_batch(&[rec(2, 3, 10)]);
        f.record_batch(&[rec(3, 4, 20), rec(3, 5, 25)]);
        let last2 = f.last_traces(2);
        assert!(last2.iter().all(|s| s.trace == 2 || s.trace == 3));
        assert_eq!(last2.len(), 3);
        // Oldest-first ordering is preserved.
        assert_eq!(last2[0].span, 3);
        assert!(f.last_traces(0).is_empty());
        assert_eq!(f.last_traces(10).len(), 5);
    }

    #[test]
    fn chrome_json_shape() {
        let spans = [
            rec(0xab, 1, 1_500).with_arg("k", 5),
            SpanRecord::new(0xab, 2, 1, "child", 2_000, 2_250, 2),
        ];
        let json = chrome_trace_json(&spans);
        assert!(
            json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["),
            "{json}"
        );
        assert!(json.trim_end().ends_with("]}"), "{json}");
        assert!(json.contains("\"ts\":1.500"), "{json}");
        assert!(json.contains("\"dur\":0.010"), "{json}");
        assert!(json.contains("\"k\":5"), "{json}");
        assert!(json.contains("\"parent\":\"0000000000000001\""), "{json}");
        // Balanced braces/brackets — cheap well-formedness check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(
            json.matches('[').count(),
            json.matches(']').count(),
            "{json}"
        );
    }

    #[test]
    fn clear_empties_the_ring() {
        let f = FlightRecorder::new(4);
        f.record_batch(&[rec(1, 1, 0)]);
        assert!(!f.is_empty());
        f.clear();
        assert!(f.is_empty());
        assert_eq!(f.capacity(), 4);
        // Ring still usable after clear.
        f.record_batch(&[rec(2, 2, 0)]);
        assert_eq!(f.snapshot().len(), 1);
    }
}
