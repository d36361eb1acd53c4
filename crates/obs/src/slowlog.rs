//! Fixed-capacity slow-query ring buffer.
//!
//! The threshold check is a single relaxed atomic load, so when the
//! threshold is disabled (the default, `u64::MAX`) the query path pays
//! one load and a predictable branch. When a query is slow enough to
//! record, the ring's mutex is taken and the query point is copied into
//! a slot whose buffer was preallocated at construction — recording
//! never heap-allocates as long as the query dimensionality does not
//! exceed the dimensionality the log was built for.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One captured slow query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SlowQueryEntry {
    /// Monotonic sequence number (total slow queries seen, 1-based);
    /// gaps in a drained ring mean older entries were overwritten.
    pub seq: u64,
    /// Query latency in nanoseconds.
    pub latency_ns: u64,
    /// The query point (copied).
    pub point: Vec<f64>,
    /// Requested neighbor count.
    pub k: usize,
    /// Candidate set size for this query.
    pub candidates: usize,
    /// Pages touched by this query.
    pub pages: usize,
    /// Trace id of the sampled trace this query ran under, or 0 when
    /// the query was not traced. Links the slow-log entry to its span
    /// timeline in the flight recorder (`GET /debug/trace`).
    pub trace_id: u128,
}

#[derive(Debug)]
struct Ring {
    slots: Vec<SlowQueryEntry>,
    /// Next slot to overwrite.
    next: usize,
    /// Number of live entries (saturates at `slots.len()`).
    len: usize,
}

/// Threshold-gated ring buffer of [`SlowQueryEntry`] records.
#[derive(Debug)]
pub struct SlowQueryLog {
    /// Latency threshold in ns; `u64::MAX` disables recording.
    threshold_ns: AtomicU64,
    /// Total queries at or over threshold (including overwritten ones).
    seen: AtomicU64,
    ring: Mutex<Ring>,
}

impl SlowQueryLog {
    /// A log holding up to `capacity` entries, each with a point buffer
    /// preallocated for `dim` coordinates. Starts disabled.
    pub fn new(capacity: usize, dim: usize) -> Self {
        let slots = (0..capacity.max(1))
            .map(|_| SlowQueryEntry {
                point: Vec::with_capacity(dim),
                ..SlowQueryEntry::default()
            })
            .collect();
        Self {
            threshold_ns: AtomicU64::new(u64::MAX),
            seen: AtomicU64::new(0),
            ring: Mutex::new(Ring {
                slots,
                next: 0,
                len: 0,
            }),
        }
    }

    /// Sets the recording threshold; queries with latency ≥ this many
    /// nanoseconds are captured. `u64::MAX` disables recording.
    pub fn set_threshold_ns(&self, ns: u64) {
        self.threshold_ns.store(ns, Ordering::Relaxed);
    }

    /// Current threshold in nanoseconds (`u64::MAX` = disabled).
    pub fn threshold_ns(&self) -> u64 {
        self.threshold_ns.load(Ordering::Relaxed)
    }

    /// Total number of queries that met the threshold since creation
    /// (including ones already overwritten in the ring).
    pub fn total_seen(&self) -> u64 {
        self.seen.load(Ordering::Relaxed)
    }

    /// Records a query if it meets the threshold. The fast path (under
    /// threshold) is one atomic load; the slow path copies into a
    /// preallocated slot under the ring mutex.
    #[inline]
    pub fn record(
        &self,
        latency_ns: u64,
        point: &[f64],
        k: usize,
        candidates: usize,
        pages: usize,
        trace_id: u128,
    ) {
        if latency_ns < self.threshold_ns.load(Ordering::Relaxed) {
            return;
        }
        let seq = self.seen.fetch_add(1, Ordering::Relaxed) + 1;
        let mut ring = match self.ring.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        let i = ring.next;
        ring.next = (i + 1) % ring.slots.len();
        ring.len = (ring.len + 1).min(ring.slots.len());
        let slot = &mut ring.slots[i];
        slot.seq = seq;
        slot.latency_ns = latency_ns;
        slot.point.clear();
        slot.point.extend_from_slice(point);
        slot.k = k;
        slot.candidates = candidates;
        slot.pages = pages;
        slot.trace_id = trace_id;
    }

    /// Copies the live entries out, oldest first, and clears the ring.
    /// (The `seen` total and the threshold are left untouched.)
    pub fn drain(&self) -> Vec<SlowQueryEntry> {
        let mut ring = match self.ring.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        let cap = ring.slots.len();
        let len = ring.len;
        let start = (ring.next + cap - len) % cap;
        let out = (0..len)
            .map(|i| ring.slots[(start + i) % cap].clone())
            .collect();
        ring.len = 0;
        ring.next = 0;
        out
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        match self.ring.lock() {
            Ok(g) => g.len,
            Err(p) => p.into_inner().len,
        }
    }

    /// True when no entries are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default() {
        let log = SlowQueryLog::new(4, 2);
        log.record(u64::MAX - 1, &[0.0, 0.0], 1, 10, 2, 0);
        assert!(log.is_empty());
        assert_eq!(log.total_seen(), 0);
    }

    #[test]
    fn records_over_threshold_and_wraps() {
        let log = SlowQueryLog::new(2, 1);
        log.set_threshold_ns(100);
        log.record(99, &[1.0], 1, 1, 1, 0); // under: dropped
        log.record(100, &[2.0], 1, 2, 1, 0);
        log.record(150, &[3.0], 2, 3, 2, 0xbeef);
        log.record(200, &[4.0], 1, 4, 3, 0); // overwrites seq 1
        assert_eq!(log.total_seen(), 3);
        let entries = log.drain();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].seq, 2);
        assert_eq!(entries[0].point, vec![3.0]);
        assert_eq!(entries[0].trace_id, 0xbeef);
        assert_eq!(entries[1].seq, 3);
        assert_eq!(entries[1].latency_ns, 200);
        // Drained: ring is empty again but the total persists.
        assert!(log.is_empty());
        assert_eq!(log.total_seen(), 3);
    }
}
