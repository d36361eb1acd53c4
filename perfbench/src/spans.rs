//! Span collection for the traced run.
//!
//! The benchmark opens its own root span around every public call it
//! makes; the spans the program already emits (`shard.query`,
//! `engine.query`, `engine.tail_merge`, `wal.append`, `server.*`) nest
//! under them. Spans land in the process flight recorder, an 8192-slot
//! ring, which is drained here long before it can wrap.

use std::collections::BTreeMap;

use nncell_obs::trace::{self, SpanRecord};

/// Drain once the ring holds this many spans; one operation records far
/// fewer than the remaining slots.
const DRAIN_AT: usize = 4096;

#[derive(Default)]
pub struct SpanLog {
    durations: BTreeMap<&'static str, Vec<u64>>,
    /// The most recent drained batch, written out as a Chrome trace.
    last_batch: Vec<SpanRecord>,
}

impl SpanLog {
    /// Clears the ring and samples every root span from here on.
    pub fn start() -> Self {
        trace::flight().clear();
        trace::set_sampling(1);
        SpanLog::default()
    }

    /// Drains the ring if it is filling up. Call between operations.
    pub fn drain_if_full(&mut self) {
        if trace::flight().len() >= DRAIN_AT {
            self.drain();
        }
    }

    fn drain(&mut self) {
        let batch = trace::flight().snapshot();
        trace::flight().clear();
        for s in &batch {
            self.durations
                .entry(s.name)
                .or_default()
                .push(s.end_ns.saturating_sub(s.start_ns));
        }
        if !batch.is_empty() {
            self.last_batch = batch;
        }
    }

    /// Drains what is left and turns sampling off again.
    pub fn stop(&mut self) {
        self.drain();
        trace::set_sampling(0);
    }

    /// Median duration of the spans named `name`, in µs (0 if none).
    pub fn p50_us(&self, name: &str) -> f64 {
        self.durations
            .get(name)
            .map_or(0.0, |d| crate::measure::p50_us(d))
    }

    /// The last drained batch as Chrome trace-event JSON.
    pub fn chrome_json(&self) -> String {
        nncell_obs::chrome_trace_json(&self.last_batch)
    }
}
