//! Name → metric registry and point-in-time snapshots with
//! Prometheus-text and JSON rendering (both hand-rolled, no serde).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use crate::metrics::{bucket_upper_bound, Counter, Gauge, Histogram, HistogramSnapshot, BUCKETS};

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// Owns the name → metric map. The internal mutex is taken only when a
/// handle is first registered and when a snapshot is rendered — the hot
/// path works purely on the returned `Arc` handles.
///
/// Metric names follow the Prometheus convention
/// (`nncell_<subsystem>_<what>[_total]`, snake_case).
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
    /// Base metric name → `# HELP` text (optional, set via
    /// [`Registry::describe`]).
    helps: Mutex<BTreeMap<String, String>>,
}

impl Registry {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Returns the counter registered under `name`, creating it on
    /// first use. If `name` is already taken by a different metric
    /// kind, a detached (unexported) handle is returned instead of
    /// panicking — instrumentation must never take down the data path.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = match self.metrics.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => Arc::new(Counter::new()),
        }
    }

    /// Returns the gauge registered under `name` (see [`Registry::counter`]
    /// for the kind-conflict policy).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = match self.metrics.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            _ => Arc::new(Gauge::new()),
        }
    }

    /// Returns the histogram registered under `name` (see
    /// [`Registry::counter`] for the kind-conflict policy).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = match self.metrics.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => Arc::new(Histogram::new()),
        }
    }

    /// Attaches `# HELP` text to a metric family (identified by its
    /// **base** name, without any label block). Rendered once per family
    /// by [`Snapshot::to_prometheus`], immediately before the `# TYPE`
    /// line. Re-describing a family replaces its text.
    pub fn describe(&self, base: &str, help: &str) {
        let mut helps = match self.helps.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        helps.insert(base.to_string(), help.to_string());
    }

    /// Copies every registered metric into an immutable [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let map = match self.metrics.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        let helps = match self.helps.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        Snapshot {
            metrics: map
                .iter()
                .map(|(name, m)| {
                    let v = match m {
                        Metric::Counter(c) => MetricSnapshot::Counter(c.get()),
                        Metric::Gauge(g) => MetricSnapshot::Gauge(g.get()),
                        Metric::Histogram(h) => MetricSnapshot::Histogram(Box::new(h.snapshot())),
                    };
                    (name.clone(), v)
                })
                .collect(),
            helps: helps.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
        }
    }
}

/// Renders a label set as a Prometheus-style series suffix:
/// `&[("shard", "3")]` → `{shard="3"}`, the empty slice → `""`.
/// Append the result to a base metric name to form a registry key —
/// [`Snapshot::to_prometheus`] and [`Snapshot::sum_counters`] understand
/// keys of this shape.
pub fn format_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
    }
    out.push('}');
    out
}

/// Escapes a label value per the Prometheus text exposition format:
/// backslash, double-quote, and newline become `\\`, `\"`, `\n`.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes `# HELP` text per the Prometheus text exposition format:
/// backslash and newline become `\\` and `\n` (quotes stay literal).
fn escape_help_text(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Splits a registry key into `(base_name, label_block)` where the label
/// block includes the braces (`""` when the key carries no labels).
fn split_series(key: &str) -> (&str, &str) {
    match key.find('{') {
        Some(i) if key.ends_with('}') => (&key[..i], &key[i..]),
        _ => (key, ""),
    }
}

/// One metric's value inside a [`Snapshot`].
///
/// The histogram variant is boxed: a [`HistogramSnapshot`] carries its
/// full bucket array (~0.5 KiB), which would otherwise inflate every
/// counter and gauge entry to the same size.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricSnapshot {
    Counter(u64),
    Gauge(i64),
    Histogram(Box<HistogramSnapshot>),
}

/// A point-in-time copy of a [`Registry`], sorted by metric name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// `(name, value)` pairs in lexicographic name order.
    pub metrics: Vec<(String, MetricSnapshot)>,
    /// `(base_name, help_text)` pairs in lexicographic name order, from
    /// [`Registry::describe`].
    pub helps: Vec<(String, String)>,
}

impl Snapshot {
    /// Looks up the `# HELP` text attached to a family base name.
    fn help_for(&self, base: &str) -> Option<&str> {
        self.helps
            .binary_search_by(|(n, _)| n.as_str().cmp(base))
            .ok()
            .map(|i| self.helps[i].1.as_str())
    }

    /// Looks up a metric by name.
    pub fn get(&self, name: &str) -> Option<&MetricSnapshot> {
        self.metrics
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.metrics[i].1)
    }

    /// Convenience: the value of a counter, or `None` if absent or not
    /// a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricSnapshot::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Convenience: the value of a gauge.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.get(name)? {
            MetricSnapshot::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// Convenience: a histogram snapshot.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.get(name)? {
            MetricSnapshot::Histogram(h) => Some(h.as_ref()),
            _ => None,
        }
    }

    /// Sums every counter series whose base name is `base` — the bare
    /// `base` key plus any labeled `base{…}` variants (e.g. the per-shard
    /// `nncell_queries_total{shard="…"}` family). Returns `None` when no
    /// such counter exists at all.
    pub fn sum_counters(&self, base: &str) -> Option<u64> {
        let mut total = 0u64;
        let mut seen = false;
        for (name, m) in &self.metrics {
            if let MetricSnapshot::Counter(v) = m {
                if split_series(name).0 == base {
                    total += v;
                    seen = true;
                }
            }
        }
        seen.then_some(total)
    }

    /// Renders the snapshot in the Prometheus text exposition format.
    /// Histograms emit cumulative `_bucket{le="…"}` series (up to the
    /// highest non-empty bucket, then `+Inf`), `_sum`, and `_count`.
    ///
    /// Registry keys may carry a label block (`name{shard="0"}`, see
    /// [`format_labels`]): the `# TYPE` comment is emitted once per base
    /// name (series of one family sort adjacently), and histogram labels
    /// are merged into the `le` block of each `_bucket` line.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_base: Option<String> = None;
        for (name, m) in &self.metrics {
            let (base, labels) = split_series(name);
            // `,shard="0"` when labeled, `""` when not — appended after
            // the `le` label inside bucket braces.
            let inner = if labels.is_empty() {
                String::new()
            } else {
                format!(",{}", &labels[1..labels.len() - 1])
            };
            let new_family = last_base.as_deref() != Some(base);
            if new_family {
                if let Some(help) = self.help_for(base) {
                    let _ = writeln!(out, "# HELP {base} {}", escape_help_text(help));
                }
            }
            match m {
                MetricSnapshot::Counter(v) => {
                    if new_family {
                        let _ = writeln!(out, "# TYPE {base} counter");
                    }
                    let _ = writeln!(out, "{base}{labels} {v}");
                }
                MetricSnapshot::Gauge(v) => {
                    if new_family {
                        let _ = writeln!(out, "# TYPE {base} gauge");
                    }
                    let _ = writeln!(out, "{base}{labels} {v}");
                }
                MetricSnapshot::Histogram(h) => {
                    if new_family {
                        let _ = writeln!(out, "# TYPE {base} histogram");
                    }
                    let last = h
                        .counts
                        .iter()
                        .rposition(|&c| c > 0)
                        .map_or(0, |i| (i + 1).min(BUCKETS - 1));
                    let mut cum = 0u64;
                    for i in 0..=last {
                        cum += h.counts[i];
                        let _ = writeln!(
                            out,
                            "{base}_bucket{{le=\"{}\"{inner}}} {cum}",
                            bucket_upper_bound(i)
                        );
                    }
                    let count = h.count();
                    let _ = writeln!(out, "{base}_bucket{{le=\"+Inf\"{inner}}} {count}");
                    let _ = writeln!(out, "{base}_sum{labels} {}", h.sum);
                    let _ = writeln!(out, "{base}_count{labels} {count}");
                }
            }
            last_base = Some(base.to_string());
        }
        out
    }

    /// Renders the snapshot as a JSON object keyed by metric name.
    /// Counters/gauges become `{"type":…,"value":…}`; histograms carry
    /// count/sum/max/mean, the standard percentiles, and the non-empty
    /// buckets as `[upper_bound, count]` pairs. Hand-rolled — metric
    /// names are snake_case identifiers, so no string escaping is
    /// needed beyond what `json_escape` provides.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (name, m)) in self.metrics.iter().enumerate() {
            let comma = if i + 1 < self.metrics.len() { "," } else { "" };
            match m {
                MetricSnapshot::Counter(v) => {
                    let _ = writeln!(
                        out,
                        "  \"{}\": {{\"type\": \"counter\", \"value\": {v}}}{comma}",
                        json_escape(name)
                    );
                }
                MetricSnapshot::Gauge(v) => {
                    let _ = writeln!(
                        out,
                        "  \"{}\": {{\"type\": \"gauge\", \"value\": {v}}}{comma}",
                        json_escape(name)
                    );
                }
                MetricSnapshot::Histogram(h) => {
                    let buckets: Vec<String> = h
                        .counts
                        .iter()
                        .enumerate()
                        .filter(|(_, &c)| c > 0)
                        .map(|(i, &c)| format!("[{}, {c}]", bucket_upper_bound(i)))
                        .collect();
                    let _ = writeln!(
                        out,
                        "  \"{}\": {{\"type\": \"histogram\", \"count\": {}, \"sum\": {}, \
                         \"max\": {}, \"mean\": {:.3}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \
                         \"buckets\": [{}]}}{comma}",
                        json_escape(name),
                        h.count(),
                        h.sum,
                        h.max,
                        h.mean(),
                        h.percentile(0.50),
                        h.percentile(0.90),
                        h.percentile(0.99),
                        buckets.join(", ")
                    );
                }
            }
        }
        out.push_str("}\n");
        out
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_same_handle() {
        let r = Registry::new();
        let a = r.counter("nncell_test_total");
        let b = r.counter("nncell_test_total");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(r.snapshot().counter("nncell_test_total"), Some(3));
    }

    #[test]
    fn kind_conflict_returns_detached_handle() {
        let r = Registry::new();
        let c = r.counter("nncell_thing");
        c.add(5);
        // Same name as a gauge: detached, does not clobber the counter.
        let g = r.gauge("nncell_thing");
        g.set(-1);
        assert_eq!(r.snapshot().counter("nncell_thing"), Some(5));
    }

    #[test]
    fn prometheus_rendering() {
        let r = Registry::new();
        r.counter("nncell_queries_total").add(4);
        r.gauge("nncell_live_points").set(100);
        let h = r.histogram("nncell_query_latency_ns");
        h.record(3);
        h.record(5);
        let text = r.snapshot().to_prometheus();
        assert!(
            text.contains("# TYPE nncell_queries_total counter"),
            "{text}"
        );
        assert!(text.contains("nncell_queries_total 4"), "{text}");
        assert!(text.contains("nncell_live_points 100"), "{text}");
        // Bucket 2 (ub 3) holds the 3; bucket 3 (ub 7) the 5; cumulative.
        assert!(
            text.contains("nncell_query_latency_ns_bucket{le=\"3\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("nncell_query_latency_ns_bucket{le=\"7\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("nncell_query_latency_ns_bucket{le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(text.contains("nncell_query_latency_ns_sum 8"), "{text}");
        assert!(text.contains("nncell_query_latency_ns_count 2"), "{text}");
    }

    #[test]
    fn labeled_series_render_with_shared_type_line() {
        let r = Registry::new();
        let labels = format_labels(&[("shard", "0")]);
        assert_eq!(labels, "{shard=\"0\"}");
        r.counter("nncell_queries_total").add(2);
        r.counter(&format!("nncell_queries_total{labels}")).add(3);
        r.counter(&format!(
            "nncell_queries_total{}",
            format_labels(&[("shard", "1")])
        ))
        .add(4);
        let h = r.histogram(&format!("nncell_query_latency_ns{labels}"));
        h.record(3);
        let text = r.snapshot().to_prometheus();
        // One TYPE line for the whole family, three series.
        assert_eq!(
            text.matches("# TYPE nncell_queries_total counter").count(),
            1,
            "{text}"
        );
        assert!(text.contains("nncell_queries_total 2"), "{text}");
        assert!(
            text.contains("nncell_queries_total{shard=\"0\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("nncell_queries_total{shard=\"1\"} 4"),
            "{text}"
        );
        // Histogram labels merge into the le block.
        assert!(
            text.contains("nncell_query_latency_ns_bucket{le=\"3\",shard=\"0\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("nncell_query_latency_ns_bucket{le=\"+Inf\",shard=\"0\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("nncell_query_latency_ns_sum{shard=\"0\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("nncell_query_latency_ns_count{shard=\"0\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(
            format_labels(&[("path", "a\\b\"c\nd")]),
            "{path=\"a\\\\b\\\"c\\nd\"}"
        );
        let r = Registry::new();
        r.counter(&format!(
            "nncell_esc_total{}",
            format_labels(&[("route", "/query\"x\"")])
        ))
        .inc();
        let text = r.snapshot().to_prometheus();
        assert!(
            text.contains("nncell_esc_total{route=\"/query\\\"x\\\"\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn help_rendered_once_per_family_before_type() {
        let r = Registry::new();
        r.describe("nncell_h_total", "Requests handled.\nSecond line \\ done.");
        r.counter("nncell_h_total").inc();
        r.counter("nncell_h_total{shard=\"0\"}").add(2);
        r.counter("nncell_h_total{shard=\"1\"}").add(3);
        r.counter("nncell_undescribed_total").inc();
        let text = r.snapshot().to_prometheus();
        // Exactly one HELP and one TYPE line for the whole family, with
        // HELP first and newline/backslash escaped.
        assert_eq!(text.matches("# HELP nncell_h_total").count(), 1, "{text}");
        assert_eq!(
            text.matches("# TYPE nncell_h_total counter").count(),
            1,
            "{text}"
        );
        let help_pos = text.find("# HELP nncell_h_total").unwrap();
        let type_pos = text.find("# TYPE nncell_h_total").unwrap();
        assert!(help_pos < type_pos, "{text}");
        assert!(
            text.contains("# HELP nncell_h_total Requests handled.\\nSecond line \\\\ done."),
            "{text}"
        );
        // Families without a describe() get no HELP line.
        assert!(!text.contains("# HELP nncell_undescribed_total"), "{text}");
    }

    #[test]
    fn sum_counters_aggregates_label_family() {
        let r = Registry::new();
        r.counter("nncell_x_total").add(1);
        r.counter("nncell_x_total{shard=\"0\"}").add(2);
        r.counter("nncell_x_total{shard=\"1\"}").add(3);
        r.counter("nncell_x_total_other").add(100);
        let s = r.snapshot();
        assert_eq!(s.sum_counters("nncell_x_total"), Some(6));
        assert_eq!(s.sum_counters("nncell_missing"), None);
    }

    #[test]
    fn json_rendering_is_parseable_shape() {
        let r = Registry::new();
        r.counter("a_total").inc();
        r.histogram("b_hist").record(100);
        let json = r.snapshot().to_json();
        assert!(json.starts_with("{\n"), "{json}");
        assert!(json.trim_end().ends_with('}'), "{json}");
        assert!(
            json.contains("\"a_total\": {\"type\": \"counter\", \"value\": 1},"),
            "{json}"
        );
        assert!(
            json.contains("\"b_hist\": {\"type\": \"histogram\", \"count\": 1,"),
            "{json}"
        );
        assert!(json.contains("\"buckets\": [[127, 1]]"), "{json}");
    }

    #[test]
    fn snapshot_get_is_name_sorted() {
        let r = Registry::new();
        r.counter("z_total").inc();
        r.counter("a_total").add(7);
        let s = r.snapshot();
        assert_eq!(s.metrics[0].0, "a_total");
        assert_eq!(s.counter("z_total"), Some(1));
        assert!(s.get("missing").is_none());
    }
}
