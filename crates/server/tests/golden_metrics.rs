//! Golden-file test for the `/metrics` payload: a registry populated
//! with deterministic values (and the server's `# HELP` descriptions)
//! must render byte-for-byte what `tests/golden_metrics.txt` records.
//! Any drift in the exposition format — escaping, HELP/TYPE placement,
//! series ordering, histogram layout — fails here first.
//!
//! Re-bless after an intentional change:
//! `NNCELL_BLESS=1 cargo test -p nncell-server --test golden_metrics`

use nncell_core::Registry;
use nncell_obs::format_labels;

fn build_fixture() -> String {
    let r = Registry::new();
    nncell_server::describe_http_metrics(&r);

    // A deterministic slice of what a live server exposes, covering
    // every metric kind, labeled and unlabeled series, and label-value
    // escaping.
    r.counter("nncell_http_requests_total{route=\"/query\",code=\"200\"}")
        .add(12);
    r.counter("nncell_http_requests_total{route=\"/query\",code=\"503\"}")
        .add(2);
    r.counter("nncell_http_requests_total{route=\"(shed)\",code=\"429\"}")
        .add(5);
    r.counter("nncell_http_shed_total").add(5);
    r.gauge("nncell_http_queue_depth").set(3);
    r.gauge("nncell_http_inflight").set(2);
    r.counter("nncell_http_panics_total").add(1);
    r.counter("nncell_http_deadline_exceeded_total").add(2);
    r.gauge("nncell_http_retry_after_seconds").set(1);
    let h = r.histogram("nncell_http_request_latency_ns");
    h.record(1_000);
    h.record(50_000);
    h.record(50_000);
    h.record(3_000_000);

    // The tracing counter family — registered by `Server::bind` on a
    // live server; HELP text comes from `describe_http_metrics` above.
    r.counter("nncell_trace_spans_total").add(24);
    r.counter("nncell_trace_traces_total").add(4);
    r.counter("nncell_trace_dropped_spans_total").add(1);

    // Label-value escaping must survive the round trip.
    r.describe(
        "nncell_http_client_errors_total",
        "Client errors by reason.\nSecond line with a \\ backslash.",
    );
    r.counter(&format!(
        "nncell_http_client_errors_total{}",
        format_labels(&[("reason", "bad \"quote\" and\nnewline")])
    ))
    .inc();

    r.snapshot().to_prometheus()
}

#[test]
fn metrics_payload_matches_golden_file() {
    let got = build_fixture();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden_metrics.txt");
    if std::env::var_os("NNCELL_BLESS").is_some() {
        std::fs::write(&path, &got).expect("bless golden file");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .expect("golden file missing — run with NNCELL_BLESS=1 to create it");
    assert_eq!(
        got, want,
        "Prometheus exposition drifted from tests/golden_metrics.txt;\n\
         if intentional, re-bless with NNCELL_BLESS=1"
    );
}
