//! Golden-file test for the Chrome trace-event JSON export: a
//! deterministic span tree rendered through [`chrome_trace_json`] must
//! match `tests/golden_chrome_trace.json` byte-for-byte. Any drift in
//! the event shape — field order, timestamp formatting, id hex widths,
//! args — fails here first, before Perfetto ever sees it.
//!
//! Re-bless after an intentional change:
//! `NNCELL_BLESS=1 cargo test -p nncell-obs --test golden_chrome_trace`

use nncell_obs::{chrome_trace_json, SpanRecord};

/// A miniature request trace shaped like the real server emits: root →
/// queue-wait + parse + handle(shard fan-out → engine) + serialize,
/// with hand-picked timestamps (µs-scale) so every formatting branch
/// (zero duration, sub-µs remainder, args) is exercised.
fn build_fixture() -> String {
    const TRACE: u128 = 0x0123_4567_89ab_cdef_0123_4567_89ab_cdef;
    let spans = [
        SpanRecord::new(TRACE, 0x10, 0x1, "server.request", 1_000, 950_500, 1)
            .with_arg("status", 200),
        SpanRecord::new(TRACE, 0x11, 0x10, "server.queue_wait", 1_000, 40_000, 1),
        SpanRecord::new(TRACE, 0x12, 0x10, "server.parse", 41_000, 42_750, 1),
        SpanRecord::new(TRACE, 0x13, 0x10, "server.handle", 43_000, 900_000, 1),
        SpanRecord::new(TRACE, 0x14, 0x13, "shard.query", 44_000, 400_000, 1).with_arg("shard", 0),
        SpanRecord::new(TRACE, 0x15, 0x14, "engine.query", 45_000, 399_000, 1)
            .with_arg("candidates", 17)
            .with_arg("pages", 3),
        SpanRecord::new(TRACE, 0x16, 0x13, "shard.query", 400_000, 890_000, 1).with_arg("shard", 1),
        SpanRecord::new(TRACE, 0x17, 0x16, "engine.query", 401_000, 889_123, 1)
            .with_arg("candidates", 9)
            .with_arg("pages", 2),
        SpanRecord::new(TRACE, 0x18, 0x10, "server.serialize", 900_100, 900_100, 1),
    ];
    chrome_trace_json(&spans)
}

#[test]
fn chrome_trace_export_matches_golden_file() {
    let got = build_fixture();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden_chrome_trace.json");
    if std::env::var_os("NNCELL_BLESS").is_some() {
        std::fs::write(&path, &got).expect("bless golden file");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .expect("golden file missing — run with NNCELL_BLESS=1 to create it");
    assert_eq!(
        got, want,
        "Chrome trace-event export drifted from tests/golden_chrome_trace.json;\n\
         if intentional, re-bless with NNCELL_BLESS=1"
    );
}
