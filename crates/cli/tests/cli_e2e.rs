//! End-to-end tests spawning the actual `nncell` binary.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_nncell"))
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("nncell_cli_e2e_{name}_{}", std::process::id()))
}

#[test]
fn generate_build_query_info_bench_pipeline() {
    let pts = tmp("pts.csv");
    let idx = tmp("idx.nncell");

    let out = bin()
        .args(["generate", "--kind", "uniform", "--n", "200", "--dim", "4"])
        .args(["--seed", "5", "--out", pts.to_str().unwrap()])
        .output()
        .expect("spawn generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = bin()
        .args(["build", "--points", pts.to_str().unwrap()])
        .args(["--out", idx.to_str().unwrap()])
        .output()
        .expect("spawn build");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("built 200 points"));

    let out = bin()
        .args(["query", "--index", idx.to_str().unwrap()])
        .args(["--point", "0.5,0.5,0.5,0.5", "--k", "3"])
        .output()
        .expect("spawn query");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.lines().count() >= 3, "three kNN lines: {text}");

    let out = bin()
        .args(["info", "--index", idx.to_str().unwrap()])
        .output()
        .expect("spawn info");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("live points    : 200"), "{text}");
    assert!(text.contains("point slots    : 200 (0 dead)"), "{text}");

    let out = bin()
        .args(["verify", "--index", idx.to_str().unwrap()])
        .output()
        .expect("spawn verify");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("ok: checksum and structure verified"));

    let out = bin()
        .args(["bench", "--index", idx.to_str().unwrap(), "--queries", "20"])
        .output()
        .expect("spawn bench");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("20 queries"));

    std::fs::remove_file(&pts).ok();
    std::fs::remove_file(&idx).ok();
}

#[test]
fn durable_build_insert_remove_crash_recover_pipeline() {
    let pts = tmp("wal_pts.csv");
    let db = tmp("wal_db");
    std::fs::remove_dir_all(&db).ok();

    bin()
        .args(["generate", "--n", "80", "--dim", "3", "--seed", "9"])
        .args(["--out", pts.to_str().unwrap()])
        .output()
        .unwrap();
    let out = bin()
        .args(["build", "--points", pts.to_str().unwrap()])
        .args(["--wal", db.to_str().unwrap()])
        .output()
        .expect("spawn build --wal");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("durable directory initialized"));

    // Journal two inserts and a remove (each acknowledged once fsynced).
    let out = bin()
        .args([
            "insert",
            "--wal",
            db.to_str().unwrap(),
            "--point",
            "0.91,0.92,0.93",
        ])
        .output()
        .expect("spawn insert");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("inserted point #80"));
    let out = bin()
        .args([
            "insert",
            "--wal",
            db.to_str().unwrap(),
            "--point",
            "0.11,0.12,0.13",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = bin()
        .args(["remove", "--wal", db.to_str().unwrap(), "--id", "80"])
        .output()
        .expect("spawn remove");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("removed point #80"));

    // Removing a dead id journals nothing but still succeeds.
    let out = bin()
        .args(["remove", "--wal", db.to_str().unwrap(), "--id", "80"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("not live"));

    // Simulate a crash mid-append: tear the journal tail with garbage.
    // `build --wal` initializes a one-shard durable directory, so the
    // journal lives in its `shard-0` directory.
    let wal_file = std::fs::read_dir(db.join("shard-0"))
        .unwrap()
        .filter_map(|e| e.ok())
        .find(|e| e.file_name().to_string_lossy().starts_with("wal."))
        .expect("wal file present")
        .path();
    let mut bytes = std::fs::read(&wal_file).unwrap();
    bytes.extend_from_slice(&[0x7F, 0x00, 0x13]);
    std::fs::write(&wal_file, &bytes).unwrap();

    // Recovery replays the acknowledged prefix and reports the torn tail.
    let out = bin()
        .args(["recover", "--wal", db.to_str().unwrap(), "--checkpoint"])
        .output()
        .expect("spawn recover");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("records replayed: 3"), "{text}");
    assert!(text.contains("torn record"), "{text}");
    assert!(text.contains("live points    : 81"), "{text}");
    assert!(text.contains("checkpointed"), "{text}");

    // Removed point #80 keeps a dead slot, which `info` and `verify` count.
    let out = bin()
        .args(["info", "--index", db.to_str().unwrap()])
        .output()
        .expect("spawn info");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("point slots    : 82 (1 dead)"), "{text}");
    let out = bin()
        .args(["verify", "--index", db.to_str().unwrap()])
        .output()
        .expect("spawn verify");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        text.contains("81 live of 82 point slot(s), 1 dead"),
        "{text}"
    );

    // Queries work straight off the durable directory; the surviving
    // insert near (0.11, 0.12, 0.13) is found, the removed one is gone.
    let out = bin()
        .args([
            "query",
            "--wal",
            db.to_str().unwrap(),
            "--point",
            "0.11,0.12,0.13",
        ])
        .output()
        .expect("spawn query --wal");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("#81 at distance 0.000000"), "{text}");

    std::fs::remove_file(&pts).ok();
    std::fs::remove_dir_all(&db).ok();
}

#[test]
fn stats_reports_metrics_snapshot_and_slow_queries() {
    let pts = tmp("stats_pts.csv");
    let idx = tmp("stats_idx.nncell");
    bin()
        .args(["generate", "--n", "150", "--dim", "4", "--seed", "3"])
        .args(["--out", pts.to_str().unwrap()])
        .output()
        .unwrap();
    let out = bin()
        .args(["build", "--points", pts.to_str().unwrap()])
        .args(["--out", idx.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Human-readable summary: percentiles, counters, and the point tree.
    let out = bin()
        .args(["stats", "--index", idx.to_str().unwrap(), "--queries", "40"])
        .output()
        .expect("spawn stats");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("latency        : p50"), "{text}");
    assert!(text.contains("40 queries"), "{text}");
    assert!(text.contains("point tree"), "{text}");

    // --json prints the raw registry snapshot; the query counter matches
    // the workload exactly (40 issued, 0 errors).
    let out = bin()
        .args(["stats", "--index", idx.to_str().unwrap()])
        .args(["--queries", "40", "--k", "3", "--json"])
        .output()
        .expect("spawn stats --json");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        json.contains("\"nncell_queries_total\": {\"type\": \"counter\", \"value\": 40}"),
        "{json}"
    );
    assert!(
        json.contains("\"nncell_query_errors_total\": {\"type\": \"counter\", \"value\": 0}"),
        "{json}"
    );
    assert!(
        json.contains("\"nncell_live_points\": {\"type\": \"gauge\", \"value\": 150}"),
        "{json}"
    );
    assert!(
        json.contains("\"nncell_query_latency_ns\": {\"type\": \"histogram\", \"count\": 40,"),
        "{json}"
    );
    assert!(
        json.trim_start().starts_with('{') && json.trim_end().ends_with('}'),
        "{json}"
    );

    // --prom renders Prometheus exposition text.
    let out = bin()
        .args(["stats", "--index", idx.to_str().unwrap()])
        .args(["--queries", "10", "--prom"])
        .output()
        .expect("spawn stats --prom");
    assert!(out.status.success());
    let prom = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        prom.contains("# TYPE nncell_query_latency_ns histogram"),
        "{prom}"
    );
    assert!(prom.contains("nncell_queries_total 10"), "{prom}");

    // --slow with threshold 0 captures every query in the ring.
    let out = bin()
        .args(["stats", "--index", idx.to_str().unwrap()])
        .args(["--queries", "12", "--slow", "--slow-threshold-us", "0"])
        .output()
        .expect("spawn stats --slow");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("12 total seen"), "{text}");
    assert!(text.contains("candidates="), "{text}");

    // The durable surface adds WAL counters to the same snapshot.
    let db = tmp("stats_db");
    std::fs::remove_dir_all(&db).ok();
    bin()
        .args(["build", "--points", pts.to_str().unwrap()])
        .args(["--wal", db.to_str().unwrap()])
        .output()
        .unwrap();
    let out = bin()
        .args(["stats", "--wal", db.to_str().unwrap(), "--queries", "5"])
        .output()
        .expect("spawn stats --wal");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("durability"), "{text}");

    // A sharded index: each query is recorded once, in one unlabeled
    // query series and one slow-query ring.
    let sharded = tmp("stats_sharded");
    std::fs::remove_dir_all(&sharded).ok();
    let out = bin()
        .args(["build", "--points", pts.to_str().unwrap()])
        .args(["--out", sharded.to_str().unwrap(), "--shards", "2"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = bin()
        .args([
            "stats",
            "--index",
            sharded.to_str().unwrap(),
            "--queries",
            "40",
        ])
        .output()
        .expect("spawn stats on a sharded index");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        text.contains("queries        : 40 ok, 0 error(s)"),
        "{text}"
    );
    let out = bin()
        .args(["stats", "--index", sharded.to_str().unwrap()])
        .args(["--queries", "40", "--json"])
        .output()
        .expect("spawn stats --json on a sharded index");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        json.contains("\"nncell_queries_total\": {\"type\": \"counter\", \"value\": 40}"),
        "{json}"
    );
    let out = bin()
        .args(["stats", "--index", sharded.to_str().unwrap()])
        .args(["--queries", "12", "--slow", "--slow-threshold-us", "0"])
        .output()
        .expect("spawn stats --slow on a sharded index");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert_eq!(text.matches("slow queries (threshold").count(), 1, "{text}");
    assert!(text.contains("12 total seen"), "{text}");

    std::fs::remove_file(&pts).ok();
    std::fs::remove_file(&idx).ok();
    std::fs::remove_dir_all(&db).ok();
    std::fs::remove_dir_all(&sharded).ok();
}

#[test]
fn bad_usage_fails_cleanly() {
    // Unknown command.
    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    // Unknown flag.
    let out = bin()
        .args(["generate", "--bogus", "1", "--out", "/dev/null"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));

    // Missing index file.
    let out = bin()
        .args(["info", "--index", "/nonexistent/idx"])
        .output()
        .unwrap();
    assert!(!out.status.success());

    // Dimension mismatch in query.
    let pts = tmp("dim.csv");
    let idx = tmp("dim.nncell");
    bin()
        .args([
            "generate",
            "--n",
            "50",
            "--dim",
            "3",
            "--out",
            pts.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    bin()
        .args([
            "build",
            "--points",
            pts.to_str().unwrap(),
            "--out",
            idx.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    let out = bin()
        .args([
            "query",
            "--index",
            idx.to_str().unwrap(),
            "--point",
            "0.5,0.5",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    // The typed QueryError::DimMismatch message, identical on every surface.
    assert!(String::from_utf8_lossy(&out.stderr).contains("coordinate(s)"));
    assert!(String::from_utf8_lossy(&out.stderr).contains("3-dimensional"));
    std::fs::remove_file(&pts).ok();
    std::fs::remove_file(&idx).ok();
}

#[test]
fn help_prints_usage() {
    let out = bin().arg("help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
    // No args behaves like help.
    let out = bin().output().unwrap();
    assert!(out.status.success());
}
