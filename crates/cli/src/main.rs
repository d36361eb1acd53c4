//! `nncell` — command-line front end for the NN-cell index.
//!
//! ```text
//! nncell generate --kind uniform --n 2000 --dim 8 --seed 42 --out pts.csv
//! nncell build    --points pts.csv --out idx.nncell
//! nncell build    --points pts.csv --wal idx.db
//! nncell query    --index idx.nncell --point 0.1,0.2,... [--k 5]
//! nncell query    --wal idx.db --point 0.1,0.2,...
//! nncell insert   --wal idx.db --point 0.1,0.2,...
//! nncell remove   --wal idx.db --id 17
//! nncell recover  --wal idx.db [--checkpoint]
//! nncell flush    --wal idx.db
//! nncell info     --index idx.nncell
//! nncell verify   --index idx.nncell
//! nncell bench    --index idx.nncell --queries 200 --seed 7
//! nncell stats    --index idx.nncell [--json | --prom | --slow]
//! nncell stats    --server 127.0.0.1:8321
//! nncell serve    (--index idx.nncell | --wal idx.db) [--addr HOST:PORT]
//!                 [--threads 4] [--queue-depth 64] [--deadline-ms 2000]
//! ```
//!
//! Every command opens its index through [`ShardedIndex::open`], whatever
//! the layout: one index file, a saved sharded directory, or a durable
//! directory (unsharded or sharded). `--wal DIR` commands operate on a
//! crash-consistent directory: every insert/remove is journaled and
//! fsynced before it is acknowledged, and `recover` replays the journal
//! after a crash (see DESIGN.md §Durability).

mod args;
mod csv;

use args::Parsed;
use nncell_core::wal::WalTail;
use nncell_core::{
    BuildConfig, FoldConfig, InputPolicy, Query, QueryError, QueryResponse, Registry, ShardedIndex,
};
use nncell_data::{
    ClusteredGenerator, FourierGenerator, Generator, GridGenerator, SparseGenerator,
    UniformGenerator,
};
use nncell_geom::Point;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "help" || argv[0] == "--help" {
        print_help();
        return ExitCode::SUCCESS;
    }
    match run(argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(argv: Vec<String>) -> Result<(), String> {
    let p = Parsed::parse(argv).map_err(|e| e.to_string())?;
    match p.command.as_str() {
        "generate" => cmd_generate(&p),
        "build" => cmd_build(&p),
        "query" => cmd_query(&p),
        "insert" => cmd_insert(&p),
        "remove" => cmd_remove(&p),
        "recover" => cmd_recover(&p),
        "flush" => cmd_flush(&p),
        "info" => cmd_info(&p),
        "verify" => cmd_verify(&p),
        "bench" => cmd_bench(&p),
        "stats" => cmd_stats(&p),
        "serve" => cmd_serve(&p),
        "trace" => cmd_trace(&p),
        other => Err(format!("unknown command {other:?}; try `nncell help`")),
    }
}

fn cmd_generate(p: &Parsed) -> Result<(), String> {
    p.allow_only(&["kind", "n", "dim", "seed", "out", "clusters", "sigma"])
        .map_err(|e| e.to_string())?;
    let kind = p.get("kind").unwrap_or("uniform");
    let n: usize = p.get_or("n", 1_000).map_err(|e| e.to_string())?;
    let dim: usize = p.get_or("dim", 8).map_err(|e| e.to_string())?;
    let seed: u64 = p.get_or("seed", 42).map_err(|e| e.to_string())?;
    let out = p.require("out").map_err(|e| e.to_string())?;
    let points = match kind {
        "uniform" => UniformGenerator::new(dim).generate(n, seed),
        "grid" => GridGenerator::new(dim).generate(n, seed),
        "sparse" => SparseGenerator::new(dim).generate(n, seed),
        "clustered" => {
            let clusters: usize = p.get_or("clusters", 8).map_err(|e| e.to_string())?;
            let sigma: f64 = p.get_or("sigma", 0.05).map_err(|e| e.to_string())?;
            ClusteredGenerator::new(dim, clusters, sigma).generate(n, seed)
        }
        "fourier" => FourierGenerator::new(dim).generate(n, seed),
        other => return Err(format!("unknown --kind {other:?}")),
    };
    csv::write_points(out, &points).map_err(|e| e.to_string())?;
    println!("wrote {n} {kind} points (d={dim}) to {out}");
    Ok(())
}

fn cmd_build(p: &Parsed) -> Result<(), String> {
    p.allow_only(&["points", "out", "wal", "shards", "skip-invalid"])
        .map_err(|e| e.to_string())?;
    let points = csv::read_points(p.require("points").map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    let mut b = BuildConfig::builder();
    if p.get("skip-invalid").is_some() {
        b = b.input_policy(InputPolicy::Skip);
    }
    let cfg = b.build();
    let out = p.get("out");
    let wal = p.get("wal");
    if out.is_none() && wal.is_none() {
        return Err(
            "build needs --out FILE (plain snapshot), --wal DIR (durable directory), or both"
                .into(),
        );
    }
    let shards: usize = p.get_or("shards", 1).map_err(|e| e.to_string())?;
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    let t = Instant::now();
    let index = ShardedIndex::build(points, shards, cfg).map_err(|e| e.to_string())?;
    let bs = index.build_stats();
    let n = index.len();
    let mut sinks = Vec::new();
    // The save happens before the durable conversion consumes the index.
    if let Some(out) = out {
        if shards == 1 {
            index.shard(0).save(out).map_err(|e| e.to_string())?;
        } else {
            index.save(out).map_err(|e| e.to_string())?;
        }
        sinks.push(format!("saved to {out}"));
    }
    if let Some(dir) = wal {
        index.into_durable(dir).map_err(|e| e.to_string())?;
        sinks.push(format!("durable directory initialized at {dir}"));
    }
    println!(
        "built {n} points across {shards} shard(s) in {:.2} ms (bulk load {:.2} ms) — {}",
        t.elapsed().as_secs_f64() * 1e3,
        bs.profile.bulk_load.seconds() * 1e3,
        sinks.join(", ")
    );
    if bs.skipped_points > 0 {
        println!(
            "skipped {} invalid input point(s) (--skip-invalid)",
            bs.skipped_points
        );
    }
    Ok(())
}

/// Opens the index named by `--index PATH` or `--wal DIR`, whatever its
/// on-disk layout (see [`ShardedIndex::open`]).
fn open_index(p: &Parsed, cmd: &str) -> Result<ShardedIndex, String> {
    let path = match (p.get("index"), p.get("wal")) {
        (Some(path), None) | (None, Some(path)) => path,
        _ => {
            return Err(format!(
                "{cmd} needs exactly one of --index FILE or --wal DIR"
            ))
        }
    };
    ShardedIndex::open(path).map_err(|e| e.to_string())
}

/// Opens the durable directory named by `--wal DIR` for a write command.
fn open_durable_index(p: &Parsed) -> Result<ShardedIndex, String> {
    let dir = p.require("wal").map_err(|e| e.to_string())?;
    let index = ShardedIndex::open(dir).map_err(|e| e.to_string())?;
    if !index.is_durable() {
        return Err(format!("{dir} is not a durable directory"));
    }
    Ok(index)
}

fn cmd_query(p: &Parsed) -> Result<(), String> {
    p.allow_only(&["index", "wal", "point", "k", "radius"])
        .map_err(|e| e.to_string())?;
    let q = csv::parse_point(p.require("point").map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    let k: usize = p.get_or("k", 1).map_err(|e| e.to_string())?;
    let query = match p.get("radius") {
        Some(r) => {
            if p.get("k").is_some() {
                return Err("query takes --k or --radius, not both".into());
            }
            let r: f64 = r.parse().map_err(|_| format!("bad --radius {r:?}"))?;
            Query::radius(q, r)
        }
        None => Query::knn(q, k),
    };
    let resp = open_index(p, "query")?
        .query(&query)
        .map_err(|e| e.to_string())?;
    if k == 1 && p.get("radius").is_none() {
        println!(
            "nearest neighbor: #{} at distance {:.6}",
            resp.best.id, resp.best.dist
        );
    } else {
        for (rank, r) in resp.iter().enumerate() {
            println!("{:>3}. #{} at distance {:.6}", rank + 1, r.id, r.dist);
        }
    }
    let st = resp.stats;
    println!(
        "stats: {} candidate(s), {} page(s)",
        st.candidates, st.pages
    );
    Ok(())
}

fn cmd_insert(p: &Parsed) -> Result<(), String> {
    p.allow_only(&["wal", "point", "checkpoint"])
        .map_err(|e| e.to_string())?;
    let coords = csv::parse_point(p.require("point").map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    let index = open_durable_index(p)?;
    let id = index
        .insert(Point::new(coords))
        .map_err(|e| e.to_string())?;
    let (shard, _) = index.locate(id).ok_or("inserted id not placed")?;
    println!(
        "inserted point #{id} into shard {shard} — journaled and fsynced \
         ({} record(s) across {} shard journal(s))",
        index.wal_records(),
        index.num_shards()
    );
    checkpoint_if_asked(p, index)
}

fn cmd_remove(p: &Parsed) -> Result<(), String> {
    p.allow_only(&["wal", "id", "checkpoint"])
        .map_err(|e| e.to_string())?;
    let id: usize = p
        .require("id")
        .map_err(|e| e.to_string())?
        .parse()
        .map_err(|_| "bad --id (expected a point id)".to_string())?;
    let index = open_durable_index(p)?;
    let shard = index.locate(id).map(|(shard, _)| shard);
    if index.remove(id).map_err(|e| e.to_string())? {
        println!(
            "removed point #{id} from shard {} — journaled and fsynced \
             ({} record(s) across {} shard journal(s))",
            shard.unwrap_or_default(),
            index.wal_records(),
            index.num_shards()
        );
    } else {
        println!("point #{id} is not live; nothing journaled");
    }
    checkpoint_if_asked(p, index)
}

fn print_recovery(rec: &nncell_core::RecoveryReport) {
    println!("generation     : {}", rec.generation);
    println!("records replayed: {}", rec.replayed);
    if rec.skipped > 0 {
        println!("records skipped : {}", rec.skipped);
    }
    match rec.wal_tail {
        WalTail::Clean => println!("journal tail   : clean"),
        WalTail::Truncated { offset } => {
            println!("journal tail   : torn record at byte {offset} (unacknowledged write dropped)")
        }
        WalTail::Corrupt { offset } => {
            println!("journal tail   : corrupt record at byte {offset} (damaged suffix dropped)")
        }
    }
    if rec.rotated {
        println!(
            "rotated        : damaged journal retired; now at generation {}",
            rec.generation + 1
        );
    }
}

fn cmd_recover(p: &Parsed) -> Result<(), String> {
    p.allow_only(&["wal", "checkpoint"])
        .map_err(|e| e.to_string())?;
    let index = open_durable_index(p)?;
    let shards = index.num_shards();
    for (i, rec) in index.recovery().iter().enumerate() {
        if shards > 1 {
            println!("--- shard {i} ---");
        }
        print_recovery(rec);
    }
    println!("live points    : {} across {shards} shard(s)", index.len());
    checkpoint_if_asked(p, index)
}

/// `flush --wal DIR`: land every journaled record in the snapshot and
/// reset the journals. Opening the directory already replays the WAL
/// into the in-memory shard indexes (the offline equivalent of folding the
/// memtable tail); `flush` makes that state the new on-disk baseline so
/// the next open carries zero replay debt.
fn cmd_flush(p: &Parsed) -> Result<(), String> {
    p.allow_only(&["wal"]).map_err(|e| e.to_string())?;
    let index = open_durable_index(p)?;
    let replayed: usize = index.recovery().iter().map(|r| r.replayed).sum();
    index.checkpoint().map_err(|e| e.to_string())?;
    println!(
        "flushed {replayed} journaled record(s) into the snapshot across {} shard(s); \
         journals reset",
        index.num_shards()
    );
    Ok(())
}

/// `--checkpoint` for the durable write commands: fold the memtable tail
/// and rotate every shard's journal, so the next open replays nothing.
fn checkpoint_if_asked(p: &Parsed, index: ShardedIndex) -> Result<(), String> {
    if p.get("checkpoint").is_some() {
        let shards = index.num_shards();
        index.close().map_err(|e| e.to_string())?;
        println!("checkpointed all {shards} shard(s) (journals reset)");
    }
    Ok(())
}

/// Live points, point slots (live or tombstoned) and dead slots across
/// the shards. The dead slots are the churn a re-shard would reclaim.
fn slot_counts(index: &ShardedIndex) -> (usize, usize, usize) {
    let (mut slots, mut dead) = (0, 0);
    for i in 0..index.num_shards() {
        let shard = index.shard(i);
        slots += shard.slots();
        dead += shard.slots() - shard.len();
    }
    (index.len(), slots, dead)
}

fn cmd_info(p: &Parsed) -> Result<(), String> {
    p.allow_only(&["index"]).map_err(|e| e.to_string())?;
    let index = open_index(p, "info")?;
    let (live, slots, dead) = slot_counts(&index);
    println!("dimensionality : {}", index.dim());
    println!("shards         : {}", index.num_shards());
    println!("live points    : {live}");
    println!("point slots    : {slots} ({dead} dead)");
    Ok(())
}

/// `verify --index PATH`: the loader checks every file's checksum
/// (NNCELL02) and structural fields; nothing derived is persisted, so an
/// index that opens is sound.
fn cmd_verify(p: &Parsed) -> Result<(), String> {
    p.allow_only(&["index"]).map_err(|e| e.to_string())?;
    let index = open_index(p, "verify")?;
    let (live, slots, dead) = slot_counts(&index);
    println!(
        "ok: checksum and structure verified ({live} live of {slots} point slot(s), {dead} dead, \
         d={}, {} shard(s))",
        index.dim(),
        index.num_shards()
    );
    Ok(())
}

/// Answers `queries` on `threads` workers, each taking a contiguous
/// share; results come back in input order.
fn run_queries(
    index: &ShardedIndex,
    queries: &[Query],
    threads: usize,
) -> Vec<Result<QueryResponse, QueryError>> {
    let share = queries.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        let workers: Vec<_> = queries
            .chunks(share)
            .map(|chunk| s.spawn(move || chunk.iter().map(|q| index.query(q)).collect::<Vec<_>>()))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("query worker panicked"))
            .collect()
    })
}

fn cmd_bench(p: &Parsed) -> Result<(), String> {
    p.allow_only(&["index", "queries", "seed", "k", "threads", "json"])
        .map_err(|e| e.to_string())?;
    let index = open_index(p, "bench")?;
    let n_q: usize = p.get_or("queries", 200).map_err(|e| e.to_string())?;
    let seed: u64 = p.get_or("seed", 7).map_err(|e| e.to_string())?;
    let k: usize = p.get_or("k", 1).map_err(|e| e.to_string())?;
    let default_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let threads: usize = p
        .get_or("threads", default_threads)
        .map_err(|e| e.to_string())?;
    let queries: Vec<Query> = UniformGenerator::new(index.dim())
        .generate(n_q, seed)
        .iter()
        .map(|pt| Query::knn(pt.as_slice(), k))
        .collect();

    let t = Instant::now();
    let seq = run_queries(&index, &queries, 1);
    let seq_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let par = run_queries(&index, &queries, threads);
    let par_s = t.elapsed().as_secs_f64();
    if seq != par {
        return Err("parallel batch diverged from sequential execution".into());
    }
    let ok = seq.iter().filter(|r| r.is_ok()).count();
    let cands: usize = seq
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .map(|r| r.stats.candidates)
        .sum();
    let pages: u64 = seq
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .map(|r| r.stats.pages)
        .sum();
    let pruned: u64 = seq
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .map(|r| r.stats.nodes_pruned)
        .sum();
    let aborted: usize = seq
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .map(|r| r.stats.candidates_aborted_early)
        .sum();
    let seq_qps = n_q as f64 / seq_s;
    let par_qps = n_q as f64 / par_s;
    println!(
        "{n_q} queries (k={k}), {ok} answered — sequential {seq_qps:.0} q/s, \
         {threads}-thread batch {par_qps:.0} q/s ({:.2}x)",
        par_qps / seq_qps
    );
    println!(
        "per query: {:.1} candidates within the bound, {:.1} beyond it, {:.1} pages, \
         {:.1} subtrees pruned; parallel results bit-identical to sequential",
        cands as f64 / n_q as f64,
        aborted as f64 / n_q as f64,
        pages as f64 / n_q as f64,
        pruned as f64 / n_q as f64,
    );
    if let Some(path) = p.get("json") {
        let json = format!(
            "{{\n  \"queries\": {n_q},\n  \"k\": {k},\n  \"threads\": {threads},\n  \
             \"seq_qps\": {seq_qps:.2},\n  \"par_qps\": {par_qps:.2},\n  \
             \"speedup\": {:.4},\n  \"mean_candidates\": {:.4},\n  \
             \"mean_pages\": {:.4}\n}}\n",
            par_qps / seq_qps,
            cands as f64 / n_q as f64,
            pages as f64 / n_q as f64,
        );
        std::fs::write(path, json).map_err(|e| e.to_string())?;
        println!("wrote {path}");
    }
    Ok(())
}

/// Opens the index `serve` answers from the same `--index PATH`/`--wal
/// DIR` surfaces the other commands accept, with the extra twist that a
/// `--wal` directory without a committed index is initialized fresh
/// (requires `--dim`; `--shards` sets the shard count). Every write goes
/// through the journaled memtable (O(1) acks, a supervised background
/// folder), bounded by `--tail-max` unfolded operations.
fn open_serve_index(p: &Parsed) -> Result<ShardedIndex, String> {
    let tail_max: usize = p.get_or("tail-max", 4096).map_err(|e| e.to_string())?;
    if tail_max == 0 {
        return Err("--tail-max must be at least 1 (every write goes through the memtable)".into());
    }
    let fold_interval_ms: u64 = p
        .get_or("fold-interval-ms", 20)
        .map_err(|e| e.to_string())?;
    let index = match p.get("wal") {
        Some(dir) if p.get("index").is_none() && !Path::new(dir).join("CURRENT").exists() => {
            let dim: usize = p
                .get("dim")
                .ok_or("--wal DIR does not exist yet; --dim N is required to initialize it")?
                .parse()
                .map_err(|_| "bad --dim".to_string())?;
            let shards: usize = p.get_or("shards", 1).map_err(|e| e.to_string())?;
            if shards == 0 {
                return Err("--shards must be at least 1".into());
            }
            ShardedIndex::open_durable(dir, dim, shards, BuildConfig::default())
                .map_err(|e| e.to_string())?
        }
        _ => open_index(p, "serve")?,
    };
    Ok(index.with_memtable(FoldConfig {
        tail_max,
        poll_interval: std::time::Duration::from_millis(fold_interval_ms.max(1)),
        ..FoldConfig::default()
    }))
}

fn cmd_serve(p: &Parsed) -> Result<(), String> {
    p.allow_only(&[
        "index",
        "wal",
        "addr",
        "threads",
        "queue-depth",
        "deadline-ms",
        "retry-after",
        "slow-ms",
        "dim",
        "shards",
        "tail-max",
        "fold-interval-ms",
        "chaos",
        "trace-sample",
    ])
    .map_err(|e| e.to_string())?;
    let index = open_serve_index(p)?;
    let config = nncell_server::ServerConfig {
        addr: p.get("addr").unwrap_or("127.0.0.1:8321").to_string(),
        threads: p.get_or("threads", 4).map_err(|e| e.to_string())?,
        queue_depth: p.get_or("queue-depth", 64).map_err(|e| e.to_string())?,
        deadline: std::time::Duration::from_millis(
            p.get_or("deadline-ms", 2_000).map_err(|e| e.to_string())?,
        ),
        retry_after_secs: p.get_or("retry-after", 1).map_err(|e| e.to_string())?,
        slow_ms: p.get_or("slow-ms", 100).map_err(|e| e.to_string())?,
        chaos: p.get("chaos").is_some(),
        trace_sample: p.get_or("trace-sample", 0).map_err(|e| e.to_string())?,
        ..nncell_server::ServerConfig::default()
    };
    if config.threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    // One registry serves both the index families (queries, WAL, trees,
    // memtable) and the HTTP families — /metrics exposes the whole picture.
    let registry = Registry::new();
    index.attach_metrics(registry.clone());
    let write_path = if index.is_durable() {
        format!(
            "journaled memtable tail (O(1) acks, background folder, backpressure past {} \
             unfolded ops)",
            index.fold_config().tail_max
        )
    } else {
        String::from("none — an in-memory index is served read-only (writes answer 403)")
    };
    let server =
        nncell_server::Server::bind(config, nncell_server::ServeIndex::Sharded(index), registry)
            .map_err(|e| format!("bind failed: {e}"))?;
    nncell_server::install_signal_handlers();
    // The E2E harness starts us with --addr 127.0.0.1:0 and parses this
    // line for the real port, so flush it through any pipe buffering.
    println!("listening on {}", server.local_addr());
    println!(
        "serving: POST /query /batch /insert /remove — GET /metrics /healthz /readyz /debug/trace"
    );
    println!("write path: {write_path}");
    println!("shutdown: SIGTERM/ctrl-c drains in-flight requests, then checkpoints");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server
        .run()
        .map_err(|e| format!("final checkpoint failed: {e}"))?;
    println!("drained and checkpointed; bye");
    Ok(())
}

/// The `stats --server ADDR` shed-pressure view: scrapes `/metrics` off
/// a running server and surfaces admission-control numbers (queue
/// depth, sheds, Retry-After) without the operator parsing Prometheus
/// text by hand.
fn cmd_stats_server(addr: &str) -> Result<(), String> {
    let client = nncell_server::Client::new(addr);
    let resp = client
        .get("/metrics")
        .map_err(|e| format!("scrape of http://{addr}/metrics failed: {e}"))?;
    if resp.status != 200 {
        return Err(format!("/metrics answered {}", resp.status));
    }
    let text = resp.text();
    let value = |base: &str| -> u64 {
        text.lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (name, v) = l.split_once(' ')?;
                let series_base = name.split('{').next().unwrap_or(name);
                (series_base == base).then(|| v.trim().parse::<f64>().ok())?
            })
            .sum::<f64>() as u64
    };
    let ready = matches!(client.get("/readyz"), Ok(r) if r.status == 200);
    println!(
        "server         : {addr} ({})",
        if ready { "ready" } else { "draining/not ready" }
    );
    println!(
        "admission      : queue depth {}, {} in flight, {} shed (429) total",
        value("nncell_http_queue_depth"),
        value("nncell_http_inflight"),
        value("nncell_http_shed_total"),
    );
    println!(
        "backpressure   : Retry-After {}s advertised on 429",
        value("nncell_http_retry_after_seconds"),
    );
    println!(
        "failures       : {} deadline-exceeded (503), {} isolated panic(s) (500)",
        value("nncell_http_deadline_exceeded_total"),
        value("nncell_http_panics_total"),
    );
    println!(
        "requests       : {} completed",
        value("nncell_http_requests_total"),
    );
    // Always print the write-path lines: degraded-mode and tail depth
    // must be visible even on a quiet server (empty slow-query ring, no
    // traffic since start).
    println!(
        "write path     : {} unfolded tail op(s), {} fold(s) ({} record(s)), \
         {} backpressure shed(s)",
        value("nncell_tail_depth"),
        value("nncell_fold_total"),
        value("nncell_fold_records_total"),
        value("nncell_tail_backpressure_total"),
    );
    println!(
        "folder         : {}, {} fold failure(s)",
        if value("nncell_fold_degraded") > 0 {
            "DEGRADED (folds failing; tail absorbing writes, queries exact)"
        } else {
            "healthy"
        },
        value("nncell_fold_failures_total"),
    );
    if text.contains("nncell_trace_spans_total") {
        println!(
            "tracing        : {} span(s) in {} trace(s) recorded, {} evicted from the flight ring",
            value("nncell_trace_spans_total"),
            value("nncell_trace_traces_total"),
            value("nncell_trace_dropped_spans_total"),
        );
    }
    Ok(())
}

/// `trace --server ADDR [--last N] [--out FILE]`: pulls the flight
/// recorder's most recent request traces off a running server as Chrome
/// trace-event JSON. Written to `--out` (or stdout) verbatim — the file
/// loads directly in Perfetto (ui.perfetto.dev) or chrome://tracing.
fn cmd_trace(p: &Parsed) -> Result<(), String> {
    p.allow_only(&["server", "last", "out"])
        .map_err(|e| e.to_string())?;
    let addr = p
        .get("server")
        .ok_or("trace needs --server HOST:PORT (a running `nncell serve`)")?;
    let last: usize = p.get_or("last", 16).map_err(|e| e.to_string())?;
    let client = nncell_server::Client::new(addr);
    let resp = client
        .get(&format!("/debug/trace?last={last}"))
        .map_err(|e| format!("fetch of http://{addr}/debug/trace failed: {e}"))?;
    if resp.status != 200 {
        return Err(format!("/debug/trace answered {}", resp.status));
    }
    let body = resp.text();
    match p.get("out") {
        Some(path) => {
            std::fs::write(path, &body).map_err(|e| format!("write {path}: {e}"))?;
            let spans = body.matches("\"ph\":\"X\"").count();
            println!(
                "wrote {spans} span(s) to {path} — open in Perfetto (ui.perfetto.dev) \
                 or chrome://tracing"
            );
        }
        None => println!("{body}"),
    }
    Ok(())
}

fn cmd_stats(p: &Parsed) -> Result<(), String> {
    p.allow_only(&[
        "index",
        "wal",
        "server",
        "queries",
        "seed",
        "k",
        "threads",
        "json",
        "prom",
        "slow",
        "slow-threshold-us",
    ])
    .map_err(|e| e.to_string())?;
    if let Some(addr) = p.get("server") {
        return cmd_stats_server(addr);
    }
    let registry = Registry::new();
    let index = open_index(p, "stats")?;
    index.attach_metrics(registry.clone());
    let n_q: usize = p.get_or("queries", 200).map_err(|e| e.to_string())?;
    let seed: u64 = p.get_or("seed", 7).map_err(|e| e.to_string())?;
    let k: usize = p.get_or("k", 1).map_err(|e| e.to_string())?;
    let threads: usize = p.get_or("threads", 1).map_err(|e| e.to_string())?;
    let slow_threshold_us: u64 = p
        .get_or("slow-threshold-us", 0)
        .map_err(|e| e.to_string())?;
    let slow = index
        .slow_log()
        .ok_or("stats: no registry attached to the index")?;
    if p.get("slow").is_some() {
        slow.set_threshold_ns(slow_threshold_us.saturating_mul(1_000));
    }
    if n_q > 0 {
        let queries: Vec<Query> = UniformGenerator::new(index.dim())
            .generate(n_q, seed)
            .iter()
            .map(|pt| Query::knn(pt.as_slice(), k))
            .collect();
        run_queries(&index, &queries, threads);
    }
    let snap = registry.snapshot();
    if p.get("json").is_some() {
        println!("{}", snap.to_json().trim_end());
        return Ok(());
    }
    if p.get("prom").is_some() {
        print!("{}", snap.to_prometheus());
        return Ok(());
    }
    if p.get("slow").is_some() {
        let entries = slow.drain();
        println!(
            "slow queries (threshold {slow_threshold_us} µs): {} captured, {} total seen",
            entries.len(),
            slow.total_seen()
        );
        for e in entries {
            // A nonzero trace id is an exemplar: the same id keys the
            // span timeline in the flight recorder (/debug/trace).
            let trace = if e.trace_id != 0 {
                format!(" trace={:032x}", e.trace_id)
            } else {
                String::new()
            };
            println!(
                "  #{:<4} {:>10.1} µs  k={} candidates={} pages={}{trace}  [{}]",
                e.seq,
                e.latency_ns as f64 / 1_000.0,
                e.k,
                e.candidates,
                e.pages,
                e.point
                    .iter()
                    .map(|c| format!("{c:.4}"))
                    .collect::<Vec<_>>()
                    .join(","),
            );
        }
        return Ok(());
    }
    // Human-readable summary. The query series count each query once;
    // a sharded index labels only its per-shard tree and live-point
    // series (`name{shard="i"}`), which sum_counters folds into one
    // number.
    let shards = index.num_shards();
    println!(
        "workload       : {n_q} queries (k={k}, threads={threads}, seed={seed}){}",
        if shards > 1 {
            format!(" fanned out across {shards} shards")
        } else {
            String::new()
        }
    );
    let get = |name: &str| snap.sum_counters(name).unwrap_or(0);
    println!(
        "queries        : {} ok, {} error(s)",
        get("nncell_queries_total") - get("nncell_query_errors_total"),
        get("nncell_query_errors_total"),
    );
    if let Some(h) = snap.histogram("nncell_query_latency_ns") {
        println!(
            "latency        : p50 ≤ {:.1} µs, p90 ≤ {:.1} µs, p99 ≤ {:.1} µs, max {:.1} µs",
            h.percentile(0.50) as f64 / 1_000.0,
            h.percentile(0.90) as f64 / 1_000.0,
            h.percentile(0.99) as f64 / 1_000.0,
            h.max as f64 / 1_000.0,
        );
    }
    if let Some(h) = snap.histogram("nncell_query_candidates") {
        println!(
            "candidates     : mean {:.1}, p99 ≤ {}, max {}",
            h.mean(),
            h.percentile(0.99),
            h.max,
        );
    }
    if let Some(h) = snap.histogram("nncell_query_pages") {
        println!(
            "pages/query    : mean {:.1}, p99 ≤ {}, max {}",
            h.mean(),
            h.percentile(0.99),
            h.max,
        );
    }
    println!(
        "point tree     : {} page read(s), {} split(s)",
        get("nncell_point_tree_page_reads_total"),
        get("nncell_point_tree_splits_total"),
    );
    if snap.sum_counters("nncell_wal_appends_total").is_some() {
        println!(
            "durability     : {} WAL append(s), {} fsync(s), {} replayed, {} dropped, {} rotation(s)",
            get("nncell_wal_appends_total"),
            get("nncell_wal_fsyncs_total"),
            get("nncell_wal_replayed_total"),
            get("nncell_wal_replay_dropped_total"),
            get("nncell_snapshot_rotations_total"),
        );
    }
    Ok(())
}

fn print_help() {
    println!(
        "nncell — exact NN search by indexing Voronoi-cell approximations (ICDE'98)

USAGE: nncell <command> [--flag value]...

COMMANDS
  generate  --out FILE [--kind uniform|grid|sparse|clustered|fourier]
            [--n 1000] [--dim 8] [--seed 42] [--clusters 8] [--sigma 0.05]
  build     --points FILE (--out FILE | --wal DIR) [--shards S]
            [--skip-invalid]
  query     (--index PATH | --wal DIR) --point x,y,... [--k K | --radius R]
  insert    --wal DIR --point x,y,... [--checkpoint]
  remove    --wal DIR --id N [--checkpoint]
  recover   --wal DIR [--checkpoint]
  flush     --wal DIR              (land journaled records, reset journals)
  info      --index PATH
  verify    --index PATH           (checksum and structure of a saved index)
  bench     --index PATH [--queries 200] [--seed 7] [--k 1] [--threads N]
            [--json FILE]
  stats     (--index PATH | --wal DIR) [--queries 200] [--seed 7] [--k 1]
            [--threads 1] [--json | --prom | --slow [--slow-threshold-us N]]
  stats     --server HOST:PORT     (shed-pressure view of a running server)
  serve     (--index PATH | --wal DIR) [--addr 127.0.0.1:8321] [--threads 4]
            [--queue-depth 64] [--deadline-ms 2000] [--retry-after 1]
            [--slow-ms 100] [--tail-max 4096] [--fold-interval-ms 20]
            [--trace-sample N] [--dim N --shards S  (fresh --wal init)]
  trace     --server HOST:PORT [--last 16] [--out FILE]
            (fetch recent request traces as Chrome trace-event JSON)
  help

`build` STR-loads the points into a point X-tree; every query is an exact
best-first search over it. `query --radius R` returns every point within
distance R, sorted by distance.

`build --shards S` splits the points into S regions of space (median
planes on the widest dimension) and bulk-loads them in parallel; an
insert goes to the shard whose tree lies nearest. Skewed inserts can
unbalance the shards (see the per-shard `nncell_live_points` gauge); a
rebuild re-splits. --out writes one index file (S = 1) or a
sharded directory (S > 1); --wal initializes a durable directory of S
shards. Every command opens any layout — PATH is an index file, a saved
directory, or a durable directory, told apart by its manifest; sharded
answers are bit-identical to unsharded ones. A sharded query is counted
once; with S > 1 only the point-tree and live-point metrics carry a
per-shard `shard=\"i\"` label.

`stats` attaches a metrics registry, replays a generated workload, and
reports query-latency percentiles, candidate/page histograms, point-tree
counters, and (for --wal) WAL/fsync/rotation counters. --json and --prom
print the raw registry snapshot; --slow drains the slow-query ring.

`serve` runs the fault-tolerant HTTP layer: bounded admission queue
(full → 429 + Retry-After), per-request deadlines (exceeded → 503),
panicking requests isolated to a 500, and SIGTERM/ctrl-c draining
in-flight work before a final WAL checkpoint. `stats --server ADDR`
scrapes /metrics off a running server for the shed-pressure summary.

`serve --trace-sample N` records every Nth request as a span tree in the
always-on flight recorder (0 = off; a client-sent sampled `traceparent`
header always forces recording). `trace --server ADDR` exports the most
recent traces as Chrome trace-event JSON — pipe to a file (--out) and
load it in Perfetto (ui.perfetto.dev) or chrome://tracing. Slow-query
entries carry the trace id of their request as an exemplar.

Every write takes the LSM-style path: inserts/removes are journaled and
land in a small unindexed memtable tail (fsync, then an O(1) ack — no
tree update on the write path); a supervised background folder folds
the tail into the shards' point trees. Queries scan the tail's live
inserts ahead of the index traversal and stay exact throughout, even while the folder is failing
(visible as `nncell_fold_*` metrics and in /readyz). A tail past
--tail-max (at least 1) unfolded ops sheds writes with 429 +
Retry-After. `serve` takes writes only on a durable (--wal) index; an
in-memory one answers /insert and /remove with 403 read_only. `flush`
folds a directory's journal into the snapshot offline."
    );
}
