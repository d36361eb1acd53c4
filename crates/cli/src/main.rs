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
//! `--wal DIR` commands operate on a crash-consistent directory: every
//! insert/remove is journaled and fsynced before it is acknowledged, and
//! `recover` replays the journal after a crash (see DESIGN.md §Durability).

mod args;
mod csv;

use args::Parsed;
use nncell_core::wal::WalTail;
use nncell_core::{
    BuildConfig, DurableIndex, FoldConfig, InputPolicy, NnCellIndex, Query, Registry, ShardedIndex,
};
use nncell_geom::Point;
use nncell_data::{
    ClusteredGenerator, FourierGenerator, Generator, GridGenerator, SparseGenerator,
    UniformGenerator,
};
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
        return Err("build needs --out FILE (plain snapshot), --wal DIR (durable directory), or both".into());
    }
    let shards: usize = p.get_or("shards", 1).map_err(|e| e.to_string())?;
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    if shards > 1 {
        return cmd_build_sharded(points, shards, cfg, out, wal);
    }
    let t = Instant::now();
    let index = NnCellIndex::build(points, cfg).map_err(|e| e.to_string())?;
    let bs = *index.build_stats();
    let n = index.len();
    let mut sinks = Vec::new();
    if let Some(out) = out {
        index.save(out).map_err(|e| e.to_string())?;
        sinks.push(format!("saved to {out}"));
    }
    if let Some(dir) = wal {
        DurableIndex::create(dir, index).map_err(|e| e.to_string())?;
        sinks.push(format!("durable directory initialized at {dir}"));
    }
    println!(
        "built {n} points in {:.2} ms (bulk load {:.2} ms) — {}",
        t.elapsed().as_secs_f64() * 1e3,
        bs.profile.bulk_load.seconds() * 1e3,
        sinks.join(", ")
    );
    print_skipped(&bs);
    Ok(())
}

fn print_skipped(bs: &nncell_core::BuildStats) {
    if bs.skipped_points > 0 {
        println!(
            "skipped {} invalid input point(s) (--skip-invalid)",
            bs.skipped_points
        );
    }
}

/// `build --shards N`: partition round-robin, bulk-load every shard in its
/// own thread, and land in a sharded directory (plain via `--out`, durable via
/// `--wal` — both work; the save happens before the durable conversion
/// consumes the in-memory masters).
fn cmd_build_sharded(
    points: Vec<nncell_geom::Point>,
    shards: usize,
    cfg: BuildConfig,
    out: Option<&str>,
    wal: Option<&str>,
) -> Result<(), String> {
    let t = Instant::now();
    let index = ShardedIndex::build(points, shards, cfg).map_err(|e| e.to_string())?;
    let bs = index.build_stats();
    let n = index.len();
    let mut sinks = Vec::new();
    if let Some(dir) = out {
        index.save(dir).map_err(|e| e.to_string())?;
        sinks.push(format!("saved sharded directory to {dir}"));
    }
    if let Some(dir) = wal {
        index.into_durable(dir).map_err(|e| e.to_string())?;
        sinks.push(format!("durable sharded directory initialized at {dir}"));
    }
    println!(
        "built {n} points across {shards} shard(s) in {:.2} ms (bulk load {:.2} ms) — {}",
        t.elapsed().as_secs_f64() * 1e3,
        bs.profile.bulk_load.seconds() * 1e3,
        sinks.join(", ")
    );
    print_skipped(&bs);
    Ok(())
}

/// Opens a sharded layout when the path carries a sharded manifest (plain
/// or durable), regardless of which flag it arrived under.
fn open_sharded_at(path: &str, durable_hint: bool) -> Result<Option<ShardedIndex>, String> {
    if ShardedIndex::manifest_shards(path).is_none() {
        return Ok(None);
    }
    let idx = if durable_hint {
        ShardedIndex::open_durable_existing(path).map_err(|e| e.to_string())?
    } else {
        ShardedIndex::load(path).map_err(|e| e.to_string())?
    };
    Ok(Some(idx))
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
    // All four surfaces (plain file, durable dir, and the sharded flavor
    // of each — auto-detected from the on-disk manifest) route through the
    // same engine semantics, so a malformed query produces the same typed
    // QueryError everywhere.
    let resp = match (p.get("index"), p.get("wal")) {
        (Some(file), None) => match open_sharded_at(file, false)? {
            Some(sharded) => sharded.query(&query).map_err(|e| e.to_string())?,
            None => NnCellIndex::load(file)
                .map_err(|e| e.to_string())?
                .engine()
                .execute(&query)
                .map_err(|e| e.to_string())?,
        },
        (None, Some(dir)) => match open_sharded_at(dir, true)? {
            Some(sharded) => sharded.query(&query).map_err(|e| e.to_string())?,
            None => DurableIndex::open(dir)
                .map_err(|e| e.to_string())?
                .index()
                .engine()
                .execute(&query)
                .map_err(|e| e.to_string())?,
        },
        _ => return Err("query needs exactly one of --index FILE or --wal DIR".into()),
    };
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
        "stats: {} candidate(s), {} page(s){}",
        st.candidates,
        st.pages,
        if st.fallback {
            " — answered by exact scan fallback"
        } else {
            ""
        }
    );
    Ok(())
}

fn cmd_insert(p: &Parsed) -> Result<(), String> {
    p.allow_only(&["wal", "point", "checkpoint"])
        .map_err(|e| e.to_string())?;
    let dir = p.require("wal").map_err(|e| e.to_string())?;
    let coords = csv::parse_point(p.require("point").map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    if let Some(sharded) = open_sharded_at(dir, true)? {
        let id = sharded.insert(Point::new(coords)).map_err(|e| e.to_string())?;
        println!(
            "inserted point #{id} into shard {} — journaled and fsynced \
             ({} record(s) across {} shard journal(s))",
            id % sharded.num_shards(),
            sharded.wal_records(),
            sharded.num_shards()
        );
        return maybe_checkpoint_sharded(p, sharded);
    }
    let mut index = DurableIndex::open(dir).map_err(|e| e.to_string())?;
    let id = index.insert(Point::new(coords)).map_err(|e| e.to_string())?;
    println!(
        "inserted point #{id} — journaled and fsynced ({} record(s) since last checkpoint)",
        index.wal_records()
    );
    maybe_checkpoint(p, index)
}

fn cmd_remove(p: &Parsed) -> Result<(), String> {
    p.allow_only(&["wal", "id", "checkpoint"])
        .map_err(|e| e.to_string())?;
    let dir = p.require("wal").map_err(|e| e.to_string())?;
    let id: usize = p
        .require("id")
        .map_err(|e| e.to_string())?
        .parse()
        .map_err(|_| "bad --id (expected a point id)".to_string())?;
    if let Some(sharded) = open_sharded_at(dir, true)? {
        if sharded.remove(id).map_err(|e| e.to_string())? {
            println!(
                "removed point #{id} from shard {} — journaled and fsynced \
                 ({} record(s) across {} shard journal(s))",
                id % sharded.num_shards(),
                sharded.wal_records(),
                sharded.num_shards()
            );
        } else {
            println!("point #{id} is not live; nothing journaled");
        }
        return maybe_checkpoint_sharded(p, sharded);
    }
    let mut index = DurableIndex::open(dir).map_err(|e| e.to_string())?;
    if index.remove(id).map_err(|e| e.to_string())? {
        println!(
            "removed point #{id} — journaled and fsynced ({} record(s) since last checkpoint)",
            index.wal_records()
        );
    } else {
        println!("point #{id} is not live; nothing journaled");
    }
    maybe_checkpoint(p, index)
}

fn print_recovery(rec: &nncell_core::RecoveryReport, generation: u64) {
    println!("generation     : {}", rec.generation);
    println!("records replayed: {}", rec.replayed);
    if rec.skipped > 0 {
        println!("records skipped : {}", rec.skipped);
    }
    match rec.wal_tail {
        WalTail::Clean => println!("journal tail   : clean"),
        WalTail::Truncated { offset } => println!(
            "journal tail   : torn record at byte {offset} (unacknowledged write dropped)"
        ),
        WalTail::Corrupt { offset } => println!(
            "journal tail   : corrupt record at byte {offset} (damaged suffix dropped)"
        ),
    }
    if rec.rotated {
        println!("rotated        : damaged journal retired; now at generation {generation}");
    }
}

fn cmd_recover(p: &Parsed) -> Result<(), String> {
    p.allow_only(&["wal", "checkpoint"])
        .map_err(|e| e.to_string())?;
    let dir = p.require("wal").map_err(|e| e.to_string())?;
    if let Some(sharded) = open_sharded_at(dir, true)? {
        for (i, rec) in sharded.recovery().iter().enumerate() {
            println!("--- shard {i} ---");
            print_recovery(rec, rec.generation + u64::from(rec.rotated));
        }
        println!("live points    : {} across {} shard(s)", sharded.len(), sharded.num_shards());
        return maybe_checkpoint_sharded(p, sharded);
    }
    let index = DurableIndex::open(dir).map_err(|e| e.to_string())?;
    let rec = index.recovery().clone();
    print_recovery(&rec, index.generation());
    println!("live points    : {}", index.len());
    maybe_checkpoint(p, index)
}

/// `flush --wal DIR`: land every journaled record in the snapshot and
/// reset the journals. Opening the directory already replays the WAL
/// into the in-memory masters (the offline equivalent of folding the
/// memtable tail); `flush` makes that state the new on-disk baseline so
/// the next open carries zero replay debt.
fn cmd_flush(p: &Parsed) -> Result<(), String> {
    p.allow_only(&["wal"]).map_err(|e| e.to_string())?;
    let dir = p.require("wal").map_err(|e| e.to_string())?;
    if let Some(sharded) = open_sharded_at(dir, true)? {
        let replayed: usize = sharded.recovery().iter().map(|r| r.replayed).sum();
        sharded.checkpoint().map_err(|e| e.to_string())?;
        println!(
            "flushed {replayed} journaled record(s) into the snapshot across {} shard(s); \
             journals reset",
            sharded.num_shards()
        );
        return Ok(());
    }
    let mut index = DurableIndex::open(dir).map_err(|e| e.to_string())?;
    let replayed = index.recovery().replayed;
    index.checkpoint().map_err(|e| e.to_string())?;
    println!(
        "flushed {replayed} journaled record(s) into the snapshot (generation {}); journal reset",
        index.generation()
    );
    Ok(())
}

/// Shared `--checkpoint` tail for sharded durable directories.
fn maybe_checkpoint_sharded(p: &Parsed, index: ShardedIndex) -> Result<(), String> {
    if p.get("checkpoint").is_some() {
        index.checkpoint().map_err(|e| e.to_string())?;
        println!("checkpointed all {} shard(s) (journals reset)", index.num_shards());
    }
    Ok(())
}

/// Shared `--checkpoint` tail for the durable subcommands.
fn maybe_checkpoint(p: &Parsed, mut index: DurableIndex) -> Result<(), String> {
    if p.get("checkpoint").is_some() {
        index.checkpoint().map_err(|e| e.to_string())?;
        println!(
            "checkpointed to generation {} (journal reset)",
            index.generation()
        );
    }
    Ok(())
}

fn cmd_info(p: &Parsed) -> Result<(), String> {
    p.allow_only(&["index"]).map_err(|e| e.to_string())?;
    let index = NnCellIndex::load(p.require("index").map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    println!("dimensionality : {}", index.dim());
    println!("live points    : {}", index.len());
    println!("point slots    : {}", index.points().len());
    Ok(())
}

/// `verify --index FILE`: the loader checks the checksum (NNCELL02) and
/// every structural field; nothing derived is persisted, so a file that
/// loads is sound.
fn cmd_verify(p: &Parsed) -> Result<(), String> {
    p.allow_only(&["index"]).map_err(|e| e.to_string())?;
    let path = p.require("index").map_err(|e| e.to_string())?;
    let index = NnCellIndex::load(path).map_err(|e| e.to_string())?;
    println!(
        "ok: checksum and structure verified ({} live of {} point slot(s), d={})",
        index.len(),
        index.points().len(),
        index.dim()
    );
    Ok(())
}

fn cmd_bench(p: &Parsed) -> Result<(), String> {
    p.allow_only(&["index", "queries", "seed", "k", "threads", "json"])
        .map_err(|e| e.to_string())?;
    let index = NnCellIndex::load(p.require("index").map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
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

    index.reset_stats();
    let t = Instant::now();
    let seq = index.engine().with_threads(1).batch(&queries);
    let seq_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let par = index.engine().with_threads(threads).batch(&queries);
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
    let fallbacks = seq
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .filter(|r| r.stats.fallback)
        .count();
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
        "per query: {:.1} candidates, {:.1} pages, {:.1} subtrees pruned, \
         {:.1} early-aborted; {fallbacks} scan fallback(s); \
         parallel results bit-identical to sequential",
        cands as f64 / n_q as f64,
        pages as f64 / n_q as f64,
        pruned as f64 / n_q as f64,
        aborted as f64 / n_q as f64,
    );
    if let Some(path) = p.get("json") {
        let json = format!(
            "{{\n  \"queries\": {n_q},\n  \"k\": {k},\n  \"threads\": {threads},\n  \
             \"seq_qps\": {seq_qps:.2},\n  \"par_qps\": {par_qps:.2},\n  \
             \"speedup\": {:.4},\n  \"mean_candidates\": {:.4},\n  \
             \"mean_pages\": {:.4},\n  \"fallbacks\": {fallbacks}\n}}\n",
            par_qps / seq_qps,
            cands as f64 / n_q as f64,
            pages as f64 / n_q as f64,
        );
        std::fs::write(path, json).map_err(|e| e.to_string())?;
        println!("wrote {path}");
    }
    Ok(())
}

/// Either surface the observability commands accept: a plain snapshot, a
/// durable directory (whose WAL/rotation counters come along for free),
/// or the sharded flavor of either — auto-detected from the manifest and
/// reporting per-shard labeled series.
enum LoadedIndex {
    Plain(Box<NnCellIndex>),
    Durable(Box<DurableIndex>),
    Sharded(Box<ShardedIndex>),
}

impl LoadedIndex {
    fn open(p: &Parsed, cmd: &str) -> Result<Self, String> {
        match (p.get("index"), p.get("wal")) {
            (Some(file), None) => Ok(match open_sharded_at(file, false)? {
                Some(s) => LoadedIndex::Sharded(Box::new(s)),
                None => LoadedIndex::Plain(Box::new(
                    NnCellIndex::load(file).map_err(|e| e.to_string())?,
                )),
            }),
            (None, Some(dir)) => Ok(match open_sharded_at(dir, true)? {
                Some(s) => LoadedIndex::Sharded(Box::new(s)),
                None => LoadedIndex::Durable(Box::new(
                    DurableIndex::open(dir).map_err(|e| e.to_string())?,
                )),
            }),
            _ => Err(format!(
                "{cmd} needs exactly one of --index FILE or --wal DIR"
            )),
        }
    }

    fn attach_metrics(&mut self, registry: std::sync::Arc<Registry>) {
        match self {
            LoadedIndex::Plain(i) => i.attach_metrics(registry),
            LoadedIndex::Durable(d) => d.attach_metrics(registry),
            LoadedIndex::Sharded(s) => s.attach_metrics(registry),
        }
    }

    fn dim(&self) -> usize {
        match self {
            LoadedIndex::Plain(i) => i.dim(),
            LoadedIndex::Durable(d) => d.index().dim(),
            LoadedIndex::Sharded(s) => s.dim(),
        }
    }

    fn num_shards(&self) -> usize {
        match self {
            LoadedIndex::Sharded(s) => s.num_shards(),
            _ => 1,
        }
    }

    fn run_batch(&self, queries: &[Query], threads: usize) {
        match self {
            LoadedIndex::Plain(i) => {
                let _ = i.engine().with_threads(threads).batch(queries);
            }
            LoadedIndex::Durable(d) => {
                let _ = d.index().engine().with_threads(threads).batch(queries);
            }
            // Sharding is the concurrency story here: the fan-out across
            // shard engines replaces the single engine's thread pool.
            LoadedIndex::Sharded(s) => {
                let _ = s.batch(queries);
            }
        }
    }

    /// Slow-query rings, one per shard (exactly one for unsharded).
    fn slow_logs(&self) -> Vec<std::sync::Arc<nncell_core::SlowQueryLog>> {
        use std::sync::Arc;
        match self {
            LoadedIndex::Plain(i) => i
                .metrics()
                .map(|m| Arc::clone(m.engine().slow_log()))
                .into_iter()
                .collect(),
            LoadedIndex::Durable(d) => d
                .index()
                .metrics()
                .map(|m| Arc::clone(m.engine().slow_log()))
                .into_iter()
                .collect(),
            LoadedIndex::Sharded(s) => (0..s.num_shards())
                .filter_map(|i| {
                    let shard = s.shard(i);
                    shard.metrics().map(|m| Arc::clone(m.engine().slow_log()))
                })
                .collect(),
        }
    }

}

/// Builds the [`nncell_server::ServeIndex`] for `serve` from the same
/// `--index FILE`/`--wal DIR` surfaces the other commands accept, with
/// the extra twist that a missing `--wal` directory is initialized
/// fresh (requires `--dim`; `--shards` > 1 makes it sharded).
///
/// Sharded indexes get the journaled memtable tail (O(1) write acks, a
/// supervised background folder) unless `--tail-max 0` asks for the
/// synchronous write path.
fn open_serve_index(p: &Parsed) -> Result<nncell_server::ServeIndex, String> {
    use nncell_server::ServeIndex;
    let tail_max: usize = p.get_or("tail-max", 4096).map_err(|e| e.to_string())?;
    let fold_interval_ms: u64 = p
        .get_or("fold-interval-ms", 20)
        .map_err(|e| e.to_string())?;
    let memtable = |s: ShardedIndex| -> ServeIndex {
        if tail_max == 0 {
            return ServeIndex::Sharded(s);
        }
        ServeIndex::Sharded(s.with_memtable(FoldConfig {
            tail_max,
            poll_interval: std::time::Duration::from_millis(fold_interval_ms.max(1)),
            ..FoldConfig::default()
        }))
    };
    match (p.get("index"), p.get("wal")) {
        (Some(file), None) => Ok(match open_sharded_at(file, false)? {
            Some(s) => memtable(s),
            None => ServeIndex::Plain(NnCellIndex::load(file).map_err(|e| e.to_string())?),
        }),
        (None, Some(dir)) => {
            if let Some(s) = open_sharded_at(dir, true)? {
                return Ok(memtable(s));
            }
            if std::path::Path::new(dir).join("CURRENT").exists() {
                return Ok(ServeIndex::Durable(std::sync::Mutex::new(
                    DurableIndex::open(dir).map_err(|e| e.to_string())?,
                )));
            }
            // Fresh directory: initialize an empty durable index.
            let dim: usize = p
                .get("dim")
                .ok_or("--wal DIR does not exist yet; --dim N is required to initialize it")?
                .parse()
                .map_err(|_| "bad --dim".to_string())?;
            let shards: usize = p.get_or("shards", 1).map_err(|e| e.to_string())?;
            let cfg = BuildConfig::default();
            if shards > 1 {
                Ok(memtable(
                    ShardedIndex::open_durable(dir, dim, shards, cfg)
                        .map_err(|e| e.to_string())?,
                ))
            } else {
                Ok(ServeIndex::Durable(std::sync::Mutex::new(
                    NnCellIndex::open_durable(dir, dim, cfg).map_err(|e| e.to_string())?,
                )))
            }
        }
        _ => Err("serve needs exactly one of --index FILE or --wal DIR".into()),
    }
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
    // One registry serves both the index families (queries, WAL, trees)
    // and the HTTP families — /metrics exposes the whole picture.
    let registry = Registry::new();
    let mut index = index;
    match &mut index {
        nncell_server::ServeIndex::Sharded(s) => s.attach_metrics(registry.clone()),
        nncell_server::ServeIndex::Durable(m) => match m.lock() {
            Ok(mut d) => d.attach_metrics(registry.clone()),
            Err(p) => p.into_inner().attach_metrics(registry.clone()),
        },
        nncell_server::ServeIndex::Plain(i) => i.attach_metrics(registry.clone()),
    }
    let server = nncell_server::Server::bind(config, index, registry)
        .map_err(|e| format!("bind failed: {e}"))?;
    nncell_server::install_signal_handlers();
    // The E2E harness starts us with --addr 127.0.0.1:0 and parses this
    // line for the real port, so flush it through any pipe buffering.
    println!("listening on {}", server.local_addr());
    println!(
        "serving: POST /query /batch /insert /remove — GET /metrics /healthz /readyz /debug/trace"
    );
    match server.index() {
        nncell_server::ServeIndex::Sharded(s) if s.memtable_enabled() => {
            let max = s.fold_config().map_or(0, |c| c.tail_max);
            println!(
                "write path: journaled memtable tail (O(1) acks, background folder, \
                 backpressure past {max} unfolded ops)"
            );
        }
        nncell_server::ServeIndex::Sharded(_) => {
            println!("write path: synchronous snapshot publish (--tail-max 0)");
        }
        _ => {}
    }
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
    println!("server         : {addr} ({})", if ready { "ready" } else { "draining/not ready" });
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
    // traffic since start). The memtable family only exists when the
    // server runs a journaled tail — say so explicitly instead of
    // silently omitting the folder's health.
    if text.contains("nncell_tail_depth") {
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
    } else {
        println!("write path     : synchronous (no memtable tail)");
    }
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
    let mut loaded = LoadedIndex::open(p, "stats")?;
    loaded.attach_metrics(registry.clone());
    let n_q: usize = p.get_or("queries", 200).map_err(|e| e.to_string())?;
    let seed: u64 = p.get_or("seed", 7).map_err(|e| e.to_string())?;
    let k: usize = p.get_or("k", 1).map_err(|e| e.to_string())?;
    let threads: usize = p.get_or("threads", 1).map_err(|e| e.to_string())?;
    let slow_threshold_us: u64 = p
        .get_or("slow-threshold-us", 0)
        .map_err(|e| e.to_string())?;
    let slow_logs = loaded.slow_logs();
    if p.get("slow").is_some() {
        for log in &slow_logs {
            log.set_threshold_ns(slow_threshold_us.saturating_mul(1_000));
        }
    }
    if n_q > 0 {
        let queries: Vec<Query> = UniformGenerator::new(loaded.dim())
            .generate(n_q, seed)
            .iter()
            .map(|pt| Query::knn(pt.as_slice(), k))
            .collect();
        loaded.run_batch(&queries, threads.max(1));
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
        let sharded = slow_logs.len() > 1;
        for (i, slow) in slow_logs.iter().enumerate() {
            let entries = slow.drain();
            let scope = if sharded {
                format!("shard {i}: ")
            } else {
                String::new()
            };
            println!(
                "{scope}slow queries (threshold {slow_threshold_us} µs): {} captured, {} total seen",
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
                    "  #{:<4} {:>10.1} µs  k={} candidates={} pages={}{}{trace}  [{}]",
                    e.seq,
                    e.latency_ns as f64 / 1_000.0,
                    e.k,
                    e.candidates,
                    e.pages,
                    if e.fallback { " fallback" } else { "" },
                    e.point
                        .iter()
                        .map(|c| format!("{c:.4}"))
                        .collect::<Vec<_>>()
                        .join(","),
                );
            }
        }
        return Ok(());
    }
    // Human-readable summary. Sharded indexes register per-shard labeled
    // series (`name{shard="i"}`); sum_counters/sum_gauges fold a whole
    // family into one number either way.
    let shards = loaded.num_shards();
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
        "queries        : {} ok, {} error(s), {} scan fallback(s)",
        get("nncell_queries_total") - get("nncell_query_errors_total"),
        get("nncell_query_errors_total"),
        get("nncell_query_fallback_total"),
    );
    // Latency histograms stay per shard: there is one series per engine,
    // labeled when sharded.
    let latency_series: Vec<(String, &str)> = if shards > 1 {
        (0..shards)
            .map(|i| {
                (
                    format!("nncell_query_latency_ns{{shard=\"{i}\"}}"),
                    "latency",
                )
            })
            .collect()
    } else {
        vec![("nncell_query_latency_ns".to_string(), "latency")]
    };
    for (i, (name, _)) in latency_series.iter().enumerate() {
        if let Some(h) = snap.histogram(name) {
            let label = if shards > 1 {
                format!("latency (s{i})  ")
            } else {
                "latency        ".to_string()
            };
            println!(
                "{label}: p50 ≤ {:.1} µs, p90 ≤ {:.1} µs, p99 ≤ {:.1} µs, max {:.1} µs",
                h.percentile(0.50) as f64 / 1_000.0,
                h.percentile(0.90) as f64 / 1_000.0,
                h.percentile(0.99) as f64 / 1_000.0,
                h.max as f64 / 1_000.0,
            );
        }
    }
    let hist = |name: &str| {
        if shards > 1 {
            snap.histogram(&format!("{name}{{shard=\"0\"}}"))
        } else {
            snap.histogram(name)
        }
    };
    if let Some(h) = hist("nncell_query_candidates") {
        println!(
            "candidates     : mean {:.1}, p99 ≤ {}, max {}{}",
            h.mean(),
            h.percentile(0.99),
            h.max,
            if shards > 1 { " (shard 0)" } else { "" }
        );
    }
    if let Some(h) = hist("nncell_query_pages") {
        println!(
            "pages/query    : mean {:.1}, p99 ≤ {}, max {}{}",
            h.mean(),
            h.percentile(0.99),
            h.max,
            if shards > 1 { " (shard 0)" } else { "" }
        );
    }
    println!(
        "point tree     : {} page read(s), {} cache hit(s), {} split(s)",
        get("nncell_point_tree_page_reads_total"),
        get("nncell_point_tree_cache_hits_total"),
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
  query     (--index FILE | --wal DIR) --point x,y,... [--k K | --radius R]
  insert    --wal DIR --point x,y,... [--checkpoint]
  remove    --wal DIR --id N [--checkpoint]
  recover   --wal DIR [--checkpoint]
  flush     --wal DIR              (land journaled records, reset journals)
  info      --index FILE
  verify    --index FILE           (checksum and structure of a saved index)
  bench     --index FILE [--queries 200] [--seed 7] [--k 1] [--threads N]
            [--json FILE]
  stats     (--index FILE | --wal DIR) [--queries 200] [--seed 7] [--k 1]
            [--threads 1] [--json | --prom | --slow [--slow-threshold-us N]]
  stats     --server HOST:PORT     (shed-pressure view of a running server)
  serve     (--index FILE | --wal DIR) [--addr 127.0.0.1:8321] [--threads 4]
            [--queue-depth 64] [--deadline-ms 2000] [--retry-after 1]
            [--slow-ms 100] [--tail-max 4096] [--fold-interval-ms 20]
            [--trace-sample N] [--dim N --shards S  (fresh --wal init)]
  trace     --server HOST:PORT [--last 16] [--out FILE]
            (fetch recent request traces as Chrome trace-event JSON)
  help

`build` STR-loads the points into a point X-tree; every query is an exact
best-first search over it. `query --radius R` returns every point within
distance R, sorted by distance.

`build --shards S` (S > 1) partitions points round-robin into S shards,
bulk-loads them in parallel, and writes a sharded directory (plain with --out,
durable with --wal). query/insert/remove/recover/stats auto-detect sharded
layouts from the on-disk manifest; sharded answers are bit-identical to
unsharded ones, and sharded metrics register per-shard `shard=\"i\"` series.

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

Sharded serving uses the LSM-style write path: inserts/removes are
journaled and land in a small unindexed memtable tail (fsync, then an
O(1) ack — no tree update on the write path); a supervised background
folder folds the tail into the shards' point trees. Queries merge the
tail by linear scan and stay exact throughout, even while the folder is
failing (visible as `nncell_fold_*` metrics and in /readyz). A tail past
--tail-max unfolded ops sheds writes with 429 + Retry-After;
--tail-max 0 restores the synchronous write path. `flush` folds a
directory's journal into the snapshot offline."
    );
}
