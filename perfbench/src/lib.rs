//! The repository benchmark: three closed-loop workloads that drive the
//! system only through its public API, each printing end-to-end metrics,
//! and a traced run of the same workloads that prints per-layer metrics.
//! See `README.md` in this directory for the metric catalogue.

pub mod client;
mod http;
mod ingest;
mod inproc;
pub mod inputs;
pub mod measure;
pub mod spans;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use nncell_core::{Query, QueryResponse, QueryScratch, QueryStats, ShardedIndex};

use crate::inputs::Data;
use crate::measure::Rounds;

/// End-to-end metrics, `(name, unit)`: what a user of the index sees.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("read_qps", "1/s"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, `(name, unit)`. Every workload reports every one;
/// a layer a workload does not pass through reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("build.constraint_s", "s"),
    ("build.lp_s", "s"),
    ("build.bulk_load_s", "s"),
    ("build.lp_calls", "count"),
    ("setup.durable_s", "s"),
    ("setup.server_ready_s", "s"),
    ("read.samples", "count"),
    ("server.connect_us", "us"),
    ("server.connects_per_request", "count"),
    ("server.retries_per_request", "count"),
    ("server.overhead_us", "us"),
    ("server.queue_wait_us", "us"),
    ("server.read_us", "us"),
    ("server.parse_us", "us"),
    ("server.handle_us", "us"),
    ("server.serialize_us", "us"),
    ("server.response_bytes", "bytes"),
    ("shard.query_us", "us"),
    ("shard.engine_sum_us", "us"),
    ("shard.fanout_overhead_us", "us"),
    ("shard.examined_per_query", "count"),
    ("engine.query_us", "us"),
    ("index.pages_per_query", "count"),
    ("index.nodes_pruned_per_query", "count"),
    ("engine.candidates_per_query", "count"),
    ("engine.examined_per_query", "count"),
    ("engine.aborted_share", "ratio"),
    ("engine.useful_share", "ratio"),
    ("geom.dist_ns", "ns"),
    ("geom.kernel_share", "ratio"),
    ("tail.depth_mean", "count"),
    ("tail.candidates_per_query", "count"),
    ("tail.snapshot_query_us", "us"),
    ("tail.merge_overhead_us", "us"),
    ("write.samples", "count"),
    ("write.ack_p50_us", "us"),
    ("write.ack_p99_us", "us"),
    ("write.insert_us", "us"),
    ("write.remove_us", "us"),
    ("wal.appends_per_ack", "count"),
    ("wal.fsyncs_per_ack", "count"),
    ("wal.bytes_per_user_byte", "ratio"),
    ("wal.append_us", "us"),
    ("fold.records_per_s", "1/s"),
    ("fold.lp_calls_per_record", "count"),
    ("fold.refreshes_per_record", "count"),
    ("fold.lp_s_per_record", "s"),
    ("fold.constraint_s_per_record", "s"),
    ("mem.rss_after_setup_mb", "MiB"),
    ("trace.overhead_share", "ratio"),
];

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Sharded in-process kNN over uniform data: traversal, kernel and
    /// the two-shard fan-out, no server and no tail.
    KnnInproc,
    /// kNN over HTTP against an in-process server on Fourier data.
    KnnHttp,
    /// Durable writes (fsync per ack) beside tail-merged reads.
    Ingest,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::KnnInproc, Workload::KnnHttp, Workload::Ingest];

    pub fn name(self) -> &'static str {
        match self {
            Workload::KnnInproc => "knn_inproc",
            Workload::KnnHttp => "knn_http",
            Workload::Ingest => "ingest",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload at full scale, measuring for `seconds`.
    pub fn params(self, seconds: f64) -> Params {
        let base = Params {
            workload: self,
            data: Data::Uniform,
            n: 8000,
            d: 8,
            shards: 2,
            k: 10,
            pool: 2000,
            setups: 3,
            seconds,
            streams: 0,
            stream_writes: 0,
            fold_batch: 0,
            check_every: 8,
        };
        match self {
            Workload::KnnInproc => base,
            Workload::KnnHttp => Params {
                data: Data::Fourier,
                n: 4000,
                shards: 1,
                ..base
            },
            Workload::Ingest => Params {
                n: 4000,
                shards: 1,
                // Stays under the default tail high-watermark (4096), so
                // no write meets backpressure and nothing folds.
                stream_writes: 1000,
                streams: 40,
                fold_batch: 1,
                ..base
            },
        }
    }
}

/// Everything that sizes a workload.
#[derive(Clone, Debug)]
pub struct Params {
    pub workload: Workload,
    pub data: Data,
    /// Points in the initial build.
    pub n: usize,
    pub d: usize,
    pub shards: usize,
    pub k: usize,
    /// Distinct read queries, replayed in passes.
    pub pool: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Length of the timed read phase of the knn workloads.
    pub seconds: f64,
    /// Write streams per ingest run, each on a fresh copy of the index.
    pub streams: usize,
    /// Writes per ingest stream (7 inserts to 1 remove, 4 reads after each).
    pub stream_writes: usize,
    /// Inserts folded by the ingest fold probe.
    pub fold_batch: usize,
    /// Every `check_every`-th read is compared with a linear scan.
    pub check_every: usize,
}

impl Params {
    /// `key=value` pairs recorded with every result.
    pub fn provenance(&self, seed: u64) -> String {
        format!(
            "{{\"workload\":\"{}\",\"n\":{},\"d\":{},\"shards\":{},\"k\":{},\"seed\":{seed},\
             \"generator\":\"{}\",\"query_pool\":{},\"setups\":{},\"seconds\":{},\
             \"streams\":{},\"stream_writes\":{},\"fold_batch\":{},\"git_sha\":\"{}\",\"nproc\":{}}}",
            self.workload.name(),
            self.n,
            self.d,
            self.shards,
            self.k,
            self.data.name(),
            self.pool,
            self.setups,
            self.seconds,
            self.streams,
            self.stream_writes,
            self.fold_batch,
            git_sha(),
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        )
    }
}

/// The commit being measured, read from `.git` in the working directory
/// without running git; `unknown` outside a git checkout.
fn git_sha() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Where traced runs write their outputs and ingest keeps its journals.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Operation accounting for one run.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Answers compared against an independent oracle.
    pub checked: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(what());
        }
    }

    /// Records a comparison of `got` with the oracle's `want`.
    pub fn check(&mut self, got: &[(usize, u64)], want: &[(usize, u64)], what: &str) {
        self.checked += 1;
        if got != want {
            self.fail(|| format!("{what}: got {got:?}, want {want:?}"));
        }
    }
}

/// Metric values keyed by name.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `{"name": {"value": v, "unit": u}, ...}` over `catalogue`, in
    /// catalogue order; a metric never set reads 0.
    pub fn to_json(&self, catalogue: &[(&str, &str)]) -> String {
        let items: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                let v = self.get(name);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", items.join(","))
    }
}

/// What one run produced.
pub struct Outcome {
    pub tally: Tally,
    pub end_to_end: Metrics,
    /// Filled by traced runs only.
    pub per_layer: Metrics,
    /// Chrome trace-event JSON of the traced run's spans.
    pub chrome_trace: Option<String>,
}

/// Runs one workload. Errors are set-up failures that leave nothing to
/// measure; failed operations are counted in the outcome instead.
pub fn run(p: &Params, seed: u64, traced: bool) -> Result<Outcome, String> {
    match p.workload {
        Workload::KnnInproc => inproc::run(p, seed, traced),
        Workload::KnnHttp => http::run(p, seed, traced),
        Workload::Ingest => ingest::run(p, seed, traced),
    }
}

/// Runs `op(i)` over `0..pool` in passes until `seconds` have elapsed
/// (at least two timed passes), after one untimed warm-up pass, the whole
/// process pinned to the next allowed CPU for each timed pass. `op`
/// returns the latency of a
/// successful operation, `None` on failure.
pub(crate) fn closed_loop(
    pool: usize,
    seconds: f64,
    mut op: impl FnMut(usize) -> Option<u64>,
) -> Rounds {
    for i in 0..pool {
        op(i);
    }
    let cpus = measure::CpuRotation::new();
    let mut rounds = Rounds::new(pool.div_ceil(100));
    let start = Instant::now();
    let mut passes = 0;
    while passes < 2 || measure::secs(start) < seconds {
        cpus.pin(passes);
        let mut lat = Vec::with_capacity(pool);
        for i in 0..pool {
            if let Some(ns) = op(i) {
                lat.push(ns);
            }
        }
        rounds.push(lat);
        passes += 1;
    }
    cpus.release();
    rounds
}

/// The traced phase of a knn workload: four passes over the pool with
/// head sampling off and on in turn, each operation under a benchmark root
/// span named `root` (forwarded to `op` as a `traceparent` when sampled).
/// Returns the median latency in µs of the traced and the untraced passes.
pub(crate) fn traced_passes(
    pool: usize,
    root: &'static str,
    spans: &mut spans::SpanLog,
    mut op: impl FnMut(usize, Option<String>) -> Option<u64>,
) -> (f64, f64) {
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for pass in 0..4 {
        let traced = pass % 2 == 1;
        nncell_obs::trace::set_sampling(u64::from(traced));
        for i in 0..pool {
            let span = nncell_obs::trace::root(root);
            let traceparent = span.context().map(|c| c.to_traceparent());
            if let Some(ns) = op(i, traceparent) {
                if traced { &mut on } else { &mut off }.push(ns);
            }
            drop(span);
            spans.drain_if_full();
        }
    }
    spans.stop();
    (measure::p50_us(&on), measure::p50_us(&off))
}

/// Sets the end-to-end read metrics from the timed passes.
pub(crate) fn read_metrics(m: &mut Metrics, reads: &Rounds) {
    let kept = reads.kept();
    let busy_s = kept.iter().sum::<u64>() as f64 / 1e9;
    m.set("read_qps", kept.len() as f64 / busy_s);
    m.set("read_p50_us", measure::percentile(&kept, 0.5) as f64 / 1e3);
    m.set("read_p99_us", measure::percentile(&kept, 0.99) as f64 / 1e3);
}

/// Sums of per-query execution counters over one pass.
#[derive(Default)]
pub(crate) struct StatsSum {
    queries: u64,
    shard_calls: u64,
    pages: u64,
    nodes_pruned: u64,
    candidates: u64,
    examined: u64,
    aborted: u64,
    tail: u64,
}

impl StatsSum {
    pub(crate) fn add(&mut self, s: &QueryStats, shards: usize) {
        self.queries += 1;
        self.shard_calls += shards as u64;
        self.pages += s.pages;
        self.nodes_pruned += s.nodes_pruned;
        self.candidates += s.candidates as u64;
        self.examined += s.candidates_examined as u64;
        self.aborted += s.candidates_aborted_early as u64;
        self.tail += s.tail as u64;
    }

    /// Traversal, fan-out and kernel counters. `engine_query_us` is the
    /// median `engine.query` span; `dist_ns` one timed distance call.
    pub(crate) fn set_layers(&self, m: &mut Metrics, k: usize, engine_query_us: f64, dist_ns: f64) {
        let q = self.queries.max(1) as f64;
        let calls = self.shard_calls.max(1) as f64;
        let examined = self.examined.max(1) as f64;
        m.set("index.pages_per_query", self.pages as f64 / q);
        m.set("index.nodes_pruned_per_query", self.nodes_pruned as f64 / q);
        m.set("engine.candidates_per_query", self.candidates as f64 / q);
        m.set("engine.examined_per_query", self.examined as f64 / q);
        m.set("shard.examined_per_query", self.examined as f64 / calls);
        m.set("engine.aborted_share", self.aborted as f64 / examined);
        m.set("engine.useful_share", (k as f64 * q) / examined);
        m.set("tail.candidates_per_query", self.tail as f64 / q);
        m.set("engine.query_us", engine_query_us);
        m.set("geom.dist_ns", dist_ns);
        if engine_query_us > 0.0 {
            let completed_per_call = self.candidates as f64 / calls;
            m.set(
                "geom.kernel_share",
                completed_per_call * dist_ns / (engine_query_us * 1e3),
            );
        }
    }
}

/// One pass of the fan-out probe: each query answered by the sharded
/// index, then shard by shard with warm-scratch `execute_with` calls on
/// each `shard(i)` snapshot. Returns the per-query sharded latencies, the
/// per-query sums of the per-shard latencies, and the counter sums.
pub(crate) fn fanout_probe(
    idx: &ShardedIndex,
    queries: &[Query],
) -> (Vec<u64>, Vec<u64>, StatsSum) {
    let shards: Vec<_> = (0..idx.num_shards()).map(|i| idx.shard(i)).collect();
    let mut scratch: Vec<QueryScratch> = shards.iter().map(|_| QueryScratch::new()).collect();
    let mut sharded = Vec::with_capacity(queries.len());
    let mut summed = Vec::with_capacity(queries.len());
    let mut sums = StatsSum::default();
    for q in queries {
        let t = Instant::now();
        let r = idx.query(q);
        sharded.push(measure::nanos(t));
        if let Ok(resp) = &r {
            sums.add(&resp.stats, shards.len());
        }
        let mut total = 0;
        for (snap, s) in shards.iter().zip(scratch.iter_mut()) {
            let engine = nncell_core::QueryEngine::sequential(snap);
            let t = Instant::now();
            let _ = std::hint::black_box(engine.execute_with(s, q));
            total += measure::nanos(t);
        }
        summed.push(total);
    }
    (sharded, summed, sums)
}

/// Nanoseconds per `nncell_geom::dist_sq` call over the workload's own
/// points and queries (median of five timed batches).
pub(crate) fn dist_ns(points: &[nncell_geom::Point], queries: &[Vec<f64>]) -> f64 {
    const CALLS: usize = 200_000;
    let mut reps = Vec::with_capacity(5);
    for _ in 0..5 {
        let t = Instant::now();
        let mut acc = 0.0;
        for c in 0..CALLS {
            let p = &points[c % points.len()];
            let q = &queries[(c / points.len()) % queries.len()];
            acc += nncell_geom::dist_sq(std::hint::black_box(p.as_slice()), q);
        }
        std::hint::black_box(acc);
        reps.push(measure::nanos(t) as f64 / CALLS as f64);
    }
    measure::median(&reps)
}

/// Build-phase profile of a freshly built index, summed over shards.
pub(crate) fn build_layers(m: &mut Metrics, idx: &ShardedIndex) {
    let s = idx.build_stats();
    m.set(
        "build.constraint_s",
        s.profile.constraint_selection.seconds(),
    );
    m.set("build.lp_s", s.profile.lp_solve.seconds());
    m.set("build.bulk_load_s", s.profile.bulk_load.seconds());
    m.set("build.lp_calls", s.lp.lp_calls as f64);
}

/// The response as `(id, distance bits)`, or a failure description.
pub(crate) fn response_bits(
    r: &Result<QueryResponse, nncell_core::QueryError>,
) -> Result<Vec<(usize, u64)>, String> {
    r.as_ref()
        .map(inputs::answer_bits)
        .map_err(|e| format!("query error: {e}"))
}
