//! `ingest`: durable writes beside reads on one index, in the caller's
//! thread. Each set-up builds the index, makes it durable (fsync on every
//! ack, the `serve --wal` policy) and enables the memtable tail. The first
//! build is also saved, and every write stream runs on a fresh durable
//! copy loaded from that save: 7 inserts to 1 remove, four reads after
//! each write, and the tail is never folded during it, so reads merge a
//! growing tail. A traced run adds a fold probe on the first built index,
//! after its set-up is timed.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use nncell_core::{FoldConfig, Query, QueryEngine, QueryScratch, Registry, ShardedIndex};
use nncell_geom::Point;

use crate::measure::{self, memory_mb, nanos, secs, CpuRotation, Rounds, SplitMix};
use crate::spans::SpanLog;
use crate::{inputs, Metrics, Outcome, Params, StatsSum, Tally};

/// The benchmark's own record of the live set, the oracle for reads.
struct Model {
    points: Vec<Point>,
    ids: Vec<usize>,
    pos: HashMap<usize, usize>,
}

impl Model {
    fn new(base: &[Point]) -> Self {
        Model {
            points: base.to_vec(),
            ids: (0..base.len()).collect(),
            pos: (0..base.len()).map(|i| (i, i)).collect(),
        }
    }

    fn insert(&mut self, id: usize, p: Point) {
        self.pos.insert(id, self.points.len());
        self.points.push(p);
        self.ids.push(id);
    }

    fn remove(&mut self, id: usize) {
        let Some(at) = self.pos.remove(&id) else {
            return;
        };
        self.points.swap_remove(at);
        self.ids.swap_remove(at);
        if at < self.ids.len() {
            self.pos.insert(self.ids[at], at);
        }
    }

    fn answer(&self, q: &[f64], k: usize) -> Vec<(usize, u64)> {
        let mut got: Vec<(usize, u64)> = inputs::scan_answer(&self.points, q, k)
            .into_iter()
            .map(|(at, bits)| (self.ids[at], bits))
            .collect();
        got.sort_by(|a, b| {
            f64::from_bits(a.1)
                .total_cmp(&f64::from_bits(b.1))
                .then(a.0.cmp(&b.0))
        });
        got
    }
}

/// Everything one write stream measured.
#[derive(Default)]
struct Stream {
    reads: Vec<u64>,
    inserts: Vec<u64>,
    removes: Vec<u64>,
    /// Filled on the traced stream only.
    sums: StatsSum,
    depth_sum: u64,
    snapshot: Vec<u64>,
}

impl Stream {
    fn acks(&self) -> Vec<u64> {
        self.inserts.iter().chain(&self.removes).copied().collect()
    }
}

/// Makes `idx` durable in `dir`, enables the memtable and attaches a
/// registry, as `serve --wal` sets an index up.
fn make_durable(idx: ShardedIndex, dir: &Path) -> Result<(ShardedIndex, Arc<Registry>), String> {
    let _ = std::fs::remove_dir_all(dir);
    let idx = idx
        .into_durable(dir)
        .map_err(|e| format!("into_durable: {e}"))?
        .with_memtable(FoldConfig::default());
    let registry = Registry::new();
    idx.attach_metrics(registry.clone());
    Ok((idx, registry))
}

/// One timed set-up: build, then [`make_durable`] in `dir`. The built
/// index is saved to `save_to`, untimed, when given. Returns the index,
/// the build's layer metrics, the total and the durable-step seconds.
fn setup(
    p: &Params,
    base: &[Point],
    dir: &Path,
    save_to: Option<&Path>,
) -> Result<(ShardedIndex, Metrics, f64, f64), String> {
    let input = base.to_vec();
    let t = Instant::now();
    let idx = ShardedIndex::build(input, p.shards, inputs::build_config(p.d))
        .map_err(|e| format!("build: {e}"))?;
    let built_s = secs(t);
    let mut build = Metrics::default();
    crate::build_layers(&mut build, &idx);
    if let Some(to) = save_to {
        idx.save(to).map_err(|e| format!("save: {e}"))?;
    }
    let t_durable = Instant::now();
    let (idx, _registry) = make_durable(idx, dir)?;
    let durable_s = secs(t_durable);
    Ok((idx, build, built_s + durable_s, durable_s))
}

/// A fresh durable copy of the saved build in `dir`, for one stream.
/// Loading is far cheaper than building, so a run can afford many
/// streams. A loaded index keeps no constraint pool, so folds on it take
/// the exhaustive path; the fold probe runs on a built index instead.
fn reload(saved: &Path, dir: &Path) -> Result<(ShardedIndex, Arc<Registry>), String> {
    let idx = ShardedIndex::load(saved).map_err(|e| format!("load: {e}"))?;
    make_durable(idx, dir)
}

fn dir_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for e in entries.flatten() {
            match e.metadata() {
                Ok(m) if m.is_dir() => stack.push(e.path()),
                Ok(m) => total += m.len(),
                Err(_) => {}
            }
        }
    }
    total
}

#[allow(clippy::too_many_arguments)]
fn stream(
    p: &Params,
    seed: u64,
    idx: &ShardedIndex,
    fresh: &[Point],
    qs: &[Query],
    model: &mut Model,
    tally: &mut Tally,
    mut spans: Option<&mut SpanLog>,
) -> Stream {
    let mut out = Stream::default();
    let mut victims = SplitMix::new(measure::derive_seed(seed, 3));
    let mut next_fresh = fresh.iter();
    let mut scratch = QueryScratch::new();
    let mut read_no = 0usize;
    for w in 0..p.stream_writes {
        tally.attempted += 1;
        let root = spans
            .as_ref()
            .map(|_| nncell_obs::trace::root("bench.write"));
        if w % 8 == 7 {
            let victim = model.ids[victims.below(model.ids.len())];
            let t = Instant::now();
            let r = idx.remove(victim);
            let ns = nanos(t);
            match r {
                Ok(true) => {
                    out.removes.push(ns);
                    model.remove(victim);
                }
                Ok(false) => tally.fail(|| format!("remove of live id {victim} found nothing")),
                Err(e) => tally.fail(|| format!("remove: {e}")),
            }
        } else {
            let Some(pt) = next_fresh.next() else {
                tally.fail(|| "ran out of fresh points".into());
                break;
            };
            let t = Instant::now();
            let r = idx.insert(pt.clone());
            let ns = nanos(t);
            match r {
                Ok(id) => {
                    out.inserts.push(ns);
                    model.insert(id, pt.clone());
                }
                Err(e) => tally.fail(|| format!("insert: {e}")),
            }
        }
        drop(root);
        for _ in 0..4 {
            let i = read_no % qs.len();
            let check = read_no.is_multiple_of(p.check_every);
            read_no += 1;
            tally.attempted += 1;
            if spans.is_some() {
                out.depth_sum += idx.tail_depth() as u64;
            }
            let root = spans
                .as_ref()
                .map(|_| nncell_obs::trace::root("bench.read"));
            let t = Instant::now();
            let r = idx.query(&qs[i]);
            let ns = nanos(t);
            drop(root);
            match &r {
                Ok(resp) => {
                    out.reads.push(ns);
                    if spans.is_some() {
                        out.sums.add(&resp.stats, p.shards);
                    }
                    if check {
                        let want = model.answer(qs[i].point(), p.k);
                        tally.check(
                            &inputs::answer_bits(resp),
                            &want,
                            "ingest read vs live-set model",
                        );
                    }
                }
                Err(e) => tally.fail(|| format!("read: {e}")),
            }
            if let Some(log) = spans.as_deref_mut() {
                // The same query on the shard snapshot without the tail,
                // outside any sampled span.
                let snap = idx.shard(0);
                let t = Instant::now();
                let _ = std::hint::black_box(
                    QueryEngine::sequential(&snap).execute_with(&mut scratch, &qs[i]),
                );
                out.snapshot.push(nanos(t));
                log.drain_if_full();
            }
        }
    }
    out
}

pub fn run(p: &Params, seed: u64, traced: bool) -> Result<Outcome, String> {
    let (base, queries) = inputs::points_and_queries(p.data, p.d, p.n, p.pool, seed);
    let fresh = inputs::fresh_points(p.d, p.fold_batch + p.stream_writes, seed);
    let (probe_pts, stream_pts) = fresh.split_at(p.fold_batch);
    let qs: Vec<Query> = queries.iter().map(|q| Query::knn(q.clone(), p.k)).collect();
    let work = crate::out_dir().join(format!("ingest-{}", std::process::id()));
    let result = measure_all(
        p, seed, traced, &base, probe_pts, stream_pts, &queries, &qs, &work,
    );
    let _ = std::fs::remove_dir_all(&work);
    result
}

#[allow(clippy::too_many_arguments)]
fn measure_all(
    p: &Params,
    seed: u64,
    traced: bool,
    base: &[Point],
    probe_pts: &[Point],
    stream_pts: &[Point],
    queries: &[Vec<f64>],
    qs: &[Query],
    work: &Path,
) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut per_layer = Metrics::default();
    let mut setup_s = Vec::new();
    let mut durable_s = Vec::new();
    std::fs::create_dir_all(work).map_err(|e| format!("work directory: {e}"))?;
    let saved = work.join("saved");
    let mut rss_after_setup = 0.0;
    for s in 0..p.setups {
        let dir = work.join("setup");
        let save_to = (s == 0).then_some(saved.as_path());
        let (idx, build, total, dur) = setup(p, base, &dir, save_to)?;
        setup_s.push(total);
        durable_s.push(dur);
        rss_after_setup = memory_mb().1;
        if s == 0 && traced {
            for (name, _) in crate::PER_LAYER
                .iter()
                .filter(|(n, _)| n.starts_with("build."))
            {
                per_layer.set(name, build.get(name));
            }
            let mut model = Model::new(base);
            fold_probe(&idx, probe_pts, &mut model, &mut tally, &mut per_layer)?;
        }
        drop(idx);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // One block per write: the four reads after write w meet the tail
    // depth w, so they are compared only with the reads after write w of
    // the other streams.
    let mut reads = Rounds::new(4);
    let mut acks = Vec::new();
    let mut inserts = Vec::new();
    let mut removes = Vec::new();
    let mut untraced = Vec::new();
    let cpus = CpuRotation::new();
    for round in 0..p.streams {
        let dir = work.join(format!("stream{round}"));
        let (idx, _registry) = reload(&saved, &dir)?;
        let mut model = Model::new(base);
        cpus.pin(round);
        let s = stream(p, seed, &idx, stream_pts, qs, &mut model, &mut tally, None);
        cpus.release();
        acks.extend(s.acks());
        inserts.extend(&s.inserts);
        removes.extend(&s.removes);
        untraced.extend(&s.reads);
        reads.push(s.reads);
        drop(idx);
        let _ = std::fs::remove_dir_all(&dir);
    }

    let mut end_to_end = Metrics::default();
    end_to_end.set("setup_s", measure::median(&setup_s));
    crate::read_metrics(&mut end_to_end, &reads);

    let mut chrome_trace = None;
    if traced {
        acks.sort_unstable();
        per_layer.set("setup.durable_s", measure::median(&durable_s));
        per_layer.set("mem.rss_after_setup_mb", rss_after_setup);
        per_layer.set("read.samples", reads.samples() as f64);
        per_layer.set("write.samples", acks.len() as f64);
        per_layer.set(
            "write.ack_p50_us",
            measure::percentile(&acks, 0.5) as f64 / 1e3,
        );
        per_layer.set(
            "write.ack_p99_us",
            measure::percentile(&acks, 0.99) as f64 / 1e3,
        );
        per_layer.set("write.insert_us", measure::p50_us(&inserts));
        per_layer.set("write.remove_us", measure::p50_us(&removes));

        // One more stream with every operation traced.
        let dir = work.join("traced");
        let (idx, registry) = reload(&saved, &dir)?;
        let mut model = Model::new(base);
        let before = registry.snapshot();
        let bytes_before = dir_bytes(&dir);
        let mut spans = SpanLog::start();
        let s = stream(
            p,
            seed,
            &idx,
            stream_pts,
            qs,
            &mut model,
            &mut tally,
            Some(&mut spans),
        );
        spans.stop();
        let after = registry.snapshot();
        let grown = dir_bytes(&dir).saturating_sub(bytes_before);
        drop(idx);
        let _ = std::fs::remove_dir_all(&dir);

        let n_acks = (s.inserts.len() + s.removes.len()).max(1) as f64;
        let delta = |name: &str| {
            after.sum_counters(name).unwrap_or(0) as f64
                - before.sum_counters(name).unwrap_or(0) as f64
        };
        per_layer.set(
            "wal.appends_per_ack",
            delta("nncell_wal_appends_total") / n_acks,
        );
        per_layer.set(
            "wal.fsyncs_per_ack",
            delta("nncell_wal_fsyncs_total") / n_acks,
        );
        let user_bytes = (s.inserts.len() * 8 * p.d).max(1) as f64;
        per_layer.set("wal.bytes_per_user_byte", grown as f64 / user_bytes);
        per_layer.set("wal.append_us", spans.p50_us("wal.append"));

        // Plain medians on both sides: every untraced read against every
        // traced one, and against the same queries without the tail.
        let untraced_p50 = measure::p50_us(&untraced);
        per_layer.set(
            "trace.overhead_share",
            measure::p50_us(&s.reads) / untraced_p50 - 1.0,
        );
        let snapshot_p50 = measure::p50_us(&s.snapshot);
        per_layer.set("tail.snapshot_query_us", snapshot_p50);
        per_layer.set("tail.merge_overhead_us", untraced_p50 - snapshot_p50);
        per_layer.set(
            "tail.depth_mean",
            s.depth_sum as f64 / s.reads.len().max(1) as f64,
        );
        per_layer.set("shard.engine_sum_us", snapshot_p50);
        per_layer.set("shard.query_us", spans.p50_us("shard.query"));
        let dist = crate::dist_ns(base, queries);
        s.sums
            .set_layers(&mut per_layer, p.k, spans.p50_us("engine.query"), dist);
        chrome_trace = Some(spans.chrome_json());
    }
    end_to_end.set("peak_rss_mb", memory_mb().0);
    Ok(Outcome {
        tally,
        end_to_end,
        per_layer,
        chrome_trace,
    })
}

/// Acks `points`, then folds them with `flush()`, timing the fold and
/// taking its LP work from the `BuildStats` delta.
fn fold_probe(
    idx: &ShardedIndex,
    points: &[Point],
    model: &mut Model,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Result<(), String> {
    for pt in points {
        tally.attempted += 1;
        match idx.insert(pt.clone()) {
            Ok(id) => model.insert(id, pt.clone()),
            Err(e) => tally.fail(|| format!("fold-probe insert: {e}")),
        }
    }
    let before = idx.build_stats();
    let t = Instant::now();
    let folded = idx.flush().map_err(|e| format!("flush: {e}"))?;
    let fold_s = secs(t);
    let after = idx.build_stats();
    let records = folded.max(1) as f64;
    m.set("fold.records_per_s", folded as f64 / fold_s);
    m.set(
        "fold.lp_calls_per_record",
        (after.lp.lp_calls - before.lp.lp_calls) as f64 / records,
    );
    m.set(
        "fold.refreshes_per_record",
        (after.insert_refreshes - before.insert_refreshes) as f64 / records,
    );
    let phase_s = |a: u64, b: u64| a.saturating_sub(b) as f64 / 1e9 / records;
    m.set(
        "fold.lp_s_per_record",
        phase_s(after.profile.lp_solve.nanos, before.profile.lp_solve.nanos),
    );
    m.set(
        "fold.constraint_s_per_record",
        phase_s(
            after.profile.constraint_selection.nanos,
            before.profile.constraint_selection.nanos,
        ),
    );
    Ok(())
}
