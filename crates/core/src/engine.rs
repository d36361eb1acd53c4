//! The throughput-grade query engine: parallel batch execution with
//! reusable per-thread scratch state.
//!
//! [`QueryEngine`] is a cheap, read-only session over a built
//! [`NnCellIndex`] — or, inside [`crate::ShardedIndex`], over the forest
//! of every shard's index. It owns no data — it borrows the indexes
//! (including the cache-friendly flat point layout each index maintains)
//! — so constructing one is free, and any number of engines can query one
//! index concurrently.
//!
//! Execution model:
//!
//! * [`QueryEngine::execute`] answers one [`Query`] on the calling thread.
//! * [`QueryEngine::batch`] fans a query slice out across a configurable
//!   number of worker threads. Workers *steal work* at chunk granularity
//!   from a shared atomic cursor, so an expensive straggler query cannot
//!   idle the rest of the pool.
//! * Each worker carries one [`QueryScratch`] — the ranked buffer (a
//!   k-NN query's k-best, a radius query's hits), the best-first queue
//!   and the leaf kernel's distance buffer — reused across every query
//!   it executes.
//!   Once warm, the per-query path performs **zero heap allocations** for
//!   `k = 1` (and exactly one — the `rest` vector of the response — for
//!   `k > 1`); this is property-checked by a counting allocator in
//!   `crates/core/tests/alloc_free.rs`.
//!
//! Nearest-neighbor kernels (see `DESIGN.md` §17): a **MINDIST-ordered
//! best-first traversal** of the point X-tree — of every shard's point
//! X-tree at once, through one queue, for a shard fan-out — streams
//! leaves to this engine in roughly ascending distance. The engine
//! evaluates a leaf in one pass: one lane per point across the leaf's
//! dimension-major block (`Metric::dist_sq_lanes`, bit-identical to the
//! scalar kernel), then compares each live point once, in entry order,
//! against its running k-th-best distance and hands the shrunk bound back
//! to the traversal, which prunes every MBR whose MINDIST exceeds it
//! before the node is ever read. The loop has no data-dependent branch
//! inside the kernel: a mispredicted early-exit check costs more than the
//! lanes it would skip at these dimensionalities (DESIGN.md §17.3). At
//! d = 8 both kernels and the traversal's MINDIST are compiled for that
//! constant dimension, chosen once per query (`execute_inner`): the lane
//! loop runs fastest when `d` is a constant. Every other `d` runs them
//! with the dimension read at run time. A radius query runs the same
//! traversal under the constant bound of its ball, so it reads exactly
//! the pages that meet the ball. The pruning work is reported per query
//! in [`QueryStats`] (`nodes_pruned`, `candidates_examined`, and
//! `candidates` / `candidates_aborted_early` for the evaluations within /
//! beyond the bound).
//!
//! Results are **bit-identical** regardless of thread count and shard
//! count, and identical to a linear scan: every distance evaluation uses
//! the same auto-vectorizable kernel ([`Metric::dist_sq`]), distance ties
//! break by ascending (global) point id, and the prune bounds carry a
//! relative slop so floating-point differences between MBR MINDIST
//! accumulation and the kernel can never skip a true answer.
//!
//! The one exact-scan fallback (`k ≥` the live count) goes through one
//! helper here, which sets [`QueryStats::fallback`] on the response (and
//! `nncell_query_fallback_total` when the engine records metrics). A
//! query with a non-empty memtable tail never falls back: its traversal
//! is complete whenever fewer than k live points exist.

use crate::index::{NnCellIndex, QueryResult};
use crate::memtable::TailSnapshot;
use crate::metrics::EngineMetrics;
use crate::query::{Query, QueryError, QueryKind, QueryResponse, QueryStats};
use nncell_geom::{Euclidean, Metric};
use nncell_index::{BestFirstScratch, ItemId, TraversalStats, Tree};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Relative slop applied to squared-distance pruning/abort bounds. It
/// absorbs the rounding difference between an MBR's MINDIST accumulation
/// and the distance kernel (~1 ulp each), so a bound comparison can only
/// ever be *less* aggressive than the exact comparison it stands in for —
/// a few extra candidates are offered to the k-best, never the reverse.
const BOUND_SLOP: f64 = 1.0 + 1e-12;

/// One worker-produced chunk of batch results, keyed by its input offset.
type BatchPart = (usize, Vec<Result<QueryResponse, QueryError>>);

/// Reusable per-thread query state. All buffers grow to a high-water mark
/// and are then reused allocation-free; one scratch must not be shared
/// between threads (each [`QueryEngine::batch`] worker owns its own).
#[derive(Default)]
pub struct QueryScratch {
    /// `(global id, dist)` buffer: the running k-best of a k-NN query,
    /// ascending by `(dist, id)`, or the hits of a radius query.
    ranked: Vec<QueryResult>,
    /// Priority-queue scratch of the MINDIST-ordered best-first traversal.
    bf: BestFirstScratch,
    /// The leaf kernel's output: one squared distance per entry of the
    /// leaf being evaluated.
    d2: Vec<f64>,
}

impl QueryScratch {
    /// A fresh (cold) scratch; buffers are allocated lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes the buffers hold (their capacities), used or not.
    pub(crate) fn retained_bytes(&self) -> usize {
        use std::mem::size_of;
        self.ranked.capacity() * size_of::<QueryResult>()
            + self.d2.capacity() * size_of::<f64>()
            + self.bf.retained_bytes()
    }

    /// Frees every buffer when together they hold more than `keep`
    /// bytes, so one outsized query (a radius covering most of the index,
    /// a very large k) does not pin its high-water mark in a long-lived
    /// scratch. A scratch within `keep` is left as it is.
    pub(crate) fn trim(&mut self, keep: usize) {
        if self.retained_bytes() > keep {
            *self = Self::new();
        }
    }
}

/// One shard of a [`crate::ShardedIndex`]'s published read state: its
/// index and the view of its unfolded memtable tail (empty once every
/// write is folded). The two are published together, so every live point
/// of the shard is in exactly one of them.
#[derive(Clone)]
pub(crate) struct Shard<M: Metric = Euclidean> {
    pub(crate) index: Arc<NnCellIndex<M>>,
    pub(crate) tail: Arc<TailSnapshot>,
}

/// A shard is a member of the traversal's forest through its point tree.
impl<M: Metric> AsRef<Tree> for Shard<M> {
    fn as_ref(&self) -> &Tree {
        self.index.point_tree()
    }
}

/// The shards an engine reads. Shard `s` maps local id `l` to the global
/// id `l·S + s`, where `S` is the shard count.
enum Forest<'a, M: Metric> {
    /// One index, without a tail.
    One(&'a NnCellIndex<M>),
    /// A fan-out's shards, in shard order.
    Many(&'a [Shard<M>]),
}

impl<'a, M: Metric> Forest<'a, M> {
    fn len(&self) -> usize {
        match self {
            Forest::One(_) => 1,
            Forest::Many(shards) => shards.len(),
        }
    }

    fn index(&self, s: usize) -> &'a NnCellIndex<M> {
        match self {
            Forest::One(index) => index,
            Forest::Many(shards) => &shards[s].index,
        }
    }

    /// Shard `s`'s unfolded tail, when non-empty.
    fn tail(&self, s: usize) -> Option<&'a TailSnapshot> {
        match self {
            Forest::One(_) => None,
            Forest::Many(shards) => Some(&*shards[s].tail).filter(|t| !t.is_empty()),
        }
    }

    /// Shard `s`'s tombstoned local ids, ascending.
    fn tombstones(&self, s: usize) -> &'a [usize] {
        match self {
            Forest::One(_) => &[],
            Forest::Many(shards) => &shards[s].tail.removed,
        }
    }

    /// No live indexed point and no live tail insert in any shard.
    fn is_empty(&self) -> bool {
        (0..self.len())
            .all(|s| self.index(s).is_empty() && self.tail(s).is_none_or(|t| t.inserts.is_empty()))
    }

    /// One best-first traversal of every shard's point tree (see
    /// [`Tree::best_first_stream_with`]); returns its forest totals.
    fn stream<const D: usize>(
        &self,
        q: &[f64],
        bf: &mut BestFirstScratch,
        visit: impl FnMut(usize, &[ItemId], &[f64]) -> f64,
    ) -> TraversalStats {
        match self {
            Forest::One(index) => {
                let tree: &Tree = index.point_tree();
                Tree::best_first_stream_with::<D, _>(&[tree], q, bf, visit)
            }
            Forest::Many(shards) => Tree::best_first_stream_with::<D, _>(shards, q, bf, visit),
        }
    }
}

/// A read-only, thread-safe query session over a built [`NnCellIndex`]
/// (or, inside [`crate::ShardedIndex`], over the forest of its shards).
///
/// ```
/// use nncell_core::{BuildConfig, NnCellIndex, Query, QueryEngine};
/// use nncell_geom::Point;
/// let pts = (0..50)
///     .map(|i| Point::new(vec![(i as f64 + 0.5) / 50.0, ((i * 7 % 50) as f64 + 0.5) / 50.0]))
///     .collect();
/// let index = NnCellIndex::build(pts, BuildConfig::default()).unwrap();
/// let engine = QueryEngine::new(&index);
/// let responses = engine.batch(&[Query::nn([0.2, 0.3]), Query::knn([0.8, 0.1], 5)]);
/// let nn = responses[0].as_ref().unwrap();
/// println!("#{} at {:.3} ({} candidates)", nn.best.id, nn.best.dist, nn.stats.candidates);
/// assert_eq!(responses[1].as_ref().unwrap().len(), 5);
/// ```
pub struct QueryEngine<'a, M: Metric = Euclidean> {
    forest: Forest<'a, M>,
    dim: usize,
    threads: usize,
    /// Where every query is recorded, once: the index's bundle, the
    /// sharded index's for a fan-out; `None` without a registry or after
    /// [`Self::without_metrics`].
    metrics: Option<&'a EngineMetrics>,
    /// Optional budget applied to every query this engine executes, set
    /// only by the shard fan-out; per-request budgets ride on
    /// [`Query::with_deadline`].
    deadline: Option<std::time::Instant>,
}

impl<'a, M: Metric> QueryEngine<'a, M> {
    /// An engine using every available hardware thread for batches.
    pub fn new(index: &'a NnCellIndex<M>) -> Self {
        Self::sequential(index).with_threads(available_threads())
    }

    /// An engine that executes batches on the calling thread only.
    pub fn sequential(index: &'a NnCellIndex<M>) -> Self {
        Self::over(Forest::One(index), index.dim(), index.engine_metrics())
    }

    /// The shard fan-out's engine over a published read state: one
    /// traversal over every shard's point tree, one k-best keyed by
    /// `(dist, global id)` with `global = local · S + shard number`,
    /// recorded in the sharded index's `metrics`. Batches run on the
    /// calling thread; see [`Self::with_threads`].
    pub(crate) fn fan_out(
        dim: usize,
        shards: &'a [Shard<M>],
        metrics: Option<&'a EngineMetrics>,
    ) -> Self {
        Self::over(Forest::Many(shards), dim, metrics)
    }

    /// A sequential engine over `forest`.
    fn over(forest: Forest<'a, M>, dim: usize, metrics: Option<&'a EngineMetrics>) -> Self {
        Self {
            forest,
            dim,
            threads: 1,
            metrics,
            deadline: None,
        }
    }

    /// Overrides the batch worker-thread count (≥ 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one thread");
        self.threads = threads;
        self
    }

    /// Disables metric recording for this engine even when the index has a
    /// registry attached — the control arm of overhead measurements.
    pub fn without_metrics(mut self) -> Self {
        self.metrics = None;
        self
    }

    /// Applies one budget to every query this engine executes (the shard
    /// fan-out applies one admission deadline to a whole batch without
    /// cloning every query). While a query also carries its own
    /// [`Query::with_deadline`] budget, the *earlier* of the two wins.
    pub(crate) fn with_deadline_opt(mut self, deadline: Option<std::time::Instant>) -> Self {
        self.deadline = deadline;
        self
    }

    /// The deadline that governs `q` on this engine: the earlier of the
    /// per-request budget and the engine-level one.
    fn effective_deadline(&self, q: &Query) -> Option<std::time::Instant> {
        match (self.deadline, q.deadline()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// The configured batch worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The index this engine reads.
    pub fn index(&self) -> &'a NnCellIndex<M> {
        self.forest.index(0)
    }

    // ------------------------------------------------------------------
    // execution
    // ------------------------------------------------------------------

    /// Executes one query with a private, cold scratch. For steady-state
    /// throughput prefer [`Self::batch`] or [`Self::execute_with`], which
    /// reuse warm buffers.
    pub fn execute(&self, q: &Query) -> Result<QueryResponse, QueryError> {
        self.execute_with(&mut QueryScratch::new(), q)
    }

    /// Executes one query reusing the caller's scratch buffers. Once the
    /// scratch is warm this path performs no heap allocations for `k = 1` —
    /// with or without an attached metrics registry (recording is a handful
    /// of relaxed atomics; the slow-query ring copies into preallocated
    /// slots).
    ///
    /// With metrics, the query is recorded once, in the engine's one
    /// bundle (the index's, or the sharded index's for a fan-out): one
    /// query, its latency and the whole forest's pages, pruned subtrees
    /// and evaluations, exactly as the response's [`QueryStats`] reports
    /// them.
    pub fn execute_with(
        &self,
        scratch: &mut QueryScratch,
        q: &Query,
    ) -> Result<QueryResponse, QueryError> {
        // Inert (one thread-local read) unless this thread is inside a
        // sampled trace; the guard closes when the function returns.
        let mut span = nncell_obs::trace::child("engine.query");
        let start = self.metrics.is_some().then(std::time::Instant::now);
        let result = self.execute_inner(scratch, q);
        if let Ok(resp) = &result {
            span.arg("candidates", resp.stats.candidates as u64);
            span.arg("pages", resp.stats.pages);
            span.arg("nodes_pruned", resp.stats.nodes_pruned);
            span.arg("examined", resp.stats.candidates_examined as u64);
            span.arg("aborted_early", resp.stats.candidates_aborted_early as u64);
        }
        let (Some(m), Some(start)) = (self.metrics, start) else {
            return result;
        };
        let latency_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        m.queries.inc();
        let Ok(resp) = &result else {
            m.query_errors.inc();
            return result;
        };
        let stats = &resp.stats;
        m.latency_ns.record(latency_ns);
        m.candidates.record(stats.candidates as u64);
        m.pages.record(stats.pages);
        m.nodes_pruned.record(stats.nodes_pruned);
        m.candidates_examined
            .record(stats.candidates_examined as u64);
        m.aborted_early
            .record(stats.candidates_aborted_early as u64);
        if stats.fallback {
            m.fallbacks.inc();
        }
        // The slow log's `k` column is the requested neighbor count; a
        // radius query has none, so it records 0 rather than the sentinel
        // `usize::MAX` that `Query::k` returns.
        let logged_k = match q.kind() {
            QueryKind::Nearest { k } => k,
            QueryKind::Radius { .. } => 0,
        };
        // Slow-query exemplar: stamp the active trace id (0 when
        // untraced) so a tripped slow-log entry links to its span
        // timeline in the flight recorder.
        m.slow.record(
            latency_ns,
            q.point(),
            logged_k,
            stats.candidates,
            stats.pages as usize,
            stats.fallback,
            nncell_obs::trace::current_trace_id(),
        );
        result
    }

    /// The uninstrumented execution path shared by both arms; every
    /// successful path returns the query's counters in the response.
    fn execute_inner(
        &self,
        scratch: &mut QueryScratch,
        q: &Query,
    ) -> Result<QueryResponse, QueryError> {
        let p = q.point();
        if p.len() != self.dim {
            return Err(QueryError::DimMismatch {
                expected: self.dim,
                got: p.len(),
            });
        }
        if p.iter().any(|c| !c.is_finite()) {
            return Err(QueryError::NonFiniteQuery);
        }
        match q.kind() {
            QueryKind::Nearest { k: 0 } => return Err(QueryError::ZeroK),
            QueryKind::Radius { radius } if !radius.is_finite() || radius < 0.0 => {
                return Err(QueryError::InvalidRadius)
            }
            _ => {}
        }
        let deadline = self.effective_deadline(q);
        if self.forest.is_empty() {
            return Err(QueryError::EmptyIndex);
        }
        if out_of_budget(deadline) {
            return Err(QueryError::DeadlineExceeded);
        }
        // The one dimension dispatch: the kernels compiled for d = 8, the
        // dimension every benchmark workload measures, or for any (`D = 0`).
        // A constant is added only with a measured end-to-end win at it.
        let run = match self.dim {
            8 => Self::run::<8>,
            _ => Self::run::<0>,
        };
        run(self, scratch, p, q.kind(), deadline)
    }

    /// Executes a query slice across the configured thread pool, returning
    /// one result per query **in input order**. Results are bit-identical
    /// for every thread count (queries are independent; each is executed
    /// exactly once).
    ///
    /// Workers claim fixed-size chunks from an atomic cursor
    /// (work-stealing), each reusing its own warm [`QueryScratch`].
    pub fn batch(&self, queries: &[Query]) -> Vec<Result<QueryResponse, QueryError>> {
        let n = queries.len();
        let threads = self.threads.min(n.max(1));
        if threads <= 1 {
            let mut scratch = QueryScratch::new();
            return queries
                .iter()
                .map(|q| self.execute_with(&mut scratch, q))
                .collect();
        }
        // Chunks small enough that stragglers rebalance, big enough that
        // the cursor and the merge lock stay cold.
        let chunk = (n / (threads * 4)).clamp(1, 1024);
        let n_chunks = n.div_ceil(chunk);
        let cursor = AtomicUsize::new(0);
        let parts: Mutex<Vec<BatchPart>> = Mutex::new(Vec::with_capacity(n_chunks));
        // Workers inherit the spawner's trace context (if any) so their
        // per-query spans parent under the same request trace.
        let trace_ctx = nncell_obs::trace::current();
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    let _trace = nncell_obs::trace::adopt(trace_ctx);
                    let mut scratch = QueryScratch::new();
                    loop {
                        let ci = cursor.fetch_add(1, Ordering::Relaxed);
                        if ci >= n_chunks {
                            break;
                        }
                        let lo = ci * chunk;
                        let hi = (lo + chunk).min(n);
                        let part: Vec<_> = queries[lo..hi]
                            .iter()
                            .map(|q| self.execute_with(&mut scratch, q))
                            .collect();
                        parts.lock().expect("batch merge lock").push((lo, part));
                    }
                });
            }
        });
        let mut parts = parts.into_inner().expect("batch merge lock");
        parts.sort_unstable_by_key(|(lo, _)| *lo);
        let mut out = Vec::with_capacity(n);
        for (_, part) in parts {
            out.extend(part);
        }
        out
    }

    // ------------------------------------------------------------------
    // the two query kernels
    // ------------------------------------------------------------------

    /// The kernel of `kind`, compiled for dimension `D` (`D = 0`: the
    /// engine's dimension, read at run time).
    fn run<const D: usize>(
        &self,
        scratch: &mut QueryScratch,
        p: &[f64],
        kind: QueryKind,
        deadline: Option<std::time::Instant>,
    ) -> Result<QueryResponse, QueryError> {
        match kind {
            QueryKind::Nearest { k } => self.run_knn::<D>(scratch, p, k, deadline),
            QueryKind::Radius { radius } => self.run_radius::<D>(scratch, p, radius, deadline),
        }
    }

    /// The metric (every shard shares it) and its smallest weight, which
    /// converts a weighted-metric bound into the trees' Euclidean
    /// geometry: `d²_w(q, x) ≥ w_min · ‖q − x‖²`.
    fn metric(&self) -> (&'a M, f64) {
        let metric = self.forest.index(0).metric();
        let mut w_min = f64::INFINITY;
        for i in 0..self.dim {
            w_min = w_min.min(metric.weight(i));
        }
        (metric, w_min)
    }

    /// Exact k-NN (including `k = 1`) by one MINDIST-ordered best-first
    /// traversal of every shard's **point** X-tree, optionally seeded by
    /// the shards' non-empty memtable tails.
    ///
    /// The traversal ([`nncell_index::Tree::best_first_stream_with`])
    /// expands directory pages of the whole forest in ascending MINDIST
    /// order and streams each leaf whole — its tree, its item ids and its
    /// dimension-major block — to the closure below, which evaluates every
    /// entry exactly in one lane-per-point pass, then, in entry order,
    /// offers each live point under its global id to the one k-best unless
    /// it lies beyond the slopped k-th-best bound, and hands the shrunk
    /// bound back for page pruning in every tree. The k-best evolves as if
    /// the points came one by one: a point's distance does not depend on
    /// the bound, and the traversal reads the bound only between leaves. Exactness: a page is pruned only when its MINDIST
    /// **strictly** exceeds the slopped bound
    /// `(kth_dist)² · BOUND_SLOP / w_min` (see [`Self::metric`]), so every
    /// point of every shard that could tie or beat the k-th result is
    /// evaluated exactly — with the same kernel, in the same
    /// `(dist, global id)` order, as the linear scan.
    ///
    /// With tails, every shard's live inserts are scanned first into the
    /// same k-best (same kernel, same order, same slop), so the traversal
    /// runs from the bound they set instead of from ∞ (it adopts it at its
    /// first streamed item). A shard's tombstoned ids are skipped; the
    /// check runs only for a candidate that would enter the k-best. A
    /// shard's index and tail are published together, so no point is on
    /// both sides. The tail path never takes the `k ≥ len`
    /// scan fallback: the traversal is complete while the k-best is short,
    /// and `len` counts neither tail inserts nor tombstones.
    ///
    /// The configured budget (if any) is checked every 256 tail inserts
    /// and after each leaf that completes 128 streamed items since the
    /// last check; an expired budget aborts the query and surfaces as
    /// [`QueryError::DeadlineExceeded`] instead of hogging the worker.
    fn run_knn<const D: usize>(
        &self,
        scratch: &mut QueryScratch,
        p: &[f64],
        k: usize,
        deadline: Option<std::time::Instant>,
    ) -> Result<QueryResponse, QueryError> {
        let forest = &self.forest;
        let has_tail = (0..forest.len()).any(|s| forest.tail(s).is_some());
        let indexed: usize = (0..forest.len()).map(|s| forest.index(s).len()).sum();
        if !has_tail && k >= indexed {
            // k ≥ len needs every live point anyway. A query outside the
            // data space needs no scan: MINDIST ordering over the point
            // tree is exact for any query point.
            return Ok(self.scan_knn(p, k));
        }
        let (metric, w_min) = self.metric();
        let stride = forest.len();
        let QueryScratch { ranked, bf, d2 } = scratch;
        ranked.clear();
        let mut stats = QueryStats::default();
        let mut seeded = 0usize;
        let mut visits = 0usize;
        let mut deadline_hit = false;
        // Squared-distance bounds: a candidate beyond `abort_bound` is not
        // offered, `tree_bound` (its Euclidean relaxation) prunes pages.
        let mut abort_bound = f64::INFINITY;
        let mut tree_bound = f64::INFINITY;
        // Both bounds from a new k-th-best distance `b`.
        let bounds = |b: f64| {
            let abort = (b * b) * BOUND_SLOP;
            (abort, abort / w_min)
        };
        for s in 0..stride {
            let Some(t) = forest.tail(s) else {
                continue;
            };
            let mut span = nncell_obs::trace::child("engine.tail_merge");
            span.arg("tail", t.inserts.len() as u64);
            stats.tail += t.inserts.len();
            for (local, pt) in &t.inserts {
                if seeded % 256 == 255 && out_of_budget(deadline) {
                    return Err(QueryError::DeadlineExceeded);
                }
                seeded += 1;
                let d2 = metric.dist_sq(p, pt.as_slice());
                if d2 > abort_bound {
                    continue;
                }
                stats.candidates += 1;
                let r = QueryResult {
                    id: local * stride + s,
                    dist: d2.sqrt(),
                };
                if let Some(b) = offer(ranked, k, r, &[], *local) {
                    (abort_bound, tree_bound) = bounds(b);
                }
            }
        }
        // The per-point path updates no counter: the evaluations are the
        // streamed items (counted by the traversal, added after the walk),
        // and only candidates within the bound, rare next to the
        // evaluations beyond it, are counted one by one. The point tree
        // holds only live ids (`remove` deletes from it as it clears
        // `alive`), so a streamed point needs no liveness check.
        let walk = forest.stream::<D>(p, bf, |t, items, block| {
            visits += items.len();
            if visits >= 128 {
                visits = 0;
                if out_of_budget(deadline) {
                    deadline_hit = true;
                    return f64::NEG_INFINITY; // abort the whole traversal
                }
            }
            let tombstones = forest.tombstones(t);
            let dists = leaf_dists::<D, M>(metric, p, block, d2, items.len());
            // Point-tree items carry raw local point ids (no piece
            // encoding).
            for (&item, &d2) in items.iter().zip(dists) {
                let local = item as usize;
                debug_assert!(forest.index(t).is_live(local), "point tree out of sync");
                if d2 > abort_bound {
                    continue; // provably beyond the k-th best
                }
                stats.candidates += 1;
                let r = QueryResult {
                    id: local * stride + t,
                    dist: d2.sqrt(),
                };
                if let Some(b) = offer(ranked, k, r, tombstones, local) {
                    (abort_bound, tree_bound) = bounds(b);
                }
            }
            tree_bound
        });
        if deadline_hit {
            return Err(QueryError::DeadlineExceeded);
        }
        if ranked.is_empty() {
            // With a tail: every indexed point is tombstoned and no tail
            // holds an insert, so the live set is genuinely empty.
            // Without one this is unreachable while the trees and
            // alive-masks agree (k < len guarantees live points exist),
            // but the library contract is degrade-not-panic.
            return if has_tail {
                Err(QueryError::EmptyIndex)
            } else {
                Ok(self.scan_knn(p, k))
            };
        }
        add_walk(&mut stats, walk);
        Ok(QueryResponse {
            best: ranked[0],
            rest: ranked[1..].to_vec(),
            stats,
        })
    }

    /// Exact radius query: one best-first traversal of every shard's point
    /// tree under a constant bound, the squared radius of the Euclidean
    /// ball that holds the metric ball. That bound is the
    /// `intersects_sphere` test, so the traversal reads exactly the pages
    /// that meet the ball. Every streamed leaf is evaluated with the exact
    /// lane kernel in place, and each live point of it is kept when
    /// `dist ≤ r` and its id is not tombstoned. The shards' live tail
    /// inserts inside the ball join the hits, and the union is sorted by
    /// `(distance, global id)` once. No truncation — a radius query returns
    /// everything the ball contains. Unlike k-NN this needs no scan
    /// fallback: the point trees hold every indexed live point, and the
    /// traversal is exact for *any* center, including centers outside the
    /// data space.
    ///
    /// The configured budget (if any) is checked as for k-NN: after each
    /// leaf that completes 128 streamed items, and every 256 tail inserts.
    fn run_radius<const D: usize>(
        &self,
        scratch: &mut QueryScratch,
        p: &[f64],
        r: f64,
        deadline: Option<std::time::Instant>,
    ) -> Result<QueryResponse, QueryError> {
        let (metric, w_min) = self.metric();
        // The trees prune in Euclidean geometry; a weighted-metric ball of
        // radius r is contained in the Euclidean ball of radius
        // r / sqrt(min weight). The tiny inflation keeps boundary points
        // (dist == r exactly) from being pruned by the tree's own
        // floating-point arithmetic.
        let tree_r = (r / w_min.sqrt()) * (1.0 + 1e-9) + 1e-12;
        let tree_bound = tree_r * tree_r + nncell_geom::EPS;
        let abort_bound = radius_bound(r);
        let forest = &self.forest;
        let stride = forest.len();
        let QueryScratch {
            ranked: hits,
            bf,
            d2,
        } = scratch;
        hits.clear();
        let mut stats = QueryStats::default();
        // One evaluated point of shard `s`. The examined count is the
        // streamed items (added after the walk) plus the tail inserts.
        let mut keep = |s: usize, local: usize, d2: f64| {
            if d2 > abort_bound {
                return; // provably outside the ball
            }
            stats.candidates += 1;
            let dist = d2.sqrt();
            if dist <= r && forest.tombstones(s).binary_search(&local).is_err() {
                let id = local * stride + s;
                hits.push(QueryResult { id, dist });
            }
        };
        let mut visits = 0usize;
        let mut deadline_hit = false;
        let walk = forest.stream::<D>(p, bf, |t, items, block| {
            visits += items.len();
            if visits >= 128 {
                visits = 0;
                if out_of_budget(deadline) {
                    deadline_hit = true;
                    return f64::NEG_INFINITY; // abort the whole traversal
                }
            }
            let dists = leaf_dists::<D, M>(metric, p, block, d2, items.len());
            for (&item, &d2) in items.iter().zip(dists) {
                let local = item as usize;
                debug_assert!(forest.index(t).is_live(local), "point tree out of sync");
                keep(t, local, d2);
            }
            tree_bound
        });
        if deadline_hit {
            return Err(QueryError::DeadlineExceeded);
        }
        let mut seeded = 0usize;
        for s in 0..stride {
            let Some(t) = forest.tail(s) else {
                continue;
            };
            stats.tail += t.inserts.len();
            for (local, pt) in &t.inserts {
                if seeded % 256 == 255 && out_of_budget(deadline) {
                    return Err(QueryError::DeadlineExceeded);
                }
                seeded += 1;
                keep(s, *local, metric.dist_sq(p, pt.as_slice()));
            }
        }
        add_walk(&mut stats, walk);
        hits.sort_unstable_by(cmp_results);
        match hits.split_first() {
            None => Err(QueryError::EmptyRadius),
            Some((best, rest)) => Ok(QueryResponse {
                best: *best,
                rest: rest.to_vec(),
                stats,
            }),
        }
    }

    // ------------------------------------------------------------------
    // the one place every scan fallback goes through
    // ------------------------------------------------------------------

    /// Exact k-NN by scanning every shard's flat point layout, ranked by
    /// `(dist, global id)`, with the scan's counters marked as a fallback.
    fn scan_knn(&self, p: &[f64], k: usize) -> QueryResponse {
        let _span = nncell_obs::trace::child("engine.scan_fallback");
        let (metric, _) = self.metric();
        let stride = self.forest.len();
        let mut all: Vec<QueryResult> = Vec::new();
        for s in 0..stride {
            let idx = self.forest.index(s);
            let alive = idx.alive();
            all.extend(
                (0..alive.len())
                    .filter(|&l| alive[l])
                    .map(|local| QueryResult {
                        id: local * stride + s,
                        dist: metric.dist(p, idx.flat_point(local)),
                    }),
            );
        }
        let stats = QueryStats {
            candidates: all.len(),
            fallback: true,
            candidates_examined: all.len(),
            ..QueryStats::default()
        };
        all.sort_unstable_by(cmp_results);
        all.truncate(k);
        // `execute_with` rejected empty indexes, so `all` is never empty;
        // the guard keeps this helper total anyway.
        let best = all.first().copied().unwrap_or(QueryResult {
            id: 0,
            dist: f64::INFINITY,
        });
        QueryResponse {
            best,
            rest: all.get(1..).map_or_else(Vec::new, <[QueryResult]>::to_vec),
            stats,
        }
    }
}

/// Offers a completed candidate to the running k-best `ranked` (ascending
/// `(dist, global id)`, at most `k` long). It enters when the list is
/// short or it beats the k-th, unless its shard-local id `local` is in its
/// shard's `tombstones` (sorted). Returns the k-th distance when the
/// candidate entered and the list is full.
fn offer(
    ranked: &mut Vec<QueryResult>,
    k: usize,
    r: QueryResult,
    tombstones: &[usize],
    local: usize,
) -> Option<f64> {
    let full = ranked.len() == k;
    if full && cmp_results(&r, &ranked[k - 1]) != std::cmp::Ordering::Less {
        return None;
    }
    if !tombstones.is_empty() && tombstones.binary_search(&local).is_ok() {
        return None;
    }
    let pos = ranked.partition_point(|x| cmp_results(x, &r) == std::cmp::Ordering::Less);
    if full {
        ranked.pop();
    }
    ranked.insert(pos, r);
    (ranked.len() == k).then(|| ranked[k - 1].dist)
}

/// Completes a kernel's counters with its traversal's totals: pages and
/// pruned subtrees, and every streamed item as one evaluation next to the
/// tail inserts; an evaluation that was not a candidate lay beyond the
/// bound.
fn add_walk(stats: &mut QueryStats, walk: TraversalStats) {
    stats.pages = walk.pages;
    stats.nodes_pruned = walk.nodes_pruned;
    stats.candidates_examined = stats.tail + walk.items as usize;
    stats.candidates_aborted_early = stats.candidates_examined - stats.candidates;
}

/// The leaf kernel: the squared distance from `p` to each of the `m`
/// points of a leaf's dimension-major `block`, computed into `buf` (grown
/// to the largest leaf seen, then reused) and returned in entry order.
#[inline(always)]
fn leaf_dists<'b, const D: usize, M: Metric>(
    metric: &M,
    p: &[f64],
    block: &[f64],
    buf: &'b mut Vec<f64>,
    m: usize,
) -> &'b [f64] {
    if buf.len() < m {
        buf.resize(m, 0.0);
    }
    let out = &mut buf[..m];
    metric.dist_sq_lanes::<D>(p, block, out);
    out
}

/// The squared bound of a radius-`r` ball: a point beyond `r²` (plus slop,
/// so an exact-boundary point is never cut) is outside the ball.
fn radius_bound(r: f64) -> f64 {
    (r * r) * BOUND_SLOP
}

/// Every available hardware thread (1 when the count is unknown).
pub(crate) fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Whether the (optional) deadline has passed.
fn out_of_budget(deadline: Option<std::time::Instant>) -> bool {
    deadline.is_some_and(|d| std::time::Instant::now() >= d)
}

/// The one result ordering every exact path uses: ascending `(dist, id)`
/// with [`f64::total_cmp`] — the exact ordering of
/// [`crate::scan::linear_scan_knn`], which makes results bit-identical to
/// the linear scan and independent of candidate arrival order.
fn cmp_results(a: &QueryResult, b: &QueryResult) -> std::cmp::Ordering {
    a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BuildConfig, Strategy};
    use crate::ShardedIndex;
    use nncell_geom::{dist_sq, Point};

    /// 60 distinct points on a 2-d lattice, ids 0..60.
    fn lattice() -> Vec<Point> {
        (0..60)
            .map(|i| Point::new(vec![(i % 8) as f64 / 8.0, (i / 8) as f64 / 8.0]))
            .collect()
    }

    fn build(pts: &[Point]) -> NnCellIndex {
        NnCellIndex::build(
            pts.to_vec(),
            BuildConfig::builder()
                .strategy(Strategy::Sphere)
                .seed(5)
                .build(),
        )
        .unwrap()
    }

    /// `(id, distance bits)` of the k nearest `(id, point)` pairs by
    /// linear scan, ranked by `(distance, id)`.
    fn scan(live: &[(usize, &Point)], q: &[f64], k: usize) -> Vec<(usize, u64)> {
        let mut all: Vec<QueryResult> = live
            .iter()
            .map(|(id, p)| QueryResult {
                id: *id,
                dist: dist_sq(q, p).sqrt(),
            })
            .collect();
        all.sort_by(cmp_results);
        all.iter()
            .take(k)
            .map(|r| (r.id, r.dist.to_bits()))
            .collect()
    }

    fn bits(r: &QueryResponse) -> Vec<(usize, u64)> {
        r.iter().map(|x| (x.id, x.dist.to_bits())).collect()
    }

    /// A one-shard index over `pts` whose removes of `dead` stay unfolded
    /// in its tail.
    fn with_unfolded_removes(pts: &[Point], dead: &[usize]) -> ShardedIndex {
        let cfg = BuildConfig::builder()
            .strategy(Strategy::Sphere)
            .seed(5)
            .build();
        let idx = ShardedIndex::build(pts.to_vec(), 1, cfg).unwrap();
        for &id in dead {
            assert!(idx.remove(id).unwrap());
        }
        assert_eq!(idx.tail_depth(), dead.len());
        idx
    }

    #[test]
    fn a_tombstoned_neighbor_is_replaced_by_the_next_one() {
        let pts = lattice();
        let q = [0.3, 0.4];
        let all: Vec<(usize, &Point)> = pts.iter().enumerate().collect();
        let nearest: Vec<usize> = scan(&all, &q, 4).iter().map(|(id, _)| *id).collect();
        // Tombstone the best and the third-best of the true 4 nearest.
        let dead = [nearest[0], nearest[2]];
        let idx = with_unfolded_removes(&pts, &dead);
        let live: Vec<(usize, &Point)> = all
            .iter()
            .copied()
            .filter(|(id, _)| !dead.contains(id))
            .collect();
        for k in [1, 3, 4, 58, 60] {
            let r = idx.query(&Query::knn(q, k)).unwrap();
            assert_eq!(bits(&r), scan(&live, &q, k), "k = {k}");
            assert!(r.iter().all(|x| !dead.contains(&x.id)));
        }
        let r = idx.query(&Query::radius(q, 0.3)).unwrap();
        assert!(r.iter().all(|x| !dead.contains(&x.id)));
        assert_eq!(bits(&r), scan(&live, &q, r.len()));
    }

    #[test]
    fn a_fully_tombstoned_index_without_tail_inserts_is_empty() {
        let pts: Vec<Point> = lattice().into_iter().take(3).collect();
        let idx = with_unfolded_removes(&pts, &[0, 1, 2]);
        assert_eq!(
            idx.query(&Query::knn([0.5, 0.5], 2)).unwrap_err(),
            QueryError::EmptyIndex
        );
    }

    #[test]
    fn trim_frees_only_an_outsized_scratch() {
        let idx = build(&lattice());
        let engine = idx.engine();
        let mut scratch = QueryScratch::new();
        engine
            .execute_with(&mut scratch, &Query::nn([0.5, 0.5]))
            .unwrap();
        let small = scratch.retained_bytes();
        assert!(small > 0);
        scratch.trim(small);
        assert_eq!(scratch.retained_bytes(), small, "within the bound: kept");
        let all = engine
            .execute_with(&mut scratch, &Query::radius([0.5, 0.5], 2.0))
            .unwrap();
        assert_eq!(all.len(), 60);
        assert!(scratch.retained_bytes() > small);
        scratch.trim(small);
        assert_eq!(scratch.retained_bytes(), 0, "outsized: freed");
    }
}
