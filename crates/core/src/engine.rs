//! The throughput-grade query engine: parallel batch execution with
//! reusable per-thread scratch state.
//!
//! [`QueryEngine`] is a cheap, read-only session over a built
//! [`NnCellIndex`] — or, inside [`crate::ShardedIndex`], over the forest
//! of every shard's index. It owns no data — it borrows the indexes,
//! whose point-tree leaves hold each point's coordinates in one
//! dimension-major block, the only copy the index keeps — so
//! constructing one is free, and any number of engines can query one
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
//! Inside a [`crate::ShardedIndex`] with a memtable, each shard's
//! unfolded tail inserts are not in its tree. The engine scans them after
//! the traversal, under the bound the traversal ended with, with the same
//! lane kernel: the tail stores its coordinates in dimension-major chunks
//! of 64 inserts, the layout of a leaf's block.
//!
//! Every k-NN query, `k ≥` the live count included, takes the one
//! traversal: while the k-best is short its bound is ∞, so the traversal
//! prunes nothing and streams every live point. The k-best fills
//! unsorted and sorts once, when it reaches k or when the traversal ends
//! short of k, so a query for every point costs one sort, not one sorted
//! insert per point.

use crate::index::{NnCellIndex, QueryResult};
use crate::memtable::{TailSnapshot, TAIL_CHUNK};
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
    /// `(global id, dist)` buffer: the running k-best of a k-NN query
    /// (unsorted until it holds k, then ascending by `(dist, id)`), or the
    /// hits of a radius query.
    ranked: Vec<QueryResult>,
    /// Priority-queue scratch of the MINDIST-ordered best-first traversal.
    bf: BestFirstScratch,
    /// The leaf kernel's output: one squared distance per entry of the
    /// leaf (or lane of the tail chunk) being evaluated.
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
/// index, the global id of each of the index's slots, and the view of its
/// unfolded memtable tail (empty once every write is folded). They are
/// published together, so every live point of the shard is in exactly
/// one of the index and the tail, and every slot has its id.
#[derive(Clone)]
pub(crate) struct Shard<M: Metric = Euclidean> {
    pub(crate) index: Arc<NnCellIndex<M>>,
    /// `ids[l]` is the global id of slot `l`; strictly ascending, since a
    /// shard takes its slots in global-id order.
    pub(crate) ids: Arc<Vec<usize>>,
    pub(crate) tail: Arc<TailSnapshot>,
}

/// A shard is a member of the traversal's forest through its point tree.
impl<M: Metric> AsRef<Tree> for Shard<M> {
    fn as_ref(&self) -> &Tree {
        self.index.point_tree()
    }
}

/// The shards an engine reads. Shard `s` maps local id `l` to the global
/// id in slot `l` of its id column; a lone index's ids are its slots.
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

    /// The global id of shard `s`'s slot `local`. Read only for a
    /// candidate within the bound, never per streamed point.
    #[inline]
    fn global(&self, s: usize, local: usize) -> usize {
        match self {
            Forest::One(_) => local,
            Forest::Many(shards) => shards[s].ids[local],
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
    /// `(dist, global id)`, each shard's slot mapped to its global id by
    /// the shard's id column, recorded in the sharded index's `metrics`.
    /// Batches run on the calling thread; see [`Self::with_threads`].
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
    /// traversal of every shard's **point** X-tree, then one scan of the
    /// shards' non-empty memtable tails under the walk's bound.
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
    /// A shard's tombstoned ids are skipped; the check runs only for a
    /// candidate that would enter the k-best. With tails, every shard's
    /// live inserts are scanned after the walk ([`Self::scan_tails`]) into
    /// the same k-best, with the same lane kernel and the same slop, under
    /// the k-th-best bound the walk ended with. That bound was taken over a
    /// subset of the live points, so it never undercuts the final k-th
    /// distance, and the k-best of `(dist, global id)` does not depend on
    /// the order its candidates arrive in: the answer is the one the scan
    /// would give. Run first, from ∞, the tail would offer its first k
    /// inserts whatever their distance; run last, it offers only inserts
    /// that beat the forest's k-th best. A shard's index and tail are
    /// published together, so no point is on both sides.
    ///
    /// A query for at least as many neighbors as there are live points
    /// takes the same path: the bound stays ∞ while the k-best is short,
    /// so nothing is pruned and every live point is streamed, and the
    /// k-best, filled unsorted (see [`offer`]), is sorted once at the end.
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
        let (metric, w_min) = self.metric();
        let QueryScratch { ranked, bf, d2 } = scratch;
        ranked.clear();
        let mut stats = QueryStats::default();
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
        // The per-point path updates no counter: the evaluations are the
        // streamed items (counted by the traversal, added after the walk),
        // and only candidates within the bound, rare next to the
        // evaluations beyond it, are counted one by one. The point tree
        // holds only live ids (`remove` deletes the point from it and
        // leaves its slot dead), so a streamed point needs no liveness
        // check.
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
                    id: forest.global(t, local),
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
        // The tail inserts last, under the walk's k-th-best bound: a tail
        // insert is never tombstoned (a remove drops it).
        stats.tail = self.scan_tails::<D>(metric, p, d2, deadline, |id, d2| {
            if d2 > abort_bound {
                return;
            }
            stats.candidates += 1;
            let r = QueryResult {
                id,
                dist: d2.sqrt(),
            };
            if let Some(b) = offer(ranked, k, r, &[], 0) {
                abort_bound = bounds(b).0;
            }
        })?;
        if ranked.is_empty() {
            // Every indexed point is tombstoned and no tail holds an
            // insert: the live set is empty.
            return Err(QueryError::EmptyIndex);
        }
        if ranked.len() < k {
            // The k-best never filled, so it was never sorted.
            ranked.sort_unstable_by_key(rank_key);
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
    /// inserts inside the ball join the hits ([`Self::scan_tails`], after
    /// the walk), and the union is sorted by
    /// `(distance, global id)` once. No truncation — a radius query returns
    /// everything the ball contains. The point trees hold every indexed
    /// live point, and the traversal is exact for *any* center, including
    /// centers outside the data space.
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
        let QueryScratch {
            ranked: hits,
            bf,
            d2,
        } = scratch;
        hits.clear();
        let mut stats = QueryStats::default();
        // One evaluated point in slot `local` of a shard with `tombstones`:
        // its distance when it is a hit. The examined count is the
        // streamed items (added after the walk) plus the tail inserts.
        let mut keep = |tombstones: &[usize], local: usize, d2: f64| {
            if d2 > abort_bound {
                return None; // provably outside the ball
            }
            stats.candidates += 1;
            let dist = d2.sqrt();
            (dist <= r && tombstones.binary_search(&local).is_err()).then_some(dist)
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
                if let Some(dist) = keep(forest.tombstones(t), local, d2) {
                    let id = forest.global(t, local);
                    hits.push(QueryResult { id, dist });
                }
            }
            tree_bound
        });
        if deadline_hit {
            return Err(QueryError::DeadlineExceeded);
        }
        // A tail insert is never tombstoned: a remove drops it.
        stats.tail = self.scan_tails::<D>(metric, p, d2, deadline, |id, d2| {
            if let Some(dist) = keep(&[], 0, d2) {
                hits.push(QueryResult { id, dist });
            }
        })?;
        add_walk(&mut stats, walk);
        hits.sort_unstable_by_key(rank_key);
        match hits.split_first() {
            None => Err(QueryError::EmptyRadius),
            Some((best, rest)) => Ok(QueryResponse {
                best: *best,
                rest: rest.to_vec(),
                stats,
            }),
        }
    }

    /// The exact linear scan of every shard's live tail inserts, run
    /// after the walk: each chunk of [`TAIL_CHUNK`] inserts is evaluated
    /// by the leaf kernel in one lane-per-point pass, and `visit` gets
    /// each insert's global id and squared distance in ack order (the
    /// chunk's padding lanes are skipped). Returns the inserts scanned.
    ///
    /// The budget (if any) is checked every 256 inserts; an expired one
    /// surfaces as [`QueryError::DeadlineExceeded`].
    fn scan_tails<const D: usize>(
        &self,
        metric: &M,
        p: &[f64],
        buf: &mut Vec<f64>,
        deadline: Option<std::time::Instant>,
        mut visit: impl FnMut(usize, f64),
    ) -> Result<usize, QueryError> {
        let (mut scanned, mut since_check) = (0, 0);
        for s in 0..self.forest.len() {
            let Some(t) = self.forest.tail(s) else {
                continue;
            };
            let mut span = nncell_obs::trace::child("engine.tail_merge");
            span.arg("tail", t.inserts.len() as u64);
            scanned += t.inserts.len();
            for (block, globals) in t.inserts.chunks() {
                since_check += globals.len();
                if since_check >= 256 {
                    since_check = 0;
                    if out_of_budget(deadline) {
                        return Err(QueryError::DeadlineExceeded);
                    }
                }
                let dists = leaf_dists::<D, M>(metric, p, block, buf, TAIL_CHUNK);
                for (&id, &d2) in globals.iter().zip(dists) {
                    visit(id, d2);
                }
            }
        }
        Ok(scanned)
    }
}

/// Offers a completed candidate to the running k-best `ranked` (at most
/// `k` long). It enters when the list is short or it beats the k-th,
/// unless its shard-local id `local` is in its shard's `tombstones`
/// (sorted). Returns the k-th distance when the candidate entered and the
/// list is full.
///
/// A short list is unsorted: a candidate is pushed, and the list is
/// sorted by `(dist, global id)` once, when it reaches k. From then on it
/// stays sorted and a candidate is inserted in place. Filling by sorted
/// insert would cost O(k²) moves, which a query with `k ≥` the live count
/// pays in full; the bound is ∞ until the list is full, so no bound is
/// read from the unsorted list. A caller whose list ends short sorts it.
fn offer(
    ranked: &mut Vec<QueryResult>,
    k: usize,
    r: QueryResult,
    tombstones: &[usize],
    local: usize,
) -> Option<f64> {
    let key = rank_key(&r);
    let full = ranked.len() == k;
    if full && key >= rank_key(&ranked[k - 1]) {
        return None;
    }
    if !tombstones.is_empty() && tombstones.binary_search(&local).is_ok() {
        return None;
    }
    if full {
        let pos = ranked.partition_point(|x| rank_key(x) < key);
        ranked.pop();
        ranked.insert(pos, r);
    } else {
        ranked.push(r);
        if ranked.len() < k {
            return None;
        }
        ranked.sort_unstable_by_key(rank_key);
    }
    Some(ranked[k - 1].dist)
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

/// The one result ordering every exact path uses, as one integer key:
/// ascending `(dist, id)` with [`f64::total_cmp`] — the exact ordering of
/// [`crate::scan::linear_scan_knn`], which makes results bit-identical to
/// the linear scan and independent of candidate arrival order. A distance
/// is a square root, never negative, and the bits of a non-negative `f64`
/// order as `total_cmp` orders it. One integer compare makes the sort that
/// ranks a `k ≥ len` answer about a third cheaper.
#[inline]
fn rank_key(r: &QueryResult) -> u128 {
    (u128::from(r.dist.to_bits()) << 64) | r.id as u128
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
        all.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
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
    fn tail_inserts_beyond_the_kth_bound_are_never_candidates() {
        let pts = lattice();
        let q = [0.05, 0.05];
        let dead = [0, 9, 30];
        // 70 tail inserts (two chunks) in the far corner of the unit
        // square, every one farther from `q` than the whole lattice.
        let far: Vec<Point> = (0..70)
            .map(|i| Point::new(vec![0.9 + 0.001 * i as f64, 0.99]))
            .collect();
        let plain = with_unfolded_removes(&pts, &dead);
        let idx = with_unfolded_removes(&pts, &dead);
        for p in &far {
            idx.insert(p.clone()).unwrap();
        }
        assert_eq!(idx.tail_depth(), dead.len() + far.len());
        // The live set in ascending global id: the lattice's survivors,
        // then the inserts under ids 60, 61, ...
        let live: Vec<(usize, Point)> = (pts.iter().enumerate())
            .filter(|(id, _)| !dead.contains(id))
            .map(|(id, p)| (id, p.clone()))
            .chain(far.iter().cloned().enumerate().map(|(i, p)| (60 + i, p)))
            .collect();
        let live_pts: Vec<Point> = live.iter().map(|(_, p)| p.clone()).collect();
        let oracle = |k: usize| -> Vec<(usize, u64)> {
            crate::scan::linear_scan_knn(&live_pts, &q, k)
                .iter()
                .map(|r| (live[r.id].0, r.dist.to_bits()))
                .collect()
        };
        for k in [1, 5, live.len(), live.len() + 3] {
            let r = idx.query(&Query::knn(q, k)).unwrap();
            assert_eq!(bits(&r), oracle(k), "k = {k}");
            assert_eq!(r.stats.tail, far.len());
            if k <= 5 {
                // The walk's k-th best is nearer than every tail insert,
                // so the tail adds evaluations but no candidate.
                let base = plain.query(&Query::knn(q, k)).unwrap();
                assert_eq!(r.stats.candidates, base.stats.candidates, "k = {k}");
                assert_eq!(r.stats.pages, base.stats.pages, "k = {k}");
            }
        }
        for radius in [0.3, 2.0] {
            let r = idx.query(&Query::radius(q, radius)).unwrap();
            let within = (oracle(live.len()).into_iter())
                .filter(|&(_, b)| f64::from_bits(b) <= radius)
                .collect::<Vec<_>>();
            assert_eq!(bits(&r), within, "radius {radius}");
        }
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
