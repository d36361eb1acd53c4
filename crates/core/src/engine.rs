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
//! * Each worker carries one [`QueryScratch`] — the radius gather's hit
//!   buffer and stack, the ranked k-best buffer, the best-first queue —
//!   reused across every query it executes. Once warm, the per-query path
//!   performs **zero heap allocations** for `k = 1` (and exactly one — the
//!   `rest` vector of the response — for `k > 1`); this is property-checked
//!   by a counting allocator in `crates/core/tests/alloc_free.rs`.
//!
//! Nearest-neighbor kernels (see `DESIGN.md` §17): a **MINDIST-ordered
//! best-first traversal** of the point X-tree — of every shard's point
//! X-tree at once, through one queue, for a shard fan-out — streams
//! candidates to this engine in roughly ascending distance; the engine
//! evaluates each live candidate **once**, with the exact distance kernel,
//! compares it once against its running k-th-best distance and hands the
//! shrunk bound back to the traversal, which prunes every MBR whose
//! MINDIST exceeds it before the node is ever read. The loop has no
//! data-dependent branch inside the kernel: a mispredicted early-exit
//! check costs more than the lanes it would skip at these dimensionalities
//! (DESIGN.md §17.3). The pruning work is reported per query in
//! [`QueryStats`] (`nodes_pruned`, `candidates_examined`, and
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
//! helper here, which both sets [`QueryStats::fallback`] on the response
//! and bumps the index-wide [`NnCellIndex::fallback_queries`] counter of
//! every index it scanned. A query with a non-empty memtable tail never
//! falls back: its traversal is complete whenever fewer than k live points
//! exist.

use crate::index::{NnCellIndex, QueryResult};
use crate::memtable::TailSnapshot;
use crate::query::{Query, QueryError, QueryKind, QueryResponse, QueryStats};
use nncell_geom::{Euclidean, Metric};
use nncell_index::{BestFirstScratch, ItemId, PageId, Tree};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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
    /// Raw point-tree hits of the radius kernel's sphere gather.
    hits: Vec<ItemId>,
    /// Tree traversal stack (radius kernel).
    stack: Vec<PageId>,
    /// Running k-best `(global id, dist)` buffer, ascending by `(dist, id)`.
    ranked: Vec<QueryResult>,
    /// Priority-queue scratch of the MINDIST-ordered best-first traversal.
    bf: BestFirstScratch,
    /// The last query's counters, one entry per shard of the engine.
    per_shard: Vec<QueryStats>,
}

impl QueryScratch {
    /// A fresh (cold) scratch; buffers are allocated lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One shard of the forest an engine reads.
pub(crate) struct Shard<'a, M: Metric> {
    index: &'a NnCellIndex<M>,
    /// The unfolded memtable tail every answer covers, when non-empty.
    tail: Option<&'a TailSnapshot>,
    /// The shard's number `s` in the id mapping `global = local·S + s`.
    number: usize,
    /// The index's liveness mask, by local id.
    alive: &'a [bool],
    /// The tail's tombstoned local ids, ascending (empty without a tail).
    tombstones: &'a [usize],
}

impl<'a, M: Metric> Shard<'a, M> {
    /// Shard `number` of a fan-out: its index and unfolded tail.
    pub(crate) fn new(
        number: usize,
        index: &'a NnCellIndex<M>,
        tail: Option<&'a TailSnapshot>,
    ) -> Self {
        let tail = tail.filter(|t| !t.is_empty());
        Self {
            index,
            tail,
            number,
            alive: index.alive(),
            tombstones: tail.map_or(&[], |t| &t.removed),
        }
    }

    /// No live indexed point and no live tail insert.
    fn is_empty(&self) -> bool {
        self.index.is_empty() && self.tail.is_none_or(|t| t.inserts.is_empty())
    }
}

/// The shards an engine reads, with their point trees in the same order
/// (the traversal's forest). One index needs no allocation.
enum Forest<'a, M: Metric> {
    One(Shard<'a, M>, [&'a Tree; 1]),
    Many(Vec<Shard<'a, M>>, Vec<&'a Tree>),
}

impl<'a, M: Metric> Forest<'a, M> {
    fn shards(&self) -> &[Shard<'a, M>] {
        match self {
            Forest::One(shard, _) => std::slice::from_ref(shard),
            Forest::Many(shards, _) => shards,
        }
    }

    fn trees(&self) -> &[&'a Tree] {
        match self {
            Forest::One(_, tree) => tree,
            Forest::Many(_, trees) => trees,
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
    /// The shard count `S` of the id mapping (1 for one index).
    stride: usize,
    dim: usize,
    threads: usize,
    /// When false, this engine skips metric recording even if the index has
    /// a registry attached (overhead A/B runs; see the bench).
    record_metrics: bool,
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
        let tree: &Tree = index.point_tree();
        Self::over(
            Forest::One(Shard::new(0, index, None), [tree]),
            1,
            index.dim(),
        )
    }

    /// The shard fan-out's engine: one traversal over every shard's point
    /// tree, one k-best keyed by `(dist, global id)` with `global = local ·
    /// stride + shard number`. `shards` may be empty (every query then
    /// answers [`QueryError::EmptyIndex`] after validation). Batches run on
    /// the calling thread; see [`Self::with_threads`].
    pub(crate) fn fan_out(dim: usize, stride: usize, shards: Vec<Shard<'a, M>>) -> Self {
        let trees = shards.iter().map(|s| &**s.index.point_tree()).collect();
        Self::over(Forest::Many(shards, trees), stride, dim)
    }

    /// A sequential engine over `forest`.
    fn over(forest: Forest<'a, M>, stride: usize, dim: usize) -> Self {
        Self {
            forest,
            stride,
            dim,
            threads: 1,
            record_metrics: true,
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
        self.record_metrics = false;
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

    /// Answers every query over the index *plus* an unindexed memtable
    /// tail. For k-NN the tail seeds the one k-NN kernel: its live
    /// inserts are scanned first (deadline-aware) into the
    /// running k-best, and the traversal then starts from that bound,
    /// skipping tombstoned ids and ids the seed already holds. Radius
    /// queries filter tombstones from the indexed ball and add the tail
    /// inserts inside it. Exactness is a covering-superset argument —
    /// every live point is either in the index or in the tail — and the
    /// tail's live inserts are counted in [`QueryStats::tail`]. With an
    /// empty tail the plain (zero-allocation) path runs unchanged.
    pub fn with_tail(mut self, tail: &'a crate::memtable::TailSnapshot) -> Self {
        if let Forest::One(shard, _) = &mut self.forest {
            *shard = Shard::new(0, shard.index, Some(tail));
        }
        self
    }

    /// The configured batch worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The index this engine reads.
    pub fn index(&self) -> &'a NnCellIndex<M> {
        self.forest.shards()[0].index
    }

    /// Total scan-fallback queries recorded on the underlying index (all
    /// fallback paths — NN and k-NN — are counted there by this engine).
    pub fn fallback_queries(&self) -> u64 {
        self.forest
            .shards()
            .iter()
            .map(|s| s.index.fallback_queries())
            .sum()
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
    /// Each shard with a registry attached records the query in its own
    /// (labelled) series: one query, the whole query's latency, and that
    /// shard's share of the pages, pruned subtrees and evaluations.
    pub fn execute_with(
        &self,
        scratch: &mut QueryScratch,
        q: &Query,
    ) -> Result<QueryResponse, QueryError> {
        // Inert (one thread-local read) unless this thread is inside a
        // sampled trace; the guard closes when the function returns.
        let mut span = nncell_obs::trace::child("engine.query");
        let shards = self.forest.shards();
        let recording =
            self.record_metrics && shards.iter().any(|s| s.index.engine_metrics().is_some());
        let start = recording.then(std::time::Instant::now);
        let result = self.execute_inner(scratch, q);
        if let Ok(resp) = &result {
            span.arg("candidates", resp.stats.candidates as u64);
            span.arg("pages", resp.stats.pages);
            span.arg("nodes_pruned", resp.stats.nodes_pruned);
            span.arg("examined", resp.stats.candidates_examined as u64);
            span.arg("aborted_early", resp.stats.candidates_aborted_early as u64);
        }
        let Some(start) = start else {
            return result;
        };
        let latency_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        for (i, shard) in shards.iter().enumerate() {
            let Some(m) = shard.index.engine_metrics() else {
                continue;
            };
            m.queries.inc();
            if result.is_err() {
                m.query_errors.inc();
                continue;
            }
            let stats = &scratch.per_shard[i];
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
            // The slow log's `k` column is the requested neighbor
            // count; a radius query has none, so it records 0 rather
            // than the sentinel `usize::MAX` that `Query::k` returns.
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
        }
        result
    }

    /// The uninstrumented execution path shared by both arms. Every
    /// successful path leaves one [`QueryStats`] per shard in
    /// `scratch.per_shard`; the response carries their sum.
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
        let shards = self.forest.shards();
        if shards.iter().all(Shard::is_empty) {
            return Err(QueryError::EmptyIndex);
        }
        if out_of_budget(deadline) {
            return Err(QueryError::DeadlineExceeded);
        }
        scratch.per_shard.clear();
        scratch
            .per_shard
            .resize(shards.len(), QueryStats::default());
        let mut resp = match q.kind() {
            QueryKind::Nearest { k } => self.run_knn(scratch, p, k, deadline),
            QueryKind::Radius { radius } => self.run_radius(scratch, p, radius, deadline),
        }?;
        for s in &scratch.per_shard {
            resp.stats.absorb(s);
        }
        Ok(resp)
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

    /// The metric (every shard shares it) and its smallest weight, which
    /// converts a weighted-metric bound into the trees' Euclidean
    /// geometry: `d²_w(q, x) ≥ w_min · ‖q − x‖²`.
    fn metric(&self) -> (&'a M, f64) {
        let metric = self.forest.shards()[0].index.metric();
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
    /// order and streams leaf items, each with its tree and its
    /// coordinates from the leaf's row, to the closure below, which
    /// evaluates each live candidate exactly, offers it under its global
    /// id to the one k-best unless it lies beyond the slopped k-th-best
    /// bound, and hands the shrunk bound back for page pruning in every
    /// tree. Exactness: a page is pruned only when its MINDIST
    /// **strictly** exceeds the slopped bound
    /// `(kth_dist)² · BOUND_SLOP / w_min` (see [`Self::metric`]), so every
    /// point of every shard that could tie or beat the k-th result is
    /// evaluated exactly — with the same kernel, in the same
    /// `(dist, global id)` order, as the linear scan.
    ///
    /// With tails, every shard's live inserts are scanned first into the
    /// same k-best (same kernel, same order, same slop), so the traversal
    /// runs from the bound they set instead of from ∞ (it adopts it at its
    /// first streamed item). A shard's tombstoned ids are skipped, and so
    /// is an id the seed already holds — a fold published between the
    /// tail view and the snapshot load puts a point on both sides with
    /// bit-identical distances. Both checks run only for a candidate that
    /// would enter the k-best. The tail path never takes the `k ≥ len`
    /// scan fallback: the traversal is complete while the k-best is short,
    /// and `len` counts neither tail inserts nor tombstones.
    ///
    /// The configured budget (if any) is checked every 256 tail inserts
    /// and every 128 streamed items; an expired budget aborts the query
    /// and surfaces as [`QueryError::DeadlineExceeded`] instead of hogging
    /// the worker.
    fn run_knn(
        &self,
        scratch: &mut QueryScratch,
        p: &[f64],
        k: usize,
        deadline: Option<std::time::Instant>,
    ) -> Result<QueryResponse, QueryError> {
        let shards = self.forest.shards();
        let has_tail = shards.iter().any(|s| s.tail.is_some());
        let indexed: usize = shards.iter().map(|s| s.index.len()).sum();
        if !has_tail && k >= indexed {
            // k ≥ len needs every live point anyway. A query outside the
            // data space needs no scan: MINDIST ordering over the point
            // tree is exact for any query point.
            return Ok(self.scan_knn(&mut scratch.per_shard, p, k));
        }
        let (metric, w_min) = self.metric();
        let stride = self.stride;
        let QueryScratch {
            ranked,
            bf,
            per_shard,
            ..
        } = scratch;
        ranked.clear();
        let mut seeded = 0usize;
        let mut visits = 0u32;
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
        for (s, st) in shards.iter().zip(per_shard.iter_mut()) {
            let Some(t) = s.tail else {
                continue;
            };
            let mut span = nncell_obs::trace::child("engine.tail_merge");
            span.arg("tail", t.inserts.len() as u64);
            st.tail = t.inserts.len();
            st.candidates_examined = t.inserts.len();
            for (local, pt) in &t.inserts {
                if seeded % 256 == 255 && out_of_budget(deadline) {
                    return Err(QueryError::DeadlineExceeded);
                }
                seeded += 1;
                let d2 = metric.dist_sq(p, pt.as_slice());
                if d2 > abort_bound {
                    continue;
                }
                st.candidates += 1;
                let r = QueryResult {
                    id: local * stride + s.number,
                    dist: d2.sqrt(),
                };
                if let Some(b) = offer(ranked, k, r, &[], *local) {
                    (abort_bound, tree_bound) = bounds(b);
                }
            }
        }
        // The per-item path updates no counter: a shard's evaluations are
        // its streamed items (counted by the traversal, added after the
        // walk) minus its dead ones, which are subtracted as they come —
        // transiently below zero, hence the wrapping arithmetic — and only
        // candidates within the bound are counted one by one. Both are
        // rare next to the evaluations beyond the bound.
        Tree::best_first_stream_with(self.forest.trees(), p, bf, |t, item, coords| {
            visits += 1;
            if visits.is_multiple_of(128) && out_of_budget(deadline) {
                deadline_hit = true;
                return f64::NEG_INFINITY; // abort the whole traversal
            }
            let s = &shards[t];
            // Point-tree items carry raw local point ids (no piece
            // encoding).
            let local = item as usize;
            if !s.alive[local] {
                let st = &mut per_shard[t];
                st.candidates_examined = st.candidates_examined.wrapping_sub(1);
                return tree_bound;
            }
            // `coords` is the point's row in its leaf, bit-identical to
            // `flat_point(local)` and adjacent to its leaf neighbours'.
            let d2 = metric.dist_sq(p, coords);
            if d2 > abort_bound {
                return tree_bound; // provably beyond the k-th best
            }
            per_shard[t].candidates += 1;
            let r = QueryResult {
                id: local * stride + s.number,
                dist: d2.sqrt(),
            };
            if let Some(b) = offer(ranked, k, r, s.tombstones, local) {
                (abort_bound, tree_bound) = bounds(b);
            }
            tree_bound
        });
        if deadline_hit {
            return Err(QueryError::DeadlineExceeded);
        }
        for (st, ts) in per_shard.iter_mut().zip(bf.per_tree()) {
            st.pages = ts.pages;
            st.nodes_pruned = ts.nodes_pruned;
            st.candidates_examined = st.candidates_examined.wrapping_add(ts.items as usize);
            st.candidates_aborted_early = st.candidates_examined - st.candidates;
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
                Ok(self.scan_knn(per_shard, p, k))
            };
        }
        Ok(QueryResponse {
            best: ranked[0],
            rest: ranked[1..].to_vec(),
            stats: QueryStats::default(),
        })
    }

    /// Exact radius query, riding the point trees: one sphere query per
    /// shard collects every stored point whose Euclidean distance can be
    /// within the ball, the exact metric filter keeps `dist ≤ r`, and each
    /// hit is mapped to its global id. The shards' live tail inserts
    /// inside the ball join them, tombstoned ids are skipped, and the
    /// union is sorted by `(distance, global id)` once. No truncation — a
    /// radius query returns everything the ball contains. Unlike the NN
    /// kernel this needs no covering argument and no scan fallback — the
    /// point trees hold every indexed live point directly, and a sphere
    /// query is exact for *any* center, including centers outside the
    /// data space.
    fn run_radius(
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
        let abort_bound = radius_bound(r);
        let QueryScratch {
            hits,
            stack,
            per_shard,
            ..
        } = scratch;
        let mut out: Vec<QueryResult> = Vec::new();
        let mut seeded = 0usize;
        for (s, st) in self.forest.shards().iter().zip(per_shard.iter_mut()) {
            let global = |local: usize| local * self.stride + s.number;
            let mut keep = |st: &mut QueryStats, id: usize, d2: f64| {
                st.candidates_examined += 1;
                if d2 > abort_bound {
                    st.candidates_aborted_early += 1; // provably outside the ball
                    return;
                }
                st.candidates += 1;
                let dist = d2.sqrt();
                if dist <= r {
                    out.push(QueryResult { id, dist });
                }
            };
            if !s.index.is_empty() {
                st.pages = s
                    .index
                    .point_tree()
                    .sphere_query_with(p, tree_r, stack, hits);
                for &h in hits.iter() {
                    // Point-tree items carry raw local point ids.
                    let local = h as usize;
                    if !s.alive[local] || s.tombstones.binary_search(&local).is_ok() {
                        continue;
                    }
                    keep(
                        st,
                        global(local),
                        metric.dist_sq(p, s.index.flat_point(local)),
                    );
                }
            }
            let Some(t) = s.tail else {
                continue;
            };
            st.tail = t.inserts.len();
            for (local, pt) in &t.inserts {
                if seeded % 256 == 255 && out_of_budget(deadline) {
                    return Err(QueryError::DeadlineExceeded);
                }
                seeded += 1;
                keep(st, global(*local), metric.dist_sq(p, pt.as_slice()));
            }
        }
        out.sort_unstable_by(cmp_results);
        // A fold published between a tail view and its snapshot load puts
        // a point on both sides, with identical `(dist, id)`.
        out.dedup_by(|a, b| a.id == b.id);
        let mut it = out.into_iter();
        match it.next() {
            None => Err(QueryError::EmptyRadius),
            Some(best) => Ok(QueryResponse {
                best,
                rest: it.collect(),
                stats: QueryStats::default(),
            }),
        }
    }

    // ------------------------------------------------------------------
    // the one place every scan fallback goes through
    // ------------------------------------------------------------------

    /// Exact k-NN by scanning every shard's flat point layout, ranked by
    /// `(dist, global id)`. Counts the fallback on every index it scans
    /// and resets `per_shard` to the scan's counters.
    fn scan_knn(&self, per_shard: &mut [QueryStats], p: &[f64], k: usize) -> QueryResponse {
        let _span = nncell_obs::trace::child("engine.scan_fallback");
        let (metric, _) = self.metric();
        let mut all: Vec<QueryResult> = Vec::new();
        for (s, st) in self.forest.shards().iter().zip(per_shard.iter_mut()) {
            let idx = s.index;
            idx.count_fallback();
            *st = QueryStats {
                candidates: idx.len(),
                fallback: true,
                candidates_examined: idx.len(),
                ..QueryStats::default()
            };
            all.extend(
                (0..s.alive.len())
                    .filter(|&l| s.alive[l])
                    .map(|local| QueryResult {
                        id: local * self.stride + s.number,
                        dist: metric.dist(p, idx.flat_point(local)),
                    }),
            );
        }
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
            stats: QueryStats::default(),
        }
    }
}

/// Offers a completed candidate to the running k-best `ranked` (ascending
/// `(dist, global id)`, at most `k` long). It enters when the list is
/// short or it beats the k-th, unless its shard-local id `local` is in its
/// shard's `tombstones` (sorted) or its global id is already in the list —
/// the same point reached from the tail seed and the snapshot, whose
/// identical `(dist, id)` sorts it exactly onto its twin. Returns the k-th
/// distance when the candidate entered and the list is full.
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
    if ranked.get(pos).is_some_and(|x| x.id == r.id) {
        return None;
    }
    if full {
        ranked.pop();
    }
    ranked.insert(pos, r);
    (ranked.len() == k).then(|| ranked[k - 1].dist)
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
    use crate::memtable::TailSnapshot;
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

    #[test]
    fn an_id_live_in_the_index_and_in_the_tail_is_returned_once() {
        let pts = lattice();
        let index = build(&pts);
        // A fold published between the tail view and the snapshot load:
        // the same point, under the same id, on both sides.
        let tail = TailSnapshot::new(vec![(17, pts[17].clone()), (18, pts[18].clone())], vec![]);
        let engine = QueryEngine::sequential(&index).with_tail(&tail);
        let live: Vec<(usize, &Point)> = pts.iter().enumerate().collect();
        let q = pts[17].as_slice();
        for k in [1, 2, 5, 60, 70] {
            let r = engine.execute(&Query::knn(q, k)).unwrap();
            assert_eq!(bits(&r), scan(&live, q, k), "k = {k}");
            assert!(!r.stats.fallback, "the tail path takes no scan fallback");
            assert_eq!(r.stats.tail, 2);
            assert_eq!(
                r.stats.candidates_examined,
                r.stats.candidates + r.stats.candidates_aborted_early
            );
        }
        let r = engine.execute(&Query::radius(q, 0.2)).unwrap();
        let mut ids: Vec<usize> = r.iter().map(|x| x.id).collect();
        let n = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), n, "radius answers hold each id once");
    }

    #[test]
    fn a_tombstoned_neighbor_is_replaced_by_the_next_one() {
        let pts = lattice();
        let index = build(&pts);
        let q = [0.3, 0.4];
        let all: Vec<(usize, &Point)> = pts.iter().enumerate().collect();
        let nearest: Vec<usize> = scan(&all, &q, 4).iter().map(|(id, _)| *id).collect();
        // Tombstone the best and the third-best of the true 4 nearest.
        let dead = [nearest[0], nearest[2]];
        let tail = TailSnapshot::new(Vec::new(), dead.to_vec());
        let engine = QueryEngine::sequential(&index).with_tail(&tail);
        let live: Vec<(usize, &Point)> = all
            .iter()
            .copied()
            .filter(|(id, _)| !dead.contains(id))
            .collect();
        for k in [1, 3, 4, 58, 60] {
            let r = engine.execute(&Query::knn(q, k)).unwrap();
            assert_eq!(bits(&r), scan(&live, &q, k), "k = {k}");
            assert!(r.iter().all(|x| !dead.contains(&x.id)));
        }
        let r = engine.execute(&Query::radius(q, 0.3)).unwrap();
        assert!(r.iter().all(|x| !dead.contains(&x.id)));
        assert_eq!(bits(&r), scan(&live, &q, r.len()));
    }

    #[test]
    fn a_fully_tombstoned_index_without_tail_inserts_is_empty() {
        let pts: Vec<Point> = lattice().into_iter().take(3).collect();
        let index = build(&pts);
        let tail = TailSnapshot::new(Vec::new(), vec![0, 1, 2]);
        let engine = QueryEngine::sequential(&index).with_tail(&tail);
        assert_eq!(
            engine.execute(&Query::knn([0.5, 0.5], 2)).unwrap_err(),
            QueryError::EmptyIndex
        );
    }
}
