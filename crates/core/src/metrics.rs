//! Registry bindings for the core layer: engine-side query metrics and
//! index-side gauges.
//!
//! Everything here is opt-in: an index built without
//! [`crate::NnCellIndex::attach_metrics`] carries no registry, every
//! recording site is a no-op, and the steady-state query path is untouched.
//! With a registry attached, recording is a handful of relaxed atomic
//! operations — no locks, no allocation (covered by the counting-allocator
//! test).

use nncell_obs::{Counter, Gauge, Histogram, Registry, SlowQueryLog};
use std::sync::Arc;

/// Slow-query ring capacity. Fixed and small: the ring is a debugging
/// aid (drained via `nncell stats --slow`), not a log.
pub const SLOW_QUERY_CAPACITY: usize = 64;

/// Query-path metric handles, resolved once at attach time so the hot path
/// never touches the registry's name map.
#[derive(Clone)]
pub struct EngineMetrics {
    /// `nncell_queries_total` — queries executed (including failed ones).
    pub(crate) queries: Arc<Counter>,
    /// `nncell_query_errors_total` — queries rejected with a typed error.
    pub(crate) query_errors: Arc<Counter>,
    /// `nncell_query_fallback_total` — queries answered by the exact
    /// linear-scan fallback.
    pub(crate) fallbacks: Arc<Counter>,
    /// `nncell_query_latency_ns` — end-to-end latency histogram.
    pub(crate) latency_ns: Arc<Histogram>,
    /// `nncell_query_candidates` — candidate set size histogram.
    pub(crate) candidates: Arc<Histogram>,
    /// `nncell_query_pages` — index pages touched per query.
    pub(crate) pages: Arc<Histogram>,
    /// `nncell_query_nodes_pruned` — subtrees the MINDIST traversal cut.
    pub(crate) nodes_pruned: Arc<Histogram>,
    /// `nncell_query_candidates_examined` — distance evaluations.
    pub(crate) candidates_examined: Arc<Histogram>,
    /// `nncell_query_candidates_aborted` — evaluations beyond the running
    /// bound (not offered to the answer).
    pub(crate) aborted_early: Arc<Histogram>,
    /// Fixed-size ring of queries slower than the configured threshold.
    pub(crate) slow: Arc<SlowQueryLog>,
}

impl EngineMetrics {
    /// Resolves (or creates) the query metrics in `registry`. `dim` sizes
    /// the slow-ring point slots so recording a slow query never allocates.
    pub fn register(registry: &Registry, dim: usize) -> Self {
        Self {
            queries: registry.counter("nncell_queries_total"),
            query_errors: registry.counter("nncell_query_errors_total"),
            fallbacks: registry.counter("nncell_query_fallback_total"),
            latency_ns: registry.histogram("nncell_query_latency_ns"),
            candidates: registry.histogram("nncell_query_candidates"),
            pages: registry.histogram("nncell_query_pages"),
            nodes_pruned: registry.histogram("nncell_query_nodes_pruned"),
            candidates_examined: registry.histogram("nncell_query_candidates_examined"),
            aborted_early: registry.histogram("nncell_query_candidates_aborted"),
            slow: Arc::new(SlowQueryLog::new(SLOW_QUERY_CAPACITY, dim)),
        }
    }

    /// The slow-query ring (threshold-configurable, disabled by default).
    pub fn slow_log(&self) -> &Arc<SlowQueryLog> {
        &self.slow
    }
}

/// Index-wide metric handles of an [`crate::NnCellIndex`]: the engine
/// bundle plus the structural gauge.
///
/// Cloning shares every handle (all are `Arc`s into the registry), so a
/// clone of an index keeps recording into the same series.
#[derive(Clone)]
pub struct IndexMetrics {
    registry: Arc<Registry>,
    pub(crate) engine: EngineMetrics,
    /// `nncell_live_points` — live points currently indexed.
    pub(crate) live_points: Arc<Gauge>,
}

/// Registry handles for the memtable fold pipeline (`nncell_fold_*`,
/// `nncell_tail_*`), registered when a [`crate::ShardedIndex`] attaches
/// a registry. One unlabeled family per
/// index: the folder is a single supervised loop over all shards, so
/// per-shard labels would only split its health signal.
pub(crate) struct FoldMetrics {
    /// `nncell_tail_depth` — journaled-but-unfolded operations.
    pub(crate) tail_depth: Arc<Gauge>,
    /// `nncell_fold_total` — successful folds.
    pub(crate) folds: Arc<Counter>,
    /// `nncell_fold_records_total` — operations folded into the point tree.
    pub(crate) folded_records: Arc<Counter>,
    /// `nncell_fold_failures_total` — folds that panicked and were kept
    /// for retry.
    pub(crate) failures: Arc<Counter>,
    /// `nncell_fold_latency_ns` — wall time of successful folds.
    pub(crate) latency_ns: Arc<Histogram>,
    /// `nncell_fold_degraded` — 1 while `degrade_after` consecutive folds
    /// have failed (tail still absorbs writes, queries stay exact).
    pub(crate) degraded: Arc<Gauge>,
    /// `nncell_tail_backpressure_total` — writes refused at the tail
    /// high-watermark.
    pub(crate) backpressure: Arc<Counter>,
}

impl FoldMetrics {
    /// Resolves (or creates) the fold family in `registry`, with HELP text.
    pub(crate) fn register(registry: &Registry) -> Self {
        registry.describe(
            "nncell_tail_depth",
            "Journaled-but-unfolded memtable operations across all shards.",
        );
        registry.describe("nncell_fold_total", "Successful memtable folds.");
        registry.describe(
            "nncell_fold_records_total",
            "Operations folded from the memtable tail into the point tree.",
        );
        registry.describe(
            "nncell_fold_failures_total",
            "Fold attempts that panicked; the batch is kept and retried.",
        );
        registry.describe(
            "nncell_fold_latency_ns",
            "Wall-clock nanoseconds per successful fold.",
        );
        registry.describe(
            "nncell_fold_degraded",
            "1 while consecutive fold failures exceed the degrade threshold.",
        );
        registry.describe(
            "nncell_tail_backpressure_total",
            "Writes refused because the memtable tail hit its high-watermark.",
        );
        Self {
            tail_depth: registry.gauge("nncell_tail_depth"),
            folds: registry.counter("nncell_fold_total"),
            folded_records: registry.counter("nncell_fold_records_total"),
            failures: registry.counter("nncell_fold_failures_total"),
            latency_ns: registry.histogram("nncell_fold_latency_ns"),
            degraded: registry.gauge("nncell_fold_degraded"),
            backpressure: registry.counter("nncell_tail_backpressure_total"),
        }
    }
}

impl IndexMetrics {
    /// Resolves (or creates) the index metrics in `registry`.
    pub fn register(registry: Arc<Registry>, dim: usize) -> Self {
        Self {
            engine: EngineMetrics::register(&registry, dim),
            live_points: registry.gauge("nncell_live_points"),
            registry,
        }
    }

    /// The registry this bundle records into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The query-path handles.
    pub fn engine(&self) -> &EngineMetrics {
        &self.engine
    }
}

/// A [`crate::ShardedIndex`]'s registry handles, resolved once when a
/// registry is attached. A sharded query is one unit of work, so the
/// query series are one unlabeled engine bundle recording each query
/// once; only what differs per shard is labelled `shard="<i>"` (at
/// S > 1): the live-point gauges here and the point trees' cost counters.
pub(crate) struct ShardedMetrics {
    pub(crate) engine: EngineMetrics,
    pub(crate) fold: FoldMetrics,
    /// `nncell_live_points`, one gauge per shard: the shard index's live
    /// points, set at attach and whenever a fold publishes the shard.
    pub(crate) live_points: Vec<Arc<Gauge>>,
}
