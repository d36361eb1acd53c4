//! The typed query API: [`Query`] in, [`QueryResponse`] or [`QueryError`]
//! out.
//!
//! This replaces the original trio of `Option`-returning methods
//! (`nearest_neighbor`, `nearest_neighbor_with_candidates`, `knn`), which
//! conflated "the index is empty", "the query is malformed", and "you asked
//! for nothing" into one silent `None`/`[]`. Every response now carries
//! per-query execution statistics ([`QueryStats`]), and every failure is a
//! typed [`QueryError`]. Execution happens in [`crate::QueryEngine`] (or
//! fans out across shards in [`crate::ShardedIndex`]). A time budget is
//! a per-request option ([`Query::with_deadline`]).

use crate::index::QueryResult;

/// What a [`Query`] asks for: the `k` nearest neighbors, or every live
/// point within a fixed radius.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum QueryKind {
    /// The `k` nearest neighbors of the query point, ascending by
    /// `(distance, id)`.
    Nearest {
        /// How many neighbors to return.
        k: usize,
    },
    /// Every live point within metric distance `radius` of the query point
    /// (inclusive: `dist ≤ radius`), ascending by `(distance, id)`.
    Radius {
        /// The search radius.
        radius: f64,
    },
}

/// One query: a point, what to retrieve around it, and per-request options.
///
/// Construct with [`Query::nn`] (one neighbor), [`Query::knn`], or
/// [`Query::radius`], then chain builder-style options:
///
/// ```
/// use nncell_core::{Query, QueryKind};
/// use std::time::{Duration, Instant};
/// let one = Query::nn([0.2, 0.7]);
/// let ten = Query::knn(vec![0.2, 0.7], 10)
///     .with_deadline(Instant::now() + Duration::from_millis(50));
/// let ball = Query::radius([0.2, 0.7], 0.25);
/// assert_eq!(one.k(), 1);
/// assert_eq!(ten.point(), &[0.2, 0.7]);
/// assert!(ten.deadline().is_some());
/// assert_eq!(ball.kind(), QueryKind::Radius { radius: 0.25 });
/// ```
///
/// Per-request options ride on the query itself, so one engine can serve
/// requests with different budgets concurrently.
#[derive(Clone, Debug, PartialEq)]
pub struct Query {
    point: Vec<f64>,
    kind: QueryKind,
    deadline: Option<std::time::Instant>,
}

impl Query {
    /// A single-nearest-neighbor query.
    pub fn nn(point: impl Into<Vec<f64>>) -> Self {
        Self {
            point: point.into(),
            kind: QueryKind::Nearest { k: 1 },
            deadline: None,
        }
    }

    /// A k-nearest-neighbors query. `k` larger than the index is allowed
    /// (the response simply holds every live point).
    pub fn knn(point: impl Into<Vec<f64>>, k: usize) -> Self {
        Self {
            point: point.into(),
            kind: QueryKind::Nearest { k },
            deadline: None,
        }
    }

    /// A radius (range) query: every live point with `dist ≤ r`, nearest
    /// first. A radius that covers no live point is the typed
    /// [`QueryError::EmptyRadius`], not an empty response; a non-finite or
    /// negative radius is [`QueryError::InvalidRadius`].
    pub fn radius(center: impl Into<Vec<f64>>, r: f64) -> Self {
        Self {
            point: center.into(),
            kind: QueryKind::Radius { radius: r },
            deadline: None,
        }
    }

    /// Attaches a per-request time budget: once `deadline` passes, the
    /// query returns [`QueryError::DeadlineExceeded`] instead of continuing
    /// to consume its worker. The budget is checked between units of
    /// bounded work (before the query starts, periodically inside the
    /// memtable tail scan and the best-first traversal, and between the
    /// queries of a batch), so an answer already in hand is never
    /// discarded. Without a deadline behavior is unchanged and
    /// bit-identical across thread counts.
    #[must_use]
    pub fn with_deadline(mut self, deadline: std::time::Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The per-request deadline, if any.
    pub fn deadline(&self) -> Option<std::time::Instant> {
        self.deadline
    }

    /// The query point.
    pub fn point(&self) -> &[f64] {
        &self.point
    }

    /// What this query retrieves.
    pub fn kind(&self) -> QueryKind {
        self.kind
    }

    /// Number of neighbors requested. For a radius query this is
    /// `usize::MAX` — "as many as the ball contains" — which keeps
    /// result-count-bounded merge loops correct without a special case.
    pub fn k(&self) -> usize {
        match self.kind {
            QueryKind::Nearest { k } => k,
            QueryKind::Radius { .. } => usize::MAX,
        }
    }
}

/// Per-query execution counters, folded into every [`QueryResponse`].
///
/// Subsumes the old `nearest_neighbor_with_candidates` side channel: the
/// candidate count now rides along on every answer, together with the page
/// cost and the pruning telemetry of the MINDIST-ordered traversal.
///
/// Counter consistency (pinned by a unit test and the parity proptests):
/// for every response,
/// `candidates_examined == candidates + candidates_aborted_early` — every
/// live point the query evaluates gets one exact distance, which lies
/// either within the running bound (a candidate) or beyond it.
///
/// The struct is `#[non_exhaustive]`: construct it via `Default` and read
/// fields directly; future telemetry can then be added without a breaking
/// release.
#[non_exhaustive]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Evaluations whose distance lay **within** the running bound when
    /// they were made — the slopped k-th-best distance for k-NN (∞ while
    /// the k-best is short), the radius for a radius query — and so were
    /// offered to the answer. This is
    /// `candidates_examined − candidates_aborted_early`; for a k-NN query
    /// with `k ≥` the live count, whose bound stays ∞, it is every
    /// evaluation.
    pub candidates: usize,
    /// Simulated index pages touched while gathering candidates (before
    /// any LRU cache).
    pub pages: u64,
    /// Live unindexed memtable-tail points this answer scanned (0 whenever
    /// the tail was empty). Tail points are also counted in
    /// `candidates_examined` (and in `candidates` or
    /// `candidates_aborted_early`), by k-NN and radius queries alike; this
    /// field isolates how much of the work the un-folded tail caused.
    pub tail: usize,
    /// Subtrees the MINDIST-ordered traversal pruned **before their node
    /// was ever read**: directory entries whose MINDIST exceeded the
    /// running best distance, plus queued pages discarded after the bound
    /// shrank past them; for a radius query, the subtrees whose MBR
    /// misses the query ball.
    pub nodes_pruned: u64,
    /// Live candidate points whose distance evaluation *started*: points
    /// streamed out of the traversal past the index's liveness mask, then
    /// memtable tail inserts. A radius query streams every entry of each
    /// leaf page that meets its ball, so this counts those entries, inside
    /// the ball or not.
    pub candidates_examined: usize,
    /// Evaluations whose exact distance lay **beyond** the running bound
    /// (see `candidates`), so the point was not offered: it provably
    /// cannot be in the answer set. Every evaluation runs to completion —
    /// the name predates that and is kept for compatibility.
    pub candidates_aborted_early: usize,
}

/// An exact answer: the nearest neighbor, any further requested neighbors,
/// and the per-query statistics.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryResponse {
    /// The nearest neighbor (rank 1).
    pub best: QueryResult,
    /// Neighbors of rank `2..=k`, ascending by `(distance, id)`. Empty for
    /// a plain NN query — which keeps the steady-state `k = 1` path free of
    /// heap allocations (an empty `Vec` does not allocate).
    pub rest: Vec<QueryResult>,
    /// Execution counters for this query.
    pub stats: QueryStats,
}

impl QueryResponse {
    /// Number of neighbors returned (`1 + rest.len()`). Can be less than
    /// the requested `k` when the index holds fewer live points.
    pub fn len(&self) -> usize {
        1 + self.rest.len()
    }

    /// Never empty: an empty index is a typed [`QueryError::EmptyIndex`].
    pub fn is_empty(&self) -> bool {
        false
    }

    /// All returned neighbors in rank order.
    pub fn iter(&self) -> impl Iterator<Item = QueryResult> + '_ {
        std::iter::once(self.best).chain(self.rest.iter().copied())
    }

    /// All returned neighbors in rank order, as an owned vector.
    pub fn into_results(self) -> Vec<QueryResult> {
        let mut v = Vec::with_capacity(1 + self.rest.len());
        v.push(self.best);
        v.extend(self.rest);
        v
    }
}

/// Why a query could not be answered.
///
/// The same variants are returned by every surface — [`crate::QueryEngine`],
/// [`crate::ShardedIndex`] and the CLI — so malformed input behaves
/// identically everywhere.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum QueryError {
    /// The query point's dimensionality disagrees with the index.
    DimMismatch {
        /// The index's dimensionality.
        expected: usize,
        /// The query's dimensionality.
        got: usize,
    },
    /// The query point has a NaN or infinite coordinate; no nearest
    /// neighbor is well-defined.
    NonFiniteQuery,
    /// The index holds no live points.
    EmptyIndex,
    /// `k == 0` asks for nothing.
    ZeroK,
    /// The query's time budget ran out before an answer was proven (see
    /// [`Query::with_deadline`]). The serving layer maps this to
    /// `503 deadline_exceeded`; retrying with a fresh budget is safe —
    /// queries have no side effects.
    DeadlineExceeded,
    /// A radius query's radius is NaN, infinite, or negative; the ball is
    /// not well-defined.
    InvalidRadius,
    /// A radius query's ball contains no live point. Typed (rather than an
    /// empty response) because [`QueryResponse::best`] is mandatory — the
    /// "never empty" invariant of the response carries over unchanged.
    EmptyRadius,
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::DimMismatch { expected, got } => write!(
                f,
                "query has {got} coordinate(s), index is {expected}-dimensional"
            ),
            QueryError::NonFiniteQuery => {
                write!(f, "query point has a NaN or infinite coordinate")
            }
            QueryError::EmptyIndex => write!(f, "index holds no live points"),
            QueryError::ZeroK => write!(f, "k must be at least 1"),
            QueryError::DeadlineExceeded => {
                write!(f, "query deadline exceeded before an answer was proven")
            }
            QueryError::InvalidRadius => {
                write!(f, "radius must be finite and non-negative")
            }
            QueryError::EmptyRadius => {
                write!(f, "no live point within the query radius")
            }
        }
    }
}

impl std::error::Error for QueryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_constructors() {
        let q = Query::nn(vec![0.1, 0.2]);
        assert_eq!(q.k(), 1);
        assert_eq!(q.kind(), QueryKind::Nearest { k: 1 });
        assert_eq!(q.point(), &[0.1, 0.2]);
        let q = Query::knn([0.5; 3], 7);
        assert_eq!(q.k(), 7);
        assert_eq!(q.point().len(), 3);
        let q = Query::radius([0.5; 3], 0.4);
        assert_eq!(q.kind(), QueryKind::Radius { radius: 0.4 });
        assert_eq!(q.k(), usize::MAX, "radius queries are unbounded in count");
    }

    #[test]
    fn deadline_rides_on_the_query() {
        let q = Query::nn(vec![0.1, 0.2]);
        assert_eq!(q.deadline(), None, "no budget by default");
        let d = std::time::Instant::now() + std::time::Duration::from_millis(5);
        let q = Query::knn([0.5; 2], 3).with_deadline(d);
        assert_eq!(q.deadline(), Some(d));
        // The builder keeps point and kind untouched.
        assert_eq!(q.k(), 3);
        assert_eq!(q.point(), &[0.5, 0.5]);
    }

    #[test]
    fn response_accessors() {
        let r = QueryResponse {
            best: QueryResult { id: 3, dist: 0.5 },
            rest: vec![QueryResult { id: 1, dist: 0.7 }],
            stats: QueryStats::default(),
        };
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        let ids: Vec<usize> = r.iter().map(|x| x.id).collect();
        assert_eq!(ids, vec![3, 1]);
        assert_eq!(r.into_results().len(), 2);
    }

    #[test]
    fn error_display() {
        assert!(QueryError::DimMismatch {
            expected: 4,
            got: 2
        }
        .to_string()
        .contains("4-dimensional"));
        assert!(QueryError::NonFiniteQuery.to_string().contains("NaN"));
        assert!(QueryError::EmptyIndex.to_string().contains("no live"));
        assert!(QueryError::ZeroK.to_string().contains("at least 1"));
        assert!(QueryError::DeadlineExceeded
            .to_string()
            .contains("deadline"));
        assert!(QueryError::InvalidRadius.to_string().contains("finite"));
        assert!(QueryError::EmptyRadius.to_string().contains("radius"));
    }
}
