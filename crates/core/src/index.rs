//! The point index: build, exact queries, dynamic updates.

use crate::cells::{elapsed_nanos, BuildStats};
use crate::config::{BuildConfig, InputPolicy};
use crate::engine::QueryEngine;
use crate::metrics::{EngineMetrics, IndexMetrics};
use nncell_geom::{DataSpace, Euclidean, Mbr, Metric, Point};
use nncell_index::{BestFirstScratch, IoStats, Tree, TreeConfig, TreeMetrics, XTree};
use nncell_obs::Registry;
use std::sync::Arc;
use std::time::Instant;

/// STR bulk-load fill fraction: nearly packed (reads dominate a built
/// index), with a little slack so early dynamic inserts don't split every
/// touched leaf.
pub(crate) const STR_FILL: f64 = 0.9;

/// An exact nearest-neighbor answer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueryResult {
    /// Index of the winning database point.
    pub id: usize,
    /// Its distance to the query.
    pub dist: f64,
}

/// Failures of index construction or dynamic updates.
#[derive(Debug)]
pub enum BuildError {
    /// `build` was called with no points (use [`NnCellIndex::new`] +
    /// [`NnCellIndex::insert`] to grow from empty).
    EmptyDatabase,
    /// A point's dimensionality disagrees with the index.
    DimensionMismatch {
        /// Expected dimensionality.
        expected: usize,
        /// Offending dimensionality.
        got: usize,
    },
    /// A point has a NaN or infinite coordinate.
    NonFinitePoint {
        /// Input position of the offending point.
        id: usize,
    },
    /// A point lies outside the data space (NN-cells are clipped to it, so
    /// an outside point could not be represented faithfully).
    OutOfDataSpace {
        /// Input position of the offending point.
        id: usize,
    },
    /// A point equals an earlier point coordinate by coordinate (`==`, so
    /// −0.0 and +0.0 are the same coordinate). Duplicates share one
    /// Voronoi cell, making "the" nearest neighbor ambiguous and
    /// their bisector degenerate (zero normal).
    DuplicatePoint {
        /// Input position of the offending point.
        id: usize,
        /// Input position of the earlier identical point.
        of: usize,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::EmptyDatabase => write!(f, "cannot build from an empty point set"),
            BuildError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            BuildError::NonFinitePoint { id } => {
                write!(f, "point {id} has a NaN or infinite coordinate")
            }
            BuildError::OutOfDataSpace { id } => {
                write!(f, "point {id} lies outside the data space")
            }
            BuildError::DuplicatePoint { id, of } => {
                write!(f, "point {id} is an exact duplicate of point {of}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// The point index over a (weighted) Euclidean metric: the stored points,
/// their liveness, and a point X-tree.
///
/// The points live in one row-major buffer (`n × d`, removed slots
/// included), indexed by id: the only copy the index owns besides each
/// live point's row in its point-tree leaf. [`Self::rows`] reads it.
///
/// Queries ([`Self::engine`] + [`crate::Query`]) run a MINDIST-ordered
/// best-first search over the point tree and are exact — bit-identical to
/// a linear scan. Build and load are one STR bulk load of the live points;
/// insert and remove are point-tree updates; no LP runs. The paper's
/// NN-cells are a separate, on-demand structure ([`crate::NnCells`]) built
/// from an index.
///
/// A clone is a deep copy (the folder's copy-on-write of a shard): point
/// storage and the tree arena are copied, and an attached metrics bundle
/// keeps recording into the same registry series (every handle is an
/// `Arc`; cloning never re-seeds a counter).
#[derive(Clone)]
pub struct NnCellIndex<M: Metric = Euclidean> {
    cfg: BuildConfig,
    /// Row-major coordinates of every slot (`n × d`), indexed by id and
    /// kept in sync by every mutation. The `k ≥ len` scan fallback, the
    /// NN-cells, `remove` and `save` read this layout; the k-NN and radius
    /// kernels and the duplicate probe read each live point's copy in its
    /// point-tree leaf's dimension-major block.
    points_flat: Vec<f64>,
    alive: Vec<bool>,
    live_count: usize,
    point_tree: XTree,
    metric: M,
    space: DataSpace,
    build_stats: BuildStats,
    /// Registry bindings; `None` until [`Self::attach_metrics`] — every
    /// recording site is a no-op without them.
    metrics: Option<IndexMetrics>,
}

impl NnCellIndex<Euclidean> {
    /// Builds the index over `points` with the Euclidean metric.
    ///
    /// # Errors
    /// [`BuildError::EmptyDatabase`] for an empty input, or the
    /// [`BuildError`] variant of the first invalid point (see
    /// [`InputPolicy`]).
    pub fn build(points: Vec<Point>, cfg: BuildConfig) -> Result<Self, BuildError> {
        Self::build_with_metric(points, cfg, Euclidean)
    }

    /// An empty Euclidean index of dimensionality `dim`, grown via
    /// [`Self::insert`].
    pub fn new(dim: usize, cfg: BuildConfig) -> Self {
        Self::new_with_metric(dim, cfg, Euclidean)
    }
}

impl<M: Metric> NnCellIndex<M> {
    /// An empty index with an explicit metric.
    pub fn new_with_metric(dim: usize, cfg: BuildConfig, metric: M) -> Self {
        assert!(dim > 0, "dimensionality must be positive");
        let point_tree = XTree::with_config(point_tree_config(dim, &cfg));
        Self {
            cfg,
            points_flat: Vec::new(),
            alive: Vec::new(),
            live_count: 0,
            point_tree,
            metric,
            space: DataSpace::unit(dim),
            build_stats: BuildStats::default(),
            metrics: None,
        }
    }

    /// Builds the index over `points` with an explicit metric: validates
    /// the input, then STR bulk-loads the point tree — O(N log N) sorts
    /// instead of per-point inserts with splits, and packed, near
    /// overlap-free leaves. Later dynamic inserts go through the X-tree
    /// overflow cascade.
    ///
    /// # Errors
    /// See [`NnCellIndex::build`].
    pub fn build_with_metric(
        points: Vec<Point>,
        cfg: BuildConfig,
        metric: M,
    ) -> Result<Self, BuildError> {
        let Some(first) = points.first() else {
            return Err(BuildError::EmptyDatabase);
        };
        let dim = first.dim();
        let start = Instant::now();
        let (rows, skipped) = validate_build_inputs(points, dim, cfg.input_policy)?;
        let alive = vec![true; rows.len() / dim];
        let mut idx = Self::from_rows(dim, cfg, metric, rows, alive);
        idx.build_stats.skipped_points = skipped;
        idx.build_stats.seconds = start.elapsed().as_secs_f64();
        Ok(idx)
    }

    /// The one constructor behind build, the sharded build and load:
    /// takes already-validated row-major coordinates (`rows`, one row of
    /// `dim` per slot of `alive`) and STR bulk-loads the live ids into the
    /// point tree at [`STR_FILL`], straight from the rows into the leaves'
    /// blocks (no per-point box). The bulk load is timed into
    /// [`BuildStats::profile`] when there is a live point to load.
    pub(crate) fn from_rows(
        dim: usize,
        cfg: BuildConfig,
        metric: M,
        rows: Vec<f64>,
        alive: Vec<bool>,
    ) -> Self {
        debug_assert_eq!(rows.len(), alive.len() * dim);
        let mut idx = Self::new_with_metric(dim, cfg, metric);
        let load_start = Instant::now();
        let ids: Vec<u64> = (0..alive.len() as u64)
            .filter(|&id| alive[id as usize])
            .collect();
        idx.live_count = ids.len();
        if !ids.is_empty() {
            let cfg = point_tree_config(dim, &idx.cfg);
            idx.point_tree = XTree::bulk_load_rows(cfg, &rows, &ids, STR_FILL);
            idx.build_stats
                .profile
                .bulk_load
                .add(elapsed_nanos(load_start));
        }
        idx.points_flat = rows;
        idx.alive = alive;
        idx
    }

    // ------------------------------------------------------------------
    // accessors
    // ------------------------------------------------------------------

    /// Number of live points.
    pub fn len(&self) -> usize {
        self.live_count
    }

    /// Whether the index holds no live points.
    pub fn is_empty(&self) -> bool {
        self.live_count == 0
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.space.dim()
    }

    /// The build configuration.
    pub fn config(&self) -> &BuildConfig {
        &self.cfg
    }

    /// The stored points as `d`-coordinate rows indexed by id, removed
    /// slots included (check [`Self::is_live`]); `rows().len()` is the slot
    /// count.
    pub fn rows(&self) -> std::slice::ChunksExact<'_, f64> {
        self.points_flat.chunks_exact(self.dim())
    }

    /// Whether point `id` is live.
    pub fn is_live(&self, id: usize) -> bool {
        self.alive.get(id).copied().unwrap_or(false)
    }

    /// Construction counters: wall time, skipped inputs and the bulk-load
    /// phase (see [`BuildStats`] for the fields an index leaves at 0).
    pub fn build_stats(&self) -> &BuildStats {
        &self.build_stats
    }

    /// Cost counters of the point X-tree (what queries and updates pay).
    pub fn point_tree_stats(&self) -> IoStats {
        self.point_tree.stats()
    }

    /// Resets the point tree's cost counters.
    pub fn reset_stats(&self) {
        self.point_tree.reset_stats();
    }

    // ------------------------------------------------------------------
    // observability
    // ------------------------------------------------------------------

    /// Attaches a metrics registry to this index: query latency, candidate
    /// and page histograms, the slow-query ring, the live-point gauge and
    /// the point tree's I/O counters all start recording into `registry`.
    /// Idempotent — a second call is a no-op (the first registry wins).
    /// The tree counters are seeded with their lifetime totals inside
    /// `nncell_index::CostTracker`.
    pub fn attach_metrics(&mut self, registry: Arc<Registry>) {
        if self.metrics.is_some() {
            return;
        }
        self.point_tree
            .bind_metrics(TreeMetrics::register(&registry, "point_tree"));
        self.metrics = Some(IndexMetrics::register(registry, self.dim()));
        self.refresh_gauges();
    }

    /// The attached metrics bundle, if any.
    pub fn metrics(&self) -> Option<&IndexMetrics> {
        self.metrics.as_ref()
    }

    /// Query-path handles for the engine (`None` without a registry).
    pub(crate) fn engine_metrics(&self) -> Option<&EngineMetrics> {
        self.metrics.as_ref().map(IndexMetrics::engine)
    }

    /// Re-publishes the structural gauges after a mutation.
    fn refresh_gauges(&self) {
        if let Some(m) = &self.metrics {
            m.live_points.set(self.live_count as i64);
        }
    }

    // ------------------------------------------------------------------
    // queries (execution lives in the QueryEngine)
    // ------------------------------------------------------------------

    /// A parallel [`QueryEngine`] session over this index — the query API.
    /// Engines are free to construct (they borrow the index) and any number
    /// may run concurrently.
    pub fn engine(&self) -> QueryEngine<'_, M> {
        QueryEngine::new(self)
    }

    // ------------------------------------------------------------------
    // engine plumbing (read-only views shared by all query threads)
    // ------------------------------------------------------------------

    /// The data-point tree.
    pub(crate) fn point_tree(&self) -> &XTree {
        &self.point_tree
    }

    /// The liveness mask, indexed by point id.
    pub(crate) fn alive(&self) -> &[bool] {
        &self.alive
    }

    /// The metric in use.
    pub(crate) fn metric(&self) -> &M {
        &self.metric
    }

    /// The unit data space points must lie in.
    pub(crate) fn space(&self) -> &DataSpace {
        &self.space
    }

    /// The flat point layout: row-major, one row of `d` per slot.
    pub(crate) fn points_flat(&self) -> &[f64] {
        &self.points_flat
    }

    /// Row `id` of the flat point layout.
    #[inline]
    pub(crate) fn flat_point(&self, id: usize) -> &[f64] {
        let d = self.dim();
        &self.points_flat[id * d..(id + 1) * d]
    }

    // ------------------------------------------------------------------
    // dynamic updates
    // ------------------------------------------------------------------

    /// Inserts a new point into the point tree. Returns the new point's id.
    ///
    /// # Errors
    /// Rejects invalid points with the matching [`BuildError`] variant —
    /// wrong dimensionality, NaN/∞ coordinates, outside the data space, or a
    /// duplicate of a live point (regardless of
    /// [`InputPolicy`]: an insert must return an id, so there is nothing to
    /// skip to).
    pub fn insert(&mut self, p: Point) -> Result<usize, BuildError> {
        self.validate_insert(&p)?;
        let id = self.alive.len();
        self.point_tree.insert_point(&p, id as u64);
        self.points_flat.extend_from_slice(p.as_slice());
        self.alive.push(true);
        self.live_count += 1;
        self.refresh_gauges();
        Ok(id)
    }

    /// The checks [`Self::insert`] would apply to `p`, without mutating
    /// anything: dimensionality, finiteness, data-space membership, and the
    /// exact-duplicate check against the nearest live point. The WAL layer
    /// calls this *before* journaling so invalid points never reach the log.
    ///
    /// # Errors
    /// The same [`BuildError`] variants `insert` would return.
    pub fn validate_insert(&self, p: &Point) -> Result<(), BuildError> {
        let id = self.alive.len();
        validate_point(p, id, self.dim(), &self.space)?;
        if let Some(of) = self.find_live_duplicate(p, &mut BestFirstScratch::new()) {
            return Err(BuildError::DuplicatePoint { id, of });
        }
        Ok(())
    }

    /// The id of a live point equal to `p` coordinate by coordinate (`==`,
    /// so −0.0 equals +0.0), if one exists. The point tree holds only live
    /// points, and only a page whose box contains `p` can hold its twin:
    /// one best-first stream under bound 0 compares the points of those
    /// pages' leaf blocks with `p` and stops at the first match, walking
    /// with the caller's `scratch`. Shared by [`Self::validate_insert`]
    /// and the cross-shard duplicate check of [`crate::ShardedIndex`],
    /// which reuses one scratch for every insert.
    pub(crate) fn find_live_duplicate(
        &self,
        p: &Point,
        scratch: &mut BestFirstScratch,
    ) -> Option<usize> {
        let (probe, mut twin) = (p.as_slice(), None);
        let forest: [&Tree; 1] = [&self.point_tree];
        Tree::best_first_stream_with::<0, _>(&forest, probe, scratch, |_, items, block| {
            let m = items.len();
            // Entry i's coordinate j is `block[j·m + i]`.
            let same = |i: usize| {
                probe
                    .iter()
                    .enumerate()
                    .all(|(j, &x)| block[j * m + i] == x)
            };
            match (0..m).find(|&i| same(i)) {
                Some(i) => {
                    twin = Some(items[i] as usize);
                    -1.0 // found: stop the walk
                }
                None => 0.0,
            }
        });
        twin
    }

    /// Removes point `id`: marks it dead and deletes it from the point
    /// tree. Returns `false` when `id` was not live.
    pub fn remove(&mut self, id: usize) -> bool {
        if !self.is_live(id) {
            return false;
        }
        self.alive[id] = false;
        self.live_count -= 1;
        let mbr = Mbr::from_point(self.flat_point(id));
        let removed = self.point_tree.delete(&mbr, id as u64);
        debug_assert!(removed, "point tree out of sync");
        self.refresh_gauges();
        true
    }
}

/// The point tree's configuration: an X-tree with point leaves.
fn point_tree_config(dim: usize, cfg: &BuildConfig) -> TreeConfig {
    TreeConfig::xtree(dim)
        .with_block_size(cfg.block_size)
        .with_point_leaves(true)
}

/// Input validation shared by the unsharded and sharded builds: NaN/∞,
/// dimensionality, data-space membership, duplicates (by `==` on every
/// coordinate, as [`NnCellIndex::insert`] checks them). Under
/// [`InputPolicy::Skip`] offenders are dropped and counted; ids are assigned
/// to the survivors in input order. Returns the survivors' coordinates as
/// row-major rows of `dim` and the skipped count.
///
/// Duplicates are found by sorting the valid points' ids by coordinates
/// (ties by id), so equal points are adjacent and each run's first id is
/// the first copy in input order, the one every later copy names. −0.0
/// sorts as +0.0, the one pair of distinct values `==` equates (NaN is
/// rejected before the sort). Nothing is allocated per point.
pub(crate) fn validate_build_inputs(
    points: Vec<Point>,
    dim: usize,
    policy: InputPolicy,
) -> Result<(Vec<f64>, usize), BuildError> {
    let space = DataSpace::unit(dim);
    let verdicts: Vec<Result<(), BuildError>> = points
        .iter()
        .enumerate()
        .map(|(id, p)| validate_point(p, id, dim, &space))
        .collect();
    let mut order: Vec<usize> = (0..points.len())
        .filter(|&id| verdicts[id].is_ok())
        .collect();
    // `+ 0.0` maps −0.0 to +0.0 and leaves every other value as it is.
    let coords = |id: usize| points[id].as_slice().iter().map(|&c| c + 0.0);
    let cmp_points = |a: usize, b: usize| {
        coords(a)
            .zip(coords(b))
            .map(|(x, y)| x.total_cmp(&y))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    };
    order.sort_unstable_by(|&a, &b| cmp_points(a, b).then(a.cmp(&b)));
    // The first copy of each point that has one, by id (`usize::MAX`: none).
    let mut first = vec![usize::MAX; points.len()];
    for run in order.chunk_by(|&a, &b| cmp_points(a, b).is_eq()) {
        for &dup in &run[1..] {
            first[dup] = run[0];
        }
    }
    let mut rows: Vec<f64> = Vec::with_capacity(order.len() * dim);
    let mut skipped = 0usize;
    for (id, (p, verdict)) in points.iter().zip(verdicts).enumerate() {
        let verdict = verdict.and_then(|()| match first[id] {
            usize::MAX => Ok(()),
            of => Err(BuildError::DuplicatePoint { id, of }),
        });
        match (verdict, policy) {
            (Ok(()), _) => rows.extend_from_slice(p.as_slice()),
            (Err(e), InputPolicy::Reject) => return Err(e),
            (Err(_), InputPolicy::Skip) => skipped += 1,
        }
    }
    if rows.is_empty() {
        return Err(BuildError::EmptyDatabase);
    }
    Ok((rows, skipped))
}

/// Validates one input point (dimensionality, finiteness, data-space
/// membership). Duplicate detection happens at the call sites, which have
/// the surrounding point set.
pub(crate) fn validate_point(
    p: &Point,
    id: usize,
    dim: usize,
    space: &DataSpace,
) -> Result<(), BuildError> {
    if p.dim() != dim {
        return Err(BuildError::DimensionMismatch {
            expected: dim,
            got: p.dim(),
        });
    }
    if p.as_slice().iter().any(|c| !c.is_finite()) {
        return Err(BuildError::NonFinitePoint { id });
    }
    if !space.contains(p.as_slice()) {
        return Err(BuildError::OutOfDataSpace { id });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Strategy;
    use crate::engine::QueryEngine;
    use crate::query::Query;
    use crate::scan::linear_scan_nn;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// NN through the typed engine, with the old shim's `Option` shape.
    fn nn<M: Metric>(idx: &NnCellIndex<M>, q: &[f64]) -> Option<QueryResult> {
        QueryEngine::sequential(idx)
            .execute(&Query::nn(q))
            .ok()
            .map(|r| r.best)
    }

    /// k-NN through the typed engine; empty on any query error.
    fn knn<M: Metric>(idx: &NnCellIndex<M>, q: &[f64], k: usize) -> Vec<QueryResult> {
        QueryEngine::sequential(idx)
            .execute(&Query::knn(q, k))
            .map(crate::query::QueryResponse::into_results)
            .unwrap_or_default()
    }

    fn uniform(n: usize, d: usize, seed: u64) -> Vec<Point> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new((0..d).map(|_| rng.gen_range(0.0..1.0)).collect::<Vec<_>>()))
            .collect()
    }

    fn queries(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..d).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect()
    }

    fn assert_exact<M: Metric>(idx: &NnCellIndex<M>, pts: &[Point], qs: &[Vec<f64>]) {
        for q in qs {
            let got = nn(idx, q).expect("non-empty");
            let want = linear_scan_nn(pts, q).unwrap();
            // Distances must agree exactly (ids may differ only on perfect
            // ties, which have probability zero for random data).
            assert!(
                (got.dist - want.dist).abs() < 1e-9,
                "q={q:?}: got ({}, {}), want ({}, {})",
                got.id,
                got.dist,
                want.id,
                want.dist
            );
            assert_eq!(got.id, want.id, "q={q:?}");
        }
    }

    #[test]
    fn dynamic_inserts_stay_exact() {
        let mut pts = uniform(60, 3, 7);
        let extra = uniform(30, 3, 8);
        let cfg = BuildConfig::builder().strategy(Strategy::Sphere).build();
        let mut idx = NnCellIndex::build(pts.clone(), cfg).unwrap();
        for p in extra {
            idx.insert(p.clone()).unwrap();
            pts.push(p);
        }
        assert_eq!(idx.len(), 90);
        assert_exact(&idx, &pts, &queries(40, 3, 9));
    }

    #[test]
    fn removals_stay_exact() {
        let pts = uniform(80, 2, 13);
        let cfg = BuildConfig::builder().strategy(Strategy::CorrectPruned).build();
        let mut idx = NnCellIndex::build(pts.clone(), cfg).unwrap();
        let mut live: Vec<Point> = pts.clone();
        let mut removed = std::collections::HashSet::new();
        for id in [3usize, 17, 42, 55, 7, 0] {
            assert!(idx.remove(id));
            removed.insert(id);
        }
        assert!(!idx.remove(3), "double remove is a no-op");
        live = live
            .into_iter()
            .enumerate()
            .filter(|(i, _)| !removed.contains(i))
            .map(|(_, p)| p)
            .collect();
        assert_eq!(idx.len(), live.len());
        // Compare distances against a scan of the survivors.
        for q in queries(50, 2, 14) {
            let got = nn(&idx, &q).unwrap();
            let want = linear_scan_nn(&live, &q).unwrap();
            assert!((got.dist - want.dist).abs() < 1e-9, "q={q:?}");
            assert!(!removed.contains(&got.id), "returned a removed point");
        }
    }

    #[test]
    fn grow_from_empty() {
        let cfg = BuildConfig::builder().strategy(Strategy::Sphere).build();
        let mut idx = NnCellIndex::new(3, cfg);
        assert!(idx.is_empty());
        assert!(nn(&idx, &[0.5; 3]).is_none());
        let pts = uniform(40, 3, 15);
        for p in &pts {
            idx.insert(p.clone()).unwrap();
        }
        assert_exact(&idx, &pts, &queries(30, 3, 16));
    }

    #[test]
    fn remove_everything() {
        let pts = uniform(20, 2, 17);
        let mut idx = NnCellIndex::build(pts, BuildConfig::builder().strategy(Strategy::Correct).build()).unwrap();
        for id in 0..20 {
            assert!(idx.remove(id));
        }
        assert!(idx.is_empty());
        assert!(nn(&idx, &[0.5, 0.5]).is_none());
    }

    #[test]
    fn out_of_space_queries_stay_exact_without_fallback() {
        let pts = uniform(50, 2, 18);
        let idx = NnCellIndex::build(pts.clone(), BuildConfig::builder().strategy(Strategy::Sphere).build()).unwrap();
        let q = [1.5, -0.2];
        let r = QueryEngine::sequential(&idx).execute(&Query::nn(q)).unwrap();
        let want = linear_scan_nn(&pts, &q).unwrap();
        assert_eq!(r.best.id, want.id);
        assert_eq!(r.best.dist.to_bits(), want.dist.to_bits());
        assert!(!r.stats.fallback, "the point tree is exact anywhere");
    }

    #[test]
    fn build_errors() {
        assert!(matches!(
            NnCellIndex::build(vec![], BuildConfig::builder().strategy(Strategy::Correct).build()),
            Err(BuildError::EmptyDatabase)
        ));
        let ragged = vec![Point::new(vec![0.1, 0.2]), Point::new(vec![0.1, 0.2, 0.3])];
        assert!(matches!(
            NnCellIndex::build(ragged, BuildConfig::builder().strategy(Strategy::Correct).build()),
            Err(BuildError::DimensionMismatch {
                expected: 2,
                got: 3
            })
        ));
        let mut idx = NnCellIndex::new(2, BuildConfig::builder().strategy(Strategy::Correct).build());
        assert!(matches!(
            idx.insert(Point::new(vec![0.1; 5])),
            Err(BuildError::DimensionMismatch {
                expected: 2,
                got: 5
            })
        ));
    }

    #[test]
    fn invalid_points_are_typed_errors() {
        let cfg = || BuildConfig::builder().strategy(Strategy::Correct).build();
        // One NaN point.
        let mut pts = uniform(10, 2, 40);
        pts.push(Point::new(vec![f64::NAN, 0.5]));
        assert!(matches!(
            NnCellIndex::build(pts, cfg()),
            Err(BuildError::NonFinitePoint { id: 10 })
        ));
        // One out-of-space point.
        let mut pts = uniform(10, 2, 41);
        pts.push(Point::new(vec![1.5, 0.5]));
        assert!(matches!(
            NnCellIndex::build(pts, cfg()),
            Err(BuildError::OutOfDataSpace { id: 10 })
        ));
        // One bit-exact duplicate.
        let mut pts = uniform(10, 2, 42);
        pts.push(pts[3].clone());
        assert!(matches!(
            NnCellIndex::build(pts, cfg()),
            Err(BuildError::DuplicatePoint { id: 10, of: 3 })
        ));
        // −0.0 and +0.0 are one coordinate, for the build as for an insert.
        let signed_zeros = || vec![Point::new(vec![0.0, 0.5]), Point::new(vec![-0.0, 0.5])];
        assert!(matches!(
            NnCellIndex::build(signed_zeros(), cfg()),
            Err(BuildError::DuplicatePoint { id: 1, of: 0 })
        ));
        let skip = BuildConfig::builder()
            .strategy(Strategy::Correct)
            .input_policy(InputPolicy::Skip)
            .build();
        let mut zero = NnCellIndex::build(signed_zeros(), skip).unwrap();
        assert_eq!((zero.len(), zero.build_stats().skipped_points), (1, 1));
        assert!(matches!(
            zero.insert(Point::new(vec![-0.0, 0.5])),
            Err(BuildError::DuplicatePoint { of: 0, .. })
        ));
        // Dynamic insert rejects the same classes.
        let mut idx = NnCellIndex::build(uniform(10, 2, 43), cfg()).unwrap();
        assert!(matches!(
            idx.insert(Point::new(vec![f64::INFINITY, 0.1])),
            Err(BuildError::NonFinitePoint { .. })
        ));
        assert!(matches!(
            idx.insert(Point::new(vec![-0.1, 0.1])),
            Err(BuildError::OutOfDataSpace { .. })
        ));
        let twin = Point::new(idx.rows().nth(4).unwrap().to_vec());
        assert!(matches!(
            idx.insert(twin),
            Err(BuildError::DuplicatePoint { of: 4, .. })
        ));
        assert_eq!(idx.len(), 10, "rejected inserts must not grow the index");
    }

    #[test]
    fn skip_policy_drops_invalid_points_and_stays_exact() {
        use crate::config::InputPolicy;
        let mut pts = uniform(40, 2, 44);
        pts.insert(7, Point::new(vec![f64::NAN, 0.5]));
        pts.insert(19, pts[0].clone());
        pts.push(Point::new(vec![2.0, 2.0]));
        let idx = NnCellIndex::build(
            pts.clone(),
            BuildConfig::builder().strategy(Strategy::Sphere).input_policy(InputPolicy::Skip).build(),
        )
        .unwrap();
        assert_eq!(idx.len(), 40);
        assert_eq!(idx.build_stats().skipped_points, 3);
        let survivors: Vec<Point> = pts
            .into_iter()
            .filter(|p| {
                p.as_slice().iter().all(|c| c.is_finite())
                    && p.as_slice().iter().all(|c| (0.0..=1.0).contains(c))
            })
            .collect();
        // Duplicate of pts[0] survived the coordinate filters but not the
        // build; dedup the reference set the same way.
        let mut seen = std::collections::HashSet::new();
        let survivors: Vec<Point> = survivors
            .into_iter()
            .filter(|p| {
                seen.insert(
                    p.as_slice()
                        .iter()
                        .map(|c| c.to_bits())
                        .collect::<Vec<u64>>(),
                )
            })
            .collect();
        assert_exact(&idx, &survivors, &queries(30, 2, 45));
    }

    #[test]
    fn a_triplicated_point_names_its_first_copy_and_skips_two() {
        use crate::config::InputPolicy;
        let mut pts = uniform(12, 3, 47);
        let twin = pts[2].clone();
        pts.insert(6, twin.clone());
        pts.push(twin);
        let cfg = |policy| BuildConfig::builder().input_policy(policy).build();
        assert!(matches!(
            NnCellIndex::build(pts.clone(), cfg(InputPolicy::Reject)),
            Err(BuildError::DuplicatePoint { id: 6, of: 2 })
        ));
        let idx = NnCellIndex::build(pts, cfg(InputPolicy::Skip)).unwrap();
        assert_eq!(idx.build_stats().skipped_points, 2);
        assert_eq!(idx.len(), 12);
    }

    #[test]
    fn malformed_queries_return_empty_not_panic() {
        let pts = uniform(30, 2, 46);
        let idx = NnCellIndex::build(pts, BuildConfig::builder().strategy(Strategy::Sphere).build()).unwrap();
        assert!(nn(&idx, &[0.5]).is_none(), "wrong dimension");
        assert!(nn(&idx, &[0.5, 0.5, 0.5]).is_none());
        assert!(nn(&idx, &[f64::NAN, 0.5]).is_none());
        assert!(nn(&idx, &[0.5, f64::INFINITY]).is_none());
        assert!(knn(&idx, &[0.5], 3).is_empty());
        assert!(knn(&idx, &[f64::NAN, 0.5], 3).is_empty());
        // Sane queries still work afterwards.
        assert!(nn(&idx, &[0.5, 0.5]).is_some());
    }

    #[test]
    fn knn_exact_against_scan() {
        let pts = uniform(100, 3, 19);
        let idx = NnCellIndex::build(pts.clone(), BuildConfig::builder().strategy(Strategy::Sphere).build()).unwrap();
        let q = [0.3, 0.7, 0.5];
        let top5 = knn(&idx, &q, 5);
        assert_eq!(top5.len(), 5);
        assert_eq!(top5[0].id, nn(&idx, &q).unwrap().id);
        for w in top5.windows(2) {
            assert!(w[0].dist <= w[1].dist + 1e-12);
        }
        // Exactness against a scan, for several k and queries.
        let qs = queries(20, 3, 77);
        for q in &qs {
            for k in [2usize, 5, 20, 99, 150] {
                let got = knn(&idx, q, k);
                let want = crate::scan::linear_scan_knn(&pts, q, k.min(idx.len()));
                assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(want.iter()) {
                    assert!((g.dist - w.dist).abs() < 1e-9, "k={k} q={q:?}");
                }
            }
        }
    }

    #[test]
    fn weighted_metric_supported() {
        use nncell_geom::WeightedEuclidean;
        let pts = uniform(70, 3, 20);
        let metric = WeightedEuclidean::new(vec![4.0, 1.0, 0.25]);
        let idx = NnCellIndex::build_with_metric(
            pts.clone(),
            BuildConfig::builder().strategy(Strategy::CorrectPruned).build(),
            metric.clone(),
        )
        .unwrap();
        for q in queries(40, 3, 21) {
            let got = nn(&idx, &q).unwrap();
            let want = pts
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    metric
                        .dist_sq(&q, a)
                        .partial_cmp(&metric.dist_sq(&q, b))
                        .unwrap()
                })
                .map(|(i, _)| i)
                .unwrap();
            assert_eq!(got.id, want, "weighted NN mismatch at q={q:?}");
        }
    }

    #[test]
    fn build_is_a_bulk_load_without_lps() {
        let pts = uniform(40, 2, 22);
        let mut idx = NnCellIndex::build(pts, BuildConfig::builder().strategy(Strategy::Correct).build()).unwrap();
        let st = *idx.build_stats();
        assert_eq!(st.lp.lp_calls, 0, "the point index runs no LP");
        assert_eq!(st.profile.bulk_load.calls, 1);
        assert!(st.seconds > 0.0);
        idx.insert(Point::new(vec![0.5, 0.5])).unwrap();
        assert!(idx.remove(3));
        assert_eq!(idx.build_stats().lp.lp_calls, 0);
    }

    /// The point tree's structure and its leaf blocks, checked against the
    /// index: `validate()` passes, and the traversal streams every live
    /// point exactly once with coordinates, gathered from its leaf's
    /// columns, bit-identical to `flat_point(id)`.
    fn check_layout(idx: &NnCellIndex) -> Result<(), proptest::TestCaseError> {
        let tree = idx.point_tree();
        tree.validate();
        let mut streamed = 0usize;
        let mut bad: Option<u64> = None;
        let q = vec![0.5; idx.dim()];
        let forest: [&nncell_index::Tree; 1] = [tree];
        let mut scratch = nncell_index::BestFirstScratch::new();
        nncell_index::Tree::best_first_stream_with::<0, _>(
            &forest,
            &q,
            &mut scratch,
            |_, ids, block| {
                let m = ids.len();
                for (i, &id) in ids.iter().enumerate() {
                    streamed += 1;
                    let flat = idx.flat_point(id as usize);
                    let same = block.len() == m * flat.len()
                        && flat
                            .iter()
                            .enumerate()
                            .all(|(j, x)| block[j * m + i].to_bits() == x.to_bits());
                    if !same || !idx.is_live(id as usize) {
                        bad = bad.or(Some(id));
                    }
                }
                f64::INFINITY // visit every leaf
            },
        );
        proptest::prop_assert_eq!(bad, None, "leaf block differs from flat_point");
        proptest::prop_assert_eq!(streamed, idx.len(), "every live point streamed once");
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Bulk build, then interleaved inserts, removes, clones and
        /// save→load round trips keep the inline layout consistent.
        #[test]
        fn point_leaf_rows_track_flat_points(
            seed_pts in proptest::prelude::prop::collection::vec(
                proptest::prelude::prop::collection::vec(0u32..=1000, 3), 1..120),
            ops in proptest::prelude::prop::collection::vec(
                (0u32..16, proptest::prelude::prop::collection::vec(0u32..=1000, 3)), 0..80),
        ) {
            let coords = |v: &[u32]| Point::new(v.iter().map(|&c| c as f64 / 1000.0).collect::<Vec<_>>());
            let cfg = BuildConfig::builder().block_size(256).build();
            let pts: Vec<Point> = seed_pts.iter().map(|v| coords(v)).collect();
            let mut idx = NnCellIndex::build(
                pts,
                BuildConfig { input_policy: InputPolicy::Skip, ..cfg },
            )
            .unwrap();
            check_layout(&idx)?;
            let vfs = crate::vfs::FaultVfs::new(crate::vfs::FaultSchedule::none(1));
            let path = std::path::Path::new("layout.nncell");
            for (op, v) in &ops {
                match op {
                    // Inserts dominate so trees grow, split and make
                    // supernodes; a duplicate of a live point is rejected.
                    0..=8 => {
                        let _ = idx.insert(coords(v));
                    }
                    9..=12 => {
                        let slots = idx.rows().len();
                        idx.remove((v[0] as usize * 7 + v[1] as usize) % slots);
                    }
                    13 => idx = idx.clone(),
                    _ => {
                        idx.save_with_vfs(&vfs, path).unwrap();
                        idx = NnCellIndex::load_with_vfs(&vfs, path).unwrap();
                    }
                }
                check_layout(&idx)?;
            }
        }
    }
}
