//! Build configuration for the point index and its NN-cells.

use nncell_lp::LpBudget;
pub use nncell_lp::SolverKind;

/// The constraint-selection algorithm used when approximating a cell
/// (section 2 of the paper, figure 3's `OptAlg`).
///
/// All five are *exact* with respect to query answers (Lemma 1: dropping
/// constraints can only grow an approximation, so the true cell's
/// approximation always contains the query point); they trade approximation
/// tightness against index-construction time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// All `N−1` bisectors. The exact MBR of the cell; `O(N)` LP constraints
    /// per extent — prohibitive at database scale.
    Correct,
    /// `Correct` with the exactness-preserving constraint prefilter: a rough
    /// superset MBR from the `4·d` nearest rivals prunes every bisector that
    /// cannot touch it. Produces *identical* MBRs to `Correct`.
    CorrectPruned,
    /// All points stored in leaf pages whose page region contains the point.
    Point,
    /// All points stored in leaf pages whose page region intersects a sphere
    /// around the point (radius: [`BuildConfig::sphere_radius`]).
    Sphere,
    /// The `2·d` nearest neighbors in the axis directions plus the `2·d`
    /// points with the smallest angular deviation from each axis — a
    /// constant-size (`≤ 4·d`) constraint set, `O(d·d!)` LP cost.
    NnDirection,
}

impl Strategy {
    /// All strategies, in the order the paper's figures plot them.
    pub const ALL: [Strategy; 4] = [
        Strategy::Correct,
        Strategy::Point,
        Strategy::Sphere,
        Strategy::NnDirection,
    ];

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Correct => "Correct",
            Strategy::CorrectPruned => "Correct(pruned)",
            Strategy::Point => "Point",
            Strategy::Sphere => "Sphere",
            Strategy::NnDirection => "NN-Direction",
        }
    }
}

/// Where the bisector-candidate pool for each cell comes from (the
/// tentpole of the sub-quadratic build; ROADMAP item 1).
///
/// Lemma 1 makes *any* candidate subset exact for query answers — dropping
/// constraints can only grow a cell's approximation, never shrink it below
/// the true cell. The pool therefore only trades MBR tightness (query-time
/// candidates) against build time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ConstraintPool {
    /// Candidates come from the configured [`Strategy`] over the full live
    /// point set — the pre-pool behavior, `O(N)`-ish gathering per cell.
    #[default]
    Exhaustive,
    /// Candidates are the point's `k` approximate nearest neighbors, probed
    /// from the bulk-loaded point tree (bounded best-first). Gathering is
    /// `O(log N + k)` pages per cell; the configured [`Strategy`] is only
    /// consulted when a cell falls back to the exhaustive pool (degenerate
    /// or clamped LP solve — see `BuildStats::pool_fallback_cells`).
    ApproxKnn {
        /// Pool size. `BuildConfig::effective_pool_k` clamps it to at least
        /// `2·d + 1` so every axis direction can find a rival.
        k: usize,
    },
}


impl ConstraintPool {
    /// The recommended pool size for `d`-dimensional data: `4·d`, matching
    /// the constraint count of the paper's NN-Direction strategy (whose
    /// tightness it empirically tracks) while keeping each cell's LP
    /// constant-size.
    pub fn recommended_k(d: usize) -> usize {
        (4 * d.max(1)).max(8)
    }
}

/// What a bulk build does with an invalid input point (NaN/∞ coordinate,
/// outside the data space, or an exact duplicate of an earlier point).
///
/// Dynamic [`crate::NnCellIndex::insert`] always rejects — it must return an
/// id, so there is nothing sensible to "skip" to.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum InputPolicy {
    /// Fail the build with the typed [`crate::BuildError`].
    #[default]
    Reject,
    /// Drop the offending point, count it in
    /// [`crate::BuildStats::skipped_points`], and index the rest. Ids are
    /// assigned to the *surviving* points in input order.
    Skip,
}

/// Configuration for [`crate::NnCellIndex::build`] and the NN-cells built
/// from it ([`crate::NnCells::build`]).
///
/// The index itself reads only `block_size` and `input_policy`; every
/// other field configures cell construction and maintenance, is stored
/// with the index (and, except `pool`, `threads` and `lp_budget`, in its
/// snapshots) and is read by [`crate::NnCells`].
///
/// Construct with [`BuildConfig::builder`]:
///
/// ```
/// use nncell_core::{BuildConfig, ConstraintPool, Strategy};
/// let cfg = BuildConfig::builder()
///     .strategy(Strategy::NnDirection)
///     .constraint_pool(ConstraintPool::ApproxKnn { k: 32 })
///     .seed(7)
///     .build();
/// assert_eq!(cfg.pool, ConstraintPool::ApproxKnn { k: 32 });
/// ```
#[derive(Clone, Debug)]
pub struct BuildConfig {
    /// Constraint-selection strategy.
    pub strategy: Strategy,
    /// Where each cell's bisector-candidate pool comes from. Under
    /// [`ConstraintPool::ApproxKnn`] the strategy is bypassed for
    /// first-attempt gathering and only governs the exhaustive fallback.
    pub pool: ConstraintPool,
    /// LP backend ([`SolverKind::Auto`] picks simplex for small constraint
    /// sets, Seidel for large ones).
    pub solver: SolverKind,
    /// Decompose each cell into at most this many MBR pieces (section 3).
    /// `None` / `Some(1)` disables decomposition.
    pub decompose_pieces: Option<usize>,
    /// Sphere-strategy radius; `None` uses the heuristic
    /// `√d · (1/N)^(1/d)` (≈ 2× the expected NN distance of uniform data —
    /// the paper's printed formula is garbled, see DESIGN.md §5).
    pub sphere_radius: Option<f64>,
    /// Simulated disk block size for the point tree and the cell tree.
    pub block_size: usize,
    /// RNG seed (Seidel shuffles; fully deterministic builds).
    pub seed: u64,
    /// After a dynamic insert, recompute the cells the new point affects
    /// (quality refinement; exactness holds either way).
    pub refine_on_insert: bool,
    /// Worker threads for [`crate::NnCells::build`] (cells are independent
    /// given the index's shared read-only point tree). `1` = one worker;
    /// queries and dynamic updates are unaffected.
    pub threads: usize,
    /// Work budget per LP solve. The default lets each backend size its own
    /// cap; a tiny explicit cap (even 0) is safe — exhausted solves walk the
    /// fallback chain and terminally clamp to the data space, which keeps
    /// queries exact (Lemma 1) at the price of fatter MBRs.
    pub lp_budget: LpBudget,
    /// What a bulk build does with invalid input points.
    pub input_policy: InputPolicy,
}

impl Default for BuildConfig {
    /// [`BuildConfig::builder`] defaults: NN-Direction strategy, exhaustive
    /// pool, auto solver, no decomposition, 4 KB blocks, seed 0, refinement
    /// on, one thread.
    fn default() -> Self {
        Self {
            strategy: Strategy::NnDirection,
            pool: ConstraintPool::Exhaustive,
            solver: SolverKind::Auto,
            decompose_pieces: None,
            sphere_radius: None,
            block_size: 4096,
            seed: 0,
            refine_on_insert: true,
            threads: 1,
            lp_budget: LpBudget::DEFAULT,
            input_policy: InputPolicy::Reject,
        }
    }
}

impl BuildConfig {
    /// Starts a builder with the documented defaults.
    pub fn builder() -> BuildConfigBuilder {
        BuildConfigBuilder {
            cfg: BuildConfig::default(),
        }
    }

    /// The effective Sphere radius for a database of `n` points in `d`
    /// dimensions.
    ///
    /// Default: twice the expected nearest-neighbor distance of uniform
    /// data, `2·√(d/(2πe))·n^(−1/d)` (the paper's printed radius formula is
    /// garbled; this matches its stated intent — "a number of points close
    /// to the considered point").
    pub fn effective_sphere_radius(&self, n: usize, d: usize) -> f64 {
        self.sphere_radius.unwrap_or_else(|| {
            let n = n.max(2) as f64;
            let d = d as f64;
            2.0 * (d / (2.0 * std::f64::consts::PI * std::f64::consts::E)).sqrt()
                * (1.0 / n).powf(1.0 / d)
        })
    }

    /// The effective [`ConstraintPool::ApproxKnn`] pool size for
    /// `d`-dimensional data: the configured `k`, floored at `2·d + 1` so a
    /// rival can bound every axis direction, and at 2 so the pool is never
    /// empty.
    pub fn effective_pool_k(&self, d: usize) -> usize {
        match self.pool {
            ConstraintPool::Exhaustive => 0,
            ConstraintPool::ApproxKnn { k } => k.max(2 * d + 1).max(2),
        }
    }
}

/// Chainable constructor for [`BuildConfig`], obtained from
/// [`BuildConfig::builder`]. Every setter mirrors a config field; `build()`
/// returns the finished config.
#[derive(Clone, Debug, Default)]
pub struct BuildConfigBuilder {
    cfg: BuildConfig,
}

impl BuildConfigBuilder {
    /// Sets the constraint-selection strategy.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.cfg.strategy = strategy;
        self
    }

    /// Sets where each cell's bisector-candidate pool comes from.
    pub fn constraint_pool(mut self, pool: ConstraintPool) -> Self {
        self.cfg.pool = pool;
        self
    }

    /// Sets the LP backend.
    pub fn solver(mut self, solver: SolverKind) -> Self {
        self.cfg.solver = solver;
        self
    }

    /// Enables decomposition into at most `pieces` MBRs per cell.
    ///
    /// # Panics
    /// Panics if `pieces == 0`.
    pub fn decompose_pieces(mut self, pieces: usize) -> Self {
        assert!(pieces >= 1, "decomposition needs at least one piece");
        self.cfg.decompose_pieces = Some(pieces);
        self
    }

    /// Overrides the Sphere-strategy radius.
    ///
    /// # Panics
    /// Panics if `r` is not strictly positive.
    pub fn sphere_radius(mut self, r: f64) -> Self {
        assert!(r > 0.0);
        self.cfg.sphere_radius = Some(r);
        self
    }

    /// Overrides the simulated block size.
    pub fn block_size(mut self, bytes: usize) -> Self {
        self.cfg.block_size = bytes;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Toggles refinement of affected cells on dynamic inserts.
    pub fn refine_on_insert(mut self, yes: bool) -> Self {
        self.cfg.refine_on_insert = yes;
        self
    }

    /// Sets the build-phase worker-thread count.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one thread");
        self.cfg.threads = threads;
        self
    }

    /// Caps every LP solve at `n` work units (exhausted solves walk the
    /// fallback chain and terminally clamp; exactness is unaffected).
    pub fn lp_max_iterations(mut self, n: usize) -> Self {
        self.cfg.lp_budget = LpBudget::with_max_iterations(n);
        self
    }

    /// Sets the full LP work budget.
    pub fn lp_budget(mut self, budget: LpBudget) -> Self {
        self.cfg.lp_budget = budget;
        self
    }

    /// Sets the invalid-input policy for bulk builds.
    pub fn input_policy(mut self, policy: InputPolicy) -> Self {
        self.cfg.input_policy = policy;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> BuildConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let c = BuildConfig::builder()
            .strategy(Strategy::Sphere)
            .constraint_pool(ConstraintPool::ApproxKnn { k: 48 })
            .solver(SolverKind::Seidel)
            .decompose_pieces(4)
            .sphere_radius(0.3)
            .block_size(2048)
            .seed(9)
            .refine_on_insert(false)
            .lp_max_iterations(100)
            .input_policy(InputPolicy::Skip)
            .build();
        assert_eq!(c.strategy, Strategy::Sphere);
        assert_eq!(c.pool, ConstraintPool::ApproxKnn { k: 48 });
        assert_eq!(c.solver, SolverKind::Seidel);
        assert_eq!(c.decompose_pieces, Some(4));
        assert_eq!(c.sphere_radius, Some(0.3));
        assert_eq!(c.block_size, 2048);
        assert_eq!(c.seed, 9);
        assert!(!c.refine_on_insert);
        assert_eq!(c.lp_budget.max_iterations, Some(100));
        assert_eq!(c.input_policy, InputPolicy::Skip);
    }

    #[test]
    fn builder_defaults() {
        let c = BuildConfig::builder().build();
        assert_eq!(c.strategy, Strategy::NnDirection);
        assert_eq!(c.pool, ConstraintPool::Exhaustive);
        assert_eq!(c.block_size, 4096);
        assert_eq!(c.seed, 0);
        assert!(c.refine_on_insert);
        assert_eq!(c.threads, 1);
    }

    #[test]
    fn pool_k_floors() {
        let c = BuildConfig::builder()
            .constraint_pool(ConstraintPool::ApproxKnn { k: 4 })
            .build();
        // Floored at 2·d + 1 so every axis direction can find a rival.
        assert_eq!(c.effective_pool_k(8), 17);
        assert_eq!(c.effective_pool_k(1), 4);
        assert_eq!(
            BuildConfig::builder().build().effective_pool_k(8),
            0,
            "exhaustive pool has no k"
        );
        assert_eq!(ConstraintPool::recommended_k(8), 32);
        assert_eq!(ConstraintPool::recommended_k(1), 8);
    }

    #[test]
    fn default_radius_shrinks_with_n_and_grows_with_d() {
        let c = BuildConfig::builder().strategy(Strategy::Sphere).build();
        let r_small = c.effective_sphere_radius(100, 4);
        let r_big_n = c.effective_sphere_radius(10_000, 4);
        let r_big_d = c.effective_sphere_radius(100, 16);
        assert!(r_big_n < r_small);
        assert!(r_big_d > r_small);
        // Explicit override wins.
        let c2 = BuildConfig::builder()
            .strategy(Strategy::Sphere)
            .sphere_radius(0.123)
            .build();
        assert_eq!(c2.effective_sphere_radius(100, 4), 0.123);
    }

    #[test]
    fn strategy_names() {
        assert_eq!(Strategy::NnDirection.name(), "NN-Direction");
        assert_eq!(Strategy::ALL.len(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one piece")]
    fn zero_pieces_rejected() {
        let _ = BuildConfig::builder().decompose_pieces(0);
    }
}
