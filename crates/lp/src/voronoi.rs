//! Voronoi-cell MBR extents via linear programming.
//!
//! For a database point `P` and a set of rival points `Q`, the NN-cell is
//! `NNC(P) = { x ∈ DS : ∀Q, d(x,P) ≤ d(x,Q) }` — an intersection of bisector
//! halfspaces with the data-space box. Its MBR approximation (Definition 3
//! of the paper) is obtained from `2·d` LPs: minimize and maximize each
//! coordinate over that polyhedron.
//!
//! # Robustness: the fallback chain
//!
//! No single LP backend survives every degenerate input, so each of the
//! `2·d` extent LPs runs through an escalation chain: the configured primary
//! backend first, then the remaining backends in a fixed order, each under
//! the same [`LpBudget`]. If *every* backend fails, the extent is clamped to
//! the corresponding data-space bound. The clamp is exactness-preserving:
//! the data-space bound is always a superset of the true extent (every cell
//! lives inside the data space — Lemma 1), so a clamped MBR can only grow
//! the approximation. Queries stay exact; only the candidate count suffers.
//! Degradation is observable via [`CellLpStats::fallback_lps`] and
//! [`CellLpStats::clamped_extents`].

use crate::problem::{Lp, LpBudget, LpError, LpResult, SolverKind};
use crate::{activeset, dual, seidel, simplex};
use nncell_geom::{DataSpace, Halfspace, Mbr, Metric};

/// Dispatches one LP to the configured backend (no fallback chain; see
/// [`VoronoiLp::extents`] for the robust path).
pub fn solve_with(kind: SolverKind, lp: &Lp, seed: u64) -> Result<LpResult, LpError> {
    solve_with_budget(kind, lp, seed, LpBudget::DEFAULT)
}

/// [`solve_with`] under an explicit work budget.
pub fn solve_with_budget(
    kind: SolverKind,
    lp: &Lp,
    seed: u64,
    budget: LpBudget,
) -> Result<LpResult, LpError> {
    match kind {
        SolverKind::Simplex => simplex::solve_budgeted(lp, budget),
        SolverKind::Seidel => seidel::solve_seeded_budgeted(lp, seed, budget),
        SolverKind::DualSimplex => dual::solve_budgeted(lp, budget),
        // No feasible start available at this call site: the dual simplex
        // is the drop-in replacement (see SolverKind::ActiveSet docs).
        SolverKind::ActiveSet => dual::solve_budgeted(lp, budget),
        SolverKind::Auto => {
            if lp.num_constraints() <= SolverKind::AUTO_SIMPLEX_LIMIT {
                simplex::solve_budgeted(lp, budget)
            } else {
                // The dual solver self-verifies; on (rare) numerical
                // breakdown fall back to the randomized algorithm.
                match dual::solve_budgeted(lp, budget) {
                    Ok(r) => Ok(r),
                    Err(_) => seidel::solve_seeded_budgeted(lp, seed, budget),
                }
            }
        }
    }
}

/// Counters describing the LP work done for one cell approximation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CellLpStats {
    /// Linear programs run (`2·d` per cell piece).
    pub lp_calls: usize,
    /// Total constraints across those LPs (excluding box bounds).
    pub constraints: usize,
    /// LPs the primary backend failed but a fallback backend solved.
    pub fallback_lps: usize,
    /// Extents clamped to the data-space bound because every backend failed.
    /// Exactness survives (the clamp is a superset — Lemma 1); candidate
    /// counts grow.
    pub clamped_extents: usize,
}

impl CellLpStats {
    /// Accumulates another stats record.
    pub fn merge(&mut self, other: CellLpStats) {
        self.lp_calls += other.lp_calls;
        self.constraints += other.constraints;
        self.fallback_lps += other.fallback_lps;
        self.clamped_extents += other.clamped_extents;
    }

    /// True when any LP needed a fallback backend or a clamp.
    pub fn degraded(&self) -> bool {
        self.fallback_lps > 0 || self.clamped_extents > 0
    }
}

/// One solved cell (or cell piece): its MBR, the `2·d` LP optimizer points
/// (cell points touching each MBR face — used by the decomposition's
/// obliqueness heuristic), and LP work counters.
#[derive(Clone, Debug)]
pub struct CellSolve {
    /// The MBR approximation.
    pub mbr: Mbr,
    /// The `2·d` LP optimizers, in `(min x₀, max x₀, min x₁, …)` order.
    /// Clamped extents contribute the data-space corner optimal for the
    /// objective (a degraded but harmless stand-in — the vertices only feed
    /// a heuristic).
    pub vertices: Vec<Vec<f64>>,
    /// LP work counters.
    pub stats: CellLpStats,
}

/// Registry handles for live LP-chain instrumentation. Cheap to clone
/// (shared `Arc` handles), so worker threads cloning the solver all
/// record into the same counters.
///
/// These cover what [`CellLpStats`] does not: *per-attempt* and
/// *per-depth* detail of the escalation chain. The aggregate counters
/// that mirror `CellLpStats` (`lp_calls`, `fallback_lps`,
/// `clamped_extents`) are exported by the index layer from its
/// accumulated stats, so the two surfaces always agree.
#[derive(Clone, Debug)]
pub struct LpMetrics {
    /// `nncell_lp_solver_attempts_total` — one per backend invocation,
    /// successful or not.
    pub solver_attempts: std::sync::Arc<nncell_obs::Counter>,
    /// `nncell_lp_fallback_depth` — per extent LP, how many fallback
    /// backends ran after the primary (0 = primary solved it; the chain
    /// length + 1 marks exhaustion → data-space clamp).
    pub fallback_depth: std::sync::Arc<nncell_obs::Histogram>,
    /// `nncell_lp_clamp_events_total` — extents degraded to the
    /// data-space bound.
    pub clamps: std::sync::Arc<nncell_obs::Counter>,
}

impl LpMetrics {
    /// Registers the LP-chain metrics under their `nncell_lp_…` names.
    pub fn register(registry: &nncell_obs::Registry) -> Self {
        Self {
            solver_attempts: registry.counter("nncell_lp_solver_attempts_total"),
            fallback_depth: registry.histogram("nncell_lp_fallback_depth"),
            clamps: registry.counter("nncell_lp_clamp_events_total"),
        }
    }
}

/// The cell-extent solver: metric + data space + LP backend + work budget.
#[derive(Clone, Debug)]
pub struct VoronoiLp<M: Metric> {
    metric: M,
    space: DataSpace,
    solver: SolverKind,
    budget: LpBudget,
    /// Live chain instrumentation; `None` (the default) records nothing.
    metrics: Option<LpMetrics>,
}

/// Outcome of one extent LP after the full fallback chain.
enum ChainOutcome {
    /// Some backend produced a verified optimum.
    Solved(LpResult),
    /// Every backend failed; the caller clamps to the data-space bound.
    Exhausted,
}

impl<M: Metric> VoronoiLp<M> {
    /// Creates a solver over `space` with the given LP backend and the
    /// default work budget.
    pub fn new(metric: M, space: DataSpace, solver: SolverKind) -> Self {
        Self {
            metric,
            space,
            solver,
            budget: LpBudget::DEFAULT,
            metrics: None,
        }
    }

    /// Attaches live chain instrumentation (solver attempts, fallback
    /// depth, clamp events). Clones of this solver share the handles.
    pub fn set_metrics(&mut self, metrics: LpMetrics) {
        self.metrics = Some(metrics);
    }

    /// Overrides the per-LP work budget (see [`LpBudget`]). A tiny budget
    /// degrades every extent to the data-space clamp — still exact, useful
    /// for testing the fallback path end to end.
    pub fn with_budget(mut self, budget: LpBudget) -> Self {
        self.budget = budget;
        self
    }

    /// The configured work budget.
    pub fn budget(&self) -> LpBudget {
        self.budget
    }

    /// The data space every cell is clipped to.
    pub fn space(&self) -> &DataSpace {
        &self.space
    }

    /// The metric in use.
    pub fn metric(&self) -> &M {
        &self.metric
    }

    /// Builds the bisector constraints of `p` against `rivals`.
    ///
    /// Rivals (numerically) identical to `p` are skipped: a duplicate point
    /// would make the cell empty and the paper's model assumes distinct
    /// points.
    pub fn bisectors<'a, I>(&self, p: &[f64], rivals: I) -> Vec<Halfspace>
    where
        I: IntoIterator<Item = &'a [f64]>,
    {
        let mut out = Vec::new();
        for q in rivals {
            if self.metric.dist_sq(p, q) <= f64::EPSILON {
                continue;
            }
            out.push(Halfspace::bisector(&self.metric, p, q));
        }
        out
    }

    /// Resolves `Auto` and start-less `ActiveSet` to a concrete backend.
    fn resolve_primary(&self, m: usize, have_start: bool) -> SolverKind {
        match self.solver {
            SolverKind::Auto => {
                if m <= SolverKind::AUTO_SIMPLEX_LIMIT {
                    SolverKind::Simplex
                } else {
                    SolverKind::DualSimplex
                }
            }
            SolverKind::ActiveSet if !have_start => SolverKind::DualSimplex,
            k => k,
        }
    }

    /// Runs one backend once.
    fn attempt(
        &self,
        kind: SolverKind,
        lp: &Lp,
        seed: u64,
        start: Option<&[f64]>,
        dual_prob: Option<&dual::DualProblem>,
    ) -> Result<LpResult, LpError> {
        match kind {
            SolverKind::Simplex => simplex::solve_budgeted(lp, self.budget),
            SolverKind::Seidel => seidel::solve_seeded_budgeted(lp, seed, self.budget),
            SolverKind::DualSimplex => match dual_prob {
                Some(p) => p.maximize_budgeted(&lp.objective, self.budget),
                None => dual::solve_budgeted(lp, self.budget),
            },
            SolverKind::ActiveSet => match start {
                Some(x0) => activeset::solve_from_budgeted(lp, x0, self.budget),
                None => dual::solve_budgeted(lp, self.budget),
            },
            SolverKind::Auto => unreachable!("Auto resolved before dispatch"),
        }
    }

    /// Solves one extent LP through the escalation chain: primary backend,
    /// then each remaining backend in a fixed order, all under the same
    /// budget. Never panics; [`ChainOutcome::Exhausted`] tells the caller to
    /// clamp.
    fn solve_chain(
        &self,
        lp: &Lp,
        seed: u64,
        start: Option<&[f64]>,
        dual_prob: Option<&dual::DualProblem>,
        stats: &mut CellLpStats,
    ) -> ChainOutcome {
        // Inert unless the calling thread is inside a sampled trace
        // (refine-on-insert under a traced server request, or a manual
        // fold); build-time LP floods are untraced by default.
        let mut span = nncell_obs::trace::child("lp.solve_chain");
        let primary = self.resolve_primary(lp.num_constraints(), start.is_some());
        if let Some(m) = &self.metrics {
            m.solver_attempts.inc();
        }
        if let Ok(r) = self.attempt(primary, lp, seed, start, dual_prob) {
            if let Some(m) = &self.metrics {
                m.fallback_depth.record(0);
            }
            span.arg("depth", 0);
            return ChainOutcome::Solved(r);
        }
        // Escalation order: randomized incremental first (immune to pivot
        // cycling), then the warm-started active set, then the deterministic
        // tableau, then the revised dual.
        let escalation = [
            SolverKind::Seidel,
            SolverKind::ActiveSet,
            SolverKind::Simplex,
            SolverKind::DualSimplex,
        ];
        let mut depth = 0u64;
        for kind in escalation {
            if kind == primary || (kind == SolverKind::ActiveSet && start.is_none()) {
                continue;
            }
            depth += 1;
            if let Some(m) = &self.metrics {
                m.solver_attempts.inc();
            }
            if let Ok(r) = self.attempt(kind, lp, seed, start, dual_prob) {
                stats.fallback_lps += 1;
                if let Some(m) = &self.metrics {
                    m.fallback_depth.record(depth);
                }
                span.arg("depth", depth);
                return ChainOutcome::Solved(r);
            }
        }
        // Exhaustion: one past the deepest attempted fallback, so clamps
        // are distinguishable from a last-backend save in the histogram.
        if let Some(m) = &self.metrics {
            m.fallback_depth.record(depth + 1);
        }
        span.arg("depth", depth + 1);
        span.arg("exhausted", 1);
        ChainOutcome::Exhausted
    }

    /// Runs the `2·d` extent LPs over `constraints` (+ data-space box).
    ///
    /// Returns `None` when the constrained region is empty — impossible for a
    /// plain cell (the point itself is feasible) but routine for the slabs of
    /// an MBR decomposition that miss the cell.
    ///
    /// Never fails: extents whose LPs defeat every backend are clamped to the
    /// data-space bound (a superset, so exactness survives) and counted in
    /// [`CellLpStats::clamped_extents`].
    pub fn extents(&self, constraints: &[Halfspace], seed: u64) -> Option<CellSolve> {
        self.extents_impl(constraints, None, seed)
    }

    /// Runs the `2·d` extent LPs with the active-set backend from the
    /// feasible start `start`, escalating through the other backends (and
    /// ultimately the data-space clamp) on breakdown.
    ///
    /// A feasible start proves the region is non-empty, so this returns a
    /// solve unconditionally.
    pub fn extents_from(&self, constraints: &[Halfspace], start: &[f64], seed: u64) -> CellSolve {
        self.extents_impl(constraints, Some(start), seed)
            .unwrap_or_else(|| {
                // A backend reported "infeasible" despite the feasible
                // start: numerical contradiction. The whole data space is
                // still a valid superset of the cell — degrade to it.
                let d = self.space.dim();
                let lo: Vec<f64> = (0..d).map(|i| self.space.lo(i)).collect();
                let hi: Vec<f64> = (0..d).map(|i| self.space.hi(i)).collect();
                let mut stats = CellLpStats::default();
                stats.clamped_extents += 2 * d;
                if let Some(m) = &self.metrics {
                    m.clamps.add(2 * d as u64);
                }
                CellSolve {
                    mbr: Mbr::new(lo, hi),
                    vertices: Vec::new(),
                    stats,
                }
            })
    }

    /// Pool-aware solver entry for the sub-quadratic build: runs the `2·d`
    /// extent LPs against a *candidate pool* of constraints (typically the
    /// bisectors of a point's approximate k-nearest neighbors) and reports
    /// whether the outcome indicates the pool was too tight for a clean
    /// solve.
    ///
    /// The second return value is `true` when the solve was degenerate —
    /// infeasible (numerical contradiction forced the warm-started rescue)
    /// or any extent clamped to the data space. Lemma 1 keeps even the
    /// degenerate result a valid superset, so the caller may *use* it; the
    /// flag exists so the build can retry the cell against the exhaustive
    /// pool instead of shipping a data-space-fat approximation.
    ///
    /// `solver` selects which entry runs: active-set backends need the
    /// feasible `start` (the cell's own data point); every other backend
    /// starts cold and falls back to the warm start only on contradiction.
    pub fn extents_pooled(
        &self,
        pool: &[Halfspace],
        start: &[f64],
        solver: SolverKind,
        seed: u64,
    ) -> (CellSolve, bool) {
        if solver == SolverKind::ActiveSet {
            let solve = self.extents_from(pool, start, seed);
            let degenerate = solve.stats.clamped_extents > 0;
            return (solve, degenerate);
        }
        match self.extents(pool, seed) {
            Some(solve) => {
                let degenerate = solve.stats.clamped_extents > 0;
                (solve, degenerate)
            }
            // "Infeasible" for a cell that provably contains its own data
            // point: numerical contradiction, the strongest too-tight signal.
            None => (self.extents_from(pool, start, seed), true),
        }
    }

    fn extents_impl(
        &self,
        constraints: &[Halfspace],
        start: Option<&[f64]>,
        seed: u64,
    ) -> Option<CellSolve> {
        let d = self.space.dim();
        let lower: Vec<f64> = (0..d).map(|i| self.space.lo(i)).collect();
        let upper: Vec<f64> = (0..d).map(|i| self.space.hi(i)).collect();
        let mut lo = vec![0.0; d];
        let mut hi = vec![0.0; d];
        let mut vertices = Vec::with_capacity(2 * d);
        let mut stats = CellLpStats::default();

        // The 2·d LPs share the constraint matrix: when the dual backend is
        // the (resolved) primary, build it once and solve per objective.
        let use_dual =
            self.resolve_primary(constraints.len(), start.is_some()) == SolverKind::DualSimplex;
        let dual_prob = if use_dual {
            match dual::DualProblem::new(constraints, &lower, &upper) {
                None => return None, // trivially infeasible zero row
                some => some,
            }
        } else {
            None
        };

        for i in 0..d {
            for dir in [-1.0, 1.0] {
                let mut c = vec![0.0; d];
                c[i] = dir;
                stats.lp_calls += 1;
                stats.constraints += constraints.len();
                let lp_seed = seed ^ (((i as u64) << 1) | (dir > 0.0) as u64);
                let lp = Lp::new(c, constraints.to_vec(), lower.clone(), upper.clone());
                match self.solve_chain(&lp, lp_seed, start, dual_prob.as_ref(), &mut stats) {
                    ChainOutcome::Solved(LpResult::Optimal { x, .. }) => {
                        if dir < 0.0 {
                            lo[i] = x[i];
                        } else {
                            hi[i] = x[i];
                        }
                        vertices.push(x);
                    }
                    ChainOutcome::Solved(LpResult::Infeasible) => return None,
                    ChainOutcome::Exhausted => {
                        // Terminal fallback: the data-space bound is a
                        // superset of the true extent (Lemma 1), so the
                        // approximation stays valid — just fatter.
                        stats.clamped_extents += 1;
                        if let Some(m) = &self.metrics {
                            m.clamps.inc();
                        }
                        if dir < 0.0 {
                            lo[i] = self.space.lo(i);
                        } else {
                            hi[i] = self.space.hi(i);
                        }
                        let corner: Vec<f64> = (0..d)
                            .map(|j| {
                                if j == i {
                                    if dir < 0.0 {
                                        self.space.lo(j)
                                    } else {
                                        self.space.hi(j)
                                    }
                                } else {
                                    self.space.lo(j)
                                }
                            })
                            .collect();
                        vertices.push(corner);
                    }
                }
            }
        }
        // Clamp round-off so the MBR constructor's invariant holds.
        for i in 0..d {
            lo[i] = lo[i].clamp(self.space.lo(i), self.space.hi(i));
            hi[i] = hi[i].clamp(lo[i], self.space.hi(i));
        }
        Some(CellSolve {
            mbr: Mbr::new(lo, hi),
            vertices,
            stats,
        })
    }

    /// MBR approximation of the NN-cell of `p` against `rivals`
    /// (Definition 3).
    ///
    /// With [`SolverKind::ActiveSet`], `p` itself serves as the feasible
    /// start the Best–Ritter method wants (it lies strictly inside its own
    /// cell); other backends go through [`Self::extents`].
    ///
    /// Never fails: LP breakdowns degrade to the data-space clamp (see
    /// [`Self::extents`]), and the region cannot be empty because `p` itself
    /// is feasible.
    pub fn cell_mbr<'a, I>(&self, p: &[f64], rivals: I, seed: u64) -> CellSolve
    where
        I: IntoIterator<Item = &'a [f64]>,
    {
        let cons = self.bisectors(p, rivals);
        if self.solver == SolverKind::ActiveSet {
            return self.extents_from(&cons, p, seed);
        }
        self.extents(&cons, seed).unwrap_or_else(|| {
            // "Infeasible" for a data point's own cell is a numerical
            // contradiction (p is feasible); degrade to the full space.
            self.extents_from(&cons, p, seed)
        })
    }

    /// Exactness-preserving constraint prune.
    ///
    /// Given a *rough superset MBR* of the cell (computed from any subset of
    /// the rivals — e.g. the k nearest), a bisector whose complement does not
    /// intersect that MBR cannot affect any of the `2·d` LP optima: the
    /// retained feasible region already lies inside the rough MBR, where the
    /// dropped constraint holds everywhere. This turns the `Correct`
    /// strategy from `O(N)` constraints per LP into (typically) `O(d)`-ish
    /// without giving up exactness.
    pub fn prune_constraints(constraints: Vec<Halfspace>, rough: &Mbr) -> Vec<Halfspace> {
        // The rough MBR comes from LP solves with ~1e-9 feasibility
        // tolerance; at near-duplicate-point scales that slack matters.
        // Inflate the box before testing so only comfortably redundant
        // constraints are dropped (keeping extras never hurts exactness).
        let d = rough.dim();
        let eps = 1e-6;
        let lo: Vec<f64> = (0..d).map(|i| rough.lo()[i] - eps).collect();
        let hi: Vec<f64> = (0..d).map(|i| rough.hi()[i] + eps).collect();
        let inflated = Mbr::new(lo, hi);
        constraints
            .into_iter()
            .filter(|h| {
                let tol = 1e-9 * (1.0 + h.offset().abs());
                max_over_mbr(h, &inflated) > h.offset() - tol
            })
            .collect()
    }
}

/// Maximum of `a·x` over an MBR (attained at a corner, computed
/// coordinate-wise).
pub fn max_over_mbr(h: &Halfspace, mbr: &Mbr) -> f64 {
    let a = h.normal();
    let mut s = 0.0;
    for i in 0..a.len() {
        s += if a[i] >= 0.0 {
            a[i] * mbr.hi()[i]
        } else {
            a[i] * mbr.lo()[i]
        };
    }
    s
}

/// Convenience: Euclidean cell MBR over the unit cube with the
/// [`SolverKind::Auto`] backend.
///
/// `points[i]` for `i != index` are the rivals of `points[index]`.
pub fn cell_mbr(points: &[Vec<f64>], index: usize, seed: u64) -> Mbr {
    let d = points[index].len();
    let solver = VoronoiLp::new(nncell_geom::Euclidean, DataSpace::unit(d), SolverKind::Auto);
    let rivals = points
        .iter()
        .enumerate()
        .filter(|(j, _)| *j != index)
        .map(|(_, q)| q.as_slice());
    solver.cell_mbr(&points[index], rivals, seed).mbr
}

#[cfg(test)]
mod tests {
    use super::*;
    use nncell_geom::Euclidean;

    fn solver(d: usize, kind: SolverKind) -> VoronoiLp<Euclidean> {
        VoronoiLp::new(Euclidean, DataSpace::unit(d), kind)
    }

    #[test]
    fn single_point_cell_is_whole_space() {
        let s = solver(3, SolverKind::Simplex);
        let mbr = s.cell_mbr(&[0.4, 0.5, 0.6], std::iter::empty(), 0).mbr;
        assert_eq!(mbr.lo(), &[0.0, 0.0, 0.0]);
        assert_eq!(mbr.hi(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn two_points_split_unit_square() {
        // Points at x=0.25 and x=0.75: bisector x = 0.5.
        let s = solver(2, SolverKind::Simplex);
        let p = [0.25, 0.5];
        let q = [0.75, 0.5];
        let mbr = s.cell_mbr(&p, [&q[..]], 0).mbr;
        assert!((mbr.hi()[0] - 0.5).abs() < 1e-8, "{mbr:?}");
        assert!((mbr.lo()[0] - 0.0).abs() < 1e-8);
        assert!((mbr.hi()[1] - 1.0).abs() < 1e-8);
    }

    #[test]
    fn grid_cell_mbr_matches_voronoi_cell() {
        // 3x3 grid at {1/6, 3/6, 5/6}²: center cell is [1/3,2/3]².
        let mut pts = Vec::new();
        for i in 0..3 {
            for j in 0..3 {
                pts.push(vec![(2 * i + 1) as f64 / 6.0, (2 * j + 1) as f64 / 6.0]);
            }
        }
        let center = pts
            .iter()
            .position(|p| (p[0] - 0.5).abs() < 1e-12 && (p[1] - 0.5).abs() < 1e-12)
            .unwrap();
        let mbr = cell_mbr(&pts, center, 0);
        assert!((mbr.lo()[0] - 1.0 / 3.0).abs() < 1e-8, "{mbr:?}");
        assert!((mbr.hi()[0] - 2.0 / 3.0).abs() < 1e-8);
        assert!((mbr.lo()[1] - 1.0 / 3.0).abs() < 1e-8);
        assert!((mbr.hi()[1] - 2.0 / 3.0).abs() < 1e-8);
    }

    #[test]
    fn pooled_entry_matches_plain_extents_on_clean_solves() {
        // A well-conditioned pool: the pooled entry must agree with the
        // plain extents solve bit-for-bit and report "not degenerate".
        for kind in [
            SolverKind::Simplex,
            SolverKind::Seidel,
            SolverKind::ActiveSet,
        ] {
            let s = solver(2, kind);
            let p = [0.25, 0.5];
            let pool = s.bisectors(&p, [&[0.75, 0.5][..], &[0.25, 0.1][..]]);
            let (solve, degenerate) = s.extents_pooled(&pool, &p, kind, 11);
            assert!(!degenerate, "{kind:?}: clean solve flagged degenerate");
            let direct = if kind == SolverKind::ActiveSet {
                s.extents_from(&pool, &p, 11)
            } else {
                s.extents(&pool, 11).unwrap()
            };
            assert_eq!(solve.mbr.lo(), direct.mbr.lo(), "{kind:?}");
            assert_eq!(solve.mbr.hi(), direct.mbr.hi(), "{kind:?}");
        }
    }

    #[test]
    fn pooled_entry_flags_budget_starved_solves() {
        // A zero work budget forces every extent through the fallback chain
        // into the terminal clamp: still a valid superset, but the pooled
        // entry must flag it so the build can retry exhaustively.
        let s = solver(3, SolverKind::Seidel).with_budget(LpBudget::with_max_iterations(0));
        let p = [0.4, 0.5, 0.6];
        let pool = s.bisectors(&p, [&[0.9, 0.5, 0.6][..]]);
        let (solve, degenerate) = s.extents_pooled(&pool, &p, SolverKind::Seidel, 0);
        assert!(degenerate, "clamped solve must be flagged");
        assert!(solve.stats.clamped_extents > 0);
        // The clamp degrades to the data space — a superset of the cell.
        assert_eq!(solve.mbr.lo(), &[0.0; 3][..]);
        assert_eq!(solve.mbr.hi(), &[1.0; 3][..]);
    }

    #[test]
    fn simplex_and_seidel_agree_on_cells() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(99);
        for d in [2usize, 3, 5] {
            let pts: Vec<Vec<f64>> = (0..20)
                .map(|_| (0..d).map(|_| rng.gen_range(0.0..1.0)).collect())
                .collect();
            for idx in [0usize, 7, 19] {
                let sx = solver(d, SolverKind::Simplex);
                let sd = solver(d, SolverKind::Seidel);
                let rivals = || {
                    pts.iter()
                        .enumerate()
                        .filter(move |(j, _)| *j != idx)
                        .map(|(_, q)| q.as_slice())
                };
                let m1 = sx.cell_mbr(&pts[idx], rivals(), 5).mbr;
                let m2 = sd.cell_mbr(&pts[idx], rivals(), 5).mbr;
                for i in 0..d {
                    assert!(
                        (m1.lo()[i] - m2.lo()[i]).abs() < 1e-6
                            && (m1.hi()[i] - m2.hi()[i]).abs() < 1e-6,
                        "d={d} idx={idx} dim={i}: {m1:?} vs {m2:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn cell_contains_its_point_and_mbrs_cover_space() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
        let d = 3;
        let pts: Vec<Vec<f64>> = (0..15)
            .map(|_| (0..d).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        let mbrs: Vec<Mbr> = (0..pts.len()).map(|i| cell_mbr(&pts, i, 1)).collect();
        for (i, m) in mbrs.iter().enumerate() {
            assert!(m.contains_point(&pts[i]), "cell {i} misses its point");
        }
        // Every random query point must fall in the MBR of its true NN cell.
        for _ in 0..200 {
            let q: Vec<f64> = (0..d).map(|_| rng.gen_range(0.0..1.0)).collect();
            let nn = (0..pts.len())
                .min_by(|&a, &b| {
                    nncell_geom::dist_sq(&q, &pts[a]).total_cmp(&nncell_geom::dist_sq(&q, &pts[b]))
                })
                .unwrap();
            assert!(
                mbrs[nn].contains_point(&q),
                "query {q:?} outside approx of its NN {nn}"
            );
        }
    }

    #[test]
    fn extra_slab_constraints_can_make_region_empty() {
        let s = solver(2, SolverKind::Simplex);
        let p = [0.2, 0.2];
        let q = [0.8, 0.8];
        let mut cons = s.bisectors(&p, [&q[..]]);
        // The cell of p is {x+y <= 1}; the slab x,y >= 0.9 misses it.
        cons.push(Halfspace::new(vec![-1.0, 0.0], -0.9));
        cons.push(Halfspace::new(vec![0.0, -1.0], -0.9));
        assert!(s.extents(&cons, 0).is_none());
    }

    #[test]
    fn pruning_preserves_exact_extents() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(17);
        let d = 3;
        let pts: Vec<Vec<f64>> = (0..60)
            .map(|_| (0..d).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        let s = solver(d, SolverKind::Simplex);
        let p = pts[0].clone();
        let all = s.bisectors(&p, pts[1..].iter().map(|q| q.as_slice()));
        let exact = s.extents(&all, 0).unwrap().mbr;
        // Rough MBR from the 15 nearest rivals (any subset is valid; a near
        // subset gives a tight rough box so distant bisectors get pruned).
        let mut by_dist: Vec<&Vec<f64>> = pts[1..].iter().collect();
        by_dist.sort_by(|a, b| nncell_geom::dist_sq(&p, a).total_cmp(&nncell_geom::dist_sq(&p, b)));
        let subset = s.bisectors(&p, by_dist[..15].iter().map(|q| q.as_slice()));
        let rough = s.extents(&subset, 0).unwrap().mbr;
        let pruned = VoronoiLp::<Euclidean>::prune_constraints(all.clone(), &rough);
        assert!(pruned.len() < all.len(), "prune did nothing");
        let via_pruned = s.extents(&pruned, 0).unwrap().mbr;
        for i in 0..d {
            assert!((exact.lo()[i] - via_pruned.lo()[i]).abs() < 1e-7);
            assert!((exact.hi()[i] - via_pruned.hi()[i]).abs() < 1e-7);
        }
    }

    #[test]
    fn max_over_mbr_is_corner_max() {
        let h = Halfspace::new(vec![1.0, -2.0], 0.0);
        let m = Mbr::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        // max x − 2y over unit square = 1 at (1, 0)
        assert!((max_over_mbr(&h, &m) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_rival_skipped() {
        let s = solver(2, SolverKind::Simplex);
        let p = [0.5, 0.5];
        let solve = s.cell_mbr(&p, [&p[..]], 0);
        let (mbr, stats) = (solve.mbr, solve.stats);
        assert_eq!(stats.constraints, 0);
        assert_eq!(mbr.lo(), &[0.0, 0.0]);
    }

    #[test]
    fn zero_budget_degrades_to_data_space_clamp() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(41);
        let d = 3;
        let pts: Vec<Vec<f64>> = (0..10)
            .map(|_| (0..d).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        for kind in [
            SolverKind::Simplex,
            SolverKind::Seidel,
            SolverKind::DualSimplex,
            SolverKind::ActiveSet,
            SolverKind::Auto,
        ] {
            let s = solver(d, kind).with_budget(LpBudget::with_max_iterations(0));
            let solve = s.cell_mbr(&pts[0], pts[1..].iter().map(|q| q.as_slice()), 7);
            assert_eq!(
                solve.stats.clamped_extents,
                2 * d,
                "{kind:?}: every extent should clamp under a zero budget"
            );
            // The clamped MBR is the whole data space — a superset of the
            // true cell, so exactness is preserved.
            assert_eq!(solve.mbr.lo(), &[0.0; 3][..], "{kind:?}");
            assert_eq!(solve.mbr.hi(), &[1.0; 3][..], "{kind:?}");
        }
    }

    #[test]
    fn fallback_chain_recovers_exact_extents_when_one_backend_fails() {
        // Seidel always spends at least one work unit per constraint, so a
        // budget below m starves it deterministically; the tableau simplex
        // finishes these small cells in a handful of pivots. With Seidel as
        // primary the chain escalates to the simplex and still produces the
        // exact extents.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(23);
        let d = 3;
        let pts: Vec<Vec<f64>> = (0..30)
            .map(|_| (0..d).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        let exact = solver(d, SolverKind::Seidel).cell_mbr(
            &pts[0],
            pts[1..].iter().map(|q| q.as_slice()),
            7,
        );
        assert!(!exact.stats.degraded());
        let tight = solver(d, SolverKind::Seidel).with_budget(LpBudget::with_max_iterations(25));
        let degraded = tight.cell_mbr(&pts[0], pts[1..].iter().map(|q| q.as_slice()), 7);
        assert!(
            degraded.stats.fallback_lps > 0,
            "expected Seidel to fail under a 25-unit budget on m=29: {:?}",
            degraded.stats
        );
        assert_eq!(degraded.stats.clamped_extents, 0, "{:?}", degraded.stats);
        for i in 0..d {
            assert!((degraded.mbr.lo()[i] - exact.mbr.lo()[i]).abs() < 1e-6);
            assert!((degraded.mbr.hi()[i] - exact.mbr.hi()[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn nonfinite_objective_is_a_typed_error_in_every_backend() {
        // Halfspace::new rejects non-finite constraint data at construction,
        // so the remaining smuggling route is the objective vector.
        let lp = Lp::new(
            vec![f64::NAN, 1.0],
            vec![Halfspace::new(vec![1.0, 1.0], 1.0)],
            vec![0.0, 0.0],
            vec![1.0, 1.0],
        );
        assert_eq!(simplex::solve(&lp), Err(LpError::NonFinite));
        assert_eq!(seidel::solve_seeded(&lp, 3), Err(LpError::NonFinite));
        assert_eq!(dual::solve(&lp), Err(LpError::NonFinite));
        assert_eq!(
            activeset::solve_from(&lp, &[0.0, 0.0]),
            Err(LpError::NonFinite)
        );
    }
}
