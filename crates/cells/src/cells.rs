//! The paper's structure: an MBR approximation of every live point's
//! NN-cell, stored in a cell X-tree and maintained under updates.
//!
//! Each live point's first-order Voronoi cell (*NN-cell*) is approximated
//! by its minimum bounding rectangle — `2·d` linear programs over bisector
//! halfspaces, optionally decomposed into pieces (§3) — and the pieces
//! live in an X-tree. The paper's nearest-neighbor query ([`NnCells::nn`])
//! is a point query on that tree plus a distance check. Every
//! approximation is a superset of its true cell (Lemma 1) and the pieces
//! cover it (Lemma 2), so the answer is exact.
//!
//! Serving does not read the cells. [`NnCellIndex`] answers every query by
//! best-first search over its point X-tree and runs no LP. `NnCells` is
//! built on demand from an index — for the paper's experiments, the
//! quality metrics and the tests of its lemmas — and follows the index's
//! updates through [`NnCells::insert`] and [`NnCells::remove`] (§3.5).

use crate::decompose::decompose_cell;
use crate::strategy::{gather_rival_ids, nearest_rivals};
use nncell_core::{
    BuildProfile, BuildStats, ConstraintPool, NnCellIndex, PhaseTiming, QueryResult, Strategy,
    STR_FILL,
};
use nncell_geom::{Euclidean, Halfspace, Mbr, Metric};
use nncell_index::{IoStats, TreeConfig, XTree};
use nncell_lp::{CellLpStats, CellSolve, SolverKind, VoronoiLp};
use std::time::Instant;

/// Bits of the cell-tree item id reserved for the piece index; the rest is
/// the point id. Decomposition budgets are tiny (≤ ~10 pieces), so 10 bits
/// is generous. The older index file formats (`NNCELL01`/`02`), which
/// stored piece lists, cap a point's list at the same 1024.
pub(crate) const PIECE_BITS: u32 = 10;
const MAX_PIECES: usize = 1 << PIECE_BITS;

/// Seed salt distinguishing the CorrectPruned rough solve from the final
/// solve ("rough" in ASCII).
const ROUGH_SALT: u64 = 0x726f756768;

/// Page budget for the approximate-kNN constraint-pool probe. Generous —
/// the probe is exact whenever the best-first search finishes within it —
/// yet a constant, which is the point: gathering stays O(log N + k) pages
/// instead of the strategies' O(N)-ish scans.
fn pool_page_budget(k: usize) -> usize {
    64 + 4 * k
}

/// One computed cell: pieces, LP counters, candidate count, phase timings.
type CellComputation = (Vec<Mbr>, CellLpStats, usize, CellTimings);

/// One point's stored approximation: the MBR pieces of its NN-cell.
#[derive(Clone, Debug, Default)]
pub struct CellApprox {
    /// Piece MBRs (one element when decomposition is off). Empty for
    /// removed points.
    pub pieces: Vec<Mbr>,
}

impl CellApprox {
    /// Total volume of the pieces (the paper's quality measure counts this
    /// against the data-space volume).
    pub fn volume(&self) -> f64 {
        self.pieces.iter().map(Mbr::volume).sum()
    }
}

/// Phase timings of one cell computation (build-profiler plumbing), plus
/// whether the pooled first attempt had to be redone exhaustively.
#[derive(Clone, Copy, Debug, Default)]
struct CellTimings {
    constraint_ns: u64,
    lp_ns: u64,
    decomp_ns: u64,
    decomposed: bool,
    pool_fellback: bool,
}

/// Adds one run of `nanos` to `phase`.
fn add_phase(phase: &mut PhaseTiming, nanos: u64) {
    phase.nanos += nanos;
    phase.calls += 1;
}

/// Folds one cell computation's phase timings into `profile`.
fn absorb_cell(profile: &mut BuildProfile, t: CellTimings) {
    add_phase(&mut profile.constraint_selection, t.constraint_ns);
    add_phase(&mut profile.lp_solve, t.lp_ns);
    if t.decomposed {
        add_phase(&mut profile.decomposition, t.decomp_ns);
    }
}

/// Records one worker batch of `nanos` in `profile`.
fn record_batch(profile: &mut BuildProfile, nanos: u64) {
    profile.batches += 1;
    profile.batch_total_nanos += nanos;
    profile.batch_max_nanos = profile.batch_max_nanos.max(nanos);
}

/// Outcome of [`NnCells::verify_integrity`].
#[derive(Clone, Debug, Default)]
pub struct IntegrityReport {
    /// Live cells examined.
    pub checked_cells: usize,
    /// Ids whose stored approximation fails an invariant: no pieces, a
    /// non-finite or wrong-dimension piece, no piece containing the
    /// generating point, or a piece entirely outside the data space.
    pub bad_cells: Vec<usize>,
}

impl IntegrityReport {
    /// Whether every checked cell passed.
    pub fn is_ok(&self) -> bool {
        self.bad_cells.is_empty()
    }
}

/// The NN-cells of one [`NnCellIndex`]: per-point approximations, the cell
/// X-tree over their pieces, and the LP machinery that maintains them.
///
/// Every method that takes an index expects the one these cells were built
/// from, in its current state: apply an update to the index first, then
/// mirror it with [`Self::insert`] or [`Self::remove`].
///
/// ```
/// use nncell_cells::NnCells;
/// use nncell_core::{BuildConfig, NnCellIndex, Strategy};
/// use nncell_geom::Point;
/// let pts = (0..40)
///     .map(|i| Point::new(vec![(i as f64 + 0.5) / 40.0, ((i * 7 % 40) as f64 + 0.5) / 40.0]))
///     .collect();
/// let mut index = NnCellIndex::build(
///     pts,
///     BuildConfig::builder().strategy(Strategy::Sphere).build(),
/// )
/// .unwrap();
/// let mut cells = NnCells::build(&index);
/// let id = index.insert(Point::new(vec![0.33, 0.66])).unwrap();
/// cells.insert(&index, id);
/// assert_eq!(cells.nn(&index, &[0.33, 0.66]).unwrap().id, id);
/// ```
pub struct NnCells<M: Metric = Euclidean> {
    vlp: VoronoiLp<M>,
    /// Row-major coordinates of every index slot (`d` per slot), gathered
    /// from the index's leaves once by [`Self::build`] and appended to by
    /// [`Self::insert`]: the cell LPs read rivals' rows by the thousand,
    /// and the serving index keeps no row copy. A removed point's row
    /// stays (the cells read only live ids' rows); a slot that was
    /// already dead when gathered holds zeros.
    rows: Vec<f64>,
    /// One slot per index point id; removed points keep an empty slot.
    cells: Vec<CellApprox>,
    tree: XTree,
    stats: BuildStats,
}

impl<M: Metric> NnCells<M> {
    /// Approximates the cell of every live point of `index`. Strategy,
    /// constraint pool, solver, decomposition, sphere radius, LP budget,
    /// worker threads and seed come from [`NnCellIndex::config`].
    ///
    /// Cells are independent given the (read-only) point tree, so the LPs
    /// fan out across `threads` workers; the finished pieces are packed
    /// into the cell tree by one STR bulk load. Infallible: LP trouble
    /// degrades to the data-space clamp, which keeps every approximation a
    /// superset (Lemma 1).
    ///
    /// # Panics
    /// If the configured decomposition budget exceeds the piece-id space.
    pub fn build(index: &NnCellIndex<M>) -> Self {
        let cfg = index.config();
        assert!(
            cfg.decompose_pieces.unwrap_or(1) <= MAX_PIECES,
            "decomposition budget exceeds {MAX_PIECES}"
        );
        let start = Instant::now();
        let tree_cfg = TreeConfig::xtree(index.dim()).with_block_size(cfg.block_size);
        let mut this = Self {
            vlp: VoronoiLp::new(index.metric().clone(), index.space().clone(), cfg.solver)
                .with_budget(cfg.lp_budget),
            rows: Vec::with_capacity(index.slots() * index.dim()),
            cells: vec![CellApprox::default(); index.slots()],
            tree: XTree::with_config(tree_cfg.clone()),
            stats: BuildStats::default(),
        };
        this.gather_rows(index);
        let live: Vec<usize> = (0..index.slots()).filter(|&id| index.is_live(id)).collect();
        let threads = cfg.threads.clamp(1, live.len().max(1));
        let chunk = live.len().div_ceil(threads).max(1);
        let shared = &this;
        let batches: Vec<(Vec<CellComputation>, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = live
                .chunks(chunk)
                .map(|ids| {
                    s.spawn(move || {
                        let batch_start = Instant::now();
                        let part: Vec<CellComputation> = ids
                            .iter()
                            .map(|&id| shared.compute_cell_pieces(index, id))
                            .collect();
                        (part, elapsed_nanos(batch_start))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("cell worker panicked"))
                .collect()
        });
        // STR bulk load for the cell tree: per-piece inserts into an X-tree
        // of heavily overlapping high-d cell MBRs degrade super-linearly
        // (supernodes grow, and every insert walks them). Packing the
        // finished pieces once is O(N log N).
        let mut items: Vec<(Mbr, u64)> = Vec::with_capacity(live.len());
        let mut ids = live.iter();
        for (part, batch_nanos) in batches {
            record_batch(&mut this.stats.profile, batch_nanos);
            for (pieces, lp, candidates, timings) in part {
                let id = *ids.next().expect("one computation per live id");
                this.account(lp, candidates, timings);
                debug_assert!(pieces.len() <= MAX_PIECES);
                for (k, mbr) in pieces.iter().enumerate() {
                    items.push((mbr.clone(), piece_key(id, k)));
                }
                this.cells[id] = CellApprox { pieces };
            }
        }
        let load_start = Instant::now();
        if !items.is_empty() {
            this.tree = XTree::bulk_load(tree_cfg, items, STR_FILL);
        }
        add_phase(&mut this.stats.profile.bulk_load, elapsed_nanos(load_start));
        this.stats.seconds = start.elapsed().as_secs_f64();
        this
    }

    // ------------------------------------------------------------------
    // accessors
    // ------------------------------------------------------------------

    /// The stored approximation of point `id`'s NN-cell (`None` for a
    /// removed or unknown id).
    pub fn cell(&self, id: usize) -> Option<&CellApprox> {
        self.cells.get(id).filter(|c| !c.pieces.is_empty())
    }

    /// Every slot's approximation, indexed by point id; removed points have
    /// no pieces (and so add nothing to the volume-based quality metrics).
    pub fn cells(&self) -> &[CellApprox] {
        &self.cells
    }

    /// Total pieces stored in the cell tree.
    pub fn total_pieces(&self) -> usize {
        self.cells.iter().map(|c| c.pieces.len()).sum()
    }

    /// Construction counters: LP work, candidates, refreshes and the phase
    /// profile, accumulated over the build and every later update.
    pub fn build_stats(&self) -> &BuildStats {
        &self.stats
    }

    /// Cost counters of the cell X-tree (what [`Self::nn`] pays).
    pub fn cell_tree_stats(&self) -> IoStats {
        self.tree.stats()
    }

    /// Total simulated pages occupied by the cell X-tree.
    pub fn cell_tree_pages(&self) -> u64 {
        self.tree.total_pages()
    }

    /// Resets the cell tree's cost counters.
    pub fn reset_stats(&self) {
        self.tree.reset_stats();
    }

    /// Enables a simulated LRU page cache of `pages` pages on the cell tree
    /// (0 disables).
    pub fn enable_cache(&self, pages: usize) {
        self.tree.enable_cache(pages);
    }

    /// The cell X-tree (read-only view for the quality metrics).
    pub(crate) fn tree(&self) -> &XTree {
        &self.tree
    }

    // ------------------------------------------------------------------
    // the paper's query
    // ------------------------------------------------------------------

    /// The paper's nearest-neighbor query: a point query on the cell tree
    /// returns every cell whose approximation contains `q`, and the nearest
    /// of their points wins, ties broken by the lower id — the answer of a
    /// linear scan, distance bits included.
    ///
    /// Cells are clipped to the data space, so a query outside it (or one
    /// that slips between EPS-closed boxes numerically and finds no cell)
    /// is answered by scanning the live points. `None` for an empty index
    /// or a malformed query (wrong dimensionality, NaN or ∞).
    pub fn nn(&self, index: &NnCellIndex<M>, q: &[f64]) -> Option<QueryResult> {
        if q.len() != index.dim() || q.iter().any(|c| !c.is_finite()) {
            return None;
        }
        let mut candidates: Vec<usize> = if index.space().contains(q) {
            self.tree
                .point_query(q)
                .into_iter()
                .map(|h| (h >> PIECE_BITS) as usize)
                .filter(|&id| index.is_live(id))
                .collect()
        } else {
            Vec::new()
        };
        if candidates.is_empty() {
            candidates = (0..self.cells.len())
                .filter(|&id| index.is_live(id))
                .collect();
        }
        // Ascending ids with a strict `<` keep the lowest id on a tie.
        candidates.sort_unstable();
        candidates.dedup();
        let metric = index.metric();
        let mut best: Option<(usize, f64)> = None;
        for id in candidates {
            let d2 = metric.dist_sq(q, self.point(id));
            if best.is_none_or(|(_, b)| d2 < b) {
                best = Some((id, d2));
            }
        }
        best.map(|(id, d2)| QueryResult {
            id,
            dist: d2.sqrt(),
        })
    }

    // ------------------------------------------------------------------
    // integrity
    // ------------------------------------------------------------------

    /// Checks the structural invariants of every live cell approximation:
    /// each must have at least one piece, every piece must be finite, of the
    /// right dimensionality, and overlap the data space, and at least one
    /// piece must contain the generating point (the point lies in its own
    /// cell, and the pieces cover the cell — Lemma 2's covering property).
    ///
    /// A cell that fails any of these could cause a false dismissal in
    /// [`Self::nn`], which is exactly what the NN-cell guarantee forbids.
    /// [`Self::repair`] recomputes offending cells from the stored points.
    pub fn verify_integrity(&self, index: &NnCellIndex<M>) -> IntegrityReport {
        const TOL: f64 = 1e-9;
        let d = index.dim();
        let space = index.space();
        let mut report = IntegrityReport::default();
        for (id, p) in self.rows.chunks_exact(d).enumerate() {
            if !index.is_live(id) {
                continue;
            }
            report.checked_cells += 1;
            let pieces = self.cells.get(id).map_or(&[][..], |c| &c.pieces);
            let structurally_sound = !pieces.is_empty()
                && pieces.iter().all(|m| {
                    m.dim() == d
                        && (0..d).all(|i| {
                            m.lo()[i].is_finite()
                                && m.hi()[i].is_finite()
                                // Overlaps the data space (cells are clipped
                                // to it, so a disjoint piece is garbage).
                                && m.lo()[i] <= space.hi(i) + TOL
                                && m.hi()[i] >= space.lo(i) - TOL
                        })
                });
            let covers_point = structurally_sound
                && pieces
                    .iter()
                    .any(|m| (0..d).all(|i| p[i] >= m.lo()[i] - TOL && p[i] <= m.hi()[i] + TOL));
            if !covers_point {
                report.bad_cells.push(id);
            }
        }
        report
    }

    /// Recomputes every cell [`Self::verify_integrity`] flags, restoring the
    /// superset invariant from the stored points. Returns the number of
    /// cells repaired.
    pub fn repair(&mut self, index: &NnCellIndex<M>) -> usize {
        let bad = self.verify_integrity(index).bad_cells;
        for &id in &bad {
            self.refresh_cell(index, id);
        }
        bad.len()
    }

    // ------------------------------------------------------------------
    // dynamic maintenance (§3.5)
    // ------------------------------------------------------------------

    /// Mirrors [`NnCellIndex::insert`], which returned `id`: computes the
    /// new point's cell and (when [`nncell_core::BuildConfig::refine_on_insert`]
    /// is set) re-tightens the neighbor cells the new bisector cuts.
    /// Exactness holds either way: existing approximations stay supersets
    /// of their (shrunken) true cells.
    pub fn insert(&mut self, index: &NnCellIndex<M>, id: usize) {
        debug_assert!(index.is_live(id), "insert into the index first");
        if self.cells.len() <= id {
            self.cells.resize_with(id + 1, CellApprox::default);
        }
        self.gather_rows(index);
        self.refresh_cell(index, id);
        if !index.config().refine_on_insert || index.len() < 2 {
            return;
        }
        // The cells that must shrink are those the new point's bisectors
        // cut; all of them lie within twice the new point's NN distance
        // sphere (conservative, and refinement is a quality matter only).
        let q = self.point(id);
        let Some(nn) = index
            .point_tree()
            .knn_best_first(q, 2)
            .into_iter()
            .find(|n| n.id != id as u64)
        else {
            return;
        };
        let mut affected: Vec<usize> = self
            .tree
            .sphere_query(q, 2.0 * nn.dist)
            .into_iter()
            .map(|h| (h >> PIECE_BITS) as usize)
            .filter(|&pid| pid != id && index.is_live(pid))
            .collect();
        affected.sort_unstable();
        affected.dedup();
        // Incremental re-solve: of the sphere-prefilter candidates, only
        // cells whose stored approximation the new bisector actually cuts
        // are dirty. The cut test is exact and O(d) per piece — the
        // difference of squared distances is linear in x, so its minimum
        // over a box is attained corner-wise — and a clean (uncut)
        // approximation cannot change under a re-solve: the polytope is
        // inside the box, so the new constraint is inactive over all of it.
        for pid in affected {
            let owner = self.point(pid);
            let cut = self.cells[pid]
                .pieces
                .iter()
                .any(|m| bisector_cuts_mbr(index.metric(), self.point(id), owner, m));
            if cut {
                self.stats.insert_refreshes += 1;
                self.refresh_cell(index, pid);
            } else {
                self.stats.insert_refreshes_skipped += 1;
            }
        }
    }

    /// Mirrors [`NnCellIndex::remove`] of `id`: drops its cell and
    /// recomputes the cells that bordered it — when a rival disappears,
    /// neighbor cells *grow*, so skipping this step would break exactness
    /// (unlike on insert). Every cell that could gain region intersects the
    /// removed cell's approximation (Voronoi neighbors share a face;
    /// approximations are supersets).
    pub fn remove(&mut self, index: &NnCellIndex<M>, id: usize) {
        debug_assert!(!index.is_live(id), "remove from the index first");
        let Some(old) = self.cells.get_mut(id).map(std::mem::take) else {
            return;
        };
        self.unstore(id, &old.pieces);
        let Some(union) = Mbr::union_all(old.pieces.iter()) else {
            return;
        };
        let mut affected: Vec<usize> = self
            .tree
            .window_query(&union)
            .into_iter()
            .map(|h| (h >> PIECE_BITS) as usize)
            .filter(|&pid| index.is_live(pid))
            .collect();
        affected.sort_unstable();
        affected.dedup();
        for pid in affected {
            self.refresh_cell(index, pid);
        }
    }

    // ------------------------------------------------------------------
    // internals
    // ------------------------------------------------------------------

    /// Row `id` of the cells' own copy of the points.
    #[inline]
    fn point(&self, id: usize) -> &[f64] {
        let d = self.vlp.space().dim();
        &self.rows[id * d..(id + 1) * d]
    }

    /// Appends the row of every index slot the cells have not seen yet,
    /// gathered from its leaf (zeros for a slot already dead).
    fn gather_rows(&mut self, index: &NnCellIndex<M>) {
        let d = index.dim();
        let mut row = Vec::with_capacity(d);
        for id in self.rows.len() / d..index.slots() {
            if index.point_tree().gather(id as u64, &mut row) {
                self.rows.extend_from_slice(&row);
            } else {
                self.rows.resize(self.rows.len() + d, 0.0);
            }
        }
    }

    /// Folds one cell computation into the lifetime counters.
    fn account(&mut self, lp: CellLpStats, candidates: usize, timings: CellTimings) {
        self.stats.lp.merge(lp);
        self.stats.candidates += candidates;
        self.stats.pool_fallback_cells += timings.pool_fellback as usize;
        absorb_cell(&mut self.stats.profile, timings);
    }

    /// Recomputes `id`'s cell and replaces its pieces in the cell tree.
    fn refresh_cell(&mut self, index: &NnCellIndex<M>, id: usize) {
        let (pieces, lp, candidates, timings) = self.compute_cell_pieces(index, id);
        self.account(lp, candidates, timings);
        let old = std::mem::take(&mut self.cells[id]);
        self.unstore(id, &old.pieces);
        debug_assert!(pieces.len() <= MAX_PIECES);
        for (k, mbr) in pieces.iter().enumerate() {
            self.tree.insert(mbr.clone(), piece_key(id, k));
        }
        self.cells[id] = CellApprox { pieces };
    }

    /// Deletes `id`'s `pieces` from the cell tree.
    fn unstore(&mut self, id: usize, pieces: &[Mbr]) {
        for (k, mbr) in pieces.iter().enumerate() {
            let removed = self.tree.delete(mbr, piece_key(id, k));
            debug_assert!(removed, "cell tree out of sync");
        }
    }

    /// Computes the (possibly decomposed) approximation of `id`'s cell.
    /// Infallible: LP breakdowns degrade to the data-space clamp inside
    /// [`VoronoiLp`], which keeps the approximation a superset (Lemma 1).
    ///
    /// Under [`ConstraintPool::ApproxKnn`] the first attempt runs the
    /// `2·d` LPs against the point's approximate k-nearest neighbors only
    /// (probed from the point tree); a degenerate outcome — infeasible or
    /// clamped, the "pool too tight" signal — falls back to the exhaustive
    /// strategy gathering below and is counted in
    /// [`BuildStats::pool_fallback_cells`].
    fn compute_cell_pieces(&self, index: &NnCellIndex<M>, id: usize) -> CellComputation {
        let cfg = index.config();
        let tree = index.point_tree();
        let p = self.point(id);
        let d = index.dim();
        let seed = cfg.seed ^ ((id as u64).wrapping_mul(0x9e3779b97f4a7c15));
        let mut stats = CellLpStats::default();
        let mut timings = CellTimings::default();

        if let ConstraintPool::ApproxKnn { .. } = cfg.pool {
            let k = cfg.effective_pool_k(d);
            if index.len() > k + 1 {
                let phase_start = Instant::now();
                // k+1 because the probe finds the point itself first.
                let (near, _proven) = tree.approx_knn(p, k + 1, pool_page_budget(k));
                let rivals: Vec<usize> = near
                    .iter()
                    .map(|n| n.id as usize)
                    .filter(|&j| j != id && index.is_live(j))
                    .collect();
                let cons = self.vlp.bisectors(p, rivals.iter().map(|&j| self.point(j)));
                let n_cands = cons.len();
                timings.constraint_ns = elapsed_nanos(phase_start);

                let phase_start = Instant::now();
                let (solve, degenerate) = self.vlp.extents_pooled(&cons, p, cfg.solver, seed);
                stats.merge(solve.stats);
                timings.lp_ns = elapsed_nanos(phase_start);
                if !degenerate {
                    let pieces =
                        self.finish_pieces(index, &cons, &solve, seed, &mut stats, &mut timings);
                    return (pieces, stats, n_cands, timings);
                }
                // Pool too tight: keep the failed attempt's LP accounting
                // and redo the cell with exhaustive gathering.
                timings.pool_fellback = true;
            }
        }

        let phase_start = Instant::now();
        let cons = if cfg.strategy == Strategy::CorrectPruned && index.len() > 4 * d + 1 {
            // Exactness-preserving two-step prune (see nncell-lp docs):
            // 1. rough superset MBR from the 4·d nearest rivals;
            // 2. only rivals within twice the rough box's max corner
            //    distance can have a bisector cutting that box, so a tree
            //    sphere query bounds the candidate set without scanning N;
            // 3. the per-bisector prune drops the rest.
            let near = nearest_rivals(p, id, tree, 4 * d);
            let near_cons = self.vlp.bisectors(p, near.iter().map(|&j| self.point(j)));
            // A data point is strictly inside its own cell, so the LPs are
            // feasible; a numerically contradictory outcome falls back to
            // the warm-started solve (still a superset).
            let rough = self
                .vlp
                .extents(&near_cons, seed ^ ROUGH_SALT)
                .unwrap_or_else(|| self.vlp.extents_from(&near_cons, p, seed ^ ROUGH_SALT));
            stats.merge(rough.stats);
            // Max metric distance from p to the rough box (corner-wise),
            // then converted conservatively to a Euclidean tree-query radius
            // via the smallest metric weight.
            let mut max_d2 = 0.0;
            let mut w_min = f64::INFINITY;
            for i in 0..d {
                let dd = (p[i] - rough.mbr.lo()[i])
                    .abs()
                    .max((p[i] - rough.mbr.hi()[i]).abs());
                let w = self.vlp.metric().weight(i);
                max_d2 += w * dd * dd;
                w_min = w_min.min(w);
            }
            let r_cut = 2.0 * max_d2.sqrt() / w_min.sqrt();
            let mut rivals: Vec<usize> = tree
                .sphere_query(p, r_cut)
                .into_iter()
                .map(|x| x as usize)
                .filter(|&j| j != id && index.is_live(j))
                .collect();
            rivals.sort_unstable();
            rivals.dedup();
            let all = self.vlp.bisectors(p, rivals.iter().map(|&j| self.point(j)));
            VoronoiLp::<M>::prune_constraints(all, &rough.mbr)
        } else {
            let rivals = gather_rival_ids(cfg, id, &self.rows, tree);
            self.vlp.bisectors(p, rivals.iter().map(|&j| self.point(j)))
        };
        let n_cands = cons.len();
        timings.constraint_ns += elapsed_nanos(phase_start);

        // The Best–Ritter active-set backend wants a feasible start; the
        // data point is one (it lies strictly inside its own cell).
        let phase_start = Instant::now();
        let solve = if cfg.solver == SolverKind::ActiveSet {
            self.vlp.extents_from(&cons, p, seed)
        } else {
            // A data point's cell cannot be empty; `None` only on numerical
            // contradiction, where the warm-started path still yields a
            // valid superset.
            self.vlp
                .extents(&cons, seed)
                .unwrap_or_else(|| self.vlp.extents_from(&cons, p, seed))
        };
        stats.merge(solve.stats);
        timings.lp_ns += elapsed_nanos(phase_start);

        let pieces = self.finish_pieces(index, &cons, &solve, seed, &mut stats, &mut timings);
        (pieces, stats, n_cands, timings)
    }

    /// Shared tail of both gathering paths: optional decomposition of a
    /// solved cell into its piece MBRs.
    fn finish_pieces(
        &self,
        index: &NnCellIndex<M>,
        cons: &[Halfspace],
        solve: &CellSolve,
        seed: u64,
        stats: &mut CellLpStats,
        timings: &mut CellTimings,
    ) -> Vec<Mbr> {
        match index.config().decompose_pieces {
            Some(k) if k > 1 => {
                let phase_start = Instant::now();
                let (pieces, dstats) = decompose_cell(&self.vlp, cons, solve, k, seed);
                stats.merge(dstats);
                timings.decomp_ns += elapsed_nanos(phase_start);
                timings.decomposed = true;
                pieces
            }
            _ => vec![solve.mbr.clone()],
        }
    }
}

/// The cell-tree item id of piece `k` of point `id`'s cell.
fn piece_key(id: usize, k: usize) -> u64 {
    ((id as u64) << PIECE_BITS) | k as u64
}

/// Elapsed nanoseconds since `start`, saturating into `u64` (≈ 584 years).
fn elapsed_nanos(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Whether the bisector between a newly inserted point `q` and a cell
/// owner `p` can cut the box `mbr` — i.e. some x in the box is at least as
/// close to `q` as to `p`.
///
/// The (weighted) difference of squared distances
/// `f(x) = Σᵢ wᵢ·[(xᵢ−qᵢ)² − (xᵢ−pᵢ)²] = Σᵢ wᵢ·[2xᵢ(pᵢ−qᵢ) + qᵢ²−pᵢ²]`
/// is *linear* in x, so its minimum over an axis-aligned box is attained
/// corner-wise per dimension: O(d), exact, no LP. If that minimum is
/// positive, the whole box — and therefore the cell polytope inside it —
/// lies strictly on `p`'s side of the bisector, so re-solving the cell
/// with `q`'s constraint added cannot change it (the constraint is
/// inactive over the entire feasible region). The epsilon keeps the test
/// conservative: near-tangent boxes refresh rather than skip.
fn bisector_cuts_mbr<M: Metric>(metric: &M, q: &[f64], p: &[f64], mbr: &Mbr) -> bool {
    let mut min_f = 0.0;
    for i in 0..q.len() {
        let w = metric.weight(i);
        let a = 2.0 * w * (p[i] - q[i]);
        let x = if a > 0.0 { mbr.lo()[i] } else { mbr.hi()[i] };
        min_f += a * x + w * (q[i] * q[i] - p[i] * p[i]);
    }
    min_f <= 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;
    use nncell_core::{linear_scan_nn, BuildConfig};
    use nncell_geom::Point;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

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

    fn build(pts: &[Point], cfg: BuildConfig) -> (NnCellIndex, NnCells) {
        let idx = NnCellIndex::build(pts.to_vec(), cfg).unwrap();
        let cells = NnCells::build(&idx);
        (idx, cells)
    }

    /// The cell query agrees with a scan of `live`, distance bits included.
    fn assert_exact(idx: &NnCellIndex, cells: &NnCells, live: &[Point], qs: &[Vec<f64>]) {
        for q in qs {
            let got = cells.nn(idx, q).expect("non-empty");
            let want = linear_scan_nn(live, q).unwrap();
            assert_eq!(got.dist.to_bits(), want.dist.to_bits(), "q={q:?}");
            assert_eq!(
                idx.row(got.id).unwrap(),
                live[want.id].as_slice(),
                "q={q:?}"
            );
        }
    }

    fn assert_same_pieces(a: &NnCells, b: &NnCells, n: usize, tol: f64, what: &str) {
        for id in 0..n {
            let (pa, pb) = (&a.cell(id).unwrap().pieces, &b.cell(id).unwrap().pieces);
            assert_eq!(pa.len(), pb.len(), "{what}: cell {id} piece count");
            for (ma, mb) in pa.iter().zip(pb) {
                for k in 0..ma.dim() {
                    assert!(
                        (ma.lo()[k] - mb.lo()[k]).abs() <= tol
                            && (ma.hi()[k] - mb.hi()[k]).abs() <= tol,
                        "{what}: cell {id} {ma:?} != {mb:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_strategy_is_exact_lemma2() {
        let pts = uniform(120, 3, 1);
        let qs = queries(60, 3, 2);
        for strategy in [
            Strategy::Correct,
            Strategy::CorrectPruned,
            Strategy::Point,
            Strategy::Sphere,
            Strategy::NnDirection,
        ] {
            let (idx, cells) = build(&pts, BuildConfig::builder().strategy(strategy).build());
            assert_exact(&idx, &cells, &pts, &qs);
        }
    }

    #[test]
    fn decomposition_preserves_exactness() {
        let pts = uniform(100, 4, 3);
        let qs = queries(50, 4, 4);
        for pieces in [2usize, 4, 8] {
            let cfg = BuildConfig::builder()
                .strategy(Strategy::CorrectPruned)
                .decompose_pieces(pieces)
                .build();
            let (idx, cells) = build(&pts, cfg);
            assert_exact(&idx, &cells, &pts, &qs);
        }
    }

    #[test]
    fn correct_pruned_matches_correct_mbrs_lemma1_tightness() {
        let pts = uniform(80, 3, 5);
        let (_, a) = build(
            &pts,
            BuildConfig::builder().strategy(Strategy::Correct).build(),
        );
        let (_, b) = build(
            &pts,
            BuildConfig::builder()
                .strategy(Strategy::CorrectPruned)
                .build(),
        );
        assert_same_pieces(&a, &b, pts.len(), 1e-7, "pruned vs correct");
    }

    #[test]
    fn heuristic_cells_contain_correct_cells_lemma1() {
        let pts = uniform(90, 2, 6);
        let (_, correct) = build(
            &pts,
            BuildConfig::builder().strategy(Strategy::Correct).build(),
        );
        for strategy in [Strategy::Point, Strategy::Sphere, Strategy::NnDirection] {
            let (_, cells) = build(&pts, BuildConfig::builder().strategy(strategy).build());
            for id in 0..pts.len() {
                let exact = &correct.cell(id).unwrap().pieces[0];
                let appr = &cells.cell(id).unwrap().pieces[0];
                assert!(
                    appr.contains_mbr(exact),
                    "{strategy:?}: cell {id} approx {appr:?} !⊇ exact {exact:?}"
                );
            }
        }
    }

    #[test]
    fn inserts_stay_exact_with_and_without_refinement() {
        for (strategy, refine) in [(Strategy::Sphere, true), (Strategy::NnDirection, false)] {
            let mut pts = uniform(50, 2, 10);
            let cfg = BuildConfig::builder()
                .strategy(strategy)
                .refine_on_insert(refine)
                .build();
            let (mut idx, mut cells) = build(&pts, cfg);
            for p in uniform(25, 2, 11) {
                let id = idx.insert(p.clone()).unwrap();
                cells.insert(&idx, id);
                pts.push(p);
            }
            assert_exact(&idx, &cells, &pts, &queries(40, 2, 12));
        }
    }

    #[test]
    fn removals_recompute_neighbors_and_stay_exact() {
        let pts = uniform(80, 2, 13);
        let cfg = BuildConfig::builder()
            .strategy(Strategy::CorrectPruned)
            .build();
        let (mut idx, mut cells) = build(&pts, cfg);
        let removed = [3usize, 17, 42, 55, 7, 0];
        for id in removed {
            assert!(idx.remove(id));
            cells.remove(&idx, id);
            assert!(cells.cell(id).is_none());
        }
        let live: Vec<Point> = (0..pts.len())
            .filter(|i| !removed.contains(i))
            .map(|i| pts[i].clone())
            .collect();
        assert_exact(&idx, &cells, &live, &queries(50, 2, 14));
        assert!(cells.verify_integrity(&idx).is_ok());
    }

    #[test]
    fn forced_lp_failure_build_stays_exact_via_clamp() {
        // Iteration budget 1 starves every backend on every LP, so every
        // extent terminally clamps to the data space. The cells are then the
        // fattest possible supersets — still supersets (Lemma 1), so 100
        // random queries must agree with the linear scan exactly.
        let pts = uniform(80, 3, 47);
        let cfg = BuildConfig::builder()
            .strategy(Strategy::Sphere)
            .lp_max_iterations(1)
            .build();
        let (idx, cells) = build(&pts, cfg);
        let st = cells.build_stats();
        assert!(
            st.lp.clamped_extents > 0,
            "budget 1 must clamp: {:?}",
            st.lp
        );
        assert_exact(&idx, &cells, &pts, &queries(100, 3, 48));
    }

    #[test]
    fn build_stats_populated() {
        let pts = uniform(40, 2, 22);
        let (_, cells) = build(
            &pts,
            BuildConfig::builder().strategy(Strategy::Correct).build(),
        );
        let st = cells.build_stats();
        assert_eq!(st.lp.lp_calls, 40 * 4, "2d LPs per point");
        assert_eq!(st.candidates, 40 * 39);
        assert_eq!(st.profile.lp_solve.calls, 40);
        assert!(st.seconds > 0.0);
        assert_eq!(cells.total_pieces(), 40);
    }

    #[test]
    fn active_set_backend_matches_other_solvers() {
        let pts = uniform(60, 3, 29);
        let cfg = |solver| {
            BuildConfig::builder()
                .strategy(Strategy::Correct)
                .solver(solver)
                .build()
        };
        let (idx, a) = build(&pts, cfg(SolverKind::ActiveSet));
        let (_, b) = build(&pts, cfg(SolverKind::DualSimplex));
        assert_same_pieces(&a, &b, pts.len(), 1e-6, "active-set vs dual");
        assert_exact(&idx, &a, &pts, &queries(30, 3, 30));
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let pts = uniform(80, 3, 23);
        let cfg = BuildConfig::builder().strategy(Strategy::Sphere).seed(3);
        let (_, seq) = build(&pts, cfg.clone().build());
        let (idx, par) = build(&pts, cfg.threads(4).build());
        assert_same_pieces(&seq, &par, pts.len(), 0.0, "parallel build (seeded)");
        assert_eq!(par.build_stats().profile.batches, 4);
        assert_exact(&idx, &par, &pts, &queries(30, 3, 24));
    }

    #[test]
    fn grid_data_produces_tiling_cells() {
        // 4x4 exact grid: cells tile the space, zero overlap, one candidate
        // per query.
        let mut pts = Vec::new();
        for i in 0..4 {
            for j in 0..4 {
                pts.push(Point::new(vec![
                    (2 * i + 1) as f64 / 8.0,
                    (2 * j + 1) as f64 / 8.0,
                ]));
            }
        }
        let (_, cells) = build(
            &pts,
            BuildConfig::builder().strategy(Strategy::Correct).build(),
        );
        let total: f64 = cells.cells().iter().map(CellApprox::volume).sum();
        assert!((total - 1.0).abs() < 1e-6, "grid cells must tile: {total}");
        let m = crate::quality::measured_candidates(&cells, &[vec![0.3, 0.6]]);
        assert_eq!(m, 1.0, "grid point query returns exactly one cell");
    }

    #[test]
    fn pooled_build_cuts_constraint_candidates() {
        let pts = uniform(400, 4, 21);
        // The all-pairs strategy is what the pool replaces: n-1 bisector
        // candidates per cell versus ~k from the approximate-neighbor
        // probe. (NnDirection already gathers few candidates — its cost
        // is the O(n) scan per cell, which the pool also removes.)
        let cfg = BuildConfig::builder()
            .strategy(Strategy::CorrectPruned)
            .seed(3);
        let (_, ex) = build(&pts, cfg.clone().build());
        let (idx, po) = build(
            &pts,
            cfg.constraint_pool(ConstraintPool::ApproxKnn { k: 16 })
                .build(),
        );
        assert!(
            po.build_stats().candidates < ex.build_stats().candidates / 10,
            "pooled candidates {} not well below exhaustive {}",
            po.build_stats().candidates,
            ex.build_stats().candidates
        );
        // Fallbacks are the exception, not the rule, on benign data.
        assert!(
            po.build_stats().pool_fallback_cells <= pts.len() / 4,
            "{} of {} cells fell back to the exhaustive pool",
            po.build_stats().pool_fallback_cells,
            pts.len()
        );
        assert_exact(&idx, &po, &pts, &queries(20, 4, 5));
    }

    #[test]
    fn incremental_insert_skips_uncut_cells() {
        let mut pts = uniform(300, 2, 9);
        let cfg = BuildConfig::builder()
            .strategy(Strategy::NnDirection)
            .constraint_pool(ConstraintPool::ApproxKnn { k: 8 })
            .seed(4)
            .build();
        let extra = pts.split_off(280);
        let (mut idx, mut cells) = build(&pts, cfg);
        for p in extra {
            pts.push(p.clone());
            let id = idx.insert(p).unwrap();
            cells.insert(&idx, id);
        }
        let s = cells.build_stats();
        // The bisector-cut test must prune at least part of the sphere
        // prefilter's affected set; both counters see traffic.
        assert!(s.insert_refreshes > 0, "no refreshes recorded");
        assert!(
            s.insert_refreshes_skipped > 0,
            "the O(d) bisector-cut test never skipped a cell ({} refreshes)",
            s.insert_refreshes
        );
        assert_exact(&idx, &cells, &pts, &queries(20, 2, 6));
    }

    #[test]
    fn verify_detects_and_repair_fixes_a_bad_cell() {
        let pts = uniform(25, 2, 13);
        let (idx, mut cells) = build(
            &pts,
            BuildConfig::builder().strategy(Strategy::Correct).build(),
        );
        // Shrink cell 0 to a sliver far from its point: structurally
        // plausible, but no longer a covering of the cell.
        let real = std::mem::take(&mut cells.cells[0]);
        cells.unstore(0, &real.pieces);
        let forged = Mbr::new(vec![0.90, 0.90], vec![0.91, 0.91]);
        assert!(!forged.contains_point(pts[0].as_slice()));
        cells.tree.insert(forged.clone(), piece_key(0, 0));
        cells.cells[0] = CellApprox {
            pieces: vec![forged],
        };
        let report = cells.verify_integrity(&idx);
        assert_eq!(report.checked_cells, 25);
        assert_eq!(report.bad_cells, vec![0]);
        assert_eq!(cells.repair(&idx), 1);
        assert!(cells.verify_integrity(&idx).is_ok());
        assert_exact(&idx, &cells, &pts, &queries(40, 2, 14));
    }

    #[test]
    fn out_of_space_and_malformed_queries() {
        let pts = uniform(50, 2, 18);
        let (idx, cells) = build(
            &pts,
            BuildConfig::builder().strategy(Strategy::Sphere).build(),
        );
        assert_exact(&idx, &cells, &pts, &[vec![1.5, -0.2]]);
        assert!(cells.nn(&idx, &[0.5]).is_none());
        assert!(cells.nn(&idx, &[f64::NAN, 0.5]).is_none());
    }
}
