//! Constraint-selection strategies (the paper's figure 3).
//!
//! Determining a cell's MBR needs a linear program per extent; the cost is
//! driven by how many bisector constraints enter it. Each strategy picks the
//! rival points whose bisectors are used. By Lemma 1, *any* subset yields a
//! superset approximation, so every strategy preserves exact query answers.

use nncell_core::{BuildConfig, Strategy};
use nncell_index::XTree;

/// Collects the rival point ids whose bisectors constrain the cell of point
/// `id` under the configured strategy.
///
/// `tree` is the data-point X-tree (ids are slots): a point is live
/// when the tree holds it, and its live count sizes the Sphere radius
/// heuristic. `rows` is a row-major copy of the points, one row per slot
/// of the tree; only live slots' rows are read.
pub(crate) fn gather_rival_ids(
    cfg: &BuildConfig,
    id: usize,
    rows: &[f64],
    tree: &XTree,
) -> Vec<usize> {
    let d = tree.config().dim;
    let p = &rows[id * d..(id + 1) * d];
    let live = |j: usize| tree.holds(j as u64);
    let mut ids: Vec<usize> = match cfg.strategy {
        Strategy::Correct | Strategy::CorrectPruned => {
            (0..tree.slots()).filter(|&j| j != id && live(j)).collect()
        }
        Strategy::Point => tree
            .page_point_query(p)
            .into_iter()
            .map(|x| x as usize)
            .collect(),
        Strategy::Sphere => {
            let r = cfg.effective_sphere_radius(tree.len(), d);
            tree.page_sphere_query(p, r)
                .into_iter()
                .map(|x| x as usize)
                .collect()
        }
        Strategy::NnDirection => nn_direction_candidates(p, id, rows, tree),
    };
    ids.sort_unstable();
    ids.dedup();
    ids.retain(|&j| j != id && live(j));
    ids
}

/// The `4·d` NN-Direction candidates: per axis direction the nearest point
/// in that halfspace, plus (from the `8·d` nearest neighbors) the point with
/// the smallest angular deviation from that axis direction.
fn nn_direction_candidates(p: &[f64], id: usize, rows: &[f64], tree: &XTree) -> Vec<usize> {
    let d = p.len();
    let mut out = Vec::with_capacity(4 * d);
    for dim in 0..d {
        for positive in [true, false] {
            if let Some(n) = tree.nn_in_halfspace(p, dim, positive) {
                out.push(n.id as usize);
            }
        }
    }
    // Axis-deviation candidates among the 8·d nearest neighbors: for each
    // signed axis, the neighbor whose offset vector has the largest cosine
    // with that axis.
    let knn = tree.knn_best_first(p, 8 * d + 1);
    for dim in 0..d {
        for sign in [1.0f64, -1.0] {
            let mut best: Option<(usize, f64)> = None;
            for n in &knn {
                let j = n.id as usize;
                if j == id {
                    continue;
                }
                let q = &rows[j * d..(j + 1) * d];
                let len = nncell_geom::dist(p, q);
                if len <= 0.0 {
                    continue;
                }
                let cos = sign * (q[dim] - p[dim]) / len;
                if cos > 0.0 && best.is_none_or(|(_, c)| cos > c) {
                    best = Some((j, cos));
                }
            }
            if let Some((j, _)) = best {
                out.push(j);
            }
        }
    }
    out
}

/// The `4·d + 1` nearest rivals, used to seed the CorrectPruned rough MBR.
pub(crate) fn nearest_rivals(p: &[f64], id: usize, tree: &XTree, k: usize) -> Vec<usize> {
    tree.knn_best_first(p, k + 1)
        .into_iter()
        .map(|n| n.id as usize)
        .filter(|&j| j != id)
        .take(k)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// `n` uniform points in `d` dimensions as row-major rows, all live,
    /// in an insert-built point tree.
    fn setup(n: usize, d: usize, seed: u64) -> (Vec<f64>, XTree) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let rows: Vec<f64> = (0..n * d).map(|_| rng.gen_range(0.0..1.0)).collect();
        let mut tree = XTree::for_points(d);
        for (i, p) in rows.chunks_exact(d).enumerate() {
            tree.insert_point(p, i as u64);
        }
        (rows, tree)
    }

    #[test]
    fn correct_returns_everyone_else() {
        let (points, tree) = setup(50, 3, 1);
        let cfg = BuildConfig::builder().strategy(Strategy::Correct).build();
        let ids = gather_rival_ids(&cfg, 7, &points, &tree);
        assert_eq!(ids.len(), 49);
        assert!(!ids.contains(&7));
    }

    #[test]
    fn correct_skips_dead_points() {
        let (points, mut tree) = setup(20, 2, 2);
        for id in [3, 4] {
            let p = &points[id * 2..(id + 1) * 2];
            assert!(tree.delete(&nncell_geom::Mbr::from_point(p), id as u64));
        }
        let cfg = BuildConfig::builder().strategy(Strategy::Correct).build();
        let ids = gather_rival_ids(&cfg, 0, &points, &tree);
        assert_eq!(ids.len(), 17);
        assert!(!ids.contains(&3) && !ids.contains(&4));
    }

    #[test]
    fn point_strategy_returns_page_mates() {
        let (points, tree) = setup(200, 4, 3);
        let cfg = BuildConfig::builder().strategy(Strategy::Point).build();
        let ids = gather_rival_ids(&cfg, 11, &points, &tree);
        // At minimum the other points of 11's own leaf page qualify; the set
        // must never contain the point itself.
        assert!(!ids.contains(&11));
        assert!(!ids.is_empty(), "a 200-point page region holds neighbors");
    }

    #[test]
    fn sphere_candidates_grow_with_radius() {
        let (points, tree) = setup(300, 3, 4);
        let small = BuildConfig::builder()
            .strategy(Strategy::Sphere)
            .sphere_radius(0.05)
            .build();
        let large = BuildConfig::builder()
            .strategy(Strategy::Sphere)
            .sphere_radius(0.5)
            .build();
        let a = gather_rival_ids(&small, 5, &points, &tree).len();
        let b = gather_rival_ids(&large, 5, &points, &tree).len();
        assert!(a <= b, "sphere candidates must be monotone in radius");
        assert!(b > 0);
    }

    #[test]
    fn nn_direction_is_small_and_directional() {
        let d = 4;
        let (points, tree) = setup(400, d, 5);
        let cfg = BuildConfig::builder()
            .strategy(Strategy::NnDirection)
            .build();
        let ids = gather_rival_ids(&cfg, 42, &points, &tree);
        assert!(!ids.is_empty());
        assert!(
            ids.len() <= 4 * d,
            "NN-Direction is a constant-size set: {} > {}",
            ids.len(),
            4 * d
        );
        // Every axis direction with a point on that side is represented.
        let row = |j: usize| &points[j * d..(j + 1) * d];
        let p = row(42);
        for dim in 0..d {
            for sign in [1.0f64, -1.0] {
                let side_exists = points
                    .chunks_exact(d)
                    .enumerate()
                    .any(|(j, q)| j != 42 && sign * (q[dim] - p[dim]) > 0.0);
                if side_exists {
                    assert!(
                        ids.iter().any(|&j| sign * (row(j)[dim] - p[dim]) > 0.0),
                        "no candidate on side ({dim}, {sign})"
                    );
                }
            }
        }
    }

    #[test]
    fn nearest_rivals_excludes_self_and_is_sorted_by_distance() {
        let (points, tree) = setup(100, 3, 6);
        let row = |j: usize| &points[j * 3..(j + 1) * 3];
        let ids = nearest_rivals(row(10), 10, &tree, 12);
        assert_eq!(ids.len(), 12);
        assert!(!ids.contains(&10));
        let d0 = nncell_geom::dist(row(10), row(ids[0]));
        let dl = nncell_geom::dist(row(10), row(ids[11]));
        assert!(d0 <= dl);
    }
}
