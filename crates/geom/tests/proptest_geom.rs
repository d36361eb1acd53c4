//! Property-based tests of the geometric primitives.

use nncell_geom::{dist, dist_sq, min_dist_sq, Halfspace, Mbr, Point};
use proptest::prelude::*;

fn coord() -> impl Strategy<Value = f64> {
    (0..=1000u32).prop_map(|v| v as f64 / 1000.0)
}

fn point(d: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(coord(), d)
}

fn mbr(d: usize) -> impl Strategy<Value = Mbr> {
    (point(d), point(d)).prop_map(|(a, b)| {
        let lo: Vec<f64> = a.iter().zip(b.iter()).map(|(x, y)| x.min(*y)).collect();
        let hi: Vec<f64> = a.iter().zip(b.iter()).map(|(x, y)| x.max(*y)).collect();
        Mbr::new(lo, hi)
    })
}

/// The three-way MINDIST formula the branch-free [`min_dist_sq`] replaced,
/// kept as the bit-for-bit reference.
fn branchy_min_dist_sq(lo: &[f64], hi: &[f64], p: &[f64]) -> f64 {
    let mut s = 0.0;
    for i in 0..p.len() {
        let d = if p[i] < lo[i] {
            lo[i] - p[i]
        } else if p[i] > hi[i] {
            p[i] - hi[i]
        } else {
            0.0
        };
        s += d * d;
    }
    s
}

/// One dimension of a MINDIST case, `(lo, hi, p)`: boxes of random extent
/// or degenerate (`lo == hi`), signed-zero faces, and a query coordinate
/// on a face, inside, at ±0.0, or far outside.
fn mindist_dim() -> impl Strategy<Value = (f64, f64, f64)> {
    (0..=2000u32, 0..=1000u32, 0..8u32, 0..8u32, 0..=4000u32).prop_map(
        |(a, w, box_kind, p_kind, v)| {
            let lo = (a as f64 - 1000.0) / 500.0;
            let (lo, hi) = match box_kind {
                0 => (lo, lo),
                1 => (-0.0, 0.0),
                2 => (-0.0, -0.0),
                3 => (0.0, 0.0),
                _ => (lo, lo + w as f64 / 1000.0),
            };
            let p = match p_kind {
                0 => lo,
                1 => hi,
                2 => -0.0,
                3 => 0.0,
                4 => 1e300,
                5 => -1e300,
                _ => (v as f64 - 2000.0) / 1000.0,
            };
            (lo, hi, p)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn branch_free_mindist_is_bit_identical_to_the_branchy_formula(
        dims in prop::collection::vec(mindist_dim(), 1..13),
    ) {
        let lo: Vec<f64> = dims.iter().map(|d| d.0).collect();
        let hi: Vec<f64> = dims.iter().map(|d| d.1).collect();
        let p: Vec<f64> = dims.iter().map(|d| d.2).collect();
        let want = branchy_min_dist_sq(&lo, &hi, &p).to_bits();
        prop_assert_eq!(min_dist_sq(&lo, &hi, &p).to_bits(), want);
        prop_assert_eq!(Mbr::new(lo, hi).min_dist_sq(&p).to_bits(), want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn union_contains_both(a in mbr(4), b in mbr(4)) {
        let u = a.union(&b);
        prop_assert!(u.contains_mbr(&a));
        prop_assert!(u.contains_mbr(&b));
        prop_assert!(u.volume() + 1e-12 >= a.volume().max(b.volume()));
    }

    #[test]
    fn overlap_bounded_by_min_volume(a in mbr(3), b in mbr(3)) {
        let ov = a.overlap_volume(&b);
        prop_assert!(ov >= 0.0);
        prop_assert!(ov <= a.volume().min(b.volume()) + 1e-12);
        // symmetry
        prop_assert!((ov - b.overlap_volume(&a)).abs() < 1e-12);
    }

    #[test]
    fn intersection_consistent_with_overlap(a in mbr(3), b in mbr(3)) {
        match a.intersection(&b) {
            Some(i) => {
                prop_assert!((i.volume() - a.overlap_volume(&b)).abs() < 1e-12);
                prop_assert!(a.contains_mbr(&i));
                prop_assert!(b.contains_mbr(&i));
            }
            None => prop_assert_eq!(a.overlap_volume(&b), 0.0),
        }
    }

    #[test]
    fn distance_ordering(m in mbr(4), q in point(4)) {
        let mind = m.min_dist_sq(&q);
        let minmax = m.minmax_dist_sq(&q);
        let maxd = m.max_dist_sq(&q);
        prop_assert!(mind >= 0.0);
        prop_assert!(mind <= minmax + 1e-12);
        prop_assert!(minmax <= maxd + 1e-12);
        if m.contains_point(&q) {
            prop_assert!(mind <= 1e-12);
        }
    }

    #[test]
    fn mindist_is_real_min_to_corner_sample(m in mbr(2), q in point(2)) {
        // Sample the box densely; every sample's distance bounds MINDIST
        // from above.
        let mind = m.min_dist_sq(&q);
        for i in 0..=10 {
            for j in 0..=10 {
                let x = m.lo()[0] + (m.hi()[0] - m.lo()[0]) * i as f64 / 10.0;
                let y = m.lo()[1] + (m.hi()[1] - m.lo()[1]) * j as f64 / 10.0;
                prop_assert!(mind <= dist_sq(&q, &[x, y]) + 1e-12);
            }
        }
    }

    #[test]
    fn from_points_is_tight(pts in prop::collection::vec(point(3), 1..20)) {
        let points: Vec<Point> = pts.iter().map(|p| Point::new(p.clone())).collect();
        let m = Mbr::from_points(&points).unwrap();
        for p in &points {
            prop_assert!(m.contains_point(p));
        }
        // Tightness: every face touches some point.
        for i in 0..3 {
            prop_assert!(points.iter().any(|p| (p[i] - m.lo()[i]).abs() < 1e-12));
            prop_assert!(points.iter().any(|p| (p[i] - m.hi()[i]).abs() < 1e-12));
        }
    }

    #[test]
    fn split_preserves_volume(m in mbr(3), t in 0.01f64..0.99) {
        let at = m.lo()[1] + (m.hi()[1] - m.lo()[1]) * t;
        if let Some((l, r)) = m.split_at(1, at) {
            prop_assert!((l.volume() + r.volume() - m.volume()).abs() < 1e-12);
            prop_assert!(m.contains_mbr(&l) && m.contains_mbr(&r));
        }
    }

    #[test]
    fn bisector_classifies_like_distances(p in point(4), q in point(4), x in point(4)) {
        prop_assume!(dist_sq(&p, &q) > 1e-9);
        let h = Halfspace::bisector(&nncell_geom::Euclidean, &p, &q);
        let closer_p = dist_sq(&x, &p) <= dist_sq(&x, &q);
        // Allow the boundary tolerance band.
        if (dist_sq(&x, &p) - dist_sq(&x, &q)).abs() > 1e-9 {
            prop_assert_eq!(h.contains(&x), closer_p);
        }
    }

    #[test]
    fn triangle_inequality(a in point(5), b in point(5), c in point(5)) {
        prop_assert!(dist(&a, &b) + dist(&b, &c) + 1e-12 >= dist(&a, &c));
    }
}
