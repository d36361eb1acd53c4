//! The build profile of the cells built from an index: the index itself
//! is one STR bulk load, and every LP phase belongs to the cells.

use nncell_cells::NnCells;
use nncell_core::{BuildConfig, NnCellIndex, Strategy};
use nncell_geom::Point;

fn grid(n: usize) -> Vec<Point> {
    (0..n)
        .map(|i| {
            Point::new(vec![
                ((i * 37) % n) as f64 / n as f64 + 0.003,
                ((i * 113) % n) as f64 / n as f64 + 0.003,
            ])
        })
        .collect()
}

#[test]
fn build_profile_times_every_phase() {
    let index = NnCellIndex::build(
        grid(80),
        BuildConfig::builder()
            .strategy(Strategy::Sphere)
            .seed(3)
            .threads(2)
            .build(),
    )
    .unwrap();
    // The index itself is one STR bulk load; the LP phases belong to the
    // cells built from it.
    let own = index.build_stats().profile;
    assert_eq!(own.bulk_load.calls, 1);
    assert_eq!((own.lp_solve.calls, own.batches), (0, 0));
    let profile = NnCells::build(&index).build_stats().profile;
    assert_eq!(profile.constraint_selection.calls, 80);
    assert_eq!(profile.lp_solve.calls, 80);
    assert!(profile.lp_solve.nanos > 0);
    assert_eq!(profile.decomposition.calls, 0); // decomposition off
    assert_eq!(profile.bulk_load.calls, 1);
    assert_eq!(profile.batches, 2);
    assert!(profile.batch_max_nanos <= profile.batch_total_nanos);
    assert!(profile.batch_max_nanos > 0);
}
