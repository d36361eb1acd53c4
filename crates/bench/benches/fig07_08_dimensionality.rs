//! Figures 7 and 8: total NN search time vs dimensionality, and the speed-up
//! of the NN-cell approach over the R\*-tree.
//!
//! Paper shape to reproduce: comparable at low d; the NN-cell approach pulls
//! far ahead as d grows (paper: >300% speed-up over the R\*-tree at d=16 on
//! 100k points; we run laptop scale, same ordering expected). The NN-cell
//! column is the paper's query ([`nncell_core::NnCells::nn`]), not the
//! point-tree engine that serves queries.

use nncell_bench::{as_queries, cell_nn_run, env_dims, env_usize, print_table, secs, timed};
use nncell_core::{BuildConfig, NnCellIndex, NnCells, Strategy};
use nncell_data::{Generator, UniformGenerator};
use nncell_index::{LinearScan, RStarTree, XTree};

fn main() {
    let n = env_usize("NNCELL_N", 2_000);
    let n_queries = env_usize("NNCELL_QUERIES", 200);
    let dims = env_dims("NNCELL_DIMS", &[4, 6, 8, 10, 12, 14, 16]);
    println!(
        "# Figures 7 / 8 — total search time vs dimension (N={n}, {n_queries} queries)\n\
         # NN-cell build strategy: CorrectPruned (exact MBRs, as the paper's query-time figures)"
    );

    let mut fig7 = Vec::new();
    let mut fig8 = Vec::new();
    for &d in &dims {
        let points = UniformGenerator::new(d).generate(n, 7 + d as u64);
        let queries = as_queries(UniformGenerator::new(d).generate(n_queries, 99));

        let nncell = NnCellIndex::build(
            points.clone(),
            BuildConfig::builder().strategy(Strategy::CorrectPruned).seed(2).build(),
        )
        .expect("build");
        let cells = NnCells::build(&nncell);
        let mut rstar = RStarTree::for_points(d);
        let mut xtree = XTree::for_points(d);
        let mut scan = LinearScan::new(d);
        for (i, p) in points.iter().enumerate() {
            rstar.insert_point(p, i as u64);
            xtree.insert_point(p, i as u64);
            scan.insert(p, i as u64);
        }

        let run = cell_nn_run(&nncell, &cells, &queries);
        let (nncell_ids, t_nncell) = (run.ids, run.seconds);
        let (rstar_ids, t_rstar) = timed(|| {
            queries
                .iter()
                .map(|q| rstar.nearest_neighbor(q).unwrap().id as usize)
                .collect::<Vec<_>>()
        });
        let (xtree_ids, t_xtree) = timed(|| {
            queries
                .iter()
                .map(|q| xtree.nearest_neighbor(q).unwrap().id as usize)
                .collect::<Vec<_>>()
        });
        let (scan_ids, t_scan) = timed(|| {
            queries
                .iter()
                .map(|q| scan.nearest_neighbor(q).unwrap().id as usize)
                .collect::<Vec<_>>()
        });
        assert_eq!(nncell_ids, scan_ids, "NN-cell inexact at d={d}");
        assert_eq!(rstar_ids, scan_ids, "R* inexact at d={d}");
        assert_eq!(xtree_ids, scan_ids, "X-tree inexact at d={d}");

        fig7.push(vec![
            d.to_string(),
            secs(t_nncell),
            secs(t_rstar),
            secs(t_xtree),
            secs(t_scan),
        ]);
        fig8.push(vec![
            d.to_string(),
            format!("{:.0}%", 100.0 * t_rstar / t_nncell),
            format!("{:.0}%", 100.0 * t_xtree / t_nncell),
        ]);
    }

    print_table(
        "Figure 7: total search time",
        &["dim", "NN-cell", "R*-tree", "X-tree", "scan"],
        &fig7,
    );
    print_table(
        "Figure 8: NN-cell speed-up (search time ratio)",
        &["dim", "vs R*-tree", "vs X-tree"],
        &fig8,
    );
    println!("\npaper shape check: speed-up grows with dimension (paper: >300% at d=16).");
}
