//! Figures 11 and 12: the NN-cell approach vs the X-tree on (synthetic)
//! Fourier data, d = 8, as a function of database size.
//!
//! Paper shape to reproduce: a consistent NN-cell win in total search time
//! (paper: up to ~2.5×), and — unlike the uniform case — a win on *both*
//! page accesses and CPU time, because the clustered real data yields much
//! tighter cell approximations. The NN-cell column is the paper's query
//! ([`nncell_core::NnCells::nn`]).

use nncell_bench::{as_queries, cell_nn_run, env_usize, print_table, secs, timed};
use nncell_core::{BuildConfig, NnCellIndex, NnCells, Strategy};
use nncell_data::{FourierGenerator, Generator};
use nncell_index::XTree;

fn main() {
    let d = 8;
    let n_queries = env_usize("NNCELL_QUERIES", 200);
    let base = env_usize("NNCELL_N", 4_000);
    let sizes = [base / 8, base / 4, base / 2, base];
    println!("# Figures 11 / 12 — synthetic Fourier data (d={d})");

    let mut fig11 = Vec::new();
    let mut fig12 = Vec::new();
    for &n in &sizes {
        let points = FourierGenerator::new(d).generate(n, 20);
        let queries = as_queries(FourierGenerator::new(d).generate(n_queries, 21));

        let nncell = NnCellIndex::build(
            points.clone(),
            BuildConfig::builder().strategy(Strategy::CorrectPruned).seed(5).build(),
        )
        .expect("build");
        let cells = NnCells::build(&nncell);
        let mut xtree = XTree::for_points(d);
        for (i, p) in points.iter().enumerate() {
            xtree.insert_point(p, i as u64);
        }

        xtree.reset_stats();
        let run = cell_nn_run(&nncell, &cells, &queries);
        let (ids_n, t_n) = (run.ids, run.seconds);
        let (ids_x, t_x) = timed(|| {
            queries
                .iter()
                .map(|q| xtree.nearest_neighbor(q).unwrap().id as usize)
                .collect::<Vec<_>>()
        });
        // Both are exact engines; distances must match (ids may differ on
        // exact ties in clustered data).
        for (a, b) in ids_n.iter().zip(ids_x.iter()) {
            if a != b {
                let da = nncell_geom::dist(&points[*a], &points[*b]);
                assert!(da < 1e-9, "engines disagree beyond a tie");
            }
        }
        let (sn, sx) = (run.io, xtree.stats());
        fig11.push(vec![
            n.to_string(),
            secs(t_n),
            secs(t_x),
            format!("{:.0}%", 100.0 * t_x / t_n),
        ]);
        let per = |v: u64| format!("{:.1}", v as f64 / n_queries as f64);
        fig12.push(vec![
            n.to_string(),
            per(sn.page_reads),
            per(sx.page_reads),
            per(sn.cpu_ops),
            per(sx.cpu_ops),
        ]);
    }

    print_table(
        "Figure 11: total search time on Fourier data",
        &["N", "NN-cell", "X-tree", "speed-up"],
        &fig11,
    );
    print_table(
        "Figure 12: page accesses and CPU ops per query",
        &[
            "N",
            "pages NN-cell",
            "pages X-tree",
            "cpu NN-cell",
            "cpu X-tree",
        ],
        &fig12,
    );
    println!("\npaper shape check: NN-cell ahead throughout; on clustered data it wins");
    println!("both page accesses and CPU (approximations are much tighter than uniform).");
}
