//! Figure 9: page accesses vs CPU time per query, NN-cell vs R\*-tree vs
//! X-tree, as dimensionality grows.
//!
//! Paper shape to reproduce: total search time is *not* dominated by page
//! accesses — the tree NN searches pay heavy CPU for priority-queue /
//! MINDIST sorting, while the NN-cell point query does none of it. The
//! NN-cell CPU advantage is the decisive one; its page-access standing
//! depends on density (the paper ran 100k points; at laptop scale the
//! trees' NN search is less degraded, see EXPERIMENTS.md). The NN-cell
//! column is the paper's query ([`nncell_core::NnCells::nn`]).

use nncell_bench::{as_queries, cell_nn_run, env_dims, env_usize, print_table, timed};
use nncell_core::{BuildConfig, NnCellIndex, NnCells, Strategy};
use nncell_data::{Generator, UniformGenerator};
use nncell_index::{RStarTree, XTree};

fn main() {
    let n = env_usize("NNCELL_N", 2_000);
    let n_queries = env_usize("NNCELL_QUERIES", 200);
    let dims = env_dims("NNCELL_DIMS", &[4, 6, 8, 10, 12, 14, 16]);
    println!("# Figure 9 — page accesses and CPU time per query (N={n})");

    let mut pages = Vec::new();
    let mut cpu = Vec::new();
    for &d in &dims {
        let points = UniformGenerator::new(d).generate(n, 70 + d as u64);
        let queries = as_queries(UniformGenerator::new(d).generate(n_queries, 71));

        let nncell = NnCellIndex::build(
            points.clone(),
            BuildConfig::builder().strategy(Strategy::CorrectPruned).seed(3).build(),
        )
        .expect("build");
        let cells = NnCells::build(&nncell);
        let mut rstar = RStarTree::for_points(d);
        let mut xtree = XTree::for_points(d);
        for (i, p) in points.iter().enumerate() {
            rstar.insert_point(p, i as u64);
            xtree.insert_point(p, i as u64);
        }

        rstar.reset_stats();
        xtree.reset_stats();
        let run = cell_nn_run(&nncell, &cells, &queries);
        let (ids_n, t_n) = (run.ids, run.seconds);
        let (ids_r, t_r) = timed(|| {
            queries
                .iter()
                .map(|q| rstar.nearest_neighbor(q).unwrap().id as usize)
                .collect::<Vec<_>>()
        });
        let (ids_x, t_x) = timed(|| {
            queries
                .iter()
                .map(|q| xtree.nearest_neighbor(q).unwrap().id as usize)
                .collect::<Vec<_>>()
        });
        assert_eq!(ids_n, ids_r);
        assert_eq!(ids_r, ids_x);

        let per = |v: u64| format!("{:.1}", v as f64 / n_queries as f64);
        let us = |t: f64| format!("{:.1}µs", t * 1e6 / n_queries as f64);
        pages.push(vec![
            d.to_string(),
            per(run.io.page_reads),
            per(rstar.stats().page_reads),
            per(xtree.stats().page_reads),
        ]);
        cpu.push(vec![d.to_string(), us(t_n), us(t_r), us(t_x)]);
    }

    let header = ["dim", "NN-cell", "R*-tree", "X-tree"];
    print_table("Figure 9a: page accesses per query", &header, &pages);
    print_table("Figure 9b: CPU time per query", &header, &cpu);
    println!("\npaper shape check: the NN-cell point query wins CPU time decisively;");
    println!("page accesses favor it only at database-scale N (see EXPERIMENTS.md).");
}
