//! Figure 10: total search time (plus page accesses and CPU) as a function
//! of database size, at fixed dimensionality d = 10.
//!
//! Paper shape to reproduce: the NN-cell approach stays far below the
//! R\*-tree and X-tree at every size and grows roughly logarithmically in N.
//! The NN-cell column is the paper's query ([`nncell_cells::NnCells::nn`]).

use nncell_bench::{as_queries, cell_nn_run, env_dims, env_usize, print_table, secs, timed};
use nncell_cells::NnCells;
use nncell_core::{BuildConfig, NnCellIndex, Strategy};
use nncell_data::{Generator, UniformGenerator};
use nncell_index::{RStarTree, XTree};

fn main() {
    let d = env_dims("NNCELL_DIMS", &[10])[0];
    let n_queries = env_usize("NNCELL_QUERIES", 200);
    let base = env_usize("NNCELL_N", 4_000);
    let sizes = [base / 8, base / 4, base / 2, base];
    println!("# Figure 10 — total search time vs database size (d={d})");

    let mut time_rows = Vec::new();
    let mut io_rows = Vec::new();
    for &n in &sizes {
        let points = UniformGenerator::new(d).generate(n, 10);
        let queries = as_queries(UniformGenerator::new(d).generate(n_queries, 11));

        let nncell = NnCellIndex::build(
            points.clone(),
            BuildConfig::builder()
                .strategy(Strategy::CorrectPruned)
                .seed(4)
                .build(),
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
        let t_n = run.seconds;
        let (_, t_r) = timed(|| {
            for q in &queries {
                std::hint::black_box(rstar.nearest_neighbor(q).unwrap());
            }
        });
        let (_, t_x) = timed(|| {
            for q in &queries {
                std::hint::black_box(xtree.nearest_neighbor(q).unwrap());
            }
        });
        time_rows.push(vec![n.to_string(), secs(t_n), secs(t_r), secs(t_x)]);
        let per = |v: u64| format!("{:.1}", v as f64 / n_queries as f64);
        let (sn, sr, sx) = (run.io, rstar.stats(), xtree.stats());
        io_rows.push(vec![
            n.to_string(),
            per(sn.page_reads),
            per(sr.page_reads),
            per(sx.page_reads),
            per(sn.cpu_ops),
            per(sr.cpu_ops),
            per(sx.cpu_ops),
        ]);
    }

    print_table(
        "Figure 10: total search time vs database size",
        &["N", "NN-cell", "R*-tree", "X-tree"],
        &time_rows,
    );
    print_table(
        "Figure 10 (detail): page accesses and CPU ops per query",
        &[
            "N",
            "pages NN-cell",
            "pages R*",
            "pages X",
            "cpu NN-cell",
            "cpu R*",
            "cpu X",
        ],
        &io_rows,
    );
    println!("\npaper shape check: NN-cell lowest at every N, near-logarithmic growth.");
}
