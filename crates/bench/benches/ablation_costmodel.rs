//! Ablation: the \[BBKK 97\] cost model vs measured tree behaviour.
//!
//! The NN-cell paper's motivation is theoretical: under uniform data,
//! index-based NN search must read a portion of the database that explodes
//! with dimensionality. This bench puts the model's predicted access
//! fraction next to the measured R\*-tree and X-tree numbers — and next to
//! the NN-cell point query, which sidesteps the argument entirely because it
//! never searches a neighborhood.

use nncell_bench::{as_queries, cell_nn_run, env_dims, env_usize, print_table};
use nncell_core::{BuildConfig, NnCellIndex, NnCells, Strategy};
use nncell_data::{Generator, UniformGenerator};
use nncell_index::costmodel::{expected_access_fraction, expected_nn_distance};
use nncell_index::{RStarTree, XTree};

fn main() {
    let n = env_usize("NNCELL_N", 1_500);
    let n_queries = env_usize("NNCELL_QUERIES", 100);
    let dims = env_dims("NNCELL_DIMS", &[2, 4, 8, 12, 16]);
    println!("# Ablation — BBKK'97 cost model vs measurement (N={n})");

    let mut rows = Vec::new();
    for &d in &dims {
        let points = UniformGenerator::new(d).generate(n, 3 + d as u64);
        let queries = as_queries(UniformGenerator::new(d).generate(n_queries, 4));

        let mut rstar = RStarTree::for_points(d);
        let mut xtree = XTree::for_points(d);
        for (i, p) in points.iter().enumerate() {
            rstar.insert_point(p, i as u64);
            xtree.insert_point(p, i as u64);
        }
        let nncell = NnCellIndex::build(
            points.clone(),
            BuildConfig::builder().strategy(Strategy::CorrectPruned).seed(5).build(),
        )
        .expect("build");
        let cells = NnCells::build(&nncell);

        rstar.reset_stats();
        xtree.reset_stats();
        for q in &queries {
            std::hint::black_box(rstar.nearest_neighbor(q));
            std::hint::black_box(xtree.nearest_neighbor(q));
        }
        let cell_reads = cell_nn_run(&nncell, &cells, &queries).io.page_reads;
        let c_eff = rstar.config().max_leaf_entries();
        let predicted = expected_access_fraction(n, d, c_eff);
        let frac = |reads: u64, pages: u64| {
            format!(
                "{:.1}%",
                100.0 * reads as f64 / (n_queries as u64 * pages) as f64
            )
        };
        rows.push(vec![
            d.to_string(),
            format!("{:.3}", expected_nn_distance(n, d)),
            format!("{:.1}%", 100.0 * predicted),
            frac(rstar.stats().page_reads, rstar.total_pages()),
            frac(xtree.stats().page_reads, xtree.total_pages()),
            frac(cell_reads, cells.cell_tree_pages()),
        ]);
    }

    print_table(
        "Predicted vs measured fraction of pages read per NN query",
        &["dim", "E[nn dist]", "model", "R*-tree", "X-tree", "NN-cell"],
        &rows,
    );
    println!("\nexpectation: the model tracks the trees' degeneration toward a scan.");
    println!("The NN-cell fraction is lowest at low d; at laptop-scale N its inflated");
    println!("high-d approximations read more pages (see EXPERIMENTS.md on density).");
}
