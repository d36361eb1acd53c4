//! Ablation: the paper's two roads out of high-dimensional NN degeneration.
//!
//! The introduction offers a choice: exploit **parallelism** (declustered
//! multi-disk search, \[Ber+ 97\]) or precompute the **solution space**
//! (this paper). This bench puts both on the same simulated cost model:
//! I/O time per query (critical-path pages) for a D-disk parallel scan vs
//! the sequential NN-cell point query — plus the plain sequential scan both
//! are escaping from.

use nncell_bench::{as_queries, cell_nn_run, env_usize, print_table};
use nncell_cells::NnCells;
use nncell_core::{BuildConfig, NnCellIndex, Strategy};
use nncell_data::{Generator, UniformGenerator};
use nncell_index::{DeclusteredScan, LinearScan};

fn main() {
    let d = 12;
    let n = env_usize("NNCELL_N", 3_000);
    let n_queries = env_usize("NNCELL_QUERIES", 100);
    println!("# Ablation — parallelism vs solution-space precomputation (d={d}, N={n})");

    let points = UniformGenerator::new(d).generate(n, 95);
    let queries = as_queries(UniformGenerator::new(d).generate(n_queries, 96));

    let nncell = NnCellIndex::build(
        points.clone(),
        BuildConfig::builder()
            .strategy(Strategy::CorrectPruned)
            .seed(11)
            .build(),
    )
    .expect("build");
    let cells = NnCells::build(&nncell);
    let mut scan = LinearScan::new(d);
    for (i, p) in points.iter().enumerate() {
        scan.insert(p, i as u64);
    }

    let mut rows = Vec::new();
    // Sequential scan row.
    scan.reset_stats();
    for q in &queries {
        std::hint::black_box(scan.nearest_neighbor(q).unwrap());
    }
    rows.push(vec![
        "sequential scan".into(),
        format!("{:.1}", scan.stats().page_reads as f64 / n_queries as f64),
    ]);
    // Parallel scans with growing disk counts.
    for disks in [2usize, 4, 8, 16] {
        let mut par = DeclusteredScan::new(d, disks);
        for (i, p) in points.iter().enumerate() {
            par.insert(p, i as u64);
        }
        par.reset_stats();
        for q in &queries {
            let a = par.nearest_neighbor(q).unwrap();
            let b = scan.nearest_neighbor(q).unwrap();
            assert_eq!(a.id, b.id);
        }
        rows.push(vec![
            format!("parallel scan ({disks} disks)"),
            format!("{:.1}", par.stats().page_reads as f64 / n_queries as f64),
        ]);
    }
    // NN-cell row (sequential, one disk).
    let cell_reads = cell_nn_run(&nncell, &cells, &queries).io.page_reads;
    rows.push(vec![
        "NN-cell point query (1 disk)".into(),
        format!("{:.1}", cell_reads as f64 / n_queries as f64),
    ]);

    print_table(
        "I/O time per query (critical-path pages)",
        &["method", "pages/query"],
        &rows,
    );
    println!("\nexpectation: declustering divides scan I/O by the disk count; the");
    println!("NN-cell approach competes with a multi-disk rig on a single disk once");
    println!("the database is large enough for tree/scan degeneration to bite.");
}
