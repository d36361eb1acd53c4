//! Figures 4a, 4b and 5: the four approximation algorithms.
//!
//! * 4a — time to compute all approximations ("performance") vs dimension,
//! * 4b — average approximation overlap ("quality") vs dimension,
//! * 5  — quality-to-performance ratio.
//!
//! Paper shape to reproduce: the most accurate algorithm (Correct) is the
//! slowest and tightest; NN-Direction is the fastest and loosest; Sphere
//! wins the quality/performance trade-off at low d, NN-Direction at high d.

use nncell_bench::{as_queries, env_dims, env_usize, print_table, secs, timed};
use nncell_cells::{average_overlap, quality_to_performance, NnCells};
use nncell_core::{BuildConfig, NnCellIndex, Strategy};
use nncell_data::{Generator, UniformGenerator};

fn main() {
    let n = env_usize("NNCELL_N", 1_000);
    let dims = env_dims("NNCELL_DIMS", &[4, 8, 12, 16]);
    let n_queries = env_usize("NNCELL_QUERIES", 100);
    println!("# Figures 4a / 4b / 5 — approximation algorithms (N={n} uniform points)");

    let strategies = Strategy::ALL;
    let mut time_rows = Vec::new();
    let mut overlap_rows = Vec::new();
    let mut qpr_rows = Vec::new();

    for &d in &dims {
        let points = UniformGenerator::new(d).generate(n, 42 + d as u64);
        let queries = as_queries(UniformGenerator::new(d).generate(n_queries, 77));
        let mut times = Vec::new();
        let mut overlaps = Vec::new();
        let mut qprs = Vec::new();
        for strategy in strategies {
            let index = NnCellIndex::build(
                points.clone(),
                BuildConfig::builder().strategy(strategy).seed(1).build(),
            )
            .expect("build");
            let (cells, secs_taken) = timed(|| NnCells::build(&index));
            let overlap = average_overlap(cells.cells());
            // Sanity: exact answers regardless of strategy.
            for q in queries.iter().take(10) {
                let got = cells.nn(&index, q).unwrap();
                let want = nncell_core::linear_scan_nn(&points, q).unwrap();
                assert_eq!(got.id, want.id, "{strategy:?} inexact at d={d}");
            }
            times.push(secs_taken);
            overlaps.push(overlap);
            qprs.push(quality_to_performance(overlap, secs_taken));
        }
        time_rows.push(
            std::iter::once(d.to_string())
                .chain(times.iter().map(|t| secs(*t)))
                .collect(),
        );
        overlap_rows.push(
            std::iter::once(d.to_string())
                .chain(overlaps.iter().map(|o| format!("{o:.2}")))
                .collect(),
        );
        qpr_rows.push(
            std::iter::once(d.to_string())
                .chain(qprs.iter().map(|q| format!("{q:.3}")))
                .collect(),
        );
    }

    let header = ["dim", "Correct", "Point", "Sphere", "NN-Direction"];
    print_table(
        "Figure 4a: approximation time (lower = faster insertion)",
        &header,
        &time_rows,
    );
    print_table(
        "Figure 4b: average overlap of approximations (lower = better quality)",
        &header,
        &overlap_rows,
    );
    print_table(
        "Figure 5: quality-to-performance ratio (higher = better)",
        &header,
        &qpr_rows,
    );

    println!("\npaper shape check: Correct slowest+tightest, NN-Direction fastest+loosest;");
    println!("QPR winner shifts from Sphere (low d) toward NN-Direction (high d).");
}
