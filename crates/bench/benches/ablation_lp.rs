//! Ablation: LP backend (tableau simplex vs Seidel's randomized LP).
//!
//! Verifies the two solvers produce identical cell MBRs and shows where each
//! wins: the simplex on small constraint sets, Seidel as constraint counts
//! approach database size (the `Correct` regime). Also measures the
//! exactness-preserving constraint prune of `CorrectPruned`.

#![allow(clippy::needless_range_loop)]

use nncell_bench::{env_usize, print_table, secs, timed};
use nncell_core::{BuildConfig, NnCellIndex, NnCells, Strategy};
use nncell_data::{Generator, UniformGenerator};
use nncell_lp::SolverKind;

fn main() {
    let d = 8;
    let n = env_usize("NNCELL_N", 150);
    println!("# Ablation — LP backends (d={d}, N={n}, Correct strategy: m≈N constraints/LP)");

    let points = UniformGenerator::new(d).generate(n, 60);

    let mut rows = Vec::new();
    let mut mbrs = Vec::new();
    for (label, solver, strategy) in [
        ("simplex / Correct", SolverKind::Simplex, Strategy::Correct),
        ("seidel / Correct", SolverKind::Seidel, Strategy::Correct),
        ("dual / Correct", SolverKind::DualSimplex, Strategy::Correct),
        (
            "active-set / Correct",
            SolverKind::ActiveSet,
            Strategy::Correct,
        ),
        (
            "auto / CorrectPruned",
            SolverKind::Auto,
            Strategy::CorrectPruned,
        ),
    ] {
        let index = NnCellIndex::build(
            points.clone(),
            BuildConfig::builder().strategy(strategy).solver(solver).seed(8).build(),
        )
        .expect("build");
        let (cells, t) = timed(|| NnCells::build(&index));
        let st = cells.build_stats();
        rows.push(vec![
            label.to_string(),
            secs(t),
            st.lp.lp_calls.to_string(),
            format!("{:.0}", st.lp.constraints as f64 / st.lp.lp_calls as f64),
        ]);
        mbrs.push(
            (0..n)
                .map(|i| cells.cell(i).unwrap().pieces[0].clone())
                .collect::<Vec<_>>(),
        );
    }

    // All three must produce the same (exact) MBRs.
    for variant in 1..mbrs.len() {
        for i in 0..n {
            let a = &mbrs[0][i];
            let b = &mbrs[variant][i];
            for k in 0..d {
                assert!(
                    (a.lo()[k] - b.lo()[k]).abs() < 1e-6 && (a.hi()[k] - b.hi()[k]).abs() < 1e-6,
                    "solver disagreement on cell {i}"
                );
            }
        }
    }

    print_table(
        "LP backend comparison (identical MBRs verified)",
        &[
            "backend / strategy",
            "build time",
            "LP calls",
            "avg constraints/LP",
        ],
        &rows,
    );
    println!("\nexpectation: the dual simplex and the Best-Ritter active-set method");
    println!("(which starts from the point itself, as the paper prescribes) scale far");
    println!("past the tableau; the prune cuts constraints per LP at zero quality cost.");
}
