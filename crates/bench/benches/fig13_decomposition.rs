//! Figure 13: the effect of decomposing the NN-cell approximations.
//!
//! Compares the average overlap of the exact (Correct) approximations with
//! and without MBR decomposition at d ∈ {4, 8, 12}.
//!
//! Paper shape to reproduce: a clear overlap reduction that *increases* with
//! dimensionality.

use nncell_bench::{env_dims, env_usize, print_table};
use nncell_core::{average_overlap, BuildConfig, NnCellIndex, NnCells, Strategy};
use nncell_data::{FourierGenerator, Generator, UniformGenerator};

fn main() {
    let n = env_usize("NNCELL_N", 600);
    let dims = env_dims("NNCELL_DIMS", &[4, 8, 12]);
    let pieces = env_usize("NNCELL_PIECES", 8);
    println!("# Figure 13 — decomposition effect on overlap (N={n}, k={pieces} pieces)");
    println!("# CorrectPruned produces the same MBRs as Correct (Lemma-1-exact prune)");

    for (label, uniform) in [("uniform", true), ("fourier (clustered)", false)] {
        let mut rows = Vec::new();
        for &d in &dims {
            let points = if uniform {
                UniformGenerator::new(d).generate(n, 130 + d as u64)
            } else {
                FourierGenerator::new(d).generate(n, 131 + d as u64)
            };
            let cells = |cfg: BuildConfig| {
                NnCells::build(&NnCellIndex::build(points.clone(), cfg).expect("build"))
            };
            let cfg = BuildConfig::builder().strategy(Strategy::CorrectPruned).seed(6);
            let exact = cells(cfg.clone().build());
            let decomposed = cells(cfg.decompose_pieces(pieces).build());
            let o_exact = average_overlap(exact.cells());
            let o_dec = average_overlap(decomposed.cells());
            let gain = if o_exact > 0.0 {
                100.0 * (o_exact - o_dec) / o_exact
            } else {
                0.0
            };
            rows.push(vec![
                d.to_string(),
                format!("{o_exact:.2}"),
                format!("{o_dec:.2}"),
                format!("{gain:.0}%"),
                decomposed.total_pieces().to_string(),
            ]);
        }
        print_table(
            &format!("Figure 13 ({label}): overlap, exact vs decomposed"),
            &["dim", "exact", "decomposed", "reduction", "pieces stored"],
            &rows,
        );
    }
    println!("\npaper shape check: decomposition cuts overlap, more so at higher d.");
}
