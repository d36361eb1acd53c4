//! Ablation: dynamic insertion (section 2's insertion algorithm).
//!
//! Measures per-insert cost with and without neighbor-cell refinement, and
//! the approximation-quality drift refinement prevents. Exactness holds in
//! both modes (inserts only shrink true cells; approximations stay
//! supersets) — the trade is insert latency vs query candidate count.
//!
//! Runs at moderate dimensionality, where cells are local and refinement
//! touches only genuine neighbors; in the saturated high-d regime (fig. 4b)
//! nearly every cell borders every other and per-insert refinement
//! approaches a rebuild — turn it off there or batch the updates.

use nncell_bench::{as_queries, env_usize, print_table, secs, timed};
use nncell_core::{
    average_overlap, linear_scan_nn, measured_candidates, BuildConfig, NnCellIndex, NnCells,
    Strategy,
};
use nncell_data::{Generator, UniformGenerator};

fn main() {
    let d = 4;
    let n0 = env_usize("NNCELL_N", 1_000);
    let inserts = env_usize("NNCELL_INSERTS", 150);
    let n_queries = env_usize("NNCELL_QUERIES", 100);
    println!("# Ablation — dynamic inserts (d={d}, base N={n0}, {inserts} inserts)");

    let base = UniformGenerator::new(d).generate(n0, 50);
    let arrivals = UniformGenerator::new(d).generate(inserts, 51);
    let queries = as_queries(UniformGenerator::new(d).generate(n_queries, 52));

    let mut rows = Vec::new();
    for (label, refine) in [("refine ON", true), ("refine OFF", false)] {
        let mut index = NnCellIndex::build(
            base.clone(),
            BuildConfig::builder().strategy(Strategy::Sphere)
                .refine_on_insert(refine)
                .seed(7).build(),
        )
        .expect("build");
        let mut cells = NnCells::build(&index);
        let (_, t_ins) = timed(|| {
            for p in arrivals.clone() {
                let id = index.insert(p).expect("insert");
                cells.insert(&index, id);
            }
        });

        // Exactness after the insert storm.
        let mut all = base.clone();
        all.extend(arrivals.iter().cloned());
        for q in &queries {
            let got = cells.nn(&index, q).unwrap();
            let want = linear_scan_nn(&all, q).unwrap();
            assert!((got.dist - want.dist).abs() < 1e-9, "{label}: inexact");
        }

        let overlap = average_overlap(cells.cells());
        let cands = measured_candidates(&cells, &queries);
        rows.push(vec![
            label.to_string(),
            secs(t_ins / inserts as f64),
            format!("{overlap:.2}"),
            format!("{cands:.1}"),
        ]);
    }

    print_table(
        "Dynamic insert: cost vs quality",
        &["mode", "time/insert", "overlap after", "candidates/query"],
        &rows,
    );
    println!("\nexpectation: refinement costs insert time, buys fewer query candidates.");
}
