//! Ablation: STR bulk loading vs repeated insertion for the baseline trees.
//!
//! Bulk loading (Leutenegger et al., ICDE 1997 — contemporary with the
//! paper) packs near-overlap-free nodes bottom-up. This bench quantifies
//! what the insert-built baselines leave on the table: build cost, tree
//! size, and query page reads.

use nncell_bench::{as_queries, env_usize, print_table, secs, timed};
use nncell_data::{Generator, UniformGenerator};
use nncell_geom::Mbr;
use nncell_index::{bulk_load_rows, Tree, TreeConfig};

fn main() {
    let d = 8;
    let n = env_usize("NNCELL_N", 20_000);
    let n_queries = env_usize("NNCELL_QUERIES", 200);
    println!("# Ablation — STR bulk load vs repeated insertion (d={d}, N={n})");

    let points = UniformGenerator::new(d).generate(n, 90);
    let queries = as_queries(UniformGenerator::new(d).generate(n_queries, 91));
    let items: Vec<(Mbr, u64)> = points
        .iter()
        .enumerate()
        .map(|(i, p)| (Mbr::from_point(p), i as u64))
        .collect();

    let flat: Vec<f64> = points
        .iter()
        .flat_map(|p| p.as_slice().iter().copied())
        .collect();
    let alive = vec![true; n];

    let cfg = TreeConfig::rstar(d).with_point_leaves(true);
    let mut rows = Vec::new();

    let (bulk, t_bulk) = timed(|| bulk_load_rows(cfg.clone(), &flat, &alive, 1.0));
    let (incr, t_incr) = timed(|| {
        let mut t = Tree::new(cfg.clone());
        for (m, id) in items.clone() {
            t.insert(m, id);
        }
        t
    });

    for (label, tree, t_build) in [("STR bulk", &bulk, t_bulk), ("insert-built", &incr, t_incr)] {
        tree.validate();
        tree.reset_stats();
        let (_, t_q) = timed(|| {
            for q in &queries {
                std::hint::black_box(tree.nn_best_first(q).unwrap());
            }
        });
        rows.push(vec![
            label.to_string(),
            secs(t_build),
            tree.total_pages().to_string(),
            format!("{:.1}", tree.stats().page_reads as f64 / n_queries as f64),
            secs(t_q / n_queries as f64),
        ]);
    }

    print_table(
        "Build method vs NN-query cost",
        &[
            "method",
            "build time",
            "pages",
            "NN pages/query",
            "NN time/query",
        ],
        &rows,
    );
    println!("\nexpectation: bulk loading builds ~30x faster at comparable query cost;");
    println!("the R*-insert path buys its slow build back as slightly tighter nodes");
    println!("(forced reinsertion actively minimizes overlap, STR tiling does not).");
}
