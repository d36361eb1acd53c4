//! Ablation: index-structure knobs.
//!
//! 1. Block size: the paper fixes 4 KB blocks; this sweep shows the
//!    fanout/page-access trade-off.
//! 2. R\*-tree vs X-tree as the *cell store*: the paper stores the (highly
//!    overlapping) cell MBRs in an X-tree because its supernodes tolerate
//!    unsplittable directories; the comparison quantifies that choice.

use nncell_bench::{as_queries, cell_nn_run, env_usize, print_table};
use nncell_core::{BuildConfig, NnCellIndex, NnCells, Strategy};
use nncell_data::{Generator, UniformGenerator};
use nncell_geom::Mbr;
use nncell_index::{RStarTree, SplitPolicy, Tree, TreeConfig, XTree};

fn main() {
    let d = 10;
    let n = env_usize("NNCELL_N", 3_000);
    let n_queries = env_usize("NNCELL_QUERIES", 200);
    println!("# Ablation — index knobs (d={d}, N={n})");

    let points = UniformGenerator::new(d).generate(n, 80);
    let queries = as_queries(UniformGenerator::new(d).generate(n_queries, 81));

    // --- 1. block size sweep on the NN-cell index -----------------------
    let mut rows = Vec::new();
    for block in [1024usize, 4096, 16384] {
        let index = NnCellIndex::build(
            points.clone(),
            BuildConfig::builder().strategy(Strategy::NnDirection)
                .block_size(block)
                .seed(9).build(),
        )
        .expect("build");
        let st = cell_nn_run(&index, &NnCells::build(&index), &queries).io;
        rows.push(vec![
            format!("{} B", block),
            format!("{:.1}", st.page_reads as f64 / n_queries as f64),
            format!("{:.0}", st.cpu_ops as f64 / n_queries as f64),
        ]);
    }
    print_table(
        "Block size vs NN-cell query cost",
        &["block", "pages/query", "cpu/query"],
        &rows,
    );

    // --- 2. cell store: X-tree vs R*-tree -------------------------------
    // Store the same cell MBRs in both structures and run the same point
    // queries.
    let index = NnCellIndex::build(
        points.clone(),
        BuildConfig::builder().strategy(Strategy::NnDirection).seed(9).build(),
    )
    .expect("build");
    let nn_cells = NnCells::build(&index);
    let cells: Vec<Mbr> = (0..n)
        .map(|i| nn_cells.cell(i).unwrap().pieces[0].clone())
        .collect();

    let mut rows = Vec::new();
    for (label, policy) in [
        ("X-tree", SplitPolicy::XTree),
        ("R*-tree", SplitPolicy::RStar),
    ] {
        let cfg = match policy {
            SplitPolicy::XTree => TreeConfig::xtree(d),
            SplitPolicy::RStar => TreeConfig::rstar(d),
        };
        let mut tree = Tree::new(cfg);
        for (i, m) in cells.iter().enumerate() {
            tree.insert(m.clone(), i as u64);
        }
        tree.reset_stats();
        for q in &queries {
            std::hint::black_box(tree.point_query(q));
        }
        let st = tree.stats();
        rows.push(vec![
            label.to_string(),
            format!("{:.1}", st.page_reads as f64 / n_queries as f64),
            tree.total_pages().to_string(),
            tree.max_span().to_string(),
        ]);
    }
    print_table(
        "Cell store: point-query cost by structure",
        &["store", "pages/query", "total pages", "max supernode span"],
        &rows,
    );

    // --- 2b. cache budget sweep (the paper grants every structure "the
    // same amount of cache") --------------------------------------------
    let mut rows = Vec::new();
    let mut rstar = RStarTree::for_points(d);
    for (i, p) in points.iter().enumerate() {
        rstar.insert_point(p, i as u64);
    }
    for cache_pages in [0usize, 32, 128, 1024] {
        nn_cells.enable_cache(cache_pages);
        rstar.enable_cache(cache_pages);
        rstar.reset_stats();
        let sn = cell_nn_run(&index, &nn_cells, &queries).io;
        for q in &queries {
            std::hint::black_box(rstar.nearest_neighbor(q).unwrap());
        }
        let sr = rstar.stats();
        rows.push(vec![
            cache_pages.to_string(),
            format!("{:.1}", sn.page_reads as f64 / n_queries as f64),
            format!("{:.1}", sn.cache_hits as f64 / n_queries as f64),
            format!("{:.1}", sr.page_reads as f64 / n_queries as f64),
            format!("{:.1}", sr.cache_hits as f64 / n_queries as f64),
        ]);
    }
    nn_cells.enable_cache(0);
    print_table(
        "LRU cache budget vs disk reads per NN query",
        &[
            "cache pages",
            "NN-cell reads",
            "NN-cell hits",
            "R* reads",
            "R* hits",
        ],
        &rows,
    );

    // --- 3. baseline sanity: R*-tree wrapper still answers NN ----------
    let mut rstar = RStarTree::for_points(d);
    let mut xtree = XTree::for_points(d);
    for (i, p) in points.iter().enumerate() {
        rstar.insert_point(p, i as u64);
        xtree.insert_point(p, i as u64);
    }
    rstar.reset_stats();
    xtree.reset_stats();
    for q in queries.iter().take(50) {
        assert_eq!(
            rstar.nearest_neighbor(q).unwrap().id,
            xtree.nearest_neighbor(q).unwrap().id
        );
    }
    println!("\nbaseline agreement verified (R* branch-and-bound vs X-tree best-first).");
}
