//! Shared harness utilities for the per-figure benches.
//!
//! Every bench target in this crate regenerates one table/figure of the
//! ICDE'98 NN-cell paper at laptop scale. Sizes default to values that keep
//! a full `cargo bench` run in minutes; set the environment variables
//! `NNCELL_N` (database size), `NNCELL_QUERIES` (query count), and
//! `NNCELL_DIMS` (comma-separated dimensions) to approach paper scale.
//! Results are printed as aligned tables — the same rows/series the paper
//! plots — and recorded in `EXPERIMENTS.md`.

use nncell_core::{NnCellIndex, NnCells};
use nncell_geom::{Metric, Point};
use nncell_index::IoStats;
use std::time::Instant;

/// One timed pass of the paper's NN-cell query ([`NnCells::nn`]) over
/// `queries`.
pub struct CellRun {
    /// The answer ids, in query order.
    pub ids: Vec<usize>,
    /// Wall-clock seconds for the whole pass.
    pub seconds: f64,
    /// Cell-tree cost counters of the pass (page reads, CPU ops).
    pub io: IoStats,
}

/// Runs the paper's query for every query point and counts what the cell
/// tree paid for it.
///
/// # Panics
/// If a query finds no answer, or if queries ran without reading a single
/// cell-tree page (the counters would then describe some other structure).
pub fn cell_nn_run<M: Metric>(
    index: &NnCellIndex<M>,
    cells: &NnCells<M>,
    queries: &[Vec<f64>],
) -> CellRun {
    cells.reset_stats();
    let (ids, seconds) = timed(|| {
        queries
            .iter()
            .map(|q| cells.nn(index, q).expect("non-empty index").id)
            .collect::<Vec<_>>()
    });
    let io = cells.cell_tree_stats();
    assert!(
        queries.is_empty() || io.page_reads > 0,
        "{} cell queries read no cell-tree page",
        queries.len()
    );
    CellRun { ids, seconds, io }
}

/// Reads a `usize` environment override.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Reads a comma-separated dimension list override.
pub fn env_dims(name: &str, default: &[usize]) -> Vec<usize> {
    std::env::var(name)
        .ok()
        .map(|v| {
            v.split(',')
                .filter_map(|s| s.trim().parse().ok())
                .collect::<Vec<usize>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| default.to_vec())
}

/// Times a closure, returning its result and elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Converts points into raw query vectors.
pub fn as_queries(points: Vec<Point>) -> Vec<Vec<f64>> {
    points.into_iter().map(Point::into_vec).collect()
}

/// Prints an aligned table: a title line, a header, and rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Formats seconds with sensible precision.
pub fn secs(s: f64) -> String {
    if s < 0.001 {
        format!("{:.1}µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{s:.2}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_overrides_parse() {
        std::env::set_var("NNCELL_TEST_X", "123");
        assert_eq!(env_usize("NNCELL_TEST_X", 5), 123);
        assert_eq!(env_usize("NNCELL_TEST_MISSING", 5), 5);
        std::env::set_var("NNCELL_TEST_D", "4, 8,12");
        assert_eq!(env_dims("NNCELL_TEST_D", &[2]), vec![4, 8, 12]);
        assert_eq!(env_dims("NNCELL_TEST_D_MISSING", &[2]), vec![2]);
    }

    #[test]
    fn secs_formats() {
        assert!(secs(0.0000005).ends_with("µs"));
        assert!(secs(0.05).ends_with("ms"));
        assert!(secs(2.0).ends_with('s'));
    }
}
