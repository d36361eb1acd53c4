//! Renders the paper's figure-2 style NN-diagrams as SVG: data points, their
//! NN-cell MBR approximations, and (optionally) decomposed pieces, for the
//! three illustrative distributions (uniform / grid / sparse).
//!
//! ```sh
//! cargo run --release --example voronoi_2d
//! # writes nn_diagram_{uniform,grid,sparse}.svg to the working directory
//! ```

use nncell::core::cells::CellApprox;
use nncell::core::{average_overlap, BuildConfig, NnCellIndex, NnCells, Strategy};
use nncell::data::{Generator, GridGenerator, SparseGenerator, UniformGenerator};
use std::fmt::Write as _;
use std::fs;

fn main() {
    let n = 16;
    let cases: Vec<(&str, Vec<nncell::geom::Point>)> = vec![
        ("uniform", UniformGenerator::new(2).generate(n, 3)),
        ("grid", GridGenerator::new(2).generate(n, 0)),
        ("sparse", SparseGenerator::new(2).generate(n, 1)),
    ];

    for (name, points) in cases {
        let index = NnCellIndex::build(
            points.clone(),
            BuildConfig::builder().strategy(Strategy::Correct).decompose_pieces(4).build(),
        )
        .expect("build");
        let cells = NnCells::build(&index);
        let overlap = average_overlap(cells.cells());
        // Exact cell polygons (figure 1's NN-diagram) for comparison.
        let raw: Vec<Vec<f64>> = points.iter().map(|p| p.as_slice().to_vec()).collect();
        let space = nncell::geom::Mbr::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let polys: Vec<nncell::geom::ConvexPolygon> = (0..raw.len())
            .map(|i| nncell::geom::voronoi_cell_2d(&raw, i, &space))
            .collect();
        let svg = render(&points, cells.cells(), &polys);
        let file = format!("nn_diagram_{name}.svg");
        fs::write(&file, svg).expect("write SVG");
        println!("{file}: {n} points, approximation overlap {overlap:.3}");
    }
    println!("open the SVGs to compare with the paper's figure 2.");
}

fn render(
    points: &[nncell::geom::Point],
    cells: &[CellApprox],
    polys: &[nncell::geom::ConvexPolygon],
) -> String {
    let size = 640.0;
    let mut s = String::new();
    let _ = writeln!(
        s,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" viewBox="0 0 {size} {size}">"#
    );
    let _ = writeln!(
        s,
        r#"<rect width="{size}" height="{size}" fill="white" stroke="black"/>"#
    );
    for (i, cell) in cells.iter().enumerate() {
        let hue = (i * 360 / cells.len().max(1)) % 360;
        for m in &cell.pieces {
            let x = m.lo()[0] * size;
            let y = (1.0 - m.hi()[1]) * size; // SVG y grows downward
            let w = (m.hi()[0] - m.lo()[0]) * size;
            let h = (m.hi()[1] - m.lo()[1]) * size;
            let _ = writeln!(
                s,
                r#"<rect x="{x:.1}" y="{y:.1}" width="{w:.1}" height="{h:.1}" fill="hsl({hue},70%,60%)" fill-opacity="0.25" stroke="hsl({hue},70%,35%)"/>"#
            );
        }
    }
    // Exact NN-cell boundaries (figure 1 style) on top of the MBRs.
    for poly in polys {
        if poly.is_empty() {
            continue;
        }
        let path: String = poly
            .vertices()
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let cmd = if i == 0 { 'M' } else { 'L' };
                format!("{cmd}{:.1},{:.1} ", v[0] * size, (1.0 - v[1]) * size)
            })
            .collect();
        let _ = writeln!(
            s,
            r#"<path d="{path}Z" fill="none" stroke="black" stroke-width="1.2"/>"#
        );
    }
    for p in points {
        let cx = p[0] * size;
        let cy = (1.0 - p[1]) * size;
        let _ = writeln!(
            s,
            r#"<circle cx="{cx:.1}" cy="{cy:.1}" r="4" fill="black"/>"#
        );
    }
    s.push_str("</svg>\n");
    s
}
