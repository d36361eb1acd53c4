//! Molecular shape screening — the paper's second motivating domain
//! (Shoichet et al.'s molecular docking via shape descriptors \[SBK 92\]).
//!
//! A compound library is represented by shape-descriptor vectors (simulated
//! here as a clustered distribution: chemical series form tight families).
//! Screening asks: *which library compound is most similar to this probe?*
//! Different descriptor dimensions have different discriminative power, so
//! similarity is a **weighted** Euclidean metric — which the NN-cell
//! pipeline supports end to end, because weighted bisectors are still
//! hyperplanes.
//!
//! ```sh
//! cargo run --release --example molecular_screening
//! ```

use nncell::core::{BuildConfig, NnCellIndex, Query, Strategy};
use nncell::data::{ClusteredGenerator, Generator};
use nncell::geom::{Metric, WeightedEuclidean};

fn main() {
    let dim = 6;
    let library_size = 1_500;

    // Descriptor weights: low-order shape moments matter more.
    let metric = WeightedEuclidean::new(vec![4.0, 3.0, 2.0, 1.0, 0.5, 0.25]);

    println!("compound library: {library_size} shape descriptors (d={dim}, 12 series)");
    let library = ClusteredGenerator::new(dim, 12, 0.04).generate(library_size, 7);

    let index = NnCellIndex::build_with_metric(
        library.clone(),
        BuildConfig::builder()
            .strategy(Strategy::CorrectPruned)
            .seed(3)
            .build(),
        metric.clone(),
    )
    .expect("build");
    println!("index built in {:.3}s", index.build_stats().seconds);

    // Probes: perturbed library compounds (an analog search) plus novel
    // ones — screened as one parallel batch through the query engine.
    let probes = ClusteredGenerator::new(dim, 12, 0.08).generate(40, 8);
    let batch: Vec<Query> = probes.iter().map(|p| Query::nn(p.as_slice())).collect();
    let screened = index.engine().batch(&batch);
    let mut hits_per_series = 0usize;
    for (probe, hit) in probes.iter().zip(screened) {
        let hit = hit.expect("well-formed probe").best;
        // Verify against a weighted linear scan.
        let want = library
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                metric
                    .dist_sq(probe, a)
                    .partial_cmp(&metric.dist_sq(probe, b))
                    .unwrap()
            })
            .map(|(i, _)| i)
            .unwrap();
        assert_eq!(hit.id, want, "weighted NN must match the scan");
        if hit.dist < 0.4 {
            hits_per_series += 1;
        }
    }
    println!(
        "{} probes screened; {} close analogs found (weighted distance < 0.4); all exact",
        probes.len(),
        hits_per_series
    );

    // The library evolves: new compounds are registered, failed ones retired.
    let mut index = index;
    let new_batch = ClusteredGenerator::new(dim, 12, 0.04).generate(50, 9);
    for c in new_batch {
        index.insert(c).expect("insert");
    }
    for retired in [3usize, 141, 500, 999] {
        assert!(index.remove(retired));
    }
    println!(
        "library updated to {} live compounds; screening still exact:",
        index.len()
    );
    let probe: Vec<f64> = probes[0].clone().into_vec();
    let survivors: Vec<(usize, Vec<f64>)> = (0..index.slots())
        .filter_map(|i| Some((i, index.row(i)?)))
        .collect();
    let hit = index
        .engine()
        .execute(&Query::nn(probe.clone()))
        .expect("well-formed probe")
        .best;
    let want = survivors
        .iter()
        .min_by(|(_, a), (_, b)| {
            metric
                .dist_sq(&probe, a)
                .partial_cmp(&metric.dist_sq(&probe, b))
                .unwrap()
        })
        .map(|(i, _)| *i)
        .unwrap();
    assert_eq!(hit.id, want);
    println!(
        "  probe -> compound #{} at weighted distance {:.4}",
        hit.id, hit.dist
    );
}
