//! Property tests for the log2-bucketed histogram: concurrent and
//! per-thread recording must agree exactly with single-threaded
//! recording of the same samples, and nearest-rank percentile estimates
//! must land in the same log2 bucket as the exact sample percentile.

use nncell_obs::{bucket_index, Histogram};
use proptest::prelude::*;

/// Decodes `(shift, offset)` pairs into samples that cluster around
/// power-of-two bucket boundaries, where off-by-one bucketing bugs live.
fn decode_samples(raw: &[(u32, u64)]) -> Vec<u64> {
    raw.iter()
        .map(|&(shift, off)| {
            (1u64 << shift)
                .wrapping_sub(2)
                .wrapping_add(off % 4)
                .wrapping_add(off)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Merging per-thread histogram snapshots is exactly equivalent to
    /// recording every sample into one histogram — counts, sum, and max.
    #[test]
    fn merged_per_thread_histograms_equal_single_threaded(
        raw in prop::collection::vec((0u32..=40, 0u64..=1000), 1..300),
        threads in 1usize..=4,
    ) {
        let samples = decode_samples(&raw);

        // Reference: single-threaded recording of everything.
        let single = Histogram::new();
        for &v in &samples {
            single.record(v);
        }
        let expect = single.snapshot();

        // Per-thread histograms over a round-robin partition, recorded
        // concurrently, then merged.
        let parts: Vec<Histogram> = (0..threads).map(|_| Histogram::new()).collect();
        std::thread::scope(|scope| {
            for (t, hist) in parts.iter().enumerate() {
                let samples = &samples;
                scope.spawn(move || {
                    for v in samples.iter().skip(t).step_by(threads) {
                        hist.record(*v);
                    }
                });
            }
        });
        let mut merged = parts[0].snapshot();
        for h in &parts[1..] {
            merged.merge(&h.snapshot());
        }
        prop_assert_eq!(&merged, &expect);

        // A single histogram shared by all threads must agree too.
        let shared = Histogram::new();
        std::thread::scope(|scope| {
            for t in 0..threads {
                let (samples, shared) = (&samples, &shared);
                scope.spawn(move || {
                    for v in samples.iter().skip(t).step_by(threads) {
                        shared.record(*v);
                    }
                });
            }
        });
        prop_assert_eq!(&shared.snapshot(), &expect);
    }

    /// The histogram's nearest-rank percentile falls in the same log2
    /// bucket as the exact nearest-rank sample percentile, i.e. the
    /// estimate is within one bucket of exact.
    #[test]
    fn percentile_estimates_within_one_bucket_of_exact(
        raw in prop::collection::vec((0u32..=40, 0u64..=1000), 1..300),
        qs in prop::collection::vec(0u32..=100, 5),
    ) {
        let mut samples = decode_samples(&raw);
        let hist = Histogram::new();
        for &v in &samples {
            hist.record(v);
        }
        let snap = hist.snapshot();
        samples.sort_unstable();
        let n = samples.len();

        for &qi in &qs {
            let q = qi as f64 / 100.0;
            let est = snap.percentile(q);
            if q >= 1.0 {
                // p100 is the exact max by construction.
                prop_assert_eq!(est, samples[n - 1]);
                continue;
            }
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            let exact = samples[rank - 1];
            prop_assert_eq!(
                bucket_index(est),
                bucket_index(exact),
                "q={} est={} exact={}", q, est, exact
            );
            // And the estimate is the bucket upper bound, so never
            // below the exact value it stands for.
            prop_assert!(est >= exact, "q={} est={} exact={}", q, est, exact);
        }
    }
}
