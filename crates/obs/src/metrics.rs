//! Atomic metric primitives: counters, gauges, and log2-bucketed
//! histograms. All recording methods take `&self`, use only relaxed
//! atomics, and never allocate.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Number of histogram buckets: bucket 0 holds the value 0, bucket `k`
/// (1 ≤ k ≤ 64) holds values in `[2^(k-1), 2^k - 1]`. Together they
/// cover every `u64`.
pub const BUCKETS: usize = 65;

/// The bucket a value falls into: `0` for `0`, otherwise
/// `64 - v.leading_zeros()` (the position of the highest set bit, 1-based).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i`: `0` for bucket 0, `2^i - 1`
/// otherwise (saturating at `u64::MAX` for the last bucket).
#[inline]
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A monotonic counter. Cheap to record (`fetch_add` relaxed), cheap to
/// read; never decreases and never resets — epoch handling is the
/// reader's job (keep a baseline and subtract).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (live points, resident pages, …).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    pub fn new() -> Self {
        Self(AtomicI64::new(0))
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log2-bucketed histogram over `u64` samples (latencies in
/// nanoseconds, candidate counts, page counts, …).
///
/// Recording touches exactly three relaxed atomics (bucket count,
/// running sum, max) and never locks or allocates, so it is safe on
/// the steady-state query path. Reads go through [`Histogram::snapshot`];
/// a snapshot taken concurrently with writers is not a single atomic
/// cut, but every individual counter is consistent and the nearest-rank
/// percentile is still within one bucket of exact for the samples it
/// observed.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample. Allocation-free and lock-free.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a wall-clock duration in nanoseconds (the unit every
    /// `*_ns` histogram in the stack uses), saturating past ~584 years.
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Copies the current counts into an owned, immutable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`]. Supports merging (for
/// per-thread histograms) and nearest-rank percentile estimation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts; `counts[i]` counts samples in bucket `i`.
    pub counts: [u64; BUCKETS],
    /// Sum of all recorded samples (wrapping on overflow, like recording).
    pub sum: u64,
    /// Largest recorded sample (0 when empty).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            counts: [0; BUCKETS],
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean of the recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Nearest-rank percentile estimate for `q` in `[0, 1]`: the
    /// inclusive upper bound of the bucket containing the sample of
    /// rank `ceil(q · n)`. Because the true sample of that rank lies in
    /// the same bucket, the estimate is within one log2 bucket of the
    /// exact percentile. Returns 0 for an empty histogram; `q ≥ 1`
    /// returns the recorded max.
    pub fn percentile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound(i);
            }
        }
        self.max
    }

    /// Adds another snapshot's counts into this one (per-thread merge).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), 64);
        for k in 1..64 {
            let lo = 1u64 << (k - 1);
            let hi = (1u64 << k) - 1;
            assert_eq!(bucket_index(lo), k, "low edge of bucket {k}");
            assert_eq!(bucket_index(hi), k, "high edge of bucket {k}");
            assert_eq!(bucket_upper_bound(k), hi);
        }
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn record_duration_lands_in_the_nanosecond_bucket() {
        let h = Histogram::new();
        h.record_duration(std::time::Duration::from_nanos(1000));
        h.record_duration(std::time::Duration::from_micros(1));
        let s = h.snapshot();
        assert_eq!(s.count(), 2);
        assert_eq!(s.sum, 2000);
        assert_eq!(s.max, 1000);
    }

    #[test]
    fn counter_and_gauge() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let g = Gauge::new();
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn histogram_records_and_percentiles() {
        let h = Histogram::new();
        for v in [0u64, 1, 1, 3, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 6);
        assert_eq!(s.sum, 1105);
        assert_eq!(s.max, 1000);
        // rank(0.5 · 6) = 3 → third-smallest sample is 1 → bucket 1, ub 1.
        assert_eq!(s.percentile(0.5), 1);
        // p100 is exact.
        assert_eq!(s.percentile(1.0), 1000);
        // Empty histogram.
        assert_eq!(HistogramSnapshot::default().percentile(0.99), 0);
    }

    #[test]
    fn snapshot_merge_matches_combined_recording() {
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for v in [5u64, 9, 13] {
            a.record(v);
            all.record(v);
        }
        for v in [2u64, 1 << 20] {
            b.record(v);
            all.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, all.snapshot());
    }
}
