//! Sample statistics, process memory and a deterministic RNG.

use std::time::Instant;

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 1]`).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Median of a list of floats (mean of the two middle values for an
/// even count); 0 for an empty list.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Median of nanosecond samples, in microseconds.
pub fn p50_us(samples: &[u64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_unstable();
    percentile(&s, 0.5) as f64 / 1e3
}

/// Latencies, in nanoseconds, of repeated runs of one fixed operation
/// sequence: the passes over a query pool, or the write streams.
///
/// Statistics come from the least-disturbed repetitions. The sequence is
/// cut into blocks of `block` operations; for every block the tenth of
/// its repetitions (at least one) with the lowest block median is kept,
/// and the kept samples are pooled. Other tenants' load on a shared
/// machine slows whole stretches of a run by tens of percent, which moves
/// a block's median; keeping the least-disturbed repetitions of each
/// block measures the program rather than that load.
///
/// Ranking by the median rather than the sum keeps the program's own rare
/// stalls: a slow operation in under half of a block does not move the
/// block's median, so it is kept as often as it occurs, and the pooled
/// tail percentiles see it.
pub struct Rounds {
    block: usize,
    rounds: Vec<Vec<u64>>,
}

impl Rounds {
    pub fn new(block: usize) -> Self {
        Rounds {
            block: block.max(1),
            rounds: Vec::new(),
        }
    }

    pub fn push(&mut self, round: Vec<u64>) {
        if !round.is_empty() {
            self.rounds.push(round);
        }
    }

    /// Every sample taken.
    pub fn samples(&self) -> usize {
        self.rounds.iter().map(Vec::len).sum()
    }

    /// The kept samples, ascending.
    pub fn kept(&self) -> Vec<u64> {
        let len = self.rounds.iter().map(Vec::len).min().unwrap_or(0);
        let keep = self.rounds.len().div_ceil(10);
        let mut pooled = Vec::new();
        let mut start = 0;
        while start < len {
            let end = (start + self.block).min(len);
            let mut by_time: Vec<(u64, usize)> = self
                .rounds
                .iter()
                .enumerate()
                .map(|(r, v)| {
                    let mut block = v[start..end].to_vec();
                    block.sort_unstable();
                    (percentile(&block, 0.5), r)
                })
                .collect();
            by_time.sort_unstable();
            for &(_, r) in &by_time[..keep] {
                pooled.extend_from_slice(&self.rounds[r][start..end]);
            }
            start = end;
        }
        pooled.sort_unstable();
        pooled
    }
}

/// Moves the whole process from CPU to CPU between repetitions.
///
/// Other tenants load the host's cores unevenly and that load moves over
/// seconds to minutes: a thread left on one vCPU can spend a whole run
/// beside a busy neighbour. Taking repetitions on every allowed CPU in
/// turn lets the least-disturbed ones come from whichever CPU is quiet.
/// Every thread moves, the in-process server's included, so a request
/// and its reply are always handed over on one CPU: a wake-up across
/// vCPUs costs an interrupt through the hypervisor, and leaving that to
/// where the scheduler happens to put the server split runs into a fast
/// and a slow group.
pub struct CpuRotation {
    cpus: Vec<usize>,
}

impl CpuRotation {
    /// The CPUs the calling thread may run on.
    pub fn new() -> Self {
        CpuRotation {
            cpus: affinity::allowed(),
        }
    }

    /// Pins every thread of the process to the CPU for repetition `rep`.
    pub fn pin(&self, rep: usize) {
        if !self.cpus.is_empty() {
            affinity::set_all(&[self.cpus[rep % self.cpus.len()]]);
        }
    }

    /// Lets every thread run on every allowed CPU again; threads spawned
    /// later inherit that.
    pub fn release(&self) {
        if !self.cpus.is_empty() {
            affinity::set_all(&self.cpus);
        }
    }
}

impl Default for CpuRotation {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(target_os = "linux")]
mod affinity {
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    pub fn allowed() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a live buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
            .collect()
    }

    /// Restricts every thread of the process to `cpus`. Thread ids come
    /// from `/proc/self/task`.
    pub fn set_all(cpus: &[usize]) {
        let mut mask = [0u64; WORDS];
        for &c in cpus.iter().filter(|&&c| c < WORDS * 64) {
            mask[c / 64] |= 1 << (c % 64);
        }
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            return;
        };
        for tid in tasks.flatten().filter_map(|t| t.file_name().to_str()?.parse().ok()) {
            // SAFETY: as above; the mask only names CPUs `allowed`
            // returned. A thread that has exited since the listing makes
            // the call fail harmlessly, and any failure leaves a thread
            // where it was, which only costs steadiness.
            unsafe {
                sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr());
            }
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn set_all(_cpus: &[usize]) {}
}

/// `(VmHWM, VmRSS)` of this process in MiB, from `/proc/self/status`.
pub fn memory_mb() -> (f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |name: &str| -> f64 {
        status
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    };
    (field("VmHWM:"), field("VmRSS:"))
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Nanoseconds since `t`.
pub fn nanos(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// SplitMix64: a tiny deterministic generator for the benchmark's own
/// choices (which id to remove), independent of the data generators.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Derives an independent stream seed from the run seed and a purpose tag.
pub fn derive_seed(seed: u64, tag: u64) -> u64 {
    SplitMix::new(seed ^ tag.wrapping_mul(0xd6e8_feb8_6659_fd93)).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_and_median() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.5), 51);
        assert_eq!(percentile(&s, 0.99), 99);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn rounds_keep_the_fastest_repetition_of_each_block() {
        let mut r = Rounds::new(2);
        r.push(vec![5, 5, 1, 1]);
        r.push(vec![1, 1, 5, 5]);
        r.push(vec![9, 9, 9, 9]);
        assert_eq!(r.samples(), 12);
        assert_eq!(r.kept(), vec![1, 1, 1, 1]);
        // Twelve repetitions keep two per block.
        let mut r = Rounds::new(1);
        for t in 1..=12 {
            r.push(vec![t]);
        }
        assert_eq!(r.kept(), vec![1, 2]);
        // A single stall does not move its block's median, so it is kept.
        let mut r = Rounds::new(4);
        r.push(vec![1, 1, 100, 1]);
        r.push(vec![2, 2, 2, 2]);
        assert_eq!(r.kept(), vec![1, 1, 1, 100]);
    }
}
