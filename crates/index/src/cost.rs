//! Cost accounting for the simulated disk.
//!
//! The paper evaluates its methods by *page accesses* and *CPU time*
//! separately (figures 9 and 12), noting that NN queries are **not**
//! dominated by page accesses because of the priority-queue sorting work.
//! We therefore track both: every node touch costs its page span in reads,
//! and every distance computation / heap operation costs one CPU op.
//!
//! When the bill is paid depends on the traversal. The paper's walkers
//! (the figure benches) call `CostTracker::access` on every node they
//! touch. The one serving traversal (`Tree::best_first_stream_with`)
//! counts pages and CPU ops in locals and makes one `CostTracker::read`
//! and one `CostTracker::cpu` call per tree and traversal, so concurrent
//! queries do not update the shared counters on every page. Both regimes
//! give the same totals without a cache.
//!
//! An optional **LRU page cache** can be enabled per structure — the paper
//! notes "all index structures were allowed to use the same amount of
//! cache" — in which case re-touched pages within the budget count as cache
//! hits instead of reads. Only `CostTracker::access` consults it, so it
//! shapes the figure benches' page counts and never a serving query's.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use nncell_obs::{Counter, Registry};
use std::sync::Arc;

/// Registry handles a `CostTracker` mirrors its events into. Bound at
/// most once per tracker via `CostTracker::bind_metrics`; the registry
/// counters are **monotonic for the life of the process** — unlike
/// `CostTracker::stats`, they are unaffected by `CostTracker::reset`.
#[derive(Debug, Clone)]
pub struct TreeMetrics {
    /// `nncell_<tree>_page_reads_total`
    pub(crate) page_reads: Arc<Counter>,
    /// `nncell_<tree>_page_writes_total`
    pub(crate) page_writes: Arc<Counter>,
    /// `nncell_<tree>_splits_total`
    pub(crate) splits: Arc<Counter>,
}

impl TreeMetrics {
    /// Registers the three tree counters under
    /// `nncell_<prefix>_…_total` names.
    pub fn register(registry: &Registry, prefix: &str) -> Self {
        Self::register_labeled(registry, prefix, &[])
    }

    /// Like [`TreeMetrics::register`] but every series carries the given
    /// label set (e.g. `shard="3"` for one shard of a sharded index).
    pub fn register_labeled(registry: &Registry, prefix: &str, labels: &[(&str, &str)]) -> Self {
        let l = nncell_obs::format_labels(labels);
        Self {
            page_reads: registry.counter(&format!("nncell_{prefix}_page_reads_total{l}")),
            page_writes: registry.counter(&format!("nncell_{prefix}_page_writes_total{l}")),
            splits: registry.counter(&format!("nncell_{prefix}_splits_total{l}")),
        }
    }
}

/// LRU state: page → stamp and stamp → page, for O(log n) eviction.
#[derive(Clone)]
struct Lru {
    capacity: usize,
    clock: u64,
    stamp_of: HashMap<u64, u64>,
    page_of: BTreeMap<u64, u64>,
}

impl Lru {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            clock: 0,
            stamp_of: HashMap::new(),
            page_of: BTreeMap::new(),
        }
    }

    /// Returns `true` on a cache hit.
    fn touch(&mut self, page: u64) -> bool {
        self.clock += 1;
        let hit = if let Some(old) = self.stamp_of.remove(&page) {
            self.page_of.remove(&old);
            true
        } else {
            false
        };
        self.stamp_of.insert(page, self.clock);
        self.page_of.insert(self.clock, page);
        while self.stamp_of.len() > self.capacity {
            let (&oldest, &victim) = self.page_of.iter().next().expect("non-empty");
            self.page_of.remove(&oldest);
            self.stamp_of.remove(&victim);
        }
        hit
    }
}

/// Read/CPU counters. Interior-mutable (relaxed atomics) so read-only
/// queries on a shared tree can be accounted — including from the parallel
/// index build, where worker threads query one shared point tree.
///
/// The raw counters only ever **increase**; [`Self::stats`] reports them
/// relative to per-counter baselines that [`Self::reset`] snapshots-and-
/// swaps into place. A reset racing a batch therefore never loses or
/// double-counts an increment: each counter's epoch boundary is the
/// single atomic baseline store, and every event lands on exactly one
/// side of it.
#[derive(Default)]
pub(crate) struct CostTracker {
    reads: AtomicU64,
    writes: AtomicU64,
    cpu_ops: AtomicU64,
    cache_hits: AtomicU64,
    splits: AtomicU64,
    /// Epoch baselines subtracted by [`Self::stats`]; written only by
    /// [`Self::reset`].
    reads_base: AtomicU64,
    writes_base: AtomicU64,
    cpu_ops_base: AtomicU64,
    cache_hits_base: AtomicU64,
    /// Mirrors `cache.is_some()` so the hot no-cache path can skip the
    /// Mutex entirely — concurrent query threads would otherwise serialize
    /// on a lock they only take to discover there is nothing to do.
    cache_enabled: std::sync::atomic::AtomicBool,
    cache: Mutex<Option<Lru>>,
    /// Registry mirror, bound at most once (see [`Self::bind_metrics`]).
    metrics: OnceLock<TreeMetrics>,
}

/// Cloning a tracker copies the counter values and cache state at the
/// moment of the clone and **shares** any bound [`TreeMetrics`] handles
/// (they are `Arc`s into the registry, and the already-initialized
/// binding means the clone never re-seeds the registry totals). Used by
/// the copy-on-write shard snapshots in `nncell-core`.
impl Clone for CostTracker {
    fn clone(&self) -> Self {
        let cache = match self.cache.lock() {
            Ok(g) => g.clone(),
            Err(p) => p.into_inner().clone(),
        };
        let metrics = OnceLock::new();
        if let Some(m) = self.metrics.get() {
            let _ = metrics.set(m.clone());
        }
        Self {
            reads: AtomicU64::new(self.reads.load(Ordering::Relaxed)),
            writes: AtomicU64::new(self.writes.load(Ordering::Relaxed)),
            cpu_ops: AtomicU64::new(self.cpu_ops.load(Ordering::Relaxed)),
            cache_hits: AtomicU64::new(self.cache_hits.load(Ordering::Relaxed)),
            splits: AtomicU64::new(self.splits.load(Ordering::Relaxed)),
            reads_base: AtomicU64::new(self.reads_base.load(Ordering::Relaxed)),
            writes_base: AtomicU64::new(self.writes_base.load(Ordering::Relaxed)),
            cpu_ops_base: AtomicU64::new(self.cpu_ops_base.load(Ordering::Relaxed)),
            cache_hits_base: AtomicU64::new(self.cache_hits_base.load(Ordering::Relaxed)),
            cache_enabled: std::sync::atomic::AtomicBool::new(cache.is_some()),
            cache: Mutex::new(cache),
            metrics,
        }
    }
}

impl std::fmt::Debug for CostTracker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CostTracker({:?})", self.stats())
    }
}

impl CostTracker {
    /// Mirrors this tracker's events into registry counters from now on.
    /// The counters are seeded with the tracker's lifetime totals so the
    /// registry reflects all history, then stay monotonic regardless of
    /// [`Self::reset`]. A second bind is a no-op.
    pub fn bind_metrics(&self, metrics: TreeMetrics) {
        if self.metrics.set(metrics).is_ok() {
            if let Some(m) = self.metrics.get() {
                m.page_reads.add(self.reads.load(Ordering::Relaxed));
                m.page_writes.add(self.writes.load(Ordering::Relaxed));
                m.splits.add(self.splits.load(Ordering::Relaxed));
            }
        }
    }

    /// Records `pages` page reads (a supernode touch costs its span).
    #[inline]
    pub fn read(&self, pages: u64) {
        self.reads.fetch_add(pages, Ordering::Relaxed);
        if let Some(m) = self.metrics.get() {
            m.page_reads.add(pages);
        }
    }

    /// Records an access to a specific node's pages, honoring the LRU cache
    /// when one is enabled. `node` identifies the node; `span` is its page
    /// count (each page of a supernode is cached individually).
    pub fn access(&self, node: u64, span: u64) {
        if !self.cache_enabled.load(Ordering::Relaxed) {
            self.read(span);
            return;
        }
        let mut guard = self.cache.lock().expect("cache lock");
        match guard.as_mut() {
            None => {
                drop(guard);
                self.read(span);
            }
            Some(lru) => {
                let mut misses = 0;
                let mut hits = 0;
                for k in 0..span {
                    if lru.touch(node << 8 | k.min(255)) {
                        hits += 1;
                    } else {
                        misses += 1;
                    }
                }
                drop(guard);
                if hits > 0 {
                    self.cache_hits.fetch_add(hits, Ordering::Relaxed);
                }
                if misses > 0 {
                    self.read(misses);
                }
            }
        }
    }

    /// Enables an LRU page cache with the given page budget (or disables it
    /// with `0`). Resetting counters does not clear the cache; this does.
    pub fn set_cache(&self, pages: usize) {
        let mut guard = self.cache.lock().expect("cache lock");
        *guard = if pages == 0 {
            None
        } else {
            Some(Lru::new(pages))
        };
        // Publish the flag while still holding the lock so `access` can
        // trust a `false` reading (the Mutex acquisition orders the store).
        self.cache_enabled.store(guard.is_some(), Ordering::Relaxed);
    }

    /// Records `pages` page writes.
    #[inline]
    pub fn write(&self, pages: u64) {
        self.writes.fetch_add(pages, Ordering::Relaxed);
        if let Some(m) = self.metrics.get() {
            m.page_writes.add(pages);
        }
    }

    /// Records `n` CPU operations (distance computations, heap ops, …).
    #[inline]
    pub fn cpu(&self, n: u64) {
        self.cpu_ops.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one node split.
    #[inline]
    pub fn split(&self) {
        self.splits.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = self.metrics.get() {
            m.splits.inc();
        }
    }

    /// Lifetime node-split count (not part of [`IoStats`], not reset).
    pub fn splits(&self) -> u64 {
        self.splits.load(Ordering::Relaxed)
    }

    /// Snapshot of the counters since the last [`Self::reset`].
    pub fn stats(&self) -> IoStats {
        // `saturating_sub` guards the benign race where a reset lands
        // between loading a counter and its baseline.
        IoStats {
            page_reads: self
                .reads
                .load(Ordering::Relaxed)
                .saturating_sub(self.reads_base.load(Ordering::Relaxed)),
            page_writes: self
                .writes
                .load(Ordering::Relaxed)
                .saturating_sub(self.writes_base.load(Ordering::Relaxed)),
            cpu_ops: self
                .cpu_ops
                .load(Ordering::Relaxed)
                .saturating_sub(self.cpu_ops_base.load(Ordering::Relaxed)),
            cache_hits: self
                .cache_hits
                .load(Ordering::Relaxed)
                .saturating_sub(self.cache_hits_base.load(Ordering::Relaxed)),
        }
    }

    /// Starts a new accounting epoch (the cache contents survive; call
    /// [`Self::set_cache`] to repopulate from cold).
    ///
    /// Snapshot-and-swap: the live counters are never zeroed — each
    /// current value is captured into its baseline, and [`Self::stats`]
    /// reports the difference. Concurrent `access`/`read`/`write` calls
    /// can therefore never be lost to a racing reset (the old `store(0)`
    /// erased increments that landed between the reset's stores), and
    /// bound registry metrics keep their monotonic lifetime totals.
    pub fn reset(&self) {
        self.reads_base
            .store(self.reads.load(Ordering::Relaxed), Ordering::Relaxed);
        self.writes_base
            .store(self.writes.load(Ordering::Relaxed), Ordering::Relaxed);
        self.cpu_ops_base
            .store(self.cpu_ops.load(Ordering::Relaxed), Ordering::Relaxed);
        self.cache_hits_base
            .store(self.cache_hits.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// A snapshot of accumulated I/O and CPU cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Simulated page reads (cache misses when a cache is enabled).
    pub page_reads: u64,
    /// Simulated page writes.
    pub page_writes: u64,
    /// Abstract CPU operations (distance computations, heap operations).
    pub cpu_ops: u64,
    /// Page touches served by the LRU cache.
    pub cache_hits: u64,
}

impl IoStats {
    /// Difference `self − earlier`, for measuring one operation.
    pub fn since(&self, earlier: IoStats) -> IoStats {
        IoStats {
            page_reads: self.page_reads - earlier.page_reads,
            page_writes: self.page_writes - earlier.page_writes,
            cpu_ops: self.cpu_ops - earlier.cpu_ops,
            cache_hits: self.cache_hits - earlier.cache_hits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let t = CostTracker::default();
        t.read(3);
        t.read(1);
        t.write(2);
        t.cpu(10);
        let s = t.stats();
        assert_eq!(s.page_reads, 4);
        assert_eq!(s.page_writes, 2);
        assert_eq!(s.cpu_ops, 10);
        t.reset();
        assert_eq!(t.stats(), IoStats::default());
    }

    #[test]
    fn since_diffs() {
        let a = IoStats {
            page_reads: 10,
            page_writes: 4,
            cpu_ops: 100,
            cache_hits: 7,
        };
        let b = IoStats {
            page_reads: 4,
            page_writes: 1,
            cpu_ops: 40,
            cache_hits: 2,
        };
        let d = a.since(b);
        assert_eq!(d.page_reads, 6);
        assert_eq!(d.page_writes, 3);
        assert_eq!(d.cpu_ops, 60);
        assert_eq!(d.cache_hits, 5);
    }

    #[test]
    fn cache_turns_repeats_into_hits() {
        let t = CostTracker::default();
        t.set_cache(2);
        t.access(1, 1); // miss
        t.access(1, 1); // hit
        t.access(2, 1); // miss
        t.access(1, 1); // hit
        let s = t.stats();
        assert_eq!(s.page_reads, 2);
        assert_eq!(s.cache_hits, 2);
    }

    #[test]
    fn cache_evicts_least_recently_used() {
        let t = CostTracker::default();
        t.set_cache(2);
        t.access(1, 1); // miss {1}
        t.access(2, 1); // miss {1,2}
        t.access(1, 1); // hit (1 now MRU)
        t.access(3, 1); // miss, evicts 2 → {1,3}
        t.access(2, 1); // miss again
        t.access(1, 1); // 1 evicted by 2? {3,2} — 1 was LRU → miss
        let s = t.stats();
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.page_reads, 5);
    }

    #[test]
    fn disabled_cache_counts_raw_reads() {
        let t = CostTracker::default();
        t.access(9, 3);
        assert_eq!(t.stats().page_reads, 3);
        assert_eq!(t.stats().cache_hits, 0);
        t.set_cache(4);
        t.access(9, 3);
        t.access(9, 3);
        assert_eq!(t.stats().cache_hits, 3);
        t.set_cache(0);
        t.access(9, 3);
        assert_eq!(t.stats().cache_hits, 3, "cache disabled again");
    }

    #[test]
    fn reset_starts_new_epoch_without_zeroing_lifetime() {
        let t = CostTracker::default();
        t.bind_metrics(TreeMetrics::register(&Registry::new(), "test_tree"));
        let m = t.metrics.get().expect("bound").clone();
        t.read(5);
        t.write(2);
        t.reset();
        assert_eq!(t.stats(), IoStats::default(), "fresh epoch reads as zero");
        t.read(3);
        assert_eq!(t.stats().page_reads, 3, "only post-reset events");
        // The registry mirror keeps the lifetime totals across resets.
        assert_eq!(m.page_reads.get(), 8);
        assert_eq!(m.page_writes.get(), 2);
    }

    #[test]
    fn bind_metrics_seeds_lifetime_totals_and_binds_once() {
        let t = CostTracker::default();
        t.read(7);
        t.split();
        let r = Registry::new();
        t.bind_metrics(TreeMetrics::register(&r, "seeded"));
        assert_eq!(
            r.snapshot().counter("nncell_seeded_page_reads_total"),
            Some(7)
        );
        assert_eq!(r.snapshot().counter("nncell_seeded_splits_total"), Some(1));
        // A second bind must not double-seed.
        t.bind_metrics(TreeMetrics::register(&r, "seeded"));
        assert_eq!(
            r.snapshot().counter("nncell_seeded_page_reads_total"),
            Some(7)
        );
        t.read(1);
        assert_eq!(
            r.snapshot().counter("nncell_seeded_page_reads_total"),
            Some(8)
        );
    }

    #[test]
    fn concurrent_access_racing_reset_loses_nothing() {
        // Under the old `store(0)` reset, increments landing between the
        // reset's per-counter stores were erased; with baselines the
        // lifetime total must equal exactly the events recorded.
        let t = CostTracker::default();
        let total = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..2_000 {
                        t.access(1, 1);
                        total.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            s.spawn(|| {
                for _ in 0..200 {
                    t.reset();
                    std::hint::spin_loop();
                }
            });
        });
        // No cache: every access is one read. The final epoch may hide
        // pre-reset events from stats(), but the internal lifetime counter
        // must have seen every single one.
        assert_eq!(
            t.reads.load(Ordering::Relaxed),
            total.load(Ordering::Relaxed),
            "a racing reset must never erase concurrent increments"
        );
    }

    #[test]
    fn supernode_pages_cached_individually() {
        let t = CostTracker::default();
        t.set_cache(2);
        t.access(5, 3); // 3 pages, budget 2 → 3 misses, 2 retained
        assert_eq!(t.stats().page_reads, 3);
        t.access(5, 3); // pages re-touched: first page was evicted
        let s = t.stats();
        assert!(s.cache_hits < 6, "not everything can hit with budget 2");
        assert!(s.page_reads > 3);
    }
}
