//! Pins the region queries' answers and bills on fixed-seed trees.
//!
//! The paper's box queries — `point_query`, `window_query`,
//! `sphere_query`, `page_point_query` and `page_sphere_query` — are run
//! over one fixed query set on a box tree (overlapping boxes, the shape of
//! an NN-cell store) and on a point tree. For each, the returned item
//! sequence (order included, as its length and an FNV-1a hash), the pages
//! read, the cache hits and the CPU ops must equal constants recorded
//! before the recursive walkers became one explicit-stack walk: once with
//! the page cache off and once with a 32-page LRU cache, whose hit count
//! depends on the order in which nodes are touched.
//!
//! `point_query_with` is pinned by its sorted items (its order is its
//! stack order; its one caller sorts), the page count it returns, and
//! its reads and CPU ops, with the cache off.

use nncell_geom::Mbr;
use nncell_index::{ItemId, Tree, TreeConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One pinned row: `(items returned, FNV-1a of the item sequence, page
/// reads, cache hits, CPU ops)`, summed over the query set.
type Row = (usize, u64, u64, u64, u64);

/// 1500 boxes in d = 4 with sides up to 0.3, in an X-tree of 512-byte
/// pages (a deep tree whose directories overlap).
fn box_tree() -> Tree {
    let mut rng = SmallRng::seed_from_u64(41);
    let mut t = Tree::new(TreeConfig::xtree(4).with_block_size(512));
    for i in 0..1500u64 {
        let lo: Vec<f64> = (0..4).map(|_| rng.gen_range(0.0..0.8)).collect();
        let hi: Vec<f64> = lo.iter().map(|l| l + rng.gen_range(0.01..0.3)).collect();
        t.insert(Mbr::new(lo, hi), i);
    }
    t
}

/// 3000 uniform points in d = 6, in an X-tree with point leaves and
/// 1024-byte pages, and every 100th point (30 queries that hit a point).
fn point_tree() -> (Tree, Vec<Vec<f64>>) {
    let cfg = TreeConfig::xtree(6)
        .with_point_leaves(true)
        .with_block_size(1024);
    let mut t = Tree::new(cfg);
    let mut hits = Vec::new();
    for (i, p) in queries(3000, 6, 42).into_iter().enumerate() {
        t.insert(Mbr::from_point(&p), i as ItemId);
        if i % 100 == 0 {
            hits.push(p);
        }
    }
    (t, hits)
}

/// `n` uniform points in `[0, 1)^dim`.
fn queries(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect()
}

fn fnv(hash: &mut u64, items: &[ItemId]) {
    for &id in items {
        for b in id.to_le_bytes() {
            *hash ^= u64::from(b);
            *hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Runs `query` for every point of `qs` on a freshly reset tree and sums
/// its answers and bill.
fn pin(t: &Tree, qs: &[Vec<f64>], mut query: impl FnMut(&Tree, &[f64]) -> Vec<ItemId>) -> Row {
    t.reset_stats();
    let (mut len, mut hash) = (0usize, 0xcbf2_9ce4_8422_2325u64);
    for q in qs {
        let items = query(t, q);
        len += items.len();
        fnv(&mut hash, &items);
    }
    let s = t.stats();
    (len, hash, s.page_reads, s.cache_hits, s.cpu_ops)
}

/// The five region queries of one tree, cache off then a 32-page cache;
/// the sphere queries use radius `r`, the page sphere queries `r / 2`.
fn region_rows(t: &Tree, qs: &[Vec<f64>], r: f64) -> Vec<Row> {
    let window = |q: &[f64]| {
        let lo: Vec<f64> = q.iter().map(|c| c - 0.1).collect();
        let hi: Vec<f64> = q.iter().map(|c| c + 0.1).collect();
        Mbr::new(lo, hi)
    };
    let mut rows = Vec::new();
    for cache in [0, 32] {
        t.enable_cache(cache);
        rows.push(pin(t, qs, |t, q| t.point_query(q)));
        rows.push(pin(t, qs, |t, q| t.window_query(&window(q))));
        rows.push(pin(t, qs, |t, q| t.sphere_query(q, r)));
        rows.push(pin(t, qs, |t, q| t.page_point_query(q)));
        rows.push(pin(t, qs, |t, q| t.page_sphere_query(q, r / 2.0)));
    }
    t.enable_cache(0);
    rows
}

/// `point_query_with` over `qs`, cache off: `(sorted items, FNV-1a of the
/// sorted item lists, pages it returned, page reads, cache hits, CPU ops)`.
fn buffered_row(t: &Tree, qs: &[Vec<f64>]) -> (usize, u64, u64, u64, u64, u64) {
    let (mut stack, mut out) = (Vec::new(), Vec::new());
    let mut returned = 0u64;
    let (len, hash, reads, hits, cpu) = pin(t, qs, |t, q| {
        returned += t.point_query_with(q, &mut stack, &mut out);
        let mut items = out.clone();
        items.sort_unstable();
        items
    });
    (len, hash, returned, reads, hits, cpu)
}

/// Box tree rows: point, window, sphere, page point and page sphere
/// queries with the cache off, then the same five with a 32-page cache.
const BOX_ROWS: [Row; 10] = [
    (40, 5_476_876_639_312_056_441, 991, 0, 4434),
    (1153, 11_381_378_387_118_374_240, 2681, 0, 11_427),
    (1887, 12_583_574_244_930_971_456, 3641, 0, 15_335),
    (700, 17_352_337_393_763_409_952, 991, 0, 4434),
    (2803, 17_385_296_539_718_506_031, 2012, 0, 8691),
    (40, 5_476_876_639_312_056_441, 548, 443, 4434),
    (1153, 11_381_378_387_118_374_240, 2533, 148, 11_427),
    (1887, 12_583_574_244_930_971_456, 3586, 55, 15_335),
    (700, 17_352_337_393_763_409_952, 548, 443, 4434),
    (2803, 17_385_296_539_718_506_031, 1796, 216, 8691),
];

/// Point tree rows, in the order of [`BOX_ROWS`].
const POINT_ROWS: [Row; 10] = [
    (30, 12_970_181_916_927_906_078, 214, 0, 1643),
    (38, 14_608_944_278_247_570_562, 518, 0, 4585),
    (431, 16_448_287_673_167_537_101, 1961, 0, 20_035),
    (509, 8_000_385_982_551_543_849, 214, 0, 1643),
    (3887, 15_859_924_589_358_735_897, 711, 0, 6571),
    (30, 12_970_181_916_927_906_078, 79, 135, 1643),
    (38, 14_608_944_278_247_570_562, 324, 194, 4585),
    (431, 16_448_287_673_167_537_101, 1785, 176, 20_035),
    (509, 8_000_385_982_551_543_849, 73, 141, 1643),
    (3887, 15_859_924_589_358_735_897, 515, 196, 6571),
];

const BOX_BUFFERED: (usize, u64, u64, u64, u64, u64) =
    (40, 17_569_422_859_868_134_765, 991, 991, 0, 4434);
const POINT_BUFFERED: (usize, u64, u64, u64, u64, u64) =
    (30, 12_970_181_916_927_906_078, 214, 214, 0, 1643);

#[test]
fn region_queries_match_the_recorded_constants() {
    let boxes = box_tree();
    let bq = queries(60, 4, 43);
    let (points, mut pq) = point_tree();
    pq.extend(queries(30, 6, 44));
    let got = (
        region_rows(&boxes, &bq, 0.15),
        region_rows(&points, &pq, 0.3),
        buffered_row(&boxes, &bq),
        buffered_row(&points, &pq),
    );
    assert_eq!(got.0, BOX_ROWS, "box tree: (items, hash, reads, hits, cpu)");
    assert_eq!(got.1, POINT_ROWS, "point tree: as for the box tree");
    assert_eq!(got.2, BOX_BUFFERED, "box tree point_query_with");
    assert_eq!(got.3, POINT_BUFFERED, "point tree point_query_with");
}
