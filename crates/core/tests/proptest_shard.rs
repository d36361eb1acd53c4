//! ShardedIndex parity: for any shard count the sharded index must be
//! bit-identical to the unsharded one and to a linear scan — same ids,
//! same distance bits, same ranking, tie ordering included — whether
//! the live points sit in the shards' snapshots or in their memtable
//! tails.
//!
//! Points are drawn from a deliberately coarse lattice so equidistant
//! rivals (ties) are common, also across shards, and the fan-out's
//! `(distance, global id)` ordering is actually exercised, not vacuously
//! satisfied.

use nncell_core::{
    linear_scan_knn, BuildConfig, NnCellIndex, Query, QueryEngine, QueryError, QueryResponse,
    Registry, ShardedIndex, Strategy as BuildStrategy,
};
use nncell_geom::{dist, dist_sq, Point};
use proptest::prelude::*;
use proptest::TestCaseError;

/// Coarse lattice coordinate: 9 levels per axis ⇒ frequent exact ties.
fn coarse_coord() -> impl Strategy<Value = f64> {
    (0..=8u32).prop_map(|v| v as f64 / 8.0)
}

fn lattice_points(d: usize, min: usize, max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(prop::collection::vec(coarse_coord(), d), min..max).prop_filter_map(
        "distinct points",
        |pts| {
            for (i, p) in pts.iter().enumerate() {
                for q in pts.iter().skip(i + 1) {
                    if dist_sq(p, q) == 0.0 {
                        return None;
                    }
                }
            }
            Some(pts.into_iter().map(Point::new).collect())
        },
    )
}

/// Full-response equality: winner, ranking, ids, and distance *bits*.
fn assert_bit_identical(
    sharded: &QueryResponse,
    whole: &QueryResponse,
    ctx: &str,
) -> Result<(), TestCaseError> {
    let s: Vec<_> = sharded.iter().collect();
    let w: Vec<_> = whole.iter().collect();
    prop_assert_eq!(s.len(), w.len(), "result count: {}", ctx);
    for (rank, (a, b)) in s.iter().zip(&w).enumerate() {
        prop_assert_eq!(a.id, b.id, "id at rank {}: {}", rank, ctx);
        prop_assert_eq!(
            a.dist.to_bits(),
            b.dist.to_bits(),
            "distance bits at rank {}: {}",
            rank,
            ctx
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn sharded_nn_and_knn_match_unsharded(
        pts in lattice_points(2, 4, 26),
        queries in prop::collection::vec(prop::collection::vec(coarse_coord(), 2), 5),
        shards in 1usize..=4,
        k in 1usize..=6,
    ) {
        let cfg = BuildConfig::builder().strategy(BuildStrategy::Sphere).seed(7).build();
        let whole = NnCellIndex::build(pts.clone(), cfg.clone()).unwrap();
        let engine = QueryEngine::sequential(&whole);
        let sharded = ShardedIndex::build(pts.clone(), shards, cfg).unwrap();
        prop_assert_eq!(sharded.len(), pts.len());
        let k = k.min(pts.len());
        for q in &queries {
            let ctx = format!("S={shards} q={q:?}");
            let nn_q = Query::nn(q.clone());
            assert_bit_identical(
                &sharded.query(&nn_q).unwrap(),
                &engine.execute(&nn_q).unwrap(),
                &ctx,
            )?;
            let knn_q = Query::knn(q.clone(), k);
            assert_bit_identical(
                &sharded.query(&knn_q).unwrap(),
                &engine.execute(&knn_q).unwrap(),
                &ctx,
            )?;
        }
        // The batch path merges the same way.
        let batch: Vec<Query> = queries.iter().map(|q| Query::knn(q.clone(), k)).collect();
        for (sr, q) in sharded.batch(&batch).into_iter().zip(&batch) {
            assert_bit_identical(&sr.unwrap(), &engine.execute(q).unwrap(), "batch")?;
        }
    }

    #[test]
    fn sharded_then_inserted_matches_rebuilt_whole(
        pts in lattice_points(3, 6, 20),
        shards in 2usize..=4,
    ) {
        // Build from a prefix, insert the rest dynamically: global ids must
        // still equal input positions and answers must match a fresh
        // unsharded build of the full set.
        let cfg = BuildConfig::builder().strategy(BuildStrategy::Sphere).seed(11).build();
        let split = pts.len() / 2;
        let sharded =
            ShardedIndex::build(pts[..split].to_vec(), shards, cfg.clone()).unwrap();
        assert_no_lp(&sharded);
        for (g, p) in pts.iter().enumerate().skip(split) {
            let got = sharded.query(&Query::nn(p.as_slice())).unwrap();
            prop_assert!(got.best.id < g, "pre-insert winner must be an older point");
            let assigned = sharded.insert(p.clone()).unwrap();
            prop_assert_eq!(assigned, g, "round-robin ids track input positions");
        }
        assert_no_lp(&sharded);
        let whole = NnCellIndex::build(pts.clone(), cfg).unwrap();
        let engine = QueryEngine::sequential(&whole);
        for (g, p) in pts.iter().enumerate() {
            let q = Query::nn(p.as_slice());
            let got = sharded.query(&q).unwrap();
            prop_assert_eq!(got.best.id, g, "every point is its own nearest neighbor");
            assert_bit_identical(&got, &engine.execute(&q).unwrap(), "post-insert")?;
        }
    }
}

/// `(global id, distance bits)` of every live point within `radius` of
/// `q` (all of them for `radius = ∞`), ranked by `(distance, id)` — the
/// linear-scan oracle.
fn scan(live: &[(usize, &Point)], q: &[f64], radius: f64) -> Vec<(usize, u64)> {
    let mut all: Vec<(f64, usize)> = live
        .iter()
        .map(|(id, p)| (dist_sq(q, p).sqrt(), *id))
        .filter(|(d, _)| *d <= radius)
        .collect();
    all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    all.into_iter().map(|(d, id)| (id, d.to_bits())).collect()
}

fn answer_bits(r: &QueryResponse) -> Vec<(usize, u64)> {
    r.iter().map(|x| (x.id, x.dist.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Snapshots plus memtable tails on every shard: a prefix is built,
    /// the rest is inserted (part of it folded, the remainder left in the
    /// tails), then ids are removed from snapshots and tails alike. Every
    /// k-NN (k ≥ live count included) and radius answer of the one-forest
    /// fan-out equals the linear scan over the live set by
    /// `(distance, global id)`, before and after a flush.
    #[test]
    fn forest_with_tails_matches_linear_scan(
        pts in lattice_points(2, 2, 40),
        shards in 1usize..=4,
        built_share in 0usize..=100,
        folded_share in 0usize..=100,
        removes in prop::collection::vec(0usize..64, 0..10),
        queries in prop::collection::vec(prop::collection::vec(coarse_coord(), 2), 3),
        k in 1usize..=8,
    ) {
        let cfg = BuildConfig::builder().strategy(BuildStrategy::Sphere).seed(5).build();
        let built = pts.len() * built_share / 100;
        let idx = if built == 0 {
            ShardedIndex::new(2, shards, cfg)
        } else {
            ShardedIndex::build(pts[..built].to_vec(), shards, cfg).unwrap()
        };
        let folded = built + (pts.len() - built) * folded_share / 100;
        for (g, p) in pts.iter().enumerate().skip(built) {
            prop_assert_eq!(idx.insert(p.clone()).unwrap(), g);
            if g + 1 == folded {
                idx.flush().unwrap();
            }
        }
        let mut dead = vec![false; pts.len()];
        for &r in &removes {
            let g = r % pts.len();
            prop_assert_eq!(idx.remove(g).unwrap(), !dead[g], "remove {}", g);
            dead[g] = true;
        }
        let live: Vec<(usize, &Point)> =
            pts.iter().enumerate().filter(|(g, _)| !dead[*g]).collect();
        prop_assert_eq!(idx.len(), live.len());
        for pass in ["tails", "flushed"] {
            let tails = idx.tail_depth() > 0;
            for q in &queries {
                let ctx = format!("S={shards} {pass} q={q:?} live={}", live.len());
                let want_all = scan(&live, q, f64::INFINITY);
                for k in [k, live.len().max(1), live.len() + 3] {
                    match idx.query(&Query::knn(q.clone(), k)) {
                        Ok(r) => {
                            let want: Vec<_> = want_all.iter().copied().take(k).collect();
                            prop_assert_eq!(answer_bits(&r), want, "k={} {}", k, &ctx);
                            prop_assert_eq!(
                                r.stats.fallback,
                                !tails && k >= live.len(),
                                "k={} {}", k, &ctx
                            );
                        }
                        Err(e) => {
                            prop_assert!(live.is_empty(), "k={} {}: {:?}", k, &ctx, e);
                            prop_assert_eq!(e, QueryError::EmptyIndex);
                        }
                    }
                }
                for radius in [0.0, 0.125, 0.3, 2.0] {
                    let want = scan(&live, q, radius);
                    match idx.query(&Query::radius(q.clone(), radius)) {
                        Ok(r) => prop_assert_eq!(answer_bits(&r), want, "r={} {}", radius, &ctx),
                        Err(QueryError::EmptyRadius) if !live.is_empty() => {
                            prop_assert!(want.is_empty(), "r={} {}", radius, &ctx)
                        }
                        // No live point at all: a fully tombstoned snapshot
                        // answers like an empty ball, a fully flushed one
                        // like an empty index.
                        Err(e) => {
                            prop_assert!(live.is_empty(), "r={} {}: {:?}", radius, &ctx, e);
                            prop_assert!(
                                matches!(e, QueryError::EmptyIndex | QueryError::EmptyRadius),
                                "r={} {}: {:?}", radius, &ctx, e
                            );
                        }
                    }
                }
            }
            idx.flush().unwrap();
        }
    }
}

/// A one-shard sharded index is the forest of one: its answers and every
/// work counter equal those of a `QueryEngine` on its lone shard.
#[test]
fn a_one_shard_fan_out_reports_its_engines_counts() {
    let pts: Vec<Point> = (0..500)
        .map(|i| {
            Point::new(vec![
                ((i * 37) % 500) as f64 / 500.0,
                ((i * 113) % 500) as f64 / 500.0,
            ])
        })
        .collect();
    let cfg = BuildConfig::builder()
        .strategy(BuildStrategy::Sphere)
        .seed(5)
        .build();
    let sharded = ShardedIndex::build(pts, 1, cfg).unwrap();
    let snap = sharded.shard(0);
    let engine = QueryEngine::sequential(&snap);
    let mut pruned = 0;
    for i in 0..60 {
        let q = vec![(i * 7 % 60) as f64 / 60.0, (i * 13 % 60) as f64 / 60.0];
        for query in [
            Query::nn(q.clone()),
            Query::knn(q.clone(), 10),
            Query::radius(q, 0.1),
        ] {
            let a = sharded.query(&query).unwrap();
            let b = engine.execute(&query).unwrap();
            assert_eq!(answer_bits(&a), answer_bits(&b), "{query:?}");
            assert_eq!(a.stats, b.stats, "{query:?}");
            pruned += a.stats.nodes_pruned;
        }
    }
    assert!(
        pruned > 0,
        "the traversal must prune for the counts to mean anything"
    );
}

#[test]
fn fan_out_fallback_counts_match_unsharded() {
    // k ≥ live count forces the exact-scan fallback. The fan-out is one
    // search over every shard, so it falls back exactly when the
    // unsharded index does, at any shard count, and the registry counts
    // the fallback once.
    let pts: Vec<Point> = (0..6)
        .map(|i| Point::new(vec![i as f64 / 8.0, (i * 3 % 7) as f64 / 8.0]))
        .collect();
    let cfg = BuildConfig::builder()
        .strategy(BuildStrategy::Sphere)
        .seed(5)
        .build();
    let queries = [
        Query::knn(vec![0.5, 0.5], pts.len()), // k == n → fallback
        Query::nn(vec![0.1, 0.9]),             // in-space NN → no fallback
        Query::knn(vec![0.3, 0.3], 2),
        Query::knn(vec![0.3, 0.3], 4), // k > any shard's len at S ≥ 2 → no fallback
        Query::nn(vec![2.0, 2.0]),     // outside the unit space → no fallback either
    ];
    for shards in 1..=3 {
        let mut whole = NnCellIndex::build(pts.clone(), cfg.clone()).unwrap();
        let whole_registry = Registry::new();
        whole.attach_metrics(whole_registry.clone());
        let engine = QueryEngine::sequential(&whole);
        let sharded = ShardedIndex::build(pts.clone(), shards, cfg.clone()).unwrap();
        let registry = Registry::new();
        sharded.attach_metrics(registry.clone());
        let mut fallbacks = 0u64;
        for q in &queries {
            let a = sharded.query(q).unwrap();
            let b = engine.execute(q).unwrap();
            assert_eq!(a.stats.fallback, b.stats.fallback, "S={shards} {q:?}");
            assert_eq!(answer_bits(&a), answer_bits(&b), "S={shards} {q:?}");
            fallbacks += u64::from(a.stats.fallback);
        }
        assert_eq!(fallbacks, 1, "test must exercise the fallback");
        let counted = |registry: &Registry, series: &str| registry.snapshot().counter(series);
        assert_eq!(
            counted(&whole_registry, "nncell_query_fallback_total"),
            Some(fallbacks)
        );
        assert_eq!(
            counted(&registry, "nncell_query_fallback_total"),
            Some(fallbacks),
            "S={shards}"
        );
    }
}

/// Distinct deterministic points on a 100×100 lattice, off the boundary.
fn grid_point(i: usize) -> Point {
    Point::new(vec![
        (i % 97) as f64 / 100.0 + 0.005,
        (i / 97 % 97) as f64 / 100.0 + 0.005,
    ])
}

#[test]
fn save_load_round_trips_through_a_manifest() {
    let pts: Vec<Point> = (0..17).map(grid_point).collect();
    let cfg = BuildConfig::builder().strategy(BuildStrategy::Sphere).seed(9).build();
    let sharded = ShardedIndex::build(pts.clone(), 3, cfg.clone()).unwrap();
    let root = std::env::temp_dir().join(format!("nncell_shard_{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let dir = root.join("saved");
    sharded.save(&dir).unwrap();
    let loaded = ShardedIndex::load(&dir).unwrap();
    assert_eq!(loaded.num_shards(), 3);
    assert_eq!(loaded.len(), pts.len());
    for (g, p) in pts.iter().enumerate() {
        let r = loaded.query(&Query::nn(p.as_slice())).unwrap();
        assert_eq!(r.best.id, g, "global ids survive the round trip");
    }
    // Inserts keep numbering where the save left off.
    assert_eq!(loaded.insert(grid_point(17)).unwrap(), 17);

    // `open` detects all four layouts, each written by its own writer,
    // and every one answers bit-identically to the index that wrote it.
    let whole = NnCellIndex::build(pts.clone(), cfg.clone()).unwrap();
    let probes: Vec<Query> = (0..12)
        .map(|i| {
            Query::knn(
                vec![(i * 7 % 12) as f64 / 12.0, (i * 5 % 12) as f64 / 12.0],
                4,
            )
        })
        .collect();
    let answers = |f: &dyn Fn(&Query) -> QueryResponse| -> Vec<QueryResponse> {
        probes.iter().map(f).collect()
    };
    let whole_answers = answers(&|q| QueryEngine::sequential(&whole).execute(q).unwrap());
    let sharded_answers = answers(&|q| sharded.query(q).unwrap());

    let file = root.join("whole.nncell");
    whole.save(&file).unwrap();
    // The older unsharded durable layout (`dir/CURRENT` holds a
    // generation) is exactly one shard directory of a sharded durable
    // directory: lift `shard-0/` out of a one-shard conversion.
    let unsharded_durable = root.join("durable");
    let one_shard = root.join("one-shard");
    drop(
        ShardedIndex::build(pts.clone(), 1, cfg.clone())
            .unwrap()
            .into_durable(&one_shard)
            .unwrap(),
    );
    std::fs::rename(one_shard.join("shard-0"), &unsharded_durable).unwrap();
    let sharded_durable = root.join("sharded-durable");
    let converted = ShardedIndex::build(pts.clone(), 3, cfg)
        .unwrap()
        .into_durable(&sharded_durable)
        .unwrap();
    let converted_answers = answers(&|q| converted.query(q).unwrap());
    drop(converted);

    for (path, writer, shards, durable) in [
        (&file, &whole_answers, 1, false),
        (&dir, &sharded_answers, 3, false),
        (&unsharded_durable, &whole_answers, 1, true),
        (&sharded_durable, &converted_answers, 3, true),
    ] {
        let opened = ShardedIndex::open(path).unwrap();
        let ctx = format!("{path:?}");
        assert_eq!(opened.num_shards(), shards, "{ctx}");
        assert_eq!(opened.is_durable(), durable, "{ctx}");
        assert_eq!(opened.len(), pts.len(), "{ctx}");
        for (q, want) in probes.iter().zip(writer) {
            let ok = assert_bit_identical(&opened.query(q).unwrap(), want, &ctx).is_ok();
            assert!(ok, "{ctx}: {q:?} diverged from the writer's answer");
        }
    }

    // The unsharded durable directory is one durable shard rooted at the
    // directory itself: it takes writes and checkpoints in place, and the
    // result still opens as the same one-shard layout.
    let opened = ShardedIndex::open(&unsharded_durable).unwrap();
    assert_eq!(opened.insert(grid_point(17)).unwrap(), 17);
    opened.checkpoint().unwrap();
    drop(opened);
    assert!(!unsharded_durable.join("shard-0").exists(), "layout must stay unsharded");
    let reopened = ShardedIndex::open(&unsharded_durable).unwrap();
    assert_eq!(reopened.num_shards(), 1);
    assert_eq!(reopened.recovery()[0].generation, 1);
    assert_eq!(reopened.len(), 18);
    let hit = reopened.query(&Query::nn(grid_point(17).as_slice())).unwrap();
    assert_eq!(hit.best.id, 17);
    assert!(hit.best.dist < 1e-12);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn durable_shards_recover_acknowledged_updates() {
    use nncell_core::{FaultSchedule, FaultVfs, PersistError, Vfs};
    use std::path::PathBuf;
    use std::sync::Arc;

    let fault = FaultVfs::new(FaultSchedule::none(11));
    let vfs: Arc<dyn Vfs> = Arc::new(fault.clone());
    let dir = PathBuf::from("/db");
    let cfg = || BuildConfig::builder().strategy(BuildStrategy::Sphere).seed(13).build();

    let sharded =
        ShardedIndex::open_durable_with_vfs(Arc::clone(&vfs), &dir, 2, 3, cfg()).unwrap();
    assert!(sharded.is_durable());
    for i in 0..11 {
        assert_eq!(sharded.insert(grid_point(i)).unwrap(), i);
    }
    assert!(sharded.remove(4).unwrap());
    assert!(sharded.wal_records() > 0, "updates must be journaled");
    drop(sharded); // crash: no checkpoint, no close — WAL replay must cover it

    let recovered =
        ShardedIndex::open_durable_with_vfs(Arc::clone(&vfs), &dir, 2, 3, cfg()).unwrap();
    assert_no_lp(&recovered);
    assert_eq!(recovered.len(), 10);
    assert_eq!(recovered.recovery().len(), 3);
    for i in 0..11 {
        if i == 4 {
            continue;
        }
        let p = grid_point(i);
        let r = recovered.query(&Query::nn(p.as_slice())).unwrap();
        assert_eq!(r.best.id, i, "acknowledged insert {i} must survive the crash");
    }
    // Numbering resumes after the recovered watermark.
    assert_eq!(recovered.insert(grid_point(11)).unwrap(), 11);
    recovered.close().unwrap();

    // A shard-count mismatch is a typed corruption, not silent resharding.
    match ShardedIndex::open_durable_with_vfs(Arc::clone(&vfs), &dir, 2, 4, cfg()) {
        Err(PersistError::Corrupt(_)) => {}
        Err(e) => panic!("expected Corrupt, got {e:?}"),
        Ok(_) => panic!("shard-count mismatch must not open"),
    }
}

/// A rejected insert — a duplicate of a folded or of a still-unfolded
/// point, a non-finite point, a point of the wrong dimension — journals
/// nothing, changes nothing and consumes no global id.
#[test]
fn invalid_inserts_journal_nothing() {
    use nncell_core::{BuildError, DurableError, FaultSchedule, FaultVfs, Vfs};
    use std::path::Path;
    use std::sync::Arc;

    let vfs: Arc<dyn Vfs> = Arc::new(FaultVfs::new(FaultSchedule::none(11)));
    let cfg = BuildConfig::builder().strategy(BuildStrategy::Sphere).seed(13).build();
    let sharded = ShardedIndex::open_durable_with_vfs(vfs, Path::new("/db"), 2, 2, cfg).unwrap();
    for i in 0..2 {
        sharded.insert(grid_point(i)).unwrap();
    }
    sharded.fold_once().unwrap();
    sharded.insert(grid_point(2)).unwrap(); // stays in the tail
    let before = sharded.wal_records();

    for of in 0..3 {
        match sharded.insert(grid_point(of)) {
            Err(DurableError::Invalid(BuildError::DuplicatePoint { id: 3, of: got })) => {
                assert_eq!(got, of, "the duplicate names its twin's global id");
            }
            other => panic!("duplicate of {of}: expected DuplicatePoint, got {other:?}"),
        }
    }
    assert!(matches!(
        sharded.insert(Point::new(vec![f64::NAN, 0.5])),
        Err(DurableError::Invalid(BuildError::NonFinitePoint { .. }))
    ));
    assert!(matches!(
        sharded.insert(Point::new(vec![0.5])),
        Err(DurableError::Invalid(BuildError::DimensionMismatch { .. }))
    ));
    assert_eq!(sharded.wal_records(), before, "rejected updates must not reach the WAL");
    assert_eq!(sharded.len(), 3);
    assert_eq!(sharded.tail_depth(), 1);
    assert_eq!(sharded.insert(grid_point(3)).unwrap(), 3, "no id was consumed");
}

/// −0.0 and +0.0 are one coordinate for a sharded build, as for an
/// insert: the build names the second copy a duplicate of the first,
/// `Skip` keeps one copy, and inserting the other sign is rejected.
#[test]
fn a_signed_zero_twin_is_a_duplicate_for_the_sharded_build() {
    use nncell_core::{BuildError, DurableError, InputPolicy};
    let pts = || {
        vec![
            Point::new(vec![0.0, 0.5]),
            Point::new(vec![0.25, 0.25]),
            Point::new(vec![-0.0, 0.5]),
        ]
    };
    let cfg = |policy| {
        BuildConfig::builder()
            .strategy(BuildStrategy::Sphere)
            .input_policy(policy)
            .build()
    };
    assert!(matches!(
        ShardedIndex::build(pts(), 2, cfg(InputPolicy::Reject)),
        Err(BuildError::DuplicatePoint { id: 2, of: 0 })
    ));
    let idx = ShardedIndex::build(pts(), 2, cfg(InputPolicy::Skip)).unwrap();
    assert_eq!((idx.len(), idx.build_stats().skipped_points), (2, 1));
    assert!(matches!(
        idx.insert(Point::new(vec![-0.0, 0.5])),
        Err(DurableError::Invalid(BuildError::DuplicatePoint { id: 2, of: 0 }))
    ));
}

#[test]
fn queries_run_concurrently_with_inserts() {
    use std::sync::atomic::{AtomicBool, Ordering};

    // Deterministic distinct points in the unit square via an LCG.
    let mut state = 0x1234_5678_9abc_def0u64;
    let mut coord = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / (u32::MAX >> 1) as f64
    };
    let pts: Vec<Point> = (0..64)
        .map(|_| Point::new(vec![coord(), coord(), coord()]))
        .collect();

    let cfg = BuildConfig::builder().strategy(BuildStrategy::Sphere).seed(3).build();
    let sharded = ShardedIndex::build(pts[..8].to_vec(), 3, cfg).unwrap();
    let stop = AtomicBool::new(false);
    // The writes can finish before a reader thread is even scheduled, so
    // the writer waits until both readers are serving.
    let serving = std::sync::Barrier::new(3);
    std::thread::scope(|s| {
        for reader in 0..2 {
            let sharded = &sharded;
            let stop = &stop;
            let serving = &serving;
            let probe = pts[reader].as_slice().to_vec();
            s.spawn(move || {
                let mut served = 0u32;
                loop {
                    // Readers must never block, error, or observe a
                    // half-applied insert: every response is a live point.
                    let r = sharded.query(&Query::nn(probe.clone())).unwrap();
                    assert!(r.best.dist.is_finite());
                    assert!(r.best.id < 64, "id {} was never assigned", r.best.id);
                    served += 1;
                    if served == 1 {
                        serving.wait();
                    }
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                assert!(served > 0, "reader never ran");
            });
        }
        serving.wait();
        for p in &pts[8..] {
            sharded.insert(p.clone()).unwrap();
        }
        // Removals publish snapshots under readers too.
        assert!(sharded.remove(10).unwrap());
        assert!(sharded.remove(33).unwrap());
        stop.store(true, Ordering::Relaxed);
    });
    assert_eq!(sharded.len(), 62);
    // Quiesced: every live point answers itself.
    for (g, p) in pts.iter().enumerate() {
        if g == 10 || g == 33 {
            continue;
        }
        let r = sharded.query(&Query::nn(p.as_slice())).unwrap();
        assert_eq!(r.best.id, g, "point {g} must be its own nearest neighbor");
    }
}

/// Deterministic distinct points in the unit cube via an LCG.
fn lcg_points(n: usize, seed: u64) -> Vec<Point> {
    let mut state = seed;
    let mut coord = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / (u32::MAX >> 1) as f64
    };
    (0..n)
        .map(|_| Point::new(vec![coord(), coord(), coord()]))
        .collect()
}

/// A remove-only writer racing parity-checking readers: every concurrent
/// answer must be explainable by some monotone prefix of the removal
/// sequence, with linear-scan agreement on distance *bits*.
///
/// The writer deletes ids `0..n_remove` ascending and publishes a
/// watermark *after* each acked remove. A reader brackets each query with
/// watermark loads `w0`/`w1`; monotone removal then pins what the query
/// could have observed:
///
/// * ids `< w0` were dead before the query started — none may appear;
/// * ids `> w1` could not have been removed during the query — any such
///   point strictly closer (by the merge's `(distance, id)` order) than
///   the worst returned result would have won, so none may exist outside
///   the response, and a short response (fewer than `k` results) must
///   contain every one of them.
///
/// Each reader also issues a radius query around its probe: a fold
/// publishes a shard's index and tail together, so the ball holds every
/// id once, in strict `(distance, id)` order, at scan-exact distances.
fn assert_remove_during_query_parity(idx: &ShardedIndex, pts: &[Point], n_remove: usize) {
    use std::cmp::Ordering as Cmp;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    const RADIUS: f64 = 0.25;

    let n = pts.len();
    let watermark = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    // Memtable removes are journal-only and outrun thread startup; the
    // barrier makes sure every reader brackets at least the storm's tail.
    let start = std::sync::Barrier::new(3);
    std::thread::scope(|s| {
        {
            let (idx, stop) = (&idx, &stop);
            s.spawn(move || idx.run_folder(stop));
        }
        for reader in 0..2 {
            // Probe near a survivor so the live set is never empty.
            let probe: Vec<f64> = pts[n - 1 - reader].as_slice().to_vec();
            let (idx, watermark, stop, pts, start) = (&idx, &watermark, &stop, &pts, &start);
            s.spawn(move || {
                let strictly_closer = |d: f64, id: usize, worst_d: f64, worst_id: usize| {
                    d.total_cmp(&worst_d).then(id.cmp(&worst_id)) == Cmp::Less
                };
                let mut served = 0usize;
                start.wait();
                loop {
                    let k = 1 + served % 3;
                    let w0 = watermark.load(Ordering::Acquire);
                    let resp = idx.query(&Query::knn(probe.clone(), k)).unwrap();
                    let w1 = watermark.load(Ordering::Acquire);
                    served += 1;

                    let results: Vec<_> = resp.iter().collect();
                    assert!(
                        !results.is_empty() && results.len() <= k,
                        "k={k} returned {} results",
                        results.len()
                    );
                    for w in results.windows(2) {
                        assert!(
                            strictly_closer(w[0].dist, w[0].id, w[1].dist, w[1].id),
                            "response not strictly ordered: {:?} vs {:?}",
                            (w[0].dist, w[0].id),
                            (w[1].dist, w[1].id)
                        );
                    }
                    for r in &results {
                        assert!(r.id < n, "id {} was never assigned", r.id);
                        assert!(
                            r.id >= w0,
                            "id {} was removed before the query started (w0={w0})",
                            r.id
                        );
                        let want = dist(&probe, pts[r.id].as_slice());
                        assert_eq!(
                            r.dist.to_bits(),
                            want.to_bits(),
                            "id {}: distance {} diverged from the linear-scan metric {}",
                            r.id,
                            r.dist,
                            want
                        );
                    }
                    // Sandwich: points the writer provably never touched
                    // during the query window behave as in an offline scan.
                    let worst = results.last().expect("nonempty");
                    for pid in (w1 + 1).min(n)..n {
                        if results.iter().any(|r| r.id == pid) {
                            continue;
                        }
                        assert_eq!(
                            results.len(),
                            k,
                            "short response omitted live id {pid} (w1={w1})"
                        );
                        let d = dist(&probe, pts[pid].as_slice());
                        assert!(
                            !strictly_closer(d, pid, worst.dist, worst.id),
                            "live id {pid} at {d} beats returned worst \
                             ({}, id {}) yet was omitted (w0={w0}, w1={w1})",
                            worst.dist,
                            worst.id
                        );
                    }

                    // A radius read racing the same folds: each live point
                    // in the ball once, in strict `(dist, id)` order, at
                    // its linear-scan distance.
                    let w0 = watermark.load(Ordering::Acquire);
                    let ball = idx.query(&Query::radius(probe.clone(), RADIUS)).unwrap();
                    let hits: Vec<_> = ball.iter().collect();
                    for w in hits.windows(2) {
                        assert!(
                            strictly_closer(w[0].dist, w[0].id, w[1].dist, w[1].id),
                            "radius answer not strictly ordered: {:?} vs {:?}",
                            (w[0].dist, w[0].id),
                            (w[1].dist, w[1].id)
                        );
                    }
                    let mut ids: Vec<usize> = hits.iter().map(|r| r.id).collect();
                    ids.sort_unstable();
                    ids.dedup();
                    assert_eq!(ids.len(), hits.len(), "radius answer repeats an id");
                    for r in &hits {
                        assert!(r.id < n, "id {} was never assigned", r.id);
                        assert!(r.id >= w0, "id {} was removed before the radius read", r.id);
                        let want = dist(&probe, pts[r.id].as_slice());
                        assert_eq!(r.dist.to_bits(), want.to_bits(), "radius id {}", r.id);
                        assert!(r.dist <= RADIUS, "id {} outside the ball", r.id);
                    }
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                }
                assert!(served > 0, "reader never ran");
            });
        }
        start.wait();
        for id in 0..n_remove {
            assert!(idx.remove(id).unwrap(), "id {id} was live");
            watermark.store(id + 1, Ordering::Release);
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Release);
    });

    // Quiesced: bit-exact linear-scan parity over the survivors.
    assert_eq!(idx.len(), n - n_remove);
    let survivors: Vec<Point> = pts[n_remove..].to_vec();
    let probe: Vec<f64> = vec![0.5, 0.5, 0.5];
    for k in [1, 3, 7] {
        let got = idx.query(&Query::knn(probe.clone(), k)).unwrap();
        let want = linear_scan_knn(&survivors, &probe, k);
        assert_eq!(got.iter().count(), want.len(), "k={k}");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.id, n_remove + w.id, "k={k}: ranking diverged");
            assert_eq!(g.dist.to_bits(), w.dist.to_bits(), "k={k}: distance bits");
        }
    }
}

/// Shards keep only points: build, insert, remove, fold and recovery run
/// no LP, in the aggregate and in every shard.
fn assert_no_lp(idx: &ShardedIndex) {
    assert_eq!(idx.build_stats().lp.lp_calls, 0);
    for i in 0..idx.num_shards() {
        assert_eq!(idx.shard(i).build_stats().lp.lp_calls, 0, "shard {i}");
    }
}

#[test]
fn removes_race_queries_through_the_memtable_tail() {
    let pts = lcg_points(160, 0x5eed_0011);
    let cfg = BuildConfig::builder().strategy(BuildStrategy::Sphere).seed(3).build();
    // Seed the shards with a prefix, push the rest through the journaled
    // tail, then race a removal storm against a live folder: answers must
    // stay explainable by a prefix of the removals and bit-identical to
    // a linear scan once quiesced.
    let sharded = ShardedIndex::build(pts[..16].to_vec(), 3, cfg).unwrap();
    for (i, p) in pts.iter().enumerate().skip(16) {
        assert_eq!(sharded.insert(p.clone()).unwrap(), i);
    }
    assert_remove_during_query_parity(&sharded, &pts, 150);
    sharded.fold_once().unwrap();
    assert_eq!(sharded.tail_depth(), 0);
    assert_no_lp(&sharded);
}
