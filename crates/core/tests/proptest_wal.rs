//! Property tests of WAL replay against a purely in-memory reference.
//!
//! A random interleaving of inserts, duplicate inserts, and removes —
//! removes of the id inserted one step earlier, of long-dead ids, and of
//! ids that were never assigned — is applied simultaneously to an
//! in-memory [`NnCellIndex`] and to a [`DurableIndex`] over the
//! fault-injection file system. The durable handle is then dropped
//! *without* a checkpoint (the crash path) and recovered. Recovery must
//! reproduce the in-memory index exactly: the same id→point slots, the
//! same liveness and the same query answers. Neither the live updates nor
//! the replay run a single LP.

use nncell_core::durable::DurableError;
use nncell_core::vfs::{FaultSchedule, FaultVfs, Vfs};
use nncell_core::{
    linear_scan_nn, BuildConfig, NnCellIndex, Query, QueryEngine, Strategy as BuildStrategy,
};
use nncell_geom::{Euclidean, Point};
use proptest::prelude::*;
use proptest::TestCaseError;
use std::path::Path;
use std::sync::Arc;

const DIM: usize = 2;

fn cfg() -> BuildConfig {
    BuildConfig::builder().strategy(BuildStrategy::Sphere).seed(23).build()
}

/// Distinct lattice points, so inserts never collide by accident — the
/// only duplicates are the deliberate ones the op stream re-inserts.
fn lattice_point(i: usize) -> Point {
    Point::new(vec![
        (i % 89) as f64 / 100.0 + 0.004,
        (i / 89 % 89) as f64 / 100.0 + 0.004,
    ])
}

/// One op: `(roll, pick)`. `roll` selects the action, `pick` selects a
/// target id where one is needed.
type RawOp = (u8, u8);

#[derive(Debug)]
enum Op {
    Insert,
    /// Re-insert the point of a previously assigned id — must be rejected
    /// by validation on both sides and journal nothing.
    DuplicateInsert(usize),
    /// Remove an arbitrary id: live, dead, or never assigned.
    Remove(usize),
    /// Remove the id assigned by the immediately preceding insert.
    RemoveJustInserted,
}

/// Decodes the raw stream into ops, tracking how many ids exist so that
/// targeted actions have something to target.
fn decode(raw: &[RawOp]) -> Vec<Op> {
    let mut assigned = 0usize;
    let mut ops = Vec::with_capacity(raw.len());
    for &(roll, pick) in raw {
        if roll < 110 || assigned == 0 {
            ops.push(Op::Insert);
            assigned += 1;
        } else if roll < 140 {
            ops.push(Op::DuplicateInsert(pick as usize % assigned));
        } else if roll < 225 {
            // +2 reaches ids that were never assigned.
            ops.push(Op::Remove(pick as usize % (assigned + 2)));
        } else {
            ops.push(Op::RemoveJustInserted);
        }
    }
    ops
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn recovery_reproduces_the_in_memory_index_exactly(
        raw in prop::collection::vec((0u8..=255, 0u8..=255), 1..60),
        queries in prop::collection::vec(prop::collection::vec(0u32..=100, DIM), 6),
    ) {
        let ops = decode(&raw);

        let mut reference = NnCellIndex::<Euclidean>::new(DIM, cfg());
        let vfs: Arc<dyn Vfs> = Arc::new(FaultVfs::new(FaultSchedule::none(41)));
        let dir = Path::new("/db");
        let mut durable =
            NnCellIndex::open_durable_with_vfs(Arc::clone(&vfs), dir, DIM, cfg()).unwrap();

        let mut next = 0usize; // lattice cursor == next id to assign
        let mut last_inserted: Option<usize> = None;
        for op in &ops {
            match op {
                Op::Insert => {
                    let p = lattice_point(next);
                    let got = durable.insert(p.clone());
                    let want = reference.insert(p);
                    prop_assert_eq!(got.unwrap(), want.unwrap());
                    last_inserted = Some(next);
                    next += 1;
                }
                Op::DuplicateInsert(id) => {
                    let p = lattice_point(*id);
                    let wal_before = durable.wal_records();
                    let got = durable.insert(p.clone());
                    let want = reference.insert(p);
                    // Re-inserting a *live* point is a duplicate; if `id`
                    // was removed meanwhile, both sides accept it back —
                    // either way they must agree, and a rejection must not
                    // touch the journal.
                    match (got, want) {
                        (Ok(a), Ok(b)) => {
                            prop_assert_eq!(a, b);
                            last_inserted = Some(next);
                            next += 1;
                        }
                        (Err(DurableError::Invalid(_)), Err(_)) => {
                            prop_assert_eq!(durable.wal_records(), wal_before,
                                "rejected insert reached the WAL");
                        }
                        (got, want) => {
                            return Err(TestCaseError::Fail(format!(
                                "divergent duplicate insert: {got:?} vs {want:?}"
                            )));
                        }
                    }
                }
                Op::Remove(id) => {
                    let removed = durable.remove(*id).unwrap();
                    prop_assert_eq!(removed, reference.remove(*id));
                }
                Op::RemoveJustInserted => {
                    if let Some(id) = last_inserted.take() {
                        let removed = durable.remove(id).unwrap();
                        prop_assert_eq!(removed, reference.remove(id));
                    }
                }
            }
        }

        // Crash: drop without checkpoint, recover from WAL replay alone.
        prop_assert_eq!(durable.build_stats().lp.lp_calls, 0);
        drop(durable);
        let recovered =
            NnCellIndex::open_durable_with_vfs(Arc::clone(&vfs), dir, DIM, cfg()).unwrap();

        // Slot-exact state equality.
        prop_assert_eq!(recovered.points().len(), reference.points().len());
        prop_assert_eq!(recovered.len(), reference.len());
        for i in 0..reference.points().len() {
            prop_assert_eq!(recovered.is_live(i), reference.is_live(i), "liveness of id {}", i);
            prop_assert_eq!(
                recovered.points()[i].as_slice(),
                reference.points()[i].as_slice(),
                "coords of id {}", i
            );
        }

        // Replay is point-tree work only.
        prop_assert_eq!(recovered.build_stats().lp.lp_calls, 0);

        // And queries agree with both the reference and a linear scan.
        let live: Vec<Point> = (0..reference.points().len())
            .filter(|&i| reference.is_live(i))
            .map(|i| reference.points()[i].clone())
            .collect();
        for q in &queries {
            let q: Vec<f64> = q.iter().map(|&v| v as f64 / 100.0).collect();
            let got = QueryEngine::sequential(recovered.index())
                .execute(&Query::nn(q.clone()))
                .ok()
                .map(|r| r.best);
            match (got, linear_scan_nn(&live, &q)) {
                (Some(got), Some(want)) => prop_assert!(
                    (got.dist - want.dist).abs() < 1e-9,
                    "query {:?}: {} vs scan {}", q, got.dist, want.dist
                ),
                (None, None) => {}
                (got, want) => {
                    return Err(TestCaseError::Fail(format!(
                        "query {q:?} disagreement: {got:?} vs {want:?}"
                    )));
                }
            }
        }
    }
}
