//! The serving point index of `nncell`, after Berchtold, Ertl, Keim,
//! Kriegel & Seidl, *"Fast Nearest Neighbor Search in High-dimensional
//! Space"*, ICDE 1998.
//!
//! [`NnCellIndex`] stores the points, their liveness and a point X-tree;
//! build is an STR bulk load, updates are point-tree inserts and deletes,
//! and every query is a MINDIST-ordered best-first search over the point
//! tree, bit-identical to a linear scan. No LP runs here. The paper's
//! precomputed NN-cells live in the `nncell-cells` crate, built on demand
//! from an index for its experiments; their settings still ride in
//! [`BuildConfig`] and their counters in [`BuildStats`].
//!
//! * [`NnCellIndex`] + [`QueryEngine`] — build, exact queries, dynamic
//!   insert & remove,
//! * [`ShardedIndex`] — a kd-partitioned index of shards with one merged
//!   answer, copy-on-write snapshots and a journaled write tail,
//! * [`persist`], [`wal`], [`durable`] — checksummed snapshots, the
//!   write-ahead log and crash recovery,
//! * [`metrics`] — registry bindings for queries, trees and the WAL.

// Indexed loops over parallel coordinate arrays are the house style in this
// numeric code; iterator-zip rewrites obscure the math.
#![allow(clippy::needless_range_loop)]
// Library code must degrade, not panic (typed errors); tests may unwrap
// freely.
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod config;
pub mod durable;
pub mod engine;
pub mod error;
pub mod index;
pub mod memtable;
pub mod metrics;
pub mod persist;
pub mod query;
pub mod scan;
pub mod shard;
pub mod snapshot;
pub mod vfs;
pub mod wal;

pub use config::{
    BuildConfig, BuildConfigBuilder, ConstraintPool, InputPolicy, SolverKind, Strategy,
};
pub use durable::{DurableError, RecoveryReport};
pub use engine::{QueryEngine, QueryScratch};
pub use error::Error;
pub use index::{
    BuildError, BuildProfile, BuildStats, NnCellIndex, PhaseTiming, QueryResult, STR_FILL,
};
pub use memtable::{FoldConfig, FoldError, FoldStatus};
pub use metrics::{EngineMetrics, IndexMetrics, SLOW_QUERY_CAPACITY};
pub use nncell_obs::{Registry, SlowQueryEntry, SlowQueryLog, Snapshot};
pub use persist::PersistError;
pub use query::{Query, QueryError, QueryKind, QueryResponse, QueryStats};
pub use scan::{linear_scan_knn, linear_scan_nn};
pub use shard::ShardedIndex;
pub use snapshot::SnapshotCell;
pub use vfs::{FaultSchedule, FaultVfs, StdVfs, Vfs, VfsFile};
pub use wal::{read_wal, WalMetrics, WalRecord, WalReplay, WalTail, WalWriter};
