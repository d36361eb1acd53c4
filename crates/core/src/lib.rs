//! The NN-cell index — the contribution of Berchtold, Ertl, Keim, Kriegel &
//! Seidl, *"Fast Nearest Neighbor Search in High-dimensional Space"*,
//! ICDE 1998 — next to the point index that serves queries.
//!
//! The paper **precomputes the solution space**: every database point's
//! first-order Voronoi cell (*NN-cell*) is approximated by its minimum
//! bounding rectangle (computed by `2·d` linear programs over bisector
//! halfspaces) and the rectangles are stored in an X-tree. A
//! nearest-neighbor query is then a **point query** on that index plus a
//! distance check — and because every approximation is a *superset* of the
//! true cell, the result is **exact** (no false dismissals; Lemmas 1 and 2
//! of the paper, enforced here by property tests).
//!
//! Serving keeps only what queries read. [`NnCellIndex`] stores the points,
//! their liveness and a point X-tree; build is an STR bulk load, updates are
//! point-tree inserts and deletes, and every query is a MINDIST-ordered
//! best-first search over the point tree, bit-identical to a linear scan.
//! The paper's structure is built on demand from an index as [`NnCells`],
//! for its experiments, quality metrics and lemmas.
//!
//! * [`NnCellIndex`] + [`QueryEngine`] — build, exact queries, dynamic
//!   insert & remove,
//! * [`NnCells`] — the paper's cells: build, §3.5 maintenance and its
//!   point query,
//! * [`Strategy`] — the four constraint-selection algorithms (*Correct*,
//!   *Point*, *Sphere*, *NN-Direction*) plus the exactness-preserving
//!   *CorrectPruned* optimization,
//! * [`decompose`] — the MBR decomposition of section 3 (splitting each cell
//!   along its most oblique dimensions to cut approximation overlap),
//! * [`quality`] — the paper's overlap and quality-to-performance metrics.

// Indexed loops over parallel coordinate arrays are the house style in this
// numeric code; iterator-zip rewrites obscure the math.
#![allow(clippy::needless_range_loop)]
// Library code must degrade, not panic (LP fallback chain, typed errors);
// tests may unwrap freely.
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod cells;
pub mod config;
pub mod decompose;
pub mod durable;
pub mod engine;
pub mod error;
pub mod index;
pub mod memtable;
pub mod metrics;
pub mod persist;
pub mod query;
pub mod quality;
pub mod scan;
pub mod shard;
pub mod snapshot;
pub mod strategy;
pub mod vfs;
pub mod wal;

pub use cells::{BuildProfile, BuildStats, IntegrityReport, NnCells, PhaseTiming};
pub use config::{
    BuildConfig, BuildConfigBuilder, ConstraintPool, InputPolicy, SolverKind, Strategy,
};
pub use durable::{DurableError, RecoveryReport};
pub use engine::{QueryEngine, QueryScratch};
pub use error::Error;
pub use index::{BuildError, NnCellIndex, QueryResult};
pub use memtable::{FoldConfig, FoldError, FoldStatus};
pub use metrics::{EngineMetrics, IndexMetrics, SLOW_QUERY_CAPACITY};
pub use nncell_obs::{Registry, SlowQueryEntry, SlowQueryLog, Snapshot};
pub use query::{Query, QueryError, QueryKind, QueryResponse, QueryStats};
pub use shard::ShardedIndex;
pub use snapshot::SnapshotCell;
pub use persist::PersistError;
pub use vfs::{FaultSchedule, FaultVfs, StdVfs, Vfs, VfsFile};
pub use wal::{read_wal, WalMetrics, WalRecord, WalReplay, WalTail, WalWriter};
pub use quality::{
    average_overlap, expected_candidates, measured_candidates, quality_to_performance,
};
pub use scan::{linear_scan_knn, linear_scan_nn};
