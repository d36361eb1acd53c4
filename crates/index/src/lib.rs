//! Multidimensional index structures on a simulated disk.
//!
//! This crate provides the two index baselines of the ICDE'98 NN-cell paper —
//! the **R\*-tree** \[BKSS 90\] and the **X-tree** \[BKK 96\] — plus a linear
//! scan, all instrumented with the cost model the paper reports: **page
//! accesses** (block-size-derived fanout, supernodes count their page span)
//! and **CPU operations** (distance computations and queue operations).
//!
//! The same tree core backs both structures; they differ in their overflow
//! policy ([`SplitPolicy`]): the R\*-tree always does the topological
//! (margin-driven) split with forced reinsertion, while the X-tree falls
//! back from the topological split to an overlap-minimal split along the
//! node's split history and, when both fail, extends the node into a
//! **supernode** spanning multiple disk pages.
//!
//! Queries: point query, window (range) query, sphere query, best-first
//! nearest-neighbor search \[HS 95\], branch-and-bound nearest-neighbor
//! search \[RKV 95\], and k-NN. Beyond the trees: STR bulk loading
//! ([`bulk`]), an optional LRU page cache ([`cost`]), the \[BBKK 97\]
//! analytic cost model ([`costmodel`]), and a declustered multi-disk scan
//! ([`parallel`]) for the paper's cited alternative road.

pub mod bulk;
pub mod config;
pub mod cost;
pub mod costmodel;
pub mod linear;
mod node;
pub mod parallel;
pub mod rstar;
pub mod tree;
pub mod xtree;

pub use bulk::bulk_load;
pub use config::{SplitPolicy, TreeConfig};
pub use cost::{IoStats, TreeMetrics};
pub use linear::LinearScan;
pub use node::{ItemId, PageId};
pub use parallel::DeclusteredScan;
pub use rstar::RStarTree;
pub use tree::{BestFirstScratch, Neighbor, TraversalStats, Tree};
pub use xtree::XTree;
