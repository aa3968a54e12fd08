//! # bm-depgraph — inter-kernel thread-block dependency graphs
//!
//! The representation layer of BlockMaestro's "Thread Blocks as Tasks"
//! paradigm: bipartite graphs between consecutive kernels (Fig. 1), built
//! from the per-TB read/write sets that `bm-ptx` extracts at kernel-launch
//! time, classified into the common dependency patterns of Fig. 8, and
//! stored encoded per Table I.
//!
//! ```
//! use bm_depgraph::{build_graph, classify, storage, HazardMode, Pattern};
//! use bm_ptx::access::{KernelAccess, TbAccess, RangeSet};
//!
//! // Parent TB i writes bytes [256i, 256i+256); child TB i reads the same.
//! let parent = KernelAccess::from_per_tb(
//!     (0..4).map(|i| TbAccess {
//!         reads: RangeSet::new(),
//!         writes: RangeSet::single(256 * i, 256 * i + 256),
//!     }).collect(), false);
//! let child = KernelAccess::from_per_tb(
//!     (0..4).map(|i| TbAccess {
//!         reads: RangeSet::single(256 * i, 256 * i + 256),
//!         writes: RangeSet::new(),
//!     }).collect(), false);
//!
//! let g = build_graph(&parent, &child, HazardMode::Raw);
//! assert_eq!(classify(&g), Pattern::OneToOne);
//! assert!(storage(&g).ratio() < 1.0); // encoding beats plain storage
//! ```

pub mod build;
pub mod encoding;
pub mod graph;
pub mod interval_index;
pub mod pattern;

pub use build::{build_graph, build_graph_bounded_par, build_graph_naive, HazardMode};
pub use encoding::{encoded_bytes, plain_bytes, storage, GraphStorage};
pub use graph::{BipartiteGraph, GraphKind};
pub use pattern::{classify, Pattern};
