//! # mobgraph — directed weighted graphs for mobility networks
//!
//! The paper assembles its transition statistics into a NetworkX DiGraph
//! and runs A* over it. This crate is the from-scratch substitute:
//!
//! * [`CsrGraph`] — the one layout of a HABIT model's graph:
//!   contiguous `offsets`/`targets`/`weights` arrays in canonical node
//!   order, built by one validating constructor
//!   ([`CsrGraph::from_parts`]) straight from a fit's node and edge
//!   lists or a decoded blob, and routed over allocation-free;
//! * [`DiGraph`] — the mutable adjacency list keyed by stable `u64`
//!   ids, for graphs grown edge by edge: GTI's point graph, the
//!   synthetic world's routing network, and the per-query reference
//!   search `habit-core` pins its kernel to;
//! * [`search`] — A* (and Dijkstra) with caller-supplied weights and
//!   heuristic: one per-query loop over [`DiGraph`], one arena kernel
//!   over [`CsrGraph`], pinned byte-identical;
//! * [`spatial::NearestIndex`] — bucket-grid nearest-neighbor lookup used
//!   to snap gap endpoints onto graph nodes;
//! * [`codec`] — the one compact binary graph layout ("HBG1"), with one
//!   writer and one reader ([`CsrGraph::to_bytes`],
//!   [`CsrGraph::from_bytes`]), giving the storage-size numbers of the
//!   paper's Table 2.
//!
//! Internally nodes are dense `u32` indices so the search frontier works
//! on flat vectors; [`DiGraph`]'s id ↔ index mapping uses an FxHash map
//! (shared with `aggdb`), following the perf-book guidance for integer
//! keys, and [`CsrGraph`]'s is a binary search over its sorted ids.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod codec;
pub mod csr;
pub mod graph;
pub mod search;
pub mod spatial;

pub use codec::Codec;
pub use csr::CsrGraph;
pub use graph::{DiGraph, EdgeRef, NodeId};
pub use search::{astar, astar_csr_baked, dijkstra, BakedEdge, PathResult, SearchArena};
pub use spatial::NearestIndex;
