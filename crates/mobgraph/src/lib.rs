//! # mobgraph — directed weighted graphs for mobility networks
//!
//! The paper assembles its transition statistics into a NetworkX DiGraph
//! and runs A* over it. This crate is the from-scratch substitute:
//!
//! * [`DiGraph`] — the build-time form: a directed graph keyed by stable
//!   `u64` ids (hex cells in HABIT, point ids in the GTI baseline) with
//!   arbitrary node and edge payloads;
//! * [`CsrGraph`] — the frozen form of a [`DiGraph`] a HABIT model keeps
//!   resident: contiguous `offsets`/`targets`/`weights` arrays in
//!   canonical node order, built once and routed over allocation-free;
//! * [`search`] — A* (and Dijkstra) with caller-supplied weights and
//!   heuristic: one per-query loop over [`DiGraph`], one arena kernel
//!   over [`CsrGraph`], pinned byte-identical;
//! * [`spatial::NearestIndex`] — bucket-grid nearest-neighbor lookup used
//!   to snap gap endpoints onto graph nodes;
//! * [`codec`] — the one compact binary graph layout ("HBG1"), giving
//!   the storage-size numbers of the paper's Table 2.
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
