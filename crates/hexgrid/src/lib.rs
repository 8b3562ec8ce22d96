//! # hexgrid — a hierarchical hexagonal spatial index with H3 semantics
//!
//! HABIT (the paper) indexes AIS positions with Uber's H3 grid. This crate
//! is a from-scratch substitute that preserves every H3 operation the
//! method uses:
//!
//! * [`HexGrid::cell`] — latitude/longitude → cell at a resolution
//!   (`latLngToCell`);
//! * [`HexGrid::center`] — cell → representative point (`cellToLatLng`);
//! * [`HexGrid::grid_distance`] — hex-count distance between cells
//!   (`gridDistance`), used as an edge statistic and A* heuristic;
//! * [`ops::neighbors`] / [`ops::disk`] — adjacency and k-rings
//!   (`gridDisk`), used for endpoint snapping;
//! * [`ops::grid_path`] — cells on the line between two cells
//!   (`gridPathCells`);
//! * parent/child traversal across resolutions (aperture 7), kept for
//!   H3 parity: the fit shards its rows by a hash of the cell id, not by
//!   a coarse ancestor tile, so no product code climbs the hierarchy.
//!
//! ## Relation to real H3
//!
//! H3 tiles the icosahedron; this crate tiles the spherical-Mercator plane
//! with a pointy-top hexagonal lattice. Each finer resolution shrinks the
//! edge by √7 and rotates the lattice by `atan(√3/5) ≈ 19.1°` — the same
//! aperture-7 construction H3 uses on its faces. Resolution edge lengths
//! match H3's published global averages (res 0 ≈ 1107.7 km … res 15 ≈
//! 0.5 m), so resolution numbers in the paper map one-to-one. Because
//! Mercator is conformal, cells are perfectly regular hexagons locally;
//! their *ground* size scales by `cos(lat)` (≈0.56 at the Danish sites,
//! ≈0.79 in the Saronic gulf), uniformly within a study region, so a
//! resolution is finer on the ground than H3's at the paper's sites
//! (ROADMAP.md item 22 measures by how much).
//!
//! ## Cell identifiers
//!
//! A [`HexCell`] is a packed `u64`: a 4-bit tag, a 4-bit resolution and two
//! zig-zag-encoded 28-bit axial coordinates. IDs are stable across runs and
//! machines and order-independent, so they can be used as graph node keys
//! and serialized.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod cell;
pub mod cover;
pub mod error;
pub mod grid;
pub mod ops;

pub use cell::HexCell;
pub use error::HexError;
pub use grid::{HexGrid, MAX_RESOLUTION};

#[cfg(test)]
mod proptests;
