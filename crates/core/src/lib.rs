//! # habit-core — H3 Aggregation-Based Imputation for vessel Trajectories
//!
//! The paper's primary contribution (EDBT 2026): a lightweight,
//! configurable, data-driven framework that fills gaps in AIS vessel
//! trajectories using spatial aggregates over a hexagonal grid. The
//! pipeline has four phases (paper §3):
//!
//! 1. **Preprocessing & trip segmentation** — done by the [`ais`] crate;
//!    this crate consumes the resulting trip table and applies the
//!    cell-span filter (trips confined to ≤ 2 adjacent cells are dropped).
//! 2. **Graph generation** ([`graphgen`]) — each report is assigned its
//!    hex cell, a window `lag` adds the preceding cell along the trip, and
//!    two group-bys compute per-cell statistics (count, distinct vessels,
//!    median lon/lat/SOG/COG) and per-transition statistics (distinct
//!    trips, grid distance). The transitions become a weighted directed
//!    graph.
//! 3. **Trajectory imputation** ([`impute`]) — gap endpoints are projected
//!    onto grid cells (with an expanding-ring nearest-node fallback) and an
//!    A* search over the transition graph finds the historically most
//!    traveled cell sequence; the inverse projection maps cells back to
//!    coordinates using either the geometric center (`p = c`) or the
//!    data-driven median (`p = w`).
//! 4. **Trajectory simplification** — Ramer–Douglas–Peucker with tolerance
//!    `t` meters produces the final navigable path.
//!
//! The fitted [`HabitModel`] serializes to a compact binary blob — the
//! "framework storage size" of the paper's Table 2 — and answers
//! imputation queries in sub-millisecond time (Table 4).
//!
//! The model keeps one resident graph (a frozen `mobgraph::CsrGraph`)
//! and there is one way to answer a gap: one A* kernel, one in-place
//! RDP, with or without provenance. The paper's naive per-query form
//! survives only as the test oracle in [`reference`] — it is not
//! re-exported here and no serving crate may use it.
//!
//! ## Quick start
//!
//! ```
//! use habit_core::{HabitConfig, HabitModel, GapQuery};
//! use ais::{trips_to_table, AisPoint, Trip};
//!
//! // A toy trip table: one vessel sailing east, one report a minute.
//! let points = (0..200)
//!     .map(|i| AisPoint::new(9, i * 60, 10.0 + i as f64 * 0.002, 56.0, 12.0, 90.0))
//!     .collect();
//! let table = trips_to_table(&[Trip { trip_id: 1, mmsi: 9, points }]);
//!
//! let model = HabitModel::fit(&table, HabitConfig::default()).unwrap();
//! let gap = GapQuery::new(10.05, 56.0, 1_500, 10.3, 56.0, 9_000);
//! let imputed = model.impute(&gap).unwrap();
//! assert!(imputed.points.len() >= 2);
//! ```
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod by_type;
pub mod config;
pub mod error;
pub mod fitstate;
pub mod graphgen;
pub mod impute;
pub mod model;
pub mod reference;
pub mod window;

#[cfg(test)]
mod proptests;

pub use by_type::{ServedBy, TypeModels, TypeModelsConfig};
pub use config::{CellProjection, HabitConfig, WeightScheme};
pub use error::HabitError;
pub use fitstate::{FitProvenance, FitState, FITSTATE_VERSION};
pub use graphgen::{CellStats, EdgeStats};
pub use impute::{GapQuery, Imputation, PointProvenance, ProvenanceKind, Route};
pub use model::HabitModel;
