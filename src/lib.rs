//! # HABIT — H3 Aggregation-Based Imputation for vessel Trajectories
//!
//! Umbrella crate for the HABIT workspace, a from-scratch Rust
//! reproduction of *"Data-Driven Trajectory Imputation for Vessel Mobility
//! Analysis"* (EDBT 2026). It re-exports every layer of the stack so that
//! downstream users can depend on a single crate:
//!
//! * [`geo`] — geodesy and planar-geometry primitives;
//! * [`hexgrid`] — the hierarchical hexagonal spatial index (H3 substitute);
//! * [`aggdb`] — the aggregates of the paper's DuckDB CTE:
//!   `approx_count_distinct` (HyperLogLog), `median`, FxHash;
//! * [`mobgraph`] — directed weighted graphs with A*/Dijkstra (NetworkX
//!   substitute);
//! * [`ais`] — AIS cleaning, mobility-event annotation, trip
//!   segmentation and the typed trip table;
//! * [`synth`] — the synthetic maritime world and AIS feed generator;
//! * [`core`] — the HABIT model itself (fit / impute / serialize);
//! * [`engine`] — the parallel serving subsystem (sharded fit, batched
//!   imputation with a route cache);
//! * [`service`] — the unified service facade: typed request/response
//!   API, unified error taxonomy, and the `habit serve` TCP daemon;
//! * [`baselines`] — SLI, GTI and PaLMTO competitor methods;
//! * [`eval`] — DTW accuracy, gap injection, splits and the experiment
//!   runners regenerating every table and figure of the paper.
//!
//! ## Quick start
//!
//! ```
//! use habit::prelude::*;
//! use habit::synth::{datasets, DatasetSpec};
//!
//! // Build a small synthetic AIS dataset (KIEL corridor scenario).
//! let dataset = datasets::kiel(DatasetSpec { seed: 42, scale: 0.05 });
//!
//! // Segment into trips and fit a HABIT model on the trip table.
//! let table = dataset.trip_table();
//! let config = HabitConfig { resolution: 8, ..HabitConfig::default() };
//! let model = HabitModel::fit(&table, config).unwrap();
//!
//! // Impute a gap between two known positions of a held trip.
//! let trips = dataset.trips();
//! let trip = &trips[0];
//! let a = &trip.points[5];
//! let b = &trip.points[trip.points.len() - 5];
//! let gap = GapQuery::new(a.pos.lon, a.pos.lat, a.t, b.pos.lon, b.pos.lat, b.t);
//! let path = model.impute(&gap).unwrap();
//! assert!(path.points.len() >= 2);
//! ```

pub use aggdb;
pub use ais;
pub use baselines;
pub use density;
pub use eval;
pub use geo_kernel as geo;
pub use habit_core as core;
pub use habit_engine as engine;
pub use habit_service as service;
pub use hexgrid;
pub use mobgraph;
pub use synth;

/// The most commonly used items, importable with one `use`.
pub mod prelude {
    pub use ais::{AisPoint, Trajectory, Trip, TripTable, VesselType};
    pub use baselines::{impute_sli, GtiConfig, GtiModel};
    pub use density::{DensityDiff, DensityMap};
    pub use eval::{resampled_dtw_m, split_trips, GapCase};
    pub use geo_kernel::{GeoPoint, TimedPoint};
    pub use habit_core::{
        CellProjection, GapQuery, HabitConfig, HabitError, HabitModel, Imputation, WeightScheme,
    };
    pub use habit_engine::{BatchImputer, ThreadPool};
    pub use habit_service::{Request, Response, Service, ServiceConfig, ServiceError};
    pub use hexgrid::{HexCell, HexGrid};
    pub use synth::{Dataset, World};
}
