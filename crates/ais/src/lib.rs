//! # ais — AIS data model, cleaning, annotation, and trip segmentation
//!
//! This crate rebuilds the preprocessing substrate the paper takes from
//! the AIS trajectory-annotation framework of Fikioris et al. \[7\]
//! (paper §3.1):
//!
//! * [`AisPoint`] / [`Trajectory`] / [`VesselInfo`] — the positional
//!   message model (MMSI, coordinates, SOG, COG, heading, reception
//!   timestamp);
//! * [`clean`] — noise filters: invalid coordinates, duplicates,
//!   out-of-sequence messages, speed spikes;
//! * [`events`] — mobility-event annotation: stops and communication
//!   gaps, the two trip delimiters;
//! * [`trips`] — segmentation of a vessel's stream into trips delimited by
//!   stops and communication gaps (`ΔT = 30 min`), the unit HABIT trains
//!   on;
//! * [`table`] — the typed [`TripTable`] of segmented trips: the
//!   seven-column layout the paper's DuckDB CTE reads.
//!
//! ## Pipeline position
//!
//! This crate is the data layer everything else consumes:
//!
//! ```text
//! raw AIS stream (mmsi, t, lon, lat, sog, cog, heading)
//!   │ clean::clean_trajectory      noise filters (§3.1)
//!   │ events::annotate             stops and communication gaps
//!   ▼
//! trips::segment_all               Vec<Trip> — the HABIT training unit
//!   │ table::trips_to_table
//!   ▼
//! TripTable                        typed columns, input to HabitModel::fit
//! ```
//!
//! Trips are delimited by stops and communication gaps with the paper's
//! `ΔT = 30 min` threshold ([`TripConfig`] makes it tunable); cleaning
//! rejects invalid coordinates, duplicate/out-of-sequence timestamps and
//! physically impossible speed spikes, and [`CleanReport`] counts what
//! was dropped so data-quality regressions are visible in tests.
//!
//! All timestamps are epoch seconds; all coordinates are WGS-84 degrees
//! (`geo_kernel::GeoPoint`). The synthetic datasets in `synth` emit the
//! same shapes, so the pipeline is identical for real and generated
//! feeds.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod clean;
pub mod events;
pub mod table;
pub mod trips;
pub mod types;

pub use clean::{clean_trajectory, CleanConfig, CleanReport};
pub use events::{annotate, EventConfig, MobilityEvent};
pub use table::{trips_to_table, TripTable};
pub use trips::{segment_all, segment_all_from, segment_trajectory, Trip, TripConfig};
pub use types::{AisPoint, Trajectory, VesselInfo, VesselType};
