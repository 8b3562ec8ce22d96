//! # synth — a synthetic maritime world and AIS feed generator
//!
//! The paper evaluates on two proprietary AIS feeds (Danish Maritime
//! Authority and AegeaNET). Those feeds are not redistributable, so this
//! crate builds the closest synthetic equivalent that exercises the same
//! code paths: vessels of different classes sail
//! repeatedly along navigable sea lanes between ports, around simplified
//! but topologically faithful coastlines, reporting AIS positions with
//! realistic noise, speed-dependent intervals, and region-dependent
//! reception dropout.
//!
//! * [`world`] — ports, land masks, study regions;
//! * [`regions`] — the three paper scenarios: `denmark()` (DAN),
//!   `kiel_corridor()` (KIEL) and `saronic()` (SAR);
//! * [`routing`] — a visibility-graph sea router producing waypoint routes
//!   that do not cross land;
//! * [`vessel`] — vessel-class kinematics (speeds, lengths, draughts);
//! * [`sim`] — the trip simulator: corner-smoothed paths, speed profiles,
//!   lateral track noise, AIS reporting and dropout;
//! * [`datasets`] — deterministic, seeded builders for the DAN / KIEL /
//!   SAR dataset analogues of the paper's Table 1.
//!
//! Everything is deterministic given a seed; dataset builders are pure
//! functions of `(seed, scale)`.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod datasets;
pub mod regions;
pub mod routing;
pub mod sim;
pub mod vessel;
pub mod world;

pub use datasets::{Dataset, DatasetSpec};
pub use regions::{denmark, kiel_corridor, saronic};
pub use routing::SeaRouter;
pub use sim::{SimConfig, TripPlan};
pub use vessel::{class_profile, ClassProfile};
pub use world::{Port, World};
