//! # habit-service — the unified service facade
//!
//! One typed, versioned request/response API over the whole system, so
//! every frontend — the `habit` CLI, the `habit serve` TCP daemon,
//! tests — executes the same code path:
//!
//! * [`Request`] / [`Response`] — the nine operations (`Fit`, `Refit`,
//!   `Impute`, `ImputeBatch`, `Repair`, `ModelInfo`, `Health`,
//!   `Metrics`, `Shutdown`) and their typed payloads;
//! * [`ServiceError`] / [`ErrorCode`] — the unified error taxonomy:
//!   every failure anywhere in the stack maps to a stable
//!   machine-readable code, and each code implies exactly one CLI exit
//!   code (`bad_request` → 2, everything else → 1);
//! * [`Service`] — owns the serving model blob and its
//!   [`habit_engine::BatchImputer`] (whose route cache stays warm
//!   across requests) and the per-call compute-thread bound
//!   ([`habit_engine::ThreadPool`]);
//!   [`Service::handle`] executes any request;
//! * [`ServiceMetrics`] — the observability surface: per-op request /
//!   error / latency metrics (a [`habit_obs::Registry`]) plus stage
//!   spans (a [`habit_obs::Recorder`]), fed by every `handle` call and
//!   exposed via the `metrics` op, the `health` payload, and the
//!   daemon's plaintext metrics endpoint;
//! * [`wire`] — the hand-rolled line-delimited JSON codec
//!   (`habit-wire/v1`, over `habit-json`; no serde) and [`server`] —
//!   the blocking TCP daemon behind `habit serve`, whose metrics
//!   endpoint also answers `GET /spans` with one JSON line per span;
//! * [`csvio`] — the AIS / track / gap CSV converters every frontend
//!   shares (path- and reader-based, so `--input -` streams stdin).
//!
//! ```
//! use habit_service::{Request, Response, Service, ServiceConfig};
//! use habit_core::{GapQuery, HabitConfig, HabitModel};
//! use ais::{trips_to_table, AisPoint, Trip};
//!
//! // A toy trip table: one vessel sailing east, one report a minute.
//! let points = (0..200)
//!     .map(|i| AisPoint::new(9, i * 60, 10.0 + i as f64 * 0.002, 56.0, 12.0, 90.0))
//!     .collect();
//! let table = trips_to_table(&[Trip { trip_id: 1, mmsi: 9, points }]);
//! let model = HabitModel::fit(&table, HabitConfig::default()).unwrap();
//!
//! let service = Service::with_model(ServiceConfig::default(), model);
//! let gap = GapQuery::new(10.05, 56.0, 1_500, 10.3, 56.0, 9_000);
//! let response = service
//!     .handle(&Request::Impute { gap, provenance: false })
//!     .unwrap();
//! let Response::Imputation(imputed) = response else { unreachable!() };
//! assert!(imputed.points.len() >= 2);
//! ```
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod admission;
mod csv;
pub mod csvio;
pub mod error;
pub mod metrics;
mod repair;
pub mod request;
pub mod response;
pub mod server;
pub mod service;
mod spanjson;
pub mod wire;

#[cfg(test)]
mod proptests;

pub use admission::AdmissionConfig;
pub use error::{ErrorCode, ServiceError};
pub use metrics::ServiceMetrics;
pub use request::{
    parse_projection, projection_token, FitSpec, RefitSpec, RepairConfig, Request, PROTOCOL_VERSION,
};
pub use response::{
    AdmissionInfo, BatchOutcome, FitStateInfo, FitSummary, HealthInfo, ModelReport, OpLatency,
    RefitSummary, RepairOutcome, RepairedGap, Response,
};
pub use server::{serve, serve_with_metrics, ServeOptions};
pub use service::{Service, ServiceConfig};
