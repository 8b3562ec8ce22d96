//! The typed response surface of the service API.
//!
//! Each [`crate::Request`] variant has exactly one success payload here;
//! failures travel as [`crate::ServiceError`]. Payloads are plain data —
//! the CLI renders them as text/CSV, the daemon as line-delimited JSON —
//! and every field round-trips losslessly through [`crate::wire`].

use crate::error::ServiceError;
use geo_kernel::TimedPoint;
use habit_core::{HabitConfig, Imputation, PointProvenance};
use habit_engine::{BatchFailure, BatchStats};
use habit_obs::Snapshot;

/// Per-op latency SLO estimates, derived from the service's
/// fixed-bucket `habit_request_latency_us` histograms (deterministic
/// for a given observation multiset — see `habit_obs::Histogram`).
#[derive(Debug, Clone, PartialEq)]
pub struct OpLatency {
    /// The wire operation the quantiles describe.
    pub op: String,
    /// Median request latency estimate, µs ticks.
    pub p50_us: f64,
    /// 95th-percentile request latency estimate, µs ticks.
    pub p95_us: f64,
    /// 99th-percentile request latency estimate, µs ticks.
    pub p99_us: f64,
}

/// Admission-layer vitals, present in [`HealthInfo`] only when the
/// daemon coalesces impute traffic (`habit serve` without
/// `--no-coalesce`).
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionInfo {
    /// Gaps currently waiting in the cross-connection queue.
    pub queue_depth: u64,
    /// Queue capacity in gaps; submissions past it are rejected with
    /// `overloaded`.
    pub queue_capacity: u64,
    /// Per-op p50/p95/p99 request latency, ops in lexicographic order.
    pub latency: Vec<OpLatency>,
}

/// Liveness payload: what is this process serving right now?
#[derive(Debug, Clone, PartialEq)]
pub struct HealthInfo {
    /// Crate version of the service.
    pub version: String,
    /// Compute threads each of the service's engine calls may use.
    pub threads: usize,
    /// Whether a model is loaded (imputation-ready).
    pub model_loaded: bool,
    /// Transition-graph nodes of the loaded model (0 when none).
    pub cells: usize,
    /// Transition-graph edges of the loaded model (0 when none).
    pub transitions: usize,
    /// Microseconds since the service started (monotonic clock).
    pub uptime_ticks: u64,
    /// Requests handled since start, every op and outcome included.
    pub requests_total: u64,
    /// Route-cache hits accumulated across all imputations.
    pub route_cache_hits: u64,
    /// Route-cache misses (A* searches run) accumulated.
    pub route_cache_misses: u64,
    /// Admission-layer vitals (`None` when the daemon is not
    /// coalescing — the field then stays off the wire entirely).
    pub admission: Option<AdmissionInfo>,
}

/// Embedded fit-state vitals of a refittable (v2) model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FitStateInfo {
    /// Serialized size of the embedded state, bytes.
    pub state_bytes: u64,
    /// Fit provenance: distinct trips accumulated across the initial
    /// fit and every refit since.
    pub trips: u64,
    /// Fit provenance: AIS reports accumulated.
    pub reports: u64,
}

/// Description of the loaded model (the `habit info` payload).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelReport {
    /// The model's fit configuration (resolution, projection, tolerance,
    /// weight scheme).
    pub config: HabitConfig,
    /// Transition-graph nodes.
    pub cells: usize,
    /// Transition-graph edges.
    pub transitions: usize,
    /// Total AIS reports indexed into the graph.
    pub reports: u64,
    /// Distinct vessels in the busiest cell.
    pub busiest_cell_vessels: u64,
    /// Serialized model blob size in bytes (lean graph-only layout).
    pub storage_bytes: usize,
    /// Blob version the model serializes as: `2` when a fit state is
    /// embedded (refittable), `1` for lean / legacy models.
    pub blob_version: u8,
    /// Embedded-state presence, size, and fit provenance (`None` for
    /// v1 / stateless models — they serve but cannot be refitted).
    pub state: Option<FitStateInfo>,
}

/// Result of a batched imputation.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Per-gap results in query order; failures are data.
    pub results: Vec<Result<Imputation, BatchFailure>>,
    /// Dedup/cache/parallelism counters for the batch.
    pub stats: BatchStats,
    /// Routes resident in the LRU cache after the batch.
    pub cached_routes: usize,
    /// Service-side wall clock of the batch, seconds.
    pub wall_s: f64,
}

/// One gap encountered during a repair, wire-safe (errors carry their
/// taxonomy code instead of a live error value).
#[derive(Debug, Clone, PartialEq)]
pub struct RepairedGap {
    /// Index in the input track of the report before the silence.
    pub after_index: usize,
    /// Silence duration, seconds.
    pub duration_s: i64,
    /// Points spliced in (0 when imputation failed).
    pub points_added: usize,
    /// Why imputation failed, when it did.
    pub error: Option<ServiceError>,
    /// Per-point repair evidence, parallel to the spliced points.
    /// `Some` only when the request asked for provenance.
    pub provenance: Option<Vec<PointProvenance>>,
}

/// Result of a track repair.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairOutcome {
    /// The repaired track: input points verbatim plus imputed interiors.
    pub points: Vec<TimedPoint>,
    /// Every gap at or above the threshold, in track order.
    pub gaps: Vec<RepairedGap>,
    /// Total points spliced in.
    pub points_added: usize,
}

impl RepairOutcome {
    /// Number of gaps found.
    pub fn gaps_found(&self) -> usize {
        self.gaps.len()
    }

    /// Number of gaps successfully imputed.
    pub fn gaps_imputed(&self) -> usize {
        self.gaps.iter().filter(|g| g.error.is_none()).count()
    }
}

/// Result of a fit: the new serving model's vitals.
#[derive(Debug, Clone, PartialEq)]
pub struct FitSummary {
    /// Trips that survived segmentation.
    pub trips: usize,
    /// AIS reports across those trips.
    pub reports: usize,
    /// Transition-graph nodes of the fitted model.
    pub cells: usize,
    /// Transition-graph edges of the fitted model.
    pub transitions: usize,
    /// Serialized model blob size in bytes.
    pub model_bytes: usize,
    /// Where the blob was written, when requested.
    pub saved_to: Option<String>,
}

/// Result of an incremental refit: what the delta added and the new
/// serving model's vitals.
#[derive(Debug, Clone, PartialEq)]
pub struct RefitSummary {
    /// Distinct trips merged in from the delta.
    pub trips_added: u64,
    /// AIS reports merged in from the delta.
    pub reports_added: u64,
    /// Fit provenance after the merge: total distinct trips.
    pub trips_total: u64,
    /// Fit provenance after the merge: total AIS reports.
    pub reports_total: u64,
    /// Transition-graph nodes of the refitted model.
    pub cells: usize,
    /// Transition-graph edges of the refitted model.
    pub transitions: usize,
    /// Serialized v2 (state-embedding) blob size in bytes.
    pub model_bytes: usize,
    /// Where the refitted blob was written, when requested.
    pub saved_to: Option<String>,
}

/// The success payload of one service operation.
#[derive(Debug, Clone)]
pub enum Response {
    /// Payload of [`crate::Request::Health`].
    Health(HealthInfo),
    /// Payload of [`crate::Request::Metrics`]: the service's metric
    /// snapshot in its pinned sample order.
    Metrics(Snapshot),
    /// Payload of [`crate::Request::ModelInfo`].
    ModelInfo(ModelReport),
    /// Payload of [`crate::Request::Impute`].
    Imputation(Imputation),
    /// Payload of [`crate::Request::ImputeBatch`].
    Batch(BatchOutcome),
    /// Payload of [`crate::Request::Repair`].
    Repaired(RepairOutcome),
    /// Payload of [`crate::Request::Fit`].
    Fitted(FitSummary),
    /// Payload of [`crate::Request::Refit`].
    Refitted(RefitSummary),
    /// Payload of [`crate::Request::Shutdown`].
    ShuttingDown,
}

impl Response {
    /// The wire operation token this payload answers.
    pub fn op(&self) -> &'static str {
        match self {
            Response::Health(_) => "health",
            Response::Metrics(_) => "metrics",
            Response::ModelInfo(_) => "model_info",
            Response::Imputation(_) => "impute",
            Response::Batch(_) => "impute_batch",
            Response::Repaired(_) => "repair",
            Response::Fitted(_) => "fit",
            Response::Refitted(_) => "refit",
            Response::ShuttingDown => "shutdown",
        }
    }
}
