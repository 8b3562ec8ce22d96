//! The typed request surface of the service API.
//!
//! Every operation the system offers — fitting, imputation, repair,
//! introspection, lifecycle — is one [`Request`] variant. The CLI
//! builds requests from flags, the TCP daemon decodes them from
//! line-delimited JSON ([`crate::wire`]), and both hand them to the
//! same [`crate::Service`] — one code path, many frontends.

use crate::error::ServiceError;
use geo_kernel::TimedPoint;
use habit_core::{CellProjection, GapQuery};

/// The wire protocol version this build speaks. Requests must carry it
/// (`"v":1`); other versions are rejected with `bad_request` so clients
/// fail loudly instead of mis-parsing.
pub const PROTOCOL_VERSION: u64 = 1;

/// Parameters of a [`Request::Fit`] operation.
#[derive(Debug, Clone, PartialEq)]
pub struct FitSpec {
    /// Path to the AIS CSV to fit from (`mmsi,t,lon,lat[,sog,cog,heading]`),
    /// resolved on the machine the service runs on.
    pub input: String,
    /// H3-style grid resolution `r` (paper sweeps 6..=10).
    pub resolution: u8,
    /// RDP simplification tolerance `t` in meters.
    pub tolerance_m: f64,
    /// Inverse projection `p` (center `c` or data-driven median `w`).
    pub projection: CellProjection,
    /// When set, the fitted model blob is also written to this path.
    pub save_to: Option<String>,
    /// Embed the fit state in the saved blob (v2 container): larger on
    /// disk, but the saved model can be incrementally refitted later.
    /// The in-memory serving model keeps its state either way.
    pub save_state: bool,
}

impl Default for FitSpec {
    fn default() -> Self {
        Self {
            input: String::new(),
            resolution: 9,
            tolerance_m: 100.0,
            projection: CellProjection::Median,
            save_to: None,
            save_state: false,
        }
    }
}

/// Parameters of a [`Request::Refit`] operation.
#[derive(Debug, Clone, PartialEq)]
pub struct RefitSpec {
    /// Path to the delta AIS CSV — **new** trips only (new vessels /
    /// new days; trip and vessel streams must not straddle the
    /// history/delta boundary), resolved on the service's machine.
    pub input: String,
    /// When set, the refitted v2 model blob is also written here.
    pub save_to: Option<String>,
}

/// Parameters of a [`Request::Repair`] operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairConfig {
    /// Minimum silence (seconds) between consecutive reports that counts
    /// as a gap to impute. The paper's trip segmentation uses ΔT = 30
    /// minutes; repairs target the same order of magnitude.
    pub gap_threshold_s: i64,
    /// When set, resample each imputed segment so consecutive points are
    /// at most this many meters apart. Defaults to 250 m — the paper's
    /// own resampling bound — so that repaired windows carry interior
    /// points even where simplification reduced the path to a straight
    /// segment. `None` keeps only the RDP-simplified vertices.
    pub densify_max_spacing_m: Option<f64>,
}

impl Default for RepairConfig {
    fn default() -> Self {
        Self {
            gap_threshold_s: 30 * 60,
            densify_max_spacing_m: Some(250.0),
        }
    }
}

/// One operation against the service, transport-agnostic.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness + model summary; always answerable.
    Health,
    /// The service's metrics snapshot (counters, gauges, latency
    /// quantiles); always answerable.
    Metrics,
    /// Describe the loaded model (config, graph size, storage).
    ModelInfo,
    /// Impute a single gap.
    Impute {
        /// The gap to impute.
        gap: GapQuery,
        /// Attach per-point repair evidence
        /// ([`habit_core::PointProvenance`]) to the imputation. The
        /// imputed points are byte-identical either way.
        provenance: bool,
    },
    /// Impute a batch of gaps concurrently (route dedup + cache);
    /// per-gap failures are data, not request failures.
    ImputeBatch {
        /// The gaps, answered in order.
        gaps: Vec<GapQuery>,
        /// Attach per-point repair evidence to each successful result.
        provenance: bool,
    },
    /// Fill every over-threshold silence in a time-ordered track. The
    /// silences are one submission, answered like an `ImputeBatch`'s
    /// gaps; a gap that fails is data in its [`crate::RepairedGap`].
    Repair {
        /// The track to repair (preserved verbatim; repair only adds).
        track: Vec<TimedPoint>,
        /// Gap threshold and densification bounds.
        config: RepairConfig,
        /// Attach per-point repair evidence to each repaired gap.
        provenance: bool,
    },
    /// Fit a model from an AIS CSV and install it as the serving model.
    Fit(FitSpec),
    /// Merge a delta AIS CSV of new trips into the serving model's fit
    /// state, re-finalize, and hot-swap — byte-identical to refitting
    /// from scratch over history ∪ delta, without re-scanning history.
    Refit(RefitSpec),
    /// Ask the service to stop accepting work and shut down cleanly.
    Shutdown,
}

impl Request {
    /// The wire operation token of this request.
    pub fn op(&self) -> &'static str {
        match self {
            Request::Health => "health",
            Request::Metrics => "metrics",
            Request::ModelInfo => "model_info",
            Request::Impute { .. } => "impute",
            Request::ImputeBatch { .. } => "impute_batch",
            Request::Repair { .. } => "repair",
            Request::Fit(_) => "fit",
            Request::Refit(_) => "refit",
            Request::Shutdown => "shutdown",
        }
    }
}

/// Parses a `--projection` value (`center`/`c` or `median`/`w`).
pub fn parse_projection(raw: &str) -> Result<CellProjection, ServiceError> {
    match raw.to_ascii_lowercase().as_str() {
        "center" | "c" => Ok(CellProjection::Center),
        "median" | "w" => Ok(CellProjection::Median),
        other => Err(ServiceError::bad_request(format!(
            "unknown projection `{other}` (center|median)"
        ))),
    }
}

/// The wire token of a projection (inverse of [`parse_projection`]).
pub fn projection_token(p: CellProjection) -> &'static str {
    match p {
        CellProjection::Center => "center",
        CellProjection::Median => "median",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projection_tokens_round_trip() {
        for p in [CellProjection::Center, CellProjection::Median] {
            assert_eq!(parse_projection(projection_token(p)).unwrap(), p);
        }
        assert_eq!(parse_projection("W").unwrap(), CellProjection::Median);
        assert!(parse_projection("middle").is_err());
    }

    #[test]
    fn ops_are_stable() {
        assert_eq!(Request::Health.op(), "health");
        assert_eq!(Request::Metrics.op(), "metrics");
        assert_eq!(Request::Shutdown.op(), "shutdown");
        assert_eq!(Request::Fit(FitSpec::default()).op(), "fit");
        assert_eq!(
            Request::Refit(RefitSpec {
                input: "delta.csv".into(),
                save_to: None,
            })
            .op(),
            "refit"
        );
    }
}
