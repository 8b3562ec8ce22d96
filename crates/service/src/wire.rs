//! The line-delimited JSON wire codec (`habit-wire/v1`).
//!
//! One request per line, one response line per request, over any
//! byte stream (the daemon uses TCP). Hand-rolled over [`habit_json`]
//! — the offline workspace has no serde. The encoding is lossless for
//! every payload: `f64`s render via shortest-round-trip formatting, and
//! integer fields are confined to JSON's exact-integer domain (|n| ≤
//! 2^53) — the decoder *rejects* values beyond it with `bad_request`
//! instead of silently rounding, and the encoders debug-assert the
//! same domain (timestamps are Unix seconds, ~285 million years below
//! the bound). This is what lets the e2e tests assert byte-identical
//! imputations between the TCP path and the in-process CLI path.
//!
//! ## Envelope
//!
//! Requests carry the protocol version and an operation token:
//!
//! ```text
//! {"v":1,"op":"impute","from":[10.3,57.1,0],"to":[10.85,57.45,3600]}
//! ```
//!
//! Responses echo the op on success or carry a coded error:
//!
//! ```text
//! {"v":1,"ok":true,"op":"impute","data":{...}}
//! {"v":1,"ok":false,"error":{"code":"no_path","message":"..."}}
//! ```
//!
//! Gap endpoints are `[lon,lat,t]` (the CLI's `--from LON,LAT,T`
//! order); track and imputed points are `[t,lon,lat]` (the track CSV
//! column order); cell ids are hex strings (`"0x892830..."`) because
//! raw 64-bit ids exceed JSON's exact-integer range.

use crate::error::{ErrorCode, ServiceError};
use crate::request::{
    parse_projection, projection_token, FitSpec, RefitSpec, RepairConfig, Request, PROTOCOL_VERSION,
};
use crate::response::{
    AdmissionInfo, BatchOutcome, FitStateInfo, FitSummary, HealthInfo, ModelReport, OpLatency,
    RefitSummary, RepairOutcome, RepairedGap, Response,
};
use geo_kernel::TimedPoint;
use habit_core::{GapQuery, HabitConfig, Imputation, PointProvenance, ProvenanceKind};
use habit_engine::{BatchFailure, BatchStats};
use habit_json::Json;
use habit_obs::{Sample, Snapshot};
use hexgrid::HexCell;

// ---------------------------------------------------------------- helpers

fn bad(msg: impl Into<String>) -> ServiceError {
    ServiceError::bad_request(msg)
}

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, ServiceError> {
    obj.get(key)
        .ok_or_else(|| bad(format!("missing field `{key}`")))
}

fn str_field<'a>(obj: &'a Json, key: &str) -> Result<&'a str, ServiceError> {
    field(obj, key)?
        .as_str()
        .ok_or_else(|| bad(format!("field `{key}` must be a string")))
}

fn f64_field(obj: &Json, key: &str) -> Result<f64, ServiceError> {
    field(obj, key)?
        .as_f64()
        .ok_or_else(|| bad(format!("field `{key}` must be a number")))
}

/// Largest magnitude a JSON number can carry exactly (2^53): beyond it
/// `f64` rounds silently, so the wire rejects such integers outright.
const MAX_EXACT_INT: f64 = 9_007_199_254_740_992.0;

fn exact_i64(n: f64, what: &str) -> Result<i64, ServiceError> {
    if n.fract() != 0.0 || n.abs() > MAX_EXACT_INT {
        return Err(bad(format!(
            "{what} must be an integer within ±2^53 (got {n})"
        )));
    }
    Ok(n as i64)
}

fn i64_field(obj: &Json, key: &str) -> Result<i64, ServiceError> {
    exact_i64(f64_field(obj, key)?, &format!("field `{key}`"))
}

fn u64_field(obj: &Json, key: &str) -> Result<u64, ServiceError> {
    field(obj, key)?
        .as_u64()
        .ok_or_else(|| bad(format!("field `{key}` must be a non-negative integer")))
}

fn arr_field<'a>(obj: &'a Json, key: &str) -> Result<&'a [Json], ServiceError> {
    field(obj, key)?
        .as_arr()
        .ok_or_else(|| bad(format!("field `{key}` must be an array")))
}

fn bool_field(obj: &Json, key: &str) -> Result<bool, ServiceError> {
    match field(obj, key)? {
        Json::Bool(b) => Ok(*b),
        _ => Err(bad(format!("field `{key}` must be a boolean"))),
    }
}

/// Debug-time guard for the encode side of the exact-integer domain.
fn exact(t: i64) -> f64 {
    debug_assert!(
        (t as f64).abs() <= MAX_EXACT_INT,
        "{t} exceeds the f64-exact integer range"
    );
    t as f64
}

/// `[lon,lat,t]` — the gap-endpoint shape.
fn endpoint_json(p: &TimedPoint) -> Json {
    Json::Arr(vec![
        Json::Num(p.pos.lon),
        Json::Num(p.pos.lat),
        Json::Num(exact(p.t)),
    ])
}

fn endpoint_from(v: &Json, what: &str) -> Result<TimedPoint, ServiceError> {
    let arr = v
        .as_arr()
        .filter(|a| a.len() == 3)
        .ok_or_else(|| bad(format!("{what} must be [lon,lat,t]")))?;
    let lon = arr[0].as_f64().ok_or_else(|| bad("bad longitude"))?;
    let lat = arr[1].as_f64().ok_or_else(|| bad("bad latitude"))?;
    let t = exact_i64(
        arr[2].as_f64().ok_or_else(|| bad("bad timestamp"))?,
        "timestamp",
    )?;
    Ok(TimedPoint::new(lon, lat, t))
}

/// `[t,lon,lat]` — the track-point shape (track CSV column order).
fn point_json(p: &TimedPoint) -> Json {
    Json::Arr(vec![
        Json::Num(exact(p.t)),
        Json::Num(p.pos.lon),
        Json::Num(p.pos.lat),
    ])
}

fn point_from(v: &Json) -> Result<TimedPoint, ServiceError> {
    let arr = v
        .as_arr()
        .filter(|a| a.len() == 3)
        .ok_or_else(|| bad("track point must be [t,lon,lat]"))?;
    let t = exact_i64(
        arr[0].as_f64().ok_or_else(|| bad("bad timestamp"))?,
        "timestamp",
    )?;
    let lon = arr[1].as_f64().ok_or_else(|| bad("bad longitude"))?;
    let lat = arr[2].as_f64().ok_or_else(|| bad("bad latitude"))?;
    Ok(TimedPoint::new(lon, lat, t))
}

fn points_json(points: &[TimedPoint]) -> Json {
    Json::Arr(points.iter().map(point_json).collect())
}

fn points_from(items: &[Json]) -> Result<Vec<TimedPoint>, ServiceError> {
    items.iter().map(point_from).collect()
}

fn cell_json(cell: HexCell) -> Json {
    Json::Str(format!("{:#x}", cell.raw()))
}

fn cell_from(v: &Json) -> Result<HexCell, ServiceError> {
    let s = v.as_str().ok_or_else(|| bad("cell id must be a string"))?;
    let raw = u64::from_str_radix(s.trim_start_matches("0x"), 16)
        .map_err(|_| bad(format!("bad cell id `{s}`")))?;
    HexCell::from_raw(raw).map_err(|e| bad(format!("bad cell id `{s}`: {e}")))
}

fn gap_json(gap: &GapQuery) -> Json {
    Json::Obj(vec![
        ("from".into(), endpoint_json(&gap.start)),
        ("to".into(), endpoint_json(&gap.end)),
    ])
}

fn gap_from(v: &Json) -> Result<GapQuery, ServiceError> {
    Ok(GapQuery {
        start: endpoint_from(field(v, "from")?, "`from`")?,
        end: endpoint_from(field(v, "to")?, "`to`")?,
    })
}

/// The optional `provenance` request flag: absent means `false`, so
/// pre-provenance clients keep their exact request bytes.
fn provenance_flag(doc: &Json) -> Result<bool, ServiceError> {
    match doc.get("provenance") {
        None => Ok(false),
        Some(Json::Bool(b)) => Ok(*b),
        Some(_) => Err(bad("field `provenance` must be a boolean")),
    }
}

fn provenance_json(records: &[PointProvenance]) -> Json {
    Json::Arr(
        records
            .iter()
            .map(|r| {
                Json::Obj(vec![
                    ("kind".into(), Json::Str(r.kind.as_str().into())),
                    ("cell".into(), r.cell.map_or(Json::Null, cell_json)),
                    ("from".into(), r.from_cell.map_or(Json::Null, cell_json)),
                    ("msgs".into(), Json::from(r.cell_msgs)),
                    (
                        "transitions".into(),
                        Json::from(u64::from(r.edge_transitions)),
                    ),
                    ("cost_share".into(), Json::Num(r.cost_share)),
                    ("confidence".into(), Json::Num(r.confidence)),
                ])
            })
            .collect(),
    )
}

fn provenance_record_from(v: &Json) -> Result<PointProvenance, ServiceError> {
    let kind = str_field(v, "kind")?;
    let kind = ProvenanceKind::parse(kind)
        .ok_or_else(|| bad(format!("unknown provenance kind `{kind}`")))?;
    let cell = match field(v, "cell")? {
        Json::Null => None,
        c => Some(cell_from(c)?),
    };
    let from_cell = match field(v, "from")? {
        Json::Null => None,
        c => Some(cell_from(c)?),
    };
    Ok(PointProvenance {
        kind,
        cell,
        from_cell,
        cell_msgs: u64_field(v, "msgs")?,
        edge_transitions: u32::try_from(u64_field(v, "transitions")?)
            .map_err(|_| bad("field `transitions` out of range"))?,
        cost_share: f64_field(v, "cost_share")?,
        confidence: f64_field(v, "confidence")?,
    })
}

/// The optional `provenance` array of an imputation / repaired gap:
/// emitted only when present, so non-provenance payload bytes are
/// unchanged from pre-provenance builds.
fn provenance_from(v: &Json) -> Result<Option<Vec<PointProvenance>>, ServiceError> {
    match v.get("provenance") {
        None | Some(Json::Null) => Ok(None),
        Some(p) => Ok(Some(
            p.as_arr()
                .ok_or_else(|| bad("field `provenance` must be an array"))?
                .iter()
                .map(provenance_record_from)
                .collect::<Result<Vec<_>, _>>()?,
        )),
    }
}

fn error_json(e: &ServiceError) -> Json {
    Json::Obj(vec![
        ("code".into(), Json::Str(e.code.as_str().into())),
        ("message".into(), Json::Str(e.message.clone())),
    ])
}

fn error_from(v: &Json) -> Result<ServiceError, ServiceError> {
    let code = str_field(v, "code")?;
    let code = ErrorCode::parse(code).ok_or_else(|| bad(format!("unknown error code `{code}`")))?;
    Ok(ServiceError::new(code, str_field(v, "message")?))
}

// ---------------------------------------------------------------- requests

/// Encodes a request as one compact JSON line (no trailing newline).
pub fn encode_request(request: &Request) -> String {
    let mut fields: Vec<(String, Json)> = vec![
        ("v".into(), Json::from(PROTOCOL_VERSION)),
        ("op".into(), Json::Str(request.op().into())),
    ];
    match request {
        Request::Health | Request::Metrics | Request::ModelInfo | Request::Shutdown => {}
        Request::Impute { gap, provenance } => {
            fields.push(("from".into(), endpoint_json(&gap.start)));
            fields.push(("to".into(), endpoint_json(&gap.end)));
            if *provenance {
                fields.push(("provenance".into(), Json::Bool(true)));
            }
        }
        Request::ImputeBatch { gaps, provenance } => {
            fields.push((
                "gaps".into(),
                Json::Arr(gaps.iter().map(gap_json).collect()),
            ));
            if *provenance {
                fields.push(("provenance".into(), Json::Bool(true)));
            }
        }
        Request::Repair {
            track,
            config,
            provenance,
        } => {
            fields.push(("track".into(), points_json(track)));
            fields.push((
                "threshold_s".into(),
                Json::Num(exact(config.gap_threshold_s)),
            ));
            fields.push((
                "densify_m".into(),
                config.densify_max_spacing_m.map_or(Json::Null, Json::Num),
            ));
            if *provenance {
                fields.push(("provenance".into(), Json::Bool(true)));
            }
        }
        Request::Fit(spec) => {
            fields.push(("input".into(), Json::Str(spec.input.clone())));
            fields.push(("resolution".into(), Json::from(u64::from(spec.resolution))));
            fields.push(("tolerance_m".into(), Json::Num(spec.tolerance_m)));
            fields.push((
                "projection".into(),
                Json::Str(projection_token(spec.projection).into()),
            ));
            fields.push((
                "save_to".into(),
                spec.save_to
                    .as_ref()
                    .map_or(Json::Null, |s| Json::Str(s.clone())),
            ));
            fields.push(("save_state".into(), Json::Bool(spec.save_state)));
        }
        Request::Refit(spec) => {
            fields.push(("input".into(), Json::Str(spec.input.clone())));
            fields.push((
                "save_to".into(),
                spec.save_to
                    .as_ref()
                    .map_or(Json::Null, |s| Json::Str(s.clone())),
            ));
        }
    }
    Json::Obj(fields).render_compact()
}

/// Decodes one request line. Every failure is a `bad_request`.
pub fn decode_request(line: &str) -> Result<Request, ServiceError> {
    let doc = Json::parse(line.trim())?;
    let v = u64_field(&doc, "v")?;
    if v != PROTOCOL_VERSION {
        return Err(bad(format!(
            "unsupported protocol version {v} (this build speaks {PROTOCOL_VERSION})"
        )));
    }
    match str_field(&doc, "op")? {
        "health" => Ok(Request::Health),
        "metrics" => Ok(Request::Metrics),
        "model_info" => Ok(Request::ModelInfo),
        "shutdown" => Ok(Request::Shutdown),
        "impute" => Ok(Request::Impute {
            gap: GapQuery {
                start: endpoint_from(field(&doc, "from")?, "`from`")?,
                end: endpoint_from(field(&doc, "to")?, "`to`")?,
            },
            provenance: provenance_flag(&doc)?,
        }),
        "impute_batch" => {
            let gaps = arr_field(&doc, "gaps")?
                .iter()
                .map(gap_from)
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Request::ImputeBatch {
                gaps,
                provenance: provenance_flag(&doc)?,
            })
        }
        "repair" => {
            let track = points_from(arr_field(&doc, "track")?)?;
            let threshold_s = i64_field(&doc, "threshold_s")?;
            let densify = match doc.get("densify_m") {
                None => RepairConfig::default().densify_max_spacing_m,
                Some(Json::Null) => None,
                Some(v) => Some(
                    v.as_f64()
                        .ok_or_else(|| bad("field `densify_m` must be a number or null"))?,
                ),
            };
            Ok(Request::Repair {
                track,
                config: RepairConfig {
                    gap_threshold_s: threshold_s,
                    densify_max_spacing_m: densify,
                },
                provenance: provenance_flag(&doc)?,
            })
        }
        "fit" => {
            let defaults = FitSpec::default();
            let resolution = match doc.get("resolution") {
                None => defaults.resolution,
                Some(v) => u8::try_from(
                    v.as_u64()
                        .ok_or_else(|| bad("field `resolution` must be an integer"))?,
                )
                .map_err(|_| bad("field `resolution` out of range"))?,
            };
            let tolerance_m = match doc.get("tolerance_m") {
                None => defaults.tolerance_m,
                Some(v) => v
                    .as_f64()
                    .ok_or_else(|| bad("field `tolerance_m` must be a number"))?,
            };
            let projection = match doc.get("projection") {
                None => defaults.projection,
                Some(v) => parse_projection(
                    v.as_str()
                        .ok_or_else(|| bad("field `projection` must be a string"))?,
                )?,
            };
            let save_to = match doc.get("save_to") {
                None | Some(Json::Null) => None,
                Some(v) => Some(
                    v.as_str()
                        .ok_or_else(|| bad("field `save_to` must be a string or null"))?
                        .to_string(),
                ),
            };
            let save_state = match doc.get("save_state") {
                None => false,
                Some(Json::Bool(b)) => *b,
                Some(_) => return Err(bad("field `save_state` must be a boolean")),
            };
            Ok(Request::Fit(FitSpec {
                input: str_field(&doc, "input")?.to_string(),
                resolution,
                tolerance_m,
                projection,
                save_to,
                save_state,
            }))
        }
        "refit" => {
            let save_to = match doc.get("save_to") {
                None | Some(Json::Null) => None,
                Some(v) => Some(
                    v.as_str()
                        .ok_or_else(|| bad("field `save_to` must be a string or null"))?
                        .to_string(),
                ),
            };
            Ok(Request::Refit(RefitSpec {
                input: str_field(&doc, "input")?.to_string(),
                save_to,
            }))
        }
        other => Err(bad(format!("unknown op `{other}`"))),
    }
}

// --------------------------------------------------------------- responses

fn imputation_json(imp: &Imputation) -> Json {
    let mut fields = vec![
        ("points".into(), points_json(&imp.points)),
        (
            "cells".into(),
            Json::Arr(imp.cells.iter().map(|&c| cell_json(c)).collect()),
        ),
        ("start_cell".into(), cell_json(imp.start_cell)),
        ("end_cell".into(), cell_json(imp.end_cell)),
        ("cost".into(), Json::Num(imp.cost)),
        ("expanded".into(), Json::from(imp.expanded as u64)),
        ("raw_points".into(), Json::from(imp.raw_point_count as u64)),
    ];
    if let Some(records) = &imp.provenance {
        fields.push(("provenance".into(), provenance_json(records)));
    }
    Json::Obj(fields)
}

fn imputation_from(v: &Json) -> Result<Imputation, ServiceError> {
    Ok(Imputation {
        points: points_from(arr_field(v, "points")?)?,
        cells: arr_field(v, "cells")?
            .iter()
            .map(cell_from)
            .collect::<Result<Vec<_>, _>>()?,
        start_cell: cell_from(field(v, "start_cell")?)?,
        end_cell: cell_from(field(v, "end_cell")?)?,
        cost: f64_field(v, "cost")?,
        expanded: u64_field(v, "expanded")? as usize,
        raw_point_count: u64_field(v, "raw_points")? as usize,
        provenance: provenance_from(v)?,
    })
}

fn batch_failure_json(f: &BatchFailure) -> Json {
    match f {
        BatchFailure::NoPath { from, to } => Json::Obj(vec![
            ("ok".into(), Json::Bool(false)),
            ("code".into(), Json::Str(ErrorCode::NoPath.as_str().into())),
            ("from".into(), Json::Str(format!("{from:#x}"))),
            ("to".into(), Json::Str(format!("{to:#x}"))),
            ("message".into(), Json::Str(f.to_string())),
        ]),
        BatchFailure::Snap(message) => Json::Obj(vec![
            ("ok".into(), Json::Bool(false)),
            (
                "code".into(),
                Json::Str(ErrorCode::SnapFailed.as_str().into()),
            ),
            ("message".into(), Json::Str(message.clone())),
        ]),
        BatchFailure::InvalidGap(message) => Json::Obj(vec![
            ("ok".into(), Json::Bool(false)),
            (
                "code".into(),
                Json::Str(ErrorCode::BadRequest.as_str().into()),
            ),
            ("message".into(), Json::Str(message.clone())),
        ]),
    }
}

fn batch_result_from(v: &Json) -> Result<Result<Imputation, BatchFailure>, ServiceError> {
    if bool_field(v, "ok")? {
        return Ok(Ok(imputation_from(v)?));
    }
    let code = str_field(v, "code")?;
    match ErrorCode::parse(code) {
        Some(ErrorCode::NoPath) => {
            let parse_raw = |key: &str| -> Result<u64, ServiceError> {
                let s = str_field(v, key)?;
                u64::from_str_radix(s.trim_start_matches("0x"), 16)
                    .map_err(|_| bad(format!("bad cell id `{s}`")))
            };
            Ok(Err(BatchFailure::NoPath {
                from: parse_raw("from")?,
                to: parse_raw("to")?,
            }))
        }
        Some(ErrorCode::SnapFailed) => Ok(Err(BatchFailure::Snap(
            str_field(v, "message")?.to_string(),
        ))),
        Some(ErrorCode::BadRequest) => Ok(Err(BatchFailure::InvalidGap(
            str_field(v, "message")?.to_string(),
        ))),
        _ => Err(bad(format!("unknown batch failure code `{code}`"))),
    }
}

fn stats_json(s: &BatchStats) -> Json {
    Json::Obj(vec![
        ("queries".into(), Json::from(s.queries as u64)),
        ("ok".into(), Json::from(s.ok as u64)),
        ("failed".into(), Json::from(s.failed as u64)),
        ("unique_routes".into(), Json::from(s.unique_routes as u64)),
        ("cache_hits".into(), Json::from(s.cache_hits as u64)),
        (
            "routes_computed".into(),
            Json::from(s.routes_computed as u64),
        ),
    ])
}

fn stats_from(v: &Json) -> Result<BatchStats, ServiceError> {
    Ok(BatchStats {
        queries: u64_field(v, "queries")? as usize,
        ok: u64_field(v, "ok")? as usize,
        failed: u64_field(v, "failed")? as usize,
        unique_routes: u64_field(v, "unique_routes")? as usize,
        cache_hits: u64_field(v, "cache_hits")? as usize,
        routes_computed: u64_field(v, "routes_computed")? as usize,
    })
}

/// Admission-layer vitals on `health` payloads; absent means the daemon
/// is not coalescing (pre-admission responses still decode).
fn opt_admission(v: &Json) -> Result<Option<AdmissionInfo>, ServiceError> {
    let a = match v.get("admission") {
        None | Some(Json::Null) => return Ok(None),
        Some(a) => a,
    };
    Ok(Some(AdmissionInfo {
        queue_depth: u64_field(a, "queue_depth")?,
        queue_capacity: u64_field(a, "queue_capacity")?,
        latency: arr_field(a, "latency")?
            .iter()
            .map(|l| {
                Ok(OpLatency {
                    op: str_field(l, "op")?.to_string(),
                    p50_us: f64_field(l, "p50_us")?,
                    p95_us: f64_field(l, "p95_us")?,
                    p99_us: f64_field(l, "p99_us")?,
                })
            })
            .collect::<Result<Vec<_>, ServiceError>>()?,
    }))
}

fn response_data(response: &Response) -> Json {
    match response {
        Response::Health(h) => {
            let mut fields = vec![
                ("status".into(), Json::Str("serving".into())),
                ("version".into(), Json::Str(h.version.clone())),
                ("threads".into(), Json::from(h.threads as u64)),
                ("model_loaded".into(), Json::Bool(h.model_loaded)),
                ("cells".into(), Json::from(h.cells as u64)),
                ("transitions".into(), Json::from(h.transitions as u64)),
                ("uptime_ticks".into(), Json::from(h.uptime_ticks)),
                ("requests_total".into(), Json::from(h.requests_total)),
                ("route_cache_hits".into(), Json::from(h.route_cache_hits)),
                (
                    "route_cache_misses".into(),
                    Json::from(h.route_cache_misses),
                ),
            ];
            // The admission object appears only when the daemon
            // coalesces — a direct-path daemon's health bytes stay
            // pre-admission identical.
            if let Some(a) = &h.admission {
                fields.push((
                    "admission".into(),
                    Json::Obj(vec![
                        ("queue_depth".into(), Json::from(a.queue_depth)),
                        ("queue_capacity".into(), Json::from(a.queue_capacity)),
                        (
                            "latency".into(),
                            Json::Arr(
                                a.latency
                                    .iter()
                                    .map(|l| {
                                        Json::Obj(vec![
                                            ("op".into(), Json::Str(l.op.clone())),
                                            ("p50_us".into(), Json::Num(l.p50_us)),
                                            ("p95_us".into(), Json::Num(l.p95_us)),
                                            ("p99_us".into(), Json::Num(l.p99_us)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ]),
                ));
            }
            Json::Obj(fields)
        }
        Response::Metrics(s) => Json::Obj(vec![(
            "samples".into(),
            Json::Arr(
                s.samples
                    .iter()
                    .map(|sample| {
                        Json::Obj(vec![
                            ("name".into(), Json::Str(sample.name.clone())),
                            (
                                "labels".into(),
                                Json::Arr(
                                    sample
                                        .labels
                                        .iter()
                                        .map(|(k, v)| {
                                            Json::Arr(vec![
                                                Json::Str(k.clone()),
                                                Json::Str(v.clone()),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                            ("value".into(), Json::Num(sample.value)),
                        ])
                    })
                    .collect(),
            ),
        )]),
        Response::ModelInfo(m) => Json::Obj(vec![
            (
                "resolution".into(),
                Json::from(u64::from(m.config.resolution)),
            ),
            (
                "projection".into(),
                Json::Str(projection_token(m.config.projection).into()),
            ),
            ("tolerance_m".into(), Json::Num(m.config.rdp_tolerance_m)),
            (
                "weight_scheme".into(),
                Json::Str(weight_token(m.config.weight_scheme).into()),
            ),
            ("cells".into(), Json::from(m.cells as u64)),
            ("transitions".into(), Json::from(m.transitions as u64)),
            ("reports".into(), Json::from(m.reports)),
            (
                "busiest_cell_vessels".into(),
                Json::from(m.busiest_cell_vessels),
            ),
            ("storage_bytes".into(), Json::from(m.storage_bytes as u64)),
            ("blob_version".into(), Json::from(u64::from(m.blob_version))),
            (
                "state".into(),
                m.state.as_ref().map_or(Json::Null, |s| {
                    Json::Obj(vec![
                        ("state_bytes".into(), Json::from(s.state_bytes)),
                        ("trips".into(), Json::from(s.trips)),
                        ("reports".into(), Json::from(s.reports)),
                    ])
                }),
            ),
        ]),
        Response::Imputation(imp) => imputation_json(imp),
        Response::Batch(b) => Json::Obj(vec![
            (
                "results".into(),
                Json::Arr(
                    b.results
                        .iter()
                        .map(|r| match r {
                            Ok(imp) => {
                                let Json::Obj(mut fields) = imputation_json(imp) else {
                                    unreachable!("imputation encodes as an object");
                                };
                                fields.insert(0, ("ok".into(), Json::Bool(true)));
                                Json::Obj(fields)
                            }
                            Err(f) => batch_failure_json(f),
                        })
                        .collect(),
                ),
            ),
            ("stats".into(), stats_json(&b.stats)),
            ("cached_routes".into(), Json::from(b.cached_routes as u64)),
            ("wall_s".into(), Json::Num(b.wall_s)),
        ]),
        Response::Repaired(r) => Json::Obj(vec![
            ("points".into(), points_json(&r.points)),
            ("points_added".into(), Json::from(r.points_added as u64)),
            (
                "gaps".into(),
                Json::Arr(
                    r.gaps
                        .iter()
                        .map(|g| {
                            let mut fields = vec![
                                ("after_index".into(), Json::from(g.after_index as u64)),
                                ("duration_s".into(), Json::Num(exact(g.duration_s))),
                                ("points_added".into(), Json::from(g.points_added as u64)),
                                (
                                    "error".into(),
                                    g.error.as_ref().map_or(Json::Null, error_json),
                                ),
                            ];
                            if let Some(records) = &g.provenance {
                                fields.push(("provenance".into(), provenance_json(records)));
                            }
                            Json::Obj(fields)
                        })
                        .collect(),
                ),
            ),
        ]),
        Response::Fitted(f) => Json::Obj(vec![
            ("trips".into(), Json::from(f.trips as u64)),
            ("reports".into(), Json::from(f.reports as u64)),
            ("cells".into(), Json::from(f.cells as u64)),
            ("transitions".into(), Json::from(f.transitions as u64)),
            ("model_bytes".into(), Json::from(f.model_bytes as u64)),
            (
                "saved_to".into(),
                f.saved_to
                    .as_ref()
                    .map_or(Json::Null, |s| Json::Str(s.clone())),
            ),
        ]),
        Response::Refitted(r) => Json::Obj(vec![
            ("trips_added".into(), Json::from(r.trips_added)),
            ("reports_added".into(), Json::from(r.reports_added)),
            ("trips_total".into(), Json::from(r.trips_total)),
            ("reports_total".into(), Json::from(r.reports_total)),
            ("cells".into(), Json::from(r.cells as u64)),
            ("transitions".into(), Json::from(r.transitions as u64)),
            ("model_bytes".into(), Json::from(r.model_bytes as u64)),
            (
                "saved_to".into(),
                r.saved_to
                    .as_ref()
                    .map_or(Json::Null, |s| Json::Str(s.clone())),
            ),
        ]),
        Response::ShuttingDown => Json::Obj(vec![("stopping".into(), Json::Bool(true))]),
    }
}

fn weight_token(w: habit_core::WeightScheme) -> &'static str {
    match w {
        habit_core::WeightScheme::Hops => "hops",
        habit_core::WeightScheme::InverseTransitions => "inverse_transitions",
        habit_core::WeightScheme::NegLogFrequency => "neg_log_frequency",
    }
}

fn weight_from(token: &str) -> Result<habit_core::WeightScheme, ServiceError> {
    match token {
        "hops" => Ok(habit_core::WeightScheme::Hops),
        "inverse_transitions" => Ok(habit_core::WeightScheme::InverseTransitions),
        "neg_log_frequency" => Ok(habit_core::WeightScheme::NegLogFrequency),
        other => Err(bad(format!("unknown weight scheme `{other}`"))),
    }
}

/// Encodes a handled request's outcome as one compact JSON line.
pub fn encode_response(result: &Result<Response, ServiceError>) -> String {
    let doc = match result {
        Ok(response) => Json::Obj(vec![
            ("v".into(), Json::from(PROTOCOL_VERSION)),
            ("ok".into(), Json::Bool(true)),
            ("op".into(), Json::Str(response.op().into())),
            ("data".into(), response_data(response)),
        ]),
        Err(e) => Json::Obj(vec![
            ("v".into(), Json::from(PROTOCOL_VERSION)),
            ("ok".into(), Json::Bool(false)),
            ("error".into(), error_json(e)),
        ]),
    };
    doc.render_compact()
}

/// Decodes one response line back into the typed outcome. The outer
/// `Err` means the *envelope* was malformed; an inner `Err` is the
/// service-reported failure.
pub fn decode_response(line: &str) -> Result<Result<Response, ServiceError>, ServiceError> {
    let doc = Json::parse(line.trim())?;
    let v = u64_field(&doc, "v")?;
    if v != PROTOCOL_VERSION {
        return Err(bad(format!("unsupported protocol version {v}")));
    }
    if !bool_field(&doc, "ok")? {
        return Ok(Err(error_from(field(&doc, "error")?)?));
    }
    let data = field(&doc, "data")?;
    let response = match str_field(&doc, "op")? {
        "health" => Response::Health(HealthInfo {
            version: str_field(data, "version")?.to_string(),
            threads: u64_field(data, "threads")? as usize,
            model_loaded: bool_field(data, "model_loaded")?,
            cells: u64_field(data, "cells")? as usize,
            transitions: u64_field(data, "transitions")? as usize,
            uptime_ticks: u64_field(data, "uptime_ticks")?,
            requests_total: u64_field(data, "requests_total")?,
            route_cache_hits: u64_field(data, "route_cache_hits")?,
            route_cache_misses: u64_field(data, "route_cache_misses")?,
            admission: opt_admission(data)?,
        }),
        "metrics" => Response::Metrics(Snapshot {
            samples: arr_field(data, "samples")?
                .iter()
                .map(|s| {
                    Ok(Sample {
                        name: str_field(s, "name")?.to_string(),
                        labels: arr_field(s, "labels")?
                            .iter()
                            .map(|pair| {
                                let kv = pair
                                    .as_arr()
                                    .filter(|a| a.len() == 2)
                                    .ok_or_else(|| bad("label must be a [key,value] pair"))?;
                                let k = kv[0]
                                    .as_str()
                                    .ok_or_else(|| bad("label key must be a string"))?;
                                let v = kv[1]
                                    .as_str()
                                    .ok_or_else(|| bad("label value must be a string"))?;
                                Ok((k.to_string(), v.to_string()))
                            })
                            .collect::<Result<Vec<_>, ServiceError>>()?,
                        value: f64_field(s, "value")?,
                    })
                })
                .collect::<Result<Vec<_>, ServiceError>>()?,
        }),
        "model_info" => Response::ModelInfo(ModelReport {
            config: HabitConfig {
                resolution: u8::try_from(u64_field(data, "resolution")?)
                    .map_err(|_| bad("resolution out of range"))?,
                projection: parse_projection(str_field(data, "projection")?)?,
                rdp_tolerance_m: f64_field(data, "tolerance_m")?,
                weight_scheme: weight_from(str_field(data, "weight_scheme")?)?,
                ..HabitConfig::default()
            },
            cells: u64_field(data, "cells")? as usize,
            transitions: u64_field(data, "transitions")? as usize,
            reports: u64_field(data, "reports")?,
            busiest_cell_vessels: u64_field(data, "busiest_cell_vessels")?,
            storage_bytes: u64_field(data, "storage_bytes")? as usize,
            blob_version: u8::try_from(u64_field(data, "blob_version")?)
                .map_err(|_| bad("blob_version out of range"))?,
            state: match data.get("state") {
                None | Some(Json::Null) => None,
                Some(s) => Some(FitStateInfo {
                    state_bytes: u64_field(s, "state_bytes")?,
                    trips: u64_field(s, "trips")?,
                    reports: u64_field(s, "reports")?,
                }),
            },
        }),
        "impute" => Response::Imputation(imputation_from(data)?),
        "impute_batch" => Response::Batch(BatchOutcome {
            results: arr_field(data, "results")?
                .iter()
                .map(batch_result_from)
                .collect::<Result<Vec<_>, _>>()?,
            stats: stats_from(field(data, "stats")?)?,
            cached_routes: u64_field(data, "cached_routes")? as usize,
            wall_s: f64_field(data, "wall_s")?,
        }),
        "repair" => Response::Repaired(RepairOutcome {
            points: points_from(arr_field(data, "points")?)?,
            points_added: u64_field(data, "points_added")? as usize,
            gaps: arr_field(data, "gaps")?
                .iter()
                .map(|g| {
                    Ok(RepairedGap {
                        after_index: u64_field(g, "after_index")? as usize,
                        duration_s: i64_field(g, "duration_s")?,
                        points_added: u64_field(g, "points_added")? as usize,
                        error: match g.get("error") {
                            None | Some(Json::Null) => None,
                            Some(e) => Some(error_from(e)?),
                        },
                        provenance: provenance_from(g)?,
                    })
                })
                .collect::<Result<Vec<_>, ServiceError>>()?,
        }),
        "fit" => Response::Fitted(FitSummary {
            trips: u64_field(data, "trips")? as usize,
            reports: u64_field(data, "reports")? as usize,
            cells: u64_field(data, "cells")? as usize,
            transitions: u64_field(data, "transitions")? as usize,
            model_bytes: u64_field(data, "model_bytes")? as usize,
            saved_to: match data.get("saved_to") {
                None | Some(Json::Null) => None,
                Some(v) => Some(
                    v.as_str()
                        .ok_or_else(|| bad("saved_to must be a string or null"))?
                        .to_string(),
                ),
            },
        }),
        "refit" => Response::Refitted(RefitSummary {
            trips_added: u64_field(data, "trips_added")?,
            reports_added: u64_field(data, "reports_added")?,
            trips_total: u64_field(data, "trips_total")?,
            reports_total: u64_field(data, "reports_total")?,
            cells: u64_field(data, "cells")? as usize,
            transitions: u64_field(data, "transitions")? as usize,
            model_bytes: u64_field(data, "model_bytes")? as usize,
            saved_to: match data.get("saved_to") {
                None | Some(Json::Null) => None,
                Some(v) => Some(
                    v.as_str()
                        .ok_or_else(|| bad("saved_to must be a string or null"))?
                        .to_string(),
                ),
            },
        }),
        "shutdown" => Response::ShuttingDown,
        other => return Err(bad(format!("unknown op `{other}` in response"))),
    };
    Ok(Ok(response))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let line = encode_request(&req);
        let back = decode_request(&line).expect("decode");
        assert_eq!(back, req, "wire round trip for {line}");
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Health);
        round_trip_request(Request::Metrics);
        round_trip_request(Request::ModelInfo);
        round_trip_request(Request::Shutdown);
        for provenance in [false, true] {
            round_trip_request(Request::Impute {
                gap: GapQuery::new(10.3, 57.1, 0, 10.85, 57.45, 3600),
                provenance,
            });
            round_trip_request(Request::ImputeBatch {
                gaps: vec![
                    GapQuery::new(10.3, 57.1, 0, 10.85, 57.45, 3600),
                    GapQuery::new(-3.25, 48.125, 100, -3.0, 48.5, 7200),
                ],
                provenance,
            });
            round_trip_request(Request::Repair {
                track: vec![
                    TimedPoint::new(10.0, 56.0, 0),
                    TimedPoint::new(10.125, 56.0, 7200),
                ],
                config: RepairConfig {
                    gap_threshold_s: 1800,
                    densify_max_spacing_m: None,
                },
                provenance,
            });
        }
        // `provenance:false` stays off the wire entirely — the request
        // bytes are exactly what pre-provenance builds emitted.
        let line = encode_request(&Request::Impute {
            gap: GapQuery::new(10.3, 57.1, 0, 10.85, 57.45, 3600),
            provenance: false,
        });
        assert!(!line.contains("provenance"), "{line}");
        round_trip_request(Request::Fit(FitSpec {
            input: "kiel.csv".into(),
            resolution: 8,
            tolerance_m: 250.0,
            projection: habit_core::CellProjection::Center,
            save_to: Some("kiel.habit".into()),
            save_state: true,
        }));
        round_trip_request(Request::Refit(RefitSpec {
            input: "delta.csv".into(),
            save_to: Some("kiel.habit".into()),
        }));
        round_trip_request(Request::Refit(RefitSpec {
            input: "delta.csv".into(),
            save_to: None,
        }));
    }

    #[test]
    fn fit_defaults_apply_when_fields_are_absent() {
        let req = decode_request(r#"{"v":1,"op":"fit","input":"a.csv"}"#).unwrap();
        assert_eq!(
            req,
            Request::Fit(FitSpec {
                input: "a.csv".into(),
                ..FitSpec::default()
            })
        );
        // Repair's densify defaults to the paper's 250 m bound.
        let req = decode_request(
            r#"{"v":1,"op":"repair","track":[[0,10,56],[7200,10.5,56]],"threshold_s":600}"#,
        )
        .unwrap();
        let Request::Repair { config, .. } = req else {
            panic!("repair");
        };
        assert_eq!(config.densify_max_spacing_m, Some(250.0));
    }

    #[test]
    fn bad_requests_are_rejected_with_bad_request() {
        for line in [
            "not json",
            r#"{"op":"health"}"#,                      // missing version
            r#"{"v":2,"op":"health"}"#,                // wrong version
            r#"{"v":1,"op":"frobnicate"}"#,            // unknown op
            r#"{"v":1,"op":"impute","from":[1,2,3]}"#, // missing `to`
            r#"{"v":1,"op":"impute","from":[1,2],"to":[1,2,3]}"#, // short triple
            // 2^53+2: not exactly representable — rejected, not rounded.
            r#"{"v":1,"op":"impute","from":[1,2,9007199254740994],"to":[1,2,3]}"#,
            r#"{"v":1,"op":"repair","track":[[0,1,2]],"threshold_s":9007199254740994}"#,
            // `provenance` must be a boolean, not truthy JSON.
            r#"{"v":1,"op":"impute","from":[1,2,3],"to":[4,5,6],"provenance":1}"#,
        ] {
            let err = decode_request(line).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "{line}: {err}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let imp = Imputation {
            points: vec![
                TimedPoint::new(10.30000001, 57.1, 0),
                TimedPoint::new(10.5, 57.25, 1800),
                TimedPoint::new(10.85, 57.45, 3600),
            ],
            cells: vec![
                HexCell::from_axial(9, 3, -2).unwrap(),
                HexCell::from_axial(9, 4, -2).unwrap(),
            ],
            start_cell: HexCell::from_axial(9, 3, -2).unwrap(),
            end_cell: HexCell::from_axial(9, 4, -2).unwrap(),
            cost: 2.125,
            expanded: 17,
            raw_point_count: 9,
            provenance: None,
        };
        let mut cases: Vec<Result<Response, ServiceError>> = vec![
            Ok(Response::Health(HealthInfo {
                version: "0.1.0".into(),
                threads: 4,
                model_loaded: true,
                cells: 120,
                transitions: 240,
                uptime_ticks: 1_500_000,
                requests_total: 42,
                route_cache_hits: 7,
                route_cache_misses: 3,
                admission: None,
            })),
            Ok(Response::Health(HealthInfo {
                version: "0.1.0".into(),
                threads: 4,
                model_loaded: true,
                cells: 120,
                transitions: 240,
                uptime_ticks: 1_500_000,
                requests_total: 42,
                route_cache_hits: 7,
                route_cache_misses: 3,
                admission: Some(AdmissionInfo {
                    queue_depth: 5,
                    queue_capacity: 1024,
                    latency: vec![
                        OpLatency {
                            op: "impute".into(),
                            p50_us: 125.5,
                            p95_us: 900.0,
                            p99_us: 4200.25,
                        },
                        OpLatency {
                            op: "impute_batch".into(),
                            p50_us: 2048.0,
                            p95_us: 8192.0,
                            p99_us: 30000.0,
                        },
                    ],
                }),
            })),
            Ok(Response::Imputation(imp.clone())),
            Ok(Response::Batch(BatchOutcome {
                results: vec![
                    Ok(imp.clone()),
                    Err(BatchFailure::NoPath {
                        from: 0xabc,
                        to: 0xdef,
                    }),
                    Err(BatchFailure::Snap("grid error: bad latitude".into())),
                    Err(BatchFailure::InvalidGap(
                        "end (t=0) must be later than start (t=3600)".into(),
                    )),
                ],
                stats: BatchStats {
                    queries: 4,
                    ok: 1,
                    failed: 3,
                    unique_routes: 4,
                    cache_hits: 1,
                    routes_computed: 2,
                },
                cached_routes: 3,
                wall_s: 0.125,
            })),
            Ok(Response::Repaired(RepairOutcome {
                points: imp.points.clone(),
                points_added: 1,
                gaps: vec![
                    RepairedGap {
                        after_index: 4,
                        duration_s: 2400,
                        points_added: 1,
                        error: None,
                        provenance: None,
                    },
                    RepairedGap {
                        after_index: 9,
                        duration_s: 3600,
                        points_added: 0,
                        error: Some(ServiceError::new(ErrorCode::NoPath, "no path")),
                        provenance: None,
                    },
                ],
            })),
            Ok(Response::Fitted(FitSummary {
                trips: 12,
                reports: 1800,
                cells: 120,
                transitions: 240,
                model_bytes: 40960,
                saved_to: None,
            })),
            Ok(Response::Refitted(RefitSummary {
                trips_added: 3,
                reports_added: 450,
                trips_total: 15,
                reports_total: 2250,
                cells: 130,
                transitions: 260,
                model_bytes: 81920,
                saved_to: Some("kiel.habit".into()),
            })),
            Ok(Response::ShuttingDown),
        ];
        // Every code in the taxonomy crosses the wire and decodes back.
        cases.extend(
            ErrorCode::ALL.map(|code| Err(ServiceError::new(code, format!("{code} \"failed\"")))),
        );
        // A direct-path daemon's health line carries no admission object.
        assert!(!encode_response(&cases[0]).contains("admission"));
        for case in cases {
            let line = encode_response(&case);
            assert!(!line.contains('\n'), "one line per response");
            let back = decode_response(&line).expect("envelope");
            match (&case, &back) {
                (Ok(Response::Imputation(a)), Ok(Response::Imputation(b))) => {
                    assert_eq!(a.points, b.points);
                    assert_eq!(a.cells, b.cells);
                    assert_eq!(a.cost, b.cost);
                }
                (Ok(Response::Batch(a)), Ok(Response::Batch(b))) => {
                    assert_eq!(a.stats, b.stats);
                    assert_eq!(a.results.len(), b.results.len());
                    assert_eq!(a.results[1].as_ref().err(), b.results[1].as_ref().err());
                    assert_eq!(a.results[3].as_ref().err(), b.results[3].as_ref().err());
                }
                (Ok(Response::Repaired(a)), Ok(Response::Repaired(b))) => {
                    assert_eq!(a, b);
                }
                (Ok(Response::Health(a)), Ok(Response::Health(b))) => assert_eq!(a, b),
                (Ok(Response::Fitted(a)), Ok(Response::Fitted(b))) => assert_eq!(a, b),
                (Ok(Response::Refitted(a)), Ok(Response::Refitted(b))) => assert_eq!(a, b),
                (Ok(Response::ShuttingDown), Ok(Response::ShuttingDown)) => {}
                (Err(a), Err(b)) => assert_eq!(a, b),
                other => panic!("round trip mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn model_info_round_trips_config_tokens() {
        let report = ModelReport {
            config: HabitConfig::with_r_t(8, 250.0),
            cells: 10,
            transitions: 20,
            reports: 300,
            busiest_cell_vessels: 4,
            storage_bytes: 2048,
            blob_version: 2,
            state: Some(FitStateInfo {
                state_bytes: 65536,
                trips: 12,
                reports: 300,
            }),
        };
        let line = encode_response(&Ok(Response::ModelInfo(report.clone())));
        let Ok(Response::ModelInfo(back)) = decode_response(&line).unwrap() else {
            panic!("model info");
        };
        assert_eq!(back.config.resolution, 8);
        assert_eq!(back.config.rdp_tolerance_m, 250.0);
        assert_eq!(back.config.projection, report.config.projection);
        assert_eq!(back.storage_bytes, 2048);
        assert_eq!(back.blob_version, 2);
        assert_eq!(back.state, report.state);

        // A stateless (v1) model encodes state as null and decodes to
        // None.
        let v1 = ModelReport {
            blob_version: 1,
            state: None,
            ..report
        };
        let line = encode_response(&Ok(Response::ModelInfo(v1)));
        assert!(line.contains("\"state\":null"), "{line}");
        let Ok(Response::ModelInfo(back)) = decode_response(&line).unwrap() else {
            panic!("model info");
        };
        assert_eq!(back.blob_version, 1);
        assert_eq!(back.state, None);
    }

    #[test]
    fn provenance_round_trips_and_stays_off_the_plain_wire() {
        let cell_a = HexCell::from_axial(9, 3, -2).unwrap();
        let cell_b = HexCell::from_axial(9, 4, -2).unwrap();
        let records = vec![
            PointProvenance {
                kind: ProvenanceKind::Observed,
                cell: Some(cell_a),
                from_cell: None,
                cell_msgs: 120,
                edge_transitions: 0,
                cost_share: 0.0,
                confidence: 1.0,
            },
            PointProvenance {
                kind: ProvenanceKind::Route,
                cell: Some(cell_b),
                from_cell: Some(cell_a),
                cell_msgs: 75,
                edge_transitions: 4,
                cost_share: 0.5,
                confidence: 0.8,
            },
            PointProvenance {
                kind: ProvenanceKind::Synthesized,
                cell: None,
                from_cell: None,
                cell_msgs: 75,
                edge_transitions: 4,
                cost_share: 0.5,
                confidence: 0.8,
            },
        ];
        let mut imp = Imputation {
            points: vec![
                TimedPoint::new(10.3, 57.1, 0),
                TimedPoint::new(10.5, 57.25, 1800),
                TimedPoint::new(10.85, 57.45, 3600),
            ],
            cells: vec![cell_a, cell_b],
            start_cell: cell_a,
            end_cell: cell_b,
            cost: 2.125,
            expanded: 17,
            raw_point_count: 9,
            provenance: None,
        };
        // No provenance → the payload bytes never mention it.
        let plain = encode_response(&Ok(Response::Imputation(imp.clone())));
        assert!(!plain.contains("provenance"), "{plain}");

        imp.provenance = Some(records.clone());
        let line = encode_response(&Ok(Response::Imputation(imp.clone())));
        let Ok(Response::Imputation(back)) = decode_response(&line).unwrap() else {
            panic!("imputation");
        };
        assert_eq!(back.provenance, Some(records.clone()));
        assert_eq!(back.points, imp.points);

        // And through a repaired gap.
        let outcome = RepairOutcome {
            points: imp.points.clone(),
            points_added: 1,
            gaps: vec![RepairedGap {
                after_index: 4,
                duration_s: 2400,
                points_added: 1,
                error: None,
                provenance: Some(records.clone()),
            }],
        };
        let line = encode_response(&Ok(Response::Repaired(outcome.clone())));
        let Ok(Response::Repaired(back)) = decode_response(&line).unwrap() else {
            panic!("repair");
        };
        assert_eq!(back, outcome);
    }

    #[test]
    fn metrics_snapshot_round_trips() {
        let snapshot = Snapshot {
            samples: vec![
                Sample {
                    name: "habit_requests_total".into(),
                    labels: vec![("op".into(), "impute".into())],
                    value: 7.0,
                },
                Sample {
                    name: "habit_connections_open".into(),
                    labels: vec![],
                    value: 2.0,
                },
                Sample {
                    name: "habit_request_latency_us_sum".into(),
                    labels: vec![("op".into(), "impute".into())],
                    value: 1234.5,
                },
            ],
        };
        let line = encode_response(&Ok(Response::Metrics(snapshot.clone())));
        let Ok(Response::Metrics(back)) = decode_response(&line).unwrap() else {
            panic!("metrics");
        };
        assert_eq!(back, snapshot);
    }
}
