//! The declared metrics — the same names, units and directions as the
//! root `BENCHMARK.json` (a unit test compares the two) — and the result
//! a workload run hands back.

use eval::json::Json;

/// `(name, unit, better, bound)` of every end-to-end metric. Each
/// workload reports each of them; see `README.md` for what an
/// "operation" is per workload.
pub const END_TO_END: [(&str, &str, &str, f64); 7] = [
    ("setup_s", "s", "lower", 0.25),
    ("throughput_rps", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("fit_reports_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("model_bytes", "bytes", "lower", 0.01),
    ("dtw_mean_m", "m", "lower", 0.20),
];

/// `(name, unit, better)` of every per-layer metric; layers are crate
/// names, `loadgen` is the benchmark itself, `closure` the residuals.
pub const PER_LAYER: [(&str, &str, &str); 54] = [
    ("loadgen.sent", "count", "higher"),
    ("loadgen.ok", "count", "higher"),
    ("loadgen.typed_errors", "count", "lower"),
    ("loadgen.late_share", "share", "lower"),
    ("loadgen.max_lag_ms", "ms", "lower"),
    ("loadgen.latency_p95_ms", "ms", "lower"),
    ("loadgen.latency_p99_ms", "ms", "lower"),
    ("loadgen.latency_max_ms", "ms", "lower"),
    ("service.wire.decode_us_p50", "us", "lower"),
    ("service.wire.encode_us_p50", "us", "lower"),
    ("service.wire.request_bytes_mean", "bytes", "lower"),
    ("service.wire.response_bytes_mean", "bytes", "lower"),
    ("service.handle_direct_us_p50", "us", "lower"),
    ("service.handle_coalesced_us_p50", "us", "lower"),
    ("service.admission.wait_us_p50", "us", "lower"),
    ("service.admission.flushes", "count", "lower"),
    ("service.admission.gaps_per_flush_mean", "count", "higher"),
    ("service.admission.rejects", "count", "lower"),
    ("service.route_cache_hit_share", "share", "higher"),
    ("service.server.residual_us_p50", "us", "lower"),
    ("service.csvio.read_ais_ms", "ms", "lower"),
    ("service.csvio.read_ais_rows_per_s", "1/s", "higher"),
    ("engine.batch_us_per_gap", "us", "lower"),
    ("engine.unique_route_share", "share", "lower"),
    ("engine.cache_hit_share", "share", "higher"),
    ("engine.routes_computed", "count", "lower"),
    ("engine.accumulate_sharded_ms", "ms", "lower"),
    ("engine.refit_ms", "ms", "lower"),
    ("core.snap_us_p50", "us", "lower"),
    ("core.snap_offcell_share", "share", "lower"),
    ("core.route_us_p50", "us", "lower"),
    ("core.route_us_p95", "us", "lower"),
    ("core.route_expanded_mean", "count", "lower"),
    ("core.route_cells_mean", "count", "lower"),
    ("core.tail_us_p50", "us", "lower"),
    ("core.tail_points_mean", "count", "lower"),
    ("core.tail_raw_points_mean", "count", "lower"),
    ("core.lag_ms", "ms", "lower"),
    ("core.accumulate_ms", "ms", "lower"),
    ("core.finalize_ms", "ms", "lower"),
    ("core.state_merge_ms", "ms", "lower"),
    ("core.encode_lean_ms", "ms", "lower"),
    ("core.encode_full_ms", "ms", "lower"),
    ("core.decode_lean_ms", "ms", "lower"),
    ("core.decode_full_ms", "ms", "lower"),
    ("core.blob_lean_bytes", "bytes", "lower"),
    ("core.blob_full_bytes", "bytes", "lower"),
    ("core.cells", "count", "lower"),
    ("core.transitions", "count", "lower"),
    ("ais.segment_ms", "ms", "lower"),
    ("ais.trips", "count", "higher"),
    ("ais.table_ms", "ms", "lower"),
    ("closure.handle_residual_share", "share", "lower"),
    ("closure.e2e_residual_share", "share", "lower"),
];

/// What one run of one workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Declared metrics, by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Further figures printed for the reader: `(name, value, unit)`.
    pub notes: Vec<(String, f64, &'static str)>,
    /// Operations attempted: requests, child runs and byte checks.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Records a declared metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records a figure that is printed but not declared.
    pub fn note(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.notes.push((name.into(), value, unit));
    }

    /// Counts one check: attempted, and failed with `what` when not `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// `true` when nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The value of a recorded declared metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// The run's result object: exactly the declared metrics of the
    /// mode (`traced` → per-layer, else end-to-end), in declared order.
    /// A declared metric the run did not record is a bug in the run.
    pub fn result_json(&self, traced: bool) -> Json {
        let declared: Vec<(&str, &str)> = if traced {
            PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.0, m.1)).collect()
        };
        let metrics = declared
            .into_iter()
            .map(|(name, unit)| {
                let value = self
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was not recorded"));
                let fields = vec![
                    ("value".to_string(), Json::Num(value)),
                    ("unit".to_string(), Json::Str(unit.to_string())),
                ];
                (name.to_string(), Json::Obj(fields))
            })
            .collect();
        Json::Obj(vec![
            ("correct".to_string(), Json::Bool(self.correct())),
            ("attempted".to_string(), Json::from(self.attempted.max(1))),
            ("failed".to_string(), Json::from(self.failed)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ])
    }
}

/// The unit of a declared metric.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|m| m.0 == name)
        .map_or("", |m| m.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Workload;

    fn declared(doc: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let text = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (
                    text("name"),
                    text("unit"),
                    text("better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_code_reports() {
        let path = crate::daemon::repo_root().join("BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.0.into(), m.1.into(), m.2.into(), Some(m.3)))
            .collect();
        assert_eq!(declared(&doc, "end_to_end"), e2e);
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.0.into(), m.1.into(), m.2.into(), None))
            .collect();
        assert_eq!(declared(&doc, "per_layer"), layers);
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, names);
    }

    #[test]
    fn result_object_has_the_contract_keys() {
        let mut outcome = Outcome::default();
        for (i, m) in END_TO_END.iter().enumerate() {
            outcome.set(m.0, 1.5 + i as f64);
        }
        outcome.check(true, String::new);
        outcome.check(false, || "a check".to_string());
        let line = outcome.result_json(false).render_compact();
        assert!(line.starts_with("{\"correct\":false,\"attempted\":2,\"failed\":1,\"metrics\":{\"setup_s\":{\"value\":1.5,\"unit\":\"s\"}"), "{line}");
        assert!(!line.contains('\n'));
    }
}
