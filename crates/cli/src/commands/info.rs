//! `habit info` — a thin adapter: flags → [`Request::ModelInfo`] → text.

use crate::args::Args;
use crate::commands::open_service;
use habit_core::{CellProjection, WeightScheme};
use habit_service::{ModelReport, Request, Response, ServiceError};

/// Renders a model description (separated from `run` for testing).
pub fn describe(report: &ModelReport) -> String {
    let projection = match report.config.projection {
        CellProjection::Center => "center (c)",
        CellProjection::Median => "median (w)",
    };
    let weights = match report.config.weight_scheme {
        WeightScheme::Hops => "hops (paper default)",
        WeightScheme::InverseTransitions => "1/transitions",
        WeightScheme::NegLogFrequency => "neg-log frequency",
    };
    let mut out = String::new();
    out.push_str(&format!(
        "HABIT model ({} bytes serialized)\n",
        report.storage_bytes
    ));
    out.push_str(&format!(
        "  resolution r      : {}\n",
        report.config.resolution
    ));
    out.push_str(&format!("  projection p      : {projection}\n"));
    out.push_str(&format!(
        "  rdp tolerance t   : {} m\n",
        report.config.rdp_tolerance_m
    ));
    out.push_str(&format!("  edge weights      : {weights}\n"));
    out.push_str(&format!(
        "  graph             : {} cells, {} transitions\n",
        report.cells, report.transitions
    ));
    out.push_str(&format!("  indexed reports   : {}\n", report.reports));
    out.push_str(&format!(
        "  busiest cell      : {} distinct vessels\n",
        report.busiest_cell_vessels
    ));
    match &report.state {
        Some(state) => {
            out.push_str(&format!(
                "  blob version      : v{} (refittable: embedded fit state)\n",
                report.blob_version
            ));
            out.push_str(&format!(
                "  fit state         : {} bytes\n",
                state.state_bytes
            ));
            out.push_str(&format!(
                "  fit provenance    : {} trips, {} reports accumulated\n",
                state.trips, state.reports
            ));
        }
        None => {
            out.push_str(&format!(
                "  blob version      : v{} (read-only: no embedded fit state — refit needs `fit --save-state`)\n",
                report.blob_version
            ));
        }
    }
    out
}

/// Entry point for `habit info`.
pub fn run(args: &Args) -> Result<(), ServiceError> {
    args.check_flags(&["model"])?;
    let service = open_service(args.require("model")?, 1, 1)?;
    let Response::ModelInfo(report) = service.handle(&Request::ModelInfo)? else {
        unreachable!("ModelInfo answers ModelInfo");
    };
    print!("{}", describe(&report));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ais::{trips_to_table, AisPoint, Trip};
    use habit_core::{HabitConfig, HabitModel};
    use habit_service::{Service, ServiceConfig};

    #[test]
    fn describe_contains_key_fields() {
        let trips = vec![Trip {
            trip_id: 1,
            mmsi: 5,
            points: (0..150)
                .map(|i| AisPoint::new(5, i * 60, 10.0 + i as f64 * 0.003, 56.0, 12.0, 90.0))
                .collect(),
        }];
        let model =
            HabitModel::fit(&trips_to_table(&trips), HabitConfig::with_r_t(8, 250.0)).unwrap();
        let service = Service::with_model(
            ServiceConfig {
                threads: 1,
                cache_capacity: 1,
            },
            model,
        );
        let Response::ModelInfo(report) = service.handle(&Request::ModelInfo).unwrap() else {
            panic!("model info");
        };
        let text = describe(&report);
        assert!(text.contains("resolution r      : 8"));
        assert!(text.contains("250 m"));
        assert!(text.contains("median (w)"));
        assert!(text.contains("cells"));
        assert!(text.contains("indexed reports"));
        // A freshly fitted model is refittable: v2 with provenance.
        assert!(text.contains("blob version      : v2"), "{text}");
        assert!(
            text.contains("fit provenance    : 1 trips, 150 reports"),
            "{text}"
        );
        assert!(text.contains("fit state         : "), "{text}");
    }

    #[test]
    fn describe_distinguishes_v1_models() {
        let report = habit_service::ModelReport {
            config: HabitConfig::default(),
            cells: 10,
            transitions: 20,
            reports: 100,
            busiest_cell_vessels: 2,
            storage_bytes: 1024,
            blob_version: 1,
            state: None,
        };
        let text = describe(&report);
        assert!(text.contains("blob version      : v1"), "{text}");
        assert!(text.contains("--save-state"), "{text}");
        assert!(!text.contains("fit provenance"), "{text}");
    }

    #[test]
    fn run_reports_missing_file() {
        let args = Args::parse(["info", "--model", "/does/not/exist"].map(String::from)).unwrap();
        let err = run(&args).unwrap_err();
        assert_eq!(err.code, habit_service::ErrorCode::Io);
    }
}
