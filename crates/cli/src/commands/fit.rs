//! `habit fit` — a thin adapter: flags → [`Request::Fit`] → summary.

use crate::args::Args;
use habit_service::{FitSpec, Request, Response, Service, ServiceConfig, ServiceError};

pub use habit_service::parse_projection;

/// Entry point for `habit fit`.
pub fn run(args: &Args) -> Result<(), ServiceError> {
    args.check_flags(&[
        "input",
        "out",
        "resolution",
        "tolerance",
        "projection",
        "save-state",
    ])?;
    let input = args.require("input")?;
    let out = args.require("out")?;
    let resolution: u8 = args.get_or("resolution", 9)?;
    let tolerance: f64 = args.get_or("tolerance", 100.0)?;
    let projection = parse_projection(args.get("projection").unwrap_or("median"))?;
    let save_state = args.switch("save-state");

    // A model-less service: Fit creates (and would serve) the model.
    let service = Service::new(ServiceConfig::default());
    let spec = FitSpec {
        input: input.to_string(),
        resolution,
        tolerance_m: tolerance,
        projection,
        save_to: Some(out.to_string()),
        save_state,
    };
    let Response::Fitted(summary) = service.handle(&Request::Fit(spec))? else {
        unreachable!("Fit answers Fitted");
    };
    let state_note = if save_state { " (+fit state)" } else { "" };
    println!(
        "fitted r={resolution} t={tolerance} on {} trips ({} reports): {} cells, {} transitions, {} bytes{state_note} -> {out}",
        summary.trips,
        summary.reports,
        summary.cells,
        summary.transitions,
        summary.model_bytes,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::synth_cmd::build_dataset;
    use crate::io::write_ais_csv;
    use habit_core::{CellProjection, HabitModel};

    #[test]
    fn projection_parse() {
        assert_eq!(parse_projection("median").unwrap(), CellProjection::Median);
        assert_eq!(parse_projection("C").unwrap(), CellProjection::Center);
        assert!(parse_projection("middle").is_err());
    }

    #[test]
    fn fit_end_to_end() {
        let dir = std::env::temp_dir();
        let csv = dir.join(format!("habit-fit-{}.csv", std::process::id()));
        let model_path = dir.join(format!("habit-fit-{}.habit", std::process::id()));
        let dataset = build_dataset("kiel", 7, 0.05).unwrap();
        write_ais_csv(&dataset.trajectories, &csv).unwrap();

        let args = Args::parse(
            [
                "fit",
                "--input",
                csv.to_str().unwrap(),
                "--out",
                model_path.to_str().unwrap(),
                "--resolution",
                "8",
                "--tolerance",
                "250",
            ]
            .map(String::from),
        )
        .unwrap();
        run(&args).expect("fit");

        let bytes = std::fs::read(&model_path).expect("model written");
        let model = HabitModel::from_bytes(&bytes).expect("valid model blob");
        assert_eq!(model.config().resolution, 8);
        assert_eq!(model.config().rdp_tolerance_m, 250.0);
        assert!(model.node_count() > 10);
        std::fs::remove_file(&csv).ok();
        std::fs::remove_file(&model_path).ok();
    }

    #[test]
    fn fit_rejects_empty_input_and_bad_resolution() {
        let dir = std::env::temp_dir();
        let csv = dir.join(format!("habit-fit-empty-{}.csv", std::process::id()));
        // Header + one stationary point: no trips survive segmentation.
        std::fs::write(&csv, "mmsi,t,lon,lat\n1,0,10.0,56.0\n").unwrap();
        let args = Args::parse(
            [
                "fit",
                "--input",
                csv.to_str().unwrap(),
                "--out",
                "/tmp/x.habit",
            ]
            .map(String::from),
        )
        .unwrap();
        let err = run(&args).unwrap_err();
        assert!(err.to_string().contains("no trips"), "{err}");
        assert_eq!(err.code, habit_service::ErrorCode::EmptyModel);

        let args = Args::parse(
            [
                "fit",
                "--input",
                csv.to_str().unwrap(),
                "--out",
                "/tmp/x.habit",
                "--resolution",
                "99",
            ]
            .map(String::from),
        )
        .unwrap();
        let err = run(&args).unwrap_err();
        std::fs::remove_file(&csv).ok();
        assert_eq!(err.code, habit_service::ErrorCode::BadRequest);
        assert!(err.to_string().contains("out of range"), "{err}");
    }
}
