//! `habit refit` — a thin adapter: flags → [`Request::Refit`] → summary.
//!
//! Merges a delta AIS CSV of **new** trips into a fitted model's
//! embedded fit state and re-finalizes the graph — byte-identical to
//! refitting from scratch over history ∪ delta, without re-reading the
//! history. The model file must embed its fit state (`habit fit
//! --save-state`); by default the refitted blob overwrites `--model`,
//! or lands at `--out`.

use crate::args::Args;
use crate::commands::open_service;
use habit_service::{RefitSpec, Request, Response, ServiceError};

/// Entry point for `habit refit`.
pub fn run(args: &Args) -> Result<(), ServiceError> {
    args.check_flags(&["model", "input", "out", "threads"])?;
    let input = args.require("input")?;
    let threads: usize = args.get_or(
        "threads",
        std::thread::available_parallelism().map_or(1, usize::from),
    )?;

    let model = args.require("model")?;
    let out = args.get("out").unwrap_or(model).to_string();
    let service = open_service(model, threads, 1)?;
    let Response::Refitted(summary) = service.handle(&Request::Refit(RefitSpec {
        input: input.to_string(),
        save_to: Some(out.clone()),
    }))?
    else {
        unreachable!("Refit answers Refitted");
    };
    println!(
        "refitted +{} trips (+{} reports) onto {} trips total: {} cells, {} transitions, {} bytes -> {out}",
        summary.trips_added,
        summary.reports_added,
        summary.trips_total,
        summary.cells,
        summary.transitions,
        summary.model_bytes,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use habit_core::HabitModel;
    use std::path::PathBuf;

    fn write_lane_csv(tag: &str, mmsi0: u64, vessels: u64) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("habit-cli-refit-{tag}-{}.csv", std::process::id()));
        let mut body = String::from("mmsi,t,lon,lat,sog,cog,heading\n");
        for k in 0..vessels {
            for i in 0..150i64 {
                body.push_str(&format!(
                    "{},{},{:.6},56.0,12.0,90.0,90.0\n",
                    mmsi0 + k,
                    i * 60,
                    10.0 + i as f64 * 0.003
                ));
            }
        }
        std::fs::write(&path, body).unwrap();
        path
    }

    #[test]
    fn refit_end_to_end_updates_the_blob_in_place() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let history = write_lane_csv("hist", 100, 3);
        let delta = write_lane_csv("delta", 500, 2);
        let blob = dir.join(format!("habit-cli-refit-{pid}.habit"));

        // Fit with --save-state so the blob embeds its state.
        let fit = Args::parse(
            [
                "fit",
                "--input",
                history.to_str().unwrap(),
                "--out",
                blob.to_str().unwrap(),
                "--save-state",
            ]
            .map(String::from),
        )
        .unwrap();
        crate::commands::fit::run(&fit).expect("fit --save-state");
        let before = std::fs::read(&blob).unwrap();
        assert_eq!(before[4], 2, "v2 blob on disk");

        let refit = Args::parse(
            [
                "refit",
                "--model",
                blob.to_str().unwrap(),
                "--input",
                delta.to_str().unwrap(),
            ]
            .map(String::from),
        )
        .unwrap();
        run(&refit).expect("refit");

        let after = std::fs::read(&blob).unwrap();
        assert_ne!(after, before, "refit rewrote the blob in place");
        let model = HabitModel::from_bytes(&after).expect("refitted blob loads");
        let prov = model.fit_provenance().expect("still refittable");
        assert_eq!(prov.trips, 5);
        assert_eq!(prov.reports, 750);

        for p in [&history, &delta, &blob] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn refit_requires_flags_and_a_state_bearing_model() {
        let err = run(&Args::parse(["refit"].map(String::from)).unwrap()).unwrap_err();
        assert_eq!(err.exit_code(), 2);

        let err = run(&Args::parse(
            ["refit", "--model", "/nonexistent.habit", "--input", "x.csv"].map(String::from),
        )
        .unwrap())
        .unwrap_err();
        assert_eq!(err.code, habit_service::ErrorCode::Io);
    }
}
