//! `habit repair` — a thin adapter: flags → [`Request::Repair`] →
//! repaired track CSV plus a per-gap report.

use crate::args::Args;
use crate::commands::open_service;
use crate::io::{read_track_csv, write_track_csv};
use habit_service::{RepairConfig, Request, Response, ServiceError};
use std::path::Path;

/// Entry point for `habit repair`.
pub fn run(args: &Args) -> Result<(), ServiceError> {
    args.check_flags(&["model", "input", "out", "threshold", "densify"])?;
    let model_path = args.require("model")?;
    let input = args.require("input")?;
    let out = args.require("out")?;
    let threshold: i64 = args.get_or("threshold", 30 * 60)?;
    if threshold <= 0 {
        return Err(ServiceError::bad_request(
            "--threshold must be positive seconds",
        ));
    }
    // Default 250 m (the paper's resampling bound); `--densify none`
    // keeps only the simplified vertices.
    let densify: Option<f64> = match args.get("densify") {
        Some("none") => None,
        Some(raw) => Some(
            raw.parse()
                .map_err(|_| ServiceError::bad_request(format!("bad --densify `{raw}`")))?,
        ),
        None => Some(250.0),
    };

    let track = read_track_csv(Path::new(input))?;
    let points_in = track.len();
    let service = open_service(model_path, 1, 1)?;
    let Response::Repaired(repaired) = service.handle(&Request::Repair {
        track,
        config: RepairConfig {
            gap_threshold_s: threshold,
            densify_max_spacing_m: densify,
        },
        provenance: false,
    })?
    else {
        unreachable!("Repair answers Repaired");
    };
    write_track_csv(&repaired.points, Path::new(out))?;
    println!(
        "{} -> {out}: {} points in, {} gaps found, {} imputed, {} points added",
        input,
        points_in,
        repaired.gaps_found(),
        repaired.gaps_imputed(),
        repaired.points_added
    );
    for gap in &repaired.gaps {
        let status = match &gap.error {
            None => format!("+{} points", gap.points_added),
            Some(e) => format!("FAILED: {e}"),
        };
        println!(
            "  gap after point {} ({} s): {status}",
            gap.after_index, gap.duration_s
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ais::{trips_to_table, AisPoint, Trip};
    use habit_core::{HabitConfig, HabitModel};

    #[test]
    fn repair_end_to_end() {
        let trips: Vec<Trip> = (0..4)
            .map(|k| Trip {
                trip_id: k + 1,
                mmsi: 100 + k,
                points: (0..200)
                    .map(|i| {
                        AisPoint::new(
                            100 + k,
                            i as i64 * 60,
                            10.0 + i as f64 * 0.003,
                            56.0,
                            12.0,
                            90.0,
                        )
                    })
                    .collect(),
            })
            .collect();
        let model = HabitModel::fit(&trips_to_table(&trips), HabitConfig::default()).unwrap();

        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let model_path = dir.join(format!("habit-repair-{pid}.habit"));
        let track_path = dir.join(format!("habit-repair-{pid}-in.csv"));
        let out_path = dir.join(format!("habit-repair-{pid}-out.csv"));
        std::fs::write(&model_path, model.to_bytes()).unwrap();

        // A track with a 40-minute hole.
        let mut csv = String::from("t,lon,lat\n");
        for i in 0..200i64 {
            if (60..100).contains(&i) {
                continue;
            }
            csv.push_str(&format!("{},{:.6},56.0\n", i * 60, 10.0 + i as f64 * 0.003));
        }
        std::fs::write(&track_path, csv).unwrap();

        let args = Args::parse(
            [
                "repair",
                "--model",
                model_path.to_str().unwrap(),
                "--input",
                track_path.to_str().unwrap(),
                "--out",
                out_path.to_str().unwrap(),
                "--threshold",
                "1800",
            ]
            .map(String::from),
        )
        .unwrap();
        run(&args).expect("repair");

        let repaired = read_track_csv(&out_path).expect("output readable");
        std::fs::remove_file(&model_path).ok();
        std::fs::remove_file(&track_path).ok();
        std::fs::remove_file(&out_path).ok();
        assert!(repaired.len() > 160, "points added: {}", repaired.len());
        assert!(repaired.windows(2).all(|w| w[0].t <= w[1].t));
    }

    #[test]
    fn rejects_degenerate_inputs() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let track_path = dir.join(format!("habit-repair-{pid}-tiny.csv"));
        std::fs::write(&track_path, "t,lon,lat\n0,10.0,56.0\n").unwrap();
        let args = Args::parse(
            [
                "repair",
                "--model",
                "/nonexistent",
                "--input",
                track_path.to_str().unwrap(),
                "--out",
                "/tmp/x.csv",
                "--threshold",
                "-5",
            ]
            .map(String::from),
        )
        .unwrap();
        let err = run(&args).unwrap_err();
        std::fs::remove_file(&track_path).ok();
        assert!(err.to_string().contains("positive"), "{err}");
        assert_eq!(err.exit_code(), 2, "flag misuse is a usage error");
    }
}
