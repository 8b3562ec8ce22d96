//! `habit export` — build a traffic density map from an AIS CSV and
//! export it as GeoJSON or CSV, optionally repairing gaps first (the
//! paper's Fig. 1 workflow). With `--model`, every trip's track is
//! repaired through the same [`Request::Repair`] operation the daemon
//! serves — the command never touches a model directly.

use crate::args::Args;
use crate::commands::open_service;
use crate::io::read_ais_csv;
use ais::{segment_all, TripConfig};
use density::{render_ascii, to_csv, to_geojson, DensityMap};
use geo_kernel::TimedPoint;
use habit_service::{RepairConfig, Request, Response, Service, ServiceError};
use std::path::Path;

/// Entry point for `habit export`.
pub fn run(args: &Args) -> Result<(), ServiceError> {
    args.check_flags(&["input", "out", "resolution", "format", "model", "preview"])?;
    let input = args.require("input")?;
    let out = args.require("out")?;
    let resolution: u8 = args.get_or("resolution", 8)?;
    let format = args.get("format").unwrap_or("geojson");
    if !(1..=hexgrid::MAX_RESOLUTION).contains(&resolution) {
        return Err(ServiceError::bad_request(format!(
            "--resolution {resolution} out of range"
        )));
    }
    if !matches!(format, "geojson" | "csv") {
        return Err(ServiceError::bad_request(format!(
            "unknown format `{format}` (geojson|csv)"
        )));
    }

    let trajectories = read_ais_csv(Path::new(input))?;
    let trips = segment_all(&trajectories, &TripConfig::default());
    let mut map = DensityMap::new(resolution);
    let mut repaired_points = 0usize;

    // With a model: repair each trip's internal gaps (via the service's
    // Repair operation) before aggregating.
    let service: Option<Service> = match args.get("model") {
        Some(path) => Some(open_service(path, 1, 64)?),
        None => None,
    };
    for trip in &trips {
        match &service {
            Some(service) if trip.points.len() >= 2 => {
                let track: Vec<TimedPoint> = trip
                    .points
                    .iter()
                    .map(|p| TimedPoint { pos: p.pos, t: p.t })
                    .collect();
                let Response::Repaired(repaired) = service.handle(&Request::Repair {
                    track,
                    config: RepairConfig::default(),
                    provenance: false,
                })?
                else {
                    unreachable!("Repair answers Repaired");
                };
                repaired_points += repaired.points_added;
                map.add_path(&repaired.points, trip.mmsi);
            }
            _ => map.add_trip(trip),
        }
    }

    let body = match format {
        "geojson" => to_geojson(&map),
        _ => to_csv(&map),
    };
    std::fs::write(out, &body)?;
    println!(
        "{} trips -> {} cells at r={resolution}{} -> {out} ({format}, {} bytes)",
        trips.len(),
        map.cell_count(),
        if service.is_some() {
            format!(", {repaired_points} imputed points")
        } else {
            String::new()
        },
        body.len()
    );
    if args.switch("preview") {
        println!("{}", render_ascii(&map, 76, 20));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::synth_cmd::build_dataset;
    use crate::io::write_ais_csv;
    use habit_core::HabitModel;

    fn paths(tag: &str) -> (std::path::PathBuf, std::path::PathBuf) {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        (
            dir.join(format!("habit-export-{pid}-{tag}.csv")),
            dir.join(format!("habit-export-{pid}-{tag}.out")),
        )
    }

    #[test]
    fn exports_geojson_and_csv() {
        let (csv, out) = paths("a");
        let dataset = build_dataset("kiel", 7, 0.05).unwrap();
        write_ais_csv(&dataset.trajectories, &csv).unwrap();

        for format in ["geojson", "csv"] {
            let args = Args::parse(
                [
                    "export",
                    "--input",
                    csv.to_str().unwrap(),
                    "--out",
                    out.to_str().unwrap(),
                    "--resolution",
                    "8",
                    "--format",
                    format,
                ]
                .map(String::from),
            )
            .unwrap();
            run(&args).expect("export");
            let body = std::fs::read_to_string(&out).unwrap();
            match format {
                "geojson" => assert!(body.starts_with("{\"type\":\"FeatureCollection\"")),
                _ => assert!(body.starts_with("cell,lon,lat,messages,vessels,mean_sog")),
            }
        }
        std::fs::remove_file(&csv).ok();
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn export_with_model_repairs_gaps() {
        let (csv, out) = paths("b");
        let dataset = build_dataset("kiel", 9, 0.05).unwrap();
        write_ais_csv(&dataset.trajectories, &csv).unwrap();

        // Fit a model on the same data and export with repair enabled.
        let trips = dataset.trips();
        let model = HabitModel::fit(
            &ais::trips_to_table(&trips),
            habit_core::HabitConfig::with_r_t(9, 100.0),
        )
        .unwrap();
        let model_path =
            std::env::temp_dir().join(format!("habit-export-{}-model.habit", std::process::id()));
        std::fs::write(&model_path, model.to_bytes()).unwrap();

        let args = Args::parse(
            [
                "export",
                "--input",
                csv.to_str().unwrap(),
                "--out",
                out.to_str().unwrap(),
                "--model",
                model_path.to_str().unwrap(),
            ]
            .map(String::from),
        )
        .unwrap();
        run(&args).expect("export with repair");
        assert!(std::fs::read_to_string(&out).unwrap().contains("Polygon"));
        std::fs::remove_file(&csv).ok();
        std::fs::remove_file(&out).ok();
        std::fs::remove_file(&model_path).ok();
    }

    #[test]
    fn rejects_unknown_format() {
        let (csv, out) = paths("c");
        std::fs::write(&csv, "mmsi,t,lon,lat\n1,0,10.0,56.0\n1,60,10.01,56.0\n").unwrap();
        let args = Args::parse(
            [
                "export",
                "--input",
                csv.to_str().unwrap(),
                "--out",
                out.to_str().unwrap(),
                "--format",
                "shapefile",
            ]
            .map(String::from),
        )
        .unwrap();
        let err = run(&args).unwrap_err();
        std::fs::remove_file(&csv).ok();
        assert!(err.to_string().contains("unknown format"), "{err}");
        assert_eq!(err.exit_code(), 2);
    }
}
