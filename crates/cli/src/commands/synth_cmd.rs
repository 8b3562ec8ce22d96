//! `habit synth` — generate a synthetic AIS CSV dataset.
//!
//! The one command with no service operation behind it: dataset
//! generation is an input producer, not a model operation. Its errors
//! still speak the unified taxonomy (`bad_request` for unknown
//! datasets/bad scales, I/O codes from the writer).

use crate::args::Args;
use crate::io::write_ais_csv;
use eval::DatasetId;
use habit_service::ServiceError;
use std::path::Path;
use synth::Dataset;

/// Builds the named dataset (`dan` / `kiel` / `sar`).
pub fn build_dataset(name: &str, seed: u64, scale: f64) -> Result<Dataset, ServiceError> {
    Ok(dataset_id(name)?.generate(seed, scale))
}

/// Parses a dataset name (`dan` / `kiel` / `sar`, any case).
pub fn dataset_id(name: &str) -> Result<DatasetId, ServiceError> {
    DatasetId::parse(name).ok_or_else(|| {
        ServiceError::bad_request(format!(
            "unknown dataset `{}` (dan|kiel|sar)",
            name.to_ascii_lowercase()
        ))
    })
}

/// Entry point for `habit synth`.
pub fn run(args: &Args) -> Result<(), ServiceError> {
    args.check_flags(&["dataset", "out", "seed", "scale"])?;
    let name = args.require("dataset")?;
    let out = args.require("out")?;
    let seed: u64 = args.get_or("seed", 42)?;
    let scale: f64 = args.get_or("scale", 1.0)?;
    if scale <= 0.0 {
        return Err(ServiceError::bad_request("--scale must be positive"));
    }

    let dataset = build_dataset(name, seed, scale)?;
    write_ais_csv(&dataset.trajectories, Path::new(out))?;
    println!(
        "{}: wrote {} positions from {} vessels to {out}",
        dataset.name,
        dataset.num_positions(),
        dataset.num_ships()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_names_resolve() {
        assert!(build_dataset("kiel", 1, 0.05).is_ok());
        assert!(build_dataset("KIEL", 1, 0.05).is_ok());
        let err = build_dataset("atlantis", 1, 0.05).unwrap_err();
        assert_eq!(err.code, habit_service::ErrorCode::BadRequest);
    }

    #[test]
    fn synth_writes_csv() {
        let out = std::env::temp_dir().join(format!("habit-synth-{}.csv", std::process::id()));
        let args = Args::parse(
            [
                "synth",
                "--dataset",
                "kiel",
                "--seed",
                "7",
                "--scale",
                "0.05",
                "--out",
                out.to_str().unwrap(),
            ]
            .map(String::from),
        )
        .unwrap();
        run(&args).expect("synth");
        let text = std::fs::read_to_string(&out).expect("file written");
        std::fs::remove_file(&out).ok();
        assert!(text.starts_with("mmsi,t,lon,lat,sog,cog,heading"));
        assert!(text.lines().count() > 100);
    }

    #[test]
    fn rejects_bad_scale_and_unknown_flags() {
        let args = Args::parse(
            [
                "synth",
                "--dataset",
                "kiel",
                "--out",
                "x.csv",
                "--scale",
                "-1",
            ]
            .map(String::from),
        )
        .unwrap();
        assert_eq!(run(&args).unwrap_err().exit_code(), 2, "usage error");
        let args = Args::parse(
            [
                "synth",
                "--dataset",
                "kiel",
                "--out",
                "x.csv",
                "--sale",
                "1",
            ]
            .map(String::from),
        )
        .unwrap();
        assert!(run(&args).unwrap_err().to_string().contains("unknown flag"));
    }
}
