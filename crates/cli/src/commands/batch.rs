//! `habit batch` — a thin adapter: flags → [`Request::ImputeBatch`] →
//! `gap,t,lon,lat` CSV plus a throughput summary.
//!
//! Reads a gap CSV (`lon1,lat1,t1,lon2,lat2,t2`, one query per row;
//! `--input -` streams stdin), answers the whole batch through the
//! service's engine path (route dedup + LRU cache + thread pool), and
//! reports per-query failures on stderr without failing the run — a
//! batch server keeps serving.

use crate::args::Args;
use crate::commands::run_gap_csv_batch;
use crate::io::write_batch_csv;
use habit_core::Imputation;
use habit_service::ServiceError;
use std::path::Path;

/// Default route-cache capacity (entries).
const DEFAULT_CACHE: usize = 4096;

/// Default worker count: the machine's available parallelism.
fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Entry point for `habit batch`.
pub fn run(args: &Args) -> Result<(), ServiceError> {
    args.check_flags(&["model", "input", "out", "threads", "cache"])?;
    let model_path = args.require("model")?;
    let input = args.require("input")?;
    let out = args.require("out")?;
    let threads: usize = args.get_or("threads", default_threads())?;
    let cache: usize = args.get_or("cache", DEFAULT_CACHE)?;

    let (service, batch) = run_gap_csv_batch(model_path, input, threads, Some(cache), false)?;
    let row_results: Vec<Option<&Imputation>> =
        batch.results.iter().map(|r| r.as_ref().ok()).collect();
    write_batch_csv(&row_results, Path::new(out))?;

    let stats = batch.stats;
    let qps = stats.queries as f64 / batch.wall_s.max(1e-9);
    let hit_rate = if stats.unique_routes > 0 {
        stats.cache_hits as f64 / stats.unique_routes as f64 * 100.0
    } else {
        0.0
    };
    println!(
        "imputed {}/{} gaps ({} failed) in {:.3} s — {qps:.1} queries/s -> {out}",
        stats.ok, stats.queries, stats.failed, batch.wall_s
    );
    println!(
        "routes: {} unique, {} searched, {} from cache ({hit_rate:.1}% hit rate); threads {}, cache {}/{}",
        stats.unique_routes,
        stats.routes_computed,
        stats.cache_hits,
        service.threads(),
        batch.cached_routes,
        cache,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ais::{trips_to_table, AisPoint, Trip};
    use habit_core::{HabitConfig, HabitModel};

    fn write_model(path: &Path) {
        let trips: Vec<Trip> = (0..4)
            .map(|k| Trip {
                trip_id: k + 1,
                mmsi: 100 + k,
                points: (0..150)
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
        std::fs::write(path, model.to_bytes()).unwrap();
    }

    fn run_args(tokens: &[&str]) -> Result<(), ServiceError> {
        run(&Args::parse(tokens.iter().map(|s| s.to_string())).unwrap())
    }

    #[test]
    fn batch_imputes_a_gap_file() {
        let dir = std::env::temp_dir();
        let model = dir.join(format!("habit-batch-{}.habit", std::process::id()));
        let gaps = dir.join(format!("habit-batch-{}-gaps.csv", std::process::id()));
        let out = dir.join(format!("habit-batch-{}-out.csv", std::process::id()));
        write_model(&model);
        // Repeated routes exercise the dedup/cache path; the last rows —
        // an unsnappable endpoint (latitude 95), an end before its
        // start, an end at its start — fail per-query without failing
        // the run: a batch server keeps serving.
        std::fs::write(
            &gaps,
            "lon1,lat1,t1,lon2,lat2,t2\n\
             10.05,56.0,0,10.35,56.0,3600\n\
             10.05,56.0,100,10.35,56.0,3700\n\
             10.10,56.0,0,10.40,56.0,3600\n\
             10.05,95.0,0,10.35,56.0,3600\n\
             10.05,56.0,3600,10.35,56.0,0\n\
             10.10,56.0,600,10.40,56.0,600\n",
        )
        .unwrap();
        run_args(&[
            "batch",
            "--model",
            model.to_str().unwrap(),
            "--input",
            gaps.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
            "--threads",
            "2",
            "--cache",
            "16",
        ])
        .expect("batch");
        let text = std::fs::read_to_string(&out).unwrap();
        std::fs::remove_file(&model).ok();
        std::fs::remove_file(&gaps).ok();
        std::fs::remove_file(&out).ok();
        assert!(text.starts_with("gap,t,lon,lat"));
        assert!(text.lines().count() > 3, "{text}");
        // The three good gaps appear; the failed ones contribute no
        // rows (and did not fail the run).
        for id in ["0", "1", "2"] {
            assert!(
                text.lines()
                    .skip(1)
                    .any(|l| l.split(',').next() == Some(id)),
                "gap {id} missing from output"
            );
        }
        for id in ["3", "4", "5"] {
            assert!(
                !text
                    .lines()
                    .skip(1)
                    .any(|l| l.split(',').next() == Some(id)),
                "failed gap {id} must contribute no rows: {text}"
            );
        }
    }

    #[test]
    fn rejects_missing_files_and_empty_input() {
        let err = run_args(&[
            "batch",
            "--model",
            "/nonexistent.habit",
            "--input",
            "/nonexistent.csv",
            "--out",
            "/tmp/x.csv",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("csv"), "{err}");

        let dir = std::env::temp_dir();
        let empty = dir.join(format!("habit-batch-{}-empty.csv", std::process::id()));
        std::fs::write(&empty, "lon1,lat1,t1,lon2,lat2,t2\n").unwrap();
        let err = run_args(&[
            "batch",
            "--model",
            "/nonexistent.habit",
            "--input",
            empty.to_str().unwrap(),
            "--out",
            "/tmp/x.csv",
        ])
        .unwrap_err();
        std::fs::remove_file(&empty).ok();
        assert!(err.to_string().contains("no gap queries"), "{err}");
        assert_eq!(err.exit_code(), 1, "runtime failure, as documented");
    }
}
