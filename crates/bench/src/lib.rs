//! # habit-bench — the experiment harness
//!
//! One runner regenerates every table and figure of the paper's
//! evaluation, plus four ablations
//! (`cargo run -p habit-bench --release --bin all_experiments -- [ID…]`):
//!
//! | id | regenerates |
//! |----|-------------|
//! | `table1` | Table 1 — dataset characteristics |
//! | `table2` | Table 2 — framework storage size |
//! | `table3` | Table 3 — simplification effect |
//! | `table4` | Table 4 — query latency |
//! | `fig3`   | Figure 3 — accuracy vs resolution × projection |
//! | `fig4`   | Figure 4 — accuracy vs tolerance |
//! | `fig5`   | Figure 5 — accuracy sensitivity vs GTI/SLI |
//! | `fig6`   | Figure 6 — qualitative examples (ASCII map + polylines) |
//! | `fig7`   | Figure 7 — accuracy vs gap duration |
//! | `ablation_weights` | A* edge-weight schemes |
//! | `ablation_medians` | exact vs P² medians, HLL precision |
//! | `ablation_palmto`  | the paper's dropped competitor, reproduced |
//! | `ablation_fleet`   | vessel-type conditioning (paper future work) |
//!
//! [`reports::EXPERIMENTS`] declares each experiment as data: its
//! datasets, method sweep and gap sets (from which its grid cells are
//! derived) and, for a tabular one, its row-key and value columns, which
//! one renderer turns into every table. [`reports::run`] fits each
//! (dataset, method) pair the selected experiments read once. With no
//! id, `all_experiments --out-dir reports/` regenerates every
//! `reports/<id>.json` (schema `habit-experiment-report/v2`: answers,
//! with the timings and the run's measurement kept apart) and the
//! committed `EXPERIMENTS.md`; `--render-only` re-renders it from the
//! checked-in JSON without running anything (the CI freshness check).
//! With ids, it prints those reports' markdown. `reports/smoke/` holds
//! the answers of a scale-0.05 run, which the tier-1 test
//! `tests/smoke_gate.rs` regenerates and compares. [`docs`] generates
//! `README.md` the same way (`gen_readme`).
//!
//! Serving and fitting *performance* is not measured here: the repo's
//! benchmark (`benchmark/` + `BENCHMARK.json`) drives the real `habit`
//! binary over TCP.
//!
//! The `all_experiments` binary reads `HABIT_EVAL_SCALE` (default 1.0)
//! to shrink datasets for quick runs; seeds are fixed so outputs are
//! reproducible.

use eval::report::ExperimentReport;
use std::path::{Path, PathBuf};

pub mod docs;
pub mod p2;
pub mod reports;

/// Seed of every committed report.
pub const SEED: u64 = 42;

/// Writes one report's JSON baseline as `<out_dir>/<id>.json`.
pub fn write_report_json(report: &ExperimentReport, out_dir: &Path) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(out_dir)?;
    let path = out_dir.join(format!("{}.json", report.id));
    std::fs::write(&path, report.to_json())?;
    Ok(path)
}

/// Loads every canonical report, `<dir>/<id>.json` for each experiment
/// of [`reports::EXPERIMENTS`], in that order — the one reader behind
/// `all_experiments --render-only` and the golden tests.
pub fn load_reports(dir: &Path) -> Result<Vec<ExperimentReport>, String> {
    reports::EXPERIMENTS
        .iter()
        .map(|e| {
            let path = dir.join(format!("{}.json", e.id));
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("could not read {}: {e}", path.display()))?;
            ExperimentReport::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
        })
        .collect()
}

/// Renders a polyline set as a coarse ASCII map (used by `fig6`).
pub fn ascii_map(
    series: &[(&str, &[geo_kernel::GeoPoint])],
    width: usize,
    height: usize,
) -> String {
    let points = series.iter().flat_map(|(_, pts)| pts.iter());
    let inf = f64::INFINITY;
    let (mut min_lon, mut max_lon, mut min_lat, mut max_lat) = points
        .fold((inf, -inf, inf, -inf), |(a, b, c, d), p| {
            (a.min(p.lon), b.max(p.lon), c.min(p.lat), d.max(p.lat))
        });
    if !min_lon.is_finite() {
        return String::new();
    }
    let pad_lon = ((max_lon - min_lon) * 0.05).max(1e-6);
    let pad_lat = ((max_lat - min_lat) * 0.05).max(1e-6);
    (min_lon, max_lon) = (min_lon - pad_lon, max_lon + pad_lon);
    (min_lat, max_lat) = (min_lat - pad_lat, max_lat + pad_lat);

    let mut canvas = vec![vec![b' '; width]; height];
    let symbols = [b'o', b'H', b'G', b'S', b'P'];
    for (si, (_, pts)) in series.iter().enumerate() {
        let sym = symbols[si.min(symbols.len() - 1)];
        for p in *pts {
            let x = ((p.lon - min_lon) / (max_lon - min_lon) * (width - 1) as f64) as usize;
            let y = ((max_lat - p.lat) / (max_lat - min_lat) * (height - 1) as f64) as usize;
            canvas[y.min(height - 1)][x.min(width - 1)] = sym;
        }
    }
    let mut out = String::with_capacity(height * (width + 1));
    for row in canvas {
        out.push_str(std::str::from_utf8(&row).expect("ascii"));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo_kernel::GeoPoint;

    #[test]
    fn ascii_map_draws_symbols() {
        let a = vec![GeoPoint::new(10.0, 56.0), GeoPoint::new(10.5, 56.2)];
        let b = vec![GeoPoint::new(10.2, 56.1)];
        let map = ascii_map(&[("truth", &a), ("habit", &b)], 40, 12);
        assert_eq!(map.lines().count(), 12);
        assert!(map.contains('o'));
        assert!(map.contains('H'));
        assert!(ascii_map(&[], 10, 5).is_empty());
    }
}
