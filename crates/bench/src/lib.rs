//! # habit-bench — the experiment harness
//!
//! One runnable binary per table/figure of the paper's evaluation
//! (`cargo run -p habit-bench --release --bin <target>`):
//!
//! | target | regenerates |
//! |--------|-------------|
//! | `table1` | Table 1 — dataset characteristics |
//! | `table2` | Table 2 — framework storage size |
//! | `table3` | Table 3 — simplification effect |
//! | `table4` | Table 4 — query latency |
//! | `fig3`   | Figure 3 — accuracy vs resolution × projection |
//! | `fig4`   | Figure 4 — accuracy vs tolerance |
//! | `fig5`   | Figure 5 — accuracy sensitivity vs GTI/SLI |
//! | `fig6`   | Figure 6 — qualitative examples (ASCII map + GeoJSON) |
//! | `fig7`   | Figure 7 — accuracy vs gap duration |
//! | `ablation_weights` | DESIGN.md §5 — A* edge-weight schemes |
//! | `ablation_medians` | DESIGN.md §5 — exact vs P² medians, HLL precision |
//! | `ablation_palmto`  | the paper's dropped competitor, reproduced |
//! | `ablation_fleet`   | vessel-type conditioning (paper future work) |
//! | `all_experiments`  | everything above; writes `reports/*.json` + `EXPERIMENTS.md` |
//! | `gen_readme`       | regenerates `README.md` from [`docs`] (`--check` fails when stale) |
//!
//! Every binary builds a structured [`eval::ExperimentReport`] via
//! [`reports`], prints its markdown, and with `--out-dir DIR` persists
//! the JSON baseline. `all_experiments --out-dir reports/` regenerates
//! the committed `EXPERIMENTS.md`; `--render-only` re-renders it from
//! the checked-in JSON without re-running anything (the CI freshness
//! check). [`docs`] generates `README.md` the same way (`gen_readme`).
//!
//! Serving and fitting *performance* is not measured here: the repo's
//! benchmark (`benchmark/` + `BENCHMARK.json`) drives the real `habit`
//! binary over TCP.
//!
//! Set `HABIT_EVAL_SCALE` (default 1.0) to shrink datasets for quick
//! runs; seeds are fixed so outputs are reproducible.

use eval::experiments::Bench;
use eval::report::{ExperimentReport, ReportError};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

pub mod docs;
pub mod p2;
pub mod reports;

/// Common seed for all experiment binaries.
pub const SEED: u64 = 42;

/// Prepares the DAN bench with the shared seed.
pub fn dan() -> Bench {
    Bench::dan(SEED)
}

/// Prepares the KIEL bench with the shared seed.
pub fn kiel() -> Bench {
    Bench::kiel(SEED)
}

/// Prepares the SAR bench with the shared seed.
pub fn sar() -> Bench {
    Bench::sar(SEED)
}

/// Flags shared by every experiment binary.
#[derive(Debug, Default)]
pub struct BinArgs {
    /// `--out-dir DIR` — persist `<id>.json` baselines here.
    pub out_dir: Option<PathBuf>,
    /// `--render-only` — re-render from existing JSON, run nothing
    /// (`all_experiments` only).
    pub render_only: bool,
    /// `--md-out PATH` — where `all_experiments` writes the generated
    /// `EXPERIMENTS.md` (default `EXPERIMENTS.md` when `--out-dir` is
    /// given).
    pub md_out: Option<PathBuf>,
}

impl BinArgs {
    /// Parses the process arguments; errors on anything unrecognized.
    pub fn parse_env() -> Result<Self, String> {
        let mut out = BinArgs::default();
        let mut iter = std::env::args().skip(1);
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--out-dir" => {
                    let dir = iter.next().ok_or("--out-dir needs a directory")?;
                    out.out_dir = Some(PathBuf::from(dir));
                }
                "--md-out" => {
                    let path = iter.next().ok_or("--md-out needs a path")?;
                    out.md_out = Some(PathBuf::from(path));
                }
                "--render-only" => out.render_only = true,
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(out)
    }
}

/// Writes one report's JSON baseline as `<out_dir>/<id>.json`.
pub fn write_report_json(report: &ExperimentReport, out_dir: &Path) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(out_dir)?;
    let path = out_dir.join(format!("{}.json", report.id));
    std::fs::write(&path, report.to_json())?;
    Ok(path)
}

/// Loads every canonical report, `<dir>/<id>.json` for each id of
/// [`reports::EXPERIMENT_ORDER`], in that order — the one reader behind
/// `all_experiments --render-only` and the golden tests.
pub fn load_reports(dir: &Path) -> Result<Vec<ExperimentReport>, String> {
    reports::EXPERIMENT_ORDER
        .iter()
        .map(|id| {
            let path = dir.join(format!("{id}.json"));
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("could not read {}: {e}", path.display()))?;
            ExperimentReport::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
        })
        .collect()
}

/// Shared `main` for single-experiment binaries: builds the report,
/// prints its markdown to stdout, and honours `--out-dir`. Exit codes
/// follow the `habit` CLI convention: 0 success, 1 experiment failure,
/// 2 usage error.
pub fn report_main<F>(build: F) -> ExitCode
where
    F: FnOnce() -> Result<ExperimentReport, ReportError>,
{
    let args = match BinArgs::parse_env() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e} (supported: --out-dir DIR)");
            return ExitCode::from(2);
        }
    };
    if args.render_only || args.md_out.is_some() {
        eprintln!(
            "error: --render-only/--md-out are `all_experiments` flags (supported here: --out-dir DIR)"
        );
        return ExitCode::from(2);
    }
    match build() {
        Ok(report) => {
            print!("{}", report.to_markdown());
            if let Some(dir) = &args.out_dir {
                match write_report_json(&report, dir) {
                    Ok(path) => eprintln!("wrote {}", path.display()),
                    Err(e) => {
                        eprintln!("error: could not write JSON baseline: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Renders a polyline set as a coarse ASCII map (used by `fig6`).
pub fn ascii_map(
    series: &[(&str, &[geo_kernel::GeoPoint])],
    width: usize,
    height: usize,
) -> String {
    let mut min_lon = f64::INFINITY;
    let mut max_lon = f64::NEG_INFINITY;
    let mut min_lat = f64::INFINITY;
    let mut max_lat = f64::NEG_INFINITY;
    for (_, pts) in series {
        for p in *pts {
            min_lon = min_lon.min(p.lon);
            max_lon = max_lon.max(p.lon);
            min_lat = min_lat.min(p.lat);
            max_lat = max_lat.max(p.lat);
        }
    }
    if !min_lon.is_finite() {
        return String::new();
    }
    let pad_lon = ((max_lon - min_lon) * 0.05).max(1e-6);
    let pad_lat = ((max_lat - min_lat) * 0.05).max(1e-6);
    min_lon -= pad_lon;
    max_lon += pad_lon;
    min_lat -= pad_lat;
    max_lat += pad_lat;

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
