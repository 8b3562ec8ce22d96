//! Runs the experiments (Tables 1–4, Figures 3–7, four ablations) on one
//! grid and emits their reports — the generator behind the committed
//! `EXPERIMENTS.md` and `reports/*.json` baselines.
//!
//! ```text
//! # Re-run everything; write reports/<id>.json + EXPERIMENTS.md:
//! cargo run -p habit-bench --release --bin all_experiments -- --out-dir reports/
//!
//! # Run some experiments and print their markdown, e.g. Figure 5:
//! cargo run -p habit-bench --release --bin all_experiments -- fig5
//!
//! # Re-render EXPERIMENTS.md from existing JSON without re-running
//! # (CI's freshness check):
//! cargo run -p habit-bench --release --bin all_experiments -- \
//!     --render-only --out-dir reports/ --md-out /tmp/EXPERIMENTS.md
//! ```
//!
//! With every experiment, `--out-dir` also writes `EXPERIMENTS.md` (or
//! `--md-out`); otherwise the markdown goes to stdout (or `--md-out`).
//! The committed scale-0.05 answers are regenerated with
//! `HABIT_EVAL_SCALE=0.05 … -- --out-dir reports/smoke/ --md-out /dev/null`.
//! Expect about a minute at full scale in release mode; set
//! `HABIT_EVAL_SCALE=0.05` for a smoke run. Exit codes: 0 success, 1
//! experiment or I/O failure, 2 usage error.

use eval::report::ExperimentReport;
use habit_bench::docs::render_experiments_md;
use habit_bench::reports::{self, Experiment, EXPERIMENTS};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: all_experiments [ID…] [--out-dir DIR] [--md-out PATH] [--render-only]";

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err((code, message)) => {
            eprintln!("error: {message}");
            ExitCode::from(code)
        }
    }
}

/// A failure carries its exit code and message.
fn run() -> Result<(), (u8, String)> {
    let (mut out_dir, mut md_out, mut render_only) = (None::<PathBuf>, None::<PathBuf>, false);
    let mut selected: Vec<&Experiment> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        let message = format!("bad argument `{arg}` ({USAGE}; ids: {})", ids.join(", "));
        let usage = || (2, message.clone());
        match arg.as_str() {
            "--out-dir" => out_dir = Some(args.next().ok_or_else(usage)?.into()),
            "--md-out" => md_out = Some(args.next().ok_or_else(usage)?.into()),
            "--render-only" => render_only = true,
            id => selected.push(reports::experiment(id).ok_or_else(usage)?),
        }
    }
    let all = selected.is_empty();
    let built: Vec<ExperimentReport> = match (&out_dir, render_only, all) {
        (Some(dir), true, true) => habit_bench::load_reports(dir).map_err(|e| (1, e))?,
        (_, true, _) => {
            let message =
                "--render-only needs --out-dir pointing at existing JSON reports, and no id";
            return Err((2, message.into()));
        }
        (_, false, _) => {
            let scale = std::env::var("HABIT_EVAL_SCALE")
                .ok()
                .and_then(|v| v.parse().ok());
            if all {
                selected = EXPERIMENTS.iter().collect();
            }
            let run = reports::run(&selected, habit_bench::SEED, scale.unwrap_or(1.0));
            let (reports, grid) = run.map_err(|e| (1, e.to_string()))?;
            eprintln!("{} (dataset, method) pairs fitted", grid.fits());
            for (report, dir) in reports
                .iter()
                .flat_map(|r| out_dir.iter().map(move |d| (r, d)))
            {
                let written = habit_bench::write_report_json(report, dir);
                let path =
                    written.map_err(|e| (1, format!("could not write JSON baseline: {e}")))?;
                eprintln!("wrote {}", path.display());
            }
            reports
        }
    };

    let md = if all {
        render_experiments_md(&built)
    } else {
        built.iter().map(ExperimentReport::to_markdown).collect()
    };
    // With --out-dir and every experiment the document lands in
    // EXPERIMENTS.md unless --md-out overrides; otherwise on stdout.
    let target = md_out.or_else(|| out_dir.filter(|_| all).map(|_| "EXPERIMENTS.md".into()));
    let Some(path) = target else {
        print!("{md}");
        return Ok(());
    };
    std::fs::write(&path, &md)
        .map_err(|e| (1, format!("could not write {}: {e}", path.display())))?;
    eprintln!("wrote {} ({} experiments)", path.display(), built.len());
    Ok(())
}
