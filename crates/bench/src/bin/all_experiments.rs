//! Runs every experiment (Tables 1–4, Figures 3–7, four ablations) and
//! emits the consolidated report — the generator behind the committed
//! `EXPERIMENTS.md` and `reports/*.json` baselines.
//!
//! ```text
//! # Re-run everything; write reports/<id>.json + EXPERIMENTS.md:
//! cargo run -p habit-bench --release --bin all_experiments -- --out-dir reports/
//!
//! # Re-render EXPERIMENTS.md from existing JSON without re-running
//! # (CI's freshness check):
//! cargo run -p habit-bench --release --bin all_experiments -- \
//!     --render-only --out-dir reports/ --md-out /tmp/EXPERIMENTS.md
//! ```
//!
//! Without `--out-dir` the markdown goes to stdout and nothing is
//! persisted. Expect ~2 minutes at full scale in release mode; set
//! `HABIT_EVAL_SCALE=0.05` for a smoke run.

use eval::report::{render_experiments_md, ExperimentReport};
use habit_bench::{reports, BinArgs};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match BinArgs::parse_env() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e} (supported: --out-dir DIR, --md-out PATH, --render-only)");
            return ExitCode::from(2);
        }
    };

    let built: Vec<ExperimentReport> = if args.render_only {
        let Some(dir) = &args.out_dir else {
            eprintln!("error: --render-only needs --out-dir pointing at existing JSON reports");
            return ExitCode::from(2);
        };
        match habit_bench::load_reports(dir) {
            Ok(reports) => reports,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let reports = match reports::all_reports(habit_bench::SEED) {
            Ok(reports) => reports,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Some(dir) = &args.out_dir {
            for report in &reports {
                match habit_bench::write_report_json(report, dir) {
                    Ok(path) => eprintln!("wrote {}", path.display()),
                    Err(e) => {
                        eprintln!("error: could not write JSON baseline: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        reports
    };

    let refs: Vec<&ExperimentReport> = built.iter().collect();
    let md = render_experiments_md(&refs);
    // With --out-dir the document lands in a file (EXPERIMENTS.md unless
    // --md-out overrides); without it, on stdout.
    let target = match (&args.md_out, &args.out_dir) {
        (Some(path), _) => Some(path.clone()),
        (None, Some(_)) => Some("EXPERIMENTS.md".into()),
        (None, None) => None,
    };
    match target {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &md) {
                eprintln!("error: could not write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {} ({} experiments)", path.display(), built.len());
        }
        None => print!("{md}"),
    }
    ExitCode::SUCCESS
}
