//! Round-trip and golden-file tests for the experiment-report subsystem.
//!
//! The committed `reports/*.json` files are the source of truth for the
//! committed `EXPERIMENTS.md`: these tests pin the contract that
//! (a) a report survives JSON serialize → deserialize with an identical
//! markdown render, and (b) re-rendering `EXPERIMENTS.md` from the
//! checked-in JSON reproduces the committed file byte-identically —
//! the same check CI runs via `all_experiments --render-only`.

use eval::report::ExperimentReport;
use habit_bench::docs::render_experiments_md;
use habit_bench::reports::{self, EXPERIMENTS};
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    // crates/bench/ -> repo root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root resolves")
}

fn committed_reports() -> Vec<ExperimentReport> {
    habit_bench::load_reports(&repo_root().join("reports"))
        .unwrap_or_else(|e| panic!("committed baseline: {e}"))
}

#[test]
fn committed_baselines_cover_every_experiment() {
    // `reports/` holds the full-scale baselines, `reports/smoke/` the
    // scale-0.05 ones that `tests/smoke_gate.rs` regenerates.
    for dir in ["reports", "reports/smoke"] {
        let dir = repo_root().join(dir);
        let reports =
            habit_bench::load_reports(&dir).unwrap_or_else(|e| panic!("committed baseline: {e}"));
        assert_eq!(reports.len(), EXPERIMENTS.len());
        for (report, id) in reports.iter().zip(EXPERIMENTS.map(|e| e.id)) {
            assert_eq!(report.id, id, "file stem and embedded id must agree");
            assert!(!report.paper_ref.is_empty(), "{id}: paper_ref");
            assert!(!report.paper_expected.is_empty(), "{id}: paper_expected");
            assert!(!report.reproduction.is_empty(), "{id}: reproduction");
            assert!(!report.sections.is_empty(), "{id}: sections");
            assert!(
                report.measurement.wall_clock_s > 0.0,
                "{id}: wall clock measurement"
            );
        }
        // The directory holds exactly the registry (`reports/` also the
        // code-size report of `tests/code_size.rs`, and `smoke/`):
        // `--render-only` reads by id, so an orphaned file or directory
        // would otherwise sit there unnoticed.
        let mut expected: Vec<String> = EXPERIMENTS
            .iter()
            .map(|e| format!("{}.json", e.id))
            .collect();
        if dir.ends_with("reports") {
            expected.extend(["code_size.json".to_string(), "smoke/".to_string()]);
        }
        expected.sort();
        let found = listing(&dir);
        assert_eq!(
            found,
            expected,
            "{} must hold exactly the registry",
            dir.display()
        );
    }
}

/// The sorted names in `dir`, a directory's with a trailing `/`.
fn listing(dir: &Path) -> Vec<String> {
    let mut found: Vec<String> = std::fs::read_dir(dir)
        .expect("reports/ lists")
        .map(|entry| {
            let entry = entry.expect("reports/ entry");
            let name = entry.file_name().to_string_lossy().into_owned();
            // A directory can never equal an expected file name.
            if entry.path().is_dir() {
                name + "/"
            } else {
                name
            }
        })
        .collect();
    found.sort();
    found
}

#[test]
fn committed_json_round_trips_to_identical_markdown() {
    for report in committed_reports() {
        let json = report.to_json();
        let back = ExperimentReport::from_json(&json)
            .unwrap_or_else(|e| panic!("{}: re-parse failed: {e}", report.id));
        assert_eq!(
            back, report,
            "{}: JSON round trip must be lossless",
            report.id
        );
        assert_eq!(
            back.to_markdown(),
            report.to_markdown(),
            "{}: markdown render must survive the round trip",
            report.id
        );
        // And serialization itself is a fixpoint: the committed bytes
        // are exactly what to_json would write again.
        let committed = std::fs::read_to_string(
            repo_root()
                .join("reports")
                .join(format!("{}.json", report.id)),
        )
        .expect("baseline readable");
        assert_eq!(json, committed, "{}: to_json must be a fixpoint", report.id);
    }
}

#[test]
fn experiments_md_regenerates_byte_identical() {
    let reports = committed_reports();
    let regenerated = render_experiments_md(&reports);
    let committed_path = repo_root().join("EXPERIMENTS.md");
    let committed = std::fs::read_to_string(&committed_path)
        .unwrap_or_else(|e| panic!("missing {}: {e}", committed_path.display()));
    assert_eq!(
        regenerated, committed,
        "EXPERIMENTS.md is stale — regenerate with `cargo run -p habit-bench --release \
         --bin all_experiments -- --render-only --out-dir reports/`"
    );
}

#[test]
fn readme_regenerates_byte_identical() {
    let committed_path = repo_root().join("README.md");
    let committed = std::fs::read_to_string(&committed_path)
        .unwrap_or_else(|e| panic!("missing {}: {e}", committed_path.display()));
    assert_eq!(
        habit_bench::docs::render_readme(),
        committed,
        "README.md is stale — regenerate with `cargo run -p habit-bench --release \
         --bin gen_readme`"
    );
}

#[test]
fn smoke_scale_report_round_trips() {
    // A live (non-golden) end-to-end check at miniature scale: build one
    // real report, persist it, reload it, and compare renders.
    let table1 = reports::experiment("table1").expect("registered");
    let (built, _) = reports::run(&[table1], 7, 0.05).expect("table1 builds");
    let report = &built[0];
    let dir = std::env::temp_dir().join(format!("habit-report-{}", std::process::id()));
    let path = habit_bench::write_report_json(report, &dir).expect("write JSON");
    let back = ExperimentReport::from_json(&std::fs::read_to_string(&path).expect("read back"))
        .expect("parse back");
    assert_eq!(&back, report);
    assert_eq!(back.to_markdown(), report.to_markdown());
    std::fs::remove_dir_all(&dir).ok();
}
