//! Golden diagnostics over the seeded-violation fixtures, registry
//! pinning, docs freshness, and the workspace-clean gate.
//!
//! The fixtures live under `tests/fixtures/` — a directory name the
//! workspace walker skips, so the seeded violations never leak into a
//! real scan; the tests here scan the fixture roots directly.

use std::path::{Path, PathBuf};

use habit_lint::{analyze, check_root, render_lints_md, scan_root, ALL};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn golden(name: &str) -> String {
    std::fs::read_to_string(fixture(name)).expect("golden file")
}

#[test]
fn flat_fixtures_match_golden() {
    let report = analyze(&scan_root(&fixture("flat")).expect("scan flat"));
    assert_eq!(
        report.render_human(),
        golden("flat.expected"),
        "seeded per-file diagnostics drifted; inspect `habit-lint --root \
         crates/lint/tests/fixtures/flat`"
    );
}

#[test]
fn allowed_fixture_counts_one_reasoned_suppression() {
    let report = analyze(&scan_root(&fixture("flat")).expect("scan flat"));
    assert_eq!(report.suppressions.len(), 1);
    let s = &report.suppressions[0];
    assert_eq!(s.lint, "L003");
    assert_eq!(s.file, "allowed.rs");
    assert_eq!(s.reason, "inputs validated finite upstream");
}

#[test]
fn registry_is_pinned() {
    let ids: Vec<&str> = ALL.iter().map(|l| l.id).collect();
    assert_eq!(ids, ["L001", "L003", "L005"]);
    let names: Vec<&str> = ALL.iter().map(|l| l.name).collect();
    assert_eq!(
        names,
        [
            "unordered-iteration-to-sink",
            "float-ordering-hazard",
            "lint-suppression-audit",
        ]
    );
}

#[test]
fn lints_md_is_fresh() {
    let committed = std::fs::read_to_string(workspace_root().join("LINTS.md")).unwrap_or_default();
    assert_eq!(
        committed,
        render_lints_md(),
        "LINTS.md is stale — regenerate with `cargo run -p habit-lint -- --gen-docs`"
    );
}

#[test]
fn workspace_is_lint_clean() {
    let report = check_root(&workspace_root()).expect("scan workspace");
    assert!(
        report.diagnostics.is_empty(),
        "the workspace must stay habit-lint clean:\n{}",
        report.render_human()
    );
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}
