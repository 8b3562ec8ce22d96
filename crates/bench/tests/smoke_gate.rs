//! The answer gate: every report, regenerated at scale 0.05, must equal
//! its committed `reports/smoke/<id>.json` in every field but the
//! measurement parts (the run's wall clock, cores and peak RSS, and each
//! section's measured timings).
//!
//! A change that moves an answer on purpose regenerates the baselines:
//!
//! ```text
//! HABIT_EVAL_SCALE=0.05 cargo run -p habit-bench --release --bin all_experiments -- \
//!     --out-dir reports/smoke/ --md-out /dev/null
//! ```

use eval::report::ExperimentReport;
use habit_bench::reports::{self, EXPERIMENTS};
use std::path::Path;

/// The first line where two renders differ, with its neighbours.
fn first_difference(committed: &str, regenerated: &str) -> String {
    let (a, b): (Vec<&str>, Vec<&str>) =
        (committed.lines().collect(), regenerated.lines().collect());
    let at = (0..a.len().max(b.len()))
        .find(|i| a.get(*i) != b.get(*i))
        .unwrap_or(0);
    let lines = |v: &[&str]| v[at.saturating_sub(2)..(at + 3).min(v.len())].join("\n");
    format!(
        "line {}:\n--- committed\n{}\n+++ regenerated\n{}",
        at + 1,
        lines(&a),
        lines(&b)
    )
}

#[test]
fn smoke_reports_reproduce_the_committed_answers() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../reports/smoke");
    let committed = habit_bench::load_reports(&dir).unwrap_or_else(|e| panic!("{e}"));
    let all: Vec<_> = EXPERIMENTS.iter().collect();
    let (regenerated, _) = reports::run(&all, habit_bench::SEED, 0.05).expect("reports build");
    for (new, old) in regenerated.iter().zip(&committed) {
        let (new_json, old_json) = (new.answers().to_json(), old.answers().to_json());
        assert!(
            new_json == old_json,
            "{}: an answer moved ({}); regenerate reports/smoke/ if it moved on purpose",
            new.id,
            first_difference(&old_json, &new_json)
        );
        // Each measured table is keyed by its answer table's row labels.
        for section in &new.sections {
            let (Some(table), Some(measured)) = (&section.table, &section.measured) else {
                continue;
            };
            let keys = |rows: &[Vec<String>]| -> Vec<String> {
                rows.iter().map(|r| r[0].clone()).collect()
            };
            assert_eq!(
                keys(table.rows()),
                keys(measured.table.rows()),
                "{}",
                new.id
            );
        }
    }
    assert_eq!(regenerated.len(), committed.len());
    // The committed baselines carry their run's measurement.
    let measured = |r: &ExperimentReport| r.measurement.host_cores > 0;
    assert!(committed.iter().all(measured));
}
