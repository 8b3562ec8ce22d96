//! Smoke tests for the experiment grid: every table/figure sweep
//! produces well-formed outcomes on miniature datasets. The sweeps are
//! the experiments' own (`habit_bench::reports`), so this file cannot
//! drift from what the reports run. (Full-scale numbers are produced by
//! `all_experiments` and recorded in EXPERIMENTS.md.)

use habit::eval::experiments::{cells, Cell, DatasetId, Gaps, Grid};
use habit::eval::report::{mean, median, percentile};
use habit::eval::rot::{mean_rot_stats, rot_stats, RotStats};
use habit::eval::Method;
use habit::prelude::*;
use habit_bench::reports::{
    fig3_methods, fig5_habit, fig5_methods, fig7_gaps, rt_sweep, table2_methods, table4_methods,
};
use std::sync::OnceLock;
use DatasetId::{Dan, Kiel, Sar};

const HOUR: Gaps = Gaps::HOUR;

/// One grid at scale 0.1 holding every cell the tests read, so each
/// (dataset, method) pair is fitted once for the whole file.
fn grid() -> &'static Grid {
    static GRID: OnceLock<Grid> = OnceLock::new();
    GRID.get_or_init(|| {
        let mut plan = cells(Kiel, &fig3_methods(), Some(HOUR));
        plan.extend(cells(Kiel, &rt_sweep(), Some(HOUR)));
        plan.extend(cells(Kiel, &fig5_methods(), Some(HOUR)));
        for hours in [1, 2, 4] {
            plan.extend(cells(Kiel, &fig5_habit(), Some(fig7_gaps(hours))));
        }
        plan.extend(cells(Kiel, &table2_methods(), None));
        plan.extend(cells(Sar, &table2_methods(), None));
        plan.push(Cell {
            dataset: Dan,
            method: None,
            gaps: None,
        });
        Grid::run(42, 0.1, plan)
    })
}

#[test]
fn fig3_grid_is_complete_and_ordered() {
    let g = grid();
    let total = g.cases(Kiel, HOUR).len();
    let mut seen = Vec::new();
    for m in fig3_methods() {
        let Method::Habit(c) = m else { unreachable!() };
        let errors = g.row(Kiel, &m, HOUR).expect("fit").errors;
        let (mean_dtw, median_dtw) = (mean(&errors), median(&errors));
        assert!((6..=10).contains(&c.resolution));
        assert!(mean_dtw >= 0.0 && mean_dtw.is_finite());
        assert!(median_dtw <= mean_dtw * 3.0 + 1.0);
        assert!(errors.len() <= total);
        if !seen.contains(&(c.resolution, c.projection)) {
            seen.push((c.resolution, c.projection));
        }
    }
    assert_eq!(
        seen.len(),
        10,
        "5 resolutions x 2 projections, no duplicate"
    );
}

#[test]
fn table2_row_set_matches_paper_configurations() {
    let g = grid();
    let bytes = |d, m: &Method| g.fit(d, m).map_or(0, |f| f.storage_bytes);
    let rows: Vec<(Method, usize, usize)> = table2_methods()
        .into_iter()
        .map(|m| (m, bytes(Kiel, &m), bytes(Sar, &m)))
        .collect();
    assert_eq!(rows.len(), 8, "5 HABIT + 3 GTI");
    let habit_rows: Vec<_> = rows
        .iter()
        .filter(|r| matches!(r.0, Method::Habit(_)))
        .collect();
    assert_eq!(habit_rows.len(), 5);
    // Monotone growth with resolution, on both datasets.
    for w in habit_rows.windows(2) {
        assert!(w[1].1 >= w[0].1, "KIEL storage must grow with r");
        assert!(w[1].2 >= w[0].2, "SAR storage must grow with r");
    }
    // GTI outgrows HABIT at the paper's selected configuration (r = 9).
    // (At r = 10 the comparison needs production-scale data — the ratio-
    // vs-scale claim is asserted in tests/paper_claims.rs.)
    let habit_r9 = bytes(Kiel, &Method::habit(9, 100.0));
    let max_gti = rows
        .iter()
        .filter(|r| matches!(r.0, Method::Gti(_)))
        .map(|r| r.1)
        .max()
        .unwrap();
    assert!(max_gti > habit_r9, "GTI {max_gti} !> HABIT r9 {habit_r9}");
}

#[test]
fn table3_simplification_reduces_points_and_sharp_turns() {
    let g = grid();
    let stats = |r: u8, t: f64| {
        let row = g.row(Kiel, &Method::habit(r, t), HOUR).expect("fit");
        let paths = row.paths();
        mean_rot_stats(&paths.map(|p| rot_stats(p)).collect::<Vec<_>>())
    };
    assert_eq!(rt_sweep().len(), 10);
    let truth: Vec<RotStats> = g
        .cases(Kiel, HOUR)
        .iter()
        .map(|c| rot_stats(&c.truth.iter().map(|p| p.pos).collect::<Vec<_>>()))
        .collect();
    let original = mean_rot_stats(&truth);
    assert!(original.count >= 3, "original stats from truth paths");
    for res in [9u8, 10] {
        let (t0, t1000) = (stats(res, 0.0), stats(res, 1000.0));
        assert!(
            t1000.count < t0.count.max(3),
            "r={res}: t=1000 must compress the path ({} !< {})",
            t1000.count,
            t0.count
        );
        assert!(
            t1000.turns_over_45 <= t0.turns_over_45,
            "r={res}: simplification must not add sharp turns"
        );
    }
}

#[test]
fn fig5_and_table4_cover_every_method() {
    let g = grid();
    let total = g.cases(Kiel, HOUR).len();
    assert_eq!(g.bench(Kiel).name, "KIEL");
    let f5: Vec<(String, usize)> = fig5_methods()
        .iter()
        .filter_map(|m| {
            let scored = g.row(Kiel, m, HOUR)?.errors.len();
            Some((m.label(), total - scored))
        })
        .collect();
    assert_eq!(f5.len(), 8, "4 HABIT + 3 GTI + SLI");
    assert!(f5.iter().any(|r| r.0 == "SLI"));
    assert!(f5.iter().filter(|r| r.0.starts_with("HABIT")).count() == 4);
    assert!(f5.iter().filter(|r| r.0.starts_with("GTI")).count() == 3);
    for r in &f5 {
        assert!(r.1 <= total);
    }

    let t4: Vec<(f64, f64)> = table4_methods()
        .iter()
        .filter_map(|m| Some(g.row(Kiel, m, HOUR)?.latency()))
        .collect();
    assert_eq!(
        t4.len(),
        7,
        "4 HABIT + 3 GTI (SLI excluded as in the paper)"
    );
    for (avg_s, max_s) in &t4 {
        assert!(*avg_s >= 0.0 && max_s >= avg_s);
    }
    assert!(total > 0);
}

#[test]
fn fig6_cases_include_truth_and_methods() {
    let g = grid();
    let cases = g.cases(Kiel, HOUR);
    let picks: Vec<usize> = if cases.len() <= 2 {
        (0..cases.len()).collect()
    } else {
        vec![0, cases.len() / 2]
    };
    assert!(!picks.is_empty() && picks.len() <= 2);
    let methods = [Method::habit(9, 100.0), Method::gti(5e-4), Method::Sli];
    for k in picks {
        assert!(cases[k].truth.len() >= 2);
        let paths: Vec<(String, &Vec<GeoPoint>)> = methods
            .iter()
            .filter_map(|m| {
                Some((
                    m.label(),
                    g.row(Kiel, m, HOUR)?.outcomes[k].path.as_ref().ok()?,
                ))
            })
            .collect();
        assert!(
            paths.iter().any(|(label, _)| label.starts_with("HABIT")),
            "HABIT path present"
        );
        assert!(paths.iter().any(|(label, _)| label == "SLI"));
        for (_, path) in &paths {
            assert!(path.len() >= 2);
        }
    }
}

#[test]
fn fig7_sweeps_durations_per_config() {
    let g = grid();
    let mut rows = 0;
    for m in fig5_habit() {
        for hours in [1, 2, 4] {
            let errors = g.row(Kiel, &m, fig7_gaps(hours)).expect("fit").errors;
            let (p25, p50, p75) = (
                percentile(&errors, 25.0),
                median(&errors),
                percentile(&errors, 75.0),
            );
            let max = errors.iter().copied().fold(0.0, f64::max);
            assert!(p25 <= p50 + 1e-9);
            assert!(p50 <= p75 + 1e-9);
            assert!(p75 <= max + 1e-9);
            rows += 1;
        }
    }
    assert_eq!(rows, 12, "4 configs x 3 durations");
}

#[test]
fn table1_reports_all_three_datasets() {
    let g = grid();
    let names: Vec<&str> = [Dan, Kiel, Sar]
        .iter()
        .map(|d| g.bench(*d).name.as_str())
        .collect();
    assert_eq!(names, vec!["DAN", "KIEL", "SAR"]);
    for d in [Dan, Kiel, Sar] {
        let bench = g.bench(d);
        let ds = &bench.dataset;
        let positions = ds.num_positions();
        assert!(positions > 100, "{}: positions {positions}", bench.name);
        assert!(bench.train.len() + bench.test.len() > 0);
        assert!(ds.num_ships() > 0);
        assert!(ds.csv_size_bytes() > positions * 40);
    }
    // Scenario structure: SAR has by far the most ships; KIEL exactly 2.
    assert_eq!(g.bench(Kiel).dataset.num_ships(), 2);
    assert!(g.bench(Sar).dataset.num_ships() > 50);
}
