//! Integration tests asserting the *qualitative claims* of the paper's
//! evaluation — who wins, in which direction, by what rough shape —
//! on small synthetic datasets.

use habit::eval::experiments::{cells, DatasetId, Gaps, Grid};
use habit::eval::report::{mean, median};
use habit::eval::Method;
use habit::prelude::*;
use std::sync::OnceLock;
use DatasetId::Kiel;

const HOUR: Gaps = Gaps::HOUR;

fn center(r: u8) -> Method {
    Method::Habit(HabitConfig {
        resolution: r,
        projection: CellProjection::Center,
        rdp_tolerance_m: 100.0,
        ..HabitConfig::default()
    })
}

/// Figure 7's gap sets: 1- and 4-hour gaps on their own placement seeds.
const ONE_HOUR: Gaps = Gaps {
    duration_s: 3600,
    seed_offset: 1,
};
const FOUR_HOURS: Gaps = Gaps {
    duration_s: 4 * 3600,
    seed_offset: 4,
};

/// KIEL at scale 0.25 with every cell the claims below read, each
/// (dataset, method) pair fitted once for the whole file.
fn kiel_grid() -> &'static Grid {
    static GRID: OnceLock<Grid> = OnceLock::new();
    GRID.get_or_init(|| {
        let by_r: Vec<Method> = (6..=10).map(|r| Method::habit(r, 100.0)).collect();
        let mut plan = cells(Kiel, &by_r, None);
        let accuracy = [Method::habit(9, 100.0), Method::gti(5e-4), Method::Sli];
        plan.extend(cells(Kiel, &accuracy, Some(HOUR)));
        plan.extend(cells(Kiel, &[6, 7].map(center), Some(HOUR)));
        plan.extend(cells(
            Kiel,
            &[6, 7].map(|r| Method::habit(r, 100.0)),
            Some(HOUR),
        ));
        for gaps in [ONE_HOUR, FOUR_HOURS] {
            plan.extend(cells(Kiel, &[Method::habit(9, 100.0)], Some(gaps)));
        }
        Grid::run(42, 0.25, plan)
    })
}

/// Table 2's headline: HABIT's cell-graph model is smaller than GTI's
/// point-graph model, and the gap *widens with data volume* — GTI stores
/// every training point while HABIT saturates at the cells the lane
/// covers. (The paper's order-of-magnitude ratios appear at its full
/// 0.8M-position scale; laptop-scale datasets show the same divergence.)
#[test]
fn habit_model_smaller_than_gti_and_gap_widens_with_scale() {
    let (habit, gti) = (Method::habit(9, 100.0), Method::gti(5e-4));
    let mut ratios = Vec::new();
    for scale in [0.1, 0.3] {
        let grid = Grid::run(42, scale, cells(Kiel, &[habit, gti], None));
        let bytes = |m| grid.fit(Kiel, m).expect("fit").storage_bytes;
        let (habit_bytes, gti_bytes) = (bytes(&habit), bytes(&gti));
        assert!(
            gti_bytes > habit_bytes,
            "scale {scale}: GTI {gti_bytes} !> HABIT {habit_bytes}"
        );
        ratios.push(gti_bytes as f64 / habit_bytes as f64);
    }
    assert!(
        ratios[1] > ratios[0] * 1.3,
        "storage ratio must widen with data: {ratios:?}"
    );
}

/// Table 2's resolution sweep: storage grows monotonically with `r`.
#[test]
fn storage_grows_with_resolution() {
    let grid = kiel_grid();
    let mut last = 0usize;
    for r in 6..=10u8 {
        let size = grid
            .fit(Kiel, &Method::habit(r, 100.0))
            .expect("fit")
            .storage_bytes;
        assert!(size > last, "r={r}: {size} !> {last}");
        last = size;
    }
}

/// The DTW errors of `method` on a gap set of the KIEL grid.
fn errors(method: &Method, gaps: Gaps) -> Vec<f64> {
    kiel_grid().row(Kiel, method, gaps).expect("fit").errors
}

/// Figure 5's headline on the confined corridor: both HABIT and GTI beat
/// straight-line interpolation, which cannot capture turning points.
#[test]
fn habit_and_gti_beat_sli_on_confined_route() {
    let cases = kiel_grid().cases(Kiel, HOUR);
    assert!(cases.len() >= 3, "cases {}", cases.len());

    let habit_dtw = median(&errors(&Method::habit(9, 100.0), HOUR));
    let gti_dtw = median(&errors(&Method::gti(5e-4), HOUR));
    let sli_dtw = median(&errors(&Method::Sli, HOUR));
    assert!(
        habit_dtw < sli_dtw,
        "HABIT {habit_dtw:.0} m should beat SLI {sli_dtw:.0} m"
    );
    assert!(
        gti_dtw < sli_dtw,
        "GTI {gti_dtw:.0} m should beat SLI {sli_dtw:.0} m"
    );
}

/// Table 4's headline: HABIT answers queries faster than GTI on average.
#[test]
fn habit_queries_are_faster_than_gti() {
    let grid = kiel_grid();
    let avg = |m| grid.row(Kiel, m, HOUR).expect("fit").latency().0;
    let (habit_avg, gti_avg) = (avg(&Method::habit(9, 100.0)), avg(&Method::gti(5e-4)));
    assert!(
        habit_avg < gti_avg,
        "HABIT avg {habit_avg:.6}s should be below GTI avg {gti_avg:.6}s"
    );
    // Sub-second queries (paper: milliseconds at full scale).
    assert!(habit_avg < 1.0, "HABIT avg {habit_avg}s");
}

/// Figure 3's ablation: at coarse resolutions the data-driven median
/// projection is at least as accurate as the geometric cell center.
#[test]
fn median_projection_no_worse_than_center_at_coarse_resolution() {
    for r in [6u8, 7] {
        let c = mean(&errors(&center(r), HOUR));
        let m = mean(&errors(&Method::habit(r, 100.0), HOUR));
        // Allow a small tolerance: the claim is "median helps, strongly at
        // coarse r", not strict dominance on every sample.
        assert!(
            m <= c * 1.10,
            "r={r}: median {m:.0} m should not lose to center {c:.0} m"
        );
    }
}

/// Figure 7's shape: accuracy degrades with gap duration, but the median
/// error grows sub-linearly in the gap length.
#[test]
fn error_growth_is_sublinear_in_gap_duration() {
    let habit = Method::habit(9, 100.0);
    let m1 = median(&errors(&habit, ONE_HOUR));
    let m4 = median(&errors(&habit, FOUR_HOURS));
    assert!(m1 > 0.0, "1-hour gaps must produce a nonzero error");
    if m4 > 0.0 {
        assert!(
            m4 < m1 * 8.0,
            "4x gap duration should not inflate median error 8x: {m1:.0} -> {m4:.0}"
        );
    }
}

/// The cell-span filter (§3.1): trips confined to one or two adjacent
/// cells contribute nothing to the graph.
#[test]
fn drifting_trips_are_filtered_from_the_graph() {
    use habit::ais::{trips_to_table, AisPoint, Trip};

    // One long sailing trip + one drift trip inside a single cell.
    let sail = Trip {
        trip_id: 1,
        mmsi: 1,
        points: (0..200)
            .map(|i| AisPoint::new(1, i * 60, 10.0 + i as f64 * 0.003, 56.0, 12.0, 90.0))
            .collect(),
    };
    let drift = Trip {
        trip_id: 2,
        mmsi: 2,
        points: (0..200)
            .map(|i| AisPoint::new(2, i * 60, 11.0 + (i % 3) as f64 * 1e-5, 56.2, 0.3, 0.0))
            .collect(),
    };
    let with_drift = HabitModel::fit(
        &trips_to_table(&[sail.clone(), drift]),
        HabitConfig::with_r_t(9, 100.0),
    )
    .expect("fit");
    let without =
        HabitModel::fit(&trips_to_table(&[sail]), HabitConfig::with_r_t(9, 100.0)).expect("fit");
    assert_eq!(
        with_drift.node_count(),
        without.node_count(),
        "drift trip must not add graph nodes"
    );
}
