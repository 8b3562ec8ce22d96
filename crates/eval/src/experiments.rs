//! Experiment runners — one per table/figure of the paper's §4.
//!
//! Each runner takes prepared [`Bench`] environments (dataset → cleaned
//! trips → 70/30 split) and returns structured rows; the binaries in
//! `crates/bench` render them with [`crate::report`]. Randomness is
//! seeded so every run regenerates identical rows.

use crate::dtw::resampled_dtw_m;
use crate::gaps::{inject_gaps, GapCase};
use crate::methods::Imputer;
use crate::report::{mean, median, percentile};
use crate::rot::{mean_rot_stats, rot_stats, RotStats};
use crate::split::split_trips;
use ais::Trip;
use baselines::GtiConfig;
use geo_kernel::GeoPoint;
use habit_core::{CellProjection, HabitConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use synth::{Dataset, DatasetSpec};

/// Scale factor for dataset generation, overridable with the
/// `HABIT_EVAL_SCALE` environment variable (default 1.0). Lower values
/// shrink datasets proportionally for quick smoke runs.
pub fn eval_scale() -> f64 {
    std::env::var("HABIT_EVAL_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0)
}

/// A prepared evaluation environment for one dataset.
pub struct Bench {
    /// Dataset name.
    pub name: String,
    /// The raw dataset (world + trajectories).
    pub dataset: Dataset,
    /// Training trips (70 %).
    pub train: Vec<Trip>,
    /// Held-out test trips (30 %).
    pub test: Vec<Trip>,
}

impl Bench {
    /// Cleans, segments and splits a dataset.
    pub fn prepare(dataset: Dataset, seed: u64) -> Self {
        let trips = dataset.trips();
        let mut rng = StdRng::seed_from_u64(seed);
        let (train, test) = split_trips(&trips, 0.7, &mut rng);
        Self {
            name: dataset.name.clone(),
            dataset,
            train,
            test,
        }
    }

    /// Standard DAN bench.
    pub fn dan(seed: u64) -> Self {
        Self::prepare(
            synth::datasets::dan(DatasetSpec {
                seed,
                scale: eval_scale(),
            }),
            seed,
        )
    }

    /// Standard KIEL bench.
    pub fn kiel(seed: u64) -> Self {
        Self::prepare(
            synth::datasets::kiel(DatasetSpec {
                seed,
                scale: eval_scale(),
            }),
            seed,
        )
    }

    /// Standard SAR bench.
    pub fn sar(seed: u64) -> Self {
        Self::prepare(
            synth::datasets::sar(DatasetSpec {
                seed,
                scale: eval_scale(),
            }),
            seed,
        )
    }

    /// Injects one gap of `duration_s` into every eligible test trip.
    pub fn gap_cases(&self, duration_s: i64, seed: u64) -> Vec<GapCase> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6A70);
        inject_gaps(&self.test, duration_s, &mut rng)
    }
}

/// DTW errors (meters) of an imputer over gap cases; failures skipped.
pub fn accuracy_dtw(imputer: &Imputer, cases: &[GapCase]) -> Vec<f64> {
    let mut out = Vec::with_capacity(cases.len());
    for case in cases {
        if let Some(path) = imputer.impute(&case.query).path() {
            let imputed: Vec<GeoPoint> = path.iter().map(|p| p.pos).collect();
            let truth: Vec<GeoPoint> = case.truth.iter().map(|p| p.pos).collect();
            if let Some(d) = resampled_dtw_m(&imputed, &truth) {
                out.push(d);
            }
        }
    }
    out
}

/// Query latency of an imputer over gap cases: `(avg_s, max_s, failures)`.
pub fn latency(imputer: &Imputer, cases: &[GapCase]) -> (f64, f64, usize) {
    let mut total = 0.0f64;
    let mut max = 0.0f64;
    let mut failures = 0usize;
    for case in cases {
        let t0 = Instant::now();
        let out = imputer.impute(&case.query);
        let dt = t0.elapsed().as_secs_f64();
        total += dt;
        max = max.max(dt);
        if out.path().is_none() {
            failures += 1;
        }
    }
    let avg = if cases.is_empty() {
        0.0
    } else {
        total / cases.len() as f64
    };
    (avg, max, failures)
}

// --------------------------------------------------------------------
// Table 1 — dataset characteristics.

/// One row of Table 1.
pub struct Table1Row {
    /// Dataset name.
    pub name: String,
    /// Vessel-type description.
    pub vessel_types: &'static str,
    /// Raw CSV size in bytes.
    pub size_bytes: usize,
    /// Raw position count.
    pub positions: usize,
    /// Segmented trip count.
    pub trips: usize,
    /// Distinct ships.
    pub ships: usize,
}

/// Regenerates Table 1 over the three datasets.
pub fn table1(seed: u64) -> Vec<Table1Row> {
    let scale = eval_scale();
    let specs = [("DAN", "Passenger"), ("KIEL", "Passenger"), ("SAR", "All")];
    specs
        .iter()
        .map(|(name, types)| {
            let ds = match *name {
                "DAN" => synth::datasets::dan(DatasetSpec { seed, scale }),
                "KIEL" => synth::datasets::kiel(DatasetSpec { seed, scale }),
                _ => synth::datasets::sar(DatasetSpec { seed, scale }),
            };
            let trips = ds.trips();
            Table1Row {
                name: name.to_string(),
                vessel_types: types,
                size_bytes: ds.csv_size_bytes(),
                positions: ds.num_positions(),
                trips: trips.len(),
                ships: ds.num_ships(),
            }
        })
        .collect()
}

// --------------------------------------------------------------------
// Figure 3 — accuracy vs resolution × projection (DAN).

/// One series point of Figure 3.
pub struct Fig3Row {
    /// H3 resolution `r`.
    pub resolution: u8,
    /// Projection option `p` ("center" / "median").
    pub projection: &'static str,
    /// Mean DTW, meters.
    pub mean_dtw_m: f64,
    /// Median DTW, meters.
    pub median_dtw_m: f64,
    /// Gap cases successfully imputed.
    pub imputed: usize,
    /// Total gap cases.
    pub total: usize,
}

/// Regenerates Figure 3: HABIT accuracy across resolutions 6..=10 and
/// both projection options, 60-minute gaps on DAN.
pub fn fig3(bench: &Bench, seed: u64) -> Vec<Fig3Row> {
    let cases = bench.gap_cases(3600, seed);
    let mut rows = Vec::new();
    for res in 6..=10u8 {
        for (proj, label) in [
            (CellProjection::Center, "center"),
            (CellProjection::Median, "median"),
        ] {
            let config = HabitConfig {
                resolution: res,
                projection: proj,
                rdp_tolerance_m: 100.0,
                ..HabitConfig::default()
            };
            let Ok(imputer) = Imputer::fit_habit(&bench.train, config) else {
                continue;
            };
            let errors = accuracy_dtw(&imputer, &cases);
            rows.push(Fig3Row {
                resolution: res,
                projection: label,
                mean_dtw_m: mean(&errors),
                median_dtw_m: median(&errors),
                imputed: errors.len(),
                total: cases.len(),
            });
        }
    }
    rows
}

// --------------------------------------------------------------------
// Table 2 — framework storage size (KIEL & SAR).

/// One row of Table 2.
pub struct Table2Row {
    /// Method name.
    pub method: &'static str,
    /// Configuration description.
    pub config: String,
    /// Model size on KIEL, bytes.
    pub kiel_bytes: usize,
    /// Model size on SAR, bytes.
    pub sar_bytes: usize,
}

/// Regenerates Table 2: HABIT r ∈ 6..=10 vs GTI rd sweeps.
pub fn table2(kiel: &Bench, sar: &Bench) -> Vec<Table2Row> {
    let mut rows = Vec::new();
    for res in 6..=10u8 {
        let config = HabitConfig::with_r_t(res, 100.0);
        let k = Imputer::fit_habit(&kiel.train, config)
            .map(|m| m.storage_bytes())
            .unwrap_or(0);
        let s = Imputer::fit_habit(&sar.train, config)
            .map(|m| m.storage_bytes())
            .unwrap_or(0);
        rows.push(Table2Row {
            method: "HABIT",
            config: format!("r={res}"),
            kiel_bytes: k,
            sar_bytes: s,
        });
    }
    for rd in [1e-4, 5e-4, 1e-3] {
        let config = GtiConfig {
            rd_deg: rd,
            rm_m: 250.0,
            ..GtiConfig::default()
        };
        let k = Imputer::fit_gti(&kiel.train, config)
            .map(|m| m.storage_bytes())
            .unwrap_or(0);
        let s = Imputer::fit_gti(&sar.train, config)
            .map(|m| m.storage_bytes())
            .unwrap_or(0);
        rows.push(Table2Row {
            method: "GTI",
            config: format!("rd={rd:.0e}"),
            kiel_bytes: k,
            sar_bytes: s,
        });
    }
    rows
}

// --------------------------------------------------------------------
// Table 3 — simplification effect on navigability (DAN) + Figure 4.

/// One row of Table 3.
pub struct Table3Row {
    /// Resolution `r`.
    pub resolution: u8,
    /// Tolerance `t`, meters.
    pub tolerance_m: f64,
    /// Aggregate rot statistics over imputed paths.
    pub stats: RotStats,
}

/// Regenerates Table 3: path statistics for r ∈ {9, 10} × t ∈
/// {0, 100, 250, 500, 1000}, plus the original-path reference row.
pub fn table3(bench: &Bench, seed: u64) -> (Vec<Table3Row>, RotStats) {
    let cases = bench.gap_cases(3600, seed);
    let mut rows = Vec::new();
    for res in [9u8, 10] {
        for tol in [0.0, 100.0, 250.0, 500.0, 1000.0] {
            let config = HabitConfig::with_r_t(res, tol);
            let Ok(imputer) = Imputer::fit_habit(&bench.train, config) else {
                continue;
            };
            let mut stats = Vec::new();
            for case in &cases {
                if let Some(path) = imputer.impute(&case.query).path() {
                    let pos: Vec<GeoPoint> = path.iter().map(|p| p.pos).collect();
                    stats.push(rot_stats(&pos));
                }
            }
            rows.push(Table3Row {
                resolution: res,
                tolerance_m: tol,
                stats: mean_rot_stats(&stats),
            });
        }
    }
    // Reference: statistics of the original (ground-truth) gap segments.
    let original: Vec<RotStats> = cases
        .iter()
        .map(|c| {
            let pos: Vec<GeoPoint> = c.truth.iter().map(|p| p.pos).collect();
            rot_stats(&pos)
        })
        .collect();
    (rows, mean_rot_stats(&original))
}

/// One series point of Figure 4 (accuracy vs tolerance).
pub struct Fig4Row {
    /// Resolution `r`.
    pub resolution: u8,
    /// Tolerance `t`, meters.
    pub tolerance_m: f64,
    /// Mean DTW, meters.
    pub mean_dtw_m: f64,
    /// Median DTW, meters.
    pub median_dtw_m: f64,
}

/// Regenerates Figure 4: DTW vs simplification tolerance for r ∈ {9, 10}.
pub fn fig4(bench: &Bench, seed: u64) -> Vec<Fig4Row> {
    let cases = bench.gap_cases(3600, seed);
    let mut rows = Vec::new();
    for res in [9u8, 10] {
        for tol in [0.0, 100.0, 250.0, 500.0, 1000.0] {
            let config = HabitConfig::with_r_t(res, tol);
            let Ok(imputer) = Imputer::fit_habit(&bench.train, config) else {
                continue;
            };
            let errors = accuracy_dtw(&imputer, &cases);
            rows.push(Fig4Row {
                resolution: res,
                tolerance_m: tol,
                mean_dtw_m: mean(&errors),
                median_dtw_m: median(&errors),
            });
        }
    }
    rows
}

// --------------------------------------------------------------------
// Figure 5 — sensitivity: HABIT vs GTI vs SLI (KIEL & SAR).

/// One row of Figure 5.
pub struct Fig5Row {
    /// Dataset name.
    pub dataset: String,
    /// Method label.
    pub method: String,
    /// Mean DTW, meters.
    pub mean_dtw_m: f64,
    /// Median DTW, meters.
    pub median_dtw_m: f64,
    /// Gap cases the method failed on.
    pub failures: usize,
    /// Total gap cases.
    pub total: usize,
}

/// The HABIT configurations Figure 5 sweeps.
fn fig5_habit_configs() -> Vec<HabitConfig> {
    let mut out = Vec::new();
    for res in [9u8, 10] {
        for tol in [100.0, 250.0] {
            out.push(HabitConfig::with_r_t(res, tol));
        }
    }
    out
}

/// The GTI configurations Figure 5 sweeps.
fn fig5_gti_configs() -> Vec<GtiConfig> {
    [1e-4, 5e-4, 1e-3]
        .into_iter()
        .map(|rd| GtiConfig {
            rm_m: 250.0,
            rd_deg: rd,
            ..GtiConfig::default()
        })
        .collect()
}

/// Regenerates Figure 5 for one dataset (run it on KIEL and SAR).
pub fn fig5(bench: &Bench, seed: u64) -> Vec<Fig5Row> {
    let cases = bench.gap_cases(3600, seed);
    let mut methods: Vec<Imputer> = Vec::new();
    for config in fig5_habit_configs() {
        if let Ok(m) = Imputer::fit_habit(&bench.train, config) {
            methods.push(m);
        }
    }
    for config in fig5_gti_configs() {
        if let Ok(m) = Imputer::fit_gti(&bench.train, config) {
            methods.push(m);
        }
    }
    methods.push(Imputer::sli());

    methods
        .iter()
        .map(|m| {
            let errors = accuracy_dtw(m, &cases);
            Fig5Row {
                dataset: bench.name.clone(),
                method: m.label().to_string(),
                mean_dtw_m: mean(&errors),
                median_dtw_m: median(&errors),
                failures: cases.len() - errors.len(),
                total: cases.len(),
            }
        })
        .collect()
}

// --------------------------------------------------------------------
// Figure 6 — qualitative imputation examples.

/// One qualitative case: the ground truth and each method's path.
pub struct Fig6Case {
    /// Source trip.
    pub trip_id: u64,
    /// Ground-truth positions.
    pub truth: Vec<GeoPoint>,
    /// (method label, imputed positions).
    pub paths: Vec<(String, Vec<GeoPoint>)>,
}

/// Regenerates Figure 6's qualitative comparisons on `n` sample gaps.
pub fn fig6(bench: &Bench, seed: u64, n: usize) -> Vec<Fig6Case> {
    let cases = bench.gap_cases(3600, seed);
    let habit = Imputer::fit_habit(&bench.train, HabitConfig::with_r_t(9, 100.0)).ok();
    let gti = Imputer::fit_gti(
        &bench.train,
        GtiConfig {
            rd_deg: 5e-4,
            ..GtiConfig::default()
        },
    )
    .ok();
    let sli = Imputer::sli();

    // Spread the n examples evenly across the case list: test trips come
    // out of the stratified split grouped by course bucket, so a plain
    // head-of-list prefix would illustrate only one travel direction.
    let picks: Vec<&GapCase> = if cases.len() <= n {
        cases.iter().collect()
    } else {
        (0..n).map(|k| &cases[k * cases.len() / n]).collect()
    };

    picks
        .into_iter()
        .map(|case| {
            let mut paths = Vec::new();
            for m in [habit.as_ref(), gti.as_ref(), Some(&sli)]
                .into_iter()
                .flatten()
            {
                if let Some(p) = m.impute(&case.query).path() {
                    paths.push((
                        m.label().to_string(),
                        p.iter().map(|tp| tp.pos).collect::<Vec<_>>(),
                    ));
                }
            }
            Fig6Case {
                trip_id: case.trip_id,
                truth: case.truth.iter().map(|p| p.pos).collect(),
                paths,
            }
        })
        .collect()
}

// --------------------------------------------------------------------
// Figure 7 — accuracy vs gap duration (KIEL & SAR).

/// One row of Figure 7: the DTW distribution for one config × duration.
pub struct Fig7Row {
    /// Dataset name.
    pub dataset: String,
    /// Config label `(r|t)`.
    pub config: String,
    /// Gap duration, hours.
    pub gap_hours: f64,
    /// Median DTW, meters.
    pub median_dtw_m: f64,
    /// 25th / 75th percentile DTW.
    pub p25_m: f64,
    /// 75th percentile.
    pub p75_m: f64,
    /// Maximum (the paper's "pronounced outliers").
    pub max_m: f64,
    /// Cases imputed.
    pub imputed: usize,
}

/// Regenerates Figure 7: HABIT selected configs on 1/2/4-hour gaps.
pub fn fig7(bench: &Bench, seed: u64) -> Vec<Fig7Row> {
    let configs = [(9u8, 100.0), (9, 250.0), (10, 100.0), (10, 250.0)];
    let mut rows = Vec::new();
    for (res, tol) in configs {
        let config = HabitConfig::with_r_t(res, tol);
        let Ok(imputer) = Imputer::fit_habit(&bench.train, config) else {
            continue;
        };
        for hours in [1i64, 2, 4] {
            let cases = bench.gap_cases(hours * 3600, seed + hours as u64);
            let errors = accuracy_dtw(&imputer, &cases);
            rows.push(Fig7Row {
                dataset: bench.name.clone(),
                config: format!("{res}|{tol:.0}"),
                gap_hours: hours as f64,
                median_dtw_m: median(&errors),
                p25_m: percentile(&errors, 25.0),
                p75_m: percentile(&errors, 75.0),
                max_m: errors.iter().copied().fold(0.0, f64::max),
                imputed: errors.len(),
            });
        }
    }
    rows
}

// --------------------------------------------------------------------
// Table 4 — query latency (KIEL & SAR).

/// One row of Table 4.
pub struct Table4Row {
    /// Dataset name.
    pub dataset: String,
    /// Method label.
    pub method: String,
    /// Average query latency, seconds.
    pub avg_s: f64,
    /// Maximum query latency, seconds.
    pub max_s: f64,
    /// Number of gap queries.
    pub gaps: usize,
}

/// Regenerates Table 4: average and maximum imputation latency for the
/// selected HABIT and GTI configurations.
pub fn table4(bench: &Bench, seed: u64) -> Vec<Table4Row> {
    let cases = bench.gap_cases(3600, seed);
    let mut methods: Vec<Imputer> = Vec::new();
    for config in fig5_habit_configs() {
        if let Ok(m) = Imputer::fit_habit(&bench.train, config) {
            methods.push(m);
        }
    }
    for config in fig5_gti_configs() {
        if let Ok(m) = Imputer::fit_gti(&bench.train, config) {
            methods.push(m);
        }
    }
    methods
        .iter()
        .map(|m| {
            let (avg_s, max_s, _fail) = latency(m, &cases);
            Table4Row {
                dataset: bench.name.clone(),
                method: m.label().to_string(),
                avg_s,
                max_s,
                gaps: cases.len(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ais::AisPoint;

    /// A miniature bench with straight-lane trips (fast unit testing;
    /// the real datasets are exercised by the bench binaries and
    /// integration tests).
    fn mini_bench() -> Bench {
        let trips: Vec<Trip> = (0..10u64)
            .map(|k| Trip {
                trip_id: k + 1,
                mmsi: 100 + k,
                points: (0..120)
                    .map(|i| {
                        AisPoint::new(
                            100 + k,
                            i as i64 * 60,
                            10.0 + i as f64 * 0.004,
                            56.0,
                            12.0,
                            90.0,
                        )
                    })
                    .collect(),
            })
            .collect();
        let dataset = synth::datasets::kiel(DatasetSpec {
            seed: 1,
            scale: 0.05,
        });
        let (train, test) = split_trips(&trips, 0.7, &mut StdRng::seed_from_u64(3));
        Bench {
            name: "MINI".into(),
            dataset,
            train,
            test,
        }
    }

    #[test]
    fn accuracy_and_latency_smoke() {
        let bench = mini_bench();
        let cases = bench.gap_cases(3600, 1);
        assert!(!cases.is_empty());
        let habit = Imputer::fit_habit(&bench.train, HabitConfig::default()).unwrap();
        let errors = accuracy_dtw(&habit, &cases);
        assert_eq!(errors.len(), cases.len(), "straight lane: all succeed");
        // On a shared straight lane the imputation error is small.
        assert!(mean(&errors) < 500.0, "mean {:?}", mean(&errors));
        let (avg, max, failures) = latency(&habit, &cases);
        assert!(avg > 0.0 && max >= avg);
        assert_eq!(failures, 0);
    }

    #[test]
    fn fig3_rows_cover_grid() {
        let bench = mini_bench();
        let rows = fig3(&bench, 1);
        assert_eq!(rows.len(), 10, "5 resolutions x 2 projections");
        for r in &rows {
            assert!(r.total > 0);
            assert!(r.mean_dtw_m >= 0.0);
        }
    }

    #[test]
    fn table3_and_fig4_shapes() {
        let bench = mini_bench();
        let (rows, original) = table3(&bench, 1);
        assert_eq!(rows.len(), 10, "2 resolutions x 5 tolerances");
        assert!(original.count > 2);
        // Simplification monotonicity: t=1000 keeps fewer points than t=0.
        let t0 = rows
            .iter()
            .find(|r| r.resolution == 9 && r.tolerance_m == 0.0)
            .unwrap();
        let t1000 = rows
            .iter()
            .find(|r| r.resolution == 9 && r.tolerance_m == 1000.0)
            .unwrap();
        assert!(t1000.stats.count <= t0.stats.count);

        let f4 = fig4(&bench, 1);
        assert_eq!(f4.len(), 10);
    }

    #[test]
    fn fig5_includes_all_methods() {
        let bench = mini_bench();
        let rows = fig5(&bench, 1);
        // 4 HABIT + 3 GTI + SLI.
        assert_eq!(
            rows.len(),
            8,
            "{:?}",
            rows.iter().map(|r| r.method.clone()).collect::<Vec<_>>()
        );
        assert!(rows.iter().any(|r| r.method == "SLI"));
        // On a single confined lane, every method should beat nothing:
        // all DTWs finite and most gaps succeed.
        for r in &rows {
            assert!(r.mean_dtw_m.is_finite());
        }
    }

    #[test]
    fn fig6_produces_polylines() {
        let bench = mini_bench();
        let cases = fig6(&bench, 1, 2);
        assert!(!cases.is_empty());
        for c in &cases {
            assert!(c.truth.len() >= 2);
            assert!(!c.paths.is_empty());
        }
    }

    #[test]
    fn eval_scale_env() {
        // Default is 1.0 unless the env var is set; we only check it
        // parses without panicking.
        let s = eval_scale();
        assert!(s > 0.0);
    }
}
