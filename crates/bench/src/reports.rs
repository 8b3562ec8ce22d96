//! The experiments — one [`Experiment`] per table, figure and ablation.
//!
//! Each experiment declares the grid [`Cell`]s it reads, and builds its
//! report's reproduction sentence and sections as a pure function of the
//! evaluated [`Grid`]. [`run`] evaluates the union of the selected
//! experiments' cells once, so a (dataset, method) pair that several
//! experiments read is fitted and imputed once, and it stamps every
//! report's seed, scale and provenance in one place.

use crate::p2::P2Quantile;
use aggdb::quantile::median_exact;
use aggdb::HyperLogLog;
use baselines::{PalmtoConfig, PalmtoError};
use eval::experiments::{cells, Cell, DatasetId, Gaps, Grid, Row};
use eval::report::{
    fmt_m, fmt_mb, fmt_s, mean, median, peak_rss_bytes, percentile, ExperimentReport,
    MarkdownTable, Provenance, ReportError, ReportSection,
};
use eval::rot::{mean_rot_stats, rot_stats, RotStats};
use eval::Method;
use geo_kernel::GeoPoint;
use habit_core::{CellProjection, HabitConfig, TypeModelsConfig, WeightScheme};
use std::time::{Duration, Instant};
use DatasetId::{Dan, Kiel, Sar};

type Result<T> = std::result::Result<T, ReportError>;

const HOUR: Gaps = Gaps::HOUR;

/// A report's reproduction sentence and its sections.
type Built = Result<(String, Vec<ReportSection>)>;

/// One experiment: what it reads from the grid and how it reports it.
pub struct Experiment {
    /// Stable id: the `reports/<id>.json` stem and the runner's selector.
    pub id: &'static str,
    /// Human title, e.g. "Table 1 — characteristics of the AIS datasets".
    pub title: &'static str,
    /// Where the experiment lives in the paper.
    pub paper_ref: &'static str,
    /// The paper's claim the experiment verifies.
    pub paper_expected: &'static str,
    /// Swept parameters in display order; [`run`] appends the seed.
    pub params: &'static [(&'static str, &'static str)],
    /// The grid cells the report reads.
    pub cells: fn() -> Vec<Cell>,
    /// Builds the reproduction sentence and sections from the grid.
    pub build: fn(&Grid) -> Built,
}

/// Every experiment, in the order of `EXPERIMENTS.md`.
pub const EXPERIMENTS: [Experiment; 13] = [
    Experiment {
        id: "table1",
        title: "Table 1 — characteristics of the AIS datasets",
        paper_ref: "Table 1",
        paper_expected: "Real feeds: DAN 786 MB / 4,384,003 positions / 1,292 trips / 16 ships; \
                         KIEL 145 MB / 806,498 / 86 / 2; SAR 141 MB / 1,171,162 / 20,778 / 2,579. \
                         The synthetic analogues keep the structural ratios (KIEL: 2 ferries on one \
                         corridor; SAR: a large heterogeneous fleet).",
        params: &[],
        cells: || {
            [Dan, Kiel, Sar]
                .map(|dataset| Cell {
                    dataset,
                    method: None,
                    gaps: None,
                })
                .to_vec()
        },
        build: table1,
    },
    Experiment {
        id: "table2",
        title: "Table 2 — framework storage size (MB)",
        paper_ref: "Table 2",
        paper_expected: "HABIT sizes grow with resolution but stay tiny (0.06–57 MB); GTI models \
                         are orders of magnitude larger and explode with rd.",
        params: &[("habit_r", "6..=10"), ("gti_rd_deg", "1e-4|5e-4|1e-3")],
        cells: || [Kiel, Sar].iter().flat_map(|d| cells(*d, &table2_methods(), None)).collect(),
        build: table2,
    },
    Experiment {
        id: "table3",
        title: "Table 3 — effect of simplification on imputed trajectories [DAN]",
        paper_ref: "Table 3",
        paper_expected: "Larger t shrinks position counts drastically and nearly eliminates >45° \
                         turns; t in 100–250 is the sweet spot.",
        params: &[("r", "9|10"), ("t_m", "0|100|250|500|1000"), ("gap_s", "3600")],
        cells: || cells(Dan, &rt_sweep(), Some(HOUR)),
        build: table3,
    },
    Experiment {
        id: "table4",
        title: "Table 4 — query latency (seconds)",
        paper_ref: "Table 4",
        paper_expected: "HABIT stays well under GTI at every configuration; latency grows with \
                         resolution (HABIT) and rd (GTI); SAR is slower than KIEL for GTI.",
        params: &[
            ("habit", "r=9|10, t=100|250"),
            ("gti_rd_deg", "1e-4|5e-4|1e-3"),
            ("gap_s", "3600"),
        ],
        cells: || kiel_and_sar(&table4_methods()),
        build: table4,
    },
    Experiment {
        id: "fig3",
        title: "Figure 3 — HABIT DTW vs resolution x projection [DAN]",
        paper_ref: "Figure 3",
        paper_expected: "Finer resolutions are more accurate, and the data-driven median \
                         projection beats the geometric center, especially at coarse resolutions.",
        params: &[
            ("r", "6..=10"),
            ("p", "center|median"),
            ("t_m", "100"),
            ("gap_s", "3600"),
        ],
        cells: || cells(Dan, &fig3_methods(), Some(HOUR)),
        build: fig3,
    },
    Experiment {
        id: "fig4",
        title: "Figure 4 — HABIT DTW vs simplification tolerance [DAN]",
        paper_ref: "Figure 4",
        paper_expected: "Accuracy is essentially flat in t (RDP removes points, not geometry).",
        params: &[("r", "9|10"), ("t_m", "0|100|250|500|1000"), ("gap_s", "3600")],
        cells: || cells(Dan, &rt_sweep(), Some(HOUR)),
        build: fig4,
    },
    Experiment {
        id: "fig5",
        title: "Figure 5 — accuracy sensitivity: HABIT vs GTI vs SLI [KIEL & SAR]",
        paper_ref: "Figure 5",
        paper_expected: "On the confined KIEL route GTI is the most accurate and both methods \
                         beat SLI clearly; on the heterogeneous SAR dataset HABIT is stable while \
                         GTI's mean degrades from outlier paths.",
        params: &[
            ("habit", "r=9|10, t=100|250"),
            ("gti_rd_deg", "1e-4|5e-4|1e-3"),
            ("gap_s", "3600"),
        ],
        cells: || kiel_and_sar(&fig5_methods()),
        build: fig5,
    },
    Experiment {
        id: "fig6",
        title: "Figure 6 — indicative imputation results [KIEL]",
        paper_ref: "Figure 6",
        paper_expected: "Qualitatively, HABIT follows the habitual corridor while SLI cuts \
                         corners; GTI tracks the route closely on the confined KIEL corridor. \
                         (Symbols: o = original, H = HABIT, G = GTI, S = SLI.)",
        params: &[("examples", "3"), ("gap_s", "3600")],
        cells: || cells(Kiel, &fig6_methods(), Some(HOUR)),
        build: fig6,
    },
    Experiment {
        id: "fig7",
        title: "Figure 7 — HABIT DTW vs gap duration [KIEL & SAR]",
        paper_ref: "Figure 7",
        paper_expected: "Error grows with gap duration but less than proportionally; the config \
                         ranking stays consistent; SAR shows pronounced outliers (max column).",
        params: &[
            ("config_r_t", "9|100, 9|250, 10|100, 10|250"),
            ("gap_h", "1|2|4"),
        ],
        cells: || {
            let mut out = Vec::new();
            for d in [Kiel, Sar] {
                for hours in FIG7_HOURS {
                    out.extend(cells(d, &fig5_habit(), Some(fig7_gaps(hours))));
                }
            }
            out
        },
        build: fig7,
    },
    Experiment {
        id: "ablation_weights",
        title: "Ablation — A* edge-weight schemes [KIEL & SAR]",
        paper_ref: "`habit_core::WeightScheme` (beyond the paper)",
        paper_expected: "The paper minimizes the number of transitions (uniform hop weights), \
                         arguing this effectively reveals the most frequent path; frequency-aware \
                         weights should not dramatically beat it.",
        params: &[("r", "9"), ("t_m", "100"), ("gap_s", "3600")],
        cells: || kiel_and_sar(&WEIGHT_SCHEMES.map(|(scheme, _)| weighted(scheme))),
        build: ablation_weights,
    },
    Experiment {
        id: "ablation_medians",
        title: "Ablation — median algorithms and HLL precision",
        paper_ref: "`aggdb` median and HLL vs `habit_bench::p2` (beyond the paper)",
        paper_expected: "The P² streaming estimator tracks the exact median at a fraction of the \
                         cost on heavy-tailed samples; HyperLogLog error shrinks with precision \
                         at ~1.04/√m.",
        params: &[
            ("median_n", "100|1k|10k|100k"),
            ("hll_precision", "8|10|12|14|16"),
        ],
        cells: Vec::new,
        build: ablation_medians,
    },
    Experiment {
        id: "ablation_palmto",
        title: "Ablation — PaLMTO vs HABIT (the paper's dropped competitor)",
        paper_ref: "Paper §4 (PaLMTO exclusion note)",
        paper_expected: "PaLMTO models are comparable in size to the most refined HABIT \
                         configuration, but inference frequently exceeds the time limit and falls \
                         into a timeout — the reason the paper dropped it.",
        params: &[
            ("palmto", "n=3, r=10, budget=250ms"),
            ("habit", "r=10, t=100"),
            ("gap_s", "3600"),
        ],
        cells: || kiel_and_sar(&[Method::habit(10, 100.0), palmto()]),
        build: ablation_palmto,
    },
    Experiment {
        id: "ablation_fleet",
        title: "Ablation — vessel-type conditioning [SAR]",
        paper_ref: "The paper's future work, quantified (`habit_core::TypeModels`)",
        paper_expected: "Conditioning models on vessel type should help on the heterogeneous SAR \
                         fleet, at the cost of extra per-type storage — the paper's future-work \
                         extension.",
        params: &[
            ("r", "9"),
            ("t_m", "100"),
            ("min_trips_per_type", "8"),
            ("gap_s", "3600"),
        ],
        cells: || cells(Sar, &[Method::habit(9, 100.0), by_type()], Some(HOUR)),
        build: ablation_fleet,
    },
];

/// The experiment with this id.
pub fn experiment(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

/// Runs `selected` on one grid at `seed` and `scale`: each report's
/// cells are evaluated (what an earlier report already evaluated is
/// reused), its report is built, and its seed, scale and provenance are
/// stamped. Provenance times the work first done for that report; peak
/// RSS is the process's so far. Logs progress to stderr.
pub fn run(
    selected: &[&Experiment],
    seed: u64,
    scale: f64,
) -> Result<(Vec<ExperimentReport>, Grid)> {
    let plan = selected.iter().flat_map(|e| (e.cells)()).collect();
    let mut grid = Grid::new(seed, scale, plan);
    let t_run = Instant::now();
    let mut reports = Vec::new();
    for exp in selected {
        let t0 = Instant::now();
        grid.evaluate(&(exp.cells)());
        let (reproduction, sections) = (exp.build)(&grid)?;
        let mut params: Vec<(String, String)> = exp
            .params
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        params.push(("seed".into(), seed.to_string()));
        if exp.id == "table1" {
            // Table 1's rows are the dataset sizes the scale sets.
            params.push(("scale".into(), scale.to_string()));
        }
        reports.push(ExperimentReport {
            id: exp.id.into(),
            title: exp.title.into(),
            paper_ref: exp.paper_ref.into(),
            paper_expected: exp.paper_expected.into(),
            reproduction,
            params,
            sections,
            provenance: Provenance {
                generator: format!("habit-bench {}", env!("CARGO_PKG_VERSION")),
                seed,
                scale,
                wall_clock_s: t0.elapsed().as_secs_f64(),
                peak_rss_bytes: peak_rss_bytes(),
            },
        });
        eprintln!("[{}s] {} done", t_run.elapsed().as_secs(), exp.id);
    }
    Ok((reports, grid))
}

// --------------------------------------------------------------------
// The sweeps.

/// The cells of `methods` on KIEL and SAR, 60-minute gaps.
fn kiel_and_sar(methods: &[Method]) -> Vec<Cell> {
    [Kiel, Sar]
        .iter()
        .flat_map(|d| cells(*d, methods, Some(HOUR)))
        .collect()
}

/// Table 2: HABIT at r = 6..=10, then the GTI rd sweep.
fn table2_methods() -> Vec<Method> {
    let habit = (6..=10).map(|r| Method::habit(r, 100.0));
    habit.chain(gti_sweep()).collect()
}

/// Table 3 and Figure 4: r ∈ {9, 10} × t ∈ {0, 100, 250, 500, 1000}.
fn rt_sweep() -> Vec<Method> {
    let tolerances = [0.0, 100.0, 250.0, 500.0, 1000.0];
    [9, 10]
        .iter()
        .flat_map(|r| tolerances.map(|t| Method::habit(*r, t)))
        .collect()
}

/// Figure 3: r = 6..=10 × both projections at t = 100.
fn fig3_methods() -> Vec<Method> {
    (6..=10)
        .flat_map(|resolution| {
            [CellProjection::Center, CellProjection::Median].map(|projection| {
                Method::Habit(HabitConfig {
                    resolution,
                    projection,
                    rdp_tolerance_m: 100.0,
                    ..HabitConfig::default()
                })
            })
        })
        .collect()
}

/// The GTI rd sweep at rm = 250 m.
fn gti_sweep() -> [Method; 3] {
    [1e-4, 5e-4, 1e-3].map(Method::gti)
}

/// Figures 5 and 7 and Table 4: HABIT at r ∈ {9, 10} × t ∈ {100, 250}.
fn fig5_habit() -> Vec<Method> {
    [(9, 100.0), (9, 250.0), (10, 100.0), (10, 250.0)]
        .map(|(r, t)| Method::habit(r, t))
        .to_vec()
}

/// Table 4: the HABIT and GTI sweeps.
fn table4_methods() -> Vec<Method> {
    let mut out = fig5_habit();
    out.extend(gti_sweep());
    out
}

/// Figure 5: Table 4's methods and SLI.
fn fig5_methods() -> Vec<Method> {
    let mut out = table4_methods();
    out.push(Method::Sli);
    out
}

/// Figure 6: one configuration per method, in map-symbol order.
fn fig6_methods() -> [Method; 3] {
    [Method::habit(9, 100.0), Method::gti(5e-4), Method::Sli]
}

/// Figure 7's gap durations, hours.
const FIG7_HOURS: [u64; 3] = [1, 2, 4];

/// Figure 7's gaps of `hours`, each duration on its own placement seed.
fn fig7_gaps(hours: u64) -> Gaps {
    Gaps {
        duration_s: hours as i64 * 3600,
        seed_offset: hours,
    }
}

/// The ablation's weight schemes and their labels.
const WEIGHT_SCHEMES: [(WeightScheme, &str); 3] = [
    (WeightScheme::Hops, "Hops (paper)"),
    (WeightScheme::InverseTransitions, "1/transitions"),
    (WeightScheme::NegLogFrequency, "ln(1+max/transitions)"),
];

fn weighted(weight_scheme: WeightScheme) -> Method {
    Method::Habit(HabitConfig {
        weight_scheme,
        ..HabitConfig::with_r_t(9, 100.0)
    })
}

fn palmto() -> Method {
    Method::Palmto(PalmtoConfig {
        resolution: 10,
        n: 3,
        time_budget: Duration::from_millis(250),
        ..PalmtoConfig::default()
    })
}

fn by_type() -> Method {
    Method::ByType(TypeModelsConfig {
        habit: HabitConfig::with_r_t(9, 100.0),
        min_trips_per_type: 8,
    })
}

// --------------------------------------------------------------------
// The reports.

/// One section per dataset, KIEL then SAR, built from the dataset and
/// its name; the reproduction sentence joins their clauses and `tail`.
fn per_dataset(
    g: &Grid,
    tail: &str,
    build: impl Fn(DatasetId, &str) -> Result<(ReportSection, Option<String>)>,
) -> Built {
    let (mut sections, mut clauses) = (Vec::new(), Vec::new());
    for d in [Kiel, Sar] {
        let (section, clause) = build(d, &g.bench(d).name)?;
        sections.push(section);
        clauses.extend(clause);
    }
    Ok((format!("{}{tail}", clauses.join("; ")), sections))
}

/// The 60-minute row of a method the report cannot do without.
fn required<'g>(g: &'g Grid, id: &str, d: DatasetId, m: Method, what: &str) -> Result<Row<'g>> {
    let failed = |e| ReportError::experiment(id, format!("{what} fit: {e}"));
    g.fit(d, &m).map_err(failed)?;
    Ok(g.row(d, &m, HOUR).expect("fitted"))
}

/// A report of one untitled table.
fn one_table<S: Into<String>>(
    id: &str,
    repro: String,
    header: impl IntoIterator<Item = S>,
    rows: impl IntoIterator<Item = Vec<String>>,
) -> Built {
    let table = MarkdownTable::from_parts(id, header, rows)?;
    Ok((repro, vec![ReportSection::table(table)]))
}

/// The mean rot statistics of `paths`.
fn mean_rot<'p>(paths: impl Iterator<Item = &'p Vec<GeoPoint>>) -> RotStats {
    mean_rot_stats(&paths.map(|p| rot_stats(p)).collect::<Vec<_>>())
}

/// The `(r, t)` of a HABIT method.
fn r_t(m: &Method) -> (u8, f64) {
    match m {
        Method::Habit(c) => (c.resolution, c.rdp_tolerance_m),
        _ => unreachable!("a HABIT sweep"),
    }
}

/// Mean and median DTW cells.
fn dtw_cells(errors: &[f64]) -> [String; 2] {
    [fmt_m(mean(errors)), fmt_m(median(errors))]
}

/// The row with the lowest mean DTW among those that scored a case.
fn most_accurate<'a, 'g>(rows: &'a [Row<'g>]) -> Option<&'a Row<'g>> {
    let scored = rows.iter().filter(|r| !r.errors.is_empty());
    scored.min_by(|a, b| mean(&a.errors).total_cmp(&mean(&b.errors)))
}

fn table1(g: &Grid) -> Built {
    let mut rows = Vec::new();
    let mut per_dataset = Vec::new();
    for (d, vessel_types) in [(Dan, "Passenger"), (Kiel, "Passenger"), (Sar, "All")] {
        let bench = g.bench(d);
        let ds = &bench.dataset;
        let (positions, ships) = (ds.num_positions(), ds.num_ships());
        let trips = bench.train.len() + bench.test.len();
        rows.push(vec![
            bench.name.clone(),
            vessel_types.to_string(),
            fmt_mb(ds.csv_size_bytes()),
            positions.to_string(),
            trips.to_string(),
            ships.to_string(),
        ]);
        per_dataset.push(format!(
            "{} {positions} positions / {trips} trips / {ships} ships",
            bench.name
        ));
    }
    let header = [
        "Dataset",
        "Type",
        "Size (MB)",
        "Positions",
        "Trips",
        "Ships",
    ];
    let repro = format!("Structure preserved — {}.", per_dataset.join("; "));
    one_table("table1", repro, header, rows)
}

fn table2(g: &Grid) -> Built {
    let (mut rows, mut habit_max, mut gti_max) = (Vec::new(), 0, 0);
    for m in table2_methods() {
        let bytes = |d| g.fit(d, &m).map_or(0, |f| f.storage_bytes);
        let (kiel, sar) = (bytes(Kiel), bytes(Sar));
        let (method, config, max) = match m {
            Method::Habit(c) => ("HABIT", format!("r={}", c.resolution), &mut habit_max),
            Method::Gti(c) => ("GTI", format!("rd={:.0e}", c.rd_deg), &mut gti_max),
            _ => unreachable!("Table 2 sweeps HABIT and GTI"),
        };
        *max = kiel.max(sar).max(*max);
        rows.push(vec![method.into(), config, fmt_mb(kiel), fmt_mb(sar)]);
    }
    let repro = format!(
        "Largest HABIT model {} MB vs largest GTI model {} MB — GTI is {:.0}x larger; HABIT grows \
         monotonically with r.",
        fmt_mb(habit_max),
        fmt_mb(gti_max),
        gti_max as f64 / habit_max.max(1) as f64
    );
    let header = ["Method", "Configuration", "KIEL", "SAR"];
    one_table("table2", repro, header, rows)
}

fn table3(g: &Grid) -> Built {
    let cells = |r: String, t: String, s: RotStats| {
        let [avg, max] = [s.avg_rot_deg, s.max_rot_deg].map(|v| format!("{v:.2}"));
        vec![
            r,
            t,
            s.count.to_string(),
            avg,
            max,
            format!("{:.2}", s.turns_over_45),
        ]
    };
    let stats: Vec<(u8, f64, RotStats)> = g
        .rows(Dan, &rt_sweep(), HOUR)
        .iter()
        .map(|row| {
            let (r, t) = r_t(&row.method);
            (r, t, mean_rot(row.paths()))
        })
        .collect();
    let truth: Vec<Vec<GeoPoint>> = g
        .cases(Dan, HOUR)
        .iter()
        .map(|c| c.truth.iter().map(|p| p.pos).collect())
        .collect();
    let mut rows: Vec<_> = stats
        .iter()
        .map(|(r, t, s)| cells(r.to_string(), format!("{t:.0}"), *s))
        .collect();
    rows.push(cells("Original".into(), "-".into(), mean_rot(truth.iter())));
    let at_r9 = |tol: f64| {
        stats
            .iter()
            .find(|(r, t, _)| *r == 9 && *t == tol)
            .map(|s| s.2)
    };
    let repro = match (at_r9(0.0), at_r9(1000.0)) {
        (Some(t0), Some(t1k)) => format!(
            "At r=9, t=1000 shrinks imputed paths from {} to {} points and cuts >45° turns from \
             {:.2} to {:.2} per path.",
            t0.count, t1k.count, t0.turns_over_45, t1k.turns_over_45
        ),
        _ => "Sweep incomplete (model fit failed for some configurations).".to_string(),
    };
    let header = ["r", "t", "cnt", "Avg rot", "Max rot", ">45deg"];
    one_table("table3", repro, header, rows)
}

fn table4(g: &Grid) -> Built {
    per_dataset(g, ".", |d, name| {
        let rows = g.rows(d, &table4_methods(), HOUR);
        let worst = |habit: bool| {
            let of_kind = rows
                .iter()
                .filter(|r| matches!(r.method, Method::Habit(_)) == habit);
            of_kind.map(|r| r.latency().0).fold(0.0, f64::max)
        };
        let cells = rows.iter().map(|r| {
            let (avg, max) = r.latency();
            vec![r.method.label(), fmt_s(avg), fmt_s(max)]
        });
        let gaps = if rows.is_empty() {
            0
        } else {
            g.cases(d, HOUR).len()
        };
        let table = MarkdownTable::from_parts("table4", ["Method", "Avg", "Max"], cells)?;
        let clause = format!(
            "{name}: HABIT avg ≤ {} s, GTI avg up to {} s",
            fmt_s(worst(true)),
            fmt_s(worst(false))
        );
        Ok((
            ReportSection::titled(format!("{name} ({gaps} gaps)"), table),
            Some(clause),
        ))
    })
}

fn fig3(g: &Grid) -> Built {
    let total = g.cases(Dan, HOUR).len();
    let rows = g.rows(Dan, &fig3_methods(), HOUR);
    let r_p = |row: &Row| match row.method {
        Method::Habit(c) if c.projection == CellProjection::Center => (c.resolution, "center"),
        Method::Habit(c) => (c.resolution, "median"),
        _ => unreachable!("Figure 3 sweeps HABIT"),
    };
    let cells = rows.iter().map(|row| {
        let ((r, p), [mean, median]) = (r_p(row), dtw_cells(&row.errors));
        vec![
            r.to_string(),
            p.into(),
            mean,
            median,
            format!("{}/{total}", row.errors.len()),
        ]
    });
    let mean_at = |key| {
        rows.iter()
            .find(|row| r_p(row) == key)
            .map(|row| mean(&row.errors))
    };
    let (mut pairs, mut median_wins) = (0usize, 0usize);
    for r in 6..=10u8 {
        if let (Some(c), Some(m)) = (mean_at((r, "center")), mean_at((r, "median"))) {
            pairs += 1;
            median_wins += usize::from(m <= c);
        }
    }
    let repro = match most_accurate(&rows) {
        Some(best) => {
            let (r, p) = r_p(best);
            format!(
                "Median projection beats center at {median_wins}/{pairs} resolutions (mean DTW); \
                 best mean DTW {} m at r={r}, p={p}.",
                fmt_m(mean(&best.errors))
            )
        }
        None => "No configuration imputed any gap.".to_string(),
    };
    let header = ["r", "p", "Mean DTW (m)", "Median DTW (m)", "Imputed/Total"];
    one_table("fig3", repro, header, cells)
}

fn fig4(g: &Grid) -> Built {
    let rows = g.rows(Dan, &rt_sweep(), HOUR);
    let cells = rows.iter().map(|row| {
        let ((r, t), [mean, median]) = (r_t(&row.method), dtw_cells(&row.errors));
        vec![r.to_string(), format!("{t:.0}"), mean, median]
    });
    let r9: Vec<f64> = rows
        .iter()
        .filter(|row| r_t(&row.method).0 == 9)
        .map(|row| mean(&row.errors))
        .collect();
    let lo = r9.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = r9.iter().copied().fold(0.0f64, f64::max);
    let repro = if r9.is_empty() {
        "Sweep incomplete.".to_string()
    } else {
        format!(
            "Mean DTW at r=9 spans only {}–{} m across t=0..1000 — flat in t.",
            fmt_m(lo),
            fmt_m(hi)
        )
    };
    let header = ["r", "t", "Mean DTW (m)", "Median DTW (m)"];
    one_table("fig4", repro, header, cells)
}

fn fig5(g: &Grid) -> Built {
    per_dataset(g, ".", |d, name| {
        let total = g.cases(d, HOUR).len();
        let rows = g.rows(d, &fig5_methods(), HOUR);
        // A failure is a case with no DTW score.
        let cells = rows.iter().map(|r| {
            let [mean, median] = dtw_cells(&r.errors);
            let failures = total - r.errors.len();
            vec![
                r.method.label(),
                mean,
                median,
                failures.to_string(),
                total.to_string(),
            ]
        });
        let header = [
            "Method",
            "Mean DTW (m)",
            "Median DTW (m)",
            "Failures",
            "Gaps",
        ];
        let sli = rows.iter().find(|r| r.method == Method::Sli);
        let clause = most_accurate(&rows).zip(sli).map(|(best, sli)| {
            format!(
                "{name}: best {} at {} m mean DTW (SLI {} m)",
                best.method.label(),
                fmt_m(mean(&best.errors)),
                fmt_m(mean(&sli.errors))
            )
        });
        Ok((
            ReportSection::titled(name, MarkdownTable::from_parts("fig5", header, cells)?),
            clause,
        ))
    })
}

fn fig6(g: &Grid) -> Built {
    let cases = g.cases(Kiel, HOUR);
    // Spread the examples evenly across the case list: test trips come
    // out of the stratified split grouped by course bucket, so a plain
    // head-of-list prefix would illustrate only one travel direction.
    let n = cases.len().min(3);
    let rows = g.rows(Kiel, &fig6_methods(), HOUR);
    let labels: Vec<String> = rows.iter().map(|r| r.method.label()).collect();
    let (mut sections, mut with_all_methods) = (Vec::new(), 0usize);
    for (i, k) in (0..n).map(|i| (i, i * cases.len() / n)) {
        let truth: Vec<GeoPoint> = cases[k].truth.iter().map(|p| p.pos).collect();
        let mut series: Vec<(&str, &[GeoPoint])> = vec![("original", truth.as_slice())];
        for (row, label) in rows.iter().zip(&labels) {
            if let Ok(path) = &row.outcomes[k].path {
                series.push((label.as_str(), path.as_slice()));
            }
        }
        with_all_methods += usize::from(series.len() > 3);
        let mut polylines = String::from("Polylines (lon,lat per vertex):\n");
        for (label, path) in &series {
            let coords: Vec<String> = path
                .iter()
                .map(|p| format!("{:.5},{:.5}", p.lon, p.lat))
                .collect();
            polylines.push_str(&format!("\n- `{label}`: {}", coords.join(" ")));
        }
        let map = format!("```\n{}```", crate::ascii_map(&series, 72, 20));
        let heading = format!("Example {} (trip {})", i + 1, cases[k].trip_id);
        sections.push(ReportSection::notes(heading, vec![map, polylines]));
    }
    let repro = format!(
        "{n} example gaps rendered; {with_all_methods}/{n} produced paths from all three methods."
    );
    Ok((repro, sections))
}

fn fig7(g: &Grid) -> Built {
    per_dataset(g, ".", |d, name| {
        let (mut cells, mut medians) = (Vec::new(), Vec::new());
        for m in fig5_habit() {
            let (r, t) = r_t(&m);
            for hours in FIG7_HOURS {
                let Some(row) = g.row(d, &m, fig7_gaps(hours)) else {
                    continue;
                };
                let e = &row.errors;
                let max = e.iter().copied().fold(0.0, f64::max);
                let [p25, p75] = [25.0, 75.0].map(|p| fmt_m(percentile(e, p)));
                let (config, gap_h) = (format!("{r}|{t:.0}"), hours.to_string());
                cells.push(vec![
                    config,
                    gap_h,
                    fmt_m(median(e)),
                    p25,
                    p75,
                    fmt_m(max),
                    e.len().to_string(),
                ]);
                medians.push((hours, median(e)));
            }
        }
        let med_at = |hours| {
            let at: Vec<f64> = medians
                .iter()
                .filter(|m| m.0 == hours)
                .map(|m| m.1)
                .collect();
            fmt_m(median(&at))
        };
        let clause = format!(
            "{name}: median DTW (across configs) {} m at 1 h → {} m at 4 h",
            med_at(1),
            med_at(4)
        );
        let header = [
            "Config (r|t)",
            "Gap (h)",
            "Median (m)",
            "P25 (m)",
            "P75 (m)",
            "Max (m)",
            "Imputed",
        ];
        Ok((
            ReportSection::titled(name, MarkdownTable::from_parts("fig7", header, cells)?),
            Some(clause),
        ))
    })
}

fn ablation_weights(g: &Grid) -> Built {
    per_dataset(g, ".", |d, name| {
        let (mut cells, mut best) = (Vec::new(), None::<(&str, f64)>);
        for (scheme, label) in WEIGHT_SCHEMES {
            let Some(row) = g.row(d, &weighted(scheme), HOUR) else {
                continue;
            };
            let (m, (avg, max)) = (mean(&row.errors), row.latency());
            if best.is_none_or(|(_, b)| m < b) {
                best = Some((label, m));
            }
            let [mean, median] = dtw_cells(&row.errors);
            cells.push(vec![
                label.to_string(),
                mean,
                median,
                fmt_s(avg),
                fmt_s(max),
            ]);
        }
        let clause = best
            .map(|(label, m)| format!("{name}: best scheme {label} at {} m mean DTW", fmt_m(m)));
        let header = [
            "Weight scheme",
            "Mean DTW (m)",
            "Median DTW (m)",
            "Avg lat (s)",
            "Max lat (s)",
        ];
        Ok((
            ReportSection::titled(
                name,
                MarkdownTable::from_parts("ablation_weights", header, cells)?,
            ),
            clause,
        ))
    })
}

fn ablation_medians(_: &Grid) -> Built {
    // Medians: exact quickselect vs the P² streaming estimator on a
    // heavy-tailed sample from a fixed xorshift stream.
    let mut table = MarkdownTable::new(vec!["n", "exact", "p2", "abs err", "exact us", "p2 us"]);
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut worst_err = 0.0f64;
    for n in [100usize, 1_000, 10_000, 100_000] {
        let values: Vec<f64> = (0..n).map(|_| next().powi(3) * 1000.0).collect();
        let te = Instant::now();
        let mut v = values.clone();
        let exact = median_exact(&mut v).expect("non-empty");
        let exact_us = te.elapsed().as_micros();

        let tp = Instant::now();
        let mut p2 = P2Quantile::median();
        for x in &values {
            p2.insert(*x);
        }
        let approx = p2.estimate().expect("non-empty");
        let p2_us = tp.elapsed().as_micros();

        worst_err = worst_err.max((approx - exact).abs());
        table.row(vec![
            n.to_string(),
            format!("{exact:.2}"),
            format!("{approx:.2}"),
            format!("{:.2}", (approx - exact).abs()),
            exact_us.to_string(),
            p2_us.to_string(),
        ])?;
    }

    // HLL precision sweep.
    let mut hll_table = MarkdownTable::new(vec![
        "precision",
        "registers",
        "bytes",
        "estimate",
        "rel err %",
    ]);
    let n = 50_000u64;
    let mut err_p12 = 0.0f64;
    for p in [8u8, 10, 12, 14, 16] {
        let mut h = HyperLogLog::new(p);
        for v in 0..n {
            h.insert_u64(v);
        }
        let est = h.estimate();
        let rel = (est - n as f64).abs() / n as f64 * 100.0;
        if p == 12 {
            err_p12 = rel;
        }
        hll_table.row(vec![
            p.to_string(),
            (1u32 << p).to_string(),
            h.byte_size().to_string(),
            format!("{est:.0}"),
            format!("{rel:.2}"),
        ])?;
    }

    let repro = format!(
        "Worst P² absolute error {worst_err:.2} across n=100..100k; HLL relative error \
         {err_p12:.2}% at precision 12 (n=50k distinct)."
    );
    let sections = vec![
        ReportSection::titled("Exact median vs P² streaming estimator", table),
        ReportSection::titled(
            "HyperLogLog precision vs error (n = 50,000 distinct)",
            hll_table,
        ),
    ];
    Ok((repro, sections))
}

fn ablation_palmto(g: &Grid) -> Built {
    per_dataset(g, "; HABIT answered with no timeouts.", |d, name| {
        let habit = required(g, "ablation_palmto", d, Method::habit(10, 100.0), "HABIT")?;
        let palmto = required(g, "ablation_palmto", d, palmto(), "PaLMTO")?;
        let failed_by = |e: PalmtoError| {
            let failed = palmto.outcomes.iter().map(|o| o.path.as_ref().err());
            failed.filter(|m| *m == Some(&e.to_string())).count()
        };
        let timeout = failed_by(PalmtoError::Timeout);
        let (dead_end, step_limit) = (
            failed_by(PalmtoError::DeadEnd),
            failed_by(PalmtoError::StepLimit),
        );
        let (failed, cases) = (timeout + dead_end + step_limit, palmto.outcomes.len());
        let [habit_mean, habit_median] = dtw_cells(&habit.errors);
        let [mean, median] = dtw_cells(&palmto.errors);
        let rows = [
            [
                "HABIT r=10,t=100".into(),
                fmt_mb(habit.fit.storage_bytes),
                habit.errors.len().to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
                habit_mean,
                habit_median,
            ],
            [
                "PaLMTO n=3,r=10".into(),
                fmt_mb(palmto.fit.storage_bytes),
                palmto.paths().count().to_string(),
                timeout.to_string(),
                dead_end.to_string(),
                step_limit.to_string(),
                mean,
                median,
            ],
        ];
        let header = [
            "Method",
            "Model (MB)",
            "Imputed",
            "Timeout",
            "DeadEnd",
            "StepLimit",
            "Mean DTW (m)",
            "Median DTW (m)",
        ];
        let table = MarkdownTable::from_parts("ablation_palmto", header, rows.map(Vec::from))?;
        let mut section = ReportSection::titled(format!("{name} ({cases} gaps)"), table);
        section.notes.push(format!(
            "PaLMTO failed {failed}/{cases} queries ({timeout} by timeout) — the behaviour that \
             excluded it from the paper's reported results."
        ));
        Ok((
            section,
            Some(format!("{name}: PaLMTO failed {failed}/{cases} queries")),
        ))
    })
}

fn ablation_fleet(g: &Grid) -> Built {
    let global = required(g, "ablation_fleet", Sar, Method::habit(9, 100.0), "global")?;
    let fleet = required(g, "ablation_fleet", Sar, by_type(), "fleet")?;
    let cases = global.outcomes.len();
    let class_served = fleet.outcomes.iter().filter(|o| o.by_type).count();
    let rows = [("Global (paper)", &global), ("Fleet (per-type)", &fleet)].map(|(label, r)| {
        let [mean, median] = dtw_cells(&r.errors);
        let imputed = format!("{}/{cases}", r.errors.len());
        vec![
            label.into(),
            mean,
            median,
            imputed,
            fmt_mb(r.fit.storage_bytes),
        ]
    });
    let header = [
        "Model",
        "Mean DTW (m)",
        "Median DTW (m)",
        "Imputed",
        "Storage (MB)",
    ];
    let mut section =
        ReportSection::table(MarkdownTable::from_parts("ablation_fleet", header, rows)?);
    section.notes.push(format!(
        "Dedicated class models: {:?}. {class_served}/{cases} gaps answered by a dedicated class \
         model.",
        fleet.fit.modeled_types
    ));
    let repro = format!(
        "Fleet mean DTW {} m vs global {} m; {class_served}/{cases} gaps served by class models; \
         storage {} vs {} MB.",
        fmt_m(mean(&fleet.errors)),
        fmt_m(mean(&global.errors)),
        fmt_mb(fleet.fit.storage_bytes),
        fmt_mb(global.fit.storage_bytes),
    );
    Ok((repro, vec![section]))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every report field but the provenance's measurements.
    fn answers(mut report: ExperimentReport) -> ExperimentReport {
        report.provenance.wall_clock_s = 0.0;
        report.provenance.peak_rss_bytes = 0;
        report
    }

    fn run_ids(ids: &[&str]) -> (Vec<ExperimentReport>, Grid) {
        let selected: Vec<&Experiment> = ids.iter().map(|id| experiment(id).unwrap()).collect();
        run(&selected, 42, 0.05).expect("run")
    }

    #[test]
    fn table1_report_round_trips() {
        let (reports, _) = run_ids(&["table1"]);
        let report = &reports[0];
        assert_eq!(report.id, "table1");
        assert_eq!(report.sections.len(), 1);
        assert_eq!(report.sections[0].table.as_ref().unwrap().len(), 3);
        assert!(report.provenance.wall_clock_s > 0.0);
        let scale = report.params.last().unwrap();
        assert_eq!((scale.0.as_str(), scale.1.as_str()), ("scale", "0.05"));
        let back = ExperimentReport::from_json(&report.to_json()).expect("parse");
        assert_eq!(&back, report);
    }

    #[test]
    fn medians_report_needs_no_bench() {
        let (reports, grid) = run_ids(&["ablation_medians"]);
        assert_eq!(reports[0].sections.len(), 2);
        assert!(reports[0].reproduction.contains("precision 12"));
        assert_eq!(grid.fits(), 0);
    }

    #[test]
    fn shared_configurations_fit_once_and_answer_as_alone() {
        let (together, grid) = run_ids(&["table3", "fig4"]);
        // Table 3 and Figure 4 sweep the same ten DAN configurations.
        assert_eq!(grid.fits(), 10);
        for report in together {
            let (alone, _) = run_ids(&[report.id.as_str()]);
            let alone = alone.into_iter().next().unwrap();
            assert_eq!(answers(report), answers(alone));
        }
    }

    #[test]
    fn ids_are_unique() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(EXPERIMENTS[..i].iter().all(|f| f.id != e.id), "{}", e.id);
        }
        assert!(experiment("fig5").is_some() && experiment("fig8").is_none());
    }
}
