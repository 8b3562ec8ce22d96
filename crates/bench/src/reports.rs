//! The experiments — one [`Experiment`] per table, figure and ablation.
//!
//! An experiment is data. It declares its datasets, its method sweep and
//! its gap sets once; its grid [`Cell`]s and its rows are derived from
//! them ([`Experiment::cells`], [`Experiment::rows`]). A tabular
//! experiment ([`Body::Table`]) also declares its [`Column`]s — row keys,
//! then aggregates — and every one of its tables is rendered by
//! [`eval::experiments::table`]: one section per dataset, with the
//! measurement columns (the latencies) in the section's measured table,
//! keyed by the same row keys, apart from the answers. Its reproduction
//! sentence joins one small clause per dataset. What is not one table
//! per dataset — Table 1, Table 2's pivot, Table 3's rate-of-turn columns
//! and its `Original` row, Figure 6's maps, the PaLMTO ablation's
//! sentence and the medians ablation — is a [`Body::Bespoke`] builder
//! that still reads the declared sweep.
//!
//! [`run`] evaluates the union of the selected experiments' cells once,
//! so a (dataset, method) pair that several experiments read is fitted
//! and imputed once; it stamps every report's provenance and the run's
//! one [`Measurement`].

use crate::p2::P2Quantile;
use aggdb::quantile::median_exact;
use aggdb::HyperLogLog;
use baselines::{PalmtoConfig, PalmtoError};
use eval::experiments::{table, Agg, Cell, Column, DatasetId, Gaps, Grid, Row, Stat};
use eval::report::{
    fmt_m, fmt_mb, fmt_s, mean, median, peak_rss_bytes, ExperimentReport, MarkdownTable, Measured,
    Measurement, Provenance, ReportError, ReportSection,
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

/// One dataset's reproduction clause, from the dataset's name and its
/// fitted rows; it may add notes to, or retitle, the dataset's section.
type Clause = fn(&str, &[Row], &mut ReportSection) -> Result<Option<String>>;

/// One experiment: what it sweeps and how it reports it.
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
    /// The datasets, in section order.
    pub datasets: &'static [DatasetId],
    /// The methods fitted on each dataset, in row order.
    pub methods: fn() -> Vec<Method>,
    /// The gap sets each method imputes, in row order within a method;
    /// with none, the experiment reads the fits alone.
    pub gaps: &'static [Gaps],
    /// How the report is built from the grid.
    pub body: Body,
}

/// How an experiment's report is built.
pub enum Body {
    /// One section per dataset (titled by the dataset's name when there
    /// are several) holding the table of its fitted rows; the measurement
    /// columns go to the section's measured table, after the leading
    /// label (row-key) columns. The reproduction sentence joins the
    /// datasets' clauses with "; ".
    Table {
        /// The columns, row keys first.
        columns: &'static [Column],
        /// Each dataset's reproduction clause.
        clause: Clause,
    },
    /// A builder for what is not a table of aggregates.
    Bespoke(fn(&Grid, &Experiment) -> Built),
}

impl Experiment {
    /// The rows of the sweep: each method on each gap set.
    pub fn rows(&self) -> Vec<(Method, Gaps)> {
        let methods = (self.methods)();
        let per_method = |m: Method| self.gaps.iter().map(move |g| (m, *g));
        methods.into_iter().flat_map(per_method).collect()
    }

    /// The grid cells the report reads: every dataset; each method's fit
    /// on it; each method's outcomes on each gap set.
    pub fn cells(&self) -> Vec<Cell> {
        let mut out = Vec::new();
        for &dataset in self.datasets {
            let cell = |method, gaps| Cell {
                dataset,
                method,
                gaps,
            };
            let methods = (self.methods)();
            if methods.is_empty() {
                out.push(cell(None, None));
            }
            for m in methods {
                if self.gaps.is_empty() {
                    out.push(cell(Some(m), None));
                }
                out.extend(self.gaps.iter().map(|g| cell(Some(m), Some(*g))));
            }
        }
        out
    }

    fn build(&self, g: &Grid) -> Built {
        let (columns, clause) = match self.body {
            Body::Bespoke(build) => return build(g, self),
            Body::Table { columns, clause } => (columns, clause),
        };
        let (answers, timings): (Vec<Column>, Vec<Column>) =
            columns.iter().partition(|c| !c.1.is_measurement());
        let keys = columns.iter().take_while(|c| matches!(c.1, Agg::Label(_)));
        let measured: Vec<Column> = keys.chain(&timings).copied().collect();
        let (sweep, mut sections, mut clauses) = (self.rows(), Vec::new(), Vec::new());
        for &d in self.datasets {
            let rows: Vec<Row> = sweep
                .iter()
                .filter_map(|(m, gs)| g.row(d, m, *gs))
                .collect();
            let table = |columns| table(&rows, columns);
            let mut section = ReportSection::table(table(&answers));
            let name = &g.bench(d).name;
            if self.datasets.len() > 1 {
                section.heading = name.clone();
            }
            if !timings.is_empty() {
                section.measured = Some(Measured {
                    notes: Vec::new(),
                    table: table(&measured),
                });
            }
            clauses.extend(clause(name, &rows, &mut section)?);
            sections.push(section);
        }
        Ok((format!("{}.", clauses.join("; ")), sections))
    }
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
        datasets: &[Dan, Kiel, Sar],
        methods: Vec::new,
        gaps: &[],
        body: Body::Bespoke(table1),
    },
    Experiment {
        id: "table2",
        title: "Table 2 — framework storage size (MB)",
        paper_ref: "Table 2",
        paper_expected: "HABIT sizes grow with resolution but stay tiny (0.06–57 MB); GTI models \
                         are orders of magnitude larger and explode with rd.",
        params: &[("habit_r", "6..=10"), ("gti_rd_deg", "1e-4|5e-4|1e-3")],
        datasets: &[Kiel, Sar],
        methods: table2_methods,
        gaps: &[],
        body: Body::Bespoke(table2),
    },
    Experiment {
        id: "table3",
        title: "Table 3 — effect of simplification on imputed trajectories [DAN]",
        paper_ref: "Table 3",
        paper_expected: "Larger t shrinks position counts drastically and nearly eliminates >45° \
                         turns; t in 100–250 is the sweet spot.",
        params: &[("r", "9|10"), ("t_m", "0|100|250|500|1000"), ("gap_s", "3600")],
        datasets: &[Dan],
        methods: rt_sweep,
        gaps: &[HOUR],
        body: Body::Bespoke(table3),
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
        datasets: &[Kiel, Sar],
        methods: table4_methods,
        gaps: &[HOUR],
        body: Body::Table {
            columns: &[
                Column::METHOD,
                Column("Avg", Agg::AvgLatency),
                Column("Max", Agg::MaxLatency),
            ],
            clause: table4,
        },
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
        datasets: &[Dan],
        methods: fig3_methods,
        gaps: &[HOUR],
        body: Body::Table {
            columns: &[
                R,
                P,
                Column::MEAN_DTW,
                Column::MEDIAN_DTW,
                Column("Imputed/Total", Agg::ScoredOfTotal),
            ],
            clause: fig3,
        },
    },
    Experiment {
        id: "fig4",
        title: "Figure 4 — HABIT DTW vs simplification tolerance [DAN]",
        paper_ref: "Figure 4",
        paper_expected: "Accuracy is essentially flat in t (RDP removes points, not geometry).",
        params: &[("r", "9|10"), ("t_m", "0|100|250|500|1000"), ("gap_s", "3600")],
        datasets: &[Dan],
        methods: rt_sweep,
        gaps: &[HOUR],
        body: Body::Table {
            columns: &[R, T, Column::MEAN_DTW, Column::MEDIAN_DTW],
            clause: fig4,
        },
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
        datasets: &[Kiel, Sar],
        methods: fig5_methods,
        gaps: &[HOUR],
        body: Body::Table {
            columns: &[
                Column::METHOD,
                Column::MEAN_DTW,
                Column::MEDIAN_DTW,
                Column("Failures", Agg::Failures),
                Column("Gaps", Agg::Gaps),
            ],
            clause: fig5,
        },
    },
    Experiment {
        id: "fig6",
        title: "Figure 6 — indicative imputation results [KIEL]",
        paper_ref: "Figure 6",
        paper_expected: "Qualitatively, HABIT follows the habitual corridor while SLI cuts \
                         corners; GTI tracks the route closely on the confined KIEL corridor. \
                         (Symbols: o = original, H = HABIT, G = GTI, S = SLI.)",
        params: &[("examples", "3"), ("gap_s", "3600")],
        datasets: &[Kiel],
        methods: || vec![Method::habit(9, 100.0), Method::gti(5e-4), Method::Sli],
        gaps: &[HOUR],
        body: Body::Bespoke(fig6),
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
        datasets: &[Kiel, Sar],
        methods: fig5_habit,
        gaps: &FIG7_GAPS,
        body: Body::Table {
            columns: &[
                key("Config (r|t)", |row| {
                    format!("{}|{}", R.1.cell(row), T.1.cell(row))
                }),
                key("Gap (h)", |row| hours(row).to_string()),
                Column("Median (m)", Agg::Dtw(Stat::Median)),
                Column("P25 (m)", Agg::Dtw(Stat::P25)),
                Column("P75 (m)", Agg::Dtw(Stat::P75)),
                Column("Max (m)", Agg::Dtw(Stat::Max)),
                Column("Imputed", Agg::Scored),
            ],
            clause: fig7,
        },
    },
    Experiment {
        id: "ablation_weights",
        title: "Ablation — A* edge-weight schemes [KIEL & SAR]",
        paper_ref: "`habit_core::WeightScheme` (beyond the paper)",
        paper_expected: "The paper minimizes the number of transitions (uniform hop weights), \
                         arguing this effectively reveals the most frequent path; frequency-aware \
                         weights should not dramatically beat it.",
        params: &[("r", "9"), ("t_m", "100"), ("gap_s", "3600")],
        datasets: &[Kiel, Sar],
        methods: || {
            let weighted = |(weight_scheme, _)| {
                Method::Habit(HabitConfig {
                    weight_scheme,
                    ..HabitConfig::with_r_t(9, 100.0)
                })
            };
            WEIGHT_SCHEMES.map(weighted).to_vec()
        },
        gaps: &[HOUR],
        body: Body::Table {
            columns: &[
                SCHEME,
                Column::MEAN_DTW,
                Column::MEDIAN_DTW,
                Column::AVG_LAT,
                Column::MAX_LAT,
            ],
            clause: ablation_weights,
        },
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
        datasets: &[],
        methods: Vec::new,
        gaps: &[],
        body: Body::Bespoke(ablation_medians),
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
        datasets: &[Kiel, Sar],
        methods: || {
            let palmto = Method::Palmto(PalmtoConfig {
                resolution: 10,
                n: 3,
                time_budget: Duration::from_millis(250),
                ..PalmtoConfig::default()
            });
            vec![Method::habit(10, 100.0), palmto]
        },
        gaps: &[HOUR],
        body: Body::Bespoke(ablation_palmto),
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
        datasets: &[Sar],
        methods: || {
            let by_type = Method::ByType(TypeModelsConfig {
                habit: HabitConfig::with_r_t(9, 100.0),
                min_trips_per_type: 8,
            });
            vec![Method::habit(9, 100.0), by_type]
        },
        gaps: &[HOUR],
        body: Body::Table {
            columns: &[
                key("Model", |row| {
                    let fleet = matches!(row.method, Method::ByType(_));
                    (if fleet { "Fleet (per-type)" } else { "Global (paper)" }).into()
                }),
                Column::MEAN_DTW,
                Column::MEDIAN_DTW,
                Column("Imputed", Agg::ScoredOfTotal),
                Column("Storage (MB)", Agg::ModelMb),
            ],
            clause: ablation_fleet,
        },
    },
];

/// The experiment with this id.
pub fn experiment(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

/// Runs `selected` on one grid at `seed` and `scale`: each report's
/// cells are evaluated (what an earlier report already evaluated is
/// reused), its report is built and its provenance stamped. Every report
/// then carries the run's one measurement. Logs progress to stderr.
pub fn run(
    selected: &[&Experiment],
    seed: u64,
    scale: f64,
) -> Result<(Vec<ExperimentReport>, Grid)> {
    let t_run = Instant::now();
    let plan = selected.iter().flat_map(|e| e.cells()).collect();
    let mut grid = Grid::new(seed, scale, plan);
    let mut reports = Vec::new();
    for exp in selected {
        grid.evaluate(&exp.cells());
        let (reproduction, sections) = exp.build(&grid)?;
        let params = exp
            .params
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()));
        // Table 1's rows are the dataset sizes the scale sets.
        let scale_param = (exp.id == "table1").then(|| ("scale".into(), scale.to_string()));
        let params = params.chain([("seed".into(), seed.to_string())]);
        let params = params.chain(scale_param).collect();
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
            },
            measurement: Measurement::default(),
        });
        eprintln!("[{}s] {} done", t_run.elapsed().as_secs(), exp.id);
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let measurement = Measurement {
        host_cores: cores as u64,
        wall_clock_s: t_run.elapsed().as_secs_f64(),
        peak_rss_bytes: peak_rss_bytes(),
    };
    for report in &mut reports {
        report.measurement = measurement.clone();
    }
    Ok((reports, grid))
}

// --------------------------------------------------------------------
// The sweeps.

/// Table 2: HABIT at r = 6..=10, then the GTI rd sweep.
pub fn table2_methods() -> Vec<Method> {
    let habit = (6..=10).map(|r| Method::habit(r, 100.0));
    habit.chain(gti_sweep()).collect()
}

/// Table 3 and Figure 4: r ∈ {9, 10} × t ∈ {0, 100, 250, 500, 1000}.
pub fn rt_sweep() -> Vec<Method> {
    let tolerances = [0.0, 100.0, 250.0, 500.0, 1000.0];
    [9, 10]
        .iter()
        .flat_map(|r| tolerances.map(|t| Method::habit(*r, t)))
        .collect()
}

/// Figure 3: r = 6..=10 × both projections at t = 100.
pub fn fig3_methods() -> Vec<Method> {
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
pub fn fig5_habit() -> Vec<Method> {
    [(9, 100.0), (9, 250.0), (10, 100.0), (10, 250.0)]
        .map(|(r, t)| Method::habit(r, t))
        .to_vec()
}

/// Table 4: the HABIT and GTI sweeps.
pub fn table4_methods() -> Vec<Method> {
    [fig5_habit(), gti_sweep().into()].concat()
}

/// Figure 5: Table 4's methods and SLI.
pub fn fig5_methods() -> Vec<Method> {
    [table4_methods(), vec![Method::Sli]].concat()
}

/// Figure 7's gaps of `hours`, each duration on its own placement seed.
pub const fn fig7_gaps(hours: u64) -> Gaps {
    Gaps {
        duration_s: hours as i64 * 3600,
        seed_offset: hours,
    }
}

/// Figure 7's gap sets: 1, 2 and 4 hours.
pub const FIG7_GAPS: [Gaps; 3] = [fig7_gaps(1), fig7_gaps(2), fig7_gaps(4)];

/// The ablation's weight schemes and their labels.
const WEIGHT_SCHEMES: [(WeightScheme, &str); 3] = [
    (WeightScheme::Hops, "Hops (paper)"),
    (WeightScheme::InverseTransitions, "1/transitions"),
    (WeightScheme::NegLogFrequency, "ln(1+max/transitions)"),
];

// --------------------------------------------------------------------
// The row keys.

/// The configuration of a HABIT sweep's row.
fn habit(row: &Row) -> HabitConfig {
    match row.method {
        Method::Habit(c) => c,
        _ => unreachable!("a HABIT sweep"),
    }
}

/// The gap duration of a row, hours.
fn hours(row: &Row) -> i64 {
    row.gaps.duration_s / 3600
}

/// A row-key column.
const fn key(header: &'static str, label: fn(&Row) -> String) -> Column {
    Column(header, Agg::Label(label))
}

const R: Column = key("r", |row| habit(row).resolution.to_string());
const T: Column = key("t", |row| format!("{:.0}", habit(row).rdp_tolerance_m));
const P: Column = key("p", |row| {
    let center = habit(row).projection == CellProjection::Center;
    (if center { "center" } else { "median" }).into()
});
const SCHEME: Column = key("Weight scheme", |row| {
    let scheme = WEIGHT_SCHEMES
        .iter()
        .find(|s| s.0 == habit(row).weight_scheme);
    scheme.expect("a swept scheme").1.into()
});

// --------------------------------------------------------------------
// The reports.

/// The mean rot statistics of `paths`.
fn mean_rot<'p>(paths: impl Iterator<Item = &'p Vec<GeoPoint>>) -> RotStats {
    mean_rot_stats(&paths.map(|p| rot_stats(p)).collect::<Vec<_>>())
}

/// The row with the lowest mean DTW among those that scored a case.
fn most_accurate<'a, 'g>(rows: &'a [Row<'g>]) -> Option<&'a Row<'g>> {
    let scored = rows.iter().filter(|r| !r.errors.is_empty());
    scored.min_by(|a, b| mean(&a.errors).total_cmp(&mean(&b.errors)))
}

fn table1(g: &Grid, e: &Experiment) -> Built {
    let mut rows = Vec::new();
    let mut per_dataset = Vec::new();
    for &d in e.datasets {
        let bench = g.bench(d);
        let ds = &bench.dataset;
        let (positions, ships) = (ds.num_positions(), ds.num_ships());
        let trips = bench.train.len() + bench.test.len();
        rows.push(vec![
            bench.name.clone(),
            (if d == Sar { "All" } else { "Passenger" }).into(),
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
    let table = MarkdownTable::from_parts(e.id, header, rows)?;
    Ok((repro, vec![ReportSection::table(table)]))
}

fn table2(g: &Grid, e: &Experiment) -> Built {
    let (mut rows, mut habit_max, mut gti_max) = (Vec::new(), 0, 0);
    for m in (e.methods)() {
        let bytes = e
            .datasets
            .iter()
            .map(|d| g.fit(*d, &m).map_or(0, |f| f.storage_bytes));
        let bytes: Vec<usize> = bytes.collect();
        let (method, config, max) = match m {
            Method::Habit(c) => ("HABIT", format!("r={}", c.resolution), &mut habit_max),
            Method::Gti(c) => ("GTI", format!("rd={:.0e}", c.rd_deg), &mut gti_max),
            _ => unreachable!("Table 2 sweeps HABIT and GTI"),
        };
        *max = bytes.iter().copied().fold(*max, usize::max);
        let sizes = bytes.into_iter().map(fmt_mb);
        rows.push([method.into(), config].into_iter().chain(sizes).collect());
    }
    let repro = format!(
        "Largest HABIT model {} MB vs largest GTI model {} MB — GTI is {:.0}x larger; HABIT grows \
         monotonically with r.",
        fmt_mb(habit_max),
        fmt_mb(gti_max),
        gti_max as f64 / habit_max.max(1) as f64
    );
    let names = e.datasets.iter().map(|d| g.bench(*d).name.clone());
    let header = ["Method".into(), "Configuration".into()]
        .into_iter()
        .chain(names);
    let table = MarkdownTable::from_parts::<String>(e.id, header, rows)?;
    Ok((repro, vec![ReportSection::table(table)]))
}

fn table3(g: &Grid, e: &Experiment) -> Built {
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
    let d = e.datasets[0];
    let sweep = e.rows();
    let fitted = sweep.iter().filter_map(|(m, gaps)| g.row(d, m, *gaps));
    let stats: Vec<(Row, RotStats)> = fitted
        .map(|row| {
            let s = mean_rot(row.paths());
            (row, s)
        })
        .collect();
    let truth: Vec<Vec<GeoPoint>> = g
        .cases(d, e.gaps[0])
        .iter()
        .map(|c| c.truth.iter().map(|p| p.pos).collect())
        .collect();
    let mut rows: Vec<_> = stats
        .iter()
        .map(|(row, s)| cells(R.1.cell(row), T.1.cell(row), *s))
        .collect();
    rows.push(cells("Original".into(), "-".into(), mean_rot(truth.iter())));
    let at_r9 = |tol: f64| {
        let c = |row: &Row| habit(row).resolution == 9 && habit(row).rdp_tolerance_m == tol;
        stats.iter().find(|(row, _)| c(row)).map(|s| s.1)
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
    let table = MarkdownTable::from_parts(e.id, header, rows)?;
    Ok((repro, vec![ReportSection::table(table)]))
}

fn table4(name: &str, rows: &[Row], section: &mut ReportSection) -> Result<Option<String>> {
    let gaps = rows.first().map_or(0, |r| r.outcomes.len());
    section.heading = format!("{name} ({gaps} gaps)");
    let worst = |habit: bool| {
        let of_kind = rows
            .iter()
            .filter(|r| matches!(r.method, Method::Habit(_)) == habit);
        of_kind.map(|r| r.latency().0).fold(0.0, f64::max)
    };
    let [habit, gti] = [true, false].map(|habit| fmt_s(worst(habit)));
    let timing = format!("HABIT avg ≤ {habit} s, GTI avg up to {gti} s.");
    section.measured.as_mut().expect("timed").notes.push(timing);
    let methods = rows.len();
    Ok(Some(format!(
        "{name}: {methods} methods timed on {gaps} gaps"
    )))
}

fn fig3(_: &str, rows: &[Row], _: &mut ReportSection) -> Result<Option<String>> {
    let mean_at = |r: u8, p: CellProjection| {
        let at = |row: &&Row| habit(row).resolution == r && habit(row).projection == p;
        rows.iter().find(at).map(|row| mean(&row.errors))
    };
    let pairs = (6..=10)
        .filter_map(|r| mean_at(r, CellProjection::Center).zip(mean_at(r, CellProjection::Median)));
    let pairs: Vec<(f64, f64)> = pairs.collect();
    let median_wins = pairs
        .iter()
        .filter(|(center, median)| median <= center)
        .count();
    Ok(Some(match most_accurate(rows) {
        Some(best) => format!(
            "Median projection beats center at {median_wins}/{} resolutions (mean DTW); \
             best mean DTW {} m at r={}, p={}",
            pairs.len(),
            fmt_m(mean(&best.errors)),
            R.1.cell(best),
            P.1.cell(best)
        ),
        None => "No configuration imputed any gap".to_string(),
    }))
}

fn fig4(_: &str, rows: &[Row], _: &mut ReportSection) -> Result<Option<String>> {
    let r9 = rows.iter().filter(|row| habit(row).resolution == 9);
    let r9: Vec<f64> = r9.map(|row| mean(&row.errors)).collect();
    let lo = fmt_m(r9.iter().copied().fold(f64::INFINITY, f64::min));
    let hi = fmt_m(r9.iter().copied().fold(0.0f64, f64::max));
    Ok(Some(if r9.is_empty() {
        "Sweep incomplete".to_string()
    } else {
        format!("Mean DTW at r=9 spans only {lo}–{hi} m across t=0..1000 — flat in t")
    }))
}

fn fig5(name: &str, rows: &[Row], _: &mut ReportSection) -> Result<Option<String>> {
    let sli = rows.iter().find(|r| r.method == Method::Sli);
    Ok(most_accurate(rows).zip(sli).map(|(best, sli)| {
        format!(
            "{name}: best {} at {} m mean DTW (SLI {} m)",
            best.method.label(),
            fmt_m(mean(&best.errors)),
            fmt_m(mean(&sli.errors))
        )
    }))
}

fn fig6(g: &Grid, e: &Experiment) -> Built {
    let (d, gaps) = (e.datasets[0], e.gaps[0]);
    let cases = g.cases(d, gaps);
    // Spread the examples evenly across the case list: test trips come
    // out of the stratified split grouped by course bucket, so a plain
    // head-of-list prefix would illustrate only one travel direction.
    let n = cases.len().min(3);
    let rows = g.rows(d, &(e.methods)(), gaps);
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

fn fig7(name: &str, rows: &[Row], _: &mut ReportSection) -> Result<Option<String>> {
    let med_at = |h: i64| {
        let at = rows.iter().filter(|row| hours(row) == h);
        fmt_m(median(
            &at.map(|row| median(&row.errors)).collect::<Vec<_>>(),
        ))
    };
    let (one, four) = (med_at(1), med_at(4));
    Ok(Some(format!(
        "{name}: median DTW (across configs) {one} m at 1 h → {four} m at 4 h"
    )))
}

fn ablation_weights(name: &str, rows: &[Row], _: &mut ReportSection) -> Result<Option<String>> {
    Ok(most_accurate(rows).map(|row| {
        let (label, m) = (SCHEME.1.cell(row), mean(&row.errors));
        format!("{name}: best scheme {label} at {} m mean DTW", fmt_m(m))
    }))
}

fn ablation_medians(_: &Grid, _: &Experiment) -> Built {
    // Medians: exact quickselect vs the P² streaming estimator on a
    // heavy-tailed sample from a fixed xorshift stream. The timings are
    // measurements, kept in their own table.
    let mut table = MarkdownTable::new(vec!["n", "exact", "p2", "abs err"]);
    let mut timed = MarkdownTable::new(vec!["n", "exact us", "p2 us"]);
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
        ])?;
        timed.row(vec![n.to_string(), exact_us.to_string(), p2_us.to_string()])?;
    }

    // HLL precision sweep.
    let header = vec!["precision", "registers", "bytes", "estimate", "rel err %"];
    let mut hll_table = MarkdownTable::new(header);
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
    let mut medians = ReportSection::titled("Exact median vs P² streaming estimator", table);
    medians.measured = Some(Measured {
        notes: Vec::new(),
        table: timed,
    });
    let sections = vec![
        medians,
        ReportSection::titled(
            "HyperLogLog precision vs error (n = 50,000 distinct)",
            hll_table,
        ),
    ];
    Ok((repro, sections))
}

/// How many of a PaLMTO row's cases failed with `kind`; `None` for
/// another method.
fn failures(row: &Row, kind: &PalmtoError) -> Option<usize> {
    let kind = Some(kind.to_string());
    let failed = row
        .outcomes
        .iter()
        .filter(|o| o.path.as_ref().err() == kind.as_ref());
    matches!(row.method, Method::Palmto(_)).then(|| failed.count())
}

/// The PaLMTO failure kinds, in column order.
const KINDS: [PalmtoError; 3] = [
    PalmtoError::Timeout,
    PalmtoError::DeadEnd,
    PalmtoError::StepLimit,
];

/// A failure kind's cell: `-` for a method that has no such failure.
fn kind_cell(row: &Row, kind: usize) -> String {
    failures(row, &KINDS[kind]).map_or("-".into(), |n| n.to_string())
}

fn ablation_palmto(g: &Grid, e: &Experiment) -> Built {
    let columns = [
        Column::METHOD,
        Column("Model (MB)", Agg::ModelMb),
        Column("Imputed", Agg::Scored),
        key("Timeout", |row| kind_cell(row, 0)),
        key("DeadEnd", |row| kind_cell(row, 1)),
        key("StepLimit", |row| kind_cell(row, 2)),
        Column::MEAN_DTW,
        Column::MEDIAN_DTW,
    ];
    let (mut sections, mut clauses) = (Vec::new(), Vec::new());
    for &d in e.datasets {
        let (name, rows) = (&g.bench(d).name, g.rows(d, &(e.methods)(), e.gaps[0]));
        let [_, palmto] = &rows[..] else {
            return Err(ReportError::experiment(
                e.id,
                "the HABIT or the PaLMTO fit failed",
            ));
        };
        let table = table(&rows, &columns);
        let counts = KINDS.map(|k| failures(palmto, &k).expect("the PaLMTO row"));
        let (failed, timeout) = (counts.iter().sum::<usize>(), counts[0]);
        let cases = palmto.outcomes.len();
        let note = format!(
            "PaLMTO failed {failed}/{cases} queries ({timeout} by timeout) — the behaviour that \
             excluded it from the paper's reported results."
        );
        let mut section = ReportSection::titled(format!("{name} ({cases} gaps)"), table);
        section.notes.push(note);
        sections.push(section);
        clauses.push(format!("{name}: PaLMTO failed {failed}/{cases} queries"));
    }
    let repro = format!("{}; HABIT answered with no timeouts.", clauses.join("; "));
    Ok((repro, sections))
}

fn ablation_fleet(_: &str, rows: &[Row], section: &mut ReportSection) -> Result<Option<String>> {
    let [global, fleet] = rows else {
        let failed = "the global or the fleet fit failed";
        return Err(ReportError::experiment("ablation_fleet", failed));
    };
    let cases = global.outcomes.len();
    let class_served = fleet.outcomes.iter().filter(|o| o.by_type).count();
    section.notes.push(format!(
        "Dedicated class models: {:?}. {class_served}/{cases} gaps answered by a dedicated class \
         model.",
        fleet.fit.modeled_types
    ));
    Ok(Some(format!(
        "Fleet mean DTW {} m vs global {} m; {class_served}/{cases} gaps served by class models; \
         storage {} vs {} MB",
        fmt_m(mean(&fleet.errors)),
        fmt_m(mean(&global.errors)),
        fmt_mb(fleet.fit.storage_bytes),
        fmt_mb(global.fit.storage_bytes),
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(report.sections[0].table.as_ref().unwrap().rows().len(), 3);
        assert!(report.measurement.wall_clock_s > 0.0);
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
            assert_eq!(report.answers(), alone[0].answers());
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
