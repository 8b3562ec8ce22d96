//! The experiment grid — the paper's §4 as datasets × methods × gap
//! cases, evaluated once.
//!
//! An experiment declares the [`Cell`]s it reads. [`Grid::evaluate`]
//! fits each (dataset, method) pair once, imputes, times and scores on
//! the calling thread every gap case that any planned cell asks of the
//! pair, and drops the model before the next fit. The grid keeps the
//! [`Outcome`]s, never the models, so every report is a pure function of
//! it. Every random stream (dataset, split, gap placement) is seeded per
//! call, so the order of evaluation cannot move an answer.
//!
//! Every per-method table is rendered by [`table`]: a row per fitted
//! [`Row`], one cell per [`Column`], each a label or an [`Agg`]regate of
//! the row with its one formatter.

use crate::dtw::resampled_dtw_m;
use crate::gaps::{inject_gaps, GapCase};
use crate::methods::{Imputer, Method, MethodOutput};
use crate::report::{fmt_m, fmt_mb, fmt_s, mean, median, percentile, MarkdownTable};
use crate::split::split_trips;
use ais::{Trip, VesselType};
use geo_kernel::GeoPoint;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use synth::{Dataset, DatasetSpec};

/// One of the paper's three datasets, as a seeded synthetic analogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetId {
    /// Passenger vessels between ten Danish ports.
    Dan,
    /// Two ferries on the Kiel ↔ Gothenburg itinerary.
    Kiel,
    /// All vessel types in the Saronic gulf.
    Sar,
}

impl DatasetId {
    /// Parses `dan`, `kiel` or `sar`, in any case.
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "dan" => Some(DatasetId::Dan),
            "kiel" => Some(DatasetId::Kiel),
            "sar" => Some(DatasetId::Sar),
            _ => None,
        }
    }

    /// Generates the dataset at `scale` (1.0 = full size).
    pub fn generate(self, seed: u64, scale: f64) -> Dataset {
        let spec = DatasetSpec { seed, scale };
        match self {
            DatasetId::Dan => synth::datasets::dan(spec),
            DatasetId::Kiel => synth::datasets::kiel(spec),
            DatasetId::Sar => synth::datasets::sar(spec),
        }
    }
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
}

/// A set of gap cases: one gap of `duration_s` in every eligible test
/// trip, placed by the stream seeded with the grid's seed plus
/// `seed_offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gaps {
    /// Gap duration, seconds.
    pub duration_s: i64,
    /// Added to the grid's seed to seed the placement.
    pub seed_offset: u64,
}

impl Gaps {
    /// The paper's default: one 60-minute gap per test trip.
    pub const HOUR: Gaps = Gaps {
        duration_s: 3600,
        seed_offset: 0,
    };
}

/// One thing an experiment reads from the grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// The dataset.
    pub dataset: DatasetId,
    /// The method fitted on its training split; `None` reads only the
    /// dataset or its gap cases.
    pub method: Option<Method>,
    /// The gap cases imputed; `None` reads only the fit.
    pub gaps: Option<Gaps>,
}

/// The cells of `methods` on one dataset and gap set.
pub fn cells(dataset: DatasetId, methods: &[Method], gaps: Option<Gaps>) -> Vec<Cell> {
    methods
        .iter()
        .map(|m| Cell {
            dataset,
            method: Some(*m),
            gaps,
        })
        .collect()
}

/// What a fitted method leaves behind once its model is dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct Fit {
    /// Serialized model footprint, bytes.
    pub storage_bytes: usize,
    /// Vessel types with a dedicated model ([`Method::ByType`] only).
    pub modeled_types: Vec<VesselType>,
}

/// What one method did on one gap case.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// The imputed positions, or why the method failed.
    pub path: Result<Vec<GeoPoint>, String>,
    /// DTW to the ground truth, meters, when the path could be scored.
    pub dtw_m: Option<f64>,
    /// Wall-clock time of the imputation call, seconds.
    pub latency_s: f64,
    /// A vessel type's dedicated model answered ([`Method::ByType`]).
    pub by_type: bool,
}

/// One fitted method's outcomes on one gap set: a row of the grid.
pub struct Row<'g> {
    /// The method.
    pub method: Method,
    /// The gap set.
    pub gaps: Gaps,
    /// Its fit.
    pub fit: &'g Fit,
    /// One outcome per gap case, in case order.
    pub outcomes: &'g [Outcome],
    /// The DTW errors of the scored outcomes, in case order.
    pub errors: Vec<f64>,
}

impl Row<'_> {
    /// Average and maximum imputation latency, seconds.
    pub fn latency(&self) -> (f64, f64) {
        let times = self.outcomes.iter().map(|o| o.latency_s);
        let avg = times.clone().sum::<f64>() / self.outcomes.len().max(1) as f64;
        (avg, times.fold(0.0, f64::max))
    }

    /// The imputed paths, in case order.
    pub fn paths(&self) -> impl Iterator<Item = &Vec<GeoPoint>> {
        self.outcomes.iter().filter_map(|o| o.path.as_ref().ok())
    }
}

/// One fitted (dataset, method) pair and its outcomes per gap set.
struct Entry {
    dataset: DatasetId,
    method: Method,
    fit: Result<Fit, String>,
    outcomes: Vec<(Gaps, Vec<Outcome>)>,
}

/// Every outcome the planned experiments read, evaluated once.
pub struct Grid {
    /// Seed of the datasets, splits and gap placements.
    pub seed: u64,
    /// Dataset scale factor (1.0 = full size).
    pub scale: f64,
    plan: Vec<Cell>,
    benches: Vec<(DatasetId, Bench)>,
    cases: Vec<(DatasetId, Gaps, Vec<GapCase>)>,
    entries: Vec<Entry>,
}

impl Grid {
    /// An empty grid that will evaluate the union of `plan`'s cells.
    pub fn new(seed: u64, scale: f64, plan: Vec<Cell>) -> Self {
        Self {
            seed,
            scale,
            plan,
            benches: Vec::new(),
            cases: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// Plans and evaluates `cells` in one go.
    pub fn run(seed: u64, scale: f64, cells: Vec<Cell>) -> Self {
        let mut grid = Self::new(seed, scale, cells.clone());
        grid.evaluate(&cells);
        grid
    }

    /// Evaluates what `cells` read and the grid does not hold yet. A
    /// (dataset, method) pair is fitted once, and imputes every gap set
    /// the plan or `cells` ask of it before its model is dropped.
    pub fn evaluate(&mut self, cells: &[Cell]) {
        for cell in cells {
            let d = cell.dataset;
            if !self.benches.iter().any(|(id, _)| *id == d) {
                let bench = Bench::prepare(d.generate(self.seed, self.scale), self.seed);
                self.benches.push((d, bench));
            }
            let mut gap_sets: Vec<Gaps> = Vec::new();
            for c in self.plan.iter().chain(cells) {
                let Some(gaps) = c.gaps else { continue };
                if c.dataset == d && c.method == cell.method && !gap_sets.contains(&gaps) {
                    gap_sets.push(gaps);
                }
            }
            for gaps in &gap_sets {
                if !self.cases.iter().any(|(id, g, _)| *id == d && g == gaps) {
                    // One gap of the set's duration in every eligible test trip.
                    let mut rng = StdRng::seed_from_u64((self.seed + gaps.seed_offset) ^ 0x6A70);
                    let cases = inject_gaps(&self.bench(d).test, gaps.duration_s, &mut rng);
                    self.cases.push((d, *gaps, cases));
                }
            }
            let Some(method) = cell.method.filter(|m| self.entry(d, m).is_none()) else {
                continue;
            };
            let bench = self.bench(d);
            let fitted = Imputer::fit(&method, &bench.train, &bench.dataset.vessels);
            let (fit, outcomes) = match fitted {
                Ok(imputer) => {
                    let impute = |g: &Gaps| {
                        let cases = self.cases(d, *g).iter();
                        (*g, cases.map(|c| outcome(&imputer, c)).collect())
                    };
                    let fit = Fit {
                        storage_bytes: imputer.storage_bytes(),
                        modeled_types: imputer.modeled_types(),
                    };
                    (Ok(fit), gap_sets.iter().map(impute).collect())
                }
                Err(e) => (Err(e), Vec::new()),
            };
            let entry = Entry {
                dataset: d,
                method,
                fit,
                outcomes,
            };
            self.entries.push(entry);
        }
    }

    fn entry(&self, d: DatasetId, method: &Method) -> Option<&Entry> {
        self.entries
            .iter()
            .find(|e| e.dataset == d && e.method == *method)
    }

    /// How many (dataset, method) pairs have been fitted.
    pub fn fits(&self) -> usize {
        self.entries.len()
    }

    /// The prepared dataset. Panics when no evaluated cell reads it.
    pub fn bench(&self, d: DatasetId) -> &Bench {
        let found = self.benches.iter().find(|(id, _)| *id == d);
        &found.expect("dataset not evaluated").1
    }

    /// The gap cases of a gap set. Panics when no evaluated cell reads
    /// them.
    pub fn cases(&self, d: DatasetId, gaps: Gaps) -> &[GapCase] {
        let found = self.cases.iter().find(|(id, g, _)| *id == d && *g == gaps);
        &found.expect("gap cases not evaluated").2
    }

    /// The fit of `method` on `d`, or why it failed. Panics when no
    /// evaluated cell reads it.
    pub fn fit(&self, d: DatasetId, method: &Method) -> Result<&Fit, &str> {
        let entry = self.entry(d, method).expect("method not evaluated");
        entry.fit.as_ref().map_err(String::as_str)
    }

    /// The row of `method` on a gap set; `None` when its fit failed.
    /// Panics when no evaluated cell reads it.
    pub fn row(&self, d: DatasetId, method: &Method, gaps: Gaps) -> Option<Row<'_>> {
        let entry = self.entry(d, method).expect("method not evaluated");
        let fit = entry.fit.as_ref().ok()?;
        let outcomes = &entry.outcomes.iter().find(|(g, _)| *g == gaps)?.1;
        Some(Row {
            method: *method,
            gaps,
            fit,
            outcomes,
            errors: outcomes.iter().filter_map(|o| o.dtw_m).collect(),
        })
    }

    /// The rows of the `methods` that fitted, in order.
    pub fn rows(&self, d: DatasetId, methods: &[Method], gaps: Gaps) -> Vec<Row<'_>> {
        methods
            .iter()
            .filter_map(|m| self.row(d, m, gaps))
            .collect()
    }
}

/// A statistic of a sample of DTW errors, meters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stat {
    /// The mean.
    Mean,
    /// The median.
    Median,
    /// The 25th percentile (nearest rank).
    P25,
    /// The 75th percentile (nearest rank).
    P75,
    /// The maximum.
    Max,
}

impl Stat {
    /// The statistic of `errors` (0 for an empty sample).
    pub fn of(self, errors: &[f64]) -> f64 {
        match self {
            Stat::Mean => mean(errors),
            Stat::Median => median(errors),
            Stat::P25 => percentile(errors, 25.0),
            Stat::P75 => percentile(errors, 75.0),
            Stat::Max => errors.iter().copied().fold(0.0, f64::max),
        }
    }

    /// The statistic of `errors` as a table cell.
    pub fn cell(self, errors: &[f64]) -> String {
        fmt_m(self.of(errors))
    }
}

/// What one column of a [`Row`]'s table shows: one of a closed set of
/// aggregates, or a label the experiment derives from the row.
#[derive(Clone, Copy)]
pub enum Agg {
    /// A row key (the method, a swept parameter), or a cell no aggregate
    /// covers.
    Label(fn(&Row) -> String),
    /// A statistic of the DTW errors.
    Dtw(Stat),
    /// Cases with a DTW score.
    Scored,
    /// `scored/total` cases.
    ScoredOfTotal,
    /// Cases with no DTW score.
    Failures,
    /// Gap cases.
    Gaps,
    /// Serialized model size, MB.
    ModelMb,
    /// Average imputation latency, seconds (a measurement).
    AvgLatency,
    /// Maximum imputation latency, seconds (a measurement).
    MaxLatency,
}

impl Agg {
    /// `true` for the host-dependent timings, which a report keeps apart
    /// from its answers.
    pub fn is_measurement(self) -> bool {
        matches!(self, Agg::AvgLatency | Agg::MaxLatency)
    }

    /// The aggregate of `row` as a table cell.
    pub fn cell(self, row: &Row) -> String {
        let (scored, total) = (row.errors.len(), row.outcomes.len());
        match self {
            Agg::Label(label) => label(row),
            Agg::Dtw(stat) => stat.cell(&row.errors),
            Agg::Scored => scored.to_string(),
            Agg::ScoredOfTotal => format!("{scored}/{total}"),
            Agg::Failures => (total - scored).to_string(),
            Agg::Gaps => total.to_string(),
            Agg::ModelMb => fmt_mb(row.fit.storage_bytes),
            Agg::AvgLatency => fmt_s(row.latency().0),
            Agg::MaxLatency => fmt_s(row.latency().1),
        }
    }
}

/// A table column: its header and what its cells show.
#[derive(Clone, Copy)]
pub struct Column(pub &'static str, pub Agg);

impl Column {
    /// The method's label.
    pub const METHOD: Column = Column("Method", Agg::Label(|row| row.method.label()));
    /// Mean DTW.
    pub const MEAN_DTW: Column = Column("Mean DTW (m)", Agg::Dtw(Stat::Mean));
    /// Median DTW.
    pub const MEDIAN_DTW: Column = Column("Median DTW (m)", Agg::Dtw(Stat::Median));
    /// Average latency.
    pub const AVG_LAT: Column = Column("Avg lat (s)", Agg::AvgLatency);
    /// Maximum latency.
    pub const MAX_LAT: Column = Column("Max lat (s)", Agg::MaxLatency);
    /// The method comparison of `habit eval` and the `compare_methods`
    /// example: accuracy, failures, model size and latency.
    pub const COMPARISON: [Column; 7] = [
        Column::METHOD,
        Column::MEAN_DTW,
        Column::MEDIAN_DTW,
        Column("Failures", Agg::Failures),
        Column("Model (MB)", Agg::ModelMb),
        Column::AVG_LAT,
        Column::MAX_LAT,
    ];
}

/// The table of `rows`: one cell per column.
pub fn table(rows: &[Row], columns: &[Column]) -> MarkdownTable {
    let header = columns.iter().map(|c| c.0);
    let cells = rows
        .iter()
        .map(|row| columns.iter().map(|c| c.1.cell(row)).collect());
    MarkdownTable::from_parts("", header, cells).expect("a cell per column")
}

/// Imputes one case, timing only the imputation call.
fn outcome(imputer: &Imputer, case: &GapCase) -> Outcome {
    let t0 = Instant::now();
    let output = imputer.impute(case);
    let latency_s = t0.elapsed().as_secs_f64();
    let by_type = matches!(output, MethodOutput::TypePath(_));
    let path: Result<Vec<GeoPoint>, String> = match output {
        MethodOutput::Path(p) | MethodOutput::TypePath(p) => Ok(p.iter().map(|p| p.pos).collect()),
        MethodOutput::Failed(e) => Err(e),
    };
    let truth: Vec<GeoPoint> = case.truth.iter().map(|p| p.pos).collect();
    Outcome {
        dtw_m: path.as_ref().ok().and_then(|p| resampled_dtw_m(p, &truth)),
        path,
        latency_s,
        by_type,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ais::AisPoint;
    use habit_core::{CellProjection, HabitConfig};

    /// A grid whose KIEL is a miniature straight lane (fast unit
    /// testing; the real datasets are exercised by `all_experiments` and
    /// the integration tests).
    fn mini_grid(cells: Vec<Cell>) -> Grid {
        let trips: Vec<Trip> = (0..10u64)
            .map(|k| Trip {
                trip_id: k + 1,
                mmsi: 100 + k,
                points: (0..120)
                    .map(|i| {
                        let lon = 10.0 + i as f64 * 0.004;
                        AisPoint::new(100 + k, i as i64 * 60, lon, 56.0, 12.0, 90.0)
                    })
                    .collect(),
            })
            .collect();
        let (train, test) = split_trips(&trips, 0.7, &mut StdRng::seed_from_u64(3));
        let bench = Bench {
            name: "MINI".into(),
            dataset: DatasetId::Kiel.generate(1, 0.05),
            train,
            test,
        };
        let mut grid = Grid::new(1, 0.05, cells.clone());
        grid.benches.push((DatasetId::Kiel, bench));
        grid.evaluate(&cells);
        grid
    }

    fn sweep(methods: &[Method]) -> Grid {
        mini_grid(cells(DatasetId::Kiel, methods, Some(Gaps::HOUR)))
    }

    fn row<'g>(grid: &'g Grid, m: &Method) -> Row<'g> {
        grid.row(DatasetId::Kiel, m, Gaps::HOUR).expect("fit")
    }

    #[test]
    fn accuracy_and_latency_smoke() {
        let habit = Method::Habit(HabitConfig::default());
        let grid = sweep(&[habit]);
        let cases = grid.cases(DatasetId::Kiel, Gaps::HOUR);
        assert!(!cases.is_empty());
        let row = row(&grid, &habit);
        assert_eq!(row.errors.len(), cases.len(), "straight lane: all succeed");
        // On a shared straight lane the imputation error is small.
        assert!(mean(&row.errors) < 500.0, "mean {:?}", mean(&row.errors));
        let (avg, max) = row.latency();
        assert!(avg > 0.0 && max >= avg);
        assert_eq!(row.paths().count(), cases.len());
    }

    #[test]
    fn table_renders_keys_then_columns() {
        let methods = [Method::Habit(HabitConfig::default()), Method::Sli];
        let grid = sweep(&methods);
        let rows = grid.rows(DatasetId::Kiel, &methods, Gaps::HOUR);
        let t = table(&rows, &Column::COMPARISON);
        assert_eq!(
            t.header()[..3],
            ["Method", "Mean DTW (m)", "Median DTW (m)"]
        );
        assert_eq!(t.rows()[1][0], "SLI");
        // Straight lane: every case is scored, so nothing failed.
        assert_eq!(t.rows()[0][3], "0");
        let errors = &rows[0].errors;
        assert_eq!(t.rows()[0][1], fmt_m(mean(errors)));
        let timed = Column::COMPARISON.iter().filter(|c| c.1.is_measurement());
        assert_eq!(timed.count(), 2, "only the latencies are measurements");
    }

    #[test]
    fn fig3_rows_cover_grid() {
        let mut methods = Vec::new();
        for resolution in 6..=10 {
            for projection in [CellProjection::Center, CellProjection::Median] {
                methods.push(Method::Habit(HabitConfig {
                    resolution,
                    projection,
                    ..HabitConfig::default()
                }));
            }
        }
        let grid = sweep(&methods);
        assert_eq!(grid.fits(), 10, "5 resolutions x 2 projections");
        for m in &methods {
            assert!(!row(&grid, m).outcomes.is_empty());
            assert!(mean(&row(&grid, m).errors) >= 0.0);
        }
    }

    #[test]
    fn table3_and_fig4_shapes() {
        let tolerances = [0.0, 100.0, 250.0, 500.0, 1000.0];
        let methods: Vec<Method> = [9, 10]
            .iter()
            .flat_map(|r| tolerances.map(|t| Method::habit(*r, t)))
            .collect();
        // Table 3 and Figure 4 read the same cells: one fit each.
        let mut plan = cells(DatasetId::Kiel, &methods, Some(Gaps::HOUR));
        plan.extend(plan.clone());
        let grid = mini_grid(plan);
        assert_eq!(grid.fits(), 10, "2 resolutions x 5 tolerances");
        let points = |t: f64| {
            row(&grid, &Method::habit(9, t))
                .paths()
                .map(Vec::len)
                .sum::<usize>()
        };
        // Simplification monotonicity: t=1000 keeps fewer points than t=0.
        assert!(points(1000.0) <= points(0.0));
        let truth = &grid.cases(DatasetId::Kiel, Gaps::HOUR)[0].truth;
        assert!(truth.len() > 2);
    }

    #[test]
    fn fig5_includes_all_methods() {
        let mut methods: Vec<Method> = [(9, 100.0), (9, 250.0), (10, 100.0), (10, 250.0)]
            .map(|(r, t)| Method::habit(r, t))
            .to_vec();
        methods.extend([1e-4, 5e-4, 1e-3].map(Method::gti));
        methods.push(Method::Sli);
        let grid = sweep(&methods);
        // 4 HABIT + 3 GTI + SLI, every one fitted.
        assert_eq!(grid.fits(), 8);
        // On a single confined lane every DTW is finite.
        for m in &methods {
            assert!(mean(&row(&grid, m).errors).is_finite(), "{}", m.label());
        }
    }

    #[test]
    fn fig6_produces_polylines() {
        let methods = [Method::habit(9, 100.0), Method::gti(5e-4), Method::Sli];
        let grid = sweep(&methods);
        for (k, case) in grid.cases(DatasetId::Kiel, Gaps::HOUR).iter().enumerate() {
            assert!(case.truth.len() >= 2);
            assert!(methods
                .iter()
                .any(|m| row(&grid, m).outcomes[k].path.is_ok()));
        }
    }
}
