//! The write-side workload: rounds of `habit fit --save-state` on the
//! history and `habit refit` of the delta, as child processes, with the
//! byte checks that keep the two paths honest.

use crate::daemon::{run_child, ChildRun};
use crate::data::{self, Sequence, Workload, DTW_SLOTS};
use crate::serve::SETUP_REPEATS;
use crate::spec::Outcome;
use crate::stats::median;
use crate::Ctx;
use ais::{segment_all, trips_to_table, Trajectory, TripConfig};
use habit_core::{HabitConfig, HabitModel};
use habit_service::csvio::{read_ais_csv, write_ais_csv};
use std::time::Instant;

/// Rounds of a full-size run, however short `--seconds` is: medians of
/// fewer child runs move with every hiccup of the host.
const MIN_ROUNDS: usize = 3;
/// Times the input files are written; they take a tenth of a second,
/// so `setup_s` needs more repeats than the serve set-up to sit still.
const WRITE_REPEATS: usize = 3 * SETUP_REPEATS;

/// The three input files of the workload.
pub struct Inputs {
    /// `history.csv`: the vessels the seed left out of the delta.
    pub history: String,
    /// `delta.csv`: a tenth of the vessels, the highest MMSIs.
    pub delta: String,
    /// `union.csv`: both, for the from-scratch fit the refit must equal.
    pub union: String,
    /// Rows of `history.csv`.
    pub history_reports: usize,
    /// Rows of `delta.csv`.
    pub delta_reports: usize,
    /// Median wall time of writing the three files, seconds.
    pub setup_s: f64,
}

/// Writes the input files `WRITE_REPEATS` times through the product's
/// CSV writer; this is the workload's whole set-up.
pub fn materialise(ctx: &Ctx, train: &[Trajectory]) -> Result<Inputs, String> {
    let (history, delta) = data::history_and_delta(train, ctx.seed);
    let union: Vec<Trajectory> = history.iter().chain(&delta).cloned().collect();
    let files = [
        (ctx.file("history.csv"), &history),
        (ctx.file("delta.csv"), &delta),
        (ctx.file("union.csv"), &union),
    ];
    let mut walls = Vec::new();
    for _ in 0..WRITE_REPEATS {
        let started = Instant::now();
        for (path, rows) in &files {
            write_ais_csv(rows, path.as_ref()).map_err(|e| format!("{path}: {e}"))?;
        }
        walls.push(started.elapsed().as_secs_f64());
    }
    let [h, d, u] = files.map(|f| f.0);
    Ok(Inputs {
        history: h,
        delta: d,
        union: u,
        history_reports: data::report_count(&history),
        delta_reports: data::report_count(&delta),
        setup_s: median(&walls),
    })
}

fn read(path: &str) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("{path}: {e}"))
}

/// One untraced run.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let world = data::world(ctx.sizes);
    let inputs = materialise(ctx, &world.train)?;
    let (fitted, work) = (ctx.file("history.habit"), ctx.file("work.habit"));

    // Measured rounds. Another round starts only while at least half of
    // it still fits the run length, so the round count does not flap.
    let mut fits: Vec<ChildRun> = Vec::new();
    let mut refits: Vec<ChildRun> = Vec::new();
    let min_rounds = if ctx.sizes.quick { 1 } else { MIN_ROUNDS };
    let started = Instant::now();
    loop {
        let round = Instant::now();
        fits.push(run_child(
            &ctx.binary,
            &[
                "fit",
                "--input",
                &inputs.history,
                "--out",
                &fitted,
                "--save-state",
            ],
        )?);
        std::fs::copy(&fitted, &work).map_err(|e| format!("{work}: {e}"))?;
        refits.push(run_child(
            &ctx.binary,
            &["refit", "--model", &work, "--input", &inputs.delta],
        )?);
        out.attempted += 2;
        let next_ends = started.elapsed().as_secs_f64() + 0.5 * round.elapsed().as_secs_f64();
        if fits.len() >= min_rounds && next_ends > ctx.seconds {
            break;
        }
    }

    // refit(history, delta) must equal fit(history ∪ delta), byte for byte.
    let lean = ctx.file("lean.habit");
    let union_blob = ctx.file("union.habit");
    let union_fit = run_child(
        &ctx.binary,
        &[
            "fit",
            "--input",
            &inputs.union,
            "--out",
            &union_blob,
            "--save-state",
        ],
    )?;
    let refitted = read(&work)?;
    out.check(refitted == read(&union_blob)?, || {
        "the refitted blob differs from fit --save-state over history+delta".to_string()
    });
    // The CLI's lean blob must equal an in-process fit over the same CSV.
    let lean_fit = run_child(
        &ctx.binary,
        &["fit", "--input", &inputs.union, "--out", &lean],
    )?;
    let lean_bytes = read(&lean)?;
    let trajectories = read_ais_csv(inputs.union.as_ref()).map_err(|e| e.to_string())?;
    let table = trips_to_table(&segment_all(&trajectories, &TripConfig::default()));
    let reference = HabitModel::fit(&table, HabitConfig::default()).map_err(|e| e.to_string())?;
    out.check(reference.to_bytes() == lean_bytes, || {
        "the CLI-fitted blob differs from an in-process HabitModel::fit".to_string()
    });
    out.attempted += 2;

    // Quality of what was written: the refitted blob answers the seed's
    // cold scan in-process (there is no daemon in this workload).
    let model = HabitModel::from_bytes(&refitted).map_err(|e| e.to_string())?;
    let slots = DTW_SLOTS.min(ctx.sizes.cold_pool);
    let pools = data::build_pools(&world.test, &model, ctx.seed, 0, slots)?;
    let seq = Sequence::new(&pools, Workload::FitRefit, ctx.seed);

    let walls = |runs: &[ChildRun]| runs.iter().map(|r| r.wall_s).collect::<Vec<f64>>();
    let (fit_walls, refit_walls) = (walls(&fits), walls(&refits));
    let busy_s: f64 = fit_walls.iter().chain(&refit_walls).sum();
    let peak = fits
        .iter()
        .chain(&refits)
        .chain([&union_fit, &lean_fit])
        .map(|r| r.peak_rss_mb)
        .fold(0.0, f64::max);
    out.set("setup_s", inputs.setup_s);
    out.set("throughput_rps", fits.len() as f64 / busy_s);
    out.set("latency_p50_ms", median(&refit_walls) * 1e3);
    out.set(
        "fit_reports_per_s",
        inputs.history_reports as f64 / median(&fit_walls),
    );
    out.set("peak_rss_mb", peak);
    out.set("model_bytes", lean_bytes.len() as f64);
    out.set("dtw_mean_m", seq.dtw_mean_m(slots));
    out.note(
        "refit_slowest_ms",
        refit_walls.iter().copied().fold(0.0, f64::max) * 1e3,
        "ms",
    );
    out.note("rounds", fits.len() as f64, "count");
    out.note("history_reports", inputs.history_reports as f64, "count");
    out.note("delta_reports", inputs.delta_reports as f64, "count");
    out.note(
        "refit_reports_per_s",
        inputs.delta_reports as f64 / median(&refit_walls),
        "1/s",
    );
    Ok(out)
}
