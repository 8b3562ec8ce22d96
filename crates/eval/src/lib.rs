//! # eval — the paper's experimental harness
//!
//! Everything needed to regenerate the evaluation section (§4) of
//! *Data-Driven Trajectory Imputation for Vessel Mobility Analysis* and
//! keep the recorded baselines honest:
//!
//! * [`dtw`] — Dynamic Time Warping accuracy metric with the paper's
//!   ≤ 250 m resampling;
//! * [`rot`] — rate-of-turn / navigability statistics (Table 3);
//! * [`gaps`] — synthetic gap injection of fixed durations (60/120/240
//!   minutes) placed randomly within test trips;
//! * [`split`] — the 70 % / 30 % train/test trip split, stratified by
//!   course so miniature smoke datasets keep both travel directions;
//! * [`methods`] — the [`methods::Method`] configurations and the
//!   uniform [`methods::Imputer`] facade over HABIT, GTI, SLI, PaLMTO
//!   and per-vessel-type HABIT;
//! * [`experiments`] — the one experiment runner: experiments declare
//!   the (dataset, method, gap set) [`experiments::Cell`]s they read,
//!   and an [`experiments::Grid`] fits each (dataset, method) once and
//!   keeps every case's [`experiments::Outcome`]; every per-method table
//!   is rendered by [`experiments::table`] from [`experiments::Column`]s:
//!   row labels and a closed set of [`experiments::Agg`]regates;
//! * [`report`] — the [`report::ExperimentReport`] model every
//!   experiment returns: paper reference, parameters, answer tables,
//!   and the measurements (timings, the run's wall clock and peak RSS)
//!   kept apart from them, with markdown *and* JSON serializers
//!   (`EXPERIMENTS.md` and `reports/*.json` are both generated from it);
//! * [`json`] — `habit-json`, the workspace's one dependency-free JSON
//!   reader/writer, re-exported; report persistence goes through it
//!   (the workspace builds offline; there is no serde).
//!
//! ## Report lifecycle
//!
//! ```text
//! Grid::evaluate(&cells)             outcomes per (dataset, method, case)
//!        │ habit-bench report builder (a pure function of the grid)
//!        ▼
//! report::ExperimentReport           id, paper_ref, params, answer
//!        │                           tables; timings kept apart
//!        ├── to_json()      →  reports/fig3.json      (CI baseline)
//!        └── to_markdown()  →  one EXPERIMENTS.md section
//! ```
//!
//! `reports/*.json` is the source of truth: `EXPERIMENTS.md` is
//! regenerated from it byte-identically (`all_experiments
//! --render-only`), which is what CI diffs to detect drift.
//!
//! `habit-bench`'s `all_experiments` binary runs the experiments, e.g.
//! `cargo run -p habit-bench --release --bin all_experiments -- fig5`;
//! `habit eval` reads the same grid.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod dtw;
pub mod experiments;
pub mod gaps;
pub mod methods;
pub mod report;
pub mod rot;
pub mod split;

/// The workspace JSON codec, kept at this path for `benchmark/`.
pub use habit_json as json;

pub use dtw::{dtw_mean_m, resampled_dtw_m, DTW_RESAMPLE_M};
pub use experiments::{DatasetId, Grid};
pub use gaps::{inject_gap, GapCase};
pub use methods::{Imputer, Method, MethodOutput};
pub use report::{
    ExperimentReport, MarkdownTable, Measured, Measurement, Provenance, ReportError, ReportSection,
};
pub use rot::{rot_stats, RotStats};
pub use split::split_trips;
