//! # aggdb — the paper's DuckDB aggregates
//!
//! The paper computes HABIT's cell statistics with one DuckDB CTE: a
//! window `lag` adds each AIS message's previous H3 cell along its trip,
//! and two `GROUP BY`s aggregate per-cell and per-transition statistics
//! with `count(*)`, `approx_count_distinct` and `median`. The trip table
//! and the lag are typed code in `ais` and `habit-core`; this crate holds
//! the aggregate functions themselves:
//!
//! * [`hll::HyperLogLog`] — the sketch behind `approx_count_distinct`,
//!   with its serialized record;
//! * [`quantile`] — the exact `median`, also over an already sorted
//!   buffer;
//! * [`fxhash`] — the hash the sketches are fed with, bundled as the
//!   [FxHash](fxhash::FxHashMap) maps every integer-keyed hash map in
//!   the workspace uses (Rust perf-book guidance).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod fxhash;
pub mod hll;
pub mod quantile;

#[cfg(test)]
mod proptests;

pub use hll::HyperLogLog;
