//! # aggdb — the columnar substrate under HABIT's graph generation
//!
//! The paper computes HABIT's cell statistics with DuckDB: a CTE assigns
//! each AIS message to an H3 cell, a window `lag` adds the previous cell
//! along the trip, and two `GROUP BY`s aggregate per-cell and
//! per-transition statistics with `count(*)`, `approx_count_distinct`
//! and `median`. This crate is the from-scratch substitute for the parts
//! of that CTE that are not the two group-bys themselves (those are
//! typed accumulators in `habit-core`'s fit state):
//!
//! * [`Table`] — schema + typed columns ([`Column`]) with null validity
//!   bitmaps ([`Bitmap`]);
//! * [`window::lag_over`] — the windowed `lag(...) OVER (PARTITION BY trip
//!   ORDER BY ts)` step;
//! * [`hll::HyperLogLog`] — the sketch behind `approx_count_distinct`,
//!   with its serialized record;
//! * [`quantile`] — the exact `median`, also over an already sorted
//!   buffer;
//! * [`csv`] — buffered CSV import/export with type inference.
//!
//! Hot paths follow the Rust perf-book guidance: integer-keyed hash maps
//! use a bundled [FxHash](fxhash::FxHashMap) implementation, and CSV I/O
//! is buffered.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod bitmap;
pub mod column;
pub mod csv;
pub mod error;
pub mod fxhash;
pub mod hll;
pub mod quantile;
pub mod table;
pub mod value;
pub mod window;

#[cfg(test)]
mod proptests;

pub use bitmap::Bitmap;
pub use column::{Column, ColumnData};
pub use error::AggError;
pub use hll::HyperLogLog;
pub use table::{Field, Schema, Table};
pub use value::{DataType, Value};
