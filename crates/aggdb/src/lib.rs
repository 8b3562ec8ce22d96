//! # aggdb — an in-memory columnar aggregation engine
//!
//! The paper computes HABIT's cell statistics with DuckDB: a CTE assigns
//! each AIS message to an H3 cell, a window `lag` adds the previous cell
//! along the trip, and two `GROUP BY`s aggregate per-cell and
//! per-transition statistics with `count(*)`, `approx_count_distinct`
//! and `median`. This crate is a from-scratch substitute that implements
//! exactly that analytical core:
//!
//! * [`Table`] — schema + typed columns ([`Column`]) with null validity
//!   bitmaps ([`Bitmap`]);
//! * [`Table::group_by`] — hash aggregation with the DuckDB functions the
//!   paper uses: `count`, `approx_count_distinct` (a real
//!   [`hll::HyperLogLog`]), exact `median`, plus
//!   `min`/`max`/`sum`/`mean`/`first`/`last`;
//! * [`window::lag_over`] — the windowed `lag(...) OVER (PARTITION BY trip
//!   ORDER BY ts)` step;
//! * [`partial::PartialGroupBy`] — mergeable partial aggregates
//!   (count / distinct / median / …) so sharded group-bys can run in
//!   parallel and merge deterministically (`habit-engine`'s fit seam);
//! * [`csv`] — buffered CSV import/export with type inference.
//!
//! Hot paths follow the Rust perf-book guidance: integer-keyed hash maps
//! use a bundled [FxHash](fxhash::FxHashMap) implementation, accumulators
//! preallocate, and CSV I/O is buffered.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod agg;
pub mod bitmap;
pub mod column;
pub mod csv;
pub mod error;
pub mod fxhash;
pub mod hll;
pub mod partial;
pub mod quantile;
pub mod table;
pub mod value;
pub mod window;

#[cfg(test)]
mod proptests;

pub use agg::{Agg, AggSpec};
pub use bitmap::Bitmap;
pub use column::{Column, ColumnData};
pub use error::AggError;
pub use hll::HyperLogLog;
pub use partial::PartialGroupBy;
pub use table::{Field, Schema, Table};
pub use value::{DataType, Value};
