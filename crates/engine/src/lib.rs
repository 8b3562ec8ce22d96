//! # habit-engine — the parallel serving subsystem
//!
//! `habit-core` fits one model on one core and answers one gap at a
//! time. This crate is the scale-out layer the ROADMAP's north star asks
//! for, in three pieces:
//!
//! * [`pool::ThreadPool`] — a per-call bound on parallelism (the
//!   offline workspace has no `rayon`) whose order-preserving
//!   [`ThreadPool::map_chunks`] runs on `std::thread::scope`: no thread
//!   outlives the call that spawned it;
//! * [`shard::fit_sharded`] — the fit as explicit `accumulate → merge
//!   → finalize` stages over `habit_core::FitState`: the two group-bys
//!   partitioned by a hash of each row's destination cell and executed
//!   per shard on the pool, the shard states merged with
//!   `FitState::merge` in deterministic shard order. The resulting
//!   model — and its embedded, persistable fit state — serializes
//!   **byte-identically** to the sequential `HabitModel::fit` at every
//!   shard and thread count (property-tested);
//! * [`refit::refit_state`] / [`refit::refit_model`] — incremental
//!   refit: a delta of new trips accumulates through the same sharded
//!   pipeline and merges into a saved state, byte-identical to a
//!   from-scratch fit over `history ∪ delta` (property-tested);
//! * [`batch::BatchImputer`] — batched imputation: snap all queries,
//!   A*-search each *distinct* cell pair once, reuse routes across
//!   batches through a bounded LRU ([`lru::LruCache`]), and run the
//!   per-query tail on the pool. Per-query failures — a gap whose end
//!   is not after its start, an endpoint that cannot snap, no path —
//!   are data ([`batch::BatchFailure`]), not batch aborts.
//!
//! The `habit batch` CLI subcommand and the `habit serve` daemon are
//! thin clients of this crate.
//!
//! ```
//! use habit_engine::{BatchImputer, ThreadPool, fit_sharded};
//! use habit_core::{GapQuery, HabitConfig};
//! use ais::{trips_to_table, AisPoint, Trip};
//!
//! // A toy trip table: one vessel sailing east, one report a minute.
//! let points = (0..200)
//!     .map(|i| AisPoint::new(9, i * 60, 10.0 + i as f64 * 0.002, 56.0, 12.0, 90.0))
//!     .collect();
//! let table = trips_to_table(&[Trip { trip_id: 1, mmsi: 9, points }]);
//!
//! let pool = ThreadPool::new(4);
//! let model = std::sync::Arc::new(fit_sharded(&table, HabitConfig::default(), 4, &pool).unwrap());
//! let imputer = BatchImputer::new(model, 1024);
//! let queries = vec![GapQuery::new(10.05, 56.0, 0, 10.3, 56.0, 3600); 16];
//! let (results, stats) = imputer.impute_batch(&queries, &pool);
//! assert_eq!(stats.ok, 16);
//! assert_eq!(stats.unique_routes, 1, "identical queries share one search");
//! assert!(results.iter().all(Result::is_ok));
//! ```
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod batch;
pub mod lru;
pub mod pool;
pub mod refit;
pub mod shard;

#[cfg(test)]
mod proptests;

pub use batch::{BatchFailure, BatchImputer, BatchStats};
pub use lru::LruCache;
pub use pool::ThreadPool;
pub use refit::{refit_model, refit_model_traced, refit_state, refit_state_traced, RefitOutcome};
pub use shard::{accumulate_sharded, accumulate_sharded_traced, fit_sharded, fit_sharded_traced};
