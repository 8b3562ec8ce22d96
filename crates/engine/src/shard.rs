//! Sharded model fitting: `accumulate → merge → finalize`, shard by
//! shard.
//!
//! The fit pipeline is three explicit stages over
//! [`habit_core::FitState`]:
//!
//! 1. **accumulate** ([`accumulate_sharded`]) — the global stages run
//!    once (cell assignment, drift filter, window lag — they need
//!    whole-trip context and are cheap); every row is assigned to a
//!    shard by a hash of its cell `cl`, so both group-by keys — `cl`
//!    and `(lag_cl, cl)`, keyed by the destination cell — never
//!    straddle shards, and each shard runs the
//!    same core accumulate as [`HabitModel::fit`]
//!    ([`FitState::accumulate_lagged`]) on a pool worker;
//! 2. **merge** — shard states combine with [`FitState::merge`] **in
//!    ascending shard order** (not completion order);
//! 3. **finalize** ([`fit_sharded`], via
//!    [`HabitModel::from_fit_state`]) — the state finishes straight into
//!    cell and edge statistics and assembles the transition graph.
//!
//! Because a fit state keeps its groups and median buffers sorted and
//! its merge is bit-exact, both the fitted model **and its embedded fit
//! state** serialize to byte-identical blobs for any shard count and
//! any thread count — equal to the sequential [`HabitModel::fit`] —
//! which the engine's property tests assert. The same seam powers
//! [`crate::refit`]: a delta table accumulates exactly like a shard and
//! merges into a saved state.

use crate::pool::ThreadPool;
use aggdb::fxhash::hash_u64;
use ais::TripTable;
use habit_core::fitstate::FitProvenance;
use habit_core::graphgen::lagged_trip_table;
use habit_core::{FitState, HabitConfig, HabitError, HabitModel};
use habit_obs::Recorder;

/// Fits a HABIT model with the group-bys sharded by cell and
/// executed on `pool`. Produces a model — and embedded fit state —
/// byte-identical to `HabitModel::fit(table, config)` for every
/// `shards ≥ 1` and every pool size.
pub fn fit_sharded(
    table: &TripTable,
    config: HabitConfig,
    shards: usize,
    pool: &ThreadPool,
) -> Result<HabitModel, HabitError> {
    fit_sharded_traced(table, config, shards, pool, None, "fit")
}

/// [`fit_sharded`] with phase spans: when `recorder` is set, the
/// `fit.prepare` / `fit.accumulate` / `fit.merge` phases (via
/// [`accumulate_sharded_traced`]) plus a `fit.finalize` phase are
/// recorded under `op`. The fitted bytes are unaffected.
pub fn fit_sharded_traced(
    table: &TripTable,
    config: HabitConfig,
    shards: usize,
    pool: &ThreadPool,
    recorder: Option<&Recorder>,
    op: &'static str,
) -> Result<HabitModel, HabitError> {
    let state = accumulate_sharded_traced(table, config, shards, pool, recorder, op)?;
    let span = recorder.map(|r| r.span("fit.finalize", op));
    let model = HabitModel::from_fit_state(state);
    if let (Some(mut s), Err(_)) = (span, &model) {
        s.fail();
    }
    model
}

/// The accumulate + merge stages: runs [`FitState::accumulate_lagged`]
/// per shard on `pool` and merges the shard states into one
/// [`FitState`] — everything of a fit except finalizing the graph.
/// This is the stage [`crate::refit`] reuses verbatim for delta tables.
pub fn accumulate_sharded(
    table: &TripTable,
    config: HabitConfig,
    shards: usize,
    pool: &ThreadPool,
) -> Result<FitState, HabitError> {
    accumulate_sharded_traced(table, config, shards, pool, None, "fit")
}

/// [`accumulate_sharded`] with phase spans under `op`: `fit.prepare`
/// (provenance, lag, partition), `fit.accumulate` (per-shard
/// group-bys), `fit.merge` (ordered merge of the shard states).
pub fn accumulate_sharded_traced(
    table: &TripTable,
    config: HabitConfig,
    shards: usize,
    pool: &ThreadPool,
    recorder: Option<&Recorder>,
    op: &'static str,
) -> Result<FitState, HabitError> {
    let shards = shards.max(1);
    let prepare_span = recorder.map(|r| r.span("fit.prepare", op));
    let provenance = FitProvenance::of_table(table);
    let lagged = lagged_trip_table(table, &config)?;
    let shard_tables = lagged.partition(shards, |row| shard_of(row.cl, shards));
    drop(prepare_span);

    // One pool task per shard: the core accumulate over that shard's
    // rows. Chunk size 1 keeps shards independently schedulable. The
    // provenance counts the whole table once, so shard 0 carries it and
    // the others add zero.
    let accumulate_span = recorder.map(|r| r.span("fit.accumulate", op));
    let states: Vec<FitState> = pool.map_chunks(&shard_tables, 1, |shard, chunk| {
        let provenance = if shard == 0 {
            provenance
        } else {
            FitProvenance::default()
        };
        FitState::accumulate_lagged(&chunk[0], config, provenance)
    });
    drop(accumulate_span);

    // The merged state keeps its groups sorted, so its bytes do not
    // depend on how the rows were sharded.
    // Held (not dropped) so the span covers the whole merge.
    let _merge_span = recorder.map(|r| r.span("fit.merge", op));
    let mut states = states.into_iter();
    let mut merged = states.next().expect("at least one shard");
    for state in states {
        merged.merge(state)?;
    }
    Ok(merged)
}

/// The shard of the rows whose cell is `cl`: its Fx hash modulo the
/// shard count, a pure function of the cell id.
fn shard_of(cl: u64, shards: usize) -> usize {
    (hash_u64(cl) % shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use ais::{trips_to_table, AisPoint, Trip};
    use habit_obs::Recorder;

    fn corridor_table() -> TripTable {
        // Two corridors, each of many cells.
        let mut trips = Vec::new();
        for k in 0..4u64 {
            trips.push(Trip {
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
            });
            trips.push(Trip {
                trip_id: 100 + k + 1,
                mmsi: 200 + k,
                points: (0..120)
                    .map(|i| {
                        AisPoint::new(
                            200 + k,
                            i as i64 * 60,
                            12.5,
                            55.0 + i as f64 * 0.003,
                            10.0,
                            0.0,
                        )
                    })
                    .collect(),
            });
        }
        trips_to_table(&trips)
    }

    #[test]
    fn sharded_fit_is_byte_identical_to_sequential() {
        let table = corridor_table();
        let config = HabitConfig::default();
        let sequential = HabitModel::fit(&table, config).expect("sequential fit");
        let baseline = sequential.to_bytes();
        for shards in [1usize, 2, 4, 8] {
            for threads in [1usize, 4] {
                let pool = ThreadPool::new(threads);
                let model = fit_sharded(&table, config, shards, &pool).expect("sharded fit");
                assert_eq!(
                    model.to_bytes(),
                    baseline,
                    "shards={shards} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn partition_covers_every_row_exactly_once() {
        let table = corridor_table();
        let config = HabitConfig::default();
        let lagged = lagged_trip_table(&table, &config).unwrap();
        let parts = lagged.partition(4, |row| shard_of(row.cl, 4));
        let total: usize = parts.iter().map(|p| p.rows().len()).sum();
        assert_eq!(total, lagged.rows().len());
        // Every shard gets rows, and no cell straddles two shards.
        assert!(
            parts.iter().all(|p| !p.rows().is_empty()),
            "a shard is empty"
        );
        for (shard, part) in parts.iter().enumerate() {
            assert!(part.rows().iter().all(|row| shard_of(row.cl, 4) == shard));
        }
    }

    #[test]
    fn shard_assignment_is_deterministic_and_bounded() {
        let table = corridor_table();
        let lagged = lagged_trip_table(&table, &HabitConfig::default()).unwrap();
        for row in lagged.rows() {
            assert_eq!(shard_of(row.cl, 1), 0);
            let s = shard_of(row.cl, 5);
            assert!(s < 5);
            assert_eq!(s, shard_of(row.cl, 5));
        }
    }

    #[test]
    fn traced_fit_records_every_phase_and_identical_bytes() {
        let table = corridor_table();
        let config = HabitConfig::default();
        let pool = ThreadPool::new(2);
        let recorder = Recorder::new(16);
        let plain = fit_sharded(&table, config, 2, &pool).expect("fit");
        let traced =
            fit_sharded_traced(&table, config, 2, &pool, Some(&recorder), "fit").expect("fit");
        assert_eq!(plain.to_bytes(), traced.to_bytes());
        let names: Vec<&str> = recorder.recent().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            ["fit.prepare", "fit.accumulate", "fit.merge", "fit.finalize"]
        );
        assert!(recorder.recent().iter().all(|s| s.op == "fit" && s.ok));
    }

    #[test]
    fn sharded_fit_propagates_empty_model() {
        // Drift-only input: everything is filtered, fit must error like
        // the sequential path.
        let drift = Trip {
            trip_id: 1,
            mmsi: 7,
            points: (0..40)
                .map(|i| AisPoint::new(7, i * 60, 11.0 + (i % 2) as f64 * 1e-4, 56.5, 0.4, 0.0))
                .collect(),
        };
        let table = trips_to_table(&[drift]);
        let pool = ThreadPool::new(2);
        assert!(matches!(
            fit_sharded(&table, HabitConfig::default(), 4, &pool),
            Err(HabitError::EmptyModel)
        ));
    }
}
