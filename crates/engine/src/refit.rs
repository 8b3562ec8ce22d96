//! Incremental refit: merge a delta of **new trips** into a saved
//! [`FitState`] instead of re-scanning months of history.
//!
//! `refit_state(state, delta)` is, by construction, byte-identical to a
//! from-scratch fit over `history ∪ delta` (the engine's property tests
//! assert it at every shard/thread count): the delta accumulates
//! through the exact same sharded pipeline as a fit
//! ([`crate::shard::accumulate_sharded`]) and merges into the state —
//! a linear merge of sorted groups, so the result is the state a fit
//! over the union accumulates. The only contract is the fit-state one —
//! the delta must hold *whole* trips whose trip ids (and vessel ids)
//! are disjoint from the history's, i.e. "a day's new trips".
//!
//! Cost model: a refit accumulates only the delta's rows and re-pays
//! the merge + finalize (proportional to the number of *distinct*
//! cells and transitions, not to history rows) — the `fit_refit`
//! workload of `benchmark/` measures the resulting refit-vs-full-fit
//! wall clocks (`engine.refit_ms`, `core.finalize_ms`).

use crate::pool::ThreadPool;
use crate::shard::accumulate_sharded_traced;
use ais::TripTable;
use habit_core::{FitState, HabitError, HabitModel};
use habit_obs::Recorder;

/// What a refit absorbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RefitOutcome {
    /// Distinct trips merged in from the delta.
    pub trips_added: u64,
    /// AIS reports merged in from the delta.
    pub reports_added: u64,
}

/// Accumulates `delta` (sharded, on `pool`) under the state's own
/// configuration and merges it into `state`. An empty delta — zero
/// rows — is a no-op; a delta whose trips are all drift-filtered still
/// counts into provenance (exactly as a from-scratch fit over the
/// union would count it).
pub fn refit_state(
    state: &mut FitState,
    delta: &TripTable,
    shards: usize,
    pool: &ThreadPool,
) -> Result<RefitOutcome, HabitError> {
    refit_state_traced(state, delta, shards, pool, None, "refit")
}

/// [`refit_state`] with phase spans: the delta accumulation records the
/// `fit.*` phases and the state merge records `refit.merge`, all under
/// `op`. The merged state is unaffected.
pub fn refit_state_traced(
    state: &mut FitState,
    delta: &TripTable,
    shards: usize,
    pool: &ThreadPool,
    recorder: Option<&Recorder>,
    op: &'static str,
) -> Result<RefitOutcome, HabitError> {
    if delta.is_empty() {
        return Ok(RefitOutcome::default());
    }
    let delta_state =
        accumulate_sharded_traced(delta, *state.config(), shards, pool, recorder, op)?;
    let outcome = RefitOutcome {
        trips_added: delta_state.provenance().trips,
        reports_added: delta_state.provenance().reports,
    };
    let merge_span = recorder.map(|r| r.span("refit.merge", op));
    let merged = state.merge(delta_state);
    if let (Some(mut s), Err(_)) = (merge_span, &merged) {
        s.fail();
    }
    merged?;
    Ok(outcome)
}

/// Refits a whole model: merges `delta` into the model's embedded
/// state and re-finalizes the graph. Fails with
/// [`HabitError::StateVersion`] (`found: 0`) when the model carries no
/// state — v1 blobs serve but cannot be refitted.
pub fn refit_model(
    model: &HabitModel,
    delta: &TripTable,
    shards: usize,
    pool: &ThreadPool,
) -> Result<(HabitModel, RefitOutcome), HabitError> {
    refit_model_traced(model, delta, shards, pool, None, "refit")
}

/// [`refit_model`] with phase spans under `op`: the state refit's
/// phases plus a final `fit.finalize` for the graph rebuild.
pub fn refit_model_traced(
    model: &HabitModel,
    delta: &TripTable,
    shards: usize,
    pool: &ThreadPool,
    recorder: Option<&Recorder>,
    op: &'static str,
) -> Result<(HabitModel, RefitOutcome), HabitError> {
    let mut state = model.state().cloned().ok_or(HabitError::StateVersion {
        found: 0,
        supported: habit_core::FITSTATE_VERSION,
    })?;
    let outcome = refit_state_traced(&mut state, delta, shards, pool, recorder, op)?;
    let span = recorder.map(|r| r.span("fit.finalize", op));
    let finalized = HabitModel::from_fit_state(state);
    if let (Some(mut s), Err(_)) = (span, &finalized) {
        s.fail();
    }
    Ok((finalized?, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::fit_sharded;
    use ais::{trips_to_table, AisPoint, Trip};
    use habit_core::HabitConfig;

    fn lane(trip_id: u64, mmsi: u64, lat: f64, n: usize) -> Trip {
        Trip {
            trip_id,
            mmsi,
            points: (0..n)
                .map(|i| {
                    AisPoint::new(
                        mmsi,
                        i as i64 * 60,
                        10.0 + i as f64 * 0.004,
                        lat,
                        12.0,
                        90.0,
                    )
                })
                .collect(),
        }
    }

    #[test]
    fn refit_equals_full_fit_over_union() {
        let history: Vec<Trip> = (0..3).map(|k| lane(k + 1, 100 + k, 56.0, 120)).collect();
        let delta: Vec<Trip> = (0..2).map(|k| lane(k + 4, 200 + k, 56.015, 100)).collect();
        let union: Vec<Trip> = history.iter().chain(&delta).cloned().collect();
        let config = HabitConfig::default();
        let pool = ThreadPool::new(2);

        let incremental = {
            let model = fit_sharded(&trips_to_table(&history), config, 2, &pool).unwrap();
            let (refitted, outcome) =
                refit_model(&model, &trips_to_table(&delta), 4, &pool).unwrap();
            assert_eq!(outcome.trips_added, 2);
            assert_eq!(outcome.reports_added, 200);
            refitted
        };
        let full = fit_sharded(&trips_to_table(&union), config, 2, &pool).unwrap();
        assert_eq!(
            incremental.to_bytes_full(),
            full.to_bytes_full(),
            "refit must be byte-identical to the from-scratch fit, state included"
        );
    }

    #[test]
    fn empty_delta_is_a_no_op() {
        let history = trips_to_table(&[lane(1, 100, 56.0, 120)]);
        let pool = ThreadPool::new(1);
        let model = fit_sharded(&history, HabitConfig::default(), 1, &pool).unwrap();
        let empty = trips_to_table(&[]);
        let (refitted, outcome) = refit_model(&model, &empty, 1, &pool).unwrap();
        assert_eq!(outcome, RefitOutcome::default());
        assert_eq!(refitted.to_bytes_full(), model.to_bytes_full());
    }

    #[test]
    fn stateless_models_cannot_refit() {
        let history = trips_to_table(&[lane(1, 100, 56.0, 120)]);
        let pool = ThreadPool::new(1);
        let model = fit_sharded(&history, HabitConfig::default(), 1, &pool)
            .unwrap()
            .without_state();
        let err = match refit_model(&model, &history, 1, &pool) {
            Err(e) => e,
            Ok(_) => panic!("stateless refit must fail"),
        };
        assert!(
            matches!(err, HabitError::StateVersion { found: 0, .. }),
            "{err}"
        );
    }
}
