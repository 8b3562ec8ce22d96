//! Property tests for the engine's core guarantees:
//!
//! * **sharding is invisible** — the sharded fit serializes
//!   byte-identically to the sequential fit for random trip tables
//!   across shard counts {1, 2, 4, 8} and thread counts {1, 4};
//! * **refit is invisible** — merging a random delta of new trips into
//!   a saved fit state is byte-identical (model *and* embedded state)
//!   to a from-scratch fit over `history ∪ delta`, again across
//!   shard/thread counts.

use crate::pool::ThreadPool;
use crate::refit::refit_model;
use crate::shard::fit_sharded;
use ais::{trips_to_table, AisPoint, Trip};
use habit_core::{HabitConfig, HabitModel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a random multi-corridor trip table: a few vessels random-walk
/// from seeded anchor points with varied headings, spreading rows over
/// many cells.
fn random_trip_table(seed: u64, n_trips: usize, points_per_trip: usize) -> ais::TripTable {
    trips_to_table(&random_trips(seed, n_trips, points_per_trip, 0))
}

/// Like [`random_trip_table`] but returns the trips, with ids (and
/// vessels) offset by `id_offset` — deltas must be disjoint from the
/// history per the fit-state contract.
fn random_trips(seed: u64, n_trips: usize, points_per_trip: usize, id_offset: u64) -> Vec<Trip> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trips = Vec::with_capacity(n_trips);
    for k in 0..n_trips {
        let k = k + id_offset as usize;
        let mut lon = 8.0 + rng.gen_range(0.0..6.0);
        let mut lat = 54.0 + rng.gen_range(0.0..3.0);
        let heading = rng.gen_range(0.0..std::f64::consts::TAU);
        let (mut dlon, mut dlat) = (heading.cos() * 0.004, heading.sin() * 0.003);
        let mut points = Vec::with_capacity(points_per_trip);
        for i in 0..points_per_trip {
            // Occasional course changes keep the lattice paths irregular.
            if rng.gen_range(0u32..10) == 0 {
                let turn = rng.gen_range(-0.5..0.5f64);
                let (s, c) = turn.sin_cos();
                let (ndlon, ndlat) = (dlon * c - dlat * s, dlon * s + dlat * c);
                dlon = ndlon;
                dlat = ndlat;
            }
            lon += dlon;
            lat += dlat;
            points.push(AisPoint::new(
                1000 + k as u64,
                i as i64 * 60,
                lon,
                lat,
                rng.gen_range(5.0..15.0),
                rng.gen_range(0.0..360.0),
            ));
        }
        trips.push(Trip {
            trip_id: k as u64 + 1,
            mmsi: 1000 + k as u64,
            points,
        });
    }
    trips
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole determinism contract, end to end: for random trip
    /// tables, every (shards, threads) combination serializes to the
    /// same bytes as the sequential `HabitModel::fit`.
    #[test]
    fn sharded_fit_equals_sequential_fit(
        seed in 0u64..10_000,
        n_trips in 3usize..6,
        points in 40usize..90,
    ) {
        let table = random_trip_table(seed, n_trips, points);
        let config = HabitConfig::default();
        let sequential = HabitModel::fit(&table, config);
        for shards in [1usize, 2, 4, 8] {
            for threads in [1usize, 4] {
                let pool = ThreadPool::new(threads);
                let sharded = fit_sharded(&table, config, shards, &pool);
                match (&sequential, &sharded) {
                    (Ok(a), Ok(b)) => {
                        prop_assert_eq!(
                            a.to_bytes(),
                            b.to_bytes(),
                            "model bytes diverge at shards={} threads={}",
                            shards,
                            threads
                        );
                        // The embedded fit state is sorted too: the full
                        // v2 container is sharding-invariant.
                        prop_assert_eq!(
                            a.to_bytes_full(),
                            b.to_bytes_full(),
                            "fit-state bytes diverge at shards={} threads={}",
                            shards,
                            threads
                        );
                    }
                    (Err(_), Err(_)) => {} // both reject (e.g. all drift)
                    _ => prop_assert!(
                        false,
                        "ok/err divergence at shards={} threads={}",
                        shards,
                        threads
                    ),
                }
            }
        }
    }

    /// The incremental-refit contract, end to end: for random disjoint
    /// history/delta trip sets, `refit(fit_state(history), delta)`
    /// serializes — graph *and* embedded state — byte-identically to a
    /// from-scratch `fit(history ∪ delta)`, at every (shards, threads)
    /// combination on either side.
    #[test]
    fn refit_equals_full_fit(
        seed in 0u64..10_000,
        history_trips in 3usize..6,
        delta_trips in 1usize..4,
        points in 40usize..80,
    ) {
        let history = random_trips(seed, history_trips, points, 0);
        let delta = random_trips(seed.wrapping_add(1), delta_trips, points, history_trips as u64);
        let union: Vec<Trip> = history.iter().chain(&delta).cloned().collect();
        let config = HabitConfig::default();

        let full = HabitModel::fit(&trips_to_table(&union), config);
        for shards in [1usize, 2, 4, 8] {
            for threads in [1usize, 4] {
                let pool = ThreadPool::new(threads);
                let incremental = fit_sharded(&trips_to_table(&history), config, shards, &pool)
                    .and_then(|model| {
                        refit_model(&model, &trips_to_table(&delta), shards, &pool)
                            .map(|(refitted, _)| refitted)
                    });
                match (&full, &incremental) {
                    (Ok(a), Ok(b)) => {
                        prop_assert_eq!(
                            a.to_bytes_full(),
                            b.to_bytes_full(),
                            "refit diverges from full fit at shards={} threads={}",
                            shards,
                            threads
                        );
                    }
                    // History alone may be all-drift (empty model) while
                    // the union fits — or the union may be empty too;
                    // both sides must agree only when both constructible.
                    (_, Err(habit_core::HabitError::EmptyModel)) => {}
                    (Err(habit_core::HabitError::EmptyModel), _) => {}
                    _ => prop_assert!(
                        false,
                        "ok/err divergence at shards={} threads={}",
                        shards,
                        threads
                    ),
                }
            }
        }
    }
}
