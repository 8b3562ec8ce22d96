//! End-to-end integration tests: synthetic world → AIS cleaning → trip
//! segmentation → HABIT fit → imputation → accuracy, across crate
//! boundaries (the full paper pipeline).

use habit::core::reference::Reference;
use habit::engine::{fit_sharded, refit_model};
use habit::prelude::*;
use habit::synth::{datasets, DatasetSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn kiel_bench() -> (Vec<Trip>, Vec<Trip>) {
    let dataset = datasets::kiel(DatasetSpec {
        seed: 42,
        scale: 0.15,
    });
    let trips = dataset.trips();
    assert!(trips.len() >= 6, "need enough trips, got {}", trips.len());
    let mut rng = StdRng::seed_from_u64(1);
    split_trips(&trips, 0.7, &mut rng)
}

#[test]
fn full_pipeline_imputes_held_out_gaps() {
    let (train, test) = kiel_bench();
    let table = habit::ais::trips_to_table(&train);
    let model = HabitModel::fit(&table, HabitConfig::with_r_t(9, 100.0)).expect("fit");
    assert!(model.node_count() > 50, "nodes {}", model.node_count());
    assert!(model.edge_count() > 50, "edges {}", model.edge_count());

    // The naive oracle (per-query A* on the thawed pointer graph,
    // recursive RDP) must answer every gap exactly as the serving path.
    let reference = Reference::thaw(&model);
    let mut rng = StdRng::seed_from_u64(2);
    let mut attempted = 0usize;
    let mut succeeded = 0usize;
    let mut habit_beats_sli = 0usize;
    for trip in &test {
        let Some(case) = habit::eval::inject_gap(trip, 3600, &mut rng) else {
            continue;
        };
        attempted += 1;
        let naive = reference.impute(&case.query);
        let Ok(imp) = model.impute(&case.query) else {
            assert!(
                naive.is_err(),
                "trip {}: only the oracle answered",
                trip.trip_id
            );
            continue;
        };
        let naive =
            naive.unwrap_or_else(|e| panic!("trip {}: only the oracle failed: {e}", trip.trip_id));
        assert_eq!(imp.cells, naive.cells, "trip {}", trip.trip_id);
        assert_eq!(imp.cost.to_bits(), naive.cost.to_bits());
        assert_eq!(imp.expanded, naive.expanded);
        assert_eq!(imp.raw_point_count, naive.raw_point_count);
        assert_eq!(imp.points.len(), naive.points.len());
        for (a, b) in imp.points.iter().zip(&naive.points) {
            assert_eq!(a.pos.lon.to_bits(), b.pos.lon.to_bits());
            assert_eq!(a.pos.lat.to_bits(), b.pos.lat.to_bits());
            assert_eq!(a.t, b.t);
        }
        succeeded += 1;
        // Paths must start/end exactly at the query endpoints with
        // monotone timestamps.
        let first = imp.points.first().expect("non-empty");
        let last = imp.points.last().expect("non-empty");
        assert_eq!(first.t, case.query.start.t);
        assert_eq!(last.t, case.query.end.t);
        assert!(
            imp.points.windows(2).all(|w| w[0].t <= w[1].t),
            "timestamps must be monotone"
        );

        let truth: Vec<GeoPoint> = case.truth.iter().map(|p| p.pos).collect();
        let habit_pts: Vec<GeoPoint> = imp.points.iter().map(|p| p.pos).collect();
        let habit_dtw = resampled_dtw_m(&habit_pts, &truth).expect("dtw");

        let sli: Vec<GeoPoint> = impute_sli(case.query.start, case.query.end, 250.0)
            .iter()
            .map(|p| p.pos)
            .collect();
        let sli_dtw = resampled_dtw_m(&sli, &truth).expect("dtw");
        if habit_dtw <= sli_dtw {
            habit_beats_sli += 1;
        }
    }
    assert!(attempted >= 2, "too few gap cases: {attempted}");
    assert_eq!(
        succeeded, attempted,
        "every gap on the trained corridor must impute"
    );
    // The corridor has a dog-leg around land, so following history beats
    // the straight line on a clear majority of gaps.
    assert!(
        habit_beats_sli * 2 >= attempted,
        "HABIT beat SLI on only {habit_beats_sli}/{attempted} gaps"
    );
}

#[test]
fn model_survives_serialization_at_dataset_scale() {
    let (mut train, test) = kiel_bench();
    // Oldest trips first, so the tail of `train` is "the new day".
    train.sort_by_key(|t| t.trip_id);
    let table = habit::ais::trips_to_table(&train);
    let config = HabitConfig::with_r_t(9, 100.0);
    let model = HabitModel::fit(&table, config).expect("fit");

    // Sharding is an execution detail: same bytes at any parallelism.
    let pool = ThreadPool::new(4);
    let sharded = fit_sharded(&table, config, 4, &pool).expect("sharded fit");
    let bytes = model.to_bytes();
    assert!(sharded.to_bytes() == bytes, "sharded fit ≡ sequential fit");

    // Absorbing the newest 10 % of trips (whole trips) into a fit of the
    // rest yields the from-scratch model, embedded fit state included.
    let split = train.len() - (train.len() / 10).max(1);
    let history = fit_sharded(
        &habit::ais::trips_to_table(&train[..split]),
        config,
        4,
        &pool,
    )
    .expect("history fit");
    let delta = habit::ais::trips_to_table(&train[split..]);
    let (refitted, _) = refit_model(&history, &delta, 4, &pool).expect("refit");
    assert!(
        refitted.to_bytes_full() == sharded.to_bytes_full(),
        "refit of the delta ≡ from-scratch fit over history ∪ delta"
    );

    let restored = HabitModel::from_bytes(&bytes).expect("round trip");
    assert_eq!(restored.node_count(), model.node_count());
    assert_eq!(restored.edge_count(), model.edge_count());

    // The restored model answers queries identically.
    let mut rng = StdRng::seed_from_u64(3);
    let case = test
        .iter()
        .filter_map(|t| habit::eval::inject_gap(t, 3600, &mut rng))
        .next()
        .expect("one gap case");
    let a = model.impute(&case.query).expect("impute");
    let b = restored.impute(&case.query).expect("impute");
    assert_eq!(a.cells, b.cells, "same cell sequence");
    assert_eq!(a.points.len(), b.points.len());
    for (pa, pb) in a.points.iter().zip(&b.points) {
        assert!((pa.pos.lon - pb.pos.lon).abs() < 1e-9);
        assert!((pa.pos.lat - pb.pos.lat).abs() < 1e-9);
        assert_eq!(pa.t, pb.t);
    }
}

#[test]
fn imputed_paths_stay_in_region_and_respect_tolerance() {
    let dataset = datasets::kiel(DatasetSpec {
        seed: 7,
        scale: 0.15,
    });
    let trips = dataset.trips();
    let mut rng = StdRng::seed_from_u64(4);
    let (train, test) = split_trips(&trips, 0.7, &mut rng);
    let table = habit::ais::trips_to_table(&train);
    let model = HabitModel::fit(&table, HabitConfig::with_r_t(9, 250.0)).expect("fit");

    let bbox = &dataset.world.bbox;
    for trip in &test {
        let Some(case) = habit::eval::inject_gap(trip, 3600, &mut rng) else {
            continue;
        };
        let Ok(imp) = model.impute(&case.query) else {
            continue;
        };
        for p in &imp.points {
            assert!(
                p.pos.lon >= bbox.min_lon - 0.2 && p.pos.lon <= bbox.max_lon + 0.2,
                "lon {} out of region",
                p.pos.lon
            );
            assert!(
                p.pos.lat >= bbox.min_lat - 0.2 && p.pos.lat <= bbox.max_lat + 0.2,
                "lat {} out of region",
                p.pos.lat
            );
        }
        // RDP never leaves more points than the raw cell path.
        assert!(imp.points.len() <= imp.raw_point_count.max(2));
    }
}

#[test]
fn vessel_histories_produce_cell_statistics_consistent_with_aggdb() {
    let (train, _) = kiel_bench();
    let table = habit::ais::trips_to_table(&train);
    let model = HabitModel::fit(&table, HabitConfig::with_r_t(8, 100.0)).expect("fit");

    // Count messages per cell directly and compare with the statistics
    // stored on the graph nodes.
    let grid = HexGrid::new();
    let mut msgs_per_cell: std::collections::BTreeMap<u64, u64> = Default::default();
    for (&x, &y) in table.lon().iter().zip(table.lat()) {
        let cell = grid.cell(&GeoPoint::new(x, y), 8).expect("cell");
        *msgs_per_cell.entry(cell.raw()).or_default() += 1;
    }

    let mut checked = 0usize;
    for (&raw, &msgs) in &msgs_per_cell {
        let cell = HexCell::from_raw(raw).expect("valid cell");
        if let Some(node) = model.cell_stats(cell) {
            // Cell-span filtering may drop a few short trips from the
            // model, so the graph count never exceeds the raw count.
            assert!(
                node.msg_count <= msgs,
                "graph count {} > raw count {msgs}",
                node.msg_count
            );
            checked += 1;
        }
    }
    assert!(checked > 20, "checked only {checked} cells");
}
