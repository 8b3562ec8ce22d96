//! Smoke test for the umbrella crate's public surface: the re-exports
//! the quick start and downstream users rely on must stay reachable
//! through `habit::prelude::*` / `habit::synth::datasets`. A rename or
//! dropped re-export anywhere in the stack fails here first, with a
//! readable error instead of a broken doctest.

use habit::prelude::*;
use habit::synth::{datasets, DatasetSpec};

#[test]
fn prelude_exposes_the_quickstart_surface() {
    // `datasets::kiel` + the spec type build a dataset…
    let dataset = datasets::kiel(DatasetSpec {
        seed: 42,
        scale: 0.05,
    });
    let table = dataset.trip_table();

    // …`HabitConfig` / `HabitModel` fit it…
    let config = HabitConfig {
        resolution: 8,
        ..HabitConfig::default()
    };
    let model = HabitModel::fit(&table, config).expect("fit");
    assert!(model.node_count() > 0);

    // …`GapQuery` + `HabitModel::impute` answer a gap…
    let trips = dataset.trips();
    let trip = &trips[0];
    let a = &trip.points[5];
    let b = &trip.points[trip.points.len() - 5];
    let gap = GapQuery::new(a.pos.lon, a.pos.lat, a.t, b.pos.lon, b.pos.lat, b.t);
    let path = model.impute(&gap).expect("impute").points;
    assert!(path.len() >= 2);

    // …`impute_sli` and `resampled_dtw_m` evaluate it.
    let sli = impute_sli(gap.start, gap.end, 250.0);
    let habit_pts: Vec<GeoPoint> = path.iter().map(|p| p.pos).collect();
    let sli_pts: Vec<GeoPoint> = sli.iter().map(|p| p.pos).collect();
    let truth: Vec<GeoPoint> = trip.points[5..trip.points.len() - 4]
        .iter()
        .map(|p| p.pos)
        .collect();
    let habit_dtw = resampled_dtw_m(&habit_pts, &truth).expect("dtw");
    let sli_dtw = resampled_dtw_m(&sli_pts, &truth).expect("dtw");
    assert!(habit_dtw.is_finite() && sli_dtw.is_finite());
}

#[test]
fn prelude_types_are_nameable() {
    // Purely compile-time: the re-exports the prelude documents.
    fn assert_type<T>() {}
    assert_type::<HabitModel>();
    assert_type::<HabitConfig>();
    assert_type::<HabitError>();
    assert_type::<GapQuery>();
    assert_type::<Imputation>();
    assert_type::<WeightScheme>();
    assert_type::<CellProjection>();
    assert_type::<HexCell>();
    assert_type::<HexGrid>();
    assert_type::<GeoPoint>();
    assert_type::<TimedPoint>();
    assert_type::<AisPoint>();
    assert_type::<Trajectory>();
    assert_type::<Trip>();
    assert_type::<VesselType>();
    assert_type::<TripTable>();
    assert_type::<DensityDiff>();
    assert_type::<DensityMap>();
    assert_type::<GapCase>();
    assert_type::<GtiConfig>();
    assert_type::<GtiModel>();
    assert_type::<Dataset>();
    assert_type::<World>();
}
