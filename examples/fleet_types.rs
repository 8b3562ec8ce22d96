//! Vessel-type-aware imputation on heterogeneous traffic — the paper's
//! future-work extension (§5: vessel state features), implemented as
//! per-class transition graphs with a global fallback.
//!
//! ```text
//! cargo run --release --example fleet_types
//! ```
//!
//! Fits a [`TypeModels`] on the SAR scenario (all vessel types), then
//! compares per-class models against the single global model on the same
//! held-out gaps: class models answer queries on their own historical
//! network, which keeps e.g. tanker imputations on deep-water lanes.

use habit::core::{ServedBy, TypeModels, TypeModelsConfig};
use habit::eval::experiments::Stat::{Mean, Median};
use habit::eval::report::MarkdownTable;
use habit::prelude::*;
use habit::synth::{datasets, DatasetSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

fn main() {
    let dataset = datasets::sar(DatasetSpec {
        seed: 42,
        scale: 0.3,
    });
    let trips = dataset.trips();
    let mut rng = StdRng::seed_from_u64(3);
    let (train, test) = split_trips(&trips, 0.7, &mut rng);
    println!(
        "SAR: {} trips ({} train / {} test), {} vessels",
        trips.len(),
        train.len(),
        test.len(),
        dataset.vessels.len()
    );

    let fleet = TypeModels::fit(
        &train,
        &dataset.vessels,
        TypeModelsConfig {
            habit: HabitConfig::with_r_t(9, 100.0),
            min_trips_per_type: 8,
        },
    )
    .expect("fit fleet");
    println!(
        "fleet: global model {} cells; dedicated models for {:?} ({} KiB total)",
        fleet.global().node_count(),
        fleet.modeled_types(),
        fleet.storage_bytes() / 1024
    );

    // Impute every held-out gap twice: via the fleet (type dispatch) and
    // via the global model alone.
    let mut per_type_errors: HashMap<&'static str, (Vec<f64>, Vec<f64>)> = HashMap::new();
    let mut served_by_class = 0usize;
    let mut total = 0usize;
    for trip in &test {
        let Some(case) = habit::eval::inject_gap(trip, 3600, &mut rng) else {
            continue;
        };
        let truth: Vec<GeoPoint> = case.truth.iter().map(|p| p.pos).collect();
        let Ok((fleet_imp, served)) = fleet.impute_for_mmsi(trip.mmsi, &case.query) else {
            continue;
        };
        let Ok(global_imp) = fleet.global().impute(&case.query) else {
            continue;
        };
        total += 1;
        if matches!(served, ServedBy::TypeModel(_)) {
            served_by_class += 1;
        }
        let fleet_pts: Vec<GeoPoint> = fleet_imp.points.iter().map(|p| p.pos).collect();
        let global_pts: Vec<GeoPoint> = global_imp.points.iter().map(|p| p.pos).collect();
        let (Some(fe), Some(ge)) = (
            resampled_dtw_m(&fleet_pts, &truth),
            resampled_dtw_m(&global_pts, &truth),
        ) else {
            continue;
        };
        let vtype = dataset
            .vessels
            .iter()
            .find(|v| v.mmsi == trip.mmsi)
            .map(|v| type_name(v.vtype))
            .unwrap_or("Unknown");
        let entry = per_type_errors.entry(vtype).or_default();
        entry.0.push(fe);
        entry.1.push(ge);
    }
    println!("{total} gaps imputed, {served_by_class} answered by a class model\n");

    let mut table = MarkdownTable::new(vec![
        "Vessel type",
        "Gaps",
        "Fleet mean DTW (m)",
        "Fleet median (m)",
        "Global mean DTW (m)",
        "Global median (m)",
    ]);
    let mut types: Vec<&&str> = per_type_errors.keys().collect();
    types.sort();
    for vtype in types {
        let (fleet_e, global_e) = &per_type_errors[*vtype];
        table
            .row(vec![
                vtype.to_string(),
                fleet_e.len().to_string(),
                Mean.cell(fleet_e),
                Median.cell(fleet_e),
                Mean.cell(global_e),
                Median.cell(global_e),
            ])
            .expect("row arity matches header");
    }
    println!("{}", table.render());
    println!(
        "classes with strong route discipline (ferries, tankers) keep or improve\n\
         accuracy on their own graphs while excluding off-class shortcuts."
    );
}

fn type_name(v: VesselType) -> &'static str {
    match v {
        VesselType::Passenger => "Passenger",
        VesselType::Cargo => "Cargo",
        VesselType::Tanker => "Tanker",
        VesselType::Fishing => "Fishing",
        VesselType::Pleasure => "Pleasure",
        VesselType::HighSpeed => "HighSpeed",
        VesselType::Tug => "Tug",
        VesselType::Other => "Other",
    }
}
