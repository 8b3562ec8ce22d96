//! Cross-crate integration: whole-track repair (`Request::Repair`
//! through the service) feeding density analytics (`density`) — the
//! end-to-end workflow the paper's introduction motivates (gap-free
//! density maps, Fig. 1).

use habit::density::{lane_continuity, DensityDiff, DensityMap};
use habit::prelude::*;
use habit::service::{RepairConfig, RepairOutcome};
use habit::synth::{datasets, DatasetSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

const RES: u8 = 8;

struct Fixture {
    service: Service,
    test: Vec<Trip>,
    world: habit::synth::World,
}

fn fixture() -> Fixture {
    let dataset = datasets::kiel(DatasetSpec {
        seed: 42,
        scale: 0.2,
    });
    let trips = dataset.trips();
    let mut rng = StdRng::seed_from_u64(5);
    let (train, test) = split_trips(&trips, 0.7, &mut rng);
    let model = HabitModel::fit(
        &habit::ais::trips_to_table(&train),
        HabitConfig::with_r_t(9, 100.0),
    )
    .expect("fit");
    Fixture {
        service: Service::with_model(ServiceConfig::default(), model),
        test,
        world: dataset.world,
    }
}

/// Repairs `track` through the service's `Repair` operation.
fn repair(service: &Service, track: Vec<TimedPoint>, config: RepairConfig) -> RepairOutcome {
    let request = Request::Repair {
        track,
        config,
        provenance: false,
    };
    match service.handle(&request).expect("repair") {
        Response::Repaired(outcome) => outcome,
        other => panic!("repair answered {other:?}"),
    }
}

/// Carves a silence into each test trip, repairs the track, and checks
/// that the repaired density map restores the lane the gaps erased.
#[test]
fn repair_restores_density_continuity() {
    let fx = fixture();
    let mut broken = DensityMap::new(RES);
    let mut repaired = DensityMap::new(RES);
    let mut rng = StdRng::seed_from_u64(6);
    let mut gaps = 0usize;

    for trip in &fx.test {
        let Some(case) = habit::eval::inject_gap(trip, 3600, &mut rng) else {
            continue;
        };
        gaps += 1;
        // The broken track: reports outside the silent window.
        let track: Vec<TimedPoint> = trip
            .points
            .iter()
            .filter(|p| p.t <= case.query.start.t || p.t >= case.query.end.t)
            .map(|p| TimedPoint { pos: p.pos, t: p.t })
            .collect();
        for p in &track {
            broken.record(&p.pos, trip.mmsi, 0.0);
        }
        // Repair with the default config (30-min threshold, 250 m
        // densification) and accumulate the repaired view.
        let report = repair(&fx.service, track, RepairConfig::default());
        assert_eq!(report.gaps_found(), 1, "exactly the carved silence");
        for p in &report.points {
            repaired.record(&p.pos, trip.mmsi, 0.0);
        }
    }
    assert!(gaps >= 3, "need gaps to repair, got {gaps}");

    // The repaired map strictly extends the broken one.
    let diff = DensityDiff::compute(&broken, &repaired);
    assert!(diff.lost.is_empty(), "repair must not remove traffic");
    assert!(
        !diff.restored.is_empty(),
        "repair must fill cells the gaps erased"
    );

    // Lane continuity along the corridor improves (or stays perfect).
    let grid = HexGrid::new();
    let from = grid
        .cell(&fx.world.port("Kiel").expect("port").pos, RES)
        .expect("cell");
    let to = grid
        .cell(&fx.world.port("Gothenburg").expect("port").pos, RES)
        .expect("cell");
    let c_broken = lane_continuity(&broken, from, to);
    let c_repaired = lane_continuity(&repaired, from, to);
    assert!(
        c_repaired >= c_broken,
        "continuity must not degrade: {c_broken:.3} -> {c_repaired:.3}"
    );
}

/// Repaired tracks never lose original reports and stay time-ordered,
/// even when many gaps are carved into one track.
#[test]
fn multi_gap_repair_preserves_reports() {
    let fx = fixture();
    let trip = fx
        .test
        .iter()
        .max_by_key(|t| t.points.len())
        .expect("non-empty test set");
    // Carve three disjoint silences.
    let t0 = trip.points.first().expect("points").t;
    let t1 = trip.points.last().expect("points").t;
    let span = t1 - t0;
    let windows = [
        (t0 + span / 6, t0 + span / 6 + 2400),
        (t0 + span / 2, t0 + span / 2 + 3600),
        (t0 + 4 * span / 5, t0 + 4 * span / 5 + 1800),
    ];
    let track: Vec<TimedPoint> = trip
        .points
        .iter()
        .filter(|p| !windows.iter().any(|&(a, b)| p.t > a && p.t < b))
        .map(|p| TimedPoint { pos: p.pos, t: p.t })
        .collect();

    let config = RepairConfig {
        gap_threshold_s: 20 * 60,
        ..RepairConfig::default()
    };
    let report = repair(&fx.service, track.clone(), config);
    let fixed = &report.points;
    assert!(
        report.gaps_found() >= 2,
        "carved 3 silences, found {}",
        report.gaps_found()
    );
    assert!(fixed.windows(2).all(|w| w[0].t <= w[1].t));
    for p in &track {
        assert!(
            fixed.iter().any(|q| q.t == p.t),
            "original report at t={} lost",
            p.t
        );
    }
    assert_eq!(fixed.len(), track.len() + report.points_added);
}
