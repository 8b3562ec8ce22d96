//! Property-based tests for the HABIT core: deserialization robustness,
//! imputation invariants, and configuration round trips.

use crate::config::{CellProjection, HabitConfig, WeightScheme};
use crate::fitstate::FitState;
use crate::graphgen::lagged_trip_table;
use crate::impute::GapQuery;
use crate::model::HabitModel;
use ais::{trips_to_table, AisPoint, Trip};
use geo_kernel::GeoPoint;
use hexgrid::HexGrid;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

fn lane_model(resolution: u8) -> HabitModel {
    let trips: Vec<Trip> = (0..3)
        .map(|k| Trip {
            trip_id: k + 1,
            mmsi: 100 + k,
            points: (0..150)
                .map(|i| {
                    AisPoint::new(
                        100 + k,
                        i as i64 * 60,
                        10.0 + i as f64 * 0.003,
                        56.0,
                        12.0,
                        90.0,
                    )
                })
                .collect(),
        })
        .collect();
    HabitModel::fit(
        &trips_to_table(&trips),
        HabitConfig::with_r_t(resolution, 100.0),
    )
    .expect("fit")
}

/// A real (small) `HFS1` blob to truncate and corrupt, built once.
fn state_blob() -> &'static [u8] {
    static BLOB: OnceLock<Vec<u8>> = OnceLock::new();
    BLOB.get_or_init(|| {
        let lane = |k: u64| Trip {
            trip_id: k,
            mmsi: 100 + k,
            points: (0..12)
                .map(|i| AisPoint::new(100 + k, i * 60, 10.0 + i as f64 * 0.01, 56.0, 12.0, 90.0))
                .collect(),
        };
        let table = trips_to_table(&[lane(1), lane(2)]);
        let state = FitState::accumulate(&table, HabitConfig::with_r_t(8, 100.0));
        state.expect("accumulate").to_bytes()
    })
}

/// The fit-state decoder's contract on hostile input: never panic, and
/// accept only what re-encodes to the very same bytes.
fn check_state_decode(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(state) = FitState::from_bytes(bytes) {
        prop_assert_eq!(state.to_bytes(), bytes.to_vec(), "accepted blob re-encodes");
        let _ = state.finalize(); // must not panic either
    }
    Ok(())
}

#[test]
fn fit_state_rejects_every_truncation() {
    let blob = state_blob();
    for cut in 0..blob.len() {
        assert!(FitState::from_bytes(&blob[..cut]).is_err(), "cut at {cut}");
    }
}

/// A real (small) v2 model blob — header, HBG1 graph, `HFS1` state —
/// finalized from [`state_blob`]'s state, built once.
fn v2_blob() -> &'static [u8] {
    static BLOB: OnceLock<Vec<u8>> = OnceLock::new();
    BLOB.get_or_init(|| {
        let state = FitState::from_bytes(state_blob()).expect("state blob");
        let model = HabitModel::from_fit_state(state).expect("finalize");
        assert_eq!(model.blob_version(), 2);
        model.to_bytes_full()
    })
}

#[test]
fn v2_blob_rejects_every_truncation() {
    let blob = v2_blob();
    assert!(HabitModel::from_bytes(blob).is_ok());
    for cut in 0..blob.len() {
        assert!(
            HabitModel::from_bytes(&blob[..cut]).is_err(),
            "cut at {cut}"
        );
    }
}

/// Trip lists the window must order itself: trip ids repeat across
/// entries, points arrive unsorted, and timestamps tie often. Points sit
/// on a lattice finer than an r=9 cell, so cells repeat and change.
fn unordered_trips() -> impl Strategy<Value = Vec<Trip>> {
    let point = (0i64..6, 0i32..6, 0i32..4);
    proptest::collection::vec((1u64..5, proptest::collection::vec(point, 1..12)), 1..8).prop_map(
        |entries| {
            entries
                .into_iter()
                .map(|(trip_id, points)| Trip {
                    trip_id,
                    mmsi: 100 + trip_id,
                    points: points
                        .into_iter()
                        .map(|(t, x, y)| {
                            let (lon, lat) =
                                (10.0 + f64::from(x) * 0.002, 56.0 + f64::from(y) * 0.0015);
                            AisPoint::new(100 + trip_id, t * 60, lon, lat, 10.0, 90.0)
                        })
                        .collect(),
                })
                .collect()
        },
    )
}

proptest! {
    /// The typed window lag against a naive reference: a kept row's
    /// `lag_cl` is the cell of its trip's row just before it in
    /// `(ts, input row)` order; drift trips (at most `min_cell_span`
    /// mutually adjacent cells) keep no rows; the rest keep all of
    /// theirs, emitted in `(trip_id, ts, input row)` order.
    #[test]
    fn lag_matches_naive_reference(trips in unordered_trips()) {
        let config = HabitConfig::default();
        let table = trips_to_table(&trips);
        let lagged = lagged_trip_table(&table, &config).expect("lag");
        let (trip, ts) = (table.trip_id(), table.ts());
        let grid = HexGrid::new();
        let cells: Vec<u64> = table
            .lon()
            .iter()
            .zip(table.lat())
            .map(|(&lon, &lat)| grid.cell(&GeoPoint::new(lon, lat), config.resolution).expect("cell").raw())
            .collect();

        let mut by_trip: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (row, &id) in trip.iter().enumerate() {
            by_trip.entry(id).or_default().push(row);
        }
        let mut expected = Vec::new();
        for rows in by_trip.values() {
            let distinct: BTreeSet<u64> = rows.iter().map(|&r| cells[r]).collect();
            let hexes: Vec<hexgrid::HexCell> = distinct
                .iter()
                .map(|&c| hexgrid::HexCell::from_raw(c).expect("valid"))
                .collect();
            let adjacent = hexes.iter().all(|&a| {
                hexes.iter().all(|&b| grid.grid_distance(a, b).is_ok_and(|d| d <= 1))
            });
            if distinct.len() <= config.min_cell_span && adjacent {
                continue;
            }
            let mut ordered = rows.clone();
            ordered.sort_by_key(|&r| (ts[r], r));
            for &row in &ordered {
                let before = rows
                    .iter()
                    .filter(|&&o| (ts[o], o) < (ts[row], row))
                    .max_by_key(|&&o| (ts[o], o));
                expected.push((row, cells[row], before.map(|&o| cells[o])));
            }
        }
        let got: Vec<(usize, u64, Option<u64>)> =
            lagged.rows().iter().map(|r| (r.row, r.cl, r.lag_cl)).collect();
        prop_assert_eq!(got, expected);
    }

    /// Arbitrary bytes — alone, or behind a real blob's first bytes so
    /// they reach the group sections — never panic the fit-state
    /// decoder, and anything it accepts re-encodes identically.
    #[test]
    fn fit_state_from_bytes_never_panics(
        keep in 0usize..2_048,
        tail in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        check_state_decode(&tail)?;
        let blob = state_blob();
        let mut bytes = blob[..keep.min(blob.len())].to_vec();
        bytes.extend_from_slice(&tail);
        check_state_decode(&bytes)?;
    }

    /// Single-bit flips of a real blob are rejected, or accepted only
    /// when the flipped blob re-encodes to itself.
    #[test]
    fn fit_state_bit_flips_are_rejected_or_stable(pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let mut bytes = state_blob().to_vec();
        let pos = (((bytes.len() - 1) as f64) * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        check_state_decode(&bytes)?;
    }

    /// Arbitrary bytes never panic the deserializer: they either decode
    /// to a valid model or return an error.
    #[test]
    fn from_bytes_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..4_096)) {
        let _ = HabitModel::from_bytes(&bytes);
    }

    /// Truncating a valid blob at any point yields an error, not a panic
    /// or a silently wrong model.
    #[test]
    fn truncated_blob_rejected(cut_frac in 0.0f64..0.999) {
        let model = lane_model(9);
        let bytes = model.to_bytes();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        prop_assert!(HabitModel::from_bytes(&bytes[..cut]).is_err());
    }

    /// Single-byte corruption anywhere in the payload is either caught
    /// or produces a model that still answers without panicking.
    #[test]
    fn bit_flips_are_contained(pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let model = lane_model(8);
        let mut bytes = model.to_bytes();
        let pos = (((bytes.len() - 1) as f64) * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        if let Ok(m) = HabitModel::from_bytes(&bytes) {
            let gap = GapQuery::new(10.05, 56.0, 0, 10.4, 56.0, 3600);
            let _ = m.impute(&gap); // must not panic
        }
    }

    /// Single-bit flips of a v2 blob — in its header, graph or state —
    /// are typed errors, or load a model that imputes without panicking.
    #[test]
    fn v2_bit_flips_are_contained(pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let mut bytes = v2_blob().to_vec();
        let pos = (((bytes.len() - 1) as f64) * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        if let Ok(m) = HabitModel::from_bytes(&bytes) {
            let gap = GapQuery::new(10.01, 56.0, 0, 10.09, 56.0, 3600);
            let _ = m.impute(&gap); // must not panic
        }
    }

    /// A model blob is exactly its layout: any non-empty tail appended
    /// to a v1 or a v2 blob is rejected.
    #[test]
    fn appended_tail_rejected(tail in proptest::collection::vec(any::<u8>(), 1..64)) {
        let lean = HabitModel::from_bytes(v2_blob()).expect("v2 loads").to_bytes();
        for blob in [lean.as_slice(), v2_blob()] {
            let mut bytes = blob.to_vec();
            bytes.extend_from_slice(&tail);
            prop_assert!(HabitModel::from_bytes(&bytes).is_err());
        }
    }

    /// Imputation output invariants across gap geometries: endpoints
    /// preserved, timestamps monotone and spanning the gap, simplified
    /// path no longer than the raw path.
    #[test]
    fn imputation_invariants(
        start_frac in 0.0f64..0.4,
        end_frac in 0.55f64..1.0,
        duration_s in 600i64..14_400,
    ) {
        let model = lane_model(9);
        let lon0 = 10.0 + 0.45 * start_frac;
        let lon1 = 10.0 + 0.45 * end_frac;
        let gap = GapQuery::new(lon0, 56.0, 0, lon1, 56.0, duration_s);
        let imp = model.impute(&gap).expect("on-lane gap imputes");
        let first = imp.points.first().expect("non-empty");
        let last = imp.points.last().expect("non-empty");
        prop_assert_eq!(first.t, 0);
        prop_assert_eq!(last.t, duration_s);
        prop_assert!((first.pos.lon - lon0).abs() < 1e-9);
        prop_assert!((last.pos.lon - lon1).abs() < 1e-9);
        prop_assert!(imp.points.windows(2).all(|w| w[0].t <= w[1].t));
        prop_assert!(imp.points.len() <= imp.raw_point_count.max(2));
        prop_assert!(!imp.cells.is_empty());
    }

    /// Config encode/decode round-trips for every combination.
    #[test]
    fn config_codes_round_trip(res in 0u8..=15, proj in 0u8..2, weight in 0u8..3, tol in 0.0f64..2_000.0) {
        let config = HabitConfig {
            resolution: res,
            projection: if proj == 0 { CellProjection::Center } else { CellProjection::Median },
            weight_scheme: match weight {
                1 => WeightScheme::InverseTransitions,
                2 => WeightScheme::NegLogFrequency,
                _ => WeightScheme::Hops,
            },
            rdp_tolerance_m: tol,
            ..HabitConfig::default()
        };
        let back = HabitConfig::decode(
            config.resolution,
            config.projection_code(),
            config.weight_code(),
            config.rdp_tolerance_m,
        );
        prop_assert_eq!(back.resolution, config.resolution);
        prop_assert_eq!(back.projection, config.projection);
        prop_assert_eq!(back.weight_scheme, config.weight_scheme);
        prop_assert_eq!(back.rdp_tolerance_m, config.rdp_tolerance_m);
    }
}
