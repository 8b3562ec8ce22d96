//! Synthetic gap injection (paper §4.1).
//!
//! "To assess the imputation results, we introduced synthetic gaps of
//! fixed duration: 60, 120, and 240 minutes (default: 60 minutes). A
//! single gap was placed randomly within each trip. The original trips
//! (without artificial gaps) serve as ground-truth."

use ais::Trip;
use geo_kernel::TimedPoint;
use habit_core::GapQuery;
use rand::Rng;

/// A gap injected into a test trip: the query given to the imputation
/// methods plus the ground-truth segment that was removed.
#[derive(Debug, Clone)]
pub struct GapCase {
    /// Trip the gap came from.
    pub trip_id: u64,
    /// Vessel that sailed the trip.
    pub mmsi: u64,
    /// The imputation query (endpoints of the removed window).
    pub query: GapQuery,
    /// Ground truth: the original reports inside the gap, endpoints
    /// included.
    pub truth: Vec<TimedPoint>,
}

/// Removes a random window of `duration_s` seconds from the interior of
/// `trip`. Returns `None` when the trip is too short to host the gap
/// while keeping at least one report on each side and at least one
/// removed interior report.
pub fn inject_gap<R: Rng>(trip: &Trip, duration_s: i64, rng: &mut R) -> Option<GapCase> {
    let pts = &trip.points;
    if pts.len() < 5 {
        return None;
    }
    let t0 = pts.first().expect("non-empty").t;
    let t1 = pts.last().expect("non-empty").t;
    if t1 - t0 <= duration_s {
        return None; // trip shorter than the gap
    }

    // Random gap start among indices whose window fits inside the trip.
    let latest_start_t = t1 - duration_s;
    let candidates: Vec<usize> = (1..pts.len() - 1)
        .filter(|&i| pts[i].t <= latest_start_t)
        .collect();
    if candidates.is_empty() {
        return None;
    }
    // Try a few placements until one encloses at least one interior point.
    for _ in 0..8 {
        let start_idx = candidates[rng.gen_range(0..candidates.len())];
        let gap_start_t = pts[start_idx].t;
        let gap_end_t = gap_start_t + duration_s;
        // First report at or after the end of the silence.
        let end_idx = match pts.binary_search_by_key(&gap_end_t, |p| p.t) {
            Ok(i) => i,
            Err(i) => i,
        };
        if end_idx >= pts.len() {
            continue;
        }
        if end_idx <= start_idx + 1 {
            continue; // no interior reports would be removed
        }
        let truth: Vec<TimedPoint> = pts[start_idx..=end_idx]
            .iter()
            .map(|p| TimedPoint { pos: p.pos, t: p.t })
            .collect();
        let s = &pts[start_idx];
        let e = &pts[end_idx];
        return Some(GapCase {
            trip_id: trip.trip_id,
            mmsi: trip.mmsi,
            query: GapQuery::new(s.pos.lon, s.pos.lat, s.t, e.pos.lon, e.pos.lat, e.t),
            truth,
        });
    }
    None
}

/// Injects one gap into every eligible trip; trips that cannot host the
/// gap are skipped (mirrors the paper's per-trip single gap).
pub fn inject_gaps<R: Rng>(trips: &[Trip], duration_s: i64, rng: &mut R) -> Vec<GapCase> {
    trips
        .iter()
        .filter_map(|t| inject_gap(t, duration_s, rng))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ais::AisPoint;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn long_trip() -> Trip {
        Trip {
            trip_id: 1,
            mmsi: 9,
            points: (0..240)
                .map(|i| AisPoint::new(9, i * 60, 10.0 + i as f64 * 0.003, 56.0, 12.0, 90.0))
                .collect(),
        }
    }

    #[test]
    fn gap_has_requested_duration() {
        let mut rng = StdRng::seed_from_u64(1);
        let case = inject_gap(&long_trip(), 3600, &mut rng).unwrap();
        let dur = case.query.duration_s();
        // End snaps to the next report at/after the silence, so duration
        // is within one report interval of the nominal value.
        assert!((3600..3700).contains(&dur), "duration {dur}");
        assert!(case.truth.len() > 10, "truth points {}", case.truth.len());
        // Ground truth endpoints equal the query endpoints.
        assert_eq!(case.truth.first().unwrap().t, case.query.start.t);
        assert_eq!(case.truth.last().unwrap().t, case.query.end.t);
    }

    #[test]
    fn too_short_trip_is_skipped() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut trip = long_trip();
        trip.points.truncate(30); // 30 minutes < 60-minute gap
        assert!(inject_gap(&trip, 3600, &mut rng).is_none());
    }

    #[test]
    fn deterministic_with_seed() {
        let a = inject_gap(&long_trip(), 3600, &mut StdRng::seed_from_u64(5)).unwrap();
        let b = inject_gap(&long_trip(), 3600, &mut StdRng::seed_from_u64(5)).unwrap();
        assert_eq!(a.query.start.t, b.query.start.t);
    }

    #[test]
    fn inject_many() {
        let trips: Vec<Trip> = (0..10)
            .map(|k| {
                let mut t = long_trip();
                t.trip_id = k;
                t
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(2);
        let cases = inject_gaps(&trips, 3600, &mut rng);
        assert_eq!(cases.len(), 10);
        // 4-hour gaps do not fit in 4-hour trips.
        let cases4h = inject_gaps(&trips, 4 * 3600, &mut rng);
        assert!(cases4h.is_empty());
    }
}
