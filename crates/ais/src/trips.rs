//! Trip segmentation.
//!
//! The paper's definition (§3.1): a *trip* is the subsequence of AIS
//! locations between two successive stops or communication gaps. A stop's
//! first location ends the current trip; its last location starts the
//! next; a gap longer than ΔT ends the trip abruptly.

use crate::clean::{clean_trajectory, CleanConfig};
use crate::events::{annotate, EventConfig, MobilityEvent};
use crate::types::{AisPoint, Trajectory};

/// Configuration for segmentation.
#[derive(Debug, Clone, Copy, Default)]
pub struct TripConfig {
    /// Cleaning thresholds applied before segmentation.
    pub clean: CleanConfig,
    /// Event thresholds (stop speed, ΔT, …).
    pub events: EventConfig,
}

/// A segmented trip: the training/query unit of HABIT.
#[derive(Debug, Clone)]
pub struct Trip {
    /// Globally unique trip identifier (`TRIP_ID` in the paper).
    pub trip_id: u64,
    /// Vessel MMSI.
    pub mmsi: u64,
    /// Time-ordered reports, all in motion (stop interiors removed).
    pub points: Vec<AisPoint>,
}

impl Trip {
    /// Duration in seconds.
    pub fn duration_s(&self) -> i64 {
        match (self.points.first(), self.points.last()) {
            (Some(f), Some(l)) => l.t - f.t,
            _ => 0,
        }
    }

    /// Positions only.
    pub fn positions(&self) -> Vec<geo_kernel::GeoPoint> {
        self.points.iter().map(|p| p.pos).collect()
    }
}

/// Cleans and segments one vessel's stream into trips.
///
/// `next_trip_id` supplies identifiers and is advanced; trips shorter than
/// 3 reports are discarded (they cannot carry a transition).
pub fn segment_trajectory(
    traj: &Trajectory,
    cfg: &TripConfig,
    next_trip_id: &mut u64,
) -> Vec<Trip> {
    let (cleaned, _) = clean_trajectory(traj, &cfg.clean);
    if cleaned.len() < 3 {
        return Vec::new();
    }
    let events = annotate(&cleaned, &cfg.events);

    // Build cut intervals: [start, end] index ranges that terminate a trip.
    // For a stop, everything inside the stop belongs to no trip; the stop
    // start ends the previous trip, the stop end begins the next one.
    // For a gap, the cut is between `before` and `after`.
    #[derive(Clone, Copy)]
    struct Cut {
        /// Last index that may close the previous trip (inclusive).
        end_prev: usize,
        /// First index that may open the next trip (inclusive).
        start_next: usize,
    }
    let mut cuts: Vec<Cut> = Vec::new();
    for e in &events {
        match e {
            MobilityEvent::Stop { start, end } => cuts.push(Cut {
                end_prev: *start,
                start_next: *end,
            }),
            MobilityEvent::Gap { before, after, .. } => cuts.push(Cut {
                end_prev: *before,
                start_next: *after,
            }),
        }
    }
    cuts.sort_by_key(|c| c.end_prev);

    let mut trips = Vec::new();
    let mut cursor = 0usize; // first index of the current trip
    for cut in cuts {
        if cut.end_prev + 1 > cursor {
            push_trip(&cleaned, cursor, cut.end_prev, next_trip_id, &mut trips);
        }
        cursor = cursor.max(cut.start_next);
    }
    if cursor < cleaned.len() {
        push_trip(
            &cleaned,
            cursor,
            cleaned.len() - 1,
            next_trip_id,
            &mut trips,
        );
    }
    trips
}

fn push_trip(
    cleaned: &Trajectory,
    start: usize,
    end: usize,
    next_trip_id: &mut u64,
    trips: &mut Vec<Trip>,
) {
    if end < start || end - start + 1 < 3 {
        return;
    }
    let points = cleaned.points[start..=end].to_vec();
    trips.push(Trip {
        trip_id: *next_trip_id,
        mmsi: cleaned.mmsi,
        points,
    });
    *next_trip_id += 1;
}

/// Segments many vessels, assigning globally unique sequential trip ids
/// starting at 1.
pub fn segment_all(trajectories: &[Trajectory], cfg: &TripConfig) -> Vec<Trip> {
    segment_all_from(trajectories, cfg, 1)
}

/// Like [`segment_all`], but with trip ids continuing from `first_id` —
/// the incremental-refit seam: a delta's ids must continue where the
/// fitted history's segmentation stopped, so that refitting is
/// id-for-id identical to re-segmenting the concatenated input (the
/// fit counts *distinct* trip ids per transition; aliased ids would
/// under-count).
pub fn segment_all_from(trajectories: &[Trajectory], cfg: &TripConfig, first_id: u64) -> Vec<Trip> {
    let mut next_id = first_id;
    let mut trips = Vec::new();
    for traj in trajectories {
        trips.extend(segment_trajectory(traj, cfg, &mut next_id));
    }
    trips
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leg(mmsi: u64, t0: i64, n: usize, lon0: f64, sog: f64) -> Vec<AisPoint> {
        (0..n)
            .map(|i| {
                AisPoint::new(
                    mmsi,
                    t0 + i as i64 * 60,
                    lon0 + i as f64 * 0.003,
                    55.0,
                    sog,
                    90.0,
                )
            })
            .collect()
    }

    fn berth(mmsi: u64, t0: i64, n: usize, lon: f64) -> Vec<AisPoint> {
        (0..n)
            .map(|i| AisPoint::new(mmsi, t0 + i as i64 * 60, lon, 55.0, 0.1, 0.0))
            .collect()
    }

    #[test]
    fn stop_splits_into_two_trips() {
        // Sail 30 min, berth 20 min, sail 30 min.
        let mut pts = leg(1, 0, 30, 10.0, 12.0);
        pts.extend(berth(1, 30 * 60, 20, 10.1));
        pts.extend(leg(1, 50 * 60, 30, 10.1, 12.0));
        let trips = segment_all(&[Trajectory::new(1, pts)], &TripConfig::default());
        assert_eq!(
            trips.len(),
            2,
            "{:?}",
            trips.iter().map(|t| t.points.len()).collect::<Vec<_>>()
        );
        assert_eq!(trips[0].trip_id, 1);
        assert_eq!(trips[1].trip_id, 2);
        // Trip interiors are moving points only.
        for t in &trips {
            let moving = t.points.iter().filter(|p| p.sog > 0.5).count();
            assert!(moving as f64 / t.points.len() as f64 > 0.9);
        }
    }

    #[test]
    fn gap_splits_trip() {
        let mut pts = leg(1, 0, 20, 10.0, 12.0);
        pts.extend(leg(1, 20 * 60 + 3 * 3600, 20, 10.5, 12.0)); // 3 h silence
        let trips = segment_all(&[Trajectory::new(1, pts)], &TripConfig::default());
        assert_eq!(trips.len(), 2);
        assert!(trips[0].duration_s() < 30 * 60);
    }

    #[test]
    fn short_gaps_do_not_split() {
        let mut pts = leg(1, 0, 20, 10.0, 12.0);
        pts.extend(leg(1, 20 * 60 + 20 * 60, 20, 10.08, 12.0)); // 20 min < ΔT
        let trips = segment_all(&[Trajectory::new(1, pts)], &TripConfig::default());
        assert_eq!(trips.len(), 1);
        assert_eq!(trips[0].points.len(), 40);
    }

    #[test]
    fn tiny_fragments_discarded() {
        let pts = leg(1, 0, 2, 10.0, 12.0);
        let trips = segment_all(&[Trajectory::new(1, pts)], &TripConfig::default());
        assert!(trips.is_empty());
    }

    #[test]
    fn ids_unique_across_vessels() {
        let a = Trajectory::new(1, leg(1, 0, 10, 10.0, 12.0));
        let b = Trajectory::new(2, leg(2, 0, 10, 11.0, 12.0));
        let trips = segment_all(&[a, b], &TripConfig::default());
        assert_eq!(trips.len(), 2);
        assert_ne!(trips[0].trip_id, trips[1].trip_id);
        assert_eq!(trips[0].mmsi, 1);
        assert_eq!(trips[1].mmsi, 2);
    }

    #[test]
    fn multiple_stops_multiple_trips() {
        let mut pts = Vec::new();
        let mut t = 0i64;
        let mut lon = 10.0;
        for _ in 0..3 {
            pts.extend(leg(1, t, 25, lon, 12.0));
            t += 25 * 60;
            lon += 25.0 * 0.003;
            pts.extend(berth(1, t, 15, lon));
            t += 15 * 60;
        }
        let trips = segment_all(&[Trajectory::new(1, pts)], &TripConfig::default());
        assert_eq!(trips.len(), 3);
    }
}
