//! Mobility-event annotation.
//!
//! The two trip delimiters of the event taxonomy in the
//! trajectory-compression framework the paper builds on \[7\]: stops,
//! found by watching speed, and communication gaps, found by watching
//! report times. HABIT's segmentation (`trips`) cuts trips at both.

use crate::types::Trajectory;

/// Annotation thresholds (paper defaults in §3.1).
#[derive(Debug, Clone, Copy)]
pub struct EventConfig {
    /// A vessel is stopped below this SOG (knots). Paper: 0.5 kn.
    pub stop_speed_knots: f64,
    /// Minimum duration of a stop (seconds) before it is reported.
    pub stop_min_duration_s: i64,
    /// Communication gap threshold ΔT (seconds). Paper: 30 minutes.
    pub gap_threshold_s: i64,
}

impl Default for EventConfig {
    fn default() -> Self {
        Self {
            stop_speed_knots: 0.5,
            stop_min_duration_s: 300,
            gap_threshold_s: 30 * 60,
        }
    }
}

/// A semantic annotation over a cleaned trajectory. Indices refer to
/// `trajectory.points`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MobilityEvent {
    /// The vessel remained (nearly) stationary over `[start, end]`.
    Stop {
        /// First index of the stop.
        start: usize,
        /// Last index of the stop.
        end: usize,
    },
    /// No report received between `before` and `after` for longer than ΔT.
    Gap {
        /// Index of the last report before the silence.
        before: usize,
        /// Index of the first report after the silence.
        after: usize,
        /// Silence duration in seconds.
        duration_s: i64,
    },
}

/// Annotates a cleaned, time-sorted trajectory with mobility events,
/// emitted in index order.
pub fn annotate(traj: &Trajectory, cfg: &EventConfig) -> Vec<MobilityEvent> {
    let pts = &traj.points;
    let mut events = Vec::new();
    if pts.len() < 2 {
        return events;
    }

    for i in 1..pts.len() {
        let dt = pts[i].t - pts[i - 1].t;
        if dt > cfg.gap_threshold_s {
            events.push(MobilityEvent::Gap {
                before: i - 1,
                after: i,
                duration_s: dt,
            });
        }
    }

    // Stops: maximal runs of reports below the stop speed that last at
    // least the minimum duration.
    let mut run_start: Option<usize> = None;
    for i in 0..=pts.len() {
        let stopped = i < pts.len() && pts[i].sog < cfg.stop_speed_knots;
        match (run_start, stopped) {
            (None, true) => run_start = Some(i),
            (Some(start), false) => {
                let end = i - 1;
                if end > start && pts[end].t - pts[start].t >= cfg.stop_min_duration_s {
                    events.push(MobilityEvent::Stop { start, end });
                }
                run_start = None;
            }
            _ => {}
        }
    }

    events.sort_by_key(event_index);
    events
}

/// Primary index of an event, for ordering.
fn event_index(e: &MobilityEvent) -> usize {
    match e {
        MobilityEvent::Stop { start, .. } => *start,
        MobilityEvent::Gap { before, .. } => *before,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::AisPoint;

    fn cruise(mmsi: u64, start_t: i64, n: usize, sog: f64, cog: f64) -> Vec<AisPoint> {
        (0..n)
            .map(|i| {
                AisPoint::new(
                    mmsi,
                    start_t + i as i64 * 60,
                    10.0 + i as f64 * 0.002,
                    55.0,
                    sog,
                    cog,
                )
            })
            .collect()
    }

    #[test]
    fn detects_gap() {
        let mut pts = cruise(1, 0, 5, 10.0, 90.0);
        let mut tail = cruise(1, 5 * 60 + 3600 * 2, 5, 10.0, 90.0);
        pts.append(&mut tail);
        let events = annotate(&Trajectory::new(1, pts), &EventConfig::default());
        let gaps: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, MobilityEvent::Gap { .. }))
            .collect();
        assert_eq!(gaps.len(), 1);
        match gaps[0] {
            MobilityEvent::Gap {
                before,
                after,
                duration_s,
            } => {
                assert_eq!(*before, 4);
                assert_eq!(*after, 5);
                assert!(*duration_s >= 7200);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn detects_stop_of_sufficient_duration() {
        let mut pts = cruise(1, 0, 5, 10.0, 90.0);
        // 10-minute stop (sog 0.1) at the quay.
        for i in 0..10 {
            pts.push(AisPoint::new(1, 300 + i * 60, 10.01, 55.0, 0.1, 0.0));
        }
        pts.extend(cruise(1, 1000, 5, 10.0, 90.0));
        let events = annotate(&Trajectory::new(1, pts), &EventConfig::default());
        assert!(
            events
                .iter()
                .any(|e| matches!(e, MobilityEvent::Stop { .. })),
            "events: {events:?}"
        );
    }

    #[test]
    fn short_stationary_blip_not_a_stop() {
        let mut pts = cruise(1, 0, 3, 10.0, 90.0);
        pts.push(AisPoint::new(1, 200, 10.006, 55.0, 0.1, 90.0)); // single slow ping
        pts.extend(cruise(1, 260, 3, 10.0, 90.0));
        let events = annotate(&Trajectory::new(1, pts), &EventConfig::default());
        assert!(!events
            .iter()
            .any(|e| matches!(e, MobilityEvent::Stop { .. })));
    }

    #[test]
    fn slow_reports_flanking_a_stop_leave_its_interval_unchanged() {
        // cruise, slow approach, a 10-minute stop, slow departure, cruise:
        // the stop is exactly the run of reports below the stop speed.
        let mut pts = cruise(1, 0, 3, 10.0, 90.0);
        for i in 0..3 {
            pts.push(AisPoint::new(1, 180 + i * 60, 10.006, 55.0, 1.2, 90.0));
        }
        for i in 0..11 {
            pts.push(AisPoint::new(1, 360 + i * 60, 10.007, 55.0, 0.1, 0.0));
        }
        for i in 0..3 {
            pts.push(AisPoint::new(1, 1020 + i * 60, 10.008, 55.0, 1.5, 90.0));
        }
        pts.extend(cruise(1, 1200, 3, 10.0, 90.0));
        let events = annotate(&Trajectory::new(1, pts), &EventConfig::default());
        assert_eq!(events, vec![MobilityEvent::Stop { start: 6, end: 16 }]);
    }

    #[test]
    fn tiny_trajectories_are_quiet() {
        assert!(annotate(&Trajectory::default(), &EventConfig::default()).is_empty());
        let one = Trajectory::new(1, cruise(1, 0, 1, 10.0, 0.0));
        assert!(annotate(&one, &EventConfig::default()).is_empty());
    }
}
