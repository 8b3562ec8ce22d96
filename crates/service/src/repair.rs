//! Whole-track repair: find every silence in a track and splice the
//! imputed interiors back in.
//!
//! A single gap query is what `impute` answers; real AIS tracks contain
//! *several* silences (paper §1: "multiple such gaps may be observed,
//! greatly diminishing the value of such data"). `Service::repair`
//! sends a track's silences as one submission, the way `impute_batch`
//! sends its gaps, so one engine pass answers them all. This module
//! holds the two track-side halves around that pass: [`silences`]
//! before it and [`splice`] after it.

use crate::error::ServiceError;
use crate::response::{RepairOutcome, RepairedGap};
use geo_kernel::TimedPoint;
use habit_core::{GapQuery, Imputation, PointProvenance, ProvenanceKind};

/// Every silence of at least `threshold_s` seconds between consecutive
/// reports of `track`: the index of the report before it, and the gap
/// query between the two reports.
pub(crate) fn silences(track: &[TimedPoint], threshold_s: i64) -> (Vec<usize>, Vec<GapQuery>) {
    track
        .windows(2)
        .enumerate()
        .filter(|(_, w)| w[1].t - w[0].t >= threshold_s)
        .map(|(i, w)| {
            (
                i,
                GapQuery {
                    start: w[0],
                    end: w[1],
                },
            )
        })
        .unzip()
}

/// The repaired track: `track` verbatim, with each answered silence's
/// interior points spliced in after the report at its index in
/// `after`. A failed silence is left unfilled and keeps its error.
pub(crate) fn splice(
    track: &[TimedPoint],
    after: &[usize],
    answers: Vec<Result<Imputation, ServiceError>>,
    densify_max_spacing_m: Option<f64>,
) -> RepairOutcome {
    let mut points = Vec::with_capacity(track.len());
    let mut gaps = Vec::with_capacity(after.len());
    let mut copied = 0;
    for (&i, answer) in after.iter().zip(answers) {
        points.extend_from_slice(&track[copied..=i]);
        copied = i + 1;
        let (before, next) = (track[i].t, track[i + 1].t);
        let mut gap = RepairedGap {
            after_index: i,
            duration_s: next - before,
            points_added: 0,
            error: None,
            provenance: None,
        };
        match answer {
            Ok(imputation) => {
                let (interior, provenance) =
                    interior(imputation, before, next, densify_max_spacing_m);
                gap.points_added = interior.len();
                gap.provenance = provenance;
                points.extend(interior);
            }
            Err(e) => gap.error = Some(e),
        }
        gaps.push(gap);
    }
    points.extend_from_slice(&track[copied..]);
    RepairOutcome {
        points,
        points_added: gaps.iter().map(|g| g.points_added).sum(),
        gaps,
    }
}

/// The points of `imputation` strictly between `t0` and `t1` (the
/// endpoints are the track's own reports), densified first when a
/// spacing is set, with the provenance records, when requested, kept
/// in lockstep with the points that survive.
fn interior(
    imputation: Imputation,
    t0: i64,
    t1: i64,
    densify_max_spacing_m: Option<f64>,
) -> (Vec<TimedPoint>, Option<Vec<PointProvenance>>) {
    let mut segment = imputation.points;
    let mut records = imputation.provenance;
    if let Some(spacing) = densify_max_spacing_m {
        records = records.map(|r| densified_provenance(&segment, &r, spacing));
        segment = geo_kernel::resample_timed_max_spacing(&segment, spacing);
    }
    let inside = |q: &TimedPoint| q.t > t0 && q.t < t1;
    let records = records.map(|r| {
        segment
            .iter()
            .zip(r)
            .filter(|(q, _)| inside(q))
            .map(|(_, record)| record)
            .collect()
    });
    segment.retain(inside);
    (segment, records)
}

/// Provenance records for the densified form of `segment`: replays
/// [`geo_kernel::resample_timed_max_spacing`]'s insertion walk so the
/// output stays parallel to it. Each inserted point is synthesized on
/// the way to `segment[i + 1]`, so it inherits that vertex's evidence
/// with the kind rewritten.
fn densified_provenance(
    segment: &[TimedPoint],
    records: &[PointProvenance],
    max_spacing_m: f64,
) -> Vec<PointProvenance> {
    debug_assert_eq!(segment.len(), records.len());
    if segment.len() < 2 {
        return records.to_vec();
    }
    let mut out = Vec::with_capacity(records.len() * 2);
    out.push(records[0].clone());
    for (i, w) in segment.windows(2).enumerate() {
        let d = geo_kernel::haversine_m(&w[0].pos, &w[1].pos);
        if d > max_spacing_m {
            let pieces = (d / max_spacing_m).ceil() as usize;
            for _ in 1..pieces {
                let mut synth = records[i + 1].clone();
                synth.kind = ProvenanceKind::Synthesized;
                out.push(synth);
            }
        }
        out.push(records[i + 1].clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::{
        ErrorCode, RepairConfig, RepairOutcome, Request, Response, Service, ServiceConfig,
        ServiceError,
    };
    use ais::{trips_to_table, AisPoint, Trip};
    use geo_kernel::TimedPoint;
    use habit_core::{HabitConfig, HabitModel, ProvenanceKind};

    /// A service over a model of straight east-bound lane trips.
    fn lane_service() -> Service {
        let trips: Vec<Trip> = (0..4)
            .map(|k| Trip {
                trip_id: k + 1,
                mmsi: 100 + k,
                points: (0..200)
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
        let model =
            HabitModel::fit(&trips_to_table(&trips), HabitConfig::with_r_t(9, 100.0)).expect("fit");
        Service::with_model(
            ServiceConfig {
                threads: 2,
                cache_capacity: 64,
            },
            model,
        )
    }

    /// A track along the lane with two silences carved out.
    fn gappy_track() -> Vec<TimedPoint> {
        (0..200i64)
            .filter(|i| !(40..70).contains(i) && !(120..160).contains(i))
            .map(|i| TimedPoint::new(10.0 + i as f64 * 0.003, 56.0, i * 60))
            .collect()
    }

    fn repair(
        svc: &Service,
        track: &[TimedPoint],
        config: RepairConfig,
        provenance: bool,
    ) -> Result<RepairOutcome, ServiceError> {
        let request = Request::Repair {
            track: track.to_vec(),
            config,
            provenance,
        };
        match svc.handle(&request)? {
            Response::Repaired(outcome) => Ok(outcome),
            other => panic!("repair answered {other:?}"),
        }
    }

    #[test]
    fn repairs_every_gap_above_threshold() {
        let svc = lane_service();
        let track = gappy_track();
        let config = RepairConfig {
            gap_threshold_s: 20 * 60,
            ..RepairConfig::default()
        };
        let report = repair(&svc, &track, config, false).expect("repair");
        assert_eq!(report.gaps_found(), 2, "{:?}", report.gaps);
        assert_eq!(report.gaps_imputed(), 2);
        assert!(report.points_added > 0);
        assert_eq!(report.points.len(), track.len() + report.points_added);
        // Strictly time-ordered output containing all original reports.
        assert!(report.points.windows(2).all(|w| w[0].t <= w[1].t));
        for p in &track {
            assert!(report.points.iter().any(|q| q.t == p.t && q.pos == p.pos));
        }
        // Gap durations are as carved.
        assert_eq!(report.gaps[0].duration_s, 31 * 60);
        assert_eq!(report.gaps[1].duration_s, 41 * 60);
    }

    #[test]
    fn threshold_excludes_small_gaps() {
        let svc = lane_service();
        let track = gappy_track();
        // Threshold above both silences: nothing to repair.
        let config = RepairConfig {
            gap_threshold_s: 3 * 3600,
            densify_max_spacing_m: None,
        };
        let report = repair(&svc, &track, config, false).expect("repair");
        assert_eq!(report.gaps_found(), 0);
        assert_eq!(report.points, track);
    }

    #[test]
    fn densification_bounds_spacing() {
        let svc = lane_service();
        let config = RepairConfig {
            gap_threshold_s: 20 * 60,
            densify_max_spacing_m: Some(200.0),
        };
        let repaired = repair(&svc, &gappy_track(), config, false)
            .expect("repair")
            .points;
        // Inside repaired windows, consecutive spacing ≤ 200 m (with
        // slack for the splice boundaries).
        let mut max_gap_spacing = 0.0f64;
        for w in repaired.windows(2) {
            // Only check pairs inside the formerly silent windows.
            let mid_t = (w[0].t + w[1].t) / 2;
            let in_gap =
                (40 * 60..70 * 60).contains(&mid_t) || (120 * 60..160 * 60).contains(&mid_t);
            if in_gap {
                max_gap_spacing =
                    max_gap_spacing.max(geo_kernel::haversine_m(&w[0].pos, &w[1].pos));
            }
        }
        assert!(
            max_gap_spacing <= 450.0,
            "imputed spacing {max_gap_spacing:.0} m should respect densification"
        );
    }

    #[test]
    fn provenance_variant_matches_points_and_labels_densified_inserts() {
        let svc = lane_service();
        let track = gappy_track();
        let config = RepairConfig {
            gap_threshold_s: 20 * 60,
            densify_max_spacing_m: Some(200.0),
        };
        let plain = repair(&svc, &track, config, false).expect("repair");
        let with = repair(&svc, &track, config, true).expect("repair");

        // The repaired track is byte-identical to the plain variant's.
        assert_eq!(plain.points.len(), with.points.len());
        for (a, b) in plain.points.iter().zip(&with.points) {
            assert_eq!(a.pos.lon.to_bits(), b.pos.lon.to_bits());
            assert_eq!(a.pos.lat.to_bits(), b.pos.lat.to_bits());
            assert_eq!(a.t, b.t);
        }

        // Every successful gap carries one record per spliced point,
        // and the tight spacing bound forces synthesized inserts.
        let mut synthesized = 0usize;
        for gap in &with.gaps {
            let prov = gap.provenance.as_ref().expect("requested provenance");
            assert_eq!(prov.len(), gap.points_added);
            synthesized += prov
                .iter()
                .filter(|r| r.kind == ProvenanceKind::Synthesized)
                .count();
        }
        assert!(synthesized > 0, "200 m bound must densify the lane");

        // The plain variant reports no provenance at all.
        assert!(plain.gaps.iter().all(|g| g.provenance.is_none()));
    }

    #[test]
    fn unsorted_input_rejected() {
        let svc = lane_service();
        let mut track = gappy_track();
        track.swap(0, 1);
        let err = repair(&svc, &track, RepairConfig::default(), false).unwrap_err();
        assert_eq!(
            err,
            ServiceError::new(ErrorCode::UnsortedInput, "track is not sorted by timestamp")
        );
    }

    #[test]
    fn failed_gaps_are_reported_not_dropped() {
        let svc = lane_service();
        // The lane edges point east; a west-bound gap has no path.
        let track = vec![
            TimedPoint::new(10.55, 56.0, 0),
            TimedPoint::new(10.05, 56.0, 2 * 3600),
            TimedPoint::new(10.04, 56.0, 2 * 3600 + 60),
        ];
        let report = repair(&svc, &track, RepairConfig::default(), false).expect("repair");
        assert_eq!(report.gaps_found(), 1);
        let error = report.gaps[0].error.as_ref().expect("no path west");
        assert_eq!(error.code, ErrorCode::NoPath);
        assert!(
            error.message.starts_with("no path between cells"),
            "{error}"
        );
        // The original reports all survive, and nothing was added.
        assert_eq!(report.points, track);
        assert_eq!(report.points_added, 0);
    }
}
