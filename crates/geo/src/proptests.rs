//! Property-based tests for the geodesy kernel: RDP bounds, resampling
//! invariants, bearing/destination round trips, and distance sanity.

use crate::distance::{destination_point, haversine_m};
use crate::point::{GeoPoint, TimedPoint};
use crate::polyline::{point_segment_distance_m, resample_max_spacing};
use crate::rdp::{
    rdp, rdp_in_place, rdp_indices, rdp_indices_reference, rdp_timed, rdp_timed_in_place,
    RdpScratch,
};
use proptest::prelude::*;

/// A random wandering path around a mid-latitude region.
fn wander_path() -> impl Strategy<Value = Vec<GeoPoint>> {
    (2usize..80, 0u64..1_000_000, -30f64..30.0, 40f64..58.0).prop_map(|(n, seed, lon0, lat0)| {
        // xorshift-ish deterministic walk; proptest provides variety
        // through (n, seed, origin).
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut pts = vec![GeoPoint::new(lon0, lat0)];
        for _ in 1..n {
            let last = *pts.last().expect("non-empty");
            pts.push(GeoPoint::new(
                last.lon + next() * 0.02,
                (last.lat + next() * 0.015).clamp(-85.0, 85.0),
            ));
        }
        pts
    })
}

proptest! {
    /// RDP keeps the endpoints, returns a subsequence, and every dropped
    /// vertex stays within the tolerance of the simplified path.
    #[test]
    fn rdp_invariants(path in wander_path(), tol_m in 10f64..5_000.0) {
        let simplified = rdp(&path, tol_m);
        prop_assert!(simplified.len() >= 2 || path.len() < 2);
        prop_assert_eq!(simplified.first(), path.first());
        prop_assert_eq!(simplified.last(), path.last());
        prop_assert!(simplified.len() <= path.len());

        // Subsequence check.
        let mut cursor = 0usize;
        for p in &simplified {
            let found = path[cursor..].iter().position(|q| q == p);
            prop_assert!(found.is_some(), "output must be a subsequence");
            cursor += found.expect("checked") ;
        }

        // Deviation bound: every original vertex within tol of some
        // simplified segment (RDP's defining guarantee).
        for p in &path {
            let mut best = f64::INFINITY;
            for w in simplified.windows(2) {
                best = best.min(point_segment_distance_m(p, &w[0], &w[1]));
            }
            if simplified.len() == 1 {
                best = haversine_m(p, &simplified[0]);
            }
            prop_assert!(
                best <= tol_m * 1.05 + 1.0,
                "vertex {p} deviates {best:.1} m > tol {tol_m:.1} m"
            );
        }
    }

    /// RDP is idempotent: simplifying a simplified path changes nothing.
    #[test]
    fn rdp_idempotent(path in wander_path(), tol_m in 10f64..5_000.0) {
        let once = rdp(&path, tol_m);
        let twice = rdp(&once, tol_m);
        prop_assert_eq!(once, twice);
    }

    /// ISSUE 7 satellite: the iterative in-place kernel keeps exactly the
    /// same index set as the recursive sub-path-cloning reference, on
    /// wander paths, degenerate lengths (`len < 3` via the 2.. strategy
    /// lower bound and explicit prefixes), zero tolerance, and with the
    /// scratch reused across calls.
    #[test]
    fn in_place_rdp_equals_recursive_reference(
        path in wander_path(),
        tol_m in 0f64..5_000.0,
    ) {
        let mut scratch = RdpScratch::new();
        for slice in [&path[..], &path[..1.min(path.len())], &path[..2.min(path.len())]] {
            let fast = rdp_indices(slice, tol_m);
            let reference = rdp_indices_reference(slice, tol_m);
            prop_assert_eq!(&fast, &reference);

            // The in-place forms compact to exactly those indices, with
            // a reused scratch (generation reset exercised every loop).
            let mut geo = slice.to_vec();
            rdp_in_place(&mut geo, tol_m, &mut scratch);
            let expect: Vec<GeoPoint> = reference.iter().map(|&i| slice[i]).collect();
            prop_assert_eq!(&geo, &expect);
            // …and the scratch reports those indices for the call it
            // just ran (what repair provenance reads).
            prop_assert_eq!(scratch.kept_indices().collect::<Vec<_>>(), reference.clone());

            let timed: Vec<TimedPoint> = slice
                .iter()
                .enumerate()
                .map(|(i, g)| TimedPoint::new(g.lon, g.lat, i as i64 * 30))
                .collect();
            let mut timed_in_place = timed.clone();
            rdp_timed_in_place(&mut timed_in_place, tol_m, &mut scratch);
            prop_assert_eq!(&timed_in_place, &rdp_timed(&timed, tol_m));
            let kept_t: Vec<i64> = timed_in_place.iter().map(|p| p.t).collect();
            let expect_t: Vec<i64> = fast.iter().map(|&i| i as i64 * 30).collect();
            prop_assert_eq!(kept_t, expect_t, "timestamps follow the kept-index set");
        }

        // Zero tolerance is the identity on both implementations.
        prop_assert_eq!(rdp_indices(&path, 0.0).len(), path.len());
        prop_assert_eq!(rdp_indices_reference(&path, 0.0).len(), path.len());
    }

    /// All-collinear wander: points resampled onto one segment collapse
    /// to the endpoints at any positive tolerance, identically on both
    /// implementations.
    #[test]
    fn collinear_paths_collapse_identically(
        lon in -30f64..30.0,
        lat in 40f64..58.0,
        n in 3usize..40,
        tol_m in 10f64..5_000.0,
    ) {
        // Equal-longitude points: strictly collinear in lon/lat space.
        let line: Vec<GeoPoint> = (0..n)
            .map(|i| GeoPoint::new(lon, lat + 0.0005 * i as f64))
            .collect();
        let fast = rdp_indices(&line, tol_m);
        prop_assert_eq!(&fast, &rdp_indices_reference(&line, tol_m));
        prop_assert_eq!(fast, vec![0, n - 1]);
    }

    /// Resampling respects the spacing bound, keeps the endpoints, and
    /// preserves total length.
    #[test]
    fn resample_invariants(path in wander_path(), spacing in 50f64..2_000.0) {
        let dense = resample_max_spacing(&path, spacing);
        prop_assert_eq!(dense.first(), path.first());
        prop_assert_eq!(dense.last(), path.last());
        for w in dense.windows(2) {
            prop_assert!(
                haversine_m(&w[0], &w[1]) <= spacing * 1.01,
                "spacing violated"
            );
        }
        let orig_len = crate::distance::path_length_m(&path);
        let dense_len = crate::distance::path_length_m(&dense);
        // Linear interpolation between existing vertices cannot change
        // the path length by more than numeric noise.
        prop_assert!((orig_len - dense_len).abs() <= orig_len * 1e-6 + 1.0);
    }

    /// destination_point followed by haversine recovers the distance, and
    /// the initial bearing points from origin toward the destination.
    #[test]
    fn destination_round_trip(
        lon in -170f64..170.0,
        lat in -70f64..70.0,
        bearing in 0f64..360.0,
        dist in 10f64..200_000.0,
    ) {
        let origin = GeoPoint::new(lon, lat);
        let dest = destination_point(&origin, bearing, dist);
        let measured = haversine_m(&origin, &dest);
        prop_assert!(
            (measured - dist).abs() <= dist * 1e-6 + 0.5,
            "distance {measured} vs {dist}"
        );
        let b = crate::angle::initial_bearing_deg(&origin, &dest);
        let diff = crate::angle::angle_diff_deg(b, bearing).abs();
        prop_assert!(diff < 0.5, "bearing {b} vs {bearing}");
    }

    /// Haversine is symmetric, non-negative, zero only at identity, and
    /// obeys the triangle inequality.
    #[test]
    fn haversine_is_a_metric(
        lon1 in -170f64..170.0, lat1 in -70f64..70.0,
        lon2 in -170f64..170.0, lat2 in -70f64..70.0,
        lon3 in -170f64..170.0, lat3 in -70f64..70.0,
    ) {
        let a = GeoPoint::new(lon1, lat1);
        let b = GeoPoint::new(lon2, lat2);
        let c = GeoPoint::new(lon3, lat3);
        prop_assert!((haversine_m(&a, &b) - haversine_m(&b, &a)).abs() < 1e-6);
        prop_assert!(haversine_m(&a, &a) < 1e-6);
        prop_assert!(
            haversine_m(&a, &c) <= haversine_m(&a, &b) + haversine_m(&b, &c) + 1e-6
        );
    }

    /// The equirectangular approximation tracks haversine within 1% for
    /// the sub-100-km distances the DTW metric uses it for.
    #[test]
    fn equirectangular_tracks_haversine_locally(
        lon in -170f64..170.0,
        lat in -60f64..60.0,
        dlon in -0.5f64..0.5,
        dlat in -0.5f64..0.5,
    ) {
        let a = GeoPoint::new(lon, lat);
        let b = GeoPoint::new(lon + dlon, lat + dlat);
        let h = haversine_m(&a, &b);
        let e = crate::distance::equirectangular_m(&a, &b);
        if h > 100.0 {
            prop_assert!((h - e).abs() / h < 0.01, "h {h} vs e {e}");
        }
    }
}
