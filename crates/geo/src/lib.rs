//! # geo-kernel — geodesy and planar-geometry primitives for HABIT
//!
//! This crate is the lowest layer of the HABIT workspace. It provides the
//! geodetic and geometric building blocks that every other crate relies on:
//!
//! * [`GeoPoint`] / [`TimedPoint`] — positions in WGS84 degrees, optionally
//!   timestamped;
//! * great-circle math — [`haversine_m`], [`initial_bearing_deg`],
//!   [`destination_point`];
//! * projections — spherical [`mercator`] (used by the hex grid) and a
//!   [`LocalProjection`] for meter-accurate planar work inside a region;
//! * polyline utilities — [`resample_max_spacing`], [`path_length_m`],
//!   [`interpolate_at_fraction`];
//! * [`rdp()`] — Ramer–Douglas–Peucker simplification with a tolerance in
//!   meters (the paper's trajectory-simplification phase, §3.4), backed by
//!   an iterative in-place kernel with reusable [`RdpScratch`] state
//!   ([`rdp_in_place`] / [`rdp_timed_in_place`]) and pinned equal to the
//!   retained recursive reference [`rdp_indices_reference`];
//! * [`Polygon`] / [`MultiPolygon`] — land masks used by the synthetic world
//!   for navigability checks.
//!
//! Everything operates on plain `f64` degrees; no external geodesy crates
//! are used.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod angle;
pub mod bbox;
pub mod distance;
pub mod point;
pub mod polygon;
pub mod polyline;
pub mod projection;
pub mod rdp;

#[cfg(test)]
mod proptests;

pub use angle::{angle_diff_deg, initial_bearing_deg, normalize_deg, turn_angle_deg};
pub use bbox::BBox;
pub use distance::{destination_point, equirectangular_m, haversine_m, path_length_m};
pub use point::{GeoPoint, TimedPoint};
pub use polygon::{MultiPolygon, Polygon};
pub use polyline::{
    cumulative_lengths_m, interpolate_at_fraction, point_segment_distance_m, resample_max_spacing,
    resample_timed_max_spacing,
};
pub use projection::{mercator, mercator_inverse, LocalProjection, EARTH_RADIUS_M};
pub use rdp::{
    rdp, rdp_in_place, rdp_indices, rdp_indices_reference, rdp_timed, rdp_timed_in_place,
    RdpScratch,
};

/// Conversion factor: knots → meters per second.
pub const KNOTS_TO_MPS: f64 = 0.514_444_444_444_444_4;

/// Conversion factor: nautical miles → meters.
pub const NM_TO_M: f64 = 1852.0;

/// Converts a speed in knots to meters per second.
#[inline]
pub fn knots_to_mps(knots: f64) -> f64 {
    knots * KNOTS_TO_MPS
}

/// Converts a speed in meters per second to knots.
#[inline]
pub fn mps_to_knots(mps: f64) -> f64 {
    mps / KNOTS_TO_MPS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knot_round_trip() {
        let k = 14.3;
        assert!((mps_to_knots(knots_to_mps(k)) - k).abs() < 1e-12);
    }

    #[test]
    fn one_knot_is_one_nm_per_hour() {
        assert!((knots_to_mps(1.0) * 3600.0 - NM_TO_M).abs() < 1e-6);
    }
}
