//! Map projections.
//!
//! Two projections are used in the workspace:
//!
//! * spherical **Mercator** — global, conformal; the hexagonal grid
//!   ([`hexgrid`](https://docs.rs)) tiles the Mercator plane, mirroring how
//!   planar hexagon libraries tile a projected plane;
//! * a **local equirectangular** projection — meter-accurate within a
//!   region, used for RDP tolerances, GTI radii, and DTW resampling.

use crate::point::GeoPoint;

/// Mean Earth radius in meters (IUGG).
pub const EARTH_RADIUS_M: f64 = 6_371_008.8;

/// Maximum latitude representable in spherical Mercator (Web-Mercator
/// convention). Positions beyond it are clamped; no shipping lanes exist
/// there.
pub const MERCATOR_MAX_LAT: f64 = 85.051_128_779_806_6;

/// Forward spherical Mercator: degrees → meters on the Mercator plane.
pub fn mercator(p: &GeoPoint) -> (f64, f64) {
    let lat = p.lat.clamp(-MERCATOR_MAX_LAT, MERCATOR_MAX_LAT);
    let x = EARTH_RADIUS_M * p.lon.to_radians();
    let y = EARTH_RADIUS_M
        * (std::f64::consts::FRAC_PI_4 + lat.to_radians() * 0.5)
            .tan()
            .ln();
    (x, y)
}

/// Inverse spherical Mercator: meters on the Mercator plane → degrees.
pub fn mercator_inverse(x: f64, y: f64) -> GeoPoint {
    let lon = (x / EARTH_RADIUS_M).to_degrees();
    let lat = (2.0 * (y / EARTH_RADIUS_M).exp().atan() - std::f64::consts::FRAC_PI_2).to_degrees();
    GeoPoint::new(lon, lat)
}

/// A local tangent-plane (equirectangular) projection anchored at a
/// reference point.
///
/// Within ~100 km of the anchor, planar distances agree with great-circle
/// distances to better than 0.1%, so planar geometry (point–segment
/// distance, RDP, polygon tests) can be used with tolerances in meters.
#[derive(Debug, Clone, Copy)]
pub struct LocalProjection {
    ref_lon: f64,
    ref_lat: f64,
    cos_lat: f64,
}

impl LocalProjection {
    /// Creates a projection centered on `anchor`.
    pub fn new(anchor: &GeoPoint) -> Self {
        Self {
            ref_lon: anchor.lon,
            ref_lat: anchor.lat,
            cos_lat: anchor.lat.to_radians().cos(),
        }
    }

    /// Creates a projection centered on the mean of `points`.
    ///
    /// Returns `None` for an empty slice.
    pub fn from_points(points: &[GeoPoint]) -> Option<Self> {
        if points.is_empty() {
            return None;
        }
        let n = points.len() as f64;
        let lon = points.iter().map(|p| p.lon).sum::<f64>() / n;
        let lat = points.iter().map(|p| p.lat).sum::<f64>() / n;
        Some(Self::new(&GeoPoint::new(lon, lat)))
    }

    /// Projects a point into local meters (east, north).
    #[inline]
    pub fn to_xy(&self, p: &GeoPoint) -> (f64, f64) {
        let x = (p.lon - self.ref_lon).to_radians() * self.cos_lat * EARTH_RADIUS_M;
        let y = (p.lat - self.ref_lat).to_radians() * EARTH_RADIUS_M;
        (x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::haversine_m;

    #[test]
    fn mercator_round_trip() {
        for (lon, lat) in [(0.0, 0.0), (23.6, 37.9), (-120.3, 56.7), (179.0, -45.0)] {
            let p = GeoPoint::new(lon, lat);
            let (x, y) = mercator(&p);
            let q = mercator_inverse(x, y);
            assert!((p.lon - q.lon).abs() < 1e-9, "{lon},{lat}");
            assert!((p.lat - q.lat).abs() < 1e-9, "{lon},{lat}");
        }
    }

    #[test]
    fn mercator_equator_scale_is_true() {
        let a = GeoPoint::new(0.0, 0.0);
        let b = GeoPoint::new(0.1, 0.0);
        let (xa, _) = mercator(&a);
        let (xb, _) = mercator(&b);
        let planar = xb - xa;
        let sphere = haversine_m(&a, &b);
        assert!((planar / sphere - 1.0).abs() < 1e-3);
    }

    #[test]
    fn mercator_scale_inflates_with_latitude() {
        let a = GeoPoint::new(0.0, 60.0);
        let b = GeoPoint::new(0.1, 60.0);
        let (xa, _) = mercator(&a);
        let (xb, _) = mercator(&b);
        let planar = xb - xa;
        let sphere = haversine_m(&a, &b);
        // Mercator x-scale at 60N is 1/cos(60) = 2.
        assert!((planar / sphere - 2.0).abs() < 1e-2);
    }

    #[test]
    fn local_projection_scale_matches_haversine() {
        let anchor = GeoPoint::new(11.5, 55.0);
        let proj = LocalProjection::new(&anchor);
        let p = GeoPoint::new(11.6, 55.05);
        let (x, y) = proj.to_xy(&p);
        let planar = (x * x + y * y).sqrt();
        let sphere = haversine_m(&anchor, &p);
        assert!(
            (planar / sphere - 1.0).abs() < 2e-3,
            "ratio {}",
            planar / sphere
        );
    }

    #[test]
    fn from_points_empty_is_none() {
        assert!(LocalProjection::from_points(&[]).is_none());
    }
}
