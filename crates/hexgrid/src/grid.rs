//! Lattice geometry: point ↔ cell conversion and resolution metadata.

use crate::cell::HexCell;
use crate::error::HexError;
use geo_kernel::{mercator, mercator_inverse, GeoPoint};

/// Finest supported resolution (same as H3).
pub const MAX_RESOLUTION: u8 = 15;

/// Average hexagon edge length of resolution 0 in meters, chosen so that
/// every resolution reproduces H3's published average edge lengths
/// (res 9 ≈ 174.4 m, res 10 ≈ 65.9 m, …): each finer resolution divides
/// the edge by √7.
const RES0_EDGE_M: f64 = 1_107_712.591;

/// Aperture-7 inter-resolution rotation: `atan(√3 / 5)` ≈ 19.1066°.
/// Identical to the rotation H3 applies between successive resolutions.
fn aperture7_rotation_rad() -> f64 {
    (3.0f64.sqrt() / 5.0).atan()
}

/// The hexagonal grid itself: a family of 16 pointy-top hex lattices over
/// the Mercator plane, one per resolution, linked by the aperture-7
/// hierarchy.
///
/// The struct is zero-sized and all methods are cheap; it exists so that
/// call sites read naturally (`grid.cell(&p, 9)`) and so alternative grid
/// constructions can be swapped in experiments.
#[derive(Debug, Clone, Copy, Default)]
pub struct HexGrid;

impl HexGrid {
    /// Creates the grid.
    pub fn new() -> Self {
        HexGrid
    }

    /// Average hexagon edge length (circumradius) in meters at `res`,
    /// nominal at the equator.
    pub fn edge_length_m(&self, res: u8) -> Result<f64, HexError> {
        if res > MAX_RESOLUTION {
            return Err(HexError::InvalidResolution(res));
        }
        Ok(RES0_EDGE_M * 7f64.powf(-(res as f64) / 2.0))
    }

    /// Rotation of the lattice at `res` relative to resolution 0, radians.
    fn rotation_rad(&self, res: u8) -> f64 {
        res as f64 * aperture7_rotation_rad()
    }

    /// Maps a geographic point to its cell at `res` (H3 `latLngToCell`).
    pub fn cell(&self, p: &GeoPoint, res: u8) -> Result<HexCell, HexError> {
        if res > MAX_RESOLUTION {
            return Err(HexError::InvalidResolution(res));
        }
        if !p.is_valid() {
            return Err(HexError::InvalidCoordinate {
                lon: p.lon,
                lat: p.lat,
            });
        }
        let (x, y) = mercator(p);
        // Rotate the frame by -rotation so the lattice becomes axis-aligned.
        let rot = self.rotation_rad(res);
        let (sin_r, cos_r) = rot.sin_cos();
        let xr = x * cos_r + y * sin_r;
        let yr = -x * sin_r + y * cos_r;

        let size = self.edge_length_m(res).expect("validated");
        // Pointy-top axial coordinates.
        let qf = (3f64.sqrt() / 3.0 * xr - yr / 3.0) / size;
        let rf = (2.0 / 3.0 * yr) / size;
        let (q, r) = axial_round(qf, rf);
        HexCell::from_axial(res, q, r)
    }

    /// Geometric center of a cell (H3 `cellToLatLng`). This is the paper's
    /// projection option `p = c`.
    pub fn center(&self, cell: HexCell) -> GeoPoint {
        let (xr, yr) = self.center_planar(cell);
        self.planar_inverse(cell.resolution(), xr, yr)
    }

    /// Center of a cell in the (rotated) lattice frame, meters.
    pub(crate) fn center_planar(&self, cell: HexCell) -> (f64, f64) {
        let res = cell.resolution();
        let size = self.edge_length_m(res).expect("stored res is valid");
        let q = cell.q() as f64;
        let r = cell.r() as f64;
        (
            size * (3f64.sqrt() * q + 3f64.sqrt() / 2.0 * r),
            size * (1.5 * r),
        )
    }

    /// Maps lattice-frame coordinates back to a geographic point.
    pub(crate) fn planar_inverse(&self, res: u8, xr: f64, yr: f64) -> GeoPoint {
        let rot = self.rotation_rad(res);
        let (sin_r, cos_r) = rot.sin_cos();
        let x = xr * cos_r - yr * sin_r;
        let y = xr * sin_r + yr * cos_r;
        mercator_inverse(x, y)
    }

    /// Number of hexagon steps between two cells of the same resolution
    /// (H3 `gridDistance`).
    pub fn grid_distance(&self, a: HexCell, b: HexCell) -> Result<u32, HexError> {
        if a.resolution() != b.resolution() {
            return Err(HexError::ResolutionMismatch {
                a: a.resolution(),
                b: b.resolution(),
            });
        }
        let dq = a.q() - b.q();
        let dr = a.r() - b.r();
        let ds = dq + dr;
        Ok(((dq.abs() + dr.abs() + ds.abs()) / 2) as u32)
    }
}

/// Rounds fractional axial coordinates to the nearest hex (cube rounding).
fn axial_round(qf: f64, rf: f64) -> (i64, i64) {
    let sf = -qf - rf;
    let mut q = qf.round();
    let mut r = rf.round();
    let s = sf.round();

    let dq = (q - qf).abs();
    let dr = (r - rf).abs();
    let ds = (s - sf).abs();

    if dq > dr && dq > ds {
        q = -r - s;
    } else if dr > ds {
        r = -q - s;
    }
    (q as i64, r as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo_kernel::haversine_m;

    #[test]
    fn edge_lengths_match_h3_published_averages() {
        let g = HexGrid::new();
        // (resolution, H3 average edge length in meters)
        for (res, expected) in [
            (6u8, 3_229.0),
            (7, 1_220.6),
            (8, 461.4),
            (9, 174.4),
            (10, 65.9),
        ] {
            let e = g.edge_length_m(res).unwrap();
            assert!(
                (e - expected).abs() / expected < 0.01,
                "res {res}: {e} vs {expected}"
            );
        }
        assert!(g.edge_length_m(16).is_err());
    }

    #[test]
    fn cell_center_round_trip() {
        let g = HexGrid::new();
        let p = GeoPoint::new(11.97, 57.69); // Gothenburg
        for res in [6u8, 8, 9, 10] {
            let c = g.cell(&p, res).unwrap();
            let back = g.cell(&g.center(c), res).unwrap();
            assert_eq!(back, c, "res {res}");
        }
    }

    #[test]
    fn center_is_within_one_circumradius() {
        let g = HexGrid::new();
        let p = GeoPoint::new(23.55, 37.95);
        for res in [7u8, 9, 10] {
            let c = g.cell(&p, res).unwrap();
            let center = g.center(c);
            let d = haversine_m(&p, &center);
            // Mercator inflation makes the ground cell smaller than nominal,
            // so the nominal edge length is a safe upper bound.
            let max = g.edge_length_m(res).unwrap();
            assert!(d <= max, "res {res}: {d} > {max}");
        }
    }

    #[test]
    fn distinct_points_in_distinct_cells_at_fine_res() {
        let g = HexGrid::new();
        let a = GeoPoint::new(10.0, 56.0);
        let b = GeoPoint::new(10.1, 56.0); // ~6.2 km apart
        assert_ne!(g.cell(&a, 10).unwrap(), g.cell(&b, 10).unwrap());
        // At res 0 (edge ~1100 km) they share a cell.
        assert_eq!(g.cell(&a, 0).unwrap(), g.cell(&b, 0).unwrap());
    }

    #[test]
    fn grid_distance_properties() {
        let g = HexGrid::new();
        let a = g.cell(&GeoPoint::new(10.0, 56.0), 8).unwrap();
        let b = g.cell(&GeoPoint::new(10.3, 56.1), 8).unwrap();
        let d_ab = g.grid_distance(a, b).unwrap();
        let d_ba = g.grid_distance(b, a).unwrap();
        assert_eq!(d_ab, d_ba);
        assert_eq!(g.grid_distance(a, a).unwrap(), 0);
        assert!(d_ab > 0);
        let c9 = g.cell(&GeoPoint::new(10.0, 56.0), 9).unwrap();
        assert!(g.grid_distance(a, c9).is_err());
    }

    #[test]
    fn grid_distance_scales_with_resolution() {
        let g = HexGrid::new();
        let p1 = GeoPoint::new(10.0, 56.0);
        let p2 = GeoPoint::new(10.5, 56.0);
        let d8 = g
            .grid_distance(g.cell(&p1, 8).unwrap(), g.cell(&p2, 8).unwrap())
            .unwrap();
        let d9 = g
            .grid_distance(g.cell(&p1, 9).unwrap(), g.cell(&p2, 9).unwrap())
            .unwrap();
        let ratio = d9 as f64 / d8 as f64;
        assert!((ratio - 7f64.sqrt()).abs() < 0.35, "ratio {ratio}");
    }

    #[test]
    fn rejects_invalid_input() {
        let g = HexGrid::new();
        assert!(g.cell(&GeoPoint::new(181.0, 91.0), 9).is_err());
        assert!(g.cell(&GeoPoint::new(10.0, 50.0), 16).is_err());
    }

    #[test]
    fn axial_round_exact_centers() {
        assert_eq!(axial_round(0.0, 0.0), (0, 0));
        assert_eq!(axial_round(3.0, -2.0), (3, -2));
        assert_eq!(axial_round(2.4, 0.2), (2, 0));
    }
}
