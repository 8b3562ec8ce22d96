//! Cell boundaries.
//!
//! HABIT itself only needs point → cell bucketing, but its density maps
//! need the reverse: what one cell looks like on a map. This is the H3
//! `cellToBoundary` equivalent.

use crate::cell::HexCell;
use crate::grid::HexGrid;
use geo_kernel::GeoPoint;

impl HexGrid {
    /// The six boundary vertices of a cell, counter-clockwise
    /// (H3 `cellToBoundary`).
    pub fn boundary(&self, cell: HexCell) -> [GeoPoint; 6] {
        let res = cell.resolution();
        let size = self.edge_length_m(res).expect("stored res is valid");
        let (cx, cy) = self.center_planar(cell);
        let mut out = [GeoPoint::new(0.0, 0.0); 6];
        for (k, slot) in out.iter_mut().enumerate() {
            // Pointy-top: vertices at 30° + 60°·k in the lattice frame.
            let theta = std::f64::consts::PI / 6.0 + k as f64 * std::f64::consts::PI / 3.0;
            let vx = cx + size * theta.cos();
            let vy = cy + size * theta.sin();
            *slot = self.planar_inverse(res, vx, vy);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo_kernel::{haversine_m, Polygon};

    #[test]
    fn boundary_vertices_are_one_edge_from_center() {
        let grid = HexGrid::new();
        for res in [6u8, 8, 10] {
            let cell = grid.cell(&GeoPoint::new(10.3, 56.1), res).unwrap();
            let center = grid.center(cell);
            let edge = grid.edge_length_m(res).unwrap();
            let boundary = grid.boundary(cell);
            for v in &boundary {
                let d = haversine_m(&center, v);
                // Ground distances shrink by cos(lat) under Mercator; the
                // ratio to the nominal edge must match that factor.
                let shrink = (56.1f64).to_radians().cos();
                assert!(
                    (d / (edge * shrink) - 1.0).abs() < 0.05,
                    "res {res}: vertex at {d:.1} m, edge {edge:.1} m"
                );
            }
            // Vertices are distinct.
            for i in 0..6 {
                let d = haversine_m(&boundary[i], &boundary[(i + 1) % 6]);
                assert!(d > edge * shrink_at(56.1) * 0.9, "side {i} degenerate");
            }
        }
    }

    fn shrink_at(lat: f64) -> f64 {
        lat.to_radians().cos()
    }

    #[test]
    fn boundary_contains_the_points_that_map_to_the_cell() {
        // Sample points known to bucket into the cell: the polygon formed
        // by the boundary must contain them.
        let grid = HexGrid::new();
        let cell = grid.cell(&GeoPoint::new(23.6, 37.9), 9).unwrap();
        let poly = Polygon::new(grid.boundary(cell).to_vec());
        let center = grid.center(cell);
        assert!(poly.contains(&center));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Boundary vertices surround the center: walking the hexagon
        /// ring gives six sides of comparable length, and the vertex
        /// centroid coincides with the cell center.
        #[test]
        fn boundary_is_a_regular_hexagon(
            lon in -170.0f64..170.0,
            lat in -65.0f64..65.0,
            res in 5u8..=11,
        ) {
            let grid = HexGrid::new();
            let cell = grid.cell(&GeoPoint::new(lon, lat), res).unwrap();
            let b = grid.boundary(cell);
            let center = grid.center(cell);

            let mut sides = Vec::with_capacity(6);
            for i in 0..6 {
                sides.push(geo_kernel::haversine_m(&b[i], &b[(i + 1) % 6]));
            }
            let min = sides.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = sides.iter().cloned().fold(0.0f64, f64::max);
            prop_assert!(min > 0.0);
            // Mercator keeps local shapes; side lengths match within 1%.
            prop_assert!(max / min < 1.01, "sides {sides:?}");

            let centroid = GeoPoint::new(
                b.iter().map(|v| v.lon).sum::<f64>() / 6.0,
                b.iter().map(|v| v.lat).sum::<f64>() / 6.0,
            );
            let d = geo_kernel::haversine_m(&centroid, &center);
            let edge = grid.edge_length_m(res).unwrap();
            prop_assert!(d < edge * 0.05, "centroid {d:.1} m off center");
        }
    }
}
