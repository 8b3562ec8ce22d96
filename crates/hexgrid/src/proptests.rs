//! Property-based tests for the hex grid invariants.

use crate::cell::{HexCell, MAX_ABS_COORD};
use crate::grid::HexGrid;
use crate::ops;
use geo_kernel::{haversine_m, GeoPoint};
use proptest::prelude::*;

/// Strategy: points inside the union of the paper's study regions
/// (Baltic/Danish waters and the Aegean), where the grid must be exact.
fn study_point() -> impl Strategy<Value = GeoPoint> {
    prop_oneof![
        // Danish waters
        (9.0f64..13.0, 54.0f64..58.0).prop_map(|(lon, lat)| GeoPoint::new(lon, lat)),
        // Saronic gulf
        (23.0f64..24.0, 37.4f64..38.1).prop_map(|(lon, lat)| GeoPoint::new(lon, lat)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cell_center_is_fixed_point(p in study_point(), res in 5u8..=11) {
        let g = HexGrid::new();
        let c = g.cell(&p, res).unwrap();
        let center = g.center(c);
        let c2 = g.cell(&center, res).unwrap();
        prop_assert_eq!(c, c2);
    }

    #[test]
    fn point_is_near_its_cell_center(p in study_point(), res in 5u8..=11) {
        let g = HexGrid::new();
        let c = g.cell(&p, res).unwrap();
        let d = haversine_m(&p, &g.center(c));
        // Nominal circumradius is an upper bound on the ground distance
        // because Mercator shrinks ground cells away from the equator.
        prop_assert!(d <= g.edge_length_m(res).unwrap() * 1.0001);
    }

    #[test]
    fn grid_distance_triangle_inequality(
        p1 in study_point(), p2 in study_point(), p3 in study_point()
    ) {
        let g = HexGrid::new();
        let a = g.cell(&p1, 8).unwrap();
        let b = g.cell(&p2, 8).unwrap();
        let c = g.cell(&p3, 8).unwrap();
        let ab = g.grid_distance(a, b).unwrap();
        let bc = g.grid_distance(b, c).unwrap();
        let ac = g.grid_distance(a, c).unwrap();
        prop_assert!(ac <= ab + bc);
    }

    #[test]
    fn neighbors_are_mutual(p in study_point()) {
        let c = HexGrid::new().cell(&p, 9).unwrap();
        for n in ops::neighbors(c).unwrap() {
            let back = ops::neighbors(n).unwrap();
            prop_assert!(back.contains(&c));
        }
    }

    #[test]
    fn grid_path_length_equals_distance_plus_one(p1 in study_point(), p2 in study_point()) {
        let g = HexGrid::new();
        let a = g.cell(&p1, 7).unwrap();
        let b = g.cell(&p2, 7).unwrap();
        let path = ops::grid_path(a, b).unwrap();
        prop_assert_eq!(path.len() as u32, g.grid_distance(a, b).unwrap() + 1);
    }

    #[test]
    fn cells_order_as_their_packed_ids(
        (ra, qa, rra) in (0u8..=15, -MAX_ABS_COORD..=MAX_ABS_COORD, -MAX_ABS_COORD..=MAX_ABS_COORD),
        (rb, qb, rrb) in (0u8..=15, -MAX_ABS_COORD..=MAX_ABS_COORD, -MAX_ABS_COORD..=MAX_ABS_COORD),
    ) {
        // Sorted outputs (group-by keys, graph nodes, blob records) are
        // byte-stable only while `HexCell`'s order is the `u64`'s.
        let a = HexCell::from_axial(ra, qa, rra).unwrap();
        let b = HexCell::from_axial(rb, qb, rrb).unwrap();
        prop_assert_eq!(a.cmp(&b), a.raw().cmp(&b.raw()));
        prop_assert_eq!(a < b, a.raw() < b.raw());
    }
}
