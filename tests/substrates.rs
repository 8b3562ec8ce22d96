//! Cross-substrate integration tests: invariants that hold *between*
//! crates (hexgrid ↔ geo, ais ↔ habit-core, mobgraph ↔ habit-core), plus
//! property-based checks at the crate boundaries.

use habit::aggdb::fxhash::FxHashSet;
use habit::aggdb::HyperLogLog;
use habit::ais::{trips_to_table, AisPoint, Trip};
use habit::core::{HabitConfig, HabitModel};
use habit::geo::{haversine_m, GeoPoint};
use habit::hexgrid::{ops, HexCell, HexGrid};
use habit::mobgraph::{astar, dijkstra, CsrGraph, DiGraph};
use proptest::prelude::*;

// ------------------------------------------------------------------
// hexgrid ↔ geo

#[test]
fn cell_center_is_inside_cell_distance_bound() {
    let grid = HexGrid::new();
    // The center of the cell containing p is within one hex diameter.
    for (lon, lat) in [(10.0, 56.0), (23.6, 37.9), (-3.1, 48.5), (151.2, -33.8)] {
        for res in 6..=10u8 {
            let p = GeoPoint::new(lon, lat);
            let cell = grid.cell(&p, res).expect("cell");
            let center = grid.center(cell);
            let d = haversine_m(&p, &center);
            let edge = grid.edge_length_m(res).expect("edge");
            assert!(
                d <= edge * 2.5,
                "res {res}: point {d:.0} m from its cell center (edge {edge:.0} m)"
            );
        }
    }
}

proptest! {
    /// latlng→cell→center→cell round-trips to the same cell.
    #[test]
    fn center_round_trips_to_same_cell(
        lon in -170.0f64..170.0,
        lat in -65.0f64..65.0,
        res in 5u8..=10,
    ) {
        let grid = HexGrid::new();
        let cell = grid.cell(&GeoPoint::new(lon, lat), res).unwrap();
        let center = grid.center(cell);
        let back = grid.cell(&center, res).unwrap();
        prop_assert_eq!(cell, back);
    }

    /// Neighboring cells are exactly grid-distance 1 apart and mutually
    /// adjacent.
    #[test]
    fn neighbors_are_distance_one(
        lon in -170.0f64..170.0,
        lat in -65.0f64..65.0,
        res in 5u8..=10,
    ) {
        let grid = HexGrid::new();
        let cell = grid.cell(&GeoPoint::new(lon, lat), res).unwrap();
        for n in ops::neighbors(cell).unwrap() {
            prop_assert_eq!(grid.grid_distance(cell, n).unwrap(), 1);
            prop_assert!(ops::neighbors(n).unwrap().contains(&cell));
        }
    }

    /// Ground distance between two cell centers is consistent with the
    /// hex grid distance: within [dist-1, dist+1] hex diameters.
    #[test]
    fn grid_distance_tracks_ground_distance(
        lon in 9.0f64..11.0,
        lat in 55.0f64..57.0,
        dlon in -0.2f64..0.2,
        dlat in -0.2f64..0.2,
    ) {
        let grid = HexGrid::new();
        let res = 8u8;
        let a = grid.cell(&GeoPoint::new(lon, lat), res).unwrap();
        let b = grid.cell(&GeoPoint::new(lon + dlon, lat + dlat), res).unwrap();
        let hexes = grid.grid_distance(a, b).unwrap() as f64;
        let ground = haversine_m(&grid.center(a), &grid.center(b));
        let edge = grid.edge_length_m(res).unwrap();
        // One hex step moves between sqrt(3)*edge*cos-ish and 2*edge on
        // the ground; Mercator shrink keeps it below the planar bound.
        prop_assert!(ground <= (hexes + 1.0) * edge * 2.0,
            "ground {ground:.0} m, hexes {hexes}, edge {edge:.0} m");
    }
}

// ------------------------------------------------------------------
// ais ↔ habit-core

/// The fit's `GROUP BY cl` against a hand computation: three trips
/// shuttling between two cells with known counts, vessels and medians.
#[test]
fn groupby_matches_hand_computation_on_ais_shaped_table() {
    let grid = HexGrid::new();
    let (a, b) = (GeoPoint::new(10.0, 56.0), GeoPoint::new(10.1, 56.0));
    // (in cell b?, sog) per report, ten minutes apart.
    let trip = |id: u64, vessel: u64, reports: &[(bool, f64)]| Trip {
        trip_id: id,
        mmsi: vessel,
        points: reports
            .iter()
            .enumerate()
            .map(|(i, &(in_b, sog))| {
                let p = if in_b { b } else { a };
                AisPoint::new(vessel, i as i64 * 600, p.lon, p.lat, sog, 90.0)
            })
            .collect(),
    };
    let trips = [
        trip(1, 100, &[(false, 10.0), (false, 12.0), (true, 14.0)]),
        trip(2, 101, &[(false, 9.0), (true, 15.0)]),
        trip(
            3,
            102,
            &[(true, 13.0), (true, 11.0), (true, 12.0), (false, 8.0)],
        ),
    ];
    let model = HabitModel::fit(&trips_to_table(&trips), HabitConfig::default()).expect("fit");
    let stats = |p: &GeoPoint| {
        let cell = grid.cell(p, 9).expect("cell");
        *model.cell_stats(cell).expect("cell is a graph node")
    };
    let (in_a, in_b) = (stats(&a), stats(&b));
    // Cell a: sog {8, 9, 10, 12}; cell b: sog {11, 12, 13, 14, 15}.
    assert_eq!((in_a.msg_count, in_a.vessels, in_a.median_sog), (4, 3, 9.5));
    assert_eq!(
        (in_b.msg_count, in_b.vessels, in_b.median_sog),
        (5, 3, 13.0)
    );
    assert_eq!((in_a.median_lon, in_a.median_lat), (a.lon, a.lat));
}

proptest! {
    /// HyperLogLog distinct counts stay within 10% of exact counts on
    /// AIS-scale cardinalities.
    #[test]
    fn approx_distinct_tracks_exact(ids in proptest::collection::vec(0u64..5_000, 200..3_000)) {
        let mut sketch = HyperLogLog::default_precision();
        ids.iter().for_each(|&id| sketch.insert_u64(id));
        let exact = ids.iter().collect::<FxHashSet<_>>().len() as f64;
        let approx = sketch.count() as f64;
        prop_assert!(exact > 0.0);
        prop_assert!((approx - exact).abs() / exact < 0.10,
            "approx {approx} vs exact {exact}");
    }
}

// ------------------------------------------------------------------
// mobgraph search invariants

/// Builds a random connected digraph and checks A* with a zero heuristic
/// returns exactly Dijkstra's cost.
#[test]
fn astar_with_zero_heuristic_equals_dijkstra() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..20 {
        let n = rng.gen_range(5..40u64);
        let mut g: DiGraph<(), f64> = DiGraph::new();
        for id in 0..n {
            g.add_node(id, ());
        }
        // Ring for connectivity + random chords.
        for id in 0..n {
            g.add_edge(id, (id + 1) % n, rng.gen_range(1.0..10.0));
        }
        for _ in 0..n * 2 {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a != b {
                g.add_edge(a, b, rng.gen_range(1.0..10.0));
            }
        }
        let goal = rng.gen_range(1..n);
        let d = dijkstra(&g, 0, goal, |_, _, w| *w).expect("connected");
        let a = astar(&g, 0, goal, |_, _, w| *w, |_| 0.0).expect("connected");
        assert!(
            (d.cost - a.cost).abs() < 1e-9,
            "dijkstra {} vs astar {}",
            d.cost,
            a.cost
        );
        assert_eq!(d.nodes.first(), a.nodes.first());
        assert_eq!(d.nodes.last(), a.nodes.last());
    }
}

// ------------------------------------------------------------------
// geo ↔ eval (RDP and DTW interplay)

proptest! {
    /// DTW of a path against itself is zero, and against its RDP
    /// simplification it is bounded by the tolerance.
    #[test]
    fn dtw_of_rdp_simplification_bounded_by_tolerance(
        seed in 0u64..5_000,
        tol_m in 50.0f64..1_000.0,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        // A wandering path of ~60 points around Denmark.
        let mut pts = vec![GeoPoint::new(10.0, 56.0)];
        for _ in 0..60 {
            let last = *pts.last().unwrap();
            pts.push(GeoPoint::new(
                last.lon + rng.gen_range(-0.01..0.02),
                last.lat + rng.gen_range(-0.008..0.008),
            ));
        }
        let self_dtw = habit::eval::dtw_mean_m(&pts, &pts).unwrap();
        prop_assert!(self_dtw < 1e-9);

        let simplified = habit::geo::rdp(&pts, tol_m);
        prop_assert!(simplified.len() >= 2);
        prop_assert!(simplified.len() <= pts.len());
        // Every original vertex is within tol of the simplified path, so
        // the resampled DTW cannot exceed the tolerance by much (the
        // 250 m resampling grid adds at most half a step of slack).
        let dtw = habit::eval::resampled_dtw_m(&simplified, &pts).unwrap();
        prop_assert!(
            dtw <= tol_m + 250.0,
            "dtw {dtw:.1} m vs tolerance {tol_m:.1} m"
        );
    }
}

// ------------------------------------------------------------------
// hexgrid cell ids are stable across the graph/codec boundary

#[test]
fn cell_ids_survive_graph_codec_round_trip() {
    let grid = HexGrid::new();
    let cells: Vec<HexCell> = (0..50)
        .map(|i| {
            grid.cell(&GeoPoint::new(10.0 + i as f64 * 0.01, 56.0), 9)
                .expect("cell")
        })
        .collect();
    let nodes = cells
        .iter()
        .enumerate()
        .map(|(i, c)| (c.raw(), i as u64))
        .collect();
    let edges = cells
        .windows(2)
        .map(|w| (w[0].raw(), w[1].raw(), 1u32))
        .collect();
    let g: CsrGraph<u64, u32> = CsrGraph::from_parts(nodes, edges).expect("distinct cells");
    let bytes = g.to_bytes();
    let h: CsrGraph<u64, u32> = CsrGraph::from_bytes(&bytes).expect("decode");
    assert_eq!(h.node_count(), g.node_count());
    for (i, c) in cells.iter().enumerate() {
        assert_eq!(
            h.node(c.raw()),
            Some(&(i as u64)),
            "cell id lost in round trip"
        );
        // Ids decode back to the same cell.
        let decoded = HexCell::from_raw(c.raw()).expect("valid");
        assert_eq!(decoded, *c);
    }
}
