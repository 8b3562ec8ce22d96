//! Visibility-graph sea routing.
//!
//! Vessels in the synthetic world follow *navigable* routes: shortest
//! paths over a visibility graph whose nodes are ports plus coastline
//! vertices pushed slightly offshore, with edges wherever the connecting
//! segment stays on water. This produces the lane structure real AIS data
//! exhibits (and that HABIT learns): traffic concentrates on a small
//! number of geodesic corridors around capes and through straits.

use crate::world::World;
use geo_kernel::{destination_point, haversine_m, initial_bearing_deg, GeoPoint};
use mobgraph::{dijkstra, DiGraph};

/// Offshore clearance added to coastline vertices, meters.
const VERTEX_CLEARANCE_M: f64 = 2_500.0;

/// A router over one region.
#[derive(Debug)]
pub struct SeaRouter {
    nodes: Vec<GeoPoint>,
    graph: DiGraph<(), f32>,
    world: World,
}

impl SeaRouter {
    /// Builds the visibility graph for a region. Cost is O(V² · E_land)
    /// but V is tiny (ports + coastline vertices).
    pub fn new(world: &World) -> Self {
        let mut nodes: Vec<GeoPoint> = world.ports.iter().map(|p| p.pos).collect();
        for poly in world.land.polygons() {
            let ring = poly.ring();
            let n = ring.len();
            for i in 0..n {
                let prev = &ring[(i + n - 1) % n];
                let next = &ring[(i + 1) % n];
                if let Some(p) = offshore_vertex(world, &ring[i], prev, next) {
                    nodes.push(p);
                }
            }
        }

        let mut graph: DiGraph<(), f32> = DiGraph::with_capacity(nodes.len());
        for (i, _) in nodes.iter().enumerate() {
            graph.add_node(i as u64, ());
        }
        for i in 0..nodes.len() {
            for j in (i + 1)..nodes.len() {
                if world.segment_is_clear(&nodes[i], &nodes[j]) {
                    let d = haversine_m(&nodes[i], &nodes[j]) as f32;
                    graph.add_edge(i as u64, j as u64, d);
                    graph.add_edge(j as u64, i as u64, d);
                }
            }
        }
        Self {
            nodes,
            graph,
            world: world.clone(),
        }
    }

    /// Number of visibility nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Shortest navigable route between two sea points, as waypoints
    /// including both endpoints, with the deterministic lane curvature of
    /// `curve_leg` applied to every leg. `None` when no land-free
    /// connection exists (should not happen inside a validated region).
    pub fn route(&self, from: &GeoPoint, to: &GeoPoint) -> Option<Vec<GeoPoint>> {
        self.route_geodesic(from, to)
            .map(|wps| curve_route(&self.world, &wps))
    }

    /// The raw visibility-graph route, without lane curvature.
    fn route_geodesic(&self, from: &GeoPoint, to: &GeoPoint) -> Option<Vec<GeoPoint>> {
        if self.world.segment_is_clear(from, to) {
            return Some(vec![*from, *to]);
        }
        // Temporary graph: static visibility nodes plus the two endpoints.
        let mut g = self.graph.clone();
        let from_id = self.nodes.len() as u64;
        let to_id = from_id + 1;
        g.add_node(from_id, ());
        g.add_node(to_id, ());
        for (i, node) in self.nodes.iter().enumerate() {
            if self.world.segment_is_clear(from, node) {
                let d = haversine_m(from, node) as f32;
                g.add_edge(from_id, i as u64, d);
            }
            if self.world.segment_is_clear(node, to) {
                let d = haversine_m(node, to) as f32;
                g.add_edge(i as u64, to_id, d);
            }
        }
        let result = dijkstra(&g, from_id, to_id, |_, _, w| *w as f64)?;
        let mut waypoints = Vec::with_capacity(result.nodes.len());
        for id in result.nodes {
            let p = if id == from_id {
                *from
            } else if id == to_id {
                *to
            } else {
                self.nodes[id as usize]
            };
            waypoints.push(p);
        }
        Some(waypoints)
    }

    /// Region this router was built for.
    pub fn world(&self) -> &World {
        &self.world
    }
}

/// Lane curvature: real shipping lanes are not straight chords between
/// waypoints — they follow depth contours, traffic-separation schemes and
/// coastal set, bending continuously. Straight synthetic legs would make
/// naive straight-line interpolation artificially competitive (the exact
/// opposite of what real AIS shows, paper Fig. 6). Legs are therefore
/// subdivided and displaced cross-track by a smooth two-harmonic profile
/// that is **deterministic per leg** (hashed from the endpoint
/// coordinates), so every vessel on a route shares the same curved lane —
/// which is precisely the structure HABIT mines.
const LANE_SEGMENT_M: f64 = 3_000.0;
/// Amplitude of the lane displacement as a fraction of leg length.
const LANE_AMPLITUDE_FRAC: f64 = 0.045;
/// Hard cap on the lane displacement, meters.
const LANE_AMPLITUDE_CAP_M: f64 = 2_200.0;

/// splitmix64 — a tiny, high-quality deterministic mixer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic per-leg hash from quantized endpoint coordinates.
/// Ordered, so the two directions of a corridor get distinct (slightly
/// offset) lanes, like real traffic-separation schemes.
fn leg_hash(a: &GeoPoint, b: &GeoPoint) -> u64 {
    let q = |v: f64| (v * 1e4).round() as i64 as u64;
    let mut h = splitmix64(q(a.lon));
    h = splitmix64(h ^ q(a.lat));
    h = splitmix64(h ^ q(b.lon));
    h = splitmix64(h ^ q(b.lat));
    h
}

/// Uniform sample in [-1, 1] from a hash.
fn hash_unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
}

/// Wavelength of the short-scale lane meander, meters. Real coastal
/// lanes bend at the scale of depth contours and separation-scheme
/// doglegs — comparable to (not far above) a one-hour sailing window, so
/// that straight chords across a gap genuinely miss the lane (paper
/// Fig. 6).
const LANE_MEANDER_WAVELENGTH_M: f64 = 15_000.0;
/// Meander amplitude as a fraction of the long-scale amplitude.
const LANE_MEANDER_FRAC: f64 = 0.45;

/// Applies lane curvature to one leg: interior points displaced
/// perpendicular to the chord by a long-scale bow `A·sin(πf) +
/// (A/2)·u₂·sin(2πf)` plus a short-scale meander of wavelength
/// [`LANE_MEANDER_WAVELENGTH_M`]. The amplitude halves until every
/// sub-segment is clear of land (falling back to the straight chord
/// after 5 attempts). Returns the leg including both endpoints.
fn curve_leg(world: &World, a: &GeoPoint, b: &GeoPoint) -> Vec<GeoPoint> {
    let len = haversine_m(a, b);
    if len < 2.0 * LANE_SEGMENT_M {
        return vec![*a, *b];
    }
    let h = leg_hash(a, b);
    let u1 = hash_unit(splitmix64(h ^ 1));
    let u2 = hash_unit(splitmix64(h ^ 2));
    let phase = (hash_unit(splitmix64(h ^ 3)) + 1.0) * std::f64::consts::PI;
    let cycles = (len / LANE_MEANDER_WAVELENGTH_M).max(1.0);
    let bearing = initial_bearing_deg(a, b);
    let n = ((len / LANE_SEGMENT_M).ceil() as usize).clamp(2, 96);
    let base_amp = (len * LANE_AMPLITUDE_FRAC).min(LANE_AMPLITUDE_CAP_M) * u1.signum();
    let mut amp = base_amp * (0.5 + 0.5 * u1.abs());

    for _ in 0..5 {
        let mut leg = Vec::with_capacity(n + 1);
        leg.push(*a);
        for i in 1..n {
            let f = i as f64 / n as f64;
            let along = destination_point(a, bearing, len * f);
            // Taper keeps the meander from displacing the leg endpoints.
            let taper = (std::f64::consts::PI * f).sin();
            let offset = amp * taper
                + amp * 0.5 * u2 * (2.0 * std::f64::consts::PI * f).sin()
                + amp
                    * LANE_MEANDER_FRAC
                    * taper
                    * (2.0 * std::f64::consts::PI * cycles * f + phase).sin();
            leg.push(destination_point(&along, bearing + 90.0, offset));
        }
        leg.push(*b);
        let clear = leg.windows(2).all(|w| world.segment_is_clear(&w[0], &w[1]));
        if clear {
            return leg;
        }
        amp *= 0.5;
    }
    vec![*a, *b]
}

/// Applies [`curve_leg`] to every leg of a waypoint route.
fn curve_route(world: &World, waypoints: &[GeoPoint]) -> Vec<GeoPoint> {
    if waypoints.len() < 2 {
        return waypoints.to_vec();
    }
    let mut out = Vec::with_capacity(waypoints.len() * 4);
    out.push(waypoints[0]);
    for w in waypoints.windows(2) {
        let leg = curve_leg(world, &w[0], &w[1]);
        out.extend_from_slice(&leg[1..]);
    }
    out
}

/// Moves a coastline vertex offshore along the outward bisector of its
/// adjacent edges; returns `None` if no clear offshore position is found.
fn offshore_vertex(
    world: &World,
    v: &GeoPoint,
    prev: &GeoPoint,
    next: &GeoPoint,
) -> Option<GeoPoint> {
    // Bisector direction: average of the two edge bearings, rotated 90°.
    let b1 = initial_bearing_deg(prev, v);
    let b2 = initial_bearing_deg(v, next);
    let mid = (b1 + b2) * 0.5;
    for bearing in [mid + 90.0, mid - 90.0] {
        for scale in [1.0, 2.0, 4.0] {
            let candidate = destination_point(v, bearing, VERTEX_CLEARANCE_M * scale);
            if world.is_sea(&candidate) {
                return Some(candidate);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regions::{denmark, kiel_corridor, saronic};

    fn assert_navigable(world: &World, route: &[GeoPoint]) {
        assert!(route.len() >= 2);
        for w in route.windows(2) {
            assert!(
                world.segment_is_clear(&w[0], &w[1]),
                "leg {} -> {} crosses land",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn kiel_gothenburg_route_is_navigable() {
        let world = kiel_corridor();
        let router = SeaRouter::new(&world);
        let from = world.port("Kiel").unwrap().pos;
        let to = world.port("Gothenburg").unwrap().pos;
        let route = router.route(&from, &to).expect("route exists");
        assert_navigable(&world, &route);
        assert!(route.len() > 2, "must detour around Danish islands");
        // Route length must beat naive detours but exceed the great-circle.
        let len: f64 = route.windows(2).map(|w| haversine_m(&w[0], &w[1])).sum();
        let direct = haversine_m(&from, &to);
        assert!(len > direct);
        assert!(len < direct * 2.0, "len {len} vs direct {direct}");
    }

    #[test]
    fn all_denmark_port_pairs_routable() {
        let world = denmark();
        let router = SeaRouter::new(&world);
        for a in &world.ports {
            for b in &world.ports {
                if a.name == b.name {
                    continue;
                }
                let route = router
                    .route(&a.pos, &b.pos)
                    .unwrap_or_else(|| panic!("{} -> {}", a.name, b.name));
                assert_navigable(&world, &route);
            }
        }
    }

    #[test]
    fn all_saronic_port_pairs_routable() {
        let world = saronic();
        let router = SeaRouter::new(&world);
        for a in &world.ports {
            for b in &world.ports {
                if a.name == b.name {
                    continue;
                }
                let route = router
                    .route(&a.pos, &b.pos)
                    .unwrap_or_else(|| panic!("{} -> {}", a.name, b.name));
                assert_navigable(&world, &route);
            }
        }
    }

    #[test]
    fn clear_pair_routes_directly() {
        let world = denmark();
        let router = SeaRouter::new(&world);
        // Two points in the open Kattegat: the geodesic route is the
        // chord; the sailed lane is its curved embellishment.
        let a = GeoPoint::new(11.2, 56.4);
        let b = GeoPoint::new(11.2, 57.2);
        let geodesic = router.route_geodesic(&a, &b).unwrap();
        assert_eq!(geodesic.len(), 2);
        let lane = router.route(&a, &b).unwrap();
        assert!(lane.len() > 2, "lane gets curvature points");
        assert_navigable(&world, &lane);
    }

    #[test]
    fn lanes_curve_away_from_the_chord() {
        let world = denmark();
        let router = SeaRouter::new(&world);
        let a = GeoPoint::new(11.2, 56.4);
        let b = GeoPoint::new(11.2, 57.2); // ~89 km of open water
        let lane = router.route(&a, &b).unwrap();
        // Max cross-track displacement from the chord: must be hundreds
        // of meters (real lanes bend), bounded by the amplitude cap.
        let max_dev = lane
            .iter()
            .map(|p| geo_kernel::point_segment_distance_m(p, &a, &b))
            .fold(0.0f64, f64::max);
        assert!(
            max_dev > 300.0,
            "lane too straight: max deviation {max_dev:.0} m"
        );
        assert!(
            max_dev <= LANE_AMPLITUDE_CAP_M * 1.6,
            "lane too wild: {max_dev:.0} m"
        );
    }

    #[test]
    fn lane_curvature_is_deterministic_and_direction_specific() {
        let world = denmark();
        let router = SeaRouter::new(&world);
        let a = GeoPoint::new(11.2, 56.4);
        let b = GeoPoint::new(11.2, 57.2);
        let l1 = router.route(&a, &b).unwrap();
        let l2 = router.route(&a, &b).unwrap();
        assert_eq!(l1.len(), l2.len());
        for (p, q) in l1.iter().zip(&l2) {
            assert_eq!(p, q, "same leg must produce the same lane");
        }
        // Opposite direction: same corridor, different lane shape.
        let rev = router.route(&b, &a).unwrap();
        let fwd_mid = l1[l1.len() / 2];
        let rev_mid = rev[rev.len() / 2];
        assert!(
            geo_kernel::haversine_m(&fwd_mid, &rev_mid) > 50.0,
            "directions should be offset like traffic lanes"
        );
    }

    #[test]
    fn short_legs_stay_straight() {
        let world = denmark();
        // Below 2 segments of curvature resolution: chord returned.
        let a = GeoPoint::new(11.2, 56.4);
        let b = GeoPoint::new(11.21, 56.42);
        let leg = curve_leg(&world, &a, &b);
        assert_eq!(leg, vec![a, b]);
    }
}
