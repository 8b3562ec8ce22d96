//! Deterministic builders for the three evaluation datasets.
//!
//! The builders mirror the paper's Table 1 scenarios at laptop scale
//! (roughly 1:40 in positions; the structural ratios — trips per route,
//! vessels per dataset, trip lengths — follow the paper):
//!
//! | Paper | Scenario | This builder |
//! |-------|----------|--------------|
//! | DAN — 4.38 M positions, 1 292 trips, 16 ships | selected passenger routes between 10 ports across Danish waters | [`dan`] |
//! | KIEL — 0.81 M positions, 86 trips, 2 ships | one confined Kiel ↔ Gothenburg itinerary | [`kiel`] |
//! | SAR — 1.17 M positions, 20 778 trips, 2 579 ships | all vessel types in the Saronic gulf, uneven reception | [`sar`] |

use crate::regions;
use crate::routing::SeaRouter;
use crate::sim::{simulate_trip, DropoutModel, SimConfig, TripPlan};
use crate::vessel::{class_profile, sample_range};
use crate::world::World;
use ais::{
    segment_all, trips_to_table, AisPoint, Trajectory, Trip, TripConfig, VesselInfo, VesselType,
};
use geo_kernel::GeoPoint;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Common epoch for all datasets: 2024-01-01 00:00 UTC.
const EPOCH: i64 = 1_704_067_200;

/// Parameters of a dataset build.
#[derive(Debug, Clone, Copy)]
pub struct DatasetSpec {
    /// RNG seed; same seed ⇒ identical dataset.
    pub seed: u64,
    /// Multiplier on trip counts (1.0 = default laptop scale).
    pub scale: f64,
}

impl Default for DatasetSpec {
    fn default() -> Self {
        Self {
            seed: 42,
            scale: 1.0,
        }
    }
}

/// A generated dataset: raw AIS streams plus vessel metadata.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Dataset name ("DAN", "KIEL", "SAR").
    pub name: String,
    /// The region it was generated in.
    pub world: World,
    /// One raw trajectory per vessel (cleaning not yet applied).
    pub trajectories: Vec<Trajectory>,
    /// Vessel metadata.
    pub vessels: Vec<VesselInfo>,
}

impl Dataset {
    /// Total raw position count.
    pub fn num_positions(&self) -> usize {
        self.trajectories.iter().map(|t| t.len()).sum()
    }

    /// Number of distinct vessels with at least one report.
    pub fn num_ships(&self) -> usize {
        self.trajectories.iter().filter(|t| !t.is_empty()).count()
    }

    /// Cleans and segments all trajectories into trips (paper §3.1).
    pub fn trips(&self) -> Vec<Trip> {
        segment_all(&self.trajectories, &TripConfig::default())
    }

    /// Size of the dataset serialized as a raw AIS CSV, in bytes —
    /// the "Size (MB)" column of Table 1.
    pub fn csv_size_bytes(&self) -> usize {
        use std::io::Write;
        struct CountingSink(usize);
        impl Write for CountingSink {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0 += buf.len();
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = CountingSink(0);
        writeln!(sink, "mmsi,t,lon,lat,sog,cog,heading").expect("counting sink");
        for traj in &self.trajectories {
            for p in &traj.points {
                writeln!(
                    sink,
                    "{},{},{:.6},{:.6},{:.1},{:.1},{:.1}",
                    p.mmsi, p.t, p.pos.lon, p.pos.lat, p.sog, p.cog, p.heading
                )
                .expect("counting sink");
            }
        }
        sink.0
    }

    /// Segments trips and materializes the trip table.
    pub fn trip_table(&self) -> ais::TripTable {
        trips_to_table(&self.trips())
    }
}

/// Accumulates simulated reports per vessel.
struct Fleet {
    streams: Vec<Vec<AisPoint>>,
    vessels: Vec<VesselInfo>,
}

impl Fleet {
    fn new() -> Self {
        Self {
            streams: Vec::new(),
            vessels: Vec::new(),
        }
    }

    fn add_vessel(
        &mut self,
        mmsi: u64,
        vtype: VesselType,
        name: String,
        rng: &mut StdRng,
    ) -> usize {
        let profile = class_profile(vtype);
        self.vessels.push(VesselInfo {
            mmsi,
            vtype,
            length_m: sample_range(rng, profile.length_m),
            draught_m: sample_range(rng, profile.draught_m),
            name,
        });
        self.streams.push(Vec::new());
        self.streams.len() - 1
    }

    fn finish(self, name: &str, world: World) -> Dataset {
        let trajectories = self
            .streams
            .into_iter()
            .zip(&self.vessels)
            .map(|(points, v)| Trajectory::new(v.mmsi, points))
            .collect();
        Dataset {
            name: name.to_string(),
            world,
            trajectories,
            vessels: self.vessels,
        }
    }
}

/// Runs `n_trips` back-and-forth sailings for one vessel along a fixed
/// route, with idle dwell between trips.
#[allow(clippy::too_many_arguments)]
fn shuttle(
    fleet: &mut Fleet,
    vessel_idx: usize,
    router: &SeaRouter,
    from: GeoPoint,
    to: GeoPoint,
    n_trips: usize,
    start_t: i64,
    cfg: &SimConfig,
    rng: &mut StdRng,
) -> i64 {
    let mmsi = fleet.vessels[vessel_idx].mmsi;
    let vtype = fleet.vessels[vessel_idx].vtype;
    let profile = class_profile(vtype);
    let outbound = router.route(&from, &to);
    let inbound = router.route(&to, &from);
    let (Some(outbound), Some(inbound)) = (outbound, inbound) else {
        return start_t;
    };
    let mut t = start_t;
    for i in 0..n_trips {
        let waypoints = if i % 2 == 0 { &outbound } else { &inbound };
        let plan = TripPlan {
            mmsi,
            waypoints: waypoints.clone(),
            cruise_knots: sample_range(rng, profile.cruise_knots),
            report_interval_s: sample_range(rng, profile.report_interval_s),
            depart_t: t,
            berth_before_min: sample_range(rng, profile.berth_minutes),
            berth_after_min: sample_range(rng, profile.berth_minutes) * 0.5,
        };
        let (points, end_t) = simulate_trip(&plan, cfg, rng);
        fleet.streams[vessel_idx].extend(points);
        // Idle dwell before the next departure (silent: AIS often switches
        // to low-power berth mode; segmentation splits here regardless).
        t = end_t + rng.gen_range(2 * 3600..10 * 3600);
    }
    t
}

/// **DAN**: passenger vessels on selected routes between the 10 Danish
/// ports — the broad-area, multi-route scenario.
pub fn dan(spec: DatasetSpec) -> Dataset {
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0xDA);
    let world = regions::denmark();
    let router = SeaRouter::new(&world);
    let cfg = SimConfig::default();
    let mut fleet = Fleet::new();

    let n_vessels = 16;
    let trips_per_vessel = ((15.0 * spec.scale).round() as usize).max(1);
    for v in 0..n_vessels {
        let mmsi = 219_000_100 + v as u64;
        let idx = fleet.add_vessel(
            mmsi,
            VesselType::Passenger,
            format!("DAN Ferry {v:02}"),
            &mut rng,
        );
        // Each vessel serves one fixed route (ferry-like), chosen from all
        // port pairs so the dataset covers many corridors.
        let a = rng.gen_range(0..world.ports.len());
        let mut b = rng.gen_range(0..world.ports.len());
        while b == a {
            b = rng.gen_range(0..world.ports.len());
        }
        let start = EPOCH + rng.gen_range(0..48 * 3600);
        shuttle(
            &mut fleet,
            idx,
            &router,
            world.ports[a].pos,
            world.ports[b].pos,
            trips_per_vessel,
            start,
            &cfg,
            &mut rng,
        );
    }
    fleet.finish("DAN", world)
}

/// **KIEL**: two ferries on the single Kiel ↔ Gothenburg itinerary — the
/// confined-route scenario.
pub fn kiel(spec: DatasetSpec) -> Dataset {
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x1E);
    let world = regions::kiel_corridor();
    let router = SeaRouter::new(&world);
    let cfg = SimConfig::default();
    let mut fleet = Fleet::new();

    let trips_per_vessel = ((32.0 * spec.scale).round() as usize).max(1);
    for v in 0..2 {
        let mmsi = 219_000_900 + v as u64;
        let idx = fleet.add_vessel(
            mmsi,
            VesselType::Passenger,
            format!("KIEL Ferry {v}"),
            &mut rng,
        );
        let kiel_p = world.port("Kiel").expect("port").pos;
        let got_p = world.port("Gothenburg").expect("port").pos;
        let start = EPOCH + v as i64 * 12 * 3600;
        shuttle(
            &mut fleet,
            idx,
            &router,
            kiel_p,
            got_p,
            trips_per_vessel,
            start,
            &cfg,
            &mut rng,
        );
    }
    fleet.finish("KIEL", world)
}

/// **SAR**: all vessel types in the Saronic gulf with degraded reception
/// in the southern half — the heterogeneous, dense scenario.
pub fn sar(spec: DatasetSpec) -> Dataset {
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x5A);
    let world = regions::saronic();
    let router = SeaRouter::new(&world);
    let cfg = SimConfig {
        dropout: DropoutModel::LatBands {
            boundary_lat: 37.72,
            north: 0.04,
            south: 0.18,
        },
        ..SimConfig::default()
    };
    let mut fleet = Fleet::new();
    let scale = spec.scale;
    let piraeus = world.port("Piraeus").expect("port").pos;

    // Ferries: Piraeus ↔ island ports, frequent short crossings.
    let ferry_destinations = ["Aegina", "Poros", "Salamina", "Epidavros"];
    for (v, dest) in ferry_destinations.iter().cycle().take(8).enumerate() {
        let mmsi = 237_100_000 + v as u64;
        let idx = fleet.add_vessel(
            mmsi,
            VesselType::Passenger,
            format!("SAR Ferry {v}"),
            &mut rng,
        );
        let dest_pos = world.port(dest).expect("port").pos;
        let n = ((28.0 * scale).round() as usize).max(1);
        let start = EPOCH + rng.gen_range(0..12 * 3600);
        shuttle(
            &mut fleet, idx, &router, piraeus, dest_pos, n, start, &cfg, &mut rng,
        );
    }

    // High-speed craft: Piraeus ↔ Poros / Lavrio.
    for v in 0..4 {
        let mmsi = 237_200_000 + v as u64;
        let idx = fleet.add_vessel(
            mmsi,
            VesselType::HighSpeed,
            format!("SAR HSC {v}"),
            &mut rng,
        );
        let dest = if v % 2 == 0 { "Poros" } else { "Lavrio" };
        let dest_pos = world.port(dest).expect("port").pos;
        let n = ((18.0 * scale).round() as usize).max(1);
        let start = EPOCH + rng.gen_range(0..24 * 3600);
        shuttle(
            &mut fleet, idx, &router, piraeus, dest_pos, n, start, &cfg, &mut rng,
        );
    }

    // Cargo & tankers: arrivals from the southern gate to Piraeus and back.
    let south_gate = GeoPoint::new(23.55, 37.28);
    for v in 0..40 {
        let vtype = if v % 2 == 0 {
            VesselType::Cargo
        } else {
            VesselType::Tanker
        };
        let mmsi = 237_300_000 + v as u64;
        let idx = fleet.add_vessel(mmsi, vtype, format!("SAR Cargo {v}"), &mut rng);
        let n = ((2.0 * scale).round() as usize).max(1);
        let start = EPOCH + rng.gen_range(0..25 * 24 * 3600);
        shuttle(
            &mut fleet, idx, &router, south_gate, piraeus, n, start, &cfg, &mut rng,
        );
    }

    // Fishing: wandering tracks in the open gulf.
    for v in 0..24 {
        let mmsi = 237_400_000 + v as u64;
        let idx = fleet.add_vessel(
            mmsi,
            VesselType::Fishing,
            format!("SAR Fisher {v}"),
            &mut rng,
        );
        let n_trips = ((5.0 * scale).round() as usize).max(1);
        let mut t = EPOCH + rng.gen_range(0..5 * 24 * 3600);
        for _ in 0..n_trips {
            let Some(waypoints) = wander_route(&world, &router, &mut rng) else {
                continue;
            };
            let profile = class_profile(VesselType::Fishing);
            let plan = TripPlan {
                mmsi,
                waypoints,
                cruise_knots: sample_range(&mut rng, profile.cruise_knots),
                report_interval_s: sample_range(&mut rng, profile.report_interval_s),
                depart_t: t,
                berth_before_min: 15.0,
                berth_after_min: 15.0,
            };
            let (points, end_t) = simulate_trip(&plan, &cfg, &mut rng);
            fleet.streams[idx].extend(points);
            t = end_t + rng.gen_range(6 * 3600..36 * 3600);
        }
    }

    // Pleasure craft and tugs: short hops between nearby ports.
    for v in 0..20 {
        let vtype = if v < 14 {
            VesselType::Pleasure
        } else {
            VesselType::Tug
        };
        let mmsi = 237_500_000 + v as u64;
        let idx = fleet.add_vessel(mmsi, vtype, format!("SAR Small {v}"), &mut rng);
        let a = rng.gen_range(0..world.ports.len());
        let mut b = rng.gen_range(0..world.ports.len());
        while b == a {
            b = rng.gen_range(0..world.ports.len());
        }
        let n = ((3.0 * scale).round() as usize).max(1);
        let start = EPOCH + rng.gen_range(0..20 * 24 * 3600);
        shuttle(
            &mut fleet,
            idx,
            &router,
            world.ports[a].pos,
            world.ports[b].pos,
            n,
            start,
            &cfg,
            &mut rng,
        );
    }

    fleet.finish("SAR", world)
}

/// A random navigable wander route (fishing grounds pattern): 3–5 sea
/// waypoints stitched together with the router.
fn wander_route(world: &World, router: &SeaRouter, rng: &mut StdRng) -> Option<Vec<GeoPoint>> {
    let mut anchors = Vec::new();
    let mut guard = 0;
    while anchors.len() < rng.gen_range(3..6) {
        guard += 1;
        if guard > 200 {
            return None;
        }
        let p = GeoPoint::new(
            rng.gen_range(world.bbox.min_lon + 0.05..world.bbox.max_lon - 0.05),
            rng.gen_range(world.bbox.min_lat + 0.05..world.bbox.max_lat - 0.05),
        );
        if world.is_sea(&p) {
            anchors.push(p);
        }
    }
    let mut route = vec![anchors[0]];
    for pair in anchors.windows(2) {
        let leg = router.route(&pair[0], &pair[1])?;
        route.extend_from_slice(&leg[1..]);
    }
    Some(route)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> DatasetSpec {
        DatasetSpec {
            seed: 7,
            scale: 0.15,
        }
    }

    #[test]
    fn dan_structure() {
        let d = dan(tiny());
        assert_eq!(d.name, "DAN");
        assert_eq!(d.vessels.len(), 16);
        assert!(d.num_positions() > 1_000, "{}", d.num_positions());
        let trips = d.trips();
        assert!(trips.len() >= 16, "trips {}", trips.len());
    }

    #[test]
    fn kiel_structure() {
        let d = kiel(tiny());
        assert_eq!(d.num_ships(), 2);
        let trips = d.trips();
        assert!(!trips.is_empty());
        // All traffic between the same two ports: trips are long.
        let avg_pts: f64 =
            trips.iter().map(|t| t.points.len()).sum::<usize>() as f64 / trips.len() as f64;
        assert!(avg_pts > 100.0, "avg {avg_pts}");
    }

    #[test]
    fn sar_structure() {
        let d = sar(tiny());
        assert!(d.num_ships() > 50, "{}", d.num_ships());
        let types: std::collections::HashSet<u8> =
            d.vessels.iter().map(|v| v.vtype.code()).collect();
        assert!(types.len() >= 6, "vessel diversity: {types:?}");
        let trips = d.trips();
        assert!(trips.len() > d.num_ships() / 2, "trips {}", trips.len());
    }

    #[test]
    fn determinism() {
        let a = kiel(tiny());
        let b = kiel(tiny());
        assert_eq!(a.num_positions(), b.num_positions());
        let c = kiel(DatasetSpec {
            seed: 8,
            scale: 0.15,
        });
        assert_ne!(a.num_positions(), c.num_positions());
    }

    #[test]
    fn scale_grows_data() {
        let small = kiel(DatasetSpec {
            seed: 7,
            scale: 0.1,
        });
        let large = kiel(DatasetSpec {
            seed: 7,
            scale: 0.3,
        });
        assert!(large.num_positions() > small.num_positions());
    }

    #[test]
    fn positions_are_at_sea_mostly() {
        let d = kiel(tiny());
        let mut on_land = 0usize;
        let mut total = 0usize;
        for traj in &d.trajectories {
            for p in &traj.points {
                if p.pos.is_valid() {
                    total += 1;
                    if d.world.land.contains(&p.pos) {
                        on_land += 1;
                    }
                }
            }
        }
        // Lateral noise near coasts can put a few points on our simplified
        // land polygons, but the overwhelming share must be at sea.
        assert!(total > 0);
        assert!(
            (on_land as f64 / total as f64) < 0.02,
            "{on_land}/{total} on land"
        );
    }

    #[test]
    fn csv_size_is_plausible() {
        let d = kiel(tiny());
        let bytes = d.csv_size_bytes();
        // ~55-70 bytes per row.
        assert!(bytes > d.num_positions() * 40);
        assert!(bytes < d.num_positions() * 100);
    }

    #[test]
    fn trip_table_has_expected_columns() {
        let d = kiel(tiny());
        let t = d.trip_table();
        assert!(!t.is_empty());
        assert_eq!(t.len(), d.trips().iter().map(|t| t.points.len()).sum());
    }
}
