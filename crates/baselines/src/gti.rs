//! GTI — Graph-based Trajectory Imputation (Isufaj et al., SIGSPATIAL'23).
//!
//! Network-less imputation from raw points: the training trajectories
//! become a directed graph whose nodes are the observed AIS points.
//! Consecutive points of the same trip are connected; points of
//! *different* trips are cross-connected when within the candidate radius
//! `rd` (degrees) and the metric radius `rm` (meters). A gap is imputed by
//! snapping its endpoints to the nearest graph nodes and running Dijkstra
//! with great-circle edge weights — the path follows real past tracks.
//!
//! The two radii are the knobs the paper sweeps: larger `rd` adds more
//! cross edges, which improves connectivity and accuracy on confined
//! routes but inflates the model (Table 2 shows order-of-magnitude larger
//! footprints than HABIT) and slows queries (Table 4).

use ais::Trip;
use geo_kernel::{haversine_m, GeoPoint, TimedPoint};
use mobgraph::{dijkstra, CsrGraph, DiGraph, NearestIndex};

/// GTI hyper-parameters, named as in the paper: `rm` (radius in meters)
/// and `rd` (radius in degrees).
#[derive(Debug, Clone, Copy)]
pub struct GtiConfig {
    /// Metric cross-link radius, meters.
    pub rm_m: f64,
    /// Candidate cross-link radius, degrees.
    pub rd_deg: f64,
    /// Maximum distance a gap endpoint may snap to a node, meters.
    pub snap_max_m: f64,
}

impl Default for GtiConfig {
    fn default() -> Self {
        Self {
            rm_m: 250.0,
            rd_deg: 1e-4,
            snap_max_m: 10_000.0,
        }
    }
}

/// Node payload: the observed point (position packed as two f64 plus the
/// owning trip for cross-link filtering).
#[derive(Debug, Clone, Copy, PartialEq)]
struct GtiNode {
    lon: f64,
    lat: f64,
    trip: u64,
}

impl mobgraph::Codec for GtiNode {
    fn encode(&self, out: &mut Vec<u8>) {
        self.lon.encode(out);
        self.lat.encode(out);
        self.trip.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some(Self {
            lon: f64::decode(buf)?,
            lat: f64::decode(buf)?,
            trip: u64::decode(buf)?,
        })
    }
}

/// Errors from GTI fitting and imputation.
#[derive(Debug, PartialEq)]
pub enum GtiError {
    /// Training data contained no usable points.
    EmptyModel,
    /// A gap endpoint is farther than `snap_max_m` from every node.
    SnapFailed,
    /// No path connects the snapped endpoints.
    NoPath,
}

impl std::fmt::Display for GtiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GtiError::EmptyModel => write!(f, "GTI model is empty"),
            GtiError::SnapFailed => write!(f, "gap endpoint too far from the point graph"),
            GtiError::NoPath => write!(f, "no path between snapped endpoints"),
        }
    }
}

impl std::error::Error for GtiError {}

/// A fitted GTI model.
pub struct GtiModel {
    config: GtiConfig,
    graph: DiGraph<GtiNode, f32>,
    nn: NearestIndex,
}

impl GtiModel {
    /// Builds the point graph from training trips.
    pub fn fit(trips: &[Trip], config: GtiConfig) -> Result<Self, GtiError> {
        let total: usize = trips.iter().map(|t| t.points.len()).sum();
        if total == 0 {
            return Err(GtiError::EmptyModel);
        }
        let mut graph: DiGraph<GtiNode, f32> = DiGraph::with_capacity(total);
        let mut positions: Vec<GeoPoint> = Vec::with_capacity(total);

        // Nodes + sequential (intra-trip) edges, both directions: a past
        // track can be followed either way when bridging a gap.
        let mut id = 0u64;
        for trip in trips {
            let mut prev: Option<u64> = None;
            for p in &trip.points {
                graph.add_node(
                    id,
                    GtiNode {
                        lon: p.pos.lon,
                        lat: p.pos.lat,
                        trip: trip.trip_id,
                    },
                );
                positions.push(p.pos);
                if let Some(prev_id) = prev {
                    let d = haversine_m(&positions[prev_id as usize], &p.pos) as f32;
                    graph.add_edge(prev_id, id, d);
                    graph.add_edge(id, prev_id, d);
                }
                prev = Some(id);
                id += 1;
            }
        }

        // Cross-trip edges: within rd degrees AND rm meters.
        let bucket = config.rd_deg.max(1e-6);
        let nn = NearestIndex::build(positions.clone(), bucket);
        let rd_m_equiv = config.rd_deg * 111_320.0; // conservative metric cap for rd
        let radius = config.rm_m.min(rd_m_equiv.max(1.0));
        for (i, pos) in positions.iter().enumerate() {
            let my_trip = graph.node_by_index(i as u32).trip;
            for (j, d) in nn.within_radius(pos, radius) {
                if j as usize == i {
                    continue;
                }
                // Also require the degree-space condition (Chebyshev).
                let other = graph.node_by_index(j);
                if (other.lon - pos.lon).abs() > config.rd_deg
                    || (other.lat - pos.lat).abs() > config.rd_deg
                {
                    continue;
                }
                if other.trip == my_trip {
                    continue; // sequential edges already cover intra-trip
                }
                graph.add_edge(i as u64, j as u64, d as f32);
            }
        }

        Ok(Self { config, graph, nn })
    }

    /// Number of point nodes.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of edges (sequential + cross).
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// Serialized model size in bytes — the paper's Table 2 metric: the
    /// point graph written in HABIT's own graph layout (HBG1), so both
    /// frameworks are measured in one format.
    pub fn storage_bytes(&self) -> usize {
        CsrGraph::from_digraph(&self.graph).to_bytes().len()
    }

    /// Imputes a gap: snap endpoints, Dijkstra over the point graph,
    /// timestamps allocated along the path by cumulative distance.
    pub fn impute(&self, start: TimedPoint, end: TimedPoint) -> Result<Vec<TimedPoint>, GtiError> {
        let (s_idx, s_d) = self.nn.nearest(&start.pos).ok_or(GtiError::EmptyModel)?;
        let (e_idx, e_d) = self.nn.nearest(&end.pos).ok_or(GtiError::EmptyModel)?;
        if s_d > self.config.snap_max_m || e_d > self.config.snap_max_m {
            return Err(GtiError::SnapFailed);
        }
        let result = dijkstra(&self.graph, s_idx as u64, e_idx as u64, |_, _, w| *w as f64)
            .ok_or(GtiError::NoPath)?;

        let mut positions = Vec::with_capacity(result.nodes.len() + 2);
        positions.push(start.pos);
        for id in &result.nodes {
            let n = self.graph.node(*id).expect("path node exists");
            positions.push(GeoPoint::new(n.lon, n.lat));
        }
        positions.push(end.pos);

        // Allocate timestamps by cumulative distance.
        let mut cum = Vec::with_capacity(positions.len());
        let mut acc = 0.0;
        cum.push(0.0);
        for w in positions.windows(2) {
            acc += haversine_m(&w[0], &w[1]);
            cum.push(acc);
        }
        let total = acc.max(1e-9);
        let span = (end.t - start.t) as f64;
        Ok(positions
            .iter()
            .zip(&cum)
            .map(|(p, &d)| TimedPoint {
                pos: *p,
                t: start.t + (span * d / total).round() as i64,
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ais::AisPoint;

    /// Parallel lanes: several trips along the same L-shaped route with a
    /// slight lateral offset each (as real traffic looks).
    fn training_trips() -> Vec<Trip> {
        let mut trips = Vec::new();
        for k in 0..4u64 {
            let off = k as f64 * 0.0004;
            let mut points = Vec::new();
            let mut t = 0i64;
            for i in 0..80 {
                points.push(AisPoint::new(
                    100 + k,
                    t,
                    10.0 + i as f64 * 0.005,
                    56.0 + off,
                    12.0,
                    90.0,
                ));
                t += 60;
            }
            for i in 0..80 {
                points.push(AisPoint::new(
                    100 + k,
                    t,
                    10.4 + off,
                    56.0 + off + i as f64 * 0.004,
                    12.0,
                    0.0,
                ));
                t += 60;
            }
            trips.push(Trip {
                trip_id: k + 1,
                mmsi: 100 + k,
                points,
            });
        }
        trips
    }

    #[test]
    fn fit_builds_point_graph() {
        let trips = training_trips();
        let m = GtiModel::fit(&trips, GtiConfig::default()).unwrap();
        assert_eq!(m.node_count(), 4 * 160);
        // Sequential edges at minimum: 2*(159) per trip.
        assert!(m.edge_count() >= 4 * 159 * 2);
    }

    #[test]
    fn larger_rd_means_bigger_model() {
        let trips = training_trips();
        let small = GtiModel::fit(
            &trips,
            GtiConfig {
                rd_deg: 1e-4,
                ..GtiConfig::default()
            },
        )
        .unwrap();
        let large = GtiModel::fit(
            &trips,
            GtiConfig {
                rd_deg: 1e-3,
                rm_m: 250.0,
                ..GtiConfig::default()
            },
        )
        .unwrap();
        assert!(
            large.edge_count() > small.edge_count(),
            "{} vs {}",
            large.edge_count(),
            small.edge_count()
        );
        assert!(large.storage_bytes() > small.storage_bytes());
    }

    #[test]
    fn imputes_along_past_tracks() {
        let trips = training_trips();
        let m = GtiModel::fit(
            &trips,
            GtiConfig {
                rd_deg: 1e-3,
                ..GtiConfig::default()
            },
        )
        .unwrap();
        // Gap across the corner of the L.
        let start = TimedPoint::new(10.2, 56.0, 0);
        let end = TimedPoint::new(10.4, 56.2, 7200);
        let path = m.impute(start, end).unwrap();
        assert!(path.len() > 10);
        assert_eq!(path.first().unwrap().t, 0);
        assert_eq!(path.last().unwrap().t, 7200);
        // Path must pass near the corner (10.4, 56.0).
        let corner = GeoPoint::new(10.4, 56.0);
        let min_d = path
            .iter()
            .map(|p| haversine_m(&p.pos, &corner))
            .fold(f64::INFINITY, f64::min);
        assert!(min_d < 2_000.0, "corner missed by {min_d} m");
    }

    #[test]
    fn snap_limit_enforced() {
        let trips = training_trips();
        let m = GtiModel::fit(&trips, GtiConfig::default()).unwrap();
        let far = TimedPoint::new(0.0, 0.0, 0);
        let near = TimedPoint::new(10.2, 56.0, 100);
        assert_eq!(m.impute(far, near), Err(GtiError::SnapFailed));
    }

    #[test]
    fn empty_training_rejected() {
        assert!(matches!(
            GtiModel::fit(&[], GtiConfig::default()),
            Err(GtiError::EmptyModel)
        ));
    }

    #[test]
    fn timestamps_monotone() {
        let trips = training_trips();
        let m = GtiModel::fit(&trips, GtiConfig::default()).unwrap();
        let path = m
            .impute(
                TimedPoint::new(10.05, 56.0, 500),
                TimedPoint::new(10.35, 56.0, 4000),
            )
            .unwrap();
        for w in path.windows(2) {
            assert!(w[1].t >= w[0].t);
        }
    }
}
