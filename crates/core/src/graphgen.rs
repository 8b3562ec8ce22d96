//! Phase 2: graph generation (paper §3.2).
//!
//! Mirrors the paper's DuckDB CTE step by step:
//!
//! 1. read the trip table and assign each message its H3 cell `cl` at the
//!    configured resolution;
//! 2. drop trips confined to ≤ `min_cell_span` adjacent cells (sea drift);
//! 3. window-lag the cell over each trip (`lag_cl`), one typed pass over
//!    the trips' contiguous, time-ordered runs;
//! 4. group by `cl` → per-cell statistics; group by `(lag_cl, cl)` →
//!    transition statistics — the typed, mergeable accumulators of
//!    [`crate::FitState`];
//! 5. assemble the weighted directed graph from the finished groups,
//!    straight into its one layout, the frozen [`CsrGraph`].

use crate::config::HabitConfig;
use crate::error::HabitError;
use crate::window::{lag_cells, LaggedTrips};
use ais::TripTable;
use geo_kernel::GeoPoint;
use hexgrid::{HexCell, HexGrid};
use mobgraph::{Codec, CsrGraph};

/// The weighted directed transition graph a fit produces.
pub type TransitionGraph = CsrGraph<CellStats, EdgeStats>;

/// Per-cell aggregate statistics — the graph's node attributes
/// (paper §3.2 "for each H3 cell group cl we compute …").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellStats {
    /// Median longitude of AIS positions in the cell.
    pub median_lon: f64,
    /// Median latitude of AIS positions in the cell.
    pub median_lat: f64,
    /// Total number of AIS records (`count(*)`).
    pub msg_count: u64,
    /// Approximate distinct vessels (`approx_count_distinct(VESSEL_ID)`).
    pub vessels: u64,
    /// Median speed over ground, knots.
    pub median_sog: f64,
    /// Median course over ground, degrees.
    pub median_cog: f64,
}

impl Codec for CellStats {
    fn encode(&self, out: &mut Vec<u8>) {
        self.median_lon.encode(out);
        self.median_lat.encode(out);
        self.msg_count.encode(out);
        self.vessels.encode(out);
        self.median_sog.encode(out);
        self.median_cog.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some(Self {
            median_lon: f64::decode(buf)?,
            median_lat: f64::decode(buf)?,
            msg_count: u64::decode(buf)?,
            vessels: u64::decode(buf)?,
            median_sog: f64::decode(buf)?,
            median_cog: f64::decode(buf)?,
        })
    }
}

/// Per-transition aggregate statistics — the graph's edge attributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeStats {
    /// Approximate distinct trips that made this transition
    /// (`approx_count_distinct(TRIP_ID)`) — the edge weight.
    pub transitions: u32,
    /// Transition length in H3 cells (`h3_grid_distance`); > 1 when a
    /// sparse trajectory skipped cells.
    pub grid_distance: u32,
}

impl Codec for EdgeStats {
    fn encode(&self, out: &mut Vec<u8>) {
        self.transitions.encode(out);
        self.grid_distance.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some(Self {
            transitions: u32::decode(buf)?,
            grid_distance: u32::decode(buf)?,
        })
    }
}

/// Stages 1–3 of graph generation: cell assignment, the cell-span drift
/// filter, and the window lag ([`crate::window`]), as typed passes over
/// `table`. Exposed so `habit-engine` can shard the group-bys spatially.
pub fn lagged_trip_table<'a>(
    table: &'a TripTable,
    config: &HabitConfig,
) -> Result<LaggedTrips<'a>, HabitError> {
    let grid = HexGrid::new();

    // -- 1. Assign each message its H3 cell.
    let cells = table
        .lon()
        .iter()
        .zip(table.lat())
        .map(|(&lon, &lat)| {
            Ok(grid
                .cell(&GeoPoint::new(lon, lat), config.resolution)?
                .raw())
        })
        .collect::<Result<Vec<u64>, HabitError>>()?;

    // -- 2. Cell-span filter: drop trips confined to ≤ min_cell_span
    //       mutually adjacent cells (paper: "minor, non-essential local
    //       displacements, e.g. sea drift"). An all-drift table lags to
    //       zero rows — legal here: accumulation over it is an empty
    //       (still mergeable) fit state, and it is `assemble_graph` that
    //       rejects an empty *model*.
    // -- 3. lag(cl) OVER (PARTITION BY trip_id ORDER BY ts).
    Ok(lag_cells(table, &cells, |trip| {
        !is_drift(
            &grid,
            trip.iter().map(|&row| cells[row]),
            config.min_cell_span,
        )
    }))
}

/// Phase-2 step 5: assembles the weighted directed graph from the two
/// finished group-bys. `transitions` yields `(lag_cl, cl, distinct
/// trips)` with distinct keys — the fit passes them ascending, which is
/// CSR order, so [`CsrGraph::from_parts`] has nothing to sort — and
/// `cell_stats` looks a cell's statistics up. Nodes are the cells
/// present in the edge list (paper: "nodes … identified by the
/// corresponding H3 cells present in the edge list"), attributed from
/// the cell statistics, or the cell center for a cell no row landed in.
pub(crate) fn assemble_graph(
    transitions: impl IntoIterator<Item = (u64, u64, u64)>,
    cell_stats: impl Fn(u64) -> Option<CellStats>,
) -> Result<TransitionGraph, HabitError> {
    let grid = HexGrid::new();
    let mut edges = Vec::new();
    for (from, to, trips) in transitions {
        let (from_cell, to_cell) = (HexCell::from_raw(from)?, HexCell::from_raw(to)?);
        let stats = EdgeStats {
            transitions: (trips as u32).max(1),
            grid_distance: grid.grid_distance(from_cell, to_cell)?,
        };
        edges.push((from, to, stats));
    }
    if edges.is_empty() {
        return Err(HabitError::EmptyModel);
    }

    let mut ids: Vec<u64> = edges.iter().flat_map(|&(from, to, _)| [from, to]).collect();
    ids.sort_unstable();
    ids.dedup();
    let mut nodes = Vec::with_capacity(ids.len());
    for id in ids {
        let stats = match cell_stats(id) {
            Some(stats) => stats,
            None => {
                let center = grid.center(HexCell::from_raw(id)?);
                CellStats {
                    median_lon: center.lon,
                    median_lat: center.lat,
                    msg_count: 0,
                    vessels: 0,
                    median_sog: 0.0,
                    median_cog: 0.0,
                }
            }
        };
        nodes.push((id, stats));
    }
    Ok(CsrGraph::from_parts(nodes, edges)
        .expect("distinct transition keys over their own endpoint cells"))
}

/// `true` when a trip's cells number at most `span` and are pairwise
/// within grid distance 1 (the paper's "one or at most two adjacent H3
/// cells" criterion generalized to `min_cell_span`).
fn is_drift(grid: &HexGrid, cells: impl Iterator<Item = u64>, span: usize) -> bool {
    let mut distinct: Vec<u64> = Vec::new();
    for cell in cells {
        if !distinct.contains(&cell) {
            if distinct.len() == span {
                return false;
            }
            distinct.push(cell);
        }
    }
    let hexes: Vec<HexCell> = distinct
        .iter()
        .filter_map(|&c| HexCell::from_raw(c).ok())
        .collect();
    hexes.iter().enumerate().all(|(i, &a)| {
        hexes[i + 1..]
            .iter()
            .all(|&b| grid.grid_distance(a, b).is_ok_and(|d| d <= 1))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fitstate::FitState;
    use ais::{trips_to_table, AisPoint, Trip};

    fn fit_graph(table: &TripTable, config: &HabitConfig) -> Result<TransitionGraph, HabitError> {
        FitState::accumulate(table, *config)?.finalize()
    }

    /// Builds trips flying east along lat 56 at ~12 kn, one report/min.
    fn eastbound_trip(trip_id: u64, mmsi: u64, n: usize) -> Trip {
        Trip {
            trip_id,
            mmsi,
            points: (0..n)
                .map(|i| {
                    AisPoint::new(
                        mmsi,
                        i as i64 * 60,
                        10.0 + i as f64 * 0.005,
                        56.0,
                        12.0,
                        90.0,
                    )
                })
                .collect(),
        }
    }

    #[test]
    fn graph_from_repeated_trips() {
        let trips: Vec<Trip> = (0..5)
            .map(|k| eastbound_trip(k + 1, 100 + k, 120))
            .collect();
        let table = trips_to_table(&trips);
        let g = fit_graph(&table, &HabitConfig::default()).unwrap();
        assert!(g.node_count() > 10, "nodes {}", g.node_count());
        assert!(g.edge_count() >= g.node_count() - 1);
        // All 5 trips follow the same lane: every edge should have seen
        // roughly 5 transitions.
        let weights: Vec<u32> = g.weights().iter().map(|e| e.transitions).collect();
        let avg: f64 = weights.iter().map(|w| *w as f64).sum::<f64>() / weights.len() as f64;
        assert!(avg > 3.0, "avg transitions {avg}");
    }

    #[test]
    fn node_attributes_are_medians() {
        let trips = vec![eastbound_trip(1, 100, 200)];
        let table = trips_to_table(&trips);
        let g = fit_graph(&table, &HabitConfig::default()).unwrap();
        for (_, stats) in g.nodes() {
            if stats.msg_count > 0 {
                assert!((stats.median_lat - 56.0).abs() < 0.01);
                assert!((10.0..11.5).contains(&stats.median_lon));
                assert!((stats.median_sog - 12.0).abs() < 0.5);
            }
        }
    }

    #[test]
    fn drift_trips_filtered_out() {
        // A "trip" jittering inside one cell (sea drift) must not create
        // nodes; a real trip must.
        let drift = Trip {
            trip_id: 1,
            mmsi: 100,
            points: (0..50)
                .map(|i| AisPoint::new(100, i * 60, 10.0 + (i % 2) as f64 * 1e-4, 56.0, 0.6, 0.0))
                .collect(),
        };
        let real = eastbound_trip(2, 101, 100);
        let table = trips_to_table(&[drift, real]);
        let g = fit_graph(&table, &HabitConfig::default()).unwrap();
        // All nodes stem from the eastbound lane at lat 56, lon >= 10.
        for (_, stats) in g.nodes() {
            assert!(stats.median_lon >= 9.99);
        }

        // Only-drift input yields an empty model error.
        let only_drift = Trip {
            trip_id: 3,
            mmsi: 102,
            points: (0..50)
                .map(|i| AisPoint::new(102, i * 60, 11.0 + (i % 2) as f64 * 1e-4, 56.5, 0.6, 0.0))
                .collect(),
        };
        let t2 = trips_to_table(&[only_drift]);
        assert!(matches!(
            fit_graph(&t2, &HabitConfig::default()),
            Err(HabitError::EmptyModel)
        ));
    }

    #[test]
    fn coarser_resolution_fewer_nodes() {
        // Dense reporting (~60 m spacing) so that fine-resolution cells
        // are saturated rather than visit-limited.
        let trips: Vec<Trip> = (0..3)
            .map(|k| Trip {
                trip_id: k + 1,
                mmsi: 100 + k,
                points: (0..600)
                    .map(|i| {
                        AisPoint::new(
                            100 + k,
                            i as i64 * 10,
                            10.0 + i as f64 * 0.001,
                            56.0,
                            12.0,
                            90.0,
                        )
                    })
                    .collect(),
            })
            .collect();
        let table = trips_to_table(&trips);
        let g8 = fit_graph(&table, &HabitConfig::with_r_t(8, 100.0)).unwrap();
        let g10 = fit_graph(&table, &HabitConfig::with_r_t(10, 100.0)).unwrap();
        assert!(
            g10.node_count() > g8.node_count() * 2,
            "r8 {} vs r10 {}",
            g8.node_count(),
            g10.node_count()
        );
    }

    /// Sparse reports at r=15 (about 37 km apart, cells half a metre
    /// across) make transitions tens of thousands of cells long: every
    /// edge stores the exact `HexGrid::grid_distance` of its endpoints,
    /// past `u16::MAX` included.
    #[test]
    fn fine_resolution_grid_distances_are_exact() {
        let sparse = |trip_id: u64, lat: f64| Trip {
            trip_id,
            mmsi: 100 + trip_id,
            points: (0..4)
                .map(|i| {
                    AisPoint::new(
                        100 + trip_id,
                        i * 3_600,
                        10.0 + i as f64 * 0.6,
                        lat,
                        12.0,
                        90.0,
                    )
                })
                .collect(),
        };
        let table = trips_to_table(&[sparse(1, 56.0), sparse(2, 56.01)]);
        let g = fit_graph(&table, &HabitConfig::with_r_t(15, 100.0)).unwrap();
        let grid = HexGrid::new();
        let cell = |idx: u32| HexCell::from_raw(g.node_id(idx)).unwrap();
        let mut longest = 0;
        for from in 0..g.node_count() as u32 {
            for (to, e) in g.edges_from_index(from) {
                assert_eq!(
                    e.grid_distance,
                    grid.grid_distance(cell(from), cell(to)).unwrap()
                );
                longest = longest.max(e.grid_distance);
            }
        }
        assert!(
            longest > u32::from(u16::MAX),
            "longest edge {longest} cells"
        );
    }

    /// HBG1 stores `grid_distance` in a u32 slot, and every value of it
    /// is a distance.
    #[test]
    fn edge_stats_round_trip_grid_distance_above_u16() {
        for grid_distance in [70_000u32, u32::MAX] {
            let e = EdgeStats {
                transitions: 7,
                grid_distance,
            };
            let mut buf = Vec::new();
            e.encode(&mut buf);
            assert_eq!(buf.len(), 8);
            assert_eq!(EdgeStats::decode(&mut buf.as_slice()), Some(e));
        }
    }

    #[test]
    fn edge_stats_encode_round_trip() {
        let e = EdgeStats {
            transitions: 77,
            grid_distance: 3,
        };
        let mut buf = Vec::new();
        e.encode(&mut buf);
        let mut slice = buf.as_slice();
        assert_eq!(EdgeStats::decode(&mut slice), Some(e));
        let s = CellStats {
            median_lon: 1.5,
            median_lat: -2.5,
            msg_count: 10,
            vessels: 3,
            median_sog: 12.0,
            median_cog: 270.0,
        };
        let mut buf2 = Vec::new();
        s.encode(&mut buf2);
        let mut slice2 = buf2.as_slice();
        assert_eq!(CellStats::decode(&mut slice2), Some(s));
    }
}
