//! Phases 3–4: gap imputation and simplification (paper §3.3–3.4).
//!
//! One way to answer a gap: [`HabitModel::route_between`] runs A* over
//! the model's frozen [`mobgraph::CsrGraph`] with a pooled
//! [`SearchArena`], and the tail (inverse projection, timestamps, RDP)
//! runs the in-place RDP kernel with a thread-local [`RdpScratch`] —
//! with or without provenance, which reads the kept indices off that
//! same RDP run. Steady-state routing allocates only the result.
//!
//! The paper's naive form (per-query A* over a hash-indexed `DiGraph`,
//! recursive sub-path-cloning RDP) is kept as the oracle in
//! [`crate::reference`]; the tests below pin this module byte-identical
//! to it.

use crate::config::{CellProjection, WeightScheme};
use crate::error::HabitError;
use crate::graphgen::EdgeStats;
use crate::model::HabitModel;
use geo_kernel::{haversine_m, rdp_timed_in_place, GeoPoint, RdpScratch, TimedPoint};
use hexgrid::{ops, HexCell};
use mobgraph::{astar_csr_baked, SearchArena};
use std::cell::RefCell;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Process-wide checkout stack of warm search arenas. A search pops one
/// (or starts a fresh one) and pushes it back when done, so the arenas
/// resident — half a megabyte each on a 30 k-cell graph — number the
/// peak *concurrent* searches, not the threads that ever searched: a
/// daemon searches on its connection threads, its admission flusher and
/// the helper threads of its engine calls, but rarely on more than two
/// of them at once. The two uncontended lock operations are noise
/// against a search.
static ARENA_POOL: Mutex<Vec<SearchArena>> = Mutex::new(Vec::new());

/// The pool, poison recovered: the `Vec` is valid at every step.
fn arena_pool() -> MutexGuard<'static, Vec<SearchArena>> {
    ARENA_POOL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `search` with an arena checked out of [`ARENA_POOL`]. A search
/// that panics simply forfeits its arena.
fn with_pooled_arena<R>(search: impl FnOnce(&mut SearchArena) -> R) -> R {
    let mut arena = arena_pool().pop().unwrap_or_default();
    let result = search(&mut arena);
    arena_pool().push(arena);
    result
}

/// Arenas currently checked in — the pin `tests/arena_pool.rs` reads.
#[doc(hidden)]
pub fn pooled_search_arenas() -> usize {
    arena_pool().len()
}

thread_local! {
    /// Per-thread RDP scratch for the in-place simplification tail.
    static RDP_SCRATCH: RefCell<RdpScratch> = RefCell::new(RdpScratch::new());
}

/// A gap to impute: the last report before the silence and the first
/// report after it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GapQuery {
    /// Last known position/time before the gap.
    pub start: TimedPoint,
    /// First known position/time after the gap.
    pub end: TimedPoint,
}

impl GapQuery {
    /// Builds a query from raw coordinates and Unix timestamps.
    pub fn new(lon1: f64, lat1: f64, t1: i64, lon2: f64, lat2: f64, t2: i64) -> Self {
        Self {
            start: TimedPoint::new(lon1, lat1, t1),
            end: TimedPoint::new(lon2, lat2, t2),
        }
    }

    /// Gap duration in seconds.
    pub fn duration_s(&self) -> i64 {
        self.end.t - self.start.t
    }
}

/// The result of an imputation query.
#[derive(Debug, Clone)]
pub struct Imputation {
    /// The imputed path: gap endpoints plus reconstructed intermediate
    /// positions with interpolated timestamps, RDP-simplified.
    pub points: Vec<TimedPoint>,
    /// The cell sequence the A* search selected.
    pub cells: Vec<HexCell>,
    /// Cell the start endpoint snapped to.
    pub start_cell: HexCell,
    /// Cell the end endpoint snapped to.
    pub end_cell: HexCell,
    /// A* path cost under the configured weight scheme.
    pub cost: f64,
    /// Nodes expanded by the search (effort metric).
    pub expanded: usize,
    /// Number of path positions before simplification (Table 3's `cnt`).
    pub raw_point_count: usize,
    /// Per-point repair provenance, parallel to `points`. `None` on the
    /// default path — provenance is opt-in
    /// ([`HabitModel::impute_with_provenance`]) and costs nothing when
    /// absent.
    pub provenance: Option<Vec<PointProvenance>>,
}

/// How an imputed point came to exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProvenanceKind {
    /// A gap endpoint: the vessel's own last/first report, not imputed.
    Observed,
    /// An RDP-kept vertex of the A* route through the transition graph.
    Route,
    /// A point synthesized after simplification (track-repair
    /// densification), carrying the evidence of the route segment it
    /// subdivides.
    Synthesized,
}

impl ProvenanceKind {
    /// The stable wire/CSV token.
    pub fn as_str(self) -> &'static str {
        match self {
            ProvenanceKind::Observed => "observed",
            ProvenanceKind::Route => "route",
            ProvenanceKind::Synthesized => "synthesized",
        }
    }

    /// Parses a wire/CSV token.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "observed" => Some(ProvenanceKind::Observed),
            "route" => Some(ProvenanceKind::Route),
            "synthesized" => Some(ProvenanceKind::Synthesized),
            _ => None,
        }
    }
}

/// The evidence trail of one imputed point: which transition edge the
/// route traversed to reach it, how much historical support that edge
/// and cell have, and how much of the route's total cost the step paid.
/// The seam for quality-gated serving — a support threshold can refuse
/// or flag low-evidence points instead of silently extrapolating.
#[derive(Debug, Clone, PartialEq)]
pub struct PointProvenance {
    /// How the point came to exist.
    pub kind: ProvenanceKind,
    /// The grid cell backing the point (the snapped cell for observed
    /// endpoints, the route vertex otherwise). `None` only for
    /// synthesized points between route vertices.
    pub cell: Option<HexCell>,
    /// The preceding route cell — the traversed transition edge's
    /// source. `None` for endpoints and the first route vertex.
    pub from_cell: Option<HexCell>,
    /// Historical AIS reports aggregated in `cell` (per-cell support).
    pub cell_msgs: u64,
    /// Distinct historical trips that traversed `from_cell → cell`
    /// (per-edge support); 0 when no edge was traversed.
    pub edge_transitions: u32,
    /// The traversed edge's cost as a share of the route's total cost
    /// (0 when no edge was traversed or the route cost is 0).
    pub cost_share: f64,
    /// Support-derived confidence in [0, 1]: 1 for observed endpoints
    /// and route anchors, `transitions / (transitions + 1)` for
    /// traversed edges — monotone in the historical support.
    pub confidence: f64,
}

/// A resolved cell-level route between two snapped endpoint cells — the
/// A* result before any per-query work (inverse projection, timestamp
/// allocation, simplification) is applied. Routes depend only on the
/// `(start_cell, end_cell)` pair, which is what makes them cacheable
/// across a batch of gap queries (`habit-engine`'s `BatchImputer`).
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    /// The cell sequence from start to end cell, inclusive.
    pub cells: Vec<HexCell>,
    /// A* path cost under the configured weight scheme.
    pub cost: f64,
    /// Nodes expanded by the search.
    pub expanded: usize,
    /// Dense graph index of each of `cells`, resolved once when the
    /// route is built so the per-query tail reads node statistics by
    /// index instead of searching for every cell of every query (empty
    /// for a trivial route, which is never projected).
    pub(crate) nodes: Vec<u32>,
}

impl Route {
    /// `true` when start and end snapped into the same cell (no search
    /// ran).
    pub fn is_trivial(&self) -> bool {
        self.cells.len() <= 1
    }

    /// The route of a gap whose endpoints share `cell`.
    pub(crate) fn trivial(cell: HexCell) -> Self {
        Self {
            cells: vec![cell],
            cost: 0.0,
            expanded: 0,
            nodes: Vec::new(),
        }
    }
}

impl HabitModel {
    /// Imputes a gap (paper §3.3–3.4): snap endpoints → A* over the
    /// transition graph → inverse projection (`p`) → timestamp allocation
    /// → RDP simplification (`t`).
    pub fn impute(&self, gap: &GapQuery) -> Result<Imputation, HabitError> {
        self.impute_full(gap, false)
    }

    /// [`Self::impute`] with per-point [`PointProvenance`] attached.
    /// Same search, same tail, same RDP run — only the `provenance`
    /// field differs.
    pub fn impute_with_provenance(&self, gap: &GapQuery) -> Result<Imputation, HabitError> {
        self.impute_full(gap, true)
    }

    fn impute_full(&self, gap: &GapQuery, provenance: bool) -> Result<Imputation, HabitError> {
        if self.csr.node_count() == 0 {
            return Err(HabitError::EmptyModel);
        }
        let (start_cell, _) = self.snap(&gap.start.pos)?;
        let (end_cell, _) = self.snap(&gap.end.pos)?;
        let route = self.route_between(start_cell, end_cell)?;
        Ok(self.imputation_from_route_full(gap, &route, start_cell, end_cell, provenance))
    }

    /// Phase 3's search step in isolation: the A* route between two
    /// snapped cells. Deterministic in `(start_cell, end_cell)`, so the
    /// result can be reused across queries that snap to the same pair.
    ///
    /// A* over the frozen CSR graph with a pooled [`SearchArena`]
    /// (whichever thread calls). Byte-identical to
    /// [`crate::reference::Reference::route_between`] — both searches
    /// share the pinned frontier order, and the weight/heuristic
    /// functions depend only on edge payloads and external node ids.
    pub fn route_between(
        &self,
        start_cell: HexCell,
        end_cell: HexCell,
    ) -> Result<Route, HabitError> {
        // Trivial gap: both endpoints in the same cell.
        if start_cell == end_cell {
            return Ok(Route::trivial(start_cell));
        }

        let goal_cell = end_cell;
        // Baked heuristic: same integer hex-distance arithmetic as
        // `HexGrid::grid_distance` (the reference's), but reading the
        // pre-decoded axial coords from the baked edge records instead
        // of unpacking the cell id per push. Every model node shares
        // `config.resolution`, so the resolution-mismatch arm of
        // `grid_distance` never fires and the produced f64s are
        // identical.
        let min_step_cost = self.min_cost_per_grid_step();
        let (gq, gr) = goal_cell.axial();
        let hex_estimate = move |(q, r): (i32, i32)| {
            let (dq, dr) = (q as i64 - gq, r as i64 - gr);
            let ds = dq + dr;
            (((dq.abs() + dr.abs() + ds.abs()) / 2) as u32) as f64 * min_step_cost
        };
        let (sq, sr) = start_cell.axial();
        let start_est = hex_estimate((sq as i32, sr as i32));
        let result = with_pooled_arena(|arena| {
            astar_csr_baked(
                &self.csr,
                arena,
                start_cell.raw(),
                goal_cell.raw(),
                &self.route_kernel,
                start_est,
                hex_estimate,
            )
        })
        .ok_or(HabitError::NoPath {
            from: start_cell.raw(),
            to: goal_cell.raw(),
        })?;

        Ok(self.route_from_path(result))
    }

    /// Converts a search [`mobgraph::PathResult`] over this model's
    /// graph into a [`Route`].
    pub(crate) fn route_from_path(&self, result: mobgraph::PathResult) -> Route {
        let (cells, nodes) = result
            .nodes
            .iter()
            .map(|&id| {
                (
                    HexCell::from_raw(id).expect("valid node id"),
                    self.csr.node_index(id).expect("path nodes are graph nodes"),
                )
            })
            .unzip();
        Route {
            cells,
            nodes,
            cost: result.cost,
            expanded: result.expanded,
        }
    }

    /// Bakes the serving kernel's edge table once per model freeze: for
    /// every CSR edge slot, the exact `f64` cost [`Self::edge_cost`]
    /// returns plus the target's id and axial coords for the heuristic.
    /// Edge weights never change after fit, so recomputing the divide +
    /// `ln` and the cell decode per edge visit (as the reference does)
    /// is pure waste — and because the baked values come from the same
    /// formula on the same inputs, routing stays byte-identical.
    pub(crate) fn baked_route_kernel(&self) -> Vec<mobgraph::BakedEdge<(i32, i32)>> {
        let csr = &self.csr;
        let axial32 = |id: u64| -> (i32, i32) {
            let (q, r) = HexCell::from_raw(id)
                .expect("node ids are valid cells")
                .axial();
            // Axial hex coords at any real resolution are far below
            // i32 range; the narrowing halves the record size.
            (
                i32::try_from(q).expect("axial q fits i32"),
                i32::try_from(r).expect("axial r fits i32"),
            )
        };
        let mut kernel = Vec::with_capacity(csr.edge_count());
        for idx in 0..csr.node_count() as u32 {
            for (to, e) in csr.edges_from_index(idx) {
                let id = csr.node_id(to);
                kernel.push(mobgraph::BakedEdge {
                    cost: self.edge_cost(e),
                    id,
                    to_idx: to,
                    hkey: axial32(id),
                });
            }
        }
        kernel
    }

    /// The A* edge weight under the configured scheme. Depends only on
    /// the edge payload, so the kernel and the reference compute
    /// identical costs.
    pub(crate) fn edge_cost(&self, e: &EdgeStats) -> f64 {
        match self.config.weight_scheme {
            WeightScheme::Hops => 1.0,
            WeightScheme::InverseTransitions => 1.0 / e.transitions as f64,
            WeightScheme::NegLogFrequency => {
                (1.0 + self.max_transitions as f64 / e.transitions as f64).ln()
            }
        }
    }

    /// Phases 3 (inverse projection) and 4 (timestamps + RDP) applied to
    /// an already-resolved route: the per-query tail of [`Self::impute`],
    /// cheap enough to re-run for every query sharing a cached route.
    pub fn imputation_from_route(
        &self,
        gap: &GapQuery,
        route: &Route,
        start_cell: HexCell,
        end_cell: HexCell,
    ) -> Imputation {
        self.imputation_from_route_full(gap, route, start_cell, end_cell, false)
    }

    /// [`Self::imputation_from_route`] with per-point provenance — the
    /// cached-route tail `habit-engine`'s batch imputer runs when a
    /// request carries `provenance: true`.
    pub fn imputation_from_route_with_provenance(
        &self,
        gap: &GapQuery,
        route: &Route,
        start_cell: HexCell,
        end_cell: HexCell,
    ) -> Imputation {
        self.imputation_from_route_full(gap, route, start_cell, end_cell, true)
    }

    /// The one tail: [`Self::unsimplified`] then the in-place RDP kernel
    /// with the thread-local scratch. `provenance` attaches per-point
    /// evidence records for the vertices that same RDP run kept, so the
    /// point bytes cannot depend on the flag.
    fn imputation_from_route_full(
        &self,
        gap: &GapQuery,
        route: &Route,
        start_cell: HexCell,
        end_cell: HexCell,
        provenance: bool,
    ) -> Imputation {
        let mut imp = self.unsimplified(gap, route, start_cell, end_cell);
        let mut kept: Vec<usize> = Vec::new();
        if self.config.rdp_tolerance_m > 0.0 {
            RDP_SCRATCH.with(|scratch| {
                let scratch = &mut scratch.borrow_mut();
                rdp_timed_in_place(&mut imp.points, self.config.rdp_tolerance_m, scratch);
                if provenance {
                    kept.extend(scratch.kept_indices());
                }
            });
        } else if provenance {
            kept.extend(0..imp.raw_point_count);
        }
        if provenance {
            imp.provenance = Some(self.route_provenance(
                route,
                start_cell,
                end_cell,
                &kept,
                imp.raw_point_count,
            ));
        }
        imp
    }

    /// Phase 3's output before simplification: the gap endpoints around
    /// the route's cells mapped back to coordinates, with timestamps
    /// allocated (a trivial route is just the two endpoints). Shared by
    /// the tail above and [`crate::reference`], which differ only in
    /// the RDP they apply to it.
    pub(crate) fn unsimplified(
        &self,
        gap: &GapQuery,
        route: &Route,
        start_cell: HexCell,
        end_cell: HexCell,
    ) -> Imputation {
        let points = if route.is_trivial() {
            vec![gap.start, gap.end]
        } else {
            // Inverse projection: cells → coordinates.
            let mut positions: Vec<GeoPoint> = Vec::with_capacity(route.cells.len() + 2);
            positions.push(gap.start.pos);
            positions.extend(route.nodes.iter().map(|&idx| self.project_node(idx)));
            positions.push(gap.end.pos);
            // Timestamp allocation proportional to cumulative distance.
            allocate_timestamps(&positions, gap.start.t, gap.end.t)
        };
        Imputation {
            raw_point_count: points.len(),
            points,
            cells: route.cells.clone(),
            start_cell,
            end_cell,
            cost: route.cost,
            expanded: route.expanded,
            provenance: None,
        }
    }

    /// Provenance of a gap endpoint: the vessel's own report, anchored
    /// in its snapped cell with full confidence.
    fn observed_provenance(&self, cell: HexCell) -> PointProvenance {
        PointProvenance {
            kind: ProvenanceKind::Observed,
            cell: Some(cell),
            from_cell: None,
            cell_msgs: self.cell_stats(cell).map_or(0, |s| s.msg_count),
            edge_transitions: 0,
            cost_share: 0.0,
            confidence: 1.0,
        }
    }

    /// Evidence records for the RDP-kept vertices of a route. Raw
    /// index `j` of the `n` unsimplified points maps to: the start
    /// endpoint (`j == 0`), the end endpoint (`j == n-1`), or route
    /// cell `j-1` otherwise (a trivial route has only the endpoints);
    /// a route vertex's traversed in-edge is `cells[k-1] → cells[k]`
    /// (the first route vertex — the snapped start cell — has none).
    fn route_provenance(
        &self,
        route: &Route,
        start_cell: HexCell,
        end_cell: HexCell,
        kept: &[usize],
        n: usize,
    ) -> Vec<PointProvenance> {
        kept.iter()
            .map(|&j| {
                if j == 0 {
                    return self.observed_provenance(start_cell);
                }
                if j == n - 1 {
                    return self.observed_provenance(end_cell);
                }
                let k = j - 1;
                let cell = route.cells[k];
                let cell_msgs = self.cell_stats(cell).map_or(0, |s| s.msg_count);
                if k == 0 {
                    // The snapped start cell: a route anchor with no
                    // traversed in-edge.
                    return PointProvenance {
                        kind: ProvenanceKind::Route,
                        cell: Some(cell),
                        from_cell: None,
                        cell_msgs,
                        edge_transitions: 0,
                        cost_share: 0.0,
                        confidence: 1.0,
                    };
                }
                let from = route.cells[k - 1];
                let (transitions, edge_cost) = match self.csr.edge(from.raw(), cell.raw()) {
                    Some(e) => (e.transitions, self.edge_cost(e)),
                    None => (0, 0.0),
                };
                PointProvenance {
                    kind: ProvenanceKind::Route,
                    cell: Some(cell),
                    from_cell: Some(from),
                    cell_msgs,
                    edge_transitions: transitions,
                    cost_share: if route.cost > 0.0 {
                        edge_cost / route.cost
                    } else {
                        0.0
                    },
                    confidence: transitions as f64 / (transitions as f64 + 1.0),
                }
            })
            .collect()
    }

    /// Maps a graph node (by dense index) to coordinates per the
    /// configured projection `p`.
    fn project_node(&self, idx: u32) -> GeoPoint {
        let stats = self.csr.node_by_index(idx);
        if self.config.projection == CellProjection::Median && stats.msg_count > 0 {
            return GeoPoint::new(stats.median_lon, stats.median_lat);
        }
        let cell = HexCell::from_raw(self.csr.node_id(idx)).expect("node ids are valid cells");
        self.grid.center(cell)
    }

    /// Smallest possible A* edge cost per unit grid distance (heuristic
    /// scale factor).
    pub(crate) fn min_cost_per_grid_step(&self) -> f64 {
        let min_edge_cost = match self.config.weight_scheme {
            WeightScheme::Hops => 1.0,
            WeightScheme::InverseTransitions => 1.0 / self.max_transitions as f64,
            WeightScheme::NegLogFrequency => 2f64.ln(),
        };
        min_edge_cost / self.max_grid_distance.max(1) as f64
    }

    /// Projects a point onto a graph node: its own cell when present,
    /// otherwise an expanding hex-ring search (paper: "a nearest-neighbor
    /// search is performed to find the closest cell that does"), falling
    /// back to the global nearest node.
    pub fn snap(&self, p: &GeoPoint) -> Result<(HexCell, f64), HabitError> {
        let cell = self.grid.cell(p, self.config.resolution)?;
        if self.csr.node_index(cell.raw()).is_some() {
            return Ok((cell, 0.0));
        }
        for k in 1..=self.config.snap_max_rings {
            let mut best: Option<(HexCell, f64)> = None;
            for candidate in ops::ring(cell, k)? {
                if let Some(idx) = self.csr.node_index(candidate.raw()) {
                    let d = haversine_m(p, &self.project_node(idx));
                    if best.is_none_or(|(_, bd)| d < bd) {
                        best = Some((candidate, d));
                    }
                }
            }
            if let Some(hit) = best {
                return Ok(hit);
            }
        }
        // Global fallback via the spatial index.
        let (idx, d) = self.nn.nearest(p).ok_or(HabitError::EmptyModel)?;
        let id = self.csr.node_id(idx);
        Ok((HexCell::from_raw(id).expect("valid node id"), d))
    }
}

/// Distributes timestamps over `positions` proportionally to cumulative
/// great-circle distance between `t_start` and `t_end`.
fn allocate_timestamps(positions: &[GeoPoint], t_start: i64, t_end: i64) -> Vec<TimedPoint> {
    let mut cum = Vec::with_capacity(positions.len());
    let mut acc = 0.0;
    cum.push(0.0);
    for w in positions.windows(2) {
        acc += haversine_m(&w[0], &w[1]);
        cum.push(acc);
    }
    let total = acc.max(1e-9);
    let span = (t_end - t_start) as f64;
    positions
        .iter()
        .zip(&cum)
        .map(|(p, &d)| TimedPoint {
            pos: *p,
            t: t_start + (span * d / total).round() as i64,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HabitConfig;
    use crate::reference::Reference;
    use ais::{trips_to_table, AisPoint, Trip};
    use geo_kernel::rdp_indices_reference;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    /// An L-shaped lane: east along lat 56.0, then north along lon 10.6 —
    /// so a straight line across the corner is NOT the historical path.
    fn l_shaped_trip(trip_id: u64, mmsi: u64) -> Trip {
        let mut points = Vec::new();
        let mut t = 0i64;
        for i in 0..100 {
            points.push(AisPoint::new(
                mmsi,
                t,
                10.0 + i as f64 * 0.006,
                56.0,
                12.0,
                90.0,
            ));
            t += 60;
        }
        for i in 0..100 {
            points.push(AisPoint::new(
                mmsi,
                t,
                10.6,
                56.0 + i as f64 * 0.004,
                12.0,
                0.0,
            ));
            t += 60;
        }
        Trip {
            trip_id,
            mmsi,
            points,
        }
    }

    fn l_model(config: HabitConfig) -> HabitModel {
        let trips: Vec<Trip> = (0..5).map(|k| l_shaped_trip(k + 1, 200 + k)).collect();
        HabitModel::fit(&trips_to_table(&trips), config).unwrap()
    }

    #[test]
    fn imputes_along_historical_lane_not_straight_line() {
        let model = l_model(HabitConfig::default());
        // Gap across the corner: from mid-east-leg to mid-north-leg.
        let gap = GapQuery::new(10.3, 56.0, 0, 10.6, 56.2, 7200);
        let imp = model.impute(&gap).unwrap();
        assert!(imp.points.len() >= 3, "path {:?}", imp.points.len());
        // The historical lane passes the corner at (10.6, 56.0); the
        // imputed path must come near it, unlike straight interpolation.
        let corner = GeoPoint::new(10.6, 56.0);
        let min_d = imp
            .points
            .iter()
            .map(|p| haversine_m(&p.pos, &corner))
            .fold(f64::INFINITY, f64::min);
        assert!(min_d < 3_000.0, "path misses the corner by {min_d} m");
    }

    #[test]
    fn timestamps_are_monotone_and_anchored() {
        let model = l_model(HabitConfig::default());
        let gap = GapQuery::new(10.2, 56.0, 1000, 10.6, 56.25, 9000);
        let imp = model.impute(&gap).unwrap();
        assert_eq!(imp.points.first().unwrap().t, 1000);
        assert_eq!(imp.points.last().unwrap().t, 9000);
        for w in imp.points.windows(2) {
            assert!(w[1].t >= w[0].t);
        }
    }

    #[test]
    fn simplification_reduces_points() {
        let coarse = l_model(HabitConfig {
            rdp_tolerance_m: 0.0,
            ..HabitConfig::default()
        });
        let gap = GapQuery::new(10.1, 56.0, 0, 10.6, 56.3, 10_000);
        let raw = coarse.impute(&gap).unwrap();

        let simplified_model = l_model(HabitConfig {
            rdp_tolerance_m: 500.0,
            ..HabitConfig::default()
        });
        let simp = simplified_model.impute(&gap).unwrap();
        assert!(
            simp.points.len() < raw.points.len(),
            "{} vs {}",
            simp.points.len(),
            raw.points.len()
        );
        assert_eq!(simp.raw_point_count, raw.raw_point_count);
    }

    #[test]
    fn center_and_median_projections_differ() {
        let gap = GapQuery::new(10.1, 56.0, 0, 10.5, 56.0, 7200);
        let med = l_model(HabitConfig::default()).impute(&gap).unwrap();
        let cen = l_model(HabitConfig {
            projection: CellProjection::Center,
            ..HabitConfig::default()
        })
        .impute(&gap)
        .unwrap();
        assert_eq!(med.cells, cen.cells, "same cell path");
        // The median projection hugs lat 56.0 (where the data is); the
        // center projection is displaced inside each hexagon.
        let med_dev: f64 = med
            .points
            .iter()
            .map(|p| (p.pos.lat - 56.0).abs())
            .fold(0.0, f64::max);
        let cen_dev: f64 = cen
            .points
            .iter()
            .map(|p| (p.pos.lat - 56.0).abs())
            .fold(0.0, f64::max);
        assert!(
            med_dev <= cen_dev + 1e-12,
            "median dev {med_dev} vs center dev {cen_dev}"
        );
    }

    #[test]
    fn snapping_handles_offgrid_endpoints() {
        let model = l_model(HabitConfig::default());
        // 1.5 km south of the lane: the endpoint cell has no traffic.
        let gap = GapQuery::new(10.2, 55.985, 0, 10.45, 56.0, 7200);
        let imp = model.impute(&gap).unwrap();
        assert!(imp.points.len() >= 2);
        // Snapped start cell must be a graph node.
        assert!(model.cell_stats(imp.start_cell).is_some());
    }

    #[test]
    fn same_cell_gap_is_trivial() {
        let model = l_model(HabitConfig::default());
        let gap = GapQuery::new(10.3, 56.0, 0, 10.3005, 56.0, 600);
        let imp = model.impute(&gap).unwrap();
        assert_eq!(imp.points.len(), 2);
        assert_eq!(imp.cost, 0.0);
    }

    #[test]
    fn weight_schemes_all_find_paths() {
        let gap = GapQuery::new(10.15, 56.0, 0, 10.6, 56.3, 10_000);
        for ws in [
            WeightScheme::Hops,
            WeightScheme::InverseTransitions,
            WeightScheme::NegLogFrequency,
        ] {
            let model = l_model(HabitConfig {
                weight_scheme: ws,
                ..HabitConfig::default()
            });
            let imp = model.impute(&gap).unwrap();
            assert!(imp.points.len() >= 3, "{ws:?}");
            assert!(imp.cost > 0.0, "{ws:?}");
        }
    }

    #[test]
    fn astar_equals_dijkstra_cost() {
        // The scaled heuristic must stay admissible: A* cost == Dijkstra
        // cost on the same graph.
        let model = l_model(HabitConfig::default());
        let gap = GapQuery::new(10.05, 56.0, 0, 10.6, 56.35, 10_000);
        let imp = model.impute(&gap).unwrap();
        let d = mobgraph::dijkstra(
            Reference::thaw(&model).graph(),
            imp.start_cell.raw(),
            imp.end_cell.raw(),
            |_, _, _e| 1.0,
        )
        .unwrap();
        assert_eq!(imp.cost, d.cost, "A* must not overpay");
    }

    #[test]
    fn gap_duration() {
        let gap = GapQuery::new(0.0, 0.0, 100, 1.0, 1.0, 3700);
        assert_eq!(gap.duration_s(), 3600);
    }

    /// The load-bearing ISSUE 7 equivalence: the CSR/arena/in-place-RDP
    /// serving path returns **byte-identical** imputations to the naive
    /// oracle in [`crate::reference`] — every weight scheme, every gap,
    /// cost compared by f64 bits.
    #[test]
    fn hot_path_imputes_byte_identical_to_naive() {
        let gaps = [
            GapQuery::new(10.05, 56.0, 0, 10.6, 56.35, 10_000),
            GapQuery::new(10.3, 56.0, 0, 10.6, 56.2, 7_200),
            GapQuery::new(10.6, 56.2, 0, 10.3, 56.0, 7_200), // reversed
            GapQuery::new(10.3, 56.0, 0, 10.3005, 56.0, 600), // trivial
            GapQuery::new(10.2, 55.985, 0, 10.45, 56.0, 7_200), // off-grid snap
        ];
        for ws in [
            WeightScheme::Hops,
            WeightScheme::InverseTransitions,
            WeightScheme::NegLogFrequency,
        ] {
            for tol in [0.0, 500.0] {
                let model = l_model(HabitConfig {
                    weight_scheme: ws,
                    rdp_tolerance_m: tol,
                    ..HabitConfig::default()
                });
                let reference = Reference::thaw(&model);
                for gap in &gaps {
                    let fast = model.impute(gap);
                    let naive = reference.impute(gap);
                    match (fast, naive) {
                        (Ok(fast), Ok(naive)) => {
                            assert_eq!(fast.cells, naive.cells, "{ws:?} tol {tol}");
                            assert_eq!(fast.cost.to_bits(), naive.cost.to_bits());
                            assert_eq!(fast.expanded, naive.expanded);
                            assert_eq!(fast.raw_point_count, naive.raw_point_count);
                            assert_eq!(fast.points.len(), naive.points.len());
                            for (a, b) in fast.points.iter().zip(&naive.points) {
                                assert_eq!(a.pos.lon.to_bits(), b.pos.lon.to_bits());
                                assert_eq!(a.pos.lat.to_bits(), b.pos.lat.to_bits());
                                assert_eq!(a.t, b.t);
                            }
                        }
                        (Err(_), Err(_)) => {}
                        (fast, naive) => {
                            panic!("outcome drift: fast {fast:?} vs naive {naive:?}")
                        }
                    }
                }
            }
        }
    }

    /// Provenance is opt-in evidence riding alongside the points: the
    /// point bytes must be identical with and without it, endpoints must read `observed`, and interior
    /// vertices must carry the traversed edge's historical support.
    #[test]
    fn provenance_is_attached_without_changing_the_points() {
        for tol in [0.0, 500.0] {
            let model = l_model(HabitConfig {
                rdp_tolerance_m: tol,
                ..HabitConfig::default()
            });
            let gap = GapQuery::new(10.3, 56.0, 0, 10.6, 56.2, 7_200);
            let plain = model.impute(&gap).unwrap();
            let with = model.impute_with_provenance(&gap).unwrap();
            assert!(plain.provenance.is_none(), "provenance is opt-in");

            assert_eq!(plain.points.len(), with.points.len(), "tol {tol}");
            for (a, b) in plain.points.iter().zip(&with.points) {
                assert_eq!(a.pos.lon.to_bits(), b.pos.lon.to_bits());
                assert_eq!(a.pos.lat.to_bits(), b.pos.lat.to_bits());
                assert_eq!(a.t, b.t);
            }

            let prov = with.provenance.as_ref().expect("requested provenance");
            assert_eq!(prov.len(), with.points.len(), "parallel to points");
            assert_eq!(prov[0].kind, ProvenanceKind::Observed);
            assert_eq!(prov[0].cell, Some(with.start_cell));
            assert_eq!(prov[0].confidence, 1.0);
            assert_eq!(prov.last().unwrap().kind, ProvenanceKind::Observed);
            assert_eq!(prov.last().unwrap().cell, Some(with.end_cell));

            // Interior vertices: route kind, traversed-edge support,
            // confidence strictly between 0 and 1, cost shares summing
            // to (at most) the whole route.
            let interior: Vec<_> = prov
                .iter()
                .filter(|p| p.kind == ProvenanceKind::Route && p.from_cell.is_some())
                .collect();
            assert!(!interior.is_empty(), "non-trivial route has interior");
            let mut share_sum = 0.0;
            for p in &interior {
                assert!(p.edge_transitions > 0, "lane edges have support");
                assert!(p.cell_msgs > 0, "lane cells have reports");
                assert!(p.confidence > 0.0 && p.confidence < 1.0);
                assert!(p.cost_share > 0.0);
                share_sum += p.cost_share;
            }
            assert!(share_sum <= 1.0 + 1e-9, "shares within the route cost");

            // Deterministic: a second provenance run is identical.
            let again = model.impute_with_provenance(&gap).unwrap();
            assert_eq!(again.provenance.as_ref().unwrap(), prov);
        }
    }

    #[test]
    fn trivial_gap_provenance_is_two_observed_endpoints() {
        let model = l_model(HabitConfig::default());
        let gap = GapQuery::new(10.3, 56.0, 0, 10.3005, 56.0, 600);
        let imp = model.impute_with_provenance(&gap).unwrap();
        let prov = imp.provenance.expect("provenance");
        assert_eq!(prov.len(), 2);
        assert!(prov.iter().all(|p| p.kind == ProvenanceKind::Observed));
        assert!(prov.iter().all(|p| p.confidence == 1.0));
    }

    #[test]
    fn provenance_kind_tokens_round_trip() {
        for kind in [
            ProvenanceKind::Observed,
            ProvenanceKind::Route,
            ProvenanceKind::Synthesized,
        ] {
            assert_eq!(ProvenanceKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(ProvenanceKind::parse("nope"), None);
    }

    /// `route_between` (CSR + arena) equals the reference's (DiGraph,
    /// per-query state) exactly, including the `expanded` effort
    /// counter — the settle sequences are pinned identical.
    #[test]
    fn route_between_matches_naive_backend() {
        let model = l_model(HabitConfig::default());
        let reference = Reference::thaw(&model);
        // Insertion order of the thawed graph, not ascending ids.
        let cells: Vec<HexCell> = reference
            .graph()
            .nodes()
            .map(|(id, _)| HexCell::from_raw(id).unwrap())
            .collect();
        // Every 7th pair keeps the test fast while crossing the lane.
        for (i, &a) in cells.iter().step_by(7).enumerate() {
            for &b in cells.iter().skip(i % 3).step_by(11) {
                let fast = model.route_between(a, b);
                let naive = reference.route_between(a, b);
                match (fast, naive) {
                    (Ok(fast), Ok(naive)) => {
                        assert_eq!(fast.cells, naive.cells);
                        assert_eq!(fast.cost.to_bits(), naive.cost.to_bits());
                        assert_eq!(fast.expanded, naive.expanded);
                    }
                    (Err(_), Err(_)) => {}
                    (fast, naive) => {
                        panic!("outcome drift: fast {fast:?} vs naive {naive:?}")
                    }
                }
            }
        }
    }

    /// [`l_model`] fitted once per RDP tolerance `t ∈ {0, 100, 500}`.
    fn l_model_at(tol_idx: usize) -> &'static HabitModel {
        static MODELS: [OnceLock<HabitModel>; 3] =
            [OnceLock::new(), OnceLock::new(), OnceLock::new()];
        MODELS[tol_idx].get_or_init(|| {
            l_model(HabitConfig {
                rdp_tolerance_m: [0.0, 100.0, 500.0][tol_idx],
                ..HabitConfig::default()
            })
        })
    }

    proptest! {
        /// One tail: provenance rides the same RDP run as the answer it
        /// explains. The points are bitwise those of the plain path, and
        /// record `i` describes unsimplified vertex `kept[i]`, where
        /// `kept` is what the textbook RDP keeps of the unsimplified
        /// path.
        #[test]
        fn provenance_lines_up_with_the_kept_vertices(
            tol_idx in 0usize..3,
            east in 0.05f64..0.95,
            north in 0.05f64..0.95,
            reversed in any::<bool>(),
        ) {
            let model = l_model_at(tol_idx);
            let (a, b) = ((10.0 + 0.6 * east, 56.0), (10.6, 56.0 + 0.4 * north));
            let (from, to) = if reversed { (b, a) } else { (a, b) };
            let gap = GapQuery::new(from.0, from.1, 0, to.0, to.1, 7_200);
            let (plain, with) = match (model.impute(&gap), model.impute_with_provenance(&gap)) {
                (Ok(plain), Ok(with)) => (plain, with),
                (Err(_), Err(_)) => return Ok(()), // the lane is one-way
                (plain, with) => panic!("outcome drift: {plain:?} vs {with:?}"),
            };
            prop_assert!(plain.provenance.is_none());
            prop_assert_eq!(plain.points.len(), with.points.len());
            for (p, q) in plain.points.iter().zip(&with.points) {
                prop_assert_eq!(p.pos.lon.to_bits(), q.pos.lon.to_bits());
                prop_assert_eq!(p.pos.lat.to_bits(), q.pos.lat.to_bits());
                prop_assert_eq!(p.t, q.t);
            }

            let route = model.route_between(with.start_cell, with.end_cell).expect("routed above");
            let raw = model.unsimplified(&gap, &route, with.start_cell, with.end_cell);
            let positions: Vec<GeoPoint> = raw.points.iter().map(|p| p.pos).collect();
            let kept = rdp_indices_reference(&positions, model.config().rdp_tolerance_m);
            let prov = with.provenance.as_ref().expect("requested");
            prop_assert_eq!(prov.len(), kept.len());
            prop_assert_eq!(with.points.len(), kept.len());
            let last = raw.points.len() - 1;
            for ((record, point), &j) in prov.iter().zip(&with.points).zip(&kept) {
                prop_assert_eq!(point, &raw.points[j]);
                if j == 0 || j == last {
                    prop_assert_eq!(record.kind, ProvenanceKind::Observed);
                    let cell = if j == 0 { with.start_cell } else { with.end_cell };
                    prop_assert_eq!(record.cell, Some(cell));
                } else {
                    prop_assert_eq!(record.kind, ProvenanceKind::Route);
                    prop_assert_eq!(record.cell, Some(route.cells[j - 1]));
                    prop_assert_eq!(record.from_cell, (j >= 2).then(|| route.cells[j - 2]));
                }
            }
        }
    }
}
