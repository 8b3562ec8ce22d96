//! The naive oracle the serving path is pinned to — not a product path.
//!
//! This is the paper's form of phases 3–4, kept deliberately simple:
//! per-query A* state ([`mobgraph::astar`]) over a hash-indexed
//! [`DiGraph`], the grid-distance heuristic computed from cell ids per
//! visit, and the recursive sub-path-cloning RDP
//! ([`geo_kernel::rdp_indices_reference`]). This is the one place
//! `habit-core` names [`DiGraph`], mobgraph's mutable adjacency list: a
//! [`Reference`] decodes the model's own graph bytes with the one HBG1
//! reader and walks the result into a `DiGraph` of its own, so it
//! answers from exactly what a saved blob would hold, and searches
//! through none of the frozen arrays, baked edge records, arenas or
//! scratch the product uses.
//!
//! Consumers are the equivalence tests and nothing else. Nothing under
//! `habit-cli`, `habit-service`, `habit-engine`, `habit-bench` or
//! `eval` may reach for it (CI greps), and it is in no prelude.

use crate::error::HabitError;
use crate::graphgen::{CellStats, EdgeStats};
use crate::impute::{GapQuery, Imputation, Route};
use crate::model::HabitModel;
use geo_kernel::{rdp_indices_reference, GeoPoint};
use hexgrid::HexCell;
use mobgraph::{astar, CsrGraph, DiGraph};

/// A model paired with an adjacency list thawed from its graph bytes.
pub struct Reference<'a> {
    model: &'a HabitModel,
    graph: DiGraph<CellStats, EdgeStats>,
}

impl<'a> Reference<'a> {
    /// Decodes the model's serialized graph and walks it into a
    /// [`DiGraph`]. Nodes go in descending id order, so the oracle's
    /// dense indices share nothing with the CSR's ascending ones.
    pub fn thaw(model: &'a HabitModel) -> Self {
        let decoded: CsrGraph<CellStats, EdgeStats> = CsrGraph::from_bytes(&model.csr().to_bytes())
            .expect("a model's own graph bytes decode");
        let n = decoded.node_count() as u32;
        let mut graph = DiGraph::with_capacity(n as usize);
        for idx in (0..n).rev() {
            graph.add_node(decoded.node_id(idx), *decoded.node_by_index(idx));
        }
        for from in 0..n {
            for (to, stats) in decoded.edges_from_index(from) {
                graph.add_edge(decoded.node_id(from), decoded.node_id(to), *stats);
            }
        }
        Self { model, graph }
    }

    /// The thawed transition graph.
    pub fn graph(&self) -> &DiGraph<CellStats, EdgeStats> {
        &self.graph
    }

    /// [`HabitModel::impute`] on the naive machinery end to end (the
    /// endpoint snap is the model's own — there is only one).
    pub fn impute(&self, gap: &GapQuery) -> Result<Imputation, HabitError> {
        if self.graph.node_count() == 0 {
            return Err(HabitError::EmptyModel);
        }
        let (start_cell, _) = self.model.snap(&gap.start.pos)?;
        let (end_cell, _) = self.model.snap(&gap.end.pos)?;
        let route = self.route_between(start_cell, end_cell)?;
        Ok(self.imputation_from_route(gap, &route, start_cell, end_cell))
    }

    /// [`HabitModel::route_between`] as per-query A* over the thawed
    /// graph.
    pub fn route_between(
        &self,
        start_cell: HexCell,
        end_cell: HexCell,
    ) -> Result<Route, HabitError> {
        if start_cell == end_cell {
            return Ok(Route::trivial(start_cell));
        }
        let graph = &self.graph;
        let heuristic = self.route_heuristic(end_cell);
        astar(
            graph,
            start_cell.raw(),
            end_cell.raw(),
            |_, _, e| self.model.edge_cost(e),
            |idx| heuristic(graph.node_id(idx)),
        )
        .map(|path| self.model.route_from_path(path))
        .ok_or(HabitError::NoPath {
            from: start_cell.raw(),
            to: end_cell.raw(),
        })
    }

    /// The admissible A* heuristic toward `goal_cell`: hex grid distance
    /// scaled by the smallest possible edge cost per grid step, which
    /// stays a lower bound even when edges skip cells
    /// (`grid_distance > 1`). Keyed by **external** node id, so it does
    /// not depend on either graph form's dense index assignment.
    fn route_heuristic(&self, goal_cell: HexCell) -> impl Fn(u64) -> f64 {
        let min_step_cost = self.model.min_cost_per_grid_step();
        let grid = self.model.grid;
        move |id: u64| -> f64 {
            let cell = HexCell::from_raw(id).expect("valid node id");
            match grid.grid_distance(cell, goal_cell) {
                Ok(d) => d as f64 * min_step_cost,
                Err(_) => 0.0,
            }
        }
    }

    /// [`HabitModel::imputation_from_route`] with the textbook RDP:
    /// clone the positions out of the timed points, run the recursive
    /// kept-index search, gather the kept vertices.
    pub fn imputation_from_route(
        &self,
        gap: &GapQuery,
        route: &Route,
        start_cell: HexCell,
        end_cell: HexCell,
    ) -> Imputation {
        let mut imp = self.model.unsimplified(gap, route, start_cell, end_cell);
        let tolerance_m = self.model.config().rdp_tolerance_m;
        if tolerance_m > 0.0 {
            let positions: Vec<GeoPoint> = imp.points.iter().map(|p| p.pos).collect();
            imp.points = rdp_indices_reference(&positions, tolerance_m)
                .iter()
                .map(|&i| imp.points[i])
                .collect();
        }
        imp
    }
}
