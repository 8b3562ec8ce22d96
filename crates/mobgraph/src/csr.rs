//! Frozen CSR (compressed sparse row) adjacency.
//!
//! [`DiGraph`] is the *build-time* form: hash-indexed ids, per-node edge
//! `Vec`s, insertion-order dense indices. [`CsrGraph`] is the frozen
//! form a model keeps resident and serves from — three contiguous
//! arrays (`offsets`/`targets`/`weights`) built once in **canonical
//! order** (node ids ascending, each node's adjacency sorted by target
//! id), so the arrays are a pure function of the node/edge *set*: any
//! insertion order freezes to an equal value (and equal
//! [`CsrGraph::to_bytes`](crate::codec) output), the same discipline
//! `FitState::canonicalize` enforces on the fit side. Lookups and
//! routing touch only flat slices — no hash buckets, no pointer
//! chasing — which is what makes the arena A* kernel in
//! [`crate::search`] allocation-free and cache-friendly.

use crate::graph::{DiGraph, NodeId};

/// A frozen directed graph in CSR form.
///
/// Dense index = rank of the node id in ascending order; adjacency of
/// node `i` lives in `targets[offsets[i]..offsets[i+1]]` (parallel to
/// `weights`), sorted by target id. Built from a [`DiGraph`] with
/// [`CsrGraph::from_digraph`]; immutable thereafter.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrGraph<N, E> {
    /// Node ids, ascending. `ids[i]` is the external id of dense index `i`.
    ids: Vec<NodeId>,
    /// Node payloads, parallel to `ids`.
    payloads: Vec<N>,
    /// `offsets[i]..offsets[i + 1]` bounds node `i`'s adjacency;
    /// `len == node_count + 1`, monotone, last entry = edge count.
    offsets: Vec<u32>,
    /// Edge target dense indices, grouped per source, sorted by target id
    /// within each group.
    targets: Vec<u32>,
    /// Edge payloads, parallel to `targets`.
    weights: Vec<E>,
}

impl<N: Clone, E: Clone> CsrGraph<N, E> {
    /// Freezes a [`DiGraph`] into canonical CSR form.
    ///
    /// Deterministic regardless of the insertion order of nodes or edges:
    /// nodes are ranked by ascending id and each adjacency run is sorted
    /// by target id, so two graphs with equal node/edge sets freeze to
    /// equal arrays.
    pub fn from_digraph(graph: &DiGraph<N, E>) -> Self {
        let n = graph.node_count();
        // Rank insertion-order indices by external id.
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by_key(|&idx| graph.node_id(idx));
        // Old dense index → new rank.
        let mut rank = vec![0u32; n];
        for (r, &old) in order.iter().enumerate() {
            rank[old as usize] = r as u32;
        }

        let mut ids = Vec::with_capacity(n);
        let mut payloads = Vec::with_capacity(n);
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(graph.edge_count());
        let mut weights = Vec::with_capacity(graph.edge_count());
        offsets.push(0);
        let mut run: Vec<(u32, E)> = Vec::new();
        for &old in &order {
            ids.push(graph.node_id(old));
            payloads.push(graph.node_by_index(old).clone());
            run.clear();
            run.extend(
                graph
                    .edges_from_index(old)
                    .map(|e| (rank[e.to_idx as usize], e.payload.clone())),
            );
            // Rank order == id order, so sorting by rank is the canonical
            // sort-by-target-id.
            run.sort_by_key(|&(t, _)| t);
            for (t, w) in run.drain(..) {
                targets.push(t);
                weights.push(w);
            }
            offsets.push(targets.len() as u32);
        }
        Self {
            ids,
            payloads,
            offsets,
            targets,
            weights,
        }
    }
}

impl<N, E> CsrGraph<N, E> {
    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.ids.len()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Dense index of a node id, if present (binary search — `ids` is
    /// sorted ascending).
    #[inline]
    pub fn node_index(&self, id: NodeId) -> Option<u32> {
        self.ids.binary_search(&id).ok().map(|i| i as u32)
    }

    /// External id of a dense index.
    #[inline]
    pub fn node_id(&self, idx: u32) -> NodeId {
        self.ids[idx as usize]
    }

    /// Node payload by dense index.
    #[inline]
    pub fn node_by_index(&self, idx: u32) -> &N {
        &self.payloads[idx as usize]
    }

    /// Node payload by external id.
    pub fn node(&self, id: NodeId) -> Option<&N> {
        self.node_index(id).map(|i| &self.payloads[i as usize])
    }

    /// Iterates `(id, payload)` over all nodes, ascending by id.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &N)> {
        self.ids.iter().copied().zip(self.payloads.iter())
    }

    /// Iterates `(target dense index, payload)` over a node's outgoing
    /// edges, ascending by target id.
    #[inline]
    pub fn edges_from_index(&self, idx: u32) -> impl Iterator<Item = (u32, &E)> {
        let lo = self.offsets[idx as usize] as usize;
        let hi = self.offsets[idx as usize + 1] as usize;
        self.targets[lo..hi]
            .iter()
            .copied()
            .zip(self.weights[lo..hi].iter())
    }

    /// Edge payload for `from → to`, if present.
    pub fn edge(&self, from: NodeId, to: NodeId) -> Option<&E> {
        let f = self.node_index(from)?;
        let t = self.node_index(to)?;
        let lo = self.offsets[f as usize] as usize;
        let hi = self.offsets[f as usize + 1] as usize;
        let at = self.targets[lo..hi].binary_search(&t).ok()?;
        Some(&self.weights[lo + at])
    }

    /// The node ids, ascending (dense index = position).
    #[inline]
    pub fn ids(&self) -> &[NodeId] {
        &self.ids
    }

    /// The raw offsets array (`node_count + 1` entries).
    #[inline]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The raw edge-target array (dense indices, grouped per source).
    #[inline]
    pub fn targets(&self) -> &[u32] {
        &self.targets
    }

    /// The raw edge-payload array, parallel to [`CsrGraph::targets`].
    #[inline]
    pub fn weights(&self) -> &[E] {
        &self.weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small weighted digraph built with nodes/edges in the given orders.
    fn build(nodes: &[u64], edges: &[(u64, u64, f64)]) -> DiGraph<u64, f64> {
        let mut g = DiGraph::new();
        for &id in nodes {
            g.add_node(id, id * 10);
        }
        for &(a, b, w) in edges {
            assert!(g.add_edge(a, b, w));
        }
        g
    }

    #[test]
    fn freeze_is_canonical() {
        let g = build(&[5, 2, 9], &[(5, 2, 1.0), (2, 9, 2.0), (5, 9, 3.0)]);
        let csr = CsrGraph::from_digraph(&g);
        assert_eq!(csr.ids(), &[2, 5, 9]);
        assert_eq!(csr.offsets(), &[0, 1, 3, 3]);
        // Node 2 (rank 0) → 9 (rank 2); node 5 (rank 1) → 2 (rank 0) then
        // 9 (rank 2), sorted by target id.
        assert_eq!(csr.targets(), &[2, 0, 2]);
        assert_eq!(csr.weights(), &[2.0, 1.0, 3.0]);
        assert_eq!(csr.node(5), Some(&50));
        assert_eq!(csr.edge(5, 9), Some(&3.0));
        assert_eq!(csr.edge(9, 5), None, "directed");
        assert_eq!(csr.node_index(7), None);
    }

    /// Golden test (ISSUE 7 satellite): shuffled node- and edge-insertion
    /// orders freeze to equal arrays, and so to equal HBG1 bytes.
    #[test]
    fn shuffled_insertion_orders_freeze_identically() {
        let nodes = [5u64, 2, 9, 14, 1];
        let edges = [
            (5u64, 2u64, 1.0f64),
            (2, 9, 2.0),
            (5, 9, 3.0),
            (9, 14, 0.5),
            (14, 1, 4.0),
            (1, 5, 2.5),
            (2, 14, 9.0),
        ];
        // Fixed permutations (no RNG: the point is golden determinism).
        let node_orders: [[usize; 5]; 3] = [[0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [2, 0, 4, 1, 3]];
        let edge_orders: [[usize; 7]; 3] = [
            [0, 1, 2, 3, 4, 5, 6],
            [6, 5, 4, 3, 2, 1, 0],
            [3, 0, 6, 2, 5, 1, 4],
        ];
        let reference = CsrGraph::from_digraph(&build(&nodes, &edges));
        let ref_bytes = reference.to_bytes();
        for no in &node_orders {
            for eo in &edge_orders {
                let shuffled_nodes: Vec<u64> = no.iter().map(|&i| nodes[i]).collect();
                let shuffled_edges: Vec<(u64, u64, f64)> = eo.iter().map(|&i| edges[i]).collect();
                let csr = CsrGraph::from_digraph(&build(&shuffled_nodes, &shuffled_edges));
                assert_eq!(csr, reference, "insertion order cannot reach the arrays");
                assert_eq!(csr.to_bytes(), ref_bytes, "byte-identical freeze");
            }
        }
    }

    /// The frozen graph writes the one graph layout (HBG1): it thaws
    /// through `DiGraph::from_bytes` back to an equal freeze, and a
    /// `DiGraph` built in the edge-walk order writes the same bytes.
    #[test]
    fn codec_round_trip() {
        let edges = [(2, 9, 2.0), (5, 2, 1.0), (5, 9, 3.0)];
        let csr = CsrGraph::from_digraph(&build(&[5, 2, 9, 7], &edges));
        let bytes = csr.to_bytes();
        let thawed: DiGraph<u64, f64> = DiGraph::from_bytes(&bytes).expect("HBG1 decodes");
        assert_eq!(CsrGraph::from_digraph(&thawed), csr);
        assert_eq!(thawed.to_bytes(), bytes, "re-encode is stable");
        // Edges ascending by (from, to) name 2, 9, 5 in that order; the
        // edgeless node 7 follows.
        assert_eq!(build(&[2, 9, 5, 7], &edges).to_bytes(), bytes);
    }

    #[test]
    fn empty_graph_freezes() {
        let g: DiGraph<u64, f64> = DiGraph::new();
        let csr = CsrGraph::from_digraph(&g);
        assert_eq!(csr.node_count(), 0);
        assert_eq!(csr.edge_count(), 0);
        assert_eq!(csr.offsets(), &[0]);
        assert_eq!(csr.to_bytes(), g.to_bytes());
    }
}
