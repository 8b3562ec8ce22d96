//! Frozen CSR (compressed sparse row) adjacency — the one layout a
//! HABIT model's transition graph has.
//!
//! [`CsrGraph`] holds three contiguous arrays (`offsets`/`targets`/
//! `weights`) in **canonical order**: node ids ascending, each node's
//! adjacency sorted by target id. Every way into it — the fit's
//! finalize, the HBG1 decoder ([`CsrGraph::from_bytes`]) and the
//! [`DiGraph`] adapter — goes through one validating constructor,
//! [`CsrGraph::from_parts`], which sorts node and edge lists itself. So
//! the arrays are a pure function of the node/edge *set*: any input
//! order builds an equal value (and equal [`CsrGraph::to_bytes`]
//! output), the same discipline `FitState` keeps on the fit side.
//! Lookups and routing touch only flat slices — no hash buckets, no
//! pointer chasing — which is what makes the arena A* kernel in
//! [`crate::search`] allocation-free and cache-friendly.

use crate::graph::{DiGraph, NodeId};

/// A frozen directed graph in CSR form.
///
/// Dense index = rank of the node id in ascending order; adjacency of
/// node `i` lives in `targets[offsets[i]..offsets[i+1]]` (parallel to
/// `weights`), sorted by target id. Built by [`CsrGraph::from_parts`];
/// immutable thereafter.
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

impl<N, E> CsrGraph<N, E> {
    /// Builds the canonical CSR from `(id, payload)` node records and
    /// `(from id, to id, payload)` edge records, in any order: nodes are
    /// sorted by id and edges by `(from, to)` (input that already is
    /// sorted costs one linear pass). `None` on a duplicate node id, an
    /// edge endpoint that is not a node, a duplicate `(from, to)`, or
    /// more nodes or edges than a `u32` dense index can address.
    pub fn from_parts(
        mut nodes: Vec<(NodeId, N)>,
        mut edges: Vec<(NodeId, NodeId, E)>,
    ) -> Option<Self> {
        u32::try_from(nodes.len().max(edges.len())).ok()?;
        nodes.sort_unstable_by_key(|node| node.0);
        if nodes.windows(2).any(|pair| pair[0].0 == pair[1].0) {
            return None;
        }
        edges.sort_unstable_by_key(|edge| (edge.0, edge.1));
        let (ids, payloads): (Vec<NodeId>, Vec<N>) = nodes.into_iter().unzip();
        let index = |id: NodeId| ids.binary_search(&id).ok().map(|i| i as u32);

        let mut offsets = Vec::with_capacity(ids.len() + 1);
        let mut targets = Vec::with_capacity(edges.len());
        let mut weights = Vec::with_capacity(edges.len());
        let mut last: Option<(NodeId, NodeId)> = None;
        for (from, to, payload) in edges {
            if last.replace((from, to)) == Some((from, to)) {
                return None;
            }
            let (from_idx, to_idx) = (index(from)?, index(to)?);
            // Sources ascend, so every node up to `from_idx` whose run
            // has not started yet starts here (the ones before it empty).
            while offsets.len() <= from_idx as usize {
                offsets.push(targets.len() as u32);
            }
            targets.push(to_idx);
            weights.push(payload);
        }
        offsets.resize(ids.len() + 1, targets.len() as u32);
        Some(Self {
            ids,
            payloads,
            offsets,
            targets,
            weights,
        })
    }
}

impl<N: Clone, E: Clone> CsrGraph<N, E> {
    /// The CSR holding `graph`'s node and edge set — for callers that
    /// grow a [`DiGraph`] and need the frozen form's arrays or its HBG1
    /// bytes (GTI's storage size, the kernel ≡ per-query A* tests).
    pub fn from_digraph(graph: &DiGraph<N, E>) -> Self {
        let nodes = graph.nodes().map(|(id, n)| (id, n.clone())).collect();
        let edges = (0..graph.node_count() as u32)
            .flat_map(|idx| {
                let from = graph.node_id(idx);
                graph
                    .edges_from_index(idx)
                    .map(move |e| (from, e.to, e.payload.clone()))
            })
            .collect();
        Self::from_parts(nodes, edges)
            .expect("a DiGraph's node ids and edges are unique, its endpoints known")
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

    /// `from_parts` sorts its input itself, and rejects what no graph
    /// can hold: a repeated node id, a repeated `(from, to)` and an
    /// edge naming a node that is not there.
    #[test]
    fn from_parts_sorts_and_validates() {
        let nodes = vec![(9, 90), (2, 20), (5, 50)];
        let edges = vec![(5, 9, 3.0), (2, 9, 2.0), (5, 2, 1.0)];
        let csr = CsrGraph::from_parts(nodes.clone(), edges.clone()).expect("valid parts");
        let ordered = [(2, 9, 2.0), (5, 2, 1.0), (5, 9, 3.0)];
        assert_eq!(csr, CsrGraph::from_digraph(&build(&[2, 5, 9], &ordered)));

        let mut dup_node = nodes.clone();
        dup_node.push((5, 51));
        assert!(CsrGraph::from_parts(dup_node, edges.clone()).is_none());
        let mut dup_edge = edges.clone();
        dup_edge.push((2, 9, 7.0));
        assert!(CsrGraph::from_parts(nodes.clone(), dup_edge).is_none());
        for unknown in [(4, 9, 1.0), (9, 4, 1.0)] {
            let mut dangling = edges.clone();
            dangling.push(unknown);
            assert!(CsrGraph::from_parts(nodes.clone(), dangling).is_none());
        }
    }

    /// The frozen graph writes the one graph layout (HBG1) and reads it
    /// back to an equal value. Node records go out where the ascending
    /// `(from, to)` edge walk first names them, edgeless nodes last.
    #[test]
    fn codec_round_trip() {
        let edges = [(2, 9, 2.0), (5, 2, 1.0), (5, 9, 3.0)];
        let csr = CsrGraph::from_digraph(&build(&[5, 2, 9, 7], &edges));
        let bytes = csr.to_bytes();
        let back: CsrGraph<u64, f64> = CsrGraph::from_bytes(&bytes).expect("HBG1 decodes");
        assert_eq!(back, csr);
        assert_eq!(back.to_bytes(), bytes, "re-encode is stable");
        // Header 20 B, then 16-byte node records: 2, 9, 5, then 7.
        let record_ids: Vec<u64> = bytes[20..20 + 4 * 16]
            .chunks(16)
            .map(|record| u64::from_le_bytes(record[..8].try_into().expect("8 bytes")))
            .collect();
        assert_eq!(record_ids, [2, 9, 5, 7]);
    }

    #[test]
    fn empty_graph_freezes() {
        let g: DiGraph<u64, f64> = DiGraph::new();
        let csr = CsrGraph::from_digraph(&g);
        assert_eq!(csr.node_count(), 0);
        assert_eq!(csr.edge_count(), 0);
        assert_eq!(csr.offsets(), &[0]);
        let bytes = csr.to_bytes();
        assert_eq!(bytes.len(), 20, "header only");
        assert_eq!(CsrGraph::from_bytes(&bytes), Some(csr));
    }
}
