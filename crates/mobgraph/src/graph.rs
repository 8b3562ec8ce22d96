//! The mutable adjacency list.

use aggdb::fxhash::FxHashMap;

/// Stable external identifier of a node (a hex cell id in HABIT).
pub type NodeId = u64;

/// A borrowed view of an outgoing edge.
#[derive(Debug)]
pub struct EdgeRef<'a, E> {
    /// External id of the target node.
    pub to: NodeId,
    /// Dense index of the target node.
    pub to_idx: u32,
    /// Edge payload.
    pub payload: &'a E,
}

/// A directed graph with `u64` node ids, node payloads `N`, and edge
/// payloads `E`, grown one node and one edge at a time.
///
/// This is the form for graphs that are built or extended edge by edge:
/// GTI's point graph, `synth`'s routing network (which adds two
/// endpoint nodes per query), and `habit-core`'s naive reference
/// search. It has no codec — a HABIT model's graph is the frozen
/// [`CsrGraph`](crate::CsrGraph), the only HBG1 writer and reader.
///
/// Nodes get dense internal indices in insertion order; all adjacency is
/// stored in flat `Vec`s so traversal does not chase hash buckets.
#[derive(Debug, Clone)]
pub struct DiGraph<N, E> {
    ids: Vec<NodeId>,
    payloads: Vec<N>,
    index: FxHashMap<NodeId, u32>,
    /// Out-adjacency: for each node, (target index, edge payload).
    out_edges: Vec<Vec<(u32, E)>>,
    edge_count: usize,
}

impl<N, E> Default for DiGraph<N, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N, E> DiGraph<N, E> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self {
            ids: Vec::new(),
            payloads: Vec::new(),
            index: FxHashMap::default(),
            out_edges: Vec::new(),
            edge_count: 0,
        }
    }

    /// Creates an empty graph with preallocated node capacity.
    pub fn with_capacity(nodes: usize) -> Self {
        Self {
            ids: Vec::with_capacity(nodes),
            payloads: Vec::with_capacity(nodes),
            index: FxHashMap::default(),
            out_edges: Vec::with_capacity(nodes),
            edge_count: 0,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.ids.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Inserts a node or updates its payload; returns the dense index.
    pub fn add_node(&mut self, id: NodeId, payload: N) -> u32 {
        match self.index.get(&id) {
            Some(&idx) => {
                self.payloads[idx as usize] = payload;
                idx
            }
            None => {
                let idx = self.ids.len() as u32;
                self.ids.push(id);
                self.payloads.push(payload);
                self.out_edges.push(Vec::new());
                self.index.insert(id, idx);
                idx
            }
        }
    }

    /// Dense index of a node id, if present.
    #[inline]
    pub fn node_index(&self, id: NodeId) -> Option<u32> {
        self.index.get(&id).copied()
    }

    /// External id of a dense index.
    #[inline]
    pub fn node_id(&self, idx: u32) -> NodeId {
        self.ids[idx as usize]
    }

    /// Node payload by id.
    pub fn node(&self, id: NodeId) -> Option<&N> {
        self.node_index(id).map(|i| &self.payloads[i as usize])
    }

    /// Node payload by dense index.
    #[inline]
    pub fn node_by_index(&self, idx: u32) -> &N {
        &self.payloads[idx as usize]
    }

    /// Iterates `(id, payload)` over all nodes in insertion order.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &N)> {
        self.ids.iter().copied().zip(self.payloads.iter())
    }

    /// Adds an edge `from → to`. Both nodes must already exist. If the
    /// edge exists its payload is replaced. Returns `false` when either
    /// endpoint is missing.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, payload: E) -> bool {
        let (Some(f), Some(t)) = (self.node_index(from), self.node_index(to)) else {
            return false;
        };
        let list = &mut self.out_edges[f as usize];
        match list.iter_mut().find(|(idx, _)| *idx == t) {
            Some((_, existing)) => *existing = payload,
            None => {
                list.push((t, payload));
                self.edge_count += 1;
            }
        }
        true
    }

    /// Edge payload for `from → to`, if present.
    pub fn edge(&self, from: NodeId, to: NodeId) -> Option<&E> {
        let f = self.node_index(from)?;
        let t = self.node_index(to)?;
        self.out_edges[f as usize]
            .iter()
            .find(|(idx, _)| *idx == t)
            .map(|(_, e)| e)
    }

    /// Iterates outgoing edges of a node by dense index.
    pub fn edges_from_index(&self, idx: u32) -> impl Iterator<Item = EdgeRef<'_, E>> {
        self.out_edges[idx as usize].iter().map(|(t, e)| EdgeRef {
            to: self.ids[*t as usize],
            to_idx: *t,
            payload: e,
        })
    }

    /// Iterates outgoing edges of a node by external id.
    pub fn edges_from(&self, id: NodeId) -> Option<impl Iterator<Item = EdgeRef<'_, E>>> {
        self.node_index(id).map(|i| self.edges_from_index(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> DiGraph<&'static str, f64> {
        let mut g = DiGraph::new();
        g.add_node(1, "a");
        g.add_node(2, "b");
        g.add_node(3, "c");
        g.add_edge(1, 2, 1.0);
        g.add_edge(2, 3, 2.0);
        g.add_edge(1, 3, 5.0);
        g
    }

    #[test]
    fn construction_counts() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.edges_from(1).map(Iterator::count), Some(2));
        assert_eq!(g.edges_from(3).map(Iterator::count), Some(0));
    }

    #[test]
    fn upsert_node_keeps_index() {
        let mut g = triangle();
        let idx = g.node_index(2).unwrap();
        let idx2 = g.add_node(2, "b2");
        assert_eq!(idx, idx2);
        assert_eq!(g.node(2), Some(&"b2"));
        assert_eq!(g.node_count(), 3);
    }

    #[test]
    fn edge_replace_and_merge() {
        let mut g = triangle();
        g.add_edge(1, 2, 9.0);
        assert_eq!(g.edge_count(), 3, "replace does not duplicate");
        assert_eq!(g.edge(1, 2), Some(&9.0));
        assert!(g.add_edge(3, 1, 7.0));
        assert_eq!(g.edge(3, 1), Some(&7.0));
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn missing_endpoints_rejected() {
        let mut g = triangle();
        assert!(!g.add_edge(1, 99, 1.0));
        assert!(!g.add_edge(99, 1, 1.0));
        assert_eq!(g.edge_count(), 3);
        assert!(g.edge(2, 1).is_none(), "directed: reverse edge absent");
    }

    #[test]
    fn iteration() {
        let g = triangle();
        let ids: Vec<u64> = g.nodes().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        let targets: Vec<u64> = g.edges_from(1).unwrap().map(|e| e.to).collect();
        assert_eq!(targets, vec![2, 3]);
        assert!(g.edges_from(42).is_none());
    }
}
