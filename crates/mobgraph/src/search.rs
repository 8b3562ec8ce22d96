//! Shortest-path search: A* (and Dijkstra as its zero-heuristic case).
//!
//! One search loop per graph form, sharing one pinned frontier order:
//!
//! * [`astar_csr_baked`] — the serving kernel over a frozen
//!   [`CsrGraph`]: all mutable search state lives in a reusable
//!   [`SearchArena`] (generation-counter reset, retained open-set
//!   heap) and every edge visit reads one pre-computed [`BakedEdge`]
//!   record, so steady-state routing allocates nothing but the result
//!   path;
//! * [`astar`] / [`dijkstra`] — the paper's form over the mutable
//!   [`DiGraph`] adjacency list, allocating fresh per-query state. GTI
//!   and the synthetic world route with it, and it is the
//!   **reference** the equivalence suites pin the kernel to
//!   (`habit_core::reference`, which walks a decoded model graph into
//!   a [`DiGraph`] of its own).
//!
//! Both order their frontier by the strict total order
//! `(estimate, descending path cost, external node id)`, so the settle
//! sequence — and therefore the returned path, cost, and `expanded`
//! count — is a pure function of the graph, never of heap internals,
//! dense-index assignment, or adjacency iteration order.

use crate::csr::CsrGraph;
use crate::graph::{DiGraph, NodeId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Result of a successful path search.
#[derive(Debug, Clone, PartialEq)]
pub struct PathResult {
    /// Sum of edge weights along the path.
    pub cost: f64,
    /// Node ids from start to goal, inclusive.
    pub nodes: Vec<NodeId>,
    /// Number of heap pops performed (search effort; used by the latency
    /// experiments to explain config differences).
    pub expanded: usize,
}

/// Min-heap entry ordered by the pinned frontier order.
#[derive(Debug)]
struct Frontier {
    est: f64,
    cost: f64,
    idx: u32,
    id: NodeId,
}

impl PartialEq for Frontier {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Frontier {}
impl PartialOrd for Frontier {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Frontier {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap. The order is [`frontier_order`] — a
        // strict total order, so the pop sequence is unique and every
        // search loop settles nodes in exactly the same sequence. That
        // is the load-bearing property behind the byte-identical
        // kernel ⇔ reference routing equivalence.
        frontier_order(
            other.est, other.cost, other.id, self.est, self.cost, self.id,
        )
    }
}

/// The pinned frontier order shared by both search loops: estimate
/// first, then **descending** path cost (on an estimate tie, the entry
/// with more accumulated cost is closer to the goal under an admissible
/// heuristic — the classic high-g tie-break that keeps A* from
/// degenerating to Dijkstra on plateaus), then **external** node id —
/// never a dense index (dense indices differ between [`DiGraph`]
/// insertion order and [`crate::CsrGraph`] canonical order) and never
/// heap internals.
#[inline]
pub(crate) fn frontier_order(
    a_est: f64,
    a_cost: f64,
    a_id: NodeId,
    b_est: f64,
    b_cost: f64,
    b_id: NodeId,
) -> Ordering {
    a_est
        .total_cmp(&b_est)
        .then_with(|| b_cost.total_cmp(&a_cost))
        .then_with(|| a_id.cmp(&b_id))
}

/// A* search from `start` to `goal`.
///
/// * `weight(from_idx, to_idx, &edge)` must return a non-negative edge
///   cost;
/// * `heuristic(idx)` must be an admissible lower bound on the remaining
///   cost to `goal` (return `0.0` to degrade to Dijkstra).
///
/// Returns `None` when either endpoint is missing or unreachable.
pub fn astar<N, E>(
    graph: &DiGraph<N, E>,
    start: NodeId,
    goal: NodeId,
    mut weight: impl FnMut(u32, u32, &E) -> f64,
    mut heuristic: impl FnMut(u32) -> f64,
) -> Option<PathResult> {
    let start_idx = graph.node_index(start)?;
    let goal_idx = graph.node_index(goal)?;

    let n = graph.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev = vec![u32::MAX; n];
    let mut settled = vec![false; n];
    let mut heap = BinaryHeap::new();
    let mut expanded = 0usize;

    dist[start_idx as usize] = 0.0;
    heap.push(Frontier {
        est: heuristic(start_idx),
        cost: 0.0,
        idx: start_idx,
        id: start,
    });

    while let Some(Frontier { cost, idx, .. }) = heap.pop() {
        if settled[idx as usize] {
            continue;
        }
        settled[idx as usize] = true;
        expanded += 1;

        if idx == goal_idx {
            let mut nodes = Vec::new();
            let mut cur = goal_idx;
            loop {
                nodes.push(graph.node_id(cur));
                if cur == start_idx {
                    break;
                }
                cur = prev[cur as usize];
                debug_assert_ne!(cur, u32::MAX, "broken predecessor chain");
            }
            nodes.reverse();
            return Some(PathResult {
                cost,
                nodes,
                expanded,
            });
        }

        for edge in graph.edges_from_index(idx) {
            let t = edge.to_idx as usize;
            if settled[t] {
                continue;
            }
            let w = weight(idx, edge.to_idx, edge.payload);
            debug_assert!(w >= 0.0, "negative edge weight breaks Dijkstra/A*");
            let next = cost + w;
            if next < dist[t] {
                dist[t] = next;
                prev[t] = idx;
                heap.push(Frontier {
                    est: next + heuristic(edge.to_idx),
                    cost: next,
                    idx: edge.to_idx,
                    id: edge.to,
                });
            }
        }
    }
    None
}

/// Dijkstra shortest path (A* with a zero heuristic).
pub fn dijkstra<N, E>(
    graph: &DiGraph<N, E>,
    start: NodeId,
    goal: NodeId,
    weight: impl FnMut(u32, u32, &E) -> f64,
) -> Option<PathResult> {
    astar(graph, start, goal, weight, |_| 0.0)
}

/// One fully-baked edge record for the serving kernel
/// ([`astar_csr_baked`]): everything an A* edge visit needs, laid out
/// contiguously in CSR slot order so visiting a node's out-edges reads
/// one or two cache lines instead of gathering the target index, cost,
/// external id, and heuristic key from four parallel arrays.
///
/// `H` is the caller's per-target heuristic key (HABIT bakes the
/// target cell's axial hex coordinates); the heuristic closure maps it
/// to the same `f64` estimate the reference computes from the node id,
/// which is what keeps the two byte-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BakedEdge<H> {
    /// Edge cost — the exact `f64` the weight function returns for this
    /// slot.
    pub cost: f64,
    /// External id of the target node.
    pub id: NodeId,
    /// Dense CSR index of the target node.
    pub to_idx: u32,
    /// Heuristic key of the target node.
    pub hkey: H,
}

/// Per-node mutable search state, fused into one 16-byte struct so a
/// relax (or settle check) touches a single cache line per node — four
/// nodes a line — instead of gathering `dist`/`prev`/generation marks
/// from parallel arrays.
#[derive(Debug, Clone, Copy)]
struct NodeState {
    /// Best known cost; valid when this generation touched the node.
    dist: f64,
    /// Predecessor dense index; valid when this generation touched the
    /// node.
    prev: u32,
    /// What the arena's generation `g` last did here: `2g` touched
    /// (relaxed, still open), `2g + 1` settled. Anything else — 0, or a
    /// mark of an earlier generation — is untouched.
    mark: u32,
}

impl Default for NodeState {
    fn default() -> Self {
        Self {
            dist: f64::INFINITY,
            prev: u32::MAX,
            mark: 0,
        }
    }
}

/// Reusable mutable state for [`astar_csr_baked`]: the same
/// duplicate-push `BinaryHeap<Frontier>` [`astar`] uses — retained
/// across queries so its buffer stops being reallocated — plus fused
/// per-node g-score/predecessor/settled state.
///
/// Clearing between queries is O(1): `BinaryHeap::clear` keeps the
/// allocation, and node states are validated against a per-query
/// **generation counter** instead of being rewritten ([`astar`]
/// re-allocates and re-initializes ~160 KB of per-node arrays per query
/// on the Kiel graph), so a long-lived arena (`habit-core` pools one
/// per concurrent search) makes steady-state routing allocation-free —
/// the only allocation left is the returned path.
///
/// Keeping the *same* heap discipline as [`astar`] (push a fresh entry
/// per relax, skip already-settled pops) makes the byte-identity
/// argument trivial: both loops execute the same
/// abstract sequence of heap operations on the same keys, and
/// [`frontier_order`] is a strict total order, so the settle sequence,
/// `expanded` count, and dist/prev trajectories are identical. (An
/// indexed decrease-key heap variant measured *slower* here — safe-Rust
/// sift loops with heap-position backpointers lose more to bounds
/// checks and scattered `pos` stores than lazy deletion loses to stale
/// entries at this graph's ~2.3 stale pops per settle.)
#[derive(Debug, Default)]
pub struct SearchArena {
    /// Fused per-node search state, indexed by dense node index.
    nodes: Vec<NodeState>,
    /// Open-set storage, ordered by [`frontier_order`].
    heap: BinaryHeap<Frontier>,
    generation: u32,
}

/// The last generation whose settled mark `2g + 1` still fits a `u32`.
const MAX_GENERATION: u32 = u32::MAX / 2;

impl SearchArena {
    /// Creates an empty arena; arrays grow to the graph size on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new query over a graph of `n` nodes: bumps the
    /// generation (invalidating all per-node state at once) and grows
    /// the arrays if this graph is larger than any seen before.
    fn begin(&mut self, n: usize) {
        if self.nodes.len() < n {
            self.nodes.resize(n, NodeState::default());
        }
        self.heap.clear();
        self.generation += 1;
        if self.generation > MAX_GENERATION {
            // `2g + 1` would overflow the mark and old marks could
            // alias. Re-zero once every 2^31 queries and restart at
            // generation 1.
            for s in &mut self.nodes {
                s.mark = 0;
            }
            self.generation = 1;
        }
    }

    #[inline]
    fn dist(&self, idx: u32) -> f64 {
        let s = &self.nodes[idx as usize];
        if s.mark >> 1 == self.generation {
            s.dist
        } else {
            f64::INFINITY
        }
    }

    #[inline]
    fn is_settled(&self, idx: u32) -> bool {
        self.nodes[idx as usize].mark == 2 * self.generation + 1
    }

    #[inline]
    fn settle(&mut self, idx: u32) {
        self.nodes[idx as usize].mark = 2 * self.generation + 1;
    }

    #[inline]
    fn prev(&self, idx: u32) -> u32 {
        self.nodes[idx as usize].prev
    }

    /// Records an improved path to `idx` (`cost` strictly below its
    /// current dist) and pushes its new frontier entry. The caller
    /// guarantees `idx` is not settled.
    #[inline]
    fn relax(&mut self, idx: u32, cost: f64, prev: u32, est: f64, id: NodeId) {
        let s = &mut self.nodes[idx as usize];
        s.dist = cost;
        s.prev = prev;
        s.mark = 2 * self.generation;
        self.heap.push(Frontier { est, cost, idx, id });
    }

    /// Pops the next frontier entry — possibly a stale duplicate of an
    /// already-settled node; the search loop skips those, exactly like
    /// [`astar`].
    #[inline]
    fn pop(&mut self) -> Option<(f64, u32)> {
        self.heap.pop().map(|f| (f.cost, f.idx))
    }
}

/// A* over a frozen [`CsrGraph`] with a **fully baked edge table**:
/// `edges` holds one [`BakedEdge`] per CSR edge slot, parallel to
/// [`CsrGraph::targets`], carrying the pre-computed cost, target id,
/// and target heuristic key inline.
///
/// Same contract as [`astar`] — and, by the shared frontier order, the
/// **same result byte for byte** as [`astar`] over a [`DiGraph`] with
/// the same node/edge set, a weight function returning
/// `edges[slot].cost` and a heuristic returning `heuristic(hkey)` — but
/// the serving inner loop reads one contiguous record where the closure
/// form recomputes per visit (the habit model bakes its log-frequency
/// weights and axial cell coordinates once when the model is built, since
/// neither changes after fit). `start_est` must equal the heuristic
/// estimate of `start` — the baked table only covers edge *targets*,
/// so the start node's estimate is the caller's (it is on screen
/// anyway: the same formula the caller baked the keys with).
pub fn astar_csr_baked<N, E, H: Copy>(
    graph: &CsrGraph<N, E>,
    arena: &mut SearchArena,
    start: NodeId,
    goal: NodeId,
    edges: &[BakedEdge<H>],
    start_est: f64,
    mut heuristic: impl FnMut(H) -> f64,
) -> Option<PathResult> {
    assert_eq!(
        edges.len(),
        graph.edge_count(),
        "one baked edge record per CSR edge slot"
    );
    let start_idx = graph.node_index(start)?;
    let goal_idx = graph.node_index(goal)?;
    let offsets = graph.offsets();
    let ids = graph.ids();

    arena.begin(graph.node_count());
    let mut expanded = 0usize;
    arena.relax(start_idx, 0.0, u32::MAX, start_est, start);

    while let Some((cost, idx)) = arena.pop() {
        if arena.is_settled(idx) {
            continue;
        }
        arena.settle(idx);
        expanded += 1;

        if idx == goal_idx {
            return Some(PathResult {
                cost,
                nodes: reconstruct(ids, start_idx, goal_idx, |cur| arena.prev(cur)),
                expanded,
            });
        }

        for e in &edges[offsets[idx as usize] as usize..offsets[idx as usize + 1] as usize] {
            if arena.is_settled(e.to_idx) {
                continue;
            }
            debug_assert!(e.cost >= 0.0, "negative edge weight breaks Dijkstra/A*");
            let next = cost + e.cost;
            if next < arena.dist(e.to_idx) {
                arena.relax(e.to_idx, next, idx, next + heuristic(e.hkey), e.id);
            }
        }
    }
    None
}

/// Walks the predecessor chain from `goal_idx` back to `start_idx` and
/// returns the external-id path in start → goal order.
fn reconstruct(
    ids: &[NodeId],
    start_idx: u32,
    goal_idx: u32,
    mut prev: impl FnMut(u32) -> u32,
) -> Vec<NodeId> {
    let mut nodes = Vec::new();
    let mut cur = goal_idx;
    loop {
        nodes.push(ids[cur as usize]);
        if cur == start_idx {
            break;
        }
        cur = prev(cur);
        debug_assert_ne!(cur, u32::MAX, "broken predecessor chain");
    }
    nodes.reverse();
    nodes
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1 → 2 → 3 → 4 (cheap chain) and 1 → 4 (expensive shortcut).
    fn chain() -> DiGraph<(), f64> {
        let mut g = DiGraph::new();
        for id in 1..=4 {
            g.add_node(id, ());
        }
        g.add_edge(1, 2, 1.0);
        g.add_edge(2, 3, 1.0);
        g.add_edge(3, 4, 1.0);
        g.add_edge(1, 4, 10.0);
        g
    }

    #[test]
    fn dijkstra_prefers_cheap_chain() {
        let g = chain();
        let r = dijkstra(&g, 1, 4, |_, _, w| *w).unwrap();
        assert_eq!(r.nodes, vec![1, 2, 3, 4]);
        assert_eq!(r.cost, 3.0);
    }

    #[test]
    fn dijkstra_uses_shortcut_when_cheaper() {
        let mut g = chain();
        g.add_edge(1, 4, 2.5);
        let r = dijkstra(&g, 1, 4, |_, _, w| *w).unwrap();
        assert_eq!(r.nodes, vec![1, 4]);
        assert_eq!(r.cost, 2.5);
    }

    #[test]
    fn unreachable_and_missing() {
        let mut g = chain();
        g.add_node(99, ());
        assert!(dijkstra(&g, 1, 99, |_, _, w| *w).is_none());
        assert!(dijkstra(&g, 1, 1000, |_, _, w| *w).is_none());
        assert!(dijkstra(&g, 4, 1, |_, _, w| *w).is_none(), "directed");
    }

    #[test]
    fn start_equals_goal() {
        let g = chain();
        let r = dijkstra(&g, 2, 2, |_, _, w| *w).unwrap();
        assert_eq!(r.nodes, vec![2]);
        assert_eq!(r.cost, 0.0);
    }

    #[test]
    fn astar_with_admissible_heuristic_finds_same_path() {
        // Grid-like graph: nodes 0..100 laid out on a 10x10 grid, id = y*10+x.
        let mut g = DiGraph::new();
        for id in 0..100u64 {
            g.add_node(id, ());
        }
        for y in 0..10u64 {
            for x in 0..10u64 {
                let id = y * 10 + x;
                if x + 1 < 10 {
                    g.add_edge(id, id + 1, 1.0);
                    g.add_edge(id + 1, id, 1.0);
                }
                if y + 1 < 10 {
                    g.add_edge(id, id + 10, 1.0);
                    g.add_edge(id + 10, id, 1.0);
                }
            }
        }
        let manhattan = |idx: u32| {
            let id = idx as u64;
            let (x, y) = (id % 10, id / 10);
            ((9 - x) + (9 - y)) as f64
        };
        let d = dijkstra(&g, 0, 99, |_, _, w| *w).unwrap();
        let a = astar(&g, 0, 99, |_, _, w| *w, manhattan).unwrap();
        assert_eq!(d.cost, a.cost);
        assert_eq!(a.cost, 18.0);
        assert!(
            a.expanded < d.expanded,
            "A* ({}) must expand fewer nodes than Dijkstra ({})",
            a.expanded,
            d.expanded
        );
    }
}

#[cfg(test)]
mod csr_tests {
    use super::*;
    use crate::csr::CsrGraph;

    /// The 10x10 unit grid from the reference tests, nodes inserted in
    /// descending id order so DiGraph insertion order != CSR canonical
    /// order.
    fn grid() -> DiGraph<(), f64> {
        let mut g = DiGraph::new();
        for id in (0..100u64).rev() {
            g.add_node(id, ());
        }
        for y in 0..10u64 {
            for x in 0..10u64 {
                let id = y * 10 + x;
                if x + 1 < 10 {
                    g.add_edge(id, id + 1, 1.0);
                    g.add_edge(id + 1, id, 1.0);
                }
                if y + 1 < 10 {
                    g.add_edge(id, id + 10, 1.0);
                    g.add_edge(id + 10, id, 1.0);
                }
            }
        }
        g
    }

    fn manhattan_to_99(id: NodeId) -> f64 {
        let (x, y) = (id % 10, id / 10);
        ((9 - x) + (9 - y)) as f64
    }

    /// One baked record per CSR edge slot: the payload as cost, the
    /// target id as heuristic key.
    pub(super) fn bake<N>(csr: &CsrGraph<N, f64>) -> Vec<BakedEdge<NodeId>> {
        let mut edges = Vec::with_capacity(csr.edge_count());
        for idx in 0..csr.node_count() as u32 {
            for (to, w) in csr.edges_from_index(idx) {
                edges.push(BakedEdge {
                    cost: *w,
                    id: csr.node_id(to),
                    to_idx: to,
                    hkey: csr.node_id(to),
                });
            }
        }
        edges
    }

    /// Dijkstra on the kernel: the zero heuristic.
    pub(super) fn dijkstra_baked<N>(
        csr: &CsrGraph<N, f64>,
        arena: &mut SearchArena,
        edges: &[BakedEdge<NodeId>],
        start: NodeId,
        goal: NodeId,
    ) -> Option<PathResult> {
        astar_csr_baked(csr, arena, start, goal, edges, 0.0, |_| 0.0)
    }

    #[test]
    fn csr_astar_matches_naive_byte_for_byte() {
        let g = grid();
        let csr = CsrGraph::from_digraph(&g);
        let edges = bake(&csr);
        let mut arena = SearchArena::new();
        for (start, goal) in [(0u64, 99u64), (99, 0), (5, 95), (42, 42), (7, 70)] {
            let naive = astar(
                &g,
                start,
                goal,
                |_, _, w| *w,
                |idx| manhattan_to_99(g.node_id(idx)),
            );
            let fast = astar_csr_baked(
                &csr,
                &mut arena,
                start,
                goal,
                &edges,
                manhattan_to_99(start),
                manhattan_to_99,
            );
            let (naive, fast) = (naive.unwrap(), fast.unwrap());
            assert_eq!(naive.nodes, fast.nodes);
            assert_eq!(naive.cost.to_bits(), fast.cost.to_bits());
            assert_eq!(naive.expanded, fast.expanded);
        }
    }

    #[test]
    fn csr_handles_missing_and_unreachable() {
        let mut g: DiGraph<(), f64> = DiGraph::new();
        g.add_node(1, ());
        g.add_node(2, ());
        g.add_node(9, ());
        g.add_edge(1, 2, 1.0);
        let csr = CsrGraph::from_digraph(&g);
        let edges = bake(&csr);
        let mut arena = SearchArena::new();
        assert!(dijkstra_baked(&csr, &mut arena, &edges, 1, 9).is_none());
        assert!(dijkstra_baked(&csr, &mut arena, &edges, 1, 1000).is_none());
        assert!(
            dijkstra_baked(&csr, &mut arena, &edges, 2, 1).is_none(),
            "directed"
        );
        let ok = dijkstra_baked(&csr, &mut arena, &edges, 1, 2).unwrap();
        assert_eq!(ok.nodes, vec![1, 2]);
    }

    /// The baked table stands in for *any* weight closure: bake the
    /// closure's value per slot and the kernel answers as [`astar`]
    /// does calling the closure per visit (non-uniform weights, so the
    /// cost sums are order-sensitive).
    #[test]
    fn baked_edges_match_closure_weights_byte_for_byte() {
        let g = grid();
        let csr = CsrGraph::from_digraph(&g);
        let weight = |from: NodeId, to: NodeId| 0.1 + ((from * 7 + to * 3) % 11) as f64 * 0.3;
        let mut edges = bake(&csr);
        let mut slot = 0;
        for idx in 0..csr.node_count() as u32 {
            for (to, _) in csr.edges_from_index(idx) {
                edges[slot].cost = weight(csr.node_id(idx), csr.node_id(to));
                slot += 1;
            }
        }
        let mut arena = SearchArena::new();
        for (start, goal) in [(0u64, 99u64), (99, 0), (5, 95), (42, 42), (7, 70)] {
            let closure = astar(
                &g,
                start,
                goal,
                |f, t, _| weight(g.node_id(f), g.node_id(t)),
                |_| 0.0,
            );
            let baked = astar_csr_baked(&csr, &mut arena, start, goal, &edges, 0.0, |_| 0.0);
            assert_eq!(closure, baked);
        }
    }

    #[test]
    #[should_panic(expected = "one baked edge record per CSR edge slot")]
    fn baked_rejects_mismatched_edge_table() {
        let g = grid();
        let csr = CsrGraph::from_digraph(&g);
        let mut arena = SearchArena::new();
        let one = [BakedEdge {
            cost: 1.0,
            id: 1,
            to_idx: 1,
            hkey: (),
        }];
        let _ = astar_csr_baked(&csr, &mut arena, 0, 99, &one, 0.0, |_| 0.0);
    }

    #[test]
    fn arena_generation_wrap_stays_correct() {
        let g = grid();
        let csr = CsrGraph::from_digraph(&g);
        let edges = bake(&csr);
        let mut arena = SearchArena::new();
        let before = dijkstra_baked(&csr, &mut arena, &edges, 0, 99).unwrap();
        // The last generation before the wrap still searches correctly
        // (its settled mark is exactly `u32::MAX`) …
        arena.generation = MAX_GENERATION - 1;
        let last = dijkstra_baked(&csr, &mut arena, &edges, 0, 99).unwrap();
        assert_eq!(before, last);
        assert_eq!(arena.generation, MAX_GENERATION);
        assert!(arena.nodes.iter().any(|s| s.mark == u32::MAX));
        // … and the next begin() re-zeroes and restarts at 1, so none
        // of those marks aliases a fresh generation.
        let after = dijkstra_baked(&csr, &mut arena, &edges, 0, 99).unwrap();
        assert_eq!(before, after);
        assert_eq!(arena.generation, 1);
    }

    /// The arena's resident size is `nodes × size_of::<NodeState>()`;
    /// 16 bytes (not the 24 three separate `u32` marks padded to) is
    /// what the serving RSS budget assumes.
    #[test]
    fn node_state_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<NodeState>(), 16);
    }
}

#[cfg(test)]
mod proptests {
    use super::csr_tests::{bake, dijkstra_baked};
    use super::*;
    use crate::csr::CsrGraph;
    use proptest::prelude::*;

    /// A random weighted digraph: `n` nodes with scattered ids (so
    /// insertion order, id order, and dense indices all disagree) and up
    /// to 300 random directed edges with positive weights.
    fn arb_graph() -> impl Strategy<Value = DiGraph<u64, f64>> {
        (
            2usize..40,
            proptest::collection::vec((0usize..40, 0usize..40, 0.01f64..10.0), 1..300),
        )
            .prop_map(|(n, edges)| {
                let mut g: DiGraph<u64, f64> = DiGraph::new();
                for i in 0..n as u64 {
                    // Bit-mixed ids: ascending-id order != insertion order.
                    g.add_node(i.wrapping_mul(0x9E37_79B9).rotate_left(7) % 1000, i);
                }
                for (a, b, w) in edges {
                    let a = g.node_id((a % n) as u32);
                    let b = g.node_id((b % n) as u32);
                    if a != b {
                        g.add_edge(a, b, w);
                    }
                }
                g
            })
    }

    /// Start/goal picked by dense index so they always exist.
    fn arb_case() -> impl Strategy<Value = (DiGraph<u64, f64>, usize, usize)> {
        (arb_graph(), 0usize..40, 0usize..40)
    }

    /// Every hop of `path` is a real edge and the costs re-accumulate to
    /// the reported total bit-for-bit (the search sums in path order).
    fn assert_valid_path(g: &DiGraph<u64, f64>, r: &PathResult, start: NodeId, goal: NodeId) {
        assert_eq!(r.nodes.first(), Some(&start));
        assert_eq!(r.nodes.last(), Some(&goal));
        let mut acc = 0.0f64;
        for hop in r.nodes.windows(2) {
            let w = g.edge(hop[0], hop[1]).expect("every hop is a real edge");
            acc += *w;
        }
        assert_eq!(acc.to_bits(), r.cost.to_bits(), "cost is the path sum");
    }

    proptest! {
        /// ISSUE 7 satellite: the old hand-built `astar_equals_dijkstra_cost`
        /// unit check, promoted to arbitrary graphs and both search loops.
        /// A* under an admissible heuristic (min edge weight unless at the
        /// goal) returns the same cost as Dijkstra; both paths are valid;
        /// the baked kernel agrees with the reference byte for byte.
        #[test]
        fn astar_equals_dijkstra_on_both_backends((g, s, t) in arb_case()) {
            let n = g.node_count();
            let (start, goal) = (g.node_id((s % n) as u32), g.node_id((t % n) as u32));
            let min_w = {
                let mut m = f64::INFINITY;
                for (id, _) in g.nodes() {
                    for e in g.edges_from(id).expect("node exists") {
                        m = m.min(*e.payload);
                    }
                }
                m
            };
            let h = |id: NodeId| if id == goal || min_w.is_infinite() { 0.0 } else { min_w };

            let d = dijkstra(&g, start, goal, |_, _, w| *w);
            let a = astar(&g, start, goal, |_, _, w| *w, |idx| h(g.node_id(idx)));
            prop_assert_eq!(d.is_some(), a.is_some());
            if let (Some(d), Some(a)) = (&d, &a) {
                prop_assert!((d.cost - a.cost).abs() <= 1e-9 * d.cost.max(1.0));
                assert_valid_path(&g, d, start, goal);
                assert_valid_path(&g, a, start, goal);
            }

            let csr = CsrGraph::from_digraph(&g);
            let edges = bake(&csr);
            let mut arena = SearchArena::new();
            let dc = dijkstra_baked(&csr, &mut arena, &edges, start, goal);
            let ac = astar_csr_baked(&csr, &mut arena, start, goal, &edges, h(start), h);
            // Byte-identical across loops: same nodes, same cost bits,
            // same expansion count.
            prop_assert_eq!(&d, &dc);
            if let Some(d) = &d {
                prop_assert_eq!(d.cost.to_bits(), dc.as_ref().expect("matches d").cost.to_bits());
            }
            prop_assert_eq!(&a, &ac);

            // Determinism across runs and across arena reuse.
            let d2 = dijkstra(&g, start, goal, |_, _, w| *w);
            prop_assert_eq!(&d, &d2);
            let dc2 = dijkstra_baked(&csr, &mut arena, &edges, start, goal);
            prop_assert_eq!(&dc, &dc2);
        }

        /// The byte-identity holds for *any* heuristic, admissible or not:
        /// both loops see the same `(est, cost, id)` keys, so the settle
        /// sequence is the same even when the heuristic is junk.
        #[test]
        fn backends_agree_under_arbitrary_heuristic((g, s, t) in arb_case(), quirk in 0u64..100) {
            let n = g.node_count();
            let (start, goal) = (g.node_id((s % n) as u32), g.node_id((t % n) as u32));
            let h = move |id: NodeId| (id.wrapping_mul(quirk) % 13) as f64 * 0.37;
            let naive = astar(&g, start, goal, |_, _, w| *w, |idx| h(g.node_id(idx)));
            let csr = CsrGraph::from_digraph(&g);
            let mut arena = SearchArena::new();
            let baked = astar_csr_baked(&csr, &mut arena, start, goal, &bake(&csr), h(start), h);
            prop_assert_eq!(&naive, &baked);
            if let (Some(naive), Some(baked)) = (&naive, &baked) {
                prop_assert_eq!(naive.cost.to_bits(), baked.cost.to_bits());
                prop_assert_eq!(naive.expanded, baked.expanded);
            }
        }

        /// CSR freeze is canonical on random graphs too: the same
        /// node/edge set handed to `from_parts` in reverse order builds
        /// an equal value.
        #[test]
        fn csr_freeze_order_insensitive(g in arb_graph()) {
            let mut nodes: Vec<(NodeId, u64)> = g.nodes().map(|(id, p)| (id, *p)).collect();
            let mut edges: Vec<(NodeId, NodeId, f64)> = Vec::new();
            for (id, _) in g.nodes() {
                for e in g.edges_from(id).expect("node exists") {
                    edges.push((id, e.to, *e.payload));
                }
            }
            nodes.reverse();
            edges.reverse();
            let reversed = CsrGraph::from_parts(nodes, edges).expect("unique records");
            prop_assert_eq!(CsrGraph::from_digraph(&g), reversed);
        }

        /// The frozen graph's bytes decode through the one graph decoder
        /// back to an equal value and re-encode exactly; a truncated
        /// blob is rejected.
        #[test]
        fn csr_codec_robust(g in arb_graph(), cut in 1usize..17) {
            let csr = CsrGraph::from_digraph(&g);
            let bytes = csr.to_bytes();
            let back = CsrGraph::<u64, f64>::from_bytes(&bytes).expect("round trip");
            prop_assert_eq!(back.to_bytes(), bytes.clone());
            prop_assert_eq!(back, csr);
            prop_assert!(CsrGraph::<u64, f64>::from_bytes(&bytes[..bytes.len() - cut]).is_none());
        }
    }
}
