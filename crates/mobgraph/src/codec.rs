//! Compact binary serialization.
//!
//! Table 2 of the paper compares framework storage sizes on disk. The
//! serialized graph is HABIT's "model file"; this module defines the
//! little-endian varint-free encoding used for it (fixed-width fields —
//! simple, fast, and deterministic across platforms).
//!
//! There is one graph blob layout, "HBG1": header, node records
//! `(id, payload)`, then edge records `(from_id, to_id, payload)`
//! grouped per source in node-record order. Both graph forms write it
//! ([`DiGraph::to_bytes`] in insertion order, [`CsrGraph::to_bytes`] in
//! an order derived from the arrays alone); only [`DiGraph::from_bytes`]
//! reads it — a serving model decodes to the build-time form and
//! freezes.

use crate::csr::CsrGraph;
use crate::graph::{DiGraph, NodeId};

/// Types that can be encoded into / decoded from a byte stream.
pub trait Codec: Sized {
    /// Appends the encoded form to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes from the front of `buf`, advancing it. `None` on underflow
    /// or malformed data.
    fn decode(buf: &mut &[u8]) -> Option<Self>;
}

macro_rules! impl_codec_le {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(buf: &mut &[u8]) -> Option<Self> {
                const N: usize = std::mem::size_of::<$t>();
                if buf.len() < N {
                    return None;
                }
                let (head, rest) = buf.split_at(N);
                *buf = rest;
                Some(<$t>::from_le_bytes(head.try_into().ok()?))
            }
        }
    )*};
}

impl_codec_le!(u8, u16, u32, u64, i64, f32, f64);

impl Codec for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode(_buf: &mut &[u8]) -> Option<Self> {
        Some(())
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some((A::decode(buf)?, B::decode(buf)?))
    }
}

/// Magic bytes prefixing a serialized graph ("HBG1").
const MAGIC: u32 = 0x4847_4231;

/// Writes the HBG1 layout: header, then `nodes`, then `edges` (which
/// must arrive grouped per source, sources in `nodes` order).
fn encode_graph<'a, N: Codec + 'a, E: Codec + 'a>(
    node_count: usize,
    edge_count: usize,
    nodes: impl Iterator<Item = (NodeId, &'a N)>,
    edges: impl Iterator<Item = (NodeId, NodeId, &'a E)>,
) -> Vec<u8> {
    // Rough preallocation: 16 B per node, 20 B per edge.
    let mut out = Vec::with_capacity(16 + node_count * 16 + edge_count * 20);
    MAGIC.encode(&mut out);
    (node_count as u64).encode(&mut out);
    (edge_count as u64).encode(&mut out);
    for (id, payload) in nodes {
        id.encode(&mut out);
        payload.encode(&mut out);
    }
    for (from, to, payload) in edges {
        from.encode(&mut out);
        to.encode(&mut out);
        payload.encode(&mut out);
    }
    out
}

impl<N: Codec, E: Codec> DiGraph<N, E> {
    /// Serializes the graph: header, nodes `(id, payload)`, then edges
    /// `(from_id, to_id, payload)`, both in insertion order.
    pub fn to_bytes(&self) -> Vec<u8> {
        let edges = (0..self.node_count() as u32).flat_map(|idx| {
            let from = self.node_id(idx);
            self.edges_from_index(idx)
                .map(move |e| (from, e.to, e.payload))
        });
        encode_graph(self.node_count(), self.edge_count(), self.nodes(), edges)
    }

    /// Deserializes a graph produced by [`DiGraph::to_bytes`] or
    /// [`CsrGraph::to_bytes`].
    pub fn from_bytes(mut buf: &[u8]) -> Option<Self> {
        let buf = &mut buf;
        if u32::decode(buf)? != MAGIC {
            return None;
        }
        let nodes = u64::decode(buf)? as usize;
        let edges = u64::decode(buf)? as usize;
        // A node record is at least its 8-byte id, an edge record at
        // least its two ids: counts larger than the remaining bytes can
        // possibly hold are corruption, and must be rejected *before*
        // they reach an allocator-aborting `with_capacity`.
        if nodes > buf.len() / 8 || edges > buf.len() / 16 {
            return None;
        }
        let mut g = DiGraph::with_capacity(nodes);
        for _ in 0..nodes {
            let id = NodeId::decode(buf)?;
            let payload = N::decode(buf)?;
            g.add_node(id, payload);
        }
        for _ in 0..edges {
            let from = NodeId::decode(buf)?;
            let to = NodeId::decode(buf)?;
            let payload = E::decode(buf)?;
            if !g.add_edge(from, to, payload) {
                return None;
            }
        }
        // `add_node` / `add_edge` upsert, so a repeated id or
        // `(from, to)` record would silently shrink the graph below the
        // declared counts and re-encode to different bytes.
        (g.node_count() == nodes && g.edge_count() == edges).then_some(g)
    }
}

impl<N: Codec, E: Codec> CsrGraph<N, E> {
    /// Serializes the frozen graph in the HBG1 layout, a pure function
    /// of the node/edge *set*: edges are walked ascending by
    /// `(from id, to id)` and a node record is written where that walk
    /// first names the node (nodes no edge names follow, ascending).
    /// This is the order `habit-core`'s fit inserts into the
    /// [`DiGraph`] it freezes, so a fitted model's bytes are the same
    /// whether written from the build-time graph or from these arrays.
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.node_count();
        let (offsets, targets) = (self.offsets(), self.targets());
        let run = |idx: u32| offsets[idx as usize] as usize..offsets[idx as usize + 1] as usize;
        let mut seen = vec![false; n];
        let mut order: Vec<u32> = Vec::with_capacity(n);
        let mut visit = |idx: u32| {
            if !std::mem::replace(&mut seen[idx as usize], true) {
                order.push(idx);
            }
        };
        for from in 0..n as u32 {
            if !run(from).is_empty() {
                visit(from);
                targets[run(from)].iter().for_each(|&to| visit(to));
            }
        }
        (0..n as u32).for_each(&mut visit);

        let nodes = order
            .iter()
            .map(|&idx| (self.node_id(idx), self.node_by_index(idx)));
        let edges = order.iter().flat_map(|&from| {
            run(from).map(move |slot| {
                (
                    self.node_id(from),
                    self.node_id(targets[slot]),
                    &self.weights()[slot],
                )
            })
        });
        encode_graph(n, self.edge_count(), nodes, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trips() {
        let mut out = Vec::new();
        42u64.encode(&mut out);
        (-7i64).encode(&mut out);
        1.5f64.encode(&mut out);
        (3u32, 4u8).encode(&mut out);
        let mut buf = out.as_slice();
        assert_eq!(u64::decode(&mut buf), Some(42));
        assert_eq!(i64::decode(&mut buf), Some(-7));
        assert_eq!(f64::decode(&mut buf), Some(1.5));
        assert_eq!(<(u32, u8)>::decode(&mut buf), Some((3, 4)));
        assert!(buf.is_empty());
        assert_eq!(u64::decode(&mut buf), None, "underflow is None");
    }

    #[test]
    fn graph_round_trip() {
        let mut g: DiGraph<f64, (u32, f64)> = DiGraph::new();
        for id in 0..50u64 {
            g.add_node(id, id as f64 * 0.5);
        }
        for id in 0..49u64 {
            g.add_edge(id, id + 1, (id as u32, 1.0 / (id + 1) as f64));
        }
        let bytes = g.to_bytes();
        let back: DiGraph<f64, (u32, f64)> = DiGraph::from_bytes(&bytes).unwrap();
        assert_eq!(back.node_count(), 50);
        assert_eq!(back.edge_count(), 49);
        assert_eq!(back.node(10), Some(&5.0));
        assert_eq!(back.edge(10, 11), Some(&(10u32, 1.0 / 11.0)));
    }

    #[test]
    fn corrupted_input_rejected() {
        let mut g: DiGraph<u8, u8> = DiGraph::new();
        g.add_node(1, 7);
        let mut bytes = g.to_bytes();
        bytes[0] ^= 0xFF; // break magic
        assert!(DiGraph::<u8, u8>::from_bytes(&bytes).is_none());
        let good = g.to_bytes();
        assert!(DiGraph::<u8, u8>::from_bytes(&good[..good.len() - 1]).is_none());
    }

    /// A repeated node id or `(from, to)` pair would upsert, decoding
    /// to fewer records than declared and re-encoding to different
    /// bytes — both are corruption.
    #[test]
    fn duplicate_records_rejected() {
        let mut g: DiGraph<u8, u8> = DiGraph::new();
        g.add_node(1, 7);
        g.add_node(2, 8);
        g.add_edge(1, 2, 3);
        g.add_edge(2, 1, 4);
        let good = g.to_bytes();
        assert!(DiGraph::<u8, u8>::from_bytes(&good).is_some());
        // Header 20 B, two 9-byte node records, two 17-byte edge records.
        let (nodes_at, edges_at) = (20, 20 + 2 * 9);
        let mut dup_edge = good.clone();
        dup_edge.copy_within(edges_at..edges_at + 16, edges_at + 17);
        assert!(DiGraph::<u8, u8>::from_bytes(&dup_edge).is_none());
        let mut dup_node = good.clone();
        dup_node.copy_within(nodes_at..nodes_at + 8, nodes_at + 9);
        assert!(DiGraph::<u8, u8>::from_bytes(&dup_node).is_none());
    }

    #[test]
    fn size_grows_with_graph() {
        let mut small: DiGraph<(), ()> = DiGraph::new();
        small.add_node(1, ());
        let mut big: DiGraph<(), ()> = DiGraph::new();
        for id in 0..1000u64 {
            big.add_node(id, ());
        }
        assert!(big.to_bytes().len() > small.to_bytes().len() * 100);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Strategy: a random digraph over `n` nodes with u64 payloads.
    fn arb_graph() -> impl Strategy<Value = DiGraph<u64, f32>> {
        (
            1usize..60,
            proptest::collection::vec((0usize..60, 0usize..60, 0f32..10.0), 0..200),
        )
            .prop_map(|(n, edges)| {
                let mut g: DiGraph<u64, f32> = DiGraph::new();
                for id in 0..n as u64 {
                    g.add_node(id, id.wrapping_mul(0x9E37));
                }
                for (a, b, w) in edges {
                    let a = (a % n) as u64;
                    let b = (b % n) as u64;
                    if a != b {
                        g.add_edge(a, b, w);
                    }
                }
                g
            })
    }

    proptest! {
        /// Every random graph round-trips byte-exactly: same node set,
        /// same payloads, same adjacency.
        #[test]
        fn graph_codec_round_trip(g in arb_graph()) {
            let bytes = g.to_bytes();
            let back: DiGraph<u64, f32> = DiGraph::from_bytes(&bytes).expect("round trip");
            prop_assert_eq!(back.node_count(), g.node_count());
            prop_assert_eq!(back.edge_count(), g.edge_count());
            for (id, payload) in g.nodes() {
                prop_assert_eq!(back.node(id), Some(payload));
                let mut ours: Vec<(NodeId, f32)> = g
                    .edges_from(id)
                    .expect("node exists")
                    .map(|e| (e.to, *e.payload))
                    .collect();
                let mut theirs: Vec<(NodeId, f32)> = back
                    .edges_from(id)
                    .expect("node exists")
                    .map(|e| (e.to, *e.payload))
                    .collect();
                ours.sort_by_key(|&(to, _)| to);
                theirs.sort_by_key(|&(to, _)| to);
                prop_assert_eq!(ours, theirs);
            }
            // Re-encoding the decoded graph is deterministic.
            prop_assert_eq!(back.to_bytes(), bytes);
        }

        /// Arbitrary bytes never panic the graph decoder.
        #[test]
        fn decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..2_048)) {
            let _ = DiGraph::<u64, f32>::from_bytes(&bytes);
            let _ = DiGraph::<(), ()>::from_bytes(&bytes);
        }

        /// Truncation at any prefix is rejected.
        #[test]
        fn truncation_rejected(g in arb_graph(), frac in 0.0f64..0.999) {
            let bytes = g.to_bytes();
            let cut = ((bytes.len() as f64) * frac) as usize;
            prop_assert!(DiGraph::<u64, f32>::from_bytes(&bytes[..cut]).is_none());
        }
    }
}
