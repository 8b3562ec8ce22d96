//! Compact binary serialization.
//!
//! Table 2 of the paper compares framework storage sizes on disk. The
//! serialized graph is HABIT's "model file"; this module defines the
//! little-endian varint-free encoding used for it (fixed-width fields —
//! simple, fast, and deterministic across platforms).
//!
//! There is one graph blob layout, "HBG1": header, node records
//! `(id, payload)`, then edge records `(from_id, to_id, payload)`
//! grouped per source in node-record order. It has one writer,
//! [`CsrGraph::to_bytes`], and one reader, [`CsrGraph::from_bytes`],
//! which decodes the records straight into [`CsrGraph::from_parts`].
//! The mutable [`DiGraph`](crate::DiGraph) has no codec.

use crate::csr::CsrGraph;
use crate::graph::NodeId;

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

impl<N: Codec, E: Codec> CsrGraph<N, E> {
    /// Serializes the graph in the HBG1 layout, a pure function of the
    /// node/edge *set*: edges are walked ascending by `(from id, to id)`
    /// and a node record is written where that walk first names the
    /// node (nodes no edge names follow, ascending) — the order in
    /// which a fit's key-sorted transitions name their cells.
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

        // Rough preallocation: 16 B per node, 20 B per edge.
        let mut out = Vec::with_capacity(20 + n * 16 + self.edge_count() * 20);
        MAGIC.encode(&mut out);
        (n as u64).encode(&mut out);
        (self.edge_count() as u64).encode(&mut out);
        for &idx in &order {
            self.node_id(idx).encode(&mut out);
            self.node_by_index(idx).encode(&mut out);
        }
        for &from in &order {
            for slot in run(from) {
                self.node_id(from).encode(&mut out);
                self.node_id(targets[slot]).encode(&mut out);
                self.weights()[slot].encode(&mut out);
            }
        }
        out
    }

    /// Deserializes exactly one HBG1 graph: `None` on bad magic,
    /// truncation, bytes after the last edge record, or records
    /// [`CsrGraph::from_parts`] rejects (a duplicate node or edge, an
    /// edge naming an unknown node). Records may come in any order;
    /// the result is canonical either way.
    pub fn from_bytes(mut buf: &[u8]) -> Option<Self> {
        let buf = &mut buf;
        if u32::decode(buf)? != MAGIC {
            return None;
        }
        let node_count = u64::decode(buf)? as usize;
        let edge_count = u64::decode(buf)? as usize;
        // A node record is at least its 8-byte id, an edge record at
        // least its two ids: counts larger than the remaining bytes can
        // possibly hold are corruption, and must be rejected *before*
        // they reach an allocator-aborting `with_capacity`.
        if node_count > buf.len() / 8 || edge_count > buf.len() / 16 {
            return None;
        }
        let mut nodes = Vec::with_capacity(node_count);
        for _ in 0..node_count {
            nodes.push((NodeId::decode(buf)?, N::decode(buf)?));
        }
        let mut edges = Vec::with_capacity(edge_count);
        for _ in 0..edge_count {
            edges.push((NodeId::decode(buf)?, NodeId::decode(buf)?, E::decode(buf)?));
        }
        if !buf.is_empty() {
            return None;
        }
        Self::from_parts(nodes, edges)
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

    /// A 50-node chain with typed payloads.
    fn chain() -> CsrGraph<f64, (u32, f64)> {
        let nodes = (0..50u64).map(|id| (id, id as f64 * 0.5)).collect();
        let edges = (0..49u64)
            .map(|id| (id, id + 1, (id as u32, 1.0 / (id + 1) as f64)))
            .collect();
        CsrGraph::from_parts(nodes, edges).expect("valid chain")
    }

    #[test]
    fn graph_round_trip() {
        let g = chain();
        let bytes = g.to_bytes();
        let back: CsrGraph<f64, (u32, f64)> = CsrGraph::from_bytes(&bytes).unwrap();
        assert_eq!(back.node_count(), 50);
        assert_eq!(back.edge_count(), 49);
        assert_eq!(back.node(10), Some(&5.0));
        assert_eq!(back.edge(10, 11), Some(&(10u32, 1.0 / 11.0)));
        assert_eq!(back, g);
    }

    /// Two nodes, two edges, `u8` payloads: header 20 B, two 9-byte
    /// node records, two 17-byte edge records.
    fn pair() -> Vec<u8> {
        let nodes = vec![(1, 7u8), (2, 8)];
        let edges = vec![(1, 2, 3u8), (2, 1, 4)];
        CsrGraph::from_parts(nodes, edges).unwrap().to_bytes()
    }

    #[test]
    fn corrupted_input_rejected() {
        let good = pair();
        let mut bytes = good.clone();
        bytes[0] ^= 0xFF; // break magic
        assert!(CsrGraph::<u8, u8>::from_bytes(&bytes).is_none());
        assert!(CsrGraph::<u8, u8>::from_bytes(&good[..good.len() - 1]).is_none());
        // An edge naming a node no record declares.
        let mut dangling = good;
        let to_at = 20 + 2 * 9 + 8;
        dangling[to_at..to_at + 8].copy_from_slice(&99u64.to_le_bytes());
        assert!(CsrGraph::<u8, u8>::from_bytes(&dangling).is_none());
    }

    /// A blob is exactly one graph: bytes after the last edge record
    /// are corruption, not padding (a model file holding them would
    /// load and re-encode to different bytes).
    #[test]
    fn trailing_bytes_rejected() {
        let good = pair();
        assert!(CsrGraph::<u8, u8>::from_bytes(&good).is_some());
        for tail in [&[0u8][..], &[1, 2, 3]] {
            let mut padded = good.clone();
            padded.extend_from_slice(tail);
            assert!(CsrGraph::<u8, u8>::from_bytes(&padded).is_none());
        }
    }

    /// A repeated node id or `(from, to)` pair would decode to fewer
    /// records than declared and re-encode to different bytes — both
    /// are corruption.
    #[test]
    fn duplicate_records_rejected() {
        let good = pair();
        assert!(CsrGraph::<u8, u8>::from_bytes(&good).is_some());
        let (nodes_at, edges_at) = (20, 20 + 2 * 9);
        let mut dup_edge = good.clone();
        dup_edge.copy_within(edges_at..edges_at + 16, edges_at + 17);
        assert!(CsrGraph::<u8, u8>::from_bytes(&dup_edge).is_none());
        let mut dup_node = good;
        dup_node.copy_within(nodes_at..nodes_at + 8, nodes_at + 9);
        assert!(CsrGraph::<u8, u8>::from_bytes(&dup_node).is_none());
    }

    /// A bare header declaring 2^40 nodes is rejected by the count
    /// guard before any record buffer is sized: reserving 2^40 node
    /// records would abort the test process instead of returning.
    #[test]
    fn oversized_counts_rejected_before_allocating() {
        let mut header = Vec::new();
        MAGIC.encode(&mut header);
        (1u64 << 40).encode(&mut header);
        0u64.encode(&mut header);
        assert_eq!(header.len(), 20);
        assert!(CsrGraph::<u64, u64>::from_bytes(&header).is_none());
        let mut edges = Vec::new();
        MAGIC.encode(&mut edges);
        0u64.encode(&mut edges);
        (1u64 << 40).encode(&mut edges);
        assert!(CsrGraph::<(), ()>::from_bytes(&edges).is_none());
    }

    #[test]
    fn size_grows_with_graph() {
        let small: CsrGraph<(), ()> = CsrGraph::from_parts(vec![(1, ())], Vec::new()).unwrap();
        let big: CsrGraph<(), ()> =
            CsrGraph::from_parts((0..1000u64).map(|id| (id, ())).collect(), Vec::new()).unwrap();
        assert!(big.to_bytes().len() > small.to_bytes().len() * 100);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Strategy: a random graph over `n` nodes with u64 payloads, its
    /// records in generation order (repeated edges keep the last).
    fn arb_graph() -> impl Strategy<Value = CsrGraph<u64, f32>> {
        (
            1usize..60,
            proptest::collection::vec((0usize..60, 0usize..60, 0f32..10.0), 0..200),
        )
            .prop_map(|(n, raw)| {
                let nodes = (0..n as u64)
                    .map(|id| (id, id.wrapping_mul(0x9E37)))
                    .collect();
                let mut edges: Vec<(NodeId, NodeId, f32)> = Vec::new();
                for (a, b, w) in raw {
                    let (a, b) = ((a % n) as u64, (b % n) as u64);
                    if a != b {
                        edges.retain(|&(x, y, _)| (x, y) != (a, b));
                        edges.push((a, b, w));
                    }
                }
                CsrGraph::from_parts(nodes, edges).expect("unique records")
            })
    }

    proptest! {
        /// Every random graph round-trips to an equal value, and
        /// re-encoding the decoded graph writes the same bytes.
        #[test]
        fn graph_codec_round_trip(g in arb_graph()) {
            let bytes = g.to_bytes();
            let back: CsrGraph<u64, f32> = CsrGraph::from_bytes(&bytes).expect("round trip");
            prop_assert_eq!(back.to_bytes(), bytes);
            prop_assert_eq!(back, g);
        }

        /// Arbitrary bytes never panic the graph decoder.
        #[test]
        fn decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..2_048)) {
            let _ = CsrGraph::<u64, f32>::from_bytes(&bytes);
            let _ = CsrGraph::<(), ()>::from_bytes(&bytes);
        }

        /// Truncation at any prefix is rejected.
        #[test]
        fn truncation_rejected(g in arb_graph(), frac in 0.0f64..0.999) {
            let bytes = g.to_bytes();
            let cut = ((bytes.len() as f64) * frac) as usize;
            prop_assert!(CsrGraph::<u64, f32>::from_bytes(&bytes[..cut]).is_none());
        }
    }
}
