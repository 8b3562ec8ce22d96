//! The fitted HABIT model: transition graph + spatial index + config.

use crate::config::HabitConfig;
use crate::error::HabitError;
use crate::fitstate::{FitProvenance, FitState};
use crate::graphgen::{CellStats, EdgeStats};
use ais::TripTable;
use geo_kernel::GeoPoint;
use hexgrid::{HexCell, HexGrid};
use mobgraph::{Codec, CsrGraph, NearestIndex};

/// Magic bytes prefixing a serialized model ("HBM1").
const MODEL_MAGIC: u32 = 0x4D42_4831;
/// Blob format version of the lean, graph-only layout.
const MODEL_VERSION_V1: u8 = 1;
/// Blob format version of the container embedding a [`FitState`]
/// alongside the finalized graph (refittable models).
const MODEL_VERSION_V2: u8 = 2;

/// A fitted HABIT framework instance.
///
/// Holds the weighted transition graph (nodes = H3 cells with aggregate
/// statistics, edges = observed transitions), the working grid, and a
/// nearest-node index for snapping gap endpoints. Fitting is phase 1–2 of
/// the paper; [`HabitModel::impute`](crate::impute) is phases 3–4.
///
/// The graph is resident exactly once, as a frozen [`CsrGraph`]: snap,
/// projection, provenance, routing and the blob writer all read its
/// arrays. It is also the graph's only form: a fit's finalize and a
/// blob decode ([`CsrGraph::from_bytes`], the one HBG1 reader) both
/// build it directly, and [`HabitModel::from_graph`] takes it by value.
///
/// A model fitted in this process (or loaded from a v2 blob) also
/// carries the [`FitState`] it was finalized from, which is what makes
/// it *refittable*: new trips merge into the state and the graph is
/// re-finalized, byte-identical to a from-scratch fit over the union.
pub struct HabitModel {
    pub(crate) config: HabitConfig,
    /// The transition graph — the model's only copy of it.
    pub(crate) csr: CsrGraph<CellStats, EdgeStats>,
    /// Baked routing kernel, one record per CSR edge slot: the exact
    /// `f64` cost [`HabitModel::edge_cost`] returns plus the target's id
    /// and axial `(q, r)` heuristic key, computed once when the model is
    /// built so the serving inner loop reads one contiguous record
    /// instead of doing a divide + `ln` and a cell decode per edge visit.
    pub(crate) route_kernel: Vec<mobgraph::BakedEdge<(i32, i32)>>,
    pub(crate) grid: HexGrid,
    pub(crate) nn: NearestIndex,
    /// Maximum edge transition count (heuristic scaling).
    pub(crate) max_transitions: u32,
    /// Maximum per-edge grid distance (heuristic admissibility bound).
    pub(crate) max_grid_distance: u32,
    /// The partial-aggregate state the graph was finalized from
    /// (`None` for v1 blobs and graph-only constructions — such models
    /// serve but cannot be refitted).
    pub(crate) state: Option<FitState>,
}

impl HabitModel {
    /// Fits the model on a trip table.
    /// The accumulated [`FitState`] is retained, so the result is
    /// refittable.
    pub fn fit(table: &TripTable, config: HabitConfig) -> Result<Self, HabitError> {
        Self::from_fit_state(FitState::accumulate(table, config)?)
    }

    /// Finalizes `state` into a serving model, keeping the state
    /// embedded for later refits — the seam both the sequential fit and
    /// `habit-engine`'s sharded/incremental paths converge on.
    pub fn from_fit_state(state: FitState) -> Result<Self, HabitError> {
        let mut model = Self::from_graph(state.finalize()?, *state.config());
        model.state = Some(state);
        Ok(model)
    }

    /// Wraps a transition graph into a serving model: the nearest-node
    /// index, the heuristic bounds and the baked routing kernel. The
    /// graph is canonical by construction, so the result (and its
    /// bytes) depends only on its node/edge *set*.
    pub(crate) fn from_graph(csr: CsrGraph<CellStats, EdgeStats>, config: HabitConfig) -> Self {
        let grid = HexGrid::new();
        // Node representative positions for the nearest-node index: the
        // median position when observed, the cell center otherwise.
        let positions = csr
            .nodes()
            .map(|(id, stats)| {
                if stats.msg_count > 0 {
                    GeoPoint::new(stats.median_lon, stats.median_lat)
                } else {
                    grid.center(HexCell::from_raw(id).expect("node ids are valid cells"))
                }
            })
            .collect();
        let nn = NearestIndex::build(positions, cell_bucket_degrees(&grid, config.resolution));

        let mut max_transitions = 1u32;
        let mut max_grid_distance = 1u32;
        for e in csr.weights() {
            max_transitions = max_transitions.max(e.transitions);
            max_grid_distance = max_grid_distance.max(e.grid_distance);
        }

        let mut model = Self {
            config,
            csr,
            route_kernel: Vec::new(),
            grid,
            nn,
            max_transitions,
            max_grid_distance,
            state: None,
        };
        model.route_kernel = model.baked_route_kernel();
        model
    }

    /// The configuration the model was fitted with.
    pub fn config(&self) -> &HabitConfig {
        &self.config
    }

    /// Number of graph nodes (distinct cells with traffic).
    pub fn node_count(&self) -> usize {
        self.csr.node_count()
    }

    /// Number of graph edges (distinct observed transitions).
    pub fn edge_count(&self) -> usize {
        self.csr.edge_count()
    }

    /// Cell statistics for a cell id, if it is a graph node.
    pub fn cell_stats(&self, cell: HexCell) -> Option<&CellStats> {
        self.csr.node(cell.raw())
    }

    /// Read-only access to the transition graph: nodes ascending by
    /// cell id, each node's out-edges ascending by target id.
    pub fn csr(&self) -> &CsrGraph<CellStats, EdgeStats> {
        &self.csr
    }

    /// The embedded fit state, when the model is refittable.
    pub fn state(&self) -> Option<&FitState> {
        self.state.as_ref()
    }

    /// Merge-exact fit provenance (trips and reports accumulated), when
    /// the model carries its state.
    pub fn fit_provenance(&self) -> Option<&FitProvenance> {
        self.state.as_ref().map(FitState::provenance)
    }

    /// The blob version [`HabitModel::to_bytes_full`] writes for this
    /// model: `2` when a fit state is embedded, `1` otherwise.
    pub fn blob_version(&self) -> u8 {
        if self.state.is_some() {
            MODEL_VERSION_V2
        } else {
            MODEL_VERSION_V1
        }
    }

    /// Drops the embedded fit state, releasing its (substantial)
    /// accumulator memory. The model keeps serving; it just can no
    /// longer be refitted. Returns `self` for builder-style use.
    pub fn without_state(mut self) -> Self {
        self.state = None;
        self
    }

    /// Serializes the **lean** v1 layout — finalized graph only, no fit
    /// state. This is the framework storage size the paper's Table 2
    /// reports, and the byte-identity yardstick of the sharded fit: the
    /// accumulator state is an implementation vehicle, not part of the
    /// model the paper defines.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        MODEL_MAGIC.encode(&mut out);
        MODEL_VERSION_V1.encode(&mut out);
        self.encode_config(&mut out);
        out.extend_from_slice(&self.csr.to_bytes());
        out
    }

    /// Serializes the model **with** its fit state when one is embedded
    /// — the v2 container: header, length-prefixed graph, then the
    /// versioned [`FitState`] blob. A stateless model falls back to the
    /// v1 layout, so `to_bytes_full` is always loadable by
    /// [`HabitModel::from_bytes`].
    pub fn to_bytes_full(&self) -> Vec<u8> {
        let Some(state) = &self.state else {
            return self.to_bytes();
        };
        let mut out = Vec::new();
        MODEL_MAGIC.encode(&mut out);
        MODEL_VERSION_V2.encode(&mut out);
        self.encode_config(&mut out);
        let graph_bytes = self.csr.to_bytes();
        (graph_bytes.len() as u64).encode(&mut out);
        out.extend_from_slice(&graph_bytes);
        let state_bytes = state.to_bytes();
        (state_bytes.len() as u64).encode(&mut out);
        out.extend_from_slice(&state_bytes);
        out
    }

    fn encode_config(&self, out: &mut Vec<u8>) {
        self.config.resolution.encode(out);
        self.config.projection_code().encode(out);
        self.config.weight_code().encode(out);
        self.config.rdp_tolerance_m.encode(out);
    }

    /// Deserializes a model blob — either layout. v1 blobs (and v2
    /// blobs from this build) load fully; the graph serves identically
    /// in both cases, and only v2 blobs restore a refittable state.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, HabitError> {
        let mut buf = bytes;
        let buf = &mut buf;
        if u32::decode(buf) != Some(MODEL_MAGIC) {
            return Err(HabitError::BadModelBlob);
        }
        let version = u8::decode(buf).ok_or(HabitError::BadModelBlob)?;
        let resolution = u8::decode(buf).ok_or(HabitError::BadModelBlob)?;
        let projection = u8::decode(buf).ok_or(HabitError::BadModelBlob)?;
        let weight = u8::decode(buf).ok_or(HabitError::BadModelBlob)?;
        let rdp = f64::decode(buf).ok_or(HabitError::BadModelBlob)?;
        let config = HabitConfig::decode(resolution, projection, weight, rdp);
        match version {
            MODEL_VERSION_V1 => {
                // The rest of a v1 blob is exactly one graph.
                let graph = CsrGraph::from_bytes(buf).ok_or(HabitError::BadModelBlob)?;
                Ok(Self::from_graph(graph, config))
            }
            MODEL_VERSION_V2 => {
                let graph_bytes = take_prefixed(buf).ok_or(HabitError::BadModelBlob)?;
                let graph = CsrGraph::from_bytes(graph_bytes).ok_or(HabitError::BadModelBlob)?;
                let mut state_bytes = take_prefixed(buf).ok_or(HabitError::BadModelBlob)?;
                let state = FitState::decode_from(&mut state_bytes)?;
                if !state_bytes.is_empty() || !buf.is_empty() {
                    // The v2 container is exactly header + graph +
                    // state; trailing bytes anywhere are corruption
                    // (and would break re-encode stability).
                    return Err(HabitError::BadModelBlob);
                }
                // The header duplicates four config fields for cheap
                // inspection; they must agree with the embedded state's
                // full config, which is the authoritative one (it also
                // carries min_cell_span / snap_max_rings).
                let state_config = *state.config();
                if state_config.resolution != config.resolution
                    || state_config.projection != config.projection
                    || state_config.weight_scheme != config.weight_scheme
                    || state_config.rdp_tolerance_m != config.rdp_tolerance_m
                {
                    return Err(HabitError::BadModelBlob);
                }
                let mut model = Self::from_graph(graph, state_config);
                model.state = Some(state);
                Ok(model)
            }
            _ => Err(HabitError::BadModelBlob),
        }
    }

    /// Serialized size in bytes (storage metric; the lean v1 layout).
    pub fn storage_bytes(&self) -> usize {
        self.to_bytes().len()
    }
}

/// Reads a `u64` length prefix and returns that many bytes, advancing
/// `buf`. `None` on truncation.
fn take_prefixed<'a>(buf: &mut &'a [u8]) -> Option<&'a [u8]> {
    let len = u64::decode(buf)? as usize;
    if len > buf.len() {
        return None;
    }
    let (head, rest) = buf.split_at(len);
    *buf = rest;
    Some(head)
}

/// Bucket size (degrees) for the nearest-node index: roughly one cell
/// diameter at the given resolution.
fn cell_bucket_degrees(grid: &HexGrid, resolution: u8) -> f64 {
    let edge_m = grid.edge_length_m(resolution).unwrap_or(200.0);
    (edge_m * 2.0 / 111_195.0).max(1e-5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ais::{trips_to_table, AisPoint, Trip};

    fn model() -> HabitModel {
        let trips: Vec<Trip> = (0..4)
            .map(|k| Trip {
                trip_id: k + 1,
                mmsi: 100 + k,
                points: (0..150)
                    .map(|i| {
                        AisPoint::new(
                            100 + k,
                            i as i64 * 60,
                            10.0 + i as f64 * 0.004,
                            56.0,
                            12.0,
                            90.0,
                        )
                    })
                    .collect(),
            })
            .collect();
        HabitModel::fit(&trips_to_table(&trips), HabitConfig::default()).unwrap()
    }

    #[test]
    fn fit_produces_nonempty_model() {
        let m = model();
        assert!(m.node_count() > 5);
        assert!(m.edge_count() > 4);
        assert!(
            m.max_transitions >= 3,
            "max_transitions {}",
            m.max_transitions
        );
    }

    #[test]
    fn serialization_round_trip() {
        let m = model();
        let bytes = m.to_bytes();
        assert_eq!(bytes.len(), m.storage_bytes());
        let back = HabitModel::from_bytes(&bytes).unwrap();
        assert_eq!(back.node_count(), m.node_count());
        assert_eq!(back.edge_count(), m.edge_count());
        assert_eq!(back.config().resolution, m.config().resolution);
        assert_eq!(back.max_transitions, m.max_transitions);
    }

    #[test]
    fn v2_container_round_trips_state() {
        let m = model();
        assert_eq!(m.blob_version(), 2, "a fresh fit is refittable");
        let prov = *m.fit_provenance().expect("state embedded");
        assert_eq!(prov.trips, 4);
        assert_eq!(prov.reports, 4 * 150);

        let full = m.to_bytes_full();
        let lean = m.to_bytes();
        assert!(full.len() > lean.len(), "v2 embeds the state");
        assert_eq!(lean[4], 1, "lean layout stays v1");
        assert_eq!(full[4], 2, "full layout is the v2 container");

        let back = HabitModel::from_bytes(&full).expect("v2 loads");
        assert_eq!(back.blob_version(), 2);
        assert_eq!(back.fit_provenance(), Some(&prov));
        assert_eq!(back.to_bytes(), lean, "same finalized graph");
        assert_eq!(back.to_bytes_full(), full, "re-encode is stable");

        // The lean bytes load as a read-only (v1, stateless) model.
        let v1 = HabitModel::from_bytes(&lean).expect("v1 loads");
        assert_eq!(v1.blob_version(), 1);
        assert!(v1.state().is_none());
        assert_eq!(v1.to_bytes_full(), lean, "stateless full == lean");

        // Dropping the state demotes the blob to v1 without touching
        // the graph.
        let stripped = model().without_state();
        assert_eq!(stripped.blob_version(), 1);
        assert_eq!(stripped.to_bytes(), lean);
    }

    /// The model's bytes are a function of the graph's node/edge *set*:
    /// the fitted graph's records handed to `from_parts` in a scrambled
    /// order build a model writing the canonical fit's bytes.
    #[test]
    fn shuffled_insertion_freezes_to_the_canonical_bytes() {
        let m = model();
        let lean = m.to_bytes();
        let csr = m.csr();
        let mut nodes: Vec<(u64, CellStats)> = csr.nodes().map(|(id, s)| (id, *s)).collect();
        let canonical: Vec<(u64, u64, EdgeStats)> = (0..csr.node_count() as u32)
            .flat_map(|from| {
                csr.edges_from_index(from)
                    .map(move |(to, e)| (csr.node_id(from), csr.node_id(to), *e))
            })
            .collect();
        // Fixed scrambles (no RNG): reverse, then interleave the halves.
        nodes.reverse();
        let mut edges = canonical.clone();
        edges.reverse();
        let half = edges.len() / 2;
        let scrambled: Vec<_> = (0..half)
            .flat_map(|i| [edges[i], edges[half + i]])
            .chain(edges[2 * half..].iter().copied())
            .collect();
        assert_ne!(scrambled, canonical, "really shuffled");
        let graph = CsrGraph::from_parts(nodes, scrambled).expect("the fit's own records");
        assert_eq!(HabitModel::from_graph(graph, *m.config()).to_bytes(), lean);
    }

    /// Each blob layout holds exactly one graph: bytes appended to a v1
    /// blob, or padding inside a v2 blob's length-prefixed graph
    /// section, are corruption — accepting them would load a model
    /// that re-encodes to bytes other than its input.
    #[test]
    fn bytes_after_the_graph_rejected() {
        let m = model();
        let mut v1 = m.to_bytes();
        v1.extend_from_slice(&[0xAB, 0xCD, 0xEF]);
        assert!(matches!(
            HabitModel::from_bytes(&v1),
            Err(HabitError::BadModelBlob)
        ));

        // v2: header (4 + 1 + 3 + 8 = 16 B), u64 graph length, graph,
        // u64 state length, state. Pad the graph section by two bytes.
        let full = m.to_bytes_full();
        let header = 16;
        let graph_len = u64::decode(&mut &full[header..header + 8]).unwrap() as usize;
        let graph_end = header + 8 + graph_len;
        let mut padded = full[..header].to_vec();
        ((graph_len + 2) as u64).encode(&mut padded);
        padded.extend_from_slice(&full[header + 8..graph_end]);
        padded.extend_from_slice(&[0, 0]);
        padded.extend_from_slice(&full[graph_end..]);
        assert!(matches!(
            HabitModel::from_bytes(&padded),
            Err(HabitError::BadModelBlob)
        ));
    }

    #[test]
    fn v2_truncation_and_tampering_rejected() {
        let full = model().to_bytes_full();
        for cut in [5usize, 20, full.len() / 2, full.len() - 1] {
            assert!(
                HabitModel::from_bytes(&full[..cut]).is_err(),
                "prefix of {cut} bytes must be rejected"
            );
        }
        let mut bad_version = full.clone();
        bad_version[4] = 9;
        assert!(matches!(
            HabitModel::from_bytes(&bad_version),
            Err(HabitError::BadModelBlob)
        ));

        // Trailing garbage after the state section is corruption, not
        // padding — accepting it would break re-encode stability.
        let mut trailing = full.clone();
        trailing.push(0);
        assert!(matches!(
            HabitModel::from_bytes(&trailing),
            Err(HabitError::BadModelBlob)
        ));

        // The header's config fields must agree with the embedded
        // state's (authoritative) config.
        let mut drifted = full;
        drifted[5] ^= 1; // header resolution byte
        assert!(matches!(
            HabitModel::from_bytes(&drifted),
            Err(HabitError::BadModelBlob)
        ));
    }

    #[test]
    fn corrupted_blob_rejected() {
        let m = model();
        let mut bytes = m.to_bytes();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            HabitModel::from_bytes(&bytes),
            Err(HabitError::BadModelBlob)
        ));
        assert!(HabitModel::from_bytes(&[1, 2, 3]).is_err());
    }

    #[test]
    fn storage_grows_with_resolution() {
        // Dense reporting so finer grids genuinely hold more cells.
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
        let m8 = HabitModel::fit(&table, HabitConfig::with_r_t(8, 100.0)).unwrap();
        let m10 = HabitModel::fit(&table, HabitConfig::with_r_t(10, 100.0)).unwrap();
        assert!(
            m10.storage_bytes() > m8.storage_bytes() * 2,
            "r8 {} vs r10 {}",
            m8.storage_bytes(),
            m10.storage_bytes()
        );
    }
}
