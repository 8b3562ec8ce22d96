//! The persistable fit state — the paper's two `GROUP BY`s as typed,
//! mergeable, serializable partial aggregates.
//!
//! A HABIT fit groups the lagged trip table ([`crate::graphgen`]) twice
//! (paper §3.2): by `cl` for `count(*)`, `approx_count_distinct(vessel_id)`
//! and the medians of lon / lat / sog / cog, and by `(lag_cl, cl)` for
//! `approx_count_distinct(trip_id)`. A [`FitState`] holds their
//! *un-finished* accumulators — groups sorted strictly ascending by key,
//! one HyperLogLog per group, `total_cmp`-sorted median buffers — plus
//! the fit configuration and provenance. It can be
//!
//! * **accumulated** straight from the typed trip-table columns
//!   ([`FitState::accumulate`]),
//! * **merged** with the state of another table — a shard, or a later
//!   day's delta ([`FitState::merge`]) — as a linear merge of two sorted
//!   group runs, and
//! * **finalized** into the [`TransitionGraph`] at any point
//!   ([`FitState::finalize`]) without cloning an accumulator or losing
//!   the ability to keep merging — the key-sorted transition groups are
//!   already CSR source order, so finalize hands node and edge lists
//!   straight to the frozen `mobgraph::CsrGraph`, the graph's one
//!   layout,
//!
//! and it serializes to the **versioned `HFS1` blob** embedded in v2
//! model containers ([`crate::HabitModel::to_bytes_full`]). This is the
//! seam incremental refit rides on: `fit(history ∪ delta)` ≡
//! `finalize(merge(state(history), state(delta)))`, **byte-identically**,
//! provided the two inputs hold *whole, disjoint trips* (trip and
//! vessel ids must not straddle the boundary — the window lag and the
//! drift filter need whole-trip context, and distinct counts would
//! alias). Because groups and median buffers are kept sorted, the state
//! is a pure function of the input *set* of rows — independent of row
//! order, sharding, and merge order.
//!
//! Provenance is deliberately restricted to merge-exact fields
//! (`trips`, `reports`, `max_trip_id`): anything order- or
//! wall-clock-dependent (a refit timestamp, a "last delta" size) would
//! break the byte-identity contract between an incrementally refitted
//! state and a from-scratch fit.

use crate::config::HabitConfig;
use crate::error::HabitError;
use crate::graphgen::{assemble_graph, lagged_trip_table, CellStats, TransitionGraph};
use crate::window::LaggedTrips;
use aggdb::fxhash::FxHashSet;
use aggdb::quantile::median_sorted;
use aggdb::HyperLogLog;
use ais::TripTable;
use mobgraph::Codec;
use std::cmp::Ordering;

/// Magic bytes prefixing a serialized fit state ("HFS1").
const FITSTATE_MAGIC: u32 = 0x3153_4648;
/// Highest fit-state blob version this build reads and writes.
pub const FITSTATE_VERSION: u8 = 1;

/// Merge-exact fit provenance: how much data the state has absorbed.
///
/// Every field merges under [`FitState::merge`] exactly as a
/// from-scratch fit over the union would compute it (counts add, the
/// id high-water mark takes the max) — which is why nothing order- or
/// wall-clock-dependent (timestamps, per-refit deltas) lives here.
/// `max_trip_id` is the seam the service uses to continue trip-id
/// assignment across refits without aliasing history ids, even when a
/// model was fitted from a table with sparse ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FitProvenance {
    /// Distinct trips accumulated (pre-drift-filter).
    pub trips: u64,
    /// AIS reports accumulated (input rows, pre-drift-filter).
    pub reports: u64,
    /// Highest trip id accumulated (0 when no rows): delta trip ids
    /// must start above it.
    pub max_trip_id: u64,
}

impl FitProvenance {
    /// Counts a trip table: distinct `trip_id`s, rows, and the highest
    /// trip id.
    pub fn of_table(table: &TripTable) -> Self {
        let mut distinct: FxHashSet<u64> = FxHashSet::default();
        let mut max_trip_id = 0u64;
        for &id in table.trip_id() {
            distinct.insert(id);
            max_trip_id = max_trip_id.max(id);
        }
        Self {
            trips: distinct.len() as u64,
            reports: table.len() as u64,
            max_trip_id,
        }
    }

    /// Absorbs another table's counters (counts add, the high-water
    /// mark takes the max — both exact under the disjoint-trips
    /// contract).
    pub fn merge(&mut self, other: &Self) {
        self.trips += other.trips;
        self.reports += other.reports;
        self.max_trip_id = self.max_trip_id.max(other.max_trip_id);
    }
}

/// Groups sorted strictly ascending by key, one accumulator each — the
/// invariant merge, finalize and the codec all rely on.
type Groups<K, A> = Vec<(K, A)>;

/// The median columns, in [`CellAcc::medians`] order.
fn median_columns(table: &TripTable) -> [&[f64]; 4] {
    [table.lon(), table.lat(), table.sog(), table.cog()]
}

/// The accumulators of one `GROUP BY cl` group.
#[derive(Clone)]
struct CellAcc {
    /// `count(*)`.
    count: u64,
    /// `approx_count_distinct(vessel_id)`.
    vessels: HyperLogLog,
    /// Every value of each [`median_columns`] column, `total_cmp`-sorted.
    medians: [Vec<f64>; 4],
}

impl CellAcc {
    fn merge(&mut self, other: CellAcc) {
        self.count += other.count;
        self.vessels.merge(&other.vessels);
        for (mine, theirs) in self.medians.iter_mut().zip(other.medians) {
            // Two sorted runs: the stable sort merges them in linear time.
            mine.extend(theirs);
            mine.sort_by(f64::total_cmp);
        }
    }

    fn stats(&self) -> CellStats {
        let [lon, lat, sog, cog] = self
            .medians
            .each_ref()
            .map(|values| median_sorted(values).unwrap_or(0.0));
        CellStats {
            median_lon: lon,
            median_lat: lat,
            msg_count: self.count,
            vessels: self.vessels.count(),
            median_sog: sog,
            median_cog: cog,
        }
    }
}

/// The partial-aggregate state of a HABIT fit: configuration, the two
/// un-finished group-bys of graph generation, and provenance.
#[derive(Clone)]
pub struct FitState {
    config: HabitConfig,
    /// `GROUP BY cl`.
    cells: Groups<u64, CellAcc>,
    /// `GROUP BY lag_cl, cl` over the transition rows, with the trip
    /// sketch of `approx_count_distinct(trip_id)`.
    transitions: Groups<(u64, u64), HyperLogLog>,
    provenance: FitProvenance,
}

impl FitState {
    /// Runs the accumulation half of a fit over `table`: cell
    /// assignment, drift filter, window lag, and
    /// both group-bys — everything **except** finishing the
    /// accumulators into a graph. A table whose trips are all filtered
    /// (sea drift) yields a state with zero groups; it is
    /// [`FitState::finalize`] that rejects an empty model.
    pub fn accumulate(table: &TripTable, config: HabitConfig) -> Result<Self, HabitError> {
        let lagged = lagged_trip_table(table, &config)?;
        Ok(Self::accumulate_lagged(
            &lagged,
            config,
            FitProvenance::of_table(table),
        ))
    }

    /// The group-by half of [`FitState::accumulate`], over a table
    /// [`lagged_trip_table`] produced — or any part of one
    /// ([`LaggedTrips::partition`]): the
    /// states of disjoint subsets merge into the state of their union,
    /// which is how `habit-engine` runs it per spatial shard.
    /// `provenance` is stored as given, because a shard cannot count the
    /// whole table's trips.
    pub fn accumulate_lagged(
        lagged: &LaggedTrips<'_>,
        config: HabitConfig,
        provenance: FitProvenance,
    ) -> Self {
        Self {
            config,
            cells: accumulate_cells(lagged),
            transitions: accumulate_transitions(lagged),
            provenance,
        }
    }

    /// The configuration the state accumulates under.
    pub fn config(&self) -> &HabitConfig {
        &self.config
    }

    /// Merge-exact counters of everything absorbed so far.
    pub fn provenance(&self) -> &FitProvenance {
        &self.provenance
    }

    /// Distinct cells with accumulated statistics.
    pub fn cell_groups(&self) -> usize {
        self.cells.len()
    }

    /// Distinct cell transitions accumulated.
    pub fn transition_groups(&self) -> usize {
        self.transitions.len()
    }

    /// Absorbs another state accumulated under the **same**
    /// configuration — a delta day of trips, or another shard. Fails
    /// with [`HabitError::ConfigDrift`] when the configurations differ
    /// (the accumulators would not be comparable). The merged state's
    /// bytes equal a from-scratch accumulation over the union
    /// (disjoint-trips contract).
    pub fn merge(&mut self, other: FitState) -> Result<(), HabitError> {
        if self.config != other.config {
            return Err(HabitError::ConfigDrift);
        }
        let cells = std::mem::take(&mut self.cells);
        self.cells = merge_groups(cells, other.cells, CellAcc::merge);
        let transitions = std::mem::take(&mut self.transitions);
        self.transitions = merge_groups(transitions, other.transitions, |trips, more| {
            trips.merge(&more)
        });
        self.provenance.merge(&other.provenance);
        Ok(())
    }

    /// Finishes the accumulators into the canonical [`TransitionGraph`]
    /// — the frozen CSR a [`crate::HabitModel`] serves from —
    /// **without consuming the state**: it remains mergeable, which is
    /// exactly what lets a daemon refit and re-finalize day after day.
    pub fn finalize(&self) -> Result<TransitionGraph, HabitError> {
        let cells = &self.cells;
        assemble_graph(
            self.transitions
                .iter()
                .map(|&((from, to), ref trips)| (from, to, trips.count())),
            |cell| {
                let i = cells.binary_search_by_key(&cell, |(cl, _)| *cl).ok()?;
                Some(cells[i].1.stats())
            },
        )
    }

    /// Serializes the state as a standalone versioned blob.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the serialized state (self-delimiting) to `out`.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        FITSTATE_MAGIC.encode(out);
        FITSTATE_VERSION.encode(out);
        self.config.encode_full(out);
        self.provenance.trips.encode(out);
        self.provenance.reports.encode(out);
        self.provenance.max_trip_id.encode(out);
        encode_groups(
            out,
            &CELL_SPECS,
            &CELL_KEYS,
            &self.cells,
            |out, &cl, acc| {
                put_key(out, cl);
                out.push(COUNT_TAG);
                acc.count.encode(out);
                out.push(HLL_TAG);
                acc.vessels.encode_into(out);
                for values in &acc.medians {
                    out.push(MEDIAN_TAG);
                    (values.len() as u64).encode(out);
                    values.iter().for_each(|v| v.encode(out));
                }
            },
        );
        encode_groups(
            out,
            &TRANSITION_SPECS,
            &TRANSITION_KEYS,
            &self.transitions,
            |out, &(from, to), trips| {
                put_key(out, from);
                put_key(out, to);
                out.push(HLL_TAG);
                trips.encode_into(out);
            },
        );
    }

    /// Decodes a state from the front of `buf`, advancing it.
    ///
    /// Distinguishes *unsupported version* ([`HabitError::StateVersion`],
    /// so callers can say "re-fit with this build") from *corruption*
    /// ([`HabitError::BadModelBlob`]). Every invariant merge and finalize
    /// rely on is checked here — keys strictly ascending, median buffers
    /// sorted, sketches at the accumulation precision — so a state this
    /// accepts re-encodes to the bytes it was read from.
    pub(crate) fn decode_from(buf: &mut &[u8]) -> Result<Self, HabitError> {
        if u32::decode(buf) != Some(FITSTATE_MAGIC) {
            return Err(HabitError::BadModelBlob);
        }
        let version = u8::decode(buf).ok_or(HabitError::BadModelBlob)?;
        if version != FITSTATE_VERSION {
            return Err(HabitError::StateVersion {
                found: version,
                supported: FITSTATE_VERSION,
            });
        }
        Self::decode_body(buf).ok_or(HabitError::BadModelBlob)
    }

    fn decode_body(buf: &mut &[u8]) -> Option<Self> {
        let config = HabitConfig::decode_full(buf)?;
        let provenance = FitProvenance {
            trips: u64::decode(buf)?,
            reports: u64::decode(buf)?,
            max_trip_id: u64::decode(buf)?,
        };
        let cells = decode_groups(buf, &CELL_SPECS, &CELL_KEYS, MIN_CELL_GROUP_BYTES, |buf| {
            let cl = get_key(buf)?;
            expect_tag(buf, COUNT_TAG)?;
            let count = u64::decode(buf)?;
            expect_tag(buf, HLL_TAG)?;
            let vessels = HyperLogLog::decode_from(buf)?;
            let mut medians: [Vec<f64>; 4] = Default::default();
            for values in &mut medians {
                *values = get_median_values(buf)?;
            }
            Some((
                cl,
                CellAcc {
                    count,
                    vessels,
                    medians,
                },
            ))
        })?;
        let transitions = decode_groups(
            buf,
            &TRANSITION_SPECS,
            &TRANSITION_KEYS,
            MIN_TRANSITION_GROUP_BYTES,
            |buf| {
                let key = (get_key(buf)?, get_key(buf)?);
                expect_tag(buf, HLL_TAG)?;
                Some((key, HyperLogLog::decode_from(buf)?))
            },
        )?;
        Some(Self {
            config,
            cells,
            transitions,
            provenance,
        })
    }

    /// Deserializes a blob written by [`FitState::to_bytes`]. Trailing
    /// bytes are rejected (a standalone blob is exactly one state).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, HabitError> {
        let mut buf = bytes;
        let state = Self::decode_from(&mut buf)?;
        if !buf.is_empty() {
            return Err(HabitError::BadModelBlob);
        }
        Ok(state)
    }

    /// Serialized size in bytes.
    pub fn storage_bytes(&self) -> usize {
        self.to_bytes().len()
    }
}

/// `GROUP BY cl` over the lagged rows.
fn accumulate_cells(lagged: &LaggedTrips<'_>) -> Groups<u64, CellAcc> {
    let vessels = lagged.table().vessel_id();
    let columns = median_columns(lagged.table());
    let mut rows: Vec<(u64, usize)> = lagged.rows().iter().map(|r| (r.cl, r.row)).collect();
    rows.sort_unstable();
    let groups = rows.chunk_by(|a, b| a.0 == b.0).map(|run| {
        let mut acc = CellAcc {
            count: run.len() as u64,
            vessels: HyperLogLog::default_precision(),
            medians: std::array::from_fn(|_| Vec::with_capacity(run.len())),
        };
        for &(_, row) in run {
            acc.vessels.insert_u64(vessels[row]);
            for (values, column) in acc.medians.iter_mut().zip(&columns) {
                values.push(column[row]);
            }
        }
        for values in &mut acc.medians {
            values.sort_by(f64::total_cmp);
        }
        (run[0].0, acc)
    });
    groups.collect()
}

/// `GROUP BY lag_cl, cl` over the transition rows: `lag_cl` non-null and
/// different from `cl`.
fn accumulate_transitions(lagged: &LaggedTrips<'_>) -> Groups<(u64, u64), HyperLogLog> {
    let trips = lagged.table().trip_id();
    let mut rows: Vec<((u64, u64), u64)> = lagged
        .rows()
        .iter()
        .filter_map(|r| {
            let lag_cl = r.lag_cl.filter(|&lag_cl| lag_cl != r.cl)?;
            Some(((lag_cl, r.cl), trips[r.row]))
        })
        .collect();
    rows.sort_unstable();
    let groups = rows.chunk_by(|a, b| a.0 == b.0).map(|run| {
        let mut sketch = HyperLogLog::default_precision();
        run.iter().for_each(|&(_, trip)| sketch.insert_u64(trip));
        (run[0].0, sketch)
    });
    groups.collect()
}

/// Merges two key-sorted group runs into one; groups present in both
/// combine their accumulators.
fn merge_groups<K: Ord, A>(
    a: Groups<K, A>,
    b: Groups<K, A>,
    combine: impl Fn(&mut A, A),
) -> Groups<K, A> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut a, mut b) = (a.into_iter().peekable(), b.into_iter().peekable());
    while let (Some((ka, _)), Some((kb, _))) = (a.peek(), b.peek()) {
        match ka.cmp(kb) {
            Ordering::Less => out.extend(a.next()),
            Ordering::Greater => out.extend(b.next()),
            Ordering::Equal => {
                let (key, mut acc) = a.next().expect("peeked");
                let (_, other) = b.next().expect("peeked");
                combine(&mut acc, other);
                out.push((key, acc));
            }
        }
    }
    out.extend(a);
    out.extend(b);
    out
}

// ------------------------------------------------------------------ codec
//
// Each group-by is one self-delimiting `HFS1` section: a fixed header
// naming the aggregates and key columns, the group count, then per group
// its tagged key values and accumulators, all fixed-width little-endian.
// The header strings, function codes (0 `count(*)`, 2
// `approx_count_distinct`, 4 `median`), the key dtype code and the value
// tags are those of the generic group-by engine that first wrote these
// sections; they are kept byte for byte, so every blob written since
// still loads and every state still encodes to the same bytes.

/// `(input column, function code, output alias)` per aggregate.
type Specs = [(&'static str, u8, &'static str)];

const CELL_SPECS: [(&str, u8, &str); 6] = [
    ("", 0, "cnt"),
    ("vessel_id", 2, "vessels"),
    ("lon", 4, "median_lon"),
    ("lat", 4, "median_lat"),
    ("sog", 4, "median_sog"),
    ("cog", 4, "median_cog"),
];
const TRANSITION_SPECS: [(&str, u8, &str); 1] = [("trip_id", 2, "transitions")];
const CELL_KEYS: [&str; 1] = ["cl"];
const TRANSITION_KEYS: [&str; 2] = ["lag_cl", "cl"];
/// Dtype code of every key column (`UInt64`).
const KEY_DTYPE: u8 = 1;
const KEY_TAG: u8 = 2;
const COUNT_TAG: u8 = 0;
const HLL_TAG: u8 = 1;
const MEDIAN_TAG: u8 = 3;
/// Encoded size of the smallest possible group (empty sparse sketches,
/// empty median buffers): a buffer cannot claim more groups than its
/// length allows, so a corrupt count never over-allocates.
const MIN_CELL_GROUP_BYTES: usize = 9 + 9 + 7 + 4 * 9;
const MIN_TRANSITION_GROUP_BYTES: usize = 9 + 9 + 7;

fn section_header(specs: &Specs, keys: &[&str]) -> Vec<u8> {
    let mut out = Vec::new();
    (specs.len() as u32).encode(&mut out);
    for &(column, func, alias) in specs {
        put_str(&mut out, column);
        out.push(func);
        put_str(&mut out, alias);
    }
    (keys.len() as u32).encode(&mut out);
    for key in keys {
        put_str(&mut out, key);
        out.push(KEY_DTYPE);
    }
    out
}

fn encode_groups<K, A>(
    out: &mut Vec<u8>,
    specs: &Specs,
    keys: &[&str],
    groups: &Groups<K, A>,
    mut group: impl FnMut(&mut Vec<u8>, &K, &A),
) {
    out.extend_from_slice(&section_header(specs, keys));
    (groups.len() as u64).encode(out);
    for (key, acc) in groups {
        group(out, key, acc);
    }
}

fn decode_groups<K: Ord, A>(
    buf: &mut &[u8],
    specs: &Specs,
    keys: &[&str],
    min_group_bytes: usize,
    mut group: impl FnMut(&mut &[u8]) -> Option<(K, A)>,
) -> Option<Groups<K, A>> {
    *buf = buf.strip_prefix(section_header(specs, keys).as_slice())?;
    let n = usize::try_from(u64::decode(buf)?).ok()?;
    if n > buf.len() / min_group_bytes {
        return None;
    }
    let mut groups: Groups<K, A> = Vec::with_capacity(n);
    for _ in 0..n {
        let (key, acc) = group(buf)?;
        if groups.last().is_some_and(|(prev, _)| *prev >= key) {
            return None;
        }
        groups.push((key, acc));
    }
    Some(groups)
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    (s.len() as u32).encode(out);
    out.extend_from_slice(s.as_bytes());
}

fn put_key(out: &mut Vec<u8>, key: u64) {
    out.push(KEY_TAG);
    key.encode(out);
}

fn expect_tag(buf: &mut &[u8], tag: u8) -> Option<()> {
    (u8::decode(buf)? == tag).then_some(())
}

fn get_key(buf: &mut &[u8]) -> Option<u64> {
    expect_tag(buf, KEY_TAG)?;
    u64::decode(buf)
}

fn get_median_values(buf: &mut &[u8]) -> Option<Vec<f64>> {
    expect_tag(buf, MEDIAN_TAG)?;
    let n = usize::try_from(u64::decode(buf)?).ok()?;
    if n > buf.len() / 8 {
        return None;
    }
    let values: Vec<f64> = (0..n).map(|_| f64::decode(buf)).collect::<Option<_>>()?;
    let sorted = values.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le());
    sorted.then_some(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::LaggedRow;
    use ais::{trips_to_table, AisPoint, Trip};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn lane_trip(trip_id: u64, mmsi: u64, lat: f64, n: usize) -> Trip {
        Trip {
            trip_id,
            mmsi,
            points: (0..n)
                .map(|i| {
                    AisPoint::new(
                        mmsi,
                        i as i64 * 60,
                        10.0 + i as f64 * 0.004,
                        lat,
                        12.0,
                        90.0,
                    )
                })
                .collect(),
        }
    }

    fn drift_trip(trip_id: u64, mmsi: u64) -> Trip {
        Trip {
            trip_id,
            mmsi,
            points: (0..40)
                .map(|i| AisPoint::new(mmsi, i * 60, 11.0 + (i % 2) as f64 * 1e-4, 56.5, 0.4, 0.0))
                .collect(),
        }
    }

    #[test]
    fn accumulate_merge_equals_union_accumulate() {
        let history: Vec<Trip> = (0..3)
            .map(|k| lane_trip(k + 1, 100 + k, 56.0, 120))
            .collect();
        let delta: Vec<Trip> = (0..2)
            .map(|k| lane_trip(k + 4, 200 + k, 56.02, 110))
            .collect();
        let union: Vec<Trip> = history.iter().chain(&delta).cloned().collect();
        let config = HabitConfig::default();

        let mut incremental =
            FitState::accumulate(&trips_to_table(&history), config).expect("history");
        let delta_state = FitState::accumulate(&trips_to_table(&delta), config).expect("delta");
        incremental.merge(delta_state).expect("merge");

        let full = FitState::accumulate(&trips_to_table(&union), config).expect("union");
        assert_eq!(incremental.to_bytes(), full.to_bytes(), "state bytes");
        assert_eq!(incremental.provenance().trips, 5);
        assert_eq!(incremental.provenance().reports, 3 * 120 + 2 * 110);
        assert_eq!(incremental.provenance().max_trip_id, 5);

        // Finalized graphs are identical too.
        let a = incremental.finalize().expect("graph");
        let b = full.finalize().expect("graph");
        assert_eq!(a.to_bytes(), b.to_bytes());
    }

    /// Sparse trip ids (a model fitted through the library API from an
    /// arbitrary table): the high-water mark — not the distinct count —
    /// is what keeps delta ids from aliasing history ids.
    #[test]
    fn provenance_high_water_mark_survives_sparse_ids() {
        let sparse =
            trips_to_table(&[lane_trip(1, 100, 56.0, 100), lane_trip(50, 101, 56.01, 100)]);
        let state = FitState::accumulate(&sparse, HabitConfig::default()).unwrap();
        assert_eq!(state.provenance().trips, 2);
        assert_eq!(state.provenance().max_trip_id, 50);
        let back = FitState::from_bytes(&state.to_bytes()).unwrap();
        assert_eq!(back.provenance().max_trip_id, 50);
    }

    #[test]
    fn merge_rejects_config_drift() {
        let t = trips_to_table(&[lane_trip(1, 100, 56.0, 100)]);
        let mut a = FitState::accumulate(&t, HabitConfig::with_r_t(9, 100.0)).unwrap();
        let b = FitState::accumulate(&t, HabitConfig::with_r_t(8, 100.0)).unwrap();
        assert!(matches!(a.merge(b), Err(HabitError::ConfigDrift)));
    }

    #[test]
    fn all_drift_accumulates_empty_but_counts_provenance() {
        let t = trips_to_table(&[drift_trip(1, 7)]);
        let state = FitState::accumulate(&t, HabitConfig::default()).expect("accumulate");
        assert_eq!(state.cell_groups(), 0);
        assert_eq!(state.provenance().trips, 1);
        assert!(matches!(state.finalize(), Err(HabitError::EmptyModel)));

        // Merging a drift-only delta is provenance-only — the real data
        // is untouched, matching a union fit (the filter is per-trip).
        let history = trips_to_table(
            &(0..3)
                .map(|k| lane_trip(k + 1, 100 + k, 56.0, 120))
                .collect::<Vec<_>>(),
        );
        let mut with_data = FitState::accumulate(&history, HabitConfig::default()).unwrap();
        let graph_before = with_data.finalize().unwrap().to_bytes();
        let drift_state =
            FitState::accumulate(&trips_to_table(&[drift_trip(9, 9)]), HabitConfig::default())
                .unwrap();
        with_data.merge(drift_state).unwrap();
        assert_eq!(with_data.provenance().trips, 4);
        assert_eq!(with_data.finalize().unwrap().to_bytes(), graph_before);
    }

    #[test]
    fn blob_round_trip_and_corruption() {
        let t = trips_to_table(
            &(0..3)
                .map(|k| lane_trip(k + 1, 100 + k, 56.0, 120))
                .collect::<Vec<_>>(),
        );
        let state = FitState::accumulate(&t, HabitConfig::with_r_t(8, 250.0)).unwrap();
        let bytes = state.to_bytes();
        let back = FitState::from_bytes(&bytes).expect("round trip");
        assert_eq!(back.to_bytes(), bytes, "re-encode is stable");
        assert_eq!(back.config(), state.config());
        assert_eq!(back.provenance(), state.provenance());
        assert_eq!(
            back.finalize().unwrap().to_bytes(),
            state.finalize().unwrap().to_bytes()
        );

        // A restored state keeps absorbing deltas.
        let mut restored = back;
        let delta = FitState::accumulate(
            &trips_to_table(&[lane_trip(9, 300, 56.01, 100)]),
            *state.config(),
        )
        .unwrap();
        restored.merge(delta).unwrap();
        assert_eq!(restored.provenance().trips, 4);

        // Corruption surfaces as BadModelBlob; future versions as
        // StateVersion.
        let mut corrupt = bytes.clone();
        corrupt[0] ^= 0xFF;
        assert!(matches!(
            FitState::from_bytes(&corrupt),
            Err(HabitError::BadModelBlob)
        ));
        let mut future = bytes.clone();
        future[4] = FITSTATE_VERSION + 1;
        assert!(matches!(
            FitState::from_bytes(&future),
            Err(HabitError::StateVersion { found, supported })
                if found == FITSTATE_VERSION + 1 && supported == FITSTATE_VERSION
        ));
        assert!(FitState::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut trailing = bytes;
        trailing.push(0);
        assert!(FitState::from_bytes(&trailing).is_err());
    }

    fn lane_state() -> FitState {
        let lanes: Vec<Trip> = (0..3)
            .map(|k| lane_trip(k + 1, 100 + k, 56.0, 120))
            .collect();
        FitState::accumulate(&trips_to_table(&lanes), HabitConfig::default()).unwrap()
    }

    /// The state encodes (the encoder checks nothing) but must not load.
    fn refused(state: &FitState) -> bool {
        matches!(
            FitState::from_bytes(&state.to_bytes()),
            Err(HabitError::BadModelBlob)
        )
    }

    #[test]
    fn decoder_rejects_sketch_precision_other_than_default() {
        let mut state = lane_state();
        assert!(FitState::from_bytes(&state.to_bytes()).is_ok());
        let mut wide = HyperLogLog::new(18);
        wide.insert_u64(7);
        state.transitions[0].1 = wide;
        assert!(refused(&state));
    }

    #[test]
    fn decoder_rejects_keys_not_strictly_ascending() {
        let mut swapped = lane_state();
        swapped.cells.swap(0, 1);
        assert!(refused(&swapped));
        let mut duplicated = lane_state();
        duplicated.transitions[1].0 = duplicated.transitions[0].0;
        assert!(refused(&duplicated));
    }

    #[test]
    fn decoder_rejects_unsorted_median_values() {
        let mut state = lane_state();
        state.cells[0].1.medians[0].insert(0, f64::MAX);
        assert!(refused(&state));
    }

    /// Random trips over a small patch of sea: each a random walk on a
    /// lattice finer than a cell (so cells repeat across trips and
    /// skipped cells happen), with readings that often tie.
    fn random_trips() -> impl Strategy<Value = Vec<Trip>> {
        let step = (0i32..5, 0i32..5, 0u8..30, 0u16..360);
        proptest::collection::vec(proptest::collection::vec(step, 2..40), 1..7).prop_map(|walks| {
            let trip = |(k, steps): (usize, Vec<(i32, i32, u8, u16)>)| {
                let (mmsi, mut x, mut y) = (100 + k as u64 % 3, 0i32, 0i32);
                let points = steps
                    .into_iter()
                    .enumerate()
                    .map(|(i, (dx, dy, sog, cog))| {
                        (x, y) = (x + dx - 2, y + dy - 2);
                        let (lon, lat) =
                            (10.0 + f64::from(x) * 0.002, 56.0 + f64::from(y) * 0.0015);
                        AisPoint::new(
                            mmsi,
                            i as i64 * 60,
                            lon,
                            lat,
                            f64::from(sog) * 0.5,
                            cog.into(),
                        )
                    });
                Trip {
                    trip_id: k as u64 + 1,
                    mmsi,
                    points: points.collect(),
                }
            };
            walks.into_iter().enumerate().map(trip).collect()
        })
    }

    fn naive_median(values: &mut [f64]) -> f64 {
        values.sort_by(f64::total_cmp);
        let n = values.len();
        if n % 2 == 1 {
            values[n / 2]
        } else {
            (values[n / 2 - 1] + values[n / 2]) / 2.0
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The typed `GROUP BY cl` and `GROUP BY lag_cl, cl` against
        /// naive per-group references over the lagged table's rows.
        #[test]
        fn accumulate_matches_naive_reference(trips in random_trips()) {
            let config = HabitConfig::default();
            let table = trips_to_table(&trips);
            let state = FitState::accumulate(&table, config).unwrap();
            let lagged = lagged_trip_table(&table, &config).unwrap();
            let (vessels, trip_ids) = (table.vessel_id(), table.trip_id());
            let values = median_columns(&table);
            let mut cells: BTreeMap<u64, (u64, HyperLogLog, [Vec<f64>; 4])> = BTreeMap::new();
            let mut transitions: BTreeMap<(u64, u64), HyperLogLog> = BTreeMap::new();
            for &LaggedRow { row, cl, lag_cl } in lagged.rows() {
                let (count, sketch, medians) = cells
                    .entry(cl)
                    .or_insert_with(|| (0, HyperLogLog::default_precision(), Default::default()));
                *count += 1;
                sketch.insert_u64(vessels[row]);
                for (m, column) in medians.iter_mut().zip(&values) {
                    m.push(column[row]);
                }
                if let Some(prev) = lag_cl.filter(|&prev| prev != cl) {
                    transitions
                        .entry((prev, cl))
                        .or_insert_with(HyperLogLog::default_precision)
                        .insert_u64(trip_ids[row]);
                }
            }

            prop_assert_eq!(state.cells.len(), cells.len());
            for ((key, acc), (naive_key, (count, sketch, medians))) in state.cells.iter().zip(&mut cells) {
                prop_assert_eq!(key, naive_key);
                let stats = acc.stats();
                prop_assert_eq!(stats.msg_count, *count);
                prop_assert_eq!(stats.vessels, sketch.count());
                let got = [stats.median_lon, stats.median_lat, stats.median_sog, stats.median_cog];
                for (g, m) in got.into_iter().zip(medians.iter_mut()) {
                    prop_assert!((g - naive_median(m)).abs() < 1e-9, "{} vs {:?}", g, m);
                }
            }
            prop_assert_eq!(state.transitions.len(), transitions.len());
            for ((key, trips), (naive_key, sketch)) in state.transitions.iter().zip(&transitions) {
                prop_assert_eq!(key, naive_key);
                prop_assert_eq!(trips.registers(), sketch.registers());
            }
        }

        /// Accumulating two disjoint trip subsets and merging equals
        /// accumulating their union, byte for byte.
        #[test]
        fn merged_disjoint_subsets_equal_the_union(trips in random_trips(), mask in any::<u8>()) {
            let config = HabitConfig::default();
            let (left, right): (Vec<Trip>, Vec<Trip>) =
                trips.iter().cloned().partition(|t| mask >> (t.trip_id % 8) & 1 == 1);
            let mut merged = FitState::accumulate(&trips_to_table(&left), config).unwrap();
            merged.merge(FitState::accumulate(&trips_to_table(&right), config).unwrap()).unwrap();
            let union = FitState::accumulate(&trips_to_table(&trips), config).unwrap();
            prop_assert_eq!(merged.to_bytes(), union.to_bytes());
        }
    }
}
