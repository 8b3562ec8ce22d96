//! The scatter/gather routing front over a loaded fleet.
//!
//! [`FleetRouter`] sits where the single-blob server keeps its one
//! `BatchImputer`, and classifies every gap by the **tiles of its
//! endpoints** (pure geometry — `cell → tile → hash(tile) % shards`,
//! no model lookups):
//!
//! * both endpoints owned by one loaded shard → **in-shard**: the gap
//!   joins that shard's sub-batch and runs through the owning shard's
//!   `BatchImputer` — the exact single-blob serving code path, with
//!   that shard's own route cache;
//! * endpoints owned by two loaded shards → **cross-shard**: the gap is
//!   routed leg by leg in its owning shards and stitched at a seam
//!   cell (see [`FleetRouter::impute_batch`] for the construction);
//! * an endpoint owned by a shard the manifest does not carry →
//!   **miss**: served by the optional global fallback model when one is
//!   loaded, failed with [`BatchFailure::ShardMiss`] otherwise. A miss
//!   is never silently rerouted to some other shard — psionic honesty
//!   over fake availability.
//!
//! Results come back in query order, deterministic at any thread count,
//! and a one-shard fleet answers byte-identically to the single-blob
//! imputer: classification sends every query in-shard to shard 0, whose
//! state is the global state.

use crate::builder::LoadedFleet;
use crate::manifest::{config_fingerprint, ShardManifest};
use crate::FleetError;
use geo_kernel::{haversine_m, GeoPoint, TimedPoint};
use habit_core::{CellProjection, GapQuery, HabitModel, Imputation};
use habit_engine::{BatchFailure, BatchImputer, BatchStats, ThreadPool};
use habit_obs::Recorder;
use hexgrid::{HexCell, HexGrid, TilePartitioner};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Where one gap query goes, by endpoint tile ownership.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// Both endpoints owned by this loaded shard.
    InShard(u32),
    /// Endpoints owned by two different loaded shards.
    CrossShard {
        /// Shard owning the start endpoint's tile.
        start: u32,
        /// Shard owning the end endpoint's tile.
        end: u32,
    },
    /// An endpoint's owning shard has no blob in the manifest.
    Miss {
        /// The owning shard id.
        shard: u32,
        /// The raw id of the endpoint's tile.
        tile: u64,
    },
}

/// Fleet-level counters for one batch, on top of the summed
/// [`BatchStats`]: how traffic scattered across shards.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetBatchStats {
    /// Queries (and stitched legs) dispatched to each shard's imputer,
    /// keyed by shard id.
    pub shard_requests: BTreeMap<u32, u64>,
    /// Cross-shard gaps answered by a seam-stitched two-leg route.
    pub seam_routes: u64,
    /// Shard-miss gaps served by the global fallback model.
    pub fallbacks: u64,
    /// Shard-miss gaps failed with [`BatchFailure::ShardMiss`].
    pub misses: u64,
}

/// The serving front over per-shard [`BatchImputer`]s: classification,
/// per-shard sub-batching, seam stitching, fallback, and per-shard
/// hot-swap.
pub struct FleetRouter {
    manifest: ShardManifest,
    manifest_hash: u64,
    partitioner: TilePartitioner,
    grid: HexGrid,
    /// Shard id → imputer, ascending; per-shard route caches.
    shards: BTreeMap<u32, BatchImputer>,
    /// The optional global single-blob model serving shard misses.
    fallback: Option<BatchImputer>,
    cache_capacity: usize,
}

impl FleetRouter {
    /// Builds the front over a loaded fleet, with `cache_capacity`
    /// route-cache entries **per shard** (and for the fallback). The
    /// fallback, when given, must be fitted under the fleet's config
    /// fingerprint — an honest fallback answers from the same model
    /// family, not a different tuning.
    pub fn new(
        fleet: LoadedFleet,
        fallback: Option<Arc<HabitModel>>,
        cache_capacity: usize,
    ) -> Result<Self, FleetError> {
        let LoadedFleet {
            manifest,
            manifest_hash,
            models,
        } = fleet;
        if let Some(global) = &fallback {
            if config_fingerprint(global.config()) != manifest.fingerprint {
                return Err(FleetError::ConfigMismatch);
            }
        }
        let shards: BTreeMap<u32, BatchImputer> = models
            .into_iter()
            .map(|(shard, model)| (shard, BatchImputer::new(model, cache_capacity)))
            .collect();
        Ok(Self {
            partitioner: manifest.partitioner(),
            manifest,
            manifest_hash,
            grid: HexGrid::new(),
            shards,
            fallback: fallback.map(|m| BatchImputer::new(m, cache_capacity)),
            cache_capacity,
        })
    }

    /// The manifest the fleet serves under.
    pub fn manifest(&self) -> &ShardManifest {
        &self.manifest
    }

    /// FNV-1a 64 of the current manifest bytes (tracks hot-swaps).
    pub fn manifest_hash(&self) -> u64 {
        self.manifest_hash
    }

    /// Loaded shard count.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Whether a global fallback model is loaded for shard misses.
    pub fn has_fallback(&self) -> bool {
        self.fallback.is_some()
    }

    /// The loaded shard models, ascending by shard id.
    pub fn models(&self) -> impl Iterator<Item = (u32, &HabitModel)> {
        self.shards.iter().map(|(&s, imp)| (s, imp.model()))
    }

    /// One shard's model, if loaded.
    pub fn model(&self, shard: u32) -> Option<&HabitModel> {
        self.shards.get(&shard).map(BatchImputer::model)
    }

    /// Routes currently cached across all shard imputers (and the
    /// fallback).
    pub fn cached_routes(&self) -> usize {
        self.shards
            .values()
            .chain(self.fallback.iter())
            .map(BatchImputer::cached_routes)
            .sum()
    }

    /// Classifies one gap by its endpoint tiles. Geometry errors
    /// (coordinates off the grid) surface as [`BatchFailure::Snap`],
    /// exactly where the single-blob path fails them.
    pub fn classify(&self, gap: &GapQuery) -> Result<Dispatch, BatchFailure> {
        let owner = |pos: &GeoPoint| -> Result<(u32, u64), BatchFailure> {
            let cell = self
                .grid
                .cell(pos, self.manifest.resolution)
                .map_err(|e| BatchFailure::Snap(e.to_string()))?;
            let tile = self
                .partitioner
                .tile_of(cell)
                .map_err(|e| BatchFailure::Snap(e.to_string()))?;
            let shard = self
                .partitioner
                .shard_of(cell)
                .map_err(|e| BatchFailure::Snap(e.to_string()))? as u32;
            Ok((shard, tile.raw()))
        };
        let (start, start_tile) = owner(&gap.start.pos)?;
        let (end, end_tile) = owner(&gap.end.pos)?;
        for (shard, tile) in [(start, start_tile), (end, end_tile)] {
            if !self.shards.contains_key(&shard) {
                return Ok(Dispatch::Miss { shard, tile });
            }
        }
        Ok(if start == end {
            Dispatch::InShard(start)
        } else {
            Dispatch::CrossShard { start, end }
        })
    }

    /// Answers a batch through the fleet: in-shard sub-batches per
    /// shard (ascending shard order, query order within), cross-shard
    /// gaps stitched, misses failed typed. When a global fallback blob
    /// is loaded, every query the fleet could not answer — shard miss,
    /// a shard-local no-path (the wanted corridor leaves the shard's
    /// tiles), a failed stitch — is honestly re-served by the fallback
    /// and counted in [`FleetBatchStats::fallbacks`]. Returns results
    /// in query order, the summed per-shard [`BatchStats`], and the
    /// fleet-level scatter counters.
    ///
    /// **Seam stitch.** A cross-shard gap start→end with owners A ≠ B
    /// becomes two legs joined at the tile-seam boundary cell: shard
    /// B's snap of the *start* position. B's graph reaches exactly one
    /// cell past its own tiles — the `lag` side of transitions crossing
    /// into B — so that snap lands on the boundary cell where traffic
    /// enters B: a full node of A's graph and an outbound-only node of
    /// B's. Its projected position (the model's own cell projection)
    /// and distance-proportional timestamp make the seam point; leg 1
    /// is start→seam in A, leg 2 is seam→end in B, and the legs are
    /// concatenated dropping the duplicated seam point. The stitch is
    /// approximate (each leg only sees its shard's subgraph) and is
    /// quality-gated by the `fleet_scale` experiment, not byte-pinned.
    pub fn impute_batch(
        &self,
        queries: &[GapQuery],
        pool: &ThreadPool,
        provenance: bool,
        recorder: Option<&Recorder>,
        op: &'static str,
    ) -> (
        Vec<Result<Imputation, BatchFailure>>,
        BatchStats,
        FleetBatchStats,
    ) {
        let mut stats = BatchStats {
            queries: queries.len(),
            ..BatchStats::default()
        };
        let mut fleet_stats = FleetBatchStats::default();
        let mut results: Vec<Option<Result<Imputation, BatchFailure>>> =
            (0..queries.len()).map(|_| None).collect();

        // -- 1. Classify and group.
        let mut in_shard: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        let mut cross: Vec<(usize, u32, u32)> = Vec::new();
        for (i, gap) in queries.iter().enumerate() {
            match self.classify(gap) {
                Err(failure) => results[i] = Some(Err(failure)),
                Ok(Dispatch::InShard(shard)) => in_shard.entry(shard).or_default().push(i),
                Ok(Dispatch::CrossShard { start, end }) => cross.push((i, start, end)),
                Ok(Dispatch::Miss { shard, .. }) => {
                    results[i] = Some(Err(BatchFailure::ShardMiss { shard }));
                }
            }
        }

        // -- 2. In-shard sub-batches, ascending shard order.
        for (shard, indices) in &in_shard {
            let imputer = &self.shards[shard];
            let sub: Vec<GapQuery> = indices.iter().map(|&i| queries[i]).collect();
            let (sub_results, sub_stats) =
                imputer.impute_batch_traced(&sub, pool, provenance, recorder, op);
            *fleet_stats.shard_requests.entry(*shard).or_insert(0) += sub.len() as u64;
            merge_stats(&mut stats, &sub_stats);
            for (&i, r) in indices.iter().zip(sub_results) {
                results[i] = Some(r);
            }
        }

        // -- 3. Cross-shard stitches, query order.
        for (i, start, end) in cross {
            let stitched = self.stitch(
                &queries[i],
                start,
                end,
                pool,
                provenance,
                recorder,
                op,
                &mut stats,
            );
            for shard in [start, end] {
                *fleet_stats.shard_requests.entry(shard).or_insert(0) += 1;
            }
            if stitched.is_ok() {
                fleet_stats.seam_routes += 1;
            }
            results[i] = Some(stitched);
        }

        // -- 4. Fallback rescue: anything still failed is re-served by
        //       the global blob when one is loaded.
        if let Some(fallback) = &self.fallback {
            let rescue_idx: Vec<usize> = results
                .iter()
                .enumerate()
                .filter(|(_, r)| matches!(r, Some(Err(_))))
                .map(|(i, _)| i)
                .collect();
            if !rescue_idx.is_empty() {
                fleet_stats.fallbacks = rescue_idx.len() as u64;
                let sub: Vec<GapQuery> = rescue_idx.iter().map(|&i| queries[i]).collect();
                let (sub_results, sub_stats) =
                    fallback.impute_batch_traced(&sub, pool, provenance, recorder, op);
                merge_stats(&mut stats, &sub_stats);
                for (&i, r) in rescue_idx.iter().zip(sub_results) {
                    results[i] = Some(r);
                }
            }
        }

        let results: Vec<Result<Imputation, BatchFailure>> = results
            .into_iter()
            .map(|r| r.expect("every query dispatched"))
            .collect();
        fleet_stats.misses = results
            .iter()
            .filter(|r| matches!(r, Err(BatchFailure::ShardMiss { .. })))
            .count() as u64;
        stats.queries = queries.len();
        stats.ok = results.iter().filter(|r| r.is_ok()).count();
        stats.failed = stats.queries - stats.ok;
        (results, stats, fleet_stats)
    }

    /// Two-leg seam stitch for one cross-shard gap (see
    /// [`Self::impute_batch`] for the construction).
    #[allow(clippy::too_many_arguments)]
    fn stitch(
        &self,
        gap: &GapQuery,
        start_shard: u32,
        end_shard: u32,
        pool: &ThreadPool,
        provenance: bool,
        recorder: Option<&Recorder>,
        op: &'static str,
        stats: &mut BatchStats,
    ) -> Result<Imputation, BatchFailure> {
        let a = &self.shards[&start_shard];
        let b = &self.shards[&end_shard];

        // Seam: shard B's nearest cell to the start position — the
        // boundary cell where traffic crosses into B — projected the
        // way B projects route cells, timestamped by distance share.
        let (seam_cell, _) = b
            .model()
            .snap(&gap.start.pos)
            .map_err(|e| BatchFailure::Snap(e.to_string()))?;
        let seam_pos = self.project(b.model(), seam_cell);
        let d1 = haversine_m(&gap.start.pos, &seam_pos);
        let d2 = haversine_m(&seam_pos, &gap.end.pos);
        let total = d1 + d2;
        let frac = if total > 0.0 { d1 / total } else { 0.5 };
        let duration = (gap.end.t - gap.start.t) as f64;
        let seam_t = (gap.start.t + (duration * frac).round() as i64).clamp(gap.start.t, gap.end.t);
        let seam = TimedPoint::new(seam_pos.lon, seam_pos.lat, seam_t);

        let leg1 = GapQuery {
            start: gap.start,
            end: seam,
        };
        let leg2 = GapQuery {
            start: seam,
            end: gap.end,
        };
        let first = run_leg(a, &leg1, pool, provenance, recorder, op, stats)?;
        let second = run_leg(b, &leg2, pool, provenance, recorder, op, stats)?;

        // Concatenate. The seam appears on both sides — as leg 1's end
        // point and leg 2's start point, and usually as a route cell of
        // both subgraphs — so consecutive duplicates (same position
        // bits, same timestamp) collapse to one point.
        let mut points = first.points;
        let mut prov = first.provenance;
        let both = prov.is_some() && second.provenance.is_some();
        if !both {
            prov = None;
        }
        for (k, point) in second.points.into_iter().enumerate() {
            let dup = points.last().is_some_and(|last| {
                last.t == point.t
                    && last.pos.lon.to_bits() == point.pos.lon.to_bits()
                    && last.pos.lat.to_bits() == point.pos.lat.to_bits()
            });
            if dup {
                continue;
            }
            points.push(point);
            if let (Some(p), Some(q)) = (prov.as_mut(), second.provenance.as_ref()) {
                if let Some(record) = q.get(k) {
                    p.push(record.clone());
                }
            }
        }
        let mut cells = first.cells;
        let mut tail = second.cells;
        if !cells.is_empty() && cells.last() == tail.first() {
            tail.remove(0);
        }
        cells.extend(tail);
        Ok(Imputation {
            points,
            cells,
            start_cell: first.start_cell,
            end_cell: second.end_cell,
            cost: first.cost + second.cost,
            expanded: first.expanded + second.expanded,
            raw_point_count: first.raw_point_count + second.raw_point_count - 1,
            provenance: prov,
        })
    }

    /// A model's cell projection, replicated for the seam point: the
    /// configured [`CellProjection`] over the cell's stats.
    fn project(&self, model: &HabitModel, cell: HexCell) -> GeoPoint {
        match model.config().projection {
            CellProjection::Center => self.grid.center(cell),
            CellProjection::Median => model
                .cell_stats(cell)
                .map(|s| GeoPoint::new(s.median_lon, s.median_lat))
                .unwrap_or_else(|| self.grid.center(cell)),
        }
    }

    /// Hot-swaps one shard's model (the per-shard `refit` path): the
    /// shard gets a fresh imputer (a refitted model invalidates cached
    /// routes), the manifest's blob hash and tile map absorb the new
    /// state, and the manifest hash moves. The caller persists the new
    /// blob bytes and manifest to the fleet directory.
    ///
    /// Returns the new blob bytes and the updated manifest.
    pub fn replace_shard(
        &mut self,
        shard: u32,
        model: Arc<HabitModel>,
    ) -> Result<(Vec<u8>, ShardManifest), FleetError> {
        if config_fingerprint(model.config()) != self.manifest.fingerprint {
            return Err(FleetError::ConfigMismatch);
        }
        let Some(blob) = self.manifest.blobs.get_mut(&shard) else {
            return Err(FleetError::BadManifest("refit of a shard with no blob"));
        };
        // Absorb any tiles the delta introduced. Foreign boundary cells
        // (the `lag_cl` side of inbound seam transitions) stay in the
        // graph but never claim a tile for this shard.
        let mut new_tiles = Vec::new();
        for (id, _) in model.csr().nodes() {
            let cell = HexCell::from_raw(id).map_err(habit_core::HabitError::Grid)?;
            let owner = self
                .partitioner
                .shard_of(cell)
                .map_err(habit_core::HabitError::Grid)? as u32;
            if owner != shard {
                continue;
            }
            let tile = self
                .partitioner
                .tile_of(cell)
                .map_err(habit_core::HabitError::Grid)?;
            new_tiles.push(tile.raw());
        }
        let bytes = model.to_bytes_full();
        blob.hash = crate::manifest::fnv1a64(&bytes);
        for tile in new_tiles {
            self.manifest.tiles.insert(tile, shard);
        }
        self.manifest_hash = self.manifest.manifest_hash();
        self.shards
            .insert(shard, BatchImputer::new(model, self.cache_capacity));
        Ok((bytes, self.manifest.clone()))
    }
}

/// Runs one stitched leg as a single-query batch on its shard's
/// imputer (sharing that shard's route cache), folding its counters
/// into the batch totals.
fn run_leg(
    imputer: &BatchImputer,
    leg: &GapQuery,
    pool: &ThreadPool,
    provenance: bool,
    recorder: Option<&Recorder>,
    op: &'static str,
    stats: &mut BatchStats,
) -> Result<Imputation, BatchFailure> {
    let (mut results, leg_stats) =
        imputer.impute_batch_traced(std::slice::from_ref(leg), pool, provenance, recorder, op);
    merge_stats(stats, &leg_stats);
    results.pop().expect("one query, one result")
}

/// Folds a sub-batch's route counters into the fleet totals (`queries`
/// / `ok` / `failed` are recomputed at the fleet level instead — a
/// stitched gap is one query, not two).
fn merge_stats(total: &mut BatchStats, sub: &BatchStats) {
    total.unique_routes += sub.unique_routes;
    total.cache_hits += sub.cache_hits;
    total.routes_computed += sub.routes_computed;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::tests::two_corridor_table;
    use crate::builder::{fit_fleet, load_fleet, shard_blob_name, write_fleet};
    use habit_core::HabitConfig;
    use habit_engine::{accumulate_per_shard, fit_sharded};
    use hexgrid::tiling::DEFAULT_TILE_LEVELS_UP;
    use proptest::prelude::*;
    use std::path::PathBuf;

    fn fleet_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("habit-fleet-router-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn router(table: &aggdb::Table, shards: u32, name: &str, pool: &ThreadPool) -> FleetRouter {
        let dir = fleet_dir(name);
        fit_fleet(table, HabitConfig::default(), shards, pool, &dir).expect("fit fleet");
        let fleet = load_fleet(&dir).expect("load fleet");
        let _ = std::fs::remove_dir_all(&dir);
        FleetRouter::new(fleet, None, 64).expect("router")
    }

    fn global_imputer(table: &aggdb::Table, pool: &ThreadPool) -> BatchImputer {
        let model = fit_sharded(table, HabitConfig::default(), 4, pool).expect("global fit");
        BatchImputer::new(Arc::new(model), 64)
    }

    /// Full byte-level equality, `expanded` and all — only valid when
    /// the serving models are bit-identical (the one-shard fleet).
    fn assert_identical(a: &Imputation, b: &Imputation) {
        assert_eq!(a.cells, b.cells);
        assert_eq!(a.start_cell, b.start_cell);
        assert_eq!(a.end_cell, b.end_cell);
        assert_eq!(a.cost.to_bits(), b.cost.to_bits());
        assert_eq!(a.expanded, b.expanded);
        assert_eq!(a.raw_point_count, b.raw_point_count);
        assert_same_points(a, b);
    }

    /// The serving-output pin for in-shard requests at any shard count:
    /// the imputed track — points, cells, cost — is byte-identical.
    /// (`expanded` is a search diagnostic; a shard subgraph's admissible
    /// heuristic may expand differently while finding the same route.)
    fn assert_same_points(a: &Imputation, b: &Imputation) {
        assert_eq!(a.points.len(), b.points.len());
        for (x, y) in a.points.iter().zip(&b.points) {
            assert_eq!(x.t, y.t);
            assert_eq!(x.pos.lon.to_bits(), y.pos.lon.to_bits());
            assert_eq!(x.pos.lat.to_bits(), y.pos.lat.to_bits());
        }
    }

    fn corridor_queries() -> Vec<GapQuery> {
        vec![
            // Along corridor 1 (Denmark, lat 56).
            GapQuery::new(10.02, 56.0, 0, 10.2, 56.0, 7200),
            GapQuery::new(10.05, 56.0, 0, 10.1, 56.0, 1800),
            GapQuery::new(10.15, 56.0, 100, 10.22, 56.0, 2900),
            // Along corridor 2 (Aegean, lat 38).
            GapQuery::new(24.02, 38.0, 0, 24.2, 38.0, 7200),
            GapQuery::new(24.1, 38.0, 50, 24.18, 38.0, 3250),
            // Across the disconnected corridors: honestly unroutable.
            GapQuery::new(10.1, 56.0, 0, 24.1, 38.0, 864_000),
        ]
    }

    #[test]
    fn one_shard_fleet_serves_byte_identically() {
        let table = two_corridor_table(120);
        let pool = ThreadPool::new(2);
        let fleet = router(&table, 1, "one-shard", &pool);
        assert_eq!(fleet.shard_count(), 1);
        let single = global_imputer(&table, &pool);

        let queries = corridor_queries();
        let (fleet_results, stats, fleet_stats) =
            fleet.impute_batch(&queries, &pool, false, None, "test");
        let (single_results, _) = single.impute_batch(&queries, &pool);
        assert_eq!(stats.queries, queries.len());
        assert_eq!(fleet_stats.seam_routes, 0);
        assert_eq!(fleet_stats.misses, 0);
        assert_eq!(
            fleet_stats.shard_requests.get(&0).copied(),
            Some(queries.len() as u64),
            "every query dispatches in-shard to shard 0"
        );
        for (i, (a, b)) in fleet_results.iter().zip(&single_results).enumerate() {
            match (a, b) {
                (Ok(x), Ok(y)) => assert_identical(x, y),
                (Err(x), Err(y)) => assert_eq!(x, y, "query {i}"),
                _ => panic!("query {i}: ok/err divergence"),
            }
        }
    }

    #[test]
    fn in_shard_requests_match_the_single_blob_at_any_shard_count() {
        let table = two_corridor_table(120);
        let pool = ThreadPool::new(2);
        let single = global_imputer(&table, &pool);
        // Short gaps: an in-shard request whose corridor stays inside
        // the shard's tiles serves from the shard subgraph exactly as
        // the single blob serves it. (Longer in-shard gaps whose best
        // corridor crosses foreign tiles are the documented seam limit
        // — exercised by the fallback test below, not silently skipped
        // here.)
        let mut queries = Vec::new();
        for base in [10.0f64, 24.0] {
            let lat = if base < 20.0 { 56.0 } else { 38.0 };
            for i in 0..10 {
                let lon = base + 0.01 + i as f64 * 0.02;
                queries.push(GapQuery::new(lon, lat, 0, lon + 0.015, lat, 900));
            }
        }
        let (single_results, _) = single.impute_batch(&queries, &pool);

        for shards in [2u32, 4, 8] {
            let fleet = router(&table, shards, &format!("in-shard-{shards}"), &pool);
            let (fleet_results, _, _) = fleet.impute_batch(&queries, &pool, false, None, "test");
            let mut in_shard = 0;
            for (i, query) in queries.iter().enumerate() {
                if !matches!(fleet.classify(query), Ok(Dispatch::InShard(_))) {
                    continue;
                }
                in_shard += 1;
                match (&fleet_results[i], &single_results[i]) {
                    (Ok(x), Ok(y)) => assert_same_points(x, y),
                    (Err(x), Err(y)) => assert_eq!(x, y, "shards={shards} query {i}"),
                    _ => panic!("shards={shards} query {i}: ok/err divergence"),
                }
            }
            assert!(in_shard > 0, "shards={shards}: no in-shard query exercised");
        }
    }

    #[test]
    fn fallback_rescues_every_request_the_single_blob_can_serve() {
        // With the global blob loaded as fallback, the fleet's answer
        // set dominates: whatever a shard cannot serve (seam-crossing
        // corridors, failed stitches, misses) comes back from the
        // fallback — so every query either matches the single blob's
        // successful track shape or fails exactly like it.
        let table = two_corridor_table(120);
        let config = HabitConfig::default();
        let pool = ThreadPool::new(2);
        let dir = fleet_dir("rescue");
        fit_fleet(&table, config, 8, &pool, &dir).expect("fit fleet");
        let global = Arc::new(fit_sharded(&table, config, 4, &pool).expect("global fit"));
        let single = BatchImputer::new(Arc::clone(&global), 64);
        let fleet =
            FleetRouter::new(load_fleet(&dir).expect("load"), Some(global), 64).expect("router");
        let _ = std::fs::remove_dir_all(&dir);

        let queries = corridor_queries();
        let (fleet_results, stats, fleet_stats) =
            fleet.impute_batch(&queries, &pool, false, None, "test");
        let (single_results, single_stats) = single.impute_batch(&queries, &pool);
        assert_eq!(fleet_stats.misses, 0, "fallback absorbs every miss");
        assert!(
            stats.ok >= single_stats.ok,
            "fleet with fallback serves at least what the single blob serves"
        );
        for (i, (a, b)) in fleet_results.iter().zip(&single_results).enumerate() {
            match (a, b) {
                (Ok(x), Ok(y)) => {
                    // Same gap, same anchoring; the track itself may be
                    // a shard-local or stitched variant.
                    assert_eq!(x.points.first().map(|p| p.t), y.points.first().map(|p| p.t));
                    assert_eq!(x.points.last().map(|p| p.t), y.points.last().map(|p| p.t));
                }
                (Ok(_), Err(_)) => {} // the stitch can serve gaps the single blob cannot
                (Err(_), Ok(_)) => panic!("query {i}: fallback failed a servable gap"),
                (Err(_), Err(_)) => {}
            }
        }
    }

    #[test]
    fn cross_shard_gaps_are_stitched_at_the_seam() {
        let table = two_corridor_table(120);
        let pool = ThreadPool::new(2);
        // Walk corridor 1 for a shard count and a nearby endpoint pair
        // owned by two different shards whose stitch succeeds
        // (deterministic: ownership is a pure hash of the tile). Not
        // every cross-shard pair can stitch — a third shard's tile in
        // between is the documented seam limit — so hunt for one that
        // does.
        let mut found = None;
        'search: for shards in 2u32..=16 {
            let fleet = router(&table, shards, &format!("cross-{shards}"), &pool);
            for i in 0..20 {
                let q = GapQuery::new(
                    10.0 + i as f64 * 0.01,
                    56.0,
                    0,
                    10.04 + i as f64 * 0.01,
                    56.0,
                    1800,
                );
                if let Ok(Dispatch::CrossShard { start, end }) = fleet.classify(&q) {
                    let (r, _, _) = fleet.impute_batch(&[q], &pool, false, None, "probe");
                    if r[0].is_ok() {
                        found = Some((fleet, q, start, end));
                        break 'search;
                    }
                }
            }
        }
        let (fleet, query, start_shard, end_shard) = found.expect("a stitchable pair exists");

        let (results, stats, fleet_stats) = fleet.impute_batch(&[query], &pool, true, None, "test");
        let imp = results[0].as_ref().expect("stitched imputation");
        assert_eq!(stats.ok, 1);
        assert_eq!(fleet_stats.seam_routes, 1);
        assert_eq!(
            fleet_stats.shard_requests.get(&start_shard).copied(),
            Some(1)
        );
        assert_eq!(fleet_stats.shard_requests.get(&end_shard).copied(), Some(1));

        // The stitched track is a real trajectory: anchored at the gap
        // endpoints, time monotone, seam point deduplicated, provenance
        // aligned with the points.
        let first = imp.points.first().expect("points");
        let last = imp.points.last().expect("points");
        assert_eq!(first.t, query.start.t);
        assert_eq!(first.pos.lon.to_bits(), query.start.pos.lon.to_bits());
        assert_eq!(last.t, query.end.t);
        assert_eq!(last.pos.lon.to_bits(), query.end.pos.lon.to_bits());
        assert!(imp.points.windows(2).all(|w| w[0].t <= w[1].t));
        assert!(imp
            .points
            .windows(2)
            .all(|w| w[0].pos != w[1].pos || w[0].t != w[1].t));
        assert!(!imp.cells.is_empty());
        let prov = imp.provenance.as_ref().expect("requested provenance");
        assert_eq!(prov.len(), imp.points.len());
    }

    #[test]
    fn shard_misses_fail_typed_or_fall_back_to_the_global_blob() {
        let table = two_corridor_table(120);
        let config = HabitConfig::default();
        let pool = ThreadPool::new(2);
        let shards = 8u32;

        // Drop the shard owning the middle of corridor 2 from the fleet.
        let partitioner =
            TilePartitioner::new(config.resolution, DEFAULT_TILE_LEVELS_UP, shards as usize);
        let grid = HexGrid::new();
        let mid = grid
            .cell(&GeoPoint::new(24.1, 38.0), config.resolution)
            .expect("cell");
        let dropped = partitioner.shard_of(mid).expect("owner") as u32;
        let mut states =
            accumulate_per_shard(&table, config, shards as usize, &pool).expect("states");
        states.retain(|(s, _)| *s != dropped);
        assert!(!states.is_empty());
        let dir = fleet_dir("miss");
        write_fleet(&dir, states, shards).expect("write");
        let query = GapQuery::new(24.09, 38.0, 0, 24.11, 38.0, 1800);

        // Without a fallback: a typed shard miss, not a silent reroute.
        let fleet = FleetRouter::new(load_fleet(&dir).expect("load"), None, 64).expect("router");
        assert!(matches!(
            fleet.classify(&query),
            Ok(Dispatch::Miss { shard, .. }) if shard == dropped
        ));
        let (results, stats, fleet_stats) =
            fleet.impute_batch(&[query], &pool, false, None, "test");
        assert_eq!(stats.failed, 1);
        assert_eq!(fleet_stats.misses, 1);
        assert_eq!(
            results[0].as_ref().err(),
            Some(&BatchFailure::ShardMiss { shard: dropped })
        );

        // With the global blob as fallback: served, byte-identical to
        // the single-blob path.
        let global = Arc::new(fit_sharded(&table, config, 4, &pool).expect("global fit"));
        let single = BatchImputer::new(Arc::clone(&global), 64);
        let fleet =
            FleetRouter::new(load_fleet(&dir).expect("load"), Some(global), 64).expect("router");
        assert!(fleet.has_fallback());
        let (results, stats, fleet_stats) =
            fleet.impute_batch(&[query], &pool, false, None, "test");
        assert_eq!(stats.ok, 1, "{:?}", results[0]);
        assert_eq!(fleet_stats.fallbacks, 1);
        assert_eq!(fleet_stats.misses, 0);
        let (single_results, _) = single.impute_batch(&[query], &pool);
        assert_identical(
            results[0].as_ref().expect("served"),
            single_results[0].as_ref().expect("served"),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replace_shard_matches_a_from_scratch_fleet_fit_over_the_union() {
        // History: both corridors. Delta: a third vessel re-sailing the
        // first half of corridor 1 (same cells, disjoint trip ids).
        let history = two_corridor_table(120);
        let delta = {
            use aggdb::Column;
            let n = 60usize;
            aggdb::Table::from_columns(vec![
                ("trip_id", Column::from_u64(vec![7; n])),
                ("vessel_id", Column::from_u64(vec![77; n])),
                (
                    "ts",
                    Column::from_i64((0..n as i64).map(|i| i * 60).collect()),
                ),
                (
                    "lon",
                    Column::from_f64((0..n).map(|i| 10.0 + i as f64 * 0.002).collect()),
                ),
                ("lat", Column::from_f64(vec![56.0; n])),
                ("sog", Column::from_f64(vec![12.0; n])),
                ("cog", Column::from_f64(vec![90.0; n])),
            ])
            .expect("delta table")
        };
        let union = {
            let mut trip = Vec::new();
            let mut vessel = Vec::new();
            let mut ts = Vec::new();
            let mut lon = Vec::new();
            let mut lat = Vec::new();
            let mut sog = Vec::new();
            let mut cog = Vec::new();
            for t in [&history, &delta] {
                let get_u64 = |name: &str| {
                    t.column_by_name(name)
                        .expect("column")
                        .u64_values()
                        .expect("u64")
                        .to_vec()
                };
                let get_i64 = |name: &str| {
                    t.column_by_name(name)
                        .expect("column")
                        .i64_values()
                        .expect("i64")
                        .to_vec()
                };
                let get_f64 = |name: &str| {
                    t.column_by_name(name)
                        .expect("column")
                        .f64_values()
                        .expect("f64")
                        .to_vec()
                };
                trip.extend(get_u64("trip_id"));
                vessel.extend(get_u64("vessel_id"));
                ts.extend(get_i64("ts"));
                lon.extend(get_f64("lon"));
                lat.extend(get_f64("lat"));
                sog.extend(get_f64("sog"));
                cog.extend(get_f64("cog"));
            }
            aggdb::Table::from_columns(vec![
                ("trip_id", aggdb::Column::from_u64(trip)),
                ("vessel_id", aggdb::Column::from_u64(vessel)),
                ("ts", aggdb::Column::from_i64(ts)),
                ("lon", aggdb::Column::from_f64(lon)),
                ("lat", aggdb::Column::from_f64(lat)),
                ("sog", aggdb::Column::from_f64(sog)),
                ("cog", aggdb::Column::from_f64(cog)),
            ])
            .expect("union table")
        };

        let config = HabitConfig::default();
        let pool = ThreadPool::new(2);
        let shards = 8u32;
        let dir = fleet_dir("refit-history");
        fit_fleet(&history, config, shards, &pool, &dir).expect("fit history");
        let mut fleet =
            FleetRouter::new(load_fleet(&dir).expect("load"), None, 64).expect("router");
        let _ = std::fs::remove_dir_all(&dir);
        let before_hash = fleet.manifest_hash();

        // Per-shard refit: merge each delta shard state into the loaded
        // shard's state and hot-swap.
        let delta_states =
            accumulate_per_shard(&delta, config, shards as usize, &pool).expect("delta states");
        assert!(!delta_states.is_empty());
        let mut swapped = Vec::new();
        for (shard, delta_state) in delta_states {
            let mut state = fleet
                .model(shard)
                .expect("delta cells only touch loaded shards")
                .state()
                .expect("v2 blobs keep state")
                .clone();
            state.merge(delta_state).expect("merge");
            let model = Arc::new(habit_core::HabitModel::from_fit_state(state).expect("refit"));
            let (bytes, manifest) = fleet.replace_shard(shard, model).expect("swap");
            assert_eq!(
                manifest.blobs[&shard].hash,
                crate::manifest::fnv1a64(&bytes)
            );
            swapped.push((shard, bytes));
        }
        assert_ne!(fleet.manifest_hash(), before_hash, "identity moved");

        // The hot-swapped blobs are byte-identical to a from-scratch
        // fleet fit over history ∪ delta.
        let dir = fleet_dir("refit-union");
        fit_fleet(&union, config, shards, &pool, &dir).expect("fit union");
        for (shard, bytes) in &swapped {
            let fresh = std::fs::read(dir.join(shard_blob_name(*shard))).expect("union blob");
            assert_eq!(&fresh, bytes, "shard {shard} refit diverges from scratch");
        }
        // And untouched shards kept serving: short in-shard gaps on
        // corridor 2 still answer.
        let served = (0..10).any(|i| {
            let lon = 24.01 + i as f64 * 0.02;
            let q = GapQuery::new(lon, 38.0, 0, lon + 0.015, 38.0, 900);
            matches!(fleet.classify(&q), Ok(Dispatch::InShard(_)))
                && fleet.impute_batch(&[q], &pool, false, None, "test").0[0].is_ok()
        });
        assert!(
            served,
            "corridor 2 stopped serving after a corridor 1 refit"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// The fleet determinism contract: for random trip tables, a
        /// one-shard fleet round-tripped through disk answers random
        /// gap queries byte-identically to the single-blob imputer.
        #[test]
        fn one_shard_fleet_equals_single_blob_on_random_trips(
            seed in 0u64..10_000,
            n_trips in 3usize..6,
            points in 40usize..80,
        ) {
            use ais::{trips_to_table, AisPoint, Trip};
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};

            let mut rng = StdRng::seed_from_u64(seed);
            let mut trips = Vec::with_capacity(n_trips);
            for k in 0..n_trips {
                let mut lon = 8.0 + rng.gen_range(0.0..6.0);
                let mut lat = 54.0 + rng.gen_range(0.0..3.0);
                let heading = rng.gen_range(0.0..std::f64::consts::TAU);
                let (dlon, dlat) = (heading.cos() * 0.004, heading.sin() * 0.003);
                let mut pts = Vec::with_capacity(points);
                for i in 0..points {
                    lon += dlon;
                    lat += dlat;
                    pts.push(AisPoint::new(
                        1000 + k as u64,
                        i as i64 * 60,
                        lon,
                        lat,
                        rng.gen_range(5.0..15.0),
                        rng.gen_range(0.0..360.0),
                    ));
                }
                trips.push(Trip { trip_id: k as u64 + 1, mmsi: 1000 + k as u64, points: pts });
            }
            let table = trips_to_table(&trips);
            let pool = ThreadPool::new(2);
            let dir = fleet_dir(&format!("prop-{seed}-{n_trips}-{points}"));
            let config = HabitConfig::default();
            if fit_fleet(&table, config, 1, &pool, &dir).is_err() {
                // All-drift inputs reject on both paths; nothing to serve.
                let _ = std::fs::remove_dir_all(&dir);
                return Ok(());
            }
            let fleet = FleetRouter::new(load_fleet(&dir).expect("load"), None, 32)
                .expect("router");
            let _ = std::fs::remove_dir_all(&dir);
            let single = global_imputer(&table, &pool);

            // Queries between random report positions of random trips.
            let queries: Vec<GapQuery> = (0..8)
                .map(|_| {
                    let a = &trips[rng.gen_range(0..trips.len())];
                    let b = &trips[rng.gen_range(0..trips.len())];
                    let p = &a.points[rng.gen_range(0..a.points.len())];
                    let q = &b.points[rng.gen_range(0..b.points.len())];
                    GapQuery::new(p.pos.lon, p.pos.lat, 0, q.pos.lon, q.pos.lat, 3600)
                })
                .collect();
            let (fleet_results, _, fleet_stats) =
                fleet.impute_batch(&queries, &pool, false, None, "prop");
            let (single_results, _) = single.impute_batch(&queries, &pool);
            prop_assert_eq!(fleet_stats.seam_routes, 0);
            prop_assert_eq!(fleet_stats.misses, 0);
            for (a, b) in fleet_results.iter().zip(&single_results) {
                match (a, b) {
                    (Ok(x), Ok(y)) => assert_identical(x, y),
                    (Err(x), Err(y)) => prop_assert_eq!(x, y),
                    _ => prop_assert!(false, "ok/err divergence"),
                }
            }
        }
    }
}
