//! Fitting, persisting, and loading a model fleet directory.
//!
//! A fleet directory holds one v2 model blob per **non-empty** shard
//! (`shard-0003.habit`) plus the [`MANIFEST_FILE`] describing them.
//! [`fit_fleet`] is the seam behind `habit fit --shards-out DIR`:
//! accumulate per-shard fit states on the pool, persist each as a full
//! v2 blob (graph **and** fit state, so every shard can be refitted in
//! place), and write the canonical manifest last — a crash mid-write
//! leaves a directory without a valid manifest, never a manifest
//! pointing at missing blobs. [`load_fleet`] walks the manifest back,
//! verifying every blob's FNV-1a hash and config fingerprint before
//! anything serves.

use crate::manifest::{config_fingerprint, fnv1a64, ShardBlob, ShardManifest, MANIFEST_FILE};
use crate::FleetError;
use aggdb::Table;
use habit_core::{FitState, HabitConfig, HabitModel};
use habit_engine::{accumulate_per_shard, ThreadPool};
use hexgrid::tiling::DEFAULT_TILE_LEVELS_UP;
use hexgrid::HexCell;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// The blob file name a shard's model is stored under inside the fleet
/// directory (`shard-0002.habit`). Fixed-width so directory listings
/// sort in shard order.
pub fn shard_blob_name(shard: u32) -> String {
    format!("shard-{shard:04}.habit")
}

/// A fleet loaded from disk and ready to route: the manifest, its
/// content hash (the identity `Health`/`ModelInfo` report), and the
/// per-shard models in ascending shard order.
pub struct LoadedFleet {
    /// The manifest the fleet was loaded under.
    pub manifest: ShardManifest,
    /// FNV-1a 64 of the canonical manifest bytes.
    pub manifest_hash: u64,
    /// Shard id → model, ascending by shard id; every entry carries an
    /// embedded fit state (v2 blobs only).
    pub models: Vec<(u32, Arc<HabitModel>)>,
}

/// Fits a fleet from a trip table and persists it to `dir`:
/// [`accumulate_per_shard`] on the pool, then [`write_fleet`]. The
/// returned manifest is exactly what `dir/fleet.hfm` now holds.
pub fn fit_fleet(
    table: &Table,
    config: HabitConfig,
    shards: u32,
    pool: &ThreadPool,
    dir: &Path,
) -> Result<ShardManifest, FleetError> {
    let states = accumulate_per_shard(table, config, shards as usize, pool)?;
    write_fleet(dir, states, shards)
}

/// Persists per-shard fit states as v2 blobs plus the `HFM1` manifest.
///
/// `shards` is the partition modulus the states were accumulated under
/// (`shard = hash(tile) % shards`); `states` holds only the non-empty
/// shards, as [`accumulate_per_shard`] returns them. Every state must
/// carry the same configuration ([`FleetError::ConfigMismatch`]
/// otherwise). Blobs are written before the manifest so a torn write
/// cannot yield a manifest referencing absent files.
pub fn write_fleet(
    dir: &Path,
    states: Vec<(u32, FitState)>,
    shards: u32,
) -> Result<ShardManifest, FleetError> {
    let shards = shards.max(1);
    let Some(config) = states.first().map(|(_, s)| *s.config()) else {
        return Err(FleetError::Habit(habit_core::HabitError::EmptyModel));
    };
    if states.iter().any(|(_, s)| s.config() != &config) {
        return Err(FleetError::ConfigMismatch);
    }
    std::fs::create_dir_all(dir)?;

    let partitioner =
        hexgrid::TilePartitioner::new(config.resolution, DEFAULT_TILE_LEVELS_UP, shards as usize);
    let mut blobs = BTreeMap::new();
    let mut tiles: BTreeMap<u64, u32> = BTreeMap::new();
    for (shard, state) in states {
        if shard >= shards {
            return Err(FleetError::BadManifest("shard id outside the modulus"));
        }
        let model = HabitModel::from_fit_state(state)?;
        // A shard's graph also holds *foreign* boundary cells — the
        // `lag_cl` side of transitions whose `cl` lands in this shard —
        // so only cells this shard actually owns claim their tile.
        for (id, _) in model.csr().nodes() {
            let cell = HexCell::from_raw(id).map_err(habit_core::HabitError::Grid)?;
            let owner = partitioner
                .shard_of(cell)
                .map_err(habit_core::HabitError::Grid)?;
            if owner as u32 != shard {
                continue;
            }
            let tile = partitioner
                .tile_of(cell)
                .map_err(habit_core::HabitError::Grid)?;
            if tiles
                .insert(tile.raw(), shard)
                .is_some_and(|prev| prev != shard)
            {
                return Err(FleetError::BadManifest("tile owned by two shards"));
            }
        }
        let bytes = model.to_bytes_full();
        let path = shard_blob_name(shard);
        std::fs::write(dir.join(&path), &bytes)?;
        blobs.insert(
            shard,
            ShardBlob {
                path,
                hash: fnv1a64(&bytes),
            },
        );
    }

    let manifest = ShardManifest {
        fingerprint: config_fingerprint(&config),
        resolution: config.resolution,
        levels_up: DEFAULT_TILE_LEVELS_UP,
        shards,
        blobs,
        tiles,
    };
    std::fs::write(dir.join(MANIFEST_FILE), manifest.to_bytes())?;
    Ok(manifest)
}

/// Loads a fleet directory back, verifying before anything serves:
/// every blob's bytes hash to what the manifest recorded
/// ([`FleetError::HashMismatch`]), every model was fitted under the
/// manifest's config fingerprint ([`FleetError::ConfigMismatch`]), and
/// every blob embeds a fit state (v2) so per-shard refit stays possible.
pub fn load_fleet(dir: &Path) -> Result<LoadedFleet, FleetError> {
    let manifest = ShardManifest::from_bytes(&std::fs::read(dir.join(MANIFEST_FILE))?)?;
    let manifest_hash = manifest.manifest_hash();
    let mut models = Vec::with_capacity(manifest.blobs.len());
    for (&shard, blob) in &manifest.blobs {
        let bytes = std::fs::read(dir.join(&blob.path))?;
        if fnv1a64(&bytes) != blob.hash {
            return Err(FleetError::HashMismatch { shard });
        }
        let model = HabitModel::from_bytes(&bytes)?;
        if config_fingerprint(model.config()) != manifest.fingerprint {
            return Err(FleetError::ConfigMismatch);
        }
        if model.state().is_none() {
            return Err(FleetError::BadManifest("shard blob carries no fit state"));
        }
        models.push((shard, Arc::new(model)));
    }
    Ok(LoadedFleet {
        manifest,
        manifest_hash,
        models,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use aggdb::Column;

    /// Two vessels sailing disjoint east-west corridors far apart
    /// (Denmark and the Aegean) so cells land in different tiles.
    pub(crate) fn two_corridor_table(n: usize) -> Table {
        let mut trip = Vec::new();
        let mut vessel = Vec::new();
        let mut ts = Vec::new();
        let mut lon = Vec::new();
        let mut lat = Vec::new();
        for (t, (lon0, lat0)) in [(10.0, 56.0), (24.0, 38.0)].iter().enumerate() {
            for i in 0..n {
                trip.push(t as u64 + 1);
                vessel.push(t as u64 + 9);
                ts.push(i as i64 * 60);
                lon.push(lon0 + i as f64 * 0.002);
                lat.push(*lat0);
            }
        }
        let rows = trip.len();
        Table::from_columns(vec![
            ("trip_id", Column::from_u64(trip)),
            ("vessel_id", Column::from_u64(vessel)),
            ("ts", Column::from_i64(ts)),
            ("lon", Column::from_f64(lon)),
            ("lat", Column::from_f64(lat)),
            ("sog", Column::from_f64(vec![12.0; rows])),
            ("cog", Column::from_f64(vec![90.0; rows])),
        ])
        .expect("test table")
    }

    #[test]
    fn fit_write_load_round_trips() {
        let table = two_corridor_table(120);
        let pool = ThreadPool::new(2);
        let dir = std::env::temp_dir().join("habit-fleet-roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let manifest = fit_fleet(&table, HabitConfig::default(), 8, &pool, &dir).expect("fit");
        assert!(!manifest.blobs.is_empty());
        assert!(!manifest.tiles.is_empty());
        assert!(manifest.blobs.len() <= 8);

        let fleet = load_fleet(&dir).expect("load");
        assert_eq!(fleet.manifest, manifest);
        assert_eq!(fleet.manifest_hash, manifest.manifest_hash());
        assert_eq!(fleet.models.len(), manifest.blobs.len());
        for (shard, model) in &fleet.models {
            assert!(manifest.blobs.contains_key(shard));
            assert!(model.state().is_some(), "v2 blobs keep their fit state");
            assert!(model.node_count() > 0);
        }
        // Every owning shard in the tile map has a model to serve it.
        for shard in manifest.tiles.values() {
            assert!(fleet.models.iter().any(|(s, _)| s == shard));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_shard_fleet_blob_is_byte_identical_to_the_single_blob_fit() {
        let table = two_corridor_table(120);
        let pool = ThreadPool::new(2);
        let dir = std::env::temp_dir().join("habit-fleet-oneshard");
        let _ = std::fs::remove_dir_all(&dir);
        let manifest = fit_fleet(&table, HabitConfig::default(), 1, &pool, &dir).expect("fit");
        assert_eq!(manifest.blobs.len(), 1, "one shard, one blob");

        let global = habit_engine::fit_sharded(&table, HabitConfig::default(), 4, &pool)
            .expect("global fit");
        let blob = std::fs::read(dir.join(shard_blob_name(0))).expect("shard blob");
        assert_eq!(
            blob,
            global.to_bytes_full(),
            "the one-shard fleet blob IS the single-blob model"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tampered_blobs_and_drifted_configs_are_refused() {
        let table = two_corridor_table(80);
        let pool = ThreadPool::new(2);
        let dir = std::env::temp_dir().join("habit-fleet-tamper");
        let _ = std::fs::remove_dir_all(&dir);
        let manifest = fit_fleet(&table, HabitConfig::default(), 8, &pool, &dir).expect("fit");
        let (&shard, blob) = manifest.blobs.iter().next().expect("a blob");
        let blob_path = dir.join(&blob.path);
        let original = std::fs::read(&blob_path).expect("blob bytes");

        let mut tampered = original.clone();
        let last = tampered.len() - 1;
        tampered[last] ^= 0xff;
        std::fs::write(&blob_path, &tampered).expect("tamper");
        assert!(
            matches!(load_fleet(&dir), Err(FleetError::HashMismatch { shard: s }) if s == shard),
            "flipped blob byte must fail the manifest hash"
        );
        std::fs::write(&blob_path, &original).expect("restore");
        assert!(load_fleet(&dir).is_ok());

        // Mixed-config states never reach disk.
        let states = accumulate_per_shard(&table, HabitConfig::default(), 4, &pool).expect("acc");
        let mut drifted = HabitConfig::default();
        drifted.rdp_tolerance_m += 1.0;
        let mut mixed = states;
        let extra = accumulate_per_shard(&table, drifted, 1, &pool).expect("acc drifted");
        mixed.extend(extra.into_iter().map(|(_, s)| (3_999, s)));
        assert!(matches!(
            write_fleet(&dir, mixed, 4_000),
            Err(FleetError::ConfigMismatch)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
