//! Spatial tiles: mapping fine cells onto coarse shards.
//!
//! `habit-engine` parallelizes the fit by partitioning the trip table
//! *spatially*: every cell belongs to exactly one **tile** (its ancestor
//! a fixed number of aperture-7 levels up), and tiles are assigned to
//! shards by a deterministic hash. Keys of both HABIT group-bys (`cl`
//! and `(lag_cl, cl)` keyed by the destination cell) then never straddle
//! shards, and the shard layout is a pure function of the cell id —
//! identical across runs, machines and thread counts.

use crate::cell::HexCell;
use crate::error::HexError;
use crate::grid::HexGrid;

/// Maps cells to coarse tiles and tiles to shard indices.
#[derive(Debug, Clone, Copy)]
pub struct TilePartitioner {
    grid: HexGrid,
    tile_res: u8,
    shards: usize,
}

/// How many aperture-7 levels above the working resolution a tile sits
/// by default: 3 levels ≈ 7³ = 343 cells per tile — coarse enough that
/// group-by work per tile amortizes, fine enough to spread a regional
/// dataset over many shards.
pub const DEFAULT_TILE_LEVELS_UP: u8 = 3;

impl TilePartitioner {
    /// Creates a partitioner for cells at `cell_res`, with tiles
    /// `levels_up` resolutions coarser (clamped at resolution 0) and
    /// `shards ≥ 1` shards.
    pub fn new(cell_res: u8, levels_up: u8, shards: usize) -> Self {
        Self {
            grid: HexGrid::new(),
            tile_res: cell_res.saturating_sub(levels_up),
            shards: shards.max(1),
        }
    }

    /// The tile containing `cell` (its ancestor at the tile resolution).
    pub fn tile_of(&self, cell: HexCell) -> Result<HexCell, HexError> {
        if cell.resolution() == self.tile_res {
            return Ok(cell);
        }
        self.grid.parent(cell, self.tile_res)
    }

    /// Deterministic shard index of `cell`: a splitmix64 finalizer over
    /// the tile id, reduced modulo the shard count. Stable across runs
    /// and platforms.
    pub fn shard_of(&self, cell: HexCell) -> Result<usize, HexError> {
        let tile = self.tile_of(cell)?;
        Ok((splitmix64(tile.raw()) % self.shards as u64) as usize)
    }
}

/// The splitmix64 finalizer — a cheap, well-mixed 64-bit permutation.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo_kernel::GeoPoint;

    fn cell_at(lon: f64, lat: f64, res: u8) -> HexCell {
        HexGrid::new().cell(&GeoPoint::new(lon, lat), res).unwrap()
    }

    #[test]
    fn tile_is_ancestor_and_shared_by_near_cells() {
        let p = TilePartitioner::new(9, DEFAULT_TILE_LEVELS_UP, 8);
        let a = cell_at(10.000, 56.000, 9);
        let b = cell_at(10.001, 56.000, 9); // ~60 m away, same coarse tile
        assert_eq!(p.tile_of(a).unwrap().resolution(), 6);
        assert_eq!(p.tile_of(a).unwrap(), p.tile_of(b).unwrap());
        assert_eq!(p.shard_of(a).unwrap(), p.shard_of(b).unwrap());
    }

    #[test]
    fn shard_assignment_is_deterministic_and_bounded() {
        let p = TilePartitioner::new(9, 3, 5);
        for i in 0..50 {
            let c = cell_at(10.0 + i as f64 * 0.05, 56.0, 9);
            let s = p.shard_of(c).unwrap();
            assert!(s < 5);
            assert_eq!(s, p.shard_of(c).unwrap());
        }
    }

    #[test]
    fn distant_tiles_spread_over_shards() {
        let p = TilePartitioner::new(9, 2, 4);
        let mut seen = std::collections::HashSet::new();
        for i in 0..40 {
            let c = cell_at(5.0 + i as f64 * 0.8, 50.0 + (i % 7) as f64, 9);
            seen.insert(p.shard_of(c).unwrap());
        }
        assert!(seen.len() >= 3, "only shards {seen:?} used");
    }

    #[test]
    fn clamps_at_resolution_zero_and_one_shard() {
        let p = TilePartitioner::new(2, 9, 0);
        let c = cell_at(10.0, 56.0, 2);
        assert_eq!(p.tile_of(c).unwrap().resolution(), 0);
        assert_eq!(p.shard_of(c).unwrap(), 0);
        // A cell already at the tile resolution is its own tile.
        let t = cell_at(10.0, 56.0, 0);
        assert_eq!(TilePartitioner::new(0, 0, 3).tile_of(t).unwrap(), t);
    }
}
