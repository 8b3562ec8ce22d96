//! Packed hexagonal cell identifiers.

use crate::error::HexError;
use std::fmt;
use std::str::FromStr;

/// Bit layout of a packed cell id (most- to least-significant):
/// `[tag:4][res:4][q_zigzag:28][r_zigzag:28]`.
const TAG: u64 = 0x8;
const TAG_SHIFT: u32 = 60;
const RES_SHIFT: u32 = 56;
const Q_SHIFT: u32 = 28;
const COORD_MASK: u64 = (1 << 28) - 1;

/// Maximum absolute axial coordinate representable in 28 zig-zag bits.
pub(crate) const MAX_ABS_COORD: i64 = (1 << 27) - 1;

/// A cell of the hierarchical hexagonal grid, packed into a `u64`.
///
/// Cells are identified by their resolution (0..=15) and axial lattice
/// coordinates `(q, r)`. The packed form sorts arbitrarily but hashes and
/// compares cheaply, making it suitable as a graph node key — exactly how
/// the paper uses H3 indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HexCell(u64);

/// Cells order by the packed `u64`, so every sorted group-by key, node
/// list and blob record is a function of the ids alone. Written by hand:
/// a derived `PartialOrd` expands to a `partial_cmp` call, which
/// `clippy.toml` disallows.
impl Ord for HexCell {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for HexCell {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[inline]
fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

impl HexCell {
    /// Packs resolution and axial coordinates into a cell id.
    pub fn from_axial(res: u8, q: i64, r: i64) -> Result<Self, HexError> {
        if res > 15 {
            return Err(HexError::InvalidResolution(res));
        }
        if q.abs() > MAX_ABS_COORD || r.abs() > MAX_ABS_COORD {
            return Err(HexError::CoordinateOverflow);
        }
        let packed = (TAG << TAG_SHIFT)
            | ((res as u64) << RES_SHIFT)
            | (zigzag_encode(q) << Q_SHIFT)
            | zigzag_encode(r);
        Ok(HexCell(packed))
    }

    /// Reconstructs a cell from its raw `u64`, validating the layout.
    pub fn from_raw(raw: u64) -> Result<Self, HexError> {
        let cell = HexCell(raw);
        if raw >> TAG_SHIFT != TAG || cell.resolution() > 15 {
            return Err(HexError::InvalidCell(raw));
        }
        Ok(cell)
    }

    /// The raw packed id.
    #[inline]
    pub fn raw(&self) -> u64 {
        self.0
    }

    /// Grid resolution of this cell (0 = coarsest, 15 = finest).
    #[inline]
    pub fn resolution(&self) -> u8 {
        ((self.0 >> RES_SHIFT) & 0xF) as u8
    }

    /// Axial `q` coordinate.
    #[inline]
    pub fn q(&self) -> i64 {
        zigzag_decode((self.0 >> Q_SHIFT) & COORD_MASK)
    }

    /// Axial `r` coordinate.
    #[inline]
    pub fn r(&self) -> i64 {
        zigzag_decode(self.0 & COORD_MASK)
    }

    /// Axial coordinates `(q, r)`.
    #[inline]
    pub fn axial(&self) -> (i64, i64) {
        (self.q(), self.r())
    }

    /// Cube `s` coordinate (`-q - r`), useful for hex arithmetic.
    #[inline]
    pub fn s(&self) -> i64 {
        -self.q() - self.r()
    }
}

impl fmt::Display for HexCell {
    /// Displays as 16 hex digits, visually similar to H3 ids.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl FromStr for HexCell {
    type Err = HexError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let raw = u64::from_str_radix(s, 16).map_err(|_| HexError::InvalidCell(0))?;
        HexCell::from_raw(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_round_trip() {
        for v in [
            -5_000_000i64,
            -1,
            0,
            1,
            42,
            7_777_777,
            MAX_ABS_COORD,
            -MAX_ABS_COORD,
        ] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
    }

    #[test]
    fn pack_unpack_round_trip() {
        for (res, q, r) in [
            (0u8, 0i64, 0i64),
            (9, 12345, -9876),
            (15, -MAX_ABS_COORD, MAX_ABS_COORD),
        ] {
            let c = HexCell::from_axial(res, q, r).unwrap();
            assert_eq!(c.resolution(), res);
            assert_eq!(c.q(), q);
            assert_eq!(c.r(), r);
            assert_eq!(c.s(), -q - r);
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        assert_eq!(
            HexCell::from_axial(16, 0, 0),
            Err(HexError::InvalidResolution(16))
        );
        assert_eq!(
            HexCell::from_axial(5, MAX_ABS_COORD + 1, 0),
            Err(HexError::CoordinateOverflow)
        );
        assert!(HexCell::from_raw(0).is_err(), "missing tag bits");
    }

    #[test]
    fn display_parse_round_trip() {
        let c = HexCell::from_axial(9, 4242, -17).unwrap();
        let s = c.to_string();
        assert_eq!(s.len(), 16);
        let back: HexCell = s.parse().unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn distinct_cells_distinct_ids() {
        let a = HexCell::from_axial(9, 1, 2).unwrap();
        let b = HexCell::from_axial(9, 2, 1).unwrap();
        let c = HexCell::from_axial(10, 1, 2).unwrap();
        assert_ne!(a.raw(), b.raw());
        assert_ne!(a.raw(), c.raw());
    }
}
