//! Error type for hex-grid operations.

use std::fmt;

/// Errors returned by hex-grid operations.
#[derive(Debug, Clone, PartialEq)]
pub enum HexError {
    /// Resolution outside `0..=15`.
    InvalidResolution(u8),
    /// Operation requires two cells of the same resolution.
    ResolutionMismatch {
        /// Resolution of the first operand.
        a: u8,
        /// Resolution of the second operand.
        b: u8,
    },
    /// The `u64` is not a valid packed cell id.
    InvalidCell(u64),
    /// Latitude/longitude outside the valid WGS84 range.
    InvalidCoordinate {
        /// Offending longitude.
        lon: f64,
        /// Offending latitude.
        lat: f64,
    },
    /// Axial coordinates exceed the 28-bit packing range.
    CoordinateOverflow,
}

impl fmt::Display for HexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HexError::InvalidResolution(r) => write!(f, "invalid resolution {r} (expected 0..=15)"),
            HexError::ResolutionMismatch { a, b } => {
                write!(f, "resolution mismatch: {a} vs {b}")
            }
            HexError::InvalidCell(id) => write!(f, "invalid cell id {id:#018x}"),
            HexError::InvalidCoordinate { lon, lat } => {
                write!(f, "invalid coordinate lon={lon} lat={lat}")
            }
            HexError::CoordinateOverflow => write!(f, "axial coordinate overflows packing range"),
        }
    }
}

impl std::error::Error for HexError {}
