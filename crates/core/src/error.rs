//! Error type of the HABIT pipeline.

use std::fmt;

/// Errors surfaced by model fitting and imputation.
#[derive(Debug)]
pub enum HabitError {
    /// The trip table is missing a required column or has a wrong type.
    BadInput(aggdb::AggError),
    /// Grid operation failed (invalid resolution or coordinate).
    Grid(hexgrid::HexError),
    /// The model has no nodes (e.g. all trips were filtered out).
    EmptyModel,
    /// No path exists between the snapped gap endpoints.
    NoPath {
        /// Snapped start cell id.
        from: u64,
        /// Snapped goal cell id.
        to: u64,
    },
    /// Deserialization failed (corrupt or incompatible blob).
    BadModelBlob,
    /// A track passed to [`repair_track`](crate::HabitModel::repair_track)
    /// was not sorted by timestamp.
    UnsortedInput,
    /// A serialized fit state carries a version this build does not
    /// speak (or the model blob embeds no state at all where one is
    /// required, e.g. refitting a v1 model).
    StateVersion {
        /// Version found in the blob (0 when the blob has no state).
        found: u8,
        /// Highest version this build supports.
        supported: u8,
    },
    /// A refit tried to merge partial aggregates accumulated under a
    /// different fit configuration (resolution, projection, tolerance,
    /// cell-span filter): the aggregates are not comparable, so the
    /// delta must be re-accumulated under the saved state's config.
    ConfigDrift,
}

impl fmt::Display for HabitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HabitError::BadInput(e) => write!(f, "bad trip table: {e}"),
            HabitError::Grid(e) => write!(f, "grid error: {e}"),
            HabitError::EmptyModel => write!(f, "model has no transition graph nodes"),
            HabitError::NoPath { from, to } => {
                write!(f, "no path between cells {from:#x} and {to:#x}")
            }
            HabitError::BadModelBlob => write!(f, "invalid serialized model"),
            HabitError::UnsortedInput => write!(f, "track is not sorted by timestamp"),
            HabitError::StateVersion {
                found: 0,
                supported,
            } => {
                write!(
                    f,
                    "model blob embeds no fit state (v1 or stateless blob) — refit needs a \
                     model fitted with --save-state (state versions up to {supported})"
                )
            }
            HabitError::StateVersion { found, supported } => {
                write!(
                    f,
                    "unsupported fit-state version {found} (this build speaks up to {supported})"
                )
            }
            HabitError::ConfigDrift => {
                write!(
                    f,
                    "fit configuration drift: the delta was accumulated under a different \
                     configuration than the saved fit state"
                )
            }
        }
    }
}

impl std::error::Error for HabitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HabitError::BadInput(e) => Some(e),
            HabitError::Grid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<aggdb::AggError> for HabitError {
    fn from(e: aggdb::AggError) -> Self {
        HabitError::BadInput(e)
    }
}

impl From<hexgrid::HexError> for HabitError {
    fn from(e: hexgrid::HexError) -> Self {
        HabitError::Grid(e)
    }
}
