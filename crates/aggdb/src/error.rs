//! Error type for the aggregation engine.

use std::fmt;

/// Errors produced by table and query operations.
#[derive(Debug)]
pub enum AggError {
    /// Referenced column does not exist.
    UnknownColumn(String),
    /// Column exists but has an incompatible type for the operation.
    TypeMismatch {
        /// Column name.
        column: String,
        /// What the operation expected.
        expected: &'static str,
        /// What the column actually is.
        actual: &'static str,
    },
    /// Row length does not match the schema.
    ArityMismatch {
        /// Number of fields in the schema.
        expected: usize,
        /// Number of values supplied.
        actual: usize,
    },
    /// Columns of a table must all have equal length.
    LengthMismatch,
    /// CSV parse failure with row context.
    Csv {
        /// 1-based line number.
        line: usize,
        /// Description of the failure.
        message: String,
    },
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for AggError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggError::UnknownColumn(name) => write!(f, "unknown column '{name}'"),
            AggError::TypeMismatch {
                column,
                expected,
                actual,
            } => write!(f, "column '{column}': expected {expected}, found {actual}"),
            AggError::ArityMismatch { expected, actual } => {
                write!(f, "row has {actual} values, schema has {expected} fields")
            }
            AggError::LengthMismatch => write!(f, "columns have differing lengths"),
            AggError::Csv { line, message } => write!(f, "csv line {line}: {message}"),
            AggError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for AggError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AggError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for AggError {
    fn from(e: std::io::Error) -> Self {
        AggError::Io(e)
    }
}
