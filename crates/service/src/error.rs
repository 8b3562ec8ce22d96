//! The unified error taxonomy of the service API.
//!
//! Every failure the system can produce — argument parsing, file I/O,
//! CSV decoding, model fitting, imputation — maps onto one
//! [`ServiceError`] carrying a stable machine-readable [`ErrorCode`].
//! The codes are part of the wire protocol (clients match on them) and
//! of the CLI contract (each code implies exactly one process exit
//! code), so they must never change meaning once released.

use std::fmt;

/// Declares [`ErrorCode`] from one table — variant, wire token, exit
/// code and meaning per row — so that `ALL`, `as_str`, `exit_code`,
/// `meaning` and the documented tables (rustdoc here, the README via
/// `habit-bench`'s `docs.rs`) cannot disagree.
macro_rules! error_codes {
    ($($variant:ident => $token:literal, $exit:literal, $meaning:literal;)+) => {
        /// Stable machine-readable error codes, one per failure class.
        ///
        /// | code | exit | meaning |
        /// |------|------|---------|
        $(#[doc = concat!("| `", $token, "` | ", $exit, " | ", $meaning, " |")])+
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum ErrorCode {
            $(#[doc = $meaning] $variant,)+
        }

        impl ErrorCode {
            /// Every code, in documentation order (the wire error-code table).
            pub const ALL: [ErrorCode; [$(ErrorCode::$variant),+].len()] =
                [$(ErrorCode::$variant),+];

            /// The wire token of the code (`snake_case`, stable).
            pub fn as_str(self) -> &'static str {
                match self {
                    $(ErrorCode::$variant => $token,)+
                }
            }

            /// What the code means, one line (the README's error table).
            pub fn meaning(self) -> &'static str {
                match self {
                    $(ErrorCode::$variant => $meaning,)+
                }
            }

            /// The process exit code the CLI derives from this error class:
            /// `2` for usage errors, `1` for every runtime failure. (`0` is
            /// success and never appears here.)
            pub fn exit_code(self) -> u8 {
                match self {
                    $(ErrorCode::$variant => $exit,)+
                }
            }
        }
    };
}

error_codes! {
    BadRequest => "bad_request", 2,
        "malformed request: unknown op/flag, bad value, wrong protocol version";
    Io => "io", 1, "file or socket I/O failure";
    Csv => "csv", 1, "CSV input could not be parsed";
    BadInput => "bad_input", 1, "input rows/columns have the wrong shape or type";
    Grid => "grid", 1, "invalid coordinate or grid resolution during an operation";
    NoModel => "no_model", 1, "the operation needs a model but none is loaded";
    EmptyModel => "empty_model", 1, "fit produced (or the model has) no transition graph";
    NoPath => "no_path", 1, "no historical path between the snapped gap endpoints";
    SnapFailed => "snap_failed", 1, "a gap endpoint could not be snapped onto the model";
    BadModelBlob => "bad_model_blob", 1, "a serialized model file is corrupt or incompatible";
    UnsortedInput => "unsorted_input", 1, "a track was not sorted by timestamp";
    StateVersion => "state_version", 1,
        "fit-state version unsupported, or the model embeds no state (refit needs one)";
    ConfigDrift => "config_drift", 1,
        "refit delta accumulated under a different fit configuration";
    Overloaded => "overloaded", 1,
        "the daemon's admission queue is full — back off and retry";
    Internal => "internal", 1, "unexpected internal failure";
}

impl ErrorCode {
    /// Parses a wire token back into a code.
    pub fn parse(token: &str) -> Option<ErrorCode> {
        ErrorCode::ALL.into_iter().find(|c| c.as_str() == token)
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A failed service operation: a stable code plus a human-readable
/// message. This is the single error type every frontend (CLI, TCP
/// daemon, tests) receives, renders, and derives exit codes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceError {
    /// Machine-readable failure class.
    pub code: ErrorCode,
    /// Human-readable diagnostic.
    pub message: String,
}

impl ServiceError {
    /// Builds an error from a code and message.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
        }
    }

    /// A `bad_request` (usage) error.
    pub fn bad_request(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::BadRequest, message)
    }

    /// An `internal` error.
    pub fn internal(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::Internal, message)
    }

    /// The process exit code of [`ErrorCode::exit_code`].
    pub fn exit_code(&self) -> u8 {
        self.code.exit_code()
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ServiceError {}

impl From<habit_core::HabitError> for ServiceError {
    // One arm per variant, no wildcard: a new `HabitError` variant must
    // not compile until it is given its wire code here.
    #[deny(
        unreachable_patterns,
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    fn from(e: habit_core::HabitError) -> Self {
        use habit_core::HabitError;
        let code = match &e {
            HabitError::Grid(_) => ErrorCode::Grid,
            HabitError::EmptyModel => ErrorCode::EmptyModel,
            HabitError::NoPath { .. } => ErrorCode::NoPath,
            HabitError::BadModelBlob => ErrorCode::BadModelBlob,
            HabitError::StateVersion { .. } => ErrorCode::StateVersion,
            HabitError::ConfigDrift => ErrorCode::ConfigDrift,
        };
        Self::new(code, e.to_string())
    }
}

impl From<habit_engine::BatchFailure> for ServiceError {
    fn from(e: habit_engine::BatchFailure) -> Self {
        let code = match &e {
            habit_engine::BatchFailure::NoPath { .. } => ErrorCode::NoPath,
            habit_engine::BatchFailure::Snap(_) => ErrorCode::SnapFailed,
            habit_engine::BatchFailure::InvalidGap(_) => ErrorCode::BadRequest,
        };
        Self::new(code, e.to_string())
    }
}

impl From<std::io::Error> for ServiceError {
    fn from(e: std::io::Error) -> Self {
        Self::new(ErrorCode::Io, e.to_string())
    }
}

impl From<habit_json::JsonError> for ServiceError {
    fn from(e: habit_json::JsonError) -> Self {
        Self::bad_request(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip_their_tokens() {
        for code in ErrorCode::ALL {
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
        }
        assert_eq!(ErrorCode::parse("nonsense"), None);
    }

    /// Pins the full code table: token and exit code per class. Anything
    /// that changes this table changes the public API and must be
    /// deliberate.
    #[test]
    fn code_table_is_pinned() {
        let table: Vec<(&str, u8)> = ErrorCode::ALL
            .into_iter()
            .map(|c| (c.as_str(), c.exit_code()))
            .collect();
        assert_eq!(
            table,
            vec![
                ("bad_request", 2),
                ("io", 1),
                ("csv", 1),
                ("bad_input", 1),
                ("grid", 1),
                ("no_model", 1),
                ("empty_model", 1),
                ("no_path", 1),
                ("snap_failed", 1),
                ("bad_model_blob", 1),
                ("unsorted_input", 1),
                ("state_version", 1),
                ("config_drift", 1),
                ("overloaded", 1),
                ("internal", 1),
            ]
        );
    }

    /// The README's error table (generated from `habit-bench`'s
    /// `docs.rs`) documents exactly the taxonomy: one
    /// `` | `token` | exit | meaning | `` row per code, and no other rows.
    #[test]
    fn readme_error_table_matches_the_taxonomy() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
        let readme = std::fs::read_to_string(path).expect("workspace README.md");
        let mut documented: Vec<&str> = readme
            .lines()
            .skip_while(|line| !line.starts_with("| code | exit |"))
            .skip(2)
            .take_while(|line| line.starts_with('|'))
            .collect();
        documented.sort_unstable();
        let mut expected: Vec<String> = ErrorCode::ALL
            .into_iter()
            .map(|c| format!("| `{}` | {} | {} |", c.as_str(), c.exit_code(), c.meaning()))
            .collect();
        expected.sort_unstable();
        assert_eq!(documented, expected, "README error table vs ErrorCode::ALL");
    }

    #[test]
    fn habit_errors_map_onto_the_taxonomy() {
        let e = ServiceError::from(habit_core::HabitError::BadModelBlob);
        assert_eq!(e.code, ErrorCode::BadModelBlob);
        assert!(e.message.contains("invalid serialized model"));
        assert_eq!(e.exit_code(), 1);

        let e = ServiceError::from(habit_core::HabitError::NoPath { from: 1, to: 2 });
        assert_eq!(e.code, ErrorCode::NoPath);

        let e = ServiceError::bad_request("--frob is not a flag");
        assert_eq!(e.exit_code(), 2);

        // The refit taxonomy additions flow through the same seam.
        let e = ServiceError::from(habit_core::HabitError::StateVersion {
            found: 0,
            supported: habit_core::FITSTATE_VERSION,
        });
        assert_eq!(e.code, ErrorCode::StateVersion);
        assert!(e.message.contains("--save-state"), "{e}");
        let e = ServiceError::from(habit_core::HabitError::ConfigDrift);
        assert_eq!(e.code, ErrorCode::ConfigDrift);
        assert_eq!(e.exit_code(), 1);
    }
}
