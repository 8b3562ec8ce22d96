//! A minimal argument parser: `habit <command> [positional] [--flag value
//! | --switch]...`. Hand-rolled because the workspace's sanctioned
//! dependency list has no CLI crate — and the surface is tiny.

use std::collections::BTreeMap;
use std::fmt;

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The subcommand (first argument).
    pub command: String,
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
    /// `--key value` pairs; bare `--key` switches map to `"true"`.
    flags: BTreeMap<String, String>,
}

/// Argument errors, reported with the offending key.
#[derive(Debug, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand given.
    NoCommand,
    /// A required flag is missing.
    Missing(String),
    /// A flag value failed to parse.
    Invalid {
        /// Flag name.
        key: String,
        /// Raw value.
        value: String,
        /// Expected type description.
        expected: &'static str,
    },
    /// An unknown flag was passed (typo protection).
    Unknown(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::NoCommand => write!(f, "no command given (try `habit help`)"),
            ArgError::Missing(k) => write!(f, "missing required flag --{k}"),
            ArgError::Invalid {
                key,
                value,
                expected,
            } => {
                write!(f, "--{key} {value}: expected {expected}")
            }
            ArgError::Unknown(k) => write!(f, "unknown flag --{k}"),
        }
    }
}

impl std::error::Error for ArgError {}

impl From<ArgError> for habit_service::ServiceError {
    /// Every argument error is a `bad_request` in the unified taxonomy
    /// (exit code 2), same as a malformed daemon request.
    fn from(e: ArgError) -> Self {
        habit_service::ServiceError::bad_request(e.to_string())
    }
}

impl Args {
    /// Parses raw arguments (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Self, ArgError> {
        let mut iter = raw.into_iter().peekable();
        let command = iter.next().ok_or(ArgError::NoCommand)?;
        let mut args = Args {
            command,
            ..Args::default()
        };
        while let Some(token) = iter.next() {
            if let Some(key) = token.strip_prefix("--") {
                // A value follows unless the next token is another flag.
                let value = match iter.peek() {
                    Some(next) if !next.starts_with("--") => iter.next().expect("peeked"),
                    _ => "true".to_string(),
                };
                args.flags.insert(key.to_string(), value);
            } else {
                args.positional.push(token);
            }
        }
        Ok(args)
    }

    /// Rejects any flag not in `allowed` (typo protection).
    pub fn check_flags(&self, allowed: &[&str]) -> Result<(), ArgError> {
        for key in self.flags.keys() {
            if !allowed.contains(&key.as_str()) {
                return Err(ArgError::Unknown(key.clone()));
            }
        }
        Ok(())
    }

    /// Raw string flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// Required string flag.
    pub fn require(&self, key: &str) -> Result<&str, ArgError> {
        self.get(key).ok_or_else(|| ArgError::Missing(key.into()))
    }

    /// Optional typed flag with a default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| ArgError::Invalid {
                key: key.into(),
                value: raw.into(),
                expected: std::any::type_name::<T>(),
            }),
        }
    }

    /// `true` when `--key` was passed (with or without a value).
    pub fn switch(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Args, ArgError> {
        Args::parse(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_command_flags_and_positionals() {
        let a = parse(&["fit", "data.csv", "--resolution", "9", "--verbose"]).unwrap();
        assert_eq!(a.command, "fit");
        assert_eq!(a.positional, vec!["data.csv"]);
        assert_eq!(a.get("resolution"), Some("9"));
        assert!(a.switch("verbose"));
        assert!(!a.switch("quiet"));
    }

    #[test]
    fn typed_accessors() {
        let a = parse(&["x", "--r", "9", "--t", "100.5"]).unwrap();
        assert_eq!(a.get_or("r", 0u8).unwrap(), 9);
        assert_eq!(a.get_or("t", 0.0f64).unwrap(), 100.5);
        assert_eq!(a.get_or("missing", 7u32).unwrap(), 7);
        assert!(matches!(a.get_or("t", 0u8), Err(ArgError::Invalid { .. })));
    }

    #[test]
    fn missing_and_unknown_flags() {
        let a = parse(&["x", "--good", "1"]).unwrap();
        assert_eq!(a.require("bad"), Err(ArgError::Missing("bad".into())));
        assert!(a.check_flags(&["good"]).is_ok());
        assert_eq!(
            a.check_flags(&["other"]),
            Err(ArgError::Unknown("good".into()))
        );
    }

    #[test]
    fn empty_input_is_no_command() {
        assert_eq!(parse(&[]).unwrap_err(), ArgError::NoCommand);
    }

    #[test]
    fn switch_before_another_flag_gets_true() {
        let a = parse(&["x", "--a", "--b", "2"]).unwrap();
        assert_eq!(a.get("a"), Some("true"));
        assert_eq!(a.get("b"), Some("2"));
    }

    #[test]
    fn negative_numbers_are_values_not_flags() {
        // "-3.5" does not start with "--", so it is consumed as a value.
        let a = parse(&["x", "--lon", "-3.5"]).unwrap();
        assert_eq!(a.get("lon"), Some("-3.5"));
    }
}
