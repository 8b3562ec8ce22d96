//! # habit-json — the workspace's one JSON reader and writer
//!
//! The workspace builds offline with no serialization dependency, so
//! every JSON byte it reads or writes goes through the tiny [`Json`]
//! value model here: experiment reports (`reports/*.json`), the
//! `habit-wire/v1` line protocol, the `GET /spans` debug lines and the
//! density map's GeoJSON export. One escaper, one number formatter and
//! one depth-bounded parser, so every golden is byte-stable and there
//! is a single parser to fuzz.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod json;

pub use json::{Json, JsonError};
