//! `habit-lint` — the workspace's hand-rolled static-analysis pass.
//!
//! The repo's headline guarantee — models and `FitState` blobs
//! byte-identical at any shard/thread count — is enforced dynamically
//! by proptests and golden files. This crate makes it *statically
//! inspectable* where neither the compiler nor a test can: a comment-
//! and string-aware lexer ([`lexer`]) plus a lightweight token scanner
//! (no `syn`, consistent with the workspace's no-registry, hand-rolled
//! style) drive a pinned registry of lints ([`registry::ALL`]):
//!
//! | ID | name |
//! |----|------|
//! | L001 | unordered-iteration-to-sink |
//! | L003 | float-ordering-hazard |
//! | L005 | lint-suppression-audit |
//!
//! L002 and L004 are retired, never reused: the compiler now forbids
//! `unsafe_code` workspace-wide, and the wire error taxonomy is one
//! table checked by exhaustive matches and tier-1 tests.
//!
//! The `habit-lint` binary runs them over the whole workspace
//! (`--check` for CI, `--json` for the committed machine-readable
//! report); `LINTS.md` is generated from the registry. Silencing is
//! inline only — `// habit-lint: allow(Lxxx) -- reason` — and every
//! suppression is itself audited (L005) and committed to
//! `reports/lint.json`.

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod diag;
pub mod lexer;
pub mod lints;
pub mod registry;
pub mod scan;

pub use diag::{Diagnostic, Report, Suppression};
pub use registry::{render_lints_md, Lint, ALL};
pub use scan::{analyze, check_root, scan_root, SourceFile, Workspace};
