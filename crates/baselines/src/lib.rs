//! # baselines — the competitor methods of the paper's evaluation
//!
//! Three imputation baselines, re-implemented from their publications:
//!
//! * [`sli`] — **SLI**, straight-line interpolation: naively connects the
//!   gap endpoints with a direct segment (the paper's naive baseline);
//! * [`gti`] — **GTI** (Isufaj et al., SIGSPATIAL '23): a network-less,
//!   graph-based method whose nodes are the raw training *points*;
//!   consecutive points of each trip are linked, points of different
//!   trips within radius `rd` degrees / `rm` meters are cross-linked, and
//!   gaps are answered with Dijkstra over the point graph. Accurate on
//!   confined routes, but the model is orders of magnitude larger than
//!   HABIT's (paper Table 2) and queries are slower (Table 4);
//! * [`palmto`] — **PaLMTO** (Mohammed et al., MDM '24): an N-gram
//!   probabilistic language model over grid-cell tokens that generates
//!   the next cell from the previous `N-1`; the paper reports it timing
//!   out at inference, which this implementation reproduces with an
//!   explicit generation budget.
//!
//! All three share the [`GapQuery`](habit_core's) shape via plain timed
//! points so the evaluation harness can treat every method uniformly.
//!
//! ## Where each baseline wins and loses
//!
//! | method | model | strength | weakness (paper evidence) |
//! |--------|-------|----------|---------------------------|
//! | SLI | none | zero cost, always answers | ignores geography entirely (Fig. 5) |
//! | GTI | point graph over raw training positions | most accurate on confined routes (Fig. 5, KIEL) | model size explodes with `rd` (Table 2); slowest queries (Table 4) |
//! | PaLMTO | N-gram over grid tokens | compact models | generation frequently times out (reproduced in `ablation_palmto`) |
//!
//! The `eval` crate wraps all of them (and HABIT) behind
//! `eval::Imputer`, which the experiment grid (`eval::Grid`) sweeps; the
//! committed numbers live in `EXPERIMENTS.md`.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod gti;
pub mod palmto;
pub mod sli;

pub use gti::{GtiConfig, GtiModel};
pub use palmto::{PalmtoConfig, PalmtoError, PalmtoModel};
pub use sli::impute_sli;
