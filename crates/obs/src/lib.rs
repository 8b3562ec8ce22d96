//! # habit-obs — structured tracing + metrics for the serving stack
//!
//! A dependency-free (std-only) observability substrate shared by the
//! engine, the service facade, and the daemon:
//!
//! * [`span`] — a hand-rolled monotonic-clock span recorder
//!   ([`Recorder`] / [`SpanGuard`]) with a bounded ring buffer. All
//!   serialized timestamps are **ticks**: microseconds since the
//!   recorder's own [`std::time::Instant`] epoch — never
//!   `std::time::SystemTime`, so serialized output stays inside the
//!   wire's ±2^53 exact-integer domain (2^53 µs ≈ 285 years) and is
//!   immune to wall-clock steps.
//! * [`metrics`] — typed [`Counter`] / [`Gauge`] / [`Histogram`]
//!   primitives behind a [`Registry`] keyed by `(name, labels)`. The
//!   histogram layout is fixed at construction (deterministic bucket
//!   bounds), and [`Registry::snapshot`] renders a fully deterministic
//!   sample list: BTreeMap key order, buckets in bound order, then
//!   count / sum / p50 / p95 / p99.
//! * [`text`] — the Prometheus-style plaintext renderer
//!   (`name{label="v"} value`, one sample per line) behind
//!   `habit serve --metrics-port`.
//!
//! Everything is thread-safe behind `&self` (atomics + one mutex per
//! registry map / ring buffer) and allocation-light on the hot path: a
//! caller holds `Arc<Counter>` / `Arc<Histogram>` handles resolved
//! once, and per-request cost is a few atomic adds.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod metrics;
pub mod span;
pub mod text;

pub use metrics::{Counter, Gauge, Histogram, Registry, Sample, Snapshot, LATENCY_BUCKETS_US};
pub use span::{Recorder, SpanGuard, SpanRecord};
