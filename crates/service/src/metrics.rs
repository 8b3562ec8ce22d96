//! The service's metric surface: one [`ServiceMetrics`] per
//! [`crate::Service`], shared by every frontend of that service.
//!
//! Wraps a [`habit_obs::Registry`] (typed counters / gauges /
//! histograms with a pinned snapshot order) and a [`habit_obs::Recorder`]
//! (stage spans on a monotonic µs clock). All durations are integer µs
//! ticks — no `SystemTime` anywhere near a serialized value — and the
//! metric families are fixed here so every exposition path (the
//! `metrics` wire op, the extended `health` payload, the plaintext
//! endpoint of `habit serve --metrics-port`) reports the same names:
//!
//! * `habit_requests_total{op=…}` — every handled request, malformed
//!   lines counted under `op="unknown"`;
//! * `habit_errors_total{code=…,op=…}` — failed requests by taxonomy
//!   code;
//! * `habit_request_latency_us{op=…}` — a fixed-bucket histogram per
//!   op, quantiles derived deterministically from the bucket counts;
//! * `habit_route_cache_hits_total` / `habit_route_cache_misses_total`
//!   — the batch imputer's route cache, accumulated across requests;
//! * `habit_refits_total` — successful fit/refit model swaps;
//! * `habit_connections_open` — live daemon connections (gauge);
//! * `habit_admission_queue_depth` — gaps waiting in the daemon's
//!   cross-connection admission queue (gauge, 0 without coalescing);
//! * `habit_admission_flushes_total` / `habit_admission_submissions_total`
//!   — engine passes admitted through the queue (idle pass-throughs
//!   and coalesced flushes alike), and the connection submissions they
//!   answered;
//! * `habit_admission_flush_cause_total{cause=…}` — the same passes by
//!   why they ran when they did: `idle` (passed through on the caller's
//!   thread), `queued` (piled up behind the pass before and flushed the
//!   moment it ended), `size` (the same, with at least
//!   `--batch-max-gaps` gaps), `drain` (shutdown);
//! * `habit_admission_batch_size` — gaps per admitted pass
//!   (fixed-bucket histogram);
//! * `habit_admission_wait_us` — per queued submission, µs from its
//!   `submit` to the start of the flush that answers it: about one
//!   engine pass under group commit (fixed-bucket histogram);
//! * `habit_admission_rejects_total` — submissions bounced with
//!   `overloaded` because the queue was full;
//! * `habit_spans_dropped_total` — spans the bounded recorder ring did
//!   not keep (evicted to make room, or never kept at capacity 0), so
//!   `GET /spans` says how much history it no longer shows.

use crate::admission::FlushCause;
use crate::error::ErrorCode;
use crate::response::OpLatency;
use habit_engine::BatchStats;
use habit_obs::{Counter, Gauge, Histogram, Recorder, Registry, Snapshot, LATENCY_BUCKETS_US};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Duration;

/// How many finished spans the recorder retains for `GET /spans`.
const SPAN_CAPACITY: usize = 1024;

/// Bucket upper bounds of `habit_admission_batch_size`: gaps per
/// coalesced flush, 1 … 256 in powers of two.
pub const ADMISSION_BATCH_BUCKETS: [u64; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

/// One memoized per-op entry: op name, request counter, latency histogram.
type HotOpEntry = (String, Arc<Counter>, Arc<Histogram>);

/// The per-pass admission series, resolved once (see `hot_ops` for why).
#[derive(Debug)]
struct AdmissionSeries {
    flushes: Arc<Counter>,
    submissions: Arc<Counter>,
    batch_size: Arc<Histogram>,
    wait: Arc<Histogram>,
    /// Indexed by `FlushCause as usize`.
    causes: [Arc<Counter>; FlushCause::ALL.len()],
}

/// Metrics + span recorder of one service instance.
#[derive(Debug)]
pub struct ServiceMetrics {
    registry: Registry,
    recorder: Recorder,
    requests_total: AtomicU64,
    /// Per-op request counter + latency histogram, memoized on first
    /// use: `observe_request` sits on every request, and resolving
    /// through the registry means an allocated `(name, labels)` key
    /// plus a `Mutex<BTreeMap>` walk per metric — deadweight at
    /// serving rates. The handful of wire ops land here after their
    /// first registration and are found by a lock-free-read scan.
    hot_ops: RwLock<Vec<HotOpEntry>>,
    /// Minted by the first admitted pass, so a service without an
    /// admission queue never shows the families.
    admission: OnceLock<AdmissionSeries>,
    /// Set by every queued submission and every flush.
    admission_queue_depth: OnceLock<Arc<Gauge>>,
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServiceMetrics {
    /// A fresh metric surface; the recorder's epoch (and therefore
    /// `uptime_ticks`) starts now.
    pub fn new() -> Self {
        let registry = Registry::new();
        let spans_dropped = registry.counter("habit_spans_dropped_total", &[]);
        Self {
            recorder: Recorder::with_drop_counter(SPAN_CAPACITY, spans_dropped),
            registry,
            requests_total: AtomicU64::new(0),
            hot_ops: RwLock::new(Vec::new()),
            admission: OnceLock::new(),
            admission_queue_depth: OnceLock::new(),
        }
    }

    /// The underlying registry (for exposition).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The span recorder (stage timings; also the tick source).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Microseconds since this service's metrics were created.
    pub fn uptime_ticks(&self) -> u64 {
        self.recorder.ticks()
    }

    /// Requests observed so far, every op and outcome included.
    pub fn requests_total(&self) -> u64 {
        self.requests_total.load(Ordering::Relaxed)
    }

    /// Records one handled request: the per-op counter, its latency
    /// observation, and — when it failed — the per-code error counter.
    /// Malformed requests that never parsed use `op = "unknown"`.
    pub fn observe_request(&self, op: &str, error: Option<ErrorCode>, duration_ticks: u64) {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
        let memoized = {
            let hot = self.hot_ops.read().unwrap_or_else(|e| e.into_inner());
            match hot.iter().find(|(o, ..)| o == op) {
                Some((_, counter, histogram)) => {
                    counter.inc();
                    histogram.observe(duration_ticks);
                    true
                }
                None => false,
            }
        };
        if !memoized {
            // First request under this op: register through the
            // registry (so unknown ops still appear lazily, exactly as
            // before) and memoize the handles for the next one.
            let counter = self.registry.counter("habit_requests_total", &[("op", op)]);
            let histogram = self.registry.histogram(
                "habit_request_latency_us",
                &[("op", op)],
                &LATENCY_BUCKETS_US,
            );
            counter.inc();
            histogram.observe(duration_ticks);
            let mut hot = self.hot_ops.write().unwrap_or_else(|e| e.into_inner());
            if !hot.iter().any(|(o, ..)| o == op) {
                hot.push((op.to_string(), counter, histogram));
            }
        }
        if let Some(code) = error {
            self.registry
                .counter("habit_errors_total", &[("code", code.as_str()), ("op", op)])
                .inc();
        }
    }

    /// Accumulates a batch's route-cache counters.
    pub fn observe_batch(&self, stats: &BatchStats) {
        if stats.cache_hits > 0 {
            self.registry
                .counter("habit_route_cache_hits_total", &[])
                .add(stats.cache_hits as u64);
        }
        if stats.routes_computed > 0 {
            self.registry
                .counter("habit_route_cache_misses_total", &[])
                .add(stats.routes_computed as u64);
        }
    }

    /// Route-cache `(hits, misses)` accumulated so far.
    pub fn route_cache_counts(&self) -> (u64, u64) {
        (
            self.registry
                .counter("habit_route_cache_hits_total", &[])
                .get(),
            self.registry
                .counter("habit_route_cache_misses_total", &[])
                .get(),
        )
    }

    /// Counts one successful model swap (fit or refit).
    pub fn observe_refit(&self) {
        self.registry.counter("habit_refits_total", &[]).inc();
    }

    /// Tracks the daemon's live-connection gauge.
    pub fn connection_opened(&self) {
        self.registry.gauge("habit_connections_open", &[]).add(1);
    }

    /// The paired decrement of [`Self::connection_opened`].
    pub fn connection_closed(&self) {
        self.registry.gauge("habit_connections_open", &[]).add(-1);
    }

    /// Sets the admission-queue depth gauge: gaps currently waiting for
    /// a coalesced flush.
    pub fn set_admission_queue_depth(&self, depth: usize) {
        self.admission_queue_depth
            .get_or_init(|| self.registry.gauge("habit_admission_queue_depth", &[]))
            .set(depth as i64);
    }

    /// Records one admitted engine pass — an idle pass-through or a
    /// coalesced flush: how many connection submissions it answered,
    /// how many gaps the engine batch carried, and why it ran now.
    pub fn observe_admission_flush(&self, submissions: usize, gaps: usize, cause: FlushCause) {
        let series = self.admission_series();
        series.flushes.inc();
        series.submissions.add(submissions as u64);
        series.batch_size.observe(gaps as u64);
        series.causes[cause as usize].inc();
    }

    /// Records how long one queued submission waited for its flush.
    pub fn observe_admission_wait(&self, wait: Duration) {
        let us = u64::try_from(wait.as_micros()).unwrap_or(u64::MAX);
        self.admission_series().wait.observe(us);
    }

    fn admission_series(&self) -> &AdmissionSeries {
        self.admission.get_or_init(|| AdmissionSeries {
            flushes: self.registry.counter("habit_admission_flushes_total", &[]),
            submissions: self
                .registry
                .counter("habit_admission_submissions_total", &[]),
            batch_size: self.registry.histogram(
                "habit_admission_batch_size",
                &[],
                &ADMISSION_BATCH_BUCKETS,
            ),
            wait: self
                .registry
                .histogram("habit_admission_wait_us", &[], &LATENCY_BUCKETS_US),
            causes: FlushCause::ALL.map(|cause| {
                self.registry.counter(
                    "habit_admission_flush_cause_total",
                    &[("cause", cause.as_str())],
                )
            }),
        })
    }

    /// Counts one submission rejected with `overloaded` (queue full).
    pub fn observe_admission_reject(&self) {
        self.registry
            .counter("habit_admission_rejects_total", &[])
            .inc();
    }

    /// Per-op p50/p95/p99 request latency, derived deterministically
    /// from the `habit_request_latency_us` fixed-bucket histograms (the
    /// same estimates the snapshot's `quantile` rows carry), in op
    /// order. Ops with no observations yet do not appear.
    pub fn latency_slos(&self) -> Vec<OpLatency> {
        let snap = self.registry.snapshot();
        let mut by_op: BTreeMap<String, OpLatency> = BTreeMap::new();
        for sample in &snap.samples {
            if sample.name != "habit_request_latency_us" {
                continue;
            }
            let mut op = None;
            let mut quantile = None;
            for (k, v) in &sample.labels {
                match k.as_str() {
                    "op" => op = Some(v.clone()),
                    "quantile" => quantile = Some(v.as_str()),
                    _ => {}
                }
            }
            let (Some(op), Some(quantile)) = (op, quantile) else {
                continue;
            };
            let entry = by_op.entry(op.clone()).or_insert_with(|| OpLatency {
                op,
                p50_us: 0.0,
                p95_us: 0.0,
                p99_us: 0.0,
            });
            match quantile {
                "0.5" => entry.p50_us = sample.value,
                "0.95" => entry.p95_us = sample.value,
                "0.99" => entry.p99_us = sample.value,
                _ => {}
            }
        }
        by_op.into_values().collect()
    }

    /// The snapshot every exposition path serves, in the registry's
    /// pinned order.
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_observations_feed_every_family() {
        let m = ServiceMetrics::new();
        m.observe_request("impute", None, 120);
        m.observe_request("impute", Some(ErrorCode::NoPath), 80);
        m.observe_request("unknown", Some(ErrorCode::BadRequest), 5);
        assert_eq!(m.requests_total(), 3);
        let text = habit_obs::text::render(&m.snapshot());
        assert!(
            text.contains("habit_requests_total{op=\"impute\"} 2\n"),
            "{text}"
        );
        assert!(text.contains("habit_requests_total{op=\"unknown\"} 1\n"));
        assert!(text.contains("habit_errors_total{code=\"no_path\",op=\"impute\"} 1\n"));
        assert!(text.contains("habit_errors_total{code=\"bad_request\",op=\"unknown\"} 1\n"));
        assert!(text.contains("habit_request_latency_us_count{op=\"impute\"} 2\n"));
    }

    #[test]
    fn cache_refit_and_connection_counters_accumulate() {
        let m = ServiceMetrics::new();
        m.observe_batch(&BatchStats {
            queries: 4,
            ok: 4,
            failed: 0,
            unique_routes: 3,
            cache_hits: 1,
            routes_computed: 2,
        });
        m.observe_batch(&BatchStats {
            cache_hits: 4,
            ..BatchStats::default()
        });
        assert_eq!(m.route_cache_counts(), (5, 2));
        m.observe_refit();
        m.connection_opened();
        m.connection_opened();
        m.connection_closed();
        let text = habit_obs::text::render(&m.snapshot());
        assert!(text.contains("habit_refits_total 1\n"));
        assert!(text.contains("habit_connections_open 1\n"));
        // Zero-valued batches never mint the counter families early.
        assert!(text.contains("habit_route_cache_hits_total 5\n"));
        assert!(text.contains("habit_route_cache_misses_total 2\n"));
    }

    #[test]
    fn admission_counters_and_slos_render() {
        let m = ServiceMetrics::new();
        m.set_admission_queue_depth(5);
        m.observe_admission_flush(3, 7, FlushCause::Size);
        m.observe_admission_flush(1, 1, FlushCause::Idle);
        m.observe_admission_reject();
        m.observe_admission_wait(Duration::from_micros(40));
        m.observe_admission_wait(Duration::from_micros(300));
        let text = habit_obs::text::render(&m.snapshot());
        assert!(text.contains("habit_admission_queue_depth 5\n"), "{text}");
        assert!(text.contains("habit_admission_flushes_total 2\n"));
        assert!(text.contains("habit_admission_submissions_total 4\n"));
        assert!(text.contains("habit_admission_rejects_total 1\n"));
        assert!(text.contains("habit_admission_batch_size_count 2\n"));
        assert!(text.contains("habit_admission_wait_us_bucket{le=\"50\"} 1\n"));
        assert!(text.contains("habit_admission_wait_us_count 2\n"));
        assert!(text.contains("habit_admission_wait_us_sum 340\n"));
        // One increment per pass, under its cause; the other causes
        // read 0 rather than being absent.
        for (cause, n) in [("idle", 1), ("queued", 0), ("size", 1), ("drain", 0)] {
            let row = format!("habit_admission_flush_cause_total{{cause=\"{cause}\"}} {n}\n");
            assert!(text.contains(&row), "{row} missing from {text}");
        }

        // SLOs derive from the per-op latency histograms: one op with
        // known observations lands its quantiles inside the right
        // buckets; an op never observed does not appear.
        m.observe_request("impute", None, 120);
        m.observe_request("impute", None, 180);
        m.observe_request("impute", None, 9_000);
        m.observe_request("health", None, 40);
        let slos = m.latency_slos();
        assert_eq!(slos.len(), 2, "{slos:?}");
        assert_eq!(slos[0].op, "health");
        assert_eq!(slos[1].op, "impute");
        assert!(slos[0].p50_us <= 50.0, "{slos:?}");
        assert!(
            slos[1].p50_us > 100.0 && slos[1].p50_us <= 250.0,
            "{slos:?}"
        );
        assert!(
            slos[1].p99_us > 5_000.0 && slos[1].p99_us <= 10_000.0,
            "{slos:?}"
        );
    }

    #[test]
    fn spans_the_ring_drops_are_counted() {
        let m = ServiceMetrics::new();
        let text = habit_obs::text::render(&m.snapshot());
        assert!(text.contains("habit_spans_dropped_total 0\n"), "{text}");
        for _ in 0..SPAN_CAPACITY + 2 {
            m.recorder().span("stage", "impute").finish();
        }
        assert_eq!(m.recorder().len(), SPAN_CAPACITY);
        let text = habit_obs::text::render(&m.snapshot());
        assert!(text.contains("habit_spans_dropped_total 2\n"), "{text}");
    }

    #[test]
    fn uptime_is_monotonic() {
        let m = ServiceMetrics::new();
        let a = m.uptime_ticks();
        let b = m.uptime_ticks();
        assert!(b >= a);
    }
}
