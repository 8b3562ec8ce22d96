//! Cross-connection admission batching: the bounded queue between the
//! daemon's connection workers and the engine.
//!
//! There is one way a gap gets answered — `Service::answer`, one engine
//! batch over the submissions it is handed — and this layer only
//! decides *how many* submissions share that batch. Without it every
//! request is a flush of its own single submission on its caller's
//! thread, so N concurrent clients asking for overlapping routes each
//! pay a full snap + dedup + search pass. With it, every in-flight
//! `Impute` / `ImputeBatch` submits its gaps into one
//! [`AdmissionQueue`]; a single flusher thread drains the queue on a
//! time-or-size trigger (`--batch-window-us` / `--batch-max-gaps`) into
//! **one** shared engine batch per flush, and each submission's results
//! come back through its [`CompletionSlot`]. Grouping is invisible to
//! answers (the service-level scatter tests pin byte-identity to each
//! submission served alone), so the only observable differences are
//! throughput, latency, and the typed `overloaded` rejection when the
//! queue is full.
//!
//! Backpressure is a bound on *gaps*, not submissions: a submission is
//! admitted only when its gaps fit into the remaining capacity,
//! otherwise it is rejected immediately with
//! [`crate::ErrorCode::Overloaded`] — the accept loop never blocks on a
//! full queue, and a batch larger than the whole capacity is refused
//! outright (split it or raise `--batch-max-gaps`).
//!
//! Shutdown drains instead of dropping: [`AdmissionQueue::close`] stops
//! new admissions (late submitters are answered on their own thread)
//! while [`AdmissionQueue::next_flush`] keeps handing out queued
//! submissions until the queue is empty, so every admitted gap is
//! answered before the flusher exits.

use crate::error::{ErrorCode, ServiceError};
use crate::response::BatchOutcome;
use habit_core::GapQuery;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Tunables of the admission layer (the daemon's `--batch-window-us` /
/// `--batch-max-gaps` flags).
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// How long the flusher waits after the first queued gap for more
    /// traffic to coalesce with, µs. Longer windows batch more but add
    /// up to this much latency to a lone request.
    pub batch_window_us: u64,
    /// Queued gaps that trigger an immediate flush, no window wait.
    pub batch_max_gaps: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            batch_window_us: 1_000,
            batch_max_gaps: 128,
        }
    }
}

impl AdmissionConfig {
    /// Queue capacity in gaps: submissions past it reject with
    /// `overloaded`. Eight flushes' worth of headroom over the flush
    /// trigger.
    pub fn queue_capacity(&self) -> usize {
        self.batch_max_gaps.max(1) * 8
    }
}

/// The slot a connection worker blocks on while the flusher answers its
/// submission (the waiting request stamps the outcome's `wall_s`).
#[derive(Debug, Default)]
pub(crate) struct CompletionSlot {
    state: Mutex<Option<Result<BatchOutcome, ServiceError>>>,
    ready: Condvar,
}

impl CompletionSlot {
    /// Delivers the submission's outcome and wakes the waiter. Called
    /// exactly once per slot.
    pub fn complete(&self, outcome: Result<BatchOutcome, ServiceError>) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        *state = Some(outcome);
        self.ready.notify_all();
    }

    /// Blocks until the flusher delivers the outcome.
    pub fn wait(&self) -> Result<BatchOutcome, ServiceError> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(outcome) = state.take() {
                return outcome;
            }
            state = self.ready.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// One admitted request's worth of gaps, waiting for a flush.
pub(crate) struct Submission {
    /// The gaps, in the request's query order.
    pub gaps: Vec<GapQuery>,
    /// Whether the request asked for per-point provenance.
    pub provenance: bool,
    /// Where the flusher delivers this submission's answer.
    pub slot: Arc<CompletionSlot>,
}

/// What [`AdmissionQueue::submit`] decided.
#[derive(Debug)]
pub(crate) enum Admitted {
    /// Queued: block on the slot for the flushed answer.
    Queued(Arc<CompletionSlot>),
    /// The queue is closed (daemon draining): answer on the caller's
    /// thread.
    Bypass,
}

struct QueueState {
    entries: Vec<Submission>,
    queued_gaps: usize,
    closed: bool,
}

/// The bounded cross-connection queue plus its flush triggers. One per
/// serving daemon; connection workers `submit`, the single flusher
/// thread loops on `next_flush`.
pub(crate) struct AdmissionQueue {
    state: Mutex<QueueState>,
    /// Signaled on arrivals and on close; the flusher waits here.
    arrivals: Condvar,
    window: Duration,
    max_gaps: usize,
    capacity: usize,
}

impl AdmissionQueue {
    pub fn new(config: AdmissionConfig) -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(QueueState {
                entries: Vec::new(),
                queued_gaps: 0,
                closed: false,
            }),
            arrivals: Condvar::new(),
            window: Duration::from_micros(config.batch_window_us),
            max_gaps: config.batch_max_gaps.max(1),
            capacity: config.queue_capacity(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Queue capacity, gaps.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Gaps currently queued (the `habit_admission_queue_depth` gauge).
    pub fn depth(&self) -> usize {
        self.lock().queued_gaps
    }

    /// Admits `gaps` as one submission, or rejects with `overloaded`
    /// when they do not fit the remaining capacity. Never blocks.
    pub fn submit(&self, gaps: Vec<GapQuery>, provenance: bool) -> Result<Admitted, ServiceError> {
        let mut state = self.lock();
        if state.closed {
            return Ok(Admitted::Bypass);
        }
        if state.queued_gaps + gaps.len() > self.capacity {
            return Err(ServiceError::new(
                ErrorCode::Overloaded,
                format!(
                    "admission queue full: {} gaps queued + {} submitted > capacity {} — \
                     back off and retry (or raise --batch-max-gaps)",
                    state.queued_gaps,
                    gaps.len(),
                    self.capacity
                ),
            ));
        }
        let slot = Arc::new(CompletionSlot::default());
        state.queued_gaps += gaps.len();
        state.entries.push(Submission {
            gaps,
            provenance,
            slot: Arc::clone(&slot),
        });
        drop(state);
        self.arrivals.notify_all();
        Ok(Admitted::Queued(slot))
    }

    /// Blocks until there is a batch to flush: waits for a first
    /// submission, then up to the batch window for more (cut short when
    /// the queued gaps reach the size trigger or the queue closes), and
    /// takes everything. Returns `None` only when the queue is closed
    /// *and* empty — the drain contract: every admitted submission is
    /// handed out before the flusher stops.
    pub fn next_flush(&self) -> Option<Vec<Submission>> {
        let mut state = self.lock();
        while state.entries.is_empty() {
            if state.closed {
                return None;
            }
            state = self.arrivals.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        // Something is queued: give concurrent traffic one window to
        // coalesce. Only this thread removes entries, so the queue can
        // only grow while we wait.
        let deadline = Instant::now() + self.window;
        while !state.closed && state.queued_gaps < self.max_gaps {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (next, _) = self
                .arrivals
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            state = next;
        }
        state.queued_gaps = 0;
        Some(std::mem::take(&mut state.entries))
    }

    /// Stops new admissions (submitters bypass the queue) and wakes the
    /// flusher so it drains what is queued and exits.
    pub fn close(&self) {
        self.lock().closed = true;
        self.arrivals.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn gap(i: i64) -> GapQuery {
        GapQuery::new(10.0, 56.0, 0, 10.3, 56.0, 3600 + i)
    }

    #[test]
    fn size_trigger_flushes_without_waiting_for_the_window() {
        let queue = AdmissionQueue::new(AdmissionConfig {
            batch_window_us: 60_000_000, // would hang the test if waited on
            batch_max_gaps: 3,
        });
        queue.submit(vec![gap(0), gap(1)], false).unwrap();
        queue.submit(vec![gap(2)], false).unwrap();
        let t0 = Instant::now();
        let batch = queue.next_flush().expect("open queue");
        assert!(t0.elapsed() < Duration::from_secs(10));
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.iter().map(|s| s.gaps.len()).sum::<usize>(), 3);
        assert_eq!(queue.depth(), 0);
    }

    #[test]
    fn overload_rejects_typed_and_never_blocks() {
        let queue = AdmissionQueue::new(AdmissionConfig {
            batch_window_us: 1_000,
            batch_max_gaps: 2, // capacity 16
        });
        assert_eq!(queue.capacity(), 16);
        queue.submit(vec![gap(0); 16], false).unwrap();
        let err = match queue.submit(vec![gap(1)], false) {
            Err(e) => e,
            Ok(_) => panic!("17th gap must overflow"),
        };
        assert_eq!(err.code, ErrorCode::Overloaded);
        assert!(err.message.contains("admission queue full"), "{err}");
        // A single submission larger than the whole capacity is refused
        // outright, even on an empty queue.
        let fresh = AdmissionQueue::new(AdmissionConfig {
            batch_window_us: 1_000,
            batch_max_gaps: 2,
        });
        assert_eq!(
            fresh.submit(vec![gap(0); 17], false).unwrap_err().code,
            ErrorCode::Overloaded
        );
    }

    #[test]
    fn close_drains_queued_work_then_stops() {
        let queue = AdmissionQueue::new(AdmissionConfig {
            batch_window_us: 1_000,
            batch_max_gaps: 64,
        });
        queue.submit(vec![gap(0)], false).unwrap();
        queue.submit(vec![gap(1)], true).unwrap();
        queue.close();
        // Late submitters bypass instead of erroring or hanging.
        assert!(matches!(
            queue.submit(vec![gap(2)], false).unwrap(),
            Admitted::Bypass
        ));
        let batch = queue.next_flush().expect("drain the admitted work");
        assert_eq!(batch.len(), 2);
        assert!(queue.next_flush().is_none(), "closed and empty");
    }

    #[test]
    fn flusher_wakes_on_arrival_across_threads() {
        let queue = AdmissionQueue::new(AdmissionConfig {
            batch_window_us: 100,
            batch_max_gaps: 8,
        });
        let answered = Arc::new(AtomicUsize::new(0));
        let flusher = {
            let queue = Arc::clone(&queue);
            let answered = Arc::clone(&answered);
            std::thread::spawn(move || {
                while let Some(batch) = queue.next_flush() {
                    for submission in batch {
                        answered.fetch_add(submission.gaps.len(), Ordering::SeqCst);
                        submission
                            .slot
                            .complete(Err(ServiceError::internal("test")));
                    }
                }
            })
        };
        let mut slots = Vec::new();
        for i in 0..5 {
            match queue.submit(vec![gap(i)], false).unwrap() {
                Admitted::Queued(slot) => slots.push(slot),
                Admitted::Bypass => panic!("queue is open"),
            }
        }
        for slot in slots {
            assert!(slot.wait().is_err(), "test flusher answers with an error");
        }
        queue.close();
        flusher.join().unwrap();
        assert_eq!(answered.load(Ordering::SeqCst), 5);
    }
}
