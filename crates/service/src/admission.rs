//! Cross-connection admission batching: the bounded queue between the
//! daemon's connection workers and the engine.
//!
//! There is one way a gap gets answered — `Service::answer`, one engine
//! batch over the submissions it is handed — and this layer only
//! decides *how many* submissions share that batch, and on which
//! thread. A submission is the gaps of one `impute`, `impute_batch` or
//! `repair` request; a repair's gaps are the silences of its track, so
//! a repair queues, passes through and is bounded like a batch. It is plain group commit behind a one-pass *gate*: at most
//! one engine pass runs at a time, and nothing ever waits on a timer.
//!
//! * **Idle pass-through** — a submission that finds the queue empty
//!   and the gate open takes the gate and is answered right there on
//!   its connection thread ([`Admitted::PassThrough`]): a lone request
//!   has no company to wait for, so it pays no hand-off and no wake-up.
//! * **Queued** — a submission that arrives while a pass runs has
//!   company. It queues; the moment the gate opens the single flusher
//!   thread takes *everything* queued and answers it as **one** shared
//!   engine batch, each submission's results coming back through its
//!   [`CompletionSlot`]. A request therefore waits at most for the pass
//!   ahead of it, and the next batch is whatever arrived meanwhile.
//!
//! The gate is a scheduling policy, never a safety property —
//! `Service::answer` is concurrent-safe (it is all `--no-coalesce`
//! runs). Grouping is invisible to answers (the service-level scatter
//! tests pin byte-identity to each submission served alone), so the
//! only observable differences are throughput, latency, and the typed
//! `overloaded` rejection when the queue is full.
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
use std::time::Instant;

/// Tunables of the admission layer (the daemon's `--batch-max-gaps`
/// flag).
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// A flush that carries at least this many gaps is counted under
    /// the `size` cause; eight times it is the queue's capacity.
    pub batch_max_gaps: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            batch_max_gaps: 128,
        }
    }
}

impl AdmissionConfig {
    /// Queue capacity in gaps: submissions past it reject with
    /// `overloaded`. Eight full flushes' worth of headroom.
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
    /// When it was queued (the start of `habit_admission_wait_us`).
    pub queued_at: Instant,
}

/// Why an engine pass ran when it did — the `cause` label of
/// `habit_admission_flush_cause_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushCause {
    /// An idle queue passed the request through on its caller's thread.
    Idle,
    /// The flusher took what queued up behind the pass before it, the
    /// moment the gate opened.
    Queued,
    /// As `Queued`, but at least `batch_max_gaps` gaps were waiting.
    Size,
    /// The queue was closed: the shutdown drain.
    Drain,
}

impl FlushCause {
    /// Every cause, in declaration order (`cause as usize` indexes it).
    pub const ALL: [FlushCause; 4] = [
        FlushCause::Idle,
        FlushCause::Queued,
        FlushCause::Size,
        FlushCause::Drain,
    ];

    /// The stable metric label.
    pub fn as_str(self) -> &'static str {
        match self {
            FlushCause::Idle => "idle",
            FlushCause::Queued => "queued",
            FlushCause::Size => "size",
            FlushCause::Drain => "drain",
        }
    }
}

/// Holds the queue's gate — the right to run the one engine pass in
/// flight. Dropping it (also on unwind) opens the gate and wakes the
/// flusher if work queued up meanwhile.
pub(crate) struct Gate<'q>(&'q AdmissionQueue);

impl std::fmt::Debug for Gate<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Gate")
    }
}

impl Drop for Gate<'_> {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        state.busy = false;
        let flusher_has_work = !state.entries.is_empty();
        drop(state);
        if flusher_has_work {
            self.0.gate_opened.notify_all();
        }
    }
}

/// What [`AdmissionQueue::submit`] decided.
#[derive(Debug)]
pub(crate) enum Admitted<'q> {
    /// Queued behind a running pass: block on the slot for the flushed
    /// answer. `depth` is the gaps queued once this submission joined.
    Queued {
        slot: Arc<CompletionSlot>,
        depth: usize,
    },
    /// The queue was idle: answer on the caller's thread, holding the
    /// gate for as long as that pass runs.
    PassThrough(Gate<'q>),
    /// The queue is closed (daemon draining): answer on the caller's
    /// thread.
    Bypass,
}

/// One batch handed to the flusher: every queued submission, why the
/// pass runs now, and the gate it runs under (released on drop).
pub(crate) struct Flush<'q> {
    pub submissions: Vec<Submission>,
    pub cause: FlushCause,
    _gate: Gate<'q>,
}

struct QueueState {
    entries: Vec<Submission>,
    queued_gaps: usize,
    closed: bool,
    /// An engine pass is in flight (a pass-through or a flush).
    busy: bool,
}

/// The bounded cross-connection queue behind the one-pass gate. One
/// per serving daemon; connection workers `submit`, the single flusher
/// thread loops on `next_flush`.
pub(crate) struct AdmissionQueue {
    state: Mutex<QueueState>,
    /// Signaled on close and when the gate opens onto queued work —
    /// the only two events the flusher can act on. An arrival never
    /// signals it: whatever queues does so behind a pass in flight,
    /// whose gate signals on release.
    gate_opened: Condvar,
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
                busy: false,
            }),
            gate_opened: Condvar::new(),
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

    /// Admits `gaps` as one submission — passed through when the queue
    /// is idle, queued (copied) behind the pass in flight otherwise — or
    /// rejects with `overloaded` when they do not fit the remaining
    /// capacity. Never blocks.
    pub fn submit(
        &self,
        gaps: &[GapQuery],
        provenance: bool,
    ) -> Result<Admitted<'_>, ServiceError> {
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
        if !state.busy && state.entries.is_empty() {
            state.busy = true;
            return Ok(Admitted::PassThrough(Gate(self)));
        }
        let slot = Arc::new(CompletionSlot::default());
        state.queued_gaps += gaps.len();
        let depth = state.queued_gaps;
        state.entries.push(Submission {
            gaps: gaps.to_vec(),
            provenance,
            slot: Arc::clone(&slot),
            queued_at: Instant::now(),
        });
        Ok(Admitted::Queued { slot, depth })
    }

    /// Blocks until something is queued and the gate is open, then
    /// takes everything queued along with the gate. Returns `None` only
    /// when the queue is closed *and* empty — the drain contract: every
    /// admitted submission is handed out before the flusher stops.
    pub fn next_flush(&self) -> Option<Flush<'_>> {
        let mut state = self.lock();
        while state.entries.is_empty() || state.busy {
            if state.closed && state.entries.is_empty() {
                return None;
            }
            state = self
                .gate_opened
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
        let cause = if state.closed {
            FlushCause::Drain
        } else if state.queued_gaps >= self.max_gaps {
            FlushCause::Size
        } else {
            FlushCause::Queued
        };
        state.busy = true;
        state.queued_gaps = 0;
        Some(Flush {
            submissions: std::mem::take(&mut state.entries),
            cause,
            _gate: Gate(self),
        })
    }

    /// Stops new admissions (submitters bypass the queue) and wakes the
    /// flusher so it drains what is queued and exits.
    pub fn close(&self) {
        self.lock().closed = true;
        self.gate_opened.notify_all();
    }

    /// Whether [`Self::close`] has run.
    #[cfg(test)]
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn gap(i: i64) -> GapQuery {
        GapQuery::new(10.0, 56.0, 0, 10.3, 56.0, 3600 + i)
    }

    /// Takes the idle queue's gate, as a pass-through in flight does:
    /// whatever is submitted while the result is held queues.
    fn pass_in_flight(queue: &AdmissionQueue) -> Admitted<'_> {
        let admitted = queue.submit(&[gap(-1)], false).unwrap();
        assert!(matches!(admitted, Admitted::PassThrough(_)), "idle queue");
        admitted
    }

    /// A flush carrying `batch_max_gaps` gaps counts as `size`; it is
    /// handed out as soon as the pass ahead of it ends, like any other.
    #[test]
    fn size_trigger_flushes_without_waiting_for_the_window() {
        let queue = AdmissionQueue::new(AdmissionConfig { batch_max_gaps: 3 });
        let in_flight = pass_in_flight(&queue);
        queue.submit(&[gap(0), gap(1)], false).unwrap();
        queue.submit(&[gap(2)], false).unwrap();
        drop(in_flight);
        let batch = queue.next_flush().expect("open queue");
        assert_eq!(batch.cause, FlushCause::Size);
        let batch = batch.submissions;
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.iter().map(|s| s.gaps.len()).sum::<usize>(), 3);
        assert_eq!(queue.depth(), 0);
    }

    #[test]
    fn overload_rejects_typed_and_never_blocks() {
        let queue = AdmissionQueue::new(AdmissionConfig {
            batch_max_gaps: 2, // capacity 16
        });
        assert_eq!(queue.capacity(), 16);
        let _in_flight = pass_in_flight(&queue);
        queue.submit(&[gap(0); 16], false).unwrap();
        let err = match queue.submit(&[gap(1)], false) {
            Err(e) => e,
            Ok(_) => panic!("17th gap must overflow"),
        };
        assert_eq!(err.code, ErrorCode::Overloaded);
        assert!(err.message.contains("admission queue full"), "{err}");
        // A single submission larger than the whole capacity is refused
        // outright, even on an empty queue.
        let fresh = AdmissionQueue::new(AdmissionConfig { batch_max_gaps: 2 });
        assert_eq!(
            fresh.submit(&[gap(0); 17], false).unwrap_err().code,
            ErrorCode::Overloaded
        );
    }

    #[test]
    fn close_drains_queued_work_then_stops() {
        let queue = AdmissionQueue::new(AdmissionConfig { batch_max_gaps: 64 });
        let in_flight = pass_in_flight(&queue);
        queue.submit(&[gap(0)], false).unwrap();
        queue.submit(&[gap(1)], true).unwrap();
        drop(in_flight);
        queue.close();
        // Late submitters bypass instead of erroring or hanging.
        assert!(matches!(
            queue.submit(&[gap(2)], false).unwrap(),
            Admitted::Bypass
        ));
        let batch = queue.next_flush().expect("drain the admitted work");
        assert_eq!(batch.submissions.len(), 2);
        assert_eq!(batch.cause, FlushCause::Drain);
        assert!(queue.next_flush().is_none(), "closed and empty");
    }

    /// A flusher on another thread is woken by the gate opening onto
    /// the queue — arrivals alone never signal it — and answers it all.
    #[test]
    fn flusher_wakes_on_arrival_across_threads() {
        let queue = AdmissionQueue::new(AdmissionConfig { batch_max_gaps: 8 });
        let answered = Arc::new(AtomicUsize::new(0));
        let flusher = {
            let queue = Arc::clone(&queue);
            let answered = Arc::clone(&answered);
            std::thread::spawn(move || {
                while let Some(batch) = queue.next_flush() {
                    for submission in &batch.submissions {
                        answered.fetch_add(submission.gaps.len(), Ordering::SeqCst);
                        submission
                            .slot
                            .complete(Err(ServiceError::internal("test")));
                    }
                }
            })
        };
        let in_flight = pass_in_flight(&queue);
        let mut slots = Vec::new();
        for i in 0..5 {
            match queue.submit(&[gap(i)], false).unwrap() {
                Admitted::Queued { slot, .. } => slots.push(slot),
                other => panic!("a pass is in flight: {other:?}"),
            }
        }
        drop(in_flight);
        for slot in slots {
            assert!(slot.wait().is_err(), "test flusher answers with an error");
        }
        queue.close();
        flusher.join().unwrap();
        assert_eq!(answered.load(Ordering::SeqCst), 5);
    }

    fn small_queue() -> Arc<AdmissionQueue> {
        AdmissionQueue::new(AdmissionConfig { batch_max_gaps: 4 })
    }

    /// Runs `next_flush` on a thread of its own (started by the time
    /// this returns) and reports each flush (submission count, cause) —
    /// then `None` — over a channel, so a test can order "no flush yet"
    /// against "released" without sleeping.
    fn spawn_flusher(
        queue: &Arc<AdmissionQueue>,
    ) -> (
        std::sync::mpsc::Receiver<Option<(usize, FlushCause)>>,
        std::thread::JoinHandle<()>,
    ) {
        let (tx, rx) = std::sync::mpsc::channel();
        let queue = Arc::clone(queue);
        let started = Arc::new(std::sync::Barrier::new(2));
        let running = Arc::clone(&started);
        let handle = std::thread::spawn(move || {
            running.wait();
            loop {
                let flush = queue.next_flush();
                let report = flush.as_ref().map(|f| (f.submissions.len(), f.cause));
                for submission in flush.iter().flat_map(|f| &f.submissions) {
                    submission
                        .slot
                        .complete(Err(ServiceError::internal("test")));
                }
                drop(flush); // a report means the pass is over
                tx.send(report).unwrap();
                if report.is_none() {
                    return;
                }
            }
        });
        started.wait();
        (rx, handle)
    }

    #[test]
    fn an_idle_queue_passes_through_and_queues_behind_the_gate() {
        let queue = small_queue();
        let Admitted::PassThrough(gate) = queue.submit(&[gap(0)], false).unwrap() else {
            panic!("an idle queue passes through");
        };
        assert_eq!(queue.depth(), 0, "a pass-through queues nothing");

        // While the gate is held the next submissions queue …
        let mut slots = Vec::new();
        for i in 1..=2 {
            match queue.submit(&[gap(i)], i == 2).unwrap() {
                Admitted::Queued { slot, depth } => {
                    assert_eq!(depth, i as usize);
                    slots.push(slot);
                }
                other => panic!("a pass is in flight: {other:?}"),
            }
        }
        // … and the flusher does not get them until it is released:
        // dropping the gate is the only thing that can produce a flush.
        let (flushes, flusher) = spawn_flusher(&queue);
        assert!(flushes.try_recv().is_err(), "gate held, nothing flushed");
        drop(gate);
        assert_eq!(flushes.recv().unwrap(), Some((2, FlushCause::Queued)));
        for slot in slots {
            assert!(slot.wait().is_err(), "test flusher answers with an error");
        }

        // Idle again: the next lone request passes through again.
        assert!(matches!(
            queue.submit(&[gap(3)], false).unwrap(),
            Admitted::PassThrough(_)
        ));
        queue.close();
        assert_eq!(flushes.recv().unwrap(), None);
        flusher.join().unwrap();
    }

    #[test]
    fn queued_work_past_the_size_trigger_reports_size_not_queued() {
        let queue = small_queue();
        let gate = queue.submit(&[gap(0)], false).unwrap();
        queue.submit(&[gap(1); 4], false).unwrap(); // = batch_max_gaps
        drop(gate);
        let flush = queue.next_flush().expect("open queue");
        assert_eq!(flush.cause, FlushCause::Size);
        // The flusher's own pass holds the gate too: no pass-through
        // while it runs, one again once it is over.
        assert!(matches!(
            queue.submit(&[gap(2)], false).unwrap(),
            Admitted::Queued { depth: 1, .. }
        ));
        drop(flush);
        assert_eq!(queue.next_flush().unwrap().cause, FlushCause::Queued);
        assert!(matches!(
            queue.submit(&[gap(3)], false).unwrap(),
            Admitted::PassThrough(_)
        ));
    }

    /// Group commit keeps no memory of past company: after a flush that
    /// carried two submissions, the next lone one on the now idle queue
    /// passes through instead of queueing for a flush of its own.
    #[test]
    fn a_shared_flush_leaves_the_next_lone_submission_passing_through() {
        let queue = AdmissionQueue::new(AdmissionConfig::default());
        let in_flight = pass_in_flight(&queue);
        queue.submit(&[gap(0)], false).unwrap();
        queue.submit(&[gap(1)], false).unwrap();
        drop(in_flight);
        let flush = queue.next_flush().expect("open queue");
        assert_eq!(flush.cause, FlushCause::Queued);
        assert_eq!(flush.submissions.len(), 2);
        drop(flush);
        assert!(matches!(
            queue.submit(&[gap(2)], false).unwrap(),
            Admitted::PassThrough(_)
        ));
        assert_eq!(queue.depth(), 0);
    }

    #[test]
    fn close_with_a_pass_in_flight_still_drains_then_stops() {
        let queue = small_queue();
        let gate = queue.submit(&[gap(0)], false).unwrap();
        let Admitted::Queued { slot, .. } = queue.submit(&[gap(1)], false).unwrap() else {
            panic!("a pass is in flight");
        };
        queue.close();
        assert!(matches!(
            queue.submit(&[gap(2)], false).unwrap(),
            Admitted::Bypass
        ));
        // The drain waits its turn behind the pass like any flush …
        let (flushes, flusher) = spawn_flusher(&queue);
        assert!(flushes.try_recv().is_err(), "gate held, nothing flushed");
        drop(gate);
        // … answers what was admitted, and only then stops.
        assert_eq!(flushes.recv().unwrap(), Some((1, FlushCause::Drain)));
        assert!(slot.wait().is_err(), "test flusher answers with an error");
        assert_eq!(flushes.recv().unwrap(), None);
        flusher.join().unwrap();
    }

    #[test]
    fn a_closed_empty_queue_stops_the_flusher_even_with_a_pass_in_flight() {
        let queue = small_queue();
        let _gate = queue.submit(&[gap(0)], false).unwrap();
        queue.close();
        assert!(queue.next_flush().is_none());
    }

    #[test]
    fn an_unwinding_pass_through_opens_the_gate() {
        let queue = small_queue();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _gate = queue.submit(&[gap(0)], false).unwrap();
            panic!("injected: the pass-through answer panics");
        }));
        assert!(unwound.is_err());
        assert!(matches!(
            queue.submit(&[gap(1)], false).unwrap(),
            Admitted::PassThrough(_)
        ));
    }
}
