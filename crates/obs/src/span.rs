//! Monotonic-clock spans with a bounded ring buffer.
//!
//! A [`Recorder`] owns one [`std::time::Instant`] epoch; every span
//! start and duration is expressed in **ticks** — microseconds since
//! that epoch — so serialized records never touch `SystemTime` and fit
//! the wire's exact-integer domain for centuries of uptime. Spans are
//! recorded on drop ([`SpanGuard`]) or injected directly
//! ([`Recorder::record`], which deterministic tests use), and the ring
//! keeps the most recent `capacity` records, counting every record it
//! drops.

use crate::metrics::Counter;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One finished span: a named stage of one operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Stage name (`"parse"`, `"route"`, `"impute"`, `"render"`,
    /// `"fit.accumulate"`, …). Static so hot-path spans never allocate
    /// for the name.
    pub name: &'static str,
    /// Operation label — usually the wire op token (`"impute"`,
    /// `"refit"`, …) or `"unknown"` for unparseable requests. Those are
    /// all literals, so the label borrows; only a caller with a
    /// computed label pays for an owned one.
    pub op: Cow<'static, str>,
    /// Start, in µs ticks since the recorder's epoch.
    pub start_ticks: u64,
    /// Duration in µs ticks.
    pub duration_ticks: u64,
    /// Whether the stage completed without error.
    pub ok: bool,
}

/// Thread-safe span sink: a monotonic epoch plus a bounded ring of the
/// most recent [`SpanRecord`]s.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    capacity: usize,
    ring: Mutex<VecDeque<SpanRecord>>,
    dropped: Arc<Counter>,
}

impl Recorder {
    /// A recorder keeping at most `capacity` records (oldest evicted
    /// first). Capacity 0 keeps nothing but still hands out ticks.
    pub fn new(capacity: usize) -> Self {
        Self::with_drop_counter(capacity, Arc::default())
    }

    /// As [`Recorder::new`], counting dropped records into `dropped` —
    /// typically a registry counter, so the drops are exported.
    pub fn with_drop_counter(capacity: usize, dropped: Arc<Counter>) -> Self {
        Recorder {
            epoch: Instant::now(),
            capacity,
            ring: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            dropped,
        }
    }

    /// Microseconds elapsed since this recorder was created. Monotonic;
    /// saturates at `u64::MAX` µs (≈ 585 000 years).
    pub fn ticks(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Starts a span; the guard records on [`SpanGuard::finish`] or
    /// drop.
    pub fn span(&self, name: &'static str, op: impl Into<Cow<'static, str>>) -> SpanGuard<'_> {
        SpanGuard {
            recorder: self,
            name,
            op: op.into(),
            start_ticks: self.ticks(),
            ok: true,
            armed: true,
        }
    }

    /// Appends a record directly — the injection seam deterministic
    /// tests use, and what [`SpanGuard`] calls.
    pub fn record(&self, record: SpanRecord) {
        if self.capacity == 0 {
            self.dropped.inc();
            return;
        }
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped.inc();
        }
        ring.push_back(record);
    }

    /// Records dropped so far: evicted from the full ring, or never
    /// kept at capacity 0. Every record ever recorded is either
    /// retained or counted here.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Snapshot of the ring, oldest first.
    pub fn recent(&self) -> Vec<SpanRecord> {
        let ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        ring.iter().cloned().collect()
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ring's bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// An in-flight span; records itself into the recorder when finished
/// or dropped — so early returns and panics still leave a record.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    recorder: &'a Recorder,
    name: &'static str,
    op: Cow<'static, str>,
    start_ticks: u64,
    ok: bool,
    armed: bool,
}

impl SpanGuard<'_> {
    /// Marks the span as failed; it still records on finish/drop.
    pub fn fail(&mut self) {
        self.ok = false;
    }

    /// Ends the span now and returns its duration in µs ticks.
    pub fn finish(mut self) -> u64 {
        self.armed = false;
        let duration = self.recorder.ticks().saturating_sub(self.start_ticks);
        self.recorder.record(SpanRecord {
            name: self.name,
            op: std::mem::take(&mut self.op),
            start_ticks: self.start_ticks,
            duration_ticks: duration,
            ok: self.ok,
        });
        duration
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let duration = self.recorder.ticks().saturating_sub(self.start_ticks);
        self.recorder.record(SpanRecord {
            name: self.name,
            op: std::mem::take(&mut self.op),
            start_ticks: self.start_ticks,
            duration_ticks: duration,
            ok: self.ok,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_are_monotonic() {
        let r = Recorder::new(8);
        let a = r.ticks();
        let b = r.ticks();
        assert!(b >= a);
    }

    #[test]
    fn guard_records_on_finish_and_on_drop() {
        let r = Recorder::new(8);
        let d = r.span("parse", "impute").finish();
        {
            let mut g = r.span("handle", "impute");
            g.fail();
            // dropped here without finish()
        }
        let spans = r.recent();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "parse");
        assert!(spans[0].ok);
        assert_eq!(spans[0].duration_ticks, d);
        assert_eq!(spans[1].name, "handle");
        assert!(!spans[1].ok, "fail() survives the drop path");
    }

    #[test]
    fn ring_is_bounded_oldest_first_out() {
        let r = Recorder::new(3);
        for i in 0..5u64 {
            r.record(SpanRecord {
                name: "s",
                op: format!("op{i}").into(),
                start_ticks: i,
                duration_ticks: 1,
                ok: true,
            });
        }
        let spans = r.recent();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].op, "op2");
        assert_eq!(spans[2].op, "op4");
        assert_eq!(r.capacity(), 3);
        assert_eq!(r.dropped(), 2, "two evictions, counted");
    }

    #[test]
    fn evictions_are_counted() {
        let dropped = Arc::new(Counter::default());
        let r = Recorder::with_drop_counter(3, Arc::clone(&dropped));
        for i in 0..3 {
            r.span("s", format!("op{i}")).finish();
        }
        assert_eq!(r.dropped(), 0, "filling the ring drops nothing");
        for i in 3..8 {
            r.span("s", format!("op{i}")).finish();
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 5, "one per eviction");
        assert_eq!(dropped.get(), 5, "the shared counter sees them too");
        assert_eq!(Recorder::new(3).dropped(), 0);
    }

    #[test]
    fn zero_capacity_recorder_keeps_nothing() {
        let r = Recorder::new(0);
        r.span("s", "op").finish();
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 1);
        assert!(r.ticks() < u64::MAX);
    }

    #[test]
    fn recorder_is_shareable_across_threads() {
        let r = std::sync::Arc::new(Recorder::new(128));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let r = std::sync::Arc::clone(&r);
                scope.spawn(move || {
                    for _ in 0..16 {
                        r.span("stage", format!("op{t}")).finish();
                    }
                });
            }
        });
        assert_eq!(r.len(), 64);
    }
}
