//! The load generator: closed-loop and open-loop phases over real TCP
//! connections, one thread per connection, every response checked
//! against the reference answer as it arrives.

use crate::daemon::Connection;
use crate::data::Sequence;
use habit_service::wire;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A send later than this after its due time counts as late.
const LATE: Duration = Duration::from_millis(1);
/// Threads sleep until this long before a due time and spin the rest.
const SPIN: Duration = Duration::from_micros(200);

/// What one phase sent and got back.
#[derive(Debug, Default)]
pub struct Phase {
    /// Requests sent.
    pub sent: usize,
    /// Responses byte-equal to the reference answer.
    pub ok: usize,
    /// Well-formed error responses (`overloaded`, `no_path`, …); every
    /// pool gap has an imputation as its answer, so each is a failure.
    pub typed_errors: usize,
    /// Transport failures, timeouts, and responses that are neither the
    /// reference answer nor a typed error.
    pub broken: usize,
    /// `(due or send time since phase start, s; latency, ms)` per
    /// answered request.
    pub samples: Vec<(f64, f64)>,
    /// Open loop: sends more than 1 ms after their due time.
    pub late: usize,
    /// Open loop: the longest such delay, ms.
    pub max_lag_ms: f64,
    /// First operation index the phase did not use.
    pub next_op: usize,
}

impl Phase {
    /// Requests that did not get their reference answer.
    pub fn failed(&self) -> usize {
        self.sent - self.ok
    }

    /// Completion times, seconds since phase start.
    pub fn completions(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.0 + s.1 / 1e3).collect()
    }

    /// Latencies, ms, ascending.
    pub fn sorted_latencies(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        crate::stats::sort(&mut v);
        v
    }

    fn absorb(&mut self, other: Phase) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.typed_errors += other.typed_errors;
        self.broken += other.broken;
        self.samples.extend(other.samples);
        self.late += other.late;
        self.max_lag_ms = self.max_lag_ms.max(other.max_lag_ms);
    }
}

/// Sends operation `op` and files the outcome; `origin_s` is the time
/// the latency counts from. Returns `false` when the connection is no
/// longer usable.
fn exchange(
    conn: &mut Connection,
    seq: &Sequence,
    op: usize,
    request: &str,
    start: Instant,
    origin_s: f64,
    phase: &mut Phase,
) -> bool {
    phase.sent += 1;
    let response = conn.send(request).and_then(|()| conn.receive());
    let done_s = start.elapsed().as_secs_f64();
    match response {
        Ok(line) => {
            phase.samples.push((origin_s, (done_s - origin_s) * 1e3));
            if seq.is_correct(op, line) {
                phase.ok += 1;
            } else if matches!(wire::decode_response(line), Ok(Err(_))) {
                phase.typed_errors += 1;
            } else {
                phase.broken += 1;
            }
            true
        }
        Err(_) => {
            phase.broken += 1;
            false
        }
    }
}

/// Runs `lane(index, connection)` on one thread per connection and sums
/// what the lanes report.
fn on_every_connection(
    conns: &mut [Connection],
    lane: impl Fn(usize, &mut Connection) -> Phase + Sync,
) -> Phase {
    let mut total = Phase::default();
    let lane = &lane;
    let parts: Vec<Phase> = std::thread::scope(|s| {
        let workers: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(index, conn)| s.spawn(move || lane(index, conn)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("load thread"))
            .collect()
    });
    for part in parts {
        total.absorb(part);
    }
    total
}

/// Closed loop: each connection sends its next request as soon as the
/// previous one is answered, for `duration` and until `min_ops`
/// operations are out. Operations are handed out in sequence order
/// from `first_op`.
pub fn closed_loop(
    conns: &mut [Connection],
    seq: &Sequence,
    first_op: usize,
    duration: Duration,
    min_ops: usize,
) -> Phase {
    let next = AtomicUsize::new(first_op);
    let start = Instant::now();
    let mut total = on_every_connection(conns, |_, conn| {
        let mut phase = Phase::default();
        while start.elapsed() < duration || next.load(Ordering::Relaxed) < first_op + min_ops {
            let op = next.fetch_add(1, Ordering::Relaxed);
            let request = seq.request(op);
            let sent_s = start.elapsed().as_secs_f64();
            if !exchange(conn, seq, op, &request, start, sent_s, &mut phase) {
                break;
            }
        }
        phase
    });
    total.next_op = next.load(Ordering::Relaxed);
    total
}

/// Open loop: request `k` is due `k / rate` seconds into the phase and
/// goes out on connection `k % conns`, whether or not earlier answers
/// are back on the other connections; its latency counts from the due
/// time, so a stall is charged to every request it delays.
pub fn open_loop(
    conns: &mut [Connection],
    seq: &Sequence,
    first_op: usize,
    rate: f64,
    duration: Duration,
) -> Phase {
    let arrivals = (rate * duration.as_secs_f64()) as usize;
    let lanes = conns.len();
    let start = Instant::now();
    let mut total = on_every_connection(conns, |lane, conn| {
        let mut phase = Phase::default();
        for k in (lane..arrivals).step_by(lanes) {
            let op = first_op + k;
            let request = seq.request(op);
            let due = Duration::from_secs_f64(k as f64 / rate);
            loop {
                let now = start.elapsed();
                if now >= due {
                    break;
                }
                if due - now > SPIN {
                    std::thread::sleep(due - now - SPIN);
                } else {
                    std::hint::spin_loop();
                }
            }
            let lag = start.elapsed() - due;
            if lag > LATE {
                phase.late += 1;
            }
            phase.max_lag_ms = phase.max_lag_ms.max(lag.as_secs_f64() * 1e3);
            let due_s = due.as_secs_f64();
            if !exchange(conn, seq, op, &request, start, due_s, &mut phase) {
                break;
            }
        }
        phase
    });
    total.next_op = first_op + arrivals;
    total
}
