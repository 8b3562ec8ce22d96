//! The `habit serve` daemon: blocking line-delimited-JSON over TCP.
//!
//! Hand-rolled on `std::net` — the offline workspace has no tokio or
//! hyper, and the protocol does not need them: each connection is a
//! stream of request lines answered in order ([`crate::wire`]), handled
//! by one of a fixed set of connection workers: scoped threads that
//! drain a channel of accepted streams and are joined before
//! [`serve`] returns.
//!
//! ## Shutdown
//!
//! Graceful shutdown has two triggers:
//!
//! * a `{"v":1,"op":"shutdown"}` request — acknowledged on the issuing
//!   connection, then the accept loop stops and in-flight connections
//!   drain;
//! * the *stdin pipe* closing (when [`ServeOptions::watch_stdin`] is
//!   set) — the supervisor-friendly stand-in for a SIGINT handler in a
//!   std-only build: run `habit serve` with stdin attached to a pipe
//!   and close it (or Ctrl-D) to stop the daemon.
//!
//! The accept loop polls a non-blocking listener and every connection
//! reader uses a short read timeout, so both triggers take effect
//! within tens of milliseconds without any signal machinery.
//!
//! ## Robustness bounds
//!
//! The connection workers are bounded ([`ServeOptions::connection_threads`]),
//! so two abuse shapes are bounded too: a connection that stays silent
//! is closed after [`ServeOptions::idle_timeout`] (freeing its worker —
//! a queued request, including `shutdown`, therefore waits at most one
//! idle timeout even if every worker was held by an idle peer), and a
//! line that grows past [`ServeOptions::max_line_bytes`] (default
//! [`MAX_LINE_BYTES`], tune with `--max-line-bytes`) without a newline
//! gets a `bad_request` reply and the connection is dropped instead of
//! growing daemon memory without limit — such rejections count under
//! the dedicated `op="oversized_line"` metrics label. Transient
//! `accept` errors (interrupts, aborted handshakes, fd exhaustion) are
//! logged and retried — one bad accept never kills the daemon.
//!
//! When the service's admission layer is on (`habit serve` without
//! `--no-coalesce`), shutdown drains it first: the accept loop exits,
//! the admission queue is closed — the flusher answers everything still
//! queued once the pass in flight ends (`cause="drain"`) and is joined
//! — and only then do the connection workers join. A request that
//! reaches the service after the close is answered on its own
//! connection's thread, so a request racing shutdown is answered, not
//! dropped.

use crate::error::ServiceError;
use crate::metrics::ServiceMetrics;
use crate::response::Response;
use crate::service::Service;
use crate::wire;
use habit_obs::SpanRecord;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::Duration;

/// How a running server behaves.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Connection workers (concurrent connections served; further
    /// connections queue).
    pub connection_threads: usize,
    /// When set, a background thread reads stdin to EOF and then
    /// requests shutdown — close the pipe to stop the daemon.
    pub watch_stdin: bool,
    /// Connections that deliver no bytes for this long are closed,
    /// freeing their worker for queued connections.
    pub idle_timeout: Duration,
    /// Hard cap on one buffered request line (bytes without a newline);
    /// beyond it the client gets a `bad_request` and the connection
    /// closes. Defaults to [`MAX_LINE_BYTES`].
    pub max_line_bytes: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            connection_threads: 4,
            watch_stdin: false,
            idle_timeout: Duration::from_secs(60),
            max_line_bytes: MAX_LINE_BYTES,
        }
    }
}

/// Poll interval of the accept loop and connection readers.
const POLL: Duration = Duration::from_millis(25);

/// Default cap on one request line (buffered bytes without a newline);
/// beyond it the client gets a `bad_request` and the connection closes.
/// Override per daemon with [`ServeOptions::max_line_bytes`].
pub const MAX_LINE_BYTES: usize = 16 * 1024 * 1024;

/// Metrics label for requests rejected because their line outgrew
/// [`ServeOptions::max_line_bytes`] — kept distinct from `op="unknown"`
/// (malformed-but-bounded lines) so operators can tell flood abuse from
/// junk traffic.
pub const OVERSIZED_LINE_OP: &str = "oversized_line";

/// Runs the accept loop on `listener` until shutdown is requested,
/// then drains in-flight connections and returns the number of
/// connections served.
pub fn serve(
    service: &Arc<Service>,
    listener: TcpListener,
    options: ServeOptions,
) -> Result<usize, ServiceError> {
    serve_with_metrics(service, listener, options, None)
}

/// [`serve`] plus an optional plaintext metrics endpoint: when
/// `metrics_listener` is given, each connection to it gets one
/// HTTP/1.0 response — the service's metric snapshot in exposition
/// text format, or recent stage spans as line-JSON for `GET /spans` —
/// and is closed. The endpoint shares the daemon's shutdown: it stops
/// accepting when the serve loop exits.
pub fn serve_with_metrics(
    service: &Arc<Service>,
    listener: TcpListener,
    options: ServeOptions,
    metrics_listener: Option<TcpListener>,
) -> Result<usize, ServiceError> {
    listener.set_nonblocking(true)?;
    if let Some(ml) = &metrics_listener {
        ml.set_nonblocking(true)?;
    }
    if options.watch_stdin {
        let svc = Arc::clone(service);
        std::thread::Builder::new()
            .name("habit-serve-stdin".into())
            .spawn(move || {
                // Block until the supervisor closes our stdin, then stop.
                let mut sink = [0u8; 256];
                let mut stdin = std::io::stdin().lock();
                while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
                svc.request_shutdown();
            })?;
    }

    let (connections, accepted) = mpsc::channel::<TcpStream>();
    let accepted = Mutex::new(accepted);
    std::thread::scope(|s| {
        for _ in 0..options.connection_threads.max(1) {
            s.spawn(|| loop {
                // The guard is released as soon as `recv` hands this
                // worker a stream; `Err` means the sender is gone and the
                // queue is drained.
                let next = accepted
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .recv();
                let Ok(stream) = next else { break };
                // Isolate panics per connection: a bug reached by one
                // request must cost that connection, not a worker (and
                // eventually the whole daemon).
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    handle_connection(stream, service, options)
                }));
                if caught.is_err() {
                    eprintln!("habit serve: connection handler panicked (connection dropped)");
                }
            });
        }
        let mut served = 0usize;
        while !service.shutdown_requested() {
            if let Some(ml) = &metrics_listener {
                poll_metrics_listener(ml, service);
            }
            match listener.accept() {
                Ok((stream, _peer)) => {
                    served += 1;
                    // Cannot fail: the receiver outlives the scope.
                    let _ = connections.send(stream);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    // Transient accept failures (aborted handshakes, fd
                    // exhaustion) must not kill a long-lived daemon: log,
                    // back off one poll interval, keep accepting.
                    eprintln!("habit serve: accept error (retrying): {e}");
                    std::thread::sleep(POLL);
                }
            }
        }
        // Close the coalescing queue before joining the workers: a worker
        // whose submission is still queued is answered by the drain, and
        // whatever a worker still submits is answered on its own thread.
        // No-op when admission is off.
        service.shutdown_admission();
        // Then close the connection queue: the workers drain it and exit,
        // and the scope joins them.
        drop(connections);
        Ok(served)
    })
}

/// Serves one connection: reads request lines, writes one response line
/// per request, closes on EOF, I/O error, idle timeout, an oversized
/// line, or handled shutdown.
///
/// Every request line — including lines that never parse — feeds the
/// service's metrics (`parse` / `render` spans, the connection gauge,
/// for malformed lines an `op="unknown"` error observation, and for
/// over-long lines an [`OVERSIZED_LINE_OP`] one), so a failed request
/// is never invisible to the counters.
fn handle_connection(stream: TcpStream, service: &Service, options: ServeOptions) {
    let metrics = service.metrics();
    metrics.connection_opened();
    handle_connection_inner(stream, service, options, metrics);
    metrics.connection_closed();
}

fn handle_connection_inner(
    stream: TcpStream,
    service: &Service,
    options: ServeOptions,
    metrics: &ServiceMetrics,
) {
    let idle_timeout = options.idle_timeout;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL));
    let recorder = metrics.recorder();
    let mut reader = LineReader::new(&stream, options.max_line_bytes);
    let mut out = &stream;
    let mut last_activity = std::time::Instant::now();
    loop {
        let buffered_before = reader.bytes_buffered();
        let line = match reader.next_line() {
            Ok(Some(line)) => {
                last_activity = std::time::Instant::now();
                line
            }
            Ok(None) => break, // EOF
            Err(Wait::Retry) => {
                if service.shutdown_requested() {
                    break;
                }
                if reader.bytes_buffered() > buffered_before {
                    last_activity = std::time::Instant::now(); // partial progress
                } else if last_activity.elapsed() > idle_timeout {
                    break; // silent peer: free this worker
                }
                continue;
            }
            Err(Wait::Oversized) => {
                let err = ServiceError::bad_request(format!(
                    "request line exceeds {} bytes",
                    options.max_line_bytes
                ));
                metrics.observe_request(OVERSIZED_LINE_OP, Some(err.code), 0);
                let mut reply = wire::encode_response(&Err(err));
                reply.push('\n');
                let _ = out.write_all(reply.as_bytes()).and_then(|_| out.flush());
                break;
            }
            Err(Wait::Closed) => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        let parse_start = recorder.ticks();
        let decoded = wire::decode_request(&line);
        let parse_ticks = recorder.ticks().saturating_sub(parse_start);
        let op = decoded.as_ref().map_or("unknown", |r| r.op());
        recorder.record(SpanRecord {
            name: "parse",
            op: op.into(),
            start_ticks: parse_start,
            duration_ticks: parse_ticks,
            ok: decoded.is_ok(),
        });
        let result = match decoded {
            Ok(req) => service.handle(&req),
            Err(e) => {
                // `Service::handle` never ran, so the malformed line is
                // counted here — as `op="unknown"` with its parse cost.
                metrics.observe_request("unknown", Some(e.code), parse_ticks);
                Err(e)
            }
        };
        let stop = matches!(result, Ok(Response::ShuttingDown));
        let mut render_span = recorder.span("render", op);
        let mut reply = wire::encode_response(&result);
        reply.push('\n');
        if result.is_err() {
            render_span.fail();
        }
        drop(render_span);
        if out
            .write_all(reply.as_bytes())
            .and_then(|_| out.flush())
            .is_err()
        {
            break; // peer went away mid-reply
        }
        if stop {
            break;
        }
    }
}

/// Drains every connection currently queued on the metrics listener,
/// answering each on a short-lived thread so a slow scraper can never
/// stall the daemon's accept loop.
fn poll_metrics_listener(listener: &TcpListener, service: &Arc<Service>) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let metrics = Arc::clone(service.metrics());
                let spawned = std::thread::Builder::new()
                    .name("habit-metrics".into())
                    .spawn(move || handle_metrics_connection(stream, &metrics));
                if spawned.is_err() {
                    eprintln!("habit serve: failed to spawn metrics responder");
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => {
                eprintln!("habit serve: metrics accept error (retrying): {e}");
                return;
            }
        }
    }
}

/// Answers one metrics-endpoint connection with a single HTTP/1.0
/// response and closes it: `GET /spans` returns recent stage spans as
/// line-JSON, every other request the metric snapshot in exposition
/// text format.
fn handle_metrics_connection(stream: TcpStream, metrics: &ServiceMetrics) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    // Read the request line (best effort — a bare `GET /` from nc and a
    // full HTTP request from curl both work; headers are irrelevant).
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    let mut s = &stream;
    while !buf.contains(&b'\n') && buf.len() < 8192 {
        match s.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    let request_line = String::from_utf8_lossy(&buf);
    let path = request_line
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .unwrap_or("/");
    let body = if path == "/spans" {
        crate::spanjson::render_spans(&metrics.recorder().recent())
    } else {
        habit_obs::text::render(&metrics.snapshot())
    };
    let response = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = s.write_all(response.as_bytes()).and_then(|_| s.flush());
}

/// Why [`LineReader::next_line`] yielded no line yet.
enum Wait {
    /// Read timed out — poll the shutdown flag and come back.
    Retry,
    /// The buffered line exceeds the reader's byte cap; drop the peer.
    Oversized,
    /// The connection failed; stop serving it.
    Closed,
}

/// An incremental line reader safe under read timeouts: partial lines
/// survive across `next_line` calls (a plain `BufRead::read_line` may
/// drop buffered bytes when a timeout hits mid-line).
struct LineReader<'s> {
    stream: &'s TcpStream,
    pending: Vec<u8>,
    /// Bytes of `pending` already scanned for `\n` — each byte is
    /// examined once across reads, keeping long lines O(n) instead of
    /// re-scanning the whole buffer after every 4 KiB read.
    scanned: usize,
    /// Byte cap on one buffered line ([`ServeOptions::max_line_bytes`]).
    max_line_bytes: usize,
    chunk: [u8; 4096],
}

impl<'s> LineReader<'s> {
    fn new(stream: &'s TcpStream, max_line_bytes: usize) -> Self {
        Self {
            stream,
            pending: Vec::new(),
            scanned: 0,
            max_line_bytes,
            chunk: [0; 4096],
        }
    }

    /// Bytes buffered towards the next line (activity indicator).
    fn bytes_buffered(&self) -> usize {
        self.pending.len()
    }

    /// `Ok(Some(line))` without its newline, `Ok(None)` on clean EOF.
    fn next_line(&mut self) -> Result<Option<String>, Wait> {
        loop {
            if let Some(pos) = self.pending[self.scanned..]
                .iter()
                .position(|&b| b == b'\n')
            {
                let rest = self.pending.split_off(self.scanned + pos + 1);
                let mut line = std::mem::replace(&mut self.pending, rest);
                self.scanned = 0;
                line.pop(); // the \n
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return Ok(Some(String::from_utf8_lossy(&line).into_owned()));
            }
            self.scanned = self.pending.len();
            if self.pending.len() > self.max_line_bytes {
                return Err(Wait::Oversized);
            }
            match self.stream.read(&mut self.chunk) {
                Ok(0) => return Ok(None),
                Ok(n) => self.pending.extend_from_slice(&self.chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Err(Wait::Retry)
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Err(Wait::Closed),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Request;
    use crate::service::ServiceConfig;
    use ais::{trips_to_table, AisPoint, Trip};
    use habit_core::{GapQuery, HabitConfig, HabitModel};
    use std::io::{BufRead, BufReader};

    fn lane_model() -> HabitModel {
        let trips: Vec<Trip> = (0..4)
            .map(|k| Trip {
                trip_id: k + 1,
                mmsi: 100 + k,
                points: (0..150)
                    .map(|i| {
                        AisPoint::new(
                            100 + k,
                            i as i64 * 60,
                            10.0 + i as f64 * 0.003,
                            56.0,
                            12.0,
                            90.0,
                        )
                    })
                    .collect(),
            })
            .collect();
        HabitModel::fit(&trips_to_table(&trips), HabitConfig::default()).unwrap()
    }

    /// In-process server round trip: health, impute (== direct model
    /// path), a malformed line, then shutdown — and serve() returns.
    #[test]
    fn tcp_round_trip_and_shutdown() {
        let service = Arc::new(Service::with_model(
            ServiceConfig {
                threads: 2,
                cache_capacity: 16,
            },
            lane_model(),
        ));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let svc = Arc::clone(&service);
        let server = std::thread::spawn(move || {
            serve(
                &svc,
                listener,
                ServeOptions {
                    connection_threads: 2,
                    ..ServeOptions::default()
                },
            )
            .expect("serve")
        });

        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut send = |line: &str| {
            let mut s = &stream;
            s.write_all(line.as_bytes()).unwrap();
            s.write_all(b"\n").unwrap();
            s.flush().unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            reply
        };

        let reply = send(&wire::encode_request(&Request::Health));
        let Ok(Response::Health(h)) = wire::decode_response(&reply).unwrap() else {
            panic!("health: {reply}");
        };
        assert!(h.model_loaded);

        let gap = GapQuery::new(10.05, 56.0, 0, 10.4, 56.0, 3600);
        let reply = send(&wire::encode_request(&Request::Impute {
            gap,
            provenance: false,
        }));
        let Ok(Response::Imputation(served)) = wire::decode_response(&reply).unwrap() else {
            panic!("impute: {reply}");
        };
        let direct = service.model().unwrap().impute(&gap).unwrap();
        assert_eq!(served.points, direct.points, "TCP == in-process");
        assert_eq!(served.cells, direct.cells);

        // Garbage gets a coded error, not a dropped connection.
        let reply = send("this is not json");
        let err = wire::decode_response(&reply).unwrap().unwrap_err();
        assert_eq!(err.code, crate::ErrorCode::BadRequest);

        let reply = send(&wire::encode_request(&Request::Shutdown));
        assert!(matches!(
            wire::decode_response(&reply).unwrap(),
            Ok(Response::ShuttingDown)
        ));
        let served_count = server.join().expect("server thread");
        assert_eq!(served_count, 1);

        // The garbage line and the shutdown both fed the counters —
        // error paths and lifecycle requests are never invisible.
        let text = habit_obs::text::render(&service.metrics().snapshot());
        assert!(
            text.contains("habit_errors_total{code=\"bad_request\",op=\"unknown\"} 1\n"),
            "{text}"
        );
        assert!(text.contains("habit_requests_total{op=\"unknown\"} 1\n"));
        assert!(text.contains("habit_requests_total{op=\"shutdown\"} 1\n"));
        assert!(text.contains("habit_connections_open 0\n"));
        let spans = service.metrics().recorder().recent();
        assert!(spans
            .iter()
            .any(|s| s.name == "parse" && s.op == "unknown" && !s.ok));
        assert!(spans
            .iter()
            .any(|s| s.name == "render" && s.op == "unknown" && !s.ok));
        assert!(spans
            .iter()
            .any(|s| s.name == "handle" && s.op == "shutdown" && s.ok));
    }

    /// The optional metrics endpoint answers plaintext exposition and
    /// `GET /spans` over HTTP/1.0 while the daemon serves requests.
    #[test]
    fn metrics_endpoint_serves_text_and_spans() {
        let service = Arc::new(Service::with_model(
            ServiceConfig {
                threads: 2,
                cache_capacity: 16,
            },
            lane_model(),
        ));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let metrics_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let metrics_addr = metrics_listener.local_addr().unwrap();
        let svc = Arc::clone(&service);
        let server = std::thread::spawn(move || {
            serve_with_metrics(
                &svc,
                listener,
                ServeOptions {
                    connection_threads: 2,
                    ..ServeOptions::default()
                },
                Some(metrics_listener),
            )
            .expect("serve")
        });

        // One health request so the counters are non-trivial.
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        {
            let mut s = &stream;
            s.write_all(wire::encode_request(&Request::Health).as_bytes())
                .unwrap();
            s.write_all(b"\n").unwrap();
            s.flush().unwrap();
        }
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(matches!(
            wire::decode_response(&reply).unwrap(),
            Ok(Response::Health(_))
        ));

        let http_get = |path: &str| -> String {
            let conn = TcpStream::connect(metrics_addr).unwrap();
            conn.set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let mut c = &conn;
            c.write_all(format!("GET {path} HTTP/1.0\r\nHost: localhost\r\n\r\n").as_bytes())
                .unwrap();
            c.flush().unwrap();
            let mut body = String::new();
            BufReader::new(&conn).read_to_string(&mut body).unwrap();
            body
        };

        let page = http_get("/metrics");
        assert!(page.starts_with("HTTP/1.0 200 OK\r\n"), "{page}");
        assert!(page.contains("Content-Type: text/plain"), "{page}");
        assert!(page.contains("habit_requests_total{op=\"health\"} 1\n"));

        let spans = http_get("/spans");
        assert!(spans.contains("\"name\":\"handle\""), "{spans}");
        assert!(spans.contains("\"op\":\"health\""), "{spans}");

        service.request_shutdown();
        server.join().expect("server thread");
    }

    /// An idle connection is closed after `idle_timeout`, freeing its
    /// worker — so a queued `shutdown` request can never be starved
    /// forever by silent peers holding every worker.
    #[test]
    fn idle_connections_are_reaped() {
        let service = Arc::new(Service::with_model(
            ServiceConfig {
                threads: 1,
                cache_capacity: 4,
            },
            lane_model(),
        ));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let svc = Arc::clone(&service);
        let server = std::thread::spawn(move || {
            serve(
                &svc,
                listener,
                ServeOptions {
                    connection_threads: 1,
                    idle_timeout: Duration::from_millis(200),
                    ..ServeOptions::default()
                },
            )
        });

        // A silent connection occupies the only worker…
        let idle = TcpStream::connect(addr).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        // …and a second connection (queued behind it) sends shutdown.
        let active = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(active.try_clone().unwrap());
        {
            let mut s = &active;
            s.write_all(wire::encode_request(&Request::Shutdown).as_bytes())
                .unwrap();
            s.write_all(b"\n").unwrap();
            s.flush().unwrap();
        }
        active
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("shutdown acknowledged");
        assert!(matches!(
            wire::decode_response(&reply).unwrap(),
            Ok(Response::ShuttingDown)
        ));
        server.join().expect("server thread").expect("serve ok");
        drop(idle);
    }

    /// A line that grows past the cap gets a coded error and the
    /// connection closes instead of buffering without bound.
    #[test]
    fn oversized_lines_are_rejected() {
        let service = Arc::new(Service::with_model(
            ServiceConfig {
                threads: 1,
                cache_capacity: 4,
            },
            lane_model(),
        ));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let svc = Arc::clone(&service);
        let server = std::thread::spawn(move || serve(&svc, listener, ServeOptions::default()));

        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        // Stream > MAX_LINE_BYTES without a newline. Once the server
        // trips the cap it stops reading and closes, so late writes may
        // fail — that is the expected backpressure, not a test failure.
        let chunk = vec![b'x'; 1 << 20];
        let mut sent = 0usize;
        let mut s = &stream;
        while sent <= MAX_LINE_BYTES + (1 << 20) {
            if s.write_all(&chunk).is_err() {
                break;
            }
            sent += chunk.len();
        }
        let _ = s.flush();
        // The server must terminate the connection (ideally after a
        // coded bad_request reply; a reset also proves the bound) and
        // must NOT buffer without limit or hang.
        let mut reply = String::new();
        match reader.read_line(&mut reply) {
            Ok(0) => {} // closed before the reply could be read
            Ok(_) => {
                let err = wire::decode_response(&reply).unwrap().unwrap_err();
                assert_eq!(err.code, crate::ErrorCode::BadRequest);
                assert!(err.message.contains("exceeds"), "{err}");
            }
            Err(e) => assert!(
                matches!(e.kind(), ErrorKind::ConnectionReset | ErrorKind::BrokenPipe),
                "unexpected read error: {e}"
            ),
        }
        drop(stream);

        // The daemon survived the abusive connection: a fresh one works.
        let healthy = TcpStream::connect(addr).unwrap();
        healthy
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut reader = BufReader::new(healthy.try_clone().unwrap());
        {
            let mut s = &healthy;
            s.write_all(wire::encode_request(&Request::Health).as_bytes())
                .unwrap();
            s.write_all(b"\n").unwrap();
            s.flush().unwrap();
        }
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("health after abuse");
        assert!(matches!(
            wire::decode_response(&reply).unwrap(),
            Ok(Response::Health(_))
        ));

        service.request_shutdown();
        server.join().expect("server thread").expect("serve ok");
    }

    /// A tuned `--max-line-bytes` cap takes effect and its rejections
    /// are counted under the dedicated `oversized_line` label, not
    /// lumped into `op="unknown"` with malformed traffic.
    #[test]
    fn tuned_line_cap_rejects_under_a_distinct_label() {
        let service = Arc::new(Service::with_model(
            ServiceConfig {
                threads: 1,
                cache_capacity: 4,
            },
            lane_model(),
        ));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let svc = Arc::clone(&service);
        let server = std::thread::spawn(move || {
            serve(
                &svc,
                listener,
                ServeOptions {
                    max_line_bytes: 1024,
                    ..ServeOptions::default()
                },
            )
        });

        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let _ = (&stream).write_all(&vec![b'x'; 4096]);
        let _ = (&stream).flush();
        let mut reply = String::new();
        match reader.read_line(&mut reply) {
            Ok(0) => {}
            Ok(_) => {
                let err = wire::decode_response(&reply).unwrap().unwrap_err();
                assert_eq!(err.code, crate::ErrorCode::BadRequest);
                assert!(err.message.contains("exceeds 1024 bytes"), "{err}");
            }
            Err(e) => assert!(
                matches!(e.kind(), ErrorKind::ConnectionReset | ErrorKind::BrokenPipe),
                "unexpected read error: {e}"
            ),
        }
        drop(stream);

        // The rejection is attributed to its own op label.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let text = habit_obs::text::render(&service.metrics().snapshot());
            if text.contains("habit_requests_total{op=\"oversized_line\"} 1\n") {
                assert!(
                    text.contains(
                        "habit_errors_total{code=\"bad_request\",op=\"oversized_line\"} 1\n"
                    ),
                    "{text}"
                );
                assert!(!text.contains("op=\"unknown\""), "{text}");
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "oversized rejection never hit the counters: {text}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }

        service.request_shutdown();
        server.join().expect("server thread").expect("serve ok");
    }

    /// A request racing shutdown through the admission queue is
    /// answered before the daemon exits: the serve loop closes the
    /// coalescing queue first (the drain answers it) and joins the
    /// connection workers last.
    #[test]
    fn shutdown_answers_admissions_queued_behind_the_window() {
        let service = Arc::new(Service::with_model(
            ServiceConfig {
                threads: 2,
                cache_capacity: 16,
            },
            lane_model(),
        ));
        // The racer queues because it arrives behind a pass in flight,
        // and that pass holds the gate until the shutdown has closed
        // the queue — so what answers the racer is the drain.
        service.enable_admission(crate::AdmissionConfig::default());
        let queue = service.admission_queue();
        let in_flight = queue.submit(&[GapQuery::new(0.0, 0.0, 0, 0.0, 0.0, 1)], false);
        assert!(matches!(
            in_flight,
            Ok(crate::admission::Admitted::PassThrough(_))
        ));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let svc = Arc::clone(&service);
        let server = std::thread::spawn(move || {
            serve(
                &svc,
                listener,
                ServeOptions {
                    connection_threads: 2,
                    ..ServeOptions::default()
                },
            )
            .expect("serve")
        });

        let gap = GapQuery::new(10.05, 56.0, 0, 10.4, 56.0, 3600);
        let racer = TcpStream::connect(addr).unwrap();
        racer
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut racer_reader = BufReader::new(racer.try_clone().unwrap());
        {
            let mut s = &racer;
            s.write_all(
                wire::encode_request(&Request::Impute {
                    gap,
                    provenance: false,
                })
                .as_bytes(),
            )
            .unwrap();
            s.write_all(b"\n").unwrap();
            s.flush().unwrap();
        }
        // Wait until the impute is actually parked in the queue, then
        // race a shutdown against it from a second connection.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while service.handle(&Request::Health).map_or(true, |r| {
            !matches!(&r, Response::Health(h)
                if h.admission.as_ref().is_some_and(|a| a.queue_depth > 0))
        }) {
            assert!(
                std::time::Instant::now() < deadline,
                "impute never reached the admission queue"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let stopper = TcpStream::connect(addr).unwrap();
        let mut stop_reader = BufReader::new(stopper.try_clone().unwrap());
        {
            let mut s = &stopper;
            s.write_all(wire::encode_request(&Request::Shutdown).as_bytes())
                .unwrap();
            s.write_all(b"\n").unwrap();
            s.flush().unwrap();
        }
        let mut reply = String::new();
        stop_reader.read_line(&mut reply).unwrap();
        assert!(matches!(
            wire::decode_response(&reply).unwrap(),
            Ok(Response::ShuttingDown)
        ));
        // The serve loop closes the queue, then waits for the drain,
        // which waits for the pass in flight: end it once closed.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !queue.is_closed() {
            assert!(
                std::time::Instant::now() < deadline,
                "shutdown never closed the admission queue"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(in_flight);

        // The queued impute is answered — identically to the direct
        // model path — and only then does serve() return.
        let mut reply = String::new();
        racer_reader.read_line(&mut reply).expect("racer answered");
        let Ok(Response::Imputation(answered)) = wire::decode_response(&reply).unwrap() else {
            panic!("queued impute must be answered on shutdown: {reply}");
        };
        let direct = service.model().unwrap().impute(&gap).unwrap();
        assert_eq!(answered.points, direct.points);
        server.join().expect("server thread");
        let text = habit_obs::text::render(&service.metrics().snapshot());
        assert!(
            text.contains("habit_admission_flush_cause_total{cause=\"drain\"} 1\n"),
            "{text}"
        );
    }

    /// A request split across many tiny writes still parses — the line
    /// reader reassembles across read timeouts.
    #[test]
    fn fragmented_writes_are_reassembled() {
        let service = Arc::new(Service::with_model(
            ServiceConfig {
                threads: 1,
                cache_capacity: 4,
            },
            lane_model(),
        ));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let svc = Arc::clone(&service);
        let server = std::thread::spawn(move || serve(&svc, listener, ServeOptions::default()));

        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let line = wire::encode_request(&Request::Health);
        for chunk in line.as_bytes().chunks(3) {
            let mut s = &stream;
            s.write_all(chunk).unwrap();
            s.flush().unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
        (&stream).write_all(b"\n").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(matches!(
            wire::decode_response(&reply).unwrap(),
            Ok(Response::Health(_))
        ));

        service.request_shutdown();
        server.join().expect("server thread").expect("serve ok");
    }
}
