//! The program under test as child processes: building the `habit`
//! binary from the checkout, timed one-shot children (`fit`, `refit`)
//! with their peak memory, and the `habit serve` daemon with its
//! control connection.

use habit_service::response::HealthInfo;
use habit_service::{wire, Request, Response};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Flags every benchmarked daemon runs with (the host has 2 cores);
/// admission defaults are left untouched.
pub const DAEMON_FLAGS: [&str; 6] = ["--threads", "2", "--conn-threads", "4", "--cache", "4096"];
/// A daemon must exit this soon after `shutdown` to count as clean.
const SHUTDOWN_LIMIT: Duration = Duration::from_secs(5);
/// No single response may take longer than this.
pub const RESPONSE_LIMIT: Duration = Duration::from_secs(20);

/// The repository root: the parent of this package's directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root")
        .to_path_buf()
}

/// Builds the release `habit` binary from the checkout's sources (a
/// no-op when it is fresh) and returns its path. The build lands in
/// `CARGO_TARGET_DIR` when set — the driver sets it — and in the root
/// `target/` that tier-1 fills otherwise.
pub fn habit_binary() -> Result<PathBuf, String> {
    let root = repo_root();
    let output = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "habit-cli", "--bin", "habit", "--manifest-path"])
        .arg(root.join("Cargo.toml"))
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "building habit failed:\n{}",
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => std::env::current_dir()
            .map_err(|e| e.to_string())?
            .join(dir),
        None => root.join("target"),
    };
    let binary = target.join("release").join("habit");
    if binary.is_file() {
        Ok(binary)
    } else {
        Err(format!("{} was not built", binary.display()))
    }
}

/// `VmHWM` of a live process, kB; `None` once it is gone.
fn peak_rss_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// What a one-shot child cost.
pub struct ChildRun {
    /// Spawn to exit, seconds.
    pub wall_s: f64,
    /// Highest `VmHWM` seen while it ran, MB.
    pub peak_rss_mb: f64,
}

/// Runs `habit <args>` to completion. Wall time is spawn to exit; a
/// second thread samples the child's `VmHWM` every 10 ms, because the
/// figure vanishes with the process.
pub fn run_child(binary: &Path, args: &[&str]) -> Result<ChildRun, String> {
    let started = Instant::now();
    let mut child = Command::new(binary)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn habit {}: {e}", args[0]))?;
    let pid = child.id();
    let done = AtomicBool::new(false);
    let peak = AtomicU64::new(0);
    let status = std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::SeqCst) {
                if let Some(kb) = peak_rss_kb(pid) {
                    peak.fetch_max(kb, Ordering::SeqCst);
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        });
        let status = child.wait();
        done.store(true, Ordering::SeqCst);
        status
    });
    let wall_s = started.elapsed().as_secs_f64();
    let status = status.map_err(|e| format!("waiting for habit {}: {e}", args[0]))?;
    if !status.success() {
        let mut stderr = String::new();
        if let Some(mut pipe) = child.stderr.take() {
            let _ = pipe.read_to_string(&mut stderr);
        }
        return Err(format!("habit {} exited with {status}: {stderr}", args[0]));
    }
    Ok(ChildRun {
        wall_s,
        peak_rss_mb: peak.load(Ordering::SeqCst) as f64 / 1024.0,
    })
}

/// One line-JSON connection to a daemon.
pub struct Connection {
    reader: BufReader<TcpStream>,
    line: String,
    frame: Vec<u8>,
}

impl Connection {
    /// Connects with Nagle off and the response time limit set.
    pub fn open(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(RESPONSE_LIMIT))?;
        Ok(Self {
            reader: BufReader::with_capacity(1 << 16, stream),
            line: String::new(),
            frame: Vec::new(),
        })
    }

    /// Writes one request line, newline included, in a single write
    /// (Nagle is off, so two writes would be two segments).
    pub fn send(&mut self, request: &str) -> std::io::Result<()> {
        self.frame.clear();
        self.frame.extend_from_slice(request.as_bytes());
        self.frame.push(b'\n');
        self.reader.get_mut().write_all(&self.frame)
    }

    /// Reads one response line (without its newline).
    pub fn receive(&mut self) -> std::io::Result<&str> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.line.trim_end_matches('\n'))
    }

    /// One request, one typed response.
    pub fn call(&mut self, request: &Request) -> Result<Response, String> {
        self.send(&wire::encode_request(request))
            .map_err(|e| e.to_string())?;
        let line = self.receive().map_err(|e| e.to_string())?;
        wire::decode_response(line)
            .map_err(|e| e.to_string())?
            .map_err(|e| e.to_string())
    }
}

/// A child process that is killed, if still alive, and waited for on
/// drop, so no failure path leaves a process behind.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            let _ = self.0.kill();
        }
        let _ = self.0.wait();
    }
}

/// A running `habit serve` child.
pub struct Daemon {
    child: Reaped,
    /// `host:port` the daemon listens on.
    pub addr: String,
    control: Connection,
    /// The daemon's stdout. Held open, unread after the banner: the
    /// few lines it still prints fit the pipe buffer, and a closed pipe
    /// would fail its final `println!`.
    _stdout: BufReader<std::process::ChildStdout>,
}

impl Daemon {
    /// Spawns `habit serve --model <blob>` on an ephemeral port and
    /// returns once a `health` request is answered.
    pub fn spawn(binary: &Path, blob: &Path) -> Result<Self, String> {
        let mut child = Reaped(
            Command::new(binary)
                .args(["serve", "--port", "0", "--model"])
                .arg(blob)
                .args(DAEMON_FLAGS)
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .map_err(|e| format!("cannot spawn habit serve: {e}"))?,
        );
        let mut banner = String::new();
        let mut stdout = BufReader::new(child.0.stdout.take().expect("piped stdout"));
        let addr = match stdout.read_line(&mut banner) {
            Ok(n) if n > 0 => banner
                .split("listening on ")
                .nth(1)
                .and_then(|rest| rest.split_whitespace().next())
                .map(str::to_string),
            _ => None,
        };
        let Some(addr) = addr else {
            return Err(format!("habit serve printed no address: {banner:?}"));
        };
        let control =
            Connection::open(&addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        let mut daemon = Self {
            child,
            addr,
            control,
            _stdout: stdout,
        };
        daemon.health()?;
        Ok(daemon)
    }

    /// The `health` payload.
    pub fn health(&mut self) -> Result<HealthInfo, String> {
        match self.control.call(&Request::Health)? {
            Response::Health(h) => Ok(h),
            other => Err(format!("health answered {}", other.op())),
        }
    }

    /// The values of the label-free counters `names`, from one
    /// `metrics` snapshot; 0 for one the daemon has not created yet.
    pub fn counters<const N: usize>(&mut self, names: [&str; N]) -> Result<[f64; N], String> {
        match self.control.call(&Request::Metrics)? {
            Response::Metrics(snapshot) => Ok(names.map(|name| {
                snapshot
                    .samples
                    .iter()
                    .find(|s| s.name == name && s.labels.is_empty())
                    .map_or(0.0, |s| s.value)
            })),
            other => Err(format!("metrics answered {}", other.op())),
        }
    }

    /// Sends `shutdown`, waits for the exit, and returns the daemon's
    /// peak RSS in MB as read just before. Fails when the daemon does
    /// not exit cleanly within five seconds (it is killed then).
    pub fn shutdown(mut self) -> Result<f64, String> {
        let peak_mb = peak_rss_kb(self.child.0.id()).unwrap_or(0) as f64 / 1024.0;
        match self.control.call(&Request::Shutdown) {
            Ok(Response::ShuttingDown) => {}
            Ok(other) => return Err(format!("shutdown answered {}", other.op())),
            Err(e) => return Err(format!("shutdown failed: {e}")),
        }
        let asked = Instant::now();
        loop {
            match self.child.0.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(peak_mb),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if asked.elapsed() > SHUTDOWN_LIMIT => {
                    return Err("daemon still running 5 s after shutdown".to_string());
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("waiting for the daemon: {e}")),
            }
        }
    }
}
