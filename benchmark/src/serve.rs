//! The three read-side workloads: raw CSV to a serving daemon (the
//! timed set-up), then checked traffic over two TCP connections.

use crate::daemon::{run_child, Connection, Daemon};
use crate::data::{self, Pools, Sequence, Workload, World};
use crate::loadgen::{closed_loop, open_loop, Phase};
use crate::spec::Outcome;
use crate::stats::{median, percentile, window_percentiles, windowed_percentile, windowed_rate};
use crate::Ctx;
use habit_core::HabitModel;
use habit_service::csvio::write_ais_csv;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Load-generator connections (and threads): the host has two cores.
pub const CONNECTIONS: usize = 2;
/// Times the set-up is run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;
/// Discarded warm-up before any measured phase. It also absorbs each
/// connection's first response, which pays the accept loop's 25 ms poll.
const WARM_UP: Duration = Duration::from_millis(1500);
/// Windows the open-loop phase is cut into.
const WINDOWS: usize = 6;
/// Windows the closed-loop phase is cut into.
const CLOSED_WINDOWS: usize = 8;
/// A phase with more late sends than this is marked unresolved.
const LATE_SHARE_LIMIT: f64 = 0.05;

/// Open-loop arrival rate, requests per second; `None` for workloads
/// that are closed loop only. Both sit well under the closed-loop
/// capacity, so the latency is that of an unsaturated daemon.
pub fn open_rate(workload: Workload) -> Option<f64> {
    match workload {
        Workload::ServeCold | Workload::FitRefit => Some(300.0),
        Workload::ServeHot => Some(600.0),
        Workload::BatchMixed => None,
    }
}

/// A daemon serving the blob fitted from `train.csv`, and what getting
/// there cost.
pub struct Serving {
    /// The daemon, healthy.
    pub daemon: Daemon,
    /// Path of the serving blob.
    pub blob: String,
    /// The blob decoded in-process: the reference the answers are
    /// checked against.
    pub model: Arc<HabitModel>,
    /// Median wall time of `habit fit` plus daemon spawn to first
    /// `health`, seconds.
    pub setup_s: f64,
    /// `train.csv` rows over the median `habit fit` wall time.
    pub fit_reports_per_s: f64,
    /// Size of the lean serving blob.
    pub model_bytes: usize,
}

/// Raw CSV to serving, `repeats` times; the last daemon stays up.
pub fn set_up(
    ctx: &Ctx,
    world: &World,
    repeats: usize,
    out: &mut Outcome,
) -> Result<Serving, String> {
    let csv = ctx.file("train.csv");
    write_ais_csv(&world.train, csv.as_ref()).map_err(|e| e.to_string())?;
    let blob = ctx.file("serving.habit");
    let mut setups = Vec::new();
    let mut fits = Vec::new();
    let mut bytes: Vec<u8> = Vec::new();
    let mut daemon: Option<Daemon> = None;
    for _ in 0..repeats {
        if let Some(previous) = daemon.take() {
            let stopped = previous.shutdown();
            out.check(stopped.is_ok(), || format!("set-up daemon: {stopped:?}"));
        }
        let started = Instant::now();
        let fit = run_child(
            &ctx.binary,
            &[
                "fit",
                "--input",
                &csv,
                "--out",
                &blob,
                "--resolution",
                "9",
                "--tolerance",
                "100",
            ],
        )?;
        let healthy = Daemon::spawn(&ctx.binary, blob.as_ref())?;
        setups.push(started.elapsed().as_secs_f64());
        fits.push(fit.wall_s);
        out.attempted += 1;
        let fitted = std::fs::read(&blob).map_err(|e| format!("{blob}: {e}"))?;
        out.check(bytes.is_empty() || bytes == fitted, || {
            "habit fit wrote different bytes for the same train.csv".to_string()
        });
        bytes = fitted;
        daemon = Some(healthy);
    }
    let model = Arc::new(HabitModel::from_bytes(&bytes).map_err(|e| format!("{blob}: {e}"))?);
    Ok(Serving {
        daemon: daemon.expect("at least one set-up"),
        blob,
        model,
        setup_s: median(&setups),
        fit_reports_per_s: data::report_count(&world.train) as f64 / median(&fits),
        model_bytes: bytes.len(),
    })
}

/// Opens the load connections.
pub fn connect(addr: &str) -> Result<Vec<Connection>, String> {
    (0..CONNECTIONS)
        .map(|_| Connection::open(addr).map_err(|e| format!("cannot connect to {addr}: {e}")))
        .collect()
}

/// The measured phases of one serve run.
pub struct Load {
    /// The discarded warm-up.
    pub warm: Phase,
    /// Closed loop, both connections back to back.
    pub closed: Phase,
    /// Open loop at the workload's rate; `None` for `batch_mixed`.
    pub open: Option<Phase>,
    /// Length of the closed-loop phase, seconds.
    pub closed_s: f64,
    /// Length of one open-loop window, seconds.
    pub window_s: f64,
}

/// The discarded warm-up, from the start of the sequence: 1.5 s, and
/// at least the sequence's priming scan of the hot pool.
pub fn warm_up(conns: &mut [Connection], seq: &Sequence) -> Phase {
    closed_loop(conns, seq, 0, WARM_UP, seq.priming_ops())
}

/// `seconds` of measurement after `warm`: all closed loop for
/// `batch_mixed` (no `rate`); 40 % closed loop then 60 % open loop
/// otherwise.
pub fn measure(
    conns: &mut [Connection],
    seq: &Sequence,
    rate: Option<f64>,
    seconds: f64,
    warm: Phase,
) -> Load {
    let closed_share = if rate.is_some() { 0.4 } else { 1.0 };
    let closed_s = closed_share * seconds;
    let closed = closed_loop(
        conns,
        seq,
        warm.next_op,
        Duration::from_secs_f64(closed_s),
        0,
    );
    let window_s = 0.6 * seconds / WINDOWS as f64;
    let open = rate.map(|rate| {
        let length = Duration::from_secs_f64(window_s * WINDOWS as f64);
        open_loop(conns, seq, closed.next_op, rate, length)
    });
    Load {
        warm,
        closed,
        open,
        closed_s,
        window_s,
    }
}

impl Load {
    /// The phases in order, with their names.
    pub fn phases(&self) -> Vec<(&'static str, &Phase)> {
        let mut phases = vec![("warm-up", &self.warm), ("closed", &self.closed)];
        if let Some(open) = &self.open {
            phases.push(("open", open));
        }
        phases
    }

    /// The phase the latency figures come from: open loop where there
    /// is one.
    pub fn latency_phase(&self) -> &Phase {
        self.open.as_ref().unwrap_or(&self.closed)
    }

    /// The `q` latency percentile, ms: the median over open-loop
    /// windows of each window's percentile; the plain percentile over
    /// the closed loop's requests for `batch_mixed`.
    pub fn latency_ms(&self, q: f64) -> f64 {
        match &self.open {
            Some(open) => windowed_percentile(&open.samples, self.window_s, WINDOWS, q),
            None => percentile(&self.closed.sorted_latencies(), q),
        }
    }

    /// Requests completed per second in the closed loop: the median
    /// over its windows.
    pub fn throughput_rps(&self) -> f64 {
        let window_s = self.closed_s / CLOSED_WINDOWS as f64;
        windowed_rate(&self.closed.completions(), window_s, CLOSED_WINDOWS)
    }

    /// Counts every request into `out` and names each phase that lost
    /// any.
    pub fn account(&self, out: &mut Outcome) {
        for (name, phase) in self.phases() {
            out.attempted += phase.sent as u64;
            out.failed += phase.failed() as u64;
            if phase.failed() > 0 {
                out.failures.push(format!(
                    "{name} phase: {} of {} requests failed ({} typed errors, {} broken)",
                    phase.failed(),
                    phase.sent,
                    phase.typed_errors,
                    phase.broken
                ));
            }
        }
    }

    /// Operations sent so far; all were checked, so with no failure the
    /// first this-many operations of the sequence were served right.
    pub fn ops_served(&self) -> usize {
        self.latency_phase().next_op
    }

    /// The generator's own figures over the measured phases: declared
    /// per-layer metrics on a traced run, printed notes otherwise.
    pub fn describe(&self, out: &mut Outcome, traced: bool) {
        let phase = self.latency_phase();
        let sorted = phase.sorted_latencies();
        let measured: Vec<&Phase> = self.phases().into_iter().skip(1).map(|p| p.1).collect();
        let total = |f: fn(&Phase) -> usize| measured.iter().map(|p| f(p)).sum::<usize>() as f64;
        for (name, value) in [
            ("loadgen.sent", total(|p| p.sent)),
            ("loadgen.ok", total(|p| p.ok)),
            ("loadgen.typed_errors", total(|p| p.typed_errors)),
            (
                "loadgen.late_share",
                phase.late as f64 / phase.sent.max(1) as f64,
            ),
            ("loadgen.max_lag_ms", phase.max_lag_ms),
            ("loadgen.latency_p95_ms", self.latency_ms(0.95)),
            ("loadgen.latency_p99_ms", percentile(&sorted, 0.99)),
            ("loadgen.latency_max_ms", percentile(&sorted, 1.0)),
        ] {
            if traced {
                out.set(name, value);
            } else {
                out.note(name, value, crate::spec::unit_of(name));
            }
        }
        if let Some(open) = &self.open {
            for (w, (n, p95)) in window_percentiles(&open.samples, self.window_s, WINDOWS, 0.95)
                .into_iter()
                .enumerate()
            {
                out.note(format!("loadgen.window{w}.samples"), n as f64, "count");
                out.note(format!("loadgen.window{w}.p95_ms"), p95, "ms");
            }
            if open.late as f64 > LATE_SHARE_LIMIT * open.sent as f64 {
                out.note("loadgen.open_phase_unresolved", 1.0, "flag");
            }
        }
    }
}

/// Builds the seed's pools against the serving model.
pub fn pools(ctx: &Ctx, world: &World, model: &HabitModel) -> Result<Pools, String> {
    data::build_pools(
        &world.test,
        model,
        ctx.seed,
        ctx.sizes.hot_pool,
        ctx.sizes.cold_pool,
    )
}

/// One untraced run of a read-side workload.
pub fn run(ctx: &Ctx, workload: Workload) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let world = data::world(ctx.sizes);
    let serving = set_up(ctx, &world, SETUP_REPEATS, &mut out)?;
    let pools = pools(ctx, &world, &serving.model)?;
    let seq = Sequence::new(&pools, workload, ctx.seed);
    let mut conns = connect(&serving.daemon.addr)?;
    let warm = warm_up(&mut conns, &seq);
    let load = measure(&mut conns, &seq, open_rate(workload), ctx.seconds, warm);
    drop(conns);
    load.account(&mut out);
    let stopped = serving.daemon.shutdown();
    out.check(stopped.is_ok(), || format!("daemon shutdown: {stopped:?}"));

    out.set("setup_s", serving.setup_s);
    out.set("throughput_rps", load.throughput_rps());
    out.set("latency_p50_ms", load.latency_ms(0.50));
    out.set("fit_reports_per_s", serving.fit_reports_per_s);
    out.set("peak_rss_mb", stopped.unwrap_or(f64::NAN));
    out.set("model_bytes", serving.model_bytes as f64);
    out.set("dtw_mean_m", seq.dtw_mean_m(load.ops_served()));
    out.note(
        "gaps_per_s",
        load.throughput_rps() * seq.gaps_per_op() as f64,
        "1/s",
    );
    load.describe(&mut out, false);
    Ok(out)
}
