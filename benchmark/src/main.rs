//! The repo's benchmark. Drives the real `habit` binary — `fit`,
//! `refit` and `serve` as child processes, requests over TCP — on
//! inputs generated from a seed, checks every output against an
//! in-process reference, and prints every metric by name.
//!
//! ```text
//! habit-benchmark --workload W --seed N --seconds S --trace 0|1   one workload; last line is the result JSON
//! habit-benchmark run   --seed N [--seconds S] [--out FILE]       all four workloads, end-to-end metrics
//! habit-benchmark trace --seed N [--seconds S] [--out FILE]       all four workloads, per-layer metrics
//! habit-benchmark compare A.json B.json                           two `run` files against the declared bounds
//! ```
//!
//! `--quick` shrinks the inputs for smoke use; its numbers are not
//! comparable to full runs.

mod compare;
mod daemon;
mod data;
mod fit_refit;
mod loadgen;
mod serve;
mod spec;
mod stats;
mod trace;

use data::{Sizes, Workload};
use eval::json::Json;
use spec::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;

/// Run length when `--seconds` is not given: `run_seconds` of
/// `BENCHMARK.json`, or 3 s under `--quick`.
const DEFAULT_SECONDS: f64 = 12.0;
const QUICK_SECONDS: f64 = 3.0;

/// What one workload run needs to know.
pub struct Ctx {
    /// The `habit` binary under test.
    pub binary: PathBuf,
    /// Scratch directory of this process, under `benchmark/out/`.
    pub dir: PathBuf,
    /// Input sizes.
    pub sizes: Sizes,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
}

impl Ctx {
    /// Path of a scratch file, as the string the child processes get.
    pub fn file(&self, name: &str) -> String {
        self.dir.join(name).to_string_lossy().into_owned()
    }
}

/// `benchmark/out/`: everything the benchmark writes lands here.
fn out_dir() -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// What the command line asks for.
enum Mode {
    /// What the driver calls: one workload, result JSON as the last line.
    One(Workload),
    /// `run` / `trace`: all four workloads, results in one JSON file.
    All,
    /// `compare A B`.
    Compare(String, String),
}

/// The parsed command line.
struct Cli {
    mode: Mode,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    quick: bool,
    out: Option<String>,
}

const USAGE: &str = "usage: see benchmark/README.md \
    (run | trace | compare A B | --workload W --seed N --seconds S --trace 0|1)";

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        mode: Mode::All,
        seed: 1,
        seconds: None,
        traced: false,
        quick: false,
        out: None,
    };
    let mut workload = None;
    let mut positional: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                let raw = value()?;
                cli.seed = raw.parse().map_err(|_| format!("bad --seed `{raw}`"))?;
            }
            "--seconds" => {
                let raw = value()?;
                cli.seconds = match raw.parse::<f64>() {
                    Ok(s) if s.is_finite() && s >= 1.0 => Some(s),
                    _ => return Err(format!("bad --seconds `{raw}` (at least 1)")),
                };
            }
            "--trace" => {
                cli.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace `{other}` (0 or 1)")),
                };
            }
            "--out" => cli.out = Some(value()?),
            "--quick" => cli.quick = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            word => positional.push(word),
        }
    }
    cli.mode = match (workload, positional.as_slice()) {
        (Some(name), []) => {
            Mode::One(Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?)
        }
        (None, ["run"]) => Mode::All,
        (None, ["trace"]) => {
            cli.traced = true;
            Mode::All
        }
        (None, ["compare", a, b]) => Mode::Compare(a.to_string(), b.to_string()),
        _ => return Err(USAGE.to_string()),
    };
    Ok(cli)
}

/// Runs one workload, prints its lines, and returns what it measured.
fn run_workload(ctx: &Ctx, workload: Workload, traced: bool) -> Result<Outcome, String> {
    let outcome = match (traced, workload) {
        (true, _) => trace::run(ctx, workload)?,
        (false, Workload::FitRefit) => fit_refit::run(ctx)?,
        (false, _) => serve::run(ctx, workload)?,
    };
    let name = workload.name();
    for (metric, value) in &outcome.metrics {
        println!("{name} {metric} {value} {}", spec::unit_of(metric));
    }
    for (metric, value, unit) in &outcome.notes {
        println!("{name} {metric} {value} {unit}");
    }
    println!(
        "{name} failed_share {} share ({} of {} operations)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    for failure in &outcome.failures {
        println!("{name} FAILED CHECK: {failure}");
    }
    if let Some((metric, _)) = outcome.metrics.iter().find(|m| !m.1.is_finite()) {
        return Err(format!("{name}: metric {metric} has no finite value"));
    }
    Ok(outcome)
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn execute(cli: &Cli) -> Result<bool, String> {
    if let Mode::Compare(a, b) = &cli.mode {
        return compare::run(a, b);
    }
    let dir = out_dir().join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let ctx = Ctx {
        binary: daemon::habit_binary()?,
        dir,
        sizes: if cli.quick { Sizes::QUICK } else { Sizes::FULL },
        seed: cli.seed,
        seconds: cli.seconds.unwrap_or(if cli.quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        }),
    };
    println!(
        "habit-benchmark: seed {} · {} s · host_cores {} · daemon flags {} · {}",
        ctx.seed,
        ctx.seconds,
        host_cores(),
        daemon::DAEMON_FLAGS.join(" "),
        if cli.quick {
            "QUICK — numbers not comparable"
        } else {
            "full size"
        },
    );
    let result = match cli.mode {
        Mode::One(workload) => run_workload(&ctx, workload, cli.traced).map(|outcome| {
            println!("{}", outcome.result_json(cli.traced).render_compact());
            outcome.correct()
        }),
        _ => run_all(&ctx, cli),
    };
    let _ = std::fs::remove_dir_all(&ctx.dir);
    result
}

/// `run` / `trace`: all four workloads, results written to one JSON file.
fn run_all(ctx: &Ctx, cli: &Cli) -> Result<bool, String> {
    let traced = cli.traced;
    let mut results = Vec::new();
    let mut correct = true;
    for workload in Workload::ALL {
        let outcome = run_workload(ctx, workload, traced)?;
        correct &= outcome.correct();
        results.push((workload.name().to_string(), outcome.result_json(traced)));
    }
    let doc = Json::Obj(vec![
        ("seed".to_string(), Json::from(ctx.seed)),
        ("seconds".to_string(), Json::Num(ctx.seconds)),
        ("traced".to_string(), Json::Bool(traced)),
        ("quick".to_string(), Json::Bool(ctx.sizes.quick)),
        ("host_cores".to_string(), Json::from(host_cores() as u64)),
        ("results".to_string(), Json::Obj(results)),
    ]);
    let path = cli.out.clone().unwrap_or_else(|| {
        let kind = if traced { "trace" } else { "run" };
        out_dir()
            .join(format!("{kind}-{}.json", ctx.seed))
            .to_string_lossy()
            .into_owned()
    });
    std::fs::write(&path, doc.render_pretty() + "\n").map_err(|e| format!("{path}: {e}"))?;
    println!("results written to {path}");
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_cli(&args).and_then(|cli| execute(&cli)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("habit-benchmark: a correctness check failed (see FAILED CHECK lines)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("habit-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
