//! `habit serve` — the long-lived daemon: the same [`Service`] the CLI
//! adapters use, wrapped in the blocking line-JSON-over-TCP server of
//! [`habit_service::server`].
//!
//! ```text
//! habit serve --model kiel.habit --port 4740 &
//! printf '%s\n' '{"v":1,"op":"health"}' | nc 127.0.0.1 4740
//! printf '%s\n' '{"v":1,"op":"shutdown"}' | nc 127.0.0.1 4740
//! ```
//!
//! The first stdout line reports the bound address (`--port 0` picks a
//! free port, so scripts and tests parse that line); `--watch-stdin`
//! makes a closing stdin pipe trigger the same graceful shutdown as a
//! `shutdown` request; `--metrics-port N` binds a second listener on
//! the same host serving the plaintext metrics snapshot over HTTP
//! (`GET /` for counters/gauges/histograms, `GET /spans` for recent
//! stage spans as line-delimited JSON) — scrapeable with `curl`, no
//! wire protocol needed.
//!
//! The daemon coalesces concurrent impute traffic by default, and only
//! concurrent traffic, as group commit: one engine pass runs at a time;
//! an `impute`, `impute_batch` or `repair` that finds none running is
//! answered at once on its own connection's thread, and the gaps that arrive from
//! every connection while a pass runs queue up and are answered
//! together from one shared engine batch the moment it ends —
//! byte-identical to an unqueued request, one dedup + route-cache pass
//! per flush. No timer is involved: a queued request waits only for
//! the pass ahead of it. `--batch-max-gaps` sizes the queue (eight
//! times it, in gaps); a full queue rejects with the typed `overloaded`
//! error. `--no-coalesce` drops the queue: every request is answered on
//! its own connection's thread, passes in parallel.

use crate::args::Args;
use habit_service::{AdmissionConfig, ServeOptions, Service, ServiceConfig, ServiceError};
use std::io::Write;
use std::net::TcpListener;
use std::sync::Arc;

/// Default TCP port ("HT" on a phone keypad, collision-free in the
/// registered range).
const DEFAULT_PORT: u16 = 4740;

/// Entry point for `habit serve`.
pub fn run(args: &Args) -> Result<(), ServiceError> {
    args.check_flags(&[
        "model",
        "host",
        "port",
        "threads",
        "cache",
        "conn-threads",
        "watch-stdin",
        "metrics-port",
        "batch-max-gaps",
        "no-coalesce",
        "max-line-bytes",
    ])?;
    let model_path = args.require("model")?;
    let host = args.get("host").unwrap_or("127.0.0.1");
    let port: u16 = args.get_or("port", DEFAULT_PORT)?;
    let threads: usize = args.get_or(
        "threads",
        std::thread::available_parallelism().map_or(1, usize::from),
    )?;
    let cache: usize = args.get_or("cache", 4096)?;
    let conn_threads: usize = args.get_or("conn-threads", 4)?;
    let metrics_port: Option<u16> = match args.get("metrics-port") {
        Some(raw) => Some(
            raw.parse()
                .map_err(|_| ServiceError::bad_request(format!("bad --metrics-port `{raw}`")))?,
        ),
        None => None,
    };
    let batch_max_gaps: usize =
        args.get_or("batch-max-gaps", AdmissionConfig::default().batch_max_gaps)?;
    if batch_max_gaps == 0 {
        return Err(ServiceError::bad_request(
            "--batch-max-gaps must be at least 1",
        ));
    }
    let coalesce = !args.switch("no-coalesce");
    let max_line_bytes: usize =
        args.get_or("max-line-bytes", habit_service::server::MAX_LINE_BYTES)?;
    if max_line_bytes == 0 {
        return Err(ServiceError::bad_request(
            "--max-line-bytes must be at least 1",
        ));
    }

    let service = Arc::new(Service::with_model_file(
        ServiceConfig {
            threads,
            cache_capacity: cache,
        },
        model_path,
    )?);
    let health = service.health();
    let admission = AdmissionConfig { batch_max_gaps };
    if coalesce {
        service.enable_admission(admission);
    }
    let listener = TcpListener::bind((host, port)).map_err(|e| {
        ServiceError::new(habit_service::ErrorCode::Io, format!("{host}:{port}: {e}"))
    })?;
    let local = listener.local_addr()?;
    println!(
        "habit serve: listening on {local} ({model_path}: {} cells, {} transitions; {threads} compute threads, {conn_threads} connection workers)",
        health.cells, health.transitions,
    );
    println!(
        "habit serve: protocol habit-wire/v1 — one JSON request per line; '{{\"v\":1,\"op\":\"shutdown\"}}' stops the daemon"
    );
    if coalesce {
        println!(
            "habit serve: coalescing impute traffic (group commit — a lone request passes through on its connection thread, arrivals during a pass share the next one; size trigger {batch_max_gaps} gaps, queue capacity {} gaps)",
            admission.queue_capacity()
        );
    }
    let metrics_listener = match metrics_port {
        Some(p) => {
            let ml = TcpListener::bind((host, p)).map_err(|e| {
                ServiceError::new(habit_service::ErrorCode::Io, format!("{host}:{p}: {e}"))
            })?;
            println!(
                "habit serve: metrics on http://{} (GET / for metrics, GET /spans for recent spans)",
                ml.local_addr()?
            );
            Some(ml)
        }
        None => None,
    };
    std::io::stdout().flush()?;

    let served = habit_service::serve_with_metrics(
        &service,
        listener,
        ServeOptions {
            connection_threads: conn_threads,
            watch_stdin: args.switch("watch-stdin"),
            max_line_bytes,
            ..ServeOptions::default()
        },
        metrics_listener,
    )?;
    println!("habit serve: clean shutdown after {served} connection(s)");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_requires_a_real_model() {
        let args =
            Args::parse(["serve", "--model", "/nonexistent.habit"].map(String::from)).unwrap();
        let err = run(&args).unwrap_err();
        assert_eq!(err.code, habit_service::ErrorCode::Io);
    }

    #[test]
    fn serve_requires_the_model_flag() {
        let err = run(&Args::parse(["serve"].map(String::from)).unwrap()).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("--model"), "{err}");
    }

    #[test]
    fn serve_rejects_a_bad_metrics_port() {
        let args = Args::parse(
            [
                "serve",
                "--model",
                "/nonexistent.habit",
                "--metrics-port",
                "nope",
            ]
            .map(String::from),
        )
        .unwrap();
        let err = run(&args).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("--metrics-port"), "{err}");
    }

    #[test]
    fn serve_validates_admission_and_line_cap_flags() {
        for bad in [
            ["serve", "--model", "x", "--batch-max-gaps", "0"],
            ["serve", "--model", "x", "--max-line-bytes", "0"],
            ["serve", "--model", "x", "--batch-max-gaps", "many"],
        ] {
            let err = run(&Args::parse(bad.map(String::from)).unwrap()).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{bad:?}");
        }
    }

    #[test]
    fn serve_rejects_unknown_flags() {
        let args = Args::parse(["serve", "--model", "x", "--prot", "1"].map(String::from)).unwrap();
        let err = run(&args).unwrap_err();
        assert_eq!(err.exit_code(), 2);
    }
}
