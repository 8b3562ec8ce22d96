//! CLI subcommands — thin adapters over [`habit_service::Service`].
//!
//! Each command module parses flags into a typed
//! [`habit_service::Request`], calls the same [`Service`] the `habit
//! serve` daemon runs, and renders the typed [`habit_service::Response`]
//! as text/CSV. No command loads a model, parses wire payloads, or maps
//! errors itself: every failure is a [`ServiceError`] whose taxonomy
//! code `main` turns into the process exit code (0 success /
//! 1 runtime / 2 usage) in exactly one place.

pub mod batch;
pub mod eval_cmd;
pub mod export;
pub mod fit;
pub mod impute;
pub mod info;
pub mod refit;
pub mod repair;
pub mod serve;
pub mod synth_cmd;

use crate::args::Args;
use habit_service::{BatchOutcome, Request, Response, Service, ServiceConfig, ServiceError};

/// Opens a one-shot [`Service`] over the model blob at `model_path` for
/// a CLI adapter invocation.
pub(crate) fn open_service(
    model_path: &str,
    threads: usize,
    cache_capacity: usize,
) -> Result<Service, ServiceError> {
    Service::with_model_file(
        ServiceConfig {
            threads,
            cache_capacity,
        },
        model_path,
    )
}

/// Shared front half of the gap-CSV commands (`batch`, `impute
/// --input`): read the gap CSV (`-` = stdin), reject empty input, open
/// the service over `model_path`, answer the whole file through one
/// [`Request::ImputeBatch`], and report per-gap failures on stderr.
/// Rendering differs per command and stays with the caller. `cache`
/// defaults to one entry per gap when `None`; `provenance` requests
/// per-point repair provenance on every result.
pub(crate) fn run_gap_csv_batch(
    model_path: &str,
    input: &str,
    threads: usize,
    cache: Option<usize>,
    provenance: bool,
) -> Result<(Service, BatchOutcome), ServiceError> {
    let gaps = crate::io::read_gaps(input)?;
    if gaps.is_empty() {
        return Err(ServiceError::new(
            habit_service::ErrorCode::BadInput,
            format!("{input}: no gap queries (expected lon1,lat1,t1,lon2,lat2,t2 rows)"),
        ));
    }
    let service = open_service(model_path, threads, cache.unwrap_or(gaps.len().max(1)))?;
    let Response::Batch(batch) = service.handle(&Request::ImputeBatch { gaps, provenance })? else {
        unreachable!("ImputeBatch answers Batch");
    };
    for (i, result) in batch.results.iter().enumerate() {
        if let Err(failure) = result {
            eprintln!("gap {i}: {failure}");
        }
    }
    Ok((service, batch))
}

/// Runs the subcommand named in `args.command`.
pub fn dispatch(args: &Args) -> Result<(), ServiceError> {
    match args.command.as_str() {
        "synth" => synth_cmd::run(args),
        "fit" => fit::run(args),
        "refit" => refit::run(args),
        "impute" => impute::run(args),
        "batch" => batch::run(args),
        "repair" => repair::run(args),
        "info" => info::run(args),
        "eval" => eval_cmd::run(args),
        "export" => export::run(args),
        "serve" => serve::run(args),
        "help" | "--help" | "-h" => {
            println!("{}", help_text());
            Ok(())
        }
        "version" | "--version" | "-V" => {
            println!("habit {}", version());
            Ok(())
        }
        other => Err(ServiceError::bad_request(format!(
            "unknown command `{other}` (try `habit help`)"
        ))),
    }
}

/// The crate version the binary was built from.
pub fn version() -> &'static str {
    env!("CARGO_PKG_VERSION")
}

/// The `habit help` text.
pub fn help_text() -> &'static str {
    "habit — H3 Aggregation-Based Imputation for vessel Trajectories

USAGE: habit <command> [flags]

COMMANDS
  synth    generate a synthetic AIS CSV
           --dataset dan|kiel|sar  --out FILE  [--seed N] [--scale F]
  fit      fit a HABIT model from an AIS CSV
           --input FILE  --out FILE  [--resolution 6..10] [--tolerance M]
           [--projection center|median] [--save-state]
           (--save-state embeds the fit state: bigger blob, refittable)
  refit    merge a delta AIS CSV of NEW trips into a fitted model
           --model FILE  --input FILE  [--out FILE] [--threads N]
           (model must embed fit state — `fit --save-state`; without
           --out the refitted blob overwrites --model; byte-identical
           to a from-scratch fit over history + delta)
  impute   impute one gap (--from/--to) or a gap CSV (--input FILE|-)
           --model FILE  --from LON,LAT,T  --to LON,LAT,T  [--out FILE]
           --model FILE  --input FILE|-  [--out FILE]
           [--provenance]   (emit per-point repair provenance CSV:
           t,lon,lat,kind,cell,from_cell,cell_msgs,edge_transitions,
           cost_share,confidence — kind is observed|route|synthesized)
  batch    impute a CSV of gap queries concurrently (dedup + route cache)
           --model FILE  --input FILE|-  --out FILE  [--threads N]
           [--cache ENTRIES]   (defaults: all cores, 4096 routes; `-` = stdin)
  repair   fill every gap in a single-vessel track CSV (t,lon,lat)
           --model FILE  --input FILE  --out FILE  [--threshold SECONDS]
           [--densify METERS|none]   (default: 250 m)
  info     describe a fitted model
           --model FILE
  eval     quick accuracy/latency comparison on a synthetic dataset
           --dataset dan|kiel|sar  [--seed N] [--scale F] [--gap MINUTES]
  export   build a traffic density map from an AIS CSV
           --input FILE  --out FILE  [--resolution 1..15]
           [--format geojson|csv] [--model FILE] [--preview]
  serve    long-lived line-JSON-over-TCP daemon over a fitted model
           --model FILE  [--host ADDR] [--port N] [--threads N]
           [--cache ENTRIES] [--conn-threads N] [--watch-stdin]
           [--metrics-port N] [--batch-window-us N] [--batch-max-gaps N]
           [--no-coalesce] [--max-line-bytes N]
           (defaults: 127.0.0.1:4740; --port 0 picks a free port;
           --threads (all cores) bounds each engine pass, not the daemon:
           overlapping passes (a refit, --no-coalesce) each get that many;
           --watch-stdin shuts down cleanly when stdin closes; --metrics-port
           serves plaintext metrics over HTTP on the same host — GET / for
           counters, GET /spans for recent stage spans as line JSON;
           concurrent impute traffic is coalesced into shared engine batches
           — byte-identical answers: a request that finds no engine pass
           running is answered at once on its connection's thread, those that
           arrive during a pass wait up to --batch-window-us (1000) for
           company, cut short when --batch-max-gaps (128) queue, and share one
           pass — as does every request while windows keep catching company;
           0 never lingers; a full queue rejects with the typed `overloaded`
           error; --no-coalesce drops the queue (every request on its
           connection's thread, passes in parallel); request lines longer
           than --max-line-bytes (16 MiB) are rejected)
  help     this text
  version  print the habit version (also --version / -V)

EXAMPLES
  # Synthesize a small KIEL-style corridor, fit a model, inspect it:
  habit synth --dataset kiel --scale 0.3 --seed 42 --out kiel.csv
  habit fit --input kiel.csv --resolution 9 --tolerance 100 --out kiel.habit
  habit info --model kiel.habit

  # Incremental refit: fit once with the state embedded, then absorb
  # each new day of trips without re-reading the history:
  habit fit --input day1.csv --out kiel.habit --save-state
  habit refit --model kiel.habit --input day2.csv
  habit refit --model kiel.habit --input day3.csv

  # Impute one 60-minute gap (from/to are lon,lat,t triples):
  habit impute --model kiel.habit --from 10.30,57.10,0 --to 10.85,57.45,3600

  # Impute a whole gap file at once (prints a throughput summary):
  habit batch --model kiel.habit --input gaps.csv --out imputed.csv --threads 4

  # Stream gap queries from stdin (`-`), matching the daemon's shape:
  cat gaps.csv | habit batch --model kiel.habit --input - --out imputed.csv
  head -3 gaps.csv | habit impute --model kiel.habit --input -

  # Repair every gap in a single-vessel track, then export a density map:
  habit repair --model kiel.habit --input track.csv --out repaired.csv
  habit export --input kiel.csv --resolution 8 --format geojson --out density.geojson

  # Quick accuracy/latency comparison on a synthetic dataset:
  habit eval --dataset sar --scale 0.2 --gap 60

  # Serve the model over TCP (habit-wire/v1: one JSON request per line)
  # and talk to it with netcat:
  habit serve --model kiel.habit --port 4740 &
  printf '%s\\n' '{\"v\":1,\"op\":\"health\"}' | nc 127.0.0.1 4740
  printf '%s\\n' \\
    '{\"v\":1,\"op\":\"impute\",\"from\":[10.30,57.10,0],\"to\":[10.85,57.45,3600]}' \\
    | nc 127.0.0.1 4740
  printf '%s\\n' '{\"v\":1,\"op\":\"metrics\"}' | nc 127.0.0.1 4740
  printf '%s\\n' '{\"v\":1,\"op\":\"shutdown\"}' | nc 127.0.0.1 4740

  # Scrape the daemon's plaintext metrics endpoint (counters, gauges,
  # latency histograms) without speaking the wire protocol:
  habit serve --model kiel.habit --port 4740 --metrics-port 9464 &
  curl -s 127.0.0.1:9464/

EXIT CODES (shell-friendly, stable)
  0  success
  1  runtime failure (bad input file, no path found, I/O error)
  2  usage error (unknown command/flag, missing or unparsable value)
  Codes derive from the service error taxonomy: `bad_request` exits 2,
  every other error code exits 1. Daemon responses carry the same codes
  (bad_request, io, csv, bad_input, grid, no_model, empty_model,
  no_path, snap_failed, bad_model_blob, unsorted_input, state_version,
  config_drift, overloaded, internal) in
  {\"ok\":false,\"error\":{\"code\":...,\"message\":...}}.

Formats: AIS CSV = mmsi,t,lon,lat[,sog,cog,heading]; track CSV = t,lon,lat;
gap CSV = lon1,lat1,t1,lon2,lat2,t2 (`batch`/`impute --input`; outputs
prefix a `gap` query-index column). Model files are HABIT's compact binary
blobs (`fit` output). Wire protocol: habit-wire/v1, line-delimited JSON
(endpoints [lon,lat,t], track points [t,lon,lat], cells hex strings)."
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_command_is_a_usage_error() {
        let args = Args::parse(["frobnicate".to_string()]).unwrap();
        let err = dispatch(&args).unwrap_err();
        assert!(err.to_string().contains("unknown command"));
        assert_eq!(err.code, habit_service::ErrorCode::BadRequest);
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn help_runs() {
        let args = Args::parse(["help".to_string()]).unwrap();
        assert!(dispatch(&args).is_ok());
        assert!(help_text().contains("impute"));
    }

    #[test]
    fn help_documents_examples_exit_codes_and_serve() {
        let text = help_text();
        assert!(text.contains("EXAMPLES"));
        assert!(text.contains("habit fit --input kiel.csv"));
        assert!(text.contains("EXIT CODES"));
        assert!(text.contains("2  usage error"));
        assert!(text.contains("version"));
        // The daemon and its wire protocol are documented with a worked
        // netcat example and the full error-code table.
        assert!(text.contains("serve"));
        assert!(text.contains("nc 127.0.0.1 4740"));
        assert!(text.contains("\"op\":\"shutdown\""));
        for code in habit_service::ErrorCode::ALL {
            assert!(text.contains(code.as_str()), "help lists {code}");
        }
        // stdin streaming is documented.
        assert!(text.contains("--input -"));
    }

    #[test]
    fn version_runs_under_all_spellings() {
        for spelling in ["version", "--version", "-V"] {
            let args = Args::parse([spelling.to_string()]).unwrap();
            assert!(dispatch(&args).is_ok(), "{spelling}");
        }
        assert!(!version().is_empty());
        assert!(
            version().split('.').count() >= 2,
            "semver-ish: {}",
            version()
        );
    }
}
