//! Generated repository documentation.
//!
//! `README.md` is generated, not hand-written, so it cannot drift from
//! the code: the quickstart section embeds `examples/quickstart.rs`
//! verbatim via `include_str!`, the CLI section embeds the `habit`
//! binary's live `help_text()`, and CI re-renders the file and fails if
//! the committed copy is stale (`gen_readme --check`).

/// The `examples/quickstart.rs` source, embedded at compile time.
pub const QUICKSTART_SRC: &str = include_str!("../../../examples/quickstart.rs");

/// Renders the repository `README.md`.
pub fn render_readme() -> String {
    format!(
        r#"# HABIT — Data-Driven Trajectory Imputation for Vessel Mobility Analysis

<!-- GENERATED FILE — do not edit by hand.
Regenerate:

    cargo run -p habit-bench --release --bin gen_readme

CI runs `gen_readme --check` and fails when this file is stale. -->

A from-scratch Rust reproduction of **"Data-Driven Trajectory Imputation
for Vessel Mobility Analysis"** (EDBT 2026): HABIT fills AIS
communication gaps by aggregating historical vessel traffic into an
H3-style hexagonal cell graph and A*-searching the habitually most
frequent path between the gap endpoints, then projecting cells back to
coordinates with a data-driven median projection and RDP simplification.

The workspace builds fully offline — external dependencies (`rand`,
`proptest`) are vendored as API-compatible stubs under `vendor/`, and
report/GeoJSON serialization is hand-rolled (no serde).

## Architecture

Fifteen crates in eight layers, plus the `habit` umbrella crate
re-exporting a prelude:

```text
             ┌──────────────────────────────────────────────────┐
             │          habit — umbrella crate + prelude        │
             └──────────────────────────────────────────────────┘
 apps        habit-cli (`habit` binary)   habit-bench (one experiment runner)
             ────────────────────────────────────────────────────
 facade      habit-service (typed request/response API, unified
             error taxonomy, `habit serve` line-JSON TCP daemon)
             ────────────────────────────────────────────────────
 serving     habit-engine (thread pool,   habit-obs (zero-dep spans,
             sharded + incremental fit    metrics registry, plaintext
             over FitState, batched       + span-JSON renderers)
             imputation with LRU cache)
             ────────────────────────────────────────────────────
 evaluation  eval (DTW, gap injection,    density (traffic density
             splits, experiment reports)  maps & rendering)
             ────────────────────────────────────────────────────
 methods     habit-core (HABIT model:     baselines (SLI, GTI,
             fit / impute / state)        PaLMTO competitors)
             ────────────────────────────────────────────────────
 substrate   aggdb (DuckDB aggregates:    mobgraph (cell transition
             HLL, medians, FxHash)        graph + A* search)
             ────────────────────────────────────────────────────
 kernel      geo-kernel (geodesy, DTW,    hexgrid (H3-style hexagonal
             RDP, GeoJSON)                indexing)
             ────────────────────────────────────────────────────
 data        ais (cleaning, events,       synth (synthetic AIS worlds:
             trips, typed TripTable)      DAN / KIEL / SAR analogues)
```

| crate | role |
|-------|------|
| `crates/geo` (`geo-kernel`) | geodesic primitives: haversine, bearings, RDP simplification, polylines, GeoJSON writers |
| `crates/hexgrid` | H3-style hexagonal grid: cell ids, lat/lon↔cell, neighbors, cell boundaries |
| `crates/aggdb` | the aggregates of the paper's DuckDB CTE: `approx_count_distinct` (HyperLogLog, with its serialized record), exact `median`, and the FxHash the sketches and hash maps use |
| `crates/mobgraph` | mobility graph: frozen CSR transition graph (one constructor, one HBG1 codec), mutable adjacency list, A* search |
| `crates/ais` | AIS data model, cleaning filters, mobility events, trip segmentation, the typed seven-column `TripTable` |
| `crates/synth` | seeded synthetic AIS datasets mirroring the paper's DAN / KIEL / SAR feeds |
| `crates/core` (`habit-core`) | the HABIT method: fit, gap imputation, per-vessel-type models, the typed window `lag`, persistable `FitState` — the paper's two group-bys as typed, mergeable accumulators (v2 model container) |
| `crates/engine` (`habit-engine`) | parallel serving: scoped-thread chunk map, fit sharded by cell hash as `accumulate → merge → finalize` over `FitState` (byte-identical to sequential), incremental refit, batched imputation with route dedup + LRU cache |
| `crates/obs` (`habit-obs`) | dependency-free observability substrate: monotonic span recorder, deterministic metrics registry (counters / gauges / fixed-bucket histograms), plaintext and span-JSON renderers |
| `crates/service` (`habit-service`) | unified service facade: typed `Request`/`Response` API, whole-track repair (a track's silences answered as one batch), `ServiceError` taxonomy with stable codes, shared CSV converters over one typed, line-numbering decoder, line-JSON wire codec + TCP server |
| `crates/baselines` | competitors: SLI straight-line, GTI point-graph, PaLMTO N-gram |
| `crates/density` | traffic density maps and exports built on the same substrate |
| `crates/eval` | experiment harness: DTW accuracy, gap cases, the experiment grid (each dataset × method fitted once, every gap's outcome kept), `ExperimentReport` |
| `crates/cli` (`habit-cli`) | the `habit` command-line tool — thin adapters over `habit-service` |
| `crates/bench` (`habit-bench`) | the thirteen experiments as declarations over one grid, the `all_experiments` runner, report/README generators, the P² median estimator the medians ablation measures |

## Quickstart

```sh
cargo run --release --example quickstart
```

<details>
<summary><code>examples/quickstart.rs</code> — dataset → fit → impute → evaluate (embedded verbatim)</summary>

```rust
{quickstart}```

</details>

More examples: `compare_methods`, `density_map`, `fleet_types`,
`port_traffic` (`cargo run --release --example <name>`).

### Incremental refit

Fitting normally re-scans the whole history. With the persistable
**fit state** (the fit's partial aggregates — counts, HLL sketches,
median buffers — as a versioned binary blob embedded in a v2 model
container), each new day of trips merges in **byte-identically** to a
from-scratch fit over history ∪ delta (property-tested at every
shard/thread count), without re-reading the history:

```sh
habit fit   --input day1.csv --out kiel.habit --save-state
habit refit --model kiel.habit --input day2.csv       # updates in place
habit refit --model kiel.habit --input day3.csv
habit info  --model kiel.habit    # blob version, state size, fit provenance
```

The delta must contain whole, *new* trips (new vessels / new days —
trip and vessel streams must not straddle the boundary). Lean v1 blobs
(`fit` without `--save-state`) stay the default — smaller, read-only —
and still load everywhere. The running daemon accepts the same
operation over the wire (`{{"v":1,"op":"refit","input":"day2.csv"}}`)
and hot-swaps the refitted model without dropping connections.

## The `habit` CLI

Every model-touching command is a thin adapter over
`habit_service::Service` — the same facade the daemon serves over TCP —
so the CLI, the daemon, and the tests exercise one code path.

```text
{help}
```

## The `habit serve` daemon

`habit serve --model kiel.habit --port 4740` exposes the full service
over **habit-wire/v1**: line-delimited JSON over TCP (hand-rolled, no
serde/tokio), one request per line, one response line per request.
Requests carry the protocol version and an operation
(`health`, `model_info`, `impute`, `impute_batch`, `repair`, `fit`,
`refit`, `metrics`, `shutdown`); gap endpoints are `[lon,lat,t]`, track
points `[t,lon,lat]`, cell ids hex strings. A worked netcat session:

```sh
habit serve --model kiel.habit --port 4740 &
printf '%s\n' '{{"v":1,"op":"health"}}' | nc 127.0.0.1 4740
# {{"v":1,"ok":true,"op":"health","data":{{"status":"serving",...}}}}
printf '%s\n' '{{"v":1,"op":"impute","from":[10.30,57.10,0],"to":[10.85,57.45,3600]}}' \
    | nc 127.0.0.1 4740
# {{"v":1,"ok":true,"op":"impute","data":{{"points":[[0,10.3,57.1],...],...}}}}
printf '%s\n' '{{"v":1,"op":"shutdown"}}' | nc 127.0.0.1 4740
# {{"v":1,"ok":true,"op":"shutdown","data":{{"stopping":true}}}}
```

Failures come back as `{{"ok":false,"error":{{"code":...,"message":...}}}}`
with a stable machine-readable code; the CLI derives its exit codes from
the same taxonomy (`bad_request` exits 2, every other code exits 1):

| code | exit | meaning |
|------|------|---------|
| `bad_request` | 2 | malformed request: unknown op/flag, bad value, wrong protocol version |
| `io` | 1 | file or socket I/O failure |
| `csv` | 1 | CSV input could not be parsed |
| `bad_input` | 1 | input rows/columns have the wrong shape or type |
| `grid` | 1 | invalid coordinate or grid resolution |
| `no_model` | 1 | the operation needs a model but none is loaded |
| `empty_model` | 1 | fit produced (or the model has) no transition graph |
| `no_path` | 1 | no historical path between the snapped gap endpoints |
| `snap_failed` | 1 | a gap endpoint could not be snapped onto the model |
| `bad_model_blob` | 1 | a serialized model file is corrupt or incompatible |
| `unsorted_input` | 1 | a track was not sorted by timestamp |
| `state_version` | 1 | fit-state version unsupported, or the model embeds no state (refit needs one) |
| `config_drift` | 1 | refit delta accumulated under a different fit configuration |
| `overloaded` | 1 | the admission queue is full — back off and retry |
| `internal` | 1 | unexpected internal failure |

The daemon answers `impute`, `impute_batch` and `repair` through the
engine's batch imputer, so recurring routes are served from a warm LRU
cache across requests, connections and operations; `fit` and `refit`
hot-swap the serving model in place (a refit snapshots the state, accumulates the delta off the
request path, and swaps at the end, so imputations keep flowing).
Graceful shutdown: the `shutdown` op, or start with `--watch-stdin` and
close the daemon's stdin pipe (supervisor-friendly; no signal handler
needed in the std-only build); either way the admission queue is
drained first, so every already-accepted request is answered before the
listener stops. Request lines are capped at `--max-line-bytes`
(default 16 MiB); oversized lines are rejected with `bad_request` and
counted under their own `op="oversized_line"` metrics label.

A `repair` request (`{{"v":1,"op":"repair","track":[[t,lon,lat],...],"threshold_s":1800}}`,
optional `densify_m` — 250 m by default, `null` for none — and
`provenance`) finds every silence of at least `threshold_s` seconds and
sends them as **one submission**, like an `impute_batch`'s gaps: on a
coalescing daemon it obeys the same admission bound (a track whose
silences do not fit in the queue is answered with `overloaded`),
while the in-process `habit repair` has no bound. The request fails as
a whole only on its input: `bad_input` (fewer than two points),
`bad_request` (threshold or spacing), `no_model` or `unsorted_input`.
A silence that cannot be filled is data: its gap record carries
`impute`'s code and message (`snap_failed`, `no_path`, or
`empty_model` on a model without cells), and the track keeps its two
reports around it.

### Admission batching & SLOs

There is **one request path**: every `impute`/`impute_batch`/`repair`
is a *submission* of gaps, and a flush answers one or more submissions
from a single engine batch — one snap + dedup + route-cache pass over all their
gaps, results scattered back per submission. What varies is only how
many submissions share a flush, and on which thread it runs. By default
the daemon **group-commits concurrent traffic across connections, and
only concurrent traffic**: at most one engine pass runs at a time; a
request that finds none running is answered at once on its own
connection's thread (a flush of one — a lone request pays no hand-off),
and the submissions that arrive while a pass runs wait in a bounded
admission queue, which a flusher empties into one shared batch the
moment that pass ends — so N connections asking for the same uncached
route at the same time cost one A* search instead of N. No timer is
involved: a queued request waits only for the pass ahead of it, and a
busy daemon is bound by CPU, not by a sleep. `--batch-max-gaps`
(default 128) sizes the queue at eight times that many gaps. With
`--no-coalesce` (or while the queue drains at shutdown) there is no
queue and no one-pass-at-a-time rule: each request is a flush of its own
single submission on its connection's thread, passes in parallel — the
direct path is the same code, not a second implementation. Either way
answers are **byte-identical** (pinned by service-level scatter tests, a
scatter proptest, and a concurrent end-to-end test against the real
binary). When the queue is full the
daemon answers with the typed `overloaded` error instead of blocking
the accept loop. The `health` payload reports the admission state —
`queue_depth`, `queue_capacity`, and per-op `p50_us`/`p95_us`/`p99_us`
latency quantiles derived from the pinned-bucket histograms — and the
metrics endpoint exports `habit_admission_queue_depth`, flush/rejection
counters, a flush batch-size histogram, `habit_admission_wait_us` (per
queued submission, from its arrival to the start of the flush that
answers it), and `habit_admission_flush_cause_total{{cause=…}}` — each
pass under why it ran when it did (`idle` passed through, `queued`
behind the pass before it, `size` the same with at least
`--batch-max-gaps` gaps, `drain` at shutdown).

## Observability

The whole stack is instrumented through `habit-obs`, a dependency-free
tracing/metrics substrate (monotonic microsecond span clock, never
`SystemTime`, so serialized output stays deterministic). Every request
records per-stage spans (`parse → handle → route → impute → render`;
`fit`/`refit` phases likewise) and feeds a deterministic metrics
registry — per-op request/error counters, latency histograms with
pinned buckets, route-cache hit/miss counters, a live connection gauge.
The same numbers are exposed three ways:

```sh
# 1. The `metrics` wire op — a structured snapshot over habit-wire/v1:
printf '%s\n' '{{"v":1,"op":"metrics"}}' | nc 127.0.0.1 4740

# 2. The extended `health` payload: uptime_ticks, requests_total, and
#    route-cache hit/miss counters, monotonic across requests.

# 3. A plaintext HTTP endpoint (Prometheus-style lines, stable layout):
habit serve --model kiel.habit --port 4740 --metrics-port 9464 &
curl -s 127.0.0.1:9464/        # habit_requests_total{{op="impute"}} 2 ...
curl -s 127.0.0.1:9464/spans   # recent spans, one JSON object per line
```

`/spans` shows the most recent 1 024 spans; `habit_spans_dropped_total`
counts the older ones the ring has let go, so a gap in the history is
visible rather than silent.

Failed requests are spanned too — a malformed line shows up under
`habit_errors_total{{code="bad_request",op="unknown"}}`, so error rates
are first-class, not inferred.

**Per-point repair provenance** explains *how* each imputed point was
produced. Opt-in (`"provenance":true` on `impute`/`impute_batch`/
`repair`, or `habit impute --provenance`); the imputed points are
byte-identical with and without it, and the off path adds zero work:

```sh
habit impute --model kiel.habit --provenance \
    --from 10.30,57.10,0 --to 10.85,57.45,3600
# t,lon,lat,kind,cell,from_cell,cell_msgs,edge_transitions,cost_share,confidence
# 0,10.300000,57.100000,observed,0x8900...,,6,0,0.000000,1.000000
# 503,10.317000,57.130000,route,0x8900...,0x8900...,2,1,0.034483,0.500000
```

`kind` is `observed` (a gap endpoint), `route` (projected from the
habitual cell path), or `synthesized` (densified between route points);
`cell_msgs` is the historical support under the point's cell,
`cost_share` its share of the A* path cost, `confidence` a
support-derived [0,1] score. Run-to-run byte identity of this CSV is
pinned by a committed golden under `crates/cli/tests/golden/`.

## Reproducing the paper's evaluation

Every table and figure of the paper's §4 (plus four ablations) is an
experiment id of one runner, which fits each (dataset, method) pair the
selected experiments read once; [`EXPERIMENTS.md`](EXPERIMENTS.md) is
the committed baseline, generated — never hand-edited:

```sh
# Re-run everything and regenerate reports/*.json + EXPERIMENTS.md
# (~1 minute in release mode at full scale on 2 cores):
cargo run -p habit-bench --release --bin all_experiments -- --out-dir reports/

# Re-render EXPERIMENTS.md from the committed JSON without re-running:
cargo run -p habit-bench --release --bin all_experiments -- --render-only --out-dir reports/

# Some experiments, e.g. Figure 5 (markdown on stdout):
cargo run -p habit-bench --release --bin all_experiments -- fig5
```

Each `reports/<id>.json` is a versioned `habit-experiment-report/v1`
document carrying the experiment's paper reference, parameters, metric
tables, and wall-clock / peak-RSS provenance; CI re-renders
`EXPERIMENTS.md` from them and fails on drift, so the committed numbers
always match the committed generator.

Set `HABIT_EVAL_SCALE` (default `1.0`) to shrink the synthetic datasets
for quick smoke runs, e.g. `HABIT_EVAL_SCALE=0.05`. Datasets are seeded
synthetic analogues of the paper's real AIS feeds, so absolute numbers
differ from the paper while the comparative shapes it argues from are
preserved (see the paper-vs-reproduction table in `EXPERIMENTS.md`).

## Performance

Serving and fitting performance has one source:
[`benchmark/`](benchmark/README.md), declared in
[`BENCHMARK.json`](BENCHMARK.json). It drives the release `habit`
binary as child processes and over real TCP, byte-checks every served
line against an in-process reference, and reports end-to-end metrics
with regression bounds plus per-layer probes. Four workloads:
`serve_cold` (every request pays snap + A* + tail), `serve_hot`
(cache-resident routes: wire, admission, tail, sockets), `batch_mixed`
(256-gap `impute_batch`, half hot, half cold) and `fit_refit` (`habit
fit --save-state`, then `habit refit` of a delta). One command per
workload; the last stdout line is the result JSON:

```sh
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload serve_hot --seed 7 --seconds 12 --trace 0
```

`EXPERIMENTS.md` makes no serving or fitting speed claim: only Tables 2
and 4 there — the paper's own storage and latency comparison against
GTI/SLI — are size or speed figures.

## Development

```sh
cargo build --release && cargo test -q   # tier-1 gate
cargo fmt --all --check && cargo clippy --workspace --all-targets
```

CI runs clippy with `RUSTFLAGS="-D warnings"`. Beyond `clippy::all`,
the workspace lints reject a `for` over a hash container
(`iter_over_hash_type`: hash order must not reach a codec or report),
any `partial_cmp` call (`clippy.toml`; floats sort by `total_cmp`) and
any `#[allow]` or reasonless suppression: silence a lint with
`#[expect(lint, reason = "…")]`, which rustc reports once it silences
nothing. `tests/code_size.rs` pins the lines of non-test Rust per crate
in [`reports/code_size.json`](reports/code_size.json) and prints the
regenerated file when they drift.

See [ROADMAP.md](ROADMAP.md) for open items, [PAPER.md](PAPER.md) for
the source paper's abstract, [PAPERS.md](PAPERS.md) for related work,
and [CHANGES.md](CHANGES.md) for the PR history.
"#,
        quickstart = QUICKSTART_SRC,
        help = habit_cli::commands::help_text(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readme_embeds_live_sources() {
        let md = render_readme();
        assert!(md.starts_with("# HABIT"));
        assert!(md.contains("GENERATED FILE"));
        // Quickstart is embedded verbatim, so README freshness tracks it.
        assert!(md.contains("fn main()"));
        assert!(md.contains(QUICKSTART_SRC));
        // The CLI section embeds the live help text.
        assert!(md.contains("USAGE: habit <command>"));
        // The daemon section documents the wire protocol, a worked nc
        // example, and the full error-code table.
        assert!(md.contains("habit-wire/v1"));
        assert!(md.contains("nc 127.0.0.1 4740"));
        assert!(md.contains("| `bad_request` | 2 |"));
        assert!(md.contains("| `no_path` | 1 |"));
        assert!(md.contains("| `state_version` | 1 |"));
        assert!(md.contains("| `config_drift` | 1 |"));
        assert!(md.contains("| `overloaded` | 1 |"));
        // The admission-batching section documents the coalescing
        // flags, the backpressure error, and the SLO health fields.
        assert!(md.contains("### Admission batching & SLOs"));
        assert!(md.contains("--batch-max-gaps"));
        assert!(md.contains("habit_admission_wait_us"));
        assert!(md.contains("--no-coalesce"));
        assert!(md.contains("--max-line-bytes"));
        assert!(md.contains("habit_admission_queue_depth"));
        assert!(md.contains("oversized_line"));
        // The incremental-refit workflow is documented with a worked
        // command sequence and the wire op.
        assert!(md.contains("### Incremental refit"));
        assert!(md.contains("habit refit --model kiel.habit"));
        assert!(md.contains("\"op\":\"refit\""));
        // The observability section documents all three metrics
        // surfaces and the provenance CSV schema.
        assert!(md.contains("## Observability"));
        assert!(md.contains("\"op\":\"metrics\""));
        assert!(md.contains("--metrics-port 9464"));
        assert!(md.contains("curl -s 127.0.0.1:9464/spans"));
        assert!(md.contains(
            "t,lon,lat,kind,cell,from_cell,cell_msgs,edge_transitions,cost_share,confidence"
        ));
        assert!(md.contains("habit impute --model kiel.habit --provenance"));
        // Development names the compiler-enforced rules and the code-size
        // report.
        assert!(md.contains("iter_over_hash_type"));
        assert!(md.contains("#[expect(lint, reason = \"…\")]"));
        assert!(md.contains("reports/code_size.json"));
        // Performance points at the one instrument and nowhere else.
        assert!(md.contains("## Performance"));
        assert!(md.contains("benchmark/README.md"));
        assert!(md.contains("BENCHMARK.json"));
        assert!(!md.contains("cargo bench"));
        // All 15 crates appear in the table.
        for krate in [
            "geo-kernel",
            "hexgrid",
            "aggdb",
            "mobgraph",
            "ais",
            "synth",
            "habit-core",
            "habit-engine",
            "habit-obs",
            "habit-service",
            "baselines",
            "density",
            "eval",
            "habit-cli",
            "habit-bench",
        ] {
            assert!(md.contains(krate), "README must mention {krate}");
        }
        // Deterministic render.
        assert_eq!(md, render_readme());
    }
}
