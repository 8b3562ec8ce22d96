//! The traced run: per-layer numbers taken from outside the program —
//! by timing calls into public functions in-process over the same
//! generated inputs, and by differencing the daemon's own counters
//! around the measured phases. Every call is wrapped in a span held in
//! memory and written to `benchmark/out/trace-<workload>.jsonl` at the
//! end. End-to-end numbers never come from here.

use crate::data::{self, Sequence, Workload};
use crate::fit_refit::{materialise, Inputs};
use crate::loadgen::closed_loop;
use crate::spec::Outcome;
use crate::stats::{mean, percentile, sort};
use crate::{serve, Ctx};
use ais::{segment_all, segment_all_from, trips_to_table, TripConfig};
use habit_core::graphgen::lagged_trip_table;
use habit_core::{FitState, HabitConfig, HabitModel};
use habit_engine::{accumulate_sharded, refit_model, BatchImputer, BatchStats, ThreadPool};
use habit_service::csvio::read_ais_csv;
use habit_service::{wire, AdmissionConfig, Response, Service, ServiceConfig};
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Gap slots, from the start of the sequence, the in-process probes
/// replay.
const PROBE_SLOTS: usize = 2000;
/// Compute threads of the in-process probes: what the daemon runs with
/// and what `habit fit` picks on the two-core host. The fit shards one
/// group-by per thread, as the CLI does.
const THREADS: usize = 2;

/// One recorded span. `id` is its 1-based position; `parent` 0 means
/// none; spans of one request share `req`.
struct Span {
    parent: u32,
    req: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder. A layer's self time is its span minus the
/// part of it its children cover.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    fn begin(&mut self, name: &'static str, parent: u32, req: u32) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent,
            req,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() as u32
    }

    /// Closes span `id` and returns its length in microseconds.
    fn end(&mut self, id: u32) -> f64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = end_ns;
        (end_ns - span.start_ns) as f64 / 1e3
    }

    /// A leaf span around `f`; returns its result and microseconds.
    fn timed<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u32,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.begin(name, parent, req);
        let result = std::hint::black_box(f());
        (result, self.end(id))
    }

    /// What recording one empty span costs, nanoseconds: two clock
    /// reads and a push.
    fn overhead_ns() -> f64 {
        let mut probe = Tracer::new();
        let started = Instant::now();
        for _ in 0..100_000 {
            probe.timed("overhead", 0, 0, || ());
        }
        started.elapsed().as_nanos() as f64 / 100_000.0
    }

    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                file,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                i + 1,
                s.parent,
                s.req,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        file.flush()
    }
}

fn p50(values: &mut [f64]) -> f64 {
    sort(values);
    percentile(values, 0.50)
}

/// One fit → refit round in-process, stage by stage, over the seed's
/// `union.csv` / `history.csv` / `delta.csv`.
fn write_side(tr: &mut Tracer, inputs: &Inputs, out: &mut Outcome) -> Result<(), String> {
    let e = |e: habit_core::HabitError| e.to_string();
    let config = HabitConfig::default();
    let trip_config = TripConfig::default();
    let pool = ThreadPool::new(THREADS);
    let root = tr.begin("fit_refit", 0, 0);

    let (trajectories, us) = tr.timed("service.csvio.read_ais_csv", root, 0, || {
        read_ais_csv(inputs.union.as_ref())
    });
    let trajectories = trajectories.map_err(|e| e.to_string())?;
    let rows = data::report_count(&trajectories) as f64;
    out.set("service.csvio.read_ais_ms", us / 1e3);
    out.set("service.csvio.read_ais_rows_per_s", rows / (us / 1e6));

    let (trips, us) = tr.timed("ais.segment_all", root, 0, || {
        segment_all(&trajectories, &trip_config)
    });
    out.set("ais.segment_ms", us / 1e3);
    out.set("ais.trips", trips.len() as f64);
    let (table, us) = tr.timed("ais.trips_to_table", root, 0, || trips_to_table(&trips));
    out.set("ais.table_ms", us / 1e3);

    let (lagged, us) = tr.timed("core.graphgen.lagged_trip_table", root, 0, || {
        lagged_trip_table(&table, &config)
    });
    lagged.map_err(e)?;
    out.set("core.lag_ms", us / 1e3);
    let (state, us) = tr.timed("core.FitState.accumulate", root, 0, || {
        FitState::accumulate(&table, config)
    });
    out.set("core.accumulate_ms", us / 1e3);
    let (sharded, us) = tr.timed("engine.accumulate_sharded", root, 0, || {
        accumulate_sharded(&table, config, THREADS, &pool)
    });
    sharded.map_err(e)?;
    out.set("engine.accumulate_sharded_ms", us / 1e3);
    let (model, us) = tr.timed("core.HabitModel.from_fit_state", root, 0, || {
        state.and_then(HabitModel::from_fit_state)
    });
    let model = model.map_err(e)?;
    out.set("core.finalize_ms", us / 1e3);
    out.set("core.cells", model.node_count() as f64);
    out.set("core.transitions", model.edge_count() as f64);

    let (lean, us) = tr.timed("core.HabitModel.to_bytes", root, 0, || model.to_bytes());
    out.set("core.encode_lean_ms", us / 1e3);
    out.set("core.blob_lean_bytes", lean.len() as f64);
    let (full, us) = tr.timed("core.HabitModel.to_bytes_full", root, 0, || {
        model.to_bytes_full()
    });
    out.set("core.encode_full_ms", us / 1e3);
    out.set("core.blob_full_bytes", full.len() as f64);
    let (decoded, us) = tr.timed("core.HabitModel.from_bytes(lean)", root, 0, || {
        HabitModel::from_bytes(&lean)
    });
    decoded.map_err(e)?;
    out.set("core.decode_lean_ms", us / 1e3);
    let (decoded, us) = tr.timed("core.HabitModel.from_bytes(full)", root, 0, || {
        HabitModel::from_bytes(&full)
    });
    decoded.map_err(e)?;
    out.set("core.decode_full_ms", us / 1e3);

    // The refit half: history and delta accumulated apart, merged, and
    // the engine's refit on top of the history model.
    let read = |path: &str| read_ais_csv(path.as_ref()).map_err(|e| e.to_string());
    let history_trips = segment_all(&read(&inputs.history)?, &trip_config);
    let first_delta_id = history_trips.iter().map(|t| t.trip_id).max().unwrap_or(0) + 1;
    let delta_trips = segment_all_from(&read(&inputs.delta)?, &trip_config, first_delta_id);
    let delta_table = trips_to_table(&delta_trips);
    let history_state = FitState::accumulate(&trips_to_table(&history_trips), config).map_err(e)?;
    let delta_state = FitState::accumulate(&delta_table, config).map_err(e)?;
    let mut merged = history_state.clone();
    let (result, us) = tr.timed("core.FitState.merge", root, 0, || merged.merge(delta_state));
    result.map_err(e)?;
    out.set("core.state_merge_ms", us / 1e3);
    let history_model = HabitModel::from_fit_state(history_state).map_err(e)?;
    let (refitted, us) = tr.timed("engine.refit_model", root, 0, || {
        refit_model(&history_model, &delta_table, THREADS, &pool)
    });
    let (refitted, _) = refitted.map_err(e)?;
    out.set("engine.refit_ms", us / 1e3);
    out.check(refitted.to_bytes_full() == full, || {
        "in-process refit differs from the in-process fit over history+delta".to_string()
    });
    tr.end(root);
    Ok(())
}

/// What the in-process read-side probes hand to the closure check.
struct ReadSide {
    decode_us: f64,
    encode_us: f64,
    handle_direct_us: f64,
    handle_coalesced_us: f64,
    /// Serial per-request cost of snap ×2, route-if-miss and tail.
    stages_us: f64,
}

/// Replays the first operations of the sequence through every public
/// seam of the read path.
fn read_side(
    tr: &mut Tracer,
    blob: &str,
    model: &Arc<HabitModel>,
    seq: &Sequence,
    out: &mut Outcome,
) -> Result<ReadSide, String> {
    // The probed operations follow the sequence's priming scan, which
    // the cached probes (engine, `Service::handle`) replay untimed
    // first — as the daemon's warm-up does.
    let priming = 0..seq.priming_ops();
    let probed = priming.end..priming.end + PROBE_SLOTS.div_ceil(seq.gaps_per_op());
    let queries = |i: usize| -> Vec<_> { seq.gaps(i).iter().map(|g| g.query).collect() };
    let request = |i: usize| wire::decode_request(&seq.request(i)).map_err(|e| e.to_string());
    let (mut decode, mut encode) = (Vec::new(), Vec::new());
    let (mut snap, mut route, mut tail) = (Vec::new(), Vec::new(), Vec::new());
    let (mut request_bytes, mut response_bytes) = (Vec::new(), Vec::new());
    let (mut expanded, mut cells, mut points, mut raw_points) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut offcell = 0usize;
    for i in probed.clone() {
        let req = i as u32 + 1;
        let line = seq.request(i);
        let whole = tr.begin("request", 0, req);
        let (decoded, us) = tr.timed("service.wire.decode_request", whole, req, || {
            wire::decode_request(&line)
        });
        decoded.map_err(|e| e.to_string())?;
        decode.push(us);
        let mut answers = Vec::new();
        for gap in seq.gaps(i) {
            let q = &gap.query;
            let (from, us) = tr.timed("core.snap", whole, req, || model.snap(&q.start.pos));
            snap.push(us);
            let (to, us) = tr.timed("core.snap", whole, req, || model.snap(&q.end.pos));
            snap.push(us);
            let (from, to) = (
                from.map_err(|e| e.to_string())?,
                to.map_err(|e| e.to_string())?,
            );
            offcell += usize::from(from.1 > 0.0) + usize::from(to.1 > 0.0);
            let (found, us) = tr.timed("core.route_between", whole, req, || {
                model.route_between(from.0, to.0)
            });
            let found = found.map_err(|e| e.to_string())?;
            route.push(us);
            expanded.push(found.expanded as f64);
            cells.push(found.cells.len() as f64);
            let (imputation, us) = tr.timed("core.imputation_from_route", whole, req, || {
                model.imputation_from_route(q, &found, from.0, to.0)
            });
            tail.push(us);
            points.push(imputation.points.len() as f64);
            raw_points.push(imputation.raw_point_count as f64);
            answers.push(imputation);
        }
        let response = if seq.gaps_per_op() == 1 {
            Response::Imputation(answers.pop().expect("one gap"))
        } else {
            data::batch_response(answers.into_iter().map(Ok).collect())
        };
        let (rendered, us) = tr.timed("service.wire.encode_response", whole, req, || {
            wire::encode_response(&Ok(response))
        });
        encode.push(us);
        request_bytes.push(line.len() as f64);
        response_bytes.push(rendered.len() as f64);
        tr.end(whole);
    }
    sort(&mut route);
    out.set("service.wire.request_bytes_mean", mean(&request_bytes));
    out.set("service.wire.response_bytes_mean", mean(&response_bytes));
    out.set(
        "core.snap_offcell_share",
        offcell as f64 / snap.len() as f64,
    );
    out.set("core.route_us_p95", percentile(&route, 0.95));
    out.set("core.route_expanded_mean", mean(&expanded));
    out.set("core.route_cells_mean", mean(&cells));
    out.set("core.tail_points_mean", mean(&points));
    out.set("core.tail_raw_points_mean", mean(&raw_points));
    let (decode_us, encode_us) = (p50(&mut decode), p50(&mut encode));
    let (snap_us, route_us, tail_us) = (p50(&mut snap), percentile(&route, 0.50), p50(&mut tail));
    out.set("service.wire.decode_us_p50", decode_us);
    out.set("service.wire.encode_us_p50", encode_us);
    out.set("core.snap_us_p50", snap_us);
    out.set("core.route_us_p50", route_us);
    out.set("core.tail_us_p50", tail_us);

    // The engine over the workload's own batch size and order, fresh cache.
    let imputer = BatchImputer::new(Arc::clone(model), 4096);
    let pool = ThreadPool::new(THREADS);
    let mut totals = BatchStats::default();
    let mut engine_us = 0.0;
    for i in priming.clone() {
        imputer.impute_batch(&queries(i), &pool);
    }
    for i in probed.clone() {
        let queries = queries(i);
        let ((_, stats), us) = tr.timed("engine.impute_batch", 0, i as u32 + 1, || {
            imputer.impute_batch(&queries, &pool)
        });
        engine_us += us;
        totals.queries += stats.queries;
        totals.unique_routes += stats.unique_routes;
        totals.cache_hits += stats.cache_hits;
        totals.routes_computed += stats.routes_computed;
    }
    out.set("engine.batch_us_per_gap", engine_us / totals.queries as f64);
    out.set(
        "engine.unique_route_share",
        totals.unique_routes as f64 / totals.queries as f64,
    );
    out.set(
        "engine.cache_hit_share",
        totals.cache_hits as f64 / totals.unique_routes.max(1) as f64,
    );
    out.set("engine.routes_computed", totals.routes_computed as f64);

    // `Service::handle`, one caller, without and with the admission layer.
    let service_config = ServiceConfig {
        threads: THREADS,
        cache_capacity: 4096,
    };
    let mut handle = |name: &'static str, coalesce: bool| -> Result<f64, String> {
        let service =
            Arc::new(Service::with_model_file(service_config, blob).map_err(|e| e.to_string())?);
        for i in priming.clone() {
            service.handle(&request(i)?).map_err(|e| e.to_string())?;
        }
        if coalesce {
            service.enable_admission(AdmissionConfig::default());
        }
        let mut walls = Vec::new();
        for i in probed.clone() {
            let request = request(i)?;
            let (answer, us) = tr.timed(name, 0, i as u32 + 1, || service.handle(&request));
            answer.map_err(|e| e.to_string())?;
            walls.push(us);
        }
        service.shutdown_admission();
        Ok(p50(&mut walls))
    };
    let handle_direct_us = handle("service.handle(direct)", false)?;
    let handle_coalesced_us = handle("service.handle(coalesced)", true)?;
    out.set("service.handle_direct_us_p50", handle_direct_us);
    out.set("service.handle_coalesced_us_p50", handle_coalesced_us);
    out.set(
        "service.admission.wait_us_p50",
        handle_coalesced_us - handle_direct_us,
    );
    let searched_share = totals.routes_computed as f64 / totals.queries as f64;
    let per_gap_us = 2.0 * snap_us + searched_share * route_us + tail_us;
    Ok(ReadSide {
        decode_us,
        encode_us,
        handle_direct_us,
        handle_coalesced_us,
        stages_us: per_gap_us * seq.gaps_per_op() as f64,
    })
}

/// One traced run of `workload`. `fit_refit` has no traffic of its
/// own: its read-side probes and daemon phases replay the cold scan
/// against the blob fitted from the same reports.
pub fn run(ctx: &Ctx, workload: Workload) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tr = Tracer::new();
    let world = data::world(ctx.sizes);
    let inputs = materialise(ctx, &world.train)?;
    write_side(&mut tr, &inputs, &mut out)?;

    let mut serving = serve::set_up(ctx, &world, 1, &mut out)?;
    let pools = serve::pools(ctx, &world, &serving.model)?;
    let seq = Sequence::new(&pools, workload, ctx.seed);
    let probes = read_side(&mut tr, &serving.blob, &serving.model, &seq, &mut out)?;

    // The daemon's own counters, differenced around the measured phases.
    const COUNTERS: [&str; 6] = [
        "habit_route_cache_hits_total",
        "habit_route_cache_misses_total",
        "habit_admission_flushes_total",
        "habit_admission_rejects_total",
        "habit_admission_batch_size_sum",
        "habit_admission_batch_size_count",
    ];
    let mut conns = serve::connect(&serving.daemon.addr)?;
    let warm = serve::warm_up(&mut conns, &seq);
    let before = serving.daemon.counters(COUNTERS)?;
    let load = serve::measure(
        &mut conns,
        &seq,
        serve::open_rate(workload),
        ctx.seconds,
        warm,
    );
    let after = serving.daemon.counters(COUNTERS)?;
    let [hits, misses, flushes, rejects, flushed_gaps, flush_count] =
        std::array::from_fn(|i| after[i] - before[i]);
    load.account(&mut out);
    load.describe(&mut out, true);
    out.set(
        "service.route_cache_hit_share",
        hits / (hits + misses).max(1.0),
    );
    out.set("service.admission.flushes", flushes);
    out.set("service.admission.rejects", rejects);
    out.set(
        "service.admission.gaps_per_flush_mean",
        flushed_gaps / flush_count.max(1.0),
    );

    // One connection, closed loop: the TCP median the in-process parts
    // are subtracted from.
    let single = closed_loop(
        &mut conns[..1],
        &seq,
        load.ops_served(),
        Duration::from_secs_f64(0.3 * ctx.seconds),
        0,
    );
    out.attempted += single.sent as u64;
    out.failed += single.failed() as u64;
    drop(conns);
    let stopped = serving.daemon.shutdown();
    out.check(stopped.is_ok(), || format!("daemon shutdown: {stopped:?}"));
    let tcp_us = percentile(&single.sorted_latencies(), 0.50) * 1e3;
    let residual_us = tcp_us - (probes.decode_us + probes.handle_coalesced_us + probes.encode_us);
    out.set("service.server.residual_us_p50", residual_us);
    out.set("closure.e2e_residual_share", residual_us / tcp_us);
    out.set(
        "closure.handle_residual_share",
        1.0 - probes.stages_us / probes.handle_direct_us,
    );
    out.note("trace.single_connection_tcp_us_p50", tcp_us, "us");
    out.note("trace.span_overhead_ns", Tracer::overhead_ns(), "ns");
    out.note("trace.spans", tr.spans.len() as f64, "count");

    let path = ctx
        .dir
        .parent()
        .expect("scratch dir sits in out/")
        .join(format!("trace-{}.jsonl", workload.name()));
    tr.write(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{} spans written to {}", workload.name(), path.display());
    Ok(out)
}
