//! The service: one struct that owns the serving state and executes
//! every operation of the API.
//!
//! [`Service::handle`] is the single entry point all frontends share:
//! the CLI adapters call it in-process, the TCP daemon calls it per
//! request line, and tests call it directly — so an imputation answered
//! over a socket is byte-for-byte the imputation the CLI prints.
//!
//! There is one serving state (the model blob's [`BatchImputer`],
//! behind one lock) and one way a gap gets answered:
//! `Service::answer` runs *one* engine batch over
//! the submissions it is handed and scatters the results back. The
//! admission flusher hands it the N submissions of a flush; a request
//! that is not queued — no admission layer, an idle queue passing it
//! through, a closed one — hands it its own: the direct path is a
//! flush of one on the caller's thread, not a second implementation.

use crate::admission::{AdmissionConfig, AdmissionQueue, Admitted, FlushCause, Submission};
use crate::error::{ErrorCode, ServiceError};
use crate::metrics::ServiceMetrics;
use crate::request::{FitSpec, RefitSpec, Request};
use crate::response::{
    AdmissionInfo, BatchOutcome, FitStateInfo, FitSummary, HealthInfo, ModelReport, RefitSummary,
    RepairOutcome, RepairedGap, Response,
};
use ais::{segment_all, segment_all_from, trips_to_table, TripConfig, TripTable};
use habit_core::{GapQuery, HabitConfig, HabitModel};
use habit_engine::{fit_sharded_traced, refit_model_traced, BatchImputer, BatchStats, ThreadPool};
use std::borrow::Cow;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

/// Tunables of a [`Service`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Compute threads one engine call (a fit's shards, one flush's
    /// queries) may use. A bound per call, not a process-wide cap:
    /// passes that overlap — a refit during a flush, or parallel passes
    /// under `--no-coalesce` — may each use this many.
    pub threads: usize,
    /// Route-cache capacity of the batch imputer, entries.
    pub cache_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            threads: std::thread::available_parallelism().map_or(1, usize::from),
            cache_capacity: 4096,
        }
    }
}

/// Read access to one of the service's locks, recovering from poison:
/// a panic under a guard must not turn every later request into a panic
/// of its own. Sound because no writer leaves a value half-updated —
/// the serving and admission slots are replaced whole.
fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write access, with [`read`]'s poison recovery.
fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// Reads a refit delta: the AIS CSV at `input` as the table of its
/// trips numbered from `first_id`. Ids continue above the fitted
/// history's high-water mark: they must match what one segmentation
/// pass over history ∪ delta would have assigned (service-fitted
/// histories are dense, so max == count) and never alias an existing
/// id — the per-transition distinct-trip counts would under-count.
fn read_delta(input: &str, first_id: u64) -> Result<TripTable, ServiceError> {
    let trajectories = crate::csvio::read_ais_csv(Path::new(input))?;
    let trips = segment_all_from(&trajectories, &TripConfig::default(), first_id);
    if trips.is_empty() {
        return Err(ServiceError::new(
            ErrorCode::BadInput,
            "delta produced no trips after segmentation — nothing to refit",
        ));
    }
    Ok(trips_to_table(&trips))
}

fn read_model(path: &str) -> Result<HabitModel, ServiceError> {
    let bytes = std::fs::read(path)
        .map_err(|e| ServiceError::new(ErrorCode::Io, format!("{path}: {e}")))?;
    Ok(HabitModel::from_bytes(&bytes)?)
}

fn write_file(path: &Path, bytes: &[u8]) -> Result<(), ServiceError> {
    std::fs::write(path, bytes)
        .map_err(|e| ServiceError::new(ErrorCode::Io, format!("{}: {e}", path.display())))
}

/// Executes [`Request`]s against an owned model, compute-thread bound,
/// and route cache. Transport-agnostic: frontends construct requests, call
/// [`Service::handle`], and render the typed [`Response`].
pub struct Service {
    pool: ThreadPool,
    cache_capacity: usize,
    /// The serving model's imputer — the model and its warm route
    /// cache, replaced as one value — or nothing yet.
    serving: RwLock<Option<BatchImputer>>,
    /// Whether the serving model has no cells — what `Impute`'s
    /// pre-flight refuses — kept beside the lock so the per-request
    /// check does not take it.
    empty_blob: AtomicBool,
    /// Serializes model-swapping operations (`fit`, `refit`): a refit
    /// snapshots the serving state, accumulates off the read lock, and
    /// installs at the end — two concurrent refits would otherwise
    /// both derive from the same snapshot and the loser's delta would
    /// silently vanish (and both would mint colliding trip-id ranges).
    /// Read-only traffic never takes this lock.
    mutate: Mutex<()>,
    /// The admission/coalescing layer, opt-in (`None` answers every
    /// request on its caller's thread; the daemon enables it unless
    /// started with `--no-coalesce`). Behind its own lock so enabling
    /// never contends with serving traffic.
    admission: RwLock<Option<AdmissionState>>,
    stopping: AtomicBool,
    metrics: Arc<ServiceMetrics>,
}

/// The enabled admission layer: the queue plus its flusher thread.
struct AdmissionState {
    queue: Arc<AdmissionQueue>,
    flusher: std::thread::JoinHandle<()>,
}

impl Service {
    /// A service with no model loaded (only `Health`, `Fit` and
    /// `Shutdown` succeed until one is fitted or installed).
    pub fn new(config: ServiceConfig) -> Self {
        Self {
            pool: ThreadPool::new(config.threads),
            cache_capacity: config.cache_capacity.max(1),
            serving: RwLock::new(None),
            empty_blob: AtomicBool::new(false),
            mutate: Mutex::new(()),
            admission: RwLock::new(None),
            stopping: AtomicBool::new(false),
            metrics: Arc::new(ServiceMetrics::new()),
        }
    }

    /// The service's metric surface (shared with the daemon's metrics
    /// endpoint).
    pub fn metrics(&self) -> &Arc<ServiceMetrics> {
        &self.metrics
    }

    /// A service serving `model`.
    pub fn with_model(config: ServiceConfig, model: HabitModel) -> Self {
        let service = Self::new(config);
        service.install_model(model);
        service
    }

    /// A service serving the model blob at `path`.
    pub fn with_model_file(config: ServiceConfig, path: &str) -> Result<Self, ServiceError> {
        Ok(Self::with_model(config, read_model(path)?))
    }

    /// Installs `model` as the serving model (fresh route cache),
    /// replacing whatever served before.
    fn install_model(&self, model: HabitModel) {
        let empty_blob = model.node_count() == 0;
        let imputer = BatchImputer::new(Arc::new(model), self.cache_capacity);
        let mut slot = write(&self.serving);
        self.empty_blob.store(empty_blob, Ordering::SeqCst);
        *slot = Some(imputer);
    }

    /// The loaded model, when one is installed.
    pub fn model(&self) -> Option<Arc<HabitModel>> {
        read(&self.serving).as_ref().map(|s| Arc::clone(s.model()))
    }

    /// Compute threads each engine call may use.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// `true` once a [`Request::Shutdown`] was handled (or
    /// [`Service::request_shutdown`] called); servers poll this.
    pub fn shutdown_requested(&self) -> bool {
        self.stopping.load(Ordering::SeqCst)
    }

    /// Marks the service as stopping (the out-of-band path: closed
    /// stdin pipe, signal bridge).
    pub fn request_shutdown(&self) {
        self.stopping.store(true, Ordering::SeqCst);
    }

    /// Turns on cross-connection admission batching: at most one engine
    /// pass runs at a time. An `Impute`/`ImputeBatch` that finds the
    /// layer idle is answered on its own thread; those that arrive
    /// while a pass runs queue into one bounded [`AdmissionQueue`] and
    /// a flusher thread answers them in one shared engine batch the
    /// moment it ends (group commit; no timer). Answers stay
    /// byte-identical to an unqueued request; a full queue rejects with
    /// the typed `overloaded` code instead of blocking.
    ///
    /// The flusher holds an `Arc` of the service — call
    /// [`Service::shutdown_admission`] to drain the queue and join it
    /// (the daemon does so before it joins its connection workers).
    pub fn enable_admission(self: &Arc<Self>, config: AdmissionConfig) {
        let queue = AdmissionQueue::new(config);
        let service = Arc::clone(self);
        let flusher_queue = Arc::clone(&queue);
        let flusher = std::thread::Builder::new()
            .name("habit-admission".into())
            .spawn(move || {
                while let Some(flush) = flusher_queue.next_flush() {
                    // The flush took everything that was queued.
                    service.metrics.set_admission_queue_depth(0);
                    service.flush_admitted(&flush.submissions, flush.cause);
                }
            })
            .expect("spawn admission flusher");
        *write(&self.admission) = Some(AdmissionState { queue, flusher });
        self.metrics.set_admission_queue_depth(0);
    }

    /// Drains and stops the admission layer: closes the queue (late
    /// submitters are answered on their own thread), lets the flusher
    /// answer everything still queued, and joins it. Safe while
    /// requests are still arriving. Idempotent; a no-op when admission
    /// was never enabled.
    pub fn shutdown_admission(&self) {
        let Some(state) = write(&self.admission).take() else {
            return;
        };
        state.queue.close();
        state.flusher.join().ok();
        self.metrics.set_admission_queue_depth(0);
    }

    /// The admission queue: tests take its gate to stand in for a pass
    /// in flight, so that what they send next queues for the flusher.
    #[cfg(test)]
    pub(crate) fn admission_queue(&self) -> Arc<AdmissionQueue> {
        Arc::clone(&read(&self.admission).as_ref().expect("admission on").queue)
    }

    /// Answers one request's gaps. With an admission queue enabled the
    /// queue decides: queued behind a running pass (the answer comes
    /// from the flusher; `Err` is then the flush's own failure), passed
    /// through because nothing is running, or rejected with the typed
    /// `overloaded`. Whatever is not queued — no queue, a pass-through,
    /// a closed queue — is a flush of this one submission on the
    /// caller's thread, traced under `op`.
    fn submit(
        &self,
        gaps: &[GapQuery],
        provenance: bool,
        op: &'static str,
    ) -> Result<BatchOutcome, ServiceError> {
        let queue = read(&self.admission)
            .as_ref()
            .map(|state| Arc::clone(&state.queue));
        // Held (when passing through) until this request is answered,
        // or unwinds.
        let mut _gate = None;
        if let Some(queue) = queue.as_ref().filter(|_| !gaps.is_empty()) {
            match queue.submit(gaps, provenance) {
                Ok(Admitted::Queued { slot, depth }) => {
                    self.metrics.set_admission_queue_depth(depth);
                    return slot.wait();
                }
                Ok(Admitted::PassThrough(gate)) => {
                    self.metrics
                        .observe_admission_flush(1, gaps.len(), FlushCause::Idle);
                    _gate = Some(gate);
                }
                Ok(Admitted::Bypass) => {}
                Err(e) => {
                    self.metrics.observe_admission_reject();
                    return Err(e);
                }
            }
        }
        let mut answers = self.answer(&[gaps], provenance, op)?;
        Ok(answers.pop().expect("one answer per submission"))
    }

    /// The flusher's unit of work: answer one drained batch of
    /// submissions in at most two shared engine passes (provenance and
    /// plain submissions cannot share a pass — the flag is
    /// batch-global), delivering every slot exactly once — on success
    /// each submission's scattered slice, on failure (no model, or a
    /// panic in the engine) the same typed error to all of the pass.
    fn flush_admitted(&self, submissions: &[Submission], cause: FlushCause) {
        let started = Instant::now();
        let gaps: usize = submissions.iter().map(|s| s.gaps.len()).sum();
        self.metrics
            .observe_admission_flush(submissions.len(), gaps, cause);
        for submission in submissions {
            self.metrics
                .observe_admission_wait(started.saturating_duration_since(submission.queued_at));
        }
        for provenance in [false, true] {
            let group: Vec<&Submission> = submissions
                .iter()
                .filter(|s| s.provenance == provenance)
                .collect();
            if group.is_empty() {
                continue;
            }
            let slices: Vec<&[GapQuery]> = group.iter().map(|s| s.gaps.as_slice()).collect();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.answer(&slices, provenance, "coalesced")
            }))
            .unwrap_or_else(|_| Err(ServiceError::internal("coalesced flush panicked")));
            match outcome {
                Ok(answers) => {
                    for (submission, answer) in group.iter().zip(answers) {
                        submission.slot.complete(Ok(answer));
                    }
                }
                Err(e) => {
                    for submission in group {
                        submission.slot.complete(Err(e.clone()));
                    }
                }
            }
        }
    }

    /// The one way gaps get answered: a single engine batch over every
    /// submission's gaps, flattened in submission order — one snap
    /// dispatch, one dedup + route-cache pass, one A* wave however many
    /// connections contributed — scattered back so entry `i` holds
    /// exactly submission `i`'s answers in its own query order.
    ///
    /// Grouping never changes an answer (a cached route is the route
    /// the search would recompute). Each entry's stats carry its own
    /// exact `queries` / `ok` / `failed`; the route-level counters
    /// describe the shared pass — the work actually done — so they are
    /// the same on every entry and observed into the metrics once.
    fn answer(
        &self,
        submissions: &[&[GapQuery]],
        provenance: bool,
        op: &'static str,
    ) -> Result<Vec<BatchOutcome>, ServiceError> {
        self.with_serving(|serving| {
            let flat: Cow<'_, [GapQuery]> = match submissions {
                [only] => Cow::Borrowed(only),
                many => Cow::Owned(many.concat()),
            };
            let (results, shared) = serving.impute_batch_traced(
                &flat,
                &self.pool,
                provenance,
                Some(self.metrics.recorder()),
                op,
            );
            self.metrics.observe_batch(&shared);
            let cached_routes = serving.cached_routes();
            let mut remaining = results.into_iter();
            Ok(submissions
                .iter()
                .map(|gaps| {
                    let results: Vec<_> = remaining.by_ref().take(gaps.len()).collect();
                    let ok = results.iter().filter(|r| r.is_ok()).count();
                    BatchOutcome {
                        stats: BatchStats {
                            queries: gaps.len(),
                            ok,
                            failed: gaps.len() - ok,
                            ..shared
                        },
                        results,
                        cached_routes,
                        wall_s: 0.0,
                    }
                })
                .collect())
        })
    }

    /// Executes one request. Every failure is a [`ServiceError`] with a
    /// stable code; per-gap failures inside a batch are data in the
    /// [`BatchOutcome`], not request failures.
    ///
    /// Every call — success, error, even `Shutdown` — records a
    /// `handle` span and feeds the per-op request/error/latency
    /// metrics, so a failed request is never invisible.
    pub fn handle(&self, request: &Request) -> Result<Response, ServiceError> {
        let op = request.op();
        let mut span = self.metrics.recorder().span("handle", op);
        let result = self.dispatch(request);
        if result.is_err() {
            span.fail();
        }
        let duration = span.finish();
        self.metrics
            .observe_request(op, result.as_ref().err().map(|e| e.code), duration);
        result
    }

    fn dispatch(&self, request: &Request) -> Result<Response, ServiceError> {
        match request {
            Request::Health => Ok(Response::Health(self.health())),
            Request::Metrics => Ok(Response::Metrics(self.metrics.snapshot())),
            Request::ModelInfo => self.model_info(),
            Request::Impute { gap, provenance } => self.impute(gap, *provenance),
            Request::ImputeBatch { gaps, provenance } => self.impute_batch(gaps, *provenance),
            Request::Repair {
                track,
                config,
                provenance,
            } => self.repair(track, config, *provenance),
            Request::Fit(spec) => self.fit(spec),
            Request::Refit(spec) => self.refit(spec),
            Request::Shutdown => {
                self.request_shutdown();
                Ok(Response::ShuttingDown)
            }
        }
    }

    /// The `Health` payload, without counting a request (the daemon's
    /// startup banner reads it).
    pub fn health(&self) -> HealthInfo {
        let serving = read(&self.serving);
        let (cells, transitions) = serving
            .as_ref()
            .map_or((0, 0), |s| (s.model().node_count(), s.model().edge_count()));
        let (route_cache_hits, route_cache_misses) = self.metrics.route_cache_counts();
        let admission = read(&self.admission).as_ref().map(|a| AdmissionInfo {
            queue_depth: a.queue.depth() as u64,
            queue_capacity: a.queue.capacity() as u64,
            latency: self.metrics.latency_slos(),
        });
        HealthInfo {
            version: env!("CARGO_PKG_VERSION").to_string(),
            threads: self.pool.threads(),
            model_loaded: serving.is_some(),
            cells,
            transitions,
            uptime_ticks: self.metrics.uptime_ticks(),
            requests_total: self.metrics.requests_total(),
            route_cache_hits,
            route_cache_misses,
            admission,
        }
    }

    /// Runs `f` with the serving state or fails with `no_model`.
    fn with_serving<R>(
        &self,
        f: impl FnOnce(&BatchImputer) -> Result<R, ServiceError>,
    ) -> Result<R, ServiceError> {
        match read(&self.serving).as_ref() {
            Some(serving) => f(serving),
            None => Err(ServiceError::new(
                ErrorCode::NoModel,
                "no model loaded — fit one or start the service with --model",
            )),
        }
    }

    fn model_info(&self) -> Result<Response, ServiceError> {
        self.with_serving(|serving| {
            let model = serving.model();
            let (mut reports, mut busiest_cell_vessels) = (0, 0);
            for (_, stats) in model.csr().nodes() {
                reports += stats.msg_count;
                busiest_cell_vessels = busiest_cell_vessels.max(stats.vessels);
            }
            Ok(Response::ModelInfo(ModelReport {
                config: *model.config(),
                cells: model.node_count(),
                transitions: model.edge_count(),
                reports,
                busiest_cell_vessels,
                storage_bytes: model.storage_bytes(),
                blob_version: model.blob_version(),
                state: model.state().map(|s| FitStateInfo {
                    state_bytes: s.storage_bytes() as u64,
                    trips: s.provenance().trips,
                    reports: s.provenance().reports,
                }),
            }))
        })
    }

    fn impute(&self, gap: &GapQuery, provenance: bool) -> Result<Response, ServiceError> {
        // An empty blob refuses before snapping (and before queueing,
        // so admission cannot change which error a request gets).
        if self.empty_blob.load(Ordering::SeqCst) {
            return Err(habit_core::HabitError::EmptyModel.into());
        }
        // A batch of one, so single-gap traffic shares the warm route
        // cache with batches (and the engine's per-query checks, such
        // as end after start); the engine asserts batch == single-query
        // results.
        let mut answer = self.submit(std::slice::from_ref(gap), provenance, "impute")?;
        match answer.results.pop().expect("one result per query") {
            Ok(imputation) => Ok(Response::Imputation(imputation)),
            Err(failure) => Err(failure.into()),
        }
    }

    fn impute_batch(&self, gaps: &[GapQuery], provenance: bool) -> Result<Response, ServiceError> {
        let t0 = Instant::now();
        let mut outcome = self.submit(gaps, provenance, "impute_batch")?;
        outcome.wall_s = t0.elapsed().as_secs_f64();
        Ok(Response::Batch(outcome))
    }

    fn repair(
        &self,
        track: &[geo_kernel::TimedPoint],
        config: &habit_core::RepairConfig,
        provenance: bool,
    ) -> Result<Response, ServiceError> {
        if track.len() < 2 {
            // Payload data problem, not flag misuse: runtime failure
            // (exit 1), matching the documented stable exit codes.
            return Err(ServiceError::new(
                ErrorCode::BadInput,
                "track needs at least two points",
            ));
        }
        if config.gap_threshold_s <= 0 {
            return Err(ServiceError::bad_request(
                "gap threshold must be positive seconds",
            ));
        }
        if let Some(d) = config.densify_max_spacing_m {
            // The resampler asserts spacing > 0; reject bad values here
            // so a well-formed wire request can never panic a worker.
            if !(d.is_finite() && d > 0.0) {
                return Err(ServiceError::bad_request(format!(
                    "densify spacing must be positive meters (got {d})"
                )));
            }
        }
        let model = self.with_serving(|s| Ok(Arc::clone(s.model())))?;
        let (points, report) = if provenance {
            model.repair_track_with_provenance(track, config)?
        } else {
            model.repair_track(track, config)?
        };
        let gaps = report
            .gaps
            .into_iter()
            .map(|g| RepairedGap {
                after_index: g.after_index,
                duration_s: g.duration_s,
                points_added: g.points_added,
                error: g.error.map(ServiceError::from),
                provenance: g.provenance,
            })
            .collect();
        Ok(Response::Repaired(RepairOutcome {
            points,
            gaps,
            points_added: report.points_added,
        }))
    }

    fn fit(&self, spec: &FitSpec) -> Result<Response, ServiceError> {
        let _mutating = self.mutate.lock().unwrap_or_else(PoisonError::into_inner);
        if !(1..=hexgrid::MAX_RESOLUTION).contains(&spec.resolution) {
            return Err(ServiceError::bad_request(format!(
                "resolution {} out of range (1..={})",
                spec.resolution,
                hexgrid::MAX_RESOLUTION
            )));
        }
        let trajectories = crate::csvio::read_ais_csv(Path::new(&spec.input))?;
        let trips = segment_all(&trajectories, &TripConfig::default());
        if trips.is_empty() {
            return Err(ServiceError::new(
                ErrorCode::EmptyModel,
                "no trips after segmentation — check the input data",
            ));
        }
        let config = HabitConfig {
            resolution: spec.resolution,
            rdp_tolerance_m: spec.tolerance_m,
            projection: spec.projection,
            ..HabitConfig::default()
        };
        // Sharded fit on the pool: byte-identical to the sequential
        // `HabitModel::fit` at every shard/thread count (engine proptest).
        let model = fit_sharded_traced(
            &trips_to_table(&trips),
            config,
            self.pool.threads(),
            &self.pool,
            Some(self.metrics.recorder()),
            "fit",
        )?;
        // `--save-state` writes the v2 container (graph + fit state), so
        // the blob on disk can be refitted by a later process; the lean
        // v1 blob stays the default. The *serving* model keeps its state
        // in memory either way, so in-daemon refits always work.
        let bytes = if spec.save_state {
            model.to_bytes_full()
        } else {
            model.to_bytes()
        };
        if let Some(out) = &spec.save_to {
            write_file(Path::new(out), &bytes)?;
        }
        let summary = FitSummary {
            trips: trips.len(),
            reports: trips.iter().map(|t| t.points.len()).sum(),
            cells: model.node_count(),
            transitions: model.edge_count(),
            model_bytes: bytes.len(),
            saved_to: spec.save_to.clone(),
        };
        self.install_model(model);
        self.metrics.observe_refit();
        Ok(Response::Fitted(summary))
    }

    fn refit(&self, spec: &RefitSpec) -> Result<Response, ServiceError> {
        let _mutating = self.mutate.lock().unwrap_or_else(PoisonError::into_inner);
        // Snapshot the serving model under the read lock and accumulate
        // off it — imputations keep flowing during a refit; the hot-swap
        // happens at the end.
        let model = read(&self.serving)
            .as_ref()
            .map(|s| Arc::clone(s.model()))
            .ok_or_else(|| {
                ServiceError::new(
                    ErrorCode::NoModel,
                    "no model loaded — refit needs a serving model with an embedded fit state",
                )
            })?;
        let state = model.state().ok_or_else(|| {
            ServiceError::from(habit_core::HabitError::StateVersion {
                found: 0,
                supported: habit_core::FITSTATE_VERSION,
            })
        })?;
        let delta = read_delta(&spec.input, state.provenance().max_trip_id + 1)?;
        let (refitted, outcome) = refit_model_traced(
            &model,
            &delta,
            self.pool.threads(),
            &self.pool,
            Some(self.metrics.recorder()),
            "refit",
        )?;
        let bytes = refitted.to_bytes_full();
        if let Some(out) = &spec.save_to {
            write_file(Path::new(out), &bytes)?;
        }
        let provenance = *refitted.fit_provenance().expect("refit keeps the state");
        let summary = RefitSummary {
            trips_added: outcome.trips_added,
            reports_added: outcome.reports_added,
            trips_total: provenance.trips,
            reports_total: provenance.reports,
            cells: refitted.node_count(),
            transitions: refitted.edge_count(),
            model_bytes: bytes.len(),
            saved_to: spec.save_to.clone(),
        };
        self.install_model(refitted);
        self.metrics.observe_refit();
        Ok(Response::Refitted(summary))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ais::{AisPoint, Trip};

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

    fn small_service() -> Service {
        Service::with_model(
            ServiceConfig {
                threads: 2,
                cache_capacity: 64,
            },
            lane_model(),
        )
    }

    #[test]
    fn health_reports_model_state() {
        let empty = Service::new(ServiceConfig {
            threads: 1,
            cache_capacity: 8,
        });
        let Response::Health(h) = empty.handle(&Request::Health).unwrap() else {
            panic!("health");
        };
        assert!(!h.model_loaded);
        assert_eq!(h.cells, 0);

        let svc = small_service();
        let Response::Health(h) = svc.handle(&Request::Health).unwrap() else {
            panic!("health");
        };
        assert!(h.model_loaded);
        assert!(h.cells > 0);
        assert_eq!(h.threads, 2);
    }

    #[test]
    fn model_info_matches_the_model() {
        let svc = small_service();
        let model = svc.model().expect("loaded");
        let Response::ModelInfo(info) = svc.handle(&Request::ModelInfo).unwrap() else {
            panic!("model info");
        };
        assert_eq!(info.cells, model.node_count());
        assert_eq!(info.transitions, model.edge_count());
        assert_eq!(info.config.resolution, model.config().resolution);
        assert_eq!(info.storage_bytes, model.storage_bytes());
        assert!(info.reports > 0);
    }

    #[test]
    fn impute_matches_the_direct_model_path() {
        let svc = small_service();
        let model = svc.model().expect("loaded");
        let gap = GapQuery::new(10.05, 56.0, 0, 10.4, 56.0, 3600);
        let Response::Imputation(served) = svc
            .handle(&Request::Impute {
                gap,
                provenance: false,
            })
            .unwrap()
        else {
            panic!("imputation");
        };
        let direct = model.impute(&gap).unwrap();
        assert_eq!(served.cells, direct.cells);
        assert_eq!(served.cost, direct.cost);
        assert_eq!(served.points.len(), direct.points.len());
        for (a, b) in served.points.iter().zip(&direct.points) {
            assert_eq!((a.t, a.pos.lon, a.pos.lat), (b.t, b.pos.lon, b.pos.lat));
        }
    }

    #[test]
    fn impute_validates_and_reports_taxonomy_codes() {
        let svc = small_service();
        let inverted = GapQuery::new(10.05, 56.0, 100, 10.4, 56.0, 50);
        let err = svc
            .handle(&Request::Impute {
                gap: inverted,
                provenance: false,
            })
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert!(err.message.contains("later"), "{err}");

        let unsnappable = GapQuery::new(10.05, 95.0, 0, 10.4, 56.0, 3600);
        let err = svc
            .handle(&Request::Impute {
                gap: unsnappable,
                provenance: false,
            })
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::SnapFailed);

        let empty = Service::new(ServiceConfig {
            threads: 1,
            cache_capacity: 8,
        });
        let gap = GapQuery::new(10.05, 56.0, 0, 10.4, 56.0, 3600);
        let err = empty
            .handle(&Request::Impute {
                gap,
                provenance: false,
            })
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::NoModel);
    }

    #[test]
    fn batch_reuses_the_route_cache_across_requests() {
        let svc = small_service();
        let gaps = vec![GapQuery::new(10.05, 56.0, 0, 10.4, 56.0, 3600); 6];
        let Response::Batch(first) = svc
            .handle(&Request::ImputeBatch {
                gaps: gaps.clone(),
                provenance: false,
            })
            .unwrap()
        else {
            panic!("batch");
        };
        assert_eq!(first.stats.ok, 6);
        assert_eq!(first.stats.unique_routes, 1);
        assert_eq!(first.stats.routes_computed, 1);
        assert!(first.wall_s.is_finite() && first.wall_s >= 0.0);

        // Second request: the same route comes from the cache — and a
        // single `Impute` shares it too.
        let Response::Batch(second) = svc
            .handle(&Request::ImputeBatch {
                gaps,
                provenance: false,
            })
            .unwrap()
        else {
            panic!("batch");
        };
        assert_eq!(second.stats.cache_hits, 1);
        assert_eq!(second.stats.routes_computed, 0);
        assert_eq!(second.cached_routes, 1);
    }

    #[test]
    fn repair_and_validation() {
        let svc = small_service();
        let mut track: Vec<geo_kernel::TimedPoint> = Vec::new();
        for i in 0..200i64 {
            if (60..100).contains(&i) {
                continue;
            }
            track.push(geo_kernel::TimedPoint::new(
                10.0 + i as f64 * 0.003,
                56.0,
                i * 60,
            ));
        }
        let config = habit_core::RepairConfig {
            gap_threshold_s: 1800,
            densify_max_spacing_m: Some(250.0),
        };
        let Response::Repaired(out) = svc
            .handle(&Request::Repair {
                track: track.clone(),
                config,
                provenance: false,
            })
            .unwrap()
        else {
            panic!("repair");
        };
        assert_eq!(out.gaps_found(), 1);
        assert_eq!(out.gaps_imputed(), 1);
        assert!(out.points.len() > track.len());
        assert_eq!(
            out.points_added,
            out.gaps.iter().map(|g| g.points_added).sum::<usize>()
        );

        let err = svc
            .handle(&Request::Repair {
                track: track[..1].to_vec(),
                config,
                provenance: false,
            })
            .unwrap_err();
        assert!(err.message.contains("two points"), "{err}");

        let err = svc
            .handle(&Request::Repair {
                track,
                config: habit_core::RepairConfig {
                    gap_threshold_s: -5,
                    densify_max_spacing_m: None,
                },
                provenance: false,
            })
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert!(err.message.contains("positive"), "{err}");
    }

    #[test]
    fn fit_installs_a_serving_model() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let csv = dir.join(format!("habit-svc-fit-{pid}.csv"));
        let blob = dir.join(format!("habit-svc-fit-{pid}.habit"));
        let mut body = String::from("mmsi,t,lon,lat,sog,cog,heading\n");
        for k in 0..3u64 {
            for i in 0..150i64 {
                body.push_str(&format!(
                    "{},{},{:.6},56.0,12.0,90.0,90.0\n",
                    100 + k,
                    i * 60,
                    10.0 + i as f64 * 0.003
                ));
            }
        }
        std::fs::write(&csv, body).unwrap();

        let svc = Service::new(ServiceConfig {
            threads: 2,
            cache_capacity: 16,
        });
        let spec = FitSpec {
            input: csv.to_str().unwrap().to_string(),
            resolution: 9,
            tolerance_m: 100.0,
            save_to: Some(blob.to_str().unwrap().to_string()),
            ..FitSpec::default()
        };
        let Response::Fitted(summary) = svc.handle(&Request::Fit(spec)).unwrap() else {
            panic!("fit");
        };
        assert!(summary.cells > 0);
        assert_eq!(summary.trips, 3);
        assert_eq!(summary.reports, 450);

        // The blob on disk is the model now serving (sharded fit is
        // byte-identical to sequential, and install used the same model).
        let disk = std::fs::read(&blob).unwrap();
        assert_eq!(disk.len(), summary.model_bytes);
        let served = svc.model().expect("installed");
        assert_eq!(served.to_bytes(), disk);
        std::fs::remove_file(&csv).ok();
        std::fs::remove_file(&blob).ok();

        // And imputation now works without any restart.
        let gap = GapQuery::new(10.05, 56.0, 0, 10.4, 56.0, 3600);
        assert!(svc
            .handle(&Request::Impute {
                gap,
                provenance: false,
            })
            .is_ok());
    }

    #[test]
    fn fit_rejects_bad_inputs() {
        let svc = Service::new(ServiceConfig {
            threads: 1,
            cache_capacity: 8,
        });
        let err = svc
            .handle(&Request::Fit(FitSpec {
                input: "/nonexistent.csv".into(),
                resolution: 99,
                ..FitSpec::default()
            }))
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest, "resolution first: {err}");

        let err = svc
            .handle(&Request::Fit(FitSpec {
                input: "/nonexistent.csv".into(),
                ..FitSpec::default()
            }))
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::Io);

        let dir = std::env::temp_dir();
        let csv = dir.join(format!("habit-svc-fit-empty-{}.csv", std::process::id()));
        std::fs::write(&csv, "mmsi,t,lon,lat\n1,0,10.0,56.0\n").unwrap();
        let err = svc
            .handle(&Request::Fit(FitSpec {
                input: csv.to_str().unwrap().to_string(),
                ..FitSpec::default()
            }))
            .unwrap_err();
        std::fs::remove_file(&csv).ok();
        assert_eq!(err.code, ErrorCode::EmptyModel);
        assert!(err.message.contains("no trips"), "{err}");
    }

    /// Writes an AIS CSV of `vessels` lane trips with mmsis starting at
    /// `mmsi0`; returns the path.
    fn write_lane_csv(tag: &str, mmsi0: u64, vessels: u64) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("habit-svc-refit-{tag}-{}.csv", std::process::id()));
        let mut body = String::from("mmsi,t,lon,lat,sog,cog,heading\n");
        for k in 0..vessels {
            for i in 0..150i64 {
                body.push_str(&format!(
                    "{},{},{:.6},56.0,12.0,90.0,90.0\n",
                    mmsi0 + k,
                    i * 60,
                    10.0 + i as f64 * 0.003
                ));
            }
        }
        std::fs::write(&path, body).unwrap();
        path
    }

    #[test]
    fn refit_hot_swaps_and_matches_full_fit() {
        let history = write_lane_csv("hist", 100, 3);
        let delta = write_lane_csv("delta", 500, 2);
        let combined = std::env::temp_dir().join(format!(
            "habit-svc-refit-combined-{}.csv",
            std::process::id()
        ));
        // history rows then delta rows, one header — what one big fit
        // would have read.
        let mut body = std::fs::read_to_string(&history).unwrap();
        let delta_body = std::fs::read_to_string(&delta).unwrap();
        body.push_str(delta_body.split_once('\n').unwrap().1);
        std::fs::write(&combined, body).unwrap();

        let config = ServiceConfig {
            threads: 2,
            cache_capacity: 16,
        };
        // Incremental path: fit history, refit delta.
        let svc = Service::new(config);
        svc.handle(&Request::Fit(FitSpec {
            input: history.to_str().unwrap().to_string(),
            ..FitSpec::default()
        }))
        .unwrap();
        let before = svc.model().unwrap();
        let Response::Refitted(summary) = svc
            .handle(&Request::Refit(RefitSpec {
                input: delta.to_str().unwrap().to_string(),
                save_to: None,
            }))
            .unwrap()
        else {
            panic!("refit");
        };
        assert_eq!(summary.trips_added, 2);
        assert_eq!(summary.reports_added, 300);
        assert_eq!(summary.trips_total, 5);
        assert_eq!(summary.reports_total, 750);
        let refitted = svc.model().unwrap();
        assert!(
            !std::sync::Arc::ptr_eq(&before, &refitted),
            "refit hot-swaps the serving model"
        );

        // From-scratch path over the union: byte-identical, state and
        // all.
        let full_svc = Service::new(config);
        full_svc
            .handle(&Request::Fit(FitSpec {
                input: combined.to_str().unwrap().to_string(),
                ..FitSpec::default()
            }))
            .unwrap();
        let full = full_svc.model().unwrap();
        assert_eq!(refitted.to_bytes_full(), full.to_bytes_full());

        // And the refitted model answers queries immediately.
        let gap = GapQuery::new(10.05, 56.0, 0, 10.4, 56.0, 3600);
        assert!(svc
            .handle(&Request::Impute {
                gap,
                provenance: false,
            })
            .is_ok());

        for p in [&history, &delta, &combined] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn refit_error_taxonomy() {
        let config = ServiceConfig {
            threads: 1,
            cache_capacity: 8,
        };
        // No model at all → no_model.
        let empty = Service::new(config);
        let err = empty
            .handle(&Request::Refit(RefitSpec {
                input: "/nonexistent.csv".into(),
                save_to: None,
            }))
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::NoModel);

        // A model loaded from a lean v1 blob has no state → state_version.
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let blob = dir.join(format!("habit-svc-refit-v1-{pid}.habit"));
        std::fs::write(&blob, lane_model().to_bytes()).unwrap();
        let v1_svc = Service::with_model_file(config, blob.to_str().unwrap()).unwrap();
        let err = v1_svc
            .handle(&Request::Refit(RefitSpec {
                input: "/nonexistent.csv".into(),
                save_to: None,
            }))
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::StateVersion);
        assert!(err.message.contains("--save-state"), "{err}");
        std::fs::remove_file(&blob).ok();

        // A state-bearing model with an unreadable delta → io; with an
        // empty delta → bad_input.
        let svc = Service::with_model(config, lane_model());
        let err = svc
            .handle(&Request::Refit(RefitSpec {
                input: "/nonexistent.csv".into(),
                save_to: None,
            }))
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::Io);
        let csv = dir.join(format!("habit-svc-refit-empty-{pid}.csv"));
        std::fs::write(&csv, "mmsi,t,lon,lat\n1,0,10.0,56.0\n").unwrap();
        let err = svc
            .handle(&Request::Refit(RefitSpec {
                input: csv.to_str().unwrap().to_string(),
                save_to: None,
            }))
            .unwrap_err();
        std::fs::remove_file(&csv).ok();
        assert_eq!(err.code, ErrorCode::BadInput);
        assert!(err.message.contains("no trips"), "{err}");
    }

    #[test]
    fn fit_save_state_writes_a_refittable_blob() {
        let csv = write_lane_csv("savestate", 100, 3);
        let blob =
            std::env::temp_dir().join(format!("habit-svc-savestate-{}.habit", std::process::id()));
        let svc = Service::new(ServiceConfig {
            threads: 2,
            cache_capacity: 16,
        });
        let Response::Fitted(summary) = svc
            .handle(&Request::Fit(FitSpec {
                input: csv.to_str().unwrap().to_string(),
                save_to: Some(blob.to_str().unwrap().to_string()),
                save_state: true,
                ..FitSpec::default()
            }))
            .unwrap()
        else {
            panic!("fit");
        };
        let disk = std::fs::read(&blob).unwrap();
        assert_eq!(disk.len(), summary.model_bytes);
        let model = habit_core::HabitModel::from_bytes(&disk).unwrap();
        assert_eq!(model.blob_version(), 2, "--save-state writes v2");
        assert!(model.state().is_some());
        assert_eq!(
            disk,
            svc.model().unwrap().to_bytes_full(),
            "disk blob equals the serving model's full serialization"
        );
        std::fs::remove_file(&csv).ok();
        std::fs::remove_file(&blob).ok();
    }

    #[test]
    fn shutdown_sets_the_flag() {
        let svc = small_service();
        assert!(!svc.shutdown_requested());
        let resp = svc.handle(&Request::Shutdown).unwrap();
        assert!(matches!(resp, Response::ShuttingDown));
        assert!(svc.shutdown_requested());
        // Even the shutdown request left a span and fed the counters.
        let spans = svc.metrics().recorder().recent();
        assert!(spans
            .iter()
            .any(|s| s.name == "handle" && s.op == "shutdown" && s.ok));
    }

    #[test]
    fn every_request_feeds_the_metrics_surface() {
        let svc = small_service();
        let gap = GapQuery::new(10.05, 56.0, 0, 10.4, 56.0, 3600);
        svc.handle(&Request::Impute {
            gap,
            provenance: false,
        })
        .unwrap();
        let inverted = GapQuery::new(10.05, 56.0, 100, 10.4, 56.0, 50);
        svc.handle(&Request::Impute {
            gap: inverted,
            provenance: false,
        })
        .unwrap_err();
        let Response::Metrics(snapshot) = svc.handle(&Request::Metrics).unwrap() else {
            panic!("metrics");
        };
        let text = habit_obs::text::render(&snapshot);
        assert!(
            text.contains("habit_requests_total{op=\"impute\"} 2\n"),
            "{text}"
        );
        assert!(text.contains("habit_errors_total{code=\"bad_request\",op=\"impute\"} 1\n"));
        assert!(text.contains("habit_route_cache_misses_total 1\n"));
        // Failed requests record failed spans, successful ones ok spans.
        let spans = svc.metrics().recorder().recent();
        let handled: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "handle" && s.op == "impute")
            .collect();
        assert_eq!(handled.len(), 2);
        assert!(handled[0].ok && !handled[1].ok);
        // The engine stages were traced under the request's op.
        assert!(spans.iter().any(|s| s.name == "route" && s.op == "impute"));
        assert!(spans.iter().any(|s| s.name == "impute" && s.op == "impute"));

        // Health mirrors the same counters and stays monotonic.
        let Response::Health(h1) = svc.handle(&Request::Health).unwrap() else {
            panic!("health");
        };
        let Response::Health(h2) = svc.handle(&Request::Health).unwrap() else {
            panic!("health");
        };
        assert_eq!(h1.route_cache_misses, 1);
        assert!(h2.requests_total > h1.requests_total);
        assert!(h2.uptime_ticks >= h1.uptime_ticks);
    }

    #[test]
    fn provenance_flag_threads_through_impute_and_repair() {
        let svc = small_service();
        let gap = GapQuery::new(10.05, 56.0, 0, 10.4, 56.0, 3600);
        let Response::Imputation(plain) = svc
            .handle(&Request::Impute {
                gap,
                provenance: false,
            })
            .unwrap()
        else {
            panic!("imputation");
        };
        let Response::Imputation(with) = svc
            .handle(&Request::Impute {
                gap,
                provenance: true,
            })
            .unwrap()
        else {
            panic!("imputation");
        };
        assert!(plain.provenance.is_none());
        let records = with.provenance.as_ref().expect("requested provenance");
        assert_eq!(records.len(), with.points.len());
        assert_eq!(plain.points, with.points, "points are byte-identical");

        let mut track: Vec<geo_kernel::TimedPoint> = Vec::new();
        for i in 0..200i64 {
            if (60..100).contains(&i) {
                continue;
            }
            track.push(geo_kernel::TimedPoint::new(
                10.0 + i as f64 * 0.003,
                56.0,
                i * 60,
            ));
        }
        let config = habit_core::RepairConfig {
            gap_threshold_s: 1800,
            densify_max_spacing_m: Some(250.0),
        };
        let Response::Repaired(out) = svc
            .handle(&Request::Repair {
                track,
                config,
                provenance: true,
            })
            .unwrap()
        else {
            panic!("repair");
        };
        assert_eq!(out.gaps_imputed(), 1);
        let gap_prov = out.gaps[0].provenance.as_ref().expect("repair provenance");
        assert_eq!(gap_prov.len(), out.gaps[0].points_added);
    }

    /// The non-zero `habit_admission_flush_cause_total` rows.
    fn flush_causes(svc: &Service) -> Vec<(&'static str, u64)> {
        FlushCause::ALL
            .iter()
            .map(|cause| {
                let passes = svc
                    .metrics()
                    .registry()
                    .counter(
                        "habit_admission_flush_cause_total",
                        &[("cause", cause.as_str())],
                    )
                    .get();
                (cause.as_str(), passes)
            })
            .filter(|(_, passes)| *passes > 0)
            .collect()
    }

    /// Spins until `svc` reports `depth` gaps queued.
    fn wait_for_queue_depth(svc: &Service, depth: u64) {
        while svc
            .health()
            .admission
            .is_none_or(|a| a.queue_depth != depth)
        {
            std::thread::yield_now();
        }
    }

    /// Takes the idle queue's gate, as a pass-through in flight does:
    /// requests made while the result is held queue for the flusher.
    fn pass_in_flight(queue: &AdmissionQueue) -> Admitted<'_> {
        let admitted = queue
            .submit(&[GapQuery::new(0.0, 0.0, 0, 0.0, 0.0, 1)], false)
            .unwrap();
        assert!(matches!(admitted, Admitted::PassThrough(_)), "idle queue");
        admitted
    }

    /// `svc.handle(request)` answered by the flusher, not passed
    /// through: the request arrives behind a pass in flight, which ends
    /// once the request's `gaps` are queued (or it failed its
    /// pre-flight and never got that far).
    fn handle_queued(
        svc: &Service,
        request: &Request,
        gaps: u64,
    ) -> Result<Response, ServiceError> {
        let queue = svc.admission_queue();
        let in_flight = pass_in_flight(&queue);
        std::thread::scope(|scope| {
            let behind = scope.spawn(|| svc.handle(request));
            while !behind.is_finished()
                && svc.health().admission.is_none_or(|a| a.queue_depth != gaps)
            {
                std::thread::yield_now();
            }
            drop(in_flight);
            behind.join().unwrap()
        })
    }

    /// Coalesced answers must be byte-identical to the direct path:
    /// same imputed points (bitwise), same per-submission stats, same
    /// typed errors.
    #[test]
    fn coalesced_answers_match_the_direct_path_byte_for_byte() {
        let direct = small_service();
        let coalesced = Arc::new(small_service());
        // Both requests go in behind a pass in flight, so the flusher
        // answers them (an idle queue would pass them through and this
        // would compare the direct path with itself).
        coalesced.enable_admission(AdmissionConfig::default());

        let gap = GapQuery::new(10.05, 56.0, 0, 10.4, 56.0, 3600);
        let Response::Imputation(base) = direct
            .handle(&Request::Impute {
                gap,
                provenance: false,
            })
            .unwrap()
        else {
            panic!("direct impute");
        };
        let impute = Request::Impute {
            gap,
            provenance: false,
        };
        let Response::Imputation(via_queue) = handle_queued(&coalesced, &impute, 1).unwrap() else {
            panic!("coalesced impute");
        };
        assert_eq!(base.points, via_queue.points);
        assert_eq!(base.cells, via_queue.cells);
        assert_eq!(base.cost.to_bits(), via_queue.cost.to_bits());

        let gaps = vec![
            gap,
            GapQuery::new(10.1, 56.0, 600, 10.35, 56.0, 4_000),
            gap, // duplicate: dedup must not disturb scatter order
        ];
        let Response::Batch(base) = direct
            .handle(&Request::ImputeBatch {
                gaps: gaps.clone(),
                provenance: true,
            })
            .unwrap()
        else {
            panic!("direct batch");
        };
        let batch = Request::ImputeBatch {
            gaps,
            provenance: true,
        };
        let Response::Batch(via_queue) = handle_queued(&coalesced, &batch, 3).unwrap() else {
            panic!("coalesced batch");
        };
        assert_eq!(base.stats, via_queue.stats);
        for wall_s in [base.wall_s, via_queue.wall_s] {
            assert!(wall_s.is_finite() && wall_s >= 0.0);
        }
        assert_eq!(base.results.len(), via_queue.results.len());
        for (a, b) in base.results.iter().zip(&via_queue.results) {
            match (a, b) {
                (Ok(x), Ok(y)) => {
                    assert_eq!(x.points, y.points);
                    assert_eq!(x.provenance, y.provenance);
                }
                (Err(x), Err(y)) => assert_eq!(x, y),
                other => panic!("result shape diverged: {other:?}"),
            }
        }

        // Health now carries the admission vitals; the direct service's
        // health does not.
        let Response::Health(h) = coalesced.handle(&Request::Health).unwrap() else {
            panic!("health");
        };
        let admission = h.admission.expect("admission vitals");
        assert_eq!(admission.queue_capacity, 1024);
        assert!(admission.latency.iter().any(|l| l.op == "impute"));
        let Response::Health(h) = direct.handle(&Request::Health).unwrap() else {
            panic!("health");
        };
        assert!(h.admission.is_none());

        assert_eq!(flush_causes(&coalesced), [("queued", 2)]);
        coalesced.shutdown_admission();
    }

    /// A submission larger than the queue's gap capacity is refused
    /// with the typed `overloaded` code — admission control rejects,
    /// it never blocks the connection.
    #[test]
    fn oversized_submissions_get_the_typed_overloaded_error() {
        let svc = Arc::new(small_service());
        svc.enable_admission(AdmissionConfig {
            batch_max_gaps: 2, // capacity 16 gaps
        });
        let gap = GapQuery::new(10.05, 56.0, 0, 10.4, 56.0, 3600);
        let err = svc
            .handle(&Request::ImputeBatch {
                gaps: vec![gap; 17],
                provenance: false,
            })
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::Overloaded);
        assert!(err.message.contains("admission queue full"), "{err}");

        // Within capacity the same service answers normally.
        let Response::Batch(out) = svc
            .handle(&Request::ImputeBatch {
                gaps: vec![gap; 16],
                provenance: false,
            })
            .unwrap()
        else {
            panic!("batch");
        };
        assert_eq!(out.stats.ok, 16);
        svc.shutdown_admission();
    }

    /// Work still queued behind a pass in flight when the queue closes
    /// is answered by the shutdown drain: close → final drain → join.
    #[test]
    fn shutdown_drains_queued_admissions_before_stopping() {
        let svc = Arc::new(small_service());
        svc.enable_admission(AdmissionConfig::default());
        let gap = GapQuery::new(10.05, 56.0, 0, 10.4, 56.0, 3600);
        let Response::Imputation(base) = small_service()
            .handle(&Request::Impute {
                gap,
                provenance: false,
            })
            .unwrap()
        else {
            panic!("direct impute");
        };

        // The racer arrives behind a pass in flight, so it queues.
        let queue = svc.admission_queue();
        let in_flight = pass_in_flight(&queue);
        let racer = {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                svc.handle(&Request::Impute {
                    gap,
                    provenance: false,
                })
            })
        };
        // Let the racer reach the queue and close it while the pass
        // still holds the gate, so what answers the racer is the drain.
        wait_for_queue_depth(&svc, 1);
        queue.close();
        drop(in_flight);
        svc.shutdown_admission();
        let Ok(Response::Imputation(answered)) = racer.join().unwrap() else {
            panic!("queued request must be answered on shutdown");
        };
        assert_eq!(answered.points, base.points);
        assert_eq!(flush_causes(&svc), [("drain", 1)]);

        // After the drain, requests fall back to the direct path.
        let Response::Imputation(after) = svc
            .handle(&Request::Impute {
                gap,
                provenance: false,
            })
            .unwrap()
        else {
            panic!("post-shutdown impute");
        };
        assert_eq!(after.points, base.points);
    }

    /// A lone request on an idle queue is answered on its own thread
    /// and still counts as one admitted pass of its gaps.
    #[test]
    fn an_idle_pass_through_is_observed_as_one_flush() {
        let svc = Arc::new(small_service());
        svc.enable_admission(AdmissionConfig::default());
        let gap = GapQuery::new(10.05, 56.0, 0, 10.4, 56.0, 3600);
        let Response::Batch(out) = svc
            .handle(&Request::ImputeBatch {
                gaps: vec![gap; 3],
                provenance: false,
            })
            .unwrap()
        else {
            panic!("batch");
        };
        assert_eq!(out.stats.ok, 3);
        let text = habit_obs::text::render(&svc.metrics().snapshot());
        for row in [
            "habit_admission_flushes_total 1\n",
            "habit_admission_submissions_total 1\n",
            "habit_admission_batch_size_count 1\n",
            "habit_admission_batch_size_sum 3\n",
            "habit_admission_queue_depth 0\n",
            // A pass-through never queued, so it never waited.
            "habit_admission_wait_us_count 0\n",
        ] {
            assert!(text.contains(row), "{row} missing from {text}");
        }
        assert_eq!(flush_causes(&svc), [("idle", 1)]);

        // Sequential traffic never finds a pass in flight.
        svc.handle(&Request::Impute {
            gap,
            provenance: false,
        })
        .unwrap();
        assert_eq!(flush_causes(&svc), [("idle", 2)]);
        svc.shutdown_admission();
    }

    /// A request that arrives while a pass is in flight waits for it,
    /// then rides the flusher the moment it ends — byte-identical to
    /// the direct path, its wait observed once.
    #[test]
    fn a_request_behind_a_pass_in_flight_is_flushed_when_it_ends() {
        let svc = Arc::new(small_service());
        svc.enable_admission(AdmissionConfig::default());
        let impute = Request::Impute {
            gap: GapQuery::new(10.05, 56.0, 0, 10.4, 56.0, 3600),
            provenance: false,
        };
        let Response::Imputation(base) = small_service().handle(&impute).unwrap() else {
            panic!("direct impute");
        };

        let queue = svc.admission_queue();
        let in_flight = pass_in_flight(&queue);
        std::thread::scope(|scope| {
            let behind = scope.spawn(|| svc.handle(&impute));
            wait_for_queue_depth(&svc, 1);
            assert_eq!(flush_causes(&svc), [], "nothing runs under a held gate");
            drop(in_flight);
            let Ok(Response::Imputation(answered)) = behind.join().unwrap() else {
                panic!("the queued request is answered");
            };
            assert_eq!(answered.points, base.points);
            assert_eq!(answered.cost.to_bits(), base.cost.to_bits());
        });
        assert_eq!(flush_causes(&svc), [("queued", 1)]);
        let text = habit_obs::text::render(&svc.metrics().snapshot());
        assert!(text.contains("habit_admission_wait_us_count 1\n"), "{text}");
        svc.shutdown_admission();
    }

    /// A pass-through that panics must not leave the gate shut: the
    /// guard opens it on unwind and the next request is served.
    #[test]
    fn a_panic_under_the_admission_gate_leaves_the_service_answering() {
        let svc = Arc::new(small_service());
        svc.enable_admission(AdmissionConfig::default());
        let queue = svc.admission_queue();
        std::thread::scope(|scope| {
            let panicker = scope.spawn(|| {
                let _gate = queue.submit(&[GapQuery::new(0.0, 0.0, 0, 0.0, 0.0, 1)], false);
                panic!("injected: a pass-through answer panics");
            });
            assert!(panicker.join().is_err());
        });
        let impute = Request::Impute {
            gap: GapQuery::new(10.05, 56.0, 0, 10.4, 56.0, 3600),
            provenance: false,
        };
        assert!(matches!(svc.handle(&impute), Ok(Response::Imputation(_))));
        // … and it was served by passing through, not by a flusher
        // that found the gate open again by luck.
        assert_eq!(flush_causes(&svc), [("idle", 1)]);
        svc.shutdown_admission();
    }

    /// One panic under a lock must not wedge the daemon: every lock of
    /// the service recovers from poison instead of re-panicking.
    #[test]
    fn a_panic_under_the_serving_write_lock_leaves_the_service_answering() {
        let svc = small_service();
        let impute = Request::Impute {
            gap: GapQuery::new(10.05, 56.0, 0, 10.4, 56.0, 3600),
            provenance: false,
        };
        let Response::Imputation(before) = svc.handle(&impute).unwrap() else {
            panic!("imputation");
        };
        std::thread::scope(|scope| {
            let poisoner = scope.spawn(|| {
                let _serving = svc.serving.write().unwrap();
                let _admission = svc.admission.write().unwrap();
                let _mutating = svc.mutate.lock().unwrap();
                panic!("injected: poison every service lock");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(svc.serving.is_poisoned() && svc.mutate.is_poisoned());

        let Response::Health(h) = svc.handle(&Request::Health).unwrap() else {
            panic!("health");
        };
        assert!(h.model_loaded && h.cells > 0);
        let Response::Imputation(after) = svc.handle(&impute).unwrap() else {
            panic!("imputation");
        };
        assert_eq!(before.points, after.points);
        assert_eq!(before.cells, after.cells);
        assert_eq!(before.cost.to_bits(), after.cost.to_bits());
        // The mutating lock recovered too: a fit gets as far as its own
        // validation instead of panicking on the poisoned mutex.
        let err = svc
            .handle(&Request::Fit(FitSpec {
                resolution: 99,
                ..FitSpec::default()
            }))
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
    }

    /// The single-`Impute` pre-flight runs before the queue-or-not
    /// decision, so admission cannot change which error a request gets.
    #[test]
    fn impute_preflight_errors_are_the_same_with_and_without_admission() {
        // A v1 blob whose graph has no nodes: the lane model's header
        // and graph magic, then zero node and edge counts.
        let mut blob = lane_model().to_bytes()[..20].to_vec();
        blob.extend_from_slice(&[0u8; 16]);
        let config = ServiceConfig {
            threads: 1,
            cache_capacity: 8,
        };
        let impute = Request::Impute {
            gap: GapQuery::new(10.05, 56.0, 0, 10.4, 56.0, 3600),
            provenance: false,
        };
        for (expected, model) in [
            (ErrorCode::EmptyModel, Some(&blob)),
            (ErrorCode::NoModel, None),
        ] {
            let fresh = || {
                let svc = Service::new(config);
                if let Some(blob) = model {
                    let empty = HabitModel::from_bytes(blob).expect("an empty graph decodes");
                    assert_eq!(empty.node_count(), 0);
                    svc.install_model(empty);
                }
                Arc::new(svc)
            };
            let direct = fresh().handle(&impute).unwrap_err();
            assert_eq!(direct.code, expected);
            // Passed through an idle queue, and behind a pass in flight.
            let admitted = fresh();
            admitted.enable_admission(AdmissionConfig::default());
            assert_eq!(direct, admitted.handle(&impute).unwrap_err());
            assert_eq!(direct, handle_queued(&admitted, &impute, 1).unwrap_err());
            admitted.shutdown_admission();
        }
    }

    /// Three distinct lane routes cycled `n` times from query index
    /// `first`, every query with its own duration — so any
    /// cross-submission or cross-index mixup in the scatter changes an
    /// answer.
    fn lane_queries(first: usize, n: usize) -> Vec<GapQuery> {
        (first..first + n)
            .map(|i| {
                let k = (i % 3) as f64;
                GapQuery::new(
                    10.05 + k * 0.01,
                    56.0,
                    0,
                    10.3 + k * 0.05,
                    56.0,
                    3600 + i as i64 * 60,
                )
            })
            .collect()
    }

    /// A factory of cold lane-model services (empty route caches) with
    /// `threads` compute threads per engine call.
    fn cold_services(threads: usize) -> impl Fn() -> Service {
        let blob = lane_model().to_bytes();
        move || {
            Service::with_model(
                ServiceConfig {
                    threads,
                    cache_capacity: 64,
                },
                HabitModel::from_bytes(&blob).unwrap(),
            )
        }
    }

    /// Asserts two result vectors are byte-identical: same ok/err split,
    /// same cells/cost, and bit-identical point coordinates/timestamps.
    fn assert_results_identical(
        a: &[Result<habit_core::Imputation, habit_engine::BatchFailure>],
        b: &[Result<habit_core::Imputation, habit_engine::BatchFailure>],
    ) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            match (x, y) {
                (Ok(x), Ok(y)) => {
                    assert_eq!(x.cells, y.cells, "query {i}");
                    assert_eq!(x.cost.to_bits(), y.cost.to_bits(), "query {i}");
                    assert_eq!(x.points.len(), y.points.len(), "query {i}");
                    for (p, q) in x.points.iter().zip(&y.points) {
                        assert_eq!(p.t, q.t, "query {i}");
                        assert_eq!(p.pos.lon.to_bits(), q.pos.lon.to_bits(), "query {i}");
                        assert_eq!(p.pos.lat.to_bits(), q.pos.lat.to_bits(), "query {i}");
                    }
                }
                (Err(x), Err(y)) => assert_eq!(x, y, "query {i}"),
                _ => panic!("query {i}: ok/err mismatch"),
            }
        }
    }

    /// The scatter oracle: each submission of one shared pass gets
    /// exactly the answers and `queries`/`ok`/`failed` it gets served
    /// alone by a cold service, and every entry carries the shared
    /// pass's route counters.
    fn assert_scatter_matches_each_submission_alone(
        fresh: &dyn Fn() -> Service,
        groups: &[Vec<GapQuery>],
    ) {
        let slices: Vec<&[GapQuery]> = groups.iter().map(Vec::as_slice).collect();
        let coalesced = fresh().answer(&slices, false, "coalesced").unwrap();
        assert_eq!(coalesced.len(), groups.len());
        for (group, shared) in groups.iter().zip(&coalesced) {
            let alone = fresh().answer(&[group], false, "impute_batch").unwrap();
            assert_results_identical(&shared.results, &alone[0].results);
            assert_eq!(shared.stats.queries, alone[0].stats.queries);
            assert_eq!(shared.stats.ok, alone[0].stats.ok);
            assert_eq!(shared.stats.failed, alone[0].stats.failed);
            let route_counters =
                |s: &BatchStats| (s.unique_routes, s.cache_hits, s.routes_computed);
            assert_eq!(
                route_counters(&shared.stats),
                route_counters(&coalesced[0].stats)
            );
            assert_eq!(shared.cached_routes, coalesced[0].cached_routes);
        }
    }

    #[test]
    fn coalesced_submissions_match_their_direct_batches() {
        let fresh = cold_services(2);
        // Three submissions with overlapping routes, one of which
        // carries a gap that cannot snap: results and failures must
        // land with their own submission.
        let mut groups = vec![lane_queries(0, 5), lane_queries(5, 3)];
        groups.push(vec![GapQuery::new(10.1, 95.0, 0, 10.3, 56.0, 3600)]);
        assert_scatter_matches_each_submission_alone(&fresh, &groups);
        // The route-level counters describe the one shared pass: the
        // three lane routes searched once across all submissions.
        let slices: Vec<&[GapQuery]> = groups.iter().map(Vec::as_slice).collect();
        let coalesced = fresh().answer(&slices, false, "coalesced").unwrap();
        assert_eq!(coalesced[0].stats.unique_routes, 3);
        assert_eq!(coalesced[0].stats.routes_computed, 3);
        assert_eq!(coalesced[2].stats.failed, 1);
    }

    #[test]
    fn single_submission_degenerates_to_the_direct_batch() {
        let fresh = cold_services(2);
        let queries = lane_queries(0, 7);
        let mut alone = fresh().answer(&[&queries], false, "impute_batch").unwrap();
        assert_eq!(alone.len(), 1);
        let alone = alone.pop().unwrap();
        // Stats included: a flush of one is indistinguishable from the
        // request path — with or without the admission queue.
        assert_eq!(
            alone.stats,
            BatchStats {
                queries: 7,
                ok: 7,
                failed: 0,
                unique_routes: 3,
                cache_hits: 0,
                routes_computed: 3,
            }
        );
        let request = Request::ImputeBatch {
            gaps: queries,
            provenance: false,
        };
        let passed_through = Arc::new(fresh());
        passed_through.enable_admission(AdmissionConfig::default());
        let queued = Arc::new(fresh());
        queued.enable_admission(AdmissionConfig::default());
        for (svc, cause) in [
            (Arc::new(fresh()), None),
            (passed_through, Some("idle")),
            (queued, Some("queued")),
        ] {
            let response = match cause {
                Some("queued") => handle_queued(&svc, &request, 7),
                _ => svc.handle(&request),
            };
            let Response::Batch(served) = response.unwrap() else {
                panic!("batch");
            };
            assert_results_identical(&served.results, &alone.results);
            assert_eq!(served.stats, alone.stats);
            assert_eq!(served.cached_routes, alone.cached_routes);
            let causes: Vec<_> = cause.map(|c| (c, 1)).into_iter().collect();
            assert_eq!(flush_causes(&svc), causes);
            svc.shutdown_admission();
        }
    }

    /// A gap whose end is not after its start fails alone in its batch
    /// with `bad_request`, before it reaches dedup or the route cache:
    /// every other slot answers bit-identically to the batch without it.
    #[test]
    fn a_gap_that_does_not_move_forward_fails_alone_in_its_batch() {
        let fresh = cold_services(2);
        let valid = lane_queries(0, 4);
        let mut mixed = valid.clone();
        // Inverted, then zero-length, each between cells no valid gap
        // of the batch uses.
        mixed.insert(1, GapQuery::new(10.2, 56.0, 3600, 10.45, 56.0, 0));
        mixed.insert(3, GapQuery::new(10.2, 56.0, 600, 10.45, 56.0, 600));
        let batch = |gaps: Vec<GapQuery>| {
            let request = Request::ImputeBatch {
                gaps,
                provenance: false,
            };
            let Response::Batch(outcome) = fresh().handle(&request).unwrap() else {
                panic!("batch");
            };
            outcome
        };
        let base = batch(valid);
        let mut outcome = batch(mixed);
        for (slot, end) in [(3, "end (t=600)"), (1, "end (t=0)")] {
            let err = ServiceError::from(outcome.results.remove(slot).unwrap_err());
            assert_eq!(err.code, ErrorCode::BadRequest);
            assert!(
                err.message.contains("later") && err.message.contains(end),
                "{err}"
            );
        }
        assert_results_identical(&outcome.results, &base.results);
        assert_eq!(
            outcome.stats,
            BatchStats {
                queries: 6,
                failed: 2,
                ..base.stats
            }
        );
    }

    mod scatter_gather {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]

            /// Scatter/gather never misroutes: for a random partition of
            /// a query stream into submissions, each submission's share
            /// of the one coalesced pass is byte-identical to that
            /// submission served alone by a cold service.
            #[test]
            fn coalescing_is_invisible_to_every_submission(
                sizes in proptest::collection::vec(0usize..6, 1..8),
                threads in 1usize..4,
            ) {
                let mut next = 0;
                let groups: Vec<Vec<GapQuery>> = sizes
                    .iter()
                    .map(|&n| {
                        next += n;
                        lane_queries(next - n, n)
                    })
                    .collect();
                assert_scatter_matches_each_submission_alone(&cold_services(threads), &groups);
            }
        }
    }
}
