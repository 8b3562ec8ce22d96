//! Batched imputation: answer many gap queries as one unit of work.
//!
//! Serving traffic does not arrive one query at a time — a monitoring
//! pipeline reconstructs thousands of gaps per tick, and the gaps
//! concentrate on the same corridors. [`BatchImputer`] exploits both
//! facts:
//!
//! * **Route dedup** — queries are snapped first, and the expensive A*
//!   search runs once per *distinct* `(start cell, end cell)` pair in
//!   the batch, not once per query;
//! * **Route cache** — resolved routes (including "no path" outcomes)
//!   live in a bounded LRU keyed by the cell pair, so recurring traffic
//!   across batches skips the search entirely;
//! * **Pool execution** — snapping, the unique searches and the
//!   per-query tail (projection, timestamps, RDP) all run on the shared
//!   [`ThreadPool`].
//!
//! Results are returned in query order and are deterministic: the same
//! batch against the same model yields the same answers at any thread
//! count and any cache state (a cached route is the same route the
//! search would recompute).

use crate::lru::LruCache;
use crate::pool::ThreadPool;
use aggdb::fxhash::FxHashMap;
use habit_core::{GapQuery, HabitModel, Imputation, Route};
use habit_obs::Recorder;
use hexgrid::HexCell;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Why a single query of a batch could not be answered. Unlike
/// [`habit_core::HabitError`] this is `Clone` (several queries can share one failed
/// route) and carries no I/O causes — a per-query failure is data for
/// the caller, not a batch abort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchFailure {
    /// No path exists between the snapped endpoint cells.
    NoPath {
        /// Snapped start cell id.
        from: u64,
        /// Snapped goal cell id.
        to: u64,
    },
    /// An endpoint could not be snapped onto the model (invalid
    /// coordinate or empty model); the message is the underlying error.
    Snap(String),
    /// The gap itself is malformed — its end is not later than its
    /// start, so there is no time to spread imputed points over;
    /// refused before snapping. The message says which timestamps.
    InvalidGap(String),
}

impl fmt::Display for BatchFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchFailure::NoPath { from, to } => {
                write!(f, "no path between cells {from:#x} and {to:#x}")
            }
            BatchFailure::Snap(message) => write!(f, "snap failed: {message}"),
            BatchFailure::InvalidGap(message) => write!(f, "invalid gap: {message}"),
        }
    }
}

impl std::error::Error for BatchFailure {}

/// What one route search resolved to — cached either way, since "no
/// path" is as deterministic as a path.
enum RouteOutcome {
    Found(Route),
    NoPath,
}

/// Counters describing how a batch was served.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Queries in the batch.
    pub queries: usize,
    /// Queries answered with an imputation.
    pub ok: usize,
    /// Queries that failed (end not after start, snap or no-path).
    pub failed: usize,
    /// Distinct `(start cell, end cell)` pairs after snapping.
    pub unique_routes: usize,
    /// Distinct pairs served from the LRU route cache.
    pub cache_hits: usize,
    /// Distinct pairs that ran an A* search in this batch.
    pub routes_computed: usize,
}

/// A model wrapper that answers gap-query batches concurrently with
/// route dedup and a bounded LRU route cache.
///
/// The imputer *owns* its model (shared via `Arc`), so a long-lived
/// service can keep one imputer — and its warm route cache — alive
/// across requests while other components (e.g. a model-info endpoint)
/// hold the same model.
pub struct BatchImputer {
    model: Arc<HabitModel>,
    cache: Mutex<LruCache<(u64, u64), Arc<RouteOutcome>>>,
}

impl BatchImputer {
    /// Wraps `model` with a route cache of `cache_capacity` entries.
    pub fn new(model: Arc<HabitModel>, cache_capacity: usize) -> Self {
        Self {
            model,
            cache: Mutex::new(LruCache::new(cache_capacity)),
        }
    }

    /// The wrapped model.
    pub fn model(&self) -> &Arc<HabitModel> {
        &self.model
    }

    /// Number of routes currently cached.
    pub fn cached_routes(&self) -> usize {
        self.cache.lock().expect("cache lock").len()
    }

    /// Answers a batch of queries on `pool`. Results are in query order;
    /// per-query failures do not abort the batch.
    pub fn impute_batch(
        &self,
        queries: &[GapQuery],
        pool: &ThreadPool,
    ) -> (Vec<Result<Imputation, BatchFailure>>, BatchStats) {
        self.impute_batch_traced(queries, pool, false, None, "impute_batch")
    }

    /// [`Self::impute_batch`] with the serving knobs exposed: when
    /// `provenance` is set each successful [`Imputation`] carries its
    /// per-point [`habit_core::PointProvenance`] records (the points
    /// themselves stay byte-identical); when `recorder` is set the
    /// batch's `route` stage (snap + dedup + A*) and `impute` stage
    /// (projection, timestamps, RDP) are recorded as spans under `op`.
    pub fn impute_batch_traced(
        &self,
        queries: &[GapQuery],
        pool: &ThreadPool,
        provenance: bool,
        recorder: Option<&Recorder>,
        op: &'static str,
    ) -> (Vec<Result<Imputation, BatchFailure>>, BatchStats) {
        let mut stats = BatchStats {
            queries: queries.len(),
            ..BatchStats::default()
        };
        if queries.is_empty() {
            return (Vec::new(), stats);
        }

        // -- 1. Snap every query's endpoints (parallel, query order). A
        //       gap that does not move forward in time fails here, so it
        //       never reaches dedup or the route cache.
        let route_span = recorder.map(|r| r.span("route", op));
        let model = self.model.as_ref();
        let snapped: Vec<Result<(HexCell, HexCell), BatchFailure>> =
            pool.map_items(queries, |gap| {
                if gap.duration_s() <= 0 {
                    return Err(BatchFailure::InvalidGap(format!(
                        "end (t={}) must be later than start (t={})",
                        gap.end.t, gap.start.t
                    )));
                }
                let start = model
                    .snap(&gap.start.pos)
                    .map_err(|e| BatchFailure::Snap(e.to_string()))?;
                let end = model
                    .snap(&gap.end.pos)
                    .map_err(|e| BatchFailure::Snap(e.to_string()))?;
                Ok((start.0, end.0))
            });

        // -- 2. Dedup cell pairs and split into cached vs to-compute, in
        //       first-appearance order (deterministic).
        let mut resolved: FxHashMap<(u64, u64), Arc<RouteOutcome>> = FxHashMap::default();
        let mut to_compute: Vec<(u64, u64)> = Vec::new();
        let mut pending: aggdb::fxhash::FxHashSet<(u64, u64)> = Default::default();
        {
            let mut cache = self.cache.lock().expect("cache lock");
            for pair_result in &snapped {
                let Ok((start, end)) = pair_result else {
                    continue;
                };
                let key = (start.raw(), end.raw());
                if resolved.contains_key(&key) || pending.contains(&key) {
                    continue;
                }
                match cache.get(&key) {
                    Some(outcome) => {
                        stats.cache_hits += 1;
                        resolved.insert(key, Arc::clone(outcome));
                    }
                    None => {
                        pending.insert(key);
                        to_compute.push(key);
                    }
                }
            }
        }
        stats.unique_routes = resolved.len() + to_compute.len();
        stats.routes_computed = to_compute.len();

        // -- 3. Search the missing routes in parallel, then publish them
        //       to the cache in pair order.
        let computed: Vec<Arc<RouteOutcome>> = pool.map_items(&to_compute, |&(from, to)| {
            let start = HexCell::from_raw(from).expect("snapped cells are valid");
            let end = HexCell::from_raw(to).expect("snapped cells are valid");
            match model.route_between(start, end) {
                Ok(route) => Arc::new(RouteOutcome::Found(route)),
                Err(_) => Arc::new(RouteOutcome::NoPath),
            }
        });
        {
            let mut cache = self.cache.lock().expect("cache lock");
            for (key, outcome) in to_compute.iter().zip(&computed) {
                cache.insert(*key, Arc::clone(outcome));
                resolved.insert(*key, Arc::clone(outcome));
            }
        }

        drop(route_span);

        // -- 4. Per-query tail: projection, timestamps, simplification.
        let tail_span = recorder.map(|r| r.span("impute", op));
        let indices: Vec<usize> = (0..queries.len()).collect();
        let results: Vec<Result<Imputation, BatchFailure>> =
            pool.map_items(&indices, |&i| match &snapped[i] {
                Err(failure) => Err(failure.clone()),
                Ok((start, end)) => {
                    let key = (start.raw(), end.raw());
                    match resolved.get(&key).expect("every pair resolved").as_ref() {
                        RouteOutcome::NoPath => Err(BatchFailure::NoPath {
                            from: key.0,
                            to: key.1,
                        }),
                        RouteOutcome::Found(route) => Ok(if provenance {
                            model.imputation_from_route_with_provenance(
                                &queries[i],
                                route,
                                *start,
                                *end,
                            )
                        } else {
                            model.imputation_from_route(&queries[i], route, *start, *end)
                        }),
                    }
                }
            });
        drop(tail_span);

        stats.ok = results.iter().filter(|r| r.is_ok()).count();
        stats.failed = stats.queries - stats.ok;
        (results, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ais::{trips_to_table, AisPoint, Trip};
    use habit_core::HabitConfig;

    fn lane_model() -> Arc<HabitModel> {
        let trips: Vec<Trip> = (0..4)
            .map(|k| Trip {
                trip_id: k + 1,
                mmsi: 100 + k,
                points: (0..150)
                    .map(|i| {
                        AisPoint::new(
                            100 + k,
                            i as i64 * 60,
                            10.0 + i as f64 * 0.004,
                            56.0,
                            12.0,
                            90.0,
                        )
                    })
                    .collect(),
            })
            .collect();
        Arc::new(HabitModel::fit(&trips_to_table(&trips), HabitConfig::default()).unwrap())
    }

    fn lane_queries(n: usize) -> Vec<GapQuery> {
        // Three distinct routes cycled n times: heavy route reuse, as in
        // real serving traffic.
        (0..n)
            .map(|i| {
                let k = i % 3;
                GapQuery::new(
                    10.05 + k as f64 * 0.01,
                    56.0,
                    0,
                    10.4 + k as f64 * 0.05,
                    56.0,
                    3600,
                )
            })
            .collect()
    }

    #[test]
    fn batch_matches_single_query_path() {
        let model = lane_model();
        let imputer = BatchImputer::new(Arc::clone(&model), 64);
        let pool = ThreadPool::new(4);
        let queries = lane_queries(12);
        let (results, stats) = imputer.impute_batch(&queries, &pool);
        assert_eq!(results.len(), queries.len());
        assert_eq!(stats.ok, queries.len());
        assert_eq!(stats.unique_routes, 3);
        assert_eq!(stats.routes_computed, 3);
        for (query, result) in queries.iter().zip(&results) {
            let batch = result.as_ref().expect("imputed");
            let single = model.impute(query).expect("single");
            assert_eq!(batch.cells, single.cells);
            assert_eq!(batch.points.len(), single.points.len());
            assert_eq!(batch.cost, single.cost);
            for (a, b) in batch.points.iter().zip(&single.points) {
                assert_eq!(a.t, b.t);
                assert_eq!(a.pos.lon, b.pos.lon);
                assert_eq!(a.pos.lat, b.pos.lat);
            }
        }
    }

    #[test]
    fn cache_serves_repeat_batches() {
        let model = lane_model();
        let imputer = BatchImputer::new(Arc::clone(&model), 64);
        let pool = ThreadPool::new(2);
        let queries = lane_queries(9);
        let (_, first) = imputer.impute_batch(&queries, &pool);
        assert_eq!(first.cache_hits, 0);
        assert_eq!(first.routes_computed, 3);
        let (_, second) = imputer.impute_batch(&queries, &pool);
        assert_eq!(second.cache_hits, 3, "{second:?}");
        assert_eq!(second.routes_computed, 0);
        assert_eq!(imputer.cached_routes(), 3);
    }

    #[test]
    fn results_are_deterministic_across_thread_counts() {
        let model = lane_model();
        let queries = lane_queries(20);
        let reference: Vec<_> = {
            let imputer = BatchImputer::new(Arc::clone(&model), 8);
            let pool = ThreadPool::new(1);
            imputer.impute_batch(&queries, &pool).0
        };
        for threads in [2usize, 4] {
            let imputer = BatchImputer::new(Arc::clone(&model), 8);
            let pool = ThreadPool::new(threads);
            let (results, _) = imputer.impute_batch(&queries, &pool);
            for (i, (a, b)) in reference.iter().zip(&results).enumerate() {
                match (a, b) {
                    (Ok(x), Ok(y)) => {
                        assert_eq!(x.cells, y.cells, "threads={threads} query={i}");
                        assert_eq!(x.cost, y.cost);
                    }
                    (Err(x), Err(y)) => assert_eq!(x, y),
                    _ => panic!("threads={threads} query={i}: ok/err mismatch"),
                }
            }
        }
    }

    #[test]
    fn failures_are_per_query_not_batch_wide() {
        let model = lane_model();
        let imputer = BatchImputer::new(Arc::clone(&model), 8);
        let pool = ThreadPool::new(2);
        let mut queries = lane_queries(3);
        // An endpoint with an invalid latitude cannot snap, and a gap
        // that ends before it starts is refused before snapping.
        queries.push(GapQuery::new(10.1, 95.0, 0, 10.3, 56.0, 3600));
        queries.push(GapQuery::new(10.1, 56.0, 3600, 10.3, 56.0, 0));
        let (results, stats) = imputer.impute_batch(&queries, &pool);
        assert_eq!(stats.ok, 3);
        assert_eq!(stats.failed, 2);
        assert_eq!(stats.unique_routes, 3);
        assert!(matches!(results[3], Err(BatchFailure::Snap(_))));
        assert_eq!(
            results[4]
                .as_ref()
                .err()
                .map(ToString::to_string)
                .as_deref(),
            Some("invalid gap: end (t=0) must be later than start (t=3600)")
        );
        assert!(results[..3].iter().all(Result::is_ok));
    }

    #[test]
    fn traced_batch_records_spans_and_carries_provenance() {
        let model = lane_model();
        let imputer = BatchImputer::new(Arc::clone(&model), 8);
        let pool = ThreadPool::new(2);
        let queries = lane_queries(6);
        let recorder = Recorder::new(64);
        let (plain, _) = imputer.impute_batch(&queries, &pool);
        let (traced, _) =
            imputer.impute_batch_traced(&queries, &pool, true, Some(&recorder), "impute_batch");

        // Both stages show up, labeled with the op.
        let spans = recorder.recent();
        assert_eq!(spans.len(), 2, "{spans:?}");
        assert_eq!(spans[0].name, "route");
        assert_eq!(spans[1].name, "impute");
        assert!(spans.iter().all(|s| s.op == "impute_batch" && s.ok));

        // Provenance rides along without disturbing the points.
        for (a, b) in plain.iter().zip(&traced) {
            let (a, b) = (a.as_ref().expect("ok"), b.as_ref().expect("ok"));
            assert!(a.provenance.is_none());
            let prov = b.provenance.as_ref().expect("requested provenance");
            assert_eq!(prov.len(), b.points.len());
            assert_eq!(a.points.len(), b.points.len());
            for (x, y) in a.points.iter().zip(&b.points) {
                assert_eq!(x.t, y.t);
                assert_eq!(x.pos.lon.to_bits(), y.pos.lon.to_bits());
                assert_eq!(x.pos.lat.to_bits(), y.pos.lat.to_bits());
            }
        }
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let model = lane_model();
        let imputer = BatchImputer::new(Arc::clone(&model), 8);
        let pool = ThreadPool::new(2);
        let (results, stats) = imputer.impute_batch(&[], &pool);
        assert!(results.is_empty());
        assert_eq!(stats, BatchStats::default());
    }
}
