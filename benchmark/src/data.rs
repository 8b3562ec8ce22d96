//! Deterministic inputs: the synthetic world, the train/held-out split,
//! the history/delta split of the write side, the gap pools with their
//! expected wire answers, and each workload's operation sequence.
//!
//! The world (dataset seed 42) is the same for every workload seed; the
//! workload seed draws the gaps, the hot-pool accesses and the vessels
//! that make up the refit delta.

use ais::{Trajectory, Trip};
use eval::gaps::inject_gap;
use geo_kernel::GeoPoint;
use habit_core::{GapQuery, HabitModel, Imputation};
use habit_engine::BatchStats;
use habit_service::response::BatchOutcome;
use habit_service::{wire, Request, Response};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashSet};

/// Seed of the synthetic world; fixed so `model_bytes` and the graph
/// are the same on every workload seed.
pub const DATASET_SEED: u64 = 42;
/// Duration of every injected gap, seconds (the paper's default).
pub const GAP_SECONDS: i64 = 3600;
/// Gaps per `impute_batch` request of `batch_mixed`: 128 hot draws then
/// 128 cold-scan gaps, twice the daemon's 128-gap size trigger.
pub const BATCH_GAPS: usize = 256;
/// Gap slots, from the start of a sequence, that `dtw_mean_m` covers.
pub const DTW_SLOTS: usize = 4096;

/// The four workloads, by the names `BENCHMARK.json` declares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Single-gap requests scanning the cold pool: every request searches.
    ServeCold,
    /// Single-gap requests drawn from the cache-resident hot pool.
    ServeHot,
    /// 256-gap batch requests, half hot draws and half cold scan.
    BatchMixed,
    /// The write side: `habit fit --save-state` then `habit refit`.
    FitRefit,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ServeCold,
        Workload::ServeHot,
        Workload::BatchMixed,
        Workload::FitRefit,
    ];

    /// The declared name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeCold => "serve_cold",
            Workload::ServeHot => "serve_hot",
            Workload::BatchMixed => "batch_mixed",
            Workload::FitRefit => "fit_refit",
        }
    }

    /// Parses a declared name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Gaps carried by one request of this workload's traffic.
    pub fn gaps_per_op(self) -> usize {
        match self {
            Workload::BatchMixed => BATCH_GAPS,
            _ => 1,
        }
    }
}

/// Input sizes: the comparable full size, or the `--quick` smoke size.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `DatasetSpec::scale` of the SAR world.
    pub sar_scale: f64,
    /// Distinct gaps in the hot pool (half the 4 096-entry cache, so
    /// once scanned it stays resident).
    pub hot_pool: usize,
    /// Distinct gaps in the cold pool (twice the cache, so a sequential
    /// scan never finds its own earlier entries).
    pub cold_pool: usize,
    /// `true` for `--quick`: numbers are not comparable to full runs.
    pub quick: bool,
}

impl Sizes {
    /// The size every gated number is taken at.
    pub const FULL: Sizes = Sizes {
        sar_scale: 1.0,
        hot_pool: 2048,
        cold_pool: 8192,
        quick: false,
    };
    /// Smoke size.
    pub const QUICK: Sizes = Sizes {
        sar_scale: 0.5,
        hot_pool: 128,
        cold_pool: 1024,
        quick: true,
    };
}

/// The generated world: training reports per vessel and held-out trips.
pub struct World {
    /// Train trips regrouped into one trajectory per vessel — what
    /// `train.csv` holds and `habit fit` reads.
    pub train: Vec<Trajectory>,
    /// Held-out trips the gaps are cut from.
    pub test: Vec<Trip>,
}

/// Reports in a set of trajectories.
pub fn report_count(trajectories: &[Trajectory]) -> usize {
    trajectories.iter().map(Trajectory::len).sum()
}

/// Generates the SAR world and splits its trips 70/30.
pub fn world(sizes: Sizes) -> World {
    let dataset = synth::datasets::sar(synth::DatasetSpec {
        seed: DATASET_SEED,
        scale: sizes.sar_scale,
    });
    let mut rng = StdRng::seed_from_u64(DATASET_SEED);
    let (train_trips, test) = eval::split::split_trips(&dataset.trips(), 0.7, &mut rng);
    let mut per_vessel: BTreeMap<u64, Vec<ais::AisPoint>> = BTreeMap::new();
    for trip in &train_trips {
        per_vessel
            .entry(trip.mmsi)
            .or_default()
            .extend_from_slice(&trip.points);
    }
    let train = per_vessel
        .into_iter()
        .map(|(mmsi, points)| Trajectory::new(mmsi, points))
        .collect();
    World { train, test }
}

/// Splits the training vessels into history and delta for `fit_refit`:
/// the seed picks a tenth of the vessels as the delta, and vessels are
/// renumbered so the delta carries the highest MMSIs — the CSV reader
/// orders vessels by MMSI, and a refit continues trip ids after the
/// history's, so only then is `refit(history, delta)` byte-equal to
/// `fit(history ∪ delta)`.
pub fn history_and_delta(train: &[Trajectory], seed: u64) -> (Vec<Trajectory>, Vec<Trajectory>) {
    let mut order: Vec<usize> = (0..train.len()).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed ^ 0xDE17A));
    let delta_vessels = (train.len() / 10).max(1);
    let renumbered: Vec<Trajectory> = order
        .iter()
        .enumerate()
        .map(|(rank, &v)| {
            let mmsi = 100_000_000 + rank as u64;
            let points = train[v]
                .points
                .iter()
                .map(|p| ais::AisPoint { mmsi, ..*p })
                .collect();
            Trajectory { mmsi, points }
        })
        .collect();
    let (history, delta) = renumbered.split_at(train.len() - delta_vessels);
    (history.to_vec(), delta.to_vec())
}

/// SplitMix64 of `seed` and a counter: the stateless draw behind the
/// hot-pool accesses, so any thread can compute operation `i`.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The byte shapes around a batch's per-gap fragments, taken from the
/// product's own encoder so the benchmark never spells wire syntax.
struct BatchShape {
    request_prefix: String,
    request_suffix: String,
    response_prefix: String,
    response_tail: String,
}

/// A batch response around `results`, with the run-to-run fields
/// (counters, cache size, wall time) zeroed.
pub fn batch_response(results: Vec<Result<Imputation, habit_engine::BatchFailure>>) -> Response {
    Response::Batch(BatchOutcome {
        results,
        stats: BatchStats::default(),
        cached_routes: 0,
        wall_s: 0.0,
    })
}

fn encoded_batch(results: Vec<Result<Imputation, habit_engine::BatchFailure>>) -> String {
    wire::encode_response(&Ok(batch_response(results)))
}

impl BatchShape {
    fn new() -> Self {
        let request = wire::encode_request(&Request::ImputeBatch {
            gaps: Vec::new(),
            provenance: false,
        });
        let at = request.find("[]").expect("empty gaps array") + 1;
        let response = encoded_batch(Vec::new());
        let rat = response.find("[]").expect("empty results array") + 1;
        let shape = Self {
            request_prefix: request[..at].to_string(),
            request_suffix: request[at..].to_string(),
            response_prefix: response[..rat].to_string(),
            response_tail: response[rat..].to_string(),
        };
        assert!(
            shape.response_tail.starts_with(RESULTS_END),
            "batch results are followed by the stats object"
        );
        shape
    }
}

/// What follows the results array in a batch response; the counters
/// and wall time after it differ run to run and are not compared.
const RESULTS_END: &str = "],\"stats\":";

/// One pool gap with everything derived from it before timing starts.
pub struct PoolGap {
    /// The query sent to the program.
    pub query: GapQuery,
    /// Mean DTW of the reference answer against the held-out truth, m.
    pub dtw_m: f64,
    /// The single-gap `impute` request line.
    pub request: String,
    /// The response line the daemon must return, byte for byte.
    pub expected: String,
    /// This gap's element of an `impute_batch` request's `gaps` array.
    request_part: String,
    /// This gap's element of an `impute_batch` response's `results`.
    expected_part: String,
}

/// The two gap pools of one workload seed.
pub struct Pools {
    /// Cache-resident pool, drawn from uniformly at random.
    pub hot: Vec<PoolGap>,
    /// Pool scanned sequentially; disjoint from `hot`.
    pub cold: Vec<PoolGap>,
    shape: BatchShape,
}

fn pool_gap(
    model: &HabitModel,
    shape: &BatchShape,
    query: GapQuery,
    truth: &[GeoPoint],
) -> Option<PoolGap> {
    // A gap the reference cannot answer (`no_path`, `snap_failed`; a
    // fraction of a percent) is left out, so every operation of every
    // workload has an imputation as its one correct answer.
    let imputation = model.impute(&query).ok()?;
    let path: Vec<GeoPoint> = imputation.points.iter().map(|p| p.pos).collect();
    let dtw_m = eval::dtw::resampled_dtw_m(&path, truth)?;
    let request = wire::encode_request(&Request::Impute {
        gap: query,
        provenance: false,
    });
    let batch_request = wire::encode_request(&Request::ImputeBatch {
        gaps: vec![query],
        provenance: false,
    });
    let batch_response = encoded_batch(vec![Ok(imputation.clone())]);
    let expected = wire::encode_response(&Ok(Response::Imputation(imputation)));
    Some(PoolGap {
        query,
        dtw_m,
        request,
        expected,
        request_part: batch_request
            [shape.request_prefix.len()..batch_request.len() - shape.request_suffix.len()]
            .to_string(),
        expected_part: batch_response
            [shape.response_prefix.len()..batch_response.len() - shape.response_tail.len()]
            .to_string(),
    })
}

/// Draws distinct answerable gaps from the held-out trips under `seed`
/// until both pools are full: the first `hot` go to the hot pool, the
/// next `cold` to the cold pool. Reference answers are computed on two
/// threads, in draw order.
pub fn build_pools(
    test: &[Trip],
    model: &HabitModel,
    seed: u64,
    hot: usize,
    cold: usize,
) -> Result<Pools, String> {
    let shape = BatchShape::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen: HashSet<(u64, i64)> = HashSet::new();
    let mut gaps: Vec<PoolGap> = Vec::with_capacity(hot + cold);
    let mut draws = 0usize;
    while gaps.len() < hot + cold {
        let want = (hot + cold - gaps.len()).max(64);
        let mut candidates = Vec::with_capacity(want);
        while candidates.len() < want {
            draws += 1;
            if draws > 64 * (hot + cold) {
                return Err(format!(
                    "held-out trips yield only {} distinct answerable gaps of {} wanted",
                    gaps.len() + candidates.len(),
                    hot + cold
                ));
            }
            let trip = &test[rng.gen_range(0..test.len())];
            let Some(case) = inject_gap(trip, GAP_SECONDS, &mut rng) else {
                continue;
            };
            if seen.insert((case.trip_id, case.query.start.t)) {
                let truth: Vec<GeoPoint> = case.truth.iter().map(|p| p.pos).collect();
                candidates.push((case.query, truth));
            }
        }
        let (left, right) = candidates.split_at(candidates.len() / 2);
        let answer = |half: &[(GapQuery, Vec<GeoPoint>)]| -> Vec<PoolGap> {
            half.iter()
                .filter_map(|(q, truth)| pool_gap(model, &shape, *q, truth))
                .collect()
        };
        let (a, b) = std::thread::scope(|s| {
            let right = s.spawn(|| answer(right));
            (answer(left), right.join().expect("reference thread"))
        });
        gaps.extend(a);
        gaps.extend(b);
    }
    gaps.truncate(hot + cold);
    let cold_pool = gaps.split_off(hot);
    Ok(Pools {
        hot: gaps,
        cold: cold_pool,
        shape,
    })
}

/// A workload's traffic as a pure function of the operation index.
pub struct Sequence<'a> {
    pools: &'a Pools,
    workload: Workload,
    seed: u64,
}

impl<'a> Sequence<'a> {
    /// The sequence `workload` sends under `seed`. `fit_refit` has no
    /// traffic of its own; its quality check and its traced run use the
    /// cold scan.
    pub fn new(pools: &'a Pools, workload: Workload, seed: u64) -> Self {
        Self {
            pools,
            workload,
            seed,
        }
    }

    /// Gaps per request.
    pub fn gaps_per_op(&self) -> usize {
        self.workload.gaps_per_op()
    }

    /// Hot access `draw`: the first pass scans the pool in order — the
    /// warm-up covers it, so the cache is primed by construction and
    /// not by luck — and every later access is a uniform random draw.
    fn hot(&self, draw: usize) -> &'a PoolGap {
        let n = self.pools.hot.len();
        if draw < n {
            return &self.pools.hot[draw];
        }
        &self.pools.hot[(mix(self.seed, draw as u64) % n as u64) as usize]
    }

    /// Operations the warm-up must cover: the scan of the hot pool.
    pub fn priming_ops(&self) -> usize {
        match self.workload {
            Workload::ServeHot => self.pools.hot.len(),
            Workload::BatchMixed => self.pools.hot.len().div_ceil(BATCH_GAPS / 2),
            Workload::ServeCold | Workload::FitRefit => 0,
        }
    }

    fn cold(&self, slot: usize) -> &'a PoolGap {
        &self.pools.cold[slot % self.pools.cold.len()]
    }

    /// The gaps of operation `i`, in request order.
    pub fn gaps(&self, i: usize) -> Vec<&'a PoolGap> {
        match self.workload {
            Workload::ServeCold | Workload::FitRefit => vec![self.cold(i)],
            Workload::ServeHot => vec![self.hot(i)],
            Workload::BatchMixed => {
                let half = BATCH_GAPS / 2;
                (0..half)
                    .map(|j| self.hot(i * half + j))
                    .chain((0..half).map(|j| self.cold(i * half + j)))
                    .collect()
            }
        }
    }

    /// The request line of operation `i` (no newline).
    pub fn request(&self, i: usize) -> String {
        let gaps = self.gaps(i);
        if self.workload != Workload::BatchMixed {
            return gaps[0].request.clone();
        }
        let shape = &self.pools.shape;
        let parts: Vec<&str> = gaps.iter().map(|g| g.request_part.as_str()).collect();
        format!(
            "{}{}{}",
            shape.request_prefix,
            parts.join(","),
            shape.request_suffix
        )
    }

    /// Whether `response` is the correct answer to operation `i`: the
    /// whole line for a single gap; for a batch, everything up to the
    /// end of the results array.
    pub fn is_correct(&self, i: usize, response: &str) -> bool {
        let gaps = self.gaps(i);
        if self.workload != Workload::BatchMixed {
            return response == gaps[0].expected;
        }
        let mut rest = response;
        let mut eat = |part: &str| match rest.strip_prefix(part) {
            Some(r) => {
                rest = r;
                true
            }
            None => false,
        };
        if !eat(&self.pools.shape.response_prefix) {
            return false;
        }
        for (k, gap) in gaps.iter().enumerate() {
            if (k > 0 && !eat(",")) || !eat(&gap.expected_part) {
                return false;
            }
        }
        eat(RESULTS_END)
    }

    /// Mean DTW against the held-out truth over the gap slots of the
    /// first `ops` operations, capped at `DTW_SLOTS` slots. The caller
    /// passes the operations it has checked byte-equal to the reference
    /// answers, so this is the quality of what was served.
    pub fn dtw_mean_m(&self, ops: usize) -> f64 {
        let ops = ops.min(DTW_SLOTS / self.gaps_per_op());
        let slots: Vec<f64> = (0..ops)
            .flat_map(|i| self.gaps(i))
            .map(|g| g.dtw_m)
            .collect();
        crate::stats::mean(&slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use habit_core::HabitConfig;

    fn small_world() -> (World, HabitModel) {
        let w = world(Sizes {
            sar_scale: 0.2,
            ..Sizes::QUICK
        });
        let trips = ais::segment_all(&w.train, &ais::TripConfig::default());
        let model =
            HabitModel::fit(&ais::trips_to_table(&trips), HabitConfig::default()).expect("fit");
        (w, model)
    }

    fn requests(pools: &Pools, workload: Workload, seed: u64, n: usize) -> Vec<String> {
        let seq = Sequence::new(pools, workload, seed);
        (0..n).map(|i| seq.request(i)).collect()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let (w, model) = small_world();
        let a = build_pools(&w.test, &model, 7, 16, 64).expect("pools");
        let b = build_pools(&w.test, &model, 7, 16, 64).expect("pools");
        let c = build_pools(&w.test, &model, 8, 16, 64).expect("pools");
        for workload in [
            Workload::ServeCold,
            Workload::ServeHot,
            Workload::BatchMixed,
        ] {
            let ra = requests(&a, workload, 7, 40);
            assert_eq!(ra, requests(&b, workload, 7, 40), "{workload:?}");
            assert_ne!(ra, requests(&c, workload, 8, 40), "{workload:?}");
        }
        let expected = |p: &Pools| -> Vec<String> {
            p.hot
                .iter()
                .chain(&p.cold)
                .map(|g| g.expected.clone())
                .collect()
        };
        assert_eq!(expected(&a), expected(&b));
        assert_ne!(expected(&a), expected(&c));
        // Same pools, other seed: the scan is the same, the draws differ.
        let (h7, h9) = (
            requests(&a, Workload::ServeHot, 7, 40),
            requests(&a, Workload::ServeHot, 9, 40),
        );
        assert_eq!(h7[..16], h9[..16]);
        assert_ne!(h7[16..], h9[16..]);
        assert_eq!(Sequence::new(&a, Workload::ServeHot, 7).priming_ops(), 16);
        assert_eq!(Sequence::new(&a, Workload::BatchMixed, 7).priming_ops(), 1);
    }

    #[test]
    fn pools_are_distinct_and_disjoint() {
        let (w, model) = small_world();
        let p = build_pools(&w.test, &model, 3, 16, 64).expect("pools");
        assert_eq!((p.hot.len(), p.cold.len()), (16, 64));
        let mut lines: Vec<&str> = p
            .hot
            .iter()
            .chain(&p.cold)
            .map(|g| g.request.as_str())
            .collect();
        lines.sort_unstable();
        lines.dedup();
        assert_eq!(lines.len(), 80);
    }

    #[test]
    fn batch_lines_reassemble_from_the_product_encoder() {
        let (w, model) = small_world();
        let p = build_pools(&w.test, &model, 5, 16, 64).expect("pools");
        let seq = Sequence::new(&p, Workload::BatchMixed, 5);
        let gaps = seq.gaps(1);
        assert_eq!(gaps.len(), BATCH_GAPS);
        let direct = wire::encode_request(&Request::ImputeBatch {
            gaps: gaps.iter().map(|g| g.query).collect(),
            provenance: false,
        });
        assert_eq!(seq.request(1), direct);

        let answers: Vec<_> = gaps
            .iter()
            .map(|g| Ok(model.impute(&g.query).expect("answerable")))
            .collect();
        let line = wire::encode_response(&Ok(Response::Batch(BatchOutcome {
            results: answers,
            stats: BatchStats {
                queries: BATCH_GAPS,
                ..BatchStats::default()
            },
            cached_routes: 17,
            wall_s: 0.25,
        })));
        assert!(seq.is_correct(1, &line));
        assert!(!seq.is_correct(0, &line));
        assert!(!seq.is_correct(1, &line.replacen("],\"stats\"", ",\"stats\"", 1)));
    }

    #[test]
    fn delta_takes_the_highest_mmsis_and_moves_with_the_seed() {
        let (w, _) = small_world();
        let (history, delta) = history_and_delta(&w.train, 1);
        assert_eq!(history.len() + delta.len(), w.train.len());
        assert_eq!(
            report_count(&history) + report_count(&delta),
            report_count(&w.train)
        );
        let top_history = history.iter().map(|t| t.mmsi).max().expect("history");
        assert!(delta.iter().all(|t| t.mmsi > top_history));
        assert!(delta
            .iter()
            .all(|t| t.points.iter().all(|p| p.mmsi == t.mmsi)));
        let (_, other) = history_and_delta(&w.train, 2);
        let sizes = |d: &[Trajectory]| d.iter().map(Trajectory::len).collect::<Vec<_>>();
        assert_ne!(sizes(&delta), sizes(&other));
    }

    #[test]
    fn mix_is_a_pure_function() {
        assert_eq!(mix(1, 2), mix(1, 2));
        assert_ne!(mix(1, 2), mix(1, 3));
        assert_ne!(mix(1, 2), mix(2, 2));
    }
}
