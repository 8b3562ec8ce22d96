//! The trip simulator: waypoints → smooth track → noisy AIS reports.
//!
//! Reproduces the phenomenology of real AIS streams that the paper's
//! preprocessing has to cope with: smooth wide turns (Chaikin-smoothed
//! corners), lateral deviation from the nominal lane (an
//! Ornstein–Uhlenbeck offset), GPS position noise, speed-dependent
//! reporting with jitter, region-dependent reception dropout, short
//! sub-ΔT silence windows, and occasional glitch messages (duplicates,
//! invalid coordinates, teleport spikes) for the cleaning filters to
//! remove.

use ais::AisPoint;
use geo_kernel::{
    cumulative_lengths_m, destination_point, initial_bearing_deg, knots_to_mps, mps_to_knots,
    GeoPoint,
};
use rand::Rng;

/// Reception dropout model.
#[derive(Debug, Clone, Copy)]
pub enum DropoutModel {
    /// Every report is dropped independently with this probability.
    Uniform(f64),
    /// Different drop rates north/south of a latitude boundary — the SAR
    /// scenario's "varying quality of AIS reception".
    LatBands {
        /// Boundary latitude.
        boundary_lat: f64,
        /// Drop probability north of the boundary.
        north: f64,
        /// Drop probability south of the boundary.
        south: f64,
    },
}

impl DropoutModel {
    fn probability(&self, p: &GeoPoint) -> f64 {
        match self {
            DropoutModel::Uniform(q) => *q,
            DropoutModel::LatBands {
                boundary_lat,
                north,
                south,
            } => {
                if p.lat >= *boundary_lat {
                    *north
                } else {
                    *south
                }
            }
        }
    }
}

/// Noise and glitch parameters of the simulator.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// GPS position noise, 1σ meters.
    pub pos_noise_m: f64,
    /// Relative SOG noise (fraction of cruise speed).
    pub speed_noise_frac: f64,
    /// Lateral lane deviation, stationary σ in meters.
    pub lateral_sigma_m: f64,
    /// Correlation length of the lateral deviation, meters along track.
    pub lateral_corr_m: f64,
    /// Reception dropout model.
    pub dropout: DropoutModel,
    /// Probability that a trip contains one silent window of 8–20 minutes
    /// (below ΔT, so it survives segmentation as an in-trip gap).
    pub short_gap_prob: f64,
    /// Per-report probability of emitting a duplicate-timestamp glitch.
    pub glitch_duplicate: f64,
    /// Per-report probability of emitting an invalid-coordinate glitch.
    pub glitch_invalid: f64,
    /// Per-report probability of emitting a teleport spike glitch.
    pub glitch_spike: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            pos_noise_m: 12.0,
            speed_noise_frac: 0.06,
            lateral_sigma_m: 130.0,
            lateral_corr_m: 4_000.0,
            dropout: DropoutModel::Uniform(0.02),
            short_gap_prob: 0.25,
            glitch_duplicate: 0.002,
            glitch_invalid: 0.001,
            glitch_spike: 0.0008,
        }
    }
}

/// One planned sailing, to be realized by [`simulate_trip`].
#[derive(Debug, Clone)]
pub struct TripPlan {
    /// Vessel MMSI.
    pub mmsi: u64,
    /// Navigable route waypoints (from the [`SeaRouter`](crate::SeaRouter)).
    pub waypoints: Vec<GeoPoint>,
    /// Cruise speed, knots.
    pub cruise_knots: f64,
    /// Base reporting interval, seconds.
    pub report_interval_s: f64,
    /// Departure time (start of pre-departure berthing), Unix seconds.
    pub depart_t: i64,
    /// Berthing duration before departure, minutes.
    pub berth_before_min: f64,
    /// Berthing duration after arrival, minutes.
    pub berth_after_min: f64,
}

/// Samples a standard normal via Box–Muller (rand 0.8 has no normal
/// distribution without `rand_distr`).
fn gauss<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// One round of Chaikin corner cutting (endpoints kept).
fn chaikin_once(points: &[GeoPoint]) -> Vec<GeoPoint> {
    if points.len() < 3 {
        return points.to_vec();
    }
    let mut out = Vec::with_capacity(points.len() * 2);
    out.push(points[0]);
    for w in points.windows(2) {
        out.push(w[0].lerp(&w[1], 0.25));
        out.push(w[0].lerp(&w[1], 0.75));
    }
    out.push(*points.last().expect("non-empty"));
    out
}

/// Chaikin-smooths a waypoint polyline `iters` times: corners become the
/// wide, gradual turns characteristic of large vessels.
fn smooth_waypoints(points: &[GeoPoint], iters: usize) -> Vec<GeoPoint> {
    let mut out = points.to_vec();
    for _ in 0..iters {
        out = chaikin_once(&out);
    }
    out
}

/// Arc-length sampler over a smoothed path.
pub struct PathSampler {
    points: Vec<GeoPoint>,
    cum: Vec<f64>,
}

impl PathSampler {
    /// Builds a sampler from raw waypoints (smoothed internally).
    pub fn new(waypoints: &[GeoPoint]) -> Self {
        let points = smooth_waypoints(waypoints, 2);
        let cum = cumulative_lengths_m(&points);
        Self { points, cum }
    }

    /// Total path length in meters.
    pub fn length_m(&self) -> f64 {
        self.cum.last().copied().unwrap_or(0.0)
    }

    /// Position and course at `s` meters along the path (clamped).
    pub fn at(&self, s: f64) -> (GeoPoint, f64) {
        let total = self.length_m();
        if self.points.len() < 2 || total == 0.0 {
            return (self.points[0], 0.0);
        }
        let s = s.clamp(0.0, total);
        let idx = match self.cum.binary_search_by(|v| v.total_cmp(&s)) {
            Ok(i) => i.max(1),
            Err(i) => i.min(self.points.len() - 1).max(1),
        };
        let seg = self.cum[idx] - self.cum[idx - 1];
        let f = if seg > 0.0 {
            (s - self.cum[idx - 1]) / seg
        } else {
            0.0
        };
        let pos = self.points[idx - 1].lerp(&self.points[idx], f);
        let bearing = initial_bearing_deg(&self.points[idx - 1], &self.points[idx]);
        (pos, bearing)
    }
}

/// Simulates one trip: pre-departure berthing, the sailing itself, and
/// post-arrival berthing. Returns the emitted AIS reports and the time at
/// which the vessel finished berthing (for scheduling the next trip).
pub fn simulate_trip<R: Rng>(
    plan: &TripPlan,
    cfg: &SimConfig,
    rng: &mut R,
) -> (Vec<AisPoint>, i64) {
    assert!(
        plan.waypoints.len() >= 2,
        "a trip needs at least two waypoints"
    );
    let mut points = Vec::new();
    let mut t = plan.depart_t;

    // --- Berthing before departure (reports every ~3 min, sog ≈ 0).
    let berth_start = plan.waypoints[0];
    t = emit_berth(
        &mut points,
        plan.mmsi,
        berth_start,
        t,
        plan.berth_before_min,
        cfg,
        rng,
    );

    // --- The sailing.
    let sampler = PathSampler::new(&plan.waypoints);
    let total = sampler.length_m();
    let ramp = (total * 0.08).clamp(500.0, 4_000.0);
    let cruise_mps = knots_to_mps(plan.cruise_knots);

    // Optional in-trip silent window (in along-track meters).
    let silent: Option<(f64, f64)> = if rng.gen_bool(cfg.short_gap_prob.clamp(0.0, 1.0)) {
        let gap_minutes = rng.gen_range(8.0..20.0);
        let gap_len = cruise_mps * gap_minutes * 60.0;
        let start = rng.gen_range(0.15..0.7) * total;
        Some((start, (start + gap_len).min(total * 0.95)))
    } else {
        None
    };

    let mut s = 0.0f64;
    let mut lateral = 0.0f64;
    while s < total {
        let dt = plan.report_interval_s * rng.gen_range(0.85..1.15);
        // Trapezoidal speed profile with a floor so the vessel always moves.
        let ramp_factor = (s / ramp).min((total - s) / ramp).clamp(0.25, 1.0);
        let v = cruise_mps * ramp_factor * (1.0 + cfg.speed_noise_frac * gauss(rng));
        let v = v.max(0.5);
        s += v * dt;
        t += dt as i64;
        if s >= total {
            break;
        }

        // Lateral lane deviation: OU process in along-track distance.
        let rho = (-(v * dt) / cfg.lateral_corr_m).exp();
        lateral = lateral * rho + cfg.lateral_sigma_m * (1.0 - rho * rho).sqrt() * gauss(rng);

        let (lane_pos, bearing) = sampler.at(s);
        let offset_pos = destination_point(&lane_pos, bearing + 90.0, lateral);
        let noisy_pos = destination_point(
            &offset_pos,
            rng.gen_range(0.0..360.0),
            cfg.pos_noise_m * gauss(rng).abs(),
        );

        // Reception dropout and the silent window.
        let in_silence = silent.is_some_and(|(a, b)| s >= a && s <= b);
        if in_silence || rng.gen_bool(cfg.dropout.probability(&noisy_pos).clamp(0.0, 0.95)) {
            continue;
        }

        let sog = mps_to_knots(v) * (1.0 + 0.02 * gauss(rng));
        let cog = geo_kernel::normalize_deg(bearing + 2.5 * gauss(rng));
        points.push(AisPoint::new(
            plan.mmsi,
            t,
            noisy_pos.lon,
            noisy_pos.lat,
            sog.max(0.0),
            cog,
        ));

        // Glitches, to be removed by `ais::clean`.
        if rng.gen_bool(cfg.glitch_duplicate) {
            let mut dup = *points.last().expect("just pushed");
            dup.pos = destination_point(&dup.pos, rng.gen_range(0.0..360.0), 35.0);
            points.push(dup); // same timestamp => duplicate
        }
        if rng.gen_bool(cfg.glitch_invalid) {
            points.push(AisPoint::new(plan.mmsi, t + 1, 181.0, 91.0, 0.0, 0.0));
        }
        if rng.gen_bool(cfg.glitch_spike) {
            let spike_pos = destination_point(&noisy_pos, rng.gen_range(0.0..360.0), 80_000.0);
            points.push(AisPoint::new(
                plan.mmsi,
                t + 2,
                spike_pos.lon,
                spike_pos.lat,
                sog.max(0.0),
                cog,
            ));
        }
    }

    // --- Berthing after arrival.
    let berth_end = *plan.waypoints.last().expect("non-empty");
    t = emit_berth(
        &mut points,
        plan.mmsi,
        berth_end,
        t,
        plan.berth_after_min,
        cfg,
        rng,
    );

    (points, t)
}

fn emit_berth<R: Rng>(
    out: &mut Vec<AisPoint>,
    mmsi: u64,
    berth: GeoPoint,
    start_t: i64,
    minutes: f64,
    cfg: &SimConfig,
    rng: &mut R,
) -> i64 {
    let mut t = start_t;
    let end = start_t + (minutes * 60.0) as i64;
    while t < end {
        let pos = destination_point(&berth, rng.gen_range(0.0..360.0), cfg.pos_noise_m * 2.0);
        out.push(AisPoint::new(
            mmsi,
            t,
            pos.lon,
            pos.lat,
            rng.gen_range(0.0..0.3),
            rng.gen_range(0.0..360.0),
        ));
        t += rng.gen_range(150..210);
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn plan() -> TripPlan {
        TripPlan {
            mmsi: 219_000_001,
            waypoints: vec![
                GeoPoint::new(10.0, 56.0),
                GeoPoint::new(10.5, 56.2),
                GeoPoint::new(11.0, 56.2),
            ],
            cruise_knots: 15.0,
            report_interval_s: 60.0,
            depart_t: 1_700_000_000,
            berth_before_min: 20.0,
            berth_after_min: 20.0,
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = SimConfig::default();
        let (a, _) = simulate_trip(&plan(), &cfg, &mut StdRng::seed_from_u64(1));
        let (b, _) = simulate_trip(&plan(), &cfg, &mut StdRng::seed_from_u64(1));
        assert_eq!(a.len(), b.len());
        assert_eq!(a.first().map(|p| p.t), b.first().map(|p| p.t));
        let (c, _) = simulate_trip(&plan(), &cfg, &mut StdRng::seed_from_u64(2));
        assert_ne!(a.len(), c.len(), "different seeds diverge");
    }

    #[test]
    fn trip_has_berth_and_cruise_phases() {
        let cfg = SimConfig {
            dropout: DropoutModel::Uniform(0.0),
            short_gap_prob: 0.0,
            glitch_duplicate: 0.0,
            glitch_invalid: 0.0,
            glitch_spike: 0.0,
            ..SimConfig::default()
        };
        let (pts, end_t) = simulate_trip(&plan(), &cfg, &mut StdRng::seed_from_u64(3));
        assert!(pts.len() > 50, "got {}", pts.len());
        let stopped = pts.iter().filter(|p| p.sog < 0.5).count();
        let moving = pts.iter().filter(|p| p.sog > 5.0).count();
        assert!(stopped >= 10, "berth reports: {stopped}");
        assert!(moving > 40, "cruise reports: {moving}");
        assert!(end_t > plan().depart_t);
        // Reports are time-ordered (glitches disabled).
        for w in pts.windows(2) {
            assert!(w[1].t >= w[0].t);
        }
    }

    #[test]
    fn track_stays_near_route() {
        let cfg = SimConfig {
            dropout: DropoutModel::Uniform(0.0),
            short_gap_prob: 0.0,
            glitch_duplicate: 0.0,
            glitch_invalid: 0.0,
            glitch_spike: 0.0,
            ..SimConfig::default()
        };
        let p = plan();
        let (pts, _) = simulate_trip(&p, &cfg, &mut StdRng::seed_from_u64(4));
        let sampler = PathSampler::new(&p.waypoints);
        for pt in pts.iter().filter(|p| p.sog > 5.0) {
            // Distance to the smoothed lane must stay within ~6σ lateral.
            let mut best = f64::INFINITY;
            let steps = 200;
            for i in 0..=steps {
                let (lane, _) = sampler.at(sampler.length_m() * i as f64 / steps as f64);
                best = best.min(geo_kernel::haversine_m(&pt.pos, &lane));
            }
            assert!(
                best < cfg.lateral_sigma_m * 6.0 + 100.0,
                "offtrack {best} m"
            );
        }
    }

    #[test]
    fn dropout_reduces_report_count() {
        let base = SimConfig {
            dropout: DropoutModel::Uniform(0.0),
            short_gap_prob: 0.0,
            ..SimConfig::default()
        };
        let lossy = SimConfig {
            dropout: DropoutModel::Uniform(0.5),
            short_gap_prob: 0.0,
            ..SimConfig::default()
        };
        let (a, _) = simulate_trip(&plan(), &base, &mut StdRng::seed_from_u64(5));
        let (b, _) = simulate_trip(&plan(), &lossy, &mut StdRng::seed_from_u64(5));
        assert!(
            (b.len() as f64) < a.len() as f64 * 0.75,
            "{} vs {}",
            b.len(),
            a.len()
        );
    }

    #[test]
    fn lat_bands_dropout() {
        let m = DropoutModel::LatBands {
            boundary_lat: 37.7,
            north: 0.05,
            south: 0.3,
        };
        assert_eq!(m.probability(&GeoPoint::new(23.5, 38.0)), 0.05);
        assert_eq!(m.probability(&GeoPoint::new(23.5, 37.3)), 0.3);
    }

    #[test]
    fn smoothing_reduces_corner_sharpness() {
        let wps = vec![
            GeoPoint::new(0.0, 0.0),
            GeoPoint::new(0.1, 0.0),
            GeoPoint::new(0.1, 0.1),
        ];
        let smooth = smooth_waypoints(&wps, 2);
        assert!(smooth.len() > wps.len());
        let max_turn_raw = 90.0;
        let max_turn_smooth = smooth
            .windows(3)
            .map(|w| geo_kernel::turn_angle_deg(&w[0], &w[1], &w[2]))
            .fold(0.0f64, f64::max);
        assert!(
            max_turn_smooth < max_turn_raw * 0.7,
            "smoothed corner {max_turn_smooth}"
        );
    }

    #[test]
    fn sampler_endpoints() {
        let wps = vec![GeoPoint::new(0.0, 0.0), GeoPoint::new(0.0, 0.1)];
        let s = PathSampler::new(&wps);
        let (start, _) = s.at(0.0);
        let (end, _) = s.at(s.length_m());
        assert!(geo_kernel::haversine_m(&start, &wps[0]) < 1.0);
        assert!(geo_kernel::haversine_m(&end, &wps[1]) < 1.0);
        let (clamped, _) = s.at(1e12);
        assert_eq!(clamped, end);
    }
}
