//! Ramer–Douglas–Peucker polyline simplification.
//!
//! The paper's final phase (§3.4) smooths grid-derived paths with RDP so
//! the imputed route becomes navigable: a small number of straight legs
//! instead of cell-to-cell zigzags. The tolerance `t` is expressed in
//! meters, matching the paper's `t ∈ {0, 100, 250, 500, 1000}` sweep.
//!
//! One kernel does the work: an iterative, index-based pass that marks
//! kept vertices in a reusable [`RdpScratch`] and compacts the input
//! slice in place ([`rdp_in_place`] / [`rdp_timed_in_place`]) — no
//! sub-path clones, no per-call allocation once the scratch is warm.
//! The scratch keeps the kept *indices* of the call it just ran
//! ([`RdpScratch::kept_indices`]), so a caller that must explain its
//! answer (repair provenance) reads them off the same run that produced
//! it. [`rdp`], [`rdp_timed`], and [`rdp_indices`] are thin wrappers.
//!
//! [`rdp_indices_reference`] is the oracle, not a second product path:
//! the paper's textbook recursion that clones a sub-path per recursive
//! call, kept for the equivalence tests (`habit_core::reference`).
//! Both pick the split vertex as the *first* index attaining the
//! maximum segment distance (strict `>`), so their kept-index sets are
//! identical by construction — the property tests in `proptests.rs`
//! enforce it.

use crate::point::{GeoPoint, TimedPoint};
use crate::polyline::point_segment_distance_m;

/// Reusable scratch state for the in-place RDP kernel: the kept-vertex
/// marks and the explicit subdivision stack.
///
/// Clearing between calls is O(1) via a generation counter, so one
/// long-lived scratch (per serving thread) makes steady-state
/// simplification allocation-free.
#[derive(Debug, Default)]
pub struct RdpScratch {
    /// `marks[i] == generation` ⇔ vertex `i` is kept this call.
    marks: Vec<u32>,
    /// Explicit stack of `(start, end)` index ranges (recursion depth on
    /// long trajectories stays off the call stack).
    stack: Vec<(u32, u32)>,
    generation: u32,
    /// Vertex count of the call that last ran.
    len: usize,
}

impl RdpScratch {
    /// Creates an empty scratch; arrays grow to the path size on first
    /// use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new call over `n` vertices: bumps the generation
    /// (invalidating all marks at once) and grows the mark array if this
    /// path is longer than any seen before.
    fn begin(&mut self, n: usize) {
        if self.marks.len() < n {
            self.marks.resize(n, 0);
        }
        self.len = n;
        self.stack.clear();
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Generation wrapped: old marks could alias. Re-zero once
            // every 2^32 calls and restart at generation 1.
            self.marks.iter_mut().for_each(|g| *g = 0);
            self.generation = 1;
        }
    }

    #[inline]
    fn mark(&mut self, i: usize) {
        self.marks[i] = self.generation;
    }

    #[inline]
    fn kept(&self, i: usize) -> bool {
        self.marks[i] == self.generation
    }

    /// Indices into the *input* path of the vertices the last call
    /// through this scratch kept, ascending (empty before any call).
    pub fn kept_indices(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).filter(|&i| self.kept(i))
    }
}

/// The shared marking kernel: runs RDP over vertices `0..n` whose
/// positions are produced by `pos`, leaving kept-vertex marks in
/// `scratch`. Index-based and iterative — no sub-path is ever
/// materialized, and [`rdp_timed_in_place`] never clones the positions
/// out of its timed points.
fn mark_kept(
    n: usize,
    pos: impl Fn(usize) -> GeoPoint,
    tolerance_m: f64,
    scratch: &mut RdpScratch,
) {
    assert!(tolerance_m >= 0.0, "tolerance must be non-negative");
    scratch.begin(n);
    if n <= 2 || tolerance_m == 0.0 {
        // Identity: every vertex kept (the paper's `t = 0` configuration).
        for i in 0..n {
            scratch.mark(i);
        }
        return;
    }
    scratch.mark(0);
    scratch.mark(n - 1);
    scratch.stack.push((0, (n - 1) as u32));
    while let Some((s, e)) = scratch.stack.pop() {
        let (s, e) = (s as usize, e as usize);
        if e <= s + 1 {
            continue;
        }
        let (a, b) = (pos(s), pos(e));
        let mut max_d = -1.0;
        let mut max_i = s;
        for i in s + 1..e {
            let d = point_segment_distance_m(&pos(i), &a, &b);
            // Strict `>`: the *first* max is the split vertex, the same
            // choice the recursive reference makes, so the kept sets
            // cannot diverge on ties.
            if d > max_d {
                max_d = d;
                max_i = i;
            }
        }
        if max_d > tolerance_m {
            scratch.mark(max_i);
            scratch.stack.push((s as u32, max_i as u32));
            scratch.stack.push((max_i as u32, e as u32));
        }
    }
}

/// Compacts `path` down to the vertices marked kept in `scratch`.
fn compact_marked<T: Copy>(path: &mut Vec<T>, scratch: &RdpScratch) {
    let mut w = 0usize;
    for r in 0..path.len() {
        if scratch.kept(r) {
            path[w] = path[r];
            w += 1;
        }
    }
    path.truncate(w);
}

/// Simplifies `path` in place with RDP at `tolerance_m` meters, reusing
/// `scratch` across calls. The hot-path form: zero allocation once the
/// scratch is warm.
pub fn rdp_in_place(path: &mut Vec<GeoPoint>, tolerance_m: f64, scratch: &mut RdpScratch) {
    mark_kept(path.len(), |i| path[i], tolerance_m, scratch);
    compact_marked(path, scratch);
}

/// Simplifies a timestamped path in place with RDP at `tolerance_m`
/// meters, reusing `scratch` across calls; kept vertices retain their
/// original timestamps.
pub fn rdp_timed_in_place(path: &mut Vec<TimedPoint>, tolerance_m: f64, scratch: &mut RdpScratch) {
    mark_kept(path.len(), |i| path[i].pos, tolerance_m, scratch);
    compact_marked(path, scratch);
}

/// Returns the indices of the vertices kept by RDP with tolerance
/// `tolerance_m` (meters). Always keeps the first and last vertex.
///
/// `tolerance_m == 0` keeps every vertex (identity), mirroring the paper's
/// `t = 0` configuration.
pub fn rdp_indices(path: &[GeoPoint], tolerance_m: f64) -> Vec<usize> {
    let mut scratch = RdpScratch::new();
    mark_kept(path.len(), |i| path[i], tolerance_m, &mut scratch);
    scratch.kept_indices().collect()
}

/// Simplifies `path` with RDP at `tolerance_m` meters.
pub fn rdp(path: &[GeoPoint], tolerance_m: f64) -> Vec<GeoPoint> {
    let mut out = path.to_vec();
    let mut scratch = RdpScratch::new();
    rdp_in_place(&mut out, tolerance_m, &mut scratch);
    out
}

/// Simplifies a timestamped path with RDP at `tolerance_m` meters; kept
/// vertices retain their original timestamps.
pub fn rdp_timed(path: &[TimedPoint], tolerance_m: f64) -> Vec<TimedPoint> {
    let mut out = path.to_vec();
    let mut scratch = RdpScratch::new();
    rdp_timed_in_place(&mut out, tolerance_m, &mut scratch);
    out
}

/// The paper's naive recursive RDP, retained as the reference
/// implementation: recurses on a **cloned sub-path** per call, exactly
/// as the textbook pseudo-code materializes sub-polylines. Returns the
/// kept-index set so the equivalence proptests can compare it against
/// the iterative in-place kernel.
pub fn rdp_indices_reference(path: &[GeoPoint], tolerance_m: f64) -> Vec<usize> {
    assert!(tolerance_m >= 0.0, "tolerance must be non-negative");
    let n = path.len();
    if n <= 2 || tolerance_m == 0.0 {
        return (0..n).collect();
    }

    fn simplify(path: Vec<GeoPoint>, offset: usize, tolerance_m: f64) -> Vec<usize> {
        let n = path.len();
        if n <= 2 {
            return (offset..offset + n).collect();
        }
        let mut max_d = -1.0;
        let mut max_i = 0;
        for (i, p) in path.iter().enumerate().take(n - 1).skip(1) {
            let d = point_segment_distance_m(p, &path[0], &path[n - 1]);
            if d > max_d {
                max_d = d;
                max_i = i;
            }
        }
        if max_d > tolerance_m {
            let mut left = simplify(path[..=max_i].to_vec(), offset, tolerance_m);
            let right = simplify(path[max_i..].to_vec(), offset + max_i, tolerance_m);
            left.pop(); // the split vertex heads `right` too
            left.extend(right);
            left
        } else {
            vec![offset, offset + n - 1]
        }
    }

    simplify(path.to_vec(), 0, tolerance_m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::polyline::point_segment_distance_m;

    /// A zigzag path: 1 km amplitude oscillation around a straight line.
    fn zigzag() -> Vec<GeoPoint> {
        (0..21)
            .map(|i| {
                let lat = 0.01 * i as f64;
                let lon = if i % 2 == 0 { 0.0 } else { 0.009 }; // ~1 km swing
                GeoPoint::new(lon, lat)
            })
            .collect()
    }

    #[test]
    fn zero_tolerance_is_identity() {
        let p = zigzag();
        assert_eq!(rdp(&p, 0.0), p);
        assert_eq!(
            rdp_indices_reference(&p, 0.0),
            (0..p.len()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn endpoints_always_kept() {
        let p = zigzag();
        let s = rdp(&p, 1e9);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0], p[0]);
        assert_eq!(*s.last().unwrap(), *p.last().unwrap());
    }

    #[test]
    fn large_tolerance_removes_zigzag() {
        let p = zigzag();
        let s = rdp(&p, 2000.0);
        assert!(s.len() < p.len() / 2, "kept {}", s.len());
    }

    #[test]
    fn small_tolerance_keeps_zigzag() {
        let p = zigzag();
        let s = rdp(&p, 100.0);
        assert_eq!(s.len(), p.len(), "1 km swings exceed 100 m tolerance");
    }

    #[test]
    fn simplified_path_stays_within_tolerance() {
        // RDP guarantee: every dropped vertex is within tolerance of the
        // simplified polyline.
        let p = zigzag();
        let tol = 600.0;
        let s = rdp(&p, tol);
        for orig in &p {
            let d = s
                .windows(2)
                .map(|w| point_segment_distance_m(orig, &w[0], &w[1]))
                .fold(f64::INFINITY, f64::min);
            assert!(d <= tol + 1.0, "vertex {orig} is {d} m away");
        }
    }

    #[test]
    fn short_paths_unchanged() {
        let p = vec![GeoPoint::new(0.0, 0.0), GeoPoint::new(1.0, 1.0)];
        assert_eq!(rdp(&p, 500.0), p);
        assert_eq!(rdp(&p[..1], 500.0).len(), 1);
        assert!(rdp(&[], 500.0).is_empty());
        assert!(rdp_indices_reference(&[], 500.0).is_empty());
        assert_eq!(rdp_indices_reference(&p, 500.0), vec![0, 1]);
    }

    #[test]
    fn timed_variant_preserves_timestamps() {
        let p: Vec<TimedPoint> = zigzag()
            .into_iter()
            .enumerate()
            .map(|(i, g)| TimedPoint::new(g.lon, g.lat, i as i64 * 60))
            .collect();
        let s = rdp_timed(&p, 2000.0);
        assert_eq!(s.first().unwrap().t, 0);
        assert_eq!(s.last().unwrap().t, 20 * 60);
        for w in s.windows(2) {
            assert!(w[1].t > w[0].t);
        }
    }

    #[test]
    fn scratch_reuse_across_different_sizes() {
        let mut scratch = RdpScratch::new();
        let long = zigzag();
        let mut a = long.clone();
        rdp_in_place(&mut a, 2000.0, &mut scratch);
        assert_eq!(a, rdp(&long, 2000.0));
        // A shorter path next: stale marks from the longer call must not
        // leak in.
        let mut b = long[..5].to_vec();
        rdp_in_place(&mut b, 2000.0, &mut scratch);
        assert_eq!(b, rdp(&long[..5], 2000.0));
        // And the longer one again, with a different tolerance.
        let mut c = long.clone();
        rdp_in_place(&mut c, 100.0, &mut scratch);
        assert_eq!(c, rdp(&long, 100.0));
    }

    #[test]
    fn scratch_generation_wrap_stays_correct() {
        let mut scratch = RdpScratch::new();
        let p = zigzag();
        let mut a = p.clone();
        rdp_in_place(&mut a, 600.0, &mut scratch);
        scratch.generation = u32::MAX; // force the wrap path
        let mut b = p.clone();
        rdp_in_place(&mut b, 600.0, &mut scratch);
        assert_eq!(a, b);
        assert_eq!(scratch.generation, 1);
    }

    #[test]
    fn reference_matches_fast_path_on_fixtures() {
        for tol in [0.0, 100.0, 600.0, 2000.0, 1e9] {
            let p = zigzag();
            assert_eq!(
                rdp_indices(&p, tol),
                rdp_indices_reference(&p, tol),
                "tol {tol}"
            );
        }
        // All-collinear: everything between the endpoints is dropped at
        // any positive tolerance.
        let line: Vec<GeoPoint> = (0..10)
            .map(|i| GeoPoint::new(0.0, 0.001 * i as f64))
            .collect();
        assert_eq!(rdp_indices(&line, 1.0), vec![0, 9]);
        assert_eq!(rdp_indices_reference(&line, 1.0), vec![0, 9]);
    }
}
