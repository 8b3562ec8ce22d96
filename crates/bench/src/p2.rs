//! The P² streaming quantile estimator — the O(1)-memory alternative to
//! exact medians that `ablation_medians` measures against
//! `aggdb::quantile::median_exact`.

/// The P² (Piecewise-Parabolic) streaming quantile estimator of Jain &
/// Chlamtac — O(1) memory per group, used as the cheap alternative to
/// exact medians in the ablation benchmarks.
#[derive(Debug, Clone)]
pub struct P2Quantile {
    q: f64,
    /// Marker heights.
    heights: [f64; 5],
    /// Marker positions (1-based, as in the paper).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Desired position increments.
    increments: [f64; 5],
    count: usize,
    /// Initial observations until the estimator is primed.
    initial: Vec<f64>,
}

impl P2Quantile {
    /// Creates an estimator for quantile `q ∈ (0, 1)`.
    pub fn new(q: f64) -> Self {
        let q = q.clamp(1e-6, 1.0 - 1e-6);
        Self {
            q,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            count: 0,
            initial: Vec::with_capacity(5),
        }
    }

    /// Creates a streaming median estimator.
    pub fn median() -> Self {
        Self::new(0.5)
    }

    /// Observes one value.
    pub fn insert(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        self.count += 1;
        if self.initial.len() < 5 {
            self.initial.push(x);
            if self.initial.len() == 5 {
                self.initial.sort_by(|a, b| a.total_cmp(b));
                self.heights.copy_from_slice(&self.initial);
            }
            return;
        }

        // Locate the cell containing x and update extreme heights.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            2
        } else {
            let mut k = 0;
            for i in 0..4 {
                if x >= self.heights[i] && x < self.heights[i + 1] {
                    k = i;
                    break;
                }
            }
            k
        };

        for p in self.positions.iter_mut().skip(k + 1) {
            *p += 1.0;
        }
        for (d, inc) in self.desired.iter_mut().zip(self.increments) {
            *d += inc;
        }

        // Adjust interior markers with parabolic (fallback linear) moves.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let right_gap = self.positions[i + 1] - self.positions[i];
            let left_gap = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && right_gap > 1.0) || (d <= -1.0 && left_gap < -1.0) {
                let sign = d.signum();
                let parabolic = self.parabolic(i, sign);
                if self.heights[i - 1] < parabolic && parabolic < self.heights[i + 1] {
                    self.heights[i] = parabolic;
                } else {
                    self.heights[i] = self.linear(i, sign);
                }
                self.positions[i] += sign;
            }
        }
    }

    fn parabolic(&self, i: usize, sign: f64) -> f64 {
        let p = &self.positions;
        let h = &self.heights;
        h[i] + sign / (p[i + 1] - p[i - 1])
            * ((p[i] - p[i - 1] + sign) * (h[i + 1] - h[i]) / (p[i + 1] - p[i])
                + (p[i + 1] - p[i] - sign) * (h[i] - h[i - 1]) / (p[i] - p[i - 1]))
    }

    fn linear(&self, i: usize, sign: f64) -> f64 {
        let j = (i as f64 + sign) as usize;
        self.heights[i]
            + sign * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// Current quantile estimate; `None` before any value is observed.
    pub fn estimate(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        if self.initial.len() < 5 {
            // Fewer than 5 observations: exact.
            let mut v = self.initial.clone();
            v.sort_by(|a, b| a.total_cmp(b));
            let pos = self.q * (v.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let frac = pos - lo as f64;
            let hi = (lo + 1).min(v.len() - 1);
            return Some(v[lo] + (v[hi] - v[lo]) * frac);
        }
        Some(self.heights[2])
    }

    /// Number of observed values.
    pub fn count(&self) -> usize {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggdb::quantile::median_exact;

    #[test]
    fn p2_median_close_to_exact_on_uniform() {
        let mut est = P2Quantile::median();
        // Deterministic LCG stream in [0, 1000).
        let mut state = 12345u64;
        let mut all = Vec::new();
        for _ in 0..20_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = (state >> 11) as f64 / (1u64 << 53) as f64 * 1000.0;
            est.insert(x);
            all.push(x);
        }
        let exact = median_exact(&mut all).unwrap();
        let approx = est.estimate().unwrap();
        assert!(
            (approx - exact).abs() < 25.0,
            "p2 {approx} vs exact {exact}"
        );
    }

    #[test]
    fn p2_small_counts_exact() {
        let mut est = P2Quantile::median();
        est.insert(10.0);
        assert_eq!(est.estimate(), Some(10.0));
        est.insert(20.0);
        assert_eq!(est.estimate(), Some(15.0));
        assert_eq!(est.count(), 2);
        assert_eq!(P2Quantile::median().estimate(), None);
    }
}
