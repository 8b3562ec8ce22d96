//! Percentile and windowing maths of the load generator.

/// Sorts ascending under the total order on floats.
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Nearest-rank percentile of an ascending slice: the smallest value
/// with at least `q` of the samples at or below it. `NaN` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median; the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; `NaN` when empty.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Cuts `(due_s, value)` samples into `windows` equal windows of
/// `window_s` seconds by their due time and returns, per non-empty
/// window, its sample count and its nearest-rank `q` percentile.
pub fn window_percentiles(
    samples: &[(f64, f64)],
    window_s: f64,
    windows: usize,
    q: f64,
) -> Vec<(usize, f64)> {
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for &(due_s, value) in samples {
        let w = ((due_s / window_s) as usize).min(windows - 1);
        buckets[w].push(value);
    }
    buckets
        .iter_mut()
        .filter(|b| !b.is_empty())
        .map(|b| {
            sort(b);
            (b.len(), percentile(b, q))
        })
        .collect()
}

/// The gated latency figure: the median over windows of each window's
/// `q` percentile, so one stalled window moves the figure by at most
/// one rank.
pub fn windowed_percentile(samples: &[(f64, f64)], window_s: f64, windows: usize, q: f64) -> f64 {
    let per_window: Vec<f64> = window_percentiles(samples, window_s, windows, q)
        .into_iter()
        .map(|(_, p)| p)
        .collect();
    median(&per_window)
}

/// The gated throughput figure: events per second in each of
/// `windows` equal windows of `window_s` seconds, then the median
/// window, so a single stall costs one window and not the average.
pub fn windowed_rate(times_s: &[f64], window_s: f64, windows: usize) -> f64 {
    let mut counts = vec![0.0; windows];
    for &t in times_s {
        let w = (t / window_s) as usize;
        if w < windows {
            counts[w] += 1.0;
        }
    }
    median(&counts) / window_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Four samples: p95 is the slowest one.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 9.0], 0.95), 9.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn rate_is_the_median_window_and_ignores_late_completions() {
        // 0.5 s windows: 4, 1 (a stall), 4 events; one event past the end.
        let times = [0.1, 0.2, 0.3, 0.4, 0.7, 1.0, 1.1, 1.2, 1.3, 1.6];
        assert_eq!(windowed_rate(&times, 0.5, 3), 8.0);
        assert_eq!(windowed_rate(&[], 0.5, 3), 0.0);
    }

    #[test]
    fn windows_cut_by_due_time_and_take_the_median_window() {
        // Three 1 s windows; the middle one holds a stall.
        let mut samples = Vec::new();
        for i in 0..10 {
            samples.push((0.05 + i as f64 * 0.09, 1.0 + i as f64));
            samples.push((1.05 + i as f64 * 0.09, 101.0 + i as f64));
            samples.push((2.05 + i as f64 * 0.09, 2.0 + i as f64));
        }
        let per = window_percentiles(&samples, 1.0, 3, 0.5);
        assert_eq!(per, vec![(10, 5.0), (10, 105.0), (10, 6.0)]);
        assert_eq!(windowed_percentile(&samples, 1.0, 3, 0.5), 6.0);
        // A sample due exactly at the end lands in the last window.
        let per = window_percentiles(&[(3.0, 1.0)], 1.0, 3, 0.5);
        assert_eq!(per, vec![(1, 1.0)]);
    }
}
