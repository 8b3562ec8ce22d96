//! Exact medians and quantiles.

/// Exact `q`-quantile (`0 ≤ q ≤ 1`) of `values` using in-place selection
/// (average O(n)). Uses the midpoint convention for even counts at the
/// median, matching DuckDB's `median` over doubles.
///
/// Returns `None` for an empty slice. NaNs are ignored.
fn quantile_exact(values: &mut Vec<f64>, q: f64) -> Option<f64> {
    values.retain(|v| !v.is_nan());
    if values.is_empty() {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let n = values.len();
    if n == 1 {
        return Some(values[0]);
    }

    // Interpolated position between order statistics.
    let pos = q * (n - 1) as f64;
    let lo_idx = pos.floor() as usize;
    let frac = pos - lo_idx as f64;

    let (_, lo_val, rest) = values.select_nth_unstable_by(lo_idx, |a, b| a.total_cmp(b));
    let lo = *lo_val;
    if frac == 0.0 {
        return Some(lo);
    }
    // The next order statistic is the minimum of the right partition.
    let hi = rest.iter().copied().fold(f64::INFINITY, f64::min);
    Some(lo + (hi - lo) * frac)
}

/// Exact median of `values` by in-place selection (average O(n)): the
/// midpoint of the two middle values for even counts, matching DuckDB's
/// `median` over doubles. Returns `None` for an empty slice; NaNs are
/// ignored.
pub fn median_exact(values: &mut Vec<f64>) -> Option<f64> {
    quantile_exact(values, 0.5)
}

/// [`median_exact`] of a slice already sorted by `f64::total_cmp`,
/// without copying or reordering it: bit-identical to `median_exact`
/// on the same values. NaNs sort to the two ends and are skipped.
pub fn median_sorted(sorted: &[f64]) -> Option<f64> {
    let start = sorted.iter().position(|v| !v.is_nan())?;
    let end = sorted.iter().rposition(|v| !v.is_nan())? + 1;
    let values = &sorted[start..end];
    let mid = (values.len() - 1) / 2;
    if values.len() % 2 == 1 {
        Some(values[mid])
    } else {
        let (lo, hi) = (values[mid], values[mid + 1]);
        Some(lo + (hi - lo) * 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_median_odd_even() {
        assert_eq!(median_exact(&mut vec![3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median_exact(&mut vec![4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median_exact(&mut vec![5.0]), Some(5.0));
        assert_eq!(median_exact(&mut vec![]), None);
    }

    #[test]
    fn exact_median_ignores_nan() {
        assert_eq!(median_exact(&mut vec![f64::NAN, 1.0, 3.0]), Some(2.0));
        assert_eq!(median_exact(&mut vec![f64::NAN]), None);
    }

    #[test]
    fn sorted_median_is_bit_identical_to_exact() {
        let cases: [&[f64]; 6] = [
            &[],
            &[f64::NAN],
            &[5.0],
            &[3.0, -0.0, 0.0, 1.5, f64::NAN, -f64::NAN, 1e300, -7.25],
            &[0.1, 0.2, 0.7, 1e-9],
            &[-0.0, 0.0, -0.0, 0.0],
        ];
        for case in cases {
            let mut sorted = case.to_vec();
            sorted.sort_by(f64::total_cmp);
            let exact = median_exact(&mut case.to_vec()).map(f64::to_bits);
            assert_eq!(median_sorted(&sorted).map(f64::to_bits), exact, "{case:?}");
        }
    }

    #[test]
    fn exact_quantiles() {
        let mut v: Vec<f64> = (0..101).map(|i| i as f64).collect();
        assert_eq!(quantile_exact(&mut v.clone(), 0.0), Some(0.0));
        assert_eq!(quantile_exact(&mut v.clone(), 1.0), Some(100.0));
        assert_eq!(quantile_exact(&mut v.clone(), 0.25), Some(25.0));
        assert_eq!(quantile_exact(&mut v, 0.9), Some(90.0));
    }
}
