//! Order statistics over timing samples.

/// The fewest samples a p99 may be reported from: with 1000 samples at
/// least ten lie beyond the 99th percentile, so one outlier cannot set it.
pub const MIN_P99_SAMPLES: usize = 1000;

/// Nearest-rank percentile `p` (0 < p ≤ 100) of unsorted samples.
///
/// Refuses (returns `None`) when the sample count leaves fewer than ten
/// samples beyond the percentile — for p99 that means fewer than
/// [`MIN_P99_SAMPLES`] samples — and on an empty input.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of (0, 100]");
    let n = samples.len();
    let beyond = n as f64 * (100.0 - p) / 100.0;
    if n == 0 || (p > 50.0 && beyond < 10.0 - 1e-9) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Median of unsorted samples (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_is_refused_below_a_thousand_samples() {
        let few: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(percentile(&few, 99.0), None);
        let enough: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&enough, 99.0), Some(989.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn p50_and_median_agree_on_odd_counts() {
        let s = [5.0, 1.0, 3.0, 4.0, 2.0];
        assert_eq!(percentile(&s, 50.0), Some(3.0));
        assert_eq!(median(&s), 3.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
    }
}
