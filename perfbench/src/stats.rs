//! Sample statistics for the report.
//!
//! A tail percentile drawn from too few samples is just the maximum, so
//! [`percentile`] refuses to report one unless at least [`MIN_BEYOND`]
//! samples lie strictly beyond its rank.

/// Samples that must lie beyond a percentile's rank before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (0 < `p` < 100) of `samples` by nearest rank, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond that rank.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} outside (0, 100)");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    // nearest rank: the smallest sample with at least p% of samples at or
    // below it
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let idx = rank.clamp(1, n) - 1;
    if n - 1 - idx < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[idx])
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
/// Used for figures repeated only a few times per run, such as set-up.
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

/// Arithmetic mean, 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}
