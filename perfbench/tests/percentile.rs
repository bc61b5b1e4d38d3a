//! The percentile helper reports a percentile only with at least ten
//! samples beyond it.

use perfbench::stats::{median, percentile, MIN_BEYOND};

fn ramp(n: usize) -> Vec<f64> {
    // descending, so the helper must sort
    (0..n).rev().map(|i| i as f64).collect()
}

#[test]
fn p90_needs_a_hundred_samples() {
    assert_eq!(percentile(&ramp(99), 90.0), None);
    assert_eq!(percentile(&ramp(100), 90.0), Some(89.0));
}

#[test]
fn p99_needs_a_thousand_samples() {
    assert_eq!(percentile(&ramp(999), 99.0), None);
    assert_eq!(percentile(&ramp(1000), 99.0), Some(989.0));
}

#[test]
fn p50_needs_ten_samples_above_the_median() {
    assert_eq!(percentile(&ramp(19), 50.0), None);
    assert_eq!(percentile(&ramp(20), 50.0), Some(9.0));
}

#[test]
fn every_reported_percentile_has_enough_samples_beyond_it() {
    for n in 1..300 {
        let samples = ramp(n);
        for p in [50.0, 75.0, 90.0, 95.0, 99.0] {
            if let Some(v) = percentile(&samples, p) {
                let beyond = samples.iter().filter(|&&x| x > v).count();
                assert!(beyond >= MIN_BEYOND, "n={n} p{p}: {beyond} beyond");
                let at_or_below = n - beyond;
                assert!(
                    at_or_below as f64 >= p / 100.0 * n as f64,
                    "n={n} p{p}: rank too low"
                );
            }
        }
    }
}

#[test]
fn no_samples_no_percentile() {
    assert_eq!(percentile(&[], 50.0), None);
}

#[test]
fn median_of_few_samples() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}
