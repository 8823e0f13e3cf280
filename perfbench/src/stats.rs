//! Sample statistics: medians and tail percentiles.

/// A tail percentile is only reported when at least this many samples lie
/// beyond it; fewer would make it the reading of a handful of outliers.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Median of `samples` (mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN sample.
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// The nearest-rank `q`-quantile (`0 < q < 1`) of `samples`, or `None`
/// when fewer than [`MIN_TAIL_SAMPLES`] samples lie beyond it.
///
/// # Panics
/// Panics if `q` is outside `(0, 1)` or a sample is NaN.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
    let n = samples.len();
    // The epsilon keeps an exact product such as 0.9 * 100 from rounding
    // up a rank.
    let rank = (q * n as f64 - 1e-9).ceil() as usize;
    if rank == 0 || n - rank < MIN_TAIL_SAMPLES {
        return None;
    }
    Some(sorted(samples)[rank - 1])
}

/// The smallest sample count for which [`percentile`] reports `q`.
pub fn samples_needed(q: f64) -> usize {
    (1..).find(|&n| percentile(&vec![0.0; n], q).is_some()).expect("some count suffices")
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    assert!(!samples.is_empty(), "no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        // Reversed, so the helpers must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&one_to(5)), 3.0);
        assert_eq!(median(&one_to(4)), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&one_to(100), 0.9), Some(90.0));
        assert_eq!(percentile(&one_to(99), 0.9), None);
        assert_eq!(percentile(&one_to(150), 0.9), Some(135.0));
        assert_eq!(samples_needed(0.9), 100);
    }

    #[test]
    fn the_tail_rule_scales_with_the_quantile() {
        assert_eq!(samples_needed(0.5), 20);
        assert_eq!(percentile(&one_to(20), 0.5), Some(10.0));
        assert_eq!(percentile(&one_to(19), 0.5), None);
        assert_eq!(samples_needed(0.99), 1000);
        assert_eq!(percentile(&one_to(5), 0.1), None);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn median_of_nothing_is_a_bug() {
        median(&[]);
    }
}
