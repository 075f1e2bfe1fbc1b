//! Order statistics with the reporting rule the benchmark uses: a
//! percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it, so a tail figure is never read off a handful of points.

/// Samples that must lie strictly beyond a percentile's rank before the
/// percentile is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `0.0..=1.0`) of `samples`, or `None`
/// when fewer than [`MIN_BEYOND`] samples rank above it. Sorts in place.
pub fn percentile(samples: &mut [f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    // The epsilon keeps float noise (0.9 * 100 = 90.000…01) off the rank.
    let rank = ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    samples.sort_unstable_by(f64::total_cmp);
    Some(samples[rank - 1])
}

/// Median of `samples` (mean of the middle two for even counts), or
/// `None` when empty. Unlike [`percentile`] the median needs no tail
/// support. Sorts in place.
pub fn median(samples: &mut [f64]) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    samples.sort_unstable_by(f64::total_cmp);
    Some(if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    })
}

/// Arithmetic mean, `0.0` for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or `0.0` when the base is empty.
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

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_values() {
        let mut s = ramp(1000);
        assert_eq!(percentile(&mut s, 0.5), Some(500.0));
        assert_eq!(percentile(&mut s, 0.99), Some(990.0));
        assert_eq!(percentile(&mut s, 0.9), Some(900.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples (rank 990) has exactly ten beyond it; of
        // 999 (rank 990), nine.
        assert!(percentile(&mut ramp(1000), 0.99).is_some());
        assert!(percentile(&mut ramp(999), 0.99).is_none());
        // p90 needs 100 samples.
        assert_eq!(percentile(&mut ramp(100), 0.9), Some(90.0));
        assert!(percentile(&mut ramp(99), 0.9).is_none());
        // Even the median is refused below 20 samples under this rule.
        assert!(percentile(&mut ramp(19), 0.5).is_none());
        assert!(percentile(&mut ramp(20), 0.5).is_some());
        assert!(percentile(&mut [], 0.5).is_none());
    }

    #[test]
    fn percentile_sorts_unordered_input() {
        let mut s: Vec<f64> = ramp(200).into_iter().rev().collect();
        assert_eq!(percentile(&mut s, 0.5), Some(100.0));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&mut []), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
