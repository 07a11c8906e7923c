//! Order statistics for the report: nearest-rank percentiles and the
//! rule for which percentile a sample supports.

/// Fewest samples that must lie beyond a percentile for the sample to
/// support it. A tail estimate resting on fewer points repeats poorly
/// from run to run.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending `sorted` slice: the smallest
/// sample with at least `p`·n samples at or below it (`p` in `[0, 1]`).
/// An empty slice reads 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match rank(sorted.len(), p) {
        Some(r) => sorted[r - 1],
        None => 0.0,
    }
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let r = (p.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    Some(r.clamp(1, n))
}

/// Samples strictly beyond the nearest-rank percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    rank(n, p).map_or(0, |r| n - r)
}

/// Whether `n` samples support percentile `p`: at least [`MIN_BEYOND`]
/// of them lie beyond it.
pub fn supports(n: usize, p: f64) -> bool {
    beyond(n, p) >= MIN_BEYOND
}

/// The highest of p50, p90, p99 and p99.9 that `n` samples support, or
/// `None` below 20 samples.
pub fn highest_supported(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&p| supports(n, p))
}

/// Median of unsorted values (the lower middle for an even count, so the
/// result is always one of the measured values).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    percentile(&v, 0.5)
}

/// Interquartile mean: the mean of the middle half of the values (all of
/// them below four). Like the median it ignores a stalled minority; unlike
/// it, it moves smoothly when a host alternates between two speeds.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    if mid.is_empty() {
        return 0.0;
    }
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Sorts ascending; NaN never occurs in timings, and sorts last if it did.
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 0.999), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        // Nearest rank rounds up: 0.5 of 5 samples is the 3rd.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.5), 3.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_is_a_measured_value() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(
            interquartile_mean(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]),
            3.5
        );
        assert_eq!(interquartile_mean(&[2.0, 4.0]), 3.0);
        assert_eq!(interquartile_mean(&[]), 0.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 of 1000 samples is rank 990: exactly 10 beyond.
        assert_eq!(beyond(1000, 0.99), 10);
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        // p99.9 needs 10 000 samples.
        assert!(supports(10_000, 0.999));
        assert!(!supports(9_999, 0.999));
        assert_eq!(highest_supported(10_000), Some(0.999));
        assert_eq!(highest_supported(5_000), Some(0.99));
        assert_eq!(highest_supported(100), Some(0.9));
        assert_eq!(highest_supported(99), Some(0.5));
        assert_eq!(highest_supported(19), None);
        assert_eq!(beyond(0, 0.5), 0);
    }
}
