//! Order statistics of frame times.

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by linear interpolation
/// between order statistics.
///
/// # Panics
/// Panics on an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median, or 0 for no samples (a layer the workload never called).
pub fn median_or_zero(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        quantile(samples, 0.5)
    }
}

/// Distance between the first and the third quartile as a share of the
/// median, the quartiles taken as Python's `statistics.quantiles(xs, n=4)`
/// takes them (the driver's measure of run-to-run spread). 0 under two
/// samples.
pub fn quartile_spread(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    let quartile = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / quantile(&sorted, 0.5)
}

/// The percentile `frame_s_tail` reports over `n` frames, and whether it
/// has at least ten samples beyond it: the highest of p99 / p95 / p90 / p75
/// that does, or — every workload must report the metric — p75 regardless
/// under 40 frames. The ladder is coarse on purpose: a run measures for a
/// time, not a frame count, and a workload's runs should not straddle a rung.
pub fn tail_percentile(n: usize) -> (u32, bool) {
    [99u32, 95, 90, 75]
        .into_iter()
        .find(|&p| n * (100 - p as usize) >= 10 * 100)
        .map_or((75, false), |p| (p, true))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // Under 40 frames not even p75 has ten samples beyond it.
        assert_eq!(tail_percentile(0), (75, false));
        assert_eq!(tail_percentile(28), (75, false));
        assert_eq!(tail_percentile(39), (75, false));
        // 100 frames: p90 leaves exactly ten beyond; p95 would leave five.
        assert_eq!(tail_percentile(100), (90, true));
        assert_eq!(tail_percentile(199), (90, true));
        assert_eq!(tail_percentile(200), (95, true));
        // 400 frames: p95 leaves twenty, p99 only four.
        assert_eq!(tail_percentile(400), (95, true));
        assert_eq!(tail_percentile(999), (95, true));
        assert_eq!(tail_percentile(1000), (99, true));
        // Between 40 and 99 frames only the upper quartile qualifies.
        assert_eq!(tail_percentile(40), (75, true));
        assert_eq!(tail_percentile(99), (75, true));
    }

    #[test]
    fn quartile_spread_matches_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert!((quartile_spread(&[3.0, 1.0, 2.0]) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert!((quartile_spread(&[1.0, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[4.0]), 0.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 0.5), 2.5);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        assert_eq!(median_or_zero(&[]), 0.0);
    }
}
