//! Order statistics for reporting: medians, interpolated percentiles, the
//! Harrell–Davis quantile estimate for latencies, and a distribution-free
//! confidence interval for a median.

/// Percentile `q ∈ [0, 1]` of `values`, interpolated linearly between
/// order statistics (NumPy's default). `NaN` for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Harrell–Davis estimate of quantile `q ∈ (0, 1)`: the mean of all order
/// statistics weighted by a Beta((n + 1)q, (n + 1)(1 − q)) density over
/// their ranks. A single order statistic jumps from one sample to the next
/// when samples trade places; this estimate moves smoothly, which matters
/// for the figures workload's 13 unlike targets. `NaN` for an empty slice.
pub fn hd_quantile(values: &[f64], q: f64) -> f64 {
    let n = values.len();
    if n == 0 {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let a = (n as f64 + 1.0) * q;
    let b = (n as f64 + 1.0) * (1.0 - q);
    let log_density = |x: f64| (a - 1.0) * x.ln() + (b - 1.0) * (1.0 - x).ln();
    // Midpoint rule, never at 0 or 1, scaled by the highest density so
    // large samples do not underflow.
    let steps = (4096 / n).max(8);
    let width = 1.0 / (n * steps) as f64;
    let logs: Vec<f64> = (0..n * steps)
        .map(|k| log_density((k as f64 + 0.5) * width))
        .collect();
    let peak = logs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let (mut total, mut weighted) = (0.0, 0.0);
    for (v, rank) in sorted.iter().zip(logs.chunks(steps)) {
        let w: f64 = rank.iter().map(|l| (l - peak).exp()).sum();
        total += w;
        weighted += w * v;
    }
    weighted / total
}

/// The highest of the usual reporting percentiles that still has at least
/// ten samples beyond it, as a percent (`None` below 20 samples).
pub fn reportable_tail(n: usize) -> Option<u32> {
    [99, 95, 90, 80, 75, 50]
        .into_iter()
        .find(|&p| (n as f64) * f64::from(100 - p) / 100.0 >= 10.0)
}

/// 95% confidence interval for the median of `values` from order
/// statistics (normal approximation to the binomial rank distribution),
/// so it assumes nothing about the shape of the distribution.
pub fn median_ci95(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return (f64::NAN, f64::NAN);
    }
    let half = 1.96 * (n as f64).sqrt() / 2.0;
    let lo = ((n as f64 / 2.0 - half).floor().max(0.0)) as usize;
    let hi = ((n as f64 / 2.0 + half).ceil() as usize).min(n - 1);
    (sorted[lo], sorted[hi])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
    }

    #[test]
    fn harrell_davis_is_smooth_and_central() {
        let v: Vec<f64> = (1..=13).map(f64::from).collect();
        assert!((hd_quantile(&v, 0.5) - 7.0).abs() < 1e-6);
        let p90 = hd_quantile(&v, 0.9);
        assert!(p90 > 11.0 && p90 < 13.0);
        // Moving the middle sample past its neighbour moves the estimate
        // by a fraction of the move, not by the whole gap.
        let mut w = v.clone();
        w[6] = 7.9;
        let shift = hd_quantile(&w, 0.5) - hd_quantile(&v, 0.5);
        assert!(shift > 0.0 && shift < 0.9 / 2.0);
        assert_eq!(hd_quantile(&[5.0], 0.5), 5.0);
        let many: Vec<f64> = (0..20_000).map(f64::from).collect();
        assert!((hd_quantile(&many, 0.5) - 9999.5).abs() < 1.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(reportable_tail(19), None);
        assert_eq!(reportable_tail(20), Some(50));
        assert_eq!(reportable_tail(100), Some(90));
        assert_eq!(reportable_tail(1000), Some(99));
    }

    #[test]
    fn median_interval_brackets_the_median() {
        let v: Vec<f64> = (0..101).map(f64::from).collect();
        let (lo, hi) = median_ci95(&v);
        assert!(lo < 50.0 && hi > 50.0);
    }
}
