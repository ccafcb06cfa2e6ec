//! Order statistics over timing samples.

/// Samples that must lie beyond a reported percentile for it to mean
/// something: with fewer, one preempted chunk decides the figure.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the "exclusive" method, which is what
/// Python's `statistics.quantiles(values, n=4)` computes and therefore what
/// the driver's spread check sees. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |q: usize| {
        // Position q*(n+1)/4 in 1-based ranks, clamped to the sample.
        let j = (q * (n + 1) / 4).clamp(1, n - 1);
        let delta = (q * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// The `p`-th percentile (nearest rank) of ascending `sorted`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input is sorted");
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let idx = rank.clamp(1, n.max(1)) - 1;
    (n > idx && n - 1 - idx >= MIN_BEYOND).then(|| sorted[idx])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 50.0), Some(500));
        assert_eq!(percentile(&v, 99.0), Some(990), "exactly ten beyond");
        assert_eq!(percentile(&v, 99.5), None, "only five beyond");
        let small: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&small, 90.0), Some(90));
        assert_eq!(percentile(&small, 99.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }
}
