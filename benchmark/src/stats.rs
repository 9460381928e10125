//! Order statistics over measured samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by the nearest-rank rule:
/// the smallest sample with at least `q` of the samples at or below it.
/// Sorts `samples` in place; returns 0 for an empty slice.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// The median: the mean of the two middle samples when the count is even.
pub fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.9), 90.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
    }

    #[test]
    fn quantile_edges() {
        assert_eq!(quantile(&mut [], 0.5), 0.0);
        assert_eq!(quantile(&mut [7.0], 0.99), 7.0);
        let mut v = [3.0, 1.0, 2.0];
        assert_eq!(quantile(&mut v, 0.34), 2.0);
        assert_eq!(quantile(&mut v, 0.33), 1.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }
}
