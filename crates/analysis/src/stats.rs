//! Small statistics helpers for the experiment harness: means, confidence
//! intervals, and histograms. No external dependencies — the experiments
//! only need the basics.

/// Arithmetic mean; 0.0 for an empty slice.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Half-width of an approximate 95% confidence interval for the mean
/// (normal approximation, `1.96·s/√n`); 0.0 with fewer than two samples.
#[must_use]
pub fn ci95_half_width(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let m = mean(values);
    let var = values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (n as f64 - 1.0);
    1.96 * (var / n as f64).sqrt()
}

/// Five-number-style summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Approximate 95% CI half-width of the mean.
    pub ci95: f64,
}

impl Summary {
    /// Summarizes a sample; all-zero for an empty one.
    #[must_use]
    pub fn of(values: &[f64]) -> Summary {
        if values.is_empty() {
            return Summary { count: 0, mean: 0.0, min: 0.0, max: 0.0, ci95: 0.0 };
        }
        Summary {
            count: values.len(),
            mean: mean(values),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            ci95: ci95_half_width(values),
        }
    }
}

/// A fixed-bucket histogram over `u64` observations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    bucket_width: u64,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// Creates a histogram with `buckets` buckets of `bucket_width` each;
    /// larger observations land in the overflow bucket.
    ///
    /// # Panics
    ///
    /// Panics if `buckets == 0` or `bucket_width == 0`.
    #[must_use]
    pub fn new(buckets: usize, bucket_width: u64) -> Self {
        assert!(buckets > 0 && bucket_width > 0, "histogram needs real buckets");
        Histogram { buckets: vec![0; buckets], bucket_width, overflow: 0, count: 0 }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        let idx = (value / self.bucket_width) as usize;
        match self.buckets.get_mut(idx) {
            Some(slot) => *slot += 1,
            None => self.overflow += 1,
        }
    }

    /// Total observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Observations beyond the last bucket.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// The bucket counts, lowest bucket first.
    #[must_use]
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// The smallest value `v` such that at least `q` (0..=1) of the
    /// observations are `< v + bucket_width` — a bucketed quantile.
    #[must_use]
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let threshold = (self.count as f64 * q).ceil() as u64;
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= threshold {
                return (i as u64 + 1) * self.bucket_width;
            }
        }
        u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_ci() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(ci95_half_width(&[1.0]), 0.0);
        let ci = ci95_half_width(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!(ci > 0.0 && ci < 3.0);
    }

    #[test]
    fn summary_of_sample() {
        let s = Summary::of(&[1.0, 2.0, 3.0]);
        assert_eq!(s.count, 3);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        let empty = Summary::of(&[]);
        assert_eq!(empty.count, 0);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(4, 10);
        for v in [0, 5, 15, 35, 39, 40, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.buckets(), &[2, 1, 0, 2]);
        assert_eq!(h.overflow(), 2);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new(10, 1);
        for v in 0..10 {
            h.record(v);
        }
        assert_eq!(h.quantile_upper_bound(0.5), 5);
        assert_eq!(h.quantile_upper_bound(1.0), 10);
    }
}
