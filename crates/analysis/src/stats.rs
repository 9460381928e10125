//! Small statistics helpers for the experiment harness: means and
//! confidence intervals. No external dependencies — the experiments only
//! need the basics.

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
}
