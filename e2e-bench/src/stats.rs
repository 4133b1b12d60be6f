//! Order statistics over a handful of run samples.

/// First quartile, median and third quartile of `xs`, by the same
/// "exclusive" rule as Python's `statistics.quantiles(xs, n=4)`, so the
/// spreads this harness prints are the ones an outside script computes
/// from the same numbers. One sample gives that sample three times.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
#[must_use]
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    if s.len() == 1 {
        return (s[0], s[0], s[0]);
    }
    let n = s.len();
    let m = n + 1;
    let cut = |i: usize| {
        // Python's integer arithmetic: the index is clamped to 1..n−1 but
        // the weight is not, so it extrapolates past the ends of short
        // samples.
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Median of `xs` (the middle value of [`quartiles`]).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[4.0]), 4.0);
    }
}
