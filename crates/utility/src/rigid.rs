//! Rigid (hard real-time) applications — paper Equation 1.

use crate::traits::Utility;

/// A rigid application needs exactly `b̄` units of bandwidth: it is worthless
/// below the threshold and gains nothing above it (paper Eq. 1):
///
/// ```text
/// π(b) = 0  for b < b̄,    π(b) = 1  for b ≥ b̄.
/// ```
///
/// Traditional telephony is the canonical example. With rigid applications
/// `V(k) = k·π(C/k)` collapses to `k` for `k ≤ C/b̄` and `0` beyond, so
/// `k_max(C) = ⌊C/b̄⌋` and admission control is clearly necessary (§2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rigid {
    /// Required bandwidth `b̄`.
    pub threshold: f64,
}

impl Rigid {
    /// Rigid application with requirement `b̄ = threshold`.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not strictly positive (a zero-requirement
    /// rigid application would be identically 1, violating `π(0) = 0`).
    #[must_use]
    pub fn new(threshold: f64) -> Self {
        assert!(threshold > 0.0, "rigid threshold must be positive");
        Self { threshold }
    }

    /// The paper's default calibration `b̄ = 1`, which makes
    /// `k_max(C) = ⌊C⌋`, directly comparable to the adaptive utility's
    /// `k_max(C) = C` calibration.
    #[must_use]
    pub fn unit() -> Self {
        Self::new(1.0)
    }

    /// Admission threshold of the fixed-load model: `⌊C / b̄⌋`.
    #[must_use]
    pub fn k_max(&self, capacity: f64) -> u64 {
        if capacity < self.threshold {
            0
        } else {
            (capacity / self.threshold).floor() as u64
        }
    }
}

impl Utility for Rigid {
    fn value(&self, b: f64) -> f64 {
        if b >= self.threshold {
            1.0
        } else {
            0.0
        }
    }

    fn name(&self) -> &'static str {
        "rigid"
    }

    fn derivative(&self, _b: f64) -> f64 {
        // Zero almost everywhere; the step at b̄ has no classical derivative.
        0.0
    }

    fn knots(&self) -> Vec<f64> {
        vec![self.threshold]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_shape() {
        let u = Rigid::unit();
        assert_eq!(u.value(0.0), 0.0);
        assert_eq!(u.value(0.999), 0.0);
        assert_eq!(u.value(1.0), 1.0);
        assert_eq!(u.value(100.0), 1.0);
    }

    #[test]
    fn k_max_floors_capacity() {
        let u = Rigid::unit();
        assert_eq!(u.k_max(0.5), 0);
        assert_eq!(u.k_max(1.0), 1);
        assert_eq!(u.k_max(99.999), 99);
        assert_eq!(u.k_max(100.0), 100);
        let u2 = Rigid::new(2.0);
        assert_eq!(u2.k_max(100.0), 50);
    }

    #[test]
    #[should_panic(expected = "rigid threshold must be positive")]
    fn zero_threshold_rejected() {
        let _ = Rigid::new(0.0);
    }
}
