//! The paper's adaptive utility function — Equation 2 and Figure 1.

use crate::kappa::KAPPA;
use crate::traits::Utility;

/// Rate- and delay-adaptive audio/video utility (paper Eq. 2):
///
/// ```text
/// π(b) = 1 − e^{ −b² / (κ + b) }
/// ```
///
/// Human perception makes tiny bandwidths nearly worthless
/// (`π(b) ≈ b²/κ` for small `b` — convex near the origin, hence inelastic)
/// while quality saturates at high bandwidth (`π(b) ≈ 1 − e^{−b}` for large
/// `b`). The constant κ = 0.62086 is calibrated so that the fixed-load
/// optimum is `k_max(C) = C`, directly comparable to the rigid case with
/// `b̄ = 1` (paper footnote 4); see [`crate::kappa::solve_kappa`] for the
/// calibration equation and solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveExp {
    /// Shape constant κ > 0.
    pub kappa: f64,
}

impl AdaptiveExp {
    /// Adaptive utility with an explicit κ.
    ///
    /// # Panics
    ///
    /// Panics if `kappa` is not strictly positive.
    #[must_use]
    pub fn new(kappa: f64) -> Self {
        assert!(kappa > 0.0, "kappa must be positive");
        Self { kappa }
    }

    /// The paper's calibration κ = 0.62086 (footnote 4).
    #[must_use]
    pub fn paper() -> Self {
        Self::new(KAPPA)
    }

    /// Exponent `b²/(κ+b)`, exposed for closed-form manipulations.
    #[must_use]
    pub fn exponent(&self, b: f64) -> f64 {
        b * b / (self.kappa + b)
    }
}

impl Default for AdaptiveExp {
    fn default() -> Self {
        Self::paper()
    }
}

impl Utility for AdaptiveExp {
    fn value(&self, b: f64) -> f64 {
        if b <= 0.0 {
            0.0
        } else {
            -(-self.exponent(b)).exp_m1()
        }
    }

    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn derivative(&self, b: f64) -> f64 {
        if b < 0.0 {
            return 0.0;
        }
        // d/db [b²/(κ+b)] = (b² + 2κb)/(κ+b)².
        let d = self.kappa + b;
        let g = (b * b + 2.0 * self.kappa * b) / (d * d);
        g * (-self.exponent(b)).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{classify, Curvature};

    #[test]
    fn boundary_values() {
        let u = AdaptiveExp::paper();
        assert_eq!(u.value(0.0), 0.0);
        assert!(u.value(1000.0) > 1.0 - 1e-12);
    }

    #[test]
    fn small_b_quadratic_asymptote() {
        // Paper: for small b, π(b) ≈ b²/κ.
        let u = AdaptiveExp::paper();
        for b in [1e-3, 1e-4] {
            let approx = b * b / u.kappa;
            assert!((u.value(b) - approx).abs() < approx * 1e-2, "b={b}");
        }
    }

    #[test]
    fn large_b_exponential_asymptote() {
        // Paper: for large b, π(b) ≈ 1 − e^{−b} (the exponent → b − κ ... →
        // b asymptotically). Check the ratio of the tails.
        let u = AdaptiveExp::paper();
        let b = 10.0;
        let tail = 1.0 - u.value(b);
        let want = (-(b * b) / (u.kappa + b)).exp();
        assert!((tail - want).abs() < 1e-12 * want.max(1e-30), "tail {tail} vs {want}");
        // And the exponent approaches b − κ for large b.
        let b = 40.0;
        assert!((u.exponent(b) - (b - u.kappa)).abs() < 0.02);
    }

    #[test]
    fn classified_inelastic() {
        assert_eq!(classify(&AdaptiveExp::paper()), Curvature::ConvexAtOrigin);
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let u = AdaptiveExp::paper();
        for b in [0.05, 0.3, 1.0, 2.5, 10.0] {
            let fd = (u.value(b + 1e-7) - u.value(b - 1e-7)) / 2e-7;
            assert!((u.derivative(b) - fd).abs() < 1e-6, "b={b}");
        }
    }

    #[test]
    fn monotone_nondecreasing() {
        let u = AdaptiveExp::paper();
        let mut prev = -1.0;
        for i in 0..=4000 {
            let b = f64::from(i) * 0.005;
            let v = u.value(b);
            assert!(v >= prev);
            prev = v;
        }
    }
}
