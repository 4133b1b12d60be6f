//! Elastic applications: strictly concave utility everywhere.
//!
//! Traditional data applications (mail, file transfer) tolerate delay and
//! extract diminishing returns from extra bandwidth, so `π` is strictly
//! concave and `V(k) = k·π(C/k)` is strictly increasing in `k` — the
//! best-effort architecture is ideal for them (paper §2). These families
//! serve as baselines and as the "elastic" case of the retrying footnote in
//! §5.1 (`π(b) = 1 − e^{−b}`).

use crate::traits::Utility;

/// `π(b) = 1 − e^{−r·b}`: the elastic exponential utility the paper mentions
/// explicitly (`r = 1` in its footnote).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExponentialElastic {
    /// Rate `r > 0`; larger means the application saturates faster.
    pub rate: f64,
}

impl ExponentialElastic {
    /// New elastic exponential utility with the given rate.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive.
    #[must_use]
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0, "elastic rate must be positive");
        Self { rate }
    }
}

impl Default for ExponentialElastic {
    fn default() -> Self {
        Self::new(1.0)
    }
}

impl Utility for ExponentialElastic {
    fn value(&self, b: f64) -> f64 {
        if b <= 0.0 {
            0.0
        } else {
            -(-self.rate * b).exp_m1()
        }
    }

    fn name(&self) -> &'static str {
        "elastic-exp"
    }

    fn derivative(&self, b: f64) -> f64 {
        if b < 0.0 {
            0.0
        } else {
            self.rate * (-self.rate * b).exp()
        }
    }
}

/// `π(b) = b / (s + b)`: a hyperbolic saturating utility, strictly concave,
/// approaching 1 algebraically rather than exponentially. Useful as an
/// elastic counterpart to the algebraic-tail inelastic families of §3.3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Saturating {
    /// Half-saturation point `s > 0`: `π(s) = 1/2`.
    pub scale: f64,
}

impl Saturating {
    /// New saturating utility with half-saturation `scale`.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not strictly positive.
    #[must_use]
    pub fn new(scale: f64) -> Self {
        assert!(scale > 0.0, "saturating scale must be positive");
        Self { scale }
    }
}

impl Default for Saturating {
    fn default() -> Self {
        Self::new(1.0)
    }
}

impl Utility for Saturating {
    fn value(&self, b: f64) -> f64 {
        if b <= 0.0 {
            0.0
        } else {
            b / (self.scale + b)
        }
    }

    fn name(&self) -> &'static str {
        "elastic-saturating"
    }

    fn derivative(&self, b: f64) -> f64 {
        if b < 0.0 {
            0.0
        } else {
            let d = self.scale + b;
            self.scale / (d * d)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{classify, Curvature};

    #[test]
    fn exponential_limits() {
        let u = ExponentialElastic::default();
        assert_eq!(u.value(0.0), 0.0);
        assert!((u.value(50.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn both_classify_concave() {
        assert_eq!(classify(&ExponentialElastic::default()), Curvature::ConcaveAtOrigin);
        assert_eq!(classify(&Saturating::default()), Curvature::ConcaveAtOrigin);
    }

    #[test]
    fn total_utility_increasing_in_k() {
        // The §2 result: for strictly concave π, V(k) = k·π(C/k) increases
        // with k, so admission control never helps.
        let u = ExponentialElastic::default();
        let c = 10.0;
        let mut prev = 0.0;
        for k in 1..200u32 {
            let v = f64::from(k) * u.value(c / f64::from(k));
            assert!(v > prev, "V must increase: k={k}");
            prev = v;
        }
    }

    #[test]
    fn derivatives_match_finite_difference() {
        for b in [0.1, 1.0, 3.0] {
            let u = ExponentialElastic::new(0.7);
            let fd = (u.value(b + 1e-7) - u.value(b - 1e-7)) / 2e-7;
            assert!((u.derivative(b) - fd).abs() < 1e-6);
            let s = Saturating::new(2.0);
            let fd = (s.value(b + 1e-7) - s.value(b - 1e-7)) / 2e-7;
            assert!((s.derivative(b) - fd).abs() < 1e-6);
        }
    }

    #[test]
    fn saturating_half_point() {
        let u = Saturating::new(3.0);
        assert!((u.value(3.0) - 0.5).abs() < 1e-15);
    }
}
