//! The [`Utility`] trait and curvature classification.

/// Utility (performance) of an application as a function of the bandwidth
/// share it receives.
///
/// Contract (paper §2): `value(0) = 0`, `value` is nondecreasing, and
/// `value(b) → 1` as `b → ∞`. Implementations are immutable value types so
/// they can be shared freely across models, threads, and the simulator.
pub trait Utility: Send + Sync {
    /// `π(b)`: performance at per-flow bandwidth `b ≥ 0`.
    fn value(&self, b: f64) -> f64;

    /// Short stable name used in reports and figure legends.
    fn name(&self) -> &'static str;

    /// `π′(b)`. The default is a symmetric finite difference; families with
    /// cheap analytic derivatives override it.
    fn derivative(&self, b: f64) -> f64 {
        let h = 1e-6 * (1.0 + b.abs());
        let lo = (b - h).max(0.0);
        (self.value(b + h) - self.value(lo)) / (b + h - lo)
    }

    /// Bandwidths at which `π` is non-smooth (steps or slope breaks).
    /// Quadrature-based evaluators split their integrals at the
    /// corresponding load levels so piecewise utilities stay cheap and
    /// accurate. Smooth families return the default empty list.
    fn knots(&self) -> Vec<f64> {
        Vec::new()
    }
}

/// Blanket impl so `&U`, `Box<U>`, `Arc<U>` can be used wherever a utility
/// is expected.
impl<U: Utility + ?Sized> Utility for &U {
    fn value(&self, b: f64) -> f64 {
        (**self).value(b)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn derivative(&self, b: f64) -> f64 {
        (**self).derivative(b)
    }
    fn knots(&self) -> Vec<f64> {
        (**self).knots()
    }
}

impl<U: Utility + ?Sized> Utility for std::sync::Arc<U> {
    fn value(&self, b: f64) -> f64 {
        (**self).value(b)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn derivative(&self, b: f64) -> f64 {
        (**self).derivative(b)
    }
    fn knots(&self) -> Vec<f64> {
        (**self).knots()
    }
}

/// Curvature class of a utility function near the origin, which determines
/// the architecture verdict of the fixed-load model (§2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Curvature {
    /// Strictly concave near the origin: `V(k)` is increasing, admission
    /// control never helps (the paper's *elastic* applications).
    ConcaveAtOrigin,
    /// Convex (but not linear) in a neighborhood of the origin: `V(k)` has a
    /// finite peak `k_max`, reservations raise total utility (*inelastic*).
    ConvexAtOrigin,
    /// Numerically indistinguishable from linear at the probe scale.
    Indeterminate,
}

/// Classify the curvature of `π` near the origin by probing the second
/// difference `π(2h) − 2π(h) + π(0)` across several scales `h`.
///
/// A positive second difference at every probe scale ⇒ convex near origin
/// (inelastic); negative at every scale ⇒ concave (elastic); anything mixed
/// or below noise ⇒ [`Curvature::Indeterminate`].
pub fn classify(u: &dyn Utility) -> Curvature {
    let mut sign = 0i32;
    for &h in &[1e-3, 3e-3, 1e-2, 3e-2, 1e-1] {
        let d2 = u.value(2.0 * h) - 2.0 * u.value(h) + u.value(0.0);
        let s = if d2 > 1e-14 {
            1
        } else if d2 < -1e-14 {
            -1
        } else {
            0
        };
        if s == 0 {
            continue;
        }
        if sign == 0 {
            sign = s;
        } else if sign != s {
            return Curvature::Indeterminate;
        }
    }
    match sign {
        1 => Curvature::ConvexAtOrigin,
        -1 => Curvature::ConcaveAtOrigin,
        _ => Curvature::Indeterminate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Quad;
    impl Utility for Quad {
        fn value(&self, b: f64) -> f64 {
            let b = b.max(0.0);
            (b * b).min(1.0)
        }
        fn name(&self) -> &'static str {
            "quad"
        }
    }

    struct Conc;
    impl Utility for Conc {
        fn value(&self, b: f64) -> f64 {
            b.max(0.0) / (1.0 + b.max(0.0))
        }
        fn name(&self) -> &'static str {
            "conc"
        }
    }

    #[test]
    fn classify_convex_and_concave() {
        assert_eq!(classify(&Quad), Curvature::ConvexAtOrigin);
        assert_eq!(classify(&Conc), Curvature::ConcaveAtOrigin);
    }

    #[test]
    fn default_derivative_matches_analytic() {
        // d/db [b/(1+b)] = 1/(1+b)^2.
        let u = Conc;
        for b in [0.1, 0.5, 1.0, 4.0] {
            let got = u.derivative(b);
            let want = 1.0 / ((1.0 + b) * (1.0 + b));
            assert!((got - want).abs() < 1e-5, "b={b}: {got} vs {want}");
        }
    }

    #[test]
    fn references_implement_utility() {
        fn takes_utility(u: impl Utility) -> f64 {
            u.value(1.0)
        }
        let u = Conc;
        assert_eq!(takes_utility(&u), 0.5);
        let arc: std::sync::Arc<dyn Utility> = std::sync::Arc::new(Conc);
        assert_eq!(takes_utility(arc), 0.5);
    }
}
