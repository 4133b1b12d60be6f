//! Numerical quadrature.
//!
//! The continuum variable-load model (paper §3.2) evaluates
//! `V(C) = ∫ P(k)·(admitted share utility) dk` over `[0, ∞)` for load
//! densities with exponential or power-law tails. Three routines cover the
//! cases that arise:
//!
//! * [`integrate`] — adaptive Simpson on a finite interval with smooth
//!   integrands (the bounded part of every continuum integral);
//! * [`tanh_sinh`] — double-exponential quadrature on a finite interval,
//!   robust to integrable endpoint singularities (the `v^{z−3}` factors that
//!   appear when power-law tails are mapped to `[0, 1]`);
//! * [`integrate_to_inf`] — semi-infinite integrals via the substitution
//!   `x = a + t/(1−t)`, delegating to [`tanh_sinh`] so that slowly decaying
//!   tails (which become endpoint singularities after the substitution) are
//!   still handled accurately.
//!
//! [`gauss_legendre`] is the odd one out: a *fixed* composite rule with no
//! error estimate, for hot callers that integrate one known smooth shape
//! many times and need a fixed evaluation count and a fixed result bit
//! pattern (the discrete model's algebraic tail).

use crate::error::{NumError, NumResult};

/// Adaptive Simpson quadrature of `f` on `[a, b]` to absolute tolerance
/// `tol`.
///
/// Classic recursive bisection with the Richardson error estimate
/// `|S_left + S_right − S_whole| / 15`. Suitable for smooth integrands; for
/// endpoint singularities use [`tanh_sinh`].
///
/// # Errors
///
/// [`NumError::NonFinite`] if the integrand returns NaN/∞ at an evaluation
/// point, [`NumError::MaxIterations`] if the recursion depth limit (60) is
/// hit, which indicates a non-integrable feature.
pub fn integrate(mut f: impl FnMut(f64) -> f64, a: f64, b: f64, tol: f64) -> NumResult<f64> {
    if a == b {
        return Ok(0.0);
    }
    if !(tol > 0.0) {
        return Err(NumError::InvalidInput { what: "integrate requires tol > 0" });
    }
    // Fault-injection site: a `numerr:num/quad/integrate` rule forces the
    // non-convergence path callers must degrade through.
    if bevra_faults::forced_numerr("num/quad/integrate", a.to_bits() ^ b.to_bits()) {
        return Err(NumError::MaxIterations { what: "adaptive simpson (fault-injected)", iterations: 0 });
    }
    let fa = eval(&mut f, a)?;
    let fb = eval(&mut f, b)?;
    let m = 0.5 * (a + b);
    let fm = eval(&mut f, m)?;
    let whole = simpson(a, b, fa, fm, fb);
    adaptive(&mut f, a, b, fa, fm, fb, whole, tol, 60)
}

fn eval(f: &mut impl FnMut(f64) -> f64, x: f64) -> NumResult<f64> {
    let v = f(x);
    if v.is_finite() {
        Ok(v)
    } else {
        Err(NumError::NonFinite { what: "integrand", at: x })
    }
}

fn simpson(a: f64, b: f64, fa: f64, fm: f64, fb: f64) -> f64 {
    (b - a) / 6.0 * (fa + 4.0 * fm + fb)
}

#[allow(clippy::too_many_arguments)]
fn adaptive(
    f: &mut impl FnMut(f64) -> f64,
    a: f64,
    b: f64,
    fa: f64,
    fm: f64,
    fb: f64,
    whole: f64,
    tol: f64,
    depth: usize,
) -> NumResult<f64> {
    let m = 0.5 * (a + b);
    let lm = 0.5 * (a + m);
    let rm = 0.5 * (m + b);
    let flm = eval(f, lm)?;
    let frm = eval(f, rm)?;
    let left = simpson(a, m, fa, flm, fm);
    let right = simpson(m, b, fm, frm, fb);
    let delta = left + right - whole;
    if delta.abs() <= 15.0 * tol {
        // Richardson extrapolation: the composite estimate plus the
        // extrapolated error term gives an O(h^6) result.
        return Ok(left + right + delta / 15.0);
    }
    if depth == 0 {
        return Err(NumError::MaxIterations { what: "adaptive simpson", iterations: 60 });
    }
    let l = adaptive(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)?;
    let r = adaptive(f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1)?;
    Ok(l + r)
}

/// Tanh-sinh (double-exponential) quadrature of `f` on `(a, b)`.
///
/// The substitution `x = mid + half·tanh(π/2·sinh t)` clusters nodes
/// double-exponentially toward the endpoints, so integrable endpoint
/// singularities (e.g. `x^{−1/2}`) are integrated to near machine precision
/// without ever evaluating `f` exactly at the endpoints. Levels are doubled
/// until two successive refinements agree to `tol`.
///
/// `f` receives the plain abscissa; if your integrand is singular at an
/// endpoint and needs the endpoint distance at full precision (e.g.
/// `1/√(b−x)` where `b − x` underflows), use [`tanh_sinh_xc`].
///
/// # Errors
///
/// [`NumError::MaxIterations`] if 12 refinement levels do not reach `tol`,
/// [`NumError::NonFinite`] on NaN integrand values (infinities at interior
/// points are treated as errors; endpoint blowups are avoided by
/// construction).
pub fn tanh_sinh(mut f: impl FnMut(f64) -> f64, a: f64, b: f64, tol: f64) -> NumResult<f64> {
    tanh_sinh_xc(|x, _| f(x), a, b, tol)
}

/// Tanh-sinh quadrature with endpoint-distance information, `f(x, xc)`.
///
/// `xc` is the signed distance to the *nearest* endpoint, computed without
/// cancellation: `xc = x − a > 0` when the node lies in the left half of the
/// interval and `xc = x − b < 0` in the right half. An integrand singular at
/// `b` should evaluate itself from `−xc` rather than recomputing `b − x`,
/// which loses all precision once the node is within machine epsilon of `b`.
/// This mirrors the design of Boost.Math's `tanh_sinh` integrator.
///
/// # Errors
///
/// As [`tanh_sinh`].
pub fn tanh_sinh_xc(
    mut f: impl FnMut(f64, f64) -> f64,
    a: f64,
    b: f64,
    tol: f64,
) -> NumResult<f64> {
    if a == b {
        return Ok(0.0);
    }
    if !(tol > 0.0) {
        return Err(NumError::InvalidInput { what: "tanh_sinh requires tol > 0" });
    }
    // Fault-injection site, mirroring `integrate`.
    if bevra_faults::forced_numerr("num/quad/tanh_sinh", a.to_bits() ^ b.to_bits()) {
        return Err(NumError::MaxIterations { what: "tanh_sinh (fault-injected)", iterations: 0 });
    }
    let half = 0.5 * (b - a);
    // Transformed integrand including the Jacobian. Node offsets from the
    // nearest endpoint use `1 ± tanh(u) = e^{±u}/cosh(u)`, which keeps full
    // relative precision however close the node is to the endpoint.
    let mut g = |t: f64| -> NumResult<f64> {
        let u = std::f64::consts::FRAC_PI_2 * t.sinh();
        // cosh(u) can overflow for |t| beyond ~3.5; the weight underflows to
        // zero there, so treat those nodes as negligible.
        let cosh_u = u.cosh();
        let w = std::f64::consts::FRAC_PI_2 * t.cosh() / (cosh_u * cosh_u);
        if !w.is_finite() || w == 0.0 {
            return Ok(0.0);
        }
        let (x, xc) = if u < 0.0 {
            // Distance from a: half·(1 + tanh u) = half·e^u / cosh u.
            let d = half * u.exp() / cosh_u;
            (a + d, d)
        } else {
            // Distance from b: half·(1 − tanh u) = half·e^{−u} / cosh u.
            let d = half * (-u).exp() / cosh_u;
            (b - d, -d)
        };
        if xc == 0.0 {
            // Offset underflowed entirely (|u| ≳ 700); weight is negligible.
            return Ok(0.0);
        }
        let v = f(x, xc);
        if v.is_finite() {
            Ok(half * w * v)
        } else {
            Err(NumError::NonFinite { what: "tanh_sinh integrand", at: x })
        }
    };
    // t beyond ±4 contributes below f64 resolution for any integrable f.
    const T_MAX: f64 = 4.0;
    let mut h = 1.0;
    let mut sum = g(0.0)?;
    // Level 0: nodes at multiples of h = 1.
    let mut k = 1;
    loop {
        let t = h * k as f64;
        if t > T_MAX {
            break;
        }
        sum += g(t)? + g(-t)?;
        k += 1;
    }
    let mut estimate = h * sum;
    const MAX_LEVEL: usize = 12;
    for _level in 1..=MAX_LEVEL {
        h *= 0.5;
        // Add the new midpoints (odd multiples of the new h).
        let mut new_sum = 0.0;
        let mut j = 1;
        loop {
            let t = h * j as f64;
            if t > T_MAX {
                break;
            }
            new_sum += g(t)? + g(-t)?;
            j += 2;
        }
        sum += new_sum;
        let new_estimate = h * sum;
        let err = (new_estimate - estimate).abs();
        estimate = new_estimate;
        if err <= tol * (1.0 + estimate.abs()) {
            return Ok(estimate);
        }
    }
    Err(NumError::MaxIterations { what: "tanh_sinh", iterations: MAX_LEVEL })
}

/// Integral of `f` over `[a, ∞)` to tolerance `tol`.
///
/// Uses the substitution `x = a + t/(1 − t)` mapping `[0, 1) → [a, ∞)` with
/// Jacobian `1/(1 − t)²`, then [`tanh_sinh`] on `[0, 1]`. A power-law tail
/// `f ~ x^{−s}` becomes `(1 − t)^{s−2}` near `t = 1`: integrable whenever the
/// original integral converges (`s > 1`), and handled by the
/// double-exponential node clustering even for `1 < s < 2` where it is a
/// genuine singularity.
///
/// # Errors
///
/// Propagates [`tanh_sinh`] failures; a divergent integral surfaces as
/// `MaxIterations` or `NonFinite`.
pub fn integrate_to_inf(mut f: impl FnMut(f64) -> f64, a: f64, tol: f64) -> NumResult<f64> {
    tanh_sinh_xc(
        |t, xc| {
            // Near t = 1 the distance 1 − t must come from the integrator's
            // cancellation-free offset, not from recomputing 1 − t.
            let om = if xc < 0.0 { -xc } else { 1.0 - t };
            let x = a + t / om;
            f(x) / (om * om)
        },
        0.0,
        1.0,
        tol,
    )
}

/// Positive abscissae and weights of the 16-point Gauss–Legendre rule on
/// `[−1, 1]` (the rule is symmetric; each pair serves `±x`).
const GL16: [(f64, f64); 8] = [
    (0.095_012_509_837_637_44, 0.189_450_610_455_068_5),
    (0.281_603_550_779_258_9, 0.182_603_415_044_923_58),
    (0.458_016_777_657_227_37, 0.169_156_519_395_002_54),
    (0.617_876_244_402_643_8, 0.149_595_988_816_576_74),
    (0.755_404_408_355_003, 0.124_628_971_255_533_88),
    (0.865_631_202_387_831_8, 0.095_158_511_682_492_79),
    (0.944_575_023_073_232_6, 0.062_253_523_938_647_894),
    (0.989_400_934_991_649_9, 0.027_152_459_411_754_096),
];

/// Composite 16-point Gauss–Legendre quadrature of `f` on `[a, b]` over
/// `panels` equal panels: exactly `16·panels` evaluations, summed in a
/// fixed order, so the same inputs give the same bits on every call.
///
/// Exact for polynomials of degree ≤ 31 on each panel and geometrically
/// convergent for analytic integrands; there is no error estimate, so use
/// it only where the integrand's smoothness is known (otherwise prefer
/// [`integrate`]).
pub fn gauss_legendre(mut f: impl FnMut(f64) -> f64, a: f64, b: f64, panels: usize) -> f64 {
    let width = (b - a) / panels as f64;
    let half = 0.5 * width;
    let mut total = 0.0;
    for p in 0..panels {
        let mid = a + (p as f64 + 0.5) * width;
        let mut panel = 0.0;
        for &(x, w) in &GL16 {
            panel += w * (f(mid - half * x) + f(mid + half * x));
        }
        total += half * panel;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauss_legendre_integrates_polynomials_and_smooth_tails() {
        // Degree 31 is exact on one panel; the weights sum to the width.
        assert!((gauss_legendre(|_| 1.0, -1.0, 1.0, 1) - 2.0).abs() < 1e-15);
        let v = gauss_legendre(|x| x.powi(30), 0.0, 1.0, 1);
        assert!((v - 1.0 / 31.0).abs() < 1e-15, "got {v}");
        // A power-law tail in u = ln x, the shape the discrete model's
        // algebraic tail integrates: ∫ e^{-2u} du over [ln 10, ln 1000].
        let (a, b) = (10f64.ln(), 1000f64.ln());
        let v = gauss_legendre(|u| (-2.0 * u).exp(), a, b, 4);
        let want = 0.5 * (1e-2 - 1e-6);
        assert!((v - want).abs() < 1e-16, "got {v}");
    }

    #[test]
    fn simpson_polynomial_is_nearly_exact() {
        let v = integrate(|x| 3.0 * x * x, 0.0, 2.0, 1e-12).unwrap();
        assert!((v - 8.0).abs() < 1e-10);
    }

    #[test]
    fn simpson_exponential() {
        let v = integrate(|x| (-x).exp(), 0.0, 10.0, 1e-12).unwrap();
        assert!((v - (1.0 - (-10.0f64).exp())).abs() < 1e-10);
    }

    #[test]
    fn simpson_zero_width() {
        assert_eq!(integrate(|x| x, 3.0, 3.0, 1e-12).unwrap(), 0.0);
    }

    #[test]
    fn tanh_sinh_smooth() {
        let v = tanh_sinh(|x| x.sin(), 0.0, std::f64::consts::PI, 1e-12).unwrap();
        assert!((v - 2.0).abs() < 1e-10);
    }

    #[test]
    fn tanh_sinh_endpoint_singularity() {
        // ∫₀¹ x^{-1/2} dx = 2, singular at 0.
        let v = tanh_sinh(|x| 1.0 / x.sqrt(), 0.0, 1.0, 1e-12).unwrap();
        assert!((v - 2.0).abs() < 1e-9, "got {v}");
    }

    #[test]
    fn tanh_sinh_both_endpoints_singular() {
        // ∫₀¹ 1/√(x(1-x)) dx = π. The 1−x factor must be computed from the
        // integrator's endpoint distance or the right-hand singular mass is
        // lost to rounding.
        let v = tanh_sinh_xc(
            |x, xc| {
                let (xa, xb) = if xc > 0.0 { (xc, 1.0 - x) } else { (x, -xc) };
                1.0 / (xa * xb).sqrt()
            },
            0.0,
            1.0,
            1e-12,
        )
        .unwrap();
        assert!((v - std::f64::consts::PI).abs() < 1e-10, "got {v}");
    }

    #[test]
    fn tanh_sinh_xc_signs_match_halves() {
        // xc is positive in the left half, negative in the right half, and
        // consistent with x.
        let v = tanh_sinh_xc(
            |x, xc| {
                if xc > 0.0 {
                    assert!(x <= 1.5 + 1e-12, "left-half node x={x}");
                    assert!((x - 1.0 - xc).abs() <= 1e-12 * (1.0 + x.abs()));
                } else {
                    assert!(x >= 1.5 - 1e-12, "right-half node x={x}");
                    assert!((x - 2.0 - xc).abs() <= 1e-12 * (1.0 + x.abs()));
                }
                1.0
            },
            1.0,
            2.0,
            1e-12,
        )
        .unwrap();
        assert!((v - 1.0).abs() < 1e-12);
    }

    #[test]
    fn semi_infinite_exponential_tail() {
        let v = integrate_to_inf(|x| (-x).exp(), 0.0, 1e-12).unwrap();
        assert!((v - 1.0).abs() < 1e-10, "got {v}");
    }

    #[test]
    fn semi_infinite_power_law_tail() {
        // ∫₁^∞ x^{-3} dx = 1/2.
        let v = integrate_to_inf(|x| x.powi(-3), 1.0, 1e-12).unwrap();
        assert!((v - 0.5).abs() < 1e-9, "got {v}");
    }

    #[test]
    fn semi_infinite_slow_power_law() {
        // ∫₁^∞ x^{-1.5} dx = 2: exponent in (1, 2) ⇒ transformed endpoint
        // singularity, the case tanh-sinh exists for.
        let v = integrate_to_inf(|x| x.powf(-1.5), 1.0, 1e-11).unwrap();
        assert!((v - 2.0).abs() < 1e-7, "got {v}");
    }

    #[test]
    fn semi_infinite_paper_mean_integral() {
        // Mean of the continuum algebraic load: ∫₁^∞ k (z-1) k^{-z} dk
        // = (z-1)/(z-2); z = 3 gives 2.
        let z = 3.0;
        let v = integrate_to_inf(|k| k * (z - 1.0) * k.powf(-z), 1.0, 1e-11).unwrap();
        assert!((v - 2.0).abs() < 1e-8, "got {v}");
    }

    #[test]
    fn nonfinite_integrand_is_reported() {
        let err = integrate(|x| 1.0 / (x - 0.5), 0.0, 1.0, 1e-10);
        assert!(err.is_err());
    }
}
