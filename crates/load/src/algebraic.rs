//! Algebraic (power-law) offered load (paper §3.1).

use crate::tabulated::PowerLawTail;
use crate::traits::LoadModel;
use bevra_num::{brent, integrate_to_inf, NeumaierSum, NumError, NumResult};

/// The paper's algebraic load: `P(k) = A / (λ + k^z)` for `k ≥ 1`.
///
/// Like the exponential distribution it decreases over its whole range, but
/// "here the decrease is much slower" — a power-law tail `P(k) ~ A·k^{−z}`.
/// The paper deliberately uses *two* parameters: `λ` shifts mass so the mean
/// can be tuned while the asymptotic exponent `z` stays fixed, and `A`
/// normalizes. The mean exists only for `z > 2`, which is why the paper
/// restricts to that regime; the `z → 2⁺` limit is where reservations'
/// asymptotic advantage is conjectured maximal (`Δ(C) → (e−1)·C`).
///
/// Sums over the infinite support are evaluated as an explicit partial sum
/// plus a midpoint-rule (Euler–Maclaurin) tail integral, which keeps
/// calibration accurate even for `z` close to 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Algebraic {
    /// Tail exponent `z > 2`.
    pub z: f64,
    /// Shift parameter `λ ≥ 0`.
    pub lambda: f64,
    /// Normalization constant `A = 1/Σ 1/(λ + k^z)`.
    norm: f64,
    /// Mean `k̄` (cached at construction).
    mean: f64,
}

/// Explicit-summation horizon before switching to the integral tail.
/// Midpoint-rule error per term is `O(f″/24)`; at `k = 10⁴` and `z ≥ 2.1`
/// that is below 1e−14 relative, far under calibration needs.
const EXPLICIT_HORIZON: u64 = 10_000;

/// Most `k^z` values a [`raw_sums`] table keeps (8 MiB); terms past it
/// compute `k^z` in place, so a huge horizon costs time, never memory.
const POWERS_CAP: u64 = 1 << 20;

/// Raw sums `(S₀(λ), S₁(λ))`, `S_m(λ) = Σ_{k≥1} k^m / (λ + k^z)`, in one
/// pass. `powers` holds `k^z` for `k = 1, 2, …` and is extended here to
/// this `λ`'s horizon, so a calibration that passes one table to every `λ`
/// it tries computes each `k^z` once. Each term and each Neumaier
/// accumulator sees the same operations in the same order as two separate
/// per-`m` passes would.
fn raw_sums(z: f64, lambda: f64, powers: &mut Vec<f64>) -> NumResult<(f64, f64)> {
    let horizon = EXPLICIT_HORIZON.max((8.0 * lambda.powf(1.0 / z)).ceil() as u64);
    let have = powers.len() as u64;
    powers.extend((have + 1..=horizon.min(POWERS_CAP)).map(|k| (k as f64).powf(z)));
    let rest = (powers.len() as u64 + 1..=horizon).map(|k| (k as f64).powf(z));
    let (mut s0, mut s1) = (NeumaierSum::new(), NeumaierSum::new());
    for (k, kz) in (1..=horizon).zip(powers.iter().copied().chain(rest)) {
        let den = lambda + kz;
        s0.add(1.0 / den);
        s1.add(k as f64 / den);
    }
    // Midpoint rule: Σ_{k>K} f(k) ≈ ∫_{K+1/2}^∞ f(x) dx.
    let from = horizon as f64 + 0.5;
    let t0 = integrate_to_inf(|x| 1.0 / (lambda + x.powf(z)), from, 1e-12)?;
    let t1 = integrate_to_inf(|x| x / (lambda + x.powf(z)), from, 1e-12)?;
    Ok((s0.total() + t0, s1.total() + t1))
}

impl Algebraic {
    /// Construct from explicit `(z, λ)`, computing the normalization and
    /// mean.
    ///
    /// # Errors
    ///
    /// [`NumError::InvalidInput`] unless `z > 2` and `λ ≥ 0`; numeric errors
    /// from the tail integrals are propagated.
    pub fn with_params(z: f64, lambda: f64) -> NumResult<Self> {
        Self::with_powers(z, lambda, &mut Vec::new())
    }

    /// [`Algebraic::with_params`] over a shared `k^z` table (see
    /// [`raw_sums`]).
    fn with_powers(z: f64, lambda: f64, powers: &mut Vec<f64>) -> NumResult<Self> {
        if !(z > 2.0) {
            return Err(NumError::InvalidInput { what: "algebraic load requires z > 2" });
        }
        if !(lambda >= 0.0) {
            return Err(NumError::InvalidInput { what: "lambda must be nonnegative" });
        }
        let (s0, s1) = raw_sums(z, lambda, powers)?;
        Ok(Self { z, lambda, norm: 1.0 / s0, mean: s1 / s0 })
    }

    /// Calibrate `λ` so the mean equals `mean`, holding the tail exponent
    /// `z` fixed (the paper's parameterization).
    ///
    /// The mean is strictly increasing in `λ` (larger `λ` flattens the head
    /// of the distribution, pushing mass toward larger `k`), so a bracketed
    /// root-find on `λ` suffices. The smallest achievable mean is the
    /// `λ = 0` pure power law, `ζ(z−1)/ζ(z)`.
    ///
    /// # Errors
    ///
    /// [`NumError::InvalidInput`] if `mean` is below the `λ = 0` minimum;
    /// propagates solver failures otherwise.
    pub fn from_mean(z: f64, mean: f64) -> NumResult<Self> {
        // One k^z table serves every λ below: only the division by λ + k^z
        // changes between evaluations.
        let mut powers = Vec::new();
        let at_zero = Self::with_powers(z, 0.0, &mut powers)?;
        if mean < at_zero.mean {
            return Err(NumError::InvalidInput {
                what: "target mean below the lambda = 0 minimum of the algebraic family",
            });
        }
        if (mean - at_zero.mean).abs() < 1e-12 * mean {
            return Ok(at_zero);
        }
        // Mean scales like λ^{1/z} for large λ; bracket by doubling.
        let mut mean_err = |lambda: f64| -> f64 {
            // Errors inside the closure surface as NaN and abort the solver.
            match Self::with_powers(z, lambda, &mut powers) {
                Ok(a) => a.mean - mean,
                Err(_) => f64::NAN,
            }
        };
        let mut hi = mean.powf(z).max(1.0);
        for _ in 0..60 {
            if mean_err(hi) > 0.0 {
                break;
            }
            hi *= 4.0;
        }
        let lambda = brent(&mut mean_err, 0.0, hi, 1e-9 * hi.max(1.0))?;
        Self::with_powers(z, lambda, &mut powers)
    }
}

impl LoadModel for Algebraic {
    fn pmf(&self, k: u64) -> f64 {
        if k == 0 {
            return 0.0;
        }
        self.norm / (self.lambda + (k as f64).powf(self.z))
    }

    fn mean(&self) -> f64 {
        self.mean
    }

    fn support_min(&self) -> u64 {
        1
    }

    fn truncation_index(&self, tol: f64) -> u64 {
        // Tail mean beyond K: Σ_{k>K} A·k/(λ+k^z) ≤ A·K^{2−z}/(z−2) for K
        // past the head. Solve for K; heavy tails can demand enormous K, so
        // saturate and let `Tabulated` record the achieved bound.
        let budget = tol * self.mean.max(1.0);
        let k = (self.norm / ((self.z - 2.0) * budget)).powf(1.0 / (self.z - 2.0));
        if !k.is_finite() || k >= u64::MAX as f64 {
            u64::MAX
        } else {
            (k.ceil() as u64).max(self.support_min() + 1)
        }
    }

    fn name(&self) -> &'static str {
        "algebraic"
    }

    fn smooth_density(&self) -> Option<PowerLawTail> {
        Some(PowerLawTail { coef: self.norm, lambda: self.lambda, z: self.z })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_power_law_matches_zeta_ratio() {
        // λ = 0, z = 3: mean = ζ(2)/ζ(3) ≈ 1.3684.
        let a = Algebraic::with_params(3.0, 0.0).unwrap();
        let zeta2 = std::f64::consts::PI * std::f64::consts::PI / 6.0;
        let zeta3 = 1.202_056_903_159_594;
        assert!((a.mean() - zeta2 / zeta3).abs() < 1e-8, "mean {}", a.mean());
        // P(1)/P(2) = 2^z = 8.
        assert!((a.pmf(1) / a.pmf(2) - 8.0).abs() < 1e-10);
    }

    #[test]
    fn calibrated_to_paper_mean() {
        let a = Algebraic::from_mean(3.0, 100.0).unwrap();
        assert!((a.mean() - 100.0).abs() < 1e-5, "mean {}", a.mean());
        assert!(a.lambda > 0.0);
        // Tail exponent preserved: P(2k)/P(k) → 2^{−z} for large k.
        let r = a.pmf(200_000) / a.pmf(100_000);
        assert!((r - 0.125).abs() < 1e-6, "tail ratio {r}");
    }

    #[test]
    fn mass_sums_to_one_with_integral_tail() {
        let a = Algebraic::from_mean(3.0, 10.0).unwrap();
        let mut mass = 0.0;
        for k in 1..=2_000_000u64 {
            mass += a.pmf(k);
        }
        // Remaining analytic tail ≈ A·K^{1−z}/(z−1).
        let k = 2_000_000f64;
        mass += a.norm * k.powf(1.0 - a.z) / (a.z - 1.0);
        assert!((mass - 1.0).abs() < 1e-6, "mass {mass}");
    }

    #[test]
    fn heavier_tail_calibrates_too() {
        let a = Algebraic::from_mean(2.5, 20.0).unwrap();
        assert!((a.mean() - 20.0).abs() < 1e-4, "mean {}", a.mean());
    }

    #[test]
    fn calibration_bits_are_pinned() {
        // (z, mean) → bits of λ, mean() and pmf(1). fig4's table digest keys
        // the persistent cache, so a calibration speed-up must not move these.
        let pins: [(f64, f64, [u64; 3]); 4] = [
            (3.0, 100.0, [0x412E_23BF_680D_93F2, 0x4059_0000_0000_0117, 0x3F81_1406_186A_F4EE]),
            (3.0, 1077.0426, [0x41D2_9890_1B81_750B, 0x4090_D42B_9F56_364E, 0x3F49_2E08_FC96_A6A8]),
            (3.0, 10_000.0, [0x426D_19A8_083B_0CAB, 0x40C3_8800_0000_0039, 0x3F15_AE51_40A0_1360]),
            (2.5, 20.0, [0x407F_00E8_DBDC_8277, 0x4034_0000_0000_0AEF, 0x3FB0_AD1B_81EB_6BAD]),
        ];
        for (z, mean, bits) in pins {
            let a = Algebraic::from_mean(z, mean).unwrap();
            let got = [a.lambda.to_bits(), a.mean().to_bits(), a.pmf(1).to_bits()];
            assert_eq!(got, bits, "z = {z}, mean = {mean}: {got:#018X?}");
        }
    }

    #[test]
    fn z_at_most_two_rejected() {
        assert!(Algebraic::with_params(2.0, 1.0).is_err());
        assert!(Algebraic::from_mean(1.5, 10.0).is_err());
    }

    #[test]
    fn mean_below_minimum_rejected() {
        assert!(Algebraic::from_mean(3.0, 1.0).is_err());
    }

    #[test]
    fn truncation_index_scales_with_tolerance() {
        let a = Algebraic::from_mean(3.0, 10.0).unwrap();
        let loose = a.truncation_index(1e-3);
        let tight = a.truncation_index(1e-6);
        // For z = 3, K ~ 1/tol: three orders of magnitude looser tolerance
        // means ~1000x smaller table.
        let ratio = tight as f64 / loose as f64;
        assert!((ratio - 1000.0).abs() < 50.0, "ratio {ratio}");
    }
}
