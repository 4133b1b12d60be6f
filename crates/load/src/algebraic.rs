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

/// Most `k^z` values a [`PowerTable`] keeps (8 MiB); terms past it compute
/// `k^z` in place, so a huge horizon costs time, never memory.
const POWERS_CAP: u64 = 1 << 20;

/// `k^z` for `k = 1, 2, …` at one tail exponent `z`, grown on demand to the
/// longest summation horizon it has served (at most 2²⁰ values; terms past
/// that compute `k^z` in place). Calibrations that share one table compute
/// each `k^z` once; the table carries its `z`, so it cannot serve another
/// exponent.
#[derive(Debug)]
pub struct PowerTable {
    z: f64,
    powers: Vec<f64>,
}

impl PowerTable {
    /// An empty table for tail exponent `z`.
    #[must_use]
    pub fn new(z: f64) -> Self {
        Self { z, powers: Vec::new() }
    }
}

/// Raw sums `(S₀(λ), S₁(λ))`, `S_m(λ) = Σ_{k≥1} k^m / (λ + k^z)`, in one
/// pass, with `k^z` read from `table`, extended here to this `λ`'s horizon.
/// A longer table is read only up to the horizon, so the sums do not depend
/// on what the table served before. Each term and each Neumaier accumulator
/// sees the same operations in the same order as two separate per-`m`
/// passes would.
fn raw_sums(lambda: f64, table: &mut PowerTable) -> NumResult<(f64, f64)> {
    let z = table.z;
    let horizon = EXPLICIT_HORIZON.max((8.0 * lambda.powf(1.0 / z)).ceil() as u64);
    let powers = &mut table.powers;
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
        Self::with_powers(lambda, &mut PowerTable::new(z))
    }

    /// [`Algebraic::with_params`] at the table's `z`, over its `k^z` values.
    fn with_powers(lambda: f64, table: &mut PowerTable) -> NumResult<Self> {
        let z = table.z;
        if !(z > 2.0) {
            return Err(NumError::InvalidInput { what: "algebraic load requires z > 2" });
        }
        if !(lambda >= 0.0) {
            return Err(NumError::InvalidInput { what: "lambda must be nonnegative" });
        }
        let (s0, s1) = raw_sums(lambda, table)?;
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
        Self::from_mean_with(&mut PowerTable::new(z), mean)
    }

    /// [`Algebraic::from_mean`] at the table's `z`, reading and extending
    /// its `k^z` values: bitwise the same model, whatever the table served
    /// before. A caller that calibrates many means at one `z` (a load
    /// family) keeps one table, so each `k^z` is computed once.
    ///
    /// # Errors
    ///
    /// As [`Algebraic::from_mean`].
    pub fn from_mean_with(table: &mut PowerTable, mean: f64) -> NumResult<Self> {
        let at_zero = Self::with_powers(0.0, table)?;
        if mean < at_zero.mean {
            return Err(NumError::InvalidInput {
                what: "target mean below the lambda = 0 minimum of the algebraic family",
            });
        }
        if (mean - at_zero.mean).abs() < 1e-12 * mean {
            return Ok(at_zero);
        }
        let z = table.z;
        // Every λ evaluated so far, keyed by its bits: Brent starts at
        // λ = 0 and at the last bracketing probe, and returns a point it
        // evaluated, so each λ is summed once.
        let mut evaluated = vec![(0.0_f64.to_bits(), at_zero)];
        let mut at = |lambda: f64| -> NumResult<Self> {
            if let Some(&(_, a)) = evaluated.iter().find(|(bits, _)| *bits == lambda.to_bits()) {
                return Ok(a);
            }
            let a = Self::with_powers(lambda, table)?;
            evaluated.push((lambda.to_bits(), a));
            Ok(a)
        };
        let mut mean_err = |lambda: f64| -> f64 {
            // Errors inside the closure surface as NaN and abort the solver.
            match at(lambda) {
                Ok(a) => a.mean - mean,
                Err(_) => f64::NAN,
            }
        };
        // Mean scales like λ^{1/z} for large λ; bracket by doubling.
        let mut hi = mean.powf(z).max(1.0);
        for _ in 0..60 {
            if mean_err(hi) > 0.0 {
                break;
            }
            hi *= 4.0;
        }
        let lambda = brent(&mut mean_err, 0.0, hi, 1e-9 * hi.max(1.0))?;
        at(lambda)
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
        let check = |a: Algebraic, (z, mean, bits): (f64, f64, [u64; 3])| {
            let got = [a.lambda.to_bits(), a.mean().to_bits(), a.pmf(1).to_bits()];
            assert_eq!(got, bits, "z = {z}, mean = {mean}: {got:#018X?}");
        };
        for pin @ (z, mean, _) in pins {
            check(Algebraic::from_mean(z, mean).unwrap(), pin);
        }
        // The z = 3 pins again through one shared k^z table, largest mean
        // first: its horizon is the longest, so the table is extended once
        // and the smaller means read a prefix of it.
        let mut table = PowerTable::new(3.0);
        let mut extended = None;
        for pin @ (_, mean, _) in pins.into_iter().filter(|&(z, ..)| z == 3.0).rev() {
            check(Algebraic::from_mean_with(&mut table, mean).unwrap(), pin);
            let len = *extended.get_or_insert(table.powers.len());
            assert_eq!(table.powers.len(), len, "mean = {mean} extended the table");
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
