//! Compensated summation and infinite-series evaluation.
//!
//! The discrete variable-load model sums series like
//! `Σ_k P(k)·k·π(C/k)` whose terms first grow (Poisson mass climbing toward
//! the mean) and then decay. Two hazards matter: floating-point cancellation
//! when accumulating many small terms into a large sum, and premature
//! truncation before the mode of a unimodal term sequence. [`NeumaierSum`]
//! addresses the first, [`sum_series`] the second.

use crate::error::{NumError, NumResult};

/// Neumaier's improved Kahan–Babuška compensated accumulator.
///
/// Tracks a running compensation term so that the final sum has an error of
/// a few ULPs regardless of term ordering or magnitude disparity — important
/// when a Poisson tail of `~10⁻³⁰⁰` terms follows bulk terms of order one.
#[derive(Debug, Clone, Copy, Default)]
pub struct NeumaierSum {
    sum: f64,
    compensation: f64,
}

impl NeumaierSum {
    /// New accumulator starting at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one term.
    pub fn add(&mut self, value: f64) {
        let t = self.sum + value;
        if self.sum.abs() >= value.abs() {
            self.compensation += (self.sum - t) + value;
        } else {
            self.compensation += (value - t) + self.sum;
        }
        self.sum = t;
    }

    /// Current compensated total.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.sum + self.compensation
    }
}

impl FromIterator<f64> for NeumaierSum {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut acc = Self::new();
        for v in iter {
            acc.add(v);
        }
        acc
    }
}

/// Sum `Σ_{k=start}^{∞} term(k)` for a nonnegative term sequence that is
/// eventually decreasing (e.g. unimodal, like Poisson or geometric masses).
///
/// Terms are accumulated with compensation. Truncation happens only after
/// the sequence has been observed to decrease for `GUARD` consecutive terms
/// *and* the current term falls below `tail_tol · max(|sum|, 1)`; this
/// prevents stopping on the rising flank of a unimodal sequence or on an
/// incidental zero (e.g. a rigid utility that is zero until `k` crosses a
/// threshold).
///
/// # Errors
///
/// [`NumError::MaxIterations`] if `max_terms` terms do not suffice,
/// [`NumError::NonFinite`] if a term is NaN/∞.
pub fn sum_series(
    mut term: impl FnMut(u64) -> f64,
    start: u64,
    tail_tol: f64,
    max_terms: u64,
) -> NumResult<f64> {
    const GUARD: u32 = 8;
    let mut acc = NeumaierSum::new();
    let mut prev = f64::INFINITY;
    let mut decreasing_run = 0u32;
    let mut k = start;
    let mut count = 0u64;
    while count < max_terms {
        let t = term(k);
        if !t.is_finite() {
            return Err(NumError::NonFinite { what: "series term", at: k as f64 });
        }
        acc.add(t);
        if t < prev {
            decreasing_run += 1;
        } else {
            decreasing_run = 0;
        }
        let total = acc.total();
        if decreasing_run >= GUARD && t <= tail_tol * total.abs().max(1.0) {
            return Ok(total);
        }
        prev = t;
        k += 1;
        count += 1;
    }
    Err(NumError::MaxIterations { what: "sum_series", iterations: max_terms as usize })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neumaier_beats_naive_on_cancellation() {
        // 1 + 1e100 + 1 - 1e100 = 2 exactly with compensation, 0 naively.
        let mut acc = NeumaierSum::new();
        for v in [1.0, 1e100, 1.0, -1e100] {
            acc.add(v);
        }
        assert_eq!(acc.total(), 2.0);
    }

    #[test]
    fn neumaier_from_iterator() {
        let acc: NeumaierSum = (0..1000).map(|i| i as f64 * 0.001).collect();
        assert!((acc.total() - 499.5).abs() < 1e-9);
    }

    #[test]
    fn geometric_series_sums_to_closed_form() {
        let r: f64 = 0.9;
        let v = sum_series(|k| r.powi(k as i32), 0, 1e-16, 10_000).unwrap();
        assert!((v - 1.0 / (1.0 - r)).abs() < 1e-9, "got {v}");
    }

    #[test]
    fn unimodal_series_not_truncated_on_rise() {
        // Poisson(50) masses: rise until k = 50 then fall. The sum of all
        // masses is 1.
        let nu: f64 = 50.0;
        let v = sum_series(
            |k| {
                let lk = k as f64;
                (lk * nu.ln() - nu - crate::special::ln_gamma(lk + 1.0)).exp()
            },
            0,
            1e-16,
            10_000,
        )
        .unwrap();
        assert!((v - 1.0).abs() < 1e-10, "got {v}");
    }

    #[test]
    fn series_with_leading_zeros_survives() {
        // Zero until k = 20, then geometric: the guard prevents stopping on
        // the leading zeros alone... but a run of 8 equal zeros does not
        // count as decreasing, so we never stop early.
        let v = sum_series(|k| if k < 20 { 0.0 } else { 0.5f64.powi(k as i32 - 20) }, 0, 1e-15, 1000)
            .unwrap();
        assert!((v - 2.0).abs() < 1e-9, "got {v}");
    }

    #[test]
    fn max_terms_is_enforced() {
        let err = sum_series(|_| 1.0, 0, 1e-12, 100).unwrap_err();
        assert!(matches!(err, NumError::MaxIterations { .. }));
    }

    #[test]
    fn nan_term_is_reported() {
        let err = sum_series(|k| if k == 5 { f64::NAN } else { 0.5 }, 0, 1e-12, 100).unwrap_err();
        assert!(matches!(err, NumError::NonFinite { .. }));
    }
}
