//! Streaming statistics: Welford's online mean/variance.

use bevra_faults::Fnv1a;

/// Welford's single-pass mean and variance accumulator with a normal-theory
/// confidence half-width helper.
#[derive(Debug, Clone, Copy, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// New empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 for fewer than two observations).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Standard error of the mean.
    #[must_use]
    pub fn std_error(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            (self.variance() / self.n as f64).sqrt()
        }
    }

    /// Half-width of the ~95% confidence interval (1.96 standard errors;
    /// per-flow utilities are not i.i.d. — flows overlap in time — so treat
    /// this as an optimistic indication, not a guarantee).
    #[must_use]
    pub fn ci95(&self) -> f64 {
        1.96 * self.std_error()
    }

    /// Absorb another accumulator (Chan et al.'s parallel combination).
    ///
    /// The result depends on the *order* of merges — floating-point
    /// addition is not associative — so deterministic pipelines must merge
    /// in a fixed order (the fleet merges strictly by lane index, which is
    /// what makes `SimReport::digest` worker-count-invariant).
    pub fn merge(&mut self, other: &Self) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let total = n1 + n2;
        let delta = other.mean - self.mean;
        self.mean += delta * (n2 / total);
        self.m2 += other.m2 + delta * delta * (n1 * n2 / total);
        self.n += other.n;
    }

    /// Fold the accumulator's exact state (count and the bit patterns of
    /// mean and M₂) into an FNV-1a digest accumulator.
    pub fn digest_into(&self, hash: &mut Fnv1a) {
        hash.write_u64(self.n);
        hash.write_u64(self.mean.to_bits());
        hash.write_u64(self.m2.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_closed_form_on_small_set() {
        let mut w = Welford::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            w.add(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // Population variance 4; sample variance 4·8/7.
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_single() {
        let mut w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        w.add(3.0);
        assert_eq!(w.mean(), 3.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.ci95(), 0.0);
    }

    #[test]
    fn ci_shrinks_with_n() {
        let mut w = Welford::new();
        let mut x: u64 = 1;
        let mut widths = Vec::new();
        for i in 1..=10_000u64 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            w.add((x >> 11) as f64 / (1u64 << 53) as f64);
            if i == 100 || i == 10_000 {
                widths.push(w.ci95());
            }
        }
        assert!(widths[1] < widths[0] / 5.0, "CI must shrink ~1/√n: {widths:?}");
    }
}
