//! Arrival processes: modulated Poisson streams whose stationary occupancy
//! reproduces the paper's three load families.

use crate::draws::Draw;
use bevra_load::{BoundedPareto, ExpSampler};

/// How the instantaneous arrival rate is drawn at each modulation epoch.
///
/// With exponential holding times of mean `1/μ`, occupancy conditional on
/// rate `λ` is Poisson(`λ/μ`); mixing over `λ` gives:
///
/// * [`RateMixing::Fixed`] — plain Poisson occupancy (paper's Poisson
///   load);
/// * [`RateMixing::Exponential`] — exponentially-mixed Poisson, i.e. a
///   geometric occupancy (paper's "exponential" load);
/// * [`RateMixing::Pareto`] — Pareto-mixed Poisson: occupancy with a
///   power-law tail of the same exponent (paper's "algebraic" load).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RateMixing {
    /// Constant rate.
    Fixed,
    /// Rate ~ Exponential with the configured mean.
    Exponential,
    /// Rate ~ `mean-scaled` bounded Pareto with tail exponent `z` and cap
    /// ratio `cap` (relative to the lower support point).
    Pareto {
        /// Tail exponent (matches the target occupancy tail).
        z: f64,
        /// Upper truncation, as a multiple of the Pareto lower bound.
        cap: f64,
    },
}

/// Poisson arrivals whose rate is re-drawn from a mixing distribution at
/// exponentially distributed modulation epochs.
///
/// The modulation sojourn should be long compared to holding times so the
/// occupancy tracks the conditional Poisson equilibrium at each rate — that
/// separation is what makes the mixed-Poisson correspondence sharp.
#[derive(Debug, Clone)]
pub struct MixedPoisson {
    mean_rate: f64,
    mixing: RateMixing,
    sojourn: ExpSampler,
    current_rate: f64,
}

impl MixedPoisson {
    /// New process with long-run mean rate `mean_rate` and modulation
    /// sojourns of mean `sojourn_mean`.
    ///
    /// # Panics
    ///
    /// Panics unless rates and sojourns are positive and finite.
    #[must_use]
    pub fn new(mean_rate: f64, mixing: RateMixing, sojourn_mean: f64) -> Self {
        assert!(mean_rate > 0.0 && mean_rate.is_finite(), "mean rate must be positive");
        assert!(sojourn_mean > 0.0 && sojourn_mean.is_finite(), "sojourn mean must be positive");
        Self {
            mean_rate,
            mixing,
            sojourn: ExpSampler::new(1.0 / sojourn_mean),
            current_rate: mean_rate,
        }
    }

    /// Plain Poisson arrivals (no modulation).
    #[must_use]
    pub fn fixed(rate: f64) -> Self {
        Self::new(rate, RateMixing::Fixed, f64::MAX / 4.0)
    }

    /// The long-run mean arrival rate.
    #[must_use]
    pub fn mean_rate(&self) -> f64 {
        self.mean_rate
    }

    /// The rate currently in force.
    #[must_use]
    pub fn current_rate(&self) -> f64 {
        self.current_rate
    }

    /// Draw the time until the next arrival at the current rate.
    pub fn next_interarrival<D: Draw + ?Sized>(&self, draws: &mut D) -> f64 {
        if self.current_rate <= 0.0 {
            return f64::INFINITY;
        }
        draws.exp(ExpSampler::new(self.current_rate))
    }

    /// Draw the time until the next modulation switch.
    pub fn next_sojourn<D: Draw + ?Sized>(&self, draws: &mut D) -> f64 {
        match self.mixing {
            RateMixing::Fixed => f64::INFINITY,
            _ => draws.exp(self.sojourn),
        }
    }

    /// Fold the process's *configuration* — mean rate, mixing family and
    /// parameters, sojourn rate — into an FNV-1a accumulator. The runtime
    /// `current_rate` is deliberately excluded: two processes with equal
    /// configuration are interchangeable at run start, which is the
    /// identity the fleet checkpoint key needs.
    pub fn digest_into(&self, hash: &mut u64) {
        crate::stats::fnv_fold(hash, self.mean_rate.to_bits());
        match self.mixing {
            RateMixing::Fixed => crate::stats::fnv_fold(hash, 0),
            RateMixing::Exponential => crate::stats::fnv_fold(hash, 1),
            RateMixing::Pareto { z, cap } => {
                crate::stats::fnv_fold(hash, 2);
                crate::stats::fnv_fold(hash, z.to_bits());
                crate::stats::fnv_fold(hash, cap.to_bits());
            }
        }
        crate::stats::fnv_fold(hash, self.sojourn.rate.to_bits());
    }

    /// Re-draw the instantaneous rate from the mixing distribution.
    pub fn switch<D: Draw + ?Sized>(&mut self, draws: &mut D) {
        self.current_rate = match self.mixing {
            RateMixing::Fixed => self.mean_rate,
            RateMixing::Exponential => {
                // Exponential with mean `mean_rate`.
                draws.exp(ExpSampler::new(1.0 / self.mean_rate))
            }
            RateMixing::Pareto { z, cap } => {
                // Bounded Pareto on [1, cap] scaled so the long-run mean is
                // `mean_rate`.
                let bp = BoundedPareto::new(z, cap);
                let a = z - 1.0;
                // Mean of bounded Pareto on [1, cap]:
                // a/(a−1) · (1 − cap^{1−a})/(1 − cap^{−a}), for a ≠ 1.
                let mean_bp = if (a - 1.0).abs() < 1e-12 {
                    (cap.ln()) / (1.0 - 1.0 / cap)
                } else {
                    a / (a - 1.0) * (1.0 - cap.powf(1.0 - a)) / (1.0 - cap.powf(-a))
                };
                bp.at(draws.uniform()) * self.mean_rate / mean_bp
            }
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fixed_rate_never_switches() {
        let mut p = MixedPoisson::fixed(2.0);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(p.next_sojourn(&mut rng), f64::INFINITY);
        p.switch(&mut rng);
        assert_eq!(p.current_rate(), 2.0);
    }

    #[test]
    fn interarrivals_have_rate_mean() {
        let p = MixedPoisson::fixed(4.0);
        let mut rng = StdRng::seed_from_u64(2);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| p.next_interarrival(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn exponential_mixing_preserves_mean_rate() {
        let mut p = MixedPoisson::new(10.0, RateMixing::Exponential, 100.0);
        let mut rng = StdRng::seed_from_u64(3);
        let n = 200_000;
        let mut sum = 0.0;
        for _ in 0..n {
            p.switch(&mut rng);
            sum += p.current_rate();
        }
        let mean = sum / n as f64;
        assert!((mean - 10.0).abs() < 0.2, "mean rate {mean}");
    }

    #[test]
    fn pareto_mixing_preserves_mean_rate_and_is_heavy() {
        let mut p =
            MixedPoisson::new(10.0, RateMixing::Pareto { z: 2.5, cap: 1e4 }, 100.0);
        let mut rng = StdRng::seed_from_u64(4);
        let n = 400_000;
        let mut sum = 0.0;
        let mut exceed = 0u64;
        for _ in 0..n {
            p.switch(&mut rng);
            sum += p.current_rate();
            if p.current_rate() > 50.0 {
                exceed += 1;
            }
        }
        let mean = sum / n as f64;
        assert!((mean - 10.0).abs() < 0.5, "mean rate {mean}");
        // Power tail: P[rate > 5×mean] far exceeds the exponential analogue
        // e^{−5} ≈ 6.7e−3... for Pareto z=2.5 the 5x-exceed probability is
        // on the order of (x0/50)^{1.5}; just check it is substantial.
        let frac = exceed as f64 / n as f64;
        assert!(frac > 0.01, "tail fraction {frac}");
    }
}
