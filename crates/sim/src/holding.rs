//! Flow holding-time distributions.

use crate::draws::Draw;
use bevra_load::{ExpSampler, ParetoSampler};

/// How long an admitted flow stays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HoldingDist {
    /// Exponential with the given mean — the M/M/∞ baseline whose occupancy
    /// correspondences the simulator's validation relies on.
    Exponential {
        /// Mean holding time.
        mean: f64,
    },
    /// Pareto (heavy-tailed) with exponent `z > 2`, scaled to the given
    /// mean — models the long-lived sessions behind the §5.1 sampling
    /// discussion ("flows are very long lived, so each flow will eventually
    /// experience an overload condition").
    Pareto {
        /// Mean holding time.
        mean: f64,
        /// Tail exponent (`> 2` so the mean exists).
        z: f64,
    },
    /// Deterministic duration.
    Deterministic {
        /// Fixed holding time.
        mean: f64,
    },
}

impl HoldingDist {
    /// Mean of the distribution.
    #[must_use]
    pub fn mean(&self) -> f64 {
        match *self {
            HoldingDist::Exponential { mean }
            | HoldingDist::Pareto { mean, .. }
            | HoldingDist::Deterministic { mean } => mean,
        }
    }

    /// Draw one holding time.
    // Inlined so an admission makes no call for its holding.
    #[inline]
    pub fn sample<D: Draw + ?Sized>(&self, draws: &mut D) -> f64 {
        match *self {
            HoldingDist::Exponential { mean } => draws.exp(ExpSampler::new(1.0 / mean)),
            HoldingDist::Pareto { mean, z } => {
                // Raw Pareto on [1, ∞) has mean (z−1)/(z−2); rescale.
                let raw = ParetoSampler::new(z).at(draws.uniform());
                raw * mean * (z - 2.0) / (z - 1.0)
            }
            HoldingDist::Deterministic { mean } => mean,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn means_match_configuration() {
        let mut rng = StdRng::seed_from_u64(11);
        for dist in [
            HoldingDist::Exponential { mean: 3.0 },
            HoldingDist::Pareto { mean: 3.0, z: 3.5 },
            HoldingDist::Deterministic { mean: 3.0 },
        ] {
            let n = 300_000;
            let m: f64 = (0..n).map(|_| dist.sample(&mut rng)).sum::<f64>() / n as f64;
            assert!((m - 3.0).abs() < 0.1, "{dist:?}: mean {m}");
            assert_eq!(dist.mean(), 3.0);
        }
    }

    #[test]
    fn samples_are_positive() {
        let mut rng = StdRng::seed_from_u64(12);
        let d = HoldingDist::Pareto { mean: 1.0, z: 2.5 };
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) > 0.0);
        }
    }
}
