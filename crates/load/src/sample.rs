//! Seeded random sampling from load models — the bridge to the simulator.
//!
//! [`TabulatedSampler`] draws from any [`crate::Tabulated`] distribution in
//! O(1) per sample via Walker's alias method; the continuous samplers invert
//! closed-form cdfs. All samplers take a caller-provided [`rand::RngExt`]
//! so the simulator stays fully deterministic under a fixed seed.

use crate::tabulated::Tabulated;
use rand::RngExt;

/// O(1) discrete sampler using Walker's alias method.
///
/// Construction is O(n); each draw consumes one uniform for the bucket and
/// one for the coin flip. Exactly reproduces the tabulated pmf.
#[derive(Debug, Clone)]
pub struct TabulatedSampler {
    /// Acceptance probability per bucket.
    prob: Vec<f64>,
    /// Alias target per bucket.
    alias: Vec<u32>,
}

impl TabulatedSampler {
    /// Build the alias tables for `dist`.
    ///
    /// # Panics
    ///
    /// Panics if the distribution has more than `u32::MAX` support points
    /// (far beyond anything this workspace constructs).
    #[must_use]
    pub fn new(dist: &Tabulated) -> Self {
        let n = dist.len();
        assert!(n <= u32::MAX as usize, "support too large for alias sampler");
        let mut prob = vec![0.0f64; n];
        let mut alias = vec![0u32; n];
        // Scale pmf to mean 1 across buckets.
        let scaled: Vec<f64> = dist.iter().map(|(_, p)| p * n as f64).collect();
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        let mut scaled = scaled;
        // NOTE: peek in the loop guard, pop in the body — a guard built on
        // `(small.pop(), large.pop())` would discard an element when
        // exactly one stack is empty.
        while let (Some(s), Some(l)) = (small.last().copied(), large.last().copied()) {
            small.pop();
            large.pop();
            prob[s as usize] = scaled[s as usize];
            alias[s as usize] = l;
            scaled[l as usize] = (scaled[l as usize] + scaled[s as usize]) - 1.0;
            if scaled[l as usize] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        for i in large.into_iter().chain(small) {
            prob[i as usize] = 1.0;
        }
        Self { prob, alias }
    }

    /// Draw one value.
    pub fn sample<R: RngExt + ?Sized>(&self, rng: &mut R) -> u64 {
        let n = self.prob.len();
        let i = rng.random_range(0..n);
        if rng.random::<f64>() < self.prob[i] {
            i as u64
        } else {
            u64::from(self.alias[i])
        }
    }
}

/// Exponential variate sampler with the given rate: mean `1/rate`.
#[derive(Debug, Clone, Copy)]
pub struct ExpSampler {
    /// Rate parameter (inverse mean).
    pub rate: f64,
}

impl ExpSampler {
    /// Sampler with mean `1/rate`.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is positive and finite.
    // Inlined: the simulator's event loop, in another crate, checks a
    // rate at nearly every draw, and a call would sit on its path.
    #[inline]
    #[must_use]
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive and finite");
        Self { rate }
    }

    /// The unit exponential at uniform `u ∈ [0, 1)`: `−ln(1−u)`, the
    /// inverse cdf at rate 1. [`Self::sample`] and the simulator's draw
    /// block both use this one transform, so a precomputed
    /// `unit(u) / rate` is bit for bit [`Self::sample`] on the same `u`.
    #[inline]
    #[must_use]
    pub fn unit(u: f64) -> f64 {
        -(-u).ln_1p()
    }

    /// Draw one value via inverse-cdf: `−ln(1−u)/rate`.
    pub fn sample<R: RngExt + ?Sized>(&self, rng: &mut R) -> f64 {
        Self::unit(rng.random()) / self.rate
    }
}

/// Pareto variate on `[1, ∞)` with density `(z−1)·x^{−z}` — the continuum
/// algebraic load, and the heavy-tailed session-size / holding-time
/// generator of the simulator.
#[derive(Debug, Clone, Copy)]
pub struct ParetoSampler {
    /// Tail exponent `z > 1`.
    pub z: f64,
}

impl ParetoSampler {
    /// Pareto sampler with exponent `z` (mean finite iff `z > 2`).
    ///
    /// # Panics
    ///
    /// Panics unless `z > 1` (otherwise not normalizable).
    // Inlined for the simulator's Pareto holdings, as `ExpSampler::new`.
    #[inline]
    #[must_use]
    pub fn new(z: f64) -> Self {
        assert!(z > 1.0, "pareto exponent must exceed 1");
        Self { z }
    }

    /// The value at uniform `u ∈ [0, 1)` by inverse cdf:
    /// `(1−u)^{−1/(z−1)}`.
    #[inline]
    #[must_use]
    pub fn at(&self, u: f64) -> f64 {
        (1.0 - u).powf(-1.0 / (self.z - 1.0))
    }

    /// Draw one value: [`Self::at`] a uniform drawn from `rng`.
    pub fn sample<R: RngExt + ?Sized>(&self, rng: &mut R) -> f64 {
        self.at(rng.random())
    }
}

/// Pareto truncated to `[1, cap]`, renormalized — keeps simulator run
/// lengths finite while preserving the heavy body of the distribution.
#[derive(Debug, Clone, Copy)]
pub struct BoundedPareto {
    /// Tail exponent `z > 1`.
    pub z: f64,
    /// Upper truncation point (> 1).
    pub cap: f64,
}

impl BoundedPareto {
    /// Bounded Pareto on `[1, cap]`.
    ///
    /// # Panics
    ///
    /// Panics unless `z > 1` and `cap > 1`.
    #[must_use]
    pub fn new(z: f64, cap: f64) -> Self {
        assert!(z > 1.0, "pareto exponent must exceed 1");
        assert!(cap > 1.0, "cap must exceed the lower support point 1");
        Self { z, cap }
    }

    /// The value at uniform `u ∈ [0, 1)` by inverting the truncated cdf.
    #[inline]
    #[must_use]
    pub fn at(&self, u: f64) -> f64 {
        let a = self.z - 1.0;
        let cap_term = self.cap.powf(-a);
        // cdf(x) = (1 − x^{−a})/(1 − cap^{−a}).
        (1.0 - u * (1.0 - cap_term)).powf(-1.0 / a)
    }

    /// Draw one value: [`Self::at`] a uniform drawn from `rng`.
    pub fn sample<R: RngExt + ?Sized>(&self, rng: &mut R) -> f64 {
        self.at(rng.random())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poisson::Poisson;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn alias_sampler_reproduces_pmf() {
        let dist = Tabulated::from_weights(vec![0.1, 0.4, 0.2, 0.3]);
        let sampler = TabulatedSampler::new(&dist);
        let mut rng = StdRng::seed_from_u64(42);
        let n = 400_000;
        let mut counts = [0u64; 4];
        for _ in 0..n {
            counts[sampler.sample(&mut rng) as usize] += 1;
        }
        for (k, &c) in counts.iter().enumerate() {
            let freq = c as f64 / n as f64;
            let want = dist.pmf(k as u64);
            assert!((freq - want).abs() < 0.01, "k={k}: {freq} vs {want}");
        }
    }

    #[test]
    fn alias_sampler_poisson_mean() {
        let dist = Tabulated::from_model(&Poisson::new(100.0), 1e-12, 1 << 16);
        let sampler = TabulatedSampler::new(&dist);
        let mut rng = StdRng::seed_from_u64(7);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| sampler.sample(&mut rng) as f64).sum::<f64>() / n as f64;
        assert!((mean - 100.0).abs() < 0.5, "mean {mean}");
    }

    #[test]
    fn exp_sampler_mean() {
        let s = ExpSampler::new(0.25);
        let mut rng = StdRng::seed_from_u64(1);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| s.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn pareto_sampler_mean_and_support() {
        let z = 3.0; // mean (z−1)/(z−2) = 2.
        let s = ParetoSampler::new(z);
        let mut rng = StdRng::seed_from_u64(2);
        let n = 400_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = s.sample(&mut rng);
            assert!(x >= 1.0);
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn bounded_pareto_respects_cap() {
        let s = BoundedPareto::new(2.2, 50.0);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50_000 {
            let x = s.sample(&mut rng);
            assert!((1.0..=50.0).contains(&x), "x={x}");
        }
    }

    #[test]
    fn sampling_is_deterministic_under_seed() {
        let dist = Tabulated::from_weights(vec![0.5, 0.5]);
        let sampler = TabulatedSampler::new(&dist);
        let seq = |seed: u64| -> Vec<u64> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..32).map(|_| sampler.sample(&mut rng)).collect()
        };
        assert_eq!(seq(9), seq(9));
        assert_ne!(seq(9), seq(10));
    }
}
