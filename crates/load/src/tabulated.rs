//! Finite tabulated distributions — the working representation for all
//! discrete-model computations.

use crate::traits::LoadModel;
use bevra_num::{first_true_u64, NeumaierSum};
use std::sync::OnceLock;

/// Table index up to which the discrete model always sums a table with a
/// smooth tail term by term; past it (and past every utility knot) it
/// integrates [`Tabulated::smooth_tail`] instead. A table gets a tail only
/// if it has entries beyond this index, so shorter tables — and every
/// table whose model has no [`LoadModel::smooth_density`] — are walked in
/// full exactly as before. With this head, `B(C)` stays within 2e-15
/// relative of summing every entry for z from 2.3 to 4; with a
/// 1024-entry head it does not.
pub const SMOOTH_HEAD: u64 = 4096;

/// The power-law density `ρ(x) = coef/(λ + x^z)` of an algebraic load,
/// which the discrete model integrates over a long table's tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLawTail {
    /// Scale: the model's normalization `A`, divided by the table's mass
    /// once the tail belongs to a renormalized [`Tabulated`].
    pub coef: f64,
    /// Shift `λ ≥ 0`.
    pub lambda: f64,
    /// Tail exponent `z`.
    pub z: f64,
}

impl PowerLawTail {
    /// `ρ(x)`, for real `x ≥ 1`.
    #[must_use]
    pub fn density(&self, x: f64) -> f64 {
        self.coef / (self.lambda + x.powf(self.z))
    }
}

/// An exact finite probability distribution on `{0, 1, …, len−1}` obtained
/// by truncating and renormalizing an ideal [`LoadModel`].
///
/// Design: ideal distributions stay analytic; everything numerical operates
/// on a `Tabulated`. Truncation is *explicit and recorded* — the dropped
/// ideal-tail mass and mean are stored so reports can state the
/// approximation error instead of silently pretending it is zero. After
/// renormalization the table is a genuine distribution (mass exactly 1 up to
/// compensated-summation accuracy), so identities like `B(C) ≤ R(C) ≤ 1`
/// hold exactly within the truncated model.
#[derive(Debug, Clone)]
pub struct Tabulated {
    /// `pmf[k]` = probability of load `k` (renormalized).
    pmf: Vec<f64>,
    /// `cdf[k]` = `Σ_{j≤k} pmf[j]` (ends at exactly 1.0).
    cdf: Vec<f64>,
    /// `cum1[k]` = `Σ_{j≤k} j·pmf[j]` — cached first-moment prefix sums, so
    /// overload/blocking terms of the analysis are O(1) per capacity.
    cum1: Vec<f64>,
    /// Mean of the tabulated distribution.
    mean: f64,
    /// Ideal-model tail mass dropped at truncation (before renormalizing).
    tail_mass_dropped: f64,
    /// Ideal-model tail mean dropped at truncation.
    tail_mean_dropped: f64,
    /// Name inherited from the source model.
    name: &'static str,
    /// Renormalized smooth density of the entries past [`SMOOTH_HEAD`]
    /// (see [`Tabulated::smooth_tail`]).
    tail: Option<PowerLawTail>,
    /// [`Tabulated::digest`], computed on first use.
    digest: OnceLock<u64>,
}

impl Tabulated {
    /// Tabulate `model` to tolerance `tol`, capping the table at `max_len`
    /// entries.
    ///
    /// If the model's certified truncation index exceeds `max_len` (heavy
    /// tails), the table is cut at `max_len` and the recorded drop bounds
    /// reflect the larger truncation error.
    ///
    /// A table with entries past [`SMOOTH_HEAD`] whose model supplies a
    /// [`LoadModel::smooth_density`] keeps that density, divided by the
    /// table's mass like every entry, as its [`Tabulated::smooth_tail`].
    /// The entries themselves are tabulated the same either way.
    #[must_use]
    pub fn from_model(model: &dyn LoadModel, tol: f64, max_len: usize) -> Self {
        let k_hi = model.truncation_index(tol).min(max_len.saturating_sub(1) as u64);
        let mut pmf = Vec::with_capacity(k_hi as usize + 1);
        let mut mass = NeumaierSum::new();
        let mut mean = NeumaierSum::new();
        for k in 0..=k_hi {
            let p = model.pmf(k);
            pmf.push(p);
            mass.add(p);
            mean.add(k as f64 * p);
        }
        let mass = mass.total();
        let tail_mass_dropped = (1.0 - mass).max(0.0);
        let tail_mean_dropped = (model.mean() - mean.total()).max(0.0);
        let tail = if k_hi > SMOOTH_HEAD {
            model.smooth_density().map(|d| PowerLawTail { coef: d.coef / mass, ..d })
        } else {
            None
        };
        let mut t =
            Self::from_weights_named(pmf, model.name(), tail_mass_dropped, tail_mean_dropped);
        t.tail = tail;
        t
    }

    /// Build directly from (possibly unnormalized) nonnegative weights.
    /// Used for derived distributions (flow perspective, order statistics,
    /// clipping) and for empirical occupancy censuses from the simulator.
    ///
    /// # Panics
    ///
    /// Panics if the weights are empty, contain negatives/NaN, or sum to 0.
    #[must_use]
    pub fn from_weights(weights: Vec<f64>) -> Self {
        Self::from_weights_named(weights, "tabulated", 0.0, 0.0)
    }

    fn from_weights_named(
        mut weights: Vec<f64>,
        name: &'static str,
        tail_mass_dropped: f64,
        tail_mean_dropped: f64,
    ) -> Self {
        assert!(!weights.is_empty(), "tabulated distribution needs at least one weight");
        let mut mass = NeumaierSum::new();
        for &w in &weights {
            assert!(w >= 0.0 && w.is_finite(), "weights must be finite and nonnegative");
            mass.add(w);
        }
        let total = mass.total();
        assert!(total > 0.0, "weights must not all be zero");
        let inv = 1.0 / total;
        let mut cdf = Vec::with_capacity(weights.len());
        let mut cum1 = Vec::with_capacity(weights.len());
        let mut acc = NeumaierSum::new();
        let mut mean = NeumaierSum::new();
        for (k, w) in weights.iter_mut().enumerate() {
            *w *= inv;
            acc.add(*w);
            mean.add(k as f64 * *w);
            cdf.push(acc.total().min(1.0));
            cum1.push(mean.total());
        }
        // Pin the final cdf entry to exactly 1 so quantile lookups never
        // fall off the end.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Self {
            pmf: weights,
            cdf,
            cum1,
            mean: mean.total(),
            tail_mass_dropped,
            tail_mean_dropped,
            name,
            tail: None,
            digest: OnceLock::new(),
        }
    }

    /// Probability of load `k` (zero beyond the table).
    #[must_use]
    pub fn pmf(&self, k: u64) -> f64 {
        self.pmf.get(k as usize).copied().unwrap_or(0.0)
    }

    /// `P[K ≤ k]`, exactly 1 at and beyond the table end.
    #[must_use]
    pub fn cdf(&self, k: u64) -> f64 {
        if self.cdf.is_empty() {
            return 1.0;
        }
        let idx = (k as usize).min(self.cdf.len() - 1);
        if k as usize >= self.cdf.len() {
            1.0
        } else {
            self.cdf[idx]
        }
    }

    /// Mean of the tabulated distribution.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Partial first moment `Σ_{j≤k} j·pmf(j)`, O(1) via cached prefix sums.
    #[must_use]
    pub fn partial_mean(&self, k: u64) -> f64 {
        if self.cum1.is_empty() {
            return 0.0;
        }
        let idx = (k as usize).min(self.cum1.len() - 1);
        self.cum1[idx]
    }

    /// Tail first moment `Σ_{j>k} j·pmf(j) = mean − partial_mean(k)`.
    #[must_use]
    pub fn tail_mean_above(&self, k: u64) -> f64 {
        (self.mean - self.partial_mean(k)).max(0.0)
    }

    /// Tail mass `Σ_{j>k} pmf(j) = 1 − cdf(k)`.
    #[must_use]
    pub fn tail_mass_above(&self, k: u64) -> f64 {
        (1.0 - self.cdf(k)).max(0.0)
    }

    /// Number of table entries (support is `{0, …, len−1}`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.pmf.len()
    }

    /// True iff the table is empty (cannot happen via constructors; present
    /// for API completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pmf.is_empty()
    }

    /// The `q`-quantile: smallest `k` with `cdf(k) ≥ q`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        let q = q.clamp(0.0, 1.0);
        first_true_u64(|k| self.cdf(k) >= q, 0, self.len() as u64 - 1).unwrap_or(0)
    }

    /// Variance of the tabulated distribution.
    #[must_use]
    pub fn variance(&self) -> f64 {
        let m = self.mean;
        self.pmf
            .iter()
            .enumerate()
            .map(|(k, &p)| {
                let d = k as f64 - m;
                p * d * d
            })
            .collect::<NeumaierSum>()
            .total()
    }

    /// Ideal-model tail mass dropped at truncation (0 for exact tables).
    #[must_use]
    pub fn tail_mass_dropped(&self) -> f64 {
        self.tail_mass_dropped
    }

    /// Ideal-model tail mean dropped at truncation.
    #[must_use]
    pub fn tail_mean_dropped(&self) -> f64 {
        self.tail_mean_dropped
    }

    /// Name inherited from the source model.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The smooth density `ρ` with `ρ(k) ≈ pmf(k)`, present only on tables
    /// built by [`Tabulated::from_model`] with entries past
    /// [`SMOOTH_HEAD`] from a model that has one (the algebraic family).
    ///
    /// It describes the same truncated, renormalized table — the
    /// discrete model integrates it from past the head to the table end
    /// `len − ½`, never beyond — so nothing else about the table changes:
    /// the pmf, `cdf`, moments and dropped-tail bounds are the entries'.
    #[must_use]
    pub fn smooth_tail(&self) -> Option<PowerLawTail> {
        self.tail
    }

    /// The raw pmf table as a contiguous slice (`pmf_values()[k] = pmf(k)`).
    ///
    /// Exposed for grid-batched kernels that traverse the table once for a
    /// whole capacity grid and need the compiler to see a plain `&[f64]`
    /// rather than a bounds-checked accessor in the hot loop.
    #[must_use]
    pub fn pmf_values(&self) -> &[f64] {
        &self.pmf
    }

    /// Content digest of the distribution: FNV-1a over the name, length,
    /// the exact bit patterns of every pmf entry, and — for a table with a
    /// [`Tabulated::smooth_tail`] — [`SMOOTH_HEAD`] and the bits of the
    /// tail's three parameters.
    ///
    /// Two tables compare equal under this digest iff every probability
    /// and the tail are bitwise identical — the precondition for bit-exact
    /// reuse of derived value tables (the persistent sweep cache keys on
    /// it). Tables without a tail digest as they did before tails existed.
    /// The O(len) hash runs once per table; later calls, and clones made
    /// after the first call, return the memoized value.
    #[must_use]
    pub fn digest(&self) -> u64 {
        *self.digest.get_or_init(|| self.compute_digest())
    }

    fn compute_digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        };
        eat(self.name.as_bytes());
        eat(&(self.pmf.len() as u64).to_le_bytes());
        for &p in &self.pmf {
            eat(&p.to_bits().to_le_bytes());
        }
        if let Some(t) = self.tail {
            eat(&SMOOTH_HEAD.to_le_bytes());
            for v in [t.coef, t.lambda, t.z] {
                eat(&v.to_bits().to_le_bytes());
            }
        }
        h
    }

    /// Iterate `(k, pmf(k))` over the support.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.pmf.iter().enumerate().map(|(k, &p)| (k as u64, p))
    }

    /// Expectation `Σ_k pmf(k)·f(k)` with compensated summation.
    #[must_use]
    pub fn expect(&self, mut f: impl FnMut(u64) -> f64) -> f64 {
        let mut acc = NeumaierSum::new();
        for (k, p) in self.iter() {
            if p > 0.0 {
                acc.add(p * f(k));
            }
        }
        acc.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometric::Geometric;
    use crate::poisson::Poisson;

    #[test]
    fn tabulated_poisson_is_normalized() {
        let t = Tabulated::from_model(&Poisson::new(100.0), 1e-12, 1 << 20);
        let mass: f64 = t.iter().map(|(_, p)| p).sum();
        assert!((mass - 1.0).abs() < 1e-12);
        assert!((t.mean() - 100.0).abs() < 1e-6);
        assert!(t.tail_mass_dropped() < 1e-10);
    }

    #[test]
    fn cdf_monotone_and_ends_at_one() {
        let t = Tabulated::from_model(&Geometric::from_mean(10.0), 1e-10, 1 << 20);
        let mut prev = 0.0;
        for k in 0..t.len() as u64 {
            let c = t.cdf(k);
            assert!(c >= prev);
            prev = c;
        }
        assert_eq!(t.cdf(t.len() as u64 + 100), 1.0);
        assert_eq!(t.cdf(t.len() as u64 - 1), 1.0);
    }

    #[test]
    fn quantiles_bracket_mean() {
        let t = Tabulated::from_model(&Poisson::new(100.0), 1e-12, 1 << 20);
        assert!(t.quantile(0.5) >= 95 && t.quantile(0.5) <= 105);
        assert!(t.quantile(0.999) > t.quantile(0.5));
        assert_eq!(t.quantile(0.0), 0);
    }

    #[test]
    fn variance_of_poisson_equals_mean() {
        let t = Tabulated::from_model(&Poisson::new(50.0), 1e-13, 1 << 20);
        assert!((t.variance() - 50.0).abs() < 1e-5, "var {}", t.variance());
    }

    #[test]
    fn from_weights_renormalizes() {
        let t = Tabulated::from_weights(vec![2.0, 2.0, 4.0]);
        assert!((t.pmf(0) - 0.25).abs() < 1e-15);
        assert!((t.pmf(2) - 0.5).abs() < 1e-15);
        assert!((t.mean() - 1.25).abs() < 1e-15);
    }

    #[test]
    fn capped_table_records_dropped_tail() {
        // Cap a geometric table well below its natural truncation point.
        let g = Geometric::from_mean(100.0);
        let t = Tabulated::from_model(&g, 1e-12, 200);
        assert!(t.len() == 200);
        assert!(t.tail_mass_dropped() > 1e-3, "dropped {}", t.tail_mass_dropped());
        assert!(t.tail_mean_dropped() > 0.0);
        // Still a genuine distribution after renormalization.
        let mass: f64 = t.iter().map(|(_, p)| p).sum();
        assert!((mass - 1.0).abs() < 1e-12);
    }

    #[test]
    fn expect_matches_mean() {
        let t = Tabulated::from_model(&Poisson::new(20.0), 1e-12, 1 << 20);
        let m = t.expect(|k| k as f64);
        assert!((m - t.mean()).abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "weights must not all be zero")]
    fn all_zero_weights_rejected() {
        let _ = Tabulated::from_weights(vec![0.0, 0.0]);
    }

    #[test]
    fn digest_distinguishes_content_not_identity() {
        let a = Tabulated::from_model(&Poisson::new(20.0), 1e-12, 1 << 16);
        let b = Tabulated::from_model(&Poisson::new(20.0), 1e-12, 1 << 16);
        assert_eq!(a.digest(), b.digest(), "identical builds must share a digest");
        let c = Tabulated::from_model(&Poisson::new(20.0 + 1e-9), 1e-12, 1 << 16);
        assert_ne!(a.digest(), c.digest(), "a perturbed table must re-key");
        let d = Tabulated::from_model(&Geometric::from_mean(20.0), 1e-12, 1 << 16);
        assert_ne!(a.digest(), d.digest());
    }

    /// The algebraic model with its smooth density hidden: the same
    /// entries, tabulated without a tail.
    struct NoTail(crate::Algebraic);
    impl LoadModel for NoTail {
        fn pmf(&self, k: u64) -> f64 {
            self.0.pmf(k)
        }
        fn mean(&self) -> f64 {
            self.0.mean()
        }
        fn support_min(&self) -> u64 {
            self.0.support_min()
        }
        fn truncation_index(&self, tol: f64) -> u64 {
            self.0.truncation_index(tol)
        }
        fn name(&self) -> &'static str {
            self.0.name()
        }
    }

    #[test]
    fn digest_sees_the_tail_and_is_memoized() {
        let model = crate::Algebraic::from_mean(3.0, 100.0).expect("calibration");
        let tailed = Tabulated::from_model(&model, 1e-9, 1 << 13);
        let plain = Tabulated::from_model(&NoTail(model), 1e-9, 1 << 13);
        assert!(tailed.smooth_tail().is_some() && plain.smooth_tail().is_none());
        let fresh = tailed.clone();
        assert!(tailed.iter().zip(plain.iter()).all(|((_, a), (_, b))| a.to_bits() == b.to_bits()));
        assert_ne!(tailed.digest(), plain.digest(), "the tail must re-key the table");
        assert_eq!(tailed.digest(), tailed.compute_digest());
        assert_eq!(tailed.digest(), tailed.digest());
        assert_eq!(tailed.clone().digest(), tailed.digest(), "a clone of the memoized digest");
        assert_eq!(fresh.digest(), tailed.digest(), "a clone taken before the first call");
        // Tables without a tail keep the digest they had before tails
        // existed, so their persisted value rows still hit.
        let poisson = Tabulated::from_model(&Poisson::new(20.0), 1e-12, 1 << 16);
        assert_eq!(poisson.digest(), 0x3BEE_DF1E_0915_C145, "{:#018X}", poisson.digest());
    }

    #[test]
    fn fig4_tables_record_what_truncation_drops() {
        // The paper's z = 3 load at fig4's tolerance: the table is capped,
        // and what the cap drops is recorded. The smooth tail integrates
        // to the table end only, so these stay the whole truncation error.
        let model = crate::Algebraic::from_mean(3.0, 100.0).expect("calibration");
        for (len, mass, mean) in [(1usize << 20, 3.75e-9, 7.85e-3), (1 << 16, 9.6e-7, 0.126)] {
            let t = Tabulated::from_model(&model, 1e-9, len);
            assert_eq!(t.len(), len);
            let (m, k) = (t.tail_mass_dropped(), t.tail_mean_dropped());
            assert!((m / mass - 1.0).abs() <= 0.1, "len {len}: tail mass dropped {m:e}");
            assert!((k / mean - 1.0).abs() <= 0.1, "len {len}: tail mean dropped {k:e}");
        }
    }

    #[test]
    fn pmf_values_matches_accessor() {
        let t = Tabulated::from_model(&Poisson::new(7.0), 1e-12, 1 << 12);
        let s = t.pmf_values();
        assert_eq!(s.len(), t.len());
        for (k, &p) in s.iter().enumerate() {
            assert_eq!(p.to_bits(), t.pmf(k as u64).to_bits());
        }
    }

    #[test]
    fn partial_and_tail_moments_are_consistent() {
        let t = Tabulated::from_model(&Poisson::new(30.0), 1e-13, 1 << 20);
        for k in [0u64, 10, 30, 60, 10_000] {
            let direct: f64 = t.iter().take_while(|&(j, _)| j <= k).map(|(j, p)| j as f64 * p).sum();
            assert!((t.partial_mean(k) - direct).abs() < 1e-12, "k={k}");
            assert!((t.partial_mean(k) + t.tail_mean_above(k) - t.mean()).abs() < 1e-12);
        }
        assert!((t.tail_mass_above(0) - (1.0 - t.pmf(0))).abs() < 1e-12);
        assert_eq!(t.tail_mass_above(1 << 21), 0.0);
    }
}
