//! Finite tabulated distributions — the working representation for all
//! discrete-model computations.

use crate::traits::LoadModel;
use bevra_num::{first_true_u64, gauss_legendre, NeumaierSum};
use std::sync::OnceLock;

/// Last table index a table with a smooth tail stores as arrays; past it
/// every query reads [`Tabulated::smooth_tail`], and the discrete model
/// integrates that density instead of summing entries (it sums up to this
/// index, and past it only the few entries around each utility knot). A
/// table gets a tail only if it has entries beyond this index, so shorter
/// tables — and every table whose model has no
/// [`LoadModel::smooth_density`] — store and walk every entry. With this
/// head, `B(C)` and `R(C)` stay within 2e-15 relative of summing every
/// entry for z from 2.3 to 4; with a 1024-entry head `B` does not.
pub const SMOOTH_HEAD: u64 = 4096;

/// Gauss–Legendre panels (16 nodes each) of [`PowerLawTail::sum`], in
/// `ln x`.
const TAIL_PANELS: usize = 4;

/// Spans of at most this many tail entries are summed term by term rather
/// than integrated: queries near the table end, and the whole tail of a
/// table barely longer than its head.
const TERMWISE_SPAN: u64 = 32;

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

    /// `Σ_{head<k≤last} f(k)` for `f(x) = w(x, ρ(x))`, as the midpoint-rule
    /// integral of `f` over `[head+½, last+½]`, taken in `u = ln x` by a
    /// fixed Gauss–Legendre rule, plus the Euler–Maclaurin end correction
    /// `−[f′]/24` (`f′` by a central difference over one table step).
    ///
    /// Accurate to about 1e-15 relative when `f` is smooth on the scale of
    /// one entry and `head ≥` [`SMOOTH_HEAD`]; this is the one routine
    /// behind the table's tail moments and the discrete model's `B(C)` and
    /// `R(C)` stretches past the head.
    pub fn sum(&self, head: u64, last: u64, w: impl Fn(f64, f64) -> f64) -> f64 {
        let f = |x: f64| w(x, self.density(x));
        let (a, b) = (head as f64 + 0.5, last as f64 + 0.5);
        let integral = gauss_legendre(
            |u| {
                let x = u.exp();
                f(x) * x
            },
            a.ln(),
            b.ln(),
            TAIL_PANELS,
        );
        let slope = |x: f64| f(x + 0.5) - f(x - 0.5);
        integral - (slope(b) - slope(a)) / 24.0
    }

    /// Add `Σ_{k<j≤last} w(j, ρ(j))` to `acc`: term by term over at most
    /// 32 entries, else as one [`Self::sum`] value. Nothing when
    /// `k ≥ last`.
    pub fn add_span(&self, acc: &mut NeumaierSum, k: u64, last: u64, w: impl Fn(f64, f64) -> f64) {
        if k >= last {
            return;
        }
        if last - k > TERMWISE_SPAN {
            acc.add(self.sum(k, last, w));
            return;
        }
        for j in k + 1..=last {
            let x = j as f64;
            acc.add(w(x, self.density(x)));
        }
    }

    /// `Σ_{k<j≤last} ρ(j)`, or `Σ j·ρ(j)` with `first_moment`, by
    /// [`Self::add_span`].
    fn moment_above(&self, k: u64, last: u64, first_moment: bool) -> f64 {
        let mut acc = NeumaierSum::new();
        self.add_span(&mut acc, k, last, |x, rho| if first_moment { x * rho } else { rho });
        acc.total()
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
///
/// A table with a [`Tabulated::smooth_tail`] stores arrays for entries
/// `0..=SMOOTH_HEAD` only and answers every query past them from the tail
/// density; [`Tabulated::materialized`] holds every entry for the readers
/// that walk the whole table.
#[derive(Debug, Clone)]
pub struct Tabulated {
    /// `pmf[k]` = probability of load `k` (renormalized), for the stored
    /// entries: all of them, or the head of a table with a tail.
    pmf: Vec<f64>,
    /// `cdf[k]` = `Σ_{j≤k} pmf[j]` over the stored entries (the last entry
    /// of a table without a tail is exactly 1.0).
    cdf: Vec<f64>,
    /// `cum1[k]` = `Σ_{j≤k} j·pmf[j]` — cached first-moment prefix sums, so
    /// overload/blocking terms of the analysis are O(1) per capacity.
    cum1: Vec<f64>,
    /// Number of table entries `N`; the support is `{0, …, N−1}`.
    len: usize,
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
    /// [`Tabulated::materialized`] of a table with a tail, built on first
    /// use.
    full: OnceLock<Box<Tabulated>>,
    /// [`Tabulated::digest`], computed on first use.
    digest: OnceLock<u64>,
}

/// Compensated prefix sums `(cdf, cum1, mean)` of `pmf`.
fn prefix_sums(pmf: &[f64]) -> (Vec<f64>, Vec<f64>, NeumaierSum) {
    let mut cdf = Vec::with_capacity(pmf.len());
    let mut cum1 = Vec::with_capacity(pmf.len());
    let mut acc = NeumaierSum::new();
    let mut mean = NeumaierSum::new();
    for (k, &p) in pmf.iter().enumerate() {
        acc.add(p);
        mean.add(k as f64 * p);
        cdf.push(acc.total().min(1.0));
        cum1.push(mean.total());
    }
    (cdf, cum1, mean)
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
    /// [`LoadModel::smooth_density`] evaluates the model only up to that
    /// index. Its mass and mean are the head's compensated sums plus the
    /// density's sums over the rest of the table ([`PowerLawTail::sum`]),
    /// and it keeps the density, divided by the mass like every entry, as
    /// its [`Tabulated::smooth_tail`]. The build is O([`SMOOTH_HEAD`])
    /// whatever the table length.
    #[must_use]
    pub fn from_model(model: &dyn LoadModel, tol: f64, max_len: usize) -> Self {
        let k_hi = model.truncation_index(tol).min(max_len.saturating_sub(1) as u64);
        let density = if k_hi > SMOOTH_HEAD { model.smooth_density() } else { None };
        let stored = density.map_or(k_hi, |_| SMOOTH_HEAD);
        let mut pmf = Vec::with_capacity(stored as usize + 1);
        let mut raw_mass = NeumaierSum::new();
        let mut raw_mean = NeumaierSum::new();
        for k in 0..=stored {
            let p = model.pmf(k);
            pmf.push(p);
            raw_mass.add(p);
            raw_mean.add(k as f64 * p);
        }
        if let Some(d) = density {
            raw_mass.add(d.moment_above(stored, k_hi, false));
            raw_mean.add(d.moment_above(stored, k_hi, true));
        }
        let mass = raw_mass.total();
        let tail_mass_dropped = (1.0 - mass).max(0.0);
        let tail_mean_dropped = (model.mean() - raw_mean.total()).max(0.0);
        let Some(d) = density else {
            return Self::from_weights_named(pmf, model.name(), tail_mass_dropped, tail_mean_dropped);
        };
        assert!(
            pmf.iter().all(|&p| p >= 0.0 && p.is_finite()) && mass > 0.0 && mass.is_finite(),
            "weights must be finite and nonnegative, and not all zero"
        );
        let inv = 1.0 / mass;
        for p in &mut pmf {
            *p *= inv;
        }
        let tail = PowerLawTail { coef: d.coef / mass, ..d };
        let (cdf, cum1, mut mean) = prefix_sums(&pmf);
        mean.add(tail.moment_above(stored, k_hi, true));
        Self {
            pmf,
            cdf,
            cum1,
            len: k_hi as usize + 1,
            mean: mean.total(),
            tail_mass_dropped,
            tail_mean_dropped,
            name: model.name(),
            tail: Some(tail),
            full: OnceLock::new(),
            digest: OnceLock::new(),
        }
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
        for w in &mut weights {
            *w *= inv;
        }
        Self::from_entries(weights, None, tail_mass_dropped, tail_mean_dropped, name)
    }

    /// A table storing every entry of the normalized `pmf`, with its
    /// prefix sums; `mean` replaces the computed mean if given.
    fn from_entries(
        pmf: Vec<f64>,
        mean: Option<f64>,
        tail_mass_dropped: f64,
        tail_mean_dropped: f64,
        name: &'static str,
    ) -> Self {
        let (mut cdf, mut cum1, sum1) = prefix_sums(&pmf);
        let mean = mean.unwrap_or_else(|| sum1.total());
        // Pin the final entries to exactly 1 and the mean so quantile
        // lookups never fall off the end and nothing lies above it.
        if let (Some(c), Some(m)) = (cdf.last_mut(), cum1.last_mut()) {
            (*c, *m) = (1.0, mean);
        }
        Self {
            len: pmf.len(),
            pmf,
            cdf,
            cum1,
            mean,
            tail_mass_dropped,
            tail_mean_dropped,
            name,
            tail: None,
            full: OnceLock::new(),
            digest: OnceLock::new(),
        }
    }

    /// The tail density that answers queries about the entries past `k`:
    /// present iff the table has a tail and `k` is at or past its head.
    fn tail_past(&self, k: u64) -> Option<PowerLawTail> {
        self.tail.filter(|_| k >= SMOOTH_HEAD)
    }

    /// Last table index, `N − 1`.
    fn last(&self) -> u64 {
        self.len as u64 - 1
    }

    /// Probability of load `k` (zero beyond the table).
    #[must_use]
    pub fn pmf(&self, k: u64) -> f64 {
        match (self.pmf.get(k as usize), self.tail) {
            (Some(&p), _) => p,
            (None, Some(t)) if k <= self.last() => t.density(k as f64),
            (None, _) => 0.0,
        }
    }

    /// `P[K ≤ k]`, exactly 1 at and beyond the table end.
    #[must_use]
    pub fn cdf(&self, k: u64) -> f64 {
        match self.cdf.get(k as usize) {
            Some(&c) => c,
            None if k >= self.last() => 1.0,
            None => 1.0 - self.tail_mass_above(k),
        }
    }

    /// Mean of the tabulated distribution.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Partial first moment `Σ_{j≤k} j·pmf(j)`, O(1) via cached prefix sums
    /// (a quadrature past the head of a table with a tail).
    #[must_use]
    pub fn partial_mean(&self, k: u64) -> f64 {
        match self.cum1.get(k as usize) {
            Some(&c) => c,
            None if k >= self.last() => self.mean,
            None => self.mean - self.tail_mean_above(k),
        }
    }

    /// Tail first moment `Σ_{j>k} j·pmf(j)`: `mean − partial_mean(k)`, or
    /// from `k` = [`SMOOTH_HEAD`] on in a table with a tail, the tail
    /// density's sum (exactly 0 at and past the last entry).
    #[must_use]
    pub fn tail_mean_above(&self, k: u64) -> f64 {
        match self.tail_past(k) {
            Some(t) => t.moment_above(k, self.last(), true),
            None => (self.mean - self.partial_mean(k)).max(0.0),
        }
    }

    /// Tail mass `Σ_{j>k} pmf(j)`: `1 − cdf(k)`, or from `k` =
    /// [`SMOOTH_HEAD`] on in a table with a tail, the tail density's sum
    /// (exactly 0 at and past the last entry).
    #[must_use]
    pub fn tail_mass_above(&self, k: u64) -> f64 {
        match self.tail_past(k) {
            Some(t) => t.moment_above(k, self.last(), false),
            None => (1.0 - self.cdf(k)).max(0.0),
        }
    }

    /// Number of table entries (support is `{0, …, len−1}`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the table is empty (cannot happen via constructors; present
    /// for API completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `q`-quantile: smallest `k` with `cdf(k) ≥ q`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        let q = q.clamp(0.0, 1.0);
        first_true_u64(|k| self.cdf(k) >= q, 0, self.last()).unwrap_or(0)
    }

    /// Variance of the tabulated distribution (over every entry, via
    /// [`Tabulated::materialized`]).
    #[must_use]
    pub fn variance(&self) -> f64 {
        let m = self.mean;
        self.iter()
            .map(|(k, p)| {
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

    /// The smooth density `ρ` with `pmf(k) = ρ(k)` past [`SMOOTH_HEAD`],
    /// present only on tables built by [`Tabulated::from_model`] with
    /// entries past that index from a model that has one (the algebraic
    /// family).
    ///
    /// It describes the same truncated, renormalized table: the entries
    /// past the head are its values at the integers, and the table's mass,
    /// mean, `cdf` and tail moments past the head are its sums to the
    /// table end `len − 1`, never beyond.
    #[must_use]
    pub fn smooth_tail(&self) -> Option<PowerLawTail> {
        self.tail
    }

    /// The same distribution with every entry stored: `self` for a table
    /// without a [`Tabulated::smooth_tail`]; otherwise a table built once,
    /// on first use, whose head is this table's verbatim, whose other
    /// entries are the tail density's values (bitwise [`Tabulated::pmf`]),
    /// whose prefix sums continue the head's, and whose mean is this
    /// table's.
    ///
    /// For readers that walk the whole table: [`Tabulated::pmf_values`],
    /// [`Tabulated::iter`] (hence [`Tabulated::expect`] and
    /// [`Tabulated::variance`]) and the order statistics.
    #[must_use]
    pub fn materialized(&self) -> &Tabulated {
        let Some(t) = self.tail else {
            return self;
        };
        self.full.get_or_init(|| {
            let mut pmf = Vec::with_capacity(self.len);
            pmf.extend_from_slice(&self.pmf);
            pmf.extend((self.pmf.len() as u64..=self.last()).map(|k| t.density(k as f64)));
            Box::new(Self::from_entries(
                pmf,
                Some(self.mean),
                self.tail_mass_dropped,
                self.tail_mean_dropped,
                self.name,
            ))
        })
    }

    /// Every pmf entry as a contiguous slice (`pmf_values()[k] = pmf(k)`),
    /// from [`Tabulated::materialized`].
    #[must_use]
    pub fn pmf_values(&self) -> &[f64] {
        &self.materialized().pmf
    }

    /// Content digest of the distribution: FNV-1a over the name, length,
    /// the exact bit patterns of every stored pmf entry, and — for a table
    /// with a [`Tabulated::smooth_tail`] — [`SMOOTH_HEAD`] and the bits of
    /// the tail's three parameters, which fix every other entry.
    ///
    /// Two tables compare equal under this digest iff every probability
    /// and the tail are bitwise identical — the precondition for bit-exact
    /// reuse of derived value tables (the persistent sweep cache keys on
    /// it). Tables without a tail digest as they did before tails existed.
    /// The hash is O(stored entries) and runs once per table; later calls,
    /// and clones made after the first call, return the memoized value.
    #[must_use]
    pub fn digest(&self) -> u64 {
        *self.digest.get_or_init(|| self.compute_digest())
    }

    fn compute_digest(&self) -> u64 {
        let mut h = bevra_num::Fnv1a::new();
        h.write(self.name.as_bytes());
        h.write_u64(self.len as u64);
        for &p in &self.pmf {
            h.write_u64(p.to_bits());
        }
        if let Some(t) = self.tail {
            h.write_u64(SMOOTH_HEAD);
            for v in [t.coef, t.lambda, t.z] {
                h.write_u64(v.to_bits());
            }
        }
        h.finish()
    }

    /// Iterate `(k, pmf(k))` over the support (via
    /// [`Tabulated::materialized`]).
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.pmf_values().iter().enumerate().map(|(k, &p)| (k as u64, p))
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
        // The entries agree to 2 ULP: the tailed table's mass adds the
        // density's tail sum, and its entries past the head are the
        // density's values.
        assert!(tailed.iter().zip(plain.iter()).all(|((_, a), (_, b))| ulps(a, b) <= 2));
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

    /// Distance in units in the last place between two finite `f64`s of
    /// the same sign.
    fn ulps(a: f64, b: f64) -> u64 {
        a.to_bits().abs_diff(b.to_bits())
    }

    #[test]
    fn queries_past_the_head_match_the_full_table() {
        // Past the head a tailed table answers from its density; the same
        // model tabulated without the density stores every entry. Compare
        // the tail moments against suffix sums of the full table taken
        // directly (not `1 − cdf`, which is all cancellation near N).
        for z in [2.3, 2.5, 3.0, 4.0] {
            for kbar in [10.0, 100.0] {
                let model = crate::Algebraic::from_mean(z, kbar).expect("calibration");
                for n in [1usize << 13, 1 << 16, 1 << 20] {
                    let tailed = Tabulated::from_model(&model, 1e-15, n);
                    let plain = Tabulated::from_model(&NoTail(model), 1e-15, n);
                    assert_eq!((tailed.len(), plain.len()), (n, n));
                    assert!(tailed.smooth_tail().is_some() && plain.smooth_tail().is_none());
                    let at = format!("z={z} k̄={kbar} N={n}");
                    let rel = (tailed.mean() - plain.mean()).abs() / plain.mean();
                    assert!(rel <= 1e-15, "{at}: mean {} vs {}", tailed.mean(), plain.mean());
                    let n = n as u64;
                    let mut ks = [4095, 4096, 4097, 8192, 30_000, n / 2, n - 3, n - 1, n];
                    ks.sort_unstable();
                    // Suffix sums Σ_{j>k} of the full table, smallest first.
                    let (mut mass, mut mean) = (NeumaierSum::new(), NeumaierSum::new());
                    let mut suffix = std::collections::HashMap::new();
                    for j in (0..=n.max(30_000)).rev() {
                        if ks.contains(&j) {
                            suffix.insert(j, (mass.total(), mean.total()));
                        }
                        let p = plain.pmf(j);
                        mass.add(p);
                        mean.add(j as f64 * p);
                    }
                    let mut prev = 0.0;
                    for k in ks {
                        let (a, b) = (tailed.pmf(k), plain.pmf(k));
                        assert!(ulps(a, b) <= 2, "{at} k={k}: pmf {a:e} vs {b:e}");
                        let (a, b) = (tailed.cdf(k), plain.cdf(k));
                        assert!((a - b).abs() <= 1e-15, "{at} k={k}: cdf {a} vs {b}");
                        assert!(a >= prev, "{at} k={k}: cdf decreased");
                        prev = a;
                        let (a, b) = (tailed.partial_mean(k), plain.partial_mean(k));
                        assert!((a - b).abs() <= 1e-15 * b, "{at} k={k}: partial mean {a} vs {b}");
                        if k < SMOOTH_HEAD {
                            continue;
                        }
                        let (want_mass, want_mean) = suffix[&k];
                        for (what, got, want) in [
                            ("mass", tailed.tail_mass_above(k), want_mass),
                            ("mean", tailed.tail_mean_above(k), want_mean),
                        ] {
                            if want == 0.0 {
                                assert_eq!(got, 0.0, "{at} k={k}: tail {what} above the end");
                            } else {
                                let rel = (got - want).abs() / want;
                                assert!(rel <= 1e-14, "{at} k={k}: tail {what} {got:e} vs {want:e}");
                            }
                        }
                    }
                    // Nondecreasing across the head boundary, entry by entry.
                    let cdfs: Vec<f64> = (4090..4110).map(|k| tailed.cdf(k)).collect();
                    assert!(cdfs.windows(2).all(|w| w[0] <= w[1]), "{at}: {cdfs:?}");
                }
            }
        }
    }

    /// An algebraic model that counts its `pmf` calls.
    struct Counting(crate::Algebraic, std::sync::atomic::AtomicU64);
    impl LoadModel for Counting {
        fn pmf(&self, k: u64) -> f64 {
            self.1.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
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
        fn smooth_density(&self) -> Option<PowerLawTail> {
            self.0.smooth_density()
        }
    }

    #[test]
    fn a_long_algebraic_table_evaluates_only_its_head() {
        let model = crate::Algebraic::from_mean(3.0, 100.0).expect("calibration");
        let counting = Counting(model, std::sync::atomic::AtomicU64::new(0));
        let t = Tabulated::from_model(&counting, 1e-9, 1 << 20);
        assert_eq!(t.len(), 1 << 20);
        let calls = counting.1.load(std::sync::atomic::Ordering::Relaxed);
        assert!(calls <= SMOOTH_HEAD + 1, "{calls} pmf calls for a 2^20-entry table");
        let _ = (t.pmf(1 << 19), t.cdf(1 << 19), t.tail_mean_above(30_000), t.digest());
        assert_eq!(counting.1.load(std::sync::atomic::Ordering::Relaxed), calls);
    }

    #[test]
    fn materialized_view_holds_every_entry() {
        let model = crate::Algebraic::from_mean(3.0, 100.0).expect("calibration");
        let t = Tabulated::from_model(&model, 1e-9, 1 << 16);
        let full = t.materialized();
        assert!(std::ptr::eq(full, t.materialized()), "built once");
        assert!(full.smooth_tail().is_none() && std::ptr::eq(full.materialized(), full));
        assert_eq!((full.len(), full.mean().to_bits()), (t.len(), t.mean().to_bits()));
        assert_eq!(t.pmf_values().len(), t.len());
        for (k, p) in t.iter() {
            assert_eq!(p.to_bits(), t.pmf(k).to_bits(), "k={k}");
            assert_eq!(p.to_bits(), full.pmf(k).to_bits(), "k={k}");
        }
        // The head's prefix sums are the stored ones; the rest continue them.
        for k in [0, 100, SMOOTH_HEAD] {
            assert_eq!(full.cdf(k).to_bits(), t.cdf(k).to_bits(), "k={k}");
            assert_eq!(full.partial_mean(k).to_bits(), t.partial_mean(k).to_bits(), "k={k}");
        }
        for k in [SMOOTH_HEAD + 1, 30_000, t.len() as u64 - 2] {
            assert!((full.cdf(k) - t.cdf(k)).abs() <= 1e-15, "k={k}");
        }
        let last = t.len() as u64 - 1;
        assert_eq!((full.cdf(last), full.tail_mean_above(last)), (1.0, 0.0));
        assert_eq!(t.variance().to_bits(), full.variance().to_bits());
        // A table without a tail is its own view.
        let p = Tabulated::from_model(&Poisson::new(20.0), 1e-12, 1 << 16);
        assert!(std::ptr::eq(p.materialized(), &p));
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
