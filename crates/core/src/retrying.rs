//! The retrying extension (paper §5.2): blocked reservation requests come
//! back.
//!
//! The basic model charges a rejected flow zero utility, once. In reality a
//! blocked flow retries later: it eventually gets in, but pays a
//! dissatisfaction penalty `α` per retry, and — crucially — its retries add
//! to the offered load. The model closes the loop self-consistently: if
//! the base load has mean `L` and each flow makes `D` retries on average,
//! the *effective* offered load has mean `L̂ = L·(1 + D)`, drawn from the
//! same distribution family; `D` in turn depends on the blocking rate at
//! load `L̂`. With per-attempt blocking probability `θ` and independent
//! retries, `D = θ/(1 − θ)`.
//!
//! The per-original-flow reservation utility is then
//!
//! ```text
//! R̃_L(C) = (L̂/L)·R_{L̂}(C) − α·D
//! ```
//!
//! (the factor `L̂/L` converts the per-attempt average `R_{L̂}` — which
//! counts rejected attempts as zeros — into a per-flow average, since each
//! flow makes `1 + D = L̂/L` attempts of which one succeeds). Best-effort is
//! unchanged: it never blocks, so it never triggers retries.

use crate::discrete::DiscreteModel;
use bevra_load::{Algebraic, Geometric, LoadModel, Poisson, Tabulated};
use bevra_num::{brent, expand_bracket_up, fixed_point, NumResult};
use bevra_utility::Utility;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A family of load distributions parameterized by their mean — the paper's
/// "the retries obey the same basic distribution" assumption. Families are
/// memoized because the retrying fixed point and the welfare optimizer
/// request many nearby means.
pub trait LoadFamily: Send + Sync {
    /// Build (or fetch from cache) the tabulated distribution with the given
    /// mean.
    fn make(&self, mean: f64) -> Arc<Tabulated>;

    /// Family name for reports.
    fn name(&self) -> &'static str;

    /// Table-cache traffic so far as `(hits, misses)`; a miss is a table
    /// built. `(0, 0)` for a family that keeps no cache.
    fn cache_stats(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// Quantize a mean for caching: 1 part in 10⁴. Tables are *built at the
/// quantized mean*, so the cache is exact for the distribution it serves;
/// a 0.01% mean perturbation is far below every quantity the models report.
/// Without quantization the retry fixed point's wandering iterates would
/// each build (and retain) a distinct megabyte-scale table.
fn quantize(mean: f64) -> u64 {
    (mean * 1e4).round() as u64
}

/// Cache size bound: beyond this the whole cache is dropped (simple and
/// sufficient — sweeps revisit a small working set of means).
const CACHE_CAP: usize = 64;

/// The table cache behind every family: tables tabulated at the quantized
/// mean with one tolerance and length cap, counted as hits and misses.
struct TableCache {
    tol: f64,
    max_len: usize,
    state: Mutex<CacheState>,
}

#[derive(Default)]
struct CacheState {
    tables: HashMap<u64, Arc<Tabulated>>,
    hits: u64,
    misses: u64,
}

impl TableCache {
    fn new(tol: f64, max_len: usize) -> Self {
        Self { tol, max_len, state: Mutex::default() }
    }

    /// The table of `model(mean)` at `mean` quantized, tabulated on a miss.
    /// Two threads missing on one mean both build it; either copy is kept.
    fn get<M: LoadModel>(&self, mean: f64, model: impl FnOnce(f64) -> M) -> Arc<Tabulated> {
        let key = quantize(mean);
        {
            let mut st = self.lock();
            if let Some(hit) = st.tables.get(&key).map(Arc::clone) {
                st.hits += 1;
                return hit;
            }
            st.misses += 1;
        }
        let model = model(key as f64 / 1e4);
        let built = Arc::new(Tabulated::from_model(&model, self.tol, self.max_len));
        let mut st = self.lock();
        if st.tables.len() >= CACHE_CAP {
            st.tables.clear();
        }
        st.tables.insert(key, Arc::clone(&built));
        built
    }

    fn stats(&self) -> (u64, u64) {
        let st = self.lock();
        (st.hits, st.misses)
    }

    /// Every update leaves the state whole, so a poisoned lock is usable.
    fn lock(&self) -> MutexGuard<'_, CacheState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Poisson loads of varying mean.
pub struct PoissonFamily(TableCache);

impl PoissonFamily {
    /// New family with tabulation tolerance and length cap.
    #[must_use]
    pub fn new(tol: f64, max_len: usize) -> Self {
        Self(TableCache::new(tol, max_len))
    }
}

impl LoadFamily for PoissonFamily {
    fn make(&self, mean: f64) -> Arc<Tabulated> {
        self.0.get(mean, Poisson::new)
    }

    fn name(&self) -> &'static str {
        "poisson"
    }

    fn cache_stats(&self) -> (u64, u64) {
        self.0.stats()
    }
}

/// Exponential (geometric) loads of varying mean.
pub struct GeometricFamily(TableCache);

impl GeometricFamily {
    /// New family with tabulation tolerance and length cap.
    #[must_use]
    pub fn new(tol: f64, max_len: usize) -> Self {
        Self(TableCache::new(tol, max_len))
    }
}

impl LoadFamily for GeometricFamily {
    fn make(&self, mean: f64) -> Arc<Tabulated> {
        self.0.get(mean, Geometric::from_mean)
    }

    fn name(&self) -> &'static str {
        "exponential"
    }

    fn cache_stats(&self) -> (u64, u64) {
        self.0.stats()
    }
}

/// Algebraic loads of varying mean with fixed tail exponent `z`.
pub struct AlgebraicFamily {
    z: f64,
    cache: TableCache,
}

impl AlgebraicFamily {
    /// New family with fixed exponent `z > 2`.
    #[must_use]
    pub fn new(z: f64, tol: f64, max_len: usize) -> Self {
        assert!(z > 2.0, "algebraic family requires z > 2");
        Self { z, cache: TableCache::new(tol, max_len) }
    }
}

impl LoadFamily for AlgebraicFamily {
    fn make(&self, mean: f64) -> Arc<Tabulated> {
        self.cache.get(mean, |m| {
            Algebraic::from_mean(self.z, m).unwrap_or_else(|e| {
                panic!("algebraic family mean {m} unachievable at z = {z}: {e:?}", z = self.z)
            })
        })
    }

    fn name(&self) -> &'static str {
        "algebraic"
    }

    fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }
}

/// Diagnostics of one retrying evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryOutcome {
    /// Self-consistent effective mean load `L̂`.
    pub effective_mean: f64,
    /// Per-attempt blocking probability `θ` at `L̂`.
    pub blocking: f64,
    /// Expected retries per flow `D = θ/(1−θ)`.
    pub retries: f64,
    /// Per-original-flow reservation utility `R̃(C)`.
    pub reservation: f64,
}

/// The α-free part of one retrying evaluation.
#[derive(Clone, Copy)]
struct Inflation {
    /// `L̂`.
    effective_mean: f64,
    /// `θ` at `L̂`, clamped to 0.99.
    blocking: f64,
    /// `D = θ/(1−θ)`.
    retries: f64,
    /// Per-attempt reservation utility `R_{L̂}(C)`.
    attempt_reservation: f64,
}

/// The §5.2 retrying model.
pub struct RetryModel<U: Utility + Clone, F: LoadFamily> {
    family: F,
    utility: U,
    base_mean: f64,
    /// Utility penalty per retry `α`.
    alpha: f64,
    /// Optional fixed admission cap (footnote 9: lets a reservation network
    /// cap even *elastic* flows, where the utility-derived threshold is
    /// infinite).
    admission_cap: Option<u64>,
}

impl<U: Utility + Clone, F: LoadFamily> RetryModel<U, F> {
    /// New retrying model over a load family at base mean `L` with retry
    /// penalty `alpha`.
    ///
    /// # Panics
    ///
    /// Panics unless `base_mean > 0` and `0 ≤ alpha ≤ 1`.
    pub fn new(family: F, utility: U, base_mean: f64, alpha: f64) -> Self {
        assert!(base_mean > 0.0, "base mean must be positive");
        assert!((0.0..=1.0).contains(&alpha), "retry penalty must be in [0, 1]");
        Self { family, utility, base_mean, alpha, admission_cap: None }
    }

    /// Impose a fixed admission cap on the reservation network (paper
    /// footnote 9). With elastic applications this is the only way a
    /// reservation architecture differs from best-effort — and with
    /// retries, capping can *raise* per-flow utility, since delayed flows
    /// are eventually served at a better share.
    ///
    /// # Panics
    ///
    /// Panics on a zero cap.
    #[must_use]
    pub fn with_admission_cap(mut self, cap: u64) -> Self {
        assert!(cap > 0, "admission cap must be positive");
        self.admission_cap = Some(cap);
        self
    }

    /// Base mean load `L`.
    pub fn base_mean(&self) -> f64 {
        self.base_mean
    }

    /// Retry penalty `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    fn model_at(&self, mean: f64) -> DiscreteModel<U> {
        let m = DiscreteModel::new(self.family.make(mean), self.utility.clone());
        match self.admission_cap {
            Some(cap) => m.with_admission_cap(cap),
            None => m,
        }
    }

    /// Best-effort utility — unaffected by retries (no blocking).
    pub fn best_effort(&self, capacity: f64) -> f64 {
        self.model_at(self.base_mean).best_effort(capacity)
    }

    /// The load family the model draws its tables from.
    pub fn family(&self) -> &F {
        &self.family
    }

    /// The α-free half of an evaluation at capacity `C`: the
    /// load-inflation fixed point `L̂ = L·(1 + D(L̂))` and what it yields.
    fn inflate(&self, capacity: f64) -> NumResult<Inflation> {
        let l = self.base_mean;
        // D(L̂) from the blocking rate; clamp θ away from 1 so the map stays
        // finite in deep overload (the physical reading: finite patience).
        let d_of = |lhat: f64| {
            let m = self.model_at(lhat.max(l));
            let theta = m.blocking_fraction(capacity).min(0.99);
            theta / (1.0 - theta)
        };
        let lhat = fixed_point(|x| l * (1.0 + d_of(x)), l, 0.5, 1e-9, 500)?;
        let model = self.model_at(lhat.max(l));
        let theta = model.blocking_fraction(capacity).min(0.99);
        Ok(Inflation {
            effective_mean: lhat,
            blocking: theta,
            retries: theta / (1.0 - theta),
            attempt_reservation: model.reservation(capacity),
        })
    }

    /// The α half: per-original-flow utility `R̃ = ((L̂/L)·R_{L̂} − α·D)⁺`.
    fn penalized(&self, inflation: &Inflation, alpha: f64) -> f64 {
        let Inflation { effective_mean: lhat, retries: d, attempt_reservation: r, .. } = *inflation;
        ((lhat / self.base_mean) * r - alpha * d).max(0.0)
    }

    /// Solve the load-inflation fixed point and evaluate the reservation
    /// architecture with retries at capacity `C`.
    ///
    /// # Errors
    ///
    /// Propagates fixed-point failures (extreme overload where the retry
    /// storm diverges).
    pub fn evaluate(&self, capacity: f64) -> NumResult<RetryOutcome> {
        let inflation = self.inflate(capacity)?;
        Ok(RetryOutcome {
            effective_mean: inflation.effective_mean,
            blocking: inflation.blocking,
            retries: inflation.retries,
            reservation: self.penalized(&inflation, self.alpha),
        })
    }

    /// Performance gap with retries `δ̃(C) = R̃(C) − B(C)`.
    ///
    /// # Errors
    ///
    /// Propagates [`RetryModel::evaluate`] failures.
    pub fn performance_gap(&self, capacity: f64) -> NumResult<f64> {
        Ok((self.evaluate(capacity)?.reservation - self.best_effort(capacity)).max(0.0))
    }

    /// `δ̃(C)` for every penalty in `alphas` (the model's own `α` is not
    /// used) from one fixed-point solve: the load inflation does not depend
    /// on `α`. Entry `i` is bitwise what a model built with `alphas[i]`
    /// returns from [`RetryModel::performance_gap`].
    ///
    /// # Errors
    ///
    /// Propagates fixed-point failures, as [`RetryModel::evaluate`].
    ///
    /// # Panics
    ///
    /// Panics unless every penalty is in `[0, 1]`.
    pub fn performance_gaps<const N: usize>(
        &self,
        capacity: f64,
        alphas: [f64; N],
    ) -> NumResult<[f64; N]> {
        assert!(alphas.iter().all(|a| (0.0..=1.0).contains(a)), "retry penalty must be in [0, 1]");
        let inflation = self.inflate(capacity)?;
        let best_effort = self.best_effort(capacity);
        Ok(alphas.map(|a| (self.penalized(&inflation, a) - best_effort).max(0.0)))
    }

    /// Bandwidth gap with retries: solves `B(C + Δ) = R̃(C)`.
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub fn bandwidth_gap(&self, capacity: f64) -> NumResult<f64> {
        let target = self.evaluate(capacity)?.reservation;
        let base = self.model_at(self.base_mean);
        if base.best_effort(capacity) + 1e-12 >= target {
            return Ok(0.0);
        }
        let f = |d: f64| base.best_effort(capacity + d) - target;
        let br = expand_bracket_up(f, 0.0, 0.01 * self.base_mean, 1e7 * self.base_mean)?;
        if br.lo == br.hi {
            return Ok(br.lo);
        }
        brent(f, br.lo, br.hi, 1e-9 * self.base_mean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bevra_utility::{AdaptiveExp, Rigid};

    #[test]
    fn no_blocking_means_no_inflation() {
        // Poisson load deeply overprovisioned: θ ≈ 0, L̂ ≈ L, R̃ ≈ R.
        let rm = RetryModel::new(PoissonFamily::new(1e-12, 1 << 20), Rigid::unit(), 50.0, 0.1);
        let out = rm.evaluate(200.0).unwrap();
        assert!((out.effective_mean - 50.0).abs() < 1e-6);
        assert!(out.blocking < 1e-10);
        assert!(out.retries < 1e-10);
    }

    #[test]
    fn blocking_inflates_load() {
        let rm = RetryModel::new(PoissonFamily::new(1e-12, 1 << 20), Rigid::unit(), 50.0, 0.1);
        let out = rm.evaluate(40.0).unwrap();
        assert!(out.effective_mean > 50.0, "L̂ = {}", out.effective_mean);
        assert!(out.blocking > 0.05);
        // Self-consistency: L̂ = L(1 + D).
        assert!((out.effective_mean - 50.0 * (1.0 + out.retries)).abs() < 1e-4);
    }

    #[test]
    fn zero_penalty_recovers_higher_utility() {
        // With α = 0 the per-flow reservation utility is the conditional
        // utility of eventually-admitted flows — at least the basic R.
        let fam = GeometricFamily::new(1e-12, 1 << 20);
        let rm = RetryModel::new(fam, AdaptiveExp::paper(), 50.0, 0.0);
        let c = 60.0;
        let out = rm.evaluate(c).unwrap();
        let basic = DiscreteModel::new(
            GeometricFamily::new(1e-12, 1 << 20).make(50.0),
            AdaptiveExp::paper(),
        );
        assert!(out.reservation >= basic.reservation(c) - 0.02, "retry {} vs basic {}", out.reservation, basic.reservation(c));
    }

    #[test]
    fn penalty_reduces_utility() {
        let c = 45.0;
        let mk = |alpha| {
            RetryModel::new(GeometricFamily::new(1e-12, 1 << 20), Rigid::unit(), 50.0, alpha)
                .evaluate(c)
                .unwrap()
                .reservation
        };
        let r0 = mk(0.0);
        let r_half = mk(0.5);
        assert!(r_half < r0, "α=0.5 gives {r_half} vs α=0 {r0}");
    }

    #[test]
    fn large_c_disutility_is_alpha_theta() {
        // §5.2: for large C, R̃ ≈ 1 − α·θ.
        let rm = RetryModel::new(GeometricFamily::new(1e-12, 1 << 20), Rigid::unit(), 50.0, 0.5);
        let c = 250.0;
        let out = rm.evaluate(c).unwrap();
        let predicted = 1.0 - 0.5 * out.blocking;
        assert!((out.reservation - predicted).abs() < 5e-3, "{} vs {predicted}", out.reservation);
    }

    /// Lends one family to several models, which then share its cache.
    struct Lent<'a, F>(&'a F);

    impl<F: LoadFamily> LoadFamily for Lent<'_, F> {
        fn make(&self, mean: f64) -> Arc<Tabulated> {
            self.0.make(mean)
        }

        fn name(&self) -> &'static str {
            self.0.name()
        }
    }

    #[test]
    fn one_solve_serves_every_alpha_bitwise() {
        const ALPHAS: [f64; 3] = [0.0, 0.1, 0.5];
        // At L = 10, C = 3 clamps θ at 0.99; C = 20 and 40 block lightly.
        // The per-α reference models share a cache apart from the model
        // under test, so each table is built twice, not four times.
        fn check<F: LoadFamily>(family: impl Fn() -> F) {
            let shared = RetryModel::new(family(), AdaptiveExp::paper(), 10.0, 0.0);
            assert_eq!(shared.evaluate(3.0).unwrap().blocking, 0.99);
            let lent = family();
            for c in [3.0, 20.0, 40.0] {
                let gaps = shared.performance_gaps(c, ALPHAS).unwrap();
                for (alpha, gap) in ALPHAS.into_iter().zip(gaps) {
                    let one = RetryModel::new(Lent(&lent), AdaptiveExp::paper(), 10.0, alpha);
                    let want = one.performance_gap(c).unwrap();
                    let at = format!("{} C = {c} α = {alpha}", one.family().name());
                    assert_eq!(gap.to_bits(), want.to_bits(), "{at}");
                }
            }
        }
        check(|| GeometricFamily::new(1e-10, 1 << 12));
        check(|| AlgebraicFamily::new(3.0, 1e-7, 1 << 12));
    }

    #[test]
    fn family_cache_counts_builds_as_misses() {
        let fam = GeometricFamily::new(1e-10, 1 << 12);
        let a = fam.make(50.0);
        // Same quantized mean: served from the cache.
        let b = fam.make(50.000_01);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(fam.cache_stats(), (1, 1));
    }

    #[test]
    fn bandwidth_gap_roundtrip_with_retries() {
        let rm = RetryModel::new(GeometricFamily::new(1e-12, 1 << 20), AdaptiveExp::paper(), 50.0, 0.1);
        let c = 75.0;
        let d = rm.bandwidth_gap(c).unwrap();
        let target = rm.evaluate(c).unwrap().reservation;
        assert!((rm.best_effort(c + d) - target).abs() < 1e-6);
    }
}
