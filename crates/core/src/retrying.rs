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
use bevra_load::{Algebraic, Geometric, LoadModel, Poisson, PowerTable, Tabulated};
use bevra_num::{brent, expand_bracket_up, NumError, NumResult};
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
/// The cells `j` of this lattice (mean `j/10⁴`) are also what the retry
/// fixed point is solved over: it is the least cell `c` with
/// `quantize(L·(1 + D(θ_c))) == c`, so each probe builds one table.
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
///
/// Every mean is calibrated against a shared `k^z` table
/// ([`Algebraic::from_mean_with`]), so each `k^z` is computed once per
/// table, not once per mean. The family keeps one table per worker that
/// calibrates at the same time: a worker pops one (or starts one if none is
/// free), calibrates without holding the lock, and pushes it back.
pub struct AlgebraicFamily {
    z: f64,
    cache: TableCache,
    powers: Mutex<Vec<PowerTable>>,
}

impl AlgebraicFamily {
    /// New family with fixed exponent `z > 2`.
    #[must_use]
    pub fn new(z: f64, tol: f64, max_len: usize) -> Self {
        assert!(z > 2.0, "algebraic family requires z > 2");
        Self { z, cache: TableCache::new(tol, max_len), powers: Mutex::default() }
    }

    /// The calibrated model at `mean`, on a `k^z` table from the pool.
    fn calibrate(&self, mean: f64) -> Algebraic {
        let mut table = self.pool().pop().unwrap_or_else(|| PowerTable::new(self.z));
        let model = Algebraic::from_mean_with(&mut table, mean);
        self.pool().push(table);
        model.unwrap_or_else(|e| {
            panic!("algebraic family mean {mean} unachievable at z = {z}: {e:?}", z = self.z)
        })
    }

    /// A table is pushed back whole or not at all, so a poisoned pool is
    /// usable.
    fn pool(&self) -> MutexGuard<'_, Vec<PowerTable>> {
        self.powers.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl LoadFamily for AlgebraicFamily {
    fn make(&self, mean: f64) -> Arc<Tabulated> {
        self.cache.get(mean, |m| self.calibrate(m))
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
    /// Effective mean load `L̂ = L·(1 + D)`, bitwise, with `θ` and `D` taken
    /// from the table at `quantize(L̂)`: the least fixed point of the load
    /// map on the 10⁴-per-unit mean lattice (where a damped iteration from
    /// `L` stops), and exactly self-consistent.
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
    /// `D`: `θ/(1−θ)`, or `θ` where a test linearizes it.
    retries: f64,
    /// Per-attempt reservation utility `R_{L̂}(C)`.
    attempt_reservation: f64,
}

/// One cell `j` of the mean lattice under the load map: the table at mean
/// `j/10⁴`, what it yields, and the image `G(j) = L·(1 + D(θ_j))`.
struct Cell<U: Utility> {
    model: DiscreteModel<U>,
    blocking: f64,
    retries: f64,
    image: f64,
    /// `10⁴·G(j) − (j + ½)`: negative exactly when `quantize(G(j)) ≤ j`.
    excess: f64,
}

/// `D = θ/(1−θ)`: the expected retries of a flow whose attempts are each
/// blocked independently with probability `θ`.
fn exact_retries(theta: f64) -> f64 {
    theta / (1.0 - theta)
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

    /// Lattice cell `j` at capacity `C` with `D = retries(θ_j)`.
    fn cell(&self, capacity: f64, j: u64, retries: impl Fn(f64) -> f64) -> NumResult<Cell<U>> {
        let model = self.model_at(j as f64 / 1e4);
        // Clamp θ away from 1 so the map stays finite in deep overload (the
        // physical reading: finite patience); it also keeps G below 100·L.
        let blocking = model.blocking_fraction(capacity).min(0.99);
        let retries = retries(blocking);
        let image = self.base_mean * (1.0 + retries);
        if !image.is_finite() {
            return Err(NumError::NonFinite { what: "retry load map", at: j as f64 / 1e4 });
        }
        let excess = image * 1e4 - (j as f64 + 0.5);
        Ok(Cell { model, blocking, retries, image, excess })
    }

    /// The α-free half of an evaluation at capacity `C`: the load-inflation
    /// fixed point `L̂ = L·(1 + D(L̂))` with `D = retries(θ)`, and what it
    /// yields. It is solved over lattice cells: the least cell `c` in
    /// `[quantize(L), quantize(100·L)]` with `quantize(G(c)) ≤ c`, where
    /// `G(j) = L·(1 + retries(θ_j))`.
    ///
    /// `G` is constant on each cell and nondecreasing, so a damped
    /// iteration from `L` climbs to exactly this cell; the solve brackets
    /// it instead. Both ends are valid: `G ≥ L` puts the lower end at or
    /// below its image, and the 0.99 clamp on `θ` keeps `G < 100·L`.
    ///
    /// In deep overload `θ` clamps at 0.99 on the cells near the top, so
    /// each maps to the top cell `quantize(100·L)`: the top maps onto
    /// itself, the cells below it map above themselves, and the top is the
    /// answer. So when the top maps onto itself, `top − 1` is probed before
    /// any secant step. If it maps above itself the bracket is closed;
    /// otherwise it becomes the upper end. Every capacity in that regime
    /// probes the same two cells, which the family's cache then serves.
    ///
    /// The bracket shrinks by Illinois steps rounded to the lattice and
    /// clamped strictly inside it, with a bisection step whenever two
    /// steps fail to halve it, until its ends are adjacent cells. The
    /// upper one is returned only if it maps onto itself, with
    /// `L̂ = G(c)` and `θ`, `D` and `R` from its table. (Were `G` to cross
    /// the diagonal three times, the bracket could close on the third
    /// crossing, and the top rule could close on the top above a lower
    /// crossing; the ext-retrying grids and the tests find the same cells
    /// as the damped iteration.)
    fn inflate(
        &self,
        capacity: f64,
        retries: impl Fn(f64) -> f64 + Copy,
    ) -> NumResult<Inflation> {
        let mut a = quantize(self.base_mean);
        let low = self.cell(capacity, a, retries)?;
        let mut fa = low.excess;
        let (mut b, mut high) = if fa < 0.0 {
            (a, low)
        } else {
            let b = quantize(100.0 * self.base_mean);
            (b, self.cell(capacity, b, retries)?)
        };
        if b - a > 1 && quantize(high.image) == b {
            let below = self.cell(capacity, b - 1, retries)?;
            if below.excess < 0.0 {
                (b, high) = (b - 1, below);
            } else {
                (a, fa) = (b - 1, below.excess);
            }
        }
        let mut fb = high.excess;
        // Which end the last step moved (Illinois halves the other end's
        // value when the same end moves twice), and the bracket widths
        // before the last two steps.
        let mut moved_high = None;
        let mut widths = [u64::MAX; 2];
        while b - a > 1 {
            let w = b - a;
            let secant = b as f64 - fb * w as f64 / (fb - fa);
            let m = if w > widths[0] / 2 || !secant.is_finite() {
                a + w / 2
            } else {
                (secant.round() as u64).clamp(a + 1, b - 1)
            };
            widths = [widths[1], w];
            let probe = self.cell(capacity, m, retries)?;
            if probe.excess < 0.0 {
                (b, fb, high) = (m, probe.excess, probe);
                if moved_high == Some(true) {
                    fa /= 2.0;
                }
                moved_high = Some(true);
            } else {
                (a, fa) = (m, probe.excess);
                if moved_high == Some(false) {
                    fb /= 2.0;
                }
                moved_high = Some(false);
            }
        }
        if quantize(high.image) != b {
            return Err(NumError::NoBracket { what: "a retry fixed point on the mean lattice" });
        }
        Ok(Inflation {
            effective_mean: high.image,
            blocking: high.blocking,
            retries: high.retries,
            attempt_reservation: high.model.reservation(capacity),
        })
    }

    /// The α half: per-original-flow utility `R̃ = ((L̂/L)·R_{L̂} − α·D)⁺`.
    fn penalized(&self, inflation: &Inflation, alpha: f64) -> f64 {
        let Inflation { effective_mean: lhat, retries: d, attempt_reservation: r, .. } = *inflation;
        ((lhat / self.base_mean) * r - alpha * d).max(0.0)
    }

    /// Solve the load-inflation fixed point and evaluate the reservation
    /// architecture with retries at capacity `C`. The fixed point is the
    /// least one on the 10⁴-per-unit mean lattice the family's tables are
    /// built on, and it is exactly self-consistent: `L̂ = L·(1 + D)` with
    /// `D` from the table at `L̂`'s own cell.
    ///
    /// # Errors
    ///
    /// A non-finite blocking rate, or a load map that is not monotone on
    /// the lattice, so that the solve's last cell does not map onto itself.
    pub fn evaluate(&self, capacity: f64) -> NumResult<RetryOutcome> {
        let inflation = self.inflate(capacity, exact_retries)?;
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
        let inflation = self.inflate(capacity, exact_retries)?;
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
    use bevra_num::fixed_point;
    use bevra_utility::{AdaptiveExp, Rigid};
    use std::hint::black_box;

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

    /// `L̂` from the damped iteration the lattice solve replaced, and the
    /// number of map evaluations it took.
    fn damped<F: LoadFamily>(rm: &RetryModel<AdaptiveExp, F>, c: f64) -> (f64, usize) {
        let l = rm.base_mean;
        let mut evals = 0;
        let map = |x: f64| {
            evals += 1;
            l * (1.0 + exact_retries(rm.model_at(x.max(l)).blocking_fraction(c).min(0.99)))
        };
        (fixed_point(map, l, 0.5, 1e-9, 500).unwrap(), evals)
    }

    /// Capacities for the solve tests at L = 10 on 2¹²-entry tables:
    /// C = 3 clamps θ at 0.99, C = 11 is near-critical and C = 40 blocks
    /// lightly.
    const SOLVE_CAPACITIES: [f64; 3] = [3.0, 11.0, 40.0];

    #[test]
    fn lattice_solve_lands_in_the_damped_iterations_cell() {
        fn check<F: LoadFamily>(family: F) {
            let rm = RetryModel::new(family, AdaptiveExp::paper(), 10.0, 0.0);
            for c in SOLVE_CAPACITIES {
                let (want, evals) = damped(&rm, c);
                let got = rm.evaluate(c).unwrap().effective_mean;
                let at = format!("{} C = {c}", rm.family().name());
                assert!(c != 11.0 || evals >= 100, "{at}: {evals} damped steps");
                assert_eq!(quantize(got), quantize(want), "{at}: {got} vs {want}");
                assert!((got - want).abs() <= 1e-4, "{at}: {got} vs {want}");
            }
        }
        check(GeometricFamily::new(1e-10, 1 << 12));
        check(AlgebraicFamily::new(3.0, 1e-7, 1 << 12));
    }

    #[test]
    fn solved_cell_is_exactly_self_consistent_and_first_of_its_run() {
        fn check<F: LoadFamily>(family: F) {
            let rm = RetryModel::new(family, AdaptiveExp::paper(), 10.0, 0.0);
            for c in SOLVE_CAPACITIES {
                let out = rm.evaluate(c).unwrap();
                let at = format!("{} C = {c}", rm.family().name());
                let consistent = 10.0 * (1.0 + out.retries);
                assert_eq!(out.effective_mean.to_bits(), consistent.to_bits(), "{at}");
                let cell = quantize(out.effective_mean);
                let theta = rm.model_at(cell as f64 / 1e4).blocking_fraction(c).min(0.99);
                assert_eq!(theta.to_bits(), out.blocking.to_bits(), "{at}");
                // Near-critical, a run of consecutive cells map onto
                // themselves; the cell below maps above itself, so c is the
                // run's first, where a climb from L stops.
                assert!(cell > quantize(10.0), "{at}");
                let below = rm.cell(c, cell - 1, exact_retries).unwrap();
                assert!(quantize(below.image) > cell - 1, "{at}");
            }
        }
        check(GeometricFamily::new(1e-10, 1 << 12));
        check(AlgebraicFamily::new(3.0, 1e-7, 1 << 12));
    }

    #[test]
    fn clamped_capacities_share_the_top_two_tables() {
        // At L = 10, C = 3, 5 and 8 clamp θ at 0.99 on every cell near the
        // top: each solve probes quantize(L), the top and top − 1, and the
        // three capacities share those three tables.
        fn check<F: LoadFamily>(family: F) {
            let rm = RetryModel::new(family, AdaptiveExp::paper(), 10.0, 0.0);
            let name = rm.family().name();
            for c in [3.0, 5.0, 8.0] {
                let out = rm.evaluate(c).unwrap();
                assert_eq!(out.blocking, 0.99, "{name} C = {c}");
                assert_eq!(quantize(out.effective_mean), quantize(1000.0), "{name} C = {c}");
            }
            assert_eq!(rm.family().cache_stats().1, 3, "{name}: tables built");
        }
        check(GeometricFamily::new(1e-10, 1 << 12));
        check(AlgebraicFamily::new(3.0, 1e-7, 1 << 12));
    }

    #[test]
    fn full_quality_near_critical_point_converges() {
        // The full ext-retrying grid's 28th capacity, C ≈ 104.915, as
        // `capacity_grid` computes it: 500 damped iterations stopped short
        // of the fixed point there, and each built a table. `black_box`
        // keeps `powi` from being folded at compile time, which rounds
        // differently.
        let (lo, hi, n, i) = black_box((100.0_f64 / 20.0, 10.0 * 100.0, 48, 27));
        let c = lo * (hi / lo).powf(1.0 / (n - 1) as f64).powi(i);
        assert_eq!(c, 104.915_172_666_540_73);
        let family = GeometricFamily::new(1e-10, 1 << 20);
        let rm = RetryModel::new(family, AdaptiveExp::paper(), 100.0, 0.0);
        assert!(rm.evaluate(c).is_ok());
        let (_, built) = rm.family().cache_stats();
        assert!(built <= 16, "{built} tables built");
    }

    #[test]
    fn linearized_retry_count_explains_a_fifth_of_discrepancy_2() {
        // The E-R row with the paper's linearized accounting D ≈ θ:
        // L̂ = L(1 + θ) and R̃ = (L̂/L)·R − α·θ. The exact D = θ/(1−θ) gives
        // δ̃(4k̄) = 0.0561 and the paper 0.027; linearizing gives 0.0498.
        let family = AlgebraicFamily::new(3.0, 1e-7, 1 << 18);
        let rm = RetryModel::new(family, AdaptiveExp::paper(), 100.0, 0.1);
        let c = 400.0;
        let linear = rm.inflate(c, |theta| theta).unwrap();
        let consistent = 100.0 * (1.0 + linear.blocking);
        assert_eq!(linear.effective_mean.to_bits(), consistent.to_bits());
        let gap = rm.penalized(&linear, 0.1) - rm.best_effort(c);
        assert!((gap / 0.0498 - 1.0).abs() <= 0.02, "linearized δ̃ = {gap}");
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
