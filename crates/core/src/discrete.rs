//! The discrete variable-load model (paper §3.1).

use bevra_load::{PowerLawTail, Tabulated, SMOOTH_HEAD};
use bevra_num::NeumaierSum;
use bevra_utility::{k_max_discrete, Utility};
use std::sync::Arc;

/// The stretch `(head, last]` of a load table that `B(C)` integrates
/// instead of summing: one shared plan for [`DiscreteModel::best_effort`]
/// and the grid sweep (`crate::discrete_batch`), so both add the
/// same value at the same point of each Neumaier sequence.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SmoothTail {
    density: PowerLawTail,
    /// Last index summed term by term.
    pub(crate) head: u64,
    /// Last table index.
    last: u64,
}

impl SmoothTail {
    /// The plan for capacity `C`, or `None` when the walk covers the
    /// whole table: no [`Tabulated::smooth_tail`], or a head that reaches
    /// the table end. The head is at least [`SMOOTH_HEAD`] and lies past
    /// `C/b` for every [`Utility::knots`] `b`, so `π(C/x)` is smooth over
    /// the integrated stretch.
    pub(crate) fn plan(load: &Tabulated, utility: &impl Utility, capacity: f64) -> Option<Self> {
        let density = load.smooth_tail()?;
        let head = utility
            .knots()
            .into_iter()
            .fold(SMOOTH_HEAD, |h, b| h.max(((capacity / b).ceil() as u64).saturating_add(1)));
        let last = load.len() as u64 - 1;
        (head < last).then_some(Self { density, head, last })
    }

    /// `Σ_{head<k≤last} P(k)·k·π(C/k)` by [`PowerLawTail::sum`] of
    /// `f(x) = ρ(x)·x·π(C/x)`, whose end-correction slope over one table
    /// step stays past every knot.
    pub(crate) fn sum(&self, pi: impl Fn(f64) -> f64, capacity: f64) -> f64 {
        self.density.sum(self.head, self.last, |x, rho| rho * x * pi(capacity / x))
    }
}

/// A single bottleneck link under a random offered load, evaluated for both
/// architectures.
///
/// Holds the tabulated load distribution `P(k)` and the application utility
/// `π`. All returned utilities are **normalized per mean flow** (`V/k̄`),
/// matching the paper's `B(C)` and `R(C)` plots, so they live in `[0, 1]`.
///
/// The load is shared via `Arc` so that extensions which evaluate many
/// closely related models (the retrying fixed point rebuilds the model at
/// every inflated load) can do so without copying megabyte-scale tables.
pub struct DiscreteModel<U: Utility> {
    load: Arc<Tabulated>,
    utility: U,
    /// Optional admission cap overriding the utility-derived `k_max(C)` —
    /// the paper's footnote 9: with elastic applications the standard
    /// `k_max` is infinite, but a *chosen* finite cap plus retries can
    /// still raise utility.
    k_max_override: Option<u64>,
}

impl<U: Utility> DiscreteModel<U> {
    /// New model from a tabulated load and a utility function.
    ///
    /// # Panics
    ///
    /// Panics if the load has zero mean (no flows ever present).
    pub fn new(load: impl Into<Arc<Tabulated>>, utility: U) -> Self {
        let load = load.into();
        assert!(load.mean() > 0.0, "load distribution must have positive mean");
        Self { load, utility, k_max_override: None }
    }

    /// Replace the utility-derived admission threshold with a fixed cap
    /// (paper footnote 9). Pass the builder result on; the override applies
    /// to every capacity.
    ///
    /// # Panics
    ///
    /// Panics on a zero cap.
    #[must_use]
    pub fn with_admission_cap(mut self, cap: u64) -> Self {
        assert!(cap > 0, "admission cap must be positive");
        self.k_max_override = Some(cap);
        self
    }

    /// The load distribution `P(k)`.
    pub fn load(&self) -> &Tabulated {
        &self.load
    }

    /// The utility function.
    pub fn utility(&self) -> &U {
        &self.utility
    }

    /// The fixed admission cap installed by [`Self::with_admission_cap`],
    /// if any. Exposed so grid evaluators (`crate::discrete_batch`) can
    /// mirror [`Self::k_max`] exactly.
    pub fn admission_cap(&self) -> Option<u64> {
        self.k_max_override
    }

    /// Mean offered load `k̄`.
    pub fn mean_load(&self) -> f64 {
        self.load.mean()
    }

    /// Borrowed type-erased view of this model, for the object-safe
    /// [`crate::kernel::Kernel`] backends.
    ///
    /// The load table is shared (`Arc` clone, no copy) and the utility is
    /// borrowed as `&dyn Utility`, so the view evaluates **bitwise
    /// identically** to `self`: dynamic dispatch selects the same method
    /// bodies the monomorphized path inlines, and Rust carries no
    /// fast-math semantics that could re-associate the arithmetic.
    pub fn as_dyn(&self) -> DiscreteModel<&dyn Utility> {
        DiscreteModel {
            load: Arc::clone(&self.load),
            utility: &self.utility,
            k_max_override: self.k_max_override,
        }
    }

    /// Admission threshold `k_max(C) = argmax_k k·π(C/k)`.
    ///
    /// `None` means "no finite maximizer": the utility is elastic (or the
    /// capacity too small for any utility at all), and a reservation network
    /// would admit everyone — the two architectures coincide.
    pub fn k_max(&self, capacity: f64) -> Option<u64> {
        if capacity <= 0.0 {
            return None;
        }
        if let Some(cap) = self.k_max_override {
            return Some(cap);
        }
        k_max_discrete(&self.utility, capacity).ok()
    }

    /// Normalized best-effort utility
    /// `B(C) = (1/k̄)·Σ_k P(k)·k·π(C/k)`.
    ///
    /// The sum is taken with compensated accumulation and an early exit:
    /// once the remaining tail's contribution is provably below 1e−15 of
    /// the accumulated value (π is nonincreasing in `k`, so the remainder
    /// is bounded by `π(C/k)·tail_mean(k)/k̄`), summation stops and the
    /// bound's midpoint is added.
    ///
    /// Where the walk stops otherwise: a table with a
    /// [`Tabulated::smooth_tail`] (algebraic loads with entries past index
    /// [`SMOOTH_HEAD`]) is summed only up to
    /// `max(SMOOTH_HEAD, ⌈C/b⌉ + 1)` over the utility's knots `b`, and the
    /// rest up to the table end is added as one quadrature value — 68 `π`
    /// calls instead of up to a million. Every other table is
    /// walked to its end. The grid sweep
    /// ([`crate::discrete_batch::sweep_grid`]) does the same.
    pub fn best_effort(&self, capacity: f64) -> f64 {
        if capacity <= 0.0 {
            return 0.0;
        }
        // Fault-injection site: a `nan:eval/best_effort` or `inf:...` rule
        // (keyed by the capacity's bit pattern) corrupts the returned
        // value; with no plan active this is the identity, bit-exact.
        bevra_faults::corrupt_f64(
            "eval/best_effort",
            capacity.to_bits(),
            self.best_effort_uninstrumented(capacity),
        )
    }

    fn best_effort_uninstrumented(&self, capacity: f64) -> f64 {
        let kbar = self.load.mean();
        let mut acc = NeumaierSum::new();
        let tail = SmoothTail::plan(&self.load, &self.utility, capacity);
        let end = tail.map_or(self.load.len() as u64, |t| t.head + 1);
        for k in 1..end {
            let p = self.load.pmf(k);
            let pi = self.utility.value(capacity / k as f64);
            if p > 0.0 {
                acc.add(p * k as f64 * pi);
            }
            // Early exit: remaining Σ_{j>k} P(j)·j·π(C/j) ≤ π(C/k)·tail mean
            // (π is nonincreasing in k). Checked every 64 entries, and
            // additionally as soon as π reaches exactly 0 — from there every
            // remaining term is exactly 0.0 and the bound is exact, so the
            // exit stays bitwise neutral even for tables shorter than 64
            // entries (which the periodic check alone never reaches).
            if k % 64 == 0 || pi == 0.0 {
                let bound = pi * self.load.tail_mean_above(k);
                if bound <= 1e-15 * acc.total().abs().max(1e-300) {
                    acc.add(0.5 * bound);
                    return acc.total() / kbar;
                }
            }
        }
        if let Some(t) = tail {
            acc.add(t.sum(|b| self.utility.value(b), capacity));
        }
        acc.total() / kbar
    }

    /// Normalized reservation utility
    /// `R(C) = (1/k̄)·[Σ_{k≤k_max} P(k)·k·π(C/k)
    ///                + k_max·π(C/k_max)·P[k > k_max]]`.
    ///
    /// Under overload each of the `k_max` admitted flows receives
    /// `C/k_max`, so the overload term collapses to a closed form via the
    /// cached tail mass — O(k_max) total.
    pub fn reservation(&self, capacity: f64) -> f64 {
        self.reservation_with_kmax(capacity, self.k_max(capacity))
    }

    /// [`Self::reservation`] with the admission threshold supplied by the
    /// caller instead of recomputed.
    ///
    /// `kmax` must be what [`Self::k_max`] would return for `capacity`
    /// (the parallel sweep engine memoizes that table per utility family
    /// and injects it here); passing anything else evaluates a *different*
    /// admission policy — which is exactly how footnote 9's chosen-cap
    /// studies use it.
    pub fn reservation_with_kmax(&self, capacity: f64, kmax: Option<u64>) -> f64 {
        // Fault-injection site, mirroring `best_effort` (`eval/reservation`).
        bevra_faults::corrupt_f64(
            "eval/reservation",
            capacity.to_bits(),
            self.reservation_with_kmax_uninstrumented(capacity, kmax),
        )
    }

    fn reservation_with_kmax_uninstrumented(&self, capacity: f64, kmax: Option<u64>) -> f64 {
        if capacity <= 0.0 {
            return 0.0;
        }
        let Some(kmax) = kmax else {
            // No finite peak: admission control never rejects, so the two
            // architectures deliver identical utility.
            return self.best_effort(capacity);
        };
        if kmax == 0 {
            return 0.0;
        }
        let kbar = self.load.mean();
        let mut acc = NeumaierSum::new();
        let cap_k = kmax.min(self.load.len() as u64 - 1);
        for k in 1..=cap_k {
            let p = self.load.pmf(k);
            if p > 0.0 {
                acc.add(p * k as f64 * self.utility.value(capacity / k as f64));
            }
        }
        let overload_mass = self.load.tail_mass_above(cap_k);
        if overload_mass > 0.0 {
            acc.add(kmax as f64 * self.utility.value(capacity / kmax as f64) * overload_mass);
        }
        acc.total() / kbar
    }

    /// Fraction of *flows* (not load levels) denied service at capacity `C`:
    /// `θ(C) = (1/k̄)·Σ_{k>k_max} P(k)·(k − k_max)`.
    ///
    /// This is the blocking rate that drives the retrying extension (§5.2);
    /// it is 0 whenever `k_max` is absent (elastic) or the table never
    /// exceeds it.
    pub fn blocking_fraction(&self, capacity: f64) -> f64 {
        let Some(kmax) = self.k_max(capacity) else {
            return 0.0;
        };
        let kbar = self.load.mean();
        let tail_mean = self.load.tail_mean_above(kmax);
        let tail_mass = self.load.tail_mass_above(kmax);
        ((tail_mean - kmax as f64 * tail_mass) / kbar).max(0.0)
    }

    /// Total (unnormalized) best-effort utility `V_B(C) = k̄·B(C)` — the
    /// quantity the welfare model prices against capacity.
    pub fn total_best_effort(&self, capacity: f64) -> f64 {
        self.load.mean() * self.best_effort(capacity)
    }

    /// Total (unnormalized) reservation utility `V_R(C) = k̄·R(C)`.
    pub fn total_reservation(&self, capacity: f64) -> f64 {
        self.load.mean() * self.reservation(capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bevra_load::{Algebraic, Geometric, Poisson, Tabulated};
    use bevra_utility::{AdaptiveExp, ExponentialElastic, Ramp, Rigid};

    fn poisson_model(mean: f64) -> Tabulated {
        Tabulated::from_model(&Poisson::new(mean), 1e-12, 1 << 20)
    }

    #[test]
    fn r_dominates_b_everywhere() {
        let m = DiscreteModel::new(poisson_model(20.0), Rigid::unit());
        for c in [1.0, 5.0, 10.0, 20.0, 40.0, 80.0] {
            let b = m.best_effort(c);
            let r = m.reservation(c);
            assert!(r >= b - 1e-12, "C={c}: R={r} < B={b}");
            assert!((0.0..=1.0 + 1e-12).contains(&r));
            assert!((0.0..=1.0 + 1e-12).contains(&b));
        }
    }

    #[test]
    fn rigid_b_is_probability_of_underload() {
        // With rigid b̄ = 1, a flow gets utility 1 iff the load k ≤ C, so
        // B(C) = (1/k̄)·Σ_{k≤C} k·P(k) — check against partial moments.
        let load = poisson_model(20.0);
        let m = DiscreteModel::new(load.clone(), Rigid::unit());
        for c in [10.0, 20.0, 30.0] {
            let want = load.partial_mean(c as u64) / load.mean();
            let got = m.best_effort(c);
            assert!((got - want).abs() < 1e-12, "C={c}: {got} vs {want}");
        }
    }

    #[test]
    fn reservation_saturates_blocking_positive() {
        let m = DiscreteModel::new(poisson_model(50.0), Rigid::unit());
        // At C = k̄/2 roughly half the flows are blocked.
        let theta = m.blocking_fraction(25.0);
        assert!(theta > 0.4 && theta < 0.6, "theta {theta}");
        // Deep overprovisioning: essentially no blocking.
        assert!(m.blocking_fraction(200.0) < 1e-10);
    }

    #[test]
    fn elastic_collapses_architectures() {
        let m = DiscreteModel::new(poisson_model(20.0), ExponentialElastic::default());
        for c in [5.0, 20.0, 60.0] {
            assert_eq!(m.k_max(c), None);
            assert!((m.reservation(c) - m.best_effort(c)).abs() < 1e-14);
            assert_eq!(m.blocking_fraction(c), 0.0);
        }
    }

    #[test]
    fn adaptive_gap_smaller_than_rigid() {
        // §3.3: the performance gap shrinks dramatically from rigid to
        // adaptive applications.
        let load = poisson_model(50.0);
        let rigid = DiscreteModel::new(load.clone(), Rigid::unit());
        let adaptive = DiscreteModel::new(load, AdaptiveExp::paper());
        let c = 40.0;
        let gap_rigid = rigid.reservation(c) - rigid.best_effort(c);
        let gap_adaptive = adaptive.reservation(c) - adaptive.best_effort(c);
        assert!(
            gap_adaptive < 0.5 * gap_rigid,
            "adaptive {gap_adaptive} vs rigid {gap_rigid}"
        );
    }

    #[test]
    fn b_monotone_in_capacity() {
        let m = DiscreteModel::new(poisson_model(30.0), AdaptiveExp::paper());
        let mut prev = 0.0;
        for i in 1..=60 {
            let b = m.best_effort(f64::from(i) * 2.0);
            assert!(b >= prev - 1e-13, "C={}", i * 2);
            prev = b;
        }
    }

    #[test]
    fn geometric_load_utilities_bounded_and_ordered() {
        let load = Tabulated::from_model(&Geometric::from_mean(100.0), 1e-12, 1 << 20);
        let m = DiscreteModel::new(load, AdaptiveExp::paper());
        for c in [50.0, 100.0, 200.0, 400.0] {
            let b = m.best_effort(c);
            let r = m.reservation(c);
            assert!(r >= b && r <= 1.0 + 1e-12, "C={c}: B={b} R={r}");
        }
    }

    #[test]
    fn zero_capacity_gives_zero_utility() {
        let m = DiscreteModel::new(poisson_model(10.0), AdaptiveExp::paper());
        assert_eq!(m.best_effort(0.0), 0.0);
        assert_eq!(m.reservation(0.0), 0.0);
    }

    #[test]
    fn total_utilities_scale_by_mean() {
        let m = DiscreteModel::new(poisson_model(10.0), AdaptiveExp::paper());
        let c = 15.0;
        assert!((m.total_best_effort(c) - m.mean_load() * m.best_effort(c)).abs() < 1e-12);
    }

    /// A utility wrapper counting `value` calls, for pinning the early-exit
    /// cadence of the summation loop.
    struct Counting {
        inner: Rigid,
        calls: std::sync::atomic::AtomicUsize,
    }
    impl Utility for Counting {
        fn value(&self, b: f64) -> f64 {
            self.calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.value(b)
        }
        fn name(&self) -> &'static str {
            "counting-rigid"
        }
    }

    #[test]
    fn short_table_early_exit_fires_and_preserves_results() {
        // Regression for the early-exit cadence: a `k % 64 == 0` check alone
        // never fires on tables shorter than 64 entries, so small-k̄ sweeps
        // paid the full O(len) even after π hit exactly 0. With rigid b̄ = 1
        // and C = 10, π(C/k) = 0 for every k > 10, so the loop must stop
        // right after k = 11 — not scan all 40 entries.
        let weights: Vec<f64> = (0..40).map(|k| 1.0 / f64::from(k + 1)).collect();
        let load = Arc::new(Tabulated::from_weights(weights.clone()));

        let counting =
            Counting { inner: Rigid::unit(), calls: std::sync::atomic::AtomicUsize::new(0) };
        let m = DiscreteModel::new(Arc::clone(&load), counting);
        let got = m.best_effort(10.0);
        let calls = m.utility().calls.load(std::sync::atomic::Ordering::Relaxed);
        assert!(calls <= 12, "early exit did not fire: {calls} value() calls for 40 entries");

        // And the exit is bitwise neutral: identical to the full-order
        // reference sum over every entry (the skipped terms are exactly 0).
        let mut acc = NeumaierSum::new();
        for k in 1..load.len() as u64 {
            let p = load.pmf(k);
            let pi = Rigid::unit().value(10.0 / k as f64);
            if p > 0.0 {
                acc.add(p * k as f64 * pi);
            }
        }
        let want = acc.total() / load.mean();
        assert_eq!(got.to_bits(), want.to_bits(), "exit changed the sum: {got:e} vs {want:e}");
    }

    /// `B(C)` as the full-table Neumaier walk, no early exit, no tail.
    fn walk_every_entry(load: &Tabulated, u: &dyn Utility, capacity: f64) -> f64 {
        let mut acc = NeumaierSum::new();
        for (k, p) in load.iter().skip(1) {
            if p > 0.0 {
                acc.add(p * k as f64 * u.value(capacity / k as f64));
            }
        }
        acc.total() / load.mean()
    }

    #[test]
    fn smooth_tail_matches_the_full_walk() {
        // Past the 4096-entry head the algebraic tail is a quadrature
        // value, not a sum; it must agree with summing every entry to
        // 2e-15 relative over tails from z = 2.3 to 4, two means, two
        // table lengths, smooth and kinked utilities, and capacities from
        // k̄/20 to 100·k̄.
        let utilities: [&dyn Utility; 4] = [
            &AdaptiveExp::paper(),
            &ExponentialElastic::default(),
            &Ramp::new(0.5),
            &Rigid::unit(),
        ];
        let mut worst = (0.0f64, String::new());
        for z in [2.3, 2.5, 3.0, 4.0] {
            for kbar in [10.0, 100.0] {
                let model = Algebraic::from_mean(z, kbar).expect("calibration");
                for len in [1usize << 13, 1 << 16] {
                    let load = Arc::new(Tabulated::from_model(&model, 1e-12, len));
                    assert_eq!(load.len(), len);
                    assert!(load.smooth_tail().is_some());
                    for &u in &utilities {
                        let m = DiscreteModel::new(Arc::clone(&load), u);
                        for i in 0..40 {
                            let c = kbar / 20.0 * 2000f64.powf(f64::from(i) / 39.0);
                            let want = walk_every_entry(&load, u, c);
                            let got = m.best_effort(c);
                            let rel = (got - want).abs() / want.abs();
                            if rel > worst.0 {
                                worst =
                                    (rel, format!("z={z} k̄={kbar} len={len} {} C={c}", u.name()));
                            }
                        }
                    }
                }
            }
        }
        assert!(worst.0 <= 2e-15, "worst relative error {:e} at {}", worst.0, worst.1);
    }

    #[test]
    fn tables_without_a_smooth_tail_are_walked_as_before() {
        // No tail: Poisson and geometric models (no smooth density),
        // weight tables, and algebraic tables with no entry past the head.
        let alg = Algebraic::from_mean(3.0, 100.0).expect("calibration");
        let tables = [
            poisson_model(100.0),
            Tabulated::from_model(&Geometric::from_mean(100.0), 1e-12, 1 << 20),
            Tabulated::from_weights((1..5000).map(|k| 1.0 / f64::from(k).powi(3)).collect()),
            Tabulated::from_model(&alg, 1e-12, 4096),
            Tabulated::from_model(&alg, 1e-12, 4097),
        ];
        for load in tables {
            assert!(load.smooth_tail().is_none(), "{} of {} entries", load.name(), load.len());
            let load = Arc::new(load);
            let m = DiscreteModel::new(Arc::clone(&load), AdaptiveExp::paper());
            for c in [5.0, 50.0, 500.0, 5000.0] {
                // The walk with its 1e-15 early exit, as it always was.
                let mut acc = NeumaierSum::new();
                for k in 1..load.len() as u64 {
                    let p = load.pmf(k);
                    let pi = AdaptiveExp::paper().value(c / k as f64);
                    if p > 0.0 {
                        acc.add(p * k as f64 * pi);
                    }
                    if k % 64 == 0 || pi == 0.0 {
                        let bound = pi * load.tail_mean_above(k);
                        if bound <= 1e-15 * acc.total().abs().max(1e-300) {
                            acc.add(0.5 * bound);
                            break;
                        }
                    }
                }
                let want = acc.total() / load.mean();
                assert_eq!(m.best_effort(c).to_bits(), want.to_bits(), "{} C={c}", load.name());
            }
        }
        assert!(Tabulated::from_model(&alg, 1e-12, 4098).smooth_tail().is_some());
    }
}
