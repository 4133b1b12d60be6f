//! The discrete variable-load model (paper §3.1).

use bevra_load::{PowerLawTail, Tabulated, SMOOTH_HEAD};
use bevra_num::NeumaierSum;
use bevra_utility::{k_max_discrete, Utility};
use std::sync::Arc;

/// The stretch `(SMOOTH_HEAD, to]` of a long load table that `B(C)` and
/// `R(C)` add as one value instead of walking entry by entry: one shared
/// plan for [`DiscreteModel`] and the grid sweep
/// (`crate::discrete_batch`), so both add the same value at the same
/// point of each Neumaier sequence.
#[derive(Debug, Clone)]
pub(crate) struct SmoothTail {
    density: PowerLawTail,
    /// Last table index, where a `B` stretch ends.
    pub(crate) last: u64,
    /// The utility's [`Utility::knots`].
    knots: Vec<f64>,
}

impl SmoothTail {
    /// The plan for a table and a utility, or `None` when the table has no
    /// [`Tabulated::smooth_tail`] (it is then walked to its end).
    pub(crate) fn plan(load: &Tabulated, utility: &impl Utility) -> Option<Self> {
        let density = load.smooth_tail()?;
        Some(Self { density, last: load.len() as u64 - 1, knots: utility.knots() })
    }

    /// Last index a walk towards `to` sums term by term: `to` itself on a
    /// table without a plan, else at most [`SMOOTH_HEAD`].
    pub(crate) fn walk_end(plan: Option<&Self>, to: u64) -> u64 {
        plan.map_or(to, |_| to.min(SMOOTH_HEAD))
    }

    /// `Σ_{SMOOTH_HEAD<k≤to} P(k)·k·π(C/k)`, with `f(x) = ρ(x)·x·π(C/x)`.
    ///
    /// The cells `⌊x⌋−1 ..= ⌈x⌉+1` around each knot position `x = C/b`
    /// are summed term by term, so no quadrature node or end-correction
    /// stencil (`f(x ± ½)`) straddles a step or a slope break of `π`. The
    /// knot-free spans between them go through
    /// [`PowerLawTail::add_span`]: one quadrature value past 32 entries,
    /// term by term below. The pieces are added in ascending `k`; without
    /// a knot in the stretch the total is one [`PowerLawTail::sum`].
    pub(crate) fn sum(&self, pi: impl Fn(f64) -> f64, capacity: f64, to: u64) -> f64 {
        let f = |x: f64, rho: f64| rho * x * pi(capacity / x);
        let mut cells: Vec<(u64, u64)> = self
            .knots
            .iter()
            .map(|&b| capacity / b)
            .filter(|x| x.is_finite())
            .filter_map(|x| {
                let lo = (x.floor() - 1.0).max((SMOOTH_HEAD + 1) as f64);
                let hi = (x.ceil() + 1.0).min(to as f64);
                (lo <= hi).then_some((lo as u64, hi as u64))
            })
            .collect();
        cells.sort_unstable();
        let mut acc = NeumaierSum::new();
        let mut done = SMOOTH_HEAD;
        for (lo, hi) in cells {
            self.density.add_span(&mut acc, done, lo - 1, f);
            for k in lo.max(done + 1)..=hi {
                let x = k as f64;
                acc.add(f(x, self.density.density(x)));
            }
            done = done.max(hi);
        }
        self.density.add_span(&mut acc, done, to, f);
        acc.total()
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
    /// [`SMOOTH_HEAD`]) is summed only up to `SMOOTH_HEAD`, and the rest up
    /// to the table end is added as one stretch sum — 68 `π` calls per
    /// knot-free span, plus a few cells around each utility knot, instead
    /// of up to a million. Every other table is walked to its end.
    /// The grid sweep ([`crate::discrete_batch::sweep_grid`]) does the
    /// same.
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
        let tail = SmoothTail::plan(&self.load, &self.utility);
        for k in 1..=SmoothTail::walk_end(tail.as_ref(), self.load.len() as u64 - 1) {
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
            acc.add(t.sum(|b| self.utility.value(b), capacity, t.last));
        }
        acc.total() / kbar
    }

    /// Normalized reservation utility
    /// `R(C) = (1/k̄)·[Σ_{k≤k_max} P(k)·k·π(C/k)
    ///                + k_max·π(C/k_max)·P[k > k_max]]`.
    ///
    /// Under overload each of the `k_max` admitted flows receives
    /// `C/k_max`, so the overload term collapses to a closed form via the
    /// cached tail mass. The admitted head is walked like
    /// [`Self::best_effort`]: on a table with a smooth tail up to
    /// [`SMOOTH_HEAD`] only, with the rest of it up to `k_max` added as one
    /// stretch sum — O(min(k_max, `SMOOTH_HEAD`)) total.
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
        let tail = SmoothTail::plan(&self.load, &self.utility);
        for k in 1..=SmoothTail::walk_end(tail.as_ref(), cap_k) {
            let p = self.load.pmf(k);
            if p > 0.0 {
                acc.add(p * k as f64 * self.utility.value(capacity / k as f64));
            }
        }
        if let Some(t) = tail.filter(|_| cap_k > SMOOTH_HEAD) {
            acc.add(t.sum(|b| self.utility.value(b), capacity, cap_k));
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

    /// A utility wrapper counting `value` calls, for pinning how many
    /// entries the summation loops visit.
    struct Counting<U> {
        inner: U,
        calls: std::sync::atomic::AtomicUsize,
    }
    impl<U: Utility> Counting<U> {
        fn new(inner: U) -> Self {
            Self { inner, calls: std::sync::atomic::AtomicUsize::new(0) }
        }
        /// Calls since the last `take`.
        fn take(&self) -> usize {
            self.calls.swap(0, std::sync::atomic::Ordering::Relaxed)
        }
    }
    impl<U: Utility> Utility for Counting<U> {
        fn value(&self, b: f64) -> f64 {
            self.calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.value(b)
        }
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn knots(&self) -> Vec<f64> {
            self.inner.knots()
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

        let m = DiscreteModel::new(Arc::clone(&load), Counting::new(Rigid::unit()));
        let got = m.best_effort(10.0);
        let calls = m.utility().take();
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

    /// `B(C)` and `R(C)` as one full-table Neumaier walk: no early exit and
    /// no stretch sums. The overload mass is the table's
    /// [`Tabulated::tail_mass_above`], as in [`DiscreteModel::reservation`]:
    /// below the head it is `1 − cdf(k)`, whose cancellation alone puts
    /// `R` up to ~5e-14 off a summed mass on the heaviest tails here.
    fn walk_every_entry(m: &DiscreteModel<&dyn Utility>, capacity: f64) -> (f64, f64) {
        let (load, u) = (m.load(), m.utility());
        let kmax = m.k_max(capacity);
        let cap_k = kmax.map_or(u64::MAX, |km| km.min(load.len() as u64 - 1));
        let (mut b, mut r) = (NeumaierSum::new(), NeumaierSum::new());
        for (k, p) in load.iter().skip(1) {
            if p > 0.0 {
                let term = p * k as f64 * u.value(capacity / k as f64);
                b.add(term);
                if k <= cap_k {
                    r.add(term);
                }
            }
        }
        let Some(km) = kmax else {
            return (b.total() / load.mean(), b.total() / load.mean());
        };
        r.add(km as f64 * u.value(capacity / km as f64) * load.tail_mass_above(cap_k));
        (b.total() / load.mean(), r.total() / load.mean())
    }

    #[test]
    fn smooth_tail_matches_the_full_walk() {
        // Past the 4096-entry head the algebraic tail is a stretch sum
        // (quadrature between knot cells), not a walk; `B` and `R` must
        // agree with summing every entry to 2e-15 relative over tails from
        // z = 2.3 to 4, two means, two table lengths, smooth and kinked
        // utilities, capacities from k̄/20 to 300·k̄ (so admitted `R` heads
        // pass the table head), and capacities whose knots `C/b` fall
        // within 2 entries of the head and of the table end.
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
                    let anchors = [SMOOTH_HEAD as f64, (len - 1) as f64];
                    for &u in &utilities {
                        let m = DiscreteModel::new(Arc::clone(&load), u);
                        let mut cs: Vec<f64> = (0..40)
                            .map(|i| kbar / 20.0 * 6000f64.powf(f64::from(i) / 39.0))
                            .collect();
                        let offsets = [-2.0, -1.25, -0.5, 0.0, 0.5, 1.25, 2.0];
                        for b in u.knots() {
                            for x in anchors {
                                cs.extend(offsets.map(|d| b * (x + d)));
                            }
                        }
                        for c in cs {
                            let (want_b, want_r) = walk_every_entry(&m, c);
                            for (col, got, want) in
                                [("B", m.best_effort(c), want_b), ("R", m.reservation(c), want_r)]
                            {
                                let rel = (got - want).abs() / want.abs();
                                if rel > worst.0 {
                                    let at = format!("z={z} k̄={kbar} len={len} {} C={c}", u.name());
                                    worst = (rel, format!("{col} {at}"));
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(worst.0 <= 2e-15, "worst relative error {:e} at {}", worst.0, worst.1);
    }

    #[test]
    fn long_heads_call_pi_about_head_times() {
        // On fig4's 2^20-entry table, B and R at C = 30,000 walk the 4,096
        // head entries and add the rest as stretch sums: quadrature nodes
        // and a few cells per knot, not one π call per entry up to C.
        let model = Algebraic::from_mean(3.0, 100.0).expect("calibration");
        let load = Arc::new(Tabulated::from_model(&model, 1e-9, 1 << 20));
        assert!(load.smooth_tail().is_some());
        let c = 30_000.0;
        let budget = SMOOTH_HEAD as usize + 300;
        let check = |u: &Counting<&dyn Utility>, b_calls: usize, r_calls: usize| {
            assert!(b_calls <= budget, "{}: B called π {b_calls} times", u.name());
            assert!(r_calls <= budget, "{}: R called π {r_calls} times", u.name());
        };
        let utilities: [&dyn Utility; 3] = [&Rigid::unit(), &Ramp::new(0.5), &AdaptiveExp::paper()];
        for u in utilities {
            let m = DiscreteModel::new(Arc::clone(&load), Counting::new(u));
            let kmax = m.k_max(c);
            assert!(kmax.is_some_and(|k| k > SMOOTH_HEAD), "{}: k_max {kmax:?}", u.name());
            m.utility().take();
            m.best_effort(c);
            let b_calls = m.utility().take();
            m.reservation_with_kmax(c, kmax);
            check(m.utility(), b_calls, m.utility().take());
        }
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
