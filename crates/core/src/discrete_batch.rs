//! Grid-batched evaluation of the discrete model over a sorted capacity
//! grid.
//!
//! The per-point API ([`DiscreteModel::best_effort`] & friends) walks the
//! whole load table once *per capacity*: a G-point sweep over a table of K
//! entries costs G·K utility evaluations with the table streamed G times.
//! This module interchanges the loops — **outer `k` over the load table,
//! inner contiguous pass over the capacity grid** — so the table (its pmf
//! and prefix sums) is traversed once, the inner loop works on contiguous
//! `f64` arrays (auto-vectorization-friendly SoA layout), and a
//! **per-capacity early-exit frontier** retires small capacities as soon as
//! their remaining tail is provably negligible (`tail_mean_above` is read
//! only on the steps that test the exit: O(1) in a table's head, one
//! quadrature past it).
//!
//! Two evaluation modes are offered ([`PiEval`]):
//!
//! * [`PiEval::Exact`] — the default. Per retired-lane arithmetic is an
//!   **op-for-op mirror of the scalar path**: same `π` calls, same
//!   [`NeumaierSum`] accumulation order, same early-exit test and
//!   tail-midpoint correction, same fault-injection wrapping. Results are
//!   bitwise identical to calling [`DiscreteModel::best_effort`] /
//!   [`DiscreteModel::reservation_with_kmax`] point by point — the
//!   workspace's differential ladder and golden corpus rely on this.
//!   Like the scalar path, a `B` lane on a table with a smooth tail
//!   (algebraic loads with entries past index [`bevra_load::SMOOTH_HEAD`])
//!   stops walking at its head — `SMOOTH_HEAD`, or past the utility's
//!   last knot — and adds the rest of the table as one quadrature value,
//!   computed by the same function at the same point of its Neumaier
//!   sequence. On the paper's 2²⁰-entry z = 3 table that is a walk of
//!   4,096 entries instead of all of them. Exact mode reads the table's
//!   stored head and tail density only; it never builds
//!   [`Tabulated::materialized`].
//! * [`PiEval::Fast`] — opt-in. Exponential-family utilities evaluate `π`
//!   through [`Utility::value_slice_fast`] (a branch-free polynomial
//!   `1 − e^{−x}` that compiles to packed SIMD), the Neumaier update is a
//!   branch-free select over SoA accumulators, and the early-exit bound
//!   truncates at [`FAST_TRUNC_REL`] of the total instead of the exact
//!   path's `1e-15` (the dominant speedup on heavy algebraic tails).
//!   Deterministic (same input bits ⇒ same output bits on every platform)
//!   but only tolerance-close (≤ 1e-13 relative) to the scalar path; the
//!   property suite budgets the difference. It walks the whole table (to
//!   its looser exit) through [`Tabulated::materialized`]; it never
//!   integrates a smooth tail.
//! * [`PiEval::Portable`] — opt-in. Every `π` evaluation (`k_max` argmax,
//!   `B`, and `R`) goes through [`Utility::value_portable`], the scalar
//!   branch-free polynomial with no libm dependence: results are
//!   bit-identical across operating systems, libm versions, and
//!   architectures, at the cost of the same ≤ 1e-13 relative distance from
//!   the scalar path as the fast mode. This is what the engine's
//!   `deterministic-portable` backend runs. It also walks the whole table,
//!   `B`, `R` and the tail moments all from [`Tabulated::materialized`]:
//!   the smooth-tail integral takes `ln`/`exp`, which would bring libm
//!   back.
//!
//! The admission sweep exploits monotonicity: `k_max(C)` is nondecreasing
//! in `C` (more capacity never lowers the optimal admission count), so for
//! a sorted grid the argmax search for point `i+1` starts from point `i`'s
//! result instead of from 1 — amortized O(K + G·log) instead of G
//! independent O(log²) searches. [`bevra_num::argmax_unimodal_u64`] breaks
//! ties toward the smallest maximizer regardless of its lower bound, so
//! the carried bracket returns bitwise-identical thresholds (the
//! monotonicity invariant itself is property- and mutation-tested in
//! `tests/batch_parity.rs`).

use crate::discrete::{DiscreteModel, SmoothTail};
use bevra_load::Tabulated;
use bevra_num::{argmax_unimodal_u64, kspan_total, NeumaierSum, KSPAN_ACCS};
use bevra_utility::{total_utility, Utility};

/// How the batched kernels evaluate `π` (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PiEval {
    /// Bitwise mirror of the scalar per-point path (default).
    Exact,
    /// Vectorized polynomial `π`; deterministic, ULP-budgeted, not bitwise.
    Fast,
    /// Scalar polynomial `π` ([`Utility::value_portable`]) for **every**
    /// evaluation, including the `k_max` argmax and the reservation head:
    /// bit-identical across platforms and libm versions, ULP-budgeted
    /// against the scalar path.
    Portable,
}

/// Results of a batched sweep: one entry per capacity, in input order.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSweep {
    /// Admission threshold `k_max(C)` per capacity (`None` = elastic /
    /// never deny), identical to [`DiscreteModel::k_max`].
    pub k_max: Vec<Option<u64>>,
    /// Normalized best-effort utility `B(C)` per capacity.
    pub best_effort: Vec<f64>,
    /// Normalized reservation utility `R(C)` per capacity.
    pub reservation: Vec<f64>,
}

/// Check the sorted-ascending grid precondition shared by every kernel.
///
/// NaN capacities are rejected outright (they cannot be ordered); ±∞ and
/// nonpositive values are fine and handled exactly like the scalar path.
fn assert_sorted(capacities: &[f64]) {
    assert!(
        capacities.iter().all(|c| !c.is_nan()),
        "capacity grid must not contain NaN"
    );
    assert!(
        capacities.windows(2).all(|w| w[0] <= w[1]),
        "capacity grid must be sorted ascending"
    );
}

/// Batched [`DiscreteModel::k_max`] over a sorted capacity grid with a
/// carried argmax bracket (see module docs).
///
/// # Panics
///
/// Panics if `capacities` is not sorted ascending or contains NaN.
pub fn k_max_grid<U: Utility>(
    model: &DiscreteModel<U>,
    capacities: &[f64],
) -> Vec<Option<u64>> {
    k_max_grid_inner(model, capacities, |k| k, PiEval::Exact)
}

/// [`k_max_grid`] with an explicit `π` evaluation mode.
///
/// [`PiEval::Exact`] and [`PiEval::Fast`] both search over the scalar
/// `V(k) = k·π(C/k)` (the fast π is slice-based and never feeds the
/// argmax, so the thresholds are bitwise the scalar ones);
/// [`PiEval::Portable`] searches over `k·value_portable(C/k)`, which can
/// differ from the scalar threshold only on value plateaus where the two
/// `π` variants break an exact tie differently.
///
/// # Panics
///
/// Panics if `capacities` is not sorted ascending or contains NaN.
pub fn k_max_grid_pi<U: Utility>(
    model: &DiscreteModel<U>,
    capacities: &[f64],
    mode: PiEval,
) -> Vec<Option<u64>> {
    k_max_grid_inner(model, capacities, |k| k, mode)
}

/// [`k_max_grid`] with an injectable carry perturbation.
///
/// The mutation tests use this to prove the carried bracket actually
/// matters: nudging the carried lower bound above the true argmax (e.g.
/// `|k| k + 1` on a plateau grid) must produce detectably wrong thresholds.
/// Production code always uses the identity nudge via [`k_max_grid`].
#[doc(hidden)]
pub fn k_max_grid_with_carry_nudge<U: Utility>(
    model: &DiscreteModel<U>,
    capacities: &[f64],
    nudge: impl Fn(u64) -> u64,
) -> Vec<Option<u64>> {
    k_max_grid_inner(model, capacities, nudge, PiEval::Exact)
}

fn k_max_grid_inner<U: Utility>(
    model: &DiscreteModel<U>,
    capacities: &[f64],
    nudge: impl Fn(u64) -> u64,
    mode: PiEval,
) -> Vec<Option<u64>> {
    assert_sorted(capacities);
    let cap_override = model.admission_cap();
    let u = model.utility();
    // The objective the argmax searches: scalar V(k) for Exact/Fast,
    // portable-π V(k) for Portable (k ≥ 1 always — the bracket never
    // probes 0, matching `total_utility`'s k = 0 short-circuit).
    let v = |k: u64, c: f64| match mode {
        PiEval::Exact | PiEval::Fast => total_utility(u, k, c),
        PiEval::Portable => k as f64 * u.value_portable(c / k as f64),
    };
    let mut out = Vec::with_capacity(capacities.len());
    // Carried lower bound for the argmax search. k_max(C) is nondecreasing
    // in C, and the search returns the smallest maximizer independent of
    // where the bracket starts (as long as it starts at or below it), so
    // seeding with the previous point's threshold is exact, not heuristic.
    let mut lo = 1u64;
    for &c in capacities {
        let km = if c <= 0.0 {
            None
        } else if let Some(cap) = cap_override {
            Some(cap)
        } else {
            match argmax_unimodal_u64(|k| v(k, c), lo, 1u64 << 40) {
                Ok(k) => {
                    lo = nudge(k).max(1);
                    Some(k)
                }
                Err(_) => None,
            }
        };
        out.push(km);
    }
    out
}

/// Batched [`DiscreteModel::best_effort`] over a sorted capacity grid.
///
/// One loop-interchanged pass over the load table computes `B(C)` for every
/// capacity; [`PiEval::Exact`] is bitwise identical to the scalar path
/// (including its fault-injection site `eval/best_effort`).
///
/// # Panics
///
/// Panics if `capacities` is not sorted ascending or contains NaN.
pub fn best_effort_grid<U: Utility>(
    model: &DiscreteModel<U>,
    capacities: &[f64],
    mode: PiEval,
) -> Vec<f64> {
    assert_sorted(capacities);
    let load = walked_load(model, mode);
    let raw = match mode {
        PiEval::Exact => best_effort_grid_pointwise(model, load, capacities, U::value),
        PiEval::Fast => best_effort_grid_fast(model, load, capacities),
        PiEval::Portable => best_effort_grid_pointwise(model, load, capacities, U::value_portable),
    };
    capacities
        .iter()
        .zip(raw)
        .map(|(&c, v)| {
            if c <= 0.0 {
                // Scalar path returns before reaching its fault site.
                0.0
            } else {
                bevra_faults::corrupt_f64("eval/best_effort", c.to_bits(), v)
            }
        })
        .collect()
}

/// The table a kernel in `mode` walks: the model's own for the exact
/// mode, which integrates a smooth tail past the head; every entry, from
/// [`Tabulated::materialized`], for the fast and portable modes, which
/// walk the whole table (the tail integrand takes `ln`/`exp`, which the
/// portable mode must not call).
fn walked_load<U: Utility>(model: &DiscreteModel<U>, mode: PiEval) -> &Tabulated {
    match mode {
        PiEval::Exact => model.load(),
        PiEval::Fast | PiEval::Portable => model.load().materialized(),
    }
}

/// Per-lane [`SmoothTail`] plans of a grid over `load`: all `None` unless
/// `load` has a smooth tail, which only a table the exact mode walks has.
fn tail_plans(load: &Tabulated, u: &impl Utility, capacities: &[f64]) -> Vec<Option<SmoothTail>> {
    capacities.iter().map(|&c| SmoothTail::plan(load, u, c)).collect()
}

/// Pointwise-π kernel: outer `k`, inner scalar-mirrored lane update.
///
/// `pi_of` selects the evaluation ([`Utility::value`] for the exact mode,
/// [`Utility::value_portable`] for the portable mode); everything else —
/// accumulation order, early-exit test, tail-midpoint correction, and
/// on a `load` with a smooth tail the hand-over to the [`SmoothTail`]
/// integral at the lane's head — is an op-for-op mirror of the scalar
/// path, so with `U::value` on the model's own table the result is
/// bitwise the scalar one.
fn best_effort_grid_pointwise<U: Utility>(
    model: &DiscreteModel<U>,
    load: &Tabulated,
    capacities: &[f64],
    pi_of: impl Fn(&U, f64) -> f64,
) -> Vec<f64> {
    let u = model.utility();
    let kbar = load.mean();
    let g = capacities.len();
    let len = load.len() as u64;
    let tails = tail_plans(load, u, capacities);

    let mut acc = vec![NeumaierSum::new(); g];
    let mut active: Vec<bool> = capacities.iter().map(|&c| c > 0.0).collect();
    let mut alive = active.iter().filter(|&&a| a).count();
    // Lanes exit smallest-capacity-first, so finished lanes form a growing
    // prefix; `start` skips it. Mid-grid holes (possible but rare) are
    // handled by the per-lane `active` flag.
    let mut start = 0usize;

    for k in 1..len {
        if alive == 0 {
            break;
        }
        let p = load.pmf(k);
        let kf = k as f64;
        let check = k % 64 == 0;
        // Read on the first exit test at this `k` (a quadrature past the
        // head of a table with a tail), not on every step.
        let mut tail_mean = None;
        for i in start..g {
            if !active[i] {
                continue;
            }
            // Mirror of `best_effort_uninstrumented`'s loop body, per lane.
            let pi = pi_of(u, capacities[i] / kf);
            if p > 0.0 {
                acc[i].add(p * kf * pi);
            }
            if check || pi == 0.0 {
                let bound = pi * *tail_mean.get_or_insert_with(|| load.tail_mean_above(k));
                if bound <= 1e-15 * acc[i].total().abs().max(1e-300) {
                    acc[i].add(0.5 * bound);
                    active[i] = false;
                    alive -= 1;
                    continue;
                }
            }
            if let Some(t) = tails[i].filter(|t| t.head == k) {
                acc[i].add(t.sum(|b| pi_of(u, b), capacities[i]));
                active[i] = false;
                alive -= 1;
            }
        }
        while start < g && !active[start] {
            start += 1;
        }
    }
    acc.into_iter().map(|a| a.total() / kbar).collect()
}

/// Truncation threshold for the fast kernel's early-exit bound, relative
/// to the accumulated total.
///
/// The exact path retires a lane when the provable tail bound drops below
/// `1e-15` of the total (mirroring the scalar path bit for bit). The fast
/// path's contract is looser — deterministic but only tolerance-close
/// (≤ `1e-13` relative, see `fast_sweep_is_ulp_close` and the engine's
/// budget test) — so it may stop as soon as the bound reaches `1e-13`:
/// the tail-midpoint correction halves the residual to ≤ `5e-14` relative,
/// inside the contract with 2× margin. For heavy algebraic tails, where
/// the bound decays like `k^{−(z+1)}`, retiring at `ε` instead of `1e-15`
/// shortens the walk by `(1e-15/ε)^{1/(z+1)}` — about 3× for the paper's
/// z = 3 family — and is where most of the fast kernel's speedup over the
/// scalar path comes from on tails the `1e-15` bound cannot cut.
pub const FAST_TRUNC_REL: f64 = 1e-13;

/// Fast-mode kernel: vectorized `π` via [`Utility::value_slice_fast`] and a
/// branch-free masked Neumaier update over SoA accumulators, walking every
/// entry of `load`.
fn best_effort_grid_fast<U: Utility>(
    model: &DiscreteModel<U>,
    load: &Tabulated,
    capacities: &[f64],
) -> Vec<f64> {
    let u = model.utility();
    let kbar = load.mean();
    let g = capacities.len();
    let len = load.len() as u64;

    let mut sums = vec![0.0f64; g];
    let mut comps = vec![0.0f64; g];
    // 1.0 = live lane, 0.0 = retired; multiplying the term by the mask is
    // bit-neutral for live lanes and adds an exact 0.0 to retired ones
    // (Neumaier on a nonnegative accumulator is unchanged by adding +0.0).
    let mut mask: Vec<f64> = capacities.iter().map(|&c| if c > 0.0 { 1.0 } else { 0.0 }).collect();
    let mut alive = mask.iter().filter(|&&m| m != 0.0).count();
    let mut start = 0usize;
    let mut bs = vec![0.0f64; g];
    let mut pis = vec![0.0f64; g];

    for k in 1..len {
        if alive == 0 {
            break;
        }
        let p = load.pmf(k);
        let kf = k as f64;
        let scale = if p > 0.0 { p * kf } else { 0.0 };

        // Phases 1+2: π(C/k) over the live window in one dispatched pass.
        // Families that can absorb the bandwidth division into their
        // exponent override `value_capacity_slice_fast` (the adaptive
        // family saves a packed divide per lane); the default divides
        // into `bs` and forwards to `value_slice_fast`.
        u.value_capacity_slice_fast(
            &capacities[start..g],
            kf,
            &mut bs[start..g],
            &mut pis[start..g],
        );
        // Phase 3: masked branch-free Neumaier accumulation (packed,
        // AVX2-dispatched, bitwise equal to `NeumaierSum::add` per lane).
        bevra_num::masked_neumaier_step(
            scale,
            &pis[start..g],
            &mask[start..g],
            &mut sums[start..g],
            &mut comps[start..g],
        );

        // Phase 4: early-exit frontier — same bound as the scalar path.
        // Capacities are sorted ascending, so for fixed `k` the bandwidths
        // and hence the `π` values are nondecreasing across the window:
        // if any lane underflowed to `π = 0` then so did the frontier
        // lane, and probing `pis[start]` alone suffices (a retired frontier
        // lane can only over-trigger the check, which is harmless).
        let need_check = k % 64 == 0 || pis[start] == 0.0;
        if need_check {
            let tail_mean = load.tail_mean_above(k);
            let periodic = k % 64 == 0;
            for i in start..g {
                if mask[i] != 0.0 && (periodic || pis[i] == 0.0) {
                    let pi = pis[i];
                    let bound = pi * tail_mean;
                    let total = sums[i] + comps[i];
                    if bound <= FAST_TRUNC_REL * total.abs().max(1e-300) {
                        // Retire the lane with the tail-midpoint correction.
                        let v = 0.5 * bound;
                        let s = sums[i];
                        let t = s + v;
                        let corr =
                            if s.abs() >= v.abs() { (s - t) + v } else { (v - t) + s };
                        comps[i] += corr;
                        sums[i] = t;
                        mask[i] = 0.0;
                        alive -= 1;
                    }
                }
            }
            while start < g && mask[start] == 0.0 {
                start += 1;
            }
        }
    }
    (0..g).map(|i| (sums[i] + comps[i]) / kbar).collect()
}

/// Batched [`DiscreteModel::reservation_with_kmax`] over a sorted grid.
///
/// `k_maxes[i]` must be what [`DiscreteModel::k_max`] returns for
/// `capacities[i]` (use [`k_max_grid`]); `best_efforts[i]` must be the
/// already-instrumented best-effort values (use [`best_effort_grid`]) —
/// elastic lanes (`k_max = None`) reuse them, mirroring the scalar
/// delegation `R(C) = B(C)`. Evaluates `π` exactly — the admitted head is
/// O(k_max) per lane, far too short for vectorization to matter; use
/// [`reservation_grid_pi`] to select the portable `π` instead.
///
/// # Panics
///
/// Panics if the slice lengths differ, or if `capacities` is not sorted
/// ascending or contains NaN.
pub fn reservation_grid<U: Utility>(
    model: &DiscreteModel<U>,
    capacities: &[f64],
    k_maxes: &[Option<u64>],
    best_efforts: &[f64],
) -> Vec<f64> {
    reservation_grid_pi(model, capacities, k_maxes, best_efforts, PiEval::Exact)
}

/// [`reservation_grid`] with an explicit `π` evaluation mode.
///
/// [`PiEval::Exact`] and [`PiEval::Fast`] both evaluate the admitted head
/// with the scalar [`Utility::value`] on the model's own table (the fast π
/// is slice-based and never feeds `R`, so fast-mode reservations are
/// bitwise the scalar ones); [`PiEval::Portable`] uses
/// [`Utility::value_portable`] throughout, on the
/// [`Tabulated::materialized`] view its `B` walks.
///
/// # Panics
///
/// Panics if the slice lengths differ, or if `capacities` is not sorted
/// ascending or contains NaN.
pub fn reservation_grid_pi<U: Utility>(
    model: &DiscreteModel<U>,
    capacities: &[f64],
    k_maxes: &[Option<u64>],
    best_efforts: &[f64],
    mode: PiEval,
) -> Vec<f64> {
    assert_sorted(capacities);
    let pi_of = |u: &U, b: f64| match mode {
        PiEval::Exact | PiEval::Fast => u.value(b),
        PiEval::Portable => u.value_portable(b),
    };
    assert_eq!(capacities.len(), k_maxes.len(), "k_max table length mismatch");
    assert_eq!(capacities.len(), best_efforts.len(), "best-effort table length mismatch");
    let load = match mode {
        PiEval::Exact | PiEval::Fast => model.load(),
        PiEval::Portable => model.load().materialized(),
    };
    let u = model.utility();
    let kbar = load.mean();
    let g = capacities.len();
    let len_m1 = load.len() as u64 - 1;

    // Lanes with a finite positive threshold sum an admitted head of the
    // table; everything else short-circuits exactly like the scalar path.
    let mut acc = vec![NeumaierSum::new(); g];
    let mut cap_k = vec![0u64; g];
    let mut max_cap_k = 0u64;
    for i in 0..g {
        if capacities[i] > 0.0 {
            if let Some(m) = k_maxes[i] {
                if m > 0 {
                    cap_k[i] = m.min(len_m1);
                    max_cap_k = max_cap_k.max(cap_k[i]);
                }
            }
        }
    }

    for k in 1..=max_cap_k {
        let p = load.pmf(k);
        let kf = k as f64;
        for i in 0..g {
            if k <= cap_k[i] && p > 0.0 {
                acc[i].add(p * kf * pi_of(u, capacities[i] / kf));
            }
        }
    }

    (0..g)
        .map(|i| {
            let c = capacities[i];
            let raw = if c <= 0.0 {
                0.0
            } else {
                match k_maxes[i] {
                    // Elastic: the architectures coincide; reuse the
                    // (already fault-wrapped) best-effort value, exactly as
                    // the scalar path delegates to `best_effort`.
                    None => best_efforts[i],
                    Some(0) => 0.0,
                    Some(m) => {
                        let overload_mass = load.tail_mass_above(cap_k[i]);
                        if overload_mass > 0.0 {
                            acc[i].add(m as f64 * pi_of(u, c / m as f64) * overload_mass);
                        }
                        acc[i].total() / kbar
                    }
                }
            };
            // The scalar `reservation_with_kmax` wraps unconditionally.
            bevra_faults::corrupt_f64("eval/reservation", c.to_bits(), raw)
        })
        .collect()
}

/// Full batched sweep: `k_max`, `B`, and `R` for every capacity in one
/// table pass plus an O(Σ k_max) head pass.
///
/// Equivalent to calling [`DiscreteModel::k_max`],
/// [`DiscreteModel::best_effort`], and [`DiscreteModel::reservation`] per
/// point — bitwise so under [`PiEval::Exact`].
///
/// # Panics
///
/// Panics if `capacities` is not sorted ascending or contains NaN.
pub fn sweep_grid<U: Utility>(
    model: &DiscreteModel<U>,
    capacities: &[f64],
    mode: PiEval,
) -> GridSweep {
    let k_max = k_max_grid_pi(model, capacities, mode);
    let best_effort = best_effort_grid(model, capacities, mode);
    let reservation = reservation_grid_pi(model, capacities, &k_max, &best_effort, mode);
    GridSweep { k_max, best_effort, reservation }
}

/// Fused B+R sweep: one table traversal serves both architectures.
///
/// The reservation head `Σ_{k ≤ k_max} P(k)·k·π(C/k)` is a **prefix of the
/// best-effort series** — the same terms, in the same order. The unfused
/// composition ([`sweep_grid`]) nonetheless walks the admitted head a second
/// time; this kernel evaluates each `(k, C)` pair once and feeds both
/// accumulators:
///
/// * [`PiEval::Exact`] / [`PiEval::Portable`] — a pointwise fused loop that
///   mirrors the unfused pair op for op (same `π` calls, same
///   [`NeumaierSum`] order per accumulator, same early-exit and fault
///   wrapping): results are **bitwise identical** to [`sweep_grid`] in the
///   same mode, so pinned digests and the golden corpus are unaffected.
/// * [`PiEval::Fast`] — if the utility implements
///   [`Utility::accumulate_pi_kspan_fast`], each capacity lane walks the
///   table in one vectorized k-span pass ([`bevra_num::KSPAN_ACCS`] strided
///   sub-accumulators, reduced-degree polynomial, factored exponent
///   denominator) with the R head taken as a **free snapshot** of the
///   accumulator state at `k = k_max(C)`. Deterministic and bitwise
///   identical across SIMD tiers, tolerance-close (≤ [`FAST_TRUNC_REL`]
///   relative) to the scalar path — same contract as the unfused fast
///   kernel, but *not* bitwise equal to it (different summation grouping).
///   Utilities without the hook fall back to the unfused fast composition,
///   bitwise that pair.
///
/// # Panics
///
/// Panics if `capacities` is not sorted ascending or contains NaN.
pub fn sweep_grid_fused<U: Utility>(
    model: &DiscreteModel<U>,
    capacities: &[f64],
    mode: PiEval,
) -> GridSweep {
    sweep_grid_fused_inner(model, capacities, mode, |k| k)
}

/// [`sweep_grid_fused`] with an injectable perturbation of the fast path's
/// R/B span split point.
///
/// Mutation tests use this to prove the carried-accumulator snapshot is
/// load-bearing: nudging the split off `k_max(C)` must detectably corrupt
/// the reservation values while production (identity nudge) stays correct.
#[doc(hidden)]
pub fn sweep_grid_fused_with_split_nudge<U: Utility>(
    model: &DiscreteModel<U>,
    capacities: &[f64],
    mode: PiEval,
    nudge: impl Fn(u64) -> u64,
) -> GridSweep {
    sweep_grid_fused_inner(model, capacities, mode, nudge)
}

fn sweep_grid_fused_inner<U: Utility>(
    model: &DiscreteModel<U>,
    capacities: &[f64],
    mode: PiEval,
    nudge: impl Fn(u64) -> u64,
) -> GridSweep {
    assert_sorted(capacities);
    let k_max = k_max_grid_pi(model, capacities, mode);
    let load = walked_load(model, mode);
    let u = model.utility();
    let kbar = load.mean();
    let g = capacities.len();
    let len_m1 = load.len() as u64 - 1;

    // Admitted-head lengths, clamped to the table exactly like
    // `reservation_grid_pi`.
    let mut cap_k = vec![0u64; g];
    for i in 0..g {
        if capacities[i] > 0.0 {
            if let Some(m) = k_max[i] {
                if m > 0 {
                    cap_k[i] = m.min(len_m1);
                }
            }
        }
    }

    enum Heads {
        /// Per-lane Neumaier accumulators, finalized exactly like the
        /// unfused reservation kernel (bitwise modes).
        Pointwise(Vec<NeumaierSum>),
        /// Per-lane snapshot totals from the k-span walk (fast mode).
        Snapshot(Vec<f64>),
    }

    let (best_raw, heads) = match mode {
        PiEval::Exact => {
            let (b, r) = fused_grid_pointwise(model, load, capacities, &cap_k, U::value);
            (b, Heads::Pointwise(r))
        }
        PiEval::Portable => {
            let (b, r) = fused_grid_pointwise(model, load, capacities, &cap_k, U::value_portable);
            (b, Heads::Pointwise(r))
        }
        PiEval::Fast => {
            // Capability probe: an empty span accumulates nothing, so the
            // return flag is the only observable effect.
            let mut s = [0.0; KSPAN_ACCS];
            let mut c = [0.0; KSPAN_ACCS];
            if u.accumulate_pi_kspan_fast(1.0, 1.0, &[], &mut s, &mut c) {
                let (b, r) = fused_grid_kspan(model, load, capacities, &cap_k, &nudge);
                (b, Heads::Snapshot(r))
            } else {
                // No k-span kernel for this family: the unfused fast
                // composition is already the best available pass, and
                // reusing it keeps the results bitwise that pair.
                let best_effort = best_effort_grid(model, capacities, PiEval::Fast);
                let reservation =
                    reservation_grid_pi(model, capacities, &k_max, &best_effort, PiEval::Fast);
                return GridSweep { k_max, best_effort, reservation };
            }
        }
    };

    // Finalize B then R, in lane order — the same fault-wrapping order as
    // the unfused composition, so `@at=N` fault ordinals line up.
    let best_effort: Vec<f64> = capacities
        .iter()
        .zip(best_raw)
        .map(|(&c, v)| {
            if c <= 0.0 {
                0.0
            } else {
                bevra_faults::corrupt_f64("eval/best_effort", c.to_bits(), v)
            }
        })
        .collect();

    let pi_scalar = |b: f64| match mode {
        PiEval::Exact | PiEval::Fast => u.value(b),
        PiEval::Portable => u.value_portable(b),
    };
    let mut heads = heads;
    let reservation: Vec<f64> = (0..g)
        .map(|i| {
            let c = capacities[i];
            let raw = if c <= 0.0 {
                0.0
            } else {
                match k_max[i] {
                    None => best_effort[i],
                    Some(0) => 0.0,
                    Some(m) => {
                        let overload_mass = load.tail_mass_above(cap_k[i]);
                        let tail = if overload_mass > 0.0 {
                            m as f64 * pi_scalar(c / m as f64) * overload_mass
                        } else {
                            0.0
                        };
                        match &mut heads {
                            // Mirror `reservation_grid_pi`: conditional
                            // `add` then `total`, bit for bit.
                            Heads::Pointwise(accs) => {
                                if overload_mass > 0.0 {
                                    accs[i].add(tail);
                                }
                                accs[i].total() / kbar
                            }
                            Heads::Snapshot(hs) => (hs[i] + tail) / kbar,
                        }
                    }
                }
            };
            bevra_faults::corrupt_f64("eval/reservation", c.to_bits(), raw)
        })
        .collect();

    GridSweep { k_max, best_effort, reservation }
}

/// Pointwise fused kernel (exact/portable modes): one `π(C/k)` evaluation
/// per `(k, lane)` feeds both the best-effort accumulator (with the scalar
/// path's early-exit frontier and, on a `load` with a smooth tail, its
/// [`SmoothTail`] hand-over) and the reservation-head accumulator (for
/// `k ≤ k_max(C)`). `π` is pure, so sharing the evaluation leaves every
/// accumulated bit identical to the unfused pair.
fn fused_grid_pointwise<U: Utility>(
    model: &DiscreteModel<U>,
    load: &Tabulated,
    capacities: &[f64],
    cap_k: &[u64],
    pi_of: impl Fn(&U, f64) -> f64,
) -> (Vec<f64>, Vec<NeumaierSum>) {
    let u = model.utility();
    let kbar = load.mean();
    let g = capacities.len();
    let len = load.len() as u64;
    let max_cap_k = cap_k.iter().copied().max().unwrap_or(0);
    let tails = tail_plans(load, u, capacities);

    let mut acc_b = vec![NeumaierSum::new(); g];
    let mut acc_r = vec![NeumaierSum::new(); g];
    let mut active: Vec<bool> = capacities.iter().map(|&c| c > 0.0).collect();
    let mut alive = active.iter().filter(|&&a| a).count();
    let mut start = 0usize;

    for k in 1..len {
        if alive == 0 && k > max_cap_k {
            break;
        }
        let p = load.pmf(k);
        let kf = k as f64;
        let check = k % 64 == 0;
        // As in `best_effort_grid_pointwise`: read on the first exit test.
        // The rigid lanes that walk their admitted heads past a long
        // table's head would otherwise take one quadrature per step.
        let mut tail_mean = None;
        for i in start..g {
            let b_live = active[i];
            let r_live = k <= cap_k[i];
            if !b_live && !r_live {
                continue;
            }
            let pi = pi_of(u, capacities[i] / kf);
            if r_live && p > 0.0 {
                acc_r[i].add(p * kf * pi);
            }
            if b_live {
                if p > 0.0 {
                    acc_b[i].add(p * kf * pi);
                }
                if check || pi == 0.0 {
                    let bound = pi * *tail_mean.get_or_insert_with(|| load.tail_mean_above(k));
                    if bound <= 1e-15 * acc_b[i].total().abs().max(1e-300) {
                        acc_b[i].add(0.5 * bound);
                        active[i] = false;
                        alive -= 1;
                        continue;
                    }
                }
                if let Some(t) = tails[i].filter(|t| t.head == k) {
                    acc_b[i].add(t.sum(|b| pi_of(u, b), capacities[i]));
                    active[i] = false;
                    alive -= 1;
                }
            }
        }
        while start < g && !active[start] && k >= cap_k[start] {
            start += 1;
        }
    }
    (acc_b.into_iter().map(|a| a.total() / kbar).collect(), acc_r)
}

/// Span length between early-exit probes in the fast fused kernel.
///
/// Block boundaries are the only places the fast k-span walk checks its
/// tail bound; a shorter block exits sooner on light tails, a longer one
/// amortizes the bound arithmetic better on heavy tails where no early exit
/// ever fires (the paper's z = 3 family walks every table entry — see
/// EXPERIMENTS.md). 512 keeps the light-tail overshoot below the cost of
/// one extra bound probe per lane.
const KSPAN_BLOCK: u64 = 512;

/// Fast fused kernel: per-lane vectorized k-span walk with the reservation
/// head captured as an accumulator snapshot at the `k_max` split.
///
/// Returns `(B_raw, R_head_raw)` where `B_raw` is normalized (`/k̄`, same
/// contract as [`best_effort_grid_fast`]) and `R_head_raw` is the
/// *unnormalized* admitted-head series, to be finished with the overload
/// tail term by the caller.
fn fused_grid_kspan<U: Utility>(
    model: &DiscreteModel<U>,
    load: &Tabulated,
    capacities: &[f64],
    cap_k: &[u64],
    nudge: &impl Fn(u64) -> u64,
) -> (Vec<f64>, Vec<f64>) {
    let u = model.utility();
    let kbar = load.mean();
    let pmfs = load.pmf_values();
    let len = pmfs.len() as u64;
    let g = capacities.len();

    let mut best = vec![0.0f64; g];
    let mut heads = vec![0.0f64; g];
    for i in 0..g {
        let c = capacities[i];
        if c <= 0.0 {
            continue;
        }
        let mut sums = [0.0f64; KSPAN_ACCS];
        let mut comps = [0.0f64; KSPAN_ACCS];
        // R head: the B series prefix up to the (possibly nudged) split.
        let split = nudge(cap_k[i]).min(len - 1);
        if split >= 1 {
            u.accumulate_pi_kspan_fast(c, 1.0, &pmfs[1..=split as usize], &mut sums, &mut comps);
        }
        heads[i] = kspan_total(&sums, &comps);
        // B continues in the same accumulators — the head terms are shared.
        let mut k = split + 1;
        let mut total = heads[i];
        while k < len {
            let stop = (k + KSPAN_BLOCK).min(len);
            u.accumulate_pi_kspan_fast(
                c,
                k as f64,
                &pmfs[k as usize..stop as usize],
                &mut sums,
                &mut comps,
            );
            k = stop;
            total = kspan_total(&sums, &comps);
            if k < len {
                // Same bound as the unfused kernels: remaining terms are
                // ≤ π(C/k)·Σ_{k'≥k} k'·P(k'), probed at block boundaries
                // only. Scalar π here — the bound is tolerance arithmetic,
                // not part of the accumulated value.
                let bound = u.value(c / k as f64) * load.tail_mean_above(k - 1);
                if bound <= FAST_TRUNC_REL * total.abs().max(1e-300) {
                    total += 0.5 * bound;
                    break;
                }
            }
        }
        best[i] = total / kbar;
    }
    (best, heads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bevra_load::{Poisson, Tabulated};
    use bevra_utility::{AdaptiveExp, ExponentialElastic, Rigid};
    use std::sync::Arc;

    fn model_rigid() -> DiscreteModel<Rigid> {
        let load = Tabulated::from_model(&Poisson::new(20.0), 1e-12, 1 << 12);
        DiscreteModel::new(load, Rigid::unit())
    }

    #[test]
    fn exact_sweep_is_bitwise_equal_to_scalar() {
        let m = model_rigid();
        let caps = [-1.0, 0.0, 0.5, 2.0, 5.0, 10.0, 15.0, 20.0, 40.0, 80.0];
        let got = sweep_grid(&m, &caps, PiEval::Exact);
        for (i, &c) in caps.iter().enumerate() {
            assert_eq!(got.k_max[i], m.k_max(c), "k_max C={c}");
            assert_eq!(
                got.best_effort[i].to_bits(),
                m.best_effort(c).to_bits(),
                "B C={c}"
            );
            assert_eq!(
                got.reservation[i].to_bits(),
                m.reservation(c).to_bits(),
                "R C={c}"
            );
        }
    }

    #[test]
    fn exact_sweep_mirrors_elastic_delegation() {
        let load = Tabulated::from_model(&Poisson::new(20.0), 1e-12, 1 << 12);
        let m = DiscreteModel::new(load, ExponentialElastic::default());
        let caps = [1.0, 5.0, 20.0, 60.0];
        let got = sweep_grid(&m, &caps, PiEval::Exact);
        for (i, &c) in caps.iter().enumerate() {
            assert_eq!(got.k_max[i], None);
            assert_eq!(got.reservation[i].to_bits(), m.reservation(c).to_bits());
        }
    }

    #[test]
    fn fast_sweep_is_ulp_close() {
        let load = Tabulated::from_model(&Poisson::new(20.0), 1e-12, 1 << 12);
        let m = DiscreteModel::new(load, AdaptiveExp::paper());
        let caps = [0.5, 2.0, 5.0, 10.0, 20.0, 40.0];
        let got = sweep_grid(&m, &caps, PiEval::Fast);
        for (i, &c) in caps.iter().enumerate() {
            let b = m.best_effort(c);
            let diff = (got.best_effort[i] - b).abs();
            assert!(
                diff <= 1e-13 * b.abs().max(1e-300),
                "C={c}: fast {0:e} vs scalar {b:e}",
                got.best_effort[i]
            );
        }
    }

    #[test]
    fn portable_sweep_is_tolerance_close_to_scalar() {
        let load = Tabulated::from_model(&Poisson::new(20.0), 1e-12, 1 << 12);
        let m = DiscreteModel::new(load, AdaptiveExp::paper());
        let caps = [0.5, 2.0, 5.0, 10.0, 20.0, 40.0];
        let got = sweep_grid(&m, &caps, PiEval::Portable);
        for (i, &c) in caps.iter().enumerate() {
            for (name, v, want) in [
                ("B", got.best_effort[i], m.best_effort(c)),
                ("R", got.reservation[i], m.reservation(c)),
            ] {
                assert!(
                    (v - want).abs() <= 1e-13 * want.abs().max(1e-300),
                    "C={c}: portable {name} {v:e} vs scalar {want:e}"
                );
            }
        }
        // And the portable sweep is self-reproducible bit for bit.
        let again = sweep_grid(&m, &caps, PiEval::Portable);
        assert_eq!(got, again);
    }

    #[test]
    fn portable_sweep_matches_exact_for_arithmetic_utilities() {
        // Rigid π is pure compare-and-select: `value_portable` defaults to
        // `value`, so the portable mode must be bitwise the exact mode.
        let m = model_rigid();
        let caps = [0.5, 2.0, 5.0, 10.0, 20.0, 40.0];
        let exact = sweep_grid(&m, &caps, PiEval::Exact);
        let portable = sweep_grid(&m, &caps, PiEval::Portable);
        assert_eq!(exact.k_max, portable.k_max);
        for i in 0..caps.len() {
            assert_eq!(exact.best_effort[i].to_bits(), portable.best_effort[i].to_bits());
            assert_eq!(exact.reservation[i].to_bits(), portable.reservation[i].to_bits());
        }
    }

    #[test]
    fn admission_cap_override_is_mirrored() {
        let load = Arc::new(Tabulated::from_model(&Poisson::new(20.0), 1e-12, 1 << 12));
        let m = DiscreteModel::new(Arc::clone(&load), AdaptiveExp::paper()).with_admission_cap(7);
        let caps = [1.0, 10.0, 30.0];
        let got = sweep_grid(&m, &caps, PiEval::Exact);
        for (i, &c) in caps.iter().enumerate() {
            assert_eq!(got.k_max[i], Some(7));
            assert_eq!(got.reservation[i].to_bits(), m.reservation(c).to_bits());
        }
    }

    #[test]
    fn fused_exact_is_bitwise_equal_to_unfused() {
        let caps = [-1.0, 0.0, 0.5, 2.0, 5.0, 10.0, 15.0, 20.0, 40.0, 80.0];
        let load = Tabulated::from_model(&Poisson::new(20.0), 1e-12, 1 << 12);
        let rigid = model_rigid();
        let adaptive = DiscreteModel::new(load, AdaptiveExp::paper());
        for mode in [PiEval::Exact, PiEval::Portable] {
            let a = sweep_grid(&rigid, &caps, mode);
            let b = sweep_grid_fused(&rigid, &caps, mode);
            assert_eq!(a, b, "rigid {mode:?}");
            let a = sweep_grid(&adaptive, &caps, mode);
            let b = sweep_grid_fused(&adaptive, &caps, mode);
            assert_eq!(a.k_max, b.k_max, "adaptive {mode:?}");
            for i in 0..caps.len() {
                assert_eq!(a.best_effort[i].to_bits(), b.best_effort[i].to_bits());
                assert_eq!(a.reservation[i].to_bits(), b.reservation[i].to_bits());
            }
        }
    }

    #[test]
    fn fused_exact_mirrors_cap_override_and_elastic() {
        let load = Arc::new(Tabulated::from_model(&Poisson::new(20.0), 1e-12, 1 << 12));
        let caps = [1.0, 10.0, 30.0];
        let capped =
            DiscreteModel::new(Arc::clone(&load), AdaptiveExp::paper()).with_admission_cap(7);
        assert_eq!(sweep_grid(&capped, &caps, PiEval::Exact), sweep_grid_fused(&capped, &caps, PiEval::Exact));
        let elastic = DiscreteModel::new(Arc::clone(&load), ExponentialElastic::default());
        let got = sweep_grid_fused(&elastic, &caps, PiEval::Exact);
        assert_eq!(sweep_grid(&elastic, &caps, PiEval::Exact), got);
        for i in 0..caps.len() {
            assert_eq!(got.k_max[i], None);
            assert_eq!(got.reservation[i].to_bits(), got.best_effort[i].to_bits());
        }
    }

    #[test]
    fn fused_fast_kspan_within_budget_and_deterministic() {
        let load = Tabulated::from_model(&Poisson::new(20.0), 1e-12, 1 << 12);
        let m = DiscreteModel::new(load, AdaptiveExp::paper());
        let caps = [0.5, 2.0, 5.0, 10.0, 20.0, 40.0];
        let got = sweep_grid_fused(&m, &caps, PiEval::Fast);
        for (i, &c) in caps.iter().enumerate() {
            for (name, v, want) in [
                ("B", got.best_effort[i], m.best_effort(c)),
                ("R", got.reservation[i], m.reservation(c)),
            ] {
                assert!(
                    (v - want).abs() <= 1e-13 * want.abs().max(1e-300),
                    "C={c}: fused-fast {name} {v:e} vs scalar {want:e}"
                );
            }
        }
        let again = sweep_grid_fused(&m, &caps, PiEval::Fast);
        assert_eq!(got, again, "fast fused sweep must be reproducible bit for bit");
    }

    #[test]
    fn fused_fast_falls_back_bitwise_for_non_kspan_families() {
        // Rigid and elastic have no k-span kernel: the fused entry point
        // must degrade to exactly the unfused fast composition.
        let caps = [0.5, 2.0, 5.0, 10.0, 20.0, 40.0];
        let m = model_rigid();
        assert_eq!(sweep_grid(&m, &caps, PiEval::Fast), sweep_grid_fused(&m, &caps, PiEval::Fast));
        let load = Tabulated::from_model(&Poisson::new(20.0), 1e-12, 1 << 12);
        let e = DiscreteModel::new(load, ExponentialElastic::default());
        assert_eq!(sweep_grid(&e, &caps, PiEval::Fast), sweep_grid_fused(&e, &caps, PiEval::Fast));
    }

    #[test]
    fn fused_split_nudge_corrupts_reservations() {
        // The mutation hook: shifting the R/B span split off k_max(C) must
        // be detectable — it folds admitted-head terms into the wrong side
        // of the snapshot. Guards against the snapshot silently drifting.
        let load = Tabulated::from_model(&Poisson::new(20.0), 1e-12, 1 << 12);
        let m = DiscreteModel::new(load, AdaptiveExp::paper());
        let caps = [5.0, 10.0, 20.0];
        let clean = sweep_grid_fused(&m, &caps, PiEval::Fast);
        let nudged = sweep_grid_fused_with_split_nudge(&m, &caps, PiEval::Fast, |k| k + 8);
        // B sums the full series either way: moving the split only regroups
        // the sub-accumulators, so it must stay inside the fast budget…
        for (i, &c) in caps.iter().enumerate() {
            let want = m.best_effort(c);
            assert!(
                (nudged.best_effort[i] - want).abs() <= 1e-13 * want.abs().max(1e-300),
                "C={c}: nudged B left the budget"
            );
        }
        // …while R, whose head is the snapshot at the split, must break.
        assert!(
            clean
                .reservation
                .iter()
                .zip(&nudged.reservation)
                .any(|(a, b)| a.to_bits() != b.to_bits()),
            "an off-by-8 split must corrupt at least one reservation lane"
        );
    }

    #[test]
    fn exact_kernels_mirror_the_smooth_tail_bitwise() {
        // On a table with a smooth tail every exact B lane hands over to
        // the tail integral at its own head; the grid kernels must add the
        // same value at the same point as the per-point path, for smooth
        // utilities (which integrate) and kinked ones (whose heads move
        // past their knots, or whose π reaches 0 before the head).
        let model = bevra_load::Algebraic::from_mean(3.0, 100.0).expect("calibration");
        let load = Arc::new(Tabulated::from_model(&model, 1e-12, 1 << 16));
        assert!(load.smooth_tail().is_some());
        let mut caps = vec![-1.0, 0.0];
        caps.extend((0..24).map(|i| 5.0 * 6000f64.powf(f64::from(i) / 23.0)));
        let utilities: [&dyn Utility; 4] = [
            &AdaptiveExp::paper(),
            &ExponentialElastic::default(),
            &bevra_utility::Ramp::new(0.5),
            &Rigid::unit(),
        ];
        for u in utilities {
            let m = DiscreteModel::new(Arc::clone(&load), u);
            let b = best_effort_grid(&m, &caps, PiEval::Exact);
            let unfused = sweep_grid(&m, &caps, PiEval::Exact);
            let fused = sweep_grid_fused(&m, &caps, PiEval::Exact);
            let backend = crate::kernel::batch().sweep_grid(&m, &caps);
            for (i, &c) in caps.iter().enumerate() {
                let (want_b, want_r) = (m.best_effort(c).to_bits(), m.reservation(c).to_bits());
                assert_eq!(b[i].to_bits(), want_b, "{} B C={c}", u.name());
                for (name, got) in
                    [("sweep_grid", &unfused), ("fused", &fused), ("batch", &backend)]
                {
                    assert_eq!(got.k_max[i], m.k_max(c), "{} {name} k_max C={c}", u.name());
                    assert_eq!(got.best_effort[i].to_bits(), want_b, "{} {name} B C={c}", u.name());
                    assert_eq!(got.reservation[i].to_bits(), want_r, "{} {name} R C={c}", u.name());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "sorted ascending")]
    fn unsorted_grid_rejected() {
        let m = model_rigid();
        let _ = sweep_grid(&m, &[5.0, 2.0], PiEval::Exact);
    }

    #[test]
    #[should_panic(expected = "must not contain NaN")]
    fn nan_grid_rejected() {
        let m = model_rigid();
        let _ = sweep_grid(&m, &[f64::NAN], PiEval::Exact);
    }
}
