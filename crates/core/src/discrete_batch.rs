//! Grid-batched evaluation of the discrete model over a sorted capacity
//! grid.
//!
//! The per-point API ([`DiscreteModel::best_effort`] & friends) walks the
//! whole load table once *per capacity*: a G-point sweep over a table of K
//! entries costs G·K utility evaluations with the table streamed G times.
//! This module interchanges the loops — **outer `k` over the load table,
//! inner contiguous pass over the capacity grid** — so the table (its pmf
//! and prefix sums) is traversed once, the inner loop works on contiguous
//! `f64` arrays, and a **per-capacity early-exit frontier** retires small
//! capacities as soon as their remaining tail is provably negligible
//! (`tail_mean_above` is read only on the steps that test the exit: O(1)
//! in a table's head, one quadrature past it).
//!
//! [`sweep_grid`] serves both architectures from that one traversal. The
//! reservation head `Σ_{k ≤ k_max} P(k)·k·π(C/k)` is a **prefix of the
//! best-effort series** — the same terms, in the same order — so each
//! `π(C/k)` evaluation feeds a `B` and an `R` accumulator. Per-lane
//! arithmetic is an **op-for-op mirror of the per-point path**: same `π`
//! calls, same [`NeumaierSum`] order per accumulator, same early-exit test
//! and tail-midpoint correction, same fault-injection wrapping. Results
//! are bitwise identical to calling [`DiscreteModel::k_max`],
//! [`DiscreteModel::best_effort`] and [`DiscreteModel::reservation`] point
//! by point — the workspace's differential ladder and golden corpus rely
//! on this.
//!
//! Like the per-point path, every lane on a table with a smooth tail
//! (algebraic loads with entries past index [`SMOOTH_HEAD`]) stops walking
//! at `SMOOTH_HEAD`. There it adds the rest of its `B` series, and the
//! rest of its admitted `R` head, as one stretch sum each, computed by the
//! same function at the same point of each Neumaier sequence. On the
//! paper's 2²⁰-entry z = 3 table that is a walk of 4,096 entries instead
//! of up to `C` for an `R` head, or all of them for `B`. Since every lane
//! stops at the same index, the lanes of a grid cost about the same. The
//! sweep reads the table's stored head and tail density only; it never
//! builds [`bevra_load::Tabulated::materialized`].
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
use bevra_load::SMOOTH_HEAD;
use bevra_num::{argmax_unimodal_u64, NeumaierSum};
use bevra_utility::{total_utility, Utility};

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
    k_max_grid_with_carry_nudge(model, capacities, |k| k)
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
    assert_sorted(capacities);
    let cap_override = model.admission_cap();
    let u = model.utility();
    let mut out = Vec::with_capacity(capacities.len());
    // Carried lower bound for the argmax search. k_max(C) is nondecreasing
    // in C, and the search returns the smallest maximizer independent of
    // where the bracket starts (as long as it starts at or below it), so
    // seeding with the previous point's threshold is exact, not heuristic.
    // The bracket never probes k = 0, matching `total_utility`'s
    // short-circuit there.
    let mut lo = 1u64;
    for &c in capacities {
        let km = if c <= 0.0 {
            None
        } else if let Some(cap) = cap_override {
            Some(cap)
        } else {
            match argmax_unimodal_u64(|k| total_utility(u, k, c), lo, 1u64 << 40) {
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

/// Full batched sweep: `k_max`, `B`, and `R` for every capacity from one
/// table traversal (see module docs).
///
/// Equivalent — bitwise — to calling [`DiscreteModel::k_max`],
/// [`DiscreteModel::best_effort`], and [`DiscreteModel::reservation`] per
/// point. The fault sites are crossed in the same per-lane order as
/// sweeping `B` and then `R` point by point (all `eval/best_effort` wraps,
/// then all `eval/reservation` wraps), so `@at=N` fault ordinals line up
/// with the per-point path.
///
/// # Panics
///
/// Panics if `capacities` is not sorted ascending or contains NaN.
pub fn sweep_grid<U: Utility>(model: &DiscreteModel<U>, capacities: &[f64]) -> GridSweep {
    let k_max = k_max_grid(model, capacities);
    let load = model.load();
    let u = model.utility();
    let kbar = load.mean();
    let len_m1 = load.len() as u64 - 1;

    // Admitted-head lengths, clamped to the table exactly like
    // `DiscreteModel::reservation_with_kmax`.
    let cap_k: Vec<u64> = capacities
        .iter()
        .zip(&k_max)
        .map(|(&c, km)| match km {
            Some(m) if c > 0.0 && *m > 0 => (*m).min(len_m1),
            _ => 0,
        })
        .collect();

    let (best_raw, mut heads) = fused_walk(model, capacities, &cap_k);

    let best_effort: Vec<f64> = capacities
        .iter()
        .zip(best_raw)
        .map(|(&c, v)| {
            if c <= 0.0 {
                // The per-point path returns before reaching its fault site.
                0.0
            } else {
                bevra_faults::corrupt_f64("eval/best_effort", c.to_bits(), v)
            }
        })
        .collect();

    let reservation: Vec<f64> = (0..capacities.len())
        .map(|i| {
            let c = capacities[i];
            let raw = if c <= 0.0 {
                0.0
            } else {
                match k_max[i] {
                    // Elastic: the architectures coincide; reuse the
                    // (already fault-wrapped) best-effort value, exactly as
                    // the per-point path delegates to `best_effort`.
                    None => best_effort[i],
                    Some(0) => 0.0,
                    Some(m) => {
                        let overload_mass = load.tail_mass_above(cap_k[i]);
                        if overload_mass > 0.0 {
                            heads[i].add(m as f64 * u.value(c / m as f64) * overload_mass);
                        }
                        heads[i].total() / kbar
                    }
                }
            };
            // The per-point `reservation_with_kmax` wraps unconditionally.
            bevra_faults::corrupt_f64("eval/reservation", c.to_bits(), raw)
        })
        .collect();

    GridSweep { k_max, best_effort, reservation }
}

/// The one table walk of [`sweep_grid`]: one `π(C/k)` evaluation per
/// `(k, lane)` feeds the best-effort accumulator (with the per-point
/// path's early-exit frontier) and the reservation-head accumulator (for
/// `k ≤ cap_k[lane]`). On a table with a smooth tail the walk stops at
/// [`SMOOTH_HEAD`], where each lane adds its [`SmoothTail`] stretches: the
/// rest of its `B` series, and the rest of its admitted `R` head when
/// `cap_k[lane]` lies past it. Returns the normalized `B` values and the
/// unfinished `R` heads.
fn fused_walk<U: Utility>(
    model: &DiscreteModel<U>,
    capacities: &[f64],
    cap_k: &[u64],
) -> (Vec<f64>, Vec<NeumaierSum>) {
    let load = model.load();
    let u = model.utility();
    let kbar = load.mean();
    let g = capacities.len();
    let tail = SmoothTail::plan(load, u);
    let end = SmoothTail::walk_end(tail.as_ref(), load.len() as u64 - 1);
    // The admitted heads summed term by term.
    let walk_k: Vec<u64> = cap_k.iter().map(|&m| SmoothTail::walk_end(tail.as_ref(), m)).collect();
    let max_walk_k = walk_k.iter().copied().max().unwrap_or(0);

    let mut acc_b = vec![NeumaierSum::new(); g];
    let mut acc_r = vec![NeumaierSum::new(); g];
    let mut active: Vec<bool> = capacities.iter().map(|&c| c > 0.0).collect();
    let mut alive = active.iter().filter(|&&a| a).count();
    // Lanes exit smallest-capacity-first, so finished lanes form a growing
    // prefix; `start` skips it. Mid-grid holes (possible but rare) are
    // handled by the per-lane flags.
    let mut start = 0usize;

    for k in 1..=end {
        if alive == 0 && k > max_walk_k {
            break;
        }
        let p = load.pmf(k);
        let kf = k as f64;
        let check = k % 64 == 0;
        // The stretches, added at the head's last entry.
        let stretch = tail.as_ref().filter(|_| k == SMOOTH_HEAD);
        // Read on the first exit test at this `k`, not on every lane.
        let mut tail_mean = None;
        for i in start..g {
            let b_live = active[i];
            let r_live = k <= walk_k[i];
            if !b_live && !r_live {
                continue;
            }
            let pi = u.value(capacities[i] / kf);
            if r_live && p > 0.0 {
                acc_r[i].add(p * kf * pi);
            }
            if let Some(t) = stretch.filter(|_| cap_k[i] > SMOOTH_HEAD) {
                acc_r[i].add(t.sum(|b| u.value(b), capacities[i], cap_k[i]));
            }
            if b_live {
                // Mirror of `best_effort_uninstrumented`'s loop body.
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
                if let Some(t) = stretch {
                    acc_b[i].add(t.sum(|b| u.value(b), capacities[i], t.last));
                    active[i] = false;
                    alive -= 1;
                }
            }
        }
        while start < g && !active[start] && k >= walk_k[start] {
            start += 1;
        }
    }
    (acc_b.into_iter().map(|a| a.total() / kbar).collect(), acc_r)
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
        let caps = [-1.0, 0.0, 0.5, 2.0, 5.0, 10.0, 15.0, 20.0, 40.0, 80.0];
        let load = Arc::new(Tabulated::from_model(&Poisson::new(20.0), 1e-12, 1 << 12));
        let utilities: [&dyn Utility; 2] = [&Rigid::unit(), &AdaptiveExp::paper()];
        for u in utilities {
            let m = DiscreteModel::new(Arc::clone(&load), u);
            let got = sweep_grid(&m, &caps);
            for (i, &c) in caps.iter().enumerate() {
                assert_eq!(got.k_max[i], m.k_max(c), "{} k_max C={c}", u.name());
                assert_eq!(
                    got.best_effort[i].to_bits(),
                    m.best_effort(c).to_bits(),
                    "{} B C={c}",
                    u.name()
                );
                assert_eq!(
                    got.reservation[i].to_bits(),
                    m.reservation(c).to_bits(),
                    "{} R C={c}",
                    u.name()
                );
            }
        }
    }

    #[test]
    fn exact_sweep_mirrors_elastic_delegation() {
        let load = Tabulated::from_model(&Poisson::new(20.0), 1e-12, 1 << 12);
        let m = DiscreteModel::new(load, ExponentialElastic::default());
        let caps = [1.0, 5.0, 20.0, 60.0];
        let got = sweep_grid(&m, &caps);
        for (i, &c) in caps.iter().enumerate() {
            assert_eq!(got.k_max[i], None);
            assert_eq!(got.reservation[i].to_bits(), m.reservation(c).to_bits());
            assert_eq!(got.reservation[i].to_bits(), got.best_effort[i].to_bits());
        }
    }

    #[test]
    fn admission_cap_override_is_mirrored() {
        let load = Arc::new(Tabulated::from_model(&Poisson::new(20.0), 1e-12, 1 << 12));
        let m = DiscreteModel::new(Arc::clone(&load), AdaptiveExp::paper()).with_admission_cap(7);
        let caps = [1.0, 10.0, 30.0];
        let got = sweep_grid(&m, &caps);
        for (i, &c) in caps.iter().enumerate() {
            assert_eq!(got.k_max[i], Some(7));
            assert_eq!(got.best_effort[i].to_bits(), m.best_effort(c).to_bits());
            assert_eq!(got.reservation[i].to_bits(), m.reservation(c).to_bits());
        }
    }

    #[test]
    fn exact_kernels_mirror_the_smooth_tail_bitwise() {
        // On a table with a smooth tail every B lane hands over to the
        // tail integral at its own head; the grid sweep must add the same
        // value at the same point as the per-point path, for smooth
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
            let swept = sweep_grid(&m, &caps);
            let backend = crate::kernel::batch().sweep_grid(&m, &caps);
            for (i, &c) in caps.iter().enumerate() {
                let (want_b, want_r) = (m.best_effort(c).to_bits(), m.reservation(c).to_bits());
                for (name, got) in [("sweep_grid", &swept), ("batch", &backend)] {
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
        let _ = sweep_grid(&m, &[5.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "must not contain NaN")]
    fn nan_grid_rejected() {
        let m = model_rigid();
        let _ = sweep_grid(&m, &[f64::NAN]);
    }
}
