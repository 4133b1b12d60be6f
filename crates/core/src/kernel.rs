//! The [`Kernel`] trait: the welfare-evaluation backend the engine runs.
//!
//! A backend is a `&'static dyn Kernel` that sweeps the three grid
//! primitives (`k_max`, `B`, `R`) over a sorted capacity grid and
//! self-reports a [`KernelCapability`] record: its name, the SIMD tier of
//! its hot loop, and whether the engine primes whole grids through it.
//! The health ledger, the run announce line and the observability
//! metrics record that record.
//!
//! There is one backend, [`batch`]: the loop-interchanged exact pass of
//! [`crate::discrete_batch::sweep_grid`], bitwise identical to the
//! per-point [`DiscreteModel`] methods. On a table with a smooth tail (an
//! algebraic load with entries past index [`bevra_load::SMOOTH_HEAD`]) it
//! sums a head of 4,096 entries, or past the utility's last knot, and adds
//! the rest as one quadrature value, exactly as the per-point path does.

use crate::discrete::DiscreteModel;
use crate::discrete_batch::{sweep_grid, GridSweep};
use bevra_utility::Utility;

/// Borrowed type-erased model view every [`Kernel`] entry point takes.
///
/// Built with [`DiscreteModel::as_dyn`]; evaluates bitwise identically to
/// the monomorphized model it views (dynamic dispatch selects the same
/// method bodies, and Rust has no fast-math re-association).
pub type DynModel<'a> = DiscreteModel<&'a dyn Utility>;

/// SIMD engagement of a backend's hot loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Plain loops written for LLVM auto-vectorization.
    Autovec,
}

impl SimdLevel {
    /// Lowercase stable name, as stamped into health ledgers and reports.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            SimdLevel::Autovec => "autovec",
        }
    }
}

/// Self-reported description of a backend, consumed by the engine and
/// stamped into the health ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelCapability {
    /// Unique stable name; `BEVRA_KERNEL` selects by it, and the health
    /// ledger and metrics record it.
    pub name: &'static str,
    /// SIMD engagement of the backend's hot loop.
    pub simd: SimdLevel,
    /// Whether the engine's `prime()` drives this backend over whole grids
    /// (and persists the rows).
    pub grid_priming: bool,
}

/// An evaluation backend for the discrete model's grid primitives.
///
/// Object-safe by design: engines hold a `&'static dyn Kernel` and models
/// cross the boundary as [`DynModel`] views.
pub trait Kernel: Send + Sync {
    /// The backend's self-description. Must be constant over the life of
    /// the process: the engine stamps it into health ledgers.
    fn capability(&self) -> KernelCapability;

    /// Full sweep: `k_max`, `B`, and `R` for every capacity of a **sorted
    /// ascending, NaN-free** grid (the engine sorts and dedups before
    /// calling). Every `B` passes through the `eval/best_effort` fault
    /// site (positive capacities only) and every `R` through
    /// `eval/reservation`, all `B` wraps before all `R` wraps.
    ///
    /// # Panics
    ///
    /// Panics if `capacities` is not sorted ascending or contains NaN.
    fn sweep_grid(&self, model: &DynModel<'_>, capacities: &[f64]) -> GridSweep;
}

/// The grid-batched exact backend: loop-interchanged, bitwise.
struct BatchKernel;

impl Kernel for BatchKernel {
    fn capability(&self) -> KernelCapability {
        KernelCapability { name: "batch", simd: SimdLevel::Autovec, grid_priming: true }
    }

    fn sweep_grid(&self, model: &DynModel<'_>, capacities: &[f64]) -> GridSweep {
        sweep_grid(model, capacities)
    }
}

static BATCH: BatchKernel = BatchKernel;

/// The grid-batched exact backend (`BEVRA_KERNEL=batch`, the default):
/// loop-interchanged table walk, bitwise identical to the per-point
/// model methods.
#[must_use]
pub fn batch() -> &'static dyn Kernel {
    &BATCH
}

#[cfg(test)]
mod tests {
    use super::*;
    use bevra_load::{Poisson, Tabulated};
    use bevra_utility::AdaptiveExp;

    fn model() -> DiscreteModel<AdaptiveExp> {
        let load = Tabulated::from_model(&Poisson::new(20.0), 1e-12, 1 << 12);
        DiscreteModel::new(load, AdaptiveExp::paper())
    }

    #[test]
    fn dyn_view_is_bitwise_the_monomorphized_model() {
        let m = model();
        let d = m.as_dyn();
        for c in [0.5, 2.0, 10.0, 20.0, 40.0] {
            assert_eq!(m.k_max(c), d.k_max(c));
            assert_eq!(m.best_effort(c).to_bits(), d.best_effort(c).to_bits());
            assert_eq!(m.reservation(c).to_bits(), d.reservation(c).to_bits());
        }
    }

    #[test]
    fn batch_backend_matches_per_point_model() {
        let m = model();
        let d = m.as_dyn();
        let cs = [0.5, 2.0, 5.0, 10.0, 20.0, 40.0];
        let got = batch().sweep_grid(&d, &cs);
        for (i, &c) in cs.iter().enumerate() {
            assert_eq!(got.k_max[i], m.k_max(c), "k_max C={c}");
            assert_eq!(got.best_effort[i].to_bits(), m.best_effort(c).to_bits());
            assert_eq!(got.reservation[i].to_bits(), m.reservation(c).to_bits());
        }
    }
}
