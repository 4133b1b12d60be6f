//! The [`Kernel`] trait: pluggable welfare-evaluation backends.
//!
//! A backend is a `&'static dyn Kernel` that evaluates the three grid
//! primitives (`k_max`, `B`, `R`) over a sorted capacity grid and
//! self-reports a [`KernelCapability`] record describing *how* it
//! evaluates them — its parity class against the per-point
//! [`DiscreteModel`] methods (the reference every backend is tested
//! against), its SIMD level, which fault-injection sites cover it, and
//! the tag that keys the persistent cache.
//!
//! The capability record is what makes backends safely pluggable:
//!
//! * the engine refuses to mix cached artifacts across backends whose
//!   results may differ ([`KernelCapability::cache_tag`], the parity
//!   class, and the portability flag flow into the persistent-cache key);
//! * the parity suite (`tests/batch_parity.rs`) and the chaos harness
//!   enumerate the registry (`bevra_engine::registry`) and derive the
//!   right assertion per backend from [`KernelCapability::parity`] — a
//!   new backend gets parity and fault coverage without new test code;
//! * the `SweepHealth` ledger and the observability metrics record which
//!   backend produced a sweep.
//!
//! Three built-in backends are provided (see [`batch`], [`fast`],
//! [`portable`]); all of them prime whole grids and run the fused B+R
//! pass:
//!
//! | backend | parity | π evaluation |
//! |---|---|---|
//! | `batch` | bitwise | libm, loop-interchanged |
//! | `fast` | ≤ 1e-13 rel | packed polynomial (B only) |
//! | `deterministic-portable` | ≤ 1e-13 rel | scalar polynomial, everywhere |
//!
//! The `deterministic-portable` backend evaluates **every** π through
//! [`Utility::value_portable`] — the branch-free polynomial
//! `1 − e^{−x}` with integer-scaled exponent rounding
//! (`bevra_num::one_minus_exp_neg`), no libm anywhere — so its results
//! are bit-identical across operating systems, libm versions, and CPU
//! architectures. It exists to retire the libm-ULP drift that made
//! pinned golden artifacts environment-sensitive (noted when the golden
//! corpus landed): portable artifacts can be pinned by digest.

use crate::discrete::DiscreteModel;
use crate::discrete_batch::{
    best_effort_grid, k_max_grid_pi, reservation_grid_pi, sweep_grid_fused, GridSweep, PiEval,
    FAST_TRUNC_REL,
};
use bevra_utility::Utility;

/// Borrowed type-erased model view every [`Kernel`] entry point takes.
///
/// Built with [`DiscreteModel::as_dyn`]; evaluates bitwise identically to
/// the monomorphized model it views (dynamic dispatch selects the same
/// method bodies, and Rust has no fast-math re-association).
pub type DynModel<'a> = DiscreteModel<&'a dyn Utility>;

/// How close a backend's results are to the per-point model methods.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParityClass {
    /// Bit-for-bit identical to [`DiscreteModel::k_max`] /
    /// [`DiscreteModel::best_effort`] / [`DiscreteModel::reservation`]
    /// called point by point.
    Bitwise,
    /// `B` and `R` within the given **relative** tolerance of the
    /// per-point path; `k_max` may differ only where the value curve
    /// `k·π(C/k)` is flat to within the same tolerance (a tie between
    /// thresholds, so the induced `R` difference is itself inside the
    /// budget). Results are still deterministic: same input bits ⇒ same
    /// output bits.
    Tolerance(f64),
}

/// SIMD engagement of a backend's hot loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Scalar code only.
    None,
    /// Plain loops written for LLVM auto-vectorization.
    Autovec,
    /// Runtime-dispatched AVX2 intrinsics with a scalar fallback that is
    /// bitwise identical to the packed path.
    Avx2,
    /// Runtime-dispatched AVX-512 intrinsics — same portable bodies as the
    /// AVX2 tier recompiled with 8-lane registers, bitwise identical.
    Avx512,
    /// Runtime-dispatched NEON (aarch64), same bit-parity contract.
    Neon,
}

impl SimdLevel {
    /// Lowercase stable name, as stamped into health ledgers and reports.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            SimdLevel::None => "none",
            SimdLevel::Autovec => "autovec",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
            SimdLevel::Neon => "neon",
        }
    }
}

/// Map the numeric substrate's resolved dispatch tier
/// ([`bevra_num::simd::level`], honoring `BEVRA_SIMD`) onto the kernel
/// vocabulary. Used by backends whose hot loops run the dispatched
/// kernels, so their capability record reflects what actually executes.
#[must_use]
pub fn resolved_simd_level() -> SimdLevel {
    match bevra_num::simd::level() {
        bevra_num::simd::Level::Scalar => SimdLevel::None,
        bevra_num::simd::Level::Avx2 => SimdLevel::Avx2,
        bevra_num::simd::Level::Avx512 => SimdLevel::Avx512,
        bevra_num::simd::Level::Neon => SimdLevel::Neon,
    }
}

/// Self-reported description of a backend, consumed by the engine, the
/// persistent cache, the health ledger, and the auto-enumerating test
/// suites.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelCapability {
    /// Unique stable name; `BEVRA_KERNEL` selects by it, and the health
    /// ledger and metrics record it. It is deliberately *not* hashed into
    /// the persistent-cache key — the [`cache_tag`] is.
    ///
    /// [`cache_tag`]: KernelCapability::cache_tag
    pub name: &'static str,
    /// Parity contract against the per-point model methods. The parity
    /// suite derives its per-backend assertion from this.
    pub parity: ParityClass,
    /// SIMD engagement of the backend's hot loop (informational: SIMD
    /// dispatch never changes result bits, so it does not key the cache).
    pub simd: SimdLevel,
    /// Whether results are bit-identical across platforms and libm
    /// versions (true only for backends that never call libm).
    pub portable: bool,
    /// Whether the engine's `prime()` drives this backend over whole grids
    /// (and persists the rows). True for every built-in backend.
    pub grid_priming: bool,
    /// Fault-injection sites (`bevra_faults` site names) that cover this
    /// backend's evaluations — the chaos harness asserts through these.
    pub fault_sites: &'static [&'static str],
    /// Persistent-cache key tag. Backends whose results may differ get
    /// distinct tags so cached rows never cross parity classes.
    pub cache_tag: u8,
}

/// Every built-in backend evaluates π behind the fault-injection sites
/// `eval/best_effort` and `eval/reservation` (the wrapping lives in the
/// shared grid kernels and the per-point model methods, so it is
/// backend-independent).
const EVAL_SITES: &[&str] = &["eval/best_effort", "eval/reservation"];

/// An evaluation backend for the discrete model's grid primitives.
///
/// Object-safe by design: engines hold a `&'static dyn Kernel` and models
/// cross the boundary as [`DynModel`] views. All entry points take a
/// **sorted ascending, NaN-free** capacity grid (the engine sorts and
/// dedups before calling) and mirror the corresponding batched free
/// function.
pub trait Kernel: Send + Sync {
    /// The backend's self-description. Must be constant over the life of
    /// the process: the engine hashes parts of it into persistent-cache
    /// keys and stamps it into health ledgers.
    fn capability(&self) -> KernelCapability;

    /// Admission thresholds `k_max(C)` per capacity.
    ///
    /// Parity contract: equal to [`DiscreteModel::k_max`] per point for
    /// [`ParityClass::Bitwise`] backends; for tolerance backends, may
    /// differ only on value-curve plateaus (see [`ParityClass`]).
    /// No fault sites — the argmax is pure integer search over π.
    ///
    /// # Panics
    ///
    /// Panics if `capacities` is not sorted ascending or contains NaN.
    fn k_max_grid(&self, model: &DynModel<'_>, capacities: &[f64]) -> Vec<Option<u64>>;

    /// Normalized best-effort utility `B(C)` per capacity.
    ///
    /// Parity contract: per [`KernelCapability::parity`] against
    /// [`DiscreteModel::best_effort`]. Every returned value passes
    /// through the `eval/best_effort` fault site (positive capacities
    /// only, mirroring the per-point early return at `C ≤ 0`).
    ///
    /// # Panics
    ///
    /// Panics if `capacities` is not sorted ascending or contains NaN.
    fn best_effort_grid(&self, model: &DynModel<'_>, capacities: &[f64]) -> Vec<f64>;

    /// Normalized reservation utility `R(C)` per capacity, given the
    /// backend's own `k_max_grid` and `best_effort_grid` outputs (elastic
    /// lanes delegate `R = B`).
    ///
    /// Parity contract: per [`KernelCapability::parity`] against
    /// [`DiscreteModel::reservation`]. Every returned value passes
    /// through the `eval/reservation` fault site (unconditionally,
    /// mirroring [`DiscreteModel::reservation_with_kmax`]).
    ///
    /// # Panics
    ///
    /// Panics if slice lengths differ, or if `capacities` is not sorted
    /// ascending or contains NaN.
    fn reservation_grid(
        &self,
        model: &DynModel<'_>,
        capacities: &[f64],
        k_maxes: &[Option<u64>],
        best_efforts: &[f64],
    ) -> Vec<f64>;

    /// Full sweep: `k_max`, `B`, and `R` for every capacity. The default
    /// composes the three primitives in the canonical order (thresholds →
    /// best-effort → reservations), mirroring
    /// [`crate::discrete_batch::sweep_grid`]. The built-in backends
    /// override this with the fused B+R traversal ([`sweep_grid_fused`])
    /// — same parity contract, same fault sites in the same per-lane
    /// order (all `B` wraps, then all `R` wraps), so `@at=N` fault
    /// ordinals are backend-independent.
    ///
    /// # Panics
    ///
    /// As the three primitives.
    fn sweep_grid(&self, model: &DynModel<'_>, capacities: &[f64]) -> GridSweep {
        let k_max = self.k_max_grid(model, capacities);
        let best_effort = self.best_effort_grid(model, capacities);
        let reservation = self.reservation_grid(model, capacities, &k_max, &best_effort);
        GridSweep { k_max, best_effort, reservation }
    }

    /// Total (unnormalized) value `V(C) = k̄·B(C)` or `k̄·R(C)` per
    /// capacity — the quantity the engine's `value_table` prices against
    /// capacity. `reserved` selects the architecture. Same parity
    /// contract and fault sites as [`Kernel::sweep_grid`].
    ///
    /// # Panics
    ///
    /// As the three primitives.
    fn value_grid(&self, model: &DynModel<'_>, capacities: &[f64], reserved: bool) -> Vec<f64> {
        let sweep = self.sweep_grid(model, capacities);
        let kbar = model.mean_load();
        let per_flow = if reserved { sweep.reservation } else { sweep.best_effort };
        per_flow.into_iter().map(|v| kbar * v).collect()
    }
}

/// The grid-batched exact backend: loop-interchanged, bitwise.
struct BatchKernel;

impl Kernel for BatchKernel {
    fn capability(&self) -> KernelCapability {
        KernelCapability {
            name: "batch",
            parity: ParityClass::Bitwise,
            simd: SimdLevel::Autovec,
            portable: false,
            grid_priming: true,
            fault_sites: EVAL_SITES,
            // The fused exact sweep mirrors the unfused pair op for op, so
            // the tag of the unfused exact rows still applies.
            cache_tag: 0,
        }
    }

    fn k_max_grid(&self, model: &DynModel<'_>, capacities: &[f64]) -> Vec<Option<u64>> {
        // Per-point thresholds (not the carried bracket): the batch
        // backend's contract is an op-for-op mirror of the model methods.
        capacities.iter().map(|&c| model.k_max(c)).collect()
    }

    fn best_effort_grid(&self, model: &DynModel<'_>, capacities: &[f64]) -> Vec<f64> {
        best_effort_grid(model, capacities, PiEval::Exact)
    }

    fn reservation_grid(
        &self,
        model: &DynModel<'_>,
        capacities: &[f64],
        k_maxes: &[Option<u64>],
        best_efforts: &[f64],
    ) -> Vec<f64> {
        reservation_grid_pi(model, capacities, k_maxes, best_efforts, PiEval::Exact)
    }

    fn sweep_grid(&self, model: &DynModel<'_>, capacities: &[f64]) -> GridSweep {
        // Fused B+R traversal; bitwise identical to composing the three
        // primitives (the pointwise fused loop is an op-for-op mirror).
        sweep_grid_fused(model, capacities, PiEval::Exact)
    }
}

/// The vectorized fast backend: packed polynomial π for `B`, carried
/// argmax for `k_max`, exact π for `R`.
struct FastKernel;

impl Kernel for FastKernel {
    fn capability(&self) -> KernelCapability {
        KernelCapability {
            name: "fast",
            parity: ParityClass::Tolerance(FAST_TRUNC_REL),
            // Runtime truth, not a static claim: reflects the dispatch
            // tier the numeric kernels resolved (honoring `BEVRA_SIMD`).
            // Cached after first use, so constant for the process life.
            simd: resolved_simd_level(),
            portable: false,
            grid_priming: true,
            fault_sites: EVAL_SITES,
            // Tag 3 (formerly 1): the fused k-span sweep changed the fast
            // backend's result bits, so cached unfused rows must not be
            // served to it. SIMD tier does NOT key the cache — all tiers
            // produce identical bits by the wrapper contract.
            cache_tag: 3,
        }
    }

    fn k_max_grid(&self, model: &DynModel<'_>, capacities: &[f64]) -> Vec<Option<u64>> {
        // Carried bracket over the exact V(k): thresholds are bitwise the
        // per-point ones (the fast π never feeds the argmax).
        k_max_grid_pi(model, capacities, PiEval::Fast)
    }

    fn best_effort_grid(&self, model: &DynModel<'_>, capacities: &[f64]) -> Vec<f64> {
        best_effort_grid(model, capacities, PiEval::Fast)
    }

    fn reservation_grid(
        &self,
        model: &DynModel<'_>,
        capacities: &[f64],
        k_maxes: &[Option<u64>],
        best_efforts: &[f64],
    ) -> Vec<f64> {
        reservation_grid_pi(model, capacities, k_maxes, best_efforts, PiEval::Fast)
    }

    fn sweep_grid(&self, model: &DynModel<'_>, capacities: &[f64]) -> GridSweep {
        // Fused fast sweep: per-lane k-span walk with the R head as an
        // accumulator snapshot (utilities without a k-span kernel fall
        // back to the unfused fast composition inside). Same tolerance
        // contract as the primitives, different summation grouping —
        // hence this backend's distinct cache tag.
        sweep_grid_fused(model, capacities, PiEval::Fast)
    }
}

/// The cross-platform deterministic backend: scalar polynomial π
/// everywhere, no libm.
struct PortableKernel;

impl Kernel for PortableKernel {
    fn capability(&self) -> KernelCapability {
        KernelCapability {
            name: "deterministic-portable",
            parity: ParityClass::Tolerance(FAST_TRUNC_REL),
            simd: SimdLevel::None,
            portable: true,
            grid_priming: true,
            fault_sites: EVAL_SITES,
            // The fused exact/portable sweep is bitwise the unfused pair,
            // so the tag (and the pinned portable digests) are unchanged.
            cache_tag: 2,
        }
    }

    fn k_max_grid(&self, model: &DynModel<'_>, capacities: &[f64]) -> Vec<Option<u64>> {
        k_max_grid_pi(model, capacities, PiEval::Portable)
    }

    fn best_effort_grid(&self, model: &DynModel<'_>, capacities: &[f64]) -> Vec<f64> {
        best_effort_grid(model, capacities, PiEval::Portable)
    }

    fn reservation_grid(
        &self,
        model: &DynModel<'_>,
        capacities: &[f64],
        k_maxes: &[Option<u64>],
        best_efforts: &[f64],
    ) -> Vec<f64> {
        reservation_grid_pi(model, capacities, k_maxes, best_efforts, PiEval::Portable)
    }

    fn sweep_grid(&self, model: &DynModel<'_>, capacities: &[f64]) -> GridSweep {
        // Fused, and bitwise the unfused portable pair — pinned portable
        // digests are unaffected.
        sweep_grid_fused(model, capacities, PiEval::Portable)
    }
}

static BATCH: BatchKernel = BatchKernel;
static FAST: FastKernel = FastKernel;
static PORTABLE: PortableKernel = PortableKernel;

/// The grid-batched exact backend (`BEVRA_KERNEL=batch`, the default):
/// loop-interchanged table walk, bitwise identical to the per-point
/// model methods.
#[must_use]
pub fn batch() -> &'static dyn Kernel {
    &BATCH
}

/// The vectorized fast backend (`BEVRA_KERNEL=fast`): packed polynomial
/// π for `B`, within 1e-13 relative of exact; `k_max` and `R` bitwise.
#[must_use]
pub fn fast() -> &'static dyn Kernel {
    &FAST
}

/// The cross-platform deterministic backend
/// (`BEVRA_KERNEL=deterministic-portable`): every π through the
/// branch-free polynomial, bit-identical on every platform and libm.
#[must_use]
pub fn portable() -> &'static dyn Kernel {
    &PORTABLE
}

/// The three built-in backends, in registry order.
#[must_use]
pub fn builtin() -> [&'static dyn Kernel; 3] {
    [batch(), fast(), portable()]
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
    fn builtin_capabilities_are_distinctly_named() {
        let names: Vec<_> = builtin().iter().map(|k| k.capability().name).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate builtin names: {names:?}");
    }

    #[test]
    fn batch_backend_matches_per_point_model() {
        let m = model();
        let d = m.as_dyn();
        let cs = [0.5, 2.0, 5.0, 10.0, 20.0, 40.0];
        let k = batch();
        assert_eq!(k.capability().parity, ParityClass::Bitwise);
        let got = k.sweep_grid(&d, &cs);
        for (i, &c) in cs.iter().enumerate() {
            assert_eq!(got.k_max[i], m.k_max(c), "k_max C={c}");
            assert_eq!(got.best_effort[i].to_bits(), m.best_effort(c).to_bits());
            assert_eq!(got.reservation[i].to_bits(), m.reservation(c).to_bits());
        }
    }

    #[test]
    fn value_grid_mirrors_value_table_scaling() {
        let m = model();
        let d = m.as_dyn();
        let cs = [5.0, 10.0, 20.0];
        let vb = batch().value_grid(&d, &cs, false);
        let vr = batch().value_grid(&d, &cs, true);
        for (i, &c) in cs.iter().enumerate() {
            assert_eq!(vb[i].to_bits(), (m.mean_load() * m.best_effort(c)).to_bits());
            assert_eq!(vr[i].to_bits(), (m.mean_load() * m.reservation(c)).to_bits());
        }
    }
}
