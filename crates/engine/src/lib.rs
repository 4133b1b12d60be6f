//! Parallel sweep engine for the bevra workspace.
//!
//! Every figure of the paper's evaluation reduces to dense sweeps of four
//! quantities over capacity and price grids: `B(C)`, `R(C)`,
//! `δ(C) = R − B`, and the bandwidth gap `Δ(C)`. Evaluating them serially
//! re-sums megabyte-scale load tables hundreds of times; this crate makes
//! the sweeps parallel and memoized while keeping the numerics **exactly**
//! the serial scalar code:
//!
//! * [`pool`] — scoped-thread `parallel_map` with deterministic output
//!   ordering (`BEVRA_THREADS` overrides the worker count), plus
//!   [`parallel_map_supervised`] which catches per-item panics and
//!   re-runs them up to a fixed attempt count (then a structured
//!   [`ItemError`]) so one bad grid point degrades instead of aborting
//!   the sweep;
//! * [`cache`] — sharded thread-safe memo tables keyed by capacity bit
//!   patterns, with hit/miss counters;
//! * [`persist`] — the engine's only on-disk store: a cross-run value
//!   cache keyed by content hashes of (load digest, utility, grid), gated
//!   by `BEVRA_CACHE=off|rw|ro`. It holds value-table rows, so warm
//!   figure regeneration skips the value tables, and finished sweep
//!   batches, so a killed sweep resumes and a repeated one is read back
//!   (corrupt or missing entries degrade to recompute);
//! * [`engine`] — the [`SweepEngine`] tying both to a
//!   [`bevra_core::DiscreteModel`]: memoized `B`/`R` evaluations shared
//!   between the gap root-finder and the welfare tables, and parallel
//!   grid sweeps;
//! * [`instrument`] — spans per sweep stage (a shim over the workspace's
//!   [`bevra_obs`] observability crate: hierarchical, thread-aware,
//!   panic-safe) plus the cache-counter and [`SweepHealth`] registries a
//!   figure run drains into its [`ledger`] line. With `BEVRA_OBS=trace`
//!   figure binaries also export chrome-trace JSON — see the
//!   `bevra-obs` docs;
//! * [`ledger`] — the run ledger: one CRC-tailed JSON line per figure run
//!   with per-stage times, per-cache counters, and merged health.
//!
//! # Kernel backend
//!
//! Grid priming goes through a [`bevra_core::Kernel`] backend, resolved
//! through the [`registry`]. The backend self-reports a
//! [`bevra_core::KernelCapability`] record — name, SIMD tier, grid
//! priming — that the [`SweepHealth`] ledger and the run ledger stamp.
//! There is one backend, `batch` (loop-interchanged grids, bitwise
//! identical to the per-point path). `BEVRA_KERNEL=batch` selects it;
//! any other name, the retired `fast` and `deterministic-portable`
//! included, falls back to `batch` with a warning.
//!
//! # Determinism
//!
//! Parallel output is **bitwise-identical** to serial output: each grid
//! point is a pure function evaluated by the same scalar code path, the
//! pool writes results by input index, and the caches memoize pure
//! functions (racing threads compute identical bits). The workspace's
//! `engine_parity` property test asserts this across all three load
//! families. The backend mirrors the per-point path op for op, so
//! priming changes wall-clock, never bits.
//!
//! # Degradation
//!
//! [`SweepEngine::sweep_checked`] is the failure-aware sweep: every grid
//! point gets a [`PointOutcome`] and the run a [`SweepHealth`] ledger
//! (ok/degraded/failed counts, non-finite tally, first failure cause)
//! that the report crate merges into each figure run's ledger line.
//! Fault injection for exercising these paths lives in `bevra-faults`
//! (`BEVRA_FAULTS`); with no plan active the checked paths are
//! bitwise-identical to the legacy ones.
//!
//! ```
//! use bevra_engine::{ExecMode, SweepEngine};
//! use bevra_core::DiscreteModel;
//! use bevra_load::{Poisson, Tabulated};
//! use bevra_utility::AdaptiveExp;
//!
//! let load = Tabulated::from_model(&Poisson::new(100.0), 1e-12, 1 << 16);
//! let engine = SweepEngine::new(DiscreteModel::new(load, AdaptiveExp::paper()));
//! let points = engine.sweep(&[50.0, 100.0, 200.0]);
//! assert!(points[2].reservation >= points[2].best_effort);
//! assert!(points[0].bandwidth_gap > 0.0);
//! ```

#![deny(missing_docs)]

pub mod cache;
pub mod engine;
pub mod instrument;
pub mod ledger;
pub mod persist;
pub mod pool;
pub mod registry;

pub use bevra_core::{Kernel, KernelCapability, SimdLevel};
pub use cache::{CacheStats, ShardedCache};
pub use engine::{
    Architecture, CheckedSweep, ExecMode, PointOutcome, SweepEngine, SweepPoint,
};
pub use ledger::{LedgerRecord, LEDGER_FILE, LEDGER_SCHEMA};
pub use persist::{append_line, grid_key, CacheMode, GridRow, PersistentCache};
pub use instrument::{
    drain_caches, drain_health, drain_stages, record_caches, record_health, span, Span,
    StageRecord, SweepHealth,
};
pub use pool::{
    chunk_ranges, default_thread_count, parallel_map, parallel_map_supervised, parallel_map_with,
    parse_thread_count, thread_count, ItemError, MAX_THREADS, POINT_ATTEMPTS, THREADS_ENV,
};
