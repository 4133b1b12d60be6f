//! # bevra — Best-Effort versus Reservations
//!
//! A complete Rust implementation of Breslau & Shenker,
//! *"Best-Effort versus Reservations: A Simple Comparative Analysis"*
//! (SIGCOMM 1998), plus the executable substrate the paper never had: a
//! flow-level simulator and a multi-link max-min network model.
//!
//! This facade crate re-exports the workspace members under stable module
//! names and provides a [`prelude`] for the common path. See `README.md`
//! for a tour and `DESIGN.md` for the full system inventory.
//!
//! ```
//! use bevra::prelude::*;
//!
//! // The paper's Figure 3 setting: exponential load, mean 100, rigid apps.
//! let load = Tabulated::from_model(&Geometric::from_mean(100.0), 1e-12, 1 << 20);
//! let model = DiscreteModel::new(load, Rigid::unit());
//! let capacity = 200.0;
//! let b = model.best_effort(capacity);
//! let r = model.reservation(capacity);
//! assert!(r > b, "reservations always hold an edge");
//! let delta = bandwidth_gap(&model, capacity).unwrap();
//! assert!(delta > 100.0, "…and for this load it takes a LOT of extra \
//!                         best-effort bandwidth to close it: {delta}");
//! ```
//!
//! Dense sweeps (whole figures, welfare tables) should go through the
//! [`engine`]'s [`SweepEngine`](bevra_engine::SweepEngine), which memoizes
//! `k_max`/`B`/`R` and fans grids out over threads (`BEVRA_THREADS`
//! overrides the worker count) with bitwise-identical output:
//!
//! ```
//! use bevra::prelude::*;
//!
//! let load = Tabulated::from_model(&Poisson::new(100.0), 1e-12, 1 << 16);
//! let engine = SweepEngine::new(DiscreteModel::new(load, AdaptiveExp::paper()));
//! let points = engine.sweep(&[50.0, 100.0, 200.0, 400.0]);
//! for p in &points {
//!     assert!(p.reservation >= p.best_effort, "R(C) ≥ B(C) at C = {}", p.capacity);
//! }
//! // δ and Δ both shrink as the link gets overprovisioned.
//! assert!(points[3].performance_gap < points[1].performance_gap);
//! assert!(points[3].bandwidth_gap < points[1].bandwidth_gap);
//! ```

/// Numerical substrate (root finding, quadrature, optimization, special
/// functions).
pub use bevra_num as num;

/// Utility functions `π(b)` and the fixed-load model (§2).
pub use bevra_utility as utility;

/// Offered-load distributions and tabulation (§3.1).
pub use bevra_load as load;

/// The comparative analysis: discrete and continuum models, gaps, welfare,
/// sampling and retrying extensions (§3–§5).
pub use bevra_core as analysis;

/// Flow-level discrete-event simulator of the bottleneck link.
pub use bevra_sim as sim;

/// Multi-link max-min network substrate.
pub use bevra_net as net;

/// Figure regeneration, ASCII charts, CSV/JSON emission.
pub use bevra_report as report;

/// Parallel, memoized sweep engine for dense capacity/price grids.
pub use bevra_engine as engine;

/// Timing spans, the flight recorder and the chrome-trace exporter (`BEVRA_OBS=off|trace`).
pub use bevra_obs as obs;

/// The items most programs need.
pub mod prelude {
    pub use bevra_core::{
        bandwidth_gap, equalizing_price_ratio, optimal_welfare, performance_gap, DiscreteModel,
        Kernel, KernelCapability, RetryModel, SampledValue, SamplingModel, SimdLevel,
    };
    pub use bevra_engine::{Architecture, ExecMode, SweepEngine, SweepPoint};
    pub use bevra_load::{
        flow_perspective, Algebraic, Geometric, LoadModel, Poisson, Tabulated, PAPER_MEAN_LOAD,
    };
    pub use bevra_sim::{Discipline, HoldingDist, MixedPoisson, RateMixing, SimConfig, Simulation};
    pub use bevra_utility::{AdaptiveExp, Ramp, Rigid, Utility};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_wires_the_workspace_together() {
        let load = Tabulated::from_model(&Poisson::new(20.0), 1e-12, 1 << 16);
        let model = DiscreteModel::new(load, AdaptiveExp::paper());
        assert!(model.reservation(20.0) >= model.best_effort(20.0));
    }
}
