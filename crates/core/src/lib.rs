//! The comparative analysis of Breslau & Shenker,
//! *"Best-Effort versus Reservations: A Simple Comparative Analysis"*
//! (SIGCOMM 1998) — the paper's primary contribution, implemented in full.
//!
//! # The question
//!
//! Should a network adopt a reservation-capable (admission-controlled)
//! architecture, or stay best-effort-only and simply buy more bandwidth?
//! The paper formalizes the comparison on a single bottleneck link of
//! capacity `C` shared equally by a random number of identical flows.
//!
//! # The quantities
//!
//! With load distribution `P(k)` (mean `k̄`) and per-flow utility `π(b)`:
//!
//! * **Best-effort**: every flow is admitted, each gets `C/k`;
//!   `B(C) = (1/k̄)·Σ_k P(k)·k·π(C/k)`.
//! * **Reservations**: at most `k_max(C) = argmax_k k·π(C/k)` flows are
//!   admitted; admitted flows get `C/min(k, k_max)`, rejected flows get 0;
//!   `R(C) = (1/k̄)·Σ_k P(k)·min(k, k_max)·π(C/min(k, k_max))`.
//! * **Performance gap** `δ(C) = R(C) − B(C)` and **bandwidth gap** `Δ(C)`
//!   solving `R(C) = B(C + Δ(C))` — how much extra capacity buys best-effort
//!   parity ([`gaps`]).
//! * **Welfare** `W(p) = max_C V(C) − pC` at bandwidth price `p`, and the
//!   **equalizing price ratio** `γ(p)`: how much more expensive reservation
//!   bandwidth may be before best-effort wins ([`welfare`]).
//!
//! # The models
//!
//! * [`discrete`] — numerical evaluation on tabulated loads (paper §3.1);
//! * [`continuum`] — the analytically tractable twin (§3.2): a generic
//!   quadrature evaluator plus every closed form the paper derives, each
//!   cross-checked against the other in tests;
//! * [`sampling`] — §5.1: utility driven by the worst of `S` load samples;
//! * [`retrying`] — §5.2: blocked reservations retry at penalty `α`,
//!   self-consistently inflating the offered load;
//! * [`asymptotics`] — the paper's limit formulas (logarithmic/linear
//!   bandwidth-gap growth, `γ(0⁺)` constants, the `(e−1)·C` worst case),
//!   exposed as plain functions so experiments can compare measured curves
//!   against predicted ones.

#![deny(missing_docs)]

pub mod asymptotics;
pub mod continuum;
pub mod discrete;
pub mod discrete_batch;
pub mod gaps;
pub mod heterogeneous;
pub mod kernel;
pub mod retrying;
pub mod sampling;
pub mod welfare;

pub use discrete::DiscreteModel;
pub use discrete_batch::{k_max_grid, sweep_grid, GridSweep};
pub use kernel::{DynModel, Kernel, KernelCapability, SimdLevel};
pub use gaps::{bandwidth_gap, performance_gap};
pub use heterogeneous::{mix_loads, FlowClass, HeterogeneousModel, RiskAverseModel};
pub use retrying::RetryModel;
pub use sampling::SamplingModel;
pub use welfare::{equalizing_price_ratio, optimal_welfare, SampledValue, WelfarePoint};
