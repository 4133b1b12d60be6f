//! Offered-load models for the variable-load analysis
//! (Breslau & Shenker, SIGCOMM 1998, §3).
//!
//! The number of flows requesting service on the bottleneck link is a random
//! variable `k ~ P(k)`. The paper studies three families, all calibrated to
//! a common mean `k̄` (100 in every published figure):
//!
//! * **Poisson** — tightly concentrated load, the stationary occupancy of a
//!   Poisson arrival process with independent departures;
//! * **exponential** (a geometric distribution in the discrete model,
//!   `P(k) ∝ e^{−βk}`) — load decaying over its whole range;
//! * **algebraic** — `P(k) = A/(λ + k^z)`, a heavy power-law tail whose
//!   plausibility the paper connects to the self-similarity literature.
//!   Two parameters let the mean vary while the tail exponent `z` stays
//!   fixed; the mean exists only for `z > 2`.
//!
//! Ideal distributions implement [`LoadModel`]; numerical work happens on
//! [`Tabulated`], an exact finite distribution with recorded truncation
//! bounds. Derived views — the flow-perspective (size-biased) distribution
//! `Q(k) = k·P(k)/k̄` and max-of-`S` order statistics — feed the basic model
//! and the §5.1 sampling extension. [`continuum`] holds the continuous
//! densities of the paper's analytically tractable twin model, and
//! [`sample`] provides seeded samplers for the simulator.

// `!(x > 0.0)`-style guards deliberately reject NaN along with the
// out-of-domain values.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod algebraic;
pub mod continuum;
pub mod geometric;
pub mod order_stats;
pub mod perspective;
pub mod poisson;
pub mod sample;
pub mod tabulated;
pub mod traits;

pub use algebraic::{Algebraic, PowerTable};
pub use continuum::{ContinuumLoad, ExponentialDensity, ParetoDensity};
pub use geometric::Geometric;
pub use order_stats::{clip_at, max_of_s};
pub use perspective::flow_perspective;
pub use poisson::Poisson;
pub use sample::{BoundedPareto, ExpSampler, ParetoSampler, TabulatedSampler};
pub use tabulated::{PowerLawTail, Tabulated, SMOOTH_HEAD};
pub use traits::LoadModel;

/// The paper's calibration: every published figure uses mean load k̄ = 100.
pub const PAPER_MEAN_LOAD: f64 = 100.0;
