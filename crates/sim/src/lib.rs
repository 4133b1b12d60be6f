//! Flow-level discrete-event simulator of a bottleneck link.
//!
//! The paper's analysis is purely static: it posits a stationary load
//! distribution `P(k)` and evaluates utilities in expectation. The authors
//! had no executable system. This crate supplies one — a deterministic,
//! seeded, event-driven simulator in which flows actually arrive, share the
//! link, get admitted or blocked, retry, and depart — so the analytical
//! model can be validated against a mechanistic process rather than taken
//! on faith.
//!
//! # Correspondence with the paper's load families
//!
//! Flows arrive as a Poisson process whose rate is *modulated*: re-drawn
//! from a mixing distribution at exponentially-spaced epochs
//! ([`arrivals::MixedPoisson`]). With exponential holding times the
//! stationary occupancy of this M/G/∞-like system is a **mixed Poisson**,
//! and the classical correspondences give exactly the paper's three
//! families:
//!
//! * fixed rate → Poisson occupancy;
//! * exponentially-mixed rate → geometric ("exponential") occupancy;
//! * Pareto-mixed rate → power-law ("algebraic") occupancy tail.
//!
//! # Measured quantities
//!
//! Per completed flow the simulator records utility three ways, matching
//! the model and both directions of its §5.1 sampling discussion: at the
//! admission instant (PASTA ⇒ comparable to the basic model), time-averaged
//! over the flow's lifetime, and at the worst (maximum-population) moment
//! experienced. Blocked flows score zero; retries incur the §5.2 penalty
//! `α`. A time-weighted occupancy census yields an empirical `P(k)` that
//! can be fed straight back into `bevra-core`'s `DiscreteModel`
//! (re-exported here for convenience via `bevra_load::Tabulated`).

pub mod arrivals;
pub mod census;
pub mod draws;
pub mod events;
pub mod fleet;
pub mod flows;
pub mod holding;
pub mod link;
pub mod queue;
pub mod runner;
pub mod stats;
pub mod wheel;

pub use arrivals::{MixedPoisson, RateMixing};
pub use census::Census;
pub use fleet::{Fleet, FleetConfig, FleetHealth, FleetReport, LaneFailure};
pub use holding::HoldingDist;
pub use link::{Discipline, RetryPolicy};
pub use runner::{QueueKind, SimConfig, SimError, SimReport, Simulation};
pub use stats::Welford;
pub use wheel::TimerWheelQueue;
