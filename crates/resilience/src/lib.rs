//! Failure handling for the workspace: deterministic retries, circuit
//! breakers, and supervised work units.
//!
//! The rest of the workspace *injects* adversity (`bevra-faults`) and
//! *accounts* for it (`SweepHealth`, `FleetHealth`); this crate is the layer
//! that *recovers*. Its three primitives share one design rule — *nothing
//! here may perturb a deterministic result*:
//!
//! * [`RetryPolicy`] — exponential backoff whose jitter is drawn from
//!   [`rand::derive_seed`], so a retry schedule is a pure function of the
//!   policy (deterministic per seed, monotone nondecreasing, bounded by a
//!   total budget). Waiting goes through the [`Clock`] abstraction from
//!   `bevra-faults`: real sleeps in production ([`WallClock`]), accounted
//!   virtual time under an active fault plan ([`VirtualClock`]).
//! * [`CircuitBreaker`] — a per-site closed/open/half-open state machine
//!   with a *call-counted* (not wall-clock) probe cadence, so breaker
//!   behavior replays identically run to run.
//! * [`Supervisor`] — restarts failed work units under a [`RetryPolicy`],
//!   consulting a [`CircuitBreaker`] so persistent failure fails fast
//!   instead of burning the retry budget on every unit.
//!
//! The crate reads no environment variable: callers pick a policy
//! ([`RetryPolicy::compute`], [`RetryPolicy::io`]) in code.

#![deny(missing_docs)]

pub mod breaker;
pub mod retry;
pub mod supervisor;

pub use breaker::{BreakerState, CircuitBreaker};
pub use retry::{RetryOutcome, RetryPolicy};
pub use supervisor::{Supervisor, SupervisorStats};

// Re-export the clock abstraction this crate's waiting is built on, so
// callers need not also depend on bevra-faults directly.
pub use bevra_faults::io::{Clock, VirtualClock, WallClock};

/// The clock a resilience caller should wait on right now: the
/// deterministic [`VirtualClock`] whenever a fault plan is active (chaos
/// runs must not sleep), the real [`WallClock`] otherwise.
#[must_use]
pub fn ambient_clock() -> Box<dyn Clock> {
    if bevra_faults::active() {
        Box::new(VirtualClock::default())
    } else {
        Box::new(WallClock::default())
    }
}
