//! End-to-end benchmark of `bevra`.
//!
//! What a user of `bevra` waits for is a whole figure or a whole simulator
//! run, so the benchmark times those: `fig4` with a cold and a warm
//! value-table cache, the retrying extension, and a simulator fleet. Each
//! job runs in a fresh child process through the same library entry points
//! the binaries call, and every output is checked against a committed
//! reference. A separate traced run does the same work through each
//! layer's public functions and times those calls from here, giving the
//! per-layer numbers without any tracing inside the program.
//!
//! See `README.md` in this directory for the workloads, metrics and bounds.

pub mod check;
pub mod child;
pub mod compare;
pub mod harness;
pub mod jsonw;
pub mod probe;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod traced;
pub mod workload;
