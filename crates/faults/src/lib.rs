//! Deterministic fault injection for the bevra workspace.
//!
//! The paper's §5.2 retrying extension models a system in which failures
//! are *expected* — blocked reservations are retried with a per-attempt
//! penalty. This crate makes the workspace's own failure paths equally
//! first-class: seeded, reproducible fault plans that inject worker
//! panics, NaN/Inf corruption, forced numerical non-convergence, and
//! transient/permanent I/O errors at named sites compiled into the other
//! crates, so the degradation machinery (panic-isolated sweeps,
//! `SweepHealth` accounting, atomic artifact persistence, the simulator
//! watchdog) is tested rather than trusted.
//!
//! # Gating
//!
//! Injection is controlled by the `BEVRA_FAULTS` environment variable
//! (see [`plan`] for the grammar) or programmatically via [`install`].
//! With no plan active every query is one relaxed atomic load returning
//! "no fault" — the instrumented hot paths stay bitwise-identical to
//! uninstrumented code, which the workspace's determinism and golden
//! corpus tests assert.
//!
//! # Concurrency
//!
//! The plan registry is process-global. [`install`] serializes callers on
//! an internal lock and returns an RAII [`InstallGuard`]; tests that
//! inject faults therefore never interleave two plans. Reading the
//! active plan is lock-free in the common (inactive) case.
//!
//! ```
//! use bevra_faults::{install, FaultKind, FaultPlan, FaultRule};
//!
//! let plan = FaultPlan::seeded(7)
//!     .rule(FaultRule::at_key(FaultKind::Nan, "doc/site", 3));
//! let _guard = install(plan);
//! assert!(bevra_faults::corrupt_f64("doc/site", 3, 1.0).is_nan());
//! assert_eq!(bevra_faults::corrupt_f64("doc/site", 4, 1.0), 1.0);
//! ```

#![deny(missing_docs)]

mod fnv;
pub mod io;
pub mod plan;

pub use fnv::{fnv1a, Fnv1a};

pub use io::{
    ambient_clock, atomic_write, atomic_write_with, retry_transient, Clock, RetryPolicy,
    VirtualClock, WallClock, Writer,
};
pub use plan::{FaultKind, FaultPlan, FaultRule};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Environment variable holding the fault plan (see [`plan`] for the
/// grammar). Read once, on the first injection query.
pub const FAULTS_ENV: &str = "BEVRA_FAULTS";

const STATE_UNINIT: u8 = u8::MAX;
const STATE_OFF: u8 = 0;
const STATE_ON: u8 = 1;

/// Fast-path gate: `STATE_ON` iff a non-empty plan is active.
static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);

/// The active plan (`None` when injection is off).
static PLAN: Mutex<Option<Arc<FaultPlan>>> = Mutex::new(None);

/// Serializes [`install`] callers so two fault plans never overlap.
static INSTALL_LOCK: Mutex<()> = Mutex::new(());

fn lock_plan() -> MutexGuard<'static, Option<Arc<FaultPlan>>> {
    // A panic while holding the plan lock leaves valid contents (we only
    // ever store complete Options), so poisoning is recoverable.
    PLAN.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Whether any fault plan is active — one relaxed atomic load after
/// first-use initialization from [`FAULTS_ENV`].
#[inline]
#[must_use]
pub fn active() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => init_from_env(),
    }
}

/// Cold path of [`active`]: parse [`FAULTS_ENV`] once. A malformed plan
/// is reported on stderr and treated as absent — a typo in the variable
/// must degrade to a clean run, not a half-injected one.
#[cold]
fn init_from_env() -> bool {
    let parsed = match std::env::var(FAULTS_ENV) {
        Ok(text) => match FaultPlan::parse(&text) {
            Ok(p) if !p.rules.is_empty() => Some(p),
            Ok(_) => None,
            Err(e) => {
                eprintln!("bevra-faults: ignoring malformed {FAULTS_ENV}: {e}");
                None
            }
        },
        Err(_) => None,
    };
    let on = parsed.is_some();
    {
        let mut slot = lock_plan();
        // A racing install() wins: only fill from env while uninitialized.
        if STATE.load(Ordering::Relaxed) == STATE_UNINIT {
            *slot = parsed.map(Arc::new);
            STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
        }
    }
    STATE.load(Ordering::Relaxed) == STATE_ON
}

/// The currently active plan, if any.
#[must_use]
pub fn current_plan() -> Option<Arc<FaultPlan>> {
    if !active() {
        return None;
    }
    lock_plan().clone()
}

/// RAII handle of a programmatic [`install`]: dropping it deactivates
/// injection and releases the installation lock.
pub struct InstallGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        *lock_plan() = None;
        STATE.store(STATE_OFF, Ordering::Relaxed);
    }
}

/// Activate `plan` for the lifetime of the returned guard. Blocks until
/// any previously installed plan is dropped, so concurrent tests
/// serialize instead of corrupting each other's injections. While a
/// guard is live the environment plan (if any) is shadowed; after the
/// guard drops, injection is off for the rest of the process.
#[must_use]
pub fn install(plan: FaultPlan) -> InstallGuard {
    let lock = INSTALL_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    *lock_plan() = Some(Arc::new(plan));
    STATE.store(STATE_ON, Ordering::Relaxed);
    InstallGuard { _lock: lock }
}

/// Marker prefix of every injected panic message, so panic hooks and
/// assertions can tell injected faults from genuine bugs.
pub const PANIC_MARKER: &str = "bevra-faults: injected panic";

/// Observer invoked synchronously (on the querying thread) every time a
/// fault rule actually trips: `(kind, site, key)`. The flight recorder in
/// `bevra-obs` installs one so blackboxes capture the exact injection
/// sequence; with no observer registered the trip path pays one
/// `OnceLock::get`. Never invoked on the no-fault fast path.
pub type TripObserver = fn(FaultKind, &str, u64);

static TRIP_OBSERVER: OnceLock<TripObserver> = OnceLock::new();

/// Register the process-wide [`TripObserver`]. The first caller wins;
/// later calls are ignored and return `false`. The observer must not
/// panic and must not query fault sites (it runs inside them).
pub fn set_trip_observer(observer: TripObserver) -> bool {
    TRIP_OBSERVER.set(observer).is_ok()
}

#[cold]
fn notify_trip(kind: FaultKind, site: &str, key: u64) {
    if let Some(obs) = TRIP_OBSERVER.get() {
        obs(kind, site, key);
    }
}

/// Panic if a [`FaultKind::Panic`] rule trips at `(site, key)`. The
/// message starts with [`PANIC_MARKER`].
#[inline]
pub fn panic_point(site: &str, key: u64) {
    if active() {
        if let Some(plan) = current_plan() {
            if plan.trips(FaultKind::Panic, site, key) {
                notify_trip(FaultKind::Panic, site, key);
                panic!("{PANIC_MARKER} at {site}[{key}]");
            }
        }
    }
}

/// Attempt-aware variant of [`panic_point`] for supervised call sites:
/// panics only while `attempt` is below the matching rule's `n` parameter
/// (default: every attempt, i.e. a *permanent* fault). This makes panic
/// faults symmetric with [`io_fault`]'s transient/permanent split — a rule
/// like `panic:engine/point@p=0.3,n=1` fails each tripped point's first
/// attempt and lets the policy-driven retry rescue it, while a rule
/// without `n` keeps the point dead through every retry.
#[inline]
pub fn panic_point_attempt(site: &str, key: u64, attempt: u64) {
    if active() {
        if let Some(plan) = current_plan() {
            if plan.trips(FaultKind::Panic, site, key)
                && attempt < plan.count_for(FaultKind::Panic, site).unwrap_or(u64::MAX)
            {
                notify_trip(FaultKind::Panic, site, key);
                panic!("{PANIC_MARKER} at {site}[{key}] (attempt {attempt})");
            }
        }
    }
}

/// Pass `value` through the corruption sites: `NaN` if a
/// [`FaultKind::Nan`] rule trips at `(site, key)`, `+∞` for
/// [`FaultKind::Inf`], otherwise `value` untouched (bit-exact).
#[inline]
#[must_use]
pub fn corrupt_f64(site: &str, key: u64, value: f64) -> f64 {
    if !active() {
        return value;
    }
    match current_plan() {
        Some(plan) if plan.trips(FaultKind::Nan, site, key) => {
            notify_trip(FaultKind::Nan, site, key);
            f64::NAN
        }
        Some(plan) if plan.trips(FaultKind::Inf, site, key) => {
            notify_trip(FaultKind::Inf, site, key);
            f64::INFINITY
        }
        _ => value,
    }
}

/// Whether a [`FaultKind::NumErr`] rule trips at `(site, key)` — callers
/// in `bevra-num` return `NumError::MaxIterations` when it does.
#[inline]
#[must_use]
pub fn forced_numerr(site: &str, key: u64) -> bool {
    let tripped = active()
        && current_plan().is_some_and(|p| p.trips(FaultKind::NumErr, site, key));
    if tripped {
        notify_trip(FaultKind::NumErr, site, key);
    }
    tripped
}

/// An injected I/O failure mode, consumed by [`io`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFault {
    /// This attempt fails; a later attempt may succeed.
    Transient,
    /// Every attempt fails.
    Permanent,
}

/// The injected failure (if any) for I/O `attempt` (0-based) at `site`.
///
/// A [`FaultKind::IoPermanent`] rule fails every attempt. A
/// [`FaultKind::IoTransient`] rule fails attempts `0..n` (its `n`
/// parameter, default 1) and lets later attempts through, modelling a
/// glitch that a bounded retry rides out.
#[inline]
#[must_use]
pub fn io_fault(site: &str, attempt: u64) -> Option<IoFault> {
    if !active() {
        return None;
    }
    let plan = current_plan()?;
    if plan.trips(FaultKind::IoPermanent, site, attempt) {
        notify_trip(FaultKind::IoPermanent, site, attempt);
        return Some(IoFault::Permanent);
    }
    if plan.trips(FaultKind::IoTransient, site, attempt) {
        let failing = plan.count_for(FaultKind::IoTransient, site).unwrap_or(1);
        if attempt < failing {
            notify_trip(FaultKind::IoTransient, site, attempt);
            return Some(IoFault::Transient);
        }
    }
    None
}

/// The budget override (a [`FaultKind::Budget`] rule's `n`) for `site`,
/// if any — e.g. the simulator watchdog consults `sim/budget`.
#[inline]
#[must_use]
pub fn budget_override(site: &str) -> Option<u64> {
    if !active() {
        return None;
    }
    current_plan()?.count_for(FaultKind::Budget, site)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_queries_are_passthrough() {
        // No plan installed by this test; the env is unset in the test
        // environment, so everything passes through.
        if active() {
            return; // another harness set BEVRA_FAULTS; skip
        }
        assert_eq!(corrupt_f64("x", 0, 2.5).to_bits(), 2.5f64.to_bits());
        assert!(!forced_numerr("x", 0));
        assert!(io_fault("x", 0).is_none());
        assert!(budget_override("x").is_none());
        panic_point("x", 0); // must not panic
    }

    #[test]
    fn install_guard_scopes_injection() {
        {
            let plan = FaultPlan::seeded(1)
                .rule(FaultRule::always(FaultKind::Inf, "g/inf"))
                .rule(FaultRule::always(FaultKind::NumErr, "g/num"))
                .rule(FaultRule::always(FaultKind::Budget, "g/budget").with_n(12));
            let _guard = install(plan);
            assert!(active());
            assert_eq!(corrupt_f64("g/inf", 9, 1.0), f64::INFINITY);
            assert!(forced_numerr("g/num", 0));
            assert_eq!(budget_override("g/budget"), Some(12));
            assert!(!forced_numerr("g/other", 0), "site must match");
        }
        assert!(!active(), "guard drop deactivates injection");
        assert_eq!(corrupt_f64("g/inf", 9, 1.0), 1.0);
    }

    #[test]
    fn panic_point_panics_with_marker() {
        let plan =
            FaultPlan::seeded(0).rule(FaultRule::at_key(FaultKind::Panic, "p/site", 2));
        let _guard = install(plan);
        let caught = std::panic::catch_unwind(|| panic_point("p/site", 2))
            .expect_err("must panic at the keyed point");
        let msg = caught
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains(PANIC_MARKER), "message: {msg}");
        panic_point("p/site", 1); // other keys pass
    }

    #[test]
    fn panic_point_attempt_is_transient_under_n() {
        let plan = FaultPlan::seeded(0)
            .rule(FaultRule::at_key(FaultKind::Panic, "p/retry", 5).with_n(2));
        let _guard = install(plan);
        for attempt in 0..2 {
            assert!(
                std::panic::catch_unwind(|| panic_point_attempt("p/retry", 5, attempt)).is_err(),
                "attempt {attempt} must still panic"
            );
        }
        panic_point_attempt("p/retry", 5, 2); // attempt n recovers
        panic_point_attempt("p/retry", 4, 0); // other keys never trip
    }

    #[test]
    fn panic_point_attempt_without_n_is_permanent() {
        let plan =
            FaultPlan::seeded(0).rule(FaultRule::at_key(FaultKind::Panic, "p/perm", 1));
        let _guard = install(plan);
        for attempt in 0..6 {
            assert!(
                std::panic::catch_unwind(|| panic_point_attempt("p/perm", 1, attempt)).is_err(),
                "attempt {attempt} must panic without an n bound"
            );
        }
    }

    #[test]
    fn transient_io_fails_then_recovers() {
        let plan = FaultPlan::seeded(0)
            .rule(FaultRule::always(FaultKind::IoTransient, "io/x").with_n(2));
        let _guard = install(plan);
        assert_eq!(io_fault("io/x/file", 0), Some(IoFault::Transient));
        assert_eq!(io_fault("io/x/file", 1), Some(IoFault::Transient));
        assert_eq!(io_fault("io/x/file", 2), None, "attempt n succeeds");
        assert_eq!(io_fault("io/y", 0), None);
    }

    #[test]
    fn permanent_io_never_recovers() {
        let plan =
            FaultPlan::seeded(0).rule(FaultRule::always(FaultKind::IoPermanent, "io/p"));
        let _guard = install(plan);
        for attempt in 0..8 {
            assert_eq!(io_fault("io/p", attempt), Some(IoFault::Permanent));
        }
    }
}
