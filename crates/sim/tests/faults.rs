//! Injected-fault tests for the simulator watchdog.
//!
//! Every test installs a `bevra_faults` plan; the install guard
//! serializes them so the process-global injection state never bleeds
//! between tests. Keep plan-free tests out of this binary.

use bevra_faults::{install, FaultKind, FaultPlan, FaultRule};
use bevra_sim::{Discipline, HoldingDist, MixedPoisson, SimConfig, SimError, Simulation};
use bevra_utility::AdaptiveExp;
use std::sync::Arc;

fn cfg() -> SimConfig {
    SimConfig {
        capacity: 30.0,
        discipline: Discipline::BestEffort,
        arrivals: MixedPoisson::fixed(15.0),
        holding: HoldingDist::Exponential { mean: 1.0 },
        utility: Arc::new(AdaptiveExp::paper()),
        warmup: 20.0,
        horizon: 1_000.0,
        seed: 7,
        max_events: None,
    }
}

/// An injected `sim/budget` override trips the watchdog on a config that
/// asks for no budget at all, and the partial report is usable.
#[test]
fn injected_budget_override_truncates_run() {
    let plan = FaultPlan::seeded(5)
        .rule(FaultRule::always(FaultKind::Budget, "sim/budget").with_n(3_000));
    let _guard = install(plan);
    let err = Simulation::new(cfg()).run_checked().expect_err("override must fire");
    let SimError::BudgetExhausted { events, partial } = err;
    assert_eq!(events, 3_000);
    assert!(partial.completed > 0, "partial report carries real statistics");
    assert!(partial.occupancy().mean() > 0.0, "census flushed at the cut-off");
}

/// The injected override takes precedence over a larger configured budget,
/// and the truncation is deterministic: same plan seed, same digest.
#[test]
fn injected_budget_wins_over_config_and_is_deterministic() {
    let plan = FaultPlan::seeded(5)
        .rule(FaultRule::always(FaultKind::Budget, "sim/budget").with_n(3_000));
    let _guard = install(plan);
    let mut c = cfg();
    c.max_events = Some(100_000);
    let first = Simulation::new(c.clone()).run();
    let second = Simulation::new(c).run();
    assert_eq!(first.digest(), second.digest());
    // 3000 events of M/M/∞ at 15 erlangs cover ~100 of the 1000
    // simulated time units — the truncation visibly bit: far fewer
    // completions than the ~15k an unbounded run would produce.
    assert!(first.completed < 3_000);
}

/// Dropping the install guard restores unbounded runs. The reference run
/// installs an *empty* plan — injection active but ruleless — both to
/// hold the serialization lock against sibling tests and to check that an
/// active plan with no `sim/budget` rule leaves the watchdog dormant.
#[test]
fn budget_injection_scopes_to_the_guard() {
    let truncated = {
        let plan = FaultPlan::seeded(5)
            .rule(FaultRule::always(FaultKind::Budget, "sim/budget").with_n(200));
        let _guard = install(plan);
        Simulation::new(cfg()).run()
    };
    let _guard = install(FaultPlan::seeded(5));
    let full = Simulation::new(cfg()).run();
    assert!(full.completed > truncated.completed, "full run drains the whole horizon");
    assert!(Simulation::new(cfg()).run_checked().is_ok());
}
