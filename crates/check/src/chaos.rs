//! Chaos testing: random fault plans against random scenarios.
//!
//! Each chaos case draws one [`Scenario`] plus one random
//! [`FaultPlan`] from a single case seed, installs the plan, and drives
//! the workspace's hardened paths — the checked sweep engine, the
//! budgeted simulator, and atomic artifact persistence — asserting the
//! structured-degradation contract instead of correct *values* (injected
//! corruption makes values wrong by construction):
//!
//! 1. **no abort** — injected worker panics are isolated per grid point;
//!    the sweep returns with every other point evaluated;
//! 2. **full accounting** — the [`SweepHealth`] ledger exactly tallies
//!    the outcomes: `ok + degraded + failed` covers the grid, `failed`
//!    matches the failed outcomes, `non_finite` matches the non-finite
//!    fields actually present, and nothing non-finite goes uncounted;
//! 3. **no hang** — every plan carries a `sim/budget` override, so the
//!    simulator's watchdog bounds the event loop regardless of scenario;
//! 4. **artifacts round-trip or don't exist** — a figure save under
//!    injected I/O faults either lands complete (parses back equal) or
//!    fails leaving nothing behind, never a truncated file;
//! 5. **determinism** — re-running the same case seed reproduces the
//!    health ledger and every outcome bit pattern;
//! 6. **cache transparency** — the persistent value cache (value tables
//!    and finished sweep batches) under injected load/store I/O faults
//!    degrades to recompute: cold and warm cached sweeps reproduce the
//!    uncached sweep bit for bit, and absorbed faults only ever cost
//!    time, never numbers.
//!
//! Invariants 1, 2 and 6 run on the default engine, whose health ledger
//! must also name the kernel backend that evaluated it.
//!
//! The driver is [`run_case`]; the `check-chaos` binary loops it over a
//! fixed-seed prefix plus a time-boxed randomized tail, and the
//! workspace's `tests/chaos.rs` pins a handful of seeds as acceptance
//! tests.
//!
//! [`SweepHealth`]: bevra_engine::SweepHealth

use crate::scenario::{Scenario, ScenarioStrategy};
use crate::strategy::Strategy;
use bevra_core::DiscreteModel;
use bevra_engine::{CacheMode, CheckedSweep, PersistentCache, PointOutcome, SweepEngine};
use bevra_faults::{install, FaultKind, FaultPlan, FaultRule, PANIC_MARKER};
use bevra_report::persist::{load_figure, save_figure};
use bevra_report::series::{Figure, Panel, Series};
use bevra_sim::{
    Discipline, Fleet, FleetConfig, HoldingDist, MixedPoisson, QueueKind, SimConfig, SimError,
    Simulation,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

/// Grid points per chaos sweep — enough for panic isolation to have
/// neighbours to spare, small enough to keep cases fast.
const GRID: usize = 12;

/// Fault sites a random plan may target, with the kinds that make sense
/// there. Probabilities are kept moderate so most cases mix healthy and
/// faulty points rather than failing wall-to-wall.
fn random_rules(rng: &mut StdRng) -> Vec<FaultRule> {
    let mut rules = Vec::new();
    if rng.random::<f64>() < 0.7 {
        rules.push(FaultRule::with_prob(
            FaultKind::Panic,
            "engine/point",
            0.05 + 0.25 * rng.random::<f64>(),
        ));
    }
    if rng.random::<f64>() < 0.6 {
        let kind = if rng.random::<bool>() { FaultKind::Nan } else { FaultKind::Inf };
        let site = if rng.random::<bool>() { "eval/best_effort" } else { "eval/reservation" };
        rules.push(FaultRule::with_prob(kind, site, 0.05 + 0.3 * rng.random::<f64>()));
    }
    if rng.random::<f64>() < 0.4 {
        // `/num` prefix-matches every root-finder and quadrature site.
        rules.push(FaultRule::with_prob(FaultKind::NumErr, "/num", 0.1 * rng.random::<f64>()));
    }
    if rng.random::<f64>() < 0.5 {
        rules.push(FaultRule::with_prob(
            FaultKind::IoTransient,
            "io/report",
            0.3 + 0.5 * rng.random::<f64>(),
        ));
    }
    if rng.random::<f64>() < 0.25 {
        rules.push(FaultRule::always(FaultKind::IoPermanent, "io/report/figure"));
    }
    // Persistent value-table cache: transient faults hit load and store
    // alike (prefix match), permanent faults kill stores outright. Both
    // must degrade to recompute, never to a wrong number or an abort.
    if rng.random::<f64>() < 0.5 {
        rules.push(FaultRule::with_prob(
            FaultKind::IoTransient,
            "io/cache",
            0.3 + 0.6 * rng.random::<f64>(),
        ));
    }
    if rng.random::<f64>() < 0.25 {
        rules.push(FaultRule::always(FaultKind::IoPermanent, "io/cache/store"));
    }
    rules
}

/// Draw the random fault plan for one case: the site rules above plus an
/// unconditional `sim/budget` watchdog override (invariant 3 needs every
/// simulated case bounded).
pub fn random_plan(rng: &mut StdRng) -> FaultPlan {
    let mut plan = FaultPlan::seeded(rng.random::<u64>());
    for rule in random_rules(rng) {
        plan = plan.rule(rule);
    }
    plan.rule(
        FaultRule::always(FaultKind::Budget, "sim/budget")
            .with_n(2_000 + rng.random_range(0..8_000u64)),
    )
}

/// Throughput counters one [`run_case`] accumulates (for the chaos
/// binary's end-of-run summary).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ChaosStats {
    /// Grid points evaluated by the uncached checked sweep.
    pub points: u64,
    /// Points that failed (isolated panics).
    pub failed: u64,
    /// Points that degraded (counted non-finite corruption).
    pub degraded: u64,
    /// Simulator events processed before the watchdog or horizon.
    pub sim_events: u64,
    /// Artifact saves attempted / failed under injected I/O faults.
    pub saves: u64,
    /// Artifact saves that failed (and verifiably left nothing behind).
    pub save_failures: u64,
    /// Persistent-cache sweeps compared against the uncached baseline.
    pub cache_sweeps: u64,
    /// Persistent-cache load/store attempts absorbed as I/O failures
    /// (each degraded to a recompute or a skipped store).
    pub cache_io_errors: u64,
    /// Fleet lane re-runs after lane panics.
    pub lane_restarts: u64,
    /// Lanes rescued to bitwise-identical reports after transient faults.
    pub rescued_lanes: u64,
    /// Lanes correctly declared dead under permanent faults.
    pub dead_lanes: u64,
}

/// Non-finite fields of one evaluated point (the four derived quantities;
/// the capacity input is never corrupted).
fn non_finite_fields(p: &bevra_engine::SweepPoint) -> u64 {
    [p.best_effort, p.reservation, p.performance_gap, p.bandwidth_gap]
        .iter()
        .filter(|v| !v.is_finite())
        .count() as u64
}

/// Check the full-accounting invariant of one checked sweep (invariants
/// 1 and 2 above).
fn check_accounting(what: &str, grid_len: usize, checked: &CheckedSweep) -> Result<(), String> {
    let h = &checked.health;
    if checked.outcomes.len() != grid_len {
        return Err(format!(
            "{what}: {} outcomes for {grid_len} grid points",
            checked.outcomes.len()
        ));
    }
    let failed = checked.outcomes.iter().filter(|o| o.point().is_none()).count() as u64;
    let mut clean = 0u64;
    let mut tainted = 0u64;
    let mut non_finite = 0u64;
    for o in &checked.outcomes {
        if let Some(p) = o.point() {
            let nf = non_finite_fields(p);
            non_finite += nf;
            if nf == 0 {
                clean += 1;
            } else {
                tainted += 1;
            }
        }
    }
    if h.total() != grid_len as u64 {
        return Err(format!("{what}: health covers {} of {grid_len} points", h.total()));
    }
    if h.failed != failed {
        return Err(format!("{what}: health.failed {} vs {failed} failed outcomes", h.failed));
    }
    if h.non_finite != non_finite {
        return Err(format!(
            "{what}: health.non_finite {} vs {non_finite} non-finite fields present — \
             corruption went unaccounted",
            h.non_finite
        ));
    }
    if h.ok != clean || h.degraded != tainted {
        return Err(format!(
            "{what}: health ok/degraded {}/{} vs observed {clean}/{tainted}",
            h.ok, h.degraded
        ));
    }
    if !h.is_clean() && h.first_failure.is_none() {
        return Err(format!("{what}: dirty health carries no first_failure cause"));
    }
    Ok(())
}

/// Bit-exact fingerprint of a sweep's outcomes (PartialEq can't compare
/// NaN-carrying points).
fn outcome_bits(checked: &CheckedSweep) -> Vec<u64> {
    let mut bits = Vec::new();
    for o in &checked.outcomes {
        match o {
            PointOutcome::Ok(p) => {
                bits.push(1);
                for v in [p.capacity, p.best_effort, p.reservation, p.performance_gap, p.bandwidth_gap]
                {
                    bits.push(v.to_bits());
                }
            }
            PointOutcome::Failed { index, .. } => {
                bits.push(2);
                bits.push(*index as u64);
            }
        }
    }
    bits
}

/// The figure JSON round-trip contract for one value: finite values come
/// back bit-exact; non-finite values (JSON has no NaN/Inf) serialize as
/// `null` and come back as NaN.
fn value_roundtrips(saved: f64, loaded: f64) -> bool {
    saved.to_bits() == loaded.to_bits() || (!saved.is_finite() && loaded.is_nan())
}

/// Structural + value equality of a saved figure against its parsed-back
/// form, under the documented non-finite round-trip contract.
fn figure_roundtrips(saved: &Figure, loaded: &Figure) -> Result<(), String> {
    if saved.id != loaded.id || saved.caption != loaded.caption {
        return Err("id/caption diverged".into());
    }
    if saved.panels.len() != loaded.panels.len() {
        return Err("panel count diverged".into());
    }
    for (sp, lp) in saved.panels.iter().zip(&loaded.panels) {
        if (sp.title.as_str(), sp.xlabel.as_str(), sp.ylabel.as_str())
            != (lp.title.as_str(), lp.xlabel.as_str(), lp.ylabel.as_str())
            || sp.series.len() != lp.series.len()
        {
            return Err(format!("panel '{}' structure diverged", sp.title));
        }
        for (ss, ls) in sp.series.iter().zip(&lp.series) {
            if ss.label != ls.label || ss.x.len() != ls.x.len() || ss.y.len() != ls.y.len() {
                return Err(format!("series '{}' structure diverged", ss.label));
            }
            for (&a, &b) in ss.x.iter().zip(&ls.x).chain(ss.y.iter().zip(&ls.y)) {
                if !value_roundtrips(a, b) {
                    return Err(format!("series '{}': {a:?} came back as {b:?}", ss.label));
                }
            }
        }
    }
    Ok(())
}

/// The chaos capacity grid: [`GRID`] evenly spaced points spanning the
/// scenario's drawn capacities (degenerate span widens to ±25%).
fn grid(sc: &Scenario) -> Vec<f64> {
    let lo = sc.capacities.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = sc.capacities.iter().copied().fold(1.0f64, f64::max);
    let (lo, hi) = if hi - lo < 1e-9 { (lo * 0.75, lo * 1.25 + 1.0) } else { (lo, hi) };
    (0..GRID).map(|i| lo + (hi - lo) * i as f64 / (GRID - 1) as f64).collect()
}

/// Run one chaos case end to end. Returns throughput counters, or a
/// description of the violated invariant.
///
/// The case seed fully determines the scenario, the fault plan, and every
/// injection decision, so a reported seed is a complete reproduction.
///
/// # Errors
///
/// The first violated invariant, as a human-readable string naming the
/// case seed.
pub fn run_case(case_seed: u64) -> Result<ChaosStats, String> {
    let mut rng = StdRng::seed_from_u64(case_seed);
    let sc = ScenarioStrategy::default().generate(&mut rng);
    let plan = random_plan(&mut rng);
    let fail = |msg: String| format!("chaos case {case_seed}: {msg}");

    let load =
        sc.loads[0].tabulate().map_err(|e| fail(format!("untestable load family: {e}")))?;
    let utility = sc.utility.as_dyn();
    let cs = grid(&sc);
    let mut stats = ChaosStats::default();

    let _guard = install(plan);

    // Arm the flight recorder's black box for this case (callers install
    // `silence_injected_panics` first, so the blackbox hook — chained
    // later — still sees every injected panic). Each panic the sweep
    // isolates drains the recorder's last events to
    // `<tmp>/bevra-chaos-blackbox/chaos-<seed>-blackbox.jsonl`: a failing
    // scenario always ships a post-mortem artifact.
    bevra_obs::recorder::arm_blackbox(
        &format!("chaos-{case_seed}"),
        &std::env::temp_dir().join("bevra-chaos-blackbox"),
    );

    // Invariants 1 + 2: the checked sweep completes under injected
    // panics and corruption, with exact accounting, and its health ledger
    // names the backend that evaluated it.
    let engine = SweepEngine::new(DiscreteModel::new(load.clone(), Arc::clone(&utility)));
    let checked = engine.sweep_checked(&cs);
    check_accounting("sweep", cs.len(), &checked).map_err(&fail)?;
    let kernel = engine.kernel().capability().name;
    if checked.health.kernel.as_deref() != Some(kernel) {
        return Err(fail(format!(
            "sweep[{kernel}]: health ledger stamped {:?}",
            checked.health.kernel
        )));
    }
    stats.points += checked.health.total();
    stats.failed += checked.health.failed;
    stats.degraded += checked.health.degraded;

    // Invariant 6: the persistent value cache is transparent under the
    // active plan. Injection decisions are pure functions of (plan seed,
    // site, key), so a cold cached sweep (compute + store, possibly
    // fault-blocked) and a warm cached sweep (load, possibly degraded to
    // recompute) must both reproduce the uncached sweep bit for bit.
    let cache_dir = std::env::temp_dir().join(format!("bevra-chaos-cache-{case_seed}"));
    let _ = std::fs::remove_dir_all(&cache_dir);
    for pass in ["cold", "warm"] {
        let cached = SweepEngine::new(DiscreteModel::new(load.clone(), Arc::clone(&utility)))
            .with_persistent_cache(PersistentCache::new(&cache_dir, CacheMode::ReadWrite));
        let swept = cached.sweep_checked(&cs);
        if outcome_bits(&swept) != outcome_bits(&checked) {
            return Err(fail(format!("{pass} cached sweep diverged from uncached bitwise")));
        }
        stats.cache_sweeps += 1;
        stats.cache_io_errors +=
            cached.persistent_cache().map_or(0, bevra_engine::PersistentCache::io_errors);
    }
    let _ = std::fs::remove_dir_all(&cache_dir);

    // Invariant 5: an identical engine under the identical plan (the
    // guard is still installed — trip decisions are pure functions of the
    // plan seed and stable keys) reproduces health and outcome bits.
    let replay = SweepEngine::new(DiscreteModel::new(load, utility)).sweep_checked(&cs);
    if replay.health != checked.health {
        return Err(fail(format!(
            "replay health diverged: {} vs {}",
            replay.health, checked.health
        )));
    }
    if outcome_bits(&replay) != outcome_bits(&checked) {
        return Err(fail("replay outcomes diverged bitwise".into()));
    }

    // Invariant 3: the watchdog override bounds the event loop.
    let sim_cfg = SimConfig {
        capacity: cs[cs.len() / 2].max(2.0),
        discipline: Discipline::BestEffort,
        arrivals: MixedPoisson::fixed(sc.loads[0].mean().min(30.0)),
        holding: HoldingDist::Exponential { mean: 1.0 },
        utility: sc.utility.as_dyn(),
        warmup: 10.0,
        horizon: 1.0e9, // absurd on purpose: only the watchdog ends this
        seed: case_seed,
        max_events: None,
    };
    match Simulation::new(sim_cfg).run_checked() {
        Ok(_) => return Err(fail("simulator outran an injected 10k-event budget".into())),
        Err(SimError::BudgetExhausted { events, partial }) => {
            if events >= 10_000 {
                return Err(fail(format!("watchdog fired late: {events} events")));
            }
            stats.sim_events += events;
            // The partial report must be internally consistent.
            if partial.completed > partial.attempts {
                return Err(fail(format!(
                    "partial report inconsistent: {} completed of {} attempts",
                    partial.completed, partial.attempts
                )));
            }
        }
    }

    // Invariant 4: artifact persistence is atomic under injected I/O
    // faults — round-trip or nothing.
    let fig = Figure {
        id: format!("chaos-{case_seed}"),
        caption: "chaos artifact".into(),
        panels: vec![Panel {
            title: "sweep".into(),
            xlabel: "C".into(),
            ylabel: "B".into(),
            series: vec![Series::new(
                "best_effort",
                cs.clone(),
                checked
                    .outcomes
                    .iter()
                    .map(|o| o.point().map_or(f64::NAN, |p| p.best_effort))
                    .collect(),
            )],
        }],
    };
    let dir = std::env::temp_dir().join(format!("bevra-chaos-{case_seed}"));
    let _ = std::fs::remove_dir_all(&dir);
    stats.saves += 1;
    match save_figure(&fig, &dir) {
        Ok(path) => {
            let back = load_figure(&path)
                .map_err(|e| fail(format!("saved artifact failed to parse back: {e}")))?;
            figure_roundtrips(&fig, &back)
                .map_err(|e| fail(format!("saved artifact round-tripped unequal: {e}")))?;
        }
        Err(_) => {
            stats.save_failures += 1;
            let leftovers = std::fs::read_dir(&dir)
                .map(|it| it.count())
                .unwrap_or(0);
            if leftovers != 0 {
                return Err(fail(format!(
                    "failed save left {leftovers} partial file(s) in {}",
                    dir.display()
                )));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(stats)
}

/// Run one *recovery* chaos case: the fleet's lane re-run invariants
/// over a randomly shaped fleet. Two phases, both derived from
/// `case_seed`:
///
/// 1. **transient faults are rescued bitwise** — a plan of `n`-bounded
///    lane panics must yield a merged digest bitwise-equal to the
///    fault-free run, with every restart ledgered in `FleetHealth`;
/// 2. **permanent faults degrade, never abort** — permanently dead lanes
///    are declared dead one by one, and every other lane reports its
///    fault-free digest.
///
/// Callers install [`silence_injected_panics`] first.
///
/// # Errors
///
/// The first violated invariant, naming the case seed.
#[allow(clippy::too_many_lines)]
pub fn run_recovery_case(case_seed: u64) -> Result<ChaosStats, String> {
    let mut rng = StdRng::seed_from_u64(case_seed);
    let fail = |msg: String| format!("recovery case {case_seed}: {msg}");
    let lanes = 4 + rng.random_range(0..5u64) as u32; // 4..=8
    let threads = 1 + rng.random_range(0..u64::from(lanes)) as usize;
    let cfg = FleetConfig {
        base: SimConfig {
            capacity: 20.0 + 10.0 * rng.random::<f64>(),
            discipline: Discipline::BestEffort,
            arrivals: MixedPoisson::fixed(15.0 + 10.0 * rng.random::<f64>()),
            holding: HoldingDist::Exponential { mean: 1.0 },
            utility: Arc::new(bevra_utility::AdaptiveExp::paper()),
            warmup: 10.0,
            horizon: 120.0,
            seed: case_seed,
            max_events: None,
        },
        lanes,
    };
    let mut stats = ChaosStats::default();
    let fleet = Fleet::new(cfg.clone());
    // The fault-free reference runs under an empty plan: holding the
    // install lock keeps a plan installed by a concurrent caller out of it.
    let reference = {
        let _guard = install(FaultPlan::seeded(0));
        fleet.run_on(threads, QueueKind::Wheel)
    };
    if !reference.health.all_ok() {
        return Err(fail("fault-free reference run was not clean".into()));
    }

    // Phase 1: transient-only plan. Every targeted lane panics on its
    // first `n` attempts and must be restarted to its exact bits.
    let targets = 1 + rng.random_range(0..3u64) as usize;
    let mut plan = FaultPlan::seeded(rng.random::<u64>());
    for _ in 0..targets {
        let lane = rng.random_range(0..u64::from(lanes));
        let n = 1 + rng.random_range(0..2u64); // within the default retry budget
        plan = plan.rule(FaultRule::at_key(FaultKind::Panic, "sim/lane", lane).with_n(n));
    }
    let rescued = {
        let _guard = install(plan);
        fleet.run_on(threads, QueueKind::Wheel)
    };
    if !rescued.health.all_ok() {
        return Err(fail(format!(
            "transient-only plan was not fully rescued: {:?}",
            rescued.health.failed
        )));
    }
    if rescued.merged.digest() != reference.merged.digest() {
        return Err(fail("rescued fleet digest diverged from the fault-free run".into()));
    }
    if rescued.health.restarts == 0 {
        return Err(fail("transient lane faults fired but no restart was ledgered".into()));
    }
    stats.lane_restarts += rescued.health.restarts;
    stats.rescued_lanes += u64::from(rescued.health.ok_lanes);

    // Phase 2: permanent lane deaths. The targeted lanes stay dead;
    // every other lane reports its fault-free bits; nothing aborts.
    let dead_count = 1 + rng.random_range(0..u64::from(lanes) - 1) as u32;
    let mut dead: Vec<u32> = Vec::new();
    let mut plan = FaultPlan::seeded(rng.random::<u64>());
    while (dead.len() as u32) < dead_count {
        let lane = rng.random_range(0..u64::from(lanes)) as u32;
        if !dead.contains(&lane) {
            dead.push(lane);
            plan =
                plan.rule(FaultRule::at_key(FaultKind::Panic, "sim/lane", u64::from(lane)));
        }
    }
    let degraded = {
        let _guard = install(plan);
        fleet.run_on(threads, QueueKind::Wheel)
    };
    if degraded.health.failed_lanes() < dead.len() as u32 {
        return Err(fail(format!(
            "{} permanently faulted lane(s) but health says only {} failed",
            dead.len(),
            degraded.health.failed_lanes()
        )));
    }
    for lane in 0..lanes as usize {
        if dead.contains(&(lane as u32)) {
            if degraded.lane_digests[lane].is_some() {
                return Err(fail(format!(
                    "lane {lane} is permanently faulted but still produced a report"
                )));
            }
        } else if degraded.lane_digests[lane] != reference.lane_digests[lane] {
            return Err(fail(format!(
                "healthy lane {lane} did not report its fault-free digest"
            )));
        }
    }
    if degraded.health.restarts == 0 {
        return Err(fail("permanent deaths recorded no restart attempts".into()));
    }
    stats.lane_restarts += degraded.health.restarts;
    stats.dead_lanes += u64::from(degraded.health.failed_lanes());
    Ok(stats)
}

/// Merge per-case counters.
impl std::ops::AddAssign for ChaosStats {
    fn add_assign(&mut self, o: Self) {
        self.points += o.points;
        self.failed += o.failed;
        self.degraded += o.degraded;
        self.sim_events += o.sim_events;
        self.saves += o.saves;
        self.save_failures += o.save_failures;
        self.cache_sweeps += o.cache_sweeps;
        self.cache_io_errors += o.cache_io_errors;
        self.lane_restarts += o.lane_restarts;
        self.rescued_lanes += o.rescued_lanes;
        self.dead_lanes += o.dead_lanes;
    }
}

/// Silence the default panic hook for *injected* panics only (their
/// payload carries [`PANIC_MARKER`]): a chaos run isolates hundreds of
/// intentional panics, and each would otherwise dump a backtrace banner
/// to stderr. Real panics keep the full default report.
///
/// Installs once per process; callers other than the chaos binary and
/// the chaos acceptance tests should not need it.
pub fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .is_some_and(|m| m.contains(PANIC_MARKER));
            if !injected {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The plan generator always arms the simulator watchdog and stays
    /// within the probability bounds the invariants assume.
    #[test]
    fn random_plans_always_carry_a_sim_budget() {
        for seed in 0..50u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let plan = random_plan(&mut rng);
            assert!(
                plan.count_for(FaultKind::Budget, "sim/budget").is_some_and(|n| n < 10_000),
                "seed {seed}: no bounded sim/budget rule"
            );
        }
    }

    /// Accounting checker rejects a cooked ledger.
    #[test]
    fn accounting_checker_catches_miscounts() {
        let mut checked = CheckedSweep {
            outcomes: vec![PointOutcome::Failed {
                capacity: 1.0,
                index: 0,
                cause: "x".into(),
            }],
            health: bevra_engine::SweepHealth::new(),
        };
        checked.health.note_ok(); // lies: the one outcome failed
        let err = check_accounting("t", 1, &checked).expect_err("must reject");
        assert!(err.contains("health.failed"), "{err}");
    }
}
