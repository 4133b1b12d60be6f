//! Workspace acceptance: the chaos suite's pinned-seed corpus.
//!
//! Each case installs a random-but-seeded fault plan (injected worker
//! panics, NaN/Inf corruption, forced solver errors, I/O faults, a
//! simulator watchdog override) and asserts the structured-degradation
//! invariants — no abort, no hang past the budget, exact `SweepHealth`
//! accounting, atomic artifacts, deterministic replay. See
//! `bevra_check::chaos` for the invariant definitions and the
//! `check-chaos` binary for the time-boxed randomized version.
//!
//! Cases run serially inside each test (fault plans are process-global;
//! the install lock inside `run_case` serializes across test threads).
//! Fault-free references are computed under an empty installed plan for
//! the same reason: outside the lock, another test's plan could leak in.

use bevra_check::chaos::{run_case, run_recovery_case, silence_injected_panics};

/// The same fixed corpus base the `check-chaos` binary and CI use.
const CORPUS_BASE: u64 = 0xC4A05;

/// Every pinned corpus seed upholds all chaos invariants.
#[test]
fn pinned_chaos_corpus_passes() {
    silence_injected_panics();
    for seed in CORPUS_BASE..CORPUS_BASE + 8 {
        if let Err(e) = run_case(seed) {
            panic!("{e}");
        }
    }
}

/// Same case seed, same everything: scenario, plan, injection decisions,
/// degradation counters.
#[test]
fn chaos_cases_replay_identically() {
    silence_injected_panics();
    for seed in [CORPUS_BASE, CORPUS_BASE + 3, 0x5EED_u64] {
        let first = run_case(seed).unwrap_or_else(|e| panic!("{e}"));
        let second = run_case(seed).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(first, second, "seed {seed} did not replay identically");
    }
}

/// Pinned cache-fault scenario: with transient faults on every cache
/// load and permanent faults on every cache store, a persistently-cached
/// engine must degrade to recompute — bitwise-identical results to an
/// uncached engine, nothing written to the cache directory, and the
/// absorbed faults visible on the I/O-error counter. Never a wrong
/// number, never an abort.
#[test]
fn pinned_cache_fault_scenario_degrades_to_recompute() {
    use bevra::analysis::DiscreteModel;
    use bevra::engine::{CacheMode, ExecMode, PersistentCache, SweepEngine};
    use bevra::load::{Poisson, Tabulated};
    use bevra::utility::AdaptiveExp;
    use bevra_faults::{install, FaultKind, FaultPlan, FaultRule};

    let load = Tabulated::from_model(&Poisson::new(30.0), 1e-12, 1 << 10);
    let cs: Vec<f64> = (1..=12).map(|i| 5.0 * f64::from(i)).collect();
    let mk = || {
        SweepEngine::with_mode(
            DiscreteModel::new(load.clone(), AdaptiveExp::paper()),
            ExecMode::Serial,
        )
    };
    // Reference under an empty plan, so a plan another test installs
    // concurrently cannot leak into it.
    let baseline = {
        let _guard = install(FaultPlan::seeded(0));
        mk().sweep(&cs)
    };

    let dir = std::env::temp_dir().join(format!("bevra-pinned-cache-fault-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let plan = FaultPlan::seeded(0x0CAC_4EFA)
        .rule(FaultRule::always(FaultKind::IoTransient, "io/cache/load"))
        .rule(FaultRule::always(FaultKind::IoPermanent, "io/cache/store"));
    let _guard = install(plan);

    let mut io_errors = 0;
    for pass in ["cold", "warm"] {
        let engine = mk().with_persistent_cache(PersistentCache::new(&dir, CacheMode::ReadWrite));
        let points = engine.sweep(&cs);
        for (b, p) in baseline.iter().zip(&points) {
            assert_eq!(
                b.best_effort.to_bits(),
                p.best_effort.to_bits(),
                "{pass} pass: B diverged under cache faults at C={}",
                b.capacity
            );
            assert_eq!(
                b.reservation.to_bits(),
                p.reservation.to_bits(),
                "{pass} pass: R diverged under cache faults at C={}",
                b.capacity
            );
        }
        let pc = engine.persistent_cache().expect("cache attached");
        assert_eq!(pc.stores(), 0, "{pass} pass: a store slipped past the permanent fault");
        io_errors += pc.io_errors();
    }
    assert!(io_errors >= 2, "faults never landed: {io_errors} absorbed");
    let leftovers = std::fs::read_dir(&dir).map(|it| it.count()).unwrap_or(0);
    assert_eq!(leftovers, 0, "failed stores left partial entries behind");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every failing pinned-corpus scenario ships a parseable black box: the
/// flight recorder's panic hook drains the last events on each injected
/// panic (even though the sweep isolates it), and the final synthetic
/// `panic` event names the tripped fault site — `engine/point`, the only
/// site the random chaos plans inject panics at.
#[test]
fn failing_corpus_cases_ship_a_blackbox() {
    use bevra_report::json::JsonValue;
    silence_injected_panics();
    let dir = std::env::temp_dir().join("bevra-chaos-blackbox");
    let mut checked = 0u64;
    for seed in CORPUS_BASE..CORPUS_BASE + 8 {
        let stats = run_case(seed).unwrap_or_else(|e| panic!("{e}"));
        if stats.failed == 0 {
            continue; // no injected panic landed: no black box owed
        }
        checked += 1;
        let path = dir.join(format!("chaos-{seed}-blackbox.jsonl"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("seed {seed}: failing case left no blackbox at {}: {e}", path.display())
        });
        let lines: Vec<&str> = text.lines().collect();
        assert!(!lines.is_empty(), "seed {seed}: empty blackbox");
        for line in &lines {
            JsonValue::parse(line).unwrap_or_else(|e| {
                panic!("seed {seed}: unparseable blackbox line `{line}`: {e}")
            });
        }
        let last = JsonValue::parse(lines[lines.len() - 1]).expect("parsed above");
        assert_eq!(
            last.get("kind").and_then(JsonValue::as_str),
            Some("panic"),
            "seed {seed}: final event is the synthetic panic record"
        );
        assert_eq!(
            last.get("site").and_then(JsonValue::as_str),
            Some("engine/point"),
            "seed {seed}: final event names the tripped fault site"
        );
    }
    assert!(checked > 0, "corpus produced no failing case to check");
}

/// Pinned simulator-fleet scenario: *permanent* panics injected into
/// two lanes of a [`bevra::sim::Fleet`] run (`panic:sim/lane@at=2`, `@at=3`)
/// must degrade, not abort — each dead lane spends its
/// [`bevra::sim::fleet::LANE_RESTARTS`] re-runs (ledgered in
/// [`bevra::sim::FleetHealth`]) and is recorded dead on its own, every
/// *surviving* lane's digest stays
/// bit-identical to a clean run (dead lanes cannot perturb their
/// neighbours' census), and the armed flight-recorder black box ships
/// with a final synthetic `panic` event naming the `sim/lane` site.
#[test]
fn pinned_lane_panic_is_accounted_and_isolated() {
    use bevra::prelude::*;
    use bevra::sim::{Fleet, FleetConfig, QueueKind};
    use bevra_faults::{install, FaultKind, FaultPlan, FaultRule};
    use bevra_report::json::JsonValue;
    use std::sync::Arc;

    silence_injected_panics();
    let fleet = Fleet::new(FleetConfig {
        base: SimConfig {
            capacity: 25.0,
            discipline: Discipline::BestEffort,
            arrivals: MixedPoisson::new(20.0, RateMixing::Fixed, 40.0),
            holding: HoldingDist::Exponential { mean: 1.0 },
            utility: Arc::new(AdaptiveExp::paper()),
            warmup: 10.0,
            horizon: 150.0,
            seed: 0x5A4D,
            max_events: None,
        },
        lanes: 6,
    });
    // Clean reference first, under an empty plan so a plan another test
    // installs concurrently cannot leak into it.
    let clean = {
        let _guard = install(FaultPlan::seeded(0));
        fleet.run_on(3, QueueKind::Wheel)
    };
    assert!(clean.health.all_ok(), "reference run must be healthy");

    // Two rules, keyed to lanes 2 and 3, with no `n` bound: the
    // injection fires on *every* attempt, so each lane re-run trips it
    // again — *persistently* dead lanes, the case the health ledger
    // exists for.
    let dir = std::env::temp_dir().join("bevra-sim-lane-blackbox");
    let _ = std::fs::remove_dir_all(&dir);
    let id = format!("sim-lane-{}", std::process::id());
    let path = dir.join(format!("{id}-blackbox.jsonl"));
    let (faulted, text) = {
        let _guard = install(
            FaultPlan::seeded(0x51AD)
                .rule(FaultRule::at_key(FaultKind::Panic, "sim/lane", 2))
                .rule(FaultRule::at_key(FaultKind::Panic, "sim/lane", 3)),
        );
        bevra::obs::recorder::arm_blackbox(&id, &dir);
        let faulted = fleet.run_on(3, QueueKind::Wheel);
        // Read the black box while the plan is installed: the armed target
        // is process-global, so once the guard drops, a panic injected
        // under another test's plan would overwrite this file.
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("no blackbox at {}: {e}", path.display()));
        (faulted, text)
    };

    // Exact accounting: lanes 2 and 3 failed (one entry each, in lane
    // order), nothing else did, and their futile re-runs are ledgered.
    assert_eq!(faulted.health.ok_lanes, 4, "health: {:?}", faulted.health);
    assert_eq!(faulted.health.failed_lanes(), 2, "health: {:?}", faulted.health);
    assert_eq!(faulted.health.failed.len(), 2);
    assert!(faulted.health.restarts >= 2, "restarts ledgered: {:?}", faulted.health);
    for (failure, lane) in faulted.health.failed.iter().zip([2u32, 3]) {
        assert_eq!(failure.lane, lane);
        assert!(
            failure.error.contains("injected"),
            "failure must carry the injected-panic message: {}",
            failure.error
        );
    }

    // Isolation: surviving lanes reproduce the clean run bit for bit; the
    // dead lanes are absent, not fabricated.
    for lane in [0usize, 1, 4, 5] {
        assert_eq!(
            faulted.lane_digests[lane], clean.lane_digests[lane],
            "surviving lane {lane} diverged from the clean run"
        );
        assert!(faulted.lane_digests[lane].is_some());
    }
    assert_eq!(faulted.lane_digests[2], None);
    assert_eq!(faulted.lane_digests[3], None);
    assert!(
        faulted.merged.completed < clean.merged.completed,
        "merged report must reflect the missing lanes"
    );

    // The black box shipped: parseable JSONL whose final synthetic event
    // names the tripped site.
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty(), "empty blackbox");
    for line in &lines {
        JsonValue::parse(line)
            .unwrap_or_else(|e| panic!("unparseable blackbox line `{line}`: {e}"));
    }
    let last = JsonValue::parse(lines[lines.len() - 1]).expect("parsed above");
    assert_eq!(last.get("kind").and_then(JsonValue::as_str), Some("panic"));
    assert_eq!(last.get("site").and_then(JsonValue::as_str), Some("sim/lane"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every pinned recovery-corpus seed upholds the lane re-run invariants:
/// transient fleet faults rescued to the bitwise fault-free digest, and
/// permanent faults degraded with per-lane accounting while every other
/// lane reports its fault-free digest.
#[test]
fn pinned_recovery_corpus_passes() {
    silence_injected_panics();
    let mut total = bevra_check::ChaosStats::default();
    for seed in CORPUS_BASE..CORPUS_BASE + 4 {
        total += run_recovery_case(seed).unwrap_or_else(|e| panic!("{e}"));
    }
    assert!(total.lane_restarts > 0, "no restart was exercised across the corpus");
    assert!(total.rescued_lanes > 0, "no lane was rescued across the corpus");
    assert!(total.dead_lanes > 0, "no permanent death was exercised");
}

/// The corpus actually exercises the fault machinery: across the pinned
/// seeds, some points fail, some degrade, some saves fail — the suite is
/// not vacuously green.
#[test]
fn pinned_chaos_corpus_is_not_vacuous() {
    silence_injected_panics();
    let mut total = bevra_check::ChaosStats::default();
    for seed in CORPUS_BASE..CORPUS_BASE + 8 {
        total += run_case(seed).unwrap_or_else(|e| panic!("{e}"));
    }
    assert!(total.points > 0);
    assert!(total.failed > 0, "no injected panic landed across the corpus");
    assert!(total.degraded > 0, "no injected corruption landed across the corpus");
    assert!(total.sim_events > 0, "watchdog never engaged");
    assert!(total.saves > total.save_failures, "at least one artifact save succeeded");
    assert!(total.cache_sweeps > 0, "no cached sweep was compared");
}
