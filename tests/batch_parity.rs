//! Property tests for the grid-batched welfare sweep: batched-vs-scalar
//! parity across load × utility families, `k_max` monotonicity with
//! mutation tests proving the checkers and the carried argmax bracket
//! actually bite, and persistent-cache round trips.
//!
//! Shrinking, seeding, and replay work exactly like the differential
//! suite: `BEVRA_CHECK_SEED` rotates the corpus,
//! `BEVRA_CHECK_REPLAY=<case seed>` replays one case.

use bevra::analysis::kernel::{self, SimdLevel};
use bevra::analysis::{k_max_grid, sweep_grid, DiscreteModel};
use bevra::engine::{CacheMode, ExecMode, PersistentCache, SweepEngine};
use bevra::load::Tabulated;
use bevra::utility::{Rigid, Utility};
use bevra_check::{ensure, Checker, Scenario, ScenarioStrategy};
use std::sync::Arc;

/// Build the scenario's model for one load table (mirrors the
/// differential suite's cell construction, including the admission cap).
fn scenario_model(
    table: &Arc<Tabulated>,
    utility: &Arc<dyn Utility>,
    sc: &Scenario,
) -> DiscreteModel<Arc<dyn Utility>> {
    let m = DiscreteModel::new(Arc::clone(table), Arc::clone(utility));
    match sc.admission_cap {
        Some(cap) => m.with_admission_cap(cap),
        None => m,
    }
}

/// Sorted, deduped, bit-distinct copy of the scenario's capacity grid
/// (the batched kernels require ascending order).
fn sorted_grid(sc: &Scenario) -> Vec<f64> {
    let mut cs = sc.capacities.clone();
    cs.sort_unstable_by(f64::total_cmp);
    cs.dedup_by(|a, b| a.to_bits() == b.to_bits());
    cs
}

/// The batched sweep is **bitwise** the scalar per-point path — `k_max`,
/// `B`, and `R` — across all three load families and all three utility
/// families the scenario strategy draws, admission caps included. Its
/// one table walk feeds `B` and the `R` head together, so this also
/// holds the fused walk to the separate per-point `B` and `R` walks.
#[test]
fn batched_exact_kernels_match_scalar_bitwise() {
    Checker::new("batch_exact_vs_scalar").scale_cases(8).run(
        &ScenarioStrategy::default(),
        |sc: &Scenario| {
            let utility = sc.utility.as_dyn();
            let cs = sorted_grid(sc);
            for (li, load) in sc.loads.iter().enumerate() {
                let table = Arc::new(load.tabulate()?);
                let model = scenario_model(&table, &utility, sc);
                let got = sweep_grid(&model, &cs);
                for (i, &c) in cs.iter().enumerate() {
                    let cell = format!("load[{li}]={load:?} C={c}");
                    ensure(got.k_max[i] == model.k_max(c), || {
                        format!(
                            "{cell}: batched k_max {:?} != scalar {:?}",
                            got.k_max[i],
                            model.k_max(c)
                        )
                    })?;
                    let b = model.best_effort(c);
                    let r = model.reservation(c);
                    ensure(got.best_effort[i].to_bits() == b.to_bits(), || {
                        format!("{cell}: batched B {:e} != scalar {b:e}", got.best_effort[i])
                    })?;
                    ensure(got.reservation[i].to_bits() == r.to_bits(), || {
                        format!("{cell}: batched R {:e} != scalar {r:e}", got.reservation[i])
                    })?;
                }
            }
            Ok(())
        },
    );
}

/// Index of the first adjacent pair violating `k_max` monotonicity in
/// `C`, ignoring `None` entries (nonpositive capacities / elastic loads).
fn monotonicity_violation(k_maxes: &[Option<u64>]) -> Option<usize> {
    let mut prev: Option<u64> = None;
    for (i, km) in k_maxes.iter().enumerate() {
        if let Some(k) = *km {
            if let Some(p) = prev {
                if k < p {
                    return Some(i);
                }
            }
            prev = Some(k);
        }
    }
    None
}

/// `k_max(C)` is nondecreasing in `C` on every randomized scenario — the
/// invariant the carried argmax bracket rests on.
#[test]
fn k_max_grid_is_monotone_in_capacity() {
    Checker::new("k_max_monotone").scale_cases(4).run(
        &ScenarioStrategy::default(),
        |sc: &Scenario| {
            let utility = sc.utility.as_dyn();
            let cs = sorted_grid(sc);
            for load in &sc.loads {
                let table = Arc::new(load.tabulate()?);
                let model = scenario_model(&table, &utility, sc);
                let kms = k_max_grid(&model, &cs);
                ensure(monotonicity_violation(&kms).is_none(), || {
                    format!("{load:?}: k_max grid not monotone: {kms:?} over {cs:?}")
                })?;
            }
            Ok(())
        },
    );
}

/// Mutation test: the monotonicity checker actually detects a decrement.
/// A checker that waves through an injected fault would make the property
/// above vacuous.
#[test]
fn monotonicity_checker_catches_injected_decrement() {
    let clean = vec![None, Some(3), Some(5), Some(7), None, Some(9)];
    assert_eq!(monotonicity_violation(&clean), None);
    // Decrementing any entry *after* the first threshold to below its
    // predecessor must be flagged (the first Some has no predecessor).
    for i in 2..clean.len() {
        if clean[i].is_none() {
            continue;
        }
        let prev = clean[..i].iter().rev().find_map(|k| *k).expect("predecessor");
        let mut mutated = clean.clone();
        mutated[i] = Some(prev - 1);
        assert!(
            monotonicity_violation(&mutated).is_some(),
            "checker missed injected decrement at {i}: {mutated:?}"
        );
    }
}

/// Mutation test: the carried bracket is load-bearing. Nudging the
/// carried lower bound *above* the true argmax (via the test-only hook)
/// must change the result — proving the production identity carry seeds
/// the search at, not past, the next threshold.
#[test]
fn carried_bracket_mutation_is_detectable() {
    use bevra::analysis::discrete_batch::k_max_grid_with_carry_nudge;
    let load = Tabulated::from_model(&bevra::load::Poisson::new(12.0), 1e-12, 1 << 10);
    let model = DiscreteModel::new(load, Rigid::unit());
    // Two capacities on the same rigid plateau: k_max = ⌊C⌋ = 10 for both.
    let cs = [10.2, 10.8];
    let clean = k_max_grid(&model, &cs);
    assert_eq!(clean, vec![Some(10), Some(10)]);
    // Overshooting the carry by one starts the second search above the
    // argmax, where the rigid value sequence is flat-to-falling: the
    // search cannot bracket a maximum any more.
    let mutated = k_max_grid_with_carry_nudge(&model, &cs, |k| k + 1);
    assert_eq!(mutated[0], Some(10), "first point has no carry to corrupt");
    assert_ne!(
        mutated[1],
        clean[1],
        "nudged carry must be detectable, else the bracket is dead code"
    );
}

/// Persistent-cache round trip: a cold run (compute + store) and a warm
/// run (pure load) produce bitwise-identical sweeps, and both equal an
/// engine with the cache disabled — so `BEVRA_CACHE=off` trivially
/// reproduces the pre-cache goldens.
#[test]
fn persistent_cache_round_trip_is_bitwise() {
    Checker::new("pcache_round_trip").cases(6).run(
        &ScenarioStrategy::default(),
        |sc: &Scenario| {
            let utility = sc.utility.as_dyn();
            let cs = sorted_grid(sc);
            for (li, load) in sc.loads.iter().enumerate() {
                let table = Arc::new(load.tabulate()?);
                let dir = std::env::temp_dir().join(format!(
                    "bevra-pcache-prop-{}-{li}",
                    std::process::id()
                ));
                let _ = std::fs::remove_dir_all(&dir);

                let plain =
                    SweepEngine::with_mode(scenario_model(&table, &utility, sc), ExecMode::Serial)
                        .sweep(&cs);
                let cold =
                    SweepEngine::with_mode(scenario_model(&table, &utility, sc), ExecMode::Serial)
                        .with_persistent_cache(PersistentCache::new(&dir, CacheMode::ReadWrite));
                let cold_points = cold.sweep(&cs);
                let warm =
                    SweepEngine::with_mode(scenario_model(&table, &utility, sc), ExecMode::Serial)
                        .with_persistent_cache(PersistentCache::new(&dir, CacheMode::ReadWrite));
                let warm_points = warm.sweep(&cs);

                let (_, pw) = warm
                    .cache_stats()
                    .into_iter()
                    .find(|(n, _)| n == "persistent")
                    .ok_or("no persistent cache stats")?;
                ensure(pw.hits >= 1 && pw.misses == 0, || {
                    format!("warm run not a pure hit: {pw:?}")
                })?;

                for ((p, c), w) in plain.iter().zip(&cold_points).zip(&warm_points) {
                    let cell = format!("load[{li}]={load:?} C={}", p.capacity);
                    for (name, a, b, d) in [
                        ("B", p.best_effort, c.best_effort, w.best_effort),
                        ("R", p.reservation, c.reservation, w.reservation),
                        ("Δ", p.bandwidth_gap, c.bandwidth_gap, w.bandwidth_gap),
                    ] {
                        ensure(a.to_bits() == b.to_bits(), || {
                            format!("{cell}: cold {name} {b:e} != uncached {a:e}")
                        })?;
                        ensure(b.to_bits() == d.to_bits(), || {
                            format!("{cell}: warm {name} {d:e} != cold {b:e}")
                        })?;
                    }
                }
                let _ = std::fs::remove_dir_all(&dir);
            }
            Ok(())
        },
    );
}

/// The registered backend — the one `registry::from_env` resolves and
/// every engine runs — holds its bitwise contract through the `Kernel`
/// trait object and the type-erased model view, across randomized load ×
/// utility scenarios.
#[test]
fn every_registered_backend_holds_its_parity_contract() {
    let backend = bevra::engine::registry::from_env();
    Checker::new("backend_parity_contract").scale_cases(4).run(
        &ScenarioStrategy::default(),
        |sc: &Scenario| {
            let utility = sc.utility.as_dyn();
            let cs = sorted_grid(sc);
            let name = backend.capability().name;
            for (li, load) in sc.loads.iter().enumerate() {
                let table = Arc::new(load.tabulate()?);
                let model = scenario_model(&table, &utility, sc);
                let got = backend.sweep_grid(&model.as_dyn(), &cs);
                for (i, &c) in cs.iter().enumerate() {
                    let cell = format!("{name}: load[{li}]={load:?} C={c}");
                    let km_ref = model.k_max(c);
                    let b_ref = model.best_effort(c);
                    let r_ref = model.reservation(c);
                    ensure(got.k_max[i] == km_ref, || {
                        format!("{cell}: k_max {:?} != scalar {km_ref:?}", got.k_max[i])
                    })?;
                    ensure(got.best_effort[i].to_bits() == b_ref.to_bits(), || {
                        format!("{cell}: B {:e} != scalar {b_ref:e}", got.best_effort[i])
                    })?;
                    ensure(got.reservation[i].to_bits() == r_ref.to_bits(), || {
                        format!("{cell}: R {:e} != scalar {r_ref:e}", got.reservation[i])
                    })?;
                }
            }
            Ok(())
        },
    );
}

/// The capability record of the built-in backend carries what the rest
/// of the workspace reads from it: the `batch` name the ledger stamps,
/// the `autovec` SIMD tier, and grid priming, which the engine's `prime`
/// and the end-to-end benchmark's lane count rely on. It is also what an
/// unset `BEVRA_KERNEL` resolves to.
#[test]
fn builtin_capability_records_are_coherent() {
    let batch = kernel::batch().capability();
    assert_eq!(batch.name, "batch");
    assert_eq!((batch.simd, batch.simd.as_str()), (SimdLevel::Autovec, "autovec"));
    assert!(batch.grid_priming);
    let resolved = bevra::engine::registry::resolve(None);
    assert_eq!(resolved.kernel.capability(), batch);
    assert!(resolved.warning.is_none());
}
