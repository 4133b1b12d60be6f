//! Property tests for the grid-batched welfare kernels (satellite of the
//! batching PR): batched-vs-scalar parity across load × utility families,
//! `k_max` monotonicity with mutation tests proving the checkers and the
//! carried argmax bracket actually bite, and persistent-cache round trips.
//!
//! Shrinking, seeding, and replay work exactly like the differential
//! suite: `BEVRA_CHECK_SEED` rotates the corpus,
//! `BEVRA_CHECK_REPLAY=<case seed>` replays one case.

use bevra::analysis::{k_max_grid, sweep_grid, sweep_grid_fused, DiscreteModel, PiEval};
use bevra::analysis::kernel::{self, ParityClass};
use bevra::engine::{CacheMode, ExecMode, PersistentCache, SweepEngine};
use bevra::load::Tabulated;
use bevra::num::simd;
use bevra::utility::{Rigid, Utility};
use bevra_check::{ensure, Checker, Scenario, ScenarioStrategy};
use std::sync::{Arc, Mutex};

/// Serializes the tests that force a SIMD dispatch tier. `force_level` is
/// process-global; the bit-parity contract makes a concurrent reader's
/// *results* identical either way, but a tier-comparison test must know
/// which tier it actually measured.
static TIER_LOCK: Mutex<()> = Mutex::new(());

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

/// Exact batched kernels are **bitwise** the scalar per-point path —
/// `k_max`, `B`, and `R` — across all three load families and all three
/// utility families the scenario strategy draws, admission caps included.
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
                let got = sweep_grid(&model, &cs, PiEval::Exact);
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

/// The fast (vectorized-π) kernel stays within its documented relative
/// budget of the scalar path on every cell. The budget is generous
/// relative to the observed error (~1e-15): π evaluations differ by at
/// most 8 ULPs and `B` is a positively weighted mean of them.
#[test]
fn batched_fast_kernel_stays_within_budget() {
    Checker::new("batch_fast_budget").scale_cases(8).run(
        &ScenarioStrategy::default(),
        |sc: &Scenario| {
            let utility = sc.utility.as_dyn();
            let cs = sorted_grid(sc);
            for (li, load) in sc.loads.iter().enumerate() {
                let table = Arc::new(load.tabulate()?);
                let model = scenario_model(&table, &utility, sc);
                let got = sweep_grid(&model, &cs, PiEval::Fast);
                for (i, &c) in cs.iter().enumerate() {
                    let cell = format!("load[{li}]={load:?} C={c}");
                    // k_max and R never use the fast π; they are bitwise.
                    ensure(got.k_max[i] == model.k_max(c), || {
                        format!("{cell}: fast-mode k_max diverged")
                    })?;
                    let b = model.best_effort(c);
                    let tol = 1e-12 * b.abs().max(1e-12);
                    ensure((got.best_effort[i] - b).abs() <= tol, || {
                        format!(
                            "{cell}: fast B {:e} vs scalar {b:e} (tol {tol:e})",
                            got.best_effort[i]
                        )
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
                        .with_kernel(kernel::batch())
                        .sweep(&cs);
                let cold =
                    SweepEngine::with_mode(scenario_model(&table, &utility, sc), ExecMode::Serial)
                        .with_kernel(kernel::batch())
                        .with_persistent_cache(PersistentCache::new(&dir, CacheMode::ReadWrite));
                let cold_points = cold.sweep(&cs);
                let warm =
                    SweepEngine::with_mode(scenario_model(&table, &utility, sc), ExecMode::Serial)
                        .with_kernel(kernel::batch())
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

/// Every **registered** backend holds its self-reported parity contract
/// against the scalar per-point reference, across randomized load ×
/// utility scenarios. Backends are enumerated from the engine registry,
/// so a backend added there is covered by this test with zero
/// per-backend code.
#[test]
fn every_registered_backend_holds_its_parity_contract() {
    let backends = bevra::engine::registry::backends();
    assert_eq!(backends.len(), 3, "expected the three built-ins");
    Checker::new("backend_parity_contract").scale_cases(4).run(
        &ScenarioStrategy::default(),
        |sc: &Scenario| {
            let utility = sc.utility.as_dyn();
            let cs = sorted_grid(sc);
            for (li, load) in sc.loads.iter().enumerate() {
                let table = Arc::new(load.tabulate()?);
                let model = scenario_model(&table, &utility, sc);
                let dyn_model = model.as_dyn();
                for k in &backends {
                    let cap = k.capability();
                    let kms = k.k_max_grid(&dyn_model, &cs);
                    let bs = k.best_effort_grid(&dyn_model, &cs);
                    let rs = k.reservation_grid(&dyn_model, &cs, &kms, &bs);
                    for (i, &c) in cs.iter().enumerate() {
                        let cell = format!("{}: load[{li}]={load:?} C={c}", cap.name);
                        let b_ref = model.best_effort(c);
                        let r_ref = model.reservation(c);
                        let km_ref = model.k_max(c);
                        match cap.parity {
                            ParityClass::Bitwise => {
                                ensure(kms[i] == km_ref, || {
                                    format!("{cell}: k_max {:?} != scalar {km_ref:?}", kms[i])
                                })?;
                                ensure(bs[i].to_bits() == b_ref.to_bits(), || {
                                    format!("{cell}: B {:e} != scalar {b_ref:e}", bs[i])
                                })?;
                                ensure(rs[i].to_bits() == r_ref.to_bits(), || {
                                    format!("{cell}: R {:e} != scalar {r_ref:e}", rs[i])
                                })?;
                            }
                            ParityClass::Tolerance(t) => {
                                // A tolerance-class backend may pick a
                                // different argmax on an exact utility
                                // plateau, but threshold existence must
                                // agree.
                                ensure(kms[i].is_some() == km_ref.is_some(), || {
                                    format!(
                                        "{cell}: k_max Someness {:?} vs scalar {km_ref:?}",
                                        kms[i]
                                    )
                                })?;
                                let tol_b = 10.0 * t * b_ref.abs().max(1e-12);
                                ensure((bs[i] - b_ref).abs() <= tol_b, || {
                                    format!(
                                        "{cell}: B {:e} vs scalar {b_ref:e} (tol {tol_b:e})",
                                        bs[i]
                                    )
                                })?;
                                let tol_r = 10.0 * t * r_ref.abs().max(1e-12);
                                ensure((rs[i] - r_ref).abs() <= tol_r, || {
                                    format!(
                                        "{cell}: R {:e} vs scalar {r_ref:e} (tol {tol_r:e})",
                                        rs[i]
                                    )
                                })?;
                            }
                        }
                    }
                }
            }
            Ok(())
        },
    );
}

/// The fused B+R traversal holds the same parity contract as the unfused
/// composition it replaces, across randomized load × utility scenarios:
/// `Exact` and `Portable` modes are **bitwise** the unfused pair (the
/// fused finalization mirrors their operation order exactly), and `Fast`
/// stays within the fast budget of the scalar reference. `k_max` is
/// always bitwise — fusion never touches the threshold search.
#[test]
fn fused_sweep_holds_parity_against_unfused() {
    Checker::new("fused_vs_unfused").scale_cases(6).run(
        &ScenarioStrategy::default(),
        |sc: &Scenario| {
            let utility = sc.utility.as_dyn();
            let cs = sorted_grid(sc);
            for (li, load) in sc.loads.iter().enumerate() {
                let table = Arc::new(load.tabulate()?);
                let model = scenario_model(&table, &utility, sc);
                for mode in [PiEval::Exact, PiEval::Portable] {
                    let plain = sweep_grid(&model, &cs, mode);
                    let fused = sweep_grid_fused(&model, &cs, mode);
                    for (i, &c) in cs.iter().enumerate() {
                        let cell = format!("load[{li}]={load:?} C={c} {mode:?}");
                        ensure(fused.k_max[i] == plain.k_max[i], || {
                            format!("{cell}: fused k_max diverged")
                        })?;
                        ensure(
                            fused.best_effort[i].to_bits() == plain.best_effort[i].to_bits(),
                            || {
                                format!(
                                    "{cell}: fused B {:e} != unfused {:e}",
                                    fused.best_effort[i], plain.best_effort[i]
                                )
                            },
                        )?;
                        ensure(
                            fused.reservation[i].to_bits() == plain.reservation[i].to_bits(),
                            || {
                                format!(
                                    "{cell}: fused R {:e} != unfused {:e}",
                                    fused.reservation[i], plain.reservation[i]
                                )
                            },
                        )?;
                    }
                }
                // Fast mode: the k-span walk regroups the series, so it is
                // tolerance-class against the scalar reference, not bitwise
                // against the unfused fast pair.
                let fused = sweep_grid_fused(&model, &cs, PiEval::Fast);
                for (i, &c) in cs.iter().enumerate() {
                    let cell = format!("load[{li}]={load:?} C={c} Fast");
                    ensure(fused.k_max[i] == model.k_max(c), || {
                        format!("{cell}: fused fast k_max diverged")
                    })?;
                    for (name, got, reference) in [
                        ("B", fused.best_effort[i], model.best_effort(c)),
                        ("R", fused.reservation[i], model.reservation(c)),
                    ] {
                        let tol = 1e-12 * reference.abs().max(1e-12);
                        ensure((got - reference).abs() <= tol, || {
                            format!("{cell}: fused fast {name} {got:e} vs scalar {reference:e}")
                        })?;
                    }
                }
            }
            Ok(())
        },
    );
}

/// The identity nudge is transparent: routing a fused fast sweep through
/// the mutation hook with `|k| k` must reproduce `sweep_grid_fused`
/// bit-for-bit on every randomized scenario — otherwise the hook itself
/// perturbs the path it exists to test, and the mutation test below
/// proves nothing. Runs under the Checker so a violation shrinks to a
/// minimal scenario.
#[test]
fn fused_split_nudge_identity_is_transparent() {
    use bevra::analysis::discrete_batch::sweep_grid_fused_with_split_nudge;
    Checker::new("fused_nudge_identity").scale_cases(4).run(
        &ScenarioStrategy::default(),
        |sc: &Scenario| {
            let utility = sc.utility.as_dyn();
            let cs = sorted_grid(sc);
            for (li, load) in sc.loads.iter().enumerate() {
                let table = Arc::new(load.tabulate()?);
                let model = scenario_model(&table, &utility, sc);
                let clean = sweep_grid_fused(&model, &cs, PiEval::Fast);
                let hooked =
                    sweep_grid_fused_with_split_nudge(&model, &cs, PiEval::Fast, |k| k);
                for (i, &c) in cs.iter().enumerate() {
                    let cell = format!("load[{li}]={load:?} C={c}");
                    ensure(
                        hooked.best_effort[i].to_bits() == clean.best_effort[i].to_bits()
                            && hooked.reservation[i].to_bits() == clean.reservation[i].to_bits(),
                        || format!("{cell}: identity nudge changed the fused sweep"),
                    )?;
                }
            }
            Ok(())
        },
    );
}

/// Forced SIMD tiers are **bitwise-identical**: the dispatch contract
/// (one portable body, fixed sub-accumulator stride, never FMA) promises
/// that `BEVRA_SIMD` only changes throughput, never bits. Sweeps the
/// fused and unfused fast paths at every tier runnable on this host and
/// compares against the scalar-tier bits.
#[test]
fn forced_simd_tiers_are_bitwise_identical() {
    let _guard = TIER_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let restore = simd::level();
    let detected = simd::detected();
    let tiers: Vec<simd::Level> = [simd::Level::Scalar, simd::Level::Avx2, simd::Level::Avx512]
        .into_iter()
        .filter(|t| t.runnable_at(detected))
        .collect();
    assert!(tiers.contains(&simd::Level::Scalar), "scalar runs everywhere");

    let load = Arc::new(Tabulated::from_model(
        &bevra::load::Algebraic::from_mean(3.0, 100.0).expect("fig4 family"),
        1e-9,
        1 << 14,
    ));
    let model = DiscreteModel::new(load, bevra::utility::AdaptiveExp::paper());
    let cs: Vec<f64> = (1..=32).map(|i| f64::from(i) * 1.5).collect();

    let mut per_tier = Vec::new();
    for &tier in &tiers {
        simd::force_level(tier);
        let unfused = sweep_grid(&model, &cs, PiEval::Fast);
        let fused = sweep_grid_fused(&model, &cs, PiEval::Fast);
        per_tier.push((tier, unfused, fused));
    }
    simd::force_level(restore);

    let (_, ref u0, ref f0) = per_tier[0];
    for (tier, unfused, fused) in &per_tier[1..] {
        for i in 0..cs.len() {
            assert_eq!(
                unfused.best_effort[i].to_bits(),
                u0.best_effort[i].to_bits(),
                "unfused B bits diverged at tier {} lane {i}",
                tier.as_str()
            );
            assert_eq!(
                fused.best_effort[i].to_bits(),
                f0.best_effort[i].to_bits(),
                "fused B bits diverged at tier {} lane {i}",
                tier.as_str()
            );
            assert_eq!(
                fused.reservation[i].to_bits(),
                f0.reservation[i].to_bits(),
                "fused R bits diverged at tier {} lane {i}",
                tier.as_str()
            );
        }
    }
}

/// Every registered backend holds its parity contract *under forced
/// SIMD tiers* as well — the registry sweep above at the detected tier,
/// repeated pinned to scalar and (when runnable) AVX2. A backend whose
/// wide path silently regroups arithmetic would pass at one tier and
/// fail here.
#[test]
fn registered_backends_hold_parity_under_forced_tiers() {
    let _guard = TIER_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let restore = simd::level();
    let detected = simd::detected();
    let backends = bevra::engine::registry::backends();
    for tier in [simd::Level::Scalar, simd::Level::Avx2] {
        if !tier.runnable_at(detected) {
            continue;
        }
        simd::force_level(tier);
        Checker::new("backend_parity_forced_tier").cases(2).run(
            &ScenarioStrategy::default(),
            |sc: &Scenario| {
                let utility = sc.utility.as_dyn();
                let cs = sorted_grid(sc);
                for (li, load) in sc.loads.iter().enumerate() {
                    let table = Arc::new(load.tabulate()?);
                    let model = scenario_model(&table, &utility, sc);
                    let dyn_model = model.as_dyn();
                    for k in &backends {
                        let cap = k.capability();
                        let got = k.sweep_grid(&dyn_model, &cs);
                        for (i, &c) in cs.iter().enumerate() {
                            let cell = format!(
                                "{}@{}: load[{li}]={load:?} C={c}",
                                cap.name,
                                tier.as_str()
                            );
                            let b_ref = model.best_effort(c);
                            let r_ref = model.reservation(c);
                            match cap.parity {
                                ParityClass::Bitwise => {
                                    ensure(
                                        got.best_effort[i].to_bits() == b_ref.to_bits()
                                            && got.reservation[i].to_bits() == r_ref.to_bits(),
                                        || format!("{cell}: bitwise backend diverged"),
                                    )?;
                                }
                                ParityClass::Tolerance(t) => {
                                    let tol_b = 10.0 * t * b_ref.abs().max(1e-12);
                                    let tol_r = 10.0 * t * r_ref.abs().max(1e-12);
                                    ensure(
                                        (got.best_effort[i] - b_ref).abs() <= tol_b
                                            && (got.reservation[i] - r_ref).abs() <= tol_r,
                                        || {
                                            format!(
                                                "{cell}: B {:e}/R {:e} vs scalar {b_ref:e}/{r_ref:e}",
                                                got.best_effort[i], got.reservation[i]
                                            )
                                        },
                                    )?;
                                }
                            }
                        }
                    }
                }
                Ok(())
            },
        );
    }
    simd::force_level(restore);
}

/// Capability records of the built-ins carry the contract the rest of
/// the workspace depends on: a bitwise `batch`, fast/portable in
/// tolerance classes and cache classes of their own, all grid-priming.
#[test]
fn builtin_capability_records_are_coherent() {
    let batch = kernel::batch().capability();
    let fast = kernel::fast().capability();
    let portable = kernel::portable().capability();
    assert_eq!(batch.parity, ParityClass::Bitwise);
    assert!(matches!(fast.parity, ParityClass::Tolerance(t) if t > 0.0));
    assert!(matches!(portable.parity, ParityClass::Tolerance(t) if t > 0.0));
    assert!(batch.grid_priming && fast.grid_priming && portable.grid_priming);
    assert!(portable.portable && !fast.portable);
    assert_ne!(fast.cache_tag, batch.cache_tag);
    assert_ne!(portable.cache_tag, fast.cache_tag);
    assert_ne!(portable.cache_tag, batch.cache_tag);
    assert_eq!(
        fast.simd,
        kernel::resolved_simd_level(),
        "fast capability reports the runtime dispatch tier"
    );
    for cap in [batch, fast, portable] {
        assert!(!cap.fault_sites.is_empty(), "{}: no declared fault sites", cap.name);
    }
}
