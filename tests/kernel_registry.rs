//! Workspace acceptance for the kernel backend registry: the capability
//! record survives a trip through the persistent cache, the default
//! `batch` backend is bitwise the per-point model path, and the health
//! ledger names the backend `BEVRA_KERNEL` resolves to.

use bevra::analysis::{kernel, DiscreteModel};
use bevra::engine::{CacheMode, ExecMode, PersistentCache, SweepEngine};
use bevra::load::{Poisson, Tabulated};
use bevra::utility::AdaptiveExp;

fn model() -> DiscreteModel<AdaptiveExp> {
    let load = Tabulated::from_model(&Poisson::new(20.0), 1e-12, 1 << 12);
    DiscreteModel::new(load, AdaptiveExp::paper())
}

fn grid() -> Vec<f64> {
    (1..=16).map(|i| 2.5 * f64::from(i)).collect()
}

/// The capability record round-trips through the persistent cache: a warm
/// engine whose rows and sweep batches all come from disk stamps the same
/// backend name and SIMD tier into its health ledger as the cold engine
/// that computed them, with bitwise-identical points. Checked through real
/// cache traffic.
#[test]
fn capability_record_round_trips_through_cache_key() {
    let dir = std::env::temp_dir().join(format!("bevra-kernel-cache-key-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cs = grid();
    let engine = || {
        SweepEngine::with_mode(model(), ExecMode::Serial)
            .with_persistent_cache(PersistentCache::new(&dir, CacheMode::ReadWrite))
    };

    // Cold run: one value-table miss, rows and sweep batches stored.
    let cold = engine();
    let cold_sweep = cold.sweep_checked(&cs);
    let pc = cold.persistent_cache().expect("cache attached");
    assert_eq!(
        (pc.stats().hits, pc.stats().misses),
        (0, 1),
        "cold prime misses once"
    );
    assert_eq!(pc.restored_points(), 0);

    // Warm run: a pure hit that restores every point from disk.
    let warm = engine();
    let warm_sweep = warm.sweep_checked(&cs);
    let pc = warm.persistent_cache().expect("cache attached");
    assert_eq!(
        (pc.stats().hits, pc.stats().misses),
        (1, 0),
        "warm prime is a pure hit"
    );
    assert_eq!(
        pc.restored_points(),
        cs.len() as u64,
        "every point restored"
    );

    let cap = kernel::batch().capability();
    for (run, sweep) in [("cold", &cold_sweep), ("warm", &warm_sweep)] {
        assert_eq!(
            sweep.health.kernel.as_deref(),
            Some(cap.name),
            "{run} kernel stamp"
        );
        assert_eq!(
            sweep.health.simd.as_deref(),
            Some(cap.simd.as_str()),
            "{run} simd stamp"
        );
    }
    for (a, b) in cold_sweep.points().iter().zip(warm_sweep.points()) {
        assert_eq!(a.best_effort.to_bits(), b.best_effort.to_bits());
        assert_eq!(a.reservation.to_bits(), b.reservation.to_bits());
        assert_eq!(a.bandwidth_gap.to_bits(), b.bandwidth_gap.to_bits());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `batch` backend is bitwise the per-point path:
/// `DiscreteModel::{k_max, best_effort, reservation}` called point by
/// point plus the serial `bandwidth_gap` solver — the exact code the
/// engine ran before the `Kernel` trait existed.
#[test]
fn batch_backend_is_bitwise_the_per_point_path() {
    let cs = grid();
    let reference = model();
    let swept = SweepEngine::with_mode(model(), ExecMode::Serial).sweep(&cs);
    for (&c, pt) in cs.iter().zip(&swept) {
        assert_eq!(reference.k_max(c), kernel_k_max(&reference, c), "sanity");
        assert_eq!(
            reference.best_effort(c).to_bits(),
            pt.best_effort.to_bits(),
            "B at C={c}"
        );
        assert_eq!(
            reference.reservation(c).to_bits(),
            pt.reservation.to_bits(),
            "R at C={c}"
        );
        let gap = bevra::analysis::bandwidth_gap(&reference, c).unwrap_or(f64::NAN);
        assert_eq!(gap.to_bits(), pt.bandwidth_gap.to_bits(), "Δ at C={c}");
    }
}

/// The batch *backend object* agrees with the model methods it claims to
/// mirror (guards the trait impl itself, not just the engine plumbing).
fn kernel_k_max(m: &DiscreteModel<AdaptiveExp>, c: f64) -> Option<u64> {
    kernel::batch().sweep_grid(&m.as_dyn(), &[c]).k_max[0]
}

/// `BEVRA_KERNEL` resolution is observable end to end: the health ledger
/// of a checked sweep names the backend that evaluated it.
#[test]
fn health_ledger_names_the_active_backend() {
    let checked = SweepEngine::with_mode(model(), ExecMode::Serial).sweep_checked(&grid());
    assert_eq!(checked.health.kernel.as_deref(), Some("batch"));
    assert_eq!(checked.health.simd.as_deref(), Some("autovec"));
    assert!(checked.health.is_clean(), "batch: clean sweep expected");
}
