//! Workspace acceptance for sweep resume: a sweep killed mid-flight must
//! resume from the rows it left in the persistent cache and land on
//! *bitwise* the same answer a never-interrupted run produces. Crash
//! recovery is only real if it changes no bit.
//!
//! Every reference, resumed and warm run holds an empty fault plan:
//! every sweep crosses the `engine/ckpt-batch` kill site, so a run
//! outside an `install` guard could pick up another test's kill plan.

use bevra::analysis::DiscreteModel;
use bevra::load::{Poisson, Tabulated};
use bevra::prelude::*;
use bevra_check::chaos::silence_injected_panics;
use bevra_engine::{CacheMode, PersistentCache};
use bevra_faults::{install, FaultKind, FaultPlan, FaultRule};
use std::path::{Path, PathBuf};

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("bevra-resilience-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn model() -> DiscreteModel<Rigid> {
    DiscreteModel::new(Tabulated::from_model(&Poisson::new(20.0), 1e-12, 1 << 10), Rigid::unit())
}

/// 40 points → two sweep batches of 32 + 8.
fn grid() -> Vec<f64> {
    (1..=40).map(|i| f64::from(i) * 7.0).collect()
}

/// A serial engine on the persistent cache under `dir`.
fn cached_engine(dir: &Path) -> SweepEngine<Rigid> {
    SweepEngine::with_mode(model(), ExecMode::Serial)
        .with_persistent_cache(PersistentCache::new(dir, CacheMode::ReadWrite))
}

/// The uninterrupted, uncached sweep every restore must reproduce.
fn reference_sweep() -> Vec<SweepPoint> {
    let _guard = install(FaultPlan::seeded(0));
    SweepEngine::with_mode(model(), ExecMode::Serial).sweep(&grid())
}

fn assert_bitwise(reference: &[SweepPoint], got: &[SweepPoint]) {
    assert_eq!(got.len(), reference.len());
    for (a, b) in reference.iter().zip(got) {
        let c = a.capacity;
        assert_eq!(a.best_effort.to_bits(), b.best_effort.to_bits(), "B at C={c}");
        assert_eq!(a.reservation.to_bits(), b.reservation.to_bits(), "R at C={c}");
        assert_eq!(a.performance_gap.to_bits(), b.performance_gap.to_bits(), "δ at C={c}");
        assert_eq!(a.bandwidth_gap.to_bits(), b.bandwidth_gap.to_bits(), "Δ at C={c}");
    }
}

/// An analysis sweep killed after its first batch resumes from the
/// persistent cache instead of recomputing, and every resumed point is
/// bit-identical to an uninterrupted reference sweep.
#[test]
fn killed_sweep_resumes_bitwise_from_checkpoint() {
    silence_injected_panics();
    let dir = tmp_dir("sweep");
    let cs = grid();
    let reference = reference_sweep();

    // Kill the sweep right after batch 0 lands on disk.
    let killed_engine = cached_engine(&dir);
    {
        let _guard = install(
            FaultPlan::seeded(0).rule(FaultRule::at_key(FaultKind::Panic, "engine/ckpt-batch", 0)),
        );
        let killed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            killed_engine.sweep_checked(&cs)
        }));
        assert!(killed.is_err(), "the ckpt-batch kill site must fire");
    }
    let stores = killed_engine.persistent_cache().map_or(0, PersistentCache::stores);
    assert_eq!(stores, 2, "the value table and batch 0 were stored before the kill");

    // A fresh engine over the same directory resumes and completes.
    let resumed_engine = cached_engine(&dir);
    let resumed = {
        let _guard = install(FaultPlan::seeded(0));
        resumed_engine.sweep_checked(&cs)
    };
    let cache = resumed_engine.persistent_cache().expect("cache attached");
    assert_eq!(cache.restored_points(), 32, "the first batch was restored, not recomputed");
    assert!(resumed.health.is_clean(), "resumed sweep is clean: {}", resumed.health);
    assert_bitwise(&reference, &resumed.points());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A finished cached sweep leaves both batches on disk: a fresh engine on
/// the same directory restores all 40 points bitwise. A sweep-row entry
/// bit-flipped or truncated on disk restores nothing; its batch
/// recomputes to the same bits instead.
#[test]
fn finished_sweep_rows_restore_bitwise_and_damaged_rows_recompute() {
    let dir = tmp_dir("rows");
    let cs = grid();
    let reference = reference_sweep();
    let _guard = install(FaultPlan::seeded(0));

    let cold = cached_engine(&dir);
    assert_bitwise(&reference, &cold.sweep(&cs));
    assert_eq!(cold.persistent_cache().map(PersistentCache::restored_points), Some(0));

    let warm = cached_engine(&dir);
    assert_bitwise(&reference, &warm.sweep(&cs));
    let restored = warm.persistent_cache().map(PersistentCache::restored_points);
    assert_eq!(restored, Some(40), "both batches (32 + 8) restored");

    // The 32-point batch's entry is the larger of the two sweep-row files.
    let mut rows: Vec<(PathBuf, Vec<u8>)> = std::fs::read_dir(&dir)
        .expect("cache dir")
        .map(|e| e.expect("dir entry").path())
        .map(|p| {
            let bytes = std::fs::read(&p).expect("entry");
            (p, bytes)
        })
        .filter(|(_, bytes)| bytes.starts_with(b"bevra-sweep"))
        .collect();
    assert_eq!(rows.len(), 2, "one sweep-row entry per batch");
    rows.sort_by_key(|(_, bytes)| std::cmp::Reverse(bytes.len()));
    let (path, bytes) = &rows[0];
    let mid = bytes.len() / 2;
    let mut flipped = bytes.clone();
    flipped[mid] = flipped[mid].wrapping_add(1);
    for (damage, damaged) in [("flipped", flipped), ("truncated", bytes[..mid].to_vec())] {
        std::fs::write(path, damaged).expect("damage the entry");
        let engine = cached_engine(&dir);
        let checked = engine.sweep_checked(&cs);
        assert!(checked.health.is_clean(), "{damage}: {}", checked.health);
        assert_bitwise(&reference, &checked.points());
        let restored = engine.persistent_cache().map(PersistentCache::restored_points);
        assert_eq!(restored, Some(8), "{damage}: only the intact 8-point batch is restored");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
