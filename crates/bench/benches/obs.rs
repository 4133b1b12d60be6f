//! Bench: observability overhead — the same fixed parallel sweep run at
//! `BEVRA_OBS=off` and `trace` (set programmatically via
//! [`bevra_obs::set_level`] so one process covers both), and at `off`
//! with the flight recorder switched off too. The `off` case is the
//! acceptance bar: it must be indistinguishable from the
//! pre-instrumentation engine, since the hot path only pays one relaxed
//! atomic load per gate check.

use bevra_core::DiscreteModel;
use bevra_engine::{ExecMode, SweepEngine};
use bevra_load::{Poisson, Tabulated, PAPER_MEAN_LOAD};
use bevra_obs::ObsLevel;
use bevra_utility::AdaptiveExp;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

fn grid(n: usize) -> Vec<f64> {
    let (lo, hi) = (PAPER_MEAN_LOAD / 20.0, 10.0 * PAPER_MEAN_LOAD);
    let ratio = (hi / lo).powf(1.0 / (n - 1) as f64);
    (0..n).map(|i| lo * ratio.powi(i as i32)).collect()
}

/// Drop everything the previous level accumulated so buffers never grow
/// across bench cases (trace events in particular).
fn drain_obs() {
    let _ = bevra_obs::drain_stages();
    let _ = bevra_obs::drain_trace();
    let _ = bevra_engine::drain_caches();
}

fn obs_overhead(c: &mut Criterion) {
    let load = Arc::new(Tabulated::from_model(&Poisson::new(PAPER_MEAN_LOAD), 1e-12, 1 << 18));
    let cs = grid(48);
    let threads = bevra_engine::thread_count();
    // Cold engine per iteration so every level does identical work
    // (memoization would otherwise make later cases all cache hits).
    let sweep_once = |load: &Arc<Tabulated>, cs: &[f64]| {
        let engine = SweepEngine::with_mode(
            DiscreteModel::new(Arc::clone(load), AdaptiveExp::paper()),
            ExecMode::Parallel { threads },
        );
        black_box(engine.sweep(black_box(cs)))
    };
    // The recorder gate is independent of the obs level: the `_norec`
    // case isolates what the flight recorder itself (span ring writes)
    // adds to the default level.
    for (label, level, recording) in [
        ("obs_sweep_off", ObsLevel::Off, true),
        ("obs_sweep_off_norec", ObsLevel::Off, false),
        ("obs_sweep_trace", ObsLevel::Trace, true),
    ] {
        bevra_obs::set_level(level);
        bevra_obs::recorder::set_recording(recording);
        drain_obs();
        c.bench_function(label, |b| {
            b.iter(|| {
                let out = sweep_once(&load, &cs);
                drain_obs();
                out
            });
        });
        drain_obs();
    }
    bevra_obs::set_level(ObsLevel::Off);
    bevra_obs::recorder::set_recording(true);
}

criterion_group!(benches, obs_overhead);
criterion_main!(benches);
