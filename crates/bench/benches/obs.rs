//! Bench: observability overhead — the same fixed parallel sweep run at
//! `BEVRA_OBS=off` and `trace` (set programmatically via
//! [`bevra_obs::set_level`] so one process covers both), and at `off`
//! with the flight recorder switched off too. The `off` case is the
//! acceptance bar: it must be indistinguishable from the
//! pre-instrumentation engine, since the hot path only pays one relaxed
//! atomic load per gate check. The three rows are timed in turn, one
//! sweep of each per round, so a change in the machine's speed moves
//! them alike and their ratios hold steady.

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

/// Rounds of the interleaved rows: one sweep of each row per round.
const ROUNDS: usize = 60;

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
    // One sweep at an obs level and recorder state, each on a cold engine
    // so every row does identical work (memoization would otherwise make
    // later sweeps all cache hits). The recorder gate is independent of
    // the obs level: the `_norec` row isolates what the flight recorder
    // itself (span ring writes) adds to the default level.
    let sweep_at = |level: ObsLevel, recording: bool| {
        bevra_obs::set_level(level);
        bevra_obs::recorder::set_recording(recording);
        let engine = SweepEngine::with_mode(
            DiscreteModel::new(Arc::clone(&load), AdaptiveExp::paper()),
            ExecMode::Parallel { threads },
        );
        black_box(engine.sweep(black_box(&cs)));
        drain_obs();
    };
    drain_obs();
    c.bench_interleaved(
        &mut [
            ("obs_sweep_off", &mut || sweep_at(ObsLevel::Off, true)),
            ("obs_sweep_off_norec", &mut || sweep_at(ObsLevel::Off, false)),
            ("obs_sweep_trace", &mut || sweep_at(ObsLevel::Trace, true)),
        ],
        1,
        ROUNDS,
    );
    bevra_obs::set_level(ObsLevel::Off);
    bevra_obs::recorder::set_recording(true);
}

criterion_group!(benches, obs_overhead);
criterion_main!(benches);
