//! Bench: the sweep engine — serial vs parallel vs cached (warm) sweeps
//! over the Figure 2/3 grids, the parallel welfare-table build, the
//! value-kernel paths (scalar per-point vs grid-batched vs warm
//! persistent cache) on the Figure 4 algebraic/adaptive setting, Figure
//! 4's welfare prime, and the build of Figure 4's load table. This is the
//! acceptance bench for the engine's speedup claims; results land in
//! `BENCH_sweep.json` (see EXPERIMENTS.md § "Benchmark artifact schema").

use bevra_core::{DiscreteModel, SampledValue};
use bevra_engine::{Architecture, CacheMode, ExecMode, PersistentCache, SweepEngine};
use bevra_load::{Algebraic, Geometric, Poisson, Tabulated, PAPER_MEAN_LOAD};
use bevra_utility::{AdaptiveExp, Rigid, Utility};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

fn grid(n: usize) -> Vec<f64> {
    let (lo, hi) = (PAPER_MEAN_LOAD / 20.0, 10.0 * PAPER_MEAN_LOAD);
    let ratio = (hi / lo).powf(1.0 / (n - 1) as f64);
    (0..n).map(|i| lo * ratio.powi(i as i32)).collect()
}

fn engine_of(load: &Arc<Tabulated>, mode: ExecMode) -> SweepEngine<AdaptiveExp> {
    SweepEngine::with_mode(DiscreteModel::new(Arc::clone(load), AdaptiveExp::paper()), mode)
}

fn engine_sweeps(c: &mut Criterion) {
    let load = Arc::new(Tabulated::from_model(&Poisson::new(PAPER_MEAN_LOAD), 1e-12, 1 << 18));
    let cs = grid(48);
    c.bench_function("engine_sweep_serial_cold", |b| {
        b.iter(|| black_box(engine_of(&load, ExecMode::Serial).sweep(black_box(&cs))));
    });
    let threads = bevra_engine::thread_count();
    c.bench_function("engine_sweep_parallel_cold", |b| {
        b.iter(|| {
            black_box(engine_of(&load, ExecMode::Parallel { threads }).sweep(black_box(&cs)))
        });
    });
    // Warm cache: the same engine re-sweeps the grid (pure hits).
    let warm = engine_of(&load, ExecMode::Parallel { threads });
    let _ = warm.sweep(&cs);
    c.bench_function("engine_sweep_parallel_warm", |b| {
        b.iter(|| black_box(warm.sweep(black_box(&cs))));
    });

    let geo = Arc::new(Tabulated::from_model(&Geometric::from_mean(PAPER_MEAN_LOAD), 1e-12, 1 << 18));
    c.bench_function("engine_value_table_serial", |b| {
        b.iter(|| {
            black_box(engine_of(&geo, ExecMode::Serial).value_table(
                Architecture::BestEffort,
                PAPER_MEAN_LOAD,
                300.0 * PAPER_MEAN_LOAD,
                400,
            ))
        });
    });
    c.bench_function("engine_value_table_parallel", |b| {
        b.iter(|| {
            black_box(engine_of(&geo, ExecMode::Parallel { threads }).value_table(
                Architecture::BestEffort,
                PAPER_MEAN_LOAD,
                300.0 * PAPER_MEAN_LOAD,
                400,
            ))
        });
    });
}

/// The value-kernel acceptance benches: `k_max`/`B`/`R` for a 48-point
/// Figure 4 grid (algebraic z = 3 load, adaptive utility, 2^18-entry
/// table), isolating the kernels from the off-grid gap root-finder. Four
/// canonical rows: scalar per-point, grid-batched, parallel batched, and
/// warm persistent cache.
fn kernel_sweeps(c: &mut Criterion) {
    let alg = Algebraic::from_mean(3.0, PAPER_MEAN_LOAD).expect("paper fig4 family");
    let load = Arc::new(Tabulated::from_model(&alg, 1e-9, 1 << 18));
    let cs = grid(48);
    let n = cs.len();
    let model = || DiscreteModel::new(Arc::clone(&load), AdaptiveExp::paper());

    c.bench_function("kernel_sweep_serial", |b| {
        b.points(n);
        b.iter(|| {
            let m = model();
            for &cap in &cs {
                black_box(m.k_max(cap));
                black_box(m.best_effort(cap));
                black_box(m.reservation(cap));
            }
        });
    });
    c.bench_function("kernel_sweep_batched_exact", |b| {
        b.points(n);
        b.iter(|| {
            let eng = SweepEngine::with_mode(model(), ExecMode::Serial);
            eng.prime(black_box(&cs));
        });
    });

    let threads = bevra_engine::thread_count();
    c.bench_function("kernel_sweep_parallel", |b| {
        b.points(n);
        b.iter(|| {
            let eng = SweepEngine::with_mode(model(), ExecMode::Parallel { threads });
            eng.prime(black_box(&cs));
        });
    });

    // Warm persistent cache: one cold run stores the value table, then
    // every iteration is a fresh engine loading it from disk.
    let dir = std::env::temp_dir().join(format!("bevra-bench-pcache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let pcache = || PersistentCache::new(&dir, CacheMode::ReadWrite);
    SweepEngine::with_mode(model(), ExecMode::Serial).with_persistent_cache(pcache()).prime(&cs);
    c.bench_function("kernel_sweep_warm_cache", |b| {
        b.points(n);
        b.iter(|| {
            let eng =
                SweepEngine::with_mode(model(), ExecMode::Serial).with_persistent_cache(pcache());
            eng.prime(black_box(&cs));
        });
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// Figure 4's welfare prime: the 800-lane `SampledValue::grid(k̄, 300·k̄,
/// 800)` on its 2^20-entry table, each utility on a fresh parallel
/// engine. The kernel rows above stop at 10·k̄, where no lane passes the
/// table head; here the top lanes reach C = 30,000. The first row primes
/// rigid then adaptive, whose 800 × 4,096-entry `B` heads set its floor;
/// the rigid row alone moves about 4× when its lanes walk to `C` term by
/// term again, so the 3× gate catches that.
fn welfare_primes(c: &mut Criterion) {
    let alg = Algebraic::from_mean(3.0, PAPER_MEAN_LOAD).expect("paper fig4 family");
    let load = Arc::new(Tabulated::from_model(&alg, 1e-9, 1 << 20));
    let kbar = load.mean();
    let cs = SampledValue::grid(kbar, 300.0 * kbar, 800);
    let lanes = cs.iter().filter(|&&c| c > 0.0).count();
    let mode = ExecMode::Parallel { threads: bevra_engine::thread_count() };
    let prime = |u: &dyn Utility| {
        let model = DiscreteModel::new(Arc::clone(&load), u);
        SweepEngine::with_mode(model, mode).prime(black_box(&cs));
    };
    c.bench_function("engine_prime_welfare_fig4", |b| {
        b.points(2 * lanes);
        b.iter(|| {
            prime(&Rigid::unit());
            prime(&AdaptiveExp::paper());
        });
    });
    c.bench_function("engine_prime_welfare_fig4_rigid", |b| {
        b.points(lanes);
        b.iter(|| prime(&Rigid::unit()));
    });
}

/// Figure 4's load table, calibration included: z = 3, k̄ = 100, 2^20
/// entries. A table with a smooth tail evaluates its 4,097-entry head
/// only, so the 3× gate catches a build that walks every entry again.
fn load_builds(c: &mut Criterion) {
    c.bench_function("load_build_algebraic_2p20", |b| {
        b.iter(|| {
            let alg = Algebraic::from_mean(3.0, black_box(PAPER_MEAN_LOAD)).expect("fig4 family");
            black_box(Tabulated::from_model(&alg, 1e-9, 1 << 20))
        });
    });
}

criterion_group!(benches, engine_sweeps, kernel_sweeps, welfare_primes, load_builds);
criterion_main!(benches);
