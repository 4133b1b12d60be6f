//! Bench: the §5 extension kernels (sampling order statistics and the
//! retrying fixed point).

use bevra_core::retrying::{GeometricFamily, RetryModel};
use bevra_core::{DiscreteModel, SamplingModel};
use bevra_load::{flow_perspective, max_of_s, Geometric, Tabulated};
use bevra_report::figures::{ext_sampling, Quality};
use bevra_utility::AdaptiveExp;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn extensions(c: &mut Criterion) {
    c.bench_function("ext_sampling_fast_preset", |b| {
        b.iter(|| black_box(ext_sampling(Quality::Fast)));
    });
    let load = Tabulated::from_model(&Geometric::from_mean(100.0), 1e-12, 1 << 16);
    let q = flow_perspective(&load);
    c.bench_function("ext_max_of_s_order_stats", |b| {
        b.iter(|| black_box(max_of_s(&q, black_box(10))));
    });
    let sm = SamplingModel::new(DiscreteModel::new(load, AdaptiveExp::paper()), 10);
    c.bench_function("ext_sampling_reservation_eval", |b| {
        b.iter(|| black_box(sm.reservation(black_box(150.0))));
    });
    // Each iteration solves on a fresh family, so it builds every table it
    // probes: a cold solve, not cache hits.
    let model = || {
        RetryModel::new(GeometricFamily::new(1e-10, 1 << 16), AdaptiveExp::paper(), 100.0, 0.1)
    };
    c.bench_function("ext_retry_fixed_point", |b| {
        b.iter(|| black_box(model().evaluate(black_box(150.0)).unwrap()));
    });
    // The seven smallest capacities of the `--fast` ext-retrying grid,
    // 5 … 89.97 (`capacity_grid`'s arithmetic), where θ clamps at 0.99
    // near the top cell 100·k̄.
    let ratio = (1000.0_f64 / 5.0).powf(1.0 / 11.0);
    let overload: Vec<f64> = (0..7).map(|i| 5.0 * ratio.powi(i)).collect();
    c.bench_function("ext_retry_overload_sweep", |b| {
        b.iter(|| {
            let rm = model();
            for &cap in &overload {
                black_box(rm.evaluate(black_box(cap)).unwrap());
            }
        });
    });
}

criterion_group!(benches, extensions);
criterion_main!(benches);
