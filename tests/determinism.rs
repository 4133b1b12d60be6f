//! Bitwise determinism of the simulator batch path.
//!
//! `Simulation::run_batch` distributes whole runs across the engine's
//! worker pool; each run's event loop is single-threaded and seeded, so
//! the *digest* of every report — every counter and the bit pattern of
//! every accumulated float, census included — must be identical across
//! repeat batches and across worker counts.
//!
//! This file deliberately holds a single `#[test]`: it mutates the
//! process-wide `BEVRA_THREADS` variable, and a second concurrent test in
//! the same binary would race it.

use bevra::prelude::*;
use bevra::sim::SimReport;
use std::sync::Arc;

fn batch_configs() -> Vec<SimConfig> {
    let base = |capacity: f64, discipline: Discipline, mixing: RateMixing, seed: u64| SimConfig {
        capacity,
        discipline,
        arrivals: MixedPoisson::new(20.0, mixing, 40.0),
        holding: HoldingDist::Exponential { mean: 1.0 },
        utility: Arc::new(AdaptiveExp::paper()),
        warmup: 50.0,
        horizon: 1500.0,
        seed,
        max_events: None,
    };
    vec![
        base(25.0, Discipline::BestEffort, RateMixing::Fixed, 101),
        base(25.0, Discipline::Reservation { k_max: 22, retry: None }, RateMixing::Fixed, 102),
        base(40.0, Discipline::BestEffort, RateMixing::Exponential, 103),
        SimConfig {
            utility: Arc::new(Rigid::unit()),
            ..base(18.0, Discipline::BestEffort, RateMixing::Fixed, 104)
        },
        base(60.0, Discipline::BestEffort, RateMixing::Pareto { z: 2.3, cap: 1e4 }, 105),
    ]
}

/// One batch under the ambient `BEVRA_THREADS`, returning the per-report
/// digests.
fn run_once(cfgs: &[SimConfig]) -> Vec<u64> {
    Simulation::run_batch(cfgs).iter().map(SimReport::digest).collect()
}

#[test]
fn run_batch_is_bitwise_deterministic_across_thread_counts() {
    let cfgs = batch_configs();

    // Same seed, same thread count: digests equal.
    std::env::set_var("BEVRA_THREADS", "1");
    let serial_a = run_once(&cfgs);
    let serial_b = run_once(&cfgs);
    assert_eq!(serial_a, serial_b, "two serial batches with equal seeds must match bitwise");

    // Same seed, five workers: still bitwise-identical to the serial
    // batch, report for report.
    std::env::set_var("BEVRA_THREADS", "5");
    let par_a = run_once(&cfgs);
    let par_b = run_once(&cfgs);
    std::env::set_var("BEVRA_THREADS", "1");
    assert_eq!(par_a, par_b, "two 5-thread batches with equal seeds must match bitwise");
    assert_eq!(serial_a, par_a, "worker count must not change any report bit");

    // Sanity: distinct configurations do produce distinct digests, so the
    // equalities above are not comparing constants.
    let mut unique = serial_a.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), cfgs.len(), "digests must differ across configs: {serial_a:?}");

    fleet_digest_is_worker_count_invariant_at_scale();
}

/// Fleet half of the determinism wall (called from the single `#[test]`
/// above): a ~1M-flow fleet must produce the *same* merged digest and the
/// same per-lane digests for every worker count and queue backend, and
/// repeat runs must replay bitwise. The config deliberately spans four
/// lanes so worker counts {1, 2, 5, 16} exercise fewer workers than
/// lanes, and more (the pool never starts more workers than it has
/// lanes, so 5 and 16 both run four).
fn fleet_digest_is_worker_count_invariant_at_scale() {
    use bevra::sim::{Fleet, FleetConfig, QueueKind};

    // Four lanes × (rate 2500 × horizon 100) ≈ 1M flow arrivals ≈ 2.1M
    // events per fleet run — big enough that a lost event or a reordered
    // merge cannot hide, small enough for a debug-build tier-1 budget.
    let fleet = Fleet::new(FleetConfig {
        base: SimConfig {
            capacity: 3000.0,
            discipline: Discipline::BestEffort,
            arrivals: MixedPoisson::new(2500.0, RateMixing::Fixed, 5000.0),
            holding: HoldingDist::Exponential { mean: 1.0 },
            utility: Arc::new(AdaptiveExp::paper()),
            warmup: 5.0,
            horizon: 100.0,
            seed: 0xF1EE7,
            max_events: None,
        },
        lanes: 4,
    });
    let reference = fleet.run_on(1, QueueKind::Wheel);
    assert!(reference.health.all_ok(), "clean fleet run must be healthy");
    assert!(reference.merged.events > 2_000_000, "scale floor: {} events", reference.merged.events);
    assert_eq!(reference.lane_digests.len(), 4);
    // Committed pin (CI's sim-scale job runs this at scale in release):
    // the merged million-flow digest is a constant of the codebase, not
    // merely self-consistent across worker counts.
    assert_eq!(
        reference.merged.digest(),
        0xBE25_1F1D_BB9E_A0D0,
        "million-flow merged digest drifted from the committed pin; the pin holds only where \
         glibc 2.36 picks its FMA/AVX2 math variants, so on another libm or CPU suspect the \
         platform first (DESIGN.md §8.1)"
    );
    for (workers, queue) in
        [(1, QueueKind::Heap), (2, QueueKind::Wheel), (5, QueueKind::Wheel), (16, QueueKind::Wheel)]
    {
        let report = fleet.run_on(workers, queue);
        assert_eq!(
            report.merged.digest(),
            reference.merged.digest(),
            "merged digest changed on {workers} worker(s) on {queue:?}"
        );
        assert_eq!(
            report.lane_digests, reference.lane_digests,
            "per-lane digests changed on {workers} worker(s) on {queue:?}"
        );
    }
    // Repeat at a mid worker count: bitwise replay, not merely agreement.
    let again = fleet.run_on(5, QueueKind::Wheel);
    assert_eq!(again.merged.digest(), reference.merged.digest(), "5-worker repeat did not replay");
}
