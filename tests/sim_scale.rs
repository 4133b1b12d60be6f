//! Golden-digest wall for the rearchitected event loop.
//!
//! The simulator's hot loop was rewritten — binary heap → timer wheel,
//! boxed per-flow state → dense flow records [`bevra::sim::flows`], O(active)
//! max-population scans → a monotone [`bevra::sim::flows::PeakTracker`] —
//! with a bitwise-compatibility contract: *every* report bit, census
//! included, must equal the pre-refactor loop's. This file pins that
//! contract two ways on a ten-config corpus spanning every discipline,
//! mixing family, holding distribution, retry policy, and the budget
//! watchdog:
//!
//! 1. against **committed golden digests** captured from the pre-refactor
//!    loop, and
//! 2. the loop on the **heap** vs the **wheel** queue (queue choice is an
//!    implementation detail, never an observable; `tests/timer_wheel.rs`
//!    checks the same at several wheel granularities).
//!
//! Any future change that alters a digest here is a *semantic* change to
//! the simulator and must re-pin deliberately, with the old and new
//! digests in the commit message.

use bevra::prelude::*;
use bevra::sim::{QueueKind, RetryPolicy, SimReport};
use std::sync::Arc;

/// Golden `SimReport::digest()` values captured from the pre-refactor
/// event loop (commit `bee8d8d`) on the corpus below, alongside each run's
/// completed-flow count as a cheap second witness. corpus[5], the one
/// config whose flows retry more than once, was re-pinned from
/// `0x7718EDADC9111A41` when a retry began carrying its flow's first
/// arrival instead of the previous attempt's time: flows that straddle
/// warm-up are now measured on every attempt or on none.
const GOLDEN: [(u64, u64); 10] = [
    (0x7CB832531D8DA00B, 30042),
    (0xDF40388A535875BC, 26748),
    (0x1316958BBEAA06E9, 27165),
    (0x02778A634F7C167A, 29741),
    (0x0AE85D16A0820773, 120460),
    (0xE2ED649675DE387F, 29801),
    (0xAE173DE88E5BC624, 25589),
    (0xF5A0B358E49BC923, 30335),
    (0x0F16C20CEAB5E51B, 28599),
    (0x8A216240CCC906E3, 8990),
];

/// The pinned corpus: one config per behavioral regime of the simulator.
fn corpus() -> Vec<SimConfig> {
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
    let rp = RetryPolicy::new(6, 2.0, 0.05);
    vec![
        base(25.0, Discipline::BestEffort, RateMixing::Fixed, 101),
        base(25.0, Discipline::Reservation { k_max: 22, retry: None }, RateMixing::Fixed, 102),
        base(40.0, Discipline::BestEffort, RateMixing::Exponential, 103),
        SimConfig {
            utility: Arc::new(Rigid::unit()),
            ..base(18.0, Discipline::BestEffort, RateMixing::Fixed, 104)
        },
        base(60.0, Discipline::BestEffort, RateMixing::Pareto { z: 2.3, cap: 1e4 }, 105),
        base(25.0, Discipline::Reservation { k_max: 22, retry: Some(rp) }, RateMixing::Fixed, 106),
        base(
            20.0,
            Discipline::MeasurementBased { target_share: 1.0, ewma_weight: 0.1, retry: None },
            RateMixing::Fixed,
            107,
        ),
        SimConfig {
            holding: HoldingDist::Pareto { mean: 1.0, z: 2.5 },
            ..base(30.0, Discipline::BestEffort, RateMixing::Fixed, 108)
        },
        SimConfig {
            holding: HoldingDist::Deterministic { mean: 1.0 },
            ..base(30.0, Discipline::Reservation { k_max: 25, retry: None }, RateMixing::Fixed, 109)
        },
        SimConfig {
            max_events: Some(20_000),
            ..base(40.0, Discipline::BestEffort, RateMixing::Fixed, 110)
        },
    ]
}

fn summary(r: &SimReport) -> String {
    format!(
        "digest=0x{:016X} completed={} lost={} blocked={} retries={} events={}",
        r.digest(),
        r.completed,
        r.lost,
        r.blocked_attempts,
        r.retries,
        r.events
    )
}

/// What a failed pin says besides the digests.
const PLATFORM: &str = "the pins hold only where glibc 2.36 picks its FMA/AVX2 math variants, \
                        so on another libm or CPU suspect the platform first (DESIGN.md §8.1)";

/// The loop reproduces the committed pre-refactor digests exactly, on
/// both queue backends.
#[test]
fn corpus_digests_match_golden_on_all_implementations() {
    for (i, cfg) in corpus().into_iter().enumerate() {
        let (digest, completed) = GOLDEN[i];
        let wheel = Simulation::new(cfg.clone()).run_on(QueueKind::Wheel);
        let heap = Simulation::new(cfg.clone()).run_on(QueueKind::Heap);
        assert_eq!(
            wheel.digest(),
            digest,
            "corpus[{i}]: wheel loop drifted from golden — {}; {PLATFORM}",
            summary(&wheel)
        );
        assert_eq!(
            wheel.completed, completed,
            "corpus[{i}]: completed-count witness drifted; {PLATFORM}"
        );
        assert_eq!(
            heap.digest(),
            digest,
            "corpus[{i}]: heap-backed new loop drifted from golden — {}; {PLATFORM}",
            summary(&heap)
        );
        // The digest folds the census and welfare accumulators; also pin
        // the raw event count (excluded from the digest by design).
        assert_eq!(wheel.events, heap.events, "corpus[{i}]: event count diverged across queues");
    }
}

/// The budget watchdog truncates identically on both queues: same event
/// count, same partial census, same digest.
#[test]
fn budget_truncation_is_implementation_independent() {
    for budget in [1_000u64, 7_777] {
        let mut cfg = corpus().swap_remove(2);
        cfg.max_events = Some(budget);
        let wheel = Simulation::new(cfg.clone()).run_on(QueueKind::Wheel);
        let heap = Simulation::new(cfg.clone()).run_on(QueueKind::Heap);
        assert_eq!(wheel.events, budget, "watchdog must stop exactly at the budget");
        assert_eq!(wheel.digest(), heap.digest(), "budget {budget}: queues diverged");
        assert_eq!(heap.events, budget, "budget {budget}: event counts diverged");
    }
}
