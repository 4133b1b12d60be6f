//! Bench: simulator throughput and the event-queue ablation.
//!
//! The `sim_million_flow_*` rows are the acceptance bench for the event
//! loop at scale (DESIGN.md §8): one million flow arrivals at k̄ = 5000,
//! measured through the loop on both queue backends (the calendar ring,
//! `QueueKind::Wheel`, and the binary heap), once more on the ring with
//! heavy-tailed holdings whose longest departures pass through the ring's
//! far heap, and through the fleet. CI's sim-scale job gates the
//! ring and fleet rows against the committed baseline via
//! `scripts/perf_smoke.py`.
//!
//! The `_soa` suffix is historical: the flow table was a struct of arrays
//! when the rows were named, and keeps one record per flow now. The rows
//! keep their names because CI's gate and the baseline name them.

use bevra_sim::fleet::{Fleet, FleetConfig};
use bevra_sim::queue::{BinaryHeapQueue, EventQueue};
use bevra_sim::wheel::TimerWheelQueue;
use bevra_sim::{Discipline, HoldingDist, MixedPoisson, QueueKind, SimConfig, Simulation};
use bevra_utility::AdaptiveExp;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

/// One million flow arrivals: k̄ = 5000 concurrent flows for 200 time
/// units. High occupancy is the regime that separates the queues — the
/// heap pays an O(log n) reorder per event, the ring amortized O(1).
fn million_flow_cfg() -> SimConfig {
    SimConfig {
        capacity: 6250.0,
        discipline: Discipline::BestEffort,
        arrivals: MixedPoisson::fixed(5000.0),
        holding: HoldingDist::Exponential { mean: 1.0 },
        utility: Arc::new(AdaptiveExp::paper()),
        warmup: 10.0,
        horizon: 210.0,
        seed: 0x1_000_000,
        max_events: None,
    }
}

fn million_flow_benches(c: &mut Criterion) {
    let cfg = million_flow_cfg();
    // Events per iteration, so ns_per_point in the artifact is ns/event
    // and events/s = 1e9 / ns_per_point.
    let events = Simulation::new(cfg.clone()).run_on(QueueKind::Wheel).events as usize;

    // CI gates the ratio of these two rows, so they run in turn: nine
    // runs of each, whatever the window, rather than one or two runs of
    // each in windows of their own, which saw the machine at two speeds.
    c.bench_interleaved(
        &mut [
            ("sim_million_flow_heap_soa", &mut || {
                black_box(Simulation::new(cfg.clone()).run_on(QueueKind::Heap));
            }),
            ("sim_million_flow_wheel_soa", &mut || {
                black_box(Simulation::new(cfg.clone()).run_on(QueueKind::Wheel));
            }),
        ],
        events,
        9,
    );

    // The same arrivals with Pareto holdings (z = 2.2, mean 1): about one
    // departure in eighty outlives the ring's span of 6.5 mean holdings
    // and waits in its far heap.
    let pareto = SimConfig { holding: HoldingDist::Pareto { mean: 1.0, z: 2.2 }, ..cfg.clone() };
    let pareto_events = Simulation::new(pareto.clone()).run_on(QueueKind::Wheel).events as usize;
    c.bench_function("sim_million_flow_pareto_wheel", |b| {
        b.points(pareto_events);
        b.iter(|| black_box(Simulation::new(pareto.clone()).run_on(QueueKind::Wheel)));
    });

    // The ROADMAP-item-2 scale target: ten million flows in one run,
    // through the fleet (4 lanes of k̄ = 1250 for 2000 time units) at
    // the ambient worker count.
    let fleet = Fleet::new(FleetConfig {
        base: SimConfig {
            arrivals: MixedPoisson::fixed(1250.0),
            capacity: 1562.5,
            horizon: 2010.0,
            ..cfg
        },
        lanes: 4,
    });
    let fleet_events = fleet.run().merged.events;
    c.bench_function("sim_ten_million_flow_fleet", |b| {
        b.points(fleet_events as usize);
        b.iter(|| black_box(fleet.run()));
    });
}

fn sim_benches(c: &mut Criterion) {
    let cfg = SimConfig {
        capacity: 40.0,
        discipline: Discipline::BestEffort,
        arrivals: MixedPoisson::fixed(30.0),
        holding: HoldingDist::Exponential { mean: 1.0 },
        utility: Arc::new(AdaptiveExp::paper()),
        warmup: 10.0,
        horizon: 500.0,
        seed: 1,
        max_events: None,
    };
    c.bench_function("sim_mm_infty_500tu", |b| {
        b.iter(|| black_box(Simulation::new(cfg.clone()).run()));
    });

    // Event-queue ablation (DESIGN.md §4): binary heap vs calendar ring
    // under a hold-model workload. Like the event loop, it schedules ahead
    // of its clock, the time of the last pop: each push lands `u ∈ [0, 1)`
    // after it, never behind the ring's cursor.
    fn churn(q: &mut impl EventQueue, n: u64) -> f64 {
        use bevra_sim::events::{Entry, EventKind};
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let mut now = 0.0;
        let mut t_out = 0.0;
        for seq in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let u = (x >> 11) as f64 / (1u64 << 53) as f64;
            q.push(Entry { time: now + u, seq, kind: EventKind::Arrival });
            if seq % 2 == 1 {
                if let Some(e) = q.pop() {
                    now = e.time;
                    t_out += e.time;
                }
            }
        }
        t_out
    }
    c.bench_function("ablate_eventq_binary_heap", |b| {
        b.iter(|| black_box(churn(&mut BinaryHeapQueue::new(), 4_096)));
    });
    // The ring spans one time unit, every push's lifetime, as the runner
    // sizes a ring to span its events' lifetimes.
    c.bench_function("ablate_eventq_timer_wheel", |b| {
        b.iter(|| black_box(churn(&mut TimerWheelQueue::with_ring(1.0 / 4096.0, 4_096), 4_096)));
    });
}

criterion_group!(benches, sim_benches, million_flow_benches);
criterion_main!(benches);
