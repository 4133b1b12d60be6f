//! Property wall around the calendar-ring event queue.
//!
//! The ring ([`bevra::sim::TimerWheelQueue`]) replaced the binary heap in
//! the simulator's hot loop; the simulator's digests are only trustworthy
//! if the ring's dequeue order is *exactly* the heap's `(time, seq)`
//! total order. The randomized equivalence property here drives both
//! queues through the same push/pop stream — same-timestamp ties,
//! far-future times past the ring's span, pops interleaved with pushes so
//! the cursor advances mid-stream — across several granularities and the
//! smallest and largest ring the simulator builds, and demands
//! bit-identical pop sequences. A deterministic script walks the ring's
//! edge case by case.
//!
//! The simulator holds its one live arrival beside the ring
//! ([`bevra::sim::queue::Pending`]), so the loop pops the earlier of the
//! held arrival and the ring's head. A property and a script check that
//! merge, over the ring and over the heap, against one heap that receives
//! every event, and budget-truncated modulated runs must stop at the same
//! event on either queue.
//!
//! The last part is a mutation test: a deliberately wrong ring (slot index
//! XOR'd by one, the classic off-by-one-slot bug, injected via a
//! `#[doc(hidden)]` hook) must be *caught* by the same property and the
//! counterexample must *shrink* to a minimal witness — a handful of
//! events, not the original random soup. This checks the test wall itself:
//! the property has teeth, and the shrinker makes its failures readable.

use bevra::prelude::*;
use bevra::sim::events::{Entry, EventKind};
use bevra::sim::queue::{BinaryHeapQueue, EventQueue, Pending};
use bevra::sim::wheel::{DEFAULT_GRANULARITY, MAX_SLOTS, MIN_SLOTS};
use bevra::sim::{QueueKind, RetryPolicy, TimerWheelQueue};
use bevra_check::{choice, ensure, int_range, vec_of, Checker};
use std::sync::Arc;

/// Build the event stream from raw codes: `time = code / 8 × scale`, so
/// repeated codes collide to exact same-timestamp ties (seq must break
/// them), and the scale choice stretches the stream from sub-granularity
/// spacings (`1.0`) through spans a few rings long (`1e7`) to far beyond
/// any ring (`1e13` — lands in the far heap).
fn stream(codes: &[(u64, f64)]) -> Vec<Entry> {
    codes
        .iter()
        .enumerate()
        .map(|(i, &(code, scale))| Entry {
            time: code as f64 / 8.0 * scale,
            seq: i as u64,
            kind: match i % 3 {
                0 => EventKind::Arrival,
                1 => EventKind::ModulationSwitch,
                _ => EventKind::Departure { slot: i as u32 },
            },
        })
        .collect()
}

/// Push the stream into both queues, popping every third push so the
/// ring's cursor advances while later (and possibly *earlier-timed*)
/// events are still arriving, then drain; fail on the first divergence in
/// the popped `(time-bits, seq)` sequence or on a length mismatch.
fn equivalent_on(events: &[Entry], granularity: f64, slots: usize) -> Result<(), String> {
    let mut wheel = TimerWheelQueue::with_ring(granularity, slots);
    let mut heap = BinaryHeapQueue::new();
    let mut popped = 0usize;
    let mut check_pop = |wheel: &mut TimerWheelQueue,
                         heap: &mut BinaryHeapQueue|
     -> Result<(), String> {
        let w = wheel.pop();
        let h = heap.pop();
        let key = |e: &Entry| (e.time.to_bits(), e.seq);
        popped += 1;
        ensure(w.as_ref().map(key) == h.as_ref().map(key), || {
            format!(
                "pop #{popped} diverged at granularity {granularity}, {slots} slots: \
                 ring {w:?} vs heap {h:?}"
            )
        })
    };
    for (i, e) in events.iter().enumerate() {
        wheel.push(*e);
        heap.push(*e);
        if i % 3 == 2 {
            check_pop(&mut wheel, &mut heap)?;
        }
    }
    ensure(wheel.len() == heap.len(), || {
        format!("len diverged: ring {} vs heap {}", wheel.len(), heap.len())
    })?;
    while !heap.is_empty() {
        check_pop(&mut wheel, &mut heap)?;
    }
    ensure(wheel.pop().is_none(), || "ring still had events after the heap drained".into())
}

/// The ring's dequeue order equals the heap's on randomized streams with
/// ties, far-future events and interleaved pops — at the production
/// granularity, coarse ones (many ties per bucket), and very fine ones
/// (events scattered around the ring and through the far heap), on the
/// smallest and the largest ring the simulator's runner builds.
#[test]
fn wheel_matches_heap_on_randomized_streams() {
    let strategy = vec_of(
        (int_range(0, 400), choice(vec![1.0f64, 1e7, 1e13])),
        0,
        60,
    );
    Checker::new("wheel_matches_heap_on_randomized_streams").run(&strategy, |codes| {
        let events = stream(codes);
        for granularity in [DEFAULT_GRANULARITY, 8.0, 0.125, 1.56e-5, 1e-6] {
            for slots in [MIN_SLOTS, MAX_SLOTS] {
                equivalent_on(&events, granularity, slots)?;
            }
        }
        Ok(())
    });
}

/// One step of a scripted run: push `(time, seq)`, or pop once.
enum Op {
    Push(f64, u64),
    Pop,
}

/// Run `ops` on a ring of `slots` one-unit buckets and on the heap,
/// then drain both; every pop must agree to the bit.
fn scripted(slots: usize, ops: &[Op]) {
    let mut ring = TimerWheelQueue::with_ring(1.0, slots);
    let mut heap = BinaryHeapQueue::new();
    let key = |e: Option<Entry>| e.map(|e| (e.time.to_bits(), e.seq));
    let mut pops = 0;
    for op in ops.iter().chain((0..=ops.len()).map(|_| &Op::Pop)) {
        match *op {
            Op::Push(time, seq) => {
                let e = Entry { time, seq, kind: EventKind::Arrival };
                ring.push(e);
                heap.push(e);
            }
            Op::Pop => {
                pops += 1;
                let (r, h) = (ring.pop(), heap.pop());
                assert_eq!(key(r), key(h), "pop #{pops} on {slots} slots: ring {r:?} vs heap {h:?}");
            }
        }
        assert_eq!(ring.len(), heap.len(), "len after op #{pops} on {slots} slots");
    }
    assert!(ring.is_empty());
}

/// The ring's edge, case by case, on the smallest ring `with_ring` builds
/// (64 one-unit slots: from cursor tick `c` the ring holds ticks
/// `c + 1 ..= c + 63`, and tick `c + 64` is the first past it) and on the
/// runner's smallest. Debug builds check every tick sum for overflow here.
#[test]
fn ring_edge_cases_pop_like_the_heap() {
    use Op::{Pop, Push};
    for slots in [64, MIN_SLOTS] {
        let edge = slots as f64;
        scripted(
            slots,
            &[
                // The ring's last slot and the first slot past it, pushed
                // far one first.
                Push(edge + 0.25, 0),
                Push(edge - 0.5, 1),
                Push(edge, 2),
                // Equal stamps split across the edge: seq 3 goes far now;
                // the pop moves the cursor to tick 1, which brings its
                // tick into the ring, where seq 5 and the smaller seq 2
                // join it.
                Push(edge + 0.5, 3),
                Push(1.0, 4),
                Pop,
                Push(edge + 0.5, 5),
                Push(edge + 0.5, 2),
                // A far event due in the slot being drained: the cursor
                // takes slot 2 at tick 2, whose next lap (tick 2 + slots)
                // is still past the ring, and an event pushed during the
                // drain joins that lap.
                Push(2.0 + edge, 6),
                Push(2.5, 7),
                Push(2.25, 8),
                Pop,
                Push(2.0 + edge + 0.5, 9),
                Push(2.75, 10),
                Pop,
                // A push before the cursor.
                Push(0.5, 11),
                Pop,
                Pop,
            ],
        );
        // The first tick past the ring maps to the cursor's own slot, so
        // two events on it wait in the far heap; a push early in the ring
        // while they drain must still pop first.
        scripted(slots, &[Push(edge + 0.5, 0), Push(edge + 0.75, 1), Pop, Push(1.0, 2), Pop]);
        // Only far events left: the cursor jumps to the earliest, which
        // shares its tick with a later one and precedes one a lap on.
        scripted(
            slots,
            &[Push(5.0 * edge + 0.5, 0), Push(5.0 * edge + 0.25, 1), Push(6.0 * edge, 2), Pop],
        );
    }
    // `f64::MAX`, `+∞` and `+NaN` tick to `u64::MAX`, `-NaN` to 0. The
    // jump to that far group parks the cursor at `u64::MAX`; every later
    // pop scans the ring from the slot after it, and every later push
    // lands before the cursor.
    scripted(
        64,
        &[
            Push(f64::INFINITY, 0),
            Push(f64::NAN, 1),
            Push(-f64::NAN, 2),
            Push(f64::MAX, 3),
            Push(3.0, 4),
            Pop,
            Pop,
            Pop,
            Pop,
            Pop,
            Push(7.0, 5),
            Push(f64::INFINITY, 6),
            Push(-f64::NAN, 7),
            Pop,
            Pop,
        ],
    );
}

/// One step on the simulator's pending set: push an event into the queue,
/// hold a new live arrival (moving the held one into the queue), or pop.
/// Each step's index is its seq, so seqs rise in step order, as the
/// runner stamps them from one counter.
#[derive(Debug, Clone, Copy)]
enum Step {
    Push(f64),
    Hold(f64),
    Pop,
}

/// Run `steps`, then drain, on the held arrival plus a ring of `slots`
/// buckets `granularity` wide, on the held arrival plus a heap, and on one
/// heap that receives every push and every hold. Each pop must return the
/// one heap's entry to the bit, and call it live exactly when it is the
/// latest hold.
fn pending_matches_one_heap(steps: &[Step], granularity: f64, slots: usize) -> Result<(), String> {
    let mut ring = Pending::new(TimerWheelQueue::with_ring(granularity, slots));
    let mut heap = Pending::new(BinaryHeapQueue::new());
    let mut reference = BinaryHeapQueue::new();
    let mut live_seq = None;
    let drain = (0..=steps.len()).map(|_| &Step::Pop);
    for (seq, step) in (0u64..).zip(steps.iter().chain(drain)) {
        match *step {
            Step::Push(time) => {
                let e = Entry { time, seq, kind: EventKind::Departure { slot: 0 } };
                ring.push(e);
                heap.push(e);
                reference.push(e);
            }
            Step::Hold(time) => {
                let e = Entry { time, seq, kind: EventKind::Arrival };
                ring.hold(e);
                heap.hold(e);
                reference.push(e);
                live_seq = Some(seq);
            }
            Step::Pop => {
                let want =
                    reference.pop().map(|e| (e.time.to_bits(), e.seq, Some(e.seq) == live_seq));
                for (name, got) in [("ring", ring.pop()), ("heap", heap.pop())] {
                    let got = got.map(|(e, live)| (e.time.to_bits(), e.seq, live));
                    ensure(got == want, || {
                        format!(
                            "step {seq}: the held arrival plus the {name} popped {got:?}, \
                             one heap {want:?} (granularity {granularity}, {slots} slots)"
                        )
                    })?;
                }
            }
        }
    }
    Ok(())
}

/// The held arrival plus either queue pops exactly one heap's sequence on
/// randomized step streams: few distinct stamps, so holds tie with queued
/// events in both seq orders, and holds that demote a pending arrival
/// ahead of, behind or level with the new one, on rings that spill into
/// their far heap.
#[test]
fn held_arrival_beside_either_queue_pops_like_one_heap() {
    let strategy = vec_of((int_range(0, 3), int_range(0, 40), choice(vec![1.0f64, 1e7])), 0, 60);
    Checker::new("held_arrival_beside_either_queue_pops_like_one_heap").run(&strategy, |raw| {
        let steps: Vec<Step> = raw
            .iter()
            .map(|&(op, code, scale)| match op {
                0 => Step::Push(code as f64 / 8.0 * scale),
                1 => Step::Hold(code as f64 / 8.0 * scale),
                _ => Step::Pop,
            })
            .collect();
        for granularity in [DEFAULT_GRANULARITY, 0.125, 1e-6] {
            for slots in [64, MIN_SLOTS] {
                pending_matches_one_heap(&steps, granularity, slots)?;
            }
        }
        Ok(())
    });
}

/// The merge's ties and demotions, case by case.
#[test]
fn held_arrival_ties_and_demotions_pop_like_one_heap() {
    use Step::{Hold, Pop, Push};
    let mut steps = vec![
        // Equal stamps: the queued event first in seq (0 before 1), then
        // the held arrival (4 before 5).
        Push(5.0),
        Hold(5.0),
        Pop,
        Pop,
        Hold(6.0),
        Push(6.0),
        Pop,
        Pop,
        // A switch demotes the held arrival 8: it pops in its place, not
        // live, before the queued 9 and the new live 10.
        Hold(8.0),
        Push(9.0),
        Hold(10.0),
        Pop,
        Pop,
        Pop,
        // Demoted behind an earlier new arrival (14 by 15), and level with
        // one (15 by 16): 15, 16, 14.
        Hold(12.0),
        Hold(11.0),
        Hold(11.0),
        Pop,
        Pop,
        Pop,
        // Popping the held 21 peeks at 20, so the ring's cursor runs ahead
        // to 20's bucket; 23, pushed after, is due before it: 21, 23, 20.
        Push(30.0),
        Hold(20.0),
        Pop,
        Push(25.0),
        Pop,
        Pop,
        // A long run-ahead: the held 40 pops first, the peek having taken
        // 1,000's bucket, and 600 pushes due between them, with tied
        // stamps, all pop before 1,000.
        Push(1_000.0),
        Hold(40.0),
        Pop,
    ];
    steps.extend((0..600).map(|k| Push(41.0 + f64::from(k % 100) / 8.0)));
    for (granularity, slots) in [(1.0, 64), (DEFAULT_GRANULARITY, MIN_SLOTS)] {
        pending_matches_one_heap(&steps, granularity, slots).unwrap_or_else(|e| panic!("{e}"));
    }
}

/// A modulated run cut by its event budget stops at the same event, with
/// the same bits, on either queue: switches demote held arrivals all
/// through the run, and the cut can fall on a demoted one.
#[test]
fn budget_truncated_modulated_runs_match_across_queues() {
    let strategy = (int_range(0, 3_000), int_range(0, u64::from(u32::MAX)));
    Checker::new("budget_truncated_modulated_runs_match_across_queues").run(
        &strategy,
        |&(budget, seed)| {
            let sim = Simulation::new(SimConfig {
                capacity: 25.0,
                discipline: Discipline::Reservation {
                    k_max: 22,
                    retry: Some(RetryPolicy::new(6, 2.0, 0.05)),
                },
                // Switches as frequent as arrivals.
                arrivals: MixedPoisson::new(20.0, RateMixing::Exponential, 0.05),
                holding: HoldingDist::Exponential { mean: 1.0 },
                utility: Arc::new(AdaptiveExp::paper()),
                warmup: 5.0,
                horizon: 1_000.0,
                seed,
                max_events: Some(budget),
            });
            let (heap, ring) = (sim.run_on(QueueKind::Heap), sim.run_on(QueueKind::Wheel));
            ensure(
                (heap.events, heap.digest()) == (budget, ring.digest()) && ring.events == budget,
                || {
                    format!(
                        "heap stopped after {} events with digest {:#x}, ring after {} with {:#x}",
                        heap.events,
                        heap.digest(),
                        ring.events,
                        ring.digest()
                    )
                },
            )
        },
    );
}

/// Mutation test: with the ring's slot index XOR'd by 1 the property must
/// fail, and the shrinker must reduce the counterexample to a minimal
/// witness. Two events in adjacent buckets are swapped by the nudge, so
/// the minimal witness is tiny; accepting up to three events
/// leaves slack for shrink-step budgets without admitting an unshrunk
/// original. A wall that cannot detect a seeded bug, or that reports it
/// as forty random events, would be dead weight — this pins both halves.
#[test]
fn seeded_off_by_one_slot_is_falsified_and_shrunk_to_minimal_witness() {
    // Granularity 1/8 makes `tick == code`, so distinct codes land in
    // distinct buckets of the smallest runner ring and the nudge has
    // somewhere to bite. The failure is the expected outcome, so it is
    // not written to the failure journal.
    let record = Checker::new("wheel_mutation_off_by_one")
        .cases(64)
        .seed(0xB16_B06)
        .falsify(&vec_of(int_range(0, 200), 0, 40), |codes| {
            let pairs: Vec<(u64, f64)> = codes.iter().map(|&c| (c, 1.0)).collect();
            let events = stream(&pairs);
            let mut wheel = TimerWheelQueue::with_granularity(0.125).with_slot_nudge(1);
            let mut heap = BinaryHeapQueue::new();
            for e in &events {
                wheel.push(*e);
                heap.push(*e);
            }
            let mut step = 0usize;
            while let Some(h) = heap.pop() {
                let w = wheel.pop();
                step += 1;
                ensure(w.map(|e| (e.time.to_bits(), e.seq)) == Some((h.time.to_bits(), h.seq)), || {
                    format!("pop #{step}: nudged ring {w:?} vs heap {h:?}")
                })?;
            }
            Ok(())
        })
        .expect("a ring with an off-by-one bucket index must be falsified");

    // The shrunk witness is the `Debug` rendering of the code vector.
    let witness = &record.shrunk;
    let inner = witness
        .trim()
        .strip_prefix('[')
        .and_then(|w| w.strip_suffix(']'))
        .unwrap_or_else(|| panic!("witness is not a vector literal: {witness}"));
    let len =
        if inner.trim().is_empty() { 0 } else { inner.split(',').count() };
    assert!(
        (1..=3).contains(&len),
        "shrinker should reduce the off-by-one witness to ≤3 events, got {len}: {witness}"
    );
}

/// Exotic-but-legal timestamps survive a round trip in (time, seq) order:
/// negative times, `-0.0` vs `+0.0` (which `total_cmp` orders as
/// `-0.0 < +0.0` despite comparing `==`), and both infinities.
/// The simulator never schedules these, but the queue trait makes no such
/// promise, and the differential wall should hold on the full domain.
#[test]
fn wheel_handles_exotic_timestamps_like_the_heap() {
    let times = [
        f64::NEG_INFINITY,
        -1.5e300,
        -3.0,
        -0.0,
        0.0,
        5e-324,
        1.0,
        1.0,
        1e308,
        f64::INFINITY,
    ];
    let events: Vec<Entry> = times
        .iter()
        .enumerate()
        .map(|(i, &t)| Entry { time: t, seq: (times.len() - i) as u64, kind: EventKind::Arrival })
        .collect();
    for granularity in [DEFAULT_GRANULARITY, 1e-9] {
        for slots in [MIN_SLOTS, MAX_SLOTS] {
            equivalent_on(&events, granularity, slots).unwrap_or_else(|e| panic!("{e}"));
        }
    }
}
