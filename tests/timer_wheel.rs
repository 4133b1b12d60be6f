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
//! The last part is a mutation test: a deliberately wrong ring (slot index
//! XOR'd by one, the classic off-by-one-slot bug, injected via a
//! `#[doc(hidden)]` hook) must be *caught* by the same property and the
//! counterexample must *shrink* to a minimal witness — a handful of
//! events, not the original random soup. This checks the test wall itself:
//! the property has teeth, and the shrinker makes its failures readable.

use bevra::sim::events::{Entry, EventKind};
use bevra::sim::queue::{BinaryHeapQueue, EventQueue};
use bevra::sim::wheel::{DEFAULT_GRANULARITY, MAX_SLOTS, MIN_SLOTS};
use bevra::sim::TimerWheelQueue;
use bevra_check::{choice, ensure, int_range, vec_of, Checker};

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

/// Mutation test: with the ring's slot index XOR'd by 1 the property must
/// fail, and the shrinker must reduce the counterexample to a minimal
/// witness. Two events in adjacent buckets are swapped by the nudge, so
/// the minimal witness is tiny; accepting up to three events
/// leaves slack for shrink-step budgets without admitting an unshrunk
/// original. A wall that cannot detect a seeded bug, or that reports it
/// as forty random events, would be dead weight — this pins both halves.
#[test]
fn seeded_off_by_one_slot_is_falsified_and_shrunk_to_minimal_witness() {
    let panic_payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // Granularity 1/8 makes `tick == code`, so distinct codes land in
        // distinct buckets of the smallest runner ring and the nudge has
        // somewhere to bite.
        Checker::new("wheel_mutation_off_by_one").cases(64).seed(0xB16_B06).run(
            &vec_of(int_range(0, 200), 0, 40),
            |codes| {
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
            },
        );
    }))
    .expect_err("a ring with an off-by-one bucket index must be falsified");

    let message = panic_payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic_payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .expect("checker panics carry a string payload");
    assert!(
        message.contains("falsified"),
        "panic was not a property falsification: {message}"
    );

    // The shrunk witness is printed as `shrunk (...): [codes]`; extract the
    // bracketed vector and count its elements.
    let witness = message
        .split("eval(s)): ")
        .nth(1)
        .and_then(|rest| rest.split("\n  error:").next())
        .unwrap_or_else(|| panic!("no shrunk witness in panic message: {message}"));
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
