//! Calendar-ring event queue — the production pending-event set.
//!
//! A binary heap pays `O(log n)` pointer-chasing comparisons per push *and*
//! per pop; at a million pending departures every operation walks ~20 cache
//! lines. The ring instead hashes each event by its time into one of a
//! power-of-two number of `granularity`-wide buckets spanning a window
//! after the cursor; events past it wait in a small binary heap and move
//! into the ring once the cursor comes within the span. Push is O(1) and
//! places each event once. Pop sorts the *current* bucket lazily (a handful
//! of entries under a well-chosen granularity) and drains it back-to-front,
//! so the amortized per-event cost is a few cache-resident moves — the
//! classic calendar-queue result. A peek takes the next bucket just as a
//! pop does, so the cursor can run ahead of a caller that holds earlier
//! events of its own; what it pushes before the cursor waits in a small
//! heap, `early`, with the bucket it was pushed before.
//!
//! Every bucket is an index-linked list threaded through one slab of nodes
//! with a free list, so steady state allocates nothing per bucket. The ring
//! itself is one `u32` list head per slot plus an occupancy bitmap, so the
//! cursor skips empty slots 64 at a time.
//!
//! # Exact order preservation
//!
//! The dequeue order is **bitwise-identical** to
//! [`BinaryHeapQueue`](crate::queue::BinaryHeapQueue)'s:
//! strictly ascending `(time, seq)` over the pending set, with
//! [`f64::total_cmp`] time semantics. Bucketing is monotone in time
//! (`t₁ ≤ t₂ ⇒ tick(t₁) ≤ tick(t₂)`), the ring holds only the ticks of one
//! span after the cursor (so each slot holds a single tick), buckets are
//! visited in ascending tick order, and every bucket is sorted by
//! `(time, seq)` before draining — so the ring is a drop-in replacement
//! whose only observable difference is speed. `tests/timer_wheel.rs`
//! property-checks this equivalence over randomized streams (same-timestamp
//! ties, events past the ring's span, interleaved push/pop) with shrinking,
//! walks the ring's edge case by case, and mutation-tests the harness by
//! nudging the slot hash off by one.
//!
//! # Time domain
//!
//! Times may be any `f64`; negative and `+∞` stamps are routed to the
//! current bucket or `early` / the far heap and still pop in total order,
//! as do `NaN`s (a positive one last, a negative one first, as
//! `total_cmp` orders them). The simulator checks finiteness at every push
//! site, so it pushes none.

use crate::events::{Entry, EventKind};
use crate::queue::EventQueue;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Default bucket width, in simulated time units. Callers that know their
/// event density should size the bucket near the mean event spacing
/// instead (see [`TimerWheelQueue::with_granularity`]).
pub const DEFAULT_GRANULARITY: f64 = 1.0 / 64.0;

/// Fewest slots the runner gives a ring; the ring of [`TimerWheelQueue::with_granularity`].
pub const MIN_SLOTS: usize = 1 << 10;

/// Most slots a ring has: 512 KiB of list heads.
pub const MAX_SLOTS: usize = 1 << 17;

/// End of a bucket's list and of the free list. Slab index 0 is a sentinel
/// that holds no event, so a fresh ring is zeroed memory.
const NIL: u32 = 0;

/// Ring size for events pending `mean_holding` time units on average, in
/// `granularity`-wide buckets: the slots spanning eight mean holdings
/// (`16·λ·h` at the runner's `granularity = 0.5/λ`) rounded down to a power
/// of two within [`MIN_SLOTS`]`..=`[`MAX_SLOTS`]. Four to eight holdings
/// place nearly every departure once; above the floor, the list heads take
/// at most 1.6 times the bytes of the expected pending set.
#[must_use]
pub(crate) fn ring_slots(granularity: f64, mean_holding: f64) -> usize {
    // `as` saturates: NaN and negatives to 0, overflow to usize::MAX.
    let span = (8.0 * mean_holding / granularity) as usize;
    1 << span.clamp(MIN_SLOTS, MAX_SLOTS).ilog2()
}

/// A slab node: a pending event and the next node of its list.
#[derive(Clone, Copy)]
struct Node {
    entry: Entry,
    next: u32,
}

/// Calendar-ring implementation of [`EventQueue`].
///
/// See the [module docs](self) for the design; construct with
/// [`TimerWheelQueue::new`] (default granularity),
/// [`TimerWheelQueue::with_granularity`] or [`TimerWheelQueue::with_ring`].
pub struct TimerWheelQueue {
    /// Reciprocal of the bucket width (`tick = time · inv_g`).
    inv_g: f64,
    /// Tick of the bucket currently being drained.
    cur: u64,
    /// The current bucket: the events of tick `cur`, sorted descending by
    /// `(time, seq)`, so pop-min is a pop from the back.
    current: Vec<Entry>,
    /// Events pushed at or before `cur`, and `current`'s own, moved here
    /// by the first of them, so `current` is empty while this is not. A
    /// peek moves the cursor to the next bucket before the caller's clock
    /// gets there, so pushes can land before it: rarely in steady state,
    /// by the thousand while a run fills up.
    early: BinaryHeap<Reverse<Entry>>,
    /// Slots − 1. The ring holds the ticks `cur + 1 ..= cur + mask`, each
    /// in slot `tick & mask`.
    mask: u64,
    /// First slab node of each slot's bucket, or `NIL`.
    heads: Vec<u32>,
    /// One bit per slot, set while its bucket is non-empty.
    occupied: Vec<u64>,
    /// The sentinel, then the nodes of every bucket; `free` heads the list
    /// of unused ones.
    nodes: Vec<Node>,
    free: u32,
    /// Events whose tick is past the ring, at least `cur + mask + 1`.
    far: BinaryHeap<Reverse<Entry>>,
    len: usize,
    /// Test-only mutation hook: XOR-perturbs the slot hash.
    slot_nudge: u64,
}

impl Default for TimerWheelQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl TimerWheelQueue {
    /// New queue with [`DEFAULT_GRANULARITY`] and [`MIN_SLOTS`] slots.
    #[must_use]
    pub fn new() -> Self {
        Self::with_granularity(DEFAULT_GRANULARITY)
    }

    /// New queue of [`MIN_SLOTS`] buckets, each `granularity` time units
    /// wide. Amortized cost is minimized when the bucket width is near the
    /// mean spacing between pending events; any positive value is
    /// *correct*.
    ///
    /// # Panics
    ///
    /// Panics unless `granularity` is positive and finite.
    #[must_use]
    pub fn with_granularity(granularity: f64) -> Self {
        Self::with_ring(granularity, MIN_SLOTS)
    }

    /// New queue of `slots` buckets (rounded up to a power of two within
    /// `64..=`[`MAX_SLOTS`]), each `granularity` time units wide; the
    /// simulator's runner sizes it from the mean holding time. A ring that
    /// spans most events' lifetimes places each event once; any size is
    /// *correct*.
    ///
    /// # Panics
    ///
    /// Panics unless `granularity` is positive and finite.
    #[must_use]
    pub fn with_ring(granularity: f64, slots: usize) -> Self {
        assert!(
            granularity > 0.0 && granularity.is_finite(),
            "wheel granularity must be positive and finite, got {granularity}"
        );
        let slots = slots.clamp(64, MAX_SLOTS).next_power_of_two();
        let sentinel = Entry { time: 0.0, seq: 0, kind: EventKind::Arrival };
        Self {
            inv_g: granularity.recip(),
            cur: 0,
            current: Vec::new(),
            early: BinaryHeap::new(),
            mask: slots as u64 - 1,
            heads: vec![NIL; slots],
            occupied: vec![0; slots / 64],
            nodes: vec![Node { entry: sentinel, next: NIL }],
            free: NIL,
            far: BinaryHeap::new(),
            len: 0,
            slot_nudge: 0,
        }
    }

    /// Mutation-test hook: XOR the slot index with `nudge`, mis-bucketing
    /// events without touching anything else. The differential property
    /// suite uses this to prove it *would* catch a bucket-indexing bug;
    /// never use it for real work.
    #[doc(hidden)]
    #[must_use]
    pub fn with_slot_nudge(mut self, nudge: u64) -> Self {
        self.slot_nudge = nudge & self.mask;
        self
    }

    /// The bucket index of time `t`: monotone non-decreasing in `t` under
    /// `total_cmp`, saturating at the extremes (`t ≤ 0` and `-NaN` → 0,
    /// `+∞` and `+NaN` → `u64::MAX`).
    fn tick(&self, t: f64) -> u64 {
        if t.is_nan() && t.is_sign_positive() {
            return u64::MAX;
        }
        // `as` casts saturate: negatives and NaN to 0, overflow/+∞ to MAX.
        (t * self.inv_g) as u64
    }

    /// Route one entry to `early`, a ring slot, or the far heap.
    #[inline]
    fn place(&mut self, e: Entry) {
        let tick = self.tick(e.time);
        if tick <= self.cur {
            self.early.extend(self.current.drain(..).map(Reverse));
            self.early.push(Reverse(e));
        } else if tick - self.cur > self.mask {
            self.far.push(Reverse(e));
        } else {
            let slot = ((tick & self.mask) ^ self.slot_nudge) as usize;
            let node = Node { entry: e, next: self.heads[slot] };
            let index = if self.free == NIL {
                let index = u32::try_from(self.nodes.len()).unwrap_or(NIL);
                assert!(index != NIL, "the ring holds fewer than u32::MAX events");
                self.nodes.push(node);
                index
            } else {
                let index = self.free;
                self.free = self.nodes[index as usize].next;
                self.nodes[index as usize] = node;
                index
            };
            self.heads[slot] = index;
            self.occupied[slot >> 6] |= 1u64 << (slot & 63);
        }
    }

    /// The first occupied slot after the cursor's in ring order (the
    /// cursor's own slot last), or `None` when the ring is empty.
    fn next_occupied(&self) -> Option<usize> {
        let words = self.occupied.len();
        let from = (self.cur.wrapping_add(1) & self.mask) as usize;
        let mut word = from >> 6;
        let mut bits = self.occupied[word] & (!0u64 << (from & 63));
        // The first word's high bits, every other word, then the first
        // word whole.
        for _ in 0..=words {
            if bits != 0 {
                return Some((word << 6) + bits.trailing_zeros() as usize);
            }
            word = (word + 1) & (words - 1);
            bits = self.occupied[word];
        }
        None
    }

    /// Move `slot`'s bucket into `current` and its nodes onto the free list.
    fn take(&mut self, slot: usize) {
        self.occupied[slot >> 6] &= !(1u64 << (slot & 63));
        let mut index = std::mem::replace(&mut self.heads[slot], NIL);
        while index != NIL {
            let node = &mut self.nodes[index as usize];
            self.current.push(node.entry);
            let next = std::mem::replace(&mut node.next, self.free);
            self.free = index;
            index = next;
        }
    }

    /// Refill the empty `current` with the earliest pending bucket, sorted.
    /// Returns `false` when the queue is exhausted.
    fn advance(&mut self) -> bool {
        debug_assert!(self.current.is_empty() && self.early.is_empty());
        if let Some(slot) = self.next_occupied() {
            // The ring's earliest tick lies `slot`'s distance past the cursor.
            let ahead = (slot as u64).wrapping_sub(self.cur) & self.mask;
            self.cur = self.cur.wrapping_add(ahead);
            self.take(slot);
        } else if let Some(Reverse(first)) = self.far.peek() {
            // Only far events remain: jump to the earliest.
            self.cur = self.tick(first.time);
        } else {
            return false;
        }
        // Far events now within the span move into the ring, or into
        // `current` after a jump. Their ticks lie past the old cursor's
        // span, so none is due before the bucket just taken.
        while let Some(&Reverse(e)) = self.far.peek() {
            let ahead = self.tick(e.time).wrapping_sub(self.cur);
            if ahead > self.mask {
                break;
            }
            self.far.pop();
            if ahead == 0 {
                self.current.push(e);
            } else {
                self.place(e);
            }
        }
        // Descending, so pop-min is a pop from the back.
        self.current.sort_unstable_by(|a, b| b.cmp(a));
        true
    }
}

// The event loop that calls these is compiled apart from them, so
// without `#[inline]` every event pays a call or two that the heap's
// generic methods do not; the million-flow run took ~8 % longer so.
impl EventQueue for TimerWheelQueue {
    #[inline]
    fn push(&mut self, e: Entry) {
        self.len += 1;
        self.place(e);
    }

    #[inline]
    fn pop(&mut self) -> Option<Entry> {
        self.peek()?;
        self.len -= 1;
        if self.current.is_empty() {
            self.early.pop().map(|Reverse(e)| e)
        } else {
            self.current.pop()
        }
    }

    #[inline]
    fn peek(&mut self) -> Option<&Entry> {
        if self.current.is_empty() {
            if !self.early.is_empty() {
                return self.early.peek().map(|Reverse(e)| e);
            }
            if !self.advance() {
                return None;
            }
        }
        self.current.last()
    }

    fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::{BinaryHeapQueue, EventQueue};
    use bevra_load::ExpSampler;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn entry(t: f64, seq: u64) -> Entry {
        Entry { time: t, seq, kind: EventKind::Arrival }
    }

    fn drain(q: &mut impl EventQueue) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push((e.time.to_bits(), e.seq));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = TimerWheelQueue::new();
        q.push(entry(3.0, 0));
        q.push(entry(1.0, 1));
        q.push(entry(2.0, 2));
        q.push(entry(1.0, 0));
        assert_eq!(q.len(), 4);
        let order: Vec<(f64, u64)> =
            std::iter::from_fn(|| q.pop().map(|e| (e.time, e.seq))).collect();
        assert_eq!(order, vec![(1.0, 0), (1.0, 1), (2.0, 2), (3.0, 0)]);
        assert!(q.is_empty());
    }

    #[test]
    fn matches_heap_on_lcg_workload_with_interleaved_pops() {
        for (granularity, slots) in
            [(1.0 / 64.0, MIN_SLOTS), (1.0, 64), (17.3, MIN_SLOTS), (1e-6, MAX_SLOTS)]
        {
            let mut w = TimerWheelQueue::with_ring(granularity, slots);
            let mut h = BinaryHeapQueue::new();
            let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
            let mut out_w = Vec::new();
            let mut out_h = Vec::new();
            for seq in 0..4_000u64 {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                // Mixed scale: mostly near times, occasional far-future.
                let u = (x >> 11) as f64 / (1u64 << 53) as f64;
                let t = if seq % 97 == 0 { u * 1e9 } else { u * 50.0 };
                w.push(entry(t, seq));
                h.push(entry(t, seq));
                if seq % 3 == 2 {
                    out_w.push(w.pop().map(|e| (e.time.to_bits(), e.seq)));
                    out_h.push(h.pop().map(|e| (e.time.to_bits(), e.seq)));
                }
            }
            out_w.extend(drain(&mut w).into_iter().map(Some));
            out_h.extend(drain(&mut h).into_iter().map(Some));
            assert_eq!(out_w, out_h, "granularity {granularity}, {slots} slots");
        }
    }

    #[test]
    fn far_future_events_come_back_through_the_far_heap() {
        let mut q = TimerWheelQueue::with_granularity(1.0);
        // The ring spans 1,024 ticks; most of these lie past it, some by
        // many spans, in scrambled insertion order.
        let times =
            [1e12, 3.0, 260.0, 70_000.0, 1.7e7, 2.0e12, 5.0e9, 0.5, 66_000.0, 2.5, 1_024.0];
        for (seq, &t) in times.iter().enumerate() {
            q.push(entry(t, seq as u64));
        }
        let mut sorted: Vec<f64> = times.to_vec();
        sorted.sort_by(f64::total_cmp);
        let drained: Vec<f64> =
            std::iter::from_fn(|| q.pop().map(|e| e.time)).collect();
        assert_eq!(drained, sorted);
    }

    #[test]
    fn exotic_times_stay_totally_ordered() {
        let mut w = TimerWheelQueue::new();
        let mut h = BinaryHeapQueue::new();
        let times =
            [-3.0, 0.0, -0.0, f64::INFINITY, 1e300, 4.2, f64::NEG_INFINITY, f64::NAN, -f64::NAN];
        for (seq, t) in times.into_iter().enumerate() {
            w.push(entry(t, seq as u64));
            h.push(entry(t, seq as u64));
        }
        assert_eq!(drain(&mut w), drain(&mut h));
    }

    #[test]
    fn push_before_cursor_still_pops_next() {
        let mut q = TimerWheelQueue::with_granularity(1.0);
        q.push(entry(50.0, 0));
        assert_eq!(q.pop().map(|e| e.seq), Some(0));
        // Cursor is now at tick 50; a (contract-violating in the sim, but
        // allowed by the trait) earlier push must still come out before
        // later events, matching what a heap would do.
        q.push(entry(10.0, 1));
        q.push(entry(60.0, 2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|e| e.seq)).collect();
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    fn pushes_before_a_peeked_bucket_wait_in_the_early_heap() {
        // A peek takes the next bucket while the caller still holds earlier
        // events of its own. What it then pushes before that bucket must
        // pop first: it waits in `early`, with the bucket's own events.
        let mut q = TimerWheelQueue::with_granularity(1.0);
        q.push(entry(500.0, 0));
        q.push(entry(5_000.0, 1));
        assert_eq!(q.peek().map(|e| e.seq), Some(0));
        assert_eq!(q.cur, 500);
        q.push(entry(3.5, 2));
        assert_eq!((q.current.len(), q.early.len()), (0, 2));
        for seq in 3..600 {
            q.push(entry(seq as f64 + 0.5, seq));
        }
        // Equal stamps on either side of the bucket's event: seq decides.
        q.push(entry(500.0, 600));
        q.push(entry(3.5, 601));
        let order: Vec<(f64, u64)> = std::iter::from_fn(|| {
            let peeked = q.peek().map(|e| (e.time, e.seq));
            assert_eq!(q.pop().map(|e| (e.time, e.seq)), peeked);
            peeked
        })
        .collect();
        let mut expected = vec![(3.5, 2), (3.5, 3), (3.5, 601)];
        expected.extend((4..500).map(|seq| (seq as f64 + 0.5, seq)));
        expected.extend([(500.0, 0), (500.0, 600)]);
        expected.extend((500..600).map(|seq| (seq as f64 + 0.5, seq)));
        expected.push((5_000.0, 1));
        assert_eq!(order, expected);
        assert!(q.is_empty());
    }

    #[test]
    fn slot_nudge_breaks_order_detectably() {
        // The mutation hook must actually corrupt dequeue order on a
        // stream that spans several buckets — otherwise the differential
        // property test can't claim teeth.
        let mut w = TimerWheelQueue::with_granularity(1.0).with_slot_nudge(1);
        let mut h = BinaryHeapQueue::new();
        for seq in 0..64u64 {
            let t = (seq as f64) * 1.5;
            w.push(entry(t, seq));
            h.push(entry(t, seq));
        }
        assert_ne!(drain(&mut w), drain(&mut h), "nudged ring must misorder");
    }

    #[test]
    fn ring_size_spans_four_to_eight_mean_holdings_within_bounds() {
        // A fleet lane: λ = 1,250, h = 1, so 16·λ·h = 20,000 → 2^14, a
        // span of 6.5 mean holdings; the million-flow bench's λ = 5,000
        // gets 2^16.
        assert_eq!(ring_slots(0.5 / 1_250.0, 1.0), 1 << 14);
        assert_eq!(ring_slots(0.5 / 5_000.0, 1.0), 1 << 16);
        assert_eq!(ring_slots(0.5 / 4_096.0, 1.0), 1 << 16);
        assert_eq!(ring_slots(DEFAULT_GRANULARITY, 1.0), MIN_SLOTS);
        assert_eq!(ring_slots(1e-9, 1e9), MAX_SLOTS);
        assert_eq!(ring_slots(1.0, f64::NAN), MIN_SLOTS);
        assert_eq!(TimerWheelQueue::with_ring(1.0, 1_000).heads.len(), 1_024);
        assert_eq!(TimerWheelQueue::with_ring(1.0, 1).heads.len(), 64);
        assert_eq!(TimerWheelQueue::with_ring(1.0, usize::MAX).heads.len(), MAX_SLOTS);
    }

    /// Bytes the queue keeps allocated in its slab, ring heads and bitmap,
    /// far heap, `current` and `early`, whether in use or not.
    fn retained_bytes(q: &TimerWheelQueue) -> usize {
        use std::mem::size_of;
        q.nodes.capacity() * size_of::<Node>()
            + q.heads.capacity() * size_of::<u32>()
            + q.occupied.capacity() * size_of::<u64>()
            + (q.far.capacity() + q.current.capacity() + q.early.capacity()) * size_of::<Entry>()
    }

    #[test]
    fn retained_memory_stays_near_the_pending_set() {
        // One fleet lane's event stream on the ring the runner builds for
        // it: arrivals at rate 1,250, each scheduling a departure after an
        // exponential holding time of mean 1, for 2,000 time units. A
        // structure that kept what each bucket once held, or one sized
        // beyond the pending set, shows up as retained memory far beyond
        // the ~1,400 events pending at the peak.
        let rate = 1_250.0;
        let (gap, hold) = (ExpSampler::new(rate), ExpSampler::new(1.0));
        let mut rng = StdRng::seed_from_u64(1_250);
        let g = 0.5 / rate;
        let mut q = TimerWheelQueue::with_ring(g, ring_slots(g, 1.0));
        q.push(entry(gap.sample(&mut rng), 0));
        let (mut seq, mut pops) = (1, 0u64);
        let (mut peak_pending, mut peak_retained) = (0, 0);
        while let Some(e) = q.pop() {
            if e.kind == EventKind::Arrival && e.time < 2_000.0 {
                let (next, holding) = (gap.sample(&mut rng), hold.sample(&mut rng));
                q.push(entry(e.time + next, seq));
                q.push(Entry {
                    time: e.time + holding,
                    seq: seq + 1,
                    kind: EventKind::Departure { slot: 0 },
                });
                seq += 2;
            }
            peak_pending = peak_pending.max(q.len());
            pops += 1;
            if pops % 1_024 == 0 {
                peak_retained = peak_retained.max(retained_bytes(&q));
            }
        }
        peak_retained = peak_retained.max(retained_bytes(&q));
        assert!(peak_pending > 1_250, "the stream reaches the fleet's population: {peak_pending}");
        let pending_bytes = peak_pending * std::mem::size_of::<Entry>();
        assert!(
            peak_retained <= 4 * pending_bytes,
            "the ring retains {peak_retained} B for {peak_pending} pending ({pending_bytes} B)"
        );
    }

    #[test]
    fn len_tracks_through_the_far_heap() {
        let mut q = TimerWheelQueue::with_granularity(1.0);
        for seq in 0..1_000u64 {
            q.push(entry((seq as f64) * 321.7, seq));
        }
        assert_eq!(q.len(), 1_000);
        let mut n = 0;
        while q.pop().is_some() {
            n += 1;
            assert_eq!(q.len(), 1_000 - n);
        }
        assert_eq!(n, 1_000);
        assert!(q.is_empty());
    }
}
