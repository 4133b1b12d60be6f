//! Hierarchical timer-wheel event queue — the production pending-event set.
//!
//! A binary heap pays `O(log n)` pointer-chasing comparisons per push *and*
//! per pop; at a million pending departures every operation walks ~20 cache
//! lines. The wheel instead hashes each event by its time into one of
//! `256` level-0 buckets of width `granularity`; coarser levels cover
//! `256×`, `256²×`, … that span, and events beyond the top level wait in an
//! unsorted overflow list. Push is O(1). Pop sorts the *current* bucket
//! lazily (a handful of entries under a well-chosen granularity) and then
//! drains it back-to-front, so the amortized per-event cost is a few
//! cache-resident moves — the classic calendar-queue result.
//!
//! # Exact order preservation
//!
//! The dequeue order is **bitwise-identical** to [`BinaryHeapQueue`]'s:
//! strictly ascending `(time, seq)` over the pending set, with
//! [`f64::total_cmp`] time semantics. Bucketing is monotone in time
//! (`t₁ ≤ t₂ ⇒ tick(t₁) ≤ tick(t₂)`), buckets are visited in ascending
//! tick order, and every bucket is sorted by `(time, seq)` before
//! draining — so the wheel is a drop-in replacement whose only observable
//! difference is speed. `tests/timer_wheel.rs` property-checks this
//! equivalence over randomized streams (same-timestamp ties, far-future
//! rollover into the overflow list, interleaved push/pop) with shrinking,
//! and mutation-tests the harness by nudging the slot hash off by one.
//!
//! [`BinaryHeapQueue`]: crate::queue::BinaryHeapQueue
//!
//! # Time domain
//!
//! Times may be any non-NaN `f64`; negative and `+∞` stamps are routed to
//! the current bucket / overflow respectively and still pop in total
//! order. `NaN` is ordered last (as `total_cmp` does) but callers are
//! expected never to schedule one — the simulator checks finiteness at
//! every push site.

use crate::events::Entry;
use crate::queue::EventQueue;

/// log₂ of the slots per level.
const SLOT_BITS: u32 = 8;
/// Buckets per wheel level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Slot index mask within a level.
const MASK: u64 = (SLOTS as u64) - 1;
/// Wheel levels; the combined span is `granularity · 256³` before events
/// fall into the overflow list.
const LEVELS: usize = 3;

/// Default level-0 bucket width, in simulated time units. Callers that
/// know their event density should size the bucket near the mean event
/// spacing instead (see [`TimerWheelQueue::with_granularity`]).
pub const DEFAULT_GRANULARITY: f64 = 1.0 / 64.0;

/// One wheel level: `SLOTS` buckets plus a 256-bit occupancy bitmap so
/// advancing the cursor skips empty buckets in four `u64` scans.
struct Level {
    slots: Vec<Vec<Entry>>,
    occupied: [u64; SLOTS / 64],
    len: usize,
}

impl Level {
    fn new() -> Self {
        Self { slots: (0..SLOTS).map(|_| Vec::new()).collect(), occupied: [0; SLOTS / 64], len: 0 }
    }

    fn insert(&mut self, slot: usize, e: Entry) {
        self.slots[slot].push(e);
        self.occupied[slot >> 6] |= 1u64 << (slot & 63);
        self.len += 1;
    }

    /// Take the whole bucket at `slot`, clearing its occupancy bit and
    /// leaving the empty `spare` in its place.
    fn take(&mut self, slot: usize, spare: Vec<Entry>) -> Vec<Entry> {
        debug_assert!(spare.is_empty());
        self.occupied[slot >> 6] &= !(1u64 << (slot & 63));
        let bucket = std::mem::replace(&mut self.slots[slot], spare);
        self.len -= bucket.len();
        bucket
    }

    /// First occupied slot index `>= from`, if any.
    fn next_occupied(&self, from: usize) -> Option<usize> {
        let mut word = from >> 6;
        let mut bits = self.occupied[word] & (!0u64 << (from & 63));
        loop {
            if bits != 0 {
                return Some((word << 6) + bits.trailing_zeros() as usize);
            }
            word += 1;
            if word >= SLOTS / 64 {
                return None;
            }
            bits = self.occupied[word];
        }
    }
}

/// Hierarchical timer-wheel implementation of [`EventQueue`].
///
/// See the [module docs](self) for the design; construct with
/// [`TimerWheelQueue::new`] (default granularity) or
/// [`TimerWheelQueue::with_granularity`].
pub struct TimerWheelQueue {
    /// Level-0 bucket width and its reciprocal (`tick = time · inv_g`).
    inv_g: f64,
    /// Tick of the bucket currently being drained.
    cur: u64,
    /// The current bucket; sorted descending by `(time, seq)` when
    /// `sorted` holds, so pop-min is a pop from the back.
    current: Vec<Entry>,
    sorted: bool,
    levels: Vec<Level>,
    /// Events beyond the top level's span, unsorted.
    overflow: Vec<Entry>,
    len: usize,
    /// Test-only mutation hook: XOR-perturbs the level-0 slot hash.
    slot_nudge: u64,
}

impl Default for TimerWheelQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl TimerWheelQueue {
    /// New wheel with [`DEFAULT_GRANULARITY`].
    #[must_use]
    pub fn new() -> Self {
        Self::with_granularity(DEFAULT_GRANULARITY)
    }

    /// New wheel whose level-0 buckets are `granularity` time units wide.
    /// Amortized cost is minimized when the bucket width is near the mean
    /// spacing between pending events; any positive value is *correct*.
    ///
    /// # Panics
    ///
    /// Panics unless `granularity` is positive and finite.
    #[must_use]
    pub fn with_granularity(granularity: f64) -> Self {
        assert!(
            granularity > 0.0 && granularity.is_finite(),
            "wheel granularity must be positive and finite, got {granularity}"
        );
        Self {
            inv_g: granularity.recip(),
            cur: 0,
            current: Vec::new(),
            sorted: true,
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            overflow: Vec::new(),
            len: 0,
            slot_nudge: 0,
        }
    }

    /// Mutation-test hook: XOR the level-0 slot index with `nudge`,
    /// mis-bucketing events without touching anything else. The
    /// differential property suite uses this to prove it *would* catch a
    /// bucket-indexing bug; never use it for real work.
    #[doc(hidden)]
    #[must_use]
    pub fn with_slot_nudge(mut self, nudge: u64) -> Self {
        self.slot_nudge = nudge & MASK;
        self
    }

    /// The bucket index of time `t`: monotone non-decreasing in `t`,
    /// saturating at the extremes (`t ≤ 0 → 0`, `+∞`/`NaN` → `u64::MAX`).
    fn tick(&self, t: f64) -> u64 {
        if t.is_nan() {
            return u64::MAX;
        }
        // `as` casts saturate: negatives to 0, overflow/+∞ to u64::MAX.
        (t * self.inv_g) as u64
    }

    /// Route one entry to the current bucket, a wheel level, or overflow,
    /// based on the highest differing bit between its tick and `cur`.
    fn place(&mut self, e: Entry) {
        let tick = self.tick(e.time);
        if tick <= self.cur {
            if self.sorted {
                // Keep the drain bucket sorted (descending) by ordered
                // insertion — the common "next arrival lands in the bucket
                // being drained" case must not trigger a full re-sort.
                let pos = self.current.partition_point(|x| *x > e);
                self.current.insert(pos, e);
            } else {
                self.current.push(e);
            }
            return;
        }
        let diff = tick ^ self.cur;
        for (level, wheel) in self.levels.iter_mut().enumerate() {
            let bits = SLOT_BITS * (level as u32 + 1);
            if diff >> bits == 0 {
                let mut slot = (tick >> (bits - SLOT_BITS)) & MASK;
                if level == 0 {
                    slot ^= self.slot_nudge;
                }
                wheel.insert(slot as usize, e);
                return;
            }
        }
        self.overflow.push(e);
    }

    /// Refill `current` from the wheels/overflow. Returns `false` when the
    /// queue is exhausted.
    fn advance(&mut self) -> bool {
        debug_assert!(self.current.is_empty());
        loop {
            // Innermost non-empty level first: its buckets are the finest.
            let mut cascaded = false;
            for level in 0..LEVELS {
                if self.levels[level].len == 0 {
                    continue;
                }
                let bits = SLOT_BITS * (level as u32);
                // The cursor's slot within this level; buckets at or before
                // it are empty by the aligned-window invariant.
                let cur_slot = ((self.cur >> bits) & MASK) as usize;
                let Some(slot) = self.levels[level].next_occupied(cur_slot) else {
                    continue;
                };
                // A level-0 slot gets the drained `current`'s allocation
                // back, so steady state allocates nothing per bucket. Coarser
                // slots do not: each would keep a `Vec` sized for its whole
                // cascade (~1,250 entries per level-2 slot in a fleet lane
                // at k̄ = 1,250), and recycling every level raises the fleet
                // benchmark's peak RSS from 4.6 to 17.3 MiB.
                let spare = if level == 0 { std::mem::take(&mut self.current) } else { Vec::new() };
                let bucket = self.levels[level].take(slot, spare);
                // Advance the cursor to the bucket's base tick. For level 0
                // that *is* the bucket; coarser buckets cascade: their
                // entries re-place into finer levels relative to the new
                // cursor.
                let base = (self.cur >> (bits + SLOT_BITS)) << (bits + SLOT_BITS);
                self.cur = base | ((slot as u64) << bits);
                if level == 0 {
                    self.current = bucket;
                    self.sorted = false;
                    return true;
                }
                self.len -= bucket.len();
                for e in bucket {
                    self.len += 1;
                    self.place(e);
                }
                cascaded = true;
                break;
            }
            if cascaded {
                // Entries may have landed directly in `current` (tick ==
                // new cursor); if so we are done, else scan again.
                if !self.current.is_empty() {
                    return true;
                }
                continue;
            }
            // All wheels empty: restart from the overflow list, if any.
            if self.overflow.is_empty() {
                return false;
            }
            let min = self
                .overflow
                .iter()
                .copied()
                .min()
                .map(|e| self.tick(e.time))
                .unwrap_or(u64::MAX);
            self.cur = min;
            let pending = std::mem::take(&mut self.overflow);
            self.len -= pending.len();
            for e in pending {
                self.len += 1;
                self.place(e);
            }
            // The minimum landed in `current`; loop once more to return it
            // (or to cascade, if ticks collide oddly under saturation).
            if !self.current.is_empty() {
                return true;
            }
        }
    }
}

impl EventQueue for TimerWheelQueue {
    fn push(&mut self, e: Entry) {
        self.len += 1;
        self.place(e);
    }

    fn pop(&mut self) -> Option<Entry> {
        if self.current.is_empty() && !self.advance() {
            return None;
        }
        if !self.sorted {
            // Descending, so pop-min is a pop from the back.
            self.current.sort_unstable_by(|a, b| b.cmp(a));
            self.sorted = true;
        }
        let e = self.current.pop();
        if e.is_some() {
            self.len -= 1;
        }
        e
    }

    fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventKind;
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
        for granularity in [1.0 / 64.0, 1.0, 17.3, 1e-6] {
            let mut w = TimerWheelQueue::with_granularity(granularity);
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
            assert_eq!(out_w, out_h, "granularity {granularity}");
        }
    }

    #[test]
    fn far_future_rollover_through_overflow() {
        let mut q = TimerWheelQueue::with_granularity(1.0);
        // Top level spans 256^3 ticks; these straddle every level plus the
        // overflow list, in scrambled insertion order.
        let times =
            [1e12, 3.0, 260.0, 70_000.0, 1.7e7, 2.0e12, 5.0e9, 0.5, 66_000.0, 2.5];
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
        for (seq, t) in [-3.0, 0.0, -0.0, f64::INFINITY, 1e300, 4.2, f64::NEG_INFINITY]
            .into_iter()
            .enumerate()
        {
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
    fn slot_nudge_breaks_order_detectably() {
        // The mutation hook must actually corrupt dequeue order on a
        // stream that spans several level-0 buckets — otherwise the
        // differential property test can't claim teeth.
        let mut w = TimerWheelQueue::with_granularity(1.0).with_slot_nudge(1);
        let mut h = BinaryHeapQueue::new();
        for seq in 0..64u64 {
            let t = (seq as f64) * 1.5;
            w.push(entry(t, seq));
            h.push(entry(t, seq));
        }
        assert_ne!(drain(&mut w), drain(&mut h), "nudged wheel must misorder");
    }

    /// Entries the wheel keeps allocated in every slot, `current` and
    /// `overflow`, whether in use or not.
    fn retained(q: &TimerWheelQueue) -> usize {
        let slots: usize = q.levels.iter().flat_map(|l| &l.slots).map(Vec::capacity).sum();
        slots + q.current.capacity() + q.overflow.capacity()
    }

    #[test]
    fn retained_memory_stays_near_the_pending_set() {
        // One fleet lane's event stream at the runner's granularity:
        // arrivals at rate 1,250, each scheduling a departure after an
        // exponential holding time of mean 1. The horizon of 2,000 spans
        // ~76 level-2 slots, so a slot that keeps the allocation of every
        // cascade it held shows up as retained memory far beyond the
        // ~1,400 events pending at the peak.
        let rate = 1_250.0;
        let (gap, hold) = (ExpSampler::new(rate), ExpSampler::new(1.0));
        let mut rng = StdRng::seed_from_u64(1_250);
        let mut q = TimerWheelQueue::with_granularity(0.5 / rate);
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
                peak_retained = peak_retained.max(retained(&q));
            }
        }
        peak_retained = peak_retained.max(retained(&q));
        assert!(peak_pending > 1_250, "the stream reaches the fleet's population: {peak_pending}");
        assert!(
            peak_retained <= 4 * peak_pending,
            "the wheel retains {peak_retained} entries for at most {peak_pending} pending"
        );
    }

    #[test]
    fn len_tracks_through_cascades() {
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
