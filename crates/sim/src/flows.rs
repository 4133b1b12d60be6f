//! Struct-of-arrays flow state for the event loop's hot path.
//!
//! The original runner kept one `FlowSlot` struct per flow and, on every
//! admission, walked the whole active list bumping each flow's
//! `max_pop` — an `O(active)` scan per admission, `O(n²)` over a run,
//! and the true asymptotic bottleneck at large populations (the paper's
//! `k̄ = 10⁵` regime spends >99% of its cycles in that loop). This module
//! replaces both pieces:
//!
//! * [`FlowTable`] stores each per-flow field in its own dense `Vec`
//!   (the same layout trick that made `discrete_batch` 3.2× faster):
//!   a departure touches exactly the cache lines of the fields it reads,
//!   and slot reuse through the free list means a run allocates only up
//!   to its *peak* population, not its flow count.
//! * [`PeakTracker`] answers "what is the largest population any
//!   admission has reached since this flow was admitted?" in `O(log)`
//!   at departure and amortized `O(1)` at admission, via a monotone
//!   suffix-max stack — numerically identical to the old per-flow scan.
//!
//! # Why the tracker is exact
//!
//! Index admissions `0, 1, 2, …` and let `pop(i)` be the population
//! *including* the newcomer at admission `i`. The old code maintained,
//! for each active flow `f` admitted at index `i_f`,
//! `max_pop(f) = max { pop(j) : i_f ≤ j ≤ now }` (its own admission
//! included, later ones folded in by the scan). That is a *suffix
//! maximum* over the admission sequence, queried at the flow's departure.
//! The stack stores pairs `(i, pop(i))` with `pop` strictly decreasing in
//! `i`: a new admission pops every entry with `pop ≤ pop(new)` before
//! pushing itself, which preserves exactly the set of suffix-max
//! candidates. A departed flow's answer is the entry with the smallest
//! index `≥ i_f` (binary search); monotonicity makes it the suffix max.
//! Stack depth is bounded by the peak population (strictly decreasing
//! `pop` values), so memory stays negligible even at millions of flows.

/// Dense struct-of-arrays storage for active flows, indexed by `u32`
/// slot ids that are recycled through a free list.
#[derive(Default)]
pub struct FlowTable {
    admit_time: Vec<f64>,
    integral_at_admit: Vec<f64>,
    util_at_admission: Vec<f64>,
    /// Index of this flow's admission in the global admission sequence —
    /// the key [`PeakTracker::peak_since`] is queried with.
    admit_index: Vec<u64>,
    retries: Vec<u32>,
    free: Vec<u32>,
}

impl FlowTable {
    /// New empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of currently-active flows: every slot ever allocated that is
    /// not on the free list.
    #[must_use]
    pub fn active_len(&self) -> usize {
        self.admit_time.len() - self.free.len()
    }

    /// Admit one flow; returns its slot id (stable until departure).
    pub fn admit(
        &mut self,
        admit_time: f64,
        integral_at_admit: f64,
        util_at_admission: f64,
        admit_index: u64,
        retries: u32,
    ) -> u32 {
        if let Some(slot) = self.free.pop() {
            let i = slot as usize;
            self.admit_time[i] = admit_time;
            self.integral_at_admit[i] = integral_at_admit;
            self.util_at_admission[i] = util_at_admission;
            self.admit_index[i] = admit_index;
            self.retries[i] = retries;
            slot
        } else {
            let slot = self.admit_time.len() as u32;
            self.admit_time.push(admit_time);
            self.integral_at_admit.push(integral_at_admit);
            self.util_at_admission.push(util_at_admission);
            self.admit_index.push(admit_index);
            self.retries.push(retries);
            slot
        }
    }

    /// Read the flow's admission-time fields:
    /// `(admit_time, integral_at_admit, util_at_admission, admit_index,
    /// retries)`.
    #[must_use]
    pub fn fields(&self, slot: u32) -> (f64, f64, f64, u64, u32) {
        let i = slot as usize;
        (
            self.admit_time[i],
            self.integral_at_admit[i],
            self.util_at_admission[i],
            self.admit_index[i],
            self.retries[i],
        )
    }

    /// Release a departing flow's slot back to the free list.
    pub fn depart(&mut self, slot: u32) {
        self.free.push(slot);
    }
}

/// Monotone suffix-max stack over the admission sequence (see the
/// [module docs](self) for the equivalence argument).
#[derive(Default)]
pub struct PeakTracker {
    /// `(admission index, population including that admission)`, with
    /// population strictly decreasing as index increases.
    stack: Vec<(u64, u64)>,
    next_index: u64,
}

impl PeakTracker {
    /// New empty tracker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an admission that brought the population to `pop`
    /// (newcomer included); returns the admission's index, which the
    /// caller stores in the flow's [`FlowTable`] slot.
    pub fn on_admission(&mut self, pop: u64) -> u64 {
        let index = self.next_index;
        self.next_index += 1;
        while self.stack.last().is_some_and(|&(_, p)| p <= pop) {
            self.stack.pop();
        }
        self.stack.push((index, pop));
        index
    }

    /// Largest population reached by any admission with index
    /// `≥ admit_index` — i.e. the departing flow's `max_pop`, its own
    /// admission included.
    #[must_use]
    pub fn peak_since(&self, admit_index: u64) -> u64 {
        // First stack entry with index ≥ admit_index; populations decrease
        // with index, so it is the suffix maximum. The flow's own
        // admission guarantees at least one qualifying entry exists (it
        // was pushed, and can only have been displaced by a later — also
        // qualifying — admission with a population at least as large).
        let at = self.stack.partition_point(|&(i, _)| i < admit_index);
        self.stack.get(at).map_or(0, |&(_, p)| p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_recycles_slots() {
        let mut t = FlowTable::new();
        let a = t.admit(1.0, 0.0, 0.5, 0, 0);
        let b = t.admit(2.0, 0.1, 0.6, 1, 0);
        let c = t.admit(3.0, 0.2, 0.7, 2, 1);
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(t.active_len(), 3);
        t.depart(a);
        assert_eq!(t.active_len(), 2);
        let d = t.admit(4.0, 0.3, 0.8, 3, 2);
        assert_eq!(d, a, "freed slot is reused");
        let (at, ia, ua, idx, r) = t.fields(d);
        assert_eq!((at, ia, ua, idx, r), (4.0, 0.3, 0.8, 3, 2));
        // Depart in scrambled order; table stays consistent.
        t.depart(c);
        t.depart(b);
        t.depart(d);
        assert_eq!(t.active_len(), 0);
    }

    /// Differential check against the old O(active) scan on a random
    /// admission/departure schedule.
    #[test]
    fn tracker_matches_naive_scan() {
        let mut x: u64 = 0xDEAD_BEEF_CAFE_1234;
        let mut tracker = PeakTracker::new();
        // Naive model: (admit_index, max_pop) per live flow.
        let mut live: Vec<(u64, u64)> = Vec::new();
        let mut pop: u64 = 0;
        for _ in 0..20_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let admit = pop == 0 || x >> 63 == 0;
            if admit {
                pop += 1;
                for f in &mut live {
                    if pop > f.1 {
                        f.1 = pop;
                    }
                }
                let idx = tracker.on_admission(pop);
                live.push((idx, pop));
            } else {
                let victim = (x >> 32) as usize % live.len();
                let (idx, naive_max) = live.swap_remove(victim);
                pop -= 1;
                assert_eq!(tracker.peak_since(idx), naive_max);
            }
        }
        // Drain the rest.
        for (idx, naive_max) in live {
            assert_eq!(tracker.peak_since(idx), naive_max);
        }
    }

    #[test]
    fn tracker_handles_equal_populations() {
        let mut tr = PeakTracker::new();
        let i0 = tr.on_admission(3); // pop rose to 3
        let i1 = tr.on_admission(3); // dropped to 2, rose back to 3
        assert_eq!(tr.peak_since(i0), 3);
        assert_eq!(tr.peak_since(i1), 3);
        let i2 = tr.on_admission(5);
        assert_eq!(tr.peak_since(i0), 5);
        assert_eq!(tr.peak_since(i2), 5);
        let i3 = tr.on_admission(2);
        assert_eq!(tr.peak_since(i3), 2);
        assert_eq!(tr.peak_since(i0), 5);
    }
}
