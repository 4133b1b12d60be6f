//! Pending-event set implementations.
//!
//! The simulator's hot loop is pop-min/push. Production runs use the
//! calendar ring ([`crate::wheel`]); the binary heap here is the reference
//! it is differentially tested against. [`Pending`] holds the one live
//! arrival beside either queue, so the most frequent event never enters it.

use crate::events::Entry;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A pending-event set ordered by (time, seq).
pub trait EventQueue {
    /// Insert an event.
    fn push(&mut self, e: Entry);
    /// Remove and return the earliest event.
    fn pop(&mut self) -> Option<Entry>;
    /// The earliest event, left in place. Mutable, so a lazy queue can
    /// bring its head into position; the pop that follows finds it there.
    fn peek(&mut self) -> Option<&Entry>;
    /// Number of pending events.
    fn len(&self) -> usize;
    /// Whether the queue is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Binary-heap event queue — O(log n) push/pop, the reference order.
#[derive(Default)]
pub struct BinaryHeapQueue {
    heap: BinaryHeap<Reverse<Entry>>,
}

impl BinaryHeapQueue {
    /// New empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl EventQueue for BinaryHeapQueue {
    fn push(&mut self, e: Entry) {
        self.heap.push(Reverse(e));
    }

    fn pop(&mut self) -> Option<Entry> {
        self.heap.pop().map(|Reverse(e)| e)
    }

    fn peek(&mut self) -> Option<&Entry> {
        self.heap.peek().map(|Reverse(e)| e)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// The simulator's pending-event set: the one live arrival, held beside a
/// queue of every other event.
///
/// A Poisson stream has exactly one pending arrival at a time, and the
/// arrivals are half of all events. Holding the live one apart keeps them
/// out of the queue for one `(time, seq)` comparison per pop; a
/// superseded arrival still goes into the queue. [`Pending::pop`] returns
/// the earlier of the held arrival and the queue's head, so the pop order
/// is exactly that of one queue that received every event.
pub struct Pending<Q> {
    arrival: Option<Entry>,
    queue: Q,
}

impl<Q: EventQueue> Pending<Q> {
    /// An empty set over `queue`.
    #[must_use]
    pub fn new(queue: Q) -> Self {
        Self { arrival: None, queue }
    }

    /// Insert an event that is not the live arrival.
    #[inline]
    pub fn push(&mut self, e: Entry) {
        self.queue.push(e);
    }

    /// Hold `e` as the live arrival. The arrival it supersedes, if any,
    /// moves into the queue: it is still popped in its place, only no
    /// longer live.
    #[inline]
    pub fn hold(&mut self, e: Entry) {
        if let Some(stale) = self.arrival.replace(e) {
            self.queue.push(stale);
        }
    }

    /// Remove the earliest pending event in `(time, seq)` order, with
    /// whether it is the held arrival.
    #[inline]
    pub fn pop(&mut self) -> Option<(Entry, bool)> {
        let held_first = match (&self.arrival, self.queue.peek()) {
            (Some(held), Some(head)) => held < head,
            (held, _) => held.is_some(),
        };
        if held_first {
            self.arrival.take().map(|e| (e, true))
        } else {
            self.queue.pop().map(|e| (e, false))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventKind;
    use crate::wheel::TimerWheelQueue;

    fn entry(t: f64, seq: u64) -> Entry {
        Entry { time: t, seq, kind: EventKind::Arrival }
    }

    /// Pop every event, checking that `peek` shows each one first.
    fn drain(q: &mut impl EventQueue) -> Vec<(f64, u64)> {
        let mut out = Vec::new();
        loop {
            let peeked = q.peek().map(|e| (e.time, e.seq));
            let popped = q.pop().map(|e| (e.time, e.seq));
            assert_eq!(peeked, popped);
            let Some(e) = popped else { return out };
            out.push(e);
        }
    }

    fn check_time_order(q: &mut impl EventQueue) {
        q.push(entry(3.0, 0));
        q.push(entry(1.0, 1));
        q.push(entry(2.0, 2));
        q.push(entry(1.0, 0));
        assert_eq!(q.len(), 4);
        let order = drain(q);
        assert_eq!(order, vec![(1.0, 0), (1.0, 1), (2.0, 2), (3.0, 0)]);
        assert!(q.is_empty());
    }

    #[test]
    fn both_queues_pop_in_time_order() {
        check_time_order(&mut BinaryHeapQueue::new());
        check_time_order(&mut TimerWheelQueue::new());
    }

    #[test]
    fn queues_agree_on_random_workload() {
        let mut h = BinaryHeapQueue::new();
        let mut v = TimerWheelQueue::new();
        // Deterministic pseudo-random times.
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for seq in 0..500 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let t = (x >> 11) as f64 / (1u64 << 53) as f64;
            h.push(entry(t, seq));
            v.push(entry(t, seq));
        }
        assert_eq!(drain(&mut h), drain(&mut v));
    }
}
