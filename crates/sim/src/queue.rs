//! Pending-event set implementations.
//!
//! The simulator's hot loop is pop-min/push. Production runs use the
//! timer wheel ([`crate::wheel`]); the binary heap here is the reference
//! it is differentially tested against.

use crate::events::Entry;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A pending-event set ordered by (time, seq).
pub trait EventQueue {
    /// Insert an event.
    fn push(&mut self, e: Entry);
    /// Remove and return the earliest event.
    fn pop(&mut self) -> Option<Entry>;
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

    fn len(&self) -> usize {
        self.heap.len()
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

    fn drain(q: &mut impl EventQueue) -> Vec<(f64, u64)> {
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push((e.time, e.seq));
        }
        out
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
