//! The discrete-event queue.
//!
//! [`EventQueue`] is one binary heap of `(cycle, lane, seq, event)` entries
//! ordered on the first three fields: events pop by cycle, then lane, then
//! insertion order, and carry their payloads inline. The machine schedules
//! at most one outstanding event per lane (core) in each of its two queues
//! (core events and the round's deferred device batch), so `(cycle, lane)`
//! is a *total* order over each queue's live events: pop order is a
//! function of what was scheduled, never of the order the pushes happened
//! to arrive in. The Cell machine and [`tub::simulate`](crate::tub::simulate)
//! put several events on one lane, and insertion order breaks their ties.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// One scheduled event, ordered on `(at, lane, seq)` alone: `seq` is
/// unique, so the payload never decides.
#[derive(Debug)]
struct Entry<E> {
    at: u64,
    lane: u32,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (u64, u32, u64) {
        (self.at, self.lane, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// Deterministic event queue keyed by `(cycle, lane, insertion order)`.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedule `event` at absolute cycle `at` on lane 0.
    pub fn push(&mut self, at: u64, event: E) {
        self.push_lane(0, at, event);
    }

    /// Schedule `event` at absolute cycle `at` on `lane`. Events pop in
    /// `(at, lane)` order; same-lane ties resolve in insertion order.
    pub fn push_lane(&mut self, lane: u32, at: u64, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry {
            at,
            lane,
            seq,
            event,
        }));
    }

    /// Earliest pending cycle, if any.
    pub fn min_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// Pop the earliest event; ties resolve by lane, then insertion order.
    pub fn pop(&mut self) -> Option<(u64, E)> {
        self.heap.pop().map(|Reverse(e)| (e.at, e.event))
    }

    /// Pop the earliest event if it fires before cycle `end`.
    pub fn pop_before(&mut self, end: u64) -> Option<(u64, E)> {
        if self.min_time()? < end {
            self.pop()
        } else {
            None
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, "c");
        q.push(10, "a");
        q.push(20, "b");
        assert_eq!(q.min_time(), Some(10));
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
        assert_eq!(q.min_time(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.push(5, 1);
        q.push(5, 2);
        q.push(5, 3);
        assert_eq!(q.pop(), Some((5, 1)));
        assert_eq!(q.pop(), Some((5, 2)));
        assert_eq!(q.pop(), Some((5, 3)));
    }

    #[test]
    fn lanes_break_ties_before_insertion_order() {
        let mut q = EventQueue::new();
        q.push_lane(2, 5, 'a');
        q.push_lane(0, 5, 'b');
        q.push_lane(1, 5, 'c');
        assert_eq!(q.pop(), Some((5, 'b')));
        assert_eq!(q.pop(), Some((5, 'c')));
        assert_eq!(q.pop(), Some((5, 'a')));
    }

    #[test]
    fn interleaved_push_pop() {
        let mut q = EventQueue::new();
        q.push(1, 'x');
        q.push(9, 'z');
        assert_eq!(q.pop(), Some((1, 'x')));
        q.push(4, 'y');
        assert_eq!(q.pop(), Some((4, 'y')));
        assert_eq!(q.pop(), Some((9, 'z')));
        assert_eq!(q.len(), 0);
    }
}
