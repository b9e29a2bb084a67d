//! The discrete-event queue.
//!
//! [`EventQueue`] is one binary heap ordering events by the canonical key
//! **`(cycle, lane)`**, with insertion order breaking what little remains.
//! The machine schedules at most one outstanding event per lane (core), so
//! `(cycle, lane)` is a *total* order over live events: pop order is a
//! function of what was scheduled, never of the order the pushes happened
//! to arrive in. `tflux-sim` and `tflux-cell` both run on it.

use crate::error::SimError;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Slot indices ride in the low 20 bits of the tie-break key.
const SLOT_BITS: u64 = 20;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;

/// Deterministic event queue keyed by `(cycle, lane, insertion order)`.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<(u64, u32, u64)>>,
    slots: Vec<Option<E>>,
    free: Vec<usize>,
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
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    /// Schedule `event` at absolute cycle `at` on lane 0.
    ///
    /// # Panics
    /// If more than 2^20 events are outstanding. Fallible callers (the
    /// machine) use [`EventQueue::try_push_lane`] instead.
    pub fn push(&mut self, at: u64, event: E) {
        self.try_push_lane(0, at, event)
            .expect("more than 2^20 outstanding events");
    }

    /// Schedule `event` at absolute cycle `at` on `lane`. Events pop in
    /// `(at, lane)` order; same-lane ties resolve in insertion order.
    pub fn try_push_lane(&mut self, lane: u32, at: u64, event: E) -> Result<(), SimError> {
        let slot = if let Some(s) = self.free.pop() {
            s
        } else {
            self.slots.push(None);
            self.slots.len() - 1
        };
        if slot as u64 > SLOT_MASK {
            self.slots.pop();
            return Err(SimError::EventOverflow { lane });
        }
        self.slots[slot] = Some(event);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap
            .push(Reverse((at, lane, (seq << SLOT_BITS) | slot as u64)));
        Ok(())
    }

    /// Earliest pending cycle, if any.
    pub fn min_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((at, _, _))| *at)
    }

    /// Pop the earliest event; ties resolve by lane, then insertion order.
    pub fn pop(&mut self) -> Option<(u64, E)> {
        let Reverse((at, _, key)) = self.heap.pop()?;
        let slot = (key & SLOT_MASK) as usize;
        let event = self.slots[slot].take().expect("event slot empty");
        self.free.push(slot);
        Some((at, event))
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
        q.try_push_lane(2, 5, 'a').unwrap();
        q.try_push_lane(0, 5, 'b').unwrap();
        q.try_push_lane(1, 5, 'c').unwrap();
        assert_eq!(q.pop(), Some((5, 'b')));
        assert_eq!(q.pop(), Some((5, 'c')));
        assert_eq!(q.pop(), Some((5, 'a')));
    }

    #[test]
    fn slots_are_recycled() {
        let mut q = EventQueue::new();
        for round in 0..100u64 {
            q.push(round, round);
            assert_eq!(q.pop(), Some((round, round)));
        }
        assert!(q.is_empty());
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
