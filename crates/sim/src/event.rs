//! A stable-order event queue: the heart of the discrete-event simulation.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A priority queue of timestamped events with deterministic FIFO
/// tie-breaking.
///
/// Events scheduled for the same instant pop in the order they were pushed,
/// which makes whole-simulation runs reproducible independent of hash-map
/// iteration order or heap internals.
///
/// The heap holds only `(at, seq, slot)` keys, 24 bytes each, while the
/// events sit in a slab whose freed slots a free list hands out again. A
/// heap push or pop moves its entry once per level, so an event kept in the
/// heap would be copied at every level; in the slab it is written once when
/// pushed and read once when popped, whatever its width. `seq` is unique,
/// so the slot never decides an order.
///
/// # Examples
///
/// ```
/// use plasma_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2), "late");
/// q.push(SimTime::from_secs(1), "early");
/// q.push(SimTime::from_secs(1), "early-2");
///
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "early-2")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), "late")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    /// Min-heap of `(at, seq, slot)`: the earliest time pops first, ties
    /// in push order.
    heap: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    /// The pending events; `None` marks a slot on the free list.
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
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(event);
                slot
            }
            None => {
                self.slots.push(Some(event));
                self.slots.len() - 1
            }
        };
        self.heap.push(Reverse((at, seq, slot)));
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse((at, _, slot)) = self.heap.pop()?;
        let event = self.slots[slot]
            .take()
            .expect("a queued key's slot holds its event");
        self.free.push(slot);
        Some((at, event))
    }

    /// Returns the timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((at, _, _))| *at)
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
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
        q.push(SimTime::from_micros(30), 3);
        q.push(SimTime::from_micros(10), 1);
        q.push(SimTime::from_micros(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5), "b");
        q.push(SimTime::from_secs(1), "a");
        assert_eq!(q.pop().unwrap().1, "a");
        q.push(SimTime::from_secs(3), "c");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "b");
    }

    #[test]
    fn counters_and_peek() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs(2), ());
        q.push(SimTime::from_secs(1), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        q.pop();
        assert_eq!(q.len(), 1);
    }

    /// The heap moves keys, never events: its entry stays 24 bytes however
    /// wide the event is.
    #[test]
    fn heap_entry_is_a_key_whatever_the_event_width() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, [0u8; 256]);
        assert_eq!(size_of_val(q.heap.peek().expect("one key")), 24);
    }

    /// Popped slots are reused: a queue that never holds more than `k`
    /// events never grows its slab past `k` slots.
    #[test]
    fn slab_never_outgrows_the_pending_peak() {
        let k = 8;
        let mut q = EventQueue::new();
        for i in 0..1_000u64 {
            while q.len() < k {
                q.push(SimTime::from_micros(i + (q.len() as u64 * 13) % 50), i);
            }
            q.pop();
            if i % 3 == 0 {
                q.pop();
            }
        }
        assert!(
            q.slots.len() <= k,
            "slab has {} slots for {k} pending",
            q.slots.len()
        );
        assert_eq!(q.slots.len() - q.free.len(), q.len());
    }
}
