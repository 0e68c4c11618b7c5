//! The simulator's pending-event queue.
//!
//! Events run in `(at, seq)` order: virtual time first, then the order they
//! were scheduled in. A binary heap keeps that order by moving entries up and
//! down, so what it holds is kept small — the sort key and a slot number, 24
//! bytes — while the events themselves (a client request is two vectors and a
//! signature) sit still in a slab until they are due. Freed slots are reused,
//! so a steady run allocates nothing here.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What the heap orders. `(at, seq)` is unique, so `slot` never decides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    at: u64,
    seq: u64,
    slot: usize,
}

const _: () = assert!(std::mem::size_of::<Reverse<Entry>>() == 24);

/// A queue of `T`s that pops them by time, ties in push order.
#[derive(Debug)]
pub(crate) struct EventQueue<T> {
    heap: BinaryHeap<Reverse<Entry>>,
    /// Payloads of the queued entries; `None` marks a slot on `free`.
    slab: Vec<Option<T>>,
    free: Vec<usize>,
    next_seq: u64,
}

impl<T> EventQueue<T> {
    pub(crate) fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    /// The sequence number the next push will take: how many events were
    /// ever scheduled.
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Schedules `payload` for virtual time `at`, behind everything already
    /// scheduled for that time.
    pub(crate) fn push(&mut self, at: u64, payload: T) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = Some(payload);
                slot
            }
            None => {
                self.slab.push(Some(payload));
                self.slab.len() - 1
            }
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry { at, seq, slot }));
    }

    /// Takes the earliest event: its time and its payload.
    pub(crate) fn pop(&mut self) -> Option<(u64, T)> {
        let Reverse(entry) = self.heap.pop()?;
        // An entry's slot is filled at push and emptied only here.
        let payload = self.slab[entry.slot].take()?;
        self.free.push(entry.slot);
        Some((entry.at, payload))
    }

    /// Virtual time of the earliest event.
    pub(crate) fn peek_at(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(entry)| entry.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Any schedule of pushes and pops comes out in the order a heap of
        /// bare `(at, seq)` keys gives, each key with the payload it was
        /// pushed with, and the slab never outgrows the most events that were
        /// pending at once.
        #[test]
        fn pops_like_a_reference_heap(schedule in proptest::collection::vec(
            // Three pushes to two pops, and few distinct times, so the queue
            // grows, drains and ties on `at` often.
            (0u8..5, 0u64..8), 0..400)) {
            let mut queue = EventQueue::new();
            let mut reference: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            let mut high_water = 0;
            for (op, at) in schedule {
                match op {
                    0..=2 => {
                        let seq = queue.next_seq();
                        reference.push(Reverse((at, seq)));
                        // The payload names its key, so a mix-up of slots shows.
                        queue.push(at, (at, seq));
                        prop_assert_eq!(queue.next_seq(), seq + 1);
                    }
                    _ => {
                        let expected = reference.pop().map(|Reverse(key)| (key.0, key));
                        prop_assert_eq!(queue.pop(), expected);
                    }
                }
                high_water = high_water.max(reference.len());
                prop_assert_eq!(queue.peek_at(), reference.peek().map(|Reverse(key)| key.0));
                prop_assert_eq!(queue.slab.len(), high_water);
                prop_assert_eq!(queue.free.len() + reference.len(), queue.slab.len());
            }
            while let Some(Reverse(key)) = reference.pop() {
                prop_assert_eq!(queue.pop(), Some((key.0, key)));
            }
            prop_assert_eq!(queue.pop(), None);
        }
    }
}
