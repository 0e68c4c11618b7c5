//! The simulator's pending-event queue.
//!
//! Events run in `(at, seq)` order: virtual time first, then the order they
//! were scheduled in. A binary heap keeps that order by moving entries up and
//! down, so what it holds is kept small — the sort key and a slot number, 24
//! bytes — while the events themselves (a client request is two vectors and a
//! signature) sit still in a slab until they are due. Freed slots are reused,
//! so a steady run allocates nothing here.
//!
//! # The timer lane
//!
//! Every request arms a retransmission timer a whole `retry_timeout_ns` ahead
//! and nearly every one is dead when it fires, so at any moment thousands of
//! them would sit in the heap under the few events that are about to run, and
//! each push and pop of those would sift through a heap thirteen levels deep.
//! They need no heap: they all carry the same delay and the clock never goes
//! back, so each is due no earlier than the one before it, and `seq` only
//! grows — they arrive already in `(at, seq)` order. [`EventQueue::push_timer`]
//! appends such an entry to a FIFO lane beside the heap, and
//! [`EventQueue::pop`] takes whichever of the two heads is smaller.
//!
//! **Why the lane is sorted.** Not because callers promise it: an entry joins
//! the lane only when its time is not before that of the lane's last entry,
//! and goes on the heap otherwise. Its `seq` is larger than every earlier
//! one's, so the lane is in strict `(at, seq)` order by construction, its
//! head is its minimum, and the smaller of the two heads is the minimum of
//! everything queued — the pop sequence is the one a single heap gives. The
//! lane is fed from one kind of event only. Taking any event that happens to
//! be late enough would let a far-off one (a crash plan's recovery) sit at the
//! lane's back and turn every timer before it away to the heap until it fires.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// What the queue orders. `(at, seq)` is unique, so `slot` never decides.
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
    /// Entries that arrived in `(at, seq)` order, oldest first.
    lane: VecDeque<Entry>,
    /// Payloads of the queued entries; `None` marks a slot on `free`.
    slab: Vec<Option<T>>,
    free: Vec<usize>,
    next_seq: u64,
}

impl<T> EventQueue<T> {
    pub(crate) fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            lane: VecDeque::new(),
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
        let entry = self.entry(at, payload);
        self.heap.push(Reverse(entry));
    }

    /// [`EventQueue::push`] for events that mostly come in time order —
    /// timers of one fixed delay. Pops exactly as `push` would have it.
    pub(crate) fn push_timer(&mut self, at: u64, payload: T) {
        let entry = self.entry(at, payload);
        match self.lane.back() {
            Some(last) if at < last.at => self.heap.push(Reverse(entry)),
            _ => self.lane.push_back(entry),
        }
    }

    /// Stores `payload` and gives it the next place in push order.
    fn entry(&mut self, at: u64, payload: T) -> Entry {
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
        Entry { at, seq, slot }
    }

    /// Takes the earliest event: its time and its payload.
    pub(crate) fn pop(&mut self) -> Option<(u64, T)> {
        let entry = match (self.heap.peek(), self.lane.front()) {
            (Some(Reverse(heaped)), Some(laned)) if laned < heaped => self.lane.pop_front(),
            (None, _) => self.lane.pop_front(),
            (Some(_), _) => self.heap.pop().map(|Reverse(entry)| entry),
        }?;
        // An entry's slot is filled at push and emptied only here.
        let payload = self.slab[entry.slot].take()?;
        self.free.push(entry.slot);
        Some((entry.at, payload))
    }

    /// Virtual time of the earliest event.
    pub(crate) fn peek_at(&self) -> Option<u64> {
        let heaped = self.heap.peek().map(|Reverse(entry)| entry.at);
        let laned = self.lane.front().map(|entry| entry.at);
        heaped.into_iter().chain(laned).min()
    }

    /// Entries in the heap proper, the lane's not counted.
    #[cfg(test)]
    pub(crate) fn heap_len(&self) -> usize {
        self.heap.len()
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
        /// pending at once — whichever of the heap and the lane an entry
        /// waited in.
        #[test]
        fn pops_like_a_reference_heap(schedule in proptest::collection::vec(
            // Four pushes to two pops, and few distinct times, so the queue
            // grows, drains and ties on `at` often.
            (0u8..6, 0u64..8), 0..400)) {
            /// Inside the range near events are drawn from, so the two heads
            /// interleave and tie.
            const TIMER_DELAY: u64 = 5;
            let mut queue = EventQueue::new();
            let mut reference: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            let mut high_water = 0;
            // The time of the last pop, as the simulator keeps it.
            let mut now = 0;
            for (op, delay) in schedule {
                let push = match op {
                    // A near event, on the heap.
                    0..=1 => Some((now + delay, false)),
                    // A timer as the simulator arms them: one fixed delay, so
                    // the lane takes every one.
                    2 => Some((now + TIMER_DELAY, true)),
                    // One that breaks the pattern: the lane turns it away
                    // whenever it would come before the lane's last.
                    3 => Some((now + delay, true)),
                    _ => None,
                };
                match push {
                    Some((at, timer)) => {
                        let seq = queue.next_seq();
                        reference.push(Reverse((at, seq)));
                        // The payload names its key, so a mix-up of slots shows.
                        if timer {
                            queue.push_timer(at, (at, seq));
                        } else {
                            queue.push(at, (at, seq));
                        }
                        prop_assert_eq!(queue.next_seq(), seq + 1);
                    }
                    None => {
                        let expected = reference.pop().map(|Reverse(key)| (key.0, key));
                        prop_assert_eq!(queue.pop(), expected);
                        now = expected.map_or(now, |(at, _)| at);
                    }
                }
                high_water = high_water.max(reference.len());
                prop_assert_eq!(queue.peek_at(), reference.peek().map(|Reverse(key)| key.0));
                prop_assert_eq!(queue.slab.len(), high_water);
                prop_assert_eq!(queue.free.len() + reference.len(), queue.slab.len());
                prop_assert_eq!(queue.heap.len() + queue.lane.len(), reference.len());
                let lane = queue.lane.iter();
                prop_assert!(lane.clone().zip(lane.skip(1)).all(|(earlier, later)| earlier < later));
            }
            while let Some(Reverse(key)) = reference.pop() {
                prop_assert_eq!(queue.pop(), Some((key.0, key)));
            }
            prop_assert_eq!(queue.pop(), None);
        }
    }
}
