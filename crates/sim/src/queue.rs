//! The event calendar: every pending event of a run, in one order.
//!
//! Events run in [`Key`] order: virtual time, then [`Owner`], then the order
//! their owner scheduled them in. Each owner numbers its own pushes, so a
//! group's `seq`, which its fault injector takes as a wire id, depends on
//! nothing another group or the driver does.
//!
//! A binary heap keeps that order by moving entries up and down, so what it
//! holds is kept small — the key and a slot number, 24 bytes — while the
//! events themselves (a client request is two vectors and a signature) sit
//! still in a slab until they are due. Freed slots are reused, so a steady
//! run allocates nothing here.
//!
//! # The timer lane
//!
//! Every request arms a retransmission timer a whole
//! [`crate::cost::RETRY_TIMEOUT_NS`] ahead and nearly every one is dead when
//! it fires, so at any moment thousands of them would sit in the heap under
//! the few events that are about to run, and each push and pop of those would
//! sift through a heap thirteen levels deep.
//! They need no heap: they all carry the same delay and the clock never goes
//! back, so they arrive nearly in key order. [`Calendar::push_timer`] appends
//! such an entry to a FIFO lane beside the heap, and [`Calendar::pop`] takes
//! whichever of the two heads is smaller.
//!
//! **Why the lane is sorted.** Not because callers promise it: an entry joins
//! the lane only when its whole key is greater than the lane's last, and goes
//! on the heap otherwise (a lower-numbered group's timer due at the same
//! instant, say). So the lane is in strict key order by construction, its
//! head is its minimum, and the pop sequence is the one a single heap gives.
//! The lane is fed from one kind of event only. Taking any event that happens
//! to be late enough would let a far-off one (a crash plan's recovery) sit at
//! the lane's back and turn every timer before it away to the heap.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Whose event it is. Owners order as their tie order at one instant: the
/// driver, the controller, then each group by shard index. A plain integer,
/// so that keys compare as integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Owner(u32);

impl Owner {
    /// The request driver: client issues, retries and 2PC steps.
    pub const DRIVER: Owner = Owner(0);
    /// The rebalancing controller, whose deadline is derived, never queued.
    pub const CONTROLLER: Owner = Owner(1);

    /// Replica group `shard`.
    pub(crate) fn shard(shard: u16) -> Owner {
        Owner(2 + u32::from(shard))
    }

    /// The shard index of a group's owner.
    pub fn shard_index(self) -> Option<usize> {
        self.0.checked_sub(2).map(|shard| shard as usize)
    }
}

/// Where an event sorts: `(at, owner, seq)` is unique, so the slot its
/// payload waits in never decides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    /// Virtual time the event is due at.
    pub at: u64,
    /// Whose event it is.
    pub owner: Owner,
    seq: u64,
    slot: u32,
}

const _: () = assert!(std::mem::size_of::<Reverse<Key>>() == 24);

/// A calendar of `T`s that pops them in [`Key`] order.
#[derive(Debug)]
pub struct Calendar<T> {
    heap: BinaryHeap<Reverse<Key>>,
    /// Entries that arrived in key order, oldest first.
    lane: VecDeque<Key>,
    /// Payloads of the queued entries; `None` marks a slot on `free`.
    slab: Vec<Option<T>>,
    free: Vec<u32>,
    /// Each owner's push count, at its number, grown on an owner's first
    /// push.
    seqs: Vec<u64>,
}

impl<T> Default for Calendar<T> {
    fn default() -> Self {
        Calendar {
            heap: BinaryHeap::new(),
            lane: VecDeque::new(),
            slab: Vec::new(),
            free: Vec::new(),
            seqs: Vec::new(),
        }
    }
}

impl<T> Calendar<T> {
    /// The `seq` `owner`'s next push will take: how many events it ever
    /// scheduled.
    pub(crate) fn next_seq(&self, owner: Owner) -> u64 {
        self.seqs.get(owner.0 as usize).copied().unwrap_or(0)
    }

    /// Schedules `payload` for virtual time `at`, behind everything `owner`
    /// already scheduled for that time.
    pub fn push(&mut self, at: u64, owner: Owner, payload: T) {
        let key = self.key(at, owner, payload);
        self.heap.push(Reverse(key));
    }

    /// [`Calendar::push`] for events that mostly come in key order — timers
    /// of one fixed delay. Pops exactly as `push` would have it.
    pub(crate) fn push_timer(&mut self, at: u64, owner: Owner, payload: T) {
        let key = self.key(at, owner, payload);
        match self.lane.back() {
            Some(last) if key < *last => self.heap.push(Reverse(key)),
            _ => self.lane.push_back(key),
        }
    }

    /// Stores `payload` and gives it `owner`'s next place in push order.
    fn key(&mut self, at: u64, owner: Owner, payload: T) -> Key {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(payload);
                slot
            }
            None => {
                self.slab.push(Some(payload));
                // recipe-lint: allow(unwrap-in-lib, reason = "the slab holds only pending events, a few per client")
                u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 pending events")
            }
        };
        let index = owner.0 as usize;
        if index >= self.seqs.len() {
            self.seqs.resize(index + 1, 0);
        }
        self.seqs[index] += 1;
        Key {
            at,
            owner,
            seq: self.seqs[index] - 1,
            slot,
        }
    }

    /// Takes the earliest event: its key and its payload.
    pub fn pop(&mut self) -> Option<(Key, T)> {
        let key = match (self.heap.peek(), self.lane.front()) {
            (Some(Reverse(heaped)), Some(laned)) if laned < heaped => self.lane.pop_front(),
            (None, _) => self.lane.pop_front(),
            (Some(_), _) => self.heap.pop().map(|Reverse(key)| key),
        }?;
        // A slot is filled at push and emptied only here and in `cancel`,
        // which takes its key with it.
        let payload = self.slab[key.slot as usize].take()?;
        self.free.push(key.slot);
        Some((key, payload))
    }

    /// Key of the earliest event.
    pub fn peek(&self) -> Option<Key> {
        let heaped = self.heap.peek().map(|Reverse(key)| *key);
        heaped.into_iter().chain(self.lane.front().copied()).min()
    }

    /// Drops every pending event of `owner`.
    pub fn cancel(&mut self, owner: Owner) {
        let (slab, free) = (&mut self.slab, &mut self.free);
        let mut keep = |key: &Key| {
            if key.owner == owner {
                slab[key.slot as usize] = None;
                free.push(key.slot);
            }
            key.owner != owner
        };
        self.heap.retain(|Reverse(key)| keep(key));
        self.lane.retain(keep);
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

    /// The part of a key that orders.
    fn full(key: Key) -> (u64, Owner, u64) {
        (key.at, key.owner, key.seq)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Any schedule of pushes and pops — the driver's events and two
        /// groups' — comes out in the order a heap of bare keys gives, each
        /// key with the payload it was pushed with; each owner numbers only
        /// its own pushes; and the slab never outgrows the most events that
        /// were pending at once — whichever of the heap and the lane an entry
        /// waited in.
        #[test]
        fn pops_like_a_reference_heap(schedule in proptest::collection::vec(
            // Five pushes to two pops, and few distinct times, so the queue
            // grows, drains and ties on `at` often — across owners too.
            (0u8..7, 0u64..8, 0usize..3), 0..400)) {
            /// Inside the range near events are drawn from, so the two heads
            /// interleave and tie.
            const TIMER_DELAY: u64 = 5;
            let owners = [Owner::DRIVER, Owner::shard(0), Owner::shard(1)];
            let mut queue = Calendar::default();
            let mut reference: BinaryHeap<Reverse<(u64, Owner, u64)>> = BinaryHeap::new();
            let mut pushed = [0u64; 3];
            let mut high_water = 0;
            // The time of the last pop, as the simulator keeps it.
            let mut now = 0;
            for (op, delay, who) in schedule {
                let push = match op {
                    // A near event, on the heap: the driver's or a group's.
                    0..=1 => Some((now + delay, who, false)),
                    // A group's timer as the simulator arms them: one fixed
                    // delay, so two groups' tie whenever they are armed at
                    // one instant, and only a key behind the lane's last
                    // joins it.
                    2..=3 => Some((now + TIMER_DELAY, 1 + who % 2, true)),
                    // One that breaks the pattern: the lane turns it away
                    // whenever it would come before the lane's last.
                    4 => Some((now + delay, 1 + who % 2, true)),
                    _ => None,
                };
                match push {
                    Some((at, who, timer)) => {
                        let owner = owners[who];
                        let key = (at, owner, queue.next_seq(owner));
                        prop_assert_eq!(key.2, pushed[who]);
                        reference.push(Reverse(key));
                        // The payload is its key, so a mix-up of slots shows.
                        if timer {
                            queue.push_timer(at, owner, key);
                        } else {
                            queue.push(at, owner, key);
                        }
                        pushed[who] += 1;
                        for (i, &owner) in owners.iter().enumerate() {
                            prop_assert_eq!(queue.next_seq(owner), pushed[i]);
                        }
                    }
                    None => {
                        let expected = reference.pop().map(|Reverse(key)| (key, key));
                        prop_assert_eq!(queue.pop().map(|(key, payload)| (full(key), payload)), expected);
                        now = expected.map_or(now, |(key, _)| key.0);
                    }
                }
                high_water = high_water.max(reference.len());
                prop_assert_eq!(queue.peek().map(full), reference.peek().map(|Reverse(key)| *key));
                prop_assert_eq!(queue.slab.len(), high_water);
                prop_assert_eq!(queue.free.len() + reference.len(), queue.slab.len());
                prop_assert_eq!(queue.heap.len() + queue.lane.len(), reference.len());
                let lane = queue.lane.iter();
                prop_assert!(lane.clone().zip(lane.skip(1)).all(|(earlier, later)| earlier < later));
            }
            // The driver's events go; the groups' still pop in order.
            queue.cancel(Owner::DRIVER);
            reference.retain(|Reverse(key)| key.1 != Owner::DRIVER);
            prop_assert_eq!(queue.free.len() + reference.len(), queue.slab.len());
            while let Some(Reverse(key)) = reference.pop() {
                prop_assert_eq!(queue.pop().map(|(key, payload)| (full(key), payload)), Some((key, key)));
            }
            prop_assert_eq!(queue.pop(), None);
        }
    }
}
