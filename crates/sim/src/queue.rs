//! The event calendar: every pending event of a run, in one order.
//!
//! Events run in [`Key`] order: virtual time, then [`Owner`], then the order
//! their owner scheduled them in. Each owner numbers its own pushes, so a
//! group's `seq`, which its link takes as a wire id, depends on
//! nothing another group or the driver does.
//!
//! A binary heap keeps that order by moving entries up and down, so what it
//! holds is kept small — the key and a slot number, 24 bytes — while the
//! events themselves (a client request is two vectors and a signature) sit
//! still in a slab until they are due. Freed slots are reused, so a steady
//! run allocates nothing here.
//!
//! # One timer per client
//!
//! Every request has a retransmission timer a whole
//! [`crate::cost::RETRY_TIMEOUT_NS`] ahead, and nearly every request is
//! answered long before it fires. A client therefore keeps at most one timer
//! on the calendar: a submit arms one only when the client has none pending,
//! and a timer that fires before its client's current request is due moves
//! itself on to that instant ([`crate::cluster`]'s `ClientRetry`). So the
//! calendar holds a few events and one timer per client, however long the run,
//! and every resend still happens at the instant its request fell due.
//!
//! **A timer is its key.** A timer carries nothing but a small tag (the
//! client it retransmits for), so it needs no slab slot: its key keeps the
//! tag in `slot`, under the [`TIMER`] bit, and [`Calendar::pop`] rebuilds the
//! payload with [`TimerPayload::from_timer`]. The slab holds only events, and
//! a pending timer costs its 24-byte key, not a slot the size of the largest
//! event as well.
//!
//! **Why a timer that resends nothing still pops.** Whether a timer is dead
//! is its owner's to say when it fires (its request was answered, or is due
//! later), not the calendar's. And a dead timer still does work: it takes its
//! place in key order and moves its group's clock to its time, which the
//! group's elapsed time and its telemetry read.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use serde::{Deserialize, Serialize};

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
/// payload waits in (or a timer's tag) never decides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    /// Virtual time the event is due at.
    pub at: u64,
    /// Whose event it is.
    pub owner: Owner,
    seq: u64,
    /// The payload's slab slot, or [`TIMER`] and a timer's tag.
    slot: u32,
}

const _: () = assert!(std::mem::size_of::<Reverse<Key>>() == 24);

/// Marks a key's `slot` as a timer's tag: a timer holds no slab slot.
const TIMER: u32 = 1 << 31;

impl Key {
    /// The tag of a timer's key; `None` for an event's.
    fn timer_tag(self) -> Option<u32> {
        (self.slot & TIMER != 0).then_some(self.slot & !TIMER)
    }
}

/// A payload that a timer's tag stands for: what [`Calendar::pop`] hands out
/// for a timer's key, which holds the tag and no payload.
pub trait TimerPayload {
    /// The payload of a timer tagged `tag`.
    fn from_timer(tag: u32) -> Self;
}

/// What a calendar served, counted as it goes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CalendarCounts {
    /// Events popped, timers included.
    pub popped: u64,
    /// Of those, timers.
    pub timers: u64,
    /// Of those timers, the dead ones: those that resent nothing, their
    /// client's request answered or not yet due (the timer then moves
    /// itself on to the request's instant).
    pub dead_timers: u64,
}

/// A calendar of `T`s that pops them in [`Key`] order.
#[derive(Debug)]
pub struct Calendar<T> {
    heap: BinaryHeap<Reverse<Key>>,
    /// Payloads of the queued events, timers' not among them; `None` marks a
    /// slot on `free`.
    slab: Vec<Option<T>>,
    free: Vec<u32>,
    /// Each owner's push count, at its number, grown on an owner's first
    /// push.
    seqs: Vec<u64>,
    /// What was popped since the counts were last taken.
    counts: CalendarCounts,
}

impl<T> Default for Calendar<T> {
    fn default() -> Self {
        Calendar {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            seqs: Vec::new(),
            counts: CalendarCounts::default(),
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
        let slot = self.store(payload);
        let key = self.key(at, owner, slot);
        self.heap.push(Reverse(key));
    }

    /// Schedules a timer tagged `tag` (below 2^31) as [`Calendar::push`]
    /// would, with no slab slot: it pops as
    /// [`TimerPayload::from_timer`]`(tag)`.
    pub(crate) fn push_timer(&mut self, at: u64, owner: Owner, tag: u32) {
        assert!(tag & TIMER == 0, "a timer's tag is below 2^31");
        let key = self.key(at, owner, TIMER | tag);
        self.heap.push(Reverse(key));
    }

    /// Puts `payload` in a free slab slot and names the slot.
    fn store(&mut self, payload: T) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(payload);
                slot
            }
            None => {
                self.slab.push(Some(payload));
                // The slab holds only pending events, a few per client.
                let slot = self.slab.len() - 1;
                assert!(slot < TIMER as usize, "fewer than 2^31 pending events");
                slot as u32
            }
        }
    }

    /// The key of `slot`, in `owner`'s next place in push order.
    fn key(&mut self, at: u64, owner: Owner, slot: u32) -> Key {
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

    /// Counts a timer that was popped and found dead.
    pub(crate) fn count_dead_timer(&mut self) {
        self.counts.dead_timers += 1;
    }

    /// The counts since they were last taken, which start again from zero.
    pub fn take_counts(&mut self) -> CalendarCounts {
        std::mem::take(&mut self.counts)
    }

    /// Key of the earliest event.
    pub fn peek(&self) -> Option<Key> {
        self.heap.peek().map(|Reverse(key)| *key)
    }

    /// Drops every pending event of `owner`, its timers too.
    pub fn cancel(&mut self, owner: Owner) {
        let (slab, free) = (&mut self.slab, &mut self.free);
        self.heap.retain(|Reverse(key)| {
            if key.owner == owner && key.timer_tag().is_none() {
                slab[key.slot as usize] = None;
                free.push(key.slot);
            }
            key.owner != owner
        });
    }

    /// Every pending event but the timers, with its owner, in no order.
    pub fn pending(&self) -> impl Iterator<Item = (Owner, &T)> {
        self.heap.iter().filter_map(|Reverse(key)| {
            let slot = key.timer_tag().is_none().then_some(key.slot as usize)?;
            Some((key.owner, self.slab[slot].as_ref()?))
        })
    }

    /// Entries on the calendar, timers included.
    #[cfg(test)]
    pub(crate) fn heap_len(&self) -> usize {
        self.heap.len()
    }

    /// Timers on the calendar of `owner` tagged `tag`.
    #[cfg(test)]
    pub(crate) fn timers_of(&self, owner: Owner, tag: u32) -> usize {
        let tagged =
            |Reverse(key): &&Reverse<Key>| key.owner == owner && key.timer_tag() == Some(tag);
        self.heap.iter().filter(tagged).count()
    }

    /// Slab slots ever taken: the most events that were pending at once.
    #[cfg(test)]
    pub(crate) fn slab_len(&self) -> usize {
        self.slab.len()
    }
}

impl<T: TimerPayload> Calendar<T> {
    /// Takes the earliest event: its key and its payload.
    pub fn pop(&mut self) -> Option<(Key, T)> {
        let Reverse(key) = self.heap.pop()?;
        self.counts.popped += 1;
        if let Some(tag) = key.timer_tag() {
            self.counts.timers += 1;
            return Some((key, T::from_timer(tag)));
        }
        // A slot is filled at push and emptied only here and in `cancel`,
        // which takes its key with it.
        let payload = self.slab[key.slot as usize].take()?;
        self.free.push(key.slot);
        Some((key, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The part of a key that orders.
    type Order = (u64, Owner, u64);

    /// A test payload: an event carries its own key, so a mix-up of slots
    /// shows; a timer is what its tag rebuilds.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Payload {
        Event(Order),
        Timer(u32),
    }

    impl TimerPayload for Payload {
        fn from_timer(tag: u32) -> Self {
            Payload::Timer(tag)
        }
    }

    fn full(key: Key) -> Order {
        (key.at, key.owner, key.seq)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Any schedule of pushes and pops — the driver's events and two
        /// groups' events and timers — comes out in the order a heap of bare
        /// keys gives, each event with the payload it was pushed with and
        /// each timer as its tag rebuilds it; each owner numbers only its
        /// own pushes; the calendar counts what it popped; the slab never
        /// outgrows the most events (timers not counted) that were pending at
        /// once; and cancelling an owner drops its timers with its events.
        #[test]
        fn pops_like_a_reference_heap(schedule in proptest::collection::vec(
            // Five pushes to two pops, and few distinct times, so the queue
            // grows, drains and ties on `at` often — across owners too.
            (0u8..7, 0u64..8, 0usize..3), 0..400)) {
            let owners = [Owner::DRIVER, Owner::shard(0), Owner::shard(1)];
            let mut queue = Calendar::default();
            let mut reference: BinaryHeap<Reverse<(Order, Payload)>> = BinaryHeap::new();
            let pending_events = |reference: &BinaryHeap<Reverse<(Order, Payload)>>| {
                reference.iter().filter(|Reverse((_, p))| matches!(p, Payload::Event(_))).count()
            };
            let mut pushed = [0u64; 3];
            let (mut popped, mut timers) = (0, 0);
            let mut high_water = 0;
            // The time of the last pop, as the simulator keeps it.
            let mut now = 0;
            for (op, delay, who) in schedule {
                let push = match op {
                    // A near event: the driver's or a group's.
                    0..=1 => Some((now + delay, who, false)),
                    // A group's timer, tying with events and the other
                    // group's timers at one instant.
                    2..=4 => Some((now + delay, 1 + who % 2, true)),
                    _ => None,
                };
                match push {
                    Some((at, who, timer)) => {
                        let owner = owners[who];
                        let key = (at, owner, queue.next_seq(owner));
                        prop_assert_eq!(key.2, pushed[who]);
                        if timer {
                            // Any tag below the marker bit, its high bits set
                            // too.
                            let tag = (key.2 as u32).wrapping_mul(0x9E37_79B9) >> 1;
                            queue.push_timer(at, owner, tag);
                            reference.push(Reverse((key, Payload::Timer(tag))));
                        } else {
                            queue.push(at, owner, Payload::Event(key));
                            reference.push(Reverse((key, Payload::Event(key))));
                        }
                        pushed[who] += 1;
                        for (i, &owner) in owners.iter().enumerate() {
                            prop_assert_eq!(queue.next_seq(owner), pushed[i]);
                        }
                    }
                    None => {
                        let expected = reference.pop().map(|Reverse(entry)| entry);
                        prop_assert_eq!(queue.pop().map(|(key, payload)| (full(key), payload)), expected);
                        now = expected.map_or(now, |(key, _)| key.0);
                        if let Some((_, payload)) = expected {
                            popped += 1;
                            timers += u64::from(matches!(payload, Payload::Timer(_)));
                        }
                    }
                }
                prop_assert_eq!((queue.counts.popped, queue.counts.timers), (popped, timers));
                high_water = high_water.max(pending_events(&reference));
                let head = reference.peek().map(|Reverse((key, _))| *key);
                prop_assert_eq!(queue.peek().map(full), head);
                prop_assert_eq!(queue.slab.len(), high_water);
                prop_assert_eq!(queue.free.len() + pending_events(&reference), queue.slab.len());
                prop_assert_eq!(queue.heap.len(), reference.len());
            }
            // The driver's events go, and so do group 0's events and timers;
            // group 1's still pop in order.
            for owner in [Owner::DRIVER, Owner::shard(0)] {
                queue.cancel(owner);
                reference.retain(|Reverse(((_, of, _), _))| *of != owner);
            }
            prop_assert_eq!(queue.heap.len(), reference.len());
            prop_assert_eq!(queue.free.len() + pending_events(&reference), queue.slab.len());
            while let Some(Reverse(entry)) = reference.pop() {
                prop_assert_eq!(queue.pop().map(|(key, payload)| (full(key), payload)), Some(entry));
            }
            prop_assert_eq!(queue.pop(), None);
        }
    }
}
