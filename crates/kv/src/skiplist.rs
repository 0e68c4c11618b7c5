//! A from-scratch skiplist map.
//!
//! The enclave-resident index of the partitioned KV store (paper §A.3) is a skiplist:
//! ordered, with O(log n) expected search/insert/delete, and cheap to keep compact
//! inside the limited enclave memory. This implementation is arena-based (no
//! `unsafe`), generic over the value type, and deterministic: tower heights come from
//! a seeded RNG so tests and simulations are reproducible.
//!
//! # Layout
//!
//! A descent is a chain of dependent loads, so what one step reads decides what a
//! lookup costs. A step here reads one link and one 24-byte search record:
//!
//! * every tower is a run of `height` `u32` links in one pooled vector (the head's
//!   run of sixteen comes first), so "the next node at this level" is one
//!   indexed load, and a freed run goes on a free list of its height for the next
//!   tower that tall;
//! * every arena slot has a search record in a vector of its own: where its tower
//!   starts, and the first 16 bytes of its key as two big-endian words, zero-padded.
//!   The keys and values sit in a third vector that a descent touches only on a tie.
//!
//! **Why the prefix orders as the key does.** Byte strings order by their first
//! differing byte, a proper prefix before its extensions. Take two keys whose padded
//! prefixes differ, first at byte `i < 16`, and say `a`'s byte is the smaller. If both
//! keys are longer than `i`, that byte is their first difference too. Otherwise one of
//! the two bytes is padding — it is the zero, so it is `a`'s — which makes `a` no
//! longer than `i`, all of `a` equal to the start of `b`, and `b` longer than `i`
//! (its byte there is not zero): `a` is a proper prefix of `b`. Either way `a < b`, and
//! big-endian words compare as their bytes do. Equal prefixes decide nothing —
//! `"ab"`, `"ab\0"` and `"ab\0\0"` all pad to the same sixteen bytes — so a tie, and
//! only a tie, is settled by comparing the whole keys.

use std::cmp::Ordering;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Maximum tower height. 2^16 expected elements per level-16 tower is far more than
/// any single replica holds in the experiments.
const MAX_LEVEL: usize = 16;
/// Probability of promoting a node one more level.
const PROMOTE_P: f64 = 0.5;
/// The link that ends a level, and the end of a free list of runs.
const NIL: u32 = u32::MAX;
/// Where the head's tower starts in the link pool: the "−∞" node's run, never freed.
const HEAD: u32 = 0;

/// The first 16 bytes of a key, zero-padded, as two big-endian words.
type Prefix = [u64; 2];

fn prefix_of(key: &[u8]) -> Prefix {
    let mut padded = [0u8; 16];
    let taken = key.len().min(16);
    padded[..taken].copy_from_slice(&key[..taken]);
    let whole = u128::from_be_bytes(padded);
    [(whole >> 64) as u64, whole as u64]
}

/// What a descent reads of an arena slot. Two `u64`s and not a `u128`, whose
/// alignment would round the record up to 32 bytes.
#[derive(Debug, Clone, Copy)]
struct Search {
    prefix: Prefix,
    /// Where the slot's tower starts in the link pool.
    tower: u32,
    height: u32,
}

const _: () = assert!(std::mem::size_of::<Search>() == 24);

#[derive(Debug, Clone)]
struct Node<V> {
    key: Box<[u8]>,
    value: V,
}

/// An ordered map from byte-string keys to values, implemented as a skiplist.
#[derive(Debug, Clone)]
pub struct SkipList<V> {
    /// Arena of nodes; freed slots are reused via `free_list`.
    arena: Vec<Option<Node<V>>>,
    /// `search[i]` describes `arena[i]`; stale while the slot is free.
    search: Vec<Search>,
    free_list: Vec<u32>,
    /// Every tower's links: `links[tower + l]` is the arena index of the next
    /// node at level `l`, or [`NIL`].
    links: Vec<u32>,
    /// `free_runs[h - 1]` heads the list of freed runs of height `h`, each
    /// run's first link naming the next.
    free_runs: [u32; MAX_LEVEL],
    level: usize,
    len: usize,
    rng: StdRng,
}

impl<V> Default for SkipList<V> {
    fn default() -> Self {
        SkipList::new()
    }
}

impl<V> SkipList<V> {
    /// Creates an empty skiplist with the default RNG seed.
    pub fn new() -> Self {
        SkipList::with_seed(0x5EED_5EED)
    }

    /// Creates an empty skiplist whose tower heights derive from `seed`.
    pub fn with_seed(seed: u64) -> Self {
        SkipList {
            arena: Vec::new(),
            search: Vec::new(),
            free_list: Vec::new(),
            links: vec![NIL; MAX_LEVEL],
            free_runs: [NIL; MAX_LEVEL],
            level: 1,
            len: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the list holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn node(&self, idx: u32) -> &Node<V> {
        self.arena[idx as usize].as_ref().expect("live node index")
    }

    fn node_mut(&mut self, idx: u32) -> &mut Node<V> {
        self.arena[idx as usize].as_mut().expect("live node index")
    }

    /// The node after the tower at `tower` on level `lvl`, or [`NIL`].
    fn next_of(&self, tower: u32, lvl: usize) -> u32 {
        self.links[tower as usize + lvl]
    }

    /// One descent toward `key`, recording the predecessor at every level.
    ///
    /// `preds[l]` is where the tower of the predecessor at level `l` starts
    /// ([`HEAD`] when nothing precedes `key` there). Returns them with the
    /// node the descent ends in front of: the first node whose key is not
    /// below `key`, or [`NIL`].
    fn predecessors(&self, key: &[u8]) -> ([u32; MAX_LEVEL], u32) {
        let prefix = prefix_of(key);
        let mut preds = [HEAD; MAX_LEVEL];
        let (mut tower, mut stop) = (HEAD, NIL);
        for lvl in (0..self.level).rev() {
            (tower, stop) = self.advance(tower, stop, lvl, prefix, key);
            preds[lvl] = tower;
        }
        (preds, stop)
    }

    /// The first node whose key is not below `key`, or [`NIL`]: the same
    /// descent as [`SkipList::predecessors`], for searches that change no link.
    fn seek(&self, key: &[u8]) -> u32 {
        let prefix = prefix_of(key);
        let (mut tower, mut stop) = (HEAD, NIL);
        for lvl in (0..self.level).rev() {
            (tower, stop) = self.advance(tower, stop, lvl, prefix, key);
        }
        stop
    }

    /// Walks level `lvl` from the tower at `tower` to the last one whose key
    /// is below `key`; returns it with the node it stopped in front of.
    /// `stop` is the node the level above stopped in front of, known not to
    /// be below `key`: meeting it again ends the walk without a compare.
    fn advance(
        &self,
        mut tower: u32,
        stop: u32,
        lvl: usize,
        prefix: Prefix,
        key: &[u8],
    ) -> (u32, u32) {
        loop {
            let next = self.next_of(tower, lvl);
            if next == stop {
                return (tower, next);
            }
            let record = &self.search[next as usize];
            let below = match record.prefix.cmp(&prefix) {
                Ordering::Less => true,
                Ordering::Greater => false,
                Ordering::Equal => *self.node(next).key < *key,
            };
            if !below {
                return (tower, next);
            }
            tower = record.tower;
        }
    }

    /// True if a descent toward `key` that ended in front of `at` found `key`
    /// itself there.
    fn holds(&self, at: u32, key: &[u8]) -> bool {
        at != NIL && *self.node(at).key == *key
    }

    /// The node holding exactly `key`, if any.
    fn find(&self, key: &[u8]) -> Option<u32> {
        let at = self.seek(key);
        self.holds(at, key).then_some(at)
    }

    fn random_level(&mut self) -> usize {
        let mut level = 1;
        while level < MAX_LEVEL && self.rng.gen_bool(PROMOTE_P) {
            level += 1;
        }
        level
    }

    /// A run of `height` links: the last one freed at that height, or the
    /// pool's next `height` entries. The caller writes every link of it.
    fn take_run(&mut self, height: usize) -> u32 {
        let free = &mut self.free_runs[height - 1];
        if *free != NIL {
            let run = *free;
            *free = self.links[run as usize];
            return run;
        }
        let run = self.links.len();
        assert!(
            run + height < NIL as usize,
            "link pool outgrew its u32 offsets"
        );
        self.links.resize(run + height, NIL);
        run as u32
    }

    /// Returns a reference to the value stored under `key`.
    pub fn get(&self, key: &[u8]) -> Option<&V> {
        self.find(key).map(|idx| &self.node(idx).value)
    }

    /// Returns a mutable reference to the value stored under `key`.
    pub fn get_mut(&mut self, key: &[u8]) -> Option<&mut V> {
        self.find(key).map(|idx| &mut self.node_mut(idx).value)
    }

    /// True if `key` is present.
    pub fn contains_key(&self, key: &[u8]) -> bool {
        self.get(key).is_some()
    }

    /// Inserts `value` under `key`, returning the previous value if the key existed.
    pub fn insert(&mut self, key: &[u8], value: V) -> Option<V> {
        self.upsert(key, |_| value)
    }

    /// Stores under `key` what `update` makes of the value already there
    /// (`None` for a new key) and returns that previous value — in one
    /// descent: the search that finds the old value is the one that places
    /// the new node. A tower height is drawn only for a new key.
    pub fn upsert(&mut self, key: &[u8], update: impl FnOnce(Option<&V>) -> V) -> Option<V> {
        let (preds, at) = self.predecessors(key);
        if self.holds(at, key) {
            let slot = &mut self.node_mut(at).value;
            let value = update(Some(slot));
            return Some(std::mem::replace(slot, value));
        }

        let height = self.random_level();
        if height > self.level {
            self.level = height;
        }

        let node = Some(Node {
            key: key.into(),
            value: update(None),
        });
        let record = Search {
            prefix: prefix_of(key),
            tower: self.take_run(height),
            height: height as u32,
        };
        let idx = match self.free_list.pop() {
            Some(slot) => {
                self.arena[slot as usize] = node;
                self.search[slot as usize] = record;
                slot
            }
            None => {
                let slot = self.arena.len();
                assert!(slot < NIL as usize, "arena outgrew its u32 links");
                self.arena.push(node);
                self.search.push(record);
                slot as u32
            }
        };

        for (lvl, &pred) in preds.iter().enumerate().take(height) {
            let (ours, theirs) = (record.tower as usize + lvl, pred as usize + lvl);
            self.links[ours] = self.links[theirs];
            self.links[theirs] = idx;
        }
        self.len += 1;
        None
    }

    /// Removes `key`, returning its value if it was present.
    pub fn remove(&mut self, key: &[u8]) -> Option<V> {
        let (preds, target) = self.predecessors(key);
        if !self.holds(target, key) {
            return None;
        }
        let Search { tower, height, .. } = self.search[target as usize];
        for (lvl, &pred) in preds.iter().enumerate().take(height as usize) {
            // Every predecessor below the target's height points at it: it is
            // the first node on that level whose key is not below `key`.
            let (ours, theirs) = (tower as usize + lvl, pred as usize + lvl);
            debug_assert_eq!(self.links[theirs], target);
            self.links[theirs] = self.links[ours];
        }
        // Shrink the active level if the top levels became empty.
        while self.level > 1 && self.next_of(HEAD, self.level - 1) == NIL {
            self.level -= 1;
        }
        let free = &mut self.free_runs[height as usize - 1];
        self.links[tower as usize] = *free;
        *free = tower;
        let node = self.arena[target as usize].take().expect("live node index");
        self.free_list.push(target);
        self.len -= 1;
        Some(node.value)
    }

    /// Iterates over `(key, value)` pairs in ascending key order.
    pub fn iter(&self) -> SkipListIter<'_, V> {
        SkipListIter {
            list: self,
            cursor: self.next_of(HEAD, 0),
        }
    }

    /// Returns the first entry at or after `key` (inclusive lower bound), if any.
    pub fn lower_bound(&self, key: &[u8]) -> Option<(&[u8], &V)> {
        let at = self.seek(key);
        (at != NIL).then(|| {
            let node = self.node(at);
            (&*node.key, &node.value)
        })
    }

    /// Approximate bytes the index keeps per live key (the enclave-resident part of
    /// the store's memory accounting): the key, its 24-byte search record and four
    /// bytes per link of its tower. Value sizes are accounted separately by the store
    /// because values may live in host memory; `StoreStats::enclave_bytes` adds the
    /// value metadata to this figure and means what it always did — what the enclave
    /// holds for the live keys, not what the allocator holds for the index.
    pub fn index_bytes(&self) -> usize {
        let link = std::mem::size_of::<u32>();
        self.arena
            .iter()
            .zip(&self.search)
            .filter_map(|(slot, record)| {
                let key = slot.as_ref()?.key.len();
                Some(key + std::mem::size_of::<Search>() + record.height as usize * link)
            })
            .sum()
    }
}

/// Iterator over a [`SkipList`] in key order.
pub struct SkipListIter<'a, V> {
    list: &'a SkipList<V>,
    cursor: u32,
}

impl<'a, V> Iterator for SkipListIter<'a, V> {
    type Item = (&'a [u8], &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cursor == NIL {
            return None;
        }
        let node = self.list.node(self.cursor);
        self.cursor = self
            .list
            .next_of(self.list.search[self.cursor as usize].tower, 0);
        Some((&*node.key, &node.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn empty_list_behaviour() {
        let list: SkipList<u32> = SkipList::new();
        assert!(list.is_empty());
        assert_eq!(list.len(), 0);
        assert_eq!(list.get(b"missing"), None);
        assert_eq!(list.iter().count(), 0);
        assert!(list.lower_bound(b"anything").is_none());
    }

    #[test]
    fn insert_get_update_remove() {
        let mut list = SkipList::new();
        assert_eq!(list.insert(b"b", 2), None);
        assert_eq!(list.insert(b"a", 1), None);
        assert_eq!(list.insert(b"c", 3), None);
        assert_eq!(list.len(), 3);
        assert_eq!(list.get(b"a"), Some(&1));
        assert_eq!(list.get(b"b"), Some(&2));
        assert_eq!(list.get(b"c"), Some(&3));
        assert!(list.contains_key(b"a"));
        assert!(!list.contains_key(b"d"));

        // Update returns the old value and does not grow the list.
        assert_eq!(list.insert(b"b", 20), Some(2));
        assert_eq!(list.len(), 3);
        assert_eq!(list.get(b"b"), Some(&20));

        // Mutation in place.
        *list.get_mut(b"a").unwrap() += 100;
        assert_eq!(list.get(b"a"), Some(&101));

        assert_eq!(list.remove(b"b"), Some(20));
        assert_eq!(list.remove(b"b"), None);
        assert_eq!(list.len(), 2);
        assert_eq!(list.get(b"b"), None);
    }

    #[test]
    fn iteration_is_in_key_order() {
        let mut list = SkipList::new();
        for key in ["delta", "alpha", "echo", "charlie", "bravo"] {
            list.insert(key.as_bytes(), key.len());
        }
        let keys: Vec<&[u8]> = list.iter().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            vec![
                b"alpha".as_slice(),
                b"bravo".as_slice(),
                b"charlie".as_slice(),
                b"delta".as_slice(),
                b"echo".as_slice()
            ]
        );
    }

    #[test]
    fn lower_bound_finds_successors() {
        let mut list = SkipList::new();
        for key in [b"b".as_slice(), b"d", b"f"] {
            list.insert(key, ());
        }
        assert_eq!(list.lower_bound(b"a").unwrap().0, b"b");
        assert_eq!(list.lower_bound(b"b").unwrap().0, b"b");
        assert_eq!(list.lower_bound(b"c").unwrap().0, b"d");
        assert_eq!(list.lower_bound(b"f").unwrap().0, b"f");
        assert!(list.lower_bound(b"g").is_none());
    }

    #[test]
    fn arena_slots_are_reused_after_removal() {
        let mut list = SkipList::new();
        for i in 0..100u32 {
            list.insert(format!("key{i:03}").as_bytes(), i);
        }
        let arena_size_before = list.arena.len();
        for i in 0..50u32 {
            list.remove(format!("key{i:03}").as_bytes());
        }
        for i in 100..150u32 {
            list.insert(format!("key{i:03}").as_bytes(), i);
        }
        assert_eq!(list.arena.len(), arena_size_before);
        assert_eq!(list.len(), 100);
    }

    #[test]
    fn index_bytes_tracks_keys() {
        let mut list = SkipList::new();
        assert_eq!(list.index_bytes(), 0);
        list.insert(b"0123456789", ());
        assert!(list.index_bytes() >= 10);
        let with_one = list.index_bytes();
        list.insert(b"abcdefghij", ());
        let with_two = list.index_bytes();
        assert!(with_two >= with_one + 10);
        list.remove(b"0123456789");
        // Removing a key releases its key bytes and tower pointers.
        assert_eq!(list.index_bytes(), with_two - with_one);
    }

    #[test]
    fn large_insert_remove_stress_against_btreemap() {
        let mut list = SkipList::with_seed(7);
        let mut model = BTreeMap::new();
        for i in 0..2_000u64 {
            let key = format!("k{:05}", (i * 7919) % 3000);
            list.insert(key.as_bytes(), i);
            model.insert(key.into_bytes(), i);
        }
        for i in 0..1_000u64 {
            let key = format!("k{:05}", (i * 104729) % 3000);
            assert_eq!(list.remove(key.as_bytes()), model.remove(key.as_bytes()));
        }
        assert_eq!(list.len(), model.len());
        let listed: Vec<(Vec<u8>, u64)> = list.iter().map(|(k, v)| (k.to_vec(), *v)).collect();
        let modeled: Vec<(Vec<u8>, u64)> = model.into_iter().collect();
        assert_eq!(listed, modeled);
    }

    /// The figures are what the list with a heap-allocated `forward` vector
    /// per node gave for this history: the same towers (drawn from the RNG
    /// only for new keys, in the same order) and the same entries in the same
    /// order.
    #[test]
    fn towers_and_order_are_pinned_for_a_fixed_history() {
        let mut list = SkipList::with_seed(7);
        let key = |n: u64| format!("k{:05}", n % 3000).into_bytes();
        for i in 0..2_000u64 {
            list.insert(&key(i * 7919), i);
        }
        for i in 0..1_000u64 {
            list.remove(&key(i * 104_729));
        }
        // Overwrites draw no tower; new keys reuse freed arena slots.
        for i in 0..1_500u64 {
            list.insert(&key(i * 31), i);
        }
        let order = list.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, (k, v)| {
            k.iter().chain(&v.to_le_bytes()).fold(hash, |h, b| {
                (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3)
            })
        });
        assert_eq!(list.len(), 2167);
        assert_eq!(order, 0xed22_6299_2ff3_25d5);
        // Each key's height, in key order: 4 273 links in all, which that
        // list charged at eight bytes each beside 13 002 key bytes (47 186).
        let heights = list.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, (k, _)| {
            let height = list.search[list.find(k).unwrap() as usize].height;
            (hash ^ u64::from(height)).wrapping_mul(0x100_0000_01b3)
        });
        assert_eq!(heights, 0x9442_9046_9aba_41a4);
        assert_eq!(list.level, 13);
        assert_eq!(list.index_bytes(), 13_002 + 2167 * 24 + 4273 * 4);
    }

    /// Migration drains a range through `delete` and a later one refills it:
    /// a freed run is the next tower of its height, so the pool holds, per
    /// height, as many runs as were ever live at once — and no more.
    #[test]
    fn churn_does_not_grow_the_link_pool_past_its_high_water() {
        let mut list = SkipList::with_seed(11);
        let key = |n: u64| format!("range/{n:05}").into_bytes();
        let height_of = |list: &SkipList<u64>, key: &[u8]| {
            list.search[list.find(key).unwrap() as usize].height as usize
        };
        let mut live = [0usize; MAX_LEVEL + 1];
        let mut high_water = [0usize; MAX_LEVEL + 1];
        for round in 0..40u64 {
            // Half of these are still there from the round before (no tower
            // drawn), half are new.
            for n in round * 150..round * 150 + 300 {
                if list.insert(&key(n), n).is_none() {
                    let height = height_of(&list, &key(n));
                    live[height] += 1;
                    high_water[height] = high_water[height].max(live[height]);
                }
            }
            for n in round * 150..round * 150 + 150 {
                live[height_of(&list, &key(n))] -= 1;
                assert_eq!(list.remove(&key(n)), Some(n));
            }
        }
        let runs: usize = (1..=MAX_LEVEL).map(|h| h * high_water[h]).sum();
        assert_eq!(list.links.len(), MAX_LEVEL + runs);
        assert_eq!((list.arena.len(), list.search.len()), (300, 300));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Keys come in the shapes the prefix has to get right: short ones,
        /// the empty one, runs of `0x00` that only the length tells apart
        /// (`"ab"`, `"ab\0"`, `"ab\0\0"`), lengths either side of the sixteen
        /// bytes a prefix holds, and — like the gateway's `tenant/user0000…`
        /// keys — ones that differ only behind a shared prefix longer than that.
        #[test]
        fn behaves_like_btreemap(ops in proptest::collection::vec(
            (0u8..4, 0u8..5, proptest::collection::vec(0u8..4, 0..6), any::<u32>()), 0..200)) {
            let mut list = SkipList::with_seed(3);
            let mut model: BTreeMap<Vec<u8>, u32> = BTreeMap::new();
            for (op, shape, tail, value) in ops {
                let stem: &[u8] = match shape {
                    0 => b"",
                    1 => b"ab",
                    2 => b"tenant-000/use",
                    3 => b"tenant-000/user0",
                    _ => b"tenant-000/user0000000",
                };
                // Few distinct bytes, so keys repeat; `0xff` for the sign bit.
                let tail = tail.iter().map(|&b| if b == 3 { 0xff } else { b });
                let key: Vec<u8> = stem.iter().copied().chain(tail).collect();
                match op {
                    0 => {
                        prop_assert_eq!(list.insert(&key, value), model.insert(key.clone(), value));
                    }
                    1 => {
                        prop_assert_eq!(list.remove(&key), model.remove(&key));
                    }
                    2 => {
                        // The closure sees the value it replaces, or `None`.
                        let bump = |old: Option<&u32>| old.map_or(value, |v| v.wrapping_add(value));
                        let next = bump(model.get(&key));
                        prop_assert_eq!(list.upsert(&key, bump), model.insert(key.clone(), next));
                        prop_assert_eq!(list.get(&key), Some(&next));
                    }
                    _ => {
                        prop_assert_eq!(list.get(&key), model.get(&key));
                        prop_assert_eq!(
                            list.lower_bound(&key).map(|(k, v)| (k.to_vec(), *v)),
                            model.range(key.clone()..).next().map(|(k, v)| (k.clone(), *v))
                        );
                    }
                }
                prop_assert_eq!(list.len(), model.len());
            }
            let listed: Vec<(Vec<u8>, u32)> = list.iter().map(|(k, v)| (k.to_vec(), *v)).collect();
            let modeled: Vec<(Vec<u8>, u32)> = model.into_iter().collect();
            prop_assert_eq!(listed, modeled);
        }
    }
}
