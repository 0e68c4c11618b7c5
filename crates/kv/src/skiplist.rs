//! A from-scratch skiplist map.
//!
//! The enclave-resident index of the partitioned KV store (paper §A.3) is a skiplist:
//! ordered, with O(log n) expected search/insert/delete, and cheap to keep compact
//! inside the limited enclave memory. This implementation is arena-based (no
//! `unsafe`), generic over the value type, and deterministic: tower heights come from
//! a seeded RNG so tests and simulations are reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Maximum tower height. 2^16 expected elements per level-16 tower is far more than
/// any single replica holds in the experiments.
const MAX_LEVEL: usize = 16;
/// Probability of promoting a node one more level.
const PROMOTE_P: f64 = 0.5;

#[derive(Debug, Clone)]
struct Node<V> {
    key: Vec<u8>,
    value: V,
    /// `forward[l]` is the arena index of the next node at level `l`, if any.
    forward: Vec<Option<usize>>,
}

/// An ordered map from byte-string keys to values, implemented as a skiplist.
#[derive(Debug, Clone)]
pub struct SkipList<V> {
    /// Arena of nodes; freed slots are reused via `free_list`.
    arena: Vec<Option<Node<V>>>,
    free_list: Vec<usize>,
    /// Head forward pointers (the virtual "−∞" node's tower).
    head: Vec<Option<usize>>,
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
            free_list: Vec::new(),
            head: vec![None; MAX_LEVEL],
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

    fn node(&self, idx: usize) -> &Node<V> {
        self.arena[idx].as_ref().expect("live node index")
    }

    fn node_mut(&mut self, idx: usize) -> &mut Node<V> {
        self.arena[idx].as_mut().expect("live node index")
    }

    /// One descent toward `key`, recording the predecessor at every level.
    ///
    /// `preds[l]` is `None` when the predecessor at level `l` is the head.
    /// Returns them with the node the descent ends in front of: the first
    /// node whose key is not below `key`.
    fn predecessors(&self, key: &[u8]) -> ([Option<usize>; MAX_LEVEL], Option<usize>) {
        let mut preds = [None; MAX_LEVEL];
        let mut current: Option<usize> = None; // None = head
        for (lvl, pred) in preds.iter_mut().enumerate().take(self.level).rev() {
            current = self.advance(current, lvl, key);
            *pred = current;
        }
        (preds, self.next_of(preds[0], 0))
    }

    /// The first node whose key is not below `key`: the same descent as
    /// [`SkipList::predecessors`], for searches that change no link.
    fn seek(&self, key: &[u8]) -> Option<usize> {
        let mut current: Option<usize> = None; // None = head
        for lvl in (0..self.level).rev() {
            current = self.advance(current, lvl, key);
        }
        self.next_of(current, 0)
    }

    /// Walks level `lvl` from `from` (`None` = head) to the last node whose
    /// key is below `key`.
    fn advance(&self, from: Option<usize>, lvl: usize, key: &[u8]) -> Option<usize> {
        let mut current = from;
        while let Some(next) = self.next_of(current, lvl) {
            if self.node(next).key.as_slice() >= key {
                break;
            }
            current = Some(next);
        }
        current
    }

    /// The node holding exactly `key`, if any.
    fn find(&self, key: &[u8]) -> Option<usize> {
        self.seek(key)
            .filter(|&idx| self.node(idx).key.as_slice() == key)
    }

    fn next_of(&self, pred: Option<usize>, lvl: usize) -> Option<usize> {
        match pred {
            None => self.head[lvl],
            Some(idx) => self.node(idx).forward[lvl],
        }
    }

    fn random_level(&mut self) -> usize {
        let mut level = 1;
        while level < MAX_LEVEL && self.rng.gen_bool(PROMOTE_P) {
            level += 1;
        }
        level
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
        if let Some(existing) = at {
            if self.node(existing).key.as_slice() == key {
                let slot = &mut self.node_mut(existing).value;
                let value = update(Some(slot));
                return Some(std::mem::replace(slot, value));
            }
        }

        let height = self.random_level();
        if height > self.level {
            self.level = height;
        }

        let node = Node {
            key: key.to_vec(),
            value: update(None),
            forward: vec![None; height],
        };
        let idx = match self.free_list.pop() {
            Some(slot) => {
                self.arena[slot] = Some(node);
                slot
            }
            None => {
                self.arena.push(Some(node));
                self.arena.len() - 1
            }
        };

        for (lvl, &pred) in preds.iter().enumerate().take(height) {
            let next = self.next_of(pred, lvl);
            self.node_mut(idx).forward[lvl] = next;
            match pred {
                None => self.head[lvl] = Some(idx),
                Some(pred_idx) => self.node_mut(pred_idx).forward[lvl] = Some(idx),
            }
        }
        self.len += 1;
        None
    }

    /// Removes `key`, returning its value if it was present.
    pub fn remove(&mut self, key: &[u8]) -> Option<V> {
        let (preds, at) = self.predecessors(key);
        let target = at?;
        if self.node(target).key.as_slice() != key {
            return None;
        }
        let height = self.node(target).forward.len();
        for (lvl, &pred) in preds.iter().enumerate().take(height) {
            // Unlink only where the predecessor actually points at the target.
            let pred_next = self.next_of(pred, lvl);
            if pred_next == Some(target) {
                let successor = self.node(target).forward[lvl];
                match pred {
                    None => self.head[lvl] = successor,
                    Some(pred_idx) => self.node_mut(pred_idx).forward[lvl] = successor,
                }
            }
        }
        // Shrink the active level if the top levels became empty.
        while self.level > 1 && self.head[self.level - 1].is_none() {
            self.level -= 1;
        }
        let node = self.arena[target].take().expect("live node index");
        self.free_list.push(target);
        self.len -= 1;
        Some(node.value)
    }

    /// Iterates over `(key, value)` pairs in ascending key order.
    pub fn iter(&self) -> SkipListIter<'_, V> {
        SkipListIter {
            list: self,
            cursor: self.head[0],
        }
    }

    /// Returns the first entry at or after `key` (inclusive lower bound), if any.
    pub fn lower_bound(&self, key: &[u8]) -> Option<(&[u8], &V)> {
        let node = self.node(self.seek(key)?);
        Some((node.key.as_slice(), &node.value))
    }

    /// Approximate bytes used by keys and tower pointers (enclave-resident part of
    /// the store's memory accounting). Value sizes are accounted separately by the
    /// store because values may live in host memory.
    pub fn index_bytes(&self) -> usize {
        self.arena
            .iter()
            .flatten()
            .map(|n| n.key.len() + n.forward.len() * std::mem::size_of::<usize>())
            .sum()
    }
}

/// Iterator over a [`SkipList`] in key order.
pub struct SkipListIter<'a, V> {
    list: &'a SkipList<V>,
    cursor: Option<usize>,
}

impl<'a, V> Iterator for SkipListIter<'a, V> {
    type Item = (&'a [u8], &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        let idx = self.cursor?;
        let node = self.list.node(idx);
        self.cursor = node.forward[0];
        Some((node.key.as_slice(), &node.value))
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

    /// The figures are what the list before the one-descent upsert gave for
    /// this history: the same towers (drawn from the RNG only for new keys,
    /// in the same order) and the same entries in the same order.
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
        assert_eq!(list.index_bytes(), 47_186);
        assert_eq!(order, 0xed22_6299_2ff3_25d5);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn behaves_like_btreemap(ops in proptest::collection::vec(
            (0u8..4, proptest::collection::vec(any::<u8>(), 1..6), any::<u32>()), 0..200)) {
            let mut list = SkipList::with_seed(3);
            let mut model: BTreeMap<Vec<u8>, u32> = BTreeMap::new();
            for (op, key, value) in ops {
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
