//! The partitioned KV store: enclave-resident keys and index, host-resident values.
//!
//! Placement (paper §A.3, Figure 2):
//!
//! * **Enclave region** — each slot's metadata: the key, the digest of what
//!   the host holds for it and the Lamport timestamp of its latest write,
//!   packed into one word ([`Stamp`]; 56 bytes in all, the key's bytes in
//!   a box of their own, the value's length being the host buffer's, which
//!   the digest covers), and the index mapping each key to its slot
//!   ([`SlotIndex`]): a hash table of slot numbers, 4 bytes a bucket, that
//!   holds no key and compares a probed key with the one in the slot's
//!   metadata. A point operation is one probe. Whatever walks the keys
//!   walks the live slots in slot order, never the table, and the
//!   operations that hand keys out in order (snapshots, exports, evictions,
//!   recovery) sort the slots they collect by their keys, copying none, so
//!   key order is the bytes' order. The paper's index is a skiplist; see
//!   the crate doc for why this one is not.
//! * **Host region** — value buffers, one slot per key, each at its value's
//!   exact length: the value's bytes on a plaintext store (16 bytes a
//!   slot), the ciphertext and the counter of the nonce it was sealed under
//!   on a confidential one (24 bytes). A write of a value as long as the
//!   one a slot holds goes over it in place (sealed there on a confidential
//!   store), and a buffer the writer handed over goes back to it. The
//!   host is untrusted: a Byzantine OS/hypervisor may corrupt or delete
//!   these buffers at any time, which the store detects on every read by
//!   re-hashing what the host holds and comparing against the enclave-held
//!   hash.
//!
//! A key's slot numbers its metadata and its host buffer alike. Both live in
//! pages of [`SLOT_PAGE`] slots ([`Slots`]), each allocated once at its exact
//! size and never moved, so the per-key state grows by one page at a time;
//! only the index's table doubles, at 4 bytes a bucket. A deleted key's slot
//! is taken by the next new key.
//!
//! In confidential mode the store encrypts values before placing them in the host
//! arena and decrypts them (after integrity verification) on reads, so plaintext data
//! never leaves the enclave region.
//!
//! Every read goes through one verified path, [`PartitionedKvStore::read`]:
//! it checks the host's bytes against the enclave-held digest where they
//! lie, and only a read that passed can copy the value out
//! ([`VerifiedRead::copy_into`]) into a buffer the caller lends, decrypting
//! it there on a confidential store. A caller that reads into a buffer it
//! keeps — a replica's reply, taken from its group's frame pool at the
//! value's length — allocates nothing per read. [`PartitionedKvStore::get`]
//! is that read into a buffer of its own. Rehydration after a restart makes
//! the same check and copies nothing.
//!
//! A state transfer reads its records where they lie as well. A
//! [`Snapshot`] is the slots of the records a filter selects, in key order,
//! each checked once when it is taken, so a store that fails hands out
//! nothing. Its records ([`PartitionedKvStore::snapshot_records`]) are
//! copied out one at a time into a buffer the caller lends, a chunk's
//! frame, and checked again there: the digest is taken over the copy, so
//! it covers exactly the bytes that leave, and a sealed value is decrypted
//! in that buffer ([`SnapshotRecord::copy_value`]).
//!
//! # One digest per stored value
//!
//! Every key has exactly one authenticator, and it is the enclave-held digest —
//! the host cannot touch it, so it needs no key. A plaintext store hashes
//! `key ‖ value`. A confidential store hashes `key ‖ nonce ‖ stored bytes`,
//! that is, the ciphertext and the 16-byte nonce its stored counter names
//! ([`sealing_nonce`]): the digest is checked **before** any keystream is
//! made, so a swapped, rolled-back or bit-flipped sealed value (or counter)
//! is refused without being decrypted, and binding the key means a value
//! sealed for one key never verifies under another. The cipher contributes
//! its keystream only ([`recipe_crypto::Cipher::apply_keystream`]): its own
//! tag over the same ciphertext, and a second hash of the plaintext after
//! decryption, would each repeat what this digest already establishes.
//!
//! Nonces count up from one under the store's key. The key must be the
//! store's alone — two stores counting from one under a shared key would seal
//! different values under one keystream; `recipe-protocols` derives it per
//! replica.

use std::collections::BTreeMap;
use std::hash::{BuildHasher, RandomState};
use std::ops::{Index, IndexMut, Range};

use recipe_crypto::{hash_parts, Cipher, CipherKey, Digest, Nonce};

use crate::error::KvError;
use crate::timestamp::Timestamp;
use crate::txn::{borrow_ops, TxnOpRef, TxnRecordOps, TxnTable};

/// Configuration for a [`PartitionedKvStore`].
#[derive(Clone, Debug, Default)]
pub struct StoreConfig {
    /// When set, values are encrypted with this key before entering host memory
    /// (confidential mode, Figure 5).
    pub cipher_key: Option<CipherKey>,
}

impl StoreConfig {
    /// Enables confidential mode with the given value-encryption key.
    pub fn with_cipher(mut self, key: CipherKey) -> Self {
        self.cipher_key = Some(key);
        self
    }
}

/// Domain of a confidential store's per-key digest (a plaintext store's is
/// `recipe.kv.value`, as it always was): a sealed value's digest can never be
/// taken for a plaintext one's.
const SEALED_VALUE_DOMAIN: &[u8] = b"recipe.kv_sealed.v1";

/// Metadata held inside the enclave for every key, in the key's slot.
#[derive(Clone, Debug, PartialEq, Eq)]
struct ValueMeta {
    /// The key whose slot this is; `None` on a free slot (the empty key is
    /// a key like any other).
    key: Option<Box<[u8]>>,
    /// Digest of what the host holds for the key, bound to the key
    /// ([`HostArena::place`]): the integrity tag checked on every read.
    value_hash: Digest,
    /// Lamport timestamp of the latest write; it orders the key's writes.
    stamp: Stamp,
}

/// Bits of a [`Stamp`] that hold the writer node.
const STAMP_NODE_BITS: u32 = 16;

/// A Lamport timestamp packed into one word: the logical clock in the high
/// 48 bits, the node in the low 16. A timestamp that does not fit, or whose
/// packed form would read as [`Stamp::SPILLED`], is kept whole in the
/// store's spill map instead, keyed by its slot, and its slot holds the
/// marker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Stamp(u64);

impl Stamp {
    /// The marker of a timestamp kept in the spill map.
    const SPILLED: Stamp = Stamp(u64::MAX);

    /// `timestamp` packed, or [`Stamp::SPILLED`] when it does not fit.
    fn pack(timestamp: Timestamp) -> Stamp {
        let fits = timestamp.logical >> (u64::BITS - STAMP_NODE_BITS) == 0
            && timestamp.node >> STAMP_NODE_BITS == 0;
        if fits {
            Stamp(timestamp.logical << STAMP_NODE_BITS | timestamp.node)
        } else {
            Stamp::SPILLED
        }
    }

    /// The timestamp packed here; `None` for the marker.
    fn unpack(self) -> Option<Timestamp> {
        let node = self.0 & ((1 << STAMP_NODE_BITS) - 1);
        (self != Stamp::SPILLED).then(|| Timestamp::new(self.0 >> STAMP_NODE_BITS, node))
    }
}

/// What a confidential store's host slot holds: the value sealed under the
/// nonce `counter` names ([`sealing_nonce`]), or nothing once the key is
/// deleted (or the host emptied it).
#[derive(Clone, Debug)]
struct SealedSlot {
    bytes: Option<Box<[u8]>>,
    counter: u64,
}

// What the store keeps per key: a bucket of the index (at a load of at
// most 7/8), the enclave metadata with the key's box and one host slot.
const _: () = assert!(size_of::<ValueMeta>() == 56);
const _: () = assert!(size_of::<Option<Box<[u8]>>>() == 16);
const _: () = assert!(size_of::<SealedSlot>() == 24);

/// Slots in one page of [`Slots`].
const SLOT_PAGE: usize = 64;

/// Entries numbered from zero, kept in pages of [`SLOT_PAGE`]. A page is
/// allocated once, at its exact size, when the one before it is full, and
/// never moves: the entries grow by a page at a time, with none of the
/// slack a doubling vector leaves.
struct Slots<T> {
    pages: Vec<Vec<T>>,
}

impl<T> Slots<T> {
    const fn new() -> Self {
        Slots { pages: Vec::new() }
    }

    fn len(&self) -> usize {
        self.pages
            .last()
            .map_or(0, |last| (self.pages.len() - 1) * SLOT_PAGE + last.len())
    }

    /// Appends `entry` as the next slot, opening a page when the last one is
    /// full. Returns the slot's number.
    fn push(&mut self, entry: T) -> usize {
        let slot = self.len();
        match self.pages.last_mut() {
            Some(page) if page.len() < SLOT_PAGE => page.push(entry),
            _ => {
                let mut page = Vec::with_capacity(SLOT_PAGE);
                page.push(entry);
                self.pages.push(page);
            }
        }
        slot
    }

    fn get(&self, slot: usize) -> Option<&T> {
        self.pages.get(slot / SLOT_PAGE)?.get(slot % SLOT_PAGE)
    }

    /// Every entry, in slot order.
    fn iter(&self) -> impl Iterator<Item = &T> {
        self.pages.iter().flatten()
    }

    fn get_mut(&mut self, slot: usize) -> Option<&mut T> {
        self.pages
            .get_mut(slot / SLOT_PAGE)?
            .get_mut(slot % SLOT_PAGE)
    }
}

impl<T> Index<usize> for Slots<T> {
    type Output = T;

    fn index(&self, slot: usize) -> &T {
        &self.pages[slot / SLOT_PAGE][slot % SLOT_PAGE]
    }
}

impl<T> IndexMut<usize> for Slots<T> {
    fn index_mut(&mut self, slot: usize) -> &mut T {
        &mut self.pages[slot / SLOT_PAGE][slot % SLOT_PAGE]
    }
}

/// Every live slot's key and number, in slot order: a free slot holds no
/// key.
fn live(meta: &Slots<ValueMeta>) -> impl Iterator<Item = (&[u8], u32)> {
    meta.iter()
        .zip(0..)
        .filter_map(|(meta, slot)| Some((meta.key.as_deref()?, slot)))
}

/// The key `slot`'s metadata holds: every slot in the index holds one.
fn key_at(meta: &Slots<ValueMeta>, slot: u32) -> &[u8] {
    meta[slot as usize].key.as_deref().unwrap_or_default()
}

/// The bucket that marks an empty place in [`SlotIndex`]: no slot has this
/// number.
const EMPTY: u32 = u32::MAX;

/// Buckets of the first table [`SlotIndex`] allocates.
const MIN_BUCKETS: usize = 4;

/// The index: each key's slot number in a linear-probing table of 4-byte
/// buckets. It holds no key: a probe compares against the key in the
/// slot's metadata, which every read and write touches next anyway. A
/// key's home bucket comes from std's randomly keyed SipHash, so no client
/// can aim keys at one bucket. The table doubles past a load of 7/8 (the
/// growth points of std's own tables), and a delete shifts the entries of
/// its probe run back, so no bucket is ever a tombstone.
///
/// Nothing walks the buckets, whose order is the hasher's and differs from
/// process to process: a table that grows is rebuilt from the live slots,
/// and every walk of the keys is a walk of the slots ([`live`]).
struct SlotIndex {
    hasher: RandomState,
    /// A power of two in length, or empty before the first key.
    buckets: Box<[u32]>,
    len: usize,
}

impl SlotIndex {
    fn new() -> Self {
        SlotIndex {
            hasher: RandomState::new(),
            buckets: Box::default(),
            len: 0,
        }
    }

    fn mask(&self) -> usize {
        self.buckets.len().wrapping_sub(1)
    }

    /// The bucket `key`'s probe starts from.
    fn home(&self, key: &[u8]) -> usize {
        self.hasher.hash_one(key) as usize & self.mask()
    }

    /// Where the probe for `key` ends: `Ok` at the bucket that holds its
    /// slot, or `Err` at the empty bucket that shows the key absent, where
    /// it would go. A table under its load cap always has one.
    fn probe(&self, key: &[u8], meta: &Slots<ValueMeta>) -> Result<usize, usize> {
        if self.buckets.is_empty() {
            return Err(0);
        }
        let mut bucket = self.home(key);
        loop {
            match self.buckets[bucket] {
                EMPTY => return Err(bucket),
                slot if key_at(meta, slot) == key => return Ok(bucket),
                _ => bucket = (bucket + 1) & self.mask(),
            }
        }
    }

    /// `key`'s slot, or, when the table does not hold `key`, the empty
    /// bucket to hand [`Self::insert`].
    fn find(&self, key: &[u8], meta: &Slots<ValueMeta>) -> Result<u32, usize> {
        self.probe(key, meta).map(|bucket| self.buckets[bucket])
    }

    /// Enters `slot`, whose key's probe ended at the empty bucket `vacant`
    /// ([`Self::find`]). `meta` already holds the key in `slot`: a table
    /// that passes its load cap is rebuilt twice as large from the live
    /// slots, this one among them.
    fn insert(&mut self, vacant: usize, slot: u32, meta: &Slots<ValueMeta>) {
        self.len += 1;
        if self.len <= self.buckets.len() * 7 / 8 {
            self.buckets[vacant] = slot;
            return;
        }
        let buckets = (2 * self.buckets.len()).max(MIN_BUCKETS);
        self.buckets = vec![EMPTY; buckets].into_boxed_slice();
        for (key, slot) in live(meta) {
            if let Err(vacant) = self.probe(key, meta) {
                self.buckets[vacant] = slot;
            }
        }
    }

    /// Takes `key` out, if the table holds it, and returns its slot. The
    /// entries after it in its probe run shift back over the hole while
    /// their probes pass through it, so every key stays reachable from its
    /// home bucket without crossing an empty one.
    fn remove(&mut self, key: &[u8], meta: &Slots<ValueMeta>) -> Option<u32> {
        let mut hole = self.probe(key, meta).ok()?;
        let slot = self.buckets[hole];
        let mut next = hole;
        loop {
            next = (next + 1) & self.mask();
            let moved = self.buckets[next];
            if moved == EMPTY {
                break;
            }
            // `moved` fills the hole unless its home lies after the hole, up
            // to `next` (counting past the last bucket on from the first).
            let home = self.home(key_at(meta, moved));
            if next.wrapping_sub(home) & self.mask() >= next.wrapping_sub(hole) & self.mask() {
                self.buckets[hole] = moved;
                hole = next;
            }
        }
        self.buckets[hole] = EMPTY;
        self.len -= 1;
        Some(slot)
    }
}

/// The nonce a sealed value's stored counter names.
fn sealing_nonce(counter: u64) -> Nonce {
    Nonce::from_view_counter(0xCAFE, counter)
}

/// The digest the enclave keeps for a plaintext value under `key`.
fn plain_digest(key: &[u8], value: &[u8]) -> Digest {
    hash_parts(&[b"recipe.kv.value", key, value])
}

/// The digest the enclave keeps for a sealed value under `key`: its
/// ciphertext and the nonce it was sealed under.
fn sealed_digest(key: &[u8], nonce: &Nonce, ciphertext: &[u8]) -> Digest {
    hash_parts(&[SEALED_VALUE_DOMAIN, key, nonce.as_bytes(), ciphertext])
}

/// The untrusted host's memory: one slot per key, emptied when the key is
/// deleted (or by the host itself), and one [`Slots`] either way.
enum HostArena {
    /// A plaintext store's slots: each value's bytes.
    Plain(Slots<Option<Box<[u8]>>>),
    /// A confidential store's slots, the cipher that seals and opens them,
    /// and the counter of the last nonce it sealed under.
    Sealed {
        cipher: Cipher,
        counter: u64,
        slots: Slots<SealedSlot>,
    },
}

/// A value for a host slot: lent, with where a spare buffer for it may come
/// from should the slot need a new box, or handed over in its buffer.
enum Incoming<'a> {
    Lent(&'a [u8], &'a mut dyn FnMut(usize) -> Option<Vec<u8>>),
    Owned(Vec<u8>),
}

/// Puts `value` in a host slot that `held` is: over the bytes there when
/// they are as long, else in a box of its exact length — its buffer (a lent
/// value's spare, or a new one) when that has no room to spare, a copy
/// otherwise. Returns the slot's bytes and the buffer for the caller: the
/// value's, unless the slot kept it or the value was lent, and otherwise
/// the one the slot held until now, if any.
fn put<'a>(
    held: &'a mut Option<Box<[u8]>>,
    value: Incoming<'_>,
) -> (&'a mut [u8], Option<Vec<u8>>) {
    let bytes = match &value {
        Incoming::Lent(bytes, _) => *bytes,
        Incoming::Owned(value) => value,
    };
    let back = match held {
        Some(held) if held.len() == bytes.len() => {
            held.copy_from_slice(bytes);
            match value {
                Incoming::Owned(value) => Some(value),
                Incoming::Lent(..) => None,
            }
        }
        _ => {
            let value = match value {
                Incoming::Owned(value) => value,
                Incoming::Lent(bytes, spare) => {
                    let mut buf = spare(bytes.len()).unwrap_or_default();
                    buf.reserve_exact(bytes.len());
                    buf.extend_from_slice(bytes);
                    buf
                }
            };
            let (exact, back) = if value.len() == value.capacity() {
                (value.into_boxed_slice(), None)
            } else {
                (Box::from(value.as_slice()), Some(value))
            };
            back.or(held.replace(exact).map(Vec::from))
        }
    };
    // `held` holds the value now: nothing is inserted.
    (held.get_or_insert_with(Box::default), back)
}

impl HostArena {
    /// A new empty slot at the end of the arena.
    fn push_empty(&mut self) -> usize {
        match self {
            HostArena::Plain(slots) => slots.push(None),
            HostArena::Sealed { slots, .. } => slots.push(SealedSlot {
                bytes: None,
                counter: 0,
            }),
        }
    }

    /// Puts `value` in `slot` ([`put`]), sealed there under the next nonce
    /// on a confidential store. Returns the digest the enclave keeps for it
    /// under `key` and the buffer for the caller.
    fn place(&mut self, key: &[u8], slot: usize, value: Incoming<'_>) -> (Digest, Option<Vec<u8>>) {
        match self {
            HostArena::Plain(slots) => {
                let (bytes, back) = put(&mut slots[slot], value);
                (plain_digest(key, bytes), back)
            }
            HostArena::Sealed {
                cipher,
                counter,
                slots,
            } => {
                *counter += 1;
                let nonce = sealing_nonce(*counter);
                let held = &mut slots[slot];
                held.counter = *counter;
                let (bytes, back) = put(&mut held.bytes, value);
                cipher.apply_keystream(&nonce.extended(), bytes);
                (sealed_digest(key, &nonce, bytes), back)
            }
        }
    }

    /// What `slot` holds for `key`, checked against `digest` where it lies:
    /// its bytes and, on a confidential store, what opens them.
    fn verified(&self, key: &[u8], slot: usize, digest: &Digest) -> Result<HostBytes<'_>, KvError> {
        let held = self.held(slot);
        let (bytes, sealed) =
            held.ok_or_else(|| KvError::HostValueMissing { key: key.to_vec() })?;
        check(key, bytes, sealed, digest)?;
        Ok((bytes, sealed))
    }

    /// What `slot` holds, as the host holds it, not checked: its bytes and,
    /// on a confidential store, what opens them. `None` once the slot is
    /// empty.
    fn held(&self, slot: usize) -> Option<HostBytes<'_>> {
        match self {
            HostArena::Plain(slots) => Some((slots.get(slot)?.as_deref()?, None)),
            HostArena::Sealed { cipher, slots, .. } => {
                let held = slots.get(slot)?;
                Some((held.bytes.as_deref()?, Some((cipher, held.counter))))
            }
        }
    }

    /// The bytes `slot` holds, as the host holds them.
    fn held_mut(&mut self, slot: usize) -> Option<&mut Option<Box<[u8]>>> {
        match self {
            HostArena::Plain(slots) => slots.get_mut(slot),
            HostArena::Sealed { slots, .. } => slots.get_mut(slot).map(|held| &mut held.bytes),
        }
    }

    /// Empties `slot`, handing back the bytes it held.
    fn take(&mut self, slot: usize) -> Option<Box<[u8]>> {
        self.held_mut(slot)?.take()
    }
}

/// A host slot's bytes, and on a confidential store the cipher and nonce
/// counter that open them.
type HostBytes<'a> = (&'a [u8], Option<(&'a Cipher, u64)>);

/// Checks `bytes`, what the host holds for `key` or a copy of it, against
/// the enclave-held `digest`: a plaintext value's, or on a confidential
/// store (`sealed`) the ciphertext's under the nonce its counter names.
fn check(
    key: &[u8],
    bytes: &[u8],
    sealed: Option<(&Cipher, u64)>,
    digest: &Digest,
) -> Result<(), KvError> {
    match sealed {
        None if plain_digest(key, bytes) != *digest => {
            Err(KvError::IntegrityViolation { key: key.to_vec() })
        }
        Some((_, counter)) if sealed_digest(key, &sealing_nonce(counter), bytes) != *digest => {
            Err(KvError::DecryptionFailed { key: key.to_vec() })
        }
        _ => Ok(()),
    }
}

/// The result of a successful read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadResult {
    /// The (decrypted, verified) value.
    pub value: Vec<u8>,
    /// Timestamp of the write that produced it.
    pub timestamp: Timestamp,
}

/// A read that passed the enclave-held digest
/// ([`PartitionedKvStore::read`]): the host's bytes, checked where they lie
/// and not yet copied out.
pub struct VerifiedRead<'a> {
    bytes: &'a [u8],
    /// The cipher and nonce counter that open a sealed value.
    sealed: Option<(&'a Cipher, u64)>,
    /// Timestamp of the write that produced the value.
    pub timestamp: Timestamp,
}

impl VerifiedRead<'_> {
    /// The value's length: the room [`Self::copy_into`] needs.
    pub fn value_len(&self) -> usize {
        self.bytes.len()
    }

    /// Copies the value into `out`, which the caller lends, replacing what
    /// it held — decrypting it there on a confidential store. `out` grows
    /// only when it has less room than [`Self::value_len`], so a buffer
    /// with that room takes the value without an allocation.
    pub fn copy_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.reserve_exact(self.bytes.len());
        out.extend_from_slice(self.bytes);
        if let Some((cipher, counter)) = self.sealed {
            cipher.apply_keystream(&sealing_nonce(counter).extended(), out);
        }
    }
}

/// The records a filter selected in one store, in key order, each checked
/// against its enclave-held digest when the snapshot was taken
/// ([`PartitionedKvStore::snapshot`]): the slots they lie in, none of their
/// bytes copied. It reads the store it was taken of, unchanged since
/// ([`PartitionedKvStore::snapshot_records`]).
#[derive(Debug)]
pub struct Snapshot {
    slots: Vec<u32>,
}

impl Snapshot {
    /// How many records the snapshot holds.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the filter selected no record.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// One record of a [`Snapshot`], read where it lies
/// ([`PartitionedKvStore::snapshot_records`]): its key and timestamp from
/// the enclave, and its value as the host holds it, copied out only
/// through the check of [`SnapshotRecord::copy_value`].
#[derive(Clone, Copy)]
pub struct SnapshotRecord<'a> {
    /// The record's key.
    pub key: &'a [u8],
    /// Timestamp of the write that produced the value.
    pub timestamp: Timestamp,
    /// The host's bytes, `None` once the host emptied the slot.
    held: Option<HostBytes<'a>>,
    /// The enclave-held digest they must match.
    digest: &'a Digest,
}

impl SnapshotRecord<'_> {
    /// The value's length as the host holds it: the room
    /// [`Self::copy_value`] fills.
    pub fn value_len(&self) -> usize {
        self.held.map_or(0, |(bytes, _)| bytes.len())
    }

    /// Copies the value into `out`, which the caller lends at exactly
    /// [`Self::value_len`] bytes, checks the copy against the enclave-held
    /// digest — so the check covers exactly the bytes copied, whatever the
    /// host does to its own after — and decrypts it there on a
    /// confidential store. On an error `out` holds no verified value, and
    /// the caller discards it.
    ///
    /// # Panics
    /// Panics if `out` is not [`Self::value_len`] bytes long.
    pub fn copy_value(&self, out: &mut [u8]) -> Result<(), KvError> {
        let key = self.key;
        let (bytes, sealed) = self
            .held
            .ok_or_else(|| KvError::HostValueMissing { key: key.to_vec() })?;
        out.copy_from_slice(bytes);
        check(key, out, sealed, self.digest)?;
        if let Some((cipher, counter)) = sealed {
            cipher.apply_keystream(&sealing_nonce(counter).extended(), out);
        }
        Ok(())
    }
}

/// One owned record of committed state: `(key, verified plaintext value,
/// stored write timestamp)`. [`PartitionedKvStore::export_matching`] hands
/// them out, and it is the one record a state transfer's chunks and a
/// two-phase commit's installs carry between replicas.
pub type ExportedEntry = (Vec<u8>, Vec<u8>, Timestamp);

/// The partitioned key-value store.
pub struct PartitionedKvStore {
    /// Each key's slot.
    index: SlotIndex,
    /// Each slot's enclave metadata, the key among it; a free slot holds no
    /// key.
    meta: Slots<ValueMeta>,
    /// The timestamps that do not pack into a [`Stamp`], by slot: only live
    /// keys', each under the marker in its slot's metadata.
    spilled: BTreeMap<u32, Timestamp>,
    host_arena: HostArena,
    free_slots: Vec<u32>,
    /// Transaction locks + staged writes (enclave-resident, like the index).
    txns: TxnTable,
}

impl PartitionedKvStore {
    /// Creates an empty store (`init_store()` in Table 3).
    pub fn new(config: StoreConfig) -> Self {
        let host_arena = match &config.cipher_key {
            None => HostArena::Plain(Slots::new()),
            Some(key) => HostArena::Sealed {
                cipher: Cipher::new(key),
                counter: 0,
                slots: Slots::new(),
            },
        };
        PartitionedKvStore {
            index: SlotIndex::new(),
            meta: Slots::new(),
            spilled: BTreeMap::new(),
            host_arena,
            free_slots: Vec::new(),
            txns: TxnTable::default(),
        }
    }

    /// True if the store encrypts values before they reach host memory.
    pub fn is_confidential(&self) -> bool {
        matches!(self.host_arena, HostArena::Sealed { .. })
    }

    /// Writes `value` under `key` with write timestamp `timestamp`
    /// (`write(key, value)` in Table 3).
    ///
    /// The write always succeeds even if `timestamp` is older than the
    /// stored one — ABD-style last-writer-wins filtering is the protocol's
    /// job (see [`PartitionedKvStore::write_if_newer`]). It never errs
    /// today; the `Result` stays for the callers that expect it.
    ///
    /// The value's bytes go straight into the host slot: over the bytes it
    /// holds when they are as long, with no allocation, and otherwise into
    /// one box of the value's exact length.
    pub fn write(&mut self, key: &[u8], value: &[u8], timestamp: Timestamp) -> Result<(), KvError> {
        self.write_lent(key, value, timestamp, &mut |_| None);
        Ok(())
    }

    /// [`PartitionedKvStore::write`] lent a source of `spare` buffers for a
    /// slot that needs a new box (kept if it has no room to spare). Returns
    /// the spare the slot did not keep, or else the buffer it displaced.
    pub fn write_lent(
        &mut self,
        key: &[u8],
        value: &[u8],
        timestamp: Timestamp,
        spare: &mut dyn FnMut(usize) -> Option<Vec<u8>>,
    ) -> Option<Vec<u8>> {
        let found = self.index.find(key, &self.meta);
        self.write_value(found, key, Incoming::Lent(value, spare), timestamp)
    }

    /// [`PartitionedKvStore::write`] handed the value's buffer. The host
    /// slot holds each value at its exact length: a value as long as the
    /// one the key holds is copied over it where it lies, and otherwise the
    /// slot keeps the buffer itself if it has no room to spare, or an exact
    /// copy if it has. The value is sealed (confidential mode) and digested
    /// in the slot.
    ///
    /// Returns, for the caller to reuse or drop, the buffer it was handed
    /// when the slot did not keep it (still holding the value's plaintext),
    /// and otherwise, on an overwrite, the buffer the slot held until now
    /// (the old value, or its ciphertext on a confidential store). A new
    /// key whose buffer the slot kept hands back nothing.
    pub fn write_owned(
        &mut self,
        key: &[u8],
        value: Vec<u8>,
        timestamp: Timestamp,
    ) -> Option<Vec<u8>> {
        let found = self.index.find(key, &self.meta);
        self.write_value(found, key, Incoming::Owned(value), timestamp)
    }

    /// The one write path, lent the value or handed its buffer
    /// ([`Self::write_lent`], [`Self::write_owned`]), and `key`'s probe
    /// ([`SlotIndex::find`]) from its caller, so no write probes twice. An
    /// overwrite keeps the key's slot. A new key takes a free slot, its
    /// metadata holds the key in a box of its own, and it enters the index.
    fn write_value(
        &mut self,
        found: Result<u32, usize>,
        key: &[u8],
        value: Incoming<'_>,
        timestamp: Timestamp,
    ) -> Option<Vec<u8>> {
        let slot = match found {
            Ok(slot) => slot,
            Err(_) => self.free_slot(),
        };
        let (value_hash, back) = self.host_arena.place(key, slot as usize, value);
        let stamp = self.stamp(slot, timestamp);
        let Err(vacant) = found else {
            let meta = &mut self.meta[slot as usize];
            (meta.value_hash, meta.stamp) = (value_hash, stamp);
            return back;
        };
        let meta = ValueMeta {
            key: Some(key.into()),
            value_hash,
            stamp,
        };
        match self.meta.get_mut(slot as usize) {
            Some(freed) => *freed = meta,
            None => {
                self.meta.push(meta);
            }
        }
        self.index.insert(vacant, slot, &self.meta);
        back
    }

    /// A slot for a new key: the last one freed, or a new one.
    fn free_slot(&mut self) -> u32 {
        if let Some(slot) = self.free_slots.pop() {
            return slot;
        }
        let slot = u32::try_from(self.host_arena.push_empty())
            .ok()
            .filter(|&slot| slot != EMPTY);
        // recipe-lint: allow(unwrap-in-lib, reason = "a slot per key: four billion keys would fill 224 GB of enclave metadata first")
        slot.expect("fewer than 2^32 - 1 slots: the last number marks an empty bucket")
    }

    /// A write's stamp for `slot`: a timestamp that does not pack goes into
    /// the spill map, and one that does takes the slot's entry there, if
    /// any, out.
    fn stamp(&mut self, slot: u32, timestamp: Timestamp) -> Stamp {
        let stamp = Stamp::pack(timestamp);
        if stamp == Stamp::SPILLED {
            self.spilled.insert(slot, timestamp);
        } else {
            self.spilled.remove(&slot);
        }
        stamp
    }

    /// The timestamp of the write `slot` holds.
    fn timestamp_at(&self, slot: u32) -> Timestamp {
        self.meta[slot as usize]
            .stamp
            .unpack()
            .unwrap_or_else(|| self.spilled[&slot])
    }

    /// Writes only if `timestamp` is strictly newer than the stored timestamp
    /// (the ABD write rule). Returns `true` if the write was applied,
    /// `false` if it was skipped as stale.
    pub fn write_if_newer(&mut self, key: &[u8], value: &[u8], timestamp: Timestamp) -> bool {
        let found = self.index.find(key, &self.meta);
        if found.is_ok_and(|slot| timestamp <= self.timestamp_at(slot)) {
            return false;
        }
        let value = Incoming::Lent(value, &mut |_| None);
        self.write_value(found, key, value, timestamp);
        true
    }

    /// Reads the value for `key` (`get(key, &v_TEE)` in Table 3): the
    /// verified [`Self::read`] copied into a new buffer of the value's
    /// length, for a caller with no buffer to lend.
    pub fn get(&self, key: &[u8]) -> Result<ReadResult, KvError> {
        let read = self.read(key)?;
        let mut value = Vec::new();
        read.copy_into(&mut value);
        Ok(ReadResult {
            value,
            timestamp: read.timestamp,
        })
    }

    /// The verified read: checks what the host holds for `key` against the
    /// enclave-held digest. Only a read that passed copies the value out
    /// ([`VerifiedRead::copy_into`]), so a value that fails is refused
    /// before any byte is copied or any keystream made.
    pub fn read(&self, key: &[u8]) -> Result<VerifiedRead<'_>, KvError> {
        let slot = self.slot(key).ok_or(KvError::NotFound)?;
        self.verified(key, slot)
    }

    /// [`Self::read`] of `key`, whose slot is `slot`: the one check every
    /// read and every rehydration makes.
    fn verified(&self, key: &[u8], slot: u32) -> Result<VerifiedRead<'_>, KvError> {
        let digest = &self.meta[slot as usize].value_hash;
        let (bytes, sealed) = self.host_arena.verified(key, slot as usize, digest)?;
        Ok(VerifiedRead {
            bytes,
            sealed,
            timestamp: self.timestamp_at(slot),
        })
    }

    /// Returns only the timestamp stored for `key` (ABD's first round reads
    /// timestamps without moving values).
    pub fn timestamp_of(&self, key: &[u8]) -> Option<Timestamp> {
        self.slot(key).map(|slot| self.timestamp_at(slot))
    }

    /// The slot of `key`, if the store holds it.
    fn slot(&self, key: &[u8]) -> Option<u32> {
        self.index.find(key, &self.meta).ok()
    }

    /// Deletes the key `slot` holds; the slot is the next new key's.
    fn delete_slot(&mut self, slot: u32) {
        self.index.remove(key_at(&self.meta, slot), &self.meta);
        self.meta[slot as usize].key = None;
        self.host_arena.take(slot as usize);
        self.spilled.remove(&slot);
        self.free_slots.push(slot);
    }

    /// The highest timestamp any stored key carries; `None` when empty.
    pub fn newest_timestamp(&self) -> Option<Timestamp> {
        live(&self.meta)
            .map(|(_, slot)| self.timestamp_at(slot))
            .max()
    }

    /// The slots of the keys `filter` selects, in ascending byte order of
    /// their keys: what every snapshot, export and eviction walks. The
    /// slots are counted first, so the list is allocated once, at its
    /// length, and not at all when `filter` selects nothing.
    fn sorted_slots(&self, filter: impl Fn(&[u8]) -> bool) -> Vec<u32> {
        let selected = || {
            live(&self.meta)
                .filter(|(key, _)| filter(key))
                .map(|(_, slot)| slot)
        };
        let mut slots = Vec::with_capacity(selected().count());
        slots.extend(selected());
        self.in_key_order(&mut slots);
        slots
    }

    /// Sorts live `slots` by their keys, which are distinct.
    fn in_key_order(&self, slots: &mut [u32]) {
        slots.sort_unstable_by(|&a, &b| key_at(&self.meta, a).cmp(key_at(&self.meta, b)));
    }

    /// Rollback-protected rehydration after a restart: checks every key's
    /// host bytes against the enclave-held digest where they lie (the check
    /// [`Self::read`] makes, with nothing copied or decrypted) and
    /// deletes every record that fails, in key order. What survives is
    /// exactly the state the enclave can vouch for; anything the host
    /// corrupted or dropped while the node was down is discarded rather than
    /// served. Returns `(verified, discarded, verified_payload_bytes)`.
    pub fn rehydrate(&mut self) -> (u64, u64, u64) {
        let mut verified = 0u64;
        let mut bytes = 0u64;
        let mut failed = Vec::new();
        for (key, slot) in live(&self.meta) {
            match self.verified(key, slot) {
                Ok(read) => {
                    verified += 1;
                    bytes += (key.len() + read.value_len()) as u64;
                }
                Err(_) => failed.push(slot),
            }
        }
        self.in_key_order(&mut failed);
        for &slot in &failed {
            self.delete_slot(slot);
        }
        (verified, failed.len() as u64, bytes)
    }

    // ------------------------------------------------------------------
    // Two-phase-commit participation (cross-shard transactions)
    // ------------------------------------------------------------------

    /// True when any in-flight transaction holds a lock on `key`. A
    /// coordinator consults this before serving a single-key operation: a
    /// locked key means an uncommitted transaction touches it, so the
    /// operation must wait (the replica drops it and the client's retry
    /// resubmits after the transaction resolved).
    pub fn is_locked(&self, key: &[u8]) -> bool {
        self.txns.is_locked(key)
    }

    /// The transaction holding the lock on `key`, if any.
    #[cfg(test)]
    pub(crate) fn lock_owner(&self, key: &[u8]) -> Option<u64> {
        self.txns.lock_owner(key)
    }

    /// Number of keys currently locked by in-flight transactions.
    #[cfg(test)]
    pub(crate) fn locked_keys(&self) -> usize {
        self.txns.locked_keys()
    }

    /// Bytes staged by in-flight prepares (enclave-resident until commit;
    /// the cost model's per-prepare EPC pressure reads this footprint).
    #[cfg(test)]
    pub(crate) fn txn_staged_bytes(&self) -> usize {
        self.txns.staged_bytes()
    }

    /// Prepare phase of 2PC: locks every key of `ops` for `txn_id`
    /// (all-or-nothing) and stages the writes. See `crate::txn::TxnTable`.
    pub fn txn_prepare(
        &mut self,
        txn_id: u64,
        ops: &[(Vec<u8>, Option<Vec<u8>>)],
    ) -> Result<(), KvError> {
        self.txn_prepare_borrowed(txn_id, borrow_ops(ops))
    }

    /// [`PartitionedKvStore::txn_prepare`] over operations lent from wherever
    /// the caller holds them (a decoded 2PC frame): the store copies only
    /// what its transaction table keeps.
    pub fn txn_prepare_borrowed<'a>(
        &mut self,
        txn_id: u64,
        ops: impl IntoIterator<Item = TxnOpRef<'a>>,
    ) -> Result<(), KvError> {
        self.txns.prepare(txn_id, ops)
    }

    /// Commit phase of 2PC with the writes handed out rather than applied:
    /// removes `txn_id`'s staged writes and releases its locks, returning the
    /// writes in operation order for the caller to apply through its normal
    /// write path. `None` when the transaction is unknown (already resolved)
    /// — ack idempotently.
    pub fn txn_take_staged(&mut self, txn_id: u64) -> Option<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut txn = self.txns.take_staged(txn_id)?;
        let writes = txn
            .writes_mut()
            .map(|(key, value)| (key.to_vec(), std::mem::take(value)))
            .collect();
        self.txns.recycle(txn);
        Some(writes)
    }

    /// Commit phase of 2PC: releases `txn_id`'s locks and writes its staged
    /// writes in operation order, each stamped by `stamp` from the key's
    /// stored timestamp. `committed` sees each write — key, value, timestamp
    /// — just before its value's buffer goes to [`Self::write_owned`]; the
    /// buffer the write hands back takes its place in the transaction's
    /// record, for the record to stage a later write in. An unknown
    /// transaction (already resolved) writes nothing.
    pub fn txn_commit(
        &mut self,
        txn_id: u64,
        mut stamp: impl FnMut(Option<Timestamp>) -> Timestamp,
        mut committed: impl FnMut(&[u8], &[u8], Timestamp),
    ) {
        let Some(mut txn) = self.txns.take_staged(txn_id) else {
            return;
        };
        for (key, value) in txn.writes_mut() {
            let found = self.index.find(key, &self.meta);
            let timestamp = stamp(found.ok().map(|slot| self.timestamp_at(slot)));
            committed(key, value, timestamp);
            let staged = Incoming::Owned(std::mem::take(value));
            if let Some(back) = self.write_value(found, key, staged, timestamp) {
                *value = back;
            }
        }
        self.txns.recycle(txn);
    }

    /// Abort phase of 2PC: discards `txn_id`'s staged writes and releases its
    /// locks. Returns true when the transaction was known.
    pub fn txn_abort(&mut self, txn_id: u64) -> bool {
        self.txns.abort(txn_id)
    }

    /// Drops all staged transactions and locks — the lock table is volatile
    /// enclave state and does not survive a restart (see
    /// `crate::txn::TxnTable::reset`). Returns how many were discarded.
    pub fn txn_reset(&mut self) -> usize {
        self.txns.reset()
    }

    /// Records a prepare replicated from the group leader (passive: no
    /// locks until adopted). See `crate::txn::TxnTable::stage_replicated`.
    pub fn txn_stage_replicated<'a>(
        &mut self,
        txn_id: u64,
        ops: impl IntoIterator<Item = TxnOpRef<'a>>,
    ) {
        self.txns.stage_replicated(txn_id, ops);
    }

    /// Discards a replicated prepare record once the coordinator's decision
    /// reached this follower. Returns true when the record existed.
    pub fn txn_drop_replicated(&mut self, txn_id: u64) -> bool {
        self.txns.drop_replicated(txn_id)
    }

    /// Failover adoption: promotes every replicated prepare record into a
    /// real staged transaction with locks, returning the adopted ids
    /// (ascending). See `crate::txn::TxnTable::adopt_replicated`.
    pub fn txn_adopt_replicated(&mut self) -> Vec<u64> {
        self.txns.adopt_replicated()
    }

    /// Exports every prepare record this store knows (real and passive) in
    /// the replicated wire form, for a recovering group member to import.
    /// See `crate::txn::TxnTable::export_records`.
    pub fn txn_export_records(&self) -> Vec<(u64, TxnRecordOps)> {
        self.txns.export_records()
    }

    // ------------------------------------------------------------------
    // Key-range export/import (online shard migration)
    // ------------------------------------------------------------------

    /// Takes a snapshot of every record whose key satisfies `filter`, in
    /// key order, for a state transfer to read where it lies
    /// ([`Self::snapshot_records`]). Every record is checked against the
    /// enclave-held digest first, in one pass, so a store the host tampered
    /// with fails here, on the first record that does not verify, before
    /// anything of the range leaves it. Copies no key and no value.
    pub fn snapshot(&self, filter: impl Fn(&[u8]) -> bool) -> Result<Snapshot, KvError> {
        let slots = self.sorted_slots(filter);
        for &slot in &slots {
            self.verified(key_at(&self.meta, slot), slot)?;
        }
        Ok(Snapshot { slots })
    }

    /// The records of `snapshot`, taken of this store and unchanged since,
    /// in `range` of its key order, each read where it lies: its value
    /// leaves the store only through [`SnapshotRecord::copy_value`], which
    /// checks it again over the copy.
    ///
    /// # Panics
    /// Panics if `range` reaches past the snapshot's end.
    pub fn snapshot_records<'a>(
        &'a self,
        snapshot: &'a Snapshot,
        range: Range<usize>,
    ) -> impl ExactSizeIterator<Item = SnapshotRecord<'a>> + Clone + 'a {
        snapshot.slots[range].iter().map(|&slot| SnapshotRecord {
            key: key_at(&self.meta, slot),
            timestamp: self.timestamp_at(slot),
            held: self.host_arena.held(slot as usize),
            digest: &self.meta[slot as usize].value_hash,
        })
    }

    /// Exports every `(key, value, timestamp)` whose key satisfies `filter`,
    /// in key order, each value copied out of the verified read
    /// ([`Self::read`]): integrity is re-checked against the enclave-held
    /// hash (and the value decrypted in confidential mode) before it leaves
    /// the store. Fails on the first record that does not verify. The owned
    /// form of a [`Snapshot`]'s records, which a transfer reads in place.
    pub fn export_matching(
        &self,
        filter: impl Fn(&[u8]) -> bool,
    ) -> Result<Vec<ExportedEntry>, KvError> {
        let slots = self.sorted_slots(filter);
        let mut out = Vec::with_capacity(slots.len());
        for slot in slots {
            let key = key_at(&self.meta, slot);
            let read = self.verified(key, slot)?;
            let mut value = Vec::new();
            read.copy_into(&mut value);
            out.push((key.to_vec(), value, read.timestamp));
        }
        Ok(out)
    }

    /// Deletes every key satisfying `filter` (donor-side range eviction after
    /// a migration cutover), in key order. Returns how many keys were
    /// removed.
    pub fn remove_matching(&mut self, filter: impl Fn(&[u8]) -> bool) -> usize {
        let slots = self.sorted_slots(filter);
        for &slot in &slots {
            self.delete_slot(slot);
        }
        slots.len()
    }

    // ------------------------------------------------------------------
    // Byzantine-host fault injection (used by tests and examples)
    // ------------------------------------------------------------------

    /// Simulates a Byzantine host flipping bits in the stored value for `key`.
    /// Returns `true` if there was a value to corrupt.
    pub fn corrupt_host_value(&mut self, key: &[u8]) -> bool {
        let Some(slot) = self.slot(key) else {
            return false;
        };
        match self.host_arena.held_mut(slot as usize) {
            Some(Some(bytes)) => {
                match bytes.first_mut() {
                    Some(first) => *first ^= 0xFF,
                    None => *bytes = Box::new([0xFF]),
                }
                true
            }
            _ => false,
        }
    }

    /// Simulates a Byzantine host deleting the stored value for `key` while leaving
    /// the enclave metadata untouched.
    #[cfg(test)]
    pub(crate) fn drop_host_value(&mut self, key: &[u8]) -> bool {
        let Some(slot) = self.slot(key) else {
            return false;
        };
        self.host_arena.take(slot as usize).is_some()
    }

    /// Returns a snapshot of the raw bytes the untrusted host can observe for `key`.
    /// Confidential stores expose only ciphertext here — the basis of the
    /// "host learns nothing" tests.
    pub fn host_visible_bytes(&self, key: &[u8]) -> Option<Vec<u8>> {
        let slot = self.slot(key)?;
        let (bytes, _) = self.host_arena.held(slot as usize)?;
        Some(bytes.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashMap};

    impl HostArena {
        /// The bytes `slot` holds, as the host sees them.
        fn bytes(&self, slot: usize) -> Option<&[u8]> {
            Some(self.held(slot)?.0)
        }
    }

    impl PartitionedKvStore {
        /// Deletes `key`. Returns `true` if it existed.
        fn delete(&mut self, key: &[u8]) -> bool {
            let Some(slot) = self.slot(key) else {
                return false;
            };
            self.delete_slot(slot);
            true
        }

        /// Writes `(key, value, timestamp)` records in order, as a transfer
        /// installs them: later records win for a repeated key.
        fn import_entries<K: AsRef<[u8]>>(
            &mut self,
            entries: impl IntoIterator<Item = (K, Vec<u8>, Timestamp)>,
        ) -> usize {
            let mut imported = 0;
            for (key, value, timestamp) in entries {
                self.write_owned(key.as_ref(), value, timestamp);
                imported += 1;
            }
            imported
        }
    }

    fn plain_store() -> PartitionedKvStore {
        PartitionedKvStore::new(StoreConfig::default())
    }

    fn confidential_store() -> PartitionedKvStore {
        PartitionedKvStore::new(
            StoreConfig::default().with_cipher(CipherKey::from_bytes([7u8; 32])),
        )
    }

    /// Every key `store` holds, in order.
    fn keys(store: &PartitionedKvStore) -> Vec<Vec<u8>> {
        let slots = store.sorted_slots(|_| true).into_iter();
        slots
            .map(|slot| key_at(&store.meta, slot).to_vec())
            .collect()
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut store = plain_store();
        store.write(b"k", b"value-1", Timestamp::new(1, 0)).unwrap();
        let read = store.get(b"k").unwrap();
        assert_eq!(read.value, b"value-1");
        assert_eq!(read.timestamp, Timestamp::new(1, 0));
        assert_eq!(keys(&store), vec![b"k".to_vec()]);
    }

    #[test]
    fn missing_key_reports_not_found() {
        let mut store = plain_store();
        assert_eq!(store.get(b"nope"), Err(KvError::NotFound));
        assert_eq!(store.timestamp_of(b"nope"), None);
        assert!(!store.delete(b"nope"));
    }

    #[test]
    fn write_if_newer_enforces_timestamp_order() {
        let mut store = plain_store();
        assert!(store.write_if_newer(b"k", b"v1", Timestamp::new(5, 1)));
        // Older timestamp: skipped.
        assert!(!store.write_if_newer(b"k", b"old", Timestamp::new(4, 9)));
        assert_eq!(store.get(b"k").unwrap().value, b"v1");
        // Equal timestamp: also skipped (not strictly newer).
        assert!(!store.write_if_newer(b"k", b"same", Timestamp::new(5, 1)));
        // Newer: applied.
        assert!(store.write_if_newer(b"k", b"v2", Timestamp::new(5, 2)));
        assert_eq!(store.get(b"k").unwrap().value, b"v2");
    }

    #[test]
    fn host_corruption_is_detected_on_read() {
        let mut store = plain_store();
        store
            .write(b"k", b"legit value", Timestamp::new(1, 0))
            .unwrap();
        assert!(store.corrupt_host_value(b"k"));
        assert!(matches!(
            store.get(b"k"),
            Err(KvError::IntegrityViolation { .. })
        ));
    }

    #[test]
    fn host_deletion_is_detected_on_read() {
        let mut store = plain_store();
        store.write(b"k", b"v", Timestamp::new(1, 0)).unwrap();
        assert!(store.drop_host_value(b"k"));
        assert!(matches!(
            store.get(b"k"),
            Err(KvError::HostValueMissing { .. })
        ));
    }

    #[test]
    fn confidential_store_roundtrips_and_hides_plaintext() {
        let mut store = confidential_store();
        assert!(store.is_confidential());
        store
            .write(
                b"patient:42",
                b"diagnosis: classified",
                Timestamp::new(1, 0),
            )
            .unwrap();
        assert_eq!(
            store.get(b"patient:42").unwrap().value,
            b"diagnosis: classified"
        );
        // The untrusted host sees ciphertext only.
        let visible = store.host_visible_bytes(b"patient:42").unwrap();
        assert_ne!(visible, b"diagnosis: classified");
    }

    #[test]
    fn confidential_store_detects_ciphertext_tampering() {
        let mut store = confidential_store();
        store.write(b"k", b"secret", Timestamp::new(1, 0)).unwrap();
        assert!(store.corrupt_host_value(b"k"));
        assert!(matches!(
            store.get(b"k"),
            Err(KvError::DecryptionFailed { .. })
        ));
    }

    /// The slot `key` has.
    fn slot_of(store: &PartitionedKvStore, key: &[u8]) -> usize {
        store.slot(key).expect("a stored key") as usize
    }

    /// Keys that are prefixes of one another, and keys whose last four
    /// bytes read as another key's slot, each find their own slot and
    /// value — before and after a delete frees a slot and a new key takes
    /// it. The freed slot holds no key until then.
    #[test]
    fn each_key_finds_its_own_slot() {
        let mut store = plain_store();
        let mut keys: Vec<Vec<u8>> = vec![
            b"".to_vec(),
            b"a".to_vec(),
            b"ab".to_vec(),
            b"abcd".to_vec(),
        ];
        // "abcd" followed by the bytes of slot 1, 2 and 0, and slot 3's bytes
        // alone: keys that spell the slot numbers the index holds.
        for slot in [1u32, 2, 0] {
            keys.push([&b"abcd"[..], &slot.to_le_bytes()].concat());
        }
        keys.push(3u32.to_le_bytes().to_vec());
        for (i, key) in keys.iter().enumerate() {
            store
                .write(key, format!("v{i}").as_bytes(), Timestamp::new(1, 0))
                .unwrap();
        }
        let held = |store: &PartitionedKvStore, key: &[u8]| {
            (slot_of(store, key), store.get(key).unwrap().value)
        };
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(
                held(&store, key),
                (i, format!("v{i}").into_bytes()),
                "{key:?}"
            );
        }
        // "ab" goes; its slot goes to a key that is "ab" with a slot's bytes
        // after it.
        assert!(store.delete(b"ab"));
        assert_eq!(store.get(b"ab"), Err(KvError::NotFound));
        assert_eq!(store.meta[2].key, None);
        let reused = [&b"ab"[..], &2u32.to_le_bytes()].concat();
        store
            .write(&reused, b"reused", Timestamp::new(2, 0))
            .unwrap();
        assert_eq!(held(&store, &reused), (2, b"reused".to_vec()));
        for (i, key) in keys.iter().enumerate().filter(|(i, _)| *i != 2) {
            assert_eq!(
                held(&store, key),
                (i, format!("v{i}").into_bytes()),
                "{key:?}"
            );
        }
        // "ab" comes back in a new slot, beside the key that took its old one.
        store.write(b"ab", b"back", Timestamp::new(3, 0)).unwrap();
        assert_eq!(held(&store, b"ab"), (keys.len(), b"back".to_vec()));
        assert_eq!(held(&store, &reused), (2, b"reused".to_vec()));
        assert_eq!(store.sorted_slots(|_| true).len(), keys.len() + 1);
    }

    /// How many host slots `store` has.
    fn host_len(store: &PartitionedKvStore) -> usize {
        match &store.host_arena {
            HostArena::Plain(slots) => slots.len(),
            HostArena::Sealed { slots, .. } => slots.len(),
        }
    }

    /// The sealed slots of a confidential store and the slot `key` has.
    fn sealed_slot<'a>(
        store: &'a mut PartitionedKvStore,
        key: &[u8],
    ) -> (&'a mut Slots<SealedSlot>, usize) {
        let slot = slot_of(store, key);
        let HostArena::Sealed { slots, .. } = &mut store.host_arena else {
            panic!("a confidential store seals");
        };
        (slots, slot)
    }

    /// The host's copy of what it holds for `key`, to put back later.
    fn host_copy(store: &mut PartitionedKvStore, key: &[u8]) -> SealedSlot {
        let (slots, slot) = sealed_slot(store, key);
        slots[slot].clone()
    }

    fn host_put(store: &mut PartitionedKvStore, key: &[u8], value: SealedSlot) {
        let (slots, slot) = sealed_slot(store, key);
        slots[slot] = value;
    }

    /// Reads `key` expecting the failure a tampered sealed value gives. It
    /// comes from `read`, which makes no keystream — only the
    /// `VerifiedRead` it returns on success can — so nothing the host
    /// substituted is ever decrypted.
    fn assert_refused(store: &mut PartitionedKvStore, key: &[u8]) {
        let refused = Err(KvError::DecryptionFailed { key: key.to_vec() });
        assert_eq!(store.read(key).map(|read| read.timestamp), refused);
    }

    #[test]
    fn sealed_values_swapped_between_keys_are_refused() {
        let mut store = confidential_store();
        store.write(b"a", b"value-A", Timestamp::new(1, 0)).unwrap();
        store.write(b"b", b"value-B", Timestamp::new(1, 0)).unwrap();
        // Two well-formed sealed values of equal length, each with the nonce
        // it was sealed under: only the key they sit under is wrong.
        let (a, b) = (host_copy(&mut store, b"a"), host_copy(&mut store, b"b"));
        host_put(&mut store, b"a", b.clone());
        host_put(&mut store, b"b", a.clone());
        assert_refused(&mut store, b"a");
        assert_refused(&mut store, b"b");
        host_put(&mut store, b"a", a);
        host_put(&mut store, b"b", b);
        assert_eq!(store.get(b"a").unwrap().value, b"value-A");
        assert_eq!(store.get(b"b").unwrap().value, b"value-B");
    }

    #[test]
    fn a_restored_older_sealed_value_is_refused() {
        let mut store = confidential_store();
        store
            .write(b"k", b"balance=100", Timestamp::new(1, 0))
            .unwrap();
        let old = host_copy(&mut store, b"k");
        store
            .write(b"k", b"balance=000", Timestamp::new(2, 0))
            .unwrap();
        // The host rolls the key back to a value this store itself sealed.
        host_put(&mut store, b"k", old);
        assert_refused(&mut store, b"k");
    }

    /// The host keeps the counter that names a sealed value's nonce; a copy
    /// with any one of its 64 bits flipped is refused.
    #[test]
    fn a_flipped_nonce_bit_is_refused() {
        let mut store = confidential_store();
        store.write(b"k", b"secret", Timestamp::new(1, 0)).unwrap();
        let sealed = host_copy(&mut store, b"k");
        for bit in 0..64 {
            let tampered = SealedSlot {
                counter: sealed.counter ^ (1 << bit),
                ..sealed.clone()
            };
            host_put(&mut store, b"k", tampered);
            assert_refused(&mut store, b"k");
        }
        host_put(&mut store, b"k", sealed);
        assert_eq!(store.get(b"k").unwrap().value, b"secret");
    }

    #[test]
    fn plain_store_exposes_plaintext_to_host() {
        // Negative control for the confidentiality property.
        let mut store = plain_store();
        store
            .write(b"k", b"public value", Timestamp::new(1, 0))
            .unwrap();
        assert_eq!(store.host_visible_bytes(b"k").unwrap(), b"public value");
    }

    #[test]
    fn delete_frees_host_slots_for_reuse() {
        let mut store = plain_store();
        store.write(b"a", b"1", Timestamp::new(1, 0)).unwrap();
        store.write(b"b", b"2", Timestamp::new(1, 0)).unwrap();
        assert!(store.delete(b"a"));
        let arena_len = host_len(&store);
        store.write(b"c", b"3", Timestamp::new(1, 0)).unwrap();
        assert_eq!((host_len(&store), store.meta.len()), (arena_len, arena_len));
        assert_eq!(keys(&store).len(), 2);
        assert_eq!(keys(&store), vec![b"b".to_vec(), b"c".to_vec()]);
    }

    /// Slots fill page after page, each page allocated at its exact size
    /// and never moved by the pages after it.
    #[test]
    fn slots_fill_fixed_pages_that_never_move() {
        let mut slots = Slots::new();
        assert_eq!((slots.len(), slots.get(0)), (0, None));
        let first = slots.push(0usize);
        let page = slots.pages[0].as_ptr();
        for n in 1..3 * SLOT_PAGE + 5 {
            assert_eq!(slots.push(n), n);
        }
        assert_eq!((first, slots.len()), (0, 3 * SLOT_PAGE + 5));
        assert_eq!(slots.pages.len(), 4);
        assert!(slots.pages.iter().all(|p| p.capacity() == SLOT_PAGE));
        assert_eq!(slots.pages[0].as_ptr(), page);
        for n in 0..slots.len() {
            assert_eq!((slots[n], slots.get(n)), (n, Some(&n)));
        }
        assert_eq!(slots.get(slots.len()), None);
        slots[SLOT_PAGE + 1] = 7;
        *slots.get_mut(2 * SLOT_PAGE).unwrap() += 1;
        assert_eq!(
            (slots[SLOT_PAGE + 1], slots[2 * SLOT_PAGE]),
            (7, 2 * SLOT_PAGE + 1)
        );
        assert_eq!(slots.get_mut(slots.len()), None);
    }

    fn paged_key(i: usize) -> Vec<u8> {
        format!("key-{i:04}").into_bytes()
    }

    fn paged_value(i: usize) -> Vec<u8> {
        format!("value-{i}").into_bytes()
    }

    /// A store whose keys fill three pages and part of a fourth.
    fn paged_store(mut store: PartitionedKvStore) -> PartitionedKvStore {
        for i in 0..3 * SLOT_PAGE + 10 {
            let ts = Timestamp::new(i as u64 + 1, 0);
            store.write(&paged_key(i), &paged_value(i), ts).unwrap();
        }
        store
    }

    /// Keys deleted from every page give their slots to new keys: a reused
    /// slot serves only the key that holds it now, and the deleted key
    /// reads `NotFound`, timestamp and all.
    #[test]
    fn a_reused_slot_never_serves_the_key_deleted_from_it() {
        for store in [plain_store(), confidential_store()] {
            let mut store = paged_store(store);
            let slots = host_len(&store);
            assert_eq!((slots, store.meta.len()), (3 * SLOT_PAGE + 10, slots));
            let deleted: Vec<usize> = (0..slots).step_by(SLOT_PAGE / 2 + 1).collect();
            for &i in &deleted {
                assert!(store.delete(&paged_key(i)));
            }
            for (n, &i) in deleted.iter().enumerate() {
                let key = format!("new-{i}").into_bytes();
                let ts = Timestamp::new(1_000 + n as u64, 1);
                store.write(&key, &paged_value(i + 1), ts).unwrap();
                let read = store.get(&key).unwrap();
                assert_eq!((read.value, read.timestamp), (paged_value(i + 1), ts));
                assert!(slot_of(&store, &key) < slots);
            }
            assert_eq!((host_len(&store), store.meta.len()), (slots, slots));
            for i in 0..slots {
                let key = paged_key(i);
                if deleted.contains(&i) {
                    assert_eq!(store.get(&key), Err(KvError::NotFound));
                    assert_eq!(store.timestamp_of(&key), None);
                } else {
                    assert_eq!(store.get(&key).unwrap().value, paged_value(i));
                }
            }
            let (verified, discarded, _) = store.rehydrate();
            assert_eq!((verified, discarded), (slots as u64, 0));
        }
    }

    /// A Byzantine host that flips or drops a value in a later page is
    /// refused there as in the first, and its neighbours still verify.
    #[test]
    fn host_tampering_in_a_later_page_is_refused_on_read() {
        for confidential in [false, true] {
            let new_store = if confidential {
                confidential_store
            } else {
                plain_store
            };
            let mut store = paged_store(new_store());
            let (flipped, dropped) = (paged_key(SLOT_PAGE + 3), paged_key(SLOT_PAGE + 4));
            assert_eq!(slot_of(&store, &flipped) / SLOT_PAGE, 1);
            assert_eq!(slot_of(&store, &dropped) / SLOT_PAGE, 1);
            assert!(store.corrupt_host_value(&flipped));
            assert!(store.drop_host_value(&dropped));
            let tampered = if confidential {
                KvError::DecryptionFailed {
                    key: flipped.clone(),
                }
            } else {
                KvError::IntegrityViolation {
                    key: flipped.clone(),
                }
            };
            assert_eq!(store.get(&flipped), Err(tampered));
            let missing = KvError::HostValueMissing {
                key: dropped.clone(),
            };
            assert_eq!(store.get(&dropped), Err(missing));
            for i in [SLOT_PAGE + 2, SLOT_PAGE + 5, 2 * SLOT_PAGE] {
                assert_eq!(store.get(&paged_key(i)).unwrap().value, paged_value(i));
            }
        }
    }

    #[test]
    fn export_matching_verifies_and_returns_range_in_key_order() {
        let mut store = confidential_store();
        for i in 0..20 {
            store
                .write(
                    format!("user{i:04}").as_bytes(),
                    format!("value-{i}").as_bytes(),
                    Timestamp::new(i, 1),
                )
                .unwrap();
        }
        let exported = store
            .export_matching(|key| key < b"user0010".as_slice())
            .unwrap();
        assert_eq!(exported.len(), 10);
        assert_eq!(exported[0].0, b"user0000");
        assert_eq!(exported[9].0, b"user0009");
        assert_eq!(exported[3].1, b"value-3");
        assert_eq!(exported[3].2, Timestamp::new(3, 1));
        // Exported values are verified plaintext even from a confidential store.
        assert!(exported.iter().all(|(_, v, _)| v.starts_with(b"value-")));
    }

    #[test]
    fn export_matching_refuses_corrupted_host_state() {
        let mut store = plain_store();
        store.write(b"a", b"ok", Timestamp::new(1, 0)).unwrap();
        store.write(b"b", b"bad", Timestamp::new(1, 0)).unwrap();
        assert!(store.corrupt_host_value(b"b"));
        assert!(matches!(
            store.export_matching(|_| true),
            Err(KvError::IntegrityViolation { .. })
        ));
    }

    #[test]
    fn import_entries_replays_in_order_and_remove_matching_evicts() {
        let mut donor = plain_store();
        donor.write(b"k1", b"v1", Timestamp::new(5, 2)).unwrap();
        donor.write(b"k2", b"v2", Timestamp::new(6, 2)).unwrap();
        let snapshot = donor.export_matching(|_| true).unwrap();

        let mut recipient = plain_store();
        assert_eq!(recipient.import_entries(snapshot), 2);
        // Catch-up record for k1 arrives after the snapshot: later wins.
        recipient.import_entries(vec![(
            b"k1".to_vec(),
            b"v1'".to_vec(),
            Timestamp::new(7, 2),
        )]);
        assert_eq!(recipient.get(b"k1").unwrap().value, b"v1'");
        assert_eq!(
            recipient.get(b"k1").unwrap().timestamp,
            Timestamp::new(7, 2)
        );
        assert_eq!(recipient.get(b"k2").unwrap().value, b"v2");

        // Donor-side eviction after cutover.
        assert_eq!(donor.remove_matching(|key| key == b"k1"), 1);
        assert_eq!(donor.get(b"k1"), Err(KvError::NotFound));
        assert_eq!(donor.get(b"k2").unwrap().value, b"v2");
        assert_eq!(donor.remove_matching(|key| key == b"missing"), 0);
    }

    #[test]
    fn confidential_ciphertext_is_as_long_as_the_value() {
        let mut store = confidential_store();
        store
            .write(b"k", &[0u8; 1000], Timestamp::new(1, 0))
            .unwrap();
        // The ciphertext is as long as the value.
        assert_eq!(store.host_visible_bytes(b"k").unwrap().len(), 1000);
    }

    #[test]
    fn an_owned_value_is_sealed_in_the_buffer_it_came_in() {
        for mut store in [plain_store(), confidential_store()] {
            let value = b"balance=100".repeat(8);
            let at = value.as_ptr();
            store.write_owned(b"k", value, Timestamp::new(1, 0));
            // The arena holds the caller's allocation, sealed or not.
            let kept = store.host_arena.bytes(slot_of(&store, b"k")).unwrap();
            assert_eq!(kept.as_ptr(), at);
            assert_eq!(store.get(b"k").unwrap().value, b"balance=100".repeat(8));
        }
    }

    /// A verified read copies into a lent buffer with room for the value,
    /// decrypting it there on a confidential store, and leaves the buffer
    /// where it lies; a value that fails the digest, or a missing key, gives
    /// nothing to copy.
    #[test]
    fn a_verified_read_fills_a_lent_buffer_where_it_lies() {
        for mut store in [plain_store(), confidential_store()] {
            store
                .write(b"k", b"balance=100", Timestamp::new(3, 1))
                .unwrap();
            let read = store.read(b"k").unwrap();
            assert_eq!(read.timestamp, Timestamp::new(3, 1));
            let mut out = Vec::with_capacity(read.value_len());
            out.extend_from_slice(b"stale");
            let at = out.as_ptr();
            read.copy_into(&mut out);
            assert_eq!((out.as_slice(), out.as_ptr()), (&b"balance=100"[..], at));
            assert_eq!(store.read(b"none").err(), Some(KvError::NotFound));
            assert!(store.corrupt_host_value(b"k"));
            assert!(store.read(b"k").is_err());
        }
    }

    /// The host slot holds each value at its exact length. A new key keeps
    /// the caller's buffer when it has no room to spare, and otherwise gets
    /// an exact copy while the buffer goes back. A same-length overwrite
    /// goes over the slot's bytes where they lie, sealed there on a
    /// confidential store, and hands back the caller's buffer as it came.
    /// Either way the store reads as `write` leaves it, and a tampered
    /// value is still refused.
    #[test]
    fn a_write_hands_back_the_buffer_it_was_given() {
        let (first, second, third) = (
            Timestamp::new(1, 0),
            Timestamp::new(2, 3),
            Timestamp::new(3, 1),
        );
        for (mut owned, mut copied) in [
            (plain_store(), plain_store()),
            (confidential_store(), confidential_store()),
        ] {
            // A new key whose buffer is exactly its length keeps it.
            let exact = b"balance=100".to_vec();
            assert_eq!(exact.capacity(), exact.len());
            let at = exact.as_ptr();
            assert_eq!(owned.write_owned(b"k", exact, first), None);
            let slot = slot_of(&owned, b"k");
            assert_eq!(owned.host_arena.bytes(slot).unwrap().as_ptr(), at);

            // A same-length overwrite stays in the slot's box and hands back
            // the given buffer, pointer and capacity unchanged.
            let mut given = Vec::with_capacity(64);
            given.extend_from_slice(b"balance=000");
            let (given_at, given_capacity) = (given.as_ptr(), given.capacity());
            let back = owned.write_owned(b"k", given, second).expect("handed back");
            assert_eq!((back.as_ptr(), back.capacity()), (given_at, given_capacity));
            assert_eq!(back, b"balance=000");
            assert_eq!(owned.host_arena.bytes(slot).unwrap().as_ptr(), at);

            // A lent value of the same length is copied over the slot's box.
            copied.write(b"k", b"balance=100", first).unwrap();
            let copied_at = copied.host_arena.bytes(slot).unwrap().as_ptr();
            assert_eq!(copied.write(b"k", b"balance=000", second), Ok(()));
            assert_eq!(copied.host_arena.bytes(slot).unwrap().as_ptr(), copied_at);
            assert_eq!(
                owned.host_visible_bytes(b"k"),
                copied.host_visible_bytes(b"k")
            );
            let read = owned.get(b"k").unwrap();
            assert_eq!(
                (&read.value[..], read.timestamp),
                (&b"balance=000"[..], second)
            );
            assert_eq!(Ok(read), copied.get(b"k"));

            // A new key whose buffer has room to spare gets an exact box, and
            // its buffer comes back.
            let mut roomy = Vec::with_capacity(64);
            roomy.extend_from_slice(b"other");
            let roomy_at = roomy.as_ptr();
            let back = owned.write_owned(b"j", roomy, first).expect("handed back");
            assert_eq!((back.as_ptr(), back.capacity()), (roomy_at, 64));
            let held = owned.host_arena.bytes(slot_of(&owned, b"j")).unwrap();
            assert_ne!(held.as_ptr(), roomy_at);
            assert_eq!(held.len(), 5);
            assert_eq!(owned.get(b"j").unwrap().value, b"other");

            // An overwrite of another length keeps an exact buffer and hands
            // back the one it displaces.
            let longer = b"balance=1000".to_vec();
            let displaced = owned.write_owned(b"k", longer, third).expect("displaced");
            assert_eq!((displaced.as_ptr(), displaced.len()), (at, 11));
            assert_eq!(owned.get(b"k").unwrap().value, b"balance=1000");

            assert!(owned.corrupt_host_value(b"k"));
            assert!(matches!(
                owned.get(b"k"),
                Err(KvError::IntegrityViolation { .. } | KvError::DecryptionFailed { .. })
            ));
            assert!(owned.drop_host_value(b"k"));
            assert_eq!(owned.write_owned(b"k", b"x".to_vec(), third), None);
            assert_eq!(owned.get(b"k").unwrap().value, b"x");
        }
    }

    /// A lent write asks for a spare only when the slot needs a new box: a
    /// new key, or a length the key does not hold. An exact-length spare is
    /// kept where it lies, and the box it displaces comes back.
    #[test]
    fn a_lent_write_takes_a_spare_only_for_a_new_box() {
        for mut store in [plain_store(), confidential_store()] {
            let mut spares = Vec::new();
            let mut spare = |len| {
                let spare = Vec::with_capacity(len);
                spares.push(spare.as_ptr());
                Some(spare)
            };
            let ts = Timestamp::new(1, 0);
            assert_eq!(store.write_lent(b"k", b"balance=100", ts, &mut spare), None);
            assert_eq!(store.write_lent(b"k", b"balance=000", ts, &mut spare), None);
            let displaced = store.write_lent(b"k", b"balance=1000", ts, &mut spare);
            assert_eq!(displaced.map(|old| old.len()), Some(11));
            let held = store.host_arena.bytes(slot_of(&store, b"k")).unwrap();
            assert_eq!((spares.len(), held.as_ptr()), (2, spares[1]));
            assert_eq!(store.get(b"k").unwrap().value, b"balance=1000");
        }
    }

    /// Timestamps that do not pack into a slot's word — a logical clock of
    /// 2^48 or more, a node of 2^16 or more, the 2PC coordinator's node
    /// `u64::MAX - 1`, and the one whose packed form would read as the
    /// marker — round-trip exactly through every path that hands one out,
    /// and order writes as they should.
    #[test]
    fn timestamps_that_do_not_pack_round_trip_exactly() {
        let wide = [
            Timestamp::new(1 << 48, 0),
            Timestamp::new(1, 1 << 16),
            Timestamp::new(7, u64::MAX - 1),
            Timestamp::new((1 << 48) - 1, (1 << 16) - 1),
            Timestamp::new(u64::MAX, u64::MAX),
        ];
        let narrow = Timestamp::new((1 << 48) - 1, (1 << 16) - 2);
        for new_store in [plain_store, confidential_store] {
            let mut store = new_store();
            for (i, &ts) in wide.iter().enumerate() {
                let key = format!("wide-{i}").into_bytes();
                store.write(&key, &paged_value(i), ts).unwrap();
                assert_eq!(store.timestamp_of(&key), Some(ts));
                let read = store.read(&key).unwrap();
                assert_eq!(read.timestamp, ts);
            }
            store.write(b"narrow", b"n", narrow).unwrap();
            assert_eq!(store.spilled.len(), wide.len());
            assert_eq!(
                store.newest_timestamp(),
                Some(Timestamp::new(u64::MAX, u64::MAX))
            );

            // The write rule compares whole timestamps, spilled or not.
            let key = b"wide-1";
            assert!(!store.write_if_newer(key, b"stale", Timestamp::new(1, 1 << 15)));
            assert!(!store.write_if_newer(key, b"equal", Timestamp::new(1, 1 << 16)));
            assert!(store.write_if_newer(key, b"newer", Timestamp::new(1, (1 << 16) + 1)));
            assert_eq!(
                store.get(key).unwrap().timestamp,
                Timestamp::new(1, (1 << 16) + 1)
            );
            // An overwrite whose stamp packs takes the key out of the map.
            assert!(store.write_if_newer(key, b"packed", Timestamp::new(2, 3)));
            assert_eq!(store.timestamp_of(key), Some(Timestamp::new(2, 3)));
            assert_eq!(store.spilled.len(), wide.len() - 1);

            let exported = store
                .export_matching(|key| key.starts_with(b"wide"))
                .unwrap();
            let stamps: Vec<Timestamp> = exported.iter().map(|(_, _, ts)| *ts).collect();
            let mut expected = wide.to_vec();
            expected[1] = Timestamp::new(2, 3);
            assert_eq!(stamps, expected);
            let mut copy = new_store();
            copy.import_entries(exported.clone());
            assert_eq!(copy.export_matching(|_| true).unwrap(), exported);

            assert_eq!(store.rehydrate(), (wide.len() as u64 + 1, 0, 71));
            assert_eq!(store.timestamp_of(b"wide-2"), Some(wide[2]));

            // A deleted key's slot, taken by a stamp that packs, keeps no
            // spill entry: the new key reads its own timestamp.
            let freed = slot_of(&store, b"wide-0") as u32;
            assert!(store.delete(b"wide-0"));
            assert!(!store.spilled.contains_key(&freed));
            store.write(b"reuse", b"r", Timestamp::new(9, 9)).unwrap();
            assert_eq!(slot_of(&store, b"reuse") as u32, freed);
            assert_eq!(store.timestamp_of(b"reuse"), Some(Timestamp::new(9, 9)));
            assert_eq!(store.spilled.len(), wide.len() - 2);
            assert_eq!(
                store.newest_timestamp(),
                Some(Timestamp::new(u64::MAX, u64::MAX))
            );
        }
    }

    #[test]
    fn empty_value_roundtrip() {
        let mut store = plain_store();
        store.write(b"k", b"", Timestamp::new(1, 0)).unwrap();
        assert_eq!(store.get(b"k").unwrap().value, b"");
    }

    #[test]
    fn store_level_txn_prepare_commit_roundtrip() {
        let mut store = plain_store();
        store.write(b"a", b"old", Timestamp::new(1, 0)).unwrap();
        store
            .txn_prepare(
                7,
                &[
                    (b"a".to_vec(), Some(b"new".to_vec())),
                    (b"b".to_vec(), None),
                ],
            )
            .unwrap();
        assert!(store.is_locked(b"a"));
        assert_eq!(store.lock_owner(b"b"), Some(7));
        assert_eq!(store.locked_keys(), 2);
        assert_eq!(store.txn_staged_bytes(), 4);
        // A second transaction conflicts on either key.
        assert!(matches!(
            store.txn_prepare(8, &[(b"b".to_vec(), Some(b"x".to_vec()))]),
            Err(KvError::LockConflict { holder: 7, .. })
        ));
        // The staged value is not visible until the caller applies it.
        assert_eq!(store.get(b"a").unwrap().value, b"old");
        let writes = store.txn_take_staged(7).unwrap();
        for (key, value) in &writes {
            store.write(key, value, Timestamp::new(2, 0)).unwrap();
        }
        assert_eq!(store.get(b"a").unwrap().value, b"new");
        assert_eq!(store.locked_keys(), 0);
        assert!(!store.txn_abort(7));
    }

    /// A key from one of three stems and a short tail of few distinct bytes,
    /// so keys repeat and extend one another: `""`, `"ab"`, `"ab\0"`, …
    fn shaped_key(stem: u8, tail: &[u8]) -> Vec<u8> {
        let stem: &[u8] = match stem {
            0 => b"",
            1 => b"ab",
            _ => b"ab\0",
        };
        let tail = tail.iter().map(|&i| [0, b'a', 0xff][usize::from(i)]);
        stem.iter().copied().chain(tail).collect()
    }

    /// `count` keys whose home bucket in a table of 64 buckets, under
    /// `store`'s hasher, is one of the last four — and so also in every
    /// table of 8 to 32: their probe runs wrap past the last bucket.
    fn keys_homed_at_the_end(store: &PartitionedKvStore, count: usize) -> Vec<Vec<u8>> {
        (0u32..)
            .map(|i| format!("end-{i}").into_bytes())
            .filter(|key| store.index.hasher.hash_one(key.as_slice()) & 63 >= 60)
            .take(count)
            .collect()
    }

    /// Checks `store`'s index against `model`, the live keys and their
    /// values, and `pool`, every key a test writes: each live key is
    /// reachable from its home bucket without crossing an empty one, no
    /// other key is found, and the table holds as many keys as the model,
    /// under its load cap.
    fn check_index(
        store: &PartitionedKvStore,
        model: &BTreeMap<Vec<u8>, Vec<u8>>,
        pool: &[Vec<u8>],
    ) -> Result<(), String> {
        let index = &store.index;
        let buckets = index.buckets.len();
        let held = index.buckets.iter().filter(|&&slot| slot != EMPTY).count();
        prop_assert_eq!((index.len, held), (model.len(), model.len()));
        prop_assert!(held <= buckets * 7 / 8 && buckets <= 64);
        for key in pool {
            let Some(value) = model.get(key) else {
                prop_assert_eq!(store.slot(key), None);
                prop_assert_eq!(store.get(key), Err(KvError::NotFound));
                continue;
            };
            let slot = live(&store.meta)
                .find(|(live, _)| live == key)
                .map(|(_, slot)| slot);
            let mut bucket = index.home(key);
            for _ in 0..buckets {
                prop_assert!(
                    index.buckets[bucket] != EMPTY,
                    "{:?} is past an empty bucket",
                    key
                );
                if Some(index.buckets[bucket]) == slot {
                    break;
                }
                bucket = (bucket + 1) % buckets;
            }
            prop_assert_eq!(Some(index.buckets[bucket]), slot);
            prop_assert_eq!(&store.get(key).unwrap().value, value);
        }
        Ok(())
    }

    /// Two stores, each under a hasher of its own keys, fed the same
    /// writes and deletes: their tables differ, and every walk of their
    /// keys — slots, the newest timestamp, exports, evictions, recovery —
    /// comes out the same.
    #[test]
    fn stores_under_two_hashers_walk_their_keys_in_one_order() {
        let (mut first, mut second) = (plain_store(), confidential_store());
        for store in [&mut first, &mut second] {
            for i in 0..300 {
                let ts = Timestamp::new(i as u64 + 1, (i % 5) as u64);
                store.write(&paged_key(i), &paged_value(i), ts).unwrap();
            }
            for i in (0..300).step_by(3) {
                assert!(store.delete(&paged_key(i)));
            }
            for i in 300..350 {
                store
                    .write(&paged_key(i), &paged_value(i), Timestamp::new(7, 0))
                    .unwrap();
            }
            assert!(store.corrupt_host_value(&paged_key(301)));
        }
        assert_ne!(first.index.buckets, second.index.buckets);
        let walk = |store: &PartitionedKvStore| {
            live(&store.meta)
                .map(|(key, slot)| (key.to_vec(), slot))
                .collect::<Vec<_>>()
        };
        assert_eq!(walk(&first), walk(&second));
        assert_eq!(first.newest_timestamp(), second.newest_timestamp());
        assert_eq!(first.rehydrate(), second.rehydrate());
        let low = |key: &[u8]| key < b"key-0100".as_slice();
        assert_eq!(
            first.export_matching(low).unwrap(),
            second.export_matching(low).unwrap()
        );
        assert_eq!(first.remove_matching(low), second.remove_matching(low));
        assert_eq!(walk(&first), walk(&second));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Writes and deletes over a pool of 56 keys, at most 64 buckets'
        /// worth, two in five of them homed in the last buckets so that
        /// probe runs, and the shifts of the deletes in them, wrap past the
        /// last bucket to the first: after every operation the index holds
        /// exactly the live keys of a `BTreeMap` model, each on its probe run.
        #[test]
        fn the_index_keeps_every_key_on_its_probe_run(
            ops in proptest::collection::vec((0u8..5, 0usize..56), 0..240),
        ) {
            let mut store = plain_store();
            let mut pool = keys_homed_at_the_end(&store, 24);
            pool.extend((0..32).map(paged_key));
            let mut model = BTreeMap::new();
            for (n, (op, key)) in ops.into_iter().enumerate() {
                let key = &pool[key];
                if op < 3 {
                    let value = paged_value(n);
                    store.write(key, &value, Timestamp::new(n as u64 + 1, 0)).unwrap();
                    model.insert(key.clone(), value);
                } else {
                    prop_assert_eq!(store.delete(key), model.remove(key).is_some());
                }
                check_index(&store, &model, &pool)?;
            }
        }

        #[test]
        fn store_matches_hashmap_model(ops in proptest::collection::vec(
            (0u8..3, 0u8..20, proptest::collection::vec(any::<u8>(), 0..64)), 0..150)) {
            // Model: last write wins by insertion order (we feed strictly increasing
            // timestamps so write_if_newer always applies).
            let mut store = plain_store();
            let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
            let mut ts = 0u64;
            for (op, key_id, value) in ops {
                let key = vec![b'k', key_id];
                match op {
                    0 => {
                        ts += 1;
                        store.write(&key, &value, Timestamp::new(ts, 0)).unwrap();
                        model.insert(key, value);
                    }
                    1 => {
                        prop_assert_eq!(store.delete(&key), model.remove(&key).is_some());
                    }
                    _ => {
                        match model.get(&key) {
                            Some(expected) => {
                                prop_assert_eq!(&store.get(&key).unwrap().value, expected);
                            }
                            None => prop_assert_eq!(store.get(&key), Err(KvError::NotFound)),
                        }
                    }
                }
            }
            prop_assert_eq!(keys(&store).len(), model.len());
        }

        /// The index is a hash table, and nothing may show it: every ordered
        /// operation answers in byte order, as a `BTreeMap` would. Keys come
        /// in the shapes that order has to get right — the empty key, keys
        /// that are prefixes of one another (`ab`, `ab\0`, `ab\0\0`) and
        /// bytes either side of the sign bit.
        #[test]
        fn ordered_operations_match_a_btreemap_model(
            confidential in any::<bool>(),
            ops in proptest::collection::vec((
                0u8..6,
                0u8..3,
                proptest::collection::vec(0u8..3, 0..3),
                proptest::collection::vec(any::<u8>(), 0..16),
            ), 0..120),
            tamper in proptest::collection::vec(0u8..3, 0..24),
        ) {
            let new_store = if confidential { confidential_store } else { plain_store };
            let mut store = new_store();
            let mut model: BTreeMap<Vec<u8>, (Vec<u8>, Timestamp)> = BTreeMap::new();
            for (n, (op, stem, tail, value)) in ops.into_iter().enumerate() {
                let key = shaped_key(stem, &tail);
                match op {
                    0..=2 => {
                        let ts = Timestamp::new(n as u64 + 1, u64::from(op));
                        store.write(&key, &value, ts).unwrap();
                        model.insert(key, (value, ts));
                    }
                    3 | 4 => prop_assert_eq!(store.delete(&key), model.remove(&key).is_some()),
                    _ => {
                        // Evicts `key` and every key it is a prefix of.
                        let before = model.len();
                        model.retain(|k, _| !k.starts_with(&key));
                        let removed = store.remove_matching(|k| k.starts_with(&key));
                        prop_assert_eq!(removed, before - model.len());
                    }
                }
                prop_assert_eq!(keys(&store).len(), model.len());
            }
            let records: Vec<ExportedEntry> = model
                .iter()
                .map(|(key, (value, ts))| (key.clone(), value.clone(), *ts))
                .collect();
            prop_assert_eq!(keys(&store), model.keys().cloned().collect::<Vec<_>>());
            let even = |key: &[u8]| key.len().is_multiple_of(2);
            let expected: Vec<ExportedEntry> =
                records.iter().filter(|(key, _, _)| even(key)).cloned().collect();
            prop_assert_eq!(store.export_matching(even).unwrap(), expected);

            // The same records fed in opposite orders give the same answers.
            let mut forward = new_store();
            let mut backward = new_store();
            forward.import_entries(records.clone());
            backward.import_entries(records.iter().rev().cloned());
            prop_assert_eq!(keys(&forward), keys(&backward));
            let everything = forward.export_matching(|_| true).unwrap();
            prop_assert_eq!(&everything, &backward.export_matching(|_| true).unwrap());
            prop_assert_eq!(&everything, &records);

            // A host that corrupts or drops values: rehydration keeps exactly
            // the records it did not touch, in order.
            let mut kept = Vec::new();
            let mut bytes = 0;
            for (i, (key, value, _)) in records.iter().enumerate() {
                match tamper.get(i) {
                    Some(1) => prop_assert!(store.corrupt_host_value(key)),
                    Some(2) => prop_assert!(store.drop_host_value(key)),
                    _ => {
                        kept.push(key.clone());
                        bytes += (key.len() + value.len()) as u64;
                    }
                }
            }
            let discarded = (records.len() - kept.len()) as u64;
            prop_assert_eq!(store.rehydrate(), (kept.len() as u64, discarded, bytes));
            prop_assert_eq!(keys(&store), kept);
        }

        /// Timestamps drawn from the whole `u64` range, half of them cut to
        /// fit a slot's word, written, written if newer and deleted: every
        /// path that hands a timestamp out gives back exactly the one a
        /// `BTreeMap` model holds, and the spill map holds only the live
        /// keys' timestamps that do not pack.
        #[test]
        fn any_timestamp_round_trips_exactly(
            confidential in any::<bool>(),
            ops in proptest::collection::vec(
                ((0u8..4, 0u8..8), (any::<u64>(), any::<u64>()), any::<bool>()),
                0..80,
            ),
        ) {
            let new_store = if confidential { confidential_store } else { plain_store };
            let mut store = new_store();
            let mut model: BTreeMap<Vec<u8>, (Vec<u8>, Timestamp)> = BTreeMap::new();
            for ((op, key_id), (logical, node), cut) in ops {
                let key = vec![b'k', key_id];
                let ts = if cut {
                    Timestamp::new(logical >> 16, node & 0xFFFF)
                } else {
                    Timestamp::new(logical, node)
                };
                let value = format!("{ts:?}").into_bytes();
                match op {
                    0 => {
                        store.write(&key, &value, ts).unwrap();
                        model.insert(key, (value, ts));
                    }
                    1 => {
                        let newer = model.get(&key).is_none_or(|(_, held)| ts > *held);
                        prop_assert_eq!(store.write_if_newer(&key, &value, ts), newer);
                        if newer {
                            model.insert(key, (value, ts));
                        }
                    }
                    2 => prop_assert_eq!(store.delete(&key), model.remove(&key).is_some()),
                    _ => prop_assert_eq!(store.timestamp_of(&key), model.get(&key).map(|(_, ts)| *ts)),
                }
            }
            let spilled = model.values().filter(|(_, ts)| Stamp::pack(*ts) == Stamp::SPILLED).count();
            prop_assert_eq!(store.spilled.len(), spilled);
            let newest = model.values().map(|(_, ts)| *ts).max();
            prop_assert_eq!(store.newest_timestamp(), newest);
            let records: Vec<ExportedEntry> = model
                .into_iter()
                .map(|(key, (value, ts))| (key, value, ts))
                .collect();
            prop_assert_eq!(store.export_matching(|_| true).unwrap(), records.clone());
            prop_assert_eq!(store.rehydrate().0, records.len() as u64);
            for (key, _, ts) in &records {
                prop_assert_eq!(store.read(key).unwrap().timestamp, *ts);
            }
        }

        #[test]
        fn confidential_roundtrip_arbitrary_values(value in proptest::collection::vec(any::<u8>(), 0..512)) {
            let mut store = confidential_store();
            store.write(b"k", &value, Timestamp::new(1, 0)).unwrap();
            prop_assert_eq!(store.get(b"k").unwrap().value, value.clone());
            if !value.is_empty() {
                prop_assert_ne!(store.host_visible_bytes(b"k").unwrap(), value);
            }
        }
    }
}
