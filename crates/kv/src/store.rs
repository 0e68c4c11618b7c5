//! The partitioned KV store: enclave-resident index, host-resident values.
//!
//! Placement (paper §A.3, Figure 2):
//!
//! * **Enclave region** — the index mapping each key to its metadata: integrity
//!   hash of the value, Lamport timestamp, version, length and a pointer (arena
//!   slot) into host memory. It is a hash table: a point operation is one probe,
//!   and the operations that hand keys out in order (exports, recovery) sort the
//!   keys they collect, so key order is the bytes' order, never the table's.
//!   The paper's index is a skiplist; see the crate doc for why this one is not.
//! * **Host region** — an arena of value buffers. The host is untrusted: a Byzantine
//!   OS/hypervisor may corrupt or delete these buffers at any time, which the store
//!   detects on every read by re-hashing what the host holds and comparing against
//!   the enclave-held hash.
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
//! # One digest per stored value
//!
//! Every key has exactly one authenticator, and it is the enclave-held digest —
//! the host cannot touch it, so it needs no key. A plaintext store hashes
//! `key ‖ value`. A confidential store hashes `key ‖ nonce ‖ stored bytes`,
//! that is, the ciphertext and the nonce it was made under, as the host holds
//! them: the digest is checked **before** any keystream is made, so a swapped,
//! rolled-back or bit-flipped sealed value (or nonce) is refused without
//! being decrypted, and binding the key means a value sealed for one key never
//! verifies under another. The cipher contributes its keystream only
//! ([`recipe_crypto::Cipher::apply_keystream`]): its own tag over the same
//! ciphertext, and a second hash of the plaintext after decryption, would
//! each repeat what this digest already establishes.
//!
//! Nonces count up from one under the store's key. The key must be the
//! store's alone — two stores counting from one under a shared key would seal
//! different values under one keystream; `recipe-protocols` derives it per
//! replica.

use std::collections::HashMap;

use recipe_crypto::{hash_parts, Cipher, CipherKey, Digest, Nonce};
use serde::{Deserialize, Serialize};

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

/// Metadata held inside the enclave for every key.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
struct ValueMeta {
    /// Digest of what the host holds for the key, bound to the key
    /// ([`HostValue::digest`]): the integrity tag checked on every read.
    value_hash: Digest,
    /// Lamport timestamp of the latest write (ABD; other protocols use versions).
    timestamp: Timestamp,
    /// Monotonic per-key version, incremented on every write.
    version: u64,
    /// Slot in the host arena holding the (possibly encrypted) value bytes.
    host_slot: usize,
}

/// What the host arena holds for one key.
#[derive(Clone, Debug)]
enum HostValue {
    Plain(Vec<u8>),
    /// The value XORed with the store cipher's keystream under `nonce`.
    Encrypted {
        nonce: Nonce,
        bytes: Vec<u8>,
    },
}

impl HostValue {
    /// The digest the enclave keeps for these host bytes under `key`.
    fn digest(&self, key: &[u8]) -> Digest {
        match self {
            HostValue::Plain(bytes) => hash_parts(&[b"recipe.kv.value", key, bytes]),
            HostValue::Encrypted { nonce, bytes } => {
                hash_parts(&[SEALED_VALUE_DOMAIN, key, nonce.as_bytes(), bytes])
            }
        }
    }

    /// The buffer the host holds, whatever it holds in it.
    fn into_bytes(self) -> Vec<u8> {
        match self {
            HostValue::Plain(bytes) | HostValue::Encrypted { bytes, .. } => bytes,
        }
    }

    /// The bytes a Byzantine host would tamper with.
    fn bytes_mut(&mut self) -> &mut Vec<u8> {
        match self {
            HostValue::Plain(bytes) | HostValue::Encrypted { bytes, .. } => bytes,
        }
    }
}

/// The result of a successful read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadResult {
    /// The (decrypted, verified) value.
    pub value: Vec<u8>,
    /// Timestamp of the write that produced it.
    pub timestamp: Timestamp,
    /// Version of the write that produced it.
    pub version: u64,
}

/// A read that passed the enclave-held digest
/// ([`PartitionedKvStore::read`]): the host's bytes, checked where they lie
/// and not yet copied out.
pub struct VerifiedRead<'a> {
    bytes: &'a [u8],
    /// The cipher and nonce that open a sealed value.
    sealed: Option<(&'a Cipher, &'a Nonce)>,
    /// Timestamp of the write that produced the value.
    pub timestamp: Timestamp,
    /// Version of the write that produced the value.
    pub version: u64,
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
        if let Some((cipher, nonce)) = self.sealed {
            cipher.apply_keystream(&nonce.extended(), out);
        }
    }
}

/// One exported record of [`PartitionedKvStore::export_matching`]:
/// `(key, verified plaintext value, stored write timestamp)`.
pub type ExportedEntry = (Vec<u8>, Vec<u8>, Timestamp);

/// The partitioned key-value store.
pub struct PartitionedKvStore {
    /// Keys are client-chosen, so the table keeps std's randomly keyed
    /// SipHash: no client can aim keys at one bucket.
    index: HashMap<Box<[u8]>, ValueMeta>,
    host_arena: Vec<Option<HostValue>>,
    free_slots: Vec<usize>,
    cipher: Option<Cipher>,
    nonce_counter: u64,
    /// Transaction locks + staged writes (enclave-resident, like the index).
    txns: TxnTable,
}

impl PartitionedKvStore {
    /// Creates an empty store (`init_store()` in Table 3).
    pub fn new(config: StoreConfig) -> Self {
        PartitionedKvStore {
            index: HashMap::new(),
            host_arena: Vec::new(),
            free_slots: Vec::new(),
            cipher: config.cipher_key.as_ref().map(Cipher::new),
            nonce_counter: 0,
            txns: TxnTable::default(),
        }
    }

    /// True if the store encrypts values before they reach host memory.
    pub fn is_confidential(&self) -> bool {
        self.cipher.is_some()
    }

    /// Writes `value` under `key` with write timestamp `timestamp`
    /// (`write(key, value)` in Table 3).
    ///
    /// Returns the new version. The write always succeeds even if `timestamp` is
    /// older than the stored one — ABD-style last-writer-wins filtering is the
    /// protocol's job (see [`PartitionedKvStore::write_if_newer`]).
    pub fn write(
        &mut self,
        key: &[u8],
        value: &[u8],
        timestamp: Timestamp,
    ) -> Result<u64, KvError> {
        self.write_owned(key, value.to_vec(), timestamp)
            .map(|(version, _)| version)
    }

    /// [`PartitionedKvStore::write`] keeping the buffer it is handed: the
    /// value is sealed (confidential mode) and digested where it lies, and
    /// that buffer is what the host arena holds.
    ///
    /// Returns the new version and, on an overwrite, the buffer the key's
    /// host slot held until now — the old value's plaintext, or its
    /// ciphertext on a confidential store — for the caller to reuse or
    /// drop. A new key, or one whose host value is gone, displaces nothing.
    pub fn write_owned(
        &mut self,
        key: &[u8],
        mut value: Vec<u8>,
        timestamp: Timestamp,
    ) -> Result<(u64, Option<Vec<u8>>), KvError> {
        let host_value = match &self.cipher {
            None => HostValue::Plain(value),
            Some(cipher) => {
                self.nonce_counter += 1;
                let nonce = Nonce::from_view_counter(0xCAFE, self.nonce_counter);
                cipher.apply_keystream(&nonce.extended(), &mut value);
                HostValue::Encrypted {
                    nonce,
                    bytes: value,
                }
            }
        };
        let value_hash = host_value.digest(key);

        // An overwrite is one probe: the key keeps its slot and bumps its
        // version. A new key takes a free host slot and enters the table.
        if let Some(meta) = self.index.get_mut(key) {
            let displaced = self.host_arena[meta.host_slot].replace(host_value);
            meta.value_hash = value_hash;
            meta.timestamp = timestamp;
            meta.version += 1;
            return Ok((meta.version, displaced.map(HostValue::into_bytes)));
        }
        let host_slot = match self.free_slots.pop() {
            Some(slot) => {
                self.host_arena[slot] = Some(host_value);
                slot
            }
            None => {
                self.host_arena.push(Some(host_value));
                self.host_arena.len() - 1
            }
        };
        let meta = ValueMeta {
            value_hash,
            timestamp,
            version: 1,
            host_slot,
        };
        self.index.insert(key.into(), meta);
        Ok((1, None))
    }

    /// Writes only if `timestamp` is strictly newer than the stored timestamp
    /// (the ABD write rule). Returns `Ok(true)` if the write was applied,
    /// `Ok(false)` if it was skipped as stale.
    pub fn write_if_newer(
        &mut self,
        key: &[u8],
        value: &[u8],
        timestamp: Timestamp,
    ) -> Result<bool, KvError> {
        if let Some(meta) = self.index.get(key) {
            if timestamp <= meta.timestamp {
                return Ok(false);
            }
        }
        self.write(key, value, timestamp)?;
        Ok(true)
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
            version: read.version,
        })
    }

    /// The verified read: checks what the host holds for `key` against the
    /// enclave-held digest. Only a read that passed copies the value out
    /// ([`VerifiedRead::copy_into`]), so a value that fails is refused
    /// before any byte is copied or any keystream made.
    pub fn read(&self, key: &[u8]) -> Result<VerifiedRead<'_>, KvError> {
        let meta = self.index.get(key).ok_or(KvError::NotFound)?;
        self.verified(key, meta)
    }

    /// [`Self::read`] of `key`, whose index entry is `meta`: the one check
    /// every read and every rehydration makes. A sealed value on a store
    /// without a cipher is refused as one that fails the digest.
    fn verified<'a>(&'a self, key: &[u8], meta: &ValueMeta) -> Result<VerifiedRead<'a>, KvError> {
        let host_value = self
            .host_arena
            .get(meta.host_slot)
            .and_then(|slot| slot.as_ref())
            .ok_or_else(|| KvError::HostValueMissing { key: key.to_vec() })?;
        let digest_ok = host_value.digest(key) == meta.value_hash;
        let (bytes, sealed) = match host_value {
            HostValue::Plain(bytes) if digest_ok => (bytes, None),
            HostValue::Plain(_) => return Err(KvError::IntegrityViolation { key: key.to_vec() }),
            HostValue::Encrypted { nonce, bytes } => match &self.cipher {
                Some(cipher) if digest_ok => (bytes, Some((cipher, nonce))),
                _ => return Err(KvError::DecryptionFailed { key: key.to_vec() }),
            },
        };
        Ok(VerifiedRead {
            bytes,
            sealed,
            timestamp: meta.timestamp,
            version: meta.version,
        })
    }

    /// Returns only the timestamp stored for `key` (ABD's first round reads
    /// timestamps without moving values).
    pub fn timestamp_of(&self, key: &[u8]) -> Option<Timestamp> {
        self.index.get(key).map(|meta| meta.timestamp)
    }

    /// Deletes `key`. Returns `true` if it existed.
    pub(crate) fn delete(&mut self, key: &[u8]) -> bool {
        match self.index.remove(key) {
            Some(meta) => {
                self.host_arena[meta.host_slot] = None;
                self.free_slots.push(meta.host_slot);
                true
            }
            None => false,
        }
    }

    /// The highest timestamp any stored key carries; `None` when empty.
    pub fn newest_timestamp(&self) -> Option<Timestamp> {
        self.unordered().map(|(_, meta)| meta.timestamp).max()
    }

    /// The index in hash order, which differs from process to process. The
    /// one place the table is walked: each caller sorts what it collects
    /// ([`Self::sorted_keys`]) or folds with an order-blind `max` or sum.
    fn unordered(&self) -> impl Iterator<Item = (&[u8], &ValueMeta)> {
        // recipe-lint: allow(hash-iteration, reason = "callers sort the keys they collect (sorted_keys, rehydrate) or fold with max/sum, which no order changes")
        self.index.iter().map(|(key, meta)| (&**key, meta))
    }

    /// The keys `filter` selects, in ascending byte order: what every export
    /// and eviction walks, so none of them sees the table's order.
    fn sorted_keys(&self, filter: impl Fn(&[u8]) -> bool) -> Vec<Vec<u8>> {
        let mut keys: Vec<Vec<u8>> = self
            .unordered()
            .filter(|(key, _)| filter(key))
            .map(|(key, _)| key.to_vec())
            .collect();
        keys.sort_unstable();
        keys
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
        for (key, meta) in self.unordered() {
            match self.verified(key, meta) {
                Ok(read) => {
                    verified += 1;
                    bytes += (key.len() + read.value_len()) as u64;
                }
                Err(_) => failed.push(key.to_vec()),
            }
        }
        failed.sort_unstable();
        for key in &failed {
            self.delete(key);
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
    /// — just before its value's buffer moves into the host arena; the
    /// buffer it displaces there takes its place in the transaction's
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
            let timestamp = stamp(self.timestamp_of(key));
            committed(key, value, timestamp);
            let staged = std::mem::take(value);
            if let Ok((_, Some(displaced))) = self.write_owned(key, staged, timestamp) {
                *value = displaced;
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

    /// Exports every `(key, value, timestamp)` whose key satisfies `filter`,
    /// in key order. Each value is read through the verified path
    /// ([`Self::read`]): integrity is re-checked against the
    /// enclave-held hash (and decrypted in confidential mode) before it
    /// leaves the store, so a Byzantine host cannot smuggle corrupted state
    /// into a migration snapshot. Fails on the first record that does not
    /// verify.
    pub fn export_matching(
        &self,
        filter: impl Fn(&[u8]) -> bool,
    ) -> Result<Vec<ExportedEntry>, KvError> {
        let keys = self.sorted_keys(filter);
        let mut out = Vec::with_capacity(keys.len());
        for key in keys {
            let read = self.read(&key)?;
            let mut value = Vec::new();
            read.copy_into(&mut value);
            let timestamp = read.timestamp;
            out.push((key, value, timestamp));
        }
        Ok(out)
    }

    /// Imports `(key, value, timestamp)` records in order: each is written
    /// unconditionally with its carried timestamp, so later records win for
    /// a repeated key — the migration controller ships snapshot records
    /// first and catch-up records in commit order, which makes replay
    /// idempotent under re-delivery. Each value's buffer is the one the
    /// store keeps ([`PartitionedKvStore::write_owned`]); a key is only read.
    pub fn import_entries<K: AsRef<[u8]>>(
        &mut self,
        entries: impl IntoIterator<Item = (K, Vec<u8>, Timestamp)>,
    ) -> Result<usize, KvError> {
        let mut imported = 0;
        for (key, value, timestamp) in entries {
            self.write_owned(key.as_ref(), value, timestamp)?;
            imported += 1;
        }
        Ok(imported)
    }

    /// Deletes every key satisfying `filter` (donor-side range eviction after
    /// a migration cutover). Returns how many keys were removed.
    pub fn remove_matching(&mut self, filter: impl Fn(&[u8]) -> bool) -> usize {
        let keys = self.sorted_keys(filter);
        let removed = keys.len();
        for key in &keys {
            self.delete(key);
        }
        removed
    }

    // ------------------------------------------------------------------
    // Byzantine-host fault injection (used by tests and examples)
    // ------------------------------------------------------------------

    /// Simulates a Byzantine host flipping bits in the stored value for `key`.
    /// Returns `true` if there was a value to corrupt.
    pub fn corrupt_host_value(&mut self, key: &[u8]) -> bool {
        let Some(meta) = self.index.get(key) else {
            return false;
        };
        match self
            .host_arena
            .get_mut(meta.host_slot)
            .and_then(|s| s.as_mut())
        {
            Some(host_value) => {
                let bytes = host_value.bytes_mut();
                match bytes.first_mut() {
                    Some(first) => *first ^= 0xFF,
                    None => bytes.push(0xFF),
                }
                true
            }
            None => false,
        }
    }

    /// Simulates a Byzantine host deleting the stored value for `key` while leaving
    /// the enclave metadata untouched.
    #[cfg(test)]
    pub(crate) fn drop_host_value(&mut self, key: &[u8]) -> bool {
        let Some(meta) = self.index.get(key) else {
            return false;
        };
        match self.host_arena.get_mut(meta.host_slot) {
            Some(slot) if slot.is_some() => {
                *slot = None;
                true
            }
            _ => false,
        }
    }

    /// Returns a snapshot of the raw bytes the untrusted host can observe for `key`.
    /// Confidential stores expose only ciphertext here — the basis of the
    /// "host learns nothing" tests.
    pub fn host_visible_bytes(&self, key: &[u8]) -> Option<Vec<u8>> {
        let meta = self.index.get(key)?;
        match self.host_arena.get(meta.host_slot)?.as_ref()? {
            HostValue::Plain(bytes) | HostValue::Encrypted { bytes, .. } => Some(bytes.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashMap};

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
        store.sorted_keys(|_| true)
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut store = plain_store();
        let v1 = store.write(b"k", b"value-1", Timestamp::new(1, 0)).unwrap();
        assert_eq!(v1, 1);
        let read = store.get(b"k").unwrap();
        assert_eq!(read.value, b"value-1");
        assert_eq!(read.version, 1);
        assert_eq!(read.timestamp, Timestamp::new(1, 0));
        assert_eq!(keys(&store), vec![b"k".to_vec()]);
    }

    #[test]
    fn overwrites_bump_version() {
        let mut store = plain_store();
        store.write(b"k", b"v1", Timestamp::new(1, 0)).unwrap();
        let v2 = store.write(b"k", b"v2", Timestamp::new(2, 0)).unwrap();
        assert_eq!(v2, 2);
        assert_eq!(store.get(b"k").unwrap().value, b"v2");
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
        assert!(store
            .write_if_newer(b"k", b"v1", Timestamp::new(5, 1))
            .unwrap());
        // Older timestamp: skipped.
        assert!(!store
            .write_if_newer(b"k", b"old", Timestamp::new(4, 9))
            .unwrap());
        assert_eq!(store.get(b"k").unwrap().value, b"v1");
        // Equal timestamp: also skipped (not strictly newer).
        assert!(!store
            .write_if_newer(b"k", b"same", Timestamp::new(5, 1))
            .unwrap());
        // Newer: applied.
        assert!(store
            .write_if_newer(b"k", b"v2", Timestamp::new(5, 2))
            .unwrap());
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

    /// The host's copy of what it holds for `key`, to put back later.
    fn host_copy(store: &PartitionedKvStore, key: &[u8]) -> HostValue {
        let slot = store.index.get(key).unwrap().host_slot;
        store.host_arena[slot].clone().unwrap()
    }

    fn host_put(store: &mut PartitionedKvStore, key: &[u8], value: HostValue) {
        let slot = store.index.get(key).unwrap().host_slot;
        store.host_arena[slot] = Some(value);
    }

    /// Reads `key` expecting the failure a tampered sealed value gives: the
    /// digest check in `get` comes before the keystream, so nothing the host
    /// substituted is ever decrypted.
    fn assert_refused(store: &mut PartitionedKvStore, key: &[u8]) {
        assert_eq!(
            store.get(key),
            Err(KvError::DecryptionFailed { key: key.to_vec() })
        );
    }

    #[test]
    fn sealed_values_swapped_between_keys_are_refused() {
        let mut store = confidential_store();
        store.write(b"a", b"value-A", Timestamp::new(1, 0)).unwrap();
        store.write(b"b", b"value-B", Timestamp::new(1, 0)).unwrap();
        // Two well-formed sealed values of equal length, each with the nonce
        // it was sealed under: only the key they sit under is wrong.
        let (a, b) = (host_copy(&store, b"a"), host_copy(&store, b"b"));
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
        let old = host_copy(&store, b"k");
        store
            .write(b"k", b"balance=000", Timestamp::new(2, 0))
            .unwrap();
        // The host rolls the key back to a value this store itself sealed.
        host_put(&mut store, b"k", old);
        assert_refused(&mut store, b"k");
    }

    #[test]
    fn a_flipped_nonce_bit_is_refused() {
        let mut store = confidential_store();
        store.write(b"k", b"secret", Timestamp::new(1, 0)).unwrap();
        let HostValue::Encrypted { nonce, bytes } = host_copy(&store, b"k") else {
            panic!("a confidential store seals");
        };
        for bit in [0, 63, 64, 127] {
            let mut flipped = *nonce.as_bytes();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let tampered = HostValue::Encrypted {
                nonce: Nonce::from_bytes(flipped),
                bytes: bytes.clone(),
            };
            host_put(&mut store, b"k", tampered);
            assert_refused(&mut store, b"k");
        }
        host_put(&mut store, b"k", HostValue::Encrypted { nonce, bytes });
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
        let arena_len = store.host_arena.len();
        store.write(b"c", b"3", Timestamp::new(1, 0)).unwrap();
        assert_eq!(store.host_arena.len(), arena_len);
        assert_eq!(keys(&store).len(), 2);
        assert_eq!(keys(&store), vec![b"b".to_vec(), b"c".to_vec()]);
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
        assert_eq!(recipient.import_entries(snapshot).unwrap(), 2);
        // Catch-up record for k1 arrives after the snapshot: later wins.
        recipient
            .import_entries(vec![(
                b"k1".to_vec(),
                b"v1'".to_vec(),
                Timestamp::new(7, 2),
            )])
            .unwrap();
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
            store
                .write_owned(b"k", value, Timestamp::new(1, 0))
                .unwrap();
            // The arena holds the caller's allocation, sealed or not.
            let slot = store.index.get(b"k".as_slice()).unwrap().host_slot;
            let kept = store.host_arena[slot].as_mut().unwrap().bytes_mut();
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
            assert_eq!((read.timestamp, read.version), (Timestamp::new(3, 1), 1));
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

    /// An overwrite hands back the buffer the key's host slot held, as the
    /// host held it (ciphertext on a confidential store), and leaves the
    /// store as `write` leaves it; a new key, or a slot the host emptied,
    /// hands back nothing.
    #[test]
    fn an_overwrite_hands_back_the_buffer_it_displaces() {
        let (first, second) = (Timestamp::new(1, 0), Timestamp::new(2, 3));
        for (mut owned, mut copied) in [
            (plain_store(), plain_store()),
            (confidential_store(), confidential_store()),
        ] {
            let written = owned.write_owned(b"k", b"balance=100".to_vec(), first);
            assert_eq!(written, Ok((1, None)));
            let held = owned.host_visible_bytes(b"k").unwrap();
            let slot = owned.index.get(b"k".as_slice()).unwrap().host_slot;
            let at = owned.host_arena[slot]
                .as_mut()
                .unwrap()
                .bytes_mut()
                .as_ptr();

            let (version, displaced) = owned
                .write_owned(b"k", b"balance=000".to_vec(), second)
                .unwrap();
            let displaced = displaced.expect("an overwrite displaces");
            assert_eq!((displaced.as_ptr(), &displaced), (at, &held));

            copied.write(b"k", b"balance=100", first).unwrap();
            assert_eq!(copied.write(b"k", b"balance=000", second), Ok(version));
            assert_eq!(
                owned.host_visible_bytes(b"k"),
                copied.host_visible_bytes(b"k")
            );
            let read = owned.get(b"k").unwrap();
            assert_eq!((read.version, read.timestamp), (2, second));
            assert_eq!(read.value, b"balance=000");
            assert_eq!(Ok(read), copied.get(b"k"));

            assert!(owned.corrupt_host_value(b"k"));
            assert!(matches!(
                owned.get(b"k"),
                Err(KvError::IntegrityViolation { .. } | KvError::DecryptionFailed { .. })
            ));
            assert!(owned.drop_host_value(b"k"));
            assert_eq!(
                owned.write_owned(b"k", b"x".to_vec(), second),
                Ok((3, None))
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

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
            forward.import_entries(records.clone()).unwrap();
            backward.import_entries(records.iter().rev().cloned()).unwrap();
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
