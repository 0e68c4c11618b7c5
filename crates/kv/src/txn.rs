//! Two-phase-commit support for the partitioned store: key locks and staged
//! writes.
//!
//! A transaction participant (a shard leader) calls
//! [`crate::store::PartitionedKvStore::txn_prepare`] to lock every key a
//! transaction touches and stage its writes inside the enclave region, then
//! either [`crate::store::PartitionedKvStore::txn_take_staged`] (commit: the
//! caller applies the returned writes through its normal apply path, so
//! versions, timestamps and replication counters stay consistent) or
//! [`crate::store::PartitionedKvStore::txn_abort`] (discard everything).
//! Locks are
//! exclusive and all-or-nothing: a prepare that hits a conflicting lock
//! releases whatever it acquired and reports the conflict, so a participant
//! never holds a partial lock set — the deadlock-freedom argument of the
//! coordinator's vote-then-decide 2PC.
//!
//! The table lives in [`TxnTable`], embedded in the store: lock state is
//! enclave-resident metadata exactly like the index (a Byzantine host cannot
//! forge or drop a lock), and staged values are enclave-resident until commit
//! — which is why the cost model charges EPC pressure per in-flight prepare.

use std::collections::BTreeMap;

use crate::error::KvError;

/// One exported prepare record's operations in the
/// [`TxnTable::stage_replicated`] wire form: lock keys as valueless
/// (`None`) entries first, then the staged writes in order.
pub type TxnRecordOps = Vec<(Vec<u8>, Option<Vec<u8>>)>;

/// One operation of a prepare as the table reads it: the touched key, and the
/// value to stage when the operation writes. Borrowed from wherever the
/// caller holds the operation — the table copies what it keeps.
pub type TxnOpRef<'a> = (&'a [u8], Option<&'a [u8]>);

/// Lends owned record operations ([`TxnRecordOps`]) to the table.
pub fn borrow_ops(ops: &[(Vec<u8>, Option<Vec<u8>>)]) -> impl Iterator<Item = TxnOpRef<'_>> {
    ops.iter()
        .map(|(key, write)| (key.as_slice(), write.as_deref()))
}

/// One transaction's staged state on a participant store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct StagedTxn {
    /// Keys this transaction locked, in lock order.
    keys: Vec<Vec<u8>>,
    /// Writes staged for commit, in operation order (later writes to the same
    /// key win when applied in order).
    writes: Vec<(Vec<u8>, Vec<u8>)>,
}

/// Enclave-resident lock and staging table of one participant store.
#[derive(Debug, Default)]
pub struct TxnTable {
    /// Exclusive key locks: key → holding transaction.
    locks: BTreeMap<Vec<u8>, u64>,
    /// Per-transaction staged state.
    staged: BTreeMap<u64, StagedTxn>,
    /// Passive copies of prepare records replicated from the group leader.
    /// They hold no locks (the leader enforces 2PL for the group) and stay
    /// invisible to `is_locked`/`staged_bytes`, so a follower carrying them
    /// behaves exactly as it did before the record arrived. Their sole
    /// purpose is failover: a follower that becomes leader *adopts* them —
    /// promoting each into a real staged transaction with locks — and the
    /// in-flight transactions then resolve through the coordinator's normal
    /// commit/abort frames instead of being lost with the old leader.
    replicated: BTreeMap<u64, StagedTxn>,
}

impl TxnTable {
    /// The transaction currently holding a lock on `key`, if any.
    pub fn lock_owner(&self, key: &[u8]) -> Option<u64> {
        self.locks.get(key).copied()
    }

    /// True when any transaction holds a lock on `key`. Single-key requests
    /// consult this on their coordinator: an operation touching a locked key
    /// is deferred (dropped, so the client's retry resubmits it after the
    /// transaction released the key) — two-phase locking's isolation rule.
    pub fn is_locked(&self, key: &[u8]) -> bool {
        self.locks.contains_key(key)
    }

    /// True when transaction `txn_id` has prepared on this store.
    pub fn is_prepared(&self, txn_id: u64) -> bool {
        self.staged.contains_key(&txn_id)
    }

    /// Number of keys currently locked.
    pub fn locked_keys(&self) -> usize {
        self.locks.len()
    }

    /// Bytes staged by in-flight prepares (the enclave-resident footprint the
    /// EPC model charges for).
    pub fn staged_bytes(&self) -> usize {
        self.staged
            .values()
            .flat_map(|txn| txn.writes.iter())
            .map(|(key, value)| key.len() + value.len())
            .sum()
    }

    /// Locks every key of `ops` for `txn_id` and stages the writes,
    /// all-or-nothing: on the first conflicting lock, everything this call
    /// acquired is released and [`KvError::LockConflict`] names the key and
    /// the holder. Re-preparing an already-prepared transaction is a no-op
    /// (the coordinator's retransmission protocol never re-executes, but the
    /// idempotence keeps the store safe regardless).
    ///
    /// `ops` pairs each touched key with `Some(value)` for writes and `None`
    /// for reads — reads lock too (2PL), they just stage nothing.
    pub fn prepare<'a>(
        &mut self,
        txn_id: u64,
        ops: impl IntoIterator<Item = TxnOpRef<'a>>,
    ) -> Result<(), KvError> {
        if self.staged.contains_key(&txn_id) {
            return Ok(());
        }
        let mut txn = StagedTxn::default();
        for (key, write) in ops {
            match self.locks.get(key) {
                Some(&holder) if holder != txn_id => {
                    // All-or-nothing: release what this prepare acquired.
                    for key in &txn.keys {
                        self.locks.remove(key);
                    }
                    return Err(KvError::LockConflict {
                        key: key.to_vec(),
                        holder,
                    });
                }
                Some(_) => {} // a key touched twice by the same transaction
                None => {
                    self.locks.insert(key.to_vec(), txn_id);
                    txn.keys.push(key.to_vec());
                }
            }
            if let Some(value) = write {
                txn.writes.push((key.to_vec(), value.to_vec()));
            }
        }
        self.staged.insert(txn_id, txn);
        Ok(())
    }

    /// Commit: removes the transaction's staged writes and releases its
    /// locks, returning the writes in operation order for the caller to apply
    /// through its normal write path. `None` when the transaction is unknown
    /// (already committed or aborted) — the caller acks idempotently.
    pub fn take_staged(&mut self, txn_id: u64) -> Option<Vec<(Vec<u8>, Vec<u8>)>> {
        let txn = self.staged.remove(&txn_id)?;
        for key in &txn.keys {
            self.locks.remove(key);
        }
        Some(txn.writes)
    }

    /// Abort: discards staged writes and releases locks. Returns true when
    /// the transaction was known.
    pub fn abort(&mut self, txn_id: u64) -> bool {
        self.take_staged(txn_id).is_some()
    }

    /// Records a prepare replicated from the group leader: keys and staged
    /// writes, but **no locks** — the record is passive until adopted on
    /// failover. Idempotent, and a no-op when this store already holds the
    /// transaction as a real (leader-side) prepare.
    pub fn stage_replicated<'a>(
        &mut self,
        txn_id: u64,
        ops: impl IntoIterator<Item = TxnOpRef<'a>>,
    ) {
        if self.staged.contains_key(&txn_id) || self.replicated.contains_key(&txn_id) {
            return;
        }
        let mut txn = StagedTxn::default();
        for (key, write) in ops {
            if !txn.keys.iter().any(|held| held == key) {
                txn.keys.push(key.to_vec());
            }
            if let Some(value) = write {
                txn.writes.push((key.to_vec(), value.to_vec()));
            }
        }
        self.replicated.insert(txn_id, txn);
    }

    /// Discards a replicated prepare record (the coordinator's decision
    /// reached the group: the follower installs committed entries through
    /// the import path, or drops everything on abort). Returns true when the
    /// record existed.
    pub fn drop_replicated(&mut self, txn_id: u64) -> bool {
        self.replicated.remove(&txn_id).is_some()
    }

    /// Transaction ids with a replicated prepare record, ascending.
    pub fn replicated_txn_ids(&self) -> Vec<u64> {
        self.replicated.keys().copied().collect()
    }

    /// Exports every prepare record this store knows — real staged
    /// transactions and passive replicated copies alike — in the
    /// [`TxnTable::stage_replicated`] wire form (lock keys first as
    /// valueless entries, then the staged writes in order). A recovering
    /// group member imports these as passive records, so a node that later
    /// re-wins coordinatorship can adopt the full in-flight set: its own
    /// pre-crash staging was volatile enclave state and is gone.
    pub fn export_records(&self) -> Vec<(u64, TxnRecordOps)> {
        fn to_ops(txn: &StagedTxn) -> TxnRecordOps {
            let mut ops: TxnRecordOps = txn.keys.iter().map(|key| (key.clone(), None)).collect();
            ops.extend(
                txn.writes
                    .iter()
                    .map(|(key, value)| (key.clone(), Some(value.clone()))),
            );
            ops
        }
        let mut out: BTreeMap<u64, TxnRecordOps> = BTreeMap::new();
        for (txn_id, txn) in &self.staged {
            out.insert(*txn_id, to_ops(txn));
        }
        for (txn_id, txn) in &self.replicated {
            out.entry(*txn_id).or_insert_with(|| to_ops(txn));
        }
        out.into_iter().collect()
    }

    /// Failover adoption: promotes every replicated prepare record into a
    /// real staged transaction with locks. The old leader granted its locks
    /// all-or-nothing, so no two in-flight records can conflict and adoption
    /// never fails. Returns the adopted ids, ascending.
    pub fn adopt_replicated(&mut self) -> Vec<u64> {
        let replicated = std::mem::take(&mut self.replicated);
        let mut adopted = Vec::with_capacity(replicated.len());
        for (txn_id, txn) in replicated {
            if self.staged.contains_key(&txn_id) {
                continue;
            }
            for key in &txn.keys {
                self.locks.insert(key.clone(), txn_id);
            }
            self.staged.insert(txn_id, txn);
            adopted.push(txn_id);
        }
        adopted
    }

    /// Drops every staged transaction, every replicated prepare record and
    /// every lock. A restarting replica calls this: the lock table is
    /// volatile enclave state and does not survive a crash — in-flight
    /// transactions are resolved by the rest of the group, which holds the
    /// replicated prepare records. Returns how many transactions were
    /// discarded.
    pub fn reset(&mut self) -> usize {
        self.locks.clear();
        let dropped = self.staged.len() + self.replicated.len();
        self.staged.clear();
        self.replicated.clear();
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put<'a>(key: &'a [u8], value: &'a [u8]) -> TxnOpRef<'a> {
        (key, Some(value))
    }

    fn get(key: &[u8]) -> TxnOpRef<'_> {
        (key, None)
    }

    #[test]
    fn prepare_locks_all_keys_and_stages_writes() {
        let mut table = TxnTable::default();
        table.prepare(1, [put(b"a", b"1"), get(b"b")]).unwrap();
        assert!(table.is_locked(b"a"));
        assert!(table.is_locked(b"b"));
        assert_eq!(table.lock_owner(b"a"), Some(1));
        assert!(table.is_prepared(1));
        assert_eq!(table.locked_keys(), 2);
        assert_eq!(table.staged_bytes(), 2);
        let writes = table.take_staged(1).unwrap();
        assert_eq!(writes, vec![(b"a".to_vec(), b"1".to_vec())]);
        assert!(!table.is_locked(b"a"));
        assert!(!table.is_locked(b"b"));
        // Committing again acks idempotently with nothing to apply.
        assert_eq!(table.take_staged(1), None);
    }

    #[test]
    fn conflicting_prepare_releases_everything_it_acquired() {
        let mut table = TxnTable::default();
        table.prepare(1, [put(b"b", b"1")]).unwrap();
        let err = table
            .prepare(2, [put(b"a", b"2"), put(b"b", b"2"), put(b"c", b"2")])
            .unwrap_err();
        assert_eq!(
            err,
            KvError::LockConflict {
                key: b"b".to_vec(),
                holder: 1
            }
        );
        // Transaction 2 holds nothing: its partial locks were rolled back.
        assert!(!table.is_locked(b"a"));
        assert!(!table.is_locked(b"c"));
        assert!(!table.is_prepared(2));
        // Transaction 1 is untouched and can still commit.
        assert_eq!(table.take_staged(1).unwrap().len(), 1);
    }

    #[test]
    fn a_conflict_on_the_nth_key_leaves_the_table_as_it_was() {
        let mut table = TxnTable::default();
        table.prepare(1, [put(b"c", b"1"), get(b"x")]).unwrap();
        table.prepare(2, [put(b"d", b"2")]).unwrap();
        let before = (table.locks.clone(), table.staged.clone());
        // The operations are lent, not given: the caller still holds them
        // after the call, and nothing of a refused prepare stays behind —
        // wherever in the list the conflict sits, and with a key the refused
        // transaction touched twice before it.
        let ops = [
            put(b"a", b"3"),
            get(b"b"),
            put(b"a", b"4"),
            put(b"c", b"3"),
            put(b"e", b"3"),
        ];
        for nth in (1..=ops.len()).rev() {
            let refused = table.prepare(3, ops[..nth].iter().copied());
            if nth > 3 {
                let key = b"c".to_vec();
                assert_eq!(refused, Err(KvError::LockConflict { key, holder: 1 }));
                assert_eq!((&table.locks, &table.staged), (&before.0, &before.1));
            } else {
                // Short of the held key the same list prepares.
                assert_eq!(refused, Ok(()));
                assert_eq!(table.lock_owner(b"a"), Some(3));
                assert!(table.abort(3));
            }
        }
        assert_eq!((table.locks, table.staged), before);
    }

    #[test]
    fn abort_discards_staged_writes_and_releases_locks() {
        let mut table = TxnTable::default();
        table.prepare(1, [put(b"a", b"1")]).unwrap();
        assert!(table.abort(1));
        assert!(!table.is_locked(b"a"));
        assert!(!table.abort(1));
        // The keys are free for the next transaction.
        table.prepare(2, [put(b"a", b"2")]).unwrap();
        assert_eq!(table.lock_owner(b"a"), Some(2));
    }

    #[test]
    fn same_transaction_may_touch_a_key_twice() {
        let mut table = TxnTable::default();
        table
            .prepare(1, [put(b"a", b"first"), put(b"a", b"second")])
            .unwrap();
        let writes = table.take_staged(1).unwrap();
        // Both staged writes surface, in operation order: applying them in
        // order makes the later one win, matching sequential semantics.
        assert_eq!(writes.len(), 2);
        assert_eq!(writes[1].1, b"second");
        assert!(!table.is_locked(b"a"));
    }

    #[test]
    fn replicated_records_hold_no_locks_until_adopted() {
        let mut table = TxnTable::default();
        table.stage_replicated(1, [put(b"a", b"1"), get(b"b")]);
        // Passive: no locks, no staged bytes, invisible to single-key 2PL.
        assert!(!table.is_locked(b"a"));
        assert!(!table.is_locked(b"b"));
        assert!(!table.is_prepared(1));
        assert_eq!(table.staged_bytes(), 0);
        assert_eq!(table.replicated_txn_ids(), vec![1]);
        // Failover: adoption promotes the record into a real prepare.
        assert_eq!(table.adopt_replicated(), vec![1]);
        assert!(table.is_locked(b"a"));
        assert!(table.is_locked(b"b"));
        assert!(table.is_prepared(1));
        assert!(table.replicated_txn_ids().is_empty());
        // The adopted transaction commits through the normal path.
        let writes = table.take_staged(1).unwrap();
        assert_eq!(writes, vec![(b"a".to_vec(), b"1".to_vec())]);
        assert!(!table.is_locked(b"a"));
    }

    #[test]
    fn replicated_records_drop_on_decision_and_reset() {
        let mut table = TxnTable::default();
        table.stage_replicated(1, [put(b"a", b"1")]);
        table.stage_replicated(1, [put(b"a", b"1")]); // idempotent
        assert!(table.drop_replicated(1));
        assert!(!table.drop_replicated(1));
        table.stage_replicated(2, [put(b"b", b"2")]);
        assert_eq!(table.reset(), 1);
        assert!(table.replicated_txn_ids().is_empty());
    }

    #[test]
    fn adoption_skips_transactions_already_prepared_locally() {
        let mut table = TxnTable::default();
        table.prepare(1, [put(b"a", b"real")]).unwrap();
        // A stray replicated copy of the same transaction must not shadow
        // the real prepare (and staging it is already a no-op).
        table.stage_replicated(1, [put(b"a", b"copy")]);
        assert!(table.adopt_replicated().is_empty());
        assert_eq!(table.take_staged(1).unwrap()[0].1, b"real");
    }

    #[test]
    fn re_prepare_is_idempotent() {
        let mut table = TxnTable::default();
        table.prepare(1, [put(b"a", b"1")]).unwrap();
        table.prepare(1, [put(b"a", b"1")]).unwrap();
        assert_eq!(table.take_staged(1).unwrap().len(), 1);
        assert_eq!(table.locked_keys(), 0);
    }
}
