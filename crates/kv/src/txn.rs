//! Two-phase-commit support for the partitioned store: key locks and staged
//! writes.
//!
//! A transaction participant (a shard leader) calls
//! [`crate::store::PartitionedKvStore::txn_prepare_borrowed`] to lock every
//! key a transaction touches and stage its writes inside the enclave region,
//! then either [`crate::store::PartitionedKvStore::txn_commit`] (commit: the
//! staged writes are written in operation order under timestamps the caller
//! stamps, so versions, timestamps and replication counters stay consistent
//! with its own writes) or [`crate::store::PartitionedKvStore::txn_abort`]
//! (discard everything). Locks are exclusive and all-or-nothing: a prepare
//! that hits a conflicting lock releases whatever it acquired and reports
//! the conflict, so a participant never holds a partial lock set — the
//! deadlock-freedom argument of the coordinator's vote-then-decide 2PC.
//!
//! The table lives in [`TxnTable`], embedded in the store: lock state is
//! enclave-resident metadata exactly like the index (a Byzantine host cannot
//! forge or drop a lock), and staged values are enclave-resident until commit
//! — which is why the cost model charges EPC pressure per in-flight prepare.
//!
//! # Recycled records
//!
//! A prepare copies the operations it is lent into buffers the table keeps
//! from one transaction to the next, as a kernel-bypass replica keeps its
//! registered buffers. A resolved transaction's record goes to a free list
//! with every buffer it held — its keys, its locks' keys, its values — each
//! emptied, and the next prepare or replicated copy takes a record from
//! there and fills its buffers before it allocates any. At commit each
//! staged value's buffer moves into the store, and the buffer it displaces
//! takes its place in the record. The list holds no more records than were
//! ever live at once, and a record no more buffers than its largest
//! transaction needed.

use std::collections::BTreeMap;

use crate::error::KvError;

/// One exported prepare record's operations in the
/// `TxnTable::stage_replicated` wire form: lock keys as valueless
/// (`None`) entries first, then the staged writes in order.
pub type TxnRecordOps = Vec<(Vec<u8>, Option<Vec<u8>>)>;

/// One operation of a prepare as the table reads it: the touched key, and the
/// value to stage when the operation writes. Borrowed from wherever the
/// caller holds the operation — the table copies what it keeps.
pub type TxnOpRef<'a> = (&'a [u8], Option<&'a [u8]>);

/// Lends owned record operations ([`TxnRecordOps`]) to the table.
pub(crate) fn borrow_ops(ops: &[(Vec<u8>, Option<Vec<u8>>)]) -> impl Iterator<Item = TxnOpRef<'_>> {
    ops.iter()
        .map(|(key, write)| (key.as_slice(), write.as_deref()))
}

/// One transaction's prepare record on a participant store, and the
/// buffers it keeps between transactions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct StagedTxn {
    /// A passive copy replicated from the group leader, holding no locks
    /// (see [`TxnTable::adopt_replicated`]).
    passive: bool,
    /// Keys this transaction touches, each once, in the order it first
    /// touched them: its lock order.
    keys: Vec<Vec<u8>>,
    /// Writes staged for commit, in operation order (later writes to the same
    /// key win when applied in order): the index of the key in `keys`, and
    /// the value.
    writes: Vec<(usize, Vec<u8>)>,
    /// Emptied buffers the record held for earlier transactions — keys, its
    /// locks' keys, values — for it to fill again. A value's buffer comes
    /// back as the one its commit displaced in the store.
    spare_keys: Vec<Vec<u8>>,
    spare_values: Vec<Vec<u8>>,
    /// Buffers the record allocated, or grew, because no spare would do.
    #[cfg(test)]
    allocated: u64,
}

impl StagedTxn {
    /// `bytes` in `spare`, or in a new buffer when there is none.
    fn fill(&mut self, spare: Option<Vec<u8>>, bytes: &[u8]) -> Vec<u8> {
        let mut buf = spare.unwrap_or_default();
        #[cfg(test)]
        self.note(buf.capacity() < bytes.len());
        buf.extend_from_slice(bytes);
        buf
    }

    fn copy_key(&mut self, key: &[u8]) -> Vec<u8> {
        let spare = self.spare_keys.pop();
        self.fill(spare, key)
    }

    /// The index of `key` in `keys`, and whether this call added it: a key
    /// touched twice is kept once.
    fn touch(&mut self, key: &[u8]) -> (usize, bool) {
        if let Some(index) = self.keys.iter().position(|held| held == key) {
            return (index, false);
        }
        #[cfg(test)]
        self.note(self.keys.len() == self.keys.capacity());
        let key = self.copy_key(key);
        self.keys.push(key);
        (self.keys.len() - 1, true)
    }

    /// Stages a write of `value` to `keys[index]`.
    fn stage(&mut self, index: usize, value: &[u8]) {
        #[cfg(test)]
        self.note(self.writes.len() == self.writes.capacity());
        let spare = self.spare_values.pop();
        let value = self.fill(spare, value);
        self.writes.push((index, value));
    }

    /// Locks every key of the record for `txn_id` in `locks`.
    fn lock(&mut self, locks: &mut BTreeMap<Vec<u8>, u64>, txn_id: u64) {
        let StagedTxn {
            keys, spare_keys, ..
        } = self;
        for key in keys.iter() {
            let mut lock = spare_keys.pop().unwrap_or_default();
            lock.extend_from_slice(key);
            locks.insert(lock, txn_id);
        }
    }

    /// Releases the locks the record holds in `locks`, keeping their keys.
    fn unlock(&mut self, locks: &mut BTreeMap<Vec<u8>, u64>) {
        let StagedTxn {
            keys, spare_keys, ..
        } = self;
        for key in keys.iter() {
            if let Some((mut lock, _)) = locks.remove_entry(key.as_slice()) {
                lock.clear();
                spare_keys.push(lock);
            }
        }
    }

    /// Each staged write's key and value, in operation order; a caller may
    /// take the value and leave another buffer in its place.
    pub(crate) fn writes_mut(&mut self) -> impl Iterator<Item = (&[u8], &mut Vec<u8>)> {
        let StagedTxn { keys, writes, .. } = self;
        writes
            .iter_mut()
            .map(|(index, value)| (keys[*index].as_slice(), value))
    }

    /// Empties the record for the next transaction, each buffer it held
    /// emptied too — no later transaction can read these bytes — and kept.
    /// A value slot a commit left empty holds no buffer.
    fn clear(&mut self) {
        let StagedTxn {
            passive,
            keys,
            writes,
            spare_keys,
            spare_values,
            ..
        } = self;
        *passive = false;
        for mut key in keys.drain(..) {
            key.clear();
            spare_keys.push(key);
        }
        for (_, mut value) in writes.drain(..) {
            if value.capacity() > 0 {
                value.clear();
                spare_values.push(value);
            }
        }
    }

    /// Counts an allocation no spare could save.
    #[cfg(test)]
    fn note(&mut self, allocates: bool) {
        self.allocated += u64::from(allocates);
    }
}

/// Enclave-resident lock and staging table of one participant store.
#[derive(Debug, Default)]
pub(crate) struct TxnTable {
    /// Exclusive key locks: key → holding transaction.
    locks: BTreeMap<Vec<u8>, u64>,
    /// Prepare records by transaction: real prepares, which hold their keys'
    /// locks, and passive copies replicated from the group leader. A passive
    /// record holds no locks (the leader enforces 2PL for the group) and
    /// stays invisible to `is_locked`/`staged_bytes`, so a follower carrying
    /// it behaves exactly as it did before the record arrived. Its sole
    /// purpose is failover: a follower that becomes leader *adopts* its
    /// passive records — promoting each into a real prepare with locks — and
    /// the in-flight transactions then resolve through the coordinator's
    /// normal commit/abort frames instead of being lost with the old leader.
    records: BTreeMap<u64, StagedTxn>,
    /// Records of resolved transactions, emptied but for their spare
    /// buffers, for the next prepares and copies: no more than were ever
    /// live at once.
    spares: Vec<StagedTxn>,
    /// Records allocated because no spare was left.
    #[cfg(test)]
    fresh_records: u64,
}

impl TxnTable {
    /// The transaction currently holding a lock on `key`, if any.
    #[cfg(test)]
    pub(crate) fn lock_owner(&self, key: &[u8]) -> Option<u64> {
        self.locks.get(key).copied()
    }

    /// True when any transaction holds a lock on `key`. Single-key requests
    /// consult this on their coordinator: an operation touching a locked key
    /// is deferred (dropped, so the client's retry resubmits it after the
    /// transaction released the key) — two-phase locking's isolation rule.
    pub(crate) fn is_locked(&self, key: &[u8]) -> bool {
        self.locks.contains_key(key)
    }

    /// The real (not passive) prepare record of `txn_id`.
    fn prepared(&self, txn_id: u64) -> Option<&StagedTxn> {
        self.records.get(&txn_id).filter(|txn| !txn.passive)
    }

    /// True when transaction `txn_id` has prepared on this store.
    #[cfg(test)]
    pub(crate) fn is_prepared(&self, txn_id: u64) -> bool {
        self.prepared(txn_id).is_some()
    }

    /// Number of keys currently locked.
    #[cfg(test)]
    pub(crate) fn locked_keys(&self) -> usize {
        self.locks.len()
    }

    /// Bytes staged by in-flight prepares (the enclave-resident footprint the
    /// EPC model charges for).
    #[cfg(test)]
    pub(crate) fn staged_bytes(&self) -> usize {
        self.records
            .values()
            .filter(|txn| !txn.passive)
            .flat_map(|txn| {
                txn.writes
                    .iter()
                    .map(|(key, value)| (&txn.keys[*key], value))
            })
            .map(|(key, value)| key.len() + value.len())
            .sum()
    }

    /// Records and buffers the table allocated because no spare would do.
    #[cfg(test)]
    pub(crate) fn allocated(&self) -> u64 {
        let records = self.records.values().chain(&self.spares);
        self.fresh_records + records.map(|txn| txn.allocated).sum::<u64>()
    }

    /// An empty record: a spare, or a new one.
    fn spare(&mut self) -> StagedTxn {
        let spare = self.spares.pop();
        #[cfg(test)]
        {
            self.fresh_records += u64::from(spare.is_none());
        }
        spare.unwrap_or_default()
    }

    /// Takes back a record that is done with: one
    /// [`TxnTable::take_staged`] handed over, with the buffers its value
    /// slots hold now.
    pub(crate) fn recycle(&mut self, mut txn: StagedTxn) {
        txn.clear();
        self.spares.push(txn);
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
    pub(crate) fn prepare<'a>(
        &mut self,
        txn_id: u64,
        ops: impl IntoIterator<Item = TxnOpRef<'a>>,
    ) -> Result<(), KvError> {
        if self.prepared(txn_id).is_some() {
            return Ok(());
        }
        let mut txn = self.spare();
        for (key, write) in ops {
            // Every key this prepare locked is in `txn.keys`, so a key held
            // by anyone else is held by another transaction.
            if let Some(&holder) = self.locks.get(key) {
                if !txn.keys.iter().any(|held| held == key) {
                    // All-or-nothing: release what this prepare acquired.
                    txn.unlock(&mut self.locks);
                    self.recycle(txn);
                    return Err(KvError::LockConflict {
                        key: key.to_vec(),
                        holder,
                    });
                }
            }
            let (index, added) = txn.touch(key);
            if added {
                let lock = txn.copy_key(key);
                self.locks.insert(lock, txn_id);
            }
            if let Some(value) = write {
                txn.stage(index, value);
            }
        }
        // A passive copy of the transaction gives way to the real prepare.
        if let Some(copy) = self.records.insert(txn_id, txn) {
            self.recycle(copy);
        }
        Ok(())
    }

    /// Commit: removes the transaction's record and releases its locks,
    /// handing the record over for the store to apply its writes in
    /// operation order ([`StagedTxn::writes_mut`]) and give it back
    /// ([`TxnTable::recycle`]). `None` when the transaction is unknown
    /// (already committed or aborted) — the caller acks idempotently.
    pub(crate) fn take_staged(&mut self, txn_id: u64) -> Option<StagedTxn> {
        self.prepared(txn_id)?;
        let mut txn = self.records.remove(&txn_id)?;
        txn.unlock(&mut self.locks);
        Some(txn)
    }

    /// Abort: discards staged writes and releases locks. Returns true when
    /// the transaction was known.
    pub(crate) fn abort(&mut self, txn_id: u64) -> bool {
        let Some(txn) = self.take_staged(txn_id) else {
            return false;
        };
        self.recycle(txn);
        true
    }

    /// Records a prepare replicated from the group leader: keys and staged
    /// writes, but **no locks** — the record is passive until adopted on
    /// failover. Idempotent, and a no-op when this store already holds the
    /// transaction as a real (leader-side) prepare.
    pub(crate) fn stage_replicated<'a>(
        &mut self,
        txn_id: u64,
        ops: impl IntoIterator<Item = TxnOpRef<'a>>,
    ) {
        if self.records.contains_key(&txn_id) {
            return;
        }
        let mut txn = self.spare();
        txn.passive = true;
        for (key, write) in ops {
            let (index, _) = txn.touch(key);
            if let Some(value) = write {
                txn.stage(index, value);
            }
        }
        self.records.insert(txn_id, txn);
    }

    /// Discards a replicated prepare record (the coordinator's decision
    /// reached the group: the follower installs committed entries through
    /// the import path, or drops everything on abort). Returns true when the
    /// record existed.
    pub(crate) fn drop_replicated(&mut self, txn_id: u64) -> bool {
        if !self.records.get(&txn_id).is_some_and(|txn| txn.passive) {
            return false;
        }
        if let Some(txn) = self.records.remove(&txn_id) {
            self.recycle(txn);
        }
        true
    }

    /// Transaction ids with a replicated prepare record, ascending.
    #[cfg(test)]
    pub(crate) fn replicated_txn_ids(&self) -> Vec<u64> {
        let passive = self.records.iter().filter(|(_, txn)| txn.passive);
        passive.map(|(txn_id, _)| *txn_id).collect()
    }

    /// Exports every prepare record this store knows — real staged
    /// transactions and passive replicated copies alike — in the
    /// [`TxnTable::stage_replicated`] wire form (lock keys first as
    /// valueless entries, then the staged writes in order), by ascending
    /// transaction id. A recovering group member imports these as passive
    /// records, so a node that later re-wins coordinatorship can adopt the
    /// full in-flight set: its own pre-crash staging was volatile enclave
    /// state and is gone.
    pub(crate) fn export_records(&self) -> Vec<(u64, TxnRecordOps)> {
        let to_ops = |txn: &StagedTxn| -> TxnRecordOps {
            let touched = txn.keys.iter().map(|key| (key.clone(), None));
            let written = txn
                .writes
                .iter()
                .map(|(key, value)| (txn.keys[*key].clone(), Some(value.clone())));
            touched.chain(written).collect()
        };
        self.records
            .iter()
            .map(|(txn_id, txn)| (*txn_id, to_ops(txn)))
            .collect()
    }

    /// Failover adoption: promotes every replicated prepare record into a
    /// real staged transaction with locks. The old leader granted its locks
    /// all-or-nothing, so no two in-flight records can conflict and adoption
    /// never fails. Returns the adopted ids, ascending.
    pub(crate) fn adopt_replicated(&mut self) -> Vec<u64> {
        let mut adopted = Vec::new();
        for (txn_id, txn) in &mut self.records {
            if txn.passive {
                txn.passive = false;
                txn.lock(&mut self.locks, *txn_id);
                adopted.push(*txn_id);
            }
        }
        adopted
    }

    /// Drops every staged transaction, every replicated prepare record and
    /// every lock. A restarting replica calls this: the lock table is
    /// volatile enclave state and does not survive a crash — in-flight
    /// transactions are resolved by the rest of the group, which holds the
    /// replicated prepare records. Returns how many transactions were
    /// discarded.
    pub(crate) fn reset(&mut self) -> usize {
        self.locks.clear();
        let dropped = self.records.len();
        self.records.clear();
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

    /// Commits `txn_id`, its writes copied out.
    fn commit(table: &mut TxnTable, txn_id: u64) -> Option<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut txn = table.take_staged(txn_id)?;
        let writes = txn
            .writes_mut()
            .map(|(key, value)| (key.to_vec(), value.clone()))
            .collect();
        table.recycle(txn);
        Some(writes)
    }

    /// Commits `txn_id` as a store does: each staged value's buffer moves
    /// into `stored`, and the buffer it displaces there takes its slot.
    fn commit_into(table: &mut TxnTable, txn_id: u64, stored: &mut BTreeMap<Vec<u8>, Vec<u8>>) {
        let mut txn = table.take_staged(txn_id).expect("prepared");
        for (key, value) in txn.writes_mut() {
            let staged = std::mem::take(value);
            if let Some(displaced) = stored.insert(key.to_vec(), staged) {
                *value = displaced;
            }
        }
        table.recycle(txn);
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
        let writes = commit(&mut table, 1).unwrap();
        assert_eq!(writes, vec![(b"a".to_vec(), b"1".to_vec())]);
        assert!(!table.is_locked(b"a"));
        assert!(!table.is_locked(b"b"));
        // Committing again acks idempotently with nothing to apply.
        assert_eq!(commit(&mut table, 1), None);
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
        assert_eq!(commit(&mut table, 1).unwrap().len(), 1);
    }

    #[test]
    fn a_conflict_on_the_nth_key_leaves_the_table_as_it_was() {
        let mut table = TxnTable::default();
        table.prepare(1, [put(b"c", b"1"), get(b"x")]).unwrap();
        table.prepare(2, [put(b"d", b"2")]).unwrap();
        let before = (table.locks.clone(), table.records.clone());
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
                assert_eq!((&table.locks, &table.records), (&before.0, &before.1));
            } else {
                // Short of the held key the same list prepares.
                assert_eq!(refused, Ok(()));
                assert_eq!(table.lock_owner(b"a"), Some(3));
                assert!(table.abort(3));
            }
        }
        assert_eq!((table.locks, table.records), before);
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
        let writes = commit(&mut table, 1).unwrap();
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
        let writes = commit(&mut table, 1).unwrap();
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
        assert_eq!(commit(&mut table, 1).unwrap()[0].1, b"real");
    }

    #[test]
    fn re_prepare_is_idempotent() {
        let mut table = TxnTable::default();
        table.prepare(1, [put(b"a", b"1")]).unwrap();
        table.prepare(1, [put(b"a", b"1")]).unwrap();
        assert_eq!(commit(&mut table, 1).unwrap().len(), 1);
        assert_eq!(table.locked_keys(), 0);
    }

    #[test]
    fn a_warm_table_allocates_no_new_buffer() {
        let mut table = TxnTable::default();
        let mut stored = BTreeMap::new();
        let value = [7u8; 256];
        let mut round = |table: &mut TxnTable, txn_id: u64| {
            let ops = [
                put(b"a", &value),
                get(b"b"),
                put(b"c", &value),
                put(b"a", b"2"),
            ];
            table.prepare(txn_id, ops).unwrap();
            commit_into(table, txn_id, &mut stored);
            table.stage_replicated(txn_id, ops);
            assert!(table.drop_replicated(txn_id));
            table.prepare(txn_id + 1, ops).unwrap();
            assert!(table.abort(txn_id + 1));
        };
        // The first rounds fill the free lists, and the store's first
        // writes displace nothing.
        for txn_id in [0, 2] {
            round(&mut table, txn_id);
        }
        let warm = table.allocated();
        assert!(warm > 0);
        for txn_id in (4..400).step_by(2) {
            round(&mut table, txn_id);
        }
        assert_eq!(table.allocated(), warm);
        assert_eq!(stored[&b"a".to_vec()], b"2");
        // The lists hold what one transaction had in flight, no more.
        assert_eq!(table.spares.len(), 1);
        let spare = &table.spares[0];
        assert_eq!((spare.spare_keys.len(), spare.spare_values.len()), (6, 3));
    }

    #[test]
    fn a_recycled_record_returns_only_the_new_transactions_writes() {
        let mut table = TxnTable::default();
        let long = [0xEEu8; 1000];
        table
            .prepare(
                1,
                [put(b"key-one", &long), put(b"key-two", &long), get(b"x")],
            )
            .unwrap();
        assert_eq!(commit(&mut table, 1).unwrap().len(), 2);
        table.stage_replicated(2, [put(b"key-one", &long), put(b"key-three", &long)]);
        assert!(table.drop_replicated(2));

        // The next records are built in the buffers those left behind.
        table.prepare(3, [put(b"k", b"short")]).unwrap();
        table.stage_replicated(4, [get(b"r"), put(b"q", b"v")]);
        assert_eq!(
            table.export_records(),
            [
                (
                    3,
                    vec![
                        (b"k".to_vec(), None),
                        (b"k".to_vec(), Some(b"short".to_vec()))
                    ]
                ),
                (
                    4,
                    vec![
                        (b"r".to_vec(), None),
                        (b"q".to_vec(), None),
                        (b"q".to_vec(), Some(b"v".to_vec()))
                    ]
                ),
            ]
        );
        assert_eq!(table.staged_bytes(), 6);
        assert_eq!(
            commit(&mut table, 3),
            Some(vec![(b"k".to_vec(), b"short".to_vec())])
        );
        assert_eq!(table.adopt_replicated(), [4]);
        assert_eq!(
            commit(&mut table, 4),
            Some(vec![(b"q".to_vec(), b"v".to_vec())])
        );
        assert_eq!(table.locked_keys(), 0);
    }

    #[test]
    fn exported_and_adopted_recycled_records_keep_a_key_touched_twice() {
        /// A table whose free lists hold what three transactions left.
        fn warm() -> TxnTable {
            let mut table = TxnTable::default();
            for txn_id in 0..3u8 {
                let (written, read) = ([b'w', txn_id], [b'r', txn_id]);
                let ops = [put(&written, b"0"), get(&read)];
                table.prepare(txn_id.into(), ops).unwrap();
                table.stage_replicated(10, ops);
                assert!(table.drop_replicated(10));
            }
            for txn_id in 0..3 {
                assert!(table.abort(txn_id));
            }
            table
        }
        let mut leader = warm();
        leader
            .prepare(7, [put(b"a", b"1"), get(b"b"), put(b"a", b"2")])
            .unwrap();
        let touched = |key: &[u8]| (key.to_vec(), None);
        let write = |key: &[u8], value: &[u8]| (key.to_vec(), Some(value.to_vec()));
        let record = vec![
            touched(b"a"),
            touched(b"b"),
            write(b"a", b"1"),
            write(b"a", b"2"),
        ];
        let exported = leader.export_records();
        assert_eq!(exported, [(7, record)]);

        // A recovering member imports the export as passive records, and as
        // the new coordinator adopts them: each key locked once, both
        // writes to the key kept, in order.
        let mut recovered = warm();
        for (txn_id, ops) in &exported {
            recovered.stage_replicated(*txn_id, borrow_ops(ops));
        }
        assert_eq!(recovered.export_records(), exported);
        assert_eq!(recovered.adopt_replicated(), [7]);
        assert_eq!(recovered.locked_keys(), 2);
        assert_eq!(recovered.lock_owner(b"a"), Some(7));
        let writes = vec![
            (b"a".to_vec(), b"1".to_vec()),
            (b"a".to_vec(), b"2".to_vec()),
        ];
        assert_eq!(commit(&mut recovered, 7), Some(writes.clone()));
        assert_eq!(commit(&mut leader, 7), Some(writes));
        assert_eq!(recovered.locked_keys() + leader.locked_keys(), 0);
    }
}
