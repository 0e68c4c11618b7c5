//! What sits below every protocol: the replica's store and the duties
//! Recipe-lib, not the protocol, owns on it.
//!
//! The paper's transformation leaves a CFT protocol's logic alone because the
//! library holds the partitioned KV store, takes part in cross-shard
//! two-phase commit, moves key ranges between groups and restarts a crashed
//! node from state it can verify. [`ReplicaStore`] is that library state: a
//! replica embeds one, applies its committed writes through it and exposes it
//! with [`StoreReplica::store`]; the sharded driver, the 2PC coordinator and
//! the migration controller reach everything else through that one accessor,
//! so a protocol neither implements nor forwards any of it.
//!
//! # Entry buffers
//!
//! A kernel-bypass replica keeps each replicated entry in a registered
//! buffer it reuses. A [`ReplicaStore`] keeps that free list for its
//! replica, a [`FramePool`] of its own (never the group's frame pool: the
//! buffers here only ever hold store keys and values). A protocol that
//! copies an entry it receives takes spares for its key and value
//! ([`ReplicaStore::copy_entry`]), hands the value to [`ReplicaStore::apply`]
//! once it commits, and gives back the key, and any entry it discards, with
//! [`ReplicaStore::give_entry`]. The store keeps each value at its exact
//! length, so a write hands back the buffer it was given — copied over a
//! value of the same length where it lies, or into a box of its length —
//! unless that buffer had no room to spare and the store kept it, and then
//! the buffer it displaced, if any ([`PartitionedKvStore::write_owned`]).
//! `apply` files what comes back, so a spare makes the round trip whatever
//! its value's length. The list takes back no more buffers than it lent, so
//! a replica that takes none — a leader, whose values arrive in client
//! requests — keeps it empty and frees what its writes hand back; a
//! follower that becomes leader empties it
//! ([`ReplicaStore::drop_entry_buffers`]).
//!
//! Two-phase commit keeps to free lists as well. A prepare's keys and
//! values are staged in buffers the transaction table's records keep from
//! one transaction to the next, and at commit each staged value goes into
//! the store as it is applied, the buffer the write hands back returning to
//! its record. The applied records the coordinator installs on the other
//! replicas ([`ReplicaStore::txn_commit`]) are copied into spares of this
//! list and come back once installed ([`ReplicaStore::recycle_entries`]).
//! A replica installs them as it installs a transfer's chunk
//! ([`ReplicaStore::import_range`]): each value is copied from where it
//! lies over its key's bytes when as long, else into a spare of this list
//! that is exactly as long, or a new box, and the box it displaces comes
//! back to the list ([`PartitionedKvStore::write_lent`]).
//!
//! A read reply makes the round trip through the group's frame pool
//! instead, as a frame does: [`ReplicaStore::read_pooled`] checks the
//! value against the enclave-held digest and copies it into a buffer that
//! pool lends at the value's length, the reply carries it to its client,
//! and the group takes it back once the client has seen it — so a read of
//! a warm group allocates nothing. A miss takes no buffer. Both
//! pools count what they lend and what they had to allocate, for the life
//! of their owner ([`ReplicaStore::entry_pool`]).

use std::ops::Range;

use recipe_core::FramePool;
use recipe_kv::{
    ExportedEntry, KvError, PartitionedKvStore, ReadResult, Snapshot, SnapshotRecord, StoreConfig,
    Timestamp, TxnOpRef, TxnRecordOps,
};
use recipe_net::NodeId;
use recipe_sim::{Replica, RestartReport};

use crate::migration::ChunkRecord;
use crate::registry::Protocol;

/// A participant's answer to a two-phase-commit prepare.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnVote {
    /// Every touched key was locked and every write staged; the participant
    /// is ready to commit.
    Granted,
    /// A touched key is locked by another in-flight transaction; nothing was
    /// locked or staged (all-or-nothing), the coordinator must abort.
    Conflict {
        /// The first conflicting key.
        key: Vec<u8>,
    },
}

/// How a store stamps the writes it applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stamping {
    /// The next number of the replica's own sequence of applied operations
    /// (a log position, a chain sequence number, an execution count): later
    /// local writes overwrite unconditionally, so a carried timestamp is
    /// provenance only.
    Sequence,
    /// The key's stored Lamport timestamp, advanced: ABD's write rule
    /// (strictly newer wins), under which replicas that install the same
    /// records converge whatever order they arrive in.
    Lamport,
}

impl Stamping {
    /// The timestamp of a write that is operation number `applied` of
    /// replica `node`, to a key whose stored timestamp `stored` reads.
    fn stamp(
        self,
        applied: u64,
        node: u64,
        stored: impl FnOnce() -> Option<Timestamp>,
    ) -> Timestamp {
        match self {
            Stamping::Sequence => Timestamp::new(applied, node),
            Stamping::Lamport => stored().unwrap_or(Timestamp::ZERO).next_for(node),
        }
    }
}

/// `bytes` copied into a spare from `entries` sized for them: the last one
/// given back to their size class, or a new buffer.
fn copy(entries: &mut FramePool, bytes: &[u8]) -> Vec<u8> {
    let mut buf = entries.take(bytes.len());
    buf.extend_from_slice(bytes);
    buf
}

/// A replica type that keeps its state in a [`ReplicaStore`] — what the
/// sharded driver requires of the replicas it runs.
pub trait StoreReplica: Replica {
    /// The protocol this type implements, as the registry knows it.
    const PROTOCOL: Protocol;

    /// The replica's store.
    fn store(&mut self) -> &mut ReplicaStore;
}

/// One replica's partitioned KV store, the count of operations applied to it
/// and the rule that stamps them.
pub struct ReplicaStore {
    kv: PartitionedKvStore,
    node: u64,
    stamping: Stamping,
    /// Operations applied so far. Backed by the trusted monotonic counter,
    /// so it survives a crash.
    applied: u64,
    /// Spare key and value buffers (module docs, "Entry buffers").
    entries: FramePool,
}

impl ReplicaStore {
    /// An empty store for replica `node`.
    pub fn new(config: StoreConfig, node: NodeId, stamping: Stamping) -> Self {
        ReplicaStore {
            kv: PartitionedKvStore::new(config),
            node: node.0,
            stamping,
            applied: 0,
            entries: FramePool::default(),
        }
    }

    /// `bytes`, a key or value, copied into a spare sized for them: the
    /// last one given back to their size class, or a new buffer.
    pub(crate) fn copy_entry(&mut self, bytes: &[u8]) -> Vec<u8> {
        copy(&mut self.entries, bytes)
    }

    /// Gives back a buffer [`Self::copy_entry`] lent, or one the protocol
    /// holds in its place: a key it is done with, an entry it discards.
    pub(crate) fn give_entry(&mut self, buf: Vec<u8>) {
        self.entries.give(buf);
    }

    /// Drops every spare and forgets what was lent: for a replica that stops
    /// copying entries (a new leader), whose list then frees what its writes
    /// displace, as a leader's does.
    pub(crate) fn drop_entry_buffers(&mut self) {
        self.entries.drop_spares();
    }

    /// The free list of entry buffers, whose counts cover the store's life.
    pub fn entry_pool(&self) -> &FramePool {
        &self.entries
    }

    /// Operations applied so far.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Reads `key` through the verified path into a buffer of its own;
    /// `None` when it is absent or fails verification.
    pub fn get(&self, key: &[u8]) -> Option<ReadResult> {
        self.kv.get(key).ok()
    }

    /// Reads `key` through the verified path into a buffer `frames` lends at
    /// the value's length, with the key's stored write timestamp: a read
    /// reply's value, which goes back to `frames` once its client has seen
    /// it (module docs, "Entry buffers"). `None`, taking no buffer, when the
    /// key is absent or fails verification.
    pub fn read_pooled(&self, key: &[u8], frames: &mut FramePool) -> Option<(Vec<u8>, Timestamp)> {
        let read = self.kv.read(key).ok()?;
        let mut value = frames.take(read.value_len());
        read.copy_into(&mut value);
        Some((value, read.timestamp))
    }

    /// The write timestamp stored for `key`.
    pub(crate) fn timestamp_of(&self, key: &[u8]) -> Option<Timestamp> {
        self.kv.timestamp_of(key)
    }

    /// True while a prepared transaction holds `key`: a protocol leaves a
    /// single-key request for it to the client's retransmission (2PL
    /// isolation). Never true without transactions in flight.
    pub fn is_locked(&self, key: &[u8]) -> bool {
        self.kv.is_locked(key)
    }

    /// Applies a committed write as the next operation, stamped by the
    /// store's rule. A protocol hands over the value it holds
    /// ([`PartitionedKvStore::write_owned`]), and the buffer the write hands
    /// back goes to the store's spares, while the list is owed buffers it
    /// lent (module docs, "Entry buffers"); the caller returns nothing for
    /// it.
    pub fn apply(&mut self, key: &[u8], value: Vec<u8>) {
        self.applied += 1;
        let ts = self
            .stamping
            .stamp(self.applied, self.node, || self.kv.timestamp_of(key));
        if let Some(back) = self.kv.write_owned(key, value, ts) {
            self.entries.give(back);
        }
    }

    /// Counts an operation that takes its place in the sequence and writes
    /// nothing: PBFT and Damysus order reads too.
    pub fn advance(&mut self) {
        self.applied += 1;
    }

    /// Applies a write under a timestamp the protocol's own rounds agreed
    /// (ABD), unless the stored one is as new. Returns whether it applied.
    pub(crate) fn apply_if_newer(&mut self, key: &[u8], value: &[u8], ts: Timestamp) -> bool {
        let applied = self.kv.write_if_newer(key, value, ts);
        self.applied += u64::from(applied);
        applied
    }

    // ------------------------------------------------------------------
    // Two-phase-commit participation, driven by the sharded coordinator on
    // the group's write coordinator (and, for the replicated records, on
    // its followers).
    // ------------------------------------------------------------------

    /// 2PC prepare: locks every key `ops` touches and stages the writes,
    /// all-or-nothing. The operations are lent (a decoded prepare's, where
    /// they lie in its frame); the store copies what it stages.
    pub fn txn_prepare<'a>(
        &mut self,
        txn_id: u64,
        ops: impl IntoIterator<Item = TxnOpRef<'a>>,
    ) -> TxnVote {
        match self.kv.txn_prepare_borrowed(txn_id, ops) {
            Ok(()) => TxnVote::Granted,
            Err(KvError::LockConflict { key, .. }) => TxnVote::Conflict { key },
            // The transaction table only reports lock conflicts today; anything
            // else would be a store bug — refuse the prepare rather than lock up.
            Err(_) => TxnVote::Conflict { key: Vec::new() },
        }
    }

    /// 2PC commit: applies `txn_id`'s staged writes as [`Self::apply`] does
    /// — so sequence numbers and timestamps advance exactly as for the
    /// protocol's own writes, and each staged value's buffer is the one the
    /// store keeps — releases its locks, and appends the applied records to
    /// `committed` with the timestamps the store now holds, copied into
    /// spares of the entry list ("Entry buffers"); the coordinator installs
    /// them on the group's other replicas ([`Self::import_range`]) and gives
    /// them back ([`Self::recycle_entries`]). An unknown transaction appends
    /// nothing (idempotent re-commit).
    pub fn txn_commit(&mut self, txn_id: u64, committed: &mut Vec<ExportedEntry>) {
        let ReplicaStore {
            kv,
            node,
            stamping,
            applied,
            entries,
        } = self;
        let stamp = |stored| {
            *applied += 1;
            stamping.stamp(*applied, *node, || stored)
        };
        kv.txn_commit(txn_id, stamp, |key, value, ts| {
            committed.push((copy(entries, key), copy(entries, value), ts));
        });
    }

    /// Gives back the buffers of the records [`Self::txn_commit`] copied out,
    /// once nothing reads them, leaving `committed` empty.
    pub fn recycle_entries(&mut self, committed: &mut Vec<ExportedEntry>) {
        for (key, value, _) in committed.drain(..) {
            self.entries.give(key);
            self.entries.give(value);
        }
    }

    /// 2PC abort: discards `txn_id`'s staged writes and releases its locks.
    pub fn txn_abort(&mut self, txn_id: u64) {
        self.kv.txn_abort(txn_id);
    }

    /// Records a prepare replicated from the group's leader: passive (no
    /// locks) until adopted on failover. The coordinator's prepare phase
    /// already pays the group replication round trip in the cost model; this
    /// is the state that round trip carries.
    pub fn txn_stage_replicated<'a>(
        &mut self,
        txn_id: u64,
        ops: impl IntoIterator<Item = TxnOpRef<'a>>,
    ) {
        self.kv.txn_stage_replicated(txn_id, ops);
    }

    /// Discards the replicated prepare record for `txn_id` once the
    /// coordinator's decision reached this follower (committed entries then
    /// arrive through the import path; aborts just drop the record).
    pub fn txn_drop_replicated(&mut self, txn_id: u64) {
        self.kv.txn_drop_replicated(txn_id);
    }

    /// Failover adoption: promotes every replicated prepare record held here
    /// into a real staged transaction with locks, returning the adopted ids.
    /// A protocol calls it when its replica becomes the group's write
    /// coordinator, so transactions prepared on a crashed leader resolve
    /// through the coordinator's normal commit/abort frames.
    pub fn txn_adopt_replicated(&mut self) -> Vec<u64> {
        self.kv.txn_adopt_replicated()
    }

    // ------------------------------------------------------------------
    // Key-range state transfer, driven by the migration controller. Local
    // store only — no protocol messages, no counters. The controller owns
    // ordering: imports are applied snapshot-first then catch-up in commit
    // order, and the donor stops serving the range before eviction.
    // ------------------------------------------------------------------

    /// Takes a snapshot of every key satisfying `filter`, in key order, for
    /// a transfer to seal where its records lie
    /// ([`Self::snapshot_records`]): each record is checked once, before
    /// anything ships. Fails when a record does not pass the check (a
    /// Byzantine host corrupted or dropped host-resident state) — the
    /// caller must abort the transfer, never ship unverified state.
    pub fn snapshot(&self, filter: &dyn Fn(&[u8]) -> bool) -> Result<Snapshot, String> {
        self.kv
            .snapshot(filter)
            .map_err(|err| format!("range snapshot failed verification: {err:?}"))
    }

    /// The records of `snapshot`, taken of this store and unchanged since,
    /// in `range` of its key order, where they lie: each value leaves only
    /// through the check of the copy a chunk's frame takes
    /// ([`SnapshotRecord::copy_value`]).
    pub fn snapshot_records<'a>(
        &'a self,
        snapshot: &'a Snapshot,
        range: Range<usize>,
    ) -> impl ExactSizeIterator<Item = SnapshotRecord<'a>> + Clone + 'a {
        self.kv.snapshot_records(snapshot, range)
    }

    /// Exports every key satisfying `filter`, in key order, as owned
    /// records: what [`Self::snapshot`] and [`Self::snapshot_records`] read
    /// in place, for a caller that keeps them. Fails when a record does not
    /// pass the verified-read path.
    pub fn export_range(
        &mut self,
        filter: &dyn Fn(&[u8]) -> bool,
    ) -> Result<Vec<ExportedEntry>, String> {
        self.kv
            .export_matching(filter)
            .map_err(|err| format!("range export failed verification: {err:?}"))
    }

    /// Reads one key through the verified path with its **real stored write
    /// timestamp** (catch-up capture uses this so timestamp-ordered stores
    /// keep their write rule across the move). `Ok(None)` when the key is
    /// absent; `Err` when it fails verification.
    pub fn read_entry(&mut self, key: &[u8]) -> Result<Option<ExportedEntry>, String> {
        match self.kv.read(key) {
            Ok(read) => {
                let mut value = Vec::new();
                read.copy_into(&mut value);
                Ok(Some((key.to_vec(), value, read.timestamp)))
            }
            Err(KvError::NotFound) => Ok(None),
            Err(err) => Err(format!("verified read failed: {err:?}")),
        }
    }

    /// Installs committed records with the timestamps they carry, in order
    /// (a later record overwrites an earlier one for the same key): an
    /// opened chunk's, where they lie in its frame, or the list a 2PC
    /// commit applied on the group's write coordinator
    /// ([`Self::txn_commit`]). This is below the protocol: the applied
    /// count does not move — the records committed on the exporting
    /// replica. Each value is copied from where it lies into the host
    /// slot, or into an exact-length spare of the entry list where the slot
    /// needs a new box ("Entry buffers"); every replica of a group installs
    /// from one chunk or one list.
    pub fn import_range<'a>(&mut self, records: impl IntoIterator<Item = ChunkRecord<'a>>) {
        let ReplicaStore { kv, entries, .. } = self;
        for (key, value, ts) in records {
            if let Some(back) = kv.write_lent(key, value, ts, &mut |len| entries.take_exact(len)) {
                entries.give(back);
            }
        }
    }

    /// Removes every key satisfying `filter`, returning how many went.
    pub fn evict_range(&mut self, filter: &dyn Fn(&[u8]) -> bool) -> usize {
        self.kv.remove_matching(filter)
    }

    // ------------------------------------------------------------------
    // Crash recovery.
    // ------------------------------------------------------------------

    /// Every prepare record known here, own and passive: what a restarting
    /// peer stages ([`Self::txn_stage_replicated`]) after its transfer.
    pub fn txn_records(&self) -> Vec<(u64, TxnRecordOps)> {
        self.kv.txn_export_records()
    }

    /// Rollback-protected restart. The 2PC lock table was volatile and is
    /// gone (the rest of the group holds the replicated prepare records and
    /// resolves in-flight transactions); only records the enclave verifies
    /// survive. What the group committed while this node was down arrives
    /// afterwards, as a transfer ([`Self::import_range`]).
    pub fn restart(&mut self) -> RestartReport {
        self.kv.txn_reset();
        let (verified, discarded, bytes) = self.kv.rehydrate();
        self.catch_up_applied();
        RestartReport {
            verified_entries: verified,
            discarded_entries: discarded,
            payload_bytes: bytes,
        }
    }

    /// Moves the applied count up to the highest timestamp the store holds,
    /// never behind it, so a restarted replica's next write cannot reuse
    /// one: after its rehydration, and again after its transfer.
    pub fn catch_up_applied(&mut self) {
        if let Some(newest) = self.kv.newest_timestamp() {
            self.applied = self.applied.max(newest.logical);
        }
    }
}

#[cfg(test)]
mod tests {
    use recipe_core::Operation;

    use super::*;
    use crate::migration::{ChunkPhase, MigrationChannel};

    /// Lends protocol operations to the store as its `(key, staged write)` pairs:
    /// reads lock their key and stage nothing, writes lock and stage the value.
    fn lock_pairs(ops: &[Operation]) -> impl Iterator<Item = TxnOpRef<'_>> {
        ops.iter().map(|op| match op {
            Operation::Get { key } => (key.as_slice(), None),
            Operation::Put { key, value } => (key.as_slice(), Some(value.as_slice())),
        })
    }

    fn put(key: &[u8], value: &[u8]) -> Operation {
        Operation::Put {
            key: key.to_vec(),
            value: value.to_vec(),
        }
    }

    fn store(stamping: Stamping) -> ReplicaStore {
        ReplicaStore::new(StoreConfig::default(), NodeId(2), stamping)
    }

    impl ReplicaStore {
        /// Prepares `ops` as a decoded prepare lends them.
        fn prepare(&mut self, txn_id: u64, ops: &[Operation]) -> TxnVote {
            self.txn_prepare(txn_id, lock_pairs(ops))
        }

        /// Installs `entries` as the coordinator installs a committed
        /// transaction's list.
        fn install(&mut self, entries: &[ExportedEntry]) {
            self.import_range(
                entries
                    .iter()
                    .map(|(key, value, ts)| (&key[..], &value[..], *ts)),
            );
        }

        /// Restarts, then catches up from `peer` as a restart's transfer
        /// does: its whole range, then its prepare records.
        fn restart_from(&mut self, peer: &mut ReplicaStore) -> RestartReport {
            let report = self.restart();
            self.install(&peer.export_range(&|_| true).unwrap());
            for (txn_id, ops) in peer.txn_records() {
                let ops = ops
                    .iter()
                    .map(|(key, staged)| (&key[..], staged.as_deref()));
                self.txn_stage_replicated(txn_id, ops);
            }
            self.catch_up_applied();
            report
        }

        /// Commits `txn_id`, its applied records copied out.
        fn commit(&mut self, txn_id: u64) -> Vec<ExportedEntry> {
            let mut entries = Vec::new();
            self.txn_commit(txn_id, &mut entries);
            entries
        }
    }

    fn stamps(entries: &[ExportedEntry]) -> Vec<(u64, u64)> {
        entries
            .iter()
            .map(|(_, _, ts)| (ts.logical, ts.node))
            .collect()
    }

    #[test]
    fn a_sequence_store_stamps_commits_by_position_and_restarts_at_the_highest_one() {
        let mut store = store(Stamping::Sequence);
        store.apply(b"a", b"0".to_vec());
        store.advance();
        let ops = [
            put(b"a", b"1"),
            Operation::Get { key: b"r".to_vec() },
            put(b"b", b"2"),
        ];
        assert_eq!(store.prepare(7, &ops), TxnVote::Granted);
        assert!(store.is_locked(b"a") && store.is_locked(b"r"));
        // A second transaction conflicts and names the key; nothing of it stays.
        assert_eq!(
            store.prepare(8, &[put(b"z", b"9"), put(b"b", b"9")]),
            TxnVote::Conflict { key: b"b".to_vec() }
        );
        assert!(!store.is_locked(b"z"));
        let entries = store.commit(7);
        // Positions 3 and 4 of this replica's own sequence, reads staging nothing.
        assert_eq!(stamps(&entries), [(3, 2), (4, 2)]);
        assert_eq!((store.applied(), store.is_locked(b"r")), (4, false));
        assert!(store.commit(7).is_empty(), "re-commit re-applied");
        assert_eq!(store.get(b"a").unwrap().value, b"1");

        // A live peer is ahead: the restart adopts its records and moves the
        // count to the highest timestamp that survives, so the next write
        // cannot reuse one.
        let mut peer = ReplicaStore::new(StoreConfig::default(), NodeId(0), Stamping::Sequence);
        peer.install(&entries);
        (0..5).for_each(|_| peer.apply(b"c", b"3".to_vec()));
        assert_eq!(peer.prepare(9, &[put(b"d", b"4")]), TxnVote::Granted);
        let report = store.restart_from(&mut peer);
        assert_eq!((report.verified_entries, report.discarded_entries), (2, 0));
        assert_eq!(store.applied(), 5);
        assert_eq!(store.read_entry(b"c").unwrap().unwrap().2.node, 0);
        // The peer's prepare came over as a passive copy: no lock until adopted.
        assert!(!store.is_locked(b"d"));
        assert_eq!(store.txn_adopt_replicated(), [9]);
        assert!(store.is_locked(b"d"));
        store.txn_abort(9);
        store.apply(b"c", b"4".to_vec());
        assert_eq!(
            stamps(&[store.read_entry(b"c").unwrap().unwrap()]),
            [(6, 2)]
        );
    }

    #[test]
    fn a_lamport_store_stamps_commits_past_the_stored_timestamp_and_keeps_the_write_rule() {
        let mut store = store(Stamping::Lamport);
        assert!(store.apply_if_newer(b"moving", b"old", Timestamp::new(9, 1)));
        assert!(!store.apply_if_newer(b"moving", b"stale", Timestamp::new(8, 5)));
        assert!(store.apply_if_newer(b"staying", b"here", Timestamp::new(1, 0)));
        assert_eq!(store.applied(), 2);
        assert_eq!(
            store.prepare(7, &[put(b"moving", b"new"), put(b"fresh", b"1")]),
            TxnVote::Granted
        );
        // Each write is strictly newer than what its key held, whatever the count.
        let entries = store.commit(7);
        assert_eq!(stamps(&entries), [(10, 2), (1, 2)]);
        assert_eq!(store.applied(), 4);

        // A range moves with its timestamps, which still govern the rule on
        // the recipient; eviction takes it from the donor alone.
        let moving = |key: &[u8]| key.starts_with(b"moving");
        let exported = store.export_range(&moving).unwrap();
        assert_eq!(stamps(&exported), [(10, 2)]);
        let mut recipient = ReplicaStore::new(StoreConfig::default(), NodeId(0), Stamping::Lamport);
        recipient.install(&exported);
        assert_eq!(recipient.applied(), 0);
        assert!(!recipient.apply_if_newer(b"moving", b"stale", Timestamp::new(9, 9)));
        assert!(recipient.apply_if_newer(b"moving", b"fresh", Timestamp::new(11, 0)));
        assert_eq!(store.evict_range(&moving), 1);
        assert_eq!(store.get(b"moving"), None);
        assert_eq!(store.get(b"staying").unwrap().value, b"here");

        // Restart: the count moves up to the highest verified timestamp.
        let report = recipient.restart();
        assert_eq!(report.verified_entries, 1);
        assert_eq!(recipient.applied(), 11);

        // A Byzantine host corrupting host-resident state surfaces as an
        // export error, never as shipped state, and does not survive a
        // restart.
        store.kv.corrupt_host_value(b"staying");
        assert!(store.export_range(&|_| true).is_err());
        assert!(store.read_entry(b"staying").is_err());
        let report = store.restart();
        assert_eq!((report.verified_entries, report.discarded_entries), (1, 1));
        assert_eq!(store.read_entry(b"staying"), Ok(None));
    }

    #[test]
    fn a_committed_list_and_an_opened_chunk_install_the_same_state() {
        for stamping in [Stamping::Sequence, Stamping::Lamport] {
            let mut leader = store(stamping);
            leader.apply(b"a", b"0".to_vec());
            let ops = [put(b"a", b"1"), put(b"b", b"22")];
            assert_eq!(leader.prepare(7, &ops), TxnVote::Granted);
            let committed = leader.commit(7);
            // Two followers hold an older `a`, which both installs overwrite.
            let [mut from_list, mut from_chunk] = [0, 1].map(|_| {
                let mut follower = ReplicaStore::new(StoreConfig::default(), NodeId(0), stamping);
                follower.apply(b"a", b"old".to_vec());
                follower
            });
            from_list.install(&committed);
            let mut channel = MigrationChannel::new(0, 1, 1, false);
            let frames = &mut FramePool::default();
            let sealed = channel.seal(frames, ChunkPhase::CatchUp, committed.iter());
            let (_, mut wire) = sealed.unwrap();
            from_chunk.import_range(channel.open(&mut wire).unwrap());
            let held = |store: &mut ReplicaStore| store.export_range(&|_| true).unwrap();
            let installed = held(&mut from_list);
            assert_eq!(installed, held(&mut from_chunk), "{stamping:?}");
            assert_eq!(installed, held(&mut leader), "{stamping:?}");
            assert_eq!((from_list.applied(), from_chunk.applied()), (1, 1));
        }
    }
}
