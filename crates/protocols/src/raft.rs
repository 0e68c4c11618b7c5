//! R-Raft: the Recipe transformation of Raft (leader-based, total order).
//!
//! The protocol structure follows Figure 1 and §3.4: the leader serializes all
//! writes into a log, broadcasts each entry to the followers (replication phase),
//! marks it replicated after a majority of ACKs, then broadcasts a commit message
//! and answers the client once a majority acknowledged the commit. Reads are
//! forwarded to the leader, which answers from its local partitioned KV store
//! after checking only that it leads its own view (`is_leader()`). No lease is
//! consulted: a leader cut off from its majority stays `is_leader()` until it
//! hears a higher view, so under a partition it may answer a read with a value a
//! newer leader has already overwritten. The history check of
//! `tests/protocol_agreement.rs` cannot reach that stale read: the simulated
//! network has no partition fault (ROADMAP.md, item 1). The read path and the frames
//! a write costs are stated, with Fig. 1 as their source, in
//! [`Protocol::Raft`]'s [`crate::Contract`], which `tests/protocol_agreement.rs`
//! checks natively and under Recipe.
//!
//! Leader failure is detected through heartbeats on the virtual clock: the
//! leader beats every 10 ms, and a follower that has heard none for the 35 ms
//! election timeout votes for the next view; once a quorum of votes for the same
//! view is gathered, that view's leader takes over. Committed entries survive
//! the change because they reside in a majority of KV stores.
//!
//! A follower decodes an append as slices of the received frame and copies
//! its key and value once, into spares its store lends
//! ([`crate::ReplicaStore::copy_entry`]). On commit the store keeps the
//! value's buffer and takes back the key's and the one the write displaced,
//! so a follower overwriting a key it holds allocates nothing.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Deref;

use recipe_core::wire::{bytes_len, tag, Reader, Writer};
use recipe_core::{mac_compressions, ClientRequest, Membership, Operation, SINGLE_MAC_HEADER_LEN};
use recipe_net::NodeId;

use crate::registry::Protocol;
use crate::replica::{CftProtocol, Handle, RecipeReplica};
use crate::store::{ReplicaStore, Stamping};

/// Timer token: leader heartbeat tick.
const TOKEN_HEARTBEAT: u64 = 1;
/// Timer token: follower failure-detector tick.
const TOKEN_FAILURE_DETECTOR: u64 = 2;
/// Heartbeat period in nanoseconds.
const HEARTBEAT_PERIOD_NS: u64 = 10_000_000; // 10 ms
/// Election timeout in nanoseconds.
const ELECTION_TIMEOUT_NS: u64 = 35_000_000; // 35 ms

/// Raft protocol messages (carried as Recipe-shielded payloads). An append's
/// key and value are borrowed: from the leader's request when it sends,
/// from the received frame when a follower decodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum RaftMsg<'a> {
    /// Leader → followers: replicate one log entry.
    Append {
        view: u64,
        index: u64,
        key: &'a [u8],
        value: &'a [u8],
        client_id: u64,
        request_id: u64,
    },
    /// Follower → leader: entry buffered.
    AppendAck { view: u64, index: u64 },
    /// Leader → followers: apply the entry.
    Commit { view: u64, index: u64 },
    /// Follower → leader: entry applied.
    CommitAck { view: u64, index: u64 },
    /// Leader → followers: liveness heartbeat.
    Heartbeat { view: u64 },
    /// Any node → all: vote to move to `new_view`.
    ViewChange { new_view: u64 },
}

/// Most bytes a message without a key and value encodes to: the family tag,
/// the variant and two `u64`s.
const FIXED_MAX: usize = 2 + 2 * 8;

// Three of the four frames a committed write costs each follower link are an
// acknowledgement, a commit and its acknowledgement. Shielded, each one's
// MAC input fits one SHA-256 block, so the MAC is the two compressions an
// HMAC cannot go below, and the shield MACs it from that one stack block
// (the bound key's one-block entry) with no stream built around it; a field
// added to these messages or to the MAC header that breaks either fails
// here, not as a slower benchmark.
const _: () = assert!(mac_compressions(SINGLE_MAC_HEADER_LEN + FIXED_MAX) == 2);

/// A message's wire form where it was built: every message but an append is
/// a few fixed-size fields, encoded on the stack — the shield copies the
/// bytes into the frame it seals either way.
#[derive(Debug)]
enum Encoding {
    Fixed { bytes: [u8; FIXED_MAX], len: usize },
    Heap(Vec<u8>),
}

impl Deref for Encoding {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            Encoding::Fixed { bytes, len } => &bytes[..*len],
            Encoding::Heap(bytes) => bytes,
        }
    }
}

impl RaftMsg<'_> {
    /// Wire form: `tag | variant | u64 fields in declaration order`, an
    /// append's key and value last.
    pub fn encode(&self) -> Vec<u8> {
        match self.encoding() {
            Encoding::Heap(bytes) => bytes,
            fixed => fixed.to_vec(),
        }
    }

    /// The bytes of [`RaftMsg::encode`], allocated only for an append.
    fn encoding(&self) -> Encoding {
        let (variant, first, second) = match self {
            RaftMsg::Append {
                view,
                index,
                key,
                value,
                client_id,
                request_id,
            } => {
                let (client_id, request_id) = (*client_id, *request_id);
                let bytes = Self::encode_append(
                    Vec::new(),
                    *view,
                    *index,
                    key,
                    value,
                    client_id,
                    request_id,
                );
                return Encoding::Heap(bytes);
            }
            RaftMsg::AppendAck { view, index } => (1, view, Some(index)),
            RaftMsg::Commit { view, index } => (2, view, Some(index)),
            RaftMsg::CommitAck { view, index } => (3, view, Some(index)),
            RaftMsg::Heartbeat { view } => (4, view, None),
            RaftMsg::ViewChange { new_view } => (5, new_view, None),
        };
        let mut bytes = [0; FIXED_MAX];
        bytes[0] = tag::RAFT;
        bytes[1] = variant;
        bytes[2..10].copy_from_slice(&first.to_le_bytes());
        let len = match second {
            Some(second) => {
                bytes[10..].copy_from_slice(&second.to_le_bytes());
                FIXED_MAX
            }
            None => 10,
        };
        Encoding::Fixed { bytes, len }
    }

    /// The encoding of an [`RaftMsg::Append`] with these fields, in `buf` —
    /// for a leader that keeps the key and value it sends, and encodes its
    /// next append in the same buffer.
    fn encode_append(
        buf: Vec<u8>,
        view: u64,
        index: u64,
        key: &[u8],
        value: &[u8],
        client_id: u64,
        request_id: u64,
    ) -> Vec<u8> {
        let entry_len = bytes_len(key.len()) + bytes_len(value.len());
        let mut w = Writer::reusing(buf, 2 + 4 * 8 + entry_len);
        w.u8(tag::RAFT)
            .u8(0)
            .u64(view)
            .u64(index)
            .u64(client_id)
            .u64(request_id)
            .bytes(key)
            .bytes(value);
        w.finish()
    }

    /// Parses a message; `None` on anything but one well-formed encoding.
    /// An append's key and value are slices of `bytes`.
    pub fn decode(bytes: &[u8]) -> Option<RaftMsg<'_>> {
        let mut r = Reader::tagged(bytes, tag::RAFT)?;
        let msg = match r.u8()? {
            0 => {
                let (view, index, client_id, request_id) = (r.u64()?, r.u64()?, r.u64()?, r.u64()?);
                RaftMsg::Append {
                    view,
                    index,
                    key: r.bytes()?,
                    value: r.bytes()?,
                    client_id,
                    request_id,
                }
            }
            1 => RaftMsg::AppendAck {
                view: r.u64()?,
                index: r.u64()?,
            },
            2 => RaftMsg::Commit {
                view: r.u64()?,
                index: r.u64()?,
            },
            3 => RaftMsg::CommitAck {
                view: r.u64()?,
                index: r.u64()?,
            },
            4 => RaftMsg::Heartbeat { view: r.u64()? },
            5 => RaftMsg::ViewChange { new_view: r.u64()? },
            _ => return None,
        };
        r.finish()?;
        Some(msg)
    }
}

/// Which replicas acknowledged something: one bit per position in the
/// (sorted, fixed) membership.
#[derive(Debug, Clone, Copy, Default)]
struct AckSet(u64);

impl AckSet {
    /// Most members a set has a bit for.
    const CAPACITY: usize = u64::BITS as usize;

    fn insert(&mut self, position: usize) {
        self.0 |= 1 << position;
    }

    fn len(self) -> usize {
        self.0.count_ones() as usize
    }
}

/// Hashes the log indices Raft's per-entry tables are keyed by. The leader
/// assigns them one after another and no client picks one, so the tables
/// need no keyed SipHash: one multiply by 2⁶⁴/φ spreads consecutive indices
/// over both the low bits a table picks its bucket by and the high bits it
/// tags entries with.
#[derive(Default)]
struct IndexHasher(u64);

impl Hasher for IndexHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(byte));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A table keyed by log index.
type ByIndex<V> = HashMap<u64, V, BuildHasherDefault<IndexHasher>>;

#[derive(Debug, Clone)]
struct PendingEntry {
    key: Vec<u8>,
    /// The value until the entry is applied at replication quorum, when the
    /// store takes it; empty after.
    value: Vec<u8>,
    client_id: u64,
    request_id: u64,
    append_acks: AckSet,
    commit_acks: AckSet,
    replicated: bool,
}

/// Gives an uncommitted entry's key and value buffers back to `store`.
fn give_back(store: &mut ReplicaStore, (key, value): (Vec<u8>, Vec<u8>)) {
    store.give_entry(key);
    store.give_entry(value);
}

/// The Raft protocol: one replica's view, log position and replication and
/// election state.
pub struct Raft {
    id: NodeId,
    membership: Membership,
    view: u64,
    next_index: u64,
    /// Leader-side replication state per log index, from the client's request
    /// until its reply is sent.
    pending: ByIndex<PendingEntry>,
    /// Follower-side uncommitted entries per log index: key and value, each
    /// copied from the append into a spare of the store's entry buffers.
    /// On commit the store keeps the value and gets the key back; an entry
    /// replaced or discarded goes back whole.
    uncommitted: ByIndex<(Vec<u8>, Vec<u8>)>,
    /// Timestamp (virtual ns) of the last heartbeat observed from the leader.
    last_heartbeat_ns: u64,
    /// Views this replica has already voted for.
    voted: HashSet<u64>,
    /// Votes received per candidate view.
    view_votes: HashMap<u64, HashSet<u64>>,
    /// The leader's last append, encoded: the buffer its next one is
    /// encoded in.
    append: Vec<u8>,
}

/// A Raft replica (native or Recipe-transformed, R-Raft).
pub type RaftReplica = RecipeReplica<Raft>;

impl RaftReplica {
    /// The current view (term).
    pub fn view(&self) -> u64 {
        self.core().view
    }

    /// True if this replica currently leads.
    pub fn is_leader(&self) -> bool {
        self.core().is_leader()
    }

    /// Number of entries this replica has applied to its KV store.
    pub fn committed_entries(&self) -> u64 {
        self.applied_writes()
    }
}

impl Raft {
    fn is_leader(&self) -> bool {
        self.membership.leader_for_view(self.view) == self.id
    }

    fn quorum(&self) -> usize {
        self.membership.quorum()
    }

    fn handle_protocol_message(&mut self, from: NodeId, msg: RaftMsg, h: &mut Handle<'_>) {
        match msg {
            RaftMsg::Append {
                view,
                index,
                key,
                value,
                client_id: _,
                request_id: _,
            } => {
                if view != self.view || self.is_leader() {
                    return;
                }
                // The append borrows the frame: its one copy of each field
                // is into spares the store lends.
                let store = h.store();
                let entry = (store.copy_entry(key), store.copy_entry(value));
                if let Some(replaced) = self.uncommitted.insert(index, entry) {
                    give_back(store, replaced);
                }
                let ack = RaftMsg::AppendAck { view, index };
                h.send(from, &ack.encoding());
            }
            RaftMsg::AppendAck { view, index } => {
                if view != self.view || !self.is_leader() {
                    return;
                }
                let quorum = self.quorum();
                let (Some(entry), Some(acker), Some(own)) = (
                    self.pending.get_mut(&index),
                    self.membership.position(from),
                    self.membership.position(self.id),
                ) else {
                    return;
                };
                entry.append_acks.insert(acker);
                if !entry.replicated && entry.append_acks.len() >= quorum {
                    entry.replicated = true;
                    // Apply locally and instruct followers to commit. Nothing
                    // reads the value after this: the store takes it.
                    h.store()
                        .apply(&entry.key, std::mem::take(&mut entry.value));
                    entry.commit_acks.insert(own);
                    let commit = RaftMsg::Commit {
                        view: self.view,
                        index,
                    };
                    h.broadcast(self.membership.members(), &commit.encoding());
                }
            }
            RaftMsg::Commit { view, index } => {
                if view != self.view || self.is_leader() {
                    return;
                }
                if let Some((key, value)) = self.uncommitted.remove(&index) {
                    let store = h.store();
                    store.apply(&key, value);
                    store.give_entry(key);
                }
                let ack = RaftMsg::CommitAck { view, index };
                h.send(from, &ack.encoding());
            }
            RaftMsg::CommitAck { view, index } => {
                if view != self.view || !self.is_leader() {
                    return;
                }
                let quorum = self.quorum();
                let (Some(entry), Some(acker)) =
                    (self.pending.get_mut(&index), self.membership.position(from))
                else {
                    return;
                };
                entry.commit_acks.insert(acker);
                if entry.commit_acks.len() >= quorum {
                    h.reply(entry.client_id, entry.request_id, None, false);
                    // Answered: nothing about this index is needed again, and
                    // an ack that arrives later finds no entry to count on.
                    self.pending.remove(&index);
                }
            }
            RaftMsg::Heartbeat { view } => {
                if view > self.view {
                    // A heartbeat from a newer view: the election happened
                    // while this replica was down (or partitioned) — adopt
                    // the view instead of waiting out another election. In
                    // crash-free runs the view never advances, so this
                    // branch is never taken there.
                    self.install_view(view, h);
                }
                if view >= self.view {
                    self.last_heartbeat_ns = h.now().as_nanos();
                }
            }
            RaftMsg::ViewChange { new_view } => {
                if new_view <= self.view {
                    return;
                }
                self.view_votes.entry(new_view).or_default().insert(from.0);
                // Vote ourselves (once per view) and echo the vote to everyone.
                if self.voted.insert(new_view) {
                    self.view_votes
                        .entry(new_view)
                        .or_default()
                        .insert(self.id.0);
                    let vote = RaftMsg::ViewChange { new_view };
                    h.broadcast(self.membership.members(), &vote.encoding());
                }
                let votes = self.view_votes.get(&new_view).map(|v| v.len()).unwrap_or(0);
                if votes >= self.quorum() {
                    self.install_view(new_view, h);
                }
            }
        }
    }

    /// Gives every uncommitted entry's buffers back to the store, once the
    /// replica is in its new view. Which spare lands where is no output's
    /// business: they are interchangeable within a size class, and none is
    /// read before it is refilled. A replica that now leads copies no
    /// entries, so its store drops its spares rather than keep the buffers
    /// its writes displace for copies it will not make.
    fn discard_uncommitted(&mut self, h: &mut Handle<'_>) {
        let store = h.store();
        for (_, entry) in self.uncommitted.drain() {
            give_back(store, entry);
        }
        if self.is_leader() {
            store.drop_entry_buffers();
        }
    }

    fn install_view(&mut self, view: u64, h: &mut Handle<'_>) {
        self.view = view;
        h.set_view(view);
        self.last_heartbeat_ns = h.now().as_nanos();
        // Any in-flight state from the previous view is discarded: the
        // leader's, and the entries a follower holds uncommitted, whose
        // indices the new leader's own appends reuse. Committed entries are
        // already in the KV stores of a majority.
        self.pending.clear();
        self.discard_uncommitted(h);
        if self.is_leader() {
            // Failover adoption: in-flight transactions the crashed leader
            // prepared become real (locked) prepares on the new leader, so
            // the 2PC coordinator's commit/abort frames resolve them here.
            let _ = h.store().txn_adopt_replicated();
            let beat = RaftMsg::Heartbeat { view: self.view };
            h.broadcast(self.membership.members(), &beat.encoding());
            h.set_timer(HEARTBEAT_PERIOD_NS, TOKEN_HEARTBEAT);
        }
    }
}

impl CftProtocol for Raft {
    const PROTOCOL: Protocol = Protocol::Raft;
    const NAME: &'static str = "Raft";
    const STAMPING: Stamping = Stamping::Sequence;

    fn new(id: NodeId, membership: Membership) -> Self {
        assert!(
            membership.n() <= AckSet::CAPACITY,
            "a Raft group is at most {} replicas",
            AckSet::CAPACITY
        );
        Raft {
            id,
            membership,
            view: 0,
            next_index: 0,
            pending: ByIndex::default(),
            uncommitted: ByIndex::default(),
            last_heartbeat_ns: 0,
            voted: HashSet::new(),
            view_votes: HashMap::new(),
            append: Vec::new(),
        }
    }

    fn on_client_request(&mut self, request: ClientRequest, h: &mut Handle<'_>) {
        if !self.is_leader() {
            // The distributed data-store layer normally routes around this; drop.
            return;
        }
        match request.operation {
            Operation::Get { key } => {
                // Local read at the leader, guarded by `is_leader()` alone:
                // no lease, so a partitioned leader may read stale (module doc).
                h.reply_local_read(request.client_id, request.request_id, &key);
            }
            Operation::Put { key, value } => {
                let Some(own) = self.membership.position(self.id) else {
                    return;
                };
                let index = self.next_index;
                self.next_index += 1;
                self.append = RaftMsg::encode_append(
                    std::mem::take(&mut self.append),
                    self.view,
                    index,
                    &key,
                    &value,
                    request.client_id,
                    request.request_id,
                );
                let mut entry = PendingEntry {
                    key,
                    value,
                    client_id: request.client_id,
                    request_id: request.request_id,
                    append_acks: AckSet::default(),
                    commit_acks: AckSet::default(),
                    replicated: false,
                };
                entry.append_acks.insert(own);
                self.pending.insert(index, entry);
                h.broadcast(self.membership.members(), &self.append);
            }
        }
    }

    fn on_message(&mut self, from: NodeId, payload: &[u8], h: &mut Handle<'_>) {
        if let Some(msg) = RaftMsg::decode(payload) {
            self.handle_protocol_message(from, msg, h);
        }
    }

    fn on_timer(&mut self, token: u64, h: &mut Handle<'_>) {
        match token {
            0 => {
                // Initial kick from the simulator: start heartbeats / failure detection.
                self.last_heartbeat_ns = h.now().as_nanos();
                if self.is_leader() {
                    let beat = RaftMsg::Heartbeat { view: self.view };
                    h.broadcast(self.membership.members(), &beat.encoding());
                    h.set_timer(HEARTBEAT_PERIOD_NS, TOKEN_HEARTBEAT);
                }
                h.set_timer(ELECTION_TIMEOUT_NS, TOKEN_FAILURE_DETECTOR);
            }
            TOKEN_HEARTBEAT if self.is_leader() => {
                let beat = RaftMsg::Heartbeat { view: self.view };
                h.broadcast(self.membership.members(), &beat.encoding());
                h.set_timer(HEARTBEAT_PERIOD_NS, TOKEN_HEARTBEAT);
            }
            TOKEN_FAILURE_DETECTOR => {
                if !self.is_leader() {
                    let elapsed = h.now().as_nanos().saturating_sub(self.last_heartbeat_ns);
                    if elapsed > ELECTION_TIMEOUT_NS {
                        let new_view = self.view + 1;
                        if self.voted.insert(new_view) {
                            self.view_votes
                                .entry(new_view)
                                .or_default()
                                .insert(self.id.0);
                            let vote = RaftMsg::ViewChange { new_view };
                            h.broadcast(self.membership.members(), &vote.encoding());
                        }
                    }
                }
                h.set_timer(ELECTION_TIMEOUT_NS, TOKEN_FAILURE_DETECTOR);
            }
            _ => {}
        }
    }

    fn coordinates_writes(&self) -> bool {
        self.is_leader()
    }

    fn coordinates_reads(&self) -> bool {
        self.is_leader()
    }

    fn current_view(&self) -> u64 {
        self.view
    }

    fn on_restart(&mut self, view: u64, h: &mut Handle<'_>) {
        // Everything volatile died with the process: in-flight leader state
        // and election bookkeeping here, uncommitted follower entries once
        // the view is adopted.
        self.pending.clear();
        self.voted.clear();
        self.view_votes.clear();

        // Adopt the view the attestation service observed among live peers so
        // traffic from a deposed leader can never be accepted.
        self.view = view;
        h.set_view(view);
        self.discard_uncommitted(h);
        self.last_heartbeat_ns = h.now().as_nanos();

        if self.is_leader() {
            let beat = RaftMsg::Heartbeat { view: self.view };
            h.broadcast(self.membership.members(), &beat.encoding());
            h.set_timer(HEARTBEAT_PERIOD_NS, TOKEN_HEARTBEAT);
        }
        h.set_timer(ELECTION_TIMEOUT_NS, TOKEN_FAILURE_DETECTOR);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreReplica;
    use crate::{build_cluster, BatchConfig};
    use recipe_net::CrashPlan;
    use recipe_sim::{CostProfile, Replica, SimCluster, SimConfig};

    /// An answered entry is gone from the leader's replication state, so
    /// once every request of a run is answered nothing is left of it; the
    /// followers applied every entry and the leader never changed.
    #[test]
    fn answered_entries_leave_the_leaders_replication_state() {
        let replicas = build_cluster(3, 1, |id, m| RaftReplica::recipe(id, m, false));
        let config = SimConfig::uniform(3, CostProfile::recipe());
        let mut cluster = SimCluster::new(replicas, config);
        crate::tests::run_rounds(&mut cluster, 16, 12, |client, round| Operation::Put {
            key: format!("key-{}", (client * 7 + round) % 50).into_bytes(),
            value: vec![b'v'; 256],
        });
        assert_eq!(cluster.committed(), 192);
        let leader = cluster.replica(NodeId(0));
        assert!(leader.is_leader());
        assert!(leader.core().pending.is_empty());
        for id in 0..3 {
            assert_eq!(cluster.replica(NodeId(id)).committed_entries(), 192);
        }
    }

    /// Every frame of a fault-free group is built in a buffer the group's
    /// free list lends and gets back once the frame is delivered, and every
    /// read reply's value is copied into one that comes back once the reply
    /// is recorded: after the first rounds and a heartbeat have left a spare
    /// in every size class the run's frames and values fall in, unbatched
    /// and batched alike, the group allocates no frame buffer.
    #[test]
    fn a_warm_group_allocates_no_frame_buffers() {
        let put = |client: u64, round: u64| {
            let key = format!("key-{}", (client * 7 + round / 2) % 50).into_bytes();
            match round % 2 {
                0 => Operation::Get { key },
                _ => Operation::Put {
                    key,
                    value: vec![b'v'; 64],
                },
            }
        };
        for batch in [BatchConfig::unbatched(), BatchConfig::of_ops(4)] {
            let replicas = build_cluster(3, 1, |id, m| {
                RaftReplica::recipe(id, m, false).with_batching(batch)
            });
            let config = SimConfig::uniform(3, CostProfile::recipe());
            let mut cluster = SimCluster::new(replicas, config);
            crate::tests::run_rounds(&mut cluster, 8, 8, put);
            cluster.run_until(cluster.now_ns() + 2 * HEARTBEAT_PERIOD_NS);
            let warm = cluster.frame_pool().allocated();
            let takes = cluster.frame_pool().takes();
            assert!(warm > 0 && cluster.frame_pool().spares() > 0);

            crate::tests::step_rounds(&mut cluster, 8, 9..=40, put);
            cluster.run_until(cluster.now_ns() + 2 * HEARTBEAT_PERIOD_NS);
            assert_eq!(cluster.committed(), 8 * 40);
            assert_eq!(cluster.frame_pool().allocated(), warm, "{batch:?}");
            // The reads' values came from it: 16 rounds of 8 reads each.
            assert!(cluster.frame_pool().takes() >= takes + 16 * 8);
        }
    }

    /// The stack encoding is byte for byte what the wire `Writer` builds:
    /// tag, variant, little-endian fields in declaration order.
    #[test]
    fn fixed_size_messages_encode_on_the_stack_to_the_writers_bytes() {
        let extremes = [0, 1, 0x0102_0304_0506_0708, u64::MAX];
        for (view, index) in extremes.iter().flat_map(|&a| extremes.map(|b| (a, b))) {
            let fixed = [
                (1, RaftMsg::AppendAck { view, index }, vec![view, index]),
                (2, RaftMsg::Commit { view, index }, vec![view, index]),
                (3, RaftMsg::CommitAck { view, index }, vec![view, index]),
                (4, RaftMsg::Heartbeat { view }, vec![view]),
                (5, RaftMsg::ViewChange { new_view: view }, vec![view]),
            ];
            for (variant, msg, fields) in fixed {
                let mut w = Writer::tagged(tag::RAFT, FIXED_MAX);
                w.u8(variant);
                for field in fields {
                    w.u64(field);
                }
                let expected = w.finish();
                let encoding = msg.encoding();
                assert!(matches!(encoding, Encoding::Fixed { .. }), "{msg:?}");
                assert_eq!(*encoding, *expected, "{msg:?}");
                assert_eq!(msg.encode(), expected);
                assert_eq!(RaftMsg::decode(&expected), Some(msg));
            }
        }
    }

    /// An append decodes to slices of the bytes it arrived in, back to the
    /// message it was encoded from; every other variant round-trips too, and
    /// a message cut short or followed by a stray byte is refused.
    #[test]
    fn the_borrowed_decode_round_trips_every_variant_and_refuses_bad_lengths() {
        let value = [0xAB; 300];
        let append = RaftMsg::Append {
            view: 1,
            index: 2,
            key: b"key-7",
            value: &value,
            client_id: 3,
            request_id: 4,
        };
        assert!(matches!(append.encoding(), Encoding::Heap(_)));
        let bytes = append.encode();
        let decoded = RaftMsg::decode(&bytes);
        assert_eq!(decoded, Some(append));
        let Some(RaftMsg::Append { key, value, .. }) = decoded else {
            unreachable!()
        };
        let frame = bytes.as_ptr_range();
        assert!(frame.contains(&key.as_ptr()) && frame.contains(&value.as_ptr()));

        let (view, index) = (7, 9);
        let messages = [
            append,
            RaftMsg::AppendAck { view, index },
            RaftMsg::Commit { view, index },
            RaftMsg::CommitAck { view, index },
            RaftMsg::Heartbeat { view },
            RaftMsg::ViewChange { new_view: view },
        ];
        for msg in messages {
            let mut bytes = msg.encode();
            assert_eq!(RaftMsg::decode(&bytes), Some(msg));
            for len in 0..bytes.len() {
                assert_eq!(RaftMsg::decode(&bytes[..len]), None, "{msg:?} cut to {len}");
            }
            bytes.push(0);
            assert_eq!(RaftMsg::decode(&bytes), None, "{msg:?} and a stray byte");
        }
    }

    /// A follower copies each append into spares its store lends, and each
    /// commit gives back the buffer the write displaced and the key: once
    /// every key of a fixed set has been written, a group overwriting them
    /// allocates no entry buffer, unbatched and batched alike, and every
    /// replica holds the same records.
    #[test]
    fn a_warm_group_allocates_no_entry_buffers() {
        let put = |client: u64, round: u64| Operation::Put {
            key: format!("key-{}", (client * 7 + round) % 50).into_bytes(),
            value: format!("{client:>4}:{round:<59}").into_bytes(),
        };
        let allocated = |cluster: &mut SimCluster<RaftReplica>| {
            (0..3)
                .map(|id| {
                    let replica = cluster.replica_mut(NodeId(id));
                    replica.store().entry_pool().allocated()
                })
                .collect::<Vec<_>>()
        };
        for batch in [BatchConfig::unbatched(), BatchConfig::of_ops(4)] {
            let replicas = build_cluster(3, 1, |id, m| {
                RaftReplica::recipe(id, m, false).with_batching(batch)
            });
            let config = SimConfig::uniform(3, CostProfile::recipe());
            let mut cluster = SimCluster::new(replicas, config);
            // Rounds 1–8 write every key of the set.
            crate::tests::run_rounds(&mut cluster, 8, 8, put);
            let warm = allocated(&mut cluster);
            assert_eq!(warm[0], 0, "a leader copies no entry");
            assert!(warm[1] > 0 && warm[2] > 0);

            crate::tests::step_rounds(&mut cluster, 8, 9..=40, put);
            cluster.run_until(cluster.now_ns() + 2 * HEARTBEAT_PERIOD_NS);
            assert_eq!(cluster.committed(), 8 * 40);
            assert_eq!(allocated(&mut cluster), warm, "{batch:?}");

            let records = |replica: &mut RaftReplica| {
                assert_eq!(replica.committed_entries(), 8 * 40);
                let entries = replica.store().export_range(&|_| true).unwrap();
                let records = entries.into_iter().map(|e| (e.key, e.value, e.ts_logical));
                records.collect::<Vec<_>>()
            };
            let leader = records(cluster.replica_mut(NodeId(0)));
            assert_eq!(leader.len(), 50);
            for id in 1..3 {
                assert_eq!(records(cluster.replica_mut(NodeId(id))), leader);
            }
        }
    }

    /// A follower drops the entries it holds uncommitted when it moves to a
    /// higher view, leader or not: the new leader's appends restart at index
    /// 0, and a commit for one of them must never apply a deposed leader's
    /// entry.
    #[test]
    fn a_follower_that_installs_a_higher_view_holds_no_uncommitted_entries() {
        const CRASH_NS: u64 = 20_000_000;
        let replicas = build_cluster(3, 1, |id, m| RaftReplica::recipe(id, m, false));
        let mut config = SimConfig::uniform(3, CostProfile::recipe());
        config.crash_plan = CrashPlan::none().crash(NodeId(0), CRASH_NS);
        let mut cluster = SimCluster::new(replicas, config);
        cluster.seed_initial_events();
        // A write every 2 µs up to the crash: some are appended on the
        // followers and never committed.
        for (request, at) in (CRASH_NS - 400_000..CRASH_NS).step_by(2_000).enumerate() {
            let op = Operation::Put {
                key: format!("key-{}", request % 20).into_bytes(),
                value: vec![b'v'; 64],
            };
            assert!(cluster.submit_at(at, request as u64, 1, op));
        }
        cluster.run_until(CRASH_NS);
        let held = |cluster: &SimCluster<RaftReplica>, id| {
            cluster.replica(NodeId(id)).core().uncommitted.len()
        };
        assert!(held(&cluster, 1) > 0 && held(&cluster, 2) > 0);

        cluster.run_until(CRASH_NS + 200_000_000);
        for id in 1..3 {
            let replica = cluster.replica(NodeId(id));
            assert!(
                replica.view() >= 1,
                "node {id} is in view {}",
                replica.view()
            );
            assert_eq!(held(&cluster, id), 0, "node {id}");
        }
        // The new leader dropped its spares and copies no entry: writes
        // through it take nothing from its entry list and leave no spare in
        // it.
        let entries = |cluster: &mut SimCluster<RaftReplica>| {
            let leader = cluster.replica_mut(NodeId(1));
            assert!(leader.is_leader());
            let pool = leader.store().entry_pool();
            (pool.takes(), pool.spares())
        };
        let (takes, spares) = entries(&mut cluster);
        assert!(takes > 0 && spares == 0, "a follower took {takes}");
        let at = cluster.now_ns();
        for request in 0..20 {
            let op = Operation::Put {
                key: format!("key-{request}").into_bytes(),
                value: vec![b'w'; 64],
            };
            assert!(cluster.submit_at(at + request * 2_000, 200 + request, 1, op));
        }
        let committed = cluster.committed();
        cluster.run_until(at + 50_000_000);
        assert_eq!(cluster.committed(), committed + 20);
        assert_eq!(entries(&mut cluster), (takes, 0));
    }

    #[test]
    fn native_and_recipe_variants_report_their_names() {
        let m = Membership::of_size(3, 1);
        let recipe = RaftReplica::recipe(0, m.clone(), false);
        let native = RaftReplica::native(0, m);
        assert_eq!(recipe.protocol_name(), "R-Raft");
        assert_eq!(native.protocol_name(), "Raft");
    }
}
