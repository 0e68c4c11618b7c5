//! PBFT baseline (the protocol behind BFT-Smart).
//!
//! Classical three-phase BFT: the primary assigns a sequence number and broadcasts a
//! pre-prepare; every backup broadcasts a prepare (the primary's pre-prepare
//! stands for its own); once a replica has collected `2f` matching prepares it
//! broadcasts a commit; once it has `2f + 1` matching commits it executes the
//! request and replies to the client. Reads go through the same agreement path
//! (BFT clients cannot trust a single replica's answer), which is why PBFT gains
//! so little from read-heavy workloads in Figure 4. `Protocol::Pbft`'s contract
//! (`recipe_protocols::Contract`) counts the frames a request costs, and
//! `tests/protocol_agreement.rs` checks the count.
//!
//! The implementation is deliberately unoptimized in the same ways the paper's
//! baseline is: signature-based message authentication (captured by the cost
//! profile) and `3f + 1 = 4` replicas for `f = 1`. It batches what the
//! deployment's batch config asks for (`StoreReplica::build`), and nothing by
//! default, preserving the baseline: a batch frame coalesces several PBFT
//! messages to one destination into one wire message (BFT-Smart style request
//! batching), without touching the three-phase protocol logic.

use std::collections::{HashMap, HashSet};

use recipe_core::wire::{bytes_len, tag, Reader, Writer};
use recipe_core::{BatchFrame, ClientReply, ClientRequest, Membership, Operation};
use recipe_kv::StoreConfig;
use recipe_net::NodeId;
use recipe_protocols::{
    BatchConfig, Batcher, Framing, Protocol, ProtocolMode, ReplicaStore, Stamping, StoreReplica,
};
use recipe_sim::{Ctx, Replica, RestartReport};

/// Timer token: flush partially-filled batches (time-budget trigger).
const TOKEN_BATCH_FLUSH: u64 = 1;

/// PBFT protocol messages.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum PbftMsg {
    /// Primary → replicas: order `request` at `(view, seq)`.
    PrePrepare {
        view: u64,
        seq: u64,
        request: ClientRequest,
    },
    /// Replica → all: `replica` accepts `digest` at `(view, seq)`.
    Prepare {
        view: u64,
        seq: u64,
        digest: u64,
        replica: u64,
    },
    /// Replica → all: `replica` saw a prepare quorum for `digest`.
    Commit {
        view: u64,
        seq: u64,
        digest: u64,
        replica: u64,
    },
}

impl PbftMsg {
    /// Wire form: `tag | variant | view | seq |` then the request
    /// ([`ClientRequest::write`]) or `digest | replica`.
    pub fn encode(&self) -> Vec<u8> {
        let rest_len = match self {
            PbftMsg::PrePrepare { request, .. } => request.wire_len(),
            PbftMsg::Prepare { .. } | PbftMsg::Commit { .. } => 2 * 8,
        };
        let mut w = Writer::tagged(tag::PBFT, 2 + 2 * 8 + rest_len);
        match self {
            PbftMsg::PrePrepare { view, seq, request } => {
                w.u8(0).u64(*view).u64(*seq);
                request.write(&mut w);
            }
            PbftMsg::Prepare {
                view,
                seq,
                digest,
                replica,
            } => {
                w.u8(1).u64(*view).u64(*seq).u64(*digest).u64(*replica);
            }
            PbftMsg::Commit {
                view,
                seq,
                digest,
                replica,
            } => {
                w.u8(2).u64(*view).u64(*seq).u64(*digest).u64(*replica);
            }
        }
        w.finish()
    }

    /// Parses a message; `None` on anything but one well-formed encoding.
    pub fn decode(bytes: &[u8]) -> Option<PbftMsg> {
        let mut r = Reader::tagged(bytes, tag::PBFT)?;
        let variant = r.u8()?;
        let (view, seq) = (r.u64()?, r.u64()?);
        let msg = match variant {
            0 => PbftMsg::PrePrepare {
                view,
                seq,
                request: ClientRequest::read(&mut r)?,
            },
            1 => PbftMsg::Prepare {
                view,
                seq,
                digest: r.u64()?,
                replica: r.u64()?,
            },
            2 => PbftMsg::Commit {
                view,
                seq,
                digest: r.u64()?,
                replica: r.u64()?,
            },
            _ => return None,
        };
        r.finish()?;
        Some(msg)
    }
}

/// Encodes a coalesced frame of encoded [`PbftMsg`]s (the native-wire
/// counterpart of the Recipe protocols' batch frames):
/// `tag | count u32 | (len u32, msg)*`.
pub fn encode_batch<M: AsRef<[u8]>>(msgs: &[M]) -> Vec<u8> {
    let msgs_len = msgs.iter().map(|m| m.as_ref().len()).sum();
    let mut w = Writer::tagged(
        tag::PBFT_BATCH,
        Framing::bare_batch_len(msgs.len(), msgs_len),
    );
    w.count(msgs.len());
    for msg in msgs {
        w.bytes(msg.as_ref());
    }
    w.finish()
}

/// Decodes a frame written by [`encode_batch`] into its messages; a message
/// that does not parse fails the whole frame.
pub fn decode_batch(bytes: &[u8]) -> Option<Vec<PbftMsg>> {
    let mut r = Reader::tagged(bytes, tag::PBFT_BATCH)?;
    let msgs = r.seq(bytes_len(0), |r| PbftMsg::decode(r.bytes()?))?;
    r.finish()?;
    Some(msgs)
}

#[derive(Debug, Default)]
struct SlotState {
    request: Option<ClientRequest>,
    digest: u64,
    prepares: HashSet<u64>,
    commits: HashSet<u64>,
    prepared: bool,
    executed: bool,
}

/// A PBFT replica.
pub struct PbftReplica {
    id: NodeId,
    membership: Membership,
    /// The KV store and the count of operations executed on it, reads
    /// included.
    store: ReplicaStore,
    view: u64,
    next_seq: u64,
    /// Agreement slots of the current view by sequence number, from
    /// `low_water` up: sequence numbers are scoped to the view that assigned
    /// them, and a view's slots go with it.
    slots: HashMap<u64, SlotState>,
    /// Every sequence number of the current view below this one has
    /// executed: its slot is gone, and a late message for it is ignored
    /// rather than allowed to re-create it.
    low_water: u64,
    /// Members the trusted configuration service reported down (sorted). Used
    /// to advance past crashed primaries deterministically.
    down: Vec<NodeId>,
    /// Outgoing-message batcher: the deployment's batch config, unbatched by
    /// default, preserving the paper's baseline.
    batcher: Batcher,
}

impl PbftReplica {
    /// Builds a replica. PBFT needs `3f + 1` replicas; use
    /// [`Membership::of_size`]`(3 * f + 1, f)`.
    pub(crate) fn new(id: u64, membership: Membership) -> Self {
        let id = NodeId(id);
        PbftReplica {
            id,
            membership,
            store: ReplicaStore::new(StoreConfig::default(), id, Stamping::Sequence),
            view: 0,
            next_seq: 0,
            slots: HashMap::new(),
            low_water: 0,
            down: Vec::new(),
            batcher: Batcher::new(BatchConfig::unbatched()),
        }
    }

    /// Enables request batching: outgoing PBFT messages accumulate per
    /// destination and drain as one `PbftBatch` frame per flush.
    pub(crate) fn with_batching(mut self, config: BatchConfig) -> Self {
        self.batcher = Batcher::new(config);
        self
    }

    /// The number of faults this membership tolerates under PBFT's `n ≥ 3f + 1`.
    pub(crate) fn fault_tolerance(&self) -> usize {
        (self.membership.n().saturating_sub(1)) / 3
    }

    /// True if this replica is the current primary.
    pub(crate) fn is_primary(&self) -> bool {
        self.membership.leader_for_view(self.view) == self.id
    }

    fn quorum_2f(&self) -> usize {
        2 * self.fault_tolerance()
    }

    fn quorum_2f1(&self) -> usize {
        2 * self.fault_tolerance() + 1
    }

    fn digest(request: &ClientRequest) -> u64 {
        // A cheap stand-in for the request digest; the signature cost is accounted
        // by the cost profile, not recomputed here.
        let bytes = request.to_bytes();
        bytes.iter().fold(1469598103934665603u64, |h, b| {
            (h ^ *b as u64).wrapping_mul(1099511628211)
        })
    }

    fn send(&mut self, ctx: &mut Ctx, dst: NodeId, payload: Vec<u8>) {
        if !self.batcher.is_batching() {
            ctx.send(dst, payload);
            return;
        }
        self.batcher
            .enqueue(ctx, TOKEN_BATCH_FLUSH, dst, 0, &payload, Self::send_frame);
    }

    /// Sends the `count` messages a flush drained, queued in the shared
    /// batch body format, as one [`encode_batch`] frame.
    fn send_frame(ctx: &mut Ctx, dst: NodeId, count: u32, body: &[u8]) {
        let msgs = BatchFrame::read_ops_with(&mut Reader::new(body), |_kind, msg| msg);
        ctx.send_batch(dst, encode_batch(&msgs.unwrap_or_default()), count);
    }

    /// Encodes `msg` once and sends a copy to every peer.
    fn broadcast(&mut self, ctx: &mut Ctx, msg: &PbftMsg) {
        let payload = msg.encode();
        for peer in self.membership.peers_of(self.id) {
            self.send(ctx, peer, payload.clone());
        }
    }

    /// Installs a later view: the round-robin primary for `view` takes over.
    /// This is the deterministic stand-in for PBFT's view-change protocol —
    /// every replica receives the same failure notice from the trusted
    /// configuration service and jumps to the same view, and requests that
    /// were in flight under the old primary are re-proposed by the client
    /// retransmission rather than by a new-view certificate.
    fn install_view(&mut self, view: u64) {
        if view <= self.view {
            return;
        }
        self.view = view;
        self.next_seq = 0;
        self.slots.clear();
        self.low_water = 0;
    }

    /// The smallest view `> self.view` whose round-robin primary is live.
    fn next_live_view(&self) -> u64 {
        let mut view = self.view + 1;
        while self.down.contains(&self.membership.leader_for_view(view)) {
            view += 1;
        }
        view
    }

    fn try_execute(&mut self, seq: u64, ctx: &mut Ctx) {
        let quorum = self.quorum_2f1();
        let Some(slot) = self.slots.get_mut(&seq) else {
            return;
        };
        if slot.executed || !slot.prepared || slot.commits.len() < quorum {
            return;
        }
        let Some(request) = slot.request.take() else {
            return;
        };
        slot.executed = true;
        // Slots execute as their quorums complete, in any order; the mark
        // moves over every executed slot that has none pending below it.
        while self.slots.get(&self.low_water).is_some_and(|s| s.executed) {
            self.slots.remove(&self.low_water);
            self.low_water += 1;
        }
        let reply = match request.operation {
            Operation::Put { key, value } => {
                self.store.apply(&key, value);
                ClientReply {
                    client_id: request.client_id,
                    request_id: request.request_id,
                    value: None,
                    found: false,
                    replier: self.id.0,
                }
            }
            Operation::Get { ref key } => {
                self.store.advance();
                let value = self.store.read_pooled(key, ctx.frames());
                ClientReply {
                    client_id: request.client_id,
                    request_id: request.request_id,
                    found: value.is_some(),
                    value: value.map(|(value, _)| value),
                    replier: self.id.0,
                }
            }
        };
        // Every replica replies; the client accepts the first f+1 matching answers
        // (the simulator records the first).
        ctx.reply(reply);
    }

    /// True for a message of another view, or of a slot under the low-water
    /// mark: neither has a slot to count on.
    fn is_stale(&self, view: u64, seq: u64) -> bool {
        view != self.view || seq < self.low_water
    }

    fn handle(&mut self, msg: PbftMsg, ctx: &mut Ctx) {
        match msg {
            PbftMsg::PrePrepare { view, seq, request } => {
                if self.is_stale(view, seq) {
                    return;
                }
                let digest = Self::digest(&request);
                let slot = self.slots.entry(seq).or_default();
                if slot.request.is_none() {
                    slot.request = Some(request);
                    slot.digest = digest;
                }
                // Accept and broadcast our prepare.
                let prepare = PbftMsg::Prepare {
                    view,
                    seq,
                    digest,
                    replica: self.id.0,
                };
                slot.prepares.insert(self.id.0);
                self.broadcast(ctx, &prepare);
                self.after_prepare(seq, ctx);
            }
            PbftMsg::Prepare {
                view,
                seq,
                digest,
                replica,
            } => {
                if self.is_stale(view, seq) {
                    return;
                }
                let slot = self.slots.entry(seq).or_default();
                if slot.request.is_some() && slot.digest != digest {
                    return; // conflicting digest: ignore (handled by view change)
                }
                slot.prepares.insert(replica);
                self.after_prepare(seq, ctx);
            }
            PbftMsg::Commit {
                view,
                seq,
                digest,
                replica,
            } => {
                if self.is_stale(view, seq) {
                    return;
                }
                let slot = self.slots.entry(seq).or_default();
                if slot.request.is_some() && slot.digest != digest {
                    return;
                }
                slot.commits.insert(replica);
                self.try_execute(seq, ctx);
            }
        }
    }

    fn after_prepare(&mut self, seq: u64, ctx: &mut Ctx) {
        let needed = self.quorum_2f();
        let (ready, digest) = match self.slots.get_mut(&seq) {
            Some(slot)
                if !slot.prepared && slot.request.is_some() && slot.prepares.len() >= needed =>
            {
                slot.prepared = true;
                slot.commits.insert(self.id.0);
                (true, slot.digest)
            }
            _ => (false, 0),
        };
        if ready {
            let commit = PbftMsg::Commit {
                view: self.view,
                seq,
                digest,
                replica: self.id.0,
            };
            self.broadcast(ctx, &commit);
            self.try_execute(seq, ctx);
        }
    }
}

impl Replica for PbftReplica {
    fn id(&self) -> NodeId {
        self.id
    }

    fn on_client_request(&mut self, request: ClientRequest, ctx: &mut Ctx) {
        if !self.is_primary() {
            return;
        }
        if self.store.is_locked(request.operation.key()) {
            // An in-flight transaction prepared on this primary holds the key
            // (2PL isolation): defer by dropping — the client's
            // retransmission resubmits after the transaction resolved.
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let digest = Self::digest(&request);
        let slot = self.slots.entry(seq).or_default();
        slot.request = Some(request.clone());
        slot.digest = digest;
        slot.prepares.insert(self.id.0);
        let preprepare = PbftMsg::PrePrepare {
            view: self.view,
            seq,
            request,
        };
        self.broadcast(ctx, &preprepare);
    }

    fn on_message(&mut self, _from: NodeId, bytes: &[u8], ctx: &mut Ctx) {
        match bytes.first() {
            Some(&tag::PBFT) => {
                if let Some(msg) = PbftMsg::decode(bytes) {
                    self.handle(msg, ctx);
                }
            }
            Some(&tag::PBFT_BATCH) => {
                for msg in decode_batch(bytes).unwrap_or_default() {
                    self.handle(msg, ctx);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
        if token == TOKEN_BATCH_FLUSH {
            self.batcher.flush_timer(ctx, Self::send_frame);
        }
    }

    fn coordinates_writes(&self) -> bool {
        self.is_primary()
    }

    fn coordinates_reads(&self) -> bool {
        // Reads also go through the primary-driven agreement path.
        self.is_primary()
    }

    fn protocol_name(&self) -> &'static str {
        "PBFT"
    }

    fn current_view(&self) -> u64 {
        self.view
    }

    fn on_restart(&mut self, view: u64, _ctx: &mut Ctx) -> RestartReport {
        self.slots.clear();
        self.low_water = 0;
        self.down.clear();
        self.next_seq = 0;
        self.batcher = Batcher::new(*self.batcher.config());
        self.view = self.view.max(view);
        self.store.restart()
    }

    fn on_peer_down(&mut self, peer: NodeId, _ctx: &mut Ctx) {
        if let Err(idx) = self.down.binary_search(&peer) {
            self.down.insert(idx, peer);
        }
        // If the crashed peer was the current primary, every survivor jumps
        // to the next view with a live primary.
        if self.membership.leader_for_view(self.view) == peer {
            let next = self.next_live_view();
            self.install_view(next);
            if self.is_primary() {
                // Adopt prepare records replicated from the crashed primary
                // so in-flight transactions resolve on the new one.
                let _ = self.store.txn_adopt_replicated();
            }
        }
    }

    fn on_peer_up(&mut self, peer: NodeId, _ctx: &mut Ctx) {
        if let Ok(idx) = self.down.binary_search(&peer) {
            self.down.remove(idx);
        }
    }
}

impl StoreReplica for PbftReplica {
    const PROTOCOL: Protocol = Protocol::Pbft;

    fn build(id: u64, membership: Membership, _mode: ProtocolMode, batch: BatchConfig) -> Self {
        PbftReplica::new(id, membership).with_batching(batch)
    }

    fn store(&mut self) -> &mut ReplicaStore {
        &mut self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recipe_sim::{CostProfile, SimCluster, SimConfig, StepOutcome};

    /// The contract's message and frame lengths are this encoder's: a
    /// pre-prepare carries the client's request, a prepare and a commit
    /// are control messages, and a batch is a bare batch frame.
    #[test]
    fn messages_have_the_lengths_the_contract_states() {
        let wire = Protocol::Pbft.contract().wire;
        let (view, seq, digest, replica) = (1, 2, 3, 4);
        for (operation, read) in [
            (
                Operation::Get {
                    key: b"key-7".to_vec(),
                },
                true,
            ),
            (
                Operation::Put {
                    key: b"key-7".to_vec(),
                    value: vec![7; 64],
                },
                false,
            ),
        ] {
            let request = ClientRequest {
                client_id: 5,
                request_id: 6,
                operation,
                signature: None,
            };
            let pre_prepare = PbftMsg::PrePrepare { view, seq, request };
            let carrier = wire.carrier_len(5, 64, read);
            assert_eq!(pre_prepare.encode().len(), carrier, "{pre_prepare:?}");
        }
        let controls = [
            PbftMsg::Prepare {
                view,
                seq,
                digest,
                replica,
            },
            PbftMsg::Commit {
                view,
                seq,
                digest,
                replica,
            },
        ];
        let encoded = controls.map(|control| control.encode());
        for control in &encoded {
            assert_eq!(control.len(), wire.control_len());
        }
        let batch_len = Framing::bare_batch_len(2, 2 * wire.control_len());
        assert_eq!(encode_batch(&encoded).len(), batch_len);
    }

    #[test]
    fn four_replicas_tolerate_one_fault() {
        let membership = Membership::of_size(4, 1);
        let replica = PbftReplica::new(0, membership);
        assert_eq!(replica.fault_tolerance(), 1);
        assert!(replica.is_primary());
        assert_eq!(replica.protocol_name(), "PBFT");
    }

    /// PBFT sends `Vec`s of its own, not frames built in spares of the
    /// group's free list: the group delivers and drops them, and its free
    /// list, which takes back no more buffers than it lent, stays empty.
    #[test]
    fn frames_of_its_own_leave_the_groups_free_list_empty() {
        for batch in [BatchConfig::unbatched(), BatchConfig::of_ops(4)] {
            let membership = Membership::of_size(4, 1);
            let replicas = (0..4)
                .map(|id| PbftReplica::new(id, membership.clone()).with_batching(batch))
                .collect();
            let config = SimConfig::uniform(4, CostProfile::pbft_baseline());
            let mut cluster = SimCluster::new(replicas, config);
            cluster.seed_initial_events();
            for client in 0..8 {
                let put = Operation::Put {
                    key: format!("key-{client}").into_bytes(),
                    value: vec![b'p'; 64],
                };
                assert!(cluster.submit_at(0, client, 1, put));
            }
            cluster.run_until(50_000_000);
            assert_eq!(cluster.drain_completions().len(), 8, "{batch:?}");
            assert!(cluster.books().iter().any(|node| node.frames_received > 0));
            let pool = cluster.frame_pool();
            assert_eq!((pool.spares(), pool.allocated()), (0, 0), "{batch:?}");
        }
    }

    /// An executed slot is dropped behind the low-water mark, so once every
    /// request of a run is answered and the last commits have landed, no
    /// replica keeps a slot of it. Sixteen clients issue one request per
    /// round, and a round ends when all sixteen are answered.
    #[test]
    fn executed_slots_are_dropped_behind_the_low_water_mark() {
        const CLIENTS: u64 = 16;
        const ROUNDS: u64 = 12;
        let membership = Membership::of_size(4, 1);
        let replicas = (0..4)
            .map(|id| PbftReplica::new(id, membership.clone()))
            .collect();
        let config = SimConfig::uniform(4, CostProfile::pbft_baseline());
        let mut cluster = SimCluster::new(replicas, config);
        cluster.seed_initial_events();
        for round in 1..=ROUNDS {
            for client in 0..CLIENTS {
                let key = format!("key-{}", (client + round) % 30).into_bytes();
                let put = Operation::Put {
                    key,
                    value: vec![b'p'; 256],
                };
                assert!(cluster.submit_at(cluster.now_ns(), client, round, put));
            }
            let mut answered = 0;
            while answered < CLIENTS {
                assert_eq!(cluster.step(), StepOutcome::Processed);
                answered += cluster.drain_completions().len() as u64;
            }
        }
        cluster.run_until(cluster.now_ns() + 3_000_000);
        for id in 0..4 {
            let replica = cluster.replica(NodeId(id));
            assert_eq!(replica.low_water, CLIENTS * ROUNDS, "replica {id}");
            assert!(replica.slots.is_empty(), "replica {id}");
        }
    }
}
