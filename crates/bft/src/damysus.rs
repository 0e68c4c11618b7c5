//! Damysus baseline: a TEE-assisted streamlined BFT protocol (HotStuff derivative).
//!
//! Damysus uses two trusted components (CHECKER and ACCUMULATOR) inside each
//! replica's enclave to prevent equivocation, which lets it run with `2f + 1`
//! replicas and removes one phase from basic HotStuff. We model its steady-state
//! data path: the leader proposes, replicas vote to the leader (phase 1,
//! accumulator), the leader broadcasts a prepare certificate, replicas vote again
//! (phase 2, checker) and the leader broadcasts the decision, at which point every
//! replica executes and replies. Compared with R-Raft this is one extra round trip
//! through the leader per decision plus the kernel-socket stack (Table 2), which is
//! where the paper's 1.1×–5.9× gap comes from. `Protocol::Damysus`'s contract
//! (`recipe_protocols::Contract`) states the frames a decision costs and that the
//! baseline runs unbatched, with the source of each; `tests/protocol_agreement.rs`
//! checks them.

use std::collections::{HashMap, HashSet};

use recipe_core::wire::{tag, Reader, Writer};
use recipe_core::{ClientReply, ClientRequest, Membership, Operation};
use recipe_kv::StoreConfig;
use recipe_net::NodeId;
use recipe_protocols::{
    BatchConfig, BuildReplica, Protocol, ProtocolMode, ReplicaStore, Stamping, StoreReplica,
};
use recipe_sim::{Ctx, Replica};

/// Damysus protocol messages.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum DamysusMsg {
    /// Leader → replicas: proposal for a slot.
    Propose { slot: u64, request: ClientRequest },
    /// Replica → leader: phase-1 vote (accumulated into a prepare certificate).
    PrepareVote { slot: u64, replica: u64 },
    /// Leader → replicas: prepare certificate formed; enter phase 2.
    PreCommit { slot: u64 },
    /// Replica → leader: phase-2 vote (checked by the trusted CHECKER).
    CommitVote { slot: u64, replica: u64 },
    /// Leader → replicas: decision; execute the slot.
    Decide { slot: u64 },
}

impl DamysusMsg {
    /// Wire form: `tag | variant | slot |` then the request
    /// ([`ClientRequest::write`]), the voting replica, or nothing.
    pub fn encode(&self) -> Vec<u8> {
        let rest_len = match self {
            DamysusMsg::Propose { request, .. } => request.wire_len(),
            _ => 8,
        };
        let mut w = Writer::tagged(tag::DAMYSUS, 2 + 8 + rest_len);
        match self {
            DamysusMsg::Propose { slot, request } => {
                w.u8(0).u64(*slot);
                request.write(&mut w);
            }
            DamysusMsg::PrepareVote { slot, replica } => {
                w.u8(1).u64(*slot).u64(*replica);
            }
            DamysusMsg::PreCommit { slot } => {
                w.u8(2).u64(*slot);
            }
            DamysusMsg::CommitVote { slot, replica } => {
                w.u8(3).u64(*slot).u64(*replica);
            }
            DamysusMsg::Decide { slot } => {
                w.u8(4).u64(*slot);
            }
        }
        w.finish()
    }

    /// Parses a message; `None` on anything but one well-formed encoding.
    pub fn decode(bytes: &[u8]) -> Option<DamysusMsg> {
        let mut r = Reader::tagged(bytes, tag::DAMYSUS)?;
        let variant = r.u8()?;
        let slot = r.u64()?;
        let msg = match variant {
            0 => DamysusMsg::Propose {
                slot,
                request: ClientRequest::read(&mut r)?,
            },
            1 => DamysusMsg::PrepareVote {
                slot,
                replica: r.u64()?,
            },
            2 => DamysusMsg::PreCommit { slot },
            3 => DamysusMsg::CommitVote {
                slot,
                replica: r.u64()?,
            },
            4 => DamysusMsg::Decide { slot },
            _ => return None,
        };
        r.finish()?;
        Some(msg)
    }
}

#[derive(Debug, Default)]
struct SlotState {
    request: Option<ClientRequest>,
    prepare_votes: HashSet<u64>,
    commit_votes: HashSet<u64>,
    precommitted: bool,
    decided: bool,
}

/// A Damysus replica.
pub(crate) struct DamysusReplica {
    id: NodeId,
    membership: Membership,
    /// The KV store and the count of operations executed on it, reads
    /// included.
    store: ReplicaStore,
    view: u64,
    next_slot: u64,
    slots: HashMap<u64, SlotState>,
}

impl DamysusReplica {
    /// Builds a replica. Damysus needs `2f + 1` replicas.
    pub(crate) fn new(id: u64, membership: Membership) -> Self {
        let id = NodeId(id);
        DamysusReplica {
            id,
            membership,
            store: ReplicaStore::new(StoreConfig::default(), id, Stamping::Sequence),
            view: 0,
            next_slot: 0,
            slots: HashMap::new(),
        }
    }

    /// True if this replica currently leads.
    pub(crate) fn is_leader(&self) -> bool {
        self.membership.leader_for_view(self.view) == self.id
    }

    fn quorum(&self) -> usize {
        self.membership.quorum()
    }

    fn send(&self, ctx: &mut Ctx, dst: NodeId, msg: &DamysusMsg) {
        ctx.send(dst, msg.encode());
    }

    fn broadcast(&self, ctx: &mut Ctx, msg: &DamysusMsg) {
        ctx.broadcast(&self.membership.peers_of(self.id), msg.encode());
    }

    fn execute(&mut self, slot: u64, ctx: &mut Ctx) {
        let Some(state) = self.slots.get_mut(&slot) else {
            return;
        };
        if state.decided {
            return;
        }
        let Some(request) = state.request.clone() else {
            return;
        };
        state.decided = true;
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
        ctx.reply(reply);
    }

    fn handle(&mut self, from: NodeId, msg: DamysusMsg, ctx: &mut Ctx) {
        let _ = from;
        match msg {
            DamysusMsg::Propose { slot, request } => {
                if self.is_leader() {
                    return;
                }
                let state = self.slots.entry(slot).or_default();
                state.request = Some(request);
                let leader = self.membership.leader_for_view(self.view);
                let vote = DamysusMsg::PrepareVote {
                    slot,
                    replica: self.id.0,
                };
                self.send(ctx, leader, &vote);
            }
            DamysusMsg::PrepareVote { slot, replica } => {
                if !self.is_leader() {
                    return;
                }
                let quorum = self.quorum();
                let state = self.slots.entry(slot).or_default();
                state.prepare_votes.insert(replica);
                if !state.precommitted && state.prepare_votes.len() >= quorum {
                    state.precommitted = true;
                    state.commit_votes.insert(self.id.0);
                    let precommit = DamysusMsg::PreCommit { slot };
                    self.broadcast(ctx, &precommit);
                }
            }
            DamysusMsg::PreCommit { slot } => {
                if self.is_leader() {
                    return;
                }
                let leader = self.membership.leader_for_view(self.view);
                let vote = DamysusMsg::CommitVote {
                    slot,
                    replica: self.id.0,
                };
                self.send(ctx, leader, &vote);
            }
            DamysusMsg::CommitVote { slot, replica } => {
                if !self.is_leader() {
                    return;
                }
                let quorum = self.quorum();
                let decided = {
                    let state = self.slots.entry(slot).or_default();
                    state.commit_votes.insert(replica);
                    !state.decided && state.commit_votes.len() >= quorum
                };
                if decided {
                    let decide = DamysusMsg::Decide { slot };
                    self.broadcast(ctx, &decide);
                    self.execute(slot, ctx);
                }
            }
            DamysusMsg::Decide { slot } => {
                if !self.is_leader() {
                    self.execute(slot, ctx);
                }
            }
        }
    }
}

impl Replica for DamysusReplica {
    fn id(&self) -> NodeId {
        self.id
    }

    fn on_client_request(&mut self, request: ClientRequest, ctx: &mut Ctx) {
        if !self.is_leader() {
            return;
        }
        let slot = self.next_slot;
        self.next_slot += 1;
        let state = self.slots.entry(slot).or_default();
        state.request = Some(request.clone());
        state.prepare_votes.insert(self.id.0);
        let propose = DamysusMsg::Propose { slot, request };
        self.broadcast(ctx, &propose);
    }

    fn on_message(&mut self, from: NodeId, bytes: &[u8], ctx: &mut Ctx) {
        if let Some(msg) = DamysusMsg::decode(bytes) {
            self.handle(from, msg, ctx);
        }
    }

    fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx) {}

    fn coordinates_writes(&self) -> bool {
        self.is_leader()
    }

    fn coordinates_reads(&self) -> bool {
        self.is_leader()
    }

    fn protocol_name(&self) -> &'static str {
        "Damysus"
    }
}

impl StoreReplica for DamysusReplica {
    const PROTOCOL: Protocol = Protocol::Damysus;

    fn store(&mut self) -> &mut ReplicaStore {
        &mut self.store
    }
}

impl BuildReplica for DamysusReplica {
    fn build(id: u64, membership: Membership, _mode: ProtocolMode, _batch: BatchConfig) -> Self {
        DamysusReplica::new(id, membership)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The contract's message lengths are this encoder's, as a bound where
    /// a message is shorter: a proposal carries the client's request, a
    /// vote is the longest control message.
    #[test]
    fn messages_have_at_most_the_lengths_the_contract_states() {
        let wire = Protocol::Damysus.contract().wire;
        let request = ClientRequest {
            client_id: 1,
            request_id: 2,
            operation: Operation::Put {
                key: b"key-7".to_vec(),
                value: vec![7; 64],
            },
            signature: None,
        };
        let propose = DamysusMsg::Propose { slot: 3, request };
        assert_eq!(propose.encode().len(), wire.carrier_len(5, 64, false));
        let (slot, replica) = (3, 4);
        for vote in [
            DamysusMsg::PrepareVote { slot, replica },
            DamysusMsg::CommitVote { slot, replica },
        ] {
            assert_eq!(vote.encode().len(), wire.control_len(), "{vote:?}");
        }
        for control in [DamysusMsg::PreCommit { slot }, DamysusMsg::Decide { slot }] {
            assert!(control.encode().len() <= wire.control_len(), "{control:?}");
        }
    }
    #[test]
    fn runs_with_2f_plus_1_replicas() {
        let replica = DamysusReplica::new(0, Membership::of_size(3, 1));
        assert!(replica.is_leader());
        assert_eq!(replica.protocol_name(), "Damysus");
    }
}
