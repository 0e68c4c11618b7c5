//! R-AllConcur: the Recipe transformation of AllConcur (leaderless, total order).
//!
//! AllConcur is a decentralized atomic-broadcast protocol: every node can propose
//! writes, all nodes track the messages of a round, and everyone applies the round's
//! writes in a predetermined order (by proposer id) without a leader. This
//! reproduction keeps that structure in a simplified form suited to the
//! discrete-event harness (paper §B.2, choice D):
//!
//! * the proposer broadcasts its write to all peers;
//! * every peer acknowledges the proposal back to the proposer **and keeps the
//!   proposal buffered**;
//! * once the proposer has gathered acknowledgements from *all* peers (AllConcur
//!   tracks all nodes of the digraph, not just a majority — which is exactly the
//!   bottleneck the paper observes for R-AllConcur), it broadcasts a short deliver
//!   message; every node then applies the write.
//!
//! Reads are served locally (sequential consistency), matching the paper's
//! configuration for R-AllConcur.

use std::collections::{HashMap, HashSet};

use recipe_core::wire::{bytes_len, tag, Reader, Writer};
use recipe_core::{ClientRequest, Membership, Operation};
use recipe_net::NodeId;

use crate::registry::Protocol;
use crate::replica::{CftProtocol, Handle, RecipeReplica};
use crate::store::Stamping;

/// AllConcur protocol messages. `op` is the proposer's id for the write a
/// message belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum AllConcurMsg {
    /// A proposed write, broadcast by its coordinator.
    Propose {
        op: u64,
        key: Vec<u8>,
        value: Vec<u8>,
    },
    /// Acknowledgement that the proposal was received and buffered.
    Track { op: u64 },
    /// The proposer observed acknowledgements from all peers: apply the write.
    Deliver { op: u64 },
}

impl AllConcurMsg {
    /// Wire form: `tag | variant | op | key? | value?`.
    pub fn encode(&self) -> Vec<u8> {
        let (variant, op) = match self {
            AllConcurMsg::Propose { op, key, value } => {
                return Self::encode_propose(*op, key, value);
            }
            AllConcurMsg::Track { op } => (1, op),
            AllConcurMsg::Deliver { op } => (2, op),
        };
        let mut w = Writer::tagged(tag::ALLCONCUR, 2 + 8);
        w.u8(variant).u64(*op);
        w.finish()
    }

    /// The encoding of an [`AllConcurMsg::Propose`] with these fields, for a
    /// proposer that keeps the key and value it proposes.
    fn encode_propose(op: u64, key: &[u8], value: &[u8]) -> Vec<u8> {
        let entry_len = bytes_len(key.len()) + bytes_len(value.len());
        let mut w = Writer::tagged(tag::ALLCONCUR, 2 + 8 + entry_len);
        w.u8(0).u64(op).bytes(key).bytes(value);
        w.finish()
    }

    /// Parses a message; `None` on anything but one well-formed encoding.
    pub fn decode(bytes: &[u8]) -> Option<AllConcurMsg> {
        let mut r = Reader::tagged(bytes, tag::ALLCONCUR)?;
        let variant = r.u8()?;
        let op = r.u64()?;
        let msg = match variant {
            0 => AllConcurMsg::Propose {
                op,
                key: r.bytes()?.to_vec(),
                value: r.bytes()?.to_vec(),
            },
            1 => AllConcurMsg::Track { op },
            2 => AllConcurMsg::Deliver { op },
            _ => return None,
        };
        r.finish()?;
        Some(msg)
    }
}

#[derive(Debug)]
struct PendingProposal {
    client_id: u64,
    request_id: u64,
    key: Vec<u8>,
    value: Vec<u8>,
    acks: HashSet<u64>,
}

/// The AllConcur protocol: the proposals one node coordinates and the ones
/// it tracks for others.
pub struct AllConcur {
    membership: Membership,
    next_op: u64,
    /// Proposals this node coordinates, until they are delivered.
    own: HashMap<u64, PendingProposal>,
    /// Proposals received from other coordinators, buffered until delivery.
    buffered: HashMap<(u64, u64), (Vec<u8>, Vec<u8>)>,
}

/// An AllConcur replica (native or Recipe-transformed, R-AllConcur).
pub type AllConcurReplica = RecipeReplica<AllConcur>;

impl AllConcur {
    fn handle(&mut self, from: NodeId, msg: AllConcurMsg, h: &mut Handle<'_>) {
        match msg {
            AllConcurMsg::Propose { op, key, value } => {
                self.buffered.insert((from.0, op), (key, value));
                let track = AllConcurMsg::Track { op };
                h.send(from, &track.encode());
            }
            AllConcurMsg::Track { op } => {
                let all_peers = self.membership.n() - 1;
                let Some(pending) = self.own.get_mut(&op) else {
                    return;
                };
                pending.acks.insert(from.0);
                if pending.acks.len() < all_peers {
                    return;
                }
                // Tracked by everyone: apply locally, tell everyone to deliver,
                // answer the client. The proposal is done with — a Track that
                // arrives later finds nothing to count on.
                let Some(proposal) = self.own.remove(&op) else {
                    return;
                };
                h.store().apply(&proposal.key, proposal.value);
                let deliver = AllConcurMsg::Deliver { op };
                h.broadcast(self.membership.members(), deliver.encode());
                h.reply(proposal.client_id, proposal.request_id, None, false);
            }
            AllConcurMsg::Deliver { op } => {
                if let Some((key, value)) = self.buffered.remove(&(from.0, op)) {
                    h.store().apply(&key, value);
                }
            }
        }
    }
}

impl CftProtocol for AllConcur {
    const PROTOCOL: Protocol = Protocol::AllConcur;
    const NAME: &'static str = "AllConcur";
    const STAMPING: Stamping = Stamping::Sequence;
    /// Every node proposes for itself: there is no one sender to batch on.
    const BATCHES: bool = false;

    fn new(_id: NodeId, membership: Membership) -> Self {
        AllConcur {
            membership,
            next_op: 0,
            own: HashMap::new(),
            buffered: HashMap::new(),
        }
    }

    fn on_client_request(&mut self, request: ClientRequest, h: &mut Handle<'_>) {
        let (client_id, request_id) = (request.client_id, request.request_id);
        match request.operation {
            Operation::Get { key } => {
                // Consistent local reads (sequential consistency).
                h.reply_local_read(client_id, request_id, &key);
            }
            Operation::Put { key, value } => {
                self.next_op += 1;
                let op = self.next_op;
                let propose = AllConcurMsg::encode_propose(op, &key, &value);
                self.own.insert(
                    op,
                    PendingProposal {
                        client_id,
                        request_id,
                        key,
                        value,
                        acks: HashSet::new(),
                    },
                );
                h.broadcast(self.membership.members(), propose);
            }
        }
    }

    fn on_message(&mut self, from: NodeId, payload: &[u8], h: &mut Handle<'_>) {
        if let Some(msg) = AllConcurMsg::decode(payload) {
            self.handle(from, msg, h);
        }
    }

    fn coordinates_writes(&self) -> bool {
        true
    }

    fn coordinates_reads(&self) -> bool {
        true
    }

    fn on_restart(&mut self, _view: u64, _h: &mut Handle<'_>) {
        // AllConcur is leaderless (every node coordinates its own
        // proposals); in-flight proposals and buffered peer proposals are
        // volatile and lost, and the client retransmission reissues them.
        self.own.clear();
        self.buffered.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_cluster;
    use recipe_sim::{CostProfile, Replica, SimCluster, SimConfig};

    #[test]
    fn every_node_is_a_coordinator() {
        let replicas = build_cluster(3, 1, |id, m| AllConcurReplica::recipe(id, m, false));
        assert!(replicas.iter().all(|r| r.coordinates_writes()));
        assert!(replicas.iter().all(|r| r.coordinates_reads()));
        assert_eq!(replicas[0].protocol_name(), "R-AllConcur");
        assert_eq!(
            AllConcurReplica::native(0, Membership::of_size(3, 1)).protocol_name(),
            "AllConcur"
        );
    }

    /// A delivered proposal is gone from its coordinator's state and a
    /// peer's buffer, so once every request of a run is answered and its
    /// `Deliver`s have landed, nothing is left of it anywhere; every node
    /// applied every write.
    #[test]
    fn delivered_proposals_leave_no_state_behind() {
        let replicas = build_cluster(3, 1, |id, m| AllConcurReplica::recipe(id, m, false));
        let config = SimConfig::uniform(3, CostProfile::recipe());
        let mut cluster = SimCluster::new(replicas, config);
        crate::tests::run_rounds(&mut cluster, 16, 12, |client, round| Operation::Put {
            key: format!("key-{}", (client + round) % 20).into_bytes(),
            value: vec![b'a'; 128],
        });
        assert_eq!(cluster.committed(), 192);
        for id in 0..3 {
            let replica = cluster.replica(NodeId(id));
            assert_eq!(replica.applied_writes(), 192, "replica {id}");
            let core = replica.core();
            assert!(
                core.own.is_empty() && core.buffered.is_empty(),
                "replica {id}"
            );
        }
    }
}
