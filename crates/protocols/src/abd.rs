//! R-ABD: the Recipe transformation of the ABD multi-writer multi-reader register
//! protocol (leaderless, per-key order).
//!
//! Any replica can coordinate any operation (paper §B.2, choice A):
//!
//! * **Writes** take two rounds: the coordinator first collects the current Lamport
//!   timestamp for the key from a majority, picks a higher one, then broadcasts the
//!   new `(value, timestamp)` and replies to the client once a majority acknowledged
//!   the write.
//! * **Reads** take one round in the common case: the coordinator collects
//!   `(value, timestamp)` from a majority; if they agree on the highest timestamp it
//!   replies immediately, otherwise it performs a write-back round of the highest
//!   value first (for linearizability/availability).

use std::collections::HashMap;

use recipe_core::wire::{bytes_len, tag, Reader, Writer};
use recipe_core::{ClientRequest, Membership, Operation};
use recipe_kv::Timestamp;
use recipe_net::NodeId;

use crate::registry::Protocol;
use crate::replica::{CftProtocol, Handle, RecipeReplica};
use crate::store::Stamping;

/// ABD protocol messages. `op` is the coordinator's id for the operation a
/// message belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum AbdMsg {
    /// Round 1 of a write: ask for the key's current timestamp.
    GetTs { op: u64, key: Vec<u8> },
    /// Reply to `GetTs`.
    TsReply { op: u64, ts: Timestamp },
    /// Round 2 of a write (and read write-back): store the value if newer.
    Put {
        op: u64,
        key: Vec<u8>,
        value: Vec<u8>,
        ts: Timestamp,
    },
    /// Acknowledgement of a `Put`.
    PutAck { op: u64 },
    /// Round 1 of a read: ask for value + timestamp.
    GetFull { op: u64, key: Vec<u8> },
    /// Reply to `GetFull`.
    FullReply {
        op: u64,
        value: Option<Vec<u8>>,
        ts: Timestamp,
    },
}

impl AbdMsg {
    /// Wire form: `tag | variant | op | timestamp (logical, node)? | byte
    /// strings`.
    pub fn encode(&self) -> Vec<u8> {
        let strings_len = match self {
            AbdMsg::GetTs { key, .. } | AbdMsg::GetFull { key, .. } => bytes_len(key.len()),
            AbdMsg::Put { key, value, .. } => bytes_len(key.len()) + bytes_len(value.len()),
            AbdMsg::FullReply { value, .. } => 1 + value.as_ref().map_or(0, |v| bytes_len(v.len())),
            AbdMsg::TsReply { .. } | AbdMsg::PutAck { .. } => 0,
        };
        let mut w = Writer::tagged(tag::ABD, 2 + 3 * 8 + strings_len);
        match self {
            AbdMsg::GetTs { op, key } => {
                w.u8(0).u64(*op).bytes(key);
            }
            AbdMsg::TsReply { op, ts } => {
                w.u8(1).u64(*op).u64(ts.logical).u64(ts.node);
            }
            AbdMsg::Put { op, key, value, ts } => {
                w.u8(2)
                    .u64(*op)
                    .u64(ts.logical)
                    .u64(ts.node)
                    .bytes(key)
                    .bytes(value);
            }
            AbdMsg::PutAck { op } => {
                w.u8(3).u64(*op);
            }
            AbdMsg::GetFull { op, key } => {
                w.u8(4).u64(*op).bytes(key);
            }
            AbdMsg::FullReply { op, value, ts } => {
                w.u8(5)
                    .u64(*op)
                    .u64(ts.logical)
                    .u64(ts.node)
                    .opt_bytes(value.as_deref());
            }
        }
        w.finish()
    }

    /// Parses a message; `None` on anything but one well-formed encoding.
    pub fn decode(bytes: &[u8]) -> Option<AbdMsg> {
        fn timestamp(r: &mut Reader<'_>) -> Option<Timestamp> {
            Some(Timestamp::new(r.u64()?, r.u64()?))
        }
        let mut r = Reader::tagged(bytes, tag::ABD)?;
        let variant = r.u8()?;
        let op = r.u64()?;
        let msg = match variant {
            0 => AbdMsg::GetTs {
                op,
                key: r.bytes()?.to_vec(),
            },
            1 => AbdMsg::TsReply {
                op,
                ts: timestamp(&mut r)?,
            },
            2 => {
                let ts = timestamp(&mut r)?;
                AbdMsg::Put {
                    op,
                    key: r.bytes()?.to_vec(),
                    value: r.bytes()?.to_vec(),
                    ts,
                }
            }
            3 => AbdMsg::PutAck { op },
            4 => AbdMsg::GetFull {
                op,
                key: r.bytes()?.to_vec(),
            },
            5 => {
                let ts = timestamp(&mut r)?;
                AbdMsg::FullReply {
                    op,
                    value: r.opt_bytes()?.map(<[u8]>::to_vec),
                    ts,
                }
            }
            _ => return None,
        };
        r.finish()?;
        Some(msg)
    }
}

/// Coordinator-side state of one in-flight operation.
#[derive(Debug)]
enum OpState {
    /// Write, phase 1: collecting timestamps.
    WriteQuery {
        request: ClientRequest,
        key: Vec<u8>,
        value: Vec<u8>,
        highest: Timestamp,
        replies: usize,
    },
    /// Write (or read write-back), phase 2: collecting acknowledgements.
    WriteCommit {
        request: ClientRequest,
        acks: usize,
        is_read_back: Option<Vec<u8>>,
    },
    /// Read, phase 1: collecting values.
    ReadQuery {
        request: ClientRequest,
        key: Vec<u8>,
        best: Option<Vec<u8>>,
        best_ts: Timestamp,
        all_agree: bool,
        replies: usize,
    },
}

/// The ABD protocol: the operations one replica coordinates. Its store
/// stamps by Lamport timestamp.
pub struct Abd {
    id: NodeId,
    membership: Membership,
    next_op: u64,
    inflight: HashMap<u64, OpState>,
}

/// An ABD replica (native or Recipe-transformed, R-ABD).
pub type AbdReplica = RecipeReplica<Abd>;

impl Abd {
    fn quorum(&self) -> usize {
        self.membership.quorum()
    }

    fn handle(&mut self, from: NodeId, msg: AbdMsg, h: &mut Handle<'_>) {
        match msg {
            AbdMsg::GetTs { op, key } => {
                let ts = h.store().timestamp_of(&key).unwrap_or(Timestamp::ZERO);
                let reply = AbdMsg::TsReply { op, ts };
                h.send(from, &reply.encode());
            }
            AbdMsg::TsReply { op, ts } => {
                let quorum = self.quorum();
                let Some(OpState::WriteQuery {
                    highest, replies, ..
                }) = self.inflight.get_mut(&op)
                else {
                    return;
                };
                *highest = (*highest).max(ts);
                *replies += 1;
                if *replies + 1 >= quorum {
                    // Majority reached (counting our own local timestamp implicitly).
                    let Some(OpState::WriteQuery {
                        request,
                        key,
                        value,
                        highest,
                        ..
                    }) = self.inflight.remove(&op)
                    else {
                        return;
                    };
                    let new_ts = highest
                        .max(h.store().timestamp_of(&key).unwrap_or(Timestamp::ZERO))
                        .next_for(self.id.0);
                    // Apply locally and broadcast round 2.
                    h.store().apply_if_newer(&key, &value, new_ts);
                    self.inflight.insert(
                        op,
                        OpState::WriteCommit {
                            request,
                            acks: 1,
                            is_read_back: None,
                        },
                    );
                    let put = AbdMsg::Put {
                        op,
                        key,
                        value,
                        ts: new_ts,
                    };
                    h.broadcast(self.membership.members(), put.encode());
                }
            }
            AbdMsg::Put { op, key, value, ts } => {
                h.store().apply_if_newer(&key, &value, ts);
                let ack = AbdMsg::PutAck { op };
                h.send(from, &ack.encode());
            }
            AbdMsg::PutAck { op } => {
                let quorum = self.quorum();
                let Some(OpState::WriteCommit { acks, .. }) = self.inflight.get_mut(&op) else {
                    return;
                };
                *acks += 1;
                if *acks >= quorum {
                    let Some(OpState::WriteCommit {
                        request,
                        is_read_back,
                        ..
                    }) = self.inflight.remove(&op)
                    else {
                        return;
                    };
                    match is_read_back {
                        None => h.reply(request.client_id, request.request_id, None, false),
                        Some(value) => {
                            h.reply(request.client_id, request.request_id, Some(value), true)
                        }
                    }
                }
            }
            AbdMsg::GetFull { op, key } => {
                let read = h.store().get(&key);
                let reply = AbdMsg::FullReply {
                    op,
                    ts: read
                        .as_ref()
                        .map(|r| r.timestamp)
                        .unwrap_or(Timestamp::ZERO),
                    value: read.map(|r| r.value),
                };
                h.send(from, &reply.encode());
            }
            AbdMsg::FullReply { op, value, ts } => {
                let quorum = self.quorum();
                let Some(OpState::ReadQuery {
                    best,
                    best_ts,
                    all_agree,
                    replies,
                    ..
                }) = self.inflight.get_mut(&op)
                else {
                    return;
                };
                *replies += 1;
                if ts != *best_ts {
                    *all_agree = false;
                }
                if ts > *best_ts {
                    *best_ts = ts;
                    *best = value;
                }
                if *replies + 1 >= quorum {
                    let Some(OpState::ReadQuery {
                        request,
                        key,
                        best,
                        best_ts,
                        all_agree,
                        ..
                    }) = self.inflight.remove(&op)
                    else {
                        return;
                    };
                    if all_agree || best.is_none() {
                        let found = best.is_some();
                        h.reply(
                            request.client_id,
                            request.request_id,
                            Some(best.unwrap_or_default()),
                            found,
                        );
                    } else {
                        // Disagreement: write back the highest value before replying
                        // (the ABD read's second round).
                        let value = best.clone().unwrap_or_default();
                        h.store().apply_if_newer(&key, &value, best_ts);
                        self.inflight.insert(
                            op,
                            OpState::WriteCommit {
                                request,
                                acks: 1,
                                is_read_back: Some(value.clone()),
                            },
                        );
                        let put = AbdMsg::Put {
                            op,
                            key,
                            value,
                            ts: best_ts,
                        };
                        h.broadcast(self.membership.members(), put.encode());
                    }
                }
            }
        }
    }
}

impl CftProtocol for Abd {
    const PROTOCOL: Protocol = Protocol::Abd;
    const NAME: &'static str = "ABD";
    const STAMPING: Stamping = Stamping::Lamport;
    /// ABD has no leader to batch on.
    const BATCHES: bool = false;

    fn new(id: NodeId, membership: Membership) -> Self {
        Abd {
            id,
            membership,
            next_op: 0,
            inflight: HashMap::new(),
        }
    }

    fn on_client_request(&mut self, request: ClientRequest, h: &mut Handle<'_>) {
        self.next_op += 1;
        // Operation ids are namespaced by coordinator so concurrent coordinators
        // never collide.
        let op = self.next_op * 1_000 + self.id.0;
        match request.operation.clone() {
            Operation::Put { key, value } => {
                self.inflight.insert(
                    op,
                    OpState::WriteQuery {
                        request,
                        key: key.clone(),
                        value,
                        highest: h.store().timestamp_of(&key).unwrap_or(Timestamp::ZERO),
                        replies: 0,
                    },
                );
                let query = AbdMsg::GetTs { op, key };
                h.broadcast(self.membership.members(), query.encode());
            }
            Operation::Get { key } => {
                let local = h.store().get(&key);
                self.inflight.insert(
                    op,
                    OpState::ReadQuery {
                        request,
                        key: key.clone(),
                        best_ts: local
                            .as_ref()
                            .map(|r| r.timestamp)
                            .unwrap_or(Timestamp::ZERO),
                        best: local.map(|r| r.value),
                        all_agree: true,
                        replies: 0,
                    },
                );
                let query = AbdMsg::GetFull { op, key };
                h.broadcast(self.membership.members(), query.encode());
            }
        }
    }

    fn on_message(&mut self, from: NodeId, payload: &[u8], h: &mut Handle<'_>) {
        if let Some(msg) = AbdMsg::decode(payload) {
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
        // ABD is leaderless: nothing to elect. In-flight quorum ops are
        // volatile and lost; the client retransmission restarts them.
        self.inflight.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_cluster;
    use recipe_sim::Replica;

    #[test]
    fn any_node_coordinates_reads_and_writes() {
        let replicas = build_cluster(3, 1, |id, m| AbdReplica::recipe(id, m, false));
        for replica in &replicas {
            assert!(replica.coordinates_writes());
            assert!(replica.coordinates_reads());
        }
        assert_eq!(replicas[0].protocol_name(), "R-ABD");
        assert_eq!(
            AbdReplica::native(0, Membership::of_size(3, 1)).protocol_name(),
            "ABD"
        );
    }
}
