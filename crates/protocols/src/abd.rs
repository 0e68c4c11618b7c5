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
use recipe_core::{ClientReply, ClientRequest, ConfidentialityMode, Membership, Operation};
use recipe_kv::Timestamp;
use recipe_net::NodeId;
use recipe_sim::{Ctx, RecoveryState, Replica, RestartReport};

use crate::batch::BatchConfig;
use crate::registry::{BuildReplica, Protocol};
use crate::shield::{ProtocolMode, ProtocolShield};
use crate::store::{ReplicaStore, Stamping, StoreReplica};

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

/// An ABD replica (native or Recipe-transformed).
pub struct AbdReplica {
    id: NodeId,
    membership: Membership,
    shield: ProtocolShield,
    /// The KV store, stamping by Lamport timestamp, and the count of writes
    /// that were new to it.
    store: ReplicaStore,
    next_op: u64,
    inflight: HashMap<u64, OpState>,
}

impl AbdReplica {
    /// Builds a Recipe-transformed replica (R-ABD).
    ///
    /// `confidentiality` is the group's policy — a
    /// [`recipe_core::ConfidentialityMode`] resolved by the deployment spec,
    /// or a legacy `bool` via `From<bool>`.
    pub fn recipe(
        id: u64,
        membership: Membership,
        confidentiality: impl Into<ConfidentialityMode>,
    ) -> Self {
        let confidentiality = confidentiality.into();
        let mode = ProtocolMode::Recipe { confidentiality };
        Self::build(id, membership, mode, BatchConfig::unbatched())
    }

    /// Builds a native replica.
    pub fn native(id: u64, membership: Membership) -> Self {
        Self::build(
            id,
            membership,
            ProtocolMode::Native,
            BatchConfig::unbatched(),
        )
    }

    /// Writes applied by this replica.
    pub fn applied_writes(&self) -> u64 {
        self.store.applied()
    }

    /// Reads a key from the local store (verification helper).
    pub fn local_read(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        self.store.get(key).map(|r| r.value)
    }

    /// Messages rejected by the authentication layer.
    pub fn rejected_messages(&self) -> u64 {
        self.shield.rejected()
    }

    fn quorum(&self) -> usize {
        self.membership.quorum()
    }

    fn send_encoded(&mut self, ctx: &mut Ctx, dst: NodeId, payload: &[u8]) {
        let wire = self.shield.wrap(dst, 1, payload);
        ctx.send(dst, wire);
    }

    fn send(&mut self, ctx: &mut Ctx, dst: NodeId, msg: &AbdMsg) {
        self.send_encoded(ctx, dst, &msg.encode());
    }

    /// Encodes `msg` once and shields it per peer.
    fn broadcast(&mut self, ctx: &mut Ctx, msg: &AbdMsg) {
        let payload = msg.encode();
        for peer in self.membership.peers_of(self.id) {
            self.send_encoded(ctx, peer, &payload);
        }
    }

    fn reply_to(
        &self,
        ctx: &mut Ctx,
        request: &ClientRequest,
        value: Option<Vec<u8>>,
        found: bool,
    ) {
        ctx.reply(ClientReply {
            client_id: request.client_id,
            request_id: request.request_id,
            value,
            found,
            replier: self.id.0,
        });
    }

    fn handle(&mut self, from: NodeId, msg: AbdMsg, ctx: &mut Ctx) {
        match msg {
            AbdMsg::GetTs { op, key } => {
                let ts = self.store.timestamp_of(&key).unwrap_or(Timestamp::ZERO);
                let reply = AbdMsg::TsReply { op, ts };
                self.send(ctx, from, &reply);
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
                        .max(self.store.timestamp_of(&key).unwrap_or(Timestamp::ZERO))
                        .next_for(self.id.0);
                    // Apply locally and broadcast round 2.
                    self.store.apply_if_newer(&key, &value, new_ts);
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
                    self.broadcast(ctx, &put);
                }
            }
            AbdMsg::Put { op, key, value, ts } => {
                self.store.apply_if_newer(&key, &value, ts);
                let ack = AbdMsg::PutAck { op };
                self.send(ctx, from, &ack);
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
                        None => self.reply_to(ctx, &request, None, false),
                        Some(value) => self.reply_to(ctx, &request, Some(value), true),
                    }
                }
            }
            AbdMsg::GetFull { op, key } => {
                let read = self.store.get(&key);
                let reply = AbdMsg::FullReply {
                    op,
                    ts: read
                        .as_ref()
                        .map(|r| r.timestamp)
                        .unwrap_or(Timestamp::ZERO),
                    value: read.map(|r| r.value),
                };
                self.send(ctx, from, &reply);
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
                        self.reply_to(ctx, &request, Some(best.unwrap_or_default()), found);
                    } else {
                        // Disagreement: write back the highest value before replying
                        // (the ABD read's second round).
                        let value = best.clone().unwrap_or_default();
                        self.store.apply_if_newer(&key, &value, best_ts);
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
                        self.broadcast(ctx, &put);
                    }
                }
            }
        }
    }
}

impl Replica for AbdReplica {
    fn id(&self) -> NodeId {
        self.id
    }

    fn on_client_request(&mut self, request: ClientRequest, ctx: &mut Ctx) {
        if self.store.is_locked(request.operation.key()) {
            // An in-flight transaction prepared on this coordinator holds the
            // key (2PL isolation): defer by dropping — the client's
            // retransmission resubmits after the transaction resolved.
            return;
        }
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
                        highest: self.store.timestamp_of(&key).unwrap_or(Timestamp::ZERO),
                        replies: 0,
                    },
                );
                let query = AbdMsg::GetTs { op, key };
                self.broadcast(ctx, &query);
            }
            Operation::Get { key } => {
                let local = self.store.get(&key);
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
                self.broadcast(ctx, &query);
            }
        }
    }

    fn on_message(&mut self, from: NodeId, bytes: &[u8], ctx: &mut Ctx) {
        for (_kind, payload) in self.shield.unwrap(from, bytes) {
            if let Some(msg) = AbdMsg::decode(&payload) {
                self.handle(from, msg, ctx);
            }
        }
    }

    fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx) {}

    fn coordinates_writes(&self) -> bool {
        true
    }

    fn coordinates_reads(&self) -> bool {
        true
    }

    fn protocol_counters(&self) -> Option<recipe_telemetry::ProtocolCounters> {
        Some(self.shield.counters())
    }

    fn protocol_name(&self) -> &'static str {
        if self.shield.mode().is_recipe() {
            "R-ABD"
        } else {
            "ABD"
        }
    }

    fn channel_send_counter(&self, peer: NodeId) -> u64 {
        self.shield.send_counter_to(peer)
    }

    fn resync_channel_from(&mut self, peer: NodeId, peer_send_counter: u64) {
        self.shield.resync_from(peer, peer_send_counter);
    }

    fn export_recovery_state(&mut self) -> RecoveryState {
        self.store.export_recovery_state()
    }

    fn on_restart(&mut self, _view: u64, state: RecoveryState, _ctx: &mut Ctx) -> RestartReport {
        // ABD is leaderless: nothing to elect. In-flight quorum ops are
        // volatile and lost; the client retransmission restarts them.
        self.inflight.clear();
        self.store.restart(state)
    }
}

impl StoreReplica for AbdReplica {
    const PROTOCOL: Protocol = Protocol::Abd;

    fn store(&mut self) -> &mut ReplicaStore {
        &mut self.store
    }
}

impl BuildReplica for AbdReplica {
    /// ABD has no leader to batch on; `batch` only shapes the cost profile's
    /// bookkeeping.
    fn build(id: u64, membership: Membership, mode: ProtocolMode, _batch: BatchConfig) -> Self {
        let id = NodeId(id);
        let shield = ProtocolShield::new(id, &membership, mode);
        AbdReplica {
            id,
            store: ReplicaStore::new(shield.store_config(), id, Stamping::Lamport),
            membership,
            shield,
            next_op: 0,
            inflight: HashMap::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_cluster;
    use recipe_sim::{ClientModel, CostProfile, SimCluster, SimConfig};

    fn cluster(ops: usize) -> SimCluster<AbdReplica> {
        let replicas = build_cluster(3, 1, |id, m| AbdReplica::recipe(id, m, false));
        let mut config = SimConfig::uniform(3, CostProfile::recipe());
        config.clients = ClientModel {
            clients: 16,
            total_operations: ops,
        };
        SimCluster::new(replicas, config)
    }

    fn mixed(client: u64, seq: u64) -> Operation {
        let key = format!("key-{}", (client * 3 + seq) % 30).into_bytes();
        if (client + seq).is_multiple_of(2) {
            Operation::Put {
                key,
                value: format!("value-{client}-{seq}").into_bytes(),
            }
        } else {
            Operation::Get { key }
        }
    }

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

    #[test]
    fn mixed_workload_commits_everything() {
        let mut cluster = cluster(400);
        let stats = cluster.run(mixed);
        assert_eq!(stats.committed, 400);
        assert!(stats.committed_reads > 0);
        assert!(stats.committed_writes > 0);
        // Writes propagate to a majority; by the end of a quiesced run every
        // replica that holds a key agrees on its (timestamped) latest value.
        for i in 0..30 {
            let key = format!("key-{i}").into_bytes();
            let mut present: Vec<Vec<u8>> = Vec::new();
            for id in 0..3 {
                if let Some(v) = cluster.replica_mut(NodeId(id)).local_read(&key) {
                    present.push(v);
                }
            }
            // At least a majority of replicas hold each written key.
            if !present.is_empty() {
                assert!(
                    present.len() >= 2,
                    "key {i} present on {} replicas",
                    present.len()
                );
            }
        }
    }

    #[test]
    fn writes_are_visible_to_subsequent_reads() {
        // Single client, alternating put/get on one key: every get must observe the
        // immediately preceding put (linearizability for a single client).
        let replicas = build_cluster(3, 1, |id, m| AbdReplica::recipe(id, m, false));
        let mut config = SimConfig::uniform(3, CostProfile::recipe());
        config.clients = ClientModel {
            clients: 1,
            total_operations: 40,
        };
        let mut cluster = SimCluster::new(replicas, config);
        let stats = cluster.run(|_, seq| {
            if seq % 2 == 1 {
                Operation::Put {
                    key: b"register".to_vec(),
                    value: format!("v{seq}").into_bytes(),
                }
            } else {
                Operation::Get {
                    key: b"register".to_vec(),
                }
            }
        });
        assert_eq!(stats.committed, 40);
        // After the final write (seq 39), a majority holds v39.
        let mut holders = 0;
        for id in 0..3 {
            if cluster.replica_mut(NodeId(id)).local_read(b"register") == Some(b"v39".to_vec()) {
                holders += 1;
            }
        }
        assert!(holders >= 2, "final value replicated to {holders} nodes");
    }

    #[test]
    fn timestamps_resolve_concurrent_writers() {
        // Two coordinators write the same key concurrently; all replicas converge on
        // the single timestamp-ordered winner.
        let mut cluster = cluster(100);
        let stats = cluster.run(|client, seq| Operation::Put {
            key: b"contended".to_vec(),
            value: format!("writer-{client}-{seq}").into_bytes(),
        });
        assert_eq!(stats.committed, 100);
        // Every committed write reached a majority, so every replica holds *some*
        // value for the contended key, and timestamps order them: all stored
        // timestamps are distinct per (logical, writer) pair by construction, so no
        // replica can hold a value that a newer committed timestamp should have
        // replaced on that same replica. Here we assert full coverage; read-repair
        // (exercised in `writes_are_visible_to_subsequent_reads`) converges values.
        for id in 0..3 {
            assert!(
                cluster
                    .replica_mut(NodeId(id))
                    .local_read(b"contended")
                    .is_some(),
                "replica {id} never received any write for the contended key"
            );
        }
    }
}
