//! R-CR: the Recipe transformation of Chain Replication (leader-based, per-key
//! order).
//!
//! Replicas are organized in a chain (head → … → tail). Writes enter at the head and
//! are forwarded down the chain; a write is committed when it reaches the tail,
//! which replies to the client. Reads are served locally by the tail — which is
//! linearizable because the tail only ever holds committed writes and, under Recipe,
//! can verify the integrity of its local store (paper §B.2, choice C). Local tail
//! reads are why R-CR shows the largest speedups on read-heavy workloads (Figure 4).

use recipe_core::wire::{bytes_len, tag, Reader, Writer};
use recipe_core::{ClientReply, ClientRequest, ConfidentialityMode, Membership, Operation};
use recipe_net::NodeId;
use recipe_sim::{Ctx, RecoveryState, Replica, RestartReport};

use crate::batch::{BatchConfig, Batcher};
use crate::registry::{BuildReplica, Protocol};
use crate::shield::{ProtocolMode, ProtocolShield};
use crate::store::{ReplicaStore, Stamping, StoreReplica};

/// Timer token: flush partially-filled batches (time-budget trigger).
const TOKEN_BATCH_FLUSH: u64 = 1;

/// Chain Replication protocol messages.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum ChainMsg {
    /// Forwarded write, travelling head → tail.
    Forward {
        seq: u64,
        key: Vec<u8>,
        value: Vec<u8>,
        client_id: u64,
        request_id: u64,
    },
}

impl ChainMsg {
    /// Wire form: `tag | variant | seq | client_id | request_id | key | value`.
    pub fn encode(&self) -> Vec<u8> {
        let ChainMsg::Forward {
            seq,
            key,
            value,
            client_id,
            request_id,
        } = self;
        let mut w = Writer::tagged(
            tag::CHAIN,
            2 + 3 * 8 + bytes_len(key.len()) + bytes_len(value.len()),
        );
        w.u8(0)
            .u64(*seq)
            .u64(*client_id)
            .u64(*request_id)
            .bytes(key)
            .bytes(value);
        w.finish()
    }

    /// Parses a message; `None` on anything but one well-formed encoding.
    pub fn decode(bytes: &[u8]) -> Option<ChainMsg> {
        let mut r = Reader::tagged(bytes, tag::CHAIN)?;
        if r.u8()? != 0 {
            return None;
        }
        let (seq, client_id, request_id) = (r.u64()?, r.u64()?, r.u64()?);
        let msg = ChainMsg::Forward {
            seq,
            key: r.bytes()?.to_vec(),
            value: r.bytes()?.to_vec(),
            client_id,
            request_id,
        };
        r.finish()?;
        Some(msg)
    }
}

/// A Chain Replication replica (native or Recipe-transformed).
pub struct ChainReplica {
    id: NodeId,
    membership: Membership,
    shield: ProtocolShield,
    /// The KV store and the count of writes applied to it as they passed
    /// through this node.
    store: ReplicaStore,
    next_seq: u64,
    /// Outgoing-forward batcher (unbatched by default; see
    /// [`ChainReplica::with_batching`]). Each chain node has exactly one
    /// downstream destination, so batching coalesces the head's (and every
    /// relay's) forwards into amortized frames.
    batcher: Batcher,
    /// Members the trusted configuration service reported down (sorted).
    /// Chain roles — head, tail, successor — are computed over the live
    /// members only, which is Chain Replication's master-driven
    /// reconfiguration. Empty in crash-free runs, where every role matches
    /// the static chain exactly.
    down: Vec<NodeId>,
}

impl ChainReplica {
    /// Builds a Recipe-transformed replica (R-CR).
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

    /// Enables batching of chain forwards (see [`BatchConfig`]).
    pub fn with_batching(mut self, config: BatchConfig) -> Self {
        self.batcher = Batcher::new(config);
        self
    }

    /// True if this node heads the live chain.
    pub fn is_head(&self) -> bool {
        self.membership.chain_head_live(&self.down) == Some(self.id)
    }

    /// True if this node is the tail of the live chain.
    pub fn is_tail(&self) -> bool {
        self.membership.chain_tail_live(&self.down) == Some(self.id)
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

    fn forward_or_commit(&mut self, msg: ChainMsg, ctx: &mut Ctx) {
        let ChainMsg::Forward {
            seq,
            key,
            value,
            client_id,
            request_id,
        } = msg;
        // Every node along the chain applies the write as it passes through.
        self.store.apply(&key, &value);
        match self.membership.chain_successor_live(self.id, &self.down) {
            Some(next) => {
                let forward = ChainMsg::Forward {
                    seq,
                    key,
                    value,
                    client_id,
                    request_id,
                };
                self.enqueue(ctx, next, forward.encode());
            }
            None => {
                // This is the tail: the write is committed; answer the client.
                ctx.reply(ClientReply {
                    client_id,
                    request_id,
                    value: None,
                    found: false,
                    replier: self.id.0,
                });
            }
        }
    }

    /// Sends a forward through the batching pipeline (immediate single message
    /// when batching is off).
    fn enqueue(&mut self, ctx: &mut Ctx, dst: NodeId, payload: Vec<u8>) {
        if !self.batcher.is_batching() {
            let wire = self.shield.wrap(dst, 1, &payload);
            ctx.send(dst, wire);
            return;
        }
        let shield = &mut self.shield;
        self.batcher
            .enqueue(ctx, TOKEN_BATCH_FLUSH, dst, 1, payload, |ctx, dst, ops| {
                let count = ops.len() as u32;
                ctx.send_batch(dst, shield.wrap_batch(dst, ops), count);
            });
    }
}

impl Replica for ChainReplica {
    fn id(&self) -> NodeId {
        self.id
    }

    fn on_client_request(&mut self, request: ClientRequest, ctx: &mut Ctx) {
        if self.store.is_locked(request.operation.key()) {
            // An in-flight transaction holds the key (2PL isolation): defer
            // by dropping — the client's retransmission resubmits after the
            // transaction resolved. Never taken without transactions.
            return;
        }
        match request.operation {
            Operation::Get { key } => {
                // Reads are served locally at the tail.
                if !self.is_tail() {
                    return;
                }
                let read = self.store.get(&key);
                ctx.reply(ClientReply {
                    client_id: request.client_id,
                    request_id: request.request_id,
                    found: read.is_some(),
                    value: Some(read.map(|r| r.value).unwrap_or_default()),
                    replier: self.id.0,
                });
            }
            Operation::Put { key, value } => {
                // Writes enter at the head.
                if !self.is_head() {
                    return;
                }
                self.next_seq += 1;
                let msg = ChainMsg::Forward {
                    seq: self.next_seq,
                    key,
                    value,
                    client_id: request.client_id,
                    request_id: request.request_id,
                };
                self.forward_or_commit(msg, ctx);
            }
        }
    }

    fn on_message(&mut self, from: NodeId, bytes: &[u8], ctx: &mut Ctx) {
        for (_kind, payload) in self.shield.unwrap(from, bytes) {
            if let Some(msg) = ChainMsg::decode(&payload) {
                self.forward_or_commit(msg, ctx);
            }
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
        if token == TOKEN_BATCH_FLUSH {
            let shield = &mut self.shield;
            self.batcher.flush_timer(ctx, |ctx, dst, ops| {
                let count = ops.len() as u32;
                ctx.send_batch(dst, shield.wrap_batch(dst, ops), count);
            });
        }
    }

    fn coordinates_writes(&self) -> bool {
        self.is_head()
    }

    fn coordinates_reads(&self) -> bool {
        self.is_tail()
    }

    fn protocol_counters(&self) -> Option<recipe_telemetry::ProtocolCounters> {
        let mut counters = self.shield.counters();
        self.batcher.fold_counters(&mut counters);
        Some(counters)
    }

    fn protocol_name(&self) -> &'static str {
        if self.shield.mode().is_recipe() {
            "R-CR"
        } else {
            "CR"
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
        self.batcher = Batcher::new(*self.batcher.config());
        self.down.clear();
        // `next_seq`, like the store's applied count, is backed by the
        // trusted monotonic counter and survives the crash.
        self.store.restart(state)
    }

    fn on_peer_down(&mut self, peer: NodeId, _ctx: &mut Ctx) {
        if let Err(idx) = self.down.binary_search(&peer) {
            self.down.insert(idx, peer);
        }
        if self.is_head() {
            // This node just became (or confirmed itself as) the live head:
            // adopt any prepare records replicated from a crashed head so
            // in-flight transactions resolve here.
            let _ = self.store.txn_adopt_replicated();
        }
    }

    fn on_peer_up(&mut self, peer: NodeId, _ctx: &mut Ctx) {
        if let Ok(idx) = self.down.binary_search(&peer) {
            self.down.remove(idx);
        }
    }
}

impl StoreReplica for ChainReplica {
    const PROTOCOL: Protocol = Protocol::Chain;

    fn store(&mut self) -> &mut ReplicaStore {
        &mut self.store
    }
}

impl BuildReplica for ChainReplica {
    fn build(id: u64, membership: Membership, mode: ProtocolMode, batch: BatchConfig) -> Self {
        let id = NodeId(id);
        let shield = ProtocolShield::new(id, &membership, mode);
        ChainReplica {
            id,
            store: ReplicaStore::new(shield.store_config(), id, Stamping::Sequence),
            membership,
            shield,
            next_seq: 0,
            batcher: Batcher::new(batch),
            down: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_cluster;
    use recipe_sim::{ClientModel, CostProfile, SimCluster, SimConfig};

    fn cluster(n: usize, ops: usize) -> SimCluster<ChainReplica> {
        let replicas = build_cluster(n, (n - 1) / 2, |id, m| ChainReplica::recipe(id, m, false));
        let mut config = SimConfig::uniform(n, CostProfile::recipe());
        config.clients = ClientModel {
            clients: 16,
            total_operations: ops,
        };
        SimCluster::new(replicas, config)
    }

    fn put_workload(client: u64, seq: u64) -> Operation {
        Operation::Put {
            key: format!("key-{}", (client + seq) % 40).into_bytes(),
            value: vec![b'c'; 256],
        }
    }

    fn read_heavy(client: u64, seq: u64) -> Operation {
        if seq.is_multiple_of(10) {
            put_workload(client, seq)
        } else {
            Operation::Get {
                key: format!("key-{}", (client + seq) % 40).into_bytes(),
            }
        }
    }

    #[test]
    fn roles_follow_chain_positions() {
        let replicas = build_cluster(3, 1, |id, m| ChainReplica::recipe(id, m, false));
        assert!(replicas[0].is_head());
        assert!(replicas[2].is_tail());
        assert!(!replicas[1].is_head());
        assert!(!replicas[1].is_tail());
        assert!(replicas[0].coordinates_writes());
        assert!(!replicas[0].coordinates_reads());
        assert!(replicas[2].coordinates_reads());
        assert_eq!(replicas[0].protocol_name(), "R-CR");
        assert_eq!(
            ChainReplica::native(0, Membership::of_size(3, 1)).protocol_name(),
            "CR"
        );
    }

    #[test]
    fn writes_traverse_the_whole_chain() {
        let mut cluster = cluster(3, 200);
        let stats = cluster.run(put_workload);
        assert_eq!(stats.committed, 200);
        // Every node on the chain applied every committed write (earlier nodes may
        // additionally hold writes that were still travelling down the chain when
        // the run stopped).
        for id in 0..3 {
            assert!(cluster.replica(NodeId(id)).applied_writes() >= 200);
        }
        // Replicas never disagree on a value they both hold (earlier chain nodes may
        // hold writes still in flight towards the tail when the run stopped).
        for i in 0..40 {
            let key = format!("key-{i}").into_bytes();
            let values: Vec<Option<Vec<u8>>> = (0..3)
                .map(|id| cluster.replica_mut(NodeId(id)).local_read(&key))
                .collect();
            for a in 0..3 {
                for b in a + 1..3 {
                    if let (Some(x), Some(y)) = (&values[a], &values[b]) {
                        assert_eq!(x, y);
                    }
                }
            }
            // Whatever the tail holds is committed, so the head must hold it too.
            if values[2].is_some() {
                assert!(values[0].is_some());
            }
        }
    }

    #[test]
    fn read_heavy_workload_is_served_mostly_by_the_tail() {
        let mut cluster = cluster(3, 400);
        let stats = cluster.run(read_heavy);
        assert_eq!(stats.committed, 400);
        assert!(stats.committed_reads > stats.committed_writes);
        // Local tail reads keep message traffic low: roughly 2 chain hops per write
        // and none per read.
        assert!(stats.messages_delivered < 3 * stats.committed_writes + 50);
    }

    #[test]
    fn batched_chain_commits_all_writes_with_fewer_frames() {
        let run = |batch: usize| {
            let replicas = build_cluster(3, 1, |id, m| {
                ChainReplica::recipe(id, m, false).with_batching(BatchConfig::of_ops(batch))
            });
            let mut config = SimConfig::uniform(3, CostProfile::recipe().with_batch_ops(batch));
            config.clients = ClientModel {
                clients: 32,
                total_operations: 250,
            };
            SimCluster::new(replicas, config).run(put_workload)
        };
        let unbatched = run(1);
        let batched = run(16);
        assert_eq!(unbatched.committed, 250);
        assert!(batched.committed >= 250);
        assert!(batched.messages_delivered < unbatched.messages_delivered);
        assert!(batched.ops_delivered > batched.messages_delivered);
    }

    #[test]
    fn tampered_forwarding_is_rejected_by_the_shield() {
        use recipe_net::FaultPlan;
        let replicas = build_cluster(3, 1, |id, m| ChainReplica::recipe(id, m, false));
        let mut config = SimConfig::uniform(3, CostProfile::recipe());
        config.clients = ClientModel {
            clients: 4,
            total_operations: 100,
        };
        config.fault_plan = FaultPlan {
            tamper_probability: 0.1,
            ..FaultPlan::default()
        };
        config.max_virtual_ns = 3_000_000_000;
        let mut cluster = SimCluster::new(replicas, config);
        let stats = cluster.run(put_workload);
        assert!(stats.messages_tampered > 0);
        let rejected: u64 = (0..3)
            .map(|id| cluster.replica(NodeId(id)).rejected_messages())
            .sum();
        assert!(rejected > 0);
        // No divergence: any value present on two replicas matches.
        for i in 0..40 {
            let key = format!("key-{i}").into_bytes();
            let values: Vec<Option<Vec<u8>>> = (0..3)
                .map(|id| cluster.replica_mut(NodeId(id)).local_read(&key))
                .collect();
            for a in 0..3 {
                for b in a + 1..3 {
                    if let (Some(x), Some(y)) = (&values[a], &values[b]) {
                        assert_eq!(x, y);
                    }
                }
            }
        }
    }
}
