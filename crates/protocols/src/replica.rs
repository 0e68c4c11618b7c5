//! Recipe-lib around an unmodified CFT protocol: one replica type, written
//! once, that every transformed protocol runs inside.
//!
//! A protocol is a **core** — a [`CftProtocol`]: its states, rounds and
//! messages, and nothing else. [`RecipeReplica`] owns what the paper's
//! library owns — the [`ProtocolShield`] (Listing 1's `shield_msg` /
//! `verify_msg`), the [`Batcher`], the [`ReplicaStore`] and the recovery
//! hooks — and lends the core a [`Handle`] for the length of one handler.
//! The core says *what* to send to *whom*; whether those bytes leave plain or
//! shielded, alone or in a batch, is the wrapper's [`ProtocolMode`] and
//! nothing in the core: the same core runs native and Recipe-transformed.

use recipe_core::{ClientReply, ClientRequest, ConfidentialityMode, Membership};
use recipe_kv::Timestamp;
use recipe_net::NodeId;
use recipe_sim::{Ctx, Replica, RestartReport};
use recipe_tee::TrustedInstant;

use crate::batch::{BatchConfig, Batcher};
use crate::registry::{BuildReplica, Protocol};
use crate::shield::{ProtocolMode, ProtocolShield};
use crate::store::{ReplicaStore, Stamping, StoreReplica};

/// Timer token the wrapper keeps for itself: flush partially-filled batches
/// (the time-budget trigger). A core never sees it.
const TOKEN_BATCH_FLUSH: u64 = u64::MAX;

/// The request kind every protocol message travels under.
const KIND: u16 = 1;

/// The logic of one crash-fault-tolerant replication protocol: what a
/// [`RecipeReplica`] runs, natively or transformed.
///
/// Handlers get a [`Handle`] for everything outside the protocol. Timer
/// token `0` is the simulator's kick-off; every other token a core sees is
/// one it set.
pub trait CftProtocol: Sized {
    /// The protocol, as the registry knows it (its display name there is the
    /// transformed protocol's).
    const PROTOCOL: Protocol;

    /// What the untransformed protocol is called.
    const NAME: &'static str;

    /// How the protocol's store stamps the writes it applies.
    const STAMPING: Stamping;

    /// Replica `id` of the group `membership` describes, in its initial
    /// state.
    fn new(id: NodeId, membership: Membership) -> Self;

    /// A client request routed to this replica. A request for a key a
    /// prepared transaction holds never arrives.
    fn on_client_request(&mut self, request: ClientRequest, h: &mut Handle<'_>);

    /// The payload a peer's core passed to `Handle::send` or
    /// `Handle::broadcast`, from `from`.
    fn on_message(&mut self, from: NodeId, payload: &[u8], h: &mut Handle<'_>);

    /// A timer requested through `Handle::set_timer`.
    fn on_timer(&mut self, _token: u64, _h: &mut Handle<'_>) {}

    /// True if this replica can coordinate writes.
    fn coordinates_writes(&self) -> bool;

    /// True if this replica can coordinate reads.
    fn coordinates_reads(&self) -> bool;

    /// The view this replica operates in (`0` for a view-less protocol).
    fn current_view(&self) -> u64 {
        0
    }

    /// Restart after a crash: drop every volatile piece of protocol state
    /// and adopt `view`. The store is already restarted.
    fn on_restart(&mut self, view: u64, h: &mut Handle<'_>);

    /// The trusted configuration service observed `peer` crashed.
    fn on_peer_down(&mut self, _peer: NodeId, _h: &mut Handle<'_>) {}

    /// `peer` was re-attested and rejoined.
    fn on_peer_up(&mut self, _peer: NodeId, _h: &mut Handle<'_>) {}
}

/// What a core reaches the world through, lent for one handler invocation.
pub struct Handle<'a> {
    shield: &'a mut ProtocolShield,
    batcher: &'a mut Batcher,
    store: &'a mut ReplicaStore,
    ctx: &'a mut Ctx,
}

impl Handle<'_> {
    /// The current virtual time.
    pub(crate) fn now(&self) -> TrustedInstant {
        self.ctx.now()
    }

    /// Sends `payload` to `dst`: at once as a single message, sealed from
    /// where it lies into a spare of the group's frame buffers, when batching
    /// is off; otherwise copied into `dst`'s batch queue and flushed on the
    /// first trigger (ops or byte budget now, time budget through the
    /// wrapper's timer).
    pub(crate) fn send(&mut self, dst: NodeId, payload: &[u8]) {
        if !self.batcher.is_batching() {
            let frames = self.ctx.frames();
            let wire = self.shield.wrap_in(frames, dst, KIND, payload.len(), |w| {
                w.raw(payload);
            });
            self.ctx.send(dst, wire);
            return;
        }
        let shield = &mut *self.shield;
        self.batcher.enqueue(
            self.ctx,
            TOKEN_BATCH_FLUSH,
            dst,
            KIND,
            payload,
            |ctx, dst, ops, body| send_batch(shield, ctx, dst, ops, body),
        );
    }

    /// [`Handle::send`]s `payload` to every one of `members` but this
    /// replica.
    pub(crate) fn broadcast(&mut self, members: &[NodeId], payload: &[u8]) {
        let me = self.shield.node();
        for &peer in members.iter().filter(|&&peer| peer != me) {
            self.send(peer, payload);
        }
    }

    /// Answers a client's request: a write's acknowledgement (no value) or a
    /// read's result.
    pub(crate) fn reply(
        &mut self,
        client_id: u64,
        request_id: u64,
        value: Option<Vec<u8>>,
        found: bool,
    ) {
        self.ctx.reply(ClientReply {
            client_id,
            request_id,
            value,
            found,
            replier: self.shield.node().0,
        });
    }

    /// Answers a client's read of `key` from the local store: the value in
    /// a spare of the group's frame buffers, or `None` for a miss.
    pub(crate) fn reply_local_read(&mut self, client_id: u64, request_id: u64, key: &[u8]) {
        let value = self.read(key).map(|(value, _)| value);
        let found = value.is_some();
        self.reply(client_id, request_id, value, found);
    }

    /// Reads `key` from the local store through the verified path into a
    /// spare of the group's frame buffers
    /// ([`ReplicaStore::read_pooled`]), with its stored write timestamp. A
    /// reply's value goes back to them once its client has seen it; a value
    /// used otherwise goes back through [`Handle::give_back`].
    pub(crate) fn read(&mut self, key: &[u8]) -> Option<(Vec<u8>, Timestamp)> {
        self.store.read_pooled(key, self.ctx.frames())
    }

    /// Gives a buffer [`Handle::read`] lent back to the group's frame
    /// buffers once nothing reads it.
    pub(crate) fn give_back(&mut self, buf: Vec<u8>) {
        self.ctx.frames().give(buf);
    }

    /// Requests [`CftProtocol::on_timer`] with `token`, `delay_ns` from now.
    pub(crate) fn set_timer(&mut self, delay_ns: u64, token: u64) {
        self.ctx.set_timer(delay_ns, token);
    }

    /// The replica's store.
    pub(crate) fn store(&mut self) -> &mut ReplicaStore {
        self.store
    }

    /// Moves the channels to `view`, so a deposed leader's traffic is
    /// refused.
    pub(crate) fn set_view(&mut self, view: u64) {
        self.shield.set_view(view);
    }
}

/// Seals one flushed batch of `ops` ops, encoded in `body`, for `dst` and
/// queues the frame.
fn send_batch(shield: &mut ProtocolShield, ctx: &mut Ctx, dst: NodeId, ops: u32, body: &[u8]) {
    let wire = shield.wrap_batch_in(ctx.frames(), dst, body);
    ctx.send_batch(dst, wire, ops);
}

/// A replica of protocol `P`, native or Recipe-transformed.
pub struct RecipeReplica<P> {
    core: P,
    shield: ProtocolShield,
    /// Outgoing-message batcher (unbatched by default; see
    /// [`RecipeReplica::with_batching`]).
    batcher: Batcher,
    store: ReplicaStore,
}

impl<P: CftProtocol> RecipeReplica<P> {
    /// Builds a Recipe-transformed replica.
    ///
    /// `confidentiality` is the group's policy — a
    /// [`recipe_core::ConfidentialityMode`] resolved by the deployment spec
    /// (see `recipe_shard::DeploymentSpec`), or a legacy `bool` via
    /// `From<bool>`. Confidential replicas also seal their stored values.
    pub fn recipe(
        id: u64,
        membership: Membership,
        confidentiality: impl Into<ConfidentialityMode>,
    ) -> Self {
        let confidentiality = confidentiality.into();
        let mode = ProtocolMode::Recipe { confidentiality };
        Self::build(id, membership, mode, BatchConfig::unbatched())
    }

    /// Builds a native (untransformed) replica.
    #[cfg(test)]
    pub(crate) fn native(id: u64, membership: Membership) -> Self {
        let batch = BatchConfig::unbatched();
        Self::build(id, membership, ProtocolMode::Native, batch)
    }

    /// Enables batching where the protocol batches
    /// ([`Protocol::batches`]): outgoing protocol messages accumulate per
    /// destination and drain as one amortized frame per flush (ops, byte or
    /// time budget — see [`BatchConfig`]). `BatchConfig::unbatched()`
    /// restores one message per frame.
    pub fn with_batching(mut self, config: BatchConfig) -> Self {
        self.batcher = Self::batcher(config);
        self
    }

    fn batcher(config: BatchConfig) -> Batcher {
        Batcher::new(if P::PROTOCOL.batches() {
            config
        } else {
            BatchConfig::unbatched()
        })
    }

    /// The protocol's own state.
    pub(crate) fn core(&self) -> &P {
        &self.core
    }

    /// Writes applied to this replica's store.
    pub(crate) fn applied_writes(&self) -> u64 {
        self.store.applied()
    }

    /// Reads a key directly from the local store (test/verification helper).
    pub fn local_read(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        self.store.get(key).map(|r| r.value)
    }

    /// Messages rejected by the authentication layer.
    pub fn rejected_messages(&self) -> u64 {
        self.shield.rejected()
    }

    /// The core and the handle it runs one handler against.
    fn lend<'a>(&'a mut self, ctx: &'a mut Ctx) -> (&'a mut P, Handle<'a>) {
        let handle = Handle {
            shield: &mut self.shield,
            batcher: &mut self.batcher,
            store: &mut self.store,
            ctx,
        };
        (&mut self.core, handle)
    }
}

impl<P: CftProtocol> Replica for RecipeReplica<P> {
    fn id(&self) -> NodeId {
        self.shield.node()
    }

    fn on_client_request(&mut self, request: ClientRequest, ctx: &mut Ctx) {
        if self.store.is_locked(request.operation.key()) {
            // An in-flight transaction holds the key (2PL isolation): defer
            // by dropping — the client's retransmission resubmits the
            // operation after the transaction committed or aborted. With no
            // transactions in flight this branch is never taken.
            return;
        }
        let (core, mut handle) = self.lend(ctx);
        core.on_client_request(request, &mut handle);
    }

    /// Frames that arrive as shared bytes are copied once and lent to
    /// [`RecipeReplica::on_delivery`].
    fn on_message(&mut self, from: NodeId, bytes: &[u8], ctx: &mut Ctx) {
        self.on_delivery(from, &mut bytes.to_vec(), ctx);
    }

    /// Unwraps the frame where it lies in the lent bytes
    /// ([`ProtocolShield::unwrap`]) and hands each message it delivers to the
    /// core as a slice of them.
    fn on_delivery(&mut self, from: NodeId, bytes: &mut [u8], ctx: &mut Ctx) {
        for (_kind, payload) in self.shield.unwrap(from, bytes) {
            let (core, mut handle) = self.lend(ctx);
            core.on_message(from, &payload, &mut handle);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
        if token == TOKEN_BATCH_FLUSH {
            let shield = &mut self.shield;
            self.batcher.flush_timer(ctx, |ctx, dst, ops, body| {
                send_batch(shield, ctx, dst, ops, body)
            });
            return;
        }
        let (core, mut handle) = self.lend(ctx);
        core.on_timer(token, &mut handle);
    }

    fn coordinates_writes(&self) -> bool {
        self.core.coordinates_writes()
    }

    fn coordinates_reads(&self) -> bool {
        self.core.coordinates_reads()
    }

    fn protocol_counters(&self) -> Option<recipe_telemetry::ProtocolCounters> {
        let mut counters = self.shield.counters();
        self.batcher.fold_counters(&mut counters);
        Some(counters)
    }

    fn protocol_name(&self) -> &'static str {
        if self.shield.mode().is_recipe() {
            P::PROTOCOL.display_name()
        } else {
            P::NAME
        }
    }

    fn current_view(&self) -> u64 {
        self.core.current_view()
    }

    fn channel_send_counter(&self, peer: NodeId) -> u64 {
        self.shield.send_counter_to(peer)
    }

    fn resync_channel_from(&mut self, peer: NodeId, peer_send_counter: u64) {
        self.shield.resync_from(peer, peer_send_counter);
    }

    fn on_restart(&mut self, view: u64, ctx: &mut Ctx) -> RestartReport {
        // Queued batches died with the process.
        self.batcher = Batcher::new(*self.batcher.config());
        let report = self.store.restart();
        let (core, mut handle) = self.lend(ctx);
        core.on_restart(view, &mut handle);
        report
    }

    fn on_peer_down(&mut self, peer: NodeId, ctx: &mut Ctx) {
        let (core, mut handle) = self.lend(ctx);
        core.on_peer_down(peer, &mut handle);
    }

    fn on_peer_up(&mut self, peer: NodeId, ctx: &mut Ctx) {
        let (core, mut handle) = self.lend(ctx);
        core.on_peer_up(peer, &mut handle);
    }
}

impl<P: CftProtocol> StoreReplica for RecipeReplica<P> {
    const PROTOCOL: Protocol = P::PROTOCOL;

    fn store(&mut self) -> &mut ReplicaStore {
        &mut self.store
    }
}

impl<P: CftProtocol> BuildReplica for RecipeReplica<P> {
    fn build(id: u64, membership: Membership, mode: ProtocolMode, batch: BatchConfig) -> Self {
        let id = NodeId(id);
        let shield = ProtocolShield::new(id, &membership, mode);
        RecipeReplica {
            store: ReplicaStore::new(shield.store_config(), id, P::STAMPING),
            core: P::new(id, membership),
            shield,
            batcher: Self::batcher(batch),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_cluster, TxnVote};
    use recipe_core::Operation;
    use recipe_net::CrashPlan;
    use recipe_sim::{CostProfile, SimCluster, SimConfig};

    /// The least a core can be: node 0 applies a write, tells every peer its
    /// key and answers; a peer records what it was told.
    struct Tell {
        id: NodeId,
        membership: Membership,
        requests: u64,
        told: Vec<Vec<u8>>,
        restarts: u64,
    }

    impl CftProtocol for Tell {
        const PROTOCOL: Protocol = Protocol::Raft;
        const NAME: &'static str = "Tell";
        const STAMPING: Stamping = Stamping::Sequence;

        fn new(id: NodeId, membership: Membership) -> Self {
            Tell {
                id,
                membership,
                requests: 0,
                told: Vec::new(),
                restarts: 0,
            }
        }

        fn on_client_request(&mut self, request: ClientRequest, h: &mut Handle<'_>) {
            self.requests += 1;
            let key = request.operation.key();
            h.store().apply(key, b"v".to_vec());
            h.broadcast(self.membership.members(), key);
            h.reply(request.client_id, request.request_id, None, false);
        }

        fn on_message(&mut self, _from: NodeId, payload: &[u8], _h: &mut Handle<'_>) {
            self.told.push(payload.to_vec());
        }

        fn coordinates_writes(&self) -> bool {
            self.id == NodeId(0)
        }

        fn coordinates_reads(&self) -> bool {
            self.id == NodeId(0)
        }

        fn on_restart(&mut self, _view: u64, _h: &mut Handle<'_>) {
            self.restarts += 1;
        }
    }

    fn put(key: &[u8]) -> Operation {
        Operation::Put {
            key: key.to_vec(),
            value: b"v".to_vec(),
        }
    }

    fn cluster(batch: BatchConfig) -> SimCluster<RecipeReplica<Tell>> {
        crashing_cluster(batch, CrashPlan::none())
    }

    fn crashing_cluster(batch: BatchConfig, plan: CrashPlan) -> SimCluster<RecipeReplica<Tell>> {
        let replicas = build_cluster(3, 1, |id, m| {
            RecipeReplica::<Tell>::recipe(id, m, false).with_batching(batch)
        });
        let mut config = SimConfig::uniform(3, CostProfile::recipe());
        config.crash_plan = plan;
        let mut cluster = SimCluster::new(replicas, config);
        cluster.seed_initial_events();
        cluster
    }

    fn told(cluster: &SimCluster<RecipeReplica<Tell>>, node: u64) -> &[Vec<u8>] {
        &cluster.replica(NodeId(node)).core().told
    }

    #[test]
    fn a_request_for_a_locked_key_never_reaches_the_core() {
        let mut cluster = cluster(BatchConfig::unbatched());
        let leader = cluster.replica_mut(NodeId(0));
        assert_eq!(
            leader
                .store()
                .txn_prepare(7, [(&b"k"[..], Some(&b"v"[..]))]),
            TxnVote::Granted
        );
        assert!(cluster.submit_at(0, 1, 1, put(b"k")));
        // Held back, first delivery and retransmissions alike.
        cluster.run_until(250_000_000);
        assert_eq!(cluster.replica(NodeId(0)).core().requests, 0);
        assert!(cluster.drain_completions().is_empty());
        // The transaction resolves: the next retransmission goes through.
        cluster.replica_mut(NodeId(0)).store().txn_abort(7);
        cluster.run_until(350_000_000);
        assert_eq!(cluster.replica(NodeId(0)).core().requests, 1);
        assert_eq!(cluster.drain_completions().len(), 1);
        assert_eq!(told(&cluster, 1), [b"k".to_vec()]);
    }

    #[test]
    fn the_flush_timer_sends_a_partial_batch_as_one_frame() {
        let mut cluster = cluster(BatchConfig::of_ops(8));
        for (request, key) in [b"a", b"b", b"c"].into_iter().enumerate() {
            assert!(cluster.submit_at(0, request as u64, 1, put(key)));
        }
        // Three tellings per peer: under the ops budget, so they wait for
        // the time budget and then leave as one frame per peer.
        cluster.run_until(50_000);
        assert!(told(&cluster, 1).is_empty() && told(&cluster, 2).is_empty());
        cluster.run_until(10_000_000);
        let keys = [b"a".to_vec(), b"b".to_vec(), b"c".to_vec()];
        assert_eq!(told(&cluster, 1), keys);
        assert_eq!(told(&cluster, 2), keys);
        let counters = cluster.replica(NodeId(0)).protocol_counters().unwrap();
        assert_eq!((counters.sealed_frames, counters.sealed_ops), (2, 6));
        assert_eq!(
            (counters.batch_flushes, counters.batch_timer_flushes),
            (2, 2)
        );
    }

    #[test]
    fn a_restart_drops_queued_batches_and_keeps_batching() {
        // Node 0 crashes with its telling of `a` still queued, and comes
        // back: the queue died with the process, the applied write did not.
        let plan = CrashPlan::none().crash_recover(NodeId(0), 50_000, 60_000);
        let mut cluster = crashing_cluster(BatchConfig::of_ops(8), plan);
        assert!(cluster.submit_at(0, 1, 1, put(b"a")));
        cluster.run_until(10_000_000);
        assert!(told(&cluster, 1).is_empty() && told(&cluster, 2).is_empty());
        let leader = cluster.replica_mut(NodeId(0));
        assert_eq!(leader.core().restarts, 1);
        assert_eq!(leader.local_read(b"a"), Some(b"v".to_vec()));
        let counters = leader.protocol_counters().unwrap();
        assert_eq!((counters.sealed_frames, counters.batch_flushes), (0, 0));
        // The batcher it came back with still batches.
        assert!(cluster.submit_at(10_000_000, 2, 1, put(b"b")));
        cluster.run_until(20_000_000);
        assert_eq!(told(&cluster, 1), [b"b".to_vec()]);
        let counters = cluster.replica(NodeId(0)).protocol_counters().unwrap();
        assert_eq!(
            (counters.batch_flushes, counters.batch_timer_flushes),
            (2, 2)
        );
    }
}
