//! The replica interface the simulator drives.
//!
//! A protocol implementation (R-Raft, R-CR, R-ABD, R-AllConcur, PBFT, Damysus, …) is
//! a deterministic state machine implementing [`Replica`]. The simulator calls into
//! it for client requests, peer messages and timers; the replica communicates back
//! through the [`Ctx`] it is handed — queuing outbound messages, client replies and
//! timer requests that the simulator then schedules with the appropriate virtual-time
//! costs.

use recipe_core::{ClientReply, ClientRequest, FramePool, Operation};
use recipe_net::NodeId;
use recipe_tee::TrustedInstant;

/// What a handler invocation works with besides the replica: the effects it
/// queues — outbound `(dst, bytes, ops)` messages (`ops` > 1 for batch
/// frames, so the cost model can charge fixed per-frame overhead once and
/// per-op marginal work per op), client replies and `(delay_ns, token)` timer
/// requests — and the free list of frame buffers its frames are built in.
#[derive(Debug, Default)]
pub(crate) struct Effects {
    pub(crate) outbox: Vec<(NodeId, Vec<u8>, u32)>,
    pub(crate) replies: Vec<ClientReply>,
    pub(crate) timers: Vec<(u64, u64)>,
    pub(crate) frames: FramePool,
}

/// The per-invocation context a replica uses to interact with the world.
///
/// The simulator lends it the group's buffers for one handler call: the
/// effect queues, empty, and the group's [`FramePool`]. A Recipe replica
/// builds each frame it sends in a spare from [`Ctx::frames`]; the group
/// gives the buffer back once the frame was delivered (after the receiving
/// handler returns), dropped by the network, replaced by a tampered copy, or
/// sent to a crashed node. A replica that sends `Vec`s of its own leaves the
/// free list as it was: it takes back no more buffers than it lent.
#[derive(Debug)]
pub struct Ctx {
    now: TrustedInstant,
    node: NodeId,
    /// The group's effect queues and frame free list, lent for this call.
    effects: Effects,
}

impl Ctx {
    /// Creates a context for a handler invocation at virtual time `now`,
    /// queuing into `effects` — empty buffers the simulator lends it, so a
    /// handler's first `send`, `reply` or `set_timer` allocates nothing.
    pub(crate) fn new(node: NodeId, now: TrustedInstant, effects: Effects) -> Self {
        Ctx { now, node, effects }
    }

    /// The current virtual time.
    pub fn now(&self) -> TrustedInstant {
        self.now
    }

    /// The group's free list of frame buffers: a frame built in one of its
    /// spares goes back to it once the network is done with the frame, and
    /// a reply's value once its client has seen it.
    pub fn frames(&mut self) -> &mut FramePool {
        &mut self.effects.frames
    }

    /// Queues `bytes` for delivery to `dst`.
    pub fn send(&mut self, dst: NodeId, bytes: Vec<u8>) {
        self.effects.outbox.push((dst, bytes, 1));
    }

    /// Queues a batch frame of `ops` protocol messages for delivery to `dst`.
    /// The simulator charges the frame's fixed transport/auth cost once and the
    /// per-op marginal cost `ops` times (see [`crate::Work::Send`]).
    pub fn send_batch(&mut self, dst: NodeId, bytes: Vec<u8>, ops: u32) {
        self.effects.outbox.push((dst, bytes, ops.max(1)));
    }

    /// Queues `bytes` for delivery to every node in `peers` but this one:
    /// a copy for each, and `bytes` itself for the last.
    pub fn broadcast(&mut self, peers: &[NodeId], bytes: Vec<u8>) {
        let me = self.node;
        let mut peers = peers.iter().filter(|&&peer| peer != me).peekable();
        while let Some(&peer) = peers.next() {
            if peers.peek().is_none() {
                return self.send(peer, bytes);
            }
            self.send(peer, bytes.clone());
        }
    }

    /// Queues a reply to a client.
    pub fn reply(&mut self, reply: ClientReply) {
        self.effects.replies.push(reply);
    }

    /// Requests a timer callback `delay_ns` from now, tagged with `token`.
    pub fn set_timer(&mut self, delay_ns: u64, token: u64) {
        self.effects.timers.push((delay_ns, token));
    }

    /// Drains the queued effects (used by the simulator).
    pub(crate) fn take_effects(self) -> Effects {
        self.effects
    }
}

/// What a restarting replica salvaged while rehydrating rollback-protected
/// state: entries that passed the store's verified-read path (sealed value +
/// trusted counter check) versus entries discarded because verification
/// failed. The simulator charges the re-verification work on the virtual
/// clock and attributes it to `charge.recovery_ns`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestartReport {
    /// Entries that passed verification and were kept.
    pub verified_entries: u64,
    /// Entries discarded because the sealed value failed verification.
    pub discarded_entries: u64,
    /// Total key+value bytes re-verified (drives the MAC cost of rehydration).
    pub payload_bytes: u64,
}

/// What a live peer hands a restarting one (the §3.7 "state snapshot of the
/// current epoch"), exported by [`Replica::export_recovery_state`] and applied
/// by [`Replica::on_restart`]. The default — nothing — is what a joiner with
/// no live peer restarts from: its own sealed state only.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryState {
    /// The peer's full verified state; `None` when a record failed
    /// verification (never ship unverified state).
    pub snapshot: Option<Vec<RangeEntry>>,
    /// Every two-phase-commit prepare record the peer knows, its own and the
    /// passive copies it keeps for others, as `(txn_id, ops)`: a `Get` locks
    /// its key, a `Put` also stages the write. The joiner keeps them as
    /// passive copies, so if it later re-wins coordinatorship it can adopt
    /// the full in-flight set — its own pre-crash staging was volatile
    /// enclave state.
    pub prepares: Vec<(u64, Vec<Operation>)>,
}

/// A deterministic protocol replica: seven handlers every protocol writes,
/// and the hooks crash recovery must reach on any replica. Everything below
/// the protocol — the store, two-phase-commit participation, range state
/// transfer — is not on this trait (see `recipe_protocols::ReplicaStore`).
pub trait Replica {
    /// This replica's node id.
    fn id(&self) -> NodeId;

    /// Handles a client request routed to this replica (it was selected as the
    /// operation's coordinator).
    fn on_client_request(&mut self, request: ClientRequest, ctx: &mut Ctx);

    /// Handles a message from peer `from`. `bytes` is whatever a peer passed to
    /// [`Ctx::send`] — for Recipe-transformed protocols, a serialized
    /// [`recipe_core::ShieldedMessage`].
    fn on_message(&mut self, from: NodeId, bytes: &[u8], ctx: &mut Ctx);

    /// How the simulator delivers a message: [`Replica::on_message`] with
    /// the buffer the delivery owns lent exclusively, so a replica may work
    /// in it — a Recipe replica decrypts an admitted sealed frame where it
    /// lies. Every delivery has a buffer of its own: a duplicate or a
    /// replay the network makes never shares one. Defaults to
    /// [`Replica::on_message`].
    fn on_delivery(&mut self, from: NodeId, bytes: &mut [u8], ctx: &mut Ctx) {
        self.on_message(from, bytes, ctx);
    }

    /// Handles a timer previously requested through [`Ctx::set_timer`].
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx);

    /// True if this replica can act as the coordinator for write operations.
    fn coordinates_writes(&self) -> bool;

    /// True if this replica can act as the coordinator for read operations.
    fn coordinates_reads(&self) -> bool;

    /// Protocol name, used in experiment output.
    fn protocol_name(&self) -> &'static str;

    /// Telemetry snapshot of the replica's shield/batcher counters, if the
    /// protocol keeps any. The simulator folds these into the attached
    /// telemetry at export time; `None` (the default) contributes nothing.
    fn protocol_counters(&self) -> Option<recipe_telemetry::ProtocolCounters> {
        None
    }

    // ------------------------------------------------------------------
    // Crash–recovery hooks. All default to no-ops so protocols without a
    // crash–recovery story keep compiling (and crash-free runs stay
    // bit-identical — none of these is called unless a node actually
    // crashes or recovers).
    // ------------------------------------------------------------------

    /// The view/configuration number this replica currently operates in.
    /// View-less protocols (R-ABD, R-AllConcur) keep the default `0`.
    fn current_view(&self) -> u64 {
        0
    }

    /// The trusted send counter toward `peer` — how many frames this node has
    /// sealed on the `self → peer` channel. Read by the simulator acting as
    /// the attestation service while re-attesting a restarted peer.
    fn channel_send_counter(&self, peer: NodeId) -> u64 {
        let _ = peer;
        0
    }

    /// Re-attestation channel resync: fast-forward the receive counter for
    /// `peer → self` to `peer_send_counter` (frames sealed earlier are
    /// rejected as replays afterwards — stale traffic cannot reach a
    /// recovering replica) and drop any buffered future frames from `peer`.
    fn resync_channel_from(&mut self, peer: NodeId, peer_send_counter: u64) {
        let _ = (peer, peer_send_counter);
    }

    /// Exports what a recovering peer needs of this replica's state. The
    /// attestation service asks the first live peer.
    fn export_recovery_state(&mut self) -> RecoveryState {
        RecoveryState::default()
    }

    /// Restart after a crash, rollback-protected: drop all volatile protocol
    /// state, adopt `view` (the view the attestation service observed among
    /// live peers), rehydrate from sealed storage only — re-verifying every
    /// host-resident record and discarding what fails — then apply `state`
    /// (a live peer's, see [`Replica::export_recovery_state`]) so writes
    /// committed and transactions prepared while the node slept are caught
    /// up before it serves anything. Returns what was salvaged so the
    /// simulator can charge the re-verification work.
    fn on_restart(&mut self, view: u64, state: RecoveryState, ctx: &mut Ctx) -> RestartReport {
        let _ = (view, state, ctx);
        RestartReport::default()
    }

    /// Deterministic failure notice from the trusted configuration service:
    /// `peer` has been observed crashed. Protocols with a static topology
    /// (R-CR's chain, PBFT's primary) reconfigure around the dead node here;
    /// protocols with their own failure detector (R-Raft) can ignore it.
    fn on_peer_down(&mut self, peer: NodeId, ctx: &mut Ctx) {
        let _ = (peer, ctx);
    }

    /// Deterministic recovery notice from the trusted configuration service:
    /// `peer` has been re-attested and rejoined. Inverse of
    /// [`Replica::on_peer_down`].
    fn on_peer_up(&mut self, peer: NodeId, ctx: &mut Ctx) {
        let _ = (peer, ctx);
    }
}

/// One exported key-value record of a state-transfer range: the unit shipped
/// by snapshot and catch-up chunks during an online shard migration. The
/// `(ts_logical, ts_node)` pair carries the store's write timestamp opaquely —
/// the simulator never interprets it; importing replicas hand it back to their
/// store so timestamp-ordered protocols (R-ABD) keep their write rule intact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeEntry {
    /// The key.
    pub key: Vec<u8>,
    /// The (plaintext) value as committed on the exporting replica.
    pub value: Vec<u8>,
    /// Logical half of the write timestamp stored for the key.
    pub ts_logical: u64,
    /// Node half (tiebreaker) of the write timestamp stored for the key.
    pub ts_node: u64,
}

impl RangeEntry {
    /// Bytes this entry contributes to a transfer chunk (key + value payload).
    pub fn payload_len(&self) -> usize {
        self.key.len() + self.value.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_queues_effects() {
        let mut ctx = Ctx::new(
            NodeId(1),
            TrustedInstant::from_millis(5),
            Effects::default(),
        );
        assert_eq!(ctx.now(), TrustedInstant::from_millis(5));

        ctx.send(NodeId(2), vec![1, 2]);
        let broadcast = vec![9];
        let broadcast_at = broadcast.as_ptr();
        ctx.broadcast(&[NodeId(0), NodeId(1), NodeId(2)], broadcast);
        ctx.send_batch(NodeId(0), vec![7], 16);
        ctx.reply(ClientReply {
            client_id: 4,
            request_id: 1,
            value: None,
            found: false,
            replier: 1,
        });
        ctx.set_timer(1_000, 7);

        let Effects {
            outbox,
            replies,
            timers,
            ..
        } = ctx.take_effects();
        assert_eq!(outbox.len(), 4); // broadcast skips self
        assert_eq!(outbox[0], (NodeId(2), vec![1, 2], 1));
        assert_eq!(outbox[3], (NodeId(0), vec![7], 16));
        assert!(outbox.iter().all(|(dst, _, _)| *dst != NodeId(1)));
        // The first peer gets a copy, the last the bytes themselves.
        assert_eq!(outbox[1], (NodeId(0), vec![9], 1));
        assert_ne!(outbox[1].1.as_ptr(), broadcast_at);
        assert_eq!(outbox[2].1.as_ptr(), broadcast_at);
        assert_eq!(replies.len(), 1);
        assert_eq!(timers, vec![(1_000, 7)]);
    }
}
