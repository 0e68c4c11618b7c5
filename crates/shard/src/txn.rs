//! The cross-shard transaction coordinator: two-phase commit through the
//! shield layer.
//!
//! A [`recipe_core::Request::Txn`] may touch keys on several replica groups.
//! The driver-side coordinator groups the sub-operations by owning shard and
//! runs classic vote-then-decide 2PC against the participant shard leaders,
//! each reached over the client's standing *lane* to that shard
//! ([`recipe_protocols::TxnLanes`]): a shielded channel pair whose keys are
//! provisioned at the first transaction the client and the shard share and
//! whose counters run on for the rest of the run — the paper's initialization
//! phase paid once, not per transaction.
//!
//! 1. **Prepare** — each participant leader locks the touched keys in its
//!    partitioned store and stages the writes (all-or-nothing per
//!    participant; see `recipe_kv::PartitionedKvStore::txn_prepare`), then votes.
//! 2. **Decide** — all votes granted ⇒ **Commit**: each leader applies its
//!    staged writes through its normal apply path and the coordinator
//!    installs the applied records on the group's followers (the
//!    migration-import idiom, so replicas never diverge). Any conflict vote
//!    ⇒ **Abort**: every participant discards its staged writes, and the
//!    client retries the whole transaction after a deterministic backoff
//!    with per-client jitter.
//!
//! The coordinator is part of the driver's one `Engine`: `txn_begin` takes
//! a routed transaction (or retries it whole while a participant group has
//! no leader), and `txn_advance` resolves it where its last phase lands. A
//! participant keeps its operations with the ring arc routing resolved for
//! each, so a commit is accounted from them where they lie, through the
//! driver's one commit accounting (`record_commit`), before the client takes
//! the operations back (`Client::reclaim`).
//!
//! Every 2PC frame — prepare, vote, commit, abort, ack — is a
//! [`recipe_core::TxnFrame`]: MAC'd under the lane's attestation-provisioned
//! key, stamped with the lane's trusted counter, carrying its transaction id
//! under the MAC, and AEAD-sealed whenever **any** participant shard's
//! confidentiality policy is confidential (the stricter-wins rule shard
//! migrations use, decided per transaction: one lane carries sealed and
//! plaintext transactions). A lane is as strictly sequential as its client:
//! a closed-loop client has one transaction in flight (`txn_begin` asserts
//! it) and every phase is answered by every participant before the next
//! begins. What each of key, counter, transaction id and the lane's source
//! check rejects is argued beside `recipe_protocols::TxnLanes`; none of that logic
//! lives here. Frames cross the plane between groups ([`Plane`], under
//! [`crate::DeploymentSpec::with_plane_fault_plan`]) that migration chunks
//! cross too, each landing when the plane's [`recipe_net::Link`] says, its
//! delay included: a dropped, tampered or reordered frame is retransmitted as the
//! *same sealed bytes* — the sender's cached frame, lent to the network,
//! never copied per attempt — after [`RETRY_TIMEOUT_NS`] (2 ms); re-sealing
//! would burn a counter slot and wedge the lane. Participants answer re-delivered requests from a cached
//! sealed response, which makes every phase exactly-once end to end.
//!
//! Deadlock freedom: a participant's prepare either locks *all* its keys or
//! none, and the coordinator collects every vote before deciding, so no
//! transaction ever waits while holding a partial lock set.
//!
//! Cost accounting: each prepare/commit charges the participant leader (and
//! each follower install) through [`recipe_sim::ProtocolCostModel`]'s
//! transaction terms, with EPC pressure evaluated against the shard's total
//! in-flight staged bytes — many large open prepares cross the EPC cliff
//! exactly like oversized batch frames (§B.3).
//!
//! Participant failover: a granted prepare is **replicated into the
//! participant group** — every live follower records a passive copy of the
//! prepare (the group replication round trip the cost model already charges
//! per phase is the durability barrier for exactly this record). When the
//! participant leader crashes between prepare and commit, the group's next
//! write coordinator *adopts* the replicated records (promoting them into
//! real locked prepares; see `recipe_kv::PartitionedKvStore::txn_adopt_replicated`),
//! and the coordinator — which holds the frame for the crashed group and
//! retransmits after [`RETRY_TIMEOUT_NS`] — lands the decision on
//! the new leader: no transaction is lost, duplicated or parked. The lane's
//! participant endpoint stands for the shard, not for whichever replica
//! leads it, so it and its counters outlive the crash and the retransmitted
//! frame is still the next in sequence. A recovered replica restarts with a
//! clean transaction table (`txn_reset`; volatile enclave state) and relies
//! on the group's surviving records.

use std::collections::BTreeMap;

use recipe_core::{Operation, Request, TxnBody, TxnBodyRef};
use recipe_kv::ExportedEntry;
use recipe_net::{FaultPlan, Landing, Link, NodeId};
use recipe_protocols::{
    MigrationChunk, StoreReplica, TxnLane, TxnLanes, TxnVote, MAX_SHARDS, MIGRATION_ENDPOINT_IDS,
    TXN_ENDPOINT_IDS,
};
use recipe_sim::{Work, COST_MODEL};
use recipe_telemetry::{ChargeKind, SpanKind};
use recipe_workload::stable_key_hash;

use crate::driver::{bucket, DriverWork, Engine, Reply};
use crate::spec::MAX_REPLICAS_PER_SHARD;

/// How long the coordinator waits for a phase round trip before
/// retransmitting the frame (same sealed bytes), virtual ns.
const RETRY_TIMEOUT_NS: u64 = 2_000_000;

/// Base client backoff after an aborted (lock-conflict) transaction attempt,
/// virtual ns. A per-client jitter goes on top so two symmetrically
/// conflicting transactions cannot re-collide forever.
const CONFLICT_BACKOFF_NS: u64 = 400_000;

/// Counters of the transaction machinery for one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct TxnStats {
    /// Transaction attempts the coordinator started 2PC for.
    pub started: u64,
    /// Transactions that committed atomically on every participant.
    pub committed: u64,
    /// Attempts aborted on a lock conflict (the client retried).
    pub aborted: u64,
    /// Committed transactions that spanned more than one shard.
    pub cross_shard_committed: u64,
    /// Participants summed over every attempt started, committed or
    /// aborted: each costs [`FRAMES_PER_PARTICIPANT`] frames.
    pub participants: u64,
    /// Operations carried by committed transactions.
    pub committed_ops: u64,
    /// Whole-transaction re-routes after a `WrongShard` redirect (a
    /// migration moved a touched key; the client re-resolves every key
    /// against the new epoch before 2PC starts).
    pub(crate) wrong_shard_retries: u64,
    /// Whole-transaction backoffs because a touched range was draining for
    /// a migration cutover.
    pub(crate) refusal_backoffs: u64,
    /// 2PC frames sent (requests + responses, including retransmissions).
    pub frames_sent: u64,
    /// 2PC frames the adversary dropped (each triggers a retransmission).
    pub frames_dropped: u64,
    /// 2PC frames a receiving shield rejected (tampered, duplicated or
    /// replayed deliveries — never executed).
    pub frames_rejected: u64,
    /// Frames that travelled AEAD-sealed (a participant was confidential).
    pub sealed_frames: u64,
    /// Total wire bytes of all sent 2PC frames.
    pub wire_bytes: u64,
    /// Prepare votes denied by a lock conflict.
    pub prepare_conflicts: u64,
    /// Committed-write records installed on participant followers. On a
    /// run no replica crashed in, each committed write of a transaction is
    /// installed on every follower of its group: `n − 1` for `n` replicas.
    pub participant_installs: u64,
    /// 2PC endpoints launched: one per client that ran a transaction, one
    /// per shard that took part in one ([`recipe_protocols::TxnLanes`]).
    pub endpoints: u64,
    /// 2PC lanes provisioned: one per (client, shard) pair that shared a
    /// transaction, each costing its two endpoints' keys and counters once.
    pub lanes: u64,
}

/// 2PC frames one participant of one attempt costs: prepare, vote, decision
/// (commit or abort) and acknowledgement, one frame each between the
/// coordinator and the participant's leader — the two round trips of Gray's
/// two-phase commit ("Notes on Data Base Operating Systems", 1978), which
/// this coordinator runs unchanged. A frame the network drops costs one
/// resend of the same bytes, so a run sends `FRAMES_PER_PARTICIPANT ·
/// participants + frames_dropped` frames ([`TxnStats`]).
pub const FRAMES_PER_PARTICIPANT: u64 = 4;

/// Which 2PC phase a transaction is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxnPhase {
    Preparing,
    Committing,
    Aborting,
}

/// Round-trip state of the current phase on one participant.
#[derive(Default)]
struct Participant {
    shard: usize,
    /// Sub-operations routed to this shard, in client order.
    ops: Vec<Operation>,
    /// The ring arc of each sub-operation, in operation order: where
    /// routing resolved it, read by the drain check and the commit's
    /// accounting.
    arcs: Vec<usize>,
    /// The sealed request of the current phase, cached for retransmission.
    /// Both wires go back to the lanes' free list when the next phase is
    /// sealed or the transaction resolves.
    request_wire: Vec<u8>,
    /// The participant's sealed response, cached so a request re-delivered
    /// after a lost response is answered without re-execution.
    response_wire: Option<Vec<u8>>,
    /// Virtual time the participant finished executing the current phase.
    processed_finish: u64,
    /// The round trip of the current phase completed (response delivered).
    done: bool,
    /// Virtual time the response reached the coordinator.
    ready_at: u64,
    /// The participant's prepare vote, once delivered.
    granted: Option<bool>,
    /// Total key+value payload bytes of this participant's sub-operations.
    payload_bytes: usize,
    /// Payload bytes of the staged writes (Put operations only).
    staged_bytes: usize,
}

/// One transaction in flight at the coordinator.
struct InflightTxn {
    txn_id: u64,
    client_id: u64,
    request_id: u64,
    issued_at: u64,
    phase: TxnPhase,
    /// Stricter-wins confidentiality over all participants: one confidential
    /// shard seals every frame of the transaction, so the untrusted host
    /// cannot learn the transaction's shape from its plaintext legs.
    sealed: bool,
    participants: Vec<Participant>,
    /// The client's request, its operations handed to the participants:
    /// refilled participant-major when the transaction resolves, the retry
    /// going out in it after an abort and the client taking it back after a
    /// commit.
    request: Vec<Operation>,
}

impl InflightTxn {
    fn phase_done(&self) -> bool {
        self.participants.iter().all(|p| p.done)
    }

    fn phase_ready_at(&self) -> u64 {
        self.participants
            .iter()
            .map(|p| p.ready_at)
            .max()
            .unwrap_or(self.issued_at)
    }

    /// The client's request, refilled with its operations
    /// participant-major: the retry after an abort, the spent request given
    /// back to its client after a commit.
    fn take_request(&mut self) -> Vec<Operation> {
        let mut request = std::mem::take(&mut self.request);
        request.extend(self.participants.iter_mut().flat_map(|p| p.ops.drain(..)));
        request
    }
}

/// Which way a leg of a round trip travels on its lane.
#[derive(Clone, Copy)]
enum Leg {
    /// Coordinator → participant: prepare, commit, abort.
    Request,
    /// Participant → coordinator: vote, ack.
    Response,
}

impl Leg {
    /// Opens `bytes` at the receiving end of this leg of `lane`
    /// ([`TxnLane::open_request`]).
    fn open<'a>(
        self,
        lane: &mut TxnLane<'_>,
        txn_id: u64,
        bytes: &'a [u8],
        opened: &'a mut Option<Vec<u8>>,
    ) -> Option<TxnBodyRef<'a>> {
        match self {
            Leg::Request => lane.open_request(txn_id, bytes, opened),
            Leg::Response => lane.open_response(txn_id, bytes, opened),
        }
    }
}

/// The round trip a leg belongs to: lane `(client_id, shard)`, serving
/// transaction `txn_id`.
#[derive(Clone, Copy)]
struct Trip {
    txn_id: u64,
    client_id: u64,
    shard: usize,
    /// The transaction's frames travel AEAD-sealed.
    sealed: bool,
}

/// Driver-side transaction coordinator state for one run.
pub(crate) struct TxnManager {
    pub(crate) stats: TxnStats,
    inflight: BTreeMap<u64, InflightTxn>,
    next_txn_id: u64,
    /// The standing shielded channels, one per (client, shard) that ever
    /// shared a transaction; they outlive every transaction and every
    /// participant leader.
    lanes: TxnLanes,
    /// In-flight staged bytes per shard (EPC pressure input).
    staged_per_shard: Vec<usize>,
    /// What resolved transactions leave behind, for the next ones.
    spares: Spares,
}

/// The coordinator's free lists: emptied participant records and
/// participant lists of resolved transactions (no more than were ever in
/// flight at once), and the list each participant's commit fills and
/// empties again.
#[derive(Default)]
struct Spares {
    participants: Vec<Participant>,
    lists: Vec<Vec<Participant>>,
    /// The applied records of the commit being installed, in buffers of the
    /// participant leader's ([`recipe_protocols::ReplicaStore::txn_commit`]).
    committed: Vec<ExportedEntry>,
}

impl TxnManager {
    pub(crate) fn new(shards: usize) -> Self {
        TxnManager {
            stats: TxnStats::default(),
            inflight: BTreeMap::new(),
            next_txn_id: 0,
            lanes: TxnLanes::default(),
            staged_per_shard: vec![0; shards],
            spares: Spares::default(),
        }
    }

    /// Files a resolved transaction's participants and their list, emptied,
    /// their frames given back to the lanes.
    fn retire(&mut self, participants: &mut Vec<Participant>) {
        for mut p in participants.drain(..) {
            self.recycle(&mut p);
            p.ops.clear();
            p.arcs.clear();
            self.spares.participants.push(p);
        }
        self.spares.lists.push(std::mem::take(participants));
    }

    /// The run's counters, the lanes' among them.
    pub(crate) fn stats(&self) -> TxnStats {
        TxnStats {
            endpoints: self.lanes.endpoints(),
            lanes: self.lanes.lanes(),
            ..self.stats
        }
    }

    /// True when no transaction is in flight.
    pub(crate) fn is_idle(&self) -> bool {
        self.inflight.is_empty()
    }

    /// In-flight transactions with a participant on `shard` whose arcs
    /// intersect `arcs` (ascending) — these block a migration drain exactly
    /// like outstanding single-key operations do.
    pub(crate) fn inflight_on(&self, shard: usize, arcs: &[usize]) -> usize {
        self.inflight
            .values()
            .filter(|txn| {
                txn.participants.iter().any(|p| {
                    p.shard == shard && p.arcs.iter().any(|arc| arcs.binary_search(arc).is_ok())
                })
            })
            .count()
    }

    /// Gives the lanes back the spare a sealed body was opened in, if one
    /// was.
    fn give_opened(&mut self, opened: Option<Vec<u8>>) {
        if let Some(buf) = opened {
            self.lanes.recycle(buf);
        }
    }

    /// Gives the lanes back the buffers of `p`'s sealed request and
    /// response, once neither will be sent again.
    fn recycle(&mut self, p: &mut Participant) {
        self.lanes.recycle(std::mem::take(&mut p.request_wire));
        if let Some(response) = p.response_wire.take() {
            self.lanes.recycle(response);
        }
    }
}

/// The network model between groups: every frame the driver carries from
/// one group to another, 2PC legs and migration chunks alike, crosses its
/// [`Link`] under [`crate::DeploymentSpec::with_plane_fault_plan`]. The
/// driver plays both ends of each frame, so a crossing opens it at the
/// receiving end then and there.
pub(crate) struct Plane {
    link: Link,
    wire_seq: u64,
}

impl Plane {
    /// Synthetic address of the 2PC coordinator, for the link's channel
    /// bookkeeping (replays are picked per (src, dst) pair).
    const COORDINATOR: NodeId = NodeId(u64::MAX - 1);

    /// The plane under `plan`, its fault stream apart from the groups'.
    pub(crate) fn new(plan: FaultPlan, seed: u64) -> Self {
        let seed = seed.wrapping_add(stable_key_hash(b"txn-coordinator-faults"));
        Plane {
            link: Link::new(plan, seed, COST_MODEL.link_latency_ns),
            wire_seq: 0,
        }
    }

    /// Synthetic address of group `shard`, as a 2PC participant and as a
    /// migration's donor or recipient.
    pub(crate) fn group(shard: usize) -> NodeId {
        NodeId(u64::MAX - 2 - shard as u64)
    }

    /// Puts `wire` on the plane's link, sent at `sent_at` from `src` to
    /// `dst`: where and when it lands, and the adversary's copy
    /// ([`Landing::open`] delivers them to the receiving end).
    pub(crate) fn send(
        &mut self,
        (src, dst): (NodeId, NodeId),
        sent_at: u64,
        wire: &[u8],
    ) -> Landing {
        self.wire_seq += 1;
        self.link.send(self.wire_seq, src, dst, sent_at, wire)
    }
}

// No two things share a node id, for every replica, shard and client count
// `DeploymentSpec::validate` admits: group-local replica ids sit at the
// bottom of the space, the migration endpoints and the 2PC endpoints in a
// block each above them (ordered where `recipe_protocols` defines them), the
// plane's synthetic addresses at the very top.
const _: () = {
    let lowest_synthetic = u64::MAX - 2 - (MAX_SHARDS as u64 - 1);
    assert!(MAX_REPLICAS_PER_SHARD as u64 <= MIGRATION_ENDPOINT_IDS.start);
    assert!(TXN_ENDPOINT_IDS.end <= lowest_synthetic);
};

impl<R: StoreReplica> Engine<'_, R> {
    /// Starts 2PC for one routed transaction. `per_op` pairs each operation
    /// of `ops` with its `(arc, shard)` placement, resolved by the caller
    /// under the client's refreshed router epoch. An empty transaction
    /// commits trivially; one with a participant group that has no live
    /// write coordinator now is retried whole after 1 ms.
    pub(crate) fn txn_begin(
        &mut self,
        client_id: u64,
        request_id: u64,
        mut ops: Vec<Operation>,
        per_op: &[(usize, usize)],
        at: u64,
    ) {
        debug_assert_eq!(ops.len(), per_op.len());
        if ops.is_empty() {
            // The client moves on.
            let next_at = at + COST_MODEL.client_think_ns;
            return self.schedule(next_at, client_id, DriverWork::Fresh);
        }
        // A lane is sequential because its client is: two transactions of
        // one client interleaved on a lane would each wait for ever behind
        // the other's counter slots.
        assert!(
            self.txns
                .inflight
                .values()
                .all(|txn| txn.client_id != client_id),
            "client {client_id} began a transaction with one in flight"
        );
        // Every participant needs a live leader before locks are taken
        // anywhere (a crashed group would park the other groups' locks).
        if per_op
            .iter()
            .any(|&(_, shard)| self.cluster.shards[shard].write_coordinator().is_none())
        {
            let retry = DriverWork::Retry(request_id, Request::Txn(ops));
            return self.schedule(at + 1_000_000, client_id, retry);
        }

        let txn_id = self.txns.next_txn_id;
        self.txns.next_txn_id += 1;
        self.txns.stats.started += 1;

        let sealed = per_op
            .iter()
            .any(|&(_, shard)| self.cluster.confidentiality_of(shard).is_confidential());

        // One participant per shard, in shard order, each with its
        // operations in client order and the arc of each.
        let spares = &mut self.txns.spares;
        let mut participants = spares.lists.pop().unwrap_or_default();
        for (op, &(arc, shard)) in ops.drain(..).zip(per_op) {
            let index = match participants.iter().position(|p| p.shard == shard) {
                Some(index) => index,
                None => {
                    let shell = spares.participants.pop().unwrap_or_default();
                    participants.push(Participant {
                        shard,
                        ops: shell.ops,
                        arcs: shell.arcs,
                        processed_finish: at,
                        ready_at: at,
                        ..Participant::default()
                    });
                    participants.len() - 1
                }
            };
            let p = &mut participants[index];
            p.ops.push(op);
            p.arcs.push(arc);
        }
        participants.sort_unstable_by_key(|p| p.shard);
        self.txns.stats.participants += participants.len() as u64;

        let lanes = &mut self.txns.lanes;
        for p in &mut participants {
            p.payload_bytes = p.ops.iter().map(|op| op.key().len() + op.value_len()).sum();
            p.staged_bytes = p
                .ops
                .iter()
                .filter(|op| op.is_write())
                .map(|op| op.key().len() + op.value_len())
                .sum();
            // The body borrows nothing, so the operations go in and come
            // back out.
            let body = TxnBody::Prepare {
                ops: std::mem::take(&mut p.ops),
            };
            p.request_wire = lanes
                .lane(client_id, p.shard)
                .seal_request(txn_id, &body, sealed);
            let TxnBody::Prepare { ops } = body else {
                unreachable!("built as a prepare above")
            };
            p.ops = ops;
        }
        let mut txn = InflightTxn {
            txn_id,
            client_id,
            request_id,
            issued_at: at,
            phase: TxnPhase::Preparing,
            sealed,
            participants,
            request: ops,
        };

        self.txn_pump(&mut txn, None, at);
        self.txns.inflight.insert(txn_id, txn);
    }

    /// Handles a retransmission timer for one participant round trip.
    pub(crate) fn on_txn_retry(&mut self, txn_id: u64, participant: usize, at: u64) {
        let Some(mut txn) = self.txns.inflight.remove(&txn_id) else {
            return; // already resolved
        };
        self.txn_pump(&mut txn, Some(participant), at);
        self.txns.inflight.insert(txn_id, txn);
    }

    /// Handles a phase-advance event: all round trips of the current phase
    /// landed at `at`. Decides (after prepare), or resolves and accounts
    /// the outcome: a commit is counted and its client moves on, an abort
    /// is retried whole after a backoff.
    pub(crate) fn txn_advance(&mut self, txn_id: u64, at: u64) {
        let Some(mut txn) = self.txns.inflight.remove(&txn_id) else {
            return;
        };
        debug_assert!(txn.phase_done(), "advance fired before the phase landed");
        let finished_at = txn.phase_ready_at();
        match txn.phase {
            TxnPhase::Preparing => {
                let all_granted = txn.participants.iter().all(|p| p.granted == Some(true));
                let next = if all_granted {
                    TxnPhase::Committing
                } else {
                    TxnPhase::Aborting
                };
                txn.phase = next;
                let body = if all_granted {
                    TxnBody::Commit
                } else {
                    TxnBody::Abort
                };
                for p in &mut txn.participants {
                    // The last phase's frames are done with: the new
                    // request is sealed in the buffer one of them leaves.
                    self.txns.recycle(p);
                    let mut lane = self.txns.lanes.lane(txn.client_id, p.shard);
                    p.request_wire = lane.seal_request(txn_id, &body, txn.sealed);
                    p.done = false;
                }
                self.txn_pump(&mut txn, None, at);
                self.txns.inflight.insert(txn_id, txn);
                return;
            }
            TxnPhase::Committing => {
                self.now = self.now.max(finished_at);
                self.workload.done(&Reply {
                    client: txn.client_id,
                    request_id: txn.request_id,
                    at_ns: finished_at,
                    value: None,
                });
                // Accounted where the operations lie, each at the arc
                // routing resolved for it, before the client takes them
                // back.
                let ops = txn.participants.iter().flat_map(|p| {
                    let placed = p.ops.iter().zip(&p.arcs);
                    placed.map(|(op, &arc)| (p.shard, arc, op.is_write()))
                });
                let latency_ns = finished_at.saturating_sub(txn.issued_at);
                self.record_commit(txn.client_id, finished_at, latency_ns, ops);
                let request = txn.take_request();
                let stats = &mut self.txns.stats;
                stats.committed += 1;
                stats.committed_ops += request.len() as u64;
                stats.cross_shard_committed += u64::from(txn.participants.len() > 1);
                self.txns.retire(&mut txn.participants);
                self.workload.reclaim(request);
            }
            TxnPhase::Aborting => {
                self.txns.stats.aborted += 1;
                self.now = self.now.max(finished_at);
                let request = Request::Txn(txn.take_request());
                self.txns.retire(&mut txn.participants);
                let width = self.rb.timeline_bucket_ns;
                bucket(&mut self.timeline_aborts, width, finished_at, 1);
                // Deterministic per-client jitter breaks the symmetry of
                // mutually aborting transactions.
                let backoff = CONFLICT_BACKOFF_NS + txn.client_id * 7_919;
                let retry = DriverWork::Retry(txn.request_id, request);
                self.schedule(finished_at + backoff, txn.client_id, retry);
            }
        }
        self.maybe_finish_cutover();
    }

    /// Runs round trips for the not-yet-done participants of the current
    /// phase (`only` restricts to one participant — the retry path) and
    /// schedules what follows: per-leg retries, in participant order, then
    /// the phase advance when the last round trip landed.
    fn txn_pump(&mut self, txn: &mut InflightTxn, only: Option<usize>, at: u64) {
        let (txn_id, client_id) = (txn.txn_id, txn.client_id);
        let was_done = txn.phase_done();
        for participant in 0..txn.participants.len() {
            if txn.participants[participant].done || only.is_some_and(|o| o != participant) {
                continue;
            }
            if !self.txn_round_trip(txn, participant, at) {
                let retry = DriverWork::TxnRetry {
                    txn_id,
                    participant,
                };
                self.schedule(at + RETRY_TIMEOUT_NS, client_id, retry);
            }
        }
        if !was_done && txn.phase_done() {
            let advance_at = txn.phase_ready_at().max(at);
            self.schedule(advance_at, client_id, DriverWork::TxnAdvance { txn_id });
        }
    }

    /// Sends one leg of a round trip, sent at `sent_at`, across the plane
    /// between groups: `wire` is the sender's cached frame, opened at the
    /// receiving end of the trip's lane — a sealed body in a spare left in
    /// `opened` ([`recipe_protocols::TxnLane::open_request`]). Returns the
    /// opened body and the time it landed when the authentic frame arrived.
    fn send_leg<'a>(
        &mut self,
        wire: &'a [u8],
        leg: Leg,
        trip: Trip,
        sent_at: u64,
        opened: &'a mut Option<Vec<u8>>,
    ) -> Option<(TxnBodyRef<'a>, u64)> {
        let Engine { txns, plane, .. } = self;
        txns.stats.frames_sent += 1;
        txns.stats.wire_bytes += wire.len() as u64;
        if trip.sealed {
            txns.stats.sealed_frames += 1;
        }
        let ends = match leg {
            Leg::Request => (Plane::COORDINATOR, Plane::group(trip.shard)),
            Leg::Response => (Plane::group(trip.shard), Plane::COORDINATOR),
        };
        // The spare a copy the adversary made was opened in, if any: it is
        // never delivered.
        let mut stray = None;
        let (landed, refused) = plane.send(ends, sent_at, wire).open(
            wire,
            &mut txns.lanes.lane(trip.client_id, trip.shard),
            |lane, wire| leg.open(lane, trip.txn_id, wire, opened),
            |lane, copy| leg.open(lane, trip.txn_id, copy, &mut stray).is_none(),
        );
        txns.stats.frames_dropped += u64::from(landed.is_none());
        txns.stats.frames_rejected += u64::from(refused);
        txns.give_opened(stray);
        landed
    }

    /// One attempt of the current phase's round trip on participant `idx`:
    /// whether it landed (the caller retransmits after [`RETRY_TIMEOUT_NS`]
    /// when it did not).
    fn txn_round_trip(&mut self, txn: &mut InflightTxn, idx: usize, at: u64) -> bool {
        let (txn_id, client_id, sealed) = (txn.txn_id, txn.client_id, txn.sealed);
        let p = &mut txn.participants[idx];
        let shard = p.shard;
        let trip = Trip {
            txn_id,
            client_id,
            shard,
            sealed,
        };

        if p.response_wire.is_none() {
            let Some(leader) = self.cluster.shards[shard].write_coordinator() else {
                // The participant group is between leaders (its coordinator
                // crashed and failover has not landed yet): hold the frame
                // and retransmit after the timeout. The replicated prepare
                // record makes this safe — the group's next write
                // coordinator adopts the in-flight transaction and answers
                // the retried frame.
                return false;
            };
            // Request leg: the participant has not executed this phase yet.
            // Nothing steps the group before the request lands, so it lands
            // on `leader`.
            let mut opened = None;
            let delivered = self.send_leg(&p.request_wire, Leg::Request, trip, at, &mut opened);
            let executed = delivered
                .map(|(body, arrival)| self.txn_execute_on(txn_id, p, leader, body, arrival));
            self.txns.give_opened(opened);
            let Some((response, finish)) = executed else {
                return false;
            };
            p.processed_finish = finish;
            let mut lane = self.txns.lanes.lane(client_id, shard);
            p.response_wire = Some(lane.seal_response(txn_id, &response, sealed));
        }

        // Response leg (also the whole retry when the response was lost:
        // the participant answers from its cached sealed response).
        let wire = p.response_wire.as_deref().expect("response sealed above");
        let mut opened = None;
        let sent_at = p.processed_finish.max(at);
        let delivered = self
            .send_leg(wire, Leg::Response, trip, sent_at, &mut opened)
            .map(|(body, arrival)| match body {
                TxnBodyRef::Vote { granted, .. } => (Some(granted), SpanKind::TxnVote, arrival),
                TxnBodyRef::Ack { .. } => (None, SpanKind::TxnAck, arrival),
                other => panic!("participant answered with a request body: {other:?}"),
            });
        self.txns.give_opened(opened);
        let Some((vote, response_kind, arrival)) = delivered else {
            return false;
        };
        if let Some(granted) = vote {
            p.granted = Some(granted);
            if !granted {
                self.txns.stats.prepare_conflicts += 1;
            }
        }
        p.done = true;
        p.ready_at = arrival;
        if let Some(t) = self.cluster.shards[shard].telemetry_mut() {
            t.instant(response_kind, 0, arrival, txn_id);
        }
        true
    }

    /// Executes one delivered 2PC request on the participant shard's
    /// `leader`: charges it (and, for commits, every follower install)
    /// through the cost model, runs the replica hooks, and feeds committed
    /// writes on a migrating range into the active migration's catch-up
    /// log. Returns the response body and the virtual time the work
    /// finished.
    fn txn_execute_on(
        &mut self,
        txn_id: u64,
        participant: &Participant,
        leader: NodeId,
        body: TxnBodyRef<'_>,
        arrival: u64,
    ) -> (TxnBody, u64) {
        let Participant {
            shard,
            payload_bytes,
            staged_bytes,
            ..
        } = *participant;
        let granted = participant.granted == Some(true);
        let Engine {
            cluster, txns, st, ..
        } = self;
        let group = &mut cluster.shards[shard];
        // Lazy-adoption net: promote any prepare records replicated from a
        // crashed coordinator before executing this request. Leader-based
        // groups already adopted at their become-coordinator hook (view
        // install / head reassignment); this covers leaderless ABD groups,
        // whose acting coordinator is picked per-request. A no-op on
        // crash-free runs — an acting coordinator never holds passive copies.
        let _ = group.replica_mut(leader).store().txn_adopt_replicated();

        // Every 2PC phase pays the participant group's own replication round
        // trip on top of the leader's work: the prepare record (locks +
        // staged writes) and the decision must be durable in the group
        // before the leader answers the coordinator — a participant
        // answering from volatile leader state would break atomicity on the
        // very failures 2PC exists to survive.
        let replication_rt = 2 * COST_MODEL.link_latency_ns;
        let (response, (charge_kind, span_kind), charged, finish) = match body {
            TxnBodyRef::Prepare(ops) => {
                // Routing a transaction at a group whose protocol does not
                // hold single-key requests behind transaction locks is a
                // deployment bug; surface it loudly.
                assert!(
                    R::PROTOCOL.supports_txn(),
                    "shard {shard} runs {}, which does not take part in transactions; deploy a \
                     protocol that does for Request::Txn workloads",
                    R::PROTOCOL.display_name()
                );
                let work = Work::TxnPrepare {
                    ops: ops.len(),
                    bytes: payload_bytes,
                    staged_bytes: txns.staged_per_shard[shard] + staged_bytes,
                };
                let charged = group.charge(leader, arrival, ChargeKind::TxnPrepare, work);
                let finish = charged.finish_ns + replication_rt;
                let leader_store = group.replica_mut(leader).store();
                let conflict = match leader_store.txn_prepare(txn_id, ops.iter()) {
                    TxnVote::Granted => None,
                    TxnVote::Conflict { key } => Some(key),
                };
                if conflict.is_none() {
                    txns.staged_per_shard[shard] += staged_bytes;
                    // Replicate the prepare record into the group: every
                    // live follower keeps a passive (lock-free) copy so the
                    // next coordinator can adopt the in-flight transaction
                    // if this leader crashes before the decision lands. The
                    // replication round trip charged above is the
                    // durability barrier for this record.
                    for idx in 0..group.replica_count() {
                        let node = group.node_ids()[idx];
                        if node == leader || group.crashed_nodes().contains(&node) {
                            continue;
                        }
                        let store = group.replica_mut(node).store();
                        store.txn_stage_replicated(txn_id, ops.iter());
                    }
                }
                let vote = TxnBody::Vote {
                    granted: conflict.is_none(),
                    conflict,
                };
                let kinds = (ChargeKind::TxnPrepare, SpanKind::TxnPrepare);
                (vote, kinds, charged, finish)
            }
            TxnBodyRef::Commit | TxnBodyRef::Abort => {
                let commit = matches!(body, TxnBodyRef::Commit);
                // The leader's applied records on a commit, none on an
                // abort, in buffers of the leader's.
                let mut entries = std::mem::take(&mut txns.spares.committed);
                let leader_store = group.replica_mut(leader).store();
                let (charge_kind, span_kind) = if commit {
                    leader_store.txn_commit(txn_id, &mut entries);
                    (ChargeKind::TxnCommit, SpanKind::TxnCommit)
                } else {
                    leader_store.txn_abort(txn_id);
                    (ChargeKind::TxnAbort, SpanKind::TxnAbort)
                };
                if granted {
                    txns.staged_per_shard[shard] =
                        txns.staged_per_shard[shard].saturating_sub(staged_bytes);
                }
                let work = Work::TxnCommit {
                    writes: entries.len(),
                    bytes: MigrationChunk::payload_len(&entries),
                };
                let charged = group.charge(leader, arrival, charge_kind, work);
                let mut finish = charged.finish_ns + replication_rt;
                for idx in 0..group.replica_count() {
                    let node = group.node_ids()[idx];
                    if node == leader || group.crashed_nodes().contains(&node) {
                        // Crashed followers miss the decision; the state
                        // transfer of their restart catches them up
                        // (`ShardedCluster::catch_up`).
                        continue;
                    }
                    // The decision resolves the transaction on every live
                    // follower: retire the passive replicated record, and
                    // release any stale *adopted* copy on a node that won
                    // coordinatorship during a failover window and has
                    // since yielded it (its staged writes are superseded by
                    // the leader's committed entries installed below). A
                    // read-only commit resolves here too.
                    let store = group.replica_mut(node).store();
                    store.txn_drop_replicated(txn_id);
                    store.txn_abort(txn_id);
                    if entries.is_empty() {
                        continue;
                    }
                    // Install the applied records as a transfer's chunk is
                    // installed, so replicas never diverge.
                    let installed = group.charge(node, arrival, charge_kind, work);
                    finish = finish.max(installed.finish_ns);
                    let records = entries
                        .iter()
                        .map(|(key, value, ts)| (&key[..], &value[..], *ts));
                    group.replica_mut(node).store().import_range(records);
                    txns.stats.participant_installs += entries.len() as u64;
                }
                // Catch-up capture: committed transaction writes inside an
                // active migration's moving range replay on the recipient
                // exactly like single-key commits do.
                st.capture_txn_entries(&cluster.router, shard, &entries);
                let applied = entries.len() as u32;
                let leader_store = group.replica_mut(leader).store();
                leader_store.recycle_entries(&mut entries);
                txns.spares.committed = entries;
                let ack = TxnBody::Ack { applied };
                (ack, (charge_kind, span_kind), charged, finish)
            }
            other => panic!("coordinator sent a response body: {other:?}"),
        };
        if let Some(t) = group.telemetry_mut() {
            t.charge_replication(charge_kind, replication_rt);
            t.span(span_kind, leader.0, charged.start_ns, finish, txn_id);
        }
        (response, finish)
    }
}

#[cfg(test)]
mod tests {
    use recipe_protocols::RaftReplica;

    use super::*;
    use crate::{DeploymentSpec, ShardedCluster};

    #[test]
    #[should_panic(expected = "began a transaction with one in flight")]
    fn a_client_cannot_begin_a_transaction_over_its_own() {
        let spec = DeploymentSpec::new(2, 3).with_clients(2, 10);
        let mut cluster = ShardedCluster::<RaftReplica>::build(spec);
        let mut workload = |_, _| None;
        let mut engine = Engine::new(&mut cluster, &mut workload);
        let ops = vec![Operation::Get { key: b"k".to_vec() }];
        let placements = [(0, 0)];
        engine.txn_begin(0, 1, ops.clone(), &placements, 0);
        // Another client's transaction is no business of this client's lanes …
        engine.txn_begin(1, 1, ops.clone(), &placements, 0);
        // … its own second one would interleave with the first on lane (0, 0).
        engine.txn_begin(0, 2, ops, &placements, 0);
    }

    #[test]
    fn frame_nonces_are_injective_over_every_admitted_id_block() {
        use recipe_core::SequenceTuple;
        use recipe_net::ChannelId;
        use recipe_protocols::MAX_CLIENTS;
        // The ends and a middle of every block a sealing endpoint's id can
        // come from, for the counts `DeploymentSpec::validate` admits:
        // group-local replica ids, migration endpoints, 2PC coordinator
        // endpoints (one per client) and participant endpoints (one per
        // shard) — with the 2PC ids 512 apart that the 16-byte nonce folded
        // together.
        let participants = TXN_ENDPOINT_IDS.start + MAX_CLIENTS as u64;
        let ids = [
            0,
            1,
            MAX_REPLICAS_PER_SHARD as u64 - 1,
            MIGRATION_ENDPOINT_IDS.start,
            MIGRATION_ENDPOINT_IDS.start + MAX_SHARDS as u64,
            MIGRATION_ENDPOINT_IDS.end - 1,
            TXN_ENDPOINT_IDS.start,
            TXN_ENDPOINT_IDS.start + 512,
            participants - 1,
            participants,
            participants + 512,
            TXN_ENDPOINT_IDS.end - 1,
        ];
        let counters = [1, 2, u64::from(u32::MAX), u64::from(u32::MAX) + 1, u64::MAX];
        let mut nonces = std::collections::BTreeSet::new();
        for src in ids {
            for dst in ids {
                for counter in counters {
                    let tuple = SequenceTuple {
                        view: 0,
                        channel: ChannelId::new(NodeId(src), NodeId(dst)),
                        counter,
                    };
                    assert!(
                        nonces.insert(tuple.nonce()),
                        "{src:#x} -> {dst:#x} #{counter} repeats a nonce"
                    );
                }
            }
        }
        assert_eq!(nonces.len(), ids.len() * ids.len() * counters.len());
    }
}
