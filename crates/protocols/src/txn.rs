//! Shielded two-phase commit between a transaction coordinator and the
//! participant shard leaders.
//!
//! A cross-shard transaction never exchanges bytes outside the authenticated
//! channel: every `Prepare` / `Vote` / `Commit` / `Abort` / `Ack` travels as
//! a [`recipe_core::TxnFrame`] — MAC under an attestation-provisioned channel
//! key, trusted per-channel counter (a replayed, reordered or tampered 2PC
//! frame is rejected, never executed), and AEAD over the body when any
//! participant shard's confidentiality policy asks for it (the stricter-wins
//! rule shard migrations already use).
//!
//! # Lanes
//!
//! The paper attests a node and provisions its channel keys once, in the
//! initialization phase; normal operation pays a counter step and a MAC per
//! message (§3.2, Algorithm 1). 2PC follows it: each client's coordinator has
//! one endpoint, each shard's participant has one endpoint, and the channel
//! pair between client `c`'s and shard `s`'s — the *lane* `(c, s)` — is
//! provisioned at their first transaction together and then stands for the
//! run, its counters running on from transaction to transaction
//! ([`TxnLanes`]). A closed-loop client has one transaction in flight and
//! every phase is answered by every participant before the next begins, so a
//! lane is strictly sequential: request, response, request, response.
//! Provisioning a lane takes nothing from the heap of its own: the enclave
//! keeps each key and counter under an inline label
//! ([`recipe_tee::Label`]), so a new lane costs only its slots in its two
//! endpoints' tables, which grow amortised like any `Vec`. After its first
//! round trip a lane frames in its free list's spares and allocates nothing.
//!
//! What stops each thing an untrusted network can do to a frame:
//!
//! * **The per-lane key.** Keys derive from the pair of endpoint ids, so a
//!   frame forged or altered without the lane's key fails its MAC, and a
//!   frame of lane `(c, s)` authenticates nowhere but at the other end of
//!   `(c, s)`.
//! * **The trusted counter.** Every frame takes the next slot of its
//!   direction of the lane. A duplicate, a frame recorded earlier in this
//!   transaction or in any transaction before it, and a frame that overtook
//!   its predecessor are all out of sequence and dropped — a recorded frame
//!   can no more be replayed into a later transaction than into its own.
//! * **The transaction id under the MAC.** A frame that is authentic and in
//!   sequence but names another transaction than the one the lane is serving
//!   is not executed, and the id cannot be rewritten without the key.
//! * **The source check.** A participant endpoint serves every client and
//!   holds a key for each, so by key and counter alone it would accept client
//!   X's frame while the coordinator is in the middle of client Y's round
//!   trip — moving X's receive counter for a body that is then thrown away,
//!   after which X's retransmission is a replay for ever and X's locks never
//!   release. Opening a frame on lane `(Y, s)` therefore refuses, before the
//!   authentication layer sees it, any frame whose source is not Y's
//!   endpoint ([`ProtocolShield::unwrap_txn_in`]).
//!
//! No key is ever used under two counters: an endpoint is one enclave with
//! one send and one receive counter per peer, and sealed and plaintext
//! transactions share them — which is sealed is decided per frame, and the
//! flag is under the MAC — instead of running a plaintext and a confidential
//! endpoint side by side under the same ids, where a frame at counter *n* of
//! one would verify at counter *n* of the other.
//!
//! Retransmission contract: a lost frame is retransmitted as the **same
//! sealed bytes** — the receiver's counter either accepts it (first
//! delivery) or rejects it as a replay (duplicate), and the sender falls back
//! to retransmitting its cached response. Re-sealing a retry would burn a
//! fresh counter slot and permanently wedge the lane behind the lost slot,
//! which is exactly the fail-safe stall the shield gives unattended protocol
//! channels — coordinators must not do it.
//!
//! The participant's side of a transaction — locks, staged writes, the
//! replicated prepare records — is [`crate::store::ReplicaStore`]'s.

use std::ops::Range;

use recipe_core::{FramePool, TxnBody, TxnBodyRef};
use recipe_net::NodeId;

use crate::migration::MAX_SHARDS;
use crate::shield::ProtocolShield;

/// Most clients a deployment may have (`DeploymentSpec::validate` refuses
/// more): the client id is the low part of a coordinator endpoint id.
pub const MAX_CLIENTS: usize = 1 << 24;

/// Coordinator endpoints: one per client, `COORDINATOR_BASE + client`.
const COORDINATOR_BASE: u64 = 0x7E00_0000_0000;

/// Participant endpoints: one per shard, `PARTICIPANT_BASE + shard`.
const PARTICIPANT_BASE: u64 = COORDINATOR_BASE + MAX_CLIENTS as u64;

/// The node ids 2PC endpoints take: above the migration endpoints (and the
/// replica ids below those), and fixed-width on the wire like every node id.
pub const ENDPOINT_IDS: Range<u64> = COORDINATOR_BASE..PARTICIPANT_BASE + MAX_SHARDS as u64;

const _: () = assert!(crate::migration::ENDPOINT_IDS.end <= ENDPOINT_IDS.start);

fn coordinator_endpoint(client: u64) -> NodeId {
    NodeId(COORDINATOR_BASE + client)
}

fn participant_endpoint(shard: usize) -> NodeId {
    NodeId(PARTICIPANT_BASE + shard as u64)
}

// ---------------------------------------------------------------------------
// The standing shielded lanes
// ---------------------------------------------------------------------------

/// `table[index]`, the table grown with defaults to reach it.
fn slot<T: Default>(table: &mut Vec<T>, index: usize) -> &mut T {
    if table.len() <= index {
        table.resize_with(index + 1, T::default);
    }
    &mut table[index]
}

/// A client's coordinator endpoint and the shards it has exchanged keys with.
struct Coordinator {
    shield: ProtocolShield,
    /// By shard index; shorter than the shard count until a later shard is
    /// first contacted.
    contacted: Vec<bool>,
}

/// Every 2PC endpoint of a run — one coordinator endpoint per client, one
/// participant endpoint per shard — and with them every lane (see the
/// module docs). The simulation drives both ends of a lane from the
/// coordinator, so both live here. Nothing is built until a transaction
/// needs it: an endpoint at its first transaction, a lane's keys at the
/// first contact of its two ends.
#[derive(Default)]
pub struct TxnLanes {
    /// By client id.
    coordinators: Vec<Option<Coordinator>>,
    /// By shard index.
    participants: Vec<Option<ProtocolShield>>,
    /// The free list every lane's frames are built in, and every sealed
    /// body a lane opens is decrypted in — never the received bytes, which
    /// the sender keeps to resend. A buffer comes back through
    /// [`TxnLanes::recycle`] once its frame will not be sent again or its
    /// body is done with.
    frames: FramePool,
    /// Endpoints launched so far, coordinators and participants alike.
    endpoints: u64,
    /// Lanes provisioned so far: (client, shard) pairs that made contact.
    lanes: u64,
}

impl TxnLanes {
    /// The lane between `client`'s coordinator endpoint and `shard`'s
    /// participant endpoint.
    ///
    /// # Panics
    /// Panics on a client id or shard index with no endpoint id of its own
    /// ([`MAX_CLIENTS`], [`MAX_SHARDS`]).
    pub fn lane(&mut self, client: u64, shard: usize) -> TxnLane<'_> {
        assert!(
            client < MAX_CLIENTS as u64 && shard < MAX_SHARDS,
            "client {client} / shard {shard} has no 2PC endpoint id"
        );
        let endpoints = &mut self.endpoints;
        let coordinator = slot(&mut self.coordinators, client as usize).get_or_insert_with(|| {
            *endpoints += 1;
            Coordinator {
                shield: ProtocolShield::txn_endpoint(coordinator_endpoint(client)),
                contacted: Vec::new(),
            }
        });
        let participant = slot(&mut self.participants, shard).get_or_insert_with(|| {
            *endpoints += 1;
            ProtocolShield::txn_endpoint(participant_endpoint(shard))
        });
        let contacted = slot(&mut coordinator.contacted, shard);
        if !*contacted {
            coordinator.shield.add_peer(participant.node());
            participant.add_peer(coordinator.shield.node());
            *contacted = true;
            self.lanes += 1;
        }
        TxnLane {
            coordinator: &mut coordinator.shield,
            participant,
            frames: &mut self.frames,
        }
    }

    /// 2PC endpoints launched so far: one per client that ran a
    /// transaction, one per shard that took part in one.
    pub fn endpoints(&self) -> u64 {
        self.endpoints
    }

    /// Lanes provisioned so far: one per (client, shard) pair that shared a
    /// transaction.
    pub fn lanes(&self) -> u64 {
        self.lanes
    }

    /// Takes back the buffer of a frame a lane sealed, once nothing will
    /// send it again, or of a body it opened, once nothing reads it.
    pub fn recycle(&mut self, wire: Vec<u8>) {
        self.frames.give(wire);
    }
}

/// Both ends of one lane, borrowed from [`TxnLanes`] for a frame or two.
///
/// `seal` must be the stricter-wins resolution over **all** the
/// transaction's participants: when any participant shard is confidential,
/// every frame of the transaction — to every participant — is sealed, so the
/// untrusted host cannot learn the transaction's shape from the plaintext
/// legs.
pub struct TxnLane<'a> {
    coordinator: &'a mut ProtocolShield,
    participant: &'a mut ProtocolShield,
    frames: &'a mut FramePool,
}

impl TxnLane<'_> {
    /// Seals one coordinator → participant message (prepare/commit/abort),
    /// in a spare of the lanes' free list.
    pub fn seal_request(&mut self, txn_id: u64, body: &TxnBody, seal: bool) -> Vec<u8> {
        let dst = self.participant.node();
        self.coordinator
            .wrap_txn_in(self.frames, dst, txn_id, body, seal)
    }

    /// Verifies and opens a coordinator → participant frame on the
    /// participant side, the body decoded where it lies. `None` when the
    /// frame is rejected, is not this lane's, or carries another
    /// transaction's id than `txn_id` — never executed, only counted.
    ///
    /// `wire` is only read: a plaintext body is read in it, and a sealed one
    /// is decrypted in a spare of the lanes' free list, left in `opened` for
    /// the caller to give back ([`TxnLanes::recycle`]) once done with the
    /// body — the coordinator resends the same cached bytes on a retry.
    pub fn open_request<'a>(
        &mut self,
        txn_id: u64,
        wire: &'a [u8],
        opened: &'a mut Option<Vec<u8>>,
    ) -> Option<TxnBodyRef<'a>> {
        let from = self.coordinator.node();
        Self::open(self.participant, self.frames, from, txn_id, wire, opened)
    }

    /// Seals one participant → coordinator message (vote/ack), in a spare
    /// of the lanes' free list.
    pub fn seal_response(&mut self, txn_id: u64, body: &TxnBody, seal: bool) -> Vec<u8> {
        let dst = self.coordinator.node();
        self.participant
            .wrap_txn_in(self.frames, dst, txn_id, body, seal)
    }

    /// Verifies and opens a participant → coordinator frame on the
    /// coordinator side, as [`TxnLane::open_request`] opens requests.
    pub fn open_response<'a>(
        &mut self,
        txn_id: u64,
        wire: &'a [u8],
        opened: &'a mut Option<Vec<u8>>,
    ) -> Option<TxnBodyRef<'a>> {
        let from = self.participant.node();
        Self::open(self.coordinator, self.frames, from, txn_id, wire, opened)
    }

    fn open<'a>(
        end: &mut ProtocolShield,
        frames: &mut FramePool,
        from: NodeId,
        txn_id: u64,
        wire: &'a [u8],
        opened: &'a mut Option<Vec<u8>>,
    ) -> Option<TxnBodyRef<'a>> {
        let (carried, body) = end.unwrap_txn_in(frames, from, wire, opened)?;
        (carried == txn_id).then_some(body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recipe_core::{Operation, TxnFrame};

    fn prepare(n: usize) -> TxnBody {
        TxnBody::Prepare {
            ops: (0..n)
                .map(|i| Operation::Put {
                    key: format!("user{i:08}").into_bytes(),
                    value: format!("secret-value-{i}").into_bytes(),
                })
                .collect(),
        }
    }

    fn vote() -> TxnBody {
        TxnBody::Vote {
            granted: true,
            conflict: None,
        }
    }

    impl TxnLane<'_> {
        /// [`TxnLane::open_request`], the body copied out and the spare it
        /// was opened in given back.
        fn request(&mut self, txn_id: u64, wire: &[u8]) -> Option<TxnBody> {
            let mut opened = None;
            let body = self
                .open_request(txn_id, wire, &mut opened)
                .map(TxnBodyRef::to_body);
            opened.into_iter().for_each(|buf| self.frames.give(buf));
            body
        }

        /// [`TxnLane::open_response`], as [`TxnLane::request`] opens requests.
        fn response(&mut self, txn_id: u64, wire: &[u8]) -> Option<TxnBody> {
            let mut opened = None;
            let body = self
                .open_response(txn_id, wire, &mut opened)
                .map(TxnBodyRef::to_body);
            opened.into_iter().for_each(|buf| self.frames.give(buf));
            body
        }
    }

    fn counter_of(wire: &[u8]) -> u64 {
        TxnFrame::from_wire(wire).unwrap().tuple.counter
    }

    /// Frames rejected by any endpoint so far.
    fn rejected(lanes: &TxnLanes) -> u64 {
        let coordinators = lanes.coordinators.iter().flatten().map(|c| &c.shield);
        coordinators
            .chain(lanes.participants.iter().flatten())
            .map(ProtocolShield::rejected)
            .sum()
    }

    #[test]
    fn requests_and_responses_roundtrip_and_the_next_transaction_continues_the_counters() {
        let mut lanes = TxnLanes::default();
        for (txn_id, first_slot) in [(7, 1), (8, 3)] {
            let mut lane = lanes.lane(5, 2);
            let wire = lane.seal_request(txn_id, &prepare(3), false);
            assert_eq!(counter_of(&wire), first_slot);
            assert_eq!(lane.request(txn_id, &wire), Some(prepare(3)));
            let wire = lane.seal_response(txn_id, &vote(), false);
            assert_eq!(counter_of(&wire), first_slot);
            assert_eq!(lane.response(txn_id, &wire), Some(vote()));
            let wire = lane.seal_request(txn_id, &TxnBody::Commit, false);
            assert_eq!(counter_of(&wire), first_slot + 1);
            assert_eq!(lane.request(txn_id, &wire), Some(TxnBody::Commit));
            let wire = lane.seal_response(txn_id, &TxnBody::Ack { applied: 3 }, false);
            assert_eq!(
                lane.response(txn_id, &wire),
                Some(TxnBody::Ack { applied: 3 })
            );
        }
        // The same client's lane to another shard counts for itself.
        let wire = lanes.lane(5, 0).seal_request(9, &TxnBody::Abort, false);
        assert_eq!(counter_of(&wire), 1);
        assert_eq!(rejected(&lanes), 0);
        // One coordinator and two participants, over two lanes.
        assert_eq!((lanes.endpoints(), lanes.lanes()), (3, 2));
    }

    #[test]
    fn a_sealed_request_opens_in_a_spare_and_leaves_the_cached_bytes_as_sent() {
        let mut lanes = TxnLanes::default();
        // The same lanes again, keys and counters alike: a participant that
        // has not seen the frame yet, for the coordinator's retransmission.
        let mut twin = TxnLanes::default();
        let mut allocated = Vec::new();
        for (txn_id, seal) in [(7, true), (8, false), (9, true), (10, true), (11, true)] {
            let wire = lanes.lane(0, 1).seal_request(txn_id, &prepare(3), seal);
            let sent = wire.clone();
            let mut opened = None;
            let body = lanes.lane(0, 1).open_request(txn_id, &wire, &mut opened);
            assert_eq!(body.map(TxnBodyRef::to_body), Some(prepare(3)));
            // A plaintext body is read where it lies; only a sealed one takes
            // a spare, to be decrypted in.
            assert_eq!(opened.is_some(), seal);
            assert_eq!(wire, sent, "the participant wrote to the cached bytes");
            assert_eq!(twin.lane(0, 1).request(txn_id, &wire), Some(prepare(3)));
            opened.into_iter().for_each(|buf| lanes.recycle(buf));
            lanes.recycle(wire);
            allocated.push(lanes.frames.allocated());
        }
        // Once warm, a sealed request and the body it opens into take
        // nothing but spares.
        assert_eq!(allocated[2..], [allocated[2]; 3]);
        assert_eq!(rejected(&lanes) + rejected(&twin), 0);
    }

    #[test]
    fn replayed_and_tampered_frames_are_rejected() {
        let mut lanes = TxnLanes::default();
        let mut lane = lanes.lane(0, 0);
        let wire = lane.seal_request(7, &prepare(2), false);
        let mut tampered = wire.clone();
        let idx = tampered.len() / 2;
        tampered[idx] ^= 0x01;
        assert_eq!(lane.request(7, &tampered), None);
        // The original (same sealed bytes — the retransmission contract)
        // still verifies: a tampered delivery does not burn the counter.
        assert!(lane.request(7, &wire).is_some());
        // Replaying it afterwards is rejected.
        assert_eq!(lane.request(7, &wire), None);
        assert!(rejected(&lanes) >= 2);
    }

    #[test]
    fn reordered_frames_are_rejected_until_the_gap_is_retransmitted() {
        let mut lanes = TxnLanes::default();
        let mut lane = lanes.lane(3, 1);
        let prepare_wire = lane.seal_request(9, &prepare(1), false);
        let commit_wire = lane.seal_request(9, &TxnBody::Commit, false);
        // The commit overtakes the lost prepare: rejected, not buffered.
        assert_eq!(lane.request(9, &commit_wire), None);
        // Retransmission of the prepare, then the commit: both verify.
        assert!(lane.request(9, &prepare_wire).is_some());
        assert!(lane.request(9, &commit_wire).is_some());
    }

    #[test]
    fn a_lane_accepts_only_its_own_frames_of_the_transaction_it_is_serving() {
        let mut lanes = TxnLanes::default();
        // Recorded in transaction 7, offered during transaction 8 on the
        // same lane: the counter has moved past it.
        let mut lane = lanes.lane(0, 0);
        let recorded = lane.seal_request(7, &prepare(1), false);
        assert!(lane.request(7, &recorded).is_some());
        let authentic = lane.seal_request(8, &prepare(2), false);
        assert_eq!(lane.request(8, &recorded), None);
        assert_eq!(lane.request(8, &authentic), Some(prepare(2)));
        // In sequence and authentic, but for another transaction than the
        // one being served: not executed.
        let stray = lane.seal_request(9, &TxnBody::Commit, false);
        assert_eq!(lane.request(8, &stray), None);
        assert_eq!(rejected(&lanes), 1);

        // Client 1's frame for shard 0, lost on its way and then offered
        // while the coordinator is serving client 2 on the same shard: the
        // shard's endpoint holds client 1's key and the frame is next in
        // client 1's sequence, yet lane (2, 0) refuses it …
        let lost = lanes.lane(1, 0).seal_request(20, &prepare(1), false);
        let mut other = lanes.lane(2, 0);
        let own = other.seal_request(21, &prepare(3), false);
        assert_eq!(other.request(21, &lost), None);
        assert_eq!(other.request(21, &own), Some(prepare(3)));
        assert_eq!(rejected(&lanes), 2);
        // … without moving client 1's receive counter: its retransmission
        // of the same bytes is accepted.
        assert_eq!(lanes.lane(1, 0).request(20, &lost), Some(prepare(1)));
        // The response direction is told apart by addressing alone.
        let answer = lanes.lane(1, 0).seal_response(20, &vote(), false);
        assert_eq!(lanes.lane(2, 0).response(20, &answer), None);
        assert_eq!(lanes.lane(1, 0).response(20, &answer), Some(vote()));
    }

    #[test]
    fn sealed_and_plaintext_transactions_alternate_on_one_lane() {
        let mut lanes = TxnLanes::default();
        let mut lane = lanes.lane(4, 3);
        for (txn_id, seal) in [(7, true), (8, false), (9, true)] {
            let wire = lane.seal_request(txn_id, &prepare(4), seal);
            // One counter sequence, whatever is sealed.
            assert_eq!(counter_of(&wire), txn_id - 6);
            assert_eq!(TxnFrame::from_wire(&wire).unwrap().is_confidential(), seal);
            let hidden =
                !wire.windows(4).any(|w| w == b"user") && !wire.windows(6).any(|w| w == b"secret");
            assert_eq!(hidden, seal);
            if !seal {
                // The plaintext frame passed off as a sealed one: the flag
                // is under the MAC, so it verifies as neither.
                let mut as_sealed = wire.clone();
                as_sealed[1] ^= 0x01;
                assert_eq!(lane.request(txn_id, &as_sealed), None);
            }
            assert_eq!(lane.request(txn_id, &wire), Some(prepare(4)));
            // The vote leg is sealed too (the decision itself is sensitive).
            let vote = TxnBody::Vote {
                granted: false,
                conflict: Some(b"user0001".to_vec()),
            };
            let wire = lane.seal_response(txn_id, &vote, seal);
            assert_eq!(!wire.windows(4).any(|w| w == b"user"), seal);
            assert_eq!(lane.response(txn_id, &wire), Some(vote));
        }
        assert_eq!(rejected(&lanes), 1);
    }

    #[test]
    fn lanes_the_16_byte_nonce_folded_together_share_no_keystream() {
        use recipe_core::SequenceTuple;
        use recipe_net::ChannelId;
        // The nonce this layer used to derive kept 32 bits of each endpoint
        // id: `src << 96 | dst << 64 | counter` in a `u128`. 2PC endpoint ids
        // are 47 bits wide, so the high bits of `src` fell off the top and
        // the high bits of `dst` landed in `src`'s field.
        let folded = |src: NodeId, dst: NodeId, counter: u64| {
            ((src.0 as u128) << 96) | ((dst.0 as u128) << 64) | counter as u128
        };
        let nonce = |src: NodeId, dst: NodeId, counter| {
            SequenceTuple {
                view: 0,
                channel: ChannelId::new(src, dst),
                counter,
            }
            .nonce()
        };
        let (c0, c512) = (coordinator_endpoint(0), coordinator_endpoint(512));
        let (p0, p512) = (participant_endpoint(0), participant_endpoint(512));
        // The two pairs that collided, one on each leg, under the one
        // deployment cipher key: clients 0 and 512 sending to shard 0, and
        // shards 0 and 512 answering client 0.
        for (a, b) in [((c0, p0), (c512, p0)), ((p0, c0), (p512, c0))] {
            assert_eq!(folded(a.0, a.1, 1), folded(b.0, b.1, 1));
            assert_ne!(nonce(a.0, a.1, 1), nonce(b.0, b.1, 1));
        }
        // End to end: equal prepares at equal counters on the two lanes.
        let mut lanes = TxnLanes::default();
        let first = lanes.lane(0, 0).seal_request(7, &prepare(2), true);
        let second = lanes.lane(512, 0).seal_request(7, &prepare(2), true);
        let (first, second) = (
            TxnFrame::from_wire(&first).unwrap(),
            TxnFrame::from_wire(&second).unwrap(),
        );
        assert_eq!(first.tuple.counter, second.tuple.counter);
        assert_eq!(first.body.len(), second.body.len());
        let same = first.body.iter().zip(&second.body).filter(|(a, b)| a == b);
        assert!(same.count() < first.body.len() / 8);
    }
}
