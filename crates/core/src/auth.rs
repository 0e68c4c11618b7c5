//! The authentication + non-equivocation layers (paper §3.2, Algorithm 1).
//!
//! [`AuthLayer`] wraps a node's enclave and implements the two primitives every
//! Recipe-transformed protocol calls on its fast path:
//!
//! * [`AuthLayer::shield_to_wire`] (`shield_request`) — assigns the next trusted
//!   counter for the destination channel, optionally encrypts the payload
//!   (confidential mode), and MACs payload + metadata under the channel key
//!   provisioned at attestation, in the frame's wire buffer.
//! * [`AuthLayer::verify_view`] (`verify_request`) — checks the MAC, the view and
//!   the counter of a frame where it lies in the received bytes. Messages with
//!   stale counters (replays) are rejected; "future" counters (out-of-order
//!   arrival) are buffered in the protected area and released in order by
//!   [`AuthLayer::take_ready`], exactly as §3.4 #4.2 prescribes.
//!
//! Every other shield and verify entry point is a caller of these two: the
//! frame structs' entry points (`shield`, `verify`, `verify_owned`,
//! `verify_batch`, `verify_txn`) seal to wire bytes and parse them, or check a
//! struct's fields as a [`FrameView`], by the same admission and the same open
//! routine production's frames take.
//!
//! Everything that must not be observable or forgeable by the untrusted host — the
//! counters, the channel keys, the plaintext of confidential payloads — lives inside
//! the [`recipe_tee::Enclave`] held by this layer.
//!
//! # One authenticator per frame
//!
//! Algorithm 1 authenticates a message with one HMAC over
//! `payload ‖ view ‖ cq ‖ cnt_cq`, and that holds for a confidential frame
//! too. `cq` goes first, alone in a 64-byte block that is the same for every
//! frame of the channel, so the enclave hashes it once — into the channel
//! key's bound state, when the channel is first used — and each frame's MAC
//! starts behind it, with a fixed-width header (family, sealed flag, view,
//! counter, the family's field, body length), then the body: a control
//! frame's whole per-frame input fits one SHA-256 block and its MAC is two
//! compressions. Sealing is the raw XChaCha20 keystream, in place, under the nonce the
//! sequence tuple determines ([`SequenceTuple::nonce`] — derived at both ends,
//! never sent, unique because trusted counters never repeat). Its first 16
//! bytes are the channel's `src ‖ dst`, so the channel's HChaCha20 sub-key
//! is made once too, on its first sealed frame, and kept in the enclave
//! beside the cipher key; a frame is ChaCha20 under it with its counter as
//! the nonce's last 8 bytes. The frame MAC then covers the ciphertext, the
//! sealed flag, the tuple and the cipher's key commitment, under a channel
//! key that is domain-separated from the cipher key. That is encrypt-then-MAC with the MAC the protocol already pays for:
//! a receiver checks it before its receive counter moves and before it makes
//! any keystream, so nothing an attacker alters is ever decrypted, and there
//! is no second tag whose failure could arrive after the counter advanced.
//! The key commitment turns "same channel key, other cipher key" (a
//! misprovisioned peer) into a failed MAC instead of junk handed to the
//! protocol.

use std::borrow::Cow;
use std::collections::BTreeMap;

use recipe_crypto::{CipherKey, KeyCommitment};
use recipe_net::{ChannelId, NodeId};
use recipe_tee::{CipherHandle, CounterHandle, Enclave, KeyHandle, TeeError};

use crate::error::RecipeError;
use crate::message::{
    channel_mac_block, channel_nonce_prefix, BatchFrame, BatchOp, Body, Family, FrameView,
    SequenceTuple, ShieldedMessage, TxnBody, TxnFrame,
};
use crate::policy::ConfidentialityMode;
use crate::pool::FramePool;
use crate::wire::Writer;

pub use recipe_tee::CIPHER_LABEL;

/// Domain a node's store key is derived under ([`AuthLayer::store_cipher_key`]).
const STORE_KEY_DOMAIN: &[u8] = b"recipe.store_key.v1";

/// Result of verifying an incoming shielded message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyOutcome {
    /// The message is authentic, fresh and in order; the protocol should process it.
    Accept {
        /// Protocol-defined message kind.
        kind: u16,
        /// Decrypted payload.
        payload: Vec<u8>,
        /// The counter the message carried.
        counter: u64,
    },
    /// The message is authentic but arrived ahead of its predecessors; it has been
    /// buffered and will be released by [`AuthLayer::take_ready`] once the gap fills.
    Future {
        /// The counter the message carried.
        counter: u64,
        /// The next counter the receiver is waiting for.
        expected: u64,
    },
    /// The message is a replay (stale counter) and must be dropped.
    Replay {
        /// The counter the message carried.
        counter: u64,
        /// Last counter already accepted on the channel.
        last_accepted: u64,
    },
    /// The MAC did not verify (tampering or wrong key) — drop.
    BadAuthenticator,
    /// The message was addressed to a different node — drop.
    Misaddressed,
    /// The view in the message does not match the current view — drop (the protocol
    /// may trigger state transfer / view change separately).
    WrongView {
        /// View carried by the message.
        got: u64,
        /// The receiver's current view.
        current: u64,
    },
    /// The message is authentic and in order, but the enclave would not hand
    /// out the cipher to open it — the counter slot is spent, nothing is
    /// delivered. Tampering never gets here: it fails the MAC first.
    DecryptionFailed,
}

impl VerifyOutcome {
    /// True if the message should be processed by the protocol right now.
    pub fn is_accept(&self) -> bool {
        matches!(self, VerifyOutcome::Accept { .. })
    }
}

/// Result of verifying an incoming batch frame. Mirrors [`VerifyOutcome`], with
/// the whole frame accepted or rejected as a unit — a single MAC covers every
/// op, so partial acceptance is impossible by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchVerifyOutcome {
    /// The frame is authentic, fresh and in order; every op should be processed.
    Accept {
        /// The ops the frame carried, decrypted, in sender order.
        ops: Vec<BatchOp>,
        /// The counter the frame carried.
        counter: u64,
    },
    /// Authentic but ahead of its predecessors; buffered until the gap fills.
    Future {
        /// The counter the frame carried.
        counter: u64,
        /// The next counter the receiver is waiting for.
        expected: u64,
    },
    /// The frame is a replay (stale counter) and must be dropped.
    Replay {
        /// The counter the frame carried.
        counter: u64,
        /// Last counter already accepted on the channel.
        last_accepted: u64,
    },
    /// The MAC did not verify — drop.
    BadAuthenticator,
    /// The frame was addressed to a different node — drop.
    Misaddressed,
    /// The view in the frame does not match the current view — drop.
    WrongView {
        /// View carried by the frame.
        got: u64,
        /// The receiver's current view.
        current: u64,
    },
    /// The frame is authentic and in order, but its body does not decode
    /// into the authenticated number of ops (a sender's bug — tampering fails
    /// the MAC first), or the enclave would not hand out the cipher.
    DecryptionFailed,
}

impl BatchVerifyOutcome {
    /// True if the frame's ops should be processed by the protocol right now.
    pub fn is_accept(&self) -> bool {
        matches!(self, BatchVerifyOutcome::Accept { .. })
    }
}

/// Result of verifying an incoming two-phase-commit frame. Mirrors
/// [`VerifyOutcome`]; a 2PC channel is strictly sequential (prepare, then
/// commit/abort, each answered before the next is sent), so an
/// [`TxnVerifyOutcome::OutOfOrder`] frame is never buffered — the
/// coordinator's retransmission protocol redelivers the missing predecessor
/// with its original counter instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnVerifyOutcome {
    /// The frame is authentic, fresh and in order.
    Accept {
        /// The transaction the frame belongs to.
        txn_id: u64,
        /// The decoded 2PC message.
        body: TxnBody,
        /// The counter the frame carried.
        counter: u64,
    },
    /// Authentic but ahead of its predecessors — dropped, not buffered; the
    /// sender retransmits the missing frame first.
    OutOfOrder {
        /// The counter the frame carried.
        counter: u64,
        /// The next counter the receiver is waiting for.
        expected: u64,
    },
    /// The frame is a replay (stale counter) and must be dropped.
    Replay {
        /// The counter the frame carried.
        counter: u64,
        /// Last counter already accepted on the channel.
        last_accepted: u64,
    },
    /// The MAC did not verify — drop.
    BadAuthenticator,
    /// The frame was addressed to a different node — drop.
    Misaddressed,
    /// The view in the frame does not match the current view — drop.
    WrongView {
        /// View carried by the frame.
        got: u64,
        /// The receiver's current view.
        current: u64,
    },
    /// The frame is authentic and in order, but its body does not decode (a
    /// sender's bug — tampering fails the MAC first), or the enclave would
    /// not hand out the cipher.
    DecryptionFailed,
}

impl TxnVerifyOutcome {
    /// True if the frame should be processed right now.
    pub fn is_accept(&self) -> bool {
        matches!(self, TxnVerifyOutcome::Accept { .. })
    }
}

/// Result of verifying a replication frame where it lies in the received
/// bytes ([`AuthLayer::verify_view`]): what an in-order frame delivers, each
/// payload a slice of those bytes when the frame travelled in plaintext or
/// was decrypted in them, and a buffer of its own when it had to be copied
/// to be decrypted.
#[derive(Debug, PartialEq, Eq)]
pub enum ViewOutcome<'a> {
    /// An authentic, in-order single message.
    Message {
        /// Protocol-defined message kind.
        kind: u16,
        /// The payload, decrypted if it was sealed.
        payload: Cow<'a, [u8]>,
    },
    /// An authentic, in-order batch: its `(kind, payload)` ops in sender order.
    Batch(Vec<(u16, Cow<'a, [u8]>)>),
    /// Authentic but ahead of its predecessors: copied into the protected
    /// buffer, released by [`AuthLayer::take_ready`] once the gap fills.
    Buffered,
    /// Dropped, for any of the reasons [`VerifyOutcome`] tells apart (the
    /// rejection counters record which).
    Rejected,
}

/// What an admitted frame opens into ([`AuthLayer::open`]).
enum Opened<'a> {
    Message { kind: u16, payload: Cow<'a, [u8]> },
    Batch(Vec<(u16, Cow<'a, [u8]>)>),
    Txn { txn_id: u64, body: TxnBody },
}

/// An authentic, fresh frame, as [`AuthLayer::admit`] found it.
enum Admission {
    /// In order, on `channel` (the receive counter is already advanced, and
    /// the cipher sub-key bound if the frame is sealed).
    InOrder { counter: u64, channel: Channel },
    /// Ahead of its predecessors, from the record at `peer`.
    Ahead {
        peer: usize,
        counter: u64,
        expected: u64,
    },
}

/// Why a frame is not delivered now, whichever entry point it came in by.
/// Each reason is one variant of every outcome type.
enum Rejection {
    Misaddressed,
    BadAuthenticator,
    WrongView {
        got: u64,
        current: u64,
    },
    Replay {
        counter: u64,
        last_accepted: u64,
    },
    /// Authentic but ahead of its predecessors: a replication frame is
    /// parked until the gap fills, a 2PC frame dropped.
    Ahead {
        counter: u64,
        expected: u64,
    },
    /// Authentic and in order, but it does not open: the slot is spent.
    Unopened,
}

/// `From<Rejection>` for an outcome type whose variant for a frame ahead of
/// its turn is `$ahead`.
macro_rules! from_rejection {
    ($outcome:ident, $ahead:ident) => {
        impl From<Rejection> for $outcome {
            fn from(rejection: Rejection) -> Self {
                match rejection {
                    Rejection::Misaddressed => $outcome::Misaddressed,
                    Rejection::BadAuthenticator => $outcome::BadAuthenticator,
                    Rejection::WrongView { got, current } => $outcome::WrongView { got, current },
                    Rejection::Replay {
                        counter,
                        last_accepted,
                    } => $outcome::Replay {
                        counter,
                        last_accepted,
                    },
                    Rejection::Ahead { counter, expected } => {
                        $outcome::$ahead { counter, expected }
                    }
                    Rejection::Unopened => $outcome::DecryptionFailed,
                }
            }
        }
    };
}

from_rejection!(VerifyOutcome, Future);
from_rejection!(BatchVerifyOutcome, Future);
from_rejection!(TxnVerifyOutcome, OutOfOrder);

/// One directed channel, resolved to where its secrets sit in the enclave.
#[derive(Clone, Copy)]
struct Channel {
    /// The channel's MAC key, provisioned under its label (`cq:src->dst`)
    /// and bound to the channel's block.
    key: KeyHandle,
    /// This node's trusted counter for the channel: frames sealed when this
    /// node is the source, the last frame accepted when it is the destination.
    counter: CounterHandle,
    /// The cipher bound to the channel's nonce prefix
    /// ([`channel_nonce_prefix`]): `None` until a frame on it is first
    /// sealed or admitted sealed.
    cipher: Option<CipherHandle>,
}

impl Channel {
    /// Resolves `channel` in `enclave`, or `None` when the enclave holds no
    /// key for it — a counter is only ever created for a keyed channel.
    /// `role` is `send` or `recv`, this node's end of the channel. The key is
    /// bound to the channel's block here, so the block's compression is paid
    /// once a channel and `src`, `dst` are under every MAC made with it.
    fn resolve(enclave: &mut Enclave, role: &str, channel: ChannelId) -> Option<Channel> {
        let label = channel.label();
        let key = enclave.mac_key_handle(&label).ok()?;
        enclave
            .bind_mac_key(key, &channel_mac_block(channel))
            .ok()?;
        let counter = enclave.counter_handle(&format!("{role}:{label}")).ok()?;
        Some(Channel {
            key,
            counter,
            cipher: None,
        })
    }

    /// Binds the cipher provisioned under [`CIPHER_LABEL`] to `channel`'s
    /// nonce prefix unless this record already holds the sub-key: the
    /// channel's first sealed frame, sent or received, pays its one
    /// HChaCha20, and the sub-key stays in the enclave.
    fn bind_cipher(&mut self, enclave: &mut Enclave, channel: ChannelId) -> Result<(), TeeError> {
        if self.cipher.is_none() {
            let prefix = channel_nonce_prefix(channel);
            self.cipher = Some(enclave.bind_cipher(CIPHER_LABEL, &prefix)?);
        }
        Ok(())
    }
}

/// What this node holds for one peer: both directions of their channel and
/// the frames of the peer's that arrived ahead of their turn. Labels are
/// built and looked up when the record is made; every frame after that
/// indexes.
struct Peer {
    node: NodeId,
    /// `cq:me->peer`; `None` while the enclave holds no key for it.
    send: Option<Channel>,
    /// `cq:peer->me`; `None` while the enclave holds no key for it.
    recv: Option<Channel>,
    /// Frames from the peer that arrived ahead of their turn, keyed by
    /// counter: single messages and batches alike, each taking one counter
    /// slot, with their bodies owned.
    pending: BTreeMap<u64, FrameView<'static>>,
}

/// The authentication + non-equivocation layer of one node.
pub struct AuthLayer {
    node: NodeId,
    view: u64,
    enclave: Enclave,
    confidentiality: ConfidentialityMode,
    /// One record per peer a frame was exchanged with, made on first use
    /// and kept sorted by node id: a replica holds a handful, a 2PC
    /// participant endpoint one per client, and every frame looks one up.
    peers: Vec<Peer>,
    /// Statistics: how many messages were rejected, by reason.
    rejected_replays: u64,
    rejected_auth: u64,
    rejected_view: u64,
}

impl AuthLayer {
    /// Wraps an attested enclave. `confidentiality` selects whether payloads
    /// are encrypted before leaving the enclave — a [`ConfidentialityMode`]
    /// (the per-group policy a deployment spec resolves), or a legacy `bool`
    /// via `From<bool>`.
    pub fn new(
        node: NodeId,
        enclave: Enclave,
        confidentiality: impl Into<ConfidentialityMode>,
    ) -> Self {
        AuthLayer {
            node,
            view: 0,
            enclave,
            confidentiality: confidentiality.into(),
            peers: Vec::new(),
            rejected_replays: 0,
            rejected_auth: 0,
            rejected_view: 0,
        }
    }

    /// Advances to a new view (monotonically).
    pub fn set_view(&mut self, view: u64) {
        debug_assert!(view >= self.view, "views only move forward");
        self.view = view;
    }

    /// Whether confidential mode is active.
    pub fn is_confidential(&self) -> bool {
        self.confidentiality.is_confidential()
    }

    /// Immutable access to the underlying enclave.
    #[cfg(test)]
    pub(crate) fn enclave(&self) -> &Enclave {
        &self.enclave
    }

    /// Mutable access to the underlying enclave (e.g. for the protocol to reach its
    /// signing key or seal durable state).
    pub fn enclave_mut(&mut self) -> &mut Enclave {
        &mut self.enclave
    }

    /// The key this node's KV store seals values under: a sub-key of the
    /// provisioned cipher key, bound to the node id. A store counts its
    /// nonces from one, so its key must be its own — two stores under one key
    /// would seal different values under the same keystream in host-visible
    /// memory — and a sub-key also keeps stored values and frames, which
    /// both run on counters, under different keys.
    pub fn store_cipher_key(&self) -> Result<CipherKey, RecipeError> {
        let node = self.node.0.to_le_bytes();
        Ok(self
            .enclave
            .derive_cipher_key(CIPHER_LABEL, &[STORE_KEY_DOMAIN, &node])?)
    }

    /// Counts of rejected messages `(replays, bad_auth, wrong_view)`.
    pub fn rejection_counts(&self) -> (u64, u64, u64) {
        (
            self.rejected_replays,
            self.rejected_auth,
            self.rejected_view,
        )
    }

    // ------------------------------------------------------------------
    // Channel table
    // ------------------------------------------------------------------

    /// The record of `node` and the channel `pick` reads out of it, or `None`
    /// when the enclave holds no key for that direction.
    ///
    /// The slow path — first frame of a peer, or a direction whose key was
    /// not there last time — asks the enclave by label. A peer is only
    /// remembered once the enclave is known to hold a key for it: a frame's
    /// source is the sender's claim, and made-up sources must neither grow
    /// the table nor get a counter.
    fn channel_with(
        &mut self,
        node: NodeId,
        pick: fn(&Peer) -> Option<Channel>,
    ) -> Option<(usize, Channel)> {
        let found = self.peer_index(node);
        if let Ok(index) = found {
            if let Some(channel) = pick(&self.peers[index]) {
                return Some((index, channel));
            }
        }
        let send = Channel::resolve(&mut self.enclave, "send", ChannelId::new(self.node, node));
        let recv = Channel::resolve(&mut self.enclave, "recv", ChannelId::new(node, self.node));
        if send.is_none() && recv.is_none() {
            return None;
        }
        let index = found.unwrap_or_else(|at| {
            let peer = Peer {
                node,
                send: None,
                recv: None,
                pending: BTreeMap::new(),
            };
            self.peers.insert(at, peer);
            at
        });
        let peer = &mut self.peers[index];
        (peer.send, peer.recv) = (send, recv);
        Some((index, pick(peer)?))
    }

    /// Where the record of `node` is in the sorted table, or where it would
    /// go.
    fn peer_index(&self, node: NodeId) -> Result<usize, usize> {
        self.peers.binary_search_by_key(&node, |peer| peer.node)
    }

    /// The record of `node`, if a frame was ever exchanged with it.
    fn peer(&self, node: NodeId) -> Option<&Peer> {
        self.peer_index(node).ok().map(|index| &self.peers[index])
    }

    /// The record of `dst` and the outgoing channel in it.
    fn send_channel(&mut self, dst: NodeId) -> Result<(usize, Channel), RecipeError> {
        match self.channel_with(dst, |peer| peer.send) {
            Some(found) => Ok(found),
            None if self.enclave.is_crashed() => Err(TeeError::EnclaveCrashed.into()),
            None => Err(TeeError::MissingSecret {
                label: ChannelId::new(self.node, dst).label(),
            }
            .into()),
        }
    }

    /// The record of `src` and the incoming channel in it.
    fn recv_channel(&mut self, src: NodeId) -> Option<(usize, Channel)> {
        self.channel_with(src, |peer| peer.recv)
    }

    /// `cnt_cq ← cnt_cq + 1` inside the enclave: takes the next counter slot
    /// of the channel toward `dst`, for a frame that is sealed when `seal`
    /// is — the channel's cipher is bound first, so a channel without one
    /// spends no slot.
    fn next_slot(
        &mut self,
        dst: NodeId,
        seal: bool,
    ) -> Result<(Channel, SequenceTuple), RecipeError> {
        let (index, mut channel) = self.send_channel(dst)?;
        let id = ChannelId::new(self.node, dst);
        if seal {
            channel.bind_cipher(&mut self.enclave, id)?;
            self.peers[index].send = Some(channel);
        }
        let counter = self.enclave.counter_mut(channel.counter)?.increment();
        let tuple = SequenceTuple {
            view: self.view,
            channel: id,
            counter,
        };
        Ok((channel, tuple))
    }

    /// XORs `body` with the keystream of the frame `tuple` names — the
    /// channel's bound cipher, run from the tuple's counter, the last 8
    /// bytes of [`SequenceTuple::nonce`] — and returns the commitment of the
    /// key it was bound from. Sealing and opening are this one call.
    fn apply_keystream(
        &self,
        channel: Channel,
        tuple: &SequenceTuple,
        body: &mut [u8],
    ) -> Result<&KeyCommitment, RecipeError> {
        // Bound when the frame's slot was taken, or when it was admitted.
        let handle = channel.cipher.ok_or_else(|| TeeError::MissingSecret {
            label: CIPHER_LABEL.to_owned(),
        })?;
        let (cipher, commitment) = self.enclave.bound_cipher_at(handle)?;
        cipher.apply_keystream(&tuple.counter.to_le_bytes(), body);
        Ok(commitment)
    }

    /// Takes the next counter slot toward `dst` and builds the frame under
    /// it in a wire buffer from `frames`, a spare taken for the frame's
    /// length: `write_body` puts the `body_len` body bytes in place, where
    /// they are sealed and MAC'd, and the tag goes in its slot. With `seal`,
    /// the body is XORed with the keystream of the tuple's nonce first, and
    /// the MAC then covers the ciphertext and the cipher's key commitment.
    fn shield_framed(
        &mut self,
        frames: &mut FramePool,
        dst: NodeId,
        family: Family,
        seal: bool,
        body_len: usize,
        write_body: impl FnOnce(&mut Writer),
    ) -> Result<Vec<u8>, RecipeError> {
        let (channel, tuple) = self.next_slot(dst, seal)?;
        let spare = frames.take(family.wire_len(body_len));
        let mut image = family.image(&tuple, seal, body_len, spare, write_body);
        let body = image.body_mut();
        let commitment = if seal {
            Some(self.apply_keystream(channel, &tuple, body)?)
        } else {
            None
        };
        let key = self.enclave.bound_mac_key_at(channel.key)?;
        let tag = family.frame_mac(key, &tuple, body, commitment).tag();
        Ok(image.finish(&tag))
    }

    // ------------------------------------------------------------------
    // shield_request
    // ------------------------------------------------------------------

    /// [`AuthLayer::shield_to_wire`] as a frame struct: the wire bytes,
    /// parsed.
    pub fn shield(
        &mut self,
        dst: NodeId,
        kind: u16,
        payload: &[u8],
    ) -> Result<ShieldedMessage, RecipeError> {
        let wire = self.shield_to_wire(dst, kind, payload)?;
        ShieldedMessage::from_wire(&wire).ok_or(RecipeError::Malformed("shielded message"))
    }

    /// [`AuthLayer::shield_in`] into a buffer of the frame's own.
    pub fn shield_to_wire(
        &mut self,
        dst: NodeId,
        kind: u16,
        payload: &[u8],
    ) -> Result<Vec<u8>, RecipeError> {
        self.shield_in(&mut FramePool::default(), dst, kind, payload)
    }

    /// Shields a protocol message addressed to `dst` (Algorithm 1,
    /// `shield_request`) straight to wire bytes, in a spare from `frames`:
    /// the payload is copied once, into the frame, and sealed there.
    /// Confidential mode encrypts it before it leaves the enclave, under the
    /// nonce of its (channel, counter) pair.
    pub fn shield_in(
        &mut self,
        frames: &mut FramePool,
        dst: NodeId,
        kind: u16,
        payload: &[u8],
    ) -> Result<Vec<u8>, RecipeError> {
        let seal = self.is_confidential();
        let family = Family::Single { kind };
        self.shield_framed(frames, dst, family, seal, payload.len(), |w| {
            w.raw(payload);
        })
    }

    // ------------------------------------------------------------------
    // shield_batch
    // ------------------------------------------------------------------

    /// `AuthLayer::shield_batch_to_wire` as a frame struct: the wire bytes,
    /// parsed.
    pub fn shield_batch(
        &mut self,
        dst: NodeId,
        ops: &[BatchOp],
    ) -> Result<BatchFrame, RecipeError> {
        let wire = self.shield_batch_to_wire(dst, ops)?;
        BatchFrame::from_wire(&wire).ok_or(RecipeError::Malformed("batch frame"))
    }

    /// Shields a whole batch of protocol messages for `dst` under **one**
    /// counter slot, one MAC and (in confidential mode) one keystream pass —
    /// the amortized fast path of the leader-side batching pipeline —
    /// straight to wire bytes: the ops are encoded once, into the frame, and
    /// sealed there.
    pub(crate) fn shield_batch_to_wire(
        &mut self,
        dst: NodeId,
        ops: &[BatchOp],
    ) -> Result<Vec<u8>, RecipeError> {
        let count = Self::batch_count(ops.len() as u64)?;
        let seal = self.is_confidential();
        let body_len = BatchFrame::ops_len(ops);
        let frames = &mut FramePool::default();
        // One `cnt_cq ← cnt_cq + 1` for the whole frame.
        self.shield_framed(frames, dst, Family::Batch { count }, seal, body_len, |w| {
            BatchFrame::write_ops(w, ops);
        })
    }

    /// `AuthLayer::shield_batch_to_wire` of a batch already encoded —
    /// `body` is in `BatchFrame::write_ops`'s format, as
    /// [`BatchFrame::append_op`] builds it — in a spare from `frames`: the
    /// body is copied once, into the frame, and sealed there.
    pub fn shield_batch_body_in(
        &mut self,
        frames: &mut FramePool,
        dst: NodeId,
        body: &[u8],
    ) -> Result<Vec<u8>, RecipeError> {
        let ops = BatchFrame::op_count(body);
        let count = Self::batch_count(ops.into())?;
        let seal = self.is_confidential();
        let family = Family::Batch { count };
        self.shield_framed(frames, dst, family, seal, body.len(), |w| {
            w.raw(body);
        })
    }

    /// The authenticated op count of a batch of `ops`; an empty batch takes
    /// no counter slot.
    fn batch_count(ops: u64) -> Result<u32, RecipeError> {
        match u32::try_from(ops) {
            Ok(0) | Err(_) => Err(RecipeError::Malformed("empty batch")),
            Ok(count) => Ok(count),
        }
    }

    // ------------------------------------------------------------------
    // shield_txn
    // ------------------------------------------------------------------

    /// `AuthLayer::shield_txn_to_wire` sealed at the layer's own mode, as
    /// a frame struct: the wire bytes, parsed.
    pub fn shield_txn(
        &mut self,
        dst: NodeId,
        txn_id: u64,
        body: &TxnBody,
    ) -> Result<TxnFrame, RecipeError> {
        let seal = self.is_confidential();
        let wire = self.shield_txn_to_wire(dst, txn_id, body, seal)?;
        TxnFrame::from_wire(&wire).ok_or(RecipeError::Malformed("txn frame"))
    }

    /// [`AuthLayer::shield_txn_in`] into a buffer of the frame's own.
    pub(crate) fn shield_txn_to_wire(
        &mut self,
        dst: NodeId,
        txn_id: u64,
        body: &TxnBody,
        seal: bool,
    ) -> Result<Vec<u8>, RecipeError> {
        self.shield_txn_in(&mut FramePool::default(), dst, txn_id, body, seal)
    }

    /// Shields one two-phase-commit message for `dst` under the next counter
    /// slot of the channel, straight to wire bytes in a spare from `frames`:
    /// the body is encoded once, into the frame, sealed there when `seal`
    /// is, and MAC'd together with the transaction id behind the
    /// transaction family's tag — a 2PC frame can never be replayed as (or
    /// confused with) protocol traffic. The sealing is decided by the
    /// caller, per frame: a standing 2PC channel
    /// carries the transactions that touch a confidential shard sealed and
    /// the others in plaintext, under one key and one counter sequence.
    /// `seal` is under the MAC like everything else in the frame, and the
    /// enclave must hold the cipher key to seal.
    pub fn shield_txn_in(
        &mut self,
        frames: &mut FramePool,
        dst: NodeId,
        txn_id: u64,
        body: &TxnBody,
        seal: bool,
    ) -> Result<Vec<u8>, RecipeError> {
        let body_len = TxnFrame::body_len(body);
        let family = Family::Txn { txn_id };
        self.shield_framed(frames, dst, family, seal, body_len, |w| {
            TxnFrame::write_body(w, body);
        })
    }

    // ------------------------------------------------------------------
    // verify_request
    // ------------------------------------------------------------------

    /// Verifies a replication frame where it lies in the received bytes
    /// (Algorithm 1, `verify_request`): addressing, MAC, view and counter
    /// freshness. An in-order frame is delivered as slices of `frame`'s
    /// bytes: a plaintext one as it came, a sealed one decrypted in them when
    /// they were lent ([`FrameView::parse_mut`]) — copied once, to be
    /// decrypted, only when they were not. A frame ahead of its predecessors
    /// is copied once, as it came, into the protected buffer, from which
    /// [`AuthLayer::take_ready`] releases it.
    pub fn verify_view<'a>(&mut self, frame: FrameView<'a>) -> ViewOutcome<'a> {
        match self.receive(frame, false) {
            Ok((_, Opened::Message { kind, payload })) => ViewOutcome::Message { kind, payload },
            Ok((_, Opened::Batch(ops))) => ViewOutcome::Batch(ops),
            Err(Rejection::Ahead { .. }) => ViewOutcome::Buffered,
            // `receive` opens 2PC frames for the 2PC entry points only.
            Ok((_, Opened::Txn { .. })) | Err(_) => ViewOutcome::Rejected,
        }
    }

    /// [`AuthLayer::verify_view`] on a message struct, told apart by
    /// [`VerifyOutcome`]. The payload moves (rather than is copied) into the
    /// protected buffer or the [`VerifyOutcome::Accept`] result, and is
    /// decrypted where it lies.
    pub fn verify_owned(&mut self, msg: ShieldedMessage) -> VerifyOutcome {
        match self.receive(msg.into_view(), false) {
            Ok((counter, Opened::Message { kind, payload })) => VerifyOutcome::Accept {
                kind,
                payload: payload.into_owned(),
                counter,
            },
            // A single message opens as one.
            Ok(_) => VerifyOutcome::DecryptionFailed,
            Err(rejection) => rejection.into(),
        }
    }

    /// [`AuthLayer::verify_view`] on a batch frame struct: one MAC check,
    /// one counter check and one keystream pass admit or reject all `count`
    /// ops as a unit.
    pub fn verify_batch(&mut self, frame: BatchFrame) -> BatchVerifyOutcome {
        match self.receive(frame.into_view(), false) {
            Ok((counter, Opened::Batch(ops))) => BatchVerifyOutcome::Accept {
                ops: ops
                    .into_iter()
                    .map(|(kind, payload)| BatchOp::new(kind, payload.into_owned()))
                    .collect(),
                counter,
            },
            // A batch frame opens as one.
            Ok(_) => BatchVerifyOutcome::DecryptionFailed,
            Err(rejection) => rejection.into(),
        }
    }

    /// Verifies a two-phase-commit frame where it lies in the received bytes
    /// ([`FrameView::parse_txn`]): the checks of [`AuthLayer::verify_view`]
    /// for a frame of the transaction family. A plaintext body is decoded
    /// from the bytes, and only a sealed one is copied, to be decrypted. A
    /// frame ahead of its predecessors is dropped rather than buffered — see
    /// [`TxnVerifyOutcome::OutOfOrder`] — and a replication frame
    /// authenticates nothing here.
    pub fn verify_txn_view(&mut self, frame: FrameView<'_>) -> TxnVerifyOutcome {
        match self.receive(frame, true) {
            Ok((counter, Opened::Txn { txn_id, body })) => TxnVerifyOutcome::Accept {
                txn_id,
                body,
                counter,
            },
            // A 2PC frame opens as one.
            Ok(_) => TxnVerifyOutcome::DecryptionFailed,
            Err(rejection) => rejection.into(),
        }
    }

    /// [`AuthLayer::verify_txn_view`] on a frame struct, its body decrypted
    /// where it lies.
    pub fn verify_txn(&mut self, frame: TxnFrame) -> TxnVerifyOutcome {
        self.verify_txn_view(frame.into_view())
    }

    /// The one receive path every verify entry point takes: `frame` is
    /// admitted ([`AuthLayer::admit`]), then parked when it is a replication
    /// frame ahead of its turn, or opened ([`AuthLayer::open`]) when it is in
    /// order. `txn` is whether the entry point is a 2PC one: a frame of the
    /// other kind authenticates nothing there. A 2PC channel is strictly
    /// sequential — the coordinator retransmits a missing frame with its
    /// original counter — so no 2PC frame is parked. Delivers the frame's
    /// counter and what it opened into, or why it is not delivered now.
    fn receive<'a>(
        &mut self,
        frame: FrameView<'a>,
        txn: bool,
    ) -> Result<(u64, Opened<'a>), Rejection> {
        if matches!(frame.family, Family::Txn { .. }) != txn {
            self.rejected_auth += 1;
            return Err(Rejection::BadAuthenticator);
        }
        match self.admit(&frame)? {
            Admission::Ahead {
                peer,
                counter,
                expected,
            } => {
                if !txn {
                    self.peers[peer].pending.insert(counter, frame.into_owned());
                }
                Err(Rejection::Ahead { counter, expected })
            }
            Admission::InOrder { counter, channel } => match self.open(frame, channel) {
                Some(opened) => Ok((counter, opened)),
                None => {
                    self.rejected_auth += 1;
                    Err(Rejection::Unopened)
                }
            },
        }
    }

    /// Opens a frame admitted on `channel` into what it delivers: the one
    /// place a received body is decrypted and decoded, for every entry point
    /// and for the parked frames [`AuthLayer::take_ready`] releases. A sealed
    /// body is decrypted where it lies when the frame owns it or was lent it
    /// ([`FrameView::parse_mut`]), and copied once when it only borrows it —
    /// the frame's MAC was verified over exactly these bytes before its
    /// counter slot was spent. `None` is a body that does not decode as its
    /// family says, or an enclave that would not hand out the cipher:
    /// [`VerifyOutcome::DecryptionFailed`].
    fn open<'a>(&self, frame: FrameView<'a>, channel: Channel) -> Option<Opened<'a>> {
        let FrameView {
            tuple,
            sealed,
            family,
            body,
            ..
        } = frame;
        let body = match body {
            Body::Lent(bytes) => {
                if sealed {
                    self.apply_keystream(channel, &tuple, bytes).ok()?;
                }
                Cow::Borrowed(&*bytes)
            }
            Body::Shared(bytes) if !sealed => Cow::Borrowed(bytes),
            body => {
                let mut bytes = body.into_vec();
                if sealed {
                    self.apply_keystream(channel, &tuple, &mut bytes).ok()?;
                }
                Cow::Owned(bytes)
            }
        };
        let opened = match family {
            Family::Single { kind } => Opened::Message {
                kind,
                payload: body,
            },
            Family::Batch { count } => {
                let ops = match body {
                    Cow::Borrowed(body) => {
                        BatchFrame::decode_ops_with(body, |kind, p| (kind, Cow::Borrowed(p)))
                    }
                    Cow::Owned(body) => {
                        BatchFrame::decode_ops_with(&body, |kind, p| (kind, Cow::Owned(p.to_vec())))
                    }
                }?;
                if ops.len() != count as usize {
                    return None;
                }
                Opened::Batch(ops)
            }
            Family::Txn { txn_id } => Opened::Txn {
                txn_id,
                body: TxnFrame::decode_body(&body)?,
            },
        };
        Some(opened)
    }

    /// The checks of Algorithm 1's `verify_request`, and the only place a
    /// frame is checked: addressing, MAC, view and freshness, in that order.
    /// The MAC is under the bound key of the channel the tuple names, so a
    /// tuple naming another source or destination than the frame was sealed
    /// for fails it, and it is over the body as it arrived — ciphertext when
    /// sealed, which also puts this enclave's cipher key commitment under it
    /// — and nothing is decrypted here or before here. Advances the trusted
    /// receive counter on in-order delivery and records rejection
    /// statistics; parking and opening stay with [`AuthLayer::receive`].
    fn admit(&mut self, frame: &FrameView<'_>) -> Result<Admission, Rejection> {
        let tuple = &frame.tuple;
        if tuple.channel.dst != self.node {
            self.rejected_auth += 1;
            return Err(Rejection::Misaddressed);
        }
        let Some((peer, channel, last_accepted)) = self.authenticate(frame) else {
            self.rejected_auth += 1;
            return Err(Rejection::BadAuthenticator);
        };
        if tuple.view != self.view {
            self.rejected_view += 1;
            return Err(Rejection::WrongView {
                got: tuple.view,
                current: self.view,
            });
        }

        // Freshness: compare against the receive counter for this channel.
        let counter = tuple.counter;
        if counter <= last_accepted {
            self.rejected_replays += 1;
            return Err(Rejection::Replay {
                counter,
                last_accepted,
            });
        }
        if counter > last_accepted + 1 {
            return Ok(Admission::Ahead {
                peer,
                counter,
                expected: last_accepted + 1,
            });
        }

        // In-order frame: bump the trusted receive counter.
        if let Ok(recv_counter) = self.enclave.counter_mut(channel.counter) {
            let _ = recv_counter.advance_to(counter);
        }
        Ok(Admission::InOrder { counter, channel })
    }

    /// The MAC check of [`AuthLayer::admit`]: the record of the claimed
    /// source, its receive channel and the last counter accepted on it, if
    /// the frame verifies under the channel's bound key. A sealed frame
    /// binds the channel's cipher first, as its key commitment is under the
    /// MAC. No key for the claimed source, a sealed frame and no cipher key
    /// to commit to, or an enclave that refuses to hand them out,
    /// authenticates nothing.
    fn authenticate(&mut self, frame: &FrameView<'_>) -> Option<(usize, Channel, u64)> {
        let tuple = &frame.tuple;
        let (peer, mut channel) = self.recv_channel(tuple.channel.src)?;
        if frame.sealed {
            channel.bind_cipher(&mut self.enclave, tuple.channel).ok()?;
            self.peers[peer].recv = Some(channel);
        }
        let key = self.enclave.bound_mac_key_at(channel.key).ok()?;
        let last_accepted = self.enclave.counter_value(channel.counter).ok()?;
        let commitment = match channel.cipher {
            Some(cipher) if frame.sealed => Some(self.enclave.bound_cipher_at(cipher).ok()?.1),
            _ => None,
        };
        frame
            .family
            .frame_mac(key, tuple, frame.body.as_slice(), commitment)
            .verify(&frame.mac)
            .ok()?;
        Some((peer, channel, last_accepted))
    }

    /// Releases buffered "future" frames from `src` that have become deliverable
    /// (their counters are now consecutive with the receive counter), in order,
    /// each opened by the routine an in-order frame is opened by. Batch frames
    /// are flattened into their ops, each tagged with the frame's counter.
    pub fn take_ready(&mut self, src: NodeId) -> Vec<(u16, Vec<u8>, u64)> {
        let mut ready = Vec::new();
        let Ok(index) = self.peer_index(src) else {
            return ready;
        };
        let peer = &mut self.peers[index];
        let Some(channel) = peer.recv else {
            return ready;
        };
        // First move the trusted counter over every frame that is now in order,
        // then open them: opening borrows the whole layer, the record a part.
        let mut released = Vec::new();
        while !peer.pending.is_empty() {
            let Ok(counter) = self.enclave.counter_mut(channel.counter) else {
                break;
            };
            let next = counter.current() + 1;
            let Some(frame) = peer.pending.remove(&next) else {
                break;
            };
            let _ = counter.advance_to(next);
            released.push((next, frame));
        }
        for (next, frame) in released {
            match self.open(frame, channel) {
                Some(Opened::Message { kind, payload }) => {
                    ready.push((kind, payload.into_owned(), next));
                }
                Some(Opened::Batch(ops)) => ready.extend(
                    ops.into_iter()
                        .map(|(kind, payload)| (kind, payload.into_owned(), next)),
                ),
                // No 2PC frame is parked.
                Some(Opened::Txn { .. }) | None => self.rejected_auth += 1,
            }
        }
        ready
    }

    /// Number of frames currently buffered as "future" arrivals from `src`.
    #[cfg(test)]
    pub(crate) fn pending_from(&self, src: NodeId) -> usize {
        self.peer(src).map_or(0, |peer| peer.pending.len())
    }

    /// The trusted send counter toward `dst` — how many frames this node's
    /// enclave has sealed on the `self → dst` channel. The attestation service
    /// reads this during re-attestation of a restarted peer (paper §3.7) so the
    /// peer can fast-forward its receive counter past frames it slept through.
    pub fn send_counter_to(&self, dst: NodeId) -> u64 {
        // No record, or no outgoing channel in it: no frame toward `dst` was
        // ever sealed here, and the counter it would have used is at zero.
        self.peer(dst)
            .and_then(|peer| peer.send)
            .and_then(|channel| self.enclave.counter_value(channel.counter).ok())
            .unwrap_or(0)
    }

    /// The trusted receive counter for `src` — the counter of the last frame
    /// this node's enclave accepted on the `src → self` channel (0 before the
    /// first). Only an authentic, in-order frame moves it.
    pub fn recv_counter_from(&self, src: NodeId) -> u64 {
        self.peer(src)
            .and_then(|peer| peer.recv)
            .and_then(|channel| self.enclave.counter_value(channel.counter).ok())
            .unwrap_or(0)
    }

    /// Re-attestation channel resync: fast-forwards the trusted receive counter
    /// for the `src → self` channel to `peer_send_counter` (the value the
    /// attestation service read from `src`'s enclave) and discards any frames
    /// buffered from `src`. Counters only move forward — `advance_to` refuses
    /// regressions — so a compromised resync can never re-open the replay
    /// window. Frames sealed before the resync point arriving afterwards are
    /// rejected as replays: a recovering replica cannot act on stale traffic.
    pub fn resync_from(&mut self, src: NodeId, peer_send_counter: u64) {
        let Some((index, channel)) = self.recv_channel(src) else {
            return;
        };
        if let Ok(counter) = self.enclave.counter_mut(channel.counter) {
            let _ = counter.advance_to(peer_send_counter);
        }
        self.peers[index].pending.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{BATCH_MAC_HEADER_LEN, SINGLE_MAC_HEADER_LEN, TXN_MAC_HEADER_LEN};
    use recipe_crypto::MacKey;
    use recipe_tee::{EnclaveConfig, EnclaveId};

    /// Builds a pair of auth layers (node 1 → node 2) sharing channel keys, as the
    /// CAS would provision them after attestation.
    fn layer_pair(confidential: bool) -> (AuthLayer, AuthLayer) {
        let master = MacKey::from_bytes([9u8; 32]);
        let mut enclave_1 = Enclave::launch(EnclaveId(1), EnclaveConfig::new("code", 1));
        let mut enclave_2 = Enclave::launch(EnclaveId(2), EnclaveConfig::new("code", 2));
        for label in ["cq:1->2", "cq:2->1"] {
            enclave_1
                .provision_mac_key(label, master.derive(label))
                .unwrap();
            enclave_2
                .provision_mac_key(label, master.derive(label))
                .unwrap();
        }
        if confidential {
            let key = CipherKey::from_bytes([3u8; 32]);
            enclave_1
                .provision_cipher_key(CIPHER_LABEL, key.clone())
                .unwrap();
            enclave_2.provision_cipher_key(CIPHER_LABEL, key).unwrap();
        }
        (
            AuthLayer::new(NodeId(1), enclave_1, confidential),
            AuthLayer::new(NodeId(2), enclave_2, confidential),
        )
    }

    /// Whether `layer` delivers `msg` now, checked on its wire bytes where
    /// they lie.
    fn delivers(layer: &mut AuthLayer, msg: &ShieldedMessage) -> bool {
        by_view(layer, &msg.to_wire()).is_some_and(|ops| ops.len() == 1)
    }

    #[test]
    fn shield_then_verify_accepts_in_order_messages() {
        let (mut sender, mut receiver) = layer_pair(false);
        for i in 1..=5u64 {
            let msg = sender
                .shield(NodeId(2), 7, format!("op{i}").as_bytes())
                .unwrap();
            assert_eq!(msg.tuple.counter, i);
            match receiver.verify_owned(msg) {
                VerifyOutcome::Accept {
                    kind,
                    payload,
                    counter,
                } => {
                    assert_eq!(kind, 7);
                    assert_eq!(payload, format!("op{i}").into_bytes());
                    assert_eq!(counter, i);
                }
                other => panic!("expected Accept, got {other:?}"),
            }
        }
        assert_eq!(receiver.rejection_counts(), (0, 0, 0));
    }

    #[test]
    fn replayed_message_is_rejected() {
        let (mut sender, mut receiver) = layer_pair(false);
        let msg = sender.shield(NodeId(2), 1, b"cmd").unwrap();
        assert!(delivers(&mut receiver, &msg));
        // The adversary replays the (authentic, previously accepted) message.
        match receiver.verify_owned(msg) {
            VerifyOutcome::Replay {
                counter,
                last_accepted,
            } => {
                assert_eq!(counter, 1);
                assert_eq!(last_accepted, 1);
            }
            other => panic!("expected Replay, got {other:?}"),
        }
        assert_eq!(receiver.rejection_counts().0, 1);
    }

    #[test]
    fn tampered_payload_is_rejected() {
        let (mut sender, mut receiver) = layer_pair(false);
        let mut msg = sender.shield(NodeId(2), 1, b"transfer 10 coins").unwrap();
        msg.payload[9] ^= 0xFF;
        assert_eq!(receiver.verify_owned(msg), VerifyOutcome::BadAuthenticator);
        // Tampering with metadata (the counter) is equally fatal.
        let mut msg = sender.shield(NodeId(2), 1, b"x").unwrap();
        msg.tuple.counter += 10;
        assert_eq!(receiver.verify_owned(msg), VerifyOutcome::BadAuthenticator);
        // And remapping the message kind is detected too.
        let mut msg = sender.shield(NodeId(2), 1, b"x").unwrap();
        msg.kind = 99;
        assert_eq!(receiver.verify_owned(msg), VerifyOutcome::BadAuthenticator);
    }

    #[test]
    fn message_without_shared_key_is_rejected() {
        let (mut sender, _) = layer_pair(false);
        // Node 3 never attested, so it has no channel key for cq:1->3... and node 1
        // cannot even shield to it. Conversely a receiver without the key rejects.
        let msg = sender.shield(NodeId(2), 1, b"x").unwrap();
        let enclave_3 = Enclave::launch(EnclaveId(3), EnclaveConfig::new("code", 3));
        let mut outsider = AuthLayer::new(NodeId(2), enclave_3, false);
        assert_eq!(outsider.verify_owned(msg), VerifyOutcome::BadAuthenticator);
    }

    #[test]
    fn misaddressed_message_is_rejected() {
        let (mut sender, _) = layer_pair(false);
        let msg = sender.shield(NodeId(2), 1, b"x").unwrap();
        // Node 1 receives its own message back (reflection attack).
        assert_eq!(sender.verify_owned(msg), VerifyOutcome::Misaddressed);
    }

    #[test]
    fn wrong_view_is_rejected() {
        let (mut sender, mut receiver) = layer_pair(false);
        sender.set_view(1);
        let msg = sender.shield(NodeId(2), 1, b"x").unwrap();
        assert_eq!(
            receiver.verify_owned(msg.clone()),
            VerifyOutcome::WrongView { got: 1, current: 0 }
        );
        receiver.set_view(1);
        // Once the receiver catches up to the view, a retransmission of the same
        // message is accepted (the view rejection never advanced the counter).
        assert!(delivers(&mut receiver, &msg));
    }

    #[test]
    fn future_messages_are_buffered_and_released_in_order() {
        let (mut sender, mut receiver) = layer_pair(false);
        let m1 = sender.shield(NodeId(2), 1, b"first").unwrap();
        let m2 = sender.shield(NodeId(2), 1, b"second").unwrap();
        let m3 = sender.shield(NodeId(2), 1, b"third").unwrap();

        // Deliver out of order: 3, 2, then 1.
        assert_eq!(
            receiver.verify_owned(m3),
            VerifyOutcome::Future {
                counter: 3,
                expected: 1
            }
        );
        assert_eq!(
            receiver.verify_owned(m2.clone()),
            VerifyOutcome::Future {
                counter: 2,
                expected: 1
            }
        );
        assert_eq!(receiver.pending_from(NodeId(1)), 2);
        assert!(receiver.take_ready(NodeId(1)).is_empty());

        // Once the gap fills, the buffered messages drain in counter order.
        assert!(delivers(&mut receiver, &m1));
        let ready = receiver.take_ready(NodeId(1));
        assert_eq!(ready.len(), 2);
        assert_eq!(ready[0].1, b"second");
        assert_eq!(ready[1].1, b"third");
        assert_eq!(ready[0].2, 2);
        assert_eq!(ready[1].2, 3);
        assert_eq!(receiver.pending_from(NodeId(1)), 0);

        // Replaying a drained future message is now rejected.
        assert!(matches!(
            receiver.verify_owned(m2),
            VerifyOutcome::Replay { .. }
        ));
    }

    #[test]
    fn made_up_sources_leave_no_trace() {
        let (mut sender, mut receiver) = layer_pair(false);
        assert!(delivers(
            &mut receiver,
            &sender.shield(NodeId(2), 1, b"x").unwrap()
        ));
        let (peers, counters) = (receiver.peers.len(), receiver.enclave().counter_count());

        // A host can claim any source; node 2 holds no key for these.
        for src in [3u64, 9, u64::MAX] {
            let mut forged = sender.shield(NodeId(2), 1, b"x").unwrap();
            forged.tuple.channel.src = NodeId(src);
            assert_eq!(
                receiver.verify_owned(forged),
                VerifyOutcome::BadAuthenticator
            );
            assert!(receiver.take_ready(NodeId(src)).is_empty());
            receiver.resync_from(NodeId(src), 50);
            assert_eq!(receiver.send_counter_to(NodeId(src)), 0);
            assert!(receiver.shield(NodeId(src), 1, b"x").is_err());
        }
        assert_eq!(receiver.peers.len(), peers);
        assert_eq!(receiver.enclave().counter_count(), counters);
    }

    #[test]
    fn a_key_provisioned_after_first_contact_is_picked_up() {
        let master = MacKey::from_bytes([9u8; 32]);
        let (mut sender, _) = layer_pair(false);
        let mut enclave = Enclave::launch(EnclaveId(2), EnclaveConfig::new("code", 2));
        enclave
            .provision_mac_key("cq:2->1", master.derive("cq:2->1"))
            .unwrap();
        let mut receiver = AuthLayer::new(NodeId(2), enclave, false);
        // Node 2 can send to node 1 but not yet hear from it.
        receiver.shield(NodeId(1), 1, b"hello").unwrap();
        let msg = sender.shield(NodeId(2), 1, b"x").unwrap();
        assert_eq!(
            receiver.verify_owned(msg.clone()),
            VerifyOutcome::BadAuthenticator
        );
        receiver
            .enclave_mut()
            .provision_mac_key("cq:1->2", master.derive("cq:1->2"))
            .unwrap();
        assert!(delivers(&mut receiver, &msg));
        assert_eq!(receiver.peers.len(), 1);
    }

    #[test]
    fn recovery_reads_and_moves_the_counters_frames_use() {
        let (mut sender, mut receiver) = layer_pair(false);
        assert_eq!(sender.send_counter_to(NodeId(2)), 0);
        let slept_through: Vec<_> = (0..3)
            .map(|_| sender.shield(NodeId(2), 1, b"x").unwrap())
            .collect();
        assert_eq!(sender.send_counter_to(NodeId(2)), 3);
        // A frame ahead of the gap is buffered; the resync discards it.
        let ahead = sender.shield(NodeId(2), 1, b"ahead").unwrap();
        assert!(matches!(
            receiver.verify_owned(ahead.clone()),
            VerifyOutcome::Future { counter: 4, .. }
        ));

        receiver.resync_from(NodeId(1), sender.send_counter_to(NodeId(2)));
        assert_eq!(receiver.pending_from(NodeId(1)), 0);
        for msg in &slept_through {
            assert!(matches!(
                receiver.verify_owned(msg.clone()),
                VerifyOutcome::Replay {
                    last_accepted: 4,
                    ..
                }
            ));
        }
        assert!(matches!(
            receiver.verify_owned(ahead),
            VerifyOutcome::Replay { .. }
        ));
        // The next frame the sender seals is the next one the receiver takes.
        assert!(delivers(
            &mut receiver,
            &sender.shield(NodeId(2), 1, b"next").unwrap()
        ));
        // A resync never moves a counter back.
        receiver.resync_from(NodeId(1), 2);
        assert!(matches!(
            receiver.verify_owned(slept_through[2].clone()),
            VerifyOutcome::Replay {
                last_accepted: 5,
                ..
            }
        ));
    }

    #[test]
    fn a_crashed_enclave_shields_and_accepts_nothing() {
        let (mut sender, mut receiver) = layer_pair(false);
        let before = sender.shield(NodeId(2), 1, b"x").unwrap();
        let first = sender.shield(NodeId(3), 1, b"x");
        assert!(matches!(
            first,
            Err(RecipeError::Tee(recipe_tee::TeeError::MissingSecret { .. }))
        ));
        sender.enclave_mut().crash();
        // Resolved channel or not, the enclave is what refuses.
        for dst in [2, 3] {
            assert!(matches!(
                sender.shield(NodeId(dst), 1, b"x"),
                Err(RecipeError::Tee(recipe_tee::TeeError::EnclaveCrashed))
            ));
        }
        assert!(sender.shield_batch(NodeId(2), &ops(2)).is_err());
        assert_eq!(sender.send_counter_to(NodeId(2)), 0);

        assert!(delivers(&mut receiver, &before));
        let after = before.clone();
        receiver.enclave_mut().crash();
        assert_eq!(
            receiver.verify_owned(after),
            VerifyOutcome::BadAuthenticator
        );
    }

    #[test]
    fn the_to_wire_calls_are_the_wire_forms_of_the_frame_structs() {
        for confidential in [false, true] {
            // Two identical pairs: same keys, same counters, so the same frames.
            let (mut by_struct, _) = layer_pair(confidential);
            let (mut by_bytes, mut receiver) = layer_pair(confidential);
            for payload in [&b""[..], b"ack", &[0xA5; 300]] {
                let wire = by_bytes.shield_to_wire(NodeId(2), 7, payload).unwrap();
                assert_eq!(
                    wire,
                    by_struct.shield(NodeId(2), 7, payload).unwrap().to_wire()
                );
                let parsed = ShieldedMessage::from_wire(&wire).unwrap();
                match receiver.verify_owned(parsed) {
                    VerifyOutcome::Accept { payload: got, .. } => assert_eq!(got, payload),
                    other => panic!("expected Accept, got {other:?}"),
                }
            }
            for n in [1, 5] {
                let wire = by_bytes.shield_batch_to_wire(NodeId(2), &ops(n)).unwrap();
                assert_eq!(
                    wire,
                    by_struct
                        .shield_batch(NodeId(2), &ops(n))
                        .unwrap()
                        .to_wire()
                );
                match receiver.verify_batch(BatchFrame::from_wire(&wire).unwrap()) {
                    BatchVerifyOutcome::Accept { ops: got, .. } => assert_eq!(got, ops(n)),
                    other => panic!("expected Accept, got {other:?}"),
                }
            }
            assert!(by_bytes.shield_batch_to_wire(NodeId(2), &[]).is_err());
            for body in [prepare_body(), TxnBody::Commit] {
                let wire = by_bytes
                    .shield_txn_to_wire(NodeId(2), 9, &body, confidential)
                    .unwrap();
                assert_eq!(
                    wire,
                    by_struct.shield_txn(NodeId(2), 9, &body).unwrap().to_wire()
                );
                match receiver.verify_txn(TxnFrame::from_wire(&wire).unwrap()) {
                    TxnVerifyOutcome::Accept { body: got, .. } => assert_eq!(got, body),
                    other => panic!("expected Accept, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn a_dirty_spare_gives_the_bytes_a_fresh_buffer_does() {
        /// One frame of each family, from `tx`, with `frames` lending the buffers.
        type Shield = fn(&mut AuthLayer, &mut FramePool) -> Vec<u8>;
        let shields: [Shield; 4] = [
            |tx, frames| tx.shield_in(frames, NodeId(2), 7, &[0x42; 70]).unwrap(),
            |tx, frames| {
                let body = BatchFrame::encode_ops(&ops(3));
                tx.shield_batch_body_in(frames, NodeId(2), &body).unwrap()
            },
            |tx, frames| {
                let seal = tx.is_confidential();
                tx.shield_txn_in(frames, NodeId(2), 9, &prepare_body(), seal)
                    .unwrap()
            },
            |tx, frames| {
                let seal = tx.is_confidential();
                tx.shield_txn_in(frames, NodeId(2), 9, &TxnBody::Commit, seal)
                    .unwrap()
            },
        ];
        for confidential in [false, true] {
            // Same keys, same counters, so the same frames.
            let (mut fresh, _) = layer_pair(confidential);
            let (mut reused, _) = layer_pair(confidential);
            let mut frames = FramePool::default();
            for shield in shields {
                let expected = shield(&mut fresh, &mut FramePool::default());
                // A spare of the frame's class, full of stale bytes to its
                // last one.
                let mut dirty = frames.take(expected.len());
                dirty.resize(dirty.capacity(), 0xAA);
                let (spare_at, spare_len) = (dirty.as_ptr(), dirty.len());
                frames.give(dirty);
                let allocated = frames.allocated();
                let wire = shield(&mut reused, &mut frames);
                assert_eq!(wire, expected);
                assert_eq!(wire.as_ptr(), spare_at, "the spare was used");
                assert!(spare_len >= wire.len());
                assert_eq!(frames.allocated(), allocated);
            }
        }
    }

    #[test]
    fn counters_are_independent_per_channel() {
        let master = MacKey::from_bytes([9u8; 32]);
        let mut enclave = Enclave::launch(EnclaveId(1), EnclaveConfig::new("code", 1));
        for label in ["cq:1->2", "cq:1->3"] {
            enclave
                .provision_mac_key(label, master.derive(label))
                .unwrap();
        }
        let mut sender = AuthLayer::new(NodeId(1), enclave, false);
        let to_2 = sender.shield(NodeId(2), 1, b"a").unwrap();
        let to_3 = sender.shield(NodeId(3), 1, b"b").unwrap();
        assert_eq!(to_2.tuple.counter, 1);
        assert_eq!(to_3.tuple.counter, 1);
        assert_eq!(sender.shield(NodeId(2), 1, b"c").unwrap().tuple.counter, 2);
    }

    #[test]
    fn confidential_messages_roundtrip_and_hide_payload() {
        let (mut sender, mut receiver) = layer_pair(true);
        assert!(sender.is_confidential());
        let msg = sender.shield(NodeId(2), 4, b"secret balance=100").unwrap();
        assert!(msg.confidential);
        // The wire payload is ciphertext.
        assert!(!msg
            .payload
            .windows(b"balance".len())
            .any(|w| w == b"balance"));
        match receiver.verify_owned(msg) {
            VerifyOutcome::Accept { payload, .. } => assert_eq!(payload, b"secret balance=100"),
            other => panic!("expected Accept, got {other:?}"),
        }
    }

    /// A receiver that shares the MAC keys but holds a *different* cipher key
    /// (a misconfigured deployment).
    fn receiver_with_another_cipher_key() -> AuthLayer {
        let master = MacKey::from_bytes([9u8; 32]);
        let mut enclave = Enclave::launch(EnclaveId(2), EnclaveConfig::new("code", 2));
        for label in ["cq:1->2", "cq:2->1"] {
            enclave
                .provision_mac_key(label, master.derive(label))
                .unwrap();
        }
        enclave
            .provision_cipher_key(CIPHER_LABEL, CipherKey::from_bytes([99u8; 32]))
            .unwrap();
        AuthLayer::new(NodeId(2), enclave, true)
    }

    #[test]
    fn confidential_decryption_failure_is_flagged() {
        let (mut sender, mut right_key) = layer_pair(true);
        let msg = sender.shield(NodeId(2), 4, b"secret").unwrap();
        let batch = sender.shield_batch(NodeId(2), &ops(2)).unwrap();
        let txn = sender.shield_txn(NodeId(2), 7, &prepare_body()).unwrap();
        // The cipher key is committed to under the frame MAC: with another
        // one the frame does not authenticate, so no junk reaches the
        // protocol and the receive counter stays where it was …
        let mut receiver = receiver_with_another_cipher_key();
        for _ in 0..2 {
            assert_eq!(
                receiver.verify_owned(msg.clone()),
                VerifyOutcome::BadAuthenticator
            );
            assert_eq!(
                receiver.verify_batch(batch.clone()),
                BatchVerifyOutcome::BadAuthenticator
            );
            assert_eq!(
                receiver.verify_txn(txn.clone()),
                TxnVerifyOutcome::BadAuthenticator
            );
        }
        assert_eq!(receiver.rejection_counts(), (0, 6, 0));
        assert_eq!(receiver.recv_counter_from(NodeId(1)), 0);
        // … as it does with none at all: a sealed frame needs the key to
        // authenticate, not just to open.
        let (_, mut keyless) = layer_pair(false);
        assert_eq!(
            keyless.verify_owned(msg.clone()),
            VerifyOutcome::BadAuthenticator
        );
        // The same frames at the right key.
        assert!(delivers(&mut right_key, &msg));
        assert!(right_key.verify_batch(batch).is_accept());
        assert!(right_key.verify_txn(txn).is_accept());
        // Plaintext frames commit to no cipher key and pass either way.
        let (mut plain_sender, _) = layer_pair(false);
        let plain = plain_sender.shield(NodeId(2), 4, b"public").unwrap();
        assert!(delivers(&mut receiver, &plain));
    }

    /// A batch frame to node 2 that says three ops and carries two, sealed
    /// and MAC'd by `sender` as its own.
    fn mismatched_batch(sender: &mut AuthLayer, sealed: bool) -> Vec<u8> {
        let body = BatchFrame::encode_ops(&ops(2));
        let family = Family::Batch { count: 3 };
        let frames = &mut FramePool::default();
        sender
            .shield_framed(frames, NodeId(2), family, sealed, body.len(), |w| {
                w.raw(&body);
            })
            .unwrap()
    }

    #[test]
    fn an_authentic_body_that_does_not_decode_is_flagged_not_delivered() {
        // What `DecryptionFailed` still means: the MAC is good, the slot is
        // spent, and the body is not what the frame says it is — only a
        // sender can produce that. Built by sealing mismatched parts by hand.
        for sealed in [false, true] {
            let (mut sender, mut receiver) = layer_pair(sealed);
            let wire = mismatched_batch(&mut sender, sealed);
            assert_eq!(
                receiver.verify_batch(BatchFrame::from_wire(&wire).unwrap()),
                BatchVerifyOutcome::DecryptionFailed
            );
            let (frames, family) = (&mut FramePool::default(), Family::Txn { txn_id: 7 });
            let wire = sender
                .shield_framed(frames, NodeId(2), family, sealed, 1, |w| {
                    w.raw(&[0xFF]);
                })
                .unwrap();
            assert_eq!(
                receiver.verify_txn(TxnFrame::from_wire(&wire).unwrap()),
                TxnVerifyOutcome::DecryptionFailed
            );
            // Both slots are spent; the channel goes on.
            let next = sender.shield(NodeId(2), 1, b"next").unwrap();
            assert_eq!(next.tuple.counter, 3);
            assert!(delivers(&mut receiver, &next));
        }
    }

    /// Three sealed frames against bytes computed outside this workspace:
    /// HMAC-SHA-256 from Python's `hmac`, HChaCha20 written out in Python,
    /// the ChaCha20 keystream from `openssl enc -chacha20`. They pin, for
    /// each family, the cipher sub-key and key-commitment labels, the nonce
    /// (`src | dst | counter`, little-endian words), what the MAC covers and
    /// in which order, and the layout — regenerate them the same way, never
    /// by printing. Each MAC is then recomputed longhand here as well: the
    /// channel block, the header, the ciphertext and the commitment joined
    /// in one buffer and tagged with the plain, unbound channel key.
    #[test]
    fn sealed_frames_match_an_independent_computation() {
        let hex = |bytes: &[u8]| -> String { bytes.iter().map(|b| format!("{b:02x}")).collect() };
        let (mut sender, mut receiver) = layer_pair(true);
        let single = sender
            .shield_to_wire(NodeId(2), 4, b"secret balance=100")
            .unwrap();
        assert_eq!(
            hex(&single),
            concat!(
                "0101",
                "0000000000000000010000000000000002000000000000000100000000000000",
                "db127e2c2e6d4452beb7f2ee20cd1d947ae5f83270651d617dc03e6792c3bb25",
                "0400",
                "12000000",
                "6461d8616691f1a1be8b6ba84b001a6d7086",
            )
        );
        let batch = sender.shield_batch_to_wire(NodeId(2), &ops(2)).unwrap();
        assert_eq!(
            hex(&batch),
            concat!(
                "0201",
                "0000000000000000010000000000000002000000000000000200000000000000",
                "5498ce68303b87f06474c4e96a89209a521fd3018e0f0ff72ce356565755c0b5",
                "02000000",
                "16000000",
                "41543ef4db2fbf2caa11d5d4b3483b56593d61e219e5",
            )
        );
        let txn = sender
            .shield_txn_to_wire(NodeId(2), 7, &prepare_body(), true)
            .unwrap();
        assert_eq!(
            hex(&txn),
            concat!(
                "0301",
                "0000000000000000010000000000000002000000000000000300000000000000",
                "d471c2df0f109bdd0b3786d169dff3137da040f5974c1da48ff0ed1b6ecc7299",
                "0700000000000000",
                "23000000",
                "ae45bdea4b8412319f29c35350a680221635d7dd86458369aaf8413834d02b04b5ffc5",
            )
        );

        let channel_key = MacKey::from_bytes([9u8; 32]).derive("cq:1->2");
        let commitment =
            *recipe_crypto::Cipher::new(&CipherKey::from_bytes([3u8; 32])).key_commitment();
        let mut block = [0u8; 64];
        block[..19].copy_from_slice(b"recipe.frame_mac.v2");
        block[48..56].copy_from_slice(&1u64.to_le_bytes());
        block[56..].copy_from_slice(&2u64.to_le_bytes());
        // (wire, family tag, counter, the family's field as it travels)
        let frames: [(&[u8], u8, u64, &[u8]); 3] = [
            (&single, 1, 1, &4u16.to_le_bytes()),
            (&batch, 2, 2, &2u32.to_le_bytes()),
            (&txn, 3, 3, &7u64.to_le_bytes()),
        ];
        for (wire, family, counter, field) in frames {
            // tag | sealed | tuple (32) | mac (32) | field | len u32 | body
            let body = &wire[2 + 32 + 32 + field.len() + 4..];
            let mut input = block.to_vec();
            input.extend_from_slice(&[family, 1]);
            input.extend_from_slice(&0u64.to_le_bytes());
            input.extend_from_slice(&counter.to_le_bytes());
            input.extend_from_slice(field);
            input.extend_from_slice(&(body.len() as u32).to_le_bytes());
            input.extend_from_slice(body);
            input.extend_from_slice(&commitment);
            assert_eq!(
                &wire[34..66],
                channel_key.tag(&input).as_bytes(),
                "family {family}"
            );
        }

        assert!(receiver
            .verify_owned(ShieldedMessage::from_wire(&single).unwrap())
            .is_accept());
        assert!(receiver
            .verify_batch(BatchFrame::from_wire(&batch).unwrap())
            .is_accept());
        assert!(receiver
            .verify_txn(TxnFrame::from_wire(&txn).unwrap())
            .is_accept());
    }

    /// Frames of every family whose MAC input — MAC header, body and,
    /// sealed, key commitment — is 54, 55 and 56 bytes long plaintext, and
    /// a sealed family's three shortest, which are 56 bytes or more: a
    /// one-block MAC on the short side, a streamed one on the long. Each
    /// tag is the plain HMAC of the whole input, joined and tagged with the
    /// unbound channel key; a tag with one bit flipped is refused and leaves
    /// the slot to the frame as sent, which verifies.
    #[test]
    fn frames_either_side_of_the_one_block_edge_verify_and_refuse_a_flipped_tag() {
        let channel_key = MacKey::from_bytes([9u8; 32]).derive("cq:1->2");
        let commitment =
            *recipe_crypto::Cipher::new(&CipherKey::from_bytes([3u8; 32])).key_commitment();
        let mut block = [0u8; 64];
        block[..19].copy_from_slice(b"recipe.frame_mac.v2");
        block[48..56].copy_from_slice(&1u64.to_le_bytes());
        block[56..].copy_from_slice(&2u64.to_le_bytes());
        // A refused vote naming an `n`-byte key.
        fn refusal(n: usize) -> TxnBody {
            TxnBody::Vote {
                granted: false,
                conflict: Some(vec![0x42; n]),
            }
        }
        // (frame of `n` variable bytes, MAC input bytes besides them)
        type Shield = fn(&mut AuthLayer, usize) -> Vec<u8>;
        let families: [(Shield, usize); 3] = [
            (
                |tx, n| tx.shield_to_wire(NodeId(2), 7, &vec![0x42; n]).unwrap(),
                SINGLE_MAC_HEADER_LEN,
            ),
            (
                |tx, n| {
                    let ops = [BatchOp::new(7, vec![0x42; n])];
                    tx.shield_batch_to_wire(NodeId(2), &ops).unwrap()
                },
                BATCH_MAC_HEADER_LEN + BatchFrame::ops_len(&[BatchOp::new(7, Vec::new())]),
            ),
            (
                |tx, n| {
                    let seal = tx.is_confidential();
                    tx.shield_txn_to_wire(NodeId(2), 9, &refusal(n), seal)
                        .unwrap()
                },
                TXN_MAC_HEADER_LEN + TxnFrame::body_len(&refusal(0)),
            ),
        ];
        for sealed in [false, true] {
            let (mut sender, mut receiver) = layer_pair(sealed);
            for (shield, fixed) in families {
                let fixed = fixed + if sealed { commitment.len() } else { 0 };
                let lens = if sealed {
                    [fixed, fixed + 1, fixed + 2]
                } else {
                    [54, 55, 56]
                };
                for len in lens {
                    let wire = shield(&mut sender, len - fixed);
                    // tag | sealed | tuple (32) | mac (32) | field | len u32 | body:
                    // the MAC header is the first two bytes, the view, the
                    // counter and everything behind the tag.
                    let mut input = block.to_vec();
                    input.extend_from_slice(&wire[..10]);
                    input.extend_from_slice(&wire[26..34]);
                    input.extend_from_slice(&wire[66..]);
                    if sealed {
                        input.extend_from_slice(&commitment);
                    }
                    assert_eq!(input.len(), 64 + len, "{len} bytes");
                    assert_eq!(&wire[34..66], channel_key.tag(&input).as_bytes());

                    let mut flipped = wire.clone();
                    flipped[34 + len % 32] ^= 1 << (len % 8);
                    assert_eq!(by_view(&mut receiver, &flipped), None, "{len} bytes");
                    let delivered = by_view(&mut receiver, &wire).expect("in order");
                    assert_eq!(delivered.len(), 1, "{len} bytes");
                }
            }
            assert_eq!(receiver.recv_counter_from(NodeId(1)), 9);
            assert_eq!(receiver.rejection_counts(), (0, 9, 0));
        }
    }

    /// One frame of each family from `sender` to node 2, as frame structs.
    fn one_of_each(sender: &mut AuthLayer) -> (ShieldedMessage, BatchFrame, TxnFrame) {
        (
            sender.shield(NodeId(2), 1, b"payload").unwrap(),
            sender.shield_batch(NodeId(2), &ops(2)).unwrap(),
            sender.shield_txn(NodeId(2), 7, &prepare_body()).unwrap(),
        )
    }

    #[test]
    fn the_channel_ids_are_under_the_mac() {
        // One key under two labels on each node: with `src` and `dst` out
        // of the MAC, a frame sealed for one channel would verify on the
        // other. Node 2 hears from 1 and 3 under the same key bytes; node 5
        // holds the key both as `1->2`'s and as `1->5`'s.
        let shared = MacKey::from_bytes([0x77; 32]);
        let cipher = CipherKey::from_bytes([3u8; 32]);
        let layer = |node: u64, labels: &[&str]| {
            let mut enclave = Enclave::launch(EnclaveId(node), EnclaveConfig::new("code", node));
            for label in labels {
                enclave.provision_mac_key(*label, shared.clone()).unwrap();
            }
            enclave
                .provision_cipher_key(CIPHER_LABEL, cipher.clone())
                .unwrap();
            AuthLayer::new(NodeId(node), enclave, false)
        };
        for sealed in [false, true] {
            let mut sender = layer(1, &["cq:1->2"]);
            sender.confidentiality = sealed.into();
            let mut receiver = layer(2, &["cq:1->2", "cq:3->2"]);
            let mut elsewhere = layer(5, &["cq:1->5", "cq:1->2"]);
            let (single, batch, txn) = one_of_each(&mut sender);
            assert_eq!(single.confidential, sealed);

            // The source rewritten to 3, a peer node 2 holds this very key for.
            let (mut s, mut b, mut t) = (single.clone(), batch.clone(), txn.clone());
            for tuple in [&mut s.tuple, &mut b.tuple, &mut t.tuple] {
                tuple.channel.src = NodeId(3);
            }
            assert_eq!(receiver.verify_owned(s), VerifyOutcome::BadAuthenticator);
            assert_eq!(
                receiver.verify_batch(b),
                BatchVerifyOutcome::BadAuthenticator
            );
            assert_eq!(receiver.verify_txn(t), TxnVerifyOutcome::BadAuthenticator);
            // The destination rewritten to 5, where the key is held too.
            let (mut s, mut b, mut t) = (single.clone(), batch.clone(), txn.clone());
            for tuple in [&mut s.tuple, &mut b.tuple, &mut t.tuple] {
                tuple.channel.dst = NodeId(5);
            }
            assert_eq!(elsewhere.verify_owned(s), VerifyOutcome::BadAuthenticator);
            assert_eq!(
                elsewhere.verify_batch(b),
                BatchVerifyOutcome::BadAuthenticator
            );
            assert_eq!(elsewhere.verify_txn(t), TxnVerifyOutcome::BadAuthenticator);
            // Neither receive counter moved on either node …
            for (layer, src) in [(&receiver, 1), (&receiver, 3), (&elsewhere, 1)] {
                assert_eq!(layer.recv_counter_from(NodeId(src)), 0);
            }
            assert_eq!(receiver.rejection_counts(), (0, 3, 0));
            assert_eq!(elsewhere.rejection_counts(), (0, 3, 0));
            // … and the frames as sealed are good where they were sealed for.
            assert!(receiver.verify_owned(single).is_accept());
            assert!(receiver.verify_batch(batch).is_accept());
            assert!(receiver.verify_txn(txn).is_accept());
            assert_eq!(receiver.recv_counter_from(NodeId(1)), 3);
            assert_eq!(receiver.recv_counter_from(NodeId(3)), 0);
        }
    }

    #[test]
    fn a_rotated_key_reaches_the_bound_state_on_both_ends() {
        let (mut sender, mut receiver) = layer_pair(false);
        let first = sender.shield(NodeId(2), 1, b"before").unwrap();
        assert!(delivers(&mut receiver, &first));

        // The CAS provisions `cq:1->2` again, on both ends: the channel
        // records, their handles and the counters stay, the MAC follows.
        let rotated = MacKey::from_bytes([0x42; 32]);
        for layer in [&mut sender, &mut receiver] {
            layer
                .enclave_mut()
                .provision_mac_key("cq:1->2", rotated.clone())
                .unwrap();
        }
        let second = sender.shield(NodeId(2), 1, b"after").unwrap();
        assert_eq!(second.tuple.counter, 2);
        // Under the new key, not the old one.
        let mut under_old = first.clone();
        under_old.tuple.counter = 2;
        assert_ne!(second.mac, under_old.mac);
        assert!(delivers(&mut receiver, &second));
        assert_eq!(receiver.recv_counter_from(NodeId(1)), 2);

        // On one end only, the two disagree: nothing verifies, and the
        // receive counter stays where it was.
        sender
            .enclave_mut()
            .provision_mac_key("cq:1->2", MacKey::from_bytes([0x43; 32]))
            .unwrap();
        let (single, batch, txn) = one_of_each(&mut sender);
        assert_eq!(
            receiver.verify_owned(single),
            VerifyOutcome::BadAuthenticator
        );
        assert_eq!(
            receiver.verify_batch(batch),
            BatchVerifyOutcome::BadAuthenticator
        );
        assert_eq!(receiver.verify_txn(txn), TxnVerifyOutcome::BadAuthenticator);
        assert_eq!(receiver.recv_counter_from(NodeId(1)), 2);
        assert_eq!(receiver.rejection_counts(), (0, 3, 0));
    }

    #[test]
    fn a_rotated_cipher_key_reaches_the_channel_sub_keys_on_both_ends() {
        let (mut sender, mut receiver) = layer_pair(true);
        // Sealed frames of all three families bind both ends' sub-keys.
        let (single, batch, txn) = one_of_each(&mut sender);
        assert!(delivers(&mut receiver, &single));
        assert!(receiver.verify_batch(batch).is_accept());
        assert!(receiver.verify_txn(txn).is_accept());

        // The CAS provisions the cipher key again, on both ends: the
        // channel records and their handles stay, the keystream follows.
        let rotated = CipherKey::from_bytes([0x42; 32]);
        for layer in [&mut sender, &mut receiver] {
            layer
                .enclave_mut()
                .provision_cipher_key(CIPHER_LABEL, rotated.clone())
                .unwrap();
        }
        let (single, batch, txn) = one_of_each(&mut sender);
        let mut expected = b"payload".to_vec();
        recipe_crypto::Cipher::new(&rotated).apply_keystream(&single.tuple.nonce(), &mut expected);
        assert_eq!(single.payload, expected);
        match receiver.verify_owned(single) {
            VerifyOutcome::Accept { payload, .. } => assert_eq!(payload, b"payload"),
            other => panic!("expected Accept, got {other:?}"),
        }
        assert!(receiver.verify_batch(batch).is_accept());
        assert!(receiver.verify_txn(txn).is_accept());
        assert_eq!(receiver.recv_counter_from(NodeId(1)), 6);

        // On one end only, the key commitments differ: nothing verifies,
        // and the receive counter stays where it was.
        sender
            .enclave_mut()
            .provision_cipher_key(CIPHER_LABEL, CipherKey::from_bytes([0x43; 32]))
            .unwrap();
        let (single, batch, txn) = one_of_each(&mut sender);
        assert_eq!(
            receiver.verify_owned(single),
            VerifyOutcome::BadAuthenticator
        );
        assert_eq!(
            receiver.verify_batch(batch),
            BatchVerifyOutcome::BadAuthenticator
        );
        assert_eq!(receiver.verify_txn(txn), TxnVerifyOutcome::BadAuthenticator);
        assert_eq!(receiver.recv_counter_from(NodeId(1)), 6);
        assert_eq!(receiver.rejection_counts(), (0, 3, 0));
    }

    #[test]
    fn the_two_directions_of_a_channel_seal_under_sub_keys_of_their_own() {
        let (mut one, mut two) = layer_pair(true);
        // `1 -> 2` and `2 -> 1` at the same counter: node 1 binds both.
        let out = one.shield(NodeId(2), 1, &[0; 200]).unwrap();
        let back = two.shield(NodeId(1), 1, &[0; 200]).unwrap();
        assert_eq!(out.tuple.counter, back.tuple.counter);
        assert!(delivers(&mut one, &back));
        let peer = one.peer(NodeId(2)).unwrap();
        let send = peer.send.and_then(|channel| channel.cipher).unwrap();
        let recv = peer.recv.and_then(|channel| channel.cipher).unwrap();
        assert_ne!(send, recv);
        let keystream = |handle| {
            let mut data = [0u8; 200];
            let (cipher, _) = one.enclave().bound_cipher_at(handle).unwrap();
            cipher.apply_keystream(&1u64.to_le_bytes(), &mut data);
            data
        };
        // A payload of zeros seals to the keystream itself.
        assert_eq!(keystream(send)[..], out.payload[..]);
        assert_eq!(keystream(recv)[..], back.payload[..]);
        let (a, b) = (keystream(send), keystream(recv));
        let differing: u32 = a.iter().zip(&b).map(|(x, y)| (x ^ y).count_ones()).sum();
        assert!(
            (650..=950).contains(&differing),
            "{differing} of 1 600 bits"
        );
    }

    /// What one delivery came to: the `(kind, payload)`s delivered now, none
    /// for a frame held back ahead of its turn, `None` for a rejection. A
    /// 2PC frame delivers its encoded body under its transaction id.
    type Verdict = Option<Vec<(u16, Vec<u8>)>>;

    fn txn_verdict(outcome: TxnVerifyOutcome) -> Verdict {
        match outcome {
            TxnVerifyOutcome::Accept { txn_id, body, .. } => {
                Some(vec![(txn_id as u16, TxnFrame::encode_body(&body))])
            }
            TxnVerifyOutcome::OutOfOrder { .. } => Some(Vec::new()),
            _ => None,
        }
    }

    fn view_verdict(outcome: ViewOutcome<'_>) -> Verdict {
        match outcome {
            ViewOutcome::Message { kind, payload } => Some(vec![(kind, payload.into_owned())]),
            ViewOutcome::Batch(ops) => Some(
                ops.into_iter()
                    .map(|(kind, payload)| (kind, payload.into_owned()))
                    .collect(),
            ),
            ViewOutcome::Buffered => Some(Vec::new()),
            ViewOutcome::Rejected => None,
        }
    }

    /// `wire` verified where it lies, read-only.
    fn by_view(layer: &mut AuthLayer, wire: &[u8]) -> Verdict {
        if let Some(frame) = FrameView::parse_txn(wire) {
            return txn_verdict(layer.verify_txn_view(frame));
        }
        view_verdict(layer.verify_view(FrameView::parse(wire).unwrap()))
    }

    /// A copy of `wire` lent to `layer`, as production lends a replication
    /// frame's bytes: what it came to, and the lent bytes afterwards.
    fn by_lending(layer: &mut AuthLayer, wire: &[u8]) -> (Verdict, Vec<u8>) {
        let mut bytes = wire.to_vec();
        let verdict = match FrameView::parse_txn(wire) {
            Some(frame) => txn_verdict(layer.verify_txn_view(frame)),
            None => view_verdict(layer.verify_view(FrameView::parse_mut(&mut bytes).unwrap())),
        };
        (verdict, bytes)
    }

    /// `wire` parsed into its frame struct and handed to the struct's entry
    /// point.
    fn by_struct(layer: &mut AuthLayer, wire: &[u8]) -> Verdict {
        if let Some(msg) = ShieldedMessage::from_wire(wire) {
            return match layer.verify_owned(msg) {
                VerifyOutcome::Accept { kind, payload, .. } => Some(vec![(kind, payload)]),
                VerifyOutcome::Future { .. } => Some(Vec::new()),
                _ => None,
            };
        }
        if let Some(frame) = BatchFrame::from_wire(wire) {
            return match layer.verify_batch(frame) {
                BatchVerifyOutcome::Accept { ops, .. } => {
                    Some(ops.into_iter().map(|op| (op.kind, op.payload)).collect())
                }
                BatchVerifyOutcome::Future { .. } => Some(Vec::new()),
                _ => None,
            };
        }
        txn_verdict(layer.verify_txn(TxnFrame::from_wire(wire).unwrap()))
    }

    #[test]
    fn a_frame_verified_where_it_lies_is_the_frame_struct_verified() {
        // The i-th frame of each family, the i-th frame on its channel.
        type Shield = fn(&mut AuthLayer, u8) -> Vec<u8>;
        let families: [(Shield, _); 3] = [
            (
                |tx, i| tx.shield_to_wire(NodeId(2), 7, &[i; 5]).unwrap(),
                [
                    (None, 0),
                    (Some(0), 0),
                    (Some(1), 1),
                    (None, 0),
                    (None, 0),
                    (Some(1), 0),
                ],
            ),
            (
                |tx, i| tx.shield_batch_to_wire(NodeId(2), &ops(i.into())).unwrap(),
                [
                    (None, 0),
                    (Some(0), 0),
                    (Some(1), 2),
                    (None, 0),
                    (None, 0),
                    (Some(3), 0),
                ],
            ),
            // Dropped ahead of its turn, the second 2PC frame is taken when
            // it comes again in order.
            (
                |tx, i| {
                    let body = TxnBody::Ack { applied: i.into() };
                    let seal = tx.is_confidential();
                    tx.shield_txn_to_wire(NodeId(2), 9, &body, seal).unwrap()
                },
                [
                    (None, 0),
                    (Some(0), 0),
                    (Some(1), 0),
                    (None, 0),
                    (Some(1), 0),
                    (Some(1), 0),
                ],
            ),
        ];
        for sealed in [false, true] {
            for (shield, expected) in families {
                let (mut sender, mut view) = layer_pair(sealed);
                let (_, mut owned) = layer_pair(sealed);
                let (_, mut lent) = layer_pair(sealed);
                let wires: Vec<Vec<u8>> = (1..=3).map(|i| shield(&mut sender, i)).collect();
                let mut tampered = wires[0].clone();
                *tampered.last_mut().unwrap() ^= 1;
                // Tampered; ahead of its turn; in order, releasing what was
                // parked; replayed; the second again; the third.
                let deliveries = [
                    &tampered, &wires[1], &wires[0], &wires[0], &wires[1], &wires[2],
                ];
                let mut seen = Vec::new();
                for wire in deliveries {
                    let verdict = by_view(&mut view, wire);
                    assert_eq!(by_struct(&mut owned, wire), verdict);
                    assert_eq!(by_lending(&mut lent, wire).0, verdict);
                    let released = view.take_ready(NodeId(1));
                    assert_eq!(owned.take_ready(NodeId(1)), released);
                    assert_eq!(lent.take_ready(NodeId(1)), released);
                    for other in [&owned, &lent] {
                        assert_eq!(other.pending_from(NodeId(1)), view.pending_from(NodeId(1)));
                        assert_eq!(other.rejection_counts(), view.rejection_counts());
                        assert_eq!(
                            other.recv_counter_from(NodeId(1)),
                            view.recv_counter_from(NodeId(1))
                        );
                    }
                    seen.push((verdict.map(|delivered| delivered.len()), released.len()));
                }
                assert_eq!(seen, expected);
                assert_eq!(view.recv_counter_from(NodeId(1)), 3);
            }
        }

        // A replication frame is not a 2PC frame, read either way, and the
        // other way round: neither spends a slot.
        let (mut sender, mut receiver) = layer_pair(false);
        let single = sender.shield_to_wire(NodeId(2), 1, b"x").unwrap();
        assert!(FrameView::parse_txn(&single).is_none());
        assert_eq!(
            receiver.verify_txn_view(FrameView::parse(&single).unwrap()),
            TxnVerifyOutcome::BadAuthenticator
        );
        let txn = sender
            .shield_txn_to_wire(NodeId(2), 9, &TxnBody::Commit, false)
            .unwrap();
        let view = FrameView::parse_txn(&txn).unwrap();
        assert_eq!(view.source(), NodeId(1));
        assert_eq!(receiver.verify_view(view), ViewOutcome::Rejected);
        assert_eq!(receiver.recv_counter_from(NodeId(1)), 0);
        assert_eq!(receiver.rejection_counts(), (0, 2, 0));
    }

    #[test]
    fn peers_are_found_whatever_order_they_were_first_met_in() {
        let master = MacKey::from_bytes([9u8; 32]);
        let peers = [40u64, 3, 17, u64::MAX, 0, 25];
        let mut enclave = Enclave::launch(EnclaveId(1), EnclaveConfig::new("code", 1));
        for peer in peers {
            let label = format!("cq:1->{peer}");
            enclave
                .provision_mac_key(label.clone(), master.derive(&label))
                .unwrap();
        }
        let mut sender = AuthLayer::new(NodeId(1), enclave, false);
        for (round, peer) in peers.iter().chain(&peers).enumerate() {
            let msg = sender.shield(NodeId(*peer), 1, b"x").unwrap();
            assert_eq!(msg.tuple.counter, 1 + (round / peers.len()) as u64);
        }
        let nodes: Vec<u64> = sender.peers.iter().map(|peer| peer.node.0).collect();
        assert_eq!(nodes, [0, 3, 17, 25, 40, u64::MAX]);
        for peer in peers {
            assert_eq!(sender.send_counter_to(NodeId(peer)), 2);
        }
        assert_eq!(sender.send_counter_to(NodeId(4)), 0);
    }

    #[test]
    fn a_frame_verified_where_it_lies_is_delivered_as_slices_of_its_bytes() {
        let within = |outer: &[u8], inner: &[u8]| outer.as_ptr_range().contains(&inner.as_ptr());
        for sealed in [false, true] {
            let (mut sender, mut receiver) = layer_pair(sealed);
            let single = sender.shield_to_wire(NodeId(2), 7, b"append").unwrap();
            let batch = sender.shield_batch_to_wire(NodeId(2), &ops(3)).unwrap();
            for wire in [&single, &batch] {
                let view = FrameView::parse(wire).unwrap();
                assert_eq!(view.source(), NodeId(1));
                // A tampered copy is rejected and spends nothing.
                let mut tampered = wire.to_vec();
                *tampered.last_mut().unwrap() ^= 1;
                let rejected = receiver.verify_view(FrameView::parse(&tampered).unwrap());
                assert_eq!(rejected, ViewOutcome::Rejected);
                match receiver.verify_view(view) {
                    ViewOutcome::Message { kind, payload } => {
                        assert_eq!((kind, &payload[..]), (7, &b"append"[..]));
                        assert_eq!(matches!(payload, Cow::Borrowed(_)), !sealed);
                        assert_eq!(within(wire, &payload), !sealed);
                    }
                    ViewOutcome::Batch(got) => {
                        let expected: Vec<(u16, Cow<'_, [u8]>)> = ops(3)
                            .into_iter()
                            .map(|op| (op.kind, Cow::Owned(op.payload)))
                            .collect();
                        assert_eq!(got, expected);
                        for (_, payload) in &got {
                            assert_eq!(within(wire, payload), !sealed);
                        }
                    }
                    other => panic!("expected a delivery, got {other:?}"),
                }
                // Once: the slot is spent.
                let again = receiver.verify_view(FrameView::parse(wire).unwrap());
                assert_eq!(again, ViewOutcome::Rejected);
            }
            assert_eq!(receiver.rejection_counts(), (2, 2, 0));
            assert_eq!(receiver.recv_counter_from(NodeId(1)), 2);

            // Ahead of its turn a frame is copied into the protected buffer,
            // and comes out of it like one that was verified owned.
            let first = sender.shield_to_wire(NodeId(2), 7, b"first").unwrap();
            let ahead = sender.shield_batch_to_wire(NodeId(2), &ops(2)).unwrap();
            let last = sender.shield_to_wire(NodeId(2), 7, b"last").unwrap();
            for wire in [&ahead, &last] {
                let view = FrameView::parse(wire).unwrap();
                assert_eq!(receiver.verify_view(view), ViewOutcome::Buffered);
            }
            assert_eq!(receiver.pending_from(NodeId(1)), 2);
            let view = FrameView::parse(&first).unwrap();
            assert!(matches!(
                receiver.verify_view(view),
                ViewOutcome::Message { .. }
            ));
            let ready = receiver.take_ready(NodeId(1));
            let expected: Vec<(u16, Vec<u8>, u64)> = vec![
                (7, b"op0".to_vec(), 4),
                (7, b"op1".to_vec(), 4),
                (7, b"last".to_vec(), 5),
            ];
            assert_eq!(ready, expected);

            // A 2PC frame is not a replication frame, nor is garbage.
            let txn = sender
                .shield_txn_to_wire(NodeId(2), 9, &TxnBody::Commit, sealed)
                .unwrap();
            assert!(FrameView::parse(&txn).is_none());
            assert!(FrameView::parse(&single[..single.len() - 1]).is_none());
            assert!(FrameView::parse(b"").is_none());
        }
    }

    #[test]
    fn lent_bytes_are_written_only_once_their_frame_is_admitted_in_order() {
        for sealed in [false, true] {
            let (mut sender, mut receiver) = layer_pair(sealed);
            let (mut at_view_1, _) = layer_pair(sealed);
            at_view_1.set_view(1);
            let single = sender.shield_to_wire(NodeId(2), 7, b"append").unwrap();
            let batch = sender.shield_batch_to_wire(NodeId(2), &ops(3)).unwrap();
            let mut tampered = batch.clone();
            *tampered.last_mut().unwrap() ^= 1;
            let wrong_view = at_view_1.shield_to_wire(NodeId(2), 7, b"append").unwrap();

            // Refused, or parked ahead of its turn: the lent bytes are as
            // they came, and the receive counter has not moved.
            let untouched = |layer: &mut AuthLayer, wire: &Vec<u8>| {
                let (verdict, after) = by_lending(layer, wire);
                assert_eq!(&after, wire);
                verdict
            };
            assert_eq!(untouched(&mut receiver, &tampered), None);
            assert_eq!(untouched(&mut receiver, &wrong_view), None);
            // Node 1 handed the frame it sealed for node 2.
            assert_eq!(untouched(&mut sender, &single), None);
            assert_eq!(sender.rejection_counts(), (0, 1, 0));
            assert_eq!(untouched(&mut receiver, &batch), Some(Vec::new()));
            assert_eq!(receiver.recv_counter_from(NodeId(1)), 0);
            assert_eq!(receiver.rejection_counts(), (0, 1, 1));

            // In order: opened where it lies, the payload a slice of the lent
            // bytes, and no copy made to decrypt it.
            let mut lent = single.clone();
            let range = lent.as_ptr_range();
            match receiver.verify_view(FrameView::parse_mut(&mut lent).unwrap()) {
                ViewOutcome::Message { kind, payload } => {
                    assert_eq!((kind, &payload[..]), (7, &b"append"[..]));
                    assert!(matches!(payload, Cow::Borrowed(_)));
                    assert!(range.contains(&payload.as_ptr()));
                }
                other => panic!("expected a delivery, got {other:?}"),
            }
            // Sealed, the body now holds the plaintext.
            assert_eq!(lent != single, sealed);
            // The parked batch kept its own copy, and opens to what was sent.
            let expected: Vec<(u16, Vec<u8>, u64)> = ops(3)
                .into_iter()
                .map(|op| (op.kind, op.payload, 2))
                .collect();
            assert_eq!(receiver.take_ready(NodeId(1)), expected);
            assert_eq!(receiver.recv_counter_from(NodeId(1)), 2);
            // A replay is refused untouched.
            assert_eq!(untouched(&mut receiver, &single), None);
            assert_eq!(receiver.rejection_counts(), (1, 1, 1));

            // A batch in order: every op a slice of the lent bytes.
            let next = sender.shield_batch_to_wire(NodeId(2), &ops(2)).unwrap();
            let mut lent = next.clone();
            let range = lent.as_ptr_range();
            match receiver.verify_view(FrameView::parse_mut(&mut lent).unwrap()) {
                ViewOutcome::Batch(got) => {
                    let sent: Vec<(u16, Vec<u8>)> =
                        ops(2).into_iter().map(|op| (op.kind, op.payload)).collect();
                    let got: Vec<(u16, Vec<u8>)> = got
                        .into_iter()
                        .map(|(kind, payload)| {
                            assert!(matches!(payload, Cow::Borrowed(_)));
                            assert!(range.contains(&payload.as_ptr()));
                            (kind, payload.into_owned())
                        })
                        .collect();
                    assert_eq!(got, sent);
                }
                other => panic!("expected a delivery, got {other:?}"),
            }
            assert_eq!(lent != next, sealed);
            assert_eq!(receiver.recv_counter_from(NodeId(1)), 3);
            assert!(FrameView::parse_mut(&mut []).is_none());
        }
    }

    #[test]
    fn an_authentic_view_whose_body_does_not_decode_spends_its_slot() {
        for sealed in [false, true] {
            let (mut sender, mut receiver) = layer_pair(sealed);
            let wire = mismatched_batch(&mut sender, sealed);
            let view = FrameView::parse(&wire).unwrap();
            assert_eq!(receiver.verify_view(view), ViewOutcome::Rejected);
            assert_eq!(receiver.rejection_counts(), (0, 1, 0));
            assert_eq!(receiver.recv_counter_from(NodeId(1)), 1);
        }
    }

    #[test]
    fn store_keys_follow_the_provisioned_key_and_the_node() {
        let (node_1, node_2) = layer_pair(true);
        let key = node_1.store_cipher_key().unwrap();
        assert_eq!(key, node_1.store_cipher_key().unwrap());
        assert_ne!(key, node_2.store_cipher_key().unwrap());
        // Not the provisioned key, and not without it.
        assert_ne!(key, CipherKey::from_bytes([3u8; 32]));
        assert_ne!(
            key,
            receiver_with_another_cipher_key()
                .store_cipher_key()
                .unwrap()
        );
        assert!(layer_pair(false).0.store_cipher_key().is_err());
    }

    #[test]
    fn equal_payloads_never_share_a_ciphertext() {
        let master = MacKey::from_bytes([9u8; 32]);
        let mut enclave = Enclave::launch(EnclaveId(1), EnclaveConfig::new("code", 1));
        for label in ["cq:1->2", "cq:1->3"] {
            enclave
                .provision_mac_key(label, master.derive(label))
                .unwrap();
        }
        enclave
            .provision_cipher_key(CIPHER_LABEL, CipherKey::from_bytes([3u8; 32]))
            .unwrap();
        let mut sender = AuthLayer::new(NodeId(1), enclave, true);
        let payload = [0x5Au8; 96];
        // Consecutive counters on one channel, and one counter on two
        // channels: the nonce is the whole (src, dst, counter).
        let first = sender.shield(NodeId(2), 1, &payload).unwrap();
        let second = sender.shield(NodeId(2), 1, &payload).unwrap();
        let other = sender.shield(NodeId(3), 1, &payload).unwrap();
        assert_eq!(
            (
                first.tuple.counter,
                second.tuple.counter,
                other.tuple.counter
            ),
            (1, 2, 1)
        );
        for (a, b) in [(&first, &second), (&first, &other), (&second, &other)] {
            assert_eq!(a.payload.len(), payload.len());
            assert_ne!(a.payload, b.payload);
            // Not a shifted or partly shared keystream either.
            let same = a.payload.iter().zip(&b.payload).filter(|(x, y)| x == y);
            assert!(same.count() < 8);
        }
    }

    #[test]
    fn a_flipped_sealed_flag_verifies_as_neither() {
        for confidential in [false, true] {
            let (mut sender, mut receiver) = layer_pair(true);
            sender.confidentiality = confidential.into();
            // A plaintext frame passed off as sealed, and the other way
            // round: the flag is under the MAC, and nothing is decrypted or
            // delivered on its say-so.
            let mut single = sender.shield(NodeId(2), 1, b"payload").unwrap();
            single.confidential ^= true;
            assert_eq!(
                receiver.verify_owned(single.clone()),
                VerifyOutcome::BadAuthenticator
            );
            single.confidential ^= true;
            let mut batch = sender.shield_batch(NodeId(2), &ops(2)).unwrap();
            batch.sealed ^= true;
            assert_eq!(
                receiver.verify_batch(batch.clone()),
                BatchVerifyOutcome::BadAuthenticator
            );
            batch.sealed ^= true;
            // No slot was spent on the flips.
            assert!(delivers(&mut receiver, &single));
            assert!(receiver.verify_batch(batch).is_accept());
        }
    }

    fn ops(n: usize) -> Vec<BatchOp> {
        (0..n)
            .map(|i| BatchOp::new(7, format!("op{i}").into_bytes()))
            .collect()
    }

    #[test]
    fn batch_roundtrips_under_one_counter_slot() {
        let (mut sender, mut receiver) = layer_pair(false);
        let frame = sender.shield_batch(NodeId(2), &ops(4)).unwrap();
        assert_eq!(frame.tuple.counter, 1);
        assert_eq!(frame.count, 4);
        match receiver.verify_batch(frame) {
            BatchVerifyOutcome::Accept { ops: got, counter } => {
                assert_eq!(got, ops(4));
                assert_eq!(counter, 1);
            }
            other => panic!("expected Accept, got {other:?}"),
        }
        // The batch consumed exactly one counter slot: the next single message
        // on the channel gets counter 2 and is accepted in order.
        let msg = sender.shield(NodeId(2), 1, b"after").unwrap();
        assert_eq!(msg.tuple.counter, 2);
        assert!(delivers(&mut receiver, &msg));
        assert!(sender.shield_batch(NodeId(2), &[]).is_err());
    }

    #[test]
    fn confidential_batches_encrypt_once_and_roundtrip() {
        let (mut sender, mut receiver) = layer_pair(true);
        let batch = vec![
            BatchOp::new(1, b"secret balance=100".to_vec()),
            BatchOp::new(2, b"secret balance=200".to_vec()),
        ];
        let frame = sender.shield_batch(NodeId(2), &batch).unwrap();
        assert!(frame.is_confidential());
        // The ciphertext of the encoded ops and nothing else: no nonce, no tag.
        assert_eq!(frame.body.len(), BatchFrame::ops_len(&batch));
        assert!(!frame
            .body
            .windows(b"balance".len())
            .any(|w| w == b"balance"));
        match receiver.verify_batch(frame) {
            BatchVerifyOutcome::Accept { ops: got, .. } => assert_eq!(got, batch),
            other => panic!("expected Accept, got {other:?}"),
        }
    }

    #[test]
    fn tampered_or_replayed_batches_are_rejected_as_a_unit() {
        let (mut sender, mut receiver) = layer_pair(false);
        let frame = sender.shield_batch(NodeId(2), &ops(3)).unwrap();

        // Host tries to truncate the frame to drop an op: count is authenticated.
        let mut truncated = frame.clone();
        truncated.count = 2;
        assert_eq!(
            receiver.verify_batch(truncated),
            BatchVerifyOutcome::BadAuthenticator
        );
        // Tampering with the body is equally fatal.
        let mut tampered = frame.clone();
        tampered.body[3] ^= 0xFF;
        assert_eq!(
            receiver.verify_batch(tampered),
            BatchVerifyOutcome::BadAuthenticator
        );
        // The original is accepted once; replaying it rejects every op at once.
        assert!(receiver.verify_batch(frame.clone()).is_accept());
        assert_eq!(
            receiver.verify_batch(frame),
            BatchVerifyOutcome::Replay {
                counter: 1,
                last_accepted: 1
            }
        );
    }

    #[test]
    fn out_of_order_batches_buffer_and_release_interleaved_with_singles() {
        let (mut sender, mut receiver) = layer_pair(false);
        let single = sender.shield(NodeId(2), 5, b"first").unwrap(); // counter 1
        let batch = sender.shield_batch(NodeId(2), &ops(2)).unwrap(); // counter 2
        let tail = sender.shield(NodeId(2), 5, b"last").unwrap(); // counter 3

        // The batch and the tail arrive before the first single: both buffer.
        assert_eq!(
            receiver.verify_batch(batch),
            BatchVerifyOutcome::Future {
                counter: 2,
                expected: 1
            }
        );
        assert!(matches!(
            receiver.verify_owned(tail),
            VerifyOutcome::Future { counter: 3, .. }
        ));
        assert_eq!(receiver.pending_from(NodeId(1)), 2);

        // The gap fills: the batch flattens into its ops, in counter order.
        assert!(delivers(&mut receiver, &single));
        let ready = receiver.take_ready(NodeId(1));
        let expected: Vec<(u16, Vec<u8>, u64)> = vec![
            (7, b"op0".to_vec(), 2),
            (7, b"op1".to_vec(), 2),
            (5, b"last".to_vec(), 3),
        ];
        assert_eq!(ready, expected);
        assert_eq!(receiver.pending_from(NodeId(1)), 0);
    }

    #[test]
    fn batch_for_wrong_recipient_or_view_is_rejected() {
        let (mut sender, mut receiver) = layer_pair(false);
        let frame = sender.shield_batch(NodeId(2), &ops(2)).unwrap();
        assert_eq!(
            sender.verify_batch(frame.clone()),
            BatchVerifyOutcome::Misaddressed
        );
        receiver.set_view(4);
        assert_eq!(
            receiver.verify_batch(frame),
            BatchVerifyOutcome::WrongView { got: 0, current: 4 }
        );
    }

    fn prepare_body() -> TxnBody {
        TxnBody::Prepare {
            ops: vec![crate::message::Operation::Put {
                key: b"account:7".to_vec(),
                value: b"balance=100".to_vec(),
            }],
        }
    }

    #[test]
    fn txn_frames_roundtrip_and_consume_counter_slots() {
        let (mut sender, mut receiver) = layer_pair(false);
        let frame = sender.shield_txn(NodeId(2), 7, &prepare_body()).unwrap();
        assert_eq!(frame.tuple.counter, 1);
        match receiver.verify_txn(frame.clone()) {
            TxnVerifyOutcome::Accept {
                txn_id,
                body,
                counter,
            } => {
                assert_eq!(txn_id, 7);
                assert_eq!(body, prepare_body());
                assert_eq!(counter, 1);
            }
            other => panic!("expected Accept, got {other:?}"),
        }
        // Replaying the frame is rejected by the trusted counter: a Byzantine
        // host cannot re-apply a prepare.
        assert!(matches!(
            receiver.verify_txn(frame),
            TxnVerifyOutcome::Replay { .. }
        ));
        // The next frame (the commit) takes the next slot and still verifies.
        let commit = sender.shield_txn(NodeId(2), 7, &TxnBody::Commit).unwrap();
        assert_eq!(commit.tuple.counter, 2);
        assert!(receiver.verify_txn(commit).is_accept());
    }

    #[test]
    fn txn_frames_cannot_be_spliced_into_another_transaction() {
        let (mut sender, mut receiver) = layer_pair(false);
        let mut frame = sender.shield_txn(NodeId(2), 7, &TxnBody::Commit).unwrap();
        // The host rewrites the txn id to commit a different transaction.
        frame.txn_id = 8;
        assert_eq!(
            receiver.verify_txn(frame),
            TxnVerifyOutcome::BadAuthenticator
        );
    }

    #[test]
    fn out_of_order_txn_frames_are_dropped_not_buffered() {
        let (mut sender, mut receiver) = layer_pair(false);
        let first = sender.shield_txn(NodeId(2), 7, &prepare_body()).unwrap();
        let second = sender.shield_txn(NodeId(2), 7, &TxnBody::Commit).unwrap();
        // The commit overtakes the (lost) prepare: dropped, nothing buffered.
        assert_eq!(
            receiver.verify_txn(second.clone()),
            TxnVerifyOutcome::OutOfOrder {
                counter: 2,
                expected: 1
            }
        );
        assert_eq!(receiver.pending_from(NodeId(1)), 0);
        // The coordinator retransmits the prepare (same sealed bytes, same
        // counter), then the commit: both verify in order.
        assert!(receiver.verify_txn(first).is_accept());
        assert!(receiver.verify_txn(second).is_accept());
    }

    #[test]
    fn confidential_txn_frames_seal_the_body() {
        let (mut sender, mut receiver) = layer_pair(true);
        let frame = sender.shield_txn(NodeId(2), 7, &prepare_body()).unwrap();
        assert!(frame.is_confidential());
        assert_eq!(
            frame.body.len(),
            TxnFrame::encode_body(&prepare_body()).len()
        );
        assert!(!frame.body.windows(7).any(|w| w == b"balance"));
        assert!(!frame.body.windows(7).any(|w| w == b"account"));
        match receiver.verify_txn(frame) {
            TxnVerifyOutcome::Accept { body, .. } => assert_eq!(body, prepare_body()),
            other => panic!("expected Accept, got {other:?}"),
        }
    }

    #[test]
    fn sealed_and_plaintext_txn_frames_share_one_counter_sequence() {
        // Both enclaves hold the cipher key; what is sealed is decided frame
        // by frame.
        let (mut sender, mut receiver) = layer_pair(true);
        for (i, seal) in [false, true, true, false].into_iter().enumerate() {
            let wire = sender
                .shield_txn_to_wire(NodeId(2), 7, &prepare_body(), seal)
                .unwrap();
            let frame = TxnFrame::from_wire(&wire).unwrap();
            assert_eq!(frame.tuple.counter, i as u64 + 1);
            assert_eq!(frame.is_confidential(), seal);
            // The flag is under the MAC: a plaintext body passed off as a
            // ciphertext, or a ciphertext as plaintext, authenticates
            // nothing and burns no slot.
            let mut flipped = frame.clone();
            flipped.sealed ^= true;
            assert_eq!(
                receiver.verify_txn(flipped),
                TxnVerifyOutcome::BadAuthenticator
            );
            match receiver.verify_txn(frame) {
                TxnVerifyOutcome::Accept { body, counter, .. } => {
                    assert_eq!(body, prepare_body());
                    assert_eq!(counter, i as u64 + 1);
                }
                other => panic!("expected Accept, got {other:?}"),
            }
        }
        // The fixed-mode entry point is the per-frame one at the layer's mode.
        let frame = sender.shield_txn(NodeId(2), 8, &TxnBody::Commit).unwrap();
        assert!(frame.is_confidential());
        assert_eq!(frame.tuple.counter, 5);
    }

    #[test]
    fn equivocation_attempt_is_detectable() {
        // A Byzantine coordinator cannot send two *different* messages under the same
        // counter to the same correct replica: the second one is either a replay
        // (same counter) or fails authentication (the host cannot forge a MAC for a
        // modified payload).
        let (mut sender, mut receiver) = layer_pair(false);
        let honest = sender.shield(NodeId(2), 1, b"value=A").unwrap();

        // The untrusted host tries to craft a conflicting statement with the same
        // counter but different payload — it has no key, so it can only splice.
        let mut conflicting = honest.clone();
        conflicting.payload = b"value=B".to_vec();
        assert!(delivers(&mut receiver, &honest));
        assert_eq!(
            receiver.verify_owned(conflicting),
            VerifyOutcome::BadAuthenticator
        );
    }
}
