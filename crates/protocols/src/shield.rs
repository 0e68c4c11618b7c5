//! The per-replica shielding helper shared by every transformed protocol.
//!
//! [`ProtocolShield`] is the thin layer a protocol calls instead of touching raw
//! bytes (Listing 1's `shield_msg` / `verify_msg` calls). It has two modes:
//!
//! * [`ProtocolMode::Native`] — messages are passed through with a minimal framing
//!   header, exactly like the unmodified CFT protocol would send them. Used as the
//!   baseline in the Figure 6a overhead experiment.
//! * [`ProtocolMode::Recipe`] — messages are shielded by an
//!   [`recipe_core::AuthLayer`] backed by a per-replica enclave whose channel keys
//!   were provisioned from the deployment's master secret. The provisioning result
//!   is installed directly, so runs and protocol unit tests stay fast; the CAS path
//!   that produces it — `recipe_attest::run_remote_attestation`, then these same
//!   frames on the wire — is exercised end to end in
//!   `tests/full_stack_attestation.rs`.

use std::borrow::Cow;

use recipe_core::wire::{bytes_len, tag, Reader, Writer};
use recipe_core::{
    AuthLayer, BatchFrame, ConfidentialityMode, FramePool, FrameView, Membership, ShieldedMessage,
    TxnBody, TxnBodyRef, ViewOutcome,
};
use recipe_crypto::{CipherKey, MacKey};
use recipe_net::{ChannelId, NodeId};
use recipe_tee::{Enclave, EnclaveConfig, EnclaveId, Label};
use serde::{Deserialize, Serialize};

/// Whether a replica runs the native CFT protocol or its Recipe transformation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProtocolMode {
    /// Unmodified CFT protocol (crash-only fault model).
    Native,
    /// Recipe-transformed protocol (Byzantine untrusted infrastructure).
    Recipe {
        /// The group's confidentiality policy (whether payloads are
        /// additionally encrypted).
        confidentiality: ConfidentialityMode,
    },
}

impl ProtocolMode {
    /// True for the Recipe modes.
    pub(crate) fn is_recipe(&self) -> bool {
        matches!(self, ProtocolMode::Recipe { .. })
    }

    /// The confidentiality policy in force (native mode is always plaintext).
    pub(crate) fn confidentiality(&self) -> ConfidentialityMode {
        match self {
            ProtocolMode::Native => ConfidentialityMode::Plaintext,
            ProtocolMode::Recipe { confidentiality } => *confidentiality,
        }
    }
}

/// Domain a replica group's cipher key is derived under.
const GROUP_KEY_DOMAIN: &[u8] = b"recipe.group_key.v1";

/// Framing used by native (untransformed) protocols:
/// `tag | kind u16 | payload`, in a spare from `frames`, the `body_len`
/// payload bytes put in place by `write_body`.
fn encode_native(
    frames: &mut FramePool,
    kind: u16,
    body_len: usize,
    write_body: impl FnOnce(&mut Writer),
) -> Vec<u8> {
    let len = native_len(body_len);
    let mut w = Writer::reusing(frames.take(len), len);
    w.u8(tag::NATIVE_SINGLE).u16(kind).count(body_len);
    write_body(&mut w);
    let wire = w.finish();
    assert_eq!(wire.len(), len, "message body is not the length given");
    wire
}

/// Bytes [`encode_native`] writes for a `payload_len`-byte payload.
const fn native_len(payload_len: usize) -> usize {
    1 + 2 + bytes_len(payload_len)
}

fn decode_native(bytes: &[u8]) -> Option<Message<'_>> {
    let mut r = Reader::tagged(bytes, tag::NATIVE_SINGLE)?;
    let frame = (r.u16()?, Cow::Borrowed(r.bytes()?));
    r.finish()?;
    Some(frame)
}

/// Batch framing used by native (untransformed) protocols: the tag, then the
/// same op body a [`recipe_core::BatchFrame`] carries, so the native baselines
/// amortize the same per-message framing cost (minus the security layers) and
/// the Figure 6a comparison stays apples-to-apples under batching. In a
/// spare from `frames`.
fn encode_native_batch(frames: &mut FramePool, body: &[u8]) -> Vec<u8> {
    let len = native_batch_len(body.len());
    let mut w = Writer::reusing(frames.take(len), len);
    w.u8(tag::NATIVE_BATCH).raw(body);
    w.finish()
}

/// Bytes [`encode_native_batch`] writes for a `body_len`-byte body.
const fn native_batch_len(body_len: usize) -> usize {
    1 + body_len
}

fn decode_native_batch(bytes: &[u8]) -> Option<Vec<Message<'_>>> {
    let mut r = Reader::tagged(bytes, tag::NATIVE_BATCH)?;
    let ops = BatchFrame::read_ops_with(&mut r, |kind, payload| (kind, Cow::Borrowed(payload)))?;
    r.finish()?;
    Some(ops)
}

/// One deliverable protocol message: its kind and its payload — a slice of
/// the received bytes when the frame arrived in order, decrypted in them if
/// it was sealed, and a buffer of its own when it waited in the protected
/// buffer.
pub type Message<'a> = (u16, Cow<'a, [u8]>);

/// The deliverable messages produced by one [`ProtocolShield::unwrap`] call.
/// They borrow from the bytes that were unwrapped, not from the shield, so
/// the protocol can send through the shield while it handles them.
///
/// A SmallVec-style container: the overwhelmingly common case — one in-order
/// single message — carries its `(kind, payload)` inline without allocating a
/// `Vec` for the container. Batches and out-of-order releases spill to `Many`.
#[derive(Debug)]
pub enum Frames<'a> {
    /// Nothing deliverable (rejected, buffered as future, or garbage).
    Empty,
    /// Exactly one deliverable message.
    One(Message<'a>),
    /// The messages of a batch, or of frames released together, in delivery
    /// order.
    Many(Vec<Message<'a>>),
}

impl<'a> Frames<'a> {
    /// Appends a message, promoting the representation as needed.
    fn push(&mut self, frame: Message<'a>) {
        match std::mem::replace(self, Frames::Empty) {
            Frames::Empty => *self = Frames::One(frame),
            Frames::One(first) => *self = Frames::Many(vec![first, frame]),
            Frames::Many(mut frames) => {
                frames.push(frame);
                *self = Frames::Many(frames);
            }
        }
    }

    /// The deliverable messages as a slice.
    pub fn as_slice(&self) -> &[Message<'a>] {
        match self {
            Frames::Empty => &[],
            Frames::One(frame) => std::slice::from_ref(frame),
            Frames::Many(frames) => frames,
        }
    }

    /// Number of deliverable messages.
    pub fn len(&self) -> usize {
        match self {
            Frames::Empty => 0,
            Frames::One(_) => 1,
            Frames::Many(frames) => frames.len(),
        }
    }

    /// True when nothing is deliverable.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl PartialEq<Vec<(u16, Vec<u8>)>> for Frames<'_> {
    fn eq(&self, other: &Vec<(u16, Vec<u8>)>) -> bool {
        let mine = self
            .as_slice()
            .iter()
            .map(|(kind, payload)| (*kind, &payload[..]));
        mine.eq(other.iter().map(|(kind, payload)| (*kind, &payload[..])))
    }
}

/// Iterator over the messages of a [`Frames`].
pub enum FramesIter<'a> {
    /// Nothing left.
    Empty,
    /// One message left.
    One(std::iter::Once<Message<'a>>),
    /// Draining a spilled vector.
    Many(std::vec::IntoIter<Message<'a>>),
}

impl<'a> Iterator for FramesIter<'a> {
    type Item = Message<'a>;

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            FramesIter::Empty => None,
            FramesIter::One(once) => once.next(),
            FramesIter::Many(frames) => frames.next(),
        }
    }
}

impl<'a> IntoIterator for Frames<'a> {
    type Item = Message<'a>;
    type IntoIter = FramesIter<'a>;

    fn into_iter(self) -> FramesIter<'a> {
        match self {
            Frames::Empty => FramesIter::Empty,
            Frames::One(frame) => FramesIter::One(std::iter::once(frame)),
            Frames::Many(frames) => FramesIter::Many(frames.into_iter()),
        }
    }
}

/// The shielding layer of one replica.
pub struct ProtocolShield {
    node: NodeId,
    mode: ProtocolMode,
    auth: Option<AuthLayer>,
    dropped: u64,
    sealed_frames: u64,
    sealed_ops: u64,
    opened_frames: u64,
}

impl ProtocolShield {
    /// Master secret all deployments in this reproduction derive their channel keys
    /// from (what the protocol designer uploads to the CAS).
    fn master_key() -> MacKey {
        MacKey::from_bytes(*recipe_crypto::hash_parts(&[b"recipe.deployment.master"]).as_bytes())
    }

    /// The deployment-wide payload cipher key (what the protocol designer
    /// uploads to the CAS in this reproduction). Endpoints that are one of a
    /// kind in the deployment — 2PC and migration endpoints, whose node ids
    /// no other endpoint has — seal under it as it is; a replica group gets
    /// a sub-key ([`ProtocolShield::group_cipher_key`]).
    pub(crate) fn deployment_cipher_key() -> CipherKey {
        CipherKey::from_bytes(*recipe_crypto::hash_parts(&[b"recipe.deployment.cipher"]).as_bytes())
    }

    /// The cipher key the CAS provisions into the enclaves of replica group
    /// `group`: the deployment key's sub-key for it. Replica ids are
    /// group-local, so under the deployment key itself `0 → 1` at counter
    /// *n* would be the same (key, nonce) pair in every group, and every
    /// group's replica 0 would derive the same store key.
    pub(crate) fn group_cipher_key(group: u64) -> CipherKey {
        Self::deployment_cipher_key().derive(&[GROUP_KEY_DOMAIN, &group.to_le_bytes()])
    }

    /// Builds the shield `mode` asks for.
    pub(crate) fn new(node: NodeId, membership: &Membership, mode: ProtocolMode) -> Self {
        match mode {
            ProtocolMode::Native => Self::native(node),
            ProtocolMode::Recipe { confidentiality } => {
                Self::recipe(node, membership, confidentiality)
            }
        }
    }

    /// Builds a Recipe-mode shield for `node` within `membership`.
    ///
    /// `confidentiality` is the group's policy — a
    /// [`ConfidentialityMode`] resolved by the deployment spec, or a legacy
    /// `bool` via `From<bool>`.
    pub fn recipe(
        node: NodeId,
        membership: &Membership,
        confidentiality: impl Into<ConfidentialityMode>,
    ) -> Self {
        let confidentiality = confidentiality.into();
        let mut enclave = Self::launch(node);
        let master = Self::master_key();
        for peer in membership.members() {
            if *peer != node {
                Self::provision_channel(&mut enclave, &master, node, *peer);
            }
        }
        if confidentiality.is_confidential() {
            Self::provision_cipher(&mut enclave, Self::group_cipher_key(membership.group()));
        }
        Self::over(node, enclave, confidentiality)
    }

    /// Builds the shield of a 2PC endpoint: attested like a replica's, with
    /// no peers yet — a lane adds the other end at first contact
    /// ([`ProtocolShield::add_peer`]) — and with the cipher key provisioned
    /// whatever any shard's policy says, because sealing is decided per
    /// transaction ([`ProtocolShield::wrap_txn_in`]) and one endpoint serves
    /// them all. The cipher is expanded on first use, so an endpoint that
    /// never seals pays nothing for holding the key.
    pub(crate) fn txn_endpoint(node: NodeId) -> Self {
        let mut enclave = Self::launch(node);
        Self::provision_cipher(&mut enclave, Self::deployment_cipher_key());
        Self::over(node, enclave, ConfidentialityMode::Plaintext)
    }

    /// Provisions both directions of the channel with `peer`, as
    /// [`ProtocolShield::recipe`] does for every member at start-up. The keys
    /// derive from the pair of node ids alone, so the two ends agree without
    /// exchanging anything. A no-op in native mode, which has no keys.
    pub(crate) fn add_peer(&mut self, peer: NodeId) {
        if let Some(auth) = &mut self.auth {
            Self::provision_channel(auth.enclave_mut(), &Self::master_key(), self.node, peer);
        }
    }

    fn launch(node: NodeId) -> Enclave {
        Enclave::launch(
            EnclaveId(node.0),
            EnclaveConfig::new("recipe-replica-v1", node.0),
        )
    }

    fn provision_channel(enclave: &mut Enclave, master: &MacKey, node: NodeId, peer: NodeId) {
        for (a, b) in [(node, peer), (peer, node)] {
            let label = Label::format(format_args!("{}", ChannelId::new(a, b)))
                .expect("a channel label fits the enclave's labels");
            enclave
                .provision_mac_key(label, master.derive(label.as_str()))
                .expect("fresh enclave accepts keys");
        }
    }

    fn provision_cipher(enclave: &mut Enclave, key: CipherKey) {
        enclave
            .provision_cipher_key(recipe_core::auth::CIPHER_LABEL, key)
            .expect("fresh enclave accepts keys");
    }

    fn over(node: NodeId, enclave: Enclave, confidentiality: ConfidentialityMode) -> Self {
        ProtocolShield {
            node,
            mode: ProtocolMode::Recipe { confidentiality },
            auth: Some(AuthLayer::new(node, enclave, confidentiality)),
            dropped: 0,
            sealed_frames: 0,
            sealed_ops: 0,
            opened_frames: 0,
        }
    }

    /// Builds a native-mode shield (no authentication layer).
    pub fn native(node: NodeId) -> Self {
        ProtocolShield {
            node,
            mode: ProtocolMode::Native,
            auth: None,
            dropped: 0,
            sealed_frames: 0,
            sealed_ops: 0,
            opened_frames: 0,
        }
    }

    /// The mode of this shield.
    pub(crate) fn mode(&self) -> ProtocolMode {
        self.mode
    }

    /// The store configuration matching this shield's confidentiality policy:
    /// confidential groups seal values before they enter host memory, so a
    /// group's policy covers its data at rest as well as on the wire — under
    /// this replica's own sub-key of the key its enclave was provisioned
    /// ([`AuthLayer::store_cipher_key`]), because every store counts its
    /// nonces from one. Native and plaintext-Recipe groups store plain
    /// values (integrity is still hash-checked by the partitioned store).
    pub(crate) fn store_config(&self) -> recipe_kv::StoreConfig {
        let config = recipe_kv::StoreConfig::default();
        match &self.auth {
            Some(auth) if auth.is_confidential() => config.with_cipher(
                auth.store_cipher_key()
                    .expect("a confidential shield holds the cipher key"),
            ),
            _ => config,
        }
    }

    /// The owning node.
    pub(crate) fn node(&self) -> NodeId {
        self.node
    }

    /// Messages rejected by the authentication / non-equivocation layer so far.
    pub fn rejected(&self) -> u64 {
        self.dropped
    }

    /// Telemetry snapshot of this shield's seal/open/reject counters (the
    /// batcher contributes the `batch_*` fields separately).
    pub(crate) fn counters(&self) -> recipe_telemetry::ProtocolCounters {
        recipe_telemetry::ProtocolCounters {
            sealed_frames: self.sealed_frames,
            sealed_ops: self.sealed_ops,
            opened_frames: self.opened_frames,
            rejected_frames: self.dropped,
            ..Default::default()
        }
    }

    /// Moves both sides to a new view (no-op in native mode).
    pub(crate) fn set_view(&mut self, view: u64) {
        if let Some(auth) = &mut self.auth {
            auth.set_view(view);
        }
    }

    /// The trusted send counter toward `peer` (0 in native mode). Read by the
    /// attestation service while re-attesting a restarted peer so it can
    /// fast-forward the peer's receive counter past frames it slept through.
    pub(crate) fn send_counter_to(&self, peer: NodeId) -> u64 {
        self.auth
            .as_ref()
            .map(|auth| auth.send_counter_to(peer))
            .unwrap_or(0)
    }

    /// The trusted receive counter for `peer`: the counter of the last frame
    /// accepted from it (0 in native mode, and before the first).
    pub fn recv_counter_from(&self, peer: NodeId) -> u64 {
        self.auth
            .as_ref()
            .map(|auth| auth.recv_counter_from(peer))
            .unwrap_or(0)
    }

    /// Re-attestation channel resync for the `peer → self` direction: the
    /// receive counter jumps forward to `peer_send_counter` and buffered
    /// frames from `peer` are discarded (no-op in native mode). Monotonic —
    /// never re-opens the replay window.
    pub(crate) fn resync_from(&mut self, peer: NodeId, peer_send_counter: u64) {
        if let Some(auth) = &mut self.auth {
            auth.resync_from(peer, peer_send_counter);
        }
    }

    /// Wire bytes of one frame of `ops` protocol messages whose payloads
    /// total `payload_bytes`, as a shield in Recipe mode (`shielded`) or
    /// native mode sends it: one [`ProtocolShield::wrap_in`] message when it
    /// does not batch, else one [`ProtocolShield::wrap_batch_in`] frame.
    pub(crate) fn frame_len(
        shielded: bool,
        batched: bool,
        ops: usize,
        payload_bytes: usize,
    ) -> usize {
        let body = || BatchFrame::body_len(ops, payload_bytes);
        match (shielded, batched) {
            (true, false) => ShieldedMessage::frame_len(payload_bytes),
            (false, false) => native_len(payload_bytes),
            (true, true) => BatchFrame::frame_len(body()),
            (false, true) => native_batch_len(body()),
        }
    }

    /// Wraps a protocol message of type `kind` for `dst` into wire bytes, in
    /// a spare from `frames`: `write_body` puts the message's `body_len`
    /// bytes straight into the frame's body slot, where they are sealed. A
    /// message that is already bytes passes `|w| { w.raw(payload); }`.
    pub fn wrap_in(
        &mut self,
        frames: &mut FramePool,
        dst: NodeId,
        kind: u16,
        body_len: usize,
        write_body: impl FnOnce(&mut Writer),
    ) -> Vec<u8> {
        self.sealed_frames += 1;
        self.sealed_ops += 1;
        match &mut self.auth {
            None => encode_native(frames, kind, body_len, write_body),
            Some(auth) => auth
                .shield_in(frames, dst, kind, body_len, write_body)
                .expect("channel key provisioned for every peer"),
        }
    }

    /// Wraps a whole batch of protocol messages for `dst` into one wire frame,
    /// in a spare from `frames`: a [`recipe_core::BatchFrame`] under one
    /// counter/MAC in Recipe mode, a plain native batch frame in native mode.
    /// `body` holds the batch in [`BatchFrame::write_ops`]'s format, as the
    /// [`crate::Batcher`] queues it.
    ///
    /// # Panics
    /// Panics on an empty batch — flushing nothing is a caller bug.
    pub fn wrap_batch_in(&mut self, frames: &mut FramePool, dst: NodeId, body: &[u8]) -> Vec<u8> {
        let ops = BatchFrame::op_count(body);
        assert!(ops > 0, "wrap_batch_in requires at least one op");
        self.sealed_frames += 1;
        self.sealed_ops += u64::from(ops);
        match &mut self.auth {
            None => encode_native_batch(frames, body),
            Some(auth) => auth
                .shield_batch_body_in(frames, dst, body)
                .expect("channel key provisioned for every peer"),
        }
    }

    /// Wraps one two-phase-commit message for `dst` into wire bytes, in a
    /// spare from `frames`: a domain-separated [`recipe_core::TxnFrame`]
    /// under the channel's next counter slot — MAC always, the body
    /// encrypted when `seal` is set. The caller decides per frame:
    /// stricter-wins sealing is a property of the transaction, not of the
    /// endpoint. 2PC endpoints always run Recipe mode — there is no native
    /// 2PC.
    ///
    /// # Panics
    /// Panics on a native-mode shield: transaction frames only exist inside
    /// the authenticated channel.
    pub fn wrap_txn_in(
        &mut self,
        frames: &mut FramePool,
        dst: NodeId,
        txn_id: u64,
        body: &TxnBody,
        seal: bool,
    ) -> Vec<u8> {
        self.sealed_frames += 1;
        self.sealed_ops += 1;
        self.auth
            .as_mut()
            .expect("2PC frames require a Recipe-mode shield")
            .shield_txn_in(frames, dst, txn_id, body, seal)
            .expect("channel key provisioned for every peer")
    }

    /// Unwraps a two-phase-commit frame received on the channel from `from`.
    /// Returns the `(txn_id, body)` the frame carried when it is authentic,
    /// fresh and in order; `None` otherwise (tampered, replayed, out of
    /// order, misaddressed — the 2PC retransmission protocol redelivers; the
    /// rejection is counted).
    ///
    /// A frame that names another source is refused before the
    /// authentication layer sees it. An endpoint with several peers holds a
    /// key for each, so it would accept such a frame on *that* peer's
    /// channel and move that peer's receive counter — while the caller,
    /// which is serving `from`, throws the body away: the frame's real
    /// sender would then find its retransmission rejected as a replay for
    /// ever.
    ///
    /// The frame is verified where it lies, as [`ProtocolShield::unwrap`]
    /// verifies the others, but `bytes` are only read — a coordinator
    /// resends the same cached bytes, so they cannot be opened in place.
    /// The body is decoded where it lies: in `bytes` when it travelled in
    /// plaintext, and in a spare from `frames` when it was sealed — copied
    /// there, decrypted there, and left in `spare` for the caller to give
    /// back to `frames` once done with the body.
    pub fn unwrap_txn_in<'a>(
        &mut self,
        frames: &mut FramePool,
        from: NodeId,
        bytes: &'a [u8],
        spare: &'a mut Option<Vec<u8>>,
    ) -> Option<(u64, TxnBodyRef<'a>)> {
        let auth = self
            .auth
            .as_mut()
            .expect("2PC frames require a Recipe-mode shield");
        let opened = FrameView::parse_txn(bytes)
            .filter(|frame| frame.source() == from)
            .and_then(|frame| auth.open_txn_view(frame, frames, spare));
        if opened.is_some() {
            self.opened_frames += 1;
        } else {
            self.dropped += 1;
        }
        opened
    }

    /// Unwraps wire bytes received from `from` (single messages and batch
    /// frames alike — the frame type is discriminated on the wire).
    ///
    /// Returns every message that became deliverable: the message(s) carried by
    /// this frame if it was in order, plus any previously buffered "future"
    /// frames that its arrival released. Returns an empty [`Frames`] if the
    /// frame was rejected (tampered, replayed, wrong view, naming a source
    /// other than `from`) — the protocol simply never sees it, which is the
    /// whole point of the transformation.
    ///
    /// The frame is verified where it lies, in `bytes`, which the caller
    /// lends: an in-order frame's messages are slices of them — a sealed
    /// body is decrypted in them once the frame is admitted — and only a
    /// frame ahead of its turn is copied, as it came, to be kept. A frame
    /// that is refused or kept leaves them as they were.
    pub fn unwrap<'a>(&mut self, from: NodeId, bytes: &'a mut [u8]) -> Frames<'a> {
        self.open(from, bytes).unwrap_or_else(|| {
            self.dropped += 1;
            Frames::Empty
        })
    }

    /// [`ProtocolShield::unwrap`] with rejection as `None`: dispatches on the
    /// family tag, so each frame is parsed at most once and an unknown tag is
    /// rejected without parsing at all.
    fn open<'a>(&mut self, from: NodeId, bytes: &'a mut [u8]) -> Option<Frames<'a>> {
        let Some(auth) = &mut self.auth else {
            let bytes: &'a [u8] = bytes;
            let out = match *bytes.first()? {
                tag::NATIVE_SINGLE => Frames::One(decode_native(bytes)?),
                tag::NATIVE_BATCH => Frames::Many(decode_native_batch(bytes)?),
                _ => return None,
            };
            self.opened_frames += 1;
            return Some(out);
        };
        // A frame that names another source is refused before the
        // authentication layer sees it (as in `unwrap_txn_in`): it would verify
        // on *that* peer's channel and move that peer's receive counter,
        // while its payload reached the protocol as `from`'s. A frame ahead
        // of its predecessors is buffered, not opened.
        let frame = FrameView::parse_mut(bytes).filter(|frame| frame.source() == from)?;
        let mut out = match auth.verify_view(frame) {
            ViewOutcome::Message { kind, payload } => Frames::One((kind, payload)),
            ViewOutcome::Batch(ops) => Frames::Many(ops),
            ViewOutcome::Buffered => Frames::Empty,
            ViewOutcome::Rejected => return None,
        };
        self.opened_frames += u64::from(!matches!(out, Frames::Empty));
        for (kind, payload, _) in auth.take_ready(from) {
            out.push((kind, Cow::Owned(payload)));
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use recipe_core::BatchOp;

    use super::*;

    fn membership() -> Membership {
        Membership::of_size(3, 1)
    }

    /// `payload` wrapped as one `kind` message for `dst`, in a frame of its
    /// own.
    fn single(shield: &mut ProtocolShield, dst: NodeId, kind: u16, payload: &[u8]) -> Vec<u8> {
        let frames = &mut FramePool::default();
        shield.wrap_in(frames, dst, kind, payload.len(), |w| {
            w.raw(payload);
        })
    }

    /// `ops` wrapped as one batch frame for `dst`, in a frame of its own.
    fn batched(shield: &mut ProtocolShield, dst: NodeId, ops: &[BatchOp]) -> Vec<u8> {
        let body = BatchFrame::encode_ops(ops);
        shield.wrap_batch_in(&mut FramePool::default(), dst, &body)
    }

    #[test]
    fn recipe_shields_roundtrip_between_replicas() {
        let m = membership();
        let mut sender = ProtocolShield::recipe(NodeId(0), &m, false);
        let mut receiver = ProtocolShield::recipe(NodeId(1), &m, false);
        assert!(sender.mode().is_recipe());

        let mut wire = single(&mut sender, NodeId(1), 7, b"append entry 5");
        let out = receiver.unwrap(NodeId(0), &mut wire);
        assert_eq!(out, vec![(7, b"append entry 5".to_vec())]);
        assert_eq!(receiver.rejected(), 0);
    }

    #[test]
    fn native_mode_round_trips_without_protection() {
        let mut sender = ProtocolShield::native(NodeId(0));
        let mut receiver = ProtocolShield::native(NodeId(1));
        assert_eq!(sender.mode(), ProtocolMode::Native);
        let wire = single(&mut sender, NodeId(1), 3, b"plain");
        assert_eq!(
            receiver.unwrap(NodeId(0), &mut wire.clone()),
            vec![(3, b"plain".to_vec())]
        );
        // Garbage is dropped, not crashed on.
        assert!(receiver
            .unwrap(NodeId(0), &mut b"garbage".to_vec())
            .is_empty());
        assert_eq!(receiver.rejected(), 1);
    }

    #[test]
    fn recipe_mode_rejects_tampering_and_replays() {
        let m = membership();
        let mut sender = ProtocolShield::recipe(NodeId(0), &m, false);
        let mut receiver = ProtocolShield::recipe(NodeId(1), &m, false);

        let wire = single(&mut sender, NodeId(1), 7, b"value=A");
        // Tampered copy is rejected.
        let mut tampered = wire.clone();
        let idx = tampered.len() / 2;
        tampered[idx] ^= 0x01;
        assert!(receiver.unwrap(NodeId(0), &mut tampered.clone()).is_empty());
        // The original is accepted once.
        assert_eq!(receiver.unwrap(NodeId(0), &mut wire.clone()).len(), 1);
        // Replaying it is rejected.
        assert!(receiver.unwrap(NodeId(0), &mut wire.clone()).is_empty());
        assert!(receiver.rejected() >= 2);
    }

    #[test]
    fn out_of_order_messages_are_released_in_order() {
        let m = membership();
        let mut sender = ProtocolShield::recipe(NodeId(0), &m, false);
        let mut receiver = ProtocolShield::recipe(NodeId(1), &m, false);
        let mut w1 = single(&mut sender, NodeId(1), 1, b"first");
        let w2 = single(&mut sender, NodeId(1), 1, b"second");
        // w2 arrives first → buffered; nothing delivered yet.
        assert!(receiver.unwrap(NodeId(0), &mut w2.clone()).is_empty());
        // w1 arrives → both delivered, in order.
        let out = receiver.unwrap(NodeId(0), &mut w1);
        assert_eq!(out, vec![(1, b"first".to_vec()), (1, b"second".to_vec())]);
    }

    #[test]
    fn confidential_mode_encrypts_payloads() {
        let m = membership();
        let mut sender = ProtocolShield::recipe(NodeId(0), &m, true);
        let mut receiver = ProtocolShield::recipe(NodeId(1), &m, true);
        let wire = single(&mut sender, NodeId(1), 2, b"secret-value-123");
        assert!(!wire.windows(6).any(|w| w == b"secret"));
        assert_eq!(
            receiver.unwrap(NodeId(0), &mut wire.clone()),
            vec![(2, b"secret-value-123".to_vec())]
        );
    }

    #[test]
    fn every_replica_seals_its_store_under_a_key_of_its_own() {
        use recipe_kv::{PartitionedKvStore, Timestamp};
        // Replicas 0 and 1 of group 0, and replica 0 of group 1 — which has
        // the same node id as the first, as every group's ids run from 0.
        let store = |node: u64, group: u64| {
            let m = membership().in_group(group);
            let shield = ProtocolShield::recipe(NodeId(node), &m, true);
            PartitionedKvStore::new(shield.store_config())
        };
        let mut stores = [store(0, 0), store(1, 0), store(0, 1)];
        // The same first write everywhere — each store's nonce counter is at
        // one — and a different one on a twin of the first store.
        let (value, other) = ([0x11u8; 64], [0x22u8; 64]);
        let host: Vec<Vec<u8>> = stores
            .iter_mut()
            .map(|store| {
                assert!(store.is_confidential());
                store.write(b"k", &value, Timestamp::new(1, 0)).unwrap();
                assert_eq!(store.get(b"k").unwrap().value, value);
                store.host_visible_bytes(b"k").unwrap()
            })
            .collect();
        assert_ne!(host[0], host[1]);
        assert_ne!(host[0], host[2]);
        assert_ne!(host[1], host[2]);
        let xor = |x: &[u8], y: &[u8]| -> Vec<u8> { x.iter().zip(y).map(|(x, y)| x ^ y).collect() };
        let mut diverged = store(0, 1);
        diverged.write(b"k", &other, Timestamp::new(1, 0)).unwrap();
        let host_diverged = diverged.host_visible_bytes(b"k").unwrap();
        // Under one shared key the host would read the XOR of two plaintexts
        // off the two stores' memory.
        assert_ne!(xor(&host[0], &host_diverged), xor(&value, &other));
        // Plaintext and native shields configure plain stores.
        assert!(!PartitionedKvStore::new(
            ProtocolShield::recipe(NodeId(0), &membership(), false).store_config()
        )
        .is_confidential());
        assert!(
            !PartitionedKvStore::new(ProtocolShield::native(NodeId(0)).store_config())
                .is_confidential()
        );
    }

    #[test]
    fn replica_groups_seal_frames_under_keys_of_their_own() {
        // `0 → 1` at counter 1 in two groups: the same channel, counter and
        // so nonce, which under one cipher key would be one keystream.
        let wire = |group: u64| {
            let m = membership().in_group(group);
            let mut sender = ProtocolShield::recipe(NodeId(0), &m, true);
            single(&mut sender, NodeId(1), 7, &[0x5A; 64])
        };
        let (a, b) = (wire(0), wire(1));
        let body = |wire: &[u8]| {
            recipe_core::ShieldedMessage::from_wire(wire)
                .unwrap()
                .payload
        };
        assert_ne!(body(&a), body(&b));
        assert_eq!(a, wire(0));
        // A group's frames open in that group only.
        let m = membership().in_group(1);
        let mut receiver = ProtocolShield::recipe(NodeId(1), &m, true);
        assert!(receiver.unwrap(NodeId(0), &mut a.clone()).is_empty());
        assert_eq!(receiver.unwrap(NodeId(0), &mut b.clone()).len(), 1);
        assert_ne!(
            ProtocolShield::group_cipher_key(0),
            ProtocolShield::deployment_cipher_key()
        );
    }

    #[test]
    fn a_frame_presented_as_from_another_source_is_refused_untouched() {
        let m = membership();
        let mut sender = ProtocolShield::recipe(NodeId(2), &m, false);
        let mut receiver = ProtocolShield::recipe(NodeId(1), &m, false);
        for wire in [
            single(&mut sender, NodeId(1), 7, b"ack"),
            batched(&mut sender, NodeId(1), &batch(2)),
        ] {
            // A valid 2→1 frame the network hands over as node 0's: its
            // payload must not count as node 0's, and node 2's receive
            // counter must not move for a delivery attributed elsewhere.
            let (rejected, counter) = (receiver.rejected(), receiver.recv_counter_from(NodeId(2)));
            assert!(receiver.unwrap(NodeId(0), &mut wire.clone()).is_empty());
            assert_eq!(receiver.rejected(), rejected + 1);
            assert_eq!(receiver.recv_counter_from(NodeId(2)), counter);
            assert_eq!(receiver.recv_counter_from(NodeId(0)), 0);
            // Presented as what it is, it is accepted.
            assert!(!receiver.unwrap(NodeId(2), &mut wire.clone()).is_empty());
            assert_eq!(receiver.recv_counter_from(NodeId(2)), counter + 1);
        }
        assert_eq!(receiver.rejected(), 2);
    }

    fn batch(n: usize) -> Vec<BatchOp> {
        (0..n)
            .map(|i| BatchOp::new(1, format!("entry{i}").into_bytes()))
            .collect()
    }

    #[test]
    fn recipe_batches_roundtrip_and_interleave_with_singles() {
        let m = membership();
        let mut sender = ProtocolShield::recipe(NodeId(0), &m, false);
        let mut receiver = ProtocolShield::recipe(NodeId(1), &m, false);

        let mut wire = batched(&mut sender, NodeId(1), &batch(3));
        let out = receiver.unwrap(NodeId(0), &mut wire);
        assert_eq!(out.len(), 3);
        assert_eq!(out.as_slice()[0], (1, Cow::Borrowed(&b"entry0"[..])));
        assert_eq!(out.as_slice()[2], (1, Cow::Borrowed(&b"entry2"[..])));

        // Singles keep flowing on the same channel after a batch.
        let wire = single(&mut sender, NodeId(1), 7, b"single");
        assert_eq!(
            receiver.unwrap(NodeId(0), &mut wire.clone()),
            vec![(7, b"single".to_vec())]
        );
        assert_eq!(receiver.rejected(), 0);
    }

    #[test]
    fn native_batches_roundtrip() {
        let mut sender = ProtocolShield::native(NodeId(0));
        let mut receiver = ProtocolShield::native(NodeId(1));
        let mut wire = batched(&mut sender, NodeId(1), &batch(2));
        let out = receiver.unwrap(NodeId(0), &mut wire);
        assert_eq!(out, vec![(1, b"entry0".to_vec()), (1, b"entry1".to_vec())]);
    }

    #[test]
    fn tampered_batches_are_dropped_whole() {
        let m = membership();
        let mut sender = ProtocolShield::recipe(NodeId(0), &m, false);
        let mut receiver = ProtocolShield::recipe(NodeId(1), &m, false);
        let wire = batched(&mut sender, NodeId(1), &batch(4));
        let mut tampered = wire.clone();
        let idx = tampered.len() / 2;
        tampered[idx] ^= 0x01;
        assert!(receiver.unwrap(NodeId(0), &mut tampered.clone()).is_empty());
        assert_eq!(receiver.unwrap(NodeId(0), &mut wire.clone()).len(), 4);
        // Replaying the whole frame rejects all four ops at once.
        assert!(receiver.unwrap(NodeId(0), &mut wire.clone()).is_empty());
        assert!(receiver.rejected() >= 2);
    }

    #[test]
    fn out_of_order_batches_are_released_in_order() {
        let m = membership();
        let mut sender = ProtocolShield::recipe(NodeId(0), &m, false);
        let mut receiver = ProtocolShield::recipe(NodeId(1), &m, false);
        let mut w1 = single(&mut sender, NodeId(1), 2, b"first");
        let w2 = batched(&mut sender, NodeId(1), &batch(2));
        // The batch arrives first → buffered behind the missing single.
        assert!(receiver.unwrap(NodeId(0), &mut w2.clone()).is_empty());
        let out = receiver.unwrap(NodeId(0), &mut w1);
        assert_eq!(
            out,
            vec![
                (2, b"first".to_vec()),
                (1, b"entry0".to_vec()),
                (1, b"entry1".to_vec())
            ]
        );
    }

    #[test]
    fn confidential_batches_encrypt_every_payload() {
        let m = membership();
        let mut sender = ProtocolShield::recipe(NodeId(0), &m, true);
        let mut receiver = ProtocolShield::recipe(NodeId(1), &m, true);
        let ops = vec![
            BatchOp::new(1, b"secret-a".to_vec()),
            BatchOp::new(1, b"secret-b".to_vec()),
        ];
        let mut wire = batched(&mut sender, NodeId(1), &ops);
        assert!(!wire.windows(6).any(|w| w == b"secret"));
        let out = receiver.unwrap(NodeId(0), &mut wire);
        assert_eq!(
            out,
            ops.into_iter()
                .map(|op| (op.kind, op.payload))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn in_order_messages_are_slices_of_the_received_bytes() {
        let m = membership();
        let borrowed = |frames: &Frames<'_>| -> Vec<bool> {
            let messages = frames.as_slice().iter();
            messages
                .map(|(_, payload)| matches!(payload, Cow::Borrowed(_)))
                .collect()
        };
        for (mut sender, mut receiver) in [
            (
                ProtocolShield::native(NodeId(0)),
                ProtocolShield::native(NodeId(1)),
            ),
            (
                ProtocolShield::recipe(NodeId(0), &m, false),
                ProtocolShield::recipe(NodeId(1), &m, false),
            ),
            // Sealed, decrypted where it lies.
            (
                ProtocolShield::recipe(NodeId(0), &m, true),
                ProtocolShield::recipe(NodeId(1), &m, true),
            ),
        ] {
            let mut single = single(&mut sender, NodeId(1), 7, b"ack");
            assert_eq!(borrowed(&receiver.unwrap(NodeId(0), &mut single)), [true]);
            let mut wire = batched(&mut sender, NodeId(1), &batch(3));
            assert_eq!(borrowed(&receiver.unwrap(NodeId(0), &mut wire)), [true; 3]);
        }
        // One released from the protected buffer is a buffer of its own.
        let mut sender = ProtocolShield::recipe(NodeId(0), &m, false);
        let mut receiver = ProtocolShield::recipe(NodeId(1), &m, false);
        let (mut first, mut second) = (
            single(&mut sender, NodeId(1), 7, b"first"),
            single(&mut sender, NodeId(1), 7, b"second"),
        );
        assert!(receiver.unwrap(NodeId(0), &mut second).is_empty());
        assert_eq!(
            borrowed(&receiver.unwrap(NodeId(0), &mut first)),
            [true, false]
        );
    }

    /// The per-frame MAC input — MAC header, body and, sealed, the key
    /// commitment; the channel block is behind the bound key — of every kind
    /// of frame the five `wall_bench` workloads send, the SHA-256
    /// compressions its MAC costs, and the path it takes: an input of two
    /// compressions is MAC'd from one stack block (the bound key's one-block
    /// entry), a longer one streamed. Run with `--nocapture` to read the
    /// table.
    #[test]
    fn mac_input_lengths_of_the_frames_the_workloads_send() {
        use crate::raft::RaftMsg;
        use recipe_core::{
            mac_compressions, Operation, TxnFrame, BATCH_MAC_HEADER_LEN, SINGLE_MAC_HEADER_LEN,
            TXN_MAC_HEADER_LEN,
        };
        const COMMITMENT_LEN: usize = 32;
        let key = b"user00000042".to_vec();
        let append = |value: usize| {
            RaftMsg::Append {
                view: 1,
                index: 7,
                key: &key,
                value: &vec![0; value],
                client_id: 3,
                request_id: 9,
            }
            .encode()
            .len()
        };
        let (view, index) = (1, 7);
        let put = |value: usize| Operation::Put {
            key: key.clone(),
            value: vec![0; value],
        };
        let batch_of = |ops: usize, value: usize| {
            let ops = vec![BatchOp::new(1, vec![0; append(value)]); ops];
            BatchFrame::ops_len(&ops)
        };
        let txn = |body: TxnBody| TxnFrame::encode_body(&body).len();
        // (frame, MAC header, body bytes, sealed, whether its MAC is the two
        // compressions an HMAC cannot go below, and so one-block)
        let rows = [
            (
                "raft append, 64 B value",
                SINGLE_MAC_HEADER_LEN,
                append(64),
                false,
                false,
            ),
            (
                "raft append, 256 B value",
                SINGLE_MAC_HEADER_LEN,
                append(256),
                false,
                false,
            ),
            (
                "raft append ack",
                SINGLE_MAC_HEADER_LEN,
                RaftMsg::AppendAck { view, index }.encode().len(),
                false,
                true,
            ),
            (
                "raft commit",
                SINGLE_MAC_HEADER_LEN,
                RaftMsg::Commit { view, index }.encode().len(),
                false,
                true,
            ),
            (
                "raft commit ack",
                SINGLE_MAC_HEADER_LEN,
                RaftMsg::CommitAck { view, index }.encode().len(),
                false,
                true,
            ),
            (
                "raft heartbeat",
                SINGLE_MAC_HEADER_LEN,
                RaftMsg::Heartbeat { view }.encode().len(),
                false,
                true,
            ),
            (
                "raft view change",
                SINGLE_MAC_HEADER_LEN,
                RaftMsg::ViewChange { new_view: 2 }.encode().len(),
                false,
                true,
            ),
            (
                "raft commit ack, sealed",
                SINGLE_MAC_HEADER_LEN,
                RaftMsg::CommitAck { view, index }.encode().len(),
                true,
                false,
            ),
            (
                "batch of 16 appends, 1 KiB values, sealed",
                BATCH_MAC_HEADER_LEN,
                batch_of(16, 1024),
                true,
                false,
            ),
            (
                "batch of 16 commits, sealed",
                BATCH_MAC_HEADER_LEN,
                {
                    let ops = vec![BatchOp::new(1, RaftMsg::Commit { view, index }.encode()); 16];
                    BatchFrame::ops_len(&ops)
                },
                true,
                false,
            ),
            (
                "2pc prepare, two 256 B puts",
                TXN_MAC_HEADER_LEN,
                txn(TxnBody::Prepare {
                    ops: vec![put(256), put(256)],
                }),
                false,
                false,
            ),
            (
                "2pc vote, granted",
                TXN_MAC_HEADER_LEN,
                txn(TxnBody::Vote {
                    granted: true,
                    conflict: None,
                }),
                false,
                true,
            ),
            (
                "2pc vote, refused over a 12 B key",
                TXN_MAC_HEADER_LEN,
                txn(TxnBody::Vote {
                    granted: false,
                    conflict: Some(key.clone()),
                }),
                false,
                true,
            ),
            (
                "2pc commit",
                TXN_MAC_HEADER_LEN,
                txn(TxnBody::Commit),
                false,
                true,
            ),
            (
                "2pc abort",
                TXN_MAC_HEADER_LEN,
                txn(TxnBody::Abort),
                false,
                true,
            ),
            (
                "2pc ack",
                TXN_MAC_HEADER_LEN,
                txn(TxnBody::Ack { applied: 2 }),
                false,
                true,
            ),
            (
                "2pc commit, sealed",
                TXN_MAC_HEADER_LEN,
                txn(TxnBody::Commit),
                true,
                false,
            ),
        ];
        println!(
            "{:<44} {:>6} {:>6} {:>7} {:>5}  path",
            "frame", "header", "body", "input", "sha"
        );
        for (frame, header, body, sealed, minimal) in rows {
            let input = header + body + if sealed { COMMITMENT_LEN } else { 0 };
            let compressions = mac_compressions(input);
            let path = if compressions == 2 {
                "one block"
            } else {
                "streamed"
            };
            println!("{frame:<44} {header:>6} {body:>6} {input:>7} {compressions:>5}  {path}");
            assert_eq!(compressions == 2, minimal, "{frame}");
        }
    }

    #[test]
    fn frames_container_promotes_and_iterates() {
        let mut frames = Frames::Empty;
        assert!(frames.is_empty());
        frames.push((1, Cow::Borrowed(b"a")));
        assert_eq!(frames.len(), 1);
        frames.push((2, Cow::Owned(b"b".to_vec())));
        frames.push((3, Cow::Borrowed(b"c")));
        assert_eq!(frames.len(), 3);
        let kinds: Vec<u16> = frames.into_iter().map(|(kind, _)| kind).collect();
        assert_eq!(kinds, vec![1, 2, 3]);
        assert_eq!(FramesIter::Empty.next(), None);
    }

    #[test]
    fn cross_protocol_messages_with_wrong_keys_are_rejected() {
        // A shield for a different node id pair (no provisioned key for that
        // channel on the receiver) cannot inject messages.
        let m = membership();
        let mut outsider = ProtocolShield::recipe(NodeId(2), &Membership::of_size(5, 2), false);
        let mut receiver = ProtocolShield::recipe(NodeId(1), &m, false);
        // Outsider derives its keys from the same master in this reproduction, so use
        // a node id outside the receiver's membership to get a missing channel key.
        let wire = single(&mut outsider, NodeId(1), 7, b"inject");
        // The receiver *does* hold cq:2->1 (node 2 is in its membership), so this is
        // accepted — the meaningful rejection is for a node the membership does not
        // contain at all:
        let _ = receiver.unwrap(NodeId(2), &mut wire.clone());
        let mut stranger = ProtocolShield::recipe(
            NodeId(9),
            &Membership::new(vec![NodeId(1), NodeId(9)], 0),
            false,
        );
        let wire = single(&mut stranger, NodeId(1), 7, b"inject");
        // Receiver has no key for cq:9->1 (9 is not in its membership) → rejected.
        assert!(receiver.unwrap(NodeId(9), &mut wire.clone()).is_empty());
    }
}
