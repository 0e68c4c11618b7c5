//! Message formats: client requests, shielded replica-to-replica messages and the
//! sequence tuples that make equivocation detectable.

use recipe_crypto::{
    BoundMacKey, CryptoError, KeyCommitment, MacStream, MacTag, Signature, XNonce, DIGEST_LEN,
    MAC_BLOCK_LEN, MAC_ONE_BLOCK_MAX,
};
use recipe_net::{ChannelId, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;

use crate::pool::FramePool;
use crate::wire::{bytes_len, tag, Reader, Writer};

/// The per-message sequence tuple `t = (view, cq, cnt_cq)` of Algorithm 1.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SequenceTuple {
    /// Current view (epoch) the sender believes in.
    pub view: u64,
    /// The directed channel the message travels on.
    pub channel: ChannelId,
    /// Value of the sender's trusted counter for this channel.
    pub counter: u64,
}

impl SequenceTuple {
    /// Length of `SequenceTuple::to_bytes`.
    pub const LEN: usize = 32;

    /// Canonical byte encoding: folded into the MAC and written on the wire
    /// (`view | src | dst | counter`, little-endian `u64`s).
    pub(crate) fn to_bytes(self) -> [u8; Self::LEN] {
        let mut bytes = [0u8; Self::LEN];
        bytes[..8].copy_from_slice(&self.view.to_le_bytes());
        bytes[8..16].copy_from_slice(&self.channel.src.0.to_le_bytes());
        bytes[16..24].copy_from_slice(&self.channel.dst.0.to_le_bytes());
        bytes[24..].copy_from_slice(&self.counter.to_le_bytes());
        bytes
    }

    /// The XChaCha20 nonce of the one frame sealed under this tuple:
    /// `src | dst | counter`, the last 24 bytes of `SequenceTuple::to_bytes`.
    ///
    /// Both ends derive it, so it is never sent, and it is authentic because
    /// the tuple is under the frame MAC. It is unique under the cipher key
    /// because a channel's trusted counter never repeats — across views as
    /// within one, which is why the view is left out. Node ids and the
    /// counter go in whole: the derivation is injective over all of `u64`,
    /// whatever block of ids an endpoint's comes from.
    pub fn nonce(&self) -> XNonce {
        let mut nonce = [0u8; 24];
        nonce[..16].copy_from_slice(&channel_nonce_prefix(self.channel));
        nonce[16..].copy_from_slice(&self.counter.to_le_bytes());
        nonce
    }

    fn read(r: &mut Reader<'_>) -> Option<SequenceTuple> {
        let view = r.u64()?;
        let channel = ChannelId::new(NodeId(r.u64()?), NodeId(r.u64()?));
        let counter = r.u64()?;
        Some(SequenceTuple {
            view,
            channel,
            counter,
        })
    }
}

/// The first 16 bytes of every frame nonce on `channel` ([`SequenceTuple::nonce`]):
/// `src | dst`, little-endian `u64`s. XChaCha20 folds them into the sub-key
/// `HChaCha20(k_enc, src | dst)`, the same for every frame of the channel,
/// so the authentication layer has the enclave make it once
/// ([`recipe_crypto::Cipher::bind`]) and a frame's keystream is ChaCha20
/// under it with the counter as the nonce's last 8 bytes.
pub(crate) fn channel_nonce_prefix(channel: ChannelId) -> [u8; 16] {
    let mut prefix = [0u8; 16];
    prefix[..8].copy_from_slice(&channel.src.0.to_le_bytes());
    prefix[8..].copy_from_slice(&channel.dst.0.to_le_bytes());
    prefix
}

/// Bytes of the header every shielded frame family starts with: family tag,
/// sealed flag, sequence tuple, MAC tag.
const SHIELD_HEADER_LEN: usize = 1 + 1 + SequenceTuple::LEN + DIGEST_LEN;

/// Where the MAC tag sits in that header.
const MAC_AT: usize = 1 + 1 + SequenceTuple::LEN;

/// Domain string at the head of the block a channel's MAC key is bound to
/// ([`channel_mac_block`]): what tells a frame MAC of this construction from
/// any other use of a channel key.
const CHANNEL_MAC_DOMAIN: &[u8] = b"recipe.frame_mac.v2";

/// The first 64 bytes of every frame MAC input on `channel`: the domain
/// string, zeros, then `src | dst` as little-endian `u64`s in the last 16
/// bytes. It is the same for every frame of the channel, so the
/// authentication layer has the enclave hash it once, into the channel key's
/// bound state ([`recipe_crypto::MacKey::bind`]), and a frame's own MAC input
/// — [`Family::write_authenticated_parts`] — starts behind it. The channel
/// ids are under every MAC exactly as if they were re-hashed with each frame.
pub(crate) fn channel_mac_block(channel: ChannelId) -> [u8; MAC_BLOCK_LEN] {
    let mut block = [0u8; MAC_BLOCK_LEN];
    block[..CHANNEL_MAC_DOMAIN.len()].copy_from_slice(CHANNEL_MAC_DOMAIN);
    block[MAC_BLOCK_LEN - 16..MAC_BLOCK_LEN - 8].copy_from_slice(&channel.src.0.to_le_bytes());
    block[MAC_BLOCK_LEN - 8..].copy_from_slice(&channel.dst.0.to_le_bytes());
    block
}

/// Bytes of a MAC header before the family's field: family tag, sealed flag,
/// view, counter.
const MAC_HEADER_FIXED_LEN: usize = 1 + 1 + 8 + 8;

/// Bytes of a [`ShieldedMessage`]'s MAC header (`kind u16`, then the body
/// length as a `u32`) — what precedes the body in its per-frame MAC input.
pub const SINGLE_MAC_HEADER_LEN: usize = MAC_HEADER_FIXED_LEN + 2 + 4;

/// Bytes of a [`BatchFrame`]'s MAC header (`count u32`).
pub const BATCH_MAC_HEADER_LEN: usize = MAC_HEADER_FIXED_LEN + 4 + 4;

/// Bytes of a [`TxnFrame`]'s MAC header (`txn_id u64`).
pub const TXN_MAC_HEADER_LEN: usize = MAC_HEADER_FIXED_LEN + 8 + 4;

/// SHA-256 compressions one frame MAC costs for `input_len` bytes of
/// per-frame input (MAC header, body and, sealed, the 32-byte key
/// commitment): the inner hash's blocks — the input, a `0x80` byte and the
/// 8-byte length — and the outer hash's one. The channel block is not
/// counted: it is behind the bound key. Two is the least an HMAC can cost,
/// and what an input of up to 55 bytes does; such an input is MAC'd from
/// its one block alone (the bound key's one-block entry,
/// [`recipe_crypto::BoundMacKey::tag_one_block`]).
pub const fn mac_compressions(input_len: usize) -> usize {
    (input_len + 1 + 8).div_ceil(MAC_BLOCK_LEN) + 1
}

// The inputs of two compressions are exactly the ones the bound key's
// one-block entry takes.
const _: () = assert!(
    mac_compressions(MAC_ONE_BLOCK_MAX) == 2 && mac_compressions(MAC_ONE_BLOCK_MAX + 1) == 3
);

/// A frame's MAC under its channel's bound key, to be tagged (shield) or
/// checked (verify) — the one way both ends compute it
/// ([`Family::frame_mac`]). An input of two compressions
/// ([`mac_compressions`]: every Raft ack, commit, commit-ack and heartbeat,
/// every fixed-size plaintext 2PC frame) is laid out in one stack block and
/// padded there by the key's one-block entry; a longer one (appends,
/// batches, prepares, and every sealed frame, whose 32-byte key commitment
/// alone overflows the block) is streamed. The form follows the input's
/// length only, so both ends pick the same one, and both forms give the
/// same tag.
pub(crate) struct FrameMac<'a> {
    key: &'a BoundMacKey,
    family: Family,
    tuple: &'a SequenceTuple,
    body: &'a [u8],
    commitment: Option<&'a KeyCommitment>,
}

impl FrameMac<'_> {
    /// The frame's tag.
    pub(crate) fn tag(&self) -> MacTag {
        let mut block = [0u8; MAC_BLOCK_LEN];
        match self.one_block(&mut block) {
            Some(len) => {
                let tag = self.key.tag_one_block(&mut block, len);
                // recipe-lint: allow(unwrap-in-lib, reason = "`one_block` lays out only inputs of at most MAC_ONE_BLOCK_MAX bytes")
                tag.expect("laid out only when it fits one block")
            }
            None => self.stream().tag(),
        }
    }

    /// Checks a received tag, in constant time in the comparison.
    pub(crate) fn verify(&self, tag: &MacTag) -> Result<(), CryptoError> {
        let mut block = [0u8; MAC_BLOCK_LEN];
        match self.one_block(&mut block) {
            Some(len) => self.key.verify_one_block(&mut block, len, tag),
            None => self.stream().verify(tag),
        }
    }

    /// Lays the input out at the front of `block` and returns its length,
    /// if it is two compressions' worth.
    fn one_block(&self, block: &mut [u8; MAC_BLOCK_LEN]) -> Option<usize> {
        let input_len =
            self.family.mac_header_len() + self.body.len() + self.commitment.map_or(0, |c| c.len());
        if mac_compressions(input_len) != 2 {
            return None;
        }
        let mut len = 0;
        let mut put = |bytes: &[u8]| {
            block[len..len + bytes.len()].copy_from_slice(bytes);
            len += bytes.len();
        };
        self.family
            .write_authenticated_parts(&mut put, self.tuple, self.body, self.commitment);
        Some(len)
    }

    /// A stream of the key fed the input.
    fn stream(&self) -> MacStream {
        let mut stream = self.key.stream();
        self.family.write_authenticated_parts(
            &mut |bytes| stream.update(bytes),
            self.tuple,
            self.body,
            self.commitment,
        );
        stream
    }
}

/// The three shielded frame families, each with the one field it carries
/// between the shared header and the body. On the wire every family is
///
/// ```text
/// tag | sealed | view src dst counter | mac | field | len u32 | body
/// ```
///
/// and a sealed frame differs from a plaintext one in the flag and in what
/// the body bytes are — the XChaCha20 ciphertext of the plaintext body, as
/// long as it, with no nonce and no tag of its own: the nonce is
/// [`SequenceTuple::nonce`] and the frame MAC is the only authenticator.
///
/// Under the MAC the families are told apart by their tag byte, the first
/// byte of the MAC header: it fixes the header's width and so where the body
/// starts, and the header's length field fixes where it ends, so no two
/// frames — of one family or of two — have the same MAC input.
#[derive(Clone, Copy)]
pub(crate) enum Family {
    /// [`ShieldedMessage`]: the protocol-defined message kind.
    Single { kind: u16 },
    /// [`BatchFrame`]: the number of ops in the body.
    Batch { count: u32 },
    /// [`TxnFrame`]: the transaction the frame belongs to.
    Txn { txn_id: u64 },
}

impl Family {
    fn tag(self) -> u8 {
        match self {
            Family::Single { .. } => tag::SINGLE,
            Family::Batch { .. } => tag::BATCH,
            Family::Txn { .. } => tag::TXN,
        }
    }

    fn write_field(self, w: &mut Writer) {
        match self {
            Family::Single { kind } => w.u16(kind),
            Family::Batch { count } => w.u32(count),
            Family::Txn { txn_id } => w.u64(txn_id),
        };
    }

    /// Wire bytes of a frame of this family with `body_len` body bytes.
    pub(crate) fn wire_len(self, body_len: usize) -> usize {
        let field_len = match self {
            Family::Single { .. } => 2,
            Family::Batch { .. } => 4,
            Family::Txn { .. } => 8,
        };
        SHIELD_HEADER_LEN + field_len + bytes_len(body_len)
    }

    /// Bytes of this family's MAC header.
    fn mac_header_len(self) -> usize {
        match self {
            Family::Single { .. } => SINGLE_MAC_HEADER_LEN,
            Family::Batch { .. } => BATCH_MAC_HEADER_LEN,
            Family::Txn { .. } => TXN_MAC_HEADER_LEN,
        }
    }

    /// The MAC of a frame of this family under the channel's bound key, over
    /// [`Family::write_authenticated_parts`]'s bytes: what shield and verify
    /// both tag or check.
    pub(crate) fn frame_mac<'a>(
        self,
        key: &'a BoundMacKey,
        tuple: &'a SequenceTuple,
        body: &'a [u8],
        commitment: Option<&'a KeyCommitment>,
    ) -> FrameMac<'a> {
        FrameMac {
            key,
            family: self,
            tuple,
            body,
            commitment,
        }
    }

    /// Hands the bytes the frame MAC covers behind the channel block
    /// ([`channel_mac_block`], which carries `src` and `dst`) to `put`, piece
    /// by piece and in order; what the MAC covers is the block and their
    /// concatenation. [`FrameMac`] points `put` at the one-block entry's
    /// stack block or at a MAC stream of the channel's bound key, so
    /// the body is authenticated where it lies — in a frame struct, in the
    /// wire buffer being built or in the one received.
    ///
    /// First the MAC header, fixed-width and in one piece —
    ///
    /// ```text
    /// tag | sealed | view u64 | counter u64 | field | body length u32
    /// ```
    ///
    /// (`SINGLE_`/`BATCH_`/`TXN_MAC_HEADER_LEN` bytes) — then `body` as it
    /// travels (ciphertext when sealed), then `commitment`, the sealing
    /// cipher's [`KeyCommitment`], `Some` exactly for a sealed frame: it sets
    /// the flag byte, so a receiver holding the channel key but another
    /// cipher key computes another MAC. With the lengths in front, a short
    /// body shares the header's SHA-256 block.
    ///
    /// # Panics
    /// Panics on a body of 4 GiB or more, which no frame can carry
    /// ([`Writer::count`]).
    pub(crate) fn write_authenticated_parts(
        self,
        put: &mut impl FnMut(&[u8]),
        tuple: &SequenceTuple,
        body: &[u8],
        commitment: Option<&KeyCommitment>,
    ) {
        assert!(
            u32::try_from(body.len()).is_ok(),
            "frame body of {} bytes exceeds u32::MAX",
            body.len()
        );
        let body_len = body.len() as u32;
        let mut header = [0u8; TXN_MAC_HEADER_LEN];
        header[0] = self.tag();
        header[1] = u8::from(commitment.is_some());
        header[2..10].copy_from_slice(&tuple.view.to_le_bytes());
        header[10..MAC_HEADER_FIXED_LEN].copy_from_slice(&tuple.counter.to_le_bytes());
        let field = &mut header[MAC_HEADER_FIXED_LEN..];
        match self {
            Family::Single { kind } => field[..2].copy_from_slice(&kind.to_le_bytes()),
            Family::Batch { count } => field[..4].copy_from_slice(&count.to_le_bytes()),
            Family::Txn { txn_id } => field[..8].copy_from_slice(&txn_id.to_le_bytes()),
        }
        let header_len = self.mac_header_len();
        header[header_len - 4..header_len].copy_from_slice(&body_len.to_le_bytes());
        put(&header[..header_len]);
        put(body);
        if let Some(commitment) = commitment {
            put(commitment);
        }
    }

    /// Lays a frame out in its wire buffer, `write_body` appending exactly
    /// `body_len` body bytes behind the header — a body a frame struct
    /// already holds, or one encoded straight into place. The buffer is
    /// `spare`, emptied first, and grown only if it lacks the room (a spare
    /// from a [`crate::FramePool`] never does; an empty `Vec` grows once, to
    /// the frame's length). The MAC slot is left empty: the sender seals and
    /// MACs the body where it now lies and [`WireImage::finish`] fills the
    /// slot in.
    pub(crate) fn image(
        self,
        tuple: &SequenceTuple,
        sealed: bool,
        body_len: usize,
        spare: Vec<u8>,
        write_body: impl FnOnce(&mut Writer),
    ) -> WireImage {
        let wire_len = self.wire_len(body_len);
        let mut w = Writer::reusing(spare, wire_len);
        w.u8(self.tag());
        w.bool(sealed).raw(&tuple.to_bytes()).raw(&[0; DIGEST_LEN]);
        self.write_field(&mut w);
        w.count(body_len);
        write_body(&mut w);
        let buf = w.finish();
        assert_eq!(buf.len(), wire_len, "frame body is not the length given");
        WireImage {
            buf,
            body_at: wire_len - body_len,
        }
    }
}

/// A shielded frame in its wire buffer, complete but for the MAC tag.
pub(crate) struct WireImage {
    buf: Vec<u8>,
    body_at: usize,
}

impl WireImage {
    /// The body bytes, to seal and MAC in place.
    pub(crate) fn body_mut(&mut self) -> &mut [u8] {
        &mut self.buf[self.body_at..]
    }

    /// The wire bytes, with `mac` in its slot.
    pub(crate) fn finish(mut self, mac: &MacTag) -> Vec<u8> {
        self.buf[MAC_AT..MAC_AT + DIGEST_LEN].copy_from_slice(mac.as_bytes());
        self.buf
    }
}

/// Where a [`FrameView`]'s body lies, and what the authentication layer may
/// do with it.
pub(crate) enum Body<'a> {
    /// Received bytes it may only read: a sealed body is copied to be
    /// decrypted.
    Shared(&'a [u8]),
    /// Received bytes lent exclusively ([`FrameView::parse_mut`]): an
    /// admitted sealed body is decrypted where it lies.
    Lent(&'a mut [u8]),
    /// A buffer of the frame's own — a frame struct's, or a parked frame's.
    Owned(Vec<u8>),
}

impl Body<'_> {
    /// The body's bytes as they arrived (ciphertext when sealed).
    pub(crate) fn as_slice(&self) -> &[u8] {
        match self {
            Body::Shared(bytes) => bytes,
            Body::Lent(bytes) => bytes,
            Body::Owned(bytes) => bytes,
        }
    }

    /// The body in a buffer of its own: moved when it has one, copied when
    /// it lies in received bytes.
    pub(crate) fn into_vec(self) -> Vec<u8> {
        match self {
            Body::Owned(bytes) => bytes,
            body => body.as_slice().to_vec(),
        }
    }
}

/// A shielded frame as the authentication layer checks it: the header fields
/// by value and the body where it lies — a slice of the wire bytes when read
/// by [`FrameView::parse`] or [`FrameView::parse_mut`], which
/// [`crate::AuthLayer::verify_view`] checks without copying anything, or the
/// body a frame struct or the protected buffer owns. The owning frame structs
/// are this with the body copied out.
pub struct FrameView<'a> {
    pub(crate) tuple: SequenceTuple,
    pub(crate) sealed: bool,
    pub(crate) mac: MacTag,
    pub(crate) family: Family,
    pub(crate) body: Body<'a>,
}

impl<'a> FrameView<'a> {
    /// Reads a frame of the family `tag` names, whole: `None` on another
    /// tag, a truncated frame or trailing bytes.
    fn read(bytes: &'a [u8], tag: u8) -> Option<FrameView<'a>> {
        let mut r = Reader::tagged(bytes, tag)?;
        let sealed = r.bool()?;
        let tuple = SequenceTuple::read(&mut r)?;
        let mac = MacTag::from_bytes(r.array()?);
        let family = match tag {
            tag::SINGLE => Family::Single { kind: r.u16()? },
            tag::BATCH => Family::Batch { count: r.u32()? },
            tag::TXN => Family::Txn { txn_id: r.u64()? },
            _ => return None,
        };
        let body = Body::Shared(r.bytes()?);
        r.finish()?;
        Some(FrameView {
            tuple,
            sealed,
            mac,
            family,
            body,
        })
    }

    /// The frame with its body owned, to outlive the bytes it was read from.
    pub(crate) fn into_owned(self) -> FrameView<'static> {
        FrameView {
            tuple: self.tuple,
            sealed: self.sealed,
            mac: self.mac,
            family: self.family,
            body: Body::Owned(self.body.into_vec()),
        }
    }

    /// Reads a replication frame — a [`ShieldedMessage`] or a
    /// [`BatchFrame`], told apart by the family tag — from wire bytes.
    pub fn parse(bytes: &'a [u8]) -> Option<FrameView<'a>> {
        match *bytes.first()? {
            tag @ (tag::SINGLE | tag::BATCH) => Self::read(bytes, tag),
            _ => None,
        }
    }

    /// [`FrameView::parse`] over bytes lent exclusively: once the frame is
    /// admitted in order, a sealed body is decrypted in them and its
    /// payloads are delivered as slices of them. Until then nothing writes
    /// to them — a frame that is rejected, or parked ahead of its turn,
    /// leaves them as they came.
    pub fn parse_mut(bytes: &'a mut [u8]) -> Option<FrameView<'a>> {
        let FrameView {
            tuple,
            sealed,
            mac,
            family,
            body,
        } = FrameView::parse(bytes)?;
        // The body is the frame's last bytes.
        let body_at = bytes.len() - body.as_slice().len();
        Some(FrameView {
            tuple,
            sealed,
            mac,
            family,
            body: Body::Lent(&mut bytes[body_at..]),
        })
    }

    /// Reads a [`TxnFrame`] from wire bytes, for
    /// [`crate::AuthLayer::open_txn_view`]: what [`TxnFrame::from_wire`]
    /// reads, with the body left where it lies.
    pub fn parse_txn(bytes: &'a [u8]) -> Option<FrameView<'a>> {
        Self::read(bytes, tag::TXN)
    }

    /// The frame with a sealed body it shares with its sender copied into a
    /// spare from `frames` — left in `spare`, for the caller to give back —
    /// and lent to it there: admitted, the body is decrypted in the copy, and
    /// the received bytes are only read. A plaintext frame, or one whose
    /// body is its own or lent already, comes back as it was.
    pub(crate) fn lend_sealed_body(
        self,
        frames: &mut FramePool,
        spare: &'a mut Option<Vec<u8>>,
    ) -> FrameView<'a> {
        let body = match self.body {
            Body::Shared(bytes) if self.sealed => {
                let copy = spare.insert(frames.take(bytes.len()));
                copy.extend_from_slice(bytes);
                Body::Lent(copy)
            }
            body => body,
        };
        FrameView { body, ..self }
    }

    /// The node the frame says it comes from (unverified until the MAC is).
    pub fn source(&self) -> NodeId {
        self.tuple.channel.src
    }
}

impl fmt::Debug for SequenceTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(v{}, {:?}, #{})", self.view, self.channel, self.counter)
    }
}

/// A replica-to-replica message shielded by Recipe's authentication layer:
/// `[h_σ_cq, (metadata, req_data)]` in the paper's notation.
#[derive(Clone, PartialEq, Eq)]
pub struct ShieldedMessage {
    /// Sequence tuple (view, channel, counter).
    pub tuple: SequenceTuple,
    /// Protocol-defined message kind, carried under the MAC so the network
    /// cannot remap it.
    pub kind: u16,
    /// The protocol payload (serialized protocol message; ciphertext in
    /// confidential mode).
    pub payload: Vec<u8>,
    /// Whether `payload` is encrypted.
    pub confidential: bool,
    /// MAC over payload, kind and tuple under the channel key.
    pub mac: MacTag,
}

impl ShieldedMessage {
    pub(crate) fn family(&self) -> Family {
        Family::Single { kind: self.kind }
    }

    /// The message as the authentication layer checks it, the payload
    /// moved in.
    pub(crate) fn into_view(self) -> FrameView<'static> {
        FrameView {
            tuple: self.tuple,
            sealed: self.confidential,
            mac: self.mac,
            family: self.family(),
            body: Body::Owned(self.payload),
        }
    }

    /// Serializes the message for the wire:
    /// `tag | confidential | tuple | mac | kind u16 | payload`.
    pub fn to_wire(&self) -> Vec<u8> {
        let (sealed, payload) = (self.confidential, &self.payload);
        self.family()
            .image(&self.tuple, sealed, payload.len(), Vec::new(), |w| {
                w.raw(payload);
            })
            .finish(&self.mac)
    }

    /// Parses a message from wire bytes.
    pub fn from_wire(bytes: &[u8]) -> Option<ShieldedMessage> {
        let view = FrameView::read(bytes, tag::SINGLE)?;
        let Family::Single { kind } = view.family else {
            return None;
        };
        Some(ShieldedMessage {
            tuple: view.tuple,
            kind,
            payload: view.body.into_vec(),
            confidential: view.sealed,
            mac: view.mac,
        })
    }

    /// Size on the wire (drives the network cost model).
    pub fn wire_len(&self) -> usize {
        self.family().wire_len(self.payload.len())
    }

    /// Size on the wire of a message with a `payload_len`-byte payload,
    /// sealed or not.
    pub fn frame_len(payload_len: usize) -> usize {
        Family::Single { kind: 0 }.wire_len(payload_len)
    }
}

impl fmt::Debug for ShieldedMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ShieldedMessage({:?}, kind={}, {}B{})",
            self.tuple,
            self.kind,
            self.payload.len(),
            if self.confidential { ", conf" } else { "" }
        )
    }
}

/// One protocol message carried inside a [`BatchFrame`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BatchOp {
    /// Protocol-defined message kind (same role as [`ShieldedMessage::kind`]).
    pub kind: u16,
    /// The serialized protocol message.
    pub payload: Vec<u8>,
}

impl BatchOp {
    /// Builds a batch op.
    pub fn new(kind: u16, payload: Vec<u8>) -> Self {
        BatchOp { kind, payload }
    }
}

/// Wire bytes of a [`BatchOp`] with an empty payload: `kind u16 | len u32`.
const BATCH_OP_MIN_LEN: usize = 2 + 4;

/// A replica-to-replica frame carrying N protocol messages under **one**
/// sequence tuple and **one** MAC (the amortized `shield_msg` of the batching
/// pipeline): the per-message fixed costs of Figure 6a — counter assignment,
/// MAC/AEAD setup, framing — are paid once per frame instead of once per op.
///
/// The frame consumes a single counter slot on its channel, so batches and
/// single messages interleave in one non-equivocation sequence. The ops ride
/// in a compact length-prefixed binary body (amortized framing is part of the
/// point — per-op envelope overhead is what batching removes), and confidential
/// mode encrypts that body in **one** keystream pass, in place: a sealed body
/// is as long as the plaintext one and the frame MAC is its authenticator.
#[derive(Clone, PartialEq, Eq)]
pub struct BatchFrame {
    /// Sequence tuple (view, channel, counter) — one slot for the whole frame.
    pub tuple: SequenceTuple,
    /// Number of ops in the body (authenticated, so the untrusted host cannot
    /// truncate or pad a frame without breaking the MAC).
    pub count: u32,
    /// Compact binary encoding of the ops ([`BatchFrame::encode_ops`]), or
    /// its ciphertext when `sealed`.
    pub body: Vec<u8>,
    /// Whether `body` is encrypted.
    pub sealed: bool,
    /// MAC over body, sealed flag, count and tuple (and, when sealed, the
    /// cipher's key commitment) under the channel key.
    pub mac: MacTag,
}

impl BatchFrame {
    pub(crate) fn family(&self) -> Family {
        Family::Batch { count: self.count }
    }

    /// The frame as the authentication layer checks it, the body moved in.
    pub(crate) fn into_view(self) -> FrameView<'static> {
        FrameView {
            tuple: self.tuple,
            sealed: self.sealed,
            mac: self.mac,
            family: self.family(),
            body: Body::Owned(self.body),
        }
    }

    /// Whether the frame's body is encrypted.
    pub fn is_confidential(&self) -> bool {
        self.sealed
    }

    /// Canonical binary encoding of a frame body (the plaintext that gets
    /// sealed in confidential mode): `count u32 | (kind u16, len u32, payload)*`,
    /// all little-endian.
    pub fn encode_ops(ops: &[BatchOp]) -> Vec<u8> {
        let mut w = Writer::with_capacity(Self::ops_len(ops));
        Self::write_ops(&mut w, ops);
        w.finish()
    }

    /// Bytes `BatchFrame::write_ops` produces for `ops`.
    pub fn ops_len(ops: &[BatchOp]) -> usize {
        let payloads = ops.iter().map(|op| op.payload.len()).sum();
        Self::body_len(ops.len(), payloads)
    }

    /// Bytes `BatchFrame::write_ops` produces for `ops` ops whose payloads
    /// total `payload_bytes`.
    pub const fn body_len(ops: usize, payload_bytes: usize) -> usize {
        4 + ops * BATCH_OP_MIN_LEN + payload_bytes
    }

    /// Size on the wire of a frame with a `body_len`-byte body, sealed or
    /// not.
    pub fn frame_len(body_len: usize) -> usize {
        Family::Batch { count: 0 }.wire_len(body_len)
    }

    /// Appends the body encoding of `ops` to `w` (what
    /// [`BatchFrame::encode_ops`] returns; native batch frames put it behind
    /// their own tag).
    pub(crate) fn write_ops(w: &mut Writer, ops: &[BatchOp]) {
        w.count(ops.len());
        for op in ops {
            w.u16(op.kind).bytes(&op.payload);
        }
    }

    /// The op count `body`, a body in `BatchFrame::write_ops`'s format,
    /// leads with: `0` for an empty one.
    pub fn op_count(body: &[u8]) -> u32 {
        Reader::new(body).u32().unwrap_or(0)
    }

    /// Appends one op to `body`, a body in `BatchFrame::write_ops`'s
    /// format, and counts it in the body's leading op count: an empty `body`
    /// becomes the body of a batch of one. Queuing ops this way builds the
    /// body a flush seals as it is, with one copy of each payload.
    ///
    /// # Panics
    /// Panics on a body of `u32::MAX` ops, or on a payload of 4 GiB or more
    /// ([`Writer::bytes`]).
    pub fn append_op(body: &mut Vec<u8>, kind: u16, payload: &[u8]) {
        let ops = Self::op_count(body);
        assert!(ops < u32::MAX, "a batch body counts its ops in a u32");
        let mut w = Writer::resuming(std::mem::take(body));
        if ops == 0 {
            w.u32(0);
        }
        w.u16(kind).bytes(payload);
        *body = w.finish();
        body[..4].copy_from_slice(&(ops + 1).to_le_bytes());
    }

    /// Reads a body encoding from `r`, leaving whatever follows it, each op
    /// made by `op` from its kind and its payload where it lies in the bytes
    /// `r` reads — a receiver that hands payloads on as slices copies
    /// nothing.
    pub fn read_ops_with<'a, T>(
        r: &mut Reader<'a>,
        mut op: impl FnMut(u16, &'a [u8]) -> T,
    ) -> Option<Vec<T>> {
        r.seq(BATCH_OP_MIN_LEN, |r| Some(op(r.u16()?, r.bytes()?)))
    }

    /// Decodes a whole frame body ([`BatchFrame::read_ops_with`], then
    /// nothing more). `None` on any malformed framing (truncation, trailing
    /// garbage, overlong lengths or counts).
    pub(crate) fn decode_ops_with<'a, T>(
        body: &'a [u8],
        op: impl FnMut(u16, &'a [u8]) -> T,
    ) -> Option<Vec<T>> {
        let mut r = Reader::new(body);
        let ops = Self::read_ops_with(&mut r, op)?;
        r.finish()?;
        Some(ops)
    }

    /// Decodes a frame body back into ops that own their payloads.
    pub fn decode_ops(body: &[u8]) -> Option<Vec<BatchOp>> {
        Self::decode_ops_with(body, |kind, payload| BatchOp::new(kind, payload.to_vec()))
    }

    /// Serializes the frame for the wire:
    /// `tag | sealed | tuple | mac | count u32 | body`.
    pub fn to_wire(&self) -> Vec<u8> {
        self.family()
            .image(&self.tuple, self.sealed, self.body.len(), Vec::new(), |w| {
                w.raw(&self.body);
            })
            .finish(&self.mac)
    }

    /// Parses a frame from wire bytes.
    pub fn from_wire(bytes: &[u8]) -> Option<BatchFrame> {
        let view = FrameView::read(bytes, tag::BATCH)?;
        let Family::Batch { count } = view.family else {
            return None;
        };
        Some(BatchFrame {
            tuple: view.tuple,
            count,
            body: view.body.into_vec(),
            sealed: view.sealed,
            mac: view.mac,
        })
    }

    /// Size on the wire (drives the network cost model).
    pub fn wire_len(&self) -> usize {
        self.family().wire_len(self.body.len())
    }
}

impl fmt::Debug for BatchFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BatchFrame({:?}, {} ops, {}B{})",
            self.tuple,
            self.count,
            self.body.len(),
            if self.is_confidential() { ", conf" } else { "" }
        )
    }
}

/// Operations clients can request through the PUT/GET API (paper §3.3).
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize, Debug)]
pub enum Operation {
    /// Store `value` under `key`.
    Put {
        /// Key to write.
        key: Vec<u8>,
        /// Value to write.
        value: Vec<u8>,
    },
    /// Read the value stored under `key`.
    Get {
        /// Key to read.
        key: Vec<u8>,
    },
}

impl Operation {
    /// Appends the wire encoding: `0 | key | value` for a put, `1 | key` for
    /// a get.
    pub(crate) fn write(&self, w: &mut Writer) {
        match self {
            Operation::Put { key, value } => w.u8(0).bytes(key).bytes(value),
            Operation::Get { key } => w.u8(1).bytes(key),
        };
    }

    /// Bytes [`Operation::write`] produces.
    pub(crate) fn wire_len(&self) -> usize {
        match self {
            Operation::Put { key, value } => 1 + bytes_len(key.len()) + bytes_len(value.len()),
            Operation::Get { key } => 1 + bytes_len(key.len()),
        }
    }

    /// Reads one operation where it lies: its key, and its value when it
    /// writes.
    fn read_ref<'a>(r: &mut Reader<'a>) -> Option<(&'a [u8], Option<&'a [u8]>)> {
        match r.u8()? {
            0 => {
                let key = r.bytes()?;
                Some((key, Some(r.bytes()?)))
            }
            1 => Some((r.bytes()?, None)),
            _ => None,
        }
    }

    /// Reads one operation.
    pub(crate) fn read(r: &mut Reader<'_>) -> Option<Operation> {
        Self::read_ref(r).map(Self::from_ref)
    }

    /// The operation [`Operation::read_ref`] read, copied out.
    fn from_ref((key, value): (&[u8], Option<&[u8]>)) -> Operation {
        match value {
            Some(value) => Operation::Put {
                key: key.to_vec(),
                value: value.to_vec(),
            },
            None => Operation::Get { key: key.to_vec() },
        }
    }

    /// True for writes.
    pub fn is_write(&self) -> bool {
        matches!(self, Operation::Put { .. })
    }

    /// The key the operation touches.
    pub fn key(&self) -> &[u8] {
        match self {
            Operation::Put { key, .. } | Operation::Get { key } => key,
        }
    }

    /// Payload size of the operation (value bytes for writes, 0 for reads).
    pub fn value_len(&self) -> usize {
        match self {
            Operation::Put { value, .. } => value.len(),
            Operation::Get { .. } => 0,
        }
    }
}

/// A typed client request: the single-key fast path or a multi-key atomic
/// transaction.
///
/// This is the client surface the sharded data store accepts (the
/// middleware's "uniform service request" interface): a
/// [`Request::Single`] compiles down to exactly the per-shard batched path a
/// bare [`Operation`] always took, while a [`Request::Txn`] may span replica
/// groups and commits (or aborts) atomically through two-phase commit carried
/// over the shield layer — see `recipe_shard`'s transaction coordinator.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize, Debug)]
pub enum Request {
    /// One single-key operation (the fast path; bit-identical to the
    /// pre-transaction API).
    Single(Operation),
    /// A multi-key atomic transaction: every operation commits or none does,
    /// even when the touched keys live on different shards.
    Txn(Vec<Operation>),
}

impl Request {
    /// The operations this request carries, in client order.
    pub fn ops(&self) -> &[Operation] {
        match self {
            Request::Single(op) => std::slice::from_ref(op),
            Request::Txn(ops) => ops,
        }
    }

    /// True for multi-operation transactions.
    pub fn is_txn(&self) -> bool {
        matches!(self, Request::Txn(_))
    }

    /// Number of operations carried.
    pub fn len(&self) -> usize {
        self.ops().len()
    }

    /// True when the request carries no operations (only possible for an
    /// empty [`Request::Txn`], which coordinators complete trivially).
    pub fn is_empty(&self) -> bool {
        self.ops().is_empty()
    }
}

impl From<Operation> for Request {
    fn from(op: Operation) -> Self {
        Request::Single(op)
    }
}

/// One two-phase-commit message, carried as the body of a [`TxnFrame`].
///
/// The coordinator sends `Prepare` / `Commit` / `Abort`; the participant
/// shard leader answers `Vote` / `Ack`. Every body travels MAC'd and
/// counter-stamped (and encrypted when any participant shard's policy is
/// confidential) — the untrusted infrastructure never observes or forges a
/// 2PC decision.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TxnBody {
    /// Coordinator → participant: lock the touched keys and stage the writes.
    Prepare {
        /// The sub-operations routed to this participant, in client order.
        ops: Vec<Operation>,
    },
    /// Participant → coordinator: the prepare outcome.
    Vote {
        /// True when every key was locked and every write staged.
        granted: bool,
        /// The first conflicting key when `granted` is false.
        conflict: Option<Vec<u8>>,
    },
    /// Coordinator → participant: apply the staged writes and release locks.
    Commit,
    /// Coordinator → participant: discard staged writes and release locks.
    Abort,
    /// Participant → coordinator: commit/abort executed.
    Ack {
        /// Writes applied by a commit (0 for aborts).
        applied: u32,
    },
}

/// A received [`TxnBody`], decoded where it lies ([`TxnBodyRef::decode`]):
/// a prepare's operations and a refusal's key are slices of the body bytes,
/// so opening a frame copies none of them. [`TxnFrame::decode_body`] is this
/// decode, copied out.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TxnBodyRef<'a> {
    /// [`TxnBody::Prepare`].
    Prepare(TxnOps<'a>),
    /// [`TxnBody::Vote`].
    Vote {
        /// True when every key was locked and every write staged.
        granted: bool,
        /// The first conflicting key when `granted` is false.
        conflict: Option<&'a [u8]>,
    },
    /// [`TxnBody::Commit`].
    Commit,
    /// [`TxnBody::Abort`].
    Abort,
    /// [`TxnBody::Ack`].
    Ack {
        /// Writes applied by a commit (0 for aborts).
        applied: u32,
    },
}

/// A received prepare's operations where they lie in its body: every one
/// was checked when the body was decoded, and they are read one by one.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TxnOps<'a> {
    count: usize,
    bytes: &'a [u8],
}

impl<'a> TxnOps<'a> {
    /// Number of operations.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True for a prepare that touches nothing.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The operations, in client order: each one's key, and its value when
    /// it writes.
    pub fn iter(&self) -> impl Iterator<Item = (&'a [u8], Option<&'a [u8]>)> {
        let mut r = Reader::new(self.bytes);
        std::iter::from_fn(move || Operation::read_ref(&mut r))
    }
}

impl<'a> TxnBodyRef<'a> {
    /// Decodes a frame body (`tag | variant | fields`) where it lies. `None`
    /// on malformed bytes: a truncated or unknown operation, an unknown
    /// variant, trailing bytes.
    pub fn decode(bytes: &'a [u8]) -> Option<TxnBodyRef<'a>> {
        let mut r = Reader::tagged(bytes, tag::TXN_BODY)?;
        let body = match r.u8()? {
            0 => {
                let count = usize::try_from(r.u32()?).ok()?;
                // The operations are the rest of the body (`finish` below
                // refuses anything after them); each is checked now, so
                // `TxnOps::iter` reads only well-formed ones.
                let bytes = r.remaining();
                for _ in 0..count {
                    Operation::read_ref(&mut r)?;
                }
                TxnBodyRef::Prepare(TxnOps { count, bytes })
            }
            1 => TxnBodyRef::Vote {
                granted: r.bool()?,
                conflict: r.opt_bytes()?,
            },
            2 => TxnBodyRef::Commit,
            3 => TxnBodyRef::Abort,
            4 => TxnBodyRef::Ack { applied: r.u32()? },
            _ => return None,
        };
        r.finish()?;
        Some(body)
    }

    /// The body copied out of the bytes it lies in.
    pub fn to_body(self) -> TxnBody {
        match self {
            TxnBodyRef::Prepare(ops) => TxnBody::Prepare {
                ops: ops.iter().map(Operation::from_ref).collect(),
            },
            TxnBodyRef::Vote { granted, conflict } => TxnBody::Vote {
                granted,
                conflict: conflict.map(<[u8]>::to_vec),
            },
            TxnBodyRef::Commit => TxnBody::Commit,
            TxnBodyRef::Abort => TxnBody::Abort,
            TxnBodyRef::Ack { applied } => TxnBody::Ack { applied },
        }
    }
}

/// Body bytes of a vote that names no conflicting key: `tag | variant |
/// granted | conflict present`.
const TXN_VOTE_LEN: usize = 2 + 1 + 1;

/// Body bytes of a commit or an abort: `tag | variant`.
const TXN_DECISION_LEN: usize = 2;

/// Body bytes of an acknowledgement: `tag | variant | applied u32`.
const TXN_ACK_LEN: usize = 2 + 4;

// Every 2PC frame but a prepare (and a refusal, which names a key) is a few
// fixed bytes, and its MAC is the two compressions an HMAC cannot go below,
// taken from one stack block (`FrameMac`) when it is plaintext. A
// field added to the MAC header or to one of these bodies that pushes the
// input into a second block stops the build here.
const _: () = assert!(mac_compressions(TXN_MAC_HEADER_LEN + TXN_VOTE_LEN) == 2);
const _: () = assert!(mac_compressions(TXN_MAC_HEADER_LEN + TXN_DECISION_LEN) == 2);
const _: () = assert!(mac_compressions(TXN_MAC_HEADER_LEN + TXN_ACK_LEN) == 2);

/// A shielded two-phase-commit frame between a transaction coordinator and a
/// participant shard leader: `body` is a serialized [`TxnBody`], authenticated
/// under the channel key together with the transaction id and the sequence
/// tuple; the family tag at the head of the MAC header keeps 2PC frames,
/// batch frames and single messages from ever being taken for one another.
#[derive(Clone, PartialEq, Eq)]
pub struct TxnFrame {
    /// Sequence tuple (view, channel, counter) — one slot per frame, so a
    /// replayed or reordered 2PC frame is rejected by the trusted counter.
    pub tuple: SequenceTuple,
    /// The transaction this frame belongs to (authenticated, so a frame can
    /// never be spliced into another transaction).
    pub txn_id: u64,
    /// Serialized [`TxnBody`] ([`TxnFrame::encode_body`]), or its ciphertext
    /// when `sealed`.
    pub body: Vec<u8>,
    /// Whether `body` is encrypted.
    pub sealed: bool,
    /// MAC over family tag, sealed flag, tuple, txn id and body (and, when
    /// sealed, the cipher's key commitment) under the channel key.
    pub mac: MacTag,
}

impl TxnFrame {
    pub(crate) fn family(&self) -> Family {
        Family::Txn {
            txn_id: self.txn_id,
        }
    }

    /// The frame as the authentication layer checks it, the body moved in.
    pub(crate) fn into_view(self) -> FrameView<'static> {
        FrameView {
            tuple: self.tuple,
            sealed: self.sealed,
            mac: self.mac,
            family: self.family(),
            body: Body::Owned(self.body),
        }
    }

    /// Whether the frame's body is encrypted.
    pub fn is_confidential(&self) -> bool {
        self.sealed
    }

    /// Serializes a body for framing: `tag | variant | fields`.
    pub fn encode_body(body: &TxnBody) -> Vec<u8> {
        let mut w = Writer::with_capacity(Self::body_len(body));
        Self::write_body(&mut w, body);
        w.finish()
    }

    /// Bytes [`TxnFrame::write_body`] produces for `body`.
    pub(crate) fn body_len(body: &TxnBody) -> usize {
        match body {
            TxnBody::Prepare { ops } => 2 + 4 + ops.iter().map(Operation::wire_len).sum::<usize>(),
            TxnBody::Vote { conflict, .. } => {
                TXN_VOTE_LEN + conflict.as_ref().map_or(0, |key| bytes_len(key.len()))
            }
            TxnBody::Commit | TxnBody::Abort => TXN_DECISION_LEN,
            TxnBody::Ack { .. } => TXN_ACK_LEN,
        }
    }

    /// Appends the body encoding to `w` (what [`TxnFrame::encode_body`]
    /// returns).
    pub(crate) fn write_body(w: &mut Writer, body: &TxnBody) {
        w.u8(tag::TXN_BODY);
        match body {
            TxnBody::Prepare { ops } => {
                w.u8(0).count(ops.len());
                for op in ops {
                    op.write(w);
                }
            }
            TxnBody::Vote { granted, conflict } => {
                w.u8(1).bool(*granted).opt_bytes(conflict.as_deref());
            }
            TxnBody::Commit => {
                w.u8(2);
            }
            TxnBody::Abort => {
                w.u8(3);
            }
            TxnBody::Ack { applied } => {
                w.u8(4).u32(*applied);
            }
        }
    }

    /// Decodes a frame body into a body of its own ([`TxnBodyRef::decode`],
    /// copied out). `None` on malformed bytes.
    pub fn decode_body(bytes: &[u8]) -> Option<TxnBody> {
        TxnBodyRef::decode(bytes).map(TxnBodyRef::to_body)
    }

    /// Serializes the frame for the wire:
    /// `tag | sealed | tuple | mac | txn_id u64 | body`.
    pub fn to_wire(&self) -> Vec<u8> {
        self.family()
            .image(&self.tuple, self.sealed, self.body.len(), Vec::new(), |w| {
                w.raw(&self.body);
            })
            .finish(&self.mac)
    }

    /// Parses a frame from wire bytes.
    pub fn from_wire(bytes: &[u8]) -> Option<TxnFrame> {
        let view = FrameView::read(bytes, tag::TXN)?;
        let Family::Txn { txn_id } = view.family else {
            return None;
        };
        Some(TxnFrame {
            tuple: view.tuple,
            txn_id,
            body: view.body.into_vec(),
            sealed: view.sealed,
            mac: view.mac,
        })
    }

    /// Size on the wire (drives the network cost model).
    pub fn wire_len(&self) -> usize {
        self.family().wire_len(self.body.len())
    }
}

impl fmt::Debug for TxnFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TxnFrame({:?}, txn {}, {}B{})",
            self.tuple,
            self.txn_id,
            self.body.len(),
            if self.is_confidential() { ", conf" } else { "" }
        )
    }
}

/// An attested client request `[h_c_σc, (metadata, req_data)]`.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize, Debug)]
pub struct ClientRequest {
    /// Issuing client.
    pub client_id: u64,
    /// Client-local sequence number (for exactly-once semantics via the client
    /// table).
    pub request_id: u64,
    /// The operation.
    pub operation: Operation,
    /// Signature by the client over `(client_id, request_id, operation)`.
    pub signature: Option<Signature>,
}

impl ClientRequest {
    /// Wire bytes of everything but the operation: two ids and the signature
    /// presence byte.
    const FIXED_LEN: usize = 8 + 8 + 1;

    /// Appends the request's fields (no family tag), for protocol messages
    /// that embed a request: `client_id | request_id | operation | signed |
    /// signature?`.
    pub fn write(&self, w: &mut Writer) {
        w.u64(self.client_id).u64(self.request_id);
        self.operation.write(w);
        w.bool(self.signature.is_some());
        if let Some(signature) = &self.signature {
            w.raw(signature.as_bytes());
        }
    }

    /// Bytes [`ClientRequest::write`] produces.
    pub fn wire_len(&self) -> usize {
        Self::FIXED_LEN
            + self.operation.wire_len()
            + self
                .signature
                .map_or(0, |_| recipe_crypto::sig::SIGNATURE_LEN)
    }

    /// Reads the fields written by [`ClientRequest::write`].
    pub fn read(r: &mut Reader<'_>) -> Option<ClientRequest> {
        let client_id = r.u64()?;
        let request_id = r.u64()?;
        let operation = Operation::read(r)?;
        let signature = if r.bool()? {
            Some(Signature::from_bytes(r.array()?))
        } else {
            None
        };
        Some(ClientRequest {
            client_id,
            request_id,
            operation,
            signature,
        })
    }

    /// Serializes the request on its own: the family tag, then
    /// [`ClientRequest::write`].
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::tagged(tag::CLIENT_REQUEST, 1 + self.wire_len());
        self.write(&mut w);
        w.finish()
    }

    /// Parses a request serialized by [`ClientRequest::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Option<ClientRequest> {
        let mut r = Reader::tagged(bytes, tag::CLIENT_REQUEST)?;
        let request = Self::read(&mut r)?;
        r.finish()?;
        Some(request)
    }
}

/// Reply returned to the client once its request committed.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize, Debug)]
pub struct ClientReply {
    /// The client the reply is addressed to.
    pub client_id: u64,
    /// The request being answered.
    pub request_id: u64,
    /// `Some(value)` for a GET that found its key, `None` for a GET that
    /// missed and for PUT acknowledgements. The first reply's value reaches
    /// its client (`recipe_shard::Client::done`); the reply is still
    /// classified by the operation that was issued.
    pub value: Option<Vec<u8>>,
    /// Whether a GET found the key.
    pub found: bool,
    /// Node that produced the reply (lets clients learn the current leader).
    pub replier: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use recipe_crypto::MacKey;
    use recipe_net::NodeId;

    fn tuple() -> SequenceTuple {
        SequenceTuple {
            view: 3,
            channel: ChannelId::new(NodeId(1), NodeId(2)),
            counter: 42,
        }
    }

    /// The MAC input of a frame, joined: the channel block, then the parts.
    fn mac_input(
        family: Family,
        body: &[u8],
        commitment: Option<&KeyCommitment>,
        tuple: &SequenceTuple,
    ) -> Vec<u8> {
        let mut input = channel_mac_block(tuple.channel).to_vec();
        family.write_authenticated_parts(
            &mut |bytes| input.extend_from_slice(bytes),
            tuple,
            body,
            commitment,
        );
        input
    }

    const SINGLE: Family = Family::Single { kind: 1 };
    const BATCH: Family = Family::Batch { count: 2 };
    const TXN: Family = Family::Txn { txn_id: 7 };

    #[test]
    fn sequence_tuple_encoding_is_injective_in_fields() {
        let base = tuple();
        let mut other = base;
        other.counter = 43;
        assert_ne!(base.to_bytes(), other.to_bytes());
        let mut other = base;
        other.view = 4;
        assert_ne!(base.to_bytes(), other.to_bytes());
        let mut other = base;
        other.channel = ChannelId::new(NodeId(2), NodeId(1));
        assert_ne!(base.to_bytes(), other.to_bytes());
        assert_eq!(format!("{base:?}"), "(v3, cq:1->2, #42)");
    }

    #[test]
    fn the_frame_nonce_is_source_destination_and_counter_in_whole_words() {
        let base = SequenceTuple {
            view: 3,
            channel: ChannelId::new(NodeId(0x0102_0304_0506_0708), NodeId(0x1112_1314_1516_1718)),
            counter: 0x2122_2324_2526_2728,
        };
        let mut expected = Vec::new();
        for word in [base.channel.src.0, base.channel.dst.0, base.counter] {
            expected.extend_from_slice(&word.to_le_bytes());
        }
        assert_eq!(base.nonce()[..], expected[..]);
        // Every bit of every word tells: nothing is truncated or folded.
        for bit in 0..64 {
            let mut other = base;
            other.channel.src.0 ^= 1 << bit;
            assert_ne!(base.nonce(), other.nonce(), "src bit {bit}");
            let mut other = base;
            other.channel.dst.0 ^= 1 << bit;
            assert_ne!(base.nonce(), other.nonce(), "dst bit {bit}");
            let mut other = base;
            other.counter ^= 1 << bit;
            assert_ne!(base.nonce(), other.nonce(), "counter bit {bit}");
        }
        // The view is not part of it: counters do not restart with a view.
        let mut other = base;
        other.view = 4;
        assert_eq!(base.nonce(), other.nonce());
    }

    #[test]
    fn shielded_message_wire_roundtrip() {
        let key = MacKey::from_bytes([1u8; 32]);
        let tuple = tuple();
        let mac = key.tag(&mac_input(
            Family::Single { kind: 7 },
            b"payload",
            None,
            &tuple,
        ));
        let msg = ShieldedMessage {
            tuple,
            kind: 7,
            payload: b"payload".to_vec(),
            confidential: false,
            mac,
        };
        let wire = msg.to_wire();
        assert_eq!(ShieldedMessage::from_wire(&wire).unwrap(), msg);
        assert_eq!(msg.wire_len(), wire.len());
        assert!(ShieldedMessage::from_wire(b"not a frame").is_none());
    }

    #[test]
    fn authenticated_parts_bind_every_field() {
        let t = tuple();
        let mut later = t;
        later.counter += 1;
        let commitment = [0xC0; 32];
        for family in [SINGLE, BATCH, TXN] {
            let a = mac_input(family, b"body", None, &t);
            assert_ne!(a, mac_input(family, b"ydob", None, &t));
            assert_ne!(a, mac_input(family, b"body", None, &later));
            // Sealed or not is bound, and so is which cipher key sealed it.
            let sealed = mac_input(family, b"body", Some(&commitment), &t);
            assert_ne!(a, sealed);
            assert_ne!(a[..], sealed[..a.len()]);
            assert_ne!(sealed, mac_input(family, b"body", Some(&[0xC1; 32]), &t));
            assert_ne!(sealed, mac_input(family, b"bodz", Some(&commitment), &t));
        }
        // Both ends of the channel, which ride in the block the key is bound to.
        for channel in [(9, 2), (1, 9), (2, 1)] {
            let mut elsewhere = t;
            elsewhere.channel = ChannelId::new(NodeId(channel.0), NodeId(channel.1));
            assert_ne!(
                mac_input(SINGLE, b"body", None, &t),
                mac_input(SINGLE, b"body", None, &elsewhere)
            );
        }
        // Each family's own field: message kind, op count (a truncated or
        // padded batch), transaction id (a frame spliced into another one).
        let a = mac_input(SINGLE, b"body", None, &t);
        assert_ne!(a, mac_input(Family::Single { kind: 2 }, b"body", None, &t));
        let a = mac_input(BATCH, b"body", None, &t);
        assert_ne!(a, mac_input(Family::Batch { count: 3 }, b"body", None, &t));
        let a = mac_input(TXN, b"body", None, &t);
        assert_ne!(a, mac_input(Family::Txn { txn_id: 8 }, b"body", None, &t));
    }

    #[test]
    fn the_families_mac_inputs_are_domain_separated() {
        let t = tuple();
        for commitment in [None, Some(&[0xC0; 32])] {
            let inputs = [SINGLE, BATCH, TXN].map(|f| mac_input(f, b"body", commitment, &t));
            assert_ne!(inputs[0], inputs[1]);
            assert_ne!(inputs[0], inputs[2]);
            assert_ne!(inputs[1], inputs[2]);
            // By the byte behind the channel block, whatever follows it.
            let tags = inputs.map(|input| input[MAC_BLOCK_LEN]);
            assert_eq!(tags, [tag::SINGLE, tag::BATCH, tag::TXN]);
        }
    }

    #[test]
    fn the_mac_input_is_the_channel_block_a_fixed_header_the_body_and_the_commitment() {
        let t = SequenceTuple {
            view: 0x0102_0304_0506_0708,
            channel: ChannelId::new(NodeId(0x1112_1314_1516_1718), NodeId(0x2122_2324_2526_2728)),
            counter: 0x3132_3334_3536_3738,
        };
        let mut block = [0u8; 64];
        block[..19].copy_from_slice(b"recipe.frame_mac.v2");
        block[48..56].copy_from_slice(&t.channel.src.0.to_le_bytes());
        block[56..].copy_from_slice(&t.channel.dst.0.to_le_bytes());
        assert_eq!(channel_mac_block(t.channel), block);

        let commitment = [0xC0; 32];
        let fields: [(Family, &[u8], usize); 3] = [
            (
                Family::Single { kind: 0x4142 },
                &[0x42, 0x41],
                SINGLE_MAC_HEADER_LEN,
            ),
            (
                Family::Batch { count: 0x4142_4344 },
                &[0x44, 0x43, 0x42, 0x41],
                BATCH_MAC_HEADER_LEN,
            ),
            (
                Family::Txn {
                    txn_id: 0x4142_4344_4546_4748,
                },
                &[0x48, 0x47, 0x46, 0x45, 0x44, 0x43, 0x42, 0x41],
                TXN_MAC_HEADER_LEN,
            ),
        ];
        for (family, field, header_len) in fields {
            for sealed in [false, true] {
                let mut expected = block.to_vec();
                expected.push(family.tag());
                expected.push(u8::from(sealed));
                expected.extend_from_slice(&t.view.to_le_bytes());
                expected.extend_from_slice(&t.counter.to_le_bytes());
                expected.extend_from_slice(field);
                expected.extend_from_slice(&5u32.to_le_bytes());
                assert_eq!(expected.len(), 64 + header_len);
                expected.extend_from_slice(b"hello");
                if sealed {
                    expected.extend_from_slice(&commitment);
                }
                let input = mac_input(family, b"hello", sealed.then_some(&commitment), &t);
                assert_eq!(input, expected);
                // One `update` for the header, one for the body, one for the
                // commitment: the MAC stream sees no smaller pieces.
                let mut pieces = 0;
                family.write_authenticated_parts(
                    &mut |_| pieces += 1,
                    &t,
                    b"hello",
                    sealed.then_some(&commitment),
                );
                assert_eq!(pieces, 2 + usize::from(sealed));
            }
        }
    }

    /// Both forms of the frame MAC, on both sides of the one-block edge: 54,
    /// 55 and 56 bytes of input for every plaintext family, and a sealed
    /// family's three shortest inputs, which its key commitment keeps at 56
    /// bytes or more. The form follows the length; the tag is the streamed
    /// one, and the plain HMAC of the whole input; a flipped tag bit is
    /// refused by either form.
    #[test]
    fn the_frame_mac_takes_one_block_exactly_when_the_input_fits_and_tags_as_a_stream_does() {
        let key = MacKey::from_bytes([5u8; 32]);
        let t = tuple();
        let bound = key.bind(&channel_mac_block(t.channel));
        let commitment = [0xC0; 32];
        for family in [SINGLE, BATCH, TXN] {
            for commitment in [None, Some(&commitment)] {
                let fixed = family.mac_header_len() + commitment.map_or(0, |c| c.len());
                let lens = match commitment {
                    None => [54, 55, 56],
                    Some(_) => [fixed, fixed + 1, fixed + 2],
                };
                for len in lens {
                    let body = vec![0x5A; len - fixed];
                    let mut stream = bound.stream();
                    family.write_authenticated_parts(
                        &mut |bytes| stream.update(bytes),
                        &t,
                        &body,
                        commitment,
                    );
                    let streamed = stream.tag();
                    assert_eq!(streamed, key.tag(&mac_input(family, &body, commitment, &t)));

                    let mac = family.frame_mac(&bound, &t, &body, commitment);
                    let one_block = mac.one_block(&mut [0; MAC_BLOCK_LEN]).is_some();
                    assert_eq!(one_block, len <= MAC_ONE_BLOCK_MAX, "{len} bytes");
                    assert_eq!(mac.tag(), streamed, "{len} bytes");
                    assert_eq!(mac.verify(&streamed), Ok(()));
                    let mut flipped = *streamed.as_bytes();
                    flipped[len % DIGEST_LEN] ^= 1 << (len % 8);
                    assert_eq!(
                        mac.verify(&MacTag::from_bytes(flipped)),
                        Err(CryptoError::MacMismatch),
                        "{len} bytes"
                    );
                }
            }
        }
    }

    #[test]
    fn fixed_size_txn_bodies_are_the_lengths_the_block_guard_uses() {
        let vote = TxnBody::Vote {
            granted: true,
            conflict: None,
        };
        assert_eq!(TxnFrame::encode_body(&vote).len(), TXN_VOTE_LEN);
        assert_eq!(
            TxnFrame::encode_body(&TxnBody::Commit).len(),
            TXN_DECISION_LEN
        );
        assert_eq!(
            TxnFrame::encode_body(&TxnBody::Abort).len(),
            TXN_DECISION_LEN
        );
        assert_eq!(
            TxnFrame::encode_body(&TxnBody::Ack { applied: 9 }).len(),
            TXN_ACK_LEN
        );
        // 55 bytes is the last input an inner hash pads within one block.
        assert_eq!([0, 55, 56, 119, 120].map(mac_compressions), [2, 2, 3, 3, 4]);
    }

    #[test]
    fn batch_frame_wire_roundtrip_and_mac_domain_separation() {
        let key = MacKey::from_bytes([1u8; 32]);
        let tuple = tuple();
        let ops = vec![
            BatchOp::new(1, b"a".to_vec()),
            BatchOp::new(2, b"bb".to_vec()),
        ];
        let body = BatchFrame::encode_ops(&ops);
        assert_eq!(BatchFrame::decode_ops(&body).unwrap(), ops);
        let frame = BatchFrame {
            tuple,
            count: 2,
            body: body.clone(),
            sealed: false,
            mac: key.tag(&mac_input(BATCH, &body, None, &tuple)),
        };
        assert!(!frame.is_confidential());
        let wire = frame.to_wire();
        assert_eq!(BatchFrame::from_wire(&wire).unwrap(), frame);
        assert_eq!(frame.wire_len(), wire.len());
        // A batch wire never parses as a single message (distinct family
        // tags), so the shield dispatches on the first byte.
        assert!(ShieldedMessage::from_wire(&wire).is_none());
        assert!(BatchFrame::from_wire(b"not a frame").is_none());
        // Ops encoded straight into the wire buffer are the same bytes.
        let body_len = BatchFrame::ops_len(&ops);
        let image = BATCH.image(&tuple, false, body_len, Vec::new(), |w| {
            BatchFrame::write_ops(w, &ops);
        });
        assert_eq!(image.finish(&frame.mac), wire);
        // So are ops appended to a queued body one by one.
        let mut appended = Vec::new();
        for op in &ops {
            BatchFrame::append_op(&mut appended, op.kind, &op.payload);
        }
        assert_eq!(appended, BatchFrame::encode_ops(&ops));
        assert_eq!(BatchFrame::op_count(&appended), 2);
        assert_eq!(BatchFrame::op_count(&[]), 0);
    }

    #[test]
    fn batch_body_encoding_rejects_malformed_framing() {
        let ops = vec![BatchOp::new(9, vec![1, 2, 3]), BatchOp::new(0, Vec::new())];
        let body = BatchFrame::encode_ops(&ops);
        assert_eq!(BatchFrame::decode_ops(&body).unwrap(), ops);
        // Truncation, trailing garbage and inflated counts all fail.
        assert!(BatchFrame::decode_ops(&body[..body.len() - 1]).is_none());
        let mut padded = body.clone();
        padded.push(0);
        assert!(BatchFrame::decode_ops(&padded).is_none());
        let mut inflated = body.clone();
        inflated[0] = 200;
        assert!(BatchFrame::decode_ops(&inflated).is_none());
        assert_eq!(BatchFrame::decode_ops(&[]), None);
        assert_eq!(
            BatchFrame::decode_ops(&0u32.to_le_bytes()),
            Some(Vec::new())
        );
    }

    #[test]
    fn operation_accessors() {
        let put = Operation::Put {
            key: b"k".to_vec(),
            value: vec![0u8; 10],
        };
        let get = Operation::Get { key: b"k".to_vec() };
        assert!(put.is_write());
        assert!(!get.is_write());
        assert_eq!(put.key(), b"k");
        assert_eq!(put.value_len(), 10);
        assert_eq!(get.value_len(), 0);
    }

    #[test]
    fn request_accessors_cover_both_variants() {
        let single = Request::Single(Operation::Get { key: b"k".to_vec() });
        assert!(!single.is_txn());
        assert_eq!(single.len(), 1);
        assert_eq!(single.ops()[0].key(), b"k");
        let txn = Request::Txn(vec![
            Operation::Put {
                key: b"a".to_vec(),
                value: b"1".to_vec(),
            },
            Operation::Get { key: b"b".to_vec() },
        ]);
        assert!(txn.is_txn());
        assert_eq!(txn.len(), 2);
        assert!(!txn.is_empty());
        assert!(Request::Txn(Vec::new()).is_empty());
        let from: Request = Operation::Get { key: b"k".to_vec() }.into();
        assert_eq!(from, single);
    }

    #[test]
    fn txn_frame_wire_roundtrip_and_mac_domain_separation() {
        let key = MacKey::from_bytes([1u8; 32]);
        let tuple = tuple();
        let prepare = TxnBody::Prepare {
            ops: vec![Operation::Put {
                key: b"k".to_vec(),
                value: b"v".to_vec(),
            }],
        };
        let body = TxnFrame::encode_body(&prepare);
        assert_eq!(TxnFrame::decode_body(&body), Some(prepare.clone()));
        let frame = TxnFrame {
            tuple,
            txn_id: 7,
            body: body.clone(),
            sealed: false,
            mac: key.tag(&mac_input(TXN, &body, None, &tuple)),
        };
        assert!(!frame.is_confidential());
        let wire = frame.to_wire();
        assert_eq!(TxnFrame::from_wire(&wire).unwrap(), frame);
        assert_eq!(frame.wire_len(), wire.len());
        // A txn frame never parses as a single message or batch frame
        // (distinct family tags).
        assert!(ShieldedMessage::from_wire(&wire).is_none());
        assert!(BatchFrame::from_wire(&wire).is_none());
        assert!(TxnFrame::from_wire(b"not a frame").is_none());
        // A body encoded straight into the wire buffer is the same bytes,
        // for every variant: the length is worked out before it is written.
        let in_place = |body: &TxnBody| {
            TXN.image(&tuple, false, TxnFrame::body_len(body), Vec::new(), |w| {
                TxnFrame::write_body(w, body);
            })
            .finish(&frame.mac)
        };
        assert_eq!(in_place(&prepare), wire);
        for body in [
            TxnBody::Prepare { ops: Vec::new() },
            TxnBody::Vote {
                granted: true,
                conflict: None,
            },
            TxnBody::Vote {
                granted: false,
                conflict: Some(b"key".to_vec()),
            },
            TxnBody::Commit,
            TxnBody::Abort,
            TxnBody::Ack { applied: 3 },
        ] {
            let by_struct = TxnFrame {
                body: TxnFrame::encode_body(&body),
                ..frame.clone()
            };
            assert_eq!(in_place(&body), by_struct.to_wire());
        }
    }

    #[test]
    fn a_body_decoded_where_it_lies_agrees_with_the_owned_decode() {
        let put = |key: &[u8], value: &[u8]| Operation::Put {
            key: key.to_vec(),
            value: value.to_vec(),
        };
        let get = |key: &[u8]| Operation::Get { key: key.to_vec() };
        for body in [
            TxnBody::Prepare {
                ops: vec![put(b"a", b"1"), get(b"b"), put(b"a", b""), put(b"", b"2")],
            },
            TxnBody::Prepare { ops: Vec::new() },
            TxnBody::Vote {
                granted: true,
                conflict: None,
            },
            TxnBody::Vote {
                granted: false,
                conflict: Some(b"key".to_vec()),
            },
            TxnBody::Commit,
            TxnBody::Abort,
            TxnBody::Ack { applied: 3 },
        ] {
            let bytes = TxnFrame::encode_body(&body);
            let lent = TxnBodyRef::decode(&bytes).expect("an encoded body decodes");
            assert_eq!(lent.to_body(), body);
            assert_eq!(TxnFrame::decode_body(&bytes), Some(body.clone()));
            if let (TxnBodyRef::Prepare(ops), TxnBody::Prepare { ops: owned }) = (lent, &body) {
                assert_eq!((ops.len(), ops.is_empty()), (owned.len(), owned.is_empty()));
                let expected: Vec<_> = owned
                    .iter()
                    .map(|op| match op {
                        Operation::Put { key, value } => (&key[..], Some(&value[..])),
                        Operation::Get { key } => (&key[..], None),
                    })
                    .collect();
                assert_eq!(ops.iter().collect::<Vec<_>>(), expected);
                // Every key is a slice of the body bytes: nothing was copied.
                let within = bytes.as_ptr_range();
                assert!(ops
                    .iter()
                    .all(|(key, _)| within.contains(&key.as_ptr()) || key.is_empty()));
            }
        }

        // Both refuse the same malformed bodies.
        let prepare = TxnFrame::encode_body(&TxnBody::Prepare {
            ops: vec![put(b"k", b"v"), get(b"g")],
        });
        let with = |at: usize, byte: u8| {
            let mut bytes = prepare.clone();
            bytes[at] = byte;
            bytes
        };
        let commit = TxnFrame::encode_body(&TxnBody::Commit);
        for (case, bytes) in [
            (
                "a truncated operation",
                prepare[..prepare.len() - 1].to_vec(),
            ),
            ("an operation too many claimed", with(2, 3)),
            ("an operation too few claimed", with(2, 1)),
            ("an unknown operation variant", with(6, 2)),
            ("an unknown body variant", with(1, 9)),
            ("another family's tag", with(0, tag::RAFT)),
            (
                "trailing bytes after the operations",
                [&prepare[..], &[0]].concat(),
            ),
            (
                "trailing bytes after a decision",
                [&commit[..], &[0]].concat(),
            ),
            ("nothing at all", Vec::new()),
        ] {
            assert_eq!(TxnBodyRef::decode(&bytes), None, "{case}");
            assert_eq!(TxnFrame::decode_body(&bytes), None, "{case}");
        }
    }

    #[test]
    fn client_request_roundtrip() {
        let req = ClientRequest {
            client_id: 9,
            request_id: 4,
            operation: Operation::Get { key: b"x".to_vec() },
            signature: None,
        };
        let bytes = req.to_bytes();
        assert_eq!(ClientRequest::from_bytes(&bytes).unwrap(), req);
        assert!(ClientRequest::from_bytes(b"garbage").is_none());
    }
}
