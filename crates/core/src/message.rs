//! Message formats: client requests, shielded replica-to-replica messages and the
//! sequence tuples that make equivocation detectable.

use recipe_crypto::{Ciphertext, MacTag, Nonce, Signature};
use recipe_net::{ChannelId, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;

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
    /// Length of [`SequenceTuple::to_bytes`].
    pub const LEN: usize = 32;

    /// Canonical byte encoding: folded into the MAC and written on the wire
    /// (`view | src | dst | counter`, little-endian `u64`s).
    pub fn to_bytes(&self) -> [u8; Self::LEN] {
        let mut bytes = [0u8; Self::LEN];
        bytes[..8].copy_from_slice(&self.view.to_le_bytes());
        bytes[8..16].copy_from_slice(&self.channel.src.0.to_le_bytes());
        bytes[16..24].copy_from_slice(&self.channel.dst.0.to_le_bytes());
        bytes[24..].copy_from_slice(&self.counter.to_le_bytes());
        bytes
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

/// Bytes of the header every shielded frame family shares after its tag:
/// flags byte, sequence tuple, MAC tag.
const SHIELD_HEADER_LEN: usize = 1 + 1 + SequenceTuple::LEN + recipe_crypto::DIGEST_LEN;

/// Bytes [`write_ciphertext`] produces for `ct`.
fn ciphertext_len(ct: &Ciphertext) -> usize {
    bytes_len(ct.wire_len())
}

/// Writes a ciphertext as `nonce | tag | len u32 | bytes`.
fn write_ciphertext(w: &mut Writer, ct: &Ciphertext) {
    w.raw(ct.nonce.as_bytes()).raw(&ct.tag).bytes(&ct.bytes);
}

/// Reads a ciphertext written by [`write_ciphertext`].
fn read_ciphertext(r: &mut Reader<'_>) -> Option<Ciphertext> {
    Some(Ciphertext {
        nonce: Nonce::from_bytes(r.array()?),
        tag: r.array()?,
        bytes: r.bytes()?.to_vec(),
    })
}

/// A ciphertext on its own: the payload of a confidential
/// [`ShieldedMessage`].
pub(crate) fn encode_ciphertext(ct: &Ciphertext) -> Vec<u8> {
    let mut w = Writer::with_capacity(ciphertext_len(ct));
    write_ciphertext(&mut w, ct);
    w.finish()
}

/// Parses a payload written by [`encode_ciphertext`].
pub(crate) fn decode_ciphertext(bytes: &[u8]) -> Option<Ciphertext> {
    let mut r = Reader::new(bytes);
    let ct = read_ciphertext(&mut r)?;
    r.finish()?;
    Some(ct)
}

/// Writes the body of a batch or 2PC frame: the sealed ciphertext when there
/// is one (a sealed frame carries no plaintext body), the plaintext otherwise.
/// The frame's flags byte says which.
fn write_body(w: &mut Writer, body: &[u8], sealed: Option<&Ciphertext>) {
    match sealed {
        Some(ct) => write_ciphertext(w, ct),
        None => {
            w.bytes(body);
        }
    }
}

fn body_len(body: &[u8], sealed: Option<&Ciphertext>) -> usize {
    sealed.map_or(bytes_len(body.len()), ciphertext_len)
}

fn read_body(r: &mut Reader<'_>, sealed: bool) -> Option<(Vec<u8>, Option<Ciphertext>)> {
    if sealed {
        Some((Vec::new(), Some(read_ciphertext(r)?)))
    } else {
        Some((r.bytes()?.to_vec(), None))
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
    /// Protocol-defined request kind (mirrors `recipe_net::ReqType` but carried in
    /// the authenticated body so it cannot be remapped by the network).
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
    /// The bytes covered by the MAC (payload, kind, confidentiality flag, tuple).
    pub fn authenticated_parts<'a>(
        payload: &'a [u8],
        kind: u16,
        confidential: bool,
        tuple_bytes: &'a [u8],
    ) -> [Vec<u8>; 1] {
        // Assembled into a single length-prefixed buffer to keep the MAC interface
        // simple across call sites.
        let mut buf = Vec::with_capacity(payload.len() + tuple_bytes.len() + 8);
        Self::write_authenticated_parts(
            &mut |bytes| buf.extend_from_slice(bytes),
            payload,
            kind,
            confidential,
            tuple_bytes,
        );
        [buf]
    }

    /// Hands the MAC-covered bytes to `put`, piece by piece and in order. The
    /// authentication layer points `put` at a running MAC, so the payload is
    /// authenticated where it lies; what the MAC covers is the concatenation.
    pub fn write_authenticated_parts(
        put: &mut impl FnMut(&[u8]),
        payload: &[u8],
        kind: u16,
        confidential: bool,
        tuple_bytes: &[u8],
    ) {
        put(&(payload.len() as u64).to_le_bytes());
        put(payload);
        put(&kind.to_le_bytes());
        put(&[u8::from(confidential)]);
        put(tuple_bytes);
    }

    /// Serializes the message for the wire:
    /// `tag | confidential | tuple | mac | kind u16 | payload`.
    pub fn to_wire(&self) -> Vec<u8> {
        Self::wire_from_parts(
            &self.tuple,
            self.kind,
            &self.payload,
            self.confidential,
            &self.mac,
        )
    }

    /// The wire bytes of the message these fields make up, written straight
    /// from them: a sender that only needs the bytes copies the payload once,
    /// into the frame.
    pub fn wire_from_parts(
        tuple: &SequenceTuple,
        kind: u16,
        payload: &[u8],
        confidential: bool,
        mac: &MacTag,
    ) -> Vec<u8> {
        let mut w = Writer::tagged(tag::SINGLE, Self::wire_len_of(payload.len()));
        w.bool(confidential)
            .raw(&tuple.to_bytes())
            .raw(mac.as_bytes())
            .u16(kind)
            .bytes(payload);
        w.finish()
    }

    /// Parses a message from wire bytes.
    pub fn from_wire(bytes: &[u8]) -> Option<ShieldedMessage> {
        let mut r = Reader::tagged(bytes, tag::SINGLE)?;
        let confidential = r.bool()?;
        let tuple = SequenceTuple::read(&mut r)?;
        let mac = MacTag::from_bytes(r.array()?);
        let kind = r.u16()?;
        let payload = r.bytes()?.to_vec();
        r.finish()?;
        Some(ShieldedMessage {
            tuple,
            kind,
            payload,
            confidential,
            mac,
        })
    }

    /// Size on the wire (drives the network cost model).
    pub fn wire_len(&self) -> usize {
        Self::wire_len_of(self.payload.len())
    }

    fn wire_len_of(payload_len: usize) -> usize {
        SHIELD_HEADER_LEN + 2 + bytes_len(payload_len)
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

/// Domain-separation prefix folded into every batch-frame MAC so a batch
/// authenticator can never be replayed as (or confused with) a single-message
/// authenticator. A single message's MAC input starts with its payload length
/// as a little-endian `u64`; this ASCII prefix decodes to an impossible length.
const BATCH_MAC_DOMAIN: &[u8] = b"recipe.batch.v1";

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
/// mode seals that body with **one** AEAD pass, carried as a typed
/// [`Ciphertext`] rather than re-serialized bytes.
#[derive(Clone, PartialEq, Eq)]
pub struct BatchFrame {
    /// Sequence tuple (view, channel, counter) — one slot for the whole frame.
    pub tuple: SequenceTuple,
    /// Number of ops in the body (authenticated, so the untrusted host cannot
    /// truncate or pad a frame without breaking the MAC).
    pub count: u32,
    /// Compact binary encoding of the ops ([`BatchFrame::encode_ops`]); empty
    /// in confidential mode.
    pub body: Vec<u8>,
    /// The sealed body in confidential mode (`None` in plaintext mode).
    pub sealed: Option<Ciphertext>,
    /// MAC over body/ciphertext, count and tuple under the channel key.
    pub mac: MacTag,
}

impl BatchFrame {
    /// Whether the frame's body is encrypted.
    pub fn is_confidential(&self) -> bool {
        self.sealed.is_some()
    }

    /// Canonical binary encoding of a frame body (the plaintext that gets
    /// sealed in confidential mode): `count u32 | (kind u16, len u32, payload)*`,
    /// all little-endian.
    pub fn encode_ops(ops: &[BatchOp]) -> Vec<u8> {
        let mut w = Writer::with_capacity(Self::ops_len(ops));
        Self::write_ops(&mut w, ops);
        w.finish()
    }

    /// Bytes [`BatchFrame::write_ops`] produces for `ops`.
    pub fn ops_len(ops: &[BatchOp]) -> usize {
        4 + ops
            .iter()
            .map(|op| BATCH_OP_MIN_LEN + op.payload.len())
            .sum::<usize>()
    }

    /// Appends the body encoding of `ops` to `w` (what
    /// [`BatchFrame::encode_ops`] returns; native batch frames put it behind
    /// their own tag).
    pub fn write_ops(w: &mut Writer, ops: &[BatchOp]) {
        w.count(ops.len());
        for op in ops {
            w.u16(op.kind).bytes(&op.payload);
        }
    }

    /// Reads a body encoding from `r`, leaving whatever follows it.
    pub fn read_ops(r: &mut Reader<'_>) -> Option<Vec<BatchOp>> {
        r.seq(BATCH_OP_MIN_LEN, |r| {
            Some(BatchOp {
                kind: r.u16()?,
                payload: r.bytes()?.to_vec(),
            })
        })
    }

    /// Decodes a frame body back into ops. `None` on any malformed framing
    /// (truncation, trailing garbage, overlong lengths or counts).
    pub fn decode_ops(body: &[u8]) -> Option<Vec<BatchOp>> {
        let mut r = Reader::new(body);
        let ops = Self::read_ops(&mut r)?;
        r.finish()?;
        Some(ops)
    }

    /// The bytes covered by the MAC (domain tag, body or nonce‖ciphertext‖tag,
    /// confidentiality flag, count, tuple).
    pub fn authenticated_parts<'a>(
        body: &'a [u8],
        sealed: Option<&'a Ciphertext>,
        count: u32,
        tuple_bytes: &'a [u8],
    ) -> [Vec<u8>; 1] {
        let mut buf =
            Vec::with_capacity(BATCH_MAC_DOMAIN.len() + body.len() + tuple_bytes.len() + 64);
        Self::write_authenticated_parts(
            &mut |bytes| buf.extend_from_slice(bytes),
            body,
            sealed,
            count,
            tuple_bytes,
        );
        [buf]
    }

    /// Hands the MAC-covered bytes to `put`, piece by piece and in order (see
    /// [`ShieldedMessage::write_authenticated_parts`]).
    pub fn write_authenticated_parts(
        put: &mut impl FnMut(&[u8]),
        body: &[u8],
        sealed: Option<&Ciphertext>,
        count: u32,
        tuple_bytes: &[u8],
    ) {
        put(BATCH_MAC_DOMAIN);
        match sealed {
            None => {
                put(&(body.len() as u64).to_le_bytes());
                put(body);
                put(&[0]);
            }
            Some(ct) => {
                put(&(ct.bytes.len() as u64).to_le_bytes());
                put(ct.nonce.as_bytes());
                put(&ct.bytes);
                // The AEAD tag too: a frame whose tag was tampered with must
                // fail here, before the receive counter advances, or the
                // intact frame could no longer be delivered.
                put(&ct.tag);
                put(&[1]);
            }
        }
        put(&count.to_le_bytes());
        put(tuple_bytes);
    }

    /// Serializes the frame for the wire:
    /// `tag | sealed | tuple | mac | count u32 | body or ciphertext`.
    pub fn to_wire(&self) -> Vec<u8> {
        let mut w = Writer::tagged(tag::BATCH, self.wire_len());
        w.bool(self.is_confidential())
            .raw(&self.tuple.to_bytes())
            .raw(self.mac.as_bytes())
            .u32(self.count);
        write_body(&mut w, &self.body, self.sealed.as_ref());
        w.finish()
    }

    /// Parses a frame from wire bytes.
    pub fn from_wire(bytes: &[u8]) -> Option<BatchFrame> {
        let mut r = Reader::tagged(bytes, tag::BATCH)?;
        let is_sealed = r.bool()?;
        let tuple = SequenceTuple::read(&mut r)?;
        let mac = MacTag::from_bytes(r.array()?);
        let count = r.u32()?;
        let (body, sealed) = read_body(&mut r, is_sealed)?;
        r.finish()?;
        Some(BatchFrame {
            tuple,
            count,
            body,
            sealed,
            mac,
        })
    }

    /// Size on the wire (drives the network cost model).
    pub fn wire_len(&self) -> usize {
        SHIELD_HEADER_LEN + 4 + body_len(&self.body, self.sealed.as_ref())
    }
}

impl fmt::Debug for BatchFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BatchFrame({:?}, {} ops, {}B{})",
            self.tuple,
            self.count,
            self.sealed
                .as_ref()
                .map_or(self.body.len(), |ct| ct.bytes.len()),
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
    /// Wire bytes of the smallest operation: variant byte plus an empty key.
    const MIN_LEN: usize = 1 + 4;

    /// Appends the wire encoding: `0 | key | value` for a put, `1 | key` for
    /// a get.
    pub fn write(&self, w: &mut Writer) {
        match self {
            Operation::Put { key, value } => w.u8(0).bytes(key).bytes(value),
            Operation::Get { key } => w.u8(1).bytes(key),
        };
    }

    /// Bytes [`Operation::write`] produces.
    pub fn wire_len(&self) -> usize {
        match self {
            Operation::Put { key, value } => 1 + bytes_len(key.len()) + bytes_len(value.len()),
            Operation::Get { key } => 1 + bytes_len(key.len()),
        }
    }

    /// Reads one operation.
    pub fn read(r: &mut Reader<'_>) -> Option<Operation> {
        match r.u8()? {
            0 => Some(Operation::Put {
                key: r.bytes()?.to_vec(),
                value: r.bytes()?.to_vec(),
            }),
            1 => Some(Operation::Get {
                key: r.bytes()?.to_vec(),
            }),
            _ => None,
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

/// Domain-separation prefix folded into every transaction-frame MAC, so a 2PC
/// authenticator can never be replayed as (or confused with) a single-message
/// or batch authenticator. Mirrors [`BATCH_MAC_DOMAIN`].
const TXN_MAC_DOMAIN: &[u8] = b"recipe.txn.v1";

/// One two-phase-commit message, carried as the body of a [`TxnFrame`].
///
/// The coordinator sends `Prepare` / `Commit` / `Abort`; the participant
/// shard leader answers `Vote` / `Ack`. Every body travels MAC'd and
/// counter-stamped (and AEAD-sealed when any participant shard's policy is
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

/// A shielded two-phase-commit frame between a transaction coordinator and a
/// participant shard leader: `body` is a serialized [`TxnBody`], authenticated
/// under the channel key together with the transaction id and the sequence
/// tuple, with its own MAC domain (`recipe.txn.v1`) so 2PC frames, batch
/// frames and single messages can never be confused for one another.
#[derive(Clone, PartialEq, Eq)]
pub struct TxnFrame {
    /// Sequence tuple (view, channel, counter) — one slot per frame, so a
    /// replayed or reordered 2PC frame is rejected by the trusted counter.
    pub tuple: SequenceTuple,
    /// The transaction this frame belongs to (authenticated, so a frame can
    /// never be spliced into another transaction).
    pub txn_id: u64,
    /// Serialized [`TxnBody`]; empty in confidential mode.
    pub body: Vec<u8>,
    /// The sealed body in confidential mode (`None` in plaintext mode).
    pub sealed: Option<Ciphertext>,
    /// MAC over domain, body/ciphertext, txn id and tuple under the channel
    /// key.
    pub mac: MacTag,
}

impl TxnFrame {
    /// Whether the frame's body is encrypted.
    pub fn is_confidential(&self) -> bool {
        self.sealed.is_some()
    }

    /// Serializes a body for framing: `tag | variant | fields`.
    pub fn encode_body(body: &TxnBody) -> Vec<u8> {
        let ops_len = match body {
            TxnBody::Prepare { ops } => ops.iter().map(Operation::wire_len).sum(),
            _ => 0,
        };
        let mut w = Writer::tagged(tag::TXN_BODY, 8 + ops_len);
        match body {
            TxnBody::Prepare { ops } => {
                w.u8(0).count(ops.len());
                for op in ops {
                    op.write(&mut w);
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
        w.finish()
    }

    /// Decodes a frame body. `None` on malformed bytes.
    pub fn decode_body(bytes: &[u8]) -> Option<TxnBody> {
        let mut r = Reader::tagged(bytes, tag::TXN_BODY)?;
        let body = match r.u8()? {
            0 => TxnBody::Prepare {
                ops: r.seq(Operation::MIN_LEN, Operation::read)?,
            },
            1 => TxnBody::Vote {
                granted: r.bool()?,
                conflict: r.opt_bytes()?.map(<[u8]>::to_vec),
            },
            2 => TxnBody::Commit,
            3 => TxnBody::Abort,
            4 => TxnBody::Ack { applied: r.u32()? },
            _ => return None,
        };
        r.finish()?;
        Some(body)
    }

    /// The bytes covered by the MAC (domain tag, body or nonce‖ciphertext‖tag,
    /// confidentiality flag, txn id, tuple).
    pub fn authenticated_parts<'a>(
        body: &'a [u8],
        sealed: Option<&'a Ciphertext>,
        txn_id: u64,
        tuple_bytes: &'a [u8],
    ) -> [Vec<u8>; 1] {
        let mut buf =
            Vec::with_capacity(TXN_MAC_DOMAIN.len() + body.len() + tuple_bytes.len() + 64);
        Self::write_authenticated_parts(
            &mut |bytes| buf.extend_from_slice(bytes),
            body,
            sealed,
            txn_id,
            tuple_bytes,
        );
        [buf]
    }

    /// Hands the MAC-covered bytes to `put`, piece by piece and in order (see
    /// [`ShieldedMessage::write_authenticated_parts`]).
    pub fn write_authenticated_parts(
        put: &mut impl FnMut(&[u8]),
        body: &[u8],
        sealed: Option<&Ciphertext>,
        txn_id: u64,
        tuple_bytes: &[u8],
    ) {
        put(TXN_MAC_DOMAIN);
        match sealed {
            None => {
                put(&(body.len() as u64).to_le_bytes());
                put(body);
                put(&[0]);
            }
            Some(ct) => {
                put(&(ct.bytes.len() as u64).to_le_bytes());
                put(ct.nonce.as_bytes());
                put(&ct.bytes);
                // The AEAD tag too: a frame whose tag was tampered with must
                // fail here, before the receive counter advances, or the
                // intact frame could no longer be delivered.
                put(&ct.tag);
                put(&[1]);
            }
        }
        put(&txn_id.to_le_bytes());
        put(tuple_bytes);
    }

    /// Serializes the frame for the wire:
    /// `tag | sealed | tuple | mac | txn_id u64 | body or ciphertext`.
    pub fn to_wire(&self) -> Vec<u8> {
        let mut w = Writer::tagged(tag::TXN, self.wire_len());
        w.bool(self.is_confidential())
            .raw(&self.tuple.to_bytes())
            .raw(self.mac.as_bytes())
            .u64(self.txn_id);
        write_body(&mut w, &self.body, self.sealed.as_ref());
        w.finish()
    }

    /// Parses a frame from wire bytes.
    pub fn from_wire(bytes: &[u8]) -> Option<TxnFrame> {
        let mut r = Reader::tagged(bytes, tag::TXN)?;
        let is_sealed = r.bool()?;
        let tuple = SequenceTuple::read(&mut r)?;
        let mac = MacTag::from_bytes(r.array()?);
        let txn_id = r.u64()?;
        let (body, sealed) = read_body(&mut r, is_sealed)?;
        r.finish()?;
        Some(TxnFrame {
            tuple,
            txn_id,
            body,
            sealed,
            mac,
        })
    }

    /// Size on the wire (drives the network cost model).
    pub fn wire_len(&self) -> usize {
        SHIELD_HEADER_LEN + 8 + body_len(&self.body, self.sealed.as_ref())
    }
}

impl fmt::Debug for TxnFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TxnFrame({:?}, txn {}, {}B{})",
            self.tuple,
            self.txn_id,
            self.sealed
                .as_ref()
                .map_or(self.body.len(), |ct| ct.bytes.len()),
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

    /// Bytes covered by the client signature:
    /// `client_id | request_id | operation`.
    pub fn signing_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(16 + self.operation.wire_len());
        w.u64(self.client_id).u64(self.request_id);
        self.operation.write(&mut w);
        w.finish()
    }

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
    /// `Some(value)` for successful GETs (empty vec when the key is missing is
    /// distinguished by `found`), `None` for PUT acknowledgements.
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
    fn shielded_message_wire_roundtrip() {
        let key = MacKey::from_bytes([1u8; 32]);
        let tuple = tuple();
        let parts = ShieldedMessage::authenticated_parts(b"payload", 7, false, &tuple.to_bytes());
        let mac = key.tag(&parts[0]);
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
        let t = tuple().to_bytes();
        let a = ShieldedMessage::authenticated_parts(b"p", 1, false, &t);
        let b = ShieldedMessage::authenticated_parts(b"p", 2, false, &t);
        let c = ShieldedMessage::authenticated_parts(b"p", 1, true, &t);
        let d = ShieldedMessage::authenticated_parts(b"q", 1, false, &t);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
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
        let parts = BatchFrame::authenticated_parts(&body, None, 2, &tuple.to_bytes());
        let frame = BatchFrame {
            tuple,
            count: 2,
            body: body.clone(),
            sealed: None,
            mac: key.tag(&parts[0]),
        };
        assert!(!frame.is_confidential());
        let wire = frame.to_wire();
        assert_eq!(BatchFrame::from_wire(&wire).unwrap(), frame);
        assert_eq!(frame.wire_len(), wire.len());
        // A batch wire never parses as a single message (distinct family
        // tags), so the shield dispatches on the first byte.
        assert!(ShieldedMessage::from_wire(&wire).is_none());
        assert!(BatchFrame::from_wire(b"not a frame").is_none());
        // The MAC input is domain-separated from single-message MAC inputs.
        let single = ShieldedMessage::authenticated_parts(&body, 1, false, &tuple.to_bytes());
        assert_ne!(parts, single);
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
    fn batch_authenticated_parts_bind_every_field() {
        use recipe_crypto::Nonce;
        let t = tuple().to_bytes();
        let a = BatchFrame::authenticated_parts(b"body", None, 2, &t);
        assert_ne!(a, BatchFrame::authenticated_parts(b"body", None, 3, &t));
        assert_ne!(a, BatchFrame::authenticated_parts(b"ydob", None, 2, &t));
        let mut other = tuple();
        other.counter += 1;
        assert_ne!(
            a,
            BatchFrame::authenticated_parts(b"body", None, 2, &other.to_bytes())
        );
        // Sealed frames authenticate the nonce and ciphertext instead.
        let ct = Ciphertext {
            nonce: Nonce::from_u128(7),
            bytes: b"body".to_vec(),
            tag: [0u8; 32],
        };
        let sealed = BatchFrame::authenticated_parts(&[], Some(&ct), 2, &t);
        assert_ne!(a, sealed);
        let mut other_ct = ct.clone();
        other_ct.bytes[0] ^= 1;
        assert_ne!(
            sealed,
            BatchFrame::authenticated_parts(&[], Some(&other_ct), 2, &t)
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
        let body = TxnFrame::encode_body(&TxnBody::Prepare {
            ops: vec![Operation::Put {
                key: b"k".to_vec(),
                value: b"v".to_vec(),
            }],
        });
        assert!(matches!(
            TxnFrame::decode_body(&body),
            Some(TxnBody::Prepare { .. })
        ));
        let parts = TxnFrame::authenticated_parts(&body, None, 7, &tuple.to_bytes());
        let frame = TxnFrame {
            tuple,
            txn_id: 7,
            body: body.clone(),
            sealed: None,
            mac: key.tag(&parts[0]),
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
        // The MAC input is domain-separated from both other frame families.
        let single = ShieldedMessage::authenticated_parts(&body, 1, false, &tuple.to_bytes());
        let batch = BatchFrame::authenticated_parts(&body, None, 1, &tuple.to_bytes());
        assert_ne!(parts, single);
        assert_ne!(parts, batch);
    }

    #[test]
    fn txn_authenticated_parts_bind_every_field() {
        use recipe_crypto::Nonce;
        let t = tuple().to_bytes();
        let a = TxnFrame::authenticated_parts(b"body", None, 7, &t);
        // Splicing a frame into another transaction changes the MAC input.
        assert_ne!(a, TxnFrame::authenticated_parts(b"body", None, 8, &t));
        assert_ne!(a, TxnFrame::authenticated_parts(b"ydob", None, 7, &t));
        let mut other = tuple();
        other.counter += 1;
        assert_ne!(
            a,
            TxnFrame::authenticated_parts(b"body", None, 7, &other.to_bytes())
        );
        let ct = Ciphertext {
            nonce: Nonce::from_u128(9),
            bytes: b"body".to_vec(),
            tag: [0u8; 32],
        };
        assert_ne!(a, TxnFrame::authenticated_parts(&[], Some(&ct), 7, &t));
    }

    #[test]
    fn client_request_roundtrip_and_signing_bytes() {
        let req = ClientRequest {
            client_id: 9,
            request_id: 4,
            operation: Operation::Get { key: b"x".to_vec() },
            signature: None,
        };
        let bytes = req.to_bytes();
        assert_eq!(ClientRequest::from_bytes(&bytes).unwrap(), req);
        let mut other = req.clone();
        other.request_id = 5;
        assert_ne!(req.signing_bytes(), other.signing_bytes());
        assert!(ClientRequest::from_bytes(b"garbage").is_none());
    }
}
