//! The binary wire form of the replication plane (`recipe_core::wire`).
//!
//! The contract under test:
//!
//! 1. every frame family and every protocol message enum round-trips, in
//!    plaintext and sealed;
//! 2. decoding is strict — every strict prefix and every one-byte extension
//!    of a valid encoding is rejected, and bytes of one family never decode
//!    as another;
//! 3. decoding is robust — forged lengths, unknown tags, truncation and
//!    trailing bytes are rejected by `ProtocolShield` and counted, never
//!    panicked on;
//! 4. every single-bit flip of a shielded, batch or 2PC frame is rejected,
//!    and none of them moves the receive counter;
//! 5. one golden byte vector per family pins the layout, so a silent format
//!    change fails here.

use proptest::prelude::*;
use recipe::bft::pbft::{decode_batch, encode_batch};
use recipe::bft::{DamysusMsg, PbftMsg};
use recipe::core::{
    BatchFrame, BatchOp, ClientRequest, FramePool, Membership, Operation, SequenceTuple,
    ShieldedMessage, TxnBody, TxnFrame,
};
use recipe::crypto::{MacTag, Signature};
use recipe::kv::Timestamp;
use recipe::net::{ChannelId, NodeId};
use recipe::protocols::{
    AbdMsg, AllConcurMsg, ChainMsg, ChunkPhase, MigrationChunk, ProtocolShield, RaftMsg,
};

/// The raw material one property case builds its messages from.
struct Draw {
    n: Vec<u64>,
    key: Vec<u8>,
    value: Vec<u8>,
}

impl Draw {
    fn put(&self) -> Operation {
        Operation::Put {
            key: self.key.clone(),
            value: self.value.clone(),
        }
    }

    fn get(&self) -> Operation {
        Operation::Get {
            key: self.key.clone(),
        }
    }

    fn request(&self, signed: bool) -> ClientRequest {
        ClientRequest {
            client_id: self.n[0],
            request_id: self.n[1],
            operation: if signed { self.put() } else { self.get() },
            signature: signed.then(|| Signature::from_bytes([self.n[2] as u8; 64])),
        }
    }

    fn tuple(&self) -> SequenceTuple {
        SequenceTuple {
            view: self.n[0],
            channel: ChannelId::new(NodeId(self.n[1]), NodeId(self.n[2])),
            counter: self.n[3],
        }
    }

    fn mac(&self) -> MacTag {
        MacTag::from_bytes([self.n[4] as u8; 32])
    }

    fn ops(&self) -> Vec<BatchOp> {
        vec![
            BatchOp::new(self.n[0] as u16, self.key.clone()),
            BatchOp::new(self.n[1] as u16, self.value.clone()),
            BatchOp::new(0, Vec::new()),
        ]
    }
}

/// Successful decode of `bytes` under one family's decoder.
type Decodes = fn(&[u8]) -> bool;

/// Every family with a decoder of its own. The two native frame families
/// share `ProtocolShield::native(..).unwrap`, the only public way in.
const FAMILIES: &[(&str, Decodes)] = &[
    ("single", |b| ShieldedMessage::from_wire(b).is_some()),
    ("batch", |b| BatchFrame::from_wire(b).is_some()),
    ("txn", |b| TxnFrame::from_wire(b).is_some()),
    ("native", |b| {
        let mut shield = ProtocolShield::native(NodeId(1));
        shield.unwrap(NodeId(0), &mut b.to_vec());
        shield.rejected() == 0
    }),
    ("txn_body", |b| TxnFrame::decode_body(b).is_some()),
    ("client_request", |b| ClientRequest::from_bytes(b).is_some()),
    ("raft", |b| RaftMsg::decode(b).is_some()),
    ("chain", |b| ChainMsg::decode(b).is_some()),
    ("abd", |b| AbdMsg::decode(b).is_some()),
    ("allconcur", |b| AllConcurMsg::decode(b).is_some()),
    ("migration", |b| MigrationChunk::decode(b).is_some()),
    ("pbft", |b| PbftMsg::decode(b).is_some()),
    ("pbft_batch", |b| decode_batch(b).is_some()),
    ("damysus", |b| DamysusMsg::decode(b).is_some()),
];

/// Encodes every message the draw can build — every variant of every enum,
/// every frame family plain and sealed — after checking that each decodes
/// back to itself. Returns `(family, encoding)` pairs.
fn catalogue(d: &Draw) -> Vec<(&'static str, Vec<u8>)> {
    let mut out = Vec::new();
    macro_rules! family {
        ($name:expr, $encode:expr, $decode:expr, $msgs:expr) => {
            for msg in $msgs {
                let bytes = $encode(&msg);
                assert_eq!($decode(&bytes).as_ref(), Some(&msg), "{} round trip", $name);
                out.push(($name, bytes));
            }
        };
    }
    let [a, b, c, e] = [d.n[0], d.n[1], d.n[2], d.n[3]];
    let (key, value) = (d.key.clone(), d.value.clone());

    family!(
        "single",
        ShieldedMessage::to_wire,
        ShieldedMessage::from_wire,
        [false, true].map(|confidential| ShieldedMessage {
            tuple: d.tuple(),
            kind: a as u16,
            payload: value.clone(),
            confidential,
            mac: d.mac(),
        })
    );
    family!(
        "batch",
        BatchFrame::to_wire,
        BatchFrame::from_wire,
        [
            BatchFrame {
                tuple: d.tuple(),
                count: 3,
                body: BatchFrame::encode_ops(&d.ops()),
                sealed: false,
                mac: d.mac(),
            },
            BatchFrame {
                tuple: d.tuple(),
                count: b as u32,
                body: value.clone(),
                sealed: true,
                mac: d.mac(),
            },
        ]
    );
    family!(
        "txn",
        TxnFrame::to_wire,
        TxnFrame::from_wire,
        [
            TxnFrame {
                tuple: d.tuple(),
                txn_id: a,
                body: TxnFrame::encode_body(&TxnBody::Prepare {
                    ops: vec![d.put(), d.get()],
                }),
                sealed: false,
                mac: d.mac(),
            },
            TxnFrame {
                tuple: d.tuple(),
                txn_id: b,
                body: value.clone(),
                sealed: true,
                mac: d.mac(),
            },
        ]
    );
    family!(
        "txn_body",
        TxnFrame::encode_body,
        TxnFrame::decode_body,
        [
            TxnBody::Prepare {
                ops: vec![d.put(), d.get()],
            },
            TxnBody::Prepare { ops: Vec::new() },
            TxnBody::Vote {
                granted: true,
                conflict: None,
            },
            TxnBody::Vote {
                granted: false,
                conflict: Some(key.clone()),
            },
            TxnBody::Commit,
            TxnBody::Abort,
            TxnBody::Ack { applied: a as u32 },
        ]
    );
    family!(
        "client_request",
        ClientRequest::to_bytes,
        ClientRequest::from_bytes,
        [d.request(false), d.request(true)]
    );
    family!(
        "raft",
        RaftMsg::encode,
        RaftMsg::decode,
        [
            RaftMsg::Append {
                view: a,
                index: b,
                key: &key,
                value: &value,
                client_id: c,
                request_id: e,
            },
            RaftMsg::AppendAck { view: a, index: b },
            RaftMsg::Commit { view: a, index: b },
            RaftMsg::CommitAck { view: a, index: b },
            RaftMsg::Heartbeat { view: a },
            RaftMsg::ViewChange { new_view: a },
        ]
    );
    family!(
        "chain",
        ChainMsg::encode,
        ChainMsg::decode,
        [ChainMsg::Forward {
            seq: a,
            key: key.clone(),
            value: value.clone(),
            client_id: b,
            request_id: c,
        }]
    );
    let ts = Timestamp::new(b, c);
    family!(
        "abd",
        AbdMsg::encode,
        AbdMsg::decode,
        [
            AbdMsg::GetTs {
                op: a,
                key: key.clone(),
            },
            AbdMsg::TsReply { op: a, ts },
            AbdMsg::Put {
                op: a,
                key: key.clone(),
                value: value.clone(),
                ts,
            },
            AbdMsg::PutAck { op: a },
            AbdMsg::GetFull {
                op: a,
                key: key.clone(),
            },
            AbdMsg::FullReply {
                op: a,
                value: None,
                ts,
            },
            AbdMsg::FullReply {
                op: a,
                value: Some(value.clone()),
                ts,
            },
        ]
    );
    family!(
        "allconcur",
        AllConcurMsg::encode,
        AllConcurMsg::decode,
        [
            AllConcurMsg::Propose {
                op: a,
                key: key.clone(),
                value: value.clone(),
            },
            AllConcurMsg::Track { op: a },
            AllConcurMsg::Deliver { op: a },
        ]
    );
    family!(
        "migration",
        MigrationChunk::encode,
        MigrationChunk::decode,
        [ChunkPhase::Snapshot, ChunkPhase::CatchUp, ChunkPhase::Final].map(|phase| {
            MigrationChunk {
                migration_id: a,
                phase,
                seq: b,
                entries: vec![
                    (key.clone(), value.clone(), Timestamp::new(c, e)),
                    (Vec::new(), Vec::new(), Timestamp::ZERO),
                ],
            }
        })
    );
    let pbft = [
        PbftMsg::PrePrepare {
            view: a,
            seq: b,
            request: d.request(true),
        },
        PbftMsg::Prepare {
            view: a,
            seq: b,
            digest: c,
            replica: e,
        },
        PbftMsg::Commit {
            view: a,
            seq: b,
            digest: c,
            replica: e,
        },
    ];
    family!("pbft", PbftMsg::encode, PbftMsg::decode, pbft.clone());
    family!(
        "pbft_batch",
        |msgs: &Vec<PbftMsg>| encode_batch(&msgs.iter().map(PbftMsg::encode).collect::<Vec<_>>()),
        decode_batch,
        [pbft.to_vec(), Vec::new()]
    );
    family!(
        "damysus",
        DamysusMsg::encode,
        DamysusMsg::decode,
        [
            DamysusMsg::Propose {
                slot: a,
                request: d.request(false),
            },
            DamysusMsg::PrepareVote {
                slot: a,
                replica: b,
            },
            DamysusMsg::PreCommit { slot: a },
            DamysusMsg::CommitVote {
                slot: a,
                replica: b,
            },
            DamysusMsg::Decide { slot: a },
        ]
    );

    // The native frame families have no public decoder of their own: they
    // round-trip through a native-mode shield pair.
    let mut sender = ProtocolShield::native(NodeId(0));
    let mut receiver = ProtocolShield::native(NodeId(1));
    let single = wrap(&mut sender, NodeId(1), a as u16, &value);
    assert_eq!(
        receiver.unwrap(NodeId(0), &mut single.clone()),
        vec![(a as u16, value.clone())]
    );
    let batch = wrap_batch(&mut sender, NodeId(1), &d.ops());
    let ops: Vec<_> = d
        .ops()
        .into_iter()
        .map(|op| (op.kind, op.payload))
        .collect();
    assert_eq!(receiver.unwrap(NodeId(0), &mut batch.clone()), ops);
    out.push(("native", single));
    out.push(("native", batch));
    out
}

fn decoder_of(family: &str) -> Decodes {
    FAMILIES
        .iter()
        .find(|(name, _)| *name == family)
        .map(|(_, decodes)| *decodes)
        .expect("family has a decoder")
}

/// A Recipe-mode sender/receiver pair of one replica group.
fn shield_pair(confidential: bool) -> (ProtocolShield, ProtocolShield) {
    let membership = Membership::of_size(3, 1);
    (
        ProtocolShield::recipe(NodeId(0), &membership, confidential),
        ProtocolShield::recipe(NodeId(1), &membership, confidential),
    )
}

/// `payload` wrapped as one `kind` message for `dst`, in a frame of its own.
fn wrap(shield: &mut ProtocolShield, dst: NodeId, kind: u16, payload: &[u8]) -> Vec<u8> {
    shield.wrap_in(&mut FramePool::default(), dst, kind, payload.len(), |w| {
        w.raw(payload);
    })
}

/// `ops` wrapped as one batch frame for `dst`, in a frame of its own.
fn wrap_batch(shield: &mut ProtocolShield, dst: NodeId, ops: &[BatchOp]) -> Vec<u8> {
    let body = BatchFrame::encode_ops(ops);
    shield.wrap_batch_in(&mut FramePool::default(), dst, &body)
}

/// `body` wrapped as a 2PC frame of `txn_id` for `dst`, in a frame of its own.
fn wrap_txn(
    shield: &mut ProtocolShield,
    dst: NodeId,
    txn_id: u64,
    body: &TxnBody,
    seal: bool,
) -> Vec<u8> {
    shield.wrap_txn_in(&mut FramePool::default(), dst, txn_id, body, seal)
}

/// The 2PC frame `bytes` from `from` opened, its body copied out.
fn unwrap_txn(shield: &mut ProtocolShield, from: NodeId, bytes: &[u8]) -> Option<(u64, TxnBody)> {
    let mut spare = None;
    let opened = shield.unwrap_txn_in(&mut FramePool::default(), from, bytes, &mut spare);
    opened.map(|(txn_id, body)| (txn_id, body.to_body()))
}

proptest! {
    /// Round trips (inside `catalogue`), strict prefixes, one-byte
    /// extensions and cross-family decoding, for every family at once.
    #[test]
    fn encodings_round_trip_and_decode_strictly(
        n in proptest::collection::vec(any::<u64>(), 5),
        key in proptest::collection::vec(any::<u8>(), 0..24),
        value in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        let samples = catalogue(&Draw { n, key, value });
        let covered: std::collections::BTreeSet<_> = samples.iter().map(|(f, _)| *f).collect();
        prop_assert!(covered.len() == FAMILIES.len(), "catalogue misses a family");
        for (family, bytes) in &samples {
            for (other, decodes) in FAMILIES {
                prop_assert!(
                    decodes(bytes) == (other == family),
                    "{} bytes under the {} decoder", family, other
                );
            }
            let decodes = decoder_of(family);
            for cut in 0..bytes.len() {
                prop_assert!(!decodes(&bytes[..cut]), "{} prefix of {} bytes decodes", family, cut);
            }
            let mut extended = bytes.clone();
            extended.push(0);
            for extra in 0..=u8::MAX {
                *extended.last_mut().expect("just pushed") = extra;
                prop_assert!(!decodes(&extended), "{} + byte {:#04x} decodes", family, extra);
            }
        }
    }

    /// Frames sealed by a real shield: the wire form re-encodes to the same
    /// bytes and the receiver recovers exactly what was wrapped, plaintext
    /// and confidential, for all three shielded families.
    #[test]
    fn sealed_frames_round_trip_through_the_shield(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..128), 1..6),
        kind in any::<u16>(),
        txn_id in any::<u64>(),
        confidential in any::<bool>(),
    ) {
        let (mut sender, mut receiver) = shield_pair(confidential);

        let mut wire = wrap(&mut sender, NodeId(1), kind, &payloads[0]);
        let frame = ShieldedMessage::from_wire(&wire).expect("own frame parses");
        prop_assert_eq!(frame.confidential, confidential);
        prop_assert_eq!(frame.wire_len(), wire.len());
        prop_assert_eq!(&frame.to_wire(), &wire);
        prop_assert_eq!(receiver.unwrap(NodeId(0), &mut wire), vec![(kind, payloads[0].clone())]);

        let ops: Vec<BatchOp> = payloads.iter().map(|p| BatchOp::new(kind, p.clone())).collect();
        let mut wire = wrap_batch(&mut sender, NodeId(1), &ops);
        let frame = BatchFrame::from_wire(&wire).expect("own frame parses");
        prop_assert_eq!(frame.is_confidential(), confidential);
        prop_assert_eq!(frame.wire_len(), wire.len());
        prop_assert_eq!(&frame.to_wire(), &wire);
        let delivered: Vec<_> = ops.into_iter().map(|op| (op.kind, op.payload)).collect();
        prop_assert_eq!(receiver.unwrap(NodeId(0), &mut wire), delivered);

        let body = TxnBody::Prepare {
            ops: payloads
                .iter()
                .map(|p| Operation::Put { key: p.clone(), value: p.clone() })
                .collect(),
        };
        let wire = wrap_txn(&mut sender, NodeId(1), txn_id, &body, confidential);
        let frame = TxnFrame::from_wire(&wire).expect("own frame parses");
        prop_assert_eq!(frame.is_confidential(), confidential);
        prop_assert_eq!(frame.wire_len(), wire.len());
        prop_assert_eq!(&frame.to_wire(), &wire);
        prop_assert_eq!(unwrap_txn(&mut receiver, NodeId(0), &wire), Some((txn_id, body)));
        prop_assert_eq!(receiver.rejected(), 0);
    }
}

/// A sealed frame is exactly as long as the plaintext frame of the same
/// content — the ciphertext is as long as the plaintext, the nonce is derived
/// and the frame MAC is the only tag — and the cost model charges on these
/// lengths. (With the cipher's own envelope inside the frame they were 1148,
/// 1165 and 1166: a 16-byte nonce and a 32-byte tag more, and in the single
/// frame the envelope's length prefix.)
#[test]
fn confidential_frame_lengths_are_pinned() {
    let lengths = |confidential| {
        let (mut sender, _) = shield_pair(confidential);
        let payload = vec![0x5a; 1024];
        let single = wrap(&mut sender, NodeId(1), 7, &payload);
        let batch = wrap_batch(
            &mut sender,
            NodeId(1),
            &[
                BatchOp::new(7, payload.clone()),
                BatchOp::new(7, vec![1, 2, 3]),
            ],
        );
        let txn = wrap_txn(
            &mut sender,
            NodeId(1),
            9,
            &TxnBody::Prepare {
                ops: vec![Operation::Put {
                    key: b"k".to_vec(),
                    value: payload,
                }],
            },
            confidential,
        );
        (single.len(), batch.len(), txn.len())
    };
    assert_eq!(lengths(true), (1096, 1117, 1118));
    assert_eq!(lengths(false), lengths(true));
}

/// Feeds every single-bit flip of `wire` to `open`, which must reject each
/// one — no delivery, one more rejection on the counter, and the trusted
/// receive counter where it was: a flip that moved it would turn the intact
/// frame into a replay (a sealed frame's inner tag once sat outside the MAC
/// and did exactly that). Then the intact frame, which must be accepted and
/// take the next slot.
fn every_bit_flip_is_rejected(
    receiver: &mut ProtocolShield,
    wire: &[u8],
    open: impl Fn(&mut ProtocolShield, &[u8]) -> bool,
) {
    let accepted = receiver.recv_counter_from(NodeId(0));
    let mut flipped = wire.to_vec();
    for bit in 0..wire.len() * 8 {
        flipped[bit / 8] ^= 1 << (bit % 8);
        let before = receiver.rejected();
        assert!(!open(receiver, &flipped), "flip of bit {bit} was delivered");
        assert_eq!(receiver.rejected(), before + 1, "flip of bit {bit}");
        assert_eq!(
            receiver.recv_counter_from(NodeId(0)),
            accepted,
            "flip of bit {bit} moved the receive counter"
        );
        flipped[bit / 8] ^= 1 << (bit % 8);
    }
    assert!(
        open(receiver, wire),
        "intact frame rejected after the flips"
    );
    assert_eq!(receiver.recv_counter_from(NodeId(0)), accepted + 1);
}

#[test]
fn every_single_bit_flip_of_a_shielded_frame_is_rejected() {
    let payload = [0xA5u8; 64];
    for confidential in [false, true] {
        let (mut sender, mut receiver) = shield_pair(confidential);
        let single = wrap(&mut sender, NodeId(1), 7, &payload);
        every_bit_flip_is_rejected(&mut receiver, &single, |rx, bytes| {
            !rx.unwrap(NodeId(0), &mut bytes.to_vec()).is_empty()
        });
        let batch = wrap_batch(&mut sender, NodeId(1), &[BatchOp::new(7, payload.to_vec())]);
        every_bit_flip_is_rejected(&mut receiver, &batch, |rx, bytes| {
            !rx.unwrap(NodeId(0), &mut bytes.to_vec()).is_empty()
        });
        let body = TxnBody::Prepare {
            ops: vec![Operation::Put {
                key: b"k".to_vec(),
                value: payload.to_vec(),
            }],
        };
        let txn = wrap_txn(&mut sender, NodeId(1), 9, &body, confidential);
        every_bit_flip_is_rejected(&mut receiver, &txn, |rx, bytes| {
            unwrap_txn(rx, NodeId(0), bytes).is_some()
        });
    }
}

/// Offset of the payload / body length field in a plaintext single, batch
/// and 2PC frame: tag, flags, tuple, MAC, then `kind u16`, `count u32` or
/// `txn_id u64`.
const SINGLE_LEN_AT: usize = 66 + 2;
const BATCH_LEN_AT: usize = 66 + 4;
const TXN_LEN_AT: usize = 66 + 8;

#[test]
fn hostile_frames_are_rejected_and_counted_without_panicking() {
    let (mut sender, mut receiver) = shield_pair(false);
    let single = wrap(&mut sender, NodeId(1), 7, &[1u8; 64]);
    let batch = wrap_batch(&mut sender, NodeId(1), &[BatchOp::new(7, vec![2u8; 64])]);
    let txn = wrap_txn(&mut sender, NodeId(1), 9, &TxnBody::Commit, false);

    let mut hostile: Vec<Vec<u8>> = Vec::new();
    for (wire, len_at) in [
        (&single, SINGLE_LEN_AT),
        (&batch, BATCH_LEN_AT),
        (&txn, TXN_LEN_AT),
    ] {
        // A length field claiming u32::MAX bytes.
        let mut forged = wire.clone();
        forged[len_at..len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        hostile.push(forged);
        // Truncated, and with trailing bytes.
        hostile.push(wire[..wire.len() - 1].to_vec());
        hostile.push([wire.as_slice(), &[0]].concat());
        // An unknown family tag.
        let mut unknown = wire.clone();
        unknown[0] = 0x7F;
        hostile.push(unknown);
    }
    // A batch body whose op count claims u32::MAX entries.
    let mut forged = batch.clone();
    forged[BATCH_LEN_AT + 4..BATCH_LEN_AT + 8].copy_from_slice(&u32::MAX.to_le_bytes());
    hostile.push(forged);
    hostile.push(Vec::new());

    for (i, bytes) in hostile.iter().enumerate() {
        let before = receiver.rejected();
        assert!(
            receiver.unwrap(NodeId(0), &mut bytes.clone()).is_empty(),
            "case {i}"
        );
        assert!(
            unwrap_txn(&mut receiver, NodeId(0), bytes).is_none(),
            "case {i}"
        );
        assert_eq!(receiver.rejected(), before + 2, "case {i}");
    }
    // The same forgeries against the body decoders directly.
    assert_eq!(BatchFrame::decode_ops(&u32::MAX.to_le_bytes()), None);
    assert_eq!(
        TxnFrame::decode_body(&[0x08, 0, 0xFF, 0xFF, 0xFF, 0xFF]),
        None
    );
    // A native-mode shield counts garbage the same way.
    let mut native = ProtocolShield::native(NodeId(1));
    for bytes in [
        &single[..],
        &[0x04, 1, 0, 0xFF, 0xFF, 0xFF, 0xFF],
        &[0x05, 0xFF, 0xFF, 0xFF, 0xFF],
    ] {
        assert!(native.unwrap(NodeId(0), &mut bytes.to_vec()).is_empty());
    }
    assert_eq!(native.rejected(), 3);

    // Nothing above disturbed the channel: the intact frames still verify.
    assert_eq!(receiver.unwrap(NodeId(0), &mut single.clone()).len(), 1);
    assert_eq!(receiver.unwrap(NodeId(0), &mut batch.clone()).len(), 1);
    assert_eq!(
        unwrap_txn(&mut receiver, NodeId(0), &txn),
        Some((9, TxnBody::Commit))
    );
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// One fixed message per family against its recorded bytes. Tuple
/// `(view 1, 2 -> 3, counter 4)`, MAC `0xAA..`, key `"k"`, value `"vv"`.
#[test]
fn golden_vectors_pin_the_layout() {
    let tuple = SequenceTuple {
        view: 1,
        channel: ChannelId::new(NodeId(2), NodeId(3)),
        counter: 4,
    };
    let mac = MacTag::from_bytes([0xAA; 32]);
    let put = Operation::Put {
        key: b"k".to_vec(),
        value: b"vv".to_vec(),
    };
    let request = ClientRequest {
        client_id: 6,
        request_id: 7,
        operation: put.clone(),
        signature: None,
    };
    // tag, flags, then `view | src | dst | counter` and the MAC.
    let header = |tag: &str, flags: &str| {
        format!(
            "{tag}{flags}{}{}{}{}{}",
            "0100000000000000",
            "0200000000000000",
            "0300000000000000",
            "0400000000000000",
            "aa".repeat(32)
        )
    };
    // A sealed body: its length, then ciphertext bytes `c1 c2` — no nonce and
    // no tag of its own.
    let sealed_body = "02000000c1c2";

    let golden: Vec<(&str, Vec<u8>, String)> = vec![
        (
            "single",
            ShieldedMessage {
                tuple,
                kind: 0x0102,
                payload: b"vv".to_vec(),
                confidential: false,
                mac,
            }
            .to_wire(),
            header("01", "00") + "0201" + "020000007676",
        ),
        (
            "single (sealed)",
            ShieldedMessage {
                tuple,
                kind: 0x0102,
                payload: vec![0xC1, 0xC2],
                confidential: true,
                mac,
            }
            .to_wire(),
            header("01", "01") + "0201" + sealed_body,
        ),
        (
            "batch (sealed)",
            BatchFrame {
                tuple,
                count: 2,
                body: vec![0xC1, 0xC2],
                sealed: true,
                mac,
            }
            .to_wire(),
            header("02", "01") + "02000000" + sealed_body,
        ),
        (
            "batch body",
            BatchFrame::encode_ops(&[BatchOp::new(9, b"vv".to_vec())]),
            "01000000".to_owned() + "0900" + "020000007676",
        ),
        (
            "txn",
            TxnFrame {
                tuple,
                txn_id: 8,
                body: TxnFrame::encode_body(&TxnBody::Commit),
                sealed: false,
                mac,
            }
            .to_wire(),
            header("03", "00") + "0800000000000000" + "020000000802",
        ),
        (
            "txn (sealed)",
            TxnFrame {
                tuple,
                txn_id: 8,
                body: vec![0xC1, 0xC2],
                sealed: true,
                mac,
            }
            .to_wire(),
            header("03", "01") + "0800000000000000" + sealed_body,
        ),
        (
            "native single",
            wrap(
                &mut ProtocolShield::native(NodeId(0)),
                NodeId(1),
                0x0102,
                b"vv",
            ),
            "04".to_owned() + "0201" + "020000007676",
        ),
        (
            "native batch",
            wrap_batch(
                &mut ProtocolShield::native(NodeId(0)),
                NodeId(1),
                &[BatchOp::new(9, b"vv".to_vec())],
            ),
            "05".to_owned() + "01000000" + "0900" + "020000007676",
        ),
        (
            "txn_body",
            TxnFrame::encode_body(&TxnBody::Prepare {
                ops: vec![put.clone()],
            }),
            "0800".to_owned() + "01000000" + "00" + "010000006b" + "020000007676",
        ),
        (
            "client_request",
            request.to_bytes(),
            "09".to_owned()
                + "0600000000000000"
                + "0700000000000000"
                + "00010000006b020000007676"
                + "00",
        ),
        (
            "raft",
            RaftMsg::Append {
                view: 1,
                index: 2,
                key: b"k",
                value: b"vv",
                client_id: 3,
                request_id: 4,
            }
            .encode(),
            "1000".to_owned()
                + "0100000000000000"
                + "0200000000000000"
                + "0300000000000000"
                + "0400000000000000"
                + "010000006b"
                + "020000007676",
        ),
        (
            "chain",
            ChainMsg::Forward {
                seq: 1,
                key: b"k".to_vec(),
                value: b"vv".to_vec(),
                client_id: 2,
                request_id: 3,
            }
            .encode(),
            "1100".to_owned()
                + "0100000000000000"
                + "0200000000000000"
                + "0300000000000000"
                + "010000006b"
                + "020000007676",
        ),
        (
            "abd",
            AbdMsg::FullReply {
                op: 1,
                value: Some(b"vv".to_vec()),
                ts: Timestamp::new(2, 3),
            }
            .encode(),
            "1205".to_owned()
                + "0100000000000000"
                + "0200000000000000"
                + "0300000000000000"
                + "01"
                + "020000007676",
        ),
        (
            "allconcur",
            AllConcurMsg::Propose {
                op: 1,
                key: b"k".to_vec(),
                value: b"vv".to_vec(),
            }
            .encode(),
            "1300".to_owned() + "0100000000000000" + "010000006b" + "020000007676",
        ),
        (
            "migration",
            MigrationChunk {
                migration_id: 1,
                phase: ChunkPhase::CatchUp,
                seq: 2,
                entries: vec![(b"k".to_vec(), b"vv".to_vec(), Timestamp::new(3, 4))],
            }
            .encode(),
            "14".to_owned()
                + "0100000000000000"
                + "01"
                + "0200000000000000"
                + "01000000"
                + "0300000000000000"
                + "0400000000000000"
                + "010000006b"
                + "020000007676",
        ),
        (
            "pbft",
            PbftMsg::Prepare {
                view: 1,
                seq: 2,
                digest: 3,
                replica: 4,
            }
            .encode(),
            "2001".to_owned()
                + "0100000000000000"
                + "0200000000000000"
                + "0300000000000000"
                + "0400000000000000",
        ),
        (
            "pbft_batch",
            encode_batch(&[vec![0x20, 0xFF]]),
            "21".to_owned() + "01000000" + "0200000020ff",
        ),
        (
            "damysus",
            DamysusMsg::Propose { slot: 1, request }.encode(),
            "2200".to_owned()
                + "0100000000000000"
                + "0600000000000000"
                + "0700000000000000"
                + "00010000006b020000007676"
                + "00",
        ),
    ];
    for (family, bytes, expected) in golden {
        assert_eq!(hex(&bytes), expected, "{family} layout changed");
    }
}
