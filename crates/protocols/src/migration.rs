//! Shielded snapshot / catch-up transfer between shard leaders.
//!
//! An online shard migration moves a key range between two replica groups that
//! share no protocol channels: the donor group's leader exports the range, the
//! recipient group installs it. The state crosses **untrusted infrastructure**,
//! so every chunk travels through the same [`crate::shield::ProtocolShield`]
//! path protocol messages use — MAC under an attestation-provisioned channel
//! key, trusted per-channel counter (a replayed or reordered snapshot chunk is
//! rejected, not re-applied), and AEAD over the payload in confidential mode
//! so key material and values are never exposed in transit.
//!
//! The wire unit is a [`MigrationChunk`]: a bounded batch of records tagged
//! with the migration id, the phase ([`ChunkPhase`]) and a per-migration
//! sequence number. Chunks are bounded so staging them inside the enclave
//! does not blow the EPC (the cost model charges EPC pressure per staged
//! chunk, mirroring §B.3's batch-size trade-off).
//!
//! A chunk is sealed from either of two sources through one writer
//! ([`MigrationChannel::seal`], any [`TransferRecord`]): a snapshot round's
//! records read where they lie in the donor's store
//! ([`recipe_kv::SnapshotRecord`], each value copied into the frame's body
//! through the check that covers the copy), or a catch-up round's owned
//! records ([`recipe_kv::ExportedEntry`]). The frame comes from a pool the
//! caller keeps, and an opened chunk is read where it lies in its frame
//! ([`ChunkRecords`]).

use std::borrow::Cow;
use std::ops::Range;

use recipe_core::wire::{tag, Reader, Writer};
use recipe_core::{ConfidentialityMode, FramePool, Membership};
use recipe_kv::{ExportedEntry, SnapshotRecord, Timestamp};
use recipe_net::NodeId;

use crate::shield::{Frames, ProtocolShield};

/// Message kind tag for migration chunks on the shield channel.
const KIND_MIGRATION: u16 = 0x4D49; // "MI"

/// Base of the node-id space used by state-transfer endpoints, far above
/// any replica id: each transfer has two, keyed like any other shielded
/// channel.
const ENDPOINT_BASE: u64 = 0xE000_0000;

/// Most shards a deployment may have (`DeploymentSpec::validate` refuses
/// more): the shard index is the low part of a migration endpoint id and of
/// a 2PC participant endpoint id, and must not run into the next one.
pub const MAX_SHARDS: usize = 4_096;

/// Most transfers whose endpoints fit [`ENDPOINT_IDS`]; a run makes a
/// handful.
const MAX_MIGRATIONS: u64 = 1 << 32;

/// The node ids state-transfer endpoints take.
pub const ENDPOINT_IDS: Range<u64> =
    ENDPOINT_BASE..ENDPOINT_BASE + MAX_MIGRATIONS * MAX_SHARDS as u64;

/// Which transfer phase a chunk belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkPhase {
    /// Sealed snapshot of the moving range at the cut point, or of a live
    /// peer's whole range for a restarting replica.
    Snapshot = 0,
    /// Replay of writes committed on the donor after the snapshot cut.
    CatchUp = 1,
    /// Final drained delta shipped at cutover (the last catch-up round).
    Final = 2,
}

/// One bounded batch of range records in flight between shard leaders, in
/// its owned form: the reference codec ([`MigrationChunk::encode`],
/// [`MigrationChunk::decode`]) of what [`MigrationChannel::seal`] writes
/// into a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationChunk {
    /// Identifier of the migration this chunk belongs to.
    pub migration_id: u64,
    /// Phase the chunk was produced in.
    pub phase: ChunkPhase,
    /// Per-migration sequence number (0-based, monotonically increasing).
    pub seq: u64,
    /// The records, in application order.
    pub entries: Vec<ExportedEntry>,
}

/// Most records one chunk carries: the bound on what a chunk stages inside
/// the enclave. A round of `k` records ships `⌈k / CHUNK_ENTRIES⌉` chunks.
pub const CHUNK_ENTRIES: usize = 128;

/// One record of an opened chunk, read where it lies in the frame: its
/// key, its value and its write timestamp.
pub type ChunkRecord<'a> = (&'a [u8], &'a [u8], Timestamp);

/// A record a chunk carries, as its source holds it: what
/// [`MigrationChannel::seal`]'s one writer reads of it.
pub trait TransferRecord {
    /// The record's key.
    fn key(&self) -> &[u8];
    /// The write timestamp it carries.
    fn timestamp(&self) -> Timestamp;
    /// The value's length: the room [`TransferRecord::write_value`] fills.
    fn value_len(&self) -> usize;
    /// Writes the value into `out`, exactly [`TransferRecord::value_len`]
    /// bytes where it lies in the frame. `false` when the value fails its
    /// source's check, and then nothing of the chunk ships.
    fn write_value(&self, out: &mut [u8]) -> bool;
}

/// A catch-up log's owned record.
impl TransferRecord for &ExportedEntry {
    fn key(&self) -> &[u8] {
        &self.0
    }

    fn timestamp(&self) -> Timestamp {
        self.2
    }

    fn value_len(&self) -> usize {
        self.1.len()
    }

    fn write_value(&self, out: &mut [u8]) -> bool {
        out.copy_from_slice(&self.1);
        true
    }
}

/// A donor's snapshot record, read where it lies in its store: the value is
/// copied into the frame and checked there against the enclave-held digest
/// (decrypted there on a confidential store).
impl TransferRecord for SnapshotRecord<'_> {
    fn key(&self) -> &[u8] {
        self.key
    }

    fn timestamp(&self) -> Timestamp {
        self.timestamp
    }

    fn value_len(&self) -> usize {
        SnapshotRecord::value_len(self)
    }

    fn write_value(&self, out: &mut [u8]) -> bool {
        self.copy_value(out).is_ok()
    }
}

impl MigrationChunk {
    /// Wire bytes of a record with an empty key and value: two timestamp
    /// halves and two length prefixes.
    pub const ENTRY_MIN_LEN: usize = 2 * 8 + 2 * 4;

    /// Key and value bytes of `records`: what a chunk of them carries
    /// beyond [`MigrationChunk::ENTRY_MIN_LEN`] a record.
    pub fn payload_len<R: TransferRecord>(records: impl IntoIterator<Item = R>) -> usize {
        records
            .into_iter()
            .map(|record| record.key().len() + record.value_len())
            .sum()
    }

    /// Bytes [`MigrationChunk::encode`] produces for `entries` records whose
    /// keys and values total `payload_bytes`: the tag, the 22-byte header,
    /// then [`MigrationChunk::ENTRY_MIN_LEN`] plus the payload per record.
    pub const fn wire_len(entries: usize, payload_bytes: usize) -> usize {
        1 + 8 + 1 + 8 + 4 + entries * Self::ENTRY_MIN_LEN + payload_bytes
    }

    /// Wire form: `tag | migration_id | phase u8 | seq | count u32 |
    /// (ts.logical, ts.node, key, value)*`.
    pub fn encode(&self) -> Vec<u8> {
        let payload = Self::payload_len(&self.entries);
        let mut w = Writer::reusing(Vec::new(), Self::wire_len(self.entries.len(), payload));
        let header = (self.migration_id, self.phase, self.seq);
        write(&mut w, header, self.entries.iter());
        w.finish()
    }

    /// Parses a chunk; `None` on anything but one well-formed encoding.
    pub fn decode(bytes: &[u8]) -> Option<MigrationChunk> {
        let ((migration_id, phase, seq), records) = read(bytes)?;
        let entries = records.map(|(key, value, ts)| (key.to_vec(), value.to_vec(), ts));
        Some(MigrationChunk {
            migration_id,
            phase,
            seq,
            entries: entries.collect(),
        })
    }
}

/// A chunk's `(migration_id, phase, seq)`.
type Header = (u64, ChunkPhase, u64);

/// Writes [`MigrationChunk::encode`]'s bytes of `records` under `header`
/// to `w`, each value where it lies in the body. Returns whether every
/// value passed its source's check; the body is written in full either way.
fn write<R: TransferRecord>(
    w: &mut Writer,
    (migration_id, phase, seq): Header,
    records: impl ExactSizeIterator<Item = R>,
) -> bool {
    w.u8(tag::MIGRATION)
        .u64(migration_id)
        .u8(phase as u8)
        .u64(seq)
        .count(records.len());
    let mut intact = true;
    for record in records {
        let ts = record.timestamp();
        w.u64(ts.logical).u64(ts.node).bytes(record.key());
        intact &= w.bytes_with(record.value_len(), |out| record.write_value(out));
    }
    intact
}

/// One record as [`write`] puts it on the wire.
fn record<'a>(r: &mut Reader<'a>) -> Option<ChunkRecord<'a>> {
    let ts = Timestamp::new(r.u64()?, r.u64()?);
    Some((r.bytes()?, r.bytes()?, ts))
}

/// Reads a chunk's header and checks the whole of it: `None` on anything
/// but one well-formed encoding of at most [`CHUNK_ENTRIES`] records.
/// Only then are its records handed out, where they lie.
fn read(bytes: &[u8]) -> Option<(Header, ChunkRecords<'_>)> {
    let mut r = Reader::tagged(bytes, tag::MIGRATION)?;
    let migration_id = r.u64()?;
    let phases = [ChunkPhase::Snapshot, ChunkPhase::CatchUp, ChunkPhase::Final];
    let phase = *phases.get(usize::from(r.u8()?))?;
    let seq = r.u64()?;
    let remaining = r.count().filter(|&count| count <= CHUNK_ENTRIES)?;
    let records = ChunkRecords { rest: r, remaining };
    let mut end = r;
    for _ in 0..remaining {
        record(&mut end)?;
    }
    end.finish()?;
    Some(((migration_id, phase, seq), records))
}

/// An opened chunk's records, in order, read where they lie in its frame
/// as [`ChunkRecord`]s. The chunk was checked whole before it was handed
/// out ([`MigrationChannel::open`]), so every record of it comes, never
/// part of them.
#[derive(Debug, Clone)]
pub struct ChunkRecords<'a> {
    rest: Reader<'a>,
    remaining: usize,
}

impl<'a> Iterator for ChunkRecords<'a> {
    type Item = ChunkRecord<'a>;

    fn next(&mut self) -> Option<ChunkRecord<'a>> {
        self.remaining = self.remaining.checked_sub(1)?;
        record(&mut self.rest)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for ChunkRecords<'_> {}

/// The node id of endpoint `slot` of transfer `migration_id`: the transfer
/// id is folded into the endpoint id, so every transfer derives fresh
/// channel keys. Without this, a later migration between the same shard
/// pair would reuse the same keys with a reset counter — and sealed frames
/// recorded from an earlier migration would verify again.
fn endpoint(slot: usize, migration_id: u64) -> NodeId {
    NodeId(ENDPOINT_BASE + migration_id * MAX_SHARDS as u64 + slot as u64)
}

/// A one-directional shielded channel between the two endpoints of one
/// state transfer: a donor and a recipient shard's leaders for a migration,
/// a live peer and a restarting replica for a recovery. Owns both endpoint
/// shields (the simulation drives both sides); the channel keys derive from
/// the deployment master secret exactly like replica channels, fresh per
/// transfer, and the per-channel counter starts afresh with them. Its
/// frames are not its own: each is built in a buffer of the pool the
/// caller lends [`MigrationChannel::seal`] — one pool a cluster keeps for
/// all its transfers — and goes back there once opened, lost or refused.
pub struct MigrationChannel {
    donor: usize,
    recipient: usize,
    migration_id: u64,
    sender: ProtocolShield,
    receiver: ProtocolShield,
    next_seq: u64,
}

impl MigrationChannel {
    /// Opens the channel of transfer `migration_id` from endpoint slot
    /// `donor` to slot `recipient` (a migration's two shards). With a
    /// [`ConfidentialityMode::Confidential`] policy (or `true`), chunk
    /// payloads are AEAD-encrypted in transit — the controller passes the
    /// *stricter* of the donor's and the recipient's per-shard modes, so a
    /// range never travels in plaintext when either side of the move treats
    /// it as sensitive. Channel keys are derived per transfer (its id is
    /// folded into the endpoint labels), so frames sealed for one transfer
    /// never verify on another.
    ///
    /// # Panics
    /// Panics if donor and recipient are the same slot.
    pub fn new(
        donor: usize,
        recipient: usize,
        migration_id: u64,
        confidentiality: impl Into<ConfidentialityMode>,
    ) -> Self {
        let confidentiality = confidentiality.into();
        assert_ne!(donor, recipient, "a transfer needs two distinct endpoints");
        assert!(
            donor.max(recipient) < MAX_SHARDS && migration_id < MAX_MIGRATIONS,
            "transfer {migration_id} between slots {donor} and {recipient} has no endpoint ids"
        );
        let ends = [donor, recipient].map(|slot| endpoint(slot, migration_id));
        let membership = Membership::new(ends.to_vec(), 0);
        let [sender, receiver] =
            ends.map(|end| ProtocolShield::recipe(end, &membership, confidentiality));
        MigrationChannel {
            donor,
            recipient,
            migration_id,
            sender,
            receiver,
            next_seq: 0,
        }
    }

    /// Whether chunk payloads are AEAD-encrypted in transit on this channel.
    pub fn is_confidential(&self) -> bool {
        self.sender.mode().confidentiality().is_confidential()
    }

    /// Seals the next chunk, of `records` in `phase`, into wire bytes on the
    /// donor side: the chunk is written from the records where they lie
    /// straight into the body of its frame, a buffer `frames` lends, and
    /// sealed there. Returns the chunk's sequence number and the frame,
    /// which goes back to `frames` once done with; `None`, the frame given
    /// back already, when a record's value failed its source's check (a
    /// snapshot record the host changed since the snapshot was taken), so
    /// that no chunk of it ships.
    pub fn seal<R: TransferRecord>(
        &mut self,
        frames: &mut FramePool,
        phase: ChunkPhase,
        records: impl ExactSizeIterator<Item = R> + Clone,
    ) -> Option<(u64, Vec<u8>)> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let payload = MigrationChunk::payload_len(records.clone());
        let len = MigrationChunk::wire_len(records.len(), payload);
        let header = (self.migration_id, phase, seq);
        let dst = endpoint(self.recipient, self.migration_id);
        let mut intact = false;
        let wire = self.sender.wrap_in(frames, dst, KIND_MIGRATION, len, |w| {
            intact = write(w, header, records);
        });
        if !intact {
            frames.give(wire);
            return None;
        }
        Some((seq, wire))
    }

    /// Verifies and opens wire bytes on the recipient side, in the bytes it
    /// is lent ([`ProtocolShield::unwrap`]), and checks the whole chunk
    /// before yielding its records where they lie. Returns `None` when the
    /// frame is rejected (tampered, replayed, out of order, malformed,
    /// carrying another transfer's id or more than [`CHUNK_ENTRIES`]
    /// records) — the caller treats that as a failed transfer, never as
    /// state.
    pub fn open<'a>(&mut self, wire: &'a mut [u8]) -> Option<ChunkRecords<'a>> {
        let from = endpoint(self.donor, self.migration_id);
        let Frames::One((KIND_MIGRATION, Cow::Borrowed(payload))) =
            self.receiver.unwrap(from, wire)
        else {
            return None;
        };
        let ((migration_id, ..), records) = read(payload)?;
        (migration_id == self.migration_id).then_some(records)
    }

    /// Chunks rejected by the receiving shield so far.
    #[cfg(test)]
    pub(crate) fn rejected(&self) -> u64 {
        self.receiver.rejected()
    }
}

#[cfg(test)]
mod tests {
    use recipe_core::ShieldedMessage;
    use recipe_crypto::CipherKey;
    use recipe_kv::{PartitionedKvStore, StoreConfig};

    use super::*;

    fn chunk(n: usize) -> MigrationChunk {
        MigrationChunk {
            migration_id: 7,
            phase: ChunkPhase::Snapshot,
            seq: 0,
            entries: (0..n)
                .map(|i| {
                    let key = format!("user{i:08}").into_bytes();
                    let value = format!("secret-value-{i}").into_bytes();
                    (key, value, Timestamp::new(i as u64, 1))
                })
                .collect(),
        }
    }

    /// Seals `chunk`'s records on `channel`, in the channel's next slot.
    fn seal(channel: &mut MigrationChannel, chunk: &MigrationChunk) -> Vec<u8> {
        let frames = &mut FramePool::default();
        let sealed = channel.seal(frames, chunk.phase, chunk.entries.iter());
        sealed.expect("owned records always seal").1
    }

    /// The records `channel` opens of `wire`, copied out.
    fn opened(channel: &mut MigrationChannel, wire: &mut [u8]) -> Option<Vec<ExportedEntry>> {
        let records = channel.open(wire)?;
        let entries = records.map(|(key, value, ts)| (key.to_vec(), value.to_vec(), ts));
        Some(entries.collect())
    }

    /// `body`, an encoded chunk, wrapped in the frame `channel`'s sender
    /// seals next.
    fn wrapped(channel: &mut MigrationChannel, body: &[u8]) -> Vec<u8> {
        let frames = &mut FramePool::default();
        let dst = endpoint(channel.recipient, channel.migration_id);
        channel
            .sender
            .wrap_in(frames, dst, KIND_MIGRATION, body.len(), |w| {
                w.raw(body);
            })
    }

    #[test]
    fn chunks_roundtrip_through_the_shield() {
        for confidential in [false, true] {
            let mut channel = MigrationChannel::new(0, 1, 7, confidential);
            let original = chunk(16);
            let mut wire = seal(&mut channel, &original);
            // The chunk written in its frame is the owned form's encoding,
            // wrapped: byte for byte, sealed or not.
            let mut reference = MigrationChannel::new(0, 1, 7, confidential);
            let expected = wrapped(&mut reference, &original.encode());
            assert_eq!(wire, expected, "{confidential}");
            assert_eq!(opened(&mut channel, &mut wire), Some(original.entries));
            assert_eq!(channel.rejected(), 0);
        }
    }

    #[test]
    fn sequenced_chunks_arrive_in_order_and_replays_are_rejected() {
        let mut channel = MigrationChannel::new(2, 0, 7, false);
        let first = chunk(4);
        let mut second = chunk(4);
        second.phase = ChunkPhase::CatchUp;
        let frames = &mut FramePool::default();
        let (seq, w1) = channel
            .seal(frames, first.phase, first.entries.iter())
            .unwrap();
        let (next, mut w2) = channel
            .seal(frames, second.phase, second.entries.iter())
            .unwrap();
        assert_eq!((seq, next), (0, 1));
        assert_eq!(opened(&mut channel, &mut w1.clone()), Some(first.entries));
        assert_eq!(opened(&mut channel, &mut w2), Some(second.entries));
        // Replaying a chunk is rejected by the trusted counter: a Byzantine
        // host cannot re-apply a snapshot.
        assert!(channel.open(&mut w1.clone()).is_none());
        assert!(channel.rejected() >= 1);
    }

    #[test]
    fn frames_from_an_earlier_migration_never_verify_on_a_later_one() {
        // A Byzantine host records migration 7's sealed frames between the
        // same shard pair, then tries to inject them into migration 8: the
        // per-migration channel keys make every recorded frame fail
        // verification.
        let mut first = MigrationChannel::new(0, 1, 7, false);
        let mut recorded = seal(&mut first, &chunk(4));
        let mut second = MigrationChannel::new(0, 1, 8, false);
        assert!(second.open(&mut recorded).is_none());
        assert!(second.rejected() >= 1);
    }

    #[test]
    fn tampered_chunks_are_dropped_whole() {
        let mut channel = MigrationChannel::new(0, 3, 7, false);
        let mut wire = seal(&mut channel, &chunk(8));
        let idx = wire.len() / 2;
        wire[idx] ^= 0x01;
        assert!(channel.open(&mut wire).is_none());
        assert!(channel.rejected() >= 1);
    }

    #[test]
    fn confidential_transfer_hides_keys_and_values_in_transit() {
        let mut channel = MigrationChannel::new(1, 0, 7, true);
        let original = chunk(8);
        let mut wire = seal(&mut channel, &original);
        // Neither the keys nor the values of the moving range appear on the wire.
        assert!(!wire.windows(4).any(|w| w == b"user"));
        assert!(!wire.windows(6).any(|w| w == b"secret"));
        assert_eq!(opened(&mut channel, &mut wire), Some(original.entries));
    }

    #[test]
    fn a_sealed_chunk_is_one_frame_of_its_stated_length() {
        for confidential in [false, true] {
            let mut channel = MigrationChannel::new(0, 1, 7, confidential);
            for n in [0, 1, CHUNK_ENTRIES] {
                let chunk = chunk(n);
                let payload = MigrationChunk::payload_len(&chunk.entries);
                let len = MigrationChunk::wire_len(n, payload);
                assert_eq!(chunk.encode().len(), len);
                let sealed = seal(&mut channel, &chunk).len();
                assert_eq!(
                    sealed,
                    ShieldedMessage::frame_len(len),
                    "{n}, {confidential}"
                );
            }
        }
    }

    #[test]
    fn a_chunk_of_more_than_chunk_entries_records_is_refused() {
        let mut channel = MigrationChannel::new(0, 1, 7, false);
        let full = chunk(CHUNK_ENTRIES);
        let mut wire = seal(&mut channel, &full);
        assert_eq!(opened(&mut channel, &mut wire), Some(full.entries));
        let over = chunk(CHUNK_ENTRIES + 1);
        let mut wire = seal(&mut channel, &over);
        assert!(channel.open(&mut wire).is_none());
        assert_eq!(MigrationChunk::decode(&over.encode()), None);
    }

    #[test]
    fn a_chunk_that_is_not_whole_opens_no_record() {
        // Cut short, or with a byte to spare: the shield passes both, the
        // chunk check refuses both, and no record of either comes out.
        let body = chunk(4).encode();
        for broken in [&body[..body.len() - 1], &[&body[..], &[0]].concat()[..]] {
            let mut channel = MigrationChannel::new(0, 1, 7, false);
            let mut wire = wrapped(&mut channel, broken);
            assert!(channel.open(&mut wire).is_none());
            assert_eq!(channel.rejected(), 0, "the frame itself is authentic");
        }
    }

    /// A store of 300 keys whose values vary in length, plaintext or
    /// confidential.
    fn donor_store(confidential: bool) -> PartitionedKvStore {
        let config = match confidential {
            true => StoreConfig::default().with_cipher(CipherKey::from_bytes([3; 32])),
            false => StoreConfig::default(),
        };
        let mut store = PartitionedKvStore::new(config);
        for i in 0..300u64 {
            // Written out of key order, so the snapshot's order is its own.
            let key = format!("user{:04}", i * 7 % 300);
            let value = format!("secret-{i}-{}", "x".repeat(i as usize % 40));
            let ts = Timestamp::new(i + 1, 2);
            store.write(key.as_bytes(), value.as_bytes(), ts).unwrap();
        }
        store
    }

    #[test]
    fn a_snapshot_seals_the_chunks_its_owned_export_encodes() {
        for confidential in [false, true] {
            let mut store = donor_store(confidential);
            let snapshot = store.snapshot(|_| true).unwrap();
            let exported = store.export_matching(|_| true).unwrap();
            assert_eq!(snapshot.len(), 300);
            let mut channel = MigrationChannel::new(0, 1, 7, confidential);
            let mut reference = MigrationChannel::new(0, 1, 7, confidential);
            let frames = &mut FramePool::default();
            for (i, batch) in exported.chunks(CHUNK_ENTRIES).enumerate() {
                let range = i * CHUNK_ENTRIES..i * CHUNK_ENTRIES + batch.len();
                let records = store.snapshot_records(&snapshot, range);
                let (seq, wire) = channel.seal(frames, ChunkPhase::Snapshot, records).unwrap();
                let owned = MigrationChunk {
                    migration_id: 7,
                    phase: ChunkPhase::Snapshot,
                    seq,
                    entries: batch.to_vec(),
                };
                let expected = wrapped(&mut reference, &owned.encode());
                assert_eq!(wire, expected, "chunk {i}, {confidential}");
                let opened = opened(&mut channel, &mut wire.clone());
                assert_eq!(opened.as_deref(), Some(batch), "chunk {i}, {confidential}");
                frames.give(wire);
            }

            // A range with one corrupted record takes no snapshot, so no
            // chunk of it seals.
            assert!(store.corrupt_host_value(b"user0150"));
            let failed = store.snapshot(|key| key >= b"user0100".as_slice());
            assert!(failed.is_err(), "{confidential}");
            assert!(store.snapshot(|key| key < b"user0150".as_slice()).is_ok());
            // A record the host changes after the snapshot was taken fails
            // the check of its copy in the frame: its chunk does not seal,
            // the one before it does.
            let (one, two) = (0..CHUNK_ENTRIES, CHUNK_ENTRIES..2 * CHUNK_ENTRIES);
            let first = store.snapshot_records(&snapshot, one);
            assert!(channel.seal(frames, ChunkPhase::Snapshot, first).is_some());
            let second = store.snapshot_records(&snapshot, two);
            assert!(channel.seal(frames, ChunkPhase::Snapshot, second).is_none());
        }
    }
}
