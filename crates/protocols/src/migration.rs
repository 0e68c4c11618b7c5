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
//! The wire unit is a [`MigrationChunk`]: a bounded batch of
//! [`recipe_kv::ExportedEntry`] records tagged with the migration id, the phase
//! ([`ChunkPhase`]) and a per-migration sequence number. Chunks are bounded so
//! staging them inside the enclave does not blow the EPC (the cost model
//! charges EPC pressure per staged chunk, mirroring §B.3's batch-size
//! trade-off).

use std::borrow::Cow;
use std::ops::Range;

use recipe_core::wire::{tag, Reader, Writer};
use recipe_core::{ConfidentialityMode, FramePool, Membership};
use recipe_kv::{ExportedEntry, Timestamp};
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

/// One bounded batch of range records in flight between shard leaders.
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

impl MigrationChunk {
    /// Wire bytes of a record with an empty key and value: two timestamp
    /// halves and two length prefixes.
    pub const ENTRY_MIN_LEN: usize = 2 * 8 + 2 * 4;

    /// Key and value bytes of `entries`: what a chunk of them carries
    /// beyond [`MigrationChunk::ENTRY_MIN_LEN`] a record.
    pub fn payload_len(entries: &[ExportedEntry]) -> usize {
        entries
            .iter()
            .map(|(key, value, _)| key.len() + value.len())
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
        write(&mut w, header, &self.entries);
        w.finish()
    }

    /// Parses a chunk; `None` on anything but one well-formed encoding.
    pub fn decode(bytes: &[u8]) -> Option<MigrationChunk> {
        let ((migration_id, phase, seq), records) = read(bytes)?;
        let entries = records
            .into_iter()
            .map(|(key, value, ts)| (key.to_vec(), value.to_vec(), ts));
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

/// Writes [`MigrationChunk::encode`]'s bytes of `entries` under `header`
/// to `w`.
fn write(w: &mut Writer, (migration_id, phase, seq): Header, entries: &[ExportedEntry]) {
    w.u8(tag::MIGRATION)
        .u64(migration_id)
        .u8(phase as u8)
        .u64(seq)
        .count(entries.len());
    for (key, value, ts) in entries {
        w.u64(ts.logical).u64(ts.node).bytes(key).bytes(value);
    }
}

/// Reads a chunk's header and its records where they lie; `None` on
/// anything but one well-formed encoding of at most [`CHUNK_ENTRIES`]
/// records.
fn read(bytes: &[u8]) -> Option<(Header, Vec<ChunkRecord<'_>>)> {
    let mut r = Reader::tagged(bytes, tag::MIGRATION)?;
    let migration_id = r.u64()?;
    let phases = [ChunkPhase::Snapshot, ChunkPhase::CatchUp, ChunkPhase::Final];
    let phase = *phases.get(usize::from(r.u8()?))?;
    let seq = r.u64()?;
    let records = r.seq(MigrationChunk::ENTRY_MIN_LEN, |r| {
        let ts = Timestamp::new(r.u64()?, r.u64()?);
        Some((r.bytes()?, r.bytes()?, ts))
    })?;
    r.finish()?;
    (records.len() <= CHUNK_ENTRIES).then_some(((migration_id, phase, seq), records))
}

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
/// shields (the simulation drives both sides) and the buffers its frames
/// are built in; the channel keys derive from the deployment master secret
/// exactly like replica channels, and the per-channel counter is fresh per
/// transfer.
pub struct MigrationChannel {
    donor: usize,
    recipient: usize,
    migration_id: u64,
    sender: ProtocolShield,
    receiver: ProtocolShield,
    next_seq: u64,
    frames: FramePool,
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
            frames: FramePool::default(),
        }
    }

    /// Whether chunk payloads are AEAD-encrypted in transit on this channel.
    pub fn is_confidential(&self) -> bool {
        self.sender.mode().confidentiality().is_confidential()
    }

    /// Seals the next chunk, of `entries` in `phase`, into wire bytes on the
    /// donor side: the chunk is encoded from the records where they lie
    /// straight into the body of its frame, a buffer the channel reuses, and
    /// sealed there. Returns the chunk's sequence number and the frame,
    /// which goes back to the channel once done with
    /// ([`MigrationChannel::recycle`]).
    pub fn seal(&mut self, phase: ChunkPhase, entries: &[ExportedEntry]) -> (u64, Vec<u8>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let payload = MigrationChunk::payload_len(entries);
        let len = MigrationChunk::wire_len(entries.len(), payload);
        let header = (self.migration_id, phase, seq);
        let dst = endpoint(self.recipient, self.migration_id);
        let wire = self
            .sender
            .wrap_in(&mut self.frames, dst, KIND_MIGRATION, len, |w| {
                write(w, header, entries);
            });
        (seq, wire)
    }

    /// Verifies and opens wire bytes on the recipient side, in the bytes it
    /// is lent ([`ProtocolShield::unwrap`]), and reads the chunk's records
    /// where they lie. Returns `None` when the frame is rejected (tampered,
    /// replayed, out of order, carrying another transfer's id or more than
    /// [`CHUNK_ENTRIES`] records) — the caller treats that as a failed
    /// transfer, never as state.
    pub fn open<'a>(&mut self, wire: &'a mut [u8]) -> Option<Vec<ChunkRecord<'a>>> {
        let from = endpoint(self.donor, self.migration_id);
        let Frames::One((KIND_MIGRATION, Cow::Borrowed(payload))) =
            self.receiver.unwrap(from, wire)
        else {
            return None;
        };
        let ((migration_id, ..), records) = read(payload)?;
        (migration_id == self.migration_id).then_some(records)
    }

    /// Gives back a frame [`MigrationChannel::seal`] built, for the next
    /// chunk to be built in.
    pub fn recycle(&mut self, wire: Vec<u8>) {
        self.frames.give(wire);
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
        channel.seal(chunk.phase, &chunk.entries).1
    }

    /// The records `channel` opens of `wire`, copied out.
    fn opened(channel: &mut MigrationChannel, wire: &mut [u8]) -> Option<Vec<ExportedEntry>> {
        let records = channel.open(wire)?.into_iter();
        let entries = records.map(|(key, value, ts)| (key.to_vec(), value.to_vec(), ts));
        Some(entries.collect())
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
            let body = original.encode();
            let frames = &mut FramePool::default();
            let dst = endpoint(1, 7);
            let expected = reference
                .sender
                .wrap_in(frames, dst, KIND_MIGRATION, body.len(), |w| {
                    w.raw(&body);
                });
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
        let (seq, w1) = channel.seal(first.phase, &first.entries);
        let (next, mut w2) = channel.seal(second.phase, &second.entries);
        assert_eq!((seq, next), (0, 1));
        assert_eq!(opened(&mut channel, &mut w1.clone()), Some(first.entries));
        assert_eq!(opened(&mut channel, &mut w2), Some(second.entries));
        // Replaying a chunk is rejected by the trusted counter: a Byzantine
        // host cannot re-apply a snapshot.
        assert_eq!(channel.open(&mut w1.clone()), None);
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
        assert_eq!(second.open(&mut recorded), None);
        assert!(second.rejected() >= 1);
    }

    #[test]
    fn tampered_chunks_are_dropped_whole() {
        let mut channel = MigrationChannel::new(0, 3, 7, false);
        let mut wire = seal(&mut channel, &chunk(8));
        let idx = wire.len() / 2;
        wire[idx] ^= 0x01;
        assert_eq!(channel.open(&mut wire), None);
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
        assert_eq!(channel.open(&mut wire), None);
        assert_eq!(MigrationChunk::decode(&over.encode()), None);
    }
}
