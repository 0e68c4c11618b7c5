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
//! [`recipe_sim::RangeEntry`] records tagged with the migration id, the phase
//! ([`ChunkPhase`]) and a per-migration sequence number. Chunks are bounded so
//! staging them inside the enclave does not blow the EPC (the cost model
//! charges EPC pressure per staged chunk, mirroring §B.3's batch-size
//! trade-off).

use std::ops::Range;

use recipe_core::wire::{tag, Reader, Writer};
use recipe_core::{ConfidentialityMode, Membership};
use recipe_net::NodeId;
use recipe_sim::RangeEntry;

use crate::shield::ProtocolShield;

/// Message kind tag for migration chunks on the shield channel.
const KIND_MIGRATION: u16 = 0x4D49; // "MI"

/// Base of the node-id space used by migration endpoints, far above any
/// replica id: each shard leader exposes one state-transfer endpoint, keyed
/// per (shard pair, direction) like any other shielded channel.
const ENDPOINT_BASE: u64 = 0xE000_0000;

/// Most shards a deployment may have (`DeploymentSpec::validate` refuses
/// more): the shard index is the low part of a migration endpoint id and of
/// a 2PC participant endpoint id, and must not run into the next one.
pub const MAX_SHARDS: usize = 4_096;

/// Most migrations whose endpoints fit [`ENDPOINT_IDS`]; a run makes a
/// handful.
const MAX_MIGRATIONS: u64 = 1 << 32;

/// The node ids migration endpoints take.
pub const ENDPOINT_IDS: Range<u64> =
    ENDPOINT_BASE..ENDPOINT_BASE + MAX_MIGRATIONS * MAX_SHARDS as u64;

/// Which migration phase a chunk belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkPhase {
    /// Sealed snapshot of the moving range at the cut point.
    Snapshot,
    /// Replay of writes committed on the donor after the snapshot cut.
    CatchUp,
    /// Final drained delta shipped at cutover (the last catch-up round).
    Final,
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
    pub entries: Vec<RangeEntry>,
}

/// Wire bytes of a [`RangeEntry`] with an empty key and value: two
/// timestamp halves and two length prefixes.
const ENTRY_MIN_LEN: usize = 2 * 8 + 2 * 4;

impl MigrationChunk {
    /// Total key+value payload bytes carried by this chunk.
    pub fn payload_len(&self) -> usize {
        self.entries.iter().map(RangeEntry::payload_len).sum()
    }

    /// Wire form: `tag | migration_id | phase u8 | seq | count u32 |
    /// (ts_logical, ts_node, key, value)*`.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::tagged(
            tag::MIGRATION,
            1 + 8 + 1 + 8 + 4 + self.entries.len() * ENTRY_MIN_LEN + self.payload_len(),
        );
        w.u64(self.migration_id)
            .u8(match self.phase {
                ChunkPhase::Snapshot => 0,
                ChunkPhase::CatchUp => 1,
                ChunkPhase::Final => 2,
            })
            .u64(self.seq)
            .count(self.entries.len());
        for entry in &self.entries {
            w.u64(entry.ts_logical)
                .u64(entry.ts_node)
                .bytes(&entry.key)
                .bytes(&entry.value);
        }
        w.finish()
    }

    /// Parses a chunk; `None` on anything but one well-formed encoding.
    pub fn decode(bytes: &[u8]) -> Option<MigrationChunk> {
        let mut r = Reader::tagged(bytes, tag::MIGRATION)?;
        let migration_id = r.u64()?;
        let phase = match r.u8()? {
            0 => ChunkPhase::Snapshot,
            1 => ChunkPhase::CatchUp,
            2 => ChunkPhase::Final,
            _ => return None,
        };
        let seq = r.u64()?;
        let entries = r.seq(ENTRY_MIN_LEN, |r| {
            let (ts_logical, ts_node) = (r.u64()?, r.u64()?);
            Some(RangeEntry {
                key: r.bytes()?.to_vec(),
                value: r.bytes()?.to_vec(),
                ts_logical,
                ts_node,
            })
        })?;
        r.finish()?;
        Some(MigrationChunk {
            migration_id,
            phase,
            seq,
            entries,
        })
    }
}

/// The node id of shard `shard`'s state-transfer endpoint **for one
/// migration**: the migration id is folded into the endpoint id, so every
/// migration derives fresh channel keys. Without this, a later migration
/// between the same shard pair would reuse the same keys with a reset
/// counter — and sealed frames recorded from an earlier migration would
/// verify again.
fn endpoint(shard: usize, migration_id: u64) -> NodeId {
    NodeId(ENDPOINT_BASE + migration_id * MAX_SHARDS as u64 + shard as u64)
}

/// A one-directional shielded channel between a donor and a recipient shard
/// leader, used for one migration. Owns both endpoint shields (the simulation
/// drives both sides from the migration controller); the channel keys derive
/// from the deployment master secret exactly like replica channels, and the
/// per-channel counter is fresh per migration.
pub struct MigrationChannel {
    donor: usize,
    recipient: usize,
    migration_id: u64,
    sender: ProtocolShield,
    receiver: ProtocolShield,
}

impl MigrationChannel {
    /// Opens the channel for migration `migration_id` from `donor` to
    /// `recipient`. With a [`ConfidentialityMode::Confidential`] policy (or a
    /// legacy `true`), chunk payloads are AEAD-encrypted in transit — a
    /// policy-aware controller passes the *stricter* of the donor's and the
    /// recipient's per-shard modes, so a range never travels in plaintext
    /// when either side of the move treats it as sensitive. Channel keys are
    /// derived per migration (the migration id is folded into the endpoint
    /// labels), so frames sealed for one migration never verify on another.
    ///
    /// # Panics
    /// Panics if donor and recipient are the same shard.
    pub fn new(
        donor: usize,
        recipient: usize,
        migration_id: u64,
        confidentiality: impl Into<ConfidentialityMode>,
    ) -> Self {
        let confidentiality = confidentiality.into();
        assert_ne!(donor, recipient, "a migration needs two distinct shards");
        assert!(
            donor.max(recipient) < MAX_SHARDS && migration_id < MAX_MIGRATIONS,
            "migration {migration_id} between shards {donor} and {recipient} has no endpoint ids"
        );
        let membership = Membership::new(
            vec![
                endpoint(donor, migration_id),
                endpoint(recipient, migration_id),
            ],
            0,
        );
        MigrationChannel {
            donor,
            recipient,
            migration_id,
            sender: ProtocolShield::recipe(
                endpoint(donor, migration_id),
                &membership,
                confidentiality,
            ),
            receiver: ProtocolShield::recipe(
                endpoint(recipient, migration_id),
                &membership,
                confidentiality,
            ),
        }
    }

    /// Whether chunk payloads are AEAD-encrypted in transit on this channel.
    pub fn is_confidential(&self) -> bool {
        self.sender.mode().confidentiality().is_confidential()
    }

    /// Seals one chunk into wire bytes on the donor side.
    ///
    /// # Panics
    /// Panics if the chunk belongs to a different migration than the channel.
    pub fn seal(&mut self, chunk: &MigrationChunk) -> Vec<u8> {
        assert_eq!(
            chunk.migration_id, self.migration_id,
            "chunk sealed on the wrong migration's channel"
        );
        self.sender.wrap(
            endpoint(self.recipient, self.migration_id),
            KIND_MIGRATION,
            &chunk.encode(),
        )
    }

    /// Verifies and opens wire bytes on the recipient side, in the bytes it
    /// is lent ([`ProtocolShield::unwrap`]). Returns `None` when the frame is
    /// rejected (tampered, replayed, out of order, or carrying another
    /// migration's id) — the migration controller treats that as a failed
    /// transfer, never as state.
    pub fn open(&mut self, wire: &mut [u8]) -> Option<MigrationChunk> {
        let frames = self
            .receiver
            .unwrap(endpoint(self.donor, self.migration_id), wire);
        let (kind, payload) = frames.as_slice().first()?;
        if *kind != KIND_MIGRATION {
            return None;
        }
        let chunk = MigrationChunk::decode(payload)?;
        (chunk.migration_id == self.migration_id).then_some(chunk)
    }

    /// Chunks rejected by the receiving shield so far.
    #[cfg(test)]
    pub(crate) fn rejected(&self) -> u64 {
        self.receiver.rejected()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(n: usize) -> MigrationChunk {
        MigrationChunk {
            migration_id: 7,
            phase: ChunkPhase::Snapshot,
            seq: 0,
            entries: (0..n)
                .map(|i| RangeEntry {
                    key: format!("user{i:08}").into_bytes(),
                    value: format!("secret-value-{i}").into_bytes(),
                    ts_logical: i as u64,
                    ts_node: 1,
                })
                .collect(),
        }
    }

    #[test]
    fn chunks_roundtrip_through_the_shield() {
        let mut channel = MigrationChannel::new(0, 1, 7, false);
        let original = chunk(16);
        let mut wire = channel.seal(&original);
        assert_eq!(channel.open(&mut wire), Some(original));
        assert_eq!(channel.rejected(), 0);
    }

    #[test]
    fn sequenced_chunks_arrive_in_order_and_replays_are_rejected() {
        let mut channel = MigrationChannel::new(2, 0, 7, false);
        let mut first = chunk(4);
        let mut second = chunk(4);
        first.seq = 0;
        second.seq = 1;
        second.phase = ChunkPhase::CatchUp;
        let w1 = channel.seal(&first);
        let mut w2 = channel.seal(&second);
        assert_eq!(channel.open(&mut w1.clone()), Some(first));
        assert_eq!(channel.open(&mut w2), Some(second));
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
        // verification, and a forged chunk body carrying the wrong migration
        // id is rejected even on its own channel.
        let mut first = MigrationChannel::new(0, 1, 7, false);
        let mut recorded = first.seal(&chunk(4));
        let mut second = MigrationChannel::new(0, 1, 8, false);
        assert_eq!(second.open(&mut recorded), None);
        assert!(second.rejected() >= 1);
    }

    #[test]
    #[should_panic(expected = "wrong migration")]
    fn sealing_a_foreign_migrations_chunk_is_a_caller_bug() {
        let mut channel = MigrationChannel::new(0, 1, 8, false);
        let mut stale = chunk(1);
        stale.migration_id = 9;
        channel.seal(&stale);
    }

    #[test]
    fn tampered_chunks_are_dropped_whole() {
        let mut channel = MigrationChannel::new(0, 3, 7, false);
        let mut wire = channel.seal(&chunk(8));
        let idx = wire.len() / 2;
        wire[idx] ^= 0x01;
        assert_eq!(channel.open(&mut wire), None);
        assert!(channel.rejected() >= 1);
    }

    #[test]
    fn confidential_transfer_hides_keys_and_values_in_transit() {
        let mut channel = MigrationChannel::new(1, 0, 7, true);
        let original = chunk(8);
        let mut wire = channel.seal(&original);
        // Neither the keys nor the values of the moving range appear on the wire.
        assert!(!wire.windows(4).any(|w| w == b"user"));
        assert!(!wire.windows(6).any(|w| w == b"secret"));
        assert_eq!(channel.open(&mut wire), Some(original));
    }

    #[test]
    fn payload_len_counts_keys_and_values() {
        let c = chunk(2);
        assert_eq!(
            c.payload_len(),
            c.entries
                .iter()
                .map(|e| e.key.len() + e.value.len())
                .sum::<usize>()
        );
    }
}
