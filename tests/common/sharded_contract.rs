//! What a sharded run's two-phase commit and migrations cost, as closed
//! forms checked on its statistics: the sharded layer's counterpart of each
//! protocol's `Contract`.
//!
//! - 2PC frames: [`FRAMES_PER_PARTICIPANT`] per participant of every
//!   attempt (prepare, vote, decision, ack), committed or aborted, and one
//!   resend per frame the network dropped.
//! - 2PC installs: on a run no replica crashed in, every committed write of
//!   a transaction is installed on the `n − 1` followers of its group.
//! - 2PC endpoints and lanes: one endpoint per client and per shard, one
//!   lane per (client, shard) pair, each launched once for the run.
//! - Migration rounds: a run starts at most [`MIGRATIONS_PER_RUN`]
//!   migrations, and each ships a snapshot round, at most
//!   [`MAX_CATCHUP_ROUNDS`] catch-up rounds and one final delta.
//! - Migration chunks: a round of `k` records ships `⌈k / C⌉` chunks of
//!   one to [`CHUNK_ENTRIES`] = `C` records. With `R` records in
//!   `K = migrations_started + catchup_rounds` rounds, `K ≤ chunks ≤ K +
//!   ⌊R / C⌋` and `chunks ≤ R ≤ C · chunks`. A round that ships no record
//!   breaks the first bound.
//! - Migration bytes: a chunk is one shielded frame, sealed or not, of
//!   `ShieldedMessage::frame_len(MigrationChunk::wire_len(n, b))` bytes for
//!   `n` records of `b` key and value bytes. So the snapshot and catch-up
//!   bytes are `chunks` empty frames plus `ENTRY_MIN_LEN + s` per record
//!   where every record's key and value total `s` bytes, and at least
//!   `chunks` empty frames plus `ENTRY_MIN_LEN` per record anywhere.

use recipe::core::ShieldedMessage;
use recipe::protocols::{MigrationChunk, CHUNK_ENTRIES};
use recipe::shard::{
    DeploymentSpec, ShardedRunStats, FRAMES_PER_PARTICIPANT, MAX_CATCHUP_ROUNDS, MIGRATIONS_PER_RUN,
};

/// Checks a run of `spec` against the closed forms above; `record_len` is
/// the key plus value size every record of the run shares, where it does,
/// and makes the bytes form exact. The installs form counts writes, so
/// every transaction the run issued must write only (as `group_txn`, the
/// driver pins' transactions and the grid's write-only stream do); a run
/// with a crash plan on any group is held to the other forms alone, since a
/// down follower misses its installs.
pub fn check_sharded_contract(
    spec: &DeploymentSpec,
    stats: &ShardedRunStats,
    record_len: Option<usize>,
) -> Result<(), String> {
    let txn = &stats.txn;
    let frames = FRAMES_PER_PARTICIPANT * txn.participants + txn.frames_dropped;
    if txn.frames_sent != frames {
        return Err(format!(
            "{} 2PC frames sent, {FRAMES_PER_PARTICIPANT} × {} participants + {} dropped = {frames}",
            txn.frames_sent, txn.participants, txn.frames_dropped
        ));
    }
    let shards = spec.shards() as u64;
    let crash_free = (0..spec.shards()).all(|s| spec.policy_for(s).crash_plan.entries.is_empty());
    let followers = spec.replicas_per_shard() as u64 - 1;
    if crash_free && txn.participant_installs != followers * txn.committed_ops {
        return Err(format!(
            "{} installs of {} committed writes on {followers} followers each",
            txn.participant_installs, txn.committed_ops
        ));
    }
    let clients = spec.client_model().clients as u64;
    if txn.endpoints > clients + shards || txn.lanes > clients * shards {
        return Err(format!(
            "{} endpoints and {} lanes for {clients} clients and {shards} shards",
            txn.endpoints, txn.lanes
        ));
    }

    let m = &stats.migration;
    if m.migrations_started > MIGRATIONS_PER_RUN
        || m.catchup_rounds > (MAX_CATCHUP_ROUNDS + 1) * m.migrations_started
    {
        return Err(format!(
            "{} migrations with {} catch-up rounds, at most {MIGRATIONS_PER_RUN} of at most \
             {MAX_CATCHUP_ROUNDS} + 1 each",
            m.migrations_started, m.catchup_rounds
        ));
    }
    let chunk = CHUNK_ENTRIES as u64;
    let records = m.snapshot_entries + m.catchup_entries;
    let rounds = m.migrations_started + m.catchup_rounds;
    let within = rounds <= m.chunks && m.chunks <= rounds + records / chunk;
    if !within || m.chunks > records || records > chunk * m.chunks {
        return Err(format!(
            "{} migration chunks for {records} records in {rounds} rounds of chunks of 1 to \
             {chunk} records",
            m.chunks
        ));
    }
    let bytes = m.snapshot_bytes + m.catchup_bytes;
    let empty_frame = ShieldedMessage::frame_len(MigrationChunk::wire_len(0, 0)) as u64;
    let framing = m.chunks * empty_frame + records * MigrationChunk::ENTRY_MIN_LEN as u64;
    let exact = record_len.map(|s| framing + records * s as u64);
    if exact.is_some_and(|form| bytes != form) || bytes < framing {
        return Err(format!(
            "{bytes} migration bytes for {} chunks of {empty_frame} framing bytes and \
             {records} records of {} + {record_len:?} bytes",
            m.chunks,
            MigrationChunk::ENTRY_MIN_LEN
        ));
    }
    Ok(())
}
