//! What a run's two-phase commit costs, as closed forms checked on its
//! statistics: the 2PC counterpart of each protocol's `Contract`.
//!
//! - Frames: [`FRAMES_PER_PARTICIPANT`] per participant of every attempt
//!   (prepare, vote, decision, ack), committed or aborted, and one resend
//!   per frame the network dropped.
//! - Installs: on a run no replica crashed in, every committed write of a
//!   transaction is installed on the `n − 1` followers of its group.
//! - Endpoints and lanes: one endpoint per client and per shard, one lane
//!   per (client, shard) pair, each launched once for the run.

use recipe::shard::{DeploymentSpec, ShardedRunStats, FRAMES_PER_PARTICIPANT};

/// Checks a run of `spec` against the closed forms above. The installs
/// form counts writes, so every transaction the run issued must write only
/// (as `group_txn`, the driver pins' transactions and the grid's
/// write-only stream do); a run with a crash plan on any group is held to
/// the other forms alone, since a down follower misses its installs.
pub fn check_txn_contract(spec: &DeploymentSpec, stats: &ShardedRunStats) -> Result<(), String> {
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
    Ok(())
}
