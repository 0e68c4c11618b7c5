//! CFT replication protocols, native and Recipe-transformed.
//!
//! The paper transforms one protocol from each cell of its taxonomy (Table 1):
//!
//! | ordering   | leader-based                    | leaderless                      |
//! |------------|---------------------------------|---------------------------------|
//! | total      | Raft → [`raft::RaftReplica`]    | AllConcur → [`allconcur::AllConcurReplica`] |
//! | per-key    | Chain Replication → [`chain::ChainReplica`] | ABD → [`abd::AbdReplica`] |
//!
//! Each protocol is one type — its core, a [`replica::CftProtocol`]: states,
//! rounds and messages, nothing else — and each replica type above is an
//! alias of the one wrapper, [`replica::RecipeReplica`], around it. The
//! wrapper's [`shield::ProtocolMode`] alone selects how the core's messages
//! travel:
//!
//! * **Native** — the unmodified CFT protocol: plain message encoding, no
//!   authentication layer, intended for the crash-only fault model. This is the
//!   baseline of the Figure 6a overhead experiment.
//! * **Recipe** (`R-` prefix) — the same core, but every message goes
//!   through `shield_msg` / `verify_msg`: MAC under the attestation-provisioned
//!   channel key, trusted per-channel counter, optional payload encryption. This is
//!   the transformation of Listing 1: the protocol's states, rounds and message
//!   complexity are untouched, and each core's [`contract::Contract`] is checked
//!   in both modes against the one statement of its frames by role.
//!
//! What is not protocol logic is written once, in the wrapper: the
//! [`shield::ProtocolShield`], the [`batch::Batcher`], the
//! [`store::ReplicaStore`] — the KV store with two-phase-commit
//! participation, key-range state transfer and the rollback-protected restart
//! — the locked-key check and the recovery hooks of [`recipe_sim::Replica`],
//! so the same code runs in unit tests, in the integration tests, in the
//! examples and in the benchmark harness. [`registry::Protocol`] names every
//! protocol a run can select, and its [`contract::Contract`] states what the
//! protocol promises: replicas per fault, batching, read path and, role by
//! role, the frames an operation costs each replica, from which the group's
//! frames per operation and its capacity follow.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod abd;
mod allconcur;
mod batch;
mod chain;
mod contract;
mod migration;
mod raft;
mod registry;
mod replica;
mod shield;
mod store;
mod txn;

pub use abd::{Abd, AbdMsg, AbdReplica};
pub use allconcur::{AllConcur, AllConcurMsg, AllConcurReplica};
pub use batch::{BatchConfig, Batcher};
pub use chain::{Chain, ChainMsg, ChainReplica};
pub use contract::{
    Capacity, Consistency, Contract, Count, Framing, Messages, ReadPath, Role, Traffic, Wire,
};
pub use migration::{
    ChunkPhase, ChunkRecord, ChunkRecords, MigrationChannel, MigrationChunk, TransferRecord,
    CHUNK_ENTRIES, ENDPOINT_IDS as MIGRATION_ENDPOINT_IDS, MAX_SHARDS,
};
pub use raft::{Raft, RaftMsg, RaftReplica};
pub use registry::{Protocol, ProtocolVisitor};
pub use replica::{CftProtocol, Handle, RecipeReplica};
pub use shield::{Frames, FramesIter, ProtocolMode, ProtocolShield};
pub use store::{ReplicaStore, Stamping, StoreReplica, TxnVote};
pub use txn::{TxnLane, TxnLanes, ENDPOINT_IDS as TXN_ENDPOINT_IDS, MAX_CLIENTS};

use recipe_core::Membership;

/// Convenience: builds a full cluster of replicas of one protocol.
///
/// `make` receives `(node_id, membership)` and returns the replica. Used by the
/// benchmark harness and the examples.
pub fn build_cluster<R>(n: usize, f: usize, make: impl Fn(u64, Membership) -> R) -> Vec<R> {
    let membership = Membership::of_size(n, f);
    (0..n as u64)
        .map(|id| make(id, membership.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ops::RangeInclusive;

    use recipe_core::Operation;
    use recipe_sim::{Replica, SimCluster, StepOutcome};

    /// Steps `cluster` through `rounds` rounds of a fixed schedule: each
    /// round submits `op(client, round)` for every one of `clients` clients
    /// at the current time and ends once all of them are answered. The run
    /// then goes on until the traffic of the last round has landed.
    pub(crate) fn run_rounds<R: Replica>(
        cluster: &mut SimCluster<R>,
        clients: u64,
        rounds: u64,
        op: impl Fn(u64, u64) -> Operation,
    ) {
        cluster.seed_initial_events();
        step_rounds(cluster, clients, 1..=rounds, op);
        cluster.run_until(cluster.now_ns() + 3_000_000);
    }

    /// Steps `cluster` through `rounds` of [`run_rounds`]'s schedule.
    pub(crate) fn step_rounds<R: Replica>(
        cluster: &mut SimCluster<R>,
        clients: u64,
        rounds: RangeInclusive<u64>,
        op: impl Fn(u64, u64) -> Operation,
    ) {
        for round in rounds {
            for client in 0..clients {
                let now = cluster.now_ns();
                assert!(cluster.submit_at(now, client, round, op(client, round)));
            }
            let mut answered = 0;
            while answered < clients {
                assert_eq!(cluster.step(), StepOutcome::Processed, "round {round}");
                answered += cluster.drain_completions().len() as u64;
            }
        }
    }

    #[test]
    fn build_cluster_assigns_sequential_ids() {
        let cluster = build_cluster(3, 1, |id, membership| {
            raft::RaftReplica::recipe(id, membership, false)
        });
        assert_eq!(cluster.len(), 3);
        for (i, replica) in cluster.iter().enumerate() {
            assert_eq!(replica.id().0, i as u64);
        }
    }
}
