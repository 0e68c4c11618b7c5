//! Sharded keyspace subsystem: a consistent-hash router over many independent
//! replica groups.
//!
//! The paper evaluates one Recipe-transformed replica group at a time; a
//! production middleware partitions the keyspace across many such groups so
//! aggregate throughput is not capped by a single leader. This crate provides
//! that scale-out layer for the deterministic simulator:
//!
//! * [`DeploymentSpec`] / [`ShardPolicy`] — the declarative deployment
//!   surface: workspace-level defaults plus per-shard policy overrides
//!   (confidentiality, batching, cost profile, fault plan), consumed by
//!   [`ShardedCluster::build`];
//! * [`ShardRouter`] — consistent-hash placement of keys onto shards
//!   (virtual nodes, configurable shard count, deterministic and stable under
//!   shard-count growth);
//! * [`ShardedCluster`] — owns N replica groups (each its own protocol
//!   instance, policy, fault plan and cost profiles), routes every operation
//!   by key, interleaves the per-shard event loops on one virtual clock and
//!   drives a single global closed-loop client population over all groups —
//!   the tree's one client loop, which runs a single group as one shard;
//! * [`ShardedRunStats`] — total and per-shard throughput, latency
//!   percentiles over all completions, message counters and a load-imbalance
//!   factor.
//!
//! Shards are fully independent replica groups: confidentiality, fault
//! tolerance and agreement are per-group properties, unchanged by sharding —
//! which is exactly why confidentiality can be chosen *per shard* (sensitive
//! key ranges pay the encryption cost, the rest run plaintext). Cross-shard
//! transactions (`txn`) and online rebalancing (`migration`) build on the
//! placement primitives here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod driver;
mod migration;
mod router;
mod sharded;
mod spec;
mod txn;

pub use driver::{Client, Reply};
pub use migration::{MigrationStats, RebalanceConfig, MAX_CATCHUP_ROUNDS, MIGRATIONS_PER_RUN};
pub use router::{RangeMove, RouteDecision, RouterVersion, ShardRouter};
pub use sharded::{
    ClientModel, PoolCounts, ShardedCluster, ShardedConfig, ShardedRunStats, TimelineBucket,
};
pub use spec::{DeploymentSpec, ResolvedShardPolicy, ShardPolicy};
pub use txn::{TxnStats, FRAMES_PER_PARTICIPANT};

/// The identity on a generated request, kept because `wall_bench`'s replay
/// calls it (ROADMAP item 32 deletes it).
pub fn request_from_workload(request: recipe_core::Request) -> recipe_core::Request {
    request
}
