//! Demonstrates Recipe's defence against a Byzantine network and a Byzantine host:
//! replayed/duplicated traffic is rejected by the non-equivocation layer, and host
//! memory corruption is caught by the partitioned KV store's integrity checks.
//!
//! ```bash
//! cargo run --example byzantine_injection
//! ```

use recipe::core::Operation;
use recipe::kv::{KvError, PartitionedKvStore, StoreConfig, Timestamp};
use recipe::net::FaultPlan;
use recipe::protocols::RaftReplica;
use recipe::shard::{DeploymentSpec, ShardedCluster};
use recipe_net::NodeId;

fn main() {
    // --- Byzantine network: duplicates and replays of authenticated traffic. ---
    let spec = DeploymentSpec::new(1, 3)
        .with_clients(8, 300)
        .with_fault_plan(FaultPlan {
            replay_probability: 0.08,
            duplicate_probability: 0.08,
            ..FaultPlan::default()
        });
    let mut cluster = ShardedCluster::<RaftReplica>::build(spec);
    let stats = cluster.run_requests(|client, seq| {
        let key = format!("acct{:03}", (client + seq) % 50).into_bytes();
        let value = format!("v{seq}").into_bytes();
        Some(Operation::Put { key, value }.into())
    });
    let stats = stats.total;
    let group = cluster.shard(0);
    let rejected: u64 = (0..3)
        .map(|id| group.replica(NodeId(id)).rejected_messages())
        .sum();
    println!(
        "network adversary: {} ops committed, {} messages replayed/duplicated by the \
         adversary, {} rejected by the non-equivocation layer",
        stats.committed, stats.messages_replayed, rejected
    );
    assert!(rejected > 0, "the non-equivocation layer rejected nothing");

    // --- Byzantine host: corrupt the value bytes behind the enclave's back. ---
    let mut store = PartitionedKvStore::new(StoreConfig::default());
    store
        .write(b"balance", b"1000", Timestamp::new(1, 0))
        .unwrap();
    store.corrupt_host_value(b"balance");
    match store.get(b"balance") {
        Err(KvError::IntegrityViolation { .. }) => {
            println!("host adversary: tampered value detected by the integrity check")
        }
        other => println!("unexpected result: {other:?}"),
    }
}
