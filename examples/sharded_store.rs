//! Sharded store: partition the keyspace over four independent R-Raft groups
//! behind a consistent-hash router and drive cross-shard client traffic.
//!
//! ```bash
//! cargo run --example sharded_store
//! ```

use recipe::protocols::RaftReplica;
use recipe::shard::{DeploymentSpec, ShardedCluster};
use recipe::workload::WorkloadSpec;
use std::cell::RefCell;

fn main() {
    // 1. One declarative spec: four shards, each an independent 3-replica
    //    R-Raft group with its own leader, attestation domain and fault
    //    budget (f = 1 per shard). The spec replaces the old three-step
    //    (replica closure + uniform config + cluster constructor).
    const SHARDS: usize = 4;
    let spec = DeploymentSpec::new(SHARDS, 3).with_clients(48, 2_000);
    let mut cluster = ShardedCluster::<RaftReplica>::build(spec);

    // 2. Show where keys land. Always ask the *cluster's* router: it is the
    //    authoritative placement, including any rebalancing epoch bumps — a
    //    separately-constructed router would silently diverge from the real
    //    placement after the first online migration.
    for key in ["user00000001", "user00004711", "user00002642"] {
        println!(
            "{key} -> shard {}",
            cluster.router().shard_for_key(key.as_bytes())
        );
    }

    // 3. One global closed-loop client population issues a YCSB Zipfian
    //    workload; every operation is routed by key, so consecutive operations
    //    of one client hop across shards (cross-shard traffic).
    let generator = RefCell::new(WorkloadSpec::ycsb(0.7, 256).generator());
    let stats =
        cluster.run_requests(move |_client, _seq| Some(generator.borrow_mut().next_op().into()));

    // 4. Aggregate and per-shard figures.
    println!(
        "\ntotal: {} ops ({} reads / {} writes) at {:.0} ops/s, mean {:.1} us, p99 {:.1} us",
        stats.total.committed,
        stats.total.committed_reads,
        stats.total.committed_writes,
        stats.total.throughput_ops,
        stats.total.mean_latency_us,
        stats.total.p99_latency_us,
    );
    for (shard, s) in stats.per_shard.iter().enumerate() {
        println!(
            "shard {shard}: {:>5} ops at {:>8.0} ops/s, mean {:>7.1} us ({} messages)",
            s.committed, s.throughput_ops, s.mean_latency_us, s.messages_delivered
        );
    }
    println!(
        "load imbalance: {:.2}x the fair share on the busiest shard",
        stats.imbalance
    );
}
