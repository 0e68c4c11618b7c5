//! Quickstart: provision a 3-replica Recipe cluster's keys, run R-Raft, and read
//! back a value. (Attestation itself, the CAS handing out those keys, is
//! `tests/full_stack_attestation.rs` and `fig -- table4`.)
//!
//! ```bash
//! cargo run --example quickstart
//! ```

use recipe::core::Operation;
use recipe::protocols::RaftReplica;
use recipe::shard::{DeploymentSpec, ShardedCluster};
use recipe_net::NodeId;

fn main() {
    // 1. One replica group of 2f+1 = 3 replicas tolerating one fault, driven
    //    by a small closed-loop client population: a one-shard deployment.
    let spec = DeploymentSpec::new(1, 3).with_clients(8, 500);
    let membership = spec.membership();
    println!(
        "membership: {:?} (quorum = {})",
        membership.members(),
        membership.quorum()
    );

    // 2. Launch R-Raft replicas. The spec's default profile is Recipe's, so
    //    each replica's enclave is provisioned directly with the channel keys
    //    the CAS would hand out after attestation; no attestation runs here.
    let mut cluster = ShardedCluster::<RaftReplica>::build(spec);

    // 3. Every fourth operation of a client reads its account back.
    let stats = cluster.run_requests(|client, seq| {
        let key = format!("user{:04}", client).into_bytes();
        let operation = if seq % 4 == 0 {
            Operation::Get { key }
        } else {
            let value = format!("balance={seq}").into_bytes();
            Operation::Put { key, value }
        };
        Some(operation.into())
    });
    let stats = stats.total;

    println!(
        "committed {} ops ({} reads / {} writes) at {:.0} ops/s, mean latency {:.1} us",
        stats.committed,
        stats.committed_reads,
        stats.committed_writes,
        stats.throughput_ops,
        stats.mean_latency_us
    );

    // 4. Every replica holds the same, integrity-verified state.
    let group = cluster.shard_mut(0);
    for id in 0..3 {
        let value = group.replica_mut(NodeId(id)).local_read(b"user0000");
        println!(
            "replica {id} -> user0000 = {:?}",
            value.map(|v| String::from_utf8_lossy(&v).into_owned())
        );
    }
}
