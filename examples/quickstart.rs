//! Quickstart: provision a 3-replica Recipe cluster's keys, run R-Raft, and read
//! back a value. (Attestation itself, the CAS handing out those keys, is
//! `tests/full_stack_attestation.rs` and `fig -- table4`.)
//!
//! ```bash
//! cargo run --example quickstart
//! ```

use recipe::core::{Membership, Operation};
use recipe::protocols::RaftReplica;
use recipe::sim::{ClientModel, CostProfile, SimCluster, SimConfig};
use recipe_net::NodeId;

fn main() {
    // 1. Build a 2f+1 = 3 replica membership tolerating one fault.
    let membership = Membership::of_size(3, 1);
    println!(
        "membership: {:?} (quorum = {})",
        membership.members(),
        membership.quorum()
    );

    // 2. Launch R-Raft replicas. `RaftReplica::recipe` provisions each replica's
    //    enclave directly with the channel keys the CAS would hand out after
    //    attestation; no attestation runs here.
    let replicas: Vec<RaftReplica> = (0..3)
        .map(|id| RaftReplica::recipe(id, membership.clone(), false))
        .collect();

    // 3. Drive the cluster with a small closed-loop client population.
    let mut config = SimConfig::uniform(3, CostProfile::recipe());
    config.clients = ClientModel {
        clients: 8,
        total_operations: 500,
    };
    let mut cluster = SimCluster::new(replicas, config);
    let stats = cluster.run(|client, seq| {
        if seq % 4 == 0 {
            Operation::Get {
                key: format!("user{:04}", client).into_bytes(),
            }
        } else {
            Operation::Put {
                key: format!("user{:04}", client).into_bytes(),
                value: format!("balance={seq}").into_bytes(),
            }
        }
    });

    println!(
        "committed {} ops ({} reads / {} writes) at {:.0} ops/s, mean latency {:.1} us",
        stats.committed,
        stats.committed_reads,
        stats.committed_writes,
        stats.throughput_ops,
        stats.mean_latency_us
    );

    // 4. Every replica holds the same, integrity-verified state.
    for id in 0..3 {
        let value = cluster.replica_mut(NodeId(id)).local_read(b"user0000");
        println!(
            "replica {id} -> user0000 = {:?}",
            value.map(|v| String::from_utf8_lossy(&v).into_owned())
        );
    }
}
