//! Kills the R-Raft leader mid-run and shows the followers' heartbeat timeout
//! (35 ms on the virtual clock) electing a new leader while committed state
//! survives.
//!
//! ```bash
//! cargo run --example view_change_failover
//! ```

use recipe::core::{Membership, Operation};
use recipe::protocols::RaftReplica;
use recipe::sim::{ClientModel, CostProfile, SimCluster, SimConfig};
use recipe_net::NodeId;

fn main() {
    let membership = Membership::of_size(3, 1);
    let replicas: Vec<RaftReplica> = (0..3)
        .map(|id| RaftReplica::recipe(id, membership.clone(), false))
        .collect();
    let mut config = SimConfig::uniform(3, CostProfile::recipe());
    config.clients = ClientModel {
        clients: 8,
        total_operations: 600,
    };
    config.max_virtual_ns = 3_000_000_000;
    let mut cluster = SimCluster::new(replicas, config);

    // Crash the initial leader (node 0) two virtual milliseconds into the run.
    cluster.crash_at(NodeId(0), 2_000_000);

    let stats = cluster.run(|client, seq| Operation::Put {
        key: format!("k{:02}", (client + seq) % 30).into_bytes(),
        value: vec![b'x'; 128],
    });

    for id in 1..3 {
        let replica = cluster.replica(NodeId(id));
        println!(
            "replica {id}: view = {}, leader = {}, applied entries = {}",
            replica.view(),
            replica.is_leader(),
            replica.committed_entries()
        );
    }
    println!(
        "committed {} operations despite the leader crash (elapsed {:.1} virtual ms)",
        stats.committed,
        stats.elapsed_secs * 1e3
    );
}
