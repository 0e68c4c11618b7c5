//! Kills the R-Raft leader mid-run and shows the followers' heartbeat timeout
//! (35 ms on the virtual clock) electing a new leader while committed state
//! survives.
//!
//! ```bash
//! cargo run --example view_change_failover
//! ```

use recipe::core::Operation;
use recipe::net::CrashPlan;
use recipe::protocols::RaftReplica;
use recipe::shard::{DeploymentSpec, ShardedCluster};
use recipe_net::NodeId;

/// Operations the clients commit before the run ends.
const TARGET: u64 = 600;

fn main() {
    // Crash the initial leader (node 0) two virtual milliseconds into the run.
    let spec = DeploymentSpec::new(1, 3)
        .with_clients(8, TARGET as usize)
        .with_time_cap_ns(3_000_000_000)
        .with_crash_plan(CrashPlan::none().crash(NodeId(0), 2_000_000));
    let mut cluster = ShardedCluster::<RaftReplica>::build(spec);

    let stats = cluster.run_requests(|client, seq| {
        let key = format!("k{:02}", (client + seq) % 30).into_bytes();
        let value = vec![b'x'; 128];
        Some(Operation::Put { key, value }.into())
    });
    let stats = stats.total;

    let group = cluster.shard(0);
    let mut survivor_view = 0;
    for id in 1..3 {
        let replica = group.replica(NodeId(id));
        println!(
            "replica {id}: view = {}, leader = {}, applied entries = {}",
            replica.view(),
            replica.is_leader(),
            replica.committed_entries()
        );
        survivor_view = survivor_view.max(replica.view());
    }
    println!(
        "committed {} operations despite the leader crash (elapsed {:.1} virtual ms)",
        stats.committed,
        stats.elapsed_secs * 1e3
    );
    assert!(survivor_view >= 1, "no view change after the leader crash");
    assert!(
        stats.committed >= TARGET,
        "the commit target was not reached"
    );
}
