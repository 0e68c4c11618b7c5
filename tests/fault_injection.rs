//! Failure-injection integration tests: leader crash + view change, Byzantine
//! network traffic, and availability loss when quorums cannot form. The runs
//! that must stay correct record their history and pass the shared check.

mod common {
    pub mod history;
    pub mod recorder;
    pub mod replicas;
}

use recipe::bft::PbftReplica;
use recipe::core::{Operation, Request};
use recipe::net::{CrashPlan, FaultPlan};
use recipe::protocols::{AllConcurReplica, RaftReplica};
use recipe::shard::{DeploymentSpec, ShardedCluster};
use recipe::sim::CostProfile;
use recipe_net::NodeId;

use common::history::History;
use common::replicas::check_run;

/// A write of a 128-byte value unique to `client`'s request `seq`, as the
/// history check needs.
fn put(client: u64, seq: u64) -> Option<Request> {
    let key = format!("key-{}", (client + seq) % 32).into_bytes();
    let value = format!("{client:>64}{seq:>64}").into_bytes();
    Some(Operation::Put { key, value }.into())
}

#[test]
fn raft_leader_crash_failover_preserves_progress() {
    let spec = DeploymentSpec::new(1, 3)
        .with_clients(8, 500)
        .with_time_cap_ns(3_000_000_000)
        .with_crash_plan(CrashPlan::none().crash(NodeId(0), 2_000_000));
    let mut cluster = ShardedCluster::<RaftReplica>::build(spec);
    let mut history = History::default();
    let stats = cluster.run_requests(history.record(put));

    let group = cluster.shard(0);
    let surviving_view = group
        .replica(NodeId(1))
        .view()
        .max(group.replica(NodeId(2)).view());
    assert!(surviving_view >= 1, "no view change after leader crash");
    assert!(
        stats.total.committed >= 250,
        "progress stalled: {}",
        stats.total.committed
    );
    cluster.quiesce(300_000_000);
    check_run(&mut cluster, &mut history).unwrap();
}

#[test]
fn byzantine_replays_and_duplicates_are_neutralized() {
    let spec = DeploymentSpec::new(1, 3)
        .with_clients(8, 250)
        .with_fault_plan(FaultPlan {
            replay_probability: 0.1,
            duplicate_probability: 0.1,
            ..FaultPlan::default()
        });
    let mut cluster = ShardedCluster::<RaftReplica>::build(spec);
    let mut history = History::default();
    let stats = cluster.run_requests(history.record(put));
    assert_eq!(stats.total.committed, 250);
    assert!(stats.total.messages_replayed > 0);
    let group = cluster.shard(0);
    let rejected: u64 = (0..3)
        .map(|id| group.replica(NodeId(id)).rejected_messages())
        .sum();
    assert!(
        rejected > 0,
        "the authentication layer saw no adversarial traffic"
    );
    // Agreement, and what the clients saw, by the shared check.
    cluster.quiesce(300_000_000);
    check_run(&mut cluster, &mut history).unwrap();
}

#[test]
fn allconcur_blocks_when_a_peer_is_down() {
    // AllConcur tracks *all* peers; losing one stops new deliveries (the paper's
    // discussed availability trade-off), but nothing unsafe happens. Clients
    // retry every 100 ms: a run five times that long commits no more than
    // one that stops before the first retry.
    let committed_by = |cap_ns| {
        let spec = DeploymentSpec::new(1, 3)
            .with_clients(4, 5_000)
            .with_time_cap_ns(cap_ns)
            .with_crash_plan(CrashPlan::none().crash(NodeId(2), 500_000));
        let mut cluster = ShardedCluster::<AllConcurReplica>::build(spec);
        cluster.run_requests(put).total.committed
    };
    let (before_any_retry, after_four) = (committed_by(90_000_000), committed_by(500_000_000));
    assert!(before_any_retry < 5_000);
    assert_eq!(
        after_four, before_any_retry,
        "a retry got past the down peer"
    );
}

#[test]
fn pbft_survives_one_crashed_backup() {
    // 2f+1 = 3 live replicas of four still form prepare and commit quorums.
    let spec = DeploymentSpec::new(1, 4)
        .with_profile(CostProfile::pbft_baseline())
        .with_clients(8, 150)
        .with_crash_plan(CrashPlan::none().crash(NodeId(3), 1_000_000));
    let mut cluster = ShardedCluster::<PbftReplica>::build(spec);
    let stats = cluster.run_requests(put);
    assert_eq!(stats.total.committed, 150);
    assert_eq!(cluster.shard(0).crashed_nodes().len(), 1);
}
