//! Crash-recovery fault plane: deterministic crash schedules, leader
//! failover, rollback-protected restart, and 2PC participant recovery.
//!
//! The invariants under test:
//!
//! 1. a crash schedule is part of the deterministic configuration — two
//!    same-seed runs of the same plan are bit-identical;
//! 2. leader/head crashes fail over (the group elects the next live node)
//!    and the driver keeps committing;
//! 3. recovered nodes restart rollback-protected — they rehydrate only
//!    sealed, counter-verified state and rejoin without diverging from the
//!    survivors;
//! 4. a participant-group leader crashed mid-2PC loses no transaction: the
//!    new leader adopts the replicated prepare records and the coordinator's
//!    retransmitted decision lands exactly once (zero lost, duplicated or
//!    parked commits).

use recipe::core::{Operation, Request};
use recipe::net::{CrashPlan, NodeId};
use recipe::protocols::{ChainReplica, RaftReplica, StoreReplica};
use recipe::shard::{DeploymentSpec, ShardPolicy, ShardedCluster};
use recipe::sim::ReplicaGroup;

fn put(client: u64, seq: u64) -> Option<Request> {
    let key = format!("key-{}", (client + seq) % 32).into_bytes();
    let value = vec![b'r'; 128];
    Some(Operation::Put { key, value }.into())
}

/// One three-replica group under eight clients and `crash_plan`, run until
/// `ops` have committed.
fn one_group(crash_plan: CrashPlan, ops: usize) -> DeploymentSpec {
    DeploymentSpec::new(1, 3)
        .with_clients(8, ops)
        .with_time_cap_ns(10_000_000_000)
        .with_crash_plan(crash_plan)
}

/// Every key the recovered node holds must agree with a live peer's copy —
/// rehydration never resurrects stale (rolled-back) state.
fn assert_no_divergence<R: StoreReplica>(group: &mut ReplicaGroup<R>) {
    for i in 0..32 {
        let key = format!("key-{i}").into_bytes();
        let values: Vec<Vec<u8>> = (0..3)
            .filter_map(|id| group.replica_mut(NodeId(id)).store().get(&key))
            .map(|read| read.value)
            .collect();
        for pair in values.windows(2) {
            assert_eq!(pair[0], pair[1], "replica divergence on key-{i}");
        }
    }
}

#[test]
fn crash_plan_leader_failover_preserves_progress() {
    // The initial leader dies 2ms in and never returns; the survivors elect
    // a new leader and the run completes.
    let plan = CrashPlan::none().crash(NodeId(0), 2_000_000);
    let mut cluster = ShardedCluster::<RaftReplica>::build(one_group(plan, 500));
    let stats = cluster.run_requests(put);
    let group = cluster.shard(0);
    let surviving_view = group
        .replica(NodeId(1))
        .view()
        .max(group.replica(NodeId(2)).view());
    assert!(surviving_view >= 1, "no view change after leader crash");
    assert!(group.replica(NodeId(surviving_view % 3)).is_leader());
    assert!(
        stats.total.committed >= 250,
        "progress stalled: {}",
        stats.total.committed
    );
    assert_eq!(group.crashed_nodes().len(), 1);
    // The requests the dead leader swallowed were resent when their timers
    // fired: some timer was live.
    let calendar = stats.calendar;
    assert!(calendar.dead_timers < calendar.timers, "{calendar:?}");
    assert!(calendar.timers < calendar.popped, "{calendar:?}");
}

#[test]
fn recovered_follower_rehydrates_and_rejoins() {
    // 8 000 ops keep the run going past the 60 ms restart (4 000 take 55 ms
    // of virtual time on the binary wire form).
    let plan = CrashPlan::none().crash_recover(NodeId(2), 5_000_000, 60_000_000);
    let mut cluster = ShardedCluster::<RaftReplica>::build(one_group(plan, 8000));
    let stats = cluster.run_requests(put);
    assert!(
        stats.total.committed >= 8000,
        "lost commits: {}",
        stats.total.committed
    );
    let group = cluster.shard_mut(0);
    assert!(group.crashed_nodes().is_empty(), "node never recovered");
    // The restarted follower rehydrated from a live peer's sealed snapshot
    // and caught up through normal replication: it holds state again and
    // nothing it holds diverges from the survivors.
    let held = (0..32)
        .filter(|i| {
            let key = format!("key-{i}").into_bytes();
            group.replica_mut(NodeId(2)).local_read(&key).is_some()
        })
        .count();
    assert!(held > 0, "recovered follower holds no rehydrated state");
    assert_no_divergence(group);
}

#[test]
fn recovered_leader_rejoins_behind_the_new_view() {
    // The crashed *leader* comes back after the survivors elected a new
    // one: it must rejoin in (at least) the group's current view — never
    // its own stale pre-crash view — and resync without forking history.
    let plan = CrashPlan::none().crash_recover(NodeId(0), 2_000_000, 150_000_000);
    let mut cluster = ShardedCluster::<RaftReplica>::build(one_group(plan, 8000));
    let stats = cluster.run_requests(put);
    assert!(stats.total.committed >= 8000);
    let group = cluster.shard_mut(0);
    assert!(group.crashed_nodes().is_empty());
    let group_view = group
        .replica(NodeId(1))
        .view()
        .max(group.replica(NodeId(2)).view());
    assert!(group_view >= 1, "no failover happened");
    assert!(
        group.replica(NodeId(0)).view() >= group_view.saturating_sub(1),
        "recovered leader stuck in a stale view: {} vs group {}",
        group.replica(NodeId(0)).view(),
        group_view
    );
    assert_no_divergence(group);
}

#[test]
fn chain_head_crash_reforms_over_survivors() {
    // R-CR: the trusted configuration service reassigns the head to the
    // next live node in chain order; clients re-route and keep committing.
    let plan = CrashPlan::none().crash_recover(NodeId(0), 3_000_000, 25_000_000);
    let mut cluster = ShardedCluster::<ChainReplica>::build(one_group(plan, 4000));
    let stats = cluster.run_requests(put);
    assert!(
        stats.total.committed >= 4000,
        "chain stalled after head crash: {}",
        stats.total.committed
    );
    let group = cluster.shard_mut(0);
    assert!(group.crashed_nodes().is_empty());
    assert_no_divergence(group);
}

// ---------------------------------------------------------------------------
// 2PC participant recovery (sharded driver).
// ---------------------------------------------------------------------------

/// Builds `groups` key groups of `size` keys each, every group spanning at
/// least two shards (so transactions on it are cross-shard).
fn key_groups<R: recipe_sim::Replica>(
    cluster: &ShardedCluster<R>,
    groups: usize,
    size: usize,
) -> Vec<Vec<Vec<u8>>> {
    let router = cluster.router();
    let mut out = Vec::new();
    let mut candidate = 0u64;
    while out.len() < groups {
        let mut keys: Vec<Vec<u8>> = Vec::new();
        let mut shards: Vec<usize> = Vec::new();
        while keys.len() < size {
            let key = format!("txn{candidate:08}").into_bytes();
            candidate += 1;
            let shard = router.shard_for_key(&key);
            if keys.len() == size - 1 && shards.iter().all(|&s| s == shard) {
                continue;
            }
            shards.push(shard);
            keys.push(key);
        }
        out.push(keys);
    }
    out
}

fn group_txn_workload(groups: Vec<Vec<Vec<u8>>>) -> impl FnMut(u64, u64) -> Option<Request> {
    move |client, seq| {
        let group = &groups[((client + seq) as usize * 7) % groups.len()];
        let value = format!("token-{client}-{seq}").into_bytes();
        Some(Request::Txn(
            group
                .iter()
                .map(|key| Operation::Put {
                    key: key.clone(),
                    value: value.clone(),
                })
                .collect(),
        ))
    }
}

/// Reads `key` from every replica of its owning shard, asserts agreement and
/// returns the committed value.
fn committed_value<R: StoreReplica>(
    cluster: &mut ShardedCluster<R>,
    key: &[u8],
) -> Option<Vec<u8>> {
    let shard = cluster.router().shard_for_key(key);
    let nodes = cluster.shard(shard).node_ids().to_vec();
    let mut values = Vec::new();
    for node in nodes {
        if cluster.shard(shard).crashed_nodes().contains(&node) {
            // A crash-stopped replica legitimately trails; agreement is
            // over the live group.
            continue;
        }
        let value = cluster
            .shard_mut(shard)
            .replica_mut(node)
            .store()
            .read_entry(key)
            .ok()
            .flatten()
            .map(|entry| entry.value);
        values.push(value);
    }
    for pair in values.windows(2) {
        assert_eq!(
            pair[0],
            pair[1],
            "replica divergence on {:?}",
            String::from_utf8_lossy(key)
        );
    }
    values.pop().flatten()
}

/// Token-group atomicity over the final state: all keys of each group hold
/// one identical token (or the group was never written).
fn assert_groups_atomic<R: StoreReplica>(
    cluster: &mut ShardedCluster<R>,
    groups: &[Vec<Vec<u8>>],
) -> Vec<Option<Vec<u8>>> {
    let mut tokens = Vec::new();
    for group in groups {
        let first = committed_value(cluster, &group[0]);
        for key in &group[1..] {
            let value = committed_value(cluster, key);
            assert_eq!(
                first,
                value,
                "partial commit: group {:?} holds mixed tokens",
                String::from_utf8_lossy(&group[0])
            );
        }
        tokens.push(first);
    }
    tokens
}

/// The tentpole acceptance scenario: a participant-group leader dies while
/// transactions are continuously in flight (so some are inevitably caught
/// between prepare and commit), then restarts. Every transaction must
/// resolve — zero lost, duplicated or parked commits — on either the new
/// leader (which adopted the replicated prepare records) or, after
/// recovery, with the restarted node resynced.
#[test]
fn participant_leader_crash_mid_2pc_loses_no_transactions() {
    let ops = 2000usize;
    let spec = DeploymentSpec::new(3, 3)
        .with_seed(11)
        .with_clients(12, ops)
        .with_time_cap_ns(60_000_000_000)
        .with_shard_policy(
            0,
            ShardPolicy::new().with_crash_plan(CrashPlan::none().crash_recover(
                NodeId(0),
                300_000,
                5_000_000,
            )),
        );
    let mut cluster = ShardedCluster::<RaftReplica>::build(spec);
    let groups = key_groups(&cluster, 6, 3);
    // The crashing shard must participate in the transactional load, so
    // the leader crash hits live 2PC.
    assert!(groups
        .iter()
        .any(|g| g.iter().any(|k| cluster.router().shard_for_key(k) == 0)));
    let stats = cluster.run_requests(group_txn_workload(groups.clone()));
    // Zero lost commits: the run reached its target.
    assert!(
        stats.total.committed >= ops as u64,
        "lost commits: {} < {ops}",
        stats.total.committed
    );
    // Zero duplicated commits: every committed op belongs to exactly one
    // committed transaction.
    assert_eq!(stats.total.committed, stats.txn.committed_ops);
    assert!(stats.txn.committed > 0);
    cluster.quiesce(300_000_000);
    // Zero parked transactions: nothing is left holding locks (the group
    // invariant below would deadlock future writers on a leaked lock), and
    // the crashed node is back.
    assert!(cluster.shard(0).crashed_nodes().is_empty());
    assert_groups_atomic(&mut cluster, &groups);
}

/// Same scenario over R-CR groups: the head (the chain's write coordinator)
/// of a participant shard dies mid-2PC; the trusted configuration service
/// reassigns the head, which adopts the replicated prepares.
#[test]
fn chain_participant_head_crash_loses_no_transactions() {
    let ops = 4000usize;
    let spec = DeploymentSpec::new(2, 3)
        .with_seed(7)
        .with_clients(8, ops)
        .with_time_cap_ns(60_000_000_000)
        .with_shard_policy(
            1,
            ShardPolicy::new().with_crash_plan(CrashPlan::none().crash_recover(
                NodeId(0),
                300_000,
                20_000_000,
            )),
        );
    let mut cluster = ShardedCluster::<ChainReplica>::build(spec);
    let groups = key_groups(&cluster, 4, 3);
    let stats = cluster.run_requests(group_txn_workload(groups.clone()));
    assert!(
        stats.total.committed >= ops as u64,
        "lost commits: {} < {ops}",
        stats.total.committed
    );
    assert_eq!(stats.total.committed, stats.txn.committed_ops);
    cluster.quiesce(300_000_000);
    assert!(cluster.shard(1).crashed_nodes().is_empty());
    assert_groups_atomic(&mut cluster, &groups);
}

/// A crash-stop (no recovery) of a participant leader: the group keeps a
/// quorum, fails over, and the driver still resolves every transaction.
#[test]
fn participant_leader_crash_stop_still_resolves_all_transactions() {
    let ops = 1200usize;
    let spec = DeploymentSpec::new(2, 3)
        .with_seed(13)
        .with_clients(8, ops)
        .with_time_cap_ns(60_000_000_000)
        .with_shard_policy(
            0,
            ShardPolicy::new().with_crash_plan(CrashPlan::none().crash(NodeId(0), 500_000)),
        );
    let mut cluster = ShardedCluster::<RaftReplica>::build(spec);
    let groups = key_groups(&cluster, 4, 3);
    let stats = cluster.run_requests(group_txn_workload(groups.clone()));
    assert!(stats.total.committed >= ops as u64);
    assert_eq!(stats.total.committed, stats.txn.committed_ops);
    cluster.quiesce(300_000_000);
    assert_eq!(cluster.shard(0).crashed_nodes().len(), 1);
    assert_groups_atomic(&mut cluster, &groups);
}

// ---------------------------------------------------------------------------
// Determinism properties.
// ---------------------------------------------------------------------------

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

    /// Crash schedules are part of the deterministic configuration: two
    /// runs of the same seed and the same crash/recover plan agree bit for
    /// bit on statistics and on the committed tokens of every group.
    #[test]
    fn same_seed_crash_schedule_runs_are_bit_identical(
        seed in 0u64..1_000,
        crash_us in 100u64..800,
        recover_after_us in 500u64..5_000,
    ) {
        let run = || {
            let plan = CrashPlan::none().crash_recover(
                NodeId(0),
                crash_us * 1_000,
                (crash_us + recover_after_us) * 1_000,
            );
            let spec = DeploymentSpec::new(2, 3)
                .with_seed(seed)
                .with_clients(8, 400)
                .with_time_cap_ns(60_000_000_000)
                .with_shard_policy(0, ShardPolicy::new().with_crash_plan(plan));
            let mut cluster = ShardedCluster::<RaftReplica>::build(spec);
            let groups = key_groups(&cluster, 3, 3);
            let stats = cluster.run_requests(group_txn_workload(groups.clone()));
            cluster.quiesce(300_000_000);
            let tokens = assert_groups_atomic(&mut cluster, &groups);
            (stats, tokens)
        };
        let (stats_a, tokens_a) = run();
        let (stats_b, tokens_b) = run();
        proptest::prop_assert_eq!(stats_a, stats_b);
        proptest::prop_assert_eq!(tokens_a, tokens_b);
    }

    /// With the recovery machinery compiled in, a crash-free run (empty
    /// crash plan) is bit-identical to a run of a spec that never mentions
    /// crash plans at all — the fault plane is pay-for-use. (The perf-gate
    /// baselines pin the same property against the pre-recovery figures.)
    #[test]
    fn crash_free_runs_are_unperturbed_by_the_fault_plane(
        seed in 0u64..1_000,
        clients in 4usize..10,
    ) {
        let run = |with_empty_plan: bool| {
            let mut spec = DeploymentSpec::new(2, 3)
                .with_seed(seed)
                .with_clients(clients, 160)
                .with_time_cap_ns(40_000_000_000);
            if with_empty_plan {
                spec = spec.with_crash_plan(CrashPlan::none());
            }
            let mut cluster = ShardedCluster::<RaftReplica>::build(spec);
            let groups = key_groups(&cluster, 3, 3);
            let stats = cluster.run_requests(group_txn_workload(groups.clone()));
            cluster.quiesce(200_000_000);
            let tokens = assert_groups_atomic(&mut cluster, &groups);
            (stats, tokens)
        };
        let (stats_a, tokens_a) = run(false);
        let (stats_b, tokens_b) = run(true);
        proptest::prop_assert_eq!(stats_a, stats_b);
        proptest::prop_assert_eq!(tokens_a, tokens_b);
    }
}
