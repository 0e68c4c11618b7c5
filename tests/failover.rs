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

mod common {
    pub mod groups;
    pub mod history;
    pub mod recorder;
    pub mod replicas;
}

use recipe::core::ShieldedMessage;
use recipe::core::{Operation, Request};
use recipe::net::{CrashPlan, FaultPlan, NodeId};
use recipe::protocols::{ChainReplica, MigrationChunk, RaftReplica, CHUNK_ENTRIES};
use recipe::shard::{DeploymentSpec, MigrationStats, ShardPolicy, ShardedCluster};
use recipe::sim::{Work, COST_MODEL};
use recipe::telemetry::{CostBreakdown, SpanKind, TelemetryConfig, TelemetryReport};

use common::groups::{group_txn_workload, key_groups};
use common::history::{History, Violation};
use common::replicas::check_run;

/// A write of a 128-byte value unique to `client`'s request `seq`.
fn put(client: u64, seq: u64) -> Option<Request> {
    let key = format!("key-{}", (client + seq) % 32).into_bytes();
    let value = format!("{client:>64}{seq:>64}").into_bytes();
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

#[test]
fn crash_plan_leader_failover_preserves_progress() {
    // The initial leader dies 2ms in and never returns; the survivors elect
    // a new leader and the run completes.
    let plan = CrashPlan::none().crash(NodeId(0), 2_000_000);
    let mut cluster = ShardedCluster::<RaftReplica>::build(one_group(plan, 500));
    let mut history = History::default();
    let stats = cluster.run_requests(history.record(put));
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
    // The frames sent to the dead leader were lost there, and counted.
    assert!(stats.per_shard[0].messages_to_crashed > 0, "{stats:?}");
    assert_eq!(
        stats.total.messages_to_crashed,
        stats.per_shard[0].messages_to_crashed
    );
    check_run(&mut cluster, &mut history).unwrap();
}

/// The nanoseconds telemetry charged the run under `charge.<kind>_ns`.
fn charged(report: &TelemetryReport, kind: &str) -> u64 {
    let name = format!("charge.{kind}_ns");
    let sample = report.metrics.iter().find(|sample| sample.name == name);
    sample.map_or(0, |sample| sample.value as u64)
}

/// A restart's cost as a closed form (§3.7), in the migration's form with
/// K = 1 round: the joiner re-scans the `h` entries it held, once; one live
/// peer ships its `p` entries as one snapshot round of `⌈p / C⌉` sealed
/// chunks across the group's link, paying `Scan` + `Send` per chunk, and
/// the joiner pays `Import` per chunk at its arrival.
#[test]
fn recovered_follower_rehydrates_and_rejoins() {
    // 8 000 ops keep the run going past the 60 ms restart (4 000 take 55 ms
    // of virtual time on the binary wire form).
    let plan = CrashPlan::none().crash_recover(NodeId(2), 5_000_000, 60_000_000);
    let spec = one_group(plan, 8000).with_telemetry(TelemetryConfig::enabled());
    let profile = spec.policy_for(0).profile;
    let mut cluster = ShardedCluster::<RaftReplica>::build(spec);
    let mut history = History::default();
    let stats = cluster.run_requests(history.record(put));
    assert!(
        stats.total.committed >= 8000,
        "lost commits: {}",
        stats.total.committed
    );
    // A restart is no migration: none of its chunks counts as one's.
    assert_eq!(stats.migration, MigrationStats::default());
    let report = cluster.take_telemetry_report().expect("telemetry enabled");
    let group = cluster.shard_mut(0);
    assert!(group.crashed_nodes().is_empty(), "node never recovered");

    // What the joiner re-verified at its restart (the recover span's tag),
    // and what the run's 32 keys weigh in a store: every value is 128 bytes.
    let recovers: Vec<_> = report
        .spans
        .iter()
        .filter(|span| span.kind == SpanKind::NodeRecover)
        .collect();
    assert_eq!(recovers.len(), 1, "one restart");
    let held = recovers[0].tag as usize;
    let (mut entries, mut bytes) = (0, 0);
    for i in 0..32 {
        let key = format!("key-{i}").into_bytes();
        if let Some(value) = group.replica_mut(NodeId(0)).local_read(&key) {
            entries += 1;
            bytes += key.len() + value.len();
        }
    }
    // Every key landed before the 5 ms crash, so the joiner held them all
    // and the peer exports them all at 60 ms: h = p = 32, b = 4 278 B, one
    // chunk of p ≤ C records.
    assert_eq!((held, entries, bytes), (32, 32, 4_278));
    assert!(entries <= CHUNK_ENTRIES);

    let cost = |work| COST_MODEL.cost(&profile, work, &mut CostBreakdown::new());
    let wire = ShieldedMessage::frame_len(MigrationChunk::wire_len(entries, bytes));
    let scan = cost(Work::Scan { entries, bytes });
    let send = cost(Work::Send {
        ops: 1,
        bytes: wire,
    });
    let import = cost(Work::Import {
        entries,
        bytes: wire,
    });
    assert_eq!(charged(&report, "recovery"), scan);
    assert_eq!(charged(&report, "snapshot_export"), scan + send);
    assert_eq!(charged(&report, "snapshot_import"), import);
    // The restarted follower caught up through its transfer and normal
    // replication: nothing it holds diverges from the survivors.
    check_run(&mut cluster, &mut history).unwrap();
}

/// A restart under a group link that duplicates or replays every frame
/// (drop 0, tamper 0): the transfer's one chunk lands beside one forged
/// copy, which its channel refuses, and what the clients saw stays
/// linearizable, the joiner's final reads included.
#[test]
fn a_restart_under_forged_copies_refuses_them_and_rejoins() {
    let plan = CrashPlan::none().crash_recover(NodeId(2), 5_000_000, 60_000_000);
    let forged = FaultPlan {
        duplicate_probability: 0.5,
        replay_probability: 0.5,
        ..FaultPlan::default()
    };
    let spec = one_group(plan, 8000).with_fault_plan(forged);
    let mut cluster = ShardedCluster::<RaftReplica>::build(spec);
    let mut history = History::default();
    let stats = cluster.run_requests(history.record(put));
    assert!(stats.total.committed >= 8000, "{}", stats.total.committed);
    assert!(cluster.shard(0).crashed_nodes().is_empty());
    assert_eq!(stats.migration.chunks_rejected, 1);
    check_run(&mut cluster, &mut history).unwrap();
}

#[test]
fn recovered_leader_rejoins_behind_the_new_view() {
    // The crashed *leader* comes back after the survivors elected a new
    // one: it must rejoin in (at least) the group's current view — never
    // its own stale pre-crash view — and resync without forking history.
    let plan = CrashPlan::none().crash_recover(NodeId(0), 2_000_000, 150_000_000);
    let mut cluster = ShardedCluster::<RaftReplica>::build(one_group(plan, 8000));
    let mut history = History::default();
    let stats = cluster.run_requests(history.record(put));
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
    check_run(&mut cluster, &mut history).unwrap();
}

/// R-CR: the trusted configuration service reassigns the head to the next
/// live node in chain order; clients re-route and keep committing.
///
/// The restarted head diverges (ROADMAP item 29). It resumes as head at
/// once, while the survivors hear it is back only a failure-detection delay
/// later, so for that long the chain has two heads. The survivors' head
/// forwards to its successor only, and the writes it takes never reach the
/// restarted node: once the traffic has landed, it holds older values than
/// the survivors. The check flags that, and the fix must flip this test.
#[test]
fn chain_head_crash_reforms_over_survivors() {
    let plan = CrashPlan::none().crash_recover(NodeId(0), 3_000_000, 25_000_000);
    let mut cluster = ShardedCluster::<ChainReplica>::build(one_group(plan, 4000));
    let mut history = History::default();
    let stats = cluster.run_requests(history.record(put));
    assert!(
        stats.total.committed >= 4000,
        "chain stalled after head crash: {}",
        stats.total.committed
    );
    assert!(cluster.shard(0).crashed_nodes().is_empty());
    let diverged = check_run(&mut cluster, &mut history);
    let Violation(stale) = diverged.expect_err("the restarted chain head no longer diverges");
    // A live replica ends on an older write of a key than its peers hold.
    let on_a_key = stale.starts_with("Chain: \"key-");
    let older = stale.contains("each precede the other") || stale.contains("replicas disagree");
    assert!(on_a_key && older, "{stale}");
}

/// A crash-stop of the coordinator of writes under one contended key, half
/// the clients reading it: R-Raft elects a new leader, R-CR hands the head
/// to the next live node, and what the clients saw stays linearizable.
#[test]
fn a_contended_key_stays_linearizable_across_a_coordinator_crash() {
    fn contended(client: u64, seq: u64) -> Option<Request> {
        let key = b"hot".to_vec();
        Some(if (client + seq).is_multiple_of(2) {
            let value = format!("{client:>64}{seq:>64}").into_bytes();
            Operation::Put { key, value }.into()
        } else {
            Operation::Get { key }.into()
        })
    }
    let plan = CrashPlan::none().crash(NodeId(0), 2_000_000);
    let mut raft = ShardedCluster::<RaftReplica>::build(one_group(plan.clone(), 1000));
    let mut history = History::default();
    let stats = raft.run_requests(history.record(contended));
    assert!(stats.total.committed >= 1000 && stats.total.committed_reads > 0);
    check_run(&mut raft, &mut history).unwrap();
    let mut chain = ShardedCluster::<ChainReplica>::build(one_group(plan, 1000));
    let mut history = History::default();
    let stats = chain.run_requests(history.record(contended));
    assert!(stats.total.committed >= 1000 && stats.total.committed_reads > 0);
    check_run(&mut chain, &mut history).unwrap();
}

/// `examples/view_change_failover.rs`'s run, with values unique per write:
/// leader 0 crashes at 2 ms. A retried `Put` is applied twice there, at the
/// old view and again at the new one (ROADMAP item 2 (a)), yet the history
/// stays linearizable: re-applying a value the client has not yet seen
/// acknowledged is invisible to a register. Exactly-once is item 2 (a)'s to
/// check, by apply counts.
#[test]
fn the_view_change_examples_retried_put_stays_linearizable() {
    let spec = DeploymentSpec::new(1, 3)
        .with_clients(8, 600)
        .with_time_cap_ns(3_000_000_000)
        .with_crash_plan(CrashPlan::none().crash(NodeId(0), 2_000_000));
    let mut cluster = ShardedCluster::<RaftReplica>::build(spec);
    let mut history = History::default();
    let stats = cluster.run_requests(history.record(|client, seq| {
        let key = format!("k{:02}", (client + seq) % 30).into_bytes();
        let value = format!("{client:>64}{seq:>64}").into_bytes();
        Some(Operation::Put { key, value }.into())
    }));
    assert!(stats.total.committed >= 600);
    check_run(&mut cluster, &mut history).unwrap();
}

// ---------------------------------------------------------------------------
// 2PC participant recovery (sharded driver).
// ---------------------------------------------------------------------------

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
    let mut history = History::default();
    let stats = cluster.run_requests(history.record(group_txn_workload(groups)));
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
    check_run(&mut cluster, &mut history).unwrap();
    // Zero parked transactions: nothing is left holding locks, and the
    // crashed node is back.
    assert!(cluster.shard(0).crashed_nodes().is_empty());
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
    let mut history = History::default();
    let stats = cluster.run_requests(history.record(group_txn_workload(groups)));
    assert!(
        stats.total.committed >= ops as u64,
        "lost commits: {} < {ops}",
        stats.total.committed
    );
    assert_eq!(stats.total.committed, stats.txn.committed_ops);
    check_run(&mut cluster, &mut history).unwrap();
    assert!(cluster.shard(1).crashed_nodes().is_empty());
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
    let mut history = History::default();
    let stats = cluster.run_requests(history.record(group_txn_workload(groups)));
    assert!(stats.total.committed >= ops as u64);
    assert_eq!(stats.total.committed, stats.txn.committed_ops);
    check_run(&mut cluster, &mut history).unwrap();
    assert_eq!(cluster.shard(0).crashed_nodes().len(), 1);
}

// ---------------------------------------------------------------------------
// Determinism properties.
// ---------------------------------------------------------------------------

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

    /// Crash schedules are part of the deterministic configuration: two
    /// runs of the same seed and the same crash/recover plan agree bit for
    /// bit on statistics and on everything the clients and the final reads
    /// saw.
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
            let mut history = History::default();
    let stats = cluster.run_requests(history.record(group_txn_workload(groups)));
            check_run(&mut cluster, &mut history).unwrap();
            (stats, history)
        };
        proptest::prop_assert_eq!(run(), run());
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
            let mut history = History::default();
    let stats = cluster.run_requests(history.record(group_txn_workload(groups)));
            check_run(&mut cluster, &mut history).unwrap();
            (stats, history)
        };
        let (stats, history) = run(false);
        // No replica was down, so no frame was lost to one.
        proptest::prop_assert_eq!(stats.total.messages_to_crashed, 0);
        proptest::prop_assert_eq!((stats, history), run(true));
    }
}
