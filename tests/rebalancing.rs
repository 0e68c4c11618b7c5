//! Cross-crate integration for online shard rebalancing: router-version
//! safety (exactly one owner per key per epoch), end-to-end skewed-workload
//! migration with zero lost/duplicated commits, and replay equivalence — a
//! recorded schedule with a mid-run migration commits the same final state
//! as the same ops run against the final placement — and migrations whose
//! chunks cross a faulty plane between groups. The throughput sag and
//! recovery are claims of the `rebalance` figure, judged on its committed
//! baseline by `tests/claims.rs`.

mod common {
    pub mod history;
    pub mod recorder;
    pub mod replicas;
    pub mod sharded_contract;
}

use proptest::prelude::*;
use recipe::core::{Operation, Request};
use recipe::protocols::{RaftReplica, CHUNK_ENTRIES};
use recipe::scenario::{run_scenario, Scenario};
use recipe::shard::{
    DeploymentSpec, RebalanceConfig, RouteDecision, RouterVersion, ShardPolicy, ShardRouter,
    ShardedCluster, ShardedRunStats,
};
use recipe::workload::stable_key_hash;
use recipe_net::{CrashPlan, FaultPlan, NodeId};
use std::cell::Cell;
use std::rc::Rc;

use common::history::History;
use common::replicas::check_run;
use common::sharded_contract::check_sharded_contract;

// ---------------------------------------------------------------------------
// Router-version safety
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any sequence of migrations, every key resolves to exactly one
    /// in-range shard at every epoch, old epochs keep resolving their
    /// placement unchanged, and redirects fire exactly for the keys whose
    /// owner changed between the cached and the current epoch.
    #[test]
    fn every_key_has_exactly_one_owner_at_every_version(
        shards in 2usize..6,
        moves in proptest::collection::vec((any::<u64>(), 1usize..24, any::<u64>()), 1..8),
    ) {
        let mut router = ShardRouter::new(shards, 64);
        let mut snapshots = vec![router.clone()];
        for (donor_seed, arc_take, recipient_seed) in moves {
            let donor = (donor_seed as usize) % shards;
            let arcs: Vec<usize> = router
                .arcs_of_shard(donor)
                .into_iter()
                .take(arc_take)
                .collect();
            if arcs.is_empty() {
                continue; // donor drained empty by earlier moves
            }
            let mut recipient = (recipient_seed as usize) % shards;
            if recipient == donor {
                recipient = (recipient + 1) % shards;
            }
            router.rebalance(&arcs, recipient);
            snapshots.push(router.clone());
        }
        prop_assert_eq!(router.version().0 as usize, snapshots.len() - 1);
        for i in 0..400u64 {
            let key = format!("user{i:08}");
            let point = stable_key_hash(key.as_bytes());
            for (epoch, snapshot) in snapshots.iter().enumerate() {
                let owner = router.shard_for_point_at(point, RouterVersion(epoch as u64));
                // Exactly one owner, in range, and identical to what the
                // epoch's own snapshot resolved at its then-current state.
                prop_assert!(owner < shards);
                prop_assert_eq!(owner, snapshot.shard_for_point(point));
                // The routing seam redirects iff ownership changed since.
                match router.route(point, RouterVersion(epoch as u64)) {
                    RouteDecision::Owned { shard } => {
                        prop_assert_eq!(shard, owner);
                        prop_assert_eq!(shard, router.shard_for_point(point));
                    }
                    RouteDecision::WrongShard { stale_shard, shard, new_version } => {
                        prop_assert_eq!(stale_shard, owner);
                        prop_assert_eq!(shard, router.shard_for_point(point));
                        prop_assert!(shard != stale_shard);
                        prop_assert_eq!(new_version, router.version());
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// End-to-end skewed migration
// ---------------------------------------------------------------------------

struct SkewedRun {
    spec: DeploymentSpec,
    stats: ShardedRunStats,
    cluster: ShardedCluster<RaftReplica>,
    history: History,
    hot: Vec<Vec<u8>>,
}

/// Runs 2 shards under a workload that starts balanced and then funnels every
/// write into a hot range owned entirely by shard 0: 48 ring arcs, `per_arc`
/// keys of each. `plane` is the fault plan of the plane between groups the
/// migration's chunks cross.
fn skewed_run(
    operations: usize,
    balanced_ops: usize,
    per_arc: usize,
    plane: FaultPlan,
) -> SkewedRun {
    run_skewed(skewed_spec(operations, plane), balanced_ops, per_arc)
}

/// The skewed run's deployment: `operations` in all, the plane between
/// groups under `plane`.
fn skewed_spec(operations: usize, plane: FaultPlan) -> DeploymentSpec {
    DeploymentSpec::new(2, 3)
        .with_seed(9)
        .with_clients(64, operations)
        .with_plane_fault_plan(plane)
        .with_rebalance(RebalanceConfig {
            check_interval_ns: 10_000_000, // 10 ms
            min_window_commits: 120,
            imbalance_threshold: 1.4,
            timeline_bucket_ns: 5_000_000,
            ..RebalanceConfig::enabled()
        })
}

/// Runs the skewed workload on `spec`, every operation after the first
/// `balanced_ops` on the hot range.
fn run_skewed(spec: DeploymentSpec, balanced_ops: usize, per_arc: usize) -> SkewedRun {
    let mut cluster = ShardedCluster::<RaftReplica>::build(spec.clone());
    // A hot range owned by shard 0, spanning enough ring arcs that the
    // controller can split it — the same selection `fig_rebalance` measures.
    let hot = cluster.router().hot_range(0, 48, per_arc);
    assert!(hot.len() >= 48, "hot range too small: {}", hot.len());

    let issued = Rc::new(Cell::new(0usize));
    let hot_keys = hot.clone();
    let mut history = History::default();
    let stats = cluster.run_requests(history.record(move |client, seq| {
        let n = issued.get();
        issued.set(n + 1);
        let key = if n < balanced_ops {
            format!("user{:08}", (client * 131 + seq * 17) % 10_000).into_bytes()
        } else {
            hot_keys[n % hot_keys.len()].clone()
        };
        let value = format!("v{client}:{seq}").into_bytes();
        Some(Operation::Put { key, value }.into())
    }));
    SkewedRun {
        spec,
        stats,
        cluster,
        history,
        hot,
    }
}

#[test]
fn skewed_workload_migrates_with_zero_lost_or_duplicated_commits() {
    let operations = 2_400;
    let mut run = skewed_run(operations, 700, 2, FaultPlan::benign());
    let stats = &run.stats;

    // Zero lost, zero duplicated: every issued operation committed exactly
    // once, and the per-shard commit counts add up exactly.
    assert_eq!(stats.total.committed, operations as u64);
    assert_eq!(
        stats.per_shard.iter().map(|s| s.committed).sum::<u64>(),
        stats.total.committed
    );

    // A migration ran to completion and moved its records through the
    // sealed snapshot + catch-up path at the stated cost.
    let m = &stats.migration;
    assert!(m.migrations_completed >= 1, "no migration completed: {m:?}");
    check_sharded_contract(&run.spec, stats, None).unwrap();
    assert_eq!(run.cluster.router().version().0, m.migrations_completed);

    // Clients drained onto the new placement through WrongShard redirects.
    assert!(m.redirects > 0, "no client was redirected: {m:?}");

    // The moved range now lives on the recipient (and only there), with
    // agreement across the recipient's replicas.
    assert!(run.cluster.quiesce());
    run.cluster.gc_moved_ranges();
    check_run(&mut run.cluster, &mut run.history).unwrap();
    let moved: Vec<Vec<u8>> = run
        .hot
        .iter()
        .filter(|key| run.cluster.router().shard_for_key(key) != 0)
        .cloned()
        .collect();
    assert!(!moved.is_empty(), "no hot key changed owner");
    // Donor-side copies are gone after cutover + GC.
    for key in &moved {
        for node in 0..3 {
            assert!(
                run.cluster
                    .shard_mut(0)
                    .replica_mut(NodeId(node))
                    .local_read(key)
                    .is_none(),
                "moved key {} still on the donor",
                String::from_utf8_lossy(key)
            );
        }
    }
}

/// A hot range of more records than one chunk carries moves in several
/// chunks a round ([`CHUNK_ENTRIES`]), still at the stated cost and with
/// the history check clean.
#[test]
fn a_range_of_more_than_a_chunk_migrates_in_several_chunks() {
    let mut run = skewed_run(2_400, 0, 8, FaultPlan::benign());
    let stats = &run.stats;
    assert_eq!(stats.total.committed, 2_400);
    let m = &stats.migration;
    assert!(m.migrations_completed >= 1, "no migration completed: {m:?}");
    let rounds = m.migrations_started + m.catchup_rounds;
    assert!(
        m.snapshot_entries > CHUNK_ENTRIES as u64 && m.chunks > rounds,
        "{} chunks in {rounds} rounds for {} snapshot records: no round took more than one",
        m.chunks,
        m.snapshot_entries
    );
    // One snapshot, and catch-up rounds of a chunk each at most: the count
    // is exact.
    assert_eq!(m.migrations_started, 1);
    assert!(m.catchup_entries <= CHUNK_ENTRIES as u64, "{m:?}");
    let snapshot_chunks = m.snapshot_entries.div_ceil(CHUNK_ENTRIES as u64);
    assert_eq!(m.chunks, snapshot_chunks + m.catchup_rounds, "{m:?}");
    check_sharded_contract(&run.spec, stats, None).unwrap();
    assert!(run.cluster.quiesce());
    run.cluster.gc_moved_ranges();
    check_run(&mut run.cluster, &mut run.history).unwrap();
}

// ---------------------------------------------------------------------------
// Migrations on a faulty plane between groups
// ---------------------------------------------------------------------------

/// The skewed run with the plane between groups under `plan`.
fn skewed_run_on(plan: FaultPlan) -> SkewedRun {
    skewed_run(2_400, 700, 2, plan)
}

/// A chunk the plane loses, dropped or replaced by a tampered copy, aborts
/// its migration: placement stays as built, the donor serves on, nothing is
/// lost, and the end-of-run GC leaves the recipient no copy of the range.
#[test]
fn a_lost_chunk_aborts_the_move_and_the_donor_serves_on() {
    let drop = FaultPlan {
        drop_probability: 1.0,
        ..FaultPlan::benign()
    };
    let tamper = FaultPlan {
        tamper_probability: 1.0,
        ..FaultPlan::benign()
    };
    for plan in [drop, tamper] {
        let mut run = skewed_run_on(plan);
        let m = &run.stats.migration;
        assert!(m.migrations_started > 0, "no migration started: {m:?}");
        assert_eq!(m.migrations_completed, 0, "{plan:?}: {m:?}");
        // The first chunk of each snapshot is lost, and the move ends there.
        assert_eq!(m.chunks, m.migrations_started, "{plan:?}: {m:?}");
        let refused = if plan.tamper_probability > 0.0 {
            m.chunks
        } else {
            0
        };
        assert_eq!(m.chunks_rejected, refused, "{plan:?}: {m:?}");
        check_aborted_run(&mut run);
    }
}

/// A chunk lost after earlier rounds landed aborts the move too, and the
/// end-of-run GC clears the partial copy those rounds left on the
/// recipient.
#[test]
fn an_aborted_move_leaves_the_recipient_no_partial_copy() {
    let mut run = skewed_run_on(FaultPlan {
        drop_probability: 0.3,
        ..FaultPlan::benign()
    });
    let m = &run.stats.migration;
    assert_eq!(m.migrations_completed, 0, "{m:?}");
    assert!(
        m.chunks > m.migrations_started,
        "no chunk landed before a loss: {m:?}"
    );
    check_aborted_run(&mut run);
}

/// Every move of `run` aborted: the router is at its first epoch, every
/// operation committed once, the closed forms and the history hold, and no
/// replica of the recipient holds a hot key, with no GC but the driver's.
fn check_aborted_run(run: &mut SkewedRun) {
    assert_eq!(run.cluster.router().version().0, 0);
    assert_eq!(run.stats.total.committed, 2_400);
    check_sharded_contract(&run.spec, &run.stats, None).unwrap();
    for key in &run.hot {
        for node in 0..3 {
            assert!(
                run.cluster
                    .shard_mut(1)
                    .replica_mut(NodeId(node))
                    .local_read(key)
                    .is_none(),
                "hot key {} on the recipient",
                String::from_utf8_lossy(key)
            );
        }
    }
    check_run(&mut run.cluster, &mut run.history).unwrap();
}

/// A move whose recipient group has every replica down finds no replica
/// to take its first chunk and aborts, placement unchanged, for as long as
/// the group is down; once it restarts the move completes, and nothing the
/// donor committed is lost.
#[test]
fn a_recipient_group_wholly_down_aborts_the_move_until_it_restarts() {
    const RESTART_NS: u64 = 25_000_000;
    let crashes = (0..3).fold(CrashPlan::none(), |plan, node| {
        plan.crash_recover(NodeId(node), 1_000, RESTART_NS)
    });
    let spec = skewed_spec(2_400, FaultPlan::benign())
        .with_shard_policy(1, ShardPolicy::new().with_crash_plan(crashes));
    let mut run = run_skewed(spec, 0, 2);
    let m = &run.stats.migration;
    assert!(m.migrations_completed >= 1, "no migration completed: {m:?}");
    assert!(
        m.migrations_started > m.migrations_completed,
        "no move aborted while the recipient was down: {m:?}"
    );
    assert!(m.last_cutover_ns > RESTART_NS, "{m:?}");
    assert_eq!(run.stats.total.committed, 2_400);
    check_sharded_contract(&run.spec, &run.stats, None).unwrap();
    assert!(run.cluster.quiesce());
    run.cluster.gc_moved_ranges();
    check_run(&mut run.cluster, &mut run.history).unwrap();
}

/// Duplicated and replayed chunks reach the recipient's end, which refuses
/// every copy; the authentic chunks install and the moves complete.
#[test]
fn duplicated_and_replayed_chunks_are_refused_and_the_move_completes() {
    let mut run = skewed_run_on(FaultPlan {
        duplicate_probability: 0.3,
        replay_probability: 0.3,
        ..FaultPlan::benign()
    });
    let stats = &run.stats;
    let m = &stats.migration;
    assert!(m.migrations_completed >= 1, "no migration completed: {m:?}");
    assert!(m.chunks_rejected > 0, "no copy was refused: {m:?}");
    assert_eq!(run.cluster.router().version().0, m.migrations_completed);
    assert_eq!(stats.total.committed, 2_400);
    check_sharded_contract(&run.spec, stats, None).unwrap();
    assert!(run.cluster.quiesce());
    run.cluster.gc_moved_ranges();
    check_run(&mut run.cluster, &mut run.history).unwrap();
}

/// The plane's delay reaches every chunk: on a plane that delays each frame
/// by up to 1 ms the move still completes, and its cutover lands later than
/// on a benign plane. (At up to 5 ms a catch-up round takes so long that the
/// run's 2 400 operations end before the drain does.)
#[test]
fn a_delayed_plane_completes_the_move_and_cuts_over_later() {
    let mut delayed = skewed_run_on(FaultPlan {
        max_extra_delay_ns: 1_000_000,
        ..FaultPlan::benign()
    });
    let benign = skewed_run_on(FaultPlan::benign());
    let (m, b) = (&delayed.stats.migration, &benign.stats.migration);
    assert!(m.migrations_completed >= 1, "no migration completed: {m:?}");
    assert!(
        m.last_cutover_ns > b.last_cutover_ns,
        "delayed cutover at {} ns, benign at {} ns",
        m.last_cutover_ns,
        b.last_cutover_ns
    );
    assert_eq!(delayed.stats.total.committed, 2_400);
    check_sharded_contract(&delayed.spec, &delayed.stats, None).unwrap();
    assert!(delayed.cluster.quiesce());
    delayed.cluster.gc_moved_ranges();
    check_run(&mut delayed.cluster, &mut delayed.history).unwrap();
}

/// The scenario whose plane between groups delays, duplicates and replays
/// chunks passes its own expectations: the migrations complete, nothing is
/// lost. It ships enough chunks that a refused copy is all but certain
/// whatever the seed draws, not only at the scenario's seed.
#[test]
fn the_partition_during_migration_scenario_passes() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scenarios/partition_during_migration.toml"
    );
    let scenario = Scenario::from_path(std::path::Path::new(path)).unwrap();
    for outcome in run_scenario(&scenario) {
        assert!(
            outcome.passed(),
            "{}: {:?}",
            outcome.protocol,
            outcome.failures
        );
        let m = &outcome.stats.migration;
        assert!(m.chunks >= 16, "only {} chunks shipped: {m:?}", m.chunks);
        assert!(
            m.chunks_rejected > 0,
            "no copy of {} chunks was refused: {m:?}",
            m.chunks
        );
    }
}

// ---------------------------------------------------------------------------
// Replay equivalence: mid-run migration vs static final placement
// ---------------------------------------------------------------------------

/// The recorded schedule: every client issues exactly one operation (wide
/// stagger makes later issues land after the cutover). Ops 0..N write unique
/// keys; every 97th op rewrites one hot moving-range key, spaced far enough
/// apart that the per-key commit order is its issue order in both runs.
fn schedule_op(i: u64, hot: &[Vec<u8>]) -> Operation {
    if i.is_multiple_of(97) {
        Operation::Put {
            key: hot[0].clone(),
            value: format!("hot-{i}").into_bytes(),
        }
    } else {
        Operation::Put {
            key: format!("sched-{i:06}").into_bytes(),
            value: format!("val-{i}").into_bytes(),
        }
    }
}

fn replay_spec(ops: usize, rebalancing_enabled: bool) -> DeploymentSpec {
    DeploymentSpec::new(2, 3)
        .with_seed(21)
        .with_clients(ops, ops)
        .with_rebalance(RebalanceConfig {
            enabled: rebalancing_enabled,
            check_interval_ns: 4_000_000,
            min_window_commits: 60,
            imbalance_threshold: 1.3,
            issue_stagger_ns: 20_000, // spread issues over ~16 ms of virtual time
            ..RebalanceConfig::enabled()
        })
}

#[test]
fn mid_run_migration_commits_bit_identical_state_to_the_final_placement() {
    let ops = 800usize;

    // A schedule hot on shard 0: most unique keys hash anywhere, but the
    // recurring hot key plus a biased unique-key prefix keep shard 0 busiest.
    // First run: rebalancing on, migration happens mid-run.
    let spec = replay_spec(ops, true);
    let mut migrated = ShardedCluster::<RaftReplica>::build(spec.clone());
    let hot = migrated.router().hot_range(0, 48, 2);
    let hot_for_run = hot.clone();
    let stats_a = migrated.run_requests(move |client, seq| {
        let op = (seq == 1).then(|| {
            let i = client;
            if i % 3 != 0 {
                // Two thirds of the schedule hammers the hot range on shard 0.
                Operation::Put {
                    key: hot_for_run[(i as usize / 3) % hot_for_run.len()].clone(),
                    value: format!("v{i}").into_bytes(),
                }
            } else {
                schedule_op(i, &hot_for_run)
            }
        });
        op.map(Request::from)
    });
    assert_eq!(stats_a.total.committed, ops as u64, "run A lost commits");
    assert!(
        stats_a.migration.migrations_completed >= 1,
        "the migration never ran: {:?}",
        stats_a.migration
    );
    check_sharded_contract(&spec, &stats_a, None).unwrap();
    let moves: Vec<_> = migrated.router().moves().to_vec();
    assert!(!moves.is_empty());

    // Second run: same schedule, rebalancing off, router pre-set to the final
    // placement recorded by run A.
    let mut fixed = ShardedCluster::<RaftReplica>::build(replay_spec(ops, false));
    for mv in &moves {
        fixed.router_mut().rebalance(&mv.arcs, mv.to);
    }
    let hot_for_run = hot.clone();
    let stats_b = fixed.run_requests(move |client, seq| {
        let op = (seq == 1).then(|| {
            let i = client;
            if i % 3 != 0 {
                Operation::Put {
                    key: hot_for_run[(i as usize / 3) % hot_for_run.len()].clone(),
                    value: format!("v{i}").into_bytes(),
                }
            } else {
                schedule_op(i, &hot_for_run)
            }
        });
        op.map(Request::from)
    });
    assert_eq!(stats_b.total.committed, ops as u64, "run B lost commits");
    assert_eq!(stats_b.migration.migrations_completed, 0);

    // Let both settle, clear donor remnants, and compare the committed state
    // key by key: same owner shard, same bytes — bit-identical.
    assert!(migrated.quiesce());
    migrated.gc_moved_ranges();
    assert!(fixed.quiesce());
    fixed.gc_moved_ranges();
    assert_eq!(
        migrated.router().version(),
        fixed.router().version(),
        "replay must end at the same epoch"
    );

    let mut keys: Vec<Vec<u8>> = (0..ops as u64)
        .map(|i| {
            if i % 3 != 0 {
                hot[(i as usize / 3) % hot.len()].clone()
            } else if i.is_multiple_of(97) {
                hot[0].clone()
            } else {
                format!("sched-{i:06}").into_bytes()
            }
        })
        .collect();
    keys.sort_unstable();
    keys.dedup();
    let mut compared = 0;
    for key in &keys {
        let owner_a = migrated.router().shard_for_key(key);
        let owner_b = fixed.router().shard_for_key(key);
        assert_eq!(owner_a, owner_b, "placement diverged");
        let value_a = migrated
            .shard_mut(owner_a)
            .replica_mut(NodeId(0))
            .local_read(key);
        let value_b = fixed
            .shard_mut(owner_b)
            .replica_mut(NodeId(0))
            .local_read(key);
        assert_eq!(
            value_a,
            value_b,
            "committed state diverged on {}",
            String::from_utf8_lossy(key)
        );
        if value_a.is_some() {
            compared += 1;
        }
    }
    assert!(
        compared > (keys.len() * 9) / 10,
        "too few keys materialized: {compared}/{}",
        keys.len()
    );
}
