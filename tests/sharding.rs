//! Cross-crate integration for the sharded keyspace subsystem: consistent-hash
//! placement quality, deterministic multi-group runs, fault isolation between
//! shards, and per-shard agreement under cross-shard traffic. The
//! shard-scaling speedup is a claim of the `shard_scaling` figure, judged on
//! its committed baseline by `tests/claims.rs`.

mod common {
    pub mod history;
    pub mod recorder;
    pub mod replicas;
}

use recipe::core::{Operation, Request};
use recipe::protocols::RaftReplica;
use recipe::shard::{DeploymentSpec, ShardPolicy, ShardRouter, ShardedCluster, ShardedRunStats};
use recipe::workload::{stable_key_hash, WorkloadSpec};
use recipe_net::{CrashPlan, NodeId};
use std::cell::RefCell;
use std::collections::HashMap;

use common::history::History;
use common::replicas::check_run;

/// The YCSB key universe the paper's workload draws from.
fn key_universe() -> impl Iterator<Item = Vec<u8>> {
    (0..10_000).map(|i| format!("user{i:08}").into_bytes())
}

#[test]
fn every_key_routes_to_exactly_one_valid_shard() {
    for shards in [1usize, 2, 4, 8] {
        let router = ShardRouter::with_default_vnodes(shards);
        let again = ShardRouter::with_default_vnodes(shards);
        for key in key_universe() {
            let shard = router.shard_for_key(&key);
            assert!(shard < shards, "shard {shard} out of range for {shards}");
            // Total and deterministic: the same key never maps elsewhere.
            assert_eq!(shard, router.shard_for_key(&key));
            assert_eq!(shard, again.shard_for_key(&key));
        }
    }
}

#[test]
fn placement_is_balanced_over_the_key_universe() {
    let shards = 8usize;
    let router = ShardRouter::with_default_vnodes(shards);
    let mut counts = vec![0u64; shards];
    let mut total = 0u64;
    for key in key_universe() {
        counts[router.shard_for_key(&key)] += 1;
        total += 1;
    }
    let expected = total as f64 / shards as f64;
    // Chi-square statistic against the uniform expectation. Ring-arc variance
    // dominates (the counts are not multinomial), so the bound is calibrated
    // empirically: 256 vnodes/shard measures ~14 here, while a broken ring or
    // hash lands in the hundreds to thousands.
    let chi_square: f64 = counts
        .iter()
        .map(|&c| {
            let d = c as f64 - expected;
            d * d / expected
        })
        .sum();
    assert!(
        chi_square < 40.0,
        "chi-square {chi_square:.1} over {counts:?} (expected ~{expected:.0} per shard)"
    );
    let max = *counts.iter().max().unwrap() as f64;
    let min = *counts.iter().min().unwrap() as f64;
    assert!(max / expected < 1.25, "overloaded shard: {counts:?}");
    assert!(min / expected > 0.75, "starved shard: {counts:?}");
}

fn zipfian_workload(seed: u64) -> impl FnMut(u64, u64) -> Option<Request> {
    let generator = RefCell::new(
        WorkloadSpec {
            seed,
            ..WorkloadSpec::default()
        }
        .generator(),
    );
    move |_client, _seq| Some(generator.borrow_mut().next_op().into())
}

fn run_sharded_raft(shards: usize, operations: usize, seed: u64) -> ShardedRunStats {
    let spec = DeploymentSpec::new(shards, 3)
        .with_seed(seed)
        .with_clients(64, operations);
    ShardedCluster::<RaftReplica>::build(spec).run_requests(zipfian_workload(seed))
}

#[test]
fn sharded_runs_are_bit_identical_for_a_seed() {
    let a = run_sharded_raft(4, 600, 11);
    let b = run_sharded_raft(4, 600, 11);
    assert_eq!(a, b);
    assert_eq!(a.total.committed, 600);
    let c = run_sharded_raft(4, 600, 12);
    assert_ne!(a, c, "different seeds should schedule differently");
}

/// A run reports what its buffer pools lent: every frame came from a
/// group's frame pool (and so did every read reply's value), every entry a
/// follower copied from its store's entry pool, and each kind allocated for
/// a small share of what it lent. A second run on the same cluster, its
/// pools warm, counts only its own lending, frames and commits.
#[test]
fn a_run_reports_what_its_buffer_pools_lent() {
    let spec = DeploymentSpec::new(4, 3)
        .with_seed(11)
        .with_clients(64, 2_000);
    let mut cluster = ShardedCluster::<RaftReplica>::build(spec);
    let cold = cluster.run_requests(zipfian_workload(11));
    let warm = cluster.run_requests(zipfian_workload(12));
    let shards: u64 = warm.per_shard.iter().map(|s| s.committed).sum();
    assert_eq!(shards, warm.total.committed, "{:?}", warm.per_shard);
    for stats in [&cold, &warm] {
        let (frames, entries) = (stats.frames, stats.entries);
        let sent = stats.total.messages_delivered;
        assert!(stats.total.committed_reads > 0 && stats.total.committed_writes > 0);
        assert!(frames.takes >= sent, "{frames:?}: {sent} frames");
        assert!(frames.misses * 10 < frames.takes, "{frames:?}");
        assert!(
            entries.takes >= 2 * stats.total.committed_writes,
            "{entries:?}"
        );
        assert!(entries.misses < entries.takes, "{entries:?}");
    }
    assert!(warm.frames.misses < cold.frames.misses, "{:?}", warm.frames);
}

#[test]
fn crash_of_one_shard_leaves_other_shards_committing() {
    let shards = 4usize;
    // Kill the whole of shard 1 (leader and followers) early in the run.
    let plan = (0..3).fold(CrashPlan::none(), |plan, node| {
        plan.crash(NodeId(node), 2_000_000)
    });
    let spec = DeploymentSpec::new(shards, 3)
        // 100k operations are unreachable: the run ends at the 80 ms time cap.
        .with_clients(32, 100_000)
        .with_time_cap_ns(80_000_000)
        .with_shard_policy(1, ShardPolicy::new().with_crash_plan(plan));
    let mut cluster = ShardedCluster::<RaftReplica>::build(spec);
    let stats = cluster.run_requests(zipfian_workload(5));
    for (shard, s) in stats.per_shard.iter().enumerate() {
        if shard == 1 {
            continue;
        }
        assert!(
            s.committed > 50,
            "healthy shard {shard} starved: {} commits",
            s.committed
        );
    }
    // The dead shard stops at whatever committed before the crash; the
    // healthy shards together clearly outrun it. (The margin is bounded: a
    // closed-loop client whose in-flight operation targets the dead range
    // retries that same operation — it never silently drops it to move on —
    // so over time clients pile up blocked on the dead shard. Rebalancing
    // away from a fully-dead group needs a live donor leader to snapshot
    // from and is a recovery-path ROADMAP item.)
    let healthy: u64 = stats
        .per_shard
        .iter()
        .enumerate()
        .filter(|(shard, _)| *shard != 1)
        .map(|(_, s)| s.committed)
        .sum();
    assert!(
        healthy > stats.per_shard[1].committed * 2,
        "healthy shards {healthy} vs dead shard {}",
        stats.per_shard[1].committed
    );
}

#[test]
fn cross_shard_traffic_preserves_per_shard_agreement_and_isolation() {
    let shards = 4usize;
    let spec = DeploymentSpec::new(shards, 3).with_clients(24, 800);
    let mut cluster = ShardedCluster::<RaftReplica>::build(spec);
    // Distinct value per (client, seq) over a small key pool, so agreement
    // checks compare real data rather than identical filler bytes.
    let mut history = History::default();
    let stats = cluster.run_requests(history.record(|client, seq| {
        let key = format!("user{:08}", (client * 31 + seq * 7) % 200).into_bytes();
        Some(if seq % 4 == 0 {
            Operation::Get { key }.into()
        } else {
            let value = format!("v{client}:{seq}").into_bytes();
            Operation::Put { key, value }.into()
        })
    }));
    assert_eq!(stats.total.committed, 800);
    assert_eq!(
        stats.total.committed,
        stats.per_shard.iter().map(|s| s.committed).sum::<u64>()
    );
    // Agreement within each shard, and what the clients saw.
    check_run(&mut cluster, &mut history).unwrap();

    // The cluster's router is the authoritative placement (a standalone
    // router would diverge after any rebalancing epoch bump).
    let router = cluster.router().clone();
    let mut checked_isolation = 0;
    for i in 0..200u64 {
        let key = format!("user{i:08}").into_bytes();
        let owner = router.shard_for_key(&key);
        // Isolation: no other shard ever saw the key.
        for shard in 0..shards {
            if shard == owner {
                continue;
            }
            for node in 0..3 {
                assert!(
                    cluster
                        .shard_mut(shard)
                        .replica_mut(NodeId(node))
                        .local_read(&key)
                        .is_none(),
                    "key {} leaked onto shard {shard}",
                    String::from_utf8_lossy(&key)
                );
                checked_isolation += 1;
            }
        }
    }
    assert!(checked_isolation > 0);
}

#[test]
fn a_four_shard_run_is_complete_balanced_deterministic_and_in_agreement() {
    let quad = run_sharded_raft(4, 1_200, 7);
    assert_eq!(quad.total.committed, 1_200);
    // The Zipfian hot keys concentrate load, but virtual-node placement keeps
    // the busiest shard within a sane multiple of the fair share.
    assert!(quad.imbalance < 2.0, "imbalance {:.2}", quad.imbalance);

    // Per-shard agreement assertions still hold under sharding: re-run the
    // 4-shard config and inspect replica state directly.
    let spec = DeploymentSpec::new(4, 3)
        .with_seed(7)
        .with_clients(64, 1_200);
    let mut cluster = ShardedCluster::<RaftReplica>::build(spec);
    let stats = cluster.run_requests(zipfian_workload(7));
    assert_eq!(stats.total, quad.total, "same seed, same figures");
    assert!(cluster.quiesce());
    let mut agreed_keys = 0;
    for key in key_universe().take(2_000) {
        let owner = cluster.router().shard_for_key(&key);
        let values: Vec<Vec<u8>> = (0..3)
            .filter_map(|node| {
                cluster
                    .shard_mut(owner)
                    .replica_mut(NodeId(node))
                    .local_read(&key)
            })
            .collect();
        if let Some(first) = values.first() {
            agreed_keys += 1;
            assert!(values.iter().all(|v| v == first));
        }
    }
    assert!(
        agreed_keys > 0,
        "no written keys found in the sampled universe"
    );
}

/// One hash places every key: a drawn key's `stable_key_hash`, taken apart
/// from the router, lands on the shard the router picks for the key.
#[test]
fn workload_routing_hash_matches_router_placement() {
    let router = ShardRouter::with_default_vnodes(8);
    let mut generator = WorkloadSpec::default().generator();
    let mut per_shard: HashMap<usize, u64> = HashMap::new();
    for _ in 0..5_000 {
        let op = generator.next_op();
        let by_key = router.shard_for_key(op.key());
        let by_hash = router.shard_for_point(stable_key_hash(op.key()));
        assert_eq!(by_key, by_hash, "key and precomputed-hash routing disagree");
        *per_shard.entry(by_key).or_default() += 1;
    }
    assert_eq!(
        per_shard.len(),
        8,
        "zipfian traffic should still touch all shards"
    );
}
