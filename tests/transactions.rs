//! Cross-shard transaction properties: atomicity (all-or-nothing per
//! transaction), bit-deterministic final state, exactly-once 2PC under an
//! adversarial network, sealed frames on confidential participants, and
//! correctness across a concurrent shard migration.
//!
//! The atomicity invariant is token groups: every transaction writes the
//! *same unique token* to every key of a fixed key group whose members are
//! spread across shards. If 2PC ever committed partially, two keys of a
//! group would end up holding different tokens — which the checks below
//! would catch on any replica of any shard.

use std::cell::RefCell;
use std::collections::HashMap;

use recipe::core::{Operation, Request};
use recipe::net::FaultPlan;
use recipe::protocols::{RaftReplica, StoreReplica};
use recipe::shard::{DeploymentSpec, RebalanceConfig, ShardPolicy, ShardedCluster, TxnConfig};
use recipe::workload::stable_key_hash;

/// Builds `groups` key groups of `size` keys each, every group spanning at
/// least two shards of `cluster` (so transactions on it are cross-shard).
fn key_groups<R: recipe_sim::Replica>(
    cluster: &ShardedCluster<R>,
    groups: usize,
    size: usize,
) -> Vec<Vec<Vec<u8>>> {
    let router = cluster.router();
    let mut out = Vec::new();
    let mut candidate = 0u64;
    while out.len() < groups {
        // Greedy: pick `size` keys with at least two distinct owners.
        let mut keys: Vec<Vec<u8>> = Vec::new();
        let mut shards: Vec<usize> = Vec::new();
        while keys.len() < size {
            let key = format!("txn{candidate:08}").into_bytes();
            candidate += 1;
            let shard = router.shard_for_key(&key);
            if keys.len() == size - 1 && shards.iter().all(|&s| s == shard) {
                continue; // force at least two shards per group
            }
            shards.push(shard);
            keys.push(key);
        }
        out.push(keys);
    }
    out
}

/// The token transaction `attempt` of client `client` writes to group `g`.
fn token(client: u64, attempt: u64) -> Vec<u8> {
    format!("token-{client}-{attempt}").into_bytes()
}

/// A transactional workload: every client repeatedly picks a group
/// (round-robin over a client-specific stride so groups contend) and writes
/// its current token to every key of the group.
fn group_txn_workload(groups: Vec<Vec<Vec<u8>>>) -> impl FnMut(u64, u64) -> Option<Request> {
    move |client, seq| {
        let group = &groups[((client + seq) as usize * 7) % groups.len()];
        let value = token(client, seq);
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

/// Reads `key` from every replica of its owning shard and asserts agreement,
/// returning the committed value.
fn committed_value(cluster: &mut ShardedCluster<RaftReplica>, key: &[u8]) -> Option<Vec<u8>> {
    let shard = cluster.router().shard_for_key(key);
    let nodes = cluster.shard(shard).node_ids().to_vec();
    let mut values = Vec::new();
    for node in nodes {
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
    // Every replica of the shard holds the same value (the coordinator
    // installs committed transaction writes on leader and followers alike).
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

/// Asserts the token-group atomicity invariant over the final state: all
/// keys of each group hold one identical token (or the group was never
/// written). Returns the per-group tokens for determinism comparisons.
fn assert_groups_atomic(
    cluster: &mut ShardedCluster<RaftReplica>,
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

fn txn_spec(shards: usize, clients: usize, ops: usize) -> DeploymentSpec {
    DeploymentSpec::new(shards, 3)
        .with_seed(11)
        .with_clients(clients, ops)
        .with_time_cap_ns(40_000_000_000)
}

#[test]
fn cross_shard_transactions_commit_atomically_and_replicate() {
    let mut cluster = ShardedCluster::<RaftReplica>::build(txn_spec(4, 8, 400));
    let groups = key_groups(&cluster, 6, 3);
    let stats = cluster.run_requests(group_txn_workload(groups.clone()));
    assert!(stats.total.committed >= 400);
    assert_eq!(stats.total.committed, stats.txn.committed_ops);
    assert!(stats.txn.committed > 0);
    assert!(
        stats.txn.cross_shard_committed > 0,
        "no cross-shard txn ran"
    );
    assert!(stats.txn.max_fanout >= 2);
    // A lane joins one of the 8 clients' endpoints to one of the 4 shards',
    // each endpoint launched and each lane provisioned once for the run.
    assert!(stats.txn.endpoints <= 8 + 4);
    assert!((stats.txn.max_fanout..=8 * 4).contains(&stats.txn.lanes));
    // Plaintext deployment: 2PC frames are MAC'd but not sealed.
    assert!(stats.txn.frames_sent > 0);
    assert_eq!(stats.txn.sealed_frames, 0);
    cluster.quiesce(200_000_000);
    let tokens = assert_groups_atomic(&mut cluster, &groups);
    assert!(tokens.iter().any(|t| t.is_some()), "nothing committed");
}

#[test]
fn transactional_and_single_key_traffic_interleave() {
    let mut cluster = ShardedCluster::<RaftReplica>::build(txn_spec(4, 8, 600));
    let groups = key_groups(&cluster, 4, 3);
    let groups_for_workload = groups.clone();
    let stats = cluster.run_requests(move |client, seq| {
        if client % 2 == 0 {
            // Transactional clients hammer the shared groups.
            let group = &groups_for_workload[((client + seq) as usize) % groups_for_workload.len()];
            let value = token(client, seq);
            Some(Request::Txn(
                group
                    .iter()
                    .map(|key| Operation::Put {
                        key: key.clone(),
                        value: value.clone(),
                    })
                    .collect(),
            ))
        } else {
            // Single-key clients write disjoint keys through the fast path.
            Some(Request::Single(Operation::Put {
                key: format!("single-{client}-{}", seq % 64).into_bytes(),
                value: vec![0xAB; 64],
            }))
        }
    });
    assert!(stats.total.committed >= 600);
    assert!(stats.txn.committed > 0);
    // Single-key commits flow through the shards' own protocol pipelines.
    assert!(stats.total.committed > stats.txn.committed_ops);
    cluster.quiesce(200_000_000);
    assert_groups_atomic(&mut cluster, &groups);
}

#[test]
fn conflicting_transactions_abort_and_retry_to_completion() {
    // Many clients, one contended group: aborts are inevitable, yet every
    // client eventually commits and the group never mixes tokens.
    let mut cluster = ShardedCluster::<RaftReplica>::build(txn_spec(2, 12, 240));
    let groups = key_groups(&cluster, 1, 4);
    let stats = cluster.run_requests(group_txn_workload(groups.clone()));
    assert!(stats.total.committed >= 240);
    assert!(stats.txn.aborted > 0, "contention produced no aborts");
    assert!(stats.txn.prepare_conflicts > 0);
    // Aborted attempts never contribute commits.
    assert_eq!(stats.total.committed, stats.txn.committed_ops);
    cluster.quiesce(200_000_000);
    assert_groups_atomic(&mut cluster, &groups);
}

#[test]
fn sealed_frames_when_any_participant_is_confidential() {
    let spec = txn_spec(4, 6, 200).with_shard_policy(1, ShardPolicy::confidential());
    let mut cluster = ShardedCluster::<RaftReplica>::build(spec);
    let groups = key_groups(&cluster, 5, 3);
    // Keep only groups that touch shard 1 plus one that does not, so both
    // sealed and plaintext transactions run.
    let touches = |group: &Vec<Vec<u8>>, shard: usize, cluster: &ShardedCluster<RaftReplica>| {
        group
            .iter()
            .any(|key| cluster.router().shard_for_key(key) == shard)
    };
    assert!(groups.iter().any(|g| touches(g, 1, &cluster)));
    let stats = cluster.run_requests(group_txn_workload(groups.clone()));
    assert!(stats.txn.committed > 0);
    // Transactions with a confidential participant sealed *every* frame
    // (stricter-wins); the rest stayed MAC-only.
    assert!(stats.txn.sealed_frames > 0, "no sealed 2PC frames");
    assert!(
        stats.txn.sealed_frames < stats.txn.frames_sent,
        "plaintext-only transactions should not seal"
    );
    cluster.quiesce(200_000_000);
    assert_groups_atomic(&mut cluster, &groups);
}

#[test]
fn atomicity_survives_dropped_and_reordered_2pc_frames() {
    let spec = txn_spec(3, 8, 300).with_txn(TxnConfig {
        fault_plan: FaultPlan {
            drop_probability: 0.10,
            tamper_probability: 0.05,
            duplicate_probability: 0.05,
            replay_probability: 0.05,
            ..FaultPlan::default()
        },
        ..TxnConfig::default()
    });
    let mut cluster = ShardedCluster::<RaftReplica>::build(spec);
    let groups = key_groups(&cluster, 5, 3);
    let stats = cluster.run_requests(group_txn_workload(groups.clone()));
    assert!(stats.total.committed >= 300);
    assert!(
        stats.txn.frames_dropped > 0,
        "adversary never dropped a frame"
    );
    assert!(
        stats.txn.frames_rejected > 0,
        "no shield rejections recorded"
    );
    // Exactly-once despite retransmissions: committed ops equal driver
    // commits, no duplicates.
    assert_eq!(stats.total.committed, stats.txn.committed_ops);
    cluster.quiesce(200_000_000);
    assert_groups_atomic(&mut cluster, &groups);
}

#[test]
fn transactional_runs_are_bit_deterministic() {
    let run = |with_faults: bool| {
        let mut spec = txn_spec(3, 8, 300);
        if with_faults {
            spec = spec.with_txn(TxnConfig {
                fault_plan: FaultPlan {
                    drop_probability: 0.08,
                    duplicate_probability: 0.05,
                    ..FaultPlan::default()
                },
                ..TxnConfig::default()
            });
        }
        let mut cluster = ShardedCluster::<RaftReplica>::build(spec);
        let groups = key_groups(&cluster, 5, 3);
        let stats = cluster.run_requests(group_txn_workload(groups.clone()));
        cluster.quiesce(200_000_000);
        let tokens = assert_groups_atomic(&mut cluster, &groups);
        (stats, tokens)
    };
    let (stats_a, tokens_a) = run(false);
    let (stats_b, tokens_b) = run(false);
    assert_eq!(stats_a, stats_b);
    assert_eq!(tokens_a, tokens_b);
    let (stats_c, tokens_c) = run(true);
    let (stats_d, tokens_d) = run(true);
    assert_eq!(stats_c, stats_d);
    assert_eq!(tokens_c, tokens_d);
}

#[test]
fn migration_of_a_participating_range_mid_transaction_loses_nothing() {
    // Two shards; transactional load concentrated on groups owned by shard
    // 0 plus background singles. The rebalancing controller migrates hot
    // arcs of shard 0 mid-run; transactions on the moving range back off
    // during the drain, re-resolve after the epoch bump, and the invariant
    // holds: every group uniform, zero lost or duplicated commits.
    let ops = 2_600usize;
    let spec = txn_spec(2, 24, ops)
        .with_seed(9)
        .with_rebalance(RebalanceConfig {
            check_interval_ns: 10_000_000,
            min_window_commits: 120,
            imbalance_threshold: 1.25,
            ..RebalanceConfig::enabled()
        });
    let mut cluster = ShardedCluster::<RaftReplica>::build(spec);

    // Build groups whose first key lives on shard 0 (the hot side), plus a
    // disjoint set of hot single keys on shard 0 — the combined skew trips
    // the imbalance controller into migrating shard 0's hottest arcs, which
    // include arcs the transaction groups live on.
    let (groups, single_keys): (Vec<Vec<Vec<u8>>>, Vec<Vec<u8>>) = {
        let router = cluster.router();
        let mut groups = Vec::new();
        let mut candidate = 0u64;
        while groups.len() < 8 {
            let key = format!("hotgrp{candidate:08}").into_bytes();
            candidate += 1;
            if router.shard_for_key(&key) != 0 {
                continue;
            }
            let partner = format!("partner{:08}", groups.len()).into_bytes();
            groups.push(vec![key, partner]);
        }
        let mut singles = Vec::new();
        let mut candidate = 0u64;
        while singles.len() < 48 {
            let key = format!("hotsingle{candidate:08}").into_bytes();
            candidate += 1;
            if router.shard_for_key(&key) == 0 {
                singles.push(key);
            }
        }
        (groups, singles)
    };

    let issued = RefCell::new(0u64);
    let groups_for_workload = groups.clone();
    let stats = cluster.run_requests(move |client, seq| {
        let n = {
            let mut n = issued.borrow_mut();
            *n += 1;
            *n
        };
        if client % 3 == 0 {
            let group = &groups_for_workload[(n as usize) % groups_for_workload.len()];
            let value = token(client, seq);
            Some(Request::Txn(
                group
                    .iter()
                    .map(|key| Operation::Put {
                        key: key.clone(),
                        value: value.clone(),
                    })
                    .collect(),
            ))
        } else {
            // Background singles hammer shard 0's hot keys (disjoint from
            // the transaction groups) to trip the imbalance controller.
            let key = single_keys[((client * 131 + seq * 17) as usize) % single_keys.len()].clone();
            Some(Request::Single(Operation::Put {
                key,
                value: vec![0xAB; 64],
            }))
        }
    });

    // The commit target can overshoot by the transactions that were already
    // decided when it was reached (2PC termination: a decided transaction
    // resolves on every participant) — never undershoot, never by more than
    // the in-flight population.
    assert!(stats.total.committed >= ops as u64, "lost commits");
    assert!(
        stats.total.committed < ops as u64 + 100,
        "runaway overshoot: {}",
        stats.total.committed
    );
    assert!(stats.txn.committed > 0);
    cluster.quiesce(300_000_000);
    cluster.gc_moved_ranges();
    assert_groups_atomic(&mut cluster, &groups);
    // The skew must actually have triggered a migration mid-run, and
    // in-flight transactions held up the drain rather than being cut
    // mid-2PC.
    assert!(
        stats.migration.migrations_completed >= 1,
        "no migration ran: {:?}",
        stats.migration
    );
    assert_eq!(stats.migration.router_version, cluster.router().version().0);
    assert!(stats.migration.router_version >= 1);
    // Post-cutover, stale clients were redirected; the group invariant
    // above already verified every replica of every shard.
    assert!(stats.migration.redirects > 0);
}

#[test]
fn transactions_on_one_shard_still_run_two_phase_locking() {
    // Fan-out 1: both keys on the same shard. Still atomic, still locked.
    let mut cluster = ShardedCluster::<RaftReplica>::build(txn_spec(2, 4, 120));
    let router = cluster.router().clone();
    let mut same_shard_pair: Option<(Vec<u8>, Vec<u8>)> = None;
    let mut candidate = 0u64;
    while same_shard_pair.is_none() {
        let a = format!("a{candidate:06}").into_bytes();
        let b = format!("b{candidate:06}").into_bytes();
        candidate += 1;
        if router.shard_for_key(&a) == router.shard_for_key(&b) {
            same_shard_pair = Some((a, b));
        }
    }
    let (a, b) = same_shard_pair.unwrap();
    let (a2, b2) = (a.clone(), b.clone());
    let stats = cluster.run_requests(move |client, seq| {
        let value = token(client, seq);
        Some(Request::Txn(vec![
            Operation::Put {
                key: a2.clone(),
                value: value.clone(),
            },
            Operation::Put {
                key: b2.clone(),
                value,
            },
        ]))
    });
    assert!(stats.txn.committed > 0);
    assert_eq!(stats.txn.cross_shard_committed, 0);
    assert_eq!(stats.txn.max_fanout, 1);
    cluster.quiesce(200_000_000);
    let va = committed_value(&mut cluster, &a);
    let vb = committed_value(&mut cluster, &b);
    assert_eq!(va, vb, "single-shard transaction committed partially");
    assert!(va.is_some());
}

/// Deterministic multi-key workload generator shared with `fig_txn` (the
/// recipe-workload satellite): committed state must be identical for a
/// fixed seed and classify fan-outs correctly.
#[test]
fn txn_workload_generator_is_deterministic_and_respects_fanout() {
    use recipe::workload::{TxnWorkloadSpec, WorkloadRequest};
    let spec = TxnWorkloadSpec {
        txn_fraction: 0.5,
        ops_per_txn: 3,
        fan_out: 2,
        ..TxnWorkloadSpec::default()
    };
    let classify = |key: &[u8]| (stable_key_hash(key) % 4) as usize;
    let mut a = spec.generator();
    let mut b = spec.generator();
    let mut txns = 0;
    let mut singles = 0;
    for _ in 0..2_000 {
        let ra = a.next_request(&classify);
        let rb = b.next_request(&classify);
        assert_eq!(ra, rb, "generator diverged");
        match ra {
            WorkloadRequest::Txn(ops) => {
                txns += 1;
                assert_eq!(ops.len(), 3);
                let mut classes: Vec<usize> = ops.iter().map(|op| classify(op.key())).collect();
                classes.sort_unstable();
                classes.dedup();
                assert!(classes.len() <= 2, "fan-out bound violated");
            }
            WorkloadRequest::Single(_) => singles += 1,
        }
    }
    assert!(
        txns > 800 && singles > 800,
        "txn fraction off: {txns}/{singles}"
    );
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

    /// The acceptance property: for arbitrary seeds, client populations and
    /// adversarial 2PC fault mixes, every transaction commits on all
    /// participating shards or none (token-group invariant on every replica)
    /// and the final state is bit-deterministic for the configuration.
    #[test]
    fn txns_are_all_or_nothing_and_deterministic_under_arbitrary_faults(
        seed in 0u64..1_000,
        clients in 4usize..12,
        drop_pct in 0u32..15,
        tamper_pct in 0u32..10,
        duplicate_pct in 0u32..10,
        replay_pct in 0u32..10,
    ) {
        let run = || {
            let spec = DeploymentSpec::new(3, 3)
                .with_seed(seed)
                .with_clients(clients, 160)
                .with_time_cap_ns(40_000_000_000)
                .with_txn(TxnConfig {
                    fault_plan: FaultPlan {
                        drop_probability: drop_pct as f64 / 100.0,
                        tamper_probability: tamper_pct as f64 / 100.0,
                        duplicate_probability: duplicate_pct as f64 / 100.0,
                        replay_probability: replay_pct as f64 / 100.0,
                        ..FaultPlan::default()
                    },
                    ..TxnConfig::default()
                });
            let mut cluster = ShardedCluster::<RaftReplica>::build(spec);
            let groups = key_groups(&cluster, 3, 3);
            let stats = cluster.run_requests(group_txn_workload(groups.clone()));
            cluster.quiesce(200_000_000);
            (cluster, groups, stats)
        };
        let (mut cluster_a, groups, stats_a) = run();
        // All-or-nothing on every replica of every shard.
        let tokens_a = assert_groups_atomic(&mut cluster_a, &groups);
        // Exactly-once: commits equal the transactional ops, no duplicates.
        proptest::prop_assert!(stats_a.total.committed >= 160);
        proptest::prop_assert_eq!(stats_a.total.committed, stats_a.txn.committed_ops);
        // Bit-deterministic final state and statistics.
        let (mut cluster_b, groups_b, stats_b) = run();
        let tokens_b = assert_groups_atomic(&mut cluster_b, &groups_b);
        proptest::prop_assert_eq!(stats_a, stats_b);
        proptest::prop_assert_eq!(tokens_a, tokens_b);
    }
}

/// Lock conflicts must never leak: after every run, no key stays locked.
#[test]
fn no_locks_survive_a_completed_run() {
    let mut cluster = ShardedCluster::<RaftReplica>::build(txn_spec(2, 10, 200));
    let groups = key_groups(&cluster, 2, 3);
    cluster.run_requests(group_txn_workload(groups.clone()));
    cluster.quiesce(200_000_000);
    // Submitting singles against every group key succeeds — a leaked lock
    // would defer them forever.
    let all_keys: HashMap<Vec<u8>, usize> = groups
        .iter()
        .flatten()
        .map(|key| (key.clone(), cluster.router().shard_for_key(key)))
        .collect();
    let keys: Vec<Vec<u8>> = all_keys.keys().cloned().collect();
    let keys_for_workload = keys.clone();
    let stats = cluster.run_requests(move |_c, seq| {
        Some(Request::Single(Operation::Put {
            key: keys_for_workload[(seq as usize) % keys_for_workload.len()].clone(),
            value: b"after".to_vec(),
        }))
    });
    assert!(stats.total.committed > 0, "a leaked lock blocked the store");
}
