//! Cross-shard transaction properties: atomicity (all-or-nothing per
//! transaction), bit-deterministic final state, exactly-once 2PC under an
//! adversarial network, sealed frames on confidential participants, and
//! correctness across a concurrent shard migration.
//!
//! Every run records what its clients saw and is checked once its traffic
//! has landed (`common::replicas::check_run`). The atomicity invariant is
//! token groups (`common::groups`): if 2PC ever committed partially, two
//! keys of a group would end up holding different tokens, which the final
//! reads of every replica of every shard show.

mod common {
    pub mod books;
    pub mod groups;
    pub mod history;
    pub mod recorder;
    pub mod replicas;
    pub mod sharded_contract;
}

use std::cell::RefCell;
use std::collections::HashMap;

use recipe::bft::dispatch;
use recipe::core::{ConfidentialityMode, Operation, Request};
use recipe::net::FaultPlan;
use recipe::protocols::{Protocol, ProtocolMode, ProtocolVisitor, RaftReplica, StoreReplica};
use recipe::shard::{
    DeploymentSpec, RebalanceConfig, ShardPolicy, ShardedCluster, ShardedRunStats,
};
use recipe::workload::{stable_key_hash, TxnWorkloadSpec, WorkloadSpec};

use common::books::unbalanced_books;
use common::groups::{group_txn, group_txn_workload, key_groups};
use common::history::History;
use common::replicas::check_run;
use common::sharded_contract::check_sharded_contract;

/// A 64-byte value unique to `client`'s request `seq`.
fn unique_64b(client: u64, seq: u64) -> Vec<u8> {
    format!("{client:>32}{seq:>32}").into_bytes()
}

fn txn_spec(shards: usize, clients: usize, ops: usize) -> DeploymentSpec {
    DeploymentSpec::new(shards, 3)
        .with_seed(11)
        .with_clients(clients, ops)
        .with_time_cap_ns(40_000_000_000)
}

#[test]
fn cross_shard_transactions_commit_atomically_and_replicate() {
    let spec = txn_spec(4, 8, 400);
    let mut cluster = ShardedCluster::<RaftReplica>::build(spec.clone());
    let groups = key_groups(&cluster, 6, 3);
    let mut history = History::default();
    let stats = cluster.run_requests(history.record(group_txn_workload(groups)));
    assert!(stats.total.committed >= 400);
    assert_eq!(stats.total.committed, stats.txn.committed_ops);
    assert!(stats.txn.committed > 0);
    assert!(
        stats.txn.cross_shard_committed > 0,
        "no cross-shard txn ran"
    );
    check_sharded_contract(&spec, &stats, None).unwrap();
    // Plaintext deployment: 2PC frames are MAC'd but not sealed.
    assert_eq!(stats.txn.sealed_frames, 0);
    check_run(&mut cluster, &mut history).unwrap();
}

#[test]
fn transactional_and_single_key_traffic_interleave() {
    let spec = txn_spec(4, 8, 600);
    let mut cluster = ShardedCluster::<RaftReplica>::build(spec.clone());
    let groups = key_groups(&cluster, 4, 3);
    let mut history = History::default();
    let stats = cluster.run_requests(history.record(move |client, seq| {
        if client % 2 == 0 {
            // Transactional clients hammer the shared groups.
            let group = &groups[((client + seq) as usize) % groups.len()];
            Some(group_txn(group, client, seq))
        } else {
            // Single-key clients write disjoint keys through the fast path.
            Some(Request::Single(Operation::Put {
                key: format!("single-{client}-{}", seq % 64).into_bytes(),
                value: unique_64b(client, seq),
            }))
        }
    }));
    assert!(stats.total.committed >= 600);
    assert!(stats.txn.committed > 0);
    check_sharded_contract(&spec, &stats, None).unwrap();
    // Single-key commits flow through the shards' own protocol pipelines.
    assert!(stats.total.committed > stats.txn.committed_ops);
    check_run(&mut cluster, &mut history).unwrap();
}

/// Every transaction writes two keys of shard 0 and one of shard 1: each
/// operation is counted once, on its own shard, and each request's latency
/// is sampled once per shard it touched, so both shards read the run's
/// latency figures.
#[test]
fn a_cross_shard_transaction_counts_each_operation_and_samples_each_shard_once() {
    let spec = txn_spec(2, 4, 300);
    let mut cluster = ShardedCluster::<RaftReplica>::build(spec.clone());
    let router = cluster.router();
    let (first, second) = (router.hot_range(0, 8, 4), router.hot_range(1, 8, 4));
    let mut history = History::default();
    let stats = cluster.run_requests(history.record(move |client: u64, seq: u64| {
        let i = (client * 1_000 + seq) as usize;
        let put = |keys: &Vec<Vec<u8>>, at: usize| Operation::Put {
            key: keys[at % keys.len()].clone(),
            value: unique_64b(client, seq),
        };
        Some(Request::Txn(vec![
            put(&first, 2 * i),
            put(&second, i),
            put(&first, 2 * i + 1),
        ]))
    }));
    let (shard0, shard1) = (&stats.per_shard[0], &stats.per_shard[1]);
    assert!(stats.txn.cross_shard_committed > 0);
    assert_eq!(stats.txn.cross_shard_committed, stats.txn.committed);
    assert_eq!(shard0.committed, 2 * shard1.committed);
    assert_eq!(shard0.committed + shard1.committed, stats.total.committed);
    assert_eq!(stats.total.committed, stats.txn.committed_ops);
    for shard in [shard0, shard1] {
        let figures = |s: &recipe::sim::RunStats| {
            let (mean, p50, p90) = (s.mean_latency_us, s.p50_latency_us, s.p90_latency_us);
            [mean, p50, p90, s.p99_latency_us, s.p999_latency_us]
        };
        assert_eq!(figures(shard), figures(&stats.total));
    }
    check_sharded_contract(&spec, &stats, None).unwrap();
    check_run(&mut cluster, &mut history).unwrap();
}

/// One contended key: four clients each write their token to the group
/// that holds it and read the key on its own, in turn. Every read sees a
/// whole transaction's token, in real-time order. A read that finds the key
/// locked is dropped until its client's retransmission.
#[test]
fn a_contended_key_is_read_between_whole_transactions() {
    let spec = txn_spec(2, 4, 300);
    let mut cluster = ShardedCluster::<RaftReplica>::build(spec.clone());
    let group = key_groups(&cluster, 1, 2).remove(0);
    let key = group[0].clone();
    let mut history = History::default();
    let stats = cluster.run_requests(history.record(move |client, seq| {
        Some(if seq % 2 == 1 {
            group_txn(&group, client, seq)
        } else {
            Operation::Get { key: key.clone() }.into()
        })
    }));
    assert!(stats.txn.committed > 0);
    assert!(stats.total.committed_reads > 0);
    check_sharded_contract(&spec, &stats, None).unwrap();
    check_run(&mut cluster, &mut history).unwrap();
}

#[test]
fn conflicting_transactions_abort_and_retry_to_completion() {
    // Many clients, one contended group: aborts are inevitable, yet every
    // client eventually commits and the group never mixes tokens.
    let spec = txn_spec(2, 12, 240);
    let mut cluster = ShardedCluster::<RaftReplica>::build(spec.clone());
    let groups = key_groups(&cluster, 1, 4);
    let mut history = History::default();
    let stats = cluster.run_requests(history.record(group_txn_workload(groups)));
    assert!(stats.total.committed >= 240);
    assert!(stats.txn.aborted > 0, "contention produced no aborts");
    assert!(stats.txn.prepare_conflicts > 0);
    // Aborted attempts never contribute commits, yet cost their frames.
    assert_eq!(stats.total.committed, stats.txn.committed_ops);
    check_sharded_contract(&spec, &stats, None).unwrap();
    check_run(&mut cluster, &mut history).unwrap();
}

#[test]
fn sealed_frames_when_any_participant_is_confidential() {
    let spec = txn_spec(4, 6, 200).with_shard_policy(1, ShardPolicy::confidential());
    let mut cluster = ShardedCluster::<RaftReplica>::build(spec.clone());
    let groups = key_groups(&cluster, 5, 3);
    // Keep only groups that touch shard 1 plus one that does not, so both
    // sealed and plaintext transactions run.
    let touches = |group: &Vec<Vec<u8>>, shard: usize, cluster: &ShardedCluster<RaftReplica>| {
        group
            .iter()
            .any(|key| cluster.router().shard_for_key(key) == shard)
    };
    assert!(groups.iter().any(|g| touches(g, 1, &cluster)));
    let mut history = History::default();
    let stats = cluster.run_requests(history.record(group_txn_workload(groups)));
    assert!(stats.txn.committed > 0);
    // Transactions with a confidential participant sealed *every* frame
    // (stricter-wins); the rest stayed MAC-only.
    assert!(stats.txn.sealed_frames > 0, "no sealed 2PC frames");
    assert!(
        stats.txn.sealed_frames < stats.txn.frames_sent,
        "plaintext-only transactions should not seal"
    );
    check_sharded_contract(&spec, &stats, None).unwrap();
    check_run(&mut cluster, &mut history).unwrap();
}

#[test]
fn atomicity_survives_dropped_and_reordered_2pc_frames() {
    let spec = txn_spec(3, 8, 300).with_plane_fault_plan(FaultPlan {
        drop_probability: 0.10,
        tamper_probability: 0.05,
        duplicate_probability: 0.05,
        replay_probability: 0.05,
        ..FaultPlan::default()
    });
    let mut cluster = ShardedCluster::<RaftReplica>::build(spec.clone());
    let groups = key_groups(&cluster, 5, 3);
    let mut history = History::default();
    let stats = cluster.run_requests(history.record(group_txn_workload(groups)));
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
    // commits, no duplicates, and each lost frame was sent once more.
    assert_eq!(stats.total.committed, stats.txn.committed_ops);
    check_sharded_contract(&spec, &stats, None).unwrap();
    check_run(&mut cluster, &mut history).unwrap();
}

/// The plane's delay reaches every 2PC leg: the same transactions on a
/// plane that delays each frame by up to 5 ms take longer than on a benign
/// one, and both runs keep 2PC's closed forms and a clean history.
#[test]
fn a_plane_delay_reaches_every_2pc_leg() {
    let run = |plane: FaultPlan| {
        let spec = txn_spec(3, 8, 300).with_plane_fault_plan(plane);
        let mut cluster = ShardedCluster::<RaftReplica>::build(spec.clone());
        let groups = key_groups(&cluster, 5, 3);
        let mut history = History::default();
        let stats = cluster.run_requests(history.record(group_txn_workload(groups)));
        assert!(stats.total.committed >= 300);
        check_sharded_contract(&spec, &stats, None).unwrap();
        check_run(&mut cluster, &mut history).unwrap();
        stats
    };
    let delayed = run(FaultPlan {
        max_extra_delay_ns: 5_000_000,
        ..FaultPlan::default()
    });
    let benign = run(FaultPlan::benign());
    assert!(
        delayed.total.mean_latency_us > benign.total.mean_latency_us,
        "delayed {} us, benign {} us",
        delayed.total.mean_latency_us,
        benign.total.mean_latency_us
    );
}

#[test]
fn transactional_runs_are_bit_deterministic() {
    let run = |with_faults: bool| {
        let mut spec = txn_spec(3, 8, 300);
        if with_faults {
            spec = spec.with_plane_fault_plan(FaultPlan {
                drop_probability: 0.08,
                duplicate_probability: 0.05,
                ..FaultPlan::default()
            });
        }
        let mut cluster = ShardedCluster::<RaftReplica>::build(spec.clone());
        let groups = key_groups(&cluster, 5, 3);
        let mut history = History::default();
        let stats = cluster.run_requests(history.record(group_txn_workload(groups)));
        check_sharded_contract(&spec, &stats, None).unwrap();
        check_run(&mut cluster, &mut history).unwrap();
        (stats, history)
    };
    assert_eq!(run(false), run(false));
    assert_eq!(run(true), run(true));
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
    let mut cluster = ShardedCluster::<RaftReplica>::build(spec.clone());

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
    let mut history = History::default();
    let stats = cluster.run_requests(history.record(move |client, seq| {
        let n = {
            let mut n = issued.borrow_mut();
            *n += 1;
            *n
        };
        if client % 3 == 0 {
            let group = &groups[(n as usize) % groups.len()];
            Some(group_txn(group, client, seq))
        } else {
            // Background singles hammer shard 0's hot keys (disjoint from
            // the transaction groups) to trip the imbalance controller.
            let key = single_keys[((client * 131 + seq * 17) as usize) % single_keys.len()].clone();
            Some(Request::Single(Operation::Put {
                key,
                value: unique_64b(client, seq),
            }))
        }
    }));

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
    check_sharded_contract(&spec, &stats, None).unwrap();
    assert!(cluster.quiesce());
    cluster.gc_moved_ranges();
    check_run(&mut cluster, &mut history).unwrap();
    // The skew must actually have triggered a migration mid-run, and
    // in-flight transactions held up the drain rather than being cut
    // mid-2PC.
    assert!(
        stats.migration.migrations_completed >= 1,
        "no migration ran: {:?}",
        stats.migration
    );
    assert_eq!(
        cluster.router().version().0,
        stats.migration.migrations_completed
    );
    // Post-cutover, stale clients were redirected; the check above already
    // read every replica of every shard.
    assert!(stats.migration.redirects > 0);
}

#[test]
fn transactions_on_one_shard_still_run_two_phase_locking() {
    // Fan-out 1: both keys on the same shard. Still atomic, still locked.
    let spec = txn_spec(2, 4, 120);
    let mut cluster = ShardedCluster::<RaftReplica>::build(spec.clone());
    let router = cluster.router().clone();
    let mut same_shard_pair: Option<Vec<Vec<u8>>> = None;
    let mut candidate = 0u64;
    while same_shard_pair.is_none() {
        let a = format!("a{candidate:06}").into_bytes();
        let b = format!("b{candidate:06}").into_bytes();
        candidate += 1;
        if router.shard_for_key(&a) == router.shard_for_key(&b) {
            same_shard_pair = Some(vec![a, b]);
        }
    }
    let pair = same_shard_pair.unwrap();
    let mut history = History::default();
    let stats = cluster
        .run_requests(history.record(move |client, seq| Some(group_txn(&pair, client, seq))));
    assert!(stats.txn.committed > 0);
    assert_eq!(stats.txn.cross_shard_committed, 0);
    assert_eq!(stats.txn.participants, stats.txn.started);
    check_sharded_contract(&spec, &stats, None).unwrap();
    check_run(&mut cluster, &mut history).unwrap();
}

/// One cell of the contract grid: `spec` driven by write-only transactions
/// of `txns`, each placed by the deployment's own router.
struct GridCell {
    spec: DeploymentSpec,
    txns: TxnWorkloadSpec,
}

impl ProtocolVisitor for GridCell {
    type Output = ShardedRunStats;

    fn visit<R: StoreReplica>(self) -> ShardedRunStats {
        let mut cluster = ShardedCluster::<R>::build(self.spec);
        let router = cluster.router().clone();
        let mut txns = self.txns.generator();
        cluster.run_requests(move |_, _| Some(txns.next_request(&|key| router.shard_for_key(key))))
    }
}

/// Every protocol that takes part in transactions keeps 2PC's closed forms
/// (`check_sharded_contract`) over 2 and 4 shards, fan-out 1 to 3, plaintext
/// and with one confidential shard where the protocol has a confidential
/// mode, and at five replicas once; and the run's books balance.
#[test]
fn every_txn_protocol_keeps_the_2pc_contract_over_a_grid() {
    let plaintext = ProtocolMode::Recipe {
        confidentiality: ConfidentialityMode::Plaintext,
    };
    let mut cells = Vec::new();
    for protocol in Protocol::ALL.into_iter().filter(|p| p.supports_txn()) {
        for shards in [2, 4] {
            for fan_out in [1, 2, 3] {
                for confidential in [false, true] {
                    if confidential && !protocol.supports_confidential() {
                        continue;
                    }
                    let spec = DeploymentSpec::new(shards, protocol.min_replicas(1))
                        .with_profile(protocol.cost_profile(plaintext));
                    let spec = match confidential {
                        true => spec.with_shard_policy(0, ShardPolicy::confidential()),
                        false => spec,
                    };
                    cells.push((protocol, spec, fan_out));
                }
            }
        }
    }
    cells.push((Protocol::Raft, DeploymentSpec::new(2, 5), 2));
    for (cell, (protocol, spec, fan_out)) in cells.into_iter().enumerate() {
        let spec = spec.with_seed(cell as u64).with_clients(8, 240);
        let txns = TxnWorkloadSpec {
            base: WorkloadSpec {
                read_ratio: 0.0,
                value_size: 64,
                seed: cell as u64,
                ..WorkloadSpec::default()
            },
            txn_fraction: 1.0,
            ops_per_txn: 3,
            fan_out,
        };
        let stats = dispatch(
            protocol,
            GridCell {
                spec: spec.clone(),
                txns,
            },
        );
        let sealed = spec.policy_for(0).confidentiality.is_confidential();
        let name = format!(
            "{} on {} shards of {}, fan-out {fan_out}, shard 0 {}",
            protocol.display_name(),
            spec.shards(),
            spec.replicas_per_shard(),
            spec.policy_for(0).confidentiality.label(),
        );
        let txn = &stats.txn;
        assert!(txn.committed > 0, "{name}: nothing committed");
        assert_eq!(txn.sealed_frames > 0, sealed, "{name}: sealed frames");
        check_sharded_contract(&spec, &stats, None)
            .unwrap_or_else(|breach| panic!("{name}: {breach}"));
        let most = fan_out.min(spec.shards()) as u64;
        assert!(
            txn.participants <= most * txn.started,
            "{name}: {} participants over {} attempts",
            txn.participants,
            txn.started
        );
        let unbalanced = unbalanced_books(&name, &stats);
        assert!(unbalanced.is_empty(), "{}", unbalanced.join("\n"));
    }
}

/// Deterministic multi-key workload generator shared with `fig_txn` (the
/// recipe-workload satellite): committed state must be identical for a
/// fixed seed and classify fan-outs correctly.
#[test]
fn txn_workload_generator_is_deterministic_and_respects_fanout() {
    use recipe::workload::TxnWorkloadSpec;
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
            Request::Txn(ops) => {
                txns += 1;
                assert_eq!(ops.len(), 3);
                let mut classes: Vec<usize> = ops.iter().map(|op| classify(op.key())).collect();
                classes.sort_unstable();
                classes.dedup();
                assert!(classes.len() <= 2, "fan-out bound violated");
            }
            Request::Single(_) => singles += 1,
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
                .with_plane_fault_plan(FaultPlan {
                    drop_probability: drop_pct as f64 / 100.0,
                    tamper_probability: tamper_pct as f64 / 100.0,
                    duplicate_probability: duplicate_pct as f64 / 100.0,
                    replay_probability: replay_pct as f64 / 100.0,
                    ..FaultPlan::default()
                });
            let mut cluster = ShardedCluster::<RaftReplica>::build(spec.clone());
            let groups = key_groups(&cluster, 3, 3);
            let mut history = History::default();
            let stats = cluster.run_requests(history.record(group_txn_workload(groups)));
            check_sharded_contract(&spec, &stats, None).unwrap();
            // All-or-nothing on every replica of every shard.
            check_run(&mut cluster, &mut history).unwrap();
            (stats, history)
        };
        let (stats_a, history_a) = run();
        // Exactly-once: commits equal the transactional ops, no duplicates.
        proptest::prop_assert!(stats_a.total.committed >= 160);
        proptest::prop_assert_eq!(stats_a.total.committed, stats_a.txn.committed_ops);
        // Bit-deterministic statistics and history, final reads included.
        proptest::prop_assert_eq!((stats_a, history_a), run());
    }
}

/// Lock conflicts must never leak: after every run, no key stays locked.
#[test]
fn no_locks_survive_a_completed_run() {
    let spec = txn_spec(2, 10, 200);
    let mut cluster = ShardedCluster::<RaftReplica>::build(spec.clone());
    let groups = key_groups(&cluster, 2, 3);
    let mut history = History::default();
    let stats = cluster.run_requests(history.record(group_txn_workload(groups.clone())));
    check_sharded_contract(&spec, &stats, None).unwrap();
    check_run(&mut cluster, &mut history).unwrap();
    // Submitting singles against every group key succeeds — a leaked lock
    // would defer them forever. The probe's own history starts from the
    // first run's tokens, which it never reads, so it goes unchecked.
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
