//! Cross-crate integration for the leader-side batching pipeline: batched and
//! unbatched runs commit the identical operation sequence (bit-identical
//! committed state), determinism and per-shard agreement are preserved under
//! batching, and a dropped batch frame retries as a unit without losing
//! client-visible progress.

mod common {
    pub mod history;
    pub mod recorder;
    pub mod replicas;
}

use proptest::prelude::*;
use recipe::core::{ConfidentialityMode, Operation};
use recipe::protocols::{build_cluster, BatchConfig, RaftReplica};
use recipe::shard::{DeploymentSpec, ShardedCluster};
use recipe::sim::{CostProfile, SimCluster, SimConfig, StepOutcome};
use recipe_net::NodeId;
use std::sync::OnceLock;

use common::history::History;
use common::replicas::check_run;

const OPEN_LOOP_OPS: usize = 100;

/// Bit-comparable committed state of a 3-replica group: per-replica applied
/// entry counts plus every key's value on every replica.
type StateDigest = (Vec<u64>, Vec<Vec<(Vec<u8>, Option<Vec<u8>>)>>);

/// The open-loop schedule: op `i` is issued by its own client at a fixed
/// virtual time, so the leader's arrival order — and therefore the log order —
/// is independent of batching. Half the writes hit one hot key (its final
/// value exposes the *last* committed write, pinning the commit sequence), the
/// rest hit unique keys (pinning the committed set).
fn open_loop_op(i: usize) -> Operation {
    if i.is_multiple_of(2) {
        Operation::Put {
            key: b"hot".to_vec(),
            value: format!("seq-{i}").into_bytes(),
        }
    } else {
        Operation::Put {
            key: format!("unique-{i}").into_bytes(),
            value: format!("val-{i}").into_bytes(),
        }
    }
}

/// Runs confidential R-Raft under a fixed open-loop submission schedule and
/// returns the committed state digest.
fn open_loop_digest(batch: usize) -> StateDigest {
    let replicas = build_cluster(3, 1, |id, m| {
        RaftReplica::recipe(id, m, true).with_batching(BatchConfig::of_ops(batch))
    });
    let profile = CostProfile::recipe().with_confidentiality(ConfidentialityMode::Confidential);
    let mut cluster = SimCluster::new(replicas, SimConfig::uniform(3, profile));
    cluster.seed_initial_events();
    for i in 0..OPEN_LOOP_OPS {
        assert!(cluster.submit_at(i as u64 * 3_000, i as u64, 1, open_loop_op(i)));
    }
    let mut steps = 0u64;
    while cluster.committed() < OPEN_LOOP_OPS as u64 {
        steps += 1;
        assert!(steps < 5_000_000, "open-loop run did not converge");
        match cluster.step() {
            StepOutcome::Idle | StepOutcome::CapReached => break,
            _ => {}
        }
    }
    cluster.drain_completions();
    assert_eq!(cluster.committed(), OPEN_LOOP_OPS as u64);
    // Drain in-flight commit traffic so followers finish applying (client
    // retries are scheduled ~100 ms out and stay untouched).
    while !cluster.at_rest() {
        assert_eq!(cluster.step(), StepOutcome::Processed);
    }

    let counts: Vec<u64> = (0..3)
        .map(|id| cluster.replica(NodeId(id)).committed_entries())
        .collect();
    let mut keys: Vec<Vec<u8>> = vec![b"hot".to_vec()];
    keys.extend((0..OPEN_LOOP_OPS).map(|i| format!("unique-{i}").into_bytes()));
    let states = (0..3)
        .map(|id| {
            keys.iter()
                .map(|key| (key.clone(), cluster.replica_mut(NodeId(id)).local_read(key)))
                .collect()
        })
        .collect();
    (counts, states)
}

fn unbatched_digest() -> &'static StateDigest {
    static BASELINE: OnceLock<StateDigest> = OnceLock::new();
    BASELINE.get_or_init(|| open_loop_digest(1))
}

#[test]
fn unbatched_open_loop_applies_every_op_everywhere() {
    let (counts, states) = unbatched_digest();
    assert_eq!(counts, &vec![OPEN_LOOP_OPS as u64; 3]);
    // The hot key holds the last committed write: the submission order is the
    // commit order.
    let hot = states[0][0].1.clone().expect("hot key written");
    assert_eq!(hot, format!("seq-{}", OPEN_LOOP_OPS - 2).into_bytes());
}

proptest! {
    /// The headline agreement property: for every batch size 1..=64, a batched
    /// run commits the identical operation sequence — the committed state of
    /// all three replicas is bit-identical to the unbatched run's at the same
    /// seed, and every replica applied exactly the submitted ops.
    #[test]
    fn batched_runs_commit_the_identical_operation_sequence(batch in 1usize..=64) {
        let batched = open_loop_digest(batch);
        prop_assert_eq!(&batched, unbatched_digest());
    }
}

#[test]
fn batched_sharded_runs_are_deterministic_with_per_shard_agreement() {
    let batch = 8usize;
    let run = || {
        let spec = DeploymentSpec::new(4, 3)
            .with_batching(BatchConfig::of_ops(batch))
            .with_clients(48, 500);
        let mut cluster = ShardedCluster::<RaftReplica>::build(spec);
        let mut history = History::default();
        let stats = cluster.run_requests(history.record(|client, seq| {
            let key = format!("key-{}", (client * 13 + seq) % 200).into_bytes();
            let value = format!("v{client}-{seq}").into_bytes();
            Some(Operation::Put { key, value }.into())
        }));
        (stats, cluster, history)
    };
    let (stats_a, mut cluster_a, mut history_a) = run();
    let (stats_b, ..) = run();
    // Determinism: identical configuration and seed → identical results, with
    // batching active.
    assert_eq!(stats_a, stats_b);
    assert!(stats_a.total.committed >= 500);
    assert!(stats_a.total.ops_delivered > stats_a.total.messages_delivered);
    // Agreement inside every shard, and what the clients saw.
    check_run(&mut cluster_a, &mut history_a).unwrap();
}

#[test]
fn dropped_batches_retry_as_a_unit_without_losing_progress() {
    use recipe_net::FaultPlan;
    // Dropping a frame loses all of its ops at once; the clients' retry path
    // must recover every one of them.
    let spec = DeploymentSpec::new(1, 3)
        .with_batching(BatchConfig::of_ops(16))
        .with_clients(24, 150)
        .with_fault_plan(FaultPlan {
            drop_probability: 0.04,
            ..FaultPlan::default()
        })
        .with_time_cap_ns(30_000_000_000);
    let mut cluster = ShardedCluster::<RaftReplica>::build(spec);
    let mut history = History::default();
    let stats = cluster.run_requests(history.record(|client, seq| {
        let key = format!("c{client}-k{}", seq % 4).into_bytes();
        let value = format!("v{client}-{seq}").into_bytes();
        Some(Operation::Put { key, value }.into())
    }));
    let stats = stats.total;
    assert!(stats.committed >= 150, "committed {}", stats.committed);
    assert!(stats.messages_dropped > 0, "fault plan never fired");
    // Batching stayed active under faults.
    assert!(stats.ops_delivered > stats.messages_delivered);
    // Every committed write is client-visible progress: what the replicas
    // that hold each key's newest write hold, and what the clients saw.
    check_run(&mut cluster, &mut history).unwrap();
}
