//! Cross-crate integration for per-shard confidentiality policies: a mixed
//! deployment commits bit-identical per-shard state to an all-confidential
//! run of the same operations, and an online migration across a
//! plaintext → confidential policy boundary completes with zero lost or
//! duplicated commits, sealing the moving range in transit and re-sealing it
//! under the recipient's policy at rest.

mod common {
    pub mod history;
    pub mod recorder;
    pub mod replicas;
    pub mod sharded_contract;
}

use proptest::prelude::*;
use recipe::core::{ConfidentialityMode, Operation, Request};
use recipe::protocols::RaftReplica;
use recipe::shard::{DeploymentSpec, RebalanceConfig, ShardPolicy, ShardedCluster};
use recipe_net::NodeId;

use common::history::History;
use common::replicas::check_run;
use common::sharded_contract::check_sharded_contract;

const SHARDS: usize = 4;
const CLIENTS: usize = 12;
const OPS_PER_CLIENT: u64 = 20;
const KEYS_PER_CLIENT: u64 = 5;

/// The deterministic schedule: client `c` writes its own key pool
/// `c*-k0..k4` in sequence order. Each client holds one outstanding request,
/// so the per-key commit order equals the issue order and the final committed
/// state is independent of cross-shard timing — which is what makes runs
/// under *different* policy mixes comparable bit for bit.
fn schedule(client: u64, seq: u64) -> Option<Request> {
    (seq <= OPS_PER_CLIENT).then(|| {
        let key = format!("c{client}-k{}", seq % KEYS_PER_CLIENT).into_bytes();
        let value = format!("v{client}-{seq}").into_bytes();
        Operation::Put { key, value }.into()
    })
}

fn schedule_keys() -> Vec<Vec<u8>> {
    (0..CLIENTS as u64)
        .flat_map(|client| {
            (0..KEYS_PER_CLIENT).map(move |k| format!("c{client}-k{k}").into_bytes())
        })
        .collect()
}

/// Runs the fixed schedule under the given per-shard confidentiality mask and
/// returns the settled cluster.
fn run_masked(confidential: [bool; SHARDS]) -> ShardedCluster<RaftReplica> {
    let mut spec =
        DeploymentSpec::new(SHARDS, 3).with_clients(CLIENTS, CLIENTS * OPS_PER_CLIENT as usize);
    for (shard, is_confidential) in confidential.iter().enumerate() {
        if *is_confidential {
            spec = spec.with_shard_policy(shard, ShardPolicy::confidential());
        }
    }
    let mut cluster = ShardedCluster::<RaftReplica>::build(spec);
    let stats = cluster.run_requests(schedule);
    assert_eq!(
        stats.total.committed,
        (CLIENTS as u64) * OPS_PER_CLIENT,
        "a policy mix lost or duplicated commits"
    );
    assert_eq!(
        stats.per_shard.iter().map(|s| s.committed).sum::<u64>(),
        stats.total.committed
    );
    assert!(cluster.quiesce());
    cluster
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For any subset of confidential shards, the mixed-policy deployment
    /// commits bit-identical per-shard state on the confidential shards to an
    /// all-confidential run of the same operations (and, symmetrically, the
    /// plaintext shards match an all-plaintext run).
    #[test]
    fn mixed_policies_commit_bit_identical_per_shard_state(mask in 1u8..15) {
        let confidential: [bool; SHARDS] =
            std::array::from_fn(|shard| mask & (1 << shard) != 0);
        let mut mixed = run_masked(confidential);
        let mut all_confidential = run_masked([true; SHARDS]);
        let mut all_plaintext = run_masked([false; SHARDS]);

        let mut compared_confidential = 0;
        let mut compared_plaintext = 0;
        for key in schedule_keys() {
            let owner = mixed.router().shard_for_key(&key);
            prop_assert_eq!(all_confidential.router().shard_for_key(&key), owner);
            let reference: &mut ShardedCluster<RaftReplica> = if confidential[owner] {
                compared_confidential += 1;
                &mut all_confidential
            } else {
                compared_plaintext += 1;
                &mut all_plaintext
            };
            for node in 0..3 {
                let got = mixed
                    .shard_mut(owner)
                    .replica_mut(NodeId(node))
                    .local_read(&key);
                let want = reference
                    .shard_mut(owner)
                    .replica_mut(NodeId(node))
                    .local_read(&key);
                prop_assert!(
                    got == want,
                    "shard {} replica {} diverged on {}: {:?} != {:?}",
                    owner,
                    node,
                    String::from_utf8_lossy(&key),
                    got,
                    want
                );
            }
        }
        // The mask is non-empty and non-full only sometimes; at least one
        // side must always have been exercised.
        prop_assert!(compared_confidential + compared_plaintext > 0);
    }
}

/// A migrated range keeps serving reads and writes after crossing a
/// plaintext → confidential boundary: the donor (plaintext) shard's hot range
/// moves to the confidential recipient, chunks travel sealed (the recipient's
/// policy picks AEAD for the move), nothing is lost or duplicated, and the
/// recipient's replicas agree on the moved values — now sealed at rest under
/// the recipient's store policy.
#[test]
fn migration_across_a_policy_boundary_loses_nothing_and_seals_the_transfer() {
    let operations = 2_400usize;
    let balanced_ops = 700usize;
    let spec = DeploymentSpec::new(2, 3)
        .with_seed(9)
        .with_clients(64, operations)
        .with_shard_policy(1, ShardPolicy::confidential())
        .with_rebalance(RebalanceConfig {
            check_interval_ns: 10_000_000,
            min_window_commits: 120,
            imbalance_threshold: 1.4,
            timeline_bucket_ns: 5_000_000,
            ..RebalanceConfig::enabled()
        });
    let mut cluster = ShardedCluster::<RaftReplica>::build(spec.clone());
    assert_eq!(
        cluster.confidentiality_of(0),
        ConfidentialityMode::Plaintext
    );
    assert_eq!(
        cluster.confidentiality_of(1),
        ConfidentialityMode::Confidential
    );

    let hot = cluster.router().hot_range(0, 48, 2);
    assert!(hot.len() >= 48, "hot range too small: {}", hot.len());
    let hot_for_run = hot.clone();
    let issued = std::cell::Cell::new(0usize);
    let mut history = History::default();
    let stats = cluster.run_requests(history.record(move |client, seq| {
        let n = issued.get();
        issued.set(n + 1);
        let key = if n < balanced_ops {
            format!("user{:08}", (client * 131 + seq * 17) % 10_000).into_bytes()
        } else {
            hot_for_run[n % hot_for_run.len()].clone()
        };
        let value = format!("v{client}:{seq}").into_bytes();
        Some(Operation::Put { key, value }.into())
    }));

    // Zero lost, zero duplicated across the boundary-crossing migration.
    assert_eq!(stats.total.committed, operations as u64);
    assert_eq!(
        stats.per_shard.iter().map(|s| s.committed).sum::<u64>(),
        stats.total.committed
    );
    let m = &stats.migration;
    assert!(m.migrations_completed >= 1, "no migration completed: {m:?}");
    check_sharded_contract(&spec, &stats, None).unwrap();
    // The recipient is confidential, so every shipped chunk travelled sealed.
    assert_eq!(
        m.confidential_transfer_bytes,
        m.snapshot_bytes + m.catchup_bytes,
        "a plaintext->confidential move must seal every chunk: {m:?}"
    );
    assert!(m.redirects > 0, "no client drained onto the new placement");

    // The moved range serves from the confidential recipient, with replica
    // agreement; the plaintext donor holds none of it.
    assert!(cluster.quiesce());
    cluster.gc_moved_ranges();
    check_run(&mut cluster, &mut history).unwrap();
    let moved: Vec<Vec<u8>> = hot
        .iter()
        .filter(|key| cluster.router().shard_for_key(key) == 1)
        .cloned()
        .collect();
    assert!(!moved.is_empty(), "no hot key changed owner");
    for key in &moved {
        for node in 0..3 {
            assert!(
                cluster
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

/// A move between two plaintext shards of a policy-aware deployment ships
/// unsealed (MAC + counter only): the per-move AEAD choice really is per
/// move.
#[test]
fn plaintext_to_plaintext_moves_skip_the_transfer_aead() {
    let operations = 2_400usize;
    let spec = DeploymentSpec::new(2, 3)
        .with_seed(9)
        .with_clients(64, operations)
        .with_rebalance(RebalanceConfig {
            check_interval_ns: 10_000_000,
            min_window_commits: 120,
            imbalance_threshold: 1.4,
            ..RebalanceConfig::enabled()
        });
    let mut cluster = ShardedCluster::<RaftReplica>::build(spec.clone());
    let hot = cluster.router().hot_range(0, 48, 2);
    let issued = std::cell::Cell::new(0usize);
    let stats = cluster.run_requests(move |client, seq| {
        let n = issued.get();
        issued.set(n + 1);
        let key = if n < 700 {
            format!("user{:08}", (client * 131 + seq * 17) % 10_000).into_bytes()
        } else {
            hot[n % hot.len()].clone()
        };
        let value = vec![0xAB; 64];
        Some(Operation::Put { key, value }.into())
    });
    let m = &stats.migration;
    assert!(m.migrations_completed >= 1, "no migration completed: {m:?}");
    // Every record is a 12-byte `user…` key and a 64-byte value, so the
    // bytes form is exact, sealed or not.
    check_sharded_contract(&spec, &stats, Some(12 + 64)).unwrap();
    assert_eq!(
        m.confidential_transfer_bytes, 0,
        "plaintext->plaintext moves must not pay the AEAD: {m:?}"
    );
    assert_eq!(stats.total.committed, operations as u64);
}
