//! Behaviour of the request driver that no other test pins: degenerate
//! requests, retiring clients, the rebalancing controller reached through the
//! one entry point, and every event source live in a single run.

mod common {
    pub mod sharded_contract;
}

use std::cell::RefCell;
use std::rc::Rc;

use recipe::core::{Operation, Request};
use recipe::gateway::{scoped_prefix, GatewayConfig, TenantSpec};
use recipe::net::{CrashPlan, NodeId};
use recipe::protocols::RaftReplica;
use recipe::shard::{
    DeploymentSpec, RebalanceConfig, ShardPolicy, ShardRouter, ShardedCluster, ShardedRunStats,
};

use common::sharded_contract::check_sharded_contract;

fn put(key: Vec<u8>, client: u64, seq: u64) -> Operation {
    Operation::Put {
        key,
        value: format!("v{client}:{seq}").into_bytes(),
    }
}

fn spread_key(client: u64, seq: u64) -> Vec<u8> {
    format!("user{:08}", (client * 131 + seq * 17) % 10_000).into_bytes()
}

fn rebalance_knobs() -> RebalanceConfig {
    RebalanceConfig {
        check_interval_ns: 2_000_000,
        min_window_commits: 60,
        imbalance_threshold: 1.4,
        ..RebalanceConfig::enabled()
    }
}

#[test]
fn an_empty_transaction_commits_nothing_and_the_client_moves_on() {
    let spec = DeploymentSpec::new(2, 3).with_seed(3).with_clients(2, 60);
    let draws = Rc::new(RefCell::new([0u64; 2]));
    let seen = draws.clone();
    let stats = ShardedCluster::<RaftReplica>::build(spec).run_requests(move |client, seq| {
        seen.borrow_mut()[client as usize] = seq;
        // Client 0 alternates an empty transaction with a write.
        Some(if client == 0 && seq % 2 == 1 {
            Request::Txn(Vec::new())
        } else {
            put(spread_key(client, seq), client, seq).into()
        })
    });
    assert!(
        stats.total.committed >= 60,
        "the run stopped short of its target"
    );
    assert_eq!(stats.total.committed, stats.total.committed_writes);
    assert_eq!(stats.txn.started, 0, "2PC ran for an empty transaction");
    assert_eq!(stats.txn.committed, 0);
    // The client kept drawing past its empty transactions: it got writes in.
    assert!(
        draws.borrow()[0] >= 10,
        "client 0 stalled on an empty transaction"
    );
}

#[test]
fn a_workload_returning_none_retires_that_client_only() {
    let spec = DeploymentSpec::new(2, 3).with_seed(4).with_clients(4, 200);
    let calls = Rc::new(RefCell::new([0u64; 4]));
    let seen = calls.clone();
    let stats = ShardedCluster::<RaftReplica>::build(spec).run_requests(move |client, seq| {
        seen.borrow_mut()[client as usize] += 1;
        (client != 3 || seq <= 2).then(|| put(spread_key(client, seq), client, seq).into())
    });
    assert!(
        stats.total.committed >= 200,
        "the others did not finish the target"
    );
    // Two requests, the `None`, and never asked again.
    assert_eq!(calls.borrow()[3], 3);
    assert!(calls.borrow()[..3].iter().all(|&n| n > 50));
}

#[test]
fn rebalancing_runs_through_the_one_entry_point_and_loses_nothing() {
    let ops = 2_000usize;
    let spec = DeploymentSpec::new(2, 3)
        .with_seed(5)
        .with_clients(32, ops)
        .with_rebalance(rebalance_knobs());
    let mut cluster = ShardedCluster::<RaftReplica>::build(spec.clone());
    let hot = cluster.router().hot_range(0, 32, 2);
    let mut issued = 0usize;
    let stats = cluster.run_requests(move |client, seq| {
        issued += 1;
        let key = if issued < 200 {
            spread_key(client, seq)
        } else {
            hot[issued % hot.len()].clone()
        };
        Some(put(key, client, seq).into())
    });
    let m = &stats.migration;
    assert!(m.migrations_completed >= 1, "no migration completed: {m:?}");
    assert_eq!(cluster.router().version().0, m.migrations_completed);
    check_sharded_contract(&spec, &stats, None).unwrap();
    assert!(
        stats.total.committed >= ops as u64,
        "lost commits: {}",
        stats.total.committed
    );
    let served: u64 = stats.per_shard.iter().map(|s| s.committed).sum();
    assert_eq!(served, stats.total.committed, "a commit was counted twice");
}

/// Keys whose tenant-scoped form (what the router sees behind the gateway)
/// lands on `shard`.
fn scoped_keys_on(router: &ShardRouter, tenant: &str, shard: usize, count: usize) -> Vec<Vec<u8>> {
    let prefix = scoped_prefix(tenant);
    (0..10_000u32)
        .map(|i| format!("acct{i:05}").into_bytes())
        .filter(|key| router.shard_for_key(&[prefix.as_slice(), key].concat()) == shard)
        .take(count)
        .collect()
}

const ALL_AT_ONCE_OPS: usize = 1_500;
const ALL_AT_ONCE_CAP_NS: u64 = 30_000_000_000;

/// Gateway on, 3-op cross-shard transactions skewed onto shard 0, the
/// rebalancing controller enabled, shard 1's leader crashing and recovering.
fn all_at_once_spec() -> DeploymentSpec {
    DeploymentSpec::new(3, 3)
        .with_seed(6)
        .with_clients(12, ALL_AT_ONCE_OPS)
        .with_time_cap_ns(ALL_AT_ONCE_CAP_NS)
        .with_gateway(GatewayConfig::enabled().with_tenant(TenantSpec::new("alpha")))
        .with_rebalance(rebalance_knobs())
        .with_shard_policy(
            1,
            ShardPolicy::new().with_crash_plan(CrashPlan::none().crash_recover(
                NodeId(0),
                300_000,
                5_000_000,
            )),
        )
}

fn everything_at_once() -> ShardedRunStats {
    let mut cluster = ShardedCluster::<RaftReplica>::build(all_at_once_spec());
    let on: Vec<Vec<Vec<u8>>> = (0..3)
        .map(|shard| scoped_keys_on(cluster.router(), "alpha", shard, 40))
        .collect();
    let stats = cluster.run_requests(move |client, seq| {
        let pick = |shard: usize, salt: u64| {
            let keys = &on[shard];
            keys[((client * 7 + seq * 3 + salt) as usize) % keys.len()].clone()
        };
        // Two keys on shard 0, the third alternating between shards 1 and 2.
        let keys = [pick(0, 0), pick(0, 13), pick(1 + (seq % 2) as usize, 5)];
        Some(Request::Txn(
            keys.into_iter().map(|key| put(key, client, seq)).collect(),
        ))
    });
    assert!(cluster.quiesce());
    assert!(
        cluster.shard(1).crashed_nodes().is_empty(),
        "node never recovered"
    );
    stats
}

#[test]
fn all_event_sources_at_once_stay_deterministic_and_lose_nothing() {
    let stats = everything_at_once();
    assert_eq!(stats, everything_at_once(), "same seed, different run");

    // Every source was live.
    assert!(stats.gateway.tenants[0].admitted > 0);
    assert!(stats.txn.cross_shard_committed > 0);
    let m = &stats.migration;
    assert!(m.migrations_completed >= 1, "no migration completed: {m:?}");
    check_sharded_contract(&all_at_once_spec(), &stats, None).unwrap();

    // Zero lost or duplicated commits: the target was reached, and every
    // committed operation belongs to exactly one committed transaction.
    assert!(
        stats.total.committed >= ALL_AT_ONCE_OPS as u64,
        "lost commits: {}",
        stats.total.committed
    );
    assert_eq!(stats.total.committed, stats.txn.committed_ops);
    assert_eq!(
        stats.gateway.tenants[0].committed_ops,
        stats.total.committed
    );
    // Zero parked transactions: every 2PC attempt the coordinator started
    // resolved one way or the other, and the run ended on that — not on the
    // time cap.
    assert_eq!(stats.txn.started, stats.txn.committed + stats.txn.aborted);
    assert!(stats.total.elapsed_secs * 1e9 < ALL_AT_ONCE_CAP_NS as f64);
}
