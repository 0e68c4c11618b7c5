//! The refactoring oracle inside tier-1: nine small fixed-seed runs through
//! the request driver, each pinned by the SHA-256 of the `serde_json` form of
//! its [`ShardedRunStats`].
//!
//! The virtual clock is deterministic, so a driver change that schedules one
//! event at a different instant — or in a different order on a tie — moves a
//! latency, a counter or a timeline bucket and with it the digest. The four
//! runs between them keep every event source of the driver live: plain
//! single-key requests; transactions behind the tenant gateway (admit,
//! throttle, reject, 2PC retries and aborts); the rebalancing controller with
//! a leader crash and recovery; 2PC under a Byzantine network (dropped,
//! tampered, duplicated and replayed frames, sealed and plaintext
//! transactions mixed, a participant leader crashing under them).
//!
//! Those four all run `RaftReplica`. The other four run one of the other
//! protocols each — R-CR, R-ABD and PBFT under a 3-key transaction mix with a
//! group's first head / coordinator / primary crashing and restarting under
//! prepared transactions, R-AllConcur under single-key load with a restart —
//! so that everything a replica does below its protocol (2PC participation,
//! follower installs, the rollback-protected restart and the hand-over of a
//! live peer's state) is pinned for every protocol, not for Raft alone. What
//! those hooks change that no statistic shows — a stored timestamp, a counter
//! restored on restart — is pinned too: the JSON of these runs carries, beside
//! the statistics, one digest per replica over every record it ends up with.
//!
//! The ninth runs two batched R-Raft groups whose replication links
//! duplicate, replay and delay frames: the one run in which shards tie
//! with each other on the clock while the fault injector picks old frames
//! to replay, so it moves if same-instant events of different shards run in
//! another order, or if a shard's replay choice starts to depend on
//! anything but that shard's own traffic.
//!
//! A pin only moves together with a change that legitimately moves the
//! virtual clock (a cost-model or wire-format change — the same changes that
//! regenerate `crates/bench/baselines/`). Then, and only then:
//!
//! ```text
//! cargo test --test driver_digest -- --ignored regenerate_pins
//! ```
//!
//! rewrites `tests/golden/driver_digest/*.json` and prints the digests to
//! paste into [`PINS`]. The JSON files exist so that a mismatch can name
//! every field that differs instead of showing two hashes.
//!
//! Every pinned run's books must balance too (`unbalanced_books`): each
//! commit counted once, per shard and in total.

use std::path::PathBuf;

use recipe::bft::PbftReplica;
use recipe::core::{Operation, Request};
use recipe::crypto::sha256;
use recipe::gateway::{GatewayConfig, TenantSpec};
use recipe::net::{CrashPlan, FaultPlan, NodeId};
use recipe::protocols::{
    AbdReplica, AllConcurReplica, BatchConfig, ChainReplica, RaftReplica, StoreReplica,
};
use recipe::shard::{
    DeploymentSpec, RebalanceConfig, ShardPolicy, ShardedCluster, ShardedRunStats, TxnConfig,
};
use recipe::sim::CostProfile;
use serde::Deserialize;
use serde_json::Value;

/// One pinned run.
struct Pin {
    name: &'static str,
    /// The run, as the JSON that is pinned.
    run: fn() -> String,
    /// SHA-256 of that JSON.
    digest: &'static str,
}

const PINS: [Pin; 9] = [
    Pin {
        name: "single_key_unbatched",
        run: single_key_unbatched,
        digest: "05bc7b8ab741a5da911b726262550553f1a16e005d4f976294a0d21eb34c403a",
    },
    Pin {
        name: "txn_gateway",
        run: txn_gateway,
        digest: "ed3e539fa11c2d6766f04e99eaff2a3768a5ebeae2536711e8494cdbb0d771cf",
    },
    Pin {
        name: "rebalance_crash",
        run: rebalance_crash,
        digest: "34294a1709cd3aeedfbba8a54fdfa6cd06a4155aa7fa13eece5a50c29b9cca46",
    },
    Pin {
        name: "txn_byzantine",
        run: txn_byzantine,
        digest: "7c60e6250bb67d945c9cd122a7a97cb61d14b2d142f0befcd27332f14c75e240",
    },
    Pin {
        name: "chain_txn_crash",
        run: chain_txn_crash,
        digest: "91d5241d96f14bc649ee254c3961799a8108b07e4a4bb34597923f459eb965f5",
    },
    Pin {
        name: "abd_txn_crash",
        run: abd_txn_crash,
        digest: "8e09dbc7617b166c98f0dedcec96c995f8b232ec435b85c012e205ea35672ebb",
    },
    Pin {
        name: "pbft_txn_crash",
        run: pbft_txn_crash,
        digest: "5f3f46694c133526cb3e2d5be74506781add1a2e6c7e39ac2d05c396144a0d7e",
    },
    Pin {
        name: "allconcur_crash",
        run: allconcur_crash,
        digest: "fc837fd458259516d74aac7f7a35a159994b14bfc7bd1585cd1d9cacac7ebd94",
    },
    Pin {
        name: "batched_replays",
        run: batched_replays,
        digest: "8d7cfdb48e9cb912b6904e4f75b580b0078a9241fc9b377462fd82593fc886d5",
    },
];

fn json(stats: &ShardedRunStats) -> String {
    serde_json::to_string(stats).expect("stats serialise")
}

fn put(key: Vec<u8>, client: u64, seq: u64) -> Operation {
    Operation::Put {
        key,
        value: format!("v{client}:{seq}").into_bytes(),
    }
}

/// One group, every fourth request a read: the fast path alone.
fn single_key_unbatched() -> String {
    let spec = DeploymentSpec::new(1, 3).with_seed(21).with_clients(8, 300);
    let stats = ShardedCluster::<RaftReplica>::build(spec).run_requests(|client: u64, seq: u64| {
        let key = format!("user{:04}", (client * 31 + seq * 7) % 64).into_bytes();
        Some(if seq.is_multiple_of(4) {
            Operation::Get { key }.into()
        } else {
            put(key, client, seq).into()
        })
    });
    json(&stats)
}

/// Three groups behind the gateway: `alpha` unlimited, `bravo` on a quota
/// tight enough to be throttled, `mallory` revoked. Two requests in three are
/// 3-key transactions over a small contended key set, their 2PC frames on a
/// lossy link so retransmission timers fire.
fn txn_gateway() -> String {
    let gateway = GatewayConfig::enabled()
        .with_tenant(TenantSpec::new("alpha"))
        .with_tenant(TenantSpec::new("bravo").with_quota(20_000).with_burst(4))
        .with_tenant(TenantSpec::new("mallory").revoked());
    let spec = DeploymentSpec::new(3, 3)
        .with_seed(22)
        .with_clients(6, 240)
        .with_time_cap_ns(20_000_000_000)
        .with_timeline_bucket_ns(500_000)
        .with_txn(TxnConfig {
            fault_plan: FaultPlan::lossy(0.05),
            ..TxnConfig::default()
        })
        .with_gateway(gateway);
    let stats = ShardedCluster::<RaftReplica>::build(spec).run_requests(|client: u64, seq: u64| {
        let key = |i: u64| format!("acct{:03}", (client + seq * 5 + i * 11) % 24).into_bytes();
        Some(if seq.is_multiple_of(3) {
            put(key(0), client, seq).into()
        } else {
            Request::Txn((0..3).map(|i| put(key(i), client, seq)).collect())
        })
    });
    assert!(
        stats.txn.cross_shard_committed > 0,
        "no cross-shard 2PC ran"
    );
    assert!(stats.txn.aborted > 0, "no transaction ever conflicted");
    assert!(
        stats.txn.frames_dropped > 0,
        "no 2PC frame was retransmitted"
    );
    let tenant = |name: &str| {
        let found = stats.gateway.tenants.iter().find(|t| t.tenant == name);
        found.expect("tenant configured")
    };
    assert!(tenant("bravo").throttled > 0, "the quota never throttled");
    assert!(tenant("mallory").rejected > 0, "the revoked tenant got in");
    json(&stats)
}

/// Two groups, the load funnelled onto a hot range of group 0 so the
/// controller migrates it, while group 1's leader crashes and recovers.
fn rebalance_crash() -> String {
    let spec = DeploymentSpec::new(2, 3)
        .with_seed(23)
        .with_clients(48, 1200)
        .with_time_cap_ns(20_000_000_000)
        .with_rebalance(RebalanceConfig {
            check_interval_ns: 1_000_000,
            min_window_commits: 40,
            imbalance_threshold: 1.4,
            drain_threshold_ops: 2,
            timeline_bucket_ns: 1_000_000,
            ..RebalanceConfig::enabled()
        })
        .with_shard_policy(
            1,
            ShardPolicy::new().with_crash_plan(CrashPlan::none().crash_recover(
                NodeId(0),
                400_000,
                3_000_000,
            )),
        );
    let mut cluster = ShardedCluster::<RaftReplica>::build(spec);
    let hot = cluster.router().hot_range(0, 24, 2);
    let mut issued = 0usize;
    let stats = cluster.run_requests(move |client, seq| {
        issued += 1;
        let key = if issued < 120 || issued.is_multiple_of(5) {
            format!("user{:08}", (client * 131 + seq * 17) % 10_000).into_bytes()
        } else {
            hot[issued % hot.len()].clone()
        };
        Some(put(key, client, seq).into())
    });
    assert!(stats.migration.migrations_completed > 0, "nothing migrated");
    assert!(
        stats.migration.redirects > 0,
        "no stale client was redirected"
    );
    assert!(stats.migration.refusals > 0, "no drain refused a request");
    assert!(stats.migration.catchup_entries > 0, "no write was captured");
    json(&stats)
}

/// Three groups, group 0 confidential (so a transaction touching it is
/// sealed on every leg and the others travel in plaintext), group 1's first
/// leader crashing under prepared transactions. Two requests in three are
/// 3-key transactions over a small contended key set, their 2PC frames under
/// the Byzantine plan: the only pinned run in which 2PC frames are
/// duplicated, tampered with and replayed as well as dropped.
fn txn_byzantine() -> String {
    let spec = DeploymentSpec::new(3, 3)
        .with_seed(31)
        .with_clients(12, 900)
        .with_time_cap_ns(20_000_000_000)
        .with_timeline_bucket_ns(500_000)
        .with_txn(TxnConfig {
            fault_plan: FaultPlan::byzantine(),
            ..TxnConfig::default()
        })
        .with_shard_policy(0, ShardPolicy::confidential())
        .with_shard_policy(
            1,
            ShardPolicy::new().with_crash_plan(CrashPlan::none().crash_recover(
                NodeId(0),
                400_000,
                3_000_000,
            )),
        );
    let stats = ShardedCluster::<RaftReplica>::build(spec).run_requests(|client: u64, seq: u64| {
        let key = |i: u64| format!("acct{:03}", (client + seq * 5 + i * 11) % 48).into_bytes();
        Some(if seq.is_multiple_of(3) {
            put(key(0), client, seq).into()
        } else {
            Request::Txn((0..3).map(|i| put(key(i), client, seq)).collect())
        })
    });
    let txn = &stats.txn;
    assert!(txn.frames_dropped > 0, "no 2PC frame was dropped");
    assert!(txn.frames_rejected > 0, "no shield rejected a 2PC frame");
    assert!(txn.aborted > 0, "no transaction ever conflicted");
    assert!(
        0 < txn.sealed_frames && txn.sealed_frames < txn.frames_sent,
        "sealed and plaintext transactions did not mix: {} of {} frames sealed",
        txn.sealed_frames,
        txn.frames_sent
    );
    json(&stats)
}

/// When group 1's node 0 — the first head, coordinator or primary — goes down
/// in the per-protocol runs, and how long it stays down.
const CRASH_AT_NS: u64 = 400_000;
const DOWN_FOR_NS: u64 = 1_000_000;

/// `groups` groups of `replicas` under `profile`, node 0 of group 1 crashing
/// and restarting mid-run.
fn crash_spec(groups: usize, replicas: usize, profile: CostProfile, seed: u64) -> DeploymentSpec {
    let recover_at = CRASH_AT_NS + DOWN_FOR_NS;
    let crash = CrashPlan::none().crash_recover(NodeId(0), CRASH_AT_NS, recover_at);
    DeploymentSpec::new(groups, replicas)
        .with_profile(profile)
        .with_seed(seed)
        .with_time_cap_ns(20_000_000_000)
        .with_timeline_bucket_ns(500_000)
        .with_shard_policy(1, ShardPolicy::new().with_crash_plan(crash))
}

/// The statistics and, per group and replica, the SHA-256 over every record
/// the replica holds (key, value and both timestamp halves, length-prefixed).
fn pinned_with_state<R: StoreReplica>(
    mut cluster: ShardedCluster<R>,
    stats: &ShardedRunStats,
) -> String {
    let elapsed_ns = (stats.total.elapsed_secs * 1e9) as u64;
    assert!(
        elapsed_ns > 2 * (CRASH_AT_NS + DOWN_FOR_NS),
        "the run ended before the restarted node did any work"
    );
    let groups: Vec<String> = (0..cluster.shards())
        .map(|shard| {
            let group = cluster.shard_mut(shard);
            assert!(group.crashed_nodes().is_empty(), "a node stayed down");
            let replicas: Vec<String> = group
                .node_ids()
                .to_vec()
                .into_iter()
                .map(|node| {
                    let records = group.replica_mut(node).store().export_range(&|_| true);
                    let mut bytes = Vec::new();
                    for entry in records.expect("every record verifies") {
                        for field in [&entry.key, &entry.value] {
                            bytes.extend_from_slice(&(field.len() as u64).to_le_bytes());
                            bytes.extend_from_slice(field);
                        }
                        bytes.extend_from_slice(&entry.ts_logical.to_le_bytes());
                        bytes.extend_from_slice(&entry.ts_node.to_le_bytes());
                    }
                    format!("\"{}\"", sha256(&bytes).to_hex())
                })
                .collect();
            format!("[{}]", replicas.join(","))
        })
        .collect();
    format!(
        "{{\"stats\":{},\"state\":[{}]}}",
        json(stats),
        groups.join(",")
    )
}

/// Two requests in three are 3-key transactions over a small contended key
/// set, the third a single write (every fourth of those a read).
fn txn_mix<R: StoreReplica>(mut cluster: ShardedCluster<R>) -> String {
    let stats = cluster.run_requests(|client: u64, seq: u64| {
        let key = |i: u64| format!("acct{:03}", (client + seq * 5 + i * 11) % 48).into_bytes();
        Some(if !seq.is_multiple_of(3) {
            Request::Txn((0..3).map(|i| put(key(i), client, seq)).collect())
        } else if seq.is_multiple_of(4) {
            Operation::Get { key: key(0) }.into()
        } else {
            put(key(0), client, seq).into()
        })
    });
    assert!(
        stats.txn.cross_shard_committed > 0,
        "no cross-shard 2PC ran"
    );
    assert!(stats.txn.aborted > 0, "no transaction ever conflicted");
    pinned_with_state(cluster, &stats)
}

/// R-CR, three groups: group 1's first head crashes under prepared
/// transactions, the chain reforms over the survivors and the node rejoins.
fn chain_txn_crash() -> String {
    let spec = crash_spec(3, 3, CostProfile::recipe(), 41).with_clients(12, 900);
    txn_mix(ShardedCluster::<ChainReplica>::build(spec))
}

/// R-ABD, two groups: node 0 is the coordinator the 2PC driver picks while it
/// is up, so its crash moves participation to node 1 and back.
fn abd_txn_crash() -> String {
    let spec = crash_spec(2, 3, CostProfile::recipe(), 42).with_clients(12, 900);
    txn_mix(ShardedCluster::<AbdReplica>::build(spec))
}

/// PBFT at 3f + 1 = 4, two groups: group 1's first primary crashes, the
/// survivors move to the next view and the old primary rejoins behind it.
fn pbft_txn_crash() -> String {
    let spec = crash_spec(2, 4, CostProfile::pbft_baseline(), 43)
        .with_faults_tolerated(1)
        .with_clients(12, 600);
    txn_mix(ShardedCluster::<PbftReplica>::build(spec))
}

/// R-AllConcur, two groups, single-key only (it does not take part in
/// transactions): a write needs every peer's acknowledgement, so group 1
/// serves reads alone until its node is back.
fn allconcur_crash() -> String {
    let spec = crash_spec(2, 3, CostProfile::recipe(), 44).with_clients(12, 900);
    let mut cluster = ShardedCluster::<AllConcurReplica>::build(spec);
    let stats = cluster.run_requests(|client: u64, seq: u64| {
        let key = format!("user{:04}", (client * 31 + seq * 7) % 64).into_bytes();
        Some(if seq.is_multiple_of(4) {
            Operation::Get { key }.into()
        } else {
            put(key, client, seq).into()
        })
    });
    pinned_with_state(cluster, &stats)
}

/// Two batched R-Raft groups, half the requests reads, on replication links
/// that duplicate and replay frames (old ones from a 32-frame capture buffer)
/// and delay them by up to 20 µs.
fn batched_replays() -> String {
    let faults = FaultPlan {
        duplicate_probability: 0.08,
        replay_probability: 0.08,
        max_extra_delay_ns: 20_000,
        capture_limit: 32,
        ..FaultPlan::default()
    };
    let spec = DeploymentSpec::new(2, 3)
        .with_seed(5)
        .with_clients(32, 2000)
        .with_batching(BatchConfig::of_ops(16))
        .with_fault_plan(faults);
    let stats = ShardedCluster::<RaftReplica>::build(spec).run_requests(|client: u64, seq: u64| {
        let key = format!("user{:04}", (client * 31 + seq * 7) % 128).into_bytes();
        Some(if seq.is_multiple_of(2) {
            Operation::Get { key }.into()
        } else {
            put(key, client, seq).into()
        })
    });
    for (shard, group) in stats.per_shard.iter().enumerate() {
        assert!(
            group.messages_replayed > 0,
            "shard {shard} replayed nothing"
        );
    }
    json(&stats)
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/driver_digest")
        .join(format!("{name}.json"))
}

/// Most differing leaves one pin reports.
const MAX_DIFFERENCES: usize = 20;

/// Every leaf on which two JSON trees disagree, depth first in field order,
/// each with both values: a pinned field the run no longer has is gone where
/// it stood, and a field only the run has is new after every pinned one.
fn differences(path: &str, pinned: &Value, got: &Value, out: &mut Vec<String>) {
    match (pinned, got) {
        (Value::Map(a), Value::Map(b)) => {
            fn field<'a>(map: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
                map.iter().find(|(k, _)| k == key).map(|(_, value)| value)
            }
            for (key, x) in a {
                match field(b, key) {
                    Some(y) => differences(&format!("{path}.{key}"), x, y, out),
                    None => out.push(format!("`{path}.{key}` is gone")),
                }
            }
            for (key, _) in b.iter().filter(|(key, _)| field(a, key).is_none()) {
                out.push(format!("`{path}.{key}` is new"));
            }
        }
        (Value::Array(a), Value::Array(b)) if a.len() == b.len() => {
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                differences(&format!("{path}[{i}]"), x, y, out);
            }
        }
        (Value::Array(a), Value::Array(b)) => out.push(format!(
            "`{path}` has {} elements, pinned {}",
            b.len(),
            a.len()
        )),
        (a, b) if a == b => {}
        (a, b) => out.push(format!("`{path}` is {b:?}, pinned {a:?}")),
    }
}

/// Where a pinned run's books do not balance. Every commit is counted once,
/// so each shard's throughput times its elapsed time gives back its commits,
/// its reads and writes add up to them, and the shards' commits add up to
/// the run's.
fn unbalanced_books(name: &str, run: &Value) -> Vec<String> {
    let with_state = run
        .as_map()
        .and_then(|map| map.iter().find(|(k, _)| k == "stats"));
    let stats = with_state.map_or(run, |(_, stats)| stats);
    let stats = ShardedRunStats::from_value(stats).expect("the pinned JSON is a run's stats");
    let mut problems = Vec::new();
    for (shard, s) in stats.per_shard.iter().enumerate() {
        let implied = (s.throughput_ops * s.elapsed_secs).round();
        if implied != s.committed as f64 {
            problems.push(format!(
                "`{name}` shard {shard}: its throughput implies {implied} commits, it counted {}",
                s.committed
            ));
        }
        if s.committed_reads + s.committed_writes != s.committed {
            problems.push(format!(
                "`{name}` shard {shard}: {} reads and {} writes, {} commits",
                s.committed_reads, s.committed_writes, s.committed
            ));
        }
    }
    let shards: u64 = stats.per_shard.iter().map(|s| s.committed).sum();
    if shards != stats.total.committed {
        problems.push(format!(
            "`{name}`: its shards counted {shards} commits, the run {}",
            stats.total.committed
        ));
    }
    problems
}

/// Runs every pin, then reports every pin whose books do not balance or
/// whose JSON moved, each with every leaf that moved (up to
/// [`MAX_DIFFERENCES`]).
#[test]
fn fixed_seed_runs_keep_their_pinned_digests() {
    let mut failures = Vec::new();
    for Pin { name, run, digest } in PINS {
        let json = run();
        let got: Value = serde_json::from_str(&json).expect("stats parse back");
        failures.extend(unbalanced_books(name, &got));
        if sha256(json.as_bytes()).to_hex() == digest {
            continue;
        }
        let golden = std::fs::read_to_string(golden_path(name)).expect("golden file committed");
        let pinned: Value = serde_json::from_str(&golden).expect("golden file parses");
        let mut moved = Vec::new();
        differences(name, &pinned, &got, &mut moved);
        if moved.is_empty() {
            failures.push(format!(
                "run `{name}`: PINS is stale — {} matches the run but not the pinned digest",
                golden_path(name).display()
            ));
            continue;
        }
        let more = moved.len().saturating_sub(MAX_DIFFERENCES);
        moved.truncate(MAX_DIFFERENCES);
        if more > 0 {
            moved.push(format!("… and {more} more"));
        }
        failures.push(format!(
            "run `{name}` is no longer bit-identical:\n  {}",
            moved.join("\n  ")
        ));
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
#[ignore = "rewrites the golden files; see the module docs"]
fn regenerate_pins() {
    for Pin { name, run, .. } in PINS {
        let json = run();
        std::fs::create_dir_all(golden_path(name).parent().expect("has a parent"))
            .expect("golden directory");
        std::fs::write(golden_path(name), &json).expect("golden file written");
        println!("(\"{name}\", \"{}\"),", sha256(json.as_bytes()).to_hex());
    }
}
