//! Scenario-file integration tests: serde round-trips for every
//! scenario-reachable config type, the golden corpus in `scenarios/`, the
//! negative corpus in `scenarios/malformed/`, and the builder-twin
//! equivalence that anchors the whole feature — a TOML scenario reproducing
//! `fig_rebalance`'s builder config commits bit-identical state.

use proptest::prelude::*;
use recipe::core::Operation;
use recipe::net::{CrashEntry, CrashPlan, FaultPlan, NodeId};
use recipe::protocols::{BatchConfig, Protocol, RaftReplica};
use recipe::scenario::{Scenario, ScenarioError};
use recipe::shard::{DeploymentSpec, RebalanceConfig, ShardPolicy, ShardedCluster, TxnConfig};
use recipe::telemetry::TelemetryConfig;
use recipe::workload::{KeyDistribution, TxnWorkloadSpec, WorkloadSpec};

/// JSON round-trip through the vendored serde: the decoded value must equal
/// the original. (`f64::to_string` is shortest-round-trip exact, so float
/// knobs survive the text form.)
fn round_trips<T>(value: &T) -> T
where
    T: serde::Serialize + serde::Deserialize + PartialEq + std::fmt::Debug,
{
    let text = serde_json::to_string(value).expect("serializes");
    serde_json::from_str(&text).expect("deserializes")
}

proptest! {
    #[test]
    fn batch_config_round_trips(max_ops in 1usize..256, max_bytes in 1usize..1_000_000,
                                max_delay_ns in 0u64..1_000_000) {
        let config = BatchConfig { max_ops, max_bytes, max_delay_ns };
        prop_assert_eq!(round_trips(&config), config);
    }

    #[test]
    fn fault_plan_round_trips(drop_pm in 0u32..1000, dup_pm in 0u32..1000,
                              delay in 0u64..100_000, cap in 1usize..64) {
        let plan = FaultPlan {
            drop_probability: f64::from(drop_pm) / 1000.0,
            tamper_probability: 0.0,
            duplicate_probability: f64::from(dup_pm) / 1000.0,
            replay_probability: f64::from(dup_pm) / 2000.0,
            max_extra_delay_ns: delay,
            capture_limit: cap,
        };
        prop_assert_eq!(round_trips(&plan), plan);
    }

    #[test]
    fn crash_plan_round_trips(node in 0u64..5, crash_at in 1u64..1_000_000_000,
                              recovers in any::<bool>()) {
        let plan = CrashPlan {
            entries: vec![CrashEntry {
                node: NodeId(node),
                crash_at_ns: crash_at,
                recover_at_ns: recovers.then(|| crash_at + 1),
            }],
        };
        prop_assert_eq!(round_trips(&plan), plan);
    }

    #[test]
    fn txn_config_round_trips(retry in 1u64..10_000_000, backoff in 0u64..1_000_000) {
        let config = TxnConfig {
            retry_timeout_ns: retry,
            conflict_backoff_ns: backoff,
            fault_plan: FaultPlan::benign(),
        };
        prop_assert_eq!(round_trips(&config), config);
    }

    #[test]
    fn rebalance_config_round_trips(interval in 1u64..100_000_000, window in 1u64..1000,
                                    threshold_pct in 100u32..400, chunk in 1usize..512) {
        let config = RebalanceConfig {
            enabled: true,
            check_interval_ns: interval,
            min_window_commits: window,
            imbalance_threshold: f64::from(threshold_pct) / 100.0,
            chunk_entries: chunk,
            ..RebalanceConfig::default()
        };
        prop_assert_eq!(round_trips(&config), config);
    }

    #[test]
    fn telemetry_config_round_trips(enabled in any::<bool>(), max_spans in 1usize..1_000_000) {
        let config = TelemetryConfig { enabled, max_spans };
        prop_assert_eq!(round_trips(&config), config);
    }

    #[test]
    fn workload_specs_round_trip(key_space in 1usize..100_000, read_pm in 0u32..=1000,
                                 value_size in 1usize..4096, zipfian in any::<bool>(),
                                 seed in 0u64..1000) {
        let base = WorkloadSpec {
            key_space,
            read_ratio: f64::from(read_pm) / 1000.0,
            value_size,
            distribution: if zipfian {
                KeyDistribution::Zipfian { theta: 0.99 }
            } else {
                KeyDistribution::Uniform
            },
            seed,
        };
        prop_assert_eq!(round_trips(&base), base.clone());
        let txn = TxnWorkloadSpec {
            base,
            txn_fraction: f64::from(read_pm) / 1000.0,
            ops_per_txn: 3,
            fan_out: 2,
        };
        prop_assert_eq!(round_trips(&txn), txn);
    }

    /// The headline round-trip: a full deployment spec — per-shard policy
    /// overrides, fault/crash plans, txn/rebalance/telemetry config and all —
    /// survives `from_str(to_string(spec))` unchanged.
    #[test]
    fn deployment_spec_round_trips(shards in 1usize..5, replicas_idx in 0usize..3,
                                   clients in 1usize..64, ops in 1usize..5000,
                                   seed in 0u64..1000, batch_ops in 1usize..64,
                                   confidential in any::<bool>(), telemetry in any::<bool>()) {
        let replicas = [3, 4, 5][replicas_idx];
        let mut spec = DeploymentSpec::new(shards, replicas)
            .with_clients(clients, ops)
            .with_seed(seed)
            .with_batching(BatchConfig::of_ops(batch_ops))
            .with_fault_plan(FaultPlan {
                duplicate_probability: 0.05,
                replay_probability: 0.05,
                ..FaultPlan::benign()
            })
            .with_crash_plan(CrashPlan {
                entries: vec![CrashEntry {
                    node: NodeId(0),
                    crash_at_ns: 2_000_000,
                    recover_at_ns: Some(100_000_000),
                }],
            })
            .with_rebalance(RebalanceConfig::enabled())
            .with_telemetry(if telemetry {
                TelemetryConfig::enabled()
            } else {
                TelemetryConfig::default()
            });
        if confidential {
            spec = spec.confidential();
        }
        spec = spec.with_shard_policy(0, ShardPolicy::new().with_batch(BatchConfig::unbatched()));
        prop_assert_eq!(round_trips(&spec), spec);
    }
}

/// Every file in the golden corpus loads, validates, and round-trips its
/// deployment spec through JSON text.
#[test]
fn golden_corpus_loads_and_round_trips() {
    let mut checked = 0;
    for entry in std::fs::read_dir("scenarios").expect("scenarios/ exists") {
        let path = entry.expect("readable entry").path();
        // Same filter as the CI discovery step: scenario files only (the
        // directory also holds README.md and the malformed/ subdirectory).
        let ext = path.extension().and_then(|e| e.to_str());
        if !path.is_file() || !matches!(ext, Some("toml") | Some("json")) {
            continue;
        }
        let scenario = Scenario::from_path(&path)
            .unwrap_or_else(|err| panic!("{} must load: {err}", path.display()));
        assert!(!scenario.name.is_empty(), "{}: empty name", path.display());
        assert!(
            !scenario.protocols.is_empty(),
            "{}: no protocols",
            path.display()
        );
        assert_eq!(
            round_trips(&scenario.deployment),
            scenario.deployment,
            "{}: deployment spec must round-trip",
            path.display()
        );
        checked += 1;
    }
    assert!(checked >= 10, "only {checked} corpus files found");
}

/// Every file in the negative corpus declares its expected error substring
/// on the first line (`# expect-error: <substring>`) and must fail to load
/// with exactly that failure mode.
#[test]
fn malformed_corpus_fails_with_declared_errors() {
    let mut checked = 0;
    for entry in std::fs::read_dir("scenarios/malformed").expect("scenarios/malformed/ exists") {
        let path = entry.expect("readable entry").path();
        let text = std::fs::read_to_string(&path).expect("readable file");
        let expected = text
            .lines()
            .next()
            .and_then(|line| line.strip_prefix("# expect-error:"))
            .unwrap_or_else(|| {
                panic!(
                    "{}: first line must be `# expect-error: <substring>`",
                    path.display()
                )
            })
            .trim();
        let err = Scenario::from_path(&path)
            .map(|_| panic!("{} must be rejected", path.display()))
            .unwrap_err();
        assert!(
            err.to_string().contains(expected),
            "{}: error `{err}` does not contain declared substring `{expected}`",
            path.display()
        );
        checked += 1;
    }
    assert!(checked >= 12, "only {checked} malformed files found");
}

/// What validation refuses is what the registry says a protocol cannot do:
/// for every registered protocol, a transaction workload, a confidential
/// deployment and a group one replica short of `min_replicas(f)` load exactly
/// when the registry allows them, and the refusal names the protocol.
#[test]
fn validation_enforces_the_capabilities_the_registry_declares() {
    let load = |protocol: Protocol, replicas: usize, confidential: bool, kind: &str| {
        Scenario::from_toml_str(&format!(
            "name = \"capabilities\"\nprotocol = \"{}\"\n[deployment]\nshards = 2\n\
             replicas_per_shard = {replicas}\nfaults_tolerated = 1\nclients = 4\n\
             total_operations = 10\nconfidential = {confidential}\n[workload]\nkind = \"{kind}\"\n",
            protocol.file_name()
        ))
    };
    for protocol in Protocol::ALL {
        let enough = protocol.min_replicas(1);
        let named = format!("protocol `{}`", protocol.file_name());
        let refused = |loaded: Result<_, ScenarioError>, allowed: bool, why: &str| match loaded {
            Ok(_) => assert!(allowed, "{named}: loaded although {why}"),
            Err(err) => {
                assert!(!allowed, "{named}: refused although not {why}: {err}");
                assert!(err.to_string().contains(&named), "{err}");
            }
        };
        let plain = load(protocol, enough, false, "single").expect("the plain form loads");
        assert_eq!(plain.protocols, [protocol]);
        refused(
            load(protocol, enough, false, "txn"),
            protocol.supports_txn(),
            "transactions are unsupported",
        );
        refused(
            load(protocol, enough, true, "single"),
            protocol.supports_confidential(),
            "it has no confidential mode",
        );
        // One short of 2f+1 is the deployment's own error; between 2f+1 and
        // the protocol's minimum it is the protocol's.
        if enough > 3 {
            refused(
                load(protocol, enough - 1, false, "single"),
                false,
                "too few",
            );
        } else {
            let err = load(protocol, enough - 1, false, "single").unwrap_err();
            assert!(err.to_string().contains("replicas_per_shard"), "{err}");
        }
    }
}

/// The anchor test: a TOML scenario that mirrors `fig_rebalance`'s builder
/// config decodes to the *identical* `DeploymentSpec`, and clusters built
/// from both specs commit bit-identical state under the same workload.
#[test]
fn toml_scenario_is_bit_identical_twin_of_builder_config() {
    let toml = r#"
name = "fig-rebalance-twin"
protocol = "raft"

[deployment]
shards = 2
replicas_per_shard = 3
clients = 64
total_operations = 1200
seed = 9

[deployment.rebalance]
check_interval_ns = 10_000_000
min_window_commits = 120
imbalance_threshold = 1.4
timeline_bucket_ns = 5_000_000
"#;
    let scenario = Scenario::from_toml_str(toml).expect("twin scenario loads");

    // The builder twin, written exactly like `fig_rebalance` writes it.
    let twin = DeploymentSpec::new(2, 3)
        .with_seed(9)
        .with_clients(64, 1200)
        .with_rebalance(RebalanceConfig {
            check_interval_ns: 10_000_000,
            min_window_commits: 120,
            imbalance_threshold: 1.4,
            timeline_bucket_ns: 5_000_000,
            ..RebalanceConfig::enabled()
        });
    assert_eq!(scenario.deployment, twin, "decoded spec != builder spec");

    // Same spec, same workload, two independently built clusters: the
    // committed state must agree bit for bit on every replica of every
    // shard, and the routers must agree on version and placement.
    let run = |spec: DeploymentSpec| {
        let mut cluster = ShardedCluster::<RaftReplica>::build(spec);
        let stats = cluster.run_requests(|client, seq| {
            let key = format!("user{:08}", (client * 131 + seq * 17) % 10_000).into_bytes();
            let value = vec![0xAB; 64];
            Some(Operation::Put { key, value }.into())
        });
        cluster.quiesce(50_000_000);
        (cluster, stats)
    };
    let (mut from_toml, toml_stats) = run(scenario.deployment.clone());
    let (mut from_builder, builder_stats) = run(twin);

    assert_eq!(toml_stats.total.committed, builder_stats.total.committed);
    assert_eq!(
        from_toml.router().version(),
        from_builder.router().version()
    );
    for i in 0..10_000 {
        let key = format!("user{i:08}").into_bytes();
        let shard_a = from_toml.router().shard_for_key(&key);
        let shard_b = from_builder.router().shard_for_key(&key);
        assert_eq!(shard_a, shard_b, "placement diverged for user{i:08}");
        for node in 0..3 {
            let a = from_toml
                .shard_mut(shard_a)
                .replica_mut(NodeId(node))
                .local_read(&key);
            let b = from_builder
                .shard_mut(shard_b)
                .replica_mut(NodeId(node))
                .local_read(&key);
            assert_eq!(
                a, b,
                "state diverged at shard {shard_a} node {node} user{i:08}"
            );
        }
    }
}

/// The JSON and TOML forms of the same scenario decode to equal scenarios.
#[test]
fn json_and_toml_forms_decode_identically() {
    let toml = r#"
name = "same"
protocol = "raft"

[deployment]
shards = 2
replicas_per_shard = 3
clients = 8
total_operations = 600
seed = 7

[workload]
kind = "single"
read_ratio = 0.5

[expect]
zero_lost_commits = true
"#;
    let json = r#"{
  "name": "same",
  "protocol": "raft",
  "deployment": {"shards": 2, "replicas_per_shard": 3, "clients": 8,
                 "total_operations": 600, "seed": 7},
  "workload": {"kind": "single", "read_ratio": 0.5},
  "expect": {"zero_lost_commits": true}
}"#;
    assert_eq!(
        Scenario::from_toml_str(toml).expect("toml loads"),
        Scenario::from_json_str(json).expect("json loads")
    );
}
