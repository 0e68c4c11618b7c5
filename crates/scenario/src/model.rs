//! The scenario file model: what a TOML/JSON experiment description contains
//! and how it decodes — strictly — into a [`DeploymentSpec`], a workload and
//! an expectations block.
//!
//! See `scenarios/README.md` in the repository root for the authoring guide;
//! the shape in brief:
//!
//! ```toml
//! name = "my-scenario"
//! description = "what invariant this pins"
//! protocol = "raft"              # or protocols = ["raft", "chain", ...]
//!
//! [deployment]
//! shards = 2
//! replicas_per_shard = 3
//! clients = 32
//! total_operations = 2000
//! seed = 42
//! batch_ops = 8                  # optional
//! confidential = false           # workspace default mode
//!
//! [deployment.fault_plan]        # optional adversarial network
//! drop_probability = 0.02
//!
//! [[deployment.crash]]           # optional crash schedule
//! node = 0
//! crash_at_ns = 40_000_000
//! recover_at_ns = 90_000_000     # omit for crash-stop
//!
//! [workload]
//! kind = "single"                # single | txn | hot_shard
//! read_ratio = 0.5
//!
//! [expect]
//! zero_lost_commits = true
//! min_committed_ops = 2000
//! ```
//!
//! Every key is validated: unknown keys are rejected with the allowed set,
//! and contradictory knobs (a crash entry naming a node outside the group,
//! `batch_ops = 0`, transaction fan-out wider than the deployment) fail at
//! load time with the offending field named — never as a panic mid-run.

use recipe_core::ConfidentialityMode;
use recipe_gateway::{GatewayConfig, TenantSpec};
use recipe_net::{CrashEntry, CrashPlan, FaultPlan, NodeId};
use recipe_protocols::{BatchConfig, Protocol};
use recipe_shard::{DeploymentSpec, RebalanceConfig, ShardPolicy};
use recipe_sim::CostProfile;
use recipe_telemetry::TelemetryConfig;
use recipe_workload::{KeyDistribution, TxnWorkloadSpec, WorkloadSpec};
use serde::Value;

use crate::decode::{join, MapDecoder, ScenarioError};

fn parse_protocol(s: &str, path: &str) -> Result<Protocol, ScenarioError> {
    Protocol::from_file_name(s).ok_or_else(|| {
        let names: Vec<&str> = Protocol::ALL.iter().map(|p| p.file_name()).collect();
        ScenarioError(format!(
            "`{path}`: unknown protocol `{s}` (expected one of: {})",
            names.join(", ")
        ))
    })
}

/// The workload a scenario drives through the cluster.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadKind {
    /// Single-key operations from a [`WorkloadSpec`] stream.
    Single(WorkloadSpec),
    /// A mix of single-key operations and multi-key transactions.
    Txn(TxnWorkloadSpec),
    /// Single-key operations with a fraction of the stream redirected onto a
    /// small hot range owned by one shard — the skew that provokes the
    /// rebalancing controller.
    HotShard {
        /// The base single-key stream (read mix, value size, seed).
        base: WorkloadSpec,
        /// The shard whose keys take the redirected traffic.
        hot_shard: usize,
        /// Fraction of operations redirected onto the hot range, 0.0–1.0.
        hot_fraction: f64,
        /// Ring arcs the hot range spans (more arcs = splittable load).
        hot_arcs: usize,
        /// Keys taken from each arc.
        keys_per_arc: usize,
    },
}

/// The declared pass/fail conditions checked after a scenario run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Expectations {
    /// Every targeted operation must commit: `committed >=
    /// total_operations`. (Commits can legitimately exceed the target when a
    /// 2PC drain completes in-flight transactions past it; fewer means ops
    /// were lost to a fault or the time cap.)
    pub zero_lost_commits: bool,
    /// Lower bound on total committed operations.
    pub(crate) min_committed_ops: Option<u64>,
    /// At least one migration must reach cutover.
    pub(crate) expect_migrations: bool,
    /// At least one leader failover (view change) must be observed. Requires
    /// telemetry: view changes are only visible as spans.
    pub(crate) expect_view_changes: bool,
}

/// A fully loaded and validated scenario: deployment, workload, the
/// protocols to drive, and the expectations to check.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (used in summaries and artifact paths).
    pub name: String,
    /// What invariant the scenario pins.
    pub description: String,
    /// The protocols to run the deployment under (one outcome each).
    pub protocols: Vec<Protocol>,
    /// The deployment description, already validated.
    pub deployment: DeploymentSpec,
    /// The request stream.
    pub workload: WorkloadKind,
    /// Declared pass/fail conditions.
    pub expect: Expectations,
}

impl Scenario {
    /// Loads a scenario from TOML text.
    pub fn from_toml_str(input: &str) -> Result<Self, ScenarioError> {
        let tree = crate::toml::parse(input).map_err(ScenarioError::msg)?;
        Scenario::from_value(&tree)
    }

    /// Loads a scenario from JSON text (same tree shape as the TOML form).
    pub fn from_json_str(input: &str) -> Result<Self, ScenarioError> {
        let tree: Value = serde_json::from_str(input)
            .map_err(|e| ScenarioError(format!("JSON parse error: {e}")))?;
        Scenario::from_value(&tree)
    }

    /// Loads a scenario from a file, dispatching on the `.toml`/`.json`
    /// extension.
    pub fn from_path(path: &std::path::Path) -> Result<Self, ScenarioError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ScenarioError(format!("cannot read {}: {e}", path.display())))?;
        let parsed = match path.extension().and_then(|e| e.to_str()) {
            Some("toml") => Scenario::from_toml_str(&text),
            Some("json") => Scenario::from_json_str(&text),
            _ => Err(ScenarioError(
                "unsupported extension (expected .toml or .json)".into(),
            )),
        };
        parsed.map_err(|e| ScenarioError(format!("{}: {e}", path.display())))
    }

    /// Decodes and validates a scenario from a parsed value tree.
    pub(crate) fn from_value(tree: &Value) -> Result<Self, ScenarioError> {
        let mut root = MapDecoder::new(tree, "")?;
        let name: String = root.req("name")?;
        let description: String = root.opt_or("description", String::new())?;

        let single = root.opt::<String>("protocol")?;
        let many = root.opt::<Vec<String>>("protocols")?;
        let protocols = match (single, many) {
            (Some(_), Some(_)) => {
                return Err(ScenarioError(
                    "set either `protocol` or `protocols`, not both".into(),
                ))
            }
            (Some(p), None) => vec![parse_protocol(&p, "protocol")?],
            (None, Some(list)) => {
                if list.is_empty() {
                    return Err(ScenarioError("`protocols`: must name at least one".into()));
                }
                list.iter()
                    .map(|p| parse_protocol(p, "protocols"))
                    .collect::<Result<Vec<_>, _>>()?
            }
            (None, None) => {
                return Err(ScenarioError(
                    "missing required key `protocol` (or `protocols`) at the top level".into(),
                ))
            }
        };

        let deployment = root
            .table("deployment", decode_deployment)?
            .ok_or_else(|| ScenarioError("missing required table `[deployment]`".into()))?;
        let shard_policies = root.tables("shard_policy", decode_shard_policy)?;
        let workload = root
            .table("workload", decode_workload)?
            .unwrap_or(WorkloadKind::Single(WorkloadSpec::default()));
        let expect = root.table("expect", decode_expect)?.unwrap_or_default();
        root.deny_unknown()?;

        // Per-shard overrides ride at the top level (`[[shard_policy]]`), so
        // range-check them here before the builder's assert could fire.
        let mut deployment = deployment;
        for (shard, policy, idx) in shard_policies {
            if shard >= deployment.shards() {
                return Err(ScenarioError(format!(
                    "`shard_policy[{idx}].shard`: shard {shard} out of range (deployment has \
                     {} shards)",
                    deployment.shards()
                )));
            }
            deployment = deployment.with_shard_policy(shard, policy);
        }

        let scenario = Scenario {
            name,
            description,
            protocols,
            deployment,
            workload,
            expect,
        };
        scenario.validate()?;
        Ok(scenario)
    }

    /// Cross-field validation: everything the per-table decoders cannot see.
    fn validate(&self) -> Result<(), ScenarioError> {
        self.deployment
            .validate()
            .map_err(|e| ScenarioError(format!("deployment.{e}")))?;
        let spec = &self.deployment;
        // What a protocol cannot do is the registry's to say.
        for &p in &self.protocols {
            let name = p.file_name();
            let need = p.min_replicas(spec.faults_tolerated());
            if spec.replicas_per_shard() < need {
                return Err(ScenarioError(format!(
                    "protocol `{name}`: f = {} needs at least {}f+1 = {need} replicas per \
                     shard, but `deployment.replicas_per_shard` = {}",
                    spec.faults_tolerated(),
                    p.replicas_per_fault(),
                    spec.replicas_per_shard()
                )));
            }
            let confidential =
                (0..spec.shards()).any(|s| spec.policy_for(s).confidentiality.is_confidential());
            if confidential && !p.supports_confidential() {
                return Err(ScenarioError(format!(
                    "protocol `{name}`: the {} baseline has no confidential mode; drop \
                     `deployment.confidential` / per-shard `confidential = true` or pick a \
                     recipe protocol",
                    p.display_name()
                )));
            }
            let batched = (0..spec.shards()).find(|&s| spec.policy_for(s).batch.is_batching());
            if let (Some(shard), false) = (batched, p.batches()) {
                return Err(ScenarioError(format!(
                    "protocol `{name}`: {} does not batch, so shard {shard}'s `batch_ops` would \
                     be dropped; remove `deployment.batch_ops` and per-shard `batch_ops`, or \
                     pick a protocol that batches",
                    p.display_name()
                )));
            }
            if matches!(self.workload, WorkloadKind::Txn(_)) && !p.supports_txn() {
                return Err(ScenarioError(format!(
                    "protocol `{name}`: transactions are not supported (no 2PC \
                     participant hooks); use `workload.kind = \"single\"` or another \
                     protocol"
                )));
            }
        }
        match &self.workload {
            WorkloadKind::Single(base) => validate_base_workload(base)?,
            WorkloadKind::Txn(txn) => {
                validate_base_workload(&txn.base)?;
                if !(0.0..=1.0).contains(&txn.txn_fraction) {
                    return Err(ScenarioError(format!(
                        "`workload.txn_fraction`: {} is not a fraction (must be within \
                         0.0..=1.0)",
                        txn.txn_fraction
                    )));
                }
                if txn.ops_per_txn == 0 {
                    return Err(ScenarioError(
                        "`workload.ops_per_txn`: must be >= 1 (an empty transaction commits \
                         nothing)"
                            .into(),
                    ));
                }
                if txn.fan_out == 0 || txn.fan_out > spec.shards() {
                    return Err(ScenarioError(format!(
                        "`workload.fan_out`: {} is outside 1..={} (a transaction cannot span \
                         more shards than the deployment has)",
                        txn.fan_out,
                        spec.shards()
                    )));
                }
            }
            WorkloadKind::HotShard {
                base,
                hot_shard,
                hot_fraction,
                hot_arcs,
                keys_per_arc,
            } => {
                validate_base_workload(base)?;
                if *hot_shard >= spec.shards() {
                    return Err(ScenarioError(format!(
                        "`workload.hot_shard`: shard {hot_shard} out of range (deployment has \
                         {} shards)",
                        spec.shards()
                    )));
                }
                if !(0.0..=1.0).contains(hot_fraction) {
                    return Err(ScenarioError(format!(
                        "`workload.hot_fraction`: {hot_fraction} is not a fraction (must be \
                         within 0.0..=1.0)"
                    )));
                }
                if *hot_arcs == 0 || *keys_per_arc == 0 {
                    return Err(ScenarioError(
                        "`workload.hot_arcs` and `workload.keys_per_arc` must be >= 1 (an \
                         empty hot range heats nothing)"
                            .into(),
                    ));
                }
            }
        }
        if self.expect.expect_view_changes && !spec.telemetry().enabled {
            return Err(ScenarioError(
                "`expect.expect_view_changes`: requires `[deployment.telemetry]` with \
                 `enabled = true` — view changes are only observable as telemetry spans"
                    .into(),
            ));
        }
        Ok(())
    }
}

fn validate_base_workload(base: &WorkloadSpec) -> Result<(), ScenarioError> {
    if base.key_space == 0 {
        return Err(ScenarioError(
            "`workload.key_space`: must be >= 1 (an empty key space has no keys to touch)".into(),
        ));
    }
    if !(0.0..=1.0).contains(&base.read_ratio) {
        return Err(ScenarioError(format!(
            "`workload.read_ratio`: {} is not a fraction (must be within 0.0..=1.0)",
            base.read_ratio
        )));
    }
    if let KeyDistribution::Zipfian { theta } = base.distribution {
        if !(0.0..1.0).contains(&theta) {
            return Err(ScenarioError(format!(
                "`workload.zipf_theta`: {theta} is outside 0.0..1.0 (the YCSB sampler needs \
                 theta < 1; hotter skew comes from a smaller key_space or the hot_shard \
                 workload)"
            )));
        }
    }
    Ok(())
}

fn decode_deployment(d: &mut MapDecoder<'_>) -> Result<DeploymentSpec, ScenarioError> {
    let shards: usize = d.req("shards")?;
    let replicas: usize = d.req("replicas_per_shard")?;
    if shards == 0 {
        return Err(ScenarioError(format!(
            "`{}`: must be >= 1",
            join(d.path(), "shards")
        )));
    }
    if replicas == 0 {
        return Err(ScenarioError(format!(
            "`{}`: must be >= 1",
            join(d.path(), "replicas_per_shard")
        )));
    }
    let mut spec = DeploymentSpec::new(shards, replicas);
    let clients: usize = d.req("clients")?;
    let total: usize = d.req("total_operations")?;
    spec = spec.with_clients(clients, total);
    if let Some(f) = d.opt::<usize>("faults_tolerated")? {
        spec = spec.with_faults_tolerated(f);
    }
    if let Some(seed) = d.opt::<u64>("seed")? {
        spec = spec.with_seed(seed);
    }
    if d.opt_or("confidential", false)? {
        spec = spec.confidential();
    }
    if let Some(profile) = d.opt::<String>("profile")? {
        spec = spec.with_profile(parse_profile(&profile, &join(d.path(), "profile"))?);
    }
    if let Some(batch) = decode_batch_ops(d)? {
        spec = spec.with_batching(batch);
    }
    if let Some(plan) = d.table("fault_plan", decode_fault_plan)? {
        spec = spec.with_fault_plan(plan);
    }
    let crash = decode_crash_entries(d)?;
    if !crash.is_empty() {
        spec = spec.with_crash_plan(CrashPlan { entries: crash });
    }
    if let Some(rebalance) = d.table("rebalance", decode_rebalance)? {
        spec = spec.with_rebalance(rebalance);
    }
    // `[deployment.txn]` holds only the plan of the plane between groups.
    if let Some(plan) = d
        .table("txn", |t| t.table("fault_plan", decode_fault_plan))?
        .flatten()
    {
        spec = spec.with_plane_fault_plan(plan);
    }
    if let Some(telemetry) = d.table("telemetry", decode_telemetry)? {
        spec = spec.with_telemetry(telemetry);
    }
    if let Some(gateway) = decode_gateway(d)? {
        spec = spec.with_gateway(gateway);
    }
    Ok(spec)
}

/// The `[deployment.gateway]` switch plus `[[deployment.tenant]]` blocks.
/// Tenant presence implies an enabled gateway — the same
/// presence-implies-intent default as `[deployment.rebalance]` — while an
/// explicit `enabled = false` alongside tenant blocks is contradictory and
/// rejected by [`GatewayConfig::validate`] with the field named.
fn decode_gateway(d: &mut MapDecoder<'_>) -> Result<Option<GatewayConfig>, ScenarioError> {
    let enabled = d.table("gateway", |g| g.opt_or("enabled", true))?;
    let tenants = d.tables("tenant", decode_tenant)?;
    if enabled.is_none() && tenants.is_empty() {
        return Ok(None);
    }
    Ok(Some(GatewayConfig {
        enabled: enabled.unwrap_or(true),
        tenants,
    }))
}

/// One `[[deployment.tenant]]` element. Name format, quota/burst coherence
/// and cross-tenant uniqueness are checked by `DeploymentSpec::validate`
/// (through [`GatewayConfig::validate`]), which names the offending field.
fn decode_tenant(_idx: usize, t: &mut MapDecoder<'_>) -> Result<TenantSpec, ScenarioError> {
    let mut tenant = TenantSpec::new(t.req::<String>("name")?);
    if let Some(quota) = t.opt::<u64>("quota_ops_per_sec")? {
        tenant = tenant.with_quota(quota);
    }
    if let Some(burst) = t.opt::<u64>("burst_ops")? {
        tenant = tenant.with_burst(burst);
    }
    Ok(tenant)
}

/// `batch_ops = N`: `BatchConfig::of_ops` minus its silent `max(1)` clamp,
/// so `batch_ops = 0` reaches validation and errors.
fn decode_batch_ops(d: &mut MapDecoder<'_>) -> Result<Option<BatchConfig>, ScenarioError> {
    Ok(d.opt::<usize>("batch_ops")?
        .map(|max_ops| BatchConfig { max_ops }))
}

fn parse_profile(name: &str, path: &str) -> Result<CostProfile, ScenarioError> {
    match name {
        "recipe" => Ok(CostProfile::recipe()),
        "native_cft" => Ok(CostProfile::native_cft()),
        "pbft_baseline" => Ok(CostProfile::pbft_baseline()),
        "damysus_baseline" => Ok(CostProfile::damysus_baseline()),
        _ => Err(ScenarioError(format!(
            "`{path}`: unknown cost profile `{name}` (expected one of: recipe, native_cft, \
             pbft_baseline, damysus_baseline)"
        ))),
    }
}

fn decode_fault_plan(f: &mut MapDecoder<'_>) -> Result<FaultPlan, ScenarioError> {
    let defaults = FaultPlan::default();
    Ok(FaultPlan {
        drop_probability: f.opt_or("drop_probability", defaults.drop_probability)?,
        tamper_probability: f.opt_or("tamper_probability", defaults.tamper_probability)?,
        duplicate_probability: f.opt_or("duplicate_probability", defaults.duplicate_probability)?,
        replay_probability: f.opt_or("replay_probability", defaults.replay_probability)?,
        max_extra_delay_ns: f.opt_or("max_extra_delay_ns", defaults.max_extra_delay_ns)?,
        capture_limit: f.opt_or("capture_limit", defaults.capture_limit)?,
    })
}

/// `[[..crash]]` entries. Range and ordering are checked later by
/// [`DeploymentSpec::validate`], which sees the replica count.
fn decode_crash_entries(d: &mut MapDecoder<'_>) -> Result<Vec<CrashEntry>, ScenarioError> {
    d.tables("crash", |_, c| {
        Ok(CrashEntry {
            node: NodeId(c.req("node")?),
            crash_at_ns: c.req("crash_at_ns")?,
            recover_at_ns: c.opt("recover_at_ns")?,
        })
    })
}

fn decode_rebalance(r: &mut MapDecoder<'_>) -> Result<RebalanceConfig, ScenarioError> {
    let defaults = RebalanceConfig::default();
    Ok(RebalanceConfig {
        // Presence of the table means the scenario wants the controller:
        // `enabled` defaults to true here (and can still be set to false to
        // pin the timeline knobs of a controller-off run).
        enabled: r.opt_or("enabled", true)?,
        check_interval_ns: r.opt_or("check_interval_ns", defaults.check_interval_ns)?,
        min_window_commits: r.opt_or("min_window_commits", defaults.min_window_commits)?,
        imbalance_threshold: r.opt_or("imbalance_threshold", defaults.imbalance_threshold)?,
        drain_threshold_ops: r.opt_or("drain_threshold_ops", defaults.drain_threshold_ops)?,
        timeline_bucket_ns: r.opt_or("timeline_bucket_ns", defaults.timeline_bucket_ns)?,
        ..defaults
    })
}

fn decode_telemetry(t: &mut MapDecoder<'_>) -> Result<TelemetryConfig, ScenarioError> {
    Ok(TelemetryConfig {
        // Same presence-implies-intent default as `[deployment.rebalance]`.
        enabled: t.opt_or("enabled", true)?,
    })
}

/// One `[[shard_policy]]` element; returns `(shard, policy, index)` so the
/// caller can range-check against the deployment.
fn decode_shard_policy(
    idx: usize,
    p: &mut MapDecoder<'_>,
) -> Result<(usize, ShardPolicy, usize), ScenarioError> {
    let shard: usize = p.req("shard")?;
    let mut policy = ShardPolicy::new();
    if let Some(confidential) = p.opt::<bool>("confidential")? {
        policy = policy.with_confidentiality(if confidential {
            ConfidentialityMode::Confidential
        } else {
            ConfidentialityMode::Plaintext
        });
    }
    if let Some(batch) = decode_batch_ops(p)? {
        policy = policy.with_batch(batch);
    }
    if let Some(profile) = p.opt::<String>("profile")? {
        policy = policy.with_profile(parse_profile(&profile, &join(p.path(), "profile"))?);
    }
    if let Some(plan) = p.table("fault_plan", decode_fault_plan)? {
        policy = policy.with_fault_plan(plan);
    }
    let crash = decode_crash_entries(p)?;
    if !crash.is_empty() {
        policy = policy.with_crash_plan(CrashPlan { entries: crash });
    }
    Ok((shard, policy, idx))
}

fn decode_workload(w: &mut MapDecoder<'_>) -> Result<WorkloadKind, ScenarioError> {
    let kind: String = w.opt_or("kind", "single".to_string())?;
    let base = decode_base_workload(w)?;
    match kind.as_str() {
        "single" => Ok(WorkloadKind::Single(base)),
        "txn" => Ok(WorkloadKind::Txn(TxnWorkloadSpec {
            base,
            txn_fraction: w.opt_or("txn_fraction", 0.5)?,
            ops_per_txn: w.opt_or("ops_per_txn", 3)?,
            fan_out: w.opt_or("fan_out", 2)?,
        })),
        "hot_shard" => Ok(WorkloadKind::HotShard {
            base,
            hot_shard: w.req("hot_shard")?,
            hot_fraction: w.opt_or("hot_fraction", 0.9)?,
            hot_arcs: w.opt_or("hot_arcs", 4)?,
            keys_per_arc: w.opt_or("keys_per_arc", 4)?,
        }),
        other => Err(ScenarioError(format!(
            "`{}`: unknown workload kind `{other}` (expected one of: single, txn, hot_shard)",
            join(w.path(), "kind")
        ))),
    }
}

fn decode_base_workload(w: &mut MapDecoder<'_>) -> Result<WorkloadSpec, ScenarioError> {
    let defaults = WorkloadSpec::default();
    let distribution = match w.opt::<String>("distribution")? {
        None => {
            // No distribution named: keep the YCSB default unless a theta is
            // given explicitly.
            match w.opt::<f64>("zipf_theta")? {
                Some(theta) => KeyDistribution::Zipfian { theta },
                None => defaults.distribution,
            }
        }
        Some(name) => match name.as_str() {
            "uniform" => {
                if w.get("zipf_theta").is_some() {
                    return Err(ScenarioError(format!(
                        "`{}`: meaningless with `distribution = \"uniform\"`",
                        join(w.path(), "zipf_theta")
                    )));
                }
                KeyDistribution::Uniform
            }
            "zipfian" => KeyDistribution::Zipfian {
                theta: w.opt_or("zipf_theta", 0.99)?,
            },
            other => {
                return Err(ScenarioError(format!(
                    "`{}`: unknown distribution `{other}` (expected `uniform` or `zipfian`)",
                    join(w.path(), "distribution")
                )))
            }
        },
    };
    Ok(WorkloadSpec {
        key_space: w.opt_or("key_space", defaults.key_space)?,
        read_ratio: w.opt_or("read_ratio", defaults.read_ratio)?,
        value_size: w.opt_or("value_size", defaults.value_size)?,
        distribution,
        seed: w.opt_or("seed", defaults.seed)?,
    })
}

fn decode_expect(e: &mut MapDecoder<'_>) -> Result<Expectations, ScenarioError> {
    Ok(Expectations {
        zero_lost_commits: e.opt_or("zero_lost_commits", false)?,
        min_committed_ops: e.opt("min_committed_ops")?,
        expect_migrations: e.opt_or("expect_migrations", false)?,
        expect_view_changes: e.opt_or("expect_view_changes", false)?,
    })
}
