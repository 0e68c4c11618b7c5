//! The declarative deployment surface: one typed spec instead of three
//! positional constructors.
//!
//! Assembling a sharded deployment used to take three coupled steps — a
//! `build_sharded_cluster` closure for the replicas, a `ShardedConfig` built
//! by hand for the simulator knobs and a `ShardedCluster::new` to tie them
//! together — and the confidentiality choice was a `bool` baked into every
//! replica at construction, which made *per-shard* policies inexpressible.
//! [`DeploymentSpec`] (now the only construction surface; the deprecated
//! three-step shims were removed after their one-release grace period)
//! replaces the three-step with one declarative description:
//!
//! * **workspace-level defaults** — replica count per group, cost profile,
//!   confidentiality, batch size, fault plan, client population, seed,
//!   rebalancing knobs;
//! * **per-shard [`ShardPolicy`] overrides** — any subset of
//!   `{confidentiality, batching, cost profile, fault plan, crash plan}` for
//!   a specific shard, composed over the defaults (the layered-config idiom);
//! * **one consumer** — [`ShardedCluster::build`] resolves the spec once into
//!   the cluster's [`ShardedConfig`]: one [`ResolvedShardPolicy`] per shard
//!   beside the spec-level values a run reads. Each shard's replicas are
//!   built under its policy through [`recipe_protocols::StoreReplica`] —
//!   Recipe-transformed where the resolved profile is `shielded`, native
//!   where it is not, so the mode is never a knob of its own — and its
//!   group's simulator configuration is made from the same policy.
//!
//! A spec of one shard is a single replica group: the paper's single-group
//! figures, the fault tests and the examples are written as
//! `DeploymentSpec::new(1, n)`, and its clients run in the request driver
//! like any other deployment's — the simulator has no client loop of its own.
//!
//! ```
//! use recipe_shard::{DeploymentSpec, ShardPolicy, ShardedCluster};
//! use recipe_protocols::RaftReplica;
//!
//! // Four 3-replica R-Raft groups; shard 0 holds the sensitive range and
//! // pays the encryption cost, the rest run plaintext.
//! let spec = DeploymentSpec::new(4, 3)
//!     .with_clients(16, 200)
//!     .with_shard_policy(0, ShardPolicy::confidential());
//! let mut cluster = ShardedCluster::<RaftReplica>::build(spec);
//! let stats = cluster.run_requests(|client, seq| {
//!     let key = format!("user{:08}", client * 131 + seq).into_bytes();
//!     let value = b"v".to_vec();
//!     Some(recipe_core::Operation::Put { key, value }.into())
//! });
//! assert_eq!(stats.total.committed, 200);
//! ```

use std::collections::BTreeMap;

use recipe_core::{ConfidentialityMode, Membership};
use recipe_net::{CrashPlan, FaultPlan};
use recipe_protocols::{BatchConfig, ProtocolMode, StoreReplica, MAX_CLIENTS, MAX_SHARDS};
use recipe_sim::CostProfile;

use crate::migration::RebalanceConfig;
use crate::router::ShardRouter;
use crate::sharded::{ClientModel, ShardedCluster, ShardedConfig};

/// Most replicas a group may have. Replica ids are group-local,
/// `0..replicas_per_shard`; the bound keeps them below every block of
/// endpoint ids (see the assertion beside the 2PC coordinator's addresses).
pub(crate) const MAX_REPLICAS_PER_SHARD: usize = 1 << 16;

/// Per-shard overrides layered over a [`DeploymentSpec`]'s defaults.
///
/// Every field is optional; an unset field inherits the workspace-level
/// default. Policies compose with builder calls:
///
/// ```
/// use recipe_shard::ShardPolicy;
/// use recipe_protocols::BatchConfig;
///
/// let policy = ShardPolicy::confidential().with_batch(BatchConfig::of_ops(16));
/// ```
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ShardPolicy {
    confidentiality: Option<ConfidentialityMode>,
    batch: Option<BatchConfig>,
    profile: Option<CostProfile>,
    fault_plan: Option<FaultPlan>,
    crash_plan: Option<CrashPlan>,
}

impl ShardPolicy {
    /// An empty policy: the shard inherits every workspace-level default.
    pub fn new() -> Self {
        ShardPolicy::default()
    }

    /// A policy that makes the shard confidential (payloads AEAD-encrypted,
    /// stored values sealed, encryption cost charged).
    pub fn confidential() -> Self {
        ShardPolicy::new().with_confidentiality(ConfidentialityMode::Confidential)
    }

    /// Overrides the shard's confidentiality mode.
    pub fn with_confidentiality(mut self, mode: ConfidentialityMode) -> Self {
        self.confidentiality = Some(mode);
        self
    }

    /// Overrides the shard's leader-side batch size (ops per frame).
    pub fn with_batch(mut self, batch: BatchConfig) -> Self {
        self.batch = Some(batch);
        self
    }

    /// Overrides the shard's cost profile (heterogeneous hardware per group).
    /// The resolved profile still gets the shard's confidentiality and
    /// batching folded in, so the policy stays authoritative.
    pub fn with_profile(mut self, profile: CostProfile) -> Self {
        self.profile = Some(profile);
        self
    }

    /// Overrides the shard's network fault plan (e.g. one lossy shard).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Overrides the shard's crash schedule: deterministic crash/recover
    /// events on the virtual clock (node ids are group-local). Recovered
    /// nodes restart rollback-protected — state rehydrated from sealed
    /// values and the trusted counter only.
    pub fn with_crash_plan(mut self, plan: CrashPlan) -> Self {
        self.crash_plan = Some(plan);
        self
    }
}

/// The fully-resolved policy of one shard: workspace defaults with that
/// shard's [`ShardPolicy`] overrides applied. This is what replica factories
/// receive — `profile` already carries the confidentiality flag, so the cost
/// accounting can never disagree with the replicas. The batching factor lives
/// in `batch` alone: the cost model charges by the ops each frame carries.
#[derive(Debug, Clone)]
pub struct ResolvedShardPolicy {
    /// The shard this policy was resolved for.
    pub shard: usize,
    /// Whether the shard's group encrypts payloads and seals stored values.
    pub confidentiality: ConfidentialityMode,
    /// The group's leader-side batch size (ops per frame).
    pub batch: BatchConfig,
    /// The per-replica cost profile, with `confidential` already aligned to
    /// this policy.
    pub profile: CostProfile,
    /// The group's network fault plan.
    pub fault_plan: FaultPlan,
    /// The group's deterministic crash schedule (empty = crash-free).
    pub crash_plan: CrashPlan,
}

/// Declarative description of a sharded deployment: workspace-level defaults
/// plus per-shard [`ShardPolicy`] overrides, consumed by
/// [`ShardedCluster::build`]. The `spec` module's docs give the shape and
/// an example.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DeploymentSpec {
    shards: usize,
    replicas_per_shard: usize,
    faults_tolerated: usize,
    profile: CostProfile,
    confidentiality: ConfidentialityMode,
    batch: BatchConfig,
    fault_plan: FaultPlan,
    crash_plan: CrashPlan,
    clients: ClientModel,
    seed: u64,
    max_virtual_ns: u64,
    rebalance: RebalanceConfig,
    plane_fault_plan: FaultPlan,
    telemetry: recipe_telemetry::TelemetryConfig,
    gateway: recipe_gateway::GatewayConfig,
    overrides: BTreeMap<usize, ShardPolicy>,
}

impl DeploymentSpec {
    /// A deployment of `shards` independent groups of `replicas_per_shard`
    /// replicas each, with the workspace defaults: Recipe cost profile,
    /// plaintext, unbatched, benign network, default client population,
    /// `f = (replicas_per_shard - 1) / 2` crash faults tolerated per group.
    ///
    /// # Panics
    /// Panics if either count is zero.
    pub fn new(shards: usize, replicas_per_shard: usize) -> Self {
        assert!(shards > 0, "at least one shard");
        assert!(replicas_per_shard > 0, "at least one replica per shard");
        DeploymentSpec {
            shards,
            replicas_per_shard,
            faults_tolerated: (replicas_per_shard - 1) / 2,
            profile: CostProfile::recipe(),
            confidentiality: ConfidentialityMode::Plaintext,
            batch: BatchConfig::unbatched(),
            fault_plan: FaultPlan::benign(),
            crash_plan: CrashPlan::none(),
            clients: ClientModel::default(),
            seed: 42,
            max_virtual_ns: 120 * 1_000_000_000,
            rebalance: RebalanceConfig::default(),
            plane_fault_plan: FaultPlan::benign(),
            telemetry: recipe_telemetry::TelemetryConfig::default(),
            gateway: recipe_gateway::GatewayConfig::default(),
            overrides: BTreeMap::new(),
        }
    }

    /// Sets the default per-replica cost profile. Confidentiality and
    /// batching are folded in at resolution time, so pass the *hardware*
    /// profile here and express policy through the policy knobs.
    pub fn with_profile(mut self, profile: CostProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Sets the workspace-default confidentiality mode (individual shards can
    /// still override it with a [`ShardPolicy`]).
    pub fn with_confidentiality(mut self, mode: ConfidentialityMode) -> Self {
        self.confidentiality = mode;
        self
    }

    /// Shorthand: every shard confidential by default.
    pub fn confidential(self) -> Self {
        self.with_confidentiality(ConfidentialityMode::Confidential)
    }

    /// Sets the workspace-default leader-side batch size (ops per frame).
    pub fn with_batching(mut self, batch: BatchConfig) -> Self {
        self.batch = batch;
        self
    }

    /// Sets the workspace-default network fault plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Sets the workspace-default crash schedule: deterministic crash/recover
    /// events on the virtual clock, applied to every shard (node ids are
    /// group-local; individual shards can override with
    /// [`ShardPolicy::with_crash_plan`]). Crashed nodes drop their volatile
    /// state; recovered nodes restart rollback-protected, rehydrating only
    /// from sealed values and the trusted monotonic counter.
    pub fn with_crash_plan(mut self, plan: CrashPlan) -> Self {
        self.crash_plan = plan;
        self
    }

    /// Sets the global closed-loop client population: `clients` concurrent
    /// clients, ending the run after `total_operations` commits.
    pub fn with_clients(mut self, clients: usize, total_operations: usize) -> Self {
        self.clients = ClientModel {
            clients,
            total_operations,
        };
        self
    }

    /// Sets the deterministic seed (workload routing tie-breaks and fault
    /// streams derive from it).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the hard cap on virtual time (safety net for fault scenarios).
    pub fn with_time_cap_ns(mut self, max_virtual_ns: u64) -> Self {
        self.max_virtual_ns = max_virtual_ns;
        self
    }

    /// Sets the crash-fault budget `f` of every group (defaults to a minority,
    /// `(replicas_per_shard - 1) / 2`).
    pub fn with_faults_tolerated(mut self, f: usize) -> Self {
        self.faults_tolerated = f;
        self
    }

    /// Sets the online-rebalancing controller knobs.
    pub fn with_rebalance(mut self, rebalance: RebalanceConfig) -> Self {
        self.rebalance = rebalance;
        self
    }

    /// Sets the adversarial plan of the plane between groups: every frame
    /// the driver carries from one group to another, 2PC legs (both legs of
    /// every round trip) and migration chunks, crosses it. Defaults to
    /// benign.
    pub fn with_plane_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.plane_fault_plan = plan;
        self
    }

    /// Turns the telemetry subsystem on (or tunes it). Telemetry is off by
    /// default, in which case a run is bit-identical to one on a build
    /// without the subsystem; enabled, every shard records spans on the
    /// virtual clock, per-category cost attribution and a metrics registry,
    /// all retrievable after the run via
    /// [`ShardedCluster::take_telemetry_report`].
    pub fn with_telemetry(mut self, telemetry: recipe_telemetry::TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Puts the tenant gateway in front of the router (or tunes it). The
    /// gateway is off by default, in which case a run is bit-identical to one
    /// on a build without the subsystem; enabled, every request passes
    /// `Gateway::admit` — tenant resolution, per-tenant authentication,
    /// token-bucket admission on the virtual clock, tenant key scoping —
    /// before routing.
    pub fn with_gateway(mut self, gateway: recipe_gateway::GatewayConfig) -> Self {
        self.gateway = gateway;
        self
    }

    /// Sets the throughput-timeline bucket width in virtual nanoseconds
    /// (lowered into [`RebalanceConfig::timeline_bucket_ns`]; `0` disables
    /// the timeline). Each bucket counts commits, transaction aborts and
    /// migration cutovers whose completion landed inside its window.
    pub fn with_timeline_bucket_ns(mut self, bucket_ns: u64) -> Self {
        self.rebalance.timeline_bucket_ns = bucket_ns;
        self
    }

    /// Layers a per-shard policy over the defaults. Repeated calls for the
    /// same shard replace the earlier policy.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn with_shard_policy(mut self, shard: usize, policy: ShardPolicy) -> Self {
        assert!(shard < self.shards, "shard {shard} out of range");
        self.overrides.insert(shard, policy);
        self
    }

    /// Number of shards in the deployment.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Replicas in each group.
    pub fn replicas_per_shard(&self) -> usize {
        self.replicas_per_shard
    }

    /// The crash-fault budget `f` of every group.
    pub fn faults_tolerated(&self) -> usize {
        self.faults_tolerated
    }

    /// The deterministic seed the run derives from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The global closed-loop client population.
    pub fn client_model(&self) -> &ClientModel {
        &self.clients
    }

    /// The telemetry configuration this deployment runs under.
    pub fn telemetry(&self) -> &recipe_telemetry::TelemetryConfig {
        &self.telemetry
    }

    /// The tenant-gateway configuration this deployment runs under.
    pub fn gateway(&self) -> &recipe_gateway::GatewayConfig {
        &self.gateway
    }

    /// Checks the spec for contradictory knobs that the builders would
    /// otherwise panic on (or silently clamp) deep inside a run. Every error
    /// names the offending field, so a deserialized spec fails fast with an
    /// actionable message instead of an assert in the driver.
    pub fn validate(&self) -> Result<(), String> {
        if self.clients.clients == 0 {
            return Err("clients.clients: must be >= 1 (a closed loop needs clients)".into());
        }
        if self.clients.total_operations == 0 {
            return Err(
                "clients.total_operations: must be >= 1 (the run would end before it starts)"
                    .into(),
            );
        }
        // Shard indices, client ids and replica ids are all folded into
        // node ids; past these bounds two endpoints would share one.
        for (field, count, most) in [
            ("shards", self.shards, MAX_SHARDS),
            ("clients.clients", self.clients.clients, MAX_CLIENTS),
            (
                "replicas_per_shard",
                self.replicas_per_shard,
                MAX_REPLICAS_PER_SHARD,
            ),
        ] {
            if count > most {
                return Err(format!(
                    "{field}: {count} exceeds {most}, the most the node-id space has room for"
                ));
            }
        }
        if self.max_virtual_ns == 0 {
            return Err("max_virtual_ns: must be > 0 (the time cap would fire immediately)".into());
        }
        if self.replicas_per_shard < 2 * self.faults_tolerated + 1 {
            return Err(format!(
                "faults_tolerated: f = {} needs at least 2f+1 = {} replicas per shard, \
                 but replicas_per_shard = {}",
                self.faults_tolerated,
                2 * self.faults_tolerated + 1,
                self.replicas_per_shard
            ));
        }
        if self.rebalance.enabled && self.rebalance.imbalance_threshold < 1.0 {
            return Err(format!(
                "rebalance.imbalance_threshold: {} is below 1.0, which would flag a \
                 perfectly balanced cluster as imbalanced",
                self.rebalance.imbalance_threshold
            ));
        }
        for (shard, policy) in &self.overrides {
            if *shard >= self.shards {
                return Err(format!(
                    "shard_policy[{shard}]: shard out of range (deployment has {} shards)",
                    self.shards
                ));
            }
            let _ = policy; // contents validated through the resolved view below
        }
        self.gateway.validate()?;
        validate_batch(&self.batch, "batch")?;
        validate_fault_plan(&self.fault_plan, "fault_plan")?;
        validate_crash_plan(&self.crash_plan, self.replicas_per_shard, "crash_plan")?;
        // Named as a scenario file spells it, `[deployment.txn.fault_plan]`.
        validate_fault_plan(&self.plane_fault_plan, "txn.fault_plan")?;
        for shard in 0..self.shards {
            let resolved = self.policy_for(shard);
            if resolved.confidentiality.is_confidential() && !resolved.profile.shielded {
                // A native replica has no layer to encrypt with: building it
                // would silently run the shard in plaintext.
                return Err(format!(
                    "confidentiality: shard {shard} is confidential on an unshielded cost \
                     profile (no Recipe layer to encrypt under); use a shielded profile \
                     such as `recipe` or make the shard plaintext"
                ));
            }
            if let Some(policy) = self.overrides.get(&shard) {
                let at = |field: &str| format!("shard_policy[{shard}].{field}");
                if let Some(batch) = &policy.batch {
                    validate_batch(batch, &at("batch"))?;
                }
                if let Some(plan) = &policy.fault_plan {
                    validate_fault_plan(plan, &at("fault_plan"))?;
                }
                if let Some(plan) = &policy.crash_plan {
                    validate_crash_plan(plan, self.replicas_per_shard, &at("crash_plan"))?;
                }
            }
        }
        Ok(())
    }

    /// The membership every group runs (node ids are group-local, mirroring
    /// each group's own attestation domain).
    pub fn membership(&self) -> Membership {
        Membership::of_size(self.replicas_per_shard, self.faults_tolerated)
    }

    /// Resolves the effective policy of one shard: the workspace defaults
    /// with the shard's overrides applied, the cost profile aligned to the
    /// resolved confidentiality.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn policy_for(&self, shard: usize) -> ResolvedShardPolicy {
        assert!(shard < self.shards, "shard {shard} out of range");
        let overrides = self.overrides.get(&shard);
        let confidentiality = overrides
            .and_then(|p| p.confidentiality)
            .unwrap_or(self.confidentiality);
        let batch = overrides.and_then(|p| p.batch).unwrap_or(self.batch);
        let profile = overrides
            .and_then(|p| p.profile.clone())
            .unwrap_or_else(|| self.profile.clone())
            .with_confidentiality(confidentiality);
        let fault_plan = overrides
            .and_then(|p| p.fault_plan)
            .unwrap_or(self.fault_plan);
        let crash_plan = overrides
            .and_then(|p| p.crash_plan.clone())
            .unwrap_or_else(|| self.crash_plan.clone());
        ResolvedShardPolicy {
            shard,
            confidentiality,
            batch,
            profile,
            fault_plan,
            crash_plan,
        }
    }

    /// Resolves the spec into the cluster's [`ShardedConfig`]: each shard's
    /// policy, resolved once, beside the spec-level values a run reads.
    pub fn to_sharded_config(&self) -> ShardedConfig {
        ShardedConfig {
            policies: (0..self.shards)
                .map(|shard| self.policy_for(shard))
                .collect(),
            vnodes_per_shard: ShardRouter::DEFAULT_VNODES,
            seed: self.seed,
            max_virtual_ns: self.max_virtual_ns,
            clients: self.clients.clone(),
            rebalance: self.rebalance.clone(),
            plane_fault_plan: self.plane_fault_plan,
            telemetry: self.telemetry.clone(),
            gateway: self.gateway.clone(),
        }
    }
}

fn validate_batch(batch: &BatchConfig, field: &str) -> Result<(), String> {
    if batch.max_ops == 0 {
        return Err(format!(
            "{field}.max_ops: must be >= 1 (0 would never flush; 1 disables batching)"
        ));
    }
    Ok(())
}

fn validate_fault_plan(plan: &FaultPlan, field: &str) -> Result<(), String> {
    let probs = [
        ("drop_probability", plan.drop_probability),
        ("tamper_probability", plan.tamper_probability),
        ("duplicate_probability", plan.duplicate_probability),
        ("replay_probability", plan.replay_probability),
    ];
    for (name, p) in probs {
        if !(0.0..=1.0).contains(&p) {
            return Err(format!(
                "{field}.{name}: {p} is not a probability (must be within 0.0..=1.0)"
            ));
        }
    }
    if plan.replay_probability > 0.0 && plan.capture_limit == 0 {
        return Err(format!(
            "{field}.capture_limit: replay_probability > 0 needs a non-empty capture buffer"
        ));
    }
    Ok(())
}

fn validate_crash_plan(plan: &CrashPlan, replicas: usize, field: &str) -> Result<(), String> {
    for (i, entry) in plan.entries.iter().enumerate() {
        if entry.node.0 >= replicas as u64 {
            return Err(format!(
                "{field}.entries[{i}].node: node {} out of range (groups have {replicas} \
                 replicas, node ids are group-local 0..{replicas})",
                entry.node.0
            ));
        }
        if let Some(recover_at) = entry.recover_at_ns {
            if recover_at <= entry.crash_at_ns {
                return Err(format!(
                    "{field}.entries[{i}].recover_at_ns: {recover_at} is not after \
                     crash_at_ns = {} (a node cannot restart before it failed)",
                    entry.crash_at_ns
                ));
            }
        }
    }
    Ok(())
}

impl<R: StoreReplica> ShardedCluster<R> {
    /// Builds a sharded cluster from a [`DeploymentSpec`]. Every replica is
    /// constructed under its shard's resolved policy, so confidentiality,
    /// batching, cost profile and fault plan are all per-shard properties.
    /// The profile's `shielded` flag picks the protocol mode: Recipe, under
    /// the shard's confidentiality, where the cost model charges the
    /// authentication layer, and native where it does not — so the replicas
    /// never run a layer other than the one the virtual clock pays for.
    ///
    /// # Panics
    /// Panics when a shard's resolved policy batches and `R`'s protocol does
    /// not ([`recipe_protocols::Protocol::batches`]): its replicas would drop
    /// the batch config and run unbatched.
    pub fn build(spec: DeploymentSpec) -> Self {
        Self::build_with(spec, |shard, id, membership, policy| {
            assert!(
                R::PROTOCOL.batches() || !policy.batch.is_batching(),
                "shard {shard} batches, but {} does not: its batch config would be dropped; \
                 leave batching off for it or deploy a protocol that batches",
                R::PROTOCOL.display_name()
            );
            let mode = if policy.profile.shielded {
                let confidentiality = policy.confidentiality;
                ProtocolMode::Recipe { confidentiality }
            } else {
                ProtocolMode::Native
            };
            R::build(id, membership, mode, policy.batch)
        })
    }

    /// [`ShardedCluster::build`] with the replicas made by
    /// `make(shard, node_id, membership, policy)`.
    fn build_with(
        spec: DeploymentSpec,
        mut make: impl FnMut(usize, u64, Membership, &ResolvedShardPolicy) -> R,
    ) -> Self {
        let config = spec.to_sharded_config();
        let membership = spec.membership();
        let groups = config
            .policies
            .iter()
            .map(|policy| {
                let shard = policy.shard;
                // Replica ids repeat from group to group; the group index in
                // the membership is what keeps derived key material apart.
                (0..spec.replicas_per_shard as u64)
                    .map(|id| {
                        let membership = membership.clone().in_group(shard as u64);
                        make(shard, id, membership, policy)
                    })
                    .collect()
            })
            .collect();
        ShardedCluster::from_groups(groups, config)
    }
}

#[cfg(test)]
mod tests {
    use recipe_bft::dispatch;
    use recipe_protocols::{Protocol, ProtocolVisitor, RaftReplica};
    use recipe_sim::Replica;
    use recipe_workload::stable_key_hash;

    use super::*;

    fn raft(id: u64, membership: Membership, policy: &ResolvedShardPolicy) -> RaftReplica {
        RaftReplica::recipe(id, membership, policy.confidentiality)
    }

    #[test]
    fn every_replica_is_built_under_the_membership_of_its_own_group() {
        // Replica ids run from 0 in every group; the group index in the
        // membership is what a replica's shield scopes its cipher key and its
        // store key by.
        let spec = DeploymentSpec::new(3, 3).with_shard_policy(1, ShardPolicy::confidential());
        let mut built = Vec::new();
        ShardedCluster::<RaftReplica>::build_with(spec, |shard, id, membership, policy| {
            assert_eq!(membership.group(), shard as u64);
            built.push((shard, id));
            raft(id, membership, policy)
        });
        assert_eq!(built.len(), 9);
    }

    #[test]
    fn every_registered_protocol_builds_and_runs_sharded() {
        // `run_requests` takes any replica type the registry can name: a
        // buildable-but-unrunnable protocol would be an API lie. Each at the
        // fewest replicas it needs for f = 1 — PBFT at 3f + 1.
        struct Drive;
        impl ProtocolVisitor for Drive {
            type Output = u64;
            fn visit<R: StoreReplica>(self) -> u64 {
                let spec = DeploymentSpec::new(2, R::PROTOCOL.min_replicas(1))
                    .with_faults_tolerated(1)
                    .with_clients(4, 40);
                assert_eq!(spec.validate(), Ok(()));
                let mut cluster = ShardedCluster::<R>::build(spec);
                let stats = cluster.run_requests(|client, seq| {
                    let key = format!("k{client}-{seq}").into_bytes();
                    let value = vec![0u8; 32];
                    Some(recipe_core::Operation::Put { key, value }.into())
                });
                stats.total.committed
            }
        }
        for protocol in Protocol::ALL {
            assert_eq!(dispatch(protocol, Drive), 40, "{protocol:?}");
        }
    }

    #[test]
    #[should_panic(expected = "shard 1 batches, but R-ABD does not")]
    fn a_batch_config_at_a_protocol_that_does_not_batch_is_refused() {
        assert!(!Protocol::Abd.batches());
        let batched = ShardPolicy::new().with_batch(BatchConfig::of_ops(16));
        let spec = DeploymentSpec::new(2, 3).with_shard_policy(1, batched);
        ShardedCluster::<recipe_protocols::AbdReplica>::build(spec);
    }

    #[test]
    #[should_panic(expected = "R-AllConcur, which does not take part in transactions")]
    fn a_transaction_at_a_protocol_that_does_not_support_them_is_refused() {
        assert!(!Protocol::AllConcur.supports_txn());
        let spec = DeploymentSpec::new(2, 3).with_clients(2, 10);
        let mut cluster = ShardedCluster::<recipe_protocols::AllConcurReplica>::build(spec);
        cluster.run_requests(|client, seq| {
            let put = |i: u64| recipe_core::Operation::Put {
                key: format!("k{client}-{seq}-{i}").into_bytes(),
                value: vec![0u8; 8],
            };
            Some(recipe_core::Request::Txn((0..3).map(put).collect()))
        });
    }

    #[test]
    fn defaults_resolve_uniformly() {
        let spec = DeploymentSpec::new(4, 3);
        for shard in 0..4 {
            let policy = spec.policy_for(shard);
            assert_eq!(policy.shard, shard);
            assert_eq!(policy.confidentiality, ConfidentialityMode::Plaintext);
            assert!(!policy.profile.confidential);
            assert_eq!(policy.batch, BatchConfig::unbatched());
        }
        assert_eq!(spec.membership().n(), 3);
        assert_eq!(spec.membership().f(), 1);
        // The resolved config carries the same defaults.
        let config = spec.to_sharded_config();
        assert_eq!(config.policies.len(), 4);
        assert!(config.policies.iter().all(|p| !p.profile.confidential));
    }

    #[test]
    fn per_shard_overrides_compose_over_the_defaults() {
        let spec = DeploymentSpec::new(4, 3)
            .with_batching(BatchConfig::of_ops(4))
            .with_shard_policy(
                1,
                ShardPolicy::confidential().with_batch(BatchConfig::of_ops(16)),
            )
            .with_shard_policy(2, ShardPolicy::new().with_fault_plan(FaultPlan::lossy(0.1)));
        // Shard 0: pure defaults.
        let p0 = spec.policy_for(0);
        assert_eq!(p0.confidentiality, ConfidentialityMode::Plaintext);
        assert_eq!(p0.batch, BatchConfig::of_ops(4));
        // Shard 1: confidential + its own batching; the profile follows
        // the confidentiality.
        let p1 = spec.policy_for(1);
        assert_eq!(p1.confidentiality, ConfidentialityMode::Confidential);
        assert!(p1.profile.confidential);
        assert_eq!(p1.batch, BatchConfig::of_ops(16));
        // Shard 2: only the fault plan differs.
        let p2 = spec.policy_for(2);
        assert_eq!(p2.confidentiality, ConfidentialityMode::Plaintext);
        assert!(p2.fault_plan.drop_probability > 0.0);
        assert_eq!(p2.batch, BatchConfig::of_ops(4));
    }

    #[test]
    fn plaintext_policy_overrides_a_confidential_default() {
        let spec = DeploymentSpec::new(2, 3).confidential().with_shard_policy(
            1,
            ShardPolicy::new().with_confidentiality(ConfidentialityMode::Plaintext),
        );
        assert!(spec.policy_for(0).profile.confidential);
        assert!(!spec.policy_for(1).profile.confidential);
        let config = spec.to_sharded_config();
        let modes: Vec<_> = config.policies.iter().map(|p| p.confidentiality).collect();
        assert_eq!(
            modes,
            [
                ConfidentialityMode::Confidential,
                ConfidentialityMode::Plaintext
            ]
        );
    }

    #[test]
    fn each_group_is_configured_from_its_own_policy() {
        let crash_plan = CrashPlan::none().crash(recipe_net::NodeId(1), 5_000_000);
        let spec = DeploymentSpec::new(3, 5)
            .with_seed(7)
            .with_clients(10, 100)
            .with_faults_tolerated(2)
            .with_shard_policy(
                1,
                ShardPolicy::confidential()
                    .with_batch(BatchConfig::of_ops(8))
                    .with_crash_plan(crash_plan.clone()),
            )
            .with_shard_policy(
                2,
                ShardPolicy::new()
                    .with_profile(CostProfile::native_cft())
                    .with_fault_plan(FaultPlan::lossy(0.1)),
            );
        assert_eq!(spec.validate(), Ok(()));
        assert_eq!(spec.membership().f(), 2);
        let config = spec.to_sharded_config();
        assert_eq!(config.policies.len(), 3);
        assert_eq!(config.seed, 7);
        assert_eq!(config.clients.clients, 10);
        let cluster = ShardedCluster::<RaftReplica>::build(spec);
        for (shard, policy) in config.policies.iter().enumerate() {
            assert_eq!(policy.shard, shard);
            let group = cluster.shard(shard).config();
            assert_eq!(group.profiles, vec![policy.profile.clone(); 5]);
            assert_eq!(group.fault_plan, policy.fault_plan);
            assert_eq!(group.crash_plan, policy.crash_plan);
            let derived = stable_key_hash(format!("shard-seed:{shard}").as_bytes());
            assert_eq!(group.seed, 7u64.wrapping_add(derived));
            assert_eq!(group.max_virtual_ns, config.max_virtual_ns);
            assert_eq!(cluster.confidentiality_of(shard), policy.confidentiality);
        }
        // Each override reached its own group and no other.
        let [p0, p1, p2] = &config.policies[..] else {
            unreachable!("three shards")
        };
        assert!(!p0.profile.confidential && p0.profile.shielded);
        assert!(p0.crash_plan.entries.is_empty());
        assert_eq!(p0.fault_plan, FaultPlan::benign());
        assert!(p1.profile.confidential);
        assert_eq!(p1.batch, BatchConfig::of_ops(8));
        assert_eq!(p1.crash_plan, crash_plan);
        assert!(!p2.profile.shielded);
        assert!(p2.fault_plan.drop_probability > 0.0);
    }

    #[test]
    fn counts_the_node_id_space_has_no_room_for_are_refused() {
        let refused = |spec: DeploymentSpec| spec.validate().unwrap_err();
        assert!(DeploymentSpec::new(MAX_SHARDS, 3).validate().is_ok());
        assert!(refused(DeploymentSpec::new(MAX_SHARDS + 1, 3)).starts_with("shards:"));
        let crowd = DeploymentSpec::new(2, 3).with_clients(MAX_CLIENTS + 1, 10);
        assert!(refused(crowd).starts_with("clients.clients:"));
        let wide = DeploymentSpec::new(2, MAX_REPLICAS_PER_SHARD + 1);
        assert!(refused(wide).starts_with("replicas_per_shard:"));
    }

    #[test]
    fn the_profile_picks_the_protocol_mode() {
        let name = |spec: DeploymentSpec| {
            let cluster = ShardedCluster::<RaftReplica>::build(spec);
            let group = cluster.shard(0);
            let names: Vec<_> = group
                .node_ids()
                .iter()
                .map(|&id| group.replica(id).protocol_name())
                .collect();
            assert!(names.windows(2).all(|pair| pair[0] == pair[1]), "{names:?}");
            names[0]
        };
        assert_eq!(name(DeploymentSpec::new(1, 3)), "R-Raft");
        let native = DeploymentSpec::new(1, 3).with_profile(CostProfile::native_cft());
        assert_eq!(name(native), "Raft");
    }

    #[test]
    fn a_confidential_shard_on_an_unshielded_profile_is_refused() {
        for profile in [CostProfile::native_cft(), CostProfile::pbft_baseline()] {
            let spec = DeploymentSpec::new(2, 4).with_profile(profile.clone());
            assert_eq!(spec.validate(), Ok(()));
            let by_policy = spec
                .clone()
                .with_shard_policy(1, ShardPolicy::confidential());
            let err = by_policy.validate().unwrap_err();
            assert!(err.starts_with("confidentiality: shard 1 "), "{err}");
            let by_default = spec.confidential();
            assert!(by_default.validate().unwrap_err().contains("shard 0"));
        }
        // A shielded profile under one shard's policy lifts the refusal there.
        let shielded = ShardPolicy::confidential().with_profile(CostProfile::recipe());
        let spec = DeploymentSpec::new(2, 3)
            .with_profile(CostProfile::native_cft())
            .with_shard_policy(0, shielded);
        assert_eq!(spec.validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_policies_are_rejected() {
        let _ = DeploymentSpec::new(2, 3).with_shard_policy(2, ShardPolicy::confidential());
    }

    #[test]
    fn build_constructs_replicas_under_the_resolved_policies() {
        let spec = DeploymentSpec::new(2, 3)
            .with_clients(4, 40)
            .with_shard_policy(1, ShardPolicy::confidential());
        let mut seen = Vec::new();
        let cluster =
            ShardedCluster::<RaftReplica>::build_with(spec, |shard, id, membership, policy| {
                seen.push((shard, id, policy.confidentiality));
                raft(id, membership, policy)
            });
        assert_eq!(cluster.shards(), 2);
        assert_eq!(seen.len(), 6);
        assert!(seen
            .iter()
            .filter(|(shard, _, _)| *shard == 0)
            .all(|(_, _, mode)| !mode.is_confidential()));
        assert!(seen
            .iter()
            .filter(|(shard, _, _)| *shard == 1)
            .all(|(_, _, mode)| mode.is_confidential()));
        assert_eq!(
            cluster.confidentiality_of(0),
            ConfidentialityMode::Plaintext
        );
        assert_eq!(
            cluster.confidentiality_of(1),
            ConfidentialityMode::Confidential
        );
    }
}
