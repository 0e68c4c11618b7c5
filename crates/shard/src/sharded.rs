//! The multi-group simulation driver.
//!
//! [`ShardedCluster`] owns N independent replica groups — each a full
//! [`SimCluster`] with its own protocol instances, fault plan and cost
//! profiles — and drives one global closed-loop client population over all of
//! them on a single interleaved virtual clock:
//!
//! * the driver always advances whichever event (its own client issues or any
//!   shard's next internal event) is earliest in virtual time, so per-shard
//!   clocks never run ahead of the global frontier;
//! * every operation is routed by key through the [`ShardRouter`], so a
//!   client's consecutive operations hop between shards exactly as they would
//!   across a partitioned production deployment;
//! * the member clusters run in external-client mode
//!   ([`SimCluster::set_external_clients`]): completions flow back to the
//!   driver, which owns latency accounting and schedules each client's next
//!   issue — possibly on a different shard.
//!
//! Replica groups exchange no protocol messages with each other; what crosses
//! shards — 2PC frames ([`crate::txn`]) and migration chunks
//! ([`crate::migration`]) — is carried by the driver on that same clock, which
//! is also what makes the aggregate figures in [`ShardedRunStats`] meaningful.

use recipe_core::ConfidentialityMode;
use recipe_gateway::{GatewayConfig, GatewayStats};
use recipe_net::{CrashPlan, FaultPlan, NodeId};
use recipe_sim::{CostProfile, Replica, RunStats, SimCluster, SimConfig, StepOutcome};
use recipe_telemetry::{MetricsRegistry, ShardTelemetry, TelemetryConfig, TelemetryReport};
use recipe_workload::stable_key_hash;

use crate::migration::{MigrationStats, RebalanceConfig};
use crate::router::ShardRouter;
use crate::txn::{TxnConfig, TxnStats};

/// Configuration of a sharded deployment.
///
/// This is the *lowered* form a [`crate::DeploymentSpec`] resolves into; new
/// code should build deployments through the spec rather than assembling a
/// `ShardedConfig` by hand.
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Number of independent replica groups.
    pub shards: usize,
    /// Virtual nodes per shard on the consistent-hash ring.
    pub vnodes_per_shard: usize,
    /// Template configuration for every shard: cost model, per-replica
    /// profiles, fault plan, the *global* client population, virtual-time cap
    /// and retry timeout. Each shard derives its RNG seed from `base.seed` and
    /// its shard index so fault streams are independent.
    pub base: SimConfig,
    /// Each shard's fault plan (e.g. a lossy network on one shard only).
    pub fault_plans: Vec<FaultPlan>,
    /// Each shard's crash schedule (deterministic crash/recover events on the
    /// virtual clock; empty by default — crash-free).
    pub crash_plans: Vec<CrashPlan>,
    /// Each shard's cost profiles, one per replica (heterogeneous hardware
    /// per group).
    pub profiles: Vec<Vec<CostProfile>>,
    /// Each shard's confidentiality policy, resolved by the deployment spec;
    /// the migration controller's per-move transfer AEAD follows it.
    pub confidentiality: Vec<ConfidentialityMode>,
    /// Online-rebalancing controller knobs (disabled by default; only
    /// request drivers with the controller enabled consult them).
    pub rebalance: RebalanceConfig,
    /// Transaction-coordinator knobs (retransmission timeout, abort backoff,
    /// 2PC fault plan).
    pub txn: TxnConfig,
    /// Telemetry gating: off by default, in which case the run is
    /// bit-identical to a build without the telemetry subsystem. When
    /// enabled, each shard records spans, metric charges and cost
    /// attribution retrievable via
    /// [`ShardedCluster::take_telemetry_report`].
    pub telemetry: TelemetryConfig,
    /// Tenant-gateway gating: off by default, in which case the driver
    /// builds no gateway and runs are bit-identical to a build without the
    /// gateway subsystem. When enabled, every request passes the gateway
    /// (auth, admission, key scoping) before the router.
    pub gateway: GatewayConfig,
}

impl ShardedConfig {
    /// The effective simulator configuration for shard `shard`.
    pub(crate) fn config_for_shard(&self, shard: usize) -> SimConfig {
        let mut config = self.base.clone();
        // Distinct, deterministic fault/randomness stream per shard.
        config.seed = self
            .base
            .seed
            .wrapping_add(stable_key_hash(format!("shard-seed:{shard}").as_bytes()));
        config.fault_plan = self.fault_plans[shard];
        config.crash_plan = self.crash_plans[shard].clone();
        config.profiles = self.profiles[shard].clone();
        config
    }
}

/// Aggregated results of a sharded run.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ShardedRunStats {
    /// Aggregate figures on the global clock: total commits, total throughput,
    /// latency percentiles over every completion, summed message counters.
    pub total: RunStats,
    /// Per-shard statistics (each on that shard's local activity window).
    pub per_shard: Vec<RunStats>,
    /// Load-imbalance factor: busiest shard's commits divided by the mean
    /// commits per shard (1.0 = perfectly balanced; meaningful only when
    /// something committed).
    pub imbalance: f64,
    /// Online-rebalancing counters (all zero unless the deployment sets
    /// [`RebalanceConfig::enabled`]).
    pub migration: MigrationStats,
    /// Transaction-coordinator counters (all zero unless the workload issued
    /// [`recipe_core::Request::Txn`] requests).
    pub txn: TxnStats,
    /// Commits bucketed by completion time (throughput timeline). Populated
    /// when [`RebalanceConfig::timeline_bucket_ns`] is non-zero.
    pub timeline: Vec<TimelineBucket>,
    /// Per-tenant gateway counters (admitted/rejected/throttled/committed;
    /// empty unless the deployment enables the tenant gateway).
    pub gateway: GatewayStats,
}

/// One bucket of the throughput timeline: activity whose completion landed in
/// `(end_ns - bucket_width, end_ns]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TimelineBucket {
    /// End of the bucket's virtual-time window, nanoseconds.
    pub end_ns: u64,
    /// Commits completed inside the window.
    pub committed: u64,
    /// Transactions aborted inside the window (2PC aborts resolve here at
    /// their coordinator-side finish time).
    pub aborted: u64,
    /// Migration cutovers that landed inside the window.
    pub migrations: u64,
}

/// What the request driver counts while a run is in flight, handed to
/// [`ShardedCluster::finalize`] when it ends.
#[derive(Default)]
pub(crate) struct Tallies {
    pub(crate) committed: u64,
    pub(crate) committed_reads: u64,
    pub(crate) committed_writes: u64,
    /// Latency of every completed request, in completion order.
    pub(crate) latencies_ns: Vec<u64>,
    /// The same latencies, by the shard (or shards) that served the request.
    pub(crate) shard_latencies: Vec<Vec<u64>>,
    /// `(ops, reads, writes)` committed by transactions, per shard.
    pub(crate) txn_shard_ops: Vec<(u64, u64, u64)>,
}

impl Tallies {
    pub(crate) fn new(shards: usize) -> Self {
        Tallies {
            shard_latencies: vec![Vec::new(); shards],
            txn_shard_ops: vec![(0, 0, 0); shards],
            ..Tallies::default()
        }
    }
}

/// N independent replica groups behind one consistent-hash router, driven on a
/// single interleaved virtual clock.
pub struct ShardedCluster<R: Replica> {
    pub(crate) router: ShardRouter,
    pub(crate) shards: Vec<SimCluster<R>>,
    pub(crate) config: ShardedConfig,
    /// Gateway counters of the last finished run, kept so
    /// [`ShardedCluster::take_telemetry_report`] can export them as
    /// tenant-labelled metrics after the driver returns.
    pub(crate) last_gateway_stats: Option<GatewayStats>,
}

impl<R: Replica> ShardedCluster<R> {
    /// Creates a sharded cluster from one replica group per shard plus the
    /// lowered configuration ([`ShardedCluster::build`]'s last step).
    ///
    /// # Panics
    /// Panics if `groups.len() != config.shards`, if any override vector has
    /// the wrong length, or if a group is empty.
    pub(crate) fn from_groups(groups: Vec<Vec<R>>, config: ShardedConfig) -> Self {
        assert_eq!(groups.len(), config.shards, "one replica group per shard");
        let shards = config.shards;
        assert_eq!(config.fault_plans.len(), shards, "one fault plan per shard");
        assert_eq!(config.crash_plans.len(), shards, "one crash plan per shard");
        assert_eq!(config.profiles.len(), shards, "one profile set per shard");
        for (shard, (profiles, group)) in config.profiles.iter().zip(&groups).enumerate() {
            assert_eq!(
                profiles.len(),
                group.len(),
                "shard {shard}: one cost profile per replica"
            );
        }
        assert_eq!(config.confidentiality.len(), shards, "one policy per shard");
        let router = ShardRouter::new(config.shards, config.vnodes_per_shard);
        let shards = groups
            .into_iter()
            .enumerate()
            .map(|(shard, replicas)| {
                assert!(!replicas.is_empty(), "shard {shard} has no replicas");
                let mut cluster = SimCluster::new(replicas, config.config_for_shard(shard));
                cluster.set_external_clients(true);
                if config.telemetry.enabled {
                    cluster.set_telemetry(ShardTelemetry::new(shard as u32, &config.telemetry));
                }
                cluster
            })
            .collect();
        ShardedCluster {
            router,
            shards,
            config,
            last_gateway_stats: None,
        }
    }

    /// The key router.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Mutable access to the router: pre-applying recorded moves before a run
    /// (replay testing against a final placement) or test setup. Mid-run
    /// mutation is the migration controller's job — see
    /// [`crate::migration`].
    pub fn router_mut(&mut self) -> &mut ShardRouter {
        &mut self.router
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The confidentiality policy of one shard, as the deployment spec
    /// resolved it.
    pub fn confidentiality_of(&self, shard: usize) -> ConfidentialityMode {
        self.config.confidentiality[shard]
    }

    /// Drains every shard's telemetry into one merged [`TelemetryReport`]:
    /// protocol counters are scraped off the replicas, each shard's charges
    /// become registry samples, its attribution row gets `Idle` filled
    /// against `replicas × elapsed`, and all tracers' spans concatenate in
    /// shard order. Returns `None` when the deployment ran with telemetry
    /// disabled. Call once, after the run; the shards' telemetry state is
    /// consumed.
    pub fn take_telemetry_report(&mut self) -> Option<TelemetryReport> {
        if !self.config.telemetry.enabled {
            return None;
        }
        let mut report = TelemetryReport::default();
        let mut registry = MetricsRegistry::default();
        for shard in &mut self.shards {
            shard.scrape_protocol_counters();
            let replicas = shard.replica_count() as u32;
            let elapsed_ns = shard.now_ns();
            let Some(mut telemetry) = shard.take_telemetry() else {
                continue;
            };
            report
                .attribution
                .push(telemetry.export(replicas, elapsed_ns, &mut registry));
            report.spans_dropped += telemetry.tracer().dropped();
            report
                .spans
                .append(&mut telemetry.tracer_mut().take_spans());
        }
        // Gateway decisions surface per tenant: the admission counters of
        // the last run, labelled `tenant=<name>` (the front door has no
        // shard, so these ride the merged registry, not a shard's export).
        if let Some(gateway) = &self.last_gateway_stats {
            for t in &gateway.tenants {
                for (name, value) in [
                    ("gateway.admitted", t.admitted),
                    ("gateway.rejected", t.rejected),
                    ("gateway.throttled", t.throttled),
                    ("gateway.committed_ops", t.committed_ops),
                ] {
                    registry.add_counter(name, &[("tenant", t.tenant.clone())], value);
                }
            }
        }
        report.metrics = registry.snapshot();
        Some(report)
    }

    /// Immutable access to one shard's cluster (post-run assertions).
    pub fn shard(&self, shard: usize) -> &SimCluster<R> {
        &self.shards[shard]
    }

    /// Mutable access to one shard's cluster (test setup).
    pub fn shard_mut(&mut self, shard: usize) -> &mut SimCluster<R> {
        &mut self.shards[shard]
    }

    /// Schedules a crash of `node` in `shard` at virtual time `at_ns`.
    pub fn crash_at(&mut self, shard: usize, node: NodeId, at_ns: u64) {
        self.shards[shard].crash_at(node, at_ns);
    }

    /// Schedules a rollback-protected restart of `node` in `shard` at virtual
    /// time `at_ns` (see [`SimCluster::recover_at`]).
    pub fn recover_at(&mut self, shard: usize, node: NodeId, at_ns: u64) {
        self.shards[shard].recover_at(node, at_ns);
    }

    /// Settles in-flight work: processes remaining shard events for another
    /// `extra_ns` of virtual time past the current frontier *without* issuing
    /// new client operations, so followers catch up on replicated state
    /// (heartbeats keep firing, outstanding requests may still complete).
    /// Call after [`ShardedCluster::run_requests`] and before inspecting
    /// replica state.
    pub fn quiesce(&mut self, extra_ns: u64) {
        let frontier = self
            .shards
            .iter()
            .map(|shard| shard.now_ns())
            .max()
            .unwrap_or(0);
        let deadline = frontier.saturating_add(extra_ns);
        loop {
            let next = self
                .shards
                .iter()
                .enumerate()
                .filter_map(|(shard, cluster)| cluster.peek_next_at().map(|at| (at, shard)))
                .min();
            let Some((at, shard)) = next else { break };
            if at > deadline {
                break;
            }
            match self.shards[shard].step() {
                StepOutcome::Idle | StepOutcome::CapReached => break,
                _ => {}
            }
            // Late completions no longer drive the closed loop.
            self.shards[shard].drain_completions();
        }
    }

    /// Folds the driver's tallies and every shard's own counters into the
    /// run's statistics, on the global clock `global_now`.
    pub(crate) fn finalize(&mut self, global_now: u64, tallies: Tallies) -> ShardedRunStats {
        let Tallies {
            committed,
            committed_reads,
            committed_writes,
            mut latencies_ns,
            shard_latencies,
            txn_shard_ops,
        } = tallies;
        let mut per_shard: Vec<RunStats> = self.shards.iter_mut().map(|s| s.finish()).collect();
        // Transactional commits apply below the per-shard protocol (the
        // coordinator installs them directly), so the groups' own counters
        // never see them; fold the driver-side `(ops, reads, writes)` tallies
        // back in so per-shard figures and the imbalance factor reflect the
        // full served load.
        for (stats, (ops, reads, writes)) in per_shard.iter_mut().zip(txn_shard_ops) {
            stats.committed += ops;
            stats.committed_reads += reads;
            stats.committed_writes += writes;
        }
        // The driver owns latency accounting in external-client mode; fold
        // each completion's latency back onto the shard that served it, so
        // per-shard figures expose policy costs (a confidential shard's mean
        // service latency is visibly higher than a plaintext one's).
        for (stats, mut latencies) in per_shard.iter_mut().zip(shard_latencies) {
            let summary = recipe_sim::latency_percentiles(&mut latencies);
            stats.mean_latency_us = summary.mean_us;
            stats.p50_latency_us = summary.p50_us;
            stats.p90_latency_us = summary.p90_us;
            stats.p99_latency_us = summary.p99_us;
            stats.p999_latency_us = summary.p999_us;
        }
        let elapsed_secs = global_now.max(1) as f64 / 1e9;
        let mut total = RunStats {
            committed,
            committed_reads,
            committed_writes,
            elapsed_secs,
            throughput_ops: committed as f64 / elapsed_secs,
            ..RunStats::default()
        };
        for stats in &per_shard {
            total.messages_delivered += stats.messages_delivered;
            total.messages_dropped += stats.messages_dropped;
            total.messages_tampered += stats.messages_tampered;
            total.messages_replayed += stats.messages_replayed;
            total.ops_delivered += stats.ops_delivered;
        }
        let summary = recipe_sim::latency_percentiles(&mut latencies_ns);
        total.mean_latency_us = summary.mean_us;
        total.p50_latency_us = summary.p50_us;
        total.p90_latency_us = summary.p90_us;
        total.p99_latency_us = summary.p99_us;
        total.p999_latency_us = summary.p999_us;
        let imbalance = if committed == 0 {
            1.0
        } else {
            let busiest = per_shard.iter().map(|s| s.committed).max().unwrap_or(0);
            let mean = committed as f64 / per_shard.len() as f64;
            busiest as f64 / mean
        };
        ShardedRunStats {
            total,
            per_shard,
            imbalance,
            migration: MigrationStats::default(),
            txn: TxnStats::default(),
            timeline: Vec::new(),
            gateway: GatewayStats::default(),
        }
    }
}
