//! The multi-group simulation driver, and the one client loop of the tree.
//!
//! [`ShardedCluster`] owns N independent replica groups — each a
//! [`ReplicaGroup`] with its own protocol instances, fault plan and cost
//! profiles — and drives one global closed-loop client population over all of
//! them on a single virtual clock:
//!
//! * one [`Calendar`] holds every pending event of the run, the driver's and
//!   every group's, and pops them in one order, so no group runs ahead of
//!   another and same-instant events run in one fixed order;
//! * every operation is routed by key through the [`ShardRouter`], so a
//!   client's consecutive operations hop between shards exactly as they would
//!   across a partitioned production deployment;
//! * a group has no clients of its own: each reply reaches the driver through
//!   one completion buffer, and the driver owns commit accounting — every
//!   commit counted once, in the run's books and its shard's, latencies
//!   included — and schedules each client's next issue, possibly on a
//!   different shard. A group counts only what it alone sees: what the
//!   network did with its frames, and its clock.
//!
//! A single replica group is the one-shard case: the paper's single-group
//! figures, the fault tests and the examples run one as
//! `DeploymentSpec::new(1, n)`, and its resolved cost profile's `shielded`
//! flag picks whether its replicas run Recipe-transformed or native.
//!
//! Replica groups exchange no protocol messages with each other; what crosses
//! shards — 2PC frames ([`crate::txn`]) and migration chunks
//! ([`crate::migration`]) — is carried by the driver on that same clock, which
//! is also what makes the aggregate figures in [`ShardedRunStats`] meaningful.

use recipe_core::{ConfidentialityMode, FramePool};
use recipe_gateway::{GatewayConfig, GatewayStats};
use recipe_sim::{
    Calendar, CalendarCounts, Completion, GroupEvent, Key, Replica, ReplicaGroup, RunStats,
    Scheduler, SimConfig,
};
use recipe_telemetry::{MetricsRegistry, ShardTelemetry, TelemetryConfig, TelemetryReport};
use recipe_workload::stable_key_hash;

use crate::driver::Event;
use crate::migration::{MigrationStats, RebalanceConfig};
use crate::router::ShardRouter;
use crate::spec::ResolvedShardPolicy;
use crate::txn::{TxnConfig, TxnStats};

/// The global closed-loop client population.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ClientModel {
    /// Number of concurrent closed-loop clients.
    pub clients: usize,
    /// Total operations to commit before the run ends.
    pub total_operations: usize,
}

impl Default for ClientModel {
    fn default() -> Self {
        ClientModel {
            clients: 32,
            total_operations: 2_000,
        }
    }
}

/// The cluster's resolved description of a deployment: what
/// [`crate::DeploymentSpec::to_sharded_config`] makes of a spec, and the only
/// way to get one — a cluster is built from a spec, never from a
/// `ShardedConfig` assembled by hand.
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Each shard's resolved policy, in shard order: its replicas are built
    /// under it and its group's [`SimConfig`] is made from it.
    pub policies: Vec<ResolvedShardPolicy>,
    /// Virtual nodes per shard on the consistent-hash ring.
    pub vnodes_per_shard: usize,
    /// The run's seed: the driver's, the gateway's and the 2PC
    /// coordinator's, and — mixed with the shard index — each group's, so
    /// fault streams are independent.
    pub seed: u64,
    /// Hard cap on virtual time (nanoseconds), the driver's and every
    /// group's.
    pub max_virtual_ns: u64,
    /// The global client population the driver runs over every shard.
    pub clients: ClientModel,
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
    /// The configuration of a group of `replicas` built under `policy`.
    fn group_config(&self, policy: &ResolvedShardPolicy, replicas: usize) -> SimConfig {
        // Distinct, deterministic fault/randomness stream per shard.
        let shard_seed = format!("shard-seed:{}", policy.shard);
        SimConfig {
            seed: self
                .seed
                .wrapping_add(stable_key_hash(shard_seed.as_bytes())),
            profiles: vec![policy.profile.clone(); replicas],
            fault_plan: policy.fault_plan,
            crash_plan: policy.crash_plan.clone(),
            max_virtual_ns: self.max_virtual_ns,
        }
    }
}

/// Aggregated results of a sharded run.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ShardedRunStats {
    /// Aggregate figures on the global clock: total commits, total throughput,
    /// latency percentiles over every completion, summed message counters.
    pub total: RunStats,
    /// Per-shard statistics of this run: each shard's commits, counted by
    /// the driver like the total's, and the messages its group counted over
    /// the run; its `elapsed_secs` runs from virtual time 0 to the shard's
    /// last event.
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
    /// What the run's calendar served: every event the run popped, the
    /// driver's and every group's, and how many were retransmission timers
    /// that fired for nothing.
    pub calendar: CalendarCounts,
    /// What the groups' frame pools lent over the run: frame buffers and
    /// read replies' values.
    pub frames: PoolCounts,
    /// What the replica stores' entry-buffer pools lent over the run.
    pub entries: PoolCounts,
}

/// What one kind of buffer pool lent over a run, summed over its owners.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PoolCounts {
    /// Buffers lent, spares and new ones alike.
    pub takes: u64,
    /// Buffers the pools had to allocate because no spare fitted.
    pub misses: u64,
}

impl PoolCounts {
    /// Adds what `pool` counted over its life.
    pub(crate) fn add(&mut self, pool: &FramePool) {
        self.takes += pool.takes();
        self.misses += pool.allocated();
    }

    /// What was counted after `start`.
    pub(crate) fn since(self, start: PoolCounts) -> PoolCounts {
        PoolCounts {
            takes: self.takes - start.takes,
            misses: self.misses - start.misses,
        }
    }
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

/// The request driver's commit books for one run, handed to
/// [`ShardedCluster::finalize`] when it ends: every commit is counted once,
/// in the run's books and in those of the shard that served it.
pub(crate) struct Tallies {
    pub(crate) total: Books,
    pub(crate) per_shard: Vec<Books>,
}

/// Operations committed, those issued as writes among them, and the
/// latency of every request they belong to, in completion order.
#[derive(Clone, Default)]
pub(crate) struct Books {
    committed: u64,
    writes: u64,
    pub(crate) latencies_ns: Vec<u64>,
}

impl Books {
    /// Counts one committed operation.
    pub(crate) fn count(&mut self, is_write: bool) {
        self.committed += 1;
        self.writes += u64::from(is_write);
    }

    pub(crate) fn committed(&self) -> u64 {
        self.committed
    }

    /// The books' figures at virtual time `elapsed_ns`, counted from 0.
    fn stats(mut self, elapsed_ns: u64) -> RunStats {
        let elapsed_secs = elapsed_ns.max(1) as f64 / 1e9;
        let mut stats = RunStats {
            committed: self.committed,
            committed_reads: self.committed - self.writes,
            committed_writes: self.writes,
            elapsed_secs,
            throughput_ops: self.committed as f64 / elapsed_secs,
            ..RunStats::default()
        };
        stats.set_latencies(&mut self.latencies_ns);
        stats
    }
}

/// N independent replica groups behind one consistent-hash router, driven on a
/// single virtual clock.
pub struct ShardedCluster<R: Replica> {
    pub(crate) router: ShardRouter,
    pub(crate) shards: Vec<ReplicaGroup<R>>,
    /// The groups' pending events, and the driver's during a run.
    pub(crate) calendar: Calendar<Event>,
    /// Where a group's replies go, emptied after each of its events.
    pub(crate) completions: Vec<Completion>,
    pub(crate) config: ShardedConfig,
    /// Gateway counters of the last finished run, kept so
    /// [`ShardedCluster::take_telemetry_report`] can export them as
    /// tenant-labelled metrics after the driver returns.
    pub(crate) last_gateway_stats: Option<GatewayStats>,
}

impl<R: Replica> ShardedCluster<R> {
    /// Creates a sharded cluster from the replicas of each shard, in the
    /// order of `config.policies` ([`ShardedCluster::build`]'s last step).
    pub(crate) fn from_groups(groups: Vec<Vec<R>>, config: ShardedConfig) -> Self {
        let router = ShardRouter::new(config.policies.len(), config.vnodes_per_shard);
        let shards = groups
            .into_iter()
            .zip(&config.policies)
            .map(|(replicas, policy)| {
                let group_config = config.group_config(policy, replicas.len());
                let mut group = ReplicaGroup::new(replicas, group_config);
                if config.telemetry.enabled {
                    let telemetry = ShardTelemetry::new(policy.shard as u32, &config.telemetry);
                    group.set_telemetry(telemetry);
                }
                group
            })
            .collect();
        ShardedCluster {
            router,
            shards,
            calendar: Calendar::default(),
            completions: Vec::new(),
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
    /// `crate::migration`.
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
        self.config.policies[shard].confidentiality
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

    /// Immutable access to one shard's group (post-run assertions).
    pub fn shard(&self, shard: usize) -> &ReplicaGroup<R> {
        &self.shards[shard]
    }

    /// Mutable access to one shard's group (test setup).
    pub fn shard_mut(&mut self, shard: usize) -> &mut ReplicaGroup<R> {
        &mut self.shards[shard]
    }

    /// One shard's group, and a scheduler onto the calendar in its place.
    pub(crate) fn lend(&mut self, shard: usize) -> (&mut ReplicaGroup<R>, Scheduler<'_, Event>) {
        let sched = Scheduler::new(&mut self.calendar, shard, &mut self.completions);
        (&mut self.shards[shard], sched)
    }

    /// Runs a group's event that came off the calendar under `key`, leaving
    /// its replies in `completions`, and returns the group's shard.
    pub(crate) fn handle(&mut self, key: Key, event: GroupEvent) -> usize {
        let Some(shard) = key.owner.shard_index() else {
            unreachable!("only a group schedules a group's event");
        };
        let (group, mut sched) = self.lend(shard);
        group.handle(key.at, event, &mut sched);
        shard
    }

    /// Settles in-flight work: processes remaining shard events for another
    /// `extra_ns` of virtual time past the current frontier *without* issuing
    /// new client operations, so followers catch up on replicated state
    /// (heartbeats keep firing, outstanding requests may still complete).
    /// Call after [`ShardedCluster::run_requests`] and before inspecting
    /// replica state.
    pub fn quiesce(&mut self, extra_ns: u64) {
        let frontier = self.shards.iter().map(ReplicaGroup::now_ns).max();
        let cap = self.config.max_virtual_ns;
        let deadline = frontier.unwrap_or(0).saturating_add(extra_ns).min(cap);
        while self.calendar.peek().is_some_and(|key| key.at <= deadline) {
            // Driver events do not outlive a run: only groups' are left.
            let Some((key, Event::Shard(event))) = self.calendar.pop() else {
                unreachable!("a driver event outlived its run");
            };
            let shard = self.handle(key, event);
            // Late completions no longer drive the closed loop, and no
            // client sees their values.
            for completion in self.completions.drain(..) {
                if let Some(value) = completion.value {
                    self.shards[shard].give_frame(value);
                }
            }
        }
    }

    /// Closes the run's books on the global clock `global_now`: each
    /// shard's commits and latencies from the driver's `tallies`, on the
    /// shard's own clock, with the messages its group counted, and the
    /// calendar's counts.
    pub(crate) fn finalize(&mut self, global_now: u64, tallies: Tallies) -> ShardedRunStats {
        let per_shard: Vec<RunStats> = self
            .shards
            .iter_mut()
            .zip(tallies.per_shard)
            .map(|(group, books)| {
                let messages = group.take_message_counts();
                RunStats {
                    messages_delivered: messages.delivered,
                    messages_dropped: messages.dropped,
                    messages_tampered: messages.tampered,
                    messages_replayed: messages.replayed,
                    ops_delivered: messages.ops_delivered,
                    ..books.stats(group.now_ns())
                }
            })
            .collect();
        let mut total = tallies.total.stats(global_now);
        for stats in &per_shard {
            total.messages_delivered += stats.messages_delivered;
            total.messages_dropped += stats.messages_dropped;
            total.messages_tampered += stats.messages_tampered;
            total.messages_replayed += stats.messages_replayed;
            total.ops_delivered += stats.ops_delivered;
        }
        let imbalance = if total.committed == 0 {
            1.0
        } else {
            let busiest = per_shard.iter().map(|s| s.committed).max().unwrap_or(0);
            let mean = total.committed as f64 / per_shard.len() as f64;
            busiest as f64 / mean
        };
        ShardedRunStats {
            total,
            per_shard,
            imbalance,
            calendar: self.calendar.take_counts(),
            ..ShardedRunStats::default()
        }
    }
}
