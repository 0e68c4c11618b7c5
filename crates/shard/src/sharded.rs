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

use std::collections::BTreeMap;

use recipe_core::{ConfidentialityMode, FramePool};
use recipe_gateway::{GatewayConfig, GatewayStats};
use recipe_net::FaultPlan;
use recipe_protocols::StoreReplica;
use recipe_sim::{
    Calendar, CalendarCounts, Completion, GroupEvent, Key, NodeBooks, Replica, ReplicaGroup,
    RunStats, Scheduler, SimConfig,
};
use recipe_telemetry::{MetricsRegistry, ShardTelemetry, TelemetryConfig, TelemetryReport};
use recipe_workload::stable_key_hash;

use crate::driver::Event;
use crate::migration::{MigrationStats, RebalanceConfig};
use crate::router::ShardRouter;
use crate::spec::ResolvedShardPolicy;
use crate::txn::TxnStats;

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
    /// Virtual nodes per shard on the consistent-hash ring: always the
    /// router's default (256), for a caller that builds a ring of its own.
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
    /// The adversarial plan of the plane between groups, which 2PC legs
    /// and migration chunks cross.
    pub(crate) plane_fault_plan: FaultPlan,
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
/// [`ShardedCluster::finalize`] when it ends. Every commit is counted once,
/// in the run's tally and in that of the shard that served it. Every
/// request's latency is kept once per shard the request touched
/// ([`Books::sample`]); the one of its first shard also stands for the run.
/// A latency is kept as a count in an ordered map, one key per distinct
/// `(latency, shard, first)`, so the books grow with the distinct latencies
/// a run produces, not with its requests: the simulator's latencies are
/// sums of a few fixed model costs and repeat. [`Books::latency_figures`]
/// walks the map once in ascending order and reads the run's and every
/// shard's figures from that walk by counting.
pub(crate) struct Books {
    total: Tally,
    /// Each shard's tally, and its [`received`] when the run began.
    per_shard: Vec<(Tally, (u64, u64))>,
    /// `latency << (SHARD_BITS + 1) | shard << 1 | first`, each with the
    /// number of requests that produced it.
    latencies: BTreeMap<u64, u32>,
}

/// Bits of a latency entry that name its shard.
const SHARD_BITS: u32 = 16;

/// Operations committed, those issued as writes among them, and the
/// requests they belong to with the sum of their latencies.
#[derive(Clone, Copy, Default)]
struct Tally {
    committed: u64,
    writes: u64,
    requests: usize,
    latency_sum_ns: u64,
}

/// The frames and protocol ops `group`'s replicas received over its life.
fn received<R: Replica>(group: &ReplicaGroup<R>) -> (u64, u64) {
    let add =
        |(frames, ops), node: &NodeBooks| (frames + node.frames_received, ops + node.ops_received);
    group.books().iter().fold((0, 0), add)
}

impl Tally {
    /// The tally's figures at virtual time `elapsed_ns`, counted from 0,
    /// with its latencies' `ranked_ns` ([`RunStats::set_latency_figures`]).
    fn stats(self, elapsed_ns: u64, ranked_ns: [u64; 4]) -> RunStats {
        let elapsed_secs = elapsed_ns.max(1) as f64 / 1e9;
        let mut stats = RunStats {
            committed: self.committed,
            committed_reads: self.committed - self.writes,
            committed_writes: self.writes,
            elapsed_secs,
            throughput_ops: self.committed as f64 / elapsed_secs,
            ..RunStats::default()
        };
        stats.set_latency_figures(self.requests, self.latency_sum_ns, ranked_ns);
        stats
    }
}

impl Books {
    /// Empty books for a run of `groups`, one shard each.
    pub(crate) fn opening<R: Replica>(groups: &[ReplicaGroup<R>]) -> Books {
        Books {
            total: Tally::default(),
            per_shard: groups
                .iter()
                .map(|group| (Tally::default(), received(group)))
                .collect(),
            latencies: BTreeMap::new(),
        }
    }

    /// Counts one committed operation, served by `shard`.
    pub(crate) fn count(&mut self, shard: usize, is_write: bool) {
        for tally in [&mut self.total, &mut self.per_shard[shard].0] {
            tally.committed += 1;
            tally.writes += u64::from(is_write);
        }
    }

    /// Keeps a committed request's latency for one `shard` it touched, and
    /// for the run when `first` (once per request): one more request in
    /// its entry's count.
    pub(crate) fn sample(&mut self, latency_ns: u64, shard: usize, first: bool) {
        assert!(
            shard >> SHARD_BITS == 0 && latency_ns >> (63 - SHARD_BITS) == 0,
            "a latency entry holds 2^{SHARD_BITS} shards and 2^{} ns",
            63 - SHARD_BITS
        );
        let tallies = [
            Some(&mut self.per_shard[shard].0),
            first.then_some(&mut self.total),
        ];
        for tally in tallies.into_iter().flatten() {
            tally.requests += 1;
            tally.latency_sum_ns += latency_ns;
        }
        let entry = latency_ns << (SHARD_BITS + 1) | (shard as u64) << 1 | u64::from(first);
        let count = self.latencies.entry(entry).or_insert(0);
        assert!(
            *count < u32::MAX,
            "a latency entry counts 2^32 - 1 requests"
        );
        *count += 1;
    }

    pub(crate) fn committed(&self) -> u64 {
        self.total.committed
    }

    /// Reads the latencies at [`RunStats::latency_ranks`] from one
    /// ascending walk of the counts: each shard's, then the run's last.
    /// An entry met after `met` of its class's requests holds that class's
    /// ranks in `[met, met + count)`.
    fn latency_figures(&self) -> Vec<Ranked> {
        let shard_tallies = self.per_shard.iter().map(|(tally, _)| tally);
        let mut classes: Vec<Ranked> = (shard_tallies.chain([&self.total]))
            .map(|tally| Ranked {
                ranks: RunStats::latency_ranks(tally.requests),
                met: 0,
                ns: [0; 4],
            })
            .collect();
        let run = self.per_shard.len();
        for (&entry, &count) in &self.latencies {
            let latency_ns = entry >> (SHARD_BITS + 1);
            let shard = (entry >> 1) as usize & ((1 << SHARD_BITS) - 1);
            let first = entry & 1 == 1;
            for class in [Some(shard), first.then_some(run)].into_iter().flatten() {
                let class = &mut classes[class];
                let met = class.met..class.met + count as usize;
                for (rank, ns) in class.ranks.iter().zip(&mut class.ns) {
                    if met.contains(rank) {
                        *ns = latency_ns;
                    }
                }
                class.met = met.end;
            }
        }
        classes
    }
}

/// One class of [`Books::latency_figures`]: where its figures lie in its
/// ascending latencies, how many of them the walk has met, and the
/// latencies found there.
struct Ranked {
    ranks: [usize; 4],
    met: usize,
    ns: [u64; 4],
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
    /// State transfers begun over the cluster's life, migrations and
    /// restarts: the last one's channel id.
    pub(crate) transfers: u64,
    /// The buffers every transfer's chunks are sealed in, lent to one
    /// chunk at a time and taken back once it is installed, lost or
    /// refused. A transfer that ends leaves no spare in it
    /// (`crate::migration`'s module docs, "Frames").
    pub(crate) transfer_frames: FramePool,
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
                    let telemetry = ShardTelemetry::new(policy.shard as u32);
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
            transfers: 0,
            transfer_frames: FramePool::default(),
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

    /// The tenant gateway the deployment puts in front of the router.
    pub fn gateway_config(&self) -> &GatewayConfig {
        &self.config.gateway
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
    /// become registry samples, its attribution row is its replicas' books
    /// summed (both start at group build) with `Idle` filled against
    /// `replicas × elapsed`, and all tracers' spans concatenate in shard
    /// order. Returns `None` when the deployment ran with telemetry disabled.
    /// Call once, after the run; the shards' telemetry state is consumed.
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
            let mut books = recipe_telemetry::CostBreakdown::new();
            for node in shard.books() {
                books.merge(&node.busy);
            }
            report
                .attribution
                .push(telemetry.export(replicas, elapsed_ns, books, &mut registry));
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

    /// Closes the run's books on the global clock `global_now`: each
    /// shard's commits and latencies from the driver's `books`, on the
    /// shard's own clock, with the messages its group counted, and the
    /// calendar's counts.
    pub(crate) fn finalize(&mut self, global_now: u64, books: Books) -> ShardedRunStats {
        let ranked = books.latency_figures();
        let per_shard: Vec<RunStats> = (self.shards.iter_mut().zip(&books.per_shard))
            .zip(&ranked)
            .map(|((group, &(tally, at_start)), ranked)| {
                let messages = group.take_message_counts();
                let (frames, ops) = received(group);
                RunStats {
                    messages_delivered: frames - at_start.0,
                    messages_dropped: messages.dropped,
                    messages_tampered: messages.tampered,
                    messages_replayed: messages.replayed,
                    messages_to_crashed: messages.to_crashed,
                    ops_delivered: ops - at_start.1,
                    ..tally.stats(group.now_ns(), ranked.ns)
                }
            })
            .collect();
        let mut total = books.total.stats(global_now, ranked[per_shard.len()].ns);
        for stats in &per_shard {
            total.messages_delivered += stats.messages_delivered;
            total.messages_dropped += stats.messages_dropped;
            total.messages_tampered += stats.messages_tampered;
            total.messages_replayed += stats.messages_replayed;
            total.messages_to_crashed += stats.messages_to_crashed;
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

impl<R: StoreReplica> ShardedCluster<R> {
    /// Runs a group's event that came off the calendar under `key`, leaving
    /// its replies in `completions`. A node the event restarted catches up
    /// at once ([`Self::catch_up`]) and rejoins only if it did
    /// ([`ReplicaGroup::rejoin`]). Returns the group's shard and the copies
    /// of the restart's chunks the node refused.
    pub(crate) fn handle(&mut self, key: Key, event: GroupEvent) -> (usize, u64) {
        let Some(shard) = key.owner.shard_index() else {
            unreachable!("only a group schedules a group's event");
        };
        let (group, mut sched) = self.lend(shard);
        let Some(joiner) = group.handle(key.at, event, &mut sched) else {
            return (shard, 0);
        };
        let (caught_up, refused) = self.catch_up(shard, joiner, key.at);
        let (group, mut sched) = self.lend(shard);
        group.rejoin(joiner, caught_up, &mut sched);
        (shard, refused)
    }

    /// Runs the groups' events, issuing no new client operation, until every
    /// group is at rest ([`ReplicaGroup::at_rest`]); false if the time cap
    /// comes first. Call after a run, before reading replica state.
    #[must_use]
    pub fn quiesce(&mut self) -> bool {
        let cap = self.config.max_virtual_ns;
        while !self.shards.iter().all(ReplicaGroup::at_rest) {
            if self.calendar.peek().is_none_or(|key| key.at > cap) {
                return false;
            }
            // Driver events do not outlive a run: only groups' are left.
            let Some((key, Event::Shard(event))) = self.calendar.pop() else {
                unreachable!("a driver event outlived its run");
            };
            let (shard, _) = self.handle(key, event);
            // Late completions no longer drive the closed loop, and no
            // client sees their values.
            for completion in self.completions.drain(..) {
                if let Some(value) = completion.value {
                    self.shards[shard].give_frame(value);
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use recipe_core::Operation;
    use recipe_net::{CrashPlan, FaultPlan, NodeId};
    use recipe_protocols::RaftReplica;

    use super::*;
    use crate::DeploymentSpec;

    /// An R-Raft cluster built from `spec` that has run `ops` writes from
    /// eight clients.
    fn ran(spec: DeploymentSpec, ops: usize) -> ShardedCluster<RaftReplica> {
        let mut cluster = ShardedCluster::<RaftReplica>::build(spec.with_clients(8, ops));
        cluster.run_requests(|client, seq| {
            let key = format!("k{}", (client + seq) % 16).into_bytes();
            let value = format!("v{client}-{seq}").into_bytes();
            Some(Operation::Put { key, value }.into())
        });
        cluster
    }

    /// Each group's in-flight count is its events on the calendar other
    /// than timers.
    fn assert_counted(cluster: &ShardedCluster<RaftReplica>) {
        let mut on_calendar = vec![0; cluster.shards()];
        for (owner, event) in cluster.calendar.pending() {
            match (owner.shard_index(), event) {
                (Some(shard), Event::Shard(event)) if !event.is_timer() => {
                    on_calendar[shard] += 1;
                }
                (_, Event::Shard(_)) => {}
                (_, Event::Driver { .. }) => panic!("a driver event outlived its run"),
            }
        }
        let counted: Vec<u64> = cluster.shards.iter().map(ReplicaGroup::in_flight).collect();
        assert_eq!(counted, on_calendar);
    }

    /// The one latency map gives the run and every shard the figures
    /// each would get from a list of its own: requests of one, two and
    /// three shards (some touching one shard twice), latencies that tie
    /// across shards, and a shard no request touched — with no request,
    /// a few hundred and 2 000 drawn from a wide range, and with none, one
    /// and 2 000 drawn from 100 latencies, so that a class's ranks fall
    /// inside one entry's count.
    #[test]
    fn one_latency_list_reads_as_separately_sorted_copies() {
        for requests in [0, 511, 512, 513, 2_000] {
            figures_match_sorted_copies(requests, 50_000);
        }
        for requests in [0, 1, 2_000] {
            figures_match_sorted_copies(requests, 100);
        }
    }

    fn figures_match_sorted_copies(requests: usize, distinct: u64) {
        let shards = 4;
        let mut books = Books {
            total: Tally::default(),
            per_shard: vec![(Tally::default(), (0, 0)); shards],
            latencies: BTreeMap::new(),
        };
        let (mut run, mut per_shard) = (Vec::new(), vec![Vec::new(); shards]);
        let mut sampled: BTreeMap<(u64, usize, bool), u32> = BTreeMap::new();
        let mut draw = 0x9E37_79B9_7F4A_7C15_u64;
        for request in 0..requests {
            draw = draw.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let latency_ns = (draw >> 40) % distinct + 1_000;
            // Shard 3 takes no request; a third of the requests span shards.
            let ops: &[usize] = match request % 6 {
                0 => &[2, 0, 2],
                1 => &[1, 0, 2],
                n => &[n % 3],
            };
            run.push(latency_ns);
            for (i, &shard) in ops.iter().enumerate() {
                books.count(shard, i % 2 == 0);
                if !ops[..i].contains(&shard) {
                    books.sample(latency_ns, shard, i == 0);
                    per_shard[shard].push(latency_ns);
                    *sampled.entry((latency_ns, shard, i == 0)).or_default() += 1;
                }
            }
        }
        // One entry per distinct (latency, shard, first), counting its
        // requests.
        let entries: BTreeMap<(u64, usize, bool), u32> = (books.latencies.iter())
            .map(|(&entry, &count)| {
                let shard = (entry >> 1) as usize & ((1 << SHARD_BITS) - 1);
                ((entry >> (SHARD_BITS + 1), shard, entry & 1 == 1), count)
            })
            .collect();
        assert_eq!(entries, sampled, "{requests}");
        let figures = |stats: &RunStats| {
            let percentiles = [stats.p50_latency_us, stats.p90_latency_us];
            let tails = [stats.p99_latency_us, stats.p999_latency_us];
            (stats.mean_latency_us, percentiles, tails)
        };
        let ranked = books.latency_figures();
        let tallies = books.per_shard.iter().map(|&(tally, _)| tally);
        let lists = per_shard.iter_mut().chain([&mut run]);
        for ((tally, ranked), list) in tallies.chain([books.total]).zip(&ranked).zip(lists) {
            let mut copy = RunStats::default();
            copy.set_latencies(list);
            assert_eq!(
                figures(&tally.stats(1, ranked.ns)),
                figures(&copy),
                "{requests}"
            );
        }
        assert_eq!(ranked[3].ns, [0; 4]);
        let committed = books.per_shard.iter().map(|(tally, _)| tally.committed);
        assert_eq!(books.committed(), committed.sum::<u64>());
    }

    #[test]
    fn a_group_counts_its_events_in_flight_and_the_drain_ends_at_rest_or_the_cap() {
        // Duplicated, replayed and tampered frames, and a follower that
        // crashes and comes back after the run ends, so the drain pops
        // frames and their copies, a crash, a recovery and peer notices.
        let cap = 400_000_000;
        let faults = FaultPlan {
            duplicate_probability: 0.05,
            replay_probability: 0.05,
            tamper_probability: 0.01,
            ..FaultPlan::default()
        };
        let crash = CrashPlan::none().crash_recover(NodeId(2), 20_000_000, 60_000_000);
        let spec = DeploymentSpec::new(2, 3)
            .with_fault_plan(faults)
            .with_crash_plan(crash)
            .with_time_cap_ns(cap);
        let mut cluster = ran(spec, 40);
        assert_counted(&cluster);
        let mut popped = 0;
        while cluster.calendar.peek().is_some_and(|key| key.at <= cap / 2) {
            let Some((key, Event::Shard(event))) = cluster.calendar.pop() else {
                panic!("a driver event outlived its run");
            };
            cluster.handle(key, event);
            cluster.completions.clear();
            assert_counted(&cluster);
            popped += 1;
        }
        assert!(popped > 0);

        // A tampered frame stalls its channel for good: the run commits its
        // target early, a request behind the stall waits to the cap, and
        // the drain ends there, short of rest.
        let stalls = FaultPlan {
            tamper_probability: 0.05,
            ..FaultPlan::default()
        };
        let spec = DeploymentSpec::new(2, 3)
            .with_fault_plan(stalls)
            .with_time_cap_ns(cap);
        let mut cluster = ran(spec, 30);
        assert!(cluster.calendar.peek().is_some_and(|key| key.at < cap / 2));
        assert!(!cluster.quiesce());
        assert_counted(&cluster);
        assert!(cluster.calendar.peek().is_none_or(|key| key.at > cap));
        assert!(!cluster.shards.iter().all(ReplicaGroup::at_rest));

        // A fault-free run comes to rest: nothing but timers left, and no
        // client waiting.
        let mut cluster = ran(DeploymentSpec::new(2, 3).with_time_cap_ns(cap), 40);
        assert!(cluster.quiesce());
        assert_counted(&cluster);
        for group in &cluster.shards {
            assert_eq!(group.in_flight(), 0);
            assert!(group.at_rest());
        }
        assert!(cluster.calendar.peek().is_some_and(|key| key.at <= cap));
    }
}
