//! Running a loaded [`Scenario`] through the unified sharded driver and
//! checking its declared expectations.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recipe_core::{Operation, Request};
use recipe_protocols::{Protocol, ProtocolVisitor, StoreReplica};
use recipe_shard::{Client, ShardRouter, ShardedCluster, ShardedRunStats};
use recipe_telemetry::{SpanKind, TelemetryReport};
use recipe_workload::{stable_key_hash, TxnWorkloadGenerator};

use crate::model::{Scenario, WorkloadKind};

/// The result of driving one scenario under one protocol.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub scenario: String,
    /// Protocol this outcome ran under.
    pub protocol: &'static str,
    /// Full driver statistics.
    pub stats: ShardedRunStats,
    /// Leader failovers observed (telemetry `ViewChange` spans; 0 when
    /// telemetry is off).
    pub view_changes: u64,
    /// The telemetry report, when the deployment enabled telemetry.
    pub telemetry: Option<TelemetryReport>,
    /// Violated expectations, one actionable message each. Empty = pass.
    pub failures: Vec<String>,
}

impl ScenarioOutcome {
    /// True when every declared expectation held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs the scenario once per declared protocol, in declaration order.
pub fn run_scenario(scenario: &Scenario) -> Vec<ScenarioOutcome> {
    scenario
        .protocols
        .iter()
        .map(|&p| run_protocol(scenario, p))
        .collect()
}

/// Runs the scenario under one specific protocol.
pub fn run_protocol(scenario: &Scenario, protocol: Protocol) -> ScenarioOutcome {
    struct Drive<'a>(&'a Scenario);
    impl ProtocolVisitor for Drive<'_> {
        type Output = ScenarioOutcome;
        fn visit<R: StoreReplica>(self) -> ScenarioOutcome {
            drive::<R>(self.0)
        }
    }
    recipe_bft::dispatch(protocol, Drive(scenario))
}

fn drive<R: StoreReplica>(scenario: &Scenario) -> ScenarioOutcome {
    let mut cluster = ShardedCluster::<R>::build(scenario.deployment.clone());
    let mut failures = Vec::new();
    let stats = run_workload(&mut cluster, &scenario.workload, &mut failures);

    let telemetry = cluster.take_telemetry_report();
    let view_changes = telemetry
        .as_ref()
        .map(|report| {
            report
                .spans
                .iter()
                .filter(|span| span.kind == SpanKind::ViewChange)
                .count() as u64
        })
        .unwrap_or(0);
    failures.extend(check_expectations(scenario, &stats, view_changes));
    ScenarioOutcome {
        scenario: scenario.name.clone(),
        protocol: R::PROTOCOL.file_name(),
        stats,
        view_changes,
        telemetry,
        failures,
    }
}

/// Drives a built cluster to its commit target with `workload`'s request
/// stream, leaving the cluster to the caller afterwards. A workload the
/// deployment cannot serve as described adds a message to `failures` and
/// still runs.
pub fn run_workload<R: StoreReplica>(
    cluster: &mut ShardedCluster<R>,
    workload: &WorkloadKind,
    failures: &mut Vec<String>,
) -> ShardedRunStats {
    let router = cluster.router().clone();
    // Keys are drawn with room for the gateway's tenant prefix, which
    // admission writes in place (0 without a tenanted gateway).
    let room = cluster.gateway_config().key_room();
    match workload {
        WorkloadKind::Single(spec) => {
            let mut gen = spec.generator().with_key_room(room);
            cluster.run_requests(move |_, _| Some(Request::Single(gen.next_op())))
        }
        WorkloadKind::Txn(spec) => cluster.run_requests(TxnClient {
            gen: spec.generator().with_key_room(room),
            router,
        }),
        WorkloadKind::HotShard {
            base,
            hot_shard,
            hot_fraction,
            hot_arcs,
            keys_per_arc,
        } => {
            let hot_keys = router.hot_range(*hot_shard, *hot_arcs, *keys_per_arc);
            if hot_keys.is_empty() {
                failures.push(format!(
                    "workload.hot_shard: shard {hot_shard} owns no keys in the probe universe \
                     (try fewer shards or a different hot_shard)"
                ));
            }
            let hot_fraction = *hot_fraction;
            let mut gen = base.generator().with_key_room(room);
            // Separate stream for the redirect decisions so the base key/op
            // sequence stays aligned with a pure single-key run on the same
            // seed (the same idiom TxnWorkloadGenerator uses for its shape
            // stream).
            let mut pick =
                StdRng::seed_from_u64(base.seed.wrapping_add(stable_key_hash(b"hot-shard-pick")));
            cluster.run_requests(move |_, _| {
                let mut op = gen.next_op();
                if !hot_keys.is_empty() && hot_fraction > 0.0 && pick.gen_bool(hot_fraction) {
                    let (Operation::Get { key } | Operation::Put { key, .. }) = &mut op;
                    *key = hot_keys[pick.gen_range(0..hot_keys.len())].clone();
                }
                Some(Request::Single(op))
            })
        }
    }
}

/// A transactional stream's clients: each draw is placed by the router, and
/// each committed transaction's buffers go back to the generator for the
/// next ones to draw into.
struct TxnClient {
    gen: TxnWorkloadGenerator,
    router: ShardRouter,
}

impl Client for TxnClient {
    fn next(&mut self, _client: u64, _seq: u64, _at_ns: u64) -> Option<Request> {
        let router = &self.router;
        Some(self.gen.next_request(&|key| router.shard_for_key(key)))
    }

    fn reclaim(&mut self, spent: Vec<Operation>) {
        self.gen.reclaim(spent);
    }
}

fn check_expectations(
    scenario: &Scenario,
    stats: &ShardedRunStats,
    view_changes: u64,
) -> Vec<String> {
    let mut failures = Vec::new();
    let expect = &scenario.expect;
    let target = scenario.deployment.client_model().total_operations as u64;
    if expect.zero_lost_commits && stats.total.committed < target {
        failures.push(format!(
            "zero_lost_commits: only {} of {target} targeted operations committed (lost to a \
             fault or the time cap)",
            stats.total.committed
        ));
    }
    if let Some(min) = expect.min_committed_ops {
        if stats.total.committed < min {
            failures.push(format!(
                "min_committed_ops: committed {} < declared minimum {min}",
                stats.total.committed
            ));
        }
    }
    if expect.expect_migrations && stats.migration.migrations_completed == 0 {
        failures.push(format!(
            "expect_migrations: no migration reached cutover (started = {})",
            stats.migration.migrations_started
        ));
    }
    if expect.expect_view_changes && view_changes == 0 {
        failures.push(
            "expect_view_changes: no leader failover observed (no ViewChange telemetry span)"
                .to_string(),
        );
    }
    failures
}
