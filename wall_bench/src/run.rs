//! One repetition of a workload, measured on both clocks, and the result
//! types the two passes share.

use std::path::Path;
use std::time::Instant;

use recipe_protocols::RaftReplica;
use recipe_scenario::{run_protocol, Protocol, Scenario, ScenarioOutcome};
use recipe_shard::ShardedCluster;

use crate::alloc;
use crate::speed::{self, Speed};
use crate::stats::Summary;
use crate::workload;

/// One reported metric. `spread` carries min / median / max and the count of
/// the repeated measurements behind `value`, where there were any.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub spread: Option<Summary>,
}

impl Metric {
    pub fn new(name: &'static str, value: f64) -> Self {
        Metric {
            name,
            value,
            spread: None,
        }
    }

    pub fn with_spread(name: &'static str, value: f64, spread: Summary) -> Self {
        Metric {
            name,
            value,
            spread: Some(spread),
        }
    }
}

/// What one pass (end-to-end or per-layer) over one workload produced.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Pass {
    pub metrics: Vec<Metric>,
    /// Operations the pass tried to commit, plus requests the gateway refused.
    pub attempted: u64,
    /// Of those, operations that did not commit and requests refused.
    pub failed: u64,
    /// Broken expectations and determinism violations, one message each,
    /// naming the offending field. Empty = the outputs are correct.
    pub violations: Vec<String>,
    /// What a reader should see next to the metrics: the raw host-clock
    /// readings and the machine slowdown they were corrected for.
    pub notes: Vec<String>,
}

/// One run of a scenario through the full `gateway → router → engine →
/// shield → kv` path, measured from outside.
pub struct Rep {
    /// Host time of the `run_protocol` call as read: cluster build, the run,
    /// the expectation check and tear-down of the cluster.
    pub wall_ns: u64,
    /// What the machine-speed probe saw during the call.
    pub speed: Speed,
    /// Heap activity during the call.
    pub heap: alloc::Delta,
    pub outcome: ScenarioOutcome,
}

impl Rep {
    pub fn committed(&self) -> u64 {
        self.outcome.stats.total.committed
    }

    /// Host nanoseconds per committed operation, as read.
    pub fn raw_ns_per_op(&self) -> f64 {
        self.wall_ns as f64 / self.committed().max(1) as f64
    }

    /// The same at the reference machine speed (see [`crate::speed`]).
    pub fn ns_per_op(&self) -> f64 {
        self.speed.normalise(self.wall_ns) / self.committed().max(1) as f64
    }

    /// Requests the gateway refused outright (throttle deferrals are retried
    /// and do not count).
    pub fn rejected(&self) -> u64 {
        let tenants = &self.outcome.stats.gateway.tenants;
        tenants.iter().map(|t| t.rejected).sum()
    }
}

/// Runs `scenario` once under Raft.
pub fn run_rep(scenario: &Scenario) -> Rep {
    let heap_before = alloc::snapshot();
    let speed_before = speed::mark();
    let start = Instant::now();
    let outcome = run_protocol(scenario, Protocol::Raft);
    let wall_ns = start.elapsed().as_nanos() as u64;
    let speed = speed::since(speed_before);
    let heap = alloc::delta(heap_before);
    Rep {
        wall_ns,
        speed,
        heap,
        outcome,
    }
}

/// Adds `rep`'s operation counts and broken expectations to `pass`.
pub fn account(pass: &mut Pass, scenario: &Scenario, rep: &Rep, label: &str) {
    let target = scenario.deployment.client_model().total_operations as u64;
    pass.attempted += target + rep.rejected();
    pass.failed += target.saturating_sub(rep.committed()) + rep.rejected();
    for failure in &rep.outcome.failures {
        pass.violations.push(format!("{label}: expect.{failure}"));
    }
}

/// Builds the sharded cluster exactly as `run_protocol` does (enclave launch,
/// key provisioning, one replica group per shard) and drops it.
pub fn build_cluster(scenario: &Scenario) {
    let cluster = ShardedCluster::<RaftReplica>::build(scenario.deployment.clone());
    drop(std::hint::black_box(cluster));
}

/// One set-up as a user of a scenario file pays it before the first request:
/// load and validate the file, then build the cluster. Returns its host time
/// in nanoseconds.
pub fn set_up_once(dir: &Path, name: &str, seed: u64) -> Result<u64, String> {
    let start = Instant::now();
    let scenario = workload::load(dir, name, seed)?;
    build_cluster(&scenario);
    Ok(start.elapsed().as_nanos() as u64)
}
