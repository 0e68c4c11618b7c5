//! Determinism properties of the telemetry subsystem: tracing must observe
//! the virtual clock, never perturb it.
//!
//! 1. with telemetry enabled, two same-seed runs commit bit-identical state
//!    *and* produce byte-identical trace exports;
//! 2. with telemetry disabled, a run is bit-identical to the same-seed run
//!    with telemetry enabled — the subsystem is invisible on the virtual
//!    clock (the checked-in `BENCH_*.json` baselines regenerate unchanged).

use std::cell::RefCell;

use proptest::prelude::*;
use recipe::protocols::RaftReplica;
use recipe::shard::{DeploymentSpec, ShardPolicy, ShardedCluster, ShardedRunStats};
use recipe::telemetry::{TelemetryConfig, TelemetryReport};
use recipe::workload::{TxnWorkloadSpec, WorkloadSpec};

/// One mixed single-key/transaction run on two shards (shard 0
/// confidential), telemetry on or off.
fn run(
    seed: u64,
    operations: usize,
    telemetry: bool,
) -> (ShardedRunStats, Option<TelemetryReport>) {
    let mut spec = DeploymentSpec::new(2, 3)
        .with_seed(seed)
        .with_clients(8, operations)
        .with_shard_policy(0, ShardPolicy::confidential());
    if telemetry {
        spec = spec.with_telemetry(TelemetryConfig::enabled());
    }
    let mut cluster = ShardedCluster::<RaftReplica>::build(spec);
    let router = cluster.router().clone();
    let workload = TxnWorkloadSpec {
        base: WorkloadSpec {
            seed,
            read_ratio: 0.5,
            ..WorkloadSpec::default()
        },
        txn_fraction: 0.25,
        ops_per_txn: 2,
        fan_out: 2,
    };
    let generator = RefCell::new(workload.generator());
    let stats = cluster.run_requests(move |_client, _seq| {
        Some(
            generator
                .borrow_mut()
                .next_request(&|key| router.shard_for_key(key)),
        )
    });
    (stats, cluster.take_telemetry_report())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property 1: telemetry-enabled runs are bit-reproducible — committed
    /// state, statistics and the full serialized trace (spans, metrics,
    /// attribution) agree byte for byte across two same-seed runs.
    #[test]
    fn same_seed_runs_produce_identical_traces(seed in any::<u64>(), ops in 100usize..250) {
        let (stats_a, report_a) = run(seed, ops, true);
        let (stats_b, report_b) = run(seed, ops, true);
        prop_assert_eq!(&stats_a, &stats_b);
        let report_a = report_a.expect("telemetry enabled");
        let report_b = report_b.expect("telemetry enabled");
        prop_assert!(stats_a.total.committed > 0);
        prop_assert!(!report_a.spans.is_empty());
        prop_assert_eq!(report_a.to_jsonl(), report_b.to_jsonl());
        prop_assert_eq!(report_a.to_chrome_trace(), report_b.to_chrome_trace());
    }

    /// Property 2: telemetry only observes — a telemetry-off run is
    /// bit-identical to the telemetry-on run with the same seed, and emits
    /// no report.
    #[test]
    fn telemetry_is_invisible_on_the_virtual_clock(seed in any::<u64>(), ops in 100usize..250) {
        let (stats_off, report_off) = run(seed, ops, false);
        let (stats_on, _) = run(seed, ops, true);
        prop_assert!(report_off.is_none());
        prop_assert_eq!(&stats_off, &stats_on);
    }
}
