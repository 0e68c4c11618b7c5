//! Runs a declarative scenario file through the unified sharded driver and
//! checks its declared expectations.
//!
//! Usage: `scenario_runner <scenario.{toml,json}> [summary_json_path]
//! [telemetry_dir]`
//!
//! Loads the scenario (strict parsing: unknown keys and contradictory knobs
//! fail with the offending field named), runs it once per declared protocol,
//! prints per-protocol statistics, and exits non-zero if any expectation is
//! violated. With `summary_json_path`, writes the usual machine-readable
//! `BENCH_`-style summary; with `telemetry_dir`, exports each protocol's
//! telemetry as `<scenario>_<protocol>.jsonl` (the artifact CI uploads when a
//! scenario leg fails).

use recipe_bench::{metric_slug, BenchMetric, BenchSummary};
use recipe_scenario::{run_scenario, Scenario};

fn main() {
    let mut args = std::env::args().skip(1);
    let path = args
        .next()
        .expect("usage: scenario_runner <scenario.{toml,json}> [summary_json] [telemetry_dir]");
    let summary_path = args.next();
    let telemetry_dir = args.next();

    let scenario = match Scenario::from_path(std::path::Path::new(&path)) {
        Ok(scenario) => scenario,
        Err(err) => {
            eprintln!("scenario rejected: {err}");
            std::process::exit(2);
        }
    };
    println!("scenario `{}`: {}", scenario.name, scenario.description);
    println!(
        "  {} shard(s) x {} replica(s), {} client(s), {} target ops, protocols: {}",
        scenario.deployment.shards(),
        scenario.deployment.replicas_per_shard(),
        scenario.deployment.client_model().clients,
        scenario.deployment.client_model().total_operations,
        scenario
            .protocols
            .iter()
            .map(|p| p.file_name())
            .collect::<Vec<_>>()
            .join(", ")
    );

    let outcomes = run_scenario(&scenario);
    let mut metrics = Vec::new();
    let mut failed = false;
    for outcome in &outcomes {
        let (total, migration) = (&outcome.stats.total, &outcome.stats.migration);
        println!(
            "\n[{}] committed {} ops in {:.2} virtual s ({:.0} ops/s), p99 {:.1} us, \
             migrations {}/{} started/completed ({} chunks shipped, {} copies refused), \
             txns {}/{} committed/aborted, view changes {}",
            outcome.protocol,
            total.committed,
            total.elapsed_secs,
            total.throughput_ops,
            total.p99_latency_us,
            migration.migrations_started,
            migration.migrations_completed,
            migration.chunks,
            migration.chunks_rejected,
            outcome.stats.txn.committed,
            outcome.stats.txn.aborted,
            outcome.view_changes,
        );
        for t in &outcome.stats.gateway.tenants {
            println!(
                "  tenant {:<10} admitted {:>6}  throttled {:>6}  rejected {:>4}  committed ops {:>6}",
                t.tenant, t.admitted, t.throttled, t.rejected, t.committed_ops
            );
        }
        let prefix = metric_slug(outcome.protocol);
        metrics.extend([
            BenchMetric::new(format!("{prefix}_committed_ops"), total.committed as f64),
            BenchMetric::new(
                format!("{prefix}_throughput_ops_per_sec"),
                total.throughput_ops,
            ),
            BenchMetric::new(format!("{prefix}_p99_us"), total.p99_latency_us),
            BenchMetric::new(
                format!("{prefix}_migration_chunks"),
                migration.chunks as f64,
            ),
            BenchMetric::new(
                format!("{prefix}_chunks_rejected"),
                migration.chunks_rejected as f64,
            ),
        ]);
        if let (Some(dir), Some(report)) = (&telemetry_dir, &outcome.telemetry) {
            std::fs::create_dir_all(dir).expect("telemetry dir created");
            let file = format!(
                "{dir}/{}_{}.jsonl",
                metric_slug(&scenario.name),
                outcome.protocol
            );
            std::fs::write(&file, report.to_jsonl()).expect("telemetry written");
            println!("  telemetry exported to {file}");
        }
        if !outcome.passed() {
            failed = true;
            for failure in &outcome.failures {
                eprintln!("  EXPECTATION VIOLATED [{}]: {failure}", outcome.protocol);
            }
        }
    }

    if let Some(path) = summary_path {
        let summary = BenchSummary {
            bench: format!("scenario_{}", metric_slug(&scenario.name)),
            metrics,
        };
        summary.write(&path).expect("summary written");
        println!("\nsummary written to {path}");
    }

    if failed {
        eprintln!("\nscenario `{}` FAILED", scenario.name);
        std::process::exit(1);
    }
    println!(
        "\nscenario `{}` passed ({} protocol run(s))",
        scenario.name,
        outcomes.len()
    );
}
