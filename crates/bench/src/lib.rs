//! Benchmark harness reproducing every table and figure of the Recipe evaluation.
//!
//! Every experiment has one shape: a run function in the [`FIGURES`] registry
//! takes an operation count and returns a [`Figure`] — display rows, named
//! extra metrics, latency blocks and free-text note lines — whose
//! `Figure::summary` is the machine-readable `BENCH_<name>.json` CI pins
//! byte for byte. The `fig` binary prints any of them (`fig <name>`,
//! `fig list`, `fig all`); `perf_smoke` regenerates every committed baseline
//! from the same registry. Each entry also states its `Claim`s, which
//! [`judge`] evaluates on the committed baselines. README, "Reproducing the
//! paper's experiments", is the experiment index and quotes the ledger.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod claims;
mod figures;

use std::fmt;
use std::path::Path;

pub use claims::judge;
pub use figures::{fig_observe, FigureSpec, ObserveReport, FIGURES};
use recipe_protocols::{BatchConfig, Protocol, ProtocolMode, ProtocolVisitor, StoreReplica};
use recipe_scenario::WorkloadKind;
use recipe_shard::{DeploymentSpec, ShardedCluster, ShardedRunStats};
use recipe_sim::RunStats;
use recipe_telemetry::TelemetryReport;
use recipe_workload::WorkloadSpec;
use serde::{Deserialize, Serialize};

/// The Recipe transformation, plaintext or confidential.
fn recipe_mode(confidential: bool) -> ProtocolMode {
    let confidentiality = confidential.into();
    ProtocolMode::Recipe { confidentiality }
}

/// One experiment configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct ExperimentConfig {
    /// Protocol under test.
    pub protocol: Protocol,
    /// Native or Recipe-transformed, and then whether confidential (the BFT
    /// baselines are neither and ignore it).
    pub mode: ProtocolMode,
    /// Read fraction of the workload.
    pub read_ratio: f64,
    /// Value size in bytes.
    pub value_size: usize,
    /// Total committed operations per run.
    pub operations: usize,
    /// Closed-loop client count.
    pub clients: usize,
    /// Seed for workload and simulator.
    pub seed: u64,
    /// Leader-side batching factor (ops per wire frame; 1 = unbatched). Wired
    /// through for R-Raft, R-CR, their native counterparts and PBFT — the
    /// protocols with a batching pipeline.
    pub batch_ops: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            protocol: Protocol::Raft,
            mode: recipe_mode(false),
            read_ratio: 0.5,
            value_size: 256,
            operations: 1_500,
            clients: 24,
            seed: 7,
            batch_ops: 1,
        }
    }
}

/// One output row (one bar / one point of a figure).
#[derive(Debug, Clone)]
pub struct ExperimentRow {
    /// Metric stem: the row's throughput is summarised as
    /// `<key>_ops_per_sec`.
    pub key: String,
    /// Protocol name.
    pub protocol: String,
    /// Free-form configuration label (e.g. "90% R", "1024 B").
    pub config: String,
    /// Measured throughput (simulated ops/s).
    pub throughput_ops: f64,
    /// Mean latency in microseconds.
    pub mean_latency_us: f64,
    /// Speedup relative to the row's baseline (1.0 when this row *is* the baseline).
    pub(crate) speedup_vs_baseline: f64,
}

impl ExperimentRow {
    /// A row from its figures, keyed `<protocol slug>_<config slug>`.
    pub(crate) fn new(
        protocol: impl Into<String>,
        config: impl Into<String>,
        throughput_ops: f64,
        mean_latency_us: f64,
        speedup_vs_baseline: f64,
    ) -> Self {
        let (protocol, config) = (protocol.into(), config.into());
        ExperimentRow {
            key: row_key(&protocol, &config),
            protocol,
            config,
            throughput_ops,
            mean_latency_us,
            speedup_vs_baseline,
        }
    }

    /// A row off one run's statistics, its speedup measured against a
    /// baseline run's throughput.
    pub(crate) fn measured(
        protocol: impl Into<String>,
        config: impl Into<String>,
        stats: &RunStats,
        baseline_ops: f64,
    ) -> Self {
        let speedup = stats.throughput_ops / baseline_ops;
        Self::new(
            protocol,
            config,
            stats.throughput_ops,
            stats.mean_latency_us,
            speedup,
        )
    }

    /// The same row under a metric key of its own (the default key repeats
    /// the protocol label, which a one-protocol figure has no use for).
    pub(crate) fn keyed(mut self, key: impl Into<String>) -> Self {
        self.key = key.into();
        self
    }
}

/// Runs one experiment configuration — a single group tolerating one fault,
/// at the fewest replicas its protocol needs for that, as a one-shard
/// deployment — and returns the raw simulator statistics.
pub(crate) fn run_protocol(config: &ExperimentConfig) -> RunStats {
    struct Run<'a>(&'a ExperimentConfig);
    impl ProtocolVisitor for Run<'_> {
        type Output = RunStats;
        fn visit<R: StoreReplica>(self) -> RunStats {
            let config = self.0;
            // The spec folds one batching factor into the replicas' flush
            // triggers and the cost model's bookkeeping, and builds the
            // replicas in the mode the profile pays for, so neither can
            // disagree with the virtual clock.
            let profile = R::PROTOCOL.cost_profile(config.mode);
            let spec = DeploymentSpec::new(1, R::PROTOCOL.min_replicas(1))
                .with_confidentiality(profile.confidential.into())
                .with_profile(profile)
                .with_batching(BatchConfig::of_ops(config.batch_ops))
                .with_clients(config.clients, config.operations)
                .with_seed(config.seed);
            let workload = WorkloadKind::Single(WorkloadSpec {
                read_ratio: config.read_ratio,
                value_size: config.value_size,
                seed: config.seed,
                ..WorkloadSpec::default()
            });
            drive(&mut ShardedCluster::<R>::build(spec), &workload).total
        }
    }
    recipe_bft::dispatch(config.protocol, Run(config))
}

/// Drives a built cluster to its commit target with a plain YCSB or
/// transaction stream — the arms the scenario runner has.
fn drive<R: StoreReplica>(
    cluster: &mut ShardedCluster<R>,
    workload: &WorkloadKind,
) -> ShardedRunStats {
    let mut failures = Vec::new();
    let stats = recipe_scenario::run::run_workload(cluster, workload, &mut failures);
    assert!(failures.is_empty(), "workload rejected: {failures:?}");
    stats
}

/// The default YCSB Zipfian stream under `seed`.
fn ycsb(seed: u64) -> WorkloadKind {
    WorkloadKind::Single(WorkloadSpec {
        seed,
        ..WorkloadSpec::default()
    })
}

/// Runs one sharded configuration: `shards` groups of 3 replicas, a global
/// closed-loop client population and the default YCSB Zipfian workload.
pub(crate) fn run_sharded(protocol: Protocol, shards: usize, operations: usize) -> ShardedRunStats {
    struct Run(DeploymentSpec);
    impl ProtocolVisitor for Run {
        type Output = ShardedRunStats;
        fn visit<R: StoreReplica>(self) -> ShardedRunStats {
            drive(&mut ShardedCluster::<R>::build(self.0), &ycsb(7))
        }
    }
    // Enough concurrency that a single leader saturates; fixed across shard
    // counts so the sweep measures service capacity, not load.
    let spec = DeploymentSpec::new(shards, 3)
        .with_seed(7)
        .with_clients(64, operations);
    recipe_bft::dispatch(protocol, Run(spec))
}

// ---------------------------------------------------------------------------
// The one result shape and its machine-readable summary
// ---------------------------------------------------------------------------

/// What one experiment produced. Metric names and their order are data on
/// the figure, so every `BENCH_<name>.json` comes out of one
/// `Figure::summary`.
#[derive(Debug, Clone, Default)]
pub struct Figure {
    /// The display rows; each is also one `<key>_ops_per_sec` metric.
    pub rows: Vec<ExperimentRow>,
    /// Named figures beside the rows (ratios, counters, derived inputs), in
    /// summary order.
    pub(crate) extras: Vec<BenchMetric>,
    /// Latency blocks: each run's p50/p90/p99/p99.9 under `<prefix>`.
    pub latency: Vec<(String, RunStats)>,
    /// Free-text lines printed under the rows (timelines, counters,
    /// per-tenant accounting); a table that is no throughput sweep (Fig. 6b,
    /// Tables 2 and 4) is notes and extras alone.
    pub notes: Vec<String>,
}

impl Figure {
    /// A figure that is its rows and nothing else: every row's mean latency
    /// and speedup are kept as extras, so the summary pins the whole row.
    pub(crate) fn of_rows(rows: Vec<ExperimentRow>) -> Self {
        let mut figure = Figure::default();
        for row in &rows {
            figure.extra(format!("{}_mean_latency_us", row.key), row.mean_latency_us);
            figure.extra(format!("{}_speedup", row.key), row.speedup_vs_baseline);
        }
        figure.rows = rows;
        figure
    }

    /// Adds a row together with the latency block of the run behind it,
    /// under the row's own key.
    pub(crate) fn push_measured(&mut self, row: ExperimentRow, stats: &RunStats) {
        self.latency.push((format!("{}_", row.key), stats.clone()));
        self.rows.push(row);
    }

    /// Adds a line printed under the rows.
    pub(crate) fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Adds a named extra metric.
    pub(crate) fn extra(&mut self, name: impl Into<String>, value: f64) {
        self.extras.push(BenchMetric::new(name, value));
    }

    /// The machine-readable summary: `<key>_ops_per_sec` per row, then the
    /// extras, then the latency blocks. Two metrics under one name — two rows
    /// sharing a key, say — are a bug in the figure and are refused.
    pub(crate) fn summary(&self, bench: &str) -> BenchSummary {
        let mut metrics: Vec<BenchMetric> = self
            .rows
            .iter()
            .map(|row| BenchMetric::new(format!("{}_ops_per_sec", row.key), row.throughput_ops))
            .collect();
        metrics.extend(self.extras.iter().cloned());
        for (prefix, stats) in &self.latency {
            metrics.extend(latency_metrics(prefix, stats));
        }
        let mut names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        let duplicate = names.windows(2).find(|pair| pair[0] == pair[1]);
        assert!(
            duplicate.is_none(),
            "{bench}: two metrics named {duplicate:?}"
        );
        BenchSummary {
            bench: bench.into(),
            metrics,
        }
    }
}

/// The rows as an aligned text table, then the note lines.
impl fmt::Display for Figure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.rows.is_empty() {
            writeln!(
                f,
                "{:<22} {:>12} {:>16} {:>14} {:>10}",
                "protocol", "config", "throughput(op/s)", "latency(us)", "speedup"
            )?;
        }
        for row in &self.rows {
            writeln!(
                f,
                "{:<22} {:>12} {:>16.0} {:>14.1} {:>9.2}x",
                row.protocol,
                row.config,
                row.throughput_ops,
                row.mean_latency_us,
                row.speedup_vs_baseline
            )?;
        }
        for note in &self.notes {
            writeln!(f, "{note}")?;
        }
        Ok(())
    }
}

/// One named figure of a benchmark summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchMetric {
    /// Metric name: `<row key>_ops_per_sec` for a row's throughput.
    pub name: String,
    /// Measured value.
    pub value: f64,
}

impl BenchMetric {
    /// A metric from its name and value.
    pub fn new(name: impl Into<String>, value: f64) -> Self {
        let name = name.into();
        BenchMetric { name, value }
    }
}

/// Machine-readable summary one benchmark run emits as `BENCH_<name>.json`.
/// The simulator is deterministic, so the checked-in baselines under
/// `crates/bench/baselines/` reproduce bit-for-bit on any machine; CI diffs
/// a fresh smoke run against them, and [`judge`] checks their claims.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchSummary {
    /// Benchmark name: the command that produced it, `fig <name>` written
    /// `fig_<name>`.
    pub bench: String,
    /// The summary figures.
    pub metrics: Vec<BenchMetric>,
}

impl BenchSummary {
    /// Looks up a metric by name.
    pub(crate) fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Writes the summary as pretty JSON to `path`.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        std::fs::write(path, json)
    }
}

/// A row's metric stem, `<protocol slug>_<config slug>`.
pub(crate) fn row_key(protocol: &str, config: &str) -> String {
    format!("{}_{}", metric_slug(protocol), metric_slug(config))
}

/// Lower-cases a protocol/config label into a metric-name slug
/// (`"R-Raft (conf.)"` → `"r_raft_conf"`).
pub fn metric_slug(label: &str) -> String {
    let mut slug = String::new();
    let mut last_sep = true;
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            slug.push(c.to_ascii_lowercase());
            last_sep = false;
        } else if !last_sep {
            slug.push('_');
            last_sep = true;
        }
    }
    slug.trim_end_matches('_').to_string()
}

/// Latency-percentile metrics (`<prefix>p50_us` … `<prefix>p999_us`) off a
/// run's latency distribution.
fn latency_metrics(prefix: &str, stats: &RunStats) -> [BenchMetric; 4] {
    [
        ("p50_us", stats.p50_latency_us),
        ("p90_us", stats.p90_latency_us),
        ("p99_us", stats.p99_latency_us),
        ("p999_us", stats.p999_latency_us),
    ]
    .map(|(name, value)| BenchMetric::new(format!("{prefix}{name}"), value))
}

/// The `<name>`s of a directory's `BENCH_<name>.json` files, sorted, but
/// for `BENCH_work.json`: the benchmark workloads' work per op, which no
/// figure writes (`tests/allocations.rs` runs them under its counting
/// allocator and pins the file).
pub fn baseline_stems(dir: &Path) -> std::io::Result<Vec<String>> {
    let mut stems = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name().to_string_lossy().into_owned();
        let stem = name
            .strip_prefix("BENCH_")
            .and_then(|rest| rest.strip_suffix(".json"))
            .filter(|&stem| stem != "work");
        stems.extend(stem.map(str::to_string));
    }
    stems.sort();
    Ok(stems)
}

/// Checks a baseline directory against the registry, both ways: every
/// `BENCH_<name>.json` must have a figure in [`FIGURES`] that regenerates
/// it, and every figure must have its baseline — or deleting a file would
/// quietly unpin it. Returns one message per mismatch, naming the file.
pub fn baseline_mismatches(baseline_dir: &Path) -> std::io::Result<Vec<String>> {
    let stems = baseline_stems(baseline_dir)?;
    let mut mismatches = Vec::new();
    for stem in &stems {
        if FigureSpec::find(stem).is_none() {
            mismatches.push(format!(
                "{}/BENCH_{stem}.json has no figure `{stem}` in recipe_bench::FIGURES \
                 (crates/bench/src/figures.rs): perf_smoke cannot reproduce it",
                baseline_dir.display()
            ));
        }
    }
    for figure in FIGURES {
        if !stems.iter().any(|stem| stem == figure.name) {
            mismatches.push(format!(
                "figure `{}` has no baseline {}/BENCH_{}.json: nothing would pin it",
                figure.name,
                baseline_dir.display(),
                figure.name
            ));
        }
    }
    Ok(mismatches)
}

/// Checks that a telemetry report's per-shard cost attribution reconciles:
/// for every shard, busy + idle nanoseconds must equal `replicas ×
/// elapsed_ns` within `tolerance` (fraction). Returns the violations,
/// human-readable; empty means every shard reconciles.
pub fn attribution_reconciliation(report: &TelemetryReport, tolerance: f64) -> Vec<String> {
    let mut violations = Vec::new();
    if report.attribution.is_empty() {
        violations.push("telemetry report carries no shard attribution".into());
    }
    for shard in &report.attribution {
        let capacity = shard.capacity_ns() as f64;
        let accounted = shard.busy.total() as f64;
        if capacity == 0.0 {
            violations.push(format!("shard {}: zero capacity", shard.shard));
            continue;
        }
        let error = (accounted - capacity).abs() / capacity;
        if error > tolerance {
            violations.push(format!(
                "shard {}: attribution accounts for {accounted:.0} of {capacity:.0} \
                 capacity ns ({:.2}% off, tolerance {:.2}%)",
                shard.shard,
                error * 100.0,
                tolerance * 100.0
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_summaries_keep_their_order_refuse_twins_and_round_trip() {
        let mut figure = Figure::default();
        figure.push_measured(
            ExperimentRow::new("R-Raft (conf.)", "batch=16", 1000.0, 10.0, 2.0),
            &RunStats::default(),
        );
        figure.extra("recovery_ratio", 1.0);
        let baseline = figure.summary("fig_batching");
        // The emitted order: rows, then extras, then latency blocks.
        let names: Vec<&str> = baseline.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "r_raft_conf_batch_16_ops_per_sec",
                "recovery_ratio",
                "r_raft_conf_batch_16_p50_us",
                "r_raft_conf_batch_16_p90_us",
                "r_raft_conf_batch_16_p99_us",
                "r_raft_conf_batch_16_p999_us",
            ]
        );
        // Two rows under one key would be two metrics under one name.
        let mut twins = figure.clone();
        twins.rows.push(figure.rows[0].clone());
        assert!(std::panic::catch_unwind(|| twins.summary("fig_batching")).is_err());
        // Summaries survive a JSON round trip (what the baselines hold).
        let json = serde_json::to_string_pretty(&baseline).unwrap();
        let back: BenchSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, baseline);
    }

    #[test]
    fn every_figure_has_one_baseline_and_every_baseline_one_figure() {
        let mut names: Vec<&str> = FIGURES.iter().map(|figure| figure.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FIGURES.len(), "two figures share a name");
        let baselines = Path::new(env!("CARGO_MANIFEST_DIR")).join("baselines");
        assert_eq!(
            baseline_mismatches(&baselines).unwrap(),
            Vec::<String>::new()
        );
    }
}
