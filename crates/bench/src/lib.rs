//! Benchmark harness reproducing every table and figure of the Recipe evaluation.
//!
//! Each `figN_*` / `tableN_*` function runs the corresponding experiment on the
//! deterministic simulator and returns structured rows; the binaries under
//! `src/bin/` print them, and EXPERIMENTS.md records paper-vs-measured
//! values. See DESIGN.md for the experiment index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;

use recipe_attest::{ConfigAndAttestService, IntelAttestationService, QuoteVerifier, SecretBundle};
use recipe_core::{Operation, Request};
use recipe_gateway::{GatewayConfig, TenantSpec};
use recipe_net::{CrashPlan, ExecMode, NetCostModel, NodeId, Transport};
use recipe_protocols::{
    build_cluster, BatchConfig, BuildReplica, Protocol, ProtocolMode, ProtocolVisitor, RaftReplica,
};
use recipe_shard::{DeploymentSpec, RebalanceConfig, ShardPolicy, ShardedCluster, ShardedRunStats};
use recipe_sim::{ClientModel, CostProfile, RunStats, SimCluster, SimConfig};
use recipe_telemetry::{TelemetryConfig, TelemetryReport};
use recipe_workload::{TenantMixSpec, TxnWorkloadSpec, WorkloadRequest, WorkloadSpec};
use serde::{Deserialize, Serialize};

/// The four protocols the paper transforms, in the order its figures list
/// them.
const RECIPE_PROTOCOLS: [Protocol; 4] = [
    Protocol::Raft,
    Protocol::Chain,
    Protocol::AllConcur,
    Protocol::Abd,
];

/// The Recipe transformation, plaintext or confidential.
fn recipe_mode(confidential: bool) -> ProtocolMode {
    let confidentiality = confidential.into();
    ProtocolMode::Recipe { confidentiality }
}

/// One experiment configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
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
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentRow {
    /// Protocol name.
    pub protocol: String,
    /// Free-form configuration label (e.g. "90% R", "1024 B").
    pub config: String,
    /// Measured throughput (simulated ops/s).
    pub throughput_ops: f64,
    /// Mean latency in microseconds.
    pub mean_latency_us: f64,
    /// Speedup relative to the row's baseline (1.0 when this row *is* the baseline).
    pub speedup_vs_baseline: f64,
}

/// Runs one experiment configuration — a single group tolerating one fault,
/// at the fewest replicas its protocol needs for that — and returns the raw
/// simulator statistics.
pub fn run_protocol(config: &ExperimentConfig) -> RunStats {
    struct Run<'a>(&'a ExperimentConfig);
    impl ProtocolVisitor for Run<'_> {
        type Output = RunStats;
        fn visit<R: BuildReplica>(self) -> RunStats {
            let config = self.0;
            let n = R::PROTOCOL.min_replicas(1);
            // One batching factor for the replicas' flush triggers and the
            // cost model's bookkeeping, so the two can never disagree.
            let batch = BatchConfig::of_ops(config.batch_ops);
            let profile = cost_profile(R::PROTOCOL, config.mode).with_batch_ops(batch.max_ops);
            let replicas = build_cluster(n, 1, |id, members| {
                R::build(id, members, config.mode, batch)
            });
            let mut sim_config = SimConfig::uniform(n, profile);
            sim_config.seed = config.seed;
            sim_config.clients = ClientModel {
                clients: config.clients,
                total_operations: config.operations,
            };
            let workload = WorkloadSpec {
                read_ratio: config.read_ratio,
                value_size: config.value_size,
                seed: config.seed,
                ..WorkloadSpec::default()
            };
            let mut generator = workload.generator();
            SimCluster::new(replicas, sim_config)
                .run(move |_client, _seq| recipe_shard::op_from_workload(generator.next_op()))
        }
    }
    recipe_bft::dispatch(config.protocol, Run(config))
}

/// The hardware and software stack a protocol runs on (Table 2): the BFT
/// baselines have their own, a CFT protocol its mode's.
fn cost_profile(protocol: Protocol, mode: ProtocolMode) -> CostProfile {
    match (protocol, mode) {
        (Protocol::Pbft, _) => CostProfile::pbft_baseline(),
        (Protocol::Damysus, _) => CostProfile::damysus_baseline(),
        (_, ProtocolMode::Native) => CostProfile::native_cft(),
        (_, ProtocolMode::Recipe { confidentiality }) => {
            CostProfile::recipe().with_confidentiality(confidentiality)
        }
    }
}

// ---------------------------------------------------------------------------
// Figures and tables
// ---------------------------------------------------------------------------

/// Figure 4: throughput and speedup of the four R-protocols vs PBFT across
/// read/write ratios (256 B values).
pub fn fig4_rw_ratio(operations: usize) -> Vec<ExperimentRow> {
    let ratios = [0.5, 0.75, 0.9, 0.95, 0.99];
    let mut rows = Vec::new();
    for &ratio in &ratios {
        let label = format!("{:.0}% R", ratio * 100.0);
        let pbft = run_protocol(&ExperimentConfig {
            protocol: Protocol::Pbft,
            read_ratio: ratio,
            operations,
            ..ExperimentConfig::default()
        });
        rows.push(ExperimentRow {
            protocol: "PBFT".into(),
            config: label.clone(),
            throughput_ops: pbft.throughput_ops,
            mean_latency_us: pbft.mean_latency_us,
            speedup_vs_baseline: 1.0,
        });
        for kind in RECIPE_PROTOCOLS {
            let stats = run_protocol(&ExperimentConfig {
                protocol: kind,
                read_ratio: ratio,
                operations,
                ..ExperimentConfig::default()
            });
            rows.push(ExperimentRow {
                protocol: kind.display_name().into(),
                config: label.clone(),
                throughput_ops: stats.throughput_ops,
                mean_latency_us: stats.mean_latency_us,
                speedup_vs_baseline: stats.throughput_ops / pbft.throughput_ops,
            });
        }
    }
    rows
}

/// Figure 3: throughput for different value sizes (256 B / 1024 B / 4096 B) under a
/// 90 % read workload.
pub fn fig3_value_size(operations: usize) -> Vec<ExperimentRow> {
    let sizes = [256usize, 1024, 4096];
    let mut rows = Vec::new();
    for &size in &sizes {
        let label = format!("{size} B");
        let pbft = run_protocol(&ExperimentConfig {
            protocol: Protocol::Pbft,
            read_ratio: 0.9,
            value_size: size,
            operations,
            ..ExperimentConfig::default()
        });
        rows.push(ExperimentRow {
            protocol: "PBFT".into(),
            config: label.clone(),
            throughput_ops: pbft.throughput_ops,
            mean_latency_us: pbft.mean_latency_us,
            speedup_vs_baseline: 1.0,
        });
        for kind in RECIPE_PROTOCOLS {
            let stats = run_protocol(&ExperimentConfig {
                protocol: kind,
                read_ratio: 0.9,
                value_size: size,
                operations,
                ..ExperimentConfig::default()
            });
            rows.push(ExperimentRow {
                protocol: kind.display_name().into(),
                config: label.clone(),
                throughput_ops: stats.throughput_ops,
                mean_latency_us: stats.mean_latency_us,
                speedup_vs_baseline: stats.throughput_ops / pbft.throughput_ops,
            });
        }
    }
    rows
}

/// Figure 5: throughput with confidentiality (encrypted values and payloads) vs
/// PBFT, for 50 % and 95 % read workloads.
pub fn fig5_confidentiality(operations: usize) -> Vec<ExperimentRow> {
    let ratios = [0.5, 0.95];
    let mut rows = Vec::new();
    for &ratio in &ratios {
        let label = format!("{:.0}% R (conf.)", ratio * 100.0);
        let pbft = run_protocol(&ExperimentConfig {
            protocol: Protocol::Pbft,
            read_ratio: ratio,
            operations,
            ..ExperimentConfig::default()
        });
        rows.push(ExperimentRow {
            protocol: "PBFT".into(),
            config: label.clone(),
            throughput_ops: pbft.throughput_ops,
            mean_latency_us: pbft.mean_latency_us,
            speedup_vs_baseline: 1.0,
        });
        for kind in RECIPE_PROTOCOLS {
            let stats = run_protocol(&ExperimentConfig {
                protocol: kind,
                mode: recipe_mode(true),
                read_ratio: ratio,
                operations,
                ..ExperimentConfig::default()
            });
            rows.push(ExperimentRow {
                protocol: format!("{} (conf.)", kind.display_name()),
                config: label.clone(),
                throughput_ops: stats.throughput_ops,
                mean_latency_us: stats.mean_latency_us,
                speedup_vs_baseline: stats.throughput_ops / pbft.throughput_ops,
            });
        }
    }
    rows
}

/// Figure 6a: overhead of the transformation + TEEs — native protocol throughput
/// divided by the R-protocol throughput, across read/write ratios.
pub fn fig6a_tee_overheads(operations: usize) -> Vec<ExperimentRow> {
    let ratios = [0.5, 0.75, 0.9, 0.95, 0.99];
    let mut rows = Vec::new();
    for &ratio in &ratios {
        let label = format!("{:.0}% R", ratio * 100.0);
        for kind in RECIPE_PROTOCOLS {
            let recipe = run_protocol(&ExperimentConfig {
                protocol: kind,
                read_ratio: ratio,
                operations,
                ..ExperimentConfig::default()
            });
            let native = run_protocol(&ExperimentConfig {
                protocol: kind,
                mode: ProtocolMode::Native,
                read_ratio: ratio,
                operations,
                ..ExperimentConfig::default()
            });
            rows.push(ExperimentRow {
                protocol: kind.display_name().into(),
                config: label.clone(),
                throughput_ops: recipe.throughput_ops,
                mean_latency_us: recipe.mean_latency_us,
                // For this figure "speedup" is the overhead factor (native / recipe).
                speedup_vs_baseline: native.throughput_ops / recipe.throughput_ops,
            });
        }
    }
    rows
}

/// Figure 6b: network-stack goodput (Gb/s) vs payload size for the five stacks.
pub fn fig6b_network() -> Vec<(String, usize, f64)> {
    let model = NetCostModel::default();
    let sizes = [64usize, 256, 1024, 1460, 2048, 4096];
    let mut rows = Vec::new();
    for &size in &sizes {
        rows.push((
            "kernel-net".to_string(),
            size,
            model.throughput_gbps(Transport::KernelSockets, ExecMode::Native, size),
        ));
        rows.push((
            "direct I/O".to_string(),
            size,
            model.throughput_gbps(Transport::DirectIo, ExecMode::Native, size),
        ));
        rows.push((
            "kernel-net (TEEs)".to_string(),
            size,
            model.throughput_gbps(Transport::KernelSockets, ExecMode::Tee, size),
        ));
        rows.push((
            "direct I/O (TEEs)".to_string(),
            size,
            model.throughput_gbps(Transport::DirectIo, ExecMode::Tee, size),
        ));
        rows.push((
            "Recipe-lib (net)".to_string(),
            size,
            model.recipe_lib_throughput_gbps(size),
        ));
    }
    rows
}

/// The Damysus comparison of §B.3: Recipe protocols (256 B payload) vs Damysus at
/// 0 B / 64 B / 256 B payloads.
pub fn damysus_compare(operations: usize) -> Vec<ExperimentRow> {
    let mut rows = Vec::new();
    for &size in &[1usize, 64, 256] {
        let damysus = run_protocol(&ExperimentConfig {
            protocol: Protocol::Damysus,
            read_ratio: 0.5,
            value_size: size,
            operations,
            ..ExperimentConfig::default()
        });
        rows.push(ExperimentRow {
            protocol: "Damysus".into(),
            config: format!("{size} B"),
            throughput_ops: damysus.throughput_ops,
            mean_latency_us: damysus.mean_latency_us,
            speedup_vs_baseline: 1.0,
        });
    }
    // Recipe protocols with their standard 256 B payload.
    let damysus_256 = run_protocol(&ExperimentConfig {
        protocol: Protocol::Damysus,
        read_ratio: 0.5,
        value_size: 256,
        operations,
        ..ExperimentConfig::default()
    });
    for kind in RECIPE_PROTOCOLS {
        let stats = run_protocol(&ExperimentConfig {
            protocol: kind,
            read_ratio: 0.5,
            value_size: 256,
            operations,
            ..ExperimentConfig::default()
        });
        rows.push(ExperimentRow {
            protocol: kind.display_name().into(),
            config: "256 B".into(),
            throughput_ops: stats.throughput_ops,
            mean_latency_us: stats.mean_latency_us,
            speedup_vs_baseline: stats.throughput_ops / damysus_256.throughput_ops,
        });
    }
    rows
}

/// Batching experiment (beyond the paper): per-leader committed-ops/sec of a
/// single 3-replica group under a write-only workload, sweeping the batch size
/// {1, 4, 16, 64} for the native Raft baseline and confidential R-Raft.
///
/// Every commit flows through the one leader, so throughput *is* per-leader
/// throughput. The `batch=1` row of each protocol is the baseline its speedups
/// are measured against; the confidential rows demonstrate how amortizing the
/// `shield_msg`/`verify_msg` fixed costs (counter, MAC/AEAD setup, framing —
/// the fig6a overhead factors) over a frame recovers most of the
/// confidential-mode tax.
pub fn fig_batching(operations: usize) -> Vec<ExperimentRow> {
    fig_batching_report(operations).rows
}

/// Results of the batching experiment: the display rows plus the raw
/// simulator statistics behind each row (same order), so summaries can report
/// the latency percentiles the rows do not carry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchingReport {
    /// One row per (protocol, batch-size) configuration.
    pub rows: Vec<ExperimentRow>,
    /// The raw statistics behind each row, in row order.
    pub stats: Vec<RunStats>,
}

/// [`fig_batching`] with the raw per-row [`RunStats`] kept alongside the rows.
pub fn fig_batching_report(operations: usize) -> BatchingReport {
    let batch_sizes = [1usize, 4, 16, 64];
    let mut rows = Vec::new();
    let mut raw = Vec::new();
    for (mode, label) in [
        (ProtocolMode::Native, "Raft (native)"),
        (recipe_mode(true), "R-Raft (conf.)"),
    ] {
        let mut baseline = None;
        for &batch in &batch_sizes {
            let stats = run_protocol(&ExperimentConfig {
                mode,
                read_ratio: 0.0,
                value_size: 64,
                clients: 96,
                operations,
                batch_ops: batch,
                ..ExperimentConfig::default()
            });
            let base = *baseline.get_or_insert(stats.throughput_ops);
            rows.push(ExperimentRow {
                protocol: label.into(),
                config: format!("batch={batch}"),
                throughput_ops: stats.throughput_ops,
                mean_latency_us: stats.mean_latency_us,
                speedup_vs_baseline: stats.throughput_ops / base,
            });
            raw.push(stats);
        }
    }
    BatchingReport { rows, stats: raw }
}

/// Shard-scaling experiment (beyond the paper): aggregate throughput of
/// R-Raft and R-ABD across 1/2/4/8 consistent-hash shards under the default
/// YCSB Zipfian workload. Each shard is an independent 3-replica group; the
/// single-shard rows are the baselines their speedups are measured against.
pub fn fig_shard_scaling(operations: usize) -> Vec<ExperimentRow> {
    let shard_counts = [1usize, 2, 4, 8];
    let mut rows = Vec::new();
    for kind in [Protocol::Raft, Protocol::Abd] {
        let mut baseline = None;
        for &shards in &shard_counts {
            let stats = run_sharded(kind, shards, operations);
            let base = *baseline.get_or_insert(stats.total.throughput_ops);
            rows.push(ExperimentRow {
                protocol: kind.display_name().into(),
                config: format!("{shards} shard{}", if shards == 1 { "" } else { "s" }),
                throughput_ops: stats.total.throughput_ops,
                mean_latency_us: stats.total.mean_latency_us,
                speedup_vs_baseline: stats.total.throughput_ops / base,
            });
        }
    }
    rows
}

/// Results of the online-rebalancing experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RebalanceReport {
    /// Phase rows (pre-skew / during-skew / post-cutover aggregate
    /// throughput; "speedup" is relative to the pre-skew level).
    pub rows: Vec<ExperimentRow>,
    /// The full driver statistics, including migration counters and the
    /// throughput timeline.
    pub stats: ShardedRunStats,
    /// Mean aggregate throughput before the skew sets in, ops/s.
    pub pre_skew_ops: f64,
    /// Mean aggregate throughput while the skewed range saturates the donor
    /// leader, ops/s.
    pub during_skew_ops: f64,
    /// Mean aggregate throughput after the migration cutover, ops/s.
    pub post_cutover_ops: f64,
}

/// Online-rebalancing experiment (beyond the paper): two R-Raft shards under
/// a write-only workload that starts balanced and then funnels everything
/// into a hot key range owned entirely by shard 0. The migration controller
/// snapshots the hot arcs, catches up, and cuts them over to shard 1; the
/// throughput timeline shows the sag under skew and the recovery after the
/// epoch bump — with zero lost or duplicated commits (the commit count checks
/// are in this crate's tests and `tests/rebalancing.rs`).
/// Runs `operations` committed operations exactly as asked — but phase means
/// need enough timeline to average over, so runs much below the default 3200
/// produce degenerate (possibly zero) phase figures rather than being
/// silently resized.
pub fn fig_rebalance(operations: usize) -> RebalanceReport {
    // The balanced warm-up is the throughput yardstick the recovery is
    // measured against.
    let balanced_ops = (operations * 7) / 32;

    let bucket_ns = 5_000_000u64;
    let spec = DeploymentSpec::new(2, 3)
        .with_seed(9)
        .with_clients(64, operations)
        .with_rebalance(RebalanceConfig {
            check_interval_ns: 10_000_000,
            min_window_commits: 120,
            imbalance_threshold: 1.4,
            timeline_bucket_ns: bucket_ns,
            ..RebalanceConfig::enabled()
        });
    let mut cluster = ShardedCluster::<RaftReplica>::build(spec);
    let hot = cluster.router().hot_range(0, 48, 2);

    let issued = std::cell::Cell::new(0usize);
    let stats = cluster.run_requests(|client, seq| {
        let n = issued.get();
        issued.set(n + 1);
        let key = if n < balanced_ops {
            format!("user{:08}", (client * 131 + seq * 17) % 10_000).into_bytes()
        } else {
            hot[n % hot.len()].clone()
        };
        let value = vec![0xAB; 64];
        Some(Operation::Put { key, value }.into())
    });

    // Phase means off the timeline: pre-skew up to the bucket where the
    // balanced commits ran out, during-skew until the cutover, post-cutover
    // after it (excluding the cutover bucket and the trailing partial one).
    let timeline = &stats.timeline;
    let mut cumulative = 0u64;
    let mut skew_bucket = timeline.len().saturating_sub(1);
    for (i, bucket) in timeline.iter().enumerate() {
        cumulative += bucket.committed;
        if cumulative >= balanced_ops as u64 {
            skew_bucket = i;
            break;
        }
    }
    let cutover_bucket = ((stats.migration.last_cutover_ns / bucket_ns) as usize)
        .min(timeline.len().saturating_sub(1));
    let mean_ops_per_sec = |from: usize, to: usize| -> f64 {
        if timeline.is_empty() {
            return 0.0;
        }
        let to = to.max(from + 1).min(timeline.len());
        let from = from.min(to - 1);
        let buckets = &timeline[from..to];
        let total: u64 = buckets.iter().map(|b| b.committed).sum();
        total as f64 / buckets.len() as f64 / (bucket_ns as f64 / 1e9)
    };
    let pre_skew_ops = mean_ops_per_sec(0, skew_bucket.max(1));
    let during_skew_ops = mean_ops_per_sec(skew_bucket + 1, cutover_bucket);
    let post_cutover_ops = mean_ops_per_sec(cutover_bucket + 1, timeline.len().saturating_sub(1));

    let rows = vec![
        ExperimentRow {
            protocol: "R-Raft 2 shards".into(),
            config: "pre-skew".into(),
            throughput_ops: pre_skew_ops,
            mean_latency_us: stats.total.mean_latency_us,
            speedup_vs_baseline: 1.0,
        },
        ExperimentRow {
            protocol: "R-Raft 2 shards".into(),
            config: "during skew".into(),
            throughput_ops: during_skew_ops,
            mean_latency_us: stats.total.mean_latency_us,
            speedup_vs_baseline: during_skew_ops / pre_skew_ops,
        },
        ExperimentRow {
            protocol: "R-Raft 2 shards".into(),
            config: "post-cutover".into(),
            throughput_ops: post_cutover_ops,
            mean_latency_us: stats.total.mean_latency_us,
            speedup_vs_baseline: post_cutover_ops / pre_skew_ops,
        },
    ];
    RebalanceReport {
        rows,
        stats,
        pre_skew_ops,
        during_skew_ops,
        post_cutover_ops,
    }
}

/// Results of the per-shard confidentiality-policy experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConfidentialPolicyReport {
    /// One row per sweep step (0..=shards confidential); "speedup" is the
    /// step's aggregate throughput relative to the all-plaintext step.
    pub rows: Vec<ExperimentRow>,
    /// The full driver statistics of every sweep step, in step order.
    pub sweep: Vec<ShardedRunStats>,
    /// Mean service latency of the *plaintext* shards in the mixed
    /// (half-confidential) deployment divided by the same shards' latency in
    /// the all-plaintext baseline. ~1.0 means plaintext shards do not pay for
    /// their confidential neighbours.
    pub plaintext_latency_ratio: f64,
    /// Mean service latency of the *confidential* shards divided by the
    /// plaintext shards' latency within the same mixed deployment. > 1.0: the
    /// encryption cost is paid exactly where the policy asks for it.
    pub confidential_latency_overhead: f64,
}

/// Per-shard confidentiality-policy sweep (beyond the paper): four 3-replica
/// R-Raft shards under the default YCSB Zipfian workload, sweeping the number
/// of confidential shards 0 → 4 (shards `0..n` get
/// [`ShardPolicy::confidential`]). Aggregate throughput decays as more of the
/// keyspace pays the AEAD + sealed-store cost; the per-shard latency figures
/// show the cost is *per policy*: confidential shards serve slower, plaintext
/// shards match the all-plaintext baseline within noise.
///
/// The throughput sweep runs saturated (64 closed-loop clients); the latency
/// split is measured on separate low-concurrency probe runs where mean
/// latency ≈ service latency — at saturation, queueing dominates and the
/// closed loop redistributes clients towards the slow shards, which would
/// make plaintext shards look *faster* in a mixed deployment, not unchanged.
pub fn fig_confidential_policy(operations: usize) -> ConfidentialPolicyReport {
    const SHARDS: usize = 4;
    let run_step = |confidential_shards: usize, clients: usize, ops: usize| -> ShardedRunStats {
        let mut spec = DeploymentSpec::new(SHARDS, 3)
            .with_seed(7)
            .with_clients(clients, ops);
        for shard in 0..confidential_shards {
            spec = spec.with_shard_policy(shard, ShardPolicy::confidential());
        }
        let mut cluster = ShardedCluster::<RaftReplica>::build(spec);
        let workload = WorkloadSpec {
            seed: 7,
            ..WorkloadSpec::default()
        };
        let generator = RefCell::new(workload.generator());
        cluster.run_requests(move |_client, _seq| {
            Some(recipe_shard::op_from_workload(generator.borrow_mut().next_op()).into())
        })
    };

    let sweep: Vec<ShardedRunStats> = (0..=SHARDS).map(|n| run_step(n, 64, operations)).collect();
    let baseline_ops = sweep[0].total.throughput_ops;
    let rows = sweep
        .iter()
        .enumerate()
        .map(|(n, stats)| ExperimentRow {
            protocol: "R-Raft 4 shards".into(),
            config: format!("{n}/{SHARDS} confidential"),
            throughput_ops: stats.total.throughput_ops,
            mean_latency_us: stats.total.mean_latency_us,
            speedup_vs_baseline: stats.total.throughput_ops / baseline_ops,
        })
        .collect();

    // Latency split at low concurrency: shards 0..2 confidential, 2..4
    // plaintext on the mixed probe.
    let probe_ops = operations.min(600);
    let probe_baseline = run_step(0, 4, probe_ops);
    let probe_mixed = run_step(SHARDS / 2, 4, probe_ops);
    let mean_latency = |stats: &ShardedRunStats, shards: std::ops::Range<usize>| -> f64 {
        let latencies: Vec<f64> = shards
            .map(|shard| stats.per_shard[shard].mean_latency_us)
            .collect();
        latencies.iter().sum::<f64>() / latencies.len() as f64
    };
    let mixed_plain = mean_latency(&probe_mixed, SHARDS / 2..SHARDS);
    let mixed_conf = mean_latency(&probe_mixed, 0..SHARDS / 2);
    let baseline_plain = mean_latency(&probe_baseline, SHARDS / 2..SHARDS);
    ConfidentialPolicyReport {
        rows,
        sweep,
        plaintext_latency_ratio: mixed_plain / baseline_plain,
        confidential_latency_overhead: mixed_conf / mixed_plain,
    }
}

/// Results of the cross-shard transaction experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TxnReport {
    /// One row per sweep step; "speedup" is the step's aggregate throughput
    /// relative to the single-key (txn fraction 0) baseline.
    pub rows: Vec<ExperimentRow>,
    /// The full driver statistics of every sweep step, in row order.
    pub sweep: Vec<ShardedRunStats>,
    /// Aggregate ops/s of the single-key baseline (txn fraction 0).
    pub single_key_ops: f64,
}

/// Cross-shard transaction sweep (beyond the paper): four 3-replica R-Raft
/// shards — shard 0 confidential, so transactions touching it seal every 2PC
/// frame — under the deterministic multi-key workload generator
/// ([`recipe_workload::TxnWorkloadSpec`]).
///
/// Two sweeps share one deployment shape:
///
/// * **transaction fraction** 0 → 100% at fan-out 2 (3 ops per
///   transaction). The 0% step *is* the single-key baseline every other row
///   is measured against — by construction it takes exactly the
///   pre-transaction batched path.
/// * **cross-shard fan-out** 1 → 4 at a fixed 50% transaction fraction and
///   4 ops per transaction (a transaction needs at least as many ops as
///   participants, so the fan-out sweep carries one op more than the
///   fraction sweep): more participants per transaction mean more 2PC round
///   trips and more staged state before commit.
pub fn fig_txn(operations: usize) -> TxnReport {
    const SHARDS: usize = 4;
    let run_step = |txn_fraction: f64, fan_out: usize, ops_per_txn: usize| -> ShardedRunStats {
        let spec = DeploymentSpec::new(SHARDS, 3)
            .with_seed(13)
            .with_clients(48, operations)
            .with_shard_policy(0, ShardPolicy::confidential());
        let mut cluster = ShardedCluster::<RaftReplica>::build(spec);
        let router = cluster.router().clone();
        let workload = TxnWorkloadSpec {
            base: WorkloadSpec {
                seed: 13,
                read_ratio: 0.5,
                ..WorkloadSpec::default()
            },
            txn_fraction,
            ops_per_txn,
            fan_out,
        };
        let generator = RefCell::new(workload.generator());
        cluster.run_requests(move |_client, _seq| {
            let request = generator
                .borrow_mut()
                .next_request(&|key| router.shard_for_key(key));
            Some(recipe_shard::request_from_workload(request))
        })
    };

    let fractions = [0.0f64, 0.25, 0.5, 1.0];
    let fanouts = [1usize, 2, 3, 4];
    let mut rows = Vec::new();
    let mut sweep = Vec::new();
    for &fraction in &fractions {
        sweep.push(run_step(fraction, 2, 3));
    }
    let single_key_ops = sweep[0].total.throughput_ops;
    for (stats, &fraction) in sweep.iter().zip(&fractions) {
        rows.push(ExperimentRow {
            protocol: "R-Raft 4 shards".into(),
            config: format!("txn={:.0}%", fraction * 100.0),
            throughput_ops: stats.total.throughput_ops,
            mean_latency_us: stats.total.mean_latency_us,
            speedup_vs_baseline: stats.total.throughput_ops / single_key_ops,
        });
    }
    for &fan_out in &fanouts {
        let stats = run_step(0.5, fan_out, 4);
        rows.push(ExperimentRow {
            protocol: "R-Raft 4 shards".into(),
            config: format!("fanout={fan_out}"),
            throughput_ops: stats.total.throughput_ops,
            mean_latency_us: stats.total.mean_latency_us,
            speedup_vs_baseline: stats.total.throughput_ops / single_key_ops,
        });
        sweep.push(stats);
    }
    TxnReport {
        rows,
        sweep,
        single_key_ops,
    }
}

/// Results of the observability experiment: the driver statistics plus the
/// telemetry report scraped from the run (absent when telemetry was off).
#[derive(Debug)]
pub struct ObserveReport {
    /// The driver statistics of the run.
    pub stats: ShardedRunStats,
    /// Spans, metrics and per-shard cost attribution; `None` when the run
    /// was executed with telemetry disabled.
    pub telemetry: Option<TelemetryReport>,
}

/// Observability experiment: a mixed single-key / cross-shard-transaction /
/// online-migration workload on two 3-replica R-Raft shards, shard 0
/// confidential. Every 8th request is a fan-out-2 transaction through 2PC;
/// the single-key stream starts balanced and then funnels into a hot range
/// on the confidential shard so the rebalancing controller migrates it away
/// mid-run. The same seed with `telemetry` on and off produces bit-identical
/// [`ShardedRunStats`] — telemetry only observes the virtual clock.
pub fn fig_observe(operations: usize, telemetry: bool) -> ObserveReport {
    let balanced_ops = (operations * 7) / 32;
    let bucket_ns = 5_000_000u64;
    let mut spec = DeploymentSpec::new(2, 3)
        .with_seed(9)
        .with_clients(64, operations)
        .with_shard_policy(0, ShardPolicy::confidential())
        .with_rebalance(RebalanceConfig {
            check_interval_ns: 10_000_000,
            min_window_commits: 120,
            imbalance_threshold: 1.4,
            timeline_bucket_ns: bucket_ns,
            ..RebalanceConfig::enabled()
        });
    if telemetry {
        spec = spec.with_telemetry(TelemetryConfig::enabled());
    }
    let mut cluster = ShardedCluster::<RaftReplica>::build(spec);
    let hot = cluster.router().hot_range(0, 48, 2);
    let router = cluster.router().clone();
    let txn_workload = TxnWorkloadSpec {
        base: WorkloadSpec {
            seed: 9,
            read_ratio: 0.5,
            ..WorkloadSpec::default()
        },
        txn_fraction: 1.0,
        ops_per_txn: 2,
        fan_out: 2,
    };
    let generator = RefCell::new(txn_workload.generator());
    let issued = std::cell::Cell::new(0usize);
    let stats = cluster.run_requests(move |client, seq| {
        let n = issued.get();
        issued.set(n + 1);
        if n % 8 == 7 {
            let request = generator
                .borrow_mut()
                .next_request(&|key| router.shard_for_key(key));
            return Some(recipe_shard::request_from_workload(request));
        }
        let key = if n < balanced_ops {
            format!("user{:08}", (client * 131 + seq * 17) % 10_000).into_bytes()
        } else {
            hot[n % hot.len()].clone()
        };
        Some(Request::Single(Operation::Put {
            key,
            value: vec![0xAB; 64],
        }))
    });
    let telemetry = cluster.take_telemetry_report();
    ObserveReport { stats, telemetry }
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

/// Results of the crash-recovery failover experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FailoverReport {
    /// Crash-free vs crashed throughput for both scenarios; "speedup" is
    /// relative to the scenario's own crash-free twin.
    pub rows: Vec<ExperimentRow>,
    /// Crash-free transactional run (the 2PC yardstick).
    pub baseline_2pc: ShardedRunStats,
    /// The same run with the shard-0 leader crashed mid-2PC and recovered.
    pub crash_2pc: ShardedRunStats,
    /// Crash-free mixed single/txn/migration run (the migration yardstick).
    pub baseline_migration: ShardedRunStats,
    /// The same run with the donor-shard leader crashed mid-migration.
    pub crash_migration: ShardedRunStats,
    /// When the 2PC participant leader was crashed, virtual ns.
    pub crash_at_ns: u64,
    /// When it restarted (rollback-protected), virtual ns.
    pub recover_at_ns: u64,
    /// Crash until aggregate throughput climbed back to 80% of the
    /// pre-crash steady rate, from the crashed run's timeline, virtual ns.
    pub time_to_recover_ns: u64,
    /// Mean aggregate throughput of the crashed 2PC run before the crash,
    /// ops/s.
    pub steady_ops: f64,
    /// Deepest timeline bucket between the crash and the recovery point,
    /// ops/s — the throughput dip the failover machinery bounds.
    pub dip_floor_ops: f64,
}

/// Crash-recovery failover experiment (beyond the paper): kill a participant
/// group's leader and watch the fault plane put the deployment back together
/// with zero lost or duplicated commits.
///
/// Two scenarios, each measured against its own crash-free twin:
///
/// * **mid-2PC** — three 3-replica R-Raft shards under a 100%-transaction
///   workload (fan-out 2, so nearly every commit crosses shards); shard 0's
///   leader is crashed a quarter of the way through the run and restarts
///   rollback-protected halfway through. In-flight transactions park on the
///   coordinator's retry queue, the replicated prepare records let the next
///   leader adopt the staged locks, and every transaction resolves: the run
///   must end with `committed == txn.committed_ops` and no crashed nodes.
/// * **mid-migration** — the observability deployment (two shards, mixed
///   single/transaction traffic funnelling into a hot range that the
///   controller migrates off shard 0); the donor shard's leader is crashed
///   just before the baseline's cutover point. The migration must still
///   complete and the commit target must still be reached.
///
/// The crash schedule is derived from the crash-free twin's measured
/// duration, so the experiment stays meaningful across operation counts —
/// and stays deterministic, because the twin is deterministic. Runs much
/// below ~1600 operations end before the migration controller can act and
/// fail the migration-twin assertion rather than silently skipping the
/// scenario.
pub fn fig_failover(operations: usize) -> FailoverReport {
    let run_txn = |crash: Option<CrashPlan>, bucket_ns: u64| -> ShardedRunStats {
        let mut spec = DeploymentSpec::new(3, 3)
            .with_seed(17)
            .with_clients(24, operations)
            .with_timeline_bucket_ns(bucket_ns);
        if let Some(plan) = crash {
            spec = spec.with_shard_policy(0, ShardPolicy::new().with_crash_plan(plan));
        }
        let mut cluster = ShardedCluster::<RaftReplica>::build(spec);
        let router = cluster.router().clone();
        let workload = TxnWorkloadSpec {
            base: WorkloadSpec {
                seed: 17,
                read_ratio: 0.5,
                ..WorkloadSpec::default()
            },
            txn_fraction: 1.0,
            ops_per_txn: 3,
            fan_out: 2,
        };
        let generator = RefCell::new(workload.generator());
        let stats = cluster.run_requests(move |_client, _seq| {
            let request = generator
                .borrow_mut()
                .next_request(&|key| router.shard_for_key(key));
            Some(recipe_shard::request_from_workload(request))
        });
        for shard in 0..cluster.shards() {
            assert!(
                cluster.shard(shard).crashed_nodes().is_empty(),
                "shard {shard}: crashed node never recovered"
            );
        }
        stats
    };

    // Crash-free twin first: its measured duration places the crash and
    // sizes the timeline buckets for the crashed run.
    let baseline_2pc = run_txn(None, 0);
    let elapsed_ns = (baseline_2pc.total.elapsed_secs * 1e9) as u64;
    let crash_at_ns = (elapsed_ns / 4).max(100_000);
    let recover_at_ns = crash_at_ns + (elapsed_ns / 4).max(100_000);
    let bucket_ns = (elapsed_ns / 32).max(50_000);

    let crash_2pc = run_txn(
        Some(CrashPlan::none().crash_recover(NodeId(0), crash_at_ns, recover_at_ns)),
        bucket_ns,
    );
    // Zero lost, zero duplicated: the driver drained the full target and —
    // the workload being 100% transactions — every committed operation is
    // accounted to a committed transaction exactly once.
    assert!(crash_2pc.total.committed >= operations as u64);
    assert_eq!(crash_2pc.total.committed, crash_2pc.txn.committed_ops);

    // Time-to-recover off the crashed run's timeline: steady rate is the
    // mean of the buckets fully before the crash; recovery is the first
    // bucket after the crash back at 80% of it.
    let timeline = &crash_2pc.timeline;
    let pre: Vec<u64> = timeline
        .iter()
        .filter(|b| b.end_ns <= crash_at_ns)
        .map(|b| b.committed)
        .collect();
    let bucket_secs = bucket_ns as f64 / 1e9;
    let steady_buckets = if pre.is_empty() {
        crash_2pc.total.throughput_ops * bucket_secs
    } else {
        pre.iter().sum::<u64>() as f64 / pre.len() as f64
    };
    let steady_ops = steady_buckets / bucket_secs;
    let mut time_to_recover_ns = 0u64;
    let mut dip_floor_ops = steady_ops;
    for bucket in timeline.iter().filter(|b| b.end_ns > crash_at_ns) {
        dip_floor_ops = dip_floor_ops.min(bucket.committed as f64 / bucket_secs);
        if (bucket.committed as f64) >= 0.8 * steady_buckets {
            time_to_recover_ns = bucket.end_ns.saturating_sub(crash_at_ns);
            break;
        }
    }

    // Mid-migration scenario: the observability deployment, with the donor
    // shard's leader crashed shortly before the crash-free twin's cutover.
    let run_migration = |crash: Option<CrashPlan>| -> ShardedRunStats {
        let balanced_ops = (operations * 7) / 32;
        let mut spec = DeploymentSpec::new(2, 3)
            .with_seed(9)
            .with_clients(64, operations)
            .with_rebalance(RebalanceConfig {
                check_interval_ns: 10_000_000,
                min_window_commits: 120,
                imbalance_threshold: 1.4,
                timeline_bucket_ns: 5_000_000,
                ..RebalanceConfig::enabled()
            });
        if let Some(plan) = crash {
            spec = spec.with_shard_policy(0, ShardPolicy::new().with_crash_plan(plan));
        }
        let mut cluster = ShardedCluster::<RaftReplica>::build(spec);
        let hot = cluster.router().hot_range(0, 48, 2);
        let router = cluster.router().clone();
        let txn_workload = TxnWorkloadSpec {
            base: WorkloadSpec {
                seed: 9,
                read_ratio: 0.5,
                ..WorkloadSpec::default()
            },
            txn_fraction: 1.0,
            ops_per_txn: 2,
            fan_out: 2,
        };
        let generator = RefCell::new(txn_workload.generator());
        let issued = std::cell::Cell::new(0usize);
        let stats = cluster.run_requests(move |client, seq| {
            let n = issued.get();
            issued.set(n + 1);
            if n % 8 == 7 {
                let request = generator
                    .borrow_mut()
                    .next_request(&|key| router.shard_for_key(key));
                return Some(recipe_shard::request_from_workload(request));
            }
            let key = if n < balanced_ops {
                format!("user{:08}", (client * 131 + seq * 17) % 10_000).into_bytes()
            } else {
                hot[n % hot.len()].clone()
            };
            Some(Request::Single(Operation::Put {
                key,
                value: vec![0xAB; 64],
            }))
        });
        for shard in 0..cluster.shards() {
            assert!(
                cluster.shard(shard).crashed_nodes().is_empty(),
                "shard {shard}: crashed node never recovered"
            );
        }
        stats
    };

    let baseline_migration = run_migration(None);
    assert!(
        baseline_migration.migration.migrations_completed >= 1,
        "crash-free migration twin never migrated; crash placement would be meaningless"
    );
    let cutover_ns = baseline_migration.migration.last_cutover_ns;
    let migration_crash_ns = (cutover_ns * 7 / 8).max(100_000);
    let migration_recover_ns = migration_crash_ns + (cutover_ns / 4).max(100_000);
    let crash_migration = run_migration(Some(CrashPlan::none().crash_recover(
        NodeId(0),
        migration_crash_ns,
        migration_recover_ns,
    )));
    assert!(crash_migration.total.committed >= operations as u64);
    assert!(
        crash_migration.migration.migrations_completed >= 1,
        "migration did not survive the donor leader crash"
    );

    let rows = vec![
        ExperimentRow {
            protocol: "R-Raft 3 shards, 100% txn".into(),
            config: "crash-free".into(),
            throughput_ops: baseline_2pc.total.throughput_ops,
            mean_latency_us: baseline_2pc.total.mean_latency_us,
            speedup_vs_baseline: 1.0,
        },
        ExperimentRow {
            protocol: "R-Raft 3 shards, 100% txn".into(),
            config: "leader crash mid-2PC".into(),
            throughput_ops: crash_2pc.total.throughput_ops,
            mean_latency_us: crash_2pc.total.mean_latency_us,
            speedup_vs_baseline: crash_2pc.total.throughput_ops / baseline_2pc.total.throughput_ops,
        },
        ExperimentRow {
            protocol: "R-Raft 2 shards, migration".into(),
            config: "crash-free".into(),
            throughput_ops: baseline_migration.total.throughput_ops,
            mean_latency_us: baseline_migration.total.mean_latency_us,
            speedup_vs_baseline: 1.0,
        },
        ExperimentRow {
            protocol: "R-Raft 2 shards, migration".into(),
            config: "donor leader crash".into(),
            throughput_ops: crash_migration.total.throughput_ops,
            mean_latency_us: crash_migration.total.mean_latency_us,
            speedup_vs_baseline: crash_migration.total.throughput_ops
                / baseline_migration.total.throughput_ops,
        },
    ];
    FailoverReport {
        rows,
        baseline_2pc,
        crash_2pc,
        baseline_migration,
        crash_migration,
        crash_at_ns,
        recover_at_ns,
        time_to_recover_ns,
        steady_ops,
        dip_floor_ops,
    }
}

/// The summary of a `fig_failover` run: crash-free and crashed throughput
/// for both scenarios (gated) plus the recovery figures and the commit
/// counters that must stay non-degenerate.
pub fn failover_summary(report: &FailoverReport) -> BenchSummary {
    let mut summary = BenchSummary {
        bench: "fig_failover".into(),
        metrics: vec![
            BenchMetric {
                name: "crash_free_2pc_ops_per_sec".into(),
                value: report.baseline_2pc.total.throughput_ops,
            },
            BenchMetric {
                name: "leader_crash_2pc_ops_per_sec".into(),
                value: report.crash_2pc.total.throughput_ops,
            },
            BenchMetric {
                name: "crash_free_migration_ops_per_sec".into(),
                value: report.baseline_migration.total.throughput_ops,
            },
            BenchMetric {
                name: "donor_leader_crash_migration_ops_per_sec".into(),
                value: report.crash_migration.total.throughput_ops,
            },
            BenchMetric {
                name: "time_to_recover_ms".into(),
                value: report.time_to_recover_ns as f64 / 1e6,
            },
            // Deliberately not `_ops_per_sec`: the dip depth is reported,
            // not gated — it measures the outage, not a regression.
            BenchMetric {
                name: "dip_floor_ops".into(),
                value: report.dip_floor_ops,
            },
            BenchMetric {
                name: "steady_state_ops".into(),
                value: report.steady_ops,
            },
            BenchMetric {
                name: "crash_2pc_committed".into(),
                value: report.crash_2pc.total.committed as f64,
            },
            BenchMetric {
                name: "crash_2pc_txn_committed_ops".into(),
                value: report.crash_2pc.txn.committed_ops as f64,
            },
            BenchMetric {
                name: "crash_migrations_completed".into(),
                value: report.crash_migration.migration.migrations_completed as f64,
            },
        ],
    };
    summary
        .metrics
        .extend(latency_metrics("crash_2pc_", &report.crash_2pc.total));
    summary
}

/// The outcome of `fig_tenancy`: noisy-neighbour containment under the
/// tenant gateway's token-bucket admission control.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TenancyReport {
    /// Solo vs contended throughput; "speedup" is relative to the solo twin.
    pub rows: Vec<ExperimentRow>,
    /// The three well-behaved tenants running alone (the yardstick).
    pub solo: ShardedRunStats,
    /// The same quiet tenants plus a noisy tenant whose clients demand ~10×
    /// its quota, clamped by the gateway's token bucket.
    pub contained: ShardedRunStats,
    /// The quota the noisy tenant was clamped to, ops per virtual second.
    pub noisy_quota_ops_per_sec: u64,
    /// Relative p99 degradation the quiet tenants suffered:
    /// `contained_p99 / solo_p99 - 1`.
    pub p99_degradation: f64,
}

/// Runs the multi-tenant noisy-neighbour experiment: three quiet tenants
/// establish a solo baseline, then a fourth tenant joins whose closed-loop
/// demand is ~10× the quota it is granted. The gateway's deterministic token
/// bucket defers the excess before it reaches the router, so the quiet
/// tenants' p99 stays within 10% of their solo baseline — the containment
/// bound this figure asserts.
pub fn fig_tenancy(operations: usize) -> TenancyReport {
    const QUIET: [&str; 3] = ["alpha", "beta", "gamma"];
    const CLIENTS_PER_TENANT: usize = 6;
    let run = |tenants: Vec<TenantSpec>| -> ShardedRunStats {
        let count = tenants.len();
        let clients = count * CLIENTS_PER_TENANT;
        let mut gateway = GatewayConfig::enabled();
        for tenant in tenants {
            gateway = gateway.with_tenant(tenant);
        }
        let spec = DeploymentSpec::new(2, 3)
            .with_seed(23)
            .with_clients(clients, operations)
            .with_gateway(gateway);
        let mut cluster = ShardedCluster::<RaftReplica>::build(spec);
        // Every tenant runs the same YCSB mix; per-client streams derive
        // from the mix seed, so adding the noisy tenant leaves the quiet
        // tenants' request sequences untouched.
        let mix = TenantMixSpec::uniform(
            count,
            WorkloadSpec {
                seed: 23,
                ..WorkloadSpec::ycsb(0.5, 256)
            },
        );
        let generators = RefCell::new(mix.generators(clients));
        cluster.run_requests(move |client, _seq| {
            let op = generators.borrow_mut()[client as usize].next_op();
            Some(recipe_shard::request_from_workload(
                WorkloadRequest::Single(op),
            ))
        })
    };

    let solo = run(QUIET.iter().map(|n| TenantSpec::new(*n)).collect());
    // Grant the noisy tenant a tenth of one solo fair share: its six clients
    // would claim a full share if unthrottled, so demand lands at ~10× quota.
    let fair_share = solo.total.throughput_ops / QUIET.len() as f64;
    let noisy_quota = ((fair_share / 10.0).ceil() as u64).max(1);
    let mut tenants: Vec<TenantSpec> = QUIET.iter().map(|n| TenantSpec::new(*n)).collect();
    // A tight burst (not the default quota/10): the default would hand the
    // noisy tenant a free opening burst the size of a whole smoke run.
    tenants.push(
        TenantSpec::new("noisy")
            .with_quota(noisy_quota)
            .with_burst(4),
    );
    let contained = run(tenants);

    // The bucket must have actually clamped the noisy tenant...
    let noisy = contained
        .gateway
        .tenants
        .iter()
        .find(|t| t.tenant == "noisy")
        .expect("noisy tenant accounted");
    assert!(
        noisy.throttled > 0,
        "the noisy tenant was never throttled; the experiment exercised nothing"
    );
    // ...without starving it outright, and every quiet tenant kept working.
    assert!(noisy.committed_ops > 0, "noisy tenant starved to zero");
    for name in QUIET {
        let t = contained
            .gateway
            .tenants
            .iter()
            .find(|t| t.tenant == name)
            .expect("quiet tenant accounted");
        assert!(t.committed_ops > 0, "tenant {name} committed nothing");
        assert_eq!(t.rejected, 0, "tenant {name} spuriously rejected");
    }
    // The containment bound itself: the noisy tenant's 10× overload moves
    // the quiet tenants' p99 by less than 10%.
    let p99_degradation = contained.total.p99_latency_us / solo.total.p99_latency_us - 1.0;
    assert!(
        p99_degradation < 0.10,
        "noisy neighbour not contained: p99 {:.1} us -> {:.1} us (+{:.1}%)",
        solo.total.p99_latency_us,
        contained.total.p99_latency_us,
        p99_degradation * 100.0
    );

    let rows = vec![
        ExperimentRow {
            protocol: "R-Raft 2 shards, 3 tenants".into(),
            config: "solo (quiet tenants only)".into(),
            throughput_ops: solo.total.throughput_ops,
            mean_latency_us: solo.total.mean_latency_us,
            speedup_vs_baseline: 1.0,
        },
        ExperimentRow {
            protocol: "R-Raft 2 shards, 4 tenants".into(),
            config: "noisy tenant at 10x quota".into(),
            throughput_ops: contained.total.throughput_ops,
            mean_latency_us: contained.total.mean_latency_us,
            speedup_vs_baseline: contained.total.throughput_ops / solo.total.throughput_ops,
        },
    ];
    TenancyReport {
        rows,
        solo,
        contained,
        noisy_quota_ops_per_sec: noisy_quota,
        p99_degradation,
    }
}

/// The summary of a `fig_tenancy` run: solo and contended throughput
/// (gated) plus the containment figures and per-tenant admission counters.
pub fn tenancy_summary(report: &TenancyReport) -> BenchSummary {
    let mut summary = BenchSummary {
        bench: "fig_tenancy".into(),
        metrics: vec![
            BenchMetric {
                name: "solo_quiet_ops_per_sec".into(),
                value: report.solo.total.throughput_ops,
            },
            BenchMetric {
                name: "contained_ops_per_sec".into(),
                value: report.contained.total.throughput_ops,
            },
            // Informational (not `_ops_per_sec`): the quota is an input knob
            // derived from the solo run, not a measured rate to gate.
            BenchMetric {
                name: "noisy_quota_ops".into(),
                value: report.noisy_quota_ops_per_sec as f64,
            },
            BenchMetric {
                name: "p99_degradation_pct".into(),
                value: report.p99_degradation * 100.0,
            },
        ],
    };
    for t in &report.contained.gateway.tenants {
        summary.metrics.push(BenchMetric {
            name: format!("{}_committed_ops", metric_slug(&t.tenant)),
            value: t.committed_ops as f64,
        });
        summary.metrics.push(BenchMetric {
            name: format!("{}_throttled", metric_slug(&t.tenant)),
            value: t.throttled as f64,
        });
    }
    summary
        .metrics
        .extend(latency_metrics("solo_", &report.solo.total));
    summary
        .metrics
        .extend(latency_metrics("contained_", &report.contained.total));
    summary
}

/// The summary of a `fig_txn` run: aggregate ops/s per sweep step (gated)
/// plus the transaction counters that must stay non-degenerate.
pub fn txn_summary(report: &TxnReport) -> BenchSummary {
    let mut metrics: Vec<BenchMetric> = report
        .rows
        .iter()
        .map(|row| BenchMetric {
            name: format!("{}_ops_per_sec", metric_slug(&row.config)),
            value: row.throughput_ops,
        })
        .collect();
    metrics.push(BenchMetric {
        name: "txns_committed".into(),
        value: report
            .sweep
            .iter()
            .map(|s| s.txn.committed as f64)
            .sum::<f64>(),
    });
    metrics.push(BenchMetric {
        name: "txns_aborted".into(),
        value: report
            .sweep
            .iter()
            .map(|s| s.txn.aborted as f64)
            .sum::<f64>(),
    });
    metrics.push(BenchMetric {
        name: "sealed_2pc_frames".into(),
        value: report
            .sweep
            .iter()
            .map(|s| s.txn.sealed_frames as f64)
            .sum::<f64>(),
    });
    metrics.push(BenchMetric {
        name: "cross_shard_committed".into(),
        value: report
            .sweep
            .iter()
            .map(|s| s.txn.cross_shard_committed as f64)
            .sum::<f64>(),
    });
    metrics.push(BenchMetric {
        name: "committed".into(),
        value: report
            .sweep
            .iter()
            .map(|s| s.total.committed as f64)
            .sum::<f64>(),
    });
    for (row, stats) in report.rows.iter().zip(&report.sweep) {
        metrics.extend(latency_metrics(
            &format!("{}_", metric_slug(&row.config)),
            &stats.total,
        ));
    }
    BenchSummary {
        bench: "fig_txn".into(),
        metrics,
    }
}

/// The summary of a `fig_confidential_policy` run: aggregate ops/s per sweep
/// step (gated) plus the latency-split ratios (informational).
pub fn confidential_policy_summary(report: &ConfidentialPolicyReport) -> BenchSummary {
    let mut metrics: Vec<BenchMetric> = report
        .rows
        .iter()
        .enumerate()
        .map(|(n, row)| BenchMetric {
            name: format!("conf_shards_{n}_of_4_ops_per_sec"),
            value: row.throughput_ops,
        })
        .collect();
    metrics.push(BenchMetric {
        name: "plaintext_latency_ratio".into(),
        value: report.plaintext_latency_ratio,
    });
    metrics.push(BenchMetric {
        name: "confidential_latency_overhead".into(),
        value: report.confidential_latency_overhead,
    });
    metrics.push(BenchMetric {
        name: "committed".into(),
        value: report
            .sweep
            .iter()
            .map(|s| s.total.committed as f64)
            .sum::<f64>(),
    });
    for (n, stats) in report.sweep.iter().enumerate() {
        metrics.extend(latency_metrics(
            &format!("conf_shards_{n}_of_4_"),
            &stats.total,
        ));
    }
    BenchSummary {
        bench: "fig_confidential_policy".into(),
        metrics,
    }
}

/// Runs one sharded configuration: `shards` groups of 3 replicas, a global
/// closed-loop client population and the default YCSB Zipfian workload.
pub fn run_sharded(protocol: Protocol, shards: usize, operations: usize) -> ShardedRunStats {
    struct Run(DeploymentSpec);
    impl ProtocolVisitor for Run {
        type Output = ShardedRunStats;
        fn visit<R: BuildReplica>(self) -> ShardedRunStats {
            let workload = WorkloadSpec {
                seed: 7,
                ..WorkloadSpec::default()
            };
            let mut generator = workload.generator();
            ShardedCluster::<R>::build(self.0).run_requests(move |_client, _seq| {
                Some(recipe_shard::op_from_workload(generator.next_op()).into())
            })
        }
    }
    // Enough concurrency that a single leader saturates; fixed across shard
    // counts so the sweep measures service capacity, not load.
    let spec = DeploymentSpec::new(shards, 3)
        .with_seed(7)
        .with_clients(64, operations);
    recipe_bft::dispatch(protocol, Run(spec))
}

/// Table 4: end-to-end attestation latency through the Recipe CAS vs through the
/// vendor IAS, averaged over `rounds` attestations each.
pub fn table4_attestation(rounds: usize) -> Vec<(String, f64, f64)> {
    use recipe_tee::{EnclaveConfig, EnclaveId};

    fn run_path<V: QuoteVerifier>(verifier: &mut V, rounds: usize) -> f64 {
        use rand::SeedableRng;
        use recipe_tee::{Enclave, EnclaveConfig, EnclaveId};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let mut total_ns = 0u64;
        for i in 0..rounds {
            let mut enclave = Enclave::launch(
                EnclaveId(i as u64),
                EnclaveConfig::new("recipe-replica-v1", 1),
            );
            let bundle = SecretBundle {
                node_id: i as u64,
                signing_seed: vec![7u8; 32],
                channel_keys: Default::default(),
                cipher_key: None,
                config: recipe_attest::ClusterConfig::for_replicas(3, 1, "recipe-replica-v1"),
            };
            let outcome =
                recipe_attest::run_remote_attestation(verifier, &mut enclave, &bundle, &mut rng)
                    .expect("attestation succeeds");
            total_ns += outcome.latency_ns;
        }
        total_ns as f64 / rounds as f64 / 1e9
    }

    // Both services must trust platform 1's vendor key.
    let vendor =
        recipe_tee::Enclave::launch(EnclaveId(1000), EnclaveConfig::new("recipe-replica-v1", 1))
            .platform_vendor_key();
    let mut cas = ConfigAndAttestService::new(vec![(1, vendor)], 5);
    let mut ias = IntelAttestationService::new(vec![(1, vendor)], 5);
    let cas_mean = run_path(&mut cas, rounds);
    let ias_mean = run_path(&mut ias, rounds);
    vec![
        ("Recipe CAS".to_string(), cas_mean, ias_mean / cas_mean),
        ("IAS".to_string(), ias_mean, 1.0),
    ]
}

// ---------------------------------------------------------------------------
// Machine-readable summaries + CI perf-regression gate
// ---------------------------------------------------------------------------

/// One named figure of a benchmark summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchMetric {
    /// Metric name; names ending in `_ops_per_sec` are gated (higher is
    /// better) by [`perf_gate_compare`].
    pub name: String,
    /// Measured value.
    pub value: f64,
}

/// Machine-readable summary one benchmark run emits as `BENCH_<name>.json`.
/// The simulator is deterministic, so the checked-in baselines under
/// `crates/bench/baselines/` reproduce bit-for-bit on any machine; the CI
/// perf gate compares a fresh smoke run against them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchSummary {
    /// Benchmark name (e.g. `fig_batching`).
    pub bench: String,
    /// The summary figures.
    pub metrics: Vec<BenchMetric>,
}

impl BenchSummary {
    /// Looks up a metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
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
/// run's latency distribution. Percentile names never end in `_ops_per_sec`,
/// so the perf gate treats them as informational, not gated.
pub fn latency_metrics(prefix: &str, stats: &RunStats) -> Vec<BenchMetric> {
    [
        ("p50_us", stats.p50_latency_us),
        ("p90_us", stats.p90_latency_us),
        ("p99_us", stats.p99_latency_us),
        ("p999_us", stats.p999_latency_us),
    ]
    .into_iter()
    .map(|(name, value)| BenchMetric {
        name: format!("{prefix}{name}"),
        value,
    })
    .collect()
}

/// The committed-ops/sec summary of a `fig_batching` run: one metric per
/// (protocol, batch-size) row, plus the row's latency percentiles.
pub fn batching_summary(report: &BatchingReport) -> BenchSummary {
    let mut metrics: Vec<BenchMetric> = report
        .rows
        .iter()
        .map(|row| BenchMetric {
            name: format!(
                "{}_{}_ops_per_sec",
                metric_slug(&row.protocol),
                metric_slug(&row.config)
            ),
            value: row.throughput_ops,
        })
        .collect();
    for (row, stats) in report.rows.iter().zip(&report.stats) {
        metrics.extend(latency_metrics(
            &format!(
                "{}_{}_",
                metric_slug(&row.protocol),
                metric_slug(&row.config)
            ),
            stats,
        ));
    }
    BenchSummary {
        bench: "fig_batching".into(),
        metrics,
    }
}

/// The summary of a `fig_rebalance` run: phase throughputs, the recovery
/// ratio and the migration counters that must stay non-degenerate.
pub fn rebalance_summary(report: &RebalanceReport) -> BenchSummary {
    let mut summary = BenchSummary {
        bench: "fig_rebalance".into(),
        metrics: vec![
            BenchMetric {
                name: "pre_skew_ops_per_sec".into(),
                value: report.pre_skew_ops,
            },
            BenchMetric {
                name: "during_skew_ops_per_sec".into(),
                value: report.during_skew_ops,
            },
            BenchMetric {
                name: "post_cutover_ops_per_sec".into(),
                value: report.post_cutover_ops,
            },
            BenchMetric {
                name: "recovery_ratio".into(),
                // Guarded: a degenerate (tiny) run can have a zero pre-skew
                // phase, and a non-finite value would serialize as JSON null.
                value: if report.pre_skew_ops > 0.0 {
                    report.post_cutover_ops / report.pre_skew_ops
                } else {
                    0.0
                },
            },
            BenchMetric {
                name: "migrations_completed".into(),
                value: report.stats.migration.migrations_completed as f64,
            },
            BenchMetric {
                name: "committed".into(),
                value: report.stats.total.committed as f64,
            },
        ],
    };
    summary
        .metrics
        .extend(latency_metrics("total_", &report.stats.total));
    summary
}

/// Writes a summary as pretty JSON to `path`.
pub fn write_summary(path: &str, summary: &BenchSummary) -> std::io::Result<()> {
    let json = serde_json::to_string_pretty(summary)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(path, json)
}

/// Compares a fresh run against a checked-in baseline: every `*_ops_per_sec`
/// metric of the baseline must be present and no more than `tolerance`
/// (fraction) below the baseline value. Returns the violations,
/// human-readable; empty means the gate passes. Improvements never fail.
pub fn perf_gate_compare(
    baseline: &BenchSummary,
    current: &BenchSummary,
    tolerance: f64,
) -> Vec<String> {
    let mut violations = Vec::new();
    for metric in &baseline.metrics {
        if !metric.name.ends_with("_ops_per_sec") {
            continue;
        }
        match current.metric(&metric.name) {
            None => violations.push(format!(
                "{}: metric {} missing from the current run",
                baseline.bench, metric.name
            )),
            Some(value) if value < metric.value * (1.0 - tolerance) => {
                violations.push(format!(
                    "{}: {} regressed {:.1}% ({:.0} -> {:.0} ops/s, tolerance {:.0}%)",
                    baseline.bench,
                    metric.name,
                    (1.0 - value / metric.value) * 100.0,
                    metric.value,
                    value,
                    tolerance * 100.0
                ));
            }
            Some(_) => {}
        }
    }
    violations
}

/// Pretty-prints experiment rows as an aligned text table.
pub fn print_rows(title: &str, rows: &[ExperimentRow]) {
    println!("\n=== {title} ===");
    println!(
        "{:<22} {:>12} {:>16} {:>14} {:>10}",
        "protocol", "config", "throughput(op/s)", "latency(us)", "speedup"
    );
    for row in rows {
        println!(
            "{:<22} {:>12} {:>16.0} {:>14.1} {:>9.2}x",
            row.protocol,
            row.config,
            row.throughput_ops,
            row.mean_latency_us,
            row.speedup_vs_baseline
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OPS: usize = 400;

    #[test]
    fn recipe_protocols_beat_pbft_on_a_mixed_workload() {
        let pbft = run_protocol(&ExperimentConfig {
            protocol: Protocol::Pbft,
            operations: OPS,
            ..ExperimentConfig::default()
        });
        for kind in RECIPE_PROTOCOLS {
            let stats = run_protocol(&ExperimentConfig {
                protocol: kind,
                operations: OPS,
                ..ExperimentConfig::default()
            });
            let speedup = stats.throughput_ops / pbft.throughput_ops;
            assert!(
                speedup > 2.0,
                "{} only {speedup:.2}x faster than PBFT",
                kind.display_name()
            );
        }
    }

    #[test]
    fn confidentiality_costs_throughput_but_still_beats_pbft() {
        let plain = run_protocol(&ExperimentConfig {
            protocol: Protocol::Chain,
            operations: OPS,
            ..ExperimentConfig::default()
        });
        let confidential = run_protocol(&ExperimentConfig {
            protocol: Protocol::Chain,
            mode: recipe_mode(true),
            operations: OPS,
            ..ExperimentConfig::default()
        });
        let pbft = run_protocol(&ExperimentConfig {
            protocol: Protocol::Pbft,
            operations: OPS,
            ..ExperimentConfig::default()
        });
        assert!(confidential.throughput_ops <= plain.throughput_ops);
        assert!(confidential.throughput_ops > pbft.throughput_ops);
    }

    #[test]
    fn native_protocols_are_faster_than_their_recipe_versions() {
        let recipe = run_protocol(&ExperimentConfig {
            protocol: Protocol::Raft,
            operations: OPS,
            ..ExperimentConfig::default()
        });
        let native = run_protocol(&ExperimentConfig {
            protocol: Protocol::Raft,
            mode: ProtocolMode::Native,
            operations: OPS,
            ..ExperimentConfig::default()
        });
        let overhead = native.throughput_ops / recipe.throughput_ops;
        assert!(
            (1.2..=20.0).contains(&overhead),
            "overhead factor was {overhead:.2}"
        );
    }

    #[test]
    fn value_size_degrades_recipe_throughput() {
        let small = run_protocol(&ExperimentConfig {
            protocol: Protocol::Raft,
            read_ratio: 0.9,
            value_size: 256,
            operations: OPS,
            ..ExperimentConfig::default()
        });
        let large = run_protocol(&ExperimentConfig {
            protocol: Protocol::Raft,
            read_ratio: 0.9,
            value_size: 4096,
            operations: OPS,
            ..ExperimentConfig::default()
        });
        assert!(large.throughput_ops < small.throughput_ops);
    }

    #[test]
    fn table4_shows_the_cas_latency_advantage() {
        let rows = table4_attestation(20);
        let cas = &rows[0];
        let ias = &rows[1];
        assert!(cas.1 < ias.1);
        assert!(
            (10.0..=30.0).contains(&cas.2),
            "CAS speedup was {:.1}x",
            cas.2
        );
    }

    #[test]
    fn shard_scaling_doubles_r_raft_throughput_at_four_shards() {
        let rows = fig_shard_scaling(600);
        let speedup_of = |protocol: &str, config: &str| {
            rows.iter()
                .find(|r| r.protocol == protocol && r.config == config)
                .map(|r| r.speedup_vs_baseline)
                .unwrap()
        };
        assert_eq!(speedup_of("R-Raft", "1 shard"), 1.0);
        assert!(
            speedup_of("R-Raft", "4 shards") >= 2.0,
            "R-Raft 4-shard speedup {:.2}",
            speedup_of("R-Raft", "4 shards")
        );
        assert!(
            speedup_of("R-ABD", "4 shards") >= 2.0,
            "R-ABD 4-shard speedup {:.2}",
            speedup_of("R-ABD", "4 shards")
        );
        // More shards never hurt aggregate throughput in this sweep.
        for protocol in ["R-Raft", "R-ABD"] {
            assert!(speedup_of(protocol, "8 shards") > speedup_of(protocol, "4 shards"));
        }
    }

    #[test]
    fn batching_recovers_the_confidential_mode_tax() {
        // The perf-gate smoke size, so the assertion reads the run the
        // checked-in baseline pins. On the binary wire form the steady-state
        // gain of batch=16 is 1.95-1.97x (400-1200 ops): a single confidential
        // frame no longer pays for a JSON nesting level that batch frames
        // never had.
        let rows = fig_batching(80);
        let speedup_of = |protocol: &str, config: &str| {
            rows.iter()
                .find(|r| r.protocol == protocol && r.config == config)
                .map(|r| r.speedup_vs_baseline)
                .unwrap()
        };
        // The headline acceptance number: confidential R-Raft doubles (or
        // better) its per-leader committed-ops/sec at batch=16.
        assert_eq!(speedup_of("R-Raft (conf.)", "batch=1"), 1.0);
        let conf_16 = speedup_of("R-Raft (conf.)", "batch=16");
        assert!(conf_16 >= 2.0, "confidential batch=16 speedup {conf_16:.2}");
        // Bigger batches never hurt in this sweep, and the native baseline
        // gains too (less, since it never paid the shield overhead).
        assert!(speedup_of("R-Raft (conf.)", "batch=64") >= conf_16 * 0.9);
        let native_16 = speedup_of("Raft (native)", "batch=16");
        assert!(native_16 > 1.0, "native batch=16 speedup {native_16:.2}");
        assert!(native_16 < conf_16);
    }

    #[test]
    fn rebalance_recovers_throughput_with_zero_lost_commits() {
        // The default experiment size: small runs leave the post-cutover
        // window too short to average over.
        let operations = 3_200;
        let report = fig_rebalance(operations);
        // Zero lost / duplicated commits across the migration.
        assert_eq!(report.stats.total.committed, operations as u64);
        assert_eq!(
            report
                .stats
                .per_shard
                .iter()
                .map(|s| s.committed)
                .sum::<u64>(),
            report.stats.total.committed
        );
        // The migration ran, moved sealed bytes, and redirected clients.
        let m = &report.stats.migration;
        assert!(m.migrations_completed >= 1, "{m:?}");
        assert!(m.snapshot_bytes > 0 && m.redirects > 0, "{m:?}");
        // The skew depressed aggregate throughput; the cutover recovered it
        // to within 10% of the pre-skew level (the acceptance bar).
        assert!(
            report.during_skew_ops < 0.75 * report.pre_skew_ops,
            "skew never bit: pre {:.0} during {:.0}",
            report.pre_skew_ops,
            report.during_skew_ops
        );
        assert!(
            report.post_cutover_ops >= 0.9 * report.pre_skew_ops,
            "no recovery: pre {:.0} post {:.0}",
            report.pre_skew_ops,
            report.post_cutover_ops
        );
    }

    #[test]
    fn confidential_shards_pay_the_policy_cost_and_plaintext_shards_do_not() {
        let report = fig_confidential_policy(600);
        // Every sweep step committed exactly the asked-for operations — no
        // policy mix loses or duplicates commits.
        for stats in &report.sweep {
            assert_eq!(stats.total.committed, 600);
            assert_eq!(
                stats.per_shard.iter().map(|s| s.committed).sum::<u64>(),
                stats.total.committed
            );
        }
        // Aggregate throughput decays as the confidential fraction grows: the
        // all-confidential step is strictly slower than the all-plaintext
        // baseline, and the mixed steps sit in between (loosely — routing
        // noise can wobble neighbouring steps).
        let first = report.rows.first().unwrap().throughput_ops;
        let last = report.rows.last().unwrap().throughput_ops;
        assert!(
            last < first,
            "confidentiality should cost throughput: {first:.0} -> {last:.0} ops/s"
        );
        for row in &report.rows {
            assert!(
                row.throughput_ops <= first * 1.05 && row.throughput_ops >= last * 0.95,
                "step {} out of band: {:.0} ops/s (bounds {:.0}..{:.0})",
                row.config,
                row.throughput_ops,
                last * 0.95,
                first * 1.05
            );
        }
        // The cost lands exactly where the policy asks: confidential shards
        // serve slower than their plaintext neighbours, while the plaintext
        // shards match the all-plaintext baseline within noise. The margin is
        // the encryption pass alone (0.6 % at these 256 B values): a sealed
        // frame is as long as a plaintext one, so it pays no more transport
        // or MAC — it was 2.8 % while every sealed frame also carried the
        // cipher's own 48-byte nonce and tag.
        assert!(
            report.confidential_latency_overhead > 1.003,
            "confidential shards show no overhead: {:.4}",
            report.confidential_latency_overhead
        );
        assert!(
            (0.9..=1.1).contains(&report.plaintext_latency_ratio),
            "plaintext shards drifted from the baseline: {:.3}",
            report.plaintext_latency_ratio
        );
        // The summary exposes one gated metric per sweep step.
        let summary = confidential_policy_summary(&report);
        assert_eq!(
            summary
                .metrics
                .iter()
                .filter(|m| m.name.ends_with("_ops_per_sec"))
                .count(),
            5
        );
        assert!(summary.metric("conf_shards_0_of_4_ops_per_sec").unwrap() > 0.0);
    }

    #[test]
    fn bench_summaries_and_perf_gate_catch_regressions() {
        let report = BatchingReport {
            rows: vec![ExperimentRow {
                protocol: "R-Raft (conf.)".into(),
                config: "batch=16".into(),
                throughput_ops: 1000.0,
                mean_latency_us: 10.0,
                speedup_vs_baseline: 2.0,
            }],
            stats: vec![RunStats::default()],
        };
        let baseline = batching_summary(&report);
        assert_eq!(baseline.metrics[0].name, "r_raft_conf_batch_16_ops_per_sec");
        // Identical run: gate passes.
        assert!(perf_gate_compare(&baseline, &baseline, 0.15).is_empty());
        // Small wobble within tolerance: passes. Improvement: passes.
        let mut wobble = baseline.clone();
        wobble.metrics[0].value = 900.0;
        assert!(perf_gate_compare(&baseline, &wobble, 0.15).is_empty());
        wobble.metrics[0].value = 2000.0;
        assert!(perf_gate_compare(&baseline, &wobble, 0.15).is_empty());
        // >15% regression: fails with a readable message.
        let mut regressed = baseline.clone();
        regressed.metrics[0].value = 800.0;
        let violations = perf_gate_compare(&baseline, &regressed, 0.15);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("regressed 20.0%"), "{violations:?}");
        // Missing metric: fails.
        let empty = BenchSummary {
            bench: "fig_batching".into(),
            metrics: vec![],
        };
        assert_eq!(perf_gate_compare(&baseline, &empty, 0.15).len(), 1);
        // Non-throughput metrics are informational, never gated.
        let info = BenchSummary {
            bench: "x".into(),
            metrics: vec![BenchMetric {
                name: "recovery_ratio".into(),
                value: 1.0,
            }],
        };
        assert!(perf_gate_compare(&info, &empty, 0.15).is_empty());
        // Summaries survive a JSON round trip (what the gate bin does).
        let json = serde_json::to_string_pretty(&baseline).unwrap();
        let back: BenchSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, baseline);
    }

    #[test]
    fn fig6b_orders_the_five_stacks_correctly() {
        let rows = fig6b_network();
        let at = |name: &str, size: usize| {
            rows.iter()
                .find(|(n, s, _)| n == name && *s == size)
                .map(|(_, _, gbps)| *gbps)
                .unwrap()
        };
        for size in [256, 1024, 4096] {
            assert!(at("direct I/O", size) > at("kernel-net", size));
            assert!(at("kernel-net", size) > at("kernel-net (TEEs)", size));
            assert!(at("Recipe-lib (net)", size) > at("kernel-net (TEEs)", size));
            assert!(at("direct I/O (TEEs)", size) >= at("Recipe-lib (net)", size));
        }
    }
}
