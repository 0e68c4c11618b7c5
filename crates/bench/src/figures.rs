//! The figure registry, and the run function and claims behind each entry.
//!
//! A figure that derives a second run from a first — the failover crash
//! placed by the crash-free twin's duration, the noisy tenant's quota sized
//! by the solo run, the rebalancing phase means read off the timeline — does
//! so in straight-line Rust inside its run function: the registry holds
//! functions, not a schedule.

use recipe_attest::{ConfigAndAttestService, IntelAttestationService, QuoteVerifier, SecretBundle};
use recipe_core::{Operation, Request};
use recipe_gateway::{GatewayConfig, TenantSpec};
use recipe_net::{CrashPlan, ExecMode, NetCostModel, NodeId, Transport};
use recipe_protocols::{Protocol, ProtocolMode, RaftReplica};
use recipe_scenario::WorkloadKind;
use recipe_shard::{
    request_from_workload, DeploymentSpec, RebalanceConfig, ShardPolicy, ShardRouter,
    ShardedCluster, ShardedRunStats,
};
use recipe_telemetry::{TelemetryConfig, TelemetryReport};
use recipe_workload::{
    TenantMixSpec, TxnWorkloadGenerator, TxnWorkloadSpec, WorkloadRequest, WorkloadSpec,
};

use crate::claims::{metric, ratio, Band, Claim, Op, Term};
use crate::{
    drive, metric_slug, recipe_mode, row_key, run_protocol, run_sharded, ycsb, BenchSummary,
    ExperimentConfig, ExperimentRow, Figure,
};

/// One runnable experiment: what `fig <name>` runs and `BENCH_<name>.json`
/// pins.
pub struct FigureSpec {
    /// Registry name: the `fig` argument and the baseline's file stem.
    pub name: &'static str,
    /// Heading printed above the rows.
    pub title: &'static str,
    /// Operation count of a plain `fig <name>` (attestation rounds for
    /// Table 4; ignored by the tables that run nothing).
    pub default_ops: usize,
    /// Operation count of the CI smoke run the committed baseline was taken
    /// at.
    pub smoke_ops: usize,
    /// Runs the experiment at an operation count.
    pub run: fn(usize) -> Figure,
    /// What the figure's summary must show; judged on the committed
    /// baselines by [`crate::judge`].
    pub(crate) claims: fn() -> Vec<Claim>,
}

impl FigureSpec {
    /// The registered figure called `name`.
    pub fn find(name: &str) -> Option<&'static FigureSpec> {
        FIGURES.iter().find(|figure| figure.name == name)
    }

    /// The summary of one of this figure's runs, as `BENCH_<name>.json`
    /// holds it.
    pub fn summary(&self, figure: &Figure) -> BenchSummary {
        figure.summary(&format!("fig_{}", self.name))
    }
}

/// Every figure and table, the paper's first and in its order.
pub const FIGURES: &[FigureSpec] = &[
    FigureSpec {
        name: "fig3",
        title: "Figure 3: throughput vs value size (90% R)",
        default_ops: 1_500,
        smoke_ops: 400,
        run: |ops| paper(ops, value_sizes(&[256, 1024, 4096], 0.9), PBFT, false),
        claims: fig3_claims,
    },
    FigureSpec {
        name: "fig4",
        title: "Figure 4: R-protocols vs PBFT across R/W ratios (256 B values)",
        default_ops: 1_500,
        smoke_ops: 400,
        run: |ops| paper(ops, read_ratios(&FIG4_RATIOS, ""), PBFT, false),
        claims: fig4_claims,
    },
    FigureSpec {
        name: "fig5",
        title: "Figure 5: Recipe with confidentiality vs PBFT",
        default_ops: 1_500,
        smoke_ops: 400,
        run: |ops| paper(ops, read_ratios(&[0.5, 0.95], " (conf.)"), PBFT, true),
        claims: fig5_claims,
    },
    FigureSpec {
        name: "fig6a",
        title: "Figure 6a: transformation + TEE overhead (speedup column = native/R- factor)",
        default_ops: 1_500,
        smoke_ops: 400,
        run: |ops| {
            paper(
                ops,
                read_ratios(&FIG4_RATIOS, ""),
                Baseline::NativeTwin,
                false,
            )
        },
        claims: fig6a_claims,
    },
    FigureSpec {
        name: "fig6b",
        title: "Figure 6b: network stack goodput (Gb/s)",
        default_ops: 0,
        smoke_ops: 0,
        run: fig6b_network,
        claims: fig6b_claims,
    },
    FigureSpec {
        name: "table2",
        title: "Table 2: protocol properties",
        default_ops: 0,
        smoke_ops: 0,
        run: table2_protocol_properties,
        claims: table2_claims,
    },
    FigureSpec {
        name: "table4",
        title: "Table 4: attestation latency",
        default_ops: 100,
        smoke_ops: 20,
        run: table4_attestation,
        claims: table4_claims,
    },
    FigureSpec {
        name: "damysus",
        title: "Recipe vs Damysus (speedup relative to Damysus @ 256 B)",
        default_ops: 1_500,
        smoke_ops: 400,
        run: damysus_compare,
        claims: damysus_claims,
    },
    FigureSpec {
        name: "shard_scaling",
        title: "Shard scaling: R-Raft / R-ABD across 1-8 shards (YCSB Zipfian, 50% R)",
        default_ops: 1_200,
        smoke_ops: 600,
        run: fig_shard_scaling,
        claims: shard_scaling_claims,
    },
    FigureSpec {
        name: "batching",
        title: "Leader batching: Raft (native) / R-Raft (confidential), batch sizes 1-64 \
                (write-only, 64 B)",
        default_ops: 1_200,
        smoke_ops: 80,
        run: fig_batching,
        claims: batching_claims,
    },
    FigureSpec {
        name: "rebalance",
        title: "Online rebalancing: R-Raft 2 shards, skewed hot range migrated to the idle shard",
        default_ops: 3_200,
        smoke_ops: 3_200,
        run: fig_rebalance,
        claims: rebalance_claims,
    },
    FigureSpec {
        name: "confidential_policy",
        title: "Per-shard confidentiality policies: R-Raft 4 shards, confidential fraction \
                0 -> 100%",
        default_ops: 1_500,
        smoke_ops: 800,
        run: fig_confidential_policy,
        claims: confidential_policy_claims,
    },
    FigureSpec {
        name: "txn",
        title: "Cross-shard transactions: R-Raft 4 shards (shard 0 confidential), txn \
                fraction 0-100%, fan-out 1-4",
        default_ops: 1_200,
        smoke_ops: 600,
        run: fig_txn,
        claims: txn_claims,
    },
    FigureSpec {
        name: "failover",
        title: "Crash-recovery failover: participant leader killed mid-2PC and mid-migration",
        default_ops: 2_400,
        smoke_ops: 2_400,
        run: fig_failover,
        claims: failover_claims,
    },
    FigureSpec {
        name: "tenancy",
        title: "Multi-tenant gateway: noisy-neighbour containment via token-bucket admission",
        default_ops: 1_500,
        smoke_ops: 1_500,
        run: fig_tenancy,
        claims: tenancy_claims,
    },
];

// ---------------------------------------------------------------------------
// The paper's sweeps: points × protocols against a baseline run
// ---------------------------------------------------------------------------

/// The four protocols the paper transforms, in the order its figures list
/// them.
const RECIPE_PROTOCOLS: [Protocol; 4] = [
    Protocol::Raft,
    Protocol::Chain,
    Protocol::AllConcur,
    Protocol::Abd,
];

/// What the rows of a sweep are measured against.
#[derive(Clone, Copy)]
enum Baseline {
    /// One run of this protocol per point, shown as the point's first row;
    /// a row's speedup is its throughput over the baseline's.
    Shown(Protocol),
    /// Each protocol's own native run, not shown; the "speedup" is the
    /// overhead factor, native throughput over the row's.
    NativeTwin,
}

const PBFT: Baseline = Baseline::Shown(Protocol::Pbft);

/// The read ratios of Figs. 4 and 6a.
const FIG4_RATIOS: [f64; 5] = [0.5, 0.75, 0.9, 0.95, 0.99];

/// One point of a sweep's workload axis.
struct Point {
    label: String,
    read_ratio: f64,
    value_size: usize,
}

/// Read-ratio points at the standard 256 B values.
fn read_ratios(ratios: &[f64], suffix: &str) -> Vec<Point> {
    let point = |&read_ratio: &f64| Point {
        label: format!("{:.0}% R{suffix}", read_ratio * 100.0),
        read_ratio,
        value_size: 256,
    };
    ratios.iter().map(point).collect()
}

/// Value-size points at one read ratio.
fn value_sizes(sizes: &[usize], read_ratio: f64) -> Vec<Point> {
    let point = |&value_size: &usize| Point {
        label: format!("{value_size} B"),
        read_ratio,
        value_size,
    };
    sizes.iter().map(point).collect()
}

/// Runs `protocols` (Recipe-transformed, confidential or not) at every point
/// and measures each against the point's baseline run.
fn sweep(
    operations: usize,
    points: &[Point],
    baseline: Baseline,
    protocols: &[Protocol],
    confidential: bool,
) -> Vec<ExperimentRow> {
    let mut rows = Vec::new();
    for point in points {
        let run = |protocol, mode| {
            run_protocol(&ExperimentConfig {
                protocol,
                mode,
                read_ratio: point.read_ratio,
                value_size: point.value_size,
                operations,
                ..ExperimentConfig::default()
            })
        };
        let name = |protocol| recipe_name(protocol, confidential);
        let label = point.label.as_str();
        let shown = match baseline {
            Baseline::Shown(protocol) => {
                let stats = run(protocol, recipe_mode(false));
                let own = stats.throughput_ops;
                let name = protocol.display_name();
                rows.push(ExperimentRow::measured(name, label, &stats, own));
                Some(own)
            }
            Baseline::NativeTwin => None,
        };
        for &protocol in protocols {
            let stats = run(protocol, recipe_mode(confidential));
            rows.push(match shown {
                Some(baseline_ops) => {
                    ExperimentRow::measured(name(protocol), label, &stats, baseline_ops)
                }
                None => {
                    let native = run(protocol, ProtocolMode::Native);
                    let overhead = native.throughput_ops / stats.throughput_ops;
                    let (ops, latency) = (stats.throughput_ops, stats.mean_latency_us);
                    ExperimentRow::new(name(protocol), label, ops, latency, overhead)
                }
            });
        }
    }
    rows
}

/// A transformed protocol's row label.
fn recipe_name(protocol: Protocol, confidential: bool) -> String {
    let suffix = if confidential { " (conf.)" } else { "" };
    format!("{}{suffix}", protocol.display_name())
}

/// One of the paper's sweeps of the four transformed protocols, as a figure.
fn paper(operations: usize, points: Vec<Point>, baseline: Baseline, confidential: bool) -> Figure {
    let rows = sweep(
        operations,
        &points,
        baseline,
        &RECIPE_PROTOCOLS,
        confidential,
    );
    Figure::of_rows(rows)
}

/// The Damysus comparison of §B.3: Damysus at 0 B / 64 B / 256 B payloads, and
/// the Recipe protocols at their standard 256 B against Damysus at that size.
fn damysus_compare(operations: usize) -> Figure {
    let damysus = Baseline::Shown(Protocol::Damysus);
    let small = value_sizes(&[1, 64], 0.5);
    let mut rows = sweep(operations, &small, damysus, &[], false);
    let standard = value_sizes(&[256], 0.5);
    let protocols = &RECIPE_PROTOCOLS;
    rows.extend(sweep(operations, &standard, damysus, protocols, false));
    Figure::of_rows(rows)
}

/// Figure 6b: network-stack goodput (Gb/s) vs payload size for the five stacks.
fn fig6b_network(_operations: usize) -> Figure {
    let model = NetCostModel::CALIBRATED;
    let mut figure = Figure::default();
    let header = format!("{:<20} {:>10} {:>12}", "stack", "payload(B)", "Gb/s");
    figure.note(header);
    for size in [64usize, 256, 1024, 1460, 2048, 4096] {
        let stack = |transport, mode| model.throughput_gbps(transport, mode, size);
        let stacks = [
            (
                "kernel-net",
                stack(Transport::KernelSockets, ExecMode::Native),
            ),
            ("direct I/O", stack(Transport::DirectIo, ExecMode::Native)),
            (
                "kernel-net (TEEs)",
                stack(Transport::KernelSockets, ExecMode::Tee),
            ),
            (
                "direct I/O (TEEs)",
                stack(Transport::DirectIo, ExecMode::Tee),
            ),
            ("Recipe-lib (net)", model.recipe_lib_throughput_gbps(size)),
        ];
        for (name, gbps) in stacks {
            figure.note(format!("{name:<20} {size:>10} {gbps:>12.2}"));
            figure.extra(format!("{}_{size}_b_gbps", metric_slug(name)), gbps);
        }
    }
    figure
}

/// Table 2: resource/fault-model properties of related protocols vs Recipe.
fn table2_protocol_properties(_operations: usize) -> Figure {
    let mut figure = Figure::default();
    let line = |cells: [&str; 8]| {
        let [name, active, total, resilience, messages, tees, direct_io, faults] = cells;
        format!(
            "{name:<20} {active:>8} {total:>8} {resilience:>12} {messages:>20} {tees:>6} \
             {direct_io:>6} {faults:>12}"
        )
    };
    figure.note(line([
        "protocol",
        "active",
        "total",
        "resilience",
        "msg complexity",
        "TEEs",
        "D-IO",
        "fault model",
    ]));
    let yes_no = |flag| if flag { "yes" } else { "no" };
    for row in recipe_bft::table2_rows() {
        figure.note(line([
            row.name,
            row.active_replicas,
            row.total_replicas,
            row.resilience,
            row.message_complexity,
            yes_no(row.uses_tees),
            yes_no(row.uses_direct_io),
            row.fault_model,
        ]));
        let slug = metric_slug(row.name);
        figure.extra(
            format!("{slug}_uses_tees"),
            f64::from(u8::from(row.uses_tees)),
        );
        figure.extra(
            format!("{slug}_uses_direct_io"),
            f64::from(u8::from(row.uses_direct_io)),
        );
    }
    figure
}

/// Table 4: end-to-end attestation latency through the Recipe CAS vs through the
/// vendor IAS, averaged over `rounds` attestations each.
fn table4_attestation(rounds: usize) -> Figure {
    use recipe_tee::{Enclave, EnclaveConfig, EnclaveId};

    fn run_path<V: QuoteVerifier>(verifier: &mut V, rounds: usize) -> f64 {
        use rand::SeedableRng;
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
    let vendor = Enclave::launch(EnclaveId(1000), EnclaveConfig::new("recipe-replica-v1", 1))
        .platform_vendor_key();
    let mut cas = ConfigAndAttestService::new(vec![(1, vendor)], 5);
    let mut ias = IntelAttestationService::new(vec![(1, vendor)], 5);
    let cas_mean = run_path(&mut cas, rounds);
    let ias_mean = run_path(&mut ias, rounds);

    let mut figure = Figure::default();
    let header = format!("{:<12} {:>10} {:>10}", "service", "mean (s)", "speedup");
    figure.note(header);
    for (name, mean_s, speedup) in [
        ("Recipe CAS", cas_mean, ias_mean / cas_mean),
        ("IAS", ias_mean, 1.0),
    ] {
        figure.note(format!("{name:<12} {mean_s:>10.3} {speedup:>9.1}x"));
        figure.extra(format!("{}_mean_s", metric_slug(name)), mean_s);
        figure.extra(format!("{}_speedup", metric_slug(name)), speedup);
    }
    figure
}

// ---------------------------------------------------------------------------
// Beyond the paper
// ---------------------------------------------------------------------------

/// Shard-scaling experiment: aggregate throughput of R-Raft and R-ABD across
/// 1/2/4/8 consistent-hash shards under the default YCSB Zipfian workload.
/// Each shard is an independent 3-replica group; the single-shard rows are
/// the baselines their speedups are measured against.
fn fig_shard_scaling(operations: usize) -> Figure {
    let mut rows = Vec::new();
    for kind in [Protocol::Raft, Protocol::Abd] {
        let mut baseline = None;
        for shards in [1usize, 2, 4, 8] {
            let stats = run_sharded(kind, shards, operations).total;
            let base = *baseline.get_or_insert(stats.throughput_ops);
            let config = format!("{shards} shard{}", if shards == 1 { "" } else { "s" });
            let row = ExperimentRow::measured(kind.display_name(), config, &stats, base);
            rows.push(row);
        }
    }
    Figure::of_rows(rows)
}

/// Batching experiment: per-leader committed-ops/sec of a single 3-replica
/// group under a write-only workload, sweeping the batch size {1, 4, 16, 64}
/// for the native Raft baseline and confidential R-Raft.
///
/// Every commit flows through the one leader, so throughput *is* per-leader
/// throughput. The `batch=1` row of each protocol is the baseline its speedups
/// are measured against; the confidential rows demonstrate how amortizing the
/// `shield_msg`/`verify_msg` fixed costs (counter, MAC/AEAD setup, framing —
/// the fig6a overhead factors) over a frame recovers most of the
/// confidential-mode tax.
fn fig_batching(operations: usize) -> Figure {
    let mut figure = Figure::default();
    for (mode, label) in [
        (ProtocolMode::Native, "Raft (native)"),
        (recipe_mode(true), "R-Raft (conf.)"),
    ] {
        let mut baseline = None;
        for batch in [1usize, 4, 16, 64] {
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
            let row = ExperimentRow::measured(label, format!("batch={batch}"), &stats, base);
            figure.push_measured(row, &stats);
        }
    }
    figure
}

/// A half-read YCSB stream under `seed` with `txn_fraction` of its requests
/// made `ops_per_txn`-op transactions over `fan_out` shards.
fn txn_workload(
    seed: u64,
    txn_fraction: f64,
    ops_per_txn: usize,
    fan_out: usize,
) -> TxnWorkloadSpec {
    let base = WorkloadSpec {
        seed,
        read_ratio: 0.5,
        ..WorkloadSpec::default()
    };
    TxnWorkloadSpec {
        base,
        txn_fraction,
        ops_per_txn,
        fan_out,
    }
}

/// Width of a bucket of the skew runs' throughput timeline.
const SKEW_BUCKET_NS: u64 = 5_000_000;

/// The deployment of the skew runs: two 3-replica R-Raft shards with the
/// rebalancing controller on.
fn skew_spec(operations: usize) -> DeploymentSpec {
    DeploymentSpec::new(2, 3)
        .with_seed(9)
        .with_clients(64, operations)
        .with_rebalance(RebalanceConfig {
            check_interval_ns: 10_000_000,
            min_window_commits: 120,
            imbalance_threshold: 1.4,
            timeline_bucket_ns: SKEW_BUCKET_NS,
            ..RebalanceConfig::enabled()
        })
}

/// How many requests of a skew run go out before its stream turns hot: the
/// balanced warm-up is the throughput yardstick a recovery is measured
/// against.
fn skew_switch_over(operations: usize) -> usize {
    (operations * 7) / 32
}

/// The skew-then-hot request stream: 64 B writes that start balanced over the
/// YCSB universe and, after the first 7/32 of the run, funnel into a hot
/// range owned entirely by shard 0 — with or without every 8th request being
/// a fan-out-2 transaction through 2PC instead.
struct SkewStream {
    issued: usize,
    balanced_ops: usize,
    hot: Vec<Vec<u8>>,
    router: ShardRouter,
    txns: Option<TxnWorkloadGenerator>,
}

impl SkewStream {
    fn new(router: &ShardRouter, operations: usize, with_txns: bool) -> Self {
        let txns = txn_workload(9, 1.0, 2, 2);
        SkewStream {
            issued: 0,
            balanced_ops: skew_switch_over(operations),
            hot: router.hot_range(0, 48, 2),
            router: router.clone(),
            txns: with_txns.then(|| txns.generator()),
        }
    }

    fn next(&mut self, client: u64, seq: u64) -> Request {
        let n = self.issued;
        self.issued += 1;
        if let (7, Some(txns)) = (n % 8, &mut self.txns) {
            let router = &self.router;
            return request_from_workload(txns.next_request(&|key| router.shard_for_key(key)));
        }
        let key = if n < self.balanced_ops {
            format!("user{:08}", (client * 131 + seq * 17) % 10_000).into_bytes()
        } else {
            self.hot[n % self.hot.len()].clone()
        };
        let value = vec![0xAB; 64];
        Request::Single(Operation::Put { key, value })
    }
}

/// Builds `spec` (a [`skew_spec`], policies added) and drives it with the
/// skew stream; the cluster comes back for what the caller reads off it.
fn run_skew(
    spec: DeploymentSpec,
    with_txns: bool,
) -> (ShardedRunStats, ShardedCluster<RaftReplica>) {
    let operations = spec.client_model().total_operations;
    let mut cluster = ShardedCluster::<RaftReplica>::build(spec);
    let mut stream = SkewStream::new(cluster.router(), operations, with_txns);
    let stats = cluster.run_requests(|client, seq| Some(stream.next(client, seq)));
    (stats, cluster)
}

/// Online-rebalancing experiment: two R-Raft shards under a write-only
/// workload that starts balanced and then funnels everything into a hot key
/// range owned entirely by shard 0. The migration controller snapshots the
/// hot arcs, catches up, and cuts them over to shard 1; the throughput
/// timeline shows the sag under skew and the recovery after the epoch bump —
/// with zero lost or duplicated commits (the figure's claims and
/// `tests/rebalancing.rs` check the commit count).
/// Runs `operations` committed operations exactly as asked — but phase means
/// need enough timeline to average over, so runs much below the default 3200
/// produce degenerate (possibly zero) phase figures rather than being
/// silently resized.
fn fig_rebalance(operations: usize) -> Figure {
    let (stats, _) = run_skew(skew_spec(operations), false);
    let balanced_ops = skew_switch_over(operations);

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
    let cutover_bucket = ((stats.migration.last_cutover_ns / SKEW_BUCKET_NS) as usize)
        .min(timeline.len().saturating_sub(1));
    let mean_ops_per_sec = |from: usize, to: usize| -> f64 {
        if timeline.is_empty() {
            return 0.0;
        }
        let to = to.max(from + 1).min(timeline.len());
        let from = from.min(to - 1);
        let buckets = &timeline[from..to];
        let total: u64 = buckets.iter().map(|b| b.committed).sum();
        total as f64 / buckets.len() as f64 / (SKEW_BUCKET_NS as f64 / 1e9)
    };
    let pre_skew_ops = mean_ops_per_sec(0, skew_bucket.max(1));
    let during_skew_ops = mean_ops_per_sec(skew_bucket + 1, cutover_bucket);
    let post_cutover_ops = mean_ops_per_sec(cutover_bucket + 1, timeline.len().saturating_sub(1));

    let mut figure = Figure::default();
    for (config, ops, speedup) in [
        ("pre-skew", pre_skew_ops, 1.0),
        (
            "during skew",
            during_skew_ops,
            during_skew_ops / pre_skew_ops,
        ),
        (
            "post-cutover",
            post_cutover_ops,
            post_cutover_ops / pre_skew_ops,
        ),
    ] {
        let latency = stats.total.mean_latency_us;
        let row = ExperimentRow::new("R-Raft 2 shards", config, ops, latency, speedup);
        figure.rows.push(row.keyed(metric_slug(config)));
    }
    // Guarded: a degenerate (tiny) run can have a zero pre-skew phase, and a
    // non-finite value would serialize as JSON null.
    let recovery = if pre_skew_ops > 0.0 {
        post_cutover_ops / pre_skew_ops
    } else {
        0.0
    };
    let m = &stats.migration;
    figure.extra("recovery_ratio", recovery);
    figure.extra("migrations_completed", m.migrations_completed as f64);
    figure.extra("committed", stats.total.committed as f64);
    figure.latency.push(("total_".into(), stats.total.clone()));
    figure.note(format!(
        "\nmigrations: {} (snapshot {} entries / {} wire B, catch-up {} entries / {} rounds, \
         {} redirects, {} refusals, cutover at {:.1} ms, router epoch {})",
        m.migrations_completed,
        m.snapshot_entries,
        m.snapshot_bytes,
        m.catchup_entries,
        m.catchup_rounds,
        m.redirects,
        m.refusals,
        m.last_cutover_ns as f64 / 1e6,
        m.router_version,
    ));
    figure.note("throughput timeline (commits per 5 ms bucket):");
    for bucket in &stats.timeline {
        figure.note(format!(
            "  {:>6.1} ms  {:>5}  {}",
            bucket.end_ns as f64 / 1e6,
            bucket.committed,
            "#".repeat((bucket.committed / 8) as usize)
        ));
    }
    figure
}

/// Per-shard confidentiality-policy sweep: four 3-replica R-Raft shards under
/// the default YCSB Zipfian workload, sweeping the number of confidential
/// shards 0 → 4 (shards `0..n` get [`ShardPolicy::confidential`]). Aggregate
/// throughput decays as more of the keyspace pays the AEAD + sealed-store
/// cost; the per-shard latency figures show the cost is *per policy*:
/// confidential shards serve slower, plaintext shards match the all-plaintext
/// baseline within noise.
///
/// The throughput sweep runs saturated (64 closed-loop clients); the latency
/// split is measured on separate low-concurrency probe runs where mean
/// latency ≈ service latency — at saturation, queueing dominates and the
/// closed loop redistributes clients towards the slow shards, which would
/// make plaintext shards look *faster* in a mixed deployment, not unchanged.
fn fig_confidential_policy(operations: usize) -> Figure {
    const SHARDS: usize = 4;
    let run_step = |confidential_shards: usize, clients: usize, ops: usize| -> ShardedRunStats {
        let mut spec = DeploymentSpec::new(SHARDS, 3)
            .with_seed(7)
            .with_clients(clients, ops);
        for shard in 0..confidential_shards {
            spec = spec.with_shard_policy(shard, ShardPolicy::confidential());
        }
        drive(&mut ShardedCluster::<RaftReplica>::build(spec), &ycsb(7))
    };

    let (mut figure, mut runs) = (Figure::default(), Vec::new());
    let mut baseline = None;
    for n in 0..=SHARDS {
        let stats = run_step(n, 64, operations);
        let base = *baseline.get_or_insert(stats.total.throughput_ops);
        let config = format!("{n}/{SHARDS} confidential");
        let row = ExperimentRow::measured("R-Raft 4 shards", config, &stats.total, base);
        figure.push_measured(row.keyed(format!("conf_shards_{n}_of_4")), &stats.total);
        runs.push(stats);
    }

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
    // ~1.0: plaintext shards do not pay for their confidential neighbours.
    let plaintext_latency_ratio = mixed_plain / baseline_plain;
    // > 1.0: the encryption cost is paid exactly where the policy asks.
    let confidential_latency_overhead = mixed_conf / mixed_plain;
    let committed: u64 = runs.iter().map(|s| s.total.committed).sum();
    figure.extra("plaintext_latency_ratio", plaintext_latency_ratio);
    figure.extra(
        "confidential_latency_overhead",
        confidential_latency_overhead,
    );
    figure.extra("committed", committed as f64);

    figure.note("\nper-shard latency on the 2/4-confidential deployment:");
    for (shard, stats) in runs[2].per_shard.iter().enumerate() {
        figure.notes.push(format!(
            "  shard {shard} ({}): {:>6} ops, mean {:>7.1} us, p99 {:>7.1} us",
            if shard < 2 {
                "confidential"
            } else {
                "plaintext"
            },
            stats.committed,
            stats.mean_latency_us,
            stats.p99_latency_us,
        ));
    }
    figure.note(format!(
        "plaintext shards vs all-plaintext baseline: {plaintext_latency_ratio:.3}x mean latency \
         (1.0 = no policy bleed)"
    ));
    figure.note(format!(
        "confidential shards vs plaintext neighbours: {confidential_latency_overhead:.3}x mean \
         latency (the policy's cost)"
    ));
    figure
}

/// Cross-shard transaction sweep: four 3-replica R-Raft shards — shard 0
/// confidential, so transactions touching it seal every 2PC frame — under the
/// deterministic multi-key workload generator
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
fn fig_txn(operations: usize) -> Figure {
    let fractions = [0.0f64, 0.25, 0.5, 1.0]
        .map(|fraction| (format!("txn={:.0}%", fraction * 100.0), fraction, 2, 3));
    let fanouts = [1usize, 2, 3, 4].map(|fan_out| (format!("fanout={fan_out}"), 0.5, fan_out, 4));

    let (mut figure, mut runs) = (Figure::default(), Vec::new());
    let mut single_key_ops = None;
    for (config, txn_fraction, fan_out, ops_per_txn) in fractions.into_iter().chain(fanouts) {
        let spec = DeploymentSpec::new(4, 3)
            .with_seed(13)
            .with_clients(48, operations)
            .with_shard_policy(0, ShardPolicy::confidential());
        let workload = WorkloadKind::Txn(txn_workload(13, txn_fraction, ops_per_txn, fan_out));
        let stats = drive(&mut ShardedCluster::<RaftReplica>::build(spec), &workload);
        let base = *single_key_ops.get_or_insert(stats.total.throughput_ops);
        let key = metric_slug(&config);
        let row = ExperimentRow::measured("R-Raft 4 shards", config, &stats.total, base);
        figure.push_measured(row.keyed(key), &stats.total);
        runs.push(stats);
    }

    let sum = |count: fn(&ShardedRunStats) -> u64| runs.iter().map(count).sum::<u64>();
    let (committed, aborted) = (sum(|s| s.txn.committed), sum(|s| s.txn.aborted));
    let (sealed, frames) = (sum(|s| s.txn.sealed_frames), sum(|s| s.txn.frames_sent));
    let cross_shard = sum(|s| s.txn.cross_shard_committed);
    let ops = sum(|s| s.total.committed);
    figure.extra("txns_committed", committed as f64);
    figure.extra("txns_aborted", aborted as f64);
    figure.extra("sealed_2pc_frames", sealed as f64);
    figure.extra("cross_shard_committed", cross_shard as f64);
    figure.extra("committed", ops as f64);
    figure.note(format!(
        "\ntransactions: {committed} committed, {aborted} aborted (lock conflicts, retried); \
         {frames} 2PC frames, {sealed} sealed (confidential participant)"
    ));
    figure
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
    let mut spec = skew_spec(operations).with_shard_policy(0, ShardPolicy::confidential());
    if telemetry {
        spec = spec.with_telemetry(TelemetryConfig::enabled());
    }
    let (stats, mut cluster) = run_skew(spec, true);
    let telemetry = cluster.take_telemetry_report();
    ObserveReport { stats, telemetry }
}

/// Crash-recovery failover experiment: kill a participant group's leader and
/// watch the fault plane put the deployment back together with zero lost or
/// duplicated commits.
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
fn fig_failover(operations: usize) -> Figure {
    let crashing = |spec: DeploymentSpec, crash: Option<CrashPlan>| match crash {
        Some(plan) => spec.with_shard_policy(0, ShardPolicy::new().with_crash_plan(plan)),
        None => spec,
    };
    let assert_all_recovered = |cluster: &ShardedCluster<RaftReplica>| {
        for shard in 0..cluster.shards() {
            assert!(
                cluster.shard(shard).crashed_nodes().is_empty(),
                "shard {shard}: crashed node never recovered"
            );
        }
    };
    let run_txn = |crash: Option<CrashPlan>, bucket_ns: u64| -> ShardedRunStats {
        let spec = DeploymentSpec::new(3, 3)
            .with_seed(17)
            .with_clients(24, operations)
            .with_timeline_bucket_ns(bucket_ns);
        let mut cluster = ShardedCluster::<RaftReplica>::build(crashing(spec, crash));
        let workload = WorkloadKind::Txn(txn_workload(17, 1.0, 3, 2));
        let stats = drive(&mut cluster, &workload);
        assert_all_recovered(&cluster);
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

    // Mid-migration scenario: the skew deployment under the mixed stream,
    // with the donor shard's leader crashed shortly before the crash-free
    // twin's cutover.
    let run_migration = |crash: Option<CrashPlan>| -> ShardedRunStats {
        let (stats, cluster) = run_skew(crashing(skew_spec(operations), crash), true);
        assert_all_recovered(&cluster);
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

    // Each crashed run against its own crash-free twin.
    let base_2pc = baseline_2pc.total.throughput_ops;
    let base_migration = baseline_migration.total.throughput_ops;
    let (txn, migration) = ("R-Raft 3 shards, 100% txn", "R-Raft 2 shards, migration");
    let row = ExperimentRow::measured;
    let rows = vec![
        row(txn, "crash-free", &baseline_2pc.total, base_2pc).keyed("crash_free_2pc"),
        row(txn, "leader crash mid-2PC", &crash_2pc.total, base_2pc).keyed("leader_crash_2pc"),
        row(
            migration,
            "crash-free",
            &baseline_migration.total,
            base_migration,
        )
        .keyed("crash_free_migration"),
        row(
            migration,
            "donor leader crash",
            &crash_migration.total,
            base_migration,
        )
        .keyed("donor_leader_crash_migration"),
    ];
    let mut figure = Figure {
        rows,
        ..Figure::default()
    };
    figure.extra("time_to_recover_ms", time_to_recover_ns as f64 / 1e6);
    // Not `_ops_per_sec`: the dip depth measures the outage, not a row's
    // throughput.
    figure.extra("dip_floor_ops", dip_floor_ops);
    figure.extra("steady_state_ops", steady_ops);
    figure.extra("crash_2pc_committed", crash_2pc.total.committed as f64);
    figure.extra(
        "crash_2pc_txn_committed_ops",
        crash_2pc.txn.committed_ops as f64,
    );
    figure.extra(
        "crash_migrations_completed",
        crash_migration.migration.migrations_completed as f64,
    );
    figure
        .latency
        .push(("crash_2pc_".into(), crash_2pc.total.clone()));

    figure.note(format!(
        "\ncrash at {:.2} ms, restart at {:.2} ms, throughput back to 80% of steady \
         ({:.0} ops/s) after {:.2} ms; dip floor {:.0} ops/s",
        crash_at_ns as f64 / 1e6,
        recover_at_ns as f64 / 1e6,
        steady_ops,
        time_to_recover_ns as f64 / 1e6,
        dip_floor_ops,
    ));
    figure.note(format!(
        "2PC run: {} committed = {} txn ops (zero lost, zero duplicated), {} aborts retried",
        crash_2pc.total.committed, crash_2pc.txn.committed_ops, crash_2pc.txn.aborted,
    ));
    figure.note(format!(
        "migration run: {} committed, {} migration(s) completed despite the donor crash",
        crash_migration.total.committed, crash_migration.migration.migrations_completed,
    ));
    figure.note("crashed-run throughput timeline (commits per bucket):");
    for bucket in &crash_2pc.timeline {
        let since_crash = bucket.end_ns.saturating_sub(crash_at_ns);
        let outage = bucket.end_ns > crash_at_ns && since_crash <= time_to_recover_ns;
        figure.note(format!(
            "  {:>7.2} ms  {:>5}  {}{}",
            bucket.end_ns as f64 / 1e6,
            bucket.committed,
            "#".repeat((bucket.committed / 8) as usize),
            if outage { "  <- outage" } else { "" }
        ));
    }
    figure
}

/// The multi-tenant noisy-neighbour experiment: three quiet tenants
/// establish a solo baseline, then a fourth tenant joins whose closed-loop
/// demand is ~10× the quota it is granted. The gateway's deterministic token
/// bucket defers the excess before it reaches the router, so the quiet
/// tenants' p99 stays within 10% of their solo baseline — the containment
/// bound the figure's claim holds it to.
fn fig_tenancy(operations: usize) -> Figure {
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
        let mut generators = mix.generators(clients);
        cluster.run_requests(move |client, _seq| {
            let op = generators[client as usize].next_op();
            Some(request_from_workload(WorkloadRequest::Single(op)))
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
    let accounted = &contained.gateway.tenants;
    let noisy = accounted
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
        let t = accounted
            .iter()
            .find(|t| t.tenant == name)
            .expect("quiet tenant accounted");
        assert!(t.committed_ops > 0, "tenant {name} committed nothing");
        assert_eq!(t.rejected, 0, "tenant {name} spuriously rejected");
    }
    let p99_degradation = contained.total.p99_latency_us / solo.total.p99_latency_us - 1.0;

    let base = solo.total.throughput_ops;
    let mut figure = Figure::default();
    figure.rows.push(
        ExperimentRow::measured(
            "R-Raft 2 shards, 3 tenants",
            "solo (quiet tenants only)",
            &solo.total,
            base,
        )
        .keyed("solo_quiet"),
    );
    figure.rows.push(
        ExperimentRow::measured(
            "R-Raft 2 shards, 4 tenants",
            "noisy tenant at 10x quota",
            &contained.total,
            base,
        )
        .keyed("contained"),
    );
    // Not `_ops_per_sec`: the quota is an input knob derived from the solo
    // run, not a measured rate.
    figure.extra("noisy_quota_ops", noisy_quota as f64);
    figure.extra("p99_degradation_pct", p99_degradation * 100.0);
    figure.note(format!(
        "\nnoisy tenant clamped to {noisy_quota} ops/s; quiet tenants' p99 {:.1} us -> {:.1} us \
         ({:+.1}%, containment bound < +10%)",
        solo.total.p99_latency_us,
        contained.total.p99_latency_us,
        p99_degradation * 100.0,
    ));
    figure.note("per-tenant admission accounting (contended run):");
    for t in accounted {
        let slug = metric_slug(&t.tenant);
        figure.extra(format!("{slug}_committed_ops"), t.committed_ops as f64);
        figure.extra(format!("{slug}_throttled"), t.throttled as f64);
        figure.note(format!(
            "  {:<8} admitted {:>6}  throttled {:>6}  rejected {:>4}  committed ops {:>6}",
            t.tenant, t.admitted, t.throttled, t.rejected, t.committed_ops
        ));
    }
    figure.latency = vec![
        ("solo_".into(), solo.total.clone()),
        ("contained_".into(), contained.total.clone()),
    ];
    figure
}

// ---------------------------------------------------------------------------
// Claims: what each figure must show, judged on its committed baseline
// ---------------------------------------------------------------------------

/// Where a claim beyond the paper's evaluation comes from.
const BEYOND: &str = "beyond the paper";

/// An ordering `lhs > rhs`, checked on the ratio `lhs / rhs`.
const ABOVE: Band = &[(Op::GT, 1.0)];

/// An ordering `lhs < rhs`, checked on the ratio `lhs / rhs`.
const BELOW: Band = &[(Op::LT, 1.0)];

/// A row's throughput metric in `figure`'s summary.
fn ops(figure: &'static str, protocol: &str, config: &str) -> Term {
    metric(figure, format!("{}_ops_per_sec", row_key(protocol, config)))
}

/// Every R- row of a sweep against PBFT over PBFT at its point: above 3×.
fn beats_pbft(figure: &'static str, source: &'static str, points: Vec<Point>, conf: bool) -> Claim {
    let rows = points.into_iter().flat_map(|point| {
        let at = |name: &str| ops(figure, name, &point.label);
        let pbft = at(Protocol::Pbft.display_name());
        RECIPE_PROTOCOLS.map(|p| ratio(at(&recipe_name(p, conf)), pbft.clone()))
    });
    Claim::new("every R- row over PBFT, at every point", source).check(rows, &[(Op::GT, 3.0)])
}

fn fig3_claims() -> Vec<Claim> {
    let at = |p: Protocol, size| ops("fig3", p.display_name(), size);
    let pairs = [("256 B", "1024 B"), ("1024 B", "4096 B")];
    let slower = pairs.map(|(a, b)| RECIPE_PROTOCOLS.map(|p| ratio(at(p, a), at(p, b))));
    let points = value_sizes(&[256, 1024, 4096], 0.9);
    vec![
        beats_pbft("fig3", "Fig. 3", points, false),
        Claim::new("every R- row over itself at the next value size", "Fig. 3")
            .check(slower.into_iter().flatten(), ABOVE),
    ]
}

fn fig4_claims() -> Vec<Claim> {
    let pbft = |figure, config: &str| ops(figure, Protocol::Pbft.display_name(), config);
    let fig3 = ["256 B", "1024 B", "4096 B"].map(|size| pbft("fig3", size));
    let fig4 = read_ratios(&FIG4_RATIOS, "").into_iter();
    let rows: Vec<Term> = fig3
        .into_iter()
        .chain(fig4.map(|p| pbft("fig4", &p.label)))
        .collect();
    let over = |a: Term| rows.iter().map(move |b| ratio(a.clone(), b.clone()));
    let pairs: Vec<Term> = rows.iter().cloned().flat_map(over).collect();
    // PBFT's capacity is one constant of the cost model, whatever the read
    // ratio or value size: a calibration gap or a setup unlike the paper's,
    // stated here rather than left inside every speedup.
    let calibration = "model calibration, not the paper";
    vec![
        beats_pbft("fig4", "Fig. 4", read_ratios(&FIG4_RATIOS, ""), false),
        Claim::new("PBFT rows of fig3 and fig4 over each other", calibration)
            .check(pairs, &[(Op::LE, 1.005)]),
    ]
}

fn fig5_claims() -> Vec<Claim> {
    let twins = [("50% R (conf.)", "50% R"), ("95% R (conf.)", "95% R")];
    let costs = twins.map(|(conf, plain)| {
        RECIPE_PROTOCOLS.map(|p| {
            let confidential = ops("fig5", &recipe_name(p, true), conf);
            ratio(confidential, ops("fig4", &recipe_name(p, false), plain))
        })
    });
    let points = read_ratios(&[0.5, 0.95], " (conf.)");
    vec![
        beats_pbft("fig5", "Fig. 5", points, true),
        Claim::new("every row over its plaintext fig4 twin", "Fig. 5")
            .check(costs.into_iter().flatten(), &[(Op::LE, 1.0)]),
    ]
}

fn fig6a_claims() -> Vec<Claim> {
    let points = read_ratios(&FIG4_RATIOS, "");
    let overhead = |p: Protocol, point: &Point| {
        let key = row_key(p.display_name(), &point.label);
        metric("fig6a", format!("{key}_speedup"))
    };
    let raft = [overhead(Protocol::Raft, &points[0])];
    let every = points
        .iter()
        .flat_map(|point| RECIPE_PROTOCOLS.map(|p| overhead(p, point)));
    vec![
        Claim::new("R-Raft's native/R- overhead factor at 50% R", "Fig. 6a")
            .check(raft, &[(Op::GE, 1.2), (Op::LE, 20.0)]),
        Claim::new("every native/R- overhead factor", "Fig. 6a").check(every, &[(Op::GE, 1.0)]),
    ]
}

fn fig6b_claims() -> Vec<Claim> {
    let at = |stack, size| metric("fig6b", format!("{}_{size}_b_gbps", metric_slug(stack)));
    let over =
        |higher, lower| [256, 1024, 4096].map(|size| ratio(at(higher, size), at(lower, size)));
    let (tees, lib) = ("kernel-net (TEEs)", "Recipe-lib (net)");
    vec![
        Claim::new(
            "direct I/O over kernel-net at 256 B, 1 and 4 KiB",
            "Fig. 6b",
        )
        .check(over("direct I/O", "kernel-net"), ABOVE),
        Claim::new("kernel-net over kernel-net in TEEs, same sizes", "Fig. 6b")
            .check(over("kernel-net", tees), ABOVE),
        Claim::new("Recipe-lib over kernel-net in TEEs, same sizes", "Fig. 6b")
            .check(over(lib, tees), ABOVE),
        Claim::new("direct I/O in TEEs over Recipe-lib, same sizes", "Fig. 6b")
            .check(over("direct I/O (TEEs)", lib), &[(Op::GE, 1.0)]),
    ]
}

fn table2_claims() -> Vec<Claim> {
    let flag = |name| metric("table2", name);
    let recipe = ["recipe_uses_tees", "recipe_uses_direct_io"].map(flag);
    let lacked = [
        "pbft_hotstuff_uses_tees",
        "cft_native_uses_tees",
        "minbft_hybster_uses_direct_io",
        "fastbft_cheapbft_uses_direct_io",
    ];
    vec![
        Claim::new("Recipe uses TEEs and direct I/O", "Table 2").check(recipe, &[(Op::EQ, 1.0)]),
        Claim::new("each other row's missing feature of the two", "Table 2")
            .check(lacked.map(flag), &[(Op::EQ, 0.0)]),
    ]
}

fn table4_claims() -> Vec<Claim> {
    let at = |name| metric("table4", name);
    let means = [ratio(at("recipe_cas_mean_s"), at("ias_mean_s"))];
    let speedup = [at("recipe_cas_speedup")];
    vec![
        Claim::new("CAS mean latency over IAS's", "Table 4").check(means, BELOW),
        Claim::new("CAS speedup over IAS", "Table 4")
            .check(speedup, &[(Op::GE, 10.0), (Op::LE, 30.0)]),
    ]
}

fn damysus_claims() -> Vec<Claim> {
    let at = |p: Protocol| ops("damysus", p.display_name(), "256 B");
    let rows = RECIPE_PROTOCOLS.map(|p| ratio(at(p), at(Protocol::Damysus)));
    vec![Claim::new("every R- row over Damysus at 256 B", "§B.3").check(rows, ABOVE)]
}

fn shard_scaling_claims() -> Vec<Claim> {
    let gain = |from, to| {
        let at = |p: Protocol, shards| ops("shard_scaling", p.display_name(), shards);
        [Protocol::Raft, Protocol::Abd].map(|p| ratio(at(p, to), at(p, from)))
    };
    vec![
        Claim::new("R-Raft and R-ABD at 4 shards over 1", BEYOND)
            .check(gain("1 shard", "4 shards"), &[(Op::GE, 2.0)]),
        Claim::new("R-Raft and R-ABD at 8 shards over 4", BEYOND)
            .check(gain("4 shards", "8 shards"), ABOVE),
    ]
}

fn batching_claims() -> Vec<Claim> {
    let gain = |label, from: usize, to: usize| {
        let at = |batch| ops("batching", label, &format!("batch={batch}"));
        ratio(at(to), at(from))
    };
    let (native, conf) = ("Raft (native)", "R-Raft (conf.)");
    let native_over_conf = [ratio(gain(native, 1, 16), gain(conf, 1, 16))];
    vec![
        Claim::new("confidential R-Raft: batch 16 over 1", BEYOND)
            .check([gain(conf, 1, 16)], &[(Op::GE, 2.0)]),
        Claim::new("confidential R-Raft: batch 64 over 16", BEYOND)
            .check([gain(conf, 16, 64)], &[(Op::GE, 0.9)]),
        Claim::new("native Raft: batch 16 over 1", BEYOND).check([gain(native, 1, 16)], ABOVE),
        Claim::new("native Raft's batch 16 gain over R-Raft's", BEYOND)
            .check(native_over_conf, BELOW),
    ]
}

fn rebalance_claims() -> Vec<Claim> {
    let at = |name| metric("rebalance", name);
    let over_pre_skew = |phase| [ratio(at(phase), at("pre_skew_ops_per_sec"))];
    let (during, post) = ("during_skew_ops_per_sec", "post_cutover_ops_per_sec");
    vec![
        Claim::new("throughput during the skew over pre-skew", BEYOND)
            .check(over_pre_skew(during), &[(Op::LT, 0.75)]),
        Claim::new("throughput after the cutover over pre-skew", BEYOND)
            .check(over_pre_skew(post), &[(Op::GE, 0.9)]),
        Claim::new("migrations completed", BEYOND)
            .check([at("migrations_completed")], &[(Op::GE, 1.0)]),
        Claim::new("operations committed, none lost or duplicated", BEYOND)
            .check([at("committed")], &[(Op::EQ, 3_200.0)]),
    ]
}

fn confidential_policy_claims() -> Vec<Claim> {
    let at = |name: &str| metric("confidential_policy", name);
    let step = |n: usize| at(&format!("conf_shards_{n}_of_4_ops_per_sec"));
    let over = |of| (0..=4).map(move |n| ratio(step(n), step(of)));
    let (overhead, plaintext) = (
        at("confidential_latency_overhead"),
        at("plaintext_latency_ratio"),
    );
    vec![
        Claim::new("all-confidential over all-plaintext throughput", BEYOND)
            .check([ratio(step(4), step(0))], BELOW),
        Claim::new("every step over the all-plaintext step", BEYOND)
            .check(over(0), &[(Op::LE, 1.05)]),
        Claim::new("every step over the all-confidential step", BEYOND)
            .check(over(4), &[(Op::GE, 0.95)]),
        Claim::new("mean latency, confidential over plaintext shards", BEYOND)
            .check([overhead], &[(Op::GT, 1.003)]),
        Claim::new("mean latency, plaintext shards over all-plaintext", BEYOND)
            .check([plaintext], &[(Op::GE, 0.9), (Op::LE, 1.1)]),
        Claim::new("operations committed over the five steps", BEYOND)
            .check([at("committed")], &[(Op::EQ, 4_000.0)]),
    ]
}

fn txn_claims() -> Vec<Claim> {
    let row = |key: &str| metric("txn", format!("{key}_ops_per_sec"));
    let over = |first, rest: [&str; 3]| rest.map(|other| ratio(row(first), row(other)));
    let shares = over("txn_0", ["txn_25", "txn_50", "txn_100"]);
    let fanouts = over("fanout_1", ["fanout_2", "fanout_3", "fanout_4"]);
    vec![
        Claim::new("single-key 0% row over every transaction share", BEYOND).check(shares, ABOVE),
        Claim::new("fan-out 1 over fan-outs 2, 3 and 4", BEYOND).check(fanouts, ABOVE),
    ]
}

fn failover_claims() -> Vec<Claim> {
    let row = |key| metric("failover", format!("{key}_ops_per_sec"));
    let crashed = [
        ratio(row("leader_crash_2pc"), row("crash_free_2pc")),
        ratio(
            row("donor_leader_crash_migration"),
            row("crash_free_migration"),
        ),
    ];
    vec![Claim::new("each crashed run over its crash-free twin", BEYOND).check(crashed, BELOW)]
}

fn tenancy_claims() -> Vec<Claim> {
    let p99 = [metric("tenancy", "p99_degradation_pct")];
    let description = "quiet tenants' p99 rise (%) beside a noisy tenant at 10x its quota";
    vec![Claim::new(description, BEYOND).check(p99, &[(Op::LT, 10.0)])]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_skew_stream_turns_hot_at_its_switch_over_and_interleaves_transactions() {
        const REQUESTS: usize = 64;
        let cluster = ShardedCluster::<RaftReplica>::build(skew_spec(REQUESTS));
        let switch_over = skew_switch_over(REQUESTS);
        assert_eq!(switch_over, 14);
        for with_txns in [false, true] {
            let mut stream = SkewStream::new(cluster.router(), REQUESTS, with_txns);
            for n in 0..REQUESTS {
                let (client, seq) = (n as u64 % 4, n as u64 / 4);
                let request = stream.next(client, seq);
                if with_txns && n % 8 == 7 {
                    assert!(matches!(request, Request::Txn(_)), "request {n}");
                    continue;
                }
                let Request::Single(Operation::Put { key, value }) = request else {
                    panic!("request {n} is not a single write");
                };
                assert_eq!(value.len(), 64);
                if n < switch_over {
                    let balanced = format!("user{:08}", client * 131 + seq * 17);
                    assert_eq!(key, balanced.into_bytes(), "request {n}");
                } else {
                    assert!(stream.hot.contains(&key), "request {n}");
                    assert_eq!(cluster.router().shard_for_key(&key), 0, "request {n}");
                }
            }
        }
    }
}
