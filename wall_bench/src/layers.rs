//! The per-layer pass: where the work is done, layer by layer.
//!
//! Two sources, both outside the program under test. (a) Isolated replays
//! ([`crate::replay`]) time one layer's public functions on the workload's
//! own inputs. (b) A traced rep runs the workload with `deployment.telemetry`
//! on and reads the program's exact counters. Around them, untraced reps of
//! the same seed give the host time the traced rep is compared with, and the
//! determinism check: every untraced rep must return the same
//! `ShardedRunStats`, and the traced rep must agree with them on every
//! virtual-clock figure and count.

use std::path::Path;

use recipe_scenario::Scenario;
use recipe_telemetry::{CostCategory, TelemetryConfig, TelemetryReport};
use serde::{Serialize, Value};

use crate::replay::{self, Shape};
use crate::run::{account, build_cluster, run_rep, Metric, Pass, Rep};
use crate::stats::{longest_commit_gap_ns, median};
use crate::trace::Tracer;
use crate::workload;

/// Names of the per-layer metrics, in reporting order. `BENCHMARK.json` must
/// declare exactly these. A layer that a workload does not configure (the
/// gateway off `tenant_gateway`, transactions off `txn_cross_shard`) reports
/// `0` for its figures there.
pub const NAMES: [&str; 60] = [
    "crypto.mac_ns_per_frame",
    "crypto.sha256_mb_s",
    "crypto.aead_mb_s",
    "core.shield_ns_per_op",
    "core.verify_ns_per_op",
    "core.wire_ns_per_frame",
    "core.allocs_per_frame",
    "core.control_frame_ns",
    "core.txn_plain_frame_ns",
    "core.txn_sealed_frame_ns",
    "kv.write_ns",
    "kv.get_ns",
    "kv.allocs_per_write",
    "kv.txn_prepare_commit_ns",
    "sim.step_ns",
    "sim.allocs_per_step",
    "sim.msgs_per_op",
    "sim.ops_per_msg",
    "protocols.sealed_frames_per_op",
    "protocols.ops_per_batch",
    "protocols.timer_flush_share",
    "protocols.rejected_frames_per_op",
    "shard.route_ns",
    "shard.imbalance",
    "shard.txn_abort_share",
    "shard.txn_frames_per_txn",
    "shard.txn_wire_bytes_per_txn",
    "shard.view_changes",
    "gateway.admit_ns",
    "gateway.allocs_per_admit",
    "gateway.throttled_share",
    "gateway.rejected_share",
    "workload.gen_ns_per_op",
    "scenario.load_us",
    "telemetry.wall_overhead_share",
    "telemetry.spans_per_op",
    "telemetry.spans_dropped",
    "virt_share.transport",
    "virt_share.counter_slot",
    "virt_share.mac",
    "virt_share.aead",
    "virt_share.app",
    "virt_share.tee_exec",
    "virt_share.epc_pressure",
    "virt_share.batch_overhead",
    "virt_share.replication",
    "virt_share.idle",
    "host_share_est.core",
    "host_share_est.kv",
    "host_share_est.sim",
    "host_share_est.gateway",
    "host_share_est.workload",
    "host_share_est.residual",
    "e2e.raw_wall_ns_per_op",
    "e2e.host_slowdown",
    "e2e.virt_p50_us",
    "e2e.virt_p99_us",
    "e2e.unavailable_virt_ms",
    "e2e.failed_ops_share",
    "e2e.expectation_failures",
];

/// The virtual-clock cost categories reported as shares of `replicas ×
/// elapsed` (`signature` is left out: no Recipe protocol signs).
const VIRT_SHARE: [(&str, CostCategory); 10] = [
    ("virt_share.transport", CostCategory::Transport),
    ("virt_share.counter_slot", CostCategory::CounterSlot),
    ("virt_share.mac", CostCategory::Mac),
    ("virt_share.aead", CostCategory::Aead),
    ("virt_share.app", CostCategory::App),
    ("virt_share.tee_exec", CostCategory::TeeExec),
    ("virt_share.epc_pressure", CostCategory::EpcPressure),
    ("virt_share.batch_overhead", CostCategory::BatchOverhead),
    ("virt_share.replication", CostCategory::Replication),
    ("virt_share.idle", CostCategory::Idle),
];

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// The first path at which two serialized value trees differ, with both
/// values, or `None` when they are equal.
fn first_difference(path: &str, a: &Value, b: &Value) -> Option<String> {
    match (a, b) {
        (Value::Map(ea), Value::Map(eb)) if ea.len() == eb.len() => {
            ea.iter().zip(eb).find_map(|((ka, va), (kb, vb))| {
                if ka == kb {
                    first_difference(&format!("{path}.{ka}"), va, vb)
                } else {
                    Some(format!("{path}: key `{ka}` vs `{kb}`"))
                }
            })
        }
        (Value::Array(ia), Value::Array(ib)) if ia.len() == ib.len() => ia
            .iter()
            .zip(ib)
            .enumerate()
            .find_map(|(i, (va, vb))| first_difference(&format!("{path}[{i}]"), va, vb)),
        _ if a == b => None,
        (Value::Map(ea), Value::Map(eb)) => {
            Some(format!("{path}: {} vs {} entries", ea.len(), eb.len()))
        }
        (Value::Array(ia), Value::Array(ib)) => {
            Some(format!("{path}: {} vs {} elements", ia.len(), ib.len()))
        }
        _ => Some(format!("{path}: {a:?} vs {b:?}")),
    }
}

/// Checks that two reps of one seed returned identical statistics; on a
/// mismatch names the first field that differs.
fn check_same_stats(pass: &mut Pass, what: &str, reference: &Rep, other: &Rep) {
    let (a, b) = (&reference.outcome.stats, &other.outcome.stats);
    if a != b {
        let field = first_difference("stats", &a.to_value(), &b.to_value())
            .unwrap_or_else(|| "stats: differ only in a NaN".to_string());
        pass.violations
            .push(format!("determinism: {what}: {field}"));
    }
}

/// Sum over shards of one counter the traced rep's telemetry exported.
fn counter(report: &TelemetryReport, name: &str) -> f64 {
    let samples = report.metrics.iter().filter(|s| s.name == name);
    samples.fold(0.0, |sum, s| sum + s.value)
}

/// Runs the pass over workload `name`. `untraced_reps` untraced reps are
/// timed around one traced rep, after one untraced warm-up rep.
pub fn run(
    dir: &Path,
    name: &str,
    seed: u64,
    untraced_reps: u64,
    tracer: &mut Tracer,
) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let seed = workload::rep_seed(seed, 0);

    // Set-up, as spans: the benchmark's own trace shows what a run pays
    // before its first request.
    let scenario = tracer.span("setup", |t| -> Result<Scenario, String> {
        let scenario = t.span("setup.scenario_load", |_| workload::load(dir, name, seed))?;
        t.span("setup.cluster_build", |_| build_cluster(&scenario));
        Ok(scenario)
    })?;

    // (a) Isolated replays.
    let shape = Shape::of(&scenario);
    let path = dir.join(format!("{name}.toml"));
    let gen = tracer.span("replay.workload", |_| {
        replay::workload_gen(&scenario, &shape)
    });
    let load = tracer.span("replay.scenario", |_| replay::scenario_load(&path));
    let crypto = tracer.span("replay.crypto", |_| replay::crypto(&shape));
    let core = tracer.span("replay.core", |_| replay::core(&shape));
    let kv = tracer.span("replay.kv", |_| replay::kv(&shape));
    let sim = tracer.span("replay.sim", |_| replay::sim(&shape));
    let route = tracer.span("replay.shard", |_| replay::route(&shape));
    let gateway = tracer
        .span("replay.gateway", |_| replay::gateway(&scenario, &shape))
        .unwrap_or_default();

    // (b) Untraced reps around one traced rep, all on one seed.
    let mut traced_scenario = scenario.clone();
    traced_scenario.deployment = traced_scenario
        .deployment
        .with_telemetry(TelemetryConfig::enabled());
    let mut run = |scenario: &Scenario, label: &str, pass: &mut Pass| {
        let rep = tracer.span("run.e2e", |_| run_rep(scenario));
        account(pass, scenario, &rep, &format!("{name} {label}"));
        rep
    };
    let reference = run(&scenario, "warm-up rep", &mut pass);
    let mut untraced = Vec::new();
    let mut traced = None;
    for rep in 0..untraced_reps {
        if rep == untraced_reps / 2 {
            traced = Some(run(&traced_scenario, "traced rep", &mut pass));
        }
        let measured = run(&scenario, &format!("untraced rep {rep}"), &mut pass);
        check_same_stats(
            &mut pass,
            &format!("untraced rep {rep} vs warm-up rep"),
            &reference,
            &measured,
        );
        untraced.push(measured);
    }
    let traced = traced.ok_or("the per-layer pass needs at least one untraced rep")?;
    check_same_stats(&mut pass, "traced rep vs untraced rep", &reference, &traced);

    let stats = &traced.outcome.stats;
    let report = traced
        .outcome
        .telemetry
        .as_ref()
        .ok_or("the traced rep returned no telemetry report")?;
    let committed = stats.total.committed as f64;
    // The replays are read raw, so the host-time shares are taken against the
    // raw reading of the run; the tracing overhead compares reps of one
    // program at the reference speed.
    let median_of = |f: &dyn Fn(&Rep) -> f64| median(&untraced.iter().map(f).collect::<Vec<_>>());
    let raw_wall_ns_per_op = median_of(&Rep::raw_ns_per_op);
    let wall_ns_per_op = median_of(&Rep::ns_per_op);
    let slowdown = median_of(&|rep| rep.speed.slowdown());
    let target = scenario.deployment.client_model().total_operations as f64;

    let sealed_frames = counter(report, "shield.sealed_frames");
    let flushes = counter(report, "batch.flushes");
    let tenants = &stats.gateway.tenants;
    let throttled = tenants.iter().map(|t| t.throttled).sum::<u64>() as f64;
    let rejected = traced.rejected() as f64;
    let presented = tenants.iter().map(|t| t.admitted).sum::<u64>() as f64 + throttled + rejected;
    let capacity_ns: u64 = report.attribution.iter().map(|a| a.capacity_ns()).sum();
    let virt_share = |category: CostCategory| {
        let busy: u64 = report
            .attribution
            .iter()
            .map(|a| a.busy.get(category))
            .sum();
        ratio(busy as f64, capacity_ns as f64)
    };

    // Where the host time goes, estimated: a layer's isolated cost per call
    // times its calls per committed operation, over the measured host time
    // per operation. The call counts come from the traced rep's counters and
    // two facts about leader-based replication: every committed single-key
    // write is carried to every follower once and applied by every replica,
    // and every other sealed frame is a control frame (ack, commit notice,
    // heartbeat) that carries no operation. Reads are served once, by the
    // leader. A transaction's writes reach the followers as installed
    // records, not as replication frames; each of its 2PC frames takes the
    // plaintext or the sealed path, and it prepares and commits once per
    // attempt. The simulator pops one event per delivered
    // message plus the client's delivery and its retry timer. The remainder
    // is the driver, the protocol logic and whatever the replays do not
    // cover.
    let replicas = scenario.deployment.replicas_per_shard() as f64;
    let writes = stats.total.committed_writes as f64;
    let msgs_per_op = ratio(stats.total.messages_delivered as f64, committed);
    // Without batching nothing is ever flushed: every op travels alone.
    let ops_per_batch = if flushes == 0.0 {
        1.0
    } else {
        counter(report, "batch.flushed_ops") / flushes
    };
    let followers = replicas - 1.0;
    let txn_writes = ratio(stats.txn.participant_installs as f64, followers);
    let carried_ops = followers * (writes - txn_writes);
    let payload_frames = carried_ops / ops_per_batch;
    let control_frames = (sealed_frames - payload_frames).max(0.0);
    let txn_sealed_frames = stats.txn.sealed_frames as f64;
    let txn_plain_frames = stats.txn.frames_sent as f64 - txn_sealed_frames;
    let est_core = ((core.shield_ns_per_op + core.verify_ns_per_op) * carried_ops
        + core.wire_ns_per_frame * payload_frames
        + core.control_frame_ns * control_frames
        + core.txn_plain_frame_ns * txn_plain_frames
        + core.txn_sealed_frame_ns * txn_sealed_frames)
        / committed;
    let est_kv = kv.write_ns * replicas * ratio(writes, committed)
        + kv.get_ns * ratio(stats.total.committed_reads as f64, committed)
        + kv.txn_prepare_commit_ns * ratio(stats.txn.started as f64, committed);
    let est_sim = sim.ns_per_call * (msgs_per_op + 2.0);
    let est_gateway = gateway.ns_per_call * ratio(presented, committed);
    let est_workload = gen.ns_per_call;
    let share = |ns: f64| ns / raw_wall_ns_per_op;
    let est_sum = est_core + est_kv + est_sim + est_gateway + est_workload;

    let mut metrics = vec![
        Metric::new("crypto.mac_ns_per_frame", crypto.mac_ns_per_frame),
        Metric::new("crypto.sha256_mb_s", crypto.sha256_mb_s),
        Metric::new("crypto.aead_mb_s", crypto.aead_mb_s),
        Metric::new("core.shield_ns_per_op", core.shield_ns_per_op),
        Metric::new("core.verify_ns_per_op", core.verify_ns_per_op),
        Metric::new("core.wire_ns_per_frame", core.wire_ns_per_frame),
        Metric::new("core.allocs_per_frame", core.allocs_per_frame),
        Metric::new("core.control_frame_ns", core.control_frame_ns),
        Metric::new("core.txn_plain_frame_ns", core.txn_plain_frame_ns),
        Metric::new("core.txn_sealed_frame_ns", core.txn_sealed_frame_ns),
        Metric::new("kv.write_ns", kv.write_ns),
        Metric::new("kv.get_ns", kv.get_ns),
        Metric::new("kv.allocs_per_write", kv.allocs_per_write),
        Metric::new("kv.txn_prepare_commit_ns", kv.txn_prepare_commit_ns),
        Metric::new("sim.step_ns", sim.ns_per_call),
        Metric::new("sim.allocs_per_step", sim.allocs_per_call),
        Metric::new("sim.msgs_per_op", msgs_per_op),
        Metric::new(
            "sim.ops_per_msg",
            ratio(
                stats.total.ops_delivered as f64,
                stats.total.messages_delivered as f64,
            ),
        ),
        Metric::new(
            "protocols.sealed_frames_per_op",
            ratio(sealed_frames, committed),
        ),
        Metric::new("protocols.ops_per_batch", ops_per_batch),
        Metric::new(
            "protocols.timer_flush_share",
            ratio(counter(report, "batch.timer_flushes"), flushes),
        ),
        Metric::new(
            "protocols.rejected_frames_per_op",
            ratio(counter(report, "shield.rejected_frames"), committed),
        ),
        Metric::new("shard.route_ns", route.ns_per_call),
        Metric::new("shard.imbalance", stats.imbalance),
        Metric::new(
            "shard.txn_abort_share",
            ratio(stats.txn.aborted as f64, stats.txn.started as f64),
        ),
        Metric::new(
            "shard.txn_frames_per_txn",
            ratio(stats.txn.frames_sent as f64, stats.txn.committed as f64),
        ),
        Metric::new(
            "shard.txn_wire_bytes_per_txn",
            ratio(stats.txn.wire_bytes as f64, stats.txn.committed as f64),
        ),
        Metric::new("shard.view_changes", traced.outcome.view_changes as f64),
        Metric::new("gateway.admit_ns", gateway.ns_per_call),
        Metric::new("gateway.allocs_per_admit", gateway.allocs_per_call),
        Metric::new("gateway.throttled_share", ratio(throttled, presented)),
        Metric::new("gateway.rejected_share", ratio(rejected, presented)),
        Metric::new("workload.gen_ns_per_op", gen.ns_per_call),
        Metric::new("scenario.load_us", load.ns_per_call / 1e3),
        Metric::new(
            "telemetry.wall_overhead_share",
            traced.ns_per_op() / wall_ns_per_op - 1.0,
        ),
        Metric::new(
            "telemetry.spans_per_op",
            ratio(report.spans.len() as f64, committed),
        ),
        Metric::new("telemetry.spans_dropped", report.spans_dropped as f64),
    ];
    metrics.extend(VIRT_SHARE.map(|(name, category)| Metric::new(name, virt_share(category))));
    metrics.extend([
        Metric::new("host_share_est.core", share(est_core)),
        Metric::new("host_share_est.kv", share(est_kv)),
        Metric::new("host_share_est.sim", share(est_sim)),
        Metric::new("host_share_est.gateway", share(est_gateway)),
        Metric::new("host_share_est.workload", share(est_workload)),
        Metric::new("host_share_est.residual", 1.0 - share(est_sum)),
        Metric::new("e2e.raw_wall_ns_per_op", raw_wall_ns_per_op),
        Metric::new("e2e.host_slowdown", slowdown),
        Metric::new("e2e.virt_p50_us", stats.total.p50_latency_us),
        Metric::new("e2e.virt_p99_us", stats.total.p99_latency_us),
        Metric::new(
            "e2e.unavailable_virt_ms",
            longest_commit_gap_ns(&stats.timeline) as f64 / 1e6,
        ),
        Metric::new(
            "e2e.failed_ops_share",
            ratio((target - committed).max(0.0) + rejected, target + rejected),
        ),
        Metric::new("e2e.expectation_failures", pass.violations.len() as f64),
    ]);
    pass.metrics = metrics;
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_difference_names_the_path() {
        let tree = |p99: f64, buckets: Vec<i128>| {
            Value::Map(vec![
                (
                    "total".into(),
                    Value::Map(vec![("p99_latency_us".into(), Value::Float(p99))]),
                ),
                (
                    "timeline".into(),
                    Value::Array(buckets.into_iter().map(Value::Int).collect()),
                ),
            ])
        };
        let a = tree(8.5, vec![1, 2, 3]);
        assert_eq!(first_difference("stats", &a, &a), None);
        let diff = first_difference("stats", &a, &tree(9.5, vec![1, 2, 3])).unwrap();
        assert!(diff.starts_with("stats.total.p99_latency_us: "), "{diff}");
        let diff = first_difference("stats", &a, &tree(8.5, vec![1, 7, 3])).unwrap();
        assert!(diff.starts_with("stats.timeline[1]: "), "{diff}");
        let diff = first_difference("stats", &a, &tree(8.5, vec![1, 2])).unwrap();
        assert_eq!(diff, "stats.timeline: 3 vs 2 elements");
    }

    #[test]
    fn virt_share_names_follow_the_cost_categories() {
        for (name, category) in VIRT_SHARE {
            assert_eq!(name, format!("virt_share.{}", category.as_str()));
            assert!(NAMES.contains(&name));
        }
    }
}
