//! The end-to-end pass: what a user of the system sees, with telemetry off.
//!
//! One warm-up rep (discarded), then `timed_reps` timed reps. Every rep draws
//! its own input seed from the run's seed ([`workload::rep_seed`]), so a run
//! averages each metric over several request streams: host-clock metrics
//! report the median of the reps, and the exact metrics (heap counts and
//! everything on the virtual clock, which repeat bit for bit for one seed)
//! report the mean. Set-up is timed in blocks placed before and after every
//! rep, so a drift in machine state during the run is averaged over too.
//! Host-clock metrics are stated at the reference machine speed: each reading
//! is divided by the slowdown the machine-speed probe saw while it was taken
//! (see [`crate::speed`]); the raw readings are printed beside them.

use std::path::Path;

use crate::run::{account, run_rep, set_up_once, Metric, Pass, Rep};
use crate::speed;
use crate::stats::{median, summarize};
use crate::workload;

/// Names of the end-to-end metrics, in reporting order. `BENCHMARK.json`
/// must declare exactly these.
pub const NAMES: [&str; 8] = [
    "setup_s",
    "wall_ns_per_op",
    "allocs_per_op",
    "alloc_bytes_per_op",
    "peak_live_mb",
    "virt_ops_per_s",
    "virt_mean_us",
    "virt_p90_us",
];

/// The metrics measured on the host clock: they carry noise, so two runs of
/// one seed agree only within their bound. Every other end-to-end metric is
/// exact: it repeats bit for bit for one seed.
pub const HOST_CLOCK: [&str; 2] = ["setup_s", "wall_ns_per_op"];

/// Set-up cycles per block; with a block before the warm-up and one after
/// every rep, a four-rep run takes its median over 1 200 cycles (and its
/// machine-speed correction from the few dozen probe samples that fall
/// inside them).
const SETUP_CYCLES_PER_BLOCK: usize = 200;

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Runs the pass over workload `name`.
pub fn run(dir: &Path, name: &str, seed: u64, timed_reps: u64) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let mut setup_s: Vec<f64> = Vec::new();
    let mut setup_speed = speed::Speed::default();
    let mut set_up_block = || -> Result<(), String> {
        let before = speed::mark();
        for _ in 0..SETUP_CYCLES_PER_BLOCK {
            setup_s.push(set_up_once(dir, name, seed)? as f64 / 1e9);
        }
        let seen = speed::since(before);
        setup_speed.probe_total_ns += seen.probe_total_ns;
        setup_speed.samples += seen.samples;
        Ok(())
    };

    set_up_block()?;
    let mut reps: Vec<Rep> = Vec::new();
    for rep in 0..=timed_reps {
        let scenario = workload::load(dir, name, workload::rep_seed(seed, rep))?;
        let measured = run_rep(&scenario);
        account(
            &mut pass,
            &scenario,
            &measured,
            &format!("{name} rep {rep}"),
        );
        // Rep 0 warms the heap, the caches and the branch predictors; its
        // correctness counts, its measurements do not.
        if rep > 0 {
            reps.push(measured);
        }
        set_up_block()?;
    }

    let per_rep = |f: &dyn Fn(&Rep) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    let per_op = |f: &dyn Fn(&Rep) -> u64| -> Vec<f64> {
        per_rep(&|r| f(r) as f64 / r.committed().max(1) as f64)
    };
    let exact = |name: &'static str, values: Vec<f64>| {
        Metric::with_spread(name, mean(&values), summarize(&values))
    };
    let host = |name: &'static str, values: &[f64]| {
        Metric::with_spread(name, median(values), summarize(values))
    };
    // A probe sample lands inside about one set-up cycle in thirty; the
    // median cycle holds none, so only the slowdown is applied to the cycles.
    let setup_slowdown = setup_speed.slowdown();
    let raw_setup_s = median(&setup_s);
    let setup_s: Vec<f64> = setup_s.iter().map(|s| s / setup_slowdown).collect();
    let wall = per_rep(&Rep::ns_per_op);
    let raw_wall = per_rep(&Rep::raw_ns_per_op);
    let slowdown = per_rep(&|r| r.speed.slowdown());
    pass.notes = vec![
        format!(
            "as read: setup_s {raw_setup_s:.9} at machine slowdown {:.3} ({} probe samples)",
            setup_slowdown,
            setup_speed.samples
        ),
        format!(
            "as read: wall_ns_per_op {:.1} (per rep {:.1?}) at machine slowdown {:.3} (per rep {:.3?})",
            median(&raw_wall),
            raw_wall,
            median(&slowdown),
            slowdown
        ),
    ];
    pass.metrics = vec![
        host("setup_s", &setup_s),
        host("wall_ns_per_op", &wall),
        exact("allocs_per_op", per_op(&|r| r.heap.allocs)),
        exact("alloc_bytes_per_op", per_op(&|r| r.heap.bytes)),
        exact(
            "peak_live_mb",
            per_rep(&|r| r.heap.peak_live_bytes as f64 / 1e6),
        ),
        exact(
            "virt_ops_per_s",
            per_rep(&|r| r.outcome.stats.total.throughput_ops),
        ),
        exact(
            "virt_mean_us",
            per_rep(&|r| r.outcome.stats.total.mean_latency_us),
        ),
        exact(
            "virt_p90_us",
            per_rep(&|r| r.outcome.stats.total.p90_latency_us),
        ),
    ];
    Ok(pass)
}
