//! CI perf-regression gate: compares fresh `BENCH_*.json` smoke summaries
//! against the checked-in baselines and fails (exit 1) when any committed
//! ops/sec metric regressed beyond the tolerance.
//!
//! Usage: `perf_gate <baseline_dir> <current_dir> [tolerance]`
//!
//! Every `BENCH_*.json` in `baseline_dir` must have a matching file in
//! `current_dir`. The default tolerance is 0.15 (15%); the simulator is
//! deterministic, so the slack only absorbs intentional cost-model and
//! scheduling changes — real regressions blow well past it.

use std::path::Path;

use recipe_bench::{baseline_stems, perf_gate_compare, BenchSummary};

fn load(path: &Path) -> BenchSummary {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|err| panic!("cannot read {}: {err}", path.display()));
    serde_json::from_str(&text)
        .unwrap_or_else(|err| panic!("cannot parse {}: {err:?}", path.display()))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let baseline_dir = args
        .next()
        .expect("usage: perf_gate <baseline_dir> <current_dir> [tolerance]");
    let current_dir = args
        .next()
        .expect("usage: perf_gate <baseline_dir> <current_dir> [tolerance]");
    let tolerance: f64 = args.next().and_then(|t| t.parse().ok()).unwrap_or(0.15);

    let baselines = baseline_stems(Path::new(&baseline_dir))
        .unwrap_or_else(|err| panic!("cannot list {baseline_dir}: {err}"));
    assert!(
        !baselines.is_empty(),
        "no BENCH_*.json baselines in {baseline_dir}"
    );

    let mut violations = Vec::new();
    for stem in &baselines {
        let name = format!("BENCH_{stem}.json");
        let baseline = load(&Path::new(&baseline_dir).join(&name));
        let current = load(&Path::new(&current_dir).join(&name));
        let before = violations.len();
        violations.extend(perf_gate_compare(&baseline, &current, tolerance));
        println!(
            "{name}: {} gated metrics, {} violation(s)",
            baseline
                .metrics
                .iter()
                .filter(|m| m.name.ends_with("_ops_per_sec"))
                .count(),
            violations.len() - before
        );
    }
    if violations.is_empty() {
        println!(
            "perf gate passed ({} summaries, tolerance {:.0}%)",
            baselines.len(),
            tolerance * 100.0
        );
    } else {
        eprintln!("perf gate FAILED:");
        for violation in &violations {
            eprintln!("  {violation}");
        }
        std::process::exit(1);
    }
}
