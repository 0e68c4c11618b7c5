//! Regenerates every committed baseline: each figure in
//! `recipe_bench::FIGURES` runs in-process at its smoke operation count, and
//! the fresh `BENCH_<name>.json` lands in the output directory for CI's
//! `diff -r` against the committed one. It judges no claim: `tests/claims.rs`
//! does, on the committed files.
//!
//! Usage: `perf_smoke <baseline_dir> <out_dir>`
//!
//! Discovery is two-way: a baseline no figure regenerates and a figure with
//! no baseline are both errors (exit 2, the file named) — CI must never
//! silently skip a baseline it cannot reproduce, nor a figure whose baseline
//! was deleted.

use recipe_bench::{baseline_mismatches, FIGURES};

fn main() {
    let mut args = std::env::args().skip(1);
    let baseline_dir = args
        .next()
        .expect("usage: perf_smoke <baseline_dir> <out_dir>");
    let out_dir = args
        .next()
        .expect("usage: perf_smoke <baseline_dir> <out_dir>");
    std::fs::create_dir_all(&out_dir).expect("output dir created");

    let mismatches = baseline_mismatches(std::path::Path::new(&baseline_dir))
        .unwrap_or_else(|err| panic!("cannot list {baseline_dir}: {err}"));
    if !mismatches.is_empty() {
        for mismatch in &mismatches {
            eprintln!("{mismatch}");
        }
        std::process::exit(2);
    }

    for spec in FIGURES {
        println!("== {} (smoke: {} ops) ==", spec.name, spec.smoke_ops);
        let summary = spec.summary(&(spec.run)(spec.smoke_ops));
        let path = format!("{out_dir}/BENCH_{}.json", spec.name);
        summary.write(&path).expect("summary written");
        println!("summary written to {path}");
    }
    println!("\nperf_smoke: {} summaries regenerated", FIGURES.len());
}
