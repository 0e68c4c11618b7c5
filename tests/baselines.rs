//! The refactoring oracle: every figure in `recipe_bench::FIGURES` runs at
//! its smoke size, and the summary it writes, written as `perf_smoke` writes
//! it, is `crates/bench/baselines/BENCH_<name>.json` byte for byte. The
//! virtual clock is deterministic, so a change that moves a baseline moves
//! what the figure measures: it regenerates the baseline in the same commit
//! (`perf_smoke crates/bench/baselines <dir>`), or it is a regression. One
//! test per figure, so the test threads share them.

use std::path::{Path, PathBuf};

use recipe_bench::{baseline_stems, FigureSpec, FIGURES};

fn baselines() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/bench/baselines")
}

/// Runs the figure called `name` at its smoke size and compares the summary
/// file it writes with the committed one.
fn regenerates_byte_for_byte(name: &str) {
    let spec = FigureSpec::find(name).expect("a listed figure is registered");
    let summary = spec.summary(&(spec.run)(spec.smoke_ops));
    let file = format!("BENCH_{name}.json");
    let fresh = Path::new(env!("CARGO_TARGET_TMPDIR")).join(&file);
    summary
        .write(fresh.to_str().expect("a UTF-8 path"))
        .expect("summary written");
    let fresh = std::fs::read(&fresh).expect("the fresh summary reads");
    let committed = std::fs::read(baselines().join(&file)).expect("the baseline reads");
    assert!(
        fresh == committed,
        "{file} moved: regenerate it with perf_smoke in the commit that moves the virtual \
         clock, or find the regression\nfresh:\n{}",
        String::from_utf8_lossy(&fresh)
    );
}

/// One test per figure, and the list they make.
macro_rules! figures {
    ($($name:ident),* $(,)?) => {
        $(
            #[test]
            fn $name() {
                regenerates_byte_for_byte(stringify!($name));
            }
        )*

        const LISTED: &[&str] = &[$(stringify!($name)),*];
    };
}

figures!(
    fig3,
    fig4,
    fig5,
    fig6a,
    fig6b,
    table2,
    table4,
    damysus,
    shard_scaling,
    batching,
    rebalance,
    confidential_policy,
    txn,
    failover,
    tenancy,
);

/// Every figure has its test here and its committed baseline, and every
/// baseline its figure.
#[test]
fn every_figure_and_every_baseline_is_listed() {
    let mut listed: Vec<&str> = LISTED.to_vec();
    listed.sort_unstable();
    let mut figures: Vec<&str> = FIGURES.iter().map(|spec| spec.name).collect();
    figures.sort_unstable();
    let stems = baseline_stems(&baselines()).expect("the baselines list");
    assert_eq!(listed, figures);
    assert_eq!(stems, figures);
}
