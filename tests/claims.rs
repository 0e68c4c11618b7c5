//! The claims ledger over the committed baselines: every figure states a
//! claim, every claim holds on `crates/bench/baselines/BENCH_<name>.json`,
//! and README quotes the rendered ledger verbatim. Nothing runs here:
//! `tests/baselines.rs` regenerates every baseline and pins the fresh run to
//! its file byte for byte (CI's release `diff -r` does the same), so judging
//! the files judges the runs.

use std::path::Path;

use recipe_bench::{baseline_stems, judge, BenchSummary, FIGURES};

/// The rendered ledger and its failures over the committed baselines.
fn ledger() -> (String, Vec<String>) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/bench/baselines");
    let read = |stem: &String| {
        let text = std::fs::read_to_string(dir.join(format!("BENCH_{stem}.json")));
        serde_json::from_str(&text.expect("a baseline reads")).expect("a baseline parses")
    };
    let stems = baseline_stems(&dir).expect("the baselines list");
    let summaries: Vec<BenchSummary> = stems.iter().map(read).collect();
    judge(FIGURES, &summaries)
}

#[test]
fn every_figure_states_claims_that_hold_on_the_committed_baselines() {
    let failures = ledger().1;
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn readme_quotes_the_rendered_ledger() {
    let readme = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("README.md"));
    let readme = readme.expect("README reads");
    let (begin, end) = ("<!-- claims:begin -->\n", "<!-- claims:end -->");
    let start = readme.find(begin).expect("README opens a claims block") + begin.len();
    let stop = readme.find(end).expect("README closes its claims block");
    let fresh = ledger().0;
    assert!(
        readme[start..stop] == fresh,
        "README's claims block is stale; the rendered ledger is:\n{begin}{fresh}{end}"
    );
}
