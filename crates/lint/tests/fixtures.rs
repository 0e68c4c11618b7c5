//! Fixture corpus contract, mirroring `scenarios/malformed/`: every rule has
//! one firing fixture (first line `// expect-finding: <rule>`) that must
//! produce that finding, and one clean fixture showing the sanctioned form
//! that must produce none. A rule that is disabled — or whose matcher
//! regresses — fails its firing fixture here.
//!
//! Fixtures are lexed, never compiled, and live under `crates/lint/fixtures/`
//! (a path the analyzer itself classifies as test collateral), so each file
//! is linted under a synthetic workspace path that puts it in the right
//! rule scope: determinism fixtures in a core crate, the uncharged-send
//! fixture on an audited send path, the rest in ordinary library code.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use recipe_lint::{lint_files, rule_ids, Config, LintReport};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

/// The scope each rule's fixtures are linted under.
fn synthetic_path(rule: &str) -> &'static str {
    match rule {
        "wall-clock" | "thread-spawn" | "ambient-rng" | "hash-iteration" | "float-arith"
        | "json-on-wire" => "crates/core/src/fixture.rs",
        "uncharged-send" => "crates/shard/src/fixture.rs",
        _ => "crates/kv/src/fixture.rs",
    }
}

fn fixture_config() -> Config {
    Config {
        core_paths: vec!["crates/core/src".into()],
        send_allowed: vec!["crates/protocols/src".into()],
        charged_paths: vec!["crates/shard/src".into()],
        ..Config::default()
    }
}

fn lint_fixture(dir: &str, rule: &str) -> (String, LintReport) {
    let path = fixtures_dir().join(dir).join(format!("{rule}.rs"));
    let source = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    let report = lint_files(
        &[(synthetic_path(rule).to_string(), source.clone())],
        &fixture_config(),
    );
    (source, report)
}

#[test]
fn corpus_covers_every_rule() {
    for dir in ["firing", "clean"] {
        let have: BTreeSet<String> = std::fs::read_dir(fixtures_dir().join(dir))
            .expect("fixture dir")
            .map(|e| {
                e.expect("fixture entry")
                    .file_name()
                    .to_string_lossy()
                    .trim_end_matches(".rs")
                    .to_string()
            })
            .collect();
        let want: BTreeSet<String> = rule_ids().iter().map(|r| r.to_string()).collect();
        assert_eq!(
            have, want,
            "{dir}/ fixtures out of sync with the rule catalogue"
        );
    }
}

#[test]
fn firing_fixtures_fire_their_declared_rule() {
    for rule in rule_ids() {
        let (source, report) = lint_fixture("firing", rule);
        let contract = source.lines().next().unwrap_or_default();
        assert_eq!(
            contract,
            format!("// expect-finding: {rule}"),
            "firing/{rule}.rs first-line contract"
        );
        assert!(
            report.findings.iter().any(|f| f.rule == *rule),
            "firing/{rule}.rs produced no `{rule}` finding; got: {:?}",
            report.findings
        );
    }
}

#[test]
fn clean_fixtures_produce_no_findings() {
    for rule in rule_ids() {
        let (_, report) = lint_fixture("clean", rule);
        assert!(
            report.is_clean(),
            "clean/{rule}.rs is not clean: {:?}",
            report.findings
        );
    }
}

/// The acceptance scenario spelled out in the issue: a seeded duplicate
/// MAC domain split across two files is caught by the cross-file pass.
#[test]
fn seeded_cross_file_domain_duplicate_is_caught() {
    let report = lint_files(
        &[
            (
                "crates/kv/src/a.rs".into(),
                "pub const A_MAC_DOMAIN: &str = \"recipe.seeded_dup.v1\";".into(),
            ),
            (
                "crates/kv/src/b.rs".into(),
                "pub const B_MAC_DOMAIN: &str = \"recipe.seeded_dup.v1\";".into(),
            ),
        ],
        &fixture_config(),
    );
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert_eq!(report.findings[0].rule, "mac-domain-unique");
    assert_eq!(report.findings[0].file, "crates/kv/src/b.rs");
}
