//! # recipe-lint — workspace static analysis
//!
//! Every guarantee this reproduction makes — bit-identical committed state
//! across seeds, every frame riding `AuthLayer`/`ProtocolShield`, disjoint
//! MAC domains per wire format — used to be enforced by convention and
//! after-the-fact proptests. This crate makes those invariants
//! machine-checked at CI time: a comment/string/raw-string-aware Rust
//! `lexer`, a lightweight item `scope` scanner (no `syn` — token-level,
//! like `recipe_scenario::toml`), and a `rules` engine with three rule
//! families (determinism, shield coverage, hygiene) driven by a `lint.toml`
//! `config` that reuses the scenario crate's TOML parser.
//!
//! Findings are silenced either by a config-level `[[allow]]` (rule + path
//! prefix + reason) or an inline
//! `recipe-lint: allow(<rule>, reason = "…")` comment — and the
//! suppressions are themselves linted: an empty or missing reason is a
//! finding (`suppress`).
//!
//! The `recipe-lint` binary walks the workspace, prints human or JSON
//! output and exits `0` (clean), `1` (findings) or `2` (usage/config
//! error); the `lint` CI job gates on it. The workspace itself stays clean:
//! real findings get fixed or explicitly suppressed with reasons.

mod config;
mod lexer;
mod report;
mod rules;
mod scope;
mod suppress;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use config::parse_config;
pub use config::Config;
pub use report::{Finding, LintReport};
pub use rules::{rule_ids, RULES};

/// An analyzer failure (I/O or configuration), distinct from findings.
#[derive(Debug)]
pub struct LintError(pub String);

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for LintError {}

/// Directories read only for the names they mention: `pub-unreached`
/// counts a mention there as a reference, and no per-file rule runs on
/// them. `wall_bench/src` is the benchmark package's view of the API.
const REFERENCE_ROOTS: &[&str] = &["tests", "examples", "wall_bench/src"];

/// Lints an in-memory set of `(repo-relative path, source)` files. This is
/// the engine the binary, the fixture tests and the workspace-clean test
/// all share. A file outside the configured scan roots is read for
/// references only.
pub fn lint_files(files: &[(String, String)], config: &Config) -> LintReport {
    let mut raw: Vec<Finding> = Vec::new();
    let mut domains = Vec::new();
    let mut pub_items = Vec::new();
    let mut references = rules::References::new();
    let mut suppressions: BTreeMap<String, suppress::Suppressions> = BTreeMap::new();

    for (path, source) in files {
        let lexed = lexer::lex(source);
        rules::note_references(path, &lexed.tokens, &mut references);
        if !Config::path_matches(path, &config.roots) {
            continue;
        }
        let scopes = scope::scan(&lexed.tokens);
        let supp = suppress::parse(path, &lexed.comments);
        let analysis = rules::analyze_file(path, &lexed.tokens, &scopes, config);
        raw.extend(analysis.findings);
        raw.extend(supp.findings.iter().cloned());
        domains.extend(analysis.domains);
        pub_items.extend(analysis.pub_items);
        suppressions.insert(path.clone(), supp);
    }
    raw.extend(rules::check_domain_uniqueness(&domains));
    raw.extend(rules::check_pub_reached(&pub_items, &references));

    // Filter through the suppressions, remembering which ones actually
    // fired so the unused remainder can be reported as stale.
    let mut used_allows = vec![false; config.allows.len()];
    let mut used_inline: BTreeMap<&str, Vec<bool>> = suppressions
        .iter()
        .map(|(path, s)| (path.as_str(), vec![false; s.entries.len()]))
        .collect();
    let mut suppressed = 0usize;
    let mut findings: Vec<Finding> = Vec::new();
    for f in raw {
        if let Some(idx) = config.allow_index_for(&f.rule, &f.file) {
            used_allows[idx] = true;
            suppressed += 1;
        } else if let Some((used, idx)) = suppressions
            .get(&f.file)
            .and_then(|s| s.covering_entry(&f.rule, f.line))
            .and_then(|idx| used_inline.get_mut(f.file.as_str()).map(|u| (u, idx)))
        {
            used[idx] = true;
            suppressed += 1;
        } else {
            findings.push(f);
        }
    }

    // stale-allow: every suppression must still silence something. A
    // directive allowing `stale-allow` itself is exempt — it exists to
    // silence this pass, so "unused" is its steady state and flagging it
    // would never reach a fixpoint.
    let mut stale: Vec<Finding> = Vec::new();
    for (idx, allow) in config.allows.iter().enumerate() {
        if allow.rule != "stale-allow" && !used_allows[idx] {
            stale.push(Finding::new(
                "stale-allow",
                "lint.toml",
                0,
                format!(
                    "[[allow]] of `{}` for `{}` (\"{}\") silences no finding — the code it excused has moved on; delete the entry",
                    allow.rule, allow.path, allow.reason
                ),
            ));
        }
    }
    for (path, supp) in &suppressions {
        for (idx, entry) in supp.entries.iter().enumerate() {
            if entry.rule != "stale-allow" && !used_inline[path.as_str()][idx] {
                stale.push(Finding::new(
                    "stale-allow",
                    path,
                    entry.line,
                    format!(
                        "`recipe-lint: {}({})` silences no finding — the code it excused has moved on; delete the comment",
                        if entry.file_scope { "allow-file" } else { "allow" },
                        entry.rule
                    ),
                ));
            }
        }
    }
    // Stale findings ride the normal suppression channel (without feeding
    // back into usage tracking).
    for f in stale {
        let allowed = config.allow_for(&f.rule, &f.file).is_some()
            || suppressions
                .get(&f.file)
                .is_some_and(|s| s.covers(&f.rule, f.line));
        if allowed {
            suppressed += 1;
        } else {
            findings.push(f);
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    LintReport {
        files_scanned: files.len(),
        suppressed,
        findings,
    }
}

/// Walks `root` for `.rs` files under the configured scan roots and lints
/// them.
pub fn lint_workspace(root: &Path, config: &Config) -> Result<LintReport, LintError> {
    let files = collect_sources(root, config)?;
    Ok(lint_files(&files, config))
}

/// Loads `lint.toml` from `root` (falling back to defaults when absent)
/// and lints the workspace.
pub fn lint_workspace_at(root: &Path) -> Result<LintReport, LintError> {
    let config_path = root.join("lint.toml");
    let config = if config_path.exists() {
        load_config(&config_path)?
    } else {
        Config::default()
    };
    lint_workspace(root, &config)
}

/// Reads and strictly parses a `lint.toml`.
pub fn load_config(path: &Path) -> Result<Config, LintError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| LintError(format!("cannot read {}: {e}", path.display())))?;
    parse_config(&text).map_err(|e| LintError(format!("{}: {e}", path.display())))
}

/// Collects `(repo-relative path, source)` pairs under the scan roots and
/// [`REFERENCE_ROOTS`], in sorted path order (the walk itself must be
/// deterministic).
fn collect_sources(root: &Path, config: &Config) -> Result<Vec<(String, String)>, LintError> {
    let mut paths: Vec<PathBuf> = Vec::new();
    let reference_roots = REFERENCE_ROOTS.iter().map(|r| r.to_string());
    for scan_root in config.roots.iter().cloned().chain(reference_roots) {
        let dir = root.join(scan_root);
        if dir.is_dir() {
            walk(&dir, &mut paths)?;
        }
    }
    let mut rel: Vec<String> = paths
        .iter()
        .filter_map(|p| {
            p.strip_prefix(root)
                .ok()
                .map(|r| r.to_string_lossy().replace('\\', "/"))
        })
        .filter(|r| !Config::path_matches(r, &config.exclude))
        .collect();
    rel.sort_unstable();
    rel.dedup();
    let mut out = Vec::with_capacity(rel.len());
    for r in rel {
        let text = std::fs::read_to_string(root.join(&r))
            .map_err(|e| LintError(format!("cannot read {r}: {e}")))?;
        out.push((r, text));
    }
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| LintError(format!("cannot list {}: {e}", dir.display())))?;
    for entry in entries {
        let entry =
            entry.map_err(|e| LintError(format!("walk error under {}: {e}", dir.display())))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // Never descend into build output or the vendored stand-ins.
            if name == "target" || name == "vendor" || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PathAllow;

    fn file(path: &str, src: &str) -> (String, String) {
        (path.to_string(), src.to_string())
    }

    #[test]
    fn inline_suppression_with_reason_silences_a_finding() {
        let config = Config::default();
        let dirty = lint_files(
            &[file("crates/x/src/lib.rs", "fn f() { g().unwrap(); }")],
            &config,
        );
        assert_eq!(dirty.findings.len(), 1);
        assert_eq!(dirty.suppressed, 0);

        let clean = lint_files(
            &[file(
                "crates/x/src/lib.rs",
                "fn f() {\n    // recipe-lint: allow(unwrap-in-lib, reason = \"g is total\")\n    g().unwrap();\n}",
            )],
            &config,
        );
        assert!(clean.is_clean(), "{:?}", clean.findings);
        assert_eq!(clean.suppressed, 1);
    }

    #[test]
    fn suppression_without_reason_is_itself_a_finding() {
        let report = lint_files(
            &[file(
                "crates/x/src/lib.rs",
                "fn f() {\n    // recipe-lint: allow(unwrap-in-lib)\n    g().unwrap();\n}",
            )],
            &Config::default(),
        );
        // The unwrap stays unsuppressed AND the empty reason is flagged.
        let rules: Vec<&str> = report.findings.iter().map(|f| f.rule.as_str()).collect();
        assert!(rules.contains(&"unwrap-in-lib"));
        assert!(rules.contains(&"suppression-reason"));
    }

    #[test]
    fn config_allow_silences_by_path_prefix() {
        let mut config = Config::default();
        config.allows.push(PathAllow {
            rule: "unwrap-in-lib".into(),
            path: "crates/x/src".into(),
            reason: "sanctioned".into(),
        });
        let report = lint_files(
            &[
                file("crates/x/src/lib.rs", "fn f() { g().unwrap(); }"),
                file("crates/y/src/lib.rs", "fn f() { g().unwrap(); }"),
            ],
            &config,
        );
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].file, "crates/y/src/lib.rs");
        assert_eq!(report.suppressed, 1);
    }

    #[test]
    fn unused_inline_suppression_is_stale() {
        let report = lint_files(
            &[file(
                "crates/x/src/lib.rs",
                "fn f() {\n    // recipe-lint: allow(unwrap-in-lib, reason = \"g is total\")\n    g()?;\n}",
            )],
            &Config::default(),
        );
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        assert_eq!(report.findings[0].rule, "stale-allow");
        assert_eq!(report.findings[0].line, 2);
    }

    #[test]
    fn unused_config_allow_is_stale_and_lands_on_lint_toml() {
        let mut config = Config::default();
        config.allows.push(PathAllow {
            rule: "unwrap-in-lib".into(),
            path: "crates/x/src".into(),
            reason: "sanctioned".into(),
        });
        let report = lint_files(&[file("crates/x/src/lib.rs", "fn f() { g(); }")], &config);
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        assert_eq!(report.findings[0].rule, "stale-allow");
        assert_eq!(report.findings[0].file, "lint.toml");
    }

    #[test]
    fn stale_allow_suppressions_are_exempt_from_staleness() {
        // An allow of stale-allow itself is never reported stale (that
        // would regress forever), and it silences the stale finding of a
        // neighbouring dead directive.
        let mut config = Config::default();
        config.allows.push(PathAllow {
            rule: "stale-allow".into(),
            path: "crates/x/src".into(),
            reason: "directive kept for a pending revert".into(),
        });
        let report = lint_files(
            &[file(
                "crates/x/src/lib.rs",
                "fn f() {\n    // recipe-lint: allow(unwrap-in-lib, reason = \"g is total\")\n    g()?;\n}",
            )],
            &config,
        );
        assert!(report.is_clean(), "{:?}", report.findings);
        assert_eq!(report.suppressed, 1);
    }

    #[test]
    fn cross_file_domain_duplicates_are_caught() {
        let report = lint_files(
            &[
                file(
                    "crates/a/src/lib.rs",
                    "const A_MAC_DOMAIN: &[u8] = b\"recipe.batch.v1\";",
                ),
                file(
                    "crates/b/src/lib.rs",
                    "const B_MAC_DOMAIN: &[u8] = b\"recipe.batch.v1\";",
                ),
            ],
            &Config::default(),
        );
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, "mac-domain-unique");
        assert_eq!(report.findings[0].file, "crates/b/src/lib.rs");
    }

    #[test]
    fn pub_items_need_a_reference_from_outside_their_crate() {
        let lib = "pub fn helper() {}\nfn caller() { helper(); }\n\
                   #[cfg(test)]\npub fn observer() {}\n\
                   #[cfg(test)]\nmod tests { pub fn fixture() {} }";
        let unreached = |extra: &[(String, String)]| -> Vec<(String, usize)> {
            let mut files = vec![file("crates/a/src/lib.rs", lib)];
            files.extend_from_slice(extra);
            lint_files(&files, &Config::default())
                .findings
                .into_iter()
                .map(|f| (f.rule, f.line))
                .collect()
        };
        // Named only inside crate `a` (and the test items never count).
        assert_eq!(unreached(&[]), vec![("pub-unreached".to_string(), 1)]);
        // Another crate, an integration test, an example or the benchmark
        // package naming it clears it.
        for path in [
            "crates/b/src/lib.rs",
            "crates/a/tests/t.rs",
            "tests/t.rs",
            "examples/e.rs",
            "wall_bench/src/main.rs",
        ] {
            assert!(
                unreached(&[file(path, "fn f() { recipe_a::helper(); }")]).is_empty(),
                "{path}"
            );
        }
    }

    #[test]
    fn pub_items_are_reached_through_reached_interfaces() {
        let lib = "pub fn open() -> Handle { Handle }\n\
                   pub struct Handle;\n\
                   pub struct Orphan;\n\
                   pub const RAW: u8 = 0;\n\
                   pub use self::RAW as ALIAS;";
        let report = lint_files(
            &[
                file("crates/a/src/lib.rs", lib),
                file(
                    "tests/t.rs",
                    "fn f() { recipe_a::open(); recipe_a::ALIAS; }",
                ),
            ],
            &Config::default(),
        );
        // `Handle` is reached through `open`'s signature and `RAW` through
        // its alias; `Orphan` is named nowhere else.
        let lines: Vec<usize> = report.findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![3], "{:?}", report.findings);
    }
}
