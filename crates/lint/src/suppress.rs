//! Inline suppression comments.
//!
//! A finding is silenced by an adjacent comment of the form
//!
//! ```text
//! // recipe-lint: allow(rule-id, reason = "why this is sound")
//! ```
//!
//! on the finding's own line or the line directly above it, or for a whole
//! file by `allow-file(...)` anywhere in that file. The `reason` is
//! mandatory and must be nonempty — suppressions are themselves linted
//! (`suppression-reason` findings), so an unexplained allow fails CI just
//! like the finding it hides.

use crate::lexer::Comment;
use crate::report::Finding;
use crate::rules;

/// One parsed suppression directive.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// 1-based line of the comment.
    pub line: usize,
    /// The rule id being allowed.
    pub rule: String,
    /// True for `allow-file` (whole-file scope) rather than `allow`
    /// (adjacent-line scope).
    pub(crate) file_scope: bool,
}

/// Parsed suppressions plus the findings the parsing itself produced
/// (malformed directive, empty reason, unknown rule).
#[derive(Debug, Default)]
pub(crate) struct Suppressions {
    /// Well-formed directives.
    pub entries: Vec<Suppression>,
    /// `suppression-reason` findings.
    pub findings: Vec<Finding>,
}

impl Suppressions {
    /// True when `(rule, line)` is covered by a directive.
    pub(crate) fn covers(&self, rule: &str, line: usize) -> bool {
        self.covering_entry(rule, line).is_some()
    }

    /// Index (into [`Suppressions::entries`]) of the first directive
    /// covering `(rule, line)`, so the engine can track which directives
    /// actually fire (`stale-allow`).
    pub(crate) fn covering_entry(&self, rule: &str, line: usize) -> Option<usize> {
        self.entries
            .iter()
            .position(|s| s.rule == rule && (s.file_scope || s.line == line || s.line + 1 == line))
    }
}

/// The marker every directive starts with.
const MARKER: &str = "recipe-lint:";

/// Scans a file's comments for `recipe-lint:` directives.
pub(crate) fn parse(path: &str, comments: &[Comment]) -> Suppressions {
    let mut out = Suppressions::default();
    for comment in comments {
        // Only a comment that *starts* with the marker is a directive —
        // prose that merely mentions `recipe-lint:` (like the example in
        // this module's docs, which keeps its `// ` framing) is not.
        let Some(directive) = comment.text.trim_start().strip_prefix(MARKER) else {
            continue;
        };
        let directive = directive.trim();
        match parse_directive(directive) {
            Ok((rule, file_scope, reason)) => {
                if rules::rule_by_id(&rule).is_none() {
                    out.findings.push(Finding::new(
                        "suppression-reason",
                        path,
                        comment.line,
                        format!(
                            "suppression names unknown rule `{rule}` (known rules: {})",
                            rules::rule_ids().join(", ")
                        ),
                    ));
                } else if reason.trim().is_empty() {
                    out.findings.push(Finding::new(
                        "suppression-reason",
                        path,
                        comment.line,
                        format!("suppression of `{rule}` has an empty reason — say why the finding is sound"),
                    ));
                } else {
                    out.entries.push(Suppression {
                        line: comment.line,
                        rule,
                        file_scope,
                    });
                }
            }
            Err(msg) => out.findings.push(Finding::new(
                "suppression-reason",
                path,
                comment.line,
                format!("malformed recipe-lint directive: {msg} (expected `allow(<rule>, reason = \"...\")`)"),
            )),
        }
    }
    out
}

/// Parses `allow(<rule>, reason = "<text>")` / `allow-file(...)`.
/// Returns `(rule, file_scope, reason)`.
fn parse_directive(text: &str) -> Result<(String, bool, String), String> {
    let (file_scope, rest) = if let Some(rest) = text.strip_prefix("allow-file") {
        (true, rest)
    } else if let Some(rest) = text.strip_prefix("allow") {
        (false, rest)
    } else {
        return Err(format!("unknown directive `{text}`"));
    };
    let rest = rest.trim_start();
    let inner = rest
        .strip_prefix('(')
        .and_then(|r| r.rfind(')').map(|end| &r[..end]))
        .ok_or_else(|| "missing parentheses".to_string())?;
    let (rule, tail) = match inner.split_once(',') {
        Some((rule, tail)) => (rule.trim(), tail.trim()),
        None => (inner.trim(), ""),
    };
    if rule.is_empty() {
        return Err("missing rule id".to_string());
    }
    let reason = match tail.strip_prefix("reason") {
        Some(assign) => {
            let assign = assign.trim_start();
            let value = assign
                .strip_prefix('=')
                .ok_or_else(|| "expected `reason = \"...\"`".to_string())?
                .trim();
            value
                .strip_prefix('"')
                .and_then(|v| v.rfind('"').map(|end| v[..end].to_string()))
                .ok_or_else(|| "reason must be a double-quoted string".to_string())?
        }
        None if tail.is_empty() => String::new(),
        None => return Err(format!("unexpected trailing `{tail}`")),
    };
    Ok((rule.to_string(), file_scope, reason))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Suppressions {
        parse("f.rs", &lex(src).comments)
    }

    #[test]
    fn well_formed_allow_covers_same_and_next_line() {
        let s = parse_src(
            "// recipe-lint: allow(unwrap-in-lib, reason = \"len checked above\")\nlet x = y.unwrap();",
        );
        assert!(s.findings.is_empty());
        assert!(s.covers("unwrap-in-lib", 1));
        assert!(s.covers("unwrap-in-lib", 2));
        assert!(!s.covers("unwrap-in-lib", 3));
        assert!(!s.covers("panic-in-lib", 2));
    }

    #[test]
    fn allow_file_covers_everything() {
        let s = parse_src("// recipe-lint: allow-file(float-arith, reason = \"report-only\")\n");
        assert!(s.covers("float-arith", 500));
    }

    #[test]
    fn empty_reason_unknown_rule_and_malformed_are_findings() {
        let s = parse_src("// recipe-lint: allow(unwrap-in-lib)\n");
        assert_eq!(s.findings.len(), 1);
        assert!(s.findings[0].message.contains("empty reason"));

        let s = parse_src("// recipe-lint: allow(bogus, reason = \"x\")\n");
        assert!(s.findings[0].message.contains("unknown rule"));

        let s = parse_src("// recipe-lint: disallow(unwrap-in-lib)\n");
        assert!(s.findings[0].message.contains("malformed"));
        assert!(s.entries.is_empty());
    }
}
