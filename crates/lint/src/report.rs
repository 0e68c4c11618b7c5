//! Findings and report rendering (human and JSON).

use serde::Serialize;

/// One unsuppressed rule violation.
#[derive(Debug, Clone, Serialize)]
pub struct Finding {
    /// Rule id (see [`crate::rules::RULES`]).
    pub rule: String,
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// What is wrong and what to do about it.
    pub message: String,
}

impl Finding {
    /// Builds a finding.
    pub(crate) fn new(rule: &str, file: &str, line: usize, message: impl Into<String>) -> Self {
        Finding {
            rule: rule.to_string(),
            file: file.to_string(),
            line,
            message: message.into(),
        }
    }
}

/// The outcome of a workspace pass.
#[derive(Debug, Serialize)]
pub struct LintReport {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Findings silenced by inline or config suppressions.
    pub(crate) suppressed: usize,
    /// Unsuppressed findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
}

impl LintReport {
    /// True when the workspace is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders the human-readable report.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}:{}: [{}] {}\n",
                f.file, f.line, f.rule, f.message
            ));
        }
        out.push_str(&format!(
            "recipe-lint: {} finding(s), {} suppressed, {} file(s) scanned\n",
            self.findings.len(),
            self.suppressed,
            self.files_scanned
        ));
        out
    }

    /// Renders the JSON report (stable schema: `files_scanned`,
    /// `suppressed`, `findings[{rule,file,line,message}]`).
    pub fn json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_both_formats() {
        let report = LintReport {
            files_scanned: 2,
            suppressed: 1,
            findings: vec![Finding::new("unwrap-in-lib", "a.rs", 3, "msg")],
        };
        let human = report.human();
        assert!(human.contains("a.rs:3: [unwrap-in-lib] msg"));
        assert!(human.contains("1 finding(s), 1 suppressed, 2 file(s) scanned"));
        let json = report.json();
        assert!(json.contains("\"rule\""));
        assert!(json.contains("unwrap-in-lib"));
        assert!(!report.is_clean());
    }
}
