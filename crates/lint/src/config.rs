//! `lint.toml` loading.
//!
//! The config file is parsed with [`recipe_scenario::toml`] — the same
//! hand-rolled TOML parser scenario files use — and decoded with the same
//! strict [`MapDecoder`]: unknown keys are rejected with the allowed set
//! named, so a typo'd knob fails loudly instead of silently disabling a
//! rule.

use recipe_scenario::decode::{MapDecoder, ScenarioError};

use crate::rules;

/// One config-level suppression: a rule silenced for a path prefix, with a
/// mandatory human reason (reasons are themselves linted — an empty one is
/// a finding).
#[derive(Debug, Clone)]
pub(crate) struct PathAllow {
    /// Rule id being allowed.
    pub rule: String,
    /// Path prefix (repo-relative, `/`-separated) the allow covers.
    pub path: String,
    /// Why the rule is allowed here.
    pub reason: String,
}

/// The analyzer configuration, normally loaded from `lint.toml` at the
/// workspace root.
#[derive(Debug, Clone)]
pub struct Config {
    /// Directories (repo-relative) to walk for `.rs` files.
    pub(crate) roots: Vec<String>,
    /// Path prefixes excluded from the walk (fixtures, vendor stand-ins).
    pub(crate) exclude: Vec<String>,
    /// Path prefixes of the deterministic core — the determinism rule
    /// family only fires here.
    pub core_paths: Vec<String>,
    /// Path prefixes where raw `Ctx::send`/`send_batch`/`broadcast`
    /// callsites are sanctioned (the shield/wrap modules themselves).
    pub send_allowed: Vec<String>,
    /// Files whose functions form audited send paths: a function that
    /// seals frames there must show cost-accounting evidence.
    pub charged_paths: Vec<String>,
    /// Method names that count as "seals a frame" in `charged_paths`.
    pub(crate) seal_tokens: Vec<String>,
    /// Identifier substrings that count as cost-accounting evidence.
    pub(crate) charge_evidence: Vec<String>,
    /// Config-level suppressions.
    pub(crate) allows: Vec<PathAllow>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            roots: vec!["crates".into(), "src".into()],
            exclude: Vec::new(),
            core_paths: Vec::new(),
            send_allowed: Vec::new(),
            charged_paths: Vec::new(),
            seal_tokens: default_seal_tokens(),
            charge_evidence: default_charge_evidence(),
            allows: Vec::new(),
        }
    }
}

fn default_seal_tokens() -> Vec<String> {
    ["seal", "seal_request", "seal_response", "shield", "wrap"]
        .map(String::from)
        .to_vec()
}

fn default_charge_evidence() -> Vec<String> {
    ["charge", "cost", "send_leg"].map(String::from).to_vec()
}

/// Parses and strictly decodes a `lint.toml` document.
pub(crate) fn parse_config(text: &str) -> Result<Config, ScenarioError> {
    let doc = recipe_scenario::toml::parse(text).map_err(ScenarioError::msg)?;
    let mut root = MapDecoder::new(&doc, "")?;
    let mut config = Config::default();

    root.table("scan", |scan| {
        if let Some(roots) = scan.opt::<Vec<String>>("roots")? {
            config.roots = roots;
        }
        config.exclude = scan.opt_or("exclude", Vec::new())?;
        Ok(())
    })?;
    root.table("determinism", |det| {
        config.core_paths = det.opt_or("core_paths", Vec::new())?;
        Ok(())
    })?;
    root.table("shield", |shield| {
        config.send_allowed = shield.opt_or("send_allowed", Vec::new())?;
        config.charged_paths = shield.opt_or("charged_paths", Vec::new())?;
        if let Some(tokens) = shield.opt::<Vec<String>>("seal_tokens")? {
            config.seal_tokens = tokens;
        }
        if let Some(evidence) = shield.opt::<Vec<String>>("charge_evidence")? {
            config.charge_evidence = evidence;
        }
        Ok(())
    })?;
    config.allows = root.tables("allow", |_, allow| {
        let entry = PathAllow {
            rule: allow.req("rule")?,
            path: allow.req("path")?,
            reason: allow.req("reason")?,
        };
        if rules::rule_by_id(&entry.rule).is_none() {
            return Err(ScenarioError(format!(
                "[[allow]] names unknown rule `{}` (known rules: {})",
                entry.rule,
                rules::rule_ids().join(", ")
            )));
        }
        Ok(entry)
    })?;
    root.deny_unknown()?;
    Ok(config)
}

impl Config {
    /// True when `path` (repo-relative, `/`-separated) falls under any of
    /// the given prefixes.
    pub(crate) fn path_matches(path: &str, prefixes: &[String]) -> bool {
        prefixes.iter().any(|p| {
            let p = p.trim_end_matches('/');
            path == p || path.starts_with(&format!("{p}/"))
        })
    }

    /// Config-level allow covering `(rule, path)`, if any.
    pub(crate) fn allow_for(&self, rule: &str, path: &str) -> Option<&PathAllow> {
        self.allow_index_for(rule, path).map(|i| &self.allows[i])
    }

    /// Index (into [`Config::allows`]) of the first allow covering
    /// `(rule, path)`, so the engine can track which allows actually fire
    /// (`stale-allow`).
    pub(crate) fn allow_index_for(&self, rule: &str, path: &str) -> Option<usize> {
        self.allows.iter().position(|a| {
            a.rule == rule && Config::path_matches(path, std::slice::from_ref(&a.path))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decodes_a_full_config() {
        let config = parse_config(
            r#"
[scan]
roots = ["crates", "src"]
exclude = ["crates/lint/fixtures"]

[determinism]
core_paths = ["crates/sim/src"]

[shield]
send_allowed = ["crates/protocols/src"]
charged_paths = ["crates/shard/src/txn.rs"]

[[allow]]
rule = "float-arith"
path = "crates/sim/src/cost.rs"
reason = "fixed-order accumulation"
"#,
        )
        .expect("config parses");
        assert_eq!(config.exclude, vec!["crates/lint/fixtures"]);
        assert_eq!(config.core_paths, vec!["crates/sim/src"]);
        assert_eq!(config.allows.len(), 1);
        assert!(config
            .allow_for("float-arith", "crates/sim/src/cost.rs")
            .is_some());
        assert!(config
            .allow_for("float-arith", "crates/sim/src/cluster.rs")
            .is_none());
    }

    #[test]
    fn unknown_keys_and_rules_are_rejected() {
        let err = parse_config("[scan]\nrots = [\"crates\"]\n").unwrap_err();
        assert!(err.to_string().contains("unknown key"), "{err}");
        let err =
            parse_config("[[allow]]\nrule = \"no-such-rule\"\npath = \"x\"\nreason = \"y\"\n")
                .unwrap_err();
        assert!(err.to_string().contains("unknown rule"), "{err}");
    }

    #[test]
    fn prefix_matching_is_component_wise() {
        let prefixes = vec!["crates/sim/src".to_string()];
        assert!(Config::path_matches("crates/sim/src/cost.rs", &prefixes));
        assert!(!Config::path_matches(
            "crates/sim/srcfoo/cost.rs",
            &prefixes
        ));
    }
}
