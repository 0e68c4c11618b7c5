//! The rule catalogue and per-file analysis.
//!
//! Three families, mirroring the invariants the rest of the workspace
//! enforces dynamically:
//!
//! * **determinism** — the simulation core (`lint.toml`'s
//!   `determinism.core_paths`) must stay bit-reproducible: no wall clocks,
//!   no OS threads, no ambient RNG, no hash-order iteration, no floating
//!   point outside explicitly allowed files;
//! * **shield** — every frame rides `AuthLayer`/`ProtocolShield`: raw
//!   `Ctx::send` callsites are confined to the wrap modules, MAC-domain
//!   constants are unique and well-shaped workspace-wide, and audited send
//!   paths show cost-accounting evidence next to their sealing calls;
//! * **hygiene** — non-test, non-bin library code does not `unwrap`,
//!   `panic!` or `println!` its way past error handling.
//!
//! Everything is token-level pattern matching over [`crate::lexer`] output
//! — deliberately no `syn`, in the same idiom as `recipe_scenario::toml`.

use crate::config::Config;
use crate::lexer::{Token, TokenKind};
use crate::report::Finding;
use crate::scope::Scopes;

/// One rule's identity and documentation line.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable kebab-case id, used in suppressions and `lint.toml`.
    pub id: &'static str,
    /// Rule family (`determinism`, `shield`, `hygiene`, `meta`).
    pub family: &'static str,
    /// One-line description for `--help` and the README catalogue.
    pub summary: &'static str,
}

/// The full rule catalogue.
pub const RULES: &[Rule] = &[
    Rule {
        id: "wall-clock",
        family: "determinism",
        summary: "std::time::{Instant,SystemTime} in deterministic core code (use the virtual clock / TrustedInstant)",
    },
    Rule {
        id: "thread-spawn",
        family: "determinism",
        summary: "std::thread in deterministic core code (the simulator owns all interleaving)",
    },
    Rule {
        id: "ambient-rng",
        family: "determinism",
        summary: "ambient randomness (thread_rng/OsRng/from_entropy/rand::random) in core code (use the seeded RNG)",
    },
    Rule {
        id: "hash-iteration",
        family: "determinism",
        summary: "iteration over HashMap/HashSet in core code (hash order is nondeterministic; use BTree* or collect+sort)",
    },
    Rule {
        id: "float-arith",
        family: "determinism",
        summary: "floating point in core code outside allowed files (cost accounting must stay integral)",
    },
    Rule {
        id: "raw-ctx-send",
        family: "shield",
        summary: "Ctx::send/send_batch/broadcast outside the allowlisted shield/wrap modules (frames must ride the shield)",
    },
    Rule {
        id: "mac-domain-shape",
        family: "shield",
        summary: "MAC-domain constant not shaped `recipe.<kind>.v<N>`",
    },
    Rule {
        id: "mac-domain-unique",
        family: "shield",
        summary: "two MAC-domain constants share a value (wire domains must be disjoint)",
    },
    Rule {
        id: "uncharged-send",
        family: "shield",
        summary: "a function on an audited send path seals frames without cost-accounting evidence",
    },
    Rule {
        id: "json-on-wire",
        family: "shield",
        summary: "serde_json in replication-plane code (frames and protocol messages use the recipe_core::wire binary codec; JSON is for config and reports)",
    },
    Rule {
        id: "unwrap-in-lib",
        family: "hygiene",
        summary: "unwrap/expect in non-test library code (return an error, or suppress with the invariant)",
    },
    Rule {
        id: "panic-in-lib",
        family: "hygiene",
        summary: "panic!/todo!/unimplemented! in non-test library code",
    },
    Rule {
        id: "print-in-lib",
        family: "hygiene",
        summary: "println!/print!/eprintln!/eprint!/dbg! in non-test library code (use the telemetry/report surface)",
    },
    Rule {
        id: "suppression-reason",
        family: "meta",
        summary: "recipe-lint suppression with a missing/empty reason or naming an unknown rule",
    },
    Rule {
        id: "stale-allow",
        family: "meta",
        summary: "a suppression (inline or lint.toml [[allow]]) that no longer silences any finding",
    },
];

/// Looks a rule up by id.
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// All rule ids, in catalogue order.
pub fn rule_ids() -> Vec<&'static str> {
    RULES.iter().map(|r| r.id).collect()
}

/// A `const *DOMAIN*` string constant collected for the MAC-domain rules.
#[derive(Debug, Clone)]
pub struct DomainConst {
    /// Repo-relative file.
    pub file: String,
    /// 1-based line of the `const`.
    pub line: usize,
    /// Constant name.
    pub name: String,
    /// The literal value.
    pub value: String,
}

/// Per-file analysis output: raw findings (pre-suppression) plus the
/// domain constants for the cross-file uniqueness pass.
#[derive(Debug, Default)]
pub struct FileAnalysis {
    /// Raw findings (suppressions are applied by the engine).
    pub findings: Vec<Finding>,
    /// Collected MAC-domain constants.
    pub domains: Vec<DomainConst>,
}

/// Methods whose call observes hash order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "drain",
    "retain",
    "extract_if",
];

/// The one crate outside `determinism.core_paths` whose messages share the
/// replication plane's wire: the BFT baselines are compared frame for frame
/// with the Recipe protocols, so they must use the same codec.
const BFT_WIRE_PATH: &str = "crates/bft/src/";

/// True for paths that hold test/bench/example/fixture code rather than
/// shipped library code.
fn is_test_path(path: &str) -> bool {
    path.split('/')
        .any(|seg| matches!(seg, "tests" | "benches" | "examples" | "fixtures" | "bin"))
}

/// True for files the hygiene family applies to: library code that is not
/// a binary entry point and not test collateral.
fn is_lib_path(path: &str) -> bool {
    !is_test_path(path) && !path.ends_with("/main.rs") && !path.ends_with("build.rs")
}

/// Runs every per-file rule over one lexed+scoped file.
pub fn analyze_file(
    path: &str,
    tokens: &[Token],
    scopes: &Scopes,
    config: &Config,
) -> FileAnalysis {
    let mut out = FileAnalysis::default();
    let is_core = Config::path_matches(path, &config.core_paths) && !is_test_path(path);
    let send_allowed = Config::path_matches(path, &config.send_allowed);

    if is_core {
        determinism_idents(path, tokens, scopes, &mut out);
        hash_iteration(path, tokens, scopes, &mut out);
        float_arith(path, tokens, scopes, &mut out);
    }
    if is_core || (path.starts_with(BFT_WIRE_PATH) && !is_test_path(path)) {
        json_on_wire(path, tokens, scopes, &mut out);
    }
    if !send_allowed && !is_test_path(path) {
        raw_ctx_send(path, tokens, scopes, &mut out);
    }
    if !is_test_path(path) {
        collect_domains(path, tokens, scopes, &mut out);
    }
    if Config::path_matches(path, &config.charged_paths) {
        uncharged_send(path, tokens, scopes, config, &mut out);
    }
    if is_lib_path(path) {
        hygiene(path, tokens, scopes, &mut out);
    }
    out
}

/// Token window helper: `tokens[i + k]`, if present.
fn at(tokens: &[Token], i: usize, k: usize) -> Option<&Token> {
    tokens.get(i + k)
}

/// True when `tokens[i]` starts the two-token path separator `::`.
fn is_path_sep(tokens: &[Token], i: usize) -> bool {
    tokens.get(i).is_some_and(|t| t.is_punct(":"))
        && tokens.get(i + 1).is_some_and(|t| t.is_punct(":"))
}

/// wall-clock, thread-spawn and ambient-rng: single-identifier and
/// path-shaped patterns.
fn determinism_idents(path: &str, tokens: &[Token], scopes: &Scopes, out: &mut FileAnalysis) {
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || scopes.in_test[i] {
            continue;
        }
        match t.text.as_str() {
            "Instant" | "SystemTime" => out.findings.push(Finding::new(
                "wall-clock",
                path,
                t.line,
                format!(
                    "`{}` in deterministic core code — wall clocks diverge across runs; use the virtual clock (`TrustedInstant`) instead",
                    t.text
                ),
            )),
            "thread" if is_path_sep(tokens, i + 1) => {
                if let Some(next) = at(tokens, i, 3) {
                    if next.is_ident("spawn") {
                        out.findings.push(Finding::new(
                            "thread-spawn",
                            path,
                            t.line,
                            "`thread::spawn` in deterministic core code — the simulator owns all interleaving; OS threads break replay",
                        ));
                    }
                }
            }
            "std" if is_path_sep(tokens, i + 1)
                && at(tokens, i, 3).is_some_and(|n| n.is_ident("thread")) =>
            {
                out.findings.push(Finding::new(
                    "thread-spawn",
                    path,
                    t.line,
                    "`std::thread` in deterministic core code — the simulator owns all interleaving; OS threads break replay",
                ));
            }
            "thread_rng" | "OsRng" | "from_entropy" => out.findings.push(Finding::new(
                "ambient-rng",
                path,
                t.line,
                format!(
                    "`{}` in deterministic core code — draw from the seeded deterministic RNG instead",
                    t.text
                ),
            )),
            "rand"
                if is_path_sep(tokens, i + 1)
                    && at(tokens, i, 3).is_some_and(|n| n.is_ident("random")) =>
            {
                out.findings.push(Finding::new(
                    "ambient-rng",
                    path,
                    t.line,
                    "`rand::random` in deterministic core code — draw from the seeded deterministic RNG instead",
                ));
            }
            _ => {}
        }
    }
}

/// hash-iteration: track identifiers declared with HashMap/HashSet types
/// (or initialized from their constructors), then flag order-observing
/// method calls and bare `for … in` iteration over them.
fn hash_iteration(path: &str, tokens: &[Token], scopes: &Scopes, out: &mut FileAnalysis) {
    // Pass 1: collect tracked names.
    let mut tracked: Vec<String> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if !(t.is_ident("HashMap") || t.is_ident("HashSet")) {
            continue;
        }
        // `name: [&]['a][mut] HashMap<…>` (field, param or annotated let).
        let mut j = i;
        while j > 0 {
            let prev = &tokens[j - 1];
            if prev.is_punct("&") || prev.is_ident("mut") || prev.kind == TokenKind::Lifetime {
                j -= 1;
            } else {
                break;
            }
        }
        if j >= 2
            && tokens[j - 1].is_punct(":")
            && !tokens[j - 2].is_punct(":")
            && tokens[j - 2].kind == TokenKind::Ident
        {
            tracked.push(tokens[j - 2].text.clone());
        }
        // `let [mut] name = HashMap::new()` / `HashSet::with_capacity(…)`.
        if i >= 2 && tokens[i - 1].is_punct("=") && tokens[i - 2].kind == TokenKind::Ident {
            tracked.push(tokens[i - 2].text.clone());
        }
    }
    tracked.sort_unstable();
    tracked.dedup();
    if tracked.is_empty() {
        return;
    }

    let flag = |out: &mut FileAnalysis, line: usize, name: &str, how: &str| {
        out.findings.push(Finding::new(
            "hash-iteration",
            path,
            line,
            format!(
                "{how} over HashMap/HashSet `{name}` in deterministic core code — hash order varies across runs; use BTreeMap/BTreeSet or collect-and-sort"
            ),
        ));
    };

    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || scopes.in_test[i] {
            continue;
        }
        // `name.iter()`-family calls.
        if tracked.binary_search(&t.text).is_ok()
            && at(tokens, i, 1).is_some_and(|n| n.is_punct("."))
            && at(tokens, i, 3).is_some_and(|n| n.is_punct("("))
        {
            if let Some(method) = at(tokens, i, 2) {
                if ITER_METHODS.contains(&method.text.as_str()) {
                    flag(out, method.line, &t.text, &format!("`.{}()`", method.text));
                }
            }
        }
        // `for pat in [&][mut] [self.]name {` — direct iteration without a
        // method call.
        if t.is_ident("for") {
            let mut j = i + 1;
            let mut found_in = None;
            while j < tokens.len() && j < i + 24 {
                if tokens[j].is_ident("in") {
                    found_in = Some(j);
                    break;
                }
                if tokens[j].is_punct("{") {
                    break;
                }
                j += 1;
            }
            if let Some(in_idx) = found_in {
                let mut expr = Vec::new();
                let mut k = in_idx + 1;
                while k < tokens.len() && !tokens[k].is_punct("{") {
                    expr.push(&tokens[k]);
                    k += 1;
                }
                let simple = expr.iter().all(|tok| {
                    tok.is_punct("&") || tok.is_punct(".") || tok.kind == TokenKind::Ident
                });
                if simple {
                    if let Some(name) = expr.iter().find(|tok| {
                        tok.kind == TokenKind::Ident && tracked.binary_search(&tok.text).is_ok()
                    }) {
                        flag(out, name.line, &name.text, "`for … in`");
                    }
                }
            }
        }
    }
}

/// float-arith: float literals and f32/f64 tokens, one finding per line.
fn float_arith(path: &str, tokens: &[Token], scopes: &Scopes, out: &mut FileAnalysis) {
    let mut last_line = 0usize;
    for (i, t) in tokens.iter().enumerate() {
        if scopes.in_test[i] || t.line == last_line {
            continue;
        }
        let is_float = matches!(t.kind, TokenKind::Num { float: true })
            || t.is_ident("f32")
            || t.is_ident("f64");
        if is_float {
            last_line = t.line;
            out.findings.push(Finding::new(
                "float-arith",
                path,
                t.line,
                "floating point in deterministic core code — keep virtual-clock and state arithmetic integral, or allow the file in lint.toml with the reason it stays reproducible",
            ));
        }
    }
}

/// raw-ctx-send: `ctx.send(…)` / `ctx.send_batch(…)` / `ctx.broadcast(…)`
/// and `Ctx::send`-style paths outside the allowlisted wrap modules.
fn raw_ctx_send(path: &str, tokens: &[Token], scopes: &Scopes, out: &mut FileAnalysis) {
    const SEND_METHODS: &[&str] = &["send", "send_batch", "broadcast"];
    for (i, t) in tokens.iter().enumerate() {
        if scopes.in_test[i] {
            continue;
        }
        let method = if t.is_ident("ctx")
            && at(tokens, i, 1).is_some_and(|n| n.is_punct("."))
            && at(tokens, i, 3).is_some_and(|n| n.is_punct("("))
        {
            at(tokens, i, 2)
        } else if t.is_ident("Ctx") && is_path_sep(tokens, i + 1) {
            at(tokens, i, 3)
        } else {
            None
        };
        if let Some(m) = method {
            if SEND_METHODS.contains(&m.text.as_str()) {
                out.findings.push(Finding::new(
                    "raw-ctx-send",
                    path,
                    m.line,
                    format!(
                        "raw `Ctx::{}` outside the allowlisted shield modules — frames must be wrapped by AuthLayer/ProtocolShield before transmission (see shield.send_allowed in lint.toml)",
                        m.text
                    ),
                ));
            }
        }
    }
}

/// json-on-wire: any `serde_json::` path in non-test replication-plane code.
fn json_on_wire(path: &str, tokens: &[Token], scopes: &Scopes, out: &mut FileAnalysis) {
    for (i, t) in tokens.iter().enumerate() {
        if t.is_ident("serde_json") && is_path_sep(tokens, i + 1) && !scopes.in_test[i] {
            out.findings.push(Finding::new(
                "json-on-wire",
                path,
                t.line,
                "`serde_json` on the replication plane — frames and protocol messages are charged by wire bytes, so they use the `recipe_core::wire` binary codec; JSON is for config and reports",
            ));
        }
    }
}

/// Collects `const *DOMAIN* = "…"` constants and checks the
/// `recipe.<kind>.v<N>` shape.
fn collect_domains(path: &str, tokens: &[Token], scopes: &Scopes, out: &mut FileAnalysis) {
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_ident("const") || scopes.in_test[i] {
            continue;
        }
        let Some(name) = at(tokens, i, 1) else {
            continue;
        };
        if name.kind != TokenKind::Ident || !name.text.contains("DOMAIN") {
            continue;
        }
        // Find the first string literal before the terminating `;`.
        let mut j = i + 2;
        let mut value = None;
        while j < tokens.len() && !tokens[j].is_punct(";") {
            if tokens[j].kind == TokenKind::Str {
                value = Some(&tokens[j]);
                break;
            }
            j += 1;
        }
        let Some(value) = value else { continue };
        if !domain_shape_ok(&value.text) {
            out.findings.push(Finding::new(
                "mac-domain-shape",
                path,
                name.line,
                format!(
                    "MAC domain `{}` = \"{}\" does not match the wire-domain shape `recipe.<kind>.v<N>`",
                    name.text, value.text
                ),
            ));
        }
        out.domains.push(DomainConst {
            file: path.to_string(),
            line: name.line,
            name: name.text.clone(),
            value: value.text.clone(),
        });
    }
}

/// `recipe.<kind>.v<N>` with `<kind>` in `[a-z0-9_]+` and `<N>` decimal.
fn domain_shape_ok(value: &str) -> bool {
    let parts: Vec<&str> = value.split('.').collect();
    let [prefix, kind, version] = parts.as_slice() else {
        return false;
    };
    *prefix == "recipe"
        && !kind.is_empty()
        && kind
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        && version.len() > 1
        && version.starts_with('v')
        && version[1..].chars().all(|c| c.is_ascii_digit())
}

/// Cross-file pass: every MAC-domain value must be declared exactly once.
pub fn check_domain_uniqueness(domains: &[DomainConst]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut seen: Vec<(&str, &DomainConst)> = Vec::new();
    for d in domains {
        if let Some((_, first)) = seen.iter().find(|(v, _)| *v == d.value) {
            findings.push(Finding::new(
                "mac-domain-unique",
                &d.file,
                d.line,
                format!(
                    "MAC domain `{}` duplicates the value \"{}\" first declared as `{}` at {}:{} — wire domains must be disjoint or frames become confusable",
                    d.name, d.value, first.name, first.file, first.line
                ),
            ));
        } else {
            seen.push((&d.value, d));
        }
    }
    findings
}

/// uncharged-send: on audited send-path files, a function that seals
/// frames must show cost-accounting evidence in the same body.
fn uncharged_send(
    path: &str,
    tokens: &[Token],
    scopes: &Scopes,
    config: &Config,
    out: &mut FileAnalysis,
) {
    for span in &scopes.fns {
        if span.in_test {
            continue;
        }
        let body = &tokens[span.body_start..=span.body_end.min(tokens.len() - 1)];
        let seals = body.iter().enumerate().any(|(k, t)| {
            t.kind == TokenKind::Ident
                && config.seal_tokens.iter().any(|s| s == &t.text)
                && k > 0
                && body[k - 1].is_punct(".")
                && body.get(k + 1).is_some_and(|n| n.is_punct("("))
        });
        if !seals {
            continue;
        }
        let evidence = body.iter().any(|t| {
            t.kind == TokenKind::Ident
                && config
                    .charge_evidence
                    .iter()
                    .any(|e| t.text.contains(e.as_str()))
        });
        if !evidence {
            out.findings.push(Finding::new(
                "uncharged-send",
                path,
                span.line,
                format!(
                    "fn `{}` seals frames on an audited send path but shows no cost-accounting evidence ({}) — charge the work on the virtual clock next to the seal",
                    span.name,
                    config.charge_evidence.join("/"),
                ),
            ));
        }
    }
}

/// unwrap-in-lib, panic-in-lib, print-in-lib.
fn hygiene(path: &str, tokens: &[Token], scopes: &Scopes, out: &mut FileAnalysis) {
    const UNWRAPS: &[&str] = &["unwrap", "expect", "unwrap_err"];
    const PANICS: &[&str] = &["panic", "todo", "unimplemented"];
    const PRINTS: &[&str] = &["println", "print", "eprintln", "eprint", "dbg"];
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || scopes.in_test[i] {
            continue;
        }
        let text = t.text.as_str();
        // `.unwrap()`/`.unwrap_err()` only with an *empty* argument list:
        // `Option::unwrap` takes no arguments, so `shield.unwrap(from,
        // bytes)` — a domain method that happens to share the name — is not
        // a finding. `.expect(...)` always carries its message argument.
        let nullary = at(tokens, i, 1).is_some_and(|n| n.is_punct("("))
            && at(tokens, i, 2).is_some_and(|n| n.is_punct(")"));
        let panicky_call = if text == "expect" {
            at(tokens, i, 1).is_some_and(|n| n.is_punct("("))
        } else {
            nullary
        };
        if UNWRAPS.contains(&text) && i > 0 && tokens[i - 1].is_punct(".") && panicky_call {
            out.findings.push(Finding::new(
                "unwrap-in-lib",
                path,
                t.line,
                format!(
                    "`.{text}()` in non-test library code — return an error, or suppress with the invariant that makes the panic unreachable"
                ),
            ));
        } else if at(tokens, i, 1).is_some_and(|n| n.is_punct("!"))
            && at(tokens, i, 2).is_some_and(|n| n.is_punct("(") || n.is_punct("["))
        {
            if PANICS.contains(&text) {
                out.findings.push(Finding::new(
                    "panic-in-lib",
                    path,
                    t.line,
                    format!(
                        "`{text}!` in non-test library code — return an error, or suppress with the invariant that makes the panic unreachable"
                    ),
                ));
            } else if PRINTS.contains(&text) {
                out.findings.push(Finding::new(
                    "print-in-lib",
                    path,
                    t.line,
                    format!(
                        "`{text}!` in non-test library code — route output through the caller or the telemetry/report surface"
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scope::scan;

    fn core_config() -> Config {
        Config {
            core_paths: vec!["core".into()],
            charged_paths: vec!["charged/path.rs".into()],
            ..Config::default()
        }
    }

    fn rules_fired(path: &str, src: &str) -> Vec<String> {
        let lexed = lex(src);
        let scopes = scan(&lexed.tokens);
        let analysis = analyze_file(path, &lexed.tokens, &scopes, &core_config());
        analysis.findings.into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn determinism_rules_fire_only_in_core_paths() {
        let src = "fn f() { let t = Instant::now(); }";
        assert_eq!(rules_fired("core/a.rs", src), vec!["wall-clock"]);
        assert!(rules_fired("other/a.rs", src).is_empty());
    }

    #[test]
    fn hash_iteration_tracks_decls_and_flags_order_observation() {
        let src = "struct S { m: HashMap<u64, u32> }\n\
                   fn f(s: &S) { for v in s.m.values() { use_it(v); } }\n\
                   fn g(s: &S) { let _ = s.m.get(&1); }";
        let fired = rules_fired("core/a.rs", src);
        assert_eq!(fired, vec!["hash-iteration"]);
    }

    #[test]
    fn for_loop_direct_iteration_is_flagged() {
        let src = "fn f() { let set = HashSet::new(); for x in &set { touch(x); } }";
        assert_eq!(rules_fired("core/a.rs", src), vec!["hash-iteration"]);
    }

    #[test]
    fn raw_ctx_send_respects_allowlist_and_tests() {
        let src = "fn f(ctx: &mut Ctx) { ctx.send(dst, bytes); }";
        let lexed = lex(src);
        let scopes = scan(&lexed.tokens);
        let mut config = core_config();
        let fired = analyze_file("anywhere/a.rs", &lexed.tokens, &scopes, &config);
        assert_eq!(fired.findings[0].rule, "raw-ctx-send");
        config.send_allowed = vec!["anywhere".into()];
        let clean = analyze_file("anywhere/a.rs", &lexed.tokens, &scopes, &config);
        assert!(clean.findings.is_empty());
    }

    #[test]
    fn json_on_wire_covers_core_and_bft_but_not_tests_or_reports() {
        let src = "fn f(m: &Msg) -> Vec<u8> { serde_json::to_vec(m).unwrap_or_default() }\n\
                   #[cfg(test)] mod tests { fn g() { serde_json::to_vec(&1); } }";
        assert_eq!(rules_fired("core/a.rs", src), vec!["json-on-wire"]);
        assert_eq!(
            rules_fired("crates/bft/src/pbft.rs", src),
            vec!["json-on-wire"]
        );
        assert!(rules_fired("crates/telemetry/src/export.rs", src).is_empty());
        assert!(rules_fired("crates/bft/tests/t.rs", src).is_empty());
    }

    #[test]
    fn domain_shape_and_uniqueness() {
        let src = "const A_MAC_DOMAIN: &[u8] = b\"recipe.batch.v1\";\n\
                   const B_MAC_DOMAIN: &[u8] = b\"recipe.batch.v1\";\n\
                   const C_MAC_DOMAIN: &[u8] = b\"not-a-domain\";";
        let lexed = lex(src);
        let scopes = scan(&lexed.tokens);
        let analysis = analyze_file("core/a.rs", &lexed.tokens, &scopes, &core_config());
        assert_eq!(analysis.domains.len(), 3);
        assert!(analysis
            .findings
            .iter()
            .any(|f| f.rule == "mac-domain-shape"));
        let dups = check_domain_uniqueness(&analysis.domains);
        assert_eq!(dups.len(), 1);
        assert_eq!(dups[0].rule, "mac-domain-unique");
        assert_eq!(dups[0].line, 2);
    }

    #[test]
    fn uncharged_send_needs_evidence_next_to_seal() {
        let firing = "fn ship(&mut self) { let wire = self.channel.seal(&chunk); tx(wire); }";
        assert_eq!(
            rules_fired("charged/path.rs", firing),
            vec!["uncharged-send"]
        );
        let clean = "fn ship(&mut self) { let wire = self.channel.seal(&chunk); \
                     let cost = model.send_cost_ns(p, wire.len()); charge(cost); }";
        assert!(rules_fired("charged/path.rs", clean).is_empty());
    }

    #[test]
    fn hygiene_flags_lib_code_but_not_tests_bins_or_test_dirs() {
        let src = "fn f() { x.unwrap(); panic!(\"no\"); println!(\"hi\"); }\n\
                   #[cfg(test)] mod tests { fn g() { y.unwrap(); } }";
        let fired = rules_fired("crates/foo/src/lib.rs", src);
        assert_eq!(fired, vec!["unwrap-in-lib", "panic-in-lib", "print-in-lib"]);
        assert!(rules_fired("crates/foo/src/main.rs", src).is_empty());
        assert!(rules_fired("crates/foo/tests/t.rs", src).is_empty());
        assert!(rules_fired("crates/foo/src/bin/tool.rs", src).is_empty());
    }

    #[test]
    fn float_arith_collapses_per_line() {
        let src = "fn f() -> f64 { 0.5 + 1e9 }\nfn g() {}";
        let fired = rules_fired("core/a.rs", src);
        assert_eq!(fired, vec!["float-arith"]);
    }
}
