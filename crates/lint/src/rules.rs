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
//!   `panic!` or `println!` its way past error handling, and a crate
//!   publishes only what some file outside it names (`pub-unreached`).
//!
//! Everything is token-level pattern matching over [`crate::lexer`] output
//! — deliberately no `syn`, in the same idiom as `recipe_scenario::toml`.

use std::collections::{BTreeMap, BTreeSet};

use crate::config::Config;
use crate::lexer::{Token, TokenKind};
use crate::report::Finding;
use crate::scope::{self, Scopes};

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
        id: "pub-unreached",
        family: "hygiene",
        summary: "a `pub` item or field in a crate's library source that no file outside the crate names (narrow it, so rustc's dead-code lint sees it)",
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
pub(crate) fn rule_by_id(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// All rule ids, in catalogue order.
pub fn rule_ids() -> Vec<&'static str> {
    RULES.iter().map(|r| r.id).collect()
}

/// A `const *DOMAIN*` string constant collected for the MAC-domain rules.
#[derive(Debug, Clone)]
pub(crate) struct DomainConst {
    /// Repo-relative file.
    pub file: String,
    /// 1-based line of the `const`.
    pub line: usize,
    /// Constant name.
    pub name: String,
    /// The literal value.
    pub value: String,
}

/// A plain-`pub` item or named field of a library crate, collected for the
/// cross-file `pub-unreached` pass.
#[derive(Debug, Clone)]
pub(crate) struct PubItem {
    /// Repo-relative file.
    pub file: String,
    /// 1-based line of the `pub`.
    pub line: usize,
    /// The crate directory name (`crates/<name>/src`).
    pub(crate) krate: String,
    /// `fn`, `struct`, … or `field`; `impl` for an impl block, named after
    /// its self type and reached with it; `use` for a `pub use` rename,
    /// named after the alias.
    pub kind: String,
    /// The item's name.
    pub name: String,
    /// Identifiers of the item's interface: a signature, a field's or
    /// constant's type, an enum's variants, a trait's items.
    pub(crate) interface: Vec<String>,
}

/// Per-file analysis output: raw findings (pre-suppression) plus what the
/// cross-file passes need: domain constants and `pub` items.
#[derive(Debug, Default)]
pub(crate) struct FileAnalysis {
    /// Raw findings (suppressions are applied by the engine).
    pub findings: Vec<Finding>,
    /// Collected MAC-domain constants.
    pub(crate) domains: Vec<DomainConst>,
    /// Collected `pub` items.
    pub(crate) pub_items: Vec<PubItem>,
}

/// Every identifier of the scanned sources, with the library crates that
/// name it (`None` for a file outside every library: a binary, an
/// integration test, an example, `src/`, `wall_bench/src`).
pub(crate) type References = BTreeMap<String, BTreeSet<Option<String>>>;

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
pub(crate) fn analyze_file(
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
    if let Some(krate) = library_crate(path) {
        collect_pub_items(path, krate, tokens, scopes, &mut out);
    }
    out
}

/// The crate whose library `path` belongs to: `crates/<name>/src/…`,
/// binaries (`src/main.rs`, `src/bin/`) excluded. Every other file — the
/// package's binaries and tests included — is outside the library and can
/// only reach what it publishes.
pub(crate) fn library_crate(path: &str) -> Option<&str> {
    let (krate, rest) = path.strip_prefix("crates/")?.split_once('/')?;
    let rest = rest.strip_prefix("src/")?;
    (rest != "main.rs" && !rest.starts_with("bin/")).then_some(krate)
}

/// Records every identifier of one file in `refs`, under the library
/// crate the file belongs to.
pub(crate) fn note_references(path: &str, tokens: &[Token], refs: &mut References) {
    let owner = library_crate(path).map(str::to_string);
    let names: BTreeSet<&str> = tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.as_str())
        .collect();
    for name in names {
        refs.entry(name.to_string())
            .or_default()
            .insert(owner.clone());
    }
}

/// True when the attributes directly above token `i` mark test code
/// (`#[cfg(test)]`, `#[test]`).
fn under_test_attr(tokens: &[Token], mut i: usize) -> bool {
    while i > 0 && tokens[i - 1].is_punct("]") {
        let mut depth = 0usize;
        let mut open = i - 1;
        loop {
            if tokens[open].is_punct("]") {
                depth += 1;
            } else if tokens[open].is_punct("[") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if open == 0 {
                return false;
            }
            open -= 1;
        }
        if open == 0 || !tokens[open - 1].is_punct("#") {
            return false;
        }
        if scope::scan_attribute(tokens, open).1 {
            return true;
        }
        i = open - 1;
    }
    false
}

/// Collects plain-`pub` items and named fields outside test code.
/// `pub(crate)`-style restrictions and `pub use` re-exports are skipped.
fn collect_pub_items(
    path: &str,
    krate: &str,
    tokens: &[Token],
    scopes: &Scopes,
    out: &mut FileAnalysis,
) {
    const ITEMS: &[&str] = &[
        "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union",
    ];
    for (i, t) in tokens.iter().enumerate() {
        let candidate = t.is_ident("pub") || t.is_ident("impl");
        if !candidate || scopes.in_test[i] || under_test_attr(tokens, i) {
            continue;
        }
        if t.is_ident("impl") {
            if let Some((self_type, interface)) = impl_interface(tokens, i) {
                out.pub_items.push(PubItem {
                    file: path.to_string(),
                    line: t.line,
                    krate: krate.to_string(),
                    kind: "impl".to_string(),
                    name: self_type,
                    interface,
                });
            }
            continue;
        }
        if tokens.get(i + 1).is_some_and(|n| n.is_ident("use")) {
            collect_renames(path, krate, tokens, i, out);
            continue;
        }
        // Skip qualifiers: `pub const fn`, `pub unsafe fn`, `extern "C"`.
        let mut j = i + 1;
        while let Some(q) = tokens.get(j) {
            let qualifier = q.is_ident("unsafe")
                || q.is_ident("async")
                || q.is_ident("extern")
                || q.kind == TokenKind::Str
                || (q.is_ident("const")
                    && tokens.get(j + 1).is_some_and(|n| {
                        ["fn", "unsafe", "async", "extern"]
                            .iter()
                            .any(|k| n.is_ident(k))
                    }));
            if !qualifier {
                break;
            }
            j += 1;
        }
        let Some(head) = tokens.get(j).filter(|h| h.kind == TokenKind::Ident) else {
            continue;
        };
        let (kind, name_at) = if ITEMS.contains(&head.text.as_str()) {
            let mutable = tokens.get(j + 1).is_some_and(|n| n.is_ident("mut"));
            (head.text.as_str(), j + 1 + mutable as usize)
        } else if tokens.get(j + 1).is_some_and(|n| n.is_punct(":")) && !is_path_sep(tokens, j + 1)
        {
            ("field", j)
        } else {
            continue;
        };
        let Some(name) = tokens.get(name_at).filter(|n| n.kind == TokenKind::Ident) else {
            continue;
        };
        let end = interface_end(tokens, name_at + 1, kind);
        out.pub_items.push(PubItem {
            file: path.to_string(),
            line: t.line,
            krate: krate.to_string(),
            kind: kind.to_string(),
            name: name.text.clone(),
            interface: idents(&tokens[name_at + 1..end]),
        });
    }
}

/// Records each `X as Y` of the `pub use` at token `i` as an item named `Y`
/// whose interface is `X`, so a file naming the alias reaches the item.
fn collect_renames(path: &str, krate: &str, tokens: &[Token], i: usize, out: &mut FileAnalysis) {
    let end = (i..tokens.len())
        .find(|&k| tokens[k].is_punct(";"))
        .unwrap_or(tokens.len());
    for k in i + 2..end.saturating_sub(1) {
        if tokens[k].is_ident("as") && tokens[k + 1].kind == TokenKind::Ident {
            out.pub_items.push(PubItem {
                file: path.to_string(),
                line: tokens[k].line,
                krate: krate.to_string(),
                kind: "use".to_string(),
                name: tokens[k + 1].text.clone(),
                interface: vec![tokens[k - 1].text.clone()],
            });
        }
    }
}

/// The self type and interface of the item-level `impl` block at token
/// `i`: its header (generics, bounds, trait), and for a trait impl the
/// associated types and method signatures, all public with the type.
fn impl_interface(tokens: &[Token], i: usize) -> Option<(String, Vec<String>)> {
    let item_level = i == 0
        || ["}", ";", "]"].iter().any(|p| tokens[i - 1].is_punct(p))
        || tokens[i - 1].is_ident("unsafe");
    if !item_level {
        return None;
    }
    let open = (i..tokens.len()).find(|&k| tokens[k].is_punct("{"))?;
    let header = &tokens[i + 1..open];
    let trait_impl = header.iter().any(|t| t.is_ident("for"));
    // The self type: the first path after `for`, else after the generics.
    let mut angle = 0usize;
    let mut after_for = !trait_impl;
    let mut self_type = None;
    for (k, t) in header.iter().enumerate() {
        if t.is_punct("<") {
            angle += 1;
        } else if t.is_punct(">") && !(k > 0 && header[k - 1].is_punct("-")) {
            angle = angle.saturating_sub(1);
        } else if t.is_ident("for") {
            after_for = true;
        } else if after_for && angle == 0 && t.kind == TokenKind::Ident && !t.is_ident("dyn") {
            self_type = Some(t.text.clone());
            break;
        }
    }
    let mut interface = idents(header);
    if trait_impl {
        let mut depth = 0usize;
        let mut k = open;
        while k < tokens.len() {
            let t = &tokens[k];
            if t.is_punct("{") {
                depth += 1;
            } else if t.is_punct("}") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if depth == 1 && (t.is_ident("type") || t.is_ident("fn")) {
                let end = interface_end(tokens, k + 1, "fn");
                interface.extend(idents(&tokens[k + 1..end]));
                k = end;
                continue;
            }
            k += 1;
        }
    }
    Some((self_type?, interface))
}

/// The identifiers among `tokens`.
fn idents(tokens: &[Token]) -> Vec<String> {
    tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.clone())
        .collect()
}

/// One past the last token of the interface of an item whose name ends
/// just before `start`: up to a function's body, a field's `,`, a
/// constant's `=`, or through an enum's or trait's braces. A brace
/// struct's interface is its generics alone; its `pub` fields are items
/// of their own.
fn interface_end(tokens: &[Token], start: usize, kind: &str) -> usize {
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(start) {
        let closes_arrow = t.is_punct(">") && k > 0 && tokens[k - 1].is_punct("-");
        let opens = t.is_punct("(") || t.is_punct("[") || t.is_punct("<");
        let closes = t.is_punct(")") || t.is_punct("]") || (t.is_punct(">") && !closes_arrow);
        if t.is_punct("{") {
            if matches!(kind, "enum" | "trait" | "union") || depth > 0 {
                depth += 1;
            } else {
                return k;
            }
        } else if t.is_punct("}") {
            if depth <= 1 {
                return k + 1;
            }
            depth -= 1;
        } else if opens {
            depth += 1;
        } else if closes {
            depth = depth.saturating_sub(1);
        } else if depth == 0
            && (t.is_punct(";")
                || (kind == "field" && t.is_punct(","))
                || (matches!(kind, "const" | "static") && t.is_punct("=")))
        {
            return k;
        }
    }
    tokens.len()
}

/// Cross-file pass: a `pub` item must be reached from outside its crate,
/// either named by a file outside it or named in the interface of a
/// reached `pub` item of the crate (as rustc's `private_interfaces` lint
/// requires). Matching is by name alone, so an unrelated identifier that
/// shares the name elsewhere clears the item: a false negative, never a
/// false positive.
pub(crate) fn check_pub_reached(items: &[PubItem], refs: &References) -> Vec<Finding> {
    let mut reached: Vec<bool> = items
        .iter()
        .map(|item| {
            refs.get(&item.name)
                .is_some_and(|namers| namers.iter().any(|n| n.as_deref() != Some(&item.krate)))
        })
        .collect();
    let mut by_name: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    for (i, item) in items.iter().enumerate() {
        by_name
            .entry((&item.krate, &item.name))
            .or_default()
            .push(i);
    }
    let mut work: Vec<usize> = (0..items.len()).filter(|&i| reached[i]).collect();
    while let Some(i) = work.pop() {
        let krate = items[i].krate.as_str();
        // A reached type makes its impl blocks reached; then every reached
        // interface reaches the items it names.
        let impls = by_name
            .get(&(krate, items[i].name.as_str()))
            .into_iter()
            .flatten()
            .filter(|&&j| items[j].kind == "impl" && items[i].kind != "impl");
        let named = items[i]
            .interface
            .iter()
            .flat_map(|name| by_name.get(&(krate, name.as_str())).into_iter().flatten());
        for &j in impls.chain(named).collect::<Vec<_>>() {
            if !reached[j] {
                reached[j] = true;
                work.push(j);
            }
        }
    }
    items
        .iter()
        .zip(reached)
        .filter(|(item, reached)| !reached && !matches!(item.kind.as_str(), "impl" | "use"))
        .map(|(item, _)| {
            Finding::new(
                "pub-unreached",
                &item.file,
                item.line,
                format!(
                    "`pub {} {}` is named by no file outside crate `{}` — make it `pub(crate)` so rustc sees its callers (and reports it if it has none), or keep a test observer under `#[cfg(test)]`",
                    item.kind, item.name, item.krate
                ),
            )
        })
        .collect()
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
pub(crate) fn check_domain_uniqueness(domains: &[DomainConst]) -> Vec<Finding> {
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
