//! Lightweight item scanner over the token stream.
//!
//! Tracks just enough structure for rule scoping: which tokens sit inside
//! test code (`#[cfg(test)]` modules, `#[test]` functions) and the body
//! spans of named functions (the shield-coverage rules reason per
//! function). Brace-counting, not parsing — attributes are associated with
//! the next `{`-delimited item, which is exact for the idioms this
//! workspace uses.

use crate::lexer::{Token, TokenKind};

/// The body span of one named function.
#[derive(Debug, Clone)]
pub(crate) struct FnSpan {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Token index of the body's opening `{`.
    pub(crate) body_start: usize,
    /// Token index of the body's closing `}` (or last token when
    /// unterminated).
    pub(crate) body_end: usize,
    /// True when the function is test code (`#[test]`, or nested under a
    /// `#[cfg(test)]` scope).
    pub(crate) in_test: bool,
}

/// Scope classification for a token stream.
#[derive(Debug, Default)]
pub(crate) struct Scopes {
    /// Per-token: true when the token sits inside test code.
    pub(crate) in_test: Vec<bool>,
    /// Named function bodies, in source order.
    pub(crate) fns: Vec<FnSpan>,
}

/// Walks `tokens` and classifies test regions and function bodies.
pub(crate) fn scan(tokens: &[Token]) -> Scopes {
    let mut scopes = Scopes {
        in_test: vec![false; tokens.len()],
        fns: Vec::new(),
    };
    // Test flag per open brace; `cur` is true when any enclosing brace is
    // a test scope.
    let mut stack: Vec<bool> = Vec::new();
    let mut cur = false;
    // Set by a `#[test]`-ish attribute, consumed by the next item.
    let mut pending_attr = false;
    // A `fn` header in flight: (name, line, test flag), plus the paren
    // depth inside its signature so `{` in a closure-typed parameter
    // default does not get mistaken for the body.
    let mut pending_fn: Option<(String, usize, bool)> = None;
    let mut head_parens = 0usize;
    // Open function bodies: (index into scopes.fns, stack depth of body).
    let mut open_fns: Vec<(usize, usize)> = Vec::new();

    let mut i = 0;
    while i < tokens.len() {
        scopes.in_test[i] = cur;
        let t = &tokens[i];
        match t.kind {
            TokenKind::Punct => match t.text.as_str() {
                "#" if matches!(tokens.get(i + 1), Some(n) if n.is_punct("[")) => {
                    let (end, is_test) = scan_attribute(tokens, i + 1);
                    if is_test {
                        pending_attr = true;
                    }
                    for j in i..end.min(scopes.in_test.len()) {
                        scopes.in_test[j] = cur;
                    }
                    i = end;
                    continue;
                }
                // `;` only terminates a bodyless fn at signature top level,
                // not inside `(params)` or `[u8; 4]` array types.
                "(" | "[" => head_parens += pending_fn.is_some() as usize,
                ")" | "]" => head_parens = head_parens.saturating_sub(1),
                "{" => {
                    let mut test = cur || pending_attr;
                    pending_attr = false;
                    if let Some((name, line, fn_test)) = pending_fn.take() {
                        test = test || fn_test;
                        scopes.fns.push(FnSpan {
                            name,
                            line,
                            body_start: i,
                            body_end: tokens.len().saturating_sub(1),
                            in_test: test,
                        });
                        open_fns.push((scopes.fns.len() - 1, stack.len()));
                        stack.push(test);
                    } else {
                        stack.push(test);
                    }
                    cur = cur || test;
                    scopes.in_test[i] = cur;
                }
                "}" => {
                    stack.pop();
                    cur = stack.iter().any(|&t| t);
                    if let Some(&(fn_idx, depth)) = open_fns.last() {
                        if depth == stack.len() {
                            scopes.fns[fn_idx].body_end = i;
                            open_fns.pop();
                        }
                    }
                }
                ";" if head_parens == 0 => {
                    // Trait method declaration without a body, or an
                    // attribute consumed by a braceless item.
                    pending_fn = None;
                    pending_attr = false;
                }
                _ => {}
            },
            TokenKind::Ident if t.text == "fn" => {
                let name = match tokens.get(i + 1) {
                    Some(n) if n.kind == TokenKind::Ident => n.text.clone(),
                    _ => String::new(),
                };
                pending_fn = Some((name, t.line, cur || pending_attr));
                pending_attr = false;
                head_parens = 0;
            }
            _ => {}
        }
        i += 1;
    }
    scopes
}

/// Scans an attribute starting at the `[` token index; returns the index
/// one past the closing `]` and whether the attribute marks test code
/// (contains the ident `test` outside a `not(...)`).
pub(crate) fn scan_attribute(tokens: &[Token], open: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut has_test = false;
    let mut has_not = false;
    let mut i = open;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return (i + 1, has_test && !has_not);
            }
        } else if t.is_ident("test") {
            has_test = true;
        } else if t.is_ident("not") {
            has_not = true;
        }
        i += 1;
    }
    (tokens.len(), false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn test_flag_at_ident(src: &str, ident: &str) -> bool {
        let lexed = lex(src);
        let scopes = scan(&lexed.tokens);
        let idx = lexed
            .tokens
            .iter()
            .position(|t| t.is_ident(ident))
            .expect("ident present");
        scopes.in_test[idx]
    }

    #[test]
    fn cfg_test_mod_bodies_are_test_code() {
        let src = "fn lib_code() { alpha(); }\n\
                   #[cfg(test)]\nmod tests { fn helper() { beta(); } }";
        assert!(!test_flag_at_ident(src, "alpha"));
        assert!(test_flag_at_ident(src, "beta"));
    }

    #[test]
    fn test_attr_fns_are_test_code_and_siblings_are_not() {
        let src = "#[test]\nfn t() { gamma(); }\nfn real() { delta(); }";
        assert!(test_flag_at_ident(src, "gamma"));
        assert!(!test_flag_at_ident(src, "delta"));
    }

    #[test]
    fn cfg_not_test_is_not_test_code() {
        let src = "#[cfg(not(test))]\nfn real() { epsilon(); }";
        assert!(!test_flag_at_ident(src, "epsilon"));
    }

    #[test]
    fn fn_spans_cover_bodies() {
        let src = "fn outer() { inner_call(); }\nfn second() {}";
        let lexed = lex(src);
        let scopes = scan(&lexed.tokens);
        assert_eq!(scopes.fns.len(), 2);
        assert_eq!(scopes.fns[0].name, "outer");
        let span = &scopes.fns[0];
        let inner = lexed
            .tokens
            .iter()
            .position(|t| t.is_ident("inner_call"))
            .expect("call present");
        assert!(span.body_start < inner && inner < span.body_end);
        assert_eq!(scopes.fns[1].name, "second");
    }

    #[test]
    fn trait_method_declarations_do_not_swallow_the_next_body() {
        let src = "trait T { fn decl(&self); }\nfn real_body() { zeta(); }";
        let lexed = lex(src);
        let scopes = scan(&lexed.tokens);
        let real = scopes
            .fns
            .iter()
            .find(|f| f.name == "real_body")
            .expect("real_body tracked");
        assert!(!real.in_test);
    }
}
