//! A comment/string/raw-string-aware Rust lexer.
//!
//! Token-level only, in the same hand-rolled idiom as
//! [`recipe_scenario::toml`]: no `syn`, no full grammar — just enough lexical
//! structure that the rule engine can pattern-match identifier/punctuation
//! sequences without ever being fooled by a `"ctx.send"` inside a string
//! literal or a `// HashMap` inside a comment. Comments are lexed into a
//! separate side channel (the suppression parser reads them); string and
//! character literals become single tokens carrying their inner text; numeric
//! literals are classified integer vs float (the determinism rules care).
//!
//! The lexer is deliberately tolerant: an unterminated literal consumes to
//! end of input instead of failing, so one malformed file degrades to weaker
//! findings rather than aborting the whole workspace pass.

/// What kind of lexeme a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `HashMap`, `ctx`, …).
    Ident,
    /// A lifetime such as `'a` (text excludes the quote).
    Lifetime,
    /// String literal — basic, raw, byte or byte-raw. Text is the inner
    /// contents, escapes unprocessed.
    Str,
    /// Character literal (text is the inner contents).
    Char,
    /// Numeric literal.
    Num {
        /// True when the literal is floating-point (`1.5`, `1e9`, `2f64`).
        float: bool,
    },
    /// A single punctuation byte (`{`, `.`, `!`, …). Multi-byte operators
    /// arrive as consecutive tokens (`::` is two `:` tokens).
    Punct,
}

/// One lexeme with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// The lexeme kind.
    pub kind: TokenKind,
    /// The lexeme text (inner contents for string/char literals).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: usize,
}

impl Token {
    /// True for an identifier with exactly this text.
    pub(crate) fn is_ident(&self, text: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == text
    }

    /// True for a punctuation token with exactly this text.
    pub(crate) fn is_punct(&self, text: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == text
    }
}

/// One comment (line or block), with the line it starts on. Text is the
/// comment body without the `//`, `///`, `//!` or `/* */` framing.
#[derive(Debug, Clone)]
pub(crate) struct Comment {
    /// 1-based line the comment starts on.
    pub line: usize,
    /// Comment body text.
    pub text: String,
}

/// The result of lexing one source file.
#[derive(Debug, Default)]
pub(crate) struct Lexed {
    /// Code tokens in source order.
    pub tokens: Vec<Token>,
    /// Comments in source order (the suppression side channel).
    pub(crate) comments: Vec<Comment>,
}

/// Lexes Rust source into tokens plus a comment side channel.
pub(crate) fn lex(src: &str) -> Lexed {
    Lexer {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    out: Lexed,
}

impl<'a> Lexer<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek_at(&self, offset: usize) -> Option<u8> {
        self.src.get(self.pos + offset).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn push(&mut self, kind: TokenKind, text: String, line: usize) {
        self.out.tokens.push(Token { kind, text, line });
    }

    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek() {
            match c {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'/' if self.peek_at(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek_at(1) == Some(b'*') => self.block_comment(),
                b'r' | b'b' if self.starts_raw_or_byte_literal() => self.raw_or_byte_literal(),
                b'"' => self.basic_string(),
                b'\'' => self.quote(),
                c if c.is_ascii_digit() => self.number(),
                c if is_ident_start(c) => self.ident(),
                _ => {
                    let line = self.line;
                    let c = match self.bump() {
                        Some(c) => c,
                        None => break,
                    };
                    if c < 0x80 {
                        self.push(TokenKind::Punct, (c as char).to_string(), line);
                    }
                    // Non-ASCII bytes outside literals are skipped: they can
                    // only appear in exotic identifiers this workspace
                    // doesn't use.
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self) {
        let line = self.line;
        self.bump();
        self.bump();
        // Swallow the doc-comment third slash / bang.
        while matches!(self.peek(), Some(b'/') | Some(b'!')) {
            self.bump();
        }
        let start = self.pos;
        while !matches!(self.peek(), Some(b'\n') | None) {
            self.bump();
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.out.comments.push(Comment { line, text });
    }

    fn block_comment(&mut self) {
        let line = self.line;
        self.bump();
        self.bump();
        let start = self.pos;
        let mut depth = 1usize;
        let mut end = self.pos;
        while depth > 0 {
            match (self.peek(), self.peek_at(1)) {
                (Some(b'/'), Some(b'*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                }
                (Some(b'*'), Some(b'/')) => {
                    depth -= 1;
                    end = self.pos;
                    self.bump();
                    self.bump();
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => {
                    end = self.pos;
                    break;
                }
            }
        }
        let text = String::from_utf8_lossy(&self.src[start..end]).into_owned();
        self.out.comments.push(Comment { line, text });
    }

    /// True when the cursor sits on `r"`, `r#"`, `b"`, `b'`, `br"`, `br#"`
    /// — a raw/byte literal rather than the identifiers `r`/`b`.
    fn starts_raw_or_byte_literal(&self) -> bool {
        let rest = &self.src[self.pos..];
        rest.starts_with(b"r\"")
            || rest.starts_with(b"r#\"")
            || rest.starts_with(b"r##")
            || rest.starts_with(b"b\"")
            || rest.starts_with(b"b'")
            || rest.starts_with(b"br\"")
            || rest.starts_with(b"br#")
    }

    fn raw_or_byte_literal(&mut self) {
        let line = self.line;
        if self.peek() == Some(b'b') {
            self.bump();
            if self.peek() == Some(b'\'') {
                // Byte char literal b'x'.
                self.bump();
                let start = self.pos;
                if self.peek() == Some(b'\\') {
                    self.bump();
                    self.bump();
                } else {
                    self.bump();
                }
                let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
                if self.peek() == Some(b'\'') {
                    self.bump();
                }
                self.push(TokenKind::Char, text, line);
                return;
            }
        }
        if self.peek() == Some(b'r') {
            self.bump();
            let mut hashes = 0usize;
            while self.peek() == Some(b'#') {
                hashes += 1;
                self.bump();
            }
            if self.peek() != Some(b'"') {
                // `r#ident` raw identifier: lex the identifier part.
                self.ident_raw(line);
                return;
            }
            self.bump();
            let start = self.pos;
            let closer: Vec<u8> = std::iter::once(b'"')
                .chain(std::iter::repeat_n(b'#', hashes))
                .collect();
            let mut end = self.src.len();
            while self.pos < self.src.len() {
                if self.src[self.pos..].starts_with(&closer) {
                    end = self.pos;
                    for _ in 0..closer.len() {
                        self.bump();
                    }
                    break;
                }
                self.bump();
            }
            let text = String::from_utf8_lossy(&self.src[start..end.min(self.src.len())]);
            self.push(TokenKind::Str, text.into_owned(), line);
        } else {
            // Plain byte string b"..." — the `b` is already consumed.
            self.basic_string();
        }
    }

    fn ident_raw(&mut self, line: usize) {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if is_ident_continue(c)) {
            self.bump();
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.push(TokenKind::Ident, text, line);
    }

    /// Lexes a `"..."` body with the cursor on the opening quote (any `b`
    /// prefix already consumed by the caller).
    fn basic_string(&mut self) {
        let line = self.line;
        self.bump(); // opening quote
        let start = self.pos;
        let mut end = self.src.len();
        loop {
            match self.peek() {
                None => break,
                Some(b'"') => {
                    end = self.pos;
                    self.bump();
                    break;
                }
                Some(b'\\') => {
                    self.bump();
                    self.bump();
                }
                Some(_) => {
                    self.bump();
                }
            }
        }
        let text = String::from_utf8_lossy(&self.src[start..end]).into_owned();
        self.push(TokenKind::Str, text, line);
    }

    /// Disambiguates `'a` (lifetime), `'x'` (char) and `'\n'` (char).
    fn quote(&mut self) {
        let line = self.line;
        self.bump(); // the `'`
        match (self.peek(), self.peek_at(1)) {
            (Some(b'\\'), _) => {
                // Escaped char literal.
                self.bump();
                let start = self.pos;
                while !matches!(self.peek(), Some(b'\'') | None) {
                    self.bump();
                }
                let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
                self.bump();
                self.push(TokenKind::Char, format!("\\{text}"), line);
            }
            (Some(c), Some(b'\'')) if c != b'\'' => {
                // Plain char literal 'x'.
                let start = self.pos;
                self.bump();
                let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
                self.bump();
                self.push(TokenKind::Char, text, line);
            }
            (Some(c), _) if is_ident_start(c) => {
                // Lifetime.
                let start = self.pos;
                while matches!(self.peek(), Some(c) if is_ident_continue(c)) {
                    self.bump();
                }
                let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
                self.push(TokenKind::Lifetime, text, line);
            }
            _ => {
                // Multi-byte char literal ('é') or stray quote: consume to
                // the closing quote on the same line if present.
                let start = self.pos;
                while !matches!(self.peek(), Some(b'\'') | Some(b'\n') | None) {
                    self.bump();
                }
                let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
                if self.peek() == Some(b'\'') {
                    self.bump();
                }
                self.push(TokenKind::Char, text, line);
            }
        }
    }

    fn number(&mut self) {
        let line = self.line;
        let start = self.pos;
        let mut float = false;
        if self.peek() == Some(b'0')
            && matches!(
                self.peek_at(1),
                Some(b'x' | b'X' | b'o' | b'O' | b'b' | b'B')
            )
        {
            self.bump();
            self.bump();
            while matches!(self.peek(), Some(c) if c.is_ascii_hexdigit() || c == b'_') {
                self.bump();
            }
        } else {
            while matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == b'_') {
                self.bump();
            }
            // Fractional part — but not a range (`0..10`) or method call
            // (`1.max(2)`).
            if self.peek() == Some(b'.') && matches!(self.peek_at(1), Some(c) if c.is_ascii_digit())
            {
                float = true;
                self.bump();
                while matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == b'_') {
                    self.bump();
                }
            }
            // Exponent.
            if matches!(self.peek(), Some(b'e' | b'E')) {
                let (next, after) = (self.peek_at(1), self.peek_at(2));
                let exponent = matches!(next, Some(c) if c.is_ascii_digit())
                    || (matches!(next, Some(b'+' | b'-'))
                        && matches!(after, Some(c) if c.is_ascii_digit()));
                if exponent {
                    float = true;
                    self.bump();
                    if matches!(self.peek(), Some(b'+' | b'-')) {
                        self.bump();
                    }
                    while matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == b'_') {
                        self.bump();
                    }
                }
            }
        }
        // Type suffix (`u64`, `f64`, `usize`…).
        let suffix_start = self.pos;
        while matches!(self.peek(), Some(c) if is_ident_continue(c)) {
            self.bump();
        }
        let suffix = &self.src[suffix_start..self.pos];
        if suffix.starts_with(b"f32") || suffix.starts_with(b"f64") {
            float = true;
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.push(TokenKind::Num { float }, text, line);
    }

    fn ident(&mut self) {
        let line = self.line;
        let start = self.pos;
        while matches!(self.peek(), Some(c) if is_ident_continue(c)) {
            self.bump();
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.push(TokenKind::Ident, text, line);
    }
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

fn is_ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src)
            .tokens
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn strings_and_comments_do_not_produce_code_tokens() {
        let lexed = lex("let x = \"ctx.send(1)\"; // HashMap iteration\n/* Instant::now */");
        assert!(!lexed.tokens.iter().any(|t| t.is_ident("send")));
        assert!(!lexed.tokens.iter().any(|t| t.is_ident("HashMap")));
        assert!(!lexed.tokens.iter().any(|t| t.is_ident("Instant")));
        assert_eq!(lexed.comments.len(), 2);
        assert!(lexed.comments[0].text.contains("HashMap iteration"));
        assert!(lexed.comments[1].text.contains("Instant::now"));
    }

    #[test]
    fn raw_and_byte_strings_are_single_tokens() {
        let toks = kinds(r####"a(br#"x "quoted" y"#, b"recipe.txn.v1", r"\d+")"####);
        let strs: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Str)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(strs, vec![r#"x "quoted" y"#, "recipe.txn.v1", r"\d+"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) -> char { 'x' }");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Lifetime && t == "a"));
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Char && t == "x"));
    }

    #[test]
    fn numbers_classify_float_vs_int() {
        let toks = kinds("1_000 0.5 1e9 2f64 0x1f 3..4 1.max(2)");
        let nums: Vec<(bool, &str)> = toks
            .iter()
            .filter_map(|(k, t)| match k {
                TokenKind::Num { float } => Some((*float, t.as_str())),
                _ => None,
            })
            .collect();
        assert_eq!(
            nums,
            vec![
                (false, "1_000"),
                (true, "0.5"),
                (true, "1e9"),
                (true, "2f64"),
                (false, "0x1f"),
                (false, "3"),
                (false, "4"),
                (false, "1"),
                (false, "2"),
            ]
        );
    }

    #[test]
    fn nested_block_comments_terminate_correctly() {
        let lexed = lex("/* outer /* inner */ tail */ fn x() {}");
        assert!(lexed.tokens.iter().any(|t| t.is_ident("fn")));
        assert!(lexed.comments[0].text.contains("inner"));
        assert!(lexed.comments[0].text.contains("tail"));
    }
}
