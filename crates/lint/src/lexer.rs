//! A hand-rolled Rust lexer producing identifier/punctuation tokens with
//! `line:col` spans.
//!
//! The linter's rules only ever ask "does identifier X appear outside
//! comments, strings and test code?", so the lexer does not need to be a
//! full Rust grammar — it needs to be *exactly right* about what is and
//! is not source text. It therefore handles every trivia form that could
//! hide a false positive: line and doc comments, nested block comments,
//! string/char/byte literals, raw strings with arbitrary `#` fences, raw
//! identifiers, and the lifetime-vs-char-literal ambiguity after `'`.

/// What a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`HashMap`, `fn`, `r#type`).
    Ident,
    /// A lifetime (`'a`) — distinct from [`TokKind::Char`].
    Lifetime,
    /// A string literal of any flavour (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// A character or byte literal (`'x'`, `b'\n'`).
    Char,
    /// A numeric literal (`42`, `0xFF`, `1.5e-3`).
    Num,
    /// A single punctuation character (`.`, `:`, `{`, …).
    Punct,
}

/// One lexed token with its source span.
#[derive(Debug, Clone)]
pub struct Token {
    /// Classification of the token text.
    pub kind: TokKind,
    /// The token's text, verbatim (string literals keep their quotes).
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// 1-based column (in characters) of the token's first character.
    pub col: u32,
    /// Byte offset of the token's first character in the source.
    pub offset: usize,
    /// Byte length of the token text.
    pub len: usize,
}

impl Token {
    /// Whether this token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }

    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }

    /// The 1-based `(line, column)` of the character just past this
    /// token. Multi-line tokens (raw strings) advance the line count.
    pub fn end_pos(&self) -> (u32, u32) {
        let newlines = self.text.matches('\n').count() as u32;
        if newlines == 0 {
            (self.line, self.col + self.text.chars().count() as u32)
        } else {
            let tail = self.text.rsplit('\n').next().unwrap_or("");
            (self.line + newlines, tail.chars().count() as u32 + 1)
        }
    }
}

/// Lexes `source` into its non-trivia tokens, in source order.
///
/// The lexer never fails: unterminated literals or comments simply run to
/// end of file, which is the forgiving behaviour a linter wants (rustc
/// will reject the file anyway; the lint should not crash first).
pub fn lex(source: &str) -> Vec<Token> {
    Lexer::new(source).run()
}

struct Lexer<'a> {
    src: &'a str,
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
    offset: usize,
    tokens: Vec<Token>,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            src,
            chars: src.chars().collect(),
            pos: 0,
            line: 1,
            col: 1,
            offset: 0,
            tokens: Vec::new(),
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied()?;
        self.pos += 1;
        self.offset += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn run(mut self) -> Vec<Token> {
        while let Some(c) = self.peek(0) {
            let (line, col, offset) = (self.line, self.col, self.offset);
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                'r' | 'b' if self.starts_raw_or_byte_literal() => {
                    self.prefixed_literal(line, col, offset);
                }
                '"' => self.string_literal(line, col, offset, 0),
                '\'' => self.quote(line, col, offset),
                c if c.is_ascii_digit() => self.number(line, col, offset),
                c if c == '_' || c.is_alphabetic() => self.ident(line, col, offset),
                _ => {
                    self.bump();
                    self.push(TokKind::Punct, line, col, offset);
                }
            }
        }
        self.tokens
    }

    fn push(&mut self, kind: TokKind, line: u32, col: u32, offset: usize) {
        let text = self.src[offset..self.offset].to_string();
        self.tokens.push(Token {
            kind,
            text,
            line,
            col,
            offset,
            len: self.offset - offset,
        });
    }

    /// `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `b'…'` — but *not* plain
    /// identifiers like `result` or raw identifiers like `r#type`.
    fn starts_raw_or_byte_literal(&self) -> bool {
        match (self.peek(0), self.peek(1)) {
            (Some('r'), Some('"')) | (Some('b'), Some('"')) | (Some('b'), Some('\'')) => true,
            (Some('r'), Some('#')) => {
                // Distinguish r#"raw string"# from the raw identifier r#ident.
                let mut i = 1;
                while self.peek(i) == Some('#') {
                    i += 1;
                }
                self.peek(i) == Some('"')
            }
            (Some('b'), Some('r')) => matches!(self.peek(2), Some('"') | Some('#')),
            _ => false,
        }
    }

    fn prefixed_literal(&mut self, line: u32, col: u32, offset: usize) {
        // Consume the r/b/br prefix.
        let mut raw = false;
        while let Some(c) = self.peek(0) {
            match c {
                'r' => {
                    raw = true;
                    self.bump();
                }
                'b' => {
                    self.bump();
                }
                _ => break,
            }
        }
        if self.peek(0) == Some('\'') {
            // b'…' byte literal.
            self.bump();
            self.char_body();
            self.push(TokKind::Char, line, col, offset);
            return;
        }
        let mut fences = 0;
        if raw {
            while self.peek(0) == Some('#') {
                fences += 1;
                self.bump();
            }
        }
        if self.peek(0) == Some('"') {
            if raw {
                self.raw_string_body(fences, line, col, offset);
            } else {
                self.string_literal(line, col, offset, 0);
            }
        }
    }

    fn string_literal(&mut self, line: u32, col: u32, offset: usize, _fences: usize) {
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '"' => break,
                _ => {}
            }
        }
        self.push(TokKind::Str, line, col, offset);
    }

    fn raw_string_body(&mut self, fences: usize, line: u32, col: u32, offset: usize) {
        self.bump(); // opening quote
        'outer: while let Some(c) = self.bump() {
            if c == '"' {
                for i in 0..fences {
                    if self.peek(i) != Some('#') {
                        continue 'outer;
                    }
                }
                for _ in 0..fences {
                    self.bump();
                }
                break;
            }
        }
        self.push(TokKind::Str, line, col, offset);
    }

    /// After `'`: a lifetime (`'a`, `'static`) or a char literal (`'x'`,
    /// `'\n'`). A lifetime is `'` + ident-start not followed by a closing
    /// quote; everything else is a char literal.
    fn quote(&mut self, line: u32, col: u32, offset: usize) {
        let next = self.peek(1);
        let after = self.peek(2);
        let is_lifetime =
            matches!(next, Some(c) if c == '_' || c.is_alphabetic()) && after != Some('\'');
        self.bump(); // the quote
        if is_lifetime {
            while matches!(self.peek(0), Some(c) if c == '_' || c.is_alphanumeric()) {
                self.bump();
            }
            self.push(TokKind::Lifetime, line, col, offset);
        } else {
            self.char_body();
            self.push(TokKind::Char, line, col, offset);
        }
    }

    fn char_body(&mut self) {
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '\'' => break,
                _ => {}
            }
        }
    }

    fn number(&mut self, line: u32, col: u32, offset: usize) {
        while matches!(self.peek(0), Some(c) if c.is_ascii_alphanumeric() || c == '_') {
            self.bump();
        }
        // A fractional part — but `0..10` must leave the range dots alone.
        if self.peek(0) == Some('.') && matches!(self.peek(1), Some(c) if c.is_ascii_digit()) {
            self.bump();
            while matches!(self.peek(0), Some(c) if c.is_ascii_alphanumeric() || c == '_') {
                self.bump();
            }
        }
        // An exponent sign (`1e-3`): the e/E was consumed above, the sign
        // and magnitude were not.
        if matches!(self.peek(0), Some('+') | Some('-'))
            && self.src[offset..self.offset].ends_with(['e', 'E'])
        {
            self.bump();
            while matches!(self.peek(0), Some(c) if c.is_ascii_digit() || c == '_') {
                self.bump();
            }
        }
        self.push(TokKind::Num, line, col, offset);
    }

    fn ident(&mut self, line: u32, col: u32, offset: usize) {
        // Raw identifier prefix r# (r#"…" was already routed to literals).
        if self.peek(0) == Some('r') && self.peek(1) == Some('#') {
            self.bump();
            self.bump();
        }
        while matches!(self.peek(0), Some(c) if c == '_' || c.is_alphanumeric()) {
            self.bump();
        }
        self.push(TokKind::Ident, line, col, offset);
    }

    fn line_comment(&mut self) {
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            self.bump();
        }
    }

    fn block_comment(&mut self) {
        self.bump();
        self.bump();
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    self.bump();
                    self.bump();
                    depth += 1;
                }
                (Some('*'), Some('/')) => {
                    self.bump();
                    self.bump();
                    depth -= 1;
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_identifiers() {
        let src = r##"
            // HashMap in a line comment
            /// HashMap in a doc comment
            /* HashMap /* nested */ still a comment */
            let a = "HashMap in a string";
            let b = r#"HashMap in a raw string"#;
            let c = 'H';
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"HashMap".to_string()), "{ids:?}");
        assert!(ids.contains(&"let".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::Char).count(),
            1,
            "'x' is a char literal"
        );
    }

    #[test]
    fn spans_are_one_based_lines_and_cols() {
        let toks = lex("a\n  bc");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
        assert_eq!(
            &"a\n  bc"[toks[1].offset..toks[1].offset + toks[1].len],
            "bc"
        );
    }

    #[test]
    fn range_dots_survive_number_lexing() {
        let toks = lex("0..10 1.5e-3 0xFF");
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, vec!["0", ".", ".", "10", "1.5e-3", "0xFF"]);
    }

    #[test]
    fn raw_identifiers_lex_as_idents() {
        let toks = lex("let r#type = 1;");
        assert!(toks.iter().any(|t| t.is_ident("r#type")));
    }

    #[test]
    fn byte_and_raw_strings_are_single_tokens() {
        let toks = lex(r###"let x = (b"bytes", br#"raw bytes"#, b'\n');"###);
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Str).count(), 2);
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Char).count(), 1);
    }
}
