//! A minimal, line/column-tracked Rust lexer.
//!
//! Just enough tokenization for source-level lint rules: identifiers,
//! punctuation, numbers, string/char/byte literals, lifetimes, and
//! comments are all recognised and carried as distinct tokens, so a rule
//! that matches identifier sequences can never fire on text inside a
//! string literal or a doc comment. Raw strings (`r#"…"#`), nested block
//! comments, escapes, and the lifetime-versus-char-literal ambiguity
//! (`'a` vs `'a'`) are handled; everything else a full parser would do
//! (precedence, items, types) is deliberately out of scope.

/// What a token is, as far as lint rules care.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`HashMap`, `use`, `fn`, `r#type`).
    Ident,
    /// A lifetime (`'a`, `'static`).
    Lifetime,
    /// An integer or float literal, with any suffix.
    Number,
    /// A string or byte-string literal, raw or not. `text` is the raw
    /// source slice including quotes.
    Str,
    /// A char or byte literal (`'x'`, `b'\n'`).
    Char,
    /// A line or block comment, doc or not. `text` includes the
    /// delimiters.
    Comment,
    /// One punctuation token. Multi-character operators are not glued,
    /// with one exception: `::` is emitted as a single token because
    /// path-matching rules need it constantly.
    Punct,
}

/// One lexed token with its 1-based source position.
#[derive(Debug, Clone)]
pub struct Token {
    /// The token's class.
    pub kind: TokenKind,
    /// The raw source text of the token.
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// 1-based column (in chars) of the token's first character.
    pub col: u32,
    /// Byte offset of the token's first character in the source.
    pub lo: usize,
    /// Byte offset one past the token's last character.
    pub hi: usize,
}

/// Lexes `source` into a token stream, comments included.
///
/// The lexer never fails: malformed input (an unterminated string, a
/// stray byte) degrades into best-effort tokens rather than an error, so
/// the linter can still scan the rest of the file.
pub fn lex(source: &str) -> Vec<Token> {
    Lexer::new(source).run()
}

struct Lexer<'a> {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
    offset: usize,
    token_lo: usize,
    tokens: Vec<Token>,
    source: &'a str,
}

impl<'a> Lexer<'a> {
    fn new(source: &'a str) -> Self {
        Lexer {
            chars: source.chars().collect(),
            pos: 0,
            line: 1,
            col: 1,
            offset: 0,
            token_lo: 0,
            tokens: Vec::new(),
            source,
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
        let _ = self.source;
        // A shebang line (`#!/usr/bin/env …`, but not the inner attribute
        // `#![…]`) is swallowed as a comment token.
        if self.peek(0) == Some('#') && self.peek(1) == Some('!') && self.peek(2) != Some('[') {
            let (line, col) = (self.line, self.col);
            self.token_lo = self.offset;
            self.line_comment(line, col);
        }
        while let Some(c) = self.peek(0) {
            let (line, col) = (self.line, self.col);
            self.token_lo = self.offset;
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(line, col),
                '/' if self.peek(1) == Some('*') => self.block_comment(line, col),
                '"' => self.string(line, col, String::new()),
                'r' | 'b' => self.ident_or_prefixed_literal(line, col),
                '\'' => self.lifetime_or_char(line, col),
                c if c.is_alphabetic() || c == '_' => self.ident(line, col),
                c if c.is_ascii_digit() => self.number(line, col),
                ':' if self.peek(1) == Some(':') => {
                    self.bump();
                    self.bump();
                    self.push(TokenKind::Punct, "::".to_string(), line, col);
                }
                _ => {
                    #[expect(clippy::expect_used, reason = "peeked char exists")]
                    let c = self.bump().expect("peeked char exists");
                    self.push(TokenKind::Punct, c.to_string(), line, col);
                }
            }
        }
        self.tokens
    }

    fn push(&mut self, kind: TokenKind, text: String, line: u32, col: u32) {
        self.tokens.push(Token {
            kind,
            text,
            line,
            col,
            lo: self.token_lo,
            hi: self.offset,
        });
    }

    fn line_comment(&mut self, line: u32, col: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.push(TokenKind::Comment, text, line, col);
    }

    fn block_comment(&mut self, line: u32, col: u32) {
        let mut text = String::new();
        let mut depth = 0u32;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                text.push_str("/*");
                self.bump();
                self.bump();
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                text.push_str("*/");
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
            } else {
                text.push(c);
                self.bump();
            }
        }
        self.push(TokenKind::Comment, text, line, col);
    }

    /// A plain `"…"` string with escapes. `prefix` carries any `b` that
    /// preceded the quote.
    fn string(&mut self, line: u32, col: u32, prefix: String) {
        let mut text = prefix;
        text.push('"');
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            text.push(c);
            match c {
                '\\' => {
                    if let Some(esc) = self.bump() {
                        text.push(esc);
                    }
                }
                '"' => break,
                _ => {}
            }
        }
        self.push(TokenKind::Str, text, line, col);
    }

    /// A raw string `r"…"` / `r#"…"#` (with `prefix` = the consumed
    /// `r`/`br`). The closing quote must be followed by the same number
    /// of `#`s that opened it.
    fn raw_string(&mut self, line: u32, col: u32, prefix: String) {
        let mut text = prefix;
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            text.push('#');
            self.bump();
        }
        text.push('"');
        self.bump(); // opening quote
        'outer: while let Some(c) = self.bump() {
            text.push(c);
            if c == '"' {
                for i in 0..hashes {
                    if self.peek(i) != Some('#') {
                        continue 'outer;
                    }
                }
                for _ in 0..hashes {
                    text.push('#');
                    self.bump();
                }
                break;
            }
        }
        self.push(TokenKind::Str, text, line, col);
    }

    /// Disambiguates identifiers starting with `r`/`b` from the literal
    /// prefixes `r"`, `r#"`, `b"`, `b'`, `br"`, `r#ident`.
    fn ident_or_prefixed_literal(&mut self, line: u32, col: u32) {
        #[expect(clippy::expect_used, reason = "caller saw a char")]
        let c0 = self.peek(0).expect("caller saw a char");
        let c1 = self.peek(1);
        let c2 = self.peek(2);
        match (c0, c1) {
            ('r', Some('"')) => {
                self.bump();
                self.raw_string(line, col, "r".to_string());
            }
            ('r', Some('#')) if c2 == Some('"') || c2 == Some('#') => {
                self.bump();
                self.raw_string(line, col, "r".to_string());
            }
            ('r', Some('#')) => {
                // Raw identifier `r#type`.
                self.bump();
                self.bump();
                self.ident_with_prefix(line, col, "r#".to_string());
            }
            ('b', Some('"')) => {
                self.bump();
                self.string(line, col, "b".to_string());
            }
            ('b', Some('\'')) => {
                self.bump();
                self.bump();
                let mut text = String::from("b'");
                while let Some(c) = self.bump() {
                    text.push(c);
                    match c {
                        '\\' => {
                            if let Some(esc) = self.bump() {
                                text.push(esc);
                            }
                        }
                        '\'' => break,
                        _ => {}
                    }
                }
                self.push(TokenKind::Char, text, line, col);
            }
            ('b', Some('r')) if c2 == Some('"') || c2 == Some('#') => {
                self.bump();
                self.bump();
                self.raw_string(line, col, "br".to_string());
            }
            _ => self.ident(line, col),
        }
    }

    fn ident(&mut self, line: u32, col: u32) {
        self.ident_with_prefix(line, col, String::new());
    }

    fn ident_with_prefix(&mut self, line: u32, col: u32, prefix: String) {
        let mut text = prefix;
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokenKind::Ident, text, line, col);
    }

    /// `'a` (lifetime) versus `'a'` (char literal): a quote followed by
    /// an identifier char is a lifetime unless the char after that is a
    /// closing quote; anything else (`'\n'`, `'('`) is a char literal.
    fn lifetime_or_char(&mut self, line: u32, col: u32) {
        let c1 = self.peek(1);
        let c2 = self.peek(2);
        let is_lifetime = match c1 {
            Some(c) if c.is_alphabetic() || c == '_' => c2 != Some('\''),
            _ => false,
        };
        if is_lifetime {
            self.bump(); // the quote
            let mut text = String::from("'");
            while let Some(c) = self.peek(0) {
                if c.is_alphanumeric() || c == '_' {
                    text.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            self.push(TokenKind::Lifetime, text, line, col);
        } else {
            self.bump(); // the quote
            let mut text = String::from("'");
            while let Some(c) = self.bump() {
                text.push(c);
                match c {
                    '\\' => {
                        if let Some(esc) = self.bump() {
                            text.push(esc);
                        }
                    }
                    '\'' => break,
                    _ => {}
                }
            }
            self.push(TokenKind::Char, text, line, col);
        }
    }

    fn number(&mut self, line: u32, col: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else if c == '.'
                && self.peek(1).is_some_and(|d| d.is_ascii_digit())
                && !text.contains('.')
            {
                // A float's fractional part — but not `0..n` (range) and
                // only one dot per literal (so `x.0.1` tuple indexing
                // yields two Number tokens).
                text.push('.');
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokenKind::Number, text, line, col);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_and_paths() {
        let toks = kinds("use std::collections::HashMap;");
        assert_eq!(
            toks,
            vec![
                (TokenKind::Ident, "use".into()),
                (TokenKind::Ident, "std".into()),
                (TokenKind::Punct, "::".into()),
                (TokenKind::Ident, "collections".into()),
                (TokenKind::Punct, "::".into()),
                (TokenKind::Ident, "HashMap".into()),
                (TokenKind::Punct, ";".into()),
            ]
        );
    }

    #[test]
    fn strings_swallow_identifier_lookalikes() {
        let toks = kinds(r#"let s = "HashMap::new() // not code";"#);
        assert!(toks
            .iter()
            .all(|(k, t)| *k != TokenKind::Ident || t != "HashMap"));
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokenKind::Str).count(), 1);
    }

    #[test]
    fn raw_strings_and_hashes() {
        let toks = kinds(r##"let s = r#"a "quoted" HashMap"#;"##);
        let strs: Vec<_> = toks.iter().filter(|(k, _)| *k == TokenKind::Str).collect();
        assert_eq!(strs.len(), 1);
        assert!(strs[0].1.contains("quoted"));
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "HashMap"));
    }

    #[test]
    fn comments_are_tokens_not_code() {
        let toks = kinds("// HashMap here\nlet x = 1; /* Instant::now() */");
        let comments: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Comment)
            .collect();
        assert_eq!(comments.len(), 2);
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "HashMap"));
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "Instant"));
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("/* outer /* inner */ still comment */ fn x() {}");
        assert_eq!(toks[0].0, TokenKind::Comment);
        assert!(toks[0].1.contains("inner"));
        assert_eq!(toks[1], (TokenKind::Ident, "fn".into()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Lifetime)
            .collect();
        let chars: Vec<_> = toks.iter().filter(|(k, _)| *k == TokenKind::Char).collect();
        assert_eq!(lifetimes.len(), 2);
        assert_eq!(chars.len(), 2);
    }

    #[test]
    fn positions_track_lines_and_columns() {
        let toks = lex("ab cd\n  ef");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (1, 4));
        assert_eq!((toks[2].line, toks[2].col), (2, 3));
    }

    #[test]
    fn numbers_do_not_eat_ranges() {
        let toks = kinds("for i in 0..10 { let f = 1.5e3; }");
        assert!(toks.contains(&(TokenKind::Number, "0".into())));
        assert!(toks.contains(&(TokenKind::Number, "10".into())));
        assert!(toks.contains(&(TokenKind::Number, "1.5e3".into())));
    }

    #[test]
    fn byte_literals() {
        let toks = kinds(r##"let a = b"bytes"; let c = b'x'; let r = br#"raw"#;"##);
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokenKind::Str).count(), 2);
        assert_eq!(
            toks.iter().filter(|(k, _)| *k == TokenKind::Char).count(),
            1
        );
    }

    #[test]
    fn raw_identifiers() {
        let toks = kinds("let r#type = 1;");
        assert!(toks.contains(&(TokenKind::Ident, "r#type".into())));
    }
}
