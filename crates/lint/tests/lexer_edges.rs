//! Lexer edge-case goldens: the inputs that historically break
//! hand-rolled Rust lexers. Each test pins the exact token stream (kind,
//! text) and the byte-span invariant `src[lo..hi] == text`, so a lexer
//! regression shows up as a golden diff rather than a mysterious
//! downstream lint misfire.

use tao_lint::lexer::{lex, Token, TokenKind};

/// Asserts the `(kind, text)` sequence and that every token's byte span
/// slices back to its text.
fn assert_stream(src: &str, expected: &[(TokenKind, &str)]) {
    let tokens = lex(src);
    let got: Vec<(TokenKind, &str)> = tokens.iter().map(|t| (t.kind, t.text.as_str())).collect();
    assert_eq!(got, expected, "token stream mismatch for {src:?}");
    assert_spans(src, &tokens);
}

/// Spans must be in-bounds, non-overlapping, increasing, and faithful.
fn assert_spans(src: &str, tokens: &[Token]) {
    let mut prev_hi = 0;
    for t in tokens {
        assert!(t.lo >= prev_hi, "overlapping spans at {:?}", t.text);
        assert!(t.hi <= src.len(), "span past EOF at {:?}", t.text);
        assert_eq!(&src[t.lo..t.hi], t.text, "span does not slice back to text");
        prev_hi = t.hi;
    }
}

#[test]
fn raw_strings_with_hash_delimiters_inside_attributes() {
    // The `"` and `//` inside the raw string must not open a string or a
    // comment; the `#` delimiters belong to the literal.
    let src = "#[doc = r##\"has \"quotes\"# and // no comment\"##]\nfn f() {}";
    assert_stream(
        src,
        &[
            (TokenKind::Punct, "#"),
            (TokenKind::Punct, "["),
            (TokenKind::Ident, "doc"),
            (TokenKind::Punct, "="),
            (TokenKind::Str, "r##\"has \"quotes\"# and // no comment\"##"),
            (TokenKind::Punct, "]"),
            (TokenKind::Ident, "fn"),
            (TokenKind::Ident, "f"),
            (TokenKind::Punct, "("),
            (TokenKind::Punct, ")"),
            (TokenKind::Punct, "{"),
            (TokenKind::Punct, "}"),
        ],
    );
}

#[test]
fn nested_block_comment_ending_at_eof() {
    // Rust block comments nest; an unterminated one runs to EOF without
    // panicking and without leaking tokens from inside the comment.
    let src = "fn g() {}\n/* outer /* inner */ still the outer comment";
    let tokens = lex(src);
    assert_spans(src, &tokens);
    let last = tokens.last().expect("tokens");
    assert_eq!(last.kind, TokenKind::Comment);
    assert_eq!(last.text, "/* outer /* inner */ still the outer comment");
    assert_eq!(last.hi, src.len(), "comment must extend to EOF");
    assert!(
        !tokens.iter().any(|t| t.text == "still"),
        "comment interior leaked as tokens"
    );
}

#[test]
fn lifetimes_are_not_char_literals() {
    // `'a` in `<'a>` and `&'a` is a lifetime; `'x'` is a char; `'\''` is
    // an escaped char. All three adjacent in one header.
    let src = "fn h<'a>(v: &'a u32) -> char { let c = '\\''; let d = 'x'; c }";
    let tokens = lex(src);
    assert_spans(src, &tokens);
    let lifetimes: Vec<&str> = tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Lifetime)
        .map(|t| t.text.as_str())
        .collect();
    let chars: Vec<&str> = tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Char)
        .map(|t| t.text.as_str())
        .collect();
    assert_eq!(lifetimes, vec!["'a", "'a"]);
    assert_eq!(chars, vec!["'\\''", "'x'"]);
}

#[test]
fn shebang_prefixed_file() {
    // `#!/usr/bin/env …` on line 1 is a shebang (skipped like a
    // comment), but `#![inner_attr]` is NOT a shebang — the `[`
    // disambiguates, exactly as in rustc.
    let src = "#!/usr/bin/env cargo-script\nfn main() { body(); }\n";
    let tokens = lex(src);
    assert_spans(src, &tokens);
    assert_eq!(tokens[0].kind, TokenKind::Comment);
    assert_eq!(tokens[0].text, "#!/usr/bin/env cargo-script");
    assert_eq!(tokens[1].text, "fn");
    assert_eq!(tokens[1].line, 2, "code after the shebang is on line 2");

    let attr = "#![allow(dead_code)]\nfn main() {}\n";
    let tokens = lex(attr);
    assert_spans(attr, &tokens);
    assert_eq!(
        (tokens[0].kind, tokens[0].text.as_str()),
        (TokenKind::Punct, "#"),
        "inner attribute must lex as punctuation, not a shebang comment"
    );
    assert_eq!(tokens[1].text, "!");
    assert_eq!(tokens[2].text, "[");
}

#[test]
fn glued_path_separator_and_numbers_keep_offsets() {
    let src = "use a::b;\nlet x = 0xFF_u32 + 1.5e3;";
    let tokens = lex(src);
    assert_spans(src, &tokens);
    assert!(tokens
        .iter()
        .any(|t| t.kind == TokenKind::Punct && t.text == "::"));
    let numbers: Vec<&str> = tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Number)
        .map(|t| t.text.as_str())
        .collect();
    assert_eq!(numbers, vec!["0xFF_u32", "1.5e3"]);
}

#[test]
fn raw_identifiers_lex_as_single_ident_tokens() {
    // `r#fn` names a function and `r#type` a parameter: each is ONE
    // identifier token — the `r#` must not open a raw string, and the
    // keyword after the `#` must not surface as a separate token.
    let src = "fn r#fn(r#type: u32) -> u32 { r#type }";
    let tokens = lex(src);
    assert_spans(src, &tokens);
    let idents: Vec<&str> = tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.as_str())
        .collect();
    assert_eq!(idents, vec!["fn", "r#fn", "r#type", "u32", "u32", "r#type"]);
    assert!(
        !tokens.iter().any(|t| t.kind == TokenKind::Str),
        "`r#` must not be misread as a raw-string opener"
    );
}

#[test]
fn byte_string_literals_in_all_three_forms() {
    // Escaped byte string (with a `//` inside that must not open a
    // comment), raw byte string, and a byte char, all on one line.
    let src = r##"let a = b"x \" // y"; let r = br#"raw "b"#; let c = b'\n';"##;
    let tokens = lex(src);
    assert_spans(src, &tokens);
    let strs: Vec<&str> = tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Str)
        .map(|t| t.text.as_str())
        .collect();
    assert_eq!(strs, vec![r#"b"x \" // y""#, r##"br#"raw "b"#"##]);
    let chars: Vec<&str> = tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Char)
        .map(|t| t.text.as_str())
        .collect();
    assert_eq!(chars, vec![r"b'\n'"]);
    assert!(
        !tokens.iter().any(|t| t.kind == TokenKind::Comment),
        "`//` inside a byte string leaked as a comment"
    );
}
