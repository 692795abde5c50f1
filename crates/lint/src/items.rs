//! A brace-matched item parser over the token stream.
//!
//! [`parse_items`] recovers the item structure of a file — `fn`, `struct`,
//! `enum`, `mod`, `impl`, `trait`, `use`, `const`, `static`, `type`,
//! `macro_rules!` — with byte spans, visibility, `#[cfg(test)]`/`#[test]`
//! status, and (for functions) the token range of the body. It is *not* a
//! Rust parser: expressions, types, and generics are skipped by tracking
//! bracket depth, which is exactly enough for the structural lint rules
//! (panic-reachability, crate layering, seed discipline) to know *which
//! item* a token belongs to and *who calls whom*.
//!
//! Invariant (checked by the `item_roundtrip` property test): the top-level
//! items of a file have strictly increasing, non-overlapping byte spans,
//! and every non-comment token of the file falls inside exactly one
//! top-level span — no token is silently unowned.

use crate::lexer::{Token, TokenKind};

/// What kind of item was recovered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// A free function or method (`fn`).
    Fn,
    /// A `struct` definition.
    Struct,
    /// An `enum` definition.
    Enum,
    /// A `union` definition.
    Union,
    /// An inline or out-of-line module (`mod m { … }` / `mod m;`).
    Mod,
    /// An `impl` block; `name` is the self type's last path segment.
    Impl,
    /// A `trait` definition.
    Trait,
    /// A `use` declaration; `name` holds the rendered path.
    Use,
    /// A `const` item.
    Const,
    /// A `static` item.
    Static,
    /// A `type` alias.
    TypeAlias,
    /// A `macro_rules!` definition.
    MacroDef,
    /// An `extern crate` declaration; `name` is the crate.
    ExternCrate,
    /// Anything the parser could not classify (inner attributes, foreign
    /// blocks, stray tokens); owned so byte coverage stays exact.
    Other,
}

/// Item visibility, as far as the structural rules care.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visibility {
    /// Plain `pub`.
    Pub,
    /// `pub(crate)`, `pub(super)`, `pub(in …)`.
    Scoped,
    /// No visibility modifier.
    Private,
}

/// One recovered item. Items form a tree: modules, traits, and impl
/// blocks carry their members in `children`.
#[derive(Debug, Clone)]
pub struct Item {
    /// The item's kind.
    pub kind: ItemKind,
    /// Simple name (`fn join` → `join`; `impl CanOverlay` → `CanOverlay`;
    /// `use` → the full rendered path). Empty for unnamed `Other` items.
    pub name: String,
    /// `::`-joined path within the file: enclosing modules, then the impl
    /// or trait type, then the name (`tests::helpers::mk`, or
    /// `CanOverlay::join` for a method).
    pub qual: String,
    /// The item's declared visibility.
    pub vis: Visibility,
    /// True if the item, or any enclosing item, is under `#[cfg(test)]`
    /// or `#[test]`.
    pub is_test: bool,
    /// 1-based line of the item's first token (attributes included).
    pub line: u32,
    /// 1-based line its declaration starts on, past the outer attributes.
    pub decl_line: u32,
    /// Byte span `[lo, hi)` of the item, attributes included.
    pub lo: usize,
    /// End of the byte span (one past the last byte).
    pub hi: usize,
    /// Code-token index span `[start, end)` of the whole item (signature
    /// and body), indexing into the slice given to [`parse_items`]. The
    /// taint and hot-path passes scan this to see tokens the `body` range
    /// misses — a `HashMap` parameter lives in the signature, not the
    /// body.
    pub tok: (usize, usize),
    /// For items with a braced body: the code-token index range
    /// `(start, end)` *inside* the braces, exclusive of the braces
    /// themselves. Indexes into the same code-token slice given to
    /// [`parse_items`].
    pub body: Option<(usize, usize)>,
    /// Members of a module, trait, or impl block.
    pub children: Vec<Item>,
}

impl Item {
    /// Visits this item and all descendants.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Item)) {
        f(self);
        for c in &self.children {
            c.visit(f);
        }
    }
}

/// Parses the top-level items of a file from its *code* tokens (comments
/// filtered out, as produced by [`code_tokens`]).
pub fn parse_items(code: &[&Token]) -> Vec<Item> {
    let mut p = Parser { code };
    p.items(0, code.len(), "", false)
}

/// Filters a lexed token stream down to code tokens (everything but
/// comments), preserving order.
pub fn code_tokens(tokens: &[Token]) -> Vec<&Token> {
    tokens
        .iter()
        .filter(|t| t.kind != TokenKind::Comment)
        .collect()
}

struct Parser<'a> {
    code: &'a [&'a Token],
}

impl<'a> Parser<'a> {
    fn text(&self, i: usize) -> &str {
        self.code.get(i).map_or("", |t| t.text.as_str())
    }

    fn kind(&self, i: usize) -> Option<TokenKind> {
        self.code.get(i).map(|t| t.kind)
    }

    /// Parses the items in `[i, end)` under module path `path`.
    fn items(&mut self, mut i: usize, end: usize, path: &str, in_test: bool) -> Vec<Item> {
        let mut out = Vec::new();
        while i < end {
            let (item, next) = self.item(i, end, path, in_test);
            debug_assert!(next > i, "item parser must make progress");
            out.push(item);
            i = next;
        }
        out
    }

    /// Parses one item starting at code-token index `i`; returns the item
    /// and the index of the first token after it.
    fn item(&mut self, start: usize, end: usize, path: &str, in_test: bool) -> (Item, usize) {
        let mut i = start;
        let mut attr_test = false;

        // Leading attributes. An inner attribute (`#![…]`) is its own
        // `Other` item — it belongs to the enclosing module, not to the
        // next item.
        while i < end && self.text(i) == "#" && self.text(i + 1) == "[" {
            let (idents, after) = self.attr_idents(i + 2, end);
            let is_cfg_test =
                idents.contains(&"cfg") && idents.contains(&"test") && !idents.contains(&"not");
            let is_test_attr = idents == ["test"];
            if is_cfg_test || is_test_attr {
                attr_test = true;
            }
            i = after;
        }
        let bare = Head {
            start,
            decl: i,
            path,
            vis: Visibility::Private,
            is_test: in_test,
        };
        if i >= end {
            // Attributes at end of scope with no item: own them as Other.
            let after = end.min(self.code.len());
            return (self.leaf(bare, ItemKind::Other, "", after), end);
        }
        if self.text(i) == "#" && self.text(i + 1) == "!" && i == start {
            // Inner attribute: `#![…]`.
            let (_, after) = self.attr_idents(i + 3, end);
            return (self.leaf(bare, ItemKind::Other, "", after), after);
        }

        // Visibility.
        let mut vis = Visibility::Private;
        if self.text(i) == "pub" {
            vis = Visibility::Pub;
            i += 1;
            if self.text(i) == "(" {
                vis = Visibility::Scoped;
                i = self.match_delim(i, end, "(", ")");
            }
        }

        let h = Head {
            is_test: in_test || attr_test,
            vis,
            ..bare
        };

        // Function modifiers (`const fn`, `unsafe fn`, `async fn`,
        // `extern "C" fn`). `const`/`extern` double as item keywords, so
        // look ahead before treating them as modifiers.
        let mut j = i;
        loop {
            match self.text(j) {
                "unsafe" | "async" => j += 1,
                "const" if matches!(self.text(j + 1), "fn" | "unsafe" | "async" | "extern") => {
                    j += 1
                }
                "extern" if self.kind(j + 1) == Some(TokenKind::Str) => {
                    // `extern "C" fn` modifier or `extern "C" { … }` block.
                    if self.text(j + 2) == "fn" {
                        j += 2;
                    } else {
                        break;
                    }
                }
                _ => break,
            }
        }

        match self.text(j) {
            "fn" => self.fn_item(h, j, end),
            "struct" => self.named_block_or_semi(h, j, end, ItemKind::Struct),
            "enum" => self.named_block_or_semi(h, j, end, ItemKind::Enum),
            "union" if self.kind(j + 1) == Some(TokenKind::Ident) && self.text(j + 2) != "." => {
                self.named_block_or_semi(h, j, end, ItemKind::Union)
            }
            "mod" => self.mod_item(h, j, end),
            "impl" => self.impl_item(h, j, end),
            "trait" => self.trait_item(h, j, end),
            "use" => {
                let (text, after) = self.to_semi_text(j + 1, end);
                (self.leaf(h, ItemKind::Use, &text, after), after)
            }
            "const" | "static" => {
                let kind = if self.text(j) == "const" {
                    ItemKind::Const
                } else {
                    ItemKind::Static
                };
                let mut k = j + 1;
                if self.text(k) == "mut" {
                    k += 1;
                }
                let after = self.skip_to_semi(k, end);
                (self.leaf(h, kind, self.text(k), after), after)
            }
            "type" => {
                let after = self.skip_to_semi(j + 1, end);
                (
                    self.leaf(h, ItemKind::TypeAlias, self.text(j + 1), after),
                    after,
                )
            }
            "macro_rules" => {
                let mut k = j + 3;
                let after = if self.text(k) == "{" {
                    self.match_delim(k, end, "{", "}")
                } else {
                    // `macro_rules! m(…);` — rare; delimiter then `;`.
                    k = self.match_delim(k, end, "(", ")");
                    self.skip_to_semi(k, end)
                };
                // The name follows the `!`.
                (
                    self.leaf(h, ItemKind::MacroDef, self.text(j + 2), after),
                    after,
                )
            }
            "extern" if self.text(j + 1) == "crate" => {
                let after = self.skip_to_semi(j + 2, end);
                (
                    self.leaf(h, ItemKind::ExternCrate, self.text(j + 2), after),
                    after,
                )
            }
            "extern" => {
                // Foreign block `extern "C" { … }`.
                let after = self.skip_to_block_or_semi(j, end).1;
                (self.leaf(h, ItemKind::Other, "", after), after)
            }
            _ => {
                // Unclassifiable: own up to the next `;` or balanced block
                // so coverage stays exact and progress is guaranteed.
                let after = self.skip_to_block_or_semi(j, end).1.max(start + 1);
                (self.leaf(h, ItemKind::Other, "", after), after)
            }
        }
    }

    fn fn_item(&mut self, h: Head, kw: usize, end: usize) -> (Item, usize) {
        let (body_open, after) = self.skip_to_block_or_semi(kw + 1, end);
        let body = body_open.map(|open| (open + 1, after.saturating_sub(1)));
        let item = self.mk(h, ItemKind::Fn, self.text(kw + 1), after, body, Vec::new());
        (item, after)
    }

    fn named_block_or_semi(
        &mut self,
        h: Head,
        kw: usize,
        end: usize,
        kind: ItemKind,
    ) -> (Item, usize) {
        let (_, after) = self.skip_to_block_or_semi(kw + 1, end);
        (self.leaf(h, kind, self.text(kw + 1), after), after)
    }

    fn mod_item(&mut self, h: Head, kw: usize, end: usize) -> (Item, usize) {
        let name = self.text(kw + 1).to_string();
        if self.text(kw + 2) == ";" {
            return (self.leaf(h, ItemKind::Mod, &name, kw + 3), kw + 3);
        }
        let open = kw + 2; // `{`
        let after = self.match_delim(open, end, "{", "}");
        let children = self.items(
            open + 1,
            after.saturating_sub(1),
            &join(h.path, &name),
            h.is_test,
        );
        let body = Some((open + 1, after.saturating_sub(1)));
        (
            self.mk(h, ItemKind::Mod, &name, after, body, children),
            after,
        )
    }

    fn impl_item(&mut self, h: Head, kw: usize, end: usize) -> (Item, usize) {
        // Header runs from after `impl` to the body `{` at bracket depth 0.
        let mut k = kw + 1;
        let mut depth = 0i32;
        let mut after_for: Option<usize> = None;
        while k < end {
            match self.text(k) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "for" if depth == 0 => after_for = Some(k + 1),
                "{" if depth == 0 => break,
                _ => {}
            }
            k += 1;
        }
        let mut header_start = after_for.unwrap_or(kw + 1);
        // Skip the generic-parameter list of `impl<K, V> …` so the type
        // name is read from the type position, not the parameters.
        if after_for.is_none() && self.text(header_start) == "<" {
            let mut angle = 0i32;
            while header_start < k {
                match self.text(header_start) {
                    "<" => angle += 1,
                    ">" => {
                        angle -= 1;
                        if angle == 0 {
                            header_start += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                header_start += 1;
            }
        }
        let name = self.type_name_in(header_start, k);
        let open = k;
        let after = self.match_delim(open, end, "{", "}");
        let children = self.items(
            open + 1,
            after.saturating_sub(1),
            &join(h.path, &name),
            h.is_test,
        );
        let body = Some((open + 1, after.saturating_sub(1)));
        (
            self.mk(h, ItemKind::Impl, &name, after, body, children),
            after,
        )
    }

    fn trait_item(&mut self, h: Head, kw: usize, end: usize) -> (Item, usize) {
        let name = self.text(kw + 1).to_string();
        let (open, after) = self.skip_to_block_or_semi(kw + 1, end);
        let (children, body) = match open {
            Some(open) => (
                self.items(
                    open + 1,
                    after.saturating_sub(1),
                    &join(h.path, &name),
                    h.is_test,
                ),
                Some((open + 1, after.saturating_sub(1))),
            ),
            None => (Vec::new(), None),
        };
        (
            self.mk(h, ItemKind::Trait, &name, after, body, children),
            after,
        )
    }

    /// The last path-segment identifier of a type header (`DetMap<K, V>` →
    /// `DetMap`, `zone::Iter` → `Iter`), stopping at generics or the body.
    fn type_name_in(&self, from: usize, to: usize) -> String {
        let mut name = String::new();
        let mut k = from;
        while k < to {
            match self.kind(k) {
                Some(TokenKind::Ident) if self.text(k) != "where" => {
                    name = self.text(k).to_string();
                    // A generic-args list ends the path segment.
                    if self.text(k + 1) == "<" {
                        break;
                    }
                    if self.text(k + 1) != "::" {
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        name
    }

    /// Collects the identifier texts of an attribute starting just inside
    /// its `[`; returns them plus the index after the closing `]`.
    fn attr_idents(&self, from: usize, end: usize) -> (Vec<&'a str>, usize) {
        let mut idents = Vec::new();
        let mut depth = 1i32;
        let mut k = from;
        while k < end && depth > 0 {
            match self.text(k) {
                "[" => depth += 1,
                "]" => depth -= 1,
                _ => {
                    if self.kind(k) == Some(TokenKind::Ident) {
                        idents.push(&self.code[k].text[..]);
                    }
                }
            }
            k += 1;
        }
        (idents.iter().map(|s| &**s).collect(), k)
    }

    /// From `open` (which must be the opening delimiter), returns the index
    /// just after the matching closing delimiter.
    fn match_delim(&self, open: usize, end: usize, o: &str, c: &str) -> usize {
        let mut depth = 0i32;
        let mut k = open;
        while k < end {
            let t = self.text(k);
            if t == o {
                depth += 1;
            } else if t == c {
                depth -= 1;
                if depth == 0 {
                    return k + 1;
                }
            }
            k += 1;
        }
        end
    }

    /// Scans forward to the first `{` at `()`/`[]` depth 0 and brace-matches
    /// it (returning `(Some(open), after)`), or to a `;` at depth 0
    /// (returning `(None, after)`).
    fn skip_to_block_or_semi(&self, from: usize, end: usize) -> (Option<usize>, usize) {
        let mut depth = 0i32;
        let mut k = from;
        while k < end {
            match self.text(k) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                ";" if depth <= 0 => return (None, k + 1),
                "{" if depth <= 0 => return (Some(k), self.match_delim(k, end, "{", "}")),
                _ => {}
            }
            k += 1;
        }
        (None, end)
    }

    /// Scans to the terminating `;` at delimiter depth 0, brace-matching any
    /// intervening block (`const X: T = { … };`).
    fn skip_to_semi(&self, from: usize, end: usize) -> usize {
        let mut depth = 0i32;
        let mut k = from;
        while k < end {
            match self.text(k) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                ";" if depth <= 0 => return k + 1,
                _ => {}
            }
            k += 1;
        }
        end
    }

    /// Renders tokens to the terminating `;` as a compact path string.
    fn to_semi_text(&self, from: usize, end: usize) -> (String, usize) {
        let mut text = String::new();
        let mut k = from;
        while k < end && self.text(k) != ";" {
            text.push_str(self.text(k));
            k += 1;
        }
        (text, (k + 1).min(end))
    }

    fn mk(
        &self,
        h: Head,
        kind: ItemKind,
        name: &str,
        after: usize,
        body: Option<(usize, usize)>,
        children: Vec<Item>,
    ) -> Item {
        let first = self.code.get(h.start);
        let last = self.code.get(after.saturating_sub(1));
        Item {
            kind,
            name: name.to_string(),
            qual: join(h.path, name),
            vis: h.vis,
            is_test: h.is_test,
            line: first.map_or(0, |t| t.line),
            decl_line: self.code.get(h.decl).or(first).map_or(0, |t| t.line),
            lo: first.map_or(0, |t| t.lo),
            hi: last.map_or(0, |t| t.hi),
            tok: (h.start, after.min(self.code.len())),
            body,
            children,
        }
    }

    /// An item with no body and no children.
    fn leaf(&self, h: Head, kind: ItemKind, name: &str, after: usize) -> Item {
        self.mk(h, kind, name, after, None, Vec::new())
    }
}

/// What every item shares: its first token, the module path it sits in,
/// its visibility and whether it is test-only.
#[derive(Clone, Copy)]
struct Head<'p> {
    start: usize,
    /// The first token past the outer attributes.
    decl: usize,
    path: &'p str,
    vis: Visibility,
    is_test: bool,
}

fn join(path: &str, name: &str) -> String {
    match (path.is_empty(), name.is_empty()) {
        (true, _) => name.to_string(),
        (_, true) => path.to_string(),
        _ => format!("{path}::{name}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Vec<Item> {
        let tokens = lex(src);
        let code = code_tokens(&tokens);
        parse_items(&code)
    }

    #[test]
    fn recovers_fn_struct_mod_use() {
        let items = parse(
            "use std::fmt;\n\
             pub struct Zone { lo: f64 }\n\
             pub fn area(z: &Zone) -> f64 { z.lo * 2.0 }\n\
             mod inner { pub(crate) fn helper() {} }\n",
        );
        let kinds: Vec<_> = items.iter().map(|i| (i.kind, i.name.as_str())).collect();
        assert_eq!(
            kinds,
            vec![
                (ItemKind::Use, "std::fmt"),
                (ItemKind::Struct, "Zone"),
                (ItemKind::Fn, "area"),
                (ItemKind::Mod, "inner"),
            ]
        );
        assert_eq!(items[2].vis, Visibility::Pub);
        assert_eq!(items[3].children.len(), 1);
        assert_eq!(items[3].children[0].qual, "inner::helper");
        assert_eq!(items[3].children[0].vis, Visibility::Scoped);
    }

    #[test]
    fn impl_methods_get_type_qualified_paths() {
        let items = parse(
            "impl<K: Ord> DetMap<K> {\n    pub fn get(&self) -> u32 { 0 }\n}\n\
             impl fmt::Display for SimTime {\n    fn fmt(&self) {}\n}\n",
        );
        assert_eq!(items[0].kind, ItemKind::Impl);
        assert_eq!(items[0].name, "DetMap");
        assert_eq!(items[0].children[0].qual, "DetMap::get");
        assert_eq!(items[1].name, "SimTime");
        assert_eq!(items[1].children[0].qual, "SimTime::fmt");
    }

    #[test]
    fn cfg_test_marks_whole_subtree() {
        let items = parse(
            "pub fn lib_fn() {}\n\
             #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n    fn helper() {}\n}\n",
        );
        assert!(!items[0].is_test);
        assert!(items[1].is_test);
        assert!(items[1].children.iter().all(|c| c.is_test));
    }

    #[test]
    fn fn_bodies_are_token_ranges() {
        let src = "fn f() { g(1); }";
        let tokens = lex(src);
        let code = code_tokens(&tokens);
        let items = parse_items(&code);
        let (lo, hi) = items[0].body.expect("fn has a body");
        let body: Vec<&str> = code[lo..hi].iter().map(|t| t.text.as_str()).collect();
        assert_eq!(body, vec!["g", "(", "1", ")", ";"]);
    }

    #[test]
    fn const_fn_and_where_clauses() {
        let items = parse(
            "pub const fn origin() -> u64 { 0 }\n\
             pub const LIMIT: usize = 16;\n\
             pub fn generic<T>(x: T) -> T where T: Clone { x }\n\
             type Alias = u64;\n\
             static COUNT: u32 = 0;\n",
        );
        let kinds: Vec<_> = items.iter().map(|i| (i.kind, i.name.as_str())).collect();
        assert_eq!(
            kinds,
            vec![
                (ItemKind::Fn, "origin"),
                (ItemKind::Const, "LIMIT"),
                (ItemKind::Fn, "generic"),
                (ItemKind::TypeAlias, "Alias"),
                (ItemKind::Static, "COUNT"),
            ]
        );
    }

    #[test]
    fn spans_cover_every_code_token() {
        let src = "#![allow(dead_code)]\n// a comment gap\nuse std::fmt;\n\n/// doc\npub fn f() { 1 + 1; }\n#[cfg(test)]\nmod tests { fn t() {} }\n";
        let tokens = lex(src);
        let code = code_tokens(&tokens);
        let items = parse_items(&code);
        // Non-overlapping, increasing spans.
        for w in items.windows(2) {
            assert!(
                w[0].hi <= w[1].lo,
                "{:?} overlaps {:?}",
                w[0].qual,
                w[1].qual
            );
        }
        // Every code token owned by exactly one top-level item.
        for t in &code {
            let owners = items
                .iter()
                .filter(|i| i.lo <= t.lo && t.hi <= i.hi)
                .count();
            assert_eq!(
                owners, 1,
                "token {:?} at {} owned by {} items",
                t.text, t.lo, owners
            );
        }
    }
}
