//! The arith-safety pass: overflow/truncation discipline inside the hot
//! closure.
//!
//! The simulator keeps virtual time as `u64` microseconds. The
//! `SimTime`/`SimDuration` newtypes (crates/util/src/time.rs) make the
//! operators safe by construction — `+` saturates, `-` is
//! `checked_sub().expect(…)` as a bug detector — but the hot kernels
//! (wheel cursor math, routing index math) work on the *raw* integers
//! for speed, where a bare `+`/`-`/`*` wraps in release builds and a
//! narrowing `as`-cast silently truncates. This pass scans every
//! function in the `// tao-lint: hot` closure (see [`crate::alloc`]) for
//! three site kinds:
//!
//! * **time-arith** — a bare binary `+`/`-`/`*` (or compound `+=`-style)
//!   where an operand is time-flavored: an identifier ascribed
//!   `SimTime`/`SimDuration` in the function, a well-known raw-time name
//!   (`cursor`, `at`, `deadline`, `horizon`, …), or a value straight out
//!   of `.as_micros()`. A subtraction dominated by a comparison of the
//!   same operands (`if a < b { return; } … a - b`) is recognized as
//!   guarded, as are operands routed through `min`/`max`/`clamp` or the
//!   `saturating_`/`checked_` families.
//! * **truncating-cast** — `<expr> as u32`/`u16`/`u8`/`i32`/… where the
//!   source may be wider, unless the operand window shows a mask (`&`),
//!   modulo (`%`), `min`/`clamp`, or the function asserts a bound over
//!   the operand first.
//! * **index-arith** — arithmetic inside an index expression
//!   (`slots[level * SLOTS + slot]`) with no `%`/`min` bound in the
//!   bracket: the computed index can wrap before the bounds check fires.
//!
//! Findings anchor at the arithmetic site (line-free key
//! `arith-safety:<crate>:<file-stem>::<qual>:<kind>`) and carry the
//! witness chain from the hot entry, so the waiver pragma sits where a
//! reviewer can see both the arithmetic and the invariant that bounds
//! it. `crates/util/src/time.rs` itself is exempt: it *is* the
//! saturating implementation the rest of the workspace is steered
//! toward.

use crate::alloc::{hot_findings, Site};
use crate::graph::CallGraph;
use crate::items::Item;
use crate::lexer::{Token, TokenKind};
use crate::rules::{Finding, Rule};

/// Raw identifiers treated as time-carrying even without a type
/// ascription: the wheel/engine field names for `u64`-microsecond values.
const TIME_NAMES: [&str; 10] = [
    "cursor",
    "at",
    "deadline",
    "horizon",
    "expiry",
    "when",
    "wakeup",
    "window_end",
    "ttl",
    "as_micros",
];

/// Cast targets narrower than the workspace's `u64`/`usize` currencies.
const NARROW_INTS: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

/// Calls that bound an operand, discharging the overflow concern.
const BOUNDING_CALLS: [&str; 5] = ["min", "max", "clamp", "saturating_sub", "checked_sub"];

/// Identifiers of the operand expression ending just before `op`,
/// walking backwards over `.`/`::` chains and balanced `(…)`/`[…]`
/// groups, stopping at any other expression boundary.
fn left_idents<'a>(code: &[&'a Token], lo: usize, op: usize) -> Vec<&'a str> {
    let mut out = Vec::new();
    let mut k = op;
    let mut steps = 0;
    while k > lo && steps < 32 {
        k -= 1;
        steps += 1;
        let t = code[k];
        match t.kind {
            TokenKind::Ident => out.push(t.text.as_str()),
            TokenKind::Number => {}
            TokenKind::Punct => match t.text.as_str() {
                ")" | "]" => {
                    let (open, close) = if t.text == ")" {
                        ("(", ")")
                    } else {
                        ("[", "]")
                    };
                    let mut depth = 1;
                    while k > lo && depth > 0 {
                        k -= 1;
                        steps += 1;
                        let u = code[k];
                        if u.kind == TokenKind::Punct {
                            if u.text == close {
                                depth += 1;
                            } else if u.text == open {
                                depth -= 1;
                            }
                        } else if u.kind == TokenKind::Ident {
                            out.push(u.text.as_str());
                        }
                    }
                }
                "." | "::" => {}
                _ => break,
            },
            _ => break,
        }
    }
    out
}

/// Identifiers of the operand expression starting just after `op`
/// (skipping the `=` of a compound assignment), mirroring
/// [`left_idents`].
fn right_idents<'a>(code: &[&'a Token], hi: usize, op: usize) -> Vec<&'a str> {
    let mut out = Vec::new();
    let mut k = op + 1;
    if code.get(k).is_some_and(|t| t.text == "=") {
        k += 1;
    }
    let mut steps = 0;
    while k < hi && steps < 32 {
        let t = code[k];
        match t.kind {
            TokenKind::Ident => out.push(t.text.as_str()),
            TokenKind::Number => {}
            TokenKind::Punct => match t.text.as_str() {
                "(" | "[" => {
                    let (open, close) = if t.text == "(" {
                        ("(", ")")
                    } else {
                        ("[", "]")
                    };
                    let mut depth = 1;
                    while k + 1 < hi && depth > 0 {
                        k += 1;
                        steps += 1;
                        let u = code[k];
                        if u.kind == TokenKind::Punct {
                            if u.text == open {
                                depth += 1;
                            } else if u.text == close {
                                depth -= 1;
                            }
                        } else if u.kind == TokenKind::Ident {
                            out.push(u.text.as_str());
                        }
                    }
                }
                "." | "::" | "&" | "!" => {}
                _ => break,
            },
            _ => break,
        }
        k += 1;
        steps += 1;
    }
    out
}

/// Identifier names ascribed `: SimTime` / `: SimDuration` anywhere in
/// the node's span (params and `let` bindings alike).
fn ascribed_time_names<'a>(code: &[&'a Token], lo: usize, hi: usize) -> Vec<&'a str> {
    let mut out = Vec::new();
    for i in lo..hi {
        if code[i].kind != TokenKind::Ident {
            continue;
        }
        if !matches!(code.get(i + 1), Some(t) if t.text == ":") {
            continue;
        }
        let mut k = i + 2;
        while k < hi && matches!(code[k].text.as_str(), "&" | "mut") {
            k += 1;
        }
        if code
            .get(k)
            .is_some_and(|t| t.text == "SimTime" || t.text == "SimDuration")
        {
            out.push(code[i].text.as_str());
        }
    }
    out
}

/// `true` if the comparison-guard pattern dominates the subtraction:
/// somewhere earlier in the body both operand sets appear around a
/// `<`/`>` comparison (`if e.at < self.cursor { return; } … e.at -
/// self.cursor`).
fn comparison_guarded(
    code: &[&Token],
    body_lo: usize,
    op: usize,
    lhs: &[&str],
    rhs: &[&str],
) -> bool {
    for g in body_lo..op {
        if code[g].kind != TokenKind::Punct || !matches!(code[g].text.as_str(), "<" | ">") {
            continue;
        }
        let from = g.saturating_sub(8).max(body_lo);
        let to = (g + 9).min(op);
        let around: Vec<&str> = code[from..to]
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        let has = |side: &[&str]| side.iter().any(|s| around.contains(s));
        if has(lhs) && has(rhs) {
            return true;
        }
    }
    false
}

/// `true` if the function asserts a bound over any of `ids` before
/// token index `op`.
fn assert_guarded(code: &[&Token], body_lo: usize, op: usize, ids: &[&str]) -> bool {
    for g in body_lo..op {
        if code[g].kind == TokenKind::Ident
            && (code[g].text == "assert" || code[g].text == "debug_assert")
            && matches!(code.get(g + 1), Some(t) if t.text == "!")
        {
            let to = (g + 20).min(op);
            if code[g..to]
                .iter()
                .any(|t| t.kind == TokenKind::Ident && ids.contains(&t.text.as_str()))
            {
                return true;
            }
        }
    }
    false
}

/// Scans a node's body for the three arith-safety site kinds.
fn scan_arith_sites(code: &[&Token], tok: (usize, usize), body: (usize, usize)) -> Vec<Site> {
    let (span_lo, span_hi) = (tok.0.min(code.len()), tok.1.min(code.len()));
    let (lo, hi) = (body.0.min(code.len()), body.1.min(code.len()));
    let ascribed = ascribed_time_names(code, span_lo, span_hi);
    let is_time = |name: &str| TIME_NAMES.contains(&name) || ascribed.contains(&name);
    let mut out = Vec::new();
    for i in lo..hi {
        let t = code[i];
        if t.kind != TokenKind::Punct {
            continue;
        }
        let text = |k: usize| code.get(i + k).map(|t| t.text.as_str()).unwrap_or("");
        match t.text.as_str() {
            // ---- time-arith: bare binary +/-/* on time-flavored operands.
            "+" | "-" | "*" => {
                let prev = if i > lo { Some(code[i - 1]) } else { None };
                let binary_left = prev.is_some_and(|p| {
                    p.kind == TokenKind::Ident
                        || p.kind == TokenKind::Number
                        || (p.kind == TokenKind::Punct && matches!(p.text.as_str(), ")" | "]"))
                });
                if !binary_left {
                    continue; // unary minus, deref, reference patterns
                }
                if t.text == "-" && text(1) == ">" {
                    continue; // `->` return-type arrow
                }
                let after = if text(1) == "=" { text(2) } else { text(1) };
                let binary_right = matches!(after, "(" | "&" | "!" | "self")
                    || code
                        .get(i + if text(1) == "=" { 2 } else { 1 })
                        .is_some_and(|n| n.kind == TokenKind::Ident || n.kind == TokenKind::Number);
                if !binary_right {
                    continue;
                }
                let lhs = left_idents(code, lo, i);
                let rhs = right_idents(code, hi, i);
                if !lhs.iter().chain(rhs.iter()).any(|n| is_time(n)) {
                    continue;
                }
                let bounded = lhs.iter().chain(rhs.iter()).any(|n| {
                    BOUNDING_CALLS.contains(n)
                        || n.starts_with("saturating_")
                        || n.starts_with("checked_")
                        || n.starts_with("wrapping_")
                });
                if bounded {
                    continue;
                }
                if t.text == "-" && comparison_guarded(code, lo, i, &lhs, &rhs) {
                    continue;
                }
                let op_name = match t.text.as_str() {
                    "+" => "addition",
                    "-" => "subtraction",
                    _ => "multiplication",
                };
                out.push(Site {
                    kind: "time-arith",
                    what: format!(
                        "applies unguarded {op_name} `{}` to time-carrying value(s)",
                        t.text
                    ),
                    line: t.line,
                    col: t.col,
                });
            }
            _ => {}
        }
    }
    // ---- truncating-cast: `<expr> as u32`-narrowing without a bound.
    for i in lo..hi {
        let t = code[i];
        if t.kind != TokenKind::Ident || t.text != "as" {
            continue;
        }
        let Some(target) = code.get(i + 1) else {
            continue;
        };
        if !NARROW_INTS.contains(&target.text.as_str()) {
            continue;
        }
        let prev = if i > lo { Some(code[i - 1]) } else { None };
        // A literal cast (`7 as u32`) cannot truncate anything unknown.
        let castable = prev.is_some_and(|p| {
            p.kind == TokenKind::Ident
                || (p.kind == TokenKind::Punct && matches!(p.text.as_str(), ")" | "]"))
        });
        if !castable {
            continue;
        }
        let lhs = left_idents(code, lo, i);
        let masked = lhs.iter().any(|n| BOUNDING_CALLS.contains(n))
            || code[i.saturating_sub(10).max(lo)..i]
                .iter()
                .any(|t| t.kind == TokenKind::Punct && matches!(t.text.as_str(), "%" | "&"));
        if masked || assert_guarded(code, lo, i, &lhs) {
            continue;
        }
        out.push(Site {
            kind: "truncating-cast",
            what: format!("narrows with `as {}` and no visible bound", target.text),
            line: t.line,
            col: t.col,
        });
    }
    // ---- index-arith: +/-/* inside an index bracket with no bound.
    for i in lo..hi {
        let t = code[i];
        if t.kind != TokenKind::Punct || t.text != "[" {
            continue;
        }
        let is_index = i > lo
            && (code[i - 1].kind == TokenKind::Ident
                || (code[i - 1].kind == TokenKind::Punct
                    && matches!(code[i - 1].text.as_str(), ")" | "]" | "?")));
        if !is_index {
            continue;
        }
        let mut depth = 1;
        let mut j = i + 1;
        let mut has_arith = false;
        let mut has_bound = false;
        while j < hi && depth > 0 {
            let u = code[j];
            if u.kind == TokenKind::Punct {
                match u.text.as_str() {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    "+" | "-" | "*" if depth == 1 => {
                        let bin = code[j - 1].kind == TokenKind::Ident
                            || code[j - 1].kind == TokenKind::Number
                            || matches!(code[j - 1].text.as_str(), ")" | "]");
                        if bin {
                            has_arith = true;
                        }
                    }
                    "%" => has_bound = true,
                    _ => {}
                }
            } else if u.kind == TokenKind::Ident
                && (BOUNDING_CALLS.contains(&u.text.as_str()) || u.text.starts_with("saturating_"))
            {
                has_bound = true;
            }
            j += 1;
        }
        if has_arith && !has_bound {
            out.push(Site {
                kind: "index-arith",
                what: "computes an index with unbounded arithmetic inside `[…]`".to_string(),
                line: t.line,
                col: t.col,
            });
        }
    }
    out
}

/// Runs the arith-safety pass over the hot closure.
pub fn arith_findings(
    graph: &CallGraph,
    files: &[(String, String, Vec<&Token>, Vec<Item>)],
    hot: &[Option<usize>],
) -> Vec<Finding> {
    hot_findings(
        graph,
        hot,
        Rule::ArithSafety,
        "use saturating/checked arithmetic or a proven bound, or acknowledge \
         the invariant with `// tao-lint: allow(arith-safety, reason = \"...\")` \
         at the site",
        |node| match node.body {
            // time.rs *is* the saturating implementation; its operators
            // are the safe alternative this rule recommends.
            Some(body) if !node.path.ends_with("util/src/time.rs") => {
                scan_arith_sites(&files[node.file].2, node.tok, body)
            }
            _ => Vec::new(),
        },
    )
}
