//! The alloc-reachability pass: a zero-allocation ratchet for the
//! `// tao-lint: hot` entry points.
//!
//! PR 9's scratch router and PR 6's timing wheel promise *steady-state*
//! allocation-free operation, but until now the promise was enforced only
//! by benchmarks. This pass proves it statically, the same way
//! panic-reachability is ratcheted: a function definition annotated with
//! a `// tao-lint: hot` marker (trailing, or stacked on the lines above
//! the item, outer attributes and doc comments on either side of it; one
//! that binds to no fn is a `bad-pragma`) seeds a forward BFS over the
//! approximate call graph, and
//! every function in that *hot closure* is scanned for allocation sites —
//! collection growth (`.push(`, `.insert(`, `.resize(`, …), fresh
//! containers (`Vec::new`, `String::with_capacity`, `vec![…]`),
//! owning conversions (`.collect(`, `.to_vec(`, `.to_owned(`,
//! `.to_string(`, `.clone(`), `format!`, and boxing (`Box::new`,
//! `Rc::new`, `Arc::new`).
//!
//! Each finding anchors at the **allocation site** (line-free key
//! `alloc-reachability:<crate>:<file-stem>::<qual>:<kind>`), carries the
//! witness chain from the nearest hot entry to the allocating function,
//! and can be discharged three ways, strictest first: hoist the
//! allocation out of the hot closure (fix), waive it in place with
//! `// tao-lint: allow(alloc-reachability, reason = "…")` (intentional),
//! or leave it in the committed baseline (known-legal amortized growth —
//! scratch buffers on first use, the wheel's overflow spill — which only
//! ever shrinks).
//!
//! Like every `tao-lint` pass the scan is over-approximate: an unqualified
//! `.method(…)` call can pull same-name methods into the closure, and a
//! `.clone()` of a `Copy` value is flagged even though it never touches
//! the heap. False positives cost a waiver with a written reason; false
//! negatives would cost the paper's million-entry steady state.

use crate::graph::{via, CallGraph, FnNode};
use crate::items::Item;
use crate::lexer::{Token, TokenKind};
use crate::rules::{Finding, Rule};
use std::collections::BTreeMap;

/// Methods that grow a collection in place (possibly reallocating).
const GROWTH_METHODS: [&str; 15] = [
    "push",
    "push_back",
    "push_front",
    "insert",
    "resize",
    "resize_with",
    "extend",
    "extend_from_slice",
    "reserve",
    "reserve_exact",
    "append",
    "or_insert",
    "or_insert_with",
    "or_default",
    "split_off",
];

/// Container types whose constructors mark a fresh heap-backed value.
const CONTAINER_TYPES: [&str; 9] = [
    "Vec",
    "VecDeque",
    "String",
    "BinaryHeap",
    "BTreeMap",
    "BTreeSet",
    "DetMap",
    "DetSet",
    "HashMap",
];

/// Container constructor names (`Vec::new`, `String::with_capacity`, …).
const CONTAINER_CTORS: [&str; 4] = ["new", "with_capacity", "from", "from_iter"];

/// One hazard a hot-path pass found inside a function: an allocation
/// site here, an arithmetic site in [`crate::arith`].
#[derive(Debug, Clone)]
pub struct Site {
    /// Stable kind slug for the finding key.
    pub kind: &'static str,
    /// Human-readable site description (`` `.push(` `` etc.).
    pub what: String,
    /// 1-based line of the site.
    pub line: u32,
    /// 1-based column of the site.
    pub col: u32,
}

/// Scans a node's token span for allocation sites.
fn scan_alloc_sites(code: &[&Token], tok: (usize, usize)) -> Vec<Site> {
    let mut out = Vec::new();
    let (lo, hi) = (tok.0.min(code.len()), tok.1.min(code.len()));
    for i in lo..hi {
        let t = code[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let name = t.text.as_str();
        let text = |k: usize| code.get(i + k).map(|t| t.text.as_str()).unwrap_or("");
        let prev_dot = i > lo && code[i - 1].text == ".";
        let site = if prev_dot && text(1) == "(" && GROWTH_METHODS.contains(&name) {
            Some(("growth", format!("grows a collection via `.{name}(`")))
        } else if prev_dot && text(1) == "(" && name == "collect" {
            Some((
                "collect",
                "materializes an iterator via `.collect()`".to_string(),
            ))
        } else if prev_dot && text(1) == "(" && name == "to_vec" {
            Some(("to-vec", "copies a slice via `.to_vec()`".to_string()))
        } else if prev_dot && text(1) == "(" && (name == "to_owned" || name == "to_string") {
            Some(("to-owned", format!("takes ownership via `.{name}()`")))
        } else if prev_dot && text(1) == "(" && name == "clone" {
            Some(("clone", "clones an owning value via `.clone()`".to_string()))
        } else if (name == "vec" || name == "format") && text(1) == "!" {
            Some((
                if name == "vec" { "vec-macro" } else { "format" },
                format!("builds a fresh container via `{name}![…]`"),
            ))
        } else if text(1) == "::"
            && CONTAINER_TYPES.contains(&name)
            && CONTAINER_CTORS.contains(&text(2))
        {
            Some((
                "container-new",
                format!("constructs `{}::{}`", name, text(2)),
            ))
        } else if text(1) == "::"
            && text(2) == "new"
            && (name == "Box" || name == "Rc" || name == "Arc")
        {
            Some(("box", format!("heap-allocates via `{name}::new`")))
        } else {
            None
        };
        if let Some((kind, what)) = site {
            out.push(Site {
                kind,
                what,
                line: t.line,
                col: t.col,
            });
        }
    }
    out
}

/// Runs one hot-path pass. Every node in the hot closure (`hot`: the
/// [`CallGraph::bfs`] over callees from the `// tao-lint: hot` entries)
/// is scanned with `scan`; each `(function, site kind)` gets one finding,
/// anchored at the first site of that kind and carrying the chain from
/// the hot entry down to the function. `advice` ends the message.
pub fn hot_findings(
    graph: &CallGraph,
    hot: &[Option<usize>],
    rule: Rule,
    advice: &str,
    scan: impl Fn(&FnNode) -> Vec<Site>,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, node) in graph.nodes.iter().enumerate() {
        if hot[i].is_none() {
            continue;
        }
        let sites = scan(node);
        let mut per_kind: BTreeMap<&'static str, &Site> = BTreeMap::new();
        for s in &sites {
            per_kind.entry(s.kind).or_insert(s);
        }
        let (mut chain, entry) = graph.chain(hot, i);
        chain.reverse();
        for site in per_kind.values() {
            out.push(Finding {
                rule,
                path: node.path.clone(),
                line: site.line,
                col: site.col,
                key: format!("{}:{}", node.key(rule), site.kind),
                message: format!(
                    "fn `{}` {} inside the hot closure of `{}`{}; {advice}",
                    node.qual,
                    site.what,
                    graph.nodes[entry].qual,
                    via(&chain)
                ),
            });
        }
    }
    out
}

/// Runs the alloc-reachability pass over the hot closure.
pub fn alloc_findings(
    graph: &CallGraph,
    files: &[(String, String, Vec<&Token>, Vec<Item>)],
    hot: &[Option<usize>],
) -> Vec<Finding> {
    hot_findings(
        graph,
        hot,
        Rule::AllocReachability,
        "steady-state hot paths must not allocate — hoist the allocation into setup, \
         reuse a scratch buffer, or acknowledge it with `// tao-lint: \
         allow(alloc-reachability, reason = \"...\")` at the allocation site",
        |node| scan_alloc_sites(&files[node.file].2, node.tok),
    )
}
