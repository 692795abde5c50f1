//! An approximate cross-crate call graph over the recovered items.
//!
//! Nodes are non-test functions in library files; edges are name-based
//! call references recovered from the token stream: `free_fn(…)`,
//! `Type::method(…)`, and `.method(…)`. Resolution is deliberately
//! *over*-approximate — an unqualified method call links to every
//! workspace method of that name — because every consumer asks a
//! reachability question, where a false edge at worst asks for a
//! justification and a missed edge hides a panic, taint or allocation
//! path. Two filters keep the over-approximation from degenerating into
//! noise:
//!
//! - `.method(…)` calls whose name shadows a std-prelude method
//!   ([`STD_METHODS`]: `len`, `map`, `contains`, …) get no edges — on
//!   real code such calls overwhelmingly target std/`tao_util` types,
//!   and linking them to every same-name workspace method would make
//!   nearly every function "reach" every panic. Workspace methods with
//!   those names are still analyzed directly and via `Type::method(…)`
//!   qualified calls.
//! - Edges must respect the crate-layering DAG ([`crate::rules::LAYERS`]):
//!   a `tao-softstate` function cannot actually be calling into
//!   `tao-lint`, so no edge is created.
//!
//! Panic sites are `.unwrap(` / `.expect(`, the panicking macros
//! (`panic!`, `unreachable!`, `todo!`, `unimplemented!`), and
//! indexing-panic sites (`expr[…]` where the `[` follows an identifier,
//! `)`, `]`, or `?`).
//!
//! Every graph pass is one traversal: [`CallGraph::bfs`] from a seed set,
//! over callers (panic-reachability and determinism-taint: who can reach
//! a panic site / a taint source) or over callees (the hot closure of
//! alloc-reachability and arith-safety), and [`CallGraph::chain`] reads a
//! finding's witness chain off its parent pointers.

use crate::items::{Item, ItemKind, Visibility};
use crate::lexer::{Token, TokenKind};
use crate::rules::{Rule, LAYERS};

/// Method names that shadow ubiquitous std-prelude methods: unqualified
/// `.name(…)` calls with these names are not linked to workspace methods
/// (see the module docs for why).
pub const STD_METHODS: [&str; 71] = [
    "first",
    "last",
    "keys",
    "values",
    "copied",
    "cloned",
    "drain",
    "map",
    "and_then",
    "or_else",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "ok",
    "ok_or",
    "ok_or_else",
    "err",
    "filter",
    "filter_map",
    "flat_map",
    "fold",
    "for_each",
    "collect",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "len",
    "is_empty",
    "contains",
    "contains_key",
    "insert",
    "remove",
    "get",
    "get_mut",
    "push",
    "pop",
    "clear",
    "extend",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "min",
    "max",
    "min_by",
    "max_by",
    "min_by_key",
    "max_by_key",
    "sum",
    "count",
    "clone",
    "to_string",
    "to_owned",
    "as_ref",
    "as_mut",
    "as_str",
    "as_slice",
    "take",
    "replace",
    "position",
    "find",
    "any",
    "all",
    "zip",
    "rev",
    "skip",
    "chain",
    "enumerate",
    "retain",
];

/// Whether the layering DAG permits a call from `caller` into `callee`.
/// Unknown crates (synthetic fixtures) are unconstrained.
fn layering_allows(caller: &str, callee: &str) -> bool {
    if caller == callee {
        return true;
    }
    match LAYERS.iter().find(|(name, _)| *name == caller) {
        Some((_, allowed)) => allowed.contains(&callee),
        None => true,
    }
}

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallRef {
    /// `name(…)` — a free call.
    Free(String),
    /// `Qual::name(…)` — a qualified call; `0` is the last qualifier
    /// segment (`StdRng::seed_from_u64` → `("StdRng", "seed_from_u64")`).
    Qualified(String, String),
    /// `.name(…)` — a method call on an unknown receiver.
    Method(String),
}

/// What kind of panic a site is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicKind {
    /// `.unwrap(`.
    Unwrap,
    /// `.expect(`.
    Expect,
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
    Macro,
    /// `expr[…]` indexing, which panics out of bounds.
    Index,
}

impl PanicKind {
    /// Human-readable site description.
    pub fn describe(self) -> &'static str {
        match self {
            PanicKind::Unwrap => "`.unwrap()`",
            PanicKind::Expect => "`.expect(…)`",
            PanicKind::Macro => "a panicking macro",
            PanicKind::Index => "`[…]` indexing",
        }
    }
}

/// A potential panic inside a function body.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// The site's kind.
    pub kind: PanicKind,
    /// 1-based line within the containing file.
    pub line: u32,
}

/// One function node in the workspace call graph.
#[derive(Debug)]
pub struct FnNode {
    /// Crate the function lives in (`tao-overlay`).
    pub krate: String,
    /// Workspace-relative file path.
    pub path: String,
    /// Index of the owning file in the slice given to
    /// [`CallGraph::build`]; the taint and hot-path passes use it to
    /// re-scan the node's tokens.
    pub file: usize,
    /// `::`-qualified name within the file (`CanOverlay::join`).
    pub qual: String,
    /// Simple name (`join`).
    pub name: String,
    /// Enclosing impl/trait type, if the function is a method.
    pub type_name: Option<String>,
    /// Declared visibility.
    pub vis: Visibility,
    /// 1-based line of the item.
    pub line: u32,
    /// Code-token span of the whole item (signature included), indexing
    /// the owning file's code tokens.
    pub tok: (usize, usize),
    /// Code-token span of the body, if the function has one.
    pub body: Option<(usize, usize)>,
    /// Direct panic sites in the body.
    pub sites: Vec<PanicSite>,
    /// Call references out of the body.
    pub calls: Vec<CallRef>,
}

impl FnNode {
    /// The line-free finding key `<rule>:<crate>:<file-stem>::<qual>`.
    pub fn key(&self, rule: Rule) -> String {
        let stem = self
            .path
            .rsplit('/')
            .next()
            .and_then(|f| f.strip_suffix(".rs"))
            .unwrap_or("?");
        format!("{}:{}:{}::{}", rule.name(), self.krate, stem, self.qual)
    }
}

/// Which edges a [`CallGraph::bfs`] follows out of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// To the functions the node calls.
    Callees,
    /// To the functions that call the node.
    Callers,
}

/// ` via a → b → c` for a witness chain of two or more names, empty for
/// a chain of one.
pub fn via(chain: &[String]) -> String {
    if chain.len() > 1 {
        format!(" via {}", chain.join(" → "))
    } else {
        String::new()
    }
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All function nodes, in deterministic (file, line) order.
    pub nodes: Vec<FnNode>,
    edges: Vec<Vec<usize>>,
    /// `edges` reversed: per node, its callers, in ascending caller order.
    rev: Vec<Vec<usize>>,
}

impl CallGraph {
    /// Builds the graph from per-file parsed items. Each entry is
    /// `(crate, path, code_tokens, items)`; only non-test `fn` items are
    /// added as nodes.
    pub fn build(files: &[(String, String, Vec<&Token>, Vec<Item>)]) -> CallGraph {
        let mut g = CallGraph::default();
        for (fi, (krate, path, code, items)) in files.iter().enumerate() {
            for item in items {
                collect_fns(krate, path, fi, code, item, None, &mut g.nodes);
            }
        }
        g.nodes
            .sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
        g.resolve();
        g.rev = vec![Vec::new(); g.nodes.len()];
        for (i, outs) in g.edges.iter().enumerate() {
            for &j in outs {
                g.rev[j].push(i);
            }
        }
        g
    }

    /// Resolves every node's call refs into edge lists.
    fn resolve(&mut self) {
        use std::collections::BTreeMap;
        // name → node indices, split by whether the fn is a method.
        let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut frees: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut typed: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (i, n) in self.nodes.iter().enumerate() {
            match &n.type_name {
                Some(t) => {
                    methods.entry(&n.name).or_default().push(i);
                    typed
                        .entry((t.as_str(), n.name.as_str()))
                        .or_default()
                        .push(i);
                }
                None => frees.entry(&n.name).or_default().push(i),
            }
        }
        self.edges = vec![Vec::new(); self.nodes.len()];
        for i in 0..self.nodes.len() {
            let mut out: Vec<usize> = Vec::new();
            for call in &self.nodes[i].calls {
                let mut targets: Vec<usize> = Vec::new();
                match call {
                    CallRef::Free(name) => {
                        if let Some(ids) = frees.get(name.as_str()) {
                            // Prefer same-file free fns, then same-crate,
                            // then anything sharing the name.
                            let same_file: Vec<usize> = ids
                                .iter()
                                .copied()
                                .filter(|&j| self.nodes[j].path == self.nodes[i].path)
                                .collect();
                            let same_crate: Vec<usize> = ids
                                .iter()
                                .copied()
                                .filter(|&j| self.nodes[j].krate == self.nodes[i].krate)
                                .collect();
                            let chosen = if !same_file.is_empty() {
                                same_file
                            } else if !same_crate.is_empty() {
                                same_crate
                            } else {
                                ids.clone()
                            };
                            targets.extend(chosen);
                        }
                    }
                    CallRef::Qualified(q, name) => {
                        // `Self::helper(…)` names the caller's own impl
                        // type; substitute it so the call resolves like an
                        // explicit `Type::helper(…)`.
                        let q = if q == "Self" {
                            self.nodes[i].type_name.as_deref().unwrap_or(q.as_str())
                        } else {
                            q.as_str()
                        };
                        if let Some(ids) = typed.get(&(q, name.as_str())) {
                            targets.extend(ids.iter().copied());
                        }
                        // A lowercase qualifier may be a module path
                        // (`zone::split`): link matching free fns too.
                        if q.chars().next().is_some_and(|c| c.is_lowercase()) {
                            if let Some(ids) = frees.get(name.as_str()) {
                                targets.extend(ids.iter().copied());
                            }
                        }
                    }
                    CallRef::Method(name) => {
                        if !STD_METHODS.contains(&name.as_str()) {
                            if let Some(ids) = methods.get(name.as_str()) {
                                targets.extend(ids.iter().copied());
                            }
                        }
                    }
                }
                targets.retain(|&j| layering_allows(&self.nodes[i].krate, &self.nodes[j].krate));
                out.extend(targets);
            }
            out.sort_unstable();
            out.dedup();
            self.edges[i] = out;
        }
    }

    /// Breadth-first search from every node with `seed[i]` set, following
    /// `dir` edges. Returns each node's BFS parent: itself for a seed, the
    /// node it was first reached from otherwise, `None` if unreached.
    /// Each level is expanded in index order, so a parent is the
    /// least-index node one hop nearer the seeds — the witness chains are
    /// shortest and deterministic.
    pub fn bfs(&self, seed: &[bool], dir: Dir) -> Vec<Option<usize>> {
        let mut parent: Vec<Option<usize>> = seed
            .iter()
            .enumerate()
            .map(|(i, &s)| s.then_some(i))
            .collect();
        let mut level: Vec<usize> = (0..parent.len()).filter(|&i| seed[i]).collect();
        while !level.is_empty() {
            let mut next = Vec::new();
            for &p in &level {
                let adjacent = match dir {
                    Dir::Callees => &self.edges[p],
                    Dir::Callers => &self.rev[p],
                };
                for &c in adjacent {
                    if parent[c].is_none() {
                        parent[c] = Some(p);
                        next.push(c);
                    }
                }
            }
            next.sort_unstable();
            level = next;
        }
        parent
    }

    /// The witness chain from node `i` along [`CallGraph::bfs`] parents to
    /// its seed, as `qual` names (`i` first), and the seed's index.
    pub fn chain(&self, parent: &[Option<usize>], i: usize) -> (Vec<String>, usize) {
        let mut chain = vec![self.nodes[i].qual.clone()];
        let mut cur = i;
        while let Some(p) = parent[cur].filter(|&p| p != cur) {
            chain.push(self.nodes[p].qual.clone());
            cur = p;
        }
        (chain, cur)
    }
}

/// Recursively collects `fn` items into graph nodes, scanning bodies for
/// calls and panic sites.
fn collect_fns(
    krate: &str,
    path: &str,
    file: usize,
    code: &[&Token],
    item: &Item,
    enclosing_type: Option<&str>,
    out: &mut Vec<FnNode>,
) {
    if item.is_test {
        return;
    }
    match item.kind {
        ItemKind::Fn => {
            let (sites, calls) = match item.body {
                Some((lo, hi)) => scan_body(&code[lo.min(code.len())..hi.min(code.len())]),
                None => (Vec::new(), Vec::new()),
            };
            out.push(FnNode {
                krate: krate.to_string(),
                path: path.to_string(),
                file,
                qual: item.qual.clone(),
                name: item.name.clone(),
                type_name: enclosing_type.map(str::to_string),
                vis: item.vis,
                line: item.line,
                tok: item.tok,
                body: item.body,
                sites,
                calls,
            });
        }
        ItemKind::Impl | ItemKind::Trait => {
            for c in &item.children {
                collect_fns(krate, path, file, code, c, Some(&item.name), out);
            }
        }
        ItemKind::Mod => {
            for c in &item.children {
                collect_fns(krate, path, file, code, c, None, out);
            }
        }
        _ => {}
    }
}

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];
const NOT_CALLS: [&str; 12] = [
    "if", "while", "for", "match", "return", "loop", "fn", "let", "in", "as", "move", "else",
];

/// Scans a function body's code tokens for panic sites and call refs.
fn scan_body(body: &[&Token]) -> (Vec<PanicSite>, Vec<CallRef>) {
    let mut sites = Vec::new();
    let mut calls = Vec::new();
    for (i, t) in body.iter().enumerate() {
        let next = |k: usize| body.get(i + k).map(|t| t.text.as_str()).unwrap_or("");
        let prev = if i > 0 { Some(body[i - 1]) } else { None };
        match t.kind {
            TokenKind::Ident => {
                let name = t.text.as_str();
                if next(1) == "!" && PANIC_MACROS.contains(&name) {
                    sites.push(PanicSite {
                        kind: PanicKind::Macro,
                        line: t.line,
                    });
                    continue;
                }
                if next(1) != "(" || NOT_CALLS.contains(&name) {
                    continue;
                }
                // `.name(` — method call; `Qual::name(` — qualified call;
                // bare `name(` — free call.
                let prev_text = prev.map(|p| p.text.as_str());
                match prev_text {
                    Some(".") => match name {
                        "unwrap" => sites.push(PanicSite {
                            kind: PanicKind::Unwrap,
                            line: t.line,
                        }),
                        "expect" => sites.push(PanicSite {
                            kind: PanicKind::Expect,
                            line: t.line,
                        }),
                        _ => calls.push(CallRef::Method(name.to_string())),
                    },
                    Some("::") => {
                        let qual = ufcs_qual(body, i).unwrap_or_else(|| {
                            body.get(i.wrapping_sub(2))
                                .filter(|q| q.kind == TokenKind::Ident)
                                .map(|q| q.text.clone())
                                .unwrap_or_default()
                        });
                        calls.push(CallRef::Qualified(qual, name.to_string()));
                    }
                    _ => calls.push(CallRef::Free(name.to_string())),
                }
            }
            // Indexing: `[` following an ident, `)`, `]`, or `?` is an
            // index expression (an out-of-bounds panic site). `#[`
            // attributes and array literals never match.
            TokenKind::Punct
                if t.text == "["
                    && prev.is_some_and(|p| {
                        p.kind == TokenKind::Ident
                            || (p.kind == TokenKind::Punct
                                && matches!(p.text.as_str(), ")" | "]" | "?"))
                    }) =>
            {
                sites.push(PanicSite {
                    kind: PanicKind::Index,
                    line: t.line,
                });
            }
            _ => {}
        }
    }
    (sites, calls)
}

/// For a call ident at `i` whose previous token is `::`: if the
/// qualifier is a UFCS form `<Type as Trait>::name(…)` (or plain
/// `<Type>::name(…)`), back-scans the matching angle brackets and
/// returns the concrete type — the first identifier after the opening
/// `<` — so the call resolves against the impl type like a plain
/// `Type::name(…)` would.
fn ufcs_qual(body: &[&Token], i: usize) -> Option<String> {
    let close = i.checked_sub(2)?;
    if body.get(close)?.text != ">" {
        return None;
    }
    let mut depth = 0i32;
    let mut k = close;
    loop {
        match body.get(k)?.text.as_str() {
            ">" => depth += 1,
            "<" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        if k == 0 {
            return None;
        }
        k -= 1;
    }
    // First identifier after the opening `<` is the concrete type.
    body[k + 1..close]
        .iter()
        .find(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::{code_tokens, parse_items};
    use crate::lexer::lex;

    fn graph(files: &[(&str, &str, &str)]) -> CallGraph {
        let mut owned: Vec<(String, String, Vec<Token>)> = Vec::new();
        for (krate, path, src) in files {
            owned.push((krate.to_string(), path.to_string(), lex(src)));
        }
        let built: Vec<(String, String, Vec<&Token>, Vec<Item>)> = owned
            .iter()
            .map(|(krate, path, tokens)| {
                let code = code_tokens(tokens);
                let items = parse_items(&code);
                (krate.clone(), path.clone(), code, items)
            })
            .collect();
        CallGraph::build(&built)
    }

    fn node(g: &CallGraph, qual: &str) -> usize {
        g.nodes
            .iter()
            .position(|n| n.qual == qual)
            .unwrap_or_else(|| panic!("no node {qual}"))
    }

    /// Panic reachability the way `rules.rs` asks for it: seeded by the
    /// nodes that hold a panic site.
    fn reachable_panic(g: &CallGraph, i: usize) -> Option<(Vec<String>, &FnNode, &PanicSite)> {
        let seed: Vec<bool> = g.nodes.iter().map(|n| !n.sites.is_empty()).collect();
        let parent = g.bfs(&seed, Dir::Callers);
        parent[i]?;
        let (chain, end) = g.chain(&parent, i);
        Some((chain, &g.nodes[end], g.nodes[end].sites.first()?))
    }

    #[test]
    fn bfs_parents_are_least_index_and_follow_the_direction() {
        // `s1` calls `x`, `s2` calls `y`, and both `x` and `y` call `z`;
        // `y` is defined before `x`. Over callees from {s1, s2}, `x` is
        // reached first, but `z`'s parent is `y`, the lesser index of its
        // level — the rule that makes a chain the same whichever order a
        // level was discovered in.
        let g = graph(&[(
            "tao-overlay",
            "crates/overlay/src/b.rs",
            "fn s1() { x(); }\nfn s2() { y(); }\nfn y() { z(); }\nfn x() { z(); }\nfn z() {}\n",
        )]);
        let seeds = |names: &[&str]| -> Vec<bool> {
            g.nodes
                .iter()
                .map(|n| names.contains(&n.qual.as_str()))
                .collect()
        };
        let down = g.bfs(&seeds(&["s1", "s2"]), Dir::Callees);
        assert_eq!(g.chain(&down, node(&g, "z")).0, vec!["z", "y", "s2"]);
        let up = g.bfs(&seeds(&["z"]), Dir::Callers);
        assert_eq!(
            g.chain(&up, node(&g, "s1")),
            (vec!["s1".into(), "x".into(), "z".into()], node(&g, "z"))
        );
        assert!(g.bfs(&seeds(&["s1"]), Dir::Callers)[node(&g, "s2")].is_none());
    }

    #[test]
    fn direct_and_transitive_panic_reachability() {
        let g = graph(&[(
            "tao-overlay",
            "crates/overlay/src/a.rs",
            "pub fn entry() { helper(); }\n\
             fn helper() { leaf(); }\n\
             fn leaf(x: Option<u32>) { x.unwrap(); }\n\
             pub fn safe() { pure(); }\n\
             fn pure() -> u32 { 1 + 1 }\n",
        )]);
        let entry = node(&g, "entry");
        let (chain, owner, site) = reachable_panic(&g, entry).expect("entry reaches a panic");
        assert_eq!(chain, vec!["entry", "helper", "leaf"]);
        assert_eq!(owner.qual, "leaf");
        assert_eq!(site.kind, PanicKind::Unwrap);
        assert!(reachable_panic(&g, node(&g, "safe")).is_none());
    }

    #[test]
    fn method_calls_link_across_crates() {
        let g = graph(&[
            (
                "tao-softstate",
                "crates/softstate/src/m.rs",
                "pub struct Map;\nimpl Map {\n    pub fn probe(&self, i: usize) -> u32 { self.slots[i] }\n}\n",
            ),
            (
                "tao-core",
                "crates/core/src/s.rs",
                "pub fn lookup(m: &Map) -> u32 { m.probe(3) }\n",
            ),
        ]);
        let (chain, _, site) =
            reachable_panic(&g, node(&g, "lookup")).expect("lookup reaches Map::probe's indexing");
        assert_eq!(chain, vec!["lookup", "Map::probe"]);
        assert_eq!(site.kind, PanicKind::Index);
    }

    #[test]
    fn self_qualified_calls_resolve_to_the_impl_type() {
        // `Self::helper()` must link to `Map::helper` — before the fix
        // the qualifier "Self" matched no impl type and the edge (and
        // the panic path behind it) was silently dropped.
        let g = graph(&[(
            "tao-overlay",
            "crates/overlay/src/s.rs",
            "pub struct Map;\n\
             impl Map {\n\
                 pub fn entry(&self) -> u32 { Self::helper(3) }\n\
                 fn helper(i: usize) -> u32 { SLOTS[i] }\n\
             }\n",
        )]);
        let (chain, _, site) = reachable_panic(&g, node(&g, "Map::entry"))
            .expect("Self::helper edge must carry the panic path");
        assert_eq!(chain, vec!["Map::entry", "Map::helper"]);
        assert_eq!(site.kind, PanicKind::Index);
    }

    #[test]
    fn ufcs_calls_resolve_to_the_concrete_type() {
        // `<Map as Probe>::probe(…)` must link to `Map::probe` exactly
        // like `Map::probe(…)` — the back-scan over the angle brackets
        // recovers the concrete type.
        let g = graph(&[
            (
                "tao-softstate",
                "crates/softstate/src/m.rs",
                "pub struct Map;\nimpl Probe for Map {\n    fn probe(&self, i: usize) -> u32 { self.slots[i] }\n}\n",
            ),
            (
                "tao-core",
                "crates/core/src/u.rs",
                "pub fn lookup(m: &Map) -> u32 { <Map as Probe>::probe(m, 3) }\n",
            ),
        ]);
        let (chain, _, site) =
            reachable_panic(&g, node(&g, "lookup")).expect("UFCS edge must carry the panic path");
        assert_eq!(chain, vec!["lookup", "Map::probe"]);
        assert_eq!(site.kind, PanicKind::Index);
    }

    #[test]
    fn panic_macros_and_test_fns() {
        let g = graph(&[(
            "tao-sim",
            "crates/sim/src/e.rs",
            "pub fn step() { unreachable!() }\n\
             #[cfg(test)]\nmod tests {\n    fn t() { panic!() }\n}\n",
        )]);
        assert!(reachable_panic(&g, node(&g, "step")).is_some());
        assert!(!g.nodes.iter().any(|n| n.qual.contains("tests")));
    }
}
