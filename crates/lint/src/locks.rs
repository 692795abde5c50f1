//! The concurrency pass: a lock-acquisition graph over
//! `Mutex::lock`/`RwLock::read`/`RwLock::write`/`Condvar::wait` sites,
//! plus the poisoning-escape and shared-capture rules.
//!
//! Lock identity is `(file-stem, receiver name)` — `work` inside
//! `par.rs` is the lock `par.work` everywhere it appears — which keeps
//! keys line-free and stable across edits. Guard lifetimes are approximated from the token stream:
//!
//! * a `let`-bound guard is held to the end of its enclosing block;
//! * a guard born in an `if`/`while`/`match` condition is held through
//!   that construct's block (Rust extends such temporaries to the end of
//!   the whole statement);
//! * any other temporary is held to its statement's `;`.
//!
//! An acquisition B inside the hold range of A yields the order edge
//! `A → B`; a *call* inside a hold range pulls in every lock the callee
//! transitively acquires (computed as a fixpoint over the call graph)
//! and — because a callee that blocks on a lock while we pin one is the
//! classic re-entrancy deadlock — also fires `lock-across-call`. A cycle
//! among the order edges is a `lock-order-cycle` finding listing every
//! edge with its provenance. `lock-poison` flags `.lock().unwrap()` /
//! `.expect(…)` escapes (the sanctioned recovery is
//! `unwrap_or_else(|p| p.into_inner())`, as `par_map` does), and
//! `scope-shared-mut` flags mutations of captured non-local state inside
//! `thread::scope` / `spawn` / `par_map` closures that bypass the
//! Mutex-or-channel discipline.

use std::collections::{BTreeMap, BTreeSet};

use crate::graph::CallGraph;
use crate::items::Item;
use crate::lexer::{Token, TokenKind};
use crate::rules::{Finding, Rule};

/// Zero-argument guard constructors (`m.lock()`, `rw.read()`,
/// `rw.write()`).
const GUARD_CALLS: [&str; 3] = ["lock", "read", "write"];
/// Condvar waits (re-acquire their guard argument).
const WAIT_CALLS: [&str; 3] = ["wait", "wait_while", "wait_timeout"];
/// Receivers that are IO handles, not locks.
const DENY_RECEIVERS: [&str; 3] = ["stdout", "stderr", "stdin"];
/// Functions whose closure arguments run on other threads.
const SPAWN_CALLS: [&str; 3] = ["spawn", "scope", "par_map"];
/// Methods that mutate their receiver in place.
const MUT_METHODS: [&str; 18] = [
    "push", "push_back", "push_front", "insert", "remove", "extend", "append", "clear",
    "truncate", "pop", "drain", "retain", "sort", "sort_by", "sort_unstable", "swap",
    "split_off", "resize",
];
/// A chain step that routes the mutation through a synchronized or
/// explicitly-exclusive handle, which is exactly the discipline the rule
/// enforces.
const CHAIN_SYNC: [&str; 6] = ["lock", "write", "borrow_mut", "get_mut", "entry", "send"];

/// How a guard-producing statement binds its guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Binding {
    /// `let g = m.lock()…;` — held to the end of the enclosing block.
    Let,
    /// Born in an `if`/`while`/`match` head — held through the construct.
    Cond,
    /// Plain temporary — held to the statement's `;`.
    Temp,
}

/// One lock acquisition inside a function body.
#[derive(Debug)]
struct Acq {
    /// Stable lock identity (`par.work`).
    lock: String,
    /// 1-based line of the acquiring method token.
    line: u32,
    /// Absolute code-token index of the acquiring method token.
    pos: usize,
    /// Absolute code-token range the guard is held over.
    hold: (usize, usize),
}

/// A lock-poison escape (`.lock().unwrap()` and friends).
#[derive(Debug)]
struct PoisonSite {
    lock: String,
    /// Line of the `unwrap`/`expect` token (where the waiver goes).
    line: u32,
    col: u32,
    what: &'static str,
}

/// Brace depth per token of `code[lo..hi]`, relative to `lo`. A closing
/// brace carries the *outer* depth, so "first index with depth < d"
/// lands exactly on the brace that ends a block opened at depth `d`.
fn brace_depths(code: &[&Token], lo: usize, hi: usize) -> Vec<i32> {
    let mut out = Vec::with_capacity(hi.saturating_sub(lo));
    let mut cur = 0i32;
    for t in &code[lo..hi] {
        match t.text.as_str() {
            "{" => {
                out.push(cur);
                cur += 1;
            }
            "}" => {
                cur -= 1;
                out.push(cur);
            }
            _ => out.push(cur),
        }
    }
    out
}

/// Index just after the `)` matching the `(` at `open`.
fn match_paren(code: &[&Token], open: usize, hi: usize) -> usize {
    let mut depth = 0i32;
    let mut k = open;
    while k < hi {
        match code[k].text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return k + 1;
                }
            }
            _ => {}
        }
        k += 1;
    }
    hi
}

/// Scans one function body for lock acquisitions and poison escapes.
fn scan_acquisitions(
    code: &[&Token],
    lo: usize,
    hi: usize,
    stem: &str,
) -> (Vec<Acq>, Vec<PoisonSite>) {
    let hi = hi.min(code.len());
    let lo = lo.min(hi);
    let depths = brace_depths(code, lo, hi);
    let depth = |idx: usize| depths[idx - lo];
    let mut acqs = Vec::new();
    let mut poisons = Vec::new();
    for i in lo..hi {
        let t = code[i];
        if t.kind != TokenKind::Ident || i < lo + 2 {
            continue;
        }
        let text = |k: usize| code.get(i + k).map(|t| t.text.as_str()).unwrap_or("");
        let name = t.text.as_str();
        let is_guard = GUARD_CALLS.contains(&name) && text(1) == "(" && text(2) == ")";
        let is_wait = WAIT_CALLS.contains(&name) && text(1) == "(" && text(2) != ")";
        if (!is_guard && !is_wait) || code[i - 1].text != "." {
            continue;
        }
        let recv = code[i - 2];
        if recv.kind != TokenKind::Ident || DENY_RECEIVERS.contains(&recv.text.as_str()) {
            continue;
        }
        let lock = format!("{stem}.{}", recv.text);

        // Poison escape: `…lock().unwrap(` / `…wait(g).expect(`.
        let after_args = match_paren(code, i + 1, hi);
        if code.get(after_args).is_some_and(|t| t.text == ".") {
            if let (Some(m), Some(p)) = (code.get(after_args + 1), code.get(after_args + 2)) {
                if (m.text == "unwrap" || m.text == "expect") && p.text == "(" {
                    poisons.push(PoisonSite {
                        lock: lock.clone(),
                        line: m.line,
                        col: m.col,
                        what: if m.text == "unwrap" { "`.unwrap()`" } else { "`.expect(…)`" },
                    });
                }
            }
        }

        // Statement classification: walk back to the previous statement
        // boundary and look at the first token after it.
        let mut b = i;
        while b > lo && !matches!(code[b - 1].text.as_str(), ";" | "{" | "}") {
            b -= 1;
        }
        let binding = match code.get(b).map(|t| t.text.as_str()) {
            Some("let") => Binding::Let,
            Some("if" | "while" | "match") => Binding::Cond,
            _ => Binding::Temp,
        };

        let d = depth(i);
        let hold_end = match binding {
            Binding::Let => (i + 1..hi).find(|&j| depth(j) < d).unwrap_or(hi),
            Binding::Cond => {
                // Held through the construct's block: brace-match the
                // first `{` at or below our depth.
                match (i + 1..hi).find(|&j| code[j].text == "{" && depth(j) <= d) {
                    Some(open) => (open + 1..hi)
                        .find(|&j| depth(j) < depth(open) + 1)
                        .map(|j| j + 1)
                        .unwrap_or(hi),
                    None => (i + 1..hi)
                        .find(|&j| code[j].text == ";" && depth(j) <= d)
                        .unwrap_or(hi),
                }
            }
            Binding::Temp => (i + 1..hi)
                .find(|&j| depth(j) < d || (code[j].text == ";" && depth(j) == d))
                .unwrap_or(hi),
        };
        acqs.push(Acq { lock, line: t.line, pos: i, hold: (i, hold_end) });
    }
    (acqs, poisons)
}

/// Relaxed whole-file scan for poison-escape site lines, used by the
/// stale-waiver sweep: a `lock-poison` pragma still guards a *potential*
/// site if its effective line holds one, test regions included.
pub fn poison_site_lines(code: &[&Token]) -> Vec<u32> {
    let mut out = Vec::new();
    for i in 0..code.len() {
        let t = code[i];
        if t.kind != TokenKind::Ident || i == 0 || code[i - 1].text != "." {
            continue;
        }
        let text = |k: usize| code.get(i + k).map(|t| t.text.as_str()).unwrap_or("");
        let name = t.text.as_str();
        let is_guard = GUARD_CALLS.contains(&name) && text(1) == "(" && text(2) == ")";
        let is_wait = WAIT_CALLS.contains(&name) && text(1) == "(" && text(2) != ")";
        if !is_guard && !is_wait {
            continue;
        }
        let after_args = match_paren(code, i + 1, code.len());
        if code.get(after_args).is_some_and(|t| t.text == ".") {
            if let (Some(m), Some(p)) = (code.get(after_args + 1), code.get(after_args + 2)) {
                if (m.text == "unwrap" || m.text == "expect") && p.text == "(" {
                    out.push(m.line);
                }
            }
        }
    }
    out
}

fn file_stem(path: &str) -> &str {
    path.rsplit('/')
        .next()
        .and_then(|f| f.strip_suffix(".rs"))
        .unwrap_or("?")
}

/// Runs the concurrency pass over the built call graph.
pub fn lock_findings(
    graph: &CallGraph,
    files: &[(String, String, Vec<&Token>, Vec<Item>)],
) -> Vec<Finding> {
    let n = graph.nodes.len();
    let mut out = Vec::new();

    // Per-node acquisitions and poison escapes.
    let mut acqs: Vec<Vec<Acq>> = Vec::with_capacity(n);
    for node in &graph.nodes {
        let code = &files[node.file].2;
        let stem = file_stem(&node.path);
        match node.body {
            Some((lo, hi)) => {
                let (a, poisons) = scan_acquisitions(code, lo, hi, stem);
                for p in &poisons {
                    out.push(Finding {
                        rule: Rule::LockPoison,
                        path: node.path.clone(),
                        line: p.line,
                        col: p.col,
                        key: format!("lock-poison:{}:{}:{}", node.path, node.qual, p.lock),
                        message: format!(
                            "{} on the `{}` guard escalates poisoning into a \
                             panic; recover with `unwrap_or_else(|p| \
                             p.into_inner())`, propagate the `PoisonError`, or \
                             add `// tao-lint: allow(lock-poison, reason = \
                             \"...\")`",
                            p.what, p.lock
                        ),
                    });
                }
                acqs.push(a);
            }
            None => acqs.push(Vec::new()),
        }
    }

    // Transitive lock sets: fixpoint over call edges.
    let mut lock_sets: Vec<BTreeSet<String>> = acqs
        .iter()
        .map(|a| a.iter().map(|x| x.lock.clone()).collect())
        .collect();
    let mut changed = true;
    let mut rounds = 0;
    while changed && rounds < 64 {
        changed = false;
        rounds += 1;
        for i in 0..n {
            for &j in graph.callees(i) {
                if i == j {
                    continue;
                }
                let add: Vec<String> = lock_sets[j]
                    .iter()
                    .filter(|l| !lock_sets[i].contains(*l))
                    .cloned()
                    .collect();
                if !add.is_empty() {
                    lock_sets[i].extend(add);
                    changed = true;
                }
            }
        }
    }

    // Order edges + lock-across-call findings.
    struct Prov {
        path: String,
        qual: String,
        line: u32,
    }
    let mut edges: BTreeMap<(String, String), Prov> = BTreeMap::new();
    let mut add_edge = |from: &str, to: &str, path: &str, qual: &str, line: u32| {
        if from == to {
            return;
        }
        edges
            .entry((from.to_string(), to.to_string()))
            .or_insert_with(|| Prov { path: path.to_string(), qual: qual.to_string(), line });
    };
    for (i, node) in graph.nodes.iter().enumerate() {
        // Intra-procedural: B acquired inside A's hold range.
        for a in &acqs[i] {
            for b in &acqs[i] {
                if b.pos > a.hold.0 && b.pos < a.hold.1 && b.pos != a.pos {
                    add_edge(&a.lock, &b.lock, &node.path, &node.qual, b.line);
                }
            }
        }
        // Inter-procedural: a call inside A's hold range pulls in every
        // lock the callee transitively acquires.
        for (ci, &pos) in node.call_pos.iter().enumerate() {
            let code = &files[node.file].2;
            for a in &acqs[i] {
                if pos <= a.hold.0 || pos >= a.hold.1 {
                    continue;
                }
                for &t in &graph.call_targets(i)[ci] {
                    if t == i || lock_sets[t].is_empty() {
                        continue;
                    }
                    for l in &lock_sets[t] {
                        add_edge(&a.lock, l, &node.path, &node.qual, code[pos].line);
                    }
                    out.push(Finding {
                        rule: Rule::LockAcrossCall,
                        path: node.path.clone(),
                        line: code[pos].line,
                        col: code[pos].col,
                        key: format!(
                            "lock-across-call:{}:{}:{}->{}",
                            node.path, node.qual, a.lock, graph.nodes[t].qual
                        ),
                        message: format!(
                            "`{}` calls `{}` while holding `{}`, and the callee \
                             transitively acquires {{{}}} — a re-entrant path \
                             here deadlocks; drop the guard first or add \
                             `// tao-lint: allow(lock-across-call, reason = \
                             \"...\")`",
                            node.qual,
                            graph.nodes[t].qual,
                            a.lock,
                            lock_sets[t].iter().cloned().collect::<Vec<_>>().join(", ")
                        ),
                    });
                }
            }
        }
    }

    // Cycle detection over the lock-order graph (Kosaraju SCCs).
    let ids: Vec<&String> = {
        let mut s: BTreeSet<&String> = BTreeSet::new();
        for (from, to) in edges.keys() {
            s.insert(from);
            s.insert(to);
        }
        s.into_iter().collect()
    };
    let idx_of = |l: &String| ids.binary_search(&l).ok();
    let m = ids.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); m];
    let mut radj: Vec<Vec<usize>> = vec![Vec::new(); m];
    for (from, to) in edges.keys() {
        if let (Some(f), Some(t)) = (idx_of(from), idx_of(to)) {
            adj[f].push(t);
            radj[t].push(f);
        }
    }
    // Iterative post-order.
    let mut order: Vec<usize> = Vec::with_capacity(m);
    let mut seen = vec![false; m];
    for s in 0..m {
        if seen[s] {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(s, 0)];
        seen[s] = true;
        while let Some(&mut (v, ref mut ci)) = stack.last_mut() {
            if *ci < adj[v].len() {
                let w = adj[v][*ci];
                *ci += 1;
                if !seen[w] {
                    seen[w] = true;
                    stack.push((w, 0));
                }
            } else {
                order.push(v);
                stack.pop();
            }
        }
    }
    // Reverse pass assigns components.
    let mut comp = vec![usize::MAX; m];
    let mut ncomp = 0;
    for &s in order.iter().rev() {
        if comp[s] != usize::MAX {
            continue;
        }
        let mut stack = vec![s];
        comp[s] = ncomp;
        while let Some(v) = stack.pop() {
            for &w in &radj[v] {
                if comp[w] == usize::MAX {
                    comp[w] = ncomp;
                    stack.push(w);
                }
            }
        }
        ncomp += 1;
    }
    for c in 0..ncomp {
        let members: Vec<usize> = (0..m).filter(|&v| comp[v] == c).collect();
        if members.len() < 2 {
            continue;
        }
        let names: Vec<String> = members.iter().map(|&v| ids[v].clone()).collect();
        let cycle_edges: Vec<(&(String, String), &Prov)> = edges
            .iter()
            .filter(|((f, t), _)| names.contains(f) && names.contains(t))
            .collect();
        let anchor = cycle_edges
            .iter()
            .map(|(_, p)| p)
            .min_by_key(|p| (p.path.clone(), p.line))
            .map(|p| (p.path.clone(), p.line));
        let Some((path, line)) = anchor else { continue };
        let detail = cycle_edges
            .iter()
            .map(|((f, t), p)| format!("{} → {} ({}:{} in `{}`)", f, t, p.path, p.line, p.qual))
            .collect::<Vec<_>>()
            .join(", ");
        out.push(Finding {
            rule: Rule::LockOrderCycle,
            path: path.clone(),
            line,
            col: 1,
            key: format!("lock-order-cycle:{}", names.join("+")),
            message: format!(
                "lock-order cycle among {{{}}}: {}; two threads taking these \
                 in opposite orders deadlock — pick one global order or add \
                 `// tao-lint: allow(lock-order-cycle, reason = \"...\")` at \
                 this acquisition",
                names.join(", "),
                detail
            ),
        });
    }

    // Shared-mutable captures in thread closures.
    for (i, node) in graph.nodes.iter().enumerate() {
        let _ = i;
        let Some((lo, hi)) = node.body else { continue };
        let code = &files[node.file].2;
        scope_shared_mut(code, lo, hi.min(code.len()), node, &mut out);
    }

    out
}

/// Walks a mutation chain (`a.b[i].push`) backwards from `end` (the
/// token before the final `.` or `=`): returns the chain's root
/// identifier index and every identifier seen along the chain.
fn chain_root(code: &[&Token], lo: usize, end: usize) -> Option<(usize, Vec<String>)> {
    let mut names = Vec::new();
    let mut k = end;
    loop {
        let t = code.get(k)?;
        match t.text.as_str() {
            "]" => {
                // Match back to the opening `[`.
                let mut depth = 0i32;
                loop {
                    match code.get(k)?.text.as_str() {
                        "]" => depth += 1,
                        "[" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if k == lo {
                        return None;
                    }
                    k -= 1;
                }
                if k == lo {
                    return None;
                }
                k -= 1;
            }
            ")" => {
                // A call step (`.lock()`): match back to `(`, then the
                // method name is just before it.
                let mut depth = 0i32;
                loop {
                    match code.get(k)?.text.as_str() {
                        ")" => depth += 1,
                        "(" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if k == lo {
                        return None;
                    }
                    k -= 1;
                }
                if k == lo {
                    return None;
                }
                k -= 1;
            }
            _ if t.kind == TokenKind::Ident => {
                names.push(t.text.clone());
                if k > lo && code[k - 1].text == "." {
                    if k < lo + 2 {
                        return None;
                    }
                    k -= 2;
                } else {
                    return Some((k, names));
                }
            }
            _ => return None,
        }
    }
}

/// Scans one function body for `spawn`/`scope`/`par_map` closures and
/// flags mutations of captured non-local state inside them.
fn scope_shared_mut(
    code: &[&Token],
    lo: usize,
    hi: usize,
    node: &crate::graph::FnNode,
    out: &mut Vec<Finding>,
) {
    let mut flagged: BTreeSet<usize> = BTreeSet::new();
    for i in lo..hi {
        let t = code[i];
        if t.kind != TokenKind::Ident
            || !SPAWN_CALLS.contains(&t.text.as_str())
            || code.get(i + 1).map(|t| t.text.as_str()) != Some("(")
        {
            continue;
        }
        let args_end = match_paren(code, i + 1, hi).saturating_sub(1);
        // Find closure literals among the arguments.
        let mut j = i + 2;
        while j < args_end {
            let is_pipe = code[j].text == "|";
            let starts_closure = is_pipe
                && j > 0
                && matches!(code[j - 1].text.as_str(), "(" | "," | "move");
            if !starts_closure {
                j += 1;
                continue;
            }
            // Params up to the closing `|`.
            let mut locals: BTreeSet<String> = BTreeSet::new();
            let mut k = j + 1;
            while k < args_end && code[k].text != "|" {
                if code[k].kind == TokenKind::Ident && code[k].text != "mut" {
                    locals.insert(code[k].text.clone());
                }
                k += 1;
            }
            let body_start = k + 1;
            // Body: a braced block, or the expression up to the argument
            // separator at delimiter depth 0.
            let body_end = if code.get(body_start).is_some_and(|t| t.text == "{") {
                let mut depth = 0i32;
                let mut e = body_start;
                while e < args_end {
                    match code[e].text.as_str() {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                e += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    e += 1;
                }
                e
            } else {
                let mut depth = 0i32;
                let mut e = body_start;
                while e < args_end {
                    match code[e].text.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        "," if depth == 0 => break,
                        _ => {}
                    }
                    e += 1;
                }
                e
            };

            // Locals: `let` bindings, `for` patterns, nested closure
            // params — over-collecting only suppresses findings.
            let mut k = body_start;
            while k < body_end {
                match code[k].text.as_str() {
                    "let" | "for" => {
                        let stop = if code[k].text == "for" { "in" } else { "=" };
                        let mut p = k + 1;
                        while p < body_end
                            && code[p].text != stop
                            && code[p].text != ";"
                            && code[p].text != "{"
                        {
                            if code[p].kind == TokenKind::Ident
                                && !matches!(code[p].text.as_str(), "mut" | "ref")
                                && code.get(p.wrapping_sub(1)).map(|t| t.text.as_str())
                                    != Some(":")
                            {
                                locals.insert(code[p].text.clone());
                            }
                            p += 1;
                        }
                        k = p;
                    }
                    "|" if matches!(
                        code.get(k.wrapping_sub(1)).map(|t| t.text.as_str()),
                        Some("(" | "," | "move")
                    ) =>
                    {
                        let mut p = k + 1;
                        while p < body_end && code[p].text != "|" {
                            if code[p].kind == TokenKind::Ident && code[p].text != "mut" {
                                locals.insert(code[p].text.clone());
                            }
                            p += 1;
                        }
                        k = p + 1;
                    }
                    _ => k += 1,
                }
            }

            // Flag assignments and mutating method calls on non-locals.
            for k in body_start..body_end {
                let tk = code[k];
                if tk.text == "="
                    && code.get(k + 1).is_some_and(|t| t.text != "=" && t.text != ">")
                    && k > body_start
                {
                    let prev = code[k - 1].text.as_str();
                    if matches!(prev, "=" | "<" | ">" | "!") {
                        continue;
                    }
                    let lv_end = if matches!(prev, "+" | "-" | "*" | "/" | "%" | "^" | "&" | "|")
                    {
                        k - 2
                    } else {
                        k - 1
                    };
                    let Some((root, chain)) = chain_root(code, body_start, lv_end) else {
                        continue;
                    };
                    // `*guard.lock()… = v` routes through the lock: fine.
                    if chain.iter().any(|c| CHAIN_SYNC.contains(&c.as_str())) {
                        continue;
                    }
                    // A `let` binding is not an assignment.
                    if root > lo
                        && matches!(code[root - 1].text.as_str(), "let" | "mut" | "ref")
                    {
                        continue;
                    }
                    let name = &code[root].text;
                    if locals.contains(name) || name == "_" {
                        continue;
                    }
                    if flagged.insert(k) {
                        out.push(shared_mut_finding(node, code[root].line, code[root].col, name));
                    }
                }
                if tk.kind == TokenKind::Ident
                    && MUT_METHODS.contains(&tk.text.as_str())
                    && k > body_start + 1
                    && code[k - 1].text == "."
                    && code.get(k + 1).is_some_and(|t| t.text == "(")
                {
                    let Some((root, chain)) = chain_root(code, body_start, k - 2) else {
                        continue;
                    };
                    if chain.iter().any(|c| CHAIN_SYNC.contains(&c.as_str())) {
                        continue;
                    }
                    let name = &code[root].text;
                    if locals.contains(name) {
                        continue;
                    }
                    if flagged.insert(k) {
                        out.push(shared_mut_finding(node, tk.line, tk.col, name));
                    }
                }
            }
            j = body_end.max(j + 1);
        }
    }
}

fn shared_mut_finding(node: &crate::graph::FnNode, line: u32, col: u32, name: &str) -> Finding {
    Finding {
        rule: Rule::ScopeSharedMut,
        path: node.path.clone(),
        line,
        col,
        key: format!("scope-shared-mut:{}:{}:{}", node.path, node.qual, name),
        message: format!(
            "`{name}` is captured by a thread closure and mutated without a \
             `Mutex`/channel step; racing writes are nondeterministic — route \
             the mutation through a lock or per-task results, or add \
             `// tao-lint: allow(scope-shared-mut, reason = \"...\")`"
        ),
    }
}
