//! The determinism-taint pass: interprocedural source→sink propagation
//! over the call graph.
//!
//! The replay-fingerprint proof strategy (DESIGN.md §7) only holds if
//! every *published* byte — serialized state, fingerprints, anything
//! written under `results/` — is a pure function of the run's inputs.
//! This pass marks functions that read nondeterministic *sources* (wall
//! clocks, the process environment, thread identity, pointer values,
//! NaN-sensitive float comparisons, std hash-collection iteration) and
//! propagates the mark along call-graph edges: a function is tainted if
//! it is a source or calls a tainted function. Any *sink* — a function
//! that computes a fingerprint/digest or writes a `results/` path — that
//! is tainted gets a finding with a
//! deterministic witness chain from the sink to the source, exactly like
//! panic-reachability.
//!
//! Findings anchor at the **sink** (line-free key
//! `determinism-taint:<crate>:<file-stem>::<qual>`), so fixing or waiving
//! a source never churns unrelated baseline keys, and the waiver pragma
//! sits where the published artifact is produced — the one place a
//! reviewer can judge whether the taint actually reaches the bytes.

use crate::graph::{via, CallGraph, Dir};
use crate::items::Item;
use crate::lexer::{Token, TokenKind};
use crate::rules::{Finding, Rule};

/// Environment accessors whose results differ between runs or hosts.
const ENV_READS: [&str; 8] = [
    "var",
    "var_os",
    "vars",
    "vars_os",
    "args",
    "args_os",
    "current_dir",
    "temp_dir",
];

/// One detected taint source inside a function.
#[derive(Debug, Clone)]
struct Source {
    /// Human-readable description (`wall-clock read \`Instant::now\``).
    what: String,
    /// 1-based line of the source token.
    line: u32,
}

/// What makes a function a published sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SinkKind {
    /// Its name contains `fingerprint` or `digest`.
    FingerprintName,
    /// It holds a string literal addressing the published artifact
    /// directory (`results/…`, or a bare `results` path component).
    ResultsWrite,
}

impl SinkKind {
    fn describe(self) -> &'static str {
        match self {
            SinkKind::FingerprintName => "computes a fingerprint/digest",
            SinkKind::ResultsWrite => "writes under `results/`",
        }
    }
}

/// Scans the node's token span (signature and body) for taint sources.
fn scan_sources(code: &[&Token], tok: (usize, usize)) -> Vec<Source> {
    let mut out = Vec::new();
    let (lo, hi) = (tok.0.min(code.len()), tok.1.min(code.len()));
    for i in lo..hi {
        let t = code[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let text = |k: usize| code.get(i + k).map(|t| t.text.as_str()).unwrap_or("");
        let prev_dot = i > lo && code[i - 1].text == ".";
        let name = t.text.as_str();
        let what =
            if (name == "Instant" || name == "SystemTime") && text(1) == "::" && text(2) == "now" {
                Some(format!("wall-clock read `{name}::now`"))
            } else if name == "env" && text(1) == "::" && ENV_READS.contains(&text(2)) {
                Some(format!("environment read `env::{}`", text(2)))
            } else if name == "available_parallelism"
                || name == "ThreadId"
                || (name == "thread" && text(1) == "::" && text(2) == "current")
            {
                Some("thread-identity/parallelism probe".to_string())
            } else if prev_dot
                && (name == "as_ptr" || name == "as_mut_ptr")
                && text(1) == "("
                && text(2) == ")"
                && text(3) == "as"
            {
                Some(format!("pointer-as-integer cast `.{name}() as …`"))
            } else if prev_dot && name == "partial_cmp" && text(1) == "(" {
                Some("NaN-sensitive float comparison `.partial_cmp(…)`".to_string())
            } else if name == "HashMap" || name == "HashSet" {
                Some(format!("std `{name}` iteration order"))
            } else {
                None
            };
        if let Some(what) = what {
            out.push(Source { what, line: t.line });
        }
    }
    out
}

/// Scans the node's token span for published-sink markers. `fn_name` is
/// the node's simple name (fingerprint/digest functions sink by name).
fn scan_sinks(code: &[&Token], tok: (usize, usize), fn_name: &str) -> Option<SinkKind> {
    if fn_name.contains("fingerprint") || fn_name.contains("digest") {
        return Some(SinkKind::FingerprintName);
    }
    let (lo, hi) = (tok.0.min(code.len()), tok.1.min(code.len()));
    for t in &code[lo..hi] {
        if t.kind == TokenKind::Str
            && (t.text.contains("results/") || t.text.trim_matches('"') == "results")
        {
            return Some(SinkKind::ResultsWrite);
        }
    }
    None
}

/// Runs the determinism-taint pass over the built call graph. `files` is
/// the same slice [`CallGraph::build`] consumed; `FnNode::file` indexes
/// into it.
pub fn taint_findings(
    graph: &CallGraph,
    files: &[(String, String, Vec<&Token>, Vec<Item>)],
) -> Vec<Finding> {
    let n = graph.nodes.len();
    let mut sources: Vec<Vec<Source>> = Vec::with_capacity(n);
    let mut sinks: Vec<Option<SinkKind>> = Vec::with_capacity(n);
    for node in &graph.nodes {
        let code = &files[node.file].2;
        sources.push(scan_sources(code, node.tok));
        sinks.push(scan_sinks(code, node.tok, &node.name));
    }
    let seed: Vec<bool> = sources.iter().map(|s| !s.is_empty()).collect();
    let parent = graph.bfs(&seed, Dir::Callers);

    let mut out = Vec::new();
    for (i, node) in graph.nodes.iter().enumerate() {
        let Some(sink) = sinks[i] else { continue };
        if parent[i].is_none() {
            continue;
        }
        let (chain, end) = graph.chain(&parent, i);
        let Some(src) = sources[end].first() else {
            continue;
        };
        out.push(Finding {
            rule: Rule::DeterminismTaint,
            path: node.path.clone(),
            line: node.line,
            col: 1,
            key: node.key(Rule::DeterminismTaint),
            message: format!(
                "fn `{}` {} but can reach {} at {}:{}{}; published bytes must \
                 be a pure function of the inputs — break the path or \
                 acknowledge it with `// tao-lint: allow(determinism-taint, \
                 reason = \"...\")` at this sink",
                node.qual,
                sink.describe(),
                src.what,
                graph.nodes[end].path,
                src.line,
                via(&chain)
            ),
        });
    }
    out
}
