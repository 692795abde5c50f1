//! The lint rules, pragma handling, and the workspace driver.
//!
//! Every rule reads the token stream of [`crate::lexer`], so string
//! literals, char literals, and comments can never trigger a finding.
//! [`Rule::SeedDiscipline`] scans each file; [`Rule::PanicReachability`],
//! the *taint* rule ([`Rule::DeterminismTaint`], [`crate::taint`]) and the
//! *hot-path* rules ([`Rule::AllocReachability`], [`Rule::ArithSafety`])
//! walk the approximate call graph of [`crate::graph`] with the one
//! [`CallGraph::bfs`], so they run only through [`lint_workspace`].
//! [`Rule::CrateLayering`] reads the member manifests instead
//! ([`layering_findings`]).
//!
//! A finding can be waived in place with a pragma comment that names the
//! rule and *must* give a justification:
//!
//! ```text
//! // tao-lint: allow(panic-reachability, reason = "ids are members by construction")
//! pub fn route(&self, id: NodeId) -> Route {
//! ```
//!
//! A pragma on its own line waives the line below it; a trailing pragma
//! waives its own line. A pragma without a non-empty `reason` string is
//! itself a finding (`bad-pragma`) and waives nothing. A valid pragma
//! that waives no finding is *also* a finding (`unused-waiver`): stale
//! waivers are removed, not accumulated.

use crate::graph::{via, CallGraph, Dir};
use crate::items::{code_tokens, parse_items, Item, ItemKind, Visibility};
use crate::lexer::{lex, Token, TokenKind};
use crate::walk::{toml_dependencies, toml_package_name};

/// The rules `tao-lint` enforces. See `DESIGN.md` §8 for the rationale
/// behind each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// A malformed waiver pragma (unknown rule or missing reason).
    BadPragma,
    /// A panic site (`unwrap`/`expect`/panicking macro/indexing)
    /// transitively reachable from a `pub` non-test function in the
    /// simulation-facing crates must be acknowledged with a pragma at the
    /// public entry point, not just at the leaf.
    PanicReachability,
    /// A dependency in a member manifest that violates the layering DAG
    /// (see [`LAYERS`]).
    CrateLayering,
    /// Every RNG construction must flow from a literal or derived seed:
    /// no wall-clock, entropy, pointer, or hasher sources.
    SeedDiscipline,
    /// A valid waiver pragma whose rule has no potential site in its
    /// scope: the code it excused no longer exists.
    UnusedWaiver,
    /// A published sink (fingerprint/digest, `results/` writer)
    /// transitively reachable from a nondeterminism
    /// source (wall clock, `std::env`, thread identity, pointer cast,
    /// `partial_cmp`, std hash iteration). See [`crate::taint`].
    DeterminismTaint,
    /// An allocation site (collection growth, `collect`, `clone`,
    /// `String`/`format!`, `Box`) transitively reachable from a
    /// `// tao-lint: hot` entry point. Hot paths must be allocation-free
    /// in the steady state. See [`crate::alloc`].
    AllocReachability,
    /// Unguarded `+`/`-`/`*` on time-carrying values, a truncating
    /// `as`-cast, or indexing arithmetic, inside the hot closure. See
    /// [`crate::arith`].
    ArithSafety,
}

/// Every enforced rule, in reporting order.
pub const ALL_RULES: [Rule; 8] = [
    Rule::BadPragma,
    Rule::PanicReachability,
    Rule::CrateLayering,
    Rule::SeedDiscipline,
    Rule::UnusedWaiver,
    Rule::DeterminismTaint,
    Rule::AllocReachability,
    Rule::ArithSafety,
];

/// The crate-layering DAG: each crate with the set of workspace crates it
/// may depend on (directly or through re-exports). Self-references are
/// always allowed. The layer picture (DESIGN.md §8):
///
/// ```text
/// util → {topology, landmark} → {proximity, softstate, overlay} → {core, sim} → bench
/// ```
///
/// with the two intra-layer edges `landmark → topology` and
/// `{proximity, softstate} → overlay`. `tao-sim` sits beside `tao-core`:
/// nothing below the engine may depend on it — latencies and TTLs travel
/// as `tao_util::time` newtypes instead.
pub const LAYERS: &[(&str, &[&str])] = &[
    ("tao-util", &[]),
    ("tao-sim", &["tao-util"]),
    ("tao-topology", &["tao-util"]),
    ("tao-landmark", &["tao-util", "tao-topology"]),
    ("tao-overlay", &["tao-util", "tao-topology", "tao-landmark"]),
    (
        "tao-proximity",
        &["tao-util", "tao-topology", "tao-landmark", "tao-overlay"],
    ),
    (
        "tao-softstate",
        &["tao-util", "tao-topology", "tao-landmark", "tao-overlay"],
    ),
    (
        "tao-core",
        &[
            "tao-util",
            "tao-sim",
            "tao-topology",
            "tao-landmark",
            "tao-overlay",
            "tao-proximity",
            "tao-softstate",
        ],
    ),
    (
        "tao-bench",
        &[
            "tao-util",
            "tao-sim",
            "tao-topology",
            "tao-landmark",
            "tao-overlay",
            "tao-proximity",
            "tao-softstate",
            "tao-core",
        ],
    ),
    ("tao-lint", &["tao-util"]),
];

/// `crate-layering`: every workspace crate that the member manifest at
/// `path` names under `[dependencies]` or `[dev-dependencies]` (the
/// `[dev-dependencies.<crate>]` table form included) must be one
/// [`LAYERS`] lets the member see. No source scan is needed: rustc
/// rejects a `use tao_x` whose crate the manifest does not declare.
pub fn layering_findings(path: &str, manifest: &str) -> Vec<Finding> {
    let Some(krate) = toml_package_name(manifest) else {
        return Vec::new();
    };
    let Some((_, allowed)) = LAYERS.iter().find(|(name, _)| *name == krate) else {
        return Vec::new(); // unknown crate: nothing to enforce
    };
    toml_dependencies(manifest)
        .into_iter()
        .filter(|(dep, _)| {
            *dep != krate
                && LAYERS.iter().any(|(name, _)| name == dep)
                && !allowed.contains(&dep.as_str())
        })
        .map(|(dep, line)| Finding {
            rule: Rule::CrateLayering,
            path: path.to_string(),
            line,
            col: 1,
            key: format!("crate-layering:{path}:{krate}->{dep}"),
            message: format!(
                "`{krate}` must not depend on `{dep}`: the layering DAG allows \
                 {krate} → {{{}}} only (see DESIGN.md §8)",
                allowed.join(", ")
            ),
        })
        .collect()
}

/// Crates whose `pub` functions are panic-reachability entry points.
pub const PANIC_ENTRY_CRATES: [&str; 4] = ["tao-overlay", "tao-softstate", "tao-sim", "tao-core"];

/// Method/function names a seed expression may call; anything else inside
/// a `seed_from_u64(…)` argument is a `seed-discipline` finding. Names
/// containing `seed` are always allowed (seed-derivation helpers).
const SEED_ALLOWED_CALLS: [&str; 18] = [
    "from",
    "into",
    "min",
    "max",
    "pow",
    "abs",
    "wrapping_add",
    "wrapping_sub",
    "wrapping_mul",
    "wrapping_pow",
    "saturating_add",
    "saturating_mul",
    "rotate_left",
    "rotate_right",
    "swap_bytes",
    "count_ones",
    "to_le",
    "to_be",
];

/// Identifiers that mark a seed expression as flowing from a
/// non-constant, non-parameter source.
const SEED_DENIED_IDENTS: [&str; 12] = [
    "now",
    "elapsed",
    "entropy",
    "thread_rng",
    "random",
    "as_ptr",
    "as_mut_ptr",
    "hash",
    "finish",
    "timestamp",
    "Instant",
    "SystemTime",
];

impl Rule {
    /// The rule's name as used in pragmas and reports.
    pub fn name(self) -> &'static str {
        match self {
            Rule::BadPragma => "bad-pragma",
            Rule::PanicReachability => "panic-reachability",
            Rule::CrateLayering => "crate-layering",
            Rule::SeedDiscipline => "seed-discipline",
            Rule::UnusedWaiver => "unused-waiver",
            Rule::DeterminismTaint => "determinism-taint",
            Rule::AllocReachability => "alloc-reachability",
            Rule::ArithSafety => "arith-safety",
        }
    }

    /// Parses a rule name from a pragma.
    pub fn from_name(name: &str) -> Option<Rule> {
        ALL_RULES.into_iter().find(|r| r.name() == name)
    }

    /// Whether a pragma can waive this rule. `bad-pragma` and
    /// `unused-waiver` are meta-rules about the pragmas themselves and
    /// cannot be waived away.
    pub fn waivable(self) -> bool {
        !matches!(self, Rule::BadPragma | Rule::UnusedWaiver)
    }
}

/// How a file participates in linting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code under `crates/*/src` (not `bin/`, not `main.rs`):
    /// all rules apply.
    Lib,
    /// A binary (`src/bin/`, `src/main.rs`) or example: outside the call
    /// graph, since no `pub` item can call it.
    Bin,
    /// An integration test: only compiled into test runners, so no rule
    /// applies; its pragmas are still checked.
    TestHarness,
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The violated rule.
    pub rule: Rule,
    /// Workspace-relative path of the file.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Stable baseline key: line-number-free for structural rules so the
    /// committed baseline does not churn when unrelated edits shift code.
    pub key: String,
    /// Human-readable description of the violation.
    pub message: String,
}

impl Finding {
    /// The report order: path, line, col, rule.
    pub fn order(&self) -> (&str, u32, u32, &'static str) {
        (&self.path, self.line, self.col, self.rule.name())
    }

    /// `path:line:col: rule: message`, the report and golden-file format.
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}: {}: {}",
            self.path,
            self.line,
            self.col,
            self.rule.name(),
            self.message
        )
    }
}

/// One source file handed to [`lint_workspace`].
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path (used in reports and keys).
    pub path: String,
    /// Package name of the owning crate (`tao-overlay`).
    pub krate: String,
    /// How the file participates in linting.
    pub kind: FileKind,
    /// The file's source text.
    pub source: String,
}

/// The outcome of linting the whole workspace.
#[derive(Debug, Default)]
pub struct WorkspaceReport {
    /// Violations that were not waived, sorted by (path, line, col).
    pub findings: Vec<Finding>,
    /// `(rule, path, line)` of findings waived by a valid pragma.
    pub waived: Vec<(Rule, String, u32)>,
    /// Number of files analyzed.
    pub files: usize,
}

/// A parsed waiver pragma.
#[derive(Debug)]
struct Pragma {
    rule: Rule,
    /// The line whose findings this pragma waives.
    effective_line: u32,
    /// 1-based position of the pragma comment itself.
    line: u32,
    col: u32,
}

/// Lints a set of files as one workspace: `seed-discipline` per file,
/// then the call-graph rules, then waiver application and the
/// stale-pragma sweep.
pub fn lint_workspace(files: &[SourceFile]) -> WorkspaceReport {
    // Lex and parse every file once.
    struct Parsed<'a> {
        file: &'a SourceFile,
        tokens: Vec<Token>,
    }
    let parsed: Vec<Parsed> = files
        .iter()
        .map(|file| Parsed {
            file,
            tokens: lex(&file.source),
        })
        .collect();

    struct Analyzed<'a> {
        file: &'a SourceFile,
        code: Vec<&'a Token>,
        test_ranges: Vec<(u32, u32)>,
        items: Vec<Item>,
        pragmas: Vec<Pragma>,
        hot: Vec<u32>,
        bad: Vec<Finding>,
    }
    let analyzed: Vec<Analyzed> = parsed
        .iter()
        .map(|p| {
            let code = code_tokens(&p.tokens);
            let test_ranges = test_line_ranges(&code);
            let items = parse_items(&code);
            let (pragmas, hot, bad) = collect_pragmas(&p.file.path, &p.tokens, &code, &items);
            Analyzed {
                file: p.file,
                code,
                test_ranges,
                items,
                pragmas,
                hot,
                bad,
            }
        })
        .collect();

    // Raw (pre-waiver) findings: the per-file rule first.
    let mut raw: Vec<Finding> = Vec::new();
    for a in &analyzed {
        raw.extend(seed_findings(a.file, &a.code, &a.test_ranges, &a.items));
    }

    // The call graph sees library code only: binaries and test harnesses
    // can neither be called from a `pub` item nor be one.
    let graph_input: Vec<(String, String, Vec<&Token>, Vec<Item>)> = analyzed
        .iter()
        .filter(|a| a.file.kind == FileKind::Lib)
        .map(|a| {
            (
                a.file.krate.clone(),
                a.file.path.clone(),
                a.code.clone(),
                a.items.clone(),
            )
        })
        .collect();
    // Hot-marked lines per graph-input file, aligned with `graph_input`:
    // a marker makes the fn defined on its line a hot entry, and the hot
    // closure is everything those entries reach.
    let hot_lines: Vec<&Vec<u32>> = analyzed
        .iter()
        .filter(|a| a.file.kind == FileKind::Lib)
        .map(|a| &a.hot)
        .collect();
    let graph = CallGraph::build(&graph_input);
    let hot_entries: Vec<bool> = graph
        .nodes
        .iter()
        .map(|n| hot_lines[n.file].contains(&n.line))
        .collect();
    let hot = graph.bfs(&hot_entries, Dir::Callees);
    raw.extend(panic_reachability_findings(&graph));
    raw.extend(crate::taint::taint_findings(&graph, &graph_input));
    raw.extend(crate::alloc::alloc_findings(&graph, &graph_input, &hot));
    raw.extend(crate::arith::arith_findings(&graph, &graph_input, &hot));

    // Waiver application.
    let mut report = WorkspaceReport {
        files: files.len(),
        ..Default::default()
    };
    let mut used_pragmas: Vec<(usize, usize)> = Vec::new(); // (file idx, pragma idx)
    for f in raw {
        let file_idx = analyzed.iter().position(|a| a.file.path == f.path);
        let waiver = file_idx.and_then(|fi| {
            analyzed[fi]
                .pragmas
                .iter()
                .position(|p| p.rule == f.rule && f.rule.waivable() && p.effective_line == f.line)
                .map(|pi| (fi, pi))
        });
        match waiver {
            Some((fi, pi)) => {
                used_pragmas.push((fi, pi));
                report.waived.push((f.rule, f.path.clone(), f.line));
            }
            None => report.findings.push(f),
        }
    }

    // Stale-pragma sweep: every rule anchors its findings at positions of
    // its own choosing, so a valid pragma no finding consumed above
    // guards nothing — the code it excused is gone and it must go too.
    for (fi, a) in analyzed.iter().enumerate() {
        for (pi, p) in a.pragmas.iter().enumerate() {
            if !used_pragmas.contains(&(fi, pi)) {
                report.findings.push(Finding {
                    rule: Rule::UnusedWaiver,
                    path: a.file.path.clone(),
                    line: p.line,
                    col: p.col,
                    key: format!("unused-waiver:{}:{}", a.file.path, p.rule.name()),
                    message: format!(
                        "`allow({})` pragma waives nothing here — the code it \
                         excused no longer exists; remove the pragma",
                        p.rule.name()
                    ),
                });
            }
        }
        report.findings.extend(a.bad.iter().cloned());
    }

    report.findings.sort_by(|a, b| a.order().cmp(&b.order()));
    report
}

/// `seed-discipline`: every `seed_from_u64(…)` argument must be built
/// from literals, parameters, and seed-derivation arithmetic only.
///
/// An argument expression *anchored on a seed* — any identifier containing
/// `seed`, such as `self.master_seed ^ index` or `derive_seed(a, b)` — may
/// additionally mix in benign helper calls (`domain.len()`, casts, …):
/// per-item seeds derived from `(master seed, index)` are exactly this
/// shape, and they replay bit-identically by construction. Denied
/// identifiers (wall clocks, entropy, pointers) are flagged even when a
/// seed anchor is present.
fn seed_findings(
    file: &SourceFile,
    code: &[&Token],
    test_ranges: &[(u32, u32)],
    items: &[Item],
) -> Vec<Finding> {
    if file.kind == FileKind::TestHarness {
        return Vec::new();
    }
    let in_test = |line: u32| test_ranges.iter().any(|&(lo, hi)| lo <= line && line <= hi);
    let mut out = Vec::new();
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokenKind::Ident || t.text != "seed_from_u64" {
            continue;
        }
        if !matches!(code.get(i + 1), Some(p) if p.text == "(") {
            continue;
        }
        if in_test(t.line) {
            continue;
        }
        // First pass over the balanced parens: is the argument anchored
        // on a seed-named identifier anywhere?
        let mut depth = 0i32;
        let mut k = i + 1;
        let mut seed_anchored = false;
        while k < code.len() {
            match code[k].text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            if k > i + 1 && code[k].kind == TokenKind::Ident && code[k].text.contains("seed") {
                seed_anchored = true;
            }
            k += 1;
        }
        // Walk the argument tokens inside the balanced parens.
        let mut depth = 0i32;
        let mut k = i + 1;
        let mut culprit: Option<String> = None;
        while k < code.len() {
            let text = code[k].text.as_str();
            match text {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            if k > i + 1 && code[k].kind == TokenKind::Ident {
                let is_call = matches!(code.get(k + 1), Some(p) if p.text == "(");
                if SEED_DENIED_IDENTS.contains(&text) {
                    culprit = Some(format!("`{text}`"));
                    break;
                }
                if is_call
                    && !seed_anchored
                    && !text.contains("seed")
                    && !SEED_ALLOWED_CALLS.contains(&text)
                    && !text.chars().next().is_some_and(|c| c.is_ascii_digit())
                    && !matches!(text, "u8" | "u16" | "u32" | "u64" | "u128" | "usize")
                {
                    culprit = Some(format!("call to `{text}(…)`"));
                    break;
                }
            }
            k += 1;
        }
        if let Some(culprit) = culprit {
            let qual = enclosing_fn(items, code[i].lo).unwrap_or_else(|| format!("L{}", t.line));
            out.push(Finding {
                rule: Rule::SeedDiscipline,
                path: file.path.clone(),
                line: t.line,
                col: t.col,
                key: format!("seed-discipline:{}:{}", file.path, qual),
                message: format!(
                    "RNG seed flows from {culprit}, not a literal or derived \
                     seed; derive seeds from a master seed so runs replay \
                     bit-identically"
                ),
            });
        }
    }
    out
}

/// The qualified name of the innermost `fn` item containing byte `lo`.
fn enclosing_fn(items: &[Item], lo: usize) -> Option<String> {
    let mut best: Option<&Item> = None;
    for item in items {
        item.visit(&mut |i| {
            if i.kind == ItemKind::Fn && i.lo <= lo && lo < i.hi {
                let better = match best {
                    Some(b) => i.hi - i.lo <= b.hi - b.lo,
                    None => true,
                };
                if better {
                    best = Some(i);
                }
            }
        });
    }
    best.map(|i| i.qual.clone())
}

/// `panic-reachability`: a `pub` non-test function in the simulation
/// crates that can transitively reach a panic site must carry a pragma at
/// its own definition line.
fn panic_reachability_findings(graph: &CallGraph) -> Vec<Finding> {
    let seed: Vec<bool> = graph.nodes.iter().map(|n| !n.sites.is_empty()).collect();
    let parent = graph.bfs(&seed, Dir::Callers);
    let mut out = Vec::new();
    for (i, node) in graph.nodes.iter().enumerate() {
        if node.vis != Visibility::Pub
            || !PANIC_ENTRY_CRATES.contains(&node.krate.as_str())
            || parent[i].is_none()
        {
            continue;
        }
        let (chain, end) = graph.chain(&parent, i);
        let owner = &graph.nodes[end];
        let Some(site) = owner.sites.first() else {
            continue;
        };
        out.push(Finding {
            rule: Rule::PanicReachability,
            path: node.path.clone(),
            line: node.line,
            col: 1,
            key: node.key(Rule::PanicReachability),
            message: format!(
                "pub fn `{}` can reach {} at {}:{}{}; acknowledge the panic \
                 path with `// tao-lint: allow(panic-reachability, reason = \
                 \"...\")` at this entry point",
                node.qual,
                site.kind.describe(),
                owner.path,
                site.line,
                via(&chain)
            ),
        });
    }
    out
}

/// Line ranges covered by `#[cfg(test)]` / `#[test]` items.
///
/// An attribute whose tokens are `cfg ( … test … )` (with no `not`) or
/// exactly `test` marks the item that follows. The item's extent runs to
/// the `;` of a braceless item or through the brace-matched `{ … }` body.
fn test_line_ranges(code: &[&Token]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if code[i].text == "#" && code.get(i + 1).is_some_and(|t| t.text == "[") {
            // Collect the attribute's tokens up to the matching `]`.
            let mut j = i + 2;
            let mut depth = 1;
            let mut idents: Vec<&str> = Vec::new();
            while j < code.len() && depth > 0 {
                match code[j].text.as_str() {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    _ => {
                        if code[j].kind == TokenKind::Ident {
                            idents.push(&code[j].text);
                        }
                    }
                }
                j += 1;
            }
            let is_cfg_test =
                idents.contains(&"cfg") && idents.contains(&"test") && !idents.contains(&"not");
            let is_test_attr = idents == ["test"];
            if is_cfg_test || is_test_attr {
                let start_line = code[i].line;
                // Find the guarded item's extent: the first `;` before
                // any brace ends it, otherwise brace-match its body.
                let mut k = j;
                let mut end_line = start_line;
                while k < code.len() {
                    let text = code[k].text.as_str();
                    if text == ";" {
                        end_line = code[k].line;
                        break;
                    }
                    if text == "{" {
                        let mut braces = 1;
                        k += 1;
                        while k < code.len() && braces > 0 {
                            match code[k].text.as_str() {
                                "{" => braces += 1,
                                "}" => braces -= 1,
                                _ => {}
                            }
                            k += 1;
                        }
                        end_line = code.get(k.saturating_sub(1)).map_or(end_line, |t| t.line);
                        break;
                    }
                    k += 1;
                }
                ranges.push((start_line, end_line));
                i = j;
                continue;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    ranges
}

/// Extracts waiver pragmas and `hot` entry markers from comment tokens.
/// Returns the valid pragmas, the lines marked hot, plus `bad-pragma`
/// findings for malformed pragmas and for `hot` markers that mark no fn.
fn collect_pragmas(
    path: &str,
    tokens: &[Token],
    code: &[&Token],
    items: &[Item],
) -> (Vec<Pragma>, Vec<u32>, Vec<Finding>) {
    let mut pragmas = Vec::new();
    let mut hot = Vec::new();
    let mut bad = Vec::new();
    // Every item's head: its first line (outer attributes included)
    // through the line its declaration starts on. A directive covering a
    // line of a head binds to the item's first line, where its findings
    // anchor, so attributes may sit above or below the directive.
    let mut heads: Vec<(u32, u32, ItemKind)> = Vec::new();
    for item in items {
        item.visit(&mut |i| heads.push((i.line, i.decl_line, i.kind)));
    }
    let head_of = |line: u32| heads.iter().find(|h| (h.0..=h.1).contains(&line));
    for t in tokens {
        if t.kind != TokenKind::Comment {
            continue;
        }
        // Doc comments are documentation, not directives: a pragma shown
        // as an *example* in rustdoc must not register as a waiver.
        if t.text.starts_with("///")
            || t.text.starts_with("//!")
            || t.text.starts_with("/**")
            || t.text.starts_with("/*!")
        {
            continue;
        }
        let Some(at) = t.text.find("tao-lint:") else {
            continue;
        };
        let rest = t.text[at + "tao-lint:".len()..].trim_start();
        // A trailing directive covers its own line; a directive alone on
        // a line covers the next *code* line — so a hot marker and a
        // waiver pragma can stack above one item and both attach to it.
        let has_code_on_line = code.iter().any(|c| c.line == t.line);
        let covered = if has_code_on_line {
            t.line
        } else {
            code.iter()
                .find(|c| c.line > t.line)
                .map(|c| c.line)
                .unwrap_or(t.line + 1)
        };
        let head = head_of(covered);
        let effective_line = head.map_or(covered, |h| h.0);
        // A bare `hot` directive marks the entry point it binds to for the
        // hot-path passes; it is a marker, not a waiver, so it bypasses
        // `parse_pragma`. One that binds to no fn marks nothing.
        if rest.trim_end_matches(['.', ' ']).trim() == "hot" {
            if head.is_some_and(|h| h.2 == ItemKind::Fn) {
                hot.push(effective_line);
            } else {
                bad.push(Finding {
                    rule: Rule::BadPragma,
                    path: path.to_string(),
                    line: t.line,
                    col: t.col,
                    key: format!("bad-pragma:{path}:{}", t.line),
                    message: "`hot` marker binds to no fn; put it above the fn it \
                              marks (attributes and doc comments may sit between)"
                        .to_string(),
                });
            }
            continue;
        }
        match parse_pragma(rest) {
            Ok((rules, _reason)) => {
                // A multi-rule pragma (`allow(r1, r2, reason = "…")`)
                // registers one waiver per rule on the same line.
                for rule in rules {
                    pragmas.push(Pragma {
                        rule,
                        effective_line,
                        line: t.line,
                        col: t.col,
                    });
                }
            }
            Err(why) => bad.push(Finding {
                rule: Rule::BadPragma,
                path: path.to_string(),
                line: t.line,
                col: t.col,
                key: format!("bad-pragma:{path}:{}", t.line),
                message: why,
            }),
        }
    }
    (pragmas, hot, bad)
}

/// Parses `allow(<rule>[, <rule>…], reason = "<non-empty>")`. One pragma
/// comment may waive several rules on the same line (a fingerprint fn
/// that reaches both a panic and an env read is a `panic-reachability`
/// and a `determinism-taint` entry); the single `reason` justifies them
/// all.
fn parse_pragma(text: &str) -> Result<(Vec<Rule>, String), String> {
    let body = text
        .strip_prefix("allow(")
        .ok_or_else(|| "pragma must be `allow(<rule>, reason = \"...\")`".to_string())?;
    let Some(close) = body.rfind(')') else {
        return Err("pragma is missing its closing `)`".to_string());
    };
    let mut rest = &body[..close];
    let mut rules = Vec::new();
    let rest = loop {
        let Some((rule_name, tail)) = rest.split_once(',') else {
            return Err(format!(
                "pragma for `{}` needs a `, reason = \"...\"` justification",
                rest.trim()
            ));
        };
        let rule_name = rule_name.trim();
        let rule = Rule::from_name(rule_name)
            .ok_or_else(|| format!("pragma names unknown rule `{rule_name}`"))?;
        rules.push(rule);
        rest = tail;
        if rest.trim_start().starts_with("reason") {
            break rest.trim();
        }
    };
    let names = || {
        rules
            .iter()
            .map(|r| r.name())
            .collect::<Vec<_>>()
            .join(", ")
    };
    let reason = rest
        .strip_prefix("reason")
        .map(str::trim_start)
        .and_then(|r| r.strip_prefix('='))
        .map(str::trim)
        .ok_or_else(|| {
            format!(
                "pragma for `{}` needs `reason = \"...\"` after the rule",
                names()
            )
        })?;
    let reason = reason
        .strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .ok_or_else(|| format!("pragma reason for `{}` must be a quoted string", names()))?;
    if reason.trim().is_empty() {
        return Err(format!(
            "pragma for `{}` has an empty reason; justify the waiver",
            names()
        ));
    }
    Ok((rules, reason.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The report of one library file linted as the whole workspace.
    fn lint_one(path: &str, krate: &str, source: &str) -> WorkspaceReport {
        lint_workspace(&[SourceFile {
            path: path.to_string(),
            krate: krate.to_string(),
            kind: FileKind::Lib,
            source: source.to_string(),
        }])
    }

    /// `rule:line` of every finding of [`lint_one`].
    fn findings(path: &str, krate: &str, source: &str) -> Vec<String> {
        lint_one(path, krate, source)
            .findings
            .iter()
            .map(|f| format!("{}:{}", f.rule.name(), f.line))
            .collect()
    }

    fn core_findings(source: &str) -> Vec<String> {
        findings("crates/core/src/f.rs", "tao-core", source)
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = "// seed_from_u64(now()) in a comment\n\
                   fn f() { let s = \"StdRng::seed_from_u64(now())\"; } /* seed_from_u64(now()) */\n";
        assert!(core_findings(src).is_empty());
    }

    #[test]
    fn pragma_alone_on_a_line_covers_the_next() {
        let src = "fn f() {\n\
                   // tao-lint: allow(seed-discipline, reason = \"fixture\")\n\
                   let _ = StdRng::seed_from_u64(now());\n}\n";
        assert!(core_findings(src).is_empty());
    }

    #[test]
    fn pragma_without_reason_is_a_finding_and_waives_nothing() {
        let src = "fn f() { StdRng::seed_from_u64(now()); } // tao-lint: allow(seed-discipline)\n";
        assert_eq!(
            core_findings(src),
            vec!["seed-discipline:1", "bad-pragma:1"]
        );
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src =
            "#[cfg(not(test))]\nmod real {\n    fn f() { StdRng::seed_from_u64(now()); }\n}\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { StdRng::seed_from_u64(now()); }\n}\n";
        assert_eq!(core_findings(src), vec!["seed-discipline:3"]);
    }

    #[test]
    fn test_attr_covers_a_single_fn() {
        let src = "#[test]\nfn t() { StdRng::seed_from_u64(now()); }\n\
                   fn lib() { StdRng::seed_from_u64(now()); }\n";
        assert_eq!(core_findings(src), vec!["seed-discipline:3"]);
    }

    #[test]
    fn unused_waiver_flags_stale_pragmas_only() {
        let src = "\
fn live() { StdRng::seed_from_u64(now()); } // tao-lint: allow(seed-discipline, reason = \"used\")\n\
fn stale() { let y = 1 + 1; } // tao-lint: allow(seed-discipline, reason = \"code moved away\")\n";
        assert_eq!(core_findings(src), vec!["unused-waiver:2"]);
    }

    #[test]
    fn pragmas_in_test_regions_that_waive_nothing_are_unused() {
        // No rule is exempted by a test region any more and then re-scanned
        // for the pragma's sake: a pragma is used only if it waives.
        let src = "#[cfg(test)]\nmod tests {\n    \
                   fn t() { StdRng::seed_from_u64(now()); } // tao-lint: allow(seed-discipline, reason = \"defensive\")\n}\n";
        assert_eq!(core_findings(src), vec!["unused-waiver:3"]);
    }

    #[test]
    fn pragmas_naming_a_rule_moved_to_clippy_are_bad() {
        for name in ["det-collections", "no-wall-clock", "no-unwrap-in-lib"] {
            let src = format!("fn f() {{}} // tao-lint: allow({name}, reason = \"moved\")\n");
            assert_eq!(core_findings(&src), vec!["bad-pragma:1"], "{name}");
        }
    }

    #[test]
    fn expect_attributes_are_not_panic_sites() {
        let src = "pub fn f(v: &[u32]) -> u32 {\n    \
                   #[expect(clippy::expect_used, reason = \"fixture\")]\n    \
                   let n = v.len() as u32;\n    n\n}\n";
        assert!(findings("crates/overlay/src/e.rs", "tao-overlay", src).is_empty());
    }

    #[test]
    fn seed_discipline_flags_wall_clock_and_unknown_calls() {
        let src = "\
fn a(seed: u64) { let _ = StdRng::seed_from_u64(seed.wrapping_add(1)); }\n\
fn b(&self) { let _ = StdRng::seed_from_u64(self.now.as_micros()); }\n\
fn c() { let _ = StdRng::seed_from_u64(compute_stuff()); }\n\
fn d(master: u64, i: u64) { let _ = StdRng::seed_from_u64(task_seed(master, i)); }\n";
        assert_eq!(
            core_findings(src),
            vec!["seed-discipline:2", "seed-discipline:3"]
        );
    }

    #[test]
    fn seed_discipline_accepts_seed_anchored_derivations() {
        // Per-op seeds mix a master seed with batch geometry: helper calls
        // like `len()` are fine once the expression is anchored on a
        // seed-named identifier — but wall clocks stay flagged.
        let src = "\
fn a(&self, domain: &[u8], i: usize) {\n\
    let _ = StdRng::seed_from_u64(op_seed(self.seed, (domain.len() + i) as u64));\n\
}\n\
fn b(&self, domain: &[u8]) {\n\
    let _ = StdRng::seed_from_u64(self.master_seed ^ domain.len() as u64);\n\
}\n\
fn c(&self, domain: &[u8]) {\n\
    let _ = StdRng::seed_from_u64(self.master_seed ^ now());\n\
}\n\
fn d(&self, domain: &[u8]) {\n\
    let _ = StdRng::seed_from_u64(domain.len() as u64);\n\
}\n";
        assert_eq!(
            findings("crates/sim/src/s.rs", "tao-sim", src),
            vec!["seed-discipline:8", "seed-discipline:11"]
        );
    }

    #[test]
    fn panic_reachability_fires_at_entry_and_respects_pragmas() {
        let src = "\
pub fn entry() { helper() }\n\
fn helper(x: Option<u32>) { x.unwrap(); }\n\
// tao-lint: allow(panic-reachability, reason = \"bounded by construction\")\n\
pub fn waived_entry() { helper() }\n\
fn private_reaches() { helper() }\n";
        let report = lint_one("crates/overlay/src/p.rs", "tao-overlay", src);
        // Only the unwaived pub entry fires; private fns are not entries.
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        let pr = &report.findings[0];
        assert_eq!((pr.rule, pr.line), (Rule::PanicReachability, 1));
        assert!(pr.message.contains("entry → helper"), "{}", pr.message);
        assert_eq!(
            report.waived,
            vec![(Rule::PanicReachability, "crates/overlay/src/p.rs".into(), 4)]
        );
    }

    #[test]
    fn non_entry_crates_do_not_fire_panic_reachability() {
        let src = "pub fn gen(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert!(findings("crates/topology/src/t.rs", "tao-topology", src).is_empty());
    }

    // ---- crate-layering (member manifests) ----

    fn layering_lines(manifest: &str) -> Vec<(u32, String)> {
        layering_findings("crates/overlay/Cargo.toml", manifest)
            .into_iter()
            .map(|f| (f.line, f.key))
            .collect()
    }

    #[test]
    fn layering_flags_upward_edges_in_every_dependency_table() {
        let manifest = "[package]\nname = \"tao-overlay\"\n\n\
                        [dependencies]\ntao-util.workspace = true\ntao-sim.workspace = true\n\n\
                        [dev-dependencies]\ntao-core = { path = \"../core\" }\n\n\
                        [dev-dependencies.tao-proximity]\nworkspace = true\n";
        let key =
            |dep: &str| format!("crate-layering:crates/overlay/Cargo.toml:tao-overlay->{dep}");
        assert_eq!(
            layering_lines(manifest),
            vec![
                (6, key("tao-sim")),
                (9, key("tao-core")),
                (11, key("tao-proximity")),
            ]
        );
    }

    #[test]
    fn layering_allows_the_dag() {
        let manifest = "[package]\nname = \"tao-overlay\"\n\n\
                        [dependencies]\ntao-util.workspace = true # the base layer\n\
                        tao-topology = { workspace = true }\n\n\
                        [dev-dependencies.tao-landmark]\nworkspace = true\n\n\
                        [[test]]\nname = \"tao-core\"\npath = \"tests/t.rs\"\n";
        assert!(layering_lines(manifest).is_empty());
    }

    #[test]
    fn layering_ignores_self_and_foreign_crates() {
        let manifest = "[package]\nname = \"tao-overlay\"\n\n[dependencies]\n\
                        tao-overlay = { path = \".\" }\n\"serde\" = \"1\"\n";
        assert!(layering_lines(manifest).is_empty());
    }

    #[test]
    fn workspace_manifests_respect_the_layering() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let manifests = crate::walk::member_manifests(&root).expect("workspace manifests");
        assert_eq!(manifests.len(), LAYERS.len(), "{manifests:?}");
        for path in manifests {
            let text = std::fs::read_to_string(root.join(&path)).expect("readable manifest");
            let findings = layering_findings(&path.display().to_string(), &text);
            assert!(findings.is_empty(), "{findings:?}");
        }
    }
}
