//! The lint rules, pragma handling, and the per-file / per-workspace
//! drivers.
//!
//! The four *token* rules work on the token stream of [`crate::lexer`],
//! so string literals, char literals, and comments can never trigger a
//! finding. Code under `#[cfg(test)]` (and whole integration-test files)
//! is exempt from the determinism rules — tests may use whatever
//! collections they like.
//!
//! The *structural* rules ([`Rule::PanicReachability`],
//! [`Rule::CrateLayering`], [`Rule::SeedDiscipline`],
//! [`Rule::UnusedWaiver`]) work on the item graph of [`crate::items`] and
//! the approximate call graph of [`crate::graph`]; the *taint* rule
//! ([`Rule::DeterminismTaint`], [`crate::taint`]) and the *hot-path*
//! rules ([`Rule::AllocReachability`], [`Rule::ArithSafety`]) walk its
//! edges with the one [`CallGraph::bfs`]. They need the whole workspace
//! as context and therefore only run through [`lint_workspace`], not the
//! single-file [`lint_source`].
//!
//! A finding can be waived in place with a pragma comment that names the
//! rule and *must* give a justification:
//!
//! ```text
//! some_option.expect("..."); // tao-lint: allow(no-unwrap-in-lib, reason = "checked above")
//! ```
//!
//! A pragma on its own line waives the line below it; a trailing pragma
//! waives its own line. A pragma without a non-empty `reason` string is
//! itself a finding (`bad-pragma`) and waives nothing. A valid pragma
//! whose rule has no potential site in its scope is *also* a finding
//! (`unused-waiver`): stale waivers are removed, not accumulated.

use crate::graph::{via, CallGraph, Dir};
use crate::items::{code_tokens, parse_items, Item, ItemKind, Visibility};
use crate::lexer::{lex, Token, TokenKind};

/// The rules `tao-lint` enforces. See `DESIGN.md` §8 for the rationale
/// behind each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// No `std::collections` hash map/set in non-test code: their
    /// iteration order is seeded per process, which silently breaks
    /// cross-process replay determinism. Use `tao_util::det`.
    DetCollections,
    /// No `SystemTime::now`/`Instant::now` outside the bench harness:
    /// simulated time must come from `tao_sim`, never the wall clock.
    NoWallClock,
    /// No `.unwrap()`/`.expect(` in library code — a poisoned
    /// `.lock().unwrap()` included: return errors or carry a pragma with
    /// a justification.
    NoUnwrapInLib,
    /// A malformed waiver pragma (unknown rule or missing reason).
    BadPragma,
    /// A panic site (`unwrap`/`expect`/panicking macro/indexing)
    /// transitively reachable from a `pub` non-test function in the
    /// simulation-facing crates must be acknowledged with a pragma at the
    /// public entry point, not just at the leaf.
    PanicReachability,
    /// A `use`/path edge between crates that violates the layering DAG
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
pub const ALL_RULES: [Rule; 11] = [
    Rule::DetCollections,
    Rule::NoWallClock,
    Rule::NoUnwrapInLib,
    Rule::BadPragma,
    Rule::PanicReachability,
    Rule::CrateLayering,
    Rule::SeedDiscipline,
    Rule::UnusedWaiver,
    Rule::DeterminismTaint,
    Rule::AllocReachability,
    Rule::ArithSafety,
];

/// The token-level rules enforced by the single-file [`lint_source`].
pub const TOKEN_RULES: [Rule; 4] = [
    Rule::DetCollections,
    Rule::NoWallClock,
    Rule::NoUnwrapInLib,
    Rule::BadPragma,
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
            Rule::DetCollections => "det-collections",
            Rule::NoWallClock => "no-wall-clock",
            Rule::NoUnwrapInLib => "no-unwrap-in-lib",
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
    /// A binary (`src/bin/`, `src/main.rs`) or example: everything but
    /// `no-unwrap-in-lib` applies.
    Bin,
    /// An integration test: only compiled into test runners, so the
    /// determinism rules are off; `crate-layering` still applies.
    TestHarness,
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The violated rule.
    pub rule: Rule,
    /// Path of the file, as given to [`lint_source`].
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

/// The outcome of linting one file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Violations that were not waived.
    pub findings: Vec<Finding>,
    /// `(rule, line)` of findings waived by a valid pragma.
    pub waived: Vec<(Rule, u32)>,
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

fn token_key(rule: Rule, path: &str, line: u32) -> String {
    format!("{}:{}:{}", rule.name(), path, line)
}

/// Lints one file's source text against the token rules. `path` is used
/// only for reporting. Structural rules need workspace context and run
/// through [`lint_workspace`].
pub fn lint_source(path: &str, source: &str, kind: FileKind) -> FileReport {
    let tokens = lex(source);
    let code = code_tokens(&tokens);
    let test_ranges = test_line_ranges(&code);
    let (pragmas, _hot, bad) = collect_pragmas(path, &tokens, &code);
    let raw = token_rule_findings(path, &code, kind, &test_ranges, false);

    let mut report = FileReport::default();
    for f in raw {
        let waiver = pragmas
            .iter()
            .find(|p| p.rule == f.rule && p.effective_line == f.line);
        match waiver {
            Some(p) => report.waived.push((p.rule, f.line)),
            None => report.findings.push(f),
        }
    }
    report.findings.extend(bad);
    report.findings.sort_by_key(|f| (f.line, f.col));
    report
}

/// Lints a set of files as one workspace: token rules per file, then the
/// structural rules over the item graph, then waiver application and the
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
            let (pragmas, hot, bad) = collect_pragmas(&p.file.path, &p.tokens, &code);
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

    // Raw (pre-waiver) findings: token rules + per-file structural rules.
    let mut raw: Vec<Finding> = Vec::new();
    for a in &analyzed {
        raw.extend(token_rule_findings(
            &a.file.path,
            &a.code,
            a.file.kind,
            &a.test_ranges,
            false,
        ));
        raw.extend(layering_findings(a.file, &a.code));
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

    // Stale-pragma sweep: a valid pragma counts as *used* if a potential
    // site for its rule exists on its effective line, even one exempted
    // by file kind or a test region (belt-and-suspenders pragmas are
    // fine); otherwise the code it excused is gone and it must go too.
    for (fi, a) in analyzed.iter().enumerate() {
        let relaxed = token_rule_findings(&a.file.path, &a.code, a.file.kind, &a.test_ranges, true);
        for (pi, p) in a.pragmas.iter().enumerate() {
            if used_pragmas.contains(&(fi, pi)) {
                continue;
            }
            let has_site = match p.rule {
                // The structural, taint and hot-path rules anchor their
                // findings at positions of their own choosing: a pragma
                // none of them consumed above guards nothing.
                Rule::PanicReachability
                | Rule::CrateLayering
                | Rule::SeedDiscipline
                | Rule::DeterminismTaint
                | Rule::AllocReachability
                | Rule::ArithSafety => false,
                _ => relaxed
                    .iter()
                    .any(|f| f.rule == p.rule && f.line == p.effective_line),
            };
            if !has_site {
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

    report.findings.sort_by(|a, b| {
        (&a.path, a.line, a.col, a.rule.name()).cmp(&(&b.path, b.line, b.col, b.rule.name()))
    });
    report
}

/// The token-level rules (everything PR 3 enforced). With `relaxed` set,
/// file-kind and test-region exemptions are ignored — used to decide
/// whether a pragma still guards a *potential* site.
fn token_rule_findings(
    path: &str,
    code: &[&Token],
    kind: FileKind,
    test_ranges: &[(u32, u32)],
    relaxed: bool,
) -> Vec<Finding> {
    let in_test = |line: u32| -> bool {
        !relaxed
            && (kind == FileKind::TestHarness
                || test_ranges.iter().any(|&(lo, hi)| lo <= line && line <= hi))
    };
    let mut raw = Vec::new();
    for (i, t) in code.iter().enumerate() {
        // det-collections
        if t.kind == TokenKind::Ident
            && (t.text == "HashMap" || t.text == "HashSet")
            && !in_test(t.line)
        {
            raw.push(Finding {
                rule: Rule::DetCollections,
                path: path.to_string(),
                line: t.line,
                col: t.col,
                key: token_key(Rule::DetCollections, path, t.line),
                message: format!(
                    "std `{}` iterates in per-process random order; \
                     use `tao_util::det::{}` instead",
                    t.text,
                    if t.text == "HashMap" {
                        "DetMap"
                    } else {
                        "DetSet"
                    }
                ),
            });
        }

        // no-wall-clock: `SystemTime::now` / `Instant::now`
        if t.kind == TokenKind::Ident
            && (t.text == "SystemTime" || t.text == "Instant")
            && !in_test(t.line)
            && matches!(code.get(i + 1), Some(p) if p.text == "::")
            && matches!(code.get(i + 2), Some(n) if n.text == "now")
        {
            raw.push(Finding {
                rule: Rule::NoWallClock,
                path: path.to_string(),
                line: t.line,
                col: t.col,
                key: token_key(Rule::NoWallClock, path, t.line),
                message: format!(
                    "`{}::now` reads the wall clock; simulated code must \
                     take time from `tao_sim::SimTime`",
                    t.text
                ),
            });
        }

        // no-unwrap-in-lib: `.unwrap(` / `.expect(`
        if (kind == FileKind::Lib || relaxed)
            && t.kind == TokenKind::Punct
            && t.text == "."
            && !in_test(t.line)
        {
            if let (Some(name), Some(paren)) = (code.get(i + 1), code.get(i + 2)) {
                if name.kind == TokenKind::Ident
                    && (name.text == "unwrap" || name.text == "expect")
                    && paren.text == "("
                {
                    raw.push(Finding {
                        rule: Rule::NoUnwrapInLib,
                        path: path.to_string(),
                        line: name.line,
                        col: name.col,
                        key: token_key(Rule::NoUnwrapInLib, path, name.line),
                        message: format!(
                            "`.{}(` in library code can panic; return an error \
                             or add `// tao-lint: allow(no-unwrap-in-lib, \
                             reason = \"...\")`",
                            name.text
                        ),
                    });
                }
            }
        }
    }
    raw
}

/// `crate-layering`: every `tao_x::` path (in `use` declarations and
/// inline) must point at a crate the owning crate is allowed to see.
fn layering_findings(file: &SourceFile, code: &[&Token]) -> Vec<Finding> {
    let Some((_, allowed)) = LAYERS.iter().find(|(name, _)| *name == file.krate) else {
        return Vec::new(); // unknown crate: nothing to enforce
    };
    let mut out = Vec::new();
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokenKind::Ident || !t.text.starts_with("tao_") {
            continue;
        }
        if !matches!(code.get(i + 1), Some(p) if p.text == "::") {
            continue;
        }
        let target = t.text.replace('_', "-");
        if target == file.krate || !LAYERS.iter().any(|(name, _)| *name == target) {
            continue;
        }
        if !allowed.contains(&target.as_str()) {
            out.push(Finding {
                rule: Rule::CrateLayering,
                path: file.path.clone(),
                line: t.line,
                col: t.col,
                key: format!("crate-layering:{}:{}->{}", file.path, file.krate, target),
                message: format!(
                    "`{}` must not depend on `{}`: the layering DAG allows \
                     {} → {{{}}} only (see DESIGN.md §8)",
                    file.krate,
                    target,
                    file.krate,
                    allowed.join(", ")
                ),
            });
        }
    }
    out
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
/// findings for malformed pragmas.
fn collect_pragmas(
    path: &str,
    tokens: &[Token],
    code: &[&Token],
) -> (Vec<Pragma>, Vec<u32>, Vec<Finding>) {
    let mut pragmas = Vec::new();
    let mut hot = Vec::new();
    let mut bad = Vec::new();
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
        let effective_line = if has_code_on_line {
            t.line
        } else {
            code.iter()
                .find(|c| c.line > t.line)
                .map(|c| c.line)
                .unwrap_or(t.line + 1)
        };
        // A bare `hot` directive marks the entry point defined on the
        // effective line for the hot-path passes; it is a marker, not a
        // waiver, so it bypasses `parse_pragma`.
        if rest.trim_end_matches(['.', ' ']).trim() == "hot" {
            hot.push(effective_line);
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
                key: token_key(Rule::BadPragma, path, t.line),
                message: why,
            }),
        }
    }
    (pragmas, hot, bad)
}

/// Parses `allow(<rule>[, <rule>…], reason = "<non-empty>")`. One pragma
/// comment may waive several rules on the same line (a wall-clock read
/// unwrapped in place needs both `no-wall-clock` and `no-unwrap-in-lib`);
/// the single `reason` justifies them all.
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

    fn findings(src: &str, kind: FileKind) -> Vec<String> {
        lint_source("f.rs", src, kind)
            .findings
            .into_iter()
            .map(|f| format!("{}:{}", f.rule.name(), f.line))
            .collect()
    }

    fn ws(files: Vec<(&str, &str, FileKind, &str)>) -> WorkspaceReport {
        let sources: Vec<SourceFile> = files
            .into_iter()
            .map(|(path, krate, kind, source)| SourceFile {
                path: path.to_string(),
                krate: krate.to_string(),
                kind,
                source: source.to_string(),
            })
            .collect();
        lint_workspace(&sources)
    }

    fn ws_rules(report: &WorkspaceReport) -> Vec<String> {
        report
            .findings
            .iter()
            .map(|f| format!("{}:{}", f.rule.name(), f.line))
            .collect()
    }

    #[test]
    fn hash_collections_flagged_outside_tests_only() {
        let src = "use std::collections::HashMap;\n\
                   #[cfg(test)]\nmod tests {\n    use std::collections::HashSet;\n}\n";
        assert_eq!(findings(src, FileKind::Lib), vec!["det-collections:1"]);
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = "// HashMap in a comment\nlet s = \"HashMap\"; /* Instant::now() */\n";
        assert!(findings(src, FileKind::Lib).is_empty());
    }

    #[test]
    fn wall_clock_detected_through_paths() {
        let src = "let t = std::time::Instant::now();\nlet s = SystemTime::now();\n";
        assert_eq!(
            findings(src, FileKind::Lib),
            vec!["no-wall-clock:1", "no-wall-clock:2"]
        );
    }

    #[test]
    fn unwrap_rule_is_lib_only_and_waivable() {
        let src = "fn f() { x.unwrap(); }\n";
        assert_eq!(findings(src, FileKind::Lib), vec!["no-unwrap-in-lib:1"]);
        assert!(findings(src, FileKind::Bin).is_empty());
        let waived =
            "fn f() { x.unwrap(); } // tao-lint: allow(no-unwrap-in-lib, reason = \"ok\")\n";
        assert!(findings(waived, FileKind::Lib).is_empty());
        let report = lint_source("f.rs", waived, FileKind::Lib);
        assert_eq!(report.waived, vec![(Rule::NoUnwrapInLib, 1)]);
    }

    #[test]
    fn pragma_alone_on_a_line_covers_the_next() {
        let src =
            "// tao-lint: allow(no-unwrap-in-lib, reason = \"init\")\nlet x = y.expect(\"set\");\n";
        assert!(findings(src, FileKind::Lib).is_empty());
    }

    #[test]
    fn pragma_without_reason_is_a_finding_and_waives_nothing() {
        let src = "x.unwrap(); // tao-lint: allow(no-unwrap-in-lib)\n";
        let got = findings(src, FileKind::Lib);
        assert!(got.contains(&"no-unwrap-in-lib:1".to_string()));
        assert!(got.contains(&"bad-pragma:1".to_string()));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nmod real {\n    use std::collections::HashMap;\n}\n";
        assert_eq!(findings(src, FileKind::Lib), vec!["det-collections:3"]);
    }

    #[test]
    fn test_attr_covers_a_single_fn() {
        let src = "#[test]\nfn t() { x.unwrap(); }\nfn lib() { y.unwrap(); }\n";
        assert_eq!(findings(src, FileKind::Lib), vec!["no-unwrap-in-lib:3"]);
    }

    // ---- structural rules (workspace driver) ----

    #[test]
    fn layering_violation_flags_use_and_inline_paths() {
        let report = ws(vec![(
            "crates/overlay/src/bad.rs",
            "tao-overlay",
            FileKind::Lib,
            "use tao_sim::SimTime;\npub fn f() { let _ = tao_core::params(); }\n",
        )]);
        let rules = ws_rules(&report);
        assert!(rules.contains(&"crate-layering:1".to_string()), "{rules:?}");
        assert!(rules.contains(&"crate-layering:2".to_string()), "{rules:?}");
    }

    #[test]
    fn layering_allows_the_dag() {
        let report = ws(vec![(
            "crates/overlay/src/ok.rs",
            "tao-overlay",
            FileKind::Lib,
            "use tao_util::time::SimDuration;\nuse tao_topology::Graph;\n",
        )]);
        assert!(
            !ws_rules(&report)
                .iter()
                .any(|r| r.starts_with("crate-layering")),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn seed_discipline_flags_wall_clock_and_unknown_calls() {
        let report = ws(vec![(
            "crates/core/src/s.rs",
            "tao-core",
            FileKind::Lib,
            "fn a(seed: u64) { let _ = StdRng::seed_from_u64(seed.wrapping_add(1)); }\n\
             fn b(&self) { let _ = StdRng::seed_from_u64(self.now.as_micros()); }\n\
             fn c() { let _ = StdRng::seed_from_u64(compute_stuff()); }\n\
             fn d(master: u64, i: u64) { let _ = StdRng::seed_from_u64(task_seed(master, i)); }\n",
        )]);
        let rules: Vec<String> = ws_rules(&report)
            .into_iter()
            .filter(|r| r.starts_with("seed-discipline"))
            .collect();
        assert_eq!(rules, vec!["seed-discipline:2", "seed-discipline:3"]);
    }

    #[test]
    fn seed_discipline_accepts_seed_anchored_derivations() {
        // Per-op seeds mix a master seed with batch geometry: helper calls
        // like `len()` are fine once the expression is anchored on a
        // seed-named identifier — but wall clocks stay flagged.
        let report = ws(vec![(
            "crates/sim/src/s.rs",
            "tao-sim",
            FileKind::Lib,
            "fn a(&self, domain: &[u8], i: usize) {\n\
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
             }\n",
        )]);
        let rules: Vec<String> = ws_rules(&report)
            .into_iter()
            .filter(|r| r.starts_with("seed-discipline"))
            .collect();
        assert_eq!(rules, vec!["seed-discipline:8", "seed-discipline:11"]);
    }

    #[test]
    fn panic_reachability_fires_at_entry_and_respects_pragmas() {
        let src = "\
pub fn entry() { helper() }\n\
fn helper(x: Option<u32>) { x.unwrap(); } // tao-lint: allow(no-unwrap-in-lib, reason = \"leaf ok\")\n\
// tao-lint: allow(panic-reachability, reason = \"bounded by construction\")\n\
pub fn waived_entry() { helper() }\n\
fn private_reaches() { helper() }\n";
        let report = ws(vec![(
            "crates/overlay/src/p.rs",
            "tao-overlay",
            FileKind::Lib,
            src,
        )]);
        let pr: Vec<&Finding> = report
            .findings
            .iter()
            .filter(|f| f.rule == Rule::PanicReachability)
            .collect();
        // Only the unwaived pub entry fires; leaf pragmas do not discharge
        // the entry, private fns are not entries.
        assert_eq!(pr.len(), 1, "{:?}", report.findings);
        assert_eq!(pr[0].line, 1);
        assert!(
            pr[0].message.contains("entry → helper"),
            "{}",
            pr[0].message
        );
        assert!(report
            .waived
            .iter()
            .any(|(r, _, line)| *r == Rule::PanicReachability && *line == 4));
    }

    #[test]
    fn non_entry_crates_do_not_fire_panic_reachability() {
        let report = ws(vec![(
            "crates/topology/src/t.rs",
            "tao-topology",
            FileKind::Lib,
            "pub fn gen(x: Option<u32>) -> u32 { x.unwrap() } // tao-lint: allow(no-unwrap-in-lib, reason = \"ok\")\n",
        )]);
        assert!(
            !ws_rules(&report)
                .iter()
                .any(|r| r.starts_with("panic-reachability")),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn unused_waiver_flags_stale_pragmas_only() {
        let src = "\
fn live(x: Option<u32>) { x.unwrap(); } // tao-lint: allow(no-unwrap-in-lib, reason = \"used\")\n\
fn stale() { let y = 1 + 1; } // tao-lint: allow(no-unwrap-in-lib, reason = \"code moved away\")\n";
        let report = ws(vec![(
            "crates/overlay/src/w.rs",
            "tao-overlay",
            FileKind::Lib,
            src,
        )]);
        let uw: Vec<&Finding> = report
            .findings
            .iter()
            .filter(|f| f.rule == Rule::UnusedWaiver)
            .collect();
        assert_eq!(uw.len(), 1, "{:?}", report.findings);
        assert_eq!(uw[0].line, 2);
    }

    #[test]
    fn belt_and_suspenders_pragmas_in_tests_are_not_stale() {
        // A pragma guarding an unwrap inside #[cfg(test)] waives nothing
        // (the rule is off there) but still guards a potential site, so it
        // is not reported as unused.
        let src = "#[cfg(test)]\nmod tests {\n    fn t(x: Option<u32>) { x.unwrap(); } // tao-lint: allow(no-unwrap-in-lib, reason = \"defensive\")\n}\n";
        let report = ws(vec![(
            "crates/overlay/src/bt.rs",
            "tao-overlay",
            FileKind::Lib,
            src,
        )]);
        assert!(
            !ws_rules(&report)
                .iter()
                .any(|r| r.starts_with("unused-waiver")),
            "{:?}",
            report.findings
        );
    }
}
