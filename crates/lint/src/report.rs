//! Stable JSON findings report and the committed baseline.
//!
//! `tao-lint --json target/tao-lint.json` serializes every finding with a
//! *stable key* — line-number-free for the structural rules, so the
//! baseline does not churn when unrelated edits shift code — and
//! `--baseline lint-baseline.txt` diffs the current run against the
//! committed baseline:
//!
//! * a key whose count **grew** is a new finding → fix it (CI fails);
//! * a key whose count **shrank** is a stale entry → shrink the baseline
//!   (CI fails until the entry is removed — the baseline only ratchets
//!   down, never up).
//!
//! The report is hand-rolled JSON (the workspace has no serde; see the
//! hermetic build policy), written for CI's shape check and never read
//! back. The baseline is plain text, one `<count> <key>` line per key.

use crate::rules::{Finding, Rule, ALL_RULES};
use std::collections::BTreeMap;

/// Escapes a string for a JSON literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the findings report as deterministic, diff-friendly JSON:
/// findings sorted by (path, line, col, rule), then a per-rule summary.
pub fn render_json(findings: &[Finding], files_checked: usize) -> String {
    let mut sorted: Vec<&Finding> = findings.iter().collect();
    sorted.sort_by(|a, b| a.order().cmp(&b.order()));
    let mut out = String::from("{\n  \"version\": 1,\n");
    out.push_str(&format!("  \"files_checked\": {files_checked},\n"));
    out.push_str("  \"findings\": [\n");
    for (i, f) in sorted.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"col\": {}, \"key\": \"{}\", \"message\": \"{}\"}}{}\n",
            f.rule.name(),
            esc(&f.path),
            f.line,
            f.col,
            esc(&f.key),
            esc(&f.message),
            if i + 1 == sorted.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"summary\": {\n");
    for (i, rule) in ALL_RULES.iter().enumerate() {
        let n = findings.iter().filter(|f| f.rule == *rule).count();
        out.push_str(&format!(
            "    \"{}\": {}{}\n",
            rule.name(),
            n,
            if i + 1 == ALL_RULES.len() { "" } else { "," }
        ));
    }
    out.push_str("  }\n}\n");
    out
}

/// Renders a baseline file from findings: one `<count> <key>` line per
/// distinct key, sorted by key.
pub fn render_baseline(findings: &[Finding]) -> String {
    key_counts(findings)
        .iter()
        .map(|(key, n)| format!("{n} {key}\n"))
        .collect()
}

/// Parses a baseline written by [`render_baseline`] (or edited by hand):
/// `<count> <key>` per line. Blank lines are skipped; a repeated key adds
/// up.
pub fn parse_baseline(text: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut out = BTreeMap::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let entry = line.trim().split_once(' ');
        let Some((Ok(n), key)) = entry.map(|(n, key)| (n.parse::<u64>(), key.trim())) else {
            return Err(format!(
                "line {}: expected `<count> <key>`, got `{line}`",
                i + 1
            ));
        };
        *out.entry(key.to_string()).or_insert(0) += n;
    }
    Ok(out)
}

/// Multiset of stable keys across findings.
pub fn key_counts(findings: &[Finding]) -> BTreeMap<String, u64> {
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    for f in findings {
        *counts.entry(f.key.clone()).or_insert(0) += 1;
    }
    counts
}

/// The outcome of diffing a run against the committed baseline.
#[derive(Debug, Default)]
pub struct BaselineDiff {
    /// Keys (with excess counts) present now but not covered by the
    /// baseline: new findings that must be fixed.
    pub new: Vec<(String, u64)>,
    /// Baseline keys (with deficit counts) that no longer fire: stale
    /// entries that must be removed so the baseline shrinks.
    pub stale: Vec<(String, u64)>,
}

impl BaselineDiff {
    /// True when the run matches the baseline exactly.
    pub fn is_clean(&self) -> bool {
        self.new.is_empty() && self.stale.is_empty()
    }

    /// A readable per-rule delta, suitable for CI output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let per_rule = |entries: &[(String, u64)]| -> BTreeMap<&'static str, u64> {
            let mut m: BTreeMap<&'static str, u64> = BTreeMap::new();
            for (key, n) in entries {
                let rule = key.split(':').next().unwrap_or("?");
                *m.entry(Rule::from_name(rule).map_or("unknown-rule", Rule::name))
                    .or_insert(0) += n;
            }
            m
        };
        if !self.new.is_empty() {
            out.push_str(
                "new findings not in the baseline (fix these; do NOT grow the baseline):\n",
            );
            for (rule, n) in per_rule(&self.new) {
                out.push_str(&format!("  {rule}: +{n}\n"));
            }
            for (key, n) in &self.new {
                out.push_str(&format!("  + {key} (x{n})\n"));
            }
        }
        if !self.stale.is_empty() {
            out.push_str("stale baseline entries that no longer fire (remove them; the baseline only shrinks):\n");
            for (rule, n) in per_rule(&self.stale) {
                out.push_str(&format!("  {rule}: -{n}\n"));
            }
            for (key, n) in &self.stale {
                out.push_str(&format!("  - {key} (x{n})\n"));
            }
        }
        out
    }
}

/// Diffs current findings against baseline entries.
pub fn diff_baseline(findings: &[Finding], baseline: &BTreeMap<String, u64>) -> BaselineDiff {
    let current = key_counts(findings);
    let mut diff = BaselineDiff::default();
    for (key, &n) in &current {
        let base = baseline.get(key).copied().unwrap_or(0);
        if n > base {
            diff.new.push((key.clone(), n - base));
        }
    }
    for (key, &base) in baseline {
        let n = current.get(key).copied().unwrap_or(0);
        if base > n {
            diff.stale.push((key.clone(), base - n));
        }
    }
    diff
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: Rule, path: &str, line: u32, key: &str) -> Finding {
        Finding {
            rule,
            path: path.to_string(),
            line,
            col: 1,
            key: key.to_string(),
            message: "msg with \"quotes\" and \\slash".to_string(),
        }
    }

    #[test]
    fn esc_escapes_quotes_backslashes_and_control_characters() {
        assert_eq!(esc("plain → text"), "plain → text");
        assert_eq!(esc("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(esc("\n\t\r"), "\\n\\t\\r");
        assert_eq!(esc("\u{1}\u{1f}"), "\\u0001\\u001f");
    }

    #[test]
    fn json_report_is_sorted_and_summarises_every_rule() {
        let findings = vec![
            finding(
                Rule::CrateLayering,
                "b.rs",
                2,
                "crate-layering:b.rs:tao-overlay->tao-sim",
            ),
            finding(
                Rule::PanicReachability,
                "a.rs",
                9,
                "panic-reachability:tao-core:sys::step",
            ),
        ];
        let text = render_json(&findings, 3);
        assert!(text.starts_with("{\n  \"version\": 1,\n  \"files_checked\": 3,\n"));
        let (a, b) = (
            text.find("\"path\": \"a.rs\""),
            text.find("\"path\": \"b.rs\""),
        );
        assert!(a.is_some() && a < b, "findings sorted by path:\n{text}");
        assert!(text.contains(r#""message": "msg with \"quotes\" and \\slash""#));
        for rule in ALL_RULES {
            let n = findings.iter().filter(|f| f.rule == rule).count();
            assert!(
                text.contains(&format!("\"{}\": {n}", rule.name())),
                "{text}"
            );
        }
    }

    #[test]
    fn baseline_round_trip_and_diff() {
        let old = vec![
            finding(
                Rule::PanicReachability,
                "a.rs",
                1,
                "panic-reachability:tao-core:x",
            ),
            finding(
                Rule::PanicReachability,
                "a.rs",
                2,
                "panic-reachability:tao-core:y",
            ),
        ];
        let text = render_baseline(&old);
        assert_eq!(
            text,
            "1 panic-reachability:tao-core:x\n1 panic-reachability:tao-core:y\n"
        );
        let baseline = parse_baseline(&text).expect("baseline parses");
        assert_eq!(baseline.len(), 2);
        assert!(parse_baseline("two panic-reachability:tao-core:x\n").is_err());
        assert!(parse_baseline("3\n").is_err());

        // Identical run: clean.
        assert!(diff_baseline(&old, &baseline).is_clean());

        // One fixed, one new: both reported, in the right buckets.
        let new_run = vec![
            finding(
                Rule::PanicReachability,
                "a.rs",
                2,
                "panic-reachability:tao-core:y",
            ),
            finding(
                Rule::SeedDiscipline,
                "b.rs",
                5,
                "seed-discipline:b.rs:mk_rng",
            ),
        ];
        let diff = diff_baseline(&new_run, &baseline);
        assert_eq!(
            diff.new,
            vec![("seed-discipline:b.rs:mk_rng".to_string(), 1)]
        );
        assert_eq!(
            diff.stale,
            vec![("panic-reachability:tao-core:x".to_string(), 1)]
        );
        let rendered = diff.render();
        assert!(rendered.contains("seed-discipline: +1"));
        assert!(rendered.contains("panic-reachability: -1"));
    }

    #[test]
    fn duplicate_keys_count_as_multiset() {
        let two = vec![
            finding(
                Rule::CrateLayering,
                "c.rs",
                1,
                "crate-layering:c.rs:tao-overlay->tao-sim",
            ),
            finding(
                Rule::CrateLayering,
                "c.rs",
                8,
                "crate-layering:c.rs:tao-overlay->tao-sim",
            ),
        ];
        let baseline = parse_baseline(&render_baseline(&two)).expect("parses");
        assert_eq!(baseline.values().copied().sum::<u64>(), 2);
        let one = &two[..1];
        let diff = diff_baseline(one, &baseline);
        assert!(diff.new.is_empty());
        assert_eq!(diff.stale.len(), 1);
    }
}
