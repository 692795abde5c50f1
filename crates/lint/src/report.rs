//! Stable JSON findings report and the committed baseline.
//!
//! `tao-lint --json target/tao-lint.json` serializes every finding with a
//! *stable key* — line-number-free for the structural rules, so the
//! baseline does not churn when unrelated edits shift code — and
//! `--baseline lint-baseline.json` diffs the current run against the
//! committed baseline:
//!
//! * a key whose count **grew** is a new finding → fix it (CI fails);
//! * a key whose count **shrank** is a stale entry → shrink the baseline
//!   (CI fails until the entry is removed — the baseline only ratchets
//!   down, never up).
//!
//! Serialization is hand-rolled (the workspace has no serde; see the
//! hermetic build policy) and the reader is a ~hundred-line JSON subset
//! parser — objects, arrays, strings, and unsigned integers — which is
//! all the schema needs.

use crate::rules::{Finding, ALL_RULES};
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
    sorted.sort_by(|a, b| {
        (&a.path, a.line, a.col, a.rule.name()).cmp(&(&b.path, b.line, b.col, b.rule.name()))
    });
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

/// Renders a baseline file from findings: sorted unique keys with counts.
pub fn render_baseline(findings: &[Finding]) -> String {
    let counts = key_counts(findings);
    let mut out = String::from("{\n  \"version\": 1,\n  \"entries\": [\n");
    let n = counts.len();
    for (i, (key, count)) in counts.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"key\": \"{}\", \"count\": {}}}{}\n",
            esc(key),
            count,
            if i + 1 == n { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
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
                *m.entry(rule_label(rule)).or_insert(0) += n;
            }
            m
        };
        if !self.new.is_empty() {
            out.push_str("new findings not in the baseline (fix these; do NOT grow the baseline):\n");
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

fn rule_label(raw: &str) -> &'static str {
    for rule in ALL_RULES {
        if rule.name() == raw {
            return rule.name();
        }
    }
    "unknown-rule"
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

/// Parses a baseline file produced by [`render_baseline`] (or edited by
/// hand): `{"version": 1, "entries": [{"key": "...", "count": N}, …]}`.
pub fn parse_baseline(text: &str) -> Result<BTreeMap<String, u64>, String> {
    let value = JsonParser { bytes: text.as_bytes(), pos: 0 }.parse()?;
    let obj = value.as_object().ok_or("baseline root must be an object")?;
    let entries = obj
        .get("entries")
        .and_then(|v| v.as_array())
        .ok_or("baseline must have an \"entries\" array")?;
    let mut out = BTreeMap::new();
    for e in entries {
        let eo = e.as_object().ok_or("baseline entries must be objects")?;
        let key = eo
            .get("key")
            .and_then(|v| v.as_str())
            .ok_or("baseline entry missing string \"key\"")?;
        let count = eo
            .get("count")
            .and_then(|v| v.as_u64())
            .ok_or("baseline entry missing integer \"count\"")?;
        *out.entry(key.to_string()).or_insert(0) += count;
    }
    Ok(out)
}

/// A JSON subset value (all the report schema needs).
#[derive(Debug)]
pub enum Json {
    /// An object with string keys.
    Object(BTreeMap<String, Json>),
    /// An array.
    Array(Vec<Json>),
    /// A string.
    Str(String),
    /// An unsigned integer.
    Num(u64),
}

impl Json {
    fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Object(m) => Some(m),
            _ => None,
        }
    }
    fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(a) => Some(a),
            _ => None,
        }
    }
    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
    fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn parse(mut self) -> Result<Json, String> {
        let v = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing bytes at offset {}", self.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at offset {}",
                b as char, self.pos
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b) if b.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {:?} at offset {}", other.map(|b| *b as char), self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.eat(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                other => {
                    return Err(format!(
                        "expected `,` or `}}` in object, got {:?} at offset {}",
                        other.map(|b| *b as char),
                        self.pos
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                other => {
                    return Err(format!(
                        "expected `,` or `]` in array, got {:?} at offset {}",
                        other.map(|b| *b as char),
                        self.pos
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                            self.pos += 4;
                        }
                        other => {
                            return Err(format!("unsupported escape {:?}", other.map(|b| *b as char)))
                        }
                    }
                    self.pos += 1;
                }
                Some(&b) => {
                    // Collect a run of plain bytes (keeps UTF-8 intact).
                    let start = self.pos;
                    let _ = b;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|&b| b != b'"' && b != b'\\')
                    {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|e| e.to_string())?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<u64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number at offset {start}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Rule;

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
    fn json_report_round_trips_through_the_parser() {
        let findings = vec![
            finding(Rule::CrateLayering, "b.rs", 2, "crate-layering:b.rs:tao-overlay->tao-sim"),
            finding(Rule::PanicReachability, "a.rs", 9, "panic-reachability:tao-core:sys::step"),
        ];
        let text = render_json(&findings, 3);
        let value = JsonParser { bytes: text.as_bytes(), pos: 0 }.parse().expect("report parses");
        let obj = value.as_object().expect("object root");
        assert_eq!(obj.get("version").and_then(Json::as_u64), Some(1));
        assert_eq!(obj.get("files_checked").and_then(Json::as_u64), Some(3));
        let arr = obj.get("findings").and_then(Json::as_array).expect("findings array");
        assert_eq!(arr.len(), 2);
        // Sorted by path: a.rs first.
        assert_eq!(
            arr[0].as_object().and_then(|o| o.get("path")).and_then(Json::as_str),
            Some("a.rs")
        );
        let summary = obj.get("summary").and_then(Json::as_object).expect("summary");
        assert_eq!(summary.get("crate-layering").and_then(Json::as_u64), Some(1));
        assert_eq!(summary.get("det-collections").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn baseline_round_trip_and_diff() {
        let old = vec![
            finding(Rule::PanicReachability, "a.rs", 1, "panic-reachability:tao-core:x"),
            finding(Rule::PanicReachability, "a.rs", 2, "panic-reachability:tao-core:y"),
        ];
        let baseline = parse_baseline(&render_baseline(&old)).expect("baseline parses");
        assert_eq!(baseline.len(), 2);

        // Identical run: clean.
        assert!(diff_baseline(&old, &baseline).is_clean());

        // One fixed, one new: both reported, in the right buckets.
        let new_run = vec![
            finding(Rule::PanicReachability, "a.rs", 2, "panic-reachability:tao-core:y"),
            finding(Rule::SeedDiscipline, "b.rs", 5, "seed-discipline:b.rs:mk_rng"),
        ];
        let diff = diff_baseline(&new_run, &baseline);
        assert_eq!(diff.new, vec![("seed-discipline:b.rs:mk_rng".to_string(), 1)]);
        assert_eq!(diff.stale, vec![("panic-reachability:tao-core:x".to_string(), 1)]);
        let rendered = diff.render();
        assert!(rendered.contains("seed-discipline: +1"));
        assert!(rendered.contains("panic-reachability: -1"));
    }

    #[test]
    fn duplicate_keys_count_as_multiset() {
        let two = vec![
            finding(Rule::CrateLayering, "c.rs", 1, "crate-layering:c.rs:tao-overlay->tao-sim"),
            finding(Rule::CrateLayering, "c.rs", 8, "crate-layering:c.rs:tao-overlay->tao-sim"),
        ];
        let baseline = parse_baseline(&render_baseline(&two)).expect("parses");
        assert_eq!(baseline.values().copied().sum::<u64>(), 2);
        let one = &two[..1];
        let diff = diff_baseline(one, &baseline);
        assert!(diff.new.is_empty());
        assert_eq!(diff.stale.len(), 1);
    }
}
