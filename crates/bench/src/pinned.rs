//! Pinned before/after comparison files (`results/BENCH_*.json`).
//!
//! Earlier PRs pinned their medians from a single binary, so a plain
//! format-and-write sufficed. `results/BENCH_09.json` is shared by two
//! writers — `sec6_replay` (serial vs parallel replay) and `fig_flashcrowd`
//! (serial oracle vs conflict-DAG executor) — each re-pinning only its own
//! entries.
//! [`upsert_bench_09`] therefore *merges*: it parses whatever comparisons
//! the file already holds, replaces the ones whose names match, keeps the
//! rest, and rewrites the file with entries sorted by name so the output
//! is independent of which writer ran last.
//!
//! The parser underneath is a ~100-line recursive-descent reader for the
//! JSON subset these files use (objects, arrays, strings, finite numbers)
//! — the hermetic-build policy rules out serde, and CI's python validators
//! independently check the shape of what we write.

use tao_util::bench::results_path;

/// One pinned before/after comparison (the `speedup` field is derived).
#[derive(Debug, Clone, PartialEq)]
pub struct PinnedComparison {
    /// Comparison name, unique within the file (e.g. `replay_parallel`).
    pub name: String,
    /// Label of the "before" configuration (e.g. `serial_replay`).
    pub before: String,
    /// Label of the "after" configuration (e.g. `parallel_replay`).
    pub after: String,
    /// Median ns of the before configuration.
    pub before_median_ns: f64,
    /// Median ns of the after configuration.
    pub after_median_ns: f64,
}

impl PinnedComparison {
    /// `before / after` median ratio (>1 means the after path is faster).
    pub fn speedup(&self) -> f64 {
        self.before_median_ns / self.after_median_ns.max(1e-9)
    }
}

/// Merges `entries` into `results/BENCH_09.json`: same-name comparisons
/// are replaced, others kept, and the file is rewritten with comparisons
/// sorted by name. Errors are reported to stderr, never fatal — a bench
/// run must not die on a read-only results directory.
pub fn upsert_bench_09(entries: &[PinnedComparison]) {
    let path = results_path("BENCH_09.json");
    let mut merged = std::fs::read_to_string(&path)
        .ok()
        .and_then(|body| parse_comparisons(&body))
        .unwrap_or_default();
    for e in entries {
        merged.retain(|m| m.name != e.name);
        merged.push(e.clone());
    }
    merged.sort_by(|a, b| a.name.cmp(&b.name));
    let body = render_bench_09(&merged);
    if let Err(err) = std::fs::write(&path, body) {
        eprintln!("bench: could not write {}: {err}", path.display());
    } else {
        println!("bench: wrote {} ({} comparisons)", path.display(), merged.len());
    }
}

/// Renders the document in the exact schema CI validates (one comparison
/// per line, `pr` first).
fn render_bench_09(entries: &[PinnedComparison]) -> String {
    let mut body = String::from("{\n  \"pr\": 9,\n  \"comparisons\": [\n");
    for (i, e) in entries.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"name\": \"{}\", \"before\": \"{}\", \"after\": \"{}\", \
             \"before_median_ns\": {:.1}, \"after_median_ns\": {:.1}, \"speedup\": {:.2}}}{}\n",
            e.name,
            e.before,
            e.after,
            e.before_median_ns,
            e.after_median_ns,
            e.speedup(),
            if i + 1 == entries.len() { "" } else { "," },
        ));
    }
    body.push_str("  ]\n}\n");
    body
}

/// Extracts the `comparisons` array from a BENCH_09-schema document;
/// `None` on any parse or shape problem (the caller then starts fresh).
fn parse_comparisons(body: &str) -> Option<Vec<PinnedComparison>> {
    let doc = Parser::new(body).document()?;
    let comparisons = doc.get("comparisons")?.as_array()?;
    let mut out = Vec::with_capacity(comparisons.len());
    for c in comparisons {
        out.push(PinnedComparison {
            name: c.get("name")?.as_str()?.to_string(),
            before: c.get("before")?.as_str()?.to_string(),
            after: c.get("after")?.as_str()?.to_string(),
            before_median_ns: c.get("before_median_ns")?.as_f64()?,
            after_median_ns: c.get("after_median_ns")?.as_f64()?,
        });
    }
    Some(out)
}

/// A parsed JSON value (the subset the pinned files use).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    /// Key/value pairs in document order.
    Object(Vec<(String, Json)>),
    /// Array elements in document order.
    Array(Vec<Json>),
    /// A string (escape sequences beyond `\"` and `\\` are rejected).
    String(String),
    /// A finite number.
    Number(f64),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }
}

/// Recursive-descent reader over the raw bytes; every method returns
/// `None` on malformed input (no panics — CI feeds it whatever is on
/// disk).
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(body: &'a str) -> Self {
        Parser { bytes: body.as_bytes(), pos: 0 }
    }

    /// Parses exactly one value followed by trailing whitespace.
    fn document(&mut self) -> Option<Json> {
        let v = self.value()?;
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Some(v)
        } else {
            None
        }
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

    fn eat(&mut self, b: u8) -> Option<()> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Some(())
        } else {
            None
        }
    }

    fn value(&mut self) -> Option<Json> {
        self.skip_ws();
        match self.bytes.get(self.pos)? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => self.string().map(Json::String),
            b'-' | b'0'..=b'9' => self.number(),
            _ => None,
        }
    }

    fn object(&mut self) -> Option<Json> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Some(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.eat(b':')?;
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.bytes.get(self.pos)? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Some(Json::Object(pairs));
                }
                _ => return None,
            }
        }
    }

    fn array(&mut self) -> Option<Json> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Some(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos)? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Some(Json::Array(items));
                }
                _ => return None,
            }
        }
    }

    fn string(&mut self) -> Option<String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return None;
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos)? {
                b'"' => {
                    self.pos += 1;
                    return Some(out);
                }
                b'\\' => {
                    // Bench names never need more than the two escapes the
                    // jsonl writer can produce; anything else is rejected.
                    match self.bytes.get(self.pos + 1)? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        _ => return None,
                    }
                    self.pos += 2;
                }
                &b => {
                    out.push(b as char);
                    self.pos += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Option<Json> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
        let n: f64 = text.parse().ok()?;
        n.is_finite().then_some(Json::Number(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmp(name: &str, before_ns: f64, after_ns: f64) -> PinnedComparison {
        PinnedComparison {
            name: name.into(),
            before: "before_label".into(),
            after: "after_label".into(),
            before_median_ns: before_ns,
            after_median_ns: after_ns,
        }
    }

    #[test]
    fn render_then_parse_round_trips() {
        let entries = vec![cmp("alpha", 300.0, 100.0), cmp("beta", 50.5, 25.2)];
        let body = render_bench_09(&entries);
        let parsed = parse_comparisons(&body).expect("well-formed render");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, "alpha");
        assert_eq!(parsed[0].before_median_ns, 300.0);
        assert_eq!(parsed[1].after_median_ns, 25.2);
        assert!(body.contains("\"pr\": 9"));
        assert!(body.contains("\"speedup\": 3.00"));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(parse_comparisons("not json").is_none());
        assert!(parse_comparisons("{\"comparisons\": [").is_none());
        assert!(parse_comparisons("{\"pr\": 9}").is_none());
        assert!(parse_comparisons("{\"comparisons\": [{\"name\": 3}]}").is_none());
        // Trailing garbage after a well-formed document is rejected too.
        assert!(parse_comparisons("{\"comparisons\": []} extra").is_none());
    }

    #[test]
    fn parser_handles_the_subset_grammar() {
        let mut p = Parser::new("{\"a\": [1, -2.5, \"x\\\"y\"], \"b\": {}}");
        let doc = p.document().expect("parses");
        let a = doc.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].as_f64(), Some(-2.5));
        assert_eq!(a[2].as_str(), Some("x\"y"));
        assert_eq!(doc.get("b"), Some(&Json::Object(vec![])));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn merge_replaces_by_name_and_sorts() {
        // Exercise the merge logic through render/parse without touching
        // the real results directory.
        let existing = render_bench_09(&[cmp("zeta", 10.0, 5.0), cmp("alpha", 8.0, 4.0)]);
        let mut merged = parse_comparisons(&existing).unwrap();
        let update = cmp("zeta", 40.0, 10.0);
        merged.retain(|m| m.name != update.name);
        merged.push(update);
        merged.sort_by(|a, b| a.name.cmp(&b.name));
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].name, "alpha");
        assert_eq!(merged[1].name, "zeta");
        assert_eq!(merged[1].before_median_ns, 40.0);
        assert_eq!(merged[1].speedup(), 4.0);
    }
}
