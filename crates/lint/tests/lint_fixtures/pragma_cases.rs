//! Fixture: malformed pragmas fire bad-pragma and waive nothing. Linted as
//! `tao-overlay`, so every pub fn here is a panic-reachability entry that
//! its pragma fails to acknowledge.

// tao-lint: allow(panic-reachability)
pub fn missing_reason(v: &[u64]) -> u64 {
    *v.first().unwrap()
}

// tao-lint: allow(panic-reachability, reason = "")
pub fn empty_reason(v: &[u64]) -> u64 {
    *v.first().unwrap()
}

// A rule that moved to clippy is no tao-lint rule.
// tao-lint: allow(no-unwrap-in-lib, reason = "nice try")
pub fn unknown_rule(v: &[u64]) -> u64 {
    *v.first().unwrap()
}
