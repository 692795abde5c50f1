//! Fixture: the pragma still acknowledges a live panic path. Linted as
//! `tao-overlay`, a panic-reachability entry crate.

// tao-lint: allow(panic-reachability, reason = "callers pass non-empty slices by contract")
pub fn head(xs: &[u32]) -> u32 {
    *xs.first().expect("non-empty")
}
