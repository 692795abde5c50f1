//! Fixture: both valid pragma forms waive. One on its own line covers the
//! next code line; a trailing one covers its own line.

// tao-lint: allow(panic-reachability, reason = "callers pass non-empty slices by contract")
pub fn head(v: &[u64]) -> u64 {
    *v.first().unwrap()
}

pub fn last(v: &[u64]) -> u64 { v[v.len() - 1] } // tao-lint: allow(panic-reachability, reason = "length checked by the caller")
