//! Fixture: a waiver whose code has since been rewritten not to panic —
//! the pragma is now itself the finding.

// tao-lint: allow(panic-reachability, reason = "bounds checked by caller")
pub fn lookup(xs: &[u32], i: usize) -> Option<u32> {
    xs.get(i).copied()
}
