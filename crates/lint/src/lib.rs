//! `tao-lint`: the workspace's in-tree static-analysis pass.
//!
//! The token-level determinism hazards — a `std::collections::HashMap`
//! iterated in a broadcast loop, a stray `Instant::now()` feeding
//! simulated time, an `.unwrap()` deep inside an overlay — are clippy
//! lints (the root `clippy.toml` and each crate root's
//! `clippy::{unwrap_used, expect_used}`). What clippy cannot see is
//! *interprocedural*: a panic reachable from a public entry, a
//! nondeterminism source flowing into a published fingerprint, an
//! allocation on a hot path. This crate lexes every Rust file in the
//! workspace with a small hand-rolled lexer ([`lexer`]) — so findings
//! never fire inside string literals, char literals or comments — and
//! enforces the project invariants as eight named rules ([`rules`]).
//!
//! [`items`] recovers the item/module tree of every file from the token
//! stream, [`graph`] links the items into an approximate cross-crate call
//! graph, and one breadth-first search over it serves panic-reachability,
//! determinism-taint ([`taint`]) and the hot closure of the
//! `// tao-lint: hot` entry markers, inside which [`alloc`] and
//! [`arith`] prove the zero-allocation and overflow-safety disciplines
//! of the routing/wheel kernels. Seed-discipline, crate-layering (over
//! the member manifests), bad-pragma and unused-waiver complete the set.
//! Findings serialize to a stable JSON report ([`report`]); CI diffs
//! their line-free keys against the committed `lint-baseline.txt`, which
//! may only shrink.
//!
//! Run it over the whole workspace with:
//!
//! ```text
//! cargo run --release --offline -p tao-lint -- --workspace \
//!     --json target/tao-lint.json --baseline lint-baseline.txt
//! ```

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::allow_attributes_without_reason
)]

pub mod alloc;
pub mod arith;
pub mod graph;
pub mod items;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod taint;
pub mod walk;
