//! `tao-lint`: the workspace's in-tree static-analysis pass.
//!
//! `scripts/ci.sh` can grep `Cargo.toml` manifests for banned registry
//! crates, but manifests cannot see *source-level* determinism hazards:
//! a `std::collections::HashMap` iterated in a broadcast loop, a stray
//! `Instant::now()` feeding simulated time, an `.unwrap()` that turns a
//! recoverable condition into a panic deep inside an overlay. This
//! crate lexes every Rust file in the workspace with a small hand-rolled
//! lexer ([`lexer`]) — so findings never fire inside string literals,
//! char literals, doc comments, or `#[cfg(test)]` regions — and enforces
//! the project invariants as eleven named rules ([`rules`]).
//!
//! Four rules read tokens. The rest are structural: [`items`] recovers
//! the item/module tree of every file from the token stream, [`graph`]
//! links the items into an approximate cross-crate call graph, and one
//! breadth-first search over it serves panic-reachability,
//! determinism-taint ([`taint`]) and the hot closure of the
//! `// tao-lint: hot` entry markers, inside which [`alloc`] and
//! [`arith`] prove the zero-allocation and overflow-safety disciplines
//! of the routing/wheel kernels. Crate-layering, seed-discipline and
//! unused-waiver complete the set. Findings serialize to a stable JSON
//! report ([`report`]); CI diffs their line-free keys against the
//! committed `lint-baseline.txt`, which may only shrink.
//!
//! Run it over the whole workspace with:
//!
//! ```text
//! cargo run --release --offline -p tao-lint -- --workspace \
//!     --json target/tao-lint.json --baseline lint-baseline.txt
//! ```

pub mod alloc;
pub mod arith;
pub mod graph;
pub mod items;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod taint;
pub mod walk;
