//! Hermetic in-tree substrates for the tao workspace.
//!
//! This crate is the workspace's *entire* external surface: everything that
//! used to come from registry crates lives here, so a clean checkout builds
//! offline with an empty cargo cache (`cargo build --release --offline`).
//! See `DESIGN.md` § "Hermetic build policy" for the rule and its
//! rationale.
//!
//! | module | replaces | provides |
//! |---|---|---|
//! | [`rand`] | `rand` 0.8 | seedable SplitMix64 `StdRng`, `gen`/`gen_range`/`gen_bool`, `shuffle`, `Uniform` |
//! | [`check`] | `proptest` | `for_all` seeded property harness + `check!` macros |
//! | [`count`] | — | static-name `u64` event counters owned by the layer that counts |
//! | [`det`] | `std::collections::Hash{Map,Set}` | `DetMap`/`DetSet` with deterministic iteration order |
//! | [`par`] | `rayon` | order-preserving `par_map` over scoped threads, `TAO_WORKERS` knob |
//! | [`time`] | `std::time` | virtual-time `SimTime`/`SimDuration` newtypes (re-exported by `tao-sim`) |
//!
//! Beyond hermeticity, in-tree pseudo-randomness is a *scientific*
//! requirement: the paper's figures are seeded experiments, and `rand`
//! never promised `StdRng` stream stability across versions. Here the
//! stream is pinned by golden-value tests, so every recorded run is
//! bit-reproducible forever.

#![forbid(unsafe_code)]
#![warn(
    missing_docs,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::allow_attributes_without_reason
)]

pub mod check;
pub mod count;
pub mod det;
pub mod par;
pub mod rand;
pub mod time;
