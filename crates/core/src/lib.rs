//! # tao-core — building topology-aware overlays using global soft-state
//!
//! The primary contribution of *Xu, Tang & Zhang, "Building Topology-Aware
//! Overlays Using Global Soft-State" (ICDCS 2003)*, assembled from the
//! workspace's substrates:
//!
//! 1. **Proximity generation** — every joining node measures RTTs to a small
//!    landmark set ([`tao_landmark::LandmarkVector`]) and reduces the vector
//!    to a scalar landmark number with a Hilbert curve.
//! 2. **Global soft-state** — the node publishes its proximity info into the
//!    map of every high-order eCAN zone enclosing it
//!    ([`tao_softstate::GlobalState`]); placement by landmark number keeps
//!    information about physically close nodes logically close.
//! 3. **Proximity-neighbor selection** — when choosing an expressway
//!    representative in a neighboring high-order zone, a node looks up that
//!    zone's map with *its own landmark number*, receives the top-X
//!    candidates by landmark distance, RTT-probes them, and picks the
//!    closest ([`GlobalStateSelector`]).
//! 4. **Maintenance** — nodes subscribe to relevant soft-state and re-select
//!    neighbors when notified ([`tao_softstate::pubsub`]).
//! 5. **Load awareness (§6)** — candidates can be scored by a blend of RTT
//!    and published utilization ([`LoadAwareSelector`]).
//!
//! 6. **Generality (§7)** — one system, [`Aware`], runs the pipeline on
//!    eCAN, Chord and Pastry ([`TopologyAwareOverlay`], [`ChordAware`],
//!    [`PastryAware`]).
//!
//! The entry point is [`TopologyAwareOverlay`], built via [`TaoBuilder`];
//! [`experiment`] contains the harnesses that regenerate the paper's
//! figures.
//!
//! # Example
//!
//! ```no_run
//! use tao_core::{SelectionStrategy, TaoBuilder};
//! use tao_topology::TransitStubParams;
//!
//! // A 512-node topology-aware overlay on a mini transit-stub network.
//! let tao = TaoBuilder::new()
//!     .topology(TransitStubParams::tsk_large_mini())
//!     .overlay_nodes(512)
//!     .landmarks(15)
//!     .rtt_budget(10)
//!     .selection(SelectionStrategy::GlobalState)
//!     .seed(42)
//!     .build();
//! let summary = tao.measure_routing_stretch(1024, 7);
//! println!("mean stretch: {:.2}", summary.mean());
//! ```

#![forbid(unsafe_code)]
#![warn(
    missing_docs,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::allow_attributes_without_reason
)]

pub mod aware;
pub mod experiment;
mod load;
mod metrics;
mod params;
mod selector;
mod system;

pub use aware::{Aware, AwareOverlay, ChordAware, PastryAware, TopologyAwareOverlay};
pub use load::{LoadAwareSelector, LoadModel};
pub use metrics::{StretchSummary, Summary};
pub use params::{ExperimentParams, SelectionStrategy};
pub use selector::{GlobalStateSelector, SelectorStats};
pub use system::TaoBuilder;
