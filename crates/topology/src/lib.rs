//! # tao-topology — transit-stub network substrate
//!
//! The paper evaluates on GT-ITM transit-stub topologies of roughly 10,000
//! routers. GT-ITM is a proprietary-era C tool, so this crate rebuilds the
//! same structural model from scratch:
//!
//! * [`Graph`] — an undirected weighted router graph with per-node
//!   [`NodeKind`] labels (transit vs stub),
//! * [`TransitStubParams`] / [`generate_transit_stub`] — the generator:
//!   transit domains form a random backbone, each transit node anchors stub
//!   domains, all domains are internally connected random graphs,
//! * [`LatencyAssignment`] — the paper's two link-latency settings: random
//!   ("GT-ITM default") and manual per-link-class constants,
//! * [`shortest_paths`] — single-source Dijkstra over the CSR adjacency,
//! * [`RttOracle`] — RTT "measurements" (shortest-path latency) with a probe
//!   counter, so experiments can report *number of RTT measurements* exactly
//!   as the paper does; an O(1) read of the factored distance index on
//!   single-homed transit-stub graphs (all the generator emits), one
//!   Dijkstra row per source touched on any other graph,
//! * [`landmarks`] — landmark-node placement strategies.
//!
//! The two topologies the paper uses are provided as presets:
//! [`TransitStubParams::tsk_large`] (large backbone, sparse stubs) and
//! [`TransitStubParams::tsk_small`] (small backbone, dense stubs).
//!
//! # Example
//!
//! ```
//! use tao_topology::{generate_transit_stub, LatencyAssignment, TransitStubParams};
//!
//! // A miniature transit-stub network with manual link latencies.
//! let params = TransitStubParams::builder()
//!     .transit_domains(2)
//!     .transit_nodes_per_domain(2)
//!     .stub_domains_per_transit_node(2)
//!     .nodes_per_stub_domain(4)
//!     .build()
//!     .unwrap();
//! let topo = generate_transit_stub(&params, LatencyAssignment::manual(), 42);
//! assert_eq!(topo.graph().node_count(), 2 * 2 + 2 * 2 * 2 * 4);
//! assert!(topo.graph().is_connected());
//! ```

#![forbid(unsafe_code)]
#![warn(
    missing_docs,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::allow_attributes_without_reason
)]

mod distance_index;
mod graph;
pub mod landmarks;
mod latency;
mod rtt;
mod shortest_path;
mod transit_stub;

pub use graph::{EdgeClass, Graph, NodeIdx, NodeKind};
pub use latency::{LatencyAssignment, LatencyRanges, ManualLatencies};
pub use rtt::RttOracle;
pub use shortest_path::shortest_paths;
pub use transit_stub::{
    generate_transit_stub, ParamsError, Topology, TransitStubParams, TransitStubParamsBuilder,
};
