//! # tao-proximity — generating proximity information
//!
//! Section 4 of the paper compares three ways of finding the physically
//! closest node to a given node:
//!
//! * [`expanding_ring_search`] — flood outward over the overlay's neighbor
//!   graph ring by ring, measuring the RTT to every node encountered;
//!   accurate only after contacting *thousands* of nodes,
//! * landmark ordering / clustering alone — free of probes but coarse: it
//!   cannot differentiate nodes within close distance
//!   ([`rank_by_landmark_distance`] with zero measurements),
//! * the paper's **hybrid** scheme ([`hybrid_search`]) — landmark
//!   clustering *pre-selects* candidates, then a handful of real RTT
//!   measurements to the top few pick the true closest; "5–30 RTT
//!   measurements can be enough … with high probability".
//!
//! All searches charge probes through [`RttOracle`](tao_topology::RttOracle)
//! and return a
//! [`SearchTrace`]: the running best after every measurement, which is
//! exactly the x/y data of the paper's figures 3–6.
//!
//! # Example
//!
//! ```
//! use tao_proximity::{hybrid_search, Candidate, nn_stretch};
//! use tao_landmark::LandmarkVector;
//! use tao_topology::{generate_transit_stub, LatencyAssignment, NodeIdx, RttOracle,
//!                    TransitStubParams};
//!
//! let topo = generate_transit_stub(
//!     &TransitStubParams::tsk_small_mini(), LatencyAssignment::manual(), 3);
//! let oracle = RttOracle::new(topo.graph().clone());
//! let landmarks = [NodeIdx(1), NodeIdx(100), NodeIdx(200)];
//!
//! let query = NodeIdx(50);
//! let query_vec = LandmarkVector::measure(query, &landmarks, &oracle);
//! let pool: Vec<Candidate> = (0..topo.graph().node_count() as u32)
//!     .step_by(10)
//!     .filter(|&i| i != 50)
//!     .map(|i| {
//!         let n = NodeIdx(i);
//!         Candidate { underlay: n, vector: LandmarkVector::measure(n, &landmarks, &oracle) }
//!     })
//!     .collect();
//!
//! let trace = hybrid_search(query, &query_vec, &pool, 10, &oracle);
//! let best = trace.best_after(10).unwrap();
//! assert!(best.rtt >= tao_util::time::SimDuration::ZERO);
//! ```

#![forbid(unsafe_code)]
#![warn(
    missing_docs,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::allow_attributes_without_reason
)]

mod ers;
mod hybrid;
mod landmark_only;
mod stretch;
mod trace;

pub use ers::expanding_ring_search;
pub use hybrid::{hybrid_search, probe_ranked, rank_by_landmark_distance, Candidate};
pub use landmark_only::{contiguous_groups, landmark_only_choice, multi_group_rank};
pub use stretch::{nn_stretch, true_nearest};
pub use trace::{Probe, SearchTrace};
