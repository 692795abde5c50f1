//! # tao-overlay — CAN and eCAN structured overlays
//!
//! The paper evaluates its global-soft-state machinery on **eCAN**, a
//! hierarchical variant of CAN that adds "expressway" routing tables of
//! increasing span to reach logarithmic routing performance. This crate
//! implements, from scratch:
//!
//! * [`Point`] / [`Zone`] — the d-dimensional Cartesian torus `[0,1)^d`,
//!   zones as axis-aligned boxes produced by round-robin binary splits,
//! * [`CanOverlay`] — the base content-addressable network: node join by
//!   zone split, departure with merge/takeover, incremental neighbor
//!   tables, owner lookup, and greedy routing,
//! * [`ecan`] — high-order zones, expressway routing tables and
//!   expressway routing,
//! * [`chord`] / [`pastry`] — the id-keyed substrates of the paper's
//!   generality claim; [`keyed`] names the surface they share,
//! * [`select`] — the one neighbor-*selection* hook all three overlays'
//!   routing slots are filled through (where the paper's
//!   proximity-neighbor selection plugs in),
//! * [`tacan`] — the Topologically-Aware CAN baseline's join points
//!   (geographic layout by landmark ordering) for a plain [`CanOverlay`],
//!   used to reproduce the paper's §1 claim about space imbalance and
//!   neighbor blow-up.
//!
//! # Example
//!
//! ```
//! use tao_overlay::{CanOverlay, Point, RouteScratch};
//! use tao_topology::NodeIdx;
//!
//! let mut can = CanOverlay::new(2).unwrap();
//! let a = can.join(NodeIdx(0), Point::new(vec![0.1, 0.1]).unwrap());
//! let b = can.join(NodeIdx(1), Point::new(vec![0.9, 0.9]).unwrap());
//! let c = can.join(NodeIdx(2), Point::new(vec![0.9, 0.1]).unwrap());
//!
//! // Every point has exactly one owner, and routing reaches it.
//! let target = Point::new(vec![0.85, 0.15]).unwrap();
//! assert_eq!(can.owner(&target), c);
//! let mut scratch = RouteScratch::new();
//! can.route_into(&mut scratch, a, &target).unwrap();
//! assert_eq!(scratch.hops().last(), Some(&c));
//! # let _ = b;
//! ```

#![forbid(unsafe_code)]
#![warn(
    missing_docs,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::allow_attributes_without_reason
)]

mod can;
pub mod chord;
pub mod ecan;
pub mod keyed;
pub mod pastry;
mod point;
mod scratch;
pub mod select;
pub mod tacan;
mod zone;

pub use can::{CanOverlay, OverlayError, OverlayNodeId, Route};
pub use point::Point;
pub use scratch::RouteScratch;
pub use zone::Zone;
