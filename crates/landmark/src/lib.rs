//! # tao-landmark — landmark clustering and space-filling curves
//!
//! The paper positions every node in a *landmark space*: the node measures
//! its RTT to `n` landmark routers and the resulting vector
//! `<l1, l2, …, ln>` is its coordinate ([`LandmarkVector`]). Physically
//! close nodes have similar vectors. Because the landmark space usually has
//! higher dimensionality than the overlay, the vector is reduced to a scalar
//! [`LandmarkNumber`] with a space-filling curve; closeness in landmark
//! number then indicates physical closeness, and the number can be used as a
//! DHT key so that information about nearby nodes is stored together.
//!
//! Provided here:
//!
//! * [`LandmarkVector`] — RTT coordinates, landmark *orderings* (the
//!   Topologically-Aware-CAN technique this paper improves on), Euclidean
//!   distance, component subsetting (the paper's *landmark vector index*),
//! * [`hilbert`] — a generic d-dimensional Hilbert curve (encode + decode,
//!   Skilling's transpose algorithm),
//! * [`zorder`] — Morton (Z-order) curve, kept as an ablation baseline,
//! * [`LandmarkGrid`] — quantisation of the landmark space into `n^x` grid
//!   cells (appendix), turning vectors into integer grid coordinates,
//! * [`LandmarkNumber`] + [`region_position`] — the scalar key and the
//!   paper's hash `p' = h(p, dp, dz, Z)` that maps a landmark-space position
//!   into a position inside an overlay region while preserving locality.
//!
//! # Example
//!
//! ```
//! use tao_landmark::{LandmarkGrid, LandmarkVector, SpaceFillingCurve};
//! use tao_util::time::SimDuration;
//!
//! // Two nodes with similar RTTs to three landmarks get nearby numbers.
//! let grid = LandmarkGrid::new(3, 5, SimDuration::from_millis(320)).unwrap();
//! let a = LandmarkVector::from_millis(&[10.0, 80.0, 200.0]);
//! let b = LandmarkVector::from_millis(&[12.0, 82.0, 195.0]);
//! let c = LandmarkVector::from_millis(&[300.0, 5.0, 40.0]);
//!
//! let na = grid.landmark_number(&a, SpaceFillingCurve::Hilbert);
//! let nb = grid.landmark_number(&b, SpaceFillingCurve::Hilbert);
//! let nc = grid.landmark_number(&c, SpaceFillingCurve::Hilbert);
//! let gap_ab = na.distance(nb);
//! let gap_ac = na.distance(nc);
//! assert!(gap_ab < gap_ac);
//! ```

#![forbid(unsafe_code)]
#![warn(
    missing_docs,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::allow_attributes_without_reason
)]

pub mod analysis;
pub mod coordinates;
mod grid;
pub mod hilbert;
mod number;
mod vector;
pub mod zorder;

pub use grid::{GridError, LandmarkGrid};
pub use number::{region_position, region_position_into, LandmarkNumber, SpaceFillingCurve};
pub use vector::{LandmarkVector, Rank};
