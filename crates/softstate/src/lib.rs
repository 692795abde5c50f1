//! # tao-softstate — global soft-state on the overlay itself
//!
//! The paper's central idea: store *information about the system* — each
//! node's proximity coordinates, and optionally its load — **in the overlay
//! itself**, as soft-state objects whose placement is controlled so that
//! information about physically close nodes is stored logically close
//! together. Nodes then act as rendezvous points for each other.
//!
//! * [`NodeInfo`] / [`SoftStateEntry`] — the published objects: the triple
//!   `<Z, n, p>` of the paper (§5.1) plus a TTL and optional [`LoadStats`]
//!   (§6),
//! * [`ZoneMap`] — the map of one region (high-order zone): entries placed
//!   by landmark number, *condensed* into a fraction of the region
//!   (condense rate), expiring by TTL, and indexed by storage position so
//!   a host's share of the map is one range walk,
//! * [`GlobalState`] — all maps of an eCAN overlay: publish a node into the
//!   map of every enclosing high-order zone (≤ log N maps), run the Table-1
//!   lookup (land on the host of the hash position, widen to its CAN
//!   neighbors until candidates are found, rank by full landmark vector),
//!   and report per-host entry counts (figure 16's "map entries / node"),
//! * [`ring`] / [`prefix`] — the appendix's mappings for Chord and Pastry:
//!   the same [`PeerRecord`] placed at its landmark number's successor, or
//!   in one map per nodeId prefix,
//! * [`pubsub`] — subscriptions over the maps with predicate filtering and
//!   distribution-tree dissemination,
//! * [`MaintenancePolicy`] — reactive / periodic-poll / proactive-departure
//!   repair of the soft-state (§5.2), with staleness accounting.
//!
//! # Example
//!
//! ```
//! use tao_softstate::{GlobalState, SoftStateConfig};
//! use tao_landmark::{LandmarkGrid, SpaceFillingCurve};
//! use tao_util::time::SimDuration;
//!
//! let grid = LandmarkGrid::new(3, 5, SimDuration::from_millis(320)).unwrap();
//! let config = SoftStateConfig::builder(grid)
//!     .condense_rate(0.25)
//!     .ttl(SimDuration::from_secs(60))
//!     .build();
//! let state = GlobalState::new(config);
//! assert_eq!(state.map_count(), 0); // maps appear as nodes publish
//! ```

#![forbid(unsafe_code)]
#![warn(
    missing_docs,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::allow_attributes_without_reason
)]

mod config;
mod entry;
mod maintenance;
mod map;
pub mod prefix;
pub mod pubsub;
mod region;
pub mod ring;
mod store;

pub use config::{SoftStateConfig, SoftStateConfigBuilder};
pub use entry::{LoadStats, NodeInfo, PeerRecord, SoftStateEntry};
pub use maintenance::{refresh_round, MaintenancePolicy, MaintenanceReport, RefreshReport};
pub use map::ZoneMap;
pub use region::RegionKey;
pub use store::{ConvergenceReport, GlobalState, LookupScratch};
