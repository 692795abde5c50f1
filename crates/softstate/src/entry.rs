//! The published soft-state objects.

use tao_landmark::{LandmarkNumber, LandmarkVector};
use tao_overlay::keyed::PeerId;
use tao_overlay::{OverlayNodeId, Point};
use tao_util::time::{SimDuration, SimTime};
use tao_topology::NodeIdx;

/// Load and capacity statistics a node may publish alongside its proximity
/// information (§6: "a node periodically publishes these statistics along
/// with its proximity information").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadStats {
    /// Maximum forwarding capacity (requests/second, abstract units).
    pub capacity: f64,
    /// Current load in the same units.
    pub current_load: f64,
}

impl LoadStats {
    /// Load as a fraction of capacity (`0.0` = idle; may exceed `1.0` when
    /// overloaded).
    ///
    /// # Panics
    ///
    /// Panics if capacity is not positive.
    pub fn utilization(&self) -> f64 {
        assert!(self.capacity > 0.0, "capacity must be positive");
        self.current_load / self.capacity
    }
}

/// Everything the system knows about one node: the payload of its
/// soft-state objects.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeInfo {
    /// The node's overlay identity.
    pub node: OverlayNodeId,
    /// The underlay router it runs on.
    pub underlay: NodeIdx,
    /// Its full landmark vector (used for final candidate ranking).
    pub vector: LandmarkVector,
    /// Its landmark number (the DHT key of its soft-state).
    pub number: LandmarkNumber,
    /// Optional load statistics (§6).
    pub load: Option<LoadStats>,
}

/// What a node of an id-keyed overlay (Chord, Pastry) publishes: the
/// [`NodeInfo`] of a node whose identity is a position in the identifier
/// space. [`RingState`](crate::ring::RingState) and
/// [`PrefixState`](crate::prefix::PrefixState) place the same record
/// differently.
#[derive(Debug, Clone, PartialEq)]
pub struct PeerRecord {
    /// The publishing node's id.
    pub id: PeerId,
    /// The underlay router it runs on.
    pub underlay: NodeIdx,
    /// Its full landmark vector.
    pub vector: LandmarkVector,
    /// Its landmark number.
    pub number: LandmarkNumber,
}

/// One stored object: the paper's `<Z, n, p>` triple — node info `n`,
/// placed at position `p` within region `Z` — plus its expiry.
#[derive(Debug, Clone, PartialEq)]
pub struct SoftStateEntry {
    /// The published node information.
    pub info: NodeInfo,
    /// The position within the region where the object is stored.
    pub position: Point,
    /// Virtual time at which the entry lapses unless refreshed.
    pub expires_at: SimTime,
}

impl SoftStateEntry {
    /// `true` if the entry is still live at `now`.
    pub fn is_live(&self, now: SimTime) -> bool {
        now < self.expires_at
    }

    /// Refreshes the entry to expire `ttl` after `now`.
    pub fn refresh(&mut self, now: SimTime, ttl: SimDuration) {
        self.expires_at = now + ttl;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn liveness_follows_the_clock() {
        let mut e = SoftStateEntry {
            info: NodeInfo {
                node: OverlayNodeId(42),
                underlay: NodeIdx(7),
                vector: LandmarkVector::from_millis(&[10.0, 20.0, 30.0]),
                number: LandmarkNumber::new(0xDEADBEEF),
                load: None,
            },
            position: Point::new(vec![0.25, 0.75]).unwrap(),
            expires_at: SimTime::from_micros(5_000_000),
        };
        assert!(e.is_live(SimTime::from_micros(4_999_999)));
        assert!(!e.is_live(SimTime::from_micros(5_000_000)));
        e.refresh(SimTime::from_micros(5_000_000), SimDuration::from_secs(1));
        assert!(e.is_live(SimTime::from_micros(5_500_000)));
    }

    #[test]
    fn utilization_divides_load_by_capacity() {
        let l = LoadStats {
            capacity: 200.0,
            current_load: 50.0,
        };
        assert!((l.utilization() - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn utilization_rejects_zero_capacity() {
        LoadStats {
            capacity: 0.0,
            current_load: 1.0,
        }
        .utilization();
    }
}
