//! Global soft-state on a Chord ring.
//!
//! The appendix's mapping for Chord: "we can simply use the landmark number
//! as the key to store the information of [a] node on a node whose ID is
//! equal to or greater than the landmark number" — i.e. the landmark number,
//! scaled onto the identifier ring, names the *successor* that hosts the
//! record. Locality still holds: nodes with close landmark numbers store
//! their records on the same or ring-adjacent hosts, so one lookup plus a
//! short successor walk collects the physically-close candidate set.

use std::collections::BTreeMap;

use tao_util::det::DetMap;

use tao_landmark::LandmarkNumber;
use tao_overlay::chord::{ChordOverlay, RingId};
use tao_overlay::keyed::KeyedOverlay;
use tao_util::time::SimTime;

use crate::config::SoftStateConfig;
use crate::entry::PeerRecord;

/// The ring-wide soft-state store: records keyed by their landmark number's
/// position on the identifier ring, hosted by that position's successor.
///
/// # Example
///
/// See the `generality` benchmark binary and the ring tests.
#[derive(Debug, Clone)]
pub struct RingState {
    config: SoftStateConfig,
    /// `(storage key, publisher)` → `(record, expiry)`.
    entries: BTreeMap<(RingId, RingId), (PeerRecord, SimTime)>,
}

impl RingState {
    /// Creates an empty store.
    pub fn new(config: SoftStateConfig) -> Self {
        RingState {
            config,
            entries: BTreeMap::new(),
        }
    }

    /// The shared configuration.
    pub fn config(&self) -> &SoftStateConfig {
        &self.config
    }

    /// The ring position a landmark number maps to: its fraction of the
    /// curve scaled onto the 64-bit ring.
    pub fn ring_key(&self, number: LandmarkNumber) -> RingId {
        let fraction = number.as_fraction(self.config.grid().number_bits());
        (fraction * 2f64.powi(64)) as u64
    }

    /// Publishes (or refreshes) a record under its landmark-number key.
    pub fn publish(&mut self, record: PeerRecord, now: SimTime) {
        let key = (self.ring_key(record.number), record.id);
        self.entries.insert(key, (record, now + self.config.ttl()));
    }

    /// Withdraws every record published by `ring` (proactive departure).
    /// Returns how many were removed.
    pub fn remove(&mut self, ring: RingId) -> usize {
        let before = self.entries.len();
        self.entries.retain(|(_, publisher), _| *publisher != ring);
        before - self.entries.len()
    }

    /// Drops lapsed records; returns how many.
    pub fn expire(&mut self, now: SimTime) -> usize {
        let before = self.entries.len();
        self.entries.retain(|_, (_, expiry)| now < *expiry);
        before - self.entries.len()
    }

    /// Total stored records.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The distributed lookup, Chord edition: land on the host (successor
    /// of the query's ring key), collect the records *that host stores*,
    /// and widen along successors until `max` live candidates are found or
    /// `max_hosts` hosts have been consulted. Candidates are ranked by
    /// full landmark-vector distance; the querying node is excluded.
    pub fn lookup_hosted(
        &self,
        query: &PeerRecord,
        max: usize,
        max_hosts: usize,
        ring: &ChordOverlay,
        now: SimTime,
    ) -> Vec<PeerRecord> {
        let Ok(mut host) = ring.successor(self.ring_key(query.number)) else {
            return Vec::new();
        };
        let mut candidates: Vec<&PeerRecord> = Vec::new();
        let mut consulted = 0usize;
        while consulted < max_hosts.max(1) {
            // Records hosted by `host`: keys in (predecessor, host].
            for (&(key, _), (record, expiry)) in &self.entries {
                if now >= *expiry || record.id == query.id {
                    continue;
                }
                if ring.successor(key).ok() == Some(host) {
                    candidates.push(record);
                }
            }
            consulted += 1;
            if candidates.len() >= max || ring.len() <= consulted {
                break;
            }
            let Ok(next) = ring.successor(host.wrapping_add(1)) else {
                break;
            };
            host = next;
        }
        // Rank everything: a publisher's records are deduplicated after
        // ranking, so the cut at `max` cannot be made before it.
        let mut ranked = Vec::new();
        let by_position = candidates.iter().enumerate();
        query.vector.nearest(
            by_position.map(|(i, r)| (&r.vector, r.id, i)),
            usize::MAX,
            &mut ranked,
        );
        ranked.dedup_by_key(|&mut (_, ring, _)| ring);
        let nearest = ranked.iter().take(max);
        nearest.map(|&(_, _, i)| candidates[i].clone()).collect()
    }

    /// Records stored per host (the successor of each record's key) —
    /// the hosting-burden metric on the ring.
    pub fn records_per_host(&self, ring: &ChordOverlay) -> DetMap<RingId, usize> {
        let mut out: DetMap<RingId, usize> = ring.node_ids().map(|id| (id, 0)).collect();
        for &(key, _) in self.entries.keys() {
            if let Ok(host) = ring.successor(key) {
                *out.entry(host).or_insert(0) += 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tao_landmark::{LandmarkGrid, LandmarkVector};
    use tao_overlay::keyed::RandomPeerSelector;
    use tao_topology::NodeIdx;
    use tao_util::time::SimDuration;

    fn config() -> SoftStateConfig {
        let grid = LandmarkGrid::new(3, 5, SimDuration::from_millis(320)).expect("valid grid");
        SoftStateConfig::builder(grid).build()
    }

    fn record(ring: RingId, millis: [f64; 3], cfg: &SoftStateConfig) -> PeerRecord {
        let vector = LandmarkVector::from_millis(&millis);
        let number = cfg.grid().landmark_number(&vector, cfg.curve());
        PeerRecord {
            id: ring,
            underlay: NodeIdx(ring as u32),
            vector,
            number,
        }
    }

    fn small_ring(n: u64) -> ChordOverlay {
        let mut ring = ChordOverlay::new();
        for i in 0..n {
            ring.join(NodeIdx(i as u32), i * (u64::MAX / n));
        }
        ring.reselect(&mut RandomPeerSelector::new(1));
        ring
    }

    #[test]
    fn ring_key_preserves_number_order() {
        let s = RingState::new(config());
        let a = s.ring_key(LandmarkNumber::new(100));
        let b = s.ring_key(LandmarkNumber::new(200));
        let c = s.ring_key(LandmarkNumber::new(20_000));
        assert!(a < b && b < c);
    }

    #[test]
    fn publish_lookup_finds_vector_nearest() {
        let cfg = config();
        let mut s = RingState::new(cfg);
        let ring = small_ring(16);
        let near = record(1, [10.0, 40.0, 90.0], &cfg);
        let far = record(2, [300.0, 310.0, 305.0], &cfg);
        s.publish(near.clone(), SimTime::ORIGIN);
        s.publish(far, SimTime::ORIGIN);
        let query = record(99, [12.0, 41.0, 88.0], &cfg);
        let found = s.lookup_hosted(&query, 1, 16, &ring, SimTime::ORIGIN);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].id, 1);
    }

    #[test]
    fn lookup_excludes_the_querying_node_and_expired() {
        let cfg = config();
        let mut s = RingState::new(cfg);
        let ring = small_ring(8);
        let mine = record(5, [10.0, 40.0, 90.0], &cfg);
        s.publish(mine.clone(), SimTime::ORIGIN);
        let found = s.lookup_hosted(&mine, 5, 8, &ring, SimTime::ORIGIN);
        assert!(found.is_empty(), "own record must not come back");
        let other = record(6, [10.0, 40.0, 90.0], &cfg);
        s.publish(other, SimTime::ORIGIN);
        let later = SimTime::ORIGIN + cfg.ttl() + SimDuration::from_secs(1);
        assert!(s.lookup_hosted(&mine, 5, 8, &ring, later).is_empty());
        assert_eq!(s.expire(later), 2);
    }

    #[test]
    fn widening_reaches_records_on_later_hosts() {
        let cfg = config();
        let mut s = RingState::new(cfg);
        let ring = small_ring(8);
        // Two records with very different numbers: they land on different
        // hosts; a wide lookup still collects both.
        s.publish(record(1, [5.0, 5.0, 5.0], &cfg), SimTime::ORIGIN);
        s.publish(record(2, [300.0, 300.0, 300.0], &cfg), SimTime::ORIGIN);
        let query = record(99, [5.0, 6.0, 7.0], &cfg);
        let narrow = s.lookup_hosted(&query, 2, 1, &ring, SimTime::ORIGIN);
        let wide = s.lookup_hosted(&query, 2, 8, &ring, SimTime::ORIGIN);
        assert!(wide.len() >= narrow.len());
        assert_eq!(wide.len(), 2);
    }

    #[test]
    fn remove_withdraws_a_publishers_records() {
        let cfg = config();
        let mut s = RingState::new(cfg);
        s.publish(record(1, [10.0, 20.0, 30.0], &cfg), SimTime::ORIGIN);
        s.publish(record(2, [40.0, 50.0, 60.0], &cfg), SimTime::ORIGIN);
        assert_eq!(s.remove(1), 1);
        assert_eq!(s.remove(1), 0);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn hosting_burden_sums_to_total() {
        let cfg = config();
        let mut s = RingState::new(cfg);
        let ring = small_ring(8);
        for i in 0..20u64 {
            s.publish(record(i + 100, [i as f64 * 12.0, 50.0, 90.0], &cfg), SimTime::ORIGIN);
        }
        let hosts = s.records_per_host(&ring);
        assert_eq!(hosts.values().sum::<usize>(), 20);
        assert_eq!(hosts.len(), 8, "every ring node is accounted for");
    }
}
