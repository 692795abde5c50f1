//! Global soft-state partitioned by node-id prefixes — the Pastry mapping.
//!
//! From the paper: "for overlays such as Pastry, a region is a set of nodes
//! sharing a particular prefix … (For Pastry, there is one map for [each]
//! nodeId prefix)". Each map holds the proximity records of every node
//! under that prefix, sorted by landmark number, exactly like the eCAN
//! zone maps; a node appears in one map per prefix length, ≤ log N total.

use std::collections::BTreeMap;

use tao_util::det::DetMap;

use tao_overlay::pastry::{PastryId, DIGITS, DIGIT_BITS};
use tao_util::time::SimTime;

use crate::config::SoftStateConfig;
use crate::entry::PeerRecord;

/// Identifies one prefix region: the first `len` digits of `bits` (the
/// remaining digits are zeroed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PrefixKey {
    /// Number of significant leading digits.
    pub len: u32,
    /// The id with all non-prefix digits cleared.
    pub bits: u64,
}

impl PrefixKey {
    /// The prefix of `id` with `len` digits.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds [`DIGITS`].
    pub fn of(id: PastryId, len: u32) -> Self {
        assert!(len <= DIGITS, "prefix length out of range");
        let bits = if len == 0 {
            0
        } else {
            let shift = (DIGITS - len) * DIGIT_BITS;
            (id >> shift) << shift
        };
        PrefixKey { len, bits }
    }

    /// `true` if `id` lies under this prefix.
    pub fn covers(&self, id: PastryId) -> bool {
        PrefixKey::of(id, self.len) == *self
    }
}

/// One prefix map: records keyed by `(landmark number, publisher)` with
/// their expiry times.
type PrefixMap = BTreeMap<(u128, PastryId), (PeerRecord, SimTime)>;

/// The per-prefix proximity maps of a Pastry overlay.
#[derive(Debug, Clone)]
pub struct PrefixState {
    config: SoftStateConfig,
    max_len: u32,
    maps: DetMap<PrefixKey, PrefixMap>,
}

impl PrefixState {
    /// Creates an empty store covering prefixes of length `1..=max_len`
    /// (pick `max_len ≈ log16 N + 1`; deeper prefixes hold single nodes).
    ///
    /// # Panics
    ///
    /// Panics unless `max_len` is in `1..=DIGITS`.
    pub fn new(config: SoftStateConfig, max_len: u32) -> Self {
        assert!(
            (1..=DIGITS).contains(&max_len),
            "max_len must be in 1..=DIGITS"
        );
        PrefixState {
            config,
            max_len,
            maps: DetMap::new(),
        }
    }

    /// The shared configuration.
    pub fn config(&self) -> &SoftStateConfig {
        &self.config
    }

    /// Deepest prefix length that gets a map.
    pub fn max_len(&self) -> u32 {
        self.max_len
    }

    /// Number of prefix maps that exist so far.
    pub fn map_count(&self) -> usize {
        self.maps.len()
    }

    /// Total records across all maps.
    pub fn total_entries(&self) -> usize {
        self.maps.values().map(BTreeMap::len).sum()
    }

    /// Publishes (or refreshes) `record` into every map along its prefix
    /// path. Returns how many maps were written.
    pub fn publish(&mut self, record: PeerRecord, now: SimTime) -> usize {
        let expiry = now + self.config.ttl();
        for len in 1..=self.max_len {
            let key = PrefixKey::of(record.id, len);
            self.maps
                .entry(key)
                .or_default()
                .insert((record.number.value(), record.id), (record.clone(), expiry));
        }
        self.max_len as usize
    }

    /// Withdraws every record of `id`; returns how many maps were touched.
    pub fn remove(&mut self, id: PastryId) -> usize {
        let mut touched = 0;
        for map in self.maps.values_mut() {
            let before = map.len();
            map.retain(|(_, publisher), _| *publisher != id);
            touched += usize::from(map.len() != before);
        }
        touched
    }

    /// Drops lapsed records everywhere; returns how many were dropped.
    pub fn expire(&mut self, now: SimTime) -> usize {
        let mut dropped = 0;
        for map in self.maps.values_mut() {
            let before = map.len();
            map.retain(|_, (_, expiry)| now < *expiry);
            dropped += before - map.len();
        }
        dropped
    }

    /// The Table-1 lookup against the map of `region`: scan outward from
    /// the query's landmark number (up to `overscan` records per side),
    /// rank live candidates by full-vector distance, return up to `max`.
    /// The querying node never appears in its own results.
    pub fn lookup(
        &self,
        region: PrefixKey,
        query: &PeerRecord,
        max: usize,
        overscan: usize,
        now: SimTime,
    ) -> Vec<PeerRecord> {
        let Some(map) = self.maps.get(&region) else {
            return Vec::new();
        };
        let pivot = (query.number.value(), 0u64);
        let mut candidates: Vec<&PeerRecord> = Vec::new();
        candidates.extend(
            map.range(pivot..)
                .take(overscan)
                .filter(|(_, (_, expiry))| now < *expiry)
                .map(|(_, (r, _))| r),
        );
        candidates.extend(
            map.range(..pivot)
                .rev()
                .take(overscan)
                .filter(|(_, (_, expiry))| now < *expiry)
                .map(|(_, (r, _))| r),
        );
        candidates.retain(|r| r.id != query.id);
        let mut ranked = Vec::new();
        let by_position = candidates.iter().enumerate();
        query.vector.nearest(
            by_position.map(|(i, r)| (&r.vector, r.id, i)),
            max,
            &mut ranked,
        );
        ranked
            .iter()
            .map(|&(_, _, i)| candidates[i].clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tao_landmark::{LandmarkGrid, LandmarkVector};
    use tao_topology::NodeIdx;
    use tao_util::time::SimDuration;

    fn config() -> SoftStateConfig {
        let grid = LandmarkGrid::new(3, 5, SimDuration::from_millis(320)).expect("valid grid");
        SoftStateConfig::builder(grid).build()
    }

    fn record(id: PastryId, millis: [f64; 3], cfg: &SoftStateConfig) -> PeerRecord {
        let vector = LandmarkVector::from_millis(&millis);
        let number = cfg.grid().landmark_number(&vector, cfg.curve());
        PeerRecord {
            id,
            underlay: NodeIdx(id as u32 & 0xFFFF),
            vector,
            number,
        }
    }

    #[test]
    fn prefix_keys_nest_and_cover() {
        let id: PastryId = 0xAB12_0000_0000_0000;
        let p1 = PrefixKey::of(id, 1);
        let p2 = PrefixKey::of(id, 2);
        assert_eq!(p1.bits, 0xA000_0000_0000_0000);
        assert_eq!(p2.bits, 0xAB00_0000_0000_0000);
        assert!(p1.covers(id));
        assert!(p2.covers(id));
        assert!(!p2.covers(0xAC00_0000_0000_0000));
        assert!(p1.covers(0xAC00_0000_0000_0000));
    }

    #[test]
    fn publish_writes_one_map_per_prefix_length() {
        let cfg = config();
        let mut s = PrefixState::new(cfg, 3);
        let written = s.publish(
            record(0xAB12_0000_0000_0000, [10.0, 20.0, 30.0], &cfg),
            SimTime::ORIGIN,
        );
        assert_eq!(written, 3);
        assert_eq!(s.map_count(), 3);
        assert_eq!(s.total_entries(), 3);
    }

    #[test]
    fn siblings_share_shallow_maps_only() {
        let cfg = config();
        let mut s = PrefixState::new(cfg, 2);
        s.publish(
            record(0xAA00_0000_0000_0000, [10.0, 20.0, 30.0], &cfg),
            SimTime::ORIGIN,
        );
        s.publish(
            record(0xAB00_0000_0000_0000, [11.0, 21.0, 31.0], &cfg),
            SimTime::ORIGIN,
        );
        // Same first digit: shared len-1 map plus two distinct len-2 maps.
        assert_eq!(s.map_count(), 3);
    }

    #[test]
    fn lookup_ranks_by_vector_and_respects_region() {
        let cfg = config();
        let mut s = PrefixState::new(cfg, 2);
        let near = record(0xA100_0000_0000_0000, [10.0, 40.0, 90.0], &cfg);
        let far = record(0xA200_0000_0000_0000, [300.0, 310.0, 305.0], &cfg);
        let other_region = record(0xB100_0000_0000_0000, [10.0, 40.0, 90.0], &cfg);
        for r in [&near, &far, &other_region] {
            s.publish(r.clone(), SimTime::ORIGIN);
        }
        let query = record(0xA900_0000_0000_0000, [12.0, 41.0, 88.0], &cfg);
        let region = PrefixKey::of(query.id, 1); // all of 0xA…
        let found = s.lookup(region, &query, 5, 32, SimTime::ORIGIN);
        assert_eq!(found.len(), 2, "0xB… node must not appear");
        assert_eq!(found[0].id, near.id);
    }

    #[test]
    fn expiry_and_removal() {
        let cfg = config();
        let mut s = PrefixState::new(cfg, 2);
        let r = record(0xCC00_0000_0000_0000, [10.0, 20.0, 30.0], &cfg);
        s.publish(r.clone(), SimTime::ORIGIN);
        assert_eq!(s.remove(r.id), 2);
        s.publish(r.clone(), SimTime::ORIGIN);
        let later = SimTime::ORIGIN + cfg.ttl() + SimDuration::from_secs(1);
        assert_eq!(s.expire(later), 2);
        let region = PrefixKey::of(r.id, 1);
        assert!(s.lookup(region, &r, 5, 32, later).is_empty());
    }

    #[test]
    fn missing_region_is_empty() {
        let cfg = config();
        let s = PrefixState::new(cfg, 2);
        let q = record(0xDD00_0000_0000_0000, [1.0, 2.0, 3.0], &cfg);
        assert!(s
            .lookup(PrefixKey::of(q.id, 1), &q, 5, 32, SimTime::ORIGIN)
            .is_empty());
    }
}
