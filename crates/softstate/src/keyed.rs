//! Global soft-state on an id-keyed overlay: the appendix's mappings for
//! Chord and Pastry, written once.
//!
//! Chord: "we can simply use the landmark number as the key to store the
//! information of [a] node on a node whose ID is equal to or greater than
//! the landmark number". Pastry: "a region is a set of nodes sharing a
//! particular prefix … (For Pastry, there is one map for [each] nodeId
//! prefix)". Both are one rule over a [`PrefixKey`] region, the empty
//! prefix being the whole ring:
//!
//! * **placement** — a record sits at its landmark number's fraction of the
//!   region's id range, so nodes with close numbers store their records
//!   close together;
//! * **hosting** — its host is the first region member at or after that
//!   position, wrapping inside the region: Chord's successor rule, applied
//!   per prefix;
//! * **lookup** — land on the querier's host and widen member by member,
//!   reading each host's share as one range of the position-ordered map,
//!   then rank by full landmark vector.

use std::collections::BTreeMap;
use std::ops::{Bound, RangeInclusive};

use tao_landmark::LandmarkNumber;
use tao_overlay::keyed::{KeyedOverlay, PeerId};
use tao_overlay::pastry::{DIGITS, DIGIT_BITS};
use tao_util::det::DetMap;
use tao_util::time::SimTime;

use crate::config::SoftStateConfig;
use crate::entry::PeerRecord;

/// One region: the ids whose first `len` digits are those of `bits`.
/// Length 0 is the whole ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PrefixKey {
    /// Number of significant leading digits.
    pub len: u32,
    /// The id with all non-prefix digits cleared.
    pub bits: u64,
}

impl PrefixKey {
    /// The whole identifier ring.
    pub const WHOLE: PrefixKey = PrefixKey { len: 0, bits: 0 };

    /// The prefix of `id` with `len` digits.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds [`DIGITS`].
    pub fn of(id: PeerId, len: u32) -> Self {
        assert!(len <= DIGITS, "prefix length out of range");
        PrefixKey {
            len,
            bits: id & !free_bits(len),
        }
    }

    /// `true` if `id` lies under this prefix.
    pub fn covers(&self, id: PeerId) -> bool {
        PrefixKey::of(id, self.len) == *self
    }

    /// The region's ids.
    fn ids(&self) -> RangeInclusive<PeerId> {
        self.bits..=self.bits | free_bits(self.len)
    }
}

/// The low bits a prefix of `len` digits leaves free.
fn free_bits(len: u32) -> u64 {
    u64::MAX.checked_shr(len * DIGIT_BITS).unwrap_or(0)
}

/// One region's map: `(position, publisher)` → `(record, expiry)`.
type Map = BTreeMap<(PeerId, PeerId), (PeerRecord, SimTime)>;

/// The soft-state store of an id-keyed overlay: one position-ordered map
/// per region of every prefix length it keeps.
///
/// # Example
///
/// See the `generality` benchmark binary and the tests below.
#[derive(Debug, Clone)]
pub struct KeyedState {
    config: SoftStateConfig,
    depths: RangeInclusive<u32>,
    maps: DetMap<PrefixKey, Map>,
}

impl KeyedState {
    /// Creates an empty store that publishes a record into the region of
    /// each prefix length in `depths`: `0..=0` is one ring-wide map (Chord),
    /// `1..=log16 N + 1` one map per nodeId prefix (Pastry; deeper prefixes
    /// hold single nodes).
    ///
    /// # Panics
    ///
    /// Panics if `depths` is empty or reaches past [`DIGITS`].
    pub fn new(config: SoftStateConfig, depths: RangeInclusive<u32>) -> Self {
        assert!(
            !depths.is_empty() && *depths.end() <= DIGITS,
            "prefix depths must be a non-empty range in 0..=DIGITS"
        );
        KeyedState {
            config,
            depths,
            maps: DetMap::new(),
        }
    }

    /// The prefix lengths that get maps.
    pub fn depths(&self) -> RangeInclusive<u32> {
        self.depths.clone()
    }

    /// Total records across all maps.
    pub fn len(&self) -> usize {
        self.maps.values().map(BTreeMap::len).sum()
    }

    /// `true` if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.maps.values().all(BTreeMap::is_empty)
    }

    /// Where a record of landmark number `number` sits in `region`: the
    /// number's fraction of the curve, scaled onto the region's ids. On the
    /// whole ring this is the number's Chord key.
    fn position(&self, region: PrefixKey, number: LandmarkNumber) -> PeerId {
        let fraction = number.as_fraction(self.config.grid().number_bits());
        let width = 2f64.powi(((DIGITS - region.len) * DIGIT_BITS) as i32);
        region.bits | ((fraction * width) as u64).min(free_bits(region.len))
    }

    /// Publishes (or refreshes) `record` into the map of each of its
    /// prefixes the store keeps.
    pub fn publish(&mut self, record: PeerRecord, now: SimTime) {
        let expiry = now + self.config.ttl();
        for len in self.depths() {
            let region = PrefixKey::of(record.id, len);
            let at = self.position(region, record.number);
            let map = self.maps.entry(region).or_default();
            map.insert((at, record.id), (record.clone(), expiry));
        }
    }

    /// Withdraws every record published by `id` (proactive departure).
    /// Returns how many were removed.
    pub fn remove(&mut self, id: PeerId) -> usize {
        self.drop_where(|publisher, _| publisher == id)
    }

    /// Drops lapsed records; returns how many.
    pub fn expire(&mut self, now: SimTime) -> usize {
        self.drop_where(|_, expiry| now >= expiry)
    }

    /// Drops every record whose `(publisher, expiry)` matches; returns how
    /// many.
    fn drop_where(&mut self, doomed: impl Fn(PeerId, SimTime) -> bool) -> usize {
        let before = self.len();
        for map in self.maps.values_mut() {
            map.retain(|&(_, publisher), &mut (_, expiry)| !doomed(publisher, expiry));
        }
        before - self.len()
    }

    /// The hosted lookup in `region`'s map: land on the host of `query`'s
    /// position, take the live records it hosts, and widen to the next
    /// region member until `max` candidates are found or `max_hosts` hosts
    /// have been consulted. Candidates are ranked by full landmark-vector
    /// distance, nearest first, one per publisher; the querying node is
    /// excluded.
    pub fn lookup(
        &self,
        region: PrefixKey,
        query: &PeerRecord,
        max: usize,
        max_hosts: usize,
        overlay: &impl KeyedOverlay,
        now: SimTime,
    ) -> Vec<PeerRecord> {
        let Some(map) = self.maps.get(&region) else {
            return Vec::new();
        };
        let at = self.position(region, query.number);
        // The first host's share starts past its predecessor: the last
        // member before `at`, or, wrapping, the region's last member.
        let Some(mut from) = hosts_from(overlay, region, at).next_back() else {
            return Vec::new();
        };
        let mut candidates: Vec<&PeerRecord> = Vec::new();
        for host in hosts_from(overlay, region, at).take(max_hosts.max(1)) {
            // `host`'s share: the positions in `(from, host]`, wrapping past
            // the region's end when `from` is not below `host`.
            let (past, upto) = (
                Bound::Excluded((from, PeerId::MAX)),
                Bound::Included((host, PeerId::MAX)),
            );
            let wraps = from >= host;
            let head = (past, if wraps { Bound::Unbounded } else { upto });
            let tail = wraps.then_some((Bound::Unbounded, upto));
            for share in std::iter::once(head).chain(tail) {
                let live = map.range(share).map(|(_, entry)| entry);
                let live = live.filter(|(r, expiry)| now < *expiry && r.id != query.id);
                candidates.extend(live.map(|(r, _)| r));
            }
            if candidates.len() >= max {
                break;
            }
            from = host;
        }
        rank(query, &candidates, max)
    }

    /// Records of `region`'s map per hosting member — the hosting burden;
    /// every member of the region is listed.
    pub fn records_per_host(
        &self,
        region: PrefixKey,
        overlay: &impl KeyedOverlay,
    ) -> DetMap<PeerId, usize> {
        let mut out: DetMap<PeerId, usize> =
            overlay.ids_in(region.ids()).map(|id| (id, 0)).collect();
        let keys = self.maps.get(&region).into_iter().flat_map(BTreeMap::keys);
        for &(at, _) in keys {
            if let Some(host) = hosts_from(overlay, region, at).next() {
                *out.entry(host).or_default() += 1;
            }
        }
        out
    }
}

/// The members of `region` from the host of position `at` on — the first
/// at or after it — wrapping inside the region.
fn hosts_from(
    overlay: &impl KeyedOverlay,
    region: PrefixKey,
    at: PeerId,
) -> impl DoubleEndedIterator<Item = PeerId> + '_ {
    let (lo, hi) = region.ids().into_inner();
    overlay.ids_in(at..=hi).chain(overlay.ids_in(lo..at))
}

/// `candidates` ranked by full landmark-vector distance from `query`,
/// nearest first, one record per publisher, cut at `max`.
fn rank(query: &PeerRecord, candidates: &[&PeerRecord], max: usize) -> Vec<PeerRecord> {
    // Rank everything: a publisher's records are deduplicated after
    // ranking, so the cut at `max` cannot be made before it.
    let mut ranked = Vec::new();
    let by_position = candidates.iter().enumerate();
    query.vector.nearest(
        by_position.map(|(i, r)| (&r.vector, r.id, i)),
        usize::MAX,
        &mut ranked,
    );
    ranked.dedup_by_key(|&mut (_, id, _)| id);
    let nearest = ranked
        .iter()
        .take(max)
        .filter_map(|&(_, _, i)| candidates.get(i));
    nearest.map(|&r| r.clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tao_landmark::{LandmarkGrid, LandmarkVector};
    use tao_overlay::chord::ChordOverlay;
    use tao_overlay::pastry::PastryOverlay;
    use tao_overlay::select::RandomSelector;
    use tao_topology::NodeIdx;
    use tao_util::check::for_all;
    use tao_util::rand::rngs::StdRng;
    use tao_util::rand::Rng;
    use tao_util::time::SimDuration;
    use tao_util::{check, check_eq};

    fn config() -> SoftStateConfig {
        let grid = LandmarkGrid::new(3, 5, SimDuration::from_millis(320)).expect("valid grid");
        SoftStateConfig::builder(grid).build()
    }

    fn record(id: PeerId, millis: [f64; 3], cfg: &SoftStateConfig) -> PeerRecord {
        let vector = LandmarkVector::from_millis(&millis);
        let number = cfg.grid().landmark_number(&vector, cfg.curve());
        PeerRecord {
            id,
            underlay: NodeIdx(id as u32 & 0xFFFF),
            vector,
            number,
        }
    }

    fn small_ring(n: u64) -> ChordOverlay {
        let mut ring = ChordOverlay::new();
        for i in 0..n {
            ring.join(NodeIdx(i as u32), i * (u64::MAX / n));
        }
        ring.reselect(&mut RandomSelector::new(1));
        ring
    }

    fn overlay_of(ids: &[PeerId]) -> PastryOverlay {
        let mut pastry = PastryOverlay::default();
        for (i, &id) in ids.iter().enumerate() {
            pastry.join(NodeIdx(i as u32), id);
        }
        pastry
    }

    /// The reference lookup: for each host, scan every record of the map
    /// and keep the ones whose successor in the region is that host.
    fn lookup_by_scan(
        state: &KeyedState,
        region: PrefixKey,
        query: &PeerRecord,
        (max, max_hosts): (usize, usize),
        overlay: &impl KeyedOverlay,
        now: SimTime,
    ) -> Vec<PeerRecord> {
        let members: Vec<PeerId> = overlay.node_ids().filter(|&m| region.covers(m)).collect();
        let successor = |key: PeerId| {
            let at_or_after = members.iter().find(|&&m| m >= key);
            at_or_after.or(members.first()).copied()
        };
        let Some(map) = state.maps.get(&region) else {
            return Vec::new();
        };
        let Some(mut host) = successor(state.position(region, query.number)) else {
            return Vec::new();
        };
        let mut candidates: Vec<&PeerRecord> = Vec::new();
        let mut consulted = 0usize;
        while consulted < max_hosts.max(1) {
            for (&(key, _), (record, expiry)) in map {
                if now >= *expiry || record.id == query.id {
                    continue;
                }
                if successor(key) == Some(host) {
                    candidates.push(record);
                }
            }
            consulted += 1;
            if candidates.len() >= max || members.len() <= consulted {
                break;
            }
            let Some(next) = successor(host.wrapping_add(1)) else {
                break;
            };
            host = next;
        }
        rank(query, &candidates, max)
    }

    /// An id under one of `stems`' prefixes of 0 to 4 digits, so regions of
    /// every depth hold zero, one or several members.
    fn clustered(rng: &mut StdRng, stems: &[PeerId]) -> PeerId {
        let stem = stems[rng.gen_range(0..stems.len())];
        let free = free_bits(rng.gen_range(0..=4));
        stem & !free | rng.gen::<u64>() & free
    }

    #[test]
    fn the_hosted_lookup_equals_a_scan_of_every_record_per_host() {
        for_all("hosted_lookup_equals_scan", 64, |rng| {
            let cfg = config();
            let mut state = KeyedState::new(cfg, 0..=DIGITS);
            let stems: Vec<PeerId> = (0..3).map(|_| rng.gen()).collect();
            let vectors: Vec<[f64; 3]> = (0..rng.gen_range(1..40))
                .map(|_| [(); 3].map(|_| rng.gen_range(0.0..320.0)))
                .collect();
            let vector = |rng: &mut StdRng| vectors[rng.gen_range(0..vectors.len())];
            // Half the members sit on a record's position in some region,
            // or next to it, so shares are cut exactly at their bounds.
            let mut ids: Vec<PeerId> = (0..rng.gen_range(0..24))
                .map(|_| {
                    let id = clustered(rng, &stems);
                    if rng.gen_bool(0.5) {
                        return id;
                    }
                    let region = PrefixKey::of(id, rng.gen_range(0..=4));
                    let at = state.position(region, record(0, vector(rng), &cfg).number);
                    at.wrapping_add(rng.gen_range(0..3)).wrapping_sub(1)
                })
                .collect();
            ids.sort_unstable();
            ids.dedup();
            let (mut ring, pastry) = (ChordOverlay::new(), overlay_of(&ids));
            for (i, &id) in ids.iter().enumerate() {
                ring.join(NodeIdx(i as u32), id);
            }
            let ttl = cfg.ttl();
            let draw = |rng: &mut StdRng| {
                let id = match ids.len() {
                    0 => clustered(rng, &stems),
                    n if rng.gen_bool(0.8) => ids[rng.gen_range(0..n)],
                    _ => clustered(rng, &stems),
                };
                record(id, vector(rng), &cfg)
            };
            for _ in 0..rng.gen_range(0..40) {
                let record = draw(rng);
                let at = SimTime::ORIGIN + ttl * rng.gen_range(0..3) / 2;
                state.publish(record, at);
            }
            let now = SimTime::ORIGIN + ttl * rng.gen_range(0..4) / 2;
            let query = draw(rng);
            let anchor = if rng.gen_bool(0.5) {
                query.id
            } else {
                rng.gen()
            };
            for len in 0..=DIGITS {
                let region = PrefixKey::of(anchor, len);
                let width = (rng.gen_range(0..12), rng.gen_range(0..6));
                let got = state.lookup(region, &query, width.0, width.1, &ring, now);
                let want = lookup_by_scan(&state, region, &query, width, &ring, now);
                check_eq!(got, want, "chord, region {region:x?}, width {width:?}");
                let got = state.lookup(region, &query, width.0, width.1, &pastry, now);
                check_eq!(got, want, "pastry, region {region:x?}, width {width:?}");
                let burden = state.records_per_host(region, &ring);
                let stored = state.maps.get(&region).map_or(0, BTreeMap::len);
                check!(burden.is_empty() || burden.values().sum::<usize>() == stored);
            }
        });
    }

    #[test]
    fn positions_preserve_number_order() {
        let s = KeyedState::new(config(), 0..=2);
        let numbers = [100, 200, 20_000].map(LandmarkNumber::new);
        let region = PrefixKey::of(0xAB12_0000_0000_0000, 2);
        for r in [PrefixKey::WHOLE, region] {
            let [a, b, c] = numbers.map(|n| s.position(r, n));
            assert!(a < b && b < c);
            assert!([a, b, c].iter().all(|&p| r.covers(p)));
        }
        // On the whole ring, a number's position is its Chord key.
        let fraction = numbers[1].as_fraction(config().grid().number_bits());
        let key = (fraction * 2f64.powi(64)) as u64;
        assert_eq!(s.position(PrefixKey::WHOLE, numbers[1]), key);
    }

    #[test]
    fn publish_lookup_finds_vector_nearest() {
        let cfg = config();
        let mut s = KeyedState::new(cfg, 0..=0);
        let ring = small_ring(16);
        let near = record(1, [10.0, 40.0, 90.0], &cfg);
        let far = record(2, [300.0, 310.0, 305.0], &cfg);
        s.publish(near.clone(), SimTime::ORIGIN);
        s.publish(far, SimTime::ORIGIN);
        let query = record(99, [12.0, 41.0, 88.0], &cfg);
        let found = s.lookup(PrefixKey::WHOLE, &query, 1, 16, &ring, SimTime::ORIGIN);
        assert_eq!(found, vec![near]);
    }

    #[test]
    fn lookup_excludes_the_querying_node_and_expired() {
        let cfg = config();
        let mut s = KeyedState::new(cfg, 0..=0);
        let ring = small_ring(8);
        let whole = PrefixKey::WHOLE;
        let mine = record(5, [10.0, 40.0, 90.0], &cfg);
        s.publish(mine.clone(), SimTime::ORIGIN);
        let found = s.lookup(whole, &mine, 5, 8, &ring, SimTime::ORIGIN);
        assert!(found.is_empty(), "own record must not come back");
        let other = record(6, [10.0, 40.0, 90.0], &cfg);
        s.publish(other, SimTime::ORIGIN);
        let later = SimTime::ORIGIN + cfg.ttl() + SimDuration::from_secs(1);
        assert!(s.lookup(whole, &mine, 5, 8, &ring, later).is_empty());
        assert_eq!(s.expire(later), 2);
    }

    #[test]
    fn widening_reaches_records_on_later_hosts() {
        let cfg = config();
        let mut s = KeyedState::new(cfg, 0..=0);
        let ring = small_ring(8);
        // Two records with very different numbers: they land on different
        // hosts; a wide lookup still collects both.
        s.publish(record(1, [5.0, 5.0, 5.0], &cfg), SimTime::ORIGIN);
        s.publish(record(2, [300.0, 300.0, 300.0], &cfg), SimTime::ORIGIN);
        let query = record(99, [5.0, 6.0, 7.0], &cfg);
        let whole = PrefixKey::WHOLE;
        let narrow = s.lookup(whole, &query, 2, 1, &ring, SimTime::ORIGIN);
        let wide = s.lookup(whole, &query, 2, 8, &ring, SimTime::ORIGIN);
        assert_eq!((narrow.len(), wide.len()), (1, 2));
    }

    #[test]
    fn remove_withdraws_a_publishers_records() {
        let cfg = config();
        let mut s = KeyedState::new(cfg, 0..=2);
        s.publish(record(1, [10.0, 20.0, 30.0], &cfg), SimTime::ORIGIN);
        s.publish(record(2, [40.0, 50.0, 60.0], &cfg), SimTime::ORIGIN);
        assert_eq!(s.remove(1), 3, "one record per prefix length");
        assert_eq!(s.remove(1), 0);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn hosting_burden_sums_to_total() {
        let cfg = config();
        let mut s = KeyedState::new(cfg, 0..=0);
        let ring = small_ring(8);
        for i in 0..20u64 {
            let millis = [i as f64 * 12.0, 50.0, 90.0];
            s.publish(record(i + 100, millis, &cfg), SimTime::ORIGIN);
        }
        let hosts = s.records_per_host(PrefixKey::WHOLE, &ring);
        assert_eq!(hosts.values().sum::<usize>(), 20);
        assert_eq!(hosts.len(), 8, "every ring node is accounted for");
    }

    #[test]
    fn prefix_keys_nest_and_cover() {
        let id: PeerId = 0xAB12_0000_0000_0000;
        let (p1, p2) = (PrefixKey::of(id, 1), PrefixKey::of(id, 2));
        assert_eq!(p1.bits, 0xA000_0000_0000_0000);
        assert_eq!(p2.bits, 0xAB00_0000_0000_0000);
        assert!(p1.covers(id) && p2.covers(id));
        assert!(!p2.covers(0xAC00_0000_0000_0000));
        assert!(p1.covers(0xAC00_0000_0000_0000));
        assert_eq!(p2.ids(), 0xAB00_0000_0000_0000..=0xABFF_FFFF_FFFF_FFFF);
        assert_eq!(PrefixKey::of(id, 0), PrefixKey::WHOLE);
        assert_eq!(PrefixKey::WHOLE.ids(), 0..=u64::MAX);
        assert_eq!(PrefixKey::of(id, DIGITS).ids(), id..=id);
    }

    #[test]
    fn publish_writes_one_map_per_prefix_length() {
        let cfg = config();
        let mut s = KeyedState::new(cfg, 1..=3);
        let r = record(0xAB12_0000_0000_0000, [10.0, 20.0, 30.0], &cfg);
        s.publish(r, SimTime::ORIGIN);
        assert_eq!((s.maps.len(), s.len()), (3, 3));
    }

    #[test]
    fn siblings_share_shallow_maps_only() {
        let cfg = config();
        let mut s = KeyedState::new(cfg, 1..=2);
        let a = record(0xAA00_0000_0000_0000, [10.0, 20.0, 30.0], &cfg);
        let b = record(0xAB00_0000_0000_0000, [11.0, 21.0, 31.0], &cfg);
        s.publish(a, SimTime::ORIGIN);
        s.publish(b, SimTime::ORIGIN);
        // Same first digit: shared len-1 map plus two distinct len-2 maps.
        assert_eq!(s.maps.len(), 3);
    }

    #[test]
    fn lookup_ranks_by_vector_and_respects_region() {
        let cfg = config();
        let mut s = KeyedState::new(cfg, 1..=2);
        let near = record(0xA100_0000_0000_0000, [10.0, 40.0, 90.0], &cfg);
        let far = record(0xA200_0000_0000_0000, [300.0, 310.0, 305.0], &cfg);
        let other_region = record(0xB100_0000_0000_0000, [10.0, 40.0, 90.0], &cfg);
        let query = record(0xA900_0000_0000_0000, [12.0, 41.0, 88.0], &cfg);
        for r in [&near, &far, &other_region, &query] {
            s.publish(r.clone(), SimTime::ORIGIN);
        }
        let overlay = overlay_of(&[near.id, far.id, other_region.id, query.id]);
        let region = PrefixKey::of(query.id, 1); // all of 0xA…
        let found = s.lookup(region, &query, 5, 3, &overlay, SimTime::ORIGIN);
        assert_eq!(found, vec![near, far], "0xB… node must not appear");
    }

    #[test]
    fn expiry_and_removal() {
        let cfg = config();
        let mut s = KeyedState::new(cfg, 1..=2);
        let r = record(0xCC00_0000_0000_0000, [10.0, 20.0, 30.0], &cfg);
        let q = record(0xC100_0000_0000_0000, [11.0, 20.0, 30.0], &cfg);
        let overlay = overlay_of(&[r.id, q.id]);
        s.publish(r.clone(), SimTime::ORIGIN);
        assert_eq!(s.remove(r.id), 2);
        s.publish(r.clone(), SimTime::ORIGIN);
        let region = PrefixKey::of(r.id, 1);
        let found = s.lookup(region, &q, 5, 2, &overlay, SimTime::ORIGIN);
        assert_eq!(found, vec![r.clone()]);
        let later = SimTime::ORIGIN + cfg.ttl() + SimDuration::from_secs(1);
        assert!(s.lookup(region, &q, 5, 2, &overlay, later).is_empty());
        assert_eq!(s.expire(later), 2);
        assert!(s.is_empty());
    }

    #[test]
    fn missing_region_is_empty() {
        let cfg = config();
        let s = KeyedState::new(cfg, 1..=2);
        let q = record(0xDD00_0000_0000_0000, [1.0, 2.0, 3.0], &cfg);
        let overlay = overlay_of(&[q.id]);
        let region = PrefixKey::of(q.id, 1);
        assert!(s
            .lookup(region, &q, 5, 4, &overlay, SimTime::ORIGIN)
            .is_empty());
    }
}
