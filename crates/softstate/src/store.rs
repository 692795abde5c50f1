//! The global state: every region's map, taken together.
//!
//! Publishing a node writes its [`NodeInfo`] into the map of *every*
//! high-order zone that encloses its CAN zone (§5.1: "each node will appear
//! in a maximum of log(N) such maps"). Lookups name a target region and run
//! the Table-1 procedure against that region's map.
//!
//! The maps sit in an arena, in order of creation; the region index (key →
//! arena slot) is searched only where a map is created or a lookup names a
//! region. Each node keeps the `(map, slot)` handles of its entries, so a
//! refresh, a removal and the expiry sweep address entries directly, and a
//! publish cuts each region's key from the Morton path of the node's zone
//! key, matches it against the node's handles, and searches the index only
//! for a region the node has no entry in yet.

use std::sync::atomic::{AtomicU64, Ordering};

use tao_util::count::Counters;
use tao_util::det::{DetMap, DetSet};

use tao_landmark::LandmarkNumber;
use tao_overlay::ecan::EcanOverlay;
use tao_overlay::{CanOverlay, OverlayNodeId, Zone};
use tao_util::time::SimTime;

use crate::config::SoftStateConfig;
use crate::entry::NodeInfo;
use crate::map::{unit_position_into, ZoneMap};
use crate::region::{aligned_cube, RegionKey};

/// The next [`GlobalState`] version. Process-wide, so no two states ever
/// share one: a [`LookupScratch`] carried from one state to another (or to
/// a clone since written) finds its stamp stale. Compared for equality
/// only, and publishes no other data — hence `Relaxed`.
static NEXT_VERSION: AtomicU64 = AtomicU64::new(0);

/// All per-region proximity maps of one overlay.
///
/// # Example
///
/// See the [crate documentation](crate) and the `global_state_lookup`
/// integration test.
#[derive(Debug, Clone)]
pub struct GlobalState {
    config: SoftStateConfig,
    /// The maps with their regions' keys, in order of creation (a map's
    /// handle), and their handles by region.
    maps: Vec<(RegionKey, ZoneMap)>,
    index: DetMap<RegionKey, u32>,
    /// Per node id, the `(map, slot)` of each of its entries, in the order
    /// the maps first listed it: how the writes address them.
    handles: Vec<Vec<(u32, u32)>>,
    tally: Tally,
    /// Renewed by every write: what a [`LookupScratch`] stamps its
    /// remembered fragments with.
    version: u64,
}

// The names of `GlobalState::counts`, and the indexes into them.
tao_util::counters! { pub(crate) COUNTS:
    PUBLISHES = "publish_calls", REFRESHES = "refresh_calls", REMOVES = "remove_calls",
    EXPIRES = "expire_calls", CREATED = "entries_created", RESTAMPED = "entries_restamped",
    POPPED = "stamps_popped", REARMED = "stamps_rearmed", SEARCHES = "index_searches",
    OUTSIDE = "restamped_outside",
}
/// The store's counter block.
pub(crate) type Tally = Counters<{ COUNTS.len() }>;

// The names of `LookupScratch::counts`, and the indexes into them.
tao_util::counters! { pub(crate) READS:
    LOOKUPS = "lookups", UNMAPPED = "lookups_unmapped", CANDIDATES = "candidates_ranked",
    WALKS = "fragment_walks", REUSES = "fragment_reuses", WIDENINGS = "ring_widenings",
}

/// The buffers of a hosted lookup ([`GlobalState::lookup_in_hosted_into`]):
/// a caller that keeps one across lookups pays for them once.
///
/// It also remembers, per `(map, host)`, the live slots the host (and,
/// once a query needed them, its widening ring) stores, so queriers that
/// land on the same host share one walk of the position index. What is
/// remembered is valid for exactly as long as nothing it was read from has
/// changed — the state's version, the CAN's membership `(id_bound, len)`
/// over one CAN's history, and `now` — and is dropped on any mismatch, so
/// no answer depends on what the scratch has seen.
#[derive(Debug, Clone, Default)]
pub struct LookupScratch {
    stamp: Option<(u64, usize, usize, SimTime)>,
    /// Keyed by the map's arena handle over the host's id.
    fragments: DetMap<u64, Fragment>,
    /// The fragments' `(slot, node)` pairs, end to end.
    slots: Vec<(u32, OverlayNodeId)>,
    /// The number whose normalised curve position `unit` holds: decoded
    /// once per querier, not once per box it asks about.
    decoded: Option<LandmarkNumber>,
    unit: Vec<f64>,
    landing: Vec<f64>,
    /// The ranked candidates, as packed `(distance, node, slot)` keys.
    ranked: Vec<u128>,
    tally: Reads,
}

/// The lookups' counter block ([`LookupScratch::counts`]).
#[derive(Debug, Clone, Copy)]
struct Reads(Counters<{ READS.len() }>);

impl Default for Reads {
    fn default() -> Self {
        Reads(Counters::new(&READS))
    }
}

/// Where in [`LookupScratch::slots`] one host's live slots for one region
/// lie, and — once walked — those of its CAN neighbors.
#[derive(Debug, Clone, Copy)]
struct Fragment {
    host: (usize, usize),
    ring: Option<(usize, usize)>,
}

impl LookupScratch {
    /// How many host fragments have been walked through this scratch.
    pub fn fragment_walks(&self) -> u64 {
        self.tally.0.get("fragment_walks").unwrap_or(0)
    }

    /// What the lookups through this scratch have done so far, by name.
    pub fn counts(&self) -> &Counters<{ READS.len() }> {
        &self.tally.0
    }
}

impl GlobalState {
    /// Creates an empty global state.
    pub fn new(config: SoftStateConfig) -> Self {
        GlobalState {
            config,
            maps: Vec::new(),
            index: DetMap::new(),
            handles: Vec::new(),
            tally: Tally::new(&COUNTS),
            version: NEXT_VERSION.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// The shared configuration.
    pub fn config(&self) -> &SoftStateConfig {
        &self.config
    }

    /// What the writes have done so far, by name. `restamped_outside`
    /// counts, per publish, the node's entries in maps that no longer
    /// enclose its zone, which its refreshes keep re-stamping.
    pub fn counts(&self) -> &Tally {
        &self.tally
    }

    /// Number of region maps that exist so far.
    pub fn map_count(&self) -> usize {
        self.maps.len()
    }

    /// Total entries across all maps (live or stale).
    pub fn total_entries(&self) -> usize {
        self.maps.iter().map(|(_, m)| m.len()).sum()
    }

    /// Expiry stamps pending across all maps: one per entry, plus those of
    /// entries removed and not yet swept — however often entries refresh.
    pub fn pending_stamps(&self) -> usize {
        self.maps.iter().map(|(_, m)| m.pending_stamps()).sum()
    }

    /// The map for `region`, if any node has published into it.
    pub fn map(&self, region: &Zone) -> Option<&ZoneMap> {
        self.keyed(RegionKey::from_zone(region)?)
    }

    fn keyed(&self, key: RegionKey) -> Option<&ZoneMap> {
        Some(&self.maps.get(*self.index.get(&key)? as usize)?.1)
    }

    /// Publishes `info` into the map of every high-order zone enclosing its
    /// node's CAN zone in `ecan`. Returns how many maps were written — the
    /// message cost of one publish round. Only a region without the node's
    /// entry is looked up in the index, or gets a map.
    // tao-lint: hot
    pub fn publish(&mut self, info: NodeInfo, ecan: &EcanOverlay, now: SimTime) -> usize {
        self.version = NEXT_VERSION.fetch_add(1, Ordering::Relaxed);
        self.tally.add(PUBLISHES, 1);
        let zones = ecan.can().zone_bounds(info.node).ok();
        let (Some((lo, hi)), node) = (zones.and_then(|mut z| z.next()), info.node.0 as usize)
        else {
            return 0;
        };
        if self.handles.len() <= node {
            // tao-lint: allow(alloc-reachability, reason = "a first publish: the handle lists grow to a new node id, a node's list by a map it joins, the arena by a new map")
            self.handles.resize_with(node + 1, Vec::new);
        }
        let (maps, index, tally) = (&mut self.maps, &mut self.index, &mut self.tally);
        let Some(listed) = self.handles.get_mut(node) else {
            return 0;
        };
        let mut written = 0;
        for (level, key) in RegionKey::enclosing_cubes(lo, hi) {
            let at = listed
                .iter()
                .position(|h| maps.get(h.0 as usize).is_some_and(|m| m.0 == key));
            let (m, slot) = match at.and_then(|i| listed.get(i)) {
                Some(&(m, slot)) => (m, Some(slot)),
                None => {
                    let fresh = u32::try_from(maps.len()).unwrap_or(u32::MAX);
                    let m = *index.entry(key).or_insert(fresh);
                    if m == fresh {
                        let region = aligned_cube(lo, hi, level);
                        maps.push((key, ZoneMap::new(region, &self.config)));
                    }
                    (m, None)
                }
            };
            let Some((_, map)) = maps.get_mut(m as usize) else {
                continue;
            };
            // tao-lint: allow(alloc-reachability, reason = "a NodeInfo's landmark vector is shared behind Arcs: a clone copies pointers")
            let (slot, created) = map.upsert_at(slot, info.clone(), now, &self.config);
            tally.add(if created { CREATED } else { RESTAMPED }, 1);
            tally.add(SEARCHES, u64::from(at.is_none()));
            match at.and_then(|i| listed.get_mut(i)) {
                Some(held) => held.1 = slot,
                None => listed.push((m, slot)),
            }
            written += 1;
        }
        tally.add(OUTSIDE, listed.len().saturating_sub(written) as u64);
        written
    }

    /// Removes every entry of `node` (proactive departure, §5.2). Returns
    /// the number of maps touched.
    pub fn remove(&mut self, node: OverlayNodeId) -> usize {
        self.version = NEXT_VERSION.fetch_add(1, Ordering::Relaxed);
        self.tally.add(REMOVES, 1);
        let listed = self.handles.get_mut(node.0 as usize).map(std::mem::take);
        let maps = &mut self.maps;
        let removed = |&(m, slot): &(u32, u32)| {
            let map = maps.get_mut(m as usize);
            map.is_some_and(|(_, map)| map.remove_at(slot, node))
        };
        listed.into_iter().flatten().filter(removed).count()
    }

    /// Refreshes `node`'s TTLs in every map that lists it. Returns the
    /// number of maps touched.
    // tao-lint: hot
    pub fn refresh(&mut self, node: OverlayNodeId, now: SimTime) -> usize {
        self.version = NEXT_VERSION.fetch_add(1, Ordering::Relaxed);
        self.tally.add(REFRESHES, 1);
        let expires_at = now.saturating_add(self.config.ttl());
        let Some(listed) = self.handles.get(node.0 as usize) else {
            return 0;
        };
        let maps = &mut self.maps;
        let touched = listed
            .iter()
            .filter(|&&(m, slot)| {
                maps.get_mut(m as usize)
                    .is_some_and(|(_, map)| map.restamp_at(slot, node, expires_at, None))
            })
            .count();
        self.tally.add(RESTAMPED, touched as u64);
        touched
    }

    /// Expires lapsed entries everywhere; returns how many were dropped.
    pub fn expire(&mut self, now: SimTime) -> usize {
        self.version = NEXT_VERSION.fetch_add(1, Ordering::Relaxed);
        self.tally.add(EXPIRES, 1);
        let (handles, tally) = (&mut self.handles, &mut self.tally);
        let mut dropped = 0;
        for (m, (_, map)) in (0u32..).zip(self.maps.iter_mut()) {
            dropped += map.expire_each(now, tally, |node, slot| {
                if let Some(listed) = handles.get_mut(node.0 as usize) {
                    listed.retain(|&h| h != (m, slot));
                }
            });
        }
        dropped
    }

    /// The distributed lookup of Table 1: hash the query's landmark number
    /// to its position `p'` in `region`, route to the overlay node hosting
    /// `p'`, and consider only the map entries *that host actually stores*.
    /// If fewer than `max` candidates live there, widen the search to the
    /// host's CAN neighbors (the paper's "define a TTL to search outside
    /// y's map content range"). Candidates are ranked by full
    /// landmark-vector distance, and the querying node is never one of
    /// them. A region no node has published into answers nothing.
    ///
    /// This is the faithful model of the condense rate: spreading a map
    /// thin (rate → 1) leaves each host a small fragment and lookups see
    /// fewer candidates; condensing concentrates the map so the landing
    /// host answers with more of it.
    ///
    /// Allocates its buffers and the answer; a caller making many lookups
    /// holds a [`LookupScratch`] and calls
    /// [`GlobalState::lookup_in_hosted_into`].
    pub fn lookup_in_hosted(
        &self,
        region: &Zone,
        query: &NodeInfo,
        max: usize,
        can: &CanOverlay,
        now: SimTime,
    ) -> Vec<NodeInfo> {
        self.lookup_in_hosted_into(&mut LookupScratch::default(), region, query, max, can, now)
            .cloned()
            .collect()
    }

    /// [`GlobalState::lookup_in_hosted`] through the caller's buffers: the
    /// candidates come back borrowed, nearest first, and a warmed `scratch`
    /// makes the lookup allocation-free.
    // tao-lint: hot
    // tao-lint: allow(panic-reachability, reason = "reads zone and position coordinates only for axes below their own dims(); slab slots come from the map's own indexes")
    pub fn lookup_in_hosted_into<'a>(
        &'a self,
        scratch: &'a mut LookupScratch,
        region: &Zone,
        query: &NodeInfo,
        max: usize,
        can: &CanOverlay,
        now: SimTime,
    ) -> impl Iterator<Item = &'a NodeInfo> {
        let handle = RegionKey::from_zone(region).and_then(|key| self.index.get(&key));
        let mapped = handle.and_then(|&m| Some((m, &self.maps.get(m as usize)?.1)));
        let LookupScratch {
            stamp,
            fragments,
            slots,
            decoded,
            unit,
            landing,
            ranked,
            tally: Reads(tally),
        } = scratch;
        tally.add(LOOKUPS, 1);
        tally.add(UNMAPPED, u64::from(mapped.is_none()));
        let hits = mapped.map(|(m, map)| {
            let read_from = Some((self.version, can.id_bound(), can.len(), now));
            if *stamp != read_from {
                *stamp = read_from;
                fragments.clear();
                slots.clear();
                *decoded = None;
            }
            let (dims, me) = (map.region().dims(), query.node);
            if *decoded != Some(query.number) || unit.len() != dims {
                *decoded = Some(query.number);
                unit_position_into(query.number, &self.config, dims, unit);
            }
            landing.clear();
            // tao-lint: allow(alloc-reachability, reason = "caller-held coordinate buffer: sized to the region's dimensionality on first use, then reused")
            landing.extend_from_slice(unit);
            map.scale_into_condensed(landing);
            let found = can.owner_at(landing).map(|host| {
                // A key per (map, host) pair a stamp sees: a warmed pass
                // finds every key present and inserts nothing.
                let memo = u64::from(m) << 32 | u64::from(host.0);
                let mut fresh = false;
                let fragment = fragments.entry(memo).or_insert_with(|| {
                    fresh = true;
                    let from = slots.len();
                    walk(map, can, host, now, slots);
                    Fragment {
                        host: (from, slots.len()),
                        ring: None,
                    }
                });
                tally.add(if fresh { WALKS } else { REUSES }, 1);
                // Never hand a node back itself as a candidate. TTL
                // widening: the ring of CAN neighbors around the host is
                // asked only if the host itself holds fewer than `max`.
                let (from, to) = fragment.host;
                let own = slots[from..to].iter().filter(|s| s.1 != me).count();
                if own < max && fragment.ring.is_none() {
                    tally.add(WIDENINGS, 1);
                    let ring_from = slots.len();
                    let ring = can.neighbor_ids(host).ok().into_iter().flatten();
                    ring.filter(|&&n| n != host)
                        .for_each(|&n| walk(map, can, n, now, slots));
                    fragment.ring = Some((ring_from, slots.len()));
                }
                let (ring_from, ring_to) = fragment.ring.filter(|_| own < max).unwrap_or((to, to));
                let found = slots[from..to].iter().chain(&slots[ring_from..ring_to]);
                found.filter(move |s| s.1 != me)
            });
            // Each candidate's vector is read where its entry keeps it.
            let candidates = found.into_iter().flatten().filter_map(|&(slot, node)| {
                tally.add(CANDIDATES, 1);
                Some((&map.get(slot)?.info.vector, node.0, slot))
            });
            query.vector.nearest(candidates, max, ranked);
            ranked
                .iter()
                .filter_map(|&key| Some(&map.get(key as u32)?.info))
        });
        hits.into_iter().flatten()
    }

    /// Mean map entries among nodes that host at least one entry — the
    /// quantity figure 16 plots against the condense rate.
    pub fn mean_entries_per_hosting_node(&self, can: &CanOverlay) -> f64 {
        let totals = self.entries_per_host(can);
        let hosting: Vec<usize> = totals.values().copied().filter(|&c| c > 0).collect();
        if hosting.is_empty() {
            return 0.0;
        }
        hosting.iter().sum::<usize>() as f64 / hosting.len() as f64
    }

    /// Per-node hosting burden: how many map entries each overlay node
    /// stores (figure 16's dashed line). Nodes hosting nothing are included
    /// with zero so averages are honest.
    pub fn entries_per_host(&self, can: &CanOverlay) -> DetMap<OverlayNodeId, usize> {
        let mut totals: DetMap<OverlayNodeId, usize> = can.live_nodes().map(|id| (id, 0)).collect();
        for map in self.maps() {
            for (host, count) in map.entries_per_host(can) {
                *totals.entry(host).or_insert(0) += count;
            }
        }
        totals
    }

    /// Iterates over the maps, in region-key order.
    pub fn maps(&self) -> impl Iterator<Item = &ZoneMap> {
        let maps = self.index.values().map(|&m| self.maps.get(m as usize));
        maps.flatten().map(|(_, map)| map)
    }

    /// Compares the region maps against ground truth: `members` is the true
    /// live membership (with its current [`NodeInfo`]), and every member
    /// must have a live entry in the map of each high-order zone enclosing
    /// its CAN zone, while no map may hold a live entry for a node outside
    /// the membership. The harness's definition of *converged* after faults
    /// heal and TTL-many maintenance rounds run.
    pub fn convergence_report(
        &self,
        ecan: &EcanOverlay,
        members: &[NodeInfo],
        now: SimTime,
    ) -> ConvergenceReport {
        let live: DetSet<OverlayNodeId> = members.iter().map(|i| i.node).collect();
        let mut missing = 0;
        for info in members {
            for region in ecan.enclosing_high_order_zones(info.node) {
                let present = self
                    .map(&region)
                    .and_then(|m| m.entry_of(info.node))
                    .is_some_and(|e| e.is_live(now));
                if !present {
                    missing += 1;
                }
            }
        }
        let stale = self
            .maps()
            .flat_map(|m| m.live_entries(now))
            .filter(|e| !live.contains(&e.info.node))
            .count();
        ConvergenceReport { missing, stale }
    }

    /// Asserts every map's storage invariants ([`ZoneMap::check_invariants`])
    /// and that the index and the node handles name exactly the maps and
    /// the slots that hold each entry.
    ///
    /// # Panics
    ///
    /// Panics, naming the violation, if an invariant does not hold.
    // tao-lint: allow(panic-reachability, reason = "an invariant checker: panicking on a violation is its contract")
    pub fn check_invariants(&self) {
        for (m, (key, map)) in (0u32..).zip(&self.maps) {
            map.check_invariants();
            assert_eq!(self.index.get(key), Some(&m), "the index misses a map");
        }
        assert_eq!(self.index.len(), self.maps.len(), "a stale index key");
        // Every handle names a slot holding its node, no map twice, so
        // handles as many as the entries name every entry once.
        for (node, listed) in (0u32..).zip(&self.handles) {
            for (i, &(m, slot)) in listed.iter().enumerate() {
                let held = self.maps.get(m as usize).and_then(|(_, map)| map.get(slot));
                assert_eq!(held.map(|e| e.info.node.0), Some(node), "a stale handle");
                assert!(listed[..i].iter().all(|h| h.0 != m), "a map listed twice");
            }
        }
        let handles: usize = self.handles.iter().map(Vec::len).sum();
        assert_eq!(handles, self.total_entries(), "an entry without a handle");
    }
}

/// Appends to `slots` the `(slot, node)` of every live entry of `map` that
/// `host` stores. An entry is stored by a host exactly when its position
/// falls in one of the host's zones, so this is one walk of the position
/// index per zone, not an `owner()` walk per entry.
fn walk(
    map: &ZoneMap,
    can: &CanOverlay,
    host: OverlayNodeId,
    now: SimTime,
    slots: &mut Vec<(u32, OverlayNodeId)>,
) {
    for (lo, hi) in can.zone_bounds(host).into_iter().flatten() {
        // tao-lint: allow(alloc-reachability, reason = "caller-held fragment buffer: grows to the slots of the (region, host) pairs one stamp sees, then is reused")
        map.for_each_live_in(lo, hi, now, |e, slot| slots.push((slot, e.info.node)));
    }
}

/// Divergence of the global state from ground-truth membership, as measured
/// by [`GlobalState::convergence_report`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConvergenceReport {
    /// `(member, region)` pairs where the member has no live entry in the
    /// region's map even though the region encloses its zone.
    pub missing: usize,
    /// Live map entries naming nodes outside the ground-truth membership.
    pub stale: usize,
}

impl ConvergenceReport {
    /// `true` when the maps exactly mirror the membership.
    pub fn is_converged(&self) -> bool {
        self.missing == 0 && self.stale == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::NodeInfo;
    use tao_landmark::{LandmarkGrid, LandmarkVector};
    use tao_overlay::ecan::RandomSelector;
    use tao_overlay::Point;
    use tao_topology::NodeIdx;
    use tao_util::check::for_all;
    use tao_util::check_eq;
    use tao_util::rand::rngs::StdRng;
    use tao_util::rand::seq::SliceRandom;
    use tao_util::rand::{Rng, SeedableRng};
    use tao_util::time::SimDuration;

    fn setup(n: u32) -> (EcanOverlay, GlobalState) {
        setup_seeded(n, 31)
    }

    fn setup_seeded(n: u32, seed: u64) -> (EcanOverlay, GlobalState) {
        let mut can = CanOverlay::new(2).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..n {
            can.join(NodeIdx(i), Point::random(2, &mut rng));
        }
        let ecan = EcanOverlay::build(can, &mut RandomSelector::new(1));
        let grid = LandmarkGrid::new(3, 5, SimDuration::from_millis(320)).unwrap();
        let config = SoftStateConfig::builder(grid).build();
        (ecan, GlobalState::new(config))
    }

    fn info_for(state: &GlobalState, id: u32, millis: [f64; 3]) -> NodeInfo {
        let vector = LandmarkVector::from_millis(&millis);
        let number = state
            .config()
            .grid()
            .landmark_number(&vector, state.config().curve());
        NodeInfo {
            node: OverlayNodeId(id),
            underlay: NodeIdx(id),
            vector,
            number,
            load: None,
        }
    }

    #[test]
    fn publish_writes_at_most_log_n_maps() {
        let (ecan, mut state) = setup(128);
        let info = info_for(&state, 5, [10.0, 50.0, 90.0]);
        let written = state.publish(info, &ecan, SimTime::ORIGIN);
        assert!(written >= 1, "a 128-node overlay has high-order zones");
        assert!(written <= 10, "must stay logarithmic, wrote {written}");
        assert_eq!(state.map_count(), written);
    }

    #[test]
    fn lookup_finds_published_neighbors_and_excludes_self() {
        let (ecan, mut state) = setup(128);
        let a = info_for(&state, 1, [10.0, 50.0, 90.0]);
        let b = info_for(&state, 2, [12.0, 52.0, 88.0]);
        state.publish(a.clone(), &ecan, SimTime::ORIGIN);
        state.publish(b.clone(), &ecan, SimTime::ORIGIN);
        // Query every high-order zone that contains node 1. b may or may
        // not share one, or be stored near the landing host; whatever is
        // found, a is not.
        for region in &ecan.enclosing_high_order_zones(a.node) {
            let found = state.lookup_in_hosted(region, &a, 5, ecan.can(), SimTime::ORIGIN);
            assert!(found.iter().all(|i| i.node != a.node), "no self-candidate");
            assert!(
                found.iter().all(|i| i.node == b.node),
                "only b was published besides a"
            );
        }
    }

    #[test]
    fn remove_and_refresh_touch_every_relevant_map() {
        let (ecan, mut state) = setup(128);
        let info = info_for(&state, 3, [30.0, 60.0, 120.0]);
        let written = state.publish(info, &ecan, SimTime::ORIGIN);
        let refreshed = state.refresh(OverlayNodeId(3), SimTime::ORIGIN);
        assert_eq!(refreshed, written);
        let removed = state.remove(OverlayNodeId(3));
        assert_eq!(removed, written);
        assert_eq!(state.total_entries(), 0);
    }

    #[test]
    fn expire_sweeps_all_maps() {
        let (ecan, mut state) = setup(64);
        let info = info_for(&state, 4, [20.0, 40.0, 60.0]);
        let written = state.publish(info, &ecan, SimTime::ORIGIN);
        let later = SimTime::ORIGIN + state.config().ttl() + SimDuration::from_secs(1);
        assert_eq!(state.expire(later), written);
    }

    #[test]
    fn entries_per_host_covers_all_live_nodes() {
        let (ecan, mut state) = setup(64);
        for i in 0..64u32 {
            let info = info_for(&state, i, [10.0 + i as f64, 50.0, 90.0]);
            state.publish(info, &ecan, SimTime::ORIGIN);
        }
        let hosts = state.entries_per_host(ecan.can());
        assert_eq!(hosts.len(), 64);
        let total: usize = hosts.values().sum();
        assert_eq!(total, state.total_entries());
        assert!(state.mean_entries_per_hosting_node(ecan.can()) > 0.0);
    }

    #[test]
    fn convergence_report_counts_missing_and_stale() {
        let (ecan, mut state) = setup(128);
        let a = info_for(&state, 1, [10.0, 50.0, 90.0]);
        let b = info_for(&state, 2, [12.0, 52.0, 88.0]);
        state.publish(a.clone(), &ecan, SimTime::ORIGIN);
        // a published, b did not: b's regions are all missing it.
        let report = state.convergence_report(&ecan, &[a.clone(), b.clone()], SimTime::ORIGIN);
        assert_eq!(
            report.missing,
            ecan.enclosing_high_order_zones(b.node).len()
        );
        assert_eq!(report.stale, 0);
        assert!(!report.is_converged());
        // Publish b too: converged against {a, b}...
        state.publish(b.clone(), &ecan, SimTime::ORIGIN);
        let report = state.convergence_report(&ecan, &[a.clone(), b], SimTime::ORIGIN);
        assert!(report.is_converged(), "diverged: {report:?}");
        // ...but with b out of the membership its entries are stale.
        let report = state.convergence_report(&ecan, &[a], SimTime::ORIGIN);
        assert!(report.stale > 0);
        assert!(!report.is_converged());
    }

    /// Reference for [`GlobalState::lookup_in_hosted`], over public
    /// accessors only: classifies every live map entry with an `owner()`
    /// tree walk instead of probing the hosts' zones through the map's
    /// position index, and ranks with a full stable sort.
    fn lookup_in_hosted_scan(
        state: &GlobalState,
        region: &Zone,
        query: &NodeInfo,
        max: usize,
        can: &CanOverlay,
        now: SimTime,
    ) -> Vec<NodeInfo> {
        let Some(map) = state.map(region) else {
            return Vec::new();
        };
        let host = can.owner(&map.position_for(query.number, state.config()));
        let mut hosts = vec![host];
        let mut candidates: Vec<&NodeInfo> = Vec::new();
        for widened in [false, true] {
            candidates = map
                .live_entries(now)
                .filter(|e| e.info.node != query.node && hosts.contains(&can.owner(&e.position)))
                .map(|e| &e.info)
                .collect();
            if candidates.len() >= max || widened {
                break;
            }
            hosts.extend(can.neighbors(host).unwrap());
        }
        candidates.sort_by(|a, b| {
            let da = query.vector.euclidean_ms(&a.vector);
            let db = query.vector.euclidean_ms(&b.vector);
            da.partial_cmp(&db).unwrap().then(a.node.cmp(&b.node))
        });
        candidates.into_iter().take(max).cloned().collect()
    }

    #[test]
    fn hosted_lookup_matches_the_owner_walk_oracle() {
        for_all("hosted_lookup_matches_the_owner_walk_oracle", 64, |rng| {
            let mut can = CanOverlay::new(2).unwrap();
            for i in 0..rng.gen_range(2..80u32) {
                can.join(NodeIdx(i), Point::random(2, rng));
            }
            let mut ecan = EcanOverlay::build(can, &mut RandomSelector::new(rng.gen()));
            let grid = LandmarkGrid::new(15, 4, SimDuration::from_millis(320)).unwrap();
            let config = SoftStateConfig::builder(grid).build();
            let mut state = GlobalState::new(config);
            // A few 15-landmark vectors shared by many nodes: equal
            // distances are common and must break by node id.
            let pool: Vec<LandmarkVector> = (0..rng.gen_range(1..6))
                .map(|_| {
                    let millis = [(); 15].map(|_| f64::from(rng.gen_range(0..320u32)));
                    LandmarkVector::from_millis(&millis)
                })
                .collect();
            let info = |rng: &mut StdRng, id: u32| {
                let vector = pool[rng.gen_range(0..pool.len())].clone();
                let number = config.grid().landmark_number(&vector, config.curve());
                NodeInfo {
                    node: OverlayNodeId(id),
                    underlay: NodeIdx(id),
                    vector,
                    number,
                    load: None,
                }
            };
            let ttl = config.ttl();
            let members: Vec<OverlayNodeId> = ecan.can().live_nodes().collect();
            // Published in a shuffled order, so slot order is not id order.
            let mut order = members.clone();
            order.shuffle(rng);
            for &node in &order {
                let published = info(rng, node.0);
                state.publish(published, &ecan, SimTime::ORIGIN);
            }
            // Churn: departures leave takeover zones and stale entries.
            for &node in &members {
                if ecan.can().len() > 1 && rng.gen_bool(0.3) {
                    let _ = ecan.depart(node);
                }
            }
            let half = SimTime::ORIGIN + ttl / 2;
            for &node in &members {
                match rng.gen_range(0..4) {
                    0 => {
                        state.refresh(node, half);
                    }
                    1 => {
                        state.remove(node);
                    }
                    _ => {}
                }
            }
            state.check_invariants();
            let regions: Vec<Zone> = state.maps().map(|m| m.region().clone()).collect();
            let lapsed = SimTime::ORIGIN + ttl + SimDuration::from_micros(1);
            // One scratch across queriers, regions and clock readings.
            let mut scratch = LookupScratch::default();
            for now in [half, lapsed, half] {
                for _ in 0..rng.gen_range(1..12) {
                    // A member, which never answers itself, or an outsider.
                    let querier = members[rng.gen_range(0..members.len())].0;
                    let outsider = rng.gen_range(0..2) * 1_000;
                    let query = info(rng, querier + outsider);
                    let region = if regions.is_empty() || rng.gen_bool(0.1) {
                        Zone::whole(2)
                    } else {
                        regions[rng.gen_range(0..regions.len())].clone()
                    };
                    for max in [0, 1, 10, usize::MAX] {
                        let can = ecan.can();
                        let fast = state.lookup_in_hosted_into(
                            &mut scratch,
                            &region,
                            &query,
                            max,
                            can,
                            now,
                        );
                        let fast: Vec<NodeInfo> = fast.cloned().collect();
                        let slow = lookup_in_hosted_scan(&state, &region, &query, max, can, now);
                        check_eq!(fast, slow, "region {region:?} q={} max={max}", query.node);
                    }
                }
            }
        });
    }

    #[test]
    fn lookup_counts_follow_a_scripted_sequence() {
        let (ecan, mut state) = setup(128);
        for i in 0..128u32 {
            let info = info_for(&state, i, [5.0 + f64::from(i % 16) * 7.0, 60.0, 140.0]);
            state.publish(info, &ecan, SimTime::ORIGIN);
        }
        let mut scratch = LookupScratch::default();
        let count = |s: &LookupScratch, name| s.counts().get(name).unwrap();
        let region = ecan.enclosing_high_order_zones(OverlayNodeId(0))[0].clone();
        let lookup = |scratch: &mut LookupScratch, id, max, state: &GlobalState| {
            let query = info_for(state, id, [40.0, 60.0, 140.0]);
            let found = state.lookup_in_hosted_into(
                scratch,
                &region,
                &query,
                max,
                ecan.can(),
                SimTime::ORIGIN,
            );
            found.count() as u64
        };
        // Two queriers with one number land on one host: one walk, one
        // reuse. Asking for everything widens to the host's ring once.
        let first = lookup(&mut scratch, 1_000, usize::MAX, &state);
        let second = lookup(&mut scratch, 1_001, usize::MAX, &state);
        assert!(first > 0 && first == second);
        let names = [
            "lookups",
            "fragment_walks",
            "fragment_reuses",
            "ring_widenings",
        ];
        assert_eq!(names.map(|n| count(&scratch, n)), [2, 1, 1, 1]);
        assert_eq!(count(&scratch, "candidates_ranked"), first + second);
        // No map, no walk; nothing asked for, nothing ranked.
        let q = info_for(&state, 1_002, [40.0, 60.0, 140.0]);
        let none = state.lookup_in_hosted_into(
            &mut scratch,
            &Zone::whole(2),
            &q,
            5,
            ecan.can(),
            SimTime::ORIGIN,
        );
        assert_eq!(none.count(), 0);
        assert_eq!(lookup(&mut scratch, 1_003, 0, &state), 0);
        assert_eq!(count(&scratch, "lookups_unmapped"), 1);
        assert_eq!(names.map(|n| count(&scratch, n)), [4, 1, 2, 1]);
        assert_eq!(count(&scratch, "candidates_ranked"), first + second);
        // A write renews the state's version: the fragment is walked again.
        state.refresh(OverlayNodeId(3), SimTime::ORIGIN);
        assert_eq!(lookup(&mut scratch, 1_004, usize::MAX, &state), first);
        assert_eq!(names.map(|n| count(&scratch, n)), [5, 2, 2, 2]);
        assert_eq!(scratch.fragment_walks(), 2);
    }

    #[test]
    fn missing_region_lookup_is_empty() {
        let (ecan, state) = setup(16);
        let q = info_for(&state, 0, [10.0, 20.0, 30.0]);
        assert!(state
            .lookup_in_hosted(&Zone::whole(2), &q, 5, ecan.can(), SimTime::ORIGIN)
            .is_empty());
    }

    /// The store's bookkeeping before handles, kept as the reference: every
    /// map found by its region's key, and per node the keys of exactly the
    /// maps that list it, in the order they first did.
    #[derive(Default)]
    struct KeyLists {
        maps: DetMap<RegionKey, ZoneMap>,
        listed: DetMap<OverlayNodeId, Vec<RegionKey>>,
    }

    impl KeyLists {
        fn publish(&mut self, info: &NodeInfo, ecan: &EcanOverlay, now: SimTime) -> usize {
            let config = config();
            let mut written = 0;
            for region in ecan.enclosing_high_order_zones(info.node) {
                let Some(key) = RegionKey::from_zone(&region) else {
                    continue;
                };
                let map = self.maps.entry(key);
                let map = map.or_insert_with(|| ZoneMap::new(region, &config));
                map.publish(info.clone(), now, &config);
                let keys = self.listed.entry(info.node).or_default();
                if !keys.contains(&key) {
                    keys.push(key);
                }
                written += 1;
            }
            written
        }

        fn remove(&mut self, node: OverlayNodeId) -> usize {
            let keys = self.listed.remove(&node).unwrap_or_default();
            keys.iter()
                .filter(|key| self.maps.get_mut(key).is_some_and(|m| m.remove(node)))
                .count()
        }

        fn refresh(&mut self, node: OverlayNodeId, now: SimTime) -> usize {
            let Some(keys) = self.listed.get(&node) else {
                return 0;
            };
            let config = config();
            keys.iter()
                .filter(|key| {
                    let map = self.maps.get_mut(key);
                    map.is_some_and(|m| m.refresh(node, now, &config))
                })
                .count()
        }

        fn expire(&mut self, now: SimTime) -> usize {
            let listed = &mut self.listed;
            let mut dropped = 0;
            for (key, map) in self.maps.iter_mut() {
                dropped += map.expire_each(now, &mut Tally::new(&COUNTS), |node, _| {
                    if let Some(keys) = listed.get_mut(&node) {
                        keys.retain(|k| k != key);
                        if keys.is_empty() {
                            listed.remove(&node);
                        }
                    }
                });
            }
            dropped
        }
    }

    fn config() -> SoftStateConfig {
        let grid = LandmarkGrid::new(3, 5, SimDuration::from_millis(320)).unwrap();
        SoftStateConfig::builder(grid)
            .ttl(SimDuration::from_secs(60))
            .build()
    }

    /// Holds `state` to `reference`: its invariants, the same maps under
    /// the same keys, each byte for byte (slab, free list, indexes, wheel),
    /// and every node's handles naming its maps in the reference's order.
    fn assert_keeps(state: &GlobalState, reference: &KeyLists) {
        state.check_invariants();
        assert!(state.index.keys().eq(reference.maps.keys()), "map keys");
        for (key, map) in &reference.maps {
            let same = format!("{:?}", state.keyed(*key)) == format!("{:?}", Some(map));
            assert!(same, "map {key:?} differs from the key-listed one");
        }
        let keys = |h: &Vec<(u32, u32)>| -> Vec<RegionKey> {
            h.iter().map(|&(m, _)| state.maps[m as usize].0).collect()
        };
        let listed = (0u32..).zip(&state.handles).filter(|(_, h)| !h.is_empty());
        let handles_name: Vec<_> = listed.map(|(n, h)| (OverlayNodeId(n), keys(h))).collect();
        let lists: Vec<_> = reference.listed.clone().into_iter().collect();
        assert_eq!(handles_name, lists, "handles vs key lists");
    }

    #[test]
    fn handles_keep_the_key_list_bookkeeping() {
        for_all("handles_keep_the_key_list_bookkeeping", 64, |rng| {
            let dims = rng.gen_range(1..=3usize);
            let mut can = CanOverlay::new(dims).unwrap();
            for i in 0..rng.gen_range(2..32u32) {
                can.join(NodeIdx(i), Point::random(dims, rng));
            }
            let mut ecan = EcanOverlay::build(can, &mut RandomSelector::new(rng.gen()));
            let mut state = GlobalState::new(config());
            let mut reference = KeyLists::default();
            let mut nodes: Vec<OverlayNodeId> = ecan.can().live_nodes().collect();
            let mut now = SimTime::ORIGIN;
            for step in 0..rng.gen_range(10..60u32) {
                let node = nodes[rng.gen_range(0..nodes.len())];
                match rng.gen_range(0..100) {
                    // Three vectors a node: a re-publish under the same
                    // number as often as under a changed one.
                    0..=39 => {
                        let base = f64::from(node.0 % 50) * 5.0 + f64::from(rng.gen_range(0..3u32));
                        let info = info_for(&state, node.0, [base, 300.0 - base, 40.0]);
                        let written = state.publish(info.clone(), &ecan, now);
                        assert_eq!(written, reference.publish(&info, &ecan, now));
                    }
                    40..=59 => {
                        let touched = state.refresh(node, now);
                        assert_eq!(touched, reference.refresh(node, now));
                    }
                    60..=67 => assert_eq!(state.remove(node), reference.remove(node)),
                    68..=81 => {
                        now += SimDuration::from_millis(rng.gen_range(0..45_000));
                        assert_eq!(state.expire(now), reference.expire(now));
                    }
                    82..=91 => {
                        let point = Point::random(dims, rng);
                        nodes.push(ecan.join_unselected(NodeIdx(1_000 + step), point));
                    }
                    _ => {
                        if ecan.can().len() > 1 {
                            // Err: it left earlier; its entries stay.
                            let _ = ecan.depart(node);
                        }
                    }
                }
                assert_keeps(&state, &reference);
            }
        });
    }

    /// Splits `zone` along the tree's next axis `splits` times, keeping a
    /// random half each time: a box of the split tree `splits` deep.
    fn tree_box(dims: usize, splits: u32, rng: &mut StdRng) -> Zone {
        let mut zone = Zone::whole(dims);
        for depth in 0..splits as usize {
            let (lower, upper) = zone.split(depth % dims);
            zone = if rng.gen() { lower } else { upper };
        }
        zone
    }

    #[test]
    fn cut_keys_are_the_keys_of_the_enclosing_zones() {
        for_all("cut_keys_are_the_keys_of_the_enclosing_zones", 256, |rng| {
            let dims = rng.gen_range(1..=5usize);
            let mut can = CanOverlay::new(dims).unwrap();
            for i in 0..rng.gen_range(1..48u32) {
                can.join(NodeIdx(i), Point::random(dims, rng));
            }
            let mut ecan = EcanOverlay::build(can, &mut RandomSelector::new(rng.gen()));
            let live: Vec<OverlayNodeId> = ecan.can().live_nodes().collect();
            for &gone in live.iter().take(rng.gen_range(0..live.len())) {
                let _ = ecan.depart(gone);
            }
            for id in ecan.can().live_nodes() {
                let (lo, hi) = ecan.can().zone_bounds(id).unwrap().next().unwrap();
                let cut: Vec<_> = RegionKey::enclosing_cubes(lo, hi).collect();
                let zones = ecan.enclosing_high_order_zones(id);
                let keyed: Vec<_> = zones.iter().filter_map(RegionKey::from_zone).collect();
                assert_eq!(cut.iter().map(|c| c.1).collect::<Vec<_>>(), keyed, "{id}");
                for ((level, _), zone) in cut.iter().zip(&zones) {
                    assert_eq!(&aligned_cube(lo, hi, *level), zone);
                }
            }
            // Boxes deeper than a key can name (32 splits an axis, 120 in
            // all; f64 bounds stay exact to ~50) against the enclosing cubes
            // `EcanOverlay` would list.
            let zone = tree_box(dims, rng.gen_range(0..=50 * dims as u32), rng);
            let lo: Vec<f64> = (0..dims).map(|a| zone.lo(a)).collect();
            let hi: Vec<f64> = (0..dims).map(|a| zone.hi(a)).collect();
            let finest = (0..dims)
                .map(|a| (-zone.extent(a).log2()).floor() as u32)
                .min()
                .unwrap();
            let cubes = (1..finest)
                .rev()
                .map(|level| zone.enclosing_aligned_box(level));
            let keyed: Vec<_> = cubes.filter_map(|c| RegionKey::from_zone(&c)).collect();
            let cut: Vec<_> = RegionKey::enclosing_cubes(&lo, &hi).map(|c| c.1).collect();
            assert_eq!(cut, keyed, "{zone}");
        });
    }

    #[test]
    fn counts_follow_a_scripted_history() {
        let (ecan, mut state) = setup(128);
        let count = |state: &GlobalState, name| state.counts().get(name).unwrap();
        let node = OverlayNodeId(3);
        let info = info_for(&state, node.0, [30.0, 60.0, 120.0]);
        let k = state.publish(info.clone(), &ecan, SimTime::ORIGIN) as u64;
        assert!(k >= 1);
        assert_eq!(count(&state, "entries_created"), k);
        assert_eq!(count(&state, "index_searches"), k);
        // A refresh of a node listed in k maps: k re-stamps, no search.
        assert_eq!(state.refresh(node, SimTime::ORIGIN) as u64, k);
        state.publish(info.clone(), &ecan, SimTime::ORIGIN);
        assert_eq!(count(&state, "entries_restamped"), 2 * k);
        assert_eq!(count(&state, "index_searches"), k);
        // A changed number recreates each entry in place of the old.
        let moved = info_for(&state, node.0, [200.0, 20.0, 90.0]);
        assert_ne!(moved.number, info.number);
        state.publish(moved.clone(), &ecan, SimTime::ORIGIN);
        assert_eq!(count(&state, "entries_created"), 2 * k);
        assert_eq!(count(&state, "index_searches"), k);
        assert_eq!(count(&state, "restamped_outside"), 0);
        // The same id in another overlay lies in other regions: it is
        // searched for and filed in the new ones, and the entries it keeps
        // in the maps that no longer enclose it are counted.
        let (other, _) = setup_seeded(128, 32);
        let keys = |e: &EcanOverlay| -> DetSet<RegionKey> {
            let zones = e.enclosing_high_order_zones(node);
            zones.iter().filter_map(RegionKey::from_zone).collect()
        };
        let (here, there) = (keys(&ecan), keys(&other));
        let outside = here.difference(&there).count() as u64;
        let new = there.difference(&here).count() as u64;
        assert!(outside > 0 && new > 0, "seeds that move the node");
        let written = state.publish(moved, &other, SimTime::ORIGIN);
        assert_eq!(written, there.len());
        assert_eq!(count(&state, "index_searches"), k + new);
        assert_eq!(count(&state, "entries_created"), 2 * k + new);
        assert_eq!(count(&state, "restamped_outside"), outside);
        // Stamps: k first, k for the recreated entries and `new` for the
        // new regions' — all due at one TTL, of which k are stale. After a
        // refresh at half a TTL the k + new live ones re-arm.
        let ttl = state.config().ttl();
        let half = SimTime::ORIGIN + ttl / 2;
        assert_eq!(state.refresh(node, half) as u64, k + new);
        assert_eq!(state.expire(SimTime::ORIGIN + ttl), 0);
        assert_eq!(count(&state, "stamps_popped"), k);
        assert_eq!(count(&state, "stamps_rearmed"), k + new);
        assert_eq!(state.expire(half + ttl) as u64, k + new);
        assert_eq!(count(&state, "stamps_popped"), 2 * k + new);
        assert_eq!(state.remove(node), 0);
        let calls = [
            "publish_calls",
            "refresh_calls",
            "remove_calls",
            "expire_calls",
        ];
        assert_eq!(calls.map(|c| count(&state, c)), [4, 2, 1, 2]);
        state.check_invariants();
    }
}
