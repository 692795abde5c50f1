//! The global state: every region's map, taken together.
//!
//! Publishing a node writes its [`NodeInfo`] into the map of *every*
//! high-order zone that encloses its CAN zone (§5.1: "each node will appear
//! in a maximum of log(N) such maps"). Lookups name a target region and run
//! the Table-1 procedure against that region's map.

use std::sync::atomic::{AtomicU64, Ordering};

use tao_util::det::{DetMap, DetSet};

use tao_landmark::LandmarkNumber;
use tao_overlay::ecan::EcanOverlay;
use tao_overlay::{CanOverlay, OverlayNodeId, Zone};
use tao_util::time::SimTime;

use crate::config::SoftStateConfig;
use crate::entry::NodeInfo;
use crate::map::{unit_position_into, ZoneMap};
use crate::region::RegionKey;

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
    maps: DetMap<RegionKey, ZoneMap>,
    /// Per node, the keys of exactly the maps that list it: what `refresh`
    /// and `remove` visit, instead of every map.
    listed: DetMap<OverlayNodeId, Vec<RegionKey>>,
    /// Renewed by every write: what a [`LookupScratch`] stamps its
    /// remembered fragments with.
    version: u64,
}

/// The buffers of a hosted lookup ([`GlobalState::lookup_in_hosted_into`]):
/// a caller that keeps one across lookups pays for them once.
///
/// It also remembers, per `(region, host)`, the live slots the host (and,
/// once a query needed them, its widening ring) stores, so queriers that
/// land on the same host share one walk of the position index. What is
/// remembered is valid for exactly as long as nothing it was read from has
/// changed — the state's version, the CAN's membership `(id_bound, len)`
/// over one CAN's history, and `now` — and is dropped on any mismatch, so
/// no answer depends on what the scratch has seen.
#[derive(Debug, Clone, Default)]
pub struct LookupScratch {
    stamp: Option<(u64, usize, usize, SimTime)>,
    fragments: DetMap<(RegionKey, OverlayNodeId), Fragment>,
    /// The fragments' `(slot, node)` pairs, end to end.
    slots: Vec<(u32, OverlayNodeId)>,
    walks: u64,
    /// The number whose normalised curve position `unit` holds: decoded
    /// once per querier, not once per box it asks about.
    decoded: Option<LandmarkNumber>,
    unit: Vec<f64>,
    landing: Vec<f64>,
    ranked: Vec<(f64, OverlayNodeId, u32)>,
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
        self.walks
    }
}

impl GlobalState {
    /// Creates an empty global state.
    pub fn new(config: SoftStateConfig) -> Self {
        GlobalState {
            config,
            maps: DetMap::new(),
            listed: DetMap::new(),
            version: NEXT_VERSION.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// The shared configuration.
    pub fn config(&self) -> &SoftStateConfig {
        &self.config
    }

    /// Number of region maps that exist so far.
    pub fn map_count(&self) -> usize {
        self.maps.len()
    }

    /// Total entries across all maps (live or stale).
    pub fn total_entries(&self) -> usize {
        self.maps.values().map(ZoneMap::len).sum()
    }

    /// Expiry stamps pending across all maps: one per entry, plus those of
    /// entries removed and not yet swept — however often entries refresh.
    pub fn pending_stamps(&self) -> usize {
        self.maps.values().map(ZoneMap::pending_stamps).sum()
    }

    /// The map for `region`, if any node has published into it.
    pub fn map(&self, region: &Zone) -> Option<&ZoneMap> {
        self.maps.get(&RegionKey::from_zone(region)?)
    }

    /// Publishes `info` into the map of every high-order zone enclosing its
    /// node's CAN zone in `ecan`. Returns how many maps were written — the
    /// message cost of one publish round.
    pub fn publish(&mut self, info: NodeInfo, ecan: &EcanOverlay, now: SimTime) -> usize {
        self.version = NEXT_VERSION.fetch_add(1, Ordering::Relaxed);
        let mut written = 0;
        for region in ecan.enclosing_high_order_zones(info.node) {
            let Some(key) = RegionKey::from_zone(&region) else {
                continue;
            };
            let map = self
                .maps
                .entry(key)
                .or_insert_with(|| ZoneMap::new(region, &self.config));
            map.publish(info.clone(), now, &self.config);
            let keys = self.listed.entry(info.node).or_default();
            if !keys.contains(&key) {
                keys.push(key);
            }
            written += 1;
        }
        written
    }

    /// Removes every entry of `node` (proactive departure, §5.2). Returns
    /// the number of maps touched.
    pub fn remove(&mut self, node: OverlayNodeId) -> usize {
        self.version = NEXT_VERSION.fetch_add(1, Ordering::Relaxed);
        let keys = self.listed.remove(&node).unwrap_or_default();
        keys.iter()
            .filter(|key| self.maps.get_mut(key).is_some_and(|m| m.remove(node)))
            .count()
    }

    /// Refreshes `node`'s TTLs in every map that lists it. Returns the
    /// number of maps touched.
    pub fn refresh(&mut self, node: OverlayNodeId, now: SimTime) -> usize {
        self.version = NEXT_VERSION.fetch_add(1, Ordering::Relaxed);
        let (maps, config) = (&mut self.maps, &self.config);
        let Some(keys) = self.listed.get(&node) else {
            return 0;
        };
        keys.iter()
            .filter(|key| {
                maps.get_mut(key)
                    .is_some_and(|m| m.refresh(node, now, config))
            })
            .count()
    }

    /// Expires lapsed entries everywhere; returns how many were dropped.
    pub fn expire(&mut self, now: SimTime) -> usize {
        self.version = NEXT_VERSION.fetch_add(1, Ordering::Relaxed);
        let listed = &mut self.listed;
        let mut dropped = 0;
        for (key, map) in self.maps.iter_mut() {
            dropped += map.expire_each(now, |node| {
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
        let keyed = RegionKey::from_zone(region).and_then(|key| Some((key, self.maps.get(&key)?)));
        let hits = keyed.map(|(key, map)| {
            let LookupScratch {
                stamp,
                fragments,
                slots,
                walks,
                decoded,
                unit,
                landing,
                ranked,
            } = scratch;
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
                // A key per (region, host) pair a stamp sees: a warmed pass
                // finds every key present and inserts nothing.
                let fragment = fragments.entry((key, host)).or_insert_with(|| {
                    *walks += 1;
                    let from = slots.len();
                    walk(map, can, host, now, slots);
                    Fragment {
                        host: (from, slots.len()),
                        ring: None,
                    }
                });
                // Never hand a node back itself as a candidate. TTL
                // widening: the ring of CAN neighbors around the host is
                // asked only if the host itself holds fewer than `max`.
                let (from, to) = fragment.host;
                let own = slots[from..to].iter().filter(|s| s.1 != me).count();
                if own < max && fragment.ring.is_none() {
                    let ring_from = slots.len();
                    let ring = can.neighbor_ids(host).ok().into_iter().flatten();
                    ring.filter(|&&n| n != host)
                        .for_each(|&n| walk(map, can, n, now, slots));
                    fragment.ring = Some((ring_from, slots.len()));
                }
                let (ring_from, ring_to) = fragment.ring.filter(|_| own < max).unwrap_or((to, to));
                let found = slots[from..to].iter().chain(&slots[ring_from..ring_to]);
                found.filter(move |s| s.1 != me).map(|s| s.0)
            });
            map.nearest(&query.vector, found.into_iter().flatten(), max, ranked)
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
        for map in self.maps.values() {
            for (host, count) in map.entries_per_host(can) {
                *totals.entry(host).or_insert(0) += count;
            }
        }
        totals
    }

    /// Iterates over `(region, map)` pairs.
    pub fn maps(&self) -> impl Iterator<Item = &ZoneMap> {
        self.maps.values()
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
            .maps
            .values()
            .flat_map(|m| m.live_entries(now))
            .filter(|e| !live.contains(&e.info.node))
            .count();
        ConvergenceReport { missing, stale }
    }

    /// Asserts every map's storage invariants ([`ZoneMap::check_invariants`])
    /// and that each node's region list names exactly the maps listing it.
    ///
    /// # Panics
    ///
    /// Panics, naming the violation, if an invariant does not hold.
    // tao-lint: allow(panic-reachability, reason = "an invariant checker: panicking on a violation is its contract")
    pub fn check_invariants(&self) {
        for (key, map) in self.maps.iter() {
            map.check_invariants();
            for e in map.entries() {
                let keys = self.listed.get(&e.info.node);
                assert!(
                    keys.is_some_and(|k| k.contains(key)),
                    "{} unlisted",
                    e.info.node
                );
            }
        }
        // Every entry is listed, so lists as long in total as the entries
        // are many name nothing else and nothing twice.
        let listings: usize = self.listed.values().map(Vec::len).sum();
        assert_eq!(
            listings,
            self.total_entries(),
            "a region list names a map without its node"
        );
        assert!(
            self.listed.values().all(|k| !k.is_empty()),
            "an empty region list is kept"
        );
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
    use tao_util::rand::rngs::StdRng;
    use tao_util::rand::SeedableRng;
    use tao_util::time::SimDuration;

    fn setup(n: u32) -> (EcanOverlay, GlobalState) {
        let mut can = CanOverlay::new(2).unwrap();
        let mut rng = StdRng::seed_from_u64(31);
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
        let (ecan, mut state) = setup(96);
        for i in 0..96u32 {
            let base = 5.0 + (i as f64 * 3.1) % 280.0;
            let info = info_for(&state, i, [base, base + 4.0, base + 11.0]);
            state.publish(info, &ecan, SimTime::ORIGIN);
        }
        let later = SimTime::ORIGIN + state.config().ttl() / 2;
        for id in [4u32, 19, 55] {
            state.refresh(OverlayNodeId(id), later);
        }
        for id in [8u32, 30] {
            state.remove(OverlayNodeId(id));
        }
        state.check_invariants();
        // Probe every region map, several query vectors, both while all
        // entries are live and after the un-refreshed ones lapse.
        let lapsed = SimTime::ORIGIN + state.config().ttl() + SimDuration::from_micros(1);
        let regions: Vec<Zone> = state.maps().map(|m| m.region().clone()).collect();
        for now in [later, lapsed] {
            for region in &regions {
                for q in [0u32, 7, 50, 91] {
                    let query = info_for(&state, q, [15.0 + q as f64, 60.0, 140.0]);
                    for max in [1usize, 4, 16] {
                        let fast = state.lookup_in_hosted(region, &query, max, ecan.can(), now);
                        let slow =
                            lookup_in_hosted_scan(&state, region, &query, max, ecan.can(), now);
                        assert_eq!(fast, slow, "region {region:?} q={q} max={max}");
                    }
                }
            }
        }
    }

    #[test]
    fn missing_region_lookup_is_empty() {
        let (ecan, state) = setup(16);
        let q = info_for(&state, 0, [10.0, 20.0, 30.0]);
        assert!(state
            .lookup_in_hosted(&Zone::whole(2), &q, 5, ecan.can(), SimTime::ORIGIN)
            .is_empty());
    }
}
