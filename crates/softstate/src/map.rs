//! Per-region proximity maps.
//!
//! Each region (high-order zone) of the overlay has one *map* containing
//! proximity information about all nodes in the region. The map is stored
//! in a *condensed* sub-box of the region (the condense rate is the ratio of
//! map size to hosting region size, §5.1), and entries are placed inside it
//! by hashing their landmark number through a space-filling curve — so
//! information about physically close nodes lands on the same or adjacent
//! hosts.
//!
//! Storage: a map's entries live in one slab, and two indexes name them by
//! slot — by node (one entry per node) and by the Morton code of the
//! storage position (what a host's zone holds). Each entry owns exactly one
//! stamp on the expiry wheel. The global state keeps each entry's slot and
//! re-stamps, upserts and removes by it; each of those first checks that
//! the slot still holds the node it names.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BTreeSet, BinaryHeap};
use std::ops::Bound::{Excluded, Included, Unbounded};

use tao_util::det::DetMap;

use tao_landmark::{region_position_into, LandmarkNumber};
use tao_overlay::{CanOverlay, OverlayNodeId, Point, Zone};
use tao_util::time::SimTime;

use crate::config::SoftStateConfig;
use crate::entry::{NodeInfo, SoftStateEntry};
use crate::region::{spread, RegionKey};
use crate::store::{Tally, COUNTS, POPPED, REARMED};

/// One slab slot: an entry, or vacant and on the free list.
#[derive(Debug, Clone)]
struct Slot {
    /// Which of the wheel's stamps naming this slot is current: bumped
    /// whenever the slot's stamp stops standing for it (the entry left, or
    /// its expiry moved earlier and a new stamp took over).
    generation: u32,
    entry: Option<SoftStateEntry>,
}

/// The map of one region.
///
/// # Example
///
/// ```
/// use tao_softstate::{SoftStateConfig, ZoneMap, NodeInfo};
/// use tao_landmark::{LandmarkGrid, LandmarkVector, SpaceFillingCurve};
/// use tao_overlay::{OverlayNodeId, Zone};
/// use tao_util::time::{SimDuration, SimTime};
/// use tao_topology::NodeIdx;
///
/// let grid = LandmarkGrid::new(3, 5, SimDuration::from_millis(320)).unwrap();
/// let config = SoftStateConfig::builder(grid).build();
/// let mut map = ZoneMap::new(Zone::whole(2), &config);
///
/// let vector = LandmarkVector::from_millis(&[10.0, 40.0, 90.0]);
/// let number = config.grid().landmark_number(&vector, config.curve());
/// map.publish(
///     NodeInfo { node: OverlayNodeId(0), underlay: NodeIdx(0), vector, number, load: None },
///     SimTime::ORIGIN,
///     &config,
/// );
/// // Stored at its number's position, which lies in the condensed box.
/// let entry = map.entry_of(OverlayNodeId(0)).unwrap();
/// assert!(map.condensed().contains(&entry.position));
/// assert_eq!(map.live_entries_in(map.region(), SimTime::ORIGIN).len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ZoneMap {
    region: Zone,
    condensed: Zone,
    /// The entries. Indexes name them by slot; a vacated slot goes on
    /// `free` and is taken by the next new entry.
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Slots by node, enforcing one entry per node per map even when its
    /// coordinates change.
    by_node: DetMap<OverlayNodeId, u32>,
    /// Slots by the Morton code of their storage position, so "entries
    /// hosted inside this CAN zone" is a handful of contiguous range walks
    /// instead of an owner lookup per entry — the hot path of the hosted
    /// lookup.
    by_position: BTreeSet<(u128, u32)>,
    /// Expiry wheel: one `(due, slot, generation)` stamp per entry, earliest
    /// first. A refresh moves the entry's expiry and leaves the stamp; the
    /// sweep re-arms a stamp that comes due before its entry does, so it
    /// pops entries due, not refreshes made.
    wheel: BinaryHeap<Reverse<(SimTime, u32, u32)>>,
    /// Morton bits per axis for `by_position`.
    pos_bits: u32,
}

impl ZoneMap {
    /// Creates an empty map for `region`, condensing it per the config.
    pub fn new(region: Zone, config: &SoftStateConfig) -> Self {
        let condensed = condensed_box(&region, config.condense_rate());
        let pos_bits = ((128 / region.dims().max(1)) as u32).min(32);
        ZoneMap {
            region,
            condensed,
            // tao-lint: allow(alloc-reachability, reason = "a region's first publish makes its map")
            slots: Vec::new(),
            free: Vec::new(),
            by_node: DetMap::new(),
            by_position: BTreeSet::new(),
            wheel: BinaryHeap::new(),
            pos_bits,
        }
    }

    /// The region this map covers.
    pub fn region(&self) -> &Zone {
        &self.region
    }

    /// The sub-box of the region that hosts the map's objects.
    pub fn condensed(&self) -> &Zone {
        &self.condensed
    }

    /// Number of stored entries (including not-yet-expired stale ones).
    pub fn len(&self) -> usize {
        self.by_node.len()
    }

    /// `true` if the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.by_node.is_empty()
    }

    /// Stamps on the expiry wheel: one per entry, plus those of entries
    /// removed since, which the sweep discards when they come due.
    pub(crate) fn pending_stamps(&self) -> usize {
        self.wheel.len()
    }

    /// The position within the region at which information keyed by
    /// `number` is stored — the paper's `p' = h(p, dp, dz, Z)`.
    pub fn position_for(&self, number: LandmarkNumber, config: &SoftStateConfig) -> Point {
        // tao-lint: allow(alloc-reachability, reason = "a new entry's position: built once, when the entry is created")
        let mut coords = Vec::new();
        unit_position_into(number, config, self.region.dims(), &mut coords);
        self.scale_into_condensed(&mut coords);
        Point::clamped(coords)
    }

    /// Scales a normalised position into the condensed box, in place.
    pub(crate) fn scale_into_condensed(&self, position: &mut [f64]) {
        for (a, x) in position.iter_mut().enumerate() {
            *x = self.condensed.lo(a) + *x * self.condensed.extent(a);
        }
    }

    pub(crate) fn get(&self, slot: u32) -> Option<&SoftStateEntry> {
        self.slots.get(slot as usize)?.entry.as_ref()
    }

    /// The entry of `node`, live or stale.
    pub fn entry_of(&self, node: OverlayNodeId) -> Option<&SoftStateEntry> {
        self.get(*self.by_node.get(&node)?)
    }

    /// Publishes (or re-publishes) `info`, stamping a fresh TTL.
    pub fn publish(&mut self, info: NodeInfo, now: SimTime, config: &SoftStateConfig) {
        self.upsert_at(self.by_node.get(&info.node).copied(), info, now, config);
    }

    /// [`ZoneMap::publish`] of `info`, whose node's entry the caller knows
    /// to sit at `slot`, if it has one. Returns the entry's slot and
    /// whether the entry was created.
    pub(crate) fn upsert_at(
        &mut self,
        slot: Option<u32>,
        info: NodeInfo,
        now: SimTime,
        config: &SoftStateConfig,
    ) -> (u32, bool) {
        let expires_at = now.saturating_add(config.ttl());
        if let Some(slot) = slot {
            // Same node under the same number: the position is a function
            // of the number, so only the payload and the TTL change.
            let held = self.get(slot).filter(|e| e.info.node == info.node);
            if held.is_some_and(|e| e.info.number == info.number) {
                self.restamp_at(slot, info.node, expires_at, Some(info));
                return (slot, false);
            }
            // A node's coordinates can change between publishes; drop the
            // entry under its previous landmark number first.
            self.remove_at(slot, info.node);
        }
        let position = self.position_for(info.number, config);
        let slot = self.free.pop().unwrap_or_else(|| {
            // tao-lint: allow(alloc-reachability, reason = "a new entry: the slab, its two indexes and the wheel grow by one")
            self.slots.push(Slot {
                generation: 0,
                entry: None,
            });
            u32::try_from(self.slots.len() - 1).unwrap_or(u32::MAX)
        });
        self.by_node.insert(info.node, slot);
        self.by_position
            .insert((self.position_code(&position), slot));
        let home = &mut self.slots[slot as usize];
        self.wheel
            .push(Reverse((expires_at, slot, home.generation)));
        home.entry = Some(SoftStateEntry {
            info,
            position,
            expires_at,
        });
        (slot, true)
    }

    /// Moves the expiry of `node`'s entry at `slot` to `expires_at`,
    /// replacing its payload when `info` is given; returns whether the slot
    /// holds `node`. The stamp stays where it is — the sweep re-arms one
    /// that pops early — unless the expiry moved *earlier* (a caller's
    /// clock ran backwards), where waiting for the old stamp would keep the
    /// entry past its time: a new one replaces it.
    pub(crate) fn restamp_at(
        &mut self,
        slot: u32,
        node: OverlayNodeId,
        expires_at: SimTime,
        info: Option<NodeInfo>,
    ) -> bool {
        let Some(home) = self.slots.get_mut(slot as usize) else {
            return false;
        };
        let Some(e) = home.entry.as_mut().filter(|e| e.info.node == node) else {
            return false;
        };
        if let Some(info) = info {
            e.info = info;
        }
        if expires_at < e.expires_at {
            home.generation = home.generation.wrapping_add(1);
            let stamp = Reverse((expires_at, slot, home.generation));
            // tao-lint: allow(alloc-reachability, reason = "only where a caller's clock ran backwards: a forward re-stamp keeps the entry's one stamp")
            self.wheel.push(stamp);
        }
        e.expires_at = expires_at;
        true
    }

    /// Removes the entry of `node`, returning whether one existed.
    pub fn remove(&mut self, node: OverlayNodeId) -> bool {
        let slot = self.by_node.get(&node).copied();
        slot.is_some_and(|slot| self.remove_at(slot, node))
    }

    /// Removes `node`'s entry at `slot`; returns whether the slot held it.
    pub(crate) fn remove_at(&mut self, slot: u32, node: OverlayNodeId) -> bool {
        let Some(home) = self.slots.get_mut(slot as usize) else {
            return false;
        };
        let Some(e) = home.entry.take_if(|e| e.info.node == node) else {
            return false;
        };
        home.generation = home.generation.wrapping_add(1);
        self.by_node.remove(&node);
        // tao-lint: allow(alloc-reachability, reason = "a vacated slot goes on the free list, which never holds more slots than the slab")
        self.free.push(slot);
        let code = self.position_code(&e.position);
        self.by_position.remove(&(code, slot));
        true
    }

    /// Drops entries that have lapsed by `now`; returns how many.
    ///
    /// Runs off the expiry wheel: only stamps at or before `now` are
    /// popped, so a sweep over a map where nothing has lapsed is O(1)
    /// instead of a full scan.
    pub fn expire(&mut self, now: SimTime) -> usize {
        self.expire_each(now, &mut Tally::new(&COUNTS), |_, _| {})
    }

    /// [`ZoneMap::expire`], naming each dropped node and its slot to
    /// `dropped` and counting stamps popped and re-armed in `tally`.
    pub(crate) fn expire_each(
        &mut self,
        now: SimTime,
        tally: &mut Tally,
        mut dropped: impl FnMut(OverlayNodeId, u32),
    ) -> usize {
        let mut count = 0;
        loop {
            let Some(mut top) = self.wheel.peek_mut().filter(|top| top.0 .0 <= now) else {
                return count;
            };
            let Reverse((_, slot, generation)) = *top;
            let home = &self.slots[slot as usize];
            match home
                .entry
                .as_ref()
                .filter(|_| home.generation == generation)
            {
                // Refreshed since the stamp was set: re-arm it in place.
                Some(e) if e.is_live(now) => {
                    *top = Reverse((e.expires_at, slot, generation));
                    tally.add(REARMED, 1);
                }
                Some(e) => {
                    let node = e.info.node;
                    PeekMut::pop(top);
                    self.remove_at(slot, node);
                    dropped(node, slot);
                    count += 1;
                    tally.add(POPPED, 1);
                }
                // A stamp of another generation outlived what it stood for.
                None => {
                    PeekMut::pop(top);
                    tally.add(POPPED, 1);
                }
            }
        }
    }

    /// Re-stamps the TTL of `node`'s entry; returns whether it existed.
    pub fn refresh(&mut self, node: OverlayNodeId, now: SimTime, config: &SoftStateConfig) -> bool {
        let slot = self.by_node.get(&node).copied();
        slot.is_some_and(|slot| self.restamp_at(slot, node, now + config.ttl(), None))
    }

    /// Iterates over live entries.
    // tao-lint: allow(panic-reachability, reason = "entry liveness is pure TTL arithmetic; the panic edge is the approximate name-match against the overlay's is_live")
    pub fn live_entries(&self, now: SimTime) -> impl Iterator<Item = &SoftStateEntry> {
        self.entries().filter(move |e| e.is_live(now))
    }

    /// The live entries whose storage position lies inside `zone`.
    ///
    /// For a box of the split tree (every CAN zone) this is one contiguous
    /// walk of the Morton position index; other shapes fall back to a
    /// filtered walk of the whole index. Both paths agree with
    /// `zone.contains(&entry.position)` exactly.
    pub fn live_entries_in(&self, zone: &Zone, now: SimTime) -> Vec<&SoftStateEntry> {
        let lo: Vec<f64> = (0..zone.dims()).map(|a| zone.lo(a)).collect();
        let hi: Vec<f64> = (0..zone.dims()).map(|a| zone.hi(a)).collect();
        let mut out = Vec::new();
        self.for_each_live_in(&lo, &hi, now, |e, _| out.push(e));
        out
    }

    /// Calls `found(entry, slot)` for each live entry stored inside the box
    /// `[lo, hi)` — [`ZoneMap::live_entries_in`] over borrowed bounds.
    pub(crate) fn for_each_live_in<'a>(
        &'a self,
        lo: &[f64],
        hi: &[f64],
        now: SimTime,
        mut found: impl FnMut(&'a SoftStateEntry, u32),
    ) {
        let d = self.region.dims();
        let key = (lo.len() == d && hi.len() == d)
            .then(|| RegionKey::from_axes(d, |a| (lo[a], hi[a])))
            .flatten();
        let run = key.and_then(|key| self.code_run(key));
        // Not a box of the tree (every CAN zone is one): walk everything
        // and test each position.
        let (first, end) = run.unwrap_or((0, None));
        let inside = |p: &Point| {
            let within = |a: usize| lo[a] <= p.coord(a) && p.coord(a) < hi[a];
            lo.len() == p.dims() && hi.len() == p.dims() && (0..p.dims()).all(within)
        };
        let upper = end.map_or(Unbounded, |end| Excluded((end, 0)));
        for &(_, slot) in self.by_position.range((Included((first, 0)), upper)) {
            let live = self.get(slot).filter(|e| e.is_live(now));
            if let Some(e) = live.filter(|e| run.is_some() || inside(&e.position)) {
                found(e, slot);
            }
        }
    }

    /// The Morton code of a storage position: per-axis `floor(x * 2^bits)`
    /// interleaved, axis 0 highest within each level — the order the split
    /// tree halves axes in, so the codes inside a box of the tree are one
    /// contiguous run ([`ZoneMap::code_run`]). Quantisation classifies
    /// positions against dyadic bounds of level ≤ `pos_bits` exactly.
    fn position_code(&self, p: &Point) -> u128 {
        let d = self.region.dims();
        let scale = (1u64 << self.pos_bits) as f64;
        let cells = 1u64 << self.pos_bits;
        let mut code = 0u128;
        for (a, x) in p.coords().iter().enumerate().take(d) {
            let q = ((x * scale) as u64).min(cells - 1);
            code |= spread(q, d) << (d - 1 - a);
        }
        code
    }

    /// The position codes inside the box `key` as `(first, one past the
    /// last)` — the box's path in the tree is the codes' common prefix —
    /// or `None` when the box is finer than the codes' resolution. An end
    /// of `None` means "to the end of the keyspace".
    fn code_run(&self, key: RegionKey) -> Option<(u128, Option<u128>)> {
        let code_bits = self.pos_bits * u32::try_from(self.region.dims()).ok()?;
        let below = code_bits.checked_sub(key.depth())?;
        let first = key.path().checked_shl(below).unwrap_or(0);
        Some((
            first,
            1u128
                .checked_shl(below)
                .and_then(|span| first.checked_add(span)),
        ))
    }

    /// Iterates over all entries, live or stale, in slab order.
    pub fn entries(&self) -> impl Iterator<Item = &SoftStateEntry> {
        self.slots.iter().filter_map(|s| s.entry.as_ref())
    }

    /// Counts this map's entries per hosting overlay node (the owner of
    /// each entry's position in `can`).
    pub fn entries_per_host(&self, can: &CanOverlay) -> DetMap<OverlayNodeId, usize> {
        let mut hosts = DetMap::new();
        for e in self.entries() {
            *hosts.entry(can.owner(&e.position)).or_insert(0) += 1;
        }
        hosts
    }

    /// Asserts the storage invariants: the two indexes and the free list
    /// account for every slot, each index names the slot of the entry that
    /// carries its key, and each entry has exactly one current stamp on the
    /// wheel, due no later than the entry.
    ///
    /// # Panics
    ///
    /// Panics, naming the violation, if an invariant does not hold.
    // tao-lint: allow(panic-reachability, reason = "an invariant checker: panicking on a violation is its contract")
    pub fn check_invariants(&self) {
        let live = self.slots.iter().filter(|s| s.entry.is_some()).count();
        let sizes = [self.by_node.len(), self.by_position.len()];
        assert_eq!(
            sizes, [live; 2],
            "an index misses a slot or names a vacant one"
        );
        assert_eq!(self.free.len(), self.slots.len() - live, "free list size");
        assert!(
            self.free.iter().all(|&s| self.get(s).is_none()),
            "a free slot is occupied"
        );
        for (slot, home) in (0u32..).zip(&self.slots) {
            let Some(e) = &home.entry else { continue };
            let node = e.info.node;
            assert_eq!(
                self.by_node.get(&node),
                Some(&slot),
                "by_node disagrees on {node}"
            );
            assert!(
                self.by_position
                    .contains(&(self.position_code(&e.position), slot)),
                "by_position misses {node}"
            );
        }
        let mut stamps = vec![0usize; self.slots.len()];
        for &Reverse((due, slot, generation)) in &self.wheel {
            let home = &self.slots[slot as usize];
            if let Some(e) = home
                .entry
                .as_ref()
                .filter(|_| home.generation == generation)
            {
                assert!(
                    due <= e.expires_at,
                    "a stamp is due after its entry expires"
                );
                stamps[slot as usize] += 1;
            }
        }
        let expected: Vec<usize> = self
            .slots
            .iter()
            .map(|s| s.entry.is_some() as usize)
            .collect();
        assert_eq!(stamps, expected, "current stamps per slot");
    }
}

/// Bits of resolution per axis when hashing a landmark number to a region
/// position.
const POSITION_BITS: u32 = 10;

/// The normalised position in `[0,1)^dims` at which information keyed by
/// `number` is stored: the curve decode every region shares, each then
/// applying its own [`ZoneMap::scale_into_condensed`].
pub(crate) fn unit_position_into(
    number: LandmarkNumber,
    config: &SoftStateConfig,
    dims: usize,
    out: &mut Vec<f64>,
) {
    // tao-lint: allow(alloc-reachability, reason = "caller-held coordinate buffer: sized to the region's dimensionality on first use, then reused")
    out.resize(dims, 0.0);
    let grid_bits = config.grid().number_bits();
    region_position_into(number, grid_bits, POSITION_BITS, config.curve(), out);
}

/// The sub-box of `region` holding its map: per-axis extents scaled by
/// `rate^(1/d)` so the volume ratio equals the condense rate, anchored at
/// the region's lower corner (the grid "owned by a" in the paper's fig. 9).
#[expect(clippy::expect_used, reason = "condensed box is valid")]
fn condensed_box(region: &Zone, rate: f64) -> Zone {
    debug_assert!(rate > 0.0 && rate <= 1.0);
    if rate == 1.0 {
        // tao-lint: allow(alloc-reachability, reason = "a region's first publish makes its map")
        return region.clone();
    }
    let d = region.dims();
    let scale = rate.powf(1.0 / d as f64);
    // tao-lint: allow(alloc-reachability, reason = "a region's first publish makes its map")
    let lo: Vec<f64> = (0..d).map(|a| region.lo(a)).collect();
    let hi: Vec<f64> = (0..d)
        .map(|a| region.lo(a) + region.extent(a) * scale)
        .collect();
    Zone::from_bounds(lo, hi).expect("condensed box is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tao_landmark::{LandmarkGrid, LandmarkVector};
    use tao_topology::NodeIdx;
    use tao_util::time::SimDuration;

    fn config() -> SoftStateConfig {
        let grid = LandmarkGrid::new(3, 5, SimDuration::from_millis(320)).unwrap();
        SoftStateConfig::builder(grid).build()
    }

    fn info(id: u32, millis: [f64; 3], config: &SoftStateConfig) -> NodeInfo {
        let vector = LandmarkVector::from_millis(&millis);
        let number = config.grid().landmark_number(&vector, config.curve());
        NodeInfo {
            node: OverlayNodeId(id),
            underlay: NodeIdx(id),
            vector,
            number,
            load: None,
        }
    }

    #[test]
    fn condensed_box_has_rate_volume() {
        let region = Zone::whole(2);
        let c = condensed_box(&region, 0.25);
        assert!((c.volume() - 0.25).abs() < 1e-9);
        assert!(region.contains_zone(&c));
        assert_eq!(condensed_box(&region, 1.0), region);
    }

    #[test]
    fn positions_stay_inside_the_condensed_box() {
        let cfg = config();
        let map = ZoneMap::new(Zone::whole(2), &cfg);
        for raw in [0u128, 99, 5_000, 32_767] {
            let p = map.position_for(LandmarkNumber::new(raw), &cfg);
            assert!(
                map.condensed().contains(&p),
                "position {p} escaped the condensed box"
            );
        }
    }

    #[test]
    fn close_numbers_store_close_positions() {
        let cfg = config();
        let map = ZoneMap::new(Zone::whole(2), &cfg);
        let a = map.position_for(LandmarkNumber::new(1_000), &cfg);
        let b = map.position_for(LandmarkNumber::new(1_001), &cfg);
        let far = map.position_for(LandmarkNumber::new(20_000), &cfg);
        // Squared torus distance: the order is the distance's.
        let gap = |p: &Point, q: &Point| -> f64 {
            let axes = p.coords().iter().zip(q.coords());
            axes.map(|(x, y)| (x - y).abs().min(1.0 - (x - y).abs()).powi(2))
                .sum()
        };
        assert!(gap(&a, &b) <= gap(&a, &far));
    }

    #[test]
    fn publish_lookup_returns_nearest_by_vector() {
        let cfg = config();
        let mut map = ZoneMap::new(Zone::whole(2), &cfg);
        let near = info(1, [10.0, 40.0, 90.0], &cfg);
        let mid = info(2, [30.0, 60.0, 110.0], &cfg);
        let far = info(3, [300.0, 310.0, 305.0], &cfg);
        for i in [&near, &mid, &far] {
            map.publish(i.clone(), SimTime::ORIGIN, &cfg);
        }
        let query = LandmarkVector::from_millis(&[12.0, 41.0, 88.0]);
        let entries = map.live_entries(SimTime::ORIGIN);
        let mut ranked = Vec::new();
        query.nearest(
            entries.map(|e| (&e.info.vector, e.info.node, ())),
            2,
            &mut ranked,
        );
        let found: Vec<OverlayNodeId> = ranked.iter().map(|&(_, node, ())| node).collect();
        assert_eq!(found, [OverlayNodeId(1), OverlayNodeId(2)]);
    }

    #[test]
    fn expired_entries_disappear_from_lookups() {
        let cfg = config();
        let mut map = ZoneMap::new(Zone::whole(2), &cfg);
        let i = info(1, [10.0, 40.0, 90.0], &cfg);
        map.publish(i, SimTime::ORIGIN, &cfg);
        let after_ttl = SimTime::ORIGIN + cfg.ttl() + SimDuration::from_micros(1);
        assert!(map.live_entries_in(&Zone::whole(2), after_ttl).is_empty());
        assert_eq!(map.live_entries(after_ttl).count(), 0);
        assert_eq!(map.expire(after_ttl), 1);
        assert!(map.is_empty());
    }

    #[test]
    fn refresh_extends_lifetime() {
        let cfg = config();
        let mut map = ZoneMap::new(Zone::whole(2), &cfg);
        let i = info(1, [10.0, 40.0, 90.0], &cfg);
        map.publish(i, SimTime::ORIGIN, &cfg);
        let half = SimTime::ORIGIN + cfg.ttl() / 2;
        assert!(map.refresh(OverlayNodeId(1), half, &cfg));
        let past_original = SimTime::ORIGIN + cfg.ttl() + SimDuration::from_secs(1);
        assert_eq!(map.live_entries_in(&Zone::whole(2), past_original).len(), 1);
        assert!(!map.refresh(OverlayNodeId(9), half, &cfg));
    }

    #[test]
    fn remove_deletes_all_entries_of_a_node() {
        let cfg = config();
        let mut map = ZoneMap::new(Zone::whole(2), &cfg);
        map.publish(info(1, [10.0, 40.0, 90.0], &cfg), SimTime::ORIGIN, &cfg);
        assert!(map.remove(OverlayNodeId(1)));
        assert!(!map.remove(OverlayNodeId(1)));
        assert!(map.is_empty());
    }

    /// A canonical, order-free fingerprint of an entry set.
    fn key_set(entries: Vec<&SoftStateEntry>) -> Vec<(u128, OverlayNodeId)> {
        let mut v: Vec<_> = entries
            .iter()
            .map(|e| (e.info.number.value(), e.info.node))
            .collect();
        v.sort();
        v
    }

    /// All dyadic sub-boxes of the unit square down to `max_level` splits
    /// per axis, plus one deliberately non-dyadic box (fallback path).
    fn query_zones(max_level: u32) -> Vec<Zone> {
        let mut zones = vec![Zone::whole(2)];
        for lx in 0..=max_level {
            for ly in 0..=max_level {
                let (sx, sy) = (0.5f64.powi(lx as i32), 0.5f64.powi(ly as i32));
                for ix in 0..(1u32 << lx) {
                    for iy in 0..(1u32 << ly) {
                        let lo = vec![ix as f64 * sx, iy as f64 * sy];
                        let hi = vec![lo[0] + sx, lo[1] + sy];
                        zones.push(Zone::from_bounds(lo, hi).unwrap());
                    }
                }
            }
        }
        zones.push(Zone::from_bounds(vec![0.1, 0.2], vec![0.55, 0.9]).unwrap());
        zones
    }

    #[test]
    fn live_entries_in_matches_the_contains_filter() {
        let cfg = config();
        let mut map = ZoneMap::new(Zone::whole(2), &cfg);
        for i in 0..60u32 {
            let base = 5.0 + i as f64 * 5.3;
            map.publish(
                info(i, [base, base + 7.0, base + 3.0], &cfg),
                SimTime::ORIGIN,
                &cfg,
            );
        }
        // Mutate: refresh a few, remove a few, republish one under a new
        // vector so its old position is vacated.
        let later = SimTime::ORIGIN + cfg.ttl() / 2;
        for id in [3u32, 17, 40] {
            assert!(map.refresh(OverlayNodeId(id), later, &cfg));
        }
        for id in [9u32, 22] {
            assert!(map.remove(OverlayNodeId(id)));
        }
        map.publish(info(30, [290.0, 280.0, 300.0], &cfg), later, &cfg);
        map.check_invariants();
        // Probe both while everything is live and after the un-refreshed
        // entries lapse (index must not resurrect dead entries).
        let lapsed = SimTime::ORIGIN + cfg.ttl() + SimDuration::from_micros(1);
        for now in [later, lapsed] {
            for zone in query_zones(3) {
                let indexed = key_set(map.live_entries_in(&zone, now));
                let scanned = key_set(
                    map.live_entries(now)
                        .filter(|e| zone.contains(&e.position))
                        .collect(),
                );
                assert_eq!(indexed, scanned, "zone {zone:?} at {now:?}");
            }
        }
    }

    #[test]
    fn live_entries_in_matches_the_contains_filter_in_three_dimensions() {
        // Every box of the 3-d split tree down to depth 7 is one run of the
        // position index; the run must hold exactly the contained entries.
        let cfg = config();
        let mut map = ZoneMap::new(Zone::whole(3), &cfg);
        for i in 0..80u32 {
            let base = 4.0 + i as f64 * 3.9;
            map.publish(
                info(i, [base, base + 5.0, base + 1.0], &cfg),
                SimTime::ORIGIN,
                &cfg,
            );
        }
        let mut level = vec![Zone::whole(3)];
        for depth in 0..8 {
            for zone in &level {
                let indexed = key_set(map.live_entries_in(zone, SimTime::ORIGIN));
                let scanned = key_set(
                    map.entries()
                        .filter(|e| zone.contains(&e.position))
                        .collect(),
                );
                assert_eq!(indexed, scanned, "zone {zone:?}");
            }
            level = level
                .iter()
                .flat_map(|z| <[Zone; 2]>::from(z.split(depth % 3)))
                .collect();
        }
    }

    /// Reference for [`ZoneMap::expire`]: visits every entry and drops the
    /// ones no longer live, through the public API only.
    fn expire_scan(map: &mut ZoneMap, now: SimTime) -> usize {
        let lapsed: Vec<OverlayNodeId> = map
            .entries()
            .filter(|e| !e.is_live(now))
            .map(|e| e.info.node)
            .collect();
        for &node in &lapsed {
            assert!(map.remove(node));
        }
        lapsed.len()
    }

    #[test]
    fn wheel_expire_matches_the_full_scan() {
        let cfg = config();
        let mut wheel = ZoneMap::new(Zone::whole(2), &cfg);
        let mut scan = ZoneMap::new(Zone::whole(2), &cfg);
        for i in 0..40u32 {
            let base = 8.0 + i as f64 * 7.7;
            let at = SimTime::ORIGIN + SimDuration::from_millis(i as u64 * 250);
            let nfo = info(i, [base, base + 2.0, base + 9.0], &cfg);
            wheel.publish(nfo.clone(), at, &cfg);
            scan.publish(nfo, at, &cfg);
        }
        let mid = SimTime::ORIGIN + SimDuration::from_millis(2_000);
        for id in [2u32, 5, 11] {
            wheel.refresh(OverlayNodeId(id), mid, &cfg);
            scan.refresh(OverlayNodeId(id), mid, &cfg);
        }
        wheel.remove(OverlayNodeId(7));
        scan.remove(OverlayNodeId(7));
        // Expire in two waves; the lazy wheel and the full scan must drop
        // the same entries each time.
        for wave_ms in [4_500u64, 1_000_000] {
            let now = SimTime::ORIGIN + cfg.ttl() + SimDuration::from_millis(wave_ms);
            let dropped_wheel = wheel.expire(now);
            let dropped_scan = expire_scan(&mut scan, now);
            assert_eq!(dropped_wheel, dropped_scan);
            assert_eq!(
                key_set(wheel.live_entries(now).collect()),
                key_set(scan.live_entries(now).collect()),
            );
            assert_eq!(wheel.len(), scan.len());
            wheel.check_invariants();
        }
        assert!(wheel.is_empty(), "everything lapses eventually");
    }

    #[test]
    fn a_refresh_that_moves_the_expiry_earlier_is_honoured() {
        // A caller whose clock runs backwards shortens an entry's life; the
        // sweep must not wait for the stamp set under the later expiry.
        let cfg = config();
        let mut map = ZoneMap::new(Zone::whole(2), &cfg);
        let late = SimTime::ORIGIN + SimDuration::from_secs(100);
        map.publish(info(1, [10.0, 40.0, 90.0], &cfg), late, &cfg);
        assert!(map.refresh(OverlayNodeId(1), SimTime::ORIGIN, &cfg));
        map.check_invariants();
        let after_short_ttl = SimTime::ORIGIN + cfg.ttl();
        assert_eq!(map.expire(after_short_ttl), 1);
        assert!(map.is_empty());
        map.check_invariants();
    }

    #[test]
    fn republish_updates_in_place() {
        let cfg = config();
        let mut map = ZoneMap::new(Zone::whole(2), &cfg);
        let i = info(1, [10.0, 40.0, 90.0], &cfg);
        map.publish(i.clone(), SimTime::ORIGIN, &cfg);
        map.publish(i, SimTime::ORIGIN + SimDuration::from_secs(1), &cfg);
        assert_eq!(map.len(), 1, "same node re-publishing must not duplicate");
    }
}
