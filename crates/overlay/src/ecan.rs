//! eCAN: CAN augmented with "expressway" routing tables of larger span.
//!
//! From the paper (§3.2): every `2^d` CAN zones form an order-2 zone and
//! every `2^d` order-`i` zones form an order-`(i+1)` zone. A node, besides
//! its default CAN neighbors, keeps one *representative* node in each
//! neighboring high-order zone at every order. Which member becomes the
//! representative is the *flexibility* the paper exploits: the
//! [`NeighborSelector`] hook is exactly where proximity-neighbor selection
//! (random baseline, global-soft-state lookup, or the ground-truth optimum)
//! plugs in.
//!
//! # Table storage
//!
//! An expressway entry is fully determined by the owner's zone plus three
//! small numbers — the order, the shift axis, and the shift direction — so
//! tables store exactly that as 8-byte [`CompactEntry`]s in a dense
//! per-node arena, and [`EcanOverlay::high_order_entries`] materializes the
//! [`HighOrderEntry`] view (with its `target_box`) on demand. Entries are
//! materialized against the aligned level recorded when the table was
//! built, so the boxes they advertise stay stable even if the owner's zone
//! is later split thinner. A reverse index (who references me as a
//! representative?) makes [`EcanOverlay::dependents_of`] O(dependents)
//! instead of a scan over every table, which in turn makes join and
//! departure maintenance incremental: only the newcomer, the split owner,
//! and the actual dependents are touched — never the full table set.
//!
//! What a membership change costs follows from that, and none of it grows
//! with the overlay: the CAN's part is one O(depth) descent per join and
//! one per zone the departing node held. A change can only make the
//! entries that name the node it changed unsound — a join shrinks only the
//! split owner, a departure removes only the departed node, and the taker
//! only gains zones — so a dependent's table is walked for the entries
//! naming that node, and only those are materialized (one box written in
//! place) and re-checked. An entry that has to change is patched where it
//! stands, moving its own two reverse-index links; a sampled replacement
//! ([`CanOverlay::sample_in`]) is one more descent and touches no heap.
//! That skip is exact only on tables that were sound before the change,
//! the precondition [`EcanOverlay::check_invariants`] spells out.
//! Whole-table replacement is the path of [`EcanOverlay::reselect`],
//! [`EcanOverlay::reselect_node`] and [`EcanOverlay::depart`] only.
//!
//! # Table construction
//!
//! The selector is asked for a representative of the whole box first
//! ([`NeighborSelector::select_in_box`]). One that can name a member on
//! its own — by sampling the zone tree, or by testing the few candidates
//! the box's soft-state map returned for membership, O(1) each — answers
//! [`BoxSelection::Chosen`] and the box is never listed. Only on
//! [`BoxSelection::Enumerate`] (the selector compares or indexes *all*
//! members, or its shortcut found nobody) are the members listed with
//! [`CanOverlay::nodes_in`] and passed to [`NeighborSelector::select`].
//! Neighbouring nodes share most of their boxes, so a whole-overlay pass
//! ([`EcanOverlay::reselect`]) keeps each list it makes, keyed by the
//! split-tree node where the box's walk stops (whose region is the box, or
//! a leaf that holds it), and lists a box at most once (a single node's
//! boxes are all distinct, so the one-node paths keep none). The memo is a
//! local of the pass, which holds `&mut self`, so the CAN cannot change
//! under it: nothing to invalidate, nothing to configure. Besides member
//! lists, a soft-state pass remembers — in the selector's lookup scratch,
//! not here — the live map slots each `(region, host)` pair stores, which
//! outlive the pass and are therefore stamped with what they were read from
//! (state version, CAN membership, `now`) and dropped when any of it has
//! moved.
//!
//! # Example
//!
//! ```
//! use tao_overlay::ecan::{EcanOverlay, RandomSelector};
//! use tao_overlay::{CanOverlay, Point};
//! use tao_topology::NodeIdx;
//! use tao_util::rand::SeedableRng;
//!
//! let mut rng = tao_util::rand::rngs::StdRng::seed_from_u64(7);
//! let mut can = CanOverlay::new(2).unwrap();
//! for i in 0..64 {
//!     can.join(NodeIdx(i), Point::random(2, &mut rng));
//! }
//! let ecan = EcanOverlay::build(can, &mut RandomSelector::new(1));
//! let live: Vec<_> = ecan.can().live_nodes().collect();
//! let route = ecan.route_express(live[0], &Point::random(2, &mut rng)).unwrap();
//! // Expressways shorten routes versus plain greedy CAN on average.
//! assert!(route.hop_count() <= 64);
//! ```

use tao_util::det::DetMap;

use crate::can::{CanOverlay, OverlayError, OverlayNodeId, Route};
use crate::point::Point;
pub use crate::select::{BoxSelection, ClosestSelector, NeighborSelector, RandomSelector};
use crate::zone::Zone;

/// One expressway routing-table entry, materialized.
#[derive(Debug, Clone, PartialEq)]
pub struct HighOrderEntry {
    /// The order of the zone this entry spans (2 = smallest high-order).
    pub order: u32,
    /// The neighboring high-order zone the entry points into.
    pub target_box: Zone,
    /// The member of `target_box` chosen as representative.
    pub representative: OverlayNodeId,
}

/// The stored form of an expressway entry: the target box is recomputed
/// from `(order, axis, dir)` and the owner's zone, so only 8 bytes per
/// entry live in the table arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CompactEntry {
    /// Order of the spanned zone (2 = smallest high-order).
    order: u8,
    /// Axis the target box is shifted along.
    axis: u8,
    /// Shift direction: -1 or +1.
    dir: i8,
    /// The representative's node id.
    rep: u32,
}

/// A node's expressway table: compact entries plus the aligned level of
/// the node's zone at build time (materialization anchors to this level,
/// which stays valid because zones only ever shrink in place).
#[derive(Debug, Clone, Default)]
struct NodeTable {
    built_level: u32,
    entries: Vec<CompactEntry>,
}

/// [`RandomSelector`]'s old name for its eCAN draw, kept only because the
/// benchmark package's `scale_churn` workload imports it.
pub type SampledRandomSelector = RandomSelector;

/// Member lists made during one table pass, by the split-tree slot of the
/// box's [`CanOverlay::cover`].
type BoxMemo = DetMap<u32, Vec<OverlayNodeId>>;

/// A CAN overlay plus per-node expressway routing tables.
///
/// See the [module documentation](self) for the compact table layout and
/// the incremental-maintenance contract.
#[derive(Debug, Clone)]
pub struct EcanOverlay {
    can: CanOverlay,
    /// Expressway tables, dense by node id (empty for departed nodes and
    /// nodes joined via [`EcanOverlay::join_unselected`]).
    tables: Vec<NodeTable>,
    /// Reverse index: `dependents[r]` lists the owners whose tables name
    /// `r` as a representative, one push per referencing entry.
    dependents: Vec<Vec<u32>>,
}

impl EcanOverlay {
    /// Builds expressway tables for every live node of `can`, choosing
    /// representatives through `selector`.
    pub fn build(can: CanOverlay, selector: &mut dyn NeighborSelector) -> Self {
        let mut ecan = EcanOverlay::unselected(can);
        ecan.reselect(selector);
        ecan
    }

    /// Wraps `can` with every expressway table empty — the whole-overlay
    /// counterpart of [`EcanOverlay::join_unselected`], for a system that
    /// publishes soft-state first and selects once
    /// ([`EcanOverlay::reselect`]). Routing is plain CAN until then.
    pub fn unselected(can: CanOverlay) -> Self {
        EcanOverlay {
            can,
            tables: Vec::new(),
            dependents: Vec::new(),
        }
    }

    /// The underlying CAN.
    pub fn can(&self) -> &CanOverlay {
        &self.can
    }

    /// Grows the dense per-id arrays to cover every assigned id.
    fn grow_arrays(&mut self) {
        let n = self.can.id_bound();
        if self.tables.len() < n {
            self.tables.resize_with(n, NodeTable::default);
            self.dependents.resize_with(n, Vec::new);
        }
    }

    /// Replaces `id`'s table, keeping the reverse index in sync.
    fn set_table(&mut self, id: OverlayNodeId, table: NodeTable) {
        self.grow_arrays();
        let old = std::mem::replace(&mut self.tables[id.index()], table);
        for e in &old.entries {
            self.unlink(e.rep, id);
        }
        for e in &self.tables[id.index()].entries {
            self.dependents[e.rep as usize].push(id.0);
        }
    }

    /// Drops one `rep → owner` link from the reverse index.
    fn unlink(&mut self, rep: u32, owner: OverlayNodeId) {
        let deps = &mut self.dependents[rep as usize];
        if let Some(pos) = deps.iter().position(|&d| d == owner.0) {
            deps.swap_remove(pos);
        }
    }

    /// Overwrites `target` with the box of a stored entry, materialized
    /// against the level the owner's table was built at. The owner's zone
    /// may have been split thinner since, but it can only have shrunk *in
    /// place*, so its centre still falls in the same aligned cell and the
    /// box is unchanged. In place: a caller walking a table reuses one box.
    fn entry_box(zone: &Zone, built_level: u32, e: &CompactEntry, target: &mut Zone) {
        let level = built_level + 1 - e.order as u32;
        target.set_aligned_neighbor(zone, level, e.axis as usize, e.dir as f64);
    }

    /// The expressway entries of `id` (empty for shallow zones and
    /// departed nodes), materialized from the compact table.
    // tao-lint: allow(panic-reachability, reason = "materialization arithmetic is bounded by built_level anchoring; a level underflow is a table-construction bug the invariant tests pin down")
    pub fn high_order_entries(&self, id: OverlayNodeId) -> Vec<HighOrderEntry> {
        let Some(table) = self.tables.get(id.index()) else {
            return Vec::new();
        };
        if table.entries.is_empty() {
            return Vec::new();
        }
        let Ok(zone) = self.can.zone(id) else {
            return Vec::new();
        };
        table
            .entries
            .iter()
            .map(|e| {
                let mut target_box = zone.clone();
                Self::entry_box(&zone, table.built_level, e, &mut target_box);
                HighOrderEntry {
                    order: e.order as u32,
                    target_box,
                    representative: OverlayNodeId(e.rep),
                }
            })
            .collect()
    }

    /// Recomputes every node's expressway table with a (possibly different)
    /// selector — e.g. after pub/sub notifications triggered re-selection.
    /// This is the explicit global repair hook; membership changes never
    /// trigger it (see [`EcanOverlay::join_and_select`] and
    /// [`EcanOverlay::depart_and_repair`] for the incremental paths).
    pub fn reselect(&mut self, selector: &mut dyn NeighborSelector) {
        let live: Vec<OverlayNodeId> = self.can.live_nodes().collect();
        for t in &mut self.tables {
            *t = NodeTable::default();
        }
        for d in &mut self.dependents {
            d.clear();
        }
        let mut memo = BoxMemo::new();
        for id in live {
            let table = self.build_table(id, selector, Some(&mut memo));
            self.set_table(id, table);
        }
    }

    /// Recomputes the expressway table of a single node.
    pub fn reselect_node(&mut self, id: OverlayNodeId, selector: &mut dyn NeighborSelector) {
        let table = self.build_table(id, selector, None);
        self.set_table(id, table);
    }

    /// Joins a new node at `point`, splitting the owner's zone, *without*
    /// building its expressway table (the paper's modified join procedure
    /// first publishes the newcomer's soft-state, then selects neighbors —
    /// call [`EcanOverlay::reselect_node`] afterwards).
    ///
    /// The former owner keeps its table: its entries are anchored to the
    /// level it was built at, and its zone only shrank in place, so their
    /// boxes stay valid. What goes stale are *other* tables' entries that
    /// name the owner inside the half it gave up; nothing repairs them until
    /// their owners re-select, so [`EcanOverlay::check_invariants`] may fail
    /// and the repairing paths ([`EcanOverlay::join_and_select`],
    /// [`EcanOverlay::depart_and_repair`]) must not be used until then.
    /// Routing stays correct in the interim because tables only ever
    /// *shorten* routes.
    ///
    /// # Panics
    ///
    /// Panics if the point has the wrong dimensionality.
    pub fn join_unselected(
        &mut self,
        underlay: tao_topology::NodeIdx,
        point: Point,
    ) -> OverlayNodeId {
        let id = self.can.join(underlay, point);
        // Drop tables whose entries might now point at a stale zone view:
        // only the former owner's zone changed shape, and representatives
        // remain live members, so existing tables stay usable as-is.
        self.set_table(id, NodeTable::default());
        id
    }

    /// Joins a new node and maintains every affected table incrementally:
    /// the newcomer's table is built, the split owner's table is rebuilt
    /// (its zone halved), and owners whose entries named the split owner
    /// inside a box it vacated are repaired entry-by-entry. No other
    /// table is touched — this is the membership path for populations
    /// where a full [`EcanOverlay::reselect`] is unaffordable.
    ///
    /// Only the entries that name the split owner are re-checked, which is
    /// exact when every table was sound before the join (the entry clause
    /// of [`EcanOverlay::check_invariants`]); after
    /// [`EcanOverlay::join_unselected`] or [`EcanOverlay::depart`] it is not,
    /// until a `reselect` restores it.
    ///
    /// # Panics
    ///
    /// Panics if the point has the wrong dimensionality.
    // tao-lint: allow(panic-reachability, reason = "documented panic on dimensionality mismatch; table build panics only on corrupted zone bookkeeping the churn invariant tests pin down")
    pub fn join_and_select(
        &mut self,
        underlay: tao_topology::NodeIdx,
        point: Point,
        selector: &mut dyn NeighborSelector,
    ) -> OverlayNodeId {
        let (id, prev_owner) = self.can.join_split(underlay, point);
        self.reselect_node(id, selector);
        if let Some(owner) = prev_owner {
            self.reselect_node(owner, selector);
            // The owner kept only half its zone; entries elsewhere that
            // advertised it inside the vacated half must be re-pointed.
            let deps = self.dependents_of(owner);
            for d in deps {
                self.repair_entries(d, owner, selector);
            }
        }
        id
    }

    /// Departs a node from the underlying CAN, dropping its table. Other
    /// nodes' tables may still name the departed node; re-select them (the
    /// maintenance machinery's job) or rely on routing's liveness filter.
    ///
    /// # Errors
    ///
    /// Propagates [`OverlayError`] from [`CanOverlay::leave`].
    pub fn depart(&mut self, id: OverlayNodeId) -> Result<(), OverlayError> {
        self.can.leave(id)?;
        self.set_table(id, NodeTable::default());
        Ok(())
    }

    /// Departs a node and repairs every table that referenced it, entry by
    /// entry: each dangling entry gets a fresh representative from its
    /// target box (or is dropped if the box holds no other member). Only
    /// the actual dependents are touched, and of their tables only the
    /// entries that name `id` — no full rebuild. Like
    /// [`EcanOverlay::join_and_select`], this assumes every table was sound
    /// before the departure.
    ///
    /// # Errors
    ///
    /// Propagates [`OverlayError`] from [`CanOverlay::leave`].
    // tao-lint: allow(panic-reachability, reason = "repair panics only on corrupted tables; the incremental-churn property test drives every recoverable path")
    pub fn depart_and_repair(
        &mut self,
        id: OverlayNodeId,
        selector: &mut dyn NeighborSelector,
    ) -> Result<(), OverlayError> {
        let deps = self.dependents_of(id);
        self.depart(id)?;
        for d in deps {
            self.repair_entries(d, id, selector);
        }
        Ok(())
    }

    /// Re-points or drops the entries of `d` that name `changed` and whose
    /// representative is dead or no longer owns space inside the
    /// advertised box; sound entries are left untouched (and their
    /// selector state unconsumed). An entry that names another node is
    /// skipped without materializing its box: `changed` is the only node
    /// one membership op can move out of a box, so the skip is exact when
    /// every entry was sound before the op. An entry that changes is
    /// patched where it stands and only its own two reverse-index links
    /// move.
    fn repair_entries(
        &mut self,
        d: OverlayNodeId,
        changed: OverlayNodeId,
        selector: &mut dyn NeighborSelector,
    ) {
        let Ok(zone) = self.can.zone(d) else {
            return;
        };
        let built_level = self.tables[d.index()].built_level;
        let mut target_box = zone.clone();
        let mut at = 0;
        while let Some(&e) = self.tables[d.index()].entries.get(at) {
            if e.rep != changed.0 {
                at += 1;
                continue;
            }
            Self::entry_box(&zone, built_level, &e, &mut target_box);
            if self
                .can
                .zone_intersects(OverlayNodeId(e.rep), &target_box)
                .unwrap_or(false)
            {
                at += 1;
                continue;
            }
            self.unlink(e.rep, d);
            match self.representative(d, &target_box, selector, None) {
                Some(r) => {
                    self.tables[d.index()].entries[at].rep = r.0;
                    self.dependents[r.index()].push(d.0);
                    at += 1;
                }
                None => {
                    self.tables[d.index()].entries.remove(at);
                }
            }
        }
    }

    /// Ids of live nodes whose expressway tables reference `id` — the
    /// subscribers that need re-selection when `id` departs. Served from
    /// the reverse index in O(dependents), not by scanning every table.
    // tao-lint: allow(panic-reachability, reason = "bounds-checked get with an empty-Vec fallback; the panic edge is the approximate name-match on index()")
    pub fn dependents_of(&self, id: OverlayNodeId) -> Vec<OverlayNodeId> {
        let Some(deps) = self.dependents.get(id.index()) else {
            return Vec::new();
        };
        let mut out: Vec<OverlayNodeId> = deps
            .iter()
            .filter(|&&d| d != id.0)
            .map(|&d| OverlayNodeId(d))
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// The high-order zones enclosing `id`'s CAN zone, order 2 upward
    /// (largest order last, just below the whole space).
    pub fn enclosing_high_order_zones(&self, id: OverlayNodeId) -> Vec<Zone> {
        let Ok(zone) = self.can.zone(id) else {
            return Vec::new();
        };
        let base_level = aligned_level(&zone);
        // Order-2 zone first (level base_level - 1), whole space excluded.
        (1..base_level)
            .rev()
            .map(|level| zone.enclosing_aligned_box(level))
            .collect()
    }

    /// The representative of `target_box` for `id`, or `None` when the box
    /// gets no entry: the selector's answer for the whole box, else its
    /// pick from the member list — kept in the pass's `memo`, if there is
    /// one, so a box is listed once per pass. The one place a list is
    /// requested and `id` kept out of its own candidates.
    fn representative(
        &self,
        id: OverlayNodeId,
        target_box: &Zone,
        selector: &mut dyn NeighborSelector,
        memo: Option<&mut BoxMemo>,
    ) -> Option<OverlayNodeId> {
        match selector.select_in_box(id, target_box, &self.can) {
            BoxSelection::Chosen(r) if r != id && self.can.is_live(r) => return Some(r),
            BoxSelection::Skip => return None,
            _ => {}
        }
        let (listed, without_id);
        let keyed = memo.and_then(|m| Some((m, self.can.cover(target_box)?)));
        let mut candidates: &[OverlayNodeId] = match keyed {
            Some((m, key)) => m
                .entry(key)
                .or_insert_with(|| self.can.nodes_in(target_box)),
            None => {
                listed = self.can.nodes_in(target_box);
                &listed
            }
        };
        // Only a taker of departed zones can own space in a box next to its
        // own, so on a pristine overlay the list is used as it stands.
        if candidates.binary_search(&id).is_ok() {
            without_id = candidates
                .iter()
                .copied()
                .filter(|&c| c != id)
                .collect::<Vec<_>>();
            candidates = &without_id;
        }
        if candidates.is_empty() {
            return None;
        }
        Some(selector.select(id, target_box, candidates, &self.can))
    }

    fn build_table(
        &self,
        id: OverlayNodeId,
        selector: &mut dyn NeighborSelector,
        mut memo: Option<&mut BoxMemo>,
    ) -> NodeTable {
        let mut table = NodeTable::default();
        let Ok(zone) = self.can.zone(id) else {
            return table;
        };
        let dims = self.can.dims();
        let base_level = aligned_level(&zone);
        table.built_level = base_level;
        // Order-1 is the node's aligned box at base_level; order-i is the
        // aligned box at base_level - (i - 1). Entries exist for orders 2..;
        // the box at level 0 is the whole space and has no neighbors.
        let mut order = 2u32;
        let mut level = base_level.saturating_sub(1);
        let mut target_box = zone.clone();
        while level >= 1 {
            for axis in 0..dims {
                // The two shifts along one axis can wrap to the same box
                // (level 1), which gets one entry; boxes of different axes
                // differ, and no shift of less than the whole space wraps a
                // box onto itself.
                let mut entered_lo = None;
                for dir in [-1i8, 1] {
                    target_box.set_aligned_neighbor(&zone, level, axis, dir as f64);
                    if entered_lo == Some(target_box.lo(axis)) {
                        continue;
                    }
                    let Some(representative) =
                        self.representative(id, &target_box, selector, memo.as_deref_mut())
                    else {
                        continue;
                    };
                    debug_assert!(order <= u8::MAX as u32, "order overflows compact entry");
                    entered_lo = Some(target_box.lo(axis));
                    table.entries.push(CompactEntry {
                        order: order as u8,
                        axis: axis as u8,
                        dir,
                        rep: representative.0,
                    });
                }
            }
            if level == 1 {
                break;
            }
            level -= 1;
            order += 1;
        }
        table
    }

    /// Routes from `source` to the owner of `target` using both default CAN
    /// neighbors and expressway entries, greedily minimising the distance
    /// from the next hop's zone to the target.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CanOverlay::route`].
    pub fn route_express(
        &self,
        source: OverlayNodeId,
        target: &Point,
    ) -> Result<Route, OverlayError> {
        let mut scratch = crate::RouteScratch::new();
        self.route_express_into(&mut scratch, source, target)?;
        Ok(Route {
            hops: scratch.take_hops(),
        })
    }

    /// [`EcanOverlay::route_express`] with the visited set and hop buffer
    /// living in `scratch`, so a caller that routes more than once
    /// allocates nothing after the first call. On success the hop sequence
    /// (source first) is in
    /// [`RouteScratch::hops`](crate::RouteScratch::hops); on error the
    /// scratch is still reusable.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CanOverlay::route`].
    // tao-lint: hot
    // tao-lint: allow(panic-reachability, reason = "scratch stamps are sized by begin_can(id_bound()) before any mark; distances index bounds by live ids and the stuck-fallback delegates to route_append's guarded edges")
    pub fn route_express_into(
        &self,
        scratch: &mut crate::RouteScratch,
        source: OverlayNodeId,
        target: &Point,
    ) -> Result<(), OverlayError> {
        if target.dims() != self.can.dims() {
            return Err(OverlayError::DimensionMismatch {
                expected: self.can.dims(),
                got: target.dims(),
            });
        }
        if !self.can.is_live(source) {
            return Err(OverlayError::UnknownNode(source));
        }
        scratch.begin_can(self.can.id_bound());
        scratch.push_hop(source);
        scratch.mark(source.index());
        let mut current = source;
        let limit = 4 * self.can.len() + 16;
        let pristine = self.can.is_pristine();
        let p = target.coords();
        while !self.can.node_owns_point(current.index(), target, pristine) {
            if scratch.hops_len() > limit {
                return Err(OverlayError::RoutingStuck { at: current });
            }
            // One chain of candidates: default neighbors, then expressway
            // representatives, which may be departed or name a neighbor.
            let defaults = self.can.neighbor_slice(current.index()).iter().copied();
            let express = self
                .tables
                .get(current.index())
                .map(|t| t.entries.as_slice())
                .unwrap_or(&[])
                .iter()
                .map(|e| OverlayNodeId(e.rep));
            let Some(next) = self
                .can
                .next_hop(scratch, defaults.chain(express), p, pristine)
            else {
                // Expressway jumps can strand greedy in a pocket where every
                // neighbor was already tried. Default CAN routing from here
                // is loop-free on a visited generation of its own; its tail
                // is spliced after the express prefix.
                return self.can.route_append(scratch, current, target);
            };
            scratch.mark(next.index());
            scratch.push_hop(next);
            current = next;
        }
        Ok(())
    }

    /// Asserts the eCAN's structural invariants, panicking with a
    /// description on the first violation:
    ///
    /// * the underlying CAN's invariants (zone tiling, neighbor symmetry,
    ///   one split-tree leaf per held zone);
    /// * every non-empty expressway table belongs to a live node;
    /// * every entry has order ≥ 2, a representative that is live, is not
    ///   the owner, and still owns space inside the entry's target box;
    /// * the reverse index is exactly the multiset of `(representative →
    ///   owner)` pairs the tables hold.
    ///
    /// Intended for churn tests. The entry clause is also the precondition
    /// of the incremental paths: [`EcanOverlay::build`], the `reselect`
    /// paths, [`EcanOverlay::join_and_select`] and
    /// [`EcanOverlay::depart_and_repair`] preserve it, while entries go
    /// stale by design after [`EcanOverlay::join_unselected`] or
    /// [`EcanOverlay::depart`] until re-selection repairs them.
    pub fn check_invariants(&self) {
        self.can.check_invariants();
        // Every pair the tables hold is listed as often as it is held, and
        // nothing else is: counted in place, so the check holds no copy of
        // the index (it runs at 131k nodes when the benchmark closes).
        let mut held = 0;
        for (owner, table) in self.tables.iter().enumerate() {
            for e in &table.entries {
                let named = table.entries.iter().filter(|x| x.rep == e.rep).count();
                let listed = &self.dependents[e.rep as usize];
                let listed = listed.iter().filter(|&&o| o as usize == owner).count();
                assert_eq!(
                    listed, named,
                    "reverse index of o{} lists o{owner} {listed}x",
                    e.rep
                );
            }
            held += table.entries.len();
        }
        let listed: usize = self.dependents.iter().map(Vec::len).sum();
        assert_eq!(
            listed, held,
            "the reverse index lists a link no table holds"
        );
        for i in 0..self.tables.len() {
            if self.tables[i].entries.is_empty() {
                continue;
            }
            let owner = OverlayNodeId(i as u32);
            assert!(
                self.can.is_live(owner),
                "expressway table belongs to departed node {owner}"
            );
            for e in self.high_order_entries(owner) {
                assert!(e.order >= 2, "{owner} has an order-{} entry", e.order);
                assert_ne!(
                    e.representative, owner,
                    "{owner} chose itself as a representative"
                );
                let zones = self.can.zones(e.representative).unwrap_or_else(|_| {
                    panic!(
                        "{owner}'s order-{} entry names departed {}",
                        e.order, e.representative
                    )
                });
                assert!(
                    zones.iter().any(|z| z.intersects(&e.target_box)),
                    "{owner}'s order-{} representative {} left the target box",
                    e.order,
                    e.representative
                );
            }
        }
    }
}

/// The finest aligned-grid level that still contains `zone`: the number of
/// complete halving rounds across all axes, i.e. `min_axis log2(1/extent)`.
#[expect(clippy::expect_used, reason = "zones have at least one axis")]
fn aligned_level(zone: &Zone) -> u32 {
    (0..zone.dims())
        .map(|a| (-zone.extent(a).log2()).floor() as u32)
        .min()
        .expect("zones have at least one axis")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tao_topology::{NodeIdx, RttOracle};
    use tao_util::rand::rngs::StdRng;
    use tao_util::rand::{Rng, SeedableRng};

    fn grown_can(n: u32, dims: usize, seed: u64) -> CanOverlay {
        let mut can = CanOverlay::new(dims).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..n {
            can.join(NodeIdx(i), Point::random(dims, &mut rng));
        }
        can
    }

    #[test]
    fn shifted_box_wraps_on_the_torus() {
        let (left, right) = Zone::whole(2).split(0);
        let (left_low, right_low) = (left.split(1).0, right.split(1).0);
        let mut shifted = Zone::whole(2);
        shifted.set_aligned_neighbor(&left_low, 1, 0, 1.0);
        assert_eq!(shifted, right_low);
        shifted.set_aligned_neighbor(&left_low, 1, 0, -1.0);
        assert_eq!(shifted, right_low, "-1/2 wraps to the same box");
        shifted.set_aligned_neighbor(&right_low, 1, 0, 0.0);
        assert_eq!(shifted, right_low.enclosing_aligned_box(1));
    }

    #[test]
    fn tables_point_into_the_advertised_box() {
        let can = grown_can(128, 2, 3);
        let ecan = EcanOverlay::build(can, &mut RandomSelector::new(9));
        let mut total_entries = 0;
        for id in ecan.can().live_nodes() {
            for e in ecan.high_order_entries(id) {
                total_entries += 1;
                assert_ne!(e.representative, id);
                assert!(
                    ecan.can()
                        .nodes_in(&e.target_box)
                        .contains(&e.representative),
                    "representative {} lies outside its box",
                    e.representative
                );
                assert!(e.order >= 2);
            }
        }
        assert!(total_entries > 0, "a 128-node eCAN must have expressways");
        ecan.check_invariants();
    }

    #[test]
    fn deep_nodes_have_multiple_orders() {
        let can = grown_can(256, 2, 5);
        let ecan = EcanOverlay::build(can, &mut RandomSelector::new(1));
        let max_order = ecan
            .can()
            .live_nodes()
            .flat_map(|id| ecan.high_order_entries(id))
            .map(|e| e.order)
            .max()
            .unwrap();
        assert!(
            max_order >= 3,
            "256 nodes should yield order >= 3, got {max_order}"
        );
    }

    #[test]
    fn express_routing_reaches_the_owner() {
        let can = grown_can(200, 2, 7);
        let ecan = EcanOverlay::build(can, &mut RandomSelector::new(2));
        let mut rng = StdRng::seed_from_u64(8);
        let live: Vec<OverlayNodeId> = ecan.can().live_nodes().collect();
        for _ in 0..100 {
            let src = live[rng.gen_range(0..live.len())];
            let target = Point::random(2, &mut rng);
            let route = ecan.route_express(src, &target).unwrap();
            assert_eq!(*route.hops.last().unwrap(), ecan.can().owner(&target));
        }
    }

    #[test]
    fn expressways_shorten_routes_on_average() {
        let can = grown_can(512, 2, 11);
        let ecan = EcanOverlay::build(can, &mut RandomSelector::new(3));
        let mut rng = StdRng::seed_from_u64(1);
        let live: Vec<OverlayNodeId> = ecan.can().live_nodes().collect();
        let mut plain = 0usize;
        let mut express = 0usize;
        let mut scratch = crate::RouteScratch::new();
        for _ in 0..150 {
            let src = live[rng.gen_range(0..live.len())];
            let target = Point::random(2, &mut rng);
            ecan.can().route_into(&mut scratch, src, &target).unwrap();
            plain += scratch.hop_count();
            express += ecan.route_express(src, &target).unwrap().hop_count();
        }
        assert!(
            (express as f64) < 0.7 * plain as f64,
            "expressways should cut hops: plain={plain}, express={express}"
        );
    }

    #[test]
    fn closest_selector_picks_the_nearest_candidate() {
        use tao_topology::{generate_transit_stub, LatencyAssignment, TransitStubParams};
        let topo = generate_transit_stub(
            &TransitStubParams::tsk_small_mini(),
            LatencyAssignment::manual(),
            2,
        );
        let oracle = RttOracle::new(topo.graph().clone());
        let mut can = CanOverlay::new(2).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        for i in 0..64 {
            can.join(NodeIdx(i * 3), Point::random(2, &mut rng));
        }
        let mut sel = ClosestSelector::new(oracle.clone());
        let ecan = EcanOverlay::build(can, &mut sel);
        for id in ecan.can().live_nodes() {
            let me = ecan.can().underlay(id);
            for e in ecan.high_order_entries(id) {
                let mut members = ecan.can().nodes_in(&e.target_box);
                members.retain(|&c| c != id);
                let rep_d = oracle.ground_truth(me, ecan.can().underlay(e.representative));
                for m in members {
                    let md = oracle.ground_truth(me, ecan.can().underlay(m));
                    assert!(rep_d <= md, "representative is not the closest member");
                }
            }
        }
    }

    #[test]
    fn reselect_node_changes_only_that_node() {
        let can = grown_can(64, 2, 13);
        let mut ecan = EcanOverlay::build(can, &mut RandomSelector::new(5));
        let live: Vec<OverlayNodeId> = ecan.can().live_nodes().collect();
        let target = live[10];
        let before_other: Vec<_> = ecan.high_order_entries(live[20]);
        ecan.reselect_node(target, &mut RandomSelector::new(999));
        assert_eq!(ecan.high_order_entries(live[20]), before_other);
    }

    #[test]
    fn join_unselected_keeps_routing_correct() {
        let can = grown_can(64, 2, 23);
        let mut ecan = EcanOverlay::build(can, &mut RandomSelector::new(1));
        let mut rng = StdRng::seed_from_u64(24);
        let id = ecan.join_unselected(NodeIdx(9_000), Point::random(2, &mut rng));
        assert!(
            ecan.high_order_entries(id).is_empty(),
            "no table until reselect"
        );
        ecan.reselect_node(id, &mut RandomSelector::new(2));
        // Routing from and to the newcomer works.
        let target = ecan.can().zone(id).unwrap().center();
        let live: Vec<OverlayNodeId> = ecan.can().live_nodes().collect();
        let route = ecan.route_express(live[0], &target).unwrap();
        assert_eq!(*route.hops.last().unwrap(), ecan.can().owner(&target));
    }

    #[test]
    fn unselected_overlay_is_sound_and_routes_like_the_can() {
        let ecan = EcanOverlay::unselected(grown_can(96, 2, 53));
        ecan.check_invariants();
        let mut rng = StdRng::seed_from_u64(54);
        let live: Vec<OverlayNodeId> = ecan.can().live_nodes().collect();
        for &id in &live {
            assert!(
                ecan.high_order_entries(id).is_empty(),
                "no table until reselect"
            );
            assert!(
                ecan.dependents_of(id).is_empty(),
                "nobody is a representative yet"
            );
        }
        // With every table empty an express route is the greedy CAN route.
        let mut scratch = crate::RouteScratch::new();
        for _ in 0..50 {
            let src = live[rng.gen_range(0..live.len())];
            let target = Point::random(2, &mut rng);
            let route = ecan.route_express(src, &target).unwrap();
            assert_eq!(*route.hops.last().unwrap(), ecan.can().owner(&target));
            ecan.can().route_into(&mut scratch, src, &target).unwrap();
            assert_eq!(route.hops, scratch.hops());
        }
        // `build` is `unselected` followed by the one pass.
        let mut selected = ecan.clone();
        selected.reselect(&mut RandomSelector::new(55));
        let built = EcanOverlay::build(ecan.can().clone(), &mut RandomSelector::new(55));
        for &id in &live {
            assert_eq!(
                selected.high_order_entries(id),
                built.high_order_entries(id)
            );
        }
    }

    #[test]
    fn depart_drops_table_and_dependents_are_found() {
        let can = grown_can(128, 2, 29);
        let mut ecan = EcanOverlay::build(can, &mut RandomSelector::new(3));
        // Find a node referenced by someone's table.
        let victim = ecan
            .can()
            .live_nodes()
            .find(|&id| !ecan.dependents_of(id).is_empty())
            .expect("somebody is a representative");
        let deps = ecan.dependents_of(victim);
        assert!(deps.iter().all(|d| *d != victim));
        ecan.depart(victim).unwrap();
        assert!(ecan.high_order_entries(victim).is_empty());
        assert!(ecan.can().zone(victim).is_err());
        // Dependents re-select and no longer reference the departed node.
        for d in deps {
            ecan.reselect_node(d, &mut RandomSelector::new(4));
            assert!(ecan
                .high_order_entries(d)
                .iter()
                .all(|e| e.representative != victim));
        }
    }

    #[test]
    fn dependents_index_matches_a_table_scan() {
        let can = grown_can(160, 2, 37);
        let mut ecan = EcanOverlay::build(can, &mut RandomSelector::new(7));
        // Churn a little so the index sees table replacement too.
        for id in [4u32, 31, 77] {
            ecan.depart(OverlayNodeId(id)).unwrap();
        }
        let live: Vec<OverlayNodeId> = ecan.can().live_nodes().collect();
        ecan.reselect_node(live[3], &mut RandomSelector::new(8));
        for probe in 0..ecan.can().id_bound() as u32 {
            let probe = OverlayNodeId(probe);
            let mut scan: Vec<OverlayNodeId> = live
                .iter()
                .copied()
                .filter(|&o| {
                    o != probe
                        && ecan
                            .high_order_entries(o)
                            .iter()
                            .any(|e| e.representative == probe)
                })
                .collect();
            scan.sort();
            assert_eq!(
                ecan.dependents_of(probe),
                scan,
                "reverse index diverged for {probe}"
            );
        }
    }

    /// The repair without the skip: the oracle the incremental paths are
    /// held equal to.
    impl EcanOverlay {
        /// Materializes and re-checks every entry of `d`'s table, whichever
        /// node it names; returns how many entries it re-pointed or dropped.
        fn repair_all_entries(
            &mut self,
            d: OverlayNodeId,
            selector: &mut dyn NeighborSelector,
        ) -> usize {
            let Ok(zone) = self.can.zone(d) else {
                return 0;
            };
            let built_level = self.tables[d.index()].built_level;
            let mut target_box = zone.clone();
            let (mut at, mut repaired) = (0, 0);
            while let Some(&e) = self.tables[d.index()].entries.get(at) {
                Self::entry_box(&zone, built_level, &e, &mut target_box);
                if self
                    .can
                    .zone_intersects(OverlayNodeId(e.rep), &target_box)
                    .unwrap_or(false)
                {
                    at += 1;
                    continue;
                }
                repaired += 1;
                self.unlink(e.rep, d);
                match self.representative(d, &target_box, selector, None) {
                    Some(r) => {
                        self.tables[d.index()].entries[at].rep = r.0;
                        self.dependents[r.index()].push(d.0);
                        at += 1;
                    }
                    None => {
                        self.tables[d.index()].entries.remove(at);
                    }
                }
            }
            repaired
        }

        /// [`EcanOverlay::join_and_select`] repairing through the oracle.
        fn join_and_recheck_all(
            &mut self,
            underlay: NodeIdx,
            point: Point,
            selector: &mut dyn NeighborSelector,
        ) -> usize {
            let (id, prev_owner) = self.can.join_split(underlay, point);
            self.reselect_node(id, selector);
            let Some(owner) = prev_owner else {
                return 0;
            };
            self.reselect_node(owner, selector);
            let deps = self.dependents_of(owner);
            deps.into_iter()
                .map(|d| self.repair_all_entries(d, selector))
                .sum()
        }

        /// [`EcanOverlay::depart_and_repair`] repairing through the oracle.
        fn depart_and_recheck_all(
            &mut self,
            id: OverlayNodeId,
            selector: &mut dyn NeighborSelector,
        ) -> usize {
            let deps = self.dependents_of(id);
            self.depart(id).expect("live victim");
            deps.into_iter()
                .map(|d| self.repair_all_entries(d, selector))
                .sum()
        }
    }

    mod properties {
        use super::*;
        use tao_util::check::for_all;
        use tao_util::rand::Rng;
        use tao_util::{check, check_eq, check_ne};

        /// For any overlay size and seed, express routing terminates at
        /// the owner of the target point.
        #[test]
        fn express_routing_always_reaches_the_owner() {
            for_all("express_routing_always_reaches_the_owner", 24, |rng| {
                let n = rng.gen_range(4u32..96);
                let seed: u64 = rng.gen();
                let tx = rng.gen_range(0.0f64..1.0);
                let ty = rng.gen_range(0.0f64..1.0);
                let can = grown_can(n, 2, seed);
                let ecan = EcanOverlay::build(can, &mut RandomSelector::new(seed ^ 1));
                let live: Vec<OverlayNodeId> = ecan.can().live_nodes().collect();
                let target = Point::clamped(vec![tx, ty]);
                let route = ecan
                    .route_express(live[(seed as usize) % live.len()], &target)
                    .expect("routing succeeds on a consistent overlay");
                check_eq!(
                    *route.hops.last().expect("non-empty"),
                    ecan.can().owner(&target),
                    "n={n} seed={seed:#x}"
                );
            });
        }

        /// High-order tables never reference the owner itself and every
        /// representative is live.
        #[test]
        fn tables_are_well_formed() {
            for_all("tables_are_well_formed", 24, |rng| {
                let n = rng.gen_range(8u32..80);
                let seed: u64 = rng.gen();
                let can = grown_can(n, 2, seed);
                let ecan = EcanOverlay::build(can, &mut RandomSelector::new(seed ^ 2));
                for id in ecan.can().live_nodes() {
                    for e in ecan.high_order_entries(id) {
                        check_ne!(e.representative, id);
                        check!(
                            ecan.can().zone(e.representative).is_ok(),
                            "dead representative, n={n} seed={seed:#x}"
                        );
                    }
                }
            });
        }

        /// Forwards to `inner` after holding every list it is handed to
        /// `nodes_in` (content and order, the selecting node removed).
        struct ListChecked<'c, S> {
            inner: S,
            /// Lists that had the selecting node taken out of them.
            self_excluded: &'c std::cell::Cell<u32>,
        }

        impl<S: NeighborSelector> NeighborSelector for ListChecked<'_, S> {
            fn select(
                &mut self,
                for_node: OverlayNodeId,
                target_box: &Zone,
                candidates: &[OverlayNodeId],
                can: &CanOverlay,
            ) -> OverlayNodeId {
                let members = can.nodes_in(target_box);
                let want: Vec<OverlayNodeId> =
                    members.iter().copied().filter(|&c| c != for_node).collect();
                check_eq!(candidates, want.as_slice());
                if want.len() < members.len() {
                    self.self_excluded.set(self.self_excluded.get() + 1);
                }
                self.inner.select(for_node, target_box, candidates, can)
            }
        }

        /// One `reselect` pass (lists shared across nodes) equals
        /// node-by-node `reselect_node` (a fresh list per box) under an
        /// identically seeded selector, table for table, and every list
        /// either path hands a selector is exactly `nodes_in` without the
        /// selecting node — on pristine overlays and on churned ones,
        /// where takers own space in boxes next to their own.
        #[test]
        fn one_pass_equals_node_by_node_selection() {
            use tao_topology::{generate_transit_stub, LatencyAssignment, TransitStubParams};
            let topo = generate_transit_stub(
                &TransitStubParams::tsk_small_mini(),
                LatencyAssignment::manual(),
                2,
            );
            let oracle = RttOracle::new(topo.graph().clone());
            let routers = topo.graph().node_count() as u32;
            let self_excluded = std::cell::Cell::new(0u32);
            for_all("one_pass_equals_node_by_node_selection", 24, |rng| {
                let n = rng.gen_range(8u32..160);
                let dims = rng.gen_range(2usize..4);
                let seed: u64 = rng.gen();
                let mut can = CanOverlay::new(dims).expect("dims >= 1");
                for i in 0..n {
                    can.join(NodeIdx(i % routers), Point::random(dims, rng));
                }
                if rng.gen_bool(0.6) {
                    for i in 0..n / 3 {
                        let live: Vec<OverlayNodeId> = can.live_nodes().collect();
                        can.leave(live[rng.gen_range(0..live.len())])
                            .expect("live victim");
                        if i % 4 == 0 {
                            can.join(NodeIdx((n + i) % routers), Point::random(dims, rng));
                        }
                    }
                }
                let live: Vec<OverlayNodeId> = can.live_nodes().collect();
                let compare = |pass_sel: &mut dyn NeighborSelector,
                               node_sel: &mut dyn NeighborSelector| {
                    let mut pass = EcanOverlay::unselected(can.clone());
                    pass.reselect(pass_sel);
                    let mut by_node = EcanOverlay::unselected(can.clone());
                    for &id in &live {
                        by_node.reselect_node(id, node_sel);
                    }
                    pass.check_invariants();
                    for &id in &live {
                        check_eq!(
                            pass.high_order_entries(id),
                            by_node.high_order_entries(id),
                            "n={n} dims={dims} seed={seed:#x}"
                        );
                        check_eq!(pass.dependents_of(id), by_node.dependents_of(id));
                    }
                };
                let random = || ListChecked {
                    inner: RandomSelector::new(seed),
                    self_excluded: &self_excluded,
                };
                compare(&mut random(), &mut random());
                let closest = || ListChecked {
                    inner: ClosestSelector::new(oracle.clone()),
                    self_excluded: &self_excluded,
                };
                compare(&mut closest(), &mut closest());
            });
            assert!(
                self_excluded.get() > 0,
                "no generated overlay had a node inside one of its own target boxes"
            );
        }

        /// Incremental maintenance keeps the tables sound after every join
        /// and departure of random churn schedules, and express routes
        /// still reach the owner.
        #[test]
        fn incremental_churn_preserves_invariants() {
            for_all("incremental_churn_preserves_invariants", 16, |rng| {
                let n = rng.gen_range(16u32..96);
                let seed: u64 = rng.gen();
                let can = grown_can(n, 2, seed);
                let mut sel = RandomSelector::new(seed ^ 3);
                let mut ecan = EcanOverlay::build(can, &mut sel);
                for i in 0..40u32 {
                    if rng.gen_bool(0.4) && ecan.can().len() > 4 {
                        let live: Vec<OverlayNodeId> = ecan.can().live_nodes().collect();
                        let victim = live[rng.gen_range(0..live.len())];
                        ecan.depart_and_repair(victim, &mut sel)
                            .expect("live victim");
                    } else {
                        let x = rng.gen_range(0.0f64..1.0);
                        let y = rng.gen_range(0.0f64..1.0);
                        ecan.join_and_select(
                            NodeIdx(50_000 + i),
                            Point::clamped(vec![x, y]),
                            &mut sel,
                        );
                    }
                    ecan.check_invariants();
                }
                check!(!ecan.can().is_empty(), "overlay emptied, seed={seed:#x}");
                let target = Point::random(2, rng);
                let owner = ecan.can().owner(&target);
                for src in ecan.can().live_nodes() {
                    let route = ecan
                        .route_express(src, &target)
                        .expect("consistent overlay");
                    check_eq!(route.hops.last(), Some(&owner), "{seed:#x}");
                }
            });
        }

        /// One step of a generated membership history, drawn the way
        /// `tests/churn_invariants.rs` draws its handovers.
        #[derive(Debug, Clone)]
        enum Step {
            Join(f64, f64),
            Depart(u64),
            /// Depart a node that holds taken-over zones (a no-op while
            /// nobody holds any).
            DepartTaker(u64),
            /// Join at the centre of a taken-over zone, splitting it under
            /// its holder (a no-op while nobody holds any).
            JoinTakenOver(u64),
        }

        /// Repairing only the entries that name the changed node leaves
        /// every table, the reverse index and the selector's stream exactly
        /// where re-checking every entry of every dependent leaves them,
        /// op for op, across generated join / depart histories that hand
        /// zones over and split taken-over zones.
        #[test]
        fn repairing_the_changed_node_equals_rechecking_every_entry() {
            use std::cell::Cell;
            use tao_util::check::for_all_sequences;

            let (repaired, handovers) = (Cell::new(0usize), Cell::new(0u32));
            let generate = |rng: &mut StdRng| -> Vec<Step> {
                (0..48)
                    .map(|_| match rng.gen_range(0..10) {
                        0..=2 => Step::Join(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)),
                        3..=5 => Step::Depart(rng.gen()),
                        6..=7 => Step::DepartTaker(rng.gen()),
                        _ => Step::JoinTakenOver(rng.gen()),
                    })
                    .collect()
            };
            let replay = |steps: &[Step]| {
                let can = grown_can(24, 2, 41);
                let mut sel = RandomSelector::new(42);
                let mut oracle_sel = sel.clone();
                let mut ecan = EcanOverlay::build(can.clone(), &mut sel);
                let mut oracle = EcanOverlay::build(can, &mut oracle_sel);
                let mut next_underlay = 24u32;
                for step in steps {
                    let can = ecan.can();
                    let live: Vec<OverlayNodeId> = can.live_nodes().collect();
                    let pick = |from: &[OverlayNodeId], draw: u64| from[draw as usize % from.len()];
                    let takers: Vec<OverlayNodeId> = live
                        .iter()
                        .copied()
                        .filter(|&id| can.zones(id).expect("live node").len() > 1)
                        .collect();
                    let (join_at, victim) = match *step {
                        Step::Join(x, y) => (Some(Point::clamped(vec![x, y])), None),
                        Step::Depart(draw) => (None, Some(pick(&live, draw))),
                        Step::DepartTaker(draw) if !takers.is_empty() => {
                            handovers.set(handovers.get() + 1);
                            (None, Some(pick(&takers, draw)))
                        }
                        Step::JoinTakenOver(draw) if !takers.is_empty() => {
                            let zones = can.zones(pick(&takers, draw)).expect("live node");
                            handovers.set(handovers.get() + 1);
                            let at = 1 + (draw >> 32) as usize % (zones.len() - 1);
                            (Some(zones[at].center()), None)
                        }
                        _ => (None, None),
                    };
                    if let Some(point) = join_at {
                        let underlay = NodeIdx(next_underlay);
                        next_underlay += 1;
                        ecan.join_and_select(underlay, point.clone(), &mut sel);
                        let n = oracle.join_and_recheck_all(underlay, point, &mut oracle_sel);
                        repaired.set(repaired.get() + n);
                    }
                    if let Some(victim) = victim.filter(|_| live.len() > 4) {
                        ecan.depart_and_repair(victim, &mut sel)
                            .expect("live victim");
                        let n = oracle.depart_and_recheck_all(victim, &mut oracle_sel);
                        repaired.set(repaired.get() + n);
                    }
                    ecan.check_invariants();
                    oracle.check_invariants();
                    for id in 0..ecan.can().id_bound() as u32 {
                        let id = OverlayNodeId(id);
                        check_eq!(
                            ecan.high_order_entries(id),
                            oracle.high_order_entries(id),
                            "{id}'s table after {step:?}"
                        );
                        check_eq!(
                            ecan.dependents_of(id),
                            oracle.dependents_of(id),
                            "{id}'s dependents after {step:?}"
                        );
                    }
                }
                check_eq!(sel, oracle_sel);
            };
            for_all_sequences(
                "repairing_the_changed_node_equals_rechecking_every_entry",
                32,
                generate,
                replay,
            );
            assert!(
                repaired.get() > 100 && handovers.get() > 20,
                "histories must repair entries ({}) and hand zones over ({})",
                repaired.get(),
                handovers.get()
            );
        }
    }

    #[test]
    fn enclosing_zones_nest() {
        let can = grown_can(128, 2, 19);
        let ecan = EcanOverlay::build(can, &mut RandomSelector::new(4));
        for id in ecan.can().live_nodes() {
            let zones = ecan.enclosing_high_order_zones(id);
            let my_zone = ecan.can().zone(id).unwrap();
            for w in zones.windows(2) {
                assert!(w[1].contains_zone(&w[0]), "high-order zones must nest");
            }
            if let Some(smallest) = zones.first() {
                assert!(smallest.contains_zone(&my_zone));
            }
        }
    }
}
