//! The base CAN overlay: zone ownership, join/departure, neighbor tables,
//! owner lookup, and greedy routing.
//!
//! Ownership is tracked in a binary *zone tree* mirroring the history of
//! splits — the one membership structure: owner lookup, joins, departures,
//! member lists and samples all descend it. A real deployment reconstructs
//! the same information by routing; here it is available without
//! simulating every control message. Neighbor tables are maintained
//! incrementally on join/departure exactly as the CAN protocol would.
//!
//! # Storage layout
//!
//! Node state lives in a struct-of-arrays arena keyed by the dense
//! [`OverlayNodeId`]: one parallel array per field (`underlay`, `alive`,
//! sorted neighbor lists) plus a single flat `bounds` array holding
//! every node's primary-zone bounds contiguously (`2 * dims` doubles per
//! node, lows then highs). The routing sweep — "which neighbor's zone is
//! closest to the target point?" — therefore reads consecutive cache lines
//! instead of chasing a `Box<Zone>` per candidate. Zones taken over from
//! departed neighbors are rare and stay in a per-node spill vector.
//!
//! The split tree is one dense `Vec<u32>` of child links, 4 bytes a tree
//! node. A leaf slot holds its owner's id under a tag bit; a split slot
//! holds the index of its lower child, and the upper child is the next
//! slot, since a join pushes the two halves as a pair. Nothing else is
//! stored: CAN halves a zone along its widest axis, ties to the lowest,
//! which on the dyadic regions of the tree is round-robin — the split at
//! depth `k` halves axis `k mod dims` — and at its region's midpoint. So a
//! descent knows each split's axis and midpoint from its depth and the
//! path it took, and decides by the binary digits of the coordinates it
//! carries (`upper_half`, `halves_met`). This is exact while the tree
//! halves no axis more than 52 times, so that every midpoint is an `f64`;
//! [`CanOverlay::check_invariants`] asserts both facts.
//!
//! Neighbor lists are kept sorted by id, which reproduces the iteration
//! order of the `DetSet` (BTree) representation they replaced, so every
//! decision downstream — taker choice, greedy tie-breaks, table builds —
//! is byte-identical to the previous layout.

use std::error::Error;
use std::fmt;

use tao_topology::NodeIdx;
use tao_util::rand::rngs::StdRng;

use crate::point::Point;
use crate::scratch::RouteScratch;
use crate::select::{BoxSelection, SlotOverlay};
use crate::zone::{box_contains, box_volume, boxes_intersect, boxes_neighbor, gap_sum, Zone};

/// Identifies a node in an overlay. Dense per overlay; ids of departed
/// nodes are *not* reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OverlayNodeId(pub u32);

impl OverlayNodeId {
    /// The id as a `usize`, for slice addressing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for OverlayNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

/// Errors from overlay operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OverlayError {
    /// The node id does not exist or has departed.
    UnknownNode(OverlayNodeId),
    /// The point's dimensionality does not match the overlay's.
    DimensionMismatch {
        /// The overlay's dimensionality.
        expected: usize,
        /// The point's dimensionality.
        got: usize,
    },
    /// The last node cannot depart.
    LastNode,
    /// Greedy routing failed to make progress (should not happen on a
    /// consistent overlay; surfaced rather than looping forever).
    RoutingStuck {
        /// Node at which progress stopped.
        at: OverlayNodeId,
    },
}

impl fmt::Display for OverlayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OverlayError::UnknownNode(id) => write!(f, "unknown or departed overlay node {id}"),
            OverlayError::DimensionMismatch { expected, got } => {
                write!(f, "expected a {expected}-d point, got {got}-d")
            }
            OverlayError::LastNode => write!(f, "the last node cannot depart"),
            OverlayError::RoutingStuck { at } => {
                write!(f, "greedy routing made no progress at {at}")
            }
        }
    }
}

impl Error for OverlayError {}

/// The result of routing a message: the nodes visited, in order, starting
/// with the source and ending with the owner of the target point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Visited nodes, source first.
    pub hops: Vec<OverlayNodeId>,
}

impl Route {
    /// Number of overlay hops (edges traversed).
    pub fn hop_count(&self) -> usize {
        self.hops.len().saturating_sub(1)
    }
}

/// The tag bit of a split-tree slot that holds a leaf: the slot is its
/// owner's id under this bit. A slot without it is a split and holds the
/// index of its lower child; the upper child is the next slot.
const LEAF: u32 = 1 << 31;

/// The node a split-tree slot names, if the slot is a leaf.
fn leaf_of(slot: u32) -> Option<OverlayNodeId> {
    (slot & LEAF != 0).then_some(OverlayNodeId(slot & !LEAF))
}

/// A depth of the split tree, as the splits there cut: along `axis`, which
/// `halvings` splits above have halved already.
#[derive(Debug, Clone, Copy)]
struct Depth {
    axis: usize,
    halvings: u32,
}

impl Depth {
    /// The root's depth: no axis halved yet, axis 0 next.
    const ROOT: Depth = Depth {
        axis: 0,
        halvings: 0,
    };

    /// The depth below this one in a tree of `dims` axes, taken in turn.
    fn below(self, dims: usize) -> Depth {
        if self.axis + 1 == dims {
            Depth {
                axis: 0,
                halvings: self.halvings + 1,
            }
        } else {
            Depth {
                axis: self.axis + 1,
                ..self
            }
        }
    }
}

/// `2^k`, for `k` up to 1023: the exponent field alone.
fn pow2(k: u32) -> f64 {
    f64::from_bits(u64::from(1023 + k) << 52)
}

/// Whether coordinate `c` lies in the upper half of the `j`-th halving of
/// its axis — the test `!(c < mid)` at the midpoint of the region on the
/// way to `c`, read off `c`'s binary digit of weight `2^-(j+1)`. A
/// coordinate of 1.0 or more, and NaN, goes up at every halving and a
/// negative one goes down, as that test sends them.
fn upper_half(c: f64, j: u32) -> bool {
    if c < 0.0 {
        false
    } else if c < 1.0 {
        (c * pow2(j + 1)) as i64 & 1 == 1
    } else {
        true
    }
}

/// Which halves of the `j`-th halving of an axis meet `[lo, hi)`, as
/// `(lower, upper)`, given that the halved region holds `[lo, hi)`. On
/// the grid of side `2^-(j+1)` the region is two cells, and `lo` lies in
/// cell `t`, so the midpoint is the odd one of `t` and `t + 1`.
fn halves_met(lo: f64, hi: f64, j: u32) -> (bool, bool) {
    let scale = pow2(j + 1);
    let t = (lo * scale) as i64;
    (t & 1 == 0, ((t | 1) as f64) < hi * scale)
}

/// `c` cut down to the grid of side `2^-j`.
fn grid_floor(c: f64, j: u32) -> f64 {
    let scale = pow2(j);
    ((c * scale) as i64) as f64 / scale
}

/// The path a box walk took below its fork, one step per split, each on
/// the stack frame that took it: where the chosen child starts along the
/// split's axis. The split `dims` levels down halves that axis again and
/// reads its region's low end here.
struct Trail<'a> {
    lo: f64,
    up: Option<&'a Trail<'a>>,
}

/// A content-addressable network over `[0,1)^d`.
///
/// See the [crate documentation](crate) for an end-to-end example and the
/// [module documentation](self) for the struct-of-arrays storage layout.
#[derive(Debug, Clone)]
pub struct CanOverlay {
    dims: usize,
    /// Underlay router per node, indexed by id.
    underlay: Vec<NodeIdx>,
    /// Liveness flag, indexed by id (departed ids are never reused).
    alive: Vec<bool>,
    /// CAN neighbors per node, each list sorted ascending by id (the same
    /// iteration order as the BTree sets this layout replaced).
    neighbors: Vec<Vec<OverlayNodeId>>,
    /// Primary-zone bounds, flat: node `i` occupies
    /// `bounds[i*2*dims .. (i+1)*2*dims]` as `lo[0..dims] ++ hi[0..dims]`.
    bounds: Vec<f64>,
    /// Zones taken over from departed neighbors (primary zone excluded);
    /// empty for almost every node.
    extra: Vec<Vec<Zone>>,
    /// The split tree as child links (see the module documentation); slot
    /// 0 is the root once a node has joined.
    tree: Vec<u32>,
    live_count: usize,
}

impl CanOverlay {
    /// Creates an empty overlay of dimensionality `dims`.
    ///
    /// Returns `None` if `dims` is zero.
    pub fn new(dims: usize) -> Option<Self> {
        if dims == 0 {
            return None;
        }
        Some(CanOverlay {
            dims,
            underlay: Vec::new(),
            alive: Vec::new(),
            neighbors: Vec::new(),
            bounds: Vec::new(),
            extra: Vec::new(),
            tree: Vec::new(),
            live_count: 0,
        })
    }

    /// Dimensionality of the Cartesian space.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.live_count
    }

    /// `true` if no node has joined (or all departed).
    pub fn is_empty(&self) -> bool {
        self.live_count == 0
    }

    /// `true` if `id` was assigned and has not departed.
    // tao-lint: allow(panic-reachability, reason = "bounds-checked get with unwrap_or; the only panic edge is the approximate name-match on index()")
    pub fn is_live(&self, id: OverlayNodeId) -> bool {
        self.alive.get(id.index()).copied().unwrap_or(false)
    }

    /// One past the largest id ever assigned — the size dense per-id
    /// side tables must have to cover every node, live or departed.
    pub fn id_bound(&self) -> usize {
        self.underlay.len()
    }

    /// Ids of all live nodes.
    pub fn live_nodes(&self) -> impl Iterator<Item = OverlayNodeId> + '_ {
        self.alive
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(i, _)| OverlayNodeId(i as u32))
    }

    /// Errs unless `id` was assigned and is still live.
    fn ensure_live(&self, id: OverlayNodeId) -> Result<(), OverlayError> {
        if self.is_live(id) {
            Ok(())
        } else {
            Err(OverlayError::UnknownNode(id))
        }
    }

    /// Lower bounds of node `i`'s primary zone, one entry per axis.
    fn primary_lo(&self, i: usize) -> &[f64] {
        let base = i * 2 * self.dims;
        // tao-lint: allow(arith-safety, reason = "dense SoA layout: i < id_bound and dims is fixed at construction, so base + dims <= bounds.len() by the arena invariant")
        &self.bounds[base..base + self.dims]
    }

    /// Upper bounds of node `i`'s primary zone, one entry per axis.
    fn primary_hi(&self, i: usize) -> &[f64] {
        let base = i * 2 * self.dims + self.dims;
        // tao-lint: allow(arith-safety, reason = "dense SoA layout: i < id_bound and dims is fixed at construction, so base + dims <= bounds.len() by the arena invariant")
        &self.bounds[base..base + self.dims]
    }

    /// Overwrites node `i`'s primary-zone bounds in the flat array.
    fn set_primary(&mut self, i: usize, z: &Zone) {
        let base = i * 2 * self.dims;
        for a in 0..self.dims {
            self.bounds[base + a] = z.lo(a);
            self.bounds[base + self.dims + a] = z.hi(a);
        }
    }

    /// Materializes node `i`'s primary zone from the flat bounds.
    fn primary_zone(&self, i: usize) -> Zone {
        Zone::from_slices(self.primary_lo(i), self.primary_hi(i))
    }

    /// Appends a node to every parallel array, returning its id.
    fn push_node(&mut self, underlay: NodeIdx, zone: &Zone) -> OverlayNodeId {
        let id = OverlayNodeId(self.underlay.len() as u32);
        self.underlay.push(underlay);
        self.alive.push(true);
        self.neighbors.push(Vec::new());
        for a in 0..self.dims {
            self.bounds.push(zone.lo(a));
        }
        for a in 0..self.dims {
            self.bounds.push(zone.hi(a));
        }
        self.extra.push(Vec::new());
        id
    }

    /// `true` if node `i` owns `p` through any of its zones (primary
    /// first, then takeovers — the order the zones were acquired).
    /// `pristine` (see [`CanOverlay::is_pristine`]) skips the takeovers.
    pub(crate) fn node_owns_point(&self, i: usize, p: &Point, pristine: bool) -> bool {
        box_contains(self.primary_lo(i), self.primary_hi(i), p.coords())
            || (!pristine && self.extra[i].iter().any(|z| z.contains(p)))
    }

    /// `true` while no node has ever departed. Every takeover pushes the
    /// departed primary into the taker's extra-zone list and nothing ever
    /// removes one, so this is exactly "no extra zones exist anywhere" —
    /// the routing loops read it once per route and then skip the per-node
    /// extra lists (a random memory touch per candidate), reading only the
    /// flat SoA bounds.
    pub(crate) fn is_pristine(&self) -> bool {
        self.live_count == self.underlay.len()
    }

    /// Least [`gap_sum`] from any of node `i`'s zones to the coordinates
    /// `p`. `sqrt` is monotone and correctly rounded, so the root of the
    /// least sum is the least distance, bit for bit. `pristine` (see
    /// [`CanOverlay::is_pristine`]) skips the extra-zone list.
    fn node_gap_sum(&self, i: usize, p: &[f64], pristine: bool) -> f64 {
        let mut s = gap_sum(self.primary_lo(i), self.primary_hi(i), p);
        if !pristine {
            for z in &self.extra[i] {
                s = s.min(gap_sum(z.lo_slice(), z.hi_slice(), p));
            }
        }
        s
    }

    /// The `(lo, hi)` bounds of node `i`'s zones, primary first, then
    /// takeovers — the order the zones were acquired.
    fn node_boxes(&self, i: usize) -> impl Iterator<Item = (&[f64], &[f64])> + '_ {
        std::iter::once((self.primary_lo(i), self.primary_hi(i)))
            .chain(self.extra[i].iter().map(|z| (z.lo_slice(), z.hi_slice())))
    }

    /// Total volume of node `i`'s zones, summed primary-first (the same
    /// fold order as the zone-list representation this replaced).
    fn node_volume(&self, i: usize) -> f64 {
        self.node_boxes(i).map(|(lo, hi)| box_volume(lo, hi)).sum()
    }

    /// `true` if any zone of node `i` is a CAN neighbor of any zone of
    /// node `j`.
    fn nodes_adjacent(&self, i: usize, j: usize) -> bool {
        self.node_boxes(i).any(|(alo, ahi)| {
            self.node_boxes(j)
                .any(|(blo, bhi)| boxes_neighbor(alo, ahi, blo, bhi))
        })
    }

    /// The underlay router a live overlay node runs on.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never assigned.
    pub fn underlay(&self, id: OverlayNodeId) -> NodeIdx {
        self.underlay[id.index()]
    }

    /// The zone a live node owns (its primary zone, materialized from the
    /// flat bounds array).
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::UnknownNode`] if `id` is unknown or departed.
    pub fn zone(&self, id: OverlayNodeId) -> Result<Zone, OverlayError> {
        self.ensure_live(id)?;
        Ok(self.primary_zone(id.index()))
    }

    /// All zones a live node owns: the primary zone first, then any zones
    /// taken over from departed neighbors.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::UnknownNode`] if `id` is unknown or departed.
    pub fn zones(&self, id: OverlayNodeId) -> Result<Vec<Zone>, OverlayError> {
        self.ensure_live(id)?;
        let i = id.index();
        let mut out = Vec::with_capacity(1 + self.extra[i].len());
        out.push(self.primary_zone(i));
        out.extend(self.extra[i].iter().cloned());
        Ok(out)
    }

    /// The `(lo, hi)` bounds of every zone a live node owns, in the order of
    /// [`CanOverlay::zones`], borrowed from the overlay's own storage —
    /// nothing is materialized, so request paths can walk a host's zones
    /// without allocating.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::UnknownNode`] if `id` is unknown or departed.
    // tao-lint: allow(panic-reachability, reason = "ensure_live bounds the index below the arena length, and the flat bounds and takeover-zone arrays are as long as the arena by construction")
    pub fn zone_bounds(
        &self,
        id: OverlayNodeId,
    ) -> Result<impl Iterator<Item = (&[f64], &[f64])> + '_, OverlayError> {
        self.ensure_live(id)?;
        Ok(self.node_boxes(id.index()))
    }

    /// `true` if any of `id`'s zones overlaps `query` (open overlap on
    /// every axis, matching [`Zone::intersects`]) — answered straight from
    /// the flat bounds, with no zone materialization.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::UnknownNode`] if `id` is unknown or departed.
    // tao-lint: allow(panic-reachability, reason = "the bounds kernel indexes lo/hi by axis < dims, equal for every node by construction; mismatch is a debug assertion")
    pub fn zone_intersects(&self, id: OverlayNodeId, query: &Zone) -> Result<bool, OverlayError> {
        self.ensure_live(id)?;
        let (qlo, qhi) = (query.lo_slice(), query.hi_slice());
        Ok(self
            .node_boxes(id.index())
            .any(|(lo, hi)| boxes_intersect(lo, hi, qlo, qhi)))
    }

    /// `true` if live node `id` owns `point` through any of its zones.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::UnknownNode`] if `id` is unknown or departed.
    pub fn owns_point(&self, id: OverlayNodeId, point: &Point) -> Result<bool, OverlayError> {
        self.ensure_live(id)?;
        Ok(self.node_owns_point(id.index(), point, false))
    }

    /// Minimum torus distance from any of `id`'s zones to `point` (0 when
    /// the node owns the point).
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::UnknownNode`] if `id` is unknown or departed.
    pub fn distance_to_point(&self, id: OverlayNodeId, point: &Point) -> Result<f64, OverlayError> {
        self.ensure_live(id)?;
        assert_eq!(point.dims(), self.dims, "dimensionality mismatch");
        Ok(self.node_gap_sum(id.index(), point.coords(), false).sqrt())
    }

    /// The CAN neighbors of a live node, ascending by id.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::UnknownNode`] if `id` is unknown or departed.
    pub fn neighbors(&self, id: OverlayNodeId) -> Result<Vec<OverlayNodeId>, OverlayError> {
        Ok(self.neighbor_ids(id)?.to_vec())
    }

    /// [`CanOverlay::neighbors`] borrowed from the overlay's own storage.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::UnknownNode`] if `id` is unknown or departed.
    // tao-lint: allow(panic-reachability, reason = "bounds-checked get with an error fallback; the only panic edge is the approximate name-match on index()")
    pub fn neighbor_ids(&self, id: OverlayNodeId) -> Result<&[OverlayNodeId], OverlayError> {
        self.ensure_live(id)?;
        let list = self.neighbors.get(id.index());
        list.map(Vec::as_slice).ok_or(OverlayError::UnknownNode(id))
    }

    /// The owner of `point`.
    ///
    /// # Panics
    ///
    /// Panics if the overlay is empty or the point has the wrong
    /// dimensionality.
    #[expect(clippy::expect_used, reason = "overlay is empty")]
    pub fn owner(&self, point: &Point) -> OverlayNodeId {
        assert_eq!(point.dims(), self.dims, "dimensionality mismatch");
        self.owner_at(point.coords()).expect("overlay is empty")
    }

    /// [`CanOverlay::owner`] of the point with coordinates `coords`, for
    /// callers that compute a position into a reused buffer instead of
    /// building a [`Point`]. `None` if the overlay is empty or `coords` has
    /// the wrong dimensionality. A coordinate outside `[0, 1)` is read as
    /// the space's nearest edge along its axis — 1.0, beyond and NaN as the
    /// far edge, a negative one as 0 — so it still names a node.
    pub fn owner_at(&self, coords: &[f64]) -> Option<OverlayNodeId> {
        self.leaf_at(coords).map(|(_, owner, _)| owner)
    }

    /// The one point descent, O(depth): the slot of the leaf whose region
    /// contains `coords`, the node it names and the leaf's depth. `None` if
    /// the overlay is empty or `coords` has the wrong dimensionality.
    fn leaf_at(&self, coords: &[f64]) -> Option<(u32, OverlayNodeId, Depth)> {
        if coords.len() != self.dims {
            return None;
        }
        let (mut at, mut depth) = (0, Depth::ROOT);
        loop {
            let slot = *self.tree.get(at as usize)?;
            if let Some(id) = leaf_of(slot) {
                return Some((at, id, depth));
            }
            at = slot + u32::from(upper_half(*coords.get(depth.axis)?, depth.halvings));
            depth = depth.below(self.dims);
        }
    }

    /// The live nodes whose zones intersect `query` (positive volume),
    /// ascending by id. A node is listed once per zone it holds that meets
    /// `query`, so a taker of departed zones may appear more than once.
    ///
    /// One walk of the split tree, whatever the query's shape: down to the
    /// node where the walk forks ([`CanOverlay::cover`]), then every leaf
    /// below it whose region meets `query`, decided at each split as
    /// [`CanOverlay::sample_in`] decides. Nothing but the answer is
    /// allocated.
    ///
    /// # Panics
    ///
    /// Panics if dimensionalities differ.
    pub fn nodes_in(&self, query: &Zone) -> Vec<OverlayNodeId> {
        assert_eq!(query.dims(), self.dims, "dimensionality mismatch");
        let mut out = Vec::new();
        if let Some((at, depth)) = self.fork(query) {
            self.collect_in(at, depth, None, query, &mut out);
        }
        out.sort();
        out
    }

    /// The slot where the walk of [`CanOverlay::nodes_in`] stops
    /// descending: the first split both of whose children meet `query`, or
    /// the leaf that holds it. `None` on an empty overlay.
    ///
    /// The tree halves the axes in turn, so every split above an aligned
    /// cube's own level leaves the cube on one side: the cover's region *is*
    /// the cube, or a leaf holding it. Two aligned cubes with one cover are
    /// thus one box, or both answered by that leaf's owner alone — equal
    /// answers while the overlay is not mutated, which is what lets a table
    /// pass key its member lists by cover.
    pub(crate) fn cover(&self, query: &Zone) -> Option<u32> {
        self.fork(query).map(|(at, _)| at)
    }

    /// [`CanOverlay::cover`] and its depth. Every region on the way down
    /// holds `query`, so each split is decided by [`halves_met`] on the
    /// query's own bounds.
    fn fork(&self, query: &Zone) -> Option<(u32, Depth)> {
        let (mut at, mut depth) = (0, Depth::ROOT);
        let mut slot = *self.tree.first()?;
        while leaf_of(slot).is_none() {
            let a = depth.axis;
            at = match halves_met(query.lo(a), query.hi(a), depth.halvings) {
                (true, true) => break,
                (true, false) => slot,
                (false, _) => slot + 1,
            };
            slot = self.tree[at as usize];
            depth = depth.below(self.dims);
        }
        Some((at, depth))
    }

    /// `true` if `query`, which the region at `depth` holds, is that
    /// region: a cell of the grid the splits above have cut on every axis
    /// — once more on the axes before `depth.axis` than on the rest.
    fn is_region(&self, query: &Zone, depth: Depth) -> bool {
        (0..self.dims).all(|a| {
            let scale = pow2(depth.halvings + u32::from(a < depth.axis));
            let lo = query.lo(a) * scale;
            lo == (lo as i64) as f64 && query.hi(a) * scale == lo + 1.0
        })
    }

    /// A random live member of `query`, weighted by volume: a fair coin
    /// at each split makes it the owner of a uniform random point in the
    /// box, not a uniform pick among the members — usable where
    /// enumerating a huge high-order zone would be wasteful. One descent,
    /// O(depth) and heap-free: a region that
    /// meets `query` has a lower child that does iff `query` starts below
    /// the split's midpoint and an upper child that does iff it ends above
    /// it, and a coin is drawn only where both do, `gen_bool(0.5)`, heads
    /// to the lower side. Below the fork of an aligned cube both children
    /// of every split lie in the cube, so there the walk reads child links
    /// and draws coins alone. An eCAN table pass samples ≈ 27 cubes a node;
    /// at 131,072 nodes the general walk in this loop's place kept less
    /// than half of the set-up time the child-link layout saves. Returns
    /// `None` on an empty overlay (boxes of positive volume always meet a
    /// zone, since zones tile the space).
    ///
    /// # Panics
    ///
    /// Panics if dimensionalities differ.
    // tao-lint: allow(panic-reachability, reason = "documented panic on dimensionality mismatch; callers pass boxes derived from this overlay's own zones, and children are tree slots by construction")
    pub fn sample_in(
        &self,
        query: &Zone,
        rng: &mut impl tao_util::rand::Rng,
    ) -> Option<OverlayNodeId> {
        assert_eq!(query.dims(), self.dims, "dimensionality mismatch");
        let (mut at, depth) = self.fork(query)?;
        if !self.is_region(query, depth) {
            return self.sample_below(at, depth, None, query, rng);
        }
        loop {
            let slot = self.tree[at as usize];
            if let Some(id) = leaf_of(slot) {
                return Some(id);
            }
            at = slot + u32::from(!rng.gen_bool(0.5));
        }
    }

    /// [`CanOverlay::sample_in`] from the slot at `at`, whose region meets
    /// `query`, for a query that is not one region of the tree.
    fn sample_below(
        &self,
        at: u32,
        depth: Depth,
        trail: Option<&Trail>,
        query: &Zone,
        rng: &mut impl tao_util::rand::Rng,
    ) -> Option<OverlayNodeId> {
        let slot = self.tree[at as usize];
        if let Some(id) = leaf_of(slot) {
            return Some(id);
        }
        let (lo, mid, lower, upper) = self.split_test(depth, trail, query);
        let up = match (lower, upper) {
            (true, true) => !rng.gen_bool(0.5),
            (true, false) => false,
            (false, true) => true,
            (false, false) => return None,
        };
        let step = Trail {
            lo: if up { mid } else { lo },
            up: trail,
        };
        let below = depth.below(self.dims);
        self.sample_below(slot + u32::from(up), below, Some(&step), query, rng)
    }

    /// A box walk's test at the split at `depth` below its fork: the split
    /// region's low end along the split's axis, its midpoint, and whether
    /// the lower and the upper child meet `query`. The low end is where
    /// the trail's child starts at the split `dims` levels up, which halved
    /// the same axis; past the trail's top the walk held the query, so it
    /// is the query's low end cut to the grid.
    fn split_test(
        &self,
        depth: Depth,
        trail: Option<&Trail>,
        query: &Zone,
    ) -> (f64, f64, bool, bool) {
        let a = depth.axis;
        let same_axis = (1..self.dims).fold(trail, |t, _| t.and_then(|t| t.up));
        let lo = match same_axis {
            Some(t) => t.lo,
            None => grid_floor(query.lo(a), depth.halvings),
        };
        let mid = lo + 0.5 / pow2(depth.halvings);
        (lo, mid, query.lo(a) < mid, mid < query.hi(a))
    }

    /// Appends the owner of every leaf below the split at `at` whose region
    /// meets `query`, given that `at`'s own region does: a child meets it
    /// iff [`CanOverlay::split_test`] says so.
    fn collect_in(
        &self,
        at: u32,
        depth: Depth,
        trail: Option<&Trail>,
        query: &Zone,
        out: &mut Vec<OverlayNodeId>,
    ) {
        let slot = self.tree[at as usize];
        if let Some(id) = leaf_of(slot) {
            out.push(id);
            return;
        }
        let (lo, mid, lower, upper) = self.split_test(depth, trail, query);
        let below = depth.below(self.dims);
        if lower {
            let step = Trail { lo, up: trail };
            self.collect_in(slot, below, Some(&step), query, out);
        }
        if upper {
            let step = Trail { lo: mid, up: trail };
            self.collect_in(slot + 1, below, Some(&step), query, out);
        }
    }

    /// Joins a node running on underlay router `underlay` at `point`,
    /// splitting the owner's zone. Returns the new node's id.
    ///
    /// # Panics
    ///
    /// Panics if the point has the wrong dimensionality.
    pub fn join(&mut self, underlay: NodeIdx, point: Point) -> OverlayNodeId {
        self.join_split(underlay, point).0
    }

    /// [`CanOverlay::join`], also naming the node whose zone was split
    /// (`None` for the first node) — found by the join's own descent.
    pub(crate) fn join_split(
        &mut self,
        underlay: NodeIdx,
        point: Point,
    ) -> (OverlayNodeId, Option<OverlayNodeId>) {
        assert_eq!(point.dims(), self.dims, "dimensionality mismatch");
        let Some((leaf_at, owner, depth)) = self.leaf_at(point.coords()) else {
            // The first node owns the whole space.
            let new_id = self.push_node(underlay, &Zone::whole(self.dims));
            self.tree.push(LEAF | new_id.0);
            self.live_count = 1;
            return (new_id, None);
        };
        // Split the specific zone that contains the join point (the owner
        // may hold extra zones taken over from departed neighbors): the
        // primary zone is checked first, matching the acquisition order.
        let oi = owner.index();
        #[expect(clippy::expect_used, reason = "owner's zones cover the join point")]
        let zone_idx = if box_contains(self.primary_lo(oi), self.primary_hi(oi), point.coords()) {
            0
        } else {
            1 + self.extra[oi]
                .iter()
                .position(|z| z.contains(&point))
                .expect("owner's zones cover the join point")
        };
        let owner_zone = if zone_idx == 0 {
            self.primary_zone(oi)
        } else {
            self.extra[oi][zone_idx - 1].clone()
        };
        // CAN splits in half along the widest axis (ties -> lowest axis),
        // which on the tree's dyadic regions is round-robin by depth — the
        // fact the tree's layout keeps instead of the axis.
        let axis = depth.axis;
        debug_assert_eq!(axis, widest_axis(&owner_zone), "{owner_zone} at {depth:?}");
        let (lower, upper) = owner_zone.split(axis);
        // New node takes the half containing its join point.
        let (new_zone, old_zone) = if lower.contains(&point) {
            (lower, upper)
        } else {
            (upper, lower)
        };

        let new_id = self.push_node(underlay, &new_zone);
        self.live_count += 1;

        // Update the zone tree: the leaf at the join point becomes a split
        // whose two halves are pushed as a pair, lower first.
        let (lower_id, upper_id) = if new_zone.lo(axis) > old_zone.lo(axis) {
            (owner, new_id)
        } else {
            (new_id, owner)
        };
        let lower_leaf = self.tree.len() as u32;
        assert!(lower_leaf < LEAF, "the split tree outgrew its slot index");
        self.tree.push(LEAF | lower_id.0);
        self.tree.push(LEAF | upper_id.0);
        self.tree[leaf_at as usize] = lower_leaf;

        // Update the owner's zone.
        if zone_idx == 0 {
            self.set_primary(oi, &old_zone);
        } else {
            self.extra[oi][zone_idx - 1] = old_zone;
        }

        // Rebuild neighbor sets of the two halves from the owner's previous
        // neighborhood (plus each other).
        let mut candidates: Vec<OverlayNodeId> = self.neighbors[oi].clone();
        candidates.push(owner);
        candidates.push(new_id);
        // Drop all old links to `owner`; they are recomputed below.
        for &c in &candidates {
            link_remove(&mut self.neighbors[c.index()], owner);
        }
        self.neighbors[oi].clear();
        for &a in &[owner, new_id] {
            for &c in &candidates {
                if a == c {
                    continue;
                }
                if self.nodes_adjacent(a.index(), c.index()) {
                    link_insert(&mut self.neighbors[a.index()], c);
                    link_insert(&mut self.neighbors[c.index()], a);
                }
            }
        }
        (new_id, Some(owner))
    }

    /// Departs a node. Its zone is taken over by the smallest-volume CAN
    /// neighbor (the departing node's state is retired; the taker's zone set
    /// is represented by re-rooting the leaf to the taker). Costs
    /// O(depth · zones held + neighbors), whatever the overlay's size.
    ///
    /// The taker may end up owning a non-box region; for simplicity and
    /// faithfulness to zone accounting, the taker's `zone` field keeps its
    /// original box while the zone tree records the extra leaf, so owner
    /// lookup and routing stay exact.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::UnknownNode`] if `id` is unknown or departed,
    /// and [`OverlayError::LastNode`] if `id` is the only live node.
    pub fn leave(&mut self, id: OverlayNodeId) -> Result<(), OverlayError> {
        self.ensure_live(id)?;
        if self.live_count == 1 {
            return Err(OverlayError::LastNode);
        }
        let i = id.index();
        // Pick the smallest-volume neighbor as the taker.
        #[expect(
            clippy::expect_used,
            reason = "a live non-last node has at least one neighbor"
        )]
        let taker = self.neighbors[i]
            .iter()
            .copied()
            .min_by(|a, b| {
                let va = self.node_volume(a.index());
                let vb = self.node_volume(b.index());
                va.total_cmp(&vb).then(a.cmp(b))
            })
            .expect("a live non-last node has at least one neighbor");

        // The taker now owns all of the departing node's zones (primary
        // first, then its takeovers — the order the old zone list held).
        // Zones and leaves are 1:1, so the centre of each zone leads to the
        // leaf to re-point: O(depth) per zone held, the tree is not swept.
        let primary = self.primary_zone(i);
        let departed_extra = std::mem::take(&mut self.extra[i]);
        for z in std::iter::once(&primary).chain(&departed_extra) {
            #[expect(clippy::expect_used, reason = "a held zone has a leaf")]
            let (leaf, holder, _) = self
                .leaf_at(z.center().coords())
                .expect("a held zone has a leaf");
            debug_assert_eq!(holder, id, "the leaf under {z} names its holder");
            self.tree[leaf as usize] = LEAF | taker.0;
        }
        let ti = taker.index();
        self.extra[ti].push(primary);
        self.extra[ti].extend(departed_extra);

        // The taker inherits the departing node's neighbors.
        let old_neighbors = std::mem::take(&mut self.neighbors[i]);
        for &n in &old_neighbors {
            link_remove(&mut self.neighbors[n.index()], id);
        }
        for n in old_neighbors {
            if n == taker {
                continue;
            }
            // Conservative: the taker now owns the departed zone, so every
            // neighbor of that zone becomes a neighbor of the taker.
            link_insert(&mut self.neighbors[ti], n);
            link_insert(&mut self.neighbors[n.index()], taker);
        }
        self.alive[i] = false;
        self.live_count -= 1;
        Ok(())
    }

    /// Node `i`'s sorted neighbor list, without the liveness check or the
    /// clone of the public [`CanOverlay::neighbors`] accessor.
    pub(crate) fn neighbor_slice(&self, i: usize) -> &[OverlayNodeId] {
        &self.neighbors[i]
    }

    /// Routes greedily from `source` toward the owner of `target` using only
    /// default CAN neighbors: each hop forwards to the neighbor whose zone is
    /// closest to the target point. The visited set and hop buffer live in
    /// `scratch`, so a caller that routes more than once allocates nothing
    /// after the first call. On success the hop sequence (source first) is
    /// in [`RouteScratch::hops`]; on error the scratch is still reusable.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::UnknownNode`] for a dead source,
    /// [`OverlayError::DimensionMismatch`] for a bad target, and
    /// [`OverlayError::RoutingStuck`] if greedy progress stalls.
    // tao-lint: hot
    // tao-lint: allow(panic-reachability, reason = "scratch stamps are sized by begin_can(id_bound()) before any mark; the greedy tail indexes bounds by live ids validated by ensure_live")
    pub fn route_into(
        &self,
        scratch: &mut RouteScratch,
        source: OverlayNodeId,
        target: &Point,
    ) -> Result<(), OverlayError> {
        if target.dims() != self.dims {
            return Err(OverlayError::DimensionMismatch {
                expected: self.dims,
                got: target.dims(),
            });
        }
        self.ensure_live(source)?;
        scratch.begin_can(self.id_bound());
        scratch.push_hop(source);
        self.route_append(scratch, source, target)
    }

    /// The greedy routing loop: from `start` (assumed live, already the
    /// last entry of `scratch.hops`) toward the owner of `target`, appending
    /// every further hop under a *fresh* visited generation.
    ///
    /// Shared by [`CanOverlay::route_into`] and the eCAN stuck-fallback,
    /// which splices this tail onto an express prefix. Default CAN routing
    /// is loop-free only on a visited set of its own, so the tail starts a
    /// new generation (it may revisit prefix nodes) and its hop limit
    /// counts the tail alone.
    pub(crate) fn route_append(
        &self,
        scratch: &mut RouteScratch,
        start: OverlayNodeId,
        target: &Point,
    ) -> Result<(), OverlayError> {
        scratch.refresh_visited(self.id_bound());
        scratch.mark(start.index());
        let mut current = start;
        // Hops of this segment, `start` included: after an express prefix
        // the count restarts at 1, whatever the prefix already holds.
        let mut seg_len = 1usize;
        // Bound on *live* nodes, not arena slots: a route can only visit
        // live nodes, so dead slots left behind by churn must not inflate
        // how long a stuck route is allowed to wander.
        let limit = 4 * self.live_count + 16;
        let pristine = self.is_pristine();
        let p = target.coords();
        while !self.node_owns_point(current.index(), target, pristine) {
            if seg_len > limit {
                return Err(OverlayError::RoutingStuck { at: current });
            }
            // Greedy with a visited set: strictly-decreasing progress can
            // fail at zone corners, so sideways moves are permitted but no
            // node is revisited.
            let neighbors = self.neighbors[current.index()].iter().copied();
            let next = self
                .next_hop(scratch, neighbors, p, pristine)
                .ok_or(OverlayError::RoutingStuck { at: current })?;
            scratch.mark(next.index());
            scratch.push_hop(next);
            seg_len += 1;
            current = next;
        }
        Ok(())
    }

    /// The hop kernel of every CAN-family router: of `candidates`, the
    /// unvisited live node with the least (distance from its zones to the
    /// coordinates `p` by `total_cmp`, then id) — `None` if every candidate
    /// is visited or dead. A node listed twice compares equal to itself
    /// and keeps its first occurrence.
    ///
    /// Two passes, so that no candidate waits on a square root or on a
    /// compare against the best so far. The first writes each survivor's
    /// [`gap_sum`] into the scratch and tracks the least. The second takes
    /// the root only of sums within `1e-9` (relative) of the least, and
    /// ranks those exactly. Nothing beyond the cut can win or tie: a root
    /// halves a relative gap, so such a sum's root exceeds the least root
    /// by 5e-10, seven orders above the 2^-53 either rounding moves it. A
    /// least sum of zero cuts at zero, where only other zeros tie.
    ///
    /// The cut does not change the answer — the least (root, id) over all
    /// candidates is the same node — and the form is kept for speed: a
    /// one-pass argmin with the tie test inside the loop measured 0.91× on
    /// `route_replay` `primary_per_s`, 4 of 4 pairs (PERF_LOG.md "PR 54").
    ///
    /// Callers pass `pristine` = [`CanOverlay::is_pristine`], read once per
    /// route, which skips the per-node extra-zone lists.
    pub(crate) fn next_hop(
        &self,
        scratch: &mut RouteScratch,
        candidates: impl Iterator<Item = OverlayNodeId>,
        p: &[f64],
        pristine: bool,
    ) -> Option<OverlayNodeId> {
        scratch.ranked.clear();
        let mut least = f64::INFINITY;
        candidates.for_each(|n| {
            if scratch.is_marked(n.index()) || !self.alive[n.index()] {
                return;
            }
            let sum = self.node_gap_sum(n.index(), p, pristine);
            least = least.min(sum);
            // tao-lint: allow(alloc-reachability, reason = "caller-held candidate buffer in RouteScratch: grows to the longest candidate chain seen, then is reused; tests/zero_alloc.rs asserts a warmed route never allocates")
            scratch.ranked.push((sum, n));
        });
        let cut = least * (1.0 + 1e-9);
        let near = scratch.ranked.iter().filter(|&&(sum, _)| sum <= cut);
        let ranked = near.map(|&(sum, n)| (sum.sqrt(), n));
        ranked
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
            .map(|(_, n)| n)
    }

    /// Verifies structural invariants; used by tests and debug assertions.
    ///
    /// Checks that live zones tile the space (volumes sum to 1), that
    /// neighbor sets are symmetric, and that the split tree and the nodes'
    /// zone lists describe one tiling: every split halves its region along
    /// the axis its depth names — its widest, as CAN splits — at a midpoint
    /// exact in `f64`, every leaf names a live node that holds exactly the
    /// leaf's region, there are as many leaves as held zones, and every
    /// slot of the tree is reached once.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violated invariant.
    pub fn check_invariants(&self) {
        if self.is_empty() {
            return;
        }
        let total: f64 = self
            .live_nodes()
            .map(|id| self.node_volume(id.index()))
            .sum();
        // Splits move volume and takeovers transfer whole zones, so live
        // zones always tile the space exactly (up to fp accumulation).
        assert!(
            (total - 1.0).abs() <= 1e-6,
            "zone volumes must tile the space: {total}"
        );
        for a in self.live_nodes() {
            for &b in &self.neighbors[a.index()] {
                assert!(self.alive[b.index()], "{a} links to departed node {b}");
                assert!(
                    self.neighbors[b.index()].binary_search(&a).is_ok(),
                    "neighbor link {a}->{b} is not symmetric"
                );
            }
        }
        let (mut leaves, mut slots) = (0usize, 0usize);
        let mut open = vec![(0u32, Depth::ROOT, Zone::whole(self.dims))];
        while let Some((at, depth, region)) = open.pop() {
            slots += 1;
            let slot = self.tree[at as usize];
            if let Some(id) = leaf_of(slot) {
                leaves += 1;
                assert!(
                    self.alive[id.index()],
                    "leaf {region} names departed node {id}"
                );
                assert!(
                    self.primary_zone(id.index()) == region
                        || self.extra[id.index()].contains(&region),
                    "leaf {region} names {id}, which holds no such zone"
                );
                continue;
            }
            let axis = depth.axis;
            assert_eq!(
                widest_axis(&region),
                axis,
                "split of {region} at {depth:?} is not its widest axis"
            );
            let (below, above) = region.split(axis);
            assert_eq!(
                below.hi(axis),
                region.lo(axis) + 0.5 / pow2(depth.halvings),
                "split of {region} is off its dyadic midpoint"
            );
            assert!(
                (slot as usize) < self.tree.len() - 1,
                "split of {region} links past the tree"
            );
            open.push((slot, depth.below(self.dims), below));
            open.push((slot + 1, depth.below(self.dims), above));
        }
        assert_eq!(slots, self.tree.len(), "every tree slot is reached once");
        let held: usize = self
            .live_nodes()
            .map(|id| 1 + self.extra[id.index()].len())
            .sum();
        assert_eq!(leaves, held, "leaves and held zones must be 1:1");
    }
}

/// eCAN's slots are aligned boxes; an id keeps its router after departing.
impl SlotOverlay for CanOverlay {
    type Id = OverlayNodeId;
    type Slot = Zone;

    fn underlay(&self, id: OverlayNodeId) -> Option<NodeIdx> {
        self.underlay.get(id.index()).copied()
    }

    /// One split-tree descent ([`CanOverlay::sample_in`]): volume-weighted.
    // tao-lint: hot
    #[inline]
    fn draw_member(&self, slot: &Zone, rng: &mut StdRng) -> BoxSelection {
        self.sample_in(slot, rng)
            .map_or(BoxSelection::Skip, BoxSelection::Chosen)
    }
}

/// Inserts `id` into a sorted neighbor list if absent.
fn link_insert(v: &mut Vec<OverlayNodeId>, id: OverlayNodeId) {
    if let Err(pos) = v.binary_search(&id) {
        v.insert(pos, id);
    }
}

/// Removes `id` from a sorted neighbor list if present.
fn link_remove(v: &mut Vec<OverlayNodeId>, id: OverlayNodeId) {
    if let Ok(pos) = v.binary_search(&id) {
        v.remove(pos);
    }
}

/// The axis along which `zone` is widest (ties break to the lowest axis) —
/// the CAN split axis.
fn widest_axis(zone: &Zone) -> usize {
    #[expect(clippy::expect_used, reason = "zones have at least one axis")]
    let widest = (0..zone.dims())
        .max_by(|&a, &b| {
            #[expect(clippy::expect_used, reason = "extents are finite")]
            let order = zone
                .extent(a)
                .partial_cmp(&zone.extent(b))
                .expect("extents are finite");
            order.then(b.cmp(&a)) // prefer the lower axis on ties
        })
        .expect("zones have at least one axis");
    widest
}

#[cfg(test)]
mod tests {
    use super::*;
    use tao_util::rand::rngs::StdRng;
    use tao_util::rand::{Rng, SeedableRng};

    fn grown_overlay(n: usize, seed: u64) -> CanOverlay {
        let mut can = CanOverlay::new(2).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..n {
            can.join(NodeIdx(i as u32), Point::random(2, &mut rng));
        }
        can
    }

    #[test]
    fn bootstrap_owns_everything() {
        let mut can = CanOverlay::new(2).unwrap();
        let a = can.join(NodeIdx(0), Point::new(vec![0.3, 0.3]).unwrap());
        assert_eq!(can.len(), 1);
        assert_eq!(can.owner(&Point::new(vec![0.9, 0.9]).unwrap()), a);
        assert_eq!(can.zone(a).unwrap(), Zone::whole(2));
    }

    #[test]
    fn join_splits_the_owners_zone() {
        let mut can = CanOverlay::new(2).unwrap();
        let a = can.join(NodeIdx(0), Point::new(vec![0.3, 0.3]).unwrap());
        let b = can.join(NodeIdx(1), Point::new(vec![0.9, 0.9]).unwrap());
        // First split is along axis 0; b's point is in the upper half.
        assert_eq!(can.zone(b).unwrap().lo(0), 0.5);
        assert_eq!(can.zone(a).unwrap().hi(0), 0.5);
        assert_eq!(can.neighbors(a).unwrap(), vec![b]);
        assert_eq!(can.neighbors(b).unwrap(), vec![a]);
        can.check_invariants();
    }

    #[test]
    fn zones_tile_the_space() {
        let can = grown_overlay(64, 7);
        let total: f64 = can
            .live_nodes()
            .map(|id| can.zone(id).unwrap().volume())
            .sum();
        assert!((total - 1.0).abs() < 1e-9, "zones must tile: {total}");
        can.check_invariants();
    }

    #[test]
    fn owner_lookup_agrees_with_zone_containment() {
        let can = grown_overlay(50, 3);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..200 {
            let p = Point::random(2, &mut rng);
            let owner = can.owner(&p);
            assert!(can.zone(owner).unwrap().contains(&p));
        }
    }

    #[test]
    fn owner_at_reads_coordinates_outside_the_space_as_its_nearest_edge() {
        // Every split sends a coordinate of 1.0 or more, and NaN, to its
        // upper side, and a negative one to its lower side: such a
        // coordinate names the owner at the space's far or near edge along
        // its axis, whatever the other coordinates say.
        let top = 1.0 - f64::EPSILON / 2.0;
        let mut rng = StdRng::seed_from_u64(31);
        for d in 1..=4usize {
            let mut can = CanOverlay::new(d).unwrap();
            for i in 0..96 {
                can.join(NodeIdx(i), Point::random(d, &mut rng));
            }
            for id in [5u32, 17, 40] {
                can.leave(OverlayNodeId(id)).unwrap();
            }
            for _ in 0..40 {
                let p = Point::random(d, &mut rng).coords().to_vec();
                for axis in 0..d {
                    let at = |c: f64| {
                        let mut q = p.clone();
                        q[axis] = c;
                        can.owner_at(&q)
                    };
                    for (c, edge) in [
                        (1.0, top),
                        (1.5, top),
                        (f64::INFINITY, top),
                        (f64::NAN, top),
                        (-0.0, 0.0),
                        (-0.25, 0.0),
                        (f64::NEG_INFINITY, 0.0),
                    ] {
                        let want = at(edge);
                        assert!(want.is_some());
                        assert_eq!(at(c), want, "d={d} axis={axis} c={c} p={p:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn owner_at_equals_a_scan_of_every_live_zone() {
        use tao_util::check::for_all;
        use tao_util::check_eq;
        let takers = std::cell::Cell::new(0u32);
        for_all("owner_at_equals_a_scan_of_every_live_zone", 48, |rng| {
            let d = rng.gen_range(1usize..=5);
            let can = generated_overlay(d, rng);
            let live: Vec<OverlayNodeId> = can.live_nodes().collect();
            if live.iter().any(|&id| can.zones(id).unwrap().len() > 2) {
                takers.set(takers.get() + 1);
            }
            for _ in 0..60 {
                // Half the points sit on a corner of a live zone, where the
                // half-open bounds decide.
                let p = if rng.gen_bool(0.5) {
                    Point::random(d, rng)
                } else {
                    let zones = can.zones(live[rng.gen_range(0..live.len())]).unwrap();
                    let z = &zones[rng.gen_range(0..zones.len())];
                    let corner = (0..d).map(|a| {
                        if rng.gen_bool(0.5) {
                            z.lo(a)
                        } else {
                            z.center().coord(a)
                        }
                    });
                    Point::new(corner.collect()).unwrap()
                };
                let owners: Vec<OverlayNodeId> = live
                    .iter()
                    .copied()
                    .filter(|&id| can.zones(id).unwrap().iter().any(|z| z.contains(&p)))
                    .collect();
                check_eq!(owners.len(), 1, "d={d} p={p:?}");
                check_eq!(can.owner_at(p.coords()), Some(owners[0]), "d={d} p={p:?}");
            }
        });
        assert!(
            takers.get() > 0,
            "no generated overlay had a node holding three zones"
        );
    }

    #[test]
    fn neighbor_sets_match_geometry() {
        let can = grown_overlay(40, 9);
        let live: Vec<OverlayNodeId> = can.live_nodes().collect();
        for &a in &live {
            for &b in &live {
                if a == b {
                    continue;
                }
                let geometric = can.zone(a).unwrap().is_neighbor(&can.zone(b).unwrap());
                let listed = can.neighbors(a).unwrap().contains(&b);
                assert_eq!(geometric, listed, "adjacency mismatch between {a} and {b}");
            }
        }
    }

    #[test]
    fn routing_reaches_the_owner() {
        let can = grown_overlay(100, 5);
        let mut rng = StdRng::seed_from_u64(13);
        let live: Vec<OverlayNodeId> = can.live_nodes().collect();
        let mut scratch = RouteScratch::new();
        for _ in 0..100 {
            let src = live[rng.gen_range(0..live.len())];
            let target = Point::random(2, &mut rng);
            can.route_into(&mut scratch, src, &target).unwrap();
            assert_eq!(scratch.hops()[0], src);
            assert_eq!(scratch.hops().last(), Some(&can.owner(&target)));
        }
    }

    #[test]
    fn routing_hops_scale_like_sqrt_n_in_2d() {
        let can = grown_overlay(256, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let live: Vec<OverlayNodeId> = can.live_nodes().collect();
        let mut total = 0usize;
        let mut scratch = RouteScratch::new();
        const ROUTES: usize = 200;
        for _ in 0..ROUTES {
            let src = live[rng.gen_range(0..live.len())];
            let target = Point::random(2, &mut rng);
            can.route_into(&mut scratch, src, &target).unwrap();
            total += scratch.hop_count();
        }
        let avg = total as f64 / ROUTES as f64;
        // Theory: (d/4) * n^(1/d) = 8 for n=256, d=2. Allow generous slack.
        assert!(avg > 2.0 && avg < 20.0, "avg hops {avg} looks wrong");
    }

    #[test]
    fn departure_hands_zone_to_a_neighbor() {
        let mut can = grown_overlay(20, 21);
        let victim = OverlayNodeId(7);
        let victim_zone = can.zone(victim).unwrap();
        let probe = victim_zone.center();
        can.leave(victim).unwrap();
        assert_eq!(can.len(), 19);
        let new_owner = can.owner(&probe);
        assert_ne!(new_owner, victim);
        assert!(can.zone(new_owner).is_ok());
        assert!(can.zone(victim).is_err());
        can.check_invariants();
    }

    #[test]
    fn routing_still_works_after_churn() {
        let mut can = grown_overlay(60, 17);
        let mut rng = StdRng::seed_from_u64(3);
        for id in [3u32, 14, 25, 36, 47] {
            can.leave(OverlayNodeId(id)).unwrap();
        }
        let live: Vec<OverlayNodeId> = can.live_nodes().collect();
        let mut scratch = RouteScratch::new();
        for _ in 0..100 {
            let src = live[rng.gen_range(0..live.len())];
            let target = Point::random(2, &mut rng);
            can.route_into(&mut scratch, src, &target).unwrap();
            assert_eq!(scratch.hops().last(), Some(&can.owner(&target)));
        }
    }

    #[test]
    fn last_node_cannot_leave() {
        let mut can = CanOverlay::new(2).unwrap();
        let a = can.join(NodeIdx(0), Point::new(vec![0.5, 0.5]).unwrap());
        assert_eq!(can.leave(a), Err(OverlayError::LastNode));
    }

    #[test]
    fn is_live_tracks_membership() {
        let mut can = grown_overlay(8, 23);
        assert!(can.is_live(OverlayNodeId(3)));
        assert!(!can.is_live(OverlayNodeId(99)));
        can.leave(OverlayNodeId(3)).unwrap();
        assert!(!can.is_live(OverlayNodeId(3)));
        assert!(can.is_live(OverlayNodeId(4)));
    }

    #[test]
    fn nodes_in_returns_intersecting_zones() {
        let can = grown_overlay(32, 8);
        let (left, _) = Zone::whole(2).split(0);
        let inside = can.nodes_in(&left);
        assert!(!inside.is_empty());
        for id in inside {
            assert!(can.zone(id).unwrap().intersects(&left));
        }
        // Whole space returns everyone.
        assert_eq!(can.nodes_in(&Zone::whole(2)).len(), 32);
    }

    /// The walk `sample_in` used to be: materialize the region of every
    /// node on the way down, halve it along its widest axis as CAN splits,
    /// and test both halves against the query. Kept as the oracle for the
    /// descent that decides from depth and coordinates alone.
    fn sample_node(
        can: &CanOverlay,
        node: u32,
        bounds: &Zone,
        query: &Zone,
        rng: &mut impl Rng,
    ) -> Option<OverlayNodeId> {
        if !bounds.intersects(query) {
            return None;
        }
        let slot = can.tree[node as usize];
        if let Some(id) = leaf_of(slot) {
            return Some(id);
        }
        let (lz, uz) = bounds.split(widest_axis(bounds));
        match (lz.intersects(query), uz.intersects(query)) {
            (true, true) => {
                if rng.gen_bool(0.5) {
                    sample_node(can, slot, &lz, query, rng)
                } else {
                    sample_node(can, slot + 1, &uz, query, rng)
                }
            }
            (true, false) => sample_node(can, slot, &lz, query, rng),
            (false, true) => sample_node(can, slot + 1, &uz, query, rng),
            (false, false) => None,
        }
    }

    /// A generated overlay of `d` dimensions: 1–159 joins and, six times in
    /// ten, churn in which departures outnumber joins, so takers depart in
    /// their turn and hand several zones on and joins land in them.
    fn generated_overlay(d: usize, rng: &mut StdRng) -> CanOverlay {
        let mut can = CanOverlay::new(d).unwrap();
        for i in 0..rng.gen_range(1u32..160) {
            can.join(NodeIdx(i), Point::random(d, rng));
        }
        if rng.gen_bool(0.6) {
            for i in 0..can.len() as u32 / 2 {
                let live: Vec<OverlayNodeId> = can.live_nodes().collect();
                can.leave(live[rng.gen_range(0..live.len())]).unwrap();
                if i % 3 == 0 {
                    can.join(NodeIdx(1_000 + i), Point::random(d, rng));
                }
            }
            can.check_invariants();
        }
        can
    }

    /// An aligned cube of side `2^-level` at a random cell: the shape
    /// expressway tables ask for.
    fn aligned_cube(d: usize, level: u32, rng: &mut StdRng) -> Zone {
        let side = 0.5f64.powi(level as i32);
        let lo: Vec<f64> = (0..d)
            .map(|_| rng.gen_range(0..1u32 << level) as f64 * side)
            .collect();
        let hi = lo.iter().map(|l| l + side).collect();
        Zone::from_bounds(lo, hi).unwrap()
    }

    /// One of the four query shapes the box kernels must agree on.
    fn generated_query(can: &CanOverlay, live: &[OverlayNodeId], rng: &mut StdRng) -> Zone {
        let d = can.dims();
        match rng.gen_range(0..4) {
            0 => {
                let level = rng.gen_range(0u32..6);
                aligned_cube(d, level, rng)
            }
            // A clipped box with arbitrary, non-dyadic bounds.
            1 => {
                let lo: Vec<f64> = (0..d).map(|_| rng.gen_range(0.0..0.9)).collect();
                let hi = lo.iter().map(|l| rng.gen_range(l + 0.01..1.0)).collect();
                Zone::from_bounds(lo, hi).unwrap()
            }
            // A half-space: one face lies on a split plane.
            2 => {
                let (below, above) = Zone::whole(d).split(rng.gen_range(0..d));
                if rng.gen_bool(0.5) {
                    below
                } else {
                    above
                }
            }
            // A box strictly inside one zone, primary or taken over.
            _ => {
                let zones = can.zones(live[rng.gen_range(0..live.len())]).unwrap();
                let z = &zones[rng.gen_range(0..zones.len())];
                let lo = (0..d).map(|a| z.lo(a) + z.extent(a) / 4.0).collect();
                let hi = (0..d).map(|a| z.hi(a) - z.extent(a) / 4.0).collect();
                Zone::from_bounds(lo, hi).unwrap()
            }
        }
    }

    #[test]
    fn sample_in_equals_the_recursive_walk_coin_for_coin() {
        use tao_util::check::for_all;
        use tao_util::{check, check_eq};
        let takers_of_takers = std::cell::Cell::new(0u32);
        for_all(
            "sample_in_equals_the_recursive_walk_coin_for_coin",
            48,
            |rng| {
                let d = rng.gen_range(1usize..6);
                let can = generated_overlay(d, rng);
                let live: Vec<OverlayNodeId> = can.live_nodes().collect();
                if live.iter().any(|&id| can.zones(id).unwrap().len() > 2) {
                    takers_of_takers.set(takers_of_takers.get() + 1);
                }
                let whole = Zone::whole(d);
                for _ in 0..60 {
                    let query = generated_query(&can, &live, rng);
                    let mut walked = StdRng::seed_from_u64(rng.gen());
                    let mut descended = walked.clone();
                    let want = sample_node(&can, 0, &whole, &query, &mut walked);
                    check_eq!(
                        can.sample_in(&query, &mut descended),
                        want,
                        "d={d} query={query}"
                    );
                    check_eq!(
                        descended.gen::<u64>(),
                        walked.gen::<u64>(),
                        "stream position, query={query}"
                    );
                    check!(want.is_some_and(|id| can.zone_intersects(id, &query).unwrap()));
                }
            },
        );
        assert!(
            takers_of_takers.get() > 0,
            "no generated overlay had a node holding three zones"
        );
    }

    #[test]
    fn next_hop_equals_the_brute_force_argmin() {
        // The hop kernel against the definition it implements: the least
        // (distance, id) over live, unvisited candidates, every distance by
        // the branchy formula over every zone. Candidate chains hold dead
        // ids, ids listed in both segments, and are sometimes visited whole;
        // targets sit on zone bounds (zero and equal distances under several
        // ids) and around the bisector of two candidates, where gap sums
        // come ulps apart and roots collide.
        use crate::zone::branchy_distance;
        use tao_util::check::for_all;
        use tao_util::check_eq;
        let count = |cell: &std::cell::Cell<u32>| cell.set(cell.get() + 1);
        let [ulp_apart, root_ties, equal_sums, stuck] =
            [(); 4].map(|()| std::cell::Cell::new(0u32));
        for_all("next_hop_equals_the_brute_force_argmin", 400, |rng| {
            let d = rng.gen_range(1usize..5);
            let can = generated_overlay(d, rng);
            let live: Vec<OverlayNodeId> = can.live_nodes().collect();
            let top = 1.0 - f64::EPSILON / 2.0;
            let distance = |id: OverlayNodeId, p: &[f64]| {
                let zones = can.zones(id).unwrap();
                let each = zones
                    .iter()
                    .map(|z| branchy_distance(z.lo_slice(), z.hi_slice(), p));
                each.fold(f64::INFINITY, f64::min)
            };
            for _ in 0..20 {
                let any = |rng: &mut StdRng| OverlayNodeId(rng.gen_range(0..can.id_bound() as u32));
                let (a, b) = (
                    live[rng.gen_range(0..live.len())],
                    live[rng.gen_range(0..live.len())],
                );
                let sums = |p: &[f64]| {
                    (
                        can.node_gap_sum(a.index(), p, false),
                        can.node_gap_sum(b.index(), p, false),
                    )
                };

                let mut p = Point::random(d, rng).coords().to_vec();
                let mut targets = Vec::new();
                match rng.gen_range(0..3) {
                    0 => targets.push(p),
                    // Bounds of live zones, axis by axis.
                    1 => {
                        for (axis, c) in p.iter_mut().enumerate() {
                            let z = can.zone(if rng.gen_bool(0.5) { a } else { b }).unwrap();
                            match rng.gen_range(0..3) {
                                0 => *c = z.lo(axis),
                                1 => *c = z.hi(axis).min(top),
                                _ => {}
                            }
                        }
                        targets.push(p);
                    }
                    // Slide one coordinate to where `a` and `b` are equally
                    // far, and take every value within a few steps of it.
                    _ => {
                        let axis = rng.gen_range(0..d);
                        let mut nearer_a = |c: f64| {
                            p[axis] = c;
                            let (sum_a, sum_b) = sums(&p);
                            sum_a < sum_b
                        };
                        let (mut lo, mut hi) = (0.0, top);
                        let at_lo = nearer_a(lo);
                        while at_lo != nearer_a(hi) && lo.next_up() < hi {
                            let mid = lo + (hi - lo) / 2.0;
                            if nearer_a(mid) == at_lo {
                                lo = mid;
                            } else {
                                hi = mid;
                            }
                        }
                        let mut c = (0..8).fold(lo, |c, _| c.next_down().max(0.0));
                        for _ in 0..17 {
                            p[axis] = c;
                            targets.push(p.clone());
                            c = c.next_up().min(top);
                        }
                    }
                }

                // Around a bisector the two are the whole contest, in either
                // order; elsewhere anyone is, and any share already visited.
                let bisected = targets.len() > 1;
                let mut defaults: Vec<OverlayNodeId> =
                    (0..rng.gen_range(0..6)).map(|_| any(rng)).collect();
                let mut express: Vec<OverlayNodeId> =
                    (0..rng.gen_range(0..10)).map(|_| any(rng)).collect();
                express.extend(defaults.iter().copied().filter(|_| rng.gen_bool(0.2)));
                if bisected {
                    defaults = vec![a];
                    express = vec![b, a];
                }
                let chain = || defaults.iter().chain(&express).copied();
                let mut scratch = RouteScratch::new();
                scratch.begin_can(can.id_bound());
                let visited = if bisected {
                    0.0
                } else {
                    [0.0, 0.3, 1.0][rng.gen_range(0..3)]
                };
                for n in chain() {
                    if rng.gen_bool(visited) {
                        scratch.mark(n.index());
                    }
                }
                for p in &targets {
                    let (sum_a, sum_b) = sums(p);
                    if a != b && sum_a == sum_b {
                        count(&equal_sums);
                    } else if sum_a.to_bits().abs_diff(sum_b.to_bits()) == 1 {
                        count(&ulp_apart);
                    }
                    if sum_a != sum_b && sum_a.sqrt() == sum_b.sqrt() {
                        count(&root_ties);
                    }
                    let candidates =
                        chain().filter(|&n| can.is_live(n) && !scratch.is_marked(n.index()));
                    let want = candidates
                        .min_by(|&x, &y| distance(x, p).total_cmp(&distance(y, p)).then(x.cmp(&y)));
                    if want.is_none() {
                        count(&stuck);
                    }
                    let got = can.next_hop(&mut scratch, chain(), p, can.is_pristine());
                    check_eq!(
                        got,
                        want,
                        "d={d} target={p:?} defaults={defaults:?} express={express:?}"
                    );
                }
            }
        });
        let seen = [&ulp_apart, &root_ties, &equal_sums, &stuck].map(std::cell::Cell::get);
        assert!(
            seen.iter().all(|&n| n > 0),
            "[one ulp apart, tied roots, equal sums, no candidate] = {seen:?}"
        );
    }

    #[test]
    fn a_hop_with_every_candidate_visited_is_stuck_for_can_and_a_spliced_tail_for_ecan() {
        // No consistent arena has been found to strand either router
        // (DESIGN.md §12), so this one is broken on purpose: `via`, the
        // first hop of a route of two hops or more, forgets every neighbor
        // but the node the route came from.
        let intact = grown_overlay(12, 5);
        let live: Vec<OverlayNodeId> = intact.live_nodes().collect();
        let routes = live.iter().flat_map(|&s| live.iter().map(move |&o| (s, o)));
        let mut scratch = RouteScratch::new();
        let (source, via, owner, target) = routes
            .filter_map(|(s, o)| {
                let target = intact.primary_zone(o.index()).center();
                intact.route_into(&mut scratch, s, &target).unwrap();
                let hops = scratch.hops();
                (hops.len() > 2).then(|| (s, hops[1], o, target))
            })
            .next()
            .expect("twelve nodes have a route of two hops");
        let mut can = intact.clone();
        can.neighbors[via.index()] = vec![source];

        assert_eq!(
            can.route_into(&mut scratch, source, &target),
            Err(OverlayError::RoutingStuck { at: via })
        );
        // The scratch of a failed call is reusable as it stands.
        intact.route_into(&mut scratch, source, &target).unwrap();
        assert_eq!(scratch.hops().last(), Some(&owner));

        // eCAN strands at `via` too, then routes plain CAN from there on a
        // visited set of its own: back through `source`, around `via`.
        let ecan = crate::ecan::EcanOverlay::unselected(can);
        ecan.route_express_into(&mut scratch, source, &target)
            .unwrap();
        assert_eq!(scratch.hops()[..3], [source, via, source]);
        assert_eq!(scratch.hops().last(), Some(&owner));
        assert!(!scratch.hops()[3..].contains(&via));
    }

    #[test]
    fn nodes_in_equals_the_brute_force_member_set() {
        // Soundness, completeness *and* multiplicity, through the public
        // door only: for aligned cubes, clipped boxes, half-spaces and boxes
        // inside one zone, `nodes_in` is every live node repeated once per
        // zone it holds that meets the query, ascending — the exact list
        // an eCAN table pass hands `NeighborSelector::select`.
        use tao_util::check::for_all;
        use tao_util::check_eq;
        let [takers, repeats] = [(); 2].map(|()| std::cell::Cell::new(0u32));
        for_all("nodes_in_equals_the_brute_force_member_set", 48, |rng| {
            let can = generated_overlay(rng.gen_range(1usize..5), rng);
            let live: Vec<OverlayNodeId> = can.live_nodes().collect();
            if live.iter().any(|&id| can.zones(id).unwrap().len() > 1) {
                takers.set(takers.get() + 1);
            }
            for _ in 0..60 {
                let query = generated_query(&can, &live, rng);
                let want: Vec<OverlayNodeId> = live
                    .iter()
                    .flat_map(|&id| {
                        let zones = can.zones(id).unwrap();
                        let meeting = zones.iter().filter(|z| z.intersects(&query)).count();
                        std::iter::repeat_n(id, meeting)
                    })
                    .collect();
                if want.windows(2).any(|w| w[0] == w[1]) {
                    repeats.set(repeats.get() + 1);
                }
                check_eq!(can.nodes_in(&query), want, "d={} query={query}", can.dims());
            }
        });
        let seen = [&takers, &repeats].map(std::cell::Cell::get);
        assert!(
            seen.iter().all(|&n| n > 0),
            "[takers, repeated ids] = {seen:?}"
        );
    }

    /// The region of tree slot `target`, halved down from the whole space
    /// along each region's widest axis.
    fn region_of(can: &CanOverlay, target: u32) -> Zone {
        let mut open = vec![(0, Zone::whole(can.dims()))];
        while let Some((at, region)) = open.pop() {
            if at == target {
                return region;
            }
            let slot = can.tree[at as usize];
            if leaf_of(slot).is_none() {
                let (below, above) = region.split(widest_axis(&region));
                open.push((slot, below));
                open.push((slot + 1, above));
            }
        }
        panic!("slot {target} is not in the tree");
    }

    #[test]
    fn cover_is_the_cube_or_a_leaf_holding_it() {
        // What keys a table pass's member lists: an aligned cube's cover is
        // the cube itself or a leaf holding it, so two cubes with one cover
        // have one `nodes_in` answer.
        use tao_util::check::for_all;
        use tao_util::{check, check_eq};
        let [shared, in_leaf] = [(); 2].map(|()| std::cell::Cell::new(0u32));
        for_all("cover_is_the_cube_or_a_leaf_holding_it", 48, |rng| {
            let d = rng.gen_range(1usize..=5);
            let can = generated_overlay(d, rng);
            let mut by_cover = std::collections::BTreeMap::new();
            for _ in 0..60 {
                let level = rng.gen_range(0u32..=5);
                let cube = aligned_cube(d, level, rng);
                let at = can.cover(&cube).unwrap();
                let region = region_of(&can, at);
                if region != cube {
                    let leaf = leaf_of(can.tree[at as usize]).is_some();
                    let holds =
                        (0..d).all(|a| region.lo(a) <= cube.lo(a) && cube.hi(a) <= region.hi(a));
                    check!(leaf && holds, "d={d} cube={cube} cover={region}");
                    in_leaf.set(in_leaf.get() + 1);
                }
                let members = can.nodes_in(&cube);
                let (first, listed) = by_cover
                    .entry(at)
                    .or_insert((cube.clone(), members.clone()));
                if *first != cube {
                    shared.set(shared.get() + 1);
                }
                check_eq!(
                    *listed,
                    members,
                    "d={d} cubes {first} and {cube} share cover {at}"
                );
            }
        });
        let seen = [&shared, &in_leaf].map(std::cell::Cell::get);
        assert!(
            seen.iter().all(|&n| n > 0),
            "[shared covers, covers in a leaf] = {seen:?}"
        );
    }

    #[test]
    fn enclosed_cube_resolves_to_the_surrounding_zone_owner() {
        let mut can = CanOverlay::new(2).unwrap();
        can.join(NodeIdx(0), Point::new(vec![0.1, 0.1]).unwrap());
        // A deep cube strictly inside the single whole-space zone.
        let cube = Zone::from_bounds(vec![0.25, 0.25], vec![0.375, 0.375]).unwrap();
        assert_eq!(can.nodes_in(&cube), vec![OverlayNodeId(0)]);
    }

    #[test]
    fn errors_display_cleanly() {
        assert_eq!(
            OverlayError::UnknownNode(OverlayNodeId(5)).to_string(),
            "unknown or departed overlay node o5"
        );
        assert!(OverlayError::DimensionMismatch {
            expected: 2,
            got: 3
        }
        .to_string()
        .contains("2-d"));
    }

    #[test]
    fn bounds_kernels_match_zone_methods() {
        // CanOverlay's folds over a node's primary and extra zones must
        // agree with the per-Zone answers — bit-for-bit, since routes
        // compare distances with total_cmp.
        let mut rng = StdRng::seed_from_u64(29);
        for d in 2..=4usize {
            let mut can = CanOverlay::new(d).unwrap();
            for i in 0..64 {
                can.join(NodeIdx(i), Point::random(d, &mut rng));
            }
            for id in [2u32, 9, 33] {
                can.leave(OverlayNodeId(id)).unwrap();
            }
            let live: Vec<OverlayNodeId> = can.live_nodes().collect();
            for _ in 0..50 {
                let p = Point::random(d, &mut rng);
                for &id in &live {
                    let zones = can.zones(id).unwrap();
                    let want_d = zones
                        .iter()
                        .map(|z| z.distance_to_point(&p))
                        .fold(f64::INFINITY, f64::min);
                    let want_own = zones.iter().any(|z| z.contains(&p));
                    assert_eq!(
                        can.distance_to_point(id, &p).unwrap().to_bits(),
                        want_d.to_bits()
                    );
                    assert_eq!(can.owns_point(id, &p).unwrap(), want_own);
                }
            }
            for &id in &live {
                let zones = can.zones(id).unwrap();
                let want_v = zones.iter().fold(0.0, |v, z| v + z.volume());
                assert_eq!(can.node_volume(id.index()).to_bits(), want_v.to_bits());
                for &other in &live {
                    let query = can.zone(other).unwrap();
                    let want = zones.iter().any(|z| z.intersects(&query));
                    assert_eq!(can.zone_intersects(id, &query).unwrap(), want);
                }
            }
            for &a in &live {
                for &b in &live {
                    if a == b {
                        continue;
                    }
                    let za = can.zones(a).unwrap();
                    let zb = can.zones(b).unwrap();
                    let want = za.iter().any(|x| zb.iter().any(|y| x.is_neighbor(y)));
                    assert_eq!(can.nodes_adjacent(a.index(), b.index()), want);
                }
            }
        }
    }

    #[test]
    fn higher_dimensional_overlays_work() {
        for d in 3..=5 {
            let mut can = CanOverlay::new(d).unwrap();
            let mut rng = StdRng::seed_from_u64(d as u64);
            for i in 0..32 {
                can.join(NodeIdx(i), Point::random(d, &mut rng));
            }
            can.check_invariants();
            let total: f64 = can
                .live_nodes()
                .map(|id| can.zone(id).unwrap().volume())
                .sum();
            assert!((total - 1.0).abs() < 1e-9);
            let live: Vec<OverlayNodeId> = can.live_nodes().collect();
            let mut scratch = RouteScratch::new();
            can.route_into(&mut scratch, live[0], &Point::random(d, &mut rng))
                .unwrap();
            assert!(scratch.hop_count() < 32);
        }
    }
}
