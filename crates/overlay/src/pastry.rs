//! A Pastry-style prefix-routing overlay.
//!
//! The paper frames Pastry as the canonical *proximity-neighbor-selection*
//! overlay: "routing table entries are selected according to proximity
//! metric among all nodes that satisfy the constraint of the logical
//! overlay (e.g., in Pastry, the constraint is the nodeId prefix)". This
//! module provides that substrate so the global-soft-state machinery can be
//! demonstrated on it: 64-bit node ids routed digit by digit (base 16), a
//! routing table whose `(row r, digit d)` entry may be *any* node sharing
//! `r` digits with the owner and having `d` as its next digit — the
//! selection hook — plus a small leaf set for the final hops.
//!
//! # Example
//!
//! ```
//! use tao_overlay::keyed::KeyedOverlay;
//! use tao_overlay::pastry::PastryOverlay;
//! use tao_overlay::select::RandomSelector;
//! use tao_overlay::RouteScratch;
//! use tao_topology::NodeIdx;
//! use tao_util::rand::{Rng, SeedableRng};
//!
//! let mut rng = tao_util::rand::rngs::StdRng::seed_from_u64(3);
//! let mut pastry = PastryOverlay::new(8);
//! for i in 0..64u32 {
//!     pastry.join(NodeIdx(i), rng.gen());
//! }
//! pastry.reselect(&mut RandomSelector::new(1));
//! let start = pastry.node_ids().next().unwrap();
//! let key: u64 = rng.gen();
//! let mut scratch = RouteScratch::new();
//! pastry.route_into(&mut scratch, start, key).unwrap();
//! assert_eq!(scratch.ring_hops().last(), Some(&pastry.root_of(key).unwrap()));
//! ```

use std::collections::BTreeMap;
use std::fmt;

use tao_topology::NodeIdx;

use crate::keyed::KeyedOverlay;
use crate::select::{NeighborSelector, SlotOverlay};
use crate::RouteScratch;

/// A Pastry node identifier: 64 bits read as 16 hexadecimal digits, most
/// significant first.
pub type PastryId = u64;

/// Number of digits in an id (base 16 over 64 bits).
pub const DIGITS: u32 = 16;

/// Bits per digit.
pub const DIGIT_BITS: u32 = 4;

/// The `position`-th digit of `id` (0 = most significant).
///
/// # Panics
///
/// Panics if `position >= DIGITS`.
pub fn digit(id: PastryId, position: u32) -> u8 {
    assert!(position < DIGITS, "digit position out of range");
    ((id >> ((DIGITS - 1 - position) * DIGIT_BITS)) & 0xF) as u8
}

/// Length of the common digit prefix of `a` and `b` (0..=16).
pub fn shared_prefix_len(a: PastryId, b: PastryId) -> u32 {
    for p in 0..DIGITS {
        if digit(a, p) != digit(b, p) {
            return p;
        }
    }
    DIGITS
}

/// Errors from Pastry operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PastryError {
    /// The overlay has no nodes.
    Empty,
    /// The named node is not present.
    UnknownNode(PastryId),
}

impl fmt::Display for PastryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PastryError::Empty => write!(f, "the overlay has no nodes"),
            PastryError::UnknownNode(id) => write!(f, "no node with id {id:#018x}"),
        }
    }
}

impl std::error::Error for PastryError {}

#[derive(Debug, Clone)]
struct NodeState {
    underlay: NodeIdx,
    /// `table[row * 16 + digit]`: a node sharing `row` digits with the
    /// owner whose next digit is `digit`, if any exists.
    table: Vec<Option<PastryId>>,
    /// Nearest ids on either side (leaf set), ascending.
    leaves: Vec<PastryId>,
}

/// A Pastry-style overlay: prefix routing tables plus leaf sets.
#[derive(Debug, Clone)]
pub struct PastryOverlay {
    nodes: BTreeMap<PastryId, NodeState>,
    leaf_set_half: usize,
}

impl PastryOverlay {
    /// Creates an empty overlay with `leaf_set_half` leaves on each side
    /// (Pastry's `L/2`; 8 is typical).
    ///
    /// # Panics
    ///
    /// Panics if `leaf_set_half` is zero.
    pub fn new(leaf_set_half: usize) -> Self {
        assert!(leaf_set_half > 0, "leaf set must be non-empty");
        PastryOverlay {
            nodes: BTreeMap::new(),
            leaf_set_half,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if no nodes are present.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Removes a node.
    ///
    /// # Errors
    ///
    /// Returns [`PastryError::UnknownNode`] if absent.
    pub fn leave(&mut self, id: PastryId) -> Result<(), PastryError> {
        self.nodes
            .remove(&id)
            .map(|_| ())
            .ok_or(PastryError::UnknownNode(id))
    }

    /// The node numerically responsible for `key`: minimal ring distance
    /// (|id - key| on the wrapping 64-bit ring), ties to the lower id —
    /// Pastry's root definition.
    ///
    /// # Errors
    ///
    /// Returns [`PastryError::Empty`] on an empty overlay.
    pub fn root_of(&self, key: PastryId) -> Result<PastryId, PastryError> {
        self.nodes
            .keys()
            .copied()
            .min_by_key(|&id| (ring_distance(id, key), id))
            .ok_or(PastryError::Empty)
    }

    /// All nodes sharing the first `prefix_len` digits with `pattern` and
    /// (when `prefix_len < DIGITS`) having `next_digit` at that position.
    pub fn members_of_slot(
        &self,
        pattern: PastryId,
        prefix_len: u32,
        next_digit: u8,
    ) -> Vec<PastryId> {
        // The slot describes ids in a contiguous range: prefix fixed,
        // next digit fixed, remainder free.
        let shift = (DIGITS - prefix_len) * DIGIT_BITS;
        let base = if prefix_len == 0 {
            0
        } else {
            (pattern >> shift) << shift
        };
        let d_shift = (DIGITS - 1 - prefix_len) * DIGIT_BITS;
        let lo = base | ((next_digit as u64) << d_shift);
        let hi = lo.wrapping_add(1u64 << d_shift);
        if hi == 0 {
            // Range reaches the top of the id space.
            self.nodes.range(lo..).map(|(&id, _)| id).collect()
        } else {
            self.nodes.range(lo..hi).map(|(&id, _)| id).collect()
        }
    }

    fn leaf_set_of(&self, id: PastryId) -> Vec<PastryId> {
        let mut leaves = Vec::with_capacity(self.leaf_set_half * 2);
        // Clockwise successors.
        let mut it = self
            .nodes
            .range(id.wrapping_add(1)..)
            .map(|(&i, _)| i)
            .chain(self.nodes.range(..id).map(|(&i, _)| i));
        for _ in 0..self.leaf_set_half {
            match it.next() {
                Some(n) if n != id => leaves.push(n),
                _ => break,
            }
        }
        // Counter-clockwise predecessors.
        let mut it = self.nodes.range(..id).rev().map(|(&i, _)| i).chain(
            self.nodes
                .range(id.wrapping_add(1)..)
                .rev()
                .map(|(&i, _)| i),
        );
        for _ in 0..self.leaf_set_half {
            match it.next() {
                Some(n) if n != id && !leaves.contains(&n) => leaves.push(n),
                _ => break,
            }
        }
        leaves.sort_unstable();
        leaves
    }

    /// The routing-table entry of `id` for `(row, digit)`, if filled.
    pub fn table_entry(&self, id: PastryId, row: u32, d: u8) -> Option<PastryId> {
        self.nodes
            .get(&id)?
            .table
            .get((row as usize) * 16 + d as usize)
            .copied()
            .flatten()
    }

    /// The leaf set of `id`.
    pub fn leaves(&self, id: PastryId) -> &[PastryId] {
        self.nodes
            .get(&id)
            .map(|s| s.leaves.as_slice())
            .unwrap_or(&[])
    }

    /// Asserts the overlay's structural invariants, panicking with a
    /// description on the first violation:
    ///
    /// * **routing-table constraint** — every filled `(row, digit)` slot
    ///   holds a present node (not the owner) that shares `row` digits with
    ///   the owner and has `digit` at position `row` — the prefix symmetry
    ///   the paper's selection hook relies on;
    /// * **leaf-set freshness** — every node's leaf set equals the nearest
    ///   ids on the current membership (recomputed from scratch), so stale
    ///   leaves left by departures are caught.
    ///
    /// Intended for churn tests: call after `reselect` / `reselect_node`
    /// has repaired state.
    pub fn check_invariants(&self) {
        for (&id, s) in &self.nodes {
            for row in 0..DIGITS {
                for d in 0..16u8 {
                    let Some(e) = s.table[(row as usize) * 16 + d as usize] else {
                        continue;
                    };
                    assert!(
                        self.nodes.contains_key(&e),
                        "table ({row},{d:#x}) of {id:#018x} holds departed {e:#018x}"
                    );
                    assert_ne!(e, id, "table ({row},{d:#x}) of {id:#018x} is a self-loop");
                    assert!(
                        shared_prefix_len(e, id) >= row,
                        "table ({row},{d:#x}) of {id:#018x} breaks the prefix constraint"
                    );
                    assert_eq!(
                        digit(e, row),
                        d,
                        "table ({row},{d:#x}) of {id:#018x} has the wrong next digit"
                    );
                }
            }
            let expected = self.leaf_set_of(id);
            assert_eq!(
                s.leaves, expected,
                "leaf set of {id:#018x} is stale (expected the nearest ids)"
            );
        }
    }
}

/// A Pastry slot is a routing-table cell `(row, digit)`: the members
/// sharing `row` digits with the owner and continuing with `digit`.
impl SlotOverlay for PastryOverlay {
    type Id = PastryId;
    type Slot = (u32, u8);

    fn underlay(&self, id: PastryId) -> Option<NodeIdx> {
        self.nodes.get(&id).map(|s| s.underlay)
    }
}

impl KeyedOverlay for PastryOverlay {
    type Error = PastryError;

    fn node_ids(&self) -> impl Iterator<Item = PastryId> + '_ {
        self.nodes.keys().copied()
    }

    fn join(&mut self, underlay: NodeIdx, id: PastryId) {
        let prev = self.nodes.insert(
            id,
            NodeState {
                underlay,
                table: vec![None; (DIGITS as usize) * 16],
                leaves: Vec::new(),
            },
        );
        assert!(prev.is_none(), "pastry id {id:#x} joined twice");
    }

    /// Rebuilds one node's routing table and leaf set: slot `(row, d)` is
    /// whichever member sharing `row` digits with `id` and continuing with
    /// `d` the selector picks; slots nobody fits stay empty.
    fn reselect_node(&mut self, id: PastryId, selector: &mut dyn NeighborSelector<Self>) {
        assert!(self.nodes.contains_key(&id), "node {id:#x} not present");
        let mut table = vec![None; (DIGITS as usize) * 16];
        for row in 0..DIGITS {
            let own_digit = digit(id, row);
            for d in 0..16u8 {
                if d == own_digit {
                    continue;
                }
                let mut candidates = self.members_of_slot(id, row, d);
                candidates.retain(|&c| c != id);
                if candidates.is_empty() {
                    continue;
                }
                let entry = selector.select(id, &(row, d), &candidates, self);
                table[(row as usize) * 16 + d as usize] = Some(entry);
            }
        }
        let leaves = self.leaf_set_of(id);
        #[expect(clippy::expect_used, reason = "checked above")]
        let s = self.nodes.get_mut(&id).expect("checked above");
        s.table = table;
        s.leaves = leaves;
    }

    /// Prefix routing: at each hop, use the table entry matching one more
    /// digit of the key; fall back to the numerically closest known node
    /// (leaf set ∪ table) that keeps the shared prefix and improves on the
    /// current distance; terminate at the key's root. The hop buffer lives
    /// in `scratch`, so a caller that routes more than once allocates
    /// nothing after the first call. On success the hop sequence (start
    /// first) is in [`RouteScratch::ring_hops`](crate::RouteScratch::ring_hops);
    /// on error the scratch is still reusable.
    ///
    /// # Errors
    ///
    /// Returns [`PastryError::UnknownNode`] for an absent start and
    /// [`PastryError::Empty`] on an empty overlay.
    // tao-lint: hot
    fn route_into(
        &self,
        scratch: &mut RouteScratch,
        start: PastryId,
        key: PastryId,
    ) -> Result<(), PastryError> {
        if !self.nodes.contains_key(&start) {
            return Err(PastryError::UnknownNode(start));
        }
        let root = self.root_of(key)?;
        scratch.begin_ring();
        scratch.push_ring_hop(start);
        let mut current = start;
        while current != root {
            let p = shared_prefix_len(current, key);
            let wanted = digit(key, p.min(DIGITS - 1));
            #[expect(clippy::expect_used, reason = "current is present")]
            let next = self
                .table_entry(current, p, wanted)
                .filter(|&n| self.nodes.contains_key(&n))
                .or_else(|| {
                    // Rare case: no table entry — take a known node that
                    // shares at least as long a prefix with the key and is
                    // strictly closer to it numerically. A table hop
                    // lengthens the prefix but may move away numerically,
                    // so a closer node with a *shorter* prefix could hand
                    // the message straight back; with both conditions
                    // (prefix length, closeness) only ever grows.
                    let here = ring_distance(current, key);
                    self.leaves(current)
                        .iter()
                        .copied()
                        .chain(
                            self.nodes
                                .get(&current)
                                .expect("current is present")
                                .table
                                .iter()
                                .flatten()
                                .copied(),
                        )
                        .filter(|&n| self.nodes.contains_key(&n))
                        .filter(|&n| shared_prefix_len(n, key) >= p && ring_distance(n, key) < here)
                        .min_by_key(|&n| (ring_distance(n, key), n))
                });
            let Some(next) = next else {
                // No improvement available: current must be the root's
                // neighborhood; step through the leaf set toward the root.
                let step = self
                    .leaves(current)
                    .iter()
                    .copied()
                    .min_by_key(|&n| (ring_distance(n, key), n))
                    .filter(|&n| ring_distance(n, key) < ring_distance(current, key));
                match step {
                    Some(n) => {
                        scratch.push_ring_hop(n);
                        current = n;
                        continue;
                    }
                    None => break, // numerically closest known node reached
                }
            };
            scratch.push_ring_hop(next);
            current = next;
            if scratch.ring_hops_len() > 2 * self.nodes.len() + 8 {
                unreachable!("pastry routing exceeded the hop bound");
            }
        }
        Ok(())
    }
}

/// Minimal wrapping distance between two ids on the 64-bit ring.
fn ring_distance(a: PastryId, b: PastryId) -> u64 {
    let d = a.wrapping_sub(b);
    d.min(b.wrapping_sub(a))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::RandomSelector;
    use tao_util::rand::rngs::StdRng;
    use tao_util::rand::{Rng, SeedableRng};

    fn overlay_of(n: u32, seed: u64) -> PastryOverlay {
        let mut o = PastryOverlay::new(8);
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..n {
            o.join(NodeIdx(i), rng.gen());
        }
        o.reselect(&mut RandomSelector::new(seed ^ 1));
        o
    }

    #[test]
    fn digits_and_prefixes() {
        let id: PastryId = 0xABCD_0000_0000_0000;
        assert_eq!(digit(id, 0), 0xA);
        assert_eq!(digit(id, 3), 0xD);
        assert_eq!(digit(id, 15), 0x0);
        assert_eq!(shared_prefix_len(0xAB00, 0xAB00), DIGITS);
        assert_eq!(
            shared_prefix_len(0xA000_0000_0000_0000, 0xB000_0000_0000_0000),
            0
        );
        assert_eq!(
            shared_prefix_len(0xAB00_0000_0000_0000, 0xAC00_0000_0000_0000),
            1
        );
    }

    #[test]
    fn slot_members_satisfy_the_constraint() {
        let o = overlay_of(256, 3);
        let id = o.node_ids().next().unwrap();
        for row in 0..3u32 {
            for d in 0..16u8 {
                for m in o.members_of_slot(id, row, d) {
                    assert!(shared_prefix_len(m, id) >= row);
                    assert_eq!(digit(m, row), d);
                }
            }
        }
    }

    #[test]
    fn table_entries_respect_their_slots() {
        let o = overlay_of(128, 5);
        for id in o.node_ids() {
            for row in 0..DIGITS {
                for d in 0..16u8 {
                    if let Some(e) = o.table_entry(id, row, d) {
                        assert!(shared_prefix_len(e, id) >= row);
                        assert_eq!(digit(e, row), d);
                        assert_ne!(e, id);
                    }
                }
            }
        }
    }

    /// A table hop may move numerically away from the key, so the rare-case
    /// fallback must not trade prefix length for closeness: here `a` (prefix
    /// `7F`, no `7FF` entry) knows `b` (prefix-less but numerically closer),
    /// and `b`'s row-0 entry for digit 7 is `a`.
    #[test]
    fn rare_case_fallback_keeps_the_shared_prefix() {
        struct Prefer([PastryId; 2]);
        impl NeighborSelector<PastryOverlay> for Prefer {
            fn select(
                &mut self,
                _: PastryId,
                _: &(u32, u8),
                candidates: &[PastryId],
                _: &PastryOverlay,
            ) -> PastryId {
                let preferred = self.0.iter().find(|p| candidates.contains(p));
                *preferred.unwrap_or(&candidates[0])
            }
        }
        let key: PastryId = 0x7FFF_FFFF_FFFF_FFF0;
        let a: PastryId = 0x7F00_0000_0000_0000;
        let b: PastryId = 0x8010_0000_0000_0000;
        let root: PastryId = 0x8000_0000_0000_0001;
        let mut o = PastryOverlay::new(2);
        // Two fillers on either side of `a` keep `root` out of its leaf set.
        let fillers = [0x1000 << 48, 0x2000 << 48, a + 1, a + 2];
        for (i, id) in [a, b, root].into_iter().chain(fillers).enumerate() {
            o.join(NodeIdx(i as u32), id);
        }
        o.reselect(&mut Prefer([a, b]));
        assert_eq!(o.table_entry(a, 0, 8), Some(b));
        assert_eq!(o.table_entry(b, 0, 7), Some(a));
        assert!(!o.leaves(a).contains(&root));
        assert_eq!(o.root_of(key).unwrap(), root);
        let mut scratch = RouteScratch::new();
        o.route_into(&mut scratch, a, key).unwrap();
        assert_eq!(scratch.ring_hops(), [a, a + 2, root]);
    }

    #[test]
    fn routing_reaches_the_root() {
        let o = overlay_of(256, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let ids: Vec<PastryId> = o.node_ids().collect();
        let mut scratch = RouteScratch::new();
        for _ in 0..200 {
            let start = ids[rng.gen_range(0..ids.len())];
            let key: PastryId = rng.gen();
            o.route_into(&mut scratch, start, key).unwrap();
            assert_eq!(scratch.ring_hops().last(), Some(&o.root_of(key).unwrap()));
        }
    }

    #[test]
    fn routing_is_logarithmic_in_digits() {
        let o = overlay_of(1024, 9);
        let mut rng = StdRng::seed_from_u64(10);
        let ids: Vec<PastryId> = o.node_ids().collect();
        let mut total = 0usize;
        let mut scratch = RouteScratch::new();
        const ROUTES: usize = 200;
        for _ in 0..ROUTES {
            let start = ids[rng.gen_range(0..ids.len())];
            o.route_into(&mut scratch, start, rng.gen()).unwrap();
            total += scratch.ring_hops().len() - 1;
        }
        let avg = total as f64 / ROUTES as f64;
        // Theory: ~log16(1024) = 2.5 digit hops plus leaf-set steps.
        assert!(avg < 6.0, "pastry average hops {avg} is not logarithmic");
    }

    #[test]
    fn leaf_sets_are_the_nearest_ids() {
        let o = overlay_of(64, 11);
        for id in o.node_ids() {
            let leaves = o.leaves(id);
            assert!(leaves.len() >= 8, "leaf set too small: {}", leaves.len());
            assert!(!leaves.contains(&id));
        }
    }

    #[test]
    fn root_is_the_numerically_closest_node() {
        let mut o = PastryOverlay::new(2);
        o.join(NodeIdx(0), 100);
        o.join(NodeIdx(1), 200);
        o.join(NodeIdx(2), u64::MAX - 50);
        assert_eq!(o.root_of(120).unwrap(), 100);
        assert_eq!(o.root_of(180).unwrap(), 200);
        assert_eq!(o.root_of(u64::MAX - 10).unwrap(), u64::MAX - 50);
        // Wrapping: key 10 is closer to MAX-50 (distance 61) than to 100.
        assert_eq!(o.root_of(10).unwrap(), u64::MAX - 50);
    }

    #[test]
    fn departures_surface_as_errors_and_reroutes() {
        let mut o = overlay_of(64, 13);
        let victim = o.node_ids().nth(10).unwrap();
        o.leave(victim).unwrap();
        assert!(o.leave(victim).is_err());
        o.reselect(&mut RandomSelector::new(14));
        let ids: Vec<PastryId> = o.node_ids().collect();
        let mut rng = StdRng::seed_from_u64(15);
        let mut scratch = RouteScratch::new();
        for _ in 0..50 {
            let start = ids[rng.gen_range(0..ids.len())];
            let key: PastryId = rng.gen();
            o.route_into(&mut scratch, start, key).unwrap();
            assert!(scratch.ring_hops().iter().all(|&h| h != victim));
        }
    }

    #[test]
    fn empty_overlay_errors() {
        let o = PastryOverlay::new(4);
        assert_eq!(o.root_of(5), Err(PastryError::Empty));
        assert!(PastryError::UnknownNode(0xAB)
            .to_string()
            .contains("0x00000000000000ab"));
    }
}
