//! A Chord ring, with the finger-table flexibility the paper's technique
//! needs.
//!
//! The paper's conclusion: "The techniques are generic for overlay networks
//! such as Pastry, Chord, and eCAN, where there exists flexibility in
//! selecting routing neighbors." In Chord that flexibility is the finger
//! table: the `i`-th finger of node `n` may be *any* node in the interval
//! `[n + 2^i, n + 2^(i+1))` without hurting the O(log N) bound — so the
//! choice within the interval can be made by physical proximity. The
//! appendix adds how the soft-state is keyed here: "use the landmark number
//! as the key to store the information of a node on a node whose ID is
//! equal to or greater than the landmark number" — i.e. the successor.
//!
//! # Example
//!
//! ```
//! use tao_overlay::chord::ChordOverlay;
//! use tao_overlay::keyed::KeyedOverlay;
//! use tao_overlay::select::RandomSelector;
//! use tao_overlay::RouteScratch;
//! use tao_topology::NodeIdx;
//!
//! let mut ring = ChordOverlay::new();
//! for i in 0..32u32 {
//!     ring.join(NodeIdx(i), u64::from(i) * (u64::MAX / 32));
//! }
//! ring.reselect(&mut RandomSelector::new(1));
//! let start = ring.node_ids().next().unwrap();
//! let mut scratch = RouteScratch::new();
//! ring.route_into(&mut scratch, start, u64::MAX / 2).unwrap();
//! assert!(scratch.ring_hops().len() <= 7, "Chord routes in O(log N) hops");
//! ```

use std::collections::BTreeMap;
use std::fmt;

use tao_topology::NodeIdx;

use crate::keyed::KeyedOverlay;
use crate::select::{NeighborSelector, SlotOverlay};
use crate::RouteScratch;

/// A position on the Chord identifier ring (`u64`, wrapping).
pub type RingId = u64;

/// Errors from Chord operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChordError {
    /// The ring has no nodes.
    EmptyRing,
    /// The named node is not on the ring.
    UnknownNode(RingId),
}

impl fmt::Display for ChordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChordError::EmptyRing => write!(f, "the ring has no nodes"),
            ChordError::UnknownNode(id) => write!(f, "no node with ring id {id:#x}"),
        }
    }
}

impl std::error::Error for ChordError {}

/// One finger-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Finger {
    /// Exponent: this finger covers `[owner + 2^bit, owner + 2^(bit+1))`.
    pub bit: u32,
    /// The chosen node inside the interval.
    pub target: RingId,
}

#[derive(Debug, Clone)]
struct NodeState {
    underlay: NodeIdx,
    fingers: Vec<Finger>,
}

/// A Chord identifier ring with per-node finger tables.
#[derive(Debug, Clone, Default)]
pub struct ChordOverlay {
    nodes: BTreeMap<RingId, NodeState>,
}

impl ChordOverlay {
    /// Creates an empty ring.
    pub fn new() -> Self {
        ChordOverlay::default()
    }

    /// Number of nodes on the ring.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Removes a node from the ring; its keys fall to its successor by
    /// construction of [`ChordOverlay::successor`]. Other nodes' fingers
    /// referencing it go stale — routing skips them — until re-selected
    /// ([`KeyedOverlay::reselect`] or per-node
    /// [`KeyedOverlay::reselect_node`]).
    ///
    /// # Errors
    ///
    /// Returns [`ChordError::UnknownNode`] if `id` is not on the ring.
    pub fn leave(&mut self, id: RingId) -> Result<(), ChordError> {
        self.nodes
            .remove(&id)
            .map(|_| ())
            .ok_or(ChordError::UnknownNode(id))
    }

    /// The node responsible for `key`: the first node at or after it on the
    /// ring (wrapping).
    ///
    /// # Errors
    ///
    /// Returns [`ChordError::EmptyRing`] on an empty ring.
    pub fn successor(&self, key: RingId) -> Result<RingId, ChordError> {
        if let Some((&id, _)) = self.nodes.range(key..).next() {
            return Ok(id);
        }
        self.nodes
            .keys()
            .next()
            .copied()
            .ok_or(ChordError::EmptyRing)
    }

    /// All nodes whose ids lie in the wrapping interval `[from, to)`.
    pub fn members_in(&self, from: RingId, to: RingId) -> Vec<RingId> {
        if from <= to {
            self.nodes.range(from..to).map(|(&id, _)| id).collect()
        } else {
            // Wraps past zero.
            self.nodes
                .range(from..)
                .chain(self.nodes.range(..to))
                .map(|(&id, _)| id)
                .collect()
        }
    }

    /// The finger table of `id` (empty until built).
    pub fn fingers(&self, id: RingId) -> &[Finger] {
        self.nodes
            .get(&id)
            .map(|s| s.fingers.as_slice())
            .unwrap_or(&[])
    }

    /// Clockwise distance from `a` to `b` on the ring.
    fn clockwise(a: RingId, b: RingId) -> u64 {
        b.wrapping_sub(a)
    }

    /// Asserts the ring's structural invariants, panicking with a
    /// description on the first violation:
    ///
    /// * **successor consistency** — every node is its own successor, and
    ///   the successor of the point just past a node is the next node on
    ///   the (wrapping) ring;
    /// * **finger liveness and placement** — every finger targets a node
    ///   that is on the ring, is not the owner, and lies inside the
    ///   interval `[owner + 2^bit, owner + 2^(bit+1))` its slot covers.
    ///
    /// Intended for churn tests: call after `reselect` / `reselect_node`
    /// has repaired tables.
    // tao-lint: allow(panic-reachability, reason = "an invariant checker: panicking on a broken ring is the intended behavior")
    pub fn check_invariants(&self) {
        if self.is_empty() {
            return;
        }
        let ids: Vec<RingId> = self.node_ids().collect();
        for (i, &id) in ids.iter().enumerate() {
            let next = ids[(i + 1) % ids.len()];
            #[expect(clippy::expect_used, reason = "non-empty ring")]
            let own = self.successor(id).expect("non-empty ring");
            assert_eq!(own, id, "node {id:#x} is not its own successor");
            #[expect(clippy::expect_used, reason = "non-empty ring")]
            let after = self.successor(id.wrapping_add(1)).expect("non-empty ring");
            assert_eq!(after, next, "ring order broken after {id:#x}");
            for f in self.fingers(id) {
                assert!(
                    self.nodes.contains_key(&f.target),
                    "finger bit {} of {id:#x} targets departed {:#x}",
                    f.bit,
                    f.target
                );
                assert_ne!(
                    f.target, id,
                    "finger bit {} of {id:#x} is a self-loop",
                    f.bit
                );
                let off = f.target.wrapping_sub(id);
                assert!(
                    off >= 1u64 << f.bit,
                    "finger bit {} of {id:#x} undershoots its interval",
                    f.bit
                );
                assert!(
                    f.bit == 63 || off < 1u64 << (f.bit + 1),
                    "finger bit {} of {id:#x} overshoots its interval",
                    f.bit
                );
            }
        }
    }
}

/// A Chord slot is a finger: the bit `i` of the interval
/// `[owner + 2^i, owner + 2^(i+1))`.
impl SlotOverlay for ChordOverlay {
    type Id = RingId;
    type Slot = u32;

    fn underlay(&self, id: RingId) -> Option<NodeIdx> {
        self.nodes.get(&id).map(|s| s.underlay)
    }
}

impl KeyedOverlay for ChordOverlay {
    type Error = ChordError;

    fn node_ids(&self) -> impl Iterator<Item = RingId> + '_ {
        self.nodes.keys().copied()
    }

    fn join(&mut self, underlay: NodeIdx, id: RingId) {
        let prev = self.nodes.insert(
            id,
            NodeState {
                underlay,
                fingers: Vec::new(),
            },
        );
        assert!(prev.is_none(), "ring id {id:#x} joined twice");
    }

    /// Rebuilds one node's finger table: finger `i` is whichever member of
    /// `[id + 2^i, id + 2^(i+1))` the selector picks; empty intervals get
    /// no finger.
    fn reselect_node(&mut self, id: RingId, selector: &mut dyn NeighborSelector<Self>) {
        assert!(self.nodes.contains_key(&id), "node {id:#x} not on the ring");
        let mut fingers = Vec::new();
        for bit in 0..64u32 {
            let lo = id.wrapping_add(1u64 << bit);
            let hi = id.wrapping_add(if bit == 63 { 0 } else { 1u64 << (bit + 1) });
            let mut candidates = self.members_in(lo, hi);
            candidates.retain(|&c| c != id);
            if candidates.is_empty() {
                continue;
            }
            let target = selector.select(id, &bit, &candidates, self);
            fingers.push(Finger { bit, target });
        }
        #[expect(clippy::expect_used, reason = "checked above")]
        let state = self.nodes.get_mut(&id).expect("checked above");
        state.fingers = fingers;
    }

    /// Routes a lookup for `key` from node `start` using fingers: each hop
    /// forwards to the table entry that gets clockwise-closest to the key
    /// without overshooting — classic closest-preceding-finger routing.
    /// The hop buffer lives in `scratch`, so a caller that routes more than
    /// once allocates nothing after the first call. On success the hop
    /// sequence (start first) is in
    /// [`RouteScratch::ring_hops`](crate::RouteScratch::ring_hops); on
    /// error the scratch is still reusable.
    ///
    /// # Errors
    ///
    /// Returns [`ChordError::UnknownNode`] if `start` is not on the ring or
    /// [`ChordError::EmptyRing`] on an empty ring.
    // tao-lint: hot
    fn route_into(
        &self,
        scratch: &mut RouteScratch,
        start: RingId,
        key: RingId,
    ) -> Result<(), ChordError> {
        if !self.nodes.contains_key(&start) {
            return Err(ChordError::UnknownNode(start));
        }
        let home = self.successor(key)?;
        scratch.begin_ring();
        scratch.push_ring_hop(start);
        let mut current = start;
        while current != home {
            let remaining = Self::clockwise(current, key);
            // Best finger that does not overshoot the key. `leave` does not
            // touch other nodes' fingers, so until they are rebuilt a
            // target may have departed: only ring members are forwarded to.
            let next = self
                .fingers(current)
                .iter()
                .map(|f| f.target)
                .filter(|&t| Self::clockwise(current, t) <= remaining.max(1))
                .filter(|t| self.nodes.contains_key(t))
                .max_by_key(|&t| Self::clockwise(current, t));
            let next = match next {
                Some(n) if n != current => n,
                // No useful finger: fall to the immediate successor.
                _ => self.successor(current.wrapping_add(1))?,
            };
            scratch.push_ring_hop(next);
            current = next;
            if scratch.ring_hops_len() > 2 * self.nodes.len() + 8 {
                // Defensive: cannot loop on a consistent ring.
                unreachable!("chord routing exceeded the hop bound");
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::{ClosestSelector, RandomSelector};
    use tao_topology::RttOracle;
    use tao_util::rand::rngs::StdRng;
    use tao_util::rand::{Rng, SeedableRng};

    fn ring_of(n: u32, seed: u64) -> ChordOverlay {
        let mut ring = ChordOverlay::new();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..n {
            ring.join(NodeIdx(i), rng.gen());
        }
        ring.reselect(&mut RandomSelector::new(seed ^ 1));
        ring
    }

    #[test]
    fn successor_wraps_around_the_ring() {
        let mut ring = ChordOverlay::new();
        ring.join(NodeIdx(0), 100);
        ring.join(NodeIdx(1), 200);
        assert_eq!(ring.successor(150).unwrap(), 200);
        assert_eq!(ring.successor(201).unwrap(), 100, "wraps past the top");
        assert_eq!(ring.successor(100).unwrap(), 100, "inclusive at the node");
    }

    #[test]
    fn members_in_handles_wrapping_intervals() {
        let mut ring = ChordOverlay::new();
        for id in [10u64, 20, u64::MAX - 10] {
            ring.join(NodeIdx(0), id);
        }
        assert_eq!(ring.members_in(15, 25), vec![20]);
        let wrapped = ring.members_in(u64::MAX - 20, 15);
        assert_eq!(wrapped, vec![u64::MAX - 10, 10]);
    }

    #[test]
    fn routing_reaches_the_keys_successor() {
        let ring = ring_of(128, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let ids: Vec<RingId> = ring.node_ids().collect();
        let mut scratch = RouteScratch::new();
        for _ in 0..200 {
            let start = ids[rng.gen_range(0..ids.len())];
            let key: RingId = rng.gen();
            ring.route_into(&mut scratch, start, key).unwrap();
            assert_eq!(
                scratch.ring_hops().last(),
                Some(&ring.successor(key).unwrap())
            );
        }
    }

    #[test]
    fn routes_skip_fingers_of_departed_nodes() {
        // `leave` with no finger rebuild: survivors' tables still name the
        // departed ids, and routing must never forward to one.
        let mut ring = ring_of(256, 21);
        let mut rng = StdRng::seed_from_u64(22);
        let mut ids: Vec<RingId> = ring.node_ids().collect();
        for _ in 0..32 {
            let victim = ids.swap_remove(rng.gen_range(0..ids.len()));
            ring.leave(victim).unwrap();
        }
        let mut scratch = RouteScratch::new();
        for _ in 0..2_000 {
            let start = ids[rng.gen_range(0..ids.len())];
            let key: RingId = rng.gen();
            ring.route_into(&mut scratch, start, key).unwrap();
            let hops = scratch.ring_hops();
            assert!(
                hops.iter().all(|h| ring.underlay(*h).is_some()),
                "route {hops:x?} passes through a departed node"
            );
            assert_eq!(*hops.last().unwrap(), ring.successor(key).unwrap());
        }
    }

    #[test]
    fn routing_is_logarithmic() {
        let ring = ring_of(1024, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let ids: Vec<RingId> = ring.node_ids().collect();
        let mut total = 0usize;
        let mut scratch = RouteScratch::new();
        const ROUTES: usize = 200;
        for _ in 0..ROUTES {
            let start = ids[rng.gen_range(0..ids.len())];
            ring.route_into(&mut scratch, start, rng.gen()).unwrap();
            total += scratch.ring_hops().len() - 1;
        }
        let avg = total as f64 / ROUTES as f64;
        // Theory: ~0.5 log2(1024) = 5.
        assert!(avg < 9.0, "chord average hops {avg} is not logarithmic");
    }

    #[test]
    fn fingers_live_inside_their_intervals() {
        let ring = ring_of(64, 9);
        for id in ring.node_ids() {
            for f in ring.fingers(id) {
                let lo = id.wrapping_add(1u64 << f.bit);
                let hi = id.wrapping_add(if f.bit == 63 { 0 } else { 1u64 << (f.bit + 1) });
                let members = ring.members_in(lo, hi);
                assert!(
                    members.contains(&f.target),
                    "finger bit {} of {id:#x} escaped its interval",
                    f.bit
                );
            }
        }
    }

    #[test]
    fn closest_selector_minimises_candidate_distance() {
        use tao_topology::{generate_transit_stub, LatencyAssignment, TransitStubParams};
        let topo = generate_transit_stub(
            &TransitStubParams::tsk_small_mini(),
            LatencyAssignment::manual(),
            3,
        );
        let oracle = RttOracle::new(topo.graph().clone());
        let mut ring = ChordOverlay::new();
        let mut rng = StdRng::seed_from_u64(4);
        for i in 0..128u32 {
            ring.join(NodeIdx(i * 7), rng.gen());
        }
        ring.reselect(&mut ClosestSelector::new(oracle.clone()));
        for id in ring.node_ids() {
            let me = ring.underlay(id).unwrap();
            for f in ring.fingers(id) {
                let lo = id.wrapping_add(1u64 << f.bit);
                let hi = id.wrapping_add(if f.bit == 63 { 0 } else { 1u64 << (f.bit + 1) });
                let chosen = oracle.ground_truth(me, ring.underlay(f.target).unwrap());
                for m in ring.members_in(lo, hi) {
                    if m == id {
                        continue;
                    }
                    assert!(chosen <= oracle.ground_truth(me, ring.underlay(m).unwrap()));
                }
            }
        }
    }

    #[test]
    fn departures_shift_responsibility_to_successors() {
        let mut ring = ring_of(32, 11);
        let victim = ring.node_ids().nth(5).unwrap();
        let key = victim.wrapping_sub(1);
        assert_eq!(ring.successor(key).unwrap(), victim);
        ring.leave(victim).unwrap();
        let heir = ring.successor(key).unwrap();
        assert_ne!(heir, victim);
        assert!(ring.leave(victim).is_err());
        // Re-selection drops stale fingers.
        ring.reselect(&mut RandomSelector::new(12));
        for id in ring.node_ids() {
            assert!(ring.fingers(id).iter().all(|f| f.target != victim));
        }
    }

    #[test]
    fn empty_ring_errors() {
        let ring = ChordOverlay::new();
        assert_eq!(ring.successor(5), Err(ChordError::EmptyRing));
        assert!(ring.is_empty());
        assert_eq!(
            ChordError::UnknownNode(7).to_string(),
            "no node with ring id 0x7"
        );
    }

    #[test]
    fn route_from_unknown_node_errors() {
        let ring = ring_of(8, 13);
        let routed = ring.route_into(&mut RouteScratch::new(), 1, 2);
        assert!(matches!(routed, Err(ChordError::UnknownNode(1))));
    }
}
