//! What the id-keyed overlays — [`ChordOverlay`](crate::chord::ChordOverlay)
//! and [`PastryOverlay`](crate::pastry::PastryOverlay) — have in common:
//! nodes on a 64-bit identifier space, routing slots (a finger interval, a
//! `(row, digit)` table cell) free to hold *any* member that fits, hop-by-hop
//! routes into a [`RouteScratch`]. [`KeyedOverlay`] names that surface and
//! [`PeerSelector`] is the one hook slots are filled through, so a system
//! built on the hook (the paper's §7 generality claim) is written once.
//! eCAN keeps [`NeighborSelector`](crate::ecan::NeighborSelector): its
//! slots are zone boxes, chosen in two phases.

use tao_topology::{NodeIdx, RttOracle};
use tao_util::rand::rngs::StdRng;
use tao_util::rand::{Rng, SeedableRng};

use crate::RouteScratch;

/// A position in the 64-bit identifier space ([`RingId`](crate::chord::RingId)
/// and [`PastryId`](crate::pastry::PastryId) are both this).
pub type PeerId = u64;

/// Chooses which of a slot's admissible members fills it — the
/// *proximity neighbor selection* hook of the id-keyed overlays.
pub trait PeerSelector<O> {
    /// Picks one of `candidates` (non-empty, all satisfying the slot's
    /// constraint, never `owner` itself) as `owner`'s entry for the slot.
    fn select(&mut self, owner: PeerId, candidates: &[PeerId], overlay: &O) -> PeerId;
}

/// Uniformly random admissible member — the no-topology-awareness baseline.
#[derive(Debug, Clone)]
pub struct RandomPeerSelector {
    rng: StdRng,
}

impl RandomPeerSelector {
    /// Creates a selector with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        RandomPeerSelector {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl<O> PeerSelector<O> for RandomPeerSelector {
    fn select(&mut self, _owner: PeerId, candidates: &[PeerId], _overlay: &O) -> PeerId {
        candidates[self.rng.gen_range(0..candidates.len())]
    }
}

/// The physically closest admissible member via free ground truth — the
/// optimal curve.
#[derive(Debug, Clone)]
pub struct ClosestPeerSelector {
    oracle: RttOracle,
}

impl ClosestPeerSelector {
    /// Creates the optimal selector over `oracle`'s topology.
    pub fn new(oracle: RttOracle) -> Self {
        ClosestPeerSelector { oracle }
    }
}

impl<O: KeyedOverlay> PeerSelector<O> for ClosestPeerSelector {
    fn select(&mut self, owner: PeerId, candidates: &[PeerId], overlay: &O) -> PeerId {
        let me = overlay.underlay(owner).expect("owner is a member"); // tao-lint: allow(no-unwrap-in-lib, reason = "owner is a member")
        let rtt = |id| {
            let there = overlay.underlay(id).expect("candidates are members"); // tao-lint: allow(no-unwrap-in-lib, reason = "candidates are members")
            self.oracle.ground_truth(me, there)
        };
        *candidates
            .iter()
            .min_by_key(|&&id| (rtt(id), id))
            .expect("candidates are non-empty") // tao-lint: allow(no-unwrap-in-lib, reason = "candidates are non-empty")
    }
}

/// An overlay whose nodes sit on a 64-bit identifier space and whose
/// routing slots are filled through a [`PeerSelector`].
pub trait KeyedOverlay: Sized {
    /// Why a route could not start.
    type Error;

    /// Ids of all members, ascending.
    fn node_ids(&self) -> impl Iterator<Item = PeerId> + '_;

    /// The underlay router of member `id`.
    fn underlay(&self, id: PeerId) -> Option<NodeIdx>;

    /// Adds a member; nobody's slots change until re-selected. Panics if
    /// `id` is taken (ids come from a seeded RNG: a 64-bit collision is a
    /// bug, not an input condition).
    fn join(&mut self, underlay: NodeIdx, id: PeerId);

    /// Refills every routing slot of member `id` from the current
    /// membership, each through `selector`. Panics if `id` is not a member.
    fn reselect_node(&mut self, id: PeerId, selector: &mut dyn PeerSelector<Self>);

    /// Refills every member's routing slots, in ascending id order.
    fn reselect(&mut self, selector: &mut dyn PeerSelector<Self>) {
        let ids: Vec<PeerId> = self.node_ids().collect();
        for id in ids {
            self.reselect_node(id, selector);
        }
    }

    /// Routes a lookup for `key` from member `start`, leaving the hops
    /// (start first, the key's home node last) in
    /// [`RouteScratch::ring_hops`]. Fails if `start` is not a member.
    fn route_into(
        &self,
        scratch: &mut RouteScratch,
        start: PeerId,
        key: PeerId,
    ) -> Result<(), Self::Error>;
}
