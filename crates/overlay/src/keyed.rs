//! What the id-keyed overlays — [`ChordOverlay`](crate::chord::ChordOverlay)
//! and [`PastryOverlay`](crate::pastry::PastryOverlay) — have in common:
//! nodes on a 64-bit identifier space, routing slots (a finger bit, a
//! `(row, digit)` table cell) free to hold *any* member that fits, hop-by-hop
//! routes into a [`RouteScratch`]. [`KeyedOverlay`] names that surface; its
//! slots are filled through the same
//! [`NeighborSelector`](crate::select::NeighborSelector) as eCAN's.

use std::ops::RangeBounds;

use tao_topology::NodeIdx;

use crate::select::{NeighborSelector, SlotOverlay};
use crate::RouteScratch;

/// A position in the 64-bit identifier space ([`RingId`](crate::chord::RingId)
/// and [`PastryId`](crate::pastry::PastryId) are both this).
pub type PeerId = u64;

/// An overlay whose nodes sit on a 64-bit identifier space and whose
/// routing slots are filled through a [`NeighborSelector`].
pub trait KeyedOverlay: SlotOverlay<Id = PeerId> + Sized {
    /// Why a route could not start.
    type Error;

    /// Ids of the members inside `range`, ascending.
    fn ids_in(
        &self,
        range: impl RangeBounds<PeerId>,
    ) -> impl DoubleEndedIterator<Item = PeerId> + '_;

    /// Ids of all members, ascending.
    fn node_ids(&self) -> impl Iterator<Item = PeerId> + '_ {
        self.ids_in(..)
    }

    /// Adds a member; nobody's slots change until re-selected. Panics if
    /// `id` is taken (ids come from a seeded RNG: a 64-bit collision is a
    /// bug, not an input condition).
    fn join(&mut self, underlay: NodeIdx, id: PeerId);

    /// Refills every routing slot of member `id` from the current
    /// membership, each through `selector`. Panics if `id` is not a member.
    fn reselect_node(&mut self, id: PeerId, selector: &mut dyn NeighborSelector<Self>);

    /// Refills every member's routing slots, in ascending id order.
    fn reselect(&mut self, selector: &mut dyn NeighborSelector<Self>) {
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
