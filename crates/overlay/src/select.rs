//! The one neighbor-selection hook every overlay here is filled through.
//!
//! A routing slot — an eCAN expressway box, a Chord finger, a Pastry table
//! cell — may hold *any* member that meets its constraint; a
//! [`NeighborSelector`] picks which. The paper's three regimes are
//! [`RandomSelector`] (baseline), `tao-core`'s soft-state selectors (the
//! contribution) and [`ClosestSelector`] (the free-ground-truth optimum).

use tao_topology::{NodeIdx, RttOracle};
use tao_util::rand::rngs::StdRng;
use tao_util::rand::{Rng, SeedableRng};

use crate::{CanOverlay, OverlayNodeId};

/// An overlay whose routing slots a [`NeighborSelector`] fills.
pub trait SlotOverlay {
    /// A member's identity.
    type Id: Copy + Ord;
    /// A routing slot: an aligned box (eCAN), a finger bit (Chord), a
    /// `(row, digit)` cell (Pastry).
    type Slot;

    /// The underlay router of `id`, or `None` if the overlay holds none.
    fn underlay(&self, id: Self::Id) -> Option<NodeIdx>;
}

/// How a selector answers a whole-slot query — the fast path that avoids
/// listing every member of a huge high-order zone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoxSelection<Id = OverlayNodeId> {
    /// List the slot's members and call [`NeighborSelector::select`] (the
    /// default, and the only option for selectors that must compare
    /// candidates).
    Enumerate,
    /// Use this member, which the selector asserts is a live member of the
    /// slot other than the querying node.
    Chosen(Id),
    /// Leave the slot empty.
    Skip,
}

/// Chooses which admissible member fills a routing slot of `O` — eCAN's
/// CAN unless another overlay is named.
pub trait NeighborSelector<O: SlotOverlay = CanOverlay> {
    /// Picks one of `candidates` (non-empty, all admissible to `slot`, never
    /// `for_node`) as `for_node`'s entry for `slot`.
    fn select(
        &mut self,
        for_node: O::Id,
        slot: &O::Slot,
        candidates: &[O::Id],
        overlay: &O,
    ) -> O::Id;

    /// Picks a member for `slot` without a listed candidate set; eCAN asks
    /// this first for every box (id-keyed slots are cheap to list and go
    /// straight to `select`). The default, [`BoxSelection::Enumerate`],
    /// suits a selector that compares all members. One that can name a
    /// member without the list (sampling the zone tree; testing candidates
    /// with [`CanOverlay::zone_intersects`]) overrides it, so table builds
    /// never enumerate half the overlay to keep one id.
    // tao-lint: hot
    fn select_in_box(
        &mut self,
        _for_node: O::Id,
        _slot: &O::Slot,
        _overlay: &O,
    ) -> BoxSelection<O::Id> {
        BoxSelection::Enumerate
    }
}

/// Picks a uniformly random candidate — the paper's "random neighbor
/// selection" baseline (no topology awareness).
#[derive(Debug, Clone)]
pub struct RandomSelector {
    rng: StdRng,
}

impl RandomSelector {
    /// Creates a selector with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        RandomSelector {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl<O: SlotOverlay> NeighborSelector<O> for RandomSelector {
    fn select(&mut self, _for_node: O::Id, _slot: &O::Slot, candidates: &[O::Id], _: &O) -> O::Id {
        candidates[self.rng.gen_range(0..candidates.len())]
    }
}

/// Picks the physically closest candidate, by `(rtt, id)`, using *free*
/// ground-truth distances — the paper's "optimal" curve (infinite RTT
/// measurements).
#[derive(Debug, Clone)]
pub struct ClosestSelector {
    oracle: RttOracle,
}

impl ClosestSelector {
    /// Creates the optimal selector over `oracle`'s topology.
    pub fn new(oracle: RttOracle) -> Self {
        ClosestSelector { oracle }
    }
}

impl<O: SlotOverlay> NeighborSelector<O> for ClosestSelector {
    fn select(
        &mut self,
        for_node: O::Id,
        _slot: &O::Slot,
        candidates: &[O::Id],
        overlay: &O,
    ) -> O::Id {
        #[expect(clippy::expect_used, reason = "selector ids are members")]
        let router = |id| overlay.underlay(id).expect("selector ids are members");
        let me = router(for_node);
        #[expect(clippy::expect_used, reason = "candidates are non-empty")]
        let nearest = candidates
            .iter()
            .min_by_key(|&&c| (self.oracle.ground_truth(me, router(c)), c))
            .expect("candidates are non-empty");
        *nearest
    }
}
