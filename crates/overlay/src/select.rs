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

    /// Draws a member of `slot` without listing it (`Chosen`, or `Skip` if
    /// it is empty). The default, `Enumerate`, is for slots that are cheap
    /// to list and have no draw of their own (Chord, Pastry).
    fn draw_member(&self, _slot: &Self::Slot, _rng: &mut StdRng) -> BoxSelection<Self::Id> {
        BoxSelection::Enumerate
    }
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

/// The paper's "random neighbor selection" baseline (no topology
/// awareness). On eCAN it draws a box's representative from the split tree
/// without listing the box ([`CanOverlay::sample_in`]): the owner of a
/// uniform random point, so weighted by the volume a member holds in the
/// box. Chord fingers and Pastry cells are listed, and it draws uniformly
/// over their members.
#[derive(Debug, Clone, PartialEq, Eq)]
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

    // tao-lint: hot
    fn select_in_box(&mut self, for_node: O::Id, slot: &O::Slot, o: &O) -> BoxSelection<O::Id> {
        // A handful of rejection rounds: the only way every draw is
        // `for_node` itself is a box dominated by its own zones, in which
        // case skipping matches what candidate enumeration would do.
        for _ in 0..16 {
            match o.draw_member(slot, &mut self.rng) {
                BoxSelection::Chosen(s) if s == for_node => continue,
                drawn => return drawn,
            }
        }
        BoxSelection::Skip
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chord::ChordOverlay;
    use crate::keyed::KeyedOverlay;
    use crate::pastry::PastryOverlay;
    use crate::{Point, Zone};
    use tao_util::det::DetMap;

    /// On eCAN, `RandomSelector` draws only members of a box, in proportion
    /// to the volume each holds there — measurably not uniformly over the
    /// members; Chord fingers and Pastry cells answer `Enumerate` (listed).
    #[test]
    fn random_selector_weights_an_ecan_box_by_volume_and_lists_the_rest() {
        let mut rng = StdRng::seed_from_u64(0x5e1);
        let mut can = CanOverlay::new(2).expect("2-d CAN");
        let ids: Vec<_> = (0..256)
            .map(|i| can.join(NodeIdx(i), Point::random(2, &mut rng)))
            .collect();
        ids.iter()
            .step_by(8)
            .for_each(|&id| can.leave(id).expect("live node"));
        // A split-tree region: every zone that meets it lies inside it.
        let quadrant = Zone::from_bounds(vec![0.0; 2], vec![0.5; 2]).expect("a box");
        let mut share: DetMap<OverlayNodeId, f64> = DetMap::new();
        for id in can.live_nodes() {
            for zone in can.zones(id).expect("live node") {
                if quadrant.contains_zone(&zone) {
                    *share.entry(id).or_default() += zone.volume() / quadrant.volume();
                }
            }
        }
        const DRAWS: u32 = 40_000;
        let (outsider, mut drawn) = (can.owner(&Point::clamped(vec![0.9; 2])), DetMap::new());
        let mut selector = RandomSelector::new(0x5e2);
        for _ in 0..DRAWS {
            let BoxSelection::Chosen(id) = selector.select_in_box(outsider, &quadrant, &can) else {
                panic!("an eCAN box is drawn from, not listed or skipped");
            };
            *drawn.entry(id).or_insert(0u32) += 1;
        }
        assert!(share.len() > 30 && drawn.keys().all(|id| share.contains_key(id)));
        let l1 = |want: &dyn Fn(f64) -> f64| -> f64 {
            let got = |id| f64::from(drawn.get(id).copied().unwrap_or(0)) / f64::from(DRAWS);
            share.iter().map(|(id, &s)| (got(id) - want(s)).abs()).sum()
        };
        let (to_volume, to_uniform) = (l1(&|s| s), l1(&|_| 1.0 / share.len() as f64));
        assert!(to_volume < 0.05, "L1 to the volume shares: {to_volume}");
        assert!(to_uniform > 0.2, "L1 to uniform over members: {to_uniform}");

        let (mut ring, mut pastry) = (ChordOverlay::new(), PastryOverlay::new(8));
        for i in 0..16 {
            ring.join(NodeIdx(i), rng.gen());
            pastry.join(NodeIdx(i), rng.gen());
        }
        let (finger, cell) = (ring.node_ids().next(), pastry.node_ids().next());
        let finger = selector.select_in_box(finger.expect("a member"), &63, &ring);
        let cell = selector.select_in_box(cell.expect("a member"), &(0, 3), &pastry);
        assert_eq!(
            (finger, cell),
            (BoxSelection::Enumerate, BoxSelection::Enumerate)
        );
    }
}
