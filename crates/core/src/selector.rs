//! Proximity-neighbor selection through the global soft-state.
//!
//! The heart of the paper: "when a node is looking for candidates in a
//! high-order zone Z that is close to it, it uses its own landmark number to
//! index into Z's map" (Table 1), receives up to X candidates ranked by
//! landmark-vector distance, RTT-measures them, and records the node with
//! the smallest RTT.

use tao_util::det::DetMap;

use tao_util::rand::rngs::StdRng;
use tao_util::rand::{Rng, SeedableRng};
use tao_overlay::ecan::NeighborSelector;
use tao_overlay::{CanOverlay, OverlayNodeId, Zone};
use tao_sim::SimTime;
use tao_softstate::{GlobalState, LookupScratch, NodeInfo};
use tao_topology::RttOracle;

/// A [`NeighborSelector`] backed by the global soft-state maps.
///
/// For each `(node, neighboring high-order zone)` pair it:
///
/// 1. looks up the zone's map with the node's landmark number,
/// 2. takes the top `rtt_budget` candidates (ranked inside the map by full
///    landmark-vector distance),
/// 3. RTT-probes each (charged through the [`RttOracle`] meter),
/// 4. picks the candidate with the smallest measured RTT.
///
/// When the map has no usable candidates (not yet published, expired, or
/// condensed away), it falls back to a random member — the same behaviour a
/// fresh deployment would exhibit.
#[derive(Debug)]
pub struct GlobalStateSelector<'a> {
    state: &'a GlobalState,
    oracle: &'a RttOracle,
    infos: &'a DetMap<OverlayNodeId, NodeInfo>,
    rtt_budget: usize,
    now: SimTime,
    fallback_rng: StdRng,
    /// Lookup buffers, kept for as long as the selector lives — the length
    /// of one `reselect*` — so a selection allocates nothing once warmed.
    scratch: LookupScratch,
    probes_spent: u64,
    fallbacks: u64,
}

impl<'a> GlobalStateSelector<'a> {
    /// Creates a selector.
    ///
    /// # Panics
    ///
    /// Panics if `rtt_budget` is zero.
    pub fn new(
        state: &'a GlobalState,
        oracle: &'a RttOracle,
        infos: &'a DetMap<OverlayNodeId, NodeInfo>,
        rtt_budget: usize,
        now: SimTime,
        seed: u64,
    ) -> Self {
        assert!(rtt_budget > 0, "rtt_budget must be at least 1");
        GlobalStateSelector {
            state,
            oracle,
            infos,
            rtt_budget,
            now,
            fallback_rng: StdRng::seed_from_u64(seed),
            scratch: LookupScratch::default(),
            probes_spent: 0,
            fallbacks: 0,
        }
    }

    /// RTT probes this selector has spent so far.
    pub fn probes_spent(&self) -> u64 {
        self.probes_spent
    }

    /// How many selections fell back to random for lack of candidates.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks
    }
}

impl NeighborSelector for GlobalStateSelector<'_> {
    fn select(
        &mut self,
        for_node: OverlayNodeId,
        target_box: &Zone,
        candidates: &[OverlayNodeId],
        can: &CanOverlay,
    ) -> OverlayNodeId {
        let me = can.underlay(for_node);
        let query = self
            .infos
            .get(&for_node)
            .expect("selecting node has published info"); // tao-lint: allow(no-unwrap-in-lib, reason = "selecting node has published info")
        let found = self.state.lookup_in_hosted_into(
            &mut self.scratch,
            target_box,
            query,
            self.rtt_budget,
            can,
            self.now,
        );
        // Probe only candidates that are actual live members of the box (the
        // map may hold entries for nodes that since departed or whose zones
        // grew past this box). `candidates` comes from `nodes_in`, which
        // sorts, so membership is a binary search.
        let best = found
            .filter(|i| candidates.binary_search(&i.node).is_ok())
            .map(|i| {
                self.probes_spent += 1;
                (self.oracle.measure(me, i.underlay), i.node)
            })
            .min_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        match best {
            Some((_, node)) => node,
            None => {
                self.fallbacks += 1;
                candidates[self.fallback_rng.gen_range(0..candidates.len())]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tao_util::rand::rngs::StdRng;
    use tao_landmark::{LandmarkGrid, LandmarkVector};
    use tao_overlay::ecan::{EcanOverlay, RandomSelector};
    use tao_overlay::Point;
    use tao_sim::SimDuration;
    use tao_softstate::SoftStateConfig;
    use tao_topology::{
        generate_transit_stub, LatencyAssignment, NodeIdx, TransitStubParams,
    };

    struct Fixture {
        oracle: RttOracle,
        ecan: EcanOverlay,
        state: GlobalState,
        infos: DetMap<OverlayNodeId, NodeInfo>,
    }

    fn fixture() -> Fixture {
        let topo = generate_transit_stub(
            &TransitStubParams::tsk_small_mini(),
            LatencyAssignment::manual(),
            41,
        );
        let oracle = RttOracle::new(topo.graph().clone());
        let landmarks = [NodeIdx(5), NodeIdx(300), NodeIdx(700)];
        oracle.warm(&landmarks);
        let mut can = CanOverlay::new(2).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let n_routers = topo.graph().node_count() as u32;
        for i in 0..256u32 {
            can.join(NodeIdx((i * 37) % n_routers), Point::random(2, &mut rng));
        }
        let ecan = EcanOverlay::build(can, &mut RandomSelector::new(0));
        let grid = LandmarkGrid::new(3, 5, SimDuration::from_millis(400)).unwrap();
        let config = SoftStateConfig::builder(grid).build();
        let mut state = GlobalState::new(config);
        let mut infos = DetMap::new();
        for id in ecan.can().live_nodes() {
            let underlay = ecan.can().underlay(id);
            let vector = LandmarkVector::measure(underlay, &landmarks, &oracle);
            let number = config.grid().landmark_number(&vector, config.curve());
            let info = NodeInfo {
                node: id,
                underlay,
                vector,
                number,
                load: None,
            };
            state.publish(info.clone(), &ecan, SimTime::ORIGIN);
            infos.insert(id, info);
        }
        Fixture {
            oracle,
            ecan,
            state,
            infos,
        }
    }

    #[test]
    fn selector_stays_within_probe_budget_per_choice() {
        let f = fixture();
        let mut ecan = f.ecan.clone();
        let mut sel =
            GlobalStateSelector::new(&f.state, &f.oracle, &f.infos, 5, SimTime::ORIGIN, 1);
        let live: Vec<OverlayNodeId> = ecan.can().live_nodes().collect();
        ecan.reselect_node(live[0], &mut sel);
        let entries = ecan.high_order_entries(live[0]).len() as u64;
        assert!(
            sel.probes_spent() <= entries * 5,
            "spent {} probes for {} entries",
            sel.probes_spent(),
            entries
        );
    }

    #[test]
    fn chosen_representative_is_a_member_of_the_target_box() {
        let f = fixture();
        let mut ecan = f.ecan.clone();
        let mut sel =
            GlobalStateSelector::new(&f.state, &f.oracle, &f.infos, 10, SimTime::ORIGIN, 2);
        ecan.reselect(&mut sel);
        for id in ecan.can().live_nodes() {
            for e in ecan.high_order_entries(id) {
                let members = ecan.can().nodes_in(&e.target_box);
                assert!(members.contains(&e.representative));
            }
        }
    }

    #[test]
    fn bigger_budgets_pick_closer_representatives_on_average() {
        let f = fixture();
        let mean_rep_distance = |budget: usize| -> f64 {
            let mut ecan = f.ecan.clone();
            let mut sel = GlobalStateSelector::new(
                &f.state, &f.oracle, &f.infos, budget, SimTime::ORIGIN, 3,
            );
            ecan.reselect(&mut sel);
            let mut total = 0.0;
            let mut count = 0;
            for id in ecan.can().live_nodes() {
                let me = ecan.can().underlay(id);
                for e in ecan.high_order_entries(id) {
                    total += f
                        .oracle
                        .ground_truth(me, ecan.can().underlay(e.representative))
                        .as_millis_f64();
                    count += 1;
                }
            }
            total / count as f64
        };
        let with_1 = mean_rep_distance(1);
        let with_20 = mean_rep_distance(20);
        assert!(
            with_20 <= with_1,
            "budget 20 ({with_20:.2}ms) should beat budget 1 ({with_1:.2}ms)"
        );
    }

    #[test]
    fn empty_state_falls_back_to_random_members() {
        let f = fixture();
        let empty = GlobalState::new(*f.state.config());
        let mut ecan = f.ecan.clone();
        let mut sel =
            GlobalStateSelector::new(&empty, &f.oracle, &f.infos, 5, SimTime::ORIGIN, 4);
        ecan.reselect(&mut sel);
        assert!(sel.fallbacks() > 0);
        assert_eq!(sel.probes_spent(), 0, "no candidates, no probes");
    }
}
