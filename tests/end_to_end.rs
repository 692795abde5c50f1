//! End-to-end integration: the whole pipeline from topology generation
//! through landmark measurement, soft-state publication, proximity-neighbor
//! selection, and routing — asserting the paper's headline claims hold on
//! this implementation.

use tao_core::{GlobalStateSelector, SelectionStrategy, TaoBuilder};
use tao_landmark::LandmarkVector;
use tao_overlay::ecan::{ClosestSelector, EcanOverlay, RandomSelector};
use tao_sim::SimTime;
use tao_softstate::{GlobalState, NodeInfo};
use tao_topology::{generate_transit_stub, LatencyAssignment, RttOracle, TransitStubParams};
use tao_util::det::DetMap;

fn builder(latency: LatencyAssignment, seed: u64) -> TaoBuilder {
    let mut b = TaoBuilder::new();
    b.topology(TransitStubParams::tsk_large_mini())
        .latency(latency)
        .overlay_nodes(256)
        .landmarks(15)
        .rtt_budget(10)
        .seed(seed);
    b
}

#[test]
fn global_state_cuts_stretch_by_at_least_a_quarter() {
    // The paper claims ~30-50% improvement over random selection; demand a
    // conservative 25% so the test is robust to seed noise.
    for latency in [LatencyAssignment::manual(), LatencyAssignment::gt_itm()] {
        let mut b = builder(latency, 41);
        b.selection(SelectionStrategy::Random);
        let random = b.build().measure_routing_stretch(512, 9).mean();
        b.selection(SelectionStrategy::GlobalState);
        let aware = b.build().measure_routing_stretch(512, 9).mean();
        assert!(
            aware < random * 0.75,
            "{latency:?}: aware {aware:.2} should be at least 25% below random {random:.2}"
        );
    }
}

#[test]
fn selection_quality_is_ordered_optimal_then_aware_then_random() {
    let mut b = builder(LatencyAssignment::manual(), 43);
    b.selection(SelectionStrategy::Optimal);
    let optimal = b.build().measure_routing_stretch(512, 5).mean();
    b.selection(SelectionStrategy::GlobalState);
    let aware = b.build().measure_routing_stretch(512, 5).mean();
    b.selection(SelectionStrategy::Random);
    let random = b.build().measure_routing_stretch(512, 5).mean();
    assert!(
        optimal <= aware * 1.05,
        "optimal {optimal:.2} vs aware {aware:.2}"
    );
    assert!(aware < random, "aware {aware:.2} vs random {random:.2}");
}

#[test]
fn every_node_appears_in_at_most_log_n_maps() {
    let tao = builder(LatencyAssignment::manual(), 44).build();
    let n = tao.ecan().can().len() as f64;
    let bound = n.log2().ceil() as usize;
    for id in tao.ecan().can().live_nodes() {
        let zones = tao.ecan().enclosing_high_order_zones(id);
        assert!(
            zones.len() <= bound,
            "{id} is in {} maps, bound is {bound}",
            zones.len()
        );
    }
}

#[test]
fn probe_budget_scales_with_selections_not_with_n_squared() {
    // The efficiency claim: building topology awareness costs
    // O(N · landmarks + N · entries · X) probes, nothing quadratic.
    let tao = builder(LatencyAssignment::manual(), 45).build();
    let n = tao.ecan().can().len() as u64;
    let landmarks = tao.landmarks().len() as u64;
    let budget = tao.params().rtt_budget as u64;
    let max_entries_per_node = 4 * 10; // 2d directions x orders, generous
    let bound = n * landmarks + n * max_entries_per_node * budget;
    let spent = tao.oracle().measurements();
    assert!(
        spent <= bound,
        "spent {spent} probes; bound {bound} ({n} nodes)"
    );
    // Per-node cost stays a small constant (landmark probes plus a few
    // bounded selections) — the hallmark of the linear-with-log scaling.
    let per_node = spent / n;
    assert!(
        per_node <= landmarks + max_entries_per_node * budget,
        "per-node probe cost {per_node} exceeds the constant bound"
    );
}

#[test]
fn deterministic_given_a_seed() {
    let s1 = builder(LatencyAssignment::gt_itm(), 46)
        .build()
        .measure_routing_stretch(256, 1);
    let s2 = builder(LatencyAssignment::gt_itm(), 46)
        .build()
        .measure_routing_stretch(256, 1);
    assert_eq!(s1, s2, "same seed must reproduce identical measurements");
}

#[test]
fn different_topologies_behave_consistently() {
    // tsk-small (dense stubs) must also work end to end.
    let mut b = TaoBuilder::new();
    b.topology(TransitStubParams::tsk_small_mini())
        .latency(LatencyAssignment::manual())
        .overlay_nodes(200)
        .landmarks(10)
        .seed(47);
    b.selection(SelectionStrategy::GlobalState);
    let tao = b.build();
    let s = tao.measure_routing_stretch(400, 3);
    assert!(s.count() > 300);
    assert!(s.min() >= 1.0 - 1e-9);
}

#[test]
fn build_on_equals_the_random_build_then_publish_then_reselect_sequence() {
    // `build_on` publishes over a table-less eCAN and makes one pass. What
    // it must equal is the sequence it used to run, spelled out over its
    // own CAN and landmarks: a random eCAN build, everyone's publish, then
    // a full re-selection with the configured strategy (none for Random).
    let seed = 48;
    let topology = generate_transit_stub(
        &TransitStubParams::tsk_large_mini(),
        LatencyAssignment::manual(),
        seed,
    );
    for strategy in [
        SelectionStrategy::Random,
        SelectionStrategy::Optimal,
        SelectionStrategy::GlobalState,
    ] {
        let mut b = builder(LatencyAssignment::manual(), seed);
        b.selection(strategy);
        let tao = b.build_on(topology.clone());

        let oracle = RttOracle::new(topology.graph().clone());
        let can = tao.ecan().can().clone();
        let config = *tao.state().config();
        let mut infos = DetMap::new();
        for id in can.live_nodes() {
            let underlay = can.underlay(id);
            let vector = LandmarkVector::measure(underlay, tao.landmarks(), &oracle);
            let number = config.grid().landmark_number(&vector, config.curve());
            let info = NodeInfo {
                node: id,
                underlay,
                vector,
                number,
                load: None,
            };
            assert_eq!(Some(&info), tao.info(id));
            infos.insert(id, info);
        }
        let mut ecan = EcanOverlay::build(can, &mut RandomSelector::new(seed));
        let mut state = GlobalState::new(config);
        for info in infos.values() {
            state.publish(info.clone(), &ecan, SimTime::ORIGIN);
        }
        match strategy {
            SelectionStrategy::Random => {}
            SelectionStrategy::Optimal => ecan.reselect(&mut ClosestSelector::new(oracle.clone())),
            SelectionStrategy::GlobalState => ecan.reselect(&mut GlobalStateSelector::new(
                &state,
                &oracle,
                &infos,
                tao.params().rtt_budget,
                SimTime::ORIGIN,
                seed.wrapping_add(0x5e1),
            )),
        }

        for id in ecan.can().live_nodes() {
            assert_eq!(
                tao.ecan().high_order_entries(id),
                ecan.high_order_entries(id),
                "{strategy:?}: {id}'s table"
            );
        }
        assert_eq!(
            tao.oracle().measurements(),
            oracle.measurements(),
            "{strategy:?}"
        );
        assert_eq!(
            tao.state().total_entries(),
            state.total_entries(),
            "{strategy:?}"
        );
    }
}
