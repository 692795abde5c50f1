//! Integration of the Table-1 lookup procedure across crates: landmark
//! machinery → soft-state maps → overlay hosting.

use tao_landmark::{LandmarkGrid, LandmarkVector};
use tao_overlay::ecan::{EcanOverlay, RandomSelector};
use tao_overlay::{CanOverlay, OverlayNodeId, Point};
use tao_sim::{SimDuration, SimTime};
use tao_softstate::{GlobalState, NodeInfo, SoftStateConfig};
use tao_topology::landmarks::{select_landmarks, LandmarkStrategy};
use tao_topology::{generate_transit_stub, LatencyAssignment, RttOracle, TransitStubParams};
use tao_util::det::DetMap;
use tao_util::rand::rngs::StdRng;
use tao_util::rand::SeedableRng;

struct World {
    oracle: RttOracle,
    ecan: EcanOverlay,
    state: GlobalState,
    infos: DetMap<OverlayNodeId, NodeInfo>,
}

fn world(condense_rate: f64, seed: u64) -> World {
    let topo = generate_transit_stub(
        &TransitStubParams::tsk_large_mini(),
        LatencyAssignment::manual(),
        seed,
    );
    let oracle = RttOracle::new(topo.graph().clone());
    let mut rng = StdRng::seed_from_u64(seed ^ 0xAB);
    let landmarks = select_landmarks(topo.graph(), 10, LandmarkStrategy::Random, &mut rng);
    oracle.warm(&landmarks);
    let participants = topo.sample_nodes(300, &mut rng);
    let mut can = CanOverlay::new(2).expect("2-d CAN");
    for &r in &participants {
        can.join(r, Point::random(2, &mut rng));
    }
    let ecan = EcanOverlay::build(can, &mut RandomSelector::new(seed));
    let grid = LandmarkGrid::new(3, 5, SimDuration::from_millis(600)).expect("valid grid");
    let config = SoftStateConfig::builder(grid)
        .condense_rate(condense_rate)
        .build();
    let mut state = GlobalState::new(config);
    let mut infos = DetMap::new();
    for id in ecan.can().live_nodes().collect::<Vec<_>>() {
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
    World {
        oracle,
        ecan,
        state,
        infos,
    }
}

#[test]
fn hosted_lookup_returns_physically_close_candidates() {
    let w = world(0.25, 7);
    let mut improvements = 0usize;
    let mut comparisons = 0usize;
    for (&id, info) in w.infos.iter().take(40) {
        let me = w.ecan.can().underlay(id);
        for region in w.ecan.enclosing_high_order_zones(id) {
            let found = w
                .state
                .lookup_in_hosted(&region, info, 5, w.ecan.can(), SimTime::ORIGIN);
            if found.is_empty() {
                continue;
            }
            // Candidate quality: the best returned candidate should usually
            // beat the *average* member of the region.
            let best = found
                .iter()
                .map(|c| w.oracle.ground_truth(me, c.underlay))
                .min()
                .expect("non-empty");
            let members = w.ecan.can().nodes_in(&region);
            let avg_us: u64 = members
                .iter()
                .filter(|&&m| m != id)
                .map(|&m| {
                    w.oracle
                        .ground_truth(me, w.ecan.can().underlay(m))
                        .as_micros()
                })
                .sum::<u64>()
                / members.len().max(1) as u64;
            comparisons += 1;
            if best.as_micros() <= avg_us {
                improvements += 1;
            }
        }
    }
    assert!(
        comparisons > 20,
        "need a meaningful sample, got {comparisons}"
    );
    assert!(
        improvements * 10 >= comparisons * 7,
        "map candidates should beat the region average in >=70% of cases: {improvements}/{comparisons}"
    );
}

#[test]
fn candidates_never_include_the_querying_node() {
    let w = world(0.25, 8);
    for (&id, info) in w.infos.iter().take(50) {
        for region in w.ecan.enclosing_high_order_zones(id) {
            let found = w
                .state
                .lookup_in_hosted(&region, info, 10, w.ecan.can(), SimTime::ORIGIN);
            assert!(found.iter().all(|c| c.node != id));
        }
    }
}

#[test]
fn expired_state_yields_no_candidates() {
    let mut w = world(0.25, 9);
    let later = SimTime::ORIGIN + w.state.config().ttl() + SimDuration::from_secs(1);
    let dropped = w.state.expire(later);
    assert!(dropped > 0);
    let (&id, info) = w.infos.iter().next().expect("infos exist");
    for region in w.ecan.enclosing_high_order_zones(id) {
        assert!(w
            .state
            .lookup_in_hosted(&region, info, 10, w.ecan.can(), later)
            .is_empty());
    }
}

#[test]
fn refresh_keeps_state_alive_through_ttl_boundaries() {
    let mut w = world(0.25, 10);
    let half = SimTime::ORIGIN + w.state.config().ttl() / 2;
    let live: Vec<OverlayNodeId> = w.infos.keys().copied().collect();
    for id in &live {
        w.state.refresh(*id, half);
    }
    let past_first_ttl = SimTime::ORIGIN + w.state.config().ttl() + SimDuration::from_secs(1);
    assert_eq!(
        w.state.expire(past_first_ttl),
        0,
        "refreshed entries survive"
    );
    assert!(w.state.total_entries() > 0);
}

#[test]
fn condensed_maps_concentrate_hosting() {
    let spread = world(1.0, 11);
    let condensed = world(0.0625, 11);
    let count_hosting = |w: &World| {
        w.state
            .entries_per_host(w.ecan.can())
            .values()
            .filter(|&&c| c > 0)
            .count()
    };
    let hosts_spread = count_hosting(&spread);
    let hosts_condensed = count_hosting(&condensed);
    assert!(
        hosts_condensed < hosts_spread,
        "condensing must use fewer hosts: {hosts_condensed} vs {hosts_spread}"
    );
    // Total state is identical either way.
    assert_eq!(
        spread.state.total_entries(),
        condensed.state.total_entries()
    );
}
