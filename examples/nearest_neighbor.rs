//! Finding your closest peer: expanding-ring search versus the paper's
//! hybrid landmark+RTT scheme, head to head on one query.
//!
//! ```sh
//! cargo run --release --example nearest_neighbor
//! ```
//!
//! The scenario the paper's introduction motivates: a node joining a
//! peer-to-peer system wants the physically closest existing member —
//! without flooding the network with probes.

use tao_landmark::LandmarkVector;
use tao_overlay::{CanOverlay, Point};
use tao_proximity::{expanding_ring_search, hybrid_search, nn_stretch, true_nearest, Candidate};
use tao_topology::landmarks::{select_landmarks, LandmarkStrategy};
use tao_topology::{generate_transit_stub, LatencyAssignment, RttOracle, TransitStubParams};
use tao_util::rand::rngs::StdRng;
use tao_util::rand::SeedableRng;

fn main() {
    let topo = generate_transit_stub(
        &TransitStubParams::tsk_large_mini(),
        LatencyAssignment::gt_itm(),
        5,
    );
    let oracle = RttOracle::new(topo.graph().clone());
    let mut rng = StdRng::seed_from_u64(6);
    let landmarks = select_landmarks(topo.graph(), 15, LandmarkStrategy::Random, &mut rng);
    oracle.warm(&landmarks);
    println!(
        "network: {} routers; {} landmarks placed",
        topo.graph().node_count(),
        landmarks.len()
    );

    // The existing members: every router runs a peer; everyone has measured
    // its landmark vector (15 probes each, once, at join).
    let members: Vec<Candidate> = topo
        .graph()
        .nodes()
        .map(|r| Candidate {
            underlay: r,
            vector: LandmarkVector::measure(r, &landmarks, &oracle),
        })
        .collect();
    // An overlay for the expanding-ring search to flood over.
    let mut can = CanOverlay::new(2).expect("2-d CAN");
    for c in &members {
        can.join(c.underlay, Point::random(2, &mut rng));
    }

    // The newcomer.
    let query_overlay = can.live_nodes().nth(123).expect("overlay is populated");
    let me = can.underlay(query_overlay);
    let my_vector = LandmarkVector::measure(me, &landmarks, &oracle);
    let (truth, truth_rtt) =
        true_nearest(me, members.iter().map(|c| c.underlay), &oracle).expect("members exist");
    println!("\nnewcomer {me}: true nearest member is {truth} at {truth_rtt}");

    // Hybrid: landmark pre-selection + 10 real probes.
    oracle.reset_measurements();
    let hybrid = hybrid_search(me, &my_vector, &members, 10, &oracle);
    let h = hybrid.best_after(10).expect("budget is 10");
    println!(
        "\nhybrid lmk+rtt : found {} at {} with {} probes (stretch {:.2})",
        h.node,
        h.rtt,
        oracle.measurements(),
        nn_stretch(h.rtt, truth_rtt)
    );

    // ERS needs two orders of magnitude more probing for the same answer.
    for budget in [10, 100, 1_000] {
        oracle.reset_measurements();
        let trace = expanding_ring_search(&can, query_overlay, budget, &oracle);
        let b = trace.best_after(budget).expect("budget >= 1");
        println!(
            "expanding ring : found {} at {} with {} probes (stretch {:.2})",
            b.node,
            b.rtt,
            oracle.measurements(),
            nn_stretch(b.rtt, truth_rtt)
        );
    }
}
