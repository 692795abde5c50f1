//! Section 1 claim: "for a typical 1,000-node Topologically-Aware CAN, 10%
//! of nodes can occupy 80–98% of the entire Cartesian space, and some nodes
//! have to maintain 10s–100s of neighbors."
//!
//! Builds a TA-CAN (nodes join inside the bin of their landmark ordering)
//! next to a uniform CAN of the same population and prints both imbalance
//! profiles.

use tao_bench::{f3, print_table, Scale};
use tao_landmark::LandmarkVector;
use tao_overlay::tacan::{binned_join_point, ImbalanceStats};
use tao_overlay::{CanOverlay, Point};
use tao_topology::landmarks::{select_landmarks, LandmarkStrategy};
use tao_topology::{generate_transit_stub, LatencyAssignment, RttOracle};
use tao_util::rand::rngs::StdRng;
use tao_util::rand::SeedableRng;

const NODES: usize = 1_000;
const LANDMARKS: usize = 5; // 5! = 120 ordering bins

fn main() {
    let scale = Scale::from_env();
    eprintln!("sec1: building TA-CAN of {NODES} nodes…");
    let topo = generate_transit_stub(&scale.tsk_large(), LatencyAssignment::gt_itm(), 91);
    let oracle = RttOracle::new(topo.graph().clone());
    let mut rng = StdRng::seed_from_u64(92);
    let landmarks = select_landmarks(topo.graph(), LANDMARKS, LandmarkStrategy::Random, &mut rng);
    oracle.warm(&landmarks);
    let count = NODES.min(topo.graph().node_count() / 2);
    let participants = topo.sample_nodes(count, &mut rng);

    let mut tacan = CanOverlay::new(2).expect("2-d CAN");
    let mut uniform = CanOverlay::new(2).expect("2-d CAN");
    for &router in &participants {
        let ordering = LandmarkVector::measure(router, &landmarks, &oracle).ordering();
        tacan.join(router, binned_join_point(&ordering, 2, &mut rng));
        uniform.join(router, Point::random(2, &mut rng));
    }

    let rows: Vec<Vec<String>> = [("TA-CAN (binned)", &tacan), ("uniform CAN", &uniform)]
        .into_iter()
        .map(|(name, can)| {
            let s = ImbalanceStats::measure(can);
            vec![
                name.to_string(),
                format!("{:.1}%", s.top_share(0.10) * 100.0),
                s.max_neighbors().to_string(),
                f3(s.mean_neighbors()),
                format!("{:.0}x", s.volume_spread()),
            ]
        })
        .collect();
    print_table(
        "Section 1: Topologically-Aware CAN imbalance (1,000 nodes)",
        &[
            "layout",
            "space owned by top 10%",
            "max neighbors",
            "mean neighbors",
            "max/min zone volume",
        ],
        &rows,
    );
}
