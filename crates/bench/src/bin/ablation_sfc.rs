//! Ablation: the space-filling-curve choice (DESIGN.md §5).
//!
//! Hilbert (the paper's choice, via Andrzejak's suggestion) versus Z-order
//! versus a degenerate first-grid-coordinate scalar, measured two ways:
//! end-to-end routing stretch, and clustering quality — how close along the
//! scalar key the true nearest neighbor's landmark number lands.

use tao_util::rand::rngs::StdRng;
use tao_util::rand::SeedableRng;
use tao_bench::{f3, print_table, Scale};
use tao_core::{SelectionStrategy, TaoBuilder};
use tao_landmark::{LandmarkGrid, LandmarkVector, SpaceFillingCurve};
use tao_proximity::true_nearest;
use tao_sim::SimDuration;
use tao_topology::landmarks::{select_landmarks, LandmarkStrategy};
use tao_topology::{generate_transit_stub, LatencyAssignment, NodeIdx, RttOracle};

const CURVES: &[(&str, SpaceFillingCurve)] = &[
    ("Hilbert", SpaceFillingCurve::Hilbert),
    ("Z-order", SpaceFillingCurve::ZOrder),
    ("first-component", SpaceFillingCurve::FirstComponent),
];

/// Fraction of queries whose true nearest neighbor ranks within the top-k
/// pool positions when the pool is sorted by landmark-number distance.
fn clustering_quality(
    curve: SpaceFillingCurve,
    oracle: &RttOracle,
    landmarks: &[NodeIdx],
    pool: &[(NodeIdx, LandmarkVector)],
    queries: &[NodeIdx],
    top_k: usize,
) -> f64 {
    let grid = LandmarkGrid::new(3, 5, SimDuration::from_millis(400)).expect("valid grid");
    let numbers: Vec<(NodeIdx, u128)> = pool
        .iter()
        .map(|(n, v)| (*n, grid.landmark_number(v, curve).value()))
        .collect();
    let mut hits = 0usize;
    for &q in queries {
        let qv = LandmarkVector::measure(q, landmarks, oracle);
        let qn = grid.landmark_number(&qv, curve).value();
        let (nn, _) = true_nearest(q, pool.iter().map(|(n, _)| *n), oracle)
            .expect("pool has more than the query");
        let mut closest_numbers: Vec<&(NodeIdx, u128)> =
            numbers.iter().filter(|(n, _)| *n != q).collect();
        closest_numbers.sort_by_key(|(n, num)| (num.abs_diff(qn), *n));
        if closest_numbers.iter().take(top_k).any(|(n, _)| *n == nn) {
            hits += 1;
        }
    }
    hits as f64 / queries.len() as f64
}

fn main() {
    let scale = Scale::from_env();
    let mut base = scale.base_params();
    base.selection = SelectionStrategy::GlobalState;

    eprintln!("ablation_sfc: preparing clustering-quality world…");
    let topo = generate_transit_stub(&scale.tsk_large(), LatencyAssignment::manual(), 121);
    let oracle = RttOracle::new(topo.graph().clone());
    let mut rng = StdRng::seed_from_u64(122);
    let landmarks = select_landmarks(topo.graph(), base.landmarks, LandmarkStrategy::Random, &mut rng);
    oracle.warm(&landmarks);
    let pool: Vec<(NodeIdx, LandmarkVector)> = topo
        .sample_nodes(base.overlay_nodes, &mut rng)
        .into_iter()
        .map(|n| (n, LandmarkVector::measure(n, &landmarks, &oracle)))
        .collect();
    let queries: Vec<NodeIdx> = pool.iter().take(scale.query_nodes()).map(|(n, _)| *n).collect();

    let mut rows = Vec::new();
    for &(name, curve) in CURVES {
        eprintln!("ablation_sfc: {name}…");
        let quality = clustering_quality(curve, &oracle, &landmarks, &pool, &queries, 16);
        let mut builder = TaoBuilder::new();
        builder
            .topology(scale.tsk_large())
            .latency(LatencyAssignment::manual())
            .params(base)
            .curve(curve)
            .seed(123);
        let tao = builder.build();
        let stretch = tao
            .measure_routing_stretch(base.overlay_nodes, 124)
            .mean();
        rows.push(vec![
            name.to_string(),
            format!("{:.0}%", quality * 100.0),
            f3(stretch),
        ]);
    }
    print_table(
        "Ablation: space-filling curve (tsk-large, manual latencies)",
        &["curve", "true-NN in top-16 by key", "routing stretch"],
        &rows,
    );
}
