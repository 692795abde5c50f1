//! Section 6 in action: trading a little latency for a lot of headroom.
//!
//! ```sh
//! cargo run --release --example load_balancing
//! ```
//!
//! Heterogeneous peers (a few strong, many weak) publish their load along
//! with their coordinates. A routing workload saturates the proximity-
//! optimal representatives; re-selecting with the load-aware score spreads
//! the traffic.

use tao_util::rand::rngs::StdRng;
use tao_util::rand::{Rng, SeedableRng};
use tao_core::{LoadAwareSelector, LoadModel, SelectionStrategy, TaoBuilder};
use tao_overlay::{OverlayNodeId, Point, RouteScratch};
use tao_topology::{LatencyAssignment, TransitStubParams};

fn route_workload(
    ecan: &tao_overlay::ecan::EcanOverlay,
    live: &[OverlayNodeId],
    model: &mut LoadModel,
    routes: usize,
    seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scratch = RouteScratch::new();
    for _ in 0..routes {
        let src = live[rng.gen_range(0..live.len())];
        let target = Point::random(2, &mut rng);
        if ecan.route_express_into(&mut scratch, src, &target).is_ok() {
            let hops = scratch.hops();
            if hops.len() >= 3 {
                for &hop in &hops[1..hops.len() - 1] {
                    model.add_load(hop, 1.0);
                }
            }
        }
    }
}

/// The five most-utilised nodes, hottest first.
fn hottest(model: &LoadModel) -> Vec<(OverlayNodeId, f64)> {
    let mut v: Vec<(OverlayNodeId, f64)> =
        model.iter().map(|(n, s)| (n, s.utilization())).collect();
    v.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    v.truncate(5);
    v
}

fn overloaded(model: &LoadModel) -> usize {
    model.iter().filter(|(_, s)| s.utilization() > 10.0).count()
}

fn main() {
    let mut builder = TaoBuilder::new();
    builder
        .topology(TransitStubParams::tsk_large_mini())
        .latency(LatencyAssignment::manual())
        .overlay_nodes(256)
        .selection(SelectionStrategy::GlobalState)
        .seed(17);
    let tao = builder.build();
    let live: Vec<OverlayNodeId> = tao.ecan().can().live_nodes().collect();

    // 10% strong (100x), 30% medium (10x), 60% weak peers.
    let mut model = LoadModel::heterogeneous(live.iter().copied(), 18);

    // Phase 1: proximity-only tables carry the workload.
    let mut ecan = tao.ecan().clone();
    route_workload(&ecan, &live, &mut model, 1_000, 19);
    println!("proximity-only hottest nodes (utilization = load / capacity):");
    for (n, u) in hottest(&model) {
        println!("  {n}: {u:.0}x");
    }
    let over_before = overloaded(&model);

    // Phase 2: re-select with the published load in the score.
    {
        let oracle = tao.oracle().clone();
        let mut selector = LoadAwareSelector::new(&oracle, &model, 5.0);
        ecan.reselect(&mut selector);
    }
    for &n in &live {
        model.reset(n);
    }
    route_workload(&ecan, &live, &mut model, 1_000, 19);
    println!("\nload-aware hottest nodes:");
    for (n, u) in hottest(&model) {
        println!("  {n}: {u:.0}x");
    }
    let over_after = overloaded(&model);
    println!(
        "\nnodes above 10x capacity: {over_before} -> {over_after} \
         (the single hottest spot carries default-neighbor traffic that \
         expressway re-selection cannot move; the tail is what flattens)"
    );
}
