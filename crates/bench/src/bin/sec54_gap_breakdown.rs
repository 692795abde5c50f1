//! Section 5.4: quantitative breakdown of the performance gaps.
//!
//! * Gap 1 (overlay constraint): shortest path → *optimal* neighbor
//!   selection under the zone/prefix constraint.
//! * Gap 2 (proximity-generation inaccuracy): optimal → landmark+RTT.
//! * Headroom: landmark+RTT vs random selection (the paper: cuts ~30-50%).
//! * The unconstrained reference: distance-vector routing over a proximity
//!   mesh ("P2P routing stretch can be reduced to ~1 … but [with] frequent
//!   propagation of routing information"), with its state/message bill.

use tao_bench::dv::{proximity_links, DistanceVectorTables};
use tao_bench::{f3, print_table, Scale};
use tao_core::experiment::{gap_breakdown, topology_for};
use tao_core::{SelectionStrategy, TaoBuilder};
use tao_overlay::OverlayNodeId;
use tao_topology::LatencyAssignment;
use tao_util::rand::rngs::StdRng;
use tao_util::rand::{Rng, SeedableRng};

fn main() {
    let scale = Scale::from_env();
    let base = scale.base_params();
    let mut rows = Vec::new();
    let mut dv_rows = Vec::new();
    for (name, params) in [
        ("tsk-large", scale.tsk_large()),
        ("tsk-small", scale.tsk_small()),
    ] {
        eprintln!("sec54: running {name}…");
        let topo = topology_for(&params, LatencyAssignment::manual(), 101);
        let g = gap_breakdown(&topo, base, 102, tao_bench::workers());
        let constraint_pct = (g.optimal - 1.0) * 100.0;
        let generation_pct = (g.global_state / g.optimal - 1.0) * 100.0;
        let saved_pct = (1.0 - g.global_state / g.random) * 100.0;
        rows.push(vec![
            name.to_string(),
            f3(g.optimal),
            f3(g.global_state),
            f3(g.random),
            format!("{constraint_pct:.0}%"),
            format!("{generation_pct:.0}%"),
            format!("{saved_pct:.0}%"),
        ]);

        // The unconstrained reference, on a smaller overlay (DV state and
        // convergence are the point being measured, and both are O(N)+).
        eprintln!("sec54: distance-vector reference on {name}…");
        let mut b = TaoBuilder::new();
        let dv_nodes = (base.overlay_nodes / 2).max(64);
        b.params(base)
            .overlay_nodes(dv_nodes)
            .selection(SelectionStrategy::GlobalState)
            .seed(103);
        let tao = b.build_on(topo.clone());
        let mesh = proximity_links(tao.ecan().can(), tao.oracle(), 6);
        let dv = DistanceVectorTables::converge_on(&mesh);
        let live: Vec<OverlayNodeId> = tao.ecan().can().live_nodes().collect();
        let mut rng = StdRng::seed_from_u64(104);
        let mut total = 0.0;
        let mut counted = 0usize;
        for _ in 0..1_000 {
            let a = live[rng.gen_range(0..live.len())];
            let c = live[rng.gen_range(0..live.len())];
            if a == c {
                continue;
            }
            let direct = tao
                .oracle()
                .ground_truth(tao.ecan().can().underlay(a), tao.ecan().can().underlay(c));
            if direct.is_zero() {
                continue;
            }
            total += dv.path_cost(a, c).expect("converged") / direct;
            counted += 1;
        }
        dv_rows.push(vec![
            name.to_string(),
            f3(total / counted as f64),
            dv.entries_per_node().to_string(),
            dv.updates().to_string(),
            dv.rounds().to_string(),
        ]);
    }
    print_table(
        "Section 5.4: performance-gap breakdown (manual latencies)",
        &[
            "topology",
            "optimal",
            "lmk+rtt",
            "random",
            "gap 1 (constraint)",
            "gap 2 (generation)",
            "saved vs random",
        ],
        &rows,
    );
    print_table(
        "Section 5.4: unconstrained distance-vector reference (proximity mesh)",
        &[
            "topology",
            "stretch",
            "routing entries/node",
            "advertisements",
            "rounds",
        ],
        &dv_rows,
    );
}
