//! Generality check (paper §7): the identical global-soft-state pipeline on
//! **Chord** (landmark numbers as successor-hosted storage keys, finger
//! selection by lookup + RTT probing) and on **Pastry** (one map per nodeId
//! prefix, routing-table slots filled from the slot prefix's map).
//!
//! Expected shape: the same ordering as figures 14/15 on both overlays —
//! global state well below random, near the ground-truth optimum.

use tao_bench::{f3, print_table, Scale};
use tao_core::experiment::{routes_for, topology_for};
use tao_core::{ChordAware, PastryAware, SelectionStrategy};
use tao_topology::LatencyAssignment;

fn main() {
    let scale = Scale::from_env();
    let base = scale.base_params();
    let mut rows = Vec::new();
    for (name, topo_params) in [
        ("tsk-large", scale.tsk_large()),
        ("tsk-small", scale.tsk_small()),
    ] {
        eprintln!("generality: {name}…");
        let topo = topology_for(&topo_params, LatencyAssignment::manual(), 201);
        let chord = |selection: SelectionStrategy| {
            let params = tao_core::ExperimentParams { selection, ..base };
            ChordAware::build(&topo, params, 202)
                .measure_routing_stretch(routes_for(base.overlay_nodes), 203)
                .mean()
        };
        let pastry = |selection: SelectionStrategy| {
            let params = tao_core::ExperimentParams { selection, ..base };
            PastryAware::build(&topo, params, 202)
                .measure_routing_stretch(routes_for(base.overlay_nodes), 203)
                .mean()
        };
        for (overlay, run) in [
            ("Chord", &chord as &dyn Fn(SelectionStrategy) -> f64),
            ("Pastry", &pastry),
        ] {
            let optimal = run(SelectionStrategy::Optimal);
            let aware = run(SelectionStrategy::GlobalState);
            let random = run(SelectionStrategy::Random);
            rows.push(vec![
                format!("{overlay} / {name}"),
                f3(optimal),
                f3(aware),
                f3(random),
                format!("{:.0}%", (1.0 - aware / random) * 100.0),
            ]);
        }
    }
    print_table(
        "Generality: the soft-state pipeline on Chord and Pastry (manual latencies)",
        &[
            "overlay/topology",
            "optimal",
            "lmk+rtt",
            "random",
            "saved vs random",
        ],
        &rows,
    );
}
