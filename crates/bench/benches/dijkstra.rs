//! Micro-benchmarks of the topology substrate on the mini presets:
//! transit-stub generation, single-source Dijkstra, the factored distance
//! index's build (one per topology) and a distance read from it.

use tao_topology::{
    generate_transit_stub, shortest_paths, LatencyAssignment, NodeIdx, RttOracle, TransitStubParams,
};
use tao_util::bench::{bench_fn, black_box};

fn bench_generation() {
    bench_fn("generate_tsk_large_mini", || {
        black_box(generate_transit_stub(
            black_box(&TransitStubParams::tsk_large_mini()),
            LatencyAssignment::manual(),
            7,
        ));
    });
}

fn bench_dijkstra() {
    let topo = generate_transit_stub(
        &TransitStubParams::tsk_large_mini(),
        LatencyAssignment::gt_itm(),
        7,
    );
    bench_fn("dijkstra_mini_topology", || {
        black_box(shortest_paths(topo.graph(), black_box(NodeIdx(0))));
    });
}

fn bench_rtt_oracle() {
    let topo = generate_transit_stub(
        &TransitStubParams::tsk_small_mini(),
        LatencyAssignment::manual(),
        9,
    );
    // Clones share their graph's index; an identity re-weighting detaches
    // this one, so every iteration builds afresh.
    bench_fn("distance_index_build", || {
        let mut graph = topo.graph().clone();
        graph.reassign_latencies(|_, latency| latency);
        black_box(RttOracle::new(graph));
    });
    let oracle = RttOracle::new(topo.graph().clone());
    assert!(oracle.is_factored());
    bench_fn("ground_truth_factored", || {
        black_box(oracle.ground_truth(black_box(NodeIdx(777)), black_box(NodeIdx(5))));
    });
}

fn main() {
    bench_generation();
    bench_dijkstra();
    bench_rtt_oracle();
}
