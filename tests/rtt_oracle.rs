//! The factored RTT oracle against its reference: on every generated
//! transit-stub graph `RttOracle` must read the distance index and return
//! exactly what `shortest_paths` returns, and on every graph the index does
//! not cover it must fall back to Dijkstra rows — same answers, `MAX`
//! included.

use tao_topology::{
    generate_transit_stub, shortest_paths, EdgeClass, Graph, LatencyAssignment, NodeIdx, NodeKind,
    RttOracle, TransitStubParams,
};
use tao_util::check::for_all;
use tao_util::rand::rngs::StdRng;
use tao_util::rand::Rng;
use tao_util::time::SimDuration;
use tao_util::{check, check_eq};

const LATENCIES: [fn() -> LatencyAssignment; 2] =
    [LatencyAssignment::manual, LatencyAssignment::gt_itm];

/// A small random transit-stub graph (≤ 153 routers), the 1×1×1×1
/// degenerate included.
fn random_graph(rng: &mut StdRng) -> Graph {
    let params = TransitStubParams::builder()
        .transit_domains(rng.gen_range(1..=3))
        .transit_nodes_per_domain(rng.gen_range(1..=3))
        .stub_domains_per_transit_node(rng.gen_range(1..=2))
        .nodes_per_stub_domain(rng.gen_range(1..=8))
        .intra_domain_extra_edge_prob(rng.gen_range(0.0..0.4))
        .extra_cross_transit_edges(rng.gen_range(0..3))
        .build()
        .expect("valid parameters");
    let latency = LATENCIES[rng.gen_range(0..2)]();
    generate_transit_stub(&params, latency, rng.gen())
        .graph()
        .clone()
}

/// `graph` with every router's kind replaced by `kind(router)`.
fn relabelled(graph: &Graph, kind: impl Fn(NodeIdx) -> NodeKind) -> Graph {
    let mut g = Graph::new();
    for v in graph.nodes() {
        g.add_node(kind(v));
    }
    for v in graph.nodes() {
        for (to, latency, class) in graph.neighbors(v) {
            if v < to {
                g.add_edge(v, to, latency, class);
            }
        }
    }
    g
}

/// Every pair, both entry points, against one Dijkstra per source.
fn check_agrees_with_dijkstra(graph: &Graph, factored: bool) {
    let oracle = RttOracle::new(graph.clone());
    check_eq!(oracle.is_factored(), factored);
    for a in graph.nodes() {
        let reference = shortest_paths(graph, a);
        for b in graph.nodes() {
            check_eq!(
                oracle.ground_truth(a, b),
                reference[b.index()],
                "pair ({a}, {b})"
            );
        }
        check_eq!(*oracle.ground_truth_all(a), reference, "row of {a}");
    }
    check_eq!(oracle.measurements(), 0);
}

#[test]
fn factored_distances_equal_dijkstra_on_generated_graphs() {
    for_all("factored_distances_equal_dijkstra", 200, |rng| {
        let mut g = random_graph(rng);
        check_agrees_with_dijkstra(&g, true);
        // Unreachable routers inside a single-homed domain and inside the
        // core keep the index, and read `MAX` as Dijkstra leaves it.
        g.add_node(g.kind(NodeIdx(g.node_count() as u32 - 1)));
        g.add_node(NodeKind::Transit { domain: 0 });
        check_agrees_with_dijkstra(&g, true);
    });
}

#[test]
fn graphs_the_index_does_not_cover_fall_back_to_dijkstra_rows() {
    for_all("uncovered_graphs_fall_back", 200, |rng| {
        let g = random_graph(rng);
        let stubs = g.stub_nodes();
        let transits = g.transit_nodes();

        let mut multi_homed = g.clone();
        multi_homed.add_edge(
            stubs[rng.gen_range(0..stubs.len())],
            transits[rng.gen_range(0..transits.len())],
            SimDuration::from_micros(rng.gen_range(0..50_000)),
            EdgeClass::TransitStub,
        );
        check_agrees_with_dijkstra(&multi_homed, false);

        check_agrees_with_dijkstra(&relabelled(&g, |_| NodeKind::Stub { domain: 0 }), false);

        let mut island = g.clone();
        let lost = island.add_node(NodeKind::Stub { domain: u32::MAX });
        check_agrees_with_dijkstra(&island, false);
        let oracle = RttOracle::new(island);
        check_eq!(oracle.ground_truth(lost, NodeIdx(0)), SimDuration::MAX);
        check_eq!(oracle.ground_truth(lost, lost), SimDuration::ZERO);
    });
}

#[test]
fn mutating_a_clone_detaches_it_from_the_shared_index() {
    let topo = generate_transit_stub(
        &TransitStubParams::tsk_large_mini(),
        LatencyAssignment::gt_itm(),
        6,
    );
    let original = RttOracle::new(topo.graph().clone());
    let (a, b) = (NodeIdx(40), NodeIdx(900));
    let before = original.ground_truth(a, b);

    let mut doubled = topo.graph().clone();
    doubled.reassign_latencies(|_, latency| latency * 2);
    assert_eq!(RttOracle::new(doubled).ground_truth(a, b), before * 2);

    let mut shortcut = topo.graph().clone();
    shortcut.add_edge(a, b, SimDuration::from_micros(1), EdgeClass::IntraStub);
    let oracle = RttOracle::new(shortcut);
    assert!(
        !oracle.is_factored(),
        "a stub-to-stub edge across domains breaks the factoring"
    );
    assert_eq!(oracle.ground_truth(a, b), SimDuration::from_micros(1));

    let mut grown = topo.graph().clone();
    let added = grown.add_node(NodeKind::Transit { domain: 0 });
    assert_eq!(
        RttOracle::new(grown).ground_truth(added, a),
        SimDuration::MAX
    );

    assert_eq!(original.ground_truth(a, b), before);
    assert_eq!(
        RttOracle::new(topo.graph().clone()).ground_truth(a, b),
        before
    );
}

#[test]
fn every_preset_selects_the_index() {
    let presets = [
        TransitStubParams::tsk_large(),
        TransitStubParams::tsk_small(),
        TransitStubParams::tsk_large_mini(),
        TransitStubParams::tsk_small_mini(),
    ];
    for (p, params) in presets.iter().enumerate() {
        for latency in LATENCIES {
            let topo = generate_transit_stub(params, latency(), 1 + p as u64);
            let mini = params.total_nodes() < 2_000;
            if mini {
                check_agrees_with_dijkstra(topo.graph(), true);
                continue;
            }
            // Paper scale: a few whole rows instead of all 10⁸ pairs.
            let oracle = RttOracle::new(topo.graph().clone());
            assert!(oracle.is_factored(), "preset {p} must factor");
            for source in [0u32, 31, 32, 5_000, 9_991].map(NodeIdx) {
                assert_eq!(
                    *oracle.ground_truth_all(source),
                    shortest_paths(topo.graph(), source)
                );
            }
        }
    }
}

#[test]
fn the_index_is_a_metric() {
    for_all("index_is_a_metric", 200, |rng| {
        let g = random_graph(rng);
        let oracle = RttOracle::new(g.clone());
        check!(oracle.is_factored());
        let n = g.node_count() as u32;
        for a in g.nodes() {
            check_eq!(oracle.ground_truth(a, a), SimDuration::ZERO);
            for b in g.nodes() {
                check_eq!(oracle.ground_truth(a, b), oracle.ground_truth(b, a));
            }
        }
        for _ in 0..500 {
            let [a, b, c] = [0; 3].map(|_| NodeIdx(rng.gen_range(0..n)));
            let (ab, bc, ac) = (
                oracle.ground_truth(a, b),
                oracle.ground_truth(b, c),
                oracle.ground_truth(a, c),
            );
            check!(
                ac <= ab + bc,
                "triangle ({a}, {b}, {c}): {ac} > {ab} + {bc}"
            );
        }
    });
}

#[test]
fn measure_charges_the_meter_on_both_paths() {
    let topo = generate_transit_stub(
        &TransitStubParams::tsk_large_mini(),
        LatencyAssignment::gt_itm(),
        4,
    );
    for graph in [
        topo.graph().clone(),
        relabelled(topo.graph(), |_| NodeKind::Stub { domain: 0 }),
    ] {
        let oracle = RttOracle::new(graph);
        oracle.warm(&[NodeIdx(3)]);
        let rtt = oracle.measure(NodeIdx(3), NodeIdx(700));
        assert_eq!(rtt, oracle.ground_truth(NodeIdx(700), NodeIdx(3)));
        assert_eq!(oracle.measurements(), 1);
    }
}
