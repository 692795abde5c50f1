//! Single-source shortest paths (Dijkstra) and lazily computed per-source
//! rows. Every "RTT" in the simulation is a shortest-path latency over the
//! router graph, as in GT-ITM-based studies; generated graphs answer from
//! [`crate::distance_index`], any other graph from [`SourceRows`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, OnceLock};

use tao_util::time::SimDuration;

use crate::graph::{Csr, Graph, NodeIdx};

/// The Dijkstra kernel: distances from `source` into `dist`, over the
/// edges of `csr` whose target passes `keep`. `dist` must arrive filled
/// with [`SimDuration::MAX`]; `heap` arrives and leaves empty, so one
/// allocation serves many runs.
pub(crate) fn dijkstra_into(
    csr: &Csr,
    source: u32,
    dist: &mut [SimDuration],
    heap: &mut BinaryHeap<Reverse<(SimDuration, u32)>>,
    keep: impl Fn(u32) -> bool,
) {
    // One contiguous edge stream per settled node. Staleness is detected by
    // distance comparison alone, so there is no `done` bitmap to touch per
    // edge.
    dist[source as usize] = SimDuration::ZERO;
    heap.push(Reverse((SimDuration::ZERO, source)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u as usize] {
            continue; // stale entry: u was settled at a smaller distance
        }
        for e in csr.row(u as usize).iter().filter(|e| keep(e.to)) {
            let nd = d + e.weight;
            let slot = &mut dist[e.to as usize];
            if nd < *slot {
                *slot = nd;
                heap.push(Reverse((nd, e.to)));
            }
        }
    }
}

/// Computes shortest-path latencies from `source` to every router.
///
/// Unreachable routers (impossible in generated topologies, which are
/// connected) get [`SimDuration::MAX`].
///
/// # Example
///
/// ```
/// use tao_topology::{shortest_paths, Graph, NodeIdx, NodeKind, EdgeClass};
/// use tao_util::time::SimDuration;
///
/// let mut g = Graph::new();
/// let a = g.add_node(NodeKind::Transit { domain: 0 });
/// let b = g.add_node(NodeKind::Transit { domain: 0 });
/// let c = g.add_node(NodeKind::Stub { domain: 0 });
/// g.add_edge(a, b, SimDuration::from_millis(10), EdgeClass::IntraTransit);
/// g.add_edge(b, c, SimDuration::from_millis(1), EdgeClass::TransitStub);
/// g.add_edge(a, c, SimDuration::from_millis(20), EdgeClass::TransitStub);
///
/// let d = shortest_paths(&g, a);
/// assert_eq!(d[c.index()], SimDuration::from_millis(11)); // via b, not direct
/// ```
pub fn shortest_paths(graph: &Graph, source: NodeIdx) -> Vec<SimDuration> {
    let n = graph.node_count();
    assert!(source.index() < n, "source {source} out of range");
    let mut dist = vec![SimDuration::MAX; n];
    let mut heap = BinaryHeap::with_capacity(n.min(1 + graph.edge_count()));
    dijkstra_into(graph.csr(), source.0, &mut dist, &mut heap, |_| true);
    dist
}

/// Per-source distance rows for graphs the factored index does not cover:
/// each row is one whole-graph Dijkstra, run by the first thread to touch
/// it while any others wait on the row's [`OnceLock`].
#[derive(Debug)]
pub(crate) struct SourceRows(Vec<OnceLock<Arc<Vec<SimDuration>>>>);

impl SourceRows {
    /// Empty rows for a graph of `n` routers.
    pub(crate) fn new(n: usize) -> Self {
        SourceRows((0..n).map(|_| OnceLock::new()).collect())
    }

    /// The distance row of `source`, computed on first use.
    pub(crate) fn row(&self, graph: &Graph, source: NodeIdx) -> &Arc<Vec<SimDuration>> {
        self.0[source.index()].get_or_init(|| Arc::new(shortest_paths(graph, source)))
    }

    /// The latency from `a` to `b` (symmetric). Prefers whichever endpoint's
    /// row exists, so measuring many nodes against a fixed landmark set
    /// costs one Dijkstra per landmark, not one per node.
    pub(crate) fn distance(&self, graph: &Graph, a: NodeIdx, b: NodeIdx) -> SimDuration {
        let cached = |x: NodeIdx, y: NodeIdx| self.0[x.index()].get().map(|row| row[y.index()]);
        cached(a, b)
            .or_else(|| cached(b, a))
            .unwrap_or_else(|| self.row(graph, a)[b.index()])
    }

    /// Number of rows computed so far.
    #[cfg(test)]
    fn computed(&self) -> usize {
        self.0.iter().filter(|r| r.get().is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{EdgeClass, NodeKind};
    use crate::latency::LatencyAssignment;
    use crate::transit_stub::{generate_transit_stub, TransitStubParams};

    fn line_graph(weights: &[u64]) -> Graph {
        let mut g = Graph::new();
        let nodes: Vec<NodeIdx> = (0..=weights.len())
            .map(|_| g.add_node(NodeKind::Stub { domain: 0 }))
            .collect();
        for (i, &w) in weights.iter().enumerate() {
            g.add_edge(
                nodes[i],
                nodes[i + 1],
                SimDuration::from_millis(w),
                EdgeClass::IntraStub,
            );
        }
        g
    }

    #[test]
    fn distances_accumulate_along_a_line() {
        let g = line_graph(&[1, 2, 3]);
        let d = shortest_paths(&g, NodeIdx(0));
        assert_eq!(d[0], SimDuration::ZERO);
        assert_eq!(d[1], SimDuration::from_millis(1));
        assert_eq!(d[2], SimDuration::from_millis(3));
        assert_eq!(d[3], SimDuration::from_millis(6));
    }

    #[test]
    fn takes_the_cheaper_route() {
        let mut g = line_graph(&[1, 1]);
        // Add a direct but expensive shortcut 0 -> 2.
        g.add_edge(
            NodeIdx(0),
            NodeIdx(2),
            SimDuration::from_millis(10),
            EdgeClass::IntraStub,
        );
        let d = shortest_paths(&g, NodeIdx(0));
        assert_eq!(d[2], SimDuration::from_millis(2));
    }

    #[test]
    fn unreachable_nodes_get_max() {
        let mut g = line_graph(&[1]);
        g.add_node(NodeKind::Stub { domain: 9 });
        let d = shortest_paths(&g, NodeIdx(0));
        assert_eq!(d[2], SimDuration::MAX);
    }

    #[test]
    fn symmetric_on_undirected_graphs() {
        let p = TransitStubParams::tsk_small_mini();
        let t = generate_transit_stub(&p, LatencyAssignment::gt_itm(), 3);
        let d0 = shortest_paths(t.graph(), NodeIdx(0));
        let d9 = shortest_paths(t.graph(), NodeIdx(9));
        assert_eq!(d0[9], d9[0]);
    }

    #[test]
    fn cache_hits_share_allocation_and_count() {
        let g = line_graph(&[1, 2]);
        let rows = SourceRows::new(g.node_count());
        assert_eq!(rows.computed(), 0);
        let a = Arc::clone(rows.row(&g, NodeIdx(1)));
        let b = Arc::clone(rows.row(&g, NodeIdx(1)));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(rows.computed(), 1);
        assert_eq!(
            rows.distance(&g, NodeIdx(1), NodeIdx(2)),
            SimDuration::from_millis(2)
        );
    }

    /// Reference Dijkstra over the nested adjacency lists
    /// ([`Graph::neighbors`]) with a `done` bitmap: the kernel the CSR loop
    /// replaced, kept as its oracle.
    fn shortest_paths_scan(graph: &Graph, source: NodeIdx) -> Vec<SimDuration> {
        let n = graph.node_count();
        let mut dist = vec![SimDuration::MAX; n];
        let mut done = vec![false; n];
        let mut heap: BinaryHeap<Reverse<(SimDuration, NodeIdx)>> = BinaryHeap::new();
        dist[source.index()] = SimDuration::ZERO;
        heap.push(Reverse((SimDuration::ZERO, source)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if std::mem::replace(&mut done[u.index()], true) {
                continue;
            }
            for (v, w, _) in graph.neighbors(u) {
                let nd = d + w;
                if !done[v.index()] && nd < dist[v.index()] {
                    dist[v.index()] = nd;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        dist
    }

    #[test]
    fn csr_and_scan_dijkstra_agree() {
        let p = TransitStubParams::tsk_small_mini();
        let t = generate_transit_stub(&p, LatencyAssignment::gt_itm(), 17);
        for s in [0u32, 7, 111, 400] {
            assert_eq!(
                shortest_paths(t.graph(), NodeIdx(s)),
                shortest_paths_scan(t.graph(), NodeIdx(s)),
                "CSR and adjacency-list Dijkstra diverged from source {s}"
            );
        }
    }

    #[test]
    fn concurrent_misses_compute_each_source_once() {
        // Eight threads first-touching the same rows: each row is computed
        // by one of them while the rest wait, and all read the same answer.
        let p = TransitStubParams::tsk_small_mini();
        let t = generate_transit_stub(&p, LatencyAssignment::manual(), 11);
        let rows = SourceRows::new(t.graph().node_count());
        let expected = [3u32, 9, 42].map(|s| shortest_paths(t.graph(), NodeIdx(s)));
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    barrier.wait();
                    for (s, want) in [3u32, 9, 42, 3, 9, 42].iter().zip(expected.iter().cycle()) {
                        assert_eq!(**rows.row(t.graph(), NodeIdx(*s)), *want);
                    }
                });
            }
        });
        assert_eq!(rows.computed(), 3, "8 threads x 3 sources: 3 Dijkstras");
    }

    #[test]
    fn distance_prefers_cached_endpoint() {
        let g = line_graph(&[5]);
        let rows = SourceRows::new(g.node_count());
        rows.row(&g, NodeIdx(1));
        // Querying (0, 1) uses node 1's row; no new row appears.
        assert_eq!(
            rows.distance(&g, NodeIdx(0), NodeIdx(1)),
            SimDuration::from_millis(5)
        );
        assert_eq!(rows.computed(), 1);
    }

    #[test]
    fn triangle_inequality_can_fail_over_the_overlay_but_not_the_graph() {
        // Shortest-path metrics always satisfy the triangle inequality;
        // assert it on a generated topology as a sanity check of Dijkstra.
        let p = TransitStubParams::tsk_small_mini();
        let t = generate_transit_stub(&p, LatencyAssignment::gt_itm(), 5);
        let from_a = shortest_paths(t.graph(), NodeIdx(0));
        let from_b = shortest_paths(t.graph(), NodeIdx(50));
        assert!(from_a[100] <= from_a[50] + from_b[100]);
    }
}
