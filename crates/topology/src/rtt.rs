//! The RTT oracle: simulated round-trip-time measurement with probe
//! accounting.
//!
//! The paper's headline efficiency claim is about *how few RTT measurements*
//! the hybrid landmark+RTT scheme needs compared to expanding-ring search.
//! To report that honestly, every algorithm in this workspace must charge its
//! probes through one meter. [`RttOracle::measure`] counts; the companion
//! [`RttOracle::ground_truth`] does not and is reserved for computing the
//! ideal answers that stretch is measured against.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tao_util::time::SimDuration;

use crate::distance_index::DistanceIndex;
use crate::graph::{Graph, NodeIdx};
use crate::shortest_path::SourceRows;

/// Where distances come from: the graph's factored index when its stub
/// domains are single-homed, per-source Dijkstra rows for any other graph.
#[derive(Debug, Clone)]
enum Distances {
    Factored(Arc<DistanceIndex>),
    Rows(Arc<SourceRows>),
}

/// Measures RTTs over a router graph, counting every probe.
///
/// Clones share the underlying counter and distance tables, so an oracle
/// can be handed to several cooperating components while the experiment
/// driver keeps a handle for reading the meter.
///
/// # Example
///
/// ```
/// use tao_topology::{generate_transit_stub, LatencyAssignment, NodeIdx, RttOracle,
///                    TransitStubParams};
///
/// let topo = generate_transit_stub(
///     &TransitStubParams::tsk_small_mini(), LatencyAssignment::manual(), 2);
/// let oracle = RttOracle::new(topo.graph().clone());
/// let rtt = oracle.measure(NodeIdx(0), NodeIdx(42));
/// assert!(rtt > tao_util::time::SimDuration::ZERO);
/// assert_eq!(oracle.measurements(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct RttOracle {
    graph: Arc<Graph>,
    distances: Distances,
    probes: Arc<AtomicU64>,
}

impl RttOracle {
    /// Creates an oracle over `graph` with a fresh meter, building the
    /// graph's distance index unless a clone of it already has.
    pub fn new(graph: Graph) -> Self {
        let distances = match graph.distance_index() {
            Some(index) => Distances::Factored(Arc::clone(index)),
            None => Distances::Rows(Arc::new(SourceRows::new(graph.node_count()))),
        };
        RttOracle {
            graph: Arc::new(graph),
            distances,
            probes: Arc::new(AtomicU64::new(0)),
        }
    }

    /// `true` when distances are read from the factored index (every stub
    /// domain single-homed on a transit router), not from Dijkstra rows.
    pub fn is_factored(&self) -> bool {
        matches!(self.distances, Distances::Factored(_))
    }

    /// The underlying router graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Measures the RTT between `a` and `b`, incrementing the probe meter.
    ///
    /// The RTT is modelled as the symmetric shortest-path latency (one-way);
    /// algorithms only ever compare RTTs, so the factor of two is immaterial.
    pub fn measure(&self, a: NodeIdx, b: NodeIdx) -> SimDuration {
        self.probes.fetch_add(1, Ordering::Relaxed);
        self.ground_truth(a, b)
    }

    /// The latency between `a` and `b` *without* charging the meter.
    ///
    /// For computing ground-truth optima (the denominators of stretch), never
    /// for algorithm logic.
    pub fn ground_truth(&self, a: NodeIdx, b: NodeIdx) -> SimDuration {
        match &self.distances {
            Distances::Factored(index) => index.distance(a, b),
            Distances::Rows(rows) => rows.distance(&self.graph, a, b),
        }
    }

    /// Ground-truth distance vector from `source` (uncounted). For callers
    /// that consume the whole row; a few entries are cheaper pairwise.
    pub fn ground_truth_all(&self, source: NodeIdx) -> Arc<Vec<SimDuration>> {
        match &self.distances {
            Distances::Factored(index) => {
                let row = self.graph.nodes().map(|b| index.distance(source, b));
                Arc::new(row.collect())
            }
            Distances::Rows(rows) => Arc::clone(rows.row(&self.graph, source)),
        }
    }

    /// Pre-computes the rows of `sources` (a landmark set) on a graph
    /// without the index, so the reads that follow find them built; a
    /// no-op when [`RttOracle::is_factored`].
    pub fn warm(&self, sources: &[NodeIdx]) {
        if let Distances::Rows(rows) = &self.distances {
            for &s in sources {
                rows.row(&self.graph, s);
            }
        }
    }

    /// Total probes charged so far.
    pub fn measurements(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }

    /// Resets the probe meter to zero.
    pub fn reset_measurements(&self) {
        self.probes.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{EdgeClass, NodeKind};

    fn small_graph() -> Graph {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::Stub { domain: 0 });
        let b = g.add_node(NodeKind::Stub { domain: 0 });
        let c = g.add_node(NodeKind::Stub { domain: 0 });
        g.add_edge(a, b, SimDuration::from_millis(5), EdgeClass::IntraStub);
        g.add_edge(b, c, SimDuration::from_millis(7), EdgeClass::IntraStub);
        g
    }

    #[test]
    fn measure_counts_and_ground_truth_does_not() {
        let oracle = RttOracle::new(small_graph());
        assert_eq!(oracle.measurements(), 0);
        let m = oracle.measure(NodeIdx(0), NodeIdx(2));
        assert_eq!(m, SimDuration::from_millis(12));
        assert_eq!(oracle.measurements(), 1);
        let g = oracle.ground_truth(NodeIdx(0), NodeIdx(2));
        assert_eq!(g, m);
        assert_eq!(oracle.measurements(), 1, "ground truth must be free");
    }

    #[test]
    fn clones_share_the_meter() {
        let oracle = RttOracle::new(small_graph());
        let clone = oracle.clone();
        clone.measure(NodeIdx(0), NodeIdx(1));
        assert_eq!(oracle.measurements(), 1);
        oracle.reset_measurements();
        assert_eq!(clone.measurements(), 0);
    }

    #[test]
    fn self_distance_is_zero() {
        let oracle = RttOracle::new(small_graph());
        assert_eq!(oracle.measure(NodeIdx(1), NodeIdx(1)), SimDuration::ZERO);
    }

    #[test]
    fn ground_truth_all_matches_pairwise() {
        let oracle = RttOracle::new(small_graph());
        let v = oracle.ground_truth_all(NodeIdx(0));
        assert_eq!(v[1], oracle.ground_truth(NodeIdx(0), NodeIdx(1)));
        assert_eq!(v[2], SimDuration::from_millis(12));
    }
}
