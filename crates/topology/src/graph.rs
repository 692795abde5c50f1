//! The router graph: undirected, weighted with [`SimDuration`] latencies,
//! with transit/stub labels on nodes and link classes on edges.

use std::fmt;
use std::sync::{Arc, OnceLock};

use tao_util::time::SimDuration;

use crate::distance_index::DistanceIndex;

/// Index of a router in a [`Graph`]. Dense, starting at zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeIdx(pub u32);

impl NodeIdx {
    /// The index as a `usize`, for slice addressing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// The role of a router in a transit-stub topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// Backbone router inside a transit domain.
    Transit {
        /// Which transit domain the router belongs to.
        domain: u32,
    },
    /// Edge router inside a stub domain.
    Stub {
        /// Which stub domain the router belongs to (dense over all stubs).
        domain: u32,
    },
}

impl NodeKind {
    /// `true` for transit (backbone) routers.
    pub fn is_transit(self) -> bool {
        matches!(self, NodeKind::Transit { .. })
    }

    /// `true` for stub (edge) routers.
    pub fn is_stub(self) -> bool {
        matches!(self, NodeKind::Stub { .. })
    }
}

/// The class of a link, which determines its latency under the paper's
/// "manual" latency assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeClass {
    /// Link between two transit domains (long-haul backbone).
    CrossTransit,
    /// Link between two routers of the same transit domain.
    IntraTransit,
    /// Access link between a transit router and a stub router.
    TransitStub,
    /// Link between two routers of the same stub domain.
    IntraStub,
}

#[derive(Debug, Clone, Copy)]
struct Edge {
    to: NodeIdx,
    latency: SimDuration,
    class: EdgeClass,
}

/// One CSR half-edge: target node and link latency, interleaved so the
/// Dijkstra inner loop reads a single contiguous stream.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CsrEdge {
    /// Target node index.
    pub(crate) to: u32,
    /// Link latency.
    pub(crate) weight: SimDuration,
}

/// Flat CSR view of the adjacency lists, built lazily on first shortest-path
/// query. One contiguous edge array keeps the Dijkstra inner loop on a
/// single cache-friendly stream instead of chasing one heap-allocated
/// `Vec<Edge>` per visited node.
#[derive(Debug, Clone)]
pub(crate) struct Csr {
    /// `offsets[n]..offsets[n + 1]` is node `n`'s slice of `edges`.
    offsets: Vec<u32>,
    edges: Vec<CsrEdge>,
}

impl Csr {
    fn build(adj: &[Vec<Edge>]) -> Csr {
        let half_edges: usize = adj.iter().map(Vec::len).sum();
        let mut offsets = Vec::with_capacity(adj.len() + 1);
        let mut flat = Vec::with_capacity(half_edges);
        offsets.push(0);
        for edges in adj {
            for e in edges {
                flat.push(CsrEdge {
                    to: e.to.0,
                    weight: e.latency,
                });
            }
            offsets.push(flat.len() as u32);
        }
        Csr {
            offsets,
            edges: flat,
        }
    }

    /// Node `n`'s outgoing edge slice.
    pub(crate) fn row(&self, n: usize) -> &[CsrEdge] {
        let lo = self.offsets[n] as usize;
        let hi = self.offsets[n + 1] as usize;
        &self.edges[lo..hi]
    }
}

/// What is computed from a graph on first use and dropped by every
/// mutation. Clones share it, as they share the graph itself: the figure
/// cells that each clone one topology build its CSR view and distance
/// index once between them.
#[derive(Debug, Default)]
struct Derived {
    csr: OnceLock<Csr>,
    /// `None` inside: the graph does not factor (see [`DistanceIndex`]).
    index: OnceLock<Option<Arc<DistanceIndex>>>,
}

/// An undirected router graph with latency-weighted edges.
///
/// # Example
///
/// ```
/// use tao_topology::{EdgeClass, Graph, NodeKind};
/// use tao_util::time::SimDuration;
///
/// let mut g = Graph::new();
/// let a = g.add_node(NodeKind::Transit { domain: 0 });
/// let b = g.add_node(NodeKind::Stub { domain: 0 });
/// g.add_edge(a, b, SimDuration::from_millis(2), EdgeClass::TransitStub);
/// assert_eq!(g.degree(a), 1);
/// assert!(g.is_connected());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Graph {
    /// Shared by clones; a mutator copies what it writes when it is
    /// shared (`Arc::make_mut`), so the graph written detaches.
    kinds: Arc<Vec<NodeKind>>,
    adj: Arc<Vec<Vec<Edge>>>,
    edge_count: usize,
    /// Lazily-built CSR mirror of `adj` and distance index; replaced by
    /// every mutation.
    derived: Arc<Derived>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Adds a router of the given kind; returns its index.
    pub fn add_node(&mut self, kind: NodeKind) -> NodeIdx {
        let idx = NodeIdx(self.kinds.len() as u32);
        Arc::make_mut(&mut self.kinds).push(kind);
        Arc::make_mut(&mut self.adj).push(Vec::new());
        self.derived = Arc::default();
        idx
    }

    /// Adds an undirected edge. Parallel edges are permitted but the
    /// generator never creates them.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range or if `a == b` (self-loop).
    pub fn add_edge(&mut self, a: NodeIdx, b: NodeIdx, latency: SimDuration, class: EdgeClass) {
        assert!(a.index() < self.adj.len(), "node {a} out of range");
        assert!(b.index() < self.adj.len(), "node {b} out of range");
        assert_ne!(a, b, "self-loops are not allowed");
        let adj = Arc::make_mut(&mut self.adj);
        adj[a.index()].push(Edge {
            to: b,
            latency,
            class,
        });
        adj[b.index()].push(Edge {
            to: a,
            latency,
            class,
        });
        self.edge_count += 1;
        self.derived = Arc::default();
    }

    /// `true` if an edge between `a` and `b` already exists.
    pub fn has_edge(&self, a: NodeIdx, b: NodeIdx) -> bool {
        self.adj
            .get(a.index())
            .is_some_and(|es| es.iter().any(|e| e.to == b))
    }

    /// Number of routers.
    pub fn node_count(&self) -> usize {
        self.kinds.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The kind of router `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn kind(&self, n: NodeIdx) -> NodeKind {
        self.kinds[n.index()]
    }

    /// Degree (number of incident edges) of router `n`.
    pub fn degree(&self, n: NodeIdx) -> usize {
        self.adj[n.index()].len()
    }

    /// Iterates over `(neighbor, latency, class)` triples of router `n`.
    pub fn neighbors(
        &self,
        n: NodeIdx,
    ) -> impl Iterator<Item = (NodeIdx, SimDuration, EdgeClass)> + '_ {
        self.adj[n.index()]
            .iter()
            .map(|e| (e.to, e.latency, e.class))
    }

    /// Iterates over all node indices.
    pub fn nodes(&self) -> impl Iterator<Item = NodeIdx> {
        (0..self.kinds.len() as u32).map(NodeIdx)
    }

    /// Indices of all transit routers.
    pub fn transit_nodes(&self) -> Vec<NodeIdx> {
        self.nodes()
            .filter(|&n| self.kind(n).is_transit())
            .collect()
    }

    /// Indices of all stub routers.
    pub fn stub_nodes(&self) -> Vec<NodeIdx> {
        self.nodes().filter(|&n| self.kind(n).is_stub()).collect()
    }

    /// The CSR adjacency view, built on first use after any mutation.
    pub(crate) fn csr(&self) -> &Csr {
        self.derived.csr.get_or_init(|| Csr::build(&self.adj))
    }

    /// The factored distance index, built on first use after any mutation;
    /// `None` when the graph does not factor.
    pub(crate) fn distance_index(&self) -> Option<&Arc<DistanceIndex>> {
        self.derived
            .index
            .get_or_init(|| DistanceIndex::build(self).map(Arc::new))
            .as_ref()
    }

    /// `true` when `self` and `other` read one adjacency: neither has been
    /// written since one was cloned from the other.
    #[cfg(test)]
    pub(crate) fn shares_adjacency(&self, other: &Graph) -> bool {
        Arc::ptr_eq(&self.kinds, &other.kinds) && Arc::ptr_eq(&self.adj, &other.adj)
    }

    /// `true` if every router can reach every other (BFS from node 0).
    /// An empty graph counts as connected.
    pub fn is_connected(&self) -> bool {
        if self.kinds.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.kinds.len()];
        let mut stack = vec![NodeIdx(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(n) = stack.pop() {
            for e in &self.adj[n.index()] {
                if !seen[e.to.index()] {
                    seen[e.to.index()] = true;
                    count += 1;
                    stack.push(e.to);
                }
            }
        }
        count == self.kinds.len()
    }

    /// Overwrites every edge latency via `f(class, current)`.
    ///
    /// Used by [`LatencyAssignment`](crate::LatencyAssignment) to re-weight
    /// an already-built graph.
    pub fn reassign_latencies(&mut self, mut f: impl FnMut(EdgeClass, SimDuration) -> SimDuration) {
        self.derived = Arc::default();
        let adj = Arc::make_mut(&mut self.adj);
        // Visit each undirected edge once (from the lower endpoint), then
        // mirror the new weight onto the reverse half-edge.
        for a in 0..adj.len() {
            // Split borrows: collect updates for edges whose reverse lives in
            // a later (or same) adjacency list.
            let updates: Vec<(usize, NodeIdx, SimDuration)> = adj[a]
                .iter()
                .enumerate()
                .filter(|(_, e)| e.to.index() >= a)
                .map(|(i, e)| (i, e.to, f(e.class, e.latency)))
                .collect();
            for (i, to, lat) in updates {
                adj[a][i].latency = lat;
                for rev in &mut adj[to.index()] {
                    if rev.to.index() == a {
                        rev.latency = lat;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::Transit { domain: 0 });
        let b = g.add_node(NodeKind::Transit { domain: 0 });
        let c = g.add_node(NodeKind::Stub { domain: 0 });
        g.add_edge(a, b, SimDuration::from_millis(1), EdgeClass::IntraTransit);
        g.add_edge(b, c, SimDuration::from_millis(2), EdgeClass::TransitStub);
        g.add_edge(a, c, SimDuration::from_millis(3), EdgeClass::TransitStub);
        g
    }

    #[test]
    fn counts_nodes_and_edges() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(NodeIdx(1)), 2);
    }

    #[test]
    fn neighbors_are_symmetric() {
        let g = triangle();
        assert!(g.has_edge(NodeIdx(0), NodeIdx(2)));
        assert!(g.has_edge(NodeIdx(2), NodeIdx(0)));
        assert!(!g.has_edge(NodeIdx(0), NodeIdx(0)));
    }

    #[test]
    fn kind_partitions() {
        let g = triangle();
        assert_eq!(g.transit_nodes(), vec![NodeIdx(0), NodeIdx(1)]);
        assert_eq!(g.stub_nodes(), vec![NodeIdx(2)]);
        assert!(g.kind(NodeIdx(0)).is_transit());
        assert!(g.kind(NodeIdx(2)).is_stub());
    }

    #[test]
    fn connectivity_detects_islands() {
        let mut g = triangle();
        assert!(g.is_connected());
        g.add_node(NodeKind::Stub { domain: 1 });
        assert!(!g.is_connected());
        assert!(Graph::new().is_connected(), "empty graph is connected");
    }

    #[test]
    fn reassign_latencies_updates_both_directions() {
        let mut g = triangle();
        g.reassign_latencies(|class, _| match class {
            EdgeClass::IntraTransit => SimDuration::from_millis(10),
            _ => SimDuration::from_millis(20),
        });
        let (_, lat, _) = g
            .neighbors(NodeIdx(0))
            .find(|(to, _, _)| *to == NodeIdx(1))
            .unwrap();
        assert_eq!(lat, SimDuration::from_millis(10));
        let (_, lat_rev, _) = g
            .neighbors(NodeIdx(1))
            .find(|(to, _, _)| *to == NodeIdx(0))
            .unwrap();
        assert_eq!(lat_rev, SimDuration::from_millis(10));
    }

    #[test]
    fn csr_mirrors_adjacency_and_tracks_mutation() {
        let mut g = triangle();
        for n in 0..g.node_count() {
            let listed: Vec<(NodeIdx, SimDuration)> = g
                .csr()
                .row(n)
                .iter()
                .map(|e| (NodeIdx(e.to), e.weight))
                .collect();
            let direct: Vec<(NodeIdx, SimDuration)> = g
                .neighbors(NodeIdx(n as u32))
                .map(|(v, w, _)| (v, w))
                .collect();
            assert_eq!(listed, direct);
        }
        // Mutation invalidates the cached view.
        g.reassign_latencies(|_, _| SimDuration::from_millis(99));
        assert!(g
            .csr()
            .row(0)
            .iter()
            .all(|e| e.weight == SimDuration::from_millis(99)));
        let d = g.add_node(NodeKind::Stub { domain: 5 });
        g.add_edge(
            NodeIdx(0),
            d,
            SimDuration::from_millis(1),
            EdgeClass::IntraStub,
        );
        assert_eq!(
            g.csr()
                .row(d.index())
                .iter()
                .map(|e| e.to)
                .collect::<Vec<_>>(),
            vec![0]
        );
    }

    /// Everything a reader of `g` can see: edges, CSR rows and every
    /// indexed distance.
    type Snapshot = (
        Vec<Vec<(NodeIdx, SimDuration, EdgeClass)>>,
        Vec<Vec<(u32, SimDuration)>>,
        Option<Vec<SimDuration>>,
    );

    fn snapshot(g: &Graph) -> Snapshot {
        let edges = g.nodes().map(|n| g.neighbors(n).collect()).collect();
        let csr = (0..g.node_count())
            .map(|n| g.csr().row(n).iter().map(|e| (e.to, e.weight)).collect())
            .collect();
        let distances = g.distance_index().map(|index| {
            g.nodes()
                .flat_map(|a| g.nodes().map(move |b| index.distance(a, b)))
                .collect()
        });
        (edges, csr, distances)
    }

    #[test]
    fn mutating_a_clone_leaves_the_original_untouched() {
        let params = crate::TransitStubParams::builder()
            .transit_domains(2)
            .transit_nodes_per_domain(2)
            .stub_domains_per_transit_node(2)
            .nodes_per_stub_domain(4)
            .build()
            .unwrap();
        let g = crate::generate_transit_stub(&params, crate::LatencyAssignment::gt_itm(), 3)
            .graph()
            .clone();
        let before = snapshot(&g);
        assert!(before.2.is_some());
        let index = Arc::clone(g.distance_index().unwrap());
        let (stub, transit) = (g.stub_nodes()[0], g.transit_nodes()[1]);
        let mutators: [fn(&mut Graph, NodeIdx, NodeIdx); 3] = [
            |c, _, _| {
                c.add_node(NodeKind::Stub { domain: 0 });
            },
            |c, a, b| c.add_edge(a, b, SimDuration::from_micros(1), EdgeClass::TransitStub),
            |c, _, _| c.reassign_latencies(|_, latency| latency * 2),
        ];
        for (m, mutate) in mutators.iter().enumerate() {
            let mut clone = g.clone();
            assert!(clone.shares_adjacency(&g));
            mutate(&mut clone, stub, transit);
            assert!(
                !clone.shares_adjacency(&g),
                "mutator {m} wrote the shared graph"
            );
            assert_ne!(snapshot(&clone).0, before.0, "mutator {m} changed nothing");
            assert_eq!(snapshot(&g), before, "mutator {m} reached the original");
            assert!(Arc::ptr_eq(g.distance_index().unwrap(), &index));
        }
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::Transit { domain: 0 });
        g.add_edge(a, a, SimDuration::ZERO, EdgeClass::IntraTransit);
    }
}
