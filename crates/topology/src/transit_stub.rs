//! The transit-stub topology generator (GT-ITM replacement).
//!
//! Structural model, matching GT-ITM's `ts` mode:
//!
//! * `transit_domains` domains form the backbone. A random spanning tree over
//!   the domains guarantees backbone connectivity; `extra_cross_transit_edges`
//!   additional random domain-to-domain links add redundancy.
//! * Each transit domain contains `transit_nodes_per_domain` routers,
//!   internally connected by a random tree plus random extra edges.
//! * Every transit router anchors `stub_domains_per_transit_node` stub
//!   domains of `nodes_per_stub_domain` routers each; a stub domain is a
//!   random tree plus extra edges, attached to its transit router through a
//!   single gateway link.
//!
//! The paper's two ~10,000-router topologies are available as presets:
//! [`TransitStubParams::tsk_large`] and [`TransitStubParams::tsk_small`].

use std::error::Error;
use std::fmt;

use tao_util::rand::rngs::StdRng;
use tao_util::rand::seq::SliceRandom;
use tao_util::rand::{Rng, SeedableRng};

use crate::graph::{EdgeClass, Graph, NodeIdx, NodeKind};
use crate::latency::LatencyAssignment;

/// Parameters of the transit-stub generator. Construct via
/// [`TransitStubParams::builder`] or a preset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransitStubParams {
    transit_domains: usize,
    transit_nodes_per_domain: usize,
    stub_domains_per_transit_node: usize,
    nodes_per_stub_domain: usize,
    intra_domain_extra_edge_prob: f64,
    extra_cross_transit_edges: usize,
}

/// Error returned for invalid [`TransitStubParams`].
#[derive(Debug, Clone, PartialEq)]
pub enum ParamsError {
    /// A structural count was zero.
    ZeroCount(&'static str),
    /// The extra-edge probability was not in `[0, 1]`.
    BadProbability(f64),
}

impl fmt::Display for ParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamsError::ZeroCount(which) => write!(f, "{which} must be at least 1"),
            ParamsError::BadProbability(p) => {
                write!(f, "extra-edge probability {p} is not in [0, 1]")
            }
        }
    }
}

impl Error for ParamsError {}

/// Builder for [`TransitStubParams`].
///
/// # Example
///
/// ```
/// use tao_topology::TransitStubParams;
///
/// let params = TransitStubParams::builder()
///     .transit_domains(2)
///     .transit_nodes_per_domain(3)
///     .stub_domains_per_transit_node(1)
///     .nodes_per_stub_domain(5)
///     .build()
///     .unwrap();
/// assert_eq!(params.total_nodes(), 2 * 3 + 2 * 3 * 5);
/// ```
#[derive(Debug, Clone)]
pub struct TransitStubParamsBuilder {
    params: TransitStubParams,
}

impl TransitStubParams {
    /// Starts a builder with small defaults (2×2 backbone, 2 stubs of 4).
    pub fn builder() -> TransitStubParamsBuilder {
        TransitStubParamsBuilder {
            params: TransitStubParams {
                transit_domains: 2,
                transit_nodes_per_domain: 2,
                stub_domains_per_transit_node: 2,
                nodes_per_stub_domain: 4,
                intra_domain_extra_edge_prob: 0.05,
                extra_cross_transit_edges: 1,
            },
        }
    }

    /// The paper's `tsk-large` preset: 8 transit domains × 4 transit nodes,
    /// 4 stub domains per transit node, 78 nodes per stub ⇒ 10,016 routers.
    /// Large backbone, sparse edge networks.
    pub fn tsk_large() -> Self {
        TransitStubParams {
            transit_domains: 8,
            transit_nodes_per_domain: 4,
            stub_domains_per_transit_node: 4,
            nodes_per_stub_domain: 78,
            intra_domain_extra_edge_prob: 0.02,
            extra_cross_transit_edges: 8,
        }
    }

    /// The paper's `tsk-small` preset: 2 transit domains × 4 transit nodes,
    /// 4 stub domains per transit node, 312 nodes per stub ⇒ 9,992 routers.
    /// Small backbone, dense edge networks.
    pub fn tsk_small() -> Self {
        TransitStubParams {
            transit_domains: 2,
            transit_nodes_per_domain: 4,
            stub_domains_per_transit_node: 4,
            nodes_per_stub_domain: 312,
            intra_domain_extra_edge_prob: 0.005,
            extra_cross_transit_edges: 2,
        }
    }

    /// Downscaled variants of the presets for fast tests and CI: same shape
    /// (backbone ≫ edge), ~1/10 the routers.
    pub fn tsk_large_mini() -> Self {
        TransitStubParams {
            transit_domains: 8,
            transit_nodes_per_domain: 2,
            stub_domains_per_transit_node: 2,
            nodes_per_stub_domain: 30,
            intra_domain_extra_edge_prob: 0.03,
            extra_cross_transit_edges: 4,
        }
    }

    /// Mini version of [`TransitStubParams::tsk_small`].
    pub fn tsk_small_mini() -> Self {
        TransitStubParams {
            transit_domains: 2,
            transit_nodes_per_domain: 2,
            stub_domains_per_transit_node: 2,
            nodes_per_stub_domain: 120,
            intra_domain_extra_edge_prob: 0.01,
            extra_cross_transit_edges: 1,
        }
    }

    /// Number of transit domains.
    pub fn transit_domains(&self) -> usize {
        self.transit_domains
    }

    /// Transit routers per transit domain.
    pub fn transit_nodes_per_domain(&self) -> usize {
        self.transit_nodes_per_domain
    }

    /// Stub domains attached to each transit router.
    pub fn stub_domains_per_transit_node(&self) -> usize {
        self.stub_domains_per_transit_node
    }

    /// Routers per stub domain.
    pub fn nodes_per_stub_domain(&self) -> usize {
        self.nodes_per_stub_domain
    }

    /// Total routers the generated topology will contain.
    pub fn total_nodes(&self) -> usize {
        let transit = self.transit_domains * self.transit_nodes_per_domain;
        transit + transit * self.stub_domains_per_transit_node * self.nodes_per_stub_domain
    }
}

impl TransitStubParamsBuilder {
    /// Sets the number of transit domains.
    pub fn transit_domains(&mut self, n: usize) -> &mut Self {
        self.params.transit_domains = n;
        self
    }

    /// Sets the number of transit routers per domain.
    pub fn transit_nodes_per_domain(&mut self, n: usize) -> &mut Self {
        self.params.transit_nodes_per_domain = n;
        self
    }

    /// Sets the number of stub domains per transit router.
    pub fn stub_domains_per_transit_node(&mut self, n: usize) -> &mut Self {
        self.params.stub_domains_per_transit_node = n;
        self
    }

    /// Sets the number of routers per stub domain.
    pub fn nodes_per_stub_domain(&mut self, n: usize) -> &mut Self {
        self.params.nodes_per_stub_domain = n;
        self
    }

    /// Sets the probability of each extra intra-domain edge.
    pub fn intra_domain_extra_edge_prob(&mut self, p: f64) -> &mut Self {
        self.params.intra_domain_extra_edge_prob = p;
        self
    }

    /// Sets how many redundant cross-domain backbone links to add beyond the
    /// spanning tree.
    pub fn extra_cross_transit_edges(&mut self, n: usize) -> &mut Self {
        self.params.extra_cross_transit_edges = n;
        self
    }

    /// Validates and produces the parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError`] if any structural count is zero or the
    /// extra-edge probability is outside `[0, 1]`.
    pub fn build(&self) -> Result<TransitStubParams, ParamsError> {
        let p = self.params;
        if p.transit_domains == 0 {
            return Err(ParamsError::ZeroCount("transit_domains"));
        }
        if p.transit_nodes_per_domain == 0 {
            return Err(ParamsError::ZeroCount("transit_nodes_per_domain"));
        }
        if p.stub_domains_per_transit_node == 0 {
            return Err(ParamsError::ZeroCount("stub_domains_per_transit_node"));
        }
        if p.nodes_per_stub_domain == 0 {
            return Err(ParamsError::ZeroCount("nodes_per_stub_domain"));
        }
        if !(0.0..=1.0).contains(&p.intra_domain_extra_edge_prob) {
            return Err(ParamsError::BadProbability(p.intra_domain_extra_edge_prob));
        }
        Ok(p)
    }
}

/// A generated transit-stub topology: the router [`Graph`] plus the
/// structural metadata experiments need (per-domain membership, gateways).
#[derive(Debug, Clone)]
pub struct Topology {
    graph: Graph,
    params: TransitStubParams,
    assignment: LatencyAssignment,
    seed: u64,
    stub_gateways: Vec<NodeIdx>,
    stub_members: Vec<Vec<NodeIdx>>,
}

impl Topology {
    /// The router graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The parameters the topology was generated from.
    pub fn params(&self) -> &TransitStubParams {
        &self.params
    }

    /// The latency assignment used.
    pub fn assignment(&self) -> LatencyAssignment {
        self.assignment
    }

    /// The RNG seed the topology was generated from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The transit router that stub domain `stub` hangs off.
    ///
    /// # Panics
    ///
    /// Panics if `stub` is out of range.
    pub fn stub_gateway(&self, stub: u32) -> NodeIdx {
        self.stub_gateways[stub as usize]
    }

    /// The routers of stub domain `stub`.
    ///
    /// # Panics
    ///
    /// Panics if `stub` is out of range.
    pub fn stub_members(&self, stub: u32) -> &[NodeIdx] {
        &self.stub_members[stub as usize]
    }

    /// Number of stub domains.
    pub fn stub_domain_count(&self) -> usize {
        self.stub_members.len()
    }

    /// Draws `count` distinct routers uniformly at random (any kind).
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds the number of routers.
    pub fn sample_nodes(&self, count: usize, rng: &mut impl Rng) -> Vec<NodeIdx> {
        let mut all: Vec<NodeIdx> = self.graph.nodes().collect();
        assert!(count <= all.len(), "cannot sample {count} of {}", all.len());
        all.shuffle(rng);
        all.truncate(count);
        all
    }
}

/// Generates a transit-stub topology.
///
/// Deterministic for a given `(params, assignment, seed)` triple.
///
/// # Example
///
/// ```
/// use tao_topology::{generate_transit_stub, LatencyAssignment, TransitStubParams};
///
/// let t1 = generate_transit_stub(&TransitStubParams::tsk_small_mini(), LatencyAssignment::manual(), 1);
/// let t2 = generate_transit_stub(&TransitStubParams::tsk_small_mini(), LatencyAssignment::manual(), 1);
/// assert_eq!(t1.graph().edge_count(), t2.graph().edge_count());
/// ```
pub fn generate_transit_stub(
    params: &TransitStubParams,
    assignment: LatencyAssignment,
    seed: u64,
) -> Topology {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut graph = Graph::new();

    // 1. Transit routers, per domain.
    let mut transit: Vec<Vec<NodeIdx>> = Vec::with_capacity(params.transit_domains);
    for domain in 0..params.transit_domains {
        let nodes: Vec<NodeIdx> = (0..params.transit_nodes_per_domain)
            .map(|_| {
                graph.add_node(NodeKind::Transit {
                    domain: domain as u32,
                })
            })
            .collect();
        connect_random_tree(
            &mut graph,
            &nodes,
            EdgeClass::IntraTransit,
            assignment,
            &mut rng,
        );
        add_extra_edges(
            &mut graph,
            &nodes,
            params.intra_domain_extra_edge_prob,
            EdgeClass::IntraTransit,
            assignment,
            &mut rng,
        );
        transit.push(nodes);
    }

    // 2. Backbone: random spanning tree over domains + redundant links.
    let mut order: Vec<usize> = (0..params.transit_domains).collect();
    order.shuffle(&mut rng);
    for w in 1..order.len() {
        let a_dom = order[w];
        let b_dom = order[rng.gen_range(0..w)];
        let a = *choose(&transit[a_dom], &mut rng);
        let b = *choose(&transit[b_dom], &mut rng);
        let lat = assignment.sample(EdgeClass::CrossTransit, &mut rng);
        graph.add_edge(a, b, lat, EdgeClass::CrossTransit);
    }
    if params.transit_domains > 1 {
        let mut added = 0;
        let mut attempts = 0;
        while added < params.extra_cross_transit_edges && attempts < 1_000 {
            attempts += 1;
            let a_dom = rng.gen_range(0..params.transit_domains);
            let b_dom = rng.gen_range(0..params.transit_domains);
            if a_dom == b_dom {
                continue;
            }
            let a = *choose(&transit[a_dom], &mut rng);
            let b = *choose(&transit[b_dom], &mut rng);
            if graph.has_edge(a, b) {
                continue;
            }
            let lat = assignment.sample(EdgeClass::CrossTransit, &mut rng);
            graph.add_edge(a, b, lat, EdgeClass::CrossTransit);
            added += 1;
        }
    }

    // 3. Stub domains hanging off each transit router.
    let mut stub_gateways = Vec::new();
    let mut stub_members = Vec::new();
    let mut stub_id: u32 = 0;
    for domain_nodes in &transit {
        for &gateway in domain_nodes {
            for _ in 0..params.stub_domains_per_transit_node {
                let nodes: Vec<NodeIdx> = (0..params.nodes_per_stub_domain)
                    .map(|_| graph.add_node(NodeKind::Stub { domain: stub_id }))
                    .collect();
                connect_random_tree(
                    &mut graph,
                    &nodes,
                    EdgeClass::IntraStub,
                    assignment,
                    &mut rng,
                );
                add_extra_edges(
                    &mut graph,
                    &nodes,
                    params.intra_domain_extra_edge_prob,
                    EdgeClass::IntraStub,
                    assignment,
                    &mut rng,
                );
                // Gateway link from a random stub router up to the transit router.
                let access = *choose(&nodes, &mut rng);
                let lat = assignment.sample(EdgeClass::TransitStub, &mut rng);
                graph.add_edge(access, gateway, lat, EdgeClass::TransitStub);
                stub_gateways.push(gateway);
                stub_members.push(nodes);
                stub_id += 1;
            }
        }
    }

    debug_assert!(
        graph.is_connected(),
        "generator must produce a connected graph"
    );
    Topology {
        graph,
        params: *params,
        assignment,
        seed,
        stub_gateways,
        stub_members,
    }
}

fn choose<'a, T>(items: &'a [T], rng: &mut impl Rng) -> &'a T {
    &items[rng.gen_range(0..items.len())]
}

/// Connects `nodes` into a uniform random recursive tree.
fn connect_random_tree(
    graph: &mut Graph,
    nodes: &[NodeIdx],
    class: EdgeClass,
    assignment: LatencyAssignment,
    rng: &mut impl Rng,
) {
    for i in 1..nodes.len() {
        let parent = nodes[rng.gen_range(0..i)];
        let lat = assignment.sample(class, rng);
        graph.add_edge(nodes[i], parent, lat, class);
    }
}

/// Adds each non-tree pair as an edge with probability `prob`.
fn add_extra_edges(
    graph: &mut Graph,
    nodes: &[NodeIdx],
    prob: f64,
    class: EdgeClass,
    assignment: LatencyAssignment,
    rng: &mut impl Rng,
) {
    if prob <= 0.0 {
        return;
    }
    for (i, &a) in nodes.iter().enumerate() {
        for &b in &nodes[i + 1..] {
            if rng.gen_bool(prob) && !graph.has_edge(a, b) {
                let lat = assignment.sample(class, rng);
                graph.add_edge(a, b, lat, class);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_hit_the_ten_thousand_router_scale() {
        assert_eq!(TransitStubParams::tsk_large().total_nodes(), 10_016);
        assert_eq!(TransitStubParams::tsk_small().total_nodes(), 9_992);
    }

    #[test]
    fn generated_graph_is_connected_and_sized() {
        let p = TransitStubParams::tsk_small_mini();
        let t = generate_transit_stub(&p, LatencyAssignment::manual(), 11);
        assert_eq!(t.graph().node_count(), p.total_nodes());
        assert!(t.graph().is_connected());
    }

    #[test]
    fn stub_domains_have_expected_membership() {
        let p = TransitStubParams::builder()
            .transit_domains(2)
            .transit_nodes_per_domain(2)
            .stub_domains_per_transit_node(3)
            .nodes_per_stub_domain(5)
            .build()
            .unwrap();
        let t = generate_transit_stub(&p, LatencyAssignment::manual(), 5);
        assert_eq!(t.stub_domain_count(), 2 * 2 * 3);
        for s in 0..t.stub_domain_count() as u32 {
            assert_eq!(t.stub_members(s).len(), 5);
            assert!(t.graph().kind(t.stub_gateway(s)).is_transit());
            for &m in t.stub_members(s) {
                assert_eq!(t.graph().kind(m), NodeKind::Stub { domain: s });
            }
        }
    }

    #[test]
    fn same_seed_reproduces_identical_topology() {
        let p = TransitStubParams::tsk_small_mini();
        let a = generate_transit_stub(&p, LatencyAssignment::gt_itm(), 99);
        let b = generate_transit_stub(&p, LatencyAssignment::gt_itm(), 99);
        assert_eq!(a.graph().edge_count(), b.graph().edge_count());
        for n in a.graph().nodes() {
            let ea: Vec<_> = a.graph().neighbors(n).collect();
            let eb: Vec<_> = b.graph().neighbors(n).collect();
            assert_eq!(ea, eb);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let p = TransitStubParams::tsk_small_mini();
        let a = generate_transit_stub(&p, LatencyAssignment::gt_itm(), 1);
        let b = generate_transit_stub(&p, LatencyAssignment::gt_itm(), 2);
        let differs = a.graph().nodes().any(|n| {
            let ea: Vec<_> = a.graph().neighbors(n).collect();
            let eb: Vec<_> = b.graph().neighbors(n).collect();
            ea != eb
        });
        assert!(differs);
    }

    #[test]
    fn builder_rejects_zero_counts_and_bad_probability() {
        assert_eq!(
            TransitStubParams::builder().transit_domains(0).build(),
            Err(ParamsError::ZeroCount("transit_domains"))
        );
        assert!(matches!(
            TransitStubParams::builder()
                .intra_domain_extra_edge_prob(1.5)
                .build(),
            Err(ParamsError::BadProbability(_))
        ));
    }

    #[test]
    fn params_error_displays_cause() {
        assert_eq!(
            ParamsError::ZeroCount("nodes_per_stub_domain").to_string(),
            "nodes_per_stub_domain must be at least 1"
        );
    }

    #[test]
    fn sample_nodes_returns_distinct_indices() {
        let p = TransitStubParams::tsk_small_mini();
        let t = generate_transit_stub(&p, LatencyAssignment::manual(), 4);
        let mut rng = StdRng::seed_from_u64(0);
        let sample = t.sample_nodes(50, &mut rng);
        let mut unique = sample.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), 50);
    }

    #[test]
    fn single_domain_topology_works() {
        let p = TransitStubParams::builder()
            .transit_domains(1)
            .transit_nodes_per_domain(1)
            .stub_domains_per_transit_node(1)
            .nodes_per_stub_domain(1)
            .build()
            .unwrap();
        let t = generate_transit_stub(&p, LatencyAssignment::manual(), 0);
        assert_eq!(t.graph().node_count(), 2);
        assert!(t.graph().is_connected());
    }
}
