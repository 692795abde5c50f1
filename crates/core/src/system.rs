//! The assembled system: topology + landmarks + eCAN + global soft-state.

use tao_util::det::DetMap;

use tao_util::rand::rngs::StdRng;
use tao_util::rand::seq::SliceRandom;
use tao_util::rand::{Rng, SeedableRng};
use tao_landmark::{LandmarkGrid, LandmarkVector, SpaceFillingCurve};
use tao_overlay::ecan::{ClosestSelector, EcanOverlay, NeighborSelector, RandomSelector};
use tao_overlay::{CanOverlay, OverlayNodeId, Point, RouteScratch};
use tao_sim::{SimDuration, SimTime};
use tao_softstate::pubsub::{self, PubSub};
use tao_softstate::{GlobalState, LookupScratch, NodeInfo, SoftStateConfig};
use tao_topology::landmarks::{select_landmarks, LandmarkStrategy};
use tao_topology::{
    generate_transit_stub, LatencyAssignment, NodeIdx, RttOracle, Topology, TransitStubParams,
};

use crate::metrics::{route_stretch, StretchSummary};
use crate::params::{ExperimentParams, SelectionStrategy};
use crate::selector::{GlobalStateSelector, SelectorStats};

/// Builder for [`TopologyAwareOverlay`].
///
/// # Example
///
/// See the [crate documentation](crate).
#[derive(Debug, Clone)]
pub struct TaoBuilder {
    topology_params: TransitStubParams,
    latency: LatencyAssignment,
    params: ExperimentParams,
    landmark_strategy: LandmarkStrategy,
    curve: SpaceFillingCurve,
    seed: u64,
}

impl Default for TaoBuilder {
    fn default() -> Self {
        TaoBuilder::new()
    }
}

impl TaoBuilder {
    /// Starts a builder with Table-2 defaults on a mini `tsk-large`
    /// topology with manual latencies.
    pub fn new() -> Self {
        TaoBuilder {
            topology_params: TransitStubParams::tsk_large_mini(),
            latency: LatencyAssignment::manual(),
            params: ExperimentParams::default(),
            landmark_strategy: LandmarkStrategy::Random,
            curve: SpaceFillingCurve::Hilbert,
            seed: 0,
        }
    }

    /// Sets the transit-stub topology to generate.
    pub fn topology(&mut self, params: TransitStubParams) -> &mut Self {
        self.topology_params = params;
        self
    }

    /// Sets the link-latency assignment.
    pub fn latency(&mut self, latency: LatencyAssignment) -> &mut Self {
        self.latency = latency;
        self
    }

    /// Sets the full experiment parameter block at once.
    pub fn params(&mut self, params: ExperimentParams) -> &mut Self {
        self.params = params;
        self
    }

    /// Sets the number of overlay nodes.
    pub fn overlay_nodes(&mut self, n: usize) -> &mut Self {
        self.params.overlay_nodes = n;
        self
    }

    /// Sets the number of landmarks.
    pub fn landmarks(&mut self, n: usize) -> &mut Self {
        self.params.landmarks = n;
        self
    }

    /// Sets the RTT budget per neighbor selection (the paper's X).
    pub fn rtt_budget(&mut self, n: usize) -> &mut Self {
        self.params.rtt_budget = n;
        self
    }

    /// Sets the map condense rate.
    pub fn condense_rate(&mut self, rate: f64) -> &mut Self {
        self.params.condense_rate = rate;
        self
    }

    /// Sets the neighbor-selection strategy.
    pub fn selection(&mut self, s: SelectionStrategy) -> &mut Self {
        self.params.selection = s;
        self
    }

    /// Sets the landmark placement strategy.
    pub fn landmark_strategy(&mut self, s: LandmarkStrategy) -> &mut Self {
        self.landmark_strategy = s;
        self
    }

    /// Sets the space-filling curve used for landmark numbers and map
    /// placement (default: Hilbert; the alternatives exist for ablations).
    pub fn curve(&mut self, curve: SpaceFillingCurve) -> &mut Self {
        self.curve = curve;
        self
    }

    /// Sets the master RNG seed (topology, joins, selections).
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Generates the topology and assembles the overlay.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are invalid (see
    /// [`ExperimentParams::validate`]) or the overlay would need more nodes
    /// than the topology has routers.
    // tao-lint: allow(panic-reachability, reason = "expects a validated builder: build_on panics only if the landmark set is empty, which TaoBuilder::validate rejects first")
    pub fn build(&self) -> TopologyAwareOverlay {
        let topology = generate_transit_stub(&self.topology_params, self.latency, self.seed);
        self.build_on(topology)
    }

    /// Assembles the overlay on an existing topology (lets experiments
    /// share one 10k-router graph across many configurations).
    ///
    /// # Panics
    ///
    /// Same conditions as [`TaoBuilder::build`].
    // tao-lint: allow(panic-reachability, reason = "panics only if the landmark set is empty, which validate() rejects before any build path reaches the expect")
    pub fn build_on(&self, topology: Topology) -> TopologyAwareOverlay {
        self.params.validate();
        assert!(
            self.params.overlay_nodes <= topology.graph().node_count(),
            "overlay larger than the topology"
        );
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(0x7a0));
        let oracle = RttOracle::new(topology.graph().clone());

        // 1. Landmarks. (`warm` is a no-op on a graph whose distances
        //    factor — every transit-stub one; on a graph that falls back to
        //    rows it computes the landmarks' rows ahead of the vectors.)
        let landmarks = select_landmarks(
            topology.graph(),
            self.params.landmarks,
            self.landmark_strategy,
            &mut rng,
        );
        oracle.warm(&landmarks);

        // 2. Pick participants and grow the CAN with uniform random joins.
        let participants = topology.sample_nodes(self.params.overlay_nodes, &mut rng);
        let mut can = CanOverlay::new(self.params.dims).expect("dims >= 2"); // tao-lint: allow(no-unwrap-in-lib, reason = "dims >= 2")
        for &router in &participants {
            can.join(router, Point::random(self.params.dims, &mut rng));
        }

        // 3. Landmark vectors and numbers (RTT probes, charged).
        let config = SoftStateConfig::builder(landmark_grid(&oracle, &landmarks, &self.params))
            .curve(self.curve)
            .condense_rate(self.params.condense_rate)
            .build();
        let mut infos = DetMap::new();
        for id in can.live_nodes().collect::<Vec<_>>() {
            let underlay = can.underlay(id);
            let vector = LandmarkVector::measure(underlay, &landmarks, &oracle);
            let number = config.grid().landmark_number(&vector, config.curve());
            infos.insert(
                id,
                NodeInfo {
                    node: id,
                    underlay,
                    vector,
                    number,
                    load: None,
                },
            );
        }

        // 4. Publish everyone's soft-state over the bare CAN, then make the
        //    one table pass with the configured neighbor selection.
        let ecan = EcanOverlay::unselected(can);
        let mut state = GlobalState::new(config);
        let now = SimTime::ORIGIN;
        for info in infos.values() {
            state.publish(info.clone(), &ecan, now);
        }
        let mut tao = TopologyAwareOverlay {
            topology,
            oracle,
            landmarks,
            params: self.params,
            ecan,
            state,
            pubsub: PubSub::new(),
            infos,
            now,
            scratch: LookupScratch::default(),
            last_pass: SelectorStats::default(),
        };
        tao.with_selector(self.seed, self.seed.wrapping_add(0x5e1), |ecan, sel| {
            ecan.reselect(sel)
        });
        tao
    }
}

/// The landmark-space grid every system quantises vectors on: the
/// (validated) `params`' index and resolution under an RTT ceiling of twice
/// the largest landmark-to-landmark distance, so in-range vectors rarely
/// saturate.
pub(crate) fn landmark_grid(
    oracle: &RttOracle,
    landmarks: &[NodeIdx],
    params: &ExperimentParams,
) -> LandmarkGrid {
    let mut max = SimDuration::from_millis(1);
    for (i, &a) in landmarks.iter().enumerate() {
        for &b in &landmarks[i + 1..] {
            max = max.max(oracle.ground_truth(a, b));
        }
    }
    LandmarkGrid::new(params.landmark_vector_index, params.grid_bits, max * 2)
        .expect("validated grid parameters") // tao-lint: allow(no-unwrap-in-lib, reason = "validated grid parameters")
}

/// The assembled topology-aware overlay: the object experiments measure.
#[derive(Debug)]
pub struct TopologyAwareOverlay {
    topology: Topology,
    oracle: RttOracle,
    landmarks: Vec<NodeIdx>,
    params: ExperimentParams,
    ecan: EcanOverlay,
    state: GlobalState,
    pubsub: PubSub,
    infos: DetMap<OverlayNodeId, NodeInfo>,
    now: SimTime,
    /// The soft-state selectors' lookup scratch, lent to each pass: what it
    /// remembers stands while the state, the CAN and `now` do.
    scratch: LookupScratch,
    last_pass: SelectorStats,
}

impl TopologyAwareOverlay {
    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The RTT oracle (shared meter).
    pub fn oracle(&self) -> &RttOracle {
        &self.oracle
    }

    /// The landmark routers.
    pub fn landmarks(&self) -> &[NodeIdx] {
        &self.landmarks
    }

    /// The experiment parameters the system was built with.
    pub fn params(&self) -> &ExperimentParams {
        &self.params
    }

    /// The eCAN overlay.
    pub fn ecan(&self) -> &EcanOverlay {
        &self.ecan
    }

    /// The global soft-state.
    pub fn state(&self) -> &GlobalState {
        &self.state
    }

    /// Mutable access to the global soft-state (for churn experiments).
    pub fn state_mut(&mut self) -> &mut GlobalState {
        &mut self.state
    }

    /// The pub/sub registry.
    pub fn pubsub(&self) -> &PubSub {
        &self.pubsub
    }

    /// Mutable access to the pub/sub registry.
    pub fn pubsub_mut(&mut self) -> &mut PubSub {
        &mut self.pubsub
    }

    /// Published info of an overlay node.
    pub fn info(&self, id: OverlayNodeId) -> Option<&NodeInfo> {
        self.infos.get(&id)
    }

    /// What the soft-state selector of the latest pass did — the build's,
    /// or the last `reselect*` since (zeros under the other strategies).
    pub fn last_pass(&self) -> SelectorStats {
        self.last_pass
    }

    /// Current virtual time of the system.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances virtual time (TTL decay is visible to subsequent lookups).
    pub fn advance(&mut self, by: SimDuration) {
        self.now += by;
    }

    /// Measures routing stretch over `routes` random `(source, target)`
    /// pairs: the ratio of accumulated latency along the eCAN route to the
    /// shortest-path latency from source to the target's owner.
    ///
    /// Pairs whose source owns the target point, or whose endpoints are
    /// co-located (zero shortest path), are skipped, as are the rare pairs
    /// where greedy routing dead-ends.
    // tao-lint: allow(panic-reachability, reason = "indexes parallel per-node vectors whose lengths are equal by construction of the stretch sweep")
    pub fn measure_routing_stretch(&self, routes: usize, seed: u64) -> StretchSummary {
        let mut rng = StdRng::seed_from_u64(seed);
        let live: Vec<OverlayNodeId> = self.ecan.can().live_nodes().collect();
        let mut summary = StretchSummary::new();
        let mut scratch = RouteScratch::new();
        for _ in 0..routes {
            let src = live[rng.gen_range(0..live.len())];
            let target = Point::random(self.params.dims, &mut rng);
            if self.ecan.route_express_into(&mut scratch, src, &target).is_err() {
                continue;
            }
            let underlays = scratch.hops().iter().map(|&h| self.ecan.can().underlay(h));
            if let Some(stretch) = route_stretch(underlays, &self.oracle) {
                summary.add(stretch);
            }
        }
        summary
    }

    /// Joins a new node onto underlay router `underlay`, running the
    /// paper's full join pipeline:
    ///
    /// 1. pick a random point and split the owner's zone (eCAN join),
    /// 2. measure the landmark vector (charged RTT probes) and derive the
    ///    landmark number,
    /// 3. publish the node's soft-state into every enclosing high-order
    ///    zone's map,
    /// 4. select the newcomer's expressway representatives through the
    ///    configured strategy,
    /// 5. notify `NodeJoined` subscribers of the affected zones.
    ///
    /// Returns the new node's id and the subscribers notified.
    // tao-lint: allow(panic-reachability, reason = "join invariants (non-empty landmark grid, in-bounds point) are established by the builder; violation is a bug, not a recoverable state")
    pub fn join_node(&mut self, underlay: NodeIdx) -> (OverlayNodeId, Vec<OverlayNodeId>) {
        // tao-lint: allow(seed-discipline, reason = "seeded from *virtual* time, which is itself deterministic; changing the stream would break the pinned replay fingerprints")
        let mut rng = StdRng::seed_from_u64(self.now.as_micros() ^ u64::from(underlay.0));
        let point = Point::random(self.params.dims, &mut rng);
        let id = self.ecan.join_unselected(underlay, point);

        let vector = LandmarkVector::measure(underlay, &self.landmarks, &self.oracle);
        let config = *self.state.config();
        let number = config.grid().landmark_number(&vector, config.curve());
        let info = NodeInfo {
            node: id,
            underlay,
            vector,
            number,
            load: None,
        };
        self.state.publish(info.clone(), &self.ecan, self.now);
        self.infos.insert(id, info.clone());

        // Select the newcomer's expressways; its split partner's table is
        // refreshed too since its zone changed shape.
        let mut affected: Vec<OverlayNodeId> =
            self.ecan.can().neighbors(id).unwrap_or_default();
        affected.push(id);
        self.reselect_nodes(&affected);

        // Demand-driven maintenance: tell subscribers of every zone the
        // newcomer landed in.
        let mut notified = Vec::new();
        for zone in self.ecan.enclosing_high_order_zones(id) {
            notified.extend(
                self.pubsub
                    .publish(&zone, &pubsub::Event::NodeJoined(info.clone())),
            );
        }
        notified.sort();
        notified.dedup();
        notified.retain(|n| *n != id);
        // Notified nodes re-select against the fresh state (§5.2: "get
        // notified as the state changes necessitate neighbor re-selection").
        self.reselect_nodes(&notified);
        (id, notified)
    }

    /// Departs `node` from the overlay: the CAN hands its zone to a
    /// neighbor, the node's expressway table is dropped, and every node
    /// whose table referenced it re-selects. How the *soft-state* learns
    /// about the departure is the experiment's choice (see
    /// [`tao_softstate::MaintenancePolicy`]); this method leaves the maps
    /// untouched.
    ///
    /// # Errors
    ///
    /// Propagates [`tao_overlay::OverlayError`] from the CAN departure.
    // tao-lint: allow(panic-reachability, reason = "departure panics only if zone bookkeeping is corrupted, which the churn invariant tests pin down")
    pub fn depart(&mut self, node: OverlayNodeId) -> Result<(), tao_overlay::OverlayError> {
        let dependents = self.ecan.dependents_of(node);
        self.ecan.depart(node)?;
        self.infos.remove(&node);
        self.reselect_nodes(&dependents);
        Ok(())
    }

    /// Runs `f` on the eCAN with the configured strategy's selector over
    /// the current soft-state — the one place a [`SelectionStrategy`]
    /// becomes a selector. `random_seed` feeds [`RandomSelector`],
    /// `fallback_seed` the soft-state selector's fallback draw.
    fn with_selector(
        &mut self,
        random_seed: u64,
        fallback_seed: u64,
        f: impl FnOnce(&mut EcanOverlay, &mut dyn NeighborSelector),
    ) {
        self.last_pass = SelectorStats::default();
        match self.params.selection {
            SelectionStrategy::Random => f(&mut self.ecan, &mut RandomSelector::new(random_seed)),
            SelectionStrategy::Optimal => {
                f(&mut self.ecan, &mut ClosestSelector::new(self.oracle.clone()))
            }
            SelectionStrategy::GlobalState => {
                let mut selector = GlobalStateSelector::new(
                    &self.state,
                    &self.oracle,
                    &self.infos,
                    self.params.rtt_budget,
                    self.now,
                    fallback_seed,
                )
                .lend(std::mem::take(&mut self.scratch));
                f(&mut self.ecan, &mut selector);
                (self.last_pass, self.scratch) = selector.finish();
            }
        }
    }

    /// Re-runs neighbor selection for the given nodes only, with the
    /// system's configured strategy.
    // tao-lint: allow(panic-reachability, reason = "reselection panics only on corrupted expressway tables; the fault-injection harness exercises the recoverable paths")
    pub fn reselect_nodes(&mut self, nodes: &[OverlayNodeId]) {
        let now = self.now.as_micros();
        self.with_selector(now, now ^ 0x5e2, |ecan, sel| {
            for &id in nodes {
                ecan.reselect_node(id, sel);
            }
        });
    }

    /// Re-runs neighbor selection with the system's configured strategy
    /// against the *current* soft-state (e.g. after churn or TTL decay).
    // tao-lint: allow(panic-reachability, reason = "an expressway table pass panics only if a live node has no published info or a target box has no member; build_on and join_node record an info for every node they add, depart drops it with the node, and the CAN's zones cover the space")
    pub fn reselect(&mut self) {
        let now = self.now.as_micros();
        self.with_selector(now, now ^ 0x5e1, |ecan, sel| ecan.reselect(sel));
    }

    /// Draws `count` distinct live overlay nodes.
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds the number of live nodes.
    pub fn sample_overlay_nodes(&self, count: usize, seed: u64) -> Vec<OverlayNodeId> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut live: Vec<OverlayNodeId> = self.ecan.can().live_nodes().collect();
        assert!(count <= live.len(), "not enough live nodes");
        live.shuffle(&mut rng);
        live.truncate(count);
        live
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_builder() -> TaoBuilder {
        let mut b = TaoBuilder::new();
        b.topology(TransitStubParams::tsk_small_mini())
            .overlay_nodes(128)
            .landmarks(5)
            .rtt_budget(5)
            .seed(11);
        b
    }

    #[test]
    fn builds_a_consistent_system() {
        let tao = small_builder().build();
        assert_eq!(tao.ecan().can().len(), 128);
        assert_eq!(tao.landmarks().len(), 5);
        assert!(tao.state().total_entries() > 0);
        // Every live node has published info.
        for id in tao.ecan().can().live_nodes() {
            assert!(tao.info(id).is_some());
        }
    }

    #[test]
    fn global_state_beats_random_selection_on_stretch() {
        let mut b = small_builder();
        let baseline = {
            b.selection(SelectionStrategy::Random);
            b.build().measure_routing_stretch(400, 3)
        };
        let aware = {
            b.selection(SelectionStrategy::GlobalState);
            b.build().measure_routing_stretch(400, 3)
        };
        assert!(
            aware.mean() < baseline.mean(),
            "global state ({:.3}) should beat random ({:.3})",
            aware.mean(),
            baseline.mean()
        );
    }

    #[test]
    fn optimal_is_a_lower_bound_for_global_state() {
        let mut b = small_builder();
        let optimal = {
            b.selection(SelectionStrategy::Optimal);
            b.build().measure_routing_stretch(400, 5)
        };
        let aware = {
            b.selection(SelectionStrategy::GlobalState);
            b.build().measure_routing_stretch(400, 5)
        };
        // Allow a whisker of sampling noise.
        assert!(
            optimal.mean() <= aware.mean() * 1.05,
            "optimal ({:.3}) must not lose to global state ({:.3})",
            optimal.mean(),
            aware.mean()
        );
    }

    #[test]
    fn departures_keep_routing_consistent() {
        let mut tao = small_builder().build();
        let victims = tao.sample_overlay_nodes(10, 1);
        for v in victims {
            tao.depart(v).unwrap();
        }
        assert_eq!(tao.ecan().can().len(), 118);
        tao.reselect();
        let s = tao.measure_routing_stretch(100, 2);
        assert!(s.count() > 0);
        assert!(s.mean() >= 1.0);
    }

    #[test]
    fn stretch_is_at_least_one() {
        let tao = small_builder().build();
        let s = tao.measure_routing_stretch(300, 9);
        assert!(s.count() > 200, "most samples must be valid");
        assert!(s.min() >= 1.0 - 1e-9, "stretch below 1 is impossible");
    }

    #[test]
    fn incremental_join_publishes_and_selects() {
        let mut tao = small_builder().build();
        let before_entries = tao.state().total_entries();
        // Pick an underlay router not already in the overlay.
        let used: tao_util::det::DetSet<_> = tao
            .ecan()
            .can()
            .live_nodes()
            .map(|id| tao.ecan().can().underlay(id))
            .collect();
        let fresh = tao
            .topology()
            .graph()
            .nodes()
            .find(|n| !used.contains(n))
            .expect("topology has spare routers");
        let (id, _) = tao.join_node(fresh);
        assert_eq!(tao.ecan().can().len(), 129);
        assert!(tao.info(id).is_some());
        assert!(tao.state().total_entries() > before_entries);
        // Newcomer has an expressway table (unless its zone is shallow).
        let s = tao.measure_routing_stretch(100, 3);
        assert!(s.count() > 50);
    }

    #[test]
    fn join_notifies_subscribers_who_reselect() {
        use tao_softstate::pubsub::Predicate;
        let mut tao = small_builder().build();
        // Everyone subscribes to joins in their smallest high-order zone.
        let live: Vec<OverlayNodeId> = tao.ecan().can().live_nodes().collect();
        for &id in &live {
            if let Some(zone) = tao.ecan().enclosing_high_order_zones(id).first() {
                tao.pubsub_mut().subscribe(&zone.clone(), id, Predicate::NodeJoined);
            }
        }
        let used: tao_util::det::DetSet<_> = live
            .iter()
            .map(|&id| tao.ecan().can().underlay(id))
            .collect();
        let fresh = tao
            .topology()
            .graph()
            .nodes()
            .find(|n| !used.contains(n))
            .expect("spare routers exist");
        let (_, notified) = tao.join_node(fresh);
        assert!(
            !notified.is_empty(),
            "a join inside a populated zone must notify its subscribers"
        );
    }

    #[test]
    fn departure_reselects_dependents_away_from_the_dead_node() {
        let mut tao = small_builder().build();
        let victim = tao
            .ecan()
            .can()
            .live_nodes()
            .find(|&id| !tao.ecan().dependents_of(id).is_empty())
            .expect("someone is a representative");
        tao.depart(victim).unwrap();
        for id in tao.ecan().can().live_nodes() {
            assert!(
                tao.ecan()
                    .high_order_entries(id)
                    .iter()
                    .all(|e| e.representative != victim),
                "{id} still references departed {victim}"
            );
        }
    }

    #[test]
    fn what_a_system_remembers_between_passes_never_shows() {
        // Two identical systems run one script of passes with the state,
        // the CAN and the clock changing in between; one of them forgets
        // its lookup scratch before every step. Tables, counts and the
        // oracle's meter must agree after each.
        type Step = fn(&mut TopologyAwareOverlay);
        let script: [Step; 10] = [
            |tao| tao.reselect(),
            // The state alone: a dozen withdrawals.
            |tao| {
                for id in tao.sample_overlay_nodes(12, 4) {
                    tao.state_mut().remove(id);
                }
            },
            |tao| tao.reselect(),
            // The CAN alone: six departures the maps are not told about.
            |tao| {
                for id in tao.sample_overlay_nodes(6, 5) {
                    tao.depart(id).unwrap();
                }
            },
            |tao| tao.reselect(),
            // Both, and two passes inside: a join.
            |tao| drop(tao.join_node(NodeIdx(1))),
            |tao| {
                tao.advance(SimDuration::from_secs(40));
                for id in tao.sample_overlay_nodes(60, 6) {
                    let now = tao.now();
                    tao.state_mut().refresh(id, now);
                }
                tao.reselect();
            },
            // The clock alone: what was not refreshed lapses.
            |tao| tao.advance(SimDuration::from_secs(30)),
            |tao| tao.reselect(),
            |tao| tao.reselect(),
        ];
        let (mut warm, mut cold) = (small_builder().build(), small_builder().build());
        for (i, step) in script.iter().enumerate() {
            cold.scratch = LookupScratch::default();
            step(&mut warm);
            step(&mut cold);
            let tables = |tao: &TopologyAwareOverlay| -> Vec<_> {
                let live = tao.ecan().can().live_nodes();
                live.map(|id| tao.ecan().high_order_entries(id)).collect()
            };
            assert_eq!(tables(&warm), tables(&cold), "step {i}");
            let simulated = |s: SelectorStats| SelectorStats { fragment_walks: 0, ..s };
            assert_eq!(simulated(warm.last_pass()), simulated(cold.last_pass()), "step {i}");
            assert_eq!(warm.oracle().measurements(), cold.oracle().measurements(), "step {i}");
            // The first step repeats the build's pass with nothing changed
            // since: every fragment is found, where the cold system walks.
            if i == 0 {
                assert_eq!(warm.last_pass().fragment_walks, 0);
                assert!(cold.last_pass().fragment_walks > 0 && cold.last_pass().fallbacks > 0);
            }
        }
    }

    #[test]
    fn advance_moves_the_clock() {
        let mut tao = small_builder().build();
        let t0 = tao.now();
        tao.advance(SimDuration::from_secs(5));
        assert_eq!(tao.now() - t0, SimDuration::from_secs(5));
    }
}
