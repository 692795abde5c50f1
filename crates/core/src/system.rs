//! The eCAN system the paper's figures measure: [`TaoBuilder`], what eCAN
//! contributes to the one topology-aware system ([`AwareOverlay`] items),
//! and what only eCAN has — a clock, incremental membership
//! ([`TopologyAwareOverlay::join_node`], [`TopologyAwareOverlay::depart`])
//! and pub/sub.

use tao_landmark::{LandmarkNumber, LandmarkVector, SpaceFillingCurve};
use tao_overlay::ecan::{EcanOverlay, NeighborSelector};
use tao_overlay::{CanOverlay, OverlayNodeId, Point, RouteScratch};
use tao_sim::{SimDuration, SimTime};
use tao_softstate::pubsub::{self, PubSub};
use tao_softstate::{GlobalState, LookupScratch, NodeInfo, SoftStateConfig};
use tao_topology::{
    generate_transit_stub, LatencyAssignment, NodeIdx, Topology, TransitStubParams,
};
use tao_util::rand::rngs::StdRng;
use tao_util::rand::SeedableRng;

use crate::aware::{Aware, AwareOverlay, TopologyAwareOverlay};
use crate::params::{ExperimentParams, SelectionStrategy};
use crate::selector::GlobalStateSelector;

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
    // tao-lint: allow(panic-reachability, reason = "panics only if the parameters are invalid or the overlay outgrows the topology, which are its documented contract")
    pub fn build_on(&self, topology: Topology) -> TopologyAwareOverlay {
        Aware::assemble(topology, self.params, self.seed, self.curve)
    }
}

/// eCAN's slots are its CAN's aligned boxes, its store one map per
/// high-order zone, and a route heads for a random point.
impl AwareOverlay for EcanOverlay {
    type Slots = CanOverlay;
    type State = GlobalState;
    type Record = NodeInfo;
    type Scratch = LookupScratch;
    type Key = Point;
    const BUILD_SALT: u64 = 0x7a0;

    fn pass_seeds(build: Option<u64>, now: SimTime) -> (u64, u64) {
        match build {
            Some(seed) => (seed, seed.wrapping_add(0x5e1)),
            None => (now.as_micros(), now.as_micros() ^ 0x5e1),
        }
    }

    fn empty(config: SoftStateConfig, params: &ExperimentParams) -> (Self, GlobalState) {
        let can = CanOverlay::new(params.dims).expect("dims >= 2"); // tao-lint: allow(no-unwrap-in-lib, reason = "dims >= 2")
        (EcanOverlay::unselected(can), GlobalState::new(config))
    }

    fn slots(&self) -> &CanOverlay {
        self.can()
    }

    fn members(&self) -> Vec<OverlayNodeId> {
        self.can().live_nodes().collect()
    }

    fn join_drawn(&mut self, underlay: NodeIdx, rng: &mut StdRng) {
        self.join_unselected(underlay, Point::random(self.can().dims(), rng));
    }

    fn record(
        node: OverlayNodeId,
        underlay: NodeIdx,
        vector: LandmarkVector,
        number: LandmarkNumber,
    ) -> NodeInfo {
        NodeInfo {
            node,
            underlay,
            vector,
            number,
            load: None,
        }
    }

    fn publish(&self, state: &mut GlobalState, info: NodeInfo, now: SimTime) {
        state.publish(info, self, now);
    }

    fn reselect(&mut self, selector: &mut dyn NeighborSelector) {
        EcanOverlay::reselect(self, selector);
    }

    fn with_store_selector(
        aware: &mut Aware<Self>,
        fallback: u64,
        pass: impl FnOnce(&mut Self, &mut dyn NeighborSelector),
    ) {
        let (infos, budget) = (&aware.records, aware.params.rtt_budget);
        let mut selector = GlobalStateSelector::new(
            &aware.state,
            &aware.oracle,
            infos,
            budget,
            aware.now,
            fallback,
        )
        .lend(std::mem::take(&mut aware.scratch));
        pass(&mut aware.overlay, &mut selector);
        (aware.last_pass, aware.scratch) = selector.finish();
    }

    fn draw_key(&self, rng: &mut StdRng) -> Point {
        Point::random(self.can().dims(), rng)
    }

    fn route<'s>(
        &self,
        scratch: &'s mut RouteScratch,
        start: OverlayNodeId,
        key: &Point,
    ) -> Option<&'s [OverlayNodeId]> {
        self.route_express_into(scratch, start, key).ok()?;
        Some(scratch.hops())
    }
}

impl Aware<EcanOverlay> {
    /// The eCAN overlay.
    pub fn ecan(&self) -> &EcanOverlay {
        &self.overlay
    }

    /// Mutable access to the pub/sub registry.
    pub fn pubsub_mut(&mut self) -> &mut PubSub {
        &mut self.pubsub
    }

    /// Current virtual time of the system.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances virtual time (TTL decay is visible to subsequent lookups).
    pub fn advance(&mut self, by: SimDuration) {
        self.now += by;
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
    ///
    /// Known gap: the join goes through [`EcanOverlay::join_unselected`]
    /// and re-selects only the newcomer, its CAN neighbours and the
    /// notified subscribers. An entry elsewhere that names the split owner
    /// inside the half it gave up stays stale, so
    /// [`EcanOverlay::check_invariants`] can fail after a run of joins and
    /// [`Aware::depart`]s on the 128-node `tsk_small_mini` system (an order-2
    /// representative "left the target box"), and the tables are not a
    /// valid starting point for [`EcanOverlay::join_and_select`] or
    /// [`EcanOverlay::depart_and_repair`] until a full re-selection.
    // tao-lint: allow(panic-reachability, reason = "join invariants (non-empty landmark grid, in-bounds point) are established by the builder; violation is a bug, not a recoverable state")
    pub fn join_node(&mut self, underlay: NodeIdx) -> (OverlayNodeId, Vec<OverlayNodeId>) {
        // tao-lint: allow(seed-discipline, reason = "seeded from *virtual* time, which is itself deterministic; changing the stream would break the pinned replay fingerprints")
        let mut rng = StdRng::seed_from_u64(self.now.as_micros() ^ u64::from(underlay.0));
        let point = Point::random(self.params.dims, &mut rng);
        let id = self.overlay.join_unselected(underlay, point);
        let config = *self.state.config();
        let info = self.publish_member(id, &config);

        // Select the newcomer's expressways; its split partner's table is
        // refreshed too since its zone changed shape.
        let mut affected: Vec<OverlayNodeId> = self.overlay.can().neighbors(id).unwrap_or_default();
        affected.push(id);
        self.reselect_nodes(&affected);

        // Demand-driven maintenance: tell subscribers of every zone the
        // newcomer landed in.
        let mut notified = Vec::new();
        for zone in self.overlay.enclosing_high_order_zones(id) {
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
        let dependents = self.overlay.dependents_of(node);
        self.overlay.depart(node)?;
        self.records.remove(&node);
        self.reselect_nodes(&dependents);
        Ok(())
    }

    /// Re-runs neighbor selection for the given nodes only, with the
    /// system's configured strategy.
    // tao-lint: allow(panic-reachability, reason = "reselection panics only on corrupted expressway tables; the fault-injection harness exercises the recoverable paths")
    pub fn reselect_nodes(&mut self, nodes: &[OverlayNodeId]) {
        let now = self.now.as_micros();
        self.with_selector((now, now ^ 0x5e2), |ecan, sel| {
            for &id in nodes {
                ecan.reselect_node(id, sel);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SelectorStats;

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
                tao.pubsub_mut()
                    .subscribe(&zone.clone(), id, Predicate::NodeJoined);
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
            let simulated = |s: SelectorStats| SelectorStats {
                fragment_walks: 0,
                ..s
            };
            assert_eq!(
                simulated(warm.last_pass()),
                simulated(cold.last_pass()),
                "step {i}"
            );
            assert_eq!(
                warm.oracle().measurements(),
                cold.oracle().measurements(),
                "step {i}"
            );
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
