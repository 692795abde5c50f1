//! Topology-aware **Chord** and **Pastry** — the paper's generality claim
//! ("generic for overlay networks such as Pastry, Chord, and eCAN, where
//! there exists flexibility in selecting routing neighbors"), stated once.
//!
//! [`KeyedAware`] runs the pipeline on any id-keyed overlay: landmark
//! vectors → landmark numbers → one [`PeerRecord`] per node in the overlay's
//! soft-state store → every routing slot filled by asking the store for the
//! owner's physically close peers, RTT-probing the first X that fit the
//! slot, keeping the closest. An overlay contributes only what really
//! differs ([`AwareOverlay`]): its store and how a slot consults it. These
//! systems have no clock: everything happens at [`SimTime::ORIGIN`].
//!
//! * **Chord** ([`ChordAware`]) — records live at their landmark number's
//!   *successor* ([`RingState`]); a node fetches its close-peer set once
//!   and carves every finger interval's choice out of it.
//! * **Pastry** ([`PastryAware`]) — one map per nodeId prefix
//!   ([`PrefixState`]); instead of expanding-ring search at join plus
//!   gossip, a routing-table slot's candidates come from the map of the
//!   slot's prefix region.

use tao_landmark::LandmarkVector;
use tao_overlay::chord::ChordOverlay;
use tao_overlay::keyed::{
    ClosestPeerSelector, KeyedOverlay, PeerId, PeerSelector, RandomPeerSelector,
};
use tao_overlay::pastry::{shared_prefix_len, PastryOverlay, DIGITS};
use tao_overlay::RouteScratch;
use tao_sim::SimTime;
use tao_softstate::prefix::{PrefixKey, PrefixState};
use tao_softstate::ring::RingState;
use tao_softstate::{PeerRecord, SoftStateConfig};
use tao_topology::landmarks::{select_landmarks, LandmarkStrategy};
use tao_topology::{NodeIdx, RttOracle, Topology};
use tao_util::det::DetMap;
use tao_util::rand::rngs::StdRng;
use tao_util::rand::{Rng, SeedableRng};

use crate::metrics::{route_stretch, StretchSummary};
use crate::params::{ExperimentParams, SelectionStrategy};
use crate::system::landmark_grid;

/// What an id-keyed overlay contributes to [`KeyedAware`]: the store that
/// places its records, and how a routing slot consults that store.
pub trait AwareOverlay: KeyedOverlay {
    /// The soft-state store holding this overlay's [`PeerRecord`]s.
    type State;
    /// Seed of the [`SelectionStrategy::Random`] selector.
    const RANDOM_SEED: u64;
    /// Seed of the draw a soft-state selection falls back to when the
    /// store names no candidate of the slot.
    const FALLBACK_SEED: u64;
    /// `true` when the store's answer depends on the owner alone, so one
    /// lookup serves all of its slots; `false` when each slot consults its
    /// own region of the store.
    const LOOKUP_PER_OWNER: bool;

    /// An empty overlay and store sized for `params.overlay_nodes` nodes.
    fn empty(config: SoftStateConfig, params: &ExperimentParams) -> (Self, Self::State);

    /// Publishes `record` into the store.
    fn publish(state: &mut Self::State, record: PeerRecord);

    /// The store's view of `query`'s physically close peers for the slot
    /// whose admissible members are `candidates`, nearest first.
    fn lookup(
        &self,
        state: &Self::State,
        query: &PeerRecord,
        candidates: &[PeerId],
        params: &ExperimentParams,
    ) -> Vec<PeerRecord>;
}

impl AwareOverlay for ChordOverlay {
    type State = RingState;
    const RANDOM_SEED: u64 = 0x1234;
    const FALLBACK_SEED: u64 = 0x5678;
    const LOOKUP_PER_OWNER: bool = true;

    fn empty(config: SoftStateConfig, _params: &ExperimentParams) -> (Self, RingState) {
        (ChordOverlay::new(), RingState::new(config))
    }

    fn publish(state: &mut RingState, record: PeerRecord) {
        state.publish(record, SimTime::ORIGIN);
    }

    /// Fetches wide, from up to four successor hosts: enough physically
    /// close peers that every finger interval of interest overlaps the set.
    fn lookup(
        &self,
        state: &RingState,
        query: &PeerRecord,
        _candidates: &[PeerId],
        params: &ExperimentParams,
    ) -> Vec<PeerRecord> {
        state.lookup_hosted(query, params.rtt_budget * 8, 4, self, SimTime::ORIGIN)
    }
}

impl AwareOverlay for PastryOverlay {
    type State = PrefixState;
    const RANDOM_SEED: u64 = 0x9abc;
    const FALLBACK_SEED: u64 = 0xdef0;
    const LOOKUP_PER_OWNER: bool = false;

    fn empty(config: SoftStateConfig, params: &ExperimentParams) -> (Self, PrefixState) {
        // Maps exist for prefixes up to log16(N) + 1 digits.
        let max_len = ((params.overlay_nodes as f64).log2() / 4.0).ceil() as u32 + 1;
        let state = PrefixState::new(config, max_len.clamp(1, DIGITS));
        (PastryOverlay::new(8), state)
    }

    fn publish(state: &mut PrefixState, record: PeerRecord) {
        state.publish(record, SimTime::ORIGIN);
    }

    /// All candidates share `row` digits with the owner and one more digit
    /// among themselves: that `(row + 1)`-digit prefix is the slot's region.
    fn lookup(
        &self,
        state: &PrefixState,
        query: &PeerRecord,
        candidates: &[PeerId],
        params: &ExperimentParams,
    ) -> Vec<PeerRecord> {
        let row = shared_prefix_len(query.id, candidates[0]);
        let region_len = (row + 1).min(state.max_len()).min(DIGITS);
        let region = PrefixKey::of(candidates[0], region_len);
        state.lookup(
            region,
            query,
            params.rtt_budget,
            params.lookup_overscan,
            SimTime::ORIGIN,
        )
    }
}

/// The probe step every soft-state selection ends in: of the records the
/// store `found`, keep the slot's `candidates`, RTT-probe the first
/// `budget` from `me` (charged to the oracle's meter), take the closest by
/// `(rtt, id)`. When the store named no candidate nothing is charged and
/// the choice is a draw from the `fallback` stream — a fresh deployment.
fn probe_closest(
    found: &[PeerRecord],
    candidates: &[PeerId],
    me: NodeIdx,
    budget: usize,
    oracle: &RttOracle,
    fallback: &mut StdRng,
) -> PeerId {
    let fitting = found.iter().filter(|r| candidates.contains(&r.id));
    let probed = fitting
        .take(budget)
        .map(|r| (oracle.measure(me, r.underlay), r.id));
    match probed.min() {
        Some((_, id)) => id,
        None => candidates[fallback.gen_range(0..candidates.len())],
    }
}

/// The [`PeerSelector`] backed by an overlay's soft-state store.
struct StoreSelector<'a, O: AwareOverlay> {
    state: &'a O::State,
    oracle: &'a RttOracle,
    records: &'a DetMap<PeerId, PeerRecord>,
    params: &'a ExperimentParams,
    fallback: StdRng,
    /// The store's last answer, and the owner it was for.
    found: Vec<PeerRecord>,
    found_for: Option<PeerId>,
}

impl<O: AwareOverlay> PeerSelector<O> for StoreSelector<'_, O> {
    fn select(&mut self, owner: PeerId, candidates: &[PeerId], overlay: &O) -> PeerId {
        let query = self
            .records
            .get(&owner)
            .expect("every member published at build"); // tao-lint: allow(no-unwrap-in-lib, reason = "every member published at build")
        if !(O::LOOKUP_PER_OWNER && self.found_for == Some(owner)) {
            self.found = overlay.lookup(self.state, query, candidates, self.params);
            self.found_for = Some(owner);
        }
        probe_closest(
            &self.found,
            candidates,
            query.underlay,
            self.params.rtt_budget,
            self.oracle,
            &mut self.fallback,
        )
    }
}

/// A topology-aware deployment of an id-keyed overlay: the overlay, its
/// soft-state store, and the record every member published.
#[derive(Debug)]
pub struct KeyedAware<O: AwareOverlay> {
    oracle: RttOracle,
    overlay: O,
    state: O::State,
    records: DetMap<PeerId, PeerRecord>,
    params: ExperimentParams,
}

/// Topology-aware Chord: ring + successor-hosted soft-state.
pub type ChordAware = KeyedAware<ChordOverlay>;

/// Topology-aware Pastry: prefix overlay + per-prefix maps.
pub type PastryAware = KeyedAware<PastryOverlay>;

impl<O: AwareOverlay> KeyedAware<O> {
    /// Assembles an overlay of `params.overlay_nodes` nodes on `topology`,
    /// publishes everyone's soft-state, and fills every routing slot with
    /// the configured strategy.
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters or an overlay larger than the topology.
    // tao-lint: allow(panic-reachability, reason = "panics are the documented contract: validate() rejects bad parameters and sample_nodes an overlay larger than the topology; past those the grid is valid and the 64-bit ids drawn from one seeded stream do not collide")
    pub fn build(topology: &Topology, params: ExperimentParams, seed: u64) -> Self {
        params.validate();
        let oracle = RttOracle::new(topology.graph().clone());
        let mut rng = StdRng::seed_from_u64(seed);
        let landmarks = select_landmarks(
            topology.graph(),
            params.landmarks,
            LandmarkStrategy::Random,
            &mut rng,
        );
        oracle.warm(&landmarks);
        let config = SoftStateConfig::builder(landmark_grid(&oracle, &landmarks, &params)).build();

        let (mut overlay, mut state) = O::empty(config, &params);
        let mut records = DetMap::new();
        for underlay in topology.sample_nodes(params.overlay_nodes, &mut rng) {
            let id: PeerId = rng.gen();
            overlay.join(underlay, id);
            let vector = LandmarkVector::measure(underlay, &landmarks, &oracle);
            let number = config.grid().landmark_number(&vector, config.curve());
            let record = PeerRecord {
                id,
                underlay,
                vector,
                number,
            };
            O::publish(&mut state, record.clone());
            records.insert(id, record);
        }

        let mut aware = KeyedAware {
            oracle,
            overlay,
            state,
            records,
            params,
        };
        aware.reselect();
        aware
    }

    /// The overlay.
    pub fn overlay(&self) -> &O {
        &self.overlay
    }

    /// The soft-state store.
    pub fn state(&self) -> &O::State {
        &self.state
    }

    /// The RTT oracle (shared meter).
    pub fn oracle(&self) -> &RttOracle {
        &self.oracle
    }

    /// Runs `f` on the overlay with the configured strategy's selector over
    /// the current soft-state — the one place a [`SelectionStrategy`]
    /// becomes a [`PeerSelector`].
    fn with_selector(&mut self, f: impl FnOnce(&mut O, &mut dyn PeerSelector<O>)) {
        let overlay = &mut self.overlay;
        match self.params.selection {
            SelectionStrategy::Random => f(overlay, &mut RandomPeerSelector::new(O::RANDOM_SEED)),
            SelectionStrategy::Optimal => {
                f(overlay, &mut ClosestPeerSelector::new(self.oracle.clone()))
            }
            SelectionStrategy::GlobalState => f(
                overlay,
                &mut StoreSelector {
                    state: &self.state,
                    oracle: &self.oracle,
                    records: &self.records,
                    params: &self.params,
                    fallback: StdRng::seed_from_u64(O::FALLBACK_SEED),
                    found: Vec::new(),
                    found_for: None,
                },
            ),
        }
    }

    /// Refills every member's routing slots with the configured strategy.
    // tao-lint: allow(panic-reachability, reason = "slot refill panics only for an id that is not a member or has no record; reselect walks the overlay's own members, and build publishes a record for every member it joins")
    pub fn reselect(&mut self) {
        self.with_selector(|overlay, selector| overlay.reselect(selector));
    }

    /// Routing stretch over random `(start node, key)` lookups: path
    /// latency along the overlay hops versus the direct latency from start
    /// to the key's home node.
    // tao-lint: allow(panic-reachability, reason = "build leaves at least two members to draw a start from, and every hop route_into records is a member, so its underlay lookup hits")
    pub fn measure_routing_stretch(&self, routes: usize, seed: u64) -> StretchSummary {
        let mut rng = StdRng::seed_from_u64(seed);
        let ids: Vec<PeerId> = self.overlay.node_ids().collect();
        let mut summary = StretchSummary::new();
        let mut scratch = RouteScratch::new();
        for _ in 0..routes {
            let start = ids[rng.gen_range(0..ids.len())];
            let key: PeerId = rng.gen();
            if self.overlay.route_into(&mut scratch, start, key).is_err() {
                continue;
            }
            let underlays = scratch
                .ring_hops()
                .iter()
                .map(|&h| self.overlay.underlay(h).expect("hops are members")); // tao-lint: allow(no-unwrap-in-lib, reason = "hops are members")
            if let Some(stretch) = route_stretch(underlays, &self.oracle) {
                summary.add(stretch);
            }
        }
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tao_landmark::LandmarkNumber;
    use tao_topology::{generate_transit_stub, LatencyAssignment, TransitStubParams};

    /// What the shared test bodies ask of an overlay beyond [`AwareOverlay`].
    trait Subject: AwareOverlay {
        /// Seed of the test topology.
        const TOPOLOGY_SEED: u64;
        fn check_invariants(&self);
        /// The member responsible for `key`.
        fn home_of(&self, key: PeerId) -> PeerId;
        /// Asserts `state` holds exactly what `members` publishers wrote.
        fn check_published(state: &Self::State, members: usize);
    }

    impl Subject for ChordOverlay {
        const TOPOLOGY_SEED: u64 = 61;

        fn check_invariants(&self) {
            ChordOverlay::check_invariants(self);
        }

        fn home_of(&self, key: PeerId) -> PeerId {
            self.successor(key).unwrap()
        }

        fn check_published(state: &RingState, members: usize) {
            assert_eq!(state.len(), members);
        }
    }

    impl Subject for PastryOverlay {
        const TOPOLOGY_SEED: u64 = 71;

        fn check_invariants(&self) {
            PastryOverlay::check_invariants(self);
        }

        fn home_of(&self, key: PeerId) -> PeerId {
            self.root_of(key).unwrap()
        }

        fn check_published(state: &PrefixState, members: usize) {
            // One record per prefix length per node.
            assert_eq!(state.total_entries(), members * state.max_len() as usize);
        }
    }

    const NODES: usize = 192;
    const BUDGET: usize = 8;
    const STRATEGIES: [SelectionStrategy; 3] = [
        SelectionStrategy::Random,
        SelectionStrategy::GlobalState,
        SelectionStrategy::Optimal,
    ];

    fn params(selection: SelectionStrategy) -> ExperimentParams {
        ExperimentParams {
            overlay_nodes: NODES,
            landmarks: 8,
            rtt_budget: BUDGET,
            selection,
            ..Default::default()
        }
    }

    fn topology<O: Subject>() -> Topology {
        generate_transit_stub(
            &TransitStubParams::tsk_large_mini(),
            LatencyAssignment::manual(),
            O::TOPOLOGY_SEED,
        )
    }

    fn mean_stretch<O: Subject>(
        topo: &Topology,
        selection: SelectionStrategy,
        build_seed: u64,
        route_seed: u64,
    ) -> f64 {
        KeyedAware::<O>::build(topo, params(selection), build_seed)
            .measure_routing_stretch(400, route_seed)
            .mean()
    }

    /// The `(key, hops)` of the routes `measure_routing_stretch(300, 8)`
    /// draws — the same stream, replayed — and a fingerprint of the tables.
    fn routes_of<O: Subject>(aware: &KeyedAware<O>) -> Vec<(PeerId, Vec<PeerId>)> {
        let mut rng = StdRng::seed_from_u64(8);
        let ids: Vec<PeerId> = aware.overlay().node_ids().collect();
        let mut scratch = RouteScratch::new();
        let mut routes = Vec::new();
        for _ in 0..300 {
            let start = ids[rng.gen_range(0..ids.len())];
            let key: PeerId = rng.gen();
            if aware.overlay().route_into(&mut scratch, start, key).is_ok() {
                routes.push((key, scratch.ring_hops().to_vec()));
            }
        }
        routes
    }

    fn builds_publishes_and_routes<O: Subject>() {
        let aware =
            KeyedAware::<O>::build(&topology::<O>(), params(SelectionStrategy::GlobalState), 1);
        assert_eq!(aware.overlay().node_ids().count(), NODES);
        O::check_published(aware.state(), NODES);
        let s = aware.measure_routing_stretch(300, 2);
        assert!(s.count() > 250);
        assert!(s.min() >= 1.0 - 1e-9);
    }

    fn global_state_beats_random<O: Subject>() {
        let topo = topology::<O>();
        let random = mean_stretch::<O>(&topo, SelectionStrategy::Random, 3, 4);
        let aware = mean_stretch::<O>(&topo, SelectionStrategy::GlobalState, 3, 4);
        assert!(
            aware < random,
            "soft-state selection ({aware:.2}) should beat random ({random:.2})"
        );
    }

    fn optimal_bounds_global_state<O: Subject>() {
        let topo = topology::<O>();
        let optimal = mean_stretch::<O>(&topo, SelectionStrategy::Optimal, 5, 6);
        let aware = mean_stretch::<O>(&topo, SelectionStrategy::GlobalState, 5, 6);
        assert!(optimal <= aware * 1.05);
    }

    /// Forwards to `inner` after checking the list every slot hands it, and
    /// what the choice cost.
    struct Checked<'a, O> {
        inner: &'a mut dyn PeerSelector<O>,
        oracle: &'a RttOracle,
        /// Probes one selection may charge.
        budget: u64,
        slots: usize,
    }

    impl<O> PeerSelector<O> for Checked<'_, O> {
        fn select(&mut self, owner: PeerId, candidates: &[PeerId], overlay: &O) -> PeerId {
            assert!(
                !candidates.is_empty(),
                "a slot of {owner:#x} offered nobody"
            );
            assert!(!candidates.contains(&owner), "{owner:#x} offered to itself");
            let before = self.oracle.measurements();
            let chosen = self.inner.select(owner, candidates, overlay);
            let spent = self.oracle.measurements() - before;
            assert!(
                spent <= self.budget,
                "{spent} probes for one slot of {owner:#x}"
            );
            assert!(candidates.contains(&chosen), "{chosen:#x} was not offered");
            self.slots += 1;
            chosen
        }
    }

    fn every_strategy_fills_valid_slots_and_routes_home<O: Subject>() {
        let topo = topology::<O>();
        for selection in STRATEGIES {
            let mut aware = KeyedAware::<O>::build(&topo, params(selection), 7);
            aware.overlay().check_invariants();

            let oracle = aware.oracle().clone();
            let soft_state = selection == SelectionStrategy::GlobalState;
            let budget = if soft_state { BUDGET as u64 } else { 0 };
            let mut slots = 0;
            aware.with_selector(|overlay, inner| {
                let mut checked = Checked {
                    inner,
                    oracle: &oracle,
                    budget,
                    slots: 0,
                };
                overlay.reselect(&mut checked);
                slots = checked.slots;
            });
            assert!(
                slots >= NODES,
                "{selection:?}: {slots} slots for {NODES} members"
            );
            aware.overlay().check_invariants();

            let routes = routes_of(&aware);
            assert_eq!(
                routes.len(),
                300,
                "{selection:?}: a member could not start a route"
            );
            for (key, hops) in routes {
                assert_eq!(
                    *hops.last().unwrap(),
                    aware.overlay().home_of(key),
                    "{selection:?}"
                );
            }
            assert!(aware.measure_routing_stretch(300, 8).count() > 250);
        }
    }

    fn a_store_naming_no_candidate_costs_nothing_and_draws_the_fallback<O: Subject>() {
        let topo = topology::<O>();
        let mut aware = KeyedAware::<O>::build(&topo, params(SelectionStrategy::GlobalState), 9);
        // Another deployment's store: full of records, none of them a member.
        let stranger = KeyedAware::<O>::build(&topo, params(SelectionStrategy::Random), 10);
        assert!(stranger
            .overlay()
            .node_ids()
            .all(|id| aware.overlay().underlay(id).is_none()));
        aware.state = stranger.state;

        let before = aware.oracle().measurements();
        aware.reselect();
        assert_eq!(
            aware.oracle().measurements(),
            before,
            "no candidate, no probe"
        );
        aware.overlay().check_invariants();
        let fallen_back = routes_of(&aware);
        aware
            .overlay
            .reselect(&mut RandomPeerSelector::new(O::FALLBACK_SEED));
        assert_eq!(
            fallen_back,
            routes_of(&aware),
            "every slot draws from the fallback stream"
        );
    }

    macro_rules! on_both_overlays {
        ($($test:ident),* $(,)?) => {
            mod chord {
                $(#[test] fn $test() { super::$test::<super::ChordOverlay>() })*
            }
            mod pastry {
                $(#[test] fn $test() { super::$test::<super::PastryOverlay>() })*
            }
        };
    }

    on_both_overlays!(
        builds_publishes_and_routes,
        global_state_beats_random,
        optimal_bounds_global_state,
        every_strategy_fills_valid_slots_and_routes_home,
        a_store_naming_no_candidate_costs_nothing_and_draws_the_fallback,
    );

    #[test]
    fn probe_step_probes_the_first_x_candidates_and_keeps_the_closest() {
        let topo = generate_transit_stub(
            &TransitStubParams::tsk_small_mini(),
            LatencyAssignment::manual(),
            3,
        );
        let oracle = RttOracle::new(topo.graph().clone());
        let me = NodeIdx(0);
        let found: Vec<PeerRecord> = (1..=20u32)
            .map(|i| PeerRecord {
                id: PeerId::from(i),
                underlay: NodeIdx(i * 13),
                vector: LandmarkVector::from_millis(&[1.0]),
                number: LandmarkNumber::new(0),
            })
            .collect();
        // Odd ids fit the slot; the store's order is the probe order.
        let candidates: Vec<PeerId> = (1..=20).filter(|id| id % 2 == 1).collect();
        let mut fallback = StdRng::seed_from_u64(1);
        for (budget, probed) in [(1, 1), (4, 4), (10, 10), (40, 10)] {
            let before = oracle.measurements();
            let chosen = probe_closest(&found, &candidates, me, budget, &oracle, &mut fallback);
            assert_eq!(oracle.measurements() - before, probed, "budget {budget}");
            let closest = candidates[..probed as usize]
                .iter()
                .map(|&id| (oracle.ground_truth(me, NodeIdx(id as u32 * 13)), id))
                .min()
                .unwrap();
            assert_eq!(chosen, closest.1, "budget {budget}");
        }
        // The fallback stream was never touched; nobody fitting touches only it.
        let before = oracle.measurements();
        let strangers = [100, 101, 102];
        let chosen = probe_closest(&found, &strangers, me, 10, &oracle, &mut fallback);
        assert_eq!(oracle.measurements(), before);
        assert_eq!(chosen, strangers[StdRng::seed_from_u64(1).gen_range(0..3)]);
    }
}
