//! One topology-aware system for **eCAN**, **Chord** and **Pastry** — the
//! paper's generality claim ("generic for overlay networks such as Pastry,
//! Chord, and eCAN, where there exists flexibility in selecting routing
//! neighbors"), stated once.
//!
//! [`Aware`] runs the pipeline on any [`AwareOverlay`]: landmarks → vectors
//! → numbers → every member's record published into the overlay's
//! soft-state store → one table pass, in which the configured
//! [`SelectionStrategy`]'s [`NeighborSelector`] fills every routing slot.
//! An overlay contributes only what differs (its seeds, store, record,
//! store lookup and route keys); the shared body never asks which overlay
//! it holds.
//!
//! * **eCAN** ([`TopologyAwareOverlay`]) — one map per high-order zone
//!   ([`GlobalState`](tao_softstate::GlobalState)), read through
//!   [`GlobalStateSelector`](crate::GlobalStateSelector). Only eCAN has a
//!   clock, incremental membership (`join_node`, `depart`) and pub/sub.
//! * **Chord** and **Pastry** ([`ChordAware`], [`PastryAware`]) — one store,
//!   [`KeyedState`], over nodeId-prefix regions: a record sits at its
//!   landmark number's fraction of the region and lives on the region's
//!   *successor* of that position. Chord keeps one map, the whole ring, so
//!   a node fetches its close-peer set once and carves every finger
//!   interval's choice out of it; Pastry keeps one map per prefix, and
//!   instead of expanding-ring search at join plus gossip a table cell's
//!   candidates come from a hosted walk in the map of the cell's prefix.

use std::fmt::Debug;
use std::ops::RangeInclusive;

use tao_landmark::{LandmarkGrid, LandmarkNumber, LandmarkVector, SpaceFillingCurve};
use tao_overlay::chord::ChordOverlay;
use tao_overlay::ecan::EcanOverlay;
use tao_overlay::keyed::{KeyedOverlay, PeerId};
use tao_overlay::pastry::{PastryOverlay, DIGITS, DIGIT_BITS};
use tao_overlay::select::{ClosestSelector, NeighborSelector, RandomSelector, SlotOverlay};
use tao_overlay::RouteScratch;
use tao_sim::{SimDuration, SimTime};
use tao_softstate::pubsub::PubSub;
use tao_softstate::{KeyedState, PeerRecord, PrefixKey, SoftStateConfig};
use tao_topology::landmarks::{select_landmarks, LandmarkStrategy};
use tao_topology::{NodeIdx, RttOracle, Topology};
use tao_util::det::DetMap;
use tao_util::rand::rngs::StdRng;
use tao_util::rand::seq::SliceRandom;
use tao_util::rand::{Rng, SeedableRng};

use crate::metrics::{route_stretch, StretchSummary};
use crate::params::{ExperimentParams, SelectionStrategy};
use crate::selector::SelectorStats;

/// A member id of overlay `O`.
type Id<O> = <<O as AwareOverlay>::Slots as SlotOverlay>::Id;

/// What an overlay contributes to [`Aware`].
pub trait AwareOverlay: Sized {
    /// The overlay whose routing slots a selector fills: eCAN's CAN, or the
    /// id-keyed overlay itself.
    type Slots: SlotOverlay<Id: Debug>;
    /// The soft-state store the members publish into.
    type State: Debug;
    /// What a member publishes.
    type Record: Clone + Debug;
    /// What the soft-state selector keeps from one pass to the next.
    type Scratch: Default + Debug;
    /// What a route is drawn towards: a point (eCAN) or a key.
    type Key;
    /// Added to the build seed to seed the build's own stream (landmarks,
    /// participants, positions).
    const BUILD_SALT: u64;

    /// The `(random, fallback)` seeds of a whole-overlay table pass: the
    /// build's (`Some(seed)`), or a later one's at `now`.
    fn pass_seeds(build: Option<u64>, now: SimTime) -> (u64, u64);

    /// An empty overlay and store sized for `params.overlay_nodes` members.
    fn empty(config: SoftStateConfig, params: &ExperimentParams) -> (Self, Self::State);

    /// The overlay as its selectors see it.
    fn slots(&self) -> &Self::Slots;

    /// Every member, ascending.
    fn members(&self) -> Vec<Id<Self>>;

    /// Adds a member on `underlay` at a position drawn from `rng`; nobody's
    /// slots change.
    fn join_drawn(&mut self, underlay: NodeIdx, rng: &mut StdRng);

    /// What member `id` on router `underlay` publishes.
    fn record(
        id: Id<Self>,
        underlay: NodeIdx,
        vector: LandmarkVector,
        number: LandmarkNumber,
    ) -> Self::Record;

    /// Publishes `record` into `state` at `now`.
    fn publish(&self, state: &mut Self::State, record: Self::Record, now: SimTime);

    /// Refills every member's routing slots through `selector`.
    fn reselect(&mut self, selector: &mut dyn NeighborSelector<Self::Slots>);

    /// Runs `pass` on `aware`'s overlay with the soft-state selector over
    /// its store, whose fallback draw `fallback` seeds, and keeps in
    /// [`Aware::last_pass`] what that selector did.
    fn with_store_selector(
        aware: &mut Aware<Self>,
        fallback: u64,
        pass: impl FnOnce(&mut Self, &mut dyn NeighborSelector<Self::Slots>),
    );

    /// A route destination drawn from `rng`.
    fn draw_key(&self, rng: &mut StdRng) -> Self::Key;

    /// Routes from member `start` to `key`'s home: the hops, start first,
    /// or `None` if no route was made.
    fn route<'s>(
        &self,
        scratch: &'s mut RouteScratch,
        start: Id<Self>,
        key: &Self::Key,
    ) -> Option<&'s [Id<Self>]>;
}

/// A topology-aware deployment of an overlay: topology, RTT oracle,
/// landmarks, the overlay, its soft-state store and every member's record.
#[derive(Debug)]
pub struct Aware<O: AwareOverlay> {
    pub(crate) topology: Topology,
    pub(crate) oracle: RttOracle,
    pub(crate) landmarks: Vec<NodeIdx>,
    pub(crate) params: ExperimentParams,
    pub(crate) overlay: O,
    pub(crate) state: O::State,
    pub(crate) records: DetMap<Id<O>, O::Record>,
    /// Virtual time: eCAN's clock; the id-keyed systems stay at the origin.
    pub(crate) now: SimTime,
    /// Subscriptions to the overlay's regions (eCAN publishes joins).
    pub(crate) pubsub: PubSub,
    /// The soft-state selectors' scratch, lent to each pass: what it
    /// remembers stands while the state, the overlay and `now` do.
    pub(crate) scratch: O::Scratch,
    pub(crate) last_pass: SelectorStats,
}

/// Topology-aware eCAN: CAN + expressways + per-zone maps — the system the
/// paper's figures measure.
pub type TopologyAwareOverlay = Aware<EcanOverlay>;

/// Topology-aware Chord: ring + successor-hosted soft-state.
pub type ChordAware = Aware<ChordOverlay>;

/// Topology-aware Pastry: prefix overlay + per-prefix maps.
pub type PastryAware = Aware<PastryOverlay>;

/// The landmark-space grid every system quantises vectors on: the
/// (validated) `params`' index and resolution under an RTT ceiling of twice
/// the largest landmark-to-landmark distance, so in-range vectors rarely
/// saturate.
#[expect(clippy::expect_used, reason = "validated grid parameters")]
fn landmark_grid(
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
        .expect("validated grid parameters")
}

impl<O: AwareOverlay> Aware<O> {
    /// Assembles an overlay of `params.overlay_nodes` members on `topology`
    /// with random landmarks and Hilbert numbers, publishes everyone's
    /// soft-state, and fills every routing slot with the configured
    /// strategy. ([`TaoBuilder`](crate::TaoBuilder) sets the rest.)
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters or an overlay larger than the topology.
    // tao-lint: allow(panic-reachability, reason = "panics are the documented contract: validate() rejects bad parameters and the assert an overlay larger than the topology; past those the grid is valid and the 64-bit ids drawn from one seeded stream do not collide")
    pub fn build(topology: &Topology, params: ExperimentParams, seed: u64) -> Self {
        Self::assemble(topology.clone(), params, seed, SpaceFillingCurve::Hilbert)
    }

    /// The pipeline: landmarks → participants → vectors → numbers →
    /// publish → one table pass.
    pub(crate) fn assemble(
        topology: Topology,
        params: ExperimentParams,
        seed: u64,
        curve: SpaceFillingCurve,
    ) -> Self {
        params.validate();
        assert!(
            params.overlay_nodes <= topology.graph().node_count(),
            "overlay larger than the topology"
        );
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(O::BUILD_SALT));
        let oracle = RttOracle::new(topology.graph().clone());
        // (`warm` is a no-op on a graph whose distances factor — every
        // transit-stub one; on a graph that falls back to rows it computes
        // the landmarks' rows ahead of the vectors.)
        let landmarks = select_landmarks(
            topology.graph(),
            params.landmarks,
            LandmarkStrategy::Random,
            &mut rng,
        );
        oracle.warm(&landmarks);
        let config = SoftStateConfig::builder(landmark_grid(&oracle, &landmarks, &params))
            .curve(curve)
            .condense_rate(params.condense_rate)
            .build();

        let (mut overlay, state) = O::empty(config, &params);
        for underlay in topology.sample_nodes(params.overlay_nodes, &mut rng) {
            overlay.join_drawn(underlay, &mut rng);
        }
        let mut aware = Aware {
            topology,
            oracle,
            landmarks,
            params,
            overlay,
            state,
            records: DetMap::new(),
            now: SimTime::ORIGIN,
            pubsub: PubSub::new(),
            scratch: O::Scratch::default(),
            last_pass: SelectorStats::default(),
        };
        for id in aware.overlay.members() {
            aware.publish_member(id, &config);
        }
        aware.with_selector(O::pass_seeds(Some(seed), aware.now), |o, selector| {
            o.reselect(selector)
        });
        aware
    }

    /// Member `id`'s join step: measures its landmark vector (RTT probes,
    /// charged), derives its number on `config`'s grid and curve, publishes
    /// its record at `now` and keeps it.
    pub(crate) fn publish_member(&mut self, id: Id<O>, config: &SoftStateConfig) -> O::Record {
        #[expect(clippy::expect_used, reason = "members have routers")]
        let underlay = self
            .overlay
            .slots()
            .underlay(id)
            .expect("members have routers");
        let vector = LandmarkVector::measure(underlay, &self.landmarks, &self.oracle);
        let number = config.grid().landmark_number(&vector, config.curve());
        let record = O::record(id, underlay, vector, number);
        self.overlay
            .publish(&mut self.state, record.clone(), self.now);
        self.records.insert(id, record.clone());
        record
    }

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

    /// The overlay.
    pub fn overlay(&self) -> &O {
        &self.overlay
    }

    /// The soft-state store.
    pub fn state(&self) -> &O::State {
        &self.state
    }

    /// Mutable access to the soft-state store (for churn experiments).
    pub fn state_mut(&mut self) -> &mut O::State {
        &mut self.state
    }

    /// The record member `id` published.
    pub fn info(&self, id: Id<O>) -> Option<&O::Record> {
        self.records.get(&id)
    }

    /// What the soft-state selector of the latest pass did — the build's,
    /// or the last re-selection's since (zeros under the other strategies).
    pub fn last_pass(&self) -> SelectorStats {
        self.last_pass
    }

    /// Runs `f` on the overlay with the configured strategy's selector over
    /// the current soft-state — the one place a [`SelectionStrategy`]
    /// becomes a selector. `random` seeds [`RandomSelector`], `fallback` the
    /// soft-state selector's fallback draw.
    pub(crate) fn with_selector(
        &mut self,
        (random, fallback): (u64, u64),
        f: impl FnOnce(&mut O, &mut dyn NeighborSelector<O::Slots>),
    ) {
        self.last_pass = SelectorStats::default();
        match self.params.selection {
            SelectionStrategy::Random => f(&mut self.overlay, &mut RandomSelector::new(random)),
            SelectionStrategy::Optimal => f(
                &mut self.overlay,
                &mut ClosestSelector::new(self.oracle.clone()),
            ),
            SelectionStrategy::GlobalState => O::with_store_selector(self, fallback, f),
        }
    }

    /// Refills every member's routing slots with the configured strategy
    /// against the *current* soft-state (e.g. after churn or TTL decay).
    // tao-lint: allow(panic-reachability, reason = "a table pass panics only for a member with no published record or a slot offering nobody; every member joined publishes a record (depart drops it with the member), and the overlays list only non-empty slots")
    pub fn reselect(&mut self) {
        let seeds = O::pass_seeds(None, self.now);
        self.with_selector(seeds, |overlay, selector| overlay.reselect(selector));
    }

    /// Routing stretch over `routes` random `(start member, destination)`
    /// pairs: latency accumulated along the overlay hops over the direct
    /// latency from the start to the destination's home. Pairs whose start
    /// is the home, whose endpoints are co-located (zero direct latency) or
    /// that found no route are skipped.
    // tao-lint: allow(panic-reachability, reason = "build leaves at least two members to draw a start from, and every hop a route records is a member, so its underlay lookup hits")
    pub fn measure_routing_stretch(&self, routes: usize, seed: u64) -> StretchSummary {
        let mut rng = StdRng::seed_from_u64(seed);
        let members = self.overlay.members();
        let slots = self.overlay.slots();
        let mut summary = StretchSummary::new();
        let mut scratch = RouteScratch::new();
        for _ in 0..routes {
            let start = members[rng.gen_range(0..members.len())];
            let key = self.overlay.draw_key(&mut rng);
            let Some(hops) = self.overlay.route(&mut scratch, start, &key) else {
                continue;
            };
            #[expect(clippy::expect_used, reason = "hops are members")]
            let underlays = hops
                .iter()
                .map(|&h| slots.underlay(h).expect("hops are members"));
            if let Some(stretch) = route_stretch(underlays, &self.oracle) {
                summary.add(stretch);
            }
        }
        summary
    }

    /// Draws `count` distinct members.
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds the number of members.
    pub fn sample_overlay_nodes(&self, count: usize, seed: u64) -> Vec<Id<O>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut members = self.overlay.members();
        assert!(count <= members.len(), "not enough live nodes");
        members.shuffle(&mut rng);
        members.truncate(count);
        members
    }
}

/// What Chord and Pastry contribute to their [`AwareOverlay`] items: their
/// seeds, the prefix depths that get maps, and the region a routing slot
/// reads. Everything else — a member joins at a random id, publishes a
/// [`PeerRecord`] into a [`KeyedState`], routes to a random key — they
/// share.
pub trait KeyedStore: KeyedOverlay + Default {
    /// [`AwareOverlay::pass_seeds`]: every pass's, the build's included.
    const SEEDS: (u64, u64);

    /// The prefix lengths whose regions get maps, for `nodes` members.
    fn depths(nodes: usize) -> RangeInclusive<u32>;

    /// The region whose map `owner`'s `slot` reads, in a store whose
    /// deepest maps have `deepest` digits.
    fn region(owner: PeerId, slot: &Self::Slot, deepest: u32) -> PrefixKey;
}

impl<K: KeyedStore> AwareOverlay for K {
    type Slots = K;
    type State = KeyedState;
    type Record = PeerRecord;
    type Scratch = ();
    type Key = PeerId;
    const BUILD_SALT: u64 = 0;

    fn pass_seeds(_: Option<u64>, _: SimTime) -> (u64, u64) {
        K::SEEDS
    }

    fn empty(config: SoftStateConfig, params: &ExperimentParams) -> (K, KeyedState) {
        let depths = K::depths(params.overlay_nodes);
        (K::default(), KeyedState::new(config, depths))
    }

    fn slots(&self) -> &K {
        self
    }

    fn members(&self) -> Vec<PeerId> {
        self.node_ids().collect()
    }

    fn join_drawn(&mut self, underlay: NodeIdx, rng: &mut StdRng) {
        self.join(underlay, rng.gen());
    }

    fn record(
        id: PeerId,
        underlay: NodeIdx,
        vector: LandmarkVector,
        number: LandmarkNumber,
    ) -> PeerRecord {
        PeerRecord {
            id,
            underlay,
            vector,
            number,
        }
    }

    fn publish(&self, state: &mut KeyedState, record: PeerRecord, now: SimTime) {
        state.publish(record, now);
    }

    fn reselect(&mut self, selector: &mut dyn NeighborSelector<K>) {
        KeyedOverlay::reselect(self, selector);
    }

    fn with_store_selector(
        aware: &mut Aware<K>,
        fallback: u64,
        pass: impl FnOnce(&mut K, &mut dyn NeighborSelector<K>),
    ) {
        let before = aware.oracle.measurements();
        let mut selector = StoreSelector {
            state: &aware.state,
            oracle: &aware.oracle,
            records: &aware.records,
            rtt_budget: aware.params.rtt_budget,
            fallback: StdRng::seed_from_u64(fallback),
            found: Vec::new(),
            found_for: None,
            stats: SelectorStats::default(),
        };
        pass(&mut aware.overlay, &mut selector);
        let probes = aware.oracle.measurements() - before;
        aware.last_pass = SelectorStats {
            probes,
            ..selector.stats
        };
    }

    fn draw_key(&self, rng: &mut StdRng) -> PeerId {
        rng.gen()
    }

    fn route<'s>(
        &self,
        scratch: &'s mut RouteScratch,
        start: PeerId,
        key: &PeerId,
    ) -> Option<&'s [PeerId]> {
        self.route_into(scratch, start, *key).ok()?;
        Some(scratch.ring_hops())
    }
}

/// The probe step every id-keyed soft-state selection ends in: of the
/// records the store `found`, keep the slot's `candidates`, RTT-probe the
/// first `budget` from `me` (charged to the oracle's meter), take the
/// closest by `(rtt, id)`. `None` — nothing charged — when the store named
/// no candidate.
fn probe_closest(
    found: &[PeerRecord],
    candidates: &[PeerId],
    me: NodeIdx,
    budget: usize,
    oracle: &RttOracle,
) -> Option<PeerId> {
    let fitting = found.iter().filter(|r| candidates.contains(&r.id));
    let probed = fitting
        .take(budget)
        .map(|r| (oracle.measure(me, r.underlay), r.id));
    probed.min().map(|(_, id)| id)
}

/// The [`NeighborSelector`] backed by an id-keyed overlay's store. When the
/// store names no candidate the choice is a draw from the fallback stream —
/// a fresh deployment.
struct StoreSelector<'a> {
    state: &'a KeyedState,
    oracle: &'a RttOracle,
    records: &'a DetMap<PeerId, PeerRecord>,
    rtt_budget: usize,
    fallback: StdRng,
    /// The store's last answer, and the `(owner, region)` it was for.
    found: Vec<PeerRecord>,
    found_for: Option<(PeerId, PrefixKey)>,
    stats: SelectorStats,
}

impl<K: KeyedStore> NeighborSelector<K> for StoreSelector<'_> {
    fn select(
        &mut self,
        owner: PeerId,
        slot: &K::Slot,
        candidates: &[PeerId],
        overlay: &K,
    ) -> PeerId {
        #[expect(clippy::expect_used, reason = "every member published at build")]
        let query = self
            .records
            .get(&owner)
            .expect("every member published at build");
        self.stats.selections += 1;
        let region = K::region(owner, slot, *self.state.depths().end());
        if self.found_for != Some((owner, region)) {
            self.stats.lookups += 1;
            // 8·X records from at most 4 hosts: enough physically close
            // peers that the slots of interest overlap the set.
            let (max, hosts) = (8 * self.rtt_budget, 4);
            self.found = self
                .state
                .lookup(region, query, max, hosts, overlay, SimTime::ORIGIN);
            self.found_for = Some((owner, region));
        }
        let chosen = probe_closest(
            &self.found,
            candidates,
            query.underlay,
            self.rtt_budget,
            self.oracle,
        );
        chosen.unwrap_or_else(|| {
            self.stats.fallbacks += 1;
            candidates[self.fallback.gen_range(0..candidates.len())]
        })
    }
}

/// Chord's one map is the whole ring, so every finger of an owner reads the
/// same close-peer set.
impl KeyedStore for ChordOverlay {
    const SEEDS: (u64, u64) = (0x1234, 0x5678);

    fn depths(_: usize) -> RangeInclusive<u32> {
        0..=0
    }

    fn region(_: PeerId, _: &u32, _: u32) -> PrefixKey {
        PrefixKey::WHOLE
    }
}

impl KeyedStore for PastryOverlay {
    const SEEDS: (u64, u64) = (0x9abc, 0xdef0);

    /// Maps exist for prefixes of 1 to log16(N) + 1 digits.
    fn depths(nodes: usize) -> RangeInclusive<u32> {
        let deepest = ((nodes as f64).log2() / 4.0).ceil() as u32 + 1;
        1..=deepest.clamp(1, DIGITS)
    }

    /// The region of cell `(row, digit)`: the owner's first `row` digits
    /// then `digit`, cut to the deepest prefix that has a map.
    fn region(owner: PeerId, &(row, digit): &(u32, u8), deepest: u32) -> PrefixKey {
        let shift = (DIGITS - 1 - row) * DIGIT_BITS;
        let cell = owner & !(0xF << shift) | u64::from(digit) << shift;
        PrefixKey::of(cell, (row + 1).min(deepest))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tao_overlay::ecan::BoxSelection;
    use tao_overlay::{CanOverlay, OverlayNodeId, Point};
    use tao_softstate::GlobalState;
    use tao_topology::{generate_transit_stub, LatencyAssignment, TransitStubParams};

    /// What the shared test bodies ask of an overlay beyond [`AwareOverlay`].
    trait Subject: AwareOverlay<Key: PartialEq + Debug + Clone> {
        /// Seed of the test topology.
        const TOPOLOGY_SEED: u64;
        fn check_invariants(&self);
        /// The member responsible for `key`.
        fn home_of(&self, key: &Self::Key) -> Id<Self>;
        /// Asserts `state` holds what `members` publishers wrote.
        fn check_published(state: &Self::State, members: usize);
        /// A store, for `aware`'s configuration, naming none of its members.
        fn store_naming_nobody(aware: &Aware<Self>, topo: &Topology) -> Self::State;
    }

    /// `RandomSelector`'s draw over a listed slot, and nothing else: eCAN
    /// lists every box for it, as for the soft-state selector's fallback,
    /// where `RandomSelector` itself would sample the split tree.
    struct Listed(RandomSelector);

    impl<O: SlotOverlay> NeighborSelector<O> for Listed {
        fn select(&mut self, n: O::Id, slot: &O::Slot, ids: &[O::Id], o: &O) -> O::Id {
            self.0.select(n, slot, ids, o)
        }
    }

    impl Subject for EcanOverlay {
        const TOPOLOGY_SEED: u64 = 51;

        fn check_invariants(&self) {
            EcanOverlay::check_invariants(self);
        }

        fn home_of(&self, key: &Point) -> OverlayNodeId {
            self.can().owner(key)
        }

        fn check_published(state: &GlobalState, members: usize) {
            // One entry per member per enclosing high-order zone, at least.
            assert!(state.total_entries() >= members);
        }

        /// eCAN ids are dense, so another deployment's records would name
        /// members here: the store that names nobody is an empty one.
        fn store_naming_nobody(aware: &Aware<Self>, _: &Topology) -> GlobalState {
            GlobalState::new(*aware.state().config())
        }
    }

    /// Another deployment's store: full of records, none of them a member.
    fn strangers<O: Subject<Slots = O> + KeyedOverlay>(
        aware: &Aware<O>,
        topo: &Topology,
    ) -> O::State {
        let stranger = Aware::<O>::build(topo, params(SelectionStrategy::Random), 10);
        assert!(stranger
            .overlay()
            .node_ids()
            .all(|id| aware.overlay().underlay(id).is_none()));
        stranger.state
    }

    impl Subject for ChordOverlay {
        const TOPOLOGY_SEED: u64 = 61;

        fn check_invariants(&self) {
            ChordOverlay::check_invariants(self);
        }

        fn home_of(&self, key: &PeerId) -> PeerId {
            self.successor(*key).unwrap()
        }

        fn check_published(state: &KeyedState, members: usize) {
            assert_eq!(state.len(), members);
        }

        fn store_naming_nobody(aware: &Aware<Self>, topo: &Topology) -> KeyedState {
            strangers(aware, topo)
        }
    }

    impl Subject for PastryOverlay {
        const TOPOLOGY_SEED: u64 = 71;

        fn check_invariants(&self) {
            PastryOverlay::check_invariants(self);
        }

        fn home_of(&self, key: &PeerId) -> PeerId {
            self.root_of(*key).unwrap()
        }

        fn check_published(state: &KeyedState, members: usize) {
            // One record per prefix length per node.
            assert_eq!(state.len(), members * state.depths().count());
        }

        fn store_naming_nobody(aware: &Aware<Self>, topo: &Topology) -> KeyedState {
            strangers(aware, topo)
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
        Aware::<O>::build(topo, params(selection), build_seed)
            .measure_routing_stretch(400, route_seed)
            .mean()
    }

    /// The `(key, hops)` of the routes `measure_routing_stretch(300, 8)`
    /// draws — the same stream, replayed.
    fn routes_of<O: Subject>(aware: &Aware<O>) -> Vec<(O::Key, Vec<Id<O>>)> {
        let mut rng = StdRng::seed_from_u64(8);
        let members = aware.overlay().members();
        let mut scratch = RouteScratch::new();
        let mut routes = Vec::new();
        for _ in 0..300 {
            let start = members[rng.gen_range(0..members.len())];
            let key = aware.overlay().draw_key(&mut rng);
            if let Some(hops) = aware.overlay().route(&mut scratch, start, &key) {
                routes.push((key, hops.to_vec()));
            }
        }
        routes
    }

    fn builds_publishes_and_routes<O: Subject>() {
        let aware = Aware::<O>::build(&topology::<O>(), params(SelectionStrategy::GlobalState), 1);
        assert_eq!(aware.overlay().members().len(), NODES);
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
        assert!(
            optimal <= aware * 1.05,
            "optimal ({optimal:.3}) lost to global state ({aware:.3})"
        );
    }

    /// Forwards to `inner` after checking what every slot offers, what the
    /// choice cost and that it was admissible.
    struct Checked<'a, S: SlotOverlay> {
        inner: &'a mut dyn NeighborSelector<S>,
        oracle: &'a RttOracle,
        /// Probes one selection may charge.
        budget: u64,
        slots: usize,
    }

    impl<S: SlotOverlay<Id: Debug>> Checked<'_, S> {
        fn metered<T>(
            &mut self,
            owner: S::Id,
            ask: impl FnOnce(&mut dyn NeighborSelector<S>) -> T,
        ) -> T {
            let before = self.oracle.measurements();
            let answer = ask(&mut *self.inner);
            let spent = self.oracle.measurements() - before;
            assert!(
                spent <= self.budget,
                "{spent} probes for one slot of {owner:?}"
            );
            answer
        }
    }

    impl<S: SlotOverlay<Id: Debug>> NeighborSelector<S> for Checked<'_, S> {
        fn select(
            &mut self,
            owner: S::Id,
            slot: &S::Slot,
            candidates: &[S::Id],
            overlay: &S,
        ) -> S::Id {
            assert!(!candidates.is_empty(), "a slot of {owner:?} offered nobody");
            assert!(!candidates.contains(&owner), "{owner:?} offered to itself");
            let chosen = self.metered(owner, |inner| {
                inner.select(owner, slot, candidates, overlay)
            });
            assert!(candidates.contains(&chosen), "{chosen:?} was not offered");
            self.slots += 1;
            chosen
        }

        fn select_in_box(
            &mut self,
            owner: S::Id,
            slot: &S::Slot,
            overlay: &S,
        ) -> BoxSelection<S::Id> {
            let answer = self.metered(owner, |inner| inner.select_in_box(owner, slot, overlay));
            if let BoxSelection::Chosen(chosen) = answer {
                assert_ne!(chosen, owner, "{owner:?} chose itself");
                self.slots += 1;
            }
            answer
        }
    }

    fn every_strategy_fills_valid_slots_and_routes_home<O: Subject>() {
        let topo = topology::<O>();
        for selection in STRATEGIES {
            let mut aware = Aware::<O>::build(&topo, params(selection), 7);
            aware.overlay().check_invariants();

            let oracle = aware.oracle().clone();
            let soft_state = selection == SelectionStrategy::GlobalState;
            let budget = if soft_state { BUDGET as u64 } else { 0 };
            let mut slots = 0;
            aware.with_selector(O::pass_seeds(None, SimTime::ORIGIN), |overlay, inner| {
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
                    aware.overlay().home_of(&key),
                    "{selection:?}"
                );
            }
            assert!(aware.measure_routing_stretch(300, 8).count() > 250);
        }
    }

    fn a_store_naming_no_candidate_costs_nothing_and_draws_the_fallback<O: Subject>() {
        let topo = topology::<O>();
        let mut aware = Aware::<O>::build(&topo, params(SelectionStrategy::GlobalState), 9);
        aware.state = O::store_naming_nobody(&aware, &topo);

        let before = aware.oracle().measurements();
        aware.reselect();
        assert_eq!(
            aware.oracle().measurements(),
            before,
            "no candidate, no probe"
        );
        let pass = aware.last_pass();
        assert_eq!((pass.probes, pass.fallbacks), (0, pass.selections));
        aware.overlay().check_invariants();
        let fallen_back = routes_of(&aware);
        let (_, fallback) = O::pass_seeds(None, SimTime::ORIGIN);
        let mut listed = Listed(RandomSelector::new(fallback));
        aware.overlay.reselect(&mut listed);
        assert_eq!(
            fallen_back,
            routes_of(&aware),
            "every slot draws from the fallback stream"
        );
    }

    macro_rules! on_every_overlay {
        ($($test:ident),* $(,)?) => {
            mod ecan {
                $(#[test] fn $test() { super::$test::<super::EcanOverlay>() })*
            }
            mod chord {
                $(#[test] fn $test() { super::$test::<super::ChordOverlay>() })*
            }
            mod pastry {
                $(#[test] fn $test() { super::$test::<super::PastryOverlay>() })*
            }
        };
    }

    on_every_overlay!(
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
        for (budget, probed) in [(1, 1), (4, 4), (10, 10), (40, 10)] {
            let before = oracle.measurements();
            let chosen = probe_closest(&found, &candidates, me, budget, &oracle);
            assert_eq!(oracle.measurements() - before, probed, "budget {budget}");
            let closest = candidates[..probed as usize]
                .iter()
                .map(|&id| (oracle.ground_truth(me, NodeIdx(id as u32 * 13)), id))
                .min()
                .unwrap();
            assert_eq!(chosen, Some(closest.1), "budget {budget}");
        }
        // Nobody fitting: nothing probed, nothing chosen.
        let before = oracle.measurements();
        assert_eq!(
            probe_closest(&found, &[100, 101, 102], me, 10, &oracle),
            None
        );
        assert_eq!(oracle.measurements(), before);
    }

    #[test]
    fn a_pastry_cell_reads_the_map_of_its_own_prefix() {
        let topo = topology::<PastryOverlay>();
        let aware = PastryAware::build(&topo, params(SelectionStrategy::GlobalState), 2);
        let (pastry, state) = (aware.overlay(), aware.state());
        let deepest = *state.depths().end();
        let owner = pastry.node_ids().next().unwrap();
        let query = aware.info(owner).unwrap();
        for row in 0..DIGITS {
            for digit in 0..16u8 {
                let members = pastry.members_of_slot(owner, row, digit);
                let Some(&member) = members.iter().find(|&&m| m != owner) else {
                    continue;
                };
                // The region a listed member's prefix names is the slot's own.
                let region = PastryOverlay::region(owner, &(row, digit), deepest);
                assert_eq!(region, PrefixKey::of(member, (row + 1).min(deepest)));
                assert!(
                    members.iter().all(|&m| region.covers(m)),
                    "cell ({row}, {digit})"
                );
                let found = state.lookup(region, query, 8 * BUDGET, 4, pastry, SimTime::ORIGIN);
                assert!(found.iter().all(|r| region.covers(r.id) && r.id != owner));
            }
        }
        // `CanOverlay` is the default slot overlay.
        let _: &dyn NeighborSelector = &RandomSelector::new(0) as &dyn NeighborSelector<CanOverlay>;
    }
}
