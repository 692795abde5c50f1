//! Topology-aware **Chord** — the paper's generality claim, made concrete.
//!
//! Conclusion of the paper: "The techniques are generic for overlay
//! networks such as Pastry, Chord, and eCAN, where there exists flexibility
//! in selecting routing neighbors." This module runs the identical pipeline
//! on a Chord ring: landmark vectors → landmark numbers → soft-state
//! records stored at the number's *successor*
//! ([`tao_softstate::ring::RingState`]) → finger selection by looking up
//! the target interval's candidates and RTT-probing the top X.

use tao_util::det::DetMap;

use tao_util::rand::rngs::StdRng;
use tao_util::rand::{Rng, SeedableRng};
use tao_landmark::{LandmarkGrid, LandmarkVector};
use tao_overlay::chord::{
    ChordOverlay, ClosestFingerSelector, FingerSelector, RandomFingerSelector, RingId,
};
use tao_overlay::RouteScratch;
use tao_sim::{SimDuration, SimTime};
use tao_softstate::ring::{RingRecord, RingState};
use tao_softstate::SoftStateConfig;
use tao_topology::landmarks::{select_landmarks, LandmarkStrategy};
use tao_topology::{RttOracle, Topology};

use crate::metrics::{route_stretch, StretchSummary};
use crate::params::{ExperimentParams, SelectionStrategy};

/// A [`FingerSelector`] backed by the ring-keyed global soft-state: look up
/// the candidates physically closest to the owner (by landmark number),
/// keep those inside the finger interval, RTT-probe them, take the best.
#[derive(Debug)]
pub struct GlobalRingSelector<'a> {
    state: &'a RingState,
    oracle: &'a RttOracle,
    records: &'a DetMap<RingId, RingRecord>,
    rtt_budget: usize,
    max_hosts: usize,
    now: SimTime,
    fallback_rng: StdRng,
    /// One wide candidate fetch per owner, shared across all of its
    /// fingers: the node retrieves its physically-close peer set once and
    /// carves per-interval choices out of it.
    cache: DetMap<RingId, Vec<RingRecord>>,
}

impl<'a> GlobalRingSelector<'a> {
    /// Creates a selector.
    ///
    /// # Panics
    ///
    /// Panics if `rtt_budget` or `max_hosts` is zero.
    pub fn new(
        state: &'a RingState,
        oracle: &'a RttOracle,
        records: &'a DetMap<RingId, RingRecord>,
        rtt_budget: usize,
        max_hosts: usize,
        now: SimTime,
        seed: u64,
    ) -> Self {
        assert!(rtt_budget > 0, "rtt_budget must be at least 1");
        assert!(max_hosts > 0, "max_hosts must be at least 1");
        GlobalRingSelector {
            state,
            oracle,
            records,
            rtt_budget,
            max_hosts,
            now,
            fallback_rng: StdRng::seed_from_u64(seed),
            cache: DetMap::new(),
        }
    }

    fn candidates_for(&mut self, owner: RingId, ring: &ChordOverlay) -> &[RingRecord] {
        if !self.cache.contains_key(&owner) {
            let query = self.records.get(&owner).expect("owner has published"); // tao-lint: allow(no-unwrap-in-lib, reason = "owner has published")
            // Fetch wide: enough physically-close peers that every finger
            // interval of interest overlaps the set.
            let found = self.state.lookup_hosted(
                query,
                self.rtt_budget * 8,
                self.max_hosts,
                ring,
                self.now,
            );
            self.cache.insert(owner, found);
        }
        self.cache.get(&owner).expect("just inserted") // tao-lint: allow(no-unwrap-in-lib, reason = "just inserted")
    }
}

impl FingerSelector for GlobalRingSelector<'_> {
    fn select(&mut self, owner: RingId, candidates: &[RingId], ring: &ChordOverlay) -> RingId {
        let me = self.records.get(&owner).expect("owner has published").underlay; // tao-lint: allow(no-unwrap-in-lib, reason = "owner has published")
        let budget = self.rtt_budget;
        let close = self.candidates_for(owner, ring);
        let usable: Vec<(tao_topology::NodeIdx, RingId)> = close
            .iter()
            .filter(|r| candidates.contains(&r.ring))
            .take(budget)
            .map(|r| (r.underlay, r.ring))
            .collect();
        if usable.is_empty() {
            return candidates[self.fallback_rng.gen_range(0..candidates.len())];
        }
        usable
            .into_iter()
            .map(|(underlay, id)| (self.oracle.measure(me, underlay), id))
            .min_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)))
            .expect("usable is non-empty") // tao-lint: allow(no-unwrap-in-lib, reason = "usable is non-empty")
            .1
    }
}

/// A topology-aware Chord deployment: ring + ring-keyed soft-state.
#[derive(Debug)]
pub struct ChordAware {
    oracle: RttOracle,
    ring: ChordOverlay,
    state: RingState,
    records: DetMap<RingId, RingRecord>,
    params: ExperimentParams,
}

impl ChordAware {
    /// Assembles a Chord ring of `params.overlay_nodes` nodes on
    /// `topology`, publishes everyone's soft-state, and selects fingers
    /// with the configured strategy.
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters or an overlay larger than the topology.
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

        // Grid ceiling: twice the landmark diameter (as for eCAN).
        let mut ceiling = SimDuration::from_millis(1);
        for (i, &a) in landmarks.iter().enumerate() {
            for &b in &landmarks[i + 1..] {
                ceiling = ceiling.max(oracle.ground_truth(a, b));
            }
        }
        let grid = LandmarkGrid::new(
            params.landmark_vector_index,
            params.grid_bits,
            ceiling * 2,
        )
        .expect("validated grid parameters"); // tao-lint: allow(no-unwrap-in-lib, reason = "validated grid parameters")
        let config = SoftStateConfig::builder(grid).build();

        let mut ring = ChordOverlay::new();
        let mut state = RingState::new(config);
        let mut records = DetMap::new();
        let now = SimTime::ORIGIN;
        for underlay in topology.sample_nodes(params.overlay_nodes, &mut rng) {
            let id: RingId = rng.gen();
            ring.join(underlay, id);
            let vector = LandmarkVector::measure(underlay, &landmarks, &oracle);
            let number = config.grid().landmark_number(&vector, config.curve());
            let record = RingRecord {
                ring: id,
                underlay,
                vector,
                number,
            };
            state.publish(record.clone(), now);
            records.insert(id, record);
        }

        let mut aware = ChordAware {
            oracle,
            ring,
            state,
            records,
            params,
        };
        aware.reselect();
        aware
    }

    /// The ring.
    pub fn ring(&self) -> &ChordOverlay {
        &self.ring
    }

    /// The soft-state store.
    pub fn state(&self) -> &RingState {
        &self.state
    }

    /// The RTT oracle (shared meter).
    pub fn oracle(&self) -> &RttOracle {
        &self.oracle
    }

    /// Rebuilds all finger tables with the configured strategy.
    pub fn reselect(&mut self) {
        match self.params.selection {
            SelectionStrategy::Random => {
                self.ring
                    .build_fingers(&mut RandomFingerSelector::new(0x1234));
            }
            SelectionStrategy::Optimal => {
                let mut sel = ClosestFingerSelector::new(self.oracle.clone());
                self.ring.build_fingers(&mut sel);
            }
            SelectionStrategy::GlobalState => {
                // The ring is rebuilt against a snapshot of itself; split
                // borrows via a temporary ring avoid aliasing.
                let snapshot = self.ring.clone();
                let mut sel = GlobalRingSelector::new(
                    &self.state,
                    &self.oracle,
                    &self.records,
                    self.params.rtt_budget,
                    4,
                    SimTime::ORIGIN,
                    0x5678,
                );
                let ids: Vec<RingId> = snapshot.node_ids().collect();
                for id in ids {
                    self.ring.rebuild_fingers_of(id, &mut sel);
                }
            }
        }
    }

    /// Routing stretch over random `(start node, key)` lookups: path
    /// latency along the ring hops versus the direct latency from start to
    /// the key's home node.
    pub fn measure_routing_stretch(&self, routes: usize, seed: u64) -> StretchSummary {
        let mut rng = StdRng::seed_from_u64(seed);
        let ids: Vec<RingId> = self.ring.node_ids().collect();
        let mut summary = StretchSummary::new();
        let mut scratch = RouteScratch::new();
        for _ in 0..routes {
            let start = ids[rng.gen_range(0..ids.len())];
            let key: RingId = rng.gen();
            if self.ring.route_into(&mut scratch, start, key).is_err() {
                continue;
            }
            let underlays = scratch
                .ring_hops()
                .iter()
                .map(|&h| self.ring.underlay(h).expect("hops are ring members")); // tao-lint: allow(no-unwrap-in-lib, reason = "hops are ring members")
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
    use tao_topology::{generate_transit_stub, LatencyAssignment, TransitStubParams};

    fn params() -> ExperimentParams {
        ExperimentParams {
            overlay_nodes: 192,
            landmarks: 8,
            rtt_budget: 8,
            ..Default::default()
        }
    }

    fn topology() -> Topology {
        generate_transit_stub(
            &TransitStubParams::tsk_large_mini(),
            LatencyAssignment::manual(),
            61,
        )
    }

    #[test]
    fn builds_and_routes() {
        let topo = topology();
        let chord = ChordAware::build(&topo, params(), 1);
        assert_eq!(chord.ring().len(), 192);
        assert_eq!(chord.state().len(), 192);
        let s = chord.measure_routing_stretch(300, 2);
        assert!(s.count() > 250);
        assert!(s.min() >= 1.0 - 1e-9);
    }

    #[test]
    fn global_state_beats_random_fingers() {
        let topo = topology();
        let mut p = params();
        p.selection = SelectionStrategy::Random;
        let random = ChordAware::build(&topo, p, 3)
            .measure_routing_stretch(400, 4)
            .mean();
        p.selection = SelectionStrategy::GlobalState;
        let aware = ChordAware::build(&topo, p, 3)
            .measure_routing_stretch(400, 4)
            .mean();
        assert!(
            aware < random,
            "aware chord ({aware:.2}) should beat random ({random:.2})"
        );
    }

    #[test]
    fn optimal_bounds_global_state() {
        let topo = topology();
        let mut p = params();
        p.selection = SelectionStrategy::Optimal;
        let optimal = ChordAware::build(&topo, p, 5)
            .measure_routing_stretch(400, 6)
            .mean();
        p.selection = SelectionStrategy::GlobalState;
        let aware = ChordAware::build(&topo, p, 5)
            .measure_routing_stretch(400, 6)
            .mean();
        assert!(optimal <= aware * 1.05);
    }
}
