//! Topology-aware **Pastry** — the paper's generality claim on its primary
//! comparison target.
//!
//! Pastry already does proximity-neighbor selection; what the paper
//! replaces is *how the candidates are found*: instead of expanding-ring
//! search at join plus gossip for maintenance, each routing-table slot's
//! candidates come from the global soft-state map of the slot's prefix
//! region ([`tao_softstate::prefix::PrefixState`]), followed by a handful
//! of real RTT probes.

use tao_util::det::DetMap;

use tao_util::rand::rngs::StdRng;
use tao_util::rand::{Rng, SeedableRng};
use tao_landmark::{LandmarkGrid, LandmarkVector};
use tao_overlay::pastry::{
    shared_prefix_len, ClosestEntrySelector, EntrySelector, PastryId, PastryOverlay,
    RandomEntrySelector, DIGITS,
};
use tao_overlay::RouteScratch;
use tao_sim::{SimDuration, SimTime};
use tao_softstate::prefix::{PrefixKey, PrefixRecord, PrefixState};
use tao_softstate::SoftStateConfig;
use tao_topology::landmarks::{select_landmarks, LandmarkStrategy};
use tao_topology::{RttOracle, Topology};

use crate::metrics::{route_stretch, StretchSummary};
use crate::params::{ExperimentParams, SelectionStrategy};

/// An [`EntrySelector`] backed by the per-prefix soft-state maps: derive
/// the slot's prefix region from the candidate set, look up the owner's
/// landmark-nearest members of that region, RTT-probe the top X, keep the
/// closest.
#[derive(Debug)]
pub struct GlobalPrefixSelector<'a> {
    state: &'a PrefixState,
    oracle: &'a RttOracle,
    records: &'a DetMap<PastryId, PrefixRecord>,
    rtt_budget: usize,
    overscan: usize,
    now: SimTime,
    fallback_rng: StdRng,
}

impl<'a> GlobalPrefixSelector<'a> {
    /// Creates a selector.
    ///
    /// # Panics
    ///
    /// Panics if `rtt_budget` or `overscan` is zero.
    pub fn new(
        state: &'a PrefixState,
        oracle: &'a RttOracle,
        records: &'a DetMap<PastryId, PrefixRecord>,
        rtt_budget: usize,
        overscan: usize,
        now: SimTime,
        seed: u64,
    ) -> Self {
        assert!(rtt_budget > 0, "rtt_budget must be at least 1");
        assert!(overscan > 0, "overscan must be at least 1");
        GlobalPrefixSelector {
            state,
            oracle,
            records,
            rtt_budget,
            overscan,
            now,
            fallback_rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl EntrySelector for GlobalPrefixSelector<'_> {
    fn select(
        &mut self,
        owner: PastryId,
        candidates: &[PastryId],
        _overlay: &PastryOverlay,
    ) -> PastryId {
        let query = self.records.get(&owner).expect("owner has published"); // tao-lint: allow(no-unwrap-in-lib, reason = "owner has published")
        // All candidates share `row` digits with the owner and one more
        // digit among themselves: that (row+1)-digit prefix is the slot's
        // region.
        let row = shared_prefix_len(owner, candidates[0]);
        let region_len = (row + 1).min(self.state.max_len()).min(DIGITS);
        let region = PrefixKey::of(candidates[0], region_len);
        let found = self.state.lookup(
            region,
            query,
            self.rtt_budget,
            self.overscan,
            self.now,
        );
        let usable: Vec<&PrefixRecord> = found
            .iter()
            .filter(|r| candidates.contains(&r.id))
            .collect();
        if usable.is_empty() {
            return candidates[self.fallback_rng.gen_range(0..candidates.len())];
        }
        let me = query.underlay;
        usable
            .into_iter()
            .map(|r| (self.oracle.measure(me, r.underlay), r.id))
            .min_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)))
            .expect("usable is non-empty") // tao-lint: allow(no-unwrap-in-lib, reason = "usable is non-empty")
            .1
    }
}

/// A topology-aware Pastry deployment: prefix overlay + per-prefix maps.
#[derive(Debug)]
pub struct PastryAware {
    oracle: RttOracle,
    overlay: PastryOverlay,
    state: PrefixState,
    records: DetMap<PastryId, PrefixRecord>,
    params: ExperimentParams,
}

impl PastryAware {
    /// Assembles a Pastry overlay of `params.overlay_nodes` nodes on
    /// `topology`, publishes everyone's records, and builds routing tables
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

        // Maps exist for prefixes up to log16(N) + 1 digits.
        let max_len = ((params.overlay_nodes as f64).log2() / 4.0).ceil() as u32 + 1;
        let mut overlay = PastryOverlay::new(8);
        let mut state = PrefixState::new(config, max_len.clamp(1, DIGITS));
        let mut records = DetMap::new();
        let now = SimTime::ORIGIN;
        for underlay in topology.sample_nodes(params.overlay_nodes, &mut rng) {
            let id: PastryId = rng.gen();
            overlay.join(underlay, id);
            let vector = LandmarkVector::measure(underlay, &landmarks, &oracle);
            let number = config.grid().landmark_number(&vector, config.curve());
            let record = PrefixRecord {
                id,
                underlay,
                vector,
                number,
            };
            state.publish(record.clone(), now);
            records.insert(id, record);
        }

        let mut aware = PastryAware {
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
    pub fn overlay(&self) -> &PastryOverlay {
        &self.overlay
    }

    /// The per-prefix soft-state.
    pub fn state(&self) -> &PrefixState {
        &self.state
    }

    /// The RTT oracle (shared meter).
    pub fn oracle(&self) -> &RttOracle {
        &self.oracle
    }

    /// Rebuilds every routing table with the configured strategy.
    pub fn reselect(&mut self) {
        match self.params.selection {
            SelectionStrategy::Random => {
                self.overlay
                    .build_tables(&mut RandomEntrySelector::new(0x9abc));
            }
            SelectionStrategy::Optimal => {
                let mut sel = ClosestEntrySelector::new(self.oracle.clone());
                self.overlay.build_tables(&mut sel);
            }
            SelectionStrategy::GlobalState => {
                let snapshot = self.overlay.clone();
                let mut sel = GlobalPrefixSelector::new(
                    &self.state,
                    &self.oracle,
                    &self.records,
                    self.params.rtt_budget,
                    self.params.lookup_overscan,
                    SimTime::ORIGIN,
                    0xdef0,
                );
                let ids: Vec<PastryId> = snapshot.node_ids().collect();
                for id in ids {
                    self.overlay.rebuild_node(id, &mut sel);
                }
            }
        }
    }

    /// Routing stretch over random `(start, key)` lookups.
    pub fn measure_routing_stretch(&self, routes: usize, seed: u64) -> StretchSummary {
        let mut rng = StdRng::seed_from_u64(seed);
        let ids: Vec<PastryId> = self.overlay.node_ids().collect();
        let mut summary = StretchSummary::new();
        let mut scratch = RouteScratch::new();
        for _ in 0..routes {
            let start = ids[rng.gen_range(0..ids.len())];
            let key: PastryId = rng.gen();
            if self.overlay.route_into(&mut scratch, start, key).is_err() {
                continue;
            }
            let underlays = scratch
                .ring_hops()
                .iter()
                .map(|&h| self.overlay.underlay(h).expect("hops are present")); // tao-lint: allow(no-unwrap-in-lib, reason = "hops are present")
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
            71,
        )
    }

    #[test]
    fn builds_publishes_and_routes() {
        let topo = topology();
        let pastry = PastryAware::build(&topo, params(), 1);
        assert_eq!(pastry.overlay().len(), 192);
        // One record per prefix length per node.
        assert_eq!(
            pastry.state().total_entries(),
            192 * pastry.state().max_len() as usize
        );
        let s = pastry.measure_routing_stretch(300, 2);
        assert!(s.count() > 250);
        assert!(s.min() >= 1.0 - 1e-9);
    }

    #[test]
    fn global_state_beats_random_tables() {
        let topo = topology();
        let mut p = params();
        p.selection = SelectionStrategy::Random;
        let random = PastryAware::build(&topo, p, 3)
            .measure_routing_stretch(400, 4)
            .mean();
        p.selection = SelectionStrategy::GlobalState;
        let aware = PastryAware::build(&topo, p, 3)
            .measure_routing_stretch(400, 4)
            .mean();
        assert!(
            aware < random,
            "aware pastry ({aware:.2}) should beat random ({random:.2})"
        );
    }

    #[test]
    fn optimal_bounds_global_state() {
        let topo = topology();
        let mut p = params();
        p.selection = SelectionStrategy::Optimal;
        let optimal = PastryAware::build(&topo, p, 5)
            .measure_routing_stretch(400, 6)
            .mean();
        p.selection = SelectionStrategy::GlobalState;
        let aware = PastryAware::build(&topo, p, 5)
            .measure_routing_stretch(400, 6)
            .mean();
        assert!(optimal <= aware * 1.05);
    }
}
