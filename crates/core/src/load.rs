//! Load-aware neighbor selection (§6 — "Other Uses of Global States").
//!
//! "Nodes can trade off network distance with forwarding capacity and
//! current load while selecting neighbors." Nodes publish [`LoadStats`]
//! along with their proximity information; [`LoadAwareSelector`] scores map
//! candidates by RTT inflated by utilization, so a nearby-but-saturated
//! node loses to a slightly farther idle one.

use tao_util::det::DetMap;

use tao_overlay::ecan::NeighborSelector;
use tao_overlay::{CanOverlay, OverlayNodeId, Zone};
use tao_softstate::LoadStats;
use tao_topology::RttOracle;
use tao_util::rand::rngs::StdRng;
use tao_util::rand::{Rng, SeedableRng};

/// Assigns heterogeneous capacities and tracks current load.
///
/// Capacities follow the measured heterogeneity of peer-to-peer deployments
/// the paper's companion work cites: an order-of-magnitude spread with few
/// strong nodes (10% at 100x, 30% at 10x, 60% at 1x).
#[derive(Debug, Clone)]
pub struct LoadModel {
    stats: DetMap<OverlayNodeId, LoadStats>,
}

impl LoadModel {
    /// Creates a heterogeneous model over `nodes`, initially idle.
    pub fn heterogeneous(nodes: impl IntoIterator<Item = OverlayNodeId>, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let stats = nodes
            .into_iter()
            .map(|n| {
                let r: f64 = rng.gen();
                let capacity = if r < 0.10 {
                    100.0
                } else if r < 0.40 {
                    10.0
                } else {
                    1.0
                };
                (
                    n,
                    LoadStats {
                        capacity,
                        current_load: 0.0,
                    },
                )
            })
            .collect();
        LoadModel { stats }
    }

    /// Creates a model where every node has the same `capacity`, initially
    /// idle — the no-skew baseline the replay harness compares the
    /// heterogeneous mix against.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not strictly positive and finite.
    pub fn uniform(nodes: impl IntoIterator<Item = OverlayNodeId>, capacity: f64) -> Self {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "capacity must be a positive finite number"
        );
        let stats = nodes
            .into_iter()
            .map(|n| {
                (
                    n,
                    LoadStats {
                        capacity,
                        current_load: 0.0,
                    },
                )
            })
            .collect();
        LoadModel { stats }
    }

    /// The current statistics of `node`.
    pub fn stats(&self, node: OverlayNodeId) -> Option<LoadStats> {
        self.stats.get(&node).copied()
    }

    /// Adds `amount` of load onto `node`. Returns `false` — and applies
    /// nothing — if `node` is unknown or `amount` is negative, so a stale
    /// report about a departed node cannot take the harness down.
    pub fn add_load(&mut self, node: OverlayNodeId, amount: f64) -> bool {
        if amount < 0.0 {
            return false;
        }
        match self.stats.get_mut(&node) {
            Some(s) => {
                s.current_load += amount;
                true
            }
            None => false,
        }
    }

    /// Resets `node`'s load to zero.
    pub fn reset(&mut self, node: OverlayNodeId) {
        if let Some(s) = self.stats.get_mut(&node) {
            s.current_load = 0.0;
        }
    }

    /// Exponentially decays every node's load by `factor` — the soft-state
    /// aging step the replay harness applies between rounds so stale load
    /// reports fade instead of accumulating forever.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is outside `[0, 1]`.
    pub fn decay(&mut self, factor: f64) {
        assert!(
            (0.0..=1.0).contains(&factor),
            "decay factor must be in [0, 1]"
        );
        for (_, s) in self.stats.iter_mut() {
            s.current_load *= factor;
        }
    }

    /// Iterates over all `(node, stats)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (OverlayNodeId, LoadStats)> + '_ {
        self.stats.iter().map(|(&n, &s)| (n, s))
    }
}

/// A [`NeighborSelector`] that trades distance for load: each candidate is
/// scored `rtt_ms × (1 + penalty × utilization)` and the lowest score wins.
/// With `penalty = 0` this degenerates to pure proximity selection.
#[derive(Debug)]
pub struct LoadAwareSelector<'a> {
    oracle: &'a RttOracle,
    loads: &'a LoadModel,
    penalty: f64,
}

impl<'a> LoadAwareSelector<'a> {
    /// Creates a selector.
    ///
    /// # Panics
    ///
    /// Panics if `penalty` is negative or not finite.
    pub fn new(oracle: &'a RttOracle, loads: &'a LoadModel, penalty: f64) -> Self {
        assert!(
            penalty.is_finite() && penalty >= 0.0,
            "penalty must be a non-negative finite number"
        );
        LoadAwareSelector {
            oracle,
            loads,
            penalty,
        }
    }

    fn score(&self, rtt_ms: f64, load: Option<LoadStats>) -> f64 {
        let utilization = load.map(|l| l.utilization()).unwrap_or(0.0);
        rtt_ms.max(1e-6) * (1.0 + self.penalty * utilization)
    }
}

impl NeighborSelector for LoadAwareSelector<'_> {
    fn select(
        &mut self,
        for_node: OverlayNodeId,
        _target_box: &Zone,
        candidates: &[OverlayNodeId],
        can: &CanOverlay,
    ) -> OverlayNodeId {
        let me = can.underlay(for_node);
        #[expect(clippy::expect_used, reason = "candidates are non-empty")]
        let best = candidates
            .iter()
            .copied()
            .min_by(|&a, &b| {
                let sa = self.score(
                    self.oracle
                        .ground_truth(me, can.underlay(a))
                        .as_millis_f64(),
                    self.loads.stats(a),
                );
                let sb = self.score(
                    self.oracle
                        .ground_truth(me, can.underlay(b))
                        .as_millis_f64(),
                    self.loads.stats(b),
                );
                #[expect(clippy::expect_used, reason = "scores are finite")]
                let order = sa.partial_cmp(&sb).expect("scores are finite");
                order.then(a.cmp(&b))
            })
            .expect("candidates are non-empty");
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tao_overlay::ecan::EcanOverlay;
    use tao_overlay::{CanOverlay, Point};
    use tao_topology::{generate_transit_stub, LatencyAssignment, NodeIdx, TransitStubParams};
    use tao_util::rand::rngs::StdRng;

    #[test]
    fn capacities_follow_the_heterogeneity_mix() {
        let nodes: Vec<OverlayNodeId> = (0..1_000).map(OverlayNodeId).collect();
        let model = LoadModel::heterogeneous(nodes.iter().copied(), 3);
        let strong = model.iter().filter(|(_, s)| s.capacity == 100.0).count();
        let medium = model.iter().filter(|(_, s)| s.capacity == 10.0).count();
        assert!(
            (50..200).contains(&strong),
            "about 10% strong, got {strong}"
        );
        assert!(
            (200..400).contains(&medium),
            "about 30% medium, got {medium}"
        );
    }

    #[test]
    fn load_accumulates_and_resets() {
        let mut model = LoadModel::heterogeneous([OverlayNodeId(0)], 0);
        model.add_load(OverlayNodeId(0), 3.5);
        model.add_load(OverlayNodeId(0), 1.5);
        assert_eq!(model.stats(OverlayNodeId(0)).unwrap().current_load, 5.0);
        model.reset(OverlayNodeId(0));
        assert_eq!(model.stats(OverlayNodeId(0)).unwrap().current_load, 0.0);
    }

    #[test]
    fn saturated_nearby_node_loses_to_idle_farther_one() {
        let topo = generate_transit_stub(
            &TransitStubParams::tsk_small_mini(),
            LatencyAssignment::manual(),
            5,
        );
        let oracle = RttOracle::new(topo.graph().clone());
        let mut can = CanOverlay::new(2).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        for i in 0..64u32 {
            can.join(NodeIdx(i * 11), Point::random(2, &mut rng));
        }
        let ecan = EcanOverlay::build(can, &mut tao_overlay::ecan::RandomSelector::new(1));
        let live: Vec<OverlayNodeId> = ecan.can().live_nodes().collect();
        let mut model = LoadModel::heterogeneous(live.iter().copied(), 2);

        // Find a node with expressway entries and load up the pure-proximity
        // choice; with a high penalty the load-aware pick must change (or the
        // loaded node must not be chosen).
        let chooser = live
            .iter()
            .copied()
            .find(|&id| !ecan.high_order_entries(id).is_empty())
            .expect("a 64-node eCAN has expressways");
        let entries = ecan.high_order_entries(chooser);
        let entry = &entries[0];
        let mut members = ecan.can().nodes_in(&entry.target_box);
        members.retain(|&m| m != chooser);
        assert!(members.len() >= 2, "need competition in the box");

        let mut pure = LoadAwareSelector::new(&oracle, &model, 0.0);
        let closest = pure.select(chooser, &entry.target_box, &members, ecan.can());

        // Saturate the closest candidate far beyond capacity.
        model.add_load(closest, 10_000.0);
        let mut aware = LoadAwareSelector::new(&oracle, &model, 10.0);
        let choice = aware.select(chooser, &entry.target_box, &members, ecan.can());
        assert_ne!(choice, closest, "overloaded node should be avoided");
    }

    #[test]
    fn negative_load_is_rejected() {
        let mut model = LoadModel::heterogeneous([OverlayNodeId(0)], 0);
        assert!(!model.add_load(OverlayNodeId(0), -1.0));
        let before = model.stats(OverlayNodeId(0)).unwrap().current_load;
        assert_eq!(before, 0.0, "a rejected report must not change the load");
    }

    #[test]
    fn unknown_node_load_is_rejected() {
        let mut model = LoadModel::heterogeneous([OverlayNodeId(0)], 0);
        assert!(!model.add_load(OverlayNodeId(7), 1.0));
        assert!(model.add_load(OverlayNodeId(0), 1.0));
        assert_eq!(model.stats(OverlayNodeId(0)).unwrap().current_load, 1.0);
    }

    #[test]
    fn uniform_model_gives_every_node_the_same_capacity() {
        let nodes: Vec<OverlayNodeId> = (0..32).map(OverlayNodeId).collect();
        let model = LoadModel::uniform(nodes.iter().copied(), 4.0);
        assert!(model.iter().all(|(_, s)| s.capacity == 4.0));
        assert!(model.iter().all(|(_, s)| s.current_load == 0.0));
        assert_eq!(model.iter().count(), 32);
    }

    #[test]
    #[should_panic(expected = "positive finite")]
    fn uniform_rejects_zero_capacity() {
        let _ = LoadModel::uniform([OverlayNodeId(0)], 0.0);
    }

    #[test]
    fn decay_scales_load_and_keeps_capacity() {
        let mut model = LoadModel::uniform([OverlayNodeId(0), OverlayNodeId(1)], 2.0);
        model.add_load(OverlayNodeId(0), 8.0);
        model.add_load(OverlayNodeId(1), 2.0);
        model.decay(0.5);
        assert_eq!(model.stats(OverlayNodeId(0)).unwrap().current_load, 4.0);
        assert_eq!(model.stats(OverlayNodeId(1)).unwrap().current_load, 1.0);
        assert_eq!(model.stats(OverlayNodeId(0)).unwrap().capacity, 2.0);
        model.decay(0.0);
        assert_eq!(model.stats(OverlayNodeId(0)).unwrap().current_load, 0.0);
    }

    #[test]
    #[should_panic(expected = "decay factor")]
    fn decay_rejects_factor_above_one() {
        let mut model = LoadModel::uniform([OverlayNodeId(0)], 1.0);
        model.decay(1.5);
    }
}
