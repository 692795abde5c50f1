//! Distance-vector routing over the overlay neighbor graph — the
//! unconstrained comparison point of §5.4.
//!
//! "Without this constraint, P2P routing stretch can be reduced to ~1,
//! using a protocol similar to the distance vector algorithm, but it is not
//! suitable for a very dynamic environment because of the frequent
//! propagation of routing information." This module implements that
//! protocol over a CAN's neighbor links so the trade-off can be measured:
//! near-optimal stretch versus `O(N)` routing state per node and a
//! convergence round-count that grows with the network diameter.

use tao_util::det::DetMap;

use tao_topology::RttOracle;
use tao_util::time::SimDuration;

use crate::can::{CanOverlay, OverlayError, OverlayNodeId, Route};

/// Converged distance-vector routing tables for a CAN's neighbor graph:
/// for every `(source, destination)` pair, the next hop on a latency-
/// shortest path that uses only overlay links.
#[derive(Debug, Clone)]
pub struct DistanceVectorTables {
    /// `next[src][dst]` = next overlay hop from `src` toward `dst`.
    next: DetMap<OverlayNodeId, DetMap<OverlayNodeId, OverlayNodeId>>,
    /// Converged path cost per pair.
    cost: DetMap<(OverlayNodeId, OverlayNodeId), SimDuration>,
    rounds: usize,
    updates: u64,
}

impl DistanceVectorTables {
    /// Runs the distance-vector protocol to convergence over `can`'s
    /// neighbor links, with per-link costs taken from `oracle` ground
    /// truth. Returns the converged tables.
    ///
    /// Each round, every node advertises its vector to every neighbor
    /// (Bellman–Ford); `updates` counts the advertisements — the message
    /// cost the paper warns about.
    ///
    /// # Panics
    ///
    /// Panics if the overlay is empty.
    // tao-lint: allow(panic-reachability, reason = "tables are seeded with a row for every overlay node before relaxation; row lookups cannot miss")
    pub fn converge(can: &CanOverlay, oracle: &RttOracle) -> Self {
        let live: Vec<OverlayNodeId> = can.live_nodes().collect();
        assert!(!live.is_empty(), "overlay has no live nodes");

        // Link costs between CAN neighbors.
        let mut links: DetMap<OverlayNodeId, Vec<(OverlayNodeId, SimDuration)>> = DetMap::new();
        for &a in &live {
            let neighbors = can.neighbors(a).expect("live node"); // tao-lint: allow(no-unwrap-in-lib, reason = "live node")
            let row = neighbors
                .into_iter()
                .map(|b| (b, oracle.ground_truth(can.underlay(a), can.underlay(b))))
                .collect();
            links.insert(a, row);
        }
        Self::converge_on(&links)
    }

    /// Runs the protocol over an explicit link set (e.g. the proximity mesh
    /// of [`proximity_links`], which is what lets distance-vector routing
    /// approach IP stretch).
    ///
    /// # Panics
    ///
    /// Panics if `links` is empty.
    // tao-lint: allow(panic-reachability, reason = "tables are seeded with a row for every overlay node before relaxation; row lookups cannot miss")
    pub fn converge_on(links: &DetMap<OverlayNodeId, Vec<(OverlayNodeId, SimDuration)>>) -> Self {
        let live: Vec<OverlayNodeId> = {
            let mut v: Vec<OverlayNodeId> = links.keys().copied().collect();
            v.sort();
            v
        };
        assert!(!live.is_empty(), "no links given");

        let mut cost: DetMap<(OverlayNodeId, OverlayNodeId), SimDuration> = DetMap::new();
        let mut next: DetMap<OverlayNodeId, DetMap<OverlayNodeId, OverlayNodeId>> =
            live.iter().map(|&a| (a, DetMap::new())).collect();
        for &a in &live {
            cost.insert((a, a), SimDuration::ZERO);
        }

        let mut rounds = 0;
        let mut updates = 0u64;
        loop {
            let mut changed = false;
            rounds += 1;
            for &a in &live {
                for &(b, link) in &links[&a] {
                    updates += 1;
                    // `a` advertises its whole vector to `b`.
                    let advertised: Vec<(OverlayNodeId, SimDuration)> = live
                        .iter()
                        .filter_map(|&dst| cost.get(&(a, dst)).map(|&c| (dst, c)))
                        .collect();
                    for (dst, c) in advertised {
                        let via = c + link;
                        let better = match cost.get(&(b, dst)) {
                            Some(&existing) => via < existing,
                            None => true,
                        };
                        if better {
                            cost.insert((b, dst), via);
                            next.get_mut(&b).expect("initialised").insert(dst, a); // tao-lint: allow(no-unwrap-in-lib, reason = "initialised")
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        DistanceVectorTables {
            next,
            cost,
            rounds,
            updates,
        }
    }

    /// Rounds until convergence (≈ network diameter in overlay hops).
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Total vector advertisements sent — the protocol's message cost.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Converged overlay-path cost from `src` to `dst`, if both are known.
    pub fn path_cost(&self, src: OverlayNodeId, dst: OverlayNodeId) -> Option<SimDuration> {
        self.cost.get(&(src, dst)).copied()
    }

    /// Per-node routing state: entries held by each node (= N destinations).
    pub fn entries_per_node(&self) -> usize {
        self.next.values().map(DetMap::len).max().unwrap_or(0)
    }

    /// Routes from `src` to `dst` along converged next hops.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::UnknownNode`] if either endpoint is absent
    /// from the tables, and [`OverlayError::RoutingStuck`] if the tables
    /// are inconsistent (cannot happen after [`Self::converge`]).
    // tao-lint: allow(panic-reachability, reason = "next-hop entries are installed for every reachable destination during convergence; the walk stays on seeded rows")
    pub fn route(&self, src: OverlayNodeId, dst: OverlayNodeId) -> Result<Route, OverlayError> {
        if !self.next.contains_key(&src) {
            return Err(OverlayError::UnknownNode(src));
        }
        if !self.next.contains_key(&dst) {
            return Err(OverlayError::UnknownNode(dst));
        }
        let mut hops = vec![src];
        let mut current = src;
        let limit = self.next.len() + 2;
        while current != dst {
            let Some(&n) = self.next[&current].get(&dst) else {
                return Err(OverlayError::RoutingStuck { at: current });
            };
            hops.push(n);
            current = n;
            if hops.len() > limit {
                return Err(OverlayError::RoutingStuck { at: current });
            }
        }
        Ok(Route { hops })
    }
}

/// Builds the proximity mesh the DV comparison assumes: each live node
/// links to its `k` physically nearest overlay peers (symmetrised), on top
/// of the overlay's own neighbor links (kept for connectivity — pure k-NN
/// meshes fragment into stub-local islands). This is the structure P2P
/// routing schemes with unconstrained neighbor choice maintain, and what
/// lets distance-vector routing approach IP stretch.
///
/// # Panics
///
/// Panics if `k` is zero or the overlay has fewer than two live nodes.
// tao-lint: allow(panic-reachability, reason = "link endpoints come from the overlay's own node set; oracle lookups are total over that set")
pub fn proximity_links(
    can: &CanOverlay,
    oracle: &RttOracle,
    k: usize,
) -> DetMap<OverlayNodeId, Vec<(OverlayNodeId, SimDuration)>> {
    assert!(k > 0, "k must be at least 1");
    let live: Vec<OverlayNodeId> = can.live_nodes().collect();
    assert!(live.len() >= 2, "need at least two live nodes");
    let mut links: DetMap<OverlayNodeId, Vec<(OverlayNodeId, SimDuration)>> = live
        .iter()
        .map(|&a| {
            let row = can
                .neighbors(a)
                .expect("live node") // tao-lint: allow(no-unwrap-in-lib, reason = "live node")
                .into_iter()
                .map(|b| (b, oracle.ground_truth(can.underlay(a), can.underlay(b))))
                .collect();
            (a, row)
        })
        .collect();
    for &a in &live {
        let mut dists: Vec<(SimDuration, OverlayNodeId)> = live
            .iter()
            .filter(|&&b| b != a)
            .map(|&b| (oracle.ground_truth(can.underlay(a), can.underlay(b)), b))
            .collect();
        dists.sort();
        for &(d, b) in dists.iter().take(k) {
            let row = links.get_mut(&a).expect("initialised"); // tao-lint: allow(no-unwrap-in-lib, reason = "initialised")
            if !row.iter().any(|(n, _)| *n == b) {
                row.push((b, d));
            }
            let rev = links.get_mut(&b).expect("initialised"); // tao-lint: allow(no-unwrap-in-lib, reason = "initialised")
            if !rev.iter().any(|(n, _)| *n == a) {
                rev.push((a, d));
            }
        }
    }
    links
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;
    use tao_topology::{generate_transit_stub, LatencyAssignment, NodeIdx, TransitStubParams};
    use tao_util::rand::rngs::StdRng;
    use tao_util::rand::{Rng, SeedableRng};

    fn world(n: u32) -> (CanOverlay, RttOracle) {
        let topo = generate_transit_stub(
            &TransitStubParams::tsk_small_mini(),
            LatencyAssignment::manual(),
            17,
        );
        let oracle = RttOracle::new(topo.graph().clone());
        let mut can = CanOverlay::new(2).expect("2-d CAN");
        let mut rng = StdRng::seed_from_u64(18);
        let routers = topo.graph().node_count() as u32;
        for i in 0..n {
            can.join(NodeIdx((i * 31) % routers), Point::random(2, &mut rng));
        }
        (can, oracle)
    }

    #[test]
    fn converged_costs_obey_bellman_optimality() {
        let (can, oracle) = world(48);
        let dv = DistanceVectorTables::converge(&can, &oracle);
        let live: Vec<OverlayNodeId> = can.live_nodes().collect();
        for &a in &live {
            for &b in can.neighbors(a).unwrap().iter() {
                let link = oracle.ground_truth(can.underlay(a), can.underlay(b));
                for &dst in &live {
                    let ca = dv.path_cost(a, dst).expect("converged everywhere");
                    let cb = dv.path_cost(b, dst).expect("converged everywhere");
                    assert!(ca <= cb + link, "triangle violation {a}->{dst} vs via {b}");
                }
            }
        }
    }

    #[test]
    fn routes_match_their_advertised_costs() {
        let (can, oracle) = world(48);
        let dv = DistanceVectorTables::converge(&can, &oracle);
        let live: Vec<OverlayNodeId> = can.live_nodes().collect();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let a = live[rng.gen_range(0..live.len())];
            let b = live[rng.gen_range(0..live.len())];
            let route = dv.route(a, b).unwrap();
            let mut total = SimDuration::ZERO;
            for w in route.hops.windows(2) {
                total += oracle.ground_truth(can.underlay(w[0]), can.underlay(w[1]));
            }
            assert_eq!(Some(total), dv.path_cost(a, b));
        }
    }

    fn mean_dv_stretch(
        dv: &DistanceVectorTables,
        can: &CanOverlay,
        oracle: &RttOracle,
        seed: u64,
    ) -> f64 {
        let live: Vec<OverlayNodeId> = can.live_nodes().collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut total = 0.0;
        let mut counted = 0;
        for _ in 0..200 {
            let a = live[rng.gen_range(0..live.len())];
            let b = live[rng.gen_range(0..live.len())];
            if a == b {
                continue;
            }
            let direct = oracle.ground_truth(can.underlay(a), can.underlay(b));
            if direct.is_zero() {
                continue;
            }
            total += dv.path_cost(a, b).expect("converged") / direct;
            counted += 1;
        }
        total / counted as f64
    }

    #[test]
    fn dv_over_a_proximity_mesh_approaches_ip_stretch() {
        let (can, oracle) = world(64);
        // The §5.4 claim needs proximity-chosen links; over the CAN's
        // random links DV can only optimise what the graph offers.
        let mesh = proximity_links(&can, &oracle, 6);
        let dv_mesh = DistanceVectorTables::converge_on(&mesh);
        let dv_can = DistanceVectorTables::converge(&can, &oracle);
        let mesh_stretch = mean_dv_stretch(&dv_mesh, &can, &oracle, 4);
        let can_stretch = mean_dv_stretch(&dv_can, &can, &oracle, 4);
        assert!(
            mesh_stretch < 2.0,
            "DV over the proximity mesh should approach 1, got {mesh_stretch:.2}"
        );
        assert!(
            mesh_stretch < can_stretch,
            "proximity links must beat random CAN links ({mesh_stretch:.2} vs {can_stretch:.2})"
        );
    }

    #[test]
    fn state_and_message_costs_are_heavy() {
        let (can, oracle) = world(48);
        let dv = DistanceVectorTables::converge(&can, &oracle);
        // The §5.4 limitation: per-node state is O(N)…
        assert_eq!(dv.entries_per_node(), 47); // every destination but self
                                               // …and convergence floods many full-vector advertisements.
        assert!(dv.updates() as usize >= 48 * 4 * dv.rounds() / 2);
        assert!(dv.rounds() >= 3);
    }

    #[test]
    fn unknown_endpoints_error() {
        let (can, oracle) = world(8);
        let dv = DistanceVectorTables::converge(&can, &oracle);
        assert!(matches!(
            dv.route(OverlayNodeId(999), OverlayNodeId(0)),
            Err(OverlayError::UnknownNode(_))
        ));
    }
}
