//! Distance-vector routing over an explicit link set — the unconstrained
//! reference of §5.4, run by `sec54_gap_breakdown`.
//!
//! "Without this constraint, P2P routing stretch can be reduced to ~1,
//! using a protocol similar to the distance vector algorithm, but it is not
//! suitable for a very dynamic environment because of the frequent
//! propagation of routing information." This module runs that protocol
//! over a proximity mesh so the trade-off can be measured: near-optimal
//! stretch versus `O(N)` routing state per node and a convergence
//! round-count that grows with the network diameter.
//!
//! The tables hold converged path costs, not next hops: the figure reads
//! stretch, state, advertisements and rounds, and none of them needs a
//! route walked. [`DistanceVectorTables::entries_per_node`] counts the
//! destinations a node can reach, one routing entry each.

use tao_overlay::{CanOverlay, OverlayNodeId};
use tao_topology::RttOracle;
use tao_util::det::DetMap;
use tao_util::time::SimDuration;

/// Converged distance-vector tables: for every ordered pair of nodes, the
/// cost of the latency-shortest path that uses only the given links.
#[derive(Debug, Clone)]
pub struct DistanceVectorTables {
    /// The nodes in id order; a node's position is its row and column.
    nodes: Vec<OverlayNodeId>,
    /// `cost[i * n + j]`: converged cost from `nodes[i]` to `nodes[j]`,
    /// `None` where no path exists.
    cost: Vec<Option<SimDuration>>,
    rounds: usize,
    updates: u64,
}

impl DistanceVectorTables {
    /// Runs the protocol to convergence over an explicit link set (e.g. the
    /// proximity mesh of [`proximity_links`], which is what lets
    /// distance-vector routing approach IP stretch). Each key of `links` is
    /// a node; a link to a node that is not a key is ignored.
    ///
    /// Each round, every node in id order advertises its whole vector to
    /// each of its neighbors in list order, and the receiver relaxes its own
    /// vector in place (Bellman–Ford); `updates` counts the advertisements —
    /// the message cost the paper warns about.
    pub fn converge_on(links: &DetMap<OverlayNodeId, Vec<(OverlayNodeId, SimDuration)>>) -> Self {
        let nodes: Vec<OverlayNodeId> = links.keys().copied().collect();
        let n = nodes.len();
        let adjacency: Vec<Vec<(usize, SimDuration)>> = links
            .values()
            .map(|row| {
                row.iter()
                    .filter_map(|&(b, link)| nodes.binary_search(&b).ok().map(|j| (j, link)))
                    .collect()
            })
            .collect();
        let mut cost = vec![None; n * n];
        for i in 0..n {
            cost[i * n + i] = Some(SimDuration::ZERO);
        }

        let mut advertised = vec![None; n];
        let mut rounds = 0;
        let mut updates = 0u64;
        loop {
            let mut changed = false;
            rounds += 1;
            for (a, neighbors) in adjacency.iter().enumerate() {
                for &(b, link) in neighbors {
                    updates += 1;
                    // `a` advertises its whole vector to `b`.
                    advertised.copy_from_slice(&cost[a * n..][..n]);
                    for (existing, c) in cost[b * n..][..n].iter_mut().zip(&advertised) {
                        let Some(c) = *c else { continue };
                        let via = c + link;
                        if existing.is_none_or(|e| via < e) {
                            *existing = Some(via);
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
            nodes,
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

    /// Converged path cost from `src` to `dst`; `None` if either is not a
    /// node of the tables or no path joins them.
    pub fn path_cost(&self, src: OverlayNodeId, dst: OverlayNodeId) -> Option<SimDuration> {
        let i = self.nodes.binary_search(&src).ok()?;
        let j = self.nodes.binary_search(&dst).ok()?;
        self.cost.get(i * self.nodes.len() + j).copied().flatten()
    }

    /// Per-node routing state: the most destinations other than itself any
    /// one node can reach (N − 1 on a connected mesh).
    pub fn entries_per_node(&self) -> usize {
        // Every row holds its own zero, so the `- 1` cannot underflow.
        self.cost
            .chunks_exact(self.nodes.len().max(1))
            .map(|row| row.iter().flatten().count() - 1)
            .max()
            .unwrap_or(0)
    }
}

/// Builds the proximity mesh the DV comparison assumes: each live node
/// links to its `k` physically nearest overlay peers (symmetrised), on top
/// of the overlay's own neighbor links (kept for connectivity — pure k-NN
/// meshes fragment into stub-local islands). This is the structure P2P
/// routing schemes with unconstrained neighbor choice maintain, and what
/// lets distance-vector routing approach IP stretch.
pub fn proximity_links(
    can: &CanOverlay,
    oracle: &RttOracle,
    k: usize,
) -> DetMap<OverlayNodeId, Vec<(OverlayNodeId, SimDuration)>> {
    let rtt = |a, b| oracle.ground_truth(can.underlay(a), can.underlay(b));
    let live: Vec<OverlayNodeId> = can.live_nodes().collect();
    let mut links: DetMap<OverlayNodeId, Vec<(OverlayNodeId, SimDuration)>> = live
        .iter()
        .map(|&a| {
            let row = can.neighbors(a).into_iter().flatten();
            (a, row.map(|b| (b, rtt(a, b))).collect())
        })
        .collect();
    for &a in &live {
        let mut dists: Vec<(SimDuration, OverlayNodeId)> = live
            .iter()
            .filter(|&&b| b != a)
            .map(|&b| (rtt(a, b), b))
            .collect();
        dists.sort();
        for &(d, b) in dists.iter().take(k) {
            for (from, to) in [(a, b), (b, a)] {
                let row = links.entry(from).or_default();
                if !row.iter().any(|&(n, _)| n == to) {
                    row.push((to, d));
                }
            }
        }
    }
    links
}

#[cfg(test)]
mod tests {
    use super::*;
    use tao_overlay::Point;
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

    /// The CAN's own neighbor links, costed by ground-truth RTT.
    fn can_links(
        can: &CanOverlay,
        oracle: &RttOracle,
    ) -> DetMap<OverlayNodeId, Vec<(OverlayNodeId, SimDuration)>> {
        can.live_nodes()
            .map(|a| {
                let row = can.neighbors(a).unwrap().into_iter();
                let rtt = |b| oracle.ground_truth(can.underlay(a), can.underlay(b));
                (a, row.map(|b| (b, rtt(b))).collect())
            })
            .collect()
    }

    #[test]
    fn converged_costs_obey_bellman_optimality() {
        let (can, oracle) = world(48);
        let dv = DistanceVectorTables::converge_on(&can_links(&can, &oracle));
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
    fn converged_costs_equal_all_pairs_shortest_paths() {
        let (can, oracle) = world(48);
        let mut mesh = proximity_links(&can, &oracle, 3);
        // A node with no links: every pair that involves it stays `None`.
        mesh.insert(OverlayNodeId(999), Vec::new());
        let dv = DistanceVectorTables::converge_on(&mesh);

        // Floyd–Warshall over the same links.
        let nodes: Vec<OverlayNodeId> = mesh.keys().copied().collect();
        let n = nodes.len();
        let mut dist: Vec<Vec<Option<SimDuration>>> = vec![vec![None; n]; n];
        for (i, row) in mesh.values().enumerate() {
            dist[i][i] = Some(SimDuration::ZERO);
            for &(b, link) in row {
                let j = nodes.binary_search(&b).unwrap();
                dist[i][j] = Some(link);
            }
        }
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    if let (Some(ik), Some(kj)) = (dist[i][k], dist[k][j]) {
                        if dist[i][j].is_none_or(|d| ik + kj < d) {
                            dist[i][j] = Some(ik + kj);
                        }
                    }
                }
            }
        }
        for (i, &a) in nodes.iter().enumerate() {
            for (j, &b) in nodes.iter().enumerate() {
                assert_eq!(dv.path_cost(a, b), dist[i][j], "{a} -> {b}");
            }
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
        let dv_can = DistanceVectorTables::converge_on(&can_links(&can, &oracle));
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
        let dv = DistanceVectorTables::converge_on(&can_links(&can, &oracle));
        // The §5.4 limitation: per-node state is O(N) — every destination
        // but self…
        assert_eq!(dv.entries_per_node(), 47);
        // …and convergence floods many full-vector advertisements.
        assert!(dv.updates() as usize >= 48 * 4 * dv.rounds() / 2);
        assert!(dv.rounds() >= 3);
    }

    #[test]
    fn unknown_endpoints_have_no_cost() {
        let (can, oracle) = world(8);
        let dv = DistanceVectorTables::converge_on(&can_links(&can, &oracle));
        assert_eq!(dv.path_cost(OverlayNodeId(999), OverlayNodeId(0)), None);
        assert_eq!(dv.path_cost(OverlayNodeId(0), OverlayNodeId(999)), None);
        assert_eq!(
            dv.path_cost(OverlayNodeId(0), OverlayNodeId(0)),
            Some(SimDuration::ZERO)
        );
    }
}
