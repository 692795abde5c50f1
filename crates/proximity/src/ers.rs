//! Expanding-ring search over an overlay's neighbor graph.
//!
//! "Expanding-ring search has to blindly flood a large number of nodes to
//! obtain a reasonable result" — this module implements exactly that
//! baseline so figures 3, 4 and 6 can show it: starting from the querying
//! node's overlay position, visit its CAN neighbors, then their neighbors,
//! ring by ring, measuring the RTT to every node encountered until the
//! probe budget is spent.

use tao_util::det::DetSet;

use tao_overlay::{CanOverlay, OverlayNodeId};
use tao_topology::RttOracle;

use crate::trace::SearchTrace;

/// Runs an expanding-ring search from `start` (the querying node's overlay
/// identity) over the CAN neighbor graph, probing until `budget`
/// measurements are spent or the overlay is exhausted.
///
/// Within a ring, nodes are visited in id order, which makes traces
/// deterministic.
///
/// # Panics
///
/// Panics if `start` is not a live node of `can`.
///
/// # Example
///
/// See the crate-level example and the `fig03`/`fig04` benchmark binaries.
pub fn expanding_ring_search(
    can: &CanOverlay,
    start: OverlayNodeId,
    budget: usize,
    oracle: &RttOracle,
) -> SearchTrace {
    let me = can.underlay(start);
    let mut trace = SearchTrace::new();
    let mut visited: DetSet<OverlayNodeId> = DetSet::new();
    visited.insert(start);
    #[expect(clippy::expect_used, reason = "start must be a live overlay node")]
    let mut ring: Vec<OverlayNodeId> = can
        .neighbors(start)
        .expect("start must be a live overlay node");
    ring.sort();
    while !ring.is_empty() && trace.len() < budget {
        let mut next_ring: Vec<OverlayNodeId> = Vec::new();
        for &n in &ring {
            if !visited.insert(n) {
                continue;
            }
            trace.record(can.underlay(n), oracle.measure(me, can.underlay(n)));
            if trace.len() >= budget {
                return trace;
            }
        }
        for &n in &ring {
            if let Ok(neighbors) = can.neighbors(n) {
                for m in neighbors {
                    if !visited.contains(&m) {
                        next_ring.push(m);
                    }
                }
            }
        }
        next_ring.sort();
        next_ring.dedup();
        ring = next_ring;
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use tao_overlay::Point;
    use tao_topology::{generate_transit_stub, LatencyAssignment, NodeIdx, TransitStubParams};
    use tao_util::rand::rngs::StdRng;
    use tao_util::rand::SeedableRng;

    fn setup() -> (CanOverlay, RttOracle) {
        let topo = generate_transit_stub(
            &TransitStubParams::tsk_small_mini(),
            LatencyAssignment::manual(),
            9,
        );
        let oracle = RttOracle::new(topo.graph().clone());
        let mut can = CanOverlay::new(2).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        for i in 0..200u32 {
            can.join(NodeIdx(i * 4), Point::random(2, &mut rng));
        }
        (can, oracle)
    }

    #[test]
    fn respects_the_probe_budget_exactly() {
        let (can, oracle) = setup();
        oracle.reset_measurements();
        let trace = expanding_ring_search(&can, OverlayNodeId(0), 25, &oracle);
        assert_eq!(trace.len(), 25);
        assert_eq!(oracle.measurements(), 25);
    }

    #[test]
    fn exhausts_the_overlay_when_budget_is_huge() {
        let (can, oracle) = setup();
        let trace = expanding_ring_search(&can, OverlayNodeId(0), 10_000, &oracle);
        // Everyone except the start is eventually probed.
        assert_eq!(trace.len(), can.len() - 1);
    }

    #[test]
    fn never_probes_the_start_itself() {
        let (can, oracle) = setup();
        let me = can.underlay(OverlayNodeId(0));
        let trace = expanding_ring_search(&can, OverlayNodeId(0), 500, &oracle);
        assert!(trace.probes().iter().all(|p| p.probed != me));
    }

    #[test]
    fn probes_are_distinct_nodes() {
        let (can, oracle) = setup();
        let trace = expanding_ring_search(&can, OverlayNodeId(7), 100, &oracle);
        let mut seen: Vec<_> = trace.probes().iter().map(|p| p.probed).collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), trace.len());
    }

    #[test]
    fn bigger_budgets_never_find_worse_answers() {
        let (can, oracle) = setup();
        let trace = expanding_ring_search(&can, OverlayNodeId(3), 400, &oracle);
        let b10 = trace.best_after(10).unwrap().rtt;
        let b100 = trace.best_after(100).unwrap().rtt;
        let b400 = trace.best_after(400).unwrap().rtt;
        assert!(b100 <= b10);
        assert!(b400 <= b100);
    }
}
