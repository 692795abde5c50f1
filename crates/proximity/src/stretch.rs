//! The stretch metric for nearest-neighbor discovery.
//!
//! "The metric used to evaluate the algorithms is stretch, defined as the
//! ratio of the distance between a node A and its nearest neighbor found by
//! the algorithms to the distance between A and its actual nearest
//! neighbor."

use tao_topology::{NodeIdx, RttOracle};
use tao_util::time::SimDuration;

/// The nearest-neighbor stretch: `found / actual`.
///
/// When the true nearest neighbor is at zero distance (co-located routers),
/// the convention is: stretch 1.0 if the found node is also at zero
/// distance, infinity otherwise.
///
/// # Panics
///
/// Panics if `found < actual` (the "found" node cannot be closer than the
/// actual nearest neighbor drawn from the same pool).
///
/// # Example
///
/// ```
/// use tao_proximity::nn_stretch;
/// use tao_util::time::SimDuration;
///
/// let s = nn_stretch(SimDuration::from_millis(30), SimDuration::from_millis(10));
/// assert!((s - 3.0).abs() < 1e-12);
/// ```
pub fn nn_stretch(found: SimDuration, actual: SimDuration) -> f64 {
    assert!(
        found >= actual,
        "found ({found}) cannot beat the true nearest neighbor ({actual})"
    );
    if actual.is_zero() {
        if found.is_zero() {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        found / actual
    }
}

/// The ground-truth nearest neighbor of `query` within `pool` (excluding
/// `query` itself), found with *free* distances.
///
/// Returns `None` if the pool contains no node other than the query.
pub fn true_nearest(
    query: NodeIdx,
    pool: impl IntoIterator<Item = NodeIdx>,
    oracle: &RttOracle,
) -> Option<(NodeIdx, SimDuration)> {
    pool.into_iter()
        .filter(|&n| n != query)
        .map(|n| (n, oracle.ground_truth(query, n)))
        .min_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tao_topology::{generate_transit_stub, LatencyAssignment, TransitStubParams};

    #[test]
    fn zero_distance_conventions() {
        assert_eq!(nn_stretch(SimDuration::ZERO, SimDuration::ZERO), 1.0);
        assert_eq!(
            nn_stretch(SimDuration::from_millis(1), SimDuration::ZERO),
            f64::INFINITY
        );
    }

    #[test]
    #[should_panic(expected = "cannot beat")]
    fn found_better_than_actual_is_a_bug() {
        nn_stretch(SimDuration::from_millis(1), SimDuration::from_millis(2));
    }

    #[test]
    fn true_nearest_matches_exhaustive_scan() {
        let topo = generate_transit_stub(
            &TransitStubParams::tsk_small_mini(),
            LatencyAssignment::gt_itm(),
            23,
        );
        let oracle = RttOracle::new(topo.graph().clone());
        let pool: Vec<NodeIdx> = (0..topo.graph().node_count() as u32)
            .step_by(7)
            .map(NodeIdx)
            .collect();
        let query = NodeIdx(42);
        let (nn, d) = true_nearest(query, pool.iter().copied(), &oracle).unwrap();
        for &p in &pool {
            if p != query {
                assert!(oracle.ground_truth(query, p) >= d);
            }
        }
        assert_ne!(nn, query);
        assert_eq!(oracle.ground_truth(query, nn), d);
    }

    #[test]
    fn empty_pool_yields_none() {
        let topo = generate_transit_stub(
            &TransitStubParams::tsk_small_mini(),
            LatencyAssignment::manual(),
            1,
        );
        let oracle = RttOracle::new(topo.graph().clone());
        assert!(true_nearest(NodeIdx(0), [NodeIdx(0)], &oracle).is_none());
        assert!(true_nearest(NodeIdx(0), [], &oracle).is_none());
    }

    #[test]
    fn true_nearest_is_free_of_probe_charges() {
        let topo = generate_transit_stub(
            &TransitStubParams::tsk_small_mini(),
            LatencyAssignment::manual(),
            2,
        );
        let oracle = RttOracle::new(topo.graph().clone());
        let pool: Vec<NodeIdx> = (0..50).map(NodeIdx).collect();
        true_nearest(NodeIdx(10), pool, &oracle);
        assert_eq!(oracle.measurements(), 0);
    }
}
