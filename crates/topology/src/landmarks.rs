//! Landmark-node placement.
//!
//! The paper "randomly chooses nodes from the topology as the landmarks";
//! that is the one placement this module provides.

use tao_util::rand::seq::SliceRandom;
use tao_util::rand::Rng;

use crate::graph::{Graph, NodeIdx};

/// How landmark nodes are chosen from the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LandmarkStrategy {
    /// Uniformly random routers (the paper's placement). The only
    /// strategy: the enum stays because `benchmark/src/traced.rs` names
    /// this variant, and goes when that benchmark is rebuilt (ROADMAP
    /// item 1b).
    Random,
}

/// Selects `count` distinct landmark routers from `graph`, uniformly at
/// random (`strategy` has the one value [`LandmarkStrategy::Random`]).
///
/// # Panics
///
/// Panics if `count` is zero or exceeds the number of routers.
///
/// # Example
///
/// ```
/// use tao_topology::{generate_transit_stub, LatencyAssignment, TransitStubParams};
/// use tao_topology::landmarks::{select_landmarks, LandmarkStrategy};
/// use tao_util::rand::SeedableRng;
///
/// let topo = generate_transit_stub(
///     &TransitStubParams::tsk_small_mini(), LatencyAssignment::manual(), 8);
/// let mut rng = tao_util::rand::rngs::StdRng::seed_from_u64(1);
/// let lms = select_landmarks(topo.graph(), 15, LandmarkStrategy::Random, &mut rng);
/// assert_eq!(lms.len(), 15);
/// ```
pub fn select_landmarks(
    graph: &Graph,
    count: usize,
    strategy: LandmarkStrategy,
    rng: &mut impl Rng,
) -> Vec<NodeIdx> {
    assert!(count > 0, "need at least one landmark");
    let LandmarkStrategy::Random = strategy;
    let mut pool: Vec<NodeIdx> = graph.nodes().collect();
    assert!(
        count <= pool.len(),
        "cannot choose {count} landmarks from {} candidates",
        pool.len()
    );
    pool.shuffle(rng);
    pool.truncate(count);
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyAssignment;
    use crate::transit_stub::{generate_transit_stub, TransitStubParams};
    use tao_util::rand::rngs::StdRng;
    use tao_util::rand::SeedableRng;

    fn topo() -> crate::transit_stub::Topology {
        generate_transit_stub(
            &TransitStubParams::tsk_small_mini(),
            LatencyAssignment::manual(),
            21,
        )
    }

    #[test]
    fn random_selection_is_distinct_and_sized() {
        let t = topo();
        let mut rng = StdRng::seed_from_u64(0);
        let lms = select_landmarks(t.graph(), 10, LandmarkStrategy::Random, &mut rng);
        let mut u = lms.clone();
        u.sort();
        u.dedup();
        assert_eq!(u.len(), 10);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_landmarks_panics() {
        let t = topo();
        let mut rng = StdRng::seed_from_u64(0);
        select_landmarks(t.graph(), 0, LandmarkStrategy::Random, &mut rng);
    }
}
