//! The paper's hybrid landmark+RTT nearest-neighbor search.
//!
//! Landmark clustering is used *only as a pre-selection process* to locate
//! nodes that are possibly close to a given node; real RTT measurements to
//! the top candidates then identify the actual closest node. With one
//! measurement this degenerates to "landmark ordering alone" — the first
//! point of every `lmk+rtt` curve in figures 3 and 5.

use tao_landmark::LandmarkVector;
use tao_topology::{NodeIdx, RttOracle};

use crate::trace::SearchTrace;

/// A node the search may consider: its underlay identity and its landmark
/// vector.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The router the candidate runs on.
    pub underlay: NodeIdx,
    /// The candidate's landmark vector.
    pub vector: LandmarkVector,
}

/// Orders `pool` by increasing landmark-space (Euclidean) distance from
/// `query_vector` — the pre-selection step. Ties break by underlay id so
/// rankings are deterministic. The querying node itself, if present in the
/// pool, is excluded.
pub fn rank_by_landmark_distance<'a>(
    query: NodeIdx,
    query_vector: &LandmarkVector,
    pool: &'a [Candidate],
) -> Vec<&'a Candidate> {
    nearest_by_landmark_distance(query, query_vector, pool, usize::MAX)
}

/// The first `max` of [`rank_by_landmark_distance`], without ordering the
/// rest of the pool.
pub(crate) fn nearest_by_landmark_distance<'a>(
    query: NodeIdx,
    query_vector: &LandmarkVector,
    pool: &'a [Candidate],
    max: usize,
) -> Vec<&'a Candidate> {
    let others = pool.iter().enumerate().filter(|(_, c)| c.underlay != query);
    let mut ranked = Vec::new();
    query_vector.nearest(
        others.map(|(i, c)| (&c.vector, c.underlay, i)),
        max,
        &mut ranked,
    );
    ranked.iter().map(|&(_, _, i)| &pool[i]).collect()
}

/// Probes `ranked` candidates in the given order (any pre-selection: the
/// paper's landmark-vector ranking, a coordinate-space ranking, …) up to
/// `budget` measurements. The querying node, if present, is skipped.
pub fn probe_ranked(
    query: NodeIdx,
    ranked: &[NodeIdx],
    budget: usize,
    oracle: &RttOracle,
) -> SearchTrace {
    let mut trace = SearchTrace::new();
    for &c in ranked.iter().filter(|&&c| c != query).take(budget) {
        trace.record(c, oracle.measure(query, c));
    }
    trace
}

/// Runs the hybrid search: pre-select by landmark distance, then RTT-probe
/// the top `budget` candidates in ranked order.
///
/// The returned [`SearchTrace`] has one entry per probe, so
/// `trace.best_after(k)` is the answer the algorithm would give with a
/// budget of `k` — one run yields the whole figure-3 curve.
pub fn hybrid_search(
    query: NodeIdx,
    query_vector: &LandmarkVector,
    pool: &[Candidate],
    budget: usize,
    oracle: &RttOracle,
) -> SearchTrace {
    let ranked = nearest_by_landmark_distance(query, query_vector, pool, budget);
    let mut trace = SearchTrace::new();
    for c in ranked {
        trace.record(c.underlay, oracle.measure(query, c.underlay));
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use tao_topology::{generate_transit_stub, LatencyAssignment, TransitStubParams};

    fn pool_with(oracle: &RttOracle, landmarks: &[NodeIdx], ids: &[u32]) -> Vec<Candidate> {
        ids.iter()
            .map(|&i| Candidate {
                underlay: NodeIdx(i),
                vector: LandmarkVector::measure(NodeIdx(i), landmarks, oracle),
            })
            .collect()
    }

    fn setup() -> (RttOracle, Vec<NodeIdx>) {
        let topo = generate_transit_stub(
            &TransitStubParams::tsk_small_mini(),
            LatencyAssignment::manual(),
            14,
        );
        let oracle = RttOracle::new(topo.graph().clone());
        (oracle, vec![NodeIdx(3), NodeIdx(333), NodeIdx(666)])
    }

    #[test]
    fn ranking_is_deterministic_and_excludes_self() {
        let (oracle, landmarks) = setup();
        let ids: Vec<u32> = (10..60).collect();
        let pool = pool_with(&oracle, &landmarks, &ids);
        let query = NodeIdx(10);
        let qv = LandmarkVector::measure(query, &landmarks, &oracle);
        let r1 = rank_by_landmark_distance(query, &qv, &pool);
        let r2 = rank_by_landmark_distance(query, &qv, &pool);
        assert_eq!(r1.len(), pool.len() - 1, "self excluded");
        assert!(r1.iter().zip(&r2).all(|(a, b)| a.underlay == b.underlay));
    }

    #[test]
    fn budget_bounds_measurements() {
        let (oracle, landmarks) = setup();
        let ids: Vec<u32> = (0..100).map(|i| i * 9).collect();
        let pool = pool_with(&oracle, &landmarks, &ids);
        let query = NodeIdx(450);
        let qv = LandmarkVector::measure(query, &landmarks, &oracle);
        oracle.reset_measurements();
        let trace = hybrid_search(query, &qv, &pool, 7, &oracle);
        assert_eq!(trace.len(), 7);
        assert_eq!(oracle.measurements(), 7);
    }

    #[test]
    fn more_budget_gets_at_least_as_close() {
        let (oracle, landmarks) = setup();
        let ids: Vec<u32> = (0..200).map(|i| i * 4 + 1).collect();
        let pool = pool_with(&oracle, &landmarks, &ids);
        let query = NodeIdx(500);
        let qv = LandmarkVector::measure(query, &landmarks, &oracle);
        let trace = hybrid_search(query, &qv, &pool, 40, &oracle);
        assert!(trace.best_after(40).unwrap().rtt <= trace.best_after(1).unwrap().rtt);
    }

    #[test]
    fn preselection_beats_random_order_on_average() {
        // The point of the paper: probing the landmark-ranked top-k reaches
        // a closer node than probing an arbitrary k (here: the first k ids).
        let (oracle, landmarks) = setup();
        let ids: Vec<u32> = (0..300).map(|i| i * 3).collect();
        let pool = pool_with(&oracle, &landmarks, &ids);
        let mut ranked_wins = 0;
        let mut ties = 0;
        const QUERIES: &[u32] = &[7, 77, 177, 277, 377, 477, 577, 677];
        for &q in QUERIES {
            let query = NodeIdx(q);
            let qv = LandmarkVector::measure(query, &landmarks, &oracle);
            let hybrid = hybrid_search(query, &qv, &pool, 10, &oracle)
                .best_after(10)
                .unwrap()
                .rtt;
            // Naive: probe the first 10 pool entries (arbitrary order).
            let naive = pool
                .iter()
                .filter(|c| c.underlay != query)
                .take(10)
                .map(|c| oracle.ground_truth(query, c.underlay))
                .min()
                .unwrap();
            if hybrid < naive {
                ranked_wins += 1;
            } else if hybrid == naive {
                ties += 1;
            }
        }
        assert!(
            ranked_wins + ties >= QUERIES.len() - 1,
            "pre-selection should rarely lose: wins={ranked_wins}, ties={ties}"
        );
    }
}
