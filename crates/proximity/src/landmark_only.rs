//! Landmark clustering *alone* (no RTT probes) and the §5.4 refinement.
//!
//! The paper's second comparator: pick the candidate whose landmark vector
//! is nearest — zero measurements, but "not very effective in
//! differentiating nodes within close distance".
//!
//! §5.4's first proposed optimisation is also here: "divide a large number
//! of landmarks into groups, and each node computes a set of landmark
//! positions. All these positions are then joined together to reduce false
//! clustering." [`multi_group_rank`] scores a candidate by the *worst*
//! per-group distance, so a pair of nodes that merely look close from one
//! vantage group no longer false-clusters.

use tao_landmark::LandmarkVector;
use tao_topology::NodeIdx;

use crate::hybrid::{nearest_by_landmark_distance, Candidate};

/// The landmark-only choice: the candidate with the smallest full-vector
/// distance, found without a single RTT probe. Returns `None` when the pool
/// holds nothing but the querying node.
///
/// Equivalent to [`hybrid_search`](crate::hybrid_search) with a budget of 1
/// (whose single probe only *confirms* this choice).
pub fn landmark_only_choice<'a>(
    query: NodeIdx,
    query_vector: &LandmarkVector,
    pool: &'a [Candidate],
) -> Option<&'a Candidate> {
    nearest_by_landmark_distance(query, query_vector, pool, 1).pop()
}

/// §5.4 landmark groups: rank `pool` by the **maximum** per-group
/// landmark-vector distance across the given component groups.
///
/// Two nodes are only ranked close if *every* vantage group agrees they are
/// close; a single coincidental agreement (false clustering) no longer
/// promotes a distant candidate.
///
/// # Panics
///
/// Panics if `groups` is empty, any group is empty, or any component index
/// exceeds the vectors' dimensionality.
pub fn multi_group_rank<'a>(
    query: NodeIdx,
    query_vector: &LandmarkVector,
    pool: &'a [Candidate],
    groups: &[Vec<usize>],
) -> Vec<&'a Candidate> {
    assert!(!groups.is_empty(), "need at least one landmark group");
    let query_groups: Vec<LandmarkVector> =
        groups.iter().map(|g| query_vector.project(g)).collect();
    let score = |v: &LandmarkVector| -> f64 {
        let per_group = groups
            .iter()
            .zip(&query_groups)
            .map(|(g, q)| q.euclidean_ms(&v.project(g)));
        per_group.fold(0.0, f64::max)
    };
    let mut ranked: Vec<&Candidate> = pool.iter().filter(|c| c.underlay != query).collect();
    #[expect(clippy::expect_used, reason = "scores are finite")]
    ranked.sort_by(|a, b| {
        score(&a.vector)
            .partial_cmp(&score(&b.vector))
            .expect("scores are finite")
            .then(a.underlay.cmp(&b.underlay))
    });
    ranked
}

/// Splits `0..landmarks` into `groups` contiguous component groups of
/// near-equal size — the canonical grouping for [`multi_group_rank`].
///
/// # Panics
///
/// Panics if `groups` is zero or exceeds `landmarks`.
pub fn contiguous_groups(landmarks: usize, groups: usize) -> Vec<Vec<usize>> {
    assert!(
        groups >= 1 && groups <= landmarks,
        "groups must be in 1..=landmarks"
    );
    let base = landmarks / groups;
    let extra = landmarks % groups;
    let mut out = Vec::with_capacity(groups);
    let mut next = 0;
    for g in 0..groups {
        let len = base + usize::from(g < extra);
        out.push((next..next + len).collect());
        next += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidate(id: u32, ms: &[f64]) -> Candidate {
        Candidate {
            underlay: NodeIdx(id),
            vector: LandmarkVector::from_millis(ms),
        }
    }

    #[test]
    fn landmark_only_picks_the_vector_nearest() {
        let pool = vec![
            candidate(1, &[10.0, 10.0, 10.0]),
            candidate(2, &[11.0, 9.0, 10.5]),
            candidate(3, &[90.0, 80.0, 70.0]),
        ];
        let q = LandmarkVector::from_millis(&[11.0, 9.5, 10.0]);
        let best = landmark_only_choice(NodeIdx(99), &q, &pool).expect("pool non-empty");
        assert_eq!(best.underlay, NodeIdx(2));
    }

    #[test]
    fn landmark_only_excludes_self_and_handles_empty() {
        let pool = vec![candidate(1, &[1.0])];
        let q = LandmarkVector::from_millis(&[1.0]);
        assert!(landmark_only_choice(NodeIdx(1), &q, &pool).is_none());
        assert!(landmark_only_choice(NodeIdx(9), &q, &[]).is_none());
    }

    #[test]
    fn group_ranking_suppresses_false_clustering() {
        // Candidate 1 matches the query on the first group only (false
        // clustering from that vantage); candidate 2 is moderately close on
        // both groups. Plain full-vector distance can prefer 1; the
        // max-over-groups score must prefer 2.
        let q = LandmarkVector::from_millis(&[10.0, 10.0, 10.0, 10.0]);
        let pool = vec![
            candidate(1, &[10.0, 10.0, 30.0, 30.0]), // perfect on group A, off on B
            candidate(2, &[25.0, 25.0, 25.0, 25.0]), // consistent 15ms off everywhere
        ];
        let groups = contiguous_groups(4, 2);
        let ranked = multi_group_rank(NodeIdx(0), &q, &pool, &groups);
        assert_eq!(ranked[0].underlay, NodeIdx(2), "group agreement must win");
        // Plain Euclidean would have preferred candidate 1:
        let d1 = q.euclidean_ms(&pool[0].vector);
        let d2 = q.euclidean_ms(&pool[1].vector);
        assert!(d1 < d2, "premise: full-vector distance is fooled");
    }

    #[test]
    fn contiguous_groups_partition_exactly() {
        let g = contiguous_groups(10, 3);
        assert_eq!(g.len(), 3);
        let all: Vec<usize> = g.iter().flatten().copied().collect();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
        assert_eq!(g[0].len(), 4); // 10 = 4 + 3 + 3
        assert_eq!(g[1].len(), 3);
    }

    #[test]
    #[should_panic(expected = "groups must be")]
    fn zero_groups_panics() {
        contiguous_groups(5, 0);
    }
}
