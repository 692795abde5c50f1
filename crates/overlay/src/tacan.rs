//! Topologically-Aware CAN — the *geographic layout* baseline.
//!
//! Ratnasamy et al.'s binning scheme constrains the overlay structure by the
//! physical topology: each node computes its landmark *ordering* (the
//! permutation of landmarks by increasing RTT) and joins CAN at a point
//! inside the region of the Cartesian space assigned to that ordering, so
//! physically close nodes own adjacent zones. A TA-CAN is a plain
//! [`CanOverlay`] whose nodes join at [`binned_join_point`].
//!
//! The paper's §1 criticises exactly this: because orderings are wildly
//! non-uniform, "10% of the nodes can occupy 80–98% of the entire Cartesian
//! space, and some nodes have to maintain 10s–100s of neighbors". This
//! module reproduces the layout and provides [`ImbalanceStats`] to quantify
//! the claim.
//!
//! # Example
//!
//! ```
//! use tao_overlay::tacan::binned_join_point;
//! use tao_overlay::CanOverlay;
//! use tao_topology::NodeIdx;
//! use tao_util::rand::SeedableRng;
//!
//! let mut rng = tao_util::rand::rngs::StdRng::seed_from_u64(2);
//! let mut tacan = CanOverlay::new(2).unwrap();
//! for i in 0..16u32 {
//!     let ordering = if i % 2 == 0 { [0, 1, 2] } else { [1, 0, 2] };
//!     tacan.join(NodeIdx(i), binned_join_point(&ordering, 2, &mut rng));
//! }
//! tacan.check_invariants();
//! assert_eq!(tacan.len(), 16);
//! ```

use tao_util::rand::Rng;

use crate::can::CanOverlay;
use crate::point::Point;

/// Maps a landmark ordering (a permutation of `0..m`) to its lexicographic
/// rank via the Lehmer code, returning `(rank, m!)`.
///
/// # Panics
///
/// Panics if `ordering` is not a permutation of `0..ordering.len()` or is
/// empty or longer than 20 (20! overflows u64).
///
/// # Example
///
/// ```
/// use tao_overlay::tacan::ordering_rank;
///
/// assert_eq!(ordering_rank(&[0, 1, 2]), (0, 6));
/// assert_eq!(ordering_rank(&[2, 1, 0]), (5, 6));
/// ```
pub fn ordering_rank(ordering: &[usize]) -> (u64, u64) {
    let m = ordering.len();
    assert!((1..=20).contains(&m), "ordering length must be in 1..=20");
    let mut seen = vec![false; m];
    for &x in ordering {
        assert!(x < m, "ordering contains out-of-range element {x}");
        assert!(!seen[x], "ordering repeats element {x}");
        seen[x] = true;
    }
    let factorial = |k: u64| -> u64 { (1..=k).product::<u64>().max(1) };
    let mut rank: u64 = 0;
    for (i, &x) in ordering.iter().enumerate() {
        let smaller_remaining = ordering[i + 1..].iter().filter(|&&y| y < x).count() as u64;
        rank += smaller_remaining * factorial((m - 1 - i) as u64);
    }
    (rank, factorial(m as u64))
}

/// The join point Topologically-Aware CAN assigns to a node with the given
/// landmark ordering: the first axis is partitioned into `m!` equal bins by
/// ordering rank; the point is uniform within the bin and on all other axes.
///
/// # Panics
///
/// Panics under the same conditions as [`ordering_rank`], or if `dims` is 0.
pub fn binned_join_point(ordering: &[usize], dims: usize, rng: &mut impl Rng) -> Point {
    assert!(dims > 0, "need at least one dimension");
    let (rank, total) = ordering_rank(ordering);
    let bin_width = 1.0 / total as f64;
    let mut coords = vec![0.0; dims];
    coords[0] = (rank as f64 + rng.gen_range(0.0..1.0)) * bin_width;
    for c in coords.iter_mut().skip(1) {
        *c = rng.gen_range(0.0..1.0);
    }
    Point::clamped(coords)
}

/// Zone-size and neighbor-count imbalance statistics for an overlay —
/// the quantities behind the paper's §1 claim.
#[derive(Debug, Clone, PartialEq)]
pub struct ImbalanceStats {
    volumes: Vec<f64>,
    neighbor_counts: Vec<usize>,
}

impl ImbalanceStats {
    /// Computes the statistics over all live nodes of `can`.
    ///
    /// # Panics
    ///
    /// Panics if the overlay is empty.
    pub fn measure(can: &CanOverlay) -> Self {
        assert!(!can.is_empty(), "overlay has no live nodes");
        let mut volumes = Vec::with_capacity(can.len());
        let mut neighbor_counts = Vec::with_capacity(can.len());
        for id in can.live_nodes() {
            #[expect(clippy::expect_used, reason = "live node")]
            volumes.push(can.zone(id).expect("live node").volume());
            #[expect(clippy::expect_used, reason = "live node")]
            neighbor_counts.push(can.neighbors(id).expect("live node").len());
        }
        volumes.sort_by(|a, b| b.total_cmp(a));
        neighbor_counts.sort_unstable_by(|a, b| b.cmp(a));
        ImbalanceStats {
            volumes,
            neighbor_counts,
        }
    }

    /// Fraction of the total space owned by the largest `fraction` of nodes
    /// (e.g. `0.10` → the paper's "10% of nodes own …").
    ///
    /// # Panics
    ///
    /// Panics unless `fraction` is in `(0, 1]`.
    pub fn top_share(&self, fraction: f64) -> f64 {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "fraction must be in (0, 1]"
        );
        let k = ((self.volumes.len() as f64 * fraction).ceil() as usize).max(1);
        let total: f64 = self.volumes.iter().sum();
        self.volumes.iter().take(k).sum::<f64>() / total
    }

    /// The largest neighbor count of any node, or 0 with no nodes.
    pub fn max_neighbors(&self) -> usize {
        self.neighbor_counts.first().copied().unwrap_or(0)
    }

    /// Mean neighbor count.
    pub fn mean_neighbors(&self) -> f64 {
        self.neighbor_counts.iter().sum::<usize>() as f64 / self.neighbor_counts.len() as f64
    }

    /// Ratio of the largest zone volume to the smallest, or 1.0 with no
    /// nodes (an empty membership is vacuously balanced).
    pub fn volume_spread(&self) -> f64 {
        match (self.volumes.first(), self.volumes.last()) {
            (Some(&largest), Some(&smallest)) => largest / smallest,
            _ => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tao_topology::NodeIdx;
    use tao_util::rand::rngs::StdRng;
    use tao_util::rand::SeedableRng;

    #[test]
    fn ranks_cover_all_permutations() {
        // All 3! = 6 orderings get distinct ranks 0..6.
        let perms: [[usize; 3]; 6] = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        let mut ranks: Vec<u64> = perms.iter().map(|p| ordering_rank(p).0).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "repeats")]
    fn duplicate_elements_panic() {
        let _ = ordering_rank(&[0, 0, 1]);
    }

    #[test]
    fn binned_points_land_in_their_bins() {
        let mut rng = StdRng::seed_from_u64(5);
        let (rank, total) = ordering_rank(&[1, 0, 2]);
        for _ in 0..50 {
            let p = binned_join_point(&[1, 0, 2], 2, &mut rng);
            let bin = (p.coord(0) * total as f64).floor() as u64;
            assert_eq!(bin, rank);
        }
    }

    #[test]
    fn skewed_orderings_produce_imbalance() {
        // All nodes share one of two orderings: the space fills unevenly,
        // exactly the pathology the paper describes.
        let mut can = CanOverlay::new(2).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        for i in 0..200u32 {
            let ordering: &[usize] = if i % 2 == 0 { &[0, 1, 2] } else { &[0, 2, 1] };
            let p = binned_join_point(ordering, 2, &mut rng);
            can.join(NodeIdx(i), p);
        }
        let stats = ImbalanceStats::measure(&can);
        // 10% of nodes own the vast majority of the space.
        assert!(
            stats.top_share(0.10) > 0.5,
            "expected heavy imbalance, top 10% own {:.2}",
            stats.top_share(0.10)
        );
        assert!(stats.volume_spread() > 100.0);
    }

    #[test]
    fn uniform_joins_are_much_more_balanced() {
        let mut can = CanOverlay::new(2).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for i in 0..200u32 {
            can.join(NodeIdx(i), Point::random(2, &mut rng));
        }
        let stats = ImbalanceStats::measure(&can);
        assert!(
            stats.top_share(0.10) < 0.5,
            "uniform joins should be balanced, top 10% own {:.2}",
            stats.top_share(0.10)
        );
    }

    #[test]
    fn neighbor_stats_are_consistent() {
        let mut can = CanOverlay::new(2).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        for i in 0..64u32 {
            can.join(NodeIdx(i), Point::random(2, &mut rng));
        }
        let stats = ImbalanceStats::measure(&can);
        assert!(stats.max_neighbors() >= stats.mean_neighbors() as usize);
        assert!(stats.mean_neighbors() >= 2.0);
    }
}
