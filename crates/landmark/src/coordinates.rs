//! Coordinate-based network positioning (GNP-style) — the third
//! proximity-generation approach of the paper's related work.
//!
//! "Landmark nodes measure the RTTs among themselves and use this
//! information to compute a coordinate in a Cartesian space for each of
//! them. These coordinates are then distributed to clients, which measure
//! RTTs to landmark nodes and compute a coordinate … The Euclidean
//! distance between nodes in the Cartesian space is directly used as an
//! estimation of the network distance."
//!
//! Implemented with plain gradient descent on the squared embedding error —
//! deterministic given a seed, no linear-algebra dependencies.

use tao_util::rand::rngs::StdRng;
use tao_util::rand::{Rng, SeedableRng};

use crate::vector::LandmarkVector;

/// A point in the coordinate space, in millisecond units.
pub type Coordinates = Vec<f64>;

/// Euclidean distance between two coordinate vectors — the GNP estimate of
/// the RTT between their owners, in milliseconds.
///
/// # Panics
///
/// Panics if dimensionalities differ.
pub fn estimated_distance_ms(a: &Coordinates, b: &Coordinates) -> f64 {
    assert_eq!(a.len(), b.len(), "coordinate dimensionality mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Embeds the landmark set: finds per-landmark coordinates whose pairwise
/// Euclidean distances approximate `rtt_ms[i][j]` (a symmetric matrix of
/// measured RTTs in milliseconds), by gradient descent from a seeded random
/// start.
///
/// # Panics
///
/// Panics if the matrix is empty or not square, `dims` is zero, or
/// `iterations` is zero.
pub fn fit_landmarks(
    rtt_ms: &[Vec<f64>],
    dims: usize,
    iterations: usize,
    seed: u64,
) -> Vec<Coordinates> {
    let n = rtt_ms.len();
    assert!(n > 0, "need at least one landmark");
    assert!(
        rtt_ms.iter().all(|row| row.len() == n),
        "matrix must be square"
    );
    assert!(dims > 0, "need at least one dimension");
    assert!(iterations > 0, "need at least one iteration");

    let scale = rtt_ms.iter().flatten().copied().fold(1.0f64, f64::max);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coords: Vec<Coordinates> = (0..n)
        .map(|_| (0..dims).map(|_| rng.gen_range(0.0..scale)).collect())
        .collect();

    let mut rate = 0.1;
    for _ in 0..iterations {
        let mut gradients = vec![vec![0.0; dims]; n];
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let est = estimated_distance_ms(&coords[i], &coords[j]).max(1e-9);
                let err = est - rtt_ms[i][j];
                for d in 0..dims {
                    gradients[i][d] += 2.0 * err * (coords[i][d] - coords[j][d]) / est;
                }
            }
        }
        for i in 0..n {
            for d in 0..dims {
                coords[i][d] -= rate * gradients[i][d] / n as f64;
            }
        }
        rate *= 0.999;
    }
    coords
}

/// Computes a client's coordinates from its RTTs to the embedded landmarks
/// (the second GNP phase), again by seeded gradient descent.
///
/// # Panics
///
/// Panics if `landmark_coords` is empty, lengths mismatch, or `iterations`
/// is zero.
pub fn fit_client(
    landmark_coords: &[Coordinates],
    rtts: &LandmarkVector,
    iterations: usize,
    seed: u64,
) -> Coordinates {
    assert!(!landmark_coords.is_empty(), "need landmark coordinates");
    assert_eq!(
        landmark_coords.len(),
        rtts.len(),
        "one RTT per landmark required"
    );
    assert!(iterations > 0, "need at least one iteration");
    let dims = landmark_coords[0].len();

    // Start at the centroid, jittered.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c: Coordinates = (0..dims)
        .map(|d| {
            let centroid =
                landmark_coords.iter().map(|l| l[d]).sum::<f64>() / landmark_coords.len() as f64;
            centroid + rng.gen_range(-1.0..1.0)
        })
        .collect();

    let mut rate = 0.1;
    for _ in 0..iterations {
        let mut grad = vec![0.0; dims];
        for (l, lc) in landmark_coords.iter().enumerate() {
            let est = estimated_distance_ms(&c, lc).max(1e-9);
            let err = est - rtts.rtt(l).as_millis_f64();
            for d in 0..dims {
                grad[d] += 2.0 * err * (c[d] - lc[d]) / est;
            }
        }
        for d in 0..dims {
            c[d] -= rate * grad[d] / landmark_coords.len() as f64;
        }
        rate *= 0.999;
    }
    c
}

/// Mean relative error of the landmark embedding itself — a fit-quality
/// diagnostic: `mean(|est - actual| / actual)` over all pairs.
pub fn embedding_error(rtt_ms: &[Vec<f64>], coords: &[Coordinates]) -> f64 {
    let n = rtt_ms.len();
    let mut total = 0.0;
    let mut count = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            if rtt_ms[i][j] <= 0.0 {
                continue;
            }
            let est = estimated_distance_ms(&coords[i], &coords[j]);
            total += (est - rtt_ms[i][j]).abs() / rtt_ms[i][j];
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distances drawn from actual points embed (nearly) perfectly.
    #[test]
    fn euclidean_ground_truth_is_recoverable() {
        let truth: Vec<Coordinates> = vec![
            vec![0.0, 0.0],
            vec![100.0, 0.0],
            vec![0.0, 80.0],
            vec![60.0, 60.0],
            vec![120.0, 90.0],
        ];
        let n = truth.len();
        let mut rtt = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..n {
                rtt[i][j] = estimated_distance_ms(&truth[i], &truth[j]);
            }
        }
        let coords = fit_landmarks(&rtt, 2, 4_000, 1);
        let err = embedding_error(&rtt, &coords);
        assert!(err < 0.05, "embedding error {err:.3} too high");
    }

    #[test]
    fn client_fitting_places_near_its_true_position() {
        let landmarks: Vec<Coordinates> = vec![
            vec![0.0, 0.0],
            vec![100.0, 0.0],
            vec![0.0, 100.0],
            vec![100.0, 100.0],
        ];
        // A client truly at (30, 40).
        let truth = vec![30.0, 40.0];
        let rtts = LandmarkVector::from_millis(
            &landmarks
                .iter()
                .map(|l| estimated_distance_ms(&truth, l))
                .collect::<Vec<_>>(),
        );
        let fitted = fit_client(&landmarks, &rtts, 3_000, 2);
        let off = estimated_distance_ms(&fitted, &truth);
        assert!(off < 5.0, "client landed {off:.1}ms from its true position");
    }

    #[test]
    fn estimates_correlate_with_real_distances_on_a_topology() {
        use tao_topology::landmarks::{select_landmarks, LandmarkStrategy};
        use tao_topology::{
            generate_transit_stub, LatencyAssignment, RttOracle, TransitStubParams,
        };
        use tao_util::rand::rngs::StdRng;
        use tao_util::rand::SeedableRng;

        let topo = generate_transit_stub(
            &TransitStubParams::tsk_large_mini(),
            LatencyAssignment::manual(),
            5,
        );
        let oracle = RttOracle::new(topo.graph().clone());
        let mut rng = StdRng::seed_from_u64(6);
        let lms = select_landmarks(topo.graph(), 8, LandmarkStrategy::Random, &mut rng);
        oracle.warm(&lms);
        let n = lms.len();
        let mut rtt = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..n {
                rtt[i][j] = oracle.ground_truth(lms[i], lms[j]).as_millis_f64();
            }
        }
        let lcoords = fit_landmarks(&rtt, 4, 2_000, 7);

        // Fit 30 clients; check estimated vs true pairwise distances agree
        // in *rank* most of the time (Internet RTTs don't embed perfectly —
        // the paper's point about triangle-inequality violations).
        let clients: Vec<_> = (0..30u32)
            .map(|i| {
                let node = tao_topology::NodeIdx(i * 17 + 3);
                let v = crate::vector::LandmarkVector::measure(node, &lms, &oracle);
                (node, fit_client(&lcoords, &v, 1_500, u64::from(i)))
            })
            .collect();
        let mut agree = 0;
        let mut total = 0;
        for i in 0..clients.len() {
            for j in (i + 1)..clients.len() {
                for k in (j + 1)..clients.len() {
                    let (na, ca) = &clients[i];
                    let (nb, cb) = &clients[j];
                    let (nc, cc) = &clients[k];
                    let real_ij = oracle.ground_truth(*na, *nb);
                    let real_ik = oracle.ground_truth(*na, *nc);
                    let est_ij = estimated_distance_ms(ca, cb);
                    let est_ik = estimated_distance_ms(ca, cc);
                    if (real_ij < real_ik) == (est_ij < est_ik) {
                        agree += 1;
                    }
                    total += 1;
                }
            }
        }
        let rate = agree as f64 / total as f64;
        assert!(
            rate > 0.6,
            "coordinate estimates should usually rank pairs correctly, got {rate:.2}"
        );
    }

    #[test]
    #[should_panic(expected = "square")]
    fn ragged_matrix_panics() {
        fit_landmarks(&[vec![0.0, 1.0], vec![1.0]], 2, 10, 0);
    }

    #[test]
    #[should_panic(expected = "one RTT per landmark")]
    fn client_rtt_count_must_match() {
        let lc = vec![vec![0.0, 0.0], vec![1.0, 1.0]];
        fit_client(&lc, &LandmarkVector::from_millis(&[1.0]), 10, 0);
    }
}
