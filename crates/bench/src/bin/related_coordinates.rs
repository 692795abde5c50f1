//! Related-work comparison (§2): the three proximity-generation families
//! head to head as *pre-selection* for nearest-neighbor search —
//!
//! * landmark vectors (the paper's choice: rank by Euclidean distance in
//!   raw RTT space),
//! * GNP-style coordinates (embed landmarks, fit clients, rank by embedded
//!   distance),
//! * landmark *ordering* (Topologically-Aware CAN's permutation signature:
//!   rank by length of the shared ordering prefix).
//!
//! Each ranking feeds the same probe loop (`probe_ranked`), so the y-axis
//! is directly comparable to figures 3/5: nearest-neighbor stretch after k
//! RTT measurements.

use tao_bench::{f3, print_table, Scale};
use tao_landmark::coordinates::{estimated_distance_ms, fit_client, fit_landmarks, Coordinates};
use tao_landmark::LandmarkVector;
use tao_proximity::{nn_stretch, probe_ranked, true_nearest};
use tao_topology::landmarks::{select_landmarks, LandmarkStrategy};
use tao_topology::{generate_transit_stub, LatencyAssignment, NodeIdx, RttOracle};
use tao_util::rand::rngs::StdRng;
use tao_util::rand::SeedableRng;

const LANDMARKS: usize = 15;
const BUDGETS: &[usize] = &[1, 5, 10, 20, 40];

fn shared_ordering_prefix(a: &[usize], b: &[usize]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

fn main() {
    let scale = Scale::from_env();
    eprintln!("related_coordinates: building world…");
    let topo = generate_transit_stub(&scale.tsk_large(), LatencyAssignment::gt_itm(), 301);
    let oracle = RttOracle::new(topo.graph().clone());
    let mut rng = StdRng::seed_from_u64(302);
    let landmarks = select_landmarks(topo.graph(), LANDMARKS, LandmarkStrategy::Random, &mut rng);
    oracle.warm(&landmarks);

    // Pool: a sample of routers with vectors, orderings, and coordinates.
    let pool_ids = topo.sample_nodes(scale.base_params().overlay_nodes, &mut rng);
    let vectors: Vec<LandmarkVector> = pool_ids
        .iter()
        .map(|&n| LandmarkVector::measure(n, &landmarks, &oracle))
        .collect();
    let orderings: Vec<Vec<usize>> = vectors.iter().map(LandmarkVector::ordering).collect();

    eprintln!("related_coordinates: fitting the GNP embedding…");
    let n_lm = landmarks.len();
    let mut rtt = vec![vec![0.0; n_lm]; n_lm];
    for i in 0..n_lm {
        for j in 0..n_lm {
            rtt[i][j] = oracle
                .ground_truth(landmarks[i], landmarks[j])
                .as_millis_f64();
        }
    }
    let lcoords = fit_landmarks(&rtt, 7, 2_000, 303);
    let coords: Vec<Coordinates> = vectors
        .iter()
        .enumerate()
        .map(|(i, v)| fit_client(&lcoords, v, 800, 304 + i as u64))
        .collect();

    // Rankers: given a query index, order the rest of the pool.
    let rank_by = |score: &dyn Fn(usize) -> f64, q: usize| -> Vec<NodeIdx> {
        let mut order: Vec<usize> = (0..pool_ids.len()).filter(|&i| i != q).collect();
        order.sort_by(|&a, &b| {
            score(a)
                .partial_cmp(&score(b))
                .expect("scores are finite")
                .then(pool_ids[a].cmp(&pool_ids[b]))
        });
        order.into_iter().map(|i| pool_ids[i]).collect()
    };

    let queries: Vec<usize> = (0..pool_ids.len())
        .step_by(pool_ids.len() / scale.query_nodes().max(1))
        .collect();
    let mut sums = vec![[0.0f64; 3]; BUDGETS.len()];
    let mut counted = 0usize;
    for &q in &queries {
        let me = pool_ids[q];
        let (_, optimal) =
            true_nearest(me, pool_ids.iter().copied(), &oracle).expect("pool is non-trivial");
        if optimal.is_zero() {
            continue;
        }
        counted += 1;
        let by_vector = rank_by(&|i| vectors[q].euclidean_ms(&vectors[i]), q);
        let by_coords = rank_by(&|i| estimated_distance_ms(&coords[q], &coords[i]), q);
        let by_ordering = rank_by(
            &|i| -(shared_ordering_prefix(&orderings[q], &orderings[i]) as f64),
            q,
        );
        for (m, ranked) in [by_vector, by_coords, by_ordering].into_iter().enumerate() {
            let max = *BUDGETS.last().expect("non-empty");
            let trace = probe_ranked(me, &ranked, max, &oracle);
            for (bi, &b) in BUDGETS.iter().enumerate() {
                sums[bi][m] += nn_stretch(trace.best_after(b).expect("budget >= 1").rtt, optimal);
            }
        }
    }

    let rows: Vec<Vec<String>> = BUDGETS
        .iter()
        .enumerate()
        .map(|(bi, &b)| {
            vec![
                b.to_string(),
                f3(sums[bi][0] / counted as f64),
                f3(sums[bi][1] / counted as f64),
                f3(sums[bi][2] / counted as f64),
            ]
        })
        .collect();
    print_table(
        "Related work: pre-selection quality (NN stretch after k probes, tsk-large GT-ITM)",
        &[
            "RTT probes",
            "landmark vectors",
            "GNP coordinates",
            "landmark ordering",
        ],
        &rows,
    );
}
