//! §5.4 "pushing limits": the three proposed refinements of proximity
//! generation, under a large *noisy* landmark set —
//!
//! 1. **landmark groups** — several vantage groups joined by worst-group
//!    distance, suppressing false clustering,
//! 2. **hierarchical spaces** — a coarse pre-selection on a few widely
//!    scattered components refined by the full vector,
//! 3. **SVD/PCA denoising** — rank in the top principal components of the
//!    noisy vectors.
//!
//! All three feed the same probe loop as the flat baseline, so the numbers
//! sit on the figure-3 axis: nearest-neighbor stretch after k probes.
//! Measurement noise is multiplicative per-probe jitter, the regime the
//! paper's "suppress noises" remark targets.

use tao_bench::{f3, print_table, Scale};
use tao_landmark::analysis::PcaModel;
use tao_landmark::LandmarkVector;
use tao_proximity::{
    contiguous_groups, multi_group_rank, nn_stretch, probe_ranked, true_nearest, Candidate,
};
use tao_sim::SimDuration;
use tao_topology::landmarks::{select_landmarks, LandmarkStrategy};
use tao_topology::{generate_transit_stub, LatencyAssignment, NodeIdx};
use tao_util::rand::rngs::StdRng;
use tao_util::rand::{Rng, SeedableRng};

const LANDMARKS: usize = 40;
const NOISE: f64 = 0.35; // up to ±35% multiplicative jitter per probe
const BUDGETS: &[usize] = &[5, 10, 20];
const GROUPS: usize = 4;
const PCA_KEEP: usize = 8;
const COARSE: usize = 5;
const SHORTLIST: usize = 64;

fn jitter(v: &LandmarkVector, rng: &mut StdRng) -> LandmarkVector {
    LandmarkVector::new(
        v.rtts()
            .iter()
            .map(|r| {
                let f = 1.0 + rng.gen_range(-NOISE..NOISE);
                SimDuration::from_millis_f64(r.as_millis_f64() * f)
            })
            .collect(),
    )
}

fn main() {
    let scale = Scale::from_env();
    eprintln!("sec54_optimizations: building world…");
    let topo = generate_transit_stub(&scale.tsk_large(), LatencyAssignment::gt_itm(), 501);
    let oracle = tao_topology::RttOracle::new(topo.graph().clone());
    let mut rng = StdRng::seed_from_u64(502);
    let landmarks = select_landmarks(topo.graph(), LANDMARKS, LandmarkStrategy::Random, &mut rng);
    oracle.warm(&landmarks);

    let pool_ids = topo.sample_nodes(scale.base_params().overlay_nodes, &mut rng);
    // Every node's *measured* (noisy) vector — what the algorithms see.
    let noisy: Vec<Candidate> = pool_ids
        .iter()
        .map(|&n| Candidate {
            underlay: n,
            vector: jitter(&LandmarkVector::measure(n, &landmarks, &oracle), &mut rng),
        })
        .collect();

    eprintln!("sec54_optimizations: fitting the PCA basis…");
    let vectors: Vec<LandmarkVector> = noisy.iter().map(|c| c.vector.clone()).collect();
    let pca = PcaModel::fit(&vectors, PCA_KEEP);
    let groups = contiguous_groups(LANDMARKS, GROUPS);

    let queries: Vec<usize> = (0..pool_ids.len())
        .step_by((pool_ids.len() / scale.query_nodes().max(1)).max(1))
        .collect();
    let mut sums = vec![[0.0f64; 4]; BUDGETS.len()];
    let mut counted = 0usize;
    for &q in &queries {
        let me = pool_ids[q];
        let (_, optimal) =
            true_nearest(me, pool_ids.iter().copied(), &oracle).expect("pool non-trivial");
        if optimal.is_zero() {
            continue;
        }
        counted += 1;
        let qv = &noisy[q].vector;

        // 0: flat full-vector ranking.
        let flat: Vec<NodeIdx> = {
            let mut idx: Vec<usize> = (0..noisy.len()).filter(|&i| i != q).collect();
            idx.sort_by(|&a, &b| {
                qv.euclidean_ms(&noisy[a].vector)
                    .partial_cmp(&qv.euclidean_ms(&noisy[b].vector))
                    .expect("finite")
                    .then(pool_ids[a].cmp(&pool_ids[b]))
            });
            idx.into_iter().map(|i| pool_ids[i]).collect()
        };
        // 1: landmark groups (worst-group distance).
        let grouped: Vec<NodeIdx> = multi_group_rank(me, qv, &noisy, &groups)
            .into_iter()
            .map(|c| c.underlay)
            .collect();
        // 2: hierarchical — coarse prefix shortlist, full-vector refinement.
        let hierarchical: Vec<NodeIdx> = {
            let coarse_q = qv.prefix(COARSE);
            let mut idx: Vec<usize> = (0..noisy.len()).filter(|&i| i != q).collect();
            idx.sort_by(|&a, &b| {
                coarse_q
                    .euclidean_ms(&noisy[a].vector.prefix(COARSE))
                    .partial_cmp(&coarse_q.euclidean_ms(&noisy[b].vector.prefix(COARSE)))
                    .expect("finite")
                    .then(pool_ids[a].cmp(&pool_ids[b]))
            });
            idx.truncate(SHORTLIST);
            idx.sort_by(|&a, &b| {
                qv.euclidean_ms(&noisy[a].vector)
                    .partial_cmp(&qv.euclidean_ms(&noisy[b].vector))
                    .expect("finite")
                    .then(pool_ids[a].cmp(&pool_ids[b]))
            });
            idx.into_iter().map(|i| pool_ids[i]).collect()
        };
        // 3: PCA-denoised ranking.
        let denoised: Vec<NodeIdx> = {
            let mut idx: Vec<usize> = (0..noisy.len()).filter(|&i| i != q).collect();
            idx.sort_by(|&a, &b| {
                pca.projected_distance(qv, &noisy[a].vector)
                    .partial_cmp(&pca.projected_distance(qv, &noisy[b].vector))
                    .expect("finite")
                    .then(pool_ids[a].cmp(&pool_ids[b]))
            });
            idx.into_iter().map(|i| pool_ids[i]).collect()
        };

        let max = *BUDGETS.last().expect("non-empty");
        for (m, ranked) in [flat, grouped, hierarchical, denoised]
            .into_iter()
            .enumerate()
        {
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
            let mut row = vec![b.to_string()];
            row.extend(sums[bi].iter().map(|s| f3(s / counted as f64)));
            row
        })
        .collect();
    print_table(
        &format!(
            "§5.4 optimisations under ±{:.0}% probe noise, {LANDMARKS} landmarks (NN stretch)",
            NOISE * 100.0
        ),
        &[
            "RTT probes",
            "flat vectors",
            "landmark groups",
            "hierarchical",
            "PCA denoised",
        ],
        &rows,
    );
}
