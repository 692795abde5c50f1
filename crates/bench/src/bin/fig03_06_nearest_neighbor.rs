//! Figures 3–6: nearest-neighbor stretch versus number of RTT measurements,
//! for expanding-ring search (ERS) and the hybrid landmark+RTT scheme, on
//! both `tsk-large` (figs. 3 & 4) and `tsk-small` (figs. 5 & 6).
//!
//! The paper's finding: ERS needs *thousands* of probes to approach
//! stretch 1; the hybrid approach gets close with 5–30. The `lmk+rtt`
//! series' first point (one measurement) is "landmark clustering alone".

use tao_bench::{f3, print_table, Scale};
use tao_landmark::LandmarkVector;
use tao_overlay::{CanOverlay, OverlayNodeId, Point};
use tao_proximity::{expanding_ring_search, hybrid_search, nn_stretch, true_nearest, Candidate};
use tao_topology::landmarks::{select_landmarks, LandmarkStrategy};
use tao_topology::{generate_transit_stub, LatencyAssignment, RttOracle, TransitStubParams};
use tao_util::rand::rngs::StdRng;
use tao_util::rand::SeedableRng;

const LANDMARKS: usize = 15;
const HYBRID_BUDGETS: &[usize] = &[1, 2, 5, 10, 15, 20, 30, 40];
const ERS_BUDGETS: &[usize] = &[10, 50, 100, 200, 500, 1_000, 2_000, 4_000];

struct Setup {
    oracle: RttOracle,
    can: CanOverlay,
    pool: Vec<Candidate>,
    queries: Vec<OverlayNodeId>,
}

/// Builds the experiment world: a 2-d CAN of *all* routers (the paper's ERS
/// substrate), landmark vectors for everyone, and the random query set.
fn setup(params: &TransitStubParams, query_count: usize, seed: u64) -> Setup {
    let topo = generate_transit_stub(params, LatencyAssignment::gt_itm(), seed);
    let oracle = RttOracle::new(topo.graph().clone());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51);
    let landmarks = select_landmarks(topo.graph(), LANDMARKS, LandmarkStrategy::Random, &mut rng);
    oracle.warm(&landmarks);

    let mut can = CanOverlay::new(2).expect("2-d CAN");
    for r in topo.graph().nodes() {
        can.join(r, Point::random(2, &mut rng));
    }
    let pool: Vec<Candidate> = topo
        .graph()
        .nodes()
        .map(|r| Candidate {
            underlay: r,
            vector: LandmarkVector::measure(r, &landmarks, &oracle),
        })
        .collect();
    let queries: Vec<OverlayNodeId> = {
        let mut live: Vec<OverlayNodeId> = can.live_nodes().collect();
        use tao_util::rand::seq::SliceRandom;
        live.shuffle(&mut rng);
        live.truncate(query_count);
        live
    };
    Setup {
        oracle,
        can,
        pool,
        queries,
    }
}

/// Mean nearest-neighbor stretch of both algorithms at every budget.
fn run(setup: &Setup) -> (Vec<f64>, Vec<f64>) {
    let Setup {
        oracle,
        can,
        pool,
        queries,
    } = setup;
    let max_hybrid = *HYBRID_BUDGETS.last().expect("budgets non-empty");
    let max_ers = *ERS_BUDGETS.last().expect("budgets non-empty");
    let mut hybrid_sum = vec![0.0; HYBRID_BUDGETS.len()];
    let mut ers_sum = vec![0.0; ERS_BUDGETS.len()];
    let mut counted = 0usize;
    for &q in queries {
        let me = can.underlay(q);
        let (_, optimal) = true_nearest(me, pool.iter().map(|c| c.underlay), oracle)
            .expect("pool is larger than one");
        if optimal.is_zero() {
            continue; // co-located twin: stretch undefined, skip as the paper's sampling would
        }
        counted += 1;
        let qv = pool
            .iter()
            .find(|c| c.underlay == me)
            .expect("query is in the pool")
            .vector
            .clone();
        let h = hybrid_search(me, &qv, pool, max_hybrid, oracle);
        for (i, &b) in HYBRID_BUDGETS.iter().enumerate() {
            let best = h.best_after(b).expect("budget >= 1").rtt;
            hybrid_sum[i] += nn_stretch(best, optimal);
        }
        let e = expanding_ring_search(can, q, max_ers, oracle);
        for (i, &b) in ERS_BUDGETS.iter().enumerate() {
            let best = e.best_after(b).expect("budget >= 1").rtt;
            ers_sum[i] += nn_stretch(best, optimal);
        }
    }
    (
        hybrid_sum.iter().map(|s| s / counted as f64).collect(),
        ers_sum.iter().map(|s| s / counted as f64).collect(),
    )
}

fn print_figures(topology_name: &str, hybrid: &[f64], ers: &[f64]) {
    let rows: Vec<Vec<String>> = HYBRID_BUDGETS
        .iter()
        .zip(hybrid)
        .map(|(b, s)| vec![b.to_string(), f3(*s)])
        .collect();
    print_table(
        &format!("lmk+rtt nearest-neighbor stretch, {topology_name}"),
        &["RTT measurements", "stretch"],
        &rows,
    );
    let rows: Vec<Vec<String>> = ERS_BUDGETS
        .iter()
        .zip(ers)
        .map(|(b, s)| vec![b.to_string(), f3(*s)])
        .collect();
    print_table(
        &format!("ERS nearest-neighbor stretch, {topology_name}"),
        &["RTT measurements", "stretch"],
        &rows,
    );
}

fn main() {
    let scale = Scale::from_env();
    let queries = scale.query_nodes();

    eprintln!("fig03/04: building tsk-large world…");
    let large = setup(&scale.tsk_large(), queries, 11);
    let (hybrid_l, ers_l) = run(&large);
    drop(large);
    print_figures("tsk-large (figures 3 & 4)", &hybrid_l, &ers_l);

    eprintln!("fig05/06: building tsk-small world…");
    let small = setup(&scale.tsk_small(), queries, 12);
    let (hybrid_s, ers_s) = run(&small);
    drop(small);
    print_figures("tsk-small (figures 5 & 6)", &hybrid_s, &ers_s);
}
