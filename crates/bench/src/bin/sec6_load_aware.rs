//! Section 6: trading network distance for forwarding capacity and load.
//!
//! Heterogeneous node capacities (10% strong / 30% medium / 60% weak); a
//! routing workload loads every forwarding hop. Nodes periodically publish
//! their load along with their proximity information and re-select
//! neighbors against it (the paper's demand-driven maintenance), so the
//! system converges instead of herding onto whichever node looked idle in
//! a stale snapshot.
//!
//! Expected shape: as the load penalty grows, peak utilization falls while
//! mean stretch rises moderately — distance is traded for headroom.

use tao_util::rand::rngs::StdRng;
use tao_util::rand::{Rng, SeedableRng};
use tao_bench::{f3, print_table, Scale};
use tao_core::{LoadAwareSelector, LoadModel, SelectionStrategy, TaoBuilder};
use tao_overlay::ecan::EcanOverlay;
use tao_overlay::{OverlayNodeId, Point, RouteScratch};
use tao_sim::SimDuration;
use tao_topology::{LatencyAssignment, RttOracle};

const ROUNDS: usize = 10;
const ROUTES_PER_ROUND: usize = 300;
const PENALTIES: &[f64] = &[0.0, 1.0, 10.0, 100.0];
/// Exponential decay of published load between rounds (fresh statistics
/// dominate, old ones fade — the soft-state TTL in miniature).
const DECAY: f64 = 0.5;

/// Routes one round of workload, charging unit load to forwarding hops.
/// Returns `(sum of stretch, routes counted)`.
fn run_round(
    ecan: &EcanOverlay,
    oracle: &RttOracle,
    live: &[OverlayNodeId],
    model: &mut LoadModel,
    rng: &mut StdRng,
) -> (f64, usize) {
    let mut stretch_total = 0.0;
    let mut counted = 0usize;
    let mut scratch = RouteScratch::new();
    for _ in 0..ROUTES_PER_ROUND {
        let src = live[rng.gen_range(0..live.len())];
        let target = Point::random(2, rng);
        if ecan.route_express_into(&mut scratch, src, &target).is_err() {
            continue;
        }
        let hops = scratch.hops();
        if hops.len() < 2 {
            continue;
        }
        for &hop in &hops[1..hops.len() - 1] {
            model.add_load(hop, 1.0);
        }
        let dst = hops[hops.len() - 1];
        let direct = oracle.ground_truth(ecan.can().underlay(src), ecan.can().underlay(dst));
        if direct.is_zero() {
            continue;
        }
        let mut path = SimDuration::ZERO;
        for w in hops.windows(2) {
            path += oracle.ground_truth(ecan.can().underlay(w[0]), ecan.can().underlay(w[1]));
        }
        stretch_total += path / direct;
        counted += 1;
    }
    (stretch_total, counted)
}

fn decay_loads(model: &mut LoadModel, live: &[OverlayNodeId]) {
    for &n in live {
        if let Some(s) = model.stats(n) {
            model.reset(n);
            model.add_load(n, s.current_load * DECAY);
        }
    }
}

fn main() {
    let scale = Scale::from_env();
    let mut base = scale.base_params();
    base.selection = SelectionStrategy::GlobalState;

    eprintln!("sec6: building base system…");
    let mut builder = TaoBuilder::new();
    builder
        .topology(scale.tsk_large())
        .latency(LatencyAssignment::manual())
        .params(base)
        .seed(111);
    let tao = builder.build();
    let oracle = tao.oracle().clone();
    let live: Vec<OverlayNodeId> = tao.ecan().can().live_nodes().collect();

    let mut rows = Vec::new();
    for &penalty in PENALTIES {
        eprintln!("sec6: penalty {penalty}…");
        let mut model = LoadModel::heterogeneous(live.iter().copied(), 112);
        let mut ecan = tao.ecan().clone();
        let mut rng = StdRng::seed_from_u64(114);
        let mut last_stretch = 0.0;
        for round in 0..ROUNDS {
            let (stretch_sum, counted) = run_round(&ecan, &oracle, &live, &mut model, &mut rng);
            if round + 1 == ROUNDS {
                last_stretch = stretch_sum / counted.max(1) as f64;
            } else {
                // Publish fresh load, decay stale load, re-select.
                {
                    let mut selector = LoadAwareSelector::new(&oracle, &model, penalty);
                    ecan.reselect(&mut selector);
                }
                decay_loads(&mut model, &live);
            }
        }
        let mut utils: Vec<f64> = model.iter().map(|(_, s)| s.utilization()).collect();
        utils.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let max_util = *utils.last().expect("non-empty");
        let p95 = utils[(utils.len() as f64 * 0.95) as usize];
        // Total work queued beyond capacity, summed across all nodes: the
        // stable measure of how much the system is overloaded.
        let overload: f64 = model
            .iter()
            .map(|(_, s)| (s.current_load - s.capacity).max(0.0))
            .sum();
        rows.push(vec![
            format!("{penalty}"),
            f3(max_util),
            f3(p95),
            f3(overload),
            f3(last_stretch),
        ]);
    }
    print_table(
        "Section 6: load-aware neighbor selection with periodic load publication",
        &[
            "load penalty",
            "max util",
            "p95 util",
            "overload mass",
            "mean stretch (final round)",
        ],
        &rows,
    );
}
