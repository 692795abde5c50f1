//! Join cost, simulated message by message on the virtual-time engine:
//! what it takes for a newcomer to find a close neighbor under
//!
//! * **ERS-flood bootstrap** — the expanding-ring search existing overlays
//!   use: flood the neighbor graph ring by ring, every contacted node
//!   replies, the joiner keeps the closest replier; and
//! * **global-soft-state lookup** — the paper's join: route one lookup to
//!   the map host (O(log N) overlay hops), receive the top-X candidates,
//!   probe exactly X nodes.
//!
//! Both flows run as real timed messages over the same topology, so the
//! table reports *messages sent* and *virtual time elapsed* until each
//! approach has locked in its neighbor, plus the quality (stretch) of the
//! neighbor it found. This quantifies the paper's core efficiency claim:
//! "existing techniques … are either inaccurate or expensive".

use tao_util::det::DetSet;

use tao_bench::{f3, print_table, Scale};
use tao_core::{SelectionStrategy, TaoBuilder};
use tao_overlay::OverlayNodeId;
use tao_proximity::{nn_stretch, true_nearest};
use tao_sim::{NodeId, SimDuration, SimTime, Simulator};
use tao_topology::{LatencyAssignment, NodeIdx};
use tao_util::rand::rngs::StdRng;
use tao_util::rand::{Rng, SeedableRng};

const JOINERS: usize = 30;
const ERS_RING_LIMIT: u32 = 4;
const PROBE_X: usize = 10;

/// Messages of both join protocols.
#[derive(Debug, Clone)]
enum Msg {
    /// ERS flood with a remaining ring budget.
    Flood {
        ttl: u32,
    },
    /// Reply to the joiner from a flooded node.
    Pong,
    /// Soft-state lookup hop along a precomputed overlay route; `hop` is
    /// the index of the next route position.
    Lookup {
        hop: usize,
    },
    /// Candidate list back to the joiner (candidate count only; contents
    /// are resolved by the driver).
    Candidates,
    /// RTT probe and its echo.
    Probe,
    Echo,
}

struct Outcome {
    messages: u64,
    elapsed: SimDuration,
    stretch: f64,
}

fn main() {
    let scale = Scale::from_env();
    let mut base = scale.base_params();
    base.selection = SelectionStrategy::GlobalState;

    eprintln!("join_cost: building host overlay…");
    let mut builder = TaoBuilder::new();
    builder
        .topology(scale.tsk_large())
        .latency(LatencyAssignment::manual())
        .params(base)
        .seed(401);
    let tao = builder.build();
    let live: Vec<OverlayNodeId> = tao.ecan().can().live_nodes().collect();
    let underlays: Vec<NodeIdx> = live
        .iter()
        .map(|&id| tao.ecan().can().underlay(id))
        .collect();

    // Joiners: routers not already in the overlay.
    let taken: DetSet<NodeIdx> = underlays.iter().copied().collect();
    let mut rng = StdRng::seed_from_u64(402);
    let joiners: Vec<NodeIdx> = tao
        .topology()
        .sample_nodes(tao.topology().graph().node_count() / 2, &mut rng)
        .into_iter()
        .filter(|n| !taken.contains(n))
        .take(JOINERS)
        .collect();

    let mut ers_totals = (0u64, SimDuration::ZERO, 0.0f64);
    let mut gs_totals = (0u64, SimDuration::ZERO, 0.0f64);
    for (j, &joiner) in joiners.iter().enumerate() {
        let bootstrap = live[(j * 37) % live.len()];
        let (_, optimal) =
            true_nearest(joiner, underlays.iter().copied(), tao.oracle()).expect("pool non-empty");
        if optimal.is_zero() {
            continue;
        }
        let ers = simulate_ers(&tao, &live, &underlays, joiner, bootstrap);
        let gs = simulate_global_state(&tao, &live, &underlays, joiner, bootstrap, j as u64);
        ers_totals.0 += ers.messages;
        ers_totals.1 += ers.elapsed;
        ers_totals.2 += nn_stretch(SimDuration::from_millis_f64(ers.stretch), optimal).min(50.0);
        gs_totals.0 += gs.messages;
        gs_totals.1 += gs.elapsed;
        gs_totals.2 += nn_stretch(SimDuration::from_millis_f64(gs.stretch), optimal).min(50.0);
    }
    let n = joiners.len() as u64;
    let rows = vec![
        vec![
            "ERS flood (4 rings)".to_string(),
            (ers_totals.0 / n).to_string(),
            format!("{:.1} ms", ers_totals.1.as_millis_f64() / n as f64),
            f3(ers_totals.2 / n as f64),
        ],
        vec![
            format!("soft-state lookup (X={PROBE_X})"),
            (gs_totals.0 / n).to_string(),
            format!("{:.1} ms", gs_totals.1.as_millis_f64() / n as f64),
            f3(gs_totals.2 / n as f64),
        ],
    ];
    print_table(
        "Join cost: messages and time to select a close neighbor (DES, tsk-large manual)",
        &[
            "approach",
            "messages/join",
            "elapsed/join",
            "neighbor stretch",
        ],
        &rows,
    );
}

/// ERS: flood `ERS_RING_LIMIT` rings from the bootstrap; every reached node
/// pongs the joiner; the joiner's answer is the closest ponger.
fn simulate_ers(
    tao: &tao_core::TopologyAwareOverlay,
    live: &[OverlayNodeId],
    underlays: &[NodeIdx],
    joiner: NodeIdx,
    bootstrap: OverlayNodeId,
) -> Outcome {
    // Sim node i = overlay node i; the last sim node is the joiner.
    let oracle = tao.oracle().clone();
    let u = underlays.to_vec();
    let latency = move |a: NodeId, b: NodeId| {
        let ua = if a.0 < u.len() { u[a.0] } else { joiner };
        let ub = if b.0 < u.len() { u[b.0] } else { joiner };
        oracle.ground_truth(ua, ub)
    };
    let mut sim: Simulator<Msg, _> = Simulator::new(latency);
    for _ in 0..=underlays.len() {
        sim.add_node();
    }
    let joiner_sim = NodeId(underlays.len());
    let boot_idx = live
        .iter()
        .position(|&id| id == bootstrap)
        .expect("bootstrap is live");
    sim.send(
        joiner_sim,
        NodeId(boot_idx),
        Msg::Flood {
            ttl: ERS_RING_LIMIT,
        },
    );

    let mut visited: DetSet<usize> = DetSet::new();
    let neighbors_of: Vec<Vec<usize>> = live
        .iter()
        .map(|&id| {
            tao.ecan()
                .can()
                .neighbors(id)
                .expect("live node")
                .into_iter()
                .filter_map(|n| live.iter().position(|&x| x == n))
                .collect()
        })
        .collect();
    while sim
        .step(|engine, at, msg| match msg.payload {
            Msg::Flood { ttl } => {
                if !visited.insert(at.0) {
                    return;
                }
                engine.send(at, joiner_sim, Msg::Pong);
                if ttl > 0 {
                    for &n in &neighbors_of[at.0] {
                        if !visited.contains(&n) {
                            engine.send(at, NodeId(n), Msg::Flood { ttl: ttl - 1 });
                        }
                    }
                }
            }
            // Pongs carry the RTT estimate; quality is resolved from the
            // contacted set once the flood drains.
            Msg::Pong => {}
            _ => {}
        })
        .is_some()
    {}
    // The set of contacted nodes determines the answer quality.
    let mut best = SimDuration::MAX;
    for &v in &visited {
        best = best.min(tao.oracle().ground_truth(joiner, underlays[v]));
    }
    Outcome {
        messages: sim.stats().messages(),
        elapsed: sim.now() - SimTime::ORIGIN,
        stretch: best.as_millis_f64(),
    }
}

/// Soft-state join: route the lookup along the eCAN path to the map host,
/// get the candidate list, probe X candidates in parallel.
fn simulate_global_state(
    tao: &tao_core::TopologyAwareOverlay,
    live: &[OverlayNodeId],
    underlays: &[NodeIdx],
    joiner: NodeIdx,
    bootstrap: OverlayNodeId,
    seed: u64,
) -> Outcome {
    use tao_landmark::LandmarkVector;

    // The lookup's overlay path: from the bootstrap to the owner of the
    // joiner's landmark position in its top-order zone map.
    let vector = LandmarkVector::measure(joiner, tao.landmarks(), tao.oracle());
    let config = *tao.state().config();
    let number = config.grid().landmark_number(&vector, config.curve());
    let boot_zone = tao
        .ecan()
        .enclosing_high_order_zones(bootstrap)
        .last()
        .cloned()
        .unwrap_or_else(|| tao_overlay::Zone::whole(2));
    let map_position = tao
        .state()
        .map(&boot_zone)
        .map(|m| m.position_for(number, &config))
        .unwrap_or_else(|| boot_zone.center());
    let path = tao
        .ecan()
        .route_express(bootstrap, &map_position)
        .map(|r| r.hops)
        .unwrap_or_else(|_| vec![bootstrap]);

    // Candidates the host hands back (Table 1) — resolved structurally.
    let query = tao_softstate::NodeInfo {
        node: OverlayNodeId(u32::MAX),
        underlay: joiner,
        vector,
        number,
        load: None,
    };
    let mut candidates: Vec<NodeIdx> = tao
        .state()
        .lookup_in_hosted(&boot_zone, &query, PROBE_X, tao.ecan().can(), tao.now())
        .into_iter()
        .map(|i| i.underlay)
        .collect();
    if candidates.is_empty() {
        // Fresh systems fall back to the bootstrap's own neighbor list.
        let mut rng = StdRng::seed_from_u64(seed);
        candidates = (0..PROBE_X)
            .map(|_| underlays[rng.gen_range(0..underlays.len())])
            .collect();
    }

    // Run the message flow on the simulator.
    let oracle = tao.oracle().clone();
    let u = underlays.to_vec();
    let latency = move |a: NodeId, b: NodeId| {
        let ua = if a.0 < u.len() { u[a.0] } else { joiner };
        let ub = if b.0 < u.len() { u[b.0] } else { joiner };
        oracle.ground_truth(ua, ub)
    };
    let mut sim: Simulator<Msg, _> = Simulator::new(latency);
    for _ in 0..=underlays.len() {
        sim.add_node();
    }
    let joiner_sim = NodeId(underlays.len());
    let path_idx: Vec<usize> = path
        .iter()
        .filter_map(|id| live.iter().position(|&x| x == *id))
        .collect();
    sim.send(joiner_sim, NodeId(path_idx[0]), Msg::Lookup { hop: 1 });

    let candidate_sims: Vec<NodeId> = candidates
        .iter()
        .filter_map(|c| underlays.iter().position(|x| x == c))
        .map(NodeId)
        .collect();
    while sim
        .step(|engine, at, msg| match msg.payload {
            Msg::Lookup { hop } => {
                if hop < path_idx.len() {
                    engine.send(at, NodeId(path_idx[hop]), Msg::Lookup { hop: hop + 1 });
                } else {
                    engine.send(at, joiner_sim, Msg::Candidates);
                }
            }
            Msg::Candidates => {
                for &c in &candidate_sims {
                    engine.send(joiner_sim, c, Msg::Probe);
                }
            }
            Msg::Probe => engine.send(at, msg.from, Msg::Echo),
            _ => {}
        })
        .is_some()
    {}

    let best = candidates
        .iter()
        .map(|&c| tao.oracle().ground_truth(joiner, c))
        .min()
        .unwrap_or(SimDuration::MAX);
    Outcome {
        messages: sim.stats().messages(),
        elapsed: sim.now() - SimTime::ORIGIN,
        stretch: best.as_millis_f64(),
    }
}
