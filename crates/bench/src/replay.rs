//! The §6 request-replay harness: millions of routed lookups against an
//! eCAN under heterogeneous capacities, Zipf-skewed hotspot targets,
//! admission control, and saturation-triggered neighbor re-selection.
//!
//! The paper's §6 argues that the global soft-state lets nodes "trade off
//! network distance with forwarding capacity and current load". The
//! `sec6_load_aware` figure exercises that with a handful of lookups; this
//! harness drives it at the request rates closest-replica workloads need
//! (ROADMAP item 5): each round fans a fixed task list out over
//! `TAO_WORKERS` via [`par_map`], every task routes its requests with a
//! reused [`RouteScratch`] (the zero-allocation fast path), and between
//! rounds the driver applies soft-state decay, sheds requests whose target
//! owner is saturated, and re-selects the expressway tables of the most
//! overloaded nodes through [`LoadAwareSelector`].
//!
//! Everything that reaches the report is a pure function of the
//! [`ReplaySpec`]: per-task RNGs are seeded from (seed, round, task), task
//! results merge in task order, and wall-clock timings are returned out of
//! band — so any two worker counts produce byte-identical reports, which
//! [`sec6_replay_report`]'s fingerprint (and a CI smoke) asserts.

use std::sync::Arc;
use std::time::Instant;

use tao_core::{LoadAwareSelector, LoadModel};
use tao_overlay::ecan::{BoxSelection, EcanOverlay, NeighborSelector, RandomSelector};
use tao_overlay::{CanOverlay, OverlayNodeId, Point, RouteScratch, Zone};
use tao_topology::{
    generate_transit_stub, LatencyAssignment, NodeIdx, RttOracle, TransitStubParams,
};
use tao_util::rand::rngs::StdRng;
use tao_util::rand::{Rng, SeedableRng};
use tao_util::time::SimDuration;

use crate::{f3, format_table, par_map, Scale};

/// Overlay dimensionality (the paper's CAN experiments run d = 2).
const DIMS: usize = 2;
/// Half-width of the box around a hotspot center targets scatter into.
const HOTSPOT_SPREAD: f64 = 0.05;
/// Load decay factor applied between rounds (soft-state aging).
const DECAY: f64 = 0.5;
/// Capacity every node gets in the `uniform` skew row — the mean of the
/// heterogeneous mix (0.1·100 + 0.3·10 + 0.6·1), so the two rows have the
/// same aggregate capacity and differ only in its distribution.
const UNIFORM_CAPACITY: f64 = 13.6;

/// Everything the replay sweep needs; pure data, so the worker-determinism
/// test can feed a miniature spec and the binary the `TAO_SCALE` presets.
#[derive(Debug, Clone)]
pub struct ReplaySpec {
    /// Overlay nodes to grow before the sweep.
    pub nodes: usize,
    /// Requests replayed per capacity-skew row.
    pub requests: usize,
    /// Rounds the requests are split into (decay/re-selection cadence).
    pub rounds: usize,
    /// Fixed per-round task count — the parallelism grain. Results merge
    /// in task order, so this (not the worker count) shapes the output.
    pub tasks: usize,
    /// Distinct underlay routers the overlay nodes attach to.
    pub routers: usize,
    /// Number of Zipf-ranked hotspot regions.
    pub hotspots: usize,
    /// Probability a request targets a hotspot region.
    pub hotspot_prob: f64,
    /// Admission control: shed a request whose target owner's snapshot
    /// utilization exceeds this.
    pub shed_threshold: f64,
    /// Load charged to every forwarding node per routed request.
    pub hop_cost: f64,
    /// Utilization penalty of the load-aware selector.
    pub penalty: f64,
    /// Per-round cap on saturation-triggered re-selections.
    pub max_reselect: usize,
    /// Master seed.
    pub seed: u64,
}

impl ReplaySpec {
    /// The spec the `sec6_replay` binary runs at `scale`.
    pub fn at_scale(scale: Scale) -> ReplaySpec {
        match scale {
            Scale::Paper => ReplaySpec {
                nodes: 16_384,
                requests: 1 << 20, // 1,048,576 — the ≥10^6 acceptance floor
                rounds: 16,
                tasks: 64,
                routers: 256,
                hotspots: 8,
                hotspot_prob: 0.8,
                shed_threshold: 1.0,
                hop_cost: 0.1,
                penalty: 4.0,
                max_reselect: 32,
                seed: 0x5ec6_ae91,
            },
            Scale::Mini => ReplaySpec {
                nodes: 2_048,
                requests: 1 << 16,
                rounds: 4,
                tasks: 64,
                routers: 128,
                hotspots: 4,
                hotspot_prob: 0.8,
                shed_threshold: 1.0,
                hop_cost: 0.1,
                penalty: 4.0,
                max_reselect: 16,
                seed: 0x5ec6_ae91,
            },
        }
    }
}

/// SplitMix-style mixer deriving sub-seeds from (master, stream, index).
fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ index.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over a byte string — the report fingerprint.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The immutable world shared (by reference) across replay tasks.
struct ReplayWorld {
    ecan: EcanOverlay,
    /// Live node ids, the source population.
    live: Vec<OverlayNodeId>,
    oracle: RttOracle,
    /// One-way latency rows of the attachment routers, indexed by slot
    /// then graph node — hop latency becomes two dense lookups, no
    /// cache lock traffic inside tasks.
    lat_rows: Vec<Arc<Vec<SimDuration>>>,
    /// Overlay id → latency-row slot of its attachment router.
    node_slot: Vec<u32>,
    /// Overlay id → attachment router.
    node_router: Vec<NodeIdx>,
    /// Hotspot centers, Zipf rank order.
    hotspot_centers: Vec<Point>,
    /// Cumulative Zipf distribution over the hotspot ranks.
    zipf_cdf: Vec<f64>,
}

impl ReplayWorld {
    fn build(spec: &ReplaySpec) -> ReplayWorld {
        // A mini transit-stub underlay keeps setup (one Dijkstra per
        // attachment router) cheap at every scale; the overlay, not the
        // router graph, is what this harness stresses.
        let topo = generate_transit_stub(
            &TransitStubParams::tsk_small_mini(),
            LatencyAssignment::manual(),
            mix(spec.seed, 0x7090, 0),
        );
        let graph_n = topo.graph().node_count();
        let n_routers = spec.routers.clamp(1, graph_n);
        let routers: Vec<NodeIdx> = (0..n_routers)
            .map(|s| NodeIdx((s * graph_n / n_routers) as u32))
            .collect();
        let oracle = RttOracle::new(topo.graph().clone());
        let lat_rows: Vec<Arc<Vec<SimDuration>>> = routers
            .iter()
            .map(|&r| oracle.ground_truth_all(r))
            .collect();

        let mut join_rng = StdRng::seed_from_u64(mix(spec.seed, 0x2011, 0));
        #[expect(clippy::expect_used, reason = "DIMS is nonzero")]
        let mut can = CanOverlay::new(DIMS).expect("DIMS is nonzero");
        for i in 0..spec.nodes {
            can.join(routers[i % n_routers], Point::random(DIMS, &mut join_rng));
        }
        let mut selector = RandomSelector::new(mix(spec.seed, 0xb117, 0));
        let ecan = EcanOverlay::build(can, &mut selector);
        let live: Vec<OverlayNodeId> = ecan.can().live_nodes().collect();

        let mut slot_of_router = vec![0u32; graph_n];
        for (slot, &r) in routers.iter().enumerate() {
            slot_of_router[r.0 as usize] = slot as u32;
        }
        let id_bound = ecan.can().id_bound();
        let mut node_slot = vec![0u32; id_bound];
        let mut node_router = vec![NodeIdx(0); id_bound];
        for &id in &live {
            let r = ecan.can().underlay(id);
            node_slot[id.index()] = slot_of_router[r.0 as usize];
            node_router[id.index()] = r;
        }

        let mut hot_rng = StdRng::seed_from_u64(mix(spec.seed, 0x4075, 0));
        let hotspot_centers: Vec<Point> = (0..spec.hotspots)
            .map(|_| Point::random(DIMS, &mut hot_rng))
            .collect();
        let weights: Vec<f64> = (0..spec.hotspots).map(|i| 1.0 / (i + 1) as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let zipf_cdf: Vec<f64> = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();

        ReplayWorld {
            ecan,
            live,
            oracle,
            lat_rows,
            node_slot,
            node_router,
            hotspot_centers,
            zipf_cdf,
        }
    }

    /// One-way latency of overlay hop `a → b` in microseconds.
    fn hop_latency_us(&self, a: OverlayNodeId, b: OverlayNodeId) -> u64 {
        self.lat_rows[self.node_slot[a.index()] as usize][self.node_router[b.index()].0 as usize]
            .as_micros()
    }

    /// Draws a request target: Zipf-ranked hotspot regions with
    /// probability `hotspot_prob`, uniform otherwise.
    #[expect(clippy::expect_used, reason = "coords wrapped into [0,1)")]
    fn draw_target(&self, spec: &ReplaySpec, rng: &mut StdRng) -> Point {
        if !self.hotspot_centers.is_empty() && rng.gen::<f64>() < spec.hotspot_prob {
            let u: f64 = rng.gen();
            let rank = self
                .zipf_cdf
                .iter()
                .position(|&c| u < c)
                .unwrap_or(self.hotspot_centers.len() - 1);
            let coords: Vec<f64> = self.hotspot_centers[rank]
                .coords()
                .iter()
                .map(|&x| {
                    let off = (rng.gen::<f64>() - 0.5) * 2.0 * HOTSPOT_SPREAD;
                    (x + off).rem_euclid(1.0)
                })
                .collect();
            Point::new(coords).expect("coords wrapped into [0,1)")
        } else {
            Point::random(DIMS, rng)
        }
    }
}

/// What one task hands back; merged strictly in task order.
struct TaskOutcome {
    routed: u64,
    shed: u64,
    stuck: u64,
    /// Per-request end-to-end hop latency, microseconds.
    latencies: Vec<u64>,
    /// Dense per-overlay-id load delta.
    delta: Vec<f64>,
}

/// Replays `count` requests for task `(round, task)`.
fn run_task(
    world: &ReplayWorld,
    ecan: &EcanOverlay,
    snapshot: &[f64],
    spec: &ReplaySpec,
    round: usize,
    task: usize,
    count: usize,
) -> TaskOutcome {
    let mut rng =
        StdRng::seed_from_u64(mix(spec.seed, 0x7a5c, ((round as u64) << 32) | task as u64));
    let mut scratch = RouteScratch::new();
    let mut out = TaskOutcome {
        routed: 0,
        shed: 0,
        stuck: 0,
        latencies: Vec::with_capacity(count),
        delta: vec![0.0; ecan.can().id_bound()],
    };
    for _ in 0..count {
        let source = world.live[rng.gen_range(0..world.live.len())];
        let target = world.draw_target(spec, &mut rng);
        // Admission control: the round-start load snapshot plays the role
        // of the published soft-state a real ingress would consult.
        let owner = ecan.can().owner(&target);
        if snapshot[owner.index()] > spec.shed_threshold {
            out.shed += 1;
            continue;
        }
        match ecan.route_express_into(&mut scratch, source, &target) {
            Ok(()) => {
                out.routed += 1;
                let hops = scratch.hops();
                let mut lat = 0u64;
                for w in hops.windows(2) {
                    lat += world.hop_latency_us(w[0], w[1]);
                }
                out.latencies.push(lat);
                for &h in &hops[1..] {
                    out.delta[h.index()] += spec.hop_cost;
                }
            }
            Err(_) => out.stuck += 1,
        }
    }
    out
}

/// Wraps [`LoadAwareSelector`] for saturation-triggered re-selection:
/// candidates come from O(depth) box sampling (never a member
/// enumeration), the load-aware score picks among them.
struct SaturationSelector<'a> {
    inner: LoadAwareSelector<'a>,
    sample_rng: StdRng,
}

impl NeighborSelector for SaturationSelector<'_> {
    fn select(
        &mut self,
        for_node: OverlayNodeId,
        target_box: &Zone,
        candidates: &[OverlayNodeId],
        can: &CanOverlay,
    ) -> OverlayNodeId {
        self.inner.select(for_node, target_box, candidates, can)
    }

    fn select_in_box(
        &mut self,
        for_node: OverlayNodeId,
        target_box: &Zone,
        can: &CanOverlay,
    ) -> BoxSelection {
        let mut samples: Vec<OverlayNodeId> = Vec::new();
        for _ in 0..8 {
            if let Some(s) = can.sample_in(target_box, &mut self.sample_rng) {
                if s != for_node && !samples.contains(&s) {
                    samples.push(s);
                }
            }
        }
        if samples.is_empty() {
            return BoxSelection::Skip;
        }
        samples.sort_unstable();
        BoxSelection::Chosen(self.inner.select(for_node, target_box, &samples, can))
    }
}

/// One capacity-skew row's aggregates.
struct SkewOutcome {
    row: Vec<String>,
    round_ns: Vec<f64>,
    routed: u64,
}

/// Runs one skew row: `rounds` rounds of fanned-out replay with decay,
/// admission control, and saturation-triggered re-selection in between.
fn run_skew(
    world: &ReplayWorld,
    spec: &ReplaySpec,
    skew: &str,
    mut loads: LoadModel,
    workers: usize,
) -> SkewOutcome {
    let mut ecan = world.ecan.clone();
    let id_bound = world.ecan.can().id_bound();
    let mut latencies: Vec<u64> = Vec::with_capacity(spec.requests);
    let (mut routed, mut shed, mut stuck, mut reselections) = (0u64, 0u64, 0u64, 0u64);
    let mut imbalance = 0.0f64;
    let mut round_ns = Vec::with_capacity(spec.rounds);
    for round in 0..spec.rounds {
        let round_requests =
            spec.requests / spec.rounds + usize::from(round < spec.requests % spec.rounds);
        let mut snapshot = vec![0.0f64; id_bound];
        for (n, s) in loads.iter() {
            snapshot[n.index()] = s.utilization();
        }
        let base = round_requests / spec.tasks;
        let rem = round_requests % spec.tasks;
        let tasks: Vec<(usize, usize)> = (0..spec.tasks)
            .map(|t| (t, base + usize::from(t < rem)))
            .collect();
        let ecan_ref = &ecan;
        let snap_ref = snapshot.as_slice();
        #[expect(
            clippy::disallowed_methods,
            reason = "bench harness times the replay rounds; timings never reach the fingerprinted report"
        )]
        let t0 = Instant::now();
        let outcomes = par_map(tasks, workers, |(t, count)| {
            run_task(world, ecan_ref, snap_ref, spec, round, t, count)
        });
        round_ns.push(t0.elapsed().as_nanos() as f64);
        // Merge strictly in task order so the fold is worker-independent.
        let mut delta = vec![0.0f64; id_bound];
        for o in outcomes {
            routed += o.routed;
            shed += o.shed;
            stuck += o.stuck;
            latencies.extend(o.latencies);
            for (slot, d) in delta.iter_mut().zip(&o.delta) {
                *slot += d;
            }
        }
        for (i, &d) in delta.iter().enumerate() {
            if d > 0.0 {
                loads.add_load(OverlayNodeId(i as u32), d);
            }
        }
        if round + 1 == spec.rounds {
            imbalance = load_imbalance(&loads);
        }
        // Saturation response: re-select the most overloaded nodes' tables
        // through the load-aware score, worst first.
        let mut overloaded: Vec<(f64, OverlayNodeId)> = loads
            .iter()
            .filter(|(_, s)| s.utilization() > spec.shed_threshold)
            .map(|(n, s)| (s.utilization(), n))
            .collect();
        overloaded.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        overloaded.truncate(spec.max_reselect);
        let mut selector = SaturationSelector {
            inner: LoadAwareSelector::new(&world.oracle, &loads, spec.penalty),
            sample_rng: StdRng::seed_from_u64(mix(spec.seed, 0x5a3b, round as u64)),
        };
        for &(_, id) in &overloaded {
            ecan.reselect_node(id, &mut selector);
        }
        reselections += overloaded.len() as u64;
        loads.decay(DECAY);
    }
    latencies.sort_unstable();
    let pct = |permille: usize| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        latencies[(latencies.len() - 1) * permille / 1000] as f64 / 1000.0
    };
    let total = routed + shed + stuck;
    let row = vec![
        skew.to_string(),
        total.to_string(),
        routed.to_string(),
        format!("{:.2}%", 100.0 * shed as f64 / total.max(1) as f64),
        stuck.to_string(),
        f3(pct(500)),
        f3(pct(990)),
        f3(pct(999)),
        f3(imbalance),
        reselections.to_string(),
    ];
    SkewOutcome {
        row,
        round_ns,
        routed,
    }
}

/// `max / mean` of current load over all modeled nodes (0 when idle).
fn load_imbalance(loads: &LoadModel) -> f64 {
    let (mut max, mut sum, mut n) = (0.0f64, 0.0f64, 0usize);
    for (_, s) in loads.iter() {
        max = max.max(s.current_load);
        sum += s.current_load;
        n += 1;
    }
    if n == 0 || sum <= 0.0 {
        return 0.0;
    }
    max / (sum / n as f64)
}

/// The replay sweep's result: a deterministic report plus out-of-band
/// wall-clock samples.
pub struct ReplayOutcome {
    /// The rendered table — a pure function of the spec, identical at any
    /// worker count.
    pub report: String,
    /// FNV-1a of [`ReplayOutcome::report`].
    pub fingerprint: u64,
    /// Wall-clock nanoseconds of each routing round (both skew rows,
    /// round order). Excluded from the report/fingerprint by design.
    pub round_ns: Vec<f64>,
    /// Successfully routed requests across both skew rows.
    pub routed: u64,
}

/// Runs the §6 replay sweep: two capacity-skew rows (uniform vs
/// heterogeneous) over the same overlay, requests fanned out over
/// `workers`.
///
/// The report is byte-identical for any `workers` value; only
/// [`ReplayOutcome::round_ns`] reflects the fan-out.
pub fn sec6_replay_report(spec: &ReplaySpec, workers: usize) -> ReplayOutcome {
    let world = ReplayWorld::build(spec);
    let skews: [(&str, LoadModel); 2] = [
        (
            "uniform",
            LoadModel::uniform(world.live.iter().copied(), UNIFORM_CAPACITY),
        ),
        (
            "heterogeneous",
            LoadModel::heterogeneous(world.live.iter().copied(), mix(spec.seed, 0xca9a, 0)),
        ),
    ];
    let mut rows = Vec::new();
    let mut round_ns = Vec::new();
    let mut routed = 0u64;
    for (name, loads) in skews {
        eprintln!(
            "sec6_replay: replaying {} requests ({name} capacities)…",
            spec.requests
        );
        let outcome = run_skew(&world, spec, name, loads, workers);
        rows.push(outcome.row);
        round_ns.extend(outcome.round_ns);
        routed += outcome.routed;
    }
    let report = format_table(
        &format!(
            "§6 replay: {} requests/row over {} nodes ({} rounds, {} hotspots, shed over {:.1} utilization)",
            spec.requests, spec.nodes, spec.rounds, spec.hotspots, spec.shed_threshold,
        ),
        &[
            "capacity skew",
            "requests",
            "routed",
            "shed",
            "stuck",
            "p50 ms",
            "p99 ms",
            "p999 ms",
            "imbalance",
            "reselects",
        ],
        &rows,
    );
    let fingerprint = fnv1a(report.as_bytes());
    ReplayOutcome {
        report,
        fingerprint,
        round_ns,
        routed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_spec() -> ReplaySpec {
        ReplaySpec {
            nodes: 192,
            requests: 2_048,
            rounds: 2,
            tasks: 8,
            routers: 32,
            hotspots: 3,
            hotspot_prob: 0.8,
            shed_threshold: 1.0,
            hop_cost: 0.1,
            penalty: 4.0,
            max_reselect: 8,
            seed: 0x5ec6_ae91,
        }
    }

    #[test]
    fn replay_report_is_byte_identical_across_worker_counts() {
        let spec = toy_spec();
        let one = sec6_replay_report(&spec, 1);
        let eight = sec6_replay_report(&spec, 8);
        assert_eq!(
            one.report, eight.report,
            "worker count leaked into the report"
        );
        assert_eq!(one.fingerprint, eight.fingerprint);
        assert!(one.report.contains("uniform") && one.report.contains("heterogeneous"));
    }

    #[test]
    fn replay_routes_the_vast_majority_of_requests() {
        let spec = toy_spec();
        let out = sec6_replay_report(&spec, 2);
        // Two rows × 2,048 requests; sheds are expected once hotspots
        // saturate, stuck routes are not.
        assert!(
            out.routed > 2 * 2_048 / 2,
            "routed only {} requests",
            out.routed
        );
        assert!(!out.report.contains("NaN"));
        assert_eq!(out.round_ns.len(), 2 * spec.rounds);
    }

    #[test]
    fn zipf_cdf_is_normalized_and_monotone() {
        let spec = toy_spec();
        let world = ReplayWorld::build(&spec);
        assert_eq!(world.zipf_cdf.len(), spec.hotspots);
        assert!(world.zipf_cdf.windows(2).all(|w| w[0] < w[1]));
        let last = *world.zipf_cdf.last().unwrap();
        assert!((last - 1.0).abs() < 1e-12, "cdf must end at 1, got {last}");
    }

    #[test]
    fn hop_latency_is_symmetric_for_same_router_pair() {
        let spec = toy_spec();
        let world = ReplayWorld::build(&spec);
        let a = world.live[0];
        let b = world.live[1];
        // One-way latencies come from the same shortest-path metric, so
        // a→b and b→a agree (the graph is undirected).
        assert_eq!(world.hop_latency_us(a, b), world.hop_latency_us(b, a));
        assert_eq!(world.hop_latency_us(a, a), 0);
    }
}
