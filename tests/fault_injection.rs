//! Fault-injection integration: CAN/eCAN routing still terminates at the
//! owner under 10–30% message loss, partitions heal on schedule, and the
//! whole fault layer replays bit-identically from its seed.
//!
//! The transport under test is a per-hop stop-and-wait protocol: each node
//! on a precomputed overlay route forwards the request to the next hop,
//! arms a retransmit timer, and retries until the hop is acknowledged. The
//! overlay provides the path (structural state, untouched by loss); the
//! fault plan attacks the messages carrying it.

use tao_overlay::ecan::{EcanOverlay, RandomSelector};
use tao_overlay::{CanOverlay, OverlayNodeId, Point, RouteScratch};
use tao_sim::{FaultPlan, NodeId, SimDuration, SimTime, Simulator, UniformLatency};
use tao_topology::NodeIdx;
use tao_util::check;
use tao_util::check::for_all;
use tao_util::rand::rngs::StdRng;
use tao_util::rand::{Rng, SeedableRng};

/// Transport payload: forward the request over hop `hop` (the transmission
/// from `path[hop]` to `path[hop + 1]`), acknowledge it, or retry it.
#[derive(Debug, Clone)]
enum Pkt {
    Fwd { hop: usize },
    Ack { hop: usize },
    Retry { hop: usize, attempt: u32 },
}

const MAX_ATTEMPTS: u32 = 12;

/// Drives the stop-and-wait relay along `path` until the queue drains;
/// returns whether the final node received the request. With per-message
/// loss `p`, a hop only fails if `MAX_ATTEMPTS` consecutive forwards are
/// dropped (probability `p^12`, ~5e-7 at p = 0.3) — and the run is seeded,
/// so a passing seed passes forever.
fn deliver_along(path: &[NodeId], sim: &mut Simulator<Pkt, UniformLatency>) -> bool {
    assert!(path.len() >= 2, "caller filters single-hop paths");
    let retry_after = SimDuration::from_millis(200);
    let last = path.len() - 1;
    let mut acked = vec![false; path.len()];
    let mut seen = vec![false; path.len()];
    let mut reached = false;
    sim.send(path[0], path[1], Pkt::Fwd { hop: 0 });
    sim.set_timer(path[0], retry_after, Pkt::Retry { hop: 0, attempt: 1 });
    while sim
        .step(|engine, at, msg| match msg.payload {
            Pkt::Fwd { hop } => {
                let idx = hop + 1;
                debug_assert_eq!(at, path[idx]);
                // Always (re-)acknowledge — the previous ack may have died.
                engine.send(at, msg.from, Pkt::Ack { hop });
                if !seen[idx] {
                    seen[idx] = true;
                    if idx == last {
                        reached = true;
                    } else {
                        engine.send(at, path[idx + 1], Pkt::Fwd { hop: idx });
                        engine.set_timer(at, retry_after, Pkt::Retry { hop: idx, attempt: 1 });
                    }
                }
            }
            Pkt::Ack { hop } => acked[hop] = true,
            Pkt::Retry { hop, attempt } => {
                if !acked[hop] && attempt < MAX_ATTEMPTS {
                    engine.send(at, path[hop + 1], Pkt::Fwd { hop });
                    engine.set_timer(
                        at,
                        retry_after,
                        Pkt::Retry { hop, attempt: attempt + 1 },
                    );
                }
            }
        })
        .is_some()
    {}
    reached
}

fn grown_can(n: usize, seed: u64) -> CanOverlay {
    let mut can = CanOverlay::new(2).expect("2-d CAN");
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..n {
        can.join(NodeIdx(i as u32), Point::random(2, &mut rng));
    }
    can
}

/// Overlay ids map 1:1 onto simulator node ids for a grown (churn-free)
/// overlay: both are dense and assigned in join order.
fn as_sim_path(hops: &[OverlayNodeId]) -> Vec<NodeId> {
    hops.iter().map(|h| NodeId(h.index())).collect()
}

fn lossy_sim(n: usize, plan: FaultPlan) -> Simulator<Pkt, UniformLatency> {
    let mut sim = Simulator::new(UniformLatency::new(SimDuration::from_millis(5)));
    for _ in 0..n {
        sim.add_node();
    }
    sim.set_fault_plan(plan);
    sim
}

#[test]
fn can_routing_terminates_at_the_owner_under_message_loss() {
    for_all("can_routing_terminates_at_the_owner_under_message_loss", 12, |rng| {
        let n = rng.gen_range(16usize..48);
        let seed: u64 = rng.gen();
        let drop = rng.gen_range(0.10..0.30);
        let can = grown_can(n, seed);
        let mut wrng = StdRng::seed_from_u64(seed ^ 0xF00D);
        let src = OverlayNodeId(wrng.gen_range(0..n as u32));
        let target = Point::random(2, &mut wrng);
        let mut scratch = RouteScratch::new();
        can.route_into(&mut scratch, src, &target)
            .expect("routing succeeds");
        let hops = scratch.hops();
        check!(
            hops.last() == Some(&can.owner(&target)),
            "route must structurally terminate at the owner"
        );
        if hops.len() < 2 {
            return; // source already owns the target; nothing to transport
        }
        let mut plan = FaultPlan::new(seed ^ 0xFA17);
        plan.drop_probability(drop).jitter(SimDuration::from_millis(8));
        let mut sim = lossy_sim(n, plan);
        check!(
            deliver_along(&as_sim_path(hops), &mut sim),
            "request lost under {drop:.2} loss (n={n}, seed={seed:#x})"
        );
    });
}

#[test]
fn ecan_express_routing_terminates_at_the_owner_under_message_loss() {
    for_all(
        "ecan_express_routing_terminates_at_the_owner_under_message_loss",
        12,
        |rng| {
            let n = rng.gen_range(24usize..64);
            let seed: u64 = rng.gen();
            let drop = rng.gen_range(0.10..0.30);
            let ecan = EcanOverlay::build(grown_can(n, seed), &mut RandomSelector::new(seed ^ 1));
            let mut wrng = StdRng::seed_from_u64(seed ^ 0xBEEF);
            let src = OverlayNodeId(wrng.gen_range(0..n as u32));
            let target = Point::random(2, &mut wrng);
            let route = ecan.route_express(src, &target).expect("routing succeeds");
            check!(
                *route.hops.last().expect("non-empty") == ecan.can().owner(&target),
                "express route must structurally terminate at the owner"
            );
            if route.hops.len() < 2 {
                return;
            }
            let mut plan = FaultPlan::new(seed ^ 0x5EED);
            plan.drop_probability(drop)
                .jitter(SimDuration::from_millis(8))
                .duplicate_probability(0.05);
            let mut sim = lossy_sim(n, plan);
            check!(
                deliver_along(&as_sim_path(&route.hops), &mut sim),
                "request lost under {drop:.2} loss (n={n}, seed={seed:#x})"
            );
        },
    );
}

#[test]
fn routing_resumes_after_partition_heal() {
    for_all("routing_resumes_after_partition_heal", 12, |rng| {
        let n = rng.gen_range(16usize..40);
        let seed: u64 = rng.gen();
        let can = grown_can(n, seed);
        let heal = SimTime::from_micros(5_000_000);
        let island: Vec<NodeId> = (0..n / 2).map(NodeId).collect();
        // Pick a route that crosses the cut: source inside the island,
        // target owned outside it (skip the case where none exists).
        let mut wrng = StdRng::seed_from_u64(seed ^ 0xCAFE);
        let mut crossing = None;
        for _ in 0..64 {
            let src = OverlayNodeId(wrng.gen_range(0..(n / 2) as u32));
            let target = Point::random(2, &mut wrng);
            if can.owner(&target).index() >= n / 2 {
                crossing = Some((src, target));
                break;
            }
        }
        let Some((src, target)) = crossing else { return };
        let mut scratch = RouteScratch::new();
        can.route_into(&mut scratch, src, &target)
            .expect("routing succeeds");
        let path = as_sim_path(scratch.hops());
        let mut plan = FaultPlan::new(seed ^ 0x9A17);
        plan.partition(&island, SimTime::ORIGIN, heal);
        let mut sim = lossy_sim(n, plan);
        // During the partition the relay cannot cross the cut even with
        // retries: the request never reaches the owner.
        check!(
            !deliver_along(&path, &mut sim),
            "request crossed an active partition (n={n}, seed={seed:#x})"
        );
        check!(sim.stats().drops() > 0, "the cut must account its drops");
        // Advance past the heal time, then the same route goes through.
        sim.set_timer(path[0], SimDuration::from_secs(6), Pkt::Ack { hop: usize::MAX });
        sim.step(|_, _, _| {});
        check!(sim.now() > heal, "clock must be past the heal time");
        check!(
            deliver_along(&path, &mut sim),
            "request lost after partition heal (n={n}, seed={seed:#x})"
        );
    });
}

/// A fixed fault scenario whose observable outcome (delivery log, final
/// clock, NetStats) must be identical on every run of every process.
fn canonical_fault_scenario() -> (Vec<(usize, u32)>, SimTime, tao_sim::NetStats) {
    const N: usize = 32;
    let mut sim: Simulator<u32, _> =
        Simulator::new(UniformLatency::new(SimDuration::from_millis(7)));
    for _ in 0..N {
        sim.add_node();
    }
    let island: Vec<NodeId> = (0..N / 4).map(NodeId).collect();
    let mut plan = FaultPlan::new(0xC1C1_C1C1);
    plan.drop_probability(0.2)
        .duplicate_probability(0.05)
        .jitter(SimDuration::from_millis(15))
        .link_drop(NodeId(3), NodeId(4), 0.9)
        .partition(&island, SimTime::from_micros(100_000), SimTime::from_micros(900_000))
        .crash_recover(
            NodeId(9),
            SimTime::from_micros(50_000),
            SimTime::from_micros(600_000),
        )
        .crash(NodeId(30), SimTime::from_micros(400_000));
    sim.set_fault_plan(plan);
    for i in 0..N {
        sim.send(NodeId(i), NodeId((i + 1) % N), 0);
    }
    let mut log = Vec::new();
    while sim
        .step(|engine, at, msg| {
            log.push((at.0, msg.payload));
            if msg.payload < 40 {
                engine.send(at, NodeId((at.0 + 1) % N), msg.payload + 1);
            }
        })
        .is_some()
    {}
    (log, sim.now(), sim.stats())
}

#[test]
fn same_seed_and_plan_replay_byte_identically_in_process() {
    let a = canonical_fault_scenario();
    let b = canonical_fault_scenario();
    assert_eq!(a, b, "fault runs must be bit-reproducible");
    // The scenario actually exercises the fault layer.
    let stats = a.2;
    assert!(stats.drops() > 0, "no drops: {stats:?}");
    assert!(stats.messages() > 0, "no traffic: {stats:?}");
    assert_eq!(stats.partition_epochs(), 1);
}

/// Prints a one-line fingerprint of the canonical scenario and holds it to
/// the pinned values. `scripts/ci.sh` runs this test in two separate
/// processes (with `--nocapture`) and diffs the lines — the cross-process
/// half of the determinism guarantee, i.e. the same seed + plan produce
/// byte-identical `NetStats` everywhere.
///
/// The constants are the values the timing wheel and the binary-heap
/// reference queue both produced for this scenario; a change to the
/// engine's `(time, seq)` pop order or to the fault layer's verdict stream
/// moves them.
#[test]
fn fault_fingerprint_for_ci() {
    let (log, now, stats) = canonical_fault_scenario();
    let digest: u64 = log
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &(node, payload)| {
            (h ^ (node as u64 ^ ((payload as u64) << 32))).wrapping_mul(0x100_0000_01b3)
        });
    println!(
        "FAULT_FINGERPRINT events={} digest={digest:#018x} now={} stats={stats:?}",
        log.len(),
        now.as_micros()
    );
    assert_eq!(digest, 0x9d8e_0db7_7f4e_e5c3, "delivery-log digest moved");
    assert_eq!(log.len(), 151, "delivered-event count moved");
    assert_eq!(now.as_micros(), 234_147, "final clock moved");
    assert!(stats.drops() > 0);
}
