//! Figure 2 at simulator scale: a 10^6-node eCAN under simulated churn,
//! with the routing sweep of the original figure run before and after.
//!
//! The paper's figures stop at tens of thousands of nodes; this driver is
//! the stress companion that the timing-wheel event queue, the arena/SoA
//! node storage, and the incremental eCAN maintenance paths exist for:
//!
//! * the overlay is grown to `N` nodes (10^6 at paper scale) with
//!   enumeration-free neighbor selection ([`SampledRandomSelector`]);
//! * a churn phase runs *through the simulator* — joins, departures, and
//!   routing probes fire as timers, with handler-armed follow-ups, so the
//!   event queue sees the mixed-horizon schedule of a real experiment;
//! * membership changes use [`EcanOverlay::join_and_select`] and
//!   [`EcanOverlay::depart_and_repair`] — no full-table rebuild anywhere.
//!
//! At mini scale the run aborts unless the event-log fingerprint equals
//! [`MINI_FINGERPRINT`] — the value the timing wheel and the binary-heap
//! reference queue both produced for this schedule — so a change to event
//! order, overlay maintenance or routing shows up as a mismatch.

use tao_bench::{f3, print_table, Scale};
use tao_overlay::ecan::{EcanOverlay, SampledRandomSelector};
use tao_overlay::{CanOverlay, OverlayNodeId, Point, RouteScratch};
use tao_sim::{SimDuration, Simulator, UniformLatency};
use tao_topology::NodeIdx;
use tao_util::rand::rngs::StdRng;
use tao_util::rand::{Rng, SeedableRng};

/// Event-log fingerprint of the mini-scale sweep (32,768 nodes, 400 churn
/// ops, 120 routes, seed 0x0602).
const MINI_FINGERPRINT: u64 = 0x7b3b_8bea_d9f1_6acf;

/// One scheduled churn-phase operation, carried as a timer payload.
#[derive(Debug, Clone)]
enum Op {
    /// Join a fresh node at a pseudo-random point.
    Join(u32),
    /// Depart the live node chosen by the embedded draw.
    Depart(u64),
    /// Route from a pseudo-random live node to a pseudo-random point.
    Route(u64),
    /// Handler-armed follow-up probe (exercises timers set from handlers).
    Echo(u64),
}

fn grown_can(n: usize, seed: u64) -> CanOverlay {
    let mut can = CanOverlay::new(2).expect("dims >= 1");
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..n {
        can.join(NodeIdx(i as u32), Point::random(2, &mut rng));
        if (i + 1) % 250_000 == 0 {
            eprintln!("fig02_million_churn: joined {} nodes", i + 1);
        }
    }
    can
}

fn fnv(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x100_0000_01b3)
}

struct SweepOutcome {
    fingerprint: u64,
    events: usize,
    joins: usize,
    departs: usize,
    express_hops: f64,
    final_nodes: usize,
}

/// Grows the overlay, then drives `churn_ops` operations and `routes`
/// probes through the simulator. Everything is derived from `seed`, so the
/// returned fingerprint is a pure function of `(n, churn_ops, routes,
/// seed)`.
fn run_sweep(n: usize, churn_ops: usize, routes: usize, seed: u64) -> SweepOutcome {
    let mut selector = SampledRandomSelector::new(seed ^ 0x5eed);
    eprintln!("fig02_million_churn: building {n}-node eCAN");
    let mut ecan = EcanOverlay::build(grown_can(n, seed), &mut selector);
    eprintln!("fig02_million_churn: tables built, starting churn phase");

    let mut sim: Simulator<Op, _> =
        Simulator::new(UniformLatency::new(SimDuration::from_millis(2)));
    let driver = sim.add_node();

    // Schedule the churn phase up front at pseudo-random instants across a
    // minute of virtual time — the mixed-horizon pending set the wheel is
    // built for.
    let mut schedule_rng = StdRng::seed_from_u64(seed ^ 0xca11);
    let mut next_underlay = n as u32;
    for _ in 0..churn_ops {
        let at = SimDuration::from_micros(schedule_rng.gen_range(0..60_000_000));
        let op = if schedule_rng.gen_bool(0.5) {
            let u = next_underlay;
            next_underlay += 1;
            Op::Join(u)
        } else {
            Op::Depart(schedule_rng.gen())
        };
        sim.set_timer(driver, at, op);
    }
    for _ in 0..routes {
        let at = SimDuration::from_micros(schedule_rng.gen_range(0..60_000_000));
        sim.set_timer(driver, at, Op::Route(schedule_rng.gen()));
    }

    let mut fingerprint = 0xcbf2_9ce4_8422_2325u64;
    let mut events = 0usize;
    let mut joins = 0usize;
    let mut departs = 0usize;
    let mut express_total = 0usize;
    let mut express_count = 0usize;
    let mut scratch = RouteScratch::new();
    while sim
        .step(|engine, _, msg| {
            let now = engine.now().as_micros();
            match msg.payload {
                Op::Join(u) => {
                    // The join point derives from the underlay id, not a
                    // shared RNG, so the op stream is schedule-independent.
                    let mut op_rng = StdRng::seed_from_u64(seed ^ u64::from(u));
                    let p = Point::random(2, &mut op_rng);
                    let id = ecan.join_and_select(NodeIdx(u), p, &mut selector);
                    joins += 1;
                    fingerprint = fnv(fingerprint, now ^ (u64::from(id.0) << 20));
                }
                Op::Depart(draw) => {
                    let live: Vec<OverlayNodeId> = ecan.can().live_nodes().collect();
                    if live.len() > 16 {
                        let victim = live[(draw as usize) % live.len()];
                        ecan.depart_and_repair(victim, &mut selector)
                            .expect("victim drawn from live set");
                        departs += 1;
                        fingerprint = fnv(fingerprint, now ^ (u64::from(victim.0) << 24));
                        // Handler-armed follow-up: verify the departed
                        // node's space stays routable shortly after.
                        engine.set_timer(msg.to, SimDuration::from_micros(1_500), Op::Echo(draw));
                    }
                }
                Op::Route(draw) | Op::Echo(draw) => {
                    let mut op_rng = StdRng::seed_from_u64(seed ^ draw);
                    let live: Vec<OverlayNodeId> = ecan.can().live_nodes().collect();
                    let src = live[op_rng.gen_range(0..live.len())];
                    let target = Point::random(2, &mut op_rng);
                    ecan.route_express_into(&mut scratch, src, &target)
                        .expect("routing succeeds on a consistent overlay");
                    let hop_count = scratch.hop_count();
                    express_total += hop_count;
                    express_count += 1;
                    fingerprint = fnv(fingerprint, now ^ (hop_count as u64));
                }
            }
            events += 1;
        })
        .is_some()
    {}

    SweepOutcome {
        fingerprint,
        events,
        joins,
        departs,
        express_hops: express_total as f64 / express_count.max(1) as f64,
        final_nodes: ecan.can().len(),
    }
}

fn main() {
    let scale = Scale::from_env();
    let (n, churn_ops, routes) = match scale {
        Scale::Paper => (1_000_000, 2_000, 400),
        Scale::Mini => (32_768, 400, 120),
    };
    let seed = 0x0602u64;

    let sweep = run_sweep(n, churn_ops, routes, seed);
    if matches!(scale, Scale::Mini) {
        assert_eq!(
            sweep.fingerprint, MINI_FINGERPRINT,
            "mini-scale event log diverged from the pinned fingerprint"
        );
    }

    print_table(
        "Figure 2 companion: million-node eCAN churn + routing sweep",
        &[
            "nodes",
            "churn events",
            "joins",
            "departs",
            "eCAN hops",
            "final nodes",
            "fingerprint",
        ],
        &[vec![
            format!("{n}"),
            format!("{}", sweep.events),
            format!("{}", sweep.joins),
            format!("{}", sweep.departs),
            f3(sweep.express_hops),
            format!("{}", sweep.final_nodes),
            format!("{:#018x}", sweep.fingerprint),
        ]],
    );
}
