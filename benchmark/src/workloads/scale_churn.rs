//! `scale_churn`: the only workload whose working set leaves cache. A
//! 131,072-node eCAN (`SampledRandomSelector`) sits beside a `Simulator`
//! of as many heartbeat nodes under a `FaultPlan` (5 % drop, 10 ms
//! jitter): every node fires a 5 s periodic timer that `send`s one
//! message to a peer and re-arms from the handler. Each round runs
//!
//! * phase `beat`: 10 virtual seconds of heartbeats only (~0.5 M events
//!   with 131k timers pending in the wheel);
//! * phase `churn`: 50 membership operations (`join_and_select` /
//!   `depart_and_repair`, alternating) and 500 `route_express_into`
//!   probes fired as timers of a driver node over 250 virtual ms.
//!
//! Rounds are short (~0.15 s, ~100 a run) on purpose: a spell of
//! interference then spoils whole rounds and leaves the others clean.
//!
//! `sim` (timing wheel, handler-armed timers, fault draws) does most of
//! `beat`; `overlay` membership writes at scale do most of `churn`.
//! `topology` and `softstate` idle, so their changes must not move it.

use std::time::Instant;

use tao_overlay::ecan::{EcanOverlay, SampledRandomSelector};
use tao_overlay::{CanOverlay, OverlayNodeId, Point, RouteScratch};
use tao_sim::{FaultPlan, NodeId, SimDuration, Simulator, UniformLatency};
use tao_topology::NodeIdx;
use tao_util::rand::rngs::StdRng;
use tao_util::rand::{Rng, SeedableRng};

use crate::harness::{
    holds, mix, run_rounds, timed_setup, Checks, Config, EndToEnd, Fnv, Report, Scale,
};
use crate::stats;
use crate::trace::{Sp, Tracer};
use crate::workloads::FIXTURE_SEED;

const DIMS: usize = 2;
const BEAT_PERIOD: SimDuration = SimDuration::from_secs(5);
const CHURN_SLICE: SimDuration = SimDuration::from_millis(250);

struct Sizes {
    nodes: usize,
    beat_slice: SimDuration,
    ops: usize,
    probes: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            nodes: 131_072,
            beat_slice: SimDuration::from_secs(10),
            ops: 50,
            probes: 500,
        },
        Scale::Smoke => Sizes {
            nodes: 4096,
            beat_slice: SimDuration::from_secs(10),
            ops: 20,
            probes: 200,
        },
    }
}

#[derive(Debug, Clone, Copy)]
enum Msg {
    /// A heartbeat timer: send a ping to the peer, re-arm.
    Beat,
    Ping,
    /// The driver's i-th operation of the current churn slice.
    Op(u32),
}

#[derive(Debug, Clone)]
enum ChurnOp {
    Join(Point),
    Depart(u64),
    Probe(u64, Point),
}

struct Fixture {
    ecan: EcanOverlay,
    selector: SampledRandomSelector,
    sim: Simulator<Msg, UniformLatency>,
    driver: NodeId,
    /// Heartbeat peer of every simulator node.
    peers: Vec<u32>,
    /// The driver's live-node list (swap-remove on departure) — never
    /// `live_nodes().collect()` per event.
    live: Vec<OverlayNodeId>,
    next_underlay: u32,
}

fn setup(tr: &Tracer, sz: &Sizes, seed: u64) -> Fixture {
    // The overlay is a fixture; the heartbeat population's peers, phases
    // and fault draws follow `--seed`.
    let mut rng = StdRng::seed_from_u64(FIXTURE_SEED);
    let mut can = CanOverlay::new(DIMS).expect("DIMS >= 1");
    for i in 0..sz.nodes {
        let point = Point::random(DIMS, &mut rng);
        tr.op(Sp::OvCanJoin, || can.join(NodeIdx(i as u32), point));
    }
    let mut selector = SampledRandomSelector::new(FIXTURE_SEED);
    let ecan = tr.span(Sp::OvEcanBuild, || EcanOverlay::build(can, &mut selector));
    let live: Vec<OverlayNodeId> = ecan.can().live_nodes().collect();

    let mut rng = StdRng::seed_from_u64(mix(seed, 1, 0));
    let mut sim = Simulator::new(UniformLatency::new(SimDuration::from_millis(20)));
    let mut plan = FaultPlan::new(mix(seed, 3, 0));
    plan.drop_probability(0.05)
        .jitter(SimDuration::from_millis(10));
    sim.set_fault_plan(plan);
    let peers: Vec<u32> = (0..sz.nodes)
        .map(|_| rng.gen_range(0..sz.nodes as u32))
        .collect();
    let phases: Vec<u64> = (0..sz.nodes)
        .map(|_| rng.gen_range(0..BEAT_PERIOD.as_micros()))
        .collect();
    tr.span(Sp::SimSchedule, || {
        for &phase in &phases {
            let node = sim.add_node();
            sim.set_timer(node, SimDuration::from_micros(phase), Msg::Beat);
        }
    });
    let driver = sim.add_node();
    Fixture {
        ecan,
        selector,
        sim,
        driver,
        peers,
        live,
        next_underlay: sz.nodes as u32,
    }
}

#[derive(Default)]
struct Round {
    beat_s: f64,
    beat_events: usize,
    churn_s: f64,
    joins_s: Vec<f64>,
    departs_s: Vec<f64>,
    hops: u64,
    pending: usize,
    /// Messages the fault plan has dropped since the run began.
    drops: u64,
    fingerprint: u64,
}

fn round(
    tr: &Tracer,
    fx: &mut Fixture,
    sz: &Sizes,
    seed: u64,
    k: usize,
    checks: &mut Checks,
) -> Round {
    // Inputs first: the slice's operations and when each fires.
    let mut rng = StdRng::seed_from_u64(mix(seed, 4, k as u64));
    let mut ops: Vec<ChurnOp> = (0..sz.ops)
        .map(|i| {
            if i % 2 == 0 {
                ChurnOp::Join(Point::random(DIMS, &mut rng))
            } else {
                ChurnOp::Depart(rng.gen())
            }
        })
        .collect();
    ops.extend((0..sz.probes).map(|_| ChurnOp::Probe(rng.gen(), Point::random(DIMS, &mut rng))));
    let fire_at: Vec<u64> = (0..ops.len())
        .map(|_| rng.gen_range(0..CHURN_SLICE.as_micros()))
        .collect();

    let Fixture {
        ecan,
        selector,
        sim,
        driver,
        peers,
        live,
        next_underlay,
    } = fx;
    let mut r = Round::default();
    let mut scratch = RouteScratch::new();
    let (mut probed, mut probe_failures) = (0u64, 0u64);
    let (mut joined, mut departed, mut depart_failures) = (0u64, 0u64, 0u64);
    let mut handler = |engine: &mut tao_sim::Engine<Msg>,
                       at: NodeId,
                       msg: tao_sim::Message<Msg>| match msg.payload {
        Msg::Beat => {
            engine.send(at, NodeId(peers[at.0] as usize), Msg::Ping);
            engine.set_timer(at, BEAT_PERIOD, Msg::Beat);
        }
        Msg::Ping => {}
        // A span around the driver's own operations only: a heartbeat
        // handler is two pushes, far less than a span costs.
        Msg::Op(i) => tr.op(Sp::Handler, || match &ops[i as usize] {
            ChurnOp::Join(point) => {
                let underlay = NodeIdx(*next_underlay);
                *next_underlay += 1;
                let t = Instant::now();
                let id = tr.span(Sp::OvJoinAndSelect, || {
                    ecan.join_and_select(underlay, point.clone(), selector)
                });
                r.joins_s.push(t.elapsed().as_secs_f64());
                live.push(id);
                joined += u64::from(id.0);
            }
            ChurnOp::Depart(draw) => {
                let victim = live.swap_remove(*draw as usize % live.len());
                let t = Instant::now();
                let ok = tr
                    .span(Sp::OvDepartAndRepair, || {
                        ecan.depart_and_repair(victim, selector)
                    })
                    .is_ok();
                r.departs_s.push(t.elapsed().as_secs_f64());
                departed += u64::from(victim.0);
                depart_failures += u64::from(!ok);
            }
            ChurnOp::Probe(draw, target) => {
                let src = live[*draw as usize % live.len()];
                let ok = tr
                    .op(Sp::OvRouteInto, || {
                        ecan.route_express_into(&mut scratch, src, target)
                    })
                    .is_ok();
                r.hops += scratch.hop_count() as u64;
                // Checked on the spot (one zone test, ~1 % of a probe):
                // the next membership operation may move the owner.
                let arrived = ok
                    && scratch
                        .hops()
                        .last()
                        .is_some_and(|&l| ecan.can().owns_point(l, target) == Ok(true));
                probed += 1;
                probe_failures += u64::from(!arrived);
            }
        }),
    };

    // Phase `beat`: heartbeats only.
    let deadline = sim.now() + sz.beat_slice;
    let t = Instant::now();
    r.beat_events = tr.span(Sp::SimRunUntil, || sim.run_until(deadline, &mut handler));
    r.beat_s = t.elapsed().as_secs_f64();

    // Phase `churn`: the driver's timers, heartbeats still running.
    tr.span(Sp::SimSchedule, || {
        for (i, &at) in fire_at.iter().enumerate() {
            sim.set_timer(*driver, SimDuration::from_micros(at), Msg::Op(i as u32));
        }
    });
    r.pending = sim.pending();
    let deadline = sim.now() + CHURN_SLICE;
    let t = Instant::now();
    tr.span(Sp::SimRunUntil, || sim.run_until(deadline, &mut handler));
    r.churn_s = t.elapsed().as_secs_f64();

    // Output checks: every operation and probe ran, departures succeeded,
    // every probe ended at its target's owner.
    let can = ecan.can();
    checks.add(
        sz.ops as u64,
        sz.ops as u64 - (r.joins_s.len() + r.departs_s.len()) as u64,
    );
    checks.add(r.departs_s.len() as u64, depart_failures);
    checks.add(sz.probes as u64, sz.probes as u64 - probed + probe_failures);

    r.drops = sim.stats().drops();
    r.fingerprint = Fnv::new()
        .u64(r.beat_events as u64)
        .u64(r.drops)
        .u64(joined)
        .u64(departed)
        .u64(r.hops)
        .u64(can.len() as u64)
        .finish();
    r
}

pub fn run(cfg: &Config, tr: &Tracer) -> Report {
    let sz = sizes(cfg.scale);
    // Set-up: grow the CAN, build the tables, register and arm the
    // heartbeat population. Seconds long, so one repetition.
    let (mut fx, setup_s) = timed_setup(|| setup(tr, &sz, cfg.seed));
    tr.end_setup();
    let mut report = Report {
        setup_s,
        ..Report::default()
    };
    let mut checks = Checks::default();
    let mut rounds: Vec<Round> = Vec::new();

    // The traced and untraced call sequences are the same here, so a
    // traced run records even rounds only; the odd rounds are its
    // untraced reference for the overhead.
    let off = Tracer::new(false);
    let wall = Instant::now();
    report.rounds = run_rounds(cfg.measure, |k| {
        tr.set_op(k as u32);
        let recorder = if k % 2 == 0 { tr } else { &off };
        rounds.push(recorder.span(Sp::Round, || {
            round(recorder, &mut fx, &sz, cfg.seed, k, &mut checks)
        }));
    });
    report.wall_s = wall.elapsed().as_secs_f64();

    // The table invariants are checked once, when the run closes: a full
    // sweep over 131k tables costs as much as a round.
    checks.check(holds(|| fx.ecan.check_invariants()));
    report.checks = checks;
    report.fingerprints = rounds.iter().map(|r| r.fingerprint).collect();

    let op_rates: Vec<f64> = rounds
        .iter()
        .map(|r| stats::rate(sz.ops, r.churn_s))
        .collect();
    let event_rates: Vec<f64> = rounds
        .iter()
        .map(|r| stats::rate(r.beat_events, r.beat_s))
        .collect();
    let joins_s: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.joins_s.iter().copied())
        .collect();
    let departs_ms: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.departs_s.iter().map(|s| s * 1e3))
        .collect();
    let join_p50_s: Vec<f64> = rounds.iter().map(|r| stats::median(&r.joins_s)).collect();
    report.end_to_end = EndToEnd::from_rounds(&op_rates, &event_rates, &join_p50_s);
    report.note("scale_ops_per_s", report.end_to_end.primary_per_s, "1/s");
    report.note("sim_events_per_s", report.end_to_end.secondary_per_s, "1/s");
    report.note("joins", joins_s.len() as f64, "count");
    report.note("join_p95_ms", stats::percentile(&joins_s, 0.95) * 1e3, "ms");
    report.note("depart_p50_ms", stats::median(&departs_ms), "ms");

    if tr.enabled() {
        let round_s = |r: &Round| r.beat_s + r.churn_s;
        let traced: Vec<f64> = rounds.iter().step_by(2).map(round_s).collect();
        let untraced: Vec<f64> = rounds.iter().skip(1).step_by(2).map(round_s).collect();
        if !untraced.is_empty() {
            report.layer(
                "trace.overhead_pct",
                100.0 * (stats::median(&traced) / stats::median(&untraced) - 1.0),
            );
        }
        let traced_rounds = rounds.iter().step_by(2);
        let events: usize = traced_rounds
            .clone()
            .map(|r| r.beat_events + sz.ops + sz.probes)
            .sum();
        let probes = traced_rounds.clone().count() * sz.probes;
        report.layer(
            "sim.step_ns",
            tr.agg(Sp::SimRunUntil).self_ns as f64 / events.max(1) as f64,
        );
        let armed = sz.nodes + traced_rounds.clone().count() * (sz.ops + sz.probes);
        report.layer(
            "sim.schedule_ns",
            tr.agg(Sp::SimSchedule).total_ns as f64 / armed as f64,
        );
        report.layer("sim.events", rounds[0].beat_events as f64);
        report.layer("sim.dropped", rounds[0].drops as f64);
        report.layer(
            "sim.pending_peak",
            rounds.iter().map(|r| r.pending).max().unwrap_or(0) as f64,
        );
        report.layer(
            "overlay.hops_per_route",
            traced_rounds.map(|r| r.hops).sum::<u64>() as f64 / probes.max(1) as f64,
        );
        report.layer("overlay.route_errors", report.checks.failed as f64);
    }
    report
}
