//! `churn_mix`: writes beside reads on the paper's own system. Set-up
//! builds an N = 2048 GlobalState system in which every node subscribes
//! to `NodeJoined` on its smallest enclosing high-order zone. Each round
//! a `Simulator` driver node fires 50 membership operations as timers
//! 500 virtual ms apart — alternating `join_node` on a spare router and
//! `depart` + proactive withdrawal — then a maintenance round
//! (`refresh_round` with a seeded 20 % of refreshes lost; TTL 60 s and
//! 25 s rounds, so expiry and lazy repair really happen) and 500
//! `route_express` lookups.
//!
//! Which nodes a round's operations hit moves its cost by ±15 %, and the
//! system drifts as churn accumulates, so this workload is *replayed*:
//! `harness::PASSES` passes, each on a freshly built identical system,
//! run the same rounds on the same inputs, and every timing sample keeps
//! the fastest of its executions (see `harness::PASSES`).
//!
//! The join pipeline (CAN split → vector → number → publish → select →
//! pub/sub notify → re-select), withdrawal, TTL decay and repair all
//! mutate `overlay` + `softstate` while lookups read them. A lookup index
//! that speeds `fig_build` but makes publish/expire/remove dearer shows
//! here.

use std::collections::VecDeque;
use std::time::Instant;

use tao_core::{ExperimentParams, TaoBuilder, TopologyAwareOverlay};
use tao_overlay::ecan::EcanOverlay;
use tao_overlay::{OverlayNodeId, Point};
use tao_sim::{NodeId, SimDuration, SimTime, Simulator, UniformLatency};
use tao_softstate::pubsub::Predicate;
use tao_softstate::{refresh_round, MaintenancePolicy, NodeInfo};
use tao_topology::{NodeIdx, Topology};
use tao_util::rand::rngs::StdRng;
use tao_util::rand::seq::SliceRandom;
use tao_util::rand::{Rng, SeedableRng};

use crate::harness::{
    holds, keep_fastest, mix, rounds_per_pass, timed_setup, Checks, Config, EndToEnd, Fnv, Report,
    Scale, PASSES,
};
use crate::stats;
use crate::trace::{Sp, Tracer};
use crate::traced::TracedSystem;
use crate::workloads::{refuse_trace, topology, FIXTURE_SEED};

const OPS_PER_ROUND: usize = 50;
const OP_GAP: SimDuration = SimDuration::from_millis(500);
const REFRESH_LOSS: f64 = 0.2;
/// Undisturbed full-scale rounds per second on the reference box (the
/// first twenty-odd rounds of a fresh system; later ones are dearer).
const ROUNDS_PER_S: f64 = 3.4;
/// Rounds a traced run first plays on the opaque system: the replay must
/// reproduce their fingerprints, and their wall time is the reference
/// for the tracing overhead.
const REFERENCE_ROUNDS: usize = 3;

struct Sizes {
    nodes: usize,
    lookups: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            nodes: 2048,
            lookups: 500,
        },
        Scale::Smoke => Sizes {
            nodes: 256,
            lookups: 100,
        },
    }
}

/// What the round driver needs from the system under churn; implemented
/// by the opaque `TopologyAwareOverlay` and by the traced replay.
trait System {
    fn ecan(&self) -> &EcanOverlay;
    fn entries(&self) -> usize;
    fn advance_to(&mut self, now: SimTime);
    /// Joins a node on `router` and subscribes it; returns its id and how
    /// many subscribers its join notified.
    fn join(&mut self, router: NodeIdx) -> (OverlayNodeId, usize);
    /// Departs `node`, withdraws its soft-state and its subscriptions.
    fn depart(&mut self, node: OverlayNodeId) -> bool;
    /// One maintenance round over `live`; returns the wall time of the
    /// refresh round itself and its `(expired, repaired)` counts.
    fn maintain(
        &mut self,
        live: &[OverlayNodeId],
        lose: &mut dyn FnMut() -> bool,
    ) -> (f64, u64, u64);
}

fn subscribe(tao: &mut TopologyAwareOverlay, id: OverlayNodeId) {
    if let Some(zone) = tao.ecan().enclosing_high_order_zones(id).first() {
        tao.pubsub_mut().subscribe(zone, id, Predicate::NodeJoined);
    }
}

impl System for TopologyAwareOverlay {
    fn ecan(&self) -> &EcanOverlay {
        TopologyAwareOverlay::ecan(self)
    }

    fn entries(&self) -> usize {
        self.state().total_entries()
    }

    fn advance_to(&mut self, now: SimTime) {
        let by = now - self.now();
        self.advance(by);
    }

    fn join(&mut self, router: NodeIdx) -> (OverlayNodeId, usize) {
        let (id, notified) = self.join_node(router);
        subscribe(self, id);
        (id, notified.len())
    }

    fn depart(&mut self, node: OverlayNodeId) -> bool {
        let ok = TopologyAwareOverlay::depart(self, node).is_ok();
        let now = self.now();
        MaintenancePolicy::ProactiveDeparture.apply_departure(
            self.state_mut(),
            node,
            now,
            SimDuration::ZERO,
        );
        self.pubsub_mut().unsubscribe_all(node);
        ok
    }

    fn maintain(
        &mut self,
        live: &[OverlayNodeId],
        lose: &mut dyn FnMut() -> bool,
    ) -> (f64, u64, u64) {
        let infos: Vec<NodeInfo> = live
            .iter()
            .filter_map(|&id| self.info(id).cloned())
            .collect();
        // `state_mut` borrows the whole system, so the overlay the
        // publishes are placed against is a snapshot.
        let snapshot = self.ecan().clone();
        let now = self.now();
        let t = Instant::now();
        let r = refresh_round(self.state_mut(), &snapshot, &infos, now, |_| lose());
        (t.elapsed().as_secs_f64(), r.expired as u64, r.repaired)
    }
}

impl System for TracedSystem<'_> {
    fn ecan(&self) -> &EcanOverlay {
        &self.ecan
    }

    fn entries(&self) -> usize {
        self.state.total_entries()
    }

    fn advance_to(&mut self, now: SimTime) {
        let by = now - self.now;
        self.advance(by);
    }

    fn join(&mut self, router: NodeIdx) -> (OverlayNodeId, usize) {
        let (id, notified) = self.join_node(router);
        self.subscribe_to_joins(id);
        (id, notified.len())
    }

    fn depart(&mut self, node: OverlayNodeId) -> bool {
        let ok = TracedSystem::depart(self, node).is_ok();
        self.withdraw(node);
        ok
    }

    fn maintain(
        &mut self,
        live: &[OverlayNodeId],
        lose: &mut dyn FnMut() -> bool,
    ) -> (f64, u64, u64) {
        let infos: Vec<NodeInfo> = live
            .iter()
            .filter_map(|&id| self.info(id).cloned())
            .collect();
        let t = Instant::now();
        let (expired, repaired) = self.refresh_round(&infos, |_| lose());
        (t.elapsed().as_secs_f64(), expired, repaired)
    }
}

/// A timer payload of the driver node.
#[derive(Debug, Clone, Copy)]
enum Op {
    Join,
    /// Departs the live node the draw selects.
    Depart(u64),
    Maintain,
    Lookups,
}

/// The system plus the driver's own bookkeeping.
struct Fixture<S> {
    sys: S,
    sim: Simulator<Op, UniformLatency>,
    driver: NodeId,
    /// The driver's live-node list (swap-remove on departure).
    live: Vec<OverlayNodeId>,
    /// Routers no overlay node runs on; a departure returns its router.
    spare: VecDeque<NodeIdx>,
}

fn fixture<S: System>(sys: S, topology: &Topology, seed: u64) -> Fixture<S> {
    let can = sys.ecan().can();
    let live: Vec<OverlayNodeId> = can.live_nodes().collect();
    let mut used = vec![false; topology.graph().node_count()];
    for &id in &live {
        used[can.underlay(id).index()] = true;
    }
    let mut spare: Vec<NodeIdx> = topology
        .graph()
        .nodes()
        .filter(|r| !used[r.index()])
        .collect();
    spare.shuffle(&mut StdRng::seed_from_u64(mix(seed, 3, 0)));
    let mut sim = Simulator::new(UniformLatency::new(SimDuration::from_millis(1)));
    let driver = sim.add_node();
    Fixture {
        sys,
        sim,
        driver,
        live,
        spare: spare.into(),
    }
}

/// Timings and simulated statistics of one round.
#[derive(Default)]
struct Round {
    wall_s: f64,
    joins_s: Vec<f64>,
    departs_s: Vec<f64>,
    refresh_s: f64,
    refreshed: usize,
    lookups_s: f64,
    hops: u64,
    notified: u64,
    expired: u64,
    repaired: u64,
    fingerprint: u64,
}

impl Round {
    /// Folds in the same round as another pass executed it: every timing
    /// keeps its fastest execution.
    fn keep_fastest(&mut self, again: &Round) {
        keep_fastest(&mut self.joins_s, &again.joins_s);
        keep_fastest(&mut self.departs_s, &again.departs_s);
        self.wall_s = self.wall_s.min(again.wall_s);
        self.refresh_s = self.refresh_s.min(again.refresh_s);
        self.lookups_s = self.lookups_s.min(again.lookups_s);
    }
}

fn round<S: System>(
    tr: &Tracer,
    fx: &mut Fixture<S>,
    sz: &Sizes,
    seed: u64,
    k: usize,
    checks: &mut Checks,
) -> Round {
    // Inputs first: departure draws, lost refreshes, lookup requests.
    let mut rng = StdRng::seed_from_u64(mix(seed, 4, k as u64));
    let depart_draws: Vec<u64> = (0..OPS_PER_ROUND / 2).map(|_| rng.gen()).collect();
    let losses: Vec<bool> = (0..fx.live.len() + OPS_PER_ROUND)
        .map(|_| rng.gen_bool(REFRESH_LOSS))
        .collect();
    let lookups: Vec<(u64, Point)> = (0..sz.lookups)
        .map(|_| (rng.gen(), Point::random(2, &mut rng)))
        .collect();

    let Fixture {
        sys,
        sim,
        driver,
        live,
        spare,
    } = fx;
    tr.span(Sp::SimSchedule, || {
        for i in 0..OPS_PER_ROUND {
            let op = if i % 2 == 0 {
                Op::Join
            } else {
                Op::Depart(depart_draws[i / 2])
            };
            sim.set_timer(*driver, OP_GAP * (i as u64 + 1), op);
        }
        // Same instant as the last operation; timers fire in the order set.
        sim.set_timer(*driver, OP_GAP * OPS_PER_ROUND as u64, Op::Maintain);
        sim.set_timer(*driver, OP_GAP * OPS_PER_ROUND as u64, Op::Lookups);
    });

    let mut r = Round::default();
    let mut ended: Vec<Option<OverlayNodeId>> = Vec::with_capacity(sz.lookups);
    let (mut depart_failures, mut joined) = (0u64, 0u64);
    let deadline = sim.now() + OP_GAP * OPS_PER_ROUND as u64;
    let t_round = Instant::now();
    tr.span(Sp::SimRunUntil, || {
        sim.run_until(deadline, |engine, _, msg| {
            tr.op(Sp::Handler, || {
                sys.advance_to(engine.now());
                match msg.payload {
                    Op::Join => {
                        let Some(router) = spare.pop_front() else {
                            return;
                        };
                        let t = Instant::now();
                        let (id, notified) = sys.join(router);
                        r.joins_s.push(t.elapsed().as_secs_f64());
                        live.push(id);
                        joined += u64::from(id.0);
                        r.notified += notified as u64;
                    }
                    Op::Depart(draw) => {
                        let victim = live.swap_remove(draw as usize % live.len());
                        spare.push_back(sys.ecan().can().underlay(victim));
                        let t = Instant::now();
                        let ok = sys.depart(victim);
                        r.departs_s.push(t.elapsed().as_secs_f64());
                        depart_failures += u64::from(!ok);
                    }
                    Op::Maintain => {
                        let mut next = losses.iter().copied();
                        let (s, expired, repaired) =
                            sys.maintain(live, &mut || next.next().unwrap_or(false));
                        (r.refresh_s, r.expired, r.repaired, r.refreshed) =
                            (s, expired, repaired, live.len());
                    }
                    Op::Lookups => {
                        let ecan = sys.ecan();
                        let t = Instant::now();
                        for (draw, target) in &lookups {
                            let src = live[*draw as usize % live.len()];
                            let route = tr.op(Sp::OvRouteAlloc, || ecan.route_express(src, target));
                            ended.push(route.ok().map(|route| {
                                r.hops += route.hop_count() as u64;
                                *route.hops.last().expect("routes are non-empty")
                            }));
                        }
                        r.lookups_s = t.elapsed().as_secs_f64();
                    }
                }
            })
        })
    });
    r.wall_s = t_round.elapsed().as_secs_f64();

    // Output checks, outside the timed region: every operation ran and
    // succeeded, every lookup ended at its target's owner, and the CAN
    // tiles the space. (The *eCAN* check waits for the closing
    // re-selection: `join_node` uses `join_unselected`, whose contract
    // leaves the split owner's dependents stale until they re-select.)
    let can = sys.ecan().can();
    checks.add(
        OPS_PER_ROUND as u64,
        OPS_PER_ROUND as u64 - (r.joins_s.len() + r.departs_s.len()) as u64,
    );
    checks.add(r.departs_s.len() as u64, depart_failures);
    for (last, (_, target)) in ended.iter().zip(&lookups) {
        checks.check(last.is_some_and(|last| can.owns_point(last, target) == Ok(true)));
    }
    checks.check(holds(|| can.check_invariants()));

    r.fingerprint = Fnv::new()
        .u64(joined)
        .u64(r.notified)
        .u64(r.expired)
        .u64(r.repaired)
        .u64(r.hops)
        .u64(sys.entries() as u64)
        .u64(can.len() as u64)
        .finish();
    r
}

/// Expressway entries whose representative is gone or has left the box
/// the entry advertises — what `join_unselected` leaves for re-selection.
fn stale_entries(ecan: &EcanOverlay) -> usize {
    let can = ecan.can();
    can.live_nodes()
        .flat_map(|id| ecan.high_order_entries(id))
        .filter(|e| {
            !can.zones(e.representative)
                .is_ok_and(|zs| zs.iter().any(|z| z.intersects(&e.target_box)))
        })
        .count()
}

pub fn run(cfg: &Config, tr: &Tracer) -> Report {
    let sz = sizes(cfg.scale);
    let params = ExperimentParams {
        overlay_nodes: sz.nodes,
        ..ExperimentParams::default()
    };
    let make_topology = || topology(cfg.scale);
    let opaque = |topology: &Topology| {
        let mut builder = TaoBuilder::new();
        builder.params(params).seed(FIXTURE_SEED);
        let mut tao = builder.build_on(topology.clone());
        for id in tao.ecan().can().live_nodes().collect::<Vec<_>>() {
            subscribe(&mut tao, id);
        }
        fixture(tao, topology, cfg.seed)
    };

    let per_pass = match cfg.scale {
        Scale::Full => rounds_per_pass(cfg.measure, ROUNDS_PER_S),
        // Smoke rounds are ~20× shorter; a run is a handful either way.
        Scale::Smoke => rounds_per_pass(cfg.measure, 20.0 * ROUNDS_PER_S),
    };
    let mut report = Report {
        rounds: per_pass,
        ..Report::default()
    };
    let mut checks = Checks::default();
    let mut rounds: Vec<Round> = Vec::new();
    let mut stale = 0;

    if tr.enabled() {
        // The traced system replays the opaque one; round 0 runs on both.
        let ((mut fx, topology), setup_s) = timed_setup(|| {
            let topology = tr.span(Sp::TopoGenerate, make_topology);
            let mut sys = TracedSystem::build_on(tr, params, FIXTURE_SEED, &topology);
            for id in sys.ecan.can().live_nodes().collect::<Vec<_>>() {
                sys.subscribe_to_joins(id);
            }
            let fx = fixture(sys, &topology, cfg.seed);
            (fx, topology)
        });
        report.setup_s = setup_s;
        tr.end_setup();
        let (off, mut opaque_fx) = (Tracer::new(false), opaque(&topology));
        let reference: Vec<Round> = (0..REFERENCE_ROUNDS)
            .map(|k| {
                round(
                    &off,
                    &mut opaque_fx,
                    &sz,
                    cfg.seed,
                    k,
                    &mut Checks::default(),
                )
            })
            .collect();
        drop(opaque_fx);
        // One traced pass over the rounds every untraced pass runs.
        let t = Instant::now();
        for k in 0..per_pass {
            tr.set_op(k as u32);
            let r = tr.span(Sp::Round, || {
                round(tr, &mut fx, &sz, cfg.seed, k, &mut checks)
            });
            if let Some(opaque) = reference
                .get(k)
                .filter(|opaque| opaque.fingerprint != r.fingerprint)
            {
                refuse_trace("churn_mix", opaque.fingerprint, r.fingerprint);
            }
            rounds.push(r);
        }
        report.wall_s = t.elapsed().as_secs_f64();
        let sys = &mut fx.sys;
        stale = stale_entries(&sys.ecan);
        // The closing re-selection is one more traced round, so the layer
        // table still adds up.
        tr.set_op(report.rounds as u32);
        tr.span(Sp::Round, || sys.reselect());
        checks.check(holds(|| sys.ecan.check_invariants()));
        checks.check(sys.sel.over_budget == 0);

        let sel = sys.sel;
        let joins: usize = rounds.iter().map(|r| r.joins_s.len()).sum();
        let walls = |rs: &[Round]| stats::median(&rs.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        let matched = &rounds[..rounds.len().min(REFERENCE_ROUNDS)];
        report.layer(
            "trace.overhead_pct",
            100.0 * (walls(matched) / walls(&reference[..matched.len()]) - 1.0),
        );
        report.layer("topology.probes", sys.oracle.measurements() as f64);
        report.layer(
            "topology.dijkstra_runs",
            (params.landmarks as u64
                + tr.agg(Sp::TopoMeasure).slow_count
                + tr.agg(Sp::LmVector).slow_count) as f64,
        );
        report.layer("softstate.lookups", sel.lookups as f64);
        report.layer(
            "softstate.candidates_per_lookup",
            sel.candidates as f64 / sel.lookups.max(1) as f64,
        );
        report.layer(
            "softstate.useful_lookup_ratio",
            sel.useful_lookups as f64 / sel.lookups.max(1) as f64,
        );
        report.layer("softstate.entries", sys.state.total_entries() as f64);
        report.layer(
            "softstate.expired",
            rounds.iter().map(|r| r.expired).sum::<u64>() as f64,
        );
        report.layer(
            "softstate.repaired",
            rounds.iter().map(|r| r.repaired).sum::<u64>() as f64,
        );
        report.layer(
            "softstate.notified_per_join",
            sys.notified as f64 / joins.max(1) as f64,
        );
        report.layer("core.selections", sel.selections as f64);
        report.layer(
            "core.probes_per_selection",
            sel.probes as f64 / sel.selections.max(1) as f64,
        );
        report.layer("core.fallbacks", sel.fallbacks as f64);
        report.layer("core.stale_entries_at_close", stale as f64);
        let join_ms: Vec<f64> = tr
            .stored_durations_ns(Sp::CoreJoinNode)
            .iter()
            .map(|ns| ns / 1e6)
            .collect();
        report.layer("core.join_node_p99_ms", stats::percentile(&join_ms, 0.99));
        let lookups: usize = rounds.len() * sz.lookups;
        report.layer(
            "overlay.hops_per_route",
            rounds.iter().map(|r| r.hops).sum::<u64>() as f64 / lookups as f64,
        );
        report.layer("sim.events", (rounds.len() * (OPS_PER_ROUND + 2)) as f64);
        report.layer("sim.pending_peak", (OPS_PER_ROUND + 2) as f64);
        let run_until = tr.agg(Sp::SimRunUntil);
        report.layer(
            "sim.step_ns",
            run_until.self_ns as f64 / (rounds.len() * (OPS_PER_ROUND + 2)) as f64,
        );
        report.layer(
            "sim.schedule_ns",
            tr.agg(Sp::SimSchedule).total_ns as f64 / (rounds.len() * (OPS_PER_ROUND + 2)) as f64,
        );
    } else {
        // Every pass sets up afresh — topology, the built and subscribed
        // system, the driver's bookkeeping — and `setup_s` is the median.
        let mut setups = Vec::with_capacity(PASSES);
        for pass in 0..PASSES {
            let (mut fx, setup_s) = timed_setup(|| opaque(&make_topology()));
            setups.push(setup_s);
            let t = Instant::now();
            for k in 0..per_pass {
                let r = round(tr, &mut fx, &sz, cfg.seed, k, &mut checks);
                match rounds.get_mut(k) {
                    // A replayed round computes what its first execution did.
                    Some(first) => {
                        checks.check(first.fingerprint == r.fingerprint);
                        first.keep_fastest(&r);
                    }
                    None => rounds.push(r),
                }
            }
            report.wall_s += t.elapsed().as_secs_f64();
            // The closing re-selection costs as much as a set-up; the
            // passes end in the same state, so one of them checks it.
            if pass + 1 == PASSES {
                stale = stale_entries(fx.sys.ecan());
                fx.sys.reselect();
                checks.check(holds(|| fx.sys.ecan().check_invariants()));
            }
        }
        report.setup_s = stats::median(&setups);
    }

    report.checks = checks;
    report.fingerprints = rounds.iter().map(|r| r.fingerprint).collect();
    // Work done over the time its fastest executions took, summed over
    // the rounds; latencies are medians over every operation of the run.
    let total = |f: fn(&Round) -> f64| rounds.iter().map(f).sum::<f64>();
    let refreshed: usize = rounds.iter().map(|r| r.refreshed).sum();
    let joins_s: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.joins_s.iter().copied())
        .collect();
    let departs_ms: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.departs_s.iter().map(|s| s * 1e3))
        .collect();
    let refresh_ms: Vec<f64> = rounds.iter().map(|r| r.refresh_s * 1e3).collect();
    report.end_to_end = EndToEnd {
        primary_per_s: stats::rate(rounds.len() * OPS_PER_ROUND, total(|r| r.wall_s)),
        secondary_per_s: stats::rate(refreshed, total(|r| r.refresh_s)),
        op_p50_ms: stats::median(&joins_s) * 1e3,
    };
    let passes = if tr.enabled() { 1 } else { PASSES };
    report.note("passes", passes as f64, "count");
    report.note("churn_ops_per_s", report.end_to_end.primary_per_s, "1/s");
    report.note("joins", joins_s.len() as f64, "count");
    report.note("join_p50_ms", report.end_to_end.op_p50_ms, "ms");
    report.note("join_p95_ms", stats::percentile(&joins_s, 0.95) * 1e3, "ms");
    report.note("depart_p50_ms", stats::median(&departs_ms), "ms");
    report.note("refresh_round_p50_ms", stats::median(&refresh_ms), "ms");
    report.note(
        "lookups_per_s",
        stats::rate(rounds.len() * sz.lookups, total(|r| r.lookups_s)),
        "1/s",
    );
    report.note("stale_entries_at_close", stale as f64, "count");
    report
}
