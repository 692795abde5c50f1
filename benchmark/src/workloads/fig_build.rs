//! `fig_build`: the path behind figures 10–16. On one tsk-large
//! topology every round is one figure cell — `experiment::run_stretch`
//! spelled out: a Table-2 default GlobalState build (`build_on`, fresh
//! `RttOracle` as the figure binaries pay it) then
//! `measure_routing_stretch(2N)`.
//!
//! A cell takes seconds, so a run holds few of them — too few to pick
//! the undisturbed ones from. The workload is *replayed* instead:
//! `harness::PASSES` passes build the same cells (same cell seeds), and
//! each cell's two timings keep the fastest of their executions.
//!
//! `topology` (one Dijkstra per participant behind `RttOracle::measure`)
//! and `softstate` + `core` (map lookup, selection) do almost all the
//! work; `overlay` routing and `sim` do almost none, so a routing or
//! event-queue change must show no movement here.

use std::time::Instant;

use tao_core::{ExperimentParams, StretchSummary, TaoBuilder};
use tao_landmark::LandmarkVector;
use tao_overlay::{OverlayNodeId, Point};
use tao_proximity::{hybrid_search, nn_stretch, true_nearest, Candidate};
use tao_topology::{shortest_paths, NodeIdx, Topology};
use tao_util::rand::rngs::StdRng;
use tao_util::rand::{Rng, SeedableRng};

use crate::harness::{
    holds, mix, rounds_per_pass, timed_setup, Checks, Config, EndToEnd, Fnv, Report, Scale, PASSES,
};
use crate::stats;
use crate::trace::{Sp, Tracer};
use crate::traced::{SelectorStats, TracedSystem};
use crate::workloads::{refuse_trace, topology, FIXTURE_SEED};

/// Routes of every cell replayed one by one, untimed, to check what the
/// opaque `measure_routing_stretch` hides (errors, wrong owner).
const VERIFIED_ROUTES: usize = 256;
/// Nearest-neighbour queries after the last traced cell (trace only).
const NN_QUERIES: usize = 100;
/// Undisturbed full-scale cells per second on the reference box.
const CELLS_PER_S: f64 = 0.45;

fn overlay_nodes(scale: Scale) -> usize {
    match scale {
        Scale::Full => 2048,
        Scale::Smoke => 256,
    }
}

/// The simulated statistics of one cell.
fn fingerprint(s: &StretchSummary, probes: u64, entries: usize, members: usize) -> u64 {
    Fnv::new()
        .f64(s.mean())
        .f64(s.max())
        .u64(s.count() as u64)
        .u64(probes)
        .u64(entries as u64)
        .u64(members as u64)
        .finish()
}

struct Cell {
    build_s: f64,
    stretch_s: f64,
    fingerprint: u64,
}

/// One cell through the entry points users call.
fn opaque_cell(
    topology: &Topology,
    params: ExperimentParams,
    seed: u64,
    checks: &mut Checks,
) -> Cell {
    let routes = tao_core::experiment::routes_for(params.overlay_nodes);
    let mut builder = TaoBuilder::new();
    builder.params(params).seed(seed);

    let t = Instant::now();
    let tao = builder.build_on(topology.clone());
    let build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let summary = tao.measure_routing_stretch(routes, seed ^ 0xF00D);
    let stretch_s = t.elapsed().as_secs_f64();

    // Output checks, all outside the timed region.
    checks.check(summary.count() * 10 >= routes * 9);
    checks.check(summary.min() >= 1.0 - 1e-9);
    checks.check(holds(|| tao.ecan().check_invariants()));
    let can = tao.ecan().can();
    let live: Vec<OverlayNodeId> = can.live_nodes().collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
    for _ in 0..VERIFIED_ROUTES {
        let src = live[rng.gen_range(0..live.len())];
        let target = Point::random(params.dims, &mut rng);
        checks.check(match tao.ecan().route_express(src, &target) {
            Ok(route) => route
                .hops
                .last()
                .is_some_and(|&dst| can.owns_point(dst, &target) == Ok(true)),
            Err(_) => false,
        });
    }
    Cell {
        build_s,
        stretch_s,
        fingerprint: fingerprint(
            &summary,
            tao.oracle().measurements(),
            tao.state().total_entries(),
            can.len(),
        ),
    }
}

/// The same cell as explicit layer calls under spans. Returns the system
/// too, for the counters and the nearest-neighbour queries.
fn traced_cell<'t>(
    tr: &'t Tracer,
    topology: &Topology,
    params: ExperimentParams,
    seed: u64,
    checks: &mut Checks,
) -> (Cell, TracedSystem<'t>, StretchSummary, u64) {
    let routes = tao_core::experiment::routes_for(params.overlay_nodes);
    let t = Instant::now();
    // `run_stretch` clones the topology into `build_on`; the replay only
    // needs the graph clone `RttOracle::new` takes, which it spans.
    let sys = TracedSystem::build_on(tr, params, seed, topology);
    let build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (summary, hops) = sys.measure_routing_stretch(routes, seed ^ 0xF00D, checks);
    let stretch_s = t.elapsed().as_secs_f64();
    checks.check(holds(|| sys.ecan.check_invariants()));
    checks.check(sys.sel.over_budget == 0);
    let cell = Cell {
        build_s,
        stretch_s,
        fingerprint: fingerprint(
            &summary,
            sys.oracle.measurements(),
            sys.state.total_entries(),
            sys.ecan.can().len(),
        ),
    };
    (cell, sys, summary, hops)
}

/// 100 `hybrid_search` queries against `true_nearest` over the last
/// cell's participants: the baseline for the figure 3–6 work. Trace
/// only, outside every end-to-end timing.
fn nearest_neighbour_queries(
    tr: &Tracer,
    sys: &TracedSystem<'_>,
    budget: usize,
    seed: u64,
    report: &mut Report,
) {
    let can = sys.ecan.can();
    let pool: Vec<Candidate> = can
        .live_nodes()
        .filter_map(|id| sys.info(id))
        .map(|info| Candidate {
            underlay: info.underlay,
            vector: info.vector.clone(),
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut probes, mut stretch_sum, mut answered) = (0u64, 0.0, 0u64);
    for _ in 0..NN_QUERIES {
        let query = &pool[rng.gen_range(0..pool.len())];
        let vector: &LandmarkVector = &query.vector;
        let found = tr.op(Sp::PxHybridSearch, || {
            hybrid_search(query.underlay, vector, &pool, budget, &sys.oracle)
        });
        let nearest = tr.op(Sp::PxTrueNearest, || {
            true_nearest(query.underlay, pool.iter().map(|c| c.underlay), &sys.oracle)
        });
        probes += found.len() as u64;
        if let (Some(best), Some((_, true_rtt))) = (found.best_after(budget), nearest) {
            let s = nn_stretch(best.rtt, true_rtt);
            if s.is_finite() {
                stretch_sum += s;
                answered += 1;
            }
        }
    }
    report.layer(
        "proximity.probes_per_query",
        probes as f64 / NN_QUERIES as f64,
    );
    report.layer(
        "proximity.nn_stretch_mean",
        stretch_sum / answered.max(1) as f64,
    );
}

pub fn run(cfg: &Config, tr: &Tracer) -> Report {
    let n = overlay_nodes(cfg.scale);
    let params = ExperimentParams {
        overlay_nodes: n,
        ..ExperimentParams::default()
    };

    // Set-up: the shared topology, then one discarded warm-up cell (its
    // 2,048 distance vectors fault the allocator's arenas in, as the
    // first cell of a figure binary does). Topology generation alone
    // takes ~2 ms and reads 1.6 or 2.4 ms from run to run; with the
    // warm-up cell `setup_s` is a steady number that still shows work
    // moved out of the cells into set-up.
    let (topology, setup_s) = timed_setup(|| {
        let topology = tr.span(Sp::TopoGenerate, || topology(cfg.scale));
        opaque_cell(&topology, params, FIXTURE_SEED, &mut Checks::default());
        topology
    });
    tr.end_setup();

    let per_pass = match cfg.scale {
        Scale::Full => rounds_per_pass(cfg.measure, CELLS_PER_S),
        Scale::Smoke => rounds_per_pass(cfg.measure, 40.0 * CELLS_PER_S),
    };
    let mut report = Report {
        setup_s,
        rounds: per_pass,
        ..Report::default()
    };
    let mut checks = Checks::default();
    // Per cell, the fastest build and the fastest stretch measurement.
    let (mut builds_s, mut stretches_s): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    let mut reference_cell_s = 0.0;
    let mut last = None;
    // Counts are taken over the first cell, so they repeat exactly at a
    // seed however many cells a run builds.
    let (mut first_probes, mut first_runs, mut first_entries) = (0u64, 0u64, 0usize);
    let mut first_sel = SelectorStats::default();
    let (mut stretch_sum, mut stretch_n, mut hops_total, mut routes_total) =
        (0.0, 0u64, 0u64, 0u64);
    let routes = tao_core::experiment::routes_for(n);

    let wall = Instant::now();
    // A traced run is one pass over the cells every untraced pass builds.
    let passes = if tr.enabled() { 1 } else { PASSES };
    report.note("passes", passes as f64, "count");
    for pass in 0..passes {
        for k in 0..per_pass {
            let seed = mix(cfg.seed, 2, k as u64);
            let cell = if tr.enabled() {
                // The replay must reproduce what the entry points compute.
                let opaque = (k == 0)
                    .then(|| opaque_cell(&topology, params, seed, &mut Checks::default()));
                tr.set_op(k as u32);
                let (cell, sys, summary, hops) = tr.span(Sp::Round, || {
                    traced_cell(tr, &topology, params, seed, &mut checks)
                });
                if let Some(opaque) = opaque {
                    if cell.fingerprint != opaque.fingerprint {
                        refuse_trace("fig_build", opaque.fingerprint, cell.fingerprint);
                    }
                    reference_cell_s = opaque.build_s + opaque.stretch_s;
                    first_probes = sys.oracle.measurements();
                    first_entries = sys.state.total_entries();
                    first_sel = sys.sel;
                    first_runs = params.landmarks as u64
                        + tr.agg(Sp::TopoMeasure).slow_count
                        + tr.agg(Sp::TopoGroundTruth).slow_count;
                }
                stretch_sum += summary.mean() * summary.count() as f64;
                stretch_n += summary.count() as u64;
                hops_total += hops;
                routes_total += routes as u64;
                last = Some(sys);
                cell
            } else {
                opaque_cell(&topology, params, seed, &mut checks)
            };
            if pass == 0 {
                builds_s.push(cell.build_s);
                stretches_s.push(cell.stretch_s);
                report.fingerprints.push(cell.fingerprint);
            } else {
                // A replayed cell computes what its first execution did.
                checks.check(cell.fingerprint == report.fingerprints[k]);
                builds_s[k] = builds_s[k].min(cell.build_s);
                stretches_s[k] = stretches_s[k].min(cell.stretch_s);
            }
        }
    }
    report.wall_s = wall.elapsed().as_secs_f64();
    report.checks = checks;
    // Work done over the time its fastest executions took, summed over
    // the cells; the "operation" is the cell.
    let cells: Vec<f64> = builds_s.iter().zip(&stretches_s).map(|(b, s)| b + s).collect();
    report.end_to_end = EndToEnd {
        primary_per_s: stats::rate(per_pass * n, builds_s.iter().sum()),
        secondary_per_s: stats::rate(per_pass * routes, stretches_s.iter().sum()),
        op_p50_ms: stats::median(&cells) * 1e3,
    };
    report.note("cells", cells.len() as f64, "count");
    report.note("cell_p50_s", stats::median(&cells), "s");
    report.note("cell_max_s", stats::percentile(&cells, 1.0), "s");

    if let Some(sys) = last {
        let traced_cell_s = stats::median(&cells);
        report.layer(
            "trace.overhead_pct",
            100.0 * (traced_cell_s / reference_cell_s - 1.0),
        );
        report.layer("topology.probes", first_probes as f64);
        report.layer("topology.dijkstra_runs", first_runs as f64);
        let sel = first_sel;
        report.layer("softstate.lookups", sel.lookups as f64);
        report.layer(
            "softstate.candidates_per_lookup",
            sel.candidates as f64 / sel.lookups.max(1) as f64,
        );
        report.layer(
            "softstate.useful_lookup_ratio",
            sel.useful_lookups as f64 / sel.lookups.max(1) as f64,
        );
        report.layer("softstate.entries", first_entries as f64);
        report.layer("core.selections", sel.selections as f64);
        report.layer(
            "core.probes_per_selection",
            sel.probes as f64 / sel.selections.max(1) as f64,
        );
        report.layer("core.fallbacks", sel.fallbacks as f64);
        report.layer("core.stretch_mean", stretch_sum / stretch_n.max(1) as f64);
        report.layer(
            "overlay.hops_per_route",
            hops_total as f64 / routes_total.max(1) as f64,
        );
        report.layer("overlay.route_errors", report.checks.failed as f64);

        // Trace-only extras, as one more round so the layer table still
        // adds up: a shortest-path cache miss measured on its own, and
        // the nearest-neighbour queries.
        tr.set_op(report.rounds as u32);
        tr.span(Sp::Round, || {
            let mut rng = StdRng::seed_from_u64(mix(cfg.seed, 3, 0));
            let routers = topology.graph().node_count() as u32;
            for _ in 0..8 {
                let source = NodeIdx(rng.gen_range(0..routers));
                std::hint::black_box(tr.op(Sp::TopoDijkstra, || {
                    shortest_paths(topology.graph(), source)
                }));
            }
            nearest_neighbour_queries(
                tr,
                &sys,
                params.rtt_budget,
                mix(cfg.seed, 4, 0),
                &mut report,
            );
        });
    }
    report
}
